//! Crash-safe sweeps end to end: a run killed mid-sweep leaves only whole
//! outputs behind, and `--resume` completes the remainder with CSVs that
//! are byte-identical to an uninterrupted run.
//!
//! The kill is deterministic: `IOBTS_FAIL_AFTER=n` makes the registry
//! exit with code 137 (the SIGKILL code) after `n` completed scenarios —
//! a hermetic stand-in for yanking the process at an arbitrary point.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const SCENARIOS: [&str; 2] = ["fig03", "fig04"];

fn figures(
    results_dir: &Path,
    extra_args: &[&str],
    fail_after: Option<u32>,
) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    for s in SCENARIOS {
        cmd.args(["--only", s]);
    }
    cmd.args(extra_args);
    cmd.env("IOBTS_RESULTS_DIR", results_dir);
    match fail_after {
        Some(n) => cmd.env("IOBTS_FAIL_AFTER", n.to_string()),
        None => cmd.env_remove("IOBTS_FAIL_AFTER"),
    };
    cmd.output().expect("spawning the figures bin")
}

/// All CSV bytes under `dir`, keyed by file name.
fn csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for e in std::fs::read_dir(dir)
        .expect("results dir exists")
        .flatten()
    {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") {
            out.insert(name, std::fs::read(e.path()).expect("readable csv"));
        }
    }
    out
}

#[test]
fn killed_sweep_resumes_byte_identical() {
    let base = std::env::temp_dir().join(format!("iobts-resume-{}", std::process::id()));
    let clean = base.join("clean");
    let crashed = base.join("crashed");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&clean).expect("clean dir");
    std::fs::create_dir_all(&crashed).expect("crashed dir");

    // Reference: the uninterrupted sweep.
    let out = figures(&clean, &[], None);
    assert!(out.status.success(), "clean run failed: {out:?}");
    let reference = csvs(&clean);
    assert!(!reference.is_empty(), "clean run produced no CSVs");

    // Kill after the first completed scenario.
    let out = figures(&crashed, &[], Some(1));
    assert_eq!(
        out.status.code(),
        Some(137),
        "expected the deterministic mid-sweep kill: {out:?}"
    );
    let partial = csvs(&crashed);
    assert!(
        partial.len() < reference.len(),
        "the killed run must be missing outputs (got {partial:?})"
    );
    // No temp-file debris: everything present is whole and final.
    for (name, bytes) in &partial {
        assert_eq!(bytes, &reference[name], "{name} differs after the kill");
    }

    // Resume: skips the finished entry, completes the rest.
    let out = figures(&crashed, &["--resume"], None);
    assert!(out.status.success(), "resume run failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("SKIP"),
        "resume must skip the completed entry: {stderr}"
    );
    assert_eq!(csvs(&crashed), reference, "resumed outputs differ");

    // A resume of a finished sweep is a no-op that skips everything.
    let out = figures(&crashed, &["--resume"], None);
    assert!(out.status.success(), "idempotent resume failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.matches("SKIP").count(),
        SCENARIOS.len(),
        "all entries skip on a second resume: {stderr}"
    );
    assert_eq!(csvs(&crashed), reference);

    // A plain re-run (no --resume) clears the manifests and recomputes.
    let out = figures(&crashed, &[], None);
    assert!(out.status.success(), "fresh re-run failed: {out:?}");
    assert!(!String::from_utf8_lossy(&out.stderr).contains("SKIP"));

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn resume_reruns_when_the_run_shape_changes() {
    let base = std::env::temp_dir().join(format!("iobts-resume-shape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("results dir");

    let out = figures(&base, &[], None);
    assert!(out.status.success(), "{out:?}");
    // Same entries under --full: the quick-shape manifests must not mask
    // the paper-scale recompute.
    let out = figures(&base, &["--resume", "--full"], None);
    assert!(out.status.success(), "{out:?}");
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("SKIP"),
        "a shape change must invalidate the manifests"
    );

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn resume_recomputes_entries_completed_by_other_code_or_config() {
    let base = std::env::temp_dir().join(format!("iobts-resume-code-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("results dir");

    let out = figures(&base, &[], None);
    assert!(out.status.success(), "{out:?}");
    let reference = csvs(&base);

    // Make fig04 look as if an older build (a different scenario config or
    // engine) had computed it: stale CSV bytes under a manifest whose build
    // identity differs from this binary's.
    let manifest = base.join(".manifest").join("figure.fig04.done");
    let body = std::fs::read_to_string(&manifest).expect("fig04 manifest");
    assert!(body.contains("entry=figure.fig04"), "manifest: {body}");
    let build = body
        .split_whitespace()
        .find_map(|f| f.strip_prefix("build="))
        .expect("manifest names its build");
    std::fs::write(&manifest, body.replace(build, "0123456789abcdef")).expect("forge manifest");
    let csv = base.join("fig04_regions.csv");
    assert!(
        reference.contains_key("fig04_regions.csv"),
        "{:?}",
        reference.keys()
    );
    std::fs::write(&csv, "stale\n").expect("stale csv");
    // fig03 carries the shape-only manifest written before build identities.
    std::fs::write(
        base.join(".manifest").join("figure.fig03.done"),
        "v1 full=false quick=false",
    )
    .expect("old-format manifest");

    let out = figures(&base, &["--resume"], None);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("SKIP"),
        "entries from other code must be recomputed: {stderr}"
    );
    assert_eq!(csvs(&base), reference, "recomputed outputs differ");

    // The recomputed entries are now current and skip on the next resume.
    let out = figures(&base, &["--resume"], None);
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).matches("SKIP").count(),
        SCENARIOS.len()
    );

    let _ = std::fs::remove_dir_all(&base);
}

/// Runs a clean sweep into a fresh dir, applies `damage` to
/// `fig04_regions.csv`, resumes, and checks that fig04 alone is recomputed
/// back to the clean bytes.
fn resume_repairs(tag: &str, damage: impl Fn(&Path)) {
    let base = std::env::temp_dir().join(format!("iobts-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("results dir");

    let out = figures(&base, &[], None);
    assert!(out.status.success(), "{out:?}");
    let reference = csvs(&base);
    assert!(reference.contains_key("fig04_regions.csv"));

    damage(&base.join("fig04_regions.csv"));
    let out = figures(&base, &["--resume"], None);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("SKIP fig03") && !stderr.contains("SKIP fig04"),
        "only the damaged entry must be recomputed: {stderr}"
    );
    assert_eq!(csvs(&base), reference, "resume left the damage in place");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn resume_recomputes_an_entry_whose_output_was_corrupted() {
    resume_repairs("corrupt", |csv| {
        std::fs::write(csv, "junk\n").expect("overwrite csv");
    });
}

#[test]
fn resume_recomputes_an_entry_whose_output_was_deleted() {
    resume_repairs("deleted", |csv| {
        std::fs::remove_file(csv).expect("delete csv");
    });
}
