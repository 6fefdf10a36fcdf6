//! Crash-safe sweep manifests: the registry's checkpoint/resume layer.
//!
//! As each scenario of a sweep completes, [`mark_done`] writes a tiny
//! per-entry manifest file under `<results dir>/.manifest/` — crash-safe through
//! `session::write_atomic`, and written only *after* the
//! scenario's CSVs are themselves atomically in place. A manifest entry
//! therefore implies the scenario's outputs are whole.
//!
//! `--resume` ([`is_done`]) skips entries whose manifest matches the
//! current fingerprint — the same code, the same entry and the same run
//! shape (`--full`/`--quick` flags) — and whose recorded outputs are still
//! on disk as written: each CSV the entry finished is listed with its
//! length and FNV-1a digest (the hash of the build identity), so a deleted
//! or corrupted output makes the entry run again. An interrupted sweep thus
//! picks up where it stopped and regenerates byte-identical outputs: the
//! scenarios themselves are deterministic, and the skipped entries' files
//! are verified final. An entry completed by other code (an edited scenario
//! config or engine) or under another shape is recomputed. A non-resume run
//! calls [`clear_group`] first so stale manifests never mask re-runs.

use crate::registry::ScenarioCtx;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where per-entry manifests live: inside the sweep's results dir, so two
/// sweeps into two dirs never see each other's completions.
fn manifest_dir(ctx: &ScenarioCtx) -> PathBuf {
    ctx.results_dir.join(".manifest")
}

/// Identity of the code that computes every entry: the digest of the
/// running binary, which [`ScenarioCtx::new`] reads once per sweep. A
/// scenario's configs are code, so editing one — or the engine beneath it —
/// changes this. A binary that cannot be read gets a per-process identity,
/// so `--resume` recomputes.
pub fn build_id() -> String {
    match std::env::current_exe().and_then(fs::read) {
        Ok(binary) => format!("{:016x}", fnv1a(&binary)),
        Err(_) => format!("unreadable-{}", std::process::id()),
    }
}

/// The fingerprint stored in an entry's manifest: the build identity plus
/// the entry's resolved configuration — which entry, at which run shape
/// (completing a `--quick` sweep must not mark the full-scale variant done).
fn fingerprint(group: &str, name: &str, ctx: &ScenarioCtx) -> String {
    format!(
        "v3 build={} entry={group}.{name} full={} quick={}",
        ctx.build_id, ctx.full, ctx.quick
    )
}

fn entry_path(group: &str, name: &str, ctx: &ScenarioCtx) -> PathBuf {
    manifest_dir(ctx).join(format!("{group}.{name}.done"))
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The manifest line of one output file: `<digest> <length> <file name>`,
/// the name relative to the results dir.
fn output_line(path: &Path) -> io::Result<String> {
    let body = fs::read(path)?;
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "output has no file name"))?;
    Ok(format!(
        "{:016x} {} {}",
        fnv1a(&body),
        body.len(),
        name.to_string_lossy()
    ))
}

/// Whether `name` completed under the current code and run shape, and every
/// output it recorded is still there with the recorded length and digest
/// (for `--resume`).
pub fn is_done(group: &str, name: &str, ctx: &ScenarioCtx) -> bool {
    let Ok(body) = fs::read_to_string(entry_path(group, name, ctx)) else {
        return false;
    };
    let mut lines = body.lines();
    lines.next() == Some(fingerprint(group, name, ctx).as_str())
        && lines.all(|line| {
            let file = line.splitn(3, ' ').nth(2).unwrap_or_default();
            output_line(&ctx.results_dir.join(file)).is_ok_and(|now| now == line)
        })
}

/// Records `name` as complete with the outputs it wrote (`ctx.outputs`),
/// crash-safe through `session::write_atomic` and only after the
/// scenario's own outputs are in place.
pub fn mark_done(group: &str, name: &str, ctx: &ScenarioCtx) -> io::Result<()> {
    fs::create_dir_all(manifest_dir(ctx))?;
    let mut body = fingerprint(group, name, ctx);
    for path in &ctx.outputs {
        body.push('\n');
        body.push_str(&output_line(path)?);
    }
    session::write_atomic(&entry_path(group, name, ctx), body.as_bytes())
}

/// Drops every manifest entry of `group` (fresh, non-resume runs).
pub fn clear_group(group: &str, ctx: &ScenarioCtx) {
    let Ok(entries) = fs::read_dir(manifest_dir(ctx)) else {
        return;
    };
    let prefix = format!("{group}.");
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with(&prefix) && name.ends_with(".done") {
            let _ = fs::remove_file(e.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quick- and a full-shape context over a fresh dir private to `test`.
    fn ctxs(test: &str) -> (ScenarioCtx, ScenarioCtx) {
        let dir =
            std::env::temp_dir().join(format!("iobts-manifest-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let quick = ScenarioCtx::new(dir, 1);
        let full = ScenarioCtx {
            full: true,
            ..quick.clone()
        };
        (quick, full)
    }

    #[test]
    fn roundtrip_and_fingerprint_mismatch() {
        let (ctx, full) = ctxs("roundtrip");
        assert!(!is_done("g", "s1", &ctx));
        mark_done("g", "s1", &ctx).unwrap();
        assert!(is_done("g", "s1", &ctx));
        // A quick-shape completion does not satisfy a full-shape resume.
        assert!(!is_done("g", "s1", &full));
        // Nor does one entry's completion mark another done.
        assert!(!is_done("g", "s2", &ctx));
        // A manifest left by other code (another build identity, or the
        // shape-only format that predates it) is not a completion.
        let other = fingerprint("g", "s1", &ctx).replace(&ctx.build_id, "0123456789abcdef");
        fs::write(entry_path("g", "s1", &ctx), other).unwrap();
        assert!(!is_done("g", "s1", &ctx));
        fs::write(entry_path("g", "s1", &ctx), "v1 full=false quick=false").unwrap();
        assert!(!is_done("g", "s1", &ctx));
        clear_group("g", &ctx);
        assert!(!is_done("g", "s1", &ctx));
        fs::remove_dir_all(&ctx.results_dir).unwrap();
    }

    #[test]
    fn changed_or_missing_outputs_undo_a_completion() {
        let (mut ctx, _) = ctxs("outputs");
        fs::create_dir_all(&ctx.results_dir).unwrap();
        let out = ctx.results_dir.join("manifest_unit_test.csv");
        fs::write(&out, "a,b\n1,2\n").unwrap();
        ctx.outputs.push(out.clone());
        mark_done("h", "s1", &ctx).unwrap();
        assert!(is_done("h", "s1", &ctx));
        // Same length, other bytes: caught by the digest.
        fs::write(&out, "a,b\n1,3\n").unwrap();
        assert!(!is_done("h", "s1", &ctx));
        fs::write(&out, "a,b\n1,2\n").unwrap();
        assert!(is_done("h", "s1", &ctx));
        fs::remove_file(&out).unwrap();
        assert!(!is_done("h", "s1", &ctx));
        fs::remove_dir_all(&ctx.results_dir).unwrap();
    }
}
