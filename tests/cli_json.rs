//! The CLI's `--json PATH`: the trace file is exactly the session's report,
//! staged through a temp sibling, and a path that cannot be written is a
//! one-line error that names it, raised before the run starts. An invalid
//! config is likewise one error line with nothing printed before it. Only
//! command-line mistakes are answered with the usage text. A reader that
//! closes stdout early ends the run quietly.

use iobts::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty directory private to one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iobts-cli-json-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wacomm_json(path: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iobts"))
        .args(["wacomm", "--ranks", "4", "--iterations", "3", "--json"])
        .arg(path)
        .output()
        .unwrap()
}

#[test]
fn json_trace_is_the_session_report() {
    let dir = scratch("ok");
    let path = dir.join("t.json");
    let out = wacomm_json(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Built the way `iobts wacomm` builds it from these flags.
    let cfg = ExpConfig::new(4, Strategy::Direct { tol: 1.1 }).with_seed(2024);
    let wc = WacommConfig {
        iterations: 3,
        ..Default::default()
    };
    let session = Session::builder(cfg)
        .workload(Wacomm::new(wc))
        .try_build()
        .unwrap();
    let want = session.try_run().unwrap().report.to_json();
    assert_eq!(fs::read_to_string(&path).unwrap(), want);
    assert!(!dir.join(".t.json.tmp").exists());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unwritable_json_path_fails_and_names_it() {
    let dir = scratch("missing");
    let path = dir.join("missing").join("t.json");
    let out = wacomm_json(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&path.display().to_string()),
        "stderr does not name {}: {stderr}",
        path.display()
    );
    // Checked before the run: no banner, no summary, and no usage text.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "printed before failing: {stdout}");
    assert!(
        !stderr.contains("USAGE"),
        "usage text after a run error: {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(!dir.join("missing").exists());
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_option_value_prints_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
        .args(["wacomm", "--ranks", "many"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: invalid value `many` for --ranks\n"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn invalid_config_is_rejected_before_the_banner() {
    for cmd in ["wacomm", "hacc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
            .args([cmd, "--ranks", "0"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{cmd}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.is_empty(), "{cmd} printed before failing: {stdout}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{cmd}: {stderr}");
        assert!(stderr.starts_with("error: "), "{cmd}: {stderr}");
    }
}

#[test]
fn too_few_wacomm_iterations_are_a_config_error_not_a_panic() {
    for iterations in ["0", "1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
            .args(["wacomm", "--ranks", "4", "--iterations", iterations])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--iterations {iterations}");
        assert!(out.stdout.is_empty(), "--iterations {iterations}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr,
            format!(
                "error: invalid config: iterations: need at least two iterations, \
                 got {iterations}\n"
            )
        );
    }
}

#[test]
fn hacc_without_a_loop_is_a_config_error_not_an_empty_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
        .args(["hacc", "--ranks", "2", "--loops", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no banner");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: invalid config: loops: need at least one loop, got 0\n"
    );
}

#[test]
fn closed_stdout_ends_quietly_with_success() {
    // As in `iobts wacomm ... | true`: the reader is gone before the
    // banner or the summary is written.
    let runs: [&[&str]; 2] = [
        &["wacomm", "--ranks", "4", "--iterations", "2"],
        &["hacc", "--ranks", "4", "--loops", "2"],
    ];
    for args in runs {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_iobts"))
            .args(args)
            .stdout(writer)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
