//! The CLI's `--json PATH`: the trace file is exactly the session's report,
//! staged through a temp sibling, and a path that cannot be written is an
//! error that names it.

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
    assert!(!dir.join("missing").exists());
    assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
    fs::remove_dir_all(&dir).unwrap();
}
