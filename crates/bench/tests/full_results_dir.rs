//! A bare `figures --full` writes its paper-scale CSVs to `results_full/`,
//! never over the quick-scale goldens in `results/`.

use std::path::Path;
use std::process::Command;

#[test]
fn full_sweep_defaults_to_results_full() {
    let cwd = std::env::temp_dir().join(format!("iobts-full-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--full", "--only", "fig03"])
        .current_dir(&cwd)
        .env_remove("IOBTS_RESULTS_DIR")
        .output()
        .expect("spawning the figures bin");
    assert!(out.status.success(), "{out:?}");
    let written = std::fs::read(cwd.join("results_full/fig03_timeline.csv")).expect("CSV written");
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results_full/fig03_timeline.csv");
    assert_eq!(written, std::fs::read(golden).expect("golden CSV"));
    assert!(cwd.join("results_full/.manifest").is_dir());
    assert!(
        !cwd.join("results").exists(),
        "a --full sweep wrote to results/"
    );
    std::fs::remove_dir_all(&cwd).expect("cleanup");
}
