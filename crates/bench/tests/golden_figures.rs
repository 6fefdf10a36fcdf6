//! Golden-file tests: the scenario registry must regenerate every
//! checked-in figure and ablation CSV (`results/`) byte-for-byte, and the
//! largest and smallest Fig. 7 sweep points and two Fig. 11 sweep points of
//! `results_full/` must match too. Run them in a release build — the sweeps
//! are slow in debug.

use bench::registry::{select, ScenarioCtx};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn registry_regenerates_golden_csvs() {
    let tmp = std::env::temp_dir().join(format!("iobts-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    // This is the only test in this binary that writes CSVs, so the
    // process-global results override cannot race another test.
    std::env::set_var("IOBTS_RESULTS_DIR", &tmp);

    let ctx = ScenarioCtx::default();
    // An empty selection is the whole group.
    for group in ["figure", "ablation"] {
        for s in select(group, &[]).unwrap() {
            (s.run)(&ctx).unwrap_or_else(|e| panic!("{} failed: {e}", s.name));
        }
    }

    let mut compared = 0usize;
    for entry in std::fs::read_dir(&tmp).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        let name = p.file_name().unwrap().to_str().unwrap().to_string();
        let fresh = std::fs::read(&p).unwrap();
        let golden = std::fs::read(golden_dir().join(&name))
            .unwrap_or_else(|e| panic!("no golden file for {name}: {e}"));
        assert_eq!(
            fresh, golden,
            "{name} drifted from the checked-in golden CSV — the registry \
             pipeline no longer reproduces results/ byte-for-byte"
        );
        compared += 1;
    }
    assert!(compared >= 24, "only {compared} CSVs compared");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// `--full`-scale byte identity: the 96- and 6144-rank rows of Fig. 7
/// (the 6144-rank runs keep two events per rank pending, the deepest
/// event queue of the sweep) must match `results_full/`.
#[test]
fn full_scale_fig07_rows_match_results_full() {
    let ranks = [96usize, 6144];
    let fresh = bench::csv::rows(&bench::scenarios::wacomm_distribution(&ranks));
    let path = golden_dir().join("../results_full/fig07_wacomm_dist.csv");
    let golden = std::fs::read_to_string(&path).unwrap();
    let golden: Vec<&str> = golden
        .lines()
        .filter(|l| ranks.iter().any(|n| l.starts_with(&format!("{n},"))))
        .collect();
    assert_eq!(golden.len(), 12, "expected six runs per rank count");
    assert_eq!(
        fresh, golden,
        "fig07 --full rows drifted from the checked-in results_full/ CSV"
    );
}

/// `--full`-scale byte identity for Fig. 11: the HACC-IO rows (100 000
/// particles per rank, all four strategies, sync header writes plus async
/// write and read phases) at two rank counts cheap enough for CI must match
/// `results_full/`.
#[test]
fn full_scale_fig11_rows_match_results_full() {
    let ranks = [16usize, 3072];
    let fresh = bench::csv::rows(&bench::scenarios::hacc_distribution(&ranks, 100_000));
    let path = golden_dir().join("../results_full/fig11_hacc_dist.csv");
    let golden = std::fs::read_to_string(&path).unwrap();
    let golden: Vec<&str> = golden
        .lines()
        .filter(|l| ranks.iter().any(|n| l.starts_with(&format!("{n},"))))
        .collect();
    assert_eq!(golden.len(), 16, "expected eight runs per rank count");
    assert_eq!(
        fresh, golden,
        "fig11 --full rows drifted from the checked-in results_full/ CSV"
    );
}

/// `--full`-scale byte identity for a series figure: Fig. 14's noisy
/// HACC-IO run (1536 ranks, PFS capacity spikes, direct strategy) must
/// reproduce `results_full/fig14_noisy.csv` through the rows the figure
/// writes.
#[test]
fn full_scale_fig14_noisy_series_matches_results_full() {
    let out =
        bench::scenarios::hacc_series(1536, 100_000, tmio::Strategy::Direct { tol: 1.1 }, true);
    let mut fresh = vec![bench::figs::SERIES_HEADER.to_string()];
    fresh.extend(bench::figs::series_csv_rows(&out));
    let path = golden_dir().join("../results_full/fig14_noisy.csv");
    let golden = std::fs::read_to_string(&path).unwrap();
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), 401, "header plus 400 samples");
    assert_eq!(
        fresh, golden,
        "fig14 --full noisy series drifted from the checked-in results_full/ CSV"
    );
}
