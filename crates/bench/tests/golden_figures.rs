//! Golden-file tests: the scenario registry must regenerate every
//! checked-in figure and ablation CSV (`results/`) byte-for-byte, and the
//! largest and smallest Fig. 7 sweep points and two Fig. 11 sweep points of
//! `results_full/` must match too. Run them in a release build — the sweeps
//! are slow in debug. Every test writes under a context of its own, so the
//! tests may run concurrently.

use bench::registry::{run_entry, select, ScenarioCtx, ALL};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// A fresh, empty results dir private to `test`.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iobts-golden-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The sweep width of the tests that do not pick one.
fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[test]
fn registry_regenerates_golden_csvs() {
    let tmp = scratch("registry");
    let mut ctx = ScenarioCtx::new(&tmp, jobs());
    // An empty selection is the whole group.
    for group in ["figure", "ablation"] {
        for s in select(group, &[]).unwrap() {
            (s.run)(&mut ctx).unwrap_or_else(|e| panic!("{} failed: {e}", s.name));
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

/// Two sweeps run side by side on two threads, into two dirs, at widths 1
/// and 4, through the registry's per-entry path: each dir ends up with the
/// golden CSVs of its entries and nothing else, and each entry records
/// exactly the file it wrote.
#[test]
fn concurrent_sweeps_keep_their_own_dirs_and_outputs() {
    let entries = [
        ("fig04", "fig04_regions.csv"),
        ("ablation.semantics", "ablation_semantics.csv"),
    ];
    let start = std::sync::Barrier::new(2);
    let sweep = |jobs: usize, order: [usize; 2]| {
        let dir = scratch(&format!("concurrent-{jobs}"));
        let mut ctx = ScenarioCtx::new(&dir, jobs);
        start.wait();
        for (name, file) in order.map(|i| entries[i]) {
            let s = ALL.iter().find(|s| s.name == name).unwrap();
            run_entry(s, &mut ctx).unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert_eq!(ctx.outputs, [dir.join(file)], "{name} at width {jobs}");
            assert!(bench::manifest::is_done(s.group, name, &ctx));
        }
        let mut written: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f != ".manifest")
            .collect();
        written.sort_unstable();
        assert_eq!(written, ["ablation_semantics.csv", "fig04_regions.csv"]);
        for f in &written {
            let golden = std::fs::read(golden_dir().join(f)).unwrap();
            assert_eq!(
                std::fs::read(dir.join(f)).unwrap(),
                golden,
                "{f} at width {jobs}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    };
    std::thread::scope(|scope| {
        scope.spawn(|| sweep(1, [0, 1]));
        scope.spawn(|| sweep(4, [1, 0]));
    });
}

/// `--full`-scale byte identity: the 96- and 6144-rank rows of Fig. 7
/// (the 6144-rank runs keep two events per rank pending, the deepest
/// event queue of the sweep) must match `results_full/`.
#[test]
fn full_scale_fig07_rows_match_results_full() {
    let ranks = [96usize, 6144];
    let fresh = bench::csv::rows(&bench::scenarios::wacomm_distribution(jobs(), &ranks));
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
    let fresh = bench::csv::rows(&bench::scenarios::hacc_distribution(
        jobs(),
        &ranks,
        100_000,
    ));
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
