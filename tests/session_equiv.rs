//! The `Session` pipeline must be a pure refactor of the legacy hand-wired
//! runner: for any configuration, running a workload through
//! `Session::builder(..)` is bit-identical to constructing the
//! `WorldConfig`/`TracerConfig`/`Tracer`/`World` by hand from the public
//! `ExpConfig` fields, the wiring the runners did inline before the
//! session layer existed. This pins every config knob the session layer
//! translates.

mod common;

use iobts::prelude::*;
use mpisim::{FileId, World};
use proptest::prelude::*;
use proptest::Strategy as PropStrategy;
use tmio::{Strategy, TracerConfig};

/// Bit-level fingerprint of everything downstream consumers read off a run.
fn fingerprint(
    summary: &mpisim::RunSummary,
    report: &tmio::Report,
    pfs_write: &simcore::StepSeries,
) -> String {
    let d = report.decomposition();
    format!(
        "makespan={:016x} pct={:?} B={:016x} peri={:016x} post={:016x} \
         phases={} calls={} pfs_peak={:016x}",
        summary.makespan().to_bits(),
        d.percentages().map(f64::to_bits),
        report.required_bandwidth().to_bits(),
        report.peri_overhead.to_bits(),
        report.post_overhead.to_bits(),
        report.phases.len(),
        report.calls,
        pfs_write.max_value().to_bits(),
    )
}

/// The legacy runner wiring, reconstructed by hand from the public
/// `ExpConfig` fields.
fn legacy_run(cfg: &ExpConfig, programs: Vec<mpisim::Program>, files: &[String]) -> String {
    let mut wc = WorldConfig::new(cfg.n_ranks)
        .with_limiter(cfg.strategy.limits())
        .with_compute_noise(cfg.compute_noise)
        .with_seed(cfg.seed);
    wc.pfs = cfg.pfs;
    wc.subreq_bytes = cfg.subreq_bytes;
    wc.capacity_noise = cfg.capacity_noise;
    wc.interference_alpha = cfg.interference_alpha;
    wc.limit_sync_ops = cfg.limit_sync_ops;
    wc.burst_buffer = cfg.burst_buffer;
    wc.record_pfs = cfg.record_pfs;
    wc.faults = cfg.faults.clone();
    let mut tc = TracerConfig::with_strategy(cfg.strategy);
    tc.te_mode = cfg.te_mode;
    tc.aggregation = cfg.aggregation;
    if let Some(peri) = cfg.peri_call_overhead {
        tc.peri_call_overhead = peri;
    }
    let mut world = World::new(wc, programs, Tracer::new(cfg.n_ranks, tc));
    for f in files {
        world.create_file(f);
    }
    let summary = world.try_run().unwrap();
    let (tracer, pfs_write, _) = world.into_parts();
    let report = tracer.into_report();
    fingerprint(&summary, &report, &pfs_write)
}

fn session_fingerprint(cfg: &ExpConfig, workload: impl Workload + 'static) -> String {
    let out = common::run(cfg, workload);
    fingerprint(&out.summary, &out.report, &out.pfs_write)
}

fn arb_strategy() -> impl PropStrategy<Value = Strategy> {
    prop_oneof![
        Just(Strategy::None),
        (0.9f64..1.6).prop_map(|tol| Strategy::Direct { tol }),
        (0.9f64..1.6).prop_map(|tol| Strategy::UpOnly { tol }),
        (0.9f64..1.6).prop_map(|tol| Strategy::Adaptive { tol, tol_i: 0.5 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// HACC-IO through a Session == the hand-wired legacy pipeline.
    #[test]
    fn session_matches_legacy_hacc(
        n_ranks in 1usize..6,
        strategy in arb_strategy(),
        seed in prop_oneof![Just(1u64), Just(2024), Just(0xD5EA)],
        loops in 3usize..5,
    ) {
        let hacc = HaccConfig {
            particles_per_rank: 20_000,
            loops,
            ..Default::default()
        };
        let cfg = ExpConfig::new(n_ranks, strategy).with_seed(seed);
        let programs = (0..n_ranks)
            .map(|r| hacc.program(FileId(r as u32)))
            .collect();
        let files: Vec<String> = (0..n_ranks).map(|r| format!("hacc.{r}.dat")).collect();
        prop_assert_eq!(
            session_fingerprint(&cfg, HaccIo::new(hacc)),
            legacy_run(&cfg, programs, &files)
        );
    }

    /// WaComM through a Session == the hand-wired legacy pipeline.
    #[test]
    fn session_matches_legacy_wacomm(
        n_ranks in 1usize..6,
        strategy in arb_strategy(),
        seed in prop_oneof![Just(7u64), Just(2024)],
    ) {
        let wc = WacommConfig {
            iterations: 4,
            ..Default::default()
        };
        let cfg = ExpConfig::new(n_ranks, strategy).with_seed(seed);
        let input = FileId(0);
        let programs = (0..n_ranks)
            .map(|r| wc.program(r, n_ranks, input, FileId(1 + r as u32)))
            .collect();
        let mut files = vec!["wacomm.in".to_string()];
        files.extend((0..n_ranks).map(|r| format!("wacomm.{r}.out")));
        prop_assert_eq!(
            session_fingerprint(&cfg, Wacomm::new(wc)),
            legacy_run(&cfg, programs, &files)
        );
    }
}

/// The builder surface translates every knob: a config exercising all
/// builders still matches the hand-wired run (single deterministic case —
/// capacity noise + interference + subreq + sync-limit off together).
#[test]
fn session_matches_legacy_all_knobs() {
    let hacc = HaccConfig {
        particles_per_rank: 20_000,
        loops: 3,
        ..Default::default()
    };
    let cfg = ExpConfig::new(3, Strategy::UpOnly { tol: 1.2 })
        .with_seed(42)
        .with_noise(simcore::Noise::QuantizedRel {
            amplitude: 0.05,
            levels: 4,
        })
        .with_subreq_bytes(256.0 * 1024.0)
        .with_capacity_noise(mpisim::CapacityNoiseCfg {
            period: 0.5,
            noise: simcore::Noise::Spike {
                prob: 0.1,
                factor: 0.2,
            },
        })
        .with_interference(1e3)
        .with_limit_sync(false)
        .with_record_pfs(true);
    let programs = (0..3).map(|r| hacc.program(FileId(r as u32))).collect();
    let files: Vec<String> = (0..3).map(|r| format!("hacc.{r}.dat")).collect();
    assert_eq!(
        session_fingerprint(&cfg, HaccIo::new(hacc)),
        legacy_run(&cfg, programs, &files)
    );
}
