//! The work-count gate: exact [`RunStats`] (events handled, heap pushes,
//! root reuses, PFS solves, peak PFS groups) of the session shapes behind
//! the registry's sweep entries, plus one many-flow burst session.
//!
//! The counts are what a run *did*, independent of host speed, so they are
//! compared exactly: a change that keeps the event set keeps `events`, a
//! change to how the queue stores events shows up in `heap_pushes` and
//! `root_reuses` only, and a change to when the PFS re-solves its
//! allocation or how it groups flows shows up in `pfs_solves` and
//! `pfs_peak_groups`. Any difference is a behaviour change that the change
//! introducing it has to explain; on a mismatch the test prints the fresh
//! table in source form. Wall time is measured by `perfbench`, not here.
//!
//! ```text
//! cargo test --release -p bench --test work_counts
//! ```

use bench::scenarios::{self, HACC_RUNS, OVERHEAD_RUNS, WACOMM_RUNS};
use hpcwl::hacc::HaccConfig;
use hpcwl::wacomm::WacommConfig;
use mpisim::{FileId, Op, Program, ReqTag, RunStats};
use session::{ExpConfig, HaccIo, RawWorkload, RunOutput, Wacomm};
use simcore::{ChannelFaultWindow, FaultChannel, FaultPlan, IoErrorKind, IoErrorModel};
use tmio::Strategy;

const fn counts(
    events: u64,
    heap_pushes: u64,
    root_reuses: u64,
    pfs_solves: u64,
    pfs_peak_groups: u64,
) -> RunStats {
    RunStats {
        events,
        heap_pushes,
        root_reuses,
        pfs_solves,
        pfs_peak_groups,
    }
}

/// The pinned counts, one row per session in [`sessions`] order.
#[rustfmt::skip]
const TABLE: &[(&str, RunStats)] = &[
    ("fig07 n=24 run=0", counts(12885, 4728, 3554, 9480, 2)),
    ("fig07 n=24 run=1", counts(12772, 4728, 3554, 9367, 3)),
    ("fig07 n=24 run=2", counts(12470, 4728, 3554, 9065, 3)),
    ("fig07 n=24 run=3", counts(12546, 4728, 3554, 9141, 3)),
    ("fig07 n=24 run=4", counts(7591, 48, 3530, 8890, 3)),
    ("fig07 n=24 run=5", counts(7635, 48, 3530, 8934, 3)),
    ("fig05_06 n=1 direct", counts(275, 86, 99, 180, 1)),
    ("fig05_06 n=1 none", counts(190, 10, 90, 180, 1)),
    ("fig11 n=1 run=0", counts(197, 48, 99, 100, 1)),
    ("fig11 n=1 run=1", counts(197, 48, 99, 100, 1)),
    ("fig11 n=1 run=2", counts(197, 48, 99, 100, 1)),
    ("fig11 n=1 run=3", counts(197, 48, 99, 100, 1)),
    ("fig11 n=1 run=4", counts(197, 48, 99, 100, 1)),
    ("fig11 n=1 run=5", counts(197, 48, 99, 100, 1)),
    ("fig11 n=1 run=6", counts(150, 10, 90, 100, 1)),
    ("fig11 n=1 run=7", counts(150, 10, 90, 100, 1)),
    ("fig11 n=16 run=0", counts(2701, 1068, 984, 1449, 3)),
    ("fig11 n=16 run=1", counts(2700, 1068, 984, 1448, 3)),
    ("fig11 n=16 run=2", counts(2620, 1068, 984, 1368, 5)),
    ("fig11 n=16 run=3", counts(2596, 1068, 984, 1344, 4)),
    ("fig11 n=16 run=4", counts(2692, 1068, 984, 1440, 3)),
    ("fig11 n=16 run=5", counts(2693, 1068, 984, 1441, 3)),
    ("fig11 n=16 run=6", counts(1646, 460, 840, 1146, 1)),
    ("fig11 n=16 run=7", counts(1639, 460, 840, 1139, 1)),
    ("fig13 n=384 direct", counts(89010, 40684, 22696, 60190, 10)),
    ("chaos.flaky wacomm n=8 direct", counts(9528, 4139, 1186, 8491, 2)),
    ("chaos.outage hacc n=8 up-only", counts(1038, 374, 504, 404, 4)),
    ("burst n=8 direct", counts(32371, 7688, 16504, 16371, 475)),
];

type Run = Box<dyn Fn() -> RunOutput>;

/// Every pinned session, labelled as in [`TABLE`]:
/// - fig07: WaComM at 24 ranks, all six runs (three strategies, two seeds);
/// - fig05_06 and fig11: HACC-IO at the smallest quick rank count, and
///   fig11 again at 16 ranks, where the four strategies differ;
/// - fig13: one 384-rank series run;
/// - two sessions under non-empty fault plans: seeded I/O errors with
///   retries, and a hard outage of both channels;
/// - one burst session ([`burst_workload`]) that keeps hundreds of PFS
///   flow groups live at once, which no registry session does.
fn sessions() -> Vec<(String, Run)> {
    let mut out: Vec<(String, Run)> = Vec::new();
    for run in 0..WACOMM_RUNS.len() {
        out.push((
            format!("fig07 n=24 run={run}"),
            Box::new(move || scenarios::wacomm_dist_run(24, run)),
        ));
    }
    for (name, strategy) in OVERHEAD_RUNS {
        out.push((
            format!("fig05_06 n=1 {name}"),
            Box::new(move || scenarios::hacc_overhead_run(1, strategy, 100_000)),
        ));
    }
    for n in [1, 16] {
        for run in 0..HACC_RUNS.len() {
            out.push((
                format!("fig11 n={n} run={run}"),
                Box::new(move || scenarios::hacc_dist_run(n, run, 50_000)),
            ));
        }
    }
    out.push((
        "fig13 n=384 direct".into(),
        Box::new(|| scenarios::hacc_series(384, 100_000, Strategy::Direct { tol: 1.1 }, false)),
    ));
    out.push((
        "chaos.flaky wacomm n=8 direct".into(),
        Box::new(|| {
            let flaky = FaultPlan {
                seed: 7,
                io_errors: Some(IoErrorModel {
                    prob: 0.05,
                    kinds: vec![IoErrorKind::Io, IoErrorKind::Timeout, IoErrorKind::Stale],
                }),
                ..FaultPlan::default()
            };
            let cfg = ExpConfig::new(8, Strategy::Direct { tol: 1.1 }).with_faults(flaky);
            scenarios::run(cfg, Wacomm::new(WacommConfig::default()))
        }),
    ));
    out.push((
        "chaos.outage hacc n=8 up-only".into(),
        Box::new(|| {
            let outage = FaultPlan {
                channel_faults: vec![ChannelFaultWindow {
                    channel: FaultChannel::Both,
                    start: 1.0,
                    end: 2.0,
                    factor: 0.0,
                }],
                ..FaultPlan::default()
            };
            let cfg = ExpConfig::new(8, Strategy::UpOnly { tol: 1.1 }).with_faults(outage);
            let hacc = HaccConfig {
                particles_per_rank: 20_000,
                ..Default::default()
            };
            scenarios::run(cfg, HaccIo::new(hacc))
        }),
    ));
    out.push((
        "burst n=8 direct".into(),
        Box::new(|| {
            let cfg = ExpConfig::new(8, Strategy::Direct { tol: 1.1 });
            scenarios::run(cfg, burst_workload(8))
        }),
    ));
    out
}

/// `ranks` ranks × 16 phases of 64 outstanding `IWrite`s of fixed
/// pseudo-random 16–256 KiB each, a 40 ms compute, then the 64 waits.
fn burst_workload(ranks: usize) -> RawWorkload {
    const PHASES: usize = 16;
    const REQS: usize = 64;
    // Fixed 64-bit LCG (Knuth's MMIX constants); the top bits pick sizes.
    let mut state: u64 = 0x5EED;
    let mut size = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (16 + (state >> 33) % 241) as f64 * 1024.0
    };
    let programs: Vec<Program> = (0..ranks)
        .map(|r| {
            let file = FileId(r as u32);
            let mut ops = Vec::with_capacity(PHASES * (2 * REQS + 1));
            for p in 0..PHASES {
                let tag = |k: usize| ReqTag((p * REQS + k) as u32);
                for k in 0..REQS {
                    ops.push(Op::IWrite {
                        file,
                        bytes: size(),
                        tag: tag(k),
                    });
                }
                ops.push(Op::Compute { seconds: 0.04 });
                for k in 0..REQS {
                    ops.push(Op::Wait { tag: tag(k) });
                }
            }
            Program::from_ops(ops)
        })
        .collect();
    let files: Vec<String> = (0..ranks).map(|r| format!("burst.{r}.dat")).collect();
    RawWorkload::new("burst", programs, files)
}

#[test]
fn work_counts_match_the_table() {
    let fresh: Vec<(String, RunStats)> = sessions()
        .into_iter()
        .map(|(label, run)| (label, run().summary.stats))
        .collect();
    let pinned: Vec<(String, RunStats)> = TABLE
        .iter()
        .map(|&(label, stats)| (label.to_string(), stats))
        .collect();
    if fresh != pinned {
        let table: String = fresh
            .iter()
            .map(|(label, s)| {
                format!(
                    "    (\"{label}\", counts({}, {}, {}, {}, {})),\n",
                    s.events, s.heap_pushes, s.root_reuses, s.pfs_solves, s.pfs_peak_groups
                )
            })
            .collect();
        panic!("work counts differ from the pinned table; fresh table:\n{table}");
    }
}

#[test]
fn work_counts_are_deterministic() {
    let first = scenarios::wacomm_dist_run(24, 0).summary.stats;
    assert_eq!(scenarios::wacomm_dist_run(24, 0).summary.stats, first);
}
