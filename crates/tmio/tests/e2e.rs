//! End-to-end tests: TMIO tracer observing and throttling a simulated run.

use mpisim::{FileId, Op, Program, ReqTag, World, WorldConfig};
use pfsim::PfsConfig;
use tmio::{Aggregation, Strategy, TeMode, Tracer, TracerConfig};

const MB: f64 = 1e6;

/// A periodic async-write app: loops of (iwrite, compute, wait).
fn periodic_app(loops: usize, bytes: f64, compute: f64) -> Program {
    let mut ops = Vec::new();
    for i in 0..loops {
        ops.push(Op::IWrite {
            file: FileId(0),
            bytes,
            tag: ReqTag(i as u32),
        });
        ops.push(Op::Compute { seconds: compute });
        ops.push(Op::Wait {
            tag: ReqTag(i as u32),
        });
    }
    Program::from_ops(ops)
}

fn run_app(
    n: usize,
    cap: f64,
    loops: usize,
    bytes: f64,
    compute: f64,
    cfg: TracerConfig,
    limiter: bool,
) -> (mpisim::RunSummary, tmio::Report) {
    let mut wc = WorldConfig::new(n).with_limiter(limiter);
    wc.pfs = PfsConfig {
        write_capacity: cap,
        read_capacity: cap,
    };
    wc.subreq_bytes = MB;
    // Zero tool overhead keeps the timing assertions exact.
    let mut tcfg = cfg;
    tcfg.peri_call_overhead = 0.0;
    let tracer = Tracer::new(n, tcfg);
    let mut w = World::new(wc, vec![periodic_app(loops, bytes, compute); n], tracer);
    w.create_file("out");
    let s = w.try_run().unwrap();
    let report = w.into_hooks().into_report();
    (s, report)
}

#[test]
fn required_bandwidth_matches_analytic() {
    // One rank: 10 MB hidden behind 1 s compute -> B = 10 MB/s per phase.
    let (_, report) = run_app(
        1,
        1e9,
        3,
        10.0 * MB,
        1.0,
        TracerConfig::with_strategy(Strategy::None),
        false,
    );
    assert_eq!(report.phases.len(), 3);
    for p in &report.phases {
        // Window = submit -> wait = compute duration (I/O finishes earlier).
        assert!((p.te - p.ts - 1.0).abs() < 1e-6, "window {}", p.te - p.ts);
        assert!(
            (p.b_required - 10.0 * MB).abs() < 0.01 * MB,
            "B = {}",
            p.b_required
        );
    }
}

#[test]
fn throughput_reflects_actual_speed() {
    // Unthrottled on a 100 MB/s channel: T ≈ 100 MB/s >> B = 10 MB/s.
    let (_, report) = run_app(
        1,
        100.0 * MB,
        3,
        10.0 * MB,
        1.0,
        TracerConfig::with_strategy(Strategy::None),
        false,
    );
    assert_eq!(report.windows.len(), 3);
    for w in &report.windows {
        assert!(
            (w.throughput() - 100.0 * MB).abs() < MB,
            "T = {}",
            w.throughput()
        );
    }
}

#[test]
fn direct_strategy_throttles_next_phase() {
    let cfg = TracerConfig::with_strategy(Strategy::Direct { tol: 1.1 });
    let (s, report) = run_app(1, 100.0 * MB, 5, 10.0 * MB, 1.0, cfg, true);
    // Runtime unchanged: I/O still fits the window (10 MB at 11 MB/s < 1 s).
    assert!(
        (s.makespan() - 5.0).abs() < 0.02,
        "makespan {}",
        s.makespan()
    );
    assert!(s.accounting[0].wait_write < 1e-6, "no lost time expected");
    // Phases after the first are throttled: T ≈ limit = B·tol ≈ 11 MB/s.
    let later: Vec<_> = report.windows.iter().skip(1).collect();
    assert!(!later.is_empty());
    for w in later {
        assert!(
            w.throughput() < 15.0 * MB,
            "throttled T should be near 11 MB/s, got {}",
            w.throughput()
        );
    }
    // And the limits recorded equal B·tol.
    for p in report.phases.iter().take(4) {
        let l = p.limit_next.unwrap();
        assert!((l - p.b_required * 1.1).abs() < 0.2 * MB, "limit {l}");
    }
}

#[test]
fn limiting_flattens_burst_without_slowdown() {
    let base = run_app(
        1,
        100.0 * MB,
        6,
        20.0 * MB,
        1.0,
        TracerConfig::with_strategy(Strategy::None),
        false,
    );
    let cfg = TracerConfig::with_strategy(Strategy::Direct { tol: 1.2 });
    let lim = run_app(1, 100.0 * MB, 6, 20.0 * MB, 1.0, cfg, true);
    // Same runtime (within 2%)…
    assert!(
        (lim.0.makespan() - base.0.makespan()).abs() / base.0.makespan() < 0.02,
        "limited {} vs base {}",
        lim.0.makespan(),
        base.0.makespan()
    );
    // …but once the limiter kicks in (after the first phase, as in the
    // paper's "limit starts" marker) the throughput bursts are flattened.
    let start = lim.1.limit_start_time().expect("limiter engaged");
    let peak_base = base.1.throughput_series().max_value();
    let peak_lim = lim
        .1
        .windows
        .iter()
        .filter(|w| w.start >= start)
        .map(|w| w.throughput())
        .fold(0.0, f64::max);
    assert!(peak_lim > 0.0);
    assert!(
        peak_lim < peak_base / 2.0,
        "peak {peak_lim} should be well below unthrottled {peak_base}"
    );
}

#[test]
fn up_only_never_lowers_limit() {
    let cfg = TracerConfig::with_strategy(Strategy::UpOnly { tol: 1.1 });
    let (_, report) = run_app(1, 1e9, 6, 10.0 * MB, 1.0, cfg, true);
    let limits: Vec<f64> = report.phases.iter().filter_map(|p| p.limit_next).collect();
    for pair in limits.windows(2) {
        assert!(pair[1] >= pair[0] - 1e-9, "up-only decreased: {pair:?}");
    }
}

#[test]
fn too_tight_limit_causes_waiting() {
    // Strategy with tol < 1 under-provisions: phase j+1's I/O cannot finish
    // inside the window -> wait time appears (the paper's "too-low value"
    // hazard of the direct strategy).
    let cfg = TracerConfig::with_strategy(Strategy::Direct { tol: 0.5 });
    let (s, _) = run_app(1, 1e9, 4, 50.0 * MB, 1.0, cfg, true);
    assert!(
        s.accounting[0].wait_write > 0.5,
        "expected waiting, got {}",
        s.accounting[0].wait_write
    );
    assert!(s.makespan() > 4.2, "runtime should grow: {}", s.makespan());
}

#[test]
fn multiple_ranks_all_report_phases() {
    let (_, report) = run_app(
        8,
        1e9,
        4,
        5.0 * MB,
        0.5,
        TracerConfig::with_strategy(Strategy::None),
        false,
    );
    assert_eq!(report.phases.len(), 8 * 4);
    for rank in 0..8 {
        let n = report.phases.iter().filter(|p| p.rank == rank).count();
        assert_eq!(n, 4);
    }
    // All ranks synchronized: app-level B = 8 × rank-level B.
    let b = report.required_bandwidth();
    assert!((b - 8.0 * 10.0 * MB).abs() < MB, "app B = {b}");
}

#[test]
fn aggregation_mean_vs_sum() {
    // Two requests per phase: sum doubles the per-request bandwidth, mean
    // keeps it.
    let mk = |agg| {
        let mut ops = Vec::new();
        for i in 0..2u32 {
            ops.push(Op::IWrite {
                file: FileId(0),
                bytes: 10.0 * MB,
                tag: ReqTag(2 * i),
            });
            ops.push(Op::IWrite {
                file: FileId(0),
                bytes: 10.0 * MB,
                tag: ReqTag(2 * i + 1),
            });
            ops.push(Op::Compute { seconds: 1.0 });
            ops.push(Op::Wait { tag: ReqTag(2 * i) });
            ops.push(Op::Wait {
                tag: ReqTag(2 * i + 1),
            });
        }
        let mut wc = WorldConfig::new(1);
        wc.pfs = PfsConfig {
            write_capacity: 1e9,
            read_capacity: 1e9,
        };
        let mut tc = TracerConfig::with_strategy(Strategy::None);
        tc.aggregation = agg;
        tc.peri_call_overhead = 0.0;
        let mut w = World::new(wc, vec![Program::from_ops(ops)], Tracer::new(1, tc));
        w.create_file("out");
        w.try_run().unwrap();
        w.into_hooks().into_report()
    };
    let sum = mk(Aggregation::Sum);
    let mean = mk(Aggregation::Mean);
    let b_sum = sum.phases[0].b_required;
    let b_mean = mean.phases[0].b_required;
    assert!(
        (b_sum / b_mean - 2.0).abs() < 1e-6,
        "sum {b_sum} vs mean {b_mean}"
    );
}

#[test]
fn te_mode_last_wait_gives_lower_b() {
    // Two requests waited at different times: FirstWait closes at the first
    // wait (shorter window -> higher B) than LastWait.
    let ops = vec![
        Op::IWrite {
            file: FileId(0),
            bytes: 10.0 * MB,
            tag: ReqTag(0),
        },
        Op::IWrite {
            file: FileId(0),
            bytes: 10.0 * MB,
            tag: ReqTag(1),
        },
        Op::Compute { seconds: 1.0 },
        Op::Wait { tag: ReqTag(0) },
        Op::Compute { seconds: 1.0 },
        Op::Wait { tag: ReqTag(1) },
    ];
    let run = |mode| {
        let mut wc = WorldConfig::new(1);
        wc.pfs = PfsConfig {
            write_capacity: 1e9,
            read_capacity: 1e9,
        };
        let mut tc = TracerConfig::with_strategy(Strategy::None);
        tc.te_mode = mode;
        tc.peri_call_overhead = 0.0;
        let mut w = World::new(wc, vec![Program::from_ops(ops.clone())], Tracer::new(1, tc));
        w.create_file("out");
        w.try_run().unwrap();
        w.into_hooks().into_report()
    };
    let first = run(TeMode::FirstWait);
    let last = run(TeMode::LastWait);
    assert_eq!(first.phases.len(), 1);
    assert_eq!(last.phases.len(), 1);
    assert!(
        first.phases[0].b_required > last.phases[0].b_required * 1.5,
        "first-wait B {} should exceed last-wait B {}",
        first.phases[0].b_required,
        last.phases[0].b_required
    );
}

#[test]
fn peri_overhead_counts_calls() {
    let mut tc = TracerConfig::with_strategy(Strategy::None);
    tc.peri_call_overhead = 2e-6;
    let mut wc = WorldConfig::new(1);
    wc.pfs = PfsConfig {
        write_capacity: 1e9,
        read_capacity: 1e9,
    };
    let tracer = Tracer::new(1, tc);
    let mut w = World::new(wc, vec![periodic_app(10, MB, 0.01)], tracer);
    w.create_file("out");
    let s = w.try_run().unwrap();
    let report = w.into_hooks().into_report();
    // 10 loops × (submit + wait_enter + wait_exit) = 30 calls.
    assert_eq!(report.calls, 30);
    assert!((report.peri_overhead - 30.0 * 2e-6).abs() < 1e-12);
    // The injected overhead is visible in world accounting too.
    assert!((s.accounting[0].overhead - report.peri_overhead).abs() < 1e-12);
    // Peri overhead below 0.1 % of runtime (paper's claim at this scale).
    assert!(report.peri_overhead / s.makespan() < 0.001);
}

#[test]
fn exploit_dominates_when_hidden() {
    let (s, report) = run_app(
        2,
        1e9,
        5,
        10.0 * MB,
        1.0,
        TracerConfig::with_strategy(Strategy::None),
        false,
    );
    let d = report.decomposition();
    assert!(d.async_write_lost < 1e-6);
    assert!(d.async_write_exploit > 0.0);
    assert!((d.total - 2.0 * s.makespan()).abs() < 1e-6);
    let p = d.percentages();
    assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
}

#[test]
fn sync_app_has_no_async_records() {
    let ops = vec![
        Op::Compute { seconds: 1.0 },
        Op::Write {
            file: FileId(0),
            bytes: 10.0 * MB,
        },
    ];
    let mut wc = WorldConfig::new(2);
    wc.pfs = PfsConfig {
        write_capacity: 100.0 * MB,
        read_capacity: 100.0 * MB,
    };
    let tc = TracerConfig::with_strategy(Strategy::None);
    let mut w = World::new(wc, vec![Program::from_ops(ops); 2], Tracer::new(2, tc));
    w.create_file("out");
    w.try_run().unwrap();
    let report = w.into_hooks().into_report();
    assert!(report.phases.is_empty());
    assert!(report.spans.is_empty());
    assert_eq!(report.syncs.len(), 2);
    let d = report.decomposition();
    assert!(d.sync_write > 0.3);
}

/// FTIO-style period detection recovers the loop period of a periodic
/// async-checkpoint application from its physical PFS signal.
#[test]
fn ftio_detects_hacc_loop_period() {
    // 12 loops of (iwrite 20 MB, compute 2.0 s, wait): period ≈ 2.0 s.
    let mut wc = WorldConfig::new(4);
    wc.pfs = PfsConfig {
        write_capacity: 500.0 * MB,
        read_capacity: 500.0 * MB,
    };
    wc.record_pfs = true;
    let tc = TracerConfig::with_strategy(Strategy::None);
    let mut w = World::new(
        wc,
        vec![periodic_app(12, 20.0 * MB, 2.0); 4],
        Tracer::new(4, tc),
    );
    w.create_file("out");
    let s = w.try_run().unwrap();
    let (_, series, _) = w.into_parts();
    let est = tmio::ftio::detect_period(&series, 0.0, s.makespan(), 2048)
        .expect("periodic signal detected");
    assert!(
        (est.period - 2.0).abs() < 0.25,
        "detected period {} should be ≈2.0 s",
        est.period
    );
}

#[test]
fn spans_match_dense_sparse_and_reused_tags() {
    // Tags on both sides of the 4096 dense bound and the largest tag, all
    // outstanding at once and waited out of submit order; then tag 3 again.
    let tags_bytes = [
        (3, MB),
        (4095, 2.0 * MB),
        (4096, 3.0 * MB),
        (u32::MAX, 4.0 * MB),
    ];
    let mut ops = Vec::new();
    for (tag, bytes) in tags_bytes {
        ops.push(Op::IWrite {
            file: FileId(0),
            bytes,
            tag: ReqTag(tag),
        });
    }
    ops.push(Op::Compute { seconds: 0.02 });
    for tag in [u32::MAX, 4096, 3, 4095] {
        ops.push(Op::Wait { tag: ReqTag(tag) });
    }
    let reused = 5.0 * MB;
    ops.push(Op::IWrite {
        file: FileId(0),
        bytes: reused,
        tag: ReqTag(3),
    });
    ops.push(Op::Compute { seconds: 0.02 });
    ops.push(Op::Wait { tag: ReqTag(3) });

    let mut wc = WorldConfig::new(1);
    wc.pfs = PfsConfig {
        write_capacity: 100.0 * MB,
        read_capacity: 100.0 * MB,
    };
    let tc = TracerConfig::with_strategy(Strategy::None);
    let mut w = World::new(wc, vec![Program::from_ops(ops)], Tracer::new(1, tc));
    w.create_file("out");
    w.try_run().unwrap();
    let report = w.into_hooks().into_report();

    assert_eq!(report.spans.len(), 5, "one span per request");
    let mut bytes: Vec<f64> = report.spans.iter().map(|s| s.bytes).collect();
    bytes.sort_by(f64::total_cmp);
    assert_eq!(bytes, [MB, 2.0 * MB, 3.0 * MB, 4.0 * MB, reused]);
    let submitted: f64 = tags_bytes.iter().map(|&(_, b)| b).sum::<f64>() + reused;
    assert_eq!(report.spans.iter().map(|s| s.bytes).sum::<f64>(), submitted);
    for s in &report.spans {
        assert!(s.submit <= s.complete, "{s:?}");
        assert!(s.submit <= s.wait_enter, "{s:?}");
    }
    // The reused tag's span starts after every first-round wait.
    let second = report.spans.iter().find(|s| s.bytes == reused).unwrap();
    assert!(report
        .spans
        .iter()
        .filter(|s| s.bytes != reused)
        .all(|s| s.wait_enter <= second.submit));
}
