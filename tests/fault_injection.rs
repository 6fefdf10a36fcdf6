//! Fault-injection invariants at the session API level.
//!
//! The load-bearing property: a **zero-magnitude** fault plan — windows
//! with factor 1, an error model with probability 0, stragglers with
//! factor 1, cancellations that never match an op — must reproduce the
//! fault-free run *bit for bit*, down to the figure-CSV row derived from
//! the decomposition. This is what guarantees the figure pipeline cannot
//! drift merely because fault injection is compiled in.

mod common;

use iobts::prelude::*;
use proptest::prelude::*;
use proptest::Strategy as PropStrategy;
use simcore::{
    CancelSpec, ChannelFaultWindow, FaultChannel, FaultPlan, IoErrorKind, IoErrorModel,
    RetryPolicy, StragglerSpec,
};
use tmio::Strategy;

fn small_hacc() -> HaccConfig {
    HaccConfig {
        particles_per_rank: 20_000,
        loops: 4,
        ..Default::default()
    }
}

fn run(cfg: &ExpConfig) -> RunOutput {
    let cfg = cfg.clone().with_record_pfs(false);
    common::run(&cfg, HaccIo::new(small_hacc()))
}

/// Everything the figure CSVs read off a run, at full bit precision, plus
/// the fig07/fig11-style formatted row itself.
fn fingerprint(out: &RunOutput) -> String {
    let d = out.report.decomposition();
    let p = d.percentages();
    let row = format!(
        "4,0,direct,{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.2}",
        p[0],
        p[1],
        p[2],
        p[3],
        p[4],
        p[5],
        p[6],
        out.app_time()
    );
    format!(
        "makespan={:016x} pct={:?} pct8={:?} B={:016x} retry={:016x} faults={} row={row}",
        out.app_time().to_bits(),
        p.map(f64::to_bits),
        d.percentages_with_faults().map(f64::to_bits),
        out.report.required_bandwidth().to_bits(),
        out.report.retry_time.to_bits(),
        out.report.faults.len(),
    )
}

/// A structurally non-empty plan whose every component has zero magnitude.
fn arb_zero_magnitude_plan() -> impl PropStrategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0f64..100.0,
        0.0f64..100.0,
        1u32..6,
        1e-4f64..1e-2,
        0usize..64,
        0u64..1000,
    )
        .prop_map(
            |(seed, start, span, retries, backoff, rank, op)| FaultPlan {
                seed,
                channel_faults: vec![
                    // Neutral factor: filtered out of the active set.
                    ChannelFaultWindow {
                        channel: FaultChannel::Both,
                        start,
                        end: start + span,
                        factor: 1.0,
                    },
                    // Empty span: never active regardless of factor.
                    ChannelFaultWindow {
                        channel: FaultChannel::Write,
                        start,
                        end: start,
                        factor: 0.0,
                    },
                ],
                // Probability 0 draws nothing from the fault stream.
                io_errors: Some(IoErrorModel {
                    prob: 0.0,
                    kinds: vec![IoErrorKind::Io],
                }),
                stragglers: vec![StragglerSpec { rank, factor: 1.0 }],
                // Targets an async submit index no 4-loop program reaches.
                cancellations: vec![CancelSpec {
                    rank,
                    op_index: 10_000 + op,
                }],
                retry: RetryPolicy {
                    max_retries: retries,
                    base_backoff: backoff,
                    multiplier: 2.0,
                    max_backoff: 0.1,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn zero_magnitude_plan_is_bit_identical_to_fault_free(
        plan in arb_zero_magnitude_plan(),
    ) {
        let cfg = ExpConfig::new(4, Strategy::Direct { tol: 1.1 });
        let base = run(&cfg);
        let faulty = run(&cfg.clone().with_faults(plan));
        assert_eq!(fingerprint(&base), fingerprint(&faulty));
    }
}

#[test]
fn default_plan_equals_absent_plan_for_every_strategy() {
    for strategy in [
        Strategy::Direct { tol: 1.1 },
        Strategy::UpOnly { tol: 1.1 },
        Strategy::Adaptive {
            tol: 1.1,
            tol_i: 0.5,
        },
        Strategy::None,
    ] {
        let cfg = ExpConfig::new(4, strategy);
        let base = run(&cfg);
        let empty = run(&cfg.clone().with_faults(FaultPlan::empty()));
        assert_eq!(fingerprint(&base), fingerprint(&empty), "{strategy:?}");
    }
}

#[test]
fn retry_sequences_are_deterministic_for_a_fixed_seed() {
    let plan = FaultPlan {
        seed: 42,
        io_errors: Some(IoErrorModel {
            prob: 0.3,
            kinds: vec![IoErrorKind::Io, IoErrorKind::Timeout],
        }),
        ..FaultPlan::default()
    };
    let cfg = ExpConfig::new(4, Strategy::Direct { tol: 1.1 }).with_faults(plan);
    let a = run(&cfg);
    let b = run(&cfg);
    assert!(a.report.retry_time > 0.0, "plan should force retries");
    assert!(!a.report.faults.is_empty());
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.report.faults, b.report.faults);
    assert_eq!(a.summary.op_errors, b.summary.op_errors);
    // Every retry record carries the deterministic policy backoff.
    let retry = cfg.faults.retry;
    for f in a.report.faults.iter().filter(|f| !f.terminal) {
        assert!(f.retry >= 1);
        let expected = retry.backoff(f.retry - 1);
        assert!((f.backoff - expected).abs() < 1e-15, "{f:?}");
    }
}

#[test]
fn certain_errors_surface_in_summary_and_report() {
    let plan = FaultPlan {
        seed: 1,
        io_errors: Some(IoErrorModel::with_prob(1.0)),
        ..FaultPlan::default()
    };
    let cfg = ExpConfig::new(2, Strategy::None).with_faults(plan);
    let out = run(&cfg);
    // Every async request exhausts its retries and fails; the run still
    // terminates (failed waits release their ranks).
    assert!(!out.summary.op_errors.is_empty());
    for e in &out.summary.op_errors {
        assert_eq!(e.attempts, cfg.faults.retry.max_retries + 1);
        assert_eq!(e.kind, IoErrorKind::Io);
    }
    // The tracer mirrors each terminal failure as a fault record with the
    // POSIX code, and the retry slice shows up in the 8-way decomposition.
    let terminal: Vec<_> = out.report.faults.iter().filter(|f| f.terminal).collect();
    assert_eq!(terminal.len(), out.summary.op_errors.len());
    for f in &terminal {
        assert_eq!(f.code, 5, "EIO");
        assert_eq!(f.kind, "EIO");
    }
    assert!(out.report.retry_time > 0.0);
    let p8 = out.report.decomposition().percentages_with_faults();
    assert!(p8[7] > 0.0, "retry/degraded slice must be visible");
    let sum: f64 = p8.iter().sum();
    assert!((sum - 100.0).abs() < 1e-6, "{sum}");
}
