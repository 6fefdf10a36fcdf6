//! Fault-injection behaviour of the world: retry/backoff, terminal op
//! errors, cancellations, stragglers, and capacity-fault windows.

use mpisim::{
    Channel, FaultPlan, FileId, IoErrorKind, IoHooks, Limits, NoHooks, Op, Program, ReqTag,
    RunSummary, World, WorldConfig,
};
use simcore::{CancelSpec, ChannelFaultWindow, FaultChannel, IoErrorModel, SimTime, StragglerSpec};

fn run_with(cfg: WorldConfig, programs: Vec<Program>) -> RunSummary {
    let mut world = World::new(cfg, programs, NoHooks);
    world.create_file("f");
    world.try_run().unwrap()
}

fn async_write_program(bytes: f64) -> Program {
    Program::from_ops(vec![
        Op::IWrite {
            file: FileId(0),
            bytes,
            tag: ReqTag(0),
        },
        Op::Compute { seconds: 0.01 },
        Op::Wait { tag: ReqTag(0) },
    ])
}

#[test]
fn empty_plan_reproduces_baseline_exactly() {
    let mk = |faults: FaultPlan| {
        let cfg = WorldConfig {
            faults,
            ..WorldConfig::new(4)
        };
        let programs = (0..4).map(|_| async_write_program(64e6)).collect();
        run_with(cfg, programs)
    };
    let base = mk(FaultPlan::empty());
    // A plan with only neutral magnitudes must be indistinguishable.
    let neutral = mk(FaultPlan {
        seed: 99,
        channel_faults: vec![ChannelFaultWindow {
            channel: FaultChannel::Both,
            start: 0.0,
            end: 100.0,
            factor: 1.0,
        }],
        io_errors: Some(IoErrorModel::with_prob(0.0)),
        stragglers: vec![StragglerSpec {
            rank: 1,
            factor: 1.0,
        }],
        ..FaultPlan::default()
    });
    assert_eq!(base.end_time, neutral.end_time);
    assert_eq!(base.accounting, neutral.accounting);
    assert!(base.op_errors.is_empty() && neutral.op_errors.is_empty());
}

#[test]
fn transient_errors_retry_and_extend_the_run() {
    let fail_some = FaultPlan {
        seed: 7,
        io_errors: Some(IoErrorModel::with_prob(0.2)),
        ..FaultPlan::default()
    };
    let base = run_with(
        WorldConfig::new(2),
        (0..2).map(|_| async_write_program(64e6)).collect(),
    );
    let faulty = run_with(
        WorldConfig {
            faults: fail_some.clone(),
            ..WorldConfig::new(2)
        },
        (0..2).map(|_| async_write_program(64e6)).collect(),
    );
    // prob 0.2 over 64 sub-requests per rank: some retries must happen, and
    // every backoff is accounted.
    let retry: f64 = faulty.accounting.iter().map(|a| a.retry).sum();
    assert!(retry > 0.0, "expected retry backoff time, got none");
    assert!(faulty.end_time >= base.end_time);
    // Retries are bounded and the run completed without deadlock.
    assert!(faulty.end_time.as_secs() < base.end_time.as_secs() + 60.0);
    // Same plan, same seed: bit-identical replay.
    let replay = run_with(
        WorldConfig {
            faults: fail_some,
            ..WorldConfig::new(2)
        },
        (0..2).map(|_| async_write_program(64e6)).collect(),
    );
    assert_eq!(faulty.end_time, replay.end_time);
    assert_eq!(faulty.accounting, replay.accounting);
    assert_eq!(faulty.op_errors, replay.op_errors);
}

#[test]
fn certain_failure_exhausts_retries_and_surfaces_error() {
    let always_fail = FaultPlan {
        seed: 1,
        io_errors: Some(IoErrorModel {
            prob: 1.0,
            kinds: vec![IoErrorKind::Timeout],
        }),
        ..FaultPlan::default()
    };
    let cfg = WorldConfig {
        faults: always_fail.clone(),
        ..WorldConfig::new(1)
    };
    let summary = run_with(cfg, vec![async_write_program(4e6)]);
    assert_eq!(summary.op_errors.len(), 1, "one op, one terminal error");
    let err = summary.op_errors[0];
    assert_eq!(err.rank, 0);
    assert_eq!(err.tag, Some(ReqTag(0)));
    assert_eq!(err.kind, IoErrorKind::Timeout);
    assert_eq!(err.attempts, always_fail.retry.max_retries + 1);
    // The failed wait returned instead of hanging; the rank finished.
    assert!(summary.finished_at[0] > SimTime::ZERO);
    // All backoffs were slept in virtual time.
    let expected_backoff: f64 = (0..always_fail.retry.max_retries)
        .map(|r| always_fail.retry.backoff(r))
        .sum();
    assert!((summary.accounting[0].retry - expected_backoff).abs() < 1e-12);
}

#[test]
fn sync_op_failure_releases_the_rank() {
    let always_fail = FaultPlan {
        seed: 3,
        io_errors: Some(IoErrorModel {
            prob: 1.0,
            kinds: vec![IoErrorKind::NoSpace],
        }),
        ..FaultPlan::default()
    };
    let program = Program::from_ops(vec![
        Op::Write {
            file: FileId(0),
            bytes: 4e6,
        },
        Op::Compute { seconds: 0.001 },
    ]);
    let summary = run_with(
        WorldConfig {
            faults: always_fail,
            ..WorldConfig::new(1)
        },
        vec![program],
    );
    assert_eq!(summary.op_errors.len(), 1);
    assert_eq!(summary.op_errors[0].tag, None, "blocking call has no tag");
    assert_eq!(summary.op_errors[0].kind, IoErrorKind::NoSpace);
    // The rank ran its compute after the failed write.
    assert!(summary.accounting[0].compute > 0.0);
}

#[test]
fn cancellation_aborts_request_with_ecanceled() {
    let plan = FaultPlan {
        cancellations: vec![CancelSpec {
            rank: 0,
            op_index: 0,
        }],
        ..FaultPlan::default()
    };
    let summary = run_with(
        WorldConfig {
            faults: plan,
            ..WorldConfig::new(1)
        },
        vec![async_write_program(64e6)],
    );
    assert_eq!(summary.op_errors.len(), 1);
    assert_eq!(summary.op_errors[0].kind, IoErrorKind::Cancelled);
    // Cancelled after the first in-flight sub-request: far sooner than the
    // full 64 MB transfer.
    let full = run_with(WorldConfig::new(1), vec![async_write_program(64e6)]);
    assert!(summary.op_errors[0].at < full.end_time.as_secs());
}

#[test]
fn straggler_rank_slows_only_itself() {
    let plan = FaultPlan {
        stragglers: vec![StragglerSpec {
            rank: 1,
            factor: 3.0,
        }],
        ..FaultPlan::default()
    };
    let programs: Vec<Program> = (0..2)
        .map(|_| Program::from_ops(vec![Op::Compute { seconds: 0.1 }]))
        .collect();
    let summary = run_with(
        WorldConfig {
            faults: plan,
            ..WorldConfig::new(2)
        },
        programs,
    );
    assert!((summary.accounting[0].compute - 0.1).abs() < 1e-12);
    assert!((summary.accounting[1].compute - 0.3).abs() < 1e-12);
}

#[test]
fn outage_window_freezes_then_run_completes() {
    // 1 GB at the default 106 GB/s takes ~9.4 ms; a [5ms, 50ms) write
    // outage must stall the transfer and push completion past 50 ms.
    let plan = FaultPlan {
        channel_faults: vec![ChannelFaultWindow {
            channel: FaultChannel::Write,
            start: 0.005,
            end: 0.050,
            factor: 0.0,
        }],
        ..FaultPlan::default()
    };
    let program = Program::from_ops(vec![Op::Write {
        file: FileId(0),
        bytes: 1e9,
    }]);
    let base = run_with(WorldConfig::new(1), vec![program.clone()]);
    assert!(base.end_time.as_secs() < 0.02);
    let faulty = run_with(
        WorldConfig {
            faults: plan,
            ..WorldConfig::new(1)
        },
        vec![program],
    );
    assert!(
        faulty.end_time.as_secs() > 0.050,
        "outage must delay completion, got {}",
        faulty.end_time.as_secs()
    );
    assert!(
        faulty.end_time.as_secs() < base.end_time.as_secs() + 0.050 + 1e-6,
        "outage stalls, it does not lose progress"
    );
}

#[test]
fn degraded_window_slows_reads_proportionally() {
    // Half-capacity read window covering the whole transfer → 2× duration.
    let plan = FaultPlan {
        channel_faults: vec![ChannelFaultWindow {
            channel: FaultChannel::Read,
            start: 0.0,
            end: 1e3,
            factor: 0.5,
        }],
        ..FaultPlan::default()
    };
    let program = Program::from_ops(vec![Op::Read {
        file: FileId(0),
        bytes: 1e9,
    }]);
    let base = run_with(WorldConfig::new(1), vec![program.clone()]);
    let slow = run_with(
        WorldConfig {
            faults: plan,
            ..WorldConfig::new(1)
        },
        vec![program],
    );
    let ratio = slow.end_time.as_secs() / base.end_time.as_secs();
    assert!((ratio - 2.0).abs() < 1e-6, "ratio {ratio}");
}

#[test]
fn wait_and_test_report_failure_instead_of_hanging() {
    // Observer checks that a failed request flows through the hook surface:
    // retries first, then the terminal error, then the wait exits.
    #[derive(Default)]
    struct Obs {
        retries: u32,
        errors: Vec<(usize, Option<ReqTag>, IoErrorKind)>,
        wait_exited: bool,
    }
    impl IoHooks for Obs {
        fn on_io_retry(
            &mut self,
            _t: SimTime,
            _rank: usize,
            _tag: Option<ReqTag>,
            _kind: IoErrorKind,
            _retry: u32,
            _backoff: f64,
        ) {
            self.retries += 1;
        }
        fn on_op_error(
            &mut self,
            _t: SimTime,
            rank: usize,
            tag: Option<ReqTag>,
            kind: IoErrorKind,
            _attempts: u32,
        ) {
            self.errors.push((rank, tag, kind));
        }
        fn on_wait_exit(
            &mut self,
            _t: SimTime,
            _rank: usize,
            _tag: ReqTag,
            _limits: &mut Limits,
        ) -> f64 {
            self.wait_exited = true;
            0.0
        }
    }
    let plan = FaultPlan {
        seed: 5,
        io_errors: Some(IoErrorModel {
            prob: 1.0,
            kinds: vec![IoErrorKind::Io],
        }),
        ..FaultPlan::default()
    };
    let mut world = World::new(
        WorldConfig {
            faults: plan.clone(),
            ..WorldConfig::new(1)
        },
        vec![async_write_program(4e6)],
        Obs::default(),
    );
    world.create_file("f");
    let summary = world.try_run().unwrap();
    let obs = world.into_hooks();
    assert_eq!(obs.retries, plan.retry.max_retries);
    assert_eq!(obs.errors, vec![(0, Some(ReqTag(0)), IoErrorKind::Io)]);
    assert!(obs.wait_exited, "the failed wait must exit");
    assert_eq!(summary.op_errors.len(), 1);
}

#[test]
fn fault_window_composes_with_capacity_noise_channel() {
    // A degraded window on top of the nominal capacity still lets the run
    // finish; sanity-check against a plan hitting both channels.
    let plan = FaultPlan {
        channel_faults: vec![ChannelFaultWindow {
            channel: FaultChannel::Both,
            start: 0.0,
            end: 10.0,
            factor: 0.25,
        }],
        ..FaultPlan::default()
    };
    let program = Program::from_ops(vec![
        Op::Write {
            file: FileId(0),
            bytes: 2e8,
        },
        Op::Read {
            file: FileId(0),
            bytes: 2e8,
        },
    ]);
    let summary = run_with(
        WorldConfig {
            faults: plan,
            ..WorldConfig::new(1)
        },
        vec![program],
    );
    assert!(summary.op_errors.is_empty());
    let _ = Channel::Write; // channel vocabulary re-exported for callers
    assert!(summary.end_time.as_secs() > 0.0);
}
