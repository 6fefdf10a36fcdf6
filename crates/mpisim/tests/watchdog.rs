//! Supervision behaviour of the event loop: the progress watchdog turns
//! never-completing runs (live-lock under an endless outage, a `Wait`
//! whose request is frozen) into typed [`SimError`]s with a diagnostic
//! [`StallSnapshot`] instead of spinning or hanging forever.

use mpisim::{
    FaultPlan, FileId, NoHooks, Op, Program, ReqTag, SimError, WatchdogCfg, World, WorldConfig,
};
use simcore::{ChannelFaultWindow, FaultChannel};

/// A write-channel outage from t=0 that never lifts.
fn endless_outage() -> FaultPlan {
    FaultPlan {
        seed: 1,
        channel_faults: vec![ChannelFaultWindow {
            channel: FaultChannel::Write,
            start: 0.0,
            end: f64::INFINITY,
            factor: 0.0,
        }],
        ..FaultPlan::default()
    }
}

fn try_run(cfg: WorldConfig, program: Program) -> Result<mpisim::RunSummary, SimError> {
    let mut world = World::new(cfg, vec![program], NoHooks);
    world.create_file("f");
    world.try_run()
}

#[test]
fn poll_wait_under_endless_outage_trips_the_watchdog() {
    // The classic busy-poll pattern: each probe burns compute and fires
    // fresh events, so the queue never drains — without the watchdog this
    // run spins forever in wall-clock time.
    let program = Program::from_ops(vec![
        Op::IWrite {
            file: FileId(0),
            bytes: 8e6,
            tag: ReqTag(0),
        },
        Op::PollWait {
            tag: ReqTag(0),
            interval: 0.001,
        },
    ]);
    let cfg = WorldConfig::new(1)
        .with_faults(endless_outage())
        .with_watchdog(WatchdogCfg {
            max_futile_events: 500,
            max_stall: f64::INFINITY,
        });
    let err = try_run(cfg, program).expect_err("outage-frozen poll loop must fail");
    assert!(err.to_string().contains("watchdog: no progress"), "{err}");
    let SimError::Stalled(snap) = err else {
        panic!("expected Stalled, got {err}");
    };
    // The snapshot names the culprit: the frozen request and the polling rank.
    assert!(snap.futile_events > 500, "{snap:?}");
    assert_eq!(snap.blocked_ranks.len(), 1, "{snap:?}");
    assert!(snap.blocked_ranks[0].contains("rank 0"), "{snap:?}");
    assert!(
        snap.pending_ops.iter().any(|o| o.contains("ReqTag(0)")),
        "pending op with its tag expected in {snap:?}"
    );
    assert!(snap.at >= snap.last_advance);
}

#[test]
fn stall_snapshot_counts_every_pending_event() {
    // Eight ranks poll the same frozen write at the same instants, so every
    // probe round is eight same-time Resume events. The watchdog trips on
    // the fourth handled event; each polling rank still has exactly one
    // Resume pending, the rescheduled probe of a rank already handled
    // included.
    let program = Program::from_ops(vec![
        Op::IWrite {
            file: FileId(0),
            bytes: 8e6,
            tag: ReqTag(0),
        },
        Op::PollWait {
            tag: ReqTag(0),
            interval: 0.001,
        },
    ]);
    let cfg = WorldConfig::new(8)
        .with_faults(endless_outage())
        .with_watchdog(WatchdogCfg {
            max_futile_events: 3,
            max_stall: f64::INFINITY,
        });
    let mut world = World::new(cfg, vec![program; 8], NoHooks);
    world.create_file("f");
    let err = world
        .try_run()
        .expect_err("outage-frozen poll loop must fail");
    let SimError::Stalled(snap) = err else {
        panic!("expected Stalled, got {err}");
    };
    assert_eq!(snap.futile_events, 4, "{snap:?}");
    assert_eq!(snap.queue_depth, 8, "{snap:?}");
    assert_eq!(snap.blocked_ranks.len(), 8, "{snap:?}");
}

#[test]
fn stall_time_bound_trips_independently_of_event_count() {
    // Same frozen poll loop, but bounded by virtual no-progress time: each
    // probe advances the clock 1 ms, so 1 s of stall is ~1000 probes —
    // well under the generous event bound.
    let program = Program::from_ops(vec![
        Op::IWrite {
            file: FileId(0),
            bytes: 8e6,
            tag: ReqTag(0),
        },
        Op::PollWait {
            tag: ReqTag(0),
            interval: 0.001,
        },
    ]);
    let cfg = WorldConfig::new(1)
        .with_faults(endless_outage())
        .with_watchdog(WatchdogCfg {
            max_futile_events: u64::MAX,
            max_stall: 1.0,
        });
    let err = try_run(cfg, program).expect_err("stall-time bound must fail the run");
    let SimError::Stalled(snap) = err else {
        panic!("expected Stalled, got {err}");
    };
    assert!(snap.at - snap.last_advance > 1.0, "{snap:?}");
}

#[test]
fn frozen_wait_is_reported_as_deadlock() {
    // A blocking `Wait` on the frozen request fires no further events: the
    // queue drains with the rank still blocked — the deadlock shape, not
    // the live-lock shape.
    let program = Program::from_ops(vec![
        Op::IWrite {
            file: FileId(0),
            bytes: 8e6,
            tag: ReqTag(0),
        },
        Op::Wait { tag: ReqTag(0) },
    ]);
    let cfg = WorldConfig::new(1).with_faults(endless_outage());
    let err = try_run(cfg, program).expect_err("frozen wait must fail");
    assert!(err.to_string().contains("deadlock"), "{err}");
    let SimError::Deadlock(snap) = err else {
        panic!("expected Deadlock, got {err}");
    };
    assert_eq!(snap.queue_depth, 0, "{snap:?}");
    assert!(snap.blocked_ranks[0].contains("rank 0"), "{snap:?}");
    assert!(
        snap.pending_ops.iter().any(|o| o.contains("ReqTag(0)")),
        "{snap:?}"
    );
}

#[test]
fn default_watchdog_never_trips_on_healthy_runs() {
    // A fault-free run with blocking and non-blocking I/O, collectives and
    // polling finishes untouched under the default thresholds.
    let mk = || {
        Program::from_ops(vec![
            Op::Barrier,
            Op::IWrite {
                file: FileId(0),
                bytes: 64e6,
                tag: ReqTag(0),
            },
            Op::Compute { seconds: 0.05 },
            Op::PollWait {
                tag: ReqTag(0),
                interval: 0.001,
            },
            Op::Write {
                file: FileId(0),
                bytes: 16e6,
            },
            Op::Barrier,
        ])
    };
    let mut world = World::new(WorldConfig::new(4), (0..4).map(|_| mk()).collect(), NoHooks);
    world.create_file("f");
    let summary = world.try_run().expect("healthy run must pass the watchdog");
    assert!(summary.end_time.as_secs() > 0.0);
}
