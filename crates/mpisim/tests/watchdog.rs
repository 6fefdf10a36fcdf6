//! Supervision behaviour of the event loop: the progress watchdog turns
//! never-completing runs (capacity-noise ticks live-locking under an
//! endless outage, a `Wait` whose request is frozen) into typed
//! [`SimError`]s with a diagnostic [`StallSnapshot`] instead of spinning or
//! hanging forever.

use mpisim::{
    CapacityNoiseCfg, FaultPlan, FileId, NoHooks, Op, Program, ReqTag, SimError, WatchdogCfg,
    World, WorldConfig,
};
use simcore::{ChannelFaultWindow, FaultChannel, Noise};

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

/// A world whose PFS capacity noise is re-drawn every millisecond under
/// an endless outage: the tick chain keeps the event loop alive forever
/// while no byte can move.
fn ticking_outage(n_ranks: usize) -> WorldConfig {
    WorldConfig {
        faults: endless_outage(),
        capacity_noise: Some(CapacityNoiseCfg {
            period: 0.001,
            noise: Noise::UniformRel(0.1),
        }),
        ..WorldConfig::new(n_ranks)
    }
}

/// Submits 8 MB to the frozen write channel and waits for it.
fn frozen_write() -> Program {
    Program::from_ops(vec![
        Op::IWrite {
            file: FileId(0),
            bytes: 8e6,
            tag: ReqTag(0),
        },
        Op::Wait { tag: ReqTag(0) },
    ])
}

fn try_run(cfg: WorldConfig, program: Program) -> Result<mpisim::RunSummary, SimError> {
    let mut world = World::new(cfg, vec![program], NoHooks);
    world.create_file("f");
    world.try_run()
}

#[test]
fn capacity_ticks_under_endless_outage_trip_the_watchdog() {
    // The rank waits on a frozen request while capacity ticks fire fresh
    // events, so the queue never drains: without the watchdog this run
    // spins forever in wall-clock time.
    let cfg = WorldConfig {
        watchdog: WatchdogCfg {
            max_futile_events: 500,
            max_stall: f64::INFINITY,
        },
        ..ticking_outage(1)
    };
    let err = try_run(cfg, frozen_write()).expect_err("outage-frozen tick loop must fail");
    assert!(err.to_string().contains("watchdog: no progress"), "{err}");
    let SimError::Stalled(snap) = err else {
        panic!("expected Stalled, got {err}");
    };
    // The snapshot names the culprit: the frozen request and the waiting rank.
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
    // Eight ranks submit to the frozen channel, then compute for 100 s, so
    // each has one Resume pending far in the future. The watchdog trips on
    // the fourth handled event (the outage edge at t = 0, then three
    // ticks); the queue then holds the eight Resumes plus the next tick,
    // rescheduled into the slot of the tick just popped.
    let program = Program::from_ops(vec![
        Op::IWrite {
            file: FileId(0),
            bytes: 8e6,
            tag: ReqTag(0),
        },
        Op::Compute { seconds: 100.0 },
        Op::Wait { tag: ReqTag(0) },
    ]);
    let cfg = WorldConfig {
        watchdog: WatchdogCfg {
            max_futile_events: 3,
            max_stall: f64::INFINITY,
        },
        ..ticking_outage(8)
    };
    let mut world = World::new(cfg, vec![program; 8], NoHooks);
    world.create_file("f");
    let err = world
        .try_run()
        .expect_err("outage-frozen tick loop must fail");
    let SimError::Stalled(snap) = err else {
        panic!("expected Stalled, got {err}");
    };
    assert_eq!(snap.futile_events, 4, "{snap:?}");
    assert_eq!(snap.queue_depth, 9, "{snap:?}");
    assert_eq!(snap.blocked_ranks.len(), 8, "{snap:?}");
}

#[test]
fn stall_time_bound_trips_independently_of_event_count() {
    // Same frozen tick loop, but bounded by virtual no-progress time: each
    // tick advances the clock 1 ms, so 1 s of stall is ~1000 ticks — well
    // under the generous event bound.
    let cfg = WorldConfig {
        watchdog: WatchdogCfg {
            max_futile_events: u64::MAX,
            max_stall: 1.0,
        },
        ..ticking_outage(1)
    };
    let err = try_run(cfg, frozen_write()).expect_err("stall-time bound must fail the run");
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
    let cfg = WorldConfig {
        faults: endless_outage(),
        ..WorldConfig::new(1)
    };
    let err = try_run(cfg, frozen_write()).expect_err("frozen wait must fail");
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
    // A fault-free run with blocking and non-blocking I/O, collectives,
    // probes and capacity noise finishes untouched under the default
    // thresholds.
    let mk = || {
        Program::from_ops(vec![
            Op::Barrier,
            Op::IWrite {
                file: FileId(0),
                bytes: 64e6,
                tag: ReqTag(0),
            },
            Op::Test { tag: ReqTag(0) },
            Op::Compute { seconds: 0.05 },
            Op::Test { tag: ReqTag(0) },
            Op::Wait { tag: ReqTag(0) },
            Op::Write {
                file: FileId(0),
                bytes: 16e6,
            },
            Op::Barrier,
        ])
    };
    let mut cfg = WorldConfig::new(4);
    cfg.capacity_noise = Some(CapacityNoiseCfg {
        period: 0.001,
        noise: Noise::UniformRel(0.1),
    });
    let mut world = World::new(cfg, (0..4).map(|_| mk()).collect(), NoHooks);
    world.create_file("f");
    let summary = world.try_run().expect("healthy run must pass the watchdog");
    assert!(summary.end_time.as_secs() > 0.0);
}
