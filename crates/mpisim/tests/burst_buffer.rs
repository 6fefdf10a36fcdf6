//! Tests of the burst-buffer write path (the paper's future-work extension).

use mpisim::{FileId, NoHooks, Op, Program, ReqTag, World, WorldConfig};
use pfsim::{BurstBufferConfig, PfsConfig};
use simcore::SimTime;

const MB: f64 = 1e6;

fn cfg_with_bb(n: usize, pfs_cap: f64, bb: BurstBufferConfig) -> WorldConfig {
    let mut c = WorldConfig::new(n);
    c.pfs = PfsConfig {
        write_capacity: pfs_cap,
        read_capacity: pfs_cap,
    };
    c.burst_buffer = Some(bb);
    c
}

#[test]
fn sync_write_completes_at_absorb_speed() {
    // PFS is slow (10 MB/s) but the BB absorbs at 1 GB/s: a 100 MB sync
    // write returns in 0.1 s instead of 10 s.
    let bb = BurstBufferConfig {
        size_bytes: 1e9,
        absorb_rate: 1e9,
        drain_rate: 10.0 * MB,
    };
    let ops = vec![Op::Write {
        file: FileId(0),
        bytes: 100.0 * MB,
    }];
    let mut w = World::new(
        cfg_with_bb(1, 10.0 * MB, bb),
        vec![Program::from_ops(ops)],
        NoHooks,
    );
    w.create_file("f");
    let s = w.try_run().unwrap();
    assert!(
        (s.makespan() - 0.1).abs() < 1e-6,
        "makespan {}",
        s.makespan()
    );
    assert!((s.accounting[0].sync_write - 0.1).abs() < 1e-6);
}

#[test]
fn drain_reaches_the_pfs_in_background() {
    let bb = BurstBufferConfig {
        size_bytes: 1e9,
        absorb_rate: 1e9,
        drain_rate: 10.0 * MB,
    };
    let ops = vec![
        Op::Write {
            file: FileId(0),
            bytes: 100.0 * MB,
        },
        Op::Compute { seconds: 20.0 },
    ];
    let mut cfg = cfg_with_bb(1, 1e9, bb);
    cfg.record_pfs = true;
    let mut w = World::new(cfg, vec![Program::from_ops(ops)], NoHooks);
    w.create_file("f");
    w.try_run().unwrap();
    let (_, s, _) = w.into_parts();
    // The drain is smeared at 10 MB/s for 10 s — never a burst.
    assert!(s.max_value() <= 10.0 * MB + 1.0, "peak {}", s.max_value());
    let moved = s.integral(SimTime::ZERO, SimTime::from_secs(30.0));
    assert!((moved - 100.0 * MB).abs() < 1.0, "drained {moved}");
}

#[test]
fn full_buffer_degrades_to_write_through() {
    // Buffer of 50 MB, bursts of 40 MB with no drain time between them:
    // later bursts hit a full buffer and crawl at the drain rate.
    let bb = BurstBufferConfig {
        size_bytes: 50.0 * MB,
        absorb_rate: 1e9,
        drain_rate: 1.0 * MB,
    };
    let ops = vec![
        Op::Write {
            file: FileId(0),
            bytes: 40.0 * MB,
        },
        Op::Write {
            file: FileId(0),
            bytes: 40.0 * MB,
        },
        Op::Write {
            file: FileId(0),
            bytes: 40.0 * MB,
        },
    ];
    let mut w = World::new(
        cfg_with_bb(1, 1e9, bb),
        vec![Program::from_ops(ops)],
        NoHooks,
    );
    w.create_file("f");
    let s = w.try_run().unwrap();
    // First burst ≈ instant; the rest mostly at 1 MB/s: >> 60 s total.
    assert!(s.makespan() > 60.0, "makespan {}", s.makespan());
}

#[test]
fn spaced_bursts_stay_fast() {
    let bb = BurstBufferConfig {
        size_bytes: 100.0 * MB,
        absorb_rate: 1e9,
        drain_rate: 10.0 * MB,
    };
    let mut ops = Vec::new();
    for _ in 0..5 {
        ops.push(Op::Write {
            file: FileId(0),
            bytes: 40.0 * MB,
        });
        ops.push(Op::Compute { seconds: 10.0 }); // 100 MB of drain headroom
    }
    let mut w = World::new(
        cfg_with_bb(1, 1e9, bb),
        vec![Program::from_ops(ops)],
        NoHooks,
    );
    w.create_file("f");
    let s = w.try_run().unwrap();
    // Each write ≈ 0.04 s; runtime ≈ 5 × 10.04 s.
    assert!(
        (s.makespan() - 50.2).abs() < 0.1,
        "makespan {}",
        s.makespan()
    );
    assert!(s.accounting[0].sync_write < 0.3);
}

#[test]
fn async_writes_also_use_the_buffer() {
    let bb = BurstBufferConfig {
        size_bytes: 1e9,
        absorb_rate: 1e9,
        drain_rate: 10.0 * MB,
    };
    let ops = vec![
        Op::IWrite {
            file: FileId(0),
            bytes: 100.0 * MB,
            tag: ReqTag(0),
        },
        Op::Compute { seconds: 1.0 },
        Op::Wait { tag: ReqTag(0) },
    ];
    // PFS at 10 MB/s would take 10 s; the BB absorbs in 0.1 s, so the wait
    // is free even though the drain continues long after.
    let mut w = World::new(
        cfg_with_bb(1, 10.0 * MB, bb),
        vec![Program::from_ops(ops)],
        NoHooks,
    );
    w.create_file("f");
    let s = w.try_run().unwrap();
    assert!(
        (s.makespan() - 1.0).abs() < 1e-6,
        "makespan {}",
        s.makespan()
    );
    assert!(s.accounting[0].wait_write < 1e-9);
}

#[test]
fn reads_bypass_the_buffer() {
    let bb = BurstBufferConfig {
        size_bytes: 1e9,
        absorb_rate: 1e9,
        drain_rate: 10.0 * MB,
    };
    let ops = vec![Op::Read {
        file: FileId(0),
        bytes: 100.0 * MB,
    }];
    let mut w = World::new(
        cfg_with_bb(1, 10.0 * MB, bb),
        vec![Program::from_ops(ops)],
        NoHooks,
    );
    w.create_file("f");
    let s = w.try_run().unwrap();
    // Read goes straight to the 10 MB/s PFS: 10 s.
    assert!(
        (s.makespan() - 10.0).abs() < 1e-6,
        "makespan {}",
        s.makespan()
    );
}

#[test]
fn limiter_paces_the_drain() {
    struct SetLimit;
    impl mpisim::IoHooks for SetLimit {
        fn on_sync_begin(
            &mut self,
            _t: SimTime,
            rank: usize,
            _bytes: f64,
            _channel: mpisim::Channel,
            limits: &mut mpisim::Limits,
        ) -> f64 {
            limits.set(rank, Some(5.0 * MB));
            0.0
        }
    }
    let bb = BurstBufferConfig {
        size_bytes: 1e9,
        absorb_rate: 1e9,
        drain_rate: 50.0 * MB,
    };
    let mut cfg = cfg_with_bb(1, 1e9, bb);
    cfg.limiter_enabled = true;
    cfg.record_pfs = true;
    let ops = vec![
        Op::Write {
            file: FileId(0),
            bytes: 50.0 * MB,
        },
        Op::Compute { seconds: 20.0 },
    ];
    let mut w = World::new(cfg, vec![Program::from_ops(ops)], SetLimit);
    w.create_file("f");
    w.try_run().unwrap();
    // The drain flow is capped at min(drain_rate, limit) = 5 MB/s.
    let (_, write, _) = w.into_parts();
    let peak = write.max_value();
    assert!(peak <= 5.0 * MB + 1.0, "drain peak {peak}");
}
