//! Regression tests for past engine bugs.

use mpisim::{NoHooks, Op, Program, World, WorldConfig};

/// Two equal ranks submitting merged sync writes once produced a PFS group
/// whose residual bytes mapped to a time increment below the ulp of the
/// clock, spinning `advance_to` at dt = 0 forever. The fluid engine now
/// snaps such residues to completion.
#[test]
fn merged_sync_writes_terminate() {
    let ops = vec![
        Op::Compute { seconds: 0.5 },
        Op::Write {
            file: mpisim::FileId(0),
            bytes: 1e9,
        },
        Op::Barrier,
    ];
    let mut w = World::new(
        WorldConfig::new(2),
        vec![Program::from_ops(ops); 2],
        NoHooks,
    );
    w.create_file("x");
    let s = w.try_run().unwrap();
    // 2 GB over the 106 GB/s write channel ≈ 18.9 ms after the 0.5 s compute.
    assert!(
        s.makespan() > 0.5 && s.makespan() < 0.53,
        "makespan {}",
        s.makespan()
    );
}

/// Same shape at a large absolute time offset, where the clock ulp is coarser.
#[test]
fn merged_writes_terminate_at_large_times() {
    let ops = vec![
        Op::Compute { seconds: 50_000.0 },
        Op::Write {
            file: mpisim::FileId(0),
            bytes: 1e9,
        },
        Op::Barrier,
    ];
    let mut w = World::new(
        WorldConfig::new(2),
        vec![Program::from_ops(ops); 2],
        NoHooks,
    );
    w.create_file("x");
    let s = w.try_run().unwrap();
    assert!(s.makespan() >= 50_000.0 && s.makespan() < 50_001.0);
}
