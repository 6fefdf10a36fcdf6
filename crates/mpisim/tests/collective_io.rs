//! Tests for two-phase collective I/O (`MPI_File_write_at_all`).

use mpisim::{FileId, NoHooks, Op, Program, SimError, World, WorldConfig};
use pfsim::PfsConfig;

const MB: f64 = 1e6;

fn cfg(n: usize, cap: f64) -> WorldConfig {
    let mut c = WorldConfig::new(n);
    c.pfs = PfsConfig {
        write_capacity: cap,
        read_capacity: cap,
    };
    c
}

#[test]
fn collective_write_synchronizes_and_completes() {
    // 16 ranks × 10 MB = 160 MB over 100 MB/s -> 1.6 s of transfer through
    // 4 aggregators, plus the shuffle.
    let ops = vec![Op::WriteAll {
        file: FileId(0),
        bytes: 10.0 * MB,
    }];
    let mut w = World::new(
        cfg(16, 100.0 * MB),
        vec![Program::from_ops(ops); 16],
        NoHooks,
    );
    w.create_file("f");
    let s = w.try_run().unwrap();
    let shuffle = 160.0 * MB / 12.5e9; // per-rank bytes × n / net bw
    assert!(
        (s.makespan() - 1.6 - shuffle).abs() < 0.01,
        "makespan {}",
        s.makespan()
    );
    // Every rank accounts the same blocked time (synchronizing op).
    for a in &s.accounting {
        assert!((a.sync_write - s.makespan()).abs() < 1e-6);
    }
    assert_eq!(w.file_bytes(FileId(0)), 160.0 * MB);
}

#[test]
fn collective_uses_few_large_flows() {
    // Aggregation means the PFS sees ⌈√n⌉ concurrent flows, not n. With
    // per-flow fair sharing this is visible through timing when another
    // independent flow competes — here we just assert the byte accounting
    // and that reads work symmetrically.
    let ops = vec![
        Op::WriteAll {
            file: FileId(0),
            bytes: 1.0 * MB,
        },
        Op::ReadAll {
            file: FileId(0),
            bytes: 1.0 * MB,
        },
    ];
    let mut w = World::new(cfg(9, 100.0 * MB), vec![Program::from_ops(ops); 9], NoHooks);
    w.create_file("f");
    let s = w.try_run().unwrap();
    // write: 9 MB/100 MB/s = 0.09 s (+shuffle), read likewise.
    assert!(
        s.makespan() > 0.18 && s.makespan() < 0.21,
        "makespan {}",
        s.makespan()
    );
    for a in &s.accounting {
        assert!(a.sync_read > 0.08);
    }
}

#[test]
fn collective_slower_ranks_gate_the_io() {
    // Rank 1 computes 1 s before the collective: nobody's I/O starts early.
    let fast = Program::from_ops(vec![Op::WriteAll {
        file: FileId(0),
        bytes: 10.0 * MB,
    }]);
    let slow = Program::from_ops(vec![
        Op::Compute { seconds: 1.0 },
        Op::WriteAll {
            file: FileId(0),
            bytes: 10.0 * MB,
        },
    ]);
    let mut w = World::new(cfg(2, 100.0 * MB), vec![fast, slow], NoHooks);
    w.create_file("f");
    let s = w.try_run().unwrap();
    assert!(
        s.makespan() > 1.2,
        "I/O gated on the slow rank: {}",
        s.makespan()
    );
}

#[test]
fn collective_vs_individual_contention() {
    // 64 ranks individually writing 2 MB each create 64 competing flows;
    // collectively they funnel through 8 aggregators. Total bytes and
    // channel capacity are identical — so is the transfer time — but the
    // collective path adds only the shuffle, and both finish closely.
    // (The real win of collective I/O — locking, small-block elimination —
    // is below this model; this test pins the modeled semantics.)
    let n = 64;
    let indiv = Program::from_ops(vec![Op::Write {
        file: FileId(0),
        bytes: 2.0 * MB,
    }]);
    let coll = Program::from_ops(vec![Op::WriteAll {
        file: FileId(0),
        bytes: 2.0 * MB,
    }]);
    let run = |p: Program| {
        let mut w = World::new(cfg(n, 100.0 * MB), vec![p; 64], NoHooks);
        w.create_file("f");
        w.try_run().unwrap().makespan()
    };
    let t_indiv = run(indiv);
    let t_coll = run(coll);
    assert!((t_indiv - 1.28).abs() < 0.01, "individual {t_indiv}");
    assert!(
        t_coll > t_indiv && t_coll < t_indiv + 0.05,
        "collective {t_coll}"
    );
}

#[test]
fn mixed_collective_io_kinds_are_rejected() {
    let a = Program::from_ops(vec![Op::WriteAll {
        file: FileId(0),
        bytes: 1.0,
    }]);
    let b = Program::from_ops(vec![Op::ReadAll {
        file: FileId(0),
        bytes: 1.0,
    }]);
    let mut w = World::new(cfg(2, 1e9), vec![a, b], NoHooks);
    w.create_file("f");
    match w.try_run().unwrap_err() {
        SimError::InvalidProgram { reason, .. } => {
            assert!(reason.contains("collective mismatch"), "{reason}")
        }
        e => panic!("expected an invalid program, got {e}"),
    }
}
