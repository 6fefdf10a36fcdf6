//! Stress tests of scripted per-rank programs: many ranks, mixed op types,
//! rank-dependent control flow (a different program per rank) and
//! determinism of repeated runs.

use mpisim::{FileId, NoHooks, Op, Program, ReqTag, RunSummary, World, WorldConfig};
use pfsim::PfsConfig;

fn cfg(n: usize) -> WorldConfig {
    let mut c = WorldConfig::new(n);
    c.pfs = PfsConfig {
        write_capacity: 1e9,
        read_capacity: 1e9,
    };
    c
}

/// Runs one program per rank against a single registered file.
fn run(n: usize, program: impl Fn(usize) -> Program) -> RunSummary {
    let mut w = World::new(cfg(n), (0..n).map(program).collect(), NoHooks);
    w.create_file("out");
    w.try_run().unwrap()
}

const F: FileId = FileId(0);

#[test]
fn sixty_four_ranks_mixed_ops() {
    let summary = run(64, |rank| {
        let mut p = Program::new();
        for k in 0..5u32 {
            let (w, r) = (ReqTag(2 * k), ReqTag(2 * k + 1));
            p.push(Op::IWrite {
                file: F,
                bytes: 2e6,
                tag: w,
            })
            .push(Op::IRead {
                file: F,
                bytes: 1e6,
                tag: r,
            })
            .push(Op::Compute {
                seconds: 0.02 + 0.001 * (rank % 4) as f64,
            })
            .push(Op::Bcast { bytes: 1024.0 })
            .push(Op::Wait { tag: w })
            .push(Op::Wait { tag: r });
            if k % 2 == 0 {
                p.push(Op::Memcpy { bytes: 1e6 });
            }
            p.push(Op::Barrier);
        }
        p
    });
    assert!(summary.makespan() > 0.1);
    // Every rank finished at the same barrier-aligned time.
    let t0 = summary.finished_at[0];
    for t in &summary.finished_at {
        assert_eq!(*t, t0, "barrier alignment");
    }
}

#[test]
fn rank_dependent_branches() {
    // Odd ranks write, even ranks read; all meet at barriers.
    let summary = run(8, |rank| {
        let mut p = Program::new();
        for k in 0..3u32 {
            if rank % 2 == 1 {
                p.push(Op::IWrite {
                    file: F,
                    bytes: 4e6,
                    tag: ReqTag(k),
                })
                .push(Op::Compute { seconds: 0.05 })
                .push(Op::Wait { tag: ReqTag(k) });
            } else {
                p.push(Op::Compute { seconds: 0.03 }).push(Op::Read {
                    file: F,
                    bytes: 4e6,
                });
            }
            p.push(Op::Barrier);
        }
        p
    });
    assert!(summary.makespan() > 0.09);
    // Even ranks did sync reads, odd ranks did not.
    for (rank, a) in summary.accounting.iter().enumerate() {
        if rank % 2 == 0 {
            assert!(a.sync_read > 0.0, "rank {rank} read");
            assert_eq!(a.wait_write, 0.0);
        } else {
            assert_eq!(a.sync_read, 0.0, "rank {rank} wrote async");
        }
    }
}

#[test]
fn repeated_runs_are_identical() {
    let finished = || {
        run(16, |rank| {
            let mut p = Program::new();
            for k in 0..4u32 {
                p.push(Op::IWrite {
                    file: F,
                    bytes: 1e6 * (1 + rank % 3) as f64,
                    tag: ReqTag(k),
                })
                .push(Op::Compute { seconds: 0.01 })
                .push(Op::Wait { tag: ReqTag(k) });
            }
            p
        })
        .finished_at
    };
    assert_eq!(finished(), finished(), "execution is deterministic");
}
