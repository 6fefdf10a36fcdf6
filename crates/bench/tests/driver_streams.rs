//! The closed-form drivers of the asynchronous HACC-IO and WaComM
//! workloads stream, op for op, the programs `HaccConfig::program` and
//! `WacommConfig::program` return, and the programs the explicit loop
//! builders below (the oracles) build; every stream passes
//! `Program::validate`. Checked at every rank count a registry entry runs
//! (figures, ablations and chaos, quick and full scale): every rank up to
//! 192, and rank 0, a middle rank and the last rank beyond that.

use bench::sweeps;
use hpcwl::hacc::HaccConfig;
use hpcwl::wacomm::WacommConfig;
use mpisim::{FileId, Op, Program, ReqTag};
use session::{HaccIo, Wacomm, Workload};
use simcore::SimTime;

/// The modified HACC-IO program as a loop (Fig. 12): header write, then
/// the write overlapping compute and the read overlapping verify.
fn hacc_oracle(cfg: &HaccConfig, file: FileId) -> Program {
    let data = cfg.data_bytes();
    let bcast = Op::Bcast {
        bytes: cfg.bcast_bytes,
    };
    let mut ops = Vec::new();
    for k in 0..cfg.loops as u32 {
        let (wtag, rtag) = (ReqTag(2 * k), ReqTag(2 * k + 1));
        ops.extend([
            Op::Write {
                file,
                bytes: cfg.header_bytes,
            },
            Op::IWrite {
                file,
                bytes: data,
                tag: wtag,
            },
            bcast,
            Op::Compute {
                seconds: cfg.compute_seconds(),
            },
            Op::Wait { tag: wtag },
            Op::IRead {
                file,
                bytes: data,
                tag: rtag,
            },
            bcast,
            Op::Compute {
                seconds: cfg.verify_seconds(),
            },
            Op::Memcpy { bytes: data },
            Op::Wait { tag: rtag },
        ]);
    }
    Program::from_ops(ops)
}

/// The asynchronous WaComM program as a loop: rank 0 reads the input,
/// every iteration computes, waits for the previous write and writes
/// asynchronously, except the last, whose write is blocking.
fn wacomm_oracle(cfg: &WacommConfig, rank: usize, n: usize, out: FileId) -> Program {
    let mut ops = Vec::new();
    if rank == 0 {
        ops.push(Op::Read {
            file: FileId(0),
            bytes: cfg.input_bytes,
        });
    }
    ops.push(Op::Bcast {
        bytes: cfg.bcast_bytes,
    });
    let bytes = cfg.write_bytes(rank, n);
    let last = cfg.iterations as u32 - 1;
    for k in 0..cfg.iterations as u32 {
        ops.push(Op::Compute {
            seconds: cfg.compute_seconds(rank, n),
        });
        if k > 0 {
            ops.push(Op::Wait { tag: ReqTag(k - 1) });
        }
        ops.push(if k < last {
            Op::IWrite {
                file: out,
                bytes,
                tag: ReqTag(k),
            }
        } else {
            Op::Write {
                file: out,
                bytes: bytes + cfg.final_bytes_per_rank,
            }
        });
    }
    Program::from_ops(ops)
}

/// Rank counts the registry runs outside the two sweeps: Fig. 3 (1), the
/// chaos cases (8, 16), the ablations (16, 96), Figs. 8–9 (96), Figs. 10
/// and 13 (384, 9216) and Fig. 14 (192, 1536).
const OTHER_RANKS: [usize; 8] = [1, 8, 16, 96, 192, 384, 1536, 9216];

fn rank_counts(sweep: fn(bool) -> Vec<usize>) -> Vec<usize> {
    let mut n: Vec<usize> = sweep(false)
        .into_iter()
        .chain(sweep(true))
        .chain(OTHER_RANKS)
        .collect();
    n.sort_unstable();
    n.dedup();
    n
}

fn ranks_to_check(n: usize) -> Vec<usize> {
    if n <= 192 {
        (0..n).collect()
    } else {
        vec![0, n / 2, n - 1]
    }
}

/// Drains `rank`'s stream from a fresh driver of `workload`.
fn stream(workload: &dyn Workload, n: usize, rank: usize) -> Program {
    let mut driver = workload.driver(n).expect("a valid workload");
    let mut ops = Vec::new();
    while let Some(op) = driver.next_op(rank, SimTime::ZERO) {
        ops.push(op);
    }
    Program::from_ops(ops)
}

fn assert_same(got: &Program, want: &Program, what: &str) {
    assert_eq!(got.ops(), want.ops(), "{what}");
    assert!(!got.is_empty(), "{what}: empty stream");
    got.validate()
        .unwrap_or_else(|e| panic!("{what}: invalid stream: {e}"));
}

#[test]
fn hacc_driver_streams_its_programs() {
    // The registry's HACC-IO shapes: the default 10 loops (Figs. 5/6,
    // 11, 13, 14, chaos), Fig. 3's 4 loops, the ablations' 8 and Fig. 12's 2.
    let configs = [(100_000, 10), (200_000, 4), (100_000, 8), (50_000, 2)].map(
        |(particles_per_rank, loops)| HaccConfig {
            particles_per_rank,
            loops,
            ..Default::default()
        },
    );
    for n in rank_counts(sweeps::hacc_ranks) {
        for cfg in configs {
            let workload = HaccIo::new(cfg);
            for rank in ranks_to_check(n) {
                let file = FileId(rank as u32);
                let want = hacc_oracle(&cfg, file);
                let what = format!("hacc {} loops, rank {rank} of {n}", cfg.loops);
                assert_same(&stream(&workload, n, rank), &want, &what);
                assert_same(&cfg.program(file), &want, &what);
            }
        }
    }
}

#[test]
fn wacomm_driver_streams_its_programs() {
    // Every registry entry runs the default 50 iterations; 2 and 3 are
    // the shortest valid schedules.
    let configs = [50, 2, 3].map(|iterations| WacommConfig {
        iterations,
        ..Default::default()
    });
    for n in rank_counts(sweeps::wacomm_ranks) {
        for cfg in configs {
            let workload = Wacomm::new(cfg);
            for rank in ranks_to_check(n) {
                let out = FileId(1 + rank as u32);
                let want = wacomm_oracle(&cfg, rank, n, out);
                let what = format!("wacomm {} iterations, rank {rank} of {n}", cfg.iterations);
                assert_same(&stream(&workload, n, rank), &want, &what);
                assert_same(&cfg.program(rank, n, FileId(0), out), &want, &what);
            }
        }
    }
}

/// The sync baselines keep the scripted path.
#[test]
fn sync_variants_replay_their_programs() {
    let hacc = HaccConfig::default();
    let wacomm = WacommConfig::default();
    for n in [1, 4, 24] {
        for rank in 0..n {
            let want = hacc.program_sync(FileId(rank as u32));
            let got = stream(&HaccIo::sync(hacc), n, rank);
            assert_same(&got, &want, &format!("hacc-sync rank {rank} of {n}"));
            let want = wacomm.program_sync(rank, n, FileId(0), FileId(1 + rank as u32));
            let got = stream(&Wacomm::sync(wacomm), n, rank);
            assert_same(&got, &want, &format!("wacomm-sync rank {rank} of {n}"));
        }
    }
}

/// Past its end a stream stays ended, and a config too short for the
/// asynchronous schedule yields a short valid stream instead of panicking.
#[test]
fn streams_end_cleanly() {
    let cfg = WacommConfig {
        iterations: 4,
        ..Default::default()
    };
    let len = cfg.program(0, 2, FileId(0), FileId(1)).len();
    for pc in len..len + 8 {
        assert_eq!(cfg.op(0, 2, FileId(0), FileId(1), pc), None);
    }
    for iterations in [0, 1] {
        let short = WacommConfig {
            iterations,
            ..Default::default()
        };
        assert!(Wacomm::new(short).validate().is_err());
        let ops: Vec<_> = (0..8)
            .map_while(|pc| short.op(0, 2, FileId(0), FileId(1), pc))
            .collect();
        assert!(Program::from_ops(ops).validate().is_ok(), "{iterations}");
    }
    let hacc = HaccConfig::default();
    let len = hacc.program(FileId(0)).len();
    assert_eq!(hacc.op(FileId(0), len), None);
}
