//! Property-based invariants of the runtime: time accounting closes, bytes
//! are conserved, async never loses to sync, determinism holds.

use mpisim::{FileId, NoHooks, Op, Program, ReqTag, World, WorldConfig};
use pfsim::PfsConfig;
use proptest::prelude::*;
use simcore::Noise;

/// A generated periodic workload.
#[derive(Clone, Debug)]
struct Workload {
    ranks: usize,
    segments: usize,
    block_mb: f64,
    compute_s: f64,
    capacity_mbs: f64,
    with_barrier: bool,
    seed: u64,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        1usize..6,
        1usize..6,
        0.5f64..40.0,
        0.01f64..0.5,
        50.0f64..2000.0,
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            |(ranks, segments, block_mb, compute_s, capacity_mbs, with_barrier, seed)| Workload {
                ranks,
                segments,
                block_mb,
                compute_s,
                capacity_mbs,
                with_barrier,
                seed,
            },
        )
}

fn program(w: &Workload, asynchronous: bool) -> Program {
    let mut ops = Vec::new();
    for k in 0..w.segments as u32 {
        if asynchronous {
            ops.push(Op::IWrite {
                file: FileId(0),
                bytes: w.block_mb * 1e6,
                tag: ReqTag(k),
            });
            ops.push(Op::Compute {
                seconds: w.compute_s,
            });
            ops.push(Op::Wait { tag: ReqTag(k) });
        } else {
            ops.push(Op::Compute {
                seconds: w.compute_s,
            });
            ops.push(Op::Write {
                file: FileId(0),
                bytes: w.block_mb * 1e6,
            });
        }
        if w.with_barrier {
            ops.push(Op::Barrier);
        }
    }
    Program::from_ops(ops)
}

fn world(w: &Workload, asynchronous: bool) -> World<NoHooks> {
    let mut cfg = WorldConfig::new(w.ranks).with_seed(w.seed);
    cfg.pfs = PfsConfig {
        write_capacity: w.capacity_mbs * 1e6,
        read_capacity: w.capacity_mbs * 1e6,
    };
    cfg.compute_noise = Noise::UniformRel(0.05);
    let mut wd = World::new(cfg, vec![program(w, asynchronous); w.ranks], NoHooks);
    wd.create_file("f");
    wd
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-rank accounting closes: every second of a rank's lifetime is in
    /// exactly one bucket.
    #[test]
    fn accounting_identity(w in arb_workload(), asynchronous in any::<bool>()) {
        let s = world(&w, asynchronous).try_run().unwrap();
        for (rank, acct) in s.accounting.iter().enumerate() {
            let sum = acct.compute
                + acct.memcpy
                + acct.sync_write
                + acct.sync_read
                + acct.wait_write
                + acct.wait_read
                + acct.collective
                + acct.overhead;
            let end = s.finished_at[rank].as_secs();
            prop_assert!(
                (sum - end).abs() < 1e-6 * end.max(1.0),
                "rank {rank}: buckets {sum} vs end {end}"
            );
        }
    }

    /// All written bytes arrive: the file byte count matches the program.
    #[test]
    fn bytes_conserved(w in arb_workload(), asynchronous in any::<bool>()) {
        let mut wd = world(&w, asynchronous);
        wd.try_run().unwrap();
        let expected = w.ranks as f64 * w.segments as f64 * w.block_mb * 1e6;
        prop_assert!((wd.file_bytes(FileId(0)) - expected).abs() < 1.0);
    }

    /// The async variant never runs longer than the sync variant (overlap
    /// can only help; barriers keep the phases aligned).
    #[test]
    fn async_never_slower_than_sync(w in arb_workload()) {
        let sync = world(&w, false).try_run().unwrap().makespan();
        let asy = world(&w, true).try_run().unwrap().makespan();
        prop_assert!(
            asy <= sync * (1.0 + 1e-9) + 1e-9,
            "async {asy} vs sync {sync}"
        );
    }

    /// Makespan is bounded below by compute alone and above by the serial
    /// sum of compute and I/O through the shared channel.
    #[test]
    fn makespan_bounds(w in arb_workload(), asynchronous in any::<bool>()) {
        let s = world(&w, asynchronous).try_run().unwrap();
        let mk = s.makespan();
        let min_compute = w.segments as f64 * w.compute_s * 0.95; // noise floor
        prop_assert!(mk >= min_compute - 1e-9, "makespan {mk} < compute {min_compute}");
        let io_serial =
            w.ranks as f64 * w.segments as f64 * w.block_mb * 1e6 / (w.capacity_mbs * 1e6);
        let max = w.segments as f64 * w.compute_s * 1.05 + io_serial + 1.0;
        prop_assert!(mk <= max, "makespan {mk} > bound {max}");
    }

    /// Identical seeds give identical runs; different seeds (with noise)
    /// exist that differ — determinism without degeneracy.
    #[test]
    fn determinism(w in arb_workload()) {
        let a = world(&w, true).try_run().unwrap();
        let b = world(&w, true).try_run().unwrap();
        prop_assert_eq!(a.makespan(), b.makespan());
        for (x, y) in a.finished_at.iter().zip(&b.finished_at) {
            prop_assert_eq!(x, y);
        }
    }

    /// A limiter driven by a well-tempered strategy keeps the runtime within
    /// a few percent on uniform periodic workloads.
    #[test]
    fn gentle_limiting_is_harmless(mut w in arb_workload()) {
        // Uniform phases; ensure the I/O actually fits its window at B·1.3.
        w.with_barrier = false;
        let base = world(&w, true).try_run().unwrap().makespan();

        let mut cfg = WorldConfig::new(w.ranks).with_seed(w.seed).with_limiter(true);
        cfg.pfs = PfsConfig {
            write_capacity: w.capacity_mbs * 1e6,
            read_capacity: w.capacity_mbs * 1e6,
        };
        cfg.compute_noise = Noise::UniformRel(0.05);
        let tracer = tmio_shim::tracer(w.ranks);
        let mut wd = World::new(cfg, vec![program(&w, true); w.ranks], tracer);
        wd.create_file("f");
        let lim = wd.try_run().unwrap().makespan();
        prop_assert!(
            lim <= base * 1.35 + 0.2,
            "limited {lim} vs base {base}"
        );
    }
}

/// Minimal local re-implementation of a direct-strategy limiter so this
/// crate's tests do not depend on `tmio` (which depends on `mpisim`): set
/// the limit to 1.3 × bytes/window at each wait.
mod tmio_shim {
    use mpisim::{Channel, IoHooks, Limits, ReqTag};
    use simcore::SimTime;
    use std::collections::HashMap;

    pub struct MiniTracer {
        submit: HashMap<(usize, u32), (SimTime, f64)>,
    }

    pub fn tracer(_ranks: usize) -> MiniTracer {
        MiniTracer {
            submit: HashMap::new(),
        }
    }

    impl IoHooks for MiniTracer {
        fn on_async_submit(
            &mut self,
            t: SimTime,
            rank: usize,
            tag: ReqTag,
            bytes: f64,
            _channel: Channel,
            _limits: &mut Limits,
        ) -> f64 {
            self.submit.insert((rank, tag.0), (t, bytes));
            0.0
        }

        fn on_wait_enter(
            &mut self,
            t: SimTime,
            rank: usize,
            tag: ReqTag,
            _done: bool,
            limits: &mut Limits,
        ) -> f64 {
            if let Some((ts, bytes)) = self.submit.remove(&(rank, tag.0)) {
                let window = (t - ts).max(1e-9);
                limits.set(rank, Some((bytes / window * 1.3).max(1024.0)));
            }
            0.0
        }
    }
}
