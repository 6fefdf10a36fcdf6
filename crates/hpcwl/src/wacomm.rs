//! A WaComM++-like workload: Lagrangian pollutant transport with
//! asynchronous per-iteration result writes (paper Sec. VI-A).
//!
//! WaComM++ simulates marine pollutant transport: per simulated hour the
//! particle population is advected (MPI-distributed, OpenMP within a rank)
//! and — in the paper's modified version — the particle state is written
//! **asynchronously in every iteration**, with only the final write left
//! synchronous (no compute left to overlap). Rank 0 reads the particle
//! input at start.
//!
//! Per-rank op sequence (Fig. 3 ordering — wait returns immediately, then
//! the next request is submitted):
//!
//! ```text
//! rank 0: Read(input, sync);  all: Bcast(distribution)
//! for k in 0..iterations:
//!     Compute(advection of local particles)
//!     Wait(write_{k−1})           # k > 0; returns immediately when hidden
//!     IWrite(local particles)     # k < iterations − 1, tag k
//!     Write(final results, sync)  # k = iterations − 1: nothing to overlap
//! ```

use mpisim::{FileId, Op, Program, ReqTag, SimError, SimResult};

/// Bytes per serialized WaComM particle (3×f64 position + 1×f64 health +
/// u64 id = 40 B).
pub const BYTES_PER_PARTICLE: f64 = 40.0;

/// WaComM-like workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct WacommConfig {
    /// Total particles across all ranks (paper: 2·10⁶).
    pub total_particles: u64,
    /// Simulation iterations — "hours" (paper: 50).
    pub iterations: usize,
    /// Nominal advection seconds per particle per iteration (WaComM does
    /// full 3D field interpolation per particle, so this is tens of µs).
    pub compute_ns_per_particle: f64,
    /// Per-iteration serial cost (field load, bookkeeping) independent of
    /// the particle share — keeps iterations from vanishing at high rank
    /// counts, as observed on the real code.
    pub base_iteration_seconds: f64,
    /// Input bytes read by rank 0 at start.
    pub input_bytes: f64,
    /// Extra bytes in the final synchronous write on top of the last
    /// iteration's particle state (default 0: the final dump is the state).
    pub final_bytes_per_rank: f64,
    /// Distribution broadcast payload.
    pub bcast_bytes: f64,
}

impl Default for WacommConfig {
    fn default() -> Self {
        WacommConfig {
            total_particles: 2_000_000,
            iterations: 50,
            compute_ns_per_particle: 25_000.0,
            base_iteration_seconds: 0.12,
            input_bytes: 80e6,
            final_bytes_per_rank: 0.0,
            bcast_bytes: 1e6,
        }
    }
}

impl WacommConfig {
    /// Particles owned by `rank` out of `n_ranks` (block distribution).
    pub fn particles_of(&self, rank: usize, n_ranks: usize) -> u64 {
        let base = self.total_particles / n_ranks as u64;
        let rem = self.total_particles % n_ranks as u64;
        base + u64::from((rank as u64) < rem)
    }

    /// Per-iteration write size of `rank`, bytes.
    pub fn write_bytes(&self, rank: usize, n_ranks: usize) -> f64 {
        self.particles_of(rank, n_ranks) as f64 * BYTES_PER_PARTICLE
    }

    /// Nominal advection seconds per iteration for `rank`.
    pub fn compute_seconds(&self, rank: usize, n_ranks: usize) -> f64 {
        self.base_iteration_seconds
            + self.particles_of(rank, n_ranks) as f64 * self.compute_ns_per_particle * 1e-9
    }

    /// Builds the program of `rank`, [`Self::op`] collected; `out` is the
    /// rank's result file and `input` the shared input file.
    pub fn program(&self, rank: usize, n_ranks: usize, input: FileId, out: FileId) -> Program {
        let op = |pc| self.op(rank, n_ranks, input, out, pc);
        Program::from_ops((0..).map_while(op).collect())
    }

    /// Op `pc` of `rank`'s program in closed form (the sequence in the
    /// module docs), or `None` past its end: a driver streams the program
    /// without building it. A config that [`Self::validate`] rejects
    /// yields a short stream, never a panic.
    pub fn op(
        &self,
        rank: usize,
        n_ranks: usize,
        input: FileId,
        out: FileId,
        pc: usize,
    ) -> Option<Op> {
        let header = 1 + usize::from(rank == 0);
        if pc < header {
            return Some(if pc + 1 < header {
                Op::Read {
                    file: input,
                    bytes: self.input_bytes,
                }
            } else {
                Op::Bcast {
                    bytes: self.bcast_bytes,
                }
            });
        }
        // Iteration 0 has no wait: skip its slot so that iteration k spans
        // slots 3k (compute), 3k + 1 (wait) and 3k + 2 (write).
        let i = pc - header;
        let slot = if i == 0 { 0 } else { i + 1 };
        let k = slot / 3;
        if k >= self.iterations {
            return None;
        }
        let bytes = || self.write_bytes(rank, n_ranks);
        Some(match slot % 3 {
            0 => Op::Compute {
                seconds: self.compute_seconds(rank, n_ranks),
            },
            1 => Op::Wait {
                tag: ReqTag(k as u32 - 1),
            },
            _ if k + 1 < self.iterations => Op::IWrite {
                file: out,
                bytes: bytes(),
                tag: ReqTag(k as u32),
            },
            _ => Op::Write {
                file: out,
                bytes: bytes() + self.final_bytes_per_rank,
            },
        })
    }

    /// Rejects a config the asynchronous schedule cannot run: it needs a
    /// compute phase after the first write, so at least two iterations.
    pub fn validate(&self) -> SimResult<()> {
        if self.iterations < 2 {
            return Err(SimError::invalid_config(
                "iterations",
                format!("need at least two iterations, got {}", self.iterations),
            ));
        }
        Ok(())
    }

    /// The original (unmodified) WaComM++: rank 0 writes everything
    /// synchronously at the end of the run.
    pub fn program_sync(&self, rank: usize, n_ranks: usize, input: FileId, out: FileId) -> Program {
        let mut ops = Vec::with_capacity(self.iterations + 5);
        if rank == 0 {
            ops.push(Op::Read {
                file: input,
                bytes: self.input_bytes,
            });
        }
        ops.push(Op::Bcast {
            bytes: self.bcast_bytes,
        });
        let compute = self.compute_seconds(rank, n_ranks);
        for _ in 0..self.iterations {
            ops.push(Op::Compute { seconds: compute });
        }
        let total =
            self.write_bytes(rank, n_ranks) * self.iterations as f64 + self.final_bytes_per_rank;
        if rank == 0 {
            ops.push(Op::Write {
                file: out,
                bytes: total * n_ranks as f64,
            });
        }
        ops.push(Op::Barrier);
        Program::from_ops(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_distribution_covers_all() {
        let cfg = WacommConfig {
            total_particles: 10,
            ..Default::default()
        };
        let total: u64 = (0..3).map(|r| cfg.particles_of(r, 3)).sum();
        assert_eq!(total, 10);
        assert_eq!(cfg.particles_of(0, 3), 4); // remainder goes to low ranks
        assert_eq!(cfg.particles_of(2, 3), 3);
    }

    #[test]
    fn program_validates_and_overlaps() {
        let cfg = WacommConfig {
            iterations: 5,
            ..Default::default()
        };
        for rank in 0..4 {
            let p = cfg.program(rank, 4, FileId(0), FileId(1));
            assert!(p.validate().is_ok(), "rank {rank}");
        }
        // Rank 0 reads input; others don't.
        let p0 = cfg.program(0, 4, FileId(0), FileId(1));
        let p1 = cfg.program(1, 4, FileId(0), FileId(1));
        assert!(matches!(p0.ops()[0], Op::Read { .. }));
        assert!(!p1.ops().iter().any(|o| matches!(o, Op::Read { .. })));
        // Last data op is the synchronous final write.
        assert!(matches!(p0.ops()[p0.len() - 1], Op::Write { .. }));
    }

    #[test]
    fn sync_variant_funnels_through_rank0() {
        let cfg = WacommConfig {
            iterations: 5,
            ..Default::default()
        };
        let p0 = cfg.program_sync(0, 4, FileId(0), FileId(1));
        let p1 = cfg.program_sync(1, 4, FileId(0), FileId(1));
        assert!(p0.ops().iter().any(|o| matches!(o, Op::Write { .. })));
        assert!(!p1.ops().iter().any(|o| matches!(o, Op::Write { .. })));
    }
}
