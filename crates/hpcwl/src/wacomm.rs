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

/// The actual Lagrangian transport kernel, so examples move real particle
/// data: explicit-Euler advection in a steady analytic current field plus a
/// deterministic turbulent kick — the numerical heart of WaComM.
pub mod kernel {

    /// One pollutant particle.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Particle {
        /// Position (lon-like), metres.
        pub x: f64,
        /// Position (lat-like), metres.
        pub y: f64,
        /// Depth, metres (≤ 0 at surface … positive down).
        pub z: f64,
        /// Pollutant health/concentration in [0, 1].
        pub health: f64,
        /// Stable particle id.
        pub id: u64,
    }

    /// Steady analytic current field (a double-gyre-like circulation).
    pub fn current(x: f64, y: f64, z: f64) -> (f64, f64, f64) {
        let u = 0.4 * (0.002 * y).sin() + 0.05;
        let v = 0.3 * (0.002 * x).cos();
        let w = 0.01 * (0.001 * (x + y)).sin() - 0.002 * z.max(0.0);
        (u, v, w)
    }

    /// Seeds `n` particles around a release point, deterministically.
    pub fn seed(n: usize, release: (f64, f64, f64)) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                // Low-discrepancy spread via Weyl sequences.
                let a = (i as f64 * 0.754_877_666_6) % 1.0;
                let b = (i as f64 * 0.569_840_290_9) % 1.0;
                Particle {
                    x: release.0 + 50.0 * (a - 0.5),
                    y: release.1 + 50.0 * (b - 0.5),
                    z: release.2,
                    health: 1.0,
                    id: i as u64,
                }
            })
            .collect()
    }

    /// Advects particles one step of `dt` seconds: Euler step through the
    /// current field, a deterministic pseudo-turbulent kick, and first-order
    /// pollutant decay.
    pub fn advect(particles: &mut [Particle], dt: f64, decay_per_sec: f64) {
        for p in particles.iter_mut() {
            let (u, v, w) = current(p.x, p.y, p.z);
            // Deterministic per-particle kick (hashed id + position).
            let h = p.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let kick = (h as f64 / (1u64 << 24) as f64 - 0.5) * 0.02;
            p.x += (u + kick) * dt;
            p.y += (v - kick) * dt;
            p.z = (p.z + w * dt).max(0.0);
            p.health *= (-decay_per_sec * dt).exp();
        }
    }

    /// Serializes particles to the 40-byte wire format.
    pub fn serialize(ps: &[Particle]) -> Vec<u8> {
        let mut out = Vec::with_capacity(ps.len() * 40);
        for p in ps {
            out.extend_from_slice(&p.x.to_le_bytes());
            out.extend_from_slice(&p.y.to_le_bytes());
            out.extend_from_slice(&p.z.to_le_bytes());
            out.extend_from_slice(&p.health.to_le_bytes());
            out.extend_from_slice(&p.id.to_le_bytes());
        }
        out
    }

    /// Mean pollutant health of a population (a simple model observable).
    pub fn mean_health(ps: &[Particle]) -> f64 {
        if ps.is_empty() {
            return 0.0;
        }
        ps.iter().map(|p| p.health).sum::<f64>() / ps.len() as f64
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

    #[test]
    fn kernel_advection_moves_particles() {
        let mut ps = kernel::seed(100, (1000.0, 2000.0, 5.0));
        let before = ps.clone();
        kernel::advect(&mut ps, 60.0, 1e-5);
        let moved = ps
            .iter()
            .zip(&before)
            .filter(|(a, b)| (a.x - b.x).abs() > 1e-9 || (a.y - b.y).abs() > 1e-9)
            .count();
        assert_eq!(moved, 100, "all particles advect");
    }

    #[test]
    fn kernel_decay_reduces_health() {
        let mut ps = kernel::seed(10, (0.0, 0.0, 0.0));
        kernel::advect(&mut ps, 3600.0, 1e-4);
        let h = kernel::mean_health(&ps);
        assert!(h < 1.0 && h > 0.0, "health {h}");
        assert!((h - (-0.36f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn kernel_is_deterministic() {
        let mut a = kernel::seed(50, (0.0, 0.0, 1.0));
        let mut b = kernel::seed(50, (0.0, 0.0, 1.0));
        kernel::advect(&mut a, 60.0, 0.0);
        kernel::advect(&mut b, 60.0, 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn kernel_depth_never_negative() {
        let mut ps = kernel::seed(200, (0.0, 0.0, 0.1));
        for _ in 0..100 {
            kernel::advect(&mut ps, 600.0, 0.0);
        }
        assert!(ps.iter().all(|p| p.z >= 0.0));
    }

    #[test]
    fn serialized_size_matches_constant() {
        let ps = kernel::seed(7, (0.0, 0.0, 0.0));
        assert_eq!(
            kernel::serialize(&ps).len() as f64,
            7.0 * BYTES_PER_PARTICLE
        );
    }
}
