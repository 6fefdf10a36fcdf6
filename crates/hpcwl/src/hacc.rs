//! HACC-IO, modified for asynchronous overlap (paper Sec. VI-B, Fig. 12).
//!
//! The CORAL HACC-IO benchmark mimics one I/O phase of HACC: it fills
//! per-particle arrays, writes a header plus the arrays, reads everything
//! back and verifies. The paper's modified version (which we reproduce
//! op-for-op):
//!
//! * wraps the four blocks — *compute, write, read, verify* — in a loop,
//! * replaces `MPI_File_write_at`/`read_at` with their non-blocking
//!   counterparts so the **write overlaps the compute block** and the
//!   **read overlaps the verify block**,
//! * places `MPI_Wait` blocks at the end of the compute and verify blocks
//!   (avoiding write/read races),
//! * copies the data with `memcpy` at the end of the verify block (so the
//!   verify block of phase *k* can check against the data of compute *k*),
//! * keeps header I/O synchronous, and
//! * adds global broadcasts during compute and verify "for more
//!   variability".
//!
//! Per-rank op sequence of one loop:
//!
//! ```text
//! Write(header, sync)                  # header ops stay synchronous
//! IWrite(particles·38 B)  ┐ overlaps   Bcast; Compute(compute block)
//!                         ┘            Wait(write)
//! IRead(particles·38 B)   ┐ overlaps   Bcast; Compute(verify block)
//!                         ┘            Memcpy(data); Wait(read)
//! ```

use mpisim::{FileId, Op, Program, ReqTag, SimError, SimResult};

/// Bytes per HACC particle record: xx,yy,zz,vx,vy,vz,phi (7×f32) +
/// pid (i64) + mask (u16) = 38 B, matching the original benchmark.
pub const BYTES_PER_PARTICLE: f64 = 38.0;

/// Ops per loop of the asynchronous program (the sequence above).
const OPS_PER_LOOP: usize = 10;

/// HACC-IO workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct HaccConfig {
    /// Particles per rank (paper: 10⁵ for Fig. 11, 10⁶ for Fig. 5).
    pub particles_per_rank: u64,
    /// Number of loop iterations (paper: 10).
    pub loops: usize,
    /// Nominal seconds of the compute block per particle.
    pub compute_ns_per_particle: f64,
    /// Nominal seconds of the verify block per particle.
    pub verify_ns_per_particle: f64,
    /// Synchronous header bytes written each loop.
    pub header_bytes: f64,
    /// Broadcast payload injected in compute and verify blocks.
    pub bcast_bytes: f64,
}

impl Default for HaccConfig {
    fn default() -> Self {
        HaccConfig {
            particles_per_rank: 100_000,
            loops: 10,
            compute_ns_per_particle: 5_000.0,
            verify_ns_per_particle: 4_000.0,
            header_bytes: 4096.0,
            bcast_bytes: 64.0 * 1024.0,
        }
    }
}

impl HaccConfig {
    /// Data bytes written (and read back) per rank per loop.
    pub fn data_bytes(&self) -> f64 {
        self.particles_per_rank as f64 * BYTES_PER_PARTICLE
    }

    /// Nominal compute-block duration, seconds.
    pub fn compute_seconds(&self) -> f64 {
        self.particles_per_rank as f64 * self.compute_ns_per_particle * 1e-9
    }

    /// Nominal verify-block duration, seconds.
    pub fn verify_seconds(&self) -> f64 {
        self.particles_per_rank as f64 * self.verify_ns_per_particle * 1e-9
    }

    /// Rejects a config with nothing to run: the benchmark needs at least
    /// one loop.
    pub fn validate(&self) -> SimResult<()> {
        if self.loops == 0 {
            return Err(SimError::invalid_config(
                "loops",
                "need at least one loop, got 0",
            ));
        }
        Ok(())
    }

    /// Builds the per-rank program, [`Self::op`] collected. Every rank
    /// writes to its own file (individual file pointers to distinct files,
    /// the harder non-collective setting the paper uses); `file` is that
    /// rank's file.
    pub fn program(&self, file: FileId) -> Program {
        Program::from_ops((0..).map_while(|pc| self.op(file, pc)).collect())
    }

    /// Op `pc` of the per-rank program in closed form (one loop is the
    /// ten-op sequence in the module docs), or `None` past its end: a
    /// driver streams the program without building it.
    pub fn op(&self, file: FileId, pc: usize) -> Option<Op> {
        let (k, step) = (pc / OPS_PER_LOOP, pc % OPS_PER_LOOP);
        if k >= self.loops {
            return None;
        }
        let data = self.data_bytes();
        let wtag = ReqTag(2 * k as u32);
        let rtag = ReqTag(2 * k as u32 + 1);
        Some(match step {
            0 => Op::Write {
                file,
                bytes: self.header_bytes,
            },
            1 => Op::IWrite {
                file,
                bytes: data,
                tag: wtag,
            },
            2 | 6 => Op::Bcast {
                bytes: self.bcast_bytes,
            },
            3 => Op::Compute {
                seconds: self.compute_seconds(),
            },
            4 => Op::Wait { tag: wtag },
            5 => Op::IRead {
                file,
                bytes: data,
                tag: rtag,
            },
            7 => Op::Compute {
                seconds: self.verify_seconds(),
            },
            8 => Op::Memcpy { bytes: data },
            _ => Op::Wait { tag: rtag },
        })
    }

    /// The vanilla (unmodified) HACC-IO with blocking I/O, as a baseline:
    /// compute → write(sync) → read(sync) → verify.
    pub fn program_sync(&self, file: FileId) -> Program {
        let mut ops = Vec::with_capacity(self.loops * 7);
        let data = self.data_bytes();
        for _ in 0..self.loops {
            ops.push(Op::Write {
                file,
                bytes: self.header_bytes,
            });
            ops.push(Op::Bcast {
                bytes: self.bcast_bytes,
            });
            ops.push(Op::Compute {
                seconds: self.compute_seconds(),
            });
            ops.push(Op::Write { file, bytes: data });
            ops.push(Op::Read { file, bytes: data });
            ops.push(Op::Bcast {
                bytes: self.bcast_bytes,
            });
            ops.push(Op::Compute {
                seconds: self.verify_seconds(),
            });
            ops.push(Op::Memcpy { bytes: data });
        }
        Program::from_ops(ops)
    }
}

/// The actual data kernel of HACC-IO, reproduced so examples and tests move
/// real bytes: fill the particle arrays from the loop index, serialize,
/// deserialize, verify — the same cycle the benchmark times.
pub mod kernel {
    use simcore::Invariant;

    /// One HACC particle record.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Particle {
        /// Position.
        pub xx: f32,
        /// Position.
        pub yy: f32,
        /// Position.
        pub zz: f32,
        /// Velocity.
        pub vx: f32,
        /// Velocity.
        pub vy: f32,
        /// Velocity.
        pub vz: f32,
        /// Potential.
        pub phi: f32,
        /// Particle id.
        pub pid: i64,
        /// Mask bits.
        pub mask: u16,
    }

    /// Fills `n` particles from the loop index, exactly like HACC-IO's
    /// init loop (each array slot gets a value derived from its index).
    pub fn fill(n: usize, rank: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let v = i as f32;
                Particle {
                    xx: v,
                    yy: v + 1.0,
                    zz: v + 2.0,
                    vx: v + 3.0,
                    vy: v + 4.0,
                    vz: v + 5.0,
                    phi: v + 6.0,
                    pid: (rank as i64) << 32 | i as i64,
                    mask: (i % 65_536) as u16,
                }
            })
            .collect()
    }

    /// Serializes particles into the 38-byte wire format.
    pub fn serialize(ps: &[Particle]) -> Vec<u8> {
        let mut out = Vec::with_capacity(ps.len() * 38);
        for p in ps {
            for f in [p.xx, p.yy, p.zz, p.vx, p.vy, p.vz, p.phi] {
                out.extend_from_slice(&f.to_le_bytes());
            }
            out.extend_from_slice(&p.pid.to_le_bytes());
            out.extend_from_slice(&p.mask.to_le_bytes());
        }
        out
    }

    /// Deserializes the wire format back into particles.
    pub fn deserialize(bytes: &[u8]) -> Vec<Particle> {
        assert_eq!(bytes.len() % 38, 0, "not a whole number of records");
        bytes
            .chunks_exact(38)
            .map(|c| {
                let f = |o: usize| {
                    let b: [u8; 4] = c[o..o + 4].try_into().invariant("4 bytes");
                    f32::from_le_bytes(b)
                };
                let pid_bytes: [u8; 8] = c[28..36].try_into().invariant("8 bytes");
                let mask_bytes: [u8; 2] = c[36..38].try_into().invariant("2 bytes");
                Particle {
                    xx: f(0),
                    yy: f(4),
                    zz: f(8),
                    vx: f(12),
                    vy: f(16),
                    vz: f(20),
                    phi: f(24),
                    pid: i64::from_le_bytes(pid_bytes),
                    mask: u16::from_le_bytes(mask_bytes),
                }
            })
            .collect()
    }

    /// HACC-IO's verify block: element-wise comparison against the data
    /// still in memory. Returns the number of mismatching records.
    pub fn verify(expected: &[Particle], got: &[Particle]) -> usize {
        if expected.len() != got.len() {
            return expected.len().max(got.len());
        }
        expected.iter().zip(got).filter(|(a, b)| a != b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_size_is_38_bytes() {
        let ps = kernel::fill(10, 0);
        assert_eq!(kernel::serialize(&ps).len(), 380);
        assert_eq!(BYTES_PER_PARTICLE, 38.0);
    }

    #[test]
    fn kernel_roundtrip_verifies_clean() {
        let ps = kernel::fill(1000, 3);
        let bytes = kernel::serialize(&ps);
        let back = kernel::deserialize(&bytes);
        assert_eq!(kernel::verify(&ps, &back), 0);
    }

    #[test]
    fn kernel_detects_corruption() {
        let ps = kernel::fill(100, 0);
        let mut bytes = kernel::serialize(&ps);
        bytes[40] ^= 0xFF;
        let back = kernel::deserialize(&bytes);
        assert_eq!(kernel::verify(&ps, &back), 1);
    }

    #[test]
    fn kernel_detects_length_mismatch() {
        let a = kernel::fill(10, 0);
        let b = kernel::fill(8, 0);
        assert_eq!(kernel::verify(&a, &b), 10);
    }

    #[test]
    fn pids_are_rank_unique() {
        let a = kernel::fill(4, 1);
        let b = kernel::fill(4, 2);
        assert!(a.iter().zip(&b).all(|(x, y)| x.pid != y.pid));
    }

    #[test]
    fn program_structure_matches_fig12() {
        let cfg = HaccConfig {
            loops: 2,
            ..Default::default()
        };
        let p = cfg.program(FileId(0));
        assert!(p.validate().is_ok());
        assert_eq!(p.len(), 2 * 10);
        // First loop: header write, iwrite, bcast, compute, wait, iread,
        // bcast, compute(verify), memcpy, wait.
        let ops = p.ops();
        assert!(matches!(ops[0], Op::Write { .. }), "sync header first");
        assert!(matches!(ops[1], Op::IWrite { .. }));
        assert!(matches!(ops[2], Op::Bcast { .. }));
        assert!(matches!(ops[3], Op::Compute { .. }));
        assert!(matches!(ops[4], Op::Wait { .. }));
        assert!(matches!(ops[5], Op::IRead { .. }));
        assert!(matches!(ops[8], Op::Memcpy { .. }));
        assert!(matches!(ops[9], Op::Wait { .. }));
    }

    #[test]
    fn sync_program_has_no_async_ops() {
        let cfg = HaccConfig::default();
        let p = cfg.program_sync(FileId(0));
        assert!(p
            .ops()
            .iter()
            .all(|o| !matches!(o, Op::IWrite { .. } | Op::IRead { .. } | Op::Wait { .. })));
    }

    #[test]
    fn derived_quantities() {
        let cfg = HaccConfig {
            particles_per_rank: 1_000_000,
            compute_ns_per_particle: 500.0,
            ..Default::default()
        };
        assert_eq!(cfg.data_bytes(), 38e6);
        assert!((cfg.compute_seconds() - 0.5).abs() < 1e-12);
    }
}
