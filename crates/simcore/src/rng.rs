//! Deterministic random-number streams.
//!
//! Every stochastic element of the simulation (compute-phase jitter, PFS
//! capacity noise, workload variability) draws from a stream derived from a
//! master seed plus a stable stream identifier, so any figure can be
//! regenerated bit-identically while streams stay statistically independent.

/// The simulator's one generator: xoshiro256++, with its state expanded
/// from a 64-bit seed through SplitMix64 so that similar seeds produce
/// uncorrelated streams. Build one with [`stream_rng`].
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

/// One SplitMix64 step: advances `state` and returns the mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SmallRng {
    #[inline]
    fn seed_from_u64(mut seed: u64) -> Self {
        let s = [
            splitmix64(&mut seed),
            splitmix64(&mut seed),
            splitmix64(&mut seed),
            splitmix64(&mut seed),
        ];
        SmallRng { s }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` from 53 random mantissa bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi]`: `lo + next_f64()·(hi − lo)`. Panics if
    /// `lo > hi`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "cannot sample empty range");
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform in `0..n` by a modulo draw on 64 fresh bits: the bias is
    /// below n / 2^64, far below what any check here can resolve. Panics
    /// if `n` is 0.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample empty range");
        self.next_u64() % n
    }
}

/// Mixes a master seed with a stream identifier into an independent RNG.
///
/// Uses SplitMix64 finalization over the pair, which is the standard way to
/// derive well-distributed per-stream seeds from sequential ids.
#[inline]
pub fn stream_rng(master_seed: u64, stream: u64) -> SmallRng {
    let mut z = master_seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    SmallRng::seed_from_u64(z)
}

/// Derives a stream id from rank and phase indices (stable pairing).
pub fn rank_phase_stream(rank: usize, phase: usize) -> u64 {
    (rank as u64) << 32 | (phase as u64 & 0xFFFF_FFFF)
}

/// Multiplicative noise models applied to nominal durations or capacities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Noise {
    /// No noise: the nominal value is used unchanged.
    None,
    /// Uniform relative jitter: value × U(1−a, 1+a).
    UniformRel(f64),
    /// Occasional deep dips: with probability `prob` the factor is `factor`
    /// (≪ 1), otherwise 1. Models production-cluster I/O interference —
    /// another job's burst stealing most of the PFS (the paper's Fig. 14
    /// variability; cross-application interference can reach 200×).
    Spike {
        /// Probability of a dip per draw.
        prob: f64,
        /// Capacity factor during a dip.
        factor: f64,
    },
    /// Uniform relative jitter quantized to `levels` discrete factors. Used
    /// at large rank counts so synchronized ranks collapse into a bounded
    /// number of PFS flow groups (see DESIGN.md §4).
    QuantizedRel {
        /// Half-width of the relative jitter band.
        amplitude: f64,
        /// Number of discrete factor levels across the band.
        levels: u32,
    },
}

impl Noise {
    /// Applies the noise model to `nominal`, drawing from `rng`.
    /// The result is clamped to be non-negative.
    pub fn apply(self, nominal: f64, rng: &mut SmallRng) -> f64 {
        let factor = self.factor(rng);
        (nominal * factor).max(0.0)
    }

    /// Draws just the multiplicative factor.
    pub fn factor(self, rng: &mut SmallRng) -> f64 {
        match self {
            Noise::None => 1.0,
            Noise::UniformRel(a) => {
                debug_assert!((0.0..1.0).contains(&a));
                1.0 + rng.uniform(-a, a)
            }
            Noise::Spike { prob, factor } => {
                debug_assert!((0.0..=1.0).contains(&prob));
                if rng.next_f64() < prob {
                    factor
                } else {
                    1.0
                }
            }
            Noise::QuantizedRel { amplitude, levels } => {
                debug_assert!(levels >= 1);
                let level = rng.below(u64::from(levels));
                if levels == 1 {
                    1.0
                } else {
                    let frac = level as f64 / (levels - 1) as f64; // 0..=1
                    1.0 - amplitude + 2.0 * amplitude * frac
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = stream_rng(42, 7);
        let mut b = stream_rng(42, 7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_differ_by_id() {
        let mut a = stream_rng(42, 7);
        let mut b = stream_rng(42, 8);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn streams_differ_by_seed() {
        let mut a = stream_rng(1, 7);
        let mut b = stream_rng(2, 7);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn draws_stay_in_their_ranges() {
        let mut r = stream_rng(42, 0);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.uniform(-0.25, 0.25);
            assert!((-0.25..=0.25).contains(&y));
            let k = r.below(9);
            assert!(k < 9);
        }
    }

    #[test]
    fn int_range_covers_all_levels() {
        let mut r = stream_rng(1, 0);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_mean_is_centered() {
        let mut r = stream_rng(5, 0);
        let n = 50_000;
        let mean = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn rank_phase_stream_is_injective_for_small_values() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for rank in 0..64 {
            for phase in 0..64 {
                assert!(seen.insert(rank_phase_stream(rank, phase)));
            }
        }
    }

    #[test]
    fn none_noise_is_identity() {
        let mut rng = stream_rng(0, 0);
        assert_eq!(Noise::None.apply(3.5, &mut rng), 3.5);
    }

    #[test]
    fn uniform_noise_bounded() {
        let mut rng = stream_rng(0, 1);
        for _ in 0..1000 {
            let v = Noise::UniformRel(0.1).apply(10.0, &mut rng);
            assert!((9.0..=11.0).contains(&v), "out of band: {v}");
        }
    }

    #[test]
    fn quantized_levels_are_discrete() {
        use std::collections::BTreeSet;
        let mut rng = stream_rng(0, 3);
        let noise = Noise::QuantizedRel {
            amplitude: 0.2,
            levels: 5,
        };
        let mut seen = BTreeSet::new();
        for _ in 0..1000 {
            let f = noise.factor(&mut rng);
            seen.insert((f * 1e9).round() as i64);
        }
        assert!(
            seen.len() <= 5,
            "expected at most 5 levels, got {}",
            seen.len()
        );
        assert!(seen.len() >= 4, "expected the levels to be exercised");
    }

    #[test]
    fn spike_dips_at_expected_rate() {
        let mut rng = stream_rng(0, 5);
        let noise = Noise::Spike {
            prob: 0.25,
            factor: 0.05,
        };
        let n = 10_000;
        let dips = (0..n).filter(|_| noise.factor(&mut rng) < 0.5).count();
        let rate = dips as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "dip rate {rate}");
    }

    #[test]
    fn quantized_single_level_is_identity() {
        let mut rng = stream_rng(0, 4);
        let noise = Noise::QuantizedRel {
            amplitude: 0.2,
            levels: 1,
        };
        assert_eq!(noise.factor(&mut rng), 1.0);
    }

    /// 64-bit FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
        words
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
    }

    /// Pins every stream the simulator draws: 4096 draws of each sampling
    /// call the code makes, from a noise stream and a fault-plan stream,
    /// folded over their raw bits. Any change to the generator, its seeding
    /// or a sampling formula moves a digest.
    #[test]
    fn stream_digests_are_pinned() {
        const DRAWS: usize = 4096;
        type Draw = fn(&mut SmallRng) -> u64;
        fn noise(n: Noise, r: &mut SmallRng) -> u64 {
            n.factor(r).to_bits()
        }
        let calls: [(&str, Draw); 11] = [
            ("next_u64", |r| r.next_u64()),
            ("gen_f64", |r| r.next_f64().to_bits()),
            ("range_f64", |r| r.uniform(-0.1, 0.1).to_bits()),
            ("range_u32", |r| r.below(7)),
            ("range_usize", |r| r.below(5)),
            ("none", |r| noise(Noise::None, r)),
            ("uniform", |r| noise(Noise::UniformRel(0.1), r)),
            ("spike", |r| {
                let n = Noise::Spike {
                    prob: 0.25,
                    factor: 0.05,
                };
                noise(n, r)
            }),
            ("quantized", |r| {
                let n = Noise::QuantizedRel {
                    amplitude: 0.2,
                    levels: 5,
                };
                noise(n, r)
            }),
            ("quantized1", |r| {
                let n = Noise::QuantizedRel {
                    amplitude: 0.2,
                    levels: 1,
                };
                noise(n, r)
            }),
            ("io_error", |r| {
                let model = crate::IoErrorModel {
                    prob: 0.3,
                    kinds: vec![crate::IoErrorKind::Io, crate::IoErrorKind::Stale],
                };
                model.draw(r).map_or(0, |k| k.code() as u64)
            }),
        ];
        let plan = crate::FaultPlan {
            seed: 11,
            ..crate::FaultPlan::default()
        };
        let sources: [(&str, &dyn Fn() -> SmallRng); 2] = [
            ("noise", &|| stream_rng(2024, rank_phase_stream(3, 9))),
            ("fault", &|| plan.stream(5)),
        ];
        let mut got = Vec::new();
        for (source, fresh) in sources {
            for (call, draw) in calls {
                let mut rng = fresh();
                let d = fnv1a((0..DRAWS).map(|_| draw(&mut rng)));
                got.push(format!("{source}.{call} {d:016x}"));
            }
        }
        let want = [
            "noise.next_u64 cab82c3eb6f72be4",
            "noise.gen_f64 f9835cb62b1515d1",
            "noise.range_f64 1ecaa244812aa4f4",
            "noise.range_u32 e75604f8a7575784",
            "noise.range_usize 5b78eb37b6195962",
            "noise.none 13d3bafd83932325",
            "noise.uniform 3847920e6e34b235",
            "noise.spike 83c5b649aab70d31",
            "noise.quantized 0f130ac55c0af4d6",
            "noise.quantized1 13d3bafd83932325",
            "noise.io_error 243fa8a2995919b4",
            "fault.next_u64 70ae2e1485991aee",
            "fault.gen_f64 8b2f62a30ff03d31",
            "fault.range_f64 d8382165456ddd92",
            "fault.range_u32 23c36a95017359a0",
            "fault.range_usize 55bbbb4a02a3ec05",
            "fault.none 13d3bafd83932325",
            "fault.uniform e2bd8c1633a89429",
            "fault.spike 6a874e47563d68e5",
            "fault.quantized 87f14f2365b9aa1c",
            "fault.quantized1 13d3bafd83932325",
            "fault.io_error 715b399404b79265",
        ];
        assert_eq!(got, want, "fresh table:\n{}", got.join("\n"));
    }
}
