//! Bandwidth-limit strategies (paper Sec. IV-B).
//!
//! After rank *i* closes I/O phase *j* with required bandwidth `B_{i,j}`,
//! the strategy chooses the throughput limit applied to phase *j+1*:
//!
//! * **direct** — `B_{i,j} · tol`: aggressive, highest exploitation, risks
//!   waiting when the next phase shrinks;
//! * **up-only** — monotone non-decreasing `B_{i,j} · tol`: safe, but
//!   over-provisions after large phases;
//! * **adaptive** — `B_{i,j}·tol + (B_{i,j} − B_{i,j−1})·tol_i`: a
//!   PI-controller-like compromise;
//! * **mfu** — (paper future work, Sec. VI-B) limit from a
//!   most-frequently-used table of past required bandwidths.

/// The limit-selection strategy, including the tolerance factor(s) that
/// compensate for effects invisible at the MPI level (thread competition,
/// Sec. IV-B).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// No limiting: trace only (runs "without bandwidth limitation").
    None,
    /// `limit ← B · tol`.
    Direct {
        /// Tolerance factor (paper uses 1.1 or 2).
        tol: f64,
    },
    /// `limit ← max(limit, B · tol)`.
    UpOnly {
        /// Tolerance factor.
        tol: f64,
    },
    /// `limit ← B · tol + (B − B_prev) · tol_i` (PI-like; paper's third
    /// strategy "inspired by control theory").
    Adaptive {
        /// Proportional tolerance.
        tol: f64,
        /// Differential tolerance on the phase-to-phase change.
        tol_i: f64,
    },
    /// Most-frequently-used table (paper future work): the limit is the
    /// upper edge of the most frequently observed `B` bin, scaled by `tol`.
    Mfu {
        /// Tolerance factor applied to the MFU bin edge.
        tol: f64,
        /// Number of logarithmic bins in the table.
        bins: usize,
    },
}

impl Strategy {
    /// True when this strategy applies a limit at all.
    pub fn limits(&self) -> bool {
        !matches!(self, Strategy::None)
    }

    /// Short name used in reports and figure labels.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::None => "none",
            Strategy::Direct { .. } => "direct",
            Strategy::UpOnly { .. } => "up-only",
            Strategy::Adaptive { .. } => "adaptive",
            Strategy::Mfu { .. } => "mfu",
        }
    }
}

/// Per-rank strategy state (previous B, previous limit, MFU table).
#[derive(Clone, Debug, Default)]
pub struct StrategyState {
    prev_b: Option<f64>,
    prev_limit: Option<f64>,
    mfu_counts: Vec<u32>,
}

/// Lowest limit a strategy will ever emit, bytes/s. Guards against a
/// degenerate phase (B ≈ 0) freezing the next phase's I/O entirely.
pub const LIMIT_FLOOR: f64 = 1024.0;

impl StrategyState {
    /// Computes the limit for the next phase after observing required
    /// bandwidth `b`, updating internal state. Returns `None` for
    /// [`Strategy::None`].
    pub fn next_limit(&mut self, strategy: Strategy, b: f64) -> Option<f64> {
        let b = b.max(0.0);
        let limit = match strategy {
            Strategy::None => None,
            Strategy::Direct { tol } => Some(b * tol),
            Strategy::UpOnly { tol } => {
                let candidate = b * tol;
                Some(match self.prev_limit {
                    Some(prev) => prev.max(candidate),
                    None => candidate,
                })
            }
            Strategy::Adaptive { tol, tol_i } => {
                let diff = match self.prev_b {
                    Some(prev) => b - prev,
                    None => 0.0,
                };
                // Anti-windup: when B alternates between phase types (e.g.
                // HACC-IO's write vs read windows) the raw differential term
                // can drive the limit below the measured requirement — then
                // I/O time exceeds the window, waits appear, windows of
                // *other* ranks inflate through collectives, and the
                // feedback diverges. A PI controller must not undershoot its
                // setpoint: clamp to at least B itself.
                Some((b * tol + diff * tol_i).max(b))
            }
            Strategy::Mfu { tol, bins } => {
                if self.mfu_counts.len() != bins {
                    self.mfu_counts = vec![0; bins];
                }
                let bin = mfu_bin(b, bins);
                self.mfu_counts[bin] += 1;
                let best = self
                    .mfu_counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, c)| (**c, *i))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                Some(mfu_bin_upper(best) * tol)
            }
        };
        self.prev_b = Some(b);
        let limit = limit.map(|l| l.max(LIMIT_FLOOR));
        if limit.is_some() {
            self.prev_limit = limit;
        }
        limit
    }

    /// The most recent limit emitted, if any.
    pub fn current_limit(&self) -> Option<f64> {
        self.prev_limit
    }
}

/// Logarithmic binning for the MFU table: bin k covers
/// `[2^(k+9), 2^(k+10))` bytes/s, clamped to the table.
fn mfu_bin(b: f64, bins: usize) -> usize {
    if b < 1024.0 {
        return 0;
    }
    let k = (b / 1024.0).log2().floor() as usize;
    k.min(bins - 1)
}

fn mfu_bin_upper(bin: usize) -> f64 {
    1024.0 * 2f64.powi(bin as i32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_scales_by_tol() {
        let mut s = StrategyState::default();
        assert_eq!(
            s.next_limit(Strategy::Direct { tol: 2.0 }, 100e6),
            Some(200e6)
        );
        assert_eq!(
            s.next_limit(Strategy::Direct { tol: 2.0 }, 50e6),
            Some(100e6)
        );
    }

    #[test]
    fn up_only_never_decreases() {
        let st = Strategy::UpOnly { tol: 1.1 };
        let mut s = StrategyState::default();
        let l1 = s.next_limit(st, 100e6).unwrap();
        let l2 = s.next_limit(st, 10e6).unwrap();
        let l3 = s.next_limit(st, 200e6).unwrap();
        assert!((l1 - 110e6).abs() < 1.0);
        assert_eq!(l2, l1, "smaller B must not lower the limit");
        assert!((l3 - 220e6).abs() < 1.0);
    }

    #[test]
    fn adaptive_tracks_changes() {
        let st = Strategy::Adaptive {
            tol: 1.1,
            tol_i: 0.5,
        };
        let mut s = StrategyState::default();
        let l1 = s.next_limit(st, 100.0e6).unwrap();
        assert!((l1 - 110.0e6).abs() < 1.0, "first phase has no diff term");
        let l2 = s.next_limit(st, 120.0e6).unwrap();
        // 120·1.1 + 20·0.5 = 132 + 10 = 142 MB/s.
        assert!((l2 - 142.0e6).abs() < 1.0, "{l2}");
        let l3 = s.next_limit(st, 80.0e6).unwrap();
        // 80·1.1 + (−40)·0.5 = 68 MB/s < B: anti-windup clamps to B = 80.
        assert!((l3 - 80.0e6).abs() < 1.0, "{l3}");
    }

    #[test]
    fn adaptive_anti_windup_clamps_undershoot() {
        let st = Strategy::Adaptive {
            tol: 1.1,
            tol_i: 0.5,
        };
        let mut s = StrategyState::default();
        s.next_limit(st, 12.7e6); // read-window B
                                  // Write-window B much lower: raw formula would go negative
                                  // (3.8·1.1 + (3.8−12.7)·0.5 = −0.27 MB/s) — must clamp to B.
        let l = s.next_limit(st, 3.8e6).unwrap();
        assert!((l - 3.8e6).abs() < 1.0, "clamped limit {l}");
        assert!(l > LIMIT_FLOOR);
    }

    #[test]
    fn none_strategy_never_limits() {
        let mut s = StrategyState::default();
        assert_eq!(s.next_limit(Strategy::None, 1e9), None);
        assert_eq!(s.current_limit(), None);
    }

    #[test]
    fn floor_prevents_zero_limits() {
        let mut s = StrategyState::default();
        let l = s.next_limit(Strategy::Direct { tol: 1.1 }, 0.0).unwrap();
        assert_eq!(l, LIMIT_FLOOR);
    }

    #[test]
    fn mfu_converges_to_common_bin() {
        let st = Strategy::Mfu { tol: 1.0, bins: 32 };
        let mut s = StrategyState::default();
        // Mostly ~1 MB/s with one outlier at 1 GB/s.
        for _ in 0..10 {
            s.next_limit(st, 1.0e6);
        }
        s.next_limit(st, 1.0e9);
        let l = s.next_limit(st, 1.0e6).unwrap();
        // 1 MB/s falls in bin ⌊log2(1e6/1024)⌋ = 9 -> upper edge 2^10·1024 ≈ 1.05e6.
        assert!(l < 3e6, "MFU should stay near the common value, got {l}");
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::None.name(), "none");
        assert_eq!(Strategy::Direct { tol: 1.0 }.name(), "direct");
        assert_eq!(Strategy::UpOnly { tol: 1.0 }.name(), "up-only");
        assert_eq!(
            Strategy::Adaptive {
                tol: 1.0,
                tol_i: 0.0
            }
            .name(),
            "adaptive"
        );
        assert_eq!(Strategy::Mfu { tol: 1.0, bins: 8 }.name(), "mfu");
    }

    #[test]
    fn adaptive_equals_direct_when_tol_i_zero() {
        let mut a = StrategyState::default();
        let mut d = StrategyState::default();
        for b in [10e6, 50e6, 30e6, 90e6] {
            let la = a.next_limit(
                Strategy::Adaptive {
                    tol: 1.3,
                    tol_i: 0.0,
                },
                b,
            );
            let ld = d.next_limit(Strategy::Direct { tol: 1.3 }, b);
            assert_eq!(la, ld);
        }
    }
}
