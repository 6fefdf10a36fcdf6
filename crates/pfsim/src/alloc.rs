//! Bounded max-min ("water-filling") bandwidth allocation.
//!
//! Given flows with weights `w_i` and optional rate caps `cap_i`, and a
//! channel capacity `C`, the allocation is
//!
//! ```text
//! rate_i = min(cap_i, θ · w_i)
//! ```
//!
//! with `θ` the largest level such that `Σ rate_i ≤ C` (progressive filling).
//! This is the classic fluid model of a shared parallel file system: flows
//! below their fair share are granted their cap, the rest split the residual
//! in proportion to their weights.

use simcore::Invariant;

/// One allocation request: `count` identical flows, each with weight `weight`
/// and optional per-flow cap `cap` (bytes/s).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Demand {
    /// Number of identical flows represented by this entry.
    pub count: usize,
    /// Scheduling weight of each flow (> 0).
    pub weight: f64,
    /// Optional per-flow rate cap in bytes/s.
    pub cap: Option<f64>,
}

/// Reusable buffers for repeated [`water_fill_into`] solves.
///
/// The fluid engine re-solves the allocation on every state change; keeping
/// the sort/freeze buffers resident makes the hot path allocation-free.
#[derive(Default, Debug)]
pub struct WaterFillScratch {
    order: Vec<usize>,
    frozen: Vec<bool>,
}

/// Solves the bounded max-min allocation for `capacity` bytes/s: writes
/// each demand entry's per-flow rate into `rates` (cleared first) and
/// returns the water level θ (`f64::INFINITY` when capacity is not
/// binding), reusing `scratch` between calls.
///
/// Complexity: O(n log n) in the number of demand entries (not flows — callers
/// should aggregate identical flows into one entry). When no demand carries a
/// cap — the dominant case for synchronized bursts — the solve skips the
/// breakpoint sort entirely and runs in O(n).
///
/// ```
/// use pfsim::alloc::{water_fill_into, Demand, WaterFillScratch};
/// // A capped flow and an elastic one share a 100 B/s channel:
/// let mut rates = Vec::new();
/// water_fill_into(
///     100.0,
///     &[
///         Demand { count: 1, weight: 1.0, cap: Some(10.0) },
///         Demand { count: 1, weight: 1.0, cap: None },
///     ],
///     &mut WaterFillScratch::default(),
///     &mut rates,
/// );
/// assert_eq!(rates, vec![10.0, 90.0]); // work-conserving
/// ```
pub fn water_fill_into(
    capacity: f64,
    demands: &[Demand],
    scratch: &mut WaterFillScratch,
    rates: &mut Vec<f64>,
) -> f64 {
    assert!(capacity >= 0.0, "capacity must be non-negative");
    rates.clear();
    let mut any_cap = false;
    let mut total_weight = 0.0f64;
    for d in demands {
        assert!(d.weight > 0.0, "weights must be positive");
        if let Some(c) = d.cap {
            assert!(c >= 0.0, "caps must be non-negative");
            any_cap = true;
        }
        total_weight += d.weight * d.count as f64;
    }

    // Fast path: with no caps the first breakpoint walk iteration binds θ
    // immediately, so the sort is pure overhead. Same float operations as
    // the general path, hence bit-identical rates.
    if !any_cap {
        if demands.is_empty() {
            return f64::INFINITY;
        }
        let theta = capacity / total_weight;
        rates.extend(demands.iter().map(|d| theta * d.weight));
        return theta;
    }

    // Breakpoint of entry i: the θ at which it becomes cap-limited.
    // Sort entry indices by breakpoint ascending (uncapped = ∞ last).
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..demands.len());
    let breakpoint = |d: &Demand| d.cap.map_or(f64::INFINITY, |c| c / d.weight);
    order.sort_by(|&a, &b| {
        breakpoint(&demands[a])
            .partial_cmp(&breakpoint(&demands[b]))
            .invariant("NaN-free")
    });

    // Walk breakpoints from the smallest: entries whose breakpoint is below
    // the candidate θ are frozen at their cap.
    let mut remaining_capacity = capacity;
    let mut active_weight: f64 = total_weight;
    let mut theta = f64::INFINITY;
    let frozen = &mut scratch.frozen;
    frozen.clear();
    frozen.resize(demands.len(), false);

    for &i in order.iter() {
        let d = &demands[i];
        let bp = breakpoint(d);
        if active_weight <= 0.0 {
            break;
        }
        let candidate = remaining_capacity / active_weight;
        if candidate <= bp {
            // Every remaining entry is capacity-limited at this θ.
            theta = candidate;
            break;
        }
        // Entry i is cap-limited: freeze it and release capacity accordingly.
        if let Some(c) = d.cap {
            frozen[i] = true;
            remaining_capacity -= c * d.count as f64;
            active_weight -= d.weight * d.count as f64;
            if remaining_capacity < 0.0 {
                // Caps alone exceed capacity: scale back by re-solving with
                // caps treated as weights is not the fluid model we want —
                // instead θ must bind below this breakpoint. Undo and bind.
                remaining_capacity += c * d.count as f64;
                active_weight += d.weight * d.count as f64;
                frozen[i] = false;
                theta = remaining_capacity / active_weight;
                break;
            }
        }
    }

    rates.extend(demands.iter().enumerate().map(|(i, d)| {
        let fair = if theta.is_infinite() {
            f64::INFINITY
        } else {
            theta * d.weight
        };
        let r = match d.cap {
            Some(c) if frozen[i] || c <= fair => c,
            _ => fair,
        };
        if r.is_infinite() {
            // Uncapped flow with non-binding capacity can only happen
            // with infinite capacity; treat as "all you want".
            capacity
        } else {
            r
        }
    }));

    theta
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-flow rates of one solve with fresh buffers.
    fn water_fill(capacity: f64, demands: &[Demand]) -> Vec<f64> {
        let mut rates = Vec::new();
        water_fill_into(
            capacity,
            demands,
            &mut WaterFillScratch::default(),
            &mut rates,
        );
        rates
    }

    fn total(rates: &[f64], d: &[Demand]) -> f64 {
        rates.iter().zip(d).map(|(r, d)| r * d.count as f64).sum()
    }

    #[test]
    fn equal_split_without_caps() {
        let d = vec![
            Demand {
                count: 1,
                weight: 1.0,
                cap: None,
            },
            Demand {
                count: 1,
                weight: 1.0,
                cap: None,
            },
        ];
        let a = water_fill(100.0, &d);
        assert_eq!(a, vec![50.0, 50.0]);
    }

    #[test]
    fn weighted_split() {
        let d = vec![
            Demand {
                count: 1,
                weight: 1.0,
                cap: None,
            },
            Demand {
                count: 1,
                weight: 3.0,
                cap: None,
            },
        ];
        let a = water_fill(100.0, &d);
        assert_eq!(a, vec![25.0, 75.0]);
    }

    #[test]
    fn cap_releases_bandwidth_to_others() {
        let d = vec![
            Demand {
                count: 1,
                weight: 1.0,
                cap: Some(10.0),
            },
            Demand {
                count: 1,
                weight: 1.0,
                cap: None,
            },
        ];
        let a = water_fill(100.0, &d);
        assert_eq!(a, vec![10.0, 90.0]);
    }

    #[test]
    fn caps_below_capacity_grant_all_caps() {
        let d = vec![
            Demand {
                count: 2,
                weight: 1.0,
                cap: Some(10.0),
            },
            Demand {
                count: 1,
                weight: 1.0,
                cap: Some(20.0),
            },
        ];
        let a = water_fill(100.0, &d);
        assert_eq!(a, vec![10.0, 20.0]);
        assert!(total(&a, &d) <= 100.0);
    }

    #[test]
    fn caps_above_capacity_water_fill() {
        // Two flows capped at 80 each, capacity 100 -> each gets 50.
        let d = vec![Demand {
            count: 2,
            weight: 1.0,
            cap: Some(80.0),
        }];
        let a = water_fill(100.0, &d);
        assert_eq!(a, vec![50.0]);
    }

    #[test]
    fn mixed_caps_partial_binding() {
        // caps 10, 40, none; capacity 100.
        // flow0 -> 10 (capped); remaining 90 split between flow1 (cap 40) and
        // flow2: fair = 45 > 40, so flow1 -> 40, flow2 -> 50.
        let d = vec![
            Demand {
                count: 1,
                weight: 1.0,
                cap: Some(10.0),
            },
            Demand {
                count: 1,
                weight: 1.0,
                cap: Some(40.0),
            },
            Demand {
                count: 1,
                weight: 1.0,
                cap: None,
            },
        ];
        let a = water_fill(100.0, &d);
        assert_eq!(a, vec![10.0, 40.0, 50.0]);
    }

    #[test]
    fn grouped_counts_match_individual() {
        let grouped = vec![
            Demand {
                count: 3,
                weight: 1.0,
                cap: Some(20.0),
            },
            Demand {
                count: 1,
                weight: 2.0,
                cap: None,
            },
        ];
        let individual = vec![
            Demand {
                count: 1,
                weight: 1.0,
                cap: Some(20.0),
            },
            Demand {
                count: 1,
                weight: 1.0,
                cap: Some(20.0),
            },
            Demand {
                count: 1,
                weight: 1.0,
                cap: Some(20.0),
            },
            Demand {
                count: 1,
                weight: 2.0,
                cap: None,
            },
        ];
        let ag = water_fill(90.0, &grouped);
        let ai = water_fill(90.0, &individual);
        assert!((ag[0] - ai[0]).abs() < 1e-9);
        assert!((ag[1] - ai[3]).abs() < 1e-9);
    }

    #[test]
    fn single_flow_gets_min_of_cap_and_capacity() {
        let d = vec![Demand {
            count: 1,
            weight: 1.0,
            cap: Some(250.0),
        }];
        assert_eq!(water_fill(100.0, &d), vec![100.0]);
        let d = vec![Demand {
            count: 1,
            weight: 1.0,
            cap: Some(50.0),
        }];
        assert_eq!(water_fill(100.0, &d), vec![50.0]);
    }

    #[test]
    fn zero_capacity_yields_zero_rates() {
        let d = vec![
            Demand {
                count: 1,
                weight: 1.0,
                cap: None,
            },
            Demand {
                count: 1,
                weight: 1.0,
                cap: Some(5.0),
            },
        ];
        let a = water_fill(0.0, &d);
        assert_eq!(a, vec![0.0, 0.0]);
    }

    #[test]
    fn zero_cap_flow_is_stalled() {
        let d = vec![
            Demand {
                count: 1,
                weight: 1.0,
                cap: Some(0.0),
            },
            Demand {
                count: 1,
                weight: 1.0,
                cap: None,
            },
        ];
        let a = water_fill(100.0, &d);
        assert_eq!(a, vec![0.0, 100.0]);
    }

    #[test]
    fn empty_demands() {
        let a = water_fill(100.0, &[]);
        assert!(a.is_empty());
    }

    #[test]
    fn conservation_never_exceeds_capacity() {
        // A few handcrafted mixes.
        let cases: Vec<(f64, Vec<Demand>)> = vec![
            (
                100.0,
                vec![
                    Demand {
                        count: 5,
                        weight: 1.0,
                        cap: Some(30.0),
                    },
                    Demand {
                        count: 2,
                        weight: 4.0,
                        cap: None,
                    },
                ],
            ),
            (
                1.0,
                vec![Demand {
                    count: 100,
                    weight: 0.5,
                    cap: Some(0.01),
                }],
            ),
            (
                106e9,
                vec![
                    Demand {
                        count: 9216,
                        weight: 1.0,
                        cap: Some(5e6),
                    },
                    Demand {
                        count: 1,
                        weight: 96.0,
                        cap: None,
                    },
                ],
            ),
        ];
        for (cap, d) in cases {
            let a = water_fill(cap, &d);
            assert!(total(&a, &d) <= cap * (1.0 + 1e-9), "over capacity");
        }
    }

    #[test]
    fn into_variant_matches_allocating_variant_across_reuse() {
        // One scratch reused across solves of different shapes, including
        // the no-cap fast path and the empty case, must match a solve with
        // fresh buffers bit-for-bit.
        let cases: Vec<(f64, Vec<Demand>)> = vec![
            (100.0, vec![]),
            (
                100.0,
                vec![Demand {
                    count: 3,
                    weight: 1.5,
                    cap: None,
                }],
            ),
            (
                90.0,
                vec![
                    Demand {
                        count: 1,
                        weight: 1.0,
                        cap: Some(10.0),
                    },
                    Demand {
                        count: 2,
                        weight: 2.0,
                        cap: None,
                    },
                    Demand {
                        count: 1,
                        weight: 1.0,
                        cap: Some(40.0),
                    },
                ],
            ),
            (
                0.0,
                vec![Demand {
                    count: 4,
                    weight: 1.0,
                    cap: Some(5.0),
                }],
            ),
            (
                106e9,
                vec![
                    Demand {
                        count: 9216,
                        weight: 1.0,
                        cap: Some(5e6),
                    },
                    Demand {
                        count: 1,
                        weight: 96.0,
                        cap: None,
                    },
                ],
            ),
        ];
        let mut scratch = WaterFillScratch::default();
        let mut rates = Vec::new();
        for (cap, d) in &cases {
            let mut fresh = Vec::new();
            let theta = water_fill_into(*cap, d, &mut WaterFillScratch::default(), &mut fresh);
            assert_eq!(water_fill_into(*cap, d, &mut scratch, &mut rates), theta);
            assert_eq!(fresh, rates);
        }
    }

    #[test]
    fn work_conserving_when_demand_exceeds_capacity() {
        // If at least one uncapped flow exists, all capacity is used.
        let d = vec![
            Demand {
                count: 3,
                weight: 1.0,
                cap: Some(10.0),
            },
            Demand {
                count: 1,
                weight: 1.0,
                cap: None,
            },
        ];
        let a = water_fill(200.0, &d);
        assert!((total(&a, &d) - 200.0).abs() < 1e-9);
    }
}
