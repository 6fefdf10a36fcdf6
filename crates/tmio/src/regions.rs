//! Application-level aggregation of rank metrics (paper Sec. IV-C, Eq. 3).
//!
//! Each rank-phase contributes an interval `[ts_{i,j}, te_{i,j})` carrying a
//! value (its required bandwidth `B_{i,j}`, its limit, or its throughput).
//! The application-level metric `B_r` in region `r` is the sum of the values
//! whose interval contains the region start — found with a sweep line over
//! the sorted start/end times, exactly as Fig. 4 illustrates.

use simcore::{Invariant, SimTime, StepSeries};

/// One rank-phase interval with its metric value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Start of the I/O window (first submit), seconds.
    pub ts: f64,
    /// End of the window (matching wait reached / queue drained), seconds.
    pub te: f64,
    /// The metric value held over `[ts, te)` (e.g. `B_{i,j}` in bytes/s).
    pub value: f64,
}

/// The Eq. 3 sweep line over rank-phase intervals, kept incrementally: two
/// append-only edge logs in simulation time order, accepting intervals *as
/// they open and close* and serving the aggregated step series of `Σ value`
/// over the overlap regions from a cache invalidated on close. Intervals
/// are right-open, so one that ends exactly where another starts never
/// shares a region with it; zero-length intervals add no edge.
///
/// * [`IncrementalSweep::open`] appends the start edge `(ts, ·)` when an
///   interval opens; its value is still unknown, so the edge is a hole until
///   [`IncrementalSweep::close`] fills it in and appends the end edge
///   `(te, −value)`. A start edge that is never closed (a dropped
///   [`Opened`], a zero-length interval) stays a hole and is skipped.
/// * A caller whose hooks fire in nondecreasing time — the tracer — keeps
///   both logs sorted for free, so a query is one streaming merge of the two
///   logs: O(n), no sort.
/// * [`IncrementalSweep::push`] is `open` followed by `close`, for callers
///   that hold closed intervals in any order. An append that goes back in
///   time (one compare with the last edge) marks the sweep unordered; a
///   query then sorts copies of both logs into the oracle's edge order
///   before the same streaming pass, O(n log n).
///
/// The merge sums each region's edges in a fixed order — by time in IEEE
/// total order, then by delta — and snaps cancellation residue below a
/// guard *relative* to the largest value to zero, so the output is
/// bit-identical to a from-scratch sort-and-sweep over the closed
/// intervals (the oracle in `tests/oracle`, property-tested in
/// `tests/sweep_prop.rs`).
#[derive(Clone, Debug)]
pub struct IncrementalSweep {
    /// Start edges `(ts, value)` in `open` order; `value` is [`HOLE`] until
    /// the interval closes with positive length.
    starts: Vec<(f64, f64)>,
    /// End edges `(te, −value)` in `close` order.
    ends: Vec<(f64, f64)>,
    /// Whether every append so far kept its log in time order.
    ordered: bool,
    /// Largest `|value|` ever closed, including zero-length intervals (the
    /// oracle computes its residue scale over *all* intervals).
    max_abs: f64,
    /// Cached aggregation; `None` after a close.
    cache: Option<StepSeries>,
}

/// The value of a start edge whose interval has not closed (values are
/// NaN-free, so NaN is free to mark it).
const HOLE: f64 = f64::NAN;

/// An interval opened by [`IncrementalSweep::open`], to be passed back to
/// [`IncrementalSweep::close`] on the same sweep. Dropping it instead leaves
/// the interval a hole.
#[derive(Debug)]
#[must_use = "an interval that is never closed contributes nothing"]
pub struct Opened(usize);

impl IncrementalSweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty sweep pre-sized for `intervals` intervals.
    pub fn with_capacity(intervals: usize) -> Self {
        IncrementalSweep {
            starts: Vec::with_capacity(intervals),
            ends: Vec::with_capacity(intervals),
            ordered: true,
            max_abs: 0.0,
            cache: None,
        }
    }

    /// Opens an interval at `ts`, appending its start edge. The cached
    /// series stays valid: the edge is a hole until [`Self::close`].
    pub fn open(&mut self, ts: f64) -> Opened {
        assert!(!ts.is_nan(), "interval must be NaN-free");
        append(&mut self.starts, &mut self.ordered, (ts, HOLE));
        Opened(self.starts.len() - 1)
    }

    /// Closes `opened` at `te` with `value` held over `[ts, te)`,
    /// invalidating the cached series. A zero-length interval adds no edge
    /// but still counts toward the residue scale.
    pub fn close(&mut self, opened: Opened, te: f64, value: f64) {
        assert!(!te.is_nan() && !value.is_nan(), "interval must be NaN-free");
        let start = &mut self.starts[opened.0];
        debug_assert!(start.1.is_nan(), "interval closed twice");
        debug_assert!(te >= start.0, "interval must not be reversed");
        self.max_abs = self.max_abs.max(value.abs());
        if te > start.0 {
            start.1 = value;
            append(&mut self.ends, &mut self.ordered, (te, -value));
        }
        self.cache = None;
    }

    /// Accepts one closed interval: [`Self::open`] then [`Self::close`].
    pub fn push(&mut self, iv: Interval) {
        let opened = self.open(iv.ts);
        self.close(opened, iv.te, iv.value);
    }

    /// The aggregated step series over every interval closed so far,
    /// rebuilt only when a close invalidated the cache.
    pub fn series(&mut self) -> &StepSeries {
        if self.cache.is_none() {
            self.cache = Some(self.rebuild());
        }
        self.cache.as_ref().invariant("cache just rebuilt")
    }

    /// Finalizes into the aggregated series.
    pub fn into_series(mut self) -> StepSeries {
        match self.cache.take() {
            Some(s) => s,
            None => self.rebuild(),
        }
    }

    /// Whether every append so far arrived in time order, so a query has
    /// nothing to sort.
    #[cfg(test)]
    pub(crate) fn is_time_ordered(&self) -> bool {
        self.ordered
    }

    fn rebuild(&self) -> StepSeries {
        if self.ordered {
            return accumulate(&self.starts, &self.ends, self.max_abs);
        }
        let sorted = |log: &[(f64, f64)]| {
            let mut log = log.to_vec();
            log.sort_unstable_by(by_edge);
            log
        };
        accumulate(&sorted(&self.starts), &sorted(&self.ends), self.max_abs)
    }
}

impl Default for IncrementalSweep {
    fn default() -> Self {
        Self::new()
    }
}

/// Appends `edge` to `log`, clearing `ordered` if it goes back in time.
fn append(log: &mut Vec<(f64, f64)>, ordered: &mut bool, edge: (f64, f64)) {
    if log.last().is_some_and(|e| e.0.total_cmp(&edge.0).is_gt()) {
        *ordered = false;
    }
    log.push(edge);
}

/// The Eq. 3 accumulation loop over time-sorted start and end edge logs
/// (holes in `starts` skipped), merged in one streaming pass. Each region
/// collects every edge whose time `==` its own (so ±0.0 share one region,
/// stamped with the first, −0.0) and sums them in the oracle's order: by
/// time in IEEE total order, then by delta.
fn accumulate(starts: &[(f64, f64)], ends: &[(f64, f64)], max_abs: f64) -> StepSeries {
    let residue = 1e-9 * max_abs;
    let mut series = StepSeries::with_capacity(starts.len() + ends.len());
    let mut buf: Vec<f64> = Vec::new();
    let (mut i, mut j) = (0, 0);
    let mut sum: f64 = 0.0;
    // Start of the region being summed; NaN before the first edge.
    let mut region = f64::NAN;
    loop {
        while i < starts.len() && starts[i].1.is_nan() {
            i += 1;
        }
        // The next edge time; NaN once both logs are consumed.
        let at = match (starts.get(i), ends.get(j)) {
            (Some(s), Some(e)) if s.0.total_cmp(&e.0).is_le() => s.0,
            (_, Some(e)) => e.0,
            (Some(s), None) => s.0,
            (None, None) => f64::NAN,
        };
        if at != region {
            if !region.is_nan() {
                if sum.abs() <= residue {
                    sum = 0.0;
                }
                series.push(SimTime::from_secs(region), sum);
            }
            if at.is_nan() {
                return series;
            }
            region = at;
        }
        // Every edge at exactly `at`.
        let bits = at.to_bits();
        let (i0, j0) = (i, j);
        while i < starts.len() && starts[i].0.to_bits() == bits {
            i += 1;
        }
        while j < ends.len() && ends[j].0.to_bits() == bits {
            j += 1;
        }
        sum = add_ascending(sum, &starts[i0..i], &ends[j0..j], &mut buf);
    }
}

/// Adds the deltas of one instant's start and end edges to `sum` in
/// ascending IEEE total order, skipping holes. A lone edge (the common
/// case) needs no ordering, and two runs already in delta order (as a
/// sorted copy leaves them) merge directly; any other instant's deltas
/// are ordered by binary insertion into `buf` (an instant holds at most a
/// few edges per rank).
fn add_ascending(
    mut sum: f64,
    starts: &[(f64, f64)],
    ends: &[(f64, f64)],
    buf: &mut Vec<f64>,
) -> f64 {
    let ascending = |r: &[(f64, f64)]| r.is_sorted_by(|x, y| x.1.total_cmp(&y.1).is_le());
    match (starts, ends) {
        // A run never starts with a hole: `accumulate` skips those.
        ([(_, d)], []) | ([], [(_, d)]) => sum + d,
        _ if ascending(starts) && ascending(ends) => {
            let (mut i, mut j) = (0, 0);
            while i < starts.len() || j < ends.len() {
                let d = if j == ends.len()
                    || (i < starts.len() && starts[i].1.total_cmp(&ends[j].1).is_le())
                {
                    i += 1;
                    starts[i - 1].1
                } else {
                    j += 1;
                    ends[j - 1].1
                };
                // Holes (positive NaN) sort after every delta.
                if !d.is_nan() {
                    sum += d;
                }
            }
            sum
        }
        _ => {
            buf.clear();
            for &(_, d) in starts.iter().chain(ends) {
                if !d.is_nan() {
                    let k = buf.partition_point(|x| x.total_cmp(&d).is_le());
                    buf.insert(k, d);
                }
            }
            buf.iter().fold(sum, |s, d| s + d)
        }
    }
}

/// Edge order of the oracle: time, then delta, in IEEE total order.
fn by_edge(a: &(f64, f64), b: &(f64, f64)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The series of `intervals` pushed in order.
    fn sweep(intervals: &[Interval]) -> StepSeries {
        let mut inc = IncrementalSweep::with_capacity(intervals.len());
        for &iv in intervals {
            inc.push(iv);
        }
        inc.into_series()
    }

    /// The Fig. 4 worked example: three ranks, five regions.
    ///
    /// Windows (chosen to match the figure's ordering):
    ///   B_{1,0}: [0, 4)  value 1
    ///   B_{2,0}: [1, 6)  value 2
    ///   B_{0,0}: [2, 8)  value 4
    /// Regions: [0,1) → 1; [1,2) → 3 (B1+B2); [2,4) → 7 (all);
    ///          [4,6) → 6 (B0+B2); [6,8) → 4 (B0); after 8 → 0.
    #[test]
    fn figure4_worked_example() {
        let intervals = [
            Interval {
                ts: 0.0,
                te: 4.0,
                value: 1.0,
            },
            Interval {
                ts: 1.0,
                te: 6.0,
                value: 2.0,
            },
            Interval {
                ts: 2.0,
                te: 8.0,
                value: 4.0,
            },
        ];
        let s = sweep(&intervals);
        assert_eq!(s.value_at(t(0.5)), 1.0);
        assert_eq!(s.value_at(t(1.5)), 3.0);
        assert_eq!(s.value_at(t(3.0)), 7.0);
        assert_eq!(s.value_at(t(5.0)), 6.0);
        assert_eq!(s.value_at(t(7.0)), 4.0);
        assert_eq!(s.value_at(t(9.0)), 0.0);
        // Five change points before the trailing zero, plus the close.
        assert_eq!(s.len(), 6);
        assert_eq!(sweep(&intervals).max_value(), 7.0);
    }

    #[test]
    fn empty_input_is_zero() {
        let s = sweep(&[]);
        assert!(s.is_empty());
        assert_eq!(sweep(&[]).max_value(), 0.0);
    }

    #[test]
    fn disjoint_intervals_do_not_sum() {
        let intervals = [
            Interval {
                ts: 0.0,
                te: 1.0,
                value: 5.0,
            },
            Interval {
                ts: 2.0,
                te: 3.0,
                value: 7.0,
            },
        ];
        let s = sweep(&intervals);
        assert_eq!(s.value_at(t(0.5)), 5.0);
        assert_eq!(s.value_at(t(1.5)), 0.0);
        assert_eq!(s.value_at(t(2.5)), 7.0);
        assert_eq!(sweep(&intervals).max_value(), 7.0);
    }

    #[test]
    fn touching_intervals_do_not_overlap() {
        // Right-open: [0,2) and [2,4) never coexist.
        let intervals = [
            Interval {
                ts: 0.0,
                te: 2.0,
                value: 3.0,
            },
            Interval {
                ts: 2.0,
                te: 4.0,
                value: 4.0,
            },
        ];
        let s = sweep(&intervals);
        assert_eq!(s.value_at(t(2.0)), 4.0);
        assert_eq!(sweep(&intervals).max_value(), 4.0);
    }

    #[test]
    fn identical_intervals_stack() {
        let intervals = [
            Interval {
                ts: 1.0,
                te: 2.0,
                value: 2.5,
            },
            Interval {
                ts: 1.0,
                te: 2.0,
                value: 2.5,
            },
        ];
        assert_eq!(sweep(&intervals).max_value(), 5.0);
    }

    #[test]
    fn zero_length_interval_ignored() {
        let intervals = [Interval {
            ts: 1.0,
            te: 1.0,
            value: 100.0,
        }];
        let s = sweep(&intervals);
        assert_eq!(s.max_value(), 0.0);
    }

    #[test]
    fn tiny_magnitudes_survive_the_residue_guard() {
        // Values far below the old absolute 1e-9 cutoff (e.g. normalized or
        // per-byte metrics): the guard must scale with the input instead of
        // zeroing the whole sweep.
        let intervals = [
            Interval {
                ts: 0.0,
                te: 2.0,
                value: 1e-12,
            },
            Interval {
                ts: 1.0,
                te: 3.0,
                value: 3e-12,
            },
        ];
        let s = sweep(&intervals);
        assert_eq!(s.value_at(t(0.5)), 1e-12);
        assert_eq!(s.value_at(t(1.5)), 4e-12);
        assert_eq!(s.value_at(t(2.5)), 3e-12);
        assert_eq!(s.value_at(t(4.0)), 0.0);
        assert_eq!(sweep(&intervals).max_value(), 4e-12);
    }

    #[test]
    fn residue_guard_scales_with_magnitude() {
        // Large stacked values cancel with FP residue well above 1e-9
        // absolute; the relative guard still snaps the tail to exactly zero.
        let mut intervals = Vec::new();
        for i in 0..10 {
            intervals.push(Interval {
                ts: i as f64 * 0.1,
                te: 10.0 + i as f64 * 0.7,
                value: 1e10 + (i as f64) * 0.3 + 0.1,
            });
        }
        let s = sweep(&intervals);
        assert_eq!(s.value_at(t(20.0)), 0.0, "tail must be exactly zero");
    }

    #[test]
    fn sweep_integral_equals_sum_of_areas() {
        let intervals = [
            Interval {
                ts: 0.0,
                te: 3.0,
                value: 2.0,
            },
            Interval {
                ts: 1.0,
                te: 2.0,
                value: 10.0,
            },
            Interval {
                ts: 2.5,
                te: 4.0,
                value: 4.0,
            },
        ];
        let s = sweep(&intervals);
        let expected: f64 = intervals.iter().map(|iv| (iv.te - iv.ts) * iv.value).sum();
        let got = s.integral(t(0.0), t(10.0));
        assert!((got - expected).abs() < 1e-9);
    }
}
