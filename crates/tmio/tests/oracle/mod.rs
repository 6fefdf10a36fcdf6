//! The from-scratch Eq. 3 oracle: collect every interval's edges, sort
//! them, sweep once. [`tmio::IncrementalSweep`] claims bit-identical output
//! to this; `sweep_prop.rs` checks the claim.

use simcore::{SimTime, StepSeries};
use tmio::Interval;

/// Sweep-line aggregation (Eq. 3): returns the step series of
/// `Σ value` over the overlap regions. Zero-length intervals are ignored
/// (they would contribute to a region of measure zero).
pub fn sweep(intervals: &[Interval]) -> StepSeries {
    let mut events: Vec<(f64, f64)> = Vec::with_capacity(intervals.len() * 2);
    for iv in intervals {
        assert!(
            !iv.ts.is_nan() && !iv.te.is_nan() && !iv.value.is_nan(),
            "interval must be NaN-free"
        );
        debug_assert!(iv.te >= iv.ts, "interval must not be reversed");
        if iv.te > iv.ts {
            events.push((iv.ts, iv.value));
            events.push((iv.te, -iv.value));
        }
    }
    // Sort by time; at equal times apply removals before additions so that a
    // region never double-counts an interval that ends exactly where another
    // starts (intervals are right-open). IEEE total order makes the result
    // independent of input order: -0.0 sorts before 0.0 (the two still share
    // one region below, stamped -0.0).
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    // Residue guard scale: cancellation residue is proportional to the
    // magnitudes that were summed, so the threshold must be *relative* to
    // the largest interval value. An absolute cutoff would silently zero
    // legitimate small-magnitude metrics (normalized or per-byte values
    // below the cutoff).
    let max_abs = intervals
        .iter()
        .map(|iv| iv.value.abs())
        .fold(0.0, f64::max);
    let residue = 1e-9 * max_abs;
    let mut series = StepSeries::new();
    let mut sum = 0.0;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            sum += events[i].1;
            i += 1;
        }
        // Guard tiny FP residue at the end of the sweep.
        if sum.abs() <= residue {
            sum = 0.0;
        }
        series.push(SimTime::from_secs(t), sum);
    }
    series
}
