//! Step-function time series.
//!
//! Bandwidth plots in the paper (Figs. 2, 8–10, 13–14) are step functions:
//! a value holds from one event to the next. [`StepSeries`] records such
//! series compactly and supports the queries the figure harness needs
//! (integral, maximum, resampling, pointwise addition across series).

use crate::time::SimTime;

/// A right-open step function: `value(t) = v_k` for `t ∈ [t_k, t_{k+1})`.
/// Before the first point the value is 0.
///
/// ```
/// use simcore::{SimTime, StepSeries};
/// let mut s = StepSeries::new();
/// s.push(SimTime::from_secs(1.0), 50.0); // rate becomes 50 B/s at t=1
/// s.push(SimTime::from_secs(3.0), 0.0);  // transfer ends at t=3
/// assert_eq!(s.value_at(SimTime::from_secs(2.0)), 50.0);
/// assert_eq!(s.integral(SimTime::ZERO, SimTime::from_secs(10.0)), 100.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepSeries {
    points: Vec<(f64, f64)>, // (time_secs, value) — strictly increasing times
}

impl StepSeries {
    /// An empty series (identically zero).
    pub fn new() -> Self {
        StepSeries { points: Vec::new() }
    }

    /// An empty series with room for `points` change points.
    pub fn with_capacity(points: usize) -> Self {
        StepSeries {
            points: Vec::with_capacity(points),
        }
    }

    /// Records that the value becomes `value` at time `t`.
    ///
    /// Multiple pushes at the same timestamp keep only the last value;
    /// pushes equal to the current value are dropped (run-length coding).
    pub fn push(&mut self, t: SimTime, value: f64) {
        let ts = t.as_secs();
        if let Some(last) = self.points.last_mut() {
            assert!(
                ts >= last.0,
                "StepSeries pushes must be time-ordered: {ts} < {}",
                last.0
            );
            if ts == last.0 {
                last.1 = value;
                // A same-time overwrite can make the previous segment redundant.
                let n = self.points.len();
                if n >= 2 && self.points[n - 2].1 == value {
                    self.points.pop();
                }
                return;
            }
            if last.1 == value {
                return;
            }
        } else if value == 0.0 {
            return; // already implicitly zero
        }
        self.points.push((ts, value));
    }

    /// The value at time `t`.
    pub fn value_at(&self, t: SimTime) -> f64 {
        let ts = t.as_secs();
        match self.points.binary_search_by(|p| p.0.total_cmp(&ts)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// ∫ value dt over `[from, to)`.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        let (a, b) = (from.as_secs(), to.as_secs());
        if b <= a || self.points.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut prev_t = a;
        let mut prev_v = self.value_at(from);
        for &(t, v) in &self.points {
            if t <= a {
                continue;
            }
            if t >= b {
                break;
            }
            total += prev_v * (t - prev_t);
            prev_t = t;
            prev_v = v;
        }
        total += prev_v * (b - prev_t);
        total
    }

    /// Maximum value attained anywhere in the series.
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(0.0, f64::max)
    }

    /// Raw `(time, value)` change points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of change points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series is identically zero.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn value_lookup_is_right_open() {
        let mut s = StepSeries::new();
        s.push(t(1.0), 10.0);
        s.push(t(2.0), 0.0);
        assert_eq!(s.value_at(t(0.5)), 0.0);
        assert_eq!(s.value_at(t(1.0)), 10.0);
        assert_eq!(s.value_at(t(1.9)), 10.0);
        assert_eq!(s.value_at(t(2.0)), 0.0);
        assert_eq!(s.value_at(t(5.0)), 0.0);
    }

    #[test]
    fn integral_of_rectangle() {
        let mut s = StepSeries::new();
        s.push(t(1.0), 4.0);
        s.push(t(3.0), 0.0);
        assert!((s.integral(t(0.0), t(10.0)) - 8.0).abs() < 1e-12);
        assert!((s.integral(t(2.0), t(10.0)) - 4.0).abs() < 1e-12);
        assert!((s.integral(t(1.5), t(2.5)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn run_length_dedup() {
        let mut s = StepSeries::new();
        s.push(t(1.0), 5.0);
        s.push(t(2.0), 5.0); // no change
        s.push(t(3.0), 6.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn same_time_overwrite_keeps_last() {
        let mut s = StepSeries::new();
        s.push(t(1.0), 5.0);
        s.push(t(1.0), 7.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.value_at(t(1.0)), 7.0);
    }

    #[test]
    fn same_time_overwrite_can_collapse_to_previous() {
        let mut s = StepSeries::new();
        s.push(t(1.0), 5.0);
        s.push(t(2.0), 9.0);
        s.push(t(2.0), 5.0); // back to previous value -> segment vanishes
        assert_eq!(s.len(), 1);
        assert_eq!(s.value_at(t(3.0)), 5.0);
    }

    #[test]
    fn leading_zero_is_implicit() {
        let mut s = StepSeries::new();
        s.push(t(0.0), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn max_value_found() {
        let mut s = StepSeries::new();
        s.push(t(1.0), 3.0);
        s.push(t(2.0), 9.0);
        s.push(t(3.0), 1.0);
        assert_eq!(s.max_value(), 9.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut s = StepSeries::new();
        s.push(t(2.0), 1.0);
        s.push(t(1.0), 2.0);
    }
}
