//! Virtual time for the discrete-event core.
//!
//! Time is carried as `f64` seconds inside a [`SimTime`] newtype that
//! guarantees a NaN-free total order, so it can key event queues directly.
//! Durations are plain `f64` seconds; the type only exists where ordering
//! matters.

use crate::error::Invariant;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since simulation start.
///
/// Construction rejects NaN so that `Ord` is total. Negative times are
/// permitted (useful for "before the simulation" sentinels) but the engine
/// never produces them.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);
    /// A time later than any event the engine will schedule.
    pub const FAR_FUTURE: SimTime = SimTime(f64::MAX);

    /// Creates a time from seconds. Panics on NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// The wrapped value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// `self + dur` seconds, saturating at `FAR_FUTURE` for infinite durations.
    #[inline]
    pub fn after(self, dur: f64) -> Self {
        debug_assert!(!dur.is_nan(), "duration cannot be NaN");
        debug_assert!(dur >= 0.0, "duration cannot be negative: {dur}");
        let t = self.0 + dur;
        if t.is_finite() {
            SimTime(t)
        } else {
            SimTime::FAR_FUTURE
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are NaN-free by construction.
        self.0
            .partial_cmp(&other.0)
            .invariant("SimTime is NaN-free")
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        self.after(rhs)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: f64) {
        *self = self.after(rhs);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_sane() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b - a, 1.0);
    }

    #[test]
    fn after_accumulates() {
        let t = SimTime::ZERO.after(0.5).after(0.25);
        assert!((t.as_secs() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn far_future_dominates() {
        assert!(SimTime::FAR_FUTURE > SimTime::from_secs(1e300));
    }

    #[test]
    fn after_infinite_duration_saturates() {
        let t = SimTime::from_secs(1.0).after(f64::INFINITY);
        assert_eq!(t, SimTime::FAR_FUTURE);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn add_assign_works() {
        let mut t = SimTime::ZERO;
        t += 2.0;
        assert_eq!(t.as_secs(), 2.0);
    }
}
