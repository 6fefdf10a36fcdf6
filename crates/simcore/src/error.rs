//! The typed error hierarchy of the simulation stack.
//!
//! Library-path failures surface as a [`SimError`] instead of a panic so
//! supervisors (the session layer, the sweep registry, CI harnesses) can
//! diagnose and recover: an invalid configuration is rejected before the
//! run starts, a run that stops making progress fails with a
//! [`StallSnapshot`] of everything still pending, and internal invariant
//! violations are clearly labelled as bugs.
//!
//! Panics remain reserved for *internal invariants* — states the engine
//! can only reach through a bug, never through user input. Those sites use
//! [`Invariant::invariant`] rather than `unwrap`/`expect`, which the
//! library crates deny via `clippy::unwrap_used`/`clippy::expect_used`, so
//! every remaining panic site is explicit and auditable.

use std::fmt;

/// Result alias used across the simulation crates.
pub type SimResult<T> = Result<T, SimError>;

/// A diagnostic snapshot taken when a run stops making progress: what was
/// pending, how deep the event queue was, and when anything last advanced.
///
/// Attached to [`SimError::Stalled`] (the watchdog tripped while events
/// were still firing) and [`SimError::Deadlock`] (the queue drained with
/// ranks still blocked).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StallSnapshot {
    /// Virtual time when the run was failed, seconds.
    pub at: f64,
    /// Virtual time of the last observed progress (bytes moved, an op
    /// retired, a rank finished), seconds.
    pub last_advance: f64,
    /// Events processed since the last observed progress.
    pub futile_events: u64,
    /// Events still pending when the snapshot was taken.
    pub queue_depth: usize,
    /// Human-readable state of every rank that is not done.
    pub blocked_ranks: Vec<String>,
    /// Human-readable state of every in-flight I/O operation.
    pub pending_ops: Vec<String>,
}

impl fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={:.6} s, last advance t={:.6} s, {} futile event(s), queue depth {}",
            self.at, self.last_advance, self.futile_events, self.queue_depth
        )?;
        if !self.blocked_ranks.is_empty() {
            write!(f, "; blocked: [{}]", self.blocked_ranks.join(", "))?;
        }
        if !self.pending_ops.is_empty() {
            write!(f, "; pending ops: [{}]", self.pending_ops.join(", "))?;
        }
        Ok(())
    }
}

/// A typed failure of the simulation stack.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A configuration value was rejected before the run started.
    InvalidConfig {
        /// The offending field, dotted-path style (`pfs.write_capacity`).
        field: String,
        /// Why the value is rejected.
        reason: String,
    },
    /// A rank program (or driver-issued op) references impossible state —
    /// e.g. a wait on an unknown request or mismatched collectives.
    InvalidProgram {
        /// The rank whose program is invalid.
        rank: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// The progress watchdog tripped: events kept firing but nothing
    /// advanced (e.g. capacity-noise ticks while an endless outage freezes
    /// the request a rank waits on).
    Stalled(Box<StallSnapshot>),
    /// The event queue drained while ranks were still blocked (e.g. a
    /// `Wait` whose request can never complete under an endless outage).
    Deadlock(Box<StallSnapshot>),
    /// An internal invariant was violated — a bug in the engine, reported
    /// instead of panicking when a supervised path can carry it.
    Internal(String),
}

impl SimError {
    /// Convenience constructor for configuration rejections.
    pub fn invalid_config(field: impl Into<String>, reason: impl Into<String>) -> Self {
        SimError::InvalidConfig {
            field: field.into(),
            reason: reason.into(),
        }
    }

    /// Convenience constructor for program rejections.
    pub fn invalid_program(rank: usize, reason: impl Into<String>) -> Self {
        SimError::InvalidProgram {
            rank,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            SimError::InvalidProgram { rank, reason } => {
                write!(f, "invalid program on rank {rank}: {reason}")
            }
            SimError::Stalled(s) => {
                write!(f, "watchdog: no progress ({s})")
            }
            SimError::Deadlock(s) => {
                write!(f, "deadlock: no events pending but ranks are blocked ({s})")
            }
            SimError::Internal(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Extension trait for *internal invariants*: states that are unreachable
/// unless the engine itself is buggy. Unlike `unwrap`/`expect` (denied in
/// the library crates), an `invariant` call documents that the failure is
/// a bug, not a user-input path, and every site is greppable.
pub trait Invariant<T> {
    /// Unwraps, panicking with a clearly labelled invariant-violation
    /// message when the value is absent.
    fn invariant(self, what: &str) -> T;
}

impl<T> Invariant<T> for Option<T> {
    #[track_caller]
    #[inline]
    fn invariant(self, what: &str) -> T {
        match self {
            Some(v) => v,
            None => panic!("internal invariant violated: {what}"),
        }
    }
}

impl<T, E: fmt::Display> Invariant<T> for Result<T, E> {
    #[track_caller]
    #[inline]
    fn invariant(self, what: &str) -> T {
        match self {
            Ok(v) => v,
            Err(e) => panic!("internal invariant violated: {what}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = SimError::invalid_config("pfs.write_capacity", "must be positive, got -1");
        assert_eq!(
            e.to_string(),
            "invalid config: pfs.write_capacity: must be positive, got -1"
        );
        let snap = StallSnapshot {
            at: 2.5,
            last_advance: 1.0,
            futile_events: 42,
            queue_depth: 3,
            blocked_ranks: vec!["rank 0: Wait(ReqTag(1))".into()],
            pending_ops: vec!["task 0: rank 0 write 1024 B left".into()],
        };
        let e = SimError::Stalled(Box::new(snap.clone()));
        let msg = e.to_string();
        assert!(msg.contains("watchdog"), "{msg}");
        assert!(msg.contains("rank 0: Wait(ReqTag(1))"), "{msg}");
        assert!(msg.contains("queue depth 3"), "{msg}");
        let d = SimError::Deadlock(Box::new(snap));
        assert!(d.to_string().contains("deadlock"), "{d}");
    }

    #[test]
    fn invariant_unwraps() {
        assert_eq!(Some(3).invariant("present"), 3);
        let ok: Result<i32, String> = Ok(7);
        assert_eq!(ok.invariant("ok"), 7);
    }

    #[test]
    #[should_panic(expected = "internal invariant violated: gone")]
    fn invariant_panics_with_label() {
        let n: Option<i32> = None;
        n.invariant("gone");
    }
}
