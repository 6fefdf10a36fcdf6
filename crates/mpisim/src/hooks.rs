//! Observation and control interfaces between the runtime and tracing tools.
//!
//! This is the analogue of the PMPI-interposition boundary: a tool (TMIO)
//! registers an [`IoHooks`] implementation to observe I/O events, and pushes
//! per-rank bandwidth limits back through [`Limits`] — exactly the split the
//! paper uses between the preloaded library and the modified MPICH.
//!
//! Every rank-context hook returns the *peri-runtime overhead* in seconds it
//! injects into the calling rank, so the paper's Fig. 5/6 overhead accounting
//! can be reproduced faithfully.

use crate::ops::ReqTag;
use pfsim::Channel;
use simcore::{IoErrorKind, SimTime};

/// Per-rank bandwidth limits applied by the ADIO-style I/O thread.
///
/// Limits are set by the tool (TMIO's strategy) and read by the I/O thread at
/// every sub-request start. When the limiter is disabled in the world config,
/// set values are retained but have no effect — matching a run without the
/// modified MPICH.
#[derive(Clone, Debug)]
pub struct Limits {
    enabled: bool,
    per_rank: Vec<Option<f64>>,
}

impl Limits {
    /// Creates limit storage for `n_ranks`, all unlimited.
    pub fn new(n_ranks: usize, enabled: bool) -> Self {
        Limits {
            enabled,
            per_rank: vec![None; n_ranks],
        }
    }

    /// Sets rank `rank`'s limit in bytes/s (`None` removes it).
    pub fn set(&mut self, rank: usize, limit: Option<f64>) {
        if let Some(l) = limit {
            assert!(l > 0.0, "bandwidth limit must be positive");
        }
        self.per_rank[rank] = limit;
    }

    /// The limit the I/O thread actually applies (None when disabled).
    pub fn effective(&self, rank: usize) -> Option<f64> {
        if self.enabled {
            self.per_rank[rank]
        } else {
            None
        }
    }
}

/// Event observer, the PMPI-analogue boundary. All methods have no-op
/// defaults so partial observers stay small. Methods called from a rank's
/// context return the overhead (seconds) injected into that rank.
#[allow(unused_variables)]
pub trait IoHooks {
    /// A non-blocking I/O op was submitted (`MPI_File_iwrite_at`/`iread_at`).
    /// Called in rank context just before the I/O thread starts.
    fn on_async_submit(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        0.0
    }

    /// The I/O thread finished transferring a request's bytes. Not in rank
    /// context (no overhead).
    fn on_request_complete(&mut self, t: SimTime, rank: usize, tag: ReqTag) {}

    /// Rank entered `MPI_Wait` for `tag`. `already_done` tells whether the
    /// request had finished (the wait will return immediately).
    fn on_wait_enter(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        already_done: bool,
        limits: &mut Limits,
    ) -> f64 {
        0.0
    }

    /// Rank left `MPI_Wait` for `tag`. This is where TMIO computes the
    /// required bandwidth of the closed window and updates the rank's limit.
    fn on_wait_exit(&mut self, t: SimTime, rank: usize, tag: ReqTag, limits: &mut Limits) -> f64 {
        0.0
    }

    /// Rank entered a blocking I/O call (`MPI_File_write_at`/`read_at`).
    fn on_sync_begin(
        &mut self,
        t: SimTime,
        rank: usize,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        0.0
    }

    /// Rank returned from a blocking I/O call.
    fn on_sync_end(
        &mut self,
        t: SimTime,
        rank: usize,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        0.0
    }

    /// Rank probed a request with `MPI_Test` (`done` = completion status).
    /// The request stays live until its `MPI_Wait`. A probe retires a
    /// program op, so probing cannot live-lock a run; the watchdog's
    /// live-lock is capacity-noise ticks firing while an endless outage
    /// freezes every request.
    fn on_test(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        done: bool,
        limits: &mut Limits,
    ) -> f64 {
        0.0
    }

    /// The I/O thread is retrying a failed sub-request after a backoff
    /// sleep (fault injection). `tag` is `None` for blocking calls; `retry`
    /// is 1-based. Not in rank context (no overhead).
    fn on_io_retry(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: Option<ReqTag>,
        kind: IoErrorKind,
        retry: u32,
        backoff: f64,
    ) {
    }

    /// An I/O op failed terminally: retries exhausted or the request was
    /// cancelled. A rank blocked in the matching `Wait` is released with the
    /// error instead of hanging. Not in rank context (no overhead).
    fn on_op_error(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: Option<ReqTag>,
        kind: IoErrorKind,
        attempts: u32,
    ) {
    }

    /// Rank finished its program at time `t`.
    fn on_rank_done(&mut self, t: SimTime, rank: usize) {}
}

/// The trivial observer: no tracing, no limits, no overhead.
#[derive(Default, Clone, Copy, Debug)]
pub struct NoHooks;

impl IoHooks for NoHooks {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_disabled_hides_values() {
        let mut l = Limits::new(2, false);
        l.set(0, Some(100.0));
        assert_eq!(l.per_rank[0], Some(100.0), "the value is stored");
        assert_eq!(l.effective(0), None);
    }

    #[test]
    fn limits_enabled_exposes_values() {
        let mut l = Limits::new(2, true);
        l.set(1, Some(5.0));
        assert_eq!(l.effective(1), Some(5.0));
        assert_eq!(l.effective(0), None);
        l.set(1, None);
        assert_eq!(l.effective(1), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_rejected() {
        let mut l = Limits::new(1, true);
        l.set(0, Some(0.0));
    }

    #[test]
    fn no_hooks_has_zero_overhead() {
        let mut h = NoHooks;
        let mut l = Limits::new(1, true);
        let z = h.on_async_submit(SimTime::ZERO, 0, ReqTag(0), 1.0, Channel::Write, &mut l);
        assert_eq!(z, 0.0);
    }
}
