//! Raw event tracing: the chronological record behind Fig. 3.
//!
//! [`TraceLog`] wraps any [`IoHooks`] observer and additionally records
//! every intercepted event with its timestamp — the machine-readable
//! version of the paper's rank-timeline figure, and the debugging view a
//! TMIO user gets when tracing misbehaving I/O. Serializes to JSON lines.

use mpisim::{Channel, IoHooks, Limits, ReqTag};
use serde::{Deserialize, Serialize};
use simcore::{Invariant, SimTime};

/// One intercepted event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Non-blocking submit (`MPI_File_iwrite_at`/`iread_at`).
    AsyncSubmit {
        /// Rank.
        rank: usize,
        /// Request tag.
        tag: u32,
        /// Payload bytes.
        bytes: f64,
        /// Write or read.
        write: bool,
    },
    /// The I/O thread finished a request.
    Complete {
        /// Rank.
        rank: usize,
        /// Request tag.
        tag: u32,
    },
    /// Rank entered the matching wait.
    WaitEnter {
        /// Rank.
        rank: usize,
        /// Request tag.
        tag: u32,
        /// Whether the request had already completed.
        already_done: bool,
    },
    /// Rank left the matching wait.
    WaitExit {
        /// Rank.
        rank: usize,
        /// Request tag.
        tag: u32,
    },
    /// Blocking call entered.
    SyncBegin {
        /// Rank.
        rank: usize,
        /// Bytes.
        bytes: f64,
        /// Write or read.
        write: bool,
    },
    /// Blocking call returned.
    SyncEnd {
        /// Rank.
        rank: usize,
    },
    /// `MPI_Test` probe.
    Test {
        /// Rank.
        rank: usize,
        /// Request tag.
        tag: u32,
        /// Completion status observed.
        done: bool,
    },
    /// Rank finished its program.
    RankDone {
        /// Rank.
        rank: usize,
    },
}

/// A timestamped trace entry.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Virtual time of the event, seconds.
    pub t: f64,
    /// The event.
    pub event: TraceEvent,
}

/// Hook adapter that records every event and forwards to an inner observer
/// (typically [`crate::Tracer`]).
pub struct TraceLog<H: IoHooks> {
    inner: H,
    entries: Vec<TraceEntry>,
}

impl<H: IoHooks> TraceLog<H> {
    /// Wraps `inner`, recording all events that pass through.
    pub fn new(inner: H) -> Self {
        TraceLog {
            inner,
            entries: Vec::new(),
        }
    }

    /// The recorded entries in chronological order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Consumes the log, returning the inner observer and the entries.
    pub fn into_parts(self) -> (H, Vec<TraceEntry>) {
        (self.inner, self.entries)
    }

    /// Serializes the trace as JSON lines (one entry per line).
    pub fn to_jsonl(&self) -> String {
        self.entries
            .iter()
            .map(|e| serde_json::to_string(e).invariant("entry serializes"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Parses a JSON-lines trace back into entries.
    pub fn parse_jsonl(s: &str) -> Result<Vec<TraceEntry>, serde_json::Error> {
        s.lines()
            .filter(|l| !l.trim().is_empty())
            .map(serde_json::from_str)
            .collect()
    }

    fn push(&mut self, t: SimTime, event: TraceEvent) {
        self.entries.push(TraceEntry {
            t: t.as_secs(),
            event,
        });
    }
}

impl<H: IoHooks> IoHooks for TraceLog<H> {
    fn on_async_submit(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        self.push(
            t,
            TraceEvent::AsyncSubmit {
                rank,
                tag: tag.0,
                bytes,
                write: channel == Channel::Write,
            },
        );
        self.inner
            .on_async_submit(t, rank, tag, bytes, channel, limits)
    }

    fn on_request_complete(&mut self, t: SimTime, rank: usize, tag: ReqTag) {
        self.push(t, TraceEvent::Complete { rank, tag: tag.0 });
        self.inner.on_request_complete(t, rank, tag);
    }

    fn on_wait_enter(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        already_done: bool,
        limits: &mut Limits,
    ) -> f64 {
        self.push(
            t,
            TraceEvent::WaitEnter {
                rank,
                tag: tag.0,
                already_done,
            },
        );
        self.inner.on_wait_enter(t, rank, tag, already_done, limits)
    }

    fn on_wait_exit(&mut self, t: SimTime, rank: usize, tag: ReqTag, limits: &mut Limits) -> f64 {
        self.push(t, TraceEvent::WaitExit { rank, tag: tag.0 });
        self.inner.on_wait_exit(t, rank, tag, limits)
    }

    fn on_sync_begin(
        &mut self,
        t: SimTime,
        rank: usize,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        self.push(
            t,
            TraceEvent::SyncBegin {
                rank,
                bytes,
                write: channel == Channel::Write,
            },
        );
        self.inner.on_sync_begin(t, rank, bytes, channel, limits)
    }

    fn on_sync_end(
        &mut self,
        t: SimTime,
        rank: usize,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        self.push(t, TraceEvent::SyncEnd { rank });
        self.inner.on_sync_end(t, rank, bytes, channel, limits)
    }

    fn on_test(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        done: bool,
        limits: &mut Limits,
    ) -> f64 {
        self.push(
            t,
            TraceEvent::Test {
                rank,
                tag: tag.0,
                done,
            },
        );
        self.inner.on_test(t, rank, tag, done, limits)
    }

    fn on_rank_done(&mut self, t: SimTime, rank: usize) {
        self.push(t, TraceEvent::RankDone { rank });
        self.inner.on_rank_done(t, rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tracer, TracerConfig};
    use mpisim::{FileId, Op, Program, World, WorldConfig};

    fn run_traced() -> TraceLog<Tracer> {
        let ops = vec![
            Op::IWrite {
                file: FileId(0),
                bytes: 1e6,
                tag: ReqTag(0),
            },
            Op::Compute { seconds: 0.1 },
            Op::Test { tag: ReqTag(0) },
            Op::Wait { tag: ReqTag(0) },
            Op::Write {
                file: FileId(0),
                bytes: 1e6,
            },
        ];
        let log = TraceLog::new(Tracer::new(1, TracerConfig::trace_only()));
        let mut w = World::new(WorldConfig::new(1), vec![Program::from_ops(ops)], log);
        w.create_file("f");
        w.try_run().unwrap();
        std::mem::replace(
            w.hooks_mut(),
            TraceLog::new(Tracer::new(0, TracerConfig::trace_only())),
        )
    }

    #[test]
    fn records_all_event_kinds_in_order() {
        let log = run_traced();
        let kinds: Vec<&'static str> = log
            .entries()
            .iter()
            .map(|e| match e.event {
                TraceEvent::AsyncSubmit { .. } => "submit",
                TraceEvent::Complete { .. } => "complete",
                TraceEvent::WaitEnter { .. } => "wenter",
                TraceEvent::WaitExit { .. } => "wexit",
                TraceEvent::SyncBegin { .. } => "sbegin",
                TraceEvent::SyncEnd { .. } => "send",
                TraceEvent::Test { .. } => "test",
                TraceEvent::RankDone { .. } => "done",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["submit", "complete", "test", "wenter", "wexit", "sbegin", "send", "done"]
        );
        // Timestamps never decrease.
        for pair in log.entries().windows(2) {
            assert!(pair[1].t >= pair[0].t);
        }
    }

    #[test]
    fn inner_tracer_still_works() {
        let log = run_traced();
        let (tracer, entries) = log.into_parts();
        let report = tracer.into_report();
        assert_eq!(report.phases.len(), 1);
        assert!(!entries.is_empty());
    }

    #[test]
    fn jsonl_roundtrip() {
        let log = run_traced();
        let text = log.to_jsonl();
        let parsed = TraceLog::<Tracer>::parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.len(), log.entries().len());
        assert_eq!(parsed[0], log.entries()[0]);
    }

    #[test]
    fn test_event_records_status() {
        let log = run_traced();
        let test_events: Vec<_> = log
            .entries()
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::Test { done, .. } => Some(done),
                _ => None,
            })
            .collect();
        assert_eq!(
            test_events,
            vec![true],
            "I/O done before the 0.1 s window ends"
        );
    }
}
