//! TMIO's output: the per-run report with rank records, application-level
//! aggregates (Eq. 3), the time decomposition behind Figs. 6/7/11, and JSON
//! serialization (the real tool's trace-file role).

use crate::json::Json;
use crate::regions::IncrementalSweep;
use crate::tracer::{AsyncSpan, PhaseRecord, SyncInterval, ThroughputWindow};
use simcore::{Channel, Invariant, StepSeries};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Everything TMIO recorded about one run, plus modeled overheads.
///
/// [`Report::to_json`] writes the first twelve fields, in order; the cache
/// fields stay out of the JSON trace format.
#[derive(Debug)]
pub struct Report {
    /// Number of ranks traced.
    pub n_ranks: usize,
    /// Name of the limiting strategy used.
    pub strategy_name: String,
    /// All closed `B_{i,j}` phases.
    pub phases: Vec<PhaseRecord>,
    /// All closed `T_{i,j}` windows.
    pub windows: Vec<ThroughputWindow>,
    /// Per-request async lifetimes.
    pub spans: Vec<AsyncSpan>,
    /// Blocking I/O intervals.
    pub syncs: Vec<SyncInterval>,
    /// Per-rank end times, seconds.
    pub rank_end: Vec<f64>,
    /// Number of intercepted calls.
    pub calls: u64,
    /// Total peri-runtime overhead injected, seconds (across ranks).
    pub peri_overhead: f64,
    /// Modeled post-runtime overhead (finalize gather), seconds.
    pub post_overhead: f64,
    /// Fault events observed during the run (retries and terminal op
    /// errors); empty for fault-free runs.
    pub faults: Vec<FaultEventRecord>,
    /// Total retry backoff time across ranks, seconds (fault injection).
    pub retry_time: f64,
    /// `B_r` (Eq. 3), built on first query. Not serialized.
    pub(crate) required: LazySeries,
    /// `B_L`, built on first query. Not serialized.
    pub(crate) limit: LazySeries,
    /// `T`, built on first query. Not serialized.
    pub(crate) throughput: LazySeries,
    /// Cached time decomposition. Not serialized.
    pub(crate) decomposition_cache: OnceLock<Decomposition>,
}

/// One Eq. 3 series of a [`Report`], built on its first query from the
/// edge log the tracer handed over.
#[derive(Debug)]
pub(crate) struct LazySeries {
    /// The tracer's edge log, taken by the first query; `None` once the
    /// series is built.
    sweep: Mutex<Option<IncrementalSweep>>,
    series: OnceLock<StepSeries>,
}

impl LazySeries {
    /// A series to be built from the tracer's `sweep`.
    pub(crate) fn new(sweep: IncrementalSweep) -> Self {
        LazySeries {
            sweep: Mutex::new(Some(sweep)),
            series: OnceLock::new(),
        }
    }

    /// The series; the first call builds it from the tracer's sweep (its
    /// cached series, if a live query left one, is reused as is).
    fn get(&self) -> &StepSeries {
        self.series.get_or_init(|| {
            // The lock only guards a `take`, which leaves the option whole
            // even when it panics, so a poisoned guard is still valid.
            let sweep = self
                .sweep
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            sweep
                .invariant("only the query building the series takes the sweep")
                .into_series()
        })
    }
}

/// One observed fault event: a sub-request retry or a terminal op error.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEventRecord {
    /// Virtual time of the event, seconds.
    pub t: f64,
    /// Affected rank.
    pub rank: usize,
    /// Request tag for async ops; `None` for blocking calls.
    pub tag: Option<u32>,
    /// Symbolic errno name (e.g. `"EIO"`).
    pub kind: String,
    /// Numeric errno.
    pub code: i32,
    /// Retry number (1-based) for retries; total attempts for terminal
    /// errors.
    pub retry: u32,
    /// Backoff slept before the retry, seconds (0 for terminal errors).
    pub backoff: f64,
    /// True when the op failed terminally (retries exhausted / cancelled).
    pub terminal: bool,
}

/// Aggregate split of the application time (the stacked bars of
/// Figs. 6/7/11). All values are rank-seconds summed over ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Decomposition {
    /// Blocking writes.
    pub sync_write: f64,
    /// Blocking reads.
    pub sync_read: f64,
    /// Async writes' time blocked in the matching wait.
    pub async_write_lost: f64,
    /// Async reads' time blocked in the matching wait.
    pub async_read_lost: f64,
    /// Async writes hidden behind other work.
    pub async_write_exploit: f64,
    /// Async reads hidden behind other work.
    pub async_read_exploit: f64,
    /// Remaining time: compute/communication with no I/O in flight.
    pub compute_io_free: f64,
    /// Retry backoff sleeps of the I/O threads (fault injection); zero in
    /// fault-free runs.
    pub retry_degraded: f64,
    /// Total rank-seconds (Σ rank end times).
    pub total: f64,
}

impl Decomposition {
    /// The stacked-bar percentages in the paper's order:
    /// `[sync write, sync read, async write lost, async read lost,
    ///   async write exploit, async read exploit, compute (I/O free)]`.
    pub fn percentages(&self) -> [f64; 7] {
        let t = self.total.max(1e-12);
        [
            100.0 * self.sync_write / t,
            100.0 * self.sync_read / t,
            100.0 * self.async_write_lost / t,
            100.0 * self.async_read_lost / t,
            100.0 * self.async_write_exploit / t,
            100.0 * self.async_read_exploit / t,
            100.0 * self.compute_io_free / t,
        ]
    }

    /// The stacked percentages with the retry/degraded slice appended (for
    /// fault-injected runs). The first seven entries match
    /// [`Decomposition::percentages`] when no faults fired.
    pub fn percentages_with_faults(&self) -> [f64; 8] {
        let p = self.percentages();
        let t = self.total.max(1e-12);
        [
            p[0],
            p[1],
            p[2],
            p[3],
            p[4],
            p[5],
            p[6],
            100.0 * self.retry_degraded / t,
        ]
    }

    /// "Visible I/O" (Fig. 6): blocking I/O plus async time lost in waits.
    pub fn visible_io(&self) -> f64 {
        self.sync_write + self.sync_read + self.async_write_lost + self.async_read_lost
    }

    /// Total exploitation ("async exploit") time.
    pub fn exploit(&self) -> f64 {
        self.async_write_exploit + self.async_read_exploit
    }
}

impl Report {
    /// Application-level required-bandwidth series `B_r` (Eq. 3, Fig. 4):
    /// the sweep over every rank-phase `[ts, te)` carrying `B_{i,j}`.
    /// Built on first query and cached.
    pub fn required_series(&self) -> &StepSeries {
        self.required.get()
    }

    /// Application-level limit series `B_L`: the sweep carrying each phase's
    /// in-effect limit (phases without a limit contribute nothing). Built on
    /// first query and cached.
    pub fn limit_series(&self) -> &StepSeries {
        self.limit.get()
    }

    /// Application-level throughput series `T`: the sweep over throughput
    /// windows carrying `T_{i,j}`. Built on first query and cached.
    pub fn throughput_series(&self) -> &StepSeries {
        self.throughput.get()
    }

    /// `max_r B_r` — the minimal application-level bandwidth such that no
    /// rank ever waits (Sec. IV-C).
    pub fn required_bandwidth(&self) -> f64 {
        self.required_series().max_value()
    }

    /// Time when the limiter first took effect (first phase with a limit in
    /// effect), for the figures' vertical "limit starts" marker.
    pub fn limit_start_time(&self) -> Option<f64> {
        self.phases
            .iter()
            .filter(|p| p.limit_during.is_some())
            .map(|p| p.ts)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// The stacked time decomposition (Figs. 6/7/11). Computed once and
    /// cached.
    pub fn decomposition(&self) -> Decomposition {
        *self
            .decomposition_cache
            .get_or_init(|| self.compute_decomposition())
    }

    fn compute_decomposition(&self) -> Decomposition {
        let mut d = Decomposition::default();
        for s in &self.syncs {
            let dur = (s.end - s.begin).max(0.0);
            match s.channel {
                Channel::Write => d.sync_write += dur,
                Channel::Read => d.sync_read += dur,
            }
        }
        for sp in &self.spans {
            match sp.channel {
                Channel::Write => {
                    d.async_write_lost += sp.lost();
                    d.async_write_exploit += sp.exploit();
                }
                Channel::Read => {
                    d.async_read_lost += sp.lost();
                    d.async_read_exploit += sp.exploit();
                }
            }
        }
        d.retry_degraded = self.retry_time;
        d.total = self.rank_end.iter().sum();
        d.compute_io_free = (d.total
            - d.sync_write
            - d.sync_read
            - d.async_write_lost
            - d.async_read_lost
            - d.async_write_exploit
            - d.async_read_exploit
            - d.retry_degraded)
            .max(0.0);
        d
    }

    /// Serializes to the JSON trace format (the file the real TMIO writes at
    /// `MPI_Finalize` for the plotting scripts). A non-finite number is
    /// written as `null`.
    pub fn to_json(&self) -> String {
        let phases = self.phases.iter().map(|p| {
            Json::obj([
                ("rank", p.rank.into()),
                ("phase", p.phase.into()),
                ("ts", p.ts.into()),
                ("te", p.te.into()),
                ("bytes", p.bytes.into()),
                ("b_required", p.b_required.into()),
                ("limit_during", p.limit_during.into()),
                ("limit_next", p.limit_next.into()),
                ("n_requests", p.n_requests.into()),
            ])
        });
        let windows = self.windows.iter().map(|w| {
            Json::obj([
                ("rank", w.rank.into()),
                ("start", w.start.into()),
                ("end", w.end.into()),
                ("bytes", w.bytes.into()),
            ])
        });
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("rank", s.rank.into()),
                ("submit", s.submit.into()),
                ("complete", s.complete.into()),
                ("wait_enter", s.wait_enter.into()),
                ("bytes", s.bytes.into()),
                ("channel", channel_name(s.channel).into()),
            ])
        });
        let syncs = self.syncs.iter().map(|s| {
            Json::obj([
                ("rank", s.rank.into()),
                ("begin", s.begin.into()),
                ("end", s.end.into()),
                ("bytes", s.bytes.into()),
                ("channel", channel_name(s.channel).into()),
            ])
        });
        let faults = self.faults.iter().map(|f| {
            Json::obj([
                ("t", f.t.into()),
                ("rank", f.rank.into()),
                ("tag", f.tag.into()),
                ("kind", f.kind.as_str().into()),
                ("code", f.code.into()),
                ("retry", f.retry.into()),
                ("backoff", f.backoff.into()),
                ("terminal", f.terminal.into()),
            ])
        });
        Json::obj([
            ("n_ranks", self.n_ranks.into()),
            ("strategy_name", self.strategy_name.as_str().into()),
            ("phases", phases.collect()),
            ("windows", windows.collect()),
            ("spans", spans.collect()),
            ("syncs", syncs.collect()),
            ("rank_end", self.rank_end.iter().copied().collect()),
            ("calls", self.calls.into()),
            ("peri_overhead", self.peri_overhead.into()),
            ("post_overhead", self.post_overhead.into()),
            ("faults", faults.collect()),
            ("retry_time", self.retry_time.into()),
        ])
        .to_pretty()
    }
}

/// The trace's name of a channel.
fn channel_name(c: Channel) -> &'static str {
    match c {
        Channel::Write => "Write",
        Channel::Read => "Read",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::Interval;
    use crate::tracer::{AsyncSpan, PhaseRecord, SyncInterval, ThroughputWindow};

    /// A series over `rows`, whose starts and ends both come in time
    /// order: every row opens, then every row closes.
    fn series_of(rows: impl IntoIterator<Item = Interval>) -> LazySeries {
        let rows: Vec<Interval> = rows.into_iter().collect();
        let mut sweep = IncrementalSweep::default();
        let opened: Vec<_> = rows.iter().map(|iv| sweep.open(iv.ts)).collect();
        for (o, iv) in opened.into_iter().zip(&rows) {
            sweep.close(o, iv.te, iv.value);
        }
        LazySeries::new(sweep)
    }

    /// A hand-built report whose three series are swept from its own rows.
    fn sample_report() -> Report {
        let phases = vec![
            PhaseRecord {
                rank: 0,
                phase: 0,
                ts: 0.0,
                te: 2.0,
                bytes: 200.0,
                b_required: 100.0,
                limit_during: None,
                limit_next: Some(110.0),
                n_requests: 1,
            },
            PhaseRecord {
                rank: 1,
                phase: 0,
                ts: 1.0,
                te: 3.0,
                bytes: 100.0,
                b_required: 50.0,
                limit_during: Some(60.0),
                limit_next: Some(55.0),
                n_requests: 1,
            },
        ];
        let windows = vec![ThroughputWindow {
            rank: 0,
            start: 0.0,
            end: 1.0,
            bytes: 200.0,
        }];
        let iv = |ts, te, value| Interval { ts, te, value };
        Report {
            n_ranks: 2,
            strategy_name: "direct".into(),
            required: series_of(phases.iter().map(|p| iv(p.ts, p.te, p.b_required))),
            limit: series_of(
                phases
                    .iter()
                    .filter_map(|p| p.limit_during.map(|l| iv(p.ts, p.te, l))),
            ),
            throughput: series_of(windows.iter().map(|w| iv(w.start, w.end, w.throughput()))),
            phases,
            windows,
            spans: vec![AsyncSpan {
                rank: 0,
                submit: 0.0,
                complete: 1.0,
                wait_enter: 2.0,
                bytes: 200.0,
                channel: Channel::Write,
            }],
            syncs: vec![SyncInterval {
                rank: 1,
                begin: 3.0,
                end: 3.5,
                bytes: 10.0,
                channel: Channel::Read,
            }],
            rank_end: vec![4.0, 4.0],
            calls: 6,
            peri_overhead: 12e-6,
            post_overhead: 0.05,
            faults: Vec::new(),
            retry_time: 0.0,
            decomposition_cache: OnceLock::new(),
        }
    }

    #[test]
    fn required_series_sums_overlaps() {
        let r = sample_report();
        let s = r.required_series();
        assert_eq!(s.value_at(simcore::SimTime::from_secs(0.5)), 100.0);
        assert_eq!(s.value_at(simcore::SimTime::from_secs(1.5)), 150.0);
        assert_eq!(s.value_at(simcore::SimTime::from_secs(2.5)), 50.0);
        assert_eq!(r.required_bandwidth(), 150.0);
    }

    #[test]
    fn limit_series_only_limited_phases() {
        let r = sample_report();
        let s = r.limit_series();
        assert_eq!(s.value_at(simcore::SimTime::from_secs(0.5)), 0.0);
        assert_eq!(s.value_at(simcore::SimTime::from_secs(1.5)), 60.0);
    }

    #[test]
    fn throughput_series_from_windows() {
        let r = sample_report();
        let s = r.throughput_series();
        assert_eq!(s.value_at(simcore::SimTime::from_secs(0.5)), 200.0);
        assert_eq!(s.value_at(simcore::SimTime::from_secs(1.5)), 0.0);
    }

    #[test]
    fn decomposition_categories() {
        let r = sample_report();
        let d = r.decomposition();
        // Span: exploit = min(1,2)-0 = 1; lost = max(0, 1-2) = 0.
        assert_eq!(d.async_write_exploit, 1.0);
        assert_eq!(d.async_write_lost, 0.0);
        assert_eq!(d.sync_read, 0.5);
        assert_eq!(d.total, 8.0);
        assert_eq!(d.compute_io_free, 8.0 - 1.0 - 0.5);
        let p = d.percentages();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn retry_time_becomes_its_own_slice() {
        let mut r = sample_report();
        r.retry_time = 0.5;
        let d = r.decomposition();
        assert_eq!(d.retry_degraded, 0.5);
        // Backoff sleeps come out of the I/O-free remainder.
        assert_eq!(d.compute_io_free, 8.0 - 1.0 - 0.5 - 0.5);
        let p7 = d.percentages();
        let p8 = d.percentages_with_faults();
        assert_eq!(&p8[..7], &p7[..], "seven-way split must not change");
        assert!((p8.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    /// The trace writes each fault record's fields in order, an absent tag
    /// as `null`, escaped strings and a non-finite number as `null`.
    #[test]
    fn to_json_writes_faults_strings_and_non_finite_numbers() {
        let mut r = sample_report();
        r.faults.push(FaultEventRecord {
            t: 1.25,
            rank: 1,
            tag: Some(3),
            kind: "EIO".into(),
            code: 5,
            retry: 2,
            backoff: 2e-3,
            terminal: false,
        });
        r.faults.push(FaultEventRecord {
            t: 2.0,
            rank: 0,
            tag: None,
            kind: "ENOSPC".into(),
            code: 28,
            retry: 3,
            backoff: 0.0,
            terminal: true,
        });
        r.strategy_name = "a\"b\\c\nd\u{1}é".into();
        r.retry_time = f64::INFINITY;
        let json = r.to_json();
        let faults = r#""faults": [
    {
      "t": 1.25,
      "rank": 1,
      "tag": 3,
      "kind": "EIO",
      "code": 5,
      "retry": 2,
      "backoff": 0.002,
      "terminal": false
    },
    {
      "t": 2,
      "rank": 0,
      "tag": null,
      "kind": "ENOSPC",
      "code": 28,
      "retry": 3,
      "backoff": 0,
      "terminal": true
    }
  ],"#;
        assert!(json.contains(faults), "{json}");
        assert!(
            json.contains(r#""strategy_name": "a\"b\\c\nd\u0001é","#),
            "{json}"
        );
        assert!(json.ends_with("\"retry_time\": null\n}"), "{json}");
    }

    #[test]
    fn lost_span_counts() {
        let sp = AsyncSpan {
            rank: 0,
            submit: 0.0,
            complete: 3.0,
            wait_enter: 1.0,
            bytes: 1.0,
            channel: Channel::Read,
        };
        assert_eq!(sp.exploit(), 1.0);
        assert_eq!(sp.lost(), 2.0);
    }

    #[test]
    fn limit_start_time_is_earliest_limited_phase() {
        let r = sample_report();
        assert_eq!(r.limit_start_time(), Some(1.0));
    }
}
