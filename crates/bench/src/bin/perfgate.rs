//! Performance gate for the figure harness and the simulation hot loops.
//!
//! ```text
//! cargo run -p bench --release --bin perfgate            # quick scale
//! cargo run -p bench --release --bin perfgate -- --check BENCH_pr5.json
//! IOBTS_BENCH_OUT=path.json cargo run -p bench --release --bin perfgate
//! ```
//!
//! Times the sweep-style scenarios straight off the registry (emission
//! disabled, so pure computation is measured) twice — forced single-thread
//! and at the host's full worker count — plus the micro-kernels behind them
//! (water-filling allocator, PFS completion harvesting, event-queue churn,
//! tracer request matching, incremental region sweep), and writes the
//! measurements to `BENCH_pr5.json`. On a single-core host the jobs-N column
//! degenerates to jobs-1 and the parallel speedup claim is meaningless; the
//! gate warns loudly and records `parallel_meaningful: false` (CI pins
//! `IOBTS_JOBS=2` so the column stays informative there).
//!
//! With `--check <baseline.json>` the gate re-reads a checked-in baseline
//! and fails (exit 1) if any time-like metric regressed by more than 10 %.

use bench::par::{jobs, with_jobs};
use bench::registry::{select, ScenarioCtx};
use mpisim::{IoHooks, Limits, ReqTag};
use pfsim::alloc::{water_fill, water_fill_into, Demand, WaterFillScratch};
use pfsim::{Channel, FlowSpec, Pfs, PfsConfig};
use simcore::{EventQueue, SimTime};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use tmio::{sweep, IncrementalSweep, Interval, Strategy, Tracer, TracerConfig};

/// The registry entries the gate times — the sweep-shaped scenarios whose
/// wall time dominates figure regeneration — with the descriptive labels
/// used in the emitted JSON (registry names are terse).
const GATED: &[(&str, &str)] = &[
    ("fig05_06", "fig05_06_haccio_overhead"),
    ("fig07", "fig07_wacomm_distribution"),
    ("fig11", "fig11_haccio_distribution"),
    ("fig13", "fig13_haccio_series"),
];

/// Regression tolerance of `--check`: fail when a time-like metric exceeds
/// the baseline by more than this factor.
const CHECK_TOLERANCE: f64 = 1.10;

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct Entry {
    name: &'static str,
    jobs1_s: f64,
    jobs_n_s: f64,
}

fn gate_figures(entries: &mut Vec<Entry>, reps: usize) {
    // Quick scale, no printing/CSV: identical computation to what the
    // `figures` bin runs, minus presentation.
    let ctx = ScenarioCtx {
        full: false,
        quick: false,
        emit: false,
    };
    let patterns: Vec<String> = GATED.iter().map(|(s, _)| s.to_string()).collect();
    let scenarios = select("figure", &patterns).expect("gated scenarios exist");

    let n = jobs();
    for s in &scenarios {
        eprintln!("[perfgate] {} ...", s.name);
        let run = || {
            black_box((s.run)(&ctx)).expect("gated scenario fails");
        };
        let jobs1_s = best_secs(reps, || with_jobs(1, run));
        let jobs_n_s = if n > 1 {
            best_secs(reps, || with_jobs(n, run))
        } else {
            jobs1_s
        };
        let label = GATED
            .iter()
            .find(|(name, _)| *name == s.name)
            .map(|(_, label)| *label)
            .expect("gated scenario has a label");
        entries.push(Entry {
            name: label,
            jobs1_s,
            jobs_n_s,
        });
    }
}

/// ns/op of a from-scratch `water_fill` vs the buffer-reusing
/// `water_fill_into` at a representative group count.
fn gate_water_fill() -> (f64, f64) {
    let n = 1024usize;
    let demands: Vec<Demand> = (0..n)
        .map(|i| Demand {
            count: 1 + i % 3,
            weight: 1.0 + (i % 5) as f64,
            cap: if i % 2 == 0 {
                Some(10.0 + i as f64)
            } else {
                None
            },
        })
        .collect();
    let iters = 2_000u32;
    let alloc_ns = best_secs(5, || {
        for _ in 0..iters {
            black_box(water_fill(black_box(5_000.0), black_box(&demands)));
        }
    }) * 1e9
        / iters as f64;
    let mut scratch = WaterFillScratch::default();
    let mut rates = Vec::new();
    let into_ns = best_secs(5, || {
        for _ in 0..iters {
            black_box(water_fill_into(
                black_box(5_000.0),
                black_box(&demands),
                &mut scratch,
                &mut rates,
            ));
        }
    }) * 1e9
        / iters as f64;
    (alloc_ns, into_ns)
}

/// ns per completed flow for a staggered PFS burst. Distinct sizes defeat
/// group merging, so group count equals flow count — this is the regime where
/// the completion-time index (O(1) `next_completion` instead of an O(groups)
/// scan per harvest step) and the allocation-free reallocation pay off.
fn gate_pfs_burst() -> f64 {
    let flows = 2048usize;
    best_secs(3, || {
        let mut p = Pfs::new(PfsConfig {
            write_capacity: 1e9,
            read_capacity: 1e9,
        });
        p.set_recording(false);
        for i in 0..flows {
            p.submit(
                SimTime::ZERO,
                Channel::Write,
                FlowSpec::simple(1e6 + (i as f64) * 137.0),
            );
        }
        assert_eq!(p.advance_to(SimTime::from_secs(1e6)).len(), flows);
    }) * 1e9
        / flows as f64
}

/// ns/event for schedule→(re-arm the wake 1/4)→pop churn on the event queue.
fn gate_queue_churn() -> f64 {
    let events = 200_000usize;
    best_secs(3, || {
        let mut q = EventQueue::with_capacity(1024);
        let mut t = 0.0f64;
        for i in 0..events {
            t += 0.001;
            q.schedule(SimTime::from_secs(t), i);
            if i % 4 == 0 {
                // Re-target the wake, as an engine does after each PFS
                // change: half the arms fire, half are superseded.
                let delay = if i % 8 == 0 { 0.0015 } else { 0.01 };
                q.set_wake(Some(q.now().after(delay)), usize::MAX);
            }
            // A popped wake is not replaced by an event, so pop until the
            // pending set is back under its fixed size.
            while q.len() >= 64 {
                black_box(q.pop());
            }
        }
        while q.pop().is_some() {}
    }) * 1e9
        / events as f64
}

// ---------------------------------------------------------------------
// Tracer request-matching kernel

/// Shape of the matching workload: submit/complete/wait cycles per phase.
const TM_RANKS: usize = 16;
const TM_PHASES: usize = 32;
const TM_REQS: usize = 64;

/// Replica of the pre-slot-map tracer's matching engine: open spans in a
/// `HashMap<(rank, tag), _>` probed on every hook call, AoS record vectors
/// grown without capacity, and the Eq. 3 series recomputed from scratch
/// (collect + sort) at the end of the run.
mod legacy_match {
    use super::*;

    struct OpenSpan {
        submit: SimTime,
        complete: Option<SimTime>,
        wait_enter: Option<SimTime>,
        bytes: f64,
    }

    struct Pending {
        tag: ReqTag,
        bytes: f64,
        ts: SimTime,
    }

    #[derive(Default)]
    struct RankTrace {
        phase: usize,
        queue: Vec<Pending>,
        tq_outstanding: usize,
        tq_start: f64,
        tq_bytes: f64,
    }

    pub struct LegacyTracer {
        ranks: Vec<RankTrace>,
        open_spans: HashMap<(usize, u32), OpenSpan>,
        phases: Vec<(usize, usize, f64, f64, f64)>,
        windows: Vec<(usize, f64, f64, f64)>,
        spans: Vec<(usize, f64, f64, f64, f64)>,
    }

    impl LegacyTracer {
        pub fn new(n_ranks: usize) -> Self {
            LegacyTracer {
                ranks: (0..n_ranks).map(|_| RankTrace::default()).collect(),
                open_spans: HashMap::new(),
                phases: Vec::new(),
                windows: Vec::new(),
                spans: Vec::new(),
            }
        }

        pub fn submit(&mut self, t: SimTime, rank: usize, tag: ReqTag, bytes: f64) {
            let rt = &mut self.ranks[rank];
            rt.queue.push(Pending { tag, bytes, ts: t });
            if rt.tq_outstanding == 0 {
                rt.tq_start = t.as_secs();
                rt.tq_bytes = 0.0;
            }
            rt.tq_outstanding += 1;
            rt.tq_bytes += bytes;
            self.open_spans.insert(
                (rank, tag.0),
                OpenSpan {
                    submit: t,
                    complete: None,
                    wait_enter: None,
                    bytes,
                },
            );
        }

        pub fn complete(&mut self, t: SimTime, rank: usize, tag: ReqTag) {
            if let Some(span) = self.open_spans.get_mut(&(rank, tag.0)) {
                span.complete = Some(t);
            }
            self.try_close_span(rank, tag);
            let rt = &mut self.ranks[rank];
            rt.tq_outstanding -= 1;
            if rt.tq_outstanding == 0 {
                self.windows
                    .push((rank, rt.tq_start, t.as_secs(), rt.tq_bytes));
            }
        }

        pub fn wait_enter(&mut self, t: SimTime, rank: usize, tag: ReqTag) {
            if let Some(span) = self.open_spans.get_mut(&(rank, tag.0)) {
                span.wait_enter = Some(t);
            }
            self.try_close_span(rank, tag);
            let rt = &mut self.ranks[rank];
            if rt.queue.first().is_some_and(|p| p.tag == tag) {
                // Close the phase: aggregate B_{i,j} over the queue.
                let ts = rt.queue.first().map(|p| p.ts.as_secs()).unwrap_or(0.0);
                let bytes: f64 = rt.queue.iter().map(|p| p.bytes).sum();
                let b = bytes / (t.as_secs() - ts).max(1e-12);
                let phase = rt.phase;
                rt.phase += 1;
                rt.queue.clear();
                self.phases.push((rank, phase, ts, t.as_secs(), b));
            }
        }

        fn try_close_span(&mut self, rank: usize, tag: ReqTag) {
            let key = (rank, tag.0);
            let ready = self
                .open_spans
                .get(&key)
                .is_some_and(|s| s.complete.is_some() && s.wait_enter.is_some());
            if ready {
                let s = self.open_spans.remove(&key).expect("span present");
                self.spans.push((
                    rank,
                    s.submit.as_secs(),
                    s.complete.expect("set").as_secs(),
                    s.wait_enter.expect("set").as_secs(),
                    s.bytes,
                ));
            }
        }

        /// The end-of-run Eq. 3 aggregation the old engine performed:
        /// collect phase intervals, then sort-sweep them from scratch.
        pub fn required_series(&self) -> simcore::StepSeries {
            let intervals: Vec<Interval> = self
                .phases
                .iter()
                .map(|&(_, _, ts, te, b)| Interval { ts, te, value: b })
                .collect();
            sweep(&intervals)
        }
    }
}

/// Target of the matching workload: one submit→complete→wait request cycle.
trait MatchSink {
    fn submit(&mut self, t: SimTime, rank: usize, tag: ReqTag, bytes: f64);
    fn complete(&mut self, t: SimTime, rank: usize, tag: ReqTag);
    fn wait(&mut self, t: SimTime, rank: usize, tag: ReqTag);
}

impl MatchSink for legacy_match::LegacyTracer {
    fn submit(&mut self, t: SimTime, rank: usize, tag: ReqTag, bytes: f64) {
        legacy_match::LegacyTracer::submit(self, t, rank, tag, bytes);
    }
    fn complete(&mut self, t: SimTime, rank: usize, tag: ReqTag) {
        legacy_match::LegacyTracer::complete(self, t, rank, tag);
    }
    fn wait(&mut self, t: SimTime, rank: usize, tag: ReqTag) {
        self.wait_enter(t, rank, tag);
    }
}

/// Adapter feeding the hook-call cycle into the real tracer.
struct TracerSink {
    tracer: Tracer,
    limits: Limits,
}

impl MatchSink for TracerSink {
    fn submit(&mut self, t: SimTime, rank: usize, tag: ReqTag, bytes: f64) {
        self.tracer
            .on_async_submit(t, rank, tag, bytes, Channel::Write, &mut self.limits);
    }
    fn complete(&mut self, t: SimTime, rank: usize, tag: ReqTag) {
        self.tracer.on_request_complete(t, rank, tag);
    }
    fn wait(&mut self, t: SimTime, rank: usize, tag: ReqTag) {
        self.tracer
            .on_wait_enter(t, rank, tag, true, &mut self.limits);
        self.tracer.on_wait_exit(t, rank, tag, &mut self.limits);
    }
}

/// Drives the submit→complete→wait cycle workload through `sink`.
fn drive_match_workload(sink: &mut impl MatchSink) {
    let mut t = 0.0f64;
    for _ in 0..TM_PHASES {
        for rank in 0..TM_RANKS {
            for r in 0..TM_REQS {
                t += 1e-5;
                sink.submit(SimTime::from_secs(t), rank, ReqTag(r as u32), 1e6);
            }
            for r in 0..TM_REQS {
                t += 1e-5;
                sink.complete(SimTime::from_secs(t), rank, ReqTag(r as u32));
            }
            for r in 0..TM_REQS {
                t += 1e-5;
                sink.wait(SimTime::from_secs(t), rank, ReqTag(r as u32));
            }
        }
    }
}

/// ns per request through the legacy HashMap matcher vs the slot-map
/// tracer, both ending with the Eq. 3 required-bandwidth series (scratch
/// sort-sweep vs the incremental sweep-line kept live during the run).
fn gate_tracer_match() -> (f64, f64) {
    let reqs = (TM_PHASES * TM_RANKS * TM_REQS) as f64;
    let legacy_ns = best_secs(5, || {
        let mut tr = legacy_match::LegacyTracer::new(TM_RANKS);
        drive_match_workload(&mut tr);
        black_box(tr.required_series());
    }) * 1e9
        / reqs;
    let new_ns = best_secs(5, || {
        let mut sink = TracerSink {
            tracer: Tracer::new(TM_RANKS, TracerConfig::with_strategy(Strategy::None)),
            limits: Limits::new(TM_RANKS, false),
        };
        drive_match_workload(&mut sink);
        black_box(sink.tracer.live_required_series());
    }) * 1e9
        / reqs;
    (legacy_ns, new_ns)
}

/// ns per operation (insert or query) for the Eq. 3 sweep under interleaved
/// appends and series queries — the monitoring access pattern. The scratch
/// path re-sorts every interval on each query; the incremental sweep-line
/// inserts edges in place and re-accumulates without sorting.
fn gate_sweep_incremental() -> (f64, f64) {
    let n = 4_000usize;
    let query_every = 100usize;
    let iv = |i: usize| Interval {
        ts: ((i * 7919) % 1000) as f64 * 0.01,
        te: ((i * 7919) % 1000) as f64 * 0.01 + 0.5 + (i % 7) as f64 * 0.1,
        value: 1.0 + (i % 13) as f64,
    };
    let ops = (n + n / query_every) as f64;
    let scratch_ns = best_secs(3, || {
        let mut ivs: Vec<Interval> = Vec::new();
        for i in 0..n {
            ivs.push(iv(i));
            if (i + 1) % query_every == 0 {
                black_box(sweep(&ivs));
            }
        }
    }) * 1e9
        / ops;
    let incr_ns = best_secs(3, || {
        let mut inc = IncrementalSweep::new();
        for i in 0..n {
            inc.push(iv(i));
            if (i + 1) % query_every == 0 {
                black_box(inc.series());
            }
        }
    }) * 1e9
        / ops;
    (scratch_ns, incr_ns)
}

// ---------------------------------------------------------------------
// Baseline regression check

/// Wrapper capturing the raw JSON tree (the shim's `Value` itself does not
/// implement `Deserialize`).
struct RawJson(serde::Value);

impl serde::Deserialize for RawJson {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(RawJson(v.clone()))
    }
}

/// Flattens every time-like metric (lower is better) of a bench JSON tree
/// into `path -> value`. Speedup ratios are deliberately excluded.
fn time_metrics(v: &serde::Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let serde::Value::Map(top) = v else {
        return out;
    };
    for (section, val) in top {
        let serde::Value::Map(entries) = val else {
            continue;
        };
        match section.as_str() {
            "figures" => {
                for (name, fig) in entries {
                    if let serde::Value::Map(fields) = fig {
                        for (k, fv) in fields {
                            if let (true, serde::Value::Num(n)) = (k.ends_with("_s"), fv) {
                                out.push((format!("figures.{name}.{k}"), *n));
                            }
                        }
                    }
                }
            }
            "micro" => {
                for (k, mv) in entries {
                    if let (true, serde::Value::Num(n)) = (k.contains("_ns"), mv) {
                        out.push((format!("micro.{k}"), *n));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Compares the current run against a checked-in baseline; returns the list
/// of metrics that regressed beyond [`CHECK_TOLERANCE`].
fn regressions(baseline: &serde::Value, current: &serde::Value) -> Vec<String> {
    let base: HashMap<String, f64> = time_metrics(baseline).into_iter().collect();
    let mut bad = Vec::new();
    for (name, cur) in time_metrics(current) {
        if let Some(&b) = base.get(&name) {
            if b > 0.0 && cur > b * CHECK_TOLERANCE {
                bad.push(format!(
                    "{name}: {cur:.4} vs baseline {b:.4} (+{:.0}%)",
                    (cur / b - 1.0) * 100.0
                ));
            }
        }
    }
    bad
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_path = args.iter().position(|a| a == "--check").map(|i| {
        args.get(i + 1)
            .expect("--check needs a baseline path")
            .clone()
    });

    let reps = 2;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t0 = Instant::now();

    let mut entries = Vec::new();
    gate_figures(&mut entries, reps);
    eprintln!("[perfgate] micro kernels ...");
    let (wf_alloc_ns, wf_into_ns) = gate_water_fill();
    let pfs_ns = gate_pfs_burst();
    let queue_ns = gate_queue_churn();
    let (tm_legacy_ns, tm_new_ns) = gate_tracer_match();
    let (sw_scratch_ns, sw_incr_ns) = gate_sweep_incremental();

    let parallel_meaningful = cores > 1 && entries.iter().any(|e| e.jobs_n_s != e.jobs1_s);
    if !parallel_meaningful {
        eprintln!(
            "[perfgate] WARNING: jobs-N column degenerated to jobs-1 \
             (cores={cores}, jobs={}); the parallel speedup numbers are \
             meaningless on this host — set IOBTS_JOBS>=2 on a multi-core \
             machine to measure them",
            jobs()
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"default_jobs\": {},\n", jobs()));
    json.push_str(&format!(
        "  \"parallel_meaningful\": {parallel_meaningful},\n"
    ));
    json.push_str(&format!(
        "  \"profile\": \"{}\",\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    json.push_str("  \"figures\": {\n");
    for (i, e) in entries.iter().enumerate() {
        let speedup = e.jobs1_s / e.jobs_n_s.max(1e-12);
        json.push_str(&format!(
            "    \"{}\": {{\"jobs1_s\": {:.4}, \"jobsN_s\": {:.4}, \"speedup\": {:.2}}}{}\n",
            e.name,
            e.jobs1_s,
            e.jobs_n_s,
            speedup,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"micro\": {\n");
    json.push_str(&format!(
        "    \"water_fill_1024_alloc_ns\": {wf_alloc_ns:.1},\n"
    ));
    json.push_str(&format!(
        "    \"water_fill_1024_into_ns\": {wf_into_ns:.1},\n"
    ));
    json.push_str(&format!(
        "    \"water_fill_into_speedup\": {:.2},\n",
        wf_alloc_ns / wf_into_ns.max(1e-12)
    ));
    json.push_str(&format!("    \"pfs_burst_ns_per_flow\": {pfs_ns:.1},\n"));
    json.push_str(&format!(
        "    \"queue_churn_ns_per_event\": {queue_ns:.1},\n"
    ));
    json.push_str(&format!(
        "    \"tracer_match_legacy_ns_per_req\": {tm_legacy_ns:.1},\n"
    ));
    json.push_str(&format!(
        "    \"tracer_match_ns_per_req\": {tm_new_ns:.1},\n"
    ));
    json.push_str(&format!(
        "    \"tracer_match_speedup\": {:.2},\n",
        tm_legacy_ns / tm_new_ns.max(1e-12)
    ));
    json.push_str(&format!(
        "    \"sweep_scratch_ns_per_op\": {sw_scratch_ns:.1},\n"
    ));
    json.push_str(&format!(
        "    \"sweep_incremental_ns_per_op\": {sw_incr_ns:.1},\n"
    ));
    json.push_str(&format!(
        "    \"sweep_incremental_speedup\": {:.2}\n",
        sw_scratch_ns / sw_incr_ns.max(1e-12)
    ));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"gate_wall_s\": {:.1}\n",
        t0.elapsed().as_secs_f64()
    ));
    json.push_str("}\n");

    let out = std::env::var("IOBTS_BENCH_OUT").unwrap_or_else(|_| "BENCH_pr5.json".to_string());
    std::fs::write(&out, &json).expect("write bench json");
    print!("{json}");
    eprintln!("-> {out}");

    if let Some(path) = check_path {
        let base_text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let base: RawJson = serde_json::from_str(&base_text).expect("parse baseline json");
        let cur: RawJson = serde_json::from_str(&json).expect("parse current json");
        let bad = regressions(&base.0, &cur.0);
        if bad.is_empty() {
            eprintln!(
                "[perfgate] OK: no metric regressed >{:.0}% vs {path}",
                (CHECK_TOLERANCE - 1.0) * 100.0
            );
        } else {
            eprintln!("[perfgate] FAIL: regressions vs {path}:");
            for b in &bad {
                eprintln!("  {b}");
            }
            std::process::exit(1);
        }
    }
}
