//! Benchmark of the simulate → trace → aggregate pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig07 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. A *sweep* is one pass over a workload's
//! sessions at jobs=1 — what regenerating one figure costs without writing
//! its CSV. Workloads:
//!
//! * `fig07` — the WaComM time-distribution sweep of Fig. 7 (4 rank counts ×
//!   6 strategy runs): one async write per rank and iteration, so the engine
//!   (event queue, dispatch, PFS allocation) dominates;
//! * `fig11` — the HACC-IO time-distribution sweep of Fig. 11 (6 rank counts
//!   × 8 runs): synchronous header writes plus overlapped async write *and*
//!   read phases under all four strategies;
//! * `burst` — 64 small async writes outstanding per rank and phase: the
//!   tracer's tag → record matching sees far more open requests per rank,
//!   and the PFS allocator far more concurrent flows, than in either figure.
//!
//! The seed picks the per-run noise seeds (and, for `burst`, request sizes
//! and compute times); the shape of the sweep is fixed, so every seed does
//! the same amount of work.
//!
//! Set-up builds the seed's sessions and runs one warm-up sweep, three
//! times; `setup_s` is the median. The sweep then repeats for `--seconds`.
//! With `--trace 0` it runs through the public `Session` path and reports
//! the median and 80th-percentile sweep time (a 30 s run times 130–200
//! sweeps, so at least ten lie above the 80th percentile). With `--trace 1`
//! the same sessions run on a `World` whose tracer sits behind a hook-timing
//! wrapper, and the sweep's wall time is split across layers. Every reported
//! time is rescaled to a reference host speed by a calibration loop run
//! around each timed region (see [`calibrate`]); `--trace 1` also reports
//! the raw wall time and the calibration loop's time.
//!
//! Correctness: the fig07/fig11 sweeps at the figure's own seeds must
//! reproduce `results/fig07_wacomm_dist.csv` / `results/fig11_hacc_dist.csv`
//! row for row; every warm-up run must satisfy the checks in
//! [`check_run`] (Eq. 3 series against a from-scratch sweep, byte and
//! request conservation, a complete time decomposition); the three set-ups
//! must agree bit for bit; and every timed run must reproduce its warm-up
//! run's signature. The last line on stdout is one JSON object with
//! `correct`, `attempted` (session runs timed), `failed` and `metrics`.

use hpcwl::hacc::HaccConfig;
use hpcwl::wacomm::WacommConfig;
use mpisim::{
    Channel, FileId, IoErrorKind, IoHooks, Limits, Op, Program, ReqTag, RunSummary, World,
    WorldConfig,
};
use session::{ExpConfig, HaccIo, RawWorkload, Session, Wacomm, Workload};
use simcore::{SimTime, StepSeries};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tmio::{Interval, Report, Strategy, Tracer, TracerConfig};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

// ---------------------------------------------------------------------
// Workloads

#[derive(Clone, Copy, PartialEq)]
enum Bench {
    Fig07,
    Fig11,
    Burst,
}

impl Bench {
    fn parse(name: &str) -> Option<Bench> {
        match name {
            "fig07" => Some(Bench::Fig07),
            "fig11" => Some(Bench::Fig11),
            "burst" => Some(Bench::Burst),
            _ => None,
        }
    }

    /// The golden CSV the sweep reproduces at the figure's own seeds.
    fn golden(self) -> Option<&'static str> {
        match self {
            Bench::Fig07 => Some("results/fig07_wacomm_dist.csv"),
            Bench::Fig11 => Some("results/fig11_hacc_dist.csv"),
            Bench::Burst => None,
        }
    }

    /// The sweep's sessions; `run_seed(i)` is the seed of run index `i`.
    fn cases(self, bench_seed: u64, run_seed: impl Fn(usize) -> u64) -> Vec<Case> {
        match self {
            Bench::Fig07 => fig07_cases(run_seed),
            Bench::Fig11 => fig11_cases(run_seed),
            Bench::Burst => burst_cases(bench_seed, run_seed),
        }
    }
}

/// One session of a sweep, labelled like a row of the figure CSVs.
struct Case {
    ranks: usize,
    run: usize,
    strategy: &'static str,
    cfg: ExpConfig,
    kind: Kind,
}

enum Kind {
    Wacomm(WacommConfig),
    Hacc(HaccConfig),
    Raw(RawWorkload),
}

impl Case {
    fn workload(&self) -> Box<dyn Workload> {
        match &self.kind {
            Kind::Wacomm(wc) => Box::new(Wacomm::new(*wc)),
            Kind::Hacc(h) => Box::new(HaccIo::new(*h)),
            Kind::Raw(raw) => Box::new(raw.clone()),
        }
    }

    fn session(&self) -> Result<Session, String> {
        Session::builder(self.cfg.clone())
            .workload_boxed(self.workload())
            .try_build()
            .map_err(|e| e.to_string())
    }
}

/// Fig. 7: runs 0-1 direct (tol 2), 2-3 up-only (tol 1.1), 4-5 none.
fn fig07_cases(run_seed: impl Fn(usize) -> u64) -> Vec<Case> {
    let runs: [(&'static str, Strategy); 6] = [
        ("direct", Strategy::Direct { tol: 2.0 }),
        ("direct", Strategy::Direct { tol: 2.0 }),
        ("up-only", Strategy::UpOnly { tol: 1.1 }),
        ("up-only", Strategy::UpOnly { tol: 1.1 }),
        ("none", Strategy::None),
        ("none", Strategy::None),
    ];
    let mut cases = Vec::new();
    for ranks in [24, 48, 96, 192] {
        for (run, &(strategy, s)) in runs.iter().enumerate() {
            cases.push(Case {
                ranks,
                run,
                strategy,
                cfg: ExpConfig::new(ranks, s)
                    .with_seed(run_seed(run))
                    .with_record_pfs(false),
                kind: Kind::Wacomm(WacommConfig::default()),
            });
        }
    }
    cases
}

/// Fig. 11: runs 0-1 direct, 2-3 up-only, 4-5 adaptive, 6-7 none (tol 1.1),
/// 50 000 particles per rank.
fn fig11_cases(run_seed: impl Fn(usize) -> u64) -> Vec<Case> {
    let adaptive = Strategy::Adaptive {
        tol: 1.1,
        tol_i: 0.5,
    };
    let runs: [(&'static str, Strategy); 8] = [
        ("direct", Strategy::Direct { tol: 1.1 }),
        ("direct", Strategy::Direct { tol: 1.1 }),
        ("up-only", Strategy::UpOnly { tol: 1.1 }),
        ("up-only", Strategy::UpOnly { tol: 1.1 }),
        ("adaptive", adaptive),
        ("adaptive", adaptive),
        ("none", Strategy::None),
        ("none", Strategy::None),
    ];
    let hacc = HaccConfig {
        particles_per_rank: 50_000,
        ..Default::default()
    };
    let mut cases = Vec::new();
    for ranks in [1, 4, 16, 64, 96, 192] {
        for (run, &(strategy, s)) in runs.iter().enumerate() {
            cases.push(Case {
                ranks,
                run,
                strategy,
                cfg: ExpConfig::new(ranks, s)
                    .with_seed(run_seed(run))
                    .with_record_pfs(false),
                kind: Kind::Hacc(hacc),
            });
        }
    }
    cases
}

/// Phases per rank and requests outstanding per phase in `burst`.
const BURST_PHASES: usize = 16;
const BURST_REQS: usize = 64;

/// `burst`: every rank submits [`BURST_REQS`] async writes, computes, then
/// waits for each, [`BURST_PHASES`] times. Request sizes (16–256 KiB) and
/// compute times (20–60 ms) come from the benchmark seed.
fn burst_cases(bench_seed: u64, run_seed: impl Fn(usize) -> u64) -> Vec<Case> {
    let runs: [(&'static str, Strategy); 3] = [
        ("direct", Strategy::Direct { tol: 1.1 }),
        ("up-only", Strategy::UpOnly { tol: 1.1 }),
        ("none", Strategy::None),
    ];
    let mut rng = SplitMix(bench_seed ^ 0xB0B5_7EED);
    let mut cases = Vec::new();
    for ranks in [8, 16] {
        let programs: Vec<Program> = (0..ranks)
            .map(|r| {
                let file = FileId(r as u32);
                let mut ops = Vec::with_capacity(BURST_PHASES * (2 * BURST_REQS + 1));
                for p in 0..BURST_PHASES {
                    let tag = |k: usize| ReqTag((p * BURST_REQS + k) as u32);
                    for k in 0..BURST_REQS {
                        ops.push(Op::IWrite {
                            file,
                            bytes: rng.uniform(16.0 * 1024.0, 256.0 * 1024.0).round(),
                            tag: tag(k),
                        });
                    }
                    ops.push(Op::Compute {
                        seconds: rng.uniform(0.02, 0.06),
                    });
                    for k in 0..BURST_REQS {
                        ops.push(Op::Wait { tag: tag(k) });
                    }
                }
                Program::from_ops(ops)
            })
            .collect();
        let files: Vec<String> = (0..ranks).map(|r| format!("burst.{r}.dat")).collect();
        let raw = RawWorkload::new("burst", programs, files);
        for (run, &(strategy, s)) in runs.iter().enumerate() {
            cases.push(Case {
                ranks,
                run,
                strategy,
                cfg: ExpConfig::new(ranks, s)
                    .with_seed(run_seed(run))
                    .with_record_pfs(false),
                kind: Kind::Raw(raw.clone()),
            });
        }
    }
    cases
}

/// SplitMix64: the benchmark's own input generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------
// Outputs and their checks

/// What a run must reproduce exactly on every replay: the decomposition
/// percentages, the makespan, the phase count and `max_r B_r` (Eq. 3).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Sig {
    pct: [u64; 7],
    app: u64,
    phases: usize,
    required_bw: u64,
}

fn sig(summary: &RunSummary, report: &Report) -> Sig {
    Sig {
        pct: report.decomposition().percentages().map(f64::to_bits),
        app: summary.makespan().to_bits(),
        phases: report.phases.len(),
        required_bw: report.required_bandwidth().to_bits(),
    }
}

/// The figure CSV row of a run (the format of `bench::scenarios::DistRow`).
fn dist_row(case: &Case, summary: &RunSummary, report: &Report) -> String {
    let p = report.decomposition().percentages();
    format!(
        "{},{},{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.3}",
        case.ranks,
        case.run,
        case.strategy,
        p[0],
        p[1],
        p[2],
        p[3],
        p[4],
        p[5],
        p[6],
        summary.makespan()
    )
}

/// Eq. 3 from scratch: sorted `(time, ±value)` edges, removals first at
/// equal times. Returns the distinct edge times with the sum holding from
/// each.
fn scratch_sweep(intervals: &[Interval]) -> Vec<(f64, f64)> {
    let mut edges: Vec<(f64, f64)> = intervals
        .iter()
        .filter(|iv| iv.te > iv.ts)
        .flat_map(|iv| [(iv.ts, iv.value), (iv.te, -iv.value)])
        .collect();
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut sum = 0.0;
    for (t, d) in edges {
        sum += d;
        match out.last_mut() {
            Some(last) if last.0 == t => last.1 = sum,
            _ => out.push((t, sum)),
        }
    }
    out
}

/// Checks `series` against the from-scratch sweep of `intervals` at every
/// edge time, to a tolerance relative to the largest interval value.
fn check_series(what: &str, series: &StepSeries, intervals: &[Interval]) -> Result<(), String> {
    let scale = intervals
        .iter()
        .map(|iv| iv.value.abs())
        .fold(0.0, f64::max);
    let tol = 1e-7 * scale.max(1e-300);
    for (t, want) in scratch_sweep(intervals) {
        let got = series.value_at(SimTime::from_secs(t));
        if (got - want).abs() > tol {
            return Err(format!("{what} at t={t}: {got} != from-scratch {want}"));
        }
    }
    Ok(())
}

fn rel_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Invariants of one completed run of `programs`.
fn check_run(programs: &[Program], summary: &RunSummary, report: &Report) -> Result<(), String> {
    if !summary.op_errors.is_empty() {
        return Err(format!("{} I/O ops failed", summary.op_errors.len()));
    }
    if summary.makespan() <= 0.0 || summary.finished_at.len() != programs.len() {
        return Err("run did not finish every rank".into());
    }
    let pct_sum: f64 = report.decomposition().percentages().iter().sum();
    if (pct_sum - 100.0).abs() > 1e-6 {
        return Err(format!("decomposition sums to {pct_sum}%"));
    }
    // Every async request is matched to exactly one span and one phase.
    let (mut requests, mut bytes) = (0usize, 0.0f64);
    for op in programs.iter().flat_map(|p| p.ops()) {
        if let Op::IWrite { bytes: b, .. } | Op::IRead { bytes: b, .. } = op {
            requests += 1;
            bytes += b;
        }
    }
    let phase_reqs: usize = report.phases.iter().map(|p| p.n_requests).sum();
    let phase_bytes: f64 = report.phases.iter().map(|p| p.bytes).sum();
    let span_bytes: f64 = report.spans.iter().map(|s| s.bytes).sum();
    if report.spans.len() != requests || phase_reqs != requests {
        return Err(format!(
            "{requests} async requests but {} spans and {phase_reqs} phase requests",
            report.spans.len()
        ));
    }
    if !rel_eq(phase_bytes, bytes) || !rel_eq(span_bytes, bytes) {
        return Err(format!(
            "{bytes} async bytes but {phase_bytes} in phases and {span_bytes} in spans"
        ));
    }
    // The streamed Eq. 3 series against a from-scratch sweep.
    let required: Vec<Interval> = report
        .phases
        .iter()
        .map(|p| Interval {
            ts: p.ts,
            te: p.te,
            value: p.b_required,
        })
        .collect();
    let limit: Vec<Interval> = report
        .phases
        .iter()
        .filter_map(|p| {
            p.limit_during.map(|l| Interval {
                ts: p.ts,
                te: p.te,
                value: l,
            })
        })
        .collect();
    let throughput: Vec<Interval> = report
        .windows
        .iter()
        .map(|w| Interval {
            ts: w.start,
            te: w.end,
            value: w.throughput(),
        })
        .collect();
    check_series("B_r", report.required_series(), &required)?;
    check_series("B_L", report.limit_series(), &limit)?;
    check_series("T", report.throughput_series(), &throughput)
}

/// Runs the sweep at the figure's own seeds and compares it row for row
/// with the checked-in CSV.
fn check_golden(bench: Bench) -> Result<(), String> {
    let Some(path) = bench.golden() else {
        return Ok(());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let want: Vec<&str> = text.lines().skip(1).collect();
    let cases = bench.cases(0, |run| 2024 + run as u64);
    if want.len() != cases.len() {
        return Err(format!(
            "{path}: {} rows, sweep has {}",
            want.len(),
            cases.len()
        ));
    }
    for (case, want) in cases.iter().zip(want) {
        let out = case.session()?.try_run().map_err(|e| e.to_string())?;
        let got = dist_row(case, &out.summary, &out.report);
        if got != want {
            return Err(format!("{path}: got `{got}`, want `{want}`"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Set-up and the two run paths

/// A built sweep plus the signatures of its warm-up run.
struct Plan {
    cases: Vec<Case>,
    sessions: Vec<Session>,
    reference: Vec<Sig>,
}

/// Builds the seed's sessions and runs the warm-up sweep, checking every
/// run's invariants.
fn set_up(bench: Bench, seed: u64) -> Result<Plan, String> {
    let base = SplitMix(seed).next() % 1_000_000_007;
    let cases = bench.cases(seed, |run| base + run as u64);
    let sessions = cases
        .iter()
        .map(Case::session)
        .collect::<Result<Vec<_>, _>>()?;
    let mut reference = Vec::with_capacity(cases.len());
    for (case, s) in cases.iter().zip(&sessions) {
        let out = s.try_run().map_err(|e| e.to_string())?;
        let programs = case.workload().programs(case.cfg.n_ranks);
        check_run(&programs, &out.summary, &out.report)
            .map_err(|e| format!("{} ranks, run {}: {e}", case.ranks, case.run))?;
        reference.push(sig(&out.summary, &out.report));
    }
    Ok(Plan {
        cases,
        sessions,
        reference,
    })
}

/// Wall time split across the layers of one traced sweep.
#[derive(Default)]
struct Layers {
    /// Program generation and `World` construction.
    build: Duration,
    /// `World::try_run` minus the time inside tracer hooks: the simcore
    /// event queue, mpisim dispatch and pfsim bandwidth allocation.
    engine: Duration,
    /// Inside the tmio tracer hooks (request matching, phase closing,
    /// strategy updates).
    hooks: Duration,
    /// Eq. 3: the three live series queries after the run.
    eq3: Duration,
    /// `into_report` and the time decomposition.
    report: Duration,
    /// Tracer hook calls.
    calls: u64,
}

/// The tracer behind a wrapper that times every hook call. Every `IoHooks`
/// method is forwarded; a traced run must reproduce the untraced run's
/// signature, which catches a hook this wrapper fails to forward.
struct Timed {
    tracer: Tracer,
    busy: Duration,
    calls: u64,
}

impl Timed {
    fn time<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.tracer);
        self.busy += t0.elapsed();
        self.calls += 1;
        r
    }
}

impl IoHooks for Timed {
    fn on_async_submit(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        self.time(|h| h.on_async_submit(t, rank, tag, bytes, channel, limits))
    }

    fn on_request_complete(&mut self, t: SimTime, rank: usize, tag: ReqTag) {
        self.time(|h| h.on_request_complete(t, rank, tag))
    }

    fn on_wait_enter(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        already_done: bool,
        limits: &mut Limits,
    ) -> f64 {
        self.time(|h| h.on_wait_enter(t, rank, tag, already_done, limits))
    }

    fn on_wait_exit(&mut self, t: SimTime, rank: usize, tag: ReqTag, limits: &mut Limits) -> f64 {
        self.time(|h| h.on_wait_exit(t, rank, tag, limits))
    }

    fn on_sync_begin(
        &mut self,
        t: SimTime,
        rank: usize,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        self.time(|h| h.on_sync_begin(t, rank, bytes, channel, limits))
    }

    fn on_sync_end(
        &mut self,
        t: SimTime,
        rank: usize,
        bytes: f64,
        channel: Channel,
        limits: &mut Limits,
    ) -> f64 {
        self.time(|h| h.on_sync_end(t, rank, bytes, channel, limits))
    }

    fn on_test(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        done: bool,
        limits: &mut Limits,
    ) -> f64 {
        self.time(|h| h.on_test(t, rank, tag, done, limits))
    }

    fn on_io_retry(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: Option<ReqTag>,
        kind: IoErrorKind,
        retry: u32,
        backoff: f64,
    ) {
        self.time(|h| h.on_io_retry(t, rank, tag, kind, retry, backoff))
    }

    fn on_op_error(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: Option<ReqTag>,
        kind: IoErrorKind,
        attempts: u32,
    ) {
        self.time(|h| h.on_op_error(t, rank, tag, kind, attempts))
    }

    fn on_rank_done(&mut self, t: SimTime, rank: usize) {
        self.time(|h| h.on_rank_done(t, rank))
    }
}

/// The world and tracer configuration a `Session` derives from `cfg`.
fn world_config(cfg: &ExpConfig) -> WorldConfig {
    let mut wc = WorldConfig::new(cfg.n_ranks)
        .with_limiter(cfg.strategy.limits())
        .with_compute_noise(cfg.compute_noise)
        .with_seed(cfg.seed);
    wc.pfs = cfg.pfs;
    wc.subreq_bytes = cfg.subreq_bytes;
    wc.capacity_noise = cfg.capacity_noise;
    wc.interference_alpha = cfg.interference_alpha;
    wc.limit_sync_ops = cfg.limit_sync_ops;
    wc.burst_buffer = cfg.burst_buffer;
    wc.record_pfs = cfg.record_pfs;
    wc.faults = cfg.faults.clone();
    wc.watchdog = cfg.watchdog;
    wc
}

fn tracer_config(cfg: &ExpConfig) -> TracerConfig {
    let mut tc = TracerConfig::with_strategy(cfg.strategy);
    tc.te_mode = cfg.te_mode;
    tc.aggregation = cfg.aggregation;
    if let Some(peri) = cfg.peri_call_overhead {
        tc.peri_call_overhead = peri;
    }
    tc
}

/// One session run with each layer boundary timed.
fn run_traced(case: &Case, layers: &mut Layers) -> Result<Sig, String> {
    let cfg = &case.cfg;
    let t0 = Instant::now();
    let workload = case.workload();
    let hooks = Timed {
        tracer: Tracer::new(cfg.n_ranks, tracer_config(cfg)),
        busy: Duration::ZERO,
        calls: 0,
    };
    let mut world = World::new(world_config(cfg), workload.programs(cfg.n_ranks), hooks);
    for f in workload.files(cfg.n_ranks) {
        world.create_file(&f);
    }
    let t1 = Instant::now();
    let summary = world.try_run().map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let Timed {
        mut tracer,
        busy,
        calls,
    } = world.into_hooks();
    let t3 = Instant::now();
    black_box(tracer.live_required_series());
    black_box(tracer.live_limit_series());
    black_box(tracer.live_throughput_series());
    let t4 = Instant::now();
    let report = tracer.into_report();
    let s = sig(&summary, &report);
    let t5 = Instant::now();
    layers.build += t1 - t0;
    layers.engine += (t2 - t1).saturating_sub(busy);
    layers.hooks += busy;
    layers.eq3 += t4 - t3;
    layers.report += t5 - t4;
    layers.calls += calls;
    Ok(s)
}

// ---------------------------------------------------------------------
// Host-speed calibration
//
// The host is shared: neighbours' load slows this process by up to ~45 %
// for seconds to minutes at a time. Every timed region is therefore
// bracketed by a fixed calibration loop, and times are reported rescaled to
// the loop's reference duration — "ms at reference host speed". The loop
// shares no code with the simulator, so a change to the program cannot move
// it. On a 2-vCPU KVM guest (Intel Xeon, 2.1 GHz) this cut the run-to-run
// spread (interquartile range over median) of the fig11 sweep time from
// 11 % to 4 %; it removes about two thirds of a host slow-down, not all.

/// Events the calibration loop processes.
const CALIB_EVENTS: usize = 40_000;
/// The calibration loop's wall time on an idle core of the reference host
/// (Intel Xeon, 2.1 GHz); adjusted times are scaled to it.
const CALIB_REF_MS: f64 = 5.0;

/// A fixed discrete-event loop — a 8192-entry binary heap of timed events
/// (L2-resident, like a simulation's queue and per-rank state), f64
/// accumulation and a recycled vector. Returns its wall time in ms.
fn calibrate() -> f64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let t0 = Instant::now();
    let mut rng = SplitMix(0xCA11_B8A7);
    let mut heap = BinaryHeap::with_capacity(8192);
    for id in 0..8192u32 {
        heap.push(Reverse((rng.next() % 4096, id)));
    }
    let mut trail: Vec<f64> = Vec::with_capacity(1024);
    let mut acc = 0.0f64;
    for _ in 0..CALIB_EVENTS {
        let Some(Reverse((t, id))) = heap.pop() else {
            break;
        };
        acc += (t as f64).sqrt() * 1e-3;
        trail.push(acc);
        if trail.len() == trail.capacity() {
            acc = trail.iter().sum::<f64>() / trail.len() as f64;
            trail.clear();
        }
        heap.push(Reverse((t + 1 + rng.next() % 4096, id)));
    }
    black_box(acc);
    ms(t0.elapsed())
}

/// Scale factor to reference host speed for work timed between two
/// calibration runs taking `before` and `after` ms.
fn host_factor(before: f64, after: f64) -> f64 {
    CALIB_REF_MS / (0.5 * (before + after))
}

// ---------------------------------------------------------------------
// Statistics and output

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let bench = Bench::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got `{t}`")),
    };
    Ok(Args {
        bench,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<String, String> {
    check_golden(args.bench)?;

    calibrate(); // warm-up: page in the loop's heap and code
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut plans = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let before = calibrate();
        let t0 = Instant::now();
        let plan = set_up(args.bench, args.seed)?;
        let secs = t0.elapsed().as_secs_f64();
        setup_s.push(secs * host_factor(before, calibrate()));
        plans.push(plan);
    }
    let plan = plans.pop().ok_or("no set-up ran")?;
    let mut correct = plans.iter().all(|p| p.reference == plan.reference);
    if !correct {
        eprintln!("perfbench: set-ups disagree: the sweep is not deterministic");
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Per sweep: raw wall ms, host factor, layer split (trace mode).
    let mut sweeps: Vec<(f64, f64, Layers)> = Vec::new();
    let mut before = calibrate();
    while sweeps.is_empty() || Instant::now() < deadline {
        let mut lay = Layers::default();
        let t0 = Instant::now();
        for (i, (case, session)) in plan.cases.iter().zip(&plan.sessions).enumerate() {
            let got = if args.trace {
                run_traced(case, &mut lay)
            } else {
                session
                    .try_run()
                    .map(|out| sig(&out.summary, &out.report))
                    .map_err(|e| e.to_string())
            };
            attempted += 1;
            if got.as_ref() != Ok(&plan.reference[i]) {
                if failed == 0 {
                    eprintln!(
                        "perfbench: {} ranks, run {}: {got:?} != warm-up {:?}",
                        case.ranks, case.run, plan.reference[i]
                    );
                }
                failed += 1;
            }
        }
        let wall = ms(t0.elapsed());
        let after = calibrate();
        sweeps.push((wall, host_factor(before, after), lay));
        before = after;
    }
    correct &= failed == 0;

    let adjusted = |f: &dyn Fn(&(f64, f64, Layers)) -> f64| -> Vec<f64> {
        sweeps.iter().map(|s| f(s) * s.1).collect()
    };
    let sweep_ms = adjusted(&|s| s.0);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let layer = |f: fn(&Layers) -> Duration| median(&adjusted(&|s| ms(f(&s.2))));
        metrics.push(("engine_ms", layer(|l| l.engine), "ms"));
        metrics.push(("tmio_hooks_ms", layer(|l| l.hooks), "ms"));
        metrics.push((
            "hook_ns_per_call",
            median(&adjusted(&|s| {
                s.2.hooks.as_secs_f64() * 1e9 / s.2.calls.max(1) as f64
            })),
            "ns",
        ));
        metrics.push(("eq3_sweep_ms", layer(|l| l.eq3), "ms"));
        metrics.push(("report_ms", layer(|l| l.report), "ms"));
        metrics.push(("build_ms", layer(|l| l.build), "ms"));
        metrics.push(("traced_sweep_ms", median(&sweep_ms), "ms"));
        let raw: Vec<f64> = sweeps.iter().map(|s| s.0).collect();
        metrics.push(("traced_sweep_wall_ms", median(&raw), "ms"));
        let calib: Vec<f64> = sweeps.iter().map(|s| CALIB_REF_MS / s.1).collect();
        metrics.push(("calib_ms", median(&calib), "ms"));
        metrics.push(("hook_calls", sweeps[0].2.calls as f64, "count"));
        let phases: usize = plan.reference.iter().map(|s| s.phases).sum();
        metrics.push(("phases", phases as f64, "count"));
        metrics.push(("sweeps", sweeps.len() as f64, "count"));
    } else {
        metrics.push(("sweep_ms", median(&sweep_ms), "ms"));
        metrics.push(("sweep_p80_ms", quantile(&sweep_ms, 0.8), "ms"));
        metrics.push(("setup_s", median(&setup_s), "s"));
    }
    let raw_s: f64 = sweeps.iter().map(|s| s.0).sum::<f64>() / 1e3;
    eprintln!(
        "perfbench: {} sweeps of {} sessions, {raw_s:.1} s wall",
        sweeps.len(),
        plan.cases.len()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fig07|fig11|burst> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
