//! The TMIO tracer: PMPI-style interception of asynchronous MPI-IO.
//!
//! Implements [`mpisim::IoHooks`]. For every rank it maintains the paper's
//! two monitoring queues (Sec. IV-A):
//!
//! * the **bandwidth queue** collects requests of the current I/O phase;
//!   the phase closes when its *first* request reaches the matching wait
//!   (`te_{i,j}`), yielding the required bandwidth `B_{i,j}` =
//!   Σ_k b_k/(te − ts_k) (sum — the paper's choice — or mean);
//! * the **throughput queue** measures `T_{i,j}`: it opens when the first
//!   request is submitted and closes when the last completes and the queue
//!   empties.
//!
//! At each phase closure the configured [`Strategy`] turns `B_{i,j}` into the
//! throughput limit for phase *j+1* and pushes it into the runtime through
//! [`mpisim::Limits`] — the boundary to the "modified MPICH".
//!
//! # Streaming pipeline
//!
//! The tracer sits on the simulation's per-event hot path, so its matching
//! and record storage are allocation-free in steady state:
//!
//! * each rank keeps its open request spans in one [`simcore::TagMap`]
//!   keyed by [`ReqTag`] — no hashing; a rank's span memory follows its
//!   live tags (a table sized by the peak number of open spans), not the
//!   highest tag it issued;
//! * closed phase/window/span/sync records are pushed as finished rows into
//!   `Vec`s pre-sized with `with_capacity` — exactly, when the workload
//!   states its [`RecordCounts`] ([`Tracer::with_counts`]), so no table
//!   reallocates mid-run; [`Tracer::into_report`] moves them into the
//!   report without copying;
//! * the application-level Eq. 3 aggregates (`B_r`, `B_L`, `T`) are
//!   maintained *online* by [`IncrementalSweep`]s: a phase or throughput
//!   window opens its interval at its first submit and closes it at its
//!   end. Hooks fire in nondecreasing simulation time, so both edge logs
//!   stay time-ordered and every query — mid-run or at the final report —
//!   is one streaming merge with no sort. The report takes over the three
//!   sweeps and builds each series only when it is first queried.

use crate::regions::{IncrementalSweep, Opened};
use crate::report::LazySeries;
use crate::strategy::{Strategy, StrategyState};
use mpisim::{Channel, IoHooks, Limits, ReqTag};
use simcore::StepSeries;
use simcore::{Invariant, SimTime, TagMap};

/// How per-request bandwidths combine into the rank metric `B_{i,j}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregation {
    /// Sum of per-request bandwidths ("results in higher values", the
    /// paper's choice).
    Sum,
    /// Mean of per-request bandwidths (the TMIO alternative).
    Mean,
}

/// When the required-bandwidth window ends (Sec. IV-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TeMode {
    /// `te` = when the *first* queued request reaches its matching wait
    /// (higher B; the paper's choice).
    FirstWait,
    /// `te` = when the *last* queued request reaches its matching wait
    /// (the TMIO option the paper mentions but does not use).
    LastWait,
}

/// TMIO's post-runtime overhead for a run with `n` ranks, seconds: the
/// `MPI_Finalize` gather that collects per-rank records, which grows with
/// the rank count (Fig. 6).
fn post_overhead(n: usize) -> f64 {
    /// Fixed cost (file creation, serialization), seconds.
    const BASE: f64 = 0.02;
    /// Per-tree-level latency of the gather, seconds.
    const LATENCY: f64 = 1e-4;
    /// Per-rank cost of collecting one rank's records, seconds.
    const PER_RANK: f64 = 250e-6;
    let levels = (n as f64).log2().ceil().max(1.0);
    BASE + LATENCY * levels + PER_RANK * n as f64
}

/// Tracer configuration.
#[derive(Clone, Copy, Debug)]
pub struct TracerConfig {
    /// Limit strategy fed back into the runtime.
    pub strategy: Strategy,
    /// Peri-runtime overhead injected per intercepted call, seconds.
    pub peri_call_overhead: f64,
    /// Per-request aggregation into `B_{i,j}`.
    pub aggregation: Aggregation,
    /// Window-end semantics.
    pub te_mode: TeMode,
}

impl TracerConfig {
    /// Paper-default configuration with the given strategy
    /// ([`Strategy::None`] traces without limiting).
    pub fn with_strategy(strategy: Strategy) -> Self {
        TracerConfig {
            strategy,
            peri_call_overhead: 2e-6,
            aggregation: Aggregation::Sum,
            te_mode: TeMode::FirstWait,
        }
    }
}

/// One closed I/O phase of one rank: the `B_{i,j}` record.
#[derive(Clone, Copy, Debug)]
pub struct PhaseRecord {
    /// Rank index i.
    pub rank: usize,
    /// Phase index j.
    pub phase: usize,
    /// Window start: submit time of the first request, seconds.
    pub ts: f64,
    /// Window end per the configured [`TeMode`], seconds.
    pub te: f64,
    /// Total bytes of the phase's requests.
    pub bytes: f64,
    /// Required bandwidth `B_{i,j}`, bytes/s.
    pub b_required: f64,
    /// Limit in effect *while* this phase ran (set after phase j−1).
    pub limit_during: Option<f64>,
    /// Limit emitted for the next phase (None for [`Strategy::None`]).
    pub limit_next: Option<f64>,
    /// Number of requests aggregated into this phase.
    pub n_requests: usize,
}

/// One closed throughput window: the `T_{i,j}` record.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputWindow {
    /// Rank index.
    pub rank: usize,
    /// First submit time, seconds.
    pub start: f64,
    /// Last completion time (queue drained), seconds.
    pub end: f64,
    /// Bytes moved inside the window.
    pub bytes: f64,
}

impl ThroughputWindow {
    /// The throughput value `T` of this window, bytes/s.
    pub fn throughput(&self) -> f64 {
        let dt = (self.end - self.start).max(1e-12);
        self.bytes / dt
    }
}

/// Lifetime of one asynchronous request, for exploit/lost accounting.
#[derive(Clone, Copy, Debug)]
pub struct AsyncSpan {
    /// Rank index.
    pub rank: usize,
    /// Submit time, seconds.
    pub submit: f64,
    /// I/O-thread completion time, seconds.
    pub complete: f64,
    /// When the matching wait was entered, seconds.
    pub wait_enter: f64,
    /// Request payload bytes.
    pub bytes: f64,
    /// Direction.
    pub channel: Channel,
}

impl AsyncSpan {
    /// Background ("exploit") time: the part of the transfer hidden behind
    /// the rank's other work.
    pub fn exploit(&self) -> f64 {
        (self.complete.min(self.wait_enter) - self.submit).max(0.0)
    }

    /// Blocking ("lost") time spent in the matching wait.
    pub fn lost(&self) -> f64 {
        (self.complete - self.wait_enter).max(0.0)
    }
}

/// One blocking I/O interval (sync tracing).
#[derive(Clone, Copy, Debug)]
pub struct SyncInterval {
    /// Rank index.
    pub rank: usize,
    /// Call entry time, seconds.
    pub begin: f64,
    /// Return time, seconds.
    pub end: f64,
    /// Bytes.
    pub bytes: f64,
    /// Direction.
    pub channel: Channel,
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    tag: ReqTag,
    bytes: f64,
    ts: SimTime,
}

/// One open async request span, kept in its rank's tag map until both the
/// completion and the matching wait have been observed.
#[derive(Clone, Copy)]
struct OpenSpan {
    submit: SimTime,
    complete: Option<SimTime>,
    wait_enter: Option<SimTime>,
    bytes: f64,
    channel: Channel,
}

struct RankTrace {
    phase: usize,
    queue: Vec<Pending>,
    waited: Vec<ReqTag>,
    /// Tag -> open span of each outstanding request.
    spans: TagMap<OpenSpan>,
    tq_outstanding: usize,
    tq_start: SimTime,
    tq_bytes: f64,
    strategy: StrategyState,
    sync_begin: SimTime,
    /// The current phase's open `B` and `B_L` intervals and the open
    /// throughput window's `T` interval.
    req_open: Option<Opened>,
    lim_open: Option<Opened>,
    thr_open: Option<Opened>,
}

impl RankTrace {
    fn new() -> Self {
        RankTrace {
            phase: 0,
            queue: Vec::with_capacity(8),
            waited: Vec::with_capacity(8),
            spans: TagMap::default(),
            tq_outstanding: 0,
            tq_start: SimTime::ZERO,
            tq_bytes: 0.0,
            strategy: StrategyState::default(),
            sync_begin: SimTime::ZERO,
            req_open: None,
            lim_open: None,
            thr_open: None,
        }
    }
}

/// The TMIO tracer. Register as the world's hooks, run, then call
/// [`Tracer::into_report`].
pub struct Tracer {
    cfg: TracerConfig,
    ranks: Vec<RankTrace>,
    /// Finished records, in the order they closed: the report's rows.
    phases: Vec<PhaseRecord>,
    windows: Vec<ThroughputWindow>,
    spans: Vec<AsyncSpan>,
    syncs: Vec<SyncInterval>,
    /// Streaming Eq. 3 aggregates, opened at each phase/window's first
    /// submit and closed at its end.
    req_sweep: IncrementalSweep,
    lim_sweep: IncrementalSweep,
    thr_sweep: IncrementalSweep,
    /// Resident per-rank end times (the finalize gather's scratch).
    rank_end: Vec<f64>,
    faults: Vec<crate::report::FaultEventRecord>,
    retry_time: f64,
    calls: u64,
}

/// How many requests a run issues, summed over its ranks: enough to size
/// every record table of the [`Tracer`] once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordCounts {
    /// Asynchronous requests. Each is one span and at most one phase, one
    /// throughput window and one interval of each Eq. 3 sweep.
    pub async_requests: usize,
    /// Blocking reads and writes: one sync interval each.
    pub sync_ops: usize,
}

impl Tracer {
    /// Creates a tracer for `n_ranks` ranks, its record tables pre-sized
    /// for a typical multi-phase run (16 async requests and 4 blocking
    /// calls per rank); they grow geometrically past this without churn.
    pub fn new(n_ranks: usize, cfg: TracerConfig) -> Self {
        let counts = RecordCounts {
            async_requests: n_ranks * 16,
            sync_ops: n_ranks * 4,
        };
        Self::with_counts(n_ranks, cfg, counts)
    }

    /// Creates a tracer whose record tables hold `counts` records without
    /// reallocating. The `B_L` edge log is sized only when the strategy
    /// limits, the only case that fills it.
    pub fn with_counts(n_ranks: usize, cfg: TracerConfig, counts: RecordCounts) -> Self {
        let cap = counts.async_requests;
        let lim_cap = if cfg.strategy.limits() { cap } else { 0 };
        Tracer {
            cfg,
            ranks: (0..n_ranks).map(|_| RankTrace::new()).collect(),
            phases: Vec::with_capacity(cap),
            windows: Vec::with_capacity(cap),
            spans: Vec::with_capacity(cap),
            syncs: Vec::with_capacity(counts.sync_ops),
            req_sweep: IncrementalSweep::with_capacity(cap),
            lim_sweep: IncrementalSweep::with_capacity(lim_cap),
            thr_sweep: IncrementalSweep::with_capacity(cap),
            rank_end: vec![0.0; n_ranks],
            faults: Vec::new(),
            retry_time: 0.0,
            calls: 0,
        }
    }

    /// Live application-level required-bandwidth series `B_r` over the
    /// phases closed *so far* (the online view of Eq. 3; the report serves
    /// the same series after the run).
    pub fn live_required_series(&mut self) -> &StepSeries {
        self.req_sweep.series()
    }

    /// Live application-level limit series `B_L` (closed phases so far).
    pub fn live_limit_series(&mut self) -> &StepSeries {
        self.lim_sweep.series()
    }

    /// Live application-level throughput series `T` (closed windows so far).
    pub fn live_throughput_series(&mut self) -> &StepSeries {
        self.thr_sweep.series()
    }

    fn call_overhead(&mut self) -> f64 {
        self.calls += 1;
        self.cfg.peri_call_overhead
    }

    /// Closes rank `rank`'s current phase at `te`, computing `B_{i,j}` and
    /// updating the limit.
    fn close_phase(&mut self, rank: usize, te: SimTime, limits: &mut Limits) {
        let cfg = self.cfg;
        let rt = &mut self.ranks[rank];
        if rt.queue.is_empty() {
            return;
        }
        let te_s = te.as_secs();
        let mut b_sum = 0.0;
        let mut bytes = 0.0;
        for p in &rt.queue {
            let dt = (te_s - p.ts.as_secs()).max(1e-9);
            b_sum += p.bytes / dt;
            bytes += p.bytes;
        }
        let n = rt.queue.len();
        let b = match cfg.aggregation {
            Aggregation::Sum => b_sum,
            Aggregation::Mean => b_sum / n as f64,
        };
        let limit_during = rt
            .strategy
            .current_limit()
            .filter(|_| cfg.strategy.limits());
        let limit_next = rt.strategy.next_limit(cfg.strategy, b);
        if let Some(l) = limit_next {
            limits.set(rank, Some(l));
        }
        let ts = rt.queue[0].ts.as_secs();
        let phase = rt.phase;
        rt.phase += 1;
        rt.queue.clear();
        rt.waited.clear();
        let req = rt
            .req_open
            .take()
            .invariant("an open phase has a B interval");
        // Without a limit in effect the B_L interval is dropped: a hole.
        let lim = rt.lim_open.take();
        self.phases.push(PhaseRecord {
            rank,
            phase,
            ts,
            te: te_s,
            bytes,
            b_required: b,
            limit_during,
            limit_next,
            n_requests: n,
        });
        self.req_sweep.close(req, te_s, b);
        if let (Some(h), Some(l)) = (lim, limit_during) {
            self.lim_sweep.close(h, te_s, l);
        }
    }

    /// Finalizes and returns the report. `n_ranks` post-overhead is modeled
    /// here, mirroring TMIO's `MPI_Finalize` aggregation. The record rows
    /// and the three edge logs move into the report as they are; each
    /// Eq. 3 series is built from its log on the report's first query.
    pub fn into_report(self) -> crate::report::Report {
        let n_ranks = self.ranks.len();
        crate::report::Report {
            n_ranks,
            strategy_name: self.cfg.strategy.name().to_string(),
            phases: self.phases,
            windows: self.windows,
            spans: self.spans,
            syncs: self.syncs,
            rank_end: self.rank_end,
            calls: self.calls,
            peri_overhead: self.calls as f64 * self.cfg.peri_call_overhead,
            post_overhead: post_overhead(n_ranks),
            faults: self.faults,
            retry_time: self.retry_time,
            required: LazySeries::new(self.req_sweep),
            limit: LazySeries::new(self.lim_sweep),
            throughput: LazySeries::new(self.thr_sweep),
            decomposition_cache: std::sync::OnceLock::new(),
        }
    }
}

impl IoHooks for Tracer {
    fn on_async_submit(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        bytes: f64,
        channel: Channel,
        _limits: &mut Limits,
    ) -> f64 {
        let rt = &mut self.ranks[rank];
        if rt.queue.is_empty() {
            // The first submit opens the phase's Eq. 3 intervals.
            rt.req_open = Some(self.req_sweep.open(t.as_secs()));
            if self.cfg.strategy.limits() {
                rt.lim_open = Some(self.lim_sweep.open(t.as_secs()));
            }
        }
        rt.queue.push(Pending { tag, bytes, ts: t });
        if rt.tq_outstanding == 0 {
            rt.tq_start = t;
            rt.tq_bytes = 0.0;
            rt.thr_open = Some(self.thr_sweep.open(t.as_secs()));
        }
        rt.tq_outstanding += 1;
        rt.tq_bytes += bytes;
        // A resubmitted tag displaces (and drops) its forgotten predecessor.
        rt.spans.insert(
            tag.0,
            OpenSpan {
                submit: t,
                complete: None,
                wait_enter: None,
                bytes,
                channel,
            },
        );
        self.call_overhead()
    }

    fn on_request_complete(&mut self, t: SimTime, rank: usize, tag: ReqTag) {
        if let Some(span) = self.ranks[rank].spans.get_mut(tag.0) {
            span.complete = Some(t);
        }
        self.try_close_span(rank, tag);
        let rt = &mut self.ranks[rank];
        debug_assert!(rt.tq_outstanding > 0);
        rt.tq_outstanding -= 1;
        if rt.tq_outstanding == 0 {
            let start = rt.tq_start.as_secs();
            let end = t.as_secs();
            let bytes = rt.tq_bytes;
            let window = rt
                .thr_open
                .take()
                .invariant("an open window has a T interval");
            self.windows.push(ThroughputWindow {
                rank,
                start,
                end,
                bytes,
            });
            self.thr_sweep
                .close(window, end, bytes / (end - start).max(1e-12));
        }
    }

    fn on_wait_enter(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: ReqTag,
        _already_done: bool,
        limits: &mut Limits,
    ) -> f64 {
        if let Some(span) = self.ranks[rank].spans.get_mut(tag.0) {
            span.wait_enter = Some(t);
        }
        self.try_close_span(rank, tag);
        let rt = &mut self.ranks[rank];
        let close = match self.cfg.te_mode {
            TeMode::FirstWait => rt.queue.first().is_some_and(|p| p.tag == tag),
            TeMode::LastWait => {
                if rt.queue.iter().any(|p| p.tag == tag) {
                    rt.waited.push(tag);
                }
                !rt.queue.is_empty() && rt.queue.iter().all(|p| rt.waited.contains(&p.tag))
            }
        };
        if close {
            self.close_phase(rank, t, limits);
        }
        self.call_overhead()
    }

    fn on_wait_exit(
        &mut self,
        _t: SimTime,
        _rank: usize,
        _tag: ReqTag,
        _limits: &mut Limits,
    ) -> f64 {
        self.call_overhead()
    }

    fn on_sync_begin(
        &mut self,
        t: SimTime,
        rank: usize,
        _bytes: f64,
        _channel: Channel,
        _limits: &mut Limits,
    ) -> f64 {
        self.ranks[rank].sync_begin = t;
        self.call_overhead()
    }

    fn on_sync_end(
        &mut self,
        t: SimTime,
        rank: usize,
        bytes: f64,
        channel: Channel,
        _limits: &mut Limits,
    ) -> f64 {
        let begin = self.ranks[rank].sync_begin;
        self.syncs.push(SyncInterval {
            rank,
            begin: begin.as_secs(),
            end: t.as_secs(),
            bytes,
            channel,
        });
        self.call_overhead()
    }

    fn on_io_retry(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: Option<ReqTag>,
        kind: simcore::IoErrorKind,
        retry: u32,
        backoff: f64,
    ) {
        self.retry_time += backoff;
        self.faults.push(crate::report::FaultEventRecord {
            t: t.as_secs(),
            rank,
            tag: tag.map(|t| t.0),
            kind: kind.name().to_string(),
            code: kind.code(),
            retry,
            backoff,
            terminal: false,
        });
    }

    fn on_op_error(
        &mut self,
        t: SimTime,
        rank: usize,
        tag: Option<ReqTag>,
        kind: simcore::IoErrorKind,
        attempts: u32,
    ) {
        self.faults.push(crate::report::FaultEventRecord {
            t: t.as_secs(),
            rank,
            tag: tag.map(|t| t.0),
            kind: kind.name().to_string(),
            code: kind.code(),
            retry: attempts,
            backoff: 0.0,
            terminal: true,
        });
    }

    fn on_rank_done(&mut self, t: SimTime, rank: usize) {
        self.rank_end[rank] = t.as_secs();
    }
}

impl Tracer {
    /// Emits the finished [`AsyncSpan`] once both completion and wait-enter
    /// are known.
    fn try_close_span(&mut self, rank: usize, tag: ReqTag) {
        let open = &mut self.ranks[rank].spans;
        let Some(
            &s @ OpenSpan {
                complete: Some(complete),
                wait_enter: Some(wait_enter),
                ..
            },
        ) = open.get(tag.0)
        else {
            return;
        };
        open.remove(tag.0);
        self.spans.push(AsyncSpan {
            rank,
            submit: s.submit.as_secs(),
            complete: complete.as_secs(),
            wait_enter: wait_enter.as_secs(),
            bytes: s.bytes,
            channel: s.channel,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcwl::{hacc::HaccConfig, wacomm::WacommConfig};
    use mpisim::{FileId, Op, Program, World, WorldConfig};
    use simcore::{CancelSpec, FaultPlan, IoErrorKind, IoErrorModel, Noise};

    /// Runs `programs` on a world configured as a session configures it by
    /// default, and returns the tracer.
    fn run(programs: Vec<Program>, files: usize, strategy: Strategy, seed: u64) -> Tracer {
        run_faulted(programs, files, strategy, seed, FaultPlan::empty())
    }

    /// [`run`] under the fault plan `faults`.
    fn run_faulted(
        programs: Vec<Program>,
        files: usize,
        strategy: Strategy,
        seed: u64,
        faults: FaultPlan,
    ) -> Tracer {
        let n = programs.len();
        let mut wc = WorldConfig::new(n)
            .with_limiter(strategy.limits())
            .with_compute_noise(Noise::QuantizedRel {
                amplitude: 0.03,
                levels: 8,
            })
            .with_seed(seed);
        wc.faults = faults;
        let tracer = Tracer::new(n, TracerConfig::with_strategy(strategy));
        let mut world = World::new(wc, programs, tracer);
        for f in 0..files {
            world.create_file(&format!("f{f}"));
        }
        world.try_run().expect("the run completes");
        world.into_hooks()
    }

    /// The run traced phases, and every sweep append on the way passed
    /// the sweep's time-order assert (a run that appended out of order
    /// would have panicked before reaching here).
    fn assert_time_ordered(t: &Tracer, what: &str) {
        assert!(!t.phases.is_empty(), "{what}: no phases traced");
    }

    /// Fig. 7 class: WaComM under the figure's three strategies.
    #[test]
    fn wacomm_runs_append_sweep_edges_in_time_order() {
        let wacomm = WacommConfig::default();
        let strategies = [
            Strategy::Direct { tol: 2.0 },
            Strategy::UpOnly { tol: 1.1 },
            Strategy::None,
        ];
        for ranks in [24, 96] {
            for (run_ix, &strategy) in strategies.iter().enumerate() {
                let programs = (0..ranks)
                    .map(|r| wacomm.program(r, ranks, FileId(0), FileId(1 + r as u32)))
                    .collect();
                let t = run(programs, ranks + 1, strategy, 7 + run_ix as u64);
                assert_time_ordered(&t, &format!("wacomm {ranks} ranks, {strategy:?}"));
            }
        }
    }

    /// Fig. 11 class: HACC-IO under all four strategies, adaptive included.
    #[test]
    fn hacc_runs_append_sweep_edges_in_time_order() {
        let hacc = HaccConfig {
            particles_per_rank: 50_000,
            ..Default::default()
        };
        let strategies = [
            Strategy::Direct { tol: 1.1 },
            Strategy::UpOnly { tol: 1.1 },
            Strategy::Adaptive {
                tol: 1.1,
                tol_i: 0.5,
            },
            Strategy::None,
        ];
        for ranks in [16, 96] {
            for (run_ix, &strategy) in strategies.iter().enumerate() {
                let programs = (0..ranks).map(|r| hacc.program(FileId(r as u32))).collect();
                let t = run(programs, ranks, strategy, 11 + run_ix as u64);
                assert_time_ordered(&t, &format!("hacc {ranks} ranks, {strategy:?}"));
            }
        }
    }

    /// The benchmark's `burst` shape: 8 ranks, each with 64 async writes
    /// of 16–256 KiB outstanding per phase, then a compute block and 64
    /// waits.
    #[test]
    fn burst_runs_append_sweep_edges_in_time_order() {
        const PHASES: usize = 16;
        const REQS: usize = 64;
        let ranks = 8;
        let program = |r: usize| {
            let mut ops = Vec::with_capacity(PHASES * (2 * REQS + 1));
            for p in 0..PHASES {
                let tag = |k: usize| ReqTag((p * REQS + k) as u32);
                for k in 0..REQS {
                    let kib = 16 + (r * 131 + p * 17 + k * 29) % 241;
                    ops.push(Op::IWrite {
                        file: FileId(r as u32),
                        bytes: kib as f64 * 1024.0,
                        tag: tag(k),
                    });
                }
                ops.push(Op::Compute {
                    seconds: 0.02 + 0.01 * ((r + p) % 5) as f64,
                });
                ops.extend((0..REQS).map(|k| Op::Wait { tag: tag(k) }));
            }
            Program::from_ops(ops)
        };
        let strategies = [
            Strategy::Direct { tol: 1.1 },
            Strategy::UpOnly { tol: 1.1 },
            Strategy::None,
        ];
        for (run_ix, &strategy) in strategies.iter().enumerate() {
            let programs = (0..ranks).map(program).collect();
            let t = run(programs, ranks, strategy, 3 + run_ix as u64);
            assert_time_ordered(&t, &format!("burst, {strategy:?}"));
        }
    }

    /// WaComM under I/O errors (EIO and ENOSPC, retried with backoff) and
    /// a cancelled request.
    #[test]
    fn faulted_wacomm_runs_append_sweep_edges_in_time_order() {
        let wacomm = WacommConfig {
            iterations: 10,
            ..Default::default()
        };
        let faults = FaultPlan {
            seed: 7,
            io_errors: Some(IoErrorModel {
                prob: 0.4,
                kinds: vec![IoErrorKind::Io, IoErrorKind::NoSpace],
            }),
            cancellations: vec![CancelSpec {
                rank: 1,
                op_index: 0,
            }],
            ..FaultPlan::empty()
        };
        for ranks in [4, 24] {
            let programs = (0..ranks)
                .map(|r| wacomm.program(r, ranks, FileId(0), FileId(1 + r as u32)))
                .collect();
            let strategy = Strategy::Direct { tol: 2.0 };
            let t = run_faulted(programs, ranks + 1, strategy, 17, faults.clone());
            assert!(t.faults.iter().any(|f| f.terminal), "a terminal fault");
            assert!(t.faults.iter().any(|f| !f.terminal), "a retry");
            assert_time_ordered(&t, &format!("faulted wacomm {ranks} ranks"));
        }
    }
}
