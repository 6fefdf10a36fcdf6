//! The virtual-time MPI world: rank interpreter, collectives, and the
//! ADIO-style I/O thread with sub-request pacing.
//!
//! Execution model (mirrors the paper's modified MPICH, Sec. V):
//!
//! * every MPI-IO call is redirected to a per-rank **I/O thread**;
//! * asynchronous ops return immediately to the rank and are backed by a
//!   generalized-request analogue ([`crate::ops::ReqTag`]);
//! * the I/O thread splits each request into fixed-size **sub-requests**,
//!   executes each as a blocking PFS transfer, then compares the achieved
//!   time with the required time `size / limit`:
//!   - **Case A** (too fast): sleep the difference,
//!   - **Case B** (too slow): accumulate the overshoot as a *deficit* that
//!     shortens later sleeps;
//! * the per-rank limit is read fresh at every sub-request boundary, so a
//!   tool updating [`crate::hooks::Limits`] mid-request takes effect like a
//!   shared variable would.

use crate::hooks::{IoHooks, Limits};
use crate::ops::{FileId, Op, Program, ReqTag};
use crate::seqmap::SeqMap;
use pfsim::{BurstBuffer, BurstBufferConfig, FlowId, FlowSpec, Pfs, PfsConfig};
use simcore::{
    rank_phase_stream, stream_rng, Channel, EventQueue, FaultPlan, Invariant, IoErrorKind, Noise,
    SimError, SimResult, SimTime, SmallRng, StallSnapshot, StepSeries, TagMap,
};

/// Latency of one tree level of a barrier or broadcast, seconds.
const NET_LATENCY: f64 = 5e-6;
/// Network bandwidth a broadcast's payload crosses, bytes/s.
const NET_BANDWIDTH: f64 = 12.5e9;
/// Memory-copy bandwidth of `Memcpy` ops, bytes/s.
const MEMCPY_BANDWIDTH: f64 = 10e9;

/// Configuration of a simulated run.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Number of MPI ranks.
    pub n_ranks: usize,
    /// PFS channel capacities.
    pub pfs: PfsConfig,
    /// ADIO sub-request size in bytes (paper: "predefined size").
    pub subreq_bytes: f64,
    /// Noise applied to every `Compute` op's nominal duration.
    pub compute_noise: Noise,
    /// Whether the modified-MPICH limiter is active (limits take effect).
    pub limiter_enabled: bool,
    /// Master seed for all noise streams.
    pub seed: u64,
    /// Optional periodic PFS capacity noise (I/O variability, Fig. 14).
    pub capacity_noise: Option<CapacityNoiseCfg>,
    /// I/O↔compute interference strength (the resource competition of
    /// background I/O threads, ref. \[33\] in the paper). Each completed
    /// sub-request charges its rank a CPU toll of
    /// `alpha · (concurrent flows / ranks) · subreq_bytes / capacity`,
    /// applied to the rank's next compute phase — bursty synchronized I/O
    /// perturbs compute, paced I/O barely does. 0 disables the effect.
    pub interference_alpha: f64,
    /// Optional per-rank burst-buffer tier (the paper's future-work
    /// extension): write calls complete at absorption speed and a
    /// background drain flow — capped at the drain rate and, when the
    /// limiter is active, at the rank's bandwidth limit — carries the bytes
    /// to the PFS. Reads bypass the buffer.
    pub burst_buffer: Option<BurstBufferConfig>,
    /// Whether the ADIO limiter also paces *blocking* I/O calls. The
    /// paper's MPICH extension limits synchronous and asynchronous
    /// operations alike (Sec. V), so this defaults to true; set false to
    /// ablate the cost of throttled trailing sync writes.
    pub limit_sync_ops: bool,
    /// Record the PFS rate series (off by default: only their readers pay).
    pub record_pfs: bool,
    /// Seeded fault schedule replayed against the run. The default (empty)
    /// plan reproduces the fault-free run bit-for-bit.
    pub faults: FaultPlan,
    /// Progress-watchdog thresholds (see [`WatchdogCfg`]). The defaults are
    /// generous enough that no legitimate scenario trips them; a supervised
    /// run that does trip fails with a [`simcore::StallSnapshot`] instead of
    /// spinning forever.
    pub watchdog: WatchdogCfg,
}

/// Thresholds of the virtual-time progress watchdog in [`World::try_run`].
///
/// *Progress* is narrowly defined: bytes completing on the PFS, an I/O
/// request finishing (or failing), a collective releasing, or a rank
/// retiring a program op. Pure event traffic — capacity-noise ticks while
/// an endless outage freezes every request — does **not** count, so a run
/// whose event loop is alive but whose application can never advance is
/// detected and failed with a diagnostic snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WatchdogCfg {
    /// Maximum events processed without progress before the run is failed.
    /// Bounds live-lock cycles (e.g. capacity-noise ticks firing forever
    /// while a `Wait` blocks on a request whose channel is under a
    /// never-ending outage).
    pub max_futile_events: u64,
    /// Maximum *virtual* seconds without progress before the run is failed.
    /// Infinite by default: long fault windows legitimately freeze I/O for
    /// a long stretch of virtual time while other ranks stay blocked.
    pub max_stall: f64,
}

impl Default for WatchdogCfg {
    fn default() -> Self {
        WatchdogCfg {
            // The busiest legitimate no-progress stretches observed in the
            // paper sweeps are a few hundred events (all ranks blocked on
            // I/O across a fault edge); one million leaves three orders of
            // magnitude of headroom while still failing a live-locked run
            // within wall-clock milliseconds.
            max_futile_events: 1_000_000,
            max_stall: f64::INFINITY,
        }
    }
}

/// Periodic multiplicative noise on PFS capacity.
#[derive(Clone, Copy, Debug)]
pub struct CapacityNoiseCfg {
    /// Re-draw period in seconds.
    pub period: f64,
    /// Noise model for the capacity factor.
    pub noise: Noise,
}

impl WorldConfig {
    /// A world with paper-like defaults for `n_ranks` ranks.
    pub fn new(n_ranks: usize) -> Self {
        WorldConfig {
            n_ranks,
            pfs: PfsConfig::default(),
            subreq_bytes: 1024.0 * 1024.0,
            compute_noise: Noise::None,
            limiter_enabled: false,
            seed: 0xD5EA_5EED,
            capacity_noise: None,
            interference_alpha: 0.0,
            burst_buffer: None,
            limit_sync_ops: true,
            record_pfs: false,
            faults: FaultPlan::default(),
            watchdog: WatchdogCfg::default(),
        }
    }

    /// Rejects configurations the engine cannot execute: NaN, zero or
    /// negative capacities and sizes, bad noise periods, and invalid fault
    /// plans. [`World::new`] asserts the load-bearing subset; supervised
    /// paths call this first so misconfiguration surfaces as a typed
    /// [`SimError`] instead of a panic.
    pub fn validate(&self) -> SimResult<()> {
        fn pos(field: &str, v: f64) -> SimResult<()> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(SimError::invalid_config(
                    field,
                    format!("must be finite and positive, got {v}"),
                ))
            }
        }
        if self.n_ranks == 0 {
            return Err(SimError::invalid_config(
                "n_ranks",
                "need at least one rank",
            ));
        }
        pos("subreq_bytes", self.subreq_bytes)?;
        pos("pfs.write_capacity", self.pfs.write_capacity)?;
        pos("pfs.read_capacity", self.pfs.read_capacity)?;
        if !self.interference_alpha.is_finite() || self.interference_alpha < 0.0 {
            return Err(SimError::invalid_config(
                "interference_alpha",
                format!("must be finite and >= 0, got {}", self.interference_alpha),
            ));
        }
        if let Some(cn) = self.capacity_noise {
            pos("capacity_noise.period", cn.period)?;
        }
        if let Some(bb) = self.burst_buffer {
            pos("burst_buffer.size_bytes", bb.size_bytes)?;
            pos("burst_buffer.absorb_rate", bb.absorb_rate)?;
            pos("burst_buffer.drain_rate", bb.drain_rate)?;
        }
        if self.watchdog.max_futile_events == 0 {
            return Err(SimError::invalid_config(
                "watchdog.max_futile_events",
                "must be at least 1",
            ));
        }
        if self.watchdog.max_stall.is_nan() || self.watchdog.max_stall <= 0.0 {
            return Err(SimError::invalid_config(
                "watchdog.max_stall",
                format!(
                    "must be positive (or infinite), got {}",
                    self.watchdog.max_stall
                ),
            ));
        }
        self.faults.validate()
    }

    /// Enables the bandwidth limiter (builder style).
    pub fn with_limiter(mut self, on: bool) -> Self {
        self.limiter_enabled = on;
        self
    }

    /// Sets the compute-noise model (builder style).
    pub fn with_compute_noise(mut self, noise: Noise) -> Self {
        self.compute_noise = noise;
        self
    }

    /// Sets the master seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Provides each rank's next op. [`ScriptedDriver`] replays pre-built
/// [`Program`]s; other drivers may generate ops on demand.
pub trait RankDriver: Send {
    /// Returns rank `rank`'s next op at virtual time `now`, or `None` when
    /// the rank's program is finished. The world calls it whenever the rank
    /// is ready to issue its next op.
    fn next_op(&mut self, rank: usize, now: SimTime) -> Option<Op>;
}

/// Driver over pre-built [`Program`]s.
pub struct ScriptedDriver {
    programs: Vec<Program>,
    pcs: Vec<usize>,
}

impl ScriptedDriver {
    /// Creates a driver; one program per rank. The first program that fails
    /// [`Program::validate`] comes back as [`SimError::InvalidProgram`].
    pub fn try_new(programs: Vec<Program>) -> SimResult<Self> {
        for (rank, p) in programs.iter().enumerate() {
            p.validate()
                .map_err(|reason| SimError::invalid_program(rank, reason))?;
        }
        let pcs = vec![0; programs.len()];
        Ok(ScriptedDriver { programs, pcs })
    }
}

impl RankDriver for ScriptedDriver {
    fn next_op(&mut self, rank: usize, _now: SimTime) -> Option<Op> {
        let pc = self.pcs[rank];
        let op = self.programs[rank].ops().get(pc).copied();
        if op.is_some() {
            self.pcs[rank] = pc + 1;
        }
        op
    }
}

/// An I/O task, numbered from 0 in creation order. A task has at most one
/// sub-request on the PFS at a time, and that flow is named by the task's
/// number, so a completion leads straight back to its task.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct TaskId(u64);

/// The one name every burst-buffer drain flow shares. Nobody waits on a
/// drain, so [`World::on_flow_complete`] ignores it; task numbers never
/// reach it.
const DRAIN_FLOW: FlowId = FlowId(u64::MAX);

/// The per-request I/O-thread state (one in-flight MPI-IO operation).
struct IoTask {
    rank: usize,
    /// `Some` for async requests; `None` for blocking calls.
    tag: Option<ReqTag>,
    channel: Channel,
    bytes_left: f64,
    /// Deficit accumulated by Case B, spent shortening Case A sleeps.
    deficit: f64,
    /// Size and start time of the sub-request currently on the PFS.
    subreq_bytes: f64,
    subreq_started: SimTime,
    /// Failed attempts of the current sub-request (reset on success).
    attempts: u32,
    /// Per-task fault-decision stream; `None` when no error model is active.
    fault_rng: Option<SmallRng>,
    /// Marked by the fault plan: abort after the in-flight sub-request.
    cancelled: bool,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum BlockKind {
    Compute,
    Overhead,
    SyncIo(TaskId),
    Wait(ReqTag),
    Collective(u64),
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Status {
    Runnable,
    Blocked(BlockKind),
    Done,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum ReqState {
    InFlight,
    Completed,
    /// The I/O thread gave up on the request (retries exhausted or
    /// cancelled); the matching wait returns with the error.
    Failed(IoErrorKind),
}

/// Cumulative per-rank time accounting kept by the runtime itself (tools
/// like TMIO keep richer records through hooks; this is the ground truth the
/// tests cross-check against).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankAccounting {
    /// Seconds in `Compute` ops.
    pub compute: f64,
    /// Seconds in `Memcpy` ops.
    pub memcpy: f64,
    /// Seconds blocked in synchronous writes.
    pub sync_write: f64,
    /// Seconds blocked in synchronous reads.
    pub sync_read: f64,
    /// Seconds blocked in `Wait` for write requests ("async write lost").
    pub wait_write: f64,
    /// Seconds blocked in `Wait` for read requests ("async read lost").
    pub wait_read: f64,
    /// Seconds blocked in collectives.
    pub collective: f64,
    /// Seconds of injected tool overhead (peri-runtime).
    pub overhead: f64,
    /// Seconds the rank's I/O thread spent in retry backoff sleeps
    /// (fault injection); zero in fault-free runs.
    pub retry: f64,
}

struct RankState {
    status: Status,
    /// Outstanding async requests by tag: O(1) however many are in flight.
    requests: TagMap<ReqState>,
    compute_count: u64,
    collective_seq: u64,
    /// Async submits issued so far (indexes [`simcore::CancelSpec`]).
    async_seq: u64,
    wait_entered: SimTime,
    sync_entered: SimTime,
    sync_bytes: f64,
    pending_toll: f64,
    acct: RankAccounting,
    finished_at: Option<SimTime>,
}

impl RankState {
    fn new() -> Self {
        RankState {
            status: Status::Runnable,
            requests: TagMap::default(),
            compute_count: 0,
            collective_seq: 0,
            async_seq: 0,
            wait_entered: SimTime::ZERO,
            sync_entered: SimTime::ZERO,
            sync_bytes: 0.0,
            pending_toll: 0.0,
            acct: RankAccounting::default(),
            finished_at: None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum CollKind {
    Barrier,
    Bcast(f64),
}

struct Collective {
    kind: CollKind,
    arrived: usize,
}

#[derive(Clone, Copy)]
enum Event {
    Resume(usize),
    PfsWake,
    IoTaskNext(TaskId),
    /// A burst-buffer absorption finished (write path with BB configured).
    BbDone(TaskId),
    CollectiveRelease(u64),
    CapacityTick,
    /// A channel-fault window starts or ends: recompute effective capacity.
    FaultEdge,
}

/// One terminal I/O-op failure surfaced to the application (fault
/// injection: retries exhausted or the request was cancelled).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpErrorRecord {
    /// Rank that issued the failed op.
    pub rank: usize,
    /// Request tag for async ops; `None` for blocking calls.
    pub tag: Option<ReqTag>,
    /// The injected error (maps to a POSIX errno).
    pub kind: IoErrorKind,
    /// Virtual time the failure surfaced, seconds.
    pub at: f64,
    /// Sub-request attempts consumed when the op was failed.
    pub attempts: u32,
}

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Time the last rank finished (the application makespan).
    pub end_time: SimTime,
    /// Per-rank finish times.
    pub finished_at: Vec<SimTime>,
    /// Per-rank time accounting.
    pub accounting: Vec<RankAccounting>,
    /// Terminal I/O-op failures, in the order they surfaced. Empty in
    /// fault-free runs.
    pub op_errors: Vec<OpErrorRecord>,
    /// Deterministic work counts of the run.
    pub stats: RunStats,
}

/// Deterministic work counts of a run: equal for equal inputs on any host,
/// so they pin what a wall-time change did or did not change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Events handled by the event loop.
    pub events: u64,
    /// Events scheduled as a new heap entry (one sift-up each).
    pub heap_pushes: u64,
    /// Events scheduled into the slot of the event popped just before (one
    /// sift-down each, in place of a removal plus a push).
    pub root_reuses: u64,
    /// PFS allocation solves, both channels.
    pub pfs_solves: u64,
    /// Largest flow-group count either PFS channel held after a solve.
    pub pfs_peak_groups: u64,
}

impl RunSummary {
    /// Makespan in seconds.
    pub fn makespan(&self) -> f64 {
        self.end_time.as_secs()
    }
}

/// The simulated MPI world. See module docs.
pub struct World<H: IoHooks> {
    cfg: WorldConfig,
    queue: EventQueue<Event>,
    pfs: Pfs,
    ranks: Vec<RankState>,
    limits: Limits,
    hooks: H,
    driver: Box<dyn RankDriver>,
    /// Resident harvest buffer for [`World::drain_pfs`].
    pfs_done: Vec<(SimTime, FlowId)>,
    /// Live I/O tasks, keyed by the monotone [`TaskId`] counter.
    tasks: SeqMap<IoTask>,
    next_task: u64,
    /// The collective ranks are gathering in. At most one is open: it
    /// releases only once every rank has arrived, so no rank can enter the
    /// next one before.
    collective: Option<Collective>,
    /// Bytes written to each registered file, by [`FileId`].
    files: Vec<f64>,
    /// Per-rank burst buffers when configured.
    bbs: Vec<BurstBuffer>,
    live_ranks: usize,
    cap_rng: SmallRng,
    op_errors: Vec<OpErrorRecord>,
    /// Virtual time of the last observed progress (watchdog).
    last_advance: SimTime,
    /// Events processed since the last observed progress (watchdog).
    futile_events: u64,
    /// First fatal error raised mid-event; [`World::try_run`] surfaces it.
    fatal: Option<SimError>,
}

impl<H: IoHooks> World<H> {
    /// Builds a world executing `driver` under observer `hooks`.
    pub fn with_driver(cfg: WorldConfig, driver: Box<dyn RankDriver>, hooks: H) -> Self {
        assert!(cfg.n_ranks > 0, "need at least one rank");
        assert!(cfg.subreq_bytes > 0.0, "sub-request size must be positive");
        let mut pfs = Pfs::new(cfg.pfs);
        pfs.set_recording(cfg.record_pfs);
        let limits = Limits::new(cfg.n_ranks, cfg.limiter_enabled);
        let cap_rng = stream_rng(cfg.seed ^ 0xCAFE_F00D, 0);
        let bbs = match cfg.burst_buffer {
            Some(bc) => (0..cfg.n_ranks).map(|_| BurstBuffer::new(bc)).collect(),
            None => Vec::new(),
        };
        let ranks = (0..cfg.n_ranks).map(|_| RankState::new()).collect();
        let live_ranks = cfg.n_ranks;
        // Pending events peak around one per rank (compute wake or I/O step)
        // plus the PFS wake; pre-size to skip heap regrowth.
        let queue = EventQueue::with_capacity(cfg.n_ranks * 2 + 8);
        World {
            cfg,
            queue,
            pfs,
            ranks,
            limits,
            hooks,
            driver,
            pfs_done: Vec::with_capacity(16),
            tasks: SeqMap::with_capacity(16),
            next_task: 0,
            collective: None,
            files: Vec::new(),
            bbs,
            live_ranks,
            cap_rng,
            op_errors: Vec::new(),
            last_advance: SimTime::ZERO,
            futile_events: 0,
            fatal: None,
        }
    }

    /// Builds a world over scripted per-rank programs.
    ///
    /// # Panics
    /// If the program count differs from `cfg.n_ranks` or a program fails
    /// [`Program::validate`] ([`ScriptedDriver::try_new`] with
    /// [`World::with_driver`] is the non-panicking path).
    pub fn new(cfg: WorldConfig, programs: Vec<Program>, hooks: H) -> Self {
        assert_eq!(programs.len(), cfg.n_ranks, "one program per rank required");
        match ScriptedDriver::try_new(programs) {
            Ok(driver) => Self::with_driver(cfg, Box::new(driver), hooks),
            Err(e) => panic!("{e}"),
        }
    }

    /// Registers a simulated file. The engine tracks only the bytes
    /// written to it, so the name is not kept.
    pub fn create_file(&mut self, _name: &str) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(0.0);
        id
    }

    /// Total bytes ever written to `file`.
    pub fn file_bytes(&self, file: FileId) -> f64 {
        self.files[file.0 as usize]
    }

    /// Consumes the world, returning the observer and its recordings.
    pub fn into_hooks(self) -> H {
        self.hooks
    }

    /// Consumes the world, returning the observer and the PFS write and
    /// read rate series, moved rather than copied.
    pub fn into_parts(self) -> (H, StepSeries, StepSeries) {
        let ([write, read], _) = self.pfs.into_series();
        (self.hooks, write, read)
    }

    /// Runs the world to completion, surfacing failures as typed errors.
    ///
    /// Detects and reports, with a [`StallSnapshot`] of everything still
    /// pending: deadlock (the event queue drained with ranks blocked —
    /// mismatched collectives, or a `Wait` whose request is frozen by a
    /// never-ending outage) and live-lock (the watchdog counted
    /// [`WatchdogCfg::max_futile_events`] events without any rank, request
    /// or collective advancing). Driver-issued impossible ops (wait on an
    /// unknown request, collective mismatch) surface as
    /// [`SimError::InvalidProgram`].
    pub fn try_run(&mut self) -> SimResult<RunSummary> {
        if let Some(cn) = self.cfg.capacity_noise {
            self.queue.schedule_in(cn.period, Event::CapacityTick);
        }
        // Channel-fault windows: recompute the effective capacity factor at
        // every window edge. An inert plan schedules nothing, keeping the
        // fault-free event order untouched. Non-finite edges are skipped —
        // a window that never ends simply never schedules its closing edge
        // (the watchdog or deadlock detection reports the stall).
        let mut edges: Vec<f64> = Vec::new();
        for w in self.cfg.faults.active_channel_faults() {
            edges.push(w.start.max(0.0));
            edges.push(w.end);
        }
        edges.retain(|e| e.is_finite());
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        for e in edges {
            self.queue.schedule(SimTime::from_secs(e), Event::FaultEdge);
        }
        // Kick off every rank at t = 0.
        for rank in 0..self.cfg.n_ranks {
            if self.ranks[rank].status == Status::Runnable {
                self.step_rank(rank);
            }
        }
        let wd = self.cfg.watchdog;
        let mut events = 0u64;
        // A fatal error or the last rank's exit ends the loop before the
        // next pop: events behind it stay pending, never handled.
        while self.live_ranks > 0 {
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
            let Some((t, ev)) = self.queue.pop() else {
                return Err(SimError::Deadlock(self.stall_snapshot()));
            };
            self.handle(t, ev);
            events += 1;
            self.futile_events += 1;
            if self.futile_events > wd.max_futile_events
                || self.queue.now() - self.last_advance > wd.max_stall
            {
                return Err(SimError::Stalled(self.stall_snapshot()));
            }
        }
        if let Some(e) = self.fatal.take() {
            return Err(e);
        }
        let finished_at: Vec<SimTime> = self
            .ranks
            .iter()
            .map(|r| r.finished_at.invariant("rank finished"))
            .collect();
        let end_time = finished_at
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max);
        // Close the PFS series at the end of the run.
        self.drain_pfs();
        Ok(RunSummary {
            end_time,
            accounting: self.ranks.iter().map(|r| r.acct).collect(),
            finished_at,
            op_errors: std::mem::take(&mut self.op_errors),
            stats: RunStats {
                events,
                heap_pushes: self.queue.heap_pushes(),
                root_reuses: self.queue.root_reuses(),
                pfs_solves: self.pfs.solves(),
                pfs_peak_groups: self.pfs.peak_groups(),
            },
        })
    }

    /// Records a fatal error; the first one wins and aborts [`try_run`].
    fn fail_run(&mut self, e: SimError) {
        if self.fatal.is_none() {
            self.fatal = Some(e);
        }
    }

    /// Marks watchdog-visible progress: bytes moved, an op retired, a rank
    /// finished, a collective released.
    fn note_progress(&mut self) {
        self.last_advance = self.queue.now();
        self.futile_events = 0;
    }

    /// The diagnostic snapshot attached to stall/deadlock errors: blocked
    /// ranks, in-flight I/O tasks, queue depth and last-advance time.
    fn stall_snapshot(&self) -> Box<StallSnapshot> {
        let blocked_ranks: Vec<String> = self
            .ranks
            .iter()
            .enumerate()
            .filter(|(_, r)| r.status != Status::Done)
            .map(|(i, r)| format!("rank {i}: {:?}", r.status))
            .collect();
        // SeqMap iterates in id order, so the report needs no sort pass.
        let pending_ops: Vec<String> = self
            .tasks
            .iter()
            .map(|(id, t)| {
                format!(
                    "task {id}: rank {} {:?} {:.0} B left, tag {:?}, {} attempt(s)",
                    t.rank, t.channel, t.bytes_left, t.tag, t.attempts
                )
            })
            .collect();
        Box::new(StallSnapshot {
            at: self.queue.now().as_secs(),
            last_advance: self.last_advance.as_secs(),
            futile_events: self.futile_events,
            queue_depth: self.queue.len(),
            blocked_ranks,
            pending_ops,
        })
    }

    // ------------------------------------------------------------------
    // Event handling

    fn handle(&mut self, t: SimTime, ev: Event) {
        match ev {
            Event::Resume(rank) => {
                debug_assert!(matches!(self.ranks[rank].status, Status::Blocked(_)));
                self.ranks[rank].status = Status::Runnable;
                self.step_rank(rank);
            }
            Event::PfsWake => {
                self.drain_pfs();
                self.resync_pfs();
            }
            Event::IoTaskNext(task) => {
                self.start_subrequest(task);
                self.resync_pfs();
            }
            Event::BbDone(id) => {
                let task = self.tasks.remove(id.0).invariant("bb task exists");
                let now = self.queue.now();
                if task.cancelled {
                    self.fail_task(now, id, task, IoErrorKind::Cancelled);
                } else {
                    self.finish_task(now, id, task);
                }
            }
            Event::CollectiveRelease(id) => {
                self.note_progress();
                let coll = self.collective.take().invariant("collective exists");
                debug_assert_eq!(coll.arrived, self.cfg.n_ranks);
                for rank in 0..self.cfg.n_ranks {
                    if self.ranks[rank].status == Status::Blocked(BlockKind::Collective(id)) {
                        let entered = self.ranks[rank].wait_entered;
                        self.ranks[rank].acct.collective += t - entered;
                        self.ranks[rank].status = Status::Runnable;
                        self.step_rank(rank);
                    }
                }
            }
            Event::CapacityTick => {
                let cn = self.cfg.capacity_noise.invariant("configured");
                // One factor for both channels: congestion from a competing
                // job hits the whole file system, not one direction.
                let f = cn.noise.factor(&mut self.cap_rng);
                self.drain_pfs();
                let now = self.queue.now();
                self.pfs
                    .set_capacity(now, Channel::Write, self.cfg.pfs.write_capacity * f);
                self.pfs
                    .set_capacity(now, Channel::Read, self.cfg.pfs.read_capacity * f);
                self.queue.schedule_in(cn.period, Event::CapacityTick);
                self.resync_pfs();
            }
            Event::FaultEdge => {
                self.drain_pfs();
                let now = self.queue.now();
                let t = now.as_secs();
                for ch in [Channel::Write, Channel::Read] {
                    let f = self.cfg.faults.capacity_factor(ch, t);
                    if self.pfs.fault_factor(ch) != f {
                        self.pfs.set_fault_factor(now, ch, f);
                    }
                }
                self.resync_pfs();
            }
        }
    }

    /// Drains PFS completions up to `now`, handling each. Loops because a
    /// pacing-free task may chain its next sub-request at the same instant.
    ///
    /// Harvests into a resident buffer taken off `self` for the duration
    /// (re-entrant calls via `on_flow_complete` → `start_subrequest` see an
    /// empty placeholder, which stays allocation-free because their drains
    /// find nothing left to harvest).
    fn drain_pfs(&mut self) {
        let mut iters = 0u32;
        let mut done = std::mem::take(&mut self.pfs_done);
        loop {
            let now = self.queue.now();
            done.clear();
            self.pfs.advance_into(now, &mut done);
            if done.is_empty() {
                break;
            }
            iters += 1;
            if iters > 10_000 {
                self.fail_run(SimError::Internal(format!(
                    "drain_pfs livelock at {now:?}: {} completions pending",
                    done.len()
                )));
                break;
            }
            for &(ct, flow) in &done {
                self.on_flow_complete(ct, flow);
            }
        }
        self.pfs_done = done;
    }

    /// Re-arms the queue's wake at the next PFS completion time.
    fn resync_pfs(&mut self) {
        let now = self.queue.now();
        let target = self.pfs.next_completion().map(|t| t.max(now));
        self.queue.set_wake(target, Event::PfsWake);
    }

    // ------------------------------------------------------------------
    // Rank interpreter

    /// Executes ops for `rank` until it blocks or finishes.
    fn step_rank(&mut self, rank: usize) {
        loop {
            if self.fatal.is_some() {
                return; // the run is being aborted; stop interpreting
            }
            debug_assert_eq!(self.ranks[rank].status, Status::Runnable);
            let now = self.queue.now();
            let Some(op) = self.driver.next_op(rank, now) else {
                self.ranks[rank].status = Status::Done;
                self.ranks[rank].finished_at = Some(now);
                self.live_ranks -= 1;
                self.note_progress();
                self.hooks.on_rank_done(now, rank);
                return;
            };
            // The driver handed out a new program op: the application is
            // advancing.
            self.note_progress();
            if self.exec_op(rank, op) {
                return; // blocked
            }
        }
    }

    /// Executes one op. Returns true if the rank is now blocked.
    fn exec_op(&mut self, rank: usize, op: Op) -> bool {
        if let Op::Write { file, .. }
        | Op::Read { file, .. }
        | Op::IWrite { file, .. }
        | Op::IRead { file, .. } = op
        {
            if file.0 as usize >= self.files.len() {
                self.fail_run(SimError::invalid_program(
                    rank,
                    format!(
                        "I/O on unregistered file {} ({} registered)",
                        file.0,
                        self.files.len()
                    ),
                ));
                return true;
            }
        }
        match op {
            Op::Compute { seconds } => {
                let idx = self.ranks[rank].compute_count;
                self.ranks[rank].compute_count += 1;
                let mut rng = stream_rng(self.cfg.seed, rank_phase_stream(rank, idx as usize));
                let mut dur = self.cfg.compute_noise.apply(seconds, &mut rng);
                // Straggler ranks (fault plan) run slowed-down compute.
                let sf = self.cfg.faults.straggler_factor(rank);
                if sf != 1.0 {
                    dur *= sf;
                }
                // Interference toll from I/O-thread activity ([33]).
                dur += std::mem::take(&mut self.ranks[rank].pending_toll);
                self.ranks[rank].acct.compute += dur;
                self.block_for(rank, dur, BlockKind::Compute)
            }
            Op::Memcpy { bytes } => {
                let dur = bytes / MEMCPY_BANDWIDTH;
                self.ranks[rank].acct.memcpy += dur;
                self.block_for(rank, dur, BlockKind::Compute)
            }
            Op::Barrier => self.enter_collective(rank, CollKind::Barrier),
            Op::Bcast { bytes } => self.enter_collective(rank, CollKind::Bcast(bytes)),
            Op::Write { file, bytes } => self.exec_sync_io(rank, file, bytes, Channel::Write),
            Op::Read { file, bytes } => self.exec_sync_io(rank, file, bytes, Channel::Read),
            Op::IWrite { file, bytes, tag } => {
                self.exec_async_io(rank, file, bytes, tag, Channel::Write)
            }
            Op::IRead { file, bytes, tag } => {
                self.exec_async_io(rank, file, bytes, tag, Channel::Read)
            }
            Op::Wait { tag } => self.exec_wait(rank, tag),
            Op::Test { tag } => self.exec_test(rank, tag),
        }
    }

    /// `MPI_Test` as a probe: reports status through the hooks but keeps the
    /// request live (the monitoring use TMIO supports); a later `Wait` still
    /// completes it.
    fn exec_test(&mut self, rank: usize, tag: ReqTag) -> bool {
        let now = self.queue.now();
        let Some(&state) = self.ranks[rank].requests.get(tag.0) else {
            self.fail_run(SimError::invalid_program(
                rank,
                format!("test on unknown request {tag:?}"),
            ));
            return true;
        };
        let done = state != ReqState::InFlight;
        let o = self.hooks.on_test(now, rank, tag, done, &mut self.limits);
        self.ranks[rank].acct.overhead += o;
        self.block_for(rank, o, BlockKind::Overhead)
    }

    /// Blocks `rank` for `dur` seconds (compute, memcpy, overhead).
    /// Returns true (blocked) unless `dur` is zero.
    fn block_for(&mut self, rank: usize, dur: f64, kind: BlockKind) -> bool {
        if dur <= 0.0 {
            return false;
        }
        self.ranks[rank].status = Status::Blocked(kind);
        self.queue.schedule_in(dur, Event::Resume(rank));
        true
    }

    fn enter_collective(&mut self, rank: usize, kind: CollKind) -> bool {
        let id = self.ranks[rank].collective_seq;
        self.ranks[rank].collective_seq += 1;
        let n = self.cfg.n_ranks;
        let coll = self
            .collective
            .get_or_insert(Collective { kind, arrived: 0 });
        if coll.kind != kind {
            let existing = coll.kind;
            self.fail_run(SimError::invalid_program(
                rank,
                format!(
                    "collective mismatch at sequence {id}: \
                     ranks disagree on the op ({existing:?} vs {kind:?})"
                ),
            ));
            return true;
        }
        coll.arrived += 1;
        let arrived = coll.arrived;
        let now = self.queue.now();
        self.ranks[rank].wait_entered = now;
        self.ranks[rank].status = Status::Blocked(BlockKind::Collective(id));
        if arrived == n {
            let levels = (n as f64).log2().ceil().max(1.0);
            let cost = match kind {
                CollKind::Barrier => NET_LATENCY * levels,
                CollKind::Bcast(bytes) => NET_LATENCY * levels + bytes / NET_BANDWIDTH,
            };
            self.queue.schedule_in(cost, Event::CollectiveRelease(id));
        }
        true
    }

    fn exec_sync_io(&mut self, rank: usize, file: FileId, bytes: f64, channel: Channel) -> bool {
        let now = self.queue.now();
        let o = self
            .hooks
            .on_sync_begin(now, rank, bytes, channel, &mut self.limits);
        self.ranks[rank].acct.overhead += o;
        if channel == Channel::Write {
            self.files[file.0 as usize] += bytes;
        }
        self.ranks[rank].sync_entered = now;
        self.ranks[rank].sync_bytes = bytes;
        let task = self.new_task(rank, None, bytes, channel);
        self.ranks[rank].status = Status::Blocked(BlockKind::SyncIo(task));
        if channel == Channel::Write && self.cfg.burst_buffer.is_some() {
            self.start_bb_write(task, rank, bytes);
        } else {
            self.start_subrequest(task);
        }
        self.resync_pfs();
        true
    }

    /// Burst-buffer write path: the call completes at absorption time; the
    /// bytes drain to the PFS as a background flow capped at the drain rate
    /// (and the rank's limit, when the limiter is active).
    fn start_bb_write(&mut self, task: TaskId, rank: usize, bytes: f64) {
        let now = self.queue.now();
        let done = self.bbs[rank].absorb(now.as_secs(), bytes);
        // Mark the task as fully transferred from the application's view.
        self.tasks
            .get_mut(task.0)
            .invariant("task exists")
            .bytes_left = 0.0;
        self.queue
            .schedule(SimTime::from_secs(done).max(now), Event::BbDone(task));
        let drain_rate = self.cfg.burst_buffer.invariant("configured").drain_rate;
        let cap = match self.limits.effective(rank) {
            Some(l) => drain_rate.min(l),
            None => drain_rate,
        };
        self.drain_pfs();
        let spec = FlowSpec {
            bytes,
            weight: 1.0,
            cap: Some(cap),
            meter: None,
        };
        self.pfs.submit(now, Channel::Write, spec, DRAIN_FLOW);
    }

    fn exec_async_io(
        &mut self,
        rank: usize,
        file: FileId,
        bytes: f64,
        tag: ReqTag,
        channel: Channel,
    ) -> bool {
        let now = self.queue.now();
        if self.ranks[rank].requests.get(tag.0).is_some() {
            self.fail_run(SimError::invalid_program(
                rank,
                format!("request tag {tag:?} already outstanding"),
            ));
            return true;
        }
        let o = self
            .hooks
            .on_async_submit(now, rank, tag, bytes, channel, &mut self.limits);
        self.ranks[rank].acct.overhead += o;
        if channel == Channel::Write {
            self.files[file.0 as usize] += bytes;
        }
        self.ranks[rank].requests.insert(tag.0, ReqState::InFlight);
        let seq = self.ranks[rank].async_seq;
        self.ranks[rank].async_seq += 1;
        let task = self.new_task(rank, Some(tag), bytes, channel);
        if self.cfg.faults.cancels(rank, seq) {
            self.tasks
                .get_mut(task.0)
                .invariant("task exists")
                .cancelled = true;
        }
        if channel == Channel::Write && self.cfg.burst_buffer.is_some() {
            self.start_bb_write(task, rank, bytes);
        } else {
            self.start_subrequest(task);
        }
        self.resync_pfs();
        // The rank continues immediately; inject tool overhead if any.
        self.block_for(rank, o, BlockKind::Overhead)
    }

    fn exec_wait(&mut self, rank: usize, tag: ReqTag) -> bool {
        let now = self.queue.now();
        let Some(&state) = self.ranks[rank].requests.get(tag.0) else {
            self.fail_run(SimError::invalid_program(
                rank,
                format!("wait on unknown request {tag:?}"),
            ));
            return true;
        };
        let already_done = state != ReqState::InFlight;
        let mut o = self
            .hooks
            .on_wait_enter(now, rank, tag, already_done, &mut self.limits);
        if already_done {
            o += self.hooks.on_wait_exit(now, rank, tag, &mut self.limits);
            self.ranks[rank].requests.remove(tag.0);
            self.ranks[rank].acct.overhead += o;
            self.block_for(rank, o, BlockKind::Overhead)
        } else {
            self.ranks[rank].acct.overhead += o;
            self.ranks[rank].wait_entered = now;
            self.ranks[rank].status = Status::Blocked(BlockKind::Wait(tag));
            true
        }
    }

    // ------------------------------------------------------------------
    // I/O thread (ADIO layer)

    fn new_task(
        &mut self,
        rank: usize,
        tag: Option<ReqTag>,
        bytes: f64,
        channel: Channel,
    ) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        let now = self.queue.now();
        // The fault stream is per-task so a replay is independent of how
        // unrelated tasks interleave; no stream exists for inert models.
        let fault_rng = if self.cfg.faults.io_errors_active() {
            Some(self.cfg.faults.stream(id.0))
        } else {
            None
        };
        self.tasks.insert(
            id.0,
            IoTask {
                rank,
                tag,
                channel,
                bytes_left: bytes,
                deficit: 0.0,
                subreq_bytes: 0.0,
                subreq_started: now,
                attempts: 0,
                fault_rng,
                cancelled: false,
            },
        );
        id
    }

    /// Issues the next sub-request of `task` onto the PFS — or completes the
    /// request if all bytes are transferred (reached via [`Event::IoTaskNext`]
    /// after a trailing pacing sleep).
    fn start_subrequest(&mut self, id: TaskId) {
        {
            let task = self.tasks.get(id.0).invariant("task exists");
            if task.bytes_left <= 1e-6 {
                let ct = self.queue.now();
                let task = self.tasks.remove(id.0).invariant("task exists");
                self.finish_task(ct, id, task);
                return;
            }
        }
        self.drain_pfs();
        let now = self.queue.now();
        let task = self.tasks.get_mut(id.0).invariant("task exists");
        let size = task.bytes_left.min(self.cfg.subreq_bytes).max(0.0);
        task.subreq_bytes = size;
        task.subreq_started = now;
        let channel = task.channel;
        self.pfs
            .submit(now, channel, FlowSpec::simple(size), FlowId(id.0));
    }

    /// A sub-request's PFS transfer finished: apply pacing, chain or finish.
    /// The pacing sleep applies after *every* sub-request, including the
    /// last — the I/O thread completes the generalized request only after
    /// finishing its schedule, so the achieved throughput converges to the
    /// limit (Sec. V).
    fn on_flow_complete(&mut self, ct: SimTime, flow: FlowId) {
        // Bytes landed on the PFS: the run is advancing.
        self.note_progress();
        if flow == DRAIN_FLOW {
            return; // a burst-buffer drain finished; nobody waits on it
        }
        let id = TaskId(flow.0);
        if self.apply_io_fault(ct, id) {
            return; // the sub-request failed; its bytes are discarded
        }
        let (rank, finished, subreq_bytes, subreq_started) = {
            let task = self.tasks.get_mut(id.0).invariant("task exists");
            task.bytes_left -= task.subreq_bytes;
            (
                task.rank,
                task.bytes_left <= 1e-6,
                task.subreq_bytes,
                task.subreq_started,
            )
        };
        // I/O↔compute interference ([33]): the busier the channel was, the
        // more this transfer perturbed the rank's compute threads.
        if self.cfg.interference_alpha > 0.0 {
            let channel = {
                let task = self.tasks.get(id.0).invariant("task exists");
                task.channel
            };
            let capacity = match channel {
                Channel::Write => self.cfg.pfs.write_capacity,
                Channel::Read => self.cfg.pfs.read_capacity,
            };
            let concurrency = (self.pfs.active_flows(channel) + 1) as f64 / self.cfg.n_ranks as f64;
            self.ranks[rank].pending_toll += self.cfg.interference_alpha
                * concurrency.min(1.0)
                * (subreq_bytes / capacity.max(1.0));
        }
        // Pacing: compare achieved vs required sub-request time (Sec. V).
        let is_sync = self.tasks.get(id.0).invariant("task exists").tag.is_none();
        let limit = if is_sync && !self.cfg.limit_sync_ops {
            None
        } else {
            self.limits.effective(rank)
        };
        let mut delay = 0.0;
        if let Some(limit) = limit {
            let task = self.tasks.get_mut(id.0).invariant("task exists");
            let actual = ct - subreq_started;
            let required = subreq_bytes / limit;
            if actual < required {
                // Case A: sleep the remainder, shortened by banked deficit.
                let mut sleep = required - actual;
                let use_deficit = sleep.min(task.deficit);
                sleep -= use_deficit;
                task.deficit -= use_deficit;
                delay = sleep;
            } else {
                // Case B: too slow; bank the overshoot.
                task.deficit += actual - required;
            }
        }
        if delay > 0.0 {
            let resume_at = ct.max(self.queue.now()).after(delay);
            self.queue.schedule(resume_at, Event::IoTaskNext(id));
        } else if finished {
            let task = self.tasks.remove(id.0).invariant("task exists");
            self.finish_task(ct, id, task);
        } else {
            self.start_subrequest(id);
        }
    }

    /// Decides whether the sub-request whose PFS transfer just finished is
    /// poisoned by the fault plan — a pending cancellation or a drawn
    /// transient error. Returns true when the completion was consumed: the
    /// task either failed terminally or will re-issue the same sub-request
    /// after a deterministic backoff sleep (virtual time); either way the
    /// transferred bytes are discarded.
    fn apply_io_fault(&mut self, ct: SimTime, id: TaskId) -> bool {
        let (cancelled, drawn) = {
            let task = self.tasks.get_mut(id.0).invariant("task exists");
            if task.cancelled {
                (true, None)
            } else {
                let drawn = match (&self.cfg.faults.io_errors, task.fault_rng.as_mut()) {
                    (Some(model), Some(rng)) => model.draw(rng),
                    _ => None,
                };
                (false, drawn)
            }
        };
        if cancelled {
            let task = self.tasks.remove(id.0).invariant("task exists");
            self.fail_task(ct, id, task, IoErrorKind::Cancelled);
            return true;
        }
        let Some(kind) = drawn else {
            self.tasks.get_mut(id.0).invariant("task exists").attempts = 0;
            return false;
        };
        let (rank, tag, attempts) = {
            let task = self.tasks.get_mut(id.0).invariant("task exists");
            task.attempts += 1;
            (task.rank, task.tag, task.attempts)
        };
        if attempts > self.cfg.faults.retry.max_retries {
            let task = self.tasks.remove(id.0).invariant("task exists");
            self.fail_task(ct, id, task, kind);
            return true;
        }
        // Bounded exponential backoff, then re-issue the failed sub-request
        // (IoTaskNext re-reads the limit and restarts pacing cleanly).
        let backoff = self.cfg.faults.retry.backoff(attempts - 1);
        self.ranks[rank].acct.retry += backoff;
        self.hooks
            .on_io_retry(ct, rank, tag, kind, attempts, backoff);
        let resume_at = ct.max(self.queue.now()).after(backoff);
        self.queue.schedule(resume_at, Event::IoTaskNext(id));
        true
    }

    /// Terminal failure of an I/O op: retries exhausted or the request was
    /// cancelled. Records the error, notifies observer and driver, then
    /// releases the rank through the completion path — a failed `Wait`
    /// returns with the error instead of hanging.
    fn fail_task(&mut self, ct: SimTime, id: TaskId, task: IoTask, kind: IoErrorKind) {
        let at = ct.max(self.queue.now());
        self.op_errors.push(OpErrorRecord {
            rank: task.rank,
            tag: task.tag,
            kind,
            at: at.as_secs(),
            attempts: task.attempts,
        });
        self.hooks
            .on_op_error(at, task.rank, task.tag, kind, task.attempts);
        self.complete_task(ct, id, task, Some(kind));
    }

    /// All bytes of a request are on the PFS: complete the generalized
    /// request and release any blocked rank.
    fn finish_task(&mut self, ct: SimTime, id: TaskId, task: IoTask) {
        self.complete_task(ct, id, task, None);
    }

    /// Shared completion path: the I/O thread is done with the request,
    /// successfully (`error` = None) or not. The request-complete hook fires
    /// either way — the tool's transfer span closes when the I/O thread
    /// stops working on the request.
    fn complete_task(&mut self, ct: SimTime, id: TaskId, task: IoTask, error: Option<IoErrorKind>) {
        self.note_progress();
        let now = self.queue.now();
        let rank = task.rank;
        let status = self.ranks[rank].status;
        let release_at = ct.max(now);
        match task.tag {
            Some(tag) => {
                // Async request: mark complete (or failed), notify tool.
                *self.ranks[rank]
                    .requests
                    .get_mut(tag.0)
                    .invariant("request registered") = match error {
                    None => ReqState::Completed,
                    Some(kind) => ReqState::Failed(kind),
                };
                self.hooks.on_request_complete(ct, rank, tag);
                if status == Status::Blocked(BlockKind::Wait(tag)) {
                    // The rank was stuck in MPI_Wait: async-lost time.
                    let entered = self.ranks[rank].wait_entered;
                    let lost = release_at - entered;
                    match task.channel {
                        Channel::Write => self.ranks[rank].acct.wait_write += lost,
                        Channel::Read => self.ranks[rank].acct.wait_read += lost,
                    }
                    let o = self
                        .hooks
                        .on_wait_exit(release_at, rank, tag, &mut self.limits);
                    self.ranks[rank].acct.overhead += o;
                    self.ranks[rank].requests.remove(tag.0);
                    // Resume via the queue so completions drain first.
                    self.ranks[rank].status = Status::Blocked(BlockKind::Overhead);
                    self.queue
                        .schedule(release_at.after(o), Event::Resume(rank));
                }
            }
            None => {
                // Synchronous op: account and release the rank.
                debug_assert_eq!(status, Status::Blocked(BlockKind::SyncIo(id)));
                let entered = self.ranks[rank].sync_entered;
                let bytes = self.ranks[rank].sync_bytes;
                let dur = release_at - entered;
                match task.channel {
                    Channel::Write => self.ranks[rank].acct.sync_write += dur,
                    Channel::Read => self.ranks[rank].acct.sync_read += dur,
                }
                let o =
                    self.hooks
                        .on_sync_end(release_at, rank, bytes, task.channel, &mut self.limits);
                self.ranks[rank].acct.overhead += o;
                self.ranks[rank].status = Status::Blocked(BlockKind::Overhead);
                self.queue
                    .schedule(release_at.after(o), Event::Resume(rank));
            }
        }
    }
}
