//! # clustersim — a batch-system simulator (ElastiSim substitute)
//!
//! Reproduces the paper's motivation study (Figs. 1–2): a production-like
//! cluster (Lichtenberg settings: 500 nodes × 96 cores, 120 GB/s PFS) runs
//! several jobs that mimic HACC-IO's alternating compute/write phases. The
//! PFS bandwidth is distributed fairly **by node count** (each job's flow is
//! weighted with its allocation size). One job performs its I/O
//! asynchronously; capping that job at its *required bandwidth* — but only
//! while other jobs contend for the PFS — frees bandwidth for the
//! synchronous jobs without (significantly) slowing the async job.
//!
//! The simulator is a small but real batch system: FCFS node allocation,
//! job queueing, per-job phase machines, and flow-level PFS contention via
//! [`pfsim`].

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

use pfsim::{Channel, FlowId, FlowSpec, MeterId, Pfs, PfsConfig};
use simcore::{EventQueue, Invariant, SimTime, StepSeries};

/// Cluster-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of compute nodes (paper: 500).
    pub nodes: usize,
    /// The shared PFS (paper: 120 GB/s).
    pub pfs: PfsConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 500,
            pfs: PfsConfig {
                write_capacity: 120e9,
                read_capacity: 120e9,
            },
        }
    }
}

/// One phase of a job profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobPhase {
    /// Pure computation for the given seconds.
    Compute(f64),
    /// Write the given aggregate bytes to the PFS.
    Write(f64),
}

/// How a job performs its I/O phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoStyle {
    /// I/O blocks the job (the common case).
    Sync,
    /// I/O overlaps the following compute phase; the job blocks only when
    /// the next I/O phase starts before the previous transfer finished.
    Async,
}

/// A job submission.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display name.
    pub name: String,
    /// Nodes requested.
    pub nodes: usize,
    /// Submission time, seconds.
    pub submit: f64,
    /// Phase list.
    pub profile: Vec<JobPhase>,
    /// Sync or async I/O.
    pub style: IoStyle,
    /// If set, the job's transfers are capped at this rate (bytes/s) *while
    /// other jobs are using the PFS* (limiting during contention only).
    pub contention_cap: Option<f64>,
}

impl JobSpec {
    /// A HACC-IO-mimicking job: `loops` × (compute, write burst).
    pub fn hacc_like(
        name: &str,
        nodes: usize,
        submit: f64,
        loops: usize,
        compute_seconds: f64,
        write_bytes: f64,
        style: IoStyle,
    ) -> Self {
        let mut profile = Vec::with_capacity(loops * 2);
        for _ in 0..loops {
            profile.push(JobPhase::Compute(compute_seconds));
            profile.push(JobPhase::Write(write_bytes));
        }
        JobSpec {
            name: name.to_string(),
            nodes,
            submit,
            profile,
            style,
            contention_cap: None,
        }
    }

    /// The TMIO-style required bandwidth of this profile: each I/O phase
    /// must fit into the *following* compute window (the async overlap);
    /// the maximum over phases is what the job needs to hide its I/O.
    pub fn required_bandwidth(&self) -> f64 {
        let mut best: f64 = 0.0;
        for (i, ph) in self.profile.iter().enumerate() {
            if let JobPhase::Write(bytes) = ph {
                if let Some(JobPhase::Compute(window)) = self.profile.get(i + 1) {
                    best = best.max(bytes / window.max(1e-9));
                }
            }
        }
        best
    }
}

/// Result of one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Job name.
    pub name: String,
    /// Nodes used.
    pub nodes: usize,
    /// Time the job started executing.
    pub start: f64,
    /// Time the job finished.
    pub end: f64,
}

impl JobResult {
    /// Wall-clock runtime.
    pub fn runtime(&self) -> f64 {
        self.end - self.start
    }
}

/// Result of a cluster simulation.
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// Per-job results in submission order.
    pub jobs: Vec<JobResult>,
    /// Aggregate PFS write-rate series (Fig. 2).
    pub total_bandwidth: StepSeries,
    /// Per-job transfer-rate series.
    pub job_bandwidth: Vec<StepSeries>,
    /// Makespan of the whole workload.
    pub makespan: f64,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum JobState {
    Queued,
    Running,
    Done,
}

struct Job {
    spec: JobSpec,
    state: JobState,
    phase: usize,
    start: SimTime,
    end: SimTime,
    meter: MeterId,
    /// Whether the job's one transfer is on the PFS. A job has at most one
    /// live flow, named by the job's index.
    io_live: bool,
    /// Blocked until that transfer completes (sync I/O, async
    /// back-pressure, or an async job's last transfer).
    blocked: bool,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// A job reached its submit time.
    Arrive,
    ComputeDone(usize),
    PfsWake,
}

/// The batch simulator.
pub struct Cluster {
    queue: EventQueue<Event>,
    pfs: Pfs,
    jobs: Vec<Job>,
    free_nodes: usize,
    wait_queue: Vec<usize>,
}

impl Cluster {
    /// Creates a cluster with the given jobs submitted.
    pub fn new(cfg: ClusterConfig, specs: Vec<JobSpec>) -> Self {
        let mut pfs = Pfs::new(cfg.pfs);
        let mut queue = EventQueue::new();
        let jobs: Vec<Job> = specs
            .into_iter()
            .map(|spec| Job {
                spec,
                state: JobState::Queued,
                phase: 0,
                start: SimTime::ZERO,
                end: SimTime::ZERO,
                meter: pfs.meter(),
                io_live: false,
                blocked: false,
            })
            .collect();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .spec
                .submit
                .partial_cmp(&jobs[b].spec.submit)
                .invariant("NaN-free")
        });
        for i in order {
            queue.schedule(SimTime::from_secs(jobs[i].spec.submit), Event::Arrive);
        }
        let free_nodes = cfg.nodes;
        Cluster {
            queue,
            pfs,
            jobs,
            free_nodes,
            wait_queue: Vec::new(),
        }
    }

    /// Runs to completion.
    pub fn run(mut self) -> ClusterResult {
        while self.jobs.iter().any(|j| j.state != JobState::Done) {
            let Some((_, ev)) = self.queue.pop() else {
                panic!("cluster deadlock: jobs pending but no events");
            };
            match ev {
                Event::Arrive => self.try_schedule(),
                Event::ComputeDone(i) => self.advance_job(i),
                Event::PfsWake => {
                    self.drain_pfs();
                    self.resync_pfs();
                }
            }
        }
        let makespan = self
            .jobs
            .iter()
            .map(|j| j.end.as_secs())
            .fold(0.0, f64::max);
        // `new` allocates one meter per job, in job order.
        let ([total_bandwidth, _], job_bandwidth) = self.pfs.into_series();
        ClusterResult {
            jobs: self
                .jobs
                .iter()
                .map(|j| JobResult {
                    name: j.spec.name.clone(),
                    nodes: j.spec.nodes,
                    start: j.start.as_secs(),
                    end: j.end.as_secs(),
                })
                .collect(),
            total_bandwidth,
            job_bandwidth,
            makespan,
        }
    }

    /// Enqueue newly arrived jobs, then start jobs in strict FCFS order:
    /// a blocked queue head blocks everyone behind it.
    fn try_schedule(&mut self) {
        let now = self.queue.now();
        let mut newly: Vec<usize> = (0..self.jobs.len())
            .filter(|&i| {
                self.jobs[i].state == JobState::Queued
                    && self.jobs[i].spec.submit <= now.as_secs() + 1e-12
                    && !self.wait_queue.contains(&i)
            })
            .collect();
        newly.sort_by(|&a, &b| {
            self.jobs[a]
                .spec
                .submit
                .partial_cmp(&self.jobs[b].spec.submit)
                .invariant("NaN-free")
        });
        self.wait_queue.append(&mut newly);
        while let Some(&i) = self.wait_queue.first() {
            if self.jobs[i].spec.nodes > self.free_nodes {
                break;
            }
            self.wait_queue.remove(0);
            self.start_job(i, now);
        }
    }

    fn start_job(&mut self, i: usize, now: SimTime) {
        self.free_nodes -= self.jobs[i].spec.nodes;
        self.jobs[i].state = JobState::Running;
        self.jobs[i].start = now;
        self.advance_job(i);
    }

    /// Moves job `i` through its phase machine until it blocks or finishes.
    fn advance_job(&mut self, i: usize) {
        loop {
            let now = self.queue.now();
            if self.jobs[i].blocked {
                return;
            }
            let phase = self.jobs[i].phase;
            let Some(&ph) = self.jobs[i].spec.profile.get(phase) else {
                // Profile exhausted; async jobs must drain their last flow.
                if self.jobs[i].io_live {
                    self.jobs[i].blocked = true;
                    return;
                }
                self.finish_job(i);
                return;
            };
            match ph {
                JobPhase::Compute(d) => {
                    self.jobs[i].phase += 1;
                    self.queue.schedule_in(d, Event::ComputeDone(i));
                    return;
                }
                JobPhase::Write(bytes) => {
                    // Async back-pressure: wait for the previous transfer
                    // before issuing the next one.
                    if self.jobs[i].io_live {
                        self.jobs[i].blocked = true;
                        return;
                    }
                    self.jobs[i].phase += 1;
                    self.drain_pfs();
                    let spec = FlowSpec {
                        bytes,
                        weight: self.jobs[i].spec.nodes as f64,
                        cap: None,
                        meter: Some(self.jobs[i].meter),
                    };
                    self.pfs.submit(now, Channel::Write, spec, FlowId(i as u64));
                    let sync = self.jobs[i].spec.style == IoStyle::Sync;
                    self.jobs[i].io_live = true;
                    self.jobs[i].blocked = sync;
                    self.update_contention_caps();
                    self.resync_pfs();
                    if sync {
                        return;
                    }
                    // Async: continue with the next phase immediately.
                }
            }
        }
    }

    fn finish_job(&mut self, i: usize) {
        let now = self.queue.now();
        self.jobs[i].state = JobState::Done;
        self.jobs[i].end = now;
        self.free_nodes += self.jobs[i].spec.nodes;
        self.try_schedule();
    }

    /// Applies/removes contention caps: a job with `contention_cap` is
    /// limited exactly while any *other* job has I/O in flight.
    fn update_contention_caps(&mut self) {
        let now = self.queue.now();
        let live = self.jobs.iter().filter(|j| j.io_live).count();
        for (i, job) in self.jobs.iter().enumerate() {
            let Some(cap) = job.spec.contention_cap else {
                continue;
            };
            if job.io_live {
                // The job's own flow is one of the `live`.
                let others_active = live > 1;
                self.pfs
                    .set_cap(now, FlowId(i as u64), others_active.then_some(cap));
            }
        }
        self.resync_pfs();
    }

    fn drain_pfs(&mut self) {
        loop {
            let now = self.queue.now();
            let done = self.pfs.advance_to(now);
            if done.is_empty() {
                return;
            }
            for (_, flow) in done {
                self.on_flow_done(flow);
            }
        }
    }

    fn on_flow_done(&mut self, flow: FlowId) {
        let i = flow.0 as usize;
        debug_assert!(self.jobs[i].io_live, "flow of a job without live I/O");
        let was_blocked = self.jobs[i].blocked;
        self.jobs[i].io_live = false;
        self.jobs[i].blocked = false;
        self.update_contention_caps();
        if was_blocked {
            self.advance_job(i);
        } else if self.jobs[i].phase >= self.jobs[i].spec.profile.len()
            && self.jobs[i].state == JobState::Running
        {
            self.finish_job(i);
        }
    }

    fn resync_pfs(&mut self) {
        let now = self.queue.now();
        let target = self.pfs.next_completion().map(|t| t.max(now));
        self.queue.set_wake(target, Event::PfsWake);
    }
}

/// Builds the paper's Fig. 1 scenario: eight HACC-IO-like jobs on 16, 32 or
/// 96 nodes; job 4 is the only asynchronous one. When `limit_job4` is true,
/// job 4 is capped at its required bandwidth (×`tol`) during contention.
pub fn motivation_scenario(limit_job4: bool, tol: f64) -> (ClusterConfig, Vec<JobSpec>) {
    let cfg = ClusterConfig::default();
    // I/O-dominated sync jobs keep the PFS near saturation for most of the
    // run (the paper's Fig. 2): 10 GB per node per loop against only 4 s of
    // compute. Job 4 is compute-heavy with async I/O: its required
    // bandwidth (4 GB / 20 s = 0.2 GB/s per node → 19.2 GB/s) sits well
    // below its by-node fair share (96/336 × 120 ≈ 34 GB/s), so capping it
    // during contention is a pure gift of ~13 GB/s to the sync jobs, while
    // its own transfers still fit the 20 s compute window.
    let gb = 1e9;
    let sync_job = |name: &str, nodes: usize, submit: f64, loops: usize| {
        JobSpec::hacc_like(
            name,
            nodes,
            submit,
            loops,
            4.0,
            10.0 * gb * nodes as f64,
            IoStyle::Sync,
        )
    };
    let mut jobs = vec![
        sync_job("job0", 96, 0.0, 6),
        sync_job("job1", 32, 2.0, 7),
        sync_job("job2", 16, 4.0, 8),
        sync_job("job3", 32, 6.0, 7),
        JobSpec::hacc_like("job4", 96, 8.0, 8, 20.0, 4.0 * gb * 96.0, IoStyle::Async),
        sync_job("job5", 16, 10.0, 8),
        sync_job("job6", 32, 12.0, 7),
        sync_job("job7", 16, 14.0, 8),
    ];
    if limit_job4 {
        let b = jobs[4].required_bandwidth();
        jobs[4].contention_cap = Some(b * tol);
    }
    (cfg, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_job(style: IoStyle) -> JobSpec {
        JobSpec::hacc_like("j", 10, 0.0, 3, 10.0, 100e9, style)
    }

    #[test]
    fn single_sync_job_runtime() {
        let cfg = ClusterConfig::default();
        // 3 × (10 s compute + 100 GB / 120 GB/s ≈ 0.833 s I/O) ≈ 32.5 s.
        let r = Cluster::new(cfg, vec![one_job(IoStyle::Sync)]).run();
        assert!(
            (r.jobs[0].runtime() - 32.5).abs() < 0.1,
            "{}",
            r.jobs[0].runtime()
        );
    }

    #[test]
    fn single_async_job_hides_io() {
        let cfg = ClusterConfig::default();
        // Bursts hidden behind the following compute; only the last one
        // (nothing left to overlap) adds its ~0.833 s.
        let r = Cluster::new(cfg, vec![one_job(IoStyle::Async)]).run();
        assert!(
            (r.jobs[0].runtime() - 30.833).abs() < 0.1,
            "{}",
            r.jobs[0].runtime()
        );
    }

    #[test]
    fn jobs_queue_when_nodes_exhausted() {
        let cfg = ClusterConfig {
            nodes: 10,
            ..Default::default()
        };
        let a = JobSpec::hacc_like("a", 10, 0.0, 1, 5.0, 1e9, IoStyle::Sync);
        let b = JobSpec::hacc_like("b", 10, 0.0, 1, 5.0, 1e9, IoStyle::Sync);
        let r = Cluster::new(cfg, vec![a, b]).run();
        assert!(r.jobs[1].start >= r.jobs[0].end - 1e-9, "b must wait for a");
    }

    #[test]
    fn fcfs_blocks_later_small_jobs() {
        let cfg = ClusterConfig {
            nodes: 10,
            ..Default::default()
        };
        let a = JobSpec::hacc_like("a", 8, 0.0, 1, 5.0, 1e9, IoStyle::Sync);
        let big = JobSpec::hacc_like("big", 10, 1.0, 1, 5.0, 1e9, IoStyle::Sync);
        let small = JobSpec::hacc_like("small", 2, 2.0, 1, 5.0, 1e9, IoStyle::Sync);
        let r = Cluster::new(cfg, vec![a, big, small]).run();
        // Strict FCFS: small (fits beside a) must still wait behind big.
        assert!(r.jobs[2].start >= r.jobs[1].start - 1e-9);
    }

    #[test]
    fn contention_slows_concurrent_jobs() {
        let cfg = ClusterConfig::default();
        let solo = Cluster::new(cfg, vec![one_job(IoStyle::Sync)]).run().jobs[0].runtime();
        let pair = Cluster::new(cfg, vec![one_job(IoStyle::Sync), one_job(IoStyle::Sync)]).run();
        assert!(
            pair.jobs[0].runtime() > solo + 1.0,
            "shared PFS must slow both: {} vs {solo}",
            pair.jobs[0].runtime()
        );
    }

    #[test]
    fn required_bandwidth_of_profile() {
        let j = JobSpec::hacc_like("j", 4, 0.0, 2, 10.0, 50e9, IoStyle::Async);
        // Each write must fit the *following* 10 s compute window; the last
        // write has none, so phases contributing are loops 0..n−1.
        assert!((j.required_bandwidth() - 5e9).abs() < 1.0);
    }

    #[test]
    fn contention_cap_frees_bandwidth_for_sync_jobs() {
        // One async job + one sync job on the same PFS. Capping the async
        // job at its required bandwidth speeds the sync job up.
        let cfg = ClusterConfig::default();
        let sync_job = || JobSpec::hacc_like("sync", 96, 0.0, 6, 10.0, 150e9, IoStyle::Sync);
        let mut async_job = JobSpec::hacc_like("async", 96, 0.0, 6, 10.0, 150e9, IoStyle::Async);

        let base = Cluster::new(cfg, vec![sync_job(), async_job.clone()]).run();

        async_job.contention_cap = Some(async_job.required_bandwidth() * 1.1);
        let limited = Cluster::new(cfg, vec![sync_job(), async_job]).run();

        let sync_base = base.jobs[0].runtime();
        let sync_lim = limited.jobs[0].runtime();
        assert!(
            sync_lim < sync_base - 1.0,
            "sync job should profit: {sync_lim} vs {sync_base}"
        );
        // The async job may slow down slightly, but not catastrophically.
        let async_base = base.jobs[1].runtime();
        let async_lim = limited.jobs[1].runtime();
        assert!(
            async_lim < async_base * 1.35,
            "async job {async_lim} vs {async_base}"
        );
    }

    #[test]
    fn bandwidth_series_conserves_bytes() {
        let cfg = ClusterConfig::default();
        let r = Cluster::new(cfg, vec![one_job(IoStyle::Sync)]).run();
        let moved = r
            .total_bandwidth
            .integral(SimTime::ZERO, SimTime::from_secs(1e4));
        assert!((moved - 300e9).abs() < 1e6, "moved {moved}");
    }

    #[test]
    fn motivation_scenario_shapes() {
        let (cfg, jobs) = motivation_scenario(true, 1.1);
        assert_eq!(jobs.len(), 8);
        assert_eq!(cfg.nodes, 500);
        assert!(jobs[4].contention_cap.is_some());
        assert!(jobs
            .iter()
            .enumerate()
            .all(|(i, j)| (i == 4) == (j.style == IoStyle::Async)));
    }
}
