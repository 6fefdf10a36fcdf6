//! The [`Session`]: one execution entry point composing an [`ExpConfig`],
//! a [`Workload`], the TMIO tracer and the fault plan.

use crate::{ExpConfig, Workload};
use mpisim::{RunSummary, World};
use simcore::{SimError, SimResult, StepSeries};
use tmio::{Report, Tracer};

/// Everything one run produces.
#[derive(Debug)]
pub struct RunOutput {
    /// Runtime summary (makespan, per-rank accounting).
    pub summary: RunSummary,
    /// The TMIO report (phases, windows, decomposition, overheads).
    pub report: Report,
    /// Physical PFS write-rate series; empty unless `record_pfs` is set.
    pub pfs_write: StepSeries,
    /// Physical PFS read-rate series; empty unless `record_pfs` is set.
    pub pfs_read: StepSeries,
}

impl RunOutput {
    /// Application runtime (no post-runtime overhead), seconds.
    pub fn app_time(&self) -> f64 {
        self.summary.makespan()
    }

    /// Total runtime including TMIO's modeled post-runtime overhead.
    pub fn total_time(&self) -> f64 {
        self.app_time() + self.report.post_overhead
    }
}

/// A fully composed run: config + workload, ready to execute any number of
/// times (each [`Session::try_run`] is an independent, deterministic replay).
pub struct Session {
    cfg: ExpConfig,
    workload: Box<dyn Workload>,
}

impl Session {
    /// Starts building a session from an experiment configuration.
    pub fn builder(cfg: ExpConfig) -> SessionBuilder {
        SessionBuilder {
            cfg,
            workload: None,
        }
    }

    /// Runs the workload under the tracer and collects everything. Engine
    /// failures (deadlock, tripped watchdog, invalid program, a program
    /// count that differs from the rank count) come back as typed errors.
    pub fn try_run(&self) -> SimResult<RunOutput> {
        let cfg = &self.cfg;
        let driver = self.workload.driver(cfg.n_ranks)?;
        let tracer = match self.workload.record_counts(cfg.n_ranks) {
            Some(counts) => Tracer::with_counts(cfg.n_ranks, cfg.tracer_config(), counts),
            None => Tracer::new(cfg.n_ranks, cfg.tracer_config()),
        };
        let mut world = World::with_driver(cfg.world_config(), driver, tracer);
        for f in self.workload.files(cfg.n_ranks) {
            world.create_file(&f);
        }
        let summary = world.try_run()?;
        let (tracer, pfs_write, pfs_read) = world.into_parts();
        Ok(RunOutput {
            summary,
            report: tracer.into_report(),
            pfs_write,
            pfs_read,
        })
    }
}

/// Builder for [`Session`]: attach a workload to an [`ExpConfig`].
pub struct SessionBuilder {
    cfg: ExpConfig,
    workload: Option<Box<dyn Workload>>,
}

impl SessionBuilder {
    /// Sets the workload to execute.
    pub fn workload(mut self, w: impl Workload + 'static) -> Self {
        self.workload = Some(Box::new(w));
        self
    }

    /// Sets an already boxed workload (for registry-driven dispatch).
    pub fn workload_boxed(mut self, w: Box<dyn Workload>) -> Self {
        self.workload = Some(w);
        self
    }

    /// Finalizes the session, surfacing a missing workload, an invalid
    /// configuration (NaN/zero/negative capacities, tolerances or
    /// sub-request sizes, overlapping fault windows, …) or a workload
    /// that [`Workload::validate`] rejects (WaComM with fewer than two
    /// iterations) as a typed [`SimError`] instead of panicking.
    pub fn try_build(self) -> SimResult<Session> {
        self.cfg.validate()?;
        let Some(workload) = self.workload else {
            return Err(SimError::invalid_config(
                "workload",
                "SessionBuilder: no workload attached",
            ));
        };
        workload.validate()?;
        Ok(Session {
            cfg: self.cfg,
            workload,
        })
    }
}
