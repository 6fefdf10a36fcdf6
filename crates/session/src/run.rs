//! The [`Session`]: one execution entry point composing an [`ExpConfig`],
//! a [`Workload`], the TMIO tracer and the fault plan.

use crate::sink::{MetricsSink, RunMeta};
use crate::{ExpConfig, Workload};
use mpisim::{RunSummary, ScriptedDriver, World};
use simcore::{SimError, SimResult, StepSeries};
use tmio::{Report, Tracer, TracerConfig};

/// Everything one run produces.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Runtime summary (makespan, per-rank accounting).
    pub summary: RunSummary,
    /// The TMIO report (phases, windows, decomposition, overheads).
    pub report: Report,
    /// Physical PFS write-rate series.
    pub pfs_write: StepSeries,
    /// Physical PFS read-rate series.
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
/// times (each [`Session::run`] is an independent, deterministic replay).
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

    /// The experiment configuration this session runs under.
    pub fn config(&self) -> &ExpConfig {
        &self.cfg
    }

    /// Metadata identifying this session's runs in sinks and registries.
    pub fn meta(&self) -> RunMeta {
        RunMeta {
            workload: self.workload.name().to_string(),
            n_ranks: self.cfg.n_ranks,
            strategy: self.cfg.strategy.name(),
            seed: self.cfg.seed,
        }
    }

    /// Runs the workload under the tracer and collects everything.
    ///
    /// # Panics
    /// On any [`SimError`] raised by the engine (deadlock, tripped
    /// watchdog, invalid program); [`Session::try_run`] is the supervised,
    /// non-panicking path.
    pub fn run(&self) -> RunOutput {
        match self.try_run() {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the workload, surfacing engine failures as typed errors.
    pub fn try_run(&self) -> SimResult<RunOutput> {
        let cfg = &self.cfg;
        let programs = self.workload.programs(cfg.n_ranks);
        if programs.len() != cfg.n_ranks {
            return Err(SimError::invalid_config(
                "n_ranks",
                format!("{} ranks but {} programs", cfg.n_ranks, programs.len()),
            ));
        }
        let driver = ScriptedDriver::try_new(programs)?;
        let tracer = Tracer::new(cfg.n_ranks, cfg.tracer_config());
        let mut world = World::with_driver(cfg.world_config(), Box::new(driver), tracer);
        for f in self.workload.files(cfg.n_ranks) {
            world.create_file(&f);
        }
        let summary = world.try_run()?;
        let pfs_write = world.pfs_series(mpisim::Channel::Write).clone();
        let pfs_read = world.pfs_series(mpisim::Channel::Read).clone();
        let report = std::mem::replace(
            world.hooks_mut(),
            Tracer::new(0, TracerConfig::trace_only()),
        )
        .into_report();
        Ok(RunOutput {
            summary,
            report,
            pfs_write,
            pfs_read,
        })
    }

    /// Runs and streams the result into `sink` (also returning it).
    pub fn run_into(&self, sink: &mut dyn MetricsSink) -> RunOutput {
        let out = self.run();
        sink.on_run(&self.meta(), &out);
        out
    }

    /// Supervised variant of [`Session::run_into`]: engine failures come
    /// back as typed errors and nothing reaches the sink.
    pub fn try_run_into(&self, sink: &mut dyn MetricsSink) -> SimResult<RunOutput> {
        let out = self.try_run()?;
        sink.on_run(&self.meta(), &out);
        Ok(out)
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

    /// Finalizes the session, validating the configuration first.
    ///
    /// # Panics
    /// If no workload was attached or the configuration is invalid
    /// ([`SessionBuilder::try_build`] is the supervised, non-panicking
    /// path).
    pub fn build(self) -> Session {
        match self.try_build() {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Finalizes the session, surfacing a missing workload or an invalid
    /// configuration (NaN/zero/negative capacities, tolerances or
    /// sub-request sizes, overlapping fault windows, …) as a typed
    /// [`SimError`] instead of panicking.
    pub fn try_build(self) -> SimResult<Session> {
        self.cfg.validate()?;
        let Some(workload) = self.workload else {
            return Err(SimError::invalid_config(
                "workload",
                "SessionBuilder: no workload attached",
            ));
        };
        Ok(Session {
            cfg: self.cfg,
            workload,
        })
    }
}
