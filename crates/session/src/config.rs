//! The experiment configuration: the knobs the paper varies, plus the
//! builder surface every frontend constructs it through.

use mpisim::{WatchdogCfg, WorldConfig};
use pfsim::PfsConfig;
use simcore::{FaultPlan, Noise, SimError, SimResult};
use tmio::{Strategy, TracerConfig};

/// Common experiment configuration (the knobs the paper varies).
///
/// Not `Copy`: the embedded [`FaultPlan`] owns its schedules. Clone
/// explicitly when deriving configs in sweeps.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// MPI ranks.
    pub n_ranks: usize,
    /// Limiting strategy ([`Strategy::None`] = trace only, limiter off).
    pub strategy: Strategy,
    /// Master seed.
    pub seed: u64,
    /// Compute-phase noise. Quantized so synchronized ranks stay in a
    /// bounded number of PFS flow groups (see DESIGN.md §4).
    pub compute_noise: Noise,
    /// PFS capacities (defaults to Lichtenberg's 106/120 GB/s).
    pub pfs: PfsConfig,
    /// ADIO sub-request size, bytes.
    pub subreq_bytes: f64,
    /// Optional PFS capacity noise (I/O variability, Fig. 14).
    pub capacity_noise: Option<mpisim::CapacityNoiseCfg>,
    /// I/O↔compute interference strength (0 = off); see
    /// [`mpisim::WorldConfig::interference_alpha`].
    pub interference_alpha: f64,
    /// Whether the limiter also paces blocking I/O (paper default: true).
    pub limit_sync_ops: bool,
    /// Optional burst-buffer write tier (future-work extension).
    pub burst_buffer: Option<pfsim::BurstBufferConfig>,
    /// Window-end semantics for `B_{i,j}` (paper default: first wait).
    pub te_mode: tmio::TeMode,
    /// Per-request aggregation into `B_{i,j}` (paper default: sum).
    pub aggregation: tmio::Aggregation,
    /// Record the PFS rate series (off by default: only their readers pay).
    pub record_pfs: bool,
    /// Override for TMIO's per-call peri-runtime overhead, seconds
    /// (`None` = the paper-default 2 µs of [`TracerConfig`]).
    pub peri_call_overhead: Option<f64>,
    /// Seeded fault schedule (the chaos harness); the default empty plan
    /// reproduces the fault-free run bit-for-bit.
    pub faults: FaultPlan,
    /// Progress-watchdog thresholds for the run (see
    /// [`mpisim::WatchdogCfg`]). The defaults never trip on legitimate
    /// scenarios; tighten them in chaos runs to fail stalls fast.
    pub watchdog: WatchdogCfg,
}

impl ExpConfig {
    /// Paper-like defaults for `n_ranks` ranks under `strategy`.
    pub fn new(n_ranks: usize, strategy: Strategy) -> Self {
        ExpConfig {
            n_ranks,
            strategy,
            seed: 2024,
            compute_noise: Noise::QuantizedRel {
                amplitude: 0.03,
                levels: 8,
            },
            pfs: PfsConfig::default(),
            subreq_bytes: 1024.0 * 1024.0,
            capacity_noise: None,
            interference_alpha: 0.0,
            limit_sync_ops: true,
            burst_buffer: None,
            te_mode: tmio::TeMode::FirstWait,
            aggregation: tmio::Aggregation::Sum,
            record_pfs: false,
            peri_call_overhead: None,
            faults: FaultPlan::default(),
            watchdog: WatchdogCfg::default(),
        }
    }

    /// Rejects configurations the pipeline cannot execute — NaN, zero or
    /// negative capacities, tolerances and sub-request sizes, bad overhead
    /// overrides, and invalid fault plans (overlapping windows, bad
    /// probabilities) — as typed [`SimError::InvalidConfig`] values.
    /// [`crate::SessionBuilder::try_build`] calls this, so misconfiguration
    /// surfaces before any run starts.
    pub fn validate(&self) -> SimResult<()> {
        fn tol(field: &str, v: f64) -> SimResult<()> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(SimError::invalid_config(
                    field,
                    format!("tolerance must be finite and positive, got {v}"),
                ))
            }
        }
        match self.strategy {
            Strategy::None => {}
            Strategy::Direct { tol: t } => tol("strategy.tol", t)?,
            Strategy::UpOnly { tol: t } => tol("strategy.tol", t)?,
            Strategy::Adaptive { tol: t, tol_i } => {
                tol("strategy.tol", t)?;
                if !tol_i.is_finite() || tol_i < 0.0 {
                    return Err(SimError::invalid_config(
                        "strategy.tol_i",
                        format!("must be finite and >= 0, got {tol_i}"),
                    ));
                }
            }
            Strategy::Mfu { tol: t, bins } => {
                tol("strategy.tol", t)?;
                if bins == 0 {
                    return Err(SimError::invalid_config(
                        "strategy.bins",
                        "need at least one bin",
                    ));
                }
            }
        }
        if let Some(peri) = self.peri_call_overhead {
            if !peri.is_finite() || peri < 0.0 {
                return Err(SimError::invalid_config(
                    "peri_call_overhead",
                    format!("must be finite and >= 0, got {peri}"),
                ));
            }
        }
        self.world_config().validate()
    }

    /// Disables compute noise (exact analytic checks in tests).
    pub fn exact(mut self) -> Self {
        self.compute_noise = Noise::None;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the PFS channel capacities.
    pub fn with_pfs(mut self, pfs: PfsConfig) -> Self {
        self.pfs = pfs;
        self
    }

    /// Sets the ADIO sub-request size in bytes.
    pub fn with_subreq_bytes(mut self, bytes: f64) -> Self {
        self.subreq_bytes = bytes;
        self
    }

    /// Installs periodic PFS capacity noise (I/O variability, Fig. 14).
    pub fn with_capacity_noise(mut self, noise: mpisim::CapacityNoiseCfg) -> Self {
        self.capacity_noise = Some(noise);
        self
    }

    /// Sets the I/O↔compute interference strength (0 disables it).
    pub fn with_interference(mut self, alpha: f64) -> Self {
        self.interference_alpha = alpha;
        self
    }

    /// Sets whether the limiter also paces blocking I/O.
    pub fn with_limit_sync(mut self, on: bool) -> Self {
        self.limit_sync_ops = on;
        self
    }

    /// Installs the burst-buffer write tier.
    pub fn with_burst_buffer(mut self, bb: pfsim::BurstBufferConfig) -> Self {
        self.burst_buffer = Some(bb);
        self
    }

    /// Sets the window-end semantics for `B_{i,j}`.
    pub fn with_te_mode(mut self, te: tmio::TeMode) -> Self {
        self.te_mode = te;
        self
    }

    /// Sets the per-request aggregation into `B_{i,j}`.
    pub fn with_aggregation(mut self, agg: tmio::Aggregation) -> Self {
        self.aggregation = agg;
        self
    }

    /// Enables or disables PFS rate-series recording.
    pub fn with_record_pfs(mut self, on: bool) -> Self {
        self.record_pfs = on;
        self
    }

    /// Overrides TMIO's per-call peri-runtime overhead, seconds.
    pub fn with_peri_call_overhead(mut self, seconds: f64) -> Self {
        self.peri_call_overhead = Some(seconds);
        self
    }

    /// Installs a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    pub(crate) fn world_config(&self) -> WorldConfig {
        let mut wc = WorldConfig::new(self.n_ranks)
            .with_limiter(self.strategy.limits())
            .with_compute_noise(self.compute_noise)
            .with_seed(self.seed);
        wc.pfs = self.pfs;
        wc.subreq_bytes = self.subreq_bytes;
        wc.capacity_noise = self.capacity_noise;
        wc.interference_alpha = self.interference_alpha;
        wc.limit_sync_ops = self.limit_sync_ops;
        wc.burst_buffer = self.burst_buffer;
        wc.record_pfs = self.record_pfs;
        wc.faults = self.faults.clone();
        wc.watchdog = self.watchdog;
        wc
    }

    pub(crate) fn tracer_config(&self) -> TracerConfig {
        let mut tc = TracerConfig::with_strategy(self.strategy);
        tc.te_mode = self.te_mode;
        tc.aggregation = self.aggregation;
        if let Some(peri) = self.peri_call_overhead {
            tc.peri_call_overhead = peri;
        }
        tc
    }
}
