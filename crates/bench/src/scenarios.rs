//! The per-figure scenario computations. Each function reproduces one
//! figure of the paper's evaluation and returns its series/rows; the
//! registry entries ([`crate::registry`]) print and CSV-dump them. The
//! single-session `*_run` functions are the sweep points the work-count
//! gate (`tests/work_counts.rs`) pins. Scale notes live in EXPERIMENTS.md.
//!
//! Every run goes through [`run`] (the harness's one [`Session`] entry
//! point): workloads are [`HaccIo`]/[`Wacomm`] instances, configs are built
//! through the [`ExpConfig`] builder surface.

use crate::csv::CsvRow;
use clustersim::{motivation_scenario, Cluster, ClusterResult};
use hpcwl::hacc::HaccConfig;
use hpcwl::wacomm::WacommConfig;
use iobts::session::{ExpConfig, HaccIo, RunOutput, Session, Wacomm, Workload};
use simcore::Noise;
use tmio::Strategy;

/// Runs `workload` under `cfg` through a [`Session`].
///
/// # Panics
/// With the [`SimError`](iobts::session::SimError)'s message on an invalid
/// config or an engine failure; the registry reports a panicking scenario
/// as a failed entry.
pub fn run(cfg: ExpConfig, workload: impl Workload + 'static) -> RunOutput {
    match Session::builder(cfg)
        .workload(workload)
        .try_build()
        .and_then(|s| s.try_run())
    {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fig. 1/2 output: both cluster runs.
pub struct MotivationOut {
    /// Without limiting.
    pub free: ClusterResult,
    /// Job 4 capped at its required bandwidth during contention.
    pub limited: ClusterResult,
}

/// Figs. 1–2: the batch-simulator motivation study.
pub fn motivation() -> MotivationOut {
    let (cfg, jobs_free) = motivation_scenario(false, 1.0);
    let (_, jobs_limited) = motivation_scenario(true, 1.0);
    MotivationOut {
        free: Cluster::new(cfg, jobs_free).run(),
        limited: Cluster::new(cfg, jobs_limited).run(),
    }
}

/// Fig. 3: a single-rank trace exposing Δt (submit → wait) vs Δtᵃ
/// (submit → completion) per phase.
pub fn rank_timeline() -> RunOutput {
    let hacc = HaccConfig {
        particles_per_rank: 200_000,
        loops: 4,
        ..Default::default()
    };
    run(ExpConfig::new(1, Strategy::None).exact(), HaccIo::new(hacc))
}

/// Fig. 5/6 rows: one entry per rank count and strategy.
pub struct OverheadRow {
    /// Rank count.
    pub ranks: usize,
    /// Strategy name ("direct" run 0 / "none" run 1).
    pub run: &'static str,
    /// Application time (s).
    pub app: f64,
    /// Peri-runtime overhead (s, summed over ranks).
    pub peri: f64,
    /// Post-runtime overhead (s).
    pub post: f64,
    /// Total (app + post).
    pub total: f64,
    /// Visible I/O percentage of total rank-time.
    pub visible_pct: f64,
    /// Compute percentage.
    pub compute_pct: f64,
}

impl CsvRow for OverheadRow {
    const HEADER: &'static str = "ranks,run,app_s,peri_s,post_s,total_s,visible_io_pct,compute_pct";

    fn row(&self) -> String {
        format!(
            "{},{},{:.4},{:.6},{:.4},{:.4},{:.2},{:.2}",
            self.ranks,
            self.run,
            self.app,
            self.peri,
            self.post,
            self.total,
            self.visible_pct,
            self.compute_pct
        )
    }
}

/// The runs of Figs. 5 & 6: the direct strategy (run 0) and no limiting
/// (run 1).
pub const OVERHEAD_RUNS: [(&str, Strategy); 2] = [
    ("direct", Strategy::Direct { tol: 1.1 }),
    ("none", Strategy::None),
];

/// One Figs. 5 & 6 sweep point: HACC-IO at `n` ranks under `strategy`.
pub fn hacc_overhead_run(n: usize, strategy: Strategy, particles: u64) -> RunOutput {
    let cfg = ExpConfig::new(n, strategy);
    let hacc = HaccConfig {
        particles_per_rank: particles,
        ..Default::default()
    };
    run(cfg, HaccIo::new(hacc))
}

/// Figs. 5 & 6: HACC-IO runtime and overhead decomposition vs rank count,
/// for each of [`OVERHEAD_RUNS`].
pub fn hacc_overheads(ranks: &[usize], particles: u64) -> Vec<OverheadRow> {
    let points: Vec<(usize, &'static str, Strategy)> = ranks
        .iter()
        .flat_map(|&n| OVERHEAD_RUNS.map(|(run, strategy)| (n, run, strategy)))
        .collect();
    crate::par::par_map(&points, |&(n, run, strategy)| {
        let out = hacc_overhead_run(n, strategy, particles);
        let d = out.report.decomposition();
        let denom = d.total + out.report.post_overhead * n as f64;
        OverheadRow {
            ranks: n,
            run,
            app: out.app_time(),
            peri: out.report.peri_overhead,
            post: out.report.post_overhead,
            total: out.total_time(),
            visible_pct: 100.0 * d.visible_io() / denom.max(1e-12),
            compute_pct: 100.0 * (d.compute_io_free + d.exploit()) / denom.max(1e-12),
        }
    })
}

/// One stacked bar of Figs. 7/11.
pub struct DistRow {
    /// Rank count.
    pub ranks: usize,
    /// Run index within the rank group.
    pub run: usize,
    /// Strategy name.
    pub strategy: &'static str,
    /// Percentages: sync write, sync read, async write lost, async read
    /// lost, async write exploit, async read exploit, compute (I/O free).
    pub pct: [f64; 7],
    /// Application runtime (s).
    pub app: f64,
}

impl CsvRow for DistRow {
    const HEADER: &'static str =
        "ranks,run,strategy,sync_w,sync_r,lost_w,lost_r,expl_w,expl_r,compute,app_s";

    fn row(&self) -> String {
        format!(
            "{},{},{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.3}",
            self.ranks,
            self.run,
            self.strategy,
            self.pct[0],
            self.pct[1],
            self.pct[2],
            self.pct[3],
            self.pct[4],
            self.pct[5],
            self.pct[6],
            self.app
        )
    }
}

/// The six runs of Fig. 7: 0-1 direct (tol 2), 2-3 up-only (tol 1.1),
/// 4-5 none.
pub const WACOMM_RUNS: [(&str, Strategy); 6] = [
    ("direct", Strategy::Direct { tol: 2.0 }),
    ("direct", Strategy::Direct { tol: 2.0 }),
    ("up-only", Strategy::UpOnly { tol: 1.1 }),
    ("up-only", Strategy::UpOnly { tol: 1.1 }),
    ("none", Strategy::None),
    ("none", Strategy::None),
];

/// The eight runs of Fig. 11: 0-1 direct, 2-3 up-only, 4-5 adaptive, 6-7
/// none (all tol = 1.1).
pub const HACC_RUNS: [(&str, Strategy); 8] = [
    ("direct", Strategy::Direct { tol: 1.1 }),
    ("direct", Strategy::Direct { tol: 1.1 }),
    ("up-only", Strategy::UpOnly { tol: 1.1 }),
    ("up-only", Strategy::UpOnly { tol: 1.1 }),
    (
        "adaptive",
        Strategy::Adaptive {
            tol: 1.1,
            tol_i: 0.5,
        },
    ),
    (
        "adaptive",
        Strategy::Adaptive {
            tol: 1.1,
            tol_i: 0.5,
        },
    ),
    ("none", Strategy::None),
    ("none", Strategy::None),
];

/// The config of run `run` of a distribution figure under `strategy`:
/// repeated runs differ by seed.
fn dist_config(n: usize, run: usize, strategy: Strategy) -> ExpConfig {
    ExpConfig::new(n, strategy).with_seed(2024 + run as u64)
}

/// One Fig. 7 sweep point: run `i` of [`WACOMM_RUNS`] at `n` ranks.
pub fn wacomm_dist_run(n: usize, i: usize) -> RunOutput {
    run(
        dist_config(n, i, WACOMM_RUNS[i].1),
        Wacomm::new(WacommConfig::default()),
    )
}

/// One Fig. 11 sweep point: run `i` of [`HACC_RUNS`] at `n` ranks.
pub fn hacc_dist_run(n: usize, i: usize, particles: u64) -> RunOutput {
    let hacc = HaccConfig {
        particles_per_rank: particles,
        ..Default::default()
    };
    run(dist_config(n, i, HACC_RUNS[i].1), HaccIo::new(hacc))
}

/// The stacked bars of one distribution figure: every run of `runs` at
/// every rank count, computed by `run_point(n, run)`.
fn distribution(
    ranks: &[usize],
    runs: &[(&'static str, Strategy)],
    run_point: impl Fn(usize, usize) -> RunOutput + Sync,
) -> Vec<DistRow> {
    let points: Vec<(usize, usize)> = ranks
        .iter()
        .flat_map(|&n| (0..runs.len()).map(move |i| (n, i)))
        .collect();
    crate::par::par_map(&points, |&(n, i)| {
        let out = run_point(n, i);
        let d = out.report.decomposition();
        DistRow {
            ranks: n,
            run: i,
            strategy: runs[i].0,
            pct: d.percentages(),
            app: out.app_time(),
        }
    })
}

/// Fig. 7: WaComM time distribution across ranks, one row per
/// [`WACOMM_RUNS`] entry and rank count.
pub fn wacomm_distribution(ranks: &[usize]) -> Vec<DistRow> {
    distribution(ranks, &WACOMM_RUNS, wacomm_dist_run)
}

/// Fig. 11: HACC-IO time distribution, one row per [`HACC_RUNS`] entry and
/// rank count.
pub fn hacc_distribution(ranks: &[usize], particles: u64) -> Vec<DistRow> {
    distribution(ranks, &HACC_RUNS, |n, i| hacc_dist_run(n, i, particles))
}

/// Figs. 8/9/10: one WaComM run; its report carries the `T`/`B_L`/`B` series.
pub fn wacomm_series(ranks: usize, strategy: Strategy, interference: f64) -> RunOutput {
    let cfg = ExpConfig::new(ranks, strategy).with_interference(interference);
    run(cfg, Wacomm::new(WacommConfig::default()))
}

/// Figs. 13/14: one HACC-IO run; its report carries the `T`/`B_L`/`B` series.
/// Optional PFS capacity noise reproduces the I/O-variability of Fig. 14.
pub fn hacc_series(
    ranks: usize,
    particles: u64,
    strategy: Strategy,
    capacity_noise: bool,
) -> RunOutput {
    let mut cfg = ExpConfig::new(ranks, strategy);
    if capacity_noise {
        // Occasional deep capacity dips: a competing job's burst steals most
        // of the PFS, so even limit-paced transfers miss their windows.
        cfg = cfg.with_capacity_noise(mpisim::CapacityNoiseCfg {
            period: 1.5,
            noise: Noise::Spike {
                prob: 0.25,
                factor: 0.004,
            },
        });
    }
    let hacc = HaccConfig {
        particles_per_rank: particles,
        ..Default::default()
    };
    run(cfg, HaccIo::new(hacc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motivation_runs_and_helps() {
        let out = motivation();
        assert_eq!(out.free.jobs.len(), 8);
        // Aggregate sync-job runtime must improve with the limit.
        let sum = |r: &ClusterResult| -> f64 {
            r.jobs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 4)
                .map(|(_, j)| j.runtime())
                .sum()
        };
        assert!(sum(&out.limited) < sum(&out.free));
    }

    #[test]
    fn rank_timeline_has_phases() {
        let out = rank_timeline();
        assert_eq!(out.report.phases.iter().filter(|p| p.rank == 0).count(), 8);
    }

    #[test]
    fn hacc_overhead_rows_cover_sweep() {
        let rows = hacc_overheads(&[1, 4], 20_000);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.total >= r.app);
            assert!(r.peri < 0.01 * r.app * r.ranks as f64, "peri small");
        }
    }

    #[test]
    fn distribution_percentages_sum_to_100() {
        let rows = wacomm_distribution(&[24]);
        assert_eq!(rows.len(), 6);
        for r in rows {
            let s: f64 = r.pct.iter().sum();
            assert!((s - 100.0).abs() < 1e-6, "{s}");
        }
    }
}
