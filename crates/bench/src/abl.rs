//! Registry entries for the ablation studies DESIGN.md calls out:
//!
//! * `tol`        — tolerance sweep for the direct strategy (risk/exploit),
//! * `subreq`     — ADIO sub-request size (pacing granularity),
//! * `semantics`  — te-mode (first/last wait) × aggregation (sum/mean),
//! * `limitsync`  — pacing blocking calls too (paper) vs async-only,
//! * `interference` — the \[33\] I/O↔compute competition model,
//! * `mfu`        — the future-work MFU-table strategy vs the paper's three,
//! * `bb`         — the burst-buffer future-work extension for sync I/O.
//!
//! Every run goes through [`run`], the one session entry point of the
//! harness; every config knob is set through the [`ExpConfig`] builder
//! surface.

use crate::registry::ScenarioCtx;
use crate::scenarios::run;
use crate::write_csv;
use hpcwl::hacc::HaccConfig;
use hpcwl::wacomm::WacommConfig;
use iobts::session::{ExpConfig, HaccIo, RawWorkload, RunOutput, Wacomm};
use simcore::Invariant;
use tmio::{Aggregation, Strategy, TeMode};

fn hacc() -> HaccConfig {
    HaccConfig {
        particles_per_rank: 100_000,
        loops: 8,
        ..Default::default()
    }
}

fn header(t: &str) {
    println!("\n=== ablation: {t} ===");
}

fn stats(out: &RunOutput) -> (f64, f64, f64) {
    let d = out.report.decomposition();
    (
        out.app_time(),
        100.0 * (d.async_write_lost + d.async_read_lost) / d.total.max(1e-12),
        100.0 * d.exploit() / d.total.max(1e-12),
    )
}

/// Peak PFS write rate over any 100 ms window after `start` (needs `record_pfs`).
fn sustained_peak(out: &RunOutput, start: f64) -> f64 {
    let mut peak = 0.0f64;
    let mut x = start;
    while x + 0.1 <= out.app_time() {
        let r = out.pfs_write.integral(
            simcore::SimTime::from_secs(x),
            simcore::SimTime::from_secs(x + 0.1),
        ) / 0.1;
        peak = peak.max(r);
        x += 0.05;
    }
    peak
}

/// Tolerance sweep: low tol = aggressive (waits appear), high tol = safe
/// but less exploitation (the trade-off of Sec. IV-B).
pub fn tol_sweep(_ctx: &ScenarioCtx) -> Result<(), String> {
    header("direct-strategy tolerance (HACC-IO, 16 ranks)");
    println!(
        "{:>6} {:>10} {:>8} {:>9}",
        "tol", "time [s]", "lost %", "exploit %"
    );
    let mut rows = Vec::new();
    for tol in [0.8, 0.9, 1.0, 1.1, 1.3, 1.5, 2.0] {
        let out = run(
            ExpConfig::new(16, Strategy::Direct { tol }),
            HaccIo::new(hacc()),
        );
        let (t, lost, exploit) = stats(&out);
        println!("{tol:>6.1} {t:>10.2} {lost:>8.1} {exploit:>9.1}");
        rows.push(format!("{tol},{t:.4},{lost:.2},{exploit:.2}"));
    }
    write_csv("ablation_tol", "tol,time_s,lost_pct,exploit_pct", &rows)
        .map_err(|e| e.to_string())?;
    println!("(lower tol -> more waiting; higher tol -> less exploitation)");
    Ok(())
}

/// Sub-request size: smaller sub-requests pace more smoothly but cost more
/// I/O-thread round trips; larger ones burst.
pub fn subreq_sweep(_ctx: &ScenarioCtx) -> Result<(), String> {
    header("ADIO sub-request size (HACC-IO, 16 ranks, up-only)");
    println!(
        "{:>12} {:>10} {:>9} {:>22}",
        "subreq", "time [s]", "lost %", "sustained peak [MB/s]"
    );
    let mut rows = Vec::new();
    for kib in [256.0, 1024.0, 4096.0, 16384.0] {
        let cfg = ExpConfig::new(16, Strategy::UpOnly { tol: 1.1 })
            .with_subreq_bytes(kib * 1024.0)
            .with_record_pfs(true);
        let out = run(cfg, HaccIo::new(hacc()));
        let (t, lost, _) = stats(&out);
        // Peak bytes in any 100 ms window after the limiter engages.
        let peak = sustained_peak(&out, out.report.limit_start_time().unwrap_or(0.0));
        println!(
            "{:>9} KiB {:>10.2} {:>9.1} {:>22.1}",
            kib,
            t,
            lost,
            peak / 1e6
        );
        rows.push(format!("{kib},{t:.4},{lost:.2},{:.1}", peak / 1e6));
    }
    write_csv(
        "ablation_subreq",
        "subreq_kib,time_s,lost_pct,peak_mbs",
        &rows,
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// Window-end and aggregation semantics (the TMIO options of Sec. IV-A).
/// Needs multiple requests per phase with separated waits — a pattern of
/// two iwrites whose waits close 1.0 s and 1.5 s after submission, run as a
/// [`RawWorkload`] through the same session pipeline as everything else.
pub fn semantics(_ctx: &ScenarioCtx) -> Result<(), String> {
    use mpisim::{FileId, Op, Program, ReqTag};
    header("B window semantics: te-mode × aggregation (2 requests per phase)");
    println!(
        "{:<10} {:<5} {:>14} {:>14}",
        "te", "agg", "rank B [MB/s]", "app B [MB/s]"
    );
    let mut rows = Vec::new();
    for te in [TeMode::FirstWait, TeMode::LastWait] {
        for agg in [Aggregation::Sum, Aggregation::Mean] {
            let b = 10e6;
            let mut ops = Vec::new();
            for k in 0..4u32 {
                ops.push(Op::IWrite {
                    file: FileId(0),
                    bytes: b,
                    tag: ReqTag(2 * k),
                });
                ops.push(Op::IWrite {
                    file: FileId(0),
                    bytes: b,
                    tag: ReqTag(2 * k + 1),
                });
                ops.push(Op::Compute { seconds: 1.0 });
                ops.push(Op::Wait { tag: ReqTag(2 * k) });
                ops.push(Op::Compute { seconds: 0.5 });
                ops.push(Op::Wait {
                    tag: ReqTag(2 * k + 1),
                });
            }
            let cfg = ExpConfig::new(4, Strategy::None)
                .exact()
                .with_te_mode(te)
                .with_aggregation(agg)
                .with_peri_call_overhead(0.0);
            let workload =
                RawWorkload::new("semantics", vec![Program::from_ops(ops); 4], vec!["f"]);
            let out = run(cfg, workload);
            let rank_b = out.report.phases[0].b_required / 1e6;
            let app_b = out.report.required_bandwidth() / 1e6;
            println!("{te:<10?} {agg:<5?} {rank_b:>14.1} {app_b:>14.1}");
            rows.push(format!("{te:?},{agg:?},{rank_b:.2},{app_b:.2}"));
        }
    }
    write_csv("ablation_semantics", "te,agg,rank_B_mbs,app_B_mbs", &rows)
        .map_err(|e| e.to_string())?;
    println!("(the paper picks FirstWait+Sum — the highest, most conservative B)");
    Ok(())
}

/// Pacing the trailing sync writes vs leaving them unthrottled.
pub fn limit_sync(_ctx: &ScenarioCtx) -> Result<(), String> {
    header("limit applies to blocking I/O too? (WaComM, 96 ranks, up-only)");
    println!(
        "{:<12} {:>10} {:>12}",
        "limit sync", "time [s]", "final tail [s]"
    );
    let mut rows = Vec::new();
    for on in [true, false] {
        let cfg = ExpConfig::new(96, Strategy::UpOnly { tol: 1.1 }).with_limit_sync(on);
        let out = run(cfg, Wacomm::new(WacommConfig::default()));
        let d = out.report.decomposition();
        println!(
            "{:<12} {:>10.2} {:>12.3}",
            if on { "yes (paper)" } else { "no" },
            out.app_time(),
            d.sync_write / 96.0
        );
        rows.push(format!(
            "{on},{:.4},{:.4}",
            out.app_time(),
            d.sync_write / 96.0
        ));
    }
    write_csv(
        "ablation_limitsync",
        "limit_sync,time_s,sync_write_mean_s",
        &rows,
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// The \[33\] interference model — an honestly negative ablation. The toll is
/// charged per transferred sub-request byte at burst concurrency, and the
/// limiter's pacing (transfer fast, then sleep) preserves exactly that burst
/// microstructure: both runs pay the same toll and the paper's ≈11.6 %
/// speedup does NOT emerge. The mechanism the paper suspects (I/O threads
/// competing with compute threads for cores) lives below this substrate's
/// abstraction level; see EXPERIMENTS.md.
pub fn interference(_ctx: &ScenarioCtx) -> Result<(), String> {
    header("I/O↔compute interference alpha (WaComM, 96 ranks) — negative result");
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "alpha", "none [s]", "up-only [s]", "limit gain"
    );
    let mut rows = Vec::new();
    for alpha in [0.0, 1e3, 1e4, 4e4] {
        let time = |strategy| {
            let cfg = ExpConfig::new(96, strategy).with_interference(alpha);
            run(cfg, Wacomm::new(WacommConfig::default())).app_time()
        };
        let none = time(Strategy::None);
        let up = time(Strategy::UpOnly { tol: 1.1 });
        let gain = 100.0 * (none - up) / none;
        println!("{alpha:>8.0} {none:>14.2} {up:>14.2} {gain:>+9.1}%");
        rows.push(format!("{alpha},{none:.4},{up:.4},{gain:.2}"));
    }
    write_csv(
        "ablation_interference",
        "alpha,none_s,uponly_s,gain_pct",
        &rows,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "(both runs slow equally: pacing preserves the burst microstructure, so\n\
         the paper's thread-competition speedup is not reproducible in a fluid\n\
         model — documented as a substrate limitation in EXPERIMENTS.md)"
    );
    Ok(())
}

/// MFU-table strategy (the paper's future-work idea) against the three
/// published strategies on a workload with a recurring phase pattern.
pub fn mfu(_ctx: &ScenarioCtx) -> Result<(), String> {
    header("MFU-table strategy vs the paper's three (HACC-IO, 16 ranks)");
    println!(
        "{:<10} {:>10} {:>8} {:>9}",
        "strategy", "time [s]", "lost %", "exploit %"
    );
    let mut rows = Vec::new();
    for strategy in [
        Strategy::Direct { tol: 1.1 },
        Strategy::UpOnly { tol: 1.1 },
        Strategy::Adaptive {
            tol: 1.1,
            tol_i: 0.5,
        },
        Strategy::Mfu { tol: 1.3, bins: 32 },
        Strategy::None,
    ] {
        let out = run(ExpConfig::new(16, strategy), HaccIo::new(hacc()));
        let (t, lost, exploit) = stats(&out);
        println!(
            "{:<10} {t:>10.2} {lost:>8.1} {exploit:>9.1}",
            strategy.name()
        );
        rows.push(format!("{},{t:.4},{lost:.2},{exploit:.2}", strategy.name()));
    }
    write_csv(
        "ablation_mfu",
        "strategy,time_s,lost_pct,exploit_pct",
        &rows,
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// Burst buffer for synchronous I/O: the future-work extension.
pub fn burst_buffer(_ctx: &ScenarioCtx) -> Result<(), String> {
    use pfsim::burstbuffer::required_drain_bandwidth;
    use pfsim::BurstBufferConfig;
    let hc = HaccConfig {
        particles_per_rank: 1_000_000,
        loops: 8,
        ..Default::default()
    };
    let period = hc.compute_seconds() + hc.verify_seconds();
    let bb = BurstBufferConfig {
        size_bytes: 4e9,
        absorb_rate: 5e9,
        drain_rate: 1e9,
    };
    header("burst buffer for synchronous HACC-IO (16 ranks, sync baseline)");
    println!(
        "per-rank burst {:.1} MB every {:.2} s -> required drain {:.1} MB/s (drain cap {:.0} MB/s)",
        hc.data_bytes() / 1e6,
        period,
        required_drain_bandwidth(hc.data_bytes(), period, &bb).invariant("drainable config") / 1e6,
        bb.drain_rate / 1e6,
    );
    println!(
        "{:<10} {:>10} {:>12} {:>22}",
        "tier", "time [s]", "syncW [s]", "sustained peak [MB/s]"
    );
    let mut rows = Vec::new();
    for with_bb in [false, true] {
        // A modest mid-range PFS (1 GB/s) where checkpoint bursts hurt —
        // the tier is pointless on an idle 106 GB/s system.
        let mut cfg = ExpConfig::new(16, Strategy::None)
            .with_pfs(pfsim::PfsConfig {
                write_capacity: 1e9,
                read_capacity: 1e9,
            })
            .with_record_pfs(true);
        if with_bb {
            cfg = cfg.with_burst_buffer(bb);
        }
        let out = run(cfg, HaccIo::sync(hc));
        let d = out.report.decomposition();
        let peak = sustained_peak(&out, 0.0);
        println!(
            "{:<10} {:>10.2} {:>12.2} {:>22.1}",
            if with_bb { "bb" } else { "pfs-direct" },
            out.app_time(),
            d.sync_write / 16.0,
            peak / 1e6
        );
        rows.push(format!(
            "{with_bb},{:.4},{:.4},{:.1}",
            out.app_time(),
            d.sync_write / 16.0,
            peak / 1e6
        ));
    }
    write_csv(
        "ablation_bb",
        "with_bb,time_s,sync_write_mean_s,peak_mbs",
        &rows,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "(the buffer absorbs the bursts: visible sync-write time collapses and the\n\
         runtime improves; the same bytes still cross the PFS, so its saturation\n\
         episodes merely spread out — the drain is where the paper's future-work\n\
         required-bandwidth definition applies)"
    );
    Ok(())
}
