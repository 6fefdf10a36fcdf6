//! The WaComM-like pollutant-transport workload (paper Sec. VI-A): a real
//! Lagrangian kernel plus the asynchronous per-iteration write schedule,
//! with and without bandwidth limiting.
//!
//! Usage: `cargo run --release --example wacomm [ranks] [iterations]`
//! (defaults: 96 ranks, 50 iterations — the Fig. 8/9 configuration).

use hpcwl::wacomm::kernel;
use iobts::prelude::*;

fn main() -> Result<(), SimError> {
    let mut args = std::env::args().skip(1);
    let ranks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(96);
    let iterations: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50);

    // --- The physics: advect a real (scaled-down) particle population the
    // way WaComM does each simulated hour, so the bytes written are honest.
    let mut particles = kernel::seed(20_000, (10_000.0, 5_000.0, 2.0));
    let mut trajectory = Vec::new();
    for hour in 0..6 {
        kernel::advect(&mut particles, 3600.0, 2e-6);
        trajectory.push((hour, kernel::mean_health(&particles)));
    }
    println!("=== WaComM kernel: 20k particles, 6 simulated hours ===");
    for (hour, health) in &trajectory {
        println!("  hour {hour}: mean pollutant health {health:.4}");
    }
    let bytes = kernel::serialize(&particles);
    println!(
        "  per-iteration output: {:.2} MB\n",
        bytes.len() as f64 / 1e6
    );

    // --- The I/O study (Figs. 8/9): same schedule at full particle count.
    let wc = WacommConfig {
        iterations,
        ..Default::default()
    };
    println!(
        "=== WaComM-like run: {ranks} ranks, {iterations} iterations, \
         2e6 particles total ===\n"
    );

    let run = |strategy| {
        // The physical PFS write series shows the burst flattening below.
        Session::builder(ExpConfig::new(ranks, strategy).with_record_pfs(true))
            .workload(Wacomm::new(wc))
            .try_build()?
            .try_run()
    };
    let none = run(Strategy::None)?;
    let uponly = run(Strategy::UpOnly { tol: 1.1 })?;
    let direct = run(Strategy::Direct { tol: 2.0 })?;

    println!(
        "{:<16} {:>9} {:>11} {:>12} {:>9}",
        "run", "time [s]", "B [MB/s]", "peak T[MB/s]", "exploit%"
    );
    for (name, out) in [
        ("no limit", &none),
        ("up-only t=1.1", &uponly),
        ("direct t=2.0", &direct),
    ] {
        let d = out.report.decomposition();
        let start = out.report.limit_start_time().unwrap_or(0.0);
        let peak = out
            .report
            .windows
            .iter()
            .filter(|w| w.start >= start)
            .map(|w| w.throughput())
            .fold(0.0, f64::max);
        println!(
            "{:<16} {:>9.2} {:>11.1} {:>12.1} {:>9.1}",
            name,
            out.app_time(),
            out.report.required_bandwidth() / 1e6,
            peak / 1e6,
            100.0 * d.exploit() / d.total.max(1e-12),
        );
    }

    // Fig. 9's headline: under up-only the throughput follows the limit of
    // the previous phase. Show the first few phases of rank 0.
    println!("\nrank 0 under up-only (T of phase j+1 tracks the limit from phase j):");
    println!("{:>5} {:>12} {:>14}", "phase", "B [MB/s]", "limit [MB/s]");
    for p in uponly.report.phases.iter().filter(|p| p.rank == 0).take(6) {
        println!(
            "{:>5} {:>12.1} {:>14}",
            p.phase,
            p.b_required / 1e6,
            p.limit_during
                .map(|l| format!("{:.1}", l / 1e6))
                .unwrap_or_else(|| "-".into())
        );
    }

    // Burst flattening visible on the physical PFS series.
    assert!(!none.pfs_write.is_empty(), "no PFS write series recorded");
    println!(
        "\npeak physical PFS write rate: {:>8.1} MB/s without limit, {:>8.1} MB/s with up-only",
        none.pfs_write.max_value() / 1e6,
        uponly
            .pfs_write
            .points()
            .iter()
            .filter(|(t, _)| *t >= uponly.report.limit_start_time().unwrap_or(0.0))
            .map(|(_, v)| *v)
            .fold(0.0, f64::max)
            / 1e6
    );
    Ok(())
}
