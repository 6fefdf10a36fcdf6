//! I/O analysis extensions beyond the paper's headline: FTIO-style period
//! detection over the recorded bandwidth signal, the burst-buffer tier for
//! synchronous I/O (the paper's future work), and the JSON trace TMIO writes.
//!
//! Run with: `cargo run --release --example io_analysis`

use iobts::prelude::*;
use pfsim::burstbuffer::{required_drain_bandwidth, sustainable};
use pfsim::BurstBufferConfig;
use tmio::ftio;

fn main() -> Result<(), SimError> {
    let hacc = HaccConfig {
        particles_per_rank: 500_000,
        loops: 12,
        ..Default::default()
    };

    // ------------------------------------------------------------------
    // 1. FTIO: detect the application's I/O period from the PFS signal.
    println!("=== FTIO period detection (HACC-IO, 16 ranks, 12 loops) ===");
    let out = Session::builder(ExpConfig::new(16, Strategy::None).with_record_pfs(true))
        .workload(HaccIo::new(hacc))
        .try_build()?
        .try_run()?;
    assert!(!out.pfs_write.is_empty(), "no PFS write series recorded");
    let loop_period = hacc.compute_seconds() + hacc.verify_seconds() + hacc.data_bytes() / 10e9; // + memcpy
    match ftio::detect_period(&out.pfs_write, 0.0, out.app_time(), 2048) {
        Some(est) => {
            println!(
                "detected period {:.2} s (nominal loop ≈ {:.2} s), confidence {:.2}",
                est.period, loop_period, est.confidence
            );
        }
        None => println!("no periodic signal found"),
    }

    // ------------------------------------------------------------------
    // 2. Burst buffer: the future-work required-bandwidth definition for
    //    synchronous I/O.
    println!("\n=== burst-buffer tier for the synchronous HACC-IO baseline ===");
    let bb = BurstBufferConfig {
        size_bytes: 4e9,
        absorb_rate: 5e9,
        drain_rate: 1e9,
    };
    let burst = hacc.data_bytes();
    let period = hacc.compute_seconds() + hacc.verify_seconds();
    println!(
        "per-rank burst {:.1} MB every {:.2} s -> required drain bandwidth {:.1} MB/s \
         (sustainable: {})",
        burst / 1e6,
        period,
        required_drain_bandwidth(burst, period, &bb).unwrap() / 1e6,
        sustainable(burst, period, &bb),
    );
    let direct = ExpConfig::new(16, Strategy::None).with_pfs(pfsim::PfsConfig {
        write_capacity: 1e9,
        read_capacity: 1e9,
    });
    let buffered = direct.clone().with_burst_buffer(bb);
    let sync_run = |cfg| {
        Session::builder(cfg)
            .workload(HaccIo::sync(hacc))
            .try_build()?
            .try_run()
    };
    let d = sync_run(direct)?;
    let b = sync_run(buffered)?;
    let dw = |o: &RunOutput| o.report.decomposition().sync_write / 16.0;
    println!(
        "sync HACC-IO on a 1 GB/s PFS: {:.2} s without the tier, {:.2} s with it \
         (visible write time {:.2} s -> {:.2} s per rank)",
        d.app_time(),
        b.app_time(),
        dw(&d),
        dw(&b),
    );

    // ------------------------------------------------------------------
    // 3. The JSON trace: what the real TMIO writes at MPI_Finalize.
    println!("\n=== JSON trace (first 400 chars) ===");
    let json = out.report.to_json();
    println!("{} …", &json[..json.len().min(400)]);
    println!(
        "trace: {} phases, B = {:.1} MB/s",
        out.report.phases.len(),
        out.report.required_bandwidth() / 1e6
    );
    Ok(())
}
