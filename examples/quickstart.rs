//! Quickstart: the smallest end-to-end use of the public API.
//!
//! Four ranks run a periodic async-checkpoint loop (the Fig. 3 pattern)
//! as scripted per-rank programs, while TMIO traces the required
//! bandwidth and the direct strategy throttles the next phase.
//!
//! Run with: `cargo run --release --example quickstart`

use iobts::mpisim::{FileId, Op, Program, ReqTag, World};
use iobts::prelude::*;

fn main() -> Result<(), SimError> {
    let n_ranks = 4;

    // 1. Configure the runtime: limiter on (the "modified MPICH") …
    let cfg = WorldConfig::new(n_ranks).with_limiter(true);

    // 2. … and TMIO with the direct strategy, tol = 1.1 (the paper's value).
    let tracer = Tracer::new(
        n_ranks,
        TracerConfig::with_strategy(Strategy::Direct { tol: 1.1 }),
    );

    // 3. Write the application like an MPI program: each rank overlaps a
    //    16 MB checkpoint with 50 ms of compute, ten times (Fig. 3).
    let mut program = Program::new();
    for k in 0..10 {
        let (file, tag) = (FileId(0), ReqTag(k));
        program
            .push(Op::IWrite {
                file,
                bytes: 16e6,
                tag,
            }) // MPI_File_iwrite_at
            .push(Op::Compute { seconds: 0.050 }) //        …overlapped compute…
            .push(Op::Wait { tag }); //                     MPI_Wait
    }
    program.push(Op::Barrier);
    let mut world = World::new(cfg, vec![program; n_ranks], tracer);
    world.create_file("checkpoint.dat");
    let summary = world.try_run()?;

    // 4. Pull the TMIO report.
    let report = world.into_hooks().into_report();

    println!("=== quickstart: 4 ranks × 10 async checkpoints of 16 MB ===\n");
    println!("application runtime : {:>9.3} s", summary.makespan());
    println!(
        "app-level required bandwidth B : {:>8.1} MB/s",
        report.required_bandwidth() / 1e6
    );
    println!(
        "peri-runtime overhead: {:.3} ms over {} intercepted calls",
        report.peri_overhead * 1e3,
        report.calls
    );

    println!("\nrank 0 phases (Fig. 3 view):");
    println!(
        "{:>5} {:>10} {:>10} {:>14} {:>14}",
        "phase", "ts [s]", "te [s]", "B [MB/s]", "limit [MB/s]"
    );
    for p in report.phases.iter().filter(|p| p.rank == 0) {
        println!(
            "{:>5} {:>10.4} {:>10.4} {:>14.1} {:>14}",
            p.phase,
            p.ts,
            p.te,
            p.b_required / 1e6,
            p.limit_during
                .map(|l| format!("{:.1}", l / 1e6))
                .unwrap_or_else(|| "-".into()),
        );
    }

    let d = report.decomposition();
    let pct = d.percentages();
    println!(
        "\ntime split: {:.1}% async-write exploit, {:.1}% lost in waits, {:.1}% compute (I/O free)",
        pct[4], pct[2], pct[6]
    );

    println!("\nThe throughput of phase j+1 follows the limit computed from phase j:");
    for w in report.windows.iter().filter(|w| w.rank == 0).take(4) {
        println!(
            "  window [{:.3}, {:.3}] s  T = {:>7.1} MB/s",
            w.start,
            w.end,
            w.throughput() / 1e6
        );
    }
    Ok(())
}
