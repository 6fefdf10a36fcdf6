//! `iobts` — command-line front end to the reproduction.
//!
//! ```text
//! iobts hacc    --ranks 64 --particles 100000 --loops 10 --strategy direct --tol 1.1
//! iobts wacomm  --ranks 96 --iterations 50 --strategy up-only --json trace.json
//! iobts cluster --limit
//! iobts period  --ranks 16
//! iobts help
//! ```
//!
//! Every run prints the TMIO summary (required bandwidth, time split,
//! overheads); `--json PATH` additionally writes the full trace in the
//! format the real TMIO emits at `MPI_Finalize`.

use iobts::prelude::*;
use iobts::simcore::Invariant;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let out = &mut io::stdout().lock();
    let result = read_opts(&cmd, args).and_then(|opts| {
        check_json_dir(&opts)?;
        match cmd.as_str() {
            "hacc" => cmd_hacc(out, &opts),
            "wacomm" => cmd_wacomm(out, &opts),
            "cluster" => cmd_cluster(out, &opts),
            "period" => cmd_period(out, &opts),
            // `read_opts` has rejected every other command.
            _ => Ok(writeln!(out, "{USAGE}")?),
        }?;
        Ok(out.flush()?)
    });
    match result {
        // A reader that stops early (`iobts hacc | head -1`) is not an error.
        Ok(()) | Err(Failure::Closed) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed: a bad command line (answered with the usage
/// text), a run that could not complete (one line), or a closed stdout.
enum Failure {
    Usage(String),
    Run(String),
    Closed,
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::BrokenPipe {
            Failure::Closed
        } else {
            Failure::Run(format!("writing stdout: {e}"))
        }
    }
}

/// A failure of the run itself.
fn run_failed(e: impl std::fmt::Display) -> Failure {
    Failure::Run(e.to_string())
}

/// Fails before any work when `--json PATH` names a missing directory,
/// so a whole run is not spent on a trace that cannot be written.
fn check_json_dir(opts: &Opts) -> Result<(), Failure> {
    let Some(path) = opts.0.get("json") else {
        return Ok(());
    };
    match Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() && !dir.is_dir() => Err(Failure::Run(format!(
            "cannot write {path}: no directory {}",
            dir.display()
        ))),
        _ => Ok(()),
    }
}

const USAGE: &str = "\
iobts — \"I/O Behind the Scenes\" (CLUSTER'24) reproduction

USAGE:
    iobts <COMMAND> [OPTIONS]

COMMANDS (each with the options it reads and their [defaults]):
    hacc      run the modified HACC-IO benchmark under TMIO
              --ranks [64] --particles [100000] --loops [10] --strategy [direct]
              --tol [1.1] --seed [2024] --json PATH
    wacomm    run the WaComM-like transport workload under TMIO
              --ranks [96] --iterations [50] --strategy [direct] --tol [1.1]
              --seed [2024] --json PATH
    cluster   run the 8-job motivation study (Figs. 1-2)
              --limit
    period    FTIO-style period detection on a HACC-IO run
              --ranks [16] --particles [500000] --loops [12]
    help      show this text

OPTIONS:
    --ranks N          MPI ranks
    --particles N      particles per rank
    --loops N          HACC-IO loops
    --iterations N     WaComM iterations
    --strategy S       none|direct|up-only|adaptive|mfu
    --tol X            tolerance factor
    --seed N           master seed
    --limit            cap job 4 during contention
    --json PATH        write the TMIO trace as JSON";

/// A command's options: its defaults, overridden by the command line.
struct Opts(HashMap<String, String>);

impl Opts {
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, Failure> {
        let v = self.0.get(key).invariant("every option read has a default");
        v.parse()
            .map_err(|_| Failure::Usage(format!("invalid value `{v}` for --{key}")))
    }

    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn strategy(&self) -> Result<Strategy, Failure> {
        let tol: f64 = self.get("tol")?;
        match self.get::<String>("strategy")?.as_str() {
            "none" => Ok(Strategy::None),
            "direct" => Ok(Strategy::Direct { tol }),
            "up-only" | "uponly" => Ok(Strategy::UpOnly { tol }),
            "adaptive" => Ok(Strategy::Adaptive { tol, tol_i: 0.5 }),
            "mfu" => Ok(Strategy::Mfu { tol, bins: 32 }),
            other => Err(Failure::Usage(format!("unknown strategy `{other}`"))),
        }
    }
}

/// The options each command reads, as `key=default` or, without a default,
/// `key`; USAGE lists the same. Any other option is a usage error, so a
/// misspelt or misplaced option never runs with a silent default.
fn options_of(cmd: &str) -> Result<&'static str, Failure> {
    Ok(match cmd {
        "hacc" => "ranks=64 particles=100000 loops=10 strategy=direct tol=1.1 seed=2024 json",
        "wacomm" => "ranks=96 iterations=50 strategy=direct tol=1.1 seed=2024 json",
        "cluster" => "limit",
        "period" => "ranks=16 particles=500000 loops=12",
        "help" | "--help" | "-h" => "",
        other => return Err(Failure::Usage(format!("unknown command `{other}`"))),
    })
}

fn read_opts(cmd: &str, mut args: impl Iterator<Item = String>) -> Result<Opts, Failure> {
    let known = options_of(cmd)?
        .split_whitespace()
        .map(|o| o.split_once('=').unwrap_or((o, "")));
    let mut map: HashMap<_, _> = known
        .clone()
        .filter(|(_, v)| !v.is_empty())
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    while let Some(a) = args.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(Failure::Usage(format!("unexpected argument `{a}`")));
        };
        if !known.clone().any(|(k, _)| k == key) {
            return Err(Failure::Usage(format!("`{cmd}` takes no option `--{key}`")));
        }
        // Flags without values.
        if key == "limit" {
            map.insert(key.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = args.next() else {
            return Err(Failure::Usage(format!("--{key} needs a value")));
        };
        map.insert(key.to_string(), value);
    }
    Ok(Opts(map))
}

fn print_summary(out: &mut impl Write, run: &RunOutput) -> io::Result<()> {
    let report = &run.report;
    let d = report.decomposition();
    let pct = d.percentages();
    writeln!(
        out,
        "runtime            : {:>10.3} s (app) + {:.3} s post overhead",
        run.app_time(),
        report.post_overhead
    )?;
    writeln!(
        out,
        "required bandwidth : {:>10.1} MB/s (app level, max over regions)",
        report.required_bandwidth() / 1e6
    )?;
    if let Some(t) = report.limit_start_time() {
        writeln!(out, "limiter engaged at : {t:>10.3} s")?;
    }
    writeln!(out, "phases traced      : {:>10}", report.phases.len())?;
    writeln!(
        out,
        "intercepted calls  : {:>10}  (peri overhead {:.3} ms)",
        report.calls,
        report.peri_overhead * 1e3
    )?;
    writeln!(out, "\ntime split (% of total rank-time):")?;
    let labels = [
        "sync write",
        "sync read",
        "async write lost",
        "async read lost",
        "async write exploit",
        "async read exploit",
        "compute (I/O free)",
    ];
    for (l, p) in labels.iter().zip(pct) {
        if p > 0.005 {
            writeln!(out, "  {l:<20} {p:>6.1} %")?;
        }
    }
    Ok(())
}

/// Runs a fully built session, writes the TMIO trace to `--json PATH`
/// when requested, and prints the summary.
fn run_and_report(out: &mut impl Write, opts: &Opts, session: &Session) -> Result<(), Failure> {
    let run = session.try_run().map_err(run_failed)?;
    if let Some(path) = opts.0.get("json") {
        iobts::session::write_atomic(Path::new(path), run.report.to_json().as_bytes())
            .map_err(|e| Failure::Run(format!("writing {path}: {e}")))?;
    }
    print_summary(out, &run)?;
    if let Some(path) = opts.0.get("json") {
        writeln!(out, "\ntrace written to {path}")?;
    }
    Ok(())
}

fn cmd_hacc(out: &mut impl Write, opts: &Opts) -> Result<(), Failure> {
    let ranks = opts.get::<usize>("ranks")?;
    let hacc = HaccConfig {
        particles_per_rank: opts.get("particles")?,
        loops: opts.get("loops")?,
        ..Default::default()
    };
    let strategy = opts.strategy()?;
    let cfg = ExpConfig::new(ranks, strategy).with_seed(opts.get("seed")?);
    let session = Session::builder(cfg)
        .workload(HaccIo::new(hacc))
        .try_build()
        .map_err(run_failed)?;
    writeln!(
        out,
        "HACC-IO: {ranks} ranks × {} particles × {} loops, strategy {}\n",
        hacc.particles_per_rank,
        hacc.loops,
        strategy.name()
    )?;
    run_and_report(out, opts, &session)
}

fn cmd_wacomm(out: &mut impl Write, opts: &Opts) -> Result<(), Failure> {
    let ranks = opts.get::<usize>("ranks")?;
    let wc = WacommConfig {
        iterations: opts.get("iterations")?,
        ..Default::default()
    };
    let strategy = opts.strategy()?;
    let cfg = ExpConfig::new(ranks, strategy).with_seed(opts.get("seed")?);
    let session = Session::builder(cfg)
        .workload(Wacomm::new(wc))
        .try_build()
        .map_err(run_failed)?;
    writeln!(
        out,
        "WaComM: {ranks} ranks, {} iterations, strategy {}\n",
        wc.iterations,
        strategy.name()
    )?;
    run_and_report(out, opts, &session)
}

fn cmd_cluster(out: &mut impl Write, opts: &Opts) -> Result<(), Failure> {
    use clustersim::{motivation_scenario, Cluster};
    let limit = opts.flag("limit");
    let (cfg, jobs) = motivation_scenario(limit, 1.0);
    writeln!(
        out,
        "cluster: {} nodes, PFS {:.0} GB/s, 8 jobs, job 4 async, limit {}\n",
        cfg.nodes,
        cfg.pfs.write_capacity / 1e9,
        if limit {
            "ON (during contention)"
        } else {
            "off"
        }
    )?;
    let r = Cluster::new(cfg, jobs).run();
    writeln!(
        out,
        "{:<6} {:>6} {:>10} {:>10} {:>10}",
        "job", "nodes", "start", "end", "runtime"
    )?;
    for j in &r.jobs {
        writeln!(
            out,
            "{:<6} {:>6} {:>10.1} {:>10.1} {:>10.1}",
            j.name,
            j.nodes,
            j.start,
            j.end,
            j.runtime()
        )?;
    }
    writeln!(out, "\nmakespan {:.1} s", r.makespan)?;
    Ok(())
}

fn cmd_period(out: &mut impl Write, opts: &Opts) -> Result<(), Failure> {
    let ranks = opts.get::<usize>("ranks")?;
    let hacc = HaccConfig {
        particles_per_rank: opts.get("particles")?,
        loops: opts.get("loops")?,
        ..Default::default()
    };
    // FTIO reads the physical PFS write signal.
    let cfg = ExpConfig::new(ranks, Strategy::None).with_record_pfs(true);
    let run = Session::builder(cfg)
        .workload(HaccIo::new(hacc))
        .try_build()
        .and_then(|s| s.try_run())
        .map_err(run_failed)?;
    writeln!(
        out,
        "HACC-IO {ranks} ranks: runtime {:.2} s",
        run.app_time()
    )?;
    match iobts::tmio::ftio::detect_period(&run.pfs_write, 0.0, run.app_time(), 2048) {
        Some(est) => {
            writeln!(
                out,
                "dominant I/O period {:.2} s ({:.3} Hz), confidence {:.2}",
                est.period, est.frequency, est.confidence
            )?;
            let nominal = hacc.compute_seconds() + hacc.verify_seconds() + hacc.data_bytes() / 10e9;
            writeln!(out, "nominal loop period ≈ {nominal:.2} s")?;
        }
        None => writeln!(out, "no periodic I/O detected")?,
    }
    Ok(())
}
