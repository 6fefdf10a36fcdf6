//! The scenario registry: every paper figure, ablation and chaos plan as a
//! named, individually runnable entry, plus the shared CLI frontend the
//! `figures`/`ablations`/`chaos` bins delegate to.
//!
//! ```text
//! figures   --list                 # enumerate the figure scenarios
//! figures   --only 'fig1*'        # glob over names and aliases
//! ablations --only tol --only bb   # repeatable selection
//! chaos     --quick --jobs 4       # CI smoke at bounded width
//! ```
//!
//! [`cli_main`] resolves a sweep's run state once into a [`ScenarioCtx`]:
//! the results dir, the worker count, the build identity, and the files
//! the running entry has written. Every entry receives it; the harness
//! keeps no process-global state, so two sweeps with two contexts can run
//! side by side in one process.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

/// The run state of a sweep, resolved once by [`cli_main`] and handed to
/// every entry: the run shape, where outputs go, how wide sweeps fan out,
/// and the files the running entry has written.
#[derive(Clone, Debug)]
pub struct ScenarioCtx {
    /// Paper-scale sweeps instead of the laptop-scale subsets.
    pub full: bool,
    /// CI smoke mode (chaos: fewer ranks, no `combined` plan).
    pub quick: bool,
    /// Where CSVs and `--resume` manifests are written.
    pub results_dir: PathBuf,
    /// Worker count of every parallel sweep ([`crate::par::par_map`]), ≥ 1.
    pub jobs: usize,
    /// Identity of the code computing the entries ([`crate::manifest`]).
    pub build_id: String,
    /// Files the running entry has written so far ([`run_entry`] clears it
    /// before each entry).
    pub outputs: Vec<PathBuf>,
}

impl ScenarioCtx {
    /// A quick-scale context of the running binary that writes under
    /// `results_dir` and runs sweeps `jobs` wide (at least 1).
    pub fn new(results_dir: impl Into<PathBuf>, jobs: usize) -> Self {
        ScenarioCtx {
            full: false,
            quick: false,
            results_dir: results_dir.into(),
            jobs: jobs.max(1),
            build_id: crate::manifest::build_id(),
            outputs: Vec::new(),
        }
    }
}

/// The signature every registry entry implements.
pub type ScenarioFn = fn(&mut ScenarioCtx) -> Result<(), String>;

/// One named, individually runnable scenario.
pub struct Scenario {
    /// Canonical name (`fig07`, `ablation.tol`, `chaos.outage`, …).
    pub name: &'static str,
    /// Which bin runs it by default: `"figure"`, `"ablation"`, `"chaos"`.
    pub group: &'static str,
    /// Alternate names accepted by `--only` and positional selection.
    pub aliases: &'static [&'static str],
    /// One-line description for `--list`.
    pub about: &'static str,
    /// The entry point.
    pub run: ScenarioFn,
}

/// Every scenario the harness knows about, in presentation order.
pub const ALL: &[Scenario] = &[
    // ------------------------------------------------------- figures
    Scenario {
        name: "fig01_02",
        group: "figure",
        aliases: &["fig01", "fig02"],
        about: "motivation: 8-job cluster with/without limiting job 4",
        run: crate::figs::fig01_02,
    },
    Scenario {
        name: "fig03",
        group: "figure",
        aliases: &[],
        about: "rank-0 timeline: \u{394}t vs \u{394}t\u{1d43} per phase",
        run: crate::figs::fig03,
    },
    Scenario {
        name: "fig04",
        group: "figure",
        aliases: &[],
        about: "region sweep worked example (Eq. 3)",
        run: crate::figs::fig04,
    },
    Scenario {
        name: "fig05_06",
        group: "figure",
        aliases: &["fig05", "fig06"],
        about: "HACC-IO runtime and overhead decomposition vs ranks",
        run: crate::figs::fig05_06,
    },
    Scenario {
        name: "fig07",
        group: "figure",
        aliases: &[],
        about: "WaComM time distribution across ranks and strategies",
        run: crate::figs::fig07,
    },
    Scenario {
        name: "fig08",
        group: "figure",
        aliases: &[],
        about: "WaComM 96 ranks, no limit: T and B over time",
        run: crate::figs::fig08,
    },
    Scenario {
        name: "fig09",
        group: "figure",
        aliases: &[],
        about: "WaComM 96 ranks, up-only: T follows B_L",
        run: crate::figs::fig09,
    },
    Scenario {
        name: "fig10",
        group: "figure",
        aliases: &[],
        about: "WaComM at scale: up-only vs none (exploit & runtime)",
        run: crate::figs::fig10,
    },
    Scenario {
        name: "fig11",
        group: "figure",
        aliases: &[],
        about: "HACC-IO time distribution, four strategies",
        run: crate::figs::fig11,
    },
    Scenario {
        name: "fig12",
        group: "figure",
        aliases: &[],
        about: "modified HACC-IO benchmark structure (op schedule)",
        run: crate::figs::fig12,
    },
    Scenario {
        name: "fig13",
        group: "figure",
        aliases: &[],
        about: "HACC-IO at scale: T/B_L/B series per strategy",
        run: crate::figs::fig13,
    },
    Scenario {
        name: "fig14",
        group: "figure",
        aliases: &[],
        about: "HACC-IO direct strategy under PFS capacity noise",
        run: crate::figs::fig14,
    },
    // ----------------------------------------------------- ablations
    Scenario {
        name: "ablation.tol",
        group: "ablation",
        aliases: &["tol"],
        about: "direct-strategy tolerance sweep (risk vs exploitation)",
        run: crate::abl::tol_sweep,
    },
    Scenario {
        name: "ablation.subreq",
        group: "ablation",
        aliases: &["subreq"],
        about: "ADIO sub-request size (pacing granularity)",
        run: crate::abl::subreq_sweep,
    },
    Scenario {
        name: "ablation.semantics",
        group: "ablation",
        aliases: &["semantics"],
        about: "B window semantics: te-mode \u{d7} aggregation",
        run: crate::abl::semantics,
    },
    Scenario {
        name: "ablation.limitsync",
        group: "ablation",
        aliases: &["limitsync"],
        about: "pacing blocking I/O too (paper) vs async-only",
        run: crate::abl::limit_sync,
    },
    Scenario {
        name: "ablation.interference",
        group: "ablation",
        aliases: &["interference"],
        about: "I/O\u{2194}compute interference model (negative result)",
        run: crate::abl::interference,
    },
    Scenario {
        name: "ablation.mfu",
        group: "ablation",
        aliases: &["mfu"],
        about: "MFU-table strategy vs the paper's three",
        run: crate::abl::mfu,
    },
    Scenario {
        name: "ablation.bb",
        group: "ablation",
        aliases: &["bb"],
        about: "burst buffer for synchronous HACC-IO (future work)",
        run: crate::abl::burst_buffer,
    },
    // --------------------------------------------------------- chaos
    Scenario {
        name: "chaos.empty",
        group: "chaos",
        aliases: &["empty"],
        about: "empty plan reproduces the fault-free run bit-for-bit",
        run: |ctx| crate::chaosrun::run_plan("empty", ctx),
    },
    Scenario {
        name: "chaos.outage",
        group: "chaos",
        aliases: &["outage"],
        about: "hard PFS outage mid-run (both channels, factor 0)",
        run: |ctx| crate::chaosrun::run_plan("outage", ctx),
    },
    Scenario {
        name: "chaos.brownout",
        group: "chaos",
        aliases: &["brownout"],
        about: "long write-channel brownout (factor 0.4)",
        run: |ctx| crate::chaosrun::run_plan("brownout", ctx),
    },
    Scenario {
        name: "chaos.flaky",
        group: "chaos",
        aliases: &["flaky"],
        about: "seeded 5 % I/O error injection with retries",
        run: |ctx| crate::chaosrun::run_plan("flaky", ctx),
    },
    Scenario {
        name: "chaos.straggler",
        group: "chaos",
        aliases: &["straggler"],
        about: "one 1.5\u{d7} slow rank",
        run: |ctx| crate::chaosrun::run_plan("straggler", ctx),
    },
    Scenario {
        name: "chaos.cancel",
        group: "chaos",
        aliases: &["cancel"],
        about: "cancelled in-flight request on rank 0",
        run: |ctx| crate::chaosrun::run_plan("cancel", ctx),
    },
    Scenario {
        name: "chaos.combined",
        group: "chaos",
        aliases: &["combined"],
        about: "outage + errors + straggler combined (full sweep only)",
        run: |ctx| crate::chaosrun::run_plan("combined", ctx),
    },
];

/// Shell-style glob with `*` wildcards (no `?`/classes — the registry
/// names don't need them).
pub fn glob_match(pattern: &str, name: &str) -> bool {
    fn inner(p: &[u8], n: &[u8]) -> bool {
        match (p.first(), n.first()) {
            (None, None) => true,
            (Some(b'*'), _) => inner(&p[1..], n) || (!n.is_empty() && inner(p, &n[1..])),
            (Some(c), Some(d)) if c == d => inner(&p[1..], &n[1..]),
            _ => false,
        }
    }
    inner(pattern.as_bytes(), name.as_bytes())
}

impl Scenario {
    /// Whether `pattern` selects this scenario (by name or alias).
    pub fn matches(&self, pattern: &str) -> bool {
        glob_match(pattern, self.name) || self.aliases.iter().any(|a| glob_match(pattern, a))
    }
}

/// Scenarios of `group` selected by `patterns`; an empty pattern list (or
/// the literal `all`) selects the whole group. Unknown patterns are an
/// error so typos don't silently run nothing.
pub fn select(group: &str, patterns: &[String]) -> Result<Vec<&'static Scenario>, String> {
    let pool: Vec<&Scenario> = ALL.iter().filter(|s| s.group == group).collect();
    if patterns.is_empty() || patterns.iter().any(|p| p == "all") {
        return Ok(pool);
    }
    let mut unmatched: BTreeSet<&str> = patterns.iter().map(String::as_str).collect();
    let picked: Vec<&Scenario> = pool
        .iter()
        .filter(|s| {
            let hits: Vec<&str> = patterns
                .iter()
                .map(String::as_str)
                .filter(|p| s.matches(p))
                .collect();
            for h in &hits {
                unmatched.remove(h);
            }
            !hits.is_empty()
        })
        .copied()
        .collect();
    if !unmatched.is_empty() {
        let known: Vec<&str> = pool.iter().map(|s| s.name).collect();
        return Err(format!(
            "no {group} scenario matches {:?}; known: {}",
            unmatched.into_iter().collect::<Vec<_>>(),
            known.join(", ")
        ));
    }
    Ok(picked)
}

/// Prints the `--list` table for `group`.
pub fn print_list(group: &str) {
    println!("{:<22} {:<18} description", "name", "aliases");
    for s in ALL.iter().filter(|s| s.group == group) {
        println!("{:<22} {:<18} {}", s.name, s.aliases.join(","), s.about);
    }
}

/// Runs entry `s` under `ctx`. A panic is caught and reported as the
/// entry's failure, so one broken entry does not sink the sweep. On success
/// `ctx.outputs` holds exactly the files the entry wrote, and the entry is
/// checkpointed with them through [`crate::manifest::mark_done`].
pub fn run_entry(s: &Scenario, ctx: &mut ScenarioCtx) -> Result<(), String> {
    // Outputs of earlier entries (or of a failed one) are not this entry's.
    ctx.outputs.clear();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (s.run)(ctx))).unwrap_or_else(
        |payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|m| (*m).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".into());
            Err(format!("panicked: {msg}"))
        },
    )?;
    // Checkpoint only after the scenario's outputs are final.
    if let Err(e) = crate::manifest::mark_done(s.group, s.name, ctx) {
        eprintln!("warning: cannot record completion of {}: {e}", s.name);
    }
    Ok(())
}

/// The shared CLI frontend: parses `--list`, `--full`, `--quick`,
/// `--jobs N`, `--resume`, `--only <glob>` (repeatable) and positional
/// patterns, resolves the sweep's [`ScenarioCtx`] once, then runs the
/// selection through [`run_entry`]. Returns the process exit code.
///
/// This is the one place that reads the environment knobs:
/// * outputs go to `$IOBTS_RESULTS_DIR`, else `results_full/` under
///   `--full` and `results/` otherwise;
/// * sweeps run `--jobs N` wide, else `$IOBTS_JOBS` wide when it is a
///   positive integer, else as wide as the available cores (at least 1);
/// * `IOBTS_FAIL_AFTER=<n>` kills the process (exit 137, as SIGKILL
///   would) after `n` completed scenarios — the deterministic
///   mid-sweep-crash used by the kill-and-resume CI smoke test.
///
/// Completion is checkpointed per entry through [`crate::manifest`],
/// together with the CSVs the entry wrote; `--resume` skips entries already
/// completed under the same `--full`/`--quick` shape whose CSVs are
/// unchanged, and regenerates byte-identical outputs for the rest.
pub fn cli_main(group: &'static str, bin: &str) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut full, mut quick, mut resume) = (false, false, false);
    let mut jobs: Option<usize> = None;
    let mut patterns: Vec<String> = Vec::new();
    let bad_flag = |msg: &str| {
        eprintln!("error: {msg}");
        ExitCode::FAILURE
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                print_list(group);
                return ExitCode::SUCCESS;
            }
            "--full" => full = true,
            "--quick" => quick = true,
            "--resume" => resume = true,
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    return bad_flag("--jobs needs a positive integer");
                };
                jobs = Some(n);
            }
            "--only" => {
                let Some(g) = it.next() else {
                    return bad_flag("--only needs a glob pattern");
                };
                patterns.push(g.clone());
            }
            "--help" | "-h" => {
                println!(
                    "usage: {bin} [--list] [--full] [--quick] [--jobs N] \
                     [--resume] [--only <glob>]... [pattern]..."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                if let Some(v) = other.strip_prefix("--jobs=") {
                    let Ok(n) = v.parse::<usize>() else {
                        return bad_flag("--jobs needs an integer");
                    };
                    jobs = Some(n);
                } else if let Some(v) = other.strip_prefix("--only=") {
                    patterns.push(v.to_string());
                } else if other.starts_with("--") {
                    return bad_flag(&format!("unknown flag `{other}`"));
                } else {
                    patterns.push(other.to_string());
                }
            }
        }
    }

    let selection = match select(group, &patterns) {
        Ok(s) => s,
        Err(e) => return bad_flag(&e),
    };
    // Paper-scale CSVs have their own home, so a bare `--full` never
    // overwrites the quick-scale goldens in `results/`.
    let results_dir = std::env::var_os("IOBTS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| if full { "results_full" } else { "results" }.into());
    let jobs = jobs
        .or_else(|| {
            let v = std::env::var("IOBTS_JOBS").ok()?;
            v.trim().parse().ok().filter(|&n| n > 0)
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut ctx = ScenarioCtx {
        full,
        quick,
        ..ScenarioCtx::new(results_dir, jobs)
    };

    if !resume {
        // Fresh sweep: stale completion markers must not mask re-runs.
        crate::manifest::clear_group(group, &ctx);
    }
    let fail_after: Option<usize> = std::env::var("IOBTS_FAIL_AFTER")
        .ok()
        .and_then(|v| v.trim().parse().ok());

    let t0 = std::time::Instant::now();
    let mut failed: Vec<(&str, String)> = Vec::new();
    let mut skipped = 0usize;
    let mut completed = 0usize;
    for s in &selection {
        if resume && crate::manifest::is_done(group, s.name, &ctx) {
            eprintln!("SKIP {} (already complete)", s.name);
            skipped += 1;
            continue;
        }
        match run_entry(s, &mut ctx) {
            Ok(()) => {
                completed += 1;
                if fail_after == Some(completed) {
                    // Deterministic mid-sweep crash (CI kill-and-resume
                    // smoke): die like SIGKILL would, without unwinding.
                    eprintln!("[{bin}: IOBTS_FAIL_AFTER={completed} tripped, aborting]");
                    std::process::exit(137);
                }
            }
            Err(e) => {
                eprintln!("FAILED {}: {e}", s.name);
                failed.push((s.name, e));
            }
        }
    }
    eprintln!(
        "\n[{bin}: {} scenario(s), {} skipped, {} failure(s) in {:.1} s]",
        selection.len(),
        skipped,
        failed.len(),
        t0.elapsed().as_secs_f64()
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globbing() {
        assert!(glob_match("fig1*", "fig11"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("chaos.*", "chaos.outage"));
        assert!(!glob_match("fig0?", "fig03"));
        assert!(!glob_match("fig1*", "fig03"));
    }

    #[test]
    fn registry_is_well_formed() {
        assert!(ALL.len() >= 10, "registry enumerates {} < 10", ALL.len());
        let mut names = BTreeSet::new();
        for s in ALL {
            assert!(names.insert(s.name), "duplicate name {}", s.name);
            assert!(["figure", "ablation", "chaos"].contains(&s.group));
        }
        // Aliases resolve: `fig05` picks the merged fig05_06 entry.
        let sel = select("figure", &["fig05".to_string()]).unwrap();
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].name, "fig05_06");
    }

    #[test]
    fn select_rejects_typos() {
        assert!(select("figure", &["fig99".to_string()]).is_err());
        assert!(select("chaos", &["chaos.*".to_string()]).unwrap().len() == 7);
    }
}
