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

use std::collections::BTreeSet;

/// Run-time context handed to every scenario.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScenarioCtx {
    /// Paper-scale sweeps instead of the laptop-scale subsets.
    pub full: bool,
    /// CI smoke mode (chaos: fewer ranks, no `combined` plan).
    pub quick: bool,
}

/// The signature every registry entry implements.
pub type ScenarioFn = fn(&ScenarioCtx) -> Result<(), String>;

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

/// The shared CLI frontend: parses `--list`, `--full`, `--quick`,
/// `--jobs N`, `--resume`, `--only <glob>` (repeatable) and positional
/// patterns, then runs the selection. Returns the process exit code.
/// Outputs go to `$IOBTS_RESULTS_DIR`, else `results_full/` under
/// `--full` and `results/` otherwise.
///
/// Supervision: each scenario runs under `catch_unwind`, so one panicking
/// entry is reported and the rest of the sweep still runs. Completion is
/// checkpointed per entry through [`crate::manifest`], together with the
/// CSVs the entry wrote; `--resume` skips entries already completed under
/// the same `--full`/`--quick` shape whose CSVs are unchanged, and
/// regenerates byte-identical outputs for the rest. The
/// `IOBTS_FAIL_AFTER=<n>` hook kills the process (exit 137, as SIGKILL
/// would) after `n` completed scenarios — the deterministic
/// mid-sweep-crash used by the kill-and-resume CI smoke test.
pub fn cli_main(group: &'static str, bin: &str) -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = ScenarioCtx::default();
    let mut patterns: Vec<String> = Vec::new();
    let mut resume = false;
    let bad_flag = |msg: &str| {
        eprintln!("error: {msg}");
        std::process::ExitCode::FAILURE
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                print_list(group);
                return std::process::ExitCode::SUCCESS;
            }
            "--full" => ctx.full = true,
            "--quick" => ctx.quick = true,
            "--resume" => resume = true,
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    return bad_flag("--jobs needs a positive integer");
                };
                crate::par::set_jobs(n.max(1));
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
                return std::process::ExitCode::SUCCESS;
            }
            other => {
                if let Some(v) = other.strip_prefix("--jobs=") {
                    let Ok(n) = v.parse::<usize>() else {
                        return bad_flag("--jobs needs an integer");
                    };
                    crate::par::set_jobs(n.max(1));
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

    if ctx.full && std::env::var_os("IOBTS_RESULTS_DIR").is_none() {
        // Paper-scale CSVs have their own home, so a bare `--full` never
        // overwrites the quick-scale goldens in `results/`.
        std::env::set_var("IOBTS_RESULTS_DIR", "results_full");
    }
    let selection = match select(group, &patterns) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };

    if !resume {
        // Fresh sweep: stale completion markers must not mask re-runs.
        crate::manifest::clear_group(group);
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
        // Outputs of earlier entries (or of a failed one) are not this
        // entry's.
        crate::csv::take_written();
        // One panicking scenario must not sink the sweep: catch it, report
        // it as a failure, move on.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (s.run)(&ctx)))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|m| (*m).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic with non-string payload".into());
                Err(format!("panicked: {msg}"))
            });
        match outcome {
            Ok(()) => {
                // Checkpoint only after the scenario's outputs are final.
                let outputs = crate::csv::take_written();
                if let Err(e) = crate::manifest::mark_done(group, s.name, &ctx, &outputs) {
                    eprintln!("warning: cannot record completion of {}: {e}", s.name);
                }
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
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
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
