//! Registry entries for the chaos harness: each fault plan replays the
//! fig07/fig11-class scenarios (WaComM and HACC-IO time distributions)
//! under seeded faults and asserts graceful degradation end to end:
//!
//! * every strategy completes every plan — no deadlock, `Wait`/`Test`
//!   return even when requests fail,
//! * makespan inflation stays within a per-plan bound,
//! * replaying the same plan + seed is bit-identical (makespan, retry
//!   accounting, surfaced op errors),
//! * the **empty** plan reproduces the fault-free run bit-for-bit, so the
//!   figure CSVs cannot drift when fault injection is compiled in.
//!
//! Each plan entry computes its own fault-free base runs: they are cheap
//! next to the fault runs and their replays.

use crate::csv::CsvRow;
use crate::par::par_map;
use crate::registry::ScenarioCtx;
use crate::scenarios::run;
use hpcwl::hacc::HaccConfig;
use hpcwl::wacomm::WacommConfig;
use session::{ExpConfig, HaccIo, RunOutput, Wacomm};
use simcore::{
    CancelSpec, ChannelFaultWindow, FaultChannel, FaultPlan, IoErrorKind, IoErrorModel,
    StragglerSpec,
};
use tmio::Strategy;

/// One scheduled fault plan plus its acceptance envelope.
struct PlannedFault {
    name: &'static str,
    plan: FaultPlan,
    /// Makespan must stay below `base * bound + outage_slack`.
    bound: f64,
    /// Extra absolute seconds granted for hard-outage stalls.
    outage_slack: f64,
    /// Whether the plan is expected to surface fault records in the report.
    expect_faults: bool,
    /// Whether the plan can only slow the run down (monotone plans must
    /// not finish *earlier* than the fault-free run).
    monotone: bool,
}

/// Which fig-class workload a case replays.
#[derive(Clone, Copy)]
enum Case {
    /// Fig. 7 class: WaComM pollutant transport.
    Wacomm { ranks: usize },
    /// Fig. 11 class: modified HACC-IO.
    Hacc { ranks: usize, particles: u64 },
}

impl Case {
    fn label(self) -> &'static str {
        match self {
            Case::Wacomm { .. } => "wacomm",
            Case::Hacc { .. } => "hacc",
        }
    }

    fn run(self, cfg: ExpConfig) -> RunOutput {
        match self {
            Case::Wacomm { .. } => run(cfg, Wacomm::new(WacommConfig::default())),
            Case::Hacc { particles, .. } => run(
                cfg,
                HaccIo::new(HaccConfig {
                    particles_per_rank: particles,
                    ..Default::default()
                }),
            ),
        }
    }

    fn ranks(self) -> usize {
        match self {
            Case::Wacomm { ranks } => ranks,
            Case::Hacc { ranks, .. } => ranks,
        }
    }
}

/// Builds the named fault plan against one base run of makespan `t`.
/// `combined` only exists at full scale (`quick` skips it).
fn plan_spec(name: &str, t: f64) -> PlannedFault {
    let outage = 0.2 * t;
    match name {
        "empty" => PlannedFault {
            name: "empty",
            plan: FaultPlan::empty(),
            bound: 1.0 + 1e-12,
            outage_slack: 0.0,
            expect_faults: false,
            monotone: true,
        },
        "outage" => PlannedFault {
            name: "outage",
            plan: FaultPlan {
                channel_faults: vec![ChannelFaultWindow {
                    channel: FaultChannel::Both,
                    start: 0.35 * t,
                    end: 0.35 * t + outage,
                    factor: 0.0,
                }],
                ..FaultPlan::default()
            },
            bound: 2.0,
            outage_slack: 3.0 * outage,
            expect_faults: false,
            monotone: true,
        },
        "brownout" => PlannedFault {
            name: "brownout",
            plan: FaultPlan {
                channel_faults: vec![ChannelFaultWindow {
                    channel: FaultChannel::Write,
                    start: 0.2 * t,
                    end: 0.8 * t,
                    factor: 0.4,
                }],
                ..FaultPlan::default()
            },
            bound: 3.0,
            outage_slack: 0.0,
            expect_faults: false,
            monotone: true,
        },
        "flaky" => PlannedFault {
            name: "flaky",
            plan: FaultPlan {
                seed: 7,
                io_errors: Some(IoErrorModel {
                    prob: 0.05,
                    kinds: vec![IoErrorKind::Io, IoErrorKind::Timeout, IoErrorKind::Stale],
                }),
                ..FaultPlan::default()
            },
            bound: 2.0,
            outage_slack: 1.0,
            expect_faults: true,
            monotone: false,
        },
        "straggler" => PlannedFault {
            name: "straggler",
            plan: FaultPlan {
                stragglers: vec![StragglerSpec {
                    rank: 1,
                    factor: 1.5,
                }],
                ..FaultPlan::default()
            },
            bound: 1.8,
            outage_slack: 0.0,
            expect_faults: false,
            monotone: true,
        },
        "cancel" => PlannedFault {
            name: "cancel",
            plan: FaultPlan {
                cancellations: vec![CancelSpec {
                    rank: 0,
                    op_index: 1,
                }],
                ..FaultPlan::default()
            },
            bound: 1.5,
            outage_slack: 0.0,
            expect_faults: true,
            monotone: false,
        },
        "combined" => PlannedFault {
            name: "combined",
            plan: FaultPlan {
                seed: 13,
                channel_faults: vec![ChannelFaultWindow {
                    channel: FaultChannel::Both,
                    start: 0.4 * t,
                    end: 0.4 * t + 0.5 * outage,
                    factor: 0.1,
                }],
                io_errors: Some(IoErrorModel::with_prob(0.02)),
                stragglers: vec![StragglerSpec {
                    rank: 0,
                    factor: 1.2,
                }],
                ..FaultPlan::default()
            },
            bound: 2.5,
            outage_slack: 3.0 * outage,
            expect_faults: false, // probabilistic; reported but not asserted
            monotone: false,
        },
        other => unreachable!("unknown chaos plan `{other}`"),
    }
}

/// Exact (bit-level) fingerprint of everything the figure CSVs read off a
/// run. Two runs with equal fingerprints produce byte-identical CSV rows.
fn fingerprint(out: &RunOutput) -> String {
    let d = out.report.decomposition();
    format!(
        "makespan={:016x} pct={:?} pct8={:?} B={:016x} retry={:016x} errors={:?}",
        out.app_time().to_bits(),
        d.percentages().map(f64::to_bits),
        d.percentages_with_faults().map(f64::to_bits),
        out.report.required_bandwidth().to_bits(),
        out.report.retry_time.to_bits(),
        out.summary.op_errors,
    )
}

/// One result row of a plan's sweep.
pub struct ChaosRow {
    workload: &'static str,
    strategy: &'static str,
    plan: &'static str,
    app: f64,
    inflation: f64,
    retry_s: f64,
    op_errors: usize,
    fault_events: usize,
    exploited_pct: f64,
    lost_pct: f64,
    violations: Vec<String>,
}

impl CsvRow for ChaosRow {
    const HEADER: &'static str =
        "workload,strategy,plan,app_s,inflation,retry_s,op_errors,fault_events,expl_pct,lost_pct,violations";

    fn row(&self) -> String {
        format!(
            "{},{},{},{:.4},{:.4},{:.4},{},{},{:.2},{:.2},{}",
            self.workload,
            self.strategy,
            self.plan,
            self.app,
            self.inflation,
            self.retry_s,
            self.op_errors,
            self.fault_events,
            self.exploited_pct,
            self.lost_pct,
            self.violations.len()
        )
    }
}

fn check_plan(
    case: Case,
    strategy_name: &'static str,
    strategy: Strategy,
    base: &RunOutput,
    pf: &PlannedFault,
) -> ChaosRow {
    let cfg = ExpConfig::new(case.ranks(), strategy).with_faults(pf.plan.clone());
    let out = case.run(cfg.clone());
    let mut violations = Vec::new();

    // Bounded makespan inflation (and completion itself: reaching this point
    // means no deadlock — failed waits returned, the outage ended).
    let limit = base.app_time() * pf.bound + pf.outage_slack;
    if out.app_time() > limit {
        violations.push(format!(
            "makespan {:.3} s exceeds bound {:.3} s",
            out.app_time(),
            limit
        ));
    }
    if pf.monotone && out.app_time() < base.app_time() - 1e-9 {
        violations.push(format!(
            "slow-only plan finished early: {:.6} < {:.6}",
            out.app_time(),
            base.app_time()
        ));
    }

    // The empty plan must be indistinguishable from no plan at all.
    if pf.name == "empty" && fingerprint(&out) != fingerprint(base) {
        violations.push("empty plan diverged from fault-free run".into());
    }

    // Replay determinism: same plan + seed -> bit-identical outcome.
    let replay = case.run(cfg);
    if fingerprint(&replay) != fingerprint(&out) {
        violations.push("replay diverged (non-deterministic fault path)".into());
    }

    if pf.expect_faults && out.report.faults.is_empty() && out.summary.op_errors.is_empty() {
        violations.push("expected fault records, found none".into());
    }

    let pct = out.report.decomposition().percentages();
    ChaosRow {
        workload: case.label(),
        strategy: strategy_name,
        plan: pf.name,
        app: out.app_time(),
        inflation: out.app_time() / base.app_time(),
        retry_s: out.report.retry_time,
        op_errors: out.summary.op_errors.len(),
        fault_events: out.report.faults.len(),
        exploited_pct: pct[4] + pct[5],
        lost_pct: pct[2] + pct[3],
        violations,
    }
}

fn cases(quick: bool) -> Vec<(Case, &'static str, Strategy)> {
    let (wacomm_ranks, hacc_ranks, particles) = if quick {
        (8, 8, 20_000)
    } else {
        (16, 16, 50_000)
    };
    let workloads = [
        Case::Wacomm {
            ranks: wacomm_ranks,
        },
        Case::Hacc {
            ranks: hacc_ranks,
            particles,
        },
    ];
    let strategies: [(&'static str, Strategy); 4] = [
        ("direct", Strategy::Direct { tol: 1.1 }),
        ("up-only", Strategy::UpOnly { tol: 1.1 }),
        (
            "adaptive",
            Strategy::Adaptive {
                tol: 1.1,
                tol_i: 0.5,
            },
        ),
        ("none", Strategy::None),
    ];
    workloads
        .iter()
        .flat_map(|&w| strategies.iter().map(move |&(n, s)| (w, n, s)))
        .collect()
}

/// Runs one named fault plan over all (workload, strategy) cases; the
/// registry's `chaos.<plan>` entries call this.
pub fn run_plan(plan: &'static str, ctx: &mut ScenarioCtx) -> Result<(), String> {
    if plan == "combined" && ctx.quick {
        println!("chaos.combined: skipped in --quick mode (full sweep only)");
        return Ok(());
    }
    let cases = cases(ctx.quick);
    let t0 = std::time::Instant::now();
    let rows: Vec<ChaosRow> = par_map(ctx.jobs, &cases, |&(case, name, strategy)| {
        let base = case.run(ExpConfig::new(case.ranks(), strategy));
        let pf = plan_spec(plan, base.app_time());
        check_plan(case, name, strategy, &base, &pf)
    });

    println!(
        "{:<8} {:<9} {:<10} {:>8} {:>7} {:>8} {:>6} {:>7} {:>7} {:>6}",
        "workload",
        "strategy",
        "plan",
        "app [s]",
        "x base",
        "retry[s]",
        "opErr",
        "events",
        "expl%",
        "lost%"
    );
    let mut failures = 0usize;
    for row in &rows {
        println!(
            "{:<8} {:<9} {:<10} {:>8.2} {:>7.2} {:>8.4} {:>6} {:>7} {:>7.1} {:>6.1}",
            row.workload,
            row.strategy,
            row.plan,
            row.app,
            row.inflation,
            row.retry_s,
            row.op_errors,
            row.fault_events,
            row.exploited_pct,
            row.lost_pct
        );
        for v in &row.violations {
            failures += 1;
            eprintln!(
                "  VIOLATION [{}/{}/{}]: {v}",
                row.workload, row.strategy, row.plan
            );
        }
    }
    crate::csv::write_rows(ctx, &format!("chaos_{plan}"), &rows)?;
    println!(
        "chaos.{plan}: {} fault runs x2 (replay) in {:.1} s, {failures} violation(s)",
        rows.len(),
        t0.elapsed().as_secs_f64()
    );
    if failures > 0 {
        return Err(format!("{failures} violation(s) under plan `{plan}`"));
    }
    Ok(())
}
