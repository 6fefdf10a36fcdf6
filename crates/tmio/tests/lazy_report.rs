//! The report builds its Eq. 3 series on first query, from the edge logs the
//! tracer hands over. These tests pin that every way of reaching a series —
//! a clone taken before the first query, a tracer whose live series were
//! queried mid-way — gives the same `f64` bits, and that the JSON trace
//! format is unchanged.

use hpcwl::{hacc::HaccConfig, wacomm::WacommConfig};
use mpisim::{FileId, Program, World, WorldConfig};
use simcore::{CancelSpec, FaultPlan, IoErrorKind, IoErrorModel, Noise, StepSeries};
use tmio::{Report, Strategy, Tracer, TracerConfig};

/// A traced run on a world configured as a session configures it by
/// default, under the fault plan `faults`. With `live` set, the three live
/// series are queried before the tracer is handed back (so its sweeps carry
/// cached series).
fn trace(
    programs: Vec<Program>,
    files: usize,
    strategy: Strategy,
    faults: FaultPlan,
    live: bool,
) -> Tracer {
    let n = programs.len();
    let wc = WorldConfig::new(n)
        .with_limiter(strategy.limits())
        .with_compute_noise(Noise::QuantizedRel {
            amplitude: 0.03,
            levels: 8,
        })
        .with_seed(17)
        .with_faults(faults);
    let mut world = World::new(
        wc,
        programs,
        Tracer::new(n, TracerConfig::with_strategy(strategy)),
    );
    for f in 0..files {
        world.create_file(&format!("f{f}"));
    }
    world.try_run().expect("the run completes");
    let mut tracer = world.into_hooks();
    if live {
        tracer.live_required_series();
        tracer.live_limit_series();
        tracer.live_throughput_series();
    }
    tracer
}

/// A WaComM run (Fig. 7 class) under a limiting strategy.
fn wacomm(ranks: usize, iterations: usize, live: bool) -> Tracer {
    wacomm_with(ranks, iterations, FaultPlan::empty(), live)
}

/// [`wacomm`] under the fault plan `faults`.
fn wacomm_with(ranks: usize, iterations: usize, faults: FaultPlan, live: bool) -> Tracer {
    let cfg = WacommConfig {
        iterations,
        ..Default::default()
    };
    let programs = (0..ranks)
        .map(|r| cfg.program(r, ranks, FileId(0), FileId(1 + r as u32)))
        .collect();
    trace(
        programs,
        ranks + 1,
        Strategy::Direct { tol: 2.0 },
        faults,
        live,
    )
}

/// A HACC-IO run (Fig. 11 class) under the adaptive strategy.
fn hacc(live: bool) -> Tracer {
    let cfg = HaccConfig {
        particles_per_rank: 50_000,
        ..Default::default()
    };
    let ranks = 16;
    let programs = (0..ranks).map(|r| cfg.program(FileId(r as u32))).collect();
    let strategy = Strategy::Adaptive {
        tol: 1.1,
        tol_i: 0.5,
    };
    trace(programs, ranks, strategy, FaultPlan::empty(), live)
}

fn bits(s: &StepSeries) -> Vec<(u64, u64)> {
    s.points()
        .iter()
        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}

/// The raw bits of `B_r`, `B_L` and `T`, in that order.
fn series_bits(r: &Report) -> [Vec<(u64, u64)>; 3] {
    [
        bits(r.required_series()),
        bits(r.limit_series()),
        bits(r.throughput_series()),
    ]
}

/// Runs every check on the report of one workload.
fn check(what: &str, run: impl Fn(bool) -> Tracer) {
    let report = run(false).into_report();
    // The clone is queried first, so neither copy has a series built yet.
    let from_clone = series_bits(&report.clone());
    let want = series_bits(&report);
    assert!(
        want.iter().all(|s| !s.is_empty()),
        "{what}: every series has points"
    );
    assert_eq!(from_clone, want, "{what}: clone before query");
    let live = run(true).into_report();
    assert_eq!(series_bits(&live), want, "{what}: live series queried");
    assert_eq!(
        live.to_json(),
        report.to_json(),
        "{what}: trace of the live-queried run"
    );
}

#[test]
fn wacomm_series_agree_on_every_path() {
    check("wacomm", |live| wacomm(24, 10, live));
}

#[test]
fn hacc_series_agree_on_every_path() {
    check("hacc", hacc);
}

/// Parallel sweeps (`bench::par`) move run outputs, reports included,
/// across threads.
#[test]
fn report_is_clone_debug_send_sync() {
    fn check<T: Clone + std::fmt::Debug + Send + Sync>() {}
    check::<Report>();
}

/// A clone taken after the first query shares the built series.
#[test]
fn clone_after_query_keeps_the_series() {
    let report = wacomm(8, 4, false).into_report();
    let want = series_bits(&report);
    assert_eq!(series_bits(&report.clone()), want);
}

/// The JSON trace of one fixed run matches the checked-in copy byte for
/// byte.
#[test]
fn json_trace_is_unchanged() {
    let want = include_str!("data/wacomm_4r_direct.json");
    assert_eq!(wacomm(4, 3, false).into_report().to_json(), want);
}

/// The JSON trace of one faulted run matches the checked-in copy byte for
/// byte. Its fault records cover an async retry (with a tag), a blocking
/// call (`"tag": null`) and a terminal error.
#[test]
fn faulted_json_trace_is_unchanged() {
    let faults = FaultPlan {
        seed: 7,
        io_errors: Some(IoErrorModel {
            prob: 0.4,
            kinds: vec![IoErrorKind::Io, IoErrorKind::NoSpace],
        }),
        cancellations: vec![CancelSpec {
            rank: 1,
            op_index: 0,
        }],
        ..FaultPlan::empty()
    };
    let report = wacomm_with(4, 3, faults, false).into_report();
    let f = &report.faults;
    assert!(f.iter().any(|e| e.tag.is_some()), "an async fault");
    assert!(f.iter().any(|e| e.tag.is_none()), "a blocking-call fault");
    assert!(f.iter().any(|e| e.terminal), "a terminal fault");
    let want = include_str!("data/wacomm_4r_faulted.json");
    assert_eq!(report.to_json(), want);
}
