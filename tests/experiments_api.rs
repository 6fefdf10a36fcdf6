//! Tests of the experiment API surface itself: the `ExpConfig` builder, a
//! `Session` run and its `RunOutput`.

mod common;

use common::run;
use iobts::prelude::*;

fn small_hacc() -> HaccConfig {
    HaccConfig {
        particles_per_rank: 20_000,
        loops: 4,
        ..Default::default()
    }
}

#[test]
fn exp_config_builder_round_trips() {
    let cfg = ExpConfig::new(8, Strategy::UpOnly { tol: 1.3 }).exact();
    assert_eq!(cfg.n_ranks, 8);
    assert!(cfg.strategy.limits());
    assert_eq!(cfg.compute_noise, iobts::simcore::Noise::None);
    assert_eq!(cfg.te_mode, tmio::TeMode::FirstWait);
    assert_eq!(cfg.aggregation, tmio::Aggregation::Sum);
    assert!(cfg.limit_sync_ops);
}

#[test]
fn run_output_totals_are_consistent() {
    let out = run(
        &ExpConfig::new(4, Strategy::None),
        HaccIo::new(small_hacc()),
    );
    assert!(out.total_time() >= out.app_time());
    assert!((out.total_time() - out.app_time() - out.report.post_overhead).abs() < 1e-12);
    // The summary and the report agree on the makespan.
    assert!((out.summary.makespan() - out.report.makespan()).abs() < 1e-9);
}

#[test]
fn pfs_series_cover_both_channels() {
    let out = run(
        &ExpConfig::new(4, Strategy::None).with_record_pfs(true),
        HaccIo::new(small_hacc()),
    );
    let horizon = simcore::SimTime::from_secs(out.app_time() + 1.0);
    let written = out.pfs_write.integral(simcore::SimTime::ZERO, horizon);
    let read = out.pfs_read.integral(simcore::SimTime::ZERO, horizon);
    // 4 ranks × 4 loops × (data + header) written; data read back.
    let data = 4.0 * 4.0 * small_hacc().data_bytes();
    let header = 4.0 * 4.0 * small_hacc().header_bytes;
    assert!((written - data - header).abs() < 1.0, "written {written}");
    assert!((read - data).abs() < 1.0, "read {read}");
}

#[test]
fn sync_baseline_has_no_phases() {
    let out = run(
        &ExpConfig::new(2, Strategy::None),
        HaccIo::sync(small_hacc()),
    );
    assert!(out.report.phases.is_empty());
    assert!(out.report.decomposition().sync_write > 0.0 || out.app_time() > 0.0);
}

#[test]
fn record_pfs_off_yields_empty_series() {
    let cfg = ExpConfig::new(2, Strategy::None).with_record_pfs(false);
    let out = run(
        &cfg,
        Wacomm::new(WacommConfig {
            iterations: 4,
            ..Default::default()
        }),
    );
    assert!(out.pfs_write.is_empty());
    assert!(out.report.required_bandwidth() > 0.0, "tracing still works");
}

#[test]
fn default_session_records_no_pfs_series() {
    let out = run(
        &ExpConfig::new(2, Strategy::None),
        HaccIo::new(small_hacc()),
    );
    assert!(out.pfs_write.is_empty() && out.pfs_read.is_empty());
    assert!(out.report.required_bandwidth() > 0.0, "tracing still works");
}

#[test]
fn seeds_thread_through_the_pipeline() {
    let time = |seed| {
        let cfg = ExpConfig::new(4, Strategy::Direct { tol: 1.1 }).with_seed(seed);
        run(&cfg, HaccIo::new(small_hacc())).app_time()
    };
    assert_eq!(time(1), time(1));
    assert_ne!(time(1), time(2), "different seeds must differ under noise");
}

#[test]
fn burst_buffer_passes_through_exp_config() {
    let cfg = ExpConfig::new(2, Strategy::None).with_pfs(pfsim::PfsConfig {
        write_capacity: 50e6,
        read_capacity: 1e9,
    });
    let slow: RunOutput = run(&cfg, HaccIo::sync(small_hacc()));
    let cfg = cfg.with_burst_buffer(pfsim::BurstBufferConfig {
        size_bytes: 1e9,
        absorb_rate: 5e9,
        drain_rate: 50e6,
    });
    let buffered = run(&cfg, HaccIo::sync(small_hacc()));
    assert!(
        buffered.app_time() < slow.app_time(),
        "buffered {} vs direct {}",
        buffered.app_time(),
        slow.app_time()
    );
}
