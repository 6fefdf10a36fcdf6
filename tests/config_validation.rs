//! Config validation is a *total* function: any [`ExpConfig`] — however
//! hostile — either builds a session or comes back as a typed
//! [`SimError::InvalidConfig`]. Never a panic, never a run that starts
//! with NaN capacities and dies deep inside the event loop.

use iobts::prelude::*;
use mpisim::{CapacityNoiseCfg, Op, Program};
use pfsim::BurstBufferConfig;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use simcore::{ChannelFaultWindow, FaultChannel, FaultPlan, IoErrorModel, Noise};
use tmio::Strategy;

/// A trivial one-rank workload; `try_build` validates config before the
/// program count matters.
fn tiny_workload() -> RawWorkload {
    let program = Program::from_ops(vec![Op::Compute { seconds: 0.01 }]);
    RawWorkload::new("prop", vec![program], vec!["f"])
}

fn try_build(cfg: ExpConfig) -> Result<Session, SimError> {
    Session::builder(cfg).workload(tiny_workload()).try_build()
}

/// Values that break every "finite and positive" precondition, plus a few
/// innocuous ones so the property also exercises the accepting path.
fn hostile_f64() -> impl PropStrategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-1.0),
        Just(0.0),
        Just(1e-300),
        1.0..1e9,
    ]
}

/// Applies one targeted corruption to a default config.
fn corrupt(base: ExpConfig, field: u8, v: f64, w: f64) -> ExpConfig {
    let mut cfg = base;
    match field % 12 {
        0 => cfg.subreq_bytes = v,
        1 => cfg.strategy = Strategy::Direct { tol: v },
        2 => cfg.strategy = Strategy::Adaptive { tol: v, tol_i: w },
        3 => cfg.pfs.write_capacity = v,
        4 => cfg.pfs.read_capacity = v,
        5 => cfg.interference_alpha = v,
        6 => cfg.peri_call_overhead = Some(v),
        7 => {
            cfg.watchdog.max_stall = v;
        }
        8 => cfg.n_ranks = 0,
        9 => {
            cfg.capacity_noise = Some(CapacityNoiseCfg {
                period: v,
                noise: Noise::None,
            });
        }
        10 => {
            cfg.burst_buffer = Some(BurstBufferConfig {
                size_bytes: v,
                absorb_rate: w,
                drain_rate: 1e9,
            });
        }
        _ => {
            cfg.faults = FaultPlan {
                seed: 9,
                channel_faults: vec![
                    ChannelFaultWindow {
                        channel: FaultChannel::Write,
                        start: v.min(w),
                        end: v.max(w),
                        factor: v,
                    },
                    ChannelFaultWindow {
                        channel: FaultChannel::Both,
                        start: w,
                        end: v,
                        factor: w,
                    },
                ],
                io_errors: Some(IoErrorModel::with_prob(v)),
                ..FaultPlan::default()
            };
        }
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile configs never panic: `try_build` returns `Ok` or a typed
    /// config rejection, and rejections never come from deeper layers.
    #[test]
    fn arbitrary_configs_never_panic(
        field in any::<u8>(),
        v in hostile_f64(),
        w in hostile_f64(),
        ranks in 1usize..64,
    ) {
        let cfg = corrupt(ExpConfig::new(ranks, Strategy::None), field, v, w);
        match try_build(cfg) {
            Ok(_) => {}
            Err(SimError::InvalidConfig { field, reason }) => {
                prop_assert!(!field.is_empty() && !reason.is_empty());
            }
            Err(other) => panic!("expected InvalidConfig, got {other}"),
        }
    }

    /// NaN in any numeric knob is always rejected.
    #[test]
    fn nan_is_always_rejected(field in 0u8..8) {
        let cfg = corrupt(ExpConfig::new(4, Strategy::None), field, f64::NAN, f64::NAN);
        prop_assert!(try_build(cfg).is_err());
    }
}

#[test]
fn known_invalids_are_rejected_with_the_offending_field() {
    let cases: Vec<(ExpConfig, &str)> = vec![
        (
            ExpConfig::new(4, Strategy::None).with_subreq_bytes(f64::NAN),
            "subreq_bytes",
        ),
        (ExpConfig::new(0, Strategy::None), "n_ranks"),
        (
            ExpConfig::new(4, Strategy::Direct { tol: -2.0 }),
            "strategy.tol",
        ),
        (
            ExpConfig::new(4, Strategy::None).with_peri_call_overhead(f64::INFINITY),
            "peri_call_overhead",
        ),
    ];
    for (cfg, field) in cases {
        let Err(err) = try_build(cfg) else {
            panic!("config with bad {field} must be rejected");
        };
        let msg = err.to_string();
        assert!(msg.contains("invalid config"), "{msg}");
        assert!(msg.contains(field), "expected {field} in: {msg}");
    }
}

#[test]
fn overlapping_fault_windows_are_rejected() {
    let faults = FaultPlan {
        seed: 1,
        channel_faults: vec![
            ChannelFaultWindow {
                channel: FaultChannel::Write,
                start: 0.0,
                end: 10.0,
                factor: 0.5,
            },
            ChannelFaultWindow {
                channel: FaultChannel::Both,
                start: 5.0,
                end: 15.0,
                factor: 0.25,
            },
        ],
        ..FaultPlan::default()
    };
    let cfg = ExpConfig::new(4, Strategy::None).with_faults(faults);
    assert!(try_build(cfg).is_err());
}

#[test]
fn missing_workload_is_a_typed_error() {
    let Err(err) = Session::builder(ExpConfig::new(2, Strategy::None)).try_build() else {
        panic!("building without a workload must fail");
    };
    assert!(err.to_string().contains("no workload attached"), "{err}");
}

#[test]
fn hacc_without_a_loop_is_a_config_error() {
    let hacc = HaccConfig {
        loops: 0,
        ..Default::default()
    };
    for (name, workload) in [("async", HaccIo::new(hacc)), ("sync", HaccIo::sync(hacc))] {
        let built = Session::builder(ExpConfig::new(2, Strategy::None))
            .workload(workload)
            .try_build();
        match built {
            Err(SimError::InvalidConfig { field, reason }) => {
                assert_eq!(field, "loops", "{name}");
                assert_eq!(reason, "need at least one loop, got 0", "{name}");
            }
            Err(e) => panic!("{name}: expected InvalidConfig, got {e}"),
            Ok(_) => panic!("{name}: a run without a loop must be rejected"),
        }
    }
}

#[test]
fn hacc_without_a_particle_is_a_config_error() {
    let hacc = HaccConfig {
        particles_per_rank: 0,
        loops: 1,
        ..Default::default()
    };
    for (name, workload) in [("async", HaccIo::new(hacc)), ("sync", HaccIo::sync(hacc))] {
        let built = Session::builder(ExpConfig::new(2, Strategy::None))
            .workload(workload)
            .try_build();
        match built {
            Err(SimError::InvalidConfig { field, reason }) => {
                assert_eq!(field, "particles_per_rank", "{name}");
                assert_eq!(reason, "need at least one particle, got 0", "{name}");
            }
            Err(e) => panic!("{name}: expected InvalidConfig, got {e}"),
            Ok(_) => panic!("{name}: a run that writes no particle must be rejected"),
        }
    }
}

#[test]
fn invalid_program_is_a_typed_error_on_the_session_path() {
    // Waits on a tag it never submitted.
    let program = Program::from_ops(vec![Op::Wait {
        tag: mpisim::ReqTag(3),
    }]);
    let session = Session::builder(ExpConfig::new(1, Strategy::None))
        .workload(RawWorkload::new("orphan-wait", vec![program], vec!["f"]))
        .try_build()
        .expect("the config is valid");
    match session.try_run() {
        Err(SimError::InvalidProgram { rank, reason }) => {
            assert_eq!(rank, 0);
            assert!(reason.contains("no submit"), "{reason}");
        }
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
}

#[test]
fn io_on_an_unregistered_file_is_a_typed_error() {
    use mpisim::{FileId, ReqTag};
    let file = FileId(3);
    let (bytes, tag) = (1e6, ReqTag(0));
    let io_ops = [
        vec![Op::Write { file, bytes }],
        vec![Op::Read { file, bytes }],
        vec![Op::IWrite { file, bytes, tag }, Op::Wait { tag }],
        vec![Op::IRead { file, bytes, tag }, Op::Wait { tag }],
    ];
    for ops in io_ops {
        let what = format!("{:?}", ops[0]);
        // Rank 1 does the I/O; no file is registered.
        let programs = vec![
            Program::from_ops(vec![Op::Compute { seconds: 0.01 }]),
            Program::from_ops(ops),
        ];
        let session = Session::builder(ExpConfig::new(2, Strategy::None))
            .workload(RawWorkload::new("no-files", programs, Vec::<String>::new()))
            .try_build()
            .expect("the config is valid");
        match session.try_run() {
            Err(SimError::InvalidProgram { rank, reason }) => {
                assert_eq!(rank, 1, "{what}");
                assert!(reason.contains("unregistered file 3"), "{what}: {reason}");
            }
            other => panic!("{what}: expected InvalidProgram, got {other:?}"),
        }
    }
}

#[test]
fn raw_workload_with_the_wrong_rank_count_is_a_typed_error() {
    let program = Program::from_ops(vec![Op::Compute { seconds: 0.01 }]);
    let session = Session::builder(ExpConfig::new(2, Strategy::None))
        .workload(RawWorkload::new("one-program", vec![program], vec!["f"]))
        .try_build()
        .expect("the config is valid");
    match session.try_run() {
        Err(SimError::InvalidConfig { field, reason }) => {
            assert_eq!(field, "n_ranks");
            assert!(reason.contains("2 ranks but 1 programs"), "{reason}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}
