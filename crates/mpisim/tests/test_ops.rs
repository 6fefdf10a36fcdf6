//! Tests for `MPI_Test` probes.

use mpisim::{FileId, IoHooks, Limits, NoHooks, Op, Program, ReqTag, SimError, World, WorldConfig};
use pfsim::PfsConfig;
use simcore::SimTime;

const MB: f64 = 1e6;

fn cfg(n: usize, cap: f64) -> WorldConfig {
    let mut c = WorldConfig::new(n);
    c.pfs = PfsConfig {
        write_capacity: cap,
        read_capacity: cap,
    };
    c
}

#[test]
fn test_probe_keeps_request_live() {
    // Test before and after completion; the request still needs its wait.
    let ops = vec![
        Op::IWrite {
            file: FileId(0),
            bytes: 10.0 * MB,
            tag: ReqTag(0),
        },
        Op::Test { tag: ReqTag(0) }, // immediately after submit: not done
        Op::Compute { seconds: 1.0 },
        Op::Test { tag: ReqTag(0) }, // long after: done
        Op::Wait { tag: ReqTag(0) },
    ];
    let p = Program::from_ops(ops);
    assert!(p.validate().is_ok());
    let mut w = World::new(cfg(1, 100.0 * MB), vec![p], NoHooks);
    w.create_file("f");
    let s = w.try_run().unwrap();
    assert!(
        (s.makespan() - 1.0).abs() < 1e-6,
        "makespan {}",
        s.makespan()
    );
}

#[test]
fn test_reports_status_to_hooks() {
    /// Records every `MPI_Test` outcome the world reports.
    #[derive(Default)]
    struct TestLog(Vec<(f64, ReqTag, bool)>);
    impl IoHooks for TestLog {
        fn on_test(
            &mut self,
            t: SimTime,
            _rank: usize,
            tag: ReqTag,
            done: bool,
            _limits: &mut Limits,
        ) -> f64 {
            self.0.push((t.as_secs(), tag, done));
            0.0
        }
    }
    let ops = vec![
        Op::IWrite {
            file: FileId(0),
            bytes: 50.0 * MB, // 0.5 s of I/O
            tag: ReqTag(0),
        },
        Op::Test { tag: ReqTag(0) }, // at submit time: not done
        Op::Compute { seconds: 1.0 },
        Op::Test { tag: ReqTag(0) }, // after 1 s: done
        Op::Wait { tag: ReqTag(0) },
    ];
    let mut w = World::new(
        cfg(1, 100.0 * MB),
        vec![Program::from_ops(ops)],
        TestLog::default(),
    );
    w.create_file("f");
    let s = w.try_run().unwrap();
    assert!((s.makespan() - 1.0).abs() < 1e-6);
    assert_eq!(
        w.into_hooks().0,
        vec![(0.0, ReqTag(0), false), (1.0, ReqTag(0), true)]
    );
}

#[test]
fn test_on_unknown_request_is_rejected() {
    let ops = vec![
        Op::IWrite {
            file: FileId(0),
            bytes: 1.0,
            tag: ReqTag(0),
        },
        Op::Wait { tag: ReqTag(0) },
        Op::Test { tag: ReqTag(0) }, // already freed
    ];
    // Program::validate would reject this; bypass it via a custom driver.
    struct Raw(Vec<Op>, usize);
    impl mpisim::RankDriver for Raw {
        fn next_op(&mut self, _rank: usize, _now: simcore::SimTime) -> Option<Op> {
            let op = self.0.get(self.1).copied();
            self.1 += 1;
            op
        }
    }
    let mut w: World<NoHooks> = World::with_driver(cfg(1, 1e9), Box::new(Raw(ops, 0)), NoHooks);
    w.create_file("f");
    match w.try_run().unwrap_err() {
        SimError::InvalidProgram { reason, .. } => {
            assert!(reason.contains("unknown request"), "{reason}")
        }
        e => panic!("expected an invalid program, got {e}"),
    }
}
