//! The per-rank table of outstanding async requests: many requests in
//! flight at once, completing out of submit order, tags on both sides of
//! the tag map's dense bound, a tag reused after its wait, and duplicate
//! outstanding tags rejected as invalid programs.

use mpisim::{
    FileId, IoHooks, Limits, NoHooks, Op, Program, RankDriver, ReqTag, SimError, World, WorldConfig,
};
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

/// Records request completions and wait exits, in order.
#[derive(Default)]
struct Log {
    completed: Vec<u32>,
    waited: Vec<u32>,
}

impl IoHooks for Log {
    fn on_request_complete(&mut self, _t: SimTime, _rank: usize, tag: ReqTag) {
        self.completed.push(tag.0);
    }

    fn on_wait_exit(&mut self, _t: SimTime, _rank: usize, tag: ReqTag, _l: &mut Limits) -> f64 {
        self.waited.push(tag.0);
        0.0
    }
}

#[test]
fn many_outstanding_requests_complete_out_of_submit_order() {
    // 80 requests in flight, every tenth above the dense bound; request k
    // is 80 - k units long, so they complete in reverse submit order.
    let n = 80u32;
    let tag = |k: u32| if k % 10 == 9 { 5000 + k } else { k };
    let mut ops: Vec<Op> = (0..n)
        .map(|k| Op::IWrite {
            file: FileId(0),
            bytes: f64::from(n - k) * 0.05 * MB,
            tag: ReqTag(tag(k)),
        })
        .collect();
    ops.push(Op::Compute { seconds: 0.01 });
    ops.extend((0..n).map(|k| Op::Wait {
        tag: ReqTag(tag(k)),
    }));
    // Reuse a dense and a sparse tag after their waits.
    for t in [tag(0), tag(9)] {
        ops.push(Op::IWrite {
            file: FileId(0),
            bytes: MB,
            tag: ReqTag(t),
        });
        ops.push(Op::Wait { tag: ReqTag(t) });
    }
    let mut w = World::new(
        cfg(1, 100.0 * MB),
        vec![Program::from_ops(ops)],
        Log::default(),
    );
    w.create_file("f");
    let s = w.try_run().unwrap();

    let total = f64::from(n * (n + 1) / 2) * 0.05 * MB + 2.0 * MB;
    assert!((s.makespan() - total / (100.0 * MB)).abs() < 1e-6);
    let log = w.into_hooks();
    let mut expected: Vec<u32> = (0..n).rev().map(tag).collect();
    expected.extend([tag(0), tag(9)]);
    assert_eq!(log.completed, expected);
    let mut waited: Vec<u32> = (0..n).map(tag).collect();
    waited.extend([tag(0), tag(9)]);
    assert_eq!(log.waited, waited);
}

/// Feeds ops to rank 0 without [`Program::validate`], which would reject
/// a duplicate outstanding tag before the run starts.
struct Raw(Vec<Op>, usize);

impl RankDriver for Raw {
    fn next_op(&mut self, _rank: usize, _now: SimTime) -> Option<Op> {
        let op = self.0.get(self.1).copied();
        self.1 += 1;
        op
    }
}

#[test]
fn duplicate_outstanding_tag_is_an_invalid_program() {
    for t in [3, 4095, 4096, u32::MAX] {
        let submit = Op::IWrite {
            file: FileId(0),
            bytes: MB,
            tag: ReqTag(t),
        };
        let ops = vec![submit, Op::Compute { seconds: 0.5 }, submit];
        let mut w: World<NoHooks> = World::with_driver(cfg(1, 1e9), Box::new(Raw(ops, 0)), NoHooks);
        w.create_file("f");
        match w.try_run().unwrap_err() {
            SimError::InvalidProgram { rank, reason } => {
                assert_eq!(rank, 0);
                assert!(reason.contains("already outstanding"), "{reason}");
            }
            e => panic!("tag {t}: expected an invalid program, got {e}"),
        }
    }
}
