//! Property-based validation of the incremental PFS engine internals:
//! random submit / cap-change / capacity-change / advance sequences must
//! leave the resident allocator state bitwise-equal to a from-scratch
//! `water_fill`, keep the order index and the completion-time cache
//! consistent with a rescan (`Pfs::validate_invariants`), and — on the
//! sequences the timestep reference can express — produce the same
//! completion times.

#[path = "../../tests/common/mod.rs"]
mod common;

use crate::alloc::{water_fill_into, Demand, WaterFillScratch};
use crate::{Channel, FlowId, FlowSpec, Pfs, PfsConfig};
use common::{RefFlow, Reference};
use proptest::prelude::*;
use simcore::SimTime;

impl Pfs {
    /// Test support: asserts that the incremental allocator state, the
    /// group counts, the order index and the cached earliest completions
    /// agree with a from-scratch recomputation.
    ///
    /// Rates and θ must match *bitwise* (both solve paths reproduce the
    /// water-fill bits); cached completion times may differ from a rescan
    /// by FP ulps because they were computed against an earlier `now`.
    pub(super) fn validate_invariants(&self) {
        for (ci, ch) in self.channels.iter().enumerate() {
            let n = ch.members.len();
            for len in [
                ch.rem.len(),
                ch.rate.len(),
                ch.weight.len(),
                ch.cap.len(),
                ch.meter.len(),
            ] {
                assert_eq!(len, n, "channel {ci}: column lengths differ");
            }
            assert_eq!(ch.n_flows, ch.members.iter().map(Vec::len).sum::<usize>());
            assert_eq!(ch.n_capped, ch.cap.iter().filter(|c| c.is_some()).count());
            assert_eq!(
                ch.n_weighted,
                ch.weight.iter().filter(|&&w| w != 1.0).count()
            );
            let demands: Vec<Demand> = (0..n)
                .map(|i| Demand {
                    count: ch.members[i].len(),
                    weight: ch.weight[i],
                    cap: ch.cap[i],
                })
                .collect();
            let mut fresh = Vec::new();
            let theta = water_fill_into(
                ch.capacity * ch.fault_factor,
                &demands,
                &mut WaterFillScratch::default(),
                &mut fresh,
            );
            for (gi, f) in fresh.iter().enumerate() {
                let r = ch.rate_of(gi);
                assert!(
                    r.to_bits() == f.to_bits(),
                    "channel {ci} group {gi}: incremental rate {r} != from-scratch {f}"
                );
            }
            assert_eq!(ch.uniform, ch.n_capped == 0 && ch.n_weighted == 0);
            if ch.uniform {
                if n > 0 {
                    assert!(
                        ch.theta.to_bits() == theta.to_bits(),
                        "channel {ci}: θ {} != water-fill level {theta}",
                        ch.theta
                    );
                }
                let mut seen = vec![false; n];
                for &g in ch.sorted() {
                    assert!(!std::mem::replace(&mut seen[g as usize], true));
                }
                assert!(
                    ch.sorted().len() == n,
                    "channel {ci}: the order index is not a permutation"
                );
                assert!(
                    ch.sorted()
                        .windows(2)
                        .all(|w| ch.rem[w[0] as usize] <= ch.rem[w[1] as usize]),
                    "channel {ci}: the order index is not sorted by remaining bytes"
                );
            }
            match (ch.next_done, ch.min_completion(self.now)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    let (a, b) = (a.as_secs(), b.as_secs());
                    assert!(
                        (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                        "channel {ci}: cached completion {a} != rescanned {b}"
                    );
                }
                (a, b) => panic!("channel {ci}: cached {a:?} vs rescan {b:?}"),
            }
        }
    }
}

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// One step of the random engine-driving program.
#[derive(Clone, Debug)]
enum Op {
    /// Submit a flow on the selected channel at the current time.
    Submit {
        read: bool,
        bytes: f64,
        weight: f64,
        cap: Option<f64>,
    },
    /// Re-cap a live flow (selected by index modulo the live set).
    SetCap { pick: usize, cap: Option<f64> },
    /// Rescale a channel's capacity.
    SetCapacity { read: bool, capacity: f64 },
    /// Advance virtual time, harvesting completions.
    Advance { dt: f64 },
}

/// One random op. With `uniform`, every submit is unit-weight and
/// uncapped, so until a `SetCap` lands the engine stays on its uniform-rate
/// path with many groups; otherwise weights come from {1, 2, 4} and half
/// the submits are capped.
fn arb_op(uniform: bool) -> impl Strategy<Value = Op> {
    let submit = if uniform {
        (any::<bool>(), 1.0f64..2000.0)
            .prop_map(|(read, bytes)| Op::Submit {
                read,
                bytes,
                weight: 1.0,
                cap: None,
            })
            .boxed()
    } else {
        (
            any::<bool>(),
            1.0f64..2000.0,
            prop_oneof![Just(1.0f64), Just(2.0), Just(4.0)],
            prop::option::of(5.0f64..150.0),
        )
            .prop_map(|(read, bytes, weight, cap)| Op::Submit {
                read,
                bytes,
                weight,
                cap,
            })
            .boxed()
    };
    prop_oneof![
        submit,
        (0usize..64, prop::option::of(5.0f64..150.0))
            .prop_map(|(pick, cap)| Op::SetCap { pick, cap }),
        (any::<bool>(), 20.0f64..300.0)
            .prop_map(|(read, capacity)| Op::SetCapacity { read, capacity }),
        (0.01f64..3.0).prop_map(|dt| Op::Advance { dt }),
    ]
}

/// Op programs, about a third of them with only uniform submits.
fn arb_program() -> impl Strategy<Value = Vec<Op>> {
    prop_oneof![
        prop::collection::vec(arb_op(true), 1..40),
        prop::collection::vec(arb_op(false), 1..40),
        prop::collection::vec(arb_op(false), 1..40),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every operation the resident rates equal a from-scratch
    /// water-fill and the completion index equals a linear rescan; once
    /// capacity is restored and time runs out, every submitted flow has
    /// completed exactly once.
    #[test]
    fn incremental_state_matches_from_scratch(ops in arb_program()) {
        let mut p = Pfs::new(PfsConfig { write_capacity: 100.0, read_capacity: 100.0 });
        let mut now = 0.0f64;
        let mut live: Vec<FlowId> = Vec::new();
        let mut submitted = 0usize;
        let mut completed: Vec<FlowId> = Vec::new();

        for op in &ops {
            match *op {
                Op::Submit { read, bytes, weight, cap } => {
                    let channel = if read { Channel::Read } else { Channel::Write };
                    let id = FlowId(submitted as u64);
                    p.submit(t(now), channel, FlowSpec { bytes, weight, cap, meter: None }, id);
                    live.push(id);
                    submitted += 1;
                }
                Op::SetCap { pick, cap } => {
                    // set_cap requires completions harvested up to `now`.
                    let done = p.advance_to(t(now));
                    for (_, id) in &done {
                        live.retain(|l| l != id);
                        completed.push(*id);
                    }
                    if let Some(&id) = live.get(pick % live.len().max(1)) {
                        p.set_cap(t(now), id, cap);
                    }
                }
                Op::SetCapacity { read, capacity } => {
                    let done = p.advance_to(t(now));
                    for (_, id) in &done {
                        live.retain(|l| l != id);
                        completed.push(*id);
                    }
                    let channel = if read { Channel::Read } else { Channel::Write };
                    p.set_capacity(t(now), channel, capacity);
                }
                Op::Advance { dt } => {
                    now += dt;
                    let done = p.advance_to(t(now));
                    for (at, id) in &done {
                        prop_assert!(at.as_secs() <= now + 1e-9);
                        live.retain(|l| l != id);
                        completed.push(*id);
                    }
                }
            }
            p.validate_invariants();
        }

        // Drain: restore healthy capacities and run the clock out.
        let done = p.advance_to(t(now));
        for (_, id) in &done {
            live.retain(|l| l != id);
            completed.push(*id);
        }
        p.set_capacity(t(now), Channel::Write, 100.0);
        p.set_capacity(t(now), Channel::Read, 100.0);
        p.validate_invariants();
        completed.extend(p.advance_to(t(now + 1e6)).iter().map(|&(_, id)| id));
        p.validate_invariants();

        prop_assert_eq!(completed.len(), submitted, "every flow completes exactly once");
        let mut uniq = completed.clone();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), submitted, "no duplicate completions");
        prop_assert_eq!(p.active_flows(Channel::Write), 0);
        prop_assert_eq!(p.active_flows(Channel::Read), 0);
        prop_assert!(p.next_completion().is_none());
    }

    /// On submit/advance-only programs (what the timestep reference can
    /// express), the incremental engine's completion times still match the
    /// brute-force reference — interleaved harvesting must not change them.
    #[test]
    fn completions_match_reference_with_interleaved_advances(
        flows in prop::collection::vec(
            (0.0f64..5.0, 1.0f64..2000.0, prop_oneof![Just(1.0f64), Just(2.0), Just(4.0)],
             prop::option::of(5.0f64..150.0)),
            1..7
        ),
        extra_advances in prop::collection::vec(0.0f64..8.0, 0..6),
    ) {
        let flows: Vec<RefFlow> = flows
            .into_iter()
            .map(|(arrival, bytes, weight, cap)| RefFlow { arrival, bytes, weight, cap })
            .collect();
        let capacity = 100.0;
        let dt = 0.002;
        let ref_times = Reference::new(capacity, dt).completion_times(&flows, 10_000.0);

        let mut p = Pfs::new(PfsConfig { write_capacity: capacity, read_capacity: capacity });
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by(|&a, &b| flows[a].arrival.partial_cmp(&flows[b].arrival).unwrap());
        // Interleave extra harvest points with the arrivals: the indexed
        // engine must behave identically however often it is polled.
        let mut events: Vec<(f64, Option<usize>)> =
            order.iter().map(|&i| (flows[i].arrival, Some(i))).collect();
        events.extend(extra_advances.iter().map(|&a| (a, None)));
        events.sort_by(|x, y| {
            x.0.partial_cmp(&y.0).unwrap().then(x.1.is_none().cmp(&y.1.is_none()))
        });

        let mut done: Vec<(SimTime, FlowId)> = Vec::new();
        for (at, what) in events {
            done.extend(p.advance_to(t(at)));
            p.validate_invariants();
            if let Some(i) = what {
                let f = &flows[i];
                p.submit(
                    t(f.arrival),
                    Channel::Write,
                    FlowSpec { bytes: f.bytes, weight: f.weight, cap: f.cap, meter: None },
                    FlowId(i as u64),
                );
            }
        }
        done.extend(p.advance_to(t(20_000.0)));

        for (i, f) in flows.iter().enumerate() {
            let id = FlowId(i as u64);
            let engine_time = done
                .iter()
                .find(|(_, d)| *d == id)
                .map(|(ct, _)| ct.as_secs())
                .expect("flow completed in engine");
            let slack = (engine_time - f.arrival).max(1.0) * 0.01 + 3.0 * dt;
            prop_assert!(
                (engine_time - ref_times[i]).abs() <= slack,
                "flow {i}: engine {engine_time} vs reference {} (slack {slack})",
                ref_times[i]
            );
        }
    }
}
