//! Property-based cross-validation of the event-driven PFS engine against
//! the brute-force timestep reference, plus invariant checks.

mod common;

use common::{water_fill, RefFlow, Reference};
use pfsim::alloc::Demand;
use pfsim::{Channel, FlowSpec, Pfs, PfsConfig};
use proptest::prelude::*;
use simcore::SimTime;

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn arb_flow() -> impl Strategy<Value = RefFlow> {
    (
        0.0f64..5.0,    // arrival
        1.0f64..2000.0, // bytes
        prop_oneof![Just(1.0f64), Just(2.0), Just(4.0)],
        prop_oneof![
            Just(None),
            (5.0f64..150.0).prop_map(Some) // cap
        ],
    )
        .prop_map(|(arrival, bytes, weight, cap)| RefFlow {
            arrival,
            bytes,
            weight,
            cap,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Engine completion times match the timestep reference within 2·dt·rate
    /// worth of bytes (i.e. one timestep of slack).
    #[test]
    fn engine_matches_reference(flows in prop::collection::vec(arb_flow(), 1..7)) {
        let capacity = 100.0;
        let dt = 0.002;
        let reference = Reference::new(capacity, dt);
        let ref_times = reference.completion_times(&flows, 10_000.0);

        let mut p = Pfs::new(PfsConfig { write_capacity: capacity, read_capacity: capacity });
        // Submit in arrival order; collect completions.
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by(|&a, &b| flows[a].arrival.partial_cmp(&flows[b].arrival).unwrap());
        let mut done: Vec<(SimTime, pfsim::FlowId)> = Vec::new();
        for &i in &order {
            let f = &flows[i];
            // Drain completions that happen before this arrival.
            done.extend(p.advance_to(t(f.arrival)));
            p.submit(
                t(f.arrival),
                Channel::Write,
                FlowSpec { bytes: f.bytes, weight: f.weight, cap: f.cap, meter: None },
                pfsim::FlowId(i as u64),
            );
        }
        done.extend(p.advance_to(t(20_000.0)));

        for (i, f) in flows.iter().enumerate() {
            let id = pfsim::FlowId(i as u64);
            let engine_time = done
                .iter()
                .find(|(_, d)| *d == id)
                .map(|(ct, _)| ct.as_secs())
                .expect("flow completed in engine");
            // The reference quantizes to dt and can lag by up to a few steps
            // when rates change inside a step; allow a small absolute slack
            // scaled by how long the flow ran.
            let slack = (engine_time - f.arrival).max(1.0) * 0.01 + 3.0 * dt;
            prop_assert!(
                (engine_time - ref_times[i]).abs() <= slack,
                "flow {i}: engine {engine_time} vs reference {} (slack {slack})",
                ref_times[i]
            );
        }
    }

    /// Water-filling never exceeds capacity and never exceeds any cap.
    #[test]
    fn water_fill_respects_limits(
        capacity in 0.0f64..1000.0,
        demands in prop::collection::vec(
            (1usize..5, 0.1f64..8.0, prop::option::of(0.0f64..300.0)),
            0..10
        )
    ) {
        let demands: Vec<Demand> = demands
            .into_iter()
            .map(|(count, weight, cap)| Demand { count, weight, cap })
            .collect();
        let rates = water_fill(capacity, &demands);
        let total: f64 = rates
            .iter()
            .zip(&demands)
            .map(|(r, d)| r * d.count as f64)
            .sum();
        prop_assert!(total <= capacity * (1.0 + 1e-9) + 1e-9, "total {total} > {capacity}");
        for (r, d) in rates.iter().zip(&demands) {
            prop_assert!(*r >= 0.0);
            if let Some(c) = d.cap {
                prop_assert!(*r <= c + 1e-9, "rate {r} exceeds cap {c}");
            }
        }
    }

    /// Work conservation: with at least one uncapped flow, the whole channel
    /// is used.
    #[test]
    fn water_fill_is_work_conserving(
        capacity in 1.0f64..1000.0,
        capped in prop::collection::vec((1usize..4, 0.5f64..4.0, 0.0f64..300.0), 0..6),
        uncapped_weight in 0.1f64..8.0,
    ) {
        let mut demands: Vec<Demand> = capped
            .into_iter()
            .map(|(count, weight, cap)| Demand { count, weight, cap: Some(cap) })
            .collect();
        demands.push(Demand { count: 1, weight: uncapped_weight, cap: None });
        let rates = water_fill(capacity, &demands);
        let total: f64 = rates
            .iter()
            .zip(&demands)
            .map(|(r, d)| r * d.count as f64)
            .sum();
        prop_assert!((total - capacity).abs() <= capacity * 1e-9 + 1e-9,
            "not work conserving: {total} vs {capacity}");
    }

    /// Engine conserves bytes: the integral of the recorded total rate equals
    /// the bytes submitted.
    #[test]
    fn engine_conserves_bytes(flows in prop::collection::vec(arb_flow(), 1..6)) {
        let mut p = Pfs::new(PfsConfig { write_capacity: 100.0, read_capacity: 100.0 });
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by(|&a, &b| flows[a].arrival.partial_cmp(&flows[b].arrival).unwrap());
        let mut total_bytes = 0.0;
        for &i in &order {
            let f = &flows[i];
            let _ = p.advance_to(t(f.arrival));
            p.submit(
                t(f.arrival),
                Channel::Write,
                FlowSpec { bytes: f.bytes, weight: f.weight, cap: f.cap, meter: None },
                pfsim::FlowId(i as u64),
            );
            total_bytes += f.bytes;
        }
        let _ = p.advance_to(t(100_000.0));
        let ([write, _], _) = p.into_series();
        let moved = write.integral(t(0.0), t(100_000.0));
        prop_assert!(
            (moved - total_bytes).abs() < 1e-3 * total_bytes.max(1.0),
            "moved {moved} vs submitted {total_bytes}"
        );
    }

    /// Completion order respects dominance: with equal weights, no caps and
    /// equal arrival, fewer bytes never finish later.
    #[test]
    fn smaller_flows_finish_first(bytes in prop::collection::vec(1.0f64..1000.0, 2..8)) {
        let mut p = Pfs::new(PfsConfig { write_capacity: 50.0, read_capacity: 50.0 });
        for (i, &b) in bytes.iter().enumerate() {
            p.submit(t(0.0), Channel::Write, FlowSpec::simple(b), pfsim::FlowId(i as u64));
        }
        let done = p.advance_to(t(1e7));
        let time_of = |i: usize| {
            done.iter()
                .find(|(_, d)| d.0 == i as u64)
                .map(|(ct, _)| ct.as_secs())
                .unwrap()
        };
        for i in 0..bytes.len() {
            for j in 0..bytes.len() {
                if bytes[i] < bytes[j] {
                    prop_assert!(time_of(i) <= time_of(j) + 1e-9);
                }
            }
        }
    }
}

#[test]
fn single_flow_matches_analytic() {
    let r = Reference::new(100.0, 0.001);
    let done = r.completion_times(
        &[RefFlow {
            arrival: 0.0,
            bytes: 1000.0,
            weight: 1.0,
            cap: None,
        }],
        100.0,
    );
    assert!((done[0] - 10.0).abs() < 0.01);
}

#[test]
fn two_flows_match_analytic() {
    let r = Reference::new(100.0, 0.001);
    let done = r.completion_times(
        &[
            RefFlow {
                arrival: 0.0,
                bytes: 1000.0,
                weight: 1.0,
                cap: None,
            },
            RefFlow {
                arrival: 5.0,
                bytes: 250.0,
                weight: 1.0,
                cap: None,
            },
        ],
        100.0,
    );
    assert!((done[1] - 10.0).abs() < 0.01, "{}", done[1]);
    assert!((done[0] - 12.5).abs() < 0.01, "{}", done[0]);
}
