//! Property-based equivalence of the streaming Eq. 3 sweep-line
//! ([`tmio::IncrementalSweep`]) against the from-scratch oracle
//! ([`oracle::sweep`]).
//!
//! The incremental structure claims *bit-identical* output — same edge
//! order, same summation order, same residue guard — so every comparison
//! here is on the raw `f64` bit patterns of the series points, not on
//! approximate equality. Interval sets include the degenerate shapes real
//! runs produce: zero-length phases (a request waited on at its own submit
//! time), zero-value phases (fault-degraded requests that moved no bytes),
//! tiny normalized magnitudes, heavy same-timestamp stacking, and ±0.0
//! times.
//!
//! Every case feeds the sweep as the tracer does — `open` at the first
//! submit, `close` at the end, every call in nondecreasing time — since an
//! append that goes back in time panics. Interval sets that arrive in
//! arbitrary order are replayed as time-ordered open/close events
//! ([`replay_in_time_order`]); the tracer-shaped cases add never-closed
//! holes, ties broken in every order and live queries.

mod oracle;

use oracle::sweep;
use proptest::prelude::*;
use simcore::StepSeries;
use tmio::{IncrementalSweep, Interval, Opened};

/// Bitwise comparison of two step series.
fn bits(s: &StepSeries) -> Vec<(u64, u64)> {
    s.points()
        .iter()
        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}

fn arb_interval() -> impl Strategy<Value = Interval> {
    (
        // ±0.0 share a region in the oracle, stamped -0.0.
        prop_oneof![
            0.0f64..50.0,
            0.0f64..50.0,
            0.0f64..50.0,
            Just(-0.0f64),
            Just(0.0f64)
        ],
        // Durations: zero-length phases must flow through unharmed.
        prop_oneof![Just(0.0f64), 0.0f64..5.0, Just(1.0f64)],
        // Values: fault-degraded zeros, tiny normalized magnitudes, and
        // bandwidth-scale numbers that stress the residue guard.
        prop_oneof![Just(0.0f64), 1e-12f64..1e-9, 0.5f64..100.0, 1e8f64..1e10],
    )
        .prop_map(|(ts, dur, value)| Interval {
            ts,
            te: ts + dur,
            value,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Replaying intervals in time order yields the oracle's series, bit
    /// for bit.
    #[test]
    fn incremental_matches_scratch(ivs in prop::collection::vec(arb_interval(), 0..60)) {
        let oracle = sweep(&ivs);
        let mut inc = replay_in_time_order(&ivs, &[false]);
        prop_assert_eq!(bits(inc.series()), bits(&oracle));
        prop_assert_eq!(inc.series().max_value().to_bits(), oracle.max_value().to_bits());
        prop_assert_eq!(bits(&inc.into_series()), bits(&oracle));
    }

    /// Arrival order is irrelevant: the reversed set, whose same-instant
    /// events then replay in the opposite order, still matches the oracle
    /// over the original set.
    #[test]
    fn arrival_order_is_irrelevant(ivs in prop::collection::vec(arb_interval(), 0..60)) {
        let oracle = sweep(&ivs);
        let reversed: Vec<Interval> = ivs.iter().rev().copied().collect();
        let mut inc = replay_in_time_order(&reversed, &[false]);
        prop_assert_eq!(bits(inc.series()), bits(&oracle));
    }

    /// Querying after every event (forcing rebuilds of the invalidated
    /// cache) never perturbs later results, and every mid-run answer
    /// equals the oracle over the intervals closed so far.
    #[test]
    fn interleaved_queries_match_prefix_oracles(
        ivs in prop::collection::vec(arb_interval(), 1..30),
    ) {
        replay_in_time_order(&ivs, &[true]);
    }

    /// Same-timestamp stacking (many identical phases, the collective-I/O
    /// shape) collapses to one change point per boundary, as in the oracle.
    #[test]
    fn identical_stacked_intervals(n in 1usize..40, value in 0.5f64..1e6) {
        let iv = Interval { ts: 1.0, te: 2.0, value };
        let ivs = vec![iv; n];
        let oracle = sweep(&ivs);
        let mut inc = replay_in_time_order(&ivs, &[false]);
        prop_assert_eq!(bits(inc.series()), bits(&oracle));
    }
}

/// One interval of a time-ordered replay: times on a coarse grid so that
/// starts and ends often share an instant.
#[derive(Clone, Copy, Debug)]
struct Replayed {
    iv: Interval,
    /// Never closed: the handle is dropped, leaving a hole.
    closed: bool,
}

fn arb_replayed() -> impl Strategy<Value = Replayed> {
    (
        prop_oneof![
            Just(-0.0f64),
            Just(0.0f64),
            (0u32..12).prop_map(|k| k as f64 * 0.5)
        ],
        // `None`: te is ts itself (zero length, -0.0 kept).
        prop_oneof![Just(None), (0u32..6).prop_map(|k| Some(k as f64 * 0.5))],
        prop_oneof![Just(0.0f64), 0.5f64..100.0, 1e8f64..1e10],
        (0u32..20).prop_map(|k| k < 17),
    )
        .prop_map(|(ts, dur, value, closed)| Replayed {
            iv: Interval {
                ts,
                te: dur.map_or(ts, |d| ts + d),
                value,
            },
            closed,
        })
}

#[derive(Clone, Copy, Debug)]
enum Event {
    Open(usize),
    Close(usize),
}

/// The open/close stream of `ivs`, in nondecreasing time (IEEE total
/// order). `ties` orders events at one instant; an interval's own open
/// always precedes its close.
fn time_ordered(ivs: &[Replayed], ties: &[u32]) -> Vec<Event> {
    let mut keyed: Vec<(f64, u32, u8, Event)> = Vec::new();
    for (k, r) in ivs.iter().enumerate() {
        let tie = ties[k % ties.len()];
        keyed.push((r.iv.ts, tie, 0, Event::Open(k)));
        if r.closed {
            let close_tie = if r.iv.te == r.iv.ts {
                tie
            } else {
                ties[(k + 1) % ties.len()]
            };
            keyed.push((r.iv.te, close_tie, 1, Event::Close(k)));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    keyed.into_iter().map(|k| k.3).collect()
}

/// Replays `events`, querying after the event indices in `queries`; each
/// answer must equal the oracle over the intervals closed so far.
fn replay(ivs: &[Replayed], events: &[Event], queries: &[bool]) -> IncrementalSweep {
    let mut inc = IncrementalSweep::default();
    let mut handles: Vec<Option<Opened>> = (0..ivs.len()).map(|_| None).collect();
    let mut closed: Vec<Interval> = Vec::new();
    for (n, ev) in events.iter().enumerate() {
        match *ev {
            Event::Open(k) => handles[k] = Some(inc.open(ivs[k].iv.ts)),
            Event::Close(k) => {
                let h = handles[k].take().expect("opened before closed");
                inc.close(h, ivs[k].iv.te, ivs[k].iv.value);
                closed.push(ivs[k].iv);
            }
        }
        if queries[n % queries.len()] {
            prop_assert_eq!(bits(inc.series()), bits(&sweep(&closed)));
        }
    }
    prop_assert_eq!(bits(inc.series()), bits(&sweep(&closed)));
    inc
}

/// Replays the closed intervals `ivs`, in whatever order they arrive, as
/// time-ordered open/close events (same-instant events in arrival order),
/// querying as [`replay`] does.
fn replay_in_time_order(ivs: &[Interval], queries: &[bool]) -> IncrementalSweep {
    let ivs: Vec<Replayed> = ivs
        .iter()
        .map(|&iv| Replayed { iv, closed: true })
        .collect();
    replay(&ivs, &time_ordered(&ivs, &[0]), queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tracer's feeding pattern: opens and closes in time order, with
    /// never-closed holes, zero-length intervals, start/end ties at one
    /// instant, ±0.0 times and live queries in between.
    #[test]
    fn time_ordered_replay_matches_scratch(
        ivs in prop::collection::vec(arb_replayed(), 0..50),
        ties in prop::collection::vec(0u32..4, 1..8),
        queries in prop::collection::vec((0u32..5).prop_map(|k| k == 0), 1..16),
    ) {
        let events = time_ordered(&ivs, &ties);
        let inc = replay(&ivs, &events, &queries);
        let closed: Vec<Interval> =
            ivs.iter().filter(|r| r.closed).map(|r| r.iv).collect();
        prop_assert_eq!(bits(&inc.into_series()), bits(&sweep(&closed)));
    }

    /// Intervals arriving in a shuffled order, replayed in time order
    /// with same-instant events in arbitrary order while other intervals
    /// are still open, match the oracle.
    #[test]
    fn shuffled_replay_with_open_handles(
        ivs in prop::collection::vec(arb_replayed(), 1..40),
        order in prop::collection::vec(any::<u32>(), 1..40),
        queries in prop::collection::vec((0u32..3).prop_map(|k| k == 0), 1..16),
    ) {
        let mut keyed: Vec<(u32, Replayed)> = ivs
            .iter()
            .enumerate()
            .map(|(k, &r)| (order[k % order.len()], r))
            .collect();
        keyed.sort_by_key(|e| e.0);
        let shuffled: Vec<Replayed> = keyed.into_iter().map(|e| e.1).collect();
        replay(&shuffled, &time_ordered(&shuffled, &order), &queries);
    }
}

/// Zero-length and zero-value phases contribute nothing to the series but
/// still count toward the residue scale, exactly as the oracle computes it.
#[test]
fn degenerate_phases_match_oracle() {
    let ivs = [
        Interval {
            ts: 1.0,
            te: 1.0,
            value: 1e12,
        },
        Interval {
            ts: 0.0,
            te: 4.0,
            value: 0.0,
        },
        Interval {
            ts: 2.0,
            te: 3.0,
            value: 7.5,
        },
    ];
    let oracle = sweep(&ivs);
    let mut inc = replay_in_time_order(&ivs, &[false]);
    assert_eq!(bits(inc.series()), bits(&oracle));
}
