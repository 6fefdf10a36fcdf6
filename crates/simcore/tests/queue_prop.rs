//! Property tests of the event queue: total order, FIFO ties, the
//! re-armable wake and the in-place root reuse checked against an
//! ordered-map model.

use proptest::prelude::*;
use simcore::{EventQueue, SimTime};
use std::collections::BTreeMap;

/// Reference model: every pending event, the armed wake included, keyed by
/// `(time bits, seq)` in one ordered map.
#[derive(Default)]
struct Oracle {
    pending: BTreeMap<(u64, u64), usize>,
    wake: Option<(u64, u64)>,
    next_seq: u64,
    now: f64,
}

impl Oracle {
    fn key(&mut self, t: f64) -> (u64, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        ((t + 0.0).to_bits(), seq)
    }

    fn schedule(&mut self, t: f64, id: usize) {
        let k = self.key(t);
        self.pending.insert(k, id);
    }

    fn set_wake(&mut self, t: Option<f64>, id: usize) {
        if let Some(old) = self.wake.take() {
            self.pending.remove(&old);
        }
        if let Some(t) = t {
            let k = self.key(t);
            self.pending.insert(k, id);
            self.wake = Some(k);
        }
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        let (k, id) = self.pending.pop_first()?;
        if self.wake == Some(k) {
            self.wake = None;
        }
        self.now = f64::from_bits(k.0);
        Some((self.now, id))
    }
}

proptest! {
    /// Pops are globally ordered by (time, insertion sequence).
    #[test]
    fn pops_sorted_with_fifo_ties(times in prop::collection::vec(0u32..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t as f64), i);
        }
        let mut popped = Vec::new();
        while let Some((t, id)) = q.pop() {
            popped.push((t, id));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO on ties");
            }
        }
    }

    /// Random schedule / schedule_in / set_wake / pop sequences give the
    /// same `(time, payload)` stream and `len()` as the model. Small integer
    /// offsets make same-instant ties (wake against events) common; two of
    /// the six ops pop, so pops run back to back (removing a popped root)
    /// as often as a schedule follows one (reusing it).
    #[test]
    fn matches_ordered_map_model(script in prop::collection::vec((0u8..6, 0u32..6), 1..300)) {
        let mut q = EventQueue::new();
        let mut m = Oracle::default();
        for (id, (op, dt)) in script.into_iter().enumerate() {
            let at = m.now + dt as f64;
            match op {
                0 => {
                    q.schedule(SimTime::from_secs(at), id);
                    m.schedule(at, id);
                }
                1 => {
                    q.schedule_in(dt as f64, id);
                    m.schedule(at, id);
                }
                2 => {
                    q.set_wake(Some(SimTime::from_secs(at)), id);
                    m.set_wake(Some(at), id);
                }
                3 => {
                    q.set_wake(None, id);
                    m.set_wake(None, id);
                }
                _ => {
                    let got = q.pop().map(|(t, id)| (t.as_secs(), id));
                    prop_assert_eq!(got, m.pop());
                }
            }
            prop_assert_eq!(q.len(), m.pending.len());
        }
        while let Some((t, id)) = q.pop() {
            prop_assert_eq!(Some((t.as_secs(), id)), m.pop());
        }
        prop_assert!(m.pending.is_empty());
    }
}
