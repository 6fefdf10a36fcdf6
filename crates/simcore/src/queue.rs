//! Event queue for discrete-event engines.
//!
//! [`EventQueue`] is a time-ordered priority queue with FIFO tie-breaking:
//! events scheduled for the same instant pop in the order they were pushed,
//! which keeps simulations deterministic regardless of heap internals.
//!
//! Heap entries are keyed by the integer pair `(time bits, seq)`: scheduled
//! times are never negative, so the IEEE-754 bit pattern of a time orders
//! exactly like the time itself, and a sift comparison is two integer
//! compares with no float branch.
//!
//! Events are never cancelled. The one event an engine re-targets over and
//! over — its wake-up for the next PFS completion — is a *wake*: a single
//! re-armable slot held beside the heap ([`EventQueue::set_wake`]).
//! Re-arming replaces it in place, so no dead entry is ever left behind.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    /// `to_bits` of the (non-negative, `-0.0`-normalised) time in seconds.
    time: u64,
    /// Monotonic tie-breaker: FIFO among same-time events.
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time (then lowest seq)
        // is popped first.
        other.key().cmp(&self.key())
    }
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// The armed wake, if any; ordered against the heap top by `(time, seq)`.
    wake: Option<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` concurrently pending
    /// events, avoiding reallocation in the scheduling hot path.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            wake: None,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Builds the entry for `payload` at `time`, drawing the next sequence
    /// number.
    ///
    /// Panics if `time` is in the past (before the last popped event): a DES
    /// must never travel backwards.
    fn entry(&mut self, time: SimTime, payload: E) -> Entry<E> {
        assert!(
            time >= self.now,
            "cannot schedule event in the past: {:?} < {:?}",
            time,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry {
            // `+ 0.0` turns `-0.0` into `+0.0`; every other time is ≥ 0.
            time: (time.as_secs() + 0.0).to_bits(),
            seq,
            payload,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// Panics if `time` is in the past (before the last popped event).
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let e = self.entry(time, payload);
        self.heap.push(e);
    }

    /// Schedules `payload` after `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, payload: E) {
        let t = self.now.after(delay);
        self.schedule(t, payload);
    }

    /// Arms the wake at `time` with `payload`, replacing any armed wake, or
    /// disarms it with `None`.
    ///
    /// Arming draws a fresh sequence number exactly as [`schedule`] does, so
    /// the wake ties with same-instant events as if it had just been
    /// scheduled. A popped wake is disarmed. Panics if `time` is in the past.
    ///
    /// [`schedule`]: EventQueue::schedule
    pub fn set_wake(&mut self, time: Option<SimTime>, payload: E) {
        self.wake = time.map(|t| self.entry(t, payload));
    }

    /// True if the armed wake precedes the heap top (or the heap is empty).
    #[inline]
    fn wake_first(&self) -> bool {
        match (&self.wake, self.heap.peek()) {
            (Some(w), Some(h)) => w.key() < h.key(),
            (w, _) => w.is_some(),
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = if self.wake_first() {
            self.wake.take()
        } else {
            self.heap.pop()
        }?;
        let t = SimTime::from_secs(f64::from_bits(e.time));
        debug_assert!(t >= self.now);
        self.now = t;
        Some((t, e.payload))
    }

    /// The next event — timestamp and payload — without popping it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        let e = if self.wake_first() {
            self.wake.as_ref()
        } else {
            self.heap.peek()
        }?;
        Some((SimTime::from_secs(f64::from_bits(e.time)), &e.payload))
    }

    /// Number of pending events, the armed wake included.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.wake.is_some())
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(2.5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(2.5));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "first");
        q.pop();
        q.schedule_in(0.5, "second");
        let (time, _) = q.pop().unwrap();
        assert!((time.as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rearming_the_wake_supersedes_it() {
        let mut q = EventQueue::new();
        q.schedule(t(2.0), "event");
        q.set_wake(Some(t(1.0)), "early wake");
        q.set_wake(Some(t(3.0)), "late wake");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(2.0), "event")));
        assert_eq!(q.peek(), Some((t(3.0), &"late wake")));
        assert_eq!(q.pop(), Some((t(3.0), "late wake")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn none_disarms_the_wake() {
        let mut q = EventQueue::new();
        q.set_wake(Some(t(1.0)), "wake");
        q.schedule(t(2.0), "event");
        q.set_wake(None, "ignored");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2.0), "event")));
        assert!(q.is_empty());
    }

    /// At one instant the wake pops in the order it was armed relative to
    /// ordinary events: re-arming moves it behind events scheduled since.
    #[test]
    fn wake_ties_by_arming_order() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "a");
        q.set_wake(Some(t(1.0)), "wake");
        q.schedule(t(1.0), "b");
        assert_eq!(q.peek(), Some((t(1.0), &"a")));
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "wake");
        assert_eq!(q.pop().unwrap().1, "b");

        q.set_wake(Some(t(2.0)), "wake");
        q.schedule(t(2.0), "c");
        q.set_wake(Some(t(2.0)), "rearmed");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "rearmed");
        assert!(q.is_empty());
    }

    /// `-0.0` is the same instant as `0.0`: it ties in FIFO order instead of
    /// sorting after every positive time (its raw bits have the sign set).
    #[test]
    fn negative_zero_is_time_zero() {
        let mut q = EventQueue::new();
        q.schedule(t(0.5), "later");
        q.schedule(t(0.0), "zero");
        q.schedule(t(-0.0), "negative zero");
        q.set_wake(Some(t(-0.0)), "wake");
        assert_eq!(q.pop(), Some((t(0.0), "zero")));
        let (time, what) = q.pop().unwrap();
        assert_eq!((time.as_secs().to_bits(), what), (0, "negative zero"));
        assert_eq!(q.pop().unwrap().1, "wake");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(2.0), ());
        q.pop();
        q.schedule(t(1.0), ());
    }
}
