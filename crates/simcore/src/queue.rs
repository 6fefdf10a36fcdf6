//! Event queue for discrete-event engines.
//!
//! [`EventQueue`] is a time-ordered priority queue with FIFO tie-breaking:
//! events scheduled for the same instant pop in the order they were pushed,
//! which keeps simulations deterministic regardless of heap internals.
//!
//! Heap entries are keyed by one integer, `(time bits << 64) | seq`:
//! scheduled times are never negative, so the IEEE-754 bit pattern of a time
//! orders exactly like the time itself, and a sift comparison is one `u128`
//! compare with no float branch.
//!
//! The binary heap implements the *hold* operation of discrete-event
//! simulation: [`EventQueue::pop`] copies the root out and leaves it in
//! place, marked popped. When the handler then schedules an event, the event
//! overwrites the popped root and sifts down once — one sift instead of a
//! pop's sift-down plus a push's sift-up. Otherwise the next `pop` first
//! removes the popped root the usual way.
//!
//! Events are never cancelled. The one event an engine re-targets over and
//! over — its wake-up for the next PFS completion — is a *wake*: a single
//! re-armable slot held beside the heap ([`EventQueue::set_wake`]).
//! Re-arming replaces it in place, so no dead entry is ever left behind.

use crate::time::SimTime;

#[derive(Clone, Copy)]
struct Entry<E> {
    /// `(time bits << 64) | seq`: the `to_bits` of the (non-negative,
    /// `-0.0`-normalised) time in seconds, then a monotonic tie-breaker that
    /// keeps same-time events FIFO.
    key: u128,
    payload: E,
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<E> {
    /// Min-heap on `key`.
    heap: Vec<Entry<E>>,
    /// `heap[0]` was returned by the last `pop` but is still in place.
    root_popped: bool,
    /// The armed wake, if any; ordered against the heap top by key.
    wake: Option<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    heap_pushes: u64,
    root_reuses: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` concurrently pending
    /// events, avoiding reallocation in the scheduling hot path.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            root_popped: false,
            wake: None,
            next_seq: 0,
            now: SimTime::ZERO,
            heap_pushes: 0,
            root_reuses: 0,
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
        // `+ 0.0` turns `-0.0` into `+0.0`; every other time is ≥ 0.
        let bits = (time.as_secs() + 0.0).to_bits();
        Entry {
            key: (u128::from(bits) << 64) | u128::from(seq),
            payload,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// Reuses the slot of the event popped last if it is still in place (one
    /// sift-down); otherwise pushes (one sift-up). Panics if `time` is in the
    /// past (before the last popped event).
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let e = self.entry(time, payload);
        if std::mem::take(&mut self.root_popped) {
            self.root_reuses += 1;
            self.sift_down(e);
        } else {
            self.heap_pushes += 1;
            self.heap.push(e);
            self.sift_up(self.heap.len() - 1);
        }
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

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// A heap event's slot stays in place until the next `schedule` reuses
    /// it or the next `pop` removes it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if std::mem::take(&mut self.root_popped) {
            // Remove the popped root: the last entry takes its place.
            if let Some(last) = self.heap.pop().filter(|_| !self.heap.is_empty()) {
                self.sift_down(last);
            }
        }
        let wake_first = match (&self.wake, self.heap.first()) {
            (Some(w), Some(h)) => w.key < h.key,
            (w, _) => w.is_some(),
        };
        let e = if wake_first {
            self.wake.take()?
        } else {
            let top = *self.heap.first()?;
            self.root_popped = true;
            top
        };
        let t = SimTime::from_secs(f64::from_bits((e.key >> 64) as u64));
        debug_assert!(t >= self.now);
        self.now = t;
        Some((t, e.payload))
    }

    /// Number of pending events, the armed wake included.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.root_popped) + usize::from(self.wake.is_some())
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules that pushed a new heap entry.
    pub fn heap_pushes(&self) -> u64 {
        self.heap_pushes
    }

    /// Schedules that overwrote the root left in place by the preceding
    /// [`pop`](EventQueue::pop) instead of pushing.
    pub fn root_reuses(&self) -> u64 {
        self.root_reuses
    }

    /// Places `e` at the root and sifts it down to restore the heap order.
    ///
    /// Bottom-up: the hole at the root first follows the smaller child
    /// down to a leaf (one compare per level), then `e` sifts up from there.
    /// A new event or the moved last entry usually belongs near the bottom,
    /// where a top-down sift would spend two compares per level.
    fn sift_down(&mut self, e: Entry<E>) {
        let heap = &mut self.heap;
        let n = heap.len();
        let mut hole = 0;
        let mut child = 1;
        while child + 1 < n {
            child += usize::from(heap[child + 1].key < heap[child].key);
            heap[hole] = heap[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child + 1 == n {
            heap[hole] = heap[child];
            hole = child;
        }
        heap[hole] = e;
        self.sift_up(hole);
    }

    /// Sifts the entry at `pos` up to restore the heap order.
    fn sift_up(&mut self, mut pos: usize) {
        let heap = &mut self.heap;
        let e = heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if heap[parent].key <= e.key {
                break;
            }
            heap[pos] = heap[parent];
            pos = parent;
        }
        heap[pos] = e;
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

    /// A pop that finds nothing leaves no root behind: the next schedule
    /// must push, not overwrite a slot that does not exist.
    #[test]
    fn schedule_after_an_empty_pop_pushes() {
        let mut q = EventQueue::new();
        assert!(q.pop().is_none());
        q.schedule(t(1.0), "a");
        assert_eq!((q.len(), q.heap_pushes(), q.root_reuses()), (1, 1, 0));
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert!(q.pop().is_none());
        q.schedule(t(2.0), "b");
        assert_eq!((q.len(), q.heap_pushes(), q.root_reuses()), (1, 2, 0));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert!(q.pop().is_none());
    }

    /// An event scheduled into the popped root ahead of everything pending
    /// (same instant, or merely earlier) pops next.
    #[test]
    fn reused_root_ahead_of_all_pending_pops_next() {
        let mut q = EventQueue::new();
        for (i, s) in [1.0, 4.0, 2.0, 5.0, 3.0].into_iter().enumerate() {
            q.schedule(t(s), i);
        }
        assert_eq!(q.pop(), Some((t(1.0), 0)));
        q.schedule(t(1.5), 10);
        assert_eq!(q.root_reuses(), 1);
        assert_eq!(q.pop(), Some((t(1.5), 10)));
        q.schedule(t(1.5), 11);
        assert_eq!(q.pop(), Some((t(1.5), 11)));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, i)| i).collect();
        assert_eq!(rest, [2, 4, 1, 3]);
    }

    /// An event scheduled into the popped root behind everything pending
    /// sifts all the way down.
    #[test]
    fn reused_root_behind_all_pending_sifts_down() {
        let mut q = EventQueue::new();
        for i in 0..7 {
            q.schedule(t(f64::from(i)), i);
        }
        assert_eq!(q.pop(), Some((t(0.0), 0)));
        q.schedule(t(10.0), 7);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, i)| i).collect();
        assert_eq!(order, [1, 2, 3, 4, 5, 6, 7]);
    }

    /// The wake is compared with the heap top after the popped root is gone,
    /// not with the popped root itself.
    #[test]
    fn wake_wins_while_a_root_is_popped() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "a");
        q.schedule(t(3.0), "c");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        q.set_wake(Some(t(2.0)), "wake");
        assert_eq!(q.pop(), Some((t(2.0), "wake")));
        // The wake left the root slot alone: this schedule pushes.
        q.schedule(t(2.5), "b");
        assert_eq!((q.heap_pushes(), q.root_reuses()), (3, 0));
        assert_eq!(q.pop(), Some((t(2.5), "b")));
        q.set_wake(Some(t(2.5)), "tie");
        q.schedule(t(2.5), "after tie");
        assert_eq!(q.root_reuses(), 1);
        assert_eq!(q.pop().unwrap().1, "tie");
        assert_eq!(q.pop().unwrap().1, "after tie");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    /// `len()` leaves out a popped root, whether the next step reuses it,
    /// removes it, or pops the wake past it.
    #[test]
    fn len_excludes_the_popped_root() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 1);
        q.schedule(t(2.0), 2);
        q.set_wake(Some(t(5.0)), 0);
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.schedule(t(3.0), 3);
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!((q.len(), q.is_empty()), (0, true));
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    /// A `-0.0` event written into a reused root still ties with `0.0`.
    #[test]
    fn negative_zero_at_a_reused_root() {
        let mut q = EventQueue::new();
        q.schedule(t(0.0), "first");
        q.schedule(t(0.0), "zero");
        q.schedule(t(1.0), "later");
        assert_eq!(q.pop().unwrap().1, "first");
        q.schedule(t(-0.0), "negative zero");
        assert_eq!(q.root_reuses(), 1);
        assert_eq!(q.pop().unwrap().1, "zero");
        let (time, what) = q.pop().unwrap();
        assert_eq!((time.as_secs().to_bits(), what), (0, "negative zero"));
        assert_eq!(q.pop().unwrap().1, "later");
    }
}
