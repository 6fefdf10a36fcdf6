//! Event-driven fluid parallel-file-system engine.
//!
//! Flows progress at the rates of a bounded max-min allocation; rates are
//! piecewise-constant between *events* (submissions, completions, cap or
//! capacity changes). The engine is passive: a host simulation calls
//! [`Pfs::advance_to`] to move virtual time forward and collects completed
//! flows, and uses [`Pfs::next_completion`] to know when to call back.
//!
//! Identical flows submitted at the same instant merge into *flow groups*
//! that progress and complete together, which keeps 9216-rank synchronized
//! bursts O(1) instead of O(ranks) per event. A channel stores its groups
//! as parallel columns (members, remaining bytes, rate, weight, cap,
//! meter), so the per-event passes over all groups read only the columns
//! they need.
//!
//! Each reallocation takes one of two paths, with bit-identical results:
//!
//! * **uniform** — no group is capped and every weight is 1, as for every
//!   flow `mpisim` submits. Every rate is `θ = capacity / n_flows`, exactly
//!   what [`water_fill_into`] computes: its weight sum adds `1.0 · count`
//!   per group, and every partial sum is an integer below 2^53, so the sum
//!   is exact in any order. Division by `θ > 0` and [`SimTime::after`] are
//!   both monotone non-decreasing, so the earliest completion
//!   `min_i now.after(rem_i / θ)` is `now.after(min_i rem_i / θ)`: one
//!   division per solve, and a `min` over the remaining-bytes column that
//!   is exact in any order.
//! * **general** — caps or weights ≠ 1 (burst-buffer drains, weighted
//!   cluster jobs): the demand table goes through [`water_fill_into`], and
//!   the earliest completion is `now.after` of the smallest quotient.

use crate::alloc::{water_fill_into, Demand, WaterFillScratch};
use simcore::{SimTime, StepSeries};

/// Identifies a single flow (one logical transfer) for completion callbacks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Identifies a bandwidth meter (a recorded aggregate rate series).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MeterId(usize);

/// Transfer direction; the two channels have independent capacities, matching
/// the paper's Lichtenberg numbers (106 GB/s write, 120 GB/s read).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Channel {
    /// Writes to the PFS.
    Write,
    /// Reads from the PFS.
    Read,
}

impl Channel {
    fn index(self) -> usize {
        match self {
            Channel::Write => 0,
            Channel::Read => 1,
        }
    }
}

/// Specification of a new flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Bytes to transfer. Zero-byte flows complete immediately.
    pub bytes: f64,
    /// Scheduling weight (jobs use node counts; ranks use 1).
    pub weight: f64,
    /// Optional rate cap in bytes/s.
    pub cap: Option<f64>,
    /// Optional meter to record this flow's aggregate rate into.
    pub meter: Option<MeterId>,
}

impl FlowSpec {
    /// Convenience: an uncapped weight-1 unmetered flow of `bytes`.
    pub fn simple(bytes: f64) -> Self {
        FlowSpec {
            bytes,
            weight: 1.0,
            cap: None,
            meter: None,
        }
    }
}

/// Configuration of the PFS model.
#[derive(Clone, Copy, Debug)]
pub struct PfsConfig {
    /// Write channel capacity, bytes/s.
    pub write_capacity: f64,
    /// Read channel capacity, bytes/s.
    pub read_capacity: f64,
}

impl Default for PfsConfig {
    /// Lichtenberg II defaults from the paper: 106 GB/s write, 120 GB/s read.
    fn default() -> Self {
        PfsConfig {
            write_capacity: 106e9,
            read_capacity: 120e9,
        }
    }
}

/// One channel's flow groups, one column per field, indexed by group.
/// Groups are appended on creation and removed by `swap_remove`; that
/// order decides harvest order, and harvest order decides event order.
struct ChannelState {
    capacity: f64,
    /// Fault-plan capacity multiplier (1 = healthy, 0 = outage). Kept
    /// separate from `capacity` so capacity noise and injected faults
    /// compose instead of overwriting each other.
    fault_factor: f64,
    /// The flows of each group, which progress in lockstep.
    members: Vec<Vec<FlowId>>,
    /// Remaining bytes of each member (identical across members).
    rem: Vec<f64>,
    /// Per-member rate from the last allocation.
    rate: Vec<f64>,
    weight: Vec<f64>,
    cap: Vec<Option<f64>>,
    meter: Vec<Option<MeterId>>,
    /// Live flows (members over all groups).
    n_flows: usize,
    /// Groups with a cap.
    n_capped: usize,
    /// Groups with a weight other than 1.
    n_weighted: usize,
    total_series: StepSeries,
    /// Resident demand buffer for the general solve path.
    demands: Vec<Demand>,
    /// Resident sort/freeze buffers for the water-fill solve.
    fill: WaterFillScratch,
    /// Earliest absolute completion time over groups with positive rate.
    ///
    /// Rates are piecewise-constant between reallocations, so a group's
    /// absolute completion time is invariant while an allocation is live.
    /// Every group mutation goes through `reallocate`, which recomputes
    /// this minimum, so `next_completion` is a field read instead of a scan
    /// over all groups.
    next_done: Option<SimTime>,
}

impl ChannelState {
    fn new(capacity: f64) -> Self {
        ChannelState {
            capacity,
            fault_factor: 1.0,
            members: Vec::new(),
            rem: Vec::new(),
            rate: Vec::new(),
            weight: Vec::new(),
            cap: Vec::new(),
            meter: Vec::new(),
            n_flows: 0,
            n_capped: 0,
            n_weighted: 0,
            total_series: StepSeries::new(),
            demands: Vec::new(),
            fill: WaterFillScratch::default(),
            next_done: None,
        }
    }

    /// Appends a group of `members` with `bytes` remaining each.
    fn push(
        &mut self,
        members: Vec<FlowId>,
        bytes: f64,
        weight: f64,
        cap: Option<f64>,
        meter: Option<MeterId>,
    ) {
        self.n_flows += members.len();
        self.n_capped += usize::from(cap.is_some());
        self.n_weighted += usize::from(weight != 1.0);
        self.members.push(members);
        self.rem.push(bytes);
        self.rate.push(0.0);
        self.weight.push(weight);
        self.cap.push(cap);
        self.meter.push(meter);
    }

    /// Removes group `i` by `swap_remove` and returns its member buffer.
    fn swap_remove(&mut self, i: usize) -> Vec<FlowId> {
        let members = self.members.swap_remove(i);
        self.n_flows -= members.len();
        self.n_capped -= usize::from(self.cap.swap_remove(i).is_some());
        self.n_weighted -= usize::from(self.weight.swap_remove(i) != 1.0);
        self.rem.swap_remove(i);
        self.rate.swap_remove(i);
        self.meter.swap_remove(i);
        members
    }

    /// The group a new flow of `spec` merges into: one with the same
    /// remaining bytes, cap, weight and meter.
    fn find(&self, spec: &FlowSpec) -> Option<usize> {
        let mut i = 0;
        loop {
            i = first_hit(&self.rem, &self.weight, i, |x, w| {
                x == spec.bytes && w == spec.weight
            });
            if i == self.rem.len() {
                return None;
            }
            if self.cap[i] == spec.cap && self.meter[i] == spec.meter {
                return Some(i);
            }
            i += 1;
        }
    }

    /// Earliest completion of a group with positive rate, computed from
    /// `now`: `now.after` of the smallest `rem / rate` quotient, which is
    /// exact because both steps are monotone.
    fn min_completion(&self, now: SimTime) -> Option<SimTime> {
        let mut any = false;
        let mut q = f64::INFINITY;
        for (&x, &r) in self.rem.iter().zip(&self.rate) {
            if r > 0.0 {
                any = true;
                q = q.min(x / r);
            }
        }
        any.then(|| now.after(q))
    }
}

/// The smallest element of `xs` (∞ when empty), over eight independent
/// running minima so the scan is not one serial dependency chain. `min` is
/// exact, so the result does not depend on the lane split.
fn min_of(xs: &[f64]) -> f64 {
    let min = |a: f64, b: f64| if b < a { b } else { a };
    let mut lanes = [f64::INFINITY; 8];
    let mut chunks = xs.chunks_exact(8);
    for c in &mut chunks {
        for (m, &x) in lanes.iter_mut().zip(c) {
            *m = min(*m, x);
        }
    }
    let [a, b, c, d, e, f, g, h] = lanes;
    let tail = chunks
        .remainder()
        .iter()
        .fold(f64::INFINITY, |m, &x| min(m, x));
    min(
        tail,
        min(min(min(a, e), min(b, f)), min(min(c, g), min(d, h))),
    )
}

/// The first index `i >= from` with `hit(xs[i], ys[i])`, or `xs.len()`.
/// Tests eight pairs per step without an early exit, so the test
/// vectorizes; the result is the same as a plain forward scan.
fn first_hit(xs: &[f64], ys: &[f64], from: usize, hit: impl Fn(f64, f64) -> bool) -> usize {
    let n = xs.len();
    let ys = &ys[..n];
    let mut i = from;
    while i + 8 <= n {
        if (i..i + 8).fold(false, |any, k| any | hit(xs[k], ys[k])) {
            break;
        }
        i += 8;
    }
    while i < n && !hit(xs[i], ys[i]) {
        i += 1;
    }
    i
}

/// The fluid PFS engine. See module docs.
pub struct Pfs {
    channels: [ChannelState; 2],
    now: SimTime,
    next_flow: u64,
    next_meter: usize,
    meter_series: Vec<StepSeries>,
    record: bool,
    /// Resident per-meter rate buffer for series recording.
    meter_rates: Vec<f64>,
    /// Recycled group-member buffers: retiring a group returns its `members`
    /// vector here, and the next group creation reuses it, so steady-state
    /// submit/complete churn performs no heap allocation.
    member_pool: Vec<Vec<FlowId>>,
    /// Allocation solves so far, both channels.
    solves: u64,
    /// Largest group count either channel held after a solve.
    peak_groups: u64,
}

/// Bytes below which a flow counts as finished (guards FP drift).
const EPSILON_BYTES: f64 = 1e-6;

impl Pfs {
    /// Creates a PFS with the given channel capacities. Recording of rate
    /// series is enabled by default.
    pub fn new(config: PfsConfig) -> Self {
        assert!(config.write_capacity >= 0.0 && config.read_capacity >= 0.0);
        Pfs {
            channels: [
                ChannelState::new(config.write_capacity),
                ChannelState::new(config.read_capacity),
            ],
            now: SimTime::ZERO,
            next_flow: 0,
            next_meter: 0,
            meter_series: Vec::new(),
            record: true,
            meter_rates: Vec::new(),
            member_pool: Vec::new(),
            solves: 0,
            peak_groups: 0,
        }
    }

    /// Disables rate-series recording (large sweeps that only need times).
    pub fn set_recording(&mut self, on: bool) {
        self.record = on;
    }

    /// Current virtual time of the PFS state.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Allocates a new bandwidth meter.
    pub fn meter(&mut self) -> MeterId {
        let id = MeterId(self.next_meter);
        self.next_meter += 1;
        self.meter_series.push(StepSeries::new());
        id
    }

    /// The recorded aggregate rate of a meter.
    pub fn meter_series(&self, meter: MeterId) -> &StepSeries {
        &self.meter_series[meter.0]
    }

    /// The recorded aggregate rate of a whole channel.
    pub fn total_series(&self, channel: Channel) -> &StepSeries {
        &self.channels[channel.index()].total_series
    }

    /// Allocation solves so far, both channels: one per submission, cap,
    /// capacity or fault change and per harvest that retired a group.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Largest number of flow groups either channel held after a solve.
    pub fn peak_groups(&self) -> u64 {
        self.peak_groups
    }

    /// Number of in-flight flows on a channel. O(1).
    pub fn active_flows(&self, channel: Channel) -> usize {
        self.channels[channel.index()].n_flows
    }

    /// Submits `count` identical flows at time `t`; returns their ids.
    ///
    /// `t` must be ≥ all previously observed times. Like [`Pfs::submit`],
    /// zero-byte flows are not reported here: they complete at `t` and come
    /// back from the next [`Pfs::advance_to`] (or [`Pfs::advance_into`]).
    pub fn submit_many(
        &mut self,
        t: SimTime,
        channel: Channel,
        spec: FlowSpec,
        count: usize,
    ) -> Vec<FlowId> {
        assert!(spec.bytes >= 0.0, "bytes must be non-negative");
        assert!(spec.weight > 0.0, "weight must be positive");
        assert!(count > 0, "need at least one flow");
        // Settle state up to t (no completions may be pending before t).
        let done = self.advance_to(t);
        assert!(
            done.is_empty(),
            "advance_to before submit returned unharvested completions; \
             call advance_to(t) and handle them first"
        );

        let ids: Vec<FlowId> = (0..count)
            .map(|_| {
                let id = FlowId(self.next_flow);
                self.next_flow += 1;
                id
            })
            .collect();

        let ch = &mut self.channels[channel.index()];
        // Merge with an existing identical group (same remaining/cap/weight/
        // meter) — the common case for synchronized bursts.
        match ch.find(&spec) {
            Some(i) => {
                ch.members[i].extend_from_slice(&ids);
                ch.n_flows += count;
            }
            None => {
                let mut members = self.member_pool.pop().unwrap_or_default();
                members.extend_from_slice(&ids);
                ch.push(members, spec.bytes, spec.weight, spec.cap, spec.meter);
            }
        }
        self.reallocate(channel);
        ids
    }

    /// Submits a single flow. See [`Pfs::submit_many`].
    ///
    /// Unlike the batch variant this path is allocation-free in steady state:
    /// the id goes straight into a (possibly recycled) group-member buffer.
    pub fn submit(&mut self, t: SimTime, channel: Channel, spec: FlowSpec) -> FlowId {
        assert!(spec.bytes >= 0.0, "bytes must be non-negative");
        assert!(spec.weight > 0.0, "weight must be positive");
        let done = self.advance_to(t);
        assert!(
            done.is_empty(),
            "advance_to before submit returned unharvested completions; \
             call advance_to(t) and handle them first"
        );
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let ch = &mut self.channels[channel.index()];
        match ch.find(&spec) {
            Some(i) => {
                ch.members[i].push(id);
                ch.n_flows += 1;
            }
            None => {
                let mut members = self.member_pool.pop().unwrap_or_default();
                members.push(id);
                ch.push(members, spec.bytes, spec.weight, spec.cap, spec.meter);
            }
        }
        self.reallocate(channel);
        id
    }

    /// Changes the rate cap of one in-flight flow at time `t`.
    ///
    /// The flow is split out of its group if needed. No-op for unknown or
    /// already-completed flows. Finds the flow by scanning both channels'
    /// groups: no flow index is kept, so submission and completion never
    /// hash.
    pub fn set_cap(&mut self, t: SimTime, flow: FlowId, cap: Option<f64>) {
        let done = self.advance_to(t);
        assert!(done.is_empty(), "handle completions before set_cap");
        let Some((channel, gi)) = [Channel::Write, Channel::Read].into_iter().find_map(|c| {
            let members = &self.channels[c.index()].members;
            Some((c, members.iter().position(|m| m.contains(&flow))?))
        }) else {
            return;
        };
        let ch = &mut self.channels[channel.index()];
        if ch.cap[gi] == cap {
            return;
        }
        if ch.members[gi].len() == 1 {
            ch.n_capped =
                ch.n_capped + usize::from(cap.is_some()) - usize::from(ch.cap[gi].is_some());
            ch.cap[gi] = cap;
        } else {
            // Split this member into its own group.
            let mut members = self.member_pool.pop().unwrap_or_default();
            members.push(flow);
            ch.members[gi].retain(|&m| m != flow);
            ch.n_flows -= 1;
            let (rem, weight, meter) = (ch.rem[gi], ch.weight[gi], ch.meter[gi]);
            ch.push(members, rem, weight, cap, meter);
        }
        self.reallocate(channel);
    }

    /// Changes a channel's capacity at time `t` (capacity noise, Fig. 14).
    pub fn set_capacity(&mut self, t: SimTime, channel: Channel, capacity: f64) {
        assert!(capacity >= 0.0);
        let done = self.advance_to(t);
        assert!(done.is_empty(), "handle completions before set_capacity");
        self.channels[channel.index()].capacity = capacity;
        self.reallocate(channel);
    }

    /// Applies a fault-plan capacity multiplier to a channel at time `t`
    /// (0 = outage: every flow water-fills to rate 0 and completions freeze
    /// until the factor is restored). Composes with [`Pfs::set_capacity`]:
    /// the effective capacity is `capacity × fault_factor`.
    pub fn set_fault_factor(&mut self, t: SimTime, channel: Channel, factor: f64) {
        assert!(factor >= 0.0, "fault factor must be non-negative");
        let done = self.advance_to(t);
        assert!(
            done.is_empty(),
            "handle completions before set_fault_factor"
        );
        self.channels[channel.index()].fault_factor = factor;
        self.reallocate(channel);
    }

    /// The current fault-plan capacity multiplier of a channel.
    pub fn fault_factor(&self, channel: Channel) -> f64 {
        self.channels[channel.index()].fault_factor
    }

    /// Earliest future completion across both channels, if any flow is live.
    /// Returns `None` when idle or when all live flows are stalled (rate 0).
    ///
    /// O(1): both channels answer from their cached earliest completion.
    pub fn next_completion(&self) -> Option<SimTime> {
        match (self.channels[0].next_done, self.channels[1].next_done) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Advances the fluid state to time `t`, returning every flow that
    /// completed at or before `t` with its completion time, in time order.
    ///
    /// Allocates only when completions exist; event-loop callers should
    /// prefer [`Pfs::advance_into`] with a resident buffer.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<(SimTime, FlowId)> {
        let mut completed = Vec::new();
        self.advance_into(t, &mut completed);
        completed
    }

    /// Allocation-free form of [`Pfs::advance_to`]: appends completions to
    /// `completed` (not cleared first) and recycles retired group buffers.
    pub fn advance_into(&mut self, t: SimTime, completed: &mut Vec<(SimTime, FlowId)>) {
        assert!(
            t >= self.now,
            "PFS cannot move backwards: {t:?} < {:?}",
            self.now
        );
        loop {
            let step_to = match self.next_completion() {
                Some(ct) if ct <= t => ct,
                _ => {
                    self.progress_all(t);
                    self.now = t;
                    return;
                }
            };
            self.progress_all(step_to);
            self.now = step_to;
            // Harvest groups that reached zero. The threshold must absorb
            // float residue from `rem -= rate·dt`, AND the case where a
            // group's remaining maps to a time increment below the ulp of
            // `now` (otherwise the loop would spin at dt = 0 forever): any
            // remaining the clock cannot resolve counts as finished.
            let time_ulp = step_to.as_secs().abs() * 2.3e-16 + 1e-18;
            for channel in [Channel::Write, Channel::Read] {
                let idx = channel.index();
                // Only sweep a channel with a completion due now; the other
                // channel's groups cannot have reached zero (its earliest
                // completion lies strictly in the future).
                match self.channels[idx].next_done {
                    Some(due) if due <= step_to => {}
                    _ => continue,
                }
                let ch = &mut self.channels[idx];
                let mut finished_any = false;
                let done = |x: f64, r: f64| x <= EPSILON_BYTES.max(r * time_ulp * 4.0);
                let mut i = first_hit(&ch.rem, &ch.rate, 0, done);
                while i < ch.rem.len() {
                    if done(ch.rem[i], ch.rate[i]) {
                        let mut members = ch.swap_remove(i);
                        completed.extend(members.iter().map(|&m| (step_to, m)));
                        members.clear();
                        self.member_pool.push(members);
                        finished_any = true;
                    } else {
                        i = first_hit(&ch.rem, &ch.rate, i + 1, done);
                    }
                }
                if finished_any {
                    self.reallocate(channel);
                } else {
                    // Defensive: the due group did not pass the byte-epsilon
                    // check (cannot happen — progress_all snaps a
                    // fully-covered group to exactly zero). Move the cache
                    // strictly past `step_to` so the loop is guaranteed to
                    // make progress.
                    debug_assert!(finished_any, "due completion harvested nothing");
                    ch.next_done = (0..ch.rem.len())
                        .filter(|&i| ch.rate[i] > 0.0)
                        .map(|i| step_to.after(ch.rem[i] / ch.rate[i]))
                        .filter(|&at| at > step_to)
                        .min();
                }
            }
        }
    }

    /// Moves every group's remaining bytes forward to absolute time `t` at
    /// current rates (no completions may occur strictly inside the interval).
    fn progress_all(&mut self, t: SimTime) {
        let dt = t - self.now;
        if dt <= 0.0 {
            return;
        }
        for ch in &mut self.channels {
            for (x, &r) in ch.rem.iter_mut().zip(&ch.rate) {
                let moved = r * dt;
                // Snap to exactly zero when the step covers the group's
                // remaining bytes, so FP residue cannot survive the step.
                let left = if moved >= *x { 0.0 } else { *x - moved };
                *x = if r > 0.0 { left } else { *x };
            }
        }
    }

    /// Test support: asserts that the incremental allocator state, the
    /// group counts and the cached earliest completions agree with a
    /// from-scratch recomputation.
    ///
    /// Rates must match *bitwise* (both solve paths reproduce the
    /// water-fill bits); cached completion times may differ from a rescan
    /// by FP ulps because they were computed against an earlier `now`.
    #[doc(hidden)]
    pub fn validate_invariants(&self) {
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
            water_fill_into(
                ch.capacity * ch.fault_factor,
                &demands,
                &mut WaterFillScratch::default(),
                &mut fresh,
            );
            for (gi, (r, f)) in ch.rate.iter().zip(&fresh).enumerate() {
                assert!(
                    r.to_bits() == f.to_bits(),
                    "channel {ci} group {gi}: incremental rate {r} != from-scratch {f}"
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

    /// Recomputes rates on `channel` after a state change, recomputes the
    /// channel's earliest completion time, and records series.
    ///
    /// Allocation-free on the hot path: the general path's demands and sort
    /// scratch are resident in the channel state. Only the dirty channel is
    /// touched — the other channel's allocation and earliest completion
    /// remain valid because channels never share capacity.
    fn reallocate(&mut self, channel: Channel) {
        let now = self.now;
        let ch = &mut self.channels[channel.index()];
        self.solves += 1;
        self.peak_groups = self.peak_groups.max(ch.members.len() as u64);
        let capacity = ch.capacity * ch.fault_factor;
        if ch.n_capped == 0 && ch.n_weighted == 0 {
            // Uniform path (module docs): one level θ for every group.
            let theta = capacity / ch.n_flows as f64;
            ch.rate.fill(theta);
            ch.next_done =
                (theta > 0.0 && !ch.rem.is_empty()).then(|| now.after(min_of(&ch.rem) / theta));
        } else {
            ch.demands.clear();
            ch.demands.extend((0..ch.members.len()).map(|i| Demand {
                count: ch.members[i].len(),
                weight: ch.weight[i],
                cap: ch.cap[i],
            }));
            water_fill_into(capacity, &ch.demands, &mut ch.fill, &mut ch.rate);
            // Stalled groups (rate 0) never complete, matching
            // `next_completion`'s contract.
            ch.next_done = ch.min_completion(now);
        }
        if self.record {
            self.record_series(channel);
        }
    }

    fn record_series(&mut self, channel: Channel) {
        let idx = channel.index();
        let ch = &self.channels[idx];
        let total: f64 = ch
            .rate
            .iter()
            .zip(&ch.members)
            .map(|(r, m)| r * m.len() as f64)
            .sum();
        let now = self.now;
        self.channels[idx].total_series.push(now, total);
        if self.meter_series.is_empty() {
            return;
        }
        // Meter rates are summed across BOTH channels (a meter may track read
        // and write flows of the same job). Every allocated meter is updated
        // so rates fall back to 0 once its flows complete.
        self.meter_rates.clear();
        self.meter_rates.resize(self.meter_series.len(), 0.0);
        for ch in &self.channels {
            for ((m, r), members) in ch.meter.iter().zip(&ch.rate).zip(&ch.members) {
                if let Some(m) = m {
                    self.meter_rates[m.0] += r * members.len() as f64;
                }
            }
        }
        for (s, &r) in self.meter_series.iter_mut().zip(&self.meter_rates) {
            // StepSeries run-length-codes, so repeated zeros cost nothing.
            s.push(now, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn pfs(cap: f64) -> Pfs {
        Pfs::new(PfsConfig {
            write_capacity: cap,
            read_capacity: cap,
        })
    }

    #[test]
    fn single_flow_completes_at_bytes_over_capacity() {
        let mut p = pfs(100.0);
        let id = p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        assert_eq!(p.next_completion(), Some(t(10.0)));
        let done = p.advance_to(t(20.0));
        assert_eq!(done, vec![(t(10.0), id)]);
    }

    #[test]
    fn two_flows_share_equally() {
        let mut p = pfs(100.0);
        let a = p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        let b = p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        // Each runs at 50 B/s -> both complete at 20 s.
        let done = p.advance_to(t(30.0));
        let times: Vec<f64> = done.iter().map(|d| d.0.as_secs()).collect();
        assert_eq!(done.len(), 2);
        assert!((times[0] - 20.0).abs() < 1e-9 && (times[1] - 20.0).abs() < 1e-9);
        let ids: Vec<FlowId> = done.iter().map(|d| d.1).collect();
        assert!(ids.contains(&a) && ids.contains(&b));
    }

    #[test]
    fn late_arrival_slows_first_flow() {
        let mut p = pfs(100.0);
        let a = p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        // At t=5, a has 500 left. New flow of 250 arrives; both at 50 B/s.
        let b = p.submit(t(5.0), Channel::Write, FlowSpec::simple(250.0));
        // b finishes at 5 + 250/50 = 10; then a runs at 100 with 250 left
        // (a did 500 + 5*50 = 750 by t=10) -> finishes at 12.5.
        let done = p.advance_to(t(20.0));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].1, b);
        assert!((done[0].0.as_secs() - 10.0).abs() < 1e-9);
        assert_eq!(done[1].1, a);
        assert!((done[1].0.as_secs() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn channels_are_independent() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        p.submit(t(0.0), Channel::Read, FlowSpec::simple(1000.0));
        // No interference: both complete at t=10.
        let done = p.advance_to(t(15.0));
        assert_eq!(done.len(), 2);
        for (ct, _) in done {
            assert!((ct.as_secs() - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capped_flow_obeys_cap() {
        let mut p = pfs(100.0);
        let spec = FlowSpec {
            bytes: 100.0,
            weight: 1.0,
            cap: Some(10.0),
            meter: None,
        };
        p.submit(t(0.0), Channel::Write, spec);
        let done = p.advance_to(t(20.0));
        assert!((done[0].0.as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cap_change_mid_flight() {
        let mut p = pfs(100.0);
        let id = p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        // After 5 s at 100 B/s: 500 left. Cap to 25 B/s -> 20 more seconds.
        p.set_cap(t(5.0), id, Some(25.0));
        let done = p.advance_to(t(100.0));
        assert!((done[0].0.as_secs() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn group_merge_keeps_individual_ids() {
        let mut p = pfs(100.0);
        let ids = p.submit_many(t(0.0), Channel::Write, FlowSpec::simple(50.0), 4);
        assert_eq!(ids.len(), 4);
        assert_eq!(p.active_flows(Channel::Write), 4);
        // One group internally.
        assert_eq!(p.channels[0].members.len(), 1);
        let done = p.advance_to(t(10.0));
        assert_eq!(done.len(), 4);
        // 4 flows à 50 B at 25 B/s each -> t = 2.
        assert!((done[0].0.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn same_spec_same_time_submits_merge() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(50.0));
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(50.0));
        assert_eq!(p.channels[0].members.len(), 1);
    }

    #[test]
    fn split_on_cap_change_in_group() {
        let mut p = pfs(100.0);
        let ids = p.submit_many(t(0.0), Channel::Write, FlowSpec::simple(100.0), 2);
        p.set_cap(t(0.0), ids[0], Some(10.0));
        // ids[0] at 10 B/s (done at 10 s); ids[1] at 90 B/s (done at ~1.11 s).
        let done = p.advance_to(t(20.0));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].1, ids[1]);
        assert!((done[0].0.as_secs() - 100.0 / 90.0).abs() < 1e-9);
        assert_eq!(done[1].1, ids[0]);
        assert!((done[1].0.as_secs() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn capacity_change_respected() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        p.set_capacity(t(5.0), Channel::Write, 50.0);
        // 500 left at 50 B/s -> completes at 15 s.
        let done = p.advance_to(t(30.0));
        assert!((done[0].0.as_secs() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn fault_factor_degrades_effective_capacity() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        // Half capacity from t = 5: 500 left at 50 B/s -> completes at 15 s.
        p.set_fault_factor(t(5.0), Channel::Write, 0.5);
        assert_eq!(p.fault_factor(Channel::Write), 0.5);
        let done = p.advance_to(t(30.0));
        assert!((done[0].0.as_secs() - 15.0).abs() < 1e-9);
        p.validate_invariants();
    }

    #[test]
    fn fault_outage_freezes_then_resumes() {
        let mut p = pfs(100.0);
        let id = p.submit(t(0.0), Channel::Write, FlowSpec::simple(100.0));
        // Dead channel: the flow water-fills to rate 0 and completions freeze.
        p.set_fault_factor(t(0.5), Channel::Write, 0.0);
        assert_eq!(p.next_completion(), None);
        assert!(p.advance_to(t(10.0)).is_empty());
        // Recovery: 50 B remain at full speed -> completes at 10.5 s.
        p.set_fault_factor(t(10.0), Channel::Write, 1.0);
        let done = p.advance_to(t(20.0));
        assert_eq!(done, vec![(t(10.5), id)]);
    }

    #[test]
    fn fault_factor_composes_with_capacity_noise() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        p.set_fault_factor(t(0.0), Channel::Write, 0.5);
        // Capacity noise halves the nominal too: effective 25 B/s.
        p.set_capacity(t(0.0), Channel::Write, 50.0);
        let done = p.advance_to(t(100.0));
        assert!((done[0].0.as_secs() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn neutral_fault_factor_changes_nothing() {
        let mut a = pfs(100.0);
        let mut b = pfs(100.0);
        a.submit(t(0.0), Channel::Write, FlowSpec::simple(777.0));
        b.submit(t(0.0), Channel::Write, FlowSpec::simple(777.0));
        b.set_fault_factor(t(0.0), Channel::Write, 1.0);
        assert_eq!(a.next_completion(), b.next_completion());
        let da = a.advance_to(t(50.0));
        let db = b.advance_to(t(50.0));
        assert_eq!(da[0].0, db[0].0);
    }

    #[test]
    fn stalled_flow_resumes_on_capacity() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(100.0));
        p.set_capacity(t(0.0), Channel::Write, 0.0);
        assert_eq!(p.next_completion(), None);
        p.set_capacity(t(10.0), Channel::Write, 100.0);
        let done = p.advance_to(t(20.0));
        assert!((done[0].0.as_secs() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_jobs_share_by_weight() {
        let mut p = pfs(120.0);
        let a = p.submit(
            t(0.0),
            Channel::Write,
            FlowSpec {
                bytes: 300.0,
                weight: 2.0,
                cap: None,
                meter: None,
            },
        );
        let b = p.submit(
            t(0.0),
            Channel::Write,
            FlowSpec {
                bytes: 300.0,
                weight: 1.0,
                cap: None,
                meter: None,
            },
        );
        // a at 80, b at 40. a done at 3.75; then b at 120 with 150 left ->
        // 3.75 + 1.25 = 5.0.
        let done = p.advance_to(t(10.0));
        assert_eq!(done[0].1, a);
        assert!((done[0].0.as_secs() - 3.75).abs() < 1e-9);
        assert_eq!(done[1].1, b);
        assert!((done[1].0.as_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn total_series_records_rates() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        p.submit(t(5.0), Channel::Write, FlowSpec::simple(250.0));
        p.advance_to(t(20.0));
        let s = p.total_series(Channel::Write);
        assert_eq!(s.value_at(t(1.0)), 100.0);
        assert_eq!(s.value_at(t(6.0)), 100.0); // still work-conserving
        assert_eq!(s.value_at(t(15.0)), 0.0);
        // Total bytes moved = integral = 1250.
        assert!((s.integral(t(0.0), t(20.0)) - 1250.0).abs() < 1e-6);
    }

    #[test]
    fn meter_tracks_only_its_flows() {
        let mut p = pfs(100.0);
        let m = p.meter();
        p.submit(
            t(0.0),
            Channel::Write,
            FlowSpec {
                bytes: 500.0,
                weight: 1.0,
                cap: None,
                meter: Some(m),
            },
        );
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(500.0));
        p.advance_to(t(20.0));
        let s = p.meter_series(m);
        assert_eq!(s.value_at(t(1.0)), 50.0);
        assert!((s.integral(t(0.0), t(20.0)) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn next_completion_none_when_idle() {
        let p = pfs(100.0);
        assert_eq!(p.next_completion(), None);
    }

    #[test]
    fn completion_index_matches_linear_scan() {
        let mut p = pfs(100.0);
        // Mixed state: several group shapes across both channels, with
        // progress and a cap change between submissions.
        p.submit_many(t(0.0), Channel::Write, FlowSpec::simple(500.0), 3);
        p.submit(
            t(0.0),
            Channel::Read,
            FlowSpec {
                bytes: 900.0,
                weight: 2.0,
                cap: Some(30.0),
                meter: None,
            },
        );
        let capped = p.submit(
            t(1.0),
            Channel::Write,
            FlowSpec {
                bytes: 400.0,
                weight: 1.0,
                cap: Some(20.0),
                meter: None,
            },
        );
        p.advance_to(t(2.0));
        p.set_cap(t(2.5), capped, Some(40.0));
        // The pre-index implementation: linear scan over live groups.
        let scanned = {
            let mut best: Option<f64> = None;
            for ch in &p.channels {
                for (&x, &r) in ch.rem.iter().zip(&ch.rate) {
                    if r > 0.0 {
                        let ct = p.now.after(x / r).as_secs();
                        best = Some(best.map_or(ct, |b: f64| b.min(ct)));
                    }
                }
            }
            best
        };
        let indexed = p.next_completion().map(|s| s.as_secs());
        match (indexed, scanned) {
            // Stored completion times may differ from a rescan by FP noise
            // accumulated in `remaining`, never more.
            (Some(a), Some(b)) => assert!((a - b).abs() <= 1e-9 * b.max(1.0), "{a} vs {b}"),
            (a, b) => assert_eq!(a.is_some(), b.is_some()),
        }
        // Draining must terminate, complete everything, in time order.
        let done = p.advance_to(t(1000.0));
        assert_eq!(done.len(), 5);
        assert_eq!(
            p.active_flows(Channel::Write) + p.active_flows(Channel::Read),
            0
        );
        assert!(done.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(p.next_completion(), None);
    }

    #[test]
    fn zero_byte_flow_completes_instantly() {
        let mut p = pfs(100.0);
        let id = p.submit(t(1.0), Channel::Write, FlowSpec::simple(0.0));
        let done = p.advance_to(t(1.0));
        assert_eq!(done, vec![(t(1.0), id)]);
    }

    #[test]
    fn zero_byte_submit_many_flows_come_back_from_the_next_advance() {
        let mut p = pfs(100.0);
        let ids = p.submit_many(t(2.0), Channel::Read, FlowSpec::simple(0.0), 3);
        assert_eq!(p.next_completion(), Some(t(2.0)));
        let done = p.advance_to(t(2.0));
        assert_eq!(done, ids.iter().map(|&id| (t(2.0), id)).collect::<Vec<_>>());
        assert_eq!(p.active_flows(Channel::Read), 0);
    }
}
