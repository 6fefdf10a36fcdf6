//! Event-driven fluid parallel-file-system engine.
//!
//! Flows progress at the rates produced by [`crate::alloc::water_fill_into`];
//! rates are piecewise-constant between *events* (submissions, completions,
//! cap or capacity changes). The engine is passive: a host simulation calls
//! [`Pfs::advance_to`] to move virtual time forward and collects completed
//! flows, and uses [`Pfs::next_completion`] to know when to call back.
//!
//! Identical flows submitted at the same instant merge into *flow groups*
//! that progress and complete together, which keeps 9216-rank synchronized
//! bursts O(1) instead of O(ranks) per event.

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

/// A group of identical flows progressing in lockstep.
#[derive(Clone, Debug)]
struct Group {
    members: Vec<FlowId>,
    /// Remaining bytes of each member (identical across members).
    remaining: f64,
    weight: f64,
    cap: Option<f64>,
    meter: Option<MeterId>,
    /// Per-member rate from the last allocation.
    rate: f64,
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

struct ChannelState {
    capacity: f64,
    /// Fault-plan capacity multiplier (1 = healthy, 0 = outage). Kept
    /// separate from `capacity` so capacity noise and injected faults
    /// compose instead of overwriting each other.
    fault_factor: f64,
    groups: Vec<Group>,
    total_series: StepSeries,
    /// Resident demand buffer, rebuilt in place by each reallocation.
    demands: Vec<Demand>,
    /// Resident rate output buffer for the water-fill solve.
    rates: Vec<f64>,
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
            groups: Vec::new(),
            total_series: StepSeries::new(),
            demands: Vec::new(),
            rates: Vec::new(),
            fill: WaterFillScratch::default(),
            next_done: None,
        }
    }

    /// Earliest completion of a group with positive rate, computed from
    /// `now`; only groups due strictly after `after` count, if given.
    fn min_completion(&self, now: SimTime, after: Option<SimTime>) -> Option<SimTime> {
        self.groups
            .iter()
            .filter(|g| g.rate > 0.0)
            .map(|g| now.after(g.remaining / g.rate))
            .filter(|&at| after.is_none_or(|a| at > a))
            .min()
    }
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

    /// Number of in-flight flows on a channel.
    pub fn active_flows(&self, channel: Channel) -> usize {
        self.channels[channel.index()]
            .groups
            .iter()
            .map(|g| g.members.len())
            .sum()
    }

    /// Submits `count` identical flows at time `t`; returns their ids.
    ///
    /// `t` must be ≥ all previously observed times. Zero-byte flows are
    /// returned as completed immediately via the `completed` out-list of the
    /// next [`Pfs::advance_to`]; to keep the API simple they are instead
    /// reported by this call's return value `(ids, completed_now)`.
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
        let found = ch.groups.iter_mut().find(|g| {
            g.remaining == spec.bytes
                && g.cap == spec.cap
                && g.weight == spec.weight
                && g.meter == spec.meter
        });
        match found {
            Some(g) => g.members.extend_from_slice(&ids),
            None => {
                let mut members = self.member_pool.pop().unwrap_or_default();
                members.extend_from_slice(&ids);
                ch.groups.push(Group {
                    members,
                    remaining: spec.bytes,
                    weight: spec.weight,
                    cap: spec.cap,
                    meter: spec.meter,
                    rate: 0.0,
                });
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
        let found = ch.groups.iter_mut().find(|g| {
            g.remaining == spec.bytes
                && g.cap == spec.cap
                && g.weight == spec.weight
                && g.meter == spec.meter
        });
        match found {
            Some(g) => g.members.push(id),
            None => {
                let mut members = self.member_pool.pop().unwrap_or_default();
                members.push(id);
                ch.groups.push(Group {
                    members,
                    remaining: spec.bytes,
                    weight: spec.weight,
                    cap: spec.cap,
                    meter: spec.meter,
                    rate: 0.0,
                });
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
            let groups = &self.channels[c.index()].groups;
            Some((c, groups.iter().position(|g| g.members.contains(&flow))?))
        }) else {
            return;
        };
        let ch = &mut self.channels[channel.index()];
        if ch.groups[gi].cap == cap {
            return;
        }
        if ch.groups[gi].members.len() == 1 {
            ch.groups[gi].cap = cap;
        } else {
            // Split this member into its own group.
            let mut members = self.member_pool.pop().unwrap_or_default();
            members.push(flow);
            let g = &mut ch.groups[gi];
            g.members.retain(|&m| m != flow);
            let split = Group {
                members,
                remaining: g.remaining,
                weight: g.weight,
                cap,
                meter: g.meter,
                rate: 0.0,
            };
            ch.groups.push(split);
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
            // float residue from `remaining -= rate·dt`, AND the case where a
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
                let mut finished_any = false;
                let mut i = 0;
                while i < self.channels[idx].groups.len() {
                    let g = &self.channels[idx].groups[i];
                    let eps = EPSILON_BYTES.max(g.rate * time_ulp * 4.0);
                    if g.remaining <= eps {
                        let mut g = self.channels[idx].groups.swap_remove(i);
                        for &m in &g.members {
                            completed.push((step_to, m));
                        }
                        g.members.clear();
                        self.member_pool.push(g.members);
                        finished_any = true;
                    } else {
                        i += 1;
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
                    let ch = &mut self.channels[idx];
                    ch.next_done = ch.min_completion(step_to, Some(step_to));
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
            for g in &mut ch.groups {
                if g.rate > 0.0 {
                    let moved = g.rate * dt;
                    // Snap to exactly zero when the step covers the group's
                    // remaining bytes, so FP residue cannot survive the step.
                    g.remaining = if moved >= g.remaining {
                        0.0
                    } else {
                        g.remaining - moved
                    };
                }
            }
        }
    }

    /// Test support: asserts that the incremental allocator state and the
    /// cached earliest completions agree with a from-scratch recomputation.
    ///
    /// Rates must match *bitwise* (the incremental path runs the same solve
    /// into resident buffers); cached completion times may differ from a
    /// rescan by FP ulps because they were computed against an earlier `now`.
    #[doc(hidden)]
    pub fn validate_invariants(&self) {
        for (ci, ch) in self.channels.iter().enumerate() {
            let demands: Vec<Demand> = ch
                .groups
                .iter()
                .map(|g| Demand {
                    count: g.members.len(),
                    weight: g.weight,
                    cap: g.cap,
                })
                .collect();
            let mut fresh = Vec::new();
            water_fill_into(
                ch.capacity * ch.fault_factor,
                &demands,
                &mut WaterFillScratch::default(),
                &mut fresh,
            );
            for (gi, (g, r)) in ch.groups.iter().zip(&fresh).enumerate() {
                assert!(
                    g.rate == *r,
                    "channel {ci} group {gi}: incremental rate {} != from-scratch {}",
                    g.rate,
                    r
                );
            }
            match (ch.next_done, ch.min_completion(self.now, None)) {
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
    /// Allocation-free on the hot path: demands, rates and sort scratch are
    /// all resident in the channel state. Only the dirty channel is touched
    /// — the other channel's allocation and earliest completion remain
    /// valid because channels never share capacity.
    fn reallocate(&mut self, channel: Channel) {
        let now = self.now;
        let ch = &mut self.channels[channel.index()];
        ch.demands.clear();
        ch.demands.extend(ch.groups.iter().map(|g| Demand {
            count: g.members.len(),
            weight: g.weight,
            cap: g.cap,
        }));
        water_fill_into(
            ch.capacity * ch.fault_factor,
            &ch.demands,
            &mut ch.fill,
            &mut ch.rates,
        );
        for (g, &r) in ch.groups.iter_mut().zip(&ch.rates) {
            g.rate = r;
        }
        // A reallocation may change every rate on this channel, so the
        // earliest completion is recomputed. Stalled groups (rate 0) never
        // complete, matching `next_completion`'s contract.
        ch.next_done = ch.min_completion(now, None);
        if self.record {
            self.record_series(channel);
        }
    }

    fn record_series(&mut self, channel: Channel) {
        let idx = channel.index();
        let total: f64 = self.channels[idx]
            .groups
            .iter()
            .map(|g| g.rate * g.members.len() as f64)
            .sum();
        let now = self.now;
        self.channels[idx].total_series.push(now, total);
        // Meter rates are summed across BOTH channels (a meter may track read
        // and write flows of the same job). Every allocated meter is updated
        // so rates fall back to 0 once its flows complete.
        self.meter_rates.clear();
        self.meter_rates.resize(self.meter_series.len(), 0.0);
        for ch in &self.channels {
            for g in &ch.groups {
                if let Some(m) = g.meter {
                    self.meter_rates[m.0] += g.rate * g.members.len() as f64;
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
        assert_eq!(p.channels[0].groups.len(), 1);
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
        assert_eq!(p.channels[0].groups.len(), 1);
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
                for g in &ch.groups {
                    if g.rate > 0.0 {
                        let ct = p.now.after(g.remaining / g.rate).as_secs();
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
}
