//! Pins the engine's arithmetic, not just its tolerances: fixed seeded op
//! programs drive a [`Pfs`], and every harvested `(time bits, flow id)` and
//! every [`Pfs::next_completion`] observed after an op is folded into an
//! FNV-1a digest; the programs name their flows from their own counter,
//! in submit order. A change to how rates, completion times or harvest order
//! are computed changes the digest, even when every result stays within
//! the tolerances the other tests allow.
//!
//! The programs cover the uniform path (unit weights, no caps) with
//! hundreds of distinct-size groups, mixed weights without caps, capped
//! flows (the water-fill sort path), `set_cap` splits and same-instant
//! merges with `submit_many`, capacity and fault-factor changes down to 0
//! and back, zero-byte flows, and metered groups. One scripted program
//! ([`edge_cases`]) builds the corner cases of the uniform path by hand:
//! a same-instant harvest in which `swap_remove` moves a due tail group
//! into the hole, equal-remaining groups that differ only in their meter,
//! ties that form by rounding during progress (so that two groups a new
//! flow could merge into have equal remaining bytes), and a channel that
//! goes uniform → capped → uniform.

use pfsim::{Channel, FlowId, FlowSpec, MeterId, Pfs, PfsConfig};
use simcore::SimTime;

/// FNV-1a over the little-endian bytes of each folded word.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// SplitMix64: the programs' own input generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// The programs' flow names: consecutive ids in submit order, from 0.
struct Ids(u64);

impl Ids {
    fn one(&mut self) -> FlowId {
        self.0 += 1;
        FlowId(self.0 - 1)
    }

    fn many(&mut self, count: u64) -> Vec<FlowId> {
        (0..count).map(|_| self.one()).collect()
    }
}

/// What a program draws its ops from. Probabilities are per op; the rest
/// of the ops are single submits.
#[derive(Clone, Copy)]
struct Mix {
    ops: usize,
    /// Submit sizes: continuous in `[lo, hi)` or, when `sizes` is set,
    /// drawn from that small set so same-instant submits merge.
    lo: f64,
    hi: f64,
    sizes: Option<&'static [f64]>,
    weights: &'static [f64],
    /// Probability that a submit is capped (caps drawn from `[5, 150)`).
    capped: f64,
    /// Probability that a submit is zero-byte.
    zero: f64,
    advance: f64,
    /// Advance step drawn from `[0, max_dt)`.
    max_dt: f64,
    submit_many: f64,
    set_cap: f64,
    set_capacity: f64,
    fault: f64,
    /// Meters a submit draws from (0 = unmetered, no draw).
    meters: usize,
}

const BASE: Mix = Mix {
    ops: 600,
    lo: 10.0,
    hi: 2000.0,
    sizes: None,
    weights: &[1.0],
    capped: 0.0,
    zero: 0.0,
    advance: 0.2,
    max_dt: 0.5,
    submit_many: 0.0,
    set_cap: 0.0,
    set_capacity: 0.0,
    fault: 0.0,
    meters: 0,
};

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn channel(rng: &mut Rng) -> Channel {
    if rng.chance(0.5) {
        Channel::Read
    } else {
        Channel::Write
    }
}

/// Runs one seeded program of `mix` on a fresh 100 B/s-per-channel PFS and
/// returns its digest.
fn run(seed: u64, mix: Mix) -> u64 {
    let mut rng = Rng(seed);
    let mut p = Pfs::new(PfsConfig {
        write_capacity: 100.0,
        read_capacity: 100.0,
    });
    let mut d = Digest::new();
    let mut now = 0.0f64;
    let mut live: Vec<FlowId> = Vec::new();
    let mut ids = Ids(0);
    let meters: Vec<MeterId> = (0..mix.meters).map(|_| p.meter()).collect();
    let harvest = |p: &mut Pfs, at: f64, live: &mut Vec<FlowId>, d: &mut Digest| {
        for (ct, id) in p.advance_to(t(at)) {
            d.fold(ct.as_secs().to_bits());
            d.fold(id.0);
            live.retain(|&l| l != id);
        }
    };
    let spec = |rng: &mut Rng| {
        let bytes = if rng.chance(mix.zero) {
            0.0
        } else {
            match mix.sizes {
                Some(s) => rng.pick(s),
                None => rng.uniform(mix.lo, mix.hi),
            }
        };
        FlowSpec {
            bytes,
            weight: rng.pick(mix.weights),
            cap: rng.chance(mix.capped).then(|| rng.uniform(5.0, 150.0)),
            meter: (!meters.is_empty()).then(|| rng.pick(&meters)),
        }
    };

    for _ in 0..mix.ops {
        let mut x = rng.unit();
        let odds = [
            mix.advance,
            mix.submit_many,
            mix.set_cap,
            mix.set_capacity,
            mix.fault,
        ];
        let kind = odds.iter().position(|&w| {
            x -= w;
            x < 0.0
        });
        if kind == Some(0) {
            now += rng.uniform(0.0, mix.max_dt);
        }
        harvest(&mut p, now, &mut live, &mut d);
        let ch = channel(&mut rng);
        match kind {
            Some(0) => {}
            Some(1) => {
                let s = spec(&mut rng);
                let batch = ids.many(1 + rng.next() % 8);
                p.submit_many(t(now), ch, s, &batch);
                live.extend(batch);
            }
            Some(2) => {
                if !live.is_empty() {
                    let id = rng.pick(&live);
                    let cap = rng.chance(0.7).then(|| rng.uniform(5.0, 150.0));
                    p.set_cap(t(now), id, cap);
                }
            }
            Some(3) => {
                let capacity = rng.pick(&[0.0, 20.0, 55.5, 100.0, 300.0]);
                p.set_capacity(t(now), ch, capacity);
            }
            Some(4) => {
                let factor = rng.pick(&[0.0, 0.25, 0.5, 1.0]);
                p.set_fault_factor(t(now), ch, factor);
            }
            _ => {
                let s = spec(&mut rng);
                let id = ids.one();
                p.submit(t(now), ch, s, id);
                live.push(id);
            }
        }
        d.fold(
            p.next_completion()
                .map_or(u64::MAX, |c| c.as_secs().to_bits()),
        );
    }

    // Drain on healthy channels.
    harvest(&mut p, now, &mut live, &mut d);
    for ch in [Channel::Write, Channel::Read] {
        p.set_capacity(t(now), ch, 100.0);
        p.set_fault_factor(t(now), ch, 1.0);
    }
    d.fold(
        p.next_completion()
            .map_or(u64::MAX, |c| c.as_secs().to_bits()),
    );
    harvest(&mut p, now + 1e9, &mut live, &mut d);
    assert!(live.is_empty(), "every flow completes");
    assert_eq!(p.next_completion(), None);
    d.0
}

/// Digests of three seeds of `mix`, for one pinned row.
fn digests(mix: Mix) -> [u64; 3] {
    [run(1, mix), run(2, mix), run(3, mix)]
}

#[test]
fn uniform_hundreds_of_distinct_groups() {
    // Submits outpace completions: hundreds of distinct-size unit-weight
    // groups are live at once.
    let mix = Mix {
        ops: 1500,
        lo: 1.0,
        advance: 0.3,
        max_dt: 2.0,
        ..BASE
    };
    assert_eq!(
        digests(mix),
        [0x268429e66923a223, 0x7f66eaeffa3d6ae0, 0xab7e53e01850518b]
    );
}

#[test]
fn mixed_weights_without_caps() {
    let mix = Mix {
        weights: &[1.0, 2.0, 3.0, 16.0],
        ..BASE
    };
    assert_eq!(
        digests(mix),
        [0xbf2369439252e14b, 0xb9bfc83025a15356, 0xa9f12c1a92363b82]
    );
}

#[test]
fn capped_flows_take_the_sort_path() {
    let mix = Mix {
        weights: &[1.0, 2.0],
        capped: 0.5,
        ..BASE
    };
    assert_eq!(
        digests(mix),
        [0xd61f11301cdc14e4, 0xeabcd0dac19aea58, 0x871f59afe9de4b58]
    );
}

#[test]
fn set_cap_splits_and_submit_many_merges() {
    let mix = Mix {
        sizes: Some(&[64.0, 256.0, 1000.0, 1500.5]),
        capped: 0.2,
        submit_many: 0.25,
        set_cap: 0.15,
        ..BASE
    };
    assert_eq!(
        digests(mix),
        [0x0a49ed19cefe8c86, 0x91fcce425bbe1f5d, 0x6285397298bcd637]
    );
}

#[test]
fn capacity_and_fault_changes_down_to_zero_and_back() {
    let mix = Mix {
        weights: &[1.0, 4.0],
        capped: 0.1,
        set_capacity: 0.1,
        fault: 0.1,
        ..BASE
    };
    assert_eq!(
        digests(mix),
        [0x69fb5c52cea4cfba, 0x0a2d97c09842669f, 0x2af3730da8fa5090]
    );
}

#[test]
fn zero_byte_flows() {
    let mix = Mix {
        zero: 0.3,
        submit_many: 0.1,
        ..BASE
    };
    assert_eq!(
        digests(mix),
        [0x096caefb66fbc601, 0xb15d01cc1226121e, 0xb6f0b4e4f328d98f]
    );
}

#[test]
fn metered_ties_and_cap_round_trips() {
    // Same-size submits on a small set of meters: equal-remaining groups
    // that differ only in their meter, same-instant harvests of several
    // groups, and `set_cap` moving a channel off the uniform path and back.
    let mix = Mix {
        sizes: Some(&[64.0, 256.0, 1000.0]),
        submit_many: 0.2,
        set_cap: 0.1,
        meters: 3,
        ..BASE
    };
    assert_eq!(
        digests(mix),
        [0xfb7a36d7b8c2a8e1, 0x5f193fc23e8310fd, 0xa72268e6088257d3]
    );
}

/// The scripted corner cases of the module docs, folded like [`run`].
fn edge_cases() -> u64 {
    let mut p = Pfs::new(PfsConfig {
        write_capacity: 100.0,
        read_capacity: 64.0,
    });
    let m: Vec<MeterId> = (0..3).map(|_| p.meter()).collect();
    let mut ids = Ids(0);
    let mut d = Digest::new();
    let spec = |bytes: f64, meter: Option<MeterId>| FlowSpec {
        bytes,
        weight: 1.0,
        cap: None,
        meter,
    };
    let fold_next = |p: &Pfs, d: &mut Digest| {
        d.fold(
            p.next_completion()
                .map_or(u64::MAX, |c| c.as_secs().to_bits()),
        );
    };
    let harvest = |p: &mut Pfs, at: f64, d: &mut Digest| {
        for (ct, id) in p.advance_to(t(at)) {
            d.fold(ct.as_secs().to_bits());
            d.fold(id.0);
        }
    };
    let w = Channel::Write;
    let r = Channel::Read;

    // Columns A(100, m0) B(900) C(700) D(100, m1) E(100, m2): three equal
    // groups apart only by meter. The merges below must pick D and E, not
    // A, and the harvest at t = 8 scans A, then E (swapped into A's hole),
    // then D (swapped into the same hole) before C lands there.
    p.submit(t(0.0), w, spec(100.0, Some(m[0])), ids.one());
    p.submit(t(0.0), w, spec(900.0, None), ids.one());
    p.submit(t(0.0), w, spec(700.0, None), ids.one());
    p.submit(t(0.0), w, spec(100.0, Some(m[1])), ids.one());
    p.submit(t(0.0), w, spec(100.0, Some(m[2])), ids.one());
    p.submit(t(0.0), w, spec(100.0, Some(m[1])), ids.one());
    p.submit_many(t(0.0), w, spec(100.0, Some(m[2])), &ids.many(2));
    fold_next(&p, &mut d);
    harvest(&mut p, 7.0, &mut d);
    p.submit(t(7.0), w, spec(12.5, Some(m[0])), ids.one());
    fold_next(&p, &mut d);
    harvest(&mut p, 10.0, &mut d);
    fold_next(&p, &mut d);

    // Ties formed by rounding: at 2^54 the grid step is 4, and moving a
    // group by exactly 2 bytes rounds 2^54 + 10 down and 2^54 + 6 up, both
    // to even: 2^54 + 8. So the larger groups (columns 0 and 2) now tie
    // with the smaller ones (columns 1 and 3) against their index order,
    // and a merge on meter m2 must pick column 2, not column 3.
    let big = 2f64.powi(54);
    p.submit(t(10.0), r, spec(big + 12.0, Some(m[0])), ids.one());
    p.submit(t(10.0), r, spec(big + 8.0, Some(m[1])), ids.one());
    p.submit(t(10.0), r, spec(big + 12.0, Some(m[2])), ids.one());
    p.submit(t(10.0), r, spec(big + 8.0, Some(m[2])), ids.one());
    fold_next(&p, &mut d);
    // 64 B/s over four flows for 1/8 s: exactly 2 bytes each.
    harvest(&mut p, 10.125, &mut d);
    p.submit(t(10.125), r, spec(big + 8.0, Some(m[2])), ids.one());
    p.submit(t(10.125), r, spec(big + 8.0, Some(m[1])), ids.one());
    p.submit(t(10.125), r, spec(big + 8.0, Some(m[0])), ids.one());
    p.submit(t(10.125), r, spec(big + 8.0, None), ids.one());
    fold_next(&p, &mut d);
    // Finish the five tied groups at one instant.
    p.set_capacity(t(10.125), r, big);
    fold_next(&p, &mut d);
    harvest(&mut p, 100.0, &mut d);
    p.set_capacity(t(100.0), r, 64.0);

    // Uniform -> capped -> uniform on the read channel, with submits and
    // a same-instant harvest while capped.
    let a = ids.one();
    p.submit(t(100.0), r, spec(640.0, None), a);
    p.submit(t(100.0), r, spec(320.0, Some(m[2])), ids.one());
    p.submit(t(100.0), r, spec(960.0, None), ids.one());
    p.set_cap(t(101.0), a, Some(8.0));
    fold_next(&p, &mut d);
    p.submit(t(102.0), r, spec(200.0, None), ids.one());
    p.submit(t(102.0), r, spec(200.0, Some(m[1])), ids.one());
    fold_next(&p, &mut d);
    harvest(&mut p, 110.0, &mut d);
    p.set_cap(t(110.0), a, None);
    fold_next(&p, &mut d);
    p.submit(t(110.0), r, spec(50.0, None), ids.one());
    fold_next(&p, &mut d);
    harvest(&mut p, 1e6, &mut d);
    harvest(&mut p, 1e6, &mut d);
    assert_eq!(p.next_completion(), None);
    assert_eq!(p.active_flows(w) + p.active_flows(r), 0);
    d.0
}

#[test]
fn scripted_index_edge_cases() {
    assert_eq!(edge_cases(), 0xb7bd07834487cd25);
}
