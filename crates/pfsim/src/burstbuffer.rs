//! Burst-buffer tier (the paper's future-work extension, Sec. VIII).
//!
//! A node-local burst buffer absorbs write bursts at NVMe speed and drains
//! them to the PFS in the background. This gives *synchronous* I/O the same
//! structure asynchronous I/O has in the paper: the visible cost is the
//! absorption, and what the shared PFS needs is only the **drain
//! bandwidth** — burst bytes divided by the inter-burst period. The
//! analytic model here computes absorption completion times and the
//! required drain bandwidth; `mpisim` uses it as an optional write path.

/// Burst-buffer parameters (per node / per rank).
#[derive(Clone, Copy, Debug)]
pub struct BurstBufferConfig {
    /// Buffer capacity in bytes.
    pub size_bytes: f64,
    /// Rate at which the application can write into the buffer, bytes/s.
    pub absorb_rate: f64,
    /// Rate at which the buffer drains to the PFS, bytes/s.
    pub drain_rate: f64,
}

impl Default for BurstBufferConfig {
    /// A DataWarp-ish node-local tier: 256 GB at 5 GB/s absorb, 1 GB/s drain.
    fn default() -> Self {
        BurstBufferConfig {
            size_bytes: 256e9,
            absorb_rate: 5e9,
            drain_rate: 1e9,
        }
    }
}

/// The analytic burst-buffer state: occupancy decays at the drain rate and
/// grows with absorbed bursts. All methods take absolute times in seconds
/// and must be called with non-decreasing `t`.
#[derive(Clone, Debug)]
pub struct BurstBuffer {
    cfg: BurstBufferConfig,
    occupied: f64,
    last_t: f64,
}

impl BurstBuffer {
    /// An empty buffer.
    pub fn new(cfg: BurstBufferConfig) -> Self {
        assert!(cfg.size_bytes > 0.0 && cfg.absorb_rate > 0.0 && cfg.drain_rate > 0.0);
        BurstBuffer {
            cfg,
            occupied: 0.0,
            last_t: 0.0,
        }
    }

    fn advance(&mut self, t: f64) {
        assert!(t >= self.last_t - 1e-12, "time must not go backwards");
        let dt = (t - self.last_t).max(0.0);
        self.occupied = (self.occupied - self.cfg.drain_rate * dt).max(0.0);
        self.last_t = t;
    }

    /// Occupancy at time `t` (advances internal state).
    pub fn occupancy(&mut self, t: f64) -> f64 {
        self.advance(t);
        self.occupied
    }

    /// Absorbs a burst of `bytes` starting at time `t`; returns the time at
    /// which the *application's write call* completes.
    ///
    /// While space is available the burst lands at `absorb_rate` (the
    /// buffer keeps draining underneath); once the buffer is full the rest
    /// is written through at `drain_rate`.
    pub fn absorb(&mut self, t: f64, bytes: f64) -> f64 {
        assert!(bytes >= 0.0);
        self.advance(t);
        let a = self.cfg.absorb_rate;
        let d = self.cfg.drain_rate;
        let mut remaining = bytes;
        let mut now = t;

        // Phase 1: absorb at full speed until the buffer fills (net fill
        // rate a − d when a > d) or the burst ends.
        if a > d {
            let free = self.cfg.size_bytes - self.occupied;
            let t_fill = free / (a - d);
            let t_burst = remaining / a;
            if t_burst <= t_fill {
                self.occupied += remaining * (1.0 - d / a);
                self.occupied = self.occupied.max(0.0);
                self.last_t = now + t_burst;
                return now + t_burst;
            }
            // Buffer fills first.
            let absorbed = a * t_fill;
            remaining -= absorbed;
            self.occupied = self.cfg.size_bytes;
            now += t_fill;
        } else {
            // Absorption no faster than draining: the buffer never fills
            // beyond its current level; the whole burst goes at `a`.
            let t_burst = remaining / a;
            self.occupied = (self.occupied - (d - a) * t_burst).max(0.0);
            self.last_t = now + t_burst;
            return now + t_burst;
        }

        // Phase 2: write-through at the drain rate (buffer stays full).
        let t_through = remaining / d;
        self.last_t = now + t_through;
        now + t_through
    }
}

/// The future-work metric: the drain bandwidth a periodic synchronous
/// workload needs so its bursts stay absorbed. A burst of `burst_bytes`
/// every `period` seconds is sustainable iff the buffer can hold one burst
/// and the drain clears it before the next one:
/// `B_drain = burst_bytes / period`.
///
/// Returns `None` when a single burst exceeds the buffer (no drain rate can
/// hide it; the write-through path dominates).
pub fn required_drain_bandwidth(
    burst_bytes: f64,
    period: f64,
    cfg: &BurstBufferConfig,
) -> Option<f64> {
    assert!(period > 0.0);
    if burst_bytes > cfg.size_bytes {
        return None;
    }
    Some(burst_bytes / period)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: f64, absorb: f64, drain: f64) -> BurstBufferConfig {
        BurstBufferConfig {
            size_bytes: size,
            absorb_rate: absorb,
            drain_rate: drain,
        }
    }

    #[test]
    fn small_burst_absorbed_at_full_speed() {
        let mut bb = BurstBuffer::new(cfg(100.0, 10.0, 1.0));
        let done = bb.absorb(0.0, 50.0);
        assert!((done - 5.0).abs() < 1e-9, "50 B at 10 B/s");
        // Occupancy: 50 absorbed minus 5 s × 1 B/s drained under the burst.
        assert!((bb.occupancy(5.0) - 45.0).abs() < 1e-9);
    }

    #[test]
    fn buffer_drains_over_time() {
        let mut bb = BurstBuffer::new(cfg(100.0, 10.0, 1.0));
        bb.absorb(0.0, 50.0);
        assert!((bb.occupancy(25.0) - 25.0).abs() < 1e-9);
        assert_eq!(bb.occupancy(100.0), 0.0);
    }

    #[test]
    fn overflow_writes_through_at_drain_rate() {
        // 100 B buffer, burst of 300 B: ~11.1 s to fill (net 9 B/s),
        // then ~188.9 B at 1 B/s.
        let mut bb = BurstBuffer::new(cfg(100.0, 10.0, 1.0));
        let done = bb.absorb(0.0, 300.0);
        let t_fill = 100.0 / 9.0;
        let absorbed = 10.0 * t_fill;
        let expected = t_fill + (300.0 - absorbed) / 1.0;
        assert!((done - expected).abs() < 1e-9, "done {done} vs {expected}");
    }

    #[test]
    fn back_to_back_bursts_see_leftover_occupancy() {
        let mut bb = BurstBuffer::new(cfg(100.0, 10.0, 1.0));
        let d1 = bb.absorb(0.0, 90.0);
        // Immediately after, the buffer is nearly full: the second burst
        // fills it quickly and write-through dominates.
        let d2 = bb.absorb(d1, 90.0);
        assert!(d2 - d1 > 9.0 * 2.0, "second burst must be much slower");
    }

    #[test]
    fn widely_spaced_bursts_stay_fast() {
        let mut bb = BurstBuffer::new(cfg(100.0, 10.0, 1.0));
        let mut t = 0.0;
        for _ in 0..10 {
            let done = bb.absorb(t, 80.0);
            assert!((done - t - 8.0).abs() < 1e-9, "each burst at absorb speed");
            t = done + 100.0; // plenty of drain time
        }
    }

    #[test]
    fn slow_absorb_never_overflows() {
        let mut bb = BurstBuffer::new(cfg(10.0, 1.0, 2.0));
        let done = bb.absorb(0.0, 100.0);
        assert!((done - 100.0).abs() < 1e-9);
        assert_eq!(bb.occupancy(done), 0.0);
    }

    #[test]
    fn required_drain_matches_paper_definition() {
        let c = cfg(100e9, 5e9, 1e9);
        // 38 GB burst every 60 s -> 0.633 GB/s of drain.
        let b = required_drain_bandwidth(38e9, 60.0, &c).unwrap();
        assert!((b - 38e9 / 60.0).abs() < 1.0);
        // A burst larger than the buffer cannot be hidden at all.
        assert_eq!(required_drain_bandwidth(200e9, 60.0, &c), None);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_cannot_reverse() {
        let mut bb = BurstBuffer::new(cfg(10.0, 1.0, 1.0));
        bb.absorb(5.0, 1.0);
        bb.absorb(1.0, 1.0);
    }
}
