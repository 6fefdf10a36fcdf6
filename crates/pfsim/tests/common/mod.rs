//! Test oracles of the fluid PFS shared by the property tests.
//!
//! * [`water_fill`] — the allocation solve with fresh buffers, the
//!   reference for [`pfsim::alloc::water_fill_into`] with resident ones;
//! * [`Reference`] — a brute-force timestep model that integrates flow
//!   progress with small fixed timesteps using the same allocation as the
//!   event-driven engine: completion times from it must agree with
//!   [`pfsim::Pfs`] to within one timestep.

use pfsim::alloc::{water_fill_into, Demand, WaterFillScratch};

/// Solves the bounded max-min allocation for `capacity` bytes/s with fresh
/// buffers: the per-flow rate of each demand entry.
pub fn water_fill(capacity: f64, demands: &[Demand]) -> Vec<f64> {
    let mut rates = Vec::with_capacity(demands.len());
    water_fill_into(
        capacity,
        demands,
        &mut WaterFillScratch::default(),
        &mut rates,
    );
    rates
}

/// A flow in the reference model.
#[derive(Clone, Debug)]
pub struct RefFlow {
    /// Arrival time, seconds.
    pub arrival: f64,
    /// Bytes to transfer.
    pub bytes: f64,
    /// Scheduling weight.
    pub weight: f64,
    /// Optional rate cap.
    pub cap: Option<f64>,
}

/// Timestep integrator over one channel.
pub struct Reference {
    capacity: f64,
    dt: f64,
}

impl Reference {
    /// Creates a reference model for a channel of `capacity` bytes/s using
    /// timestep `dt` seconds.
    pub fn new(capacity: f64, dt: f64) -> Self {
        assert!(dt > 0.0);
        Reference { capacity, dt }
    }

    /// Simulates the flows and returns each flow's completion time, aligned
    /// with the input order. Panics if any flow fails to finish within
    /// `horizon` seconds.
    pub fn completion_times(&self, flows: &[RefFlow], horizon: f64) -> Vec<f64> {
        let n = flows.len();
        let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes).collect();
        let mut done_at: Vec<Option<f64>> = vec![None; n];
        let mut t = 0.0;
        while t < horizon {
            // Active = arrived and not finished.
            let active: Vec<usize> = (0..n)
                .filter(|&i| flows[i].arrival <= t && done_at[i].is_none())
                .collect();
            if !active.is_empty() {
                let demands: Vec<Demand> = active
                    .iter()
                    .map(|&i| Demand {
                        count: 1,
                        weight: flows[i].weight,
                        cap: flows[i].cap,
                    })
                    .collect();
                let rates = water_fill(self.capacity, &demands);
                for (k, &i) in active.iter().enumerate() {
                    remaining[i] -= rates[k] * self.dt;
                    if remaining[i] <= 0.0 {
                        done_at[i] = Some(t + self.dt);
                    }
                }
            }
            t += self.dt;
            if done_at.iter().all(|d| d.is_some()) {
                break;
            }
        }
        done_at
            .into_iter()
            .enumerate()
            .map(|(i, d)| d.unwrap_or_else(|| panic!("flow {i} did not finish by {horizon}")))
            .collect()
    }
}
