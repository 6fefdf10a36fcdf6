//! # pfsim — fluid-flow parallel file system model
//!
//! The shared-storage substrate for the "I/O Behind the Scenes" reproduction.
//! The real system (IBM Spectrum Scale on Lichtenberg, 106 GB/s write /
//! 120 GB/s read) is modelled as two independent channels whose capacity is
//! shared among concurrent transfers by **bounded max-min fairness**
//! (water-filling): each flow gets `min(cap, θ·weight)` bytes/s, with `θ`
//! chosen so the channel is fully used whenever demand allows.
//!
//! * [`alloc::water_fill_into`] — the allocation solver,
//! * [`Pfs`] — the event-driven engine with flow groups, per-flow caps,
//!   weights, capacity noise and bandwidth recording,
//! * [`burstbuffer::BurstBuffer`] — an analytic node-local burst-buffer
//!   tier (the paper's future-work extension for synchronous I/O).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

// Lets the property tests share `tests/common`, which names this crate.
#[cfg(test)]
extern crate self as pfsim;

pub mod alloc;
pub mod burstbuffer;
mod pfs;

pub use burstbuffer::{BurstBuffer, BurstBufferConfig};
pub use pfs::{FlowId, FlowSpec, MeterId, Pfs, PfsConfig};
pub use simcore::Channel;
