//! # simcore — discrete-event simulation core
//!
//! The foundation every other crate in this workspace builds on:
//!
//! * [`SimTime`] — NaN-free virtual time in seconds,
//! * [`EventQueue`] — deterministic time-ordered event queue with FIFO
//!   tie-breaking, one re-armable wake instead of cancellation, and a
//!   hold-style heap (a pop followed by a schedule costs one sift),
//! * [`stream_rng`] / [`Noise`] — reproducible per-stream randomness from
//!   one generator ([`SmallRng`], xoshiro256++),
//! * [`StepSeries`] — step-function time series for bandwidth plots,
//! * [`TagMap`] — a hash-free map keyed by request tag,
//! * [`Channel`] — the transfer direction every layer names a PFS channel by.
//!
//! The engine is intentionally minimal: world state lives in the crates that
//! own it (`pfsim`, `mpisim`, `clustersim`); `simcore` only guarantees that
//! events fire in a total, reproducible order.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

/// Typed errors, stall diagnostics and the internal-invariant helper.
pub mod error;
/// Seeded fault plans replayed by the runtime crates (fault injection).
pub mod fault;
mod queue;
mod rng;
mod series;
mod tags;
mod time;

pub use error::{Invariant, SimError, SimResult, StallSnapshot};
pub use fault::{
    CancelSpec, ChannelFaultWindow, FaultChannel, FaultPlan, IoErrorKind, IoErrorModel,
    RetryPolicy, StragglerSpec,
};
pub use queue::EventQueue;
pub use rng::{rank_phase_stream, stream_rng, Noise, SmallRng};
pub use series::StepSeries;
pub use tags::TagMap;
pub use time::SimTime;

/// Transfer direction. The PFS's two channels have independent capacities,
/// matching the paper's Lichtenberg numbers (106 GB/s write, 120 GB/s
/// read); the discriminant is the channel's index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Channel {
    /// Writes to the PFS.
    Write = 0,
    /// Reads from the PFS.
    Read = 1,
}
