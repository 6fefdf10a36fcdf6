//! # hpcwl — HPC workloads for the "I/O Behind the Scenes" reproduction
//!
//! The applications the paper evaluates, rebuilt as [`mpisim`] rank
//! programs plus real data kernels:
//!
//! * [`hacc::HaccConfig`] — the modified HACC-IO benchmark (Fig. 12):
//!   looped compute/write/read/verify blocks with async overlap, sync
//!   headers, memcpy and broadcasts; [`hacc::kernel`] is the actual
//!   fill/serialize/verify data cycle.
//! * [`wacomm::WacommConfig`] — a WaComM++-like Lagrangian pollutant
//!   transport model with asynchronous per-iteration writes;
//!   [`wacomm::kernel`] advects real particles.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod hacc;
pub mod wacomm;
