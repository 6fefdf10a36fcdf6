//! # hpcwl — HPC workloads for the "I/O Behind the Scenes" reproduction
//!
//! The applications the paper evaluates, rebuilt as [`mpisim`] rank
//! programs. The paper uses them only as op schedules (when bytes are
//! submitted, completed and waited on), so compute blocks are nominal
//! durations, not executed kernels:
//!
//! * [`hacc::HaccConfig`] — the modified HACC-IO benchmark (Fig. 12):
//!   looped compute/write/read/verify blocks with async overlap, sync
//!   headers, memcpy and broadcasts.
//! * [`wacomm::WacommConfig`] — a WaComM++-like Lagrangian pollutant
//!   transport model with asynchronous per-iteration writes.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod hacc;
pub mod wacomm;
