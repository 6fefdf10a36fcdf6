//! # mpisim — an MPI-like virtual-time runtime with asynchronous MPI-IO
//!
//! The execution substrate replacing MPICH/ROMIO in this reproduction of
//! *"I/O Behind the Scenes"* (CLUSTER 2024). It provides:
//!
//! * ranks executing scripted [`Program`]s in exact virtual time,
//! * synchronizing collectives (barrier, bcast) with a latency/bandwidth
//!   cost model,
//! * MPI-IO: blocking (`write`/`read`) and non-blocking (`iwrite`/`iread` +
//!   `wait`) file operations against a [`pfsim`] parallel file system,
//! * the paper's **ADIO bandwidth-limitation layer** (Sec. V): every I/O op
//!   runs on a per-request I/O thread that splits it into sub-requests and
//!   paces them against the rank's current limit (Case A sleeps / Case B
//!   deficit accounting),
//! * the PMPI-style observation boundary ([`IoHooks`]) and the limit
//!   control surface ([`Limits`]) that TMIO plugs into.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod hooks;
mod ops;
mod seqmap;
mod world;

pub use hooks::{IoHooks, Limits, NoHooks};
pub use ops::{FileId, Op, Program, ReqTag};
pub use simcore::Channel;
// Fault-plan vocabulary, re-exported so callers configuring faults don't
// need a direct simcore dependency.
pub use simcore::{FaultPlan, IoErrorKind, RetryPolicy, SimError, SimResult, StallSnapshot};
pub use world::{
    CapacityNoiseCfg, OpErrorRecord, RankAccounting, RankDriver, RunStats, RunSummary,
    ScriptedDriver, WatchdogCfg, World, WorldConfig,
};
