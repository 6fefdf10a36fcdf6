//! # session — the canonical run pipeline
//!
//! Every consumer of the simulator (the CLI, the figure harness, the chaos
//! and ablation sweeps, examples and tests) runs through the same three
//! layers instead of hand-wiring workload → [`mpisim::Program`] →
//! [`mpisim::World`] → [`tmio::Tracer`] → [`tmio::Report`] glue:
//!
//! 1. [`Workload`] — what runs: anything that can emit per-rank programs
//!    and the files they touch, fed to the ranks through its
//!    [`Workload::driver`]. The paper's two applications are provided
//!    ([`HaccIo`], [`Wacomm`]) and stream their ops in closed form; new
//!    workloads plug in without touching the runners, and [`RawWorkload`]
//!    lifts ad-hoc op lists into the pipeline.
//! 2. [`ExpConfig`] — how it runs: the knobs the paper varies, as public
//!    fields with builders for the ones frontends set (`with_seed`,
//!    `with_pfs`, …), and the seeded [`simcore::FaultPlan`] for chaos runs.
//! 3. [`Session`] / [`SessionBuilder`] — one execution entry point that
//!    composes the config, the workload, the tracer and the fault plan
//!    into a [`RunOutput`].
//!
//! [`write_atomic`] is the one crash-safe file writer: every figure CSV,
//! `--resume` manifest and JSON trace goes through it.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod atomic;
mod config;
mod run;
mod workload;

pub use atomic::write_atomic;
pub use config::ExpConfig;
pub use run::{RunOutput, Session, SessionBuilder};
// Error vocabulary, re-exported so supervising frontends don't need a
// direct simcore dependency.
pub use simcore::{SimError, SimResult, StallSnapshot};
pub use workload::{HaccIo, RawWorkload, Wacomm, Workload};
