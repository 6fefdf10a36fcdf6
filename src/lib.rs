//! # iobts — "I/O Behind the Scenes" in Rust
//!
//! A full-system reproduction of *Tarraf et al., "I/O Behind the Scenes:
//! Bandwidth Requirements of HPC Applications with Asynchronous I/O"*
//! (IEEE CLUSTER 2024) on a from-scratch simulation substrate:
//!
//! * [`tmio`] — the paper's core library: required-bandwidth tracing,
//!   limiting strategies, application-level aggregation;
//! * [`mpisim`] — the MPI-like virtual-time runtime with the ADIO-style
//!   throttling I/O thread (the "modified MPICH");
//! * [`pfsim`] — the fluid-flow parallel file system;
//! * [`hpcwl`] — the HACC-IO and WaComM-like workloads;
//! * [`clustersim`] — the batch-system simulator behind the motivation
//!   study;
//! * [`simcore`] — the discrete-event core;
//! * [`session`] — the canonical run pipeline: the `Workload` trait, the
//!   `ExpConfig` builder, the `Session` entry point and `write_atomic`,
//!   the crash-safe writer behind every CSV, manifest and JSON trace.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use clustersim;
pub use hpcwl;
pub use mpisim;
pub use pfsim;
pub use session;
pub use simcore;
pub use tmio;

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use hpcwl::hacc::HaccConfig;
    pub use hpcwl::wacomm::WacommConfig;
    pub use mpisim::{WatchdogCfg, WorldConfig};
    pub use session::{
        ExpConfig, HaccIo, RawWorkload, RunOutput, Session, SessionBuilder, SimError, SimResult,
        StallSnapshot, Wacomm, Workload,
    };
    pub use tmio::{Strategy, Tracer, TracerConfig};
}
