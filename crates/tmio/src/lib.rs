//! # tmio — Tracing MPI-IO (the paper's core contribution)
//!
//! Rust reproduction of the TMIO library from *"I/O Behind the Scenes:
//! Bandwidth Requirements of HPC Applications with Asynchronous I/O"*
//! (IEEE CLUSTER 2024):
//!
//! * intercepts asynchronous MPI-IO through the PMPI-analogue
//!   [`mpisim::IoHooks`] boundary ([`Tracer`]),
//! * computes each rank's **required bandwidth** `B_{i,j}` (Eq. 1) and
//!   **throughput** `T_{i,j}` (Eq. 2),
//! * applies the **direct / up-only / adaptive** limiting strategies
//!   (Sec. IV-B) plus the future-work MFU table ([`Strategy`]),
//! * aggregates rank metrics to application level with the region sweep of
//!   Eq. 3, maintained live during the run ([`IncrementalSweep`]),
//! * reports the run: time decomposition, overheads, and the JSON trace
//!   written at finalize ([`Report::to_json`]; the crate writes traces and
//!   never reads them back),
//! * detects periodic I/O behaviour with FTIO-style frequency analysis
//!   ([`ftio`], the companion-tool capability mentioned in Sec. VII).
//!
//! ```
//! use tmio::{Strategy, Tracer, TracerConfig};
//! use mpisim::{FileId, Op, Program, ReqTag, World, WorldConfig};
//!
//! let n = 4;
//! let cfg = WorldConfig::new(n).with_limiter(true);
//! let tracer = Tracer::new(n, TracerConfig::with_strategy(
//!     Strategy::Direct { tol: 1.1 }));
//! let mut ckpt = Program::new();
//! for k in 0..5 {
//!     ckpt.push(Op::IWrite { file: FileId(0), bytes: 8e6, tag: ReqTag(k) })
//!         .push(Op::Compute { seconds: 0.01 })
//!         .push(Op::Wait { tag: ReqTag(k) });
//! }
//! let mut world = World::new(cfg, vec![ckpt; n], tracer);
//! world.create_file("ckpt");
//! world.try_run()?;
//! let report = world.into_hooks().into_report();
//! assert!(report.required_bandwidth() > 0.0);
//! # Ok::<(), mpisim::SimError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod ftio;
mod json;
pub mod regions;
mod report;
mod strategy;
mod tracer;

pub use regions::{IncrementalSweep, Interval, Opened};
pub use report::{Decomposition, FaultEventRecord, Report};
pub use strategy::{Strategy, StrategyState, LIMIT_FLOOR};
pub use tracer::{
    Aggregation, AsyncSpan, PhaseRecord, RecordCounts, SyncInterval, TeMode, ThroughputWindow,
    Tracer, TracerConfig,
};
