//! Deterministic work counts ([`mpisim::RunStats`]) of one fixed run.
//!
//! The counts are what a run *did*, independent of host speed: a change to
//! the engine that keeps the event set keeps `events`, and a change to how
//! the queue stores events shows up in `heap_pushes` and `root_reuses`
//! only. Any change here is a behaviour change and has to be explained.

use hpcwl::wacomm::WacommConfig;
use mpisim::RunStats;
use session::{ExpConfig, Session, Wacomm};
use tmio::Strategy;

#[test]
fn wacomm_24_ranks_work_counts_are_pinned() {
    // A Fig. 7 sweep point: 24 ranks under the direct strategy. The events
    // the heap does not account for are PFS wakes, which never enter it.
    let cfg = ExpConfig::new(24, Strategy::Direct { tol: 2.0 })
        .with_seed(2024)
        .with_record_pfs(false);
    let session = Session::builder(cfg)
        .workload(Wacomm::new(WacommConfig::default()))
        .build();
    let stats = session.run().summary.stats;
    assert_eq!(
        stats,
        RunStats {
            events: 12885,
            heap_pushes: 4728,
            root_reuses: 3554,
        }
    );
    assert_eq!(
        session.run().summary.stats,
        stats,
        "counts are deterministic"
    );
}
