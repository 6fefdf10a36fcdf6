//! Helper shared by the root integration tests.

use iobts::prelude::*;

/// Runs `workload` under `cfg` through a [`Session`], panicking with the
/// error's message if the config is invalid or the run fails.
pub fn run(cfg: &ExpConfig, workload: impl Workload + 'static) -> RunOutput {
    Session::builder(cfg.clone())
        .workload(workload)
        .try_build()
        .and_then(|s| s.try_run())
        .unwrap_or_else(|e| panic!("{e}"))
}
