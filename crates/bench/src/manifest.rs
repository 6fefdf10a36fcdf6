//! Crash-safe sweep manifests: the registry's checkpoint/resume layer.
//!
//! As each scenario of a sweep completes, [`mark_done`] writes a tiny
//! per-entry manifest file under `results/.manifest/` — staged through a
//! temp sibling and atomically renamed, and written only *after* the
//! scenario's CSVs are themselves atomically in place. A manifest entry
//! therefore implies the scenario's outputs are whole.
//!
//! `--resume` ([`is_done`]) skips entries whose manifest matches the
//! current [`fingerprint`] — the same code, the same entry and the same run
//! shape (`--full`/`--quick` flags) — so an interrupted sweep picks up where
//! it stopped and regenerates byte-identical outputs: the scenarios
//! themselves are deterministic, and the skipped entries' files are already
//! final. An entry completed by other code (an edited scenario config or
//! engine) or under another shape is recomputed. A non-resume run calls
//! [`clear_group`] first so stale manifests never mask re-runs.

use crate::registry::ScenarioCtx;
use std::fs;
use std::io;
use std::path::PathBuf;

/// Where per-entry manifests live (inside the results dir, so
/// `$IOBTS_RESULTS_DIR` isolates concurrent test sweeps too).
pub fn manifest_dir() -> PathBuf {
    crate::results_dir().join(".manifest")
}

/// Identity of the code that computes every entry: a digest of the
/// workspace sources, set by `build.rs`. A scenario's configs are code, so
/// editing one — or the engine beneath it — changes this.
const BUILD_ID: &str = env!("IOBTS_SOURCE_HASH");

/// The fingerprint stored in an entry's manifest: the build identity plus
/// the entry's resolved configuration — which entry, at which run shape
/// (completing a `--quick` sweep must not mark the full-scale variant done).
pub fn fingerprint(group: &str, name: &str, ctx: &ScenarioCtx) -> String {
    format!(
        "v2 build={BUILD_ID} entry={group}.{name} full={} quick={}",
        ctx.full, ctx.quick
    )
}

fn entry_path(group: &str, name: &str) -> PathBuf {
    manifest_dir().join(format!("{group}.{name}.done"))
}

/// Whether `name` completed under the current code and run shape (for
/// `--resume`).
pub fn is_done(group: &str, name: &str, ctx: &ScenarioCtx) -> bool {
    fs::read_to_string(entry_path(group, name))
        .map(|body| body.trim() == fingerprint(group, name, ctx))
        .unwrap_or(false)
}

/// Records `name` as complete: temp file + atomic rename, written only
/// after the scenario's own outputs are in place.
pub fn mark_done(group: &str, name: &str, ctx: &ScenarioCtx) -> io::Result<()> {
    let dir = manifest_dir();
    fs::create_dir_all(&dir)?;
    let path = entry_path(group, name);
    let tmp = dir.join(format!(".{group}.{name}.tmp"));
    fs::write(&tmp, fingerprint(group, name, ctx))?;
    fs::rename(&tmp, &path)
}

/// Drops every manifest entry of `group` (fresh, non-resume runs).
pub fn clear_group(group: &str) {
    let Ok(entries) = fs::read_dir(manifest_dir()) else {
        return;
    };
    let prefix = format!("{group}.");
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with(&prefix) && name.ends_with(".done") {
            let _ = fs::remove_file(e.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(full: bool) -> ScenarioCtx {
        ScenarioCtx {
            full,
            quick: false,
            emit: true,
        }
    }

    #[test]
    fn roundtrip_and_fingerprint_mismatch() {
        // Same value as the csv test in lib.rs: the env var is process
        // global, so concurrent tests must agree on it.
        std::env::set_var("IOBTS_RESULTS_DIR", "/tmp/iobts-test-results");
        clear_group("g");
        assert!(!is_done("g", "s1", &ctx(false)));
        mark_done("g", "s1", &ctx(false)).unwrap();
        assert!(is_done("g", "s1", &ctx(false)));
        // A quick-shape completion does not satisfy a full-shape resume.
        assert!(!is_done("g", "s1", &ctx(true)));
        // Nor does one entry's completion mark another done.
        assert!(!is_done("g", "s2", &ctx(false)));
        // A manifest left by other code (another build identity, or the
        // shape-only format that predates it) is not a completion.
        let other = fingerprint("g", "s1", &ctx(false)).replace(BUILD_ID, "0123456789abcdef");
        std::fs::write(entry_path("g", "s1"), other).unwrap();
        assert!(!is_done("g", "s1", &ctx(false)));
        std::fs::write(entry_path("g", "s1"), "v1 full=false quick=false").unwrap();
        assert!(!is_done("g", "s1", &ctx(false)));
        clear_group("g");
        assert!(!is_done("g", "s1", &ctx(false)));
    }
}
