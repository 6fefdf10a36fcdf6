//! Shared CSV emission for every bench bin: one row trait, one writer.
//!
//! Row structs ([`crate::scenarios::OverheadRow`],
//! [`crate::scenarios::DistRow`], [`crate::chaosrun::ChaosRow`], …)
//! implement [`CsvRow`]; [`write_rows`] dumps them and [`rows`] formats
//! them for byte-identity tests. Free-form tables go through
//! [`write_csv`], which writes each file whole through the session layer's
//! crash-safe [`write_atomic`] into the sweep's results dir and records it
//! among the running entry's outputs, both carried by the [`ScenarioCtx`].

use crate::registry::ScenarioCtx;
use session::write_atomic;
use simcore::{SimTime, StepSeries};
use std::path::PathBuf;

/// A struct that knows its CSV header and how to format itself as a row.
pub trait CsvRow {
    /// Header line (no trailing newline).
    const HEADER: &'static str;

    /// One formatted CSV row.
    fn row(&self) -> String;
}

/// Formats `items` as CSV rows (no header) — shared between the bins and
/// the determinism/golden tests so both compare identical bytes.
pub fn rows<R: CsvRow>(items: &[R]) -> Vec<String> {
    items.iter().map(CsvRow::row).collect()
}

/// Writes typed rows (header from the type) to `<results dir>/<name>.csv`
/// (see [`write_csv`]).
pub fn write_rows<R: CsvRow>(
    ctx: &mut ScenarioCtx,
    name: &str,
    items: &[R],
) -> Result<PathBuf, String> {
    write_csv(ctx, name, R::HEADER, &rows(items))
}

/// Writes `header` and `rows`, one per line, to `<name>.csv` in
/// `ctx.results_dir` (created if missing), records the path in
/// `ctx.outputs` and returns it. The file is replaced whole
/// ([`write_atomic`]), so an interrupted run never leaves a truncated CSV.
/// The error names the path, ready to be an entry's failure.
pub fn write_csv(
    ctx: &mut ScenarioCtx,
    name: &str,
    header: &str,
    rows: &[String],
) -> Result<PathBuf, String> {
    let path = ctx.results_dir.join(format!("{name}.csv"));
    let mut body = format!("{header}\n");
    for row in rows {
        body.push_str(row);
        body.push('\n');
    }
    std::fs::create_dir_all(&ctx.results_dir)
        .and_then(|()| write_atomic(&path, body.as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    ctx.outputs.push(path.clone());
    Ok(path)
}

/// Merges several same-horizon series into multi-column CSV rows.
pub fn multi_series_rows(series: &[&StepSeries], from: f64, to: f64, n: usize) -> Vec<String> {
    assert!(n >= 2);
    (0..n)
        .map(|k| {
            let t = from + (to - from) * k as f64 / (n - 1) as f64;
            let mut row = format!("{t:.4}");
            for s in series {
                row.push_str(&format!(",{:.1}", s.value_at(SimTime::from_secs(t))));
            }
            row
        })
        .collect()
}
