//! Shared CSV emission for every bench bin: one row trait, one writer.
//!
//! Row structs ([`crate::scenarios::OverheadRow`],
//! [`crate::scenarios::DistRow`], [`crate::chaosrun::ChaosRow`], …)
//! implement [`CsvRow`]; [`write_rows`] dumps them and [`rows`] formats
//! them for byte-identity tests. Free-form tables go through
//! [`write_csv`]. All file writing is backed by the streaming
//! [`CsvSink`] of the session layer.

use iobts::session::CsvSink;
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

/// Writes typed rows (header from the type) to `results/<name>.csv`
/// atomically (temp file + rename; see [`write_csv`]).
pub fn write_rows<R: CsvRow>(name: &str, items: &[R]) -> std::io::Result<PathBuf> {
    write_csv(name, R::HEADER, &rows(items))
}

/// Where figure CSVs are written (`results/` under the workspace root, or
/// `$IOBTS_RESULTS_DIR`). Creation is attempted but not required here —
/// the writer surfaces the error with the actual path if the directory
/// cannot exist.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("IOBTS_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Writes CSV rows (with a header) to `results/<name>.csv`, returning the
/// path. The rows land in a temp sibling first and are renamed into place
/// on success, so an interrupted run never leaves a truncated CSV.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<PathBuf> {
    let path = results_dir().join(format!("{name}.csv"));
    let mut sink = CsvSink::create(&path, header)?;
    sink.rows(rows)?;
    sink.finish()
}

/// Resamples a step series into `(t, value)` CSV rows.
pub fn series_rows(series: &StepSeries, from: f64, to: f64, n: usize) -> Vec<String> {
    series
        .resample(SimTime::from_secs(from), SimTime::from_secs(to), n)
        .into_iter()
        .map(|(t, v)| format!("{t:.4},{v:.1}"))
        .collect()
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
