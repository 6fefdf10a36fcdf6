//! Shared infrastructure for the figure-regeneration harness and the chaos
//! and ablation studies.
//!
//! The layering (DESIGN.md §3): [`scenarios`] computes the paper's
//! figures through the session pipeline, [`figs`]/[`abl`]/[`chaosrun`]
//! wrap them as named registry entries, and [`registry`] gives every bin
//! the same `--list`/`--only <glob>`/`--jobs` frontend. A sweep's run
//! state — results dir, worker count, build identity and the files each
//! entry wrote — travels in one [`registry::ScenarioCtx`]; the harness
//! keeps no process-global state. CSV emission is centralised in [`csv`];
//! [`par`] bounds the worker pool.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

use simcore::{SimTime, StepSeries};

pub mod abl;
pub mod chaosrun;
pub mod csv;
pub mod figs;
pub mod manifest;
pub mod par;
pub mod registry;
pub mod scenarios;

pub use csv::{multi_series_rows, write_csv};

/// Renders a step series as a unicode sparkline over `[from, to]` — the
/// harness's terminal stand-in for the paper's plots. Values are binned by
/// integral (bursts shorter than a column still show up).
pub fn sparkline(series: &StepSeries, from: f64, to: f64, width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    assert!(width >= 2 && to > from);
    let bin = (to - from) / width as f64;
    let vals: Vec<f64> = (0..width)
        .map(|k| {
            let a = from + k as f64 * bin;
            series.integral(SimTime::from_secs(a), SimTime::from_secs(a + bin)) / bin
        })
        .collect();
    let max = vals.iter().copied().fold(0.0, f64::max);
    if max <= 0.0 {
        return "▁".repeat(width);
    }
    vals.iter()
        .map(|v| {
            let idx = ((v / max) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// The rank sweeps used by the paper's figures; `full` selects paper scale,
/// otherwise a quick laptop-scale subset.
pub mod sweeps {
    /// HACC-IO rank sweep (Figs. 5/6/11): 1 … 9216.
    pub fn hacc_ranks(full: bool) -> Vec<usize> {
        if full {
            vec![1, 2, 4, 16, 64, 96, 384, 1536, 3072, 6144, 9216]
        } else {
            vec![1, 4, 16, 64, 96, 192]
        }
    }

    /// WaComM rank sweep (Fig. 7): 24 … 6144.
    pub fn wacomm_ranks(full: bool) -> Vec<usize> {
        if full {
            vec![24, 48, 96, 192, 384, 768, 1536, 3072, 6144]
        } else {
            vec![24, 48, 96, 192]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_written_to_results() {
        let dir = std::env::temp_dir().join(format!("iobts-csv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = registry::ScenarioCtx::new(&dir, 1);
        let p = write_csv(&mut ctx, "unit_test", "a,b", &["1,2".into(), "3,4".into()]).unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "a,b\n1,2\n3,4\n");
        let q = write_csv(&mut ctx, "unit_test_empty", "a,b", &[]).unwrap();
        assert_eq!(std::fs::read_to_string(&q).unwrap(), "a,b\n");
        assert_eq!(ctx.outputs, [p, q], "both files recorded, in order");
        assert!(ctx
            .outputs
            .iter()
            .all(|f| f.parent() == Some(dir.as_path())));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multi_series_alignment() {
        let mut a = StepSeries::new();
        a.push(SimTime::from_secs(0.0), 1.0);
        let mut b = StepSeries::new();
        b.push(SimTime::from_secs(5.0), 2.0);
        let rows = multi_series_rows(&[&a, &b], 0.0, 10.0, 3);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].starts_with("0.0000,1.0,0.0"));
        assert!(rows[2].starts_with("10.0000,1.0,2.0"));
    }

    #[test]
    fn sparkline_shows_bursts() {
        let mut s = StepSeries::new();
        s.push(SimTime::from_secs(2.0), 100.0);
        s.push(SimTime::from_secs(3.0), 0.0);
        let line = sparkline(&s, 0.0, 10.0, 10);
        assert_eq!(line.chars().count(), 10);
        let chars: Vec<char> = line.chars().collect();
        assert_eq!(chars[2], '█', "burst column maximal");
        assert_eq!(chars[0], '▁', "idle column minimal");
        assert_eq!(chars[7], '▁');
    }

    #[test]
    fn sparkline_flat_zero() {
        let s = StepSeries::new();
        assert_eq!(sparkline(&s, 0.0, 1.0, 5), "▁▁▁▁▁");
    }

    #[test]
    fn sweeps_are_sorted() {
        for full in [false, true] {
            let h = sweeps::hacc_ranks(full);
            assert!(h.windows(2).all(|w| w[0] < w[1]));
            let w = sweeps::wacomm_ranks(full);
            assert!(w.windows(2).all(|x| x[0] < x[1]));
        }
    }
}
