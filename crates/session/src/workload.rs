//! The [`Workload`] abstraction: what runs inside a
//! [`Session`](crate::Session).
//!
//! A workload knows how to emit one [`Program`] per rank and the names of
//! the files those programs touch. The paper's two applications implement
//! it ([`HaccIo`], [`Wacomm`]); anything else plugs in the same way —
//! including raw op lists via [`RawWorkload`] — without touching the
//! runners.

use hpcwl::hacc::HaccConfig;
use hpcwl::wacomm::WacommConfig;
use mpisim::{FileId, Program};

/// A workload that a [`Session`](crate::Session) can execute: per-rank programs plus the
/// file names they reference.
pub trait Workload {
    /// Short name identifying the workload (e.g. `hacc`, `wacomm`).
    fn name(&self) -> &str;

    /// One program per rank.
    fn programs(&self, n_ranks: usize) -> Vec<Program>;

    /// File names to register with the world before the run, in
    /// [`FileId`] order.
    fn files(&self, n_ranks: usize) -> Vec<String>;
}

/// The modified HACC-IO benchmark (Fig. 12 structure). Each rank writes to
/// its own file, as in the paper's non-collective setting.
#[derive(Clone, Copy, Debug)]
pub struct HaccIo {
    cfg: HaccConfig,
    sync: bool,
}

impl HaccIo {
    /// The asynchronous (modified) benchmark of the paper.
    pub fn new(cfg: HaccConfig) -> Self {
        HaccIo { cfg, sync: false }
    }

    /// The vanilla synchronous baseline.
    pub fn sync(cfg: HaccConfig) -> Self {
        HaccIo { cfg, sync: true }
    }
}

impl Workload for HaccIo {
    fn name(&self) -> &str {
        if self.sync {
            "hacc-sync"
        } else {
            "hacc"
        }
    }

    fn programs(&self, n_ranks: usize) -> Vec<Program> {
        // One file per rank: the paper uses individual file pointers to
        // distinct files. The simulated registry only tracks byte counts,
        // so a single registered name per rank suffices.
        (0..n_ranks)
            .map(|r| {
                if self.sync {
                    self.cfg.program_sync(FileId(r as u32))
                } else {
                    self.cfg.program(FileId(r as u32))
                }
            })
            .collect()
    }

    fn files(&self, n_ranks: usize) -> Vec<String> {
        (0..n_ranks).map(|r| format!("hacc.{r}.dat")).collect()
    }
}

/// The WaComM-like pollutant transport workload: one shared input file,
/// one output file per rank.
#[derive(Clone, Copy, Debug)]
pub struct Wacomm {
    cfg: WacommConfig,
    sync: bool,
}

impl Wacomm {
    /// The asynchronous per-iteration-write schedule of the paper.
    pub fn new(cfg: WacommConfig) -> Self {
        Wacomm { cfg, sync: false }
    }

    /// The original synchronous WaComM++ baseline.
    pub fn sync(cfg: WacommConfig) -> Self {
        Wacomm { cfg, sync: true }
    }
}

impl Workload for Wacomm {
    fn name(&self) -> &str {
        if self.sync {
            "wacomm-sync"
        } else {
            "wacomm"
        }
    }

    fn programs(&self, n_ranks: usize) -> Vec<Program> {
        let input = FileId(0);
        (0..n_ranks)
            .map(|r| {
                let out = FileId(1 + r as u32);
                if self.sync {
                    self.cfg.program_sync(r, n_ranks, input, out)
                } else {
                    self.cfg.program(r, n_ranks, input, out)
                }
            })
            .collect()
    }

    fn files(&self, n_ranks: usize) -> Vec<String> {
        let mut names = vec!["wacomm.in".to_string()];
        names.extend((0..n_ranks).map(|r| format!("wacomm.{r}.out")));
        names
    }
}

/// An ad-hoc workload from explicit per-rank programs — the escape hatch
/// for synthetic kernels and semantics studies that don't warrant a named
/// workload type.
#[derive(Clone, Debug)]
pub struct RawWorkload {
    name: String,
    programs: Vec<Program>,
    files: Vec<String>,
}

impl RawWorkload {
    /// Wraps explicit per-rank `programs` and the `files` they reference.
    pub fn new(
        name: impl Into<String>,
        programs: Vec<Program>,
        files: Vec<impl Into<String>>,
    ) -> Self {
        RawWorkload {
            name: name.into(),
            programs,
            files: files.into_iter().map(Into::into).collect(),
        }
    }
}

impl Workload for RawWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    /// The wrapped programs as given; a count that differs from the
    /// session's rank count fails [`crate::Session::try_run`] with a typed error.
    fn programs(&self, _n_ranks: usize) -> Vec<Program> {
        self.programs.clone()
    }

    fn files(&self, _n_ranks: usize) -> Vec<String> {
        self.files.clone()
    }
}
