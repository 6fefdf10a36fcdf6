//! The [`Workload`] abstraction: what runs inside a
//! [`Session`](crate::Session).
//!
//! A workload knows how to emit one [`Program`] per rank and the names of
//! the files those programs touch. A session runs it through
//! [`Workload::driver`], which by default replays those programs; the
//! paper's two applications ([`HaccIo`], [`Wacomm`]) instead stream their
//! ops in closed form, so a run's driver state is one counter per rank,
//! and state their [`RecordCounts`] so the tracer sizes its tables once.
//! Anything else plugs in the same way — including raw op lists via
//! [`RawWorkload`] — without touching the runners.

use hpcwl::hacc::HaccConfig;
use hpcwl::wacomm::WacommConfig;
use mpisim::{FileId, Op, Program, RankDriver, ScriptedDriver};
use simcore::{SimError, SimResult, SimTime};
use tmio::RecordCounts;

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

    /// Rejects a workload that cannot run, before the session is built
    /// ([`SessionBuilder::try_build`](crate::SessionBuilder::try_build)).
    fn validate(&self) -> SimResult<()> {
        Ok(())
    }

    /// The driver that feeds each rank its ops, equal op for op to
    /// [`Workload::programs`]. By default it replays those programs
    /// through [`ScriptedDriver::try_new`], so a program count that differs
    /// from `n_ranks` or a program failing [`Program::validate`] comes
    /// back as a typed error.
    fn driver(&self, n_ranks: usize) -> SimResult<Box<dyn RankDriver>> {
        scripted(self.programs(n_ranks), n_ranks)
    }

    /// The records a run leaves in the tracer, when known up front; `None`
    /// (the default) keeps [`tmio::Tracer::new`]'s typical sizing.
    fn record_counts(&self, _n_ranks: usize) -> Option<RecordCounts> {
        None
    }
}

/// Replays one program per rank through [`ScriptedDriver::try_new`].
fn scripted(programs: Vec<Program>, n_ranks: usize) -> SimResult<Box<dyn RankDriver>> {
    if programs.len() != n_ranks {
        return Err(SimError::invalid_config(
            "n_ranks",
            format!("{n_ranks} ranks but {} programs", programs.len()),
        ));
    }
    Ok(Box::new(ScriptedDriver::try_new(programs)?))
}

/// A driver over a closed-form op stream: `op(rank, pc)` is op `pc` of
/// `rank`'s program, so the driver keeps only each rank's `pc`.
struct ClosedForm<F> {
    op: F,
    pcs: Vec<usize>,
}

impl<F> ClosedForm<F>
where
    F: Fn(usize, usize) -> Option<Op> + Send + 'static,
{
    fn boxed(n_ranks: usize, op: F) -> Box<dyn RankDriver> {
        Box::new(ClosedForm {
            op,
            pcs: vec![0; n_ranks],
        })
    }
}

impl<F: Fn(usize, usize) -> Option<Op> + Send> RankDriver for ClosedForm<F> {
    fn next_op(&mut self, rank: usize, _now: SimTime) -> Option<Op> {
        let pc = &mut self.pcs[rank];
        let op = (self.op)(rank, *pc);
        *pc += usize::from(op.is_some());
        op
    }
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

    /// The asynchronous benchmark streams [`HaccConfig::op`]; the sync
    /// baseline replays its programs.
    fn driver(&self, n_ranks: usize) -> SimResult<Box<dyn RankDriver>> {
        if self.sync {
            return scripted(self.programs(n_ranks), n_ranks);
        }
        let cfg = self.cfg;
        Ok(ClosedForm::boxed(n_ranks, move |rank, pc| {
            cfg.op(FileId(rank as u32), pc)
        }))
    }

    /// Per rank and loop: an async write, an async read and a blocking
    /// header write.
    fn record_counts(&self, n_ranks: usize) -> Option<RecordCounts> {
        (!self.sync).then_some(RecordCounts {
            async_requests: n_ranks * 2 * self.cfg.loops,
            sync_ops: n_ranks * self.cfg.loops,
        })
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

    /// The asynchronous schedule needs at least two iterations.
    fn validate(&self) -> SimResult<()> {
        if self.sync {
            return Ok(());
        }
        self.cfg.validate()
    }

    /// The asynchronous schedule streams [`WacommConfig::op`]; the sync
    /// baseline replays its programs.
    fn driver(&self, n_ranks: usize) -> SimResult<Box<dyn RankDriver>> {
        if self.sync {
            return scripted(self.programs(n_ranks), n_ranks);
        }
        let cfg = self.cfg;
        Ok(ClosedForm::boxed(n_ranks, move |rank, pc| {
            cfg.op(rank, n_ranks, FileId(0), FileId(1 + rank as u32), pc)
        }))
    }

    /// Per rank: an async write in every iteration but the last, whose
    /// write is blocking; rank 0 also reads the input.
    fn record_counts(&self, n_ranks: usize) -> Option<RecordCounts> {
        (!self.sync).then_some(RecordCounts {
            async_requests: n_ranks * self.cfg.iterations.saturating_sub(1),
            sync_ops: n_ranks + 1,
        })
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
