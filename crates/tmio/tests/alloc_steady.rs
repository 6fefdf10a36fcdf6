//! Steady-state allocation harness for the event hot loop.
//!
//! A counting global allocator wraps [`std::alloc::System`] and tallies every
//! `alloc`/`realloc` call. Two otherwise-identical runs — one with `N`
//! phases per rank, one with `2N` — are executed through the full
//! `World` + `Tracer` stack. If the hot loop allocated per event, the
//! longer run would pay thousands of additional allocator calls (each extra
//! phase produces a subrequest fan-out, PFS flow churn, queue events, tracer
//! records, and sweep edges). The assertion pins the *difference* to a small
//! constant: the only growth allowed is the logarithmic tail of geometric
//! `Vec`/heap doubling in the resident containers.
//!
//! The run is single-threaded and the harness is its own integration-test
//! binary, so no other test's allocations pollute the counter; only the
//! measuring thread's calls count, so the test harness's own threads do not
//! either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mpisim::{FileId, Op, Program, ReqTag, World, WorldConfig};
use pfsim::PfsConfig;
use tmio::{Strategy, Tracer, TracerConfig};

/// Counts the `alloc` + `realloc` calls of the thread inside [`measure`];
/// delegates all work to [`System`].
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only around the measured call: the test harness's other threads
    /// allocate at times of their own, and their calls must not count.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURING.get() {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocator calls this thread
/// made inside it.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    (out, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

const MB: f64 = 1e6;

/// Periodic async-write app reusing a single request tag, so the tracer's
/// dense tag slots and the world's request table hit the recycle path on
/// every phase after the first.
fn periodic_app(phases: usize) -> Program {
    let mut ops = Vec::with_capacity(3 * phases);
    for _ in 0..phases {
        ops.push(Op::IWrite {
            file: FileId(0),
            bytes: 8.0 * MB,
            tag: ReqTag(0),
        });
        ops.push(Op::Compute { seconds: 0.25 });
        ops.push(Op::Wait { tag: ReqTag(0) });
    }
    Program::from_ops(ops)
}

/// Runs `phases` phases on 4 ranks and returns the number of allocator
/// calls made *during the event loop* (world construction and report
/// extraction are excluded; their costs scale with input/output size by
/// design).
fn alloc_calls_for_run(phases: usize) -> u64 {
    let n = 4;
    let mut wc = WorldConfig::new(n).with_limiter(true).with_seed(7);
    wc.pfs = PfsConfig {
        write_capacity: 400.0 * MB,
        read_capacity: 400.0 * MB,
    };
    wc.subreq_bytes = MB;
    // Per-flow PFS samples would legitimately grow with run length.
    wc.record_pfs = false;

    let tracer = Tracer::new(
        n,
        TracerConfig::with_strategy(Strategy::Direct { tol: 2.0 }),
    );
    let mut w = World::new(wc, vec![periodic_app(phases); n], tracer);
    w.create_file("out");

    let (summary, calls) = measure(|| w.try_run());
    assert!(summary.unwrap().makespan() > 0.0);

    // Sanity: the run actually did the work we think it did.
    let report = w.into_hooks().into_report();
    assert_eq!(report.phases.len(), phases * n);

    calls
}

#[test]
fn event_loop_is_allocation_free_in_steady_state() {
    // Warm up once so lazy one-time allocations (thread-locals, stdio
    // buffers, lazily-initialized tables) don't land in either measurement.
    let _ = alloc_calls_for_run(8);

    let base = alloc_calls_for_run(200);
    let double = alloc_calls_for_run(400);

    // 200 extra phases x 4 ranks x (8 subrequests + queue/tracer/sweep
    // traffic) is tens of thousands of events. Per-event allocation of any
    // kind would show up here as thousands of calls; geometric container
    // growth contributes only a logarithmic handful.
    let delta = double.saturating_sub(base);
    assert!(
        delta <= 128,
        "steady-state event loop allocated: {base} calls at 200 phases, \
         {double} at 400 (delta {delta} > 128)"
    );
}
