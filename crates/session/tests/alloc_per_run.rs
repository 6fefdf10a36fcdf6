//! A session's allocations follow what is live, not how long it runs.
//!
//! A counting global allocator tallies every `alloc`/`realloc` call made by
//! one `Session::try_run` of the asynchronous WaComM workload. Its driver
//! streams ops in closed form, its request tables hold only the live tags
//! and the tracer sizes its record tables once from the workload's record
//! counts, so a run four times as long makes exactly as many allocator
//! calls. (The PFS rate series, which grows with run length by design, is
//! switched off.)
//!
//! The harness is its own integration-test binary with a single test, so
//! no other test's allocations pollute the counter, and only the measuring
//! thread's calls count, so the test harness's own threads do not either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hpcwl::wacomm::WacommConfig;
use session::{ExpConfig, Session, Wacomm};
use tmio::Strategy;

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

/// Allocator calls of one 48-rank WaComM run of `iterations` iterations,
/// and the number of phases it traced.
fn alloc_calls(iterations: usize, strategy: Strategy) -> (u64, usize) {
    let cfg = ExpConfig::new(48, strategy)
        .with_seed(3)
        .with_record_pfs(false);
    let wacomm = WacommConfig {
        iterations,
        ..Default::default()
    };
    let session = Session::builder(cfg)
        .workload(Wacomm::new(wacomm))
        .try_build()
        .unwrap();
    let (out, calls) = measure(|| session.try_run());
    (calls, out.unwrap().report.phases.len())
}

#[test]
fn a_longer_wacomm_run_makes_the_same_allocator_calls() {
    // Warm up lazily initialized state (thread-locals, stdio buffers).
    let _ = alloc_calls(4, Strategy::None);
    for strategy in [Strategy::UpOnly { tol: 1.1 }, Strategy::Direct { tol: 2.0 }] {
        let (short, short_phases) = alloc_calls(10, strategy);
        let (long, long_phases) = alloc_calls(40, strategy);
        assert_eq!((short_phases, long_phases), (48 * 9, 48 * 39));
        assert_eq!(
            short, long,
            "{strategy:?}: {short} allocator calls at 10 iterations, {long} at 40"
        );
    }
    // Without a limit the ranks run in lockstep, and flows with identical
    // remaining bytes share one PFS group. A recycled group-member buffer
    // can then reach a new high-water mark late in a run, at one `realloc`
    // each time: growth with peak concurrency, not with run length.
    let (short, _) = alloc_calls(10, Strategy::None);
    let (long, _) = alloc_calls(40, Strategy::None);
    assert!(
        long >= short && long - short <= 4,
        "no limit: {short} allocator calls at 10 iterations, {long} at 40"
    );
}
