//! Bounded-width deterministic parallel map for sweep points.
//!
//! Every figure sweep is a list of independent simulations (one per rank
//! count × strategy). [`par_map`] fans them out over at most
//! `min(jobs, items)` scoped threads while returning results **in input
//! order**, so the emitted tables and CSVs are byte-identical to a serial
//! run — parallelism is purely a wall-clock optimisation and never an
//! observable one (enforced by `tests/determinism.rs`).
//!
//! The width is an argument: the registry resolves it once per sweep into
//! [`crate::registry::ScenarioCtx::jobs`], and every entry passes it on.

use simcore::Invariant;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item on a pool of at most `jobs` scoped threads,
/// returning the results **in input order**. Worker threads claim items
/// through a shared atomic cursor, so an expensive head item does not
/// serialise the tail.
///
/// A panicking item ends its worker; the other workers still drain the
/// remaining items. Once every worker has been joined, the first panicking
/// worker's own payload is re-raised.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let mut panicked = None;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, f(&items[i])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (i, r) in done {
                        results[i] = Some(r);
                    }
                }
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }

    results
        .into_iter()
        .map(|r| r.invariant("par slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..50).collect();
        let out = par_map(8, &items, |&i| {
            // Skew per-item cost so completion order differs from input
            // order if more than one worker actually runs.
            std::thread::sleep(std::time::Duration::from_micros(((50 - i) % 7) as u64 * 50));
            i * 2
        });
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..32).collect();
        let serial = par_map(1, &items, |&i| i * i + 1);
        let parallel = par_map(4, &items, |&i| i * i + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = par_map(4, &[] as &[u32], |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_item_reraises_its_own_message_after_the_others_finish() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let items: Vec<u32> = (0..8).collect();
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(4, &items, |&i| {
                if i == 3 {
                    panic!("bad item {i}");
                }
                finished.fetch_add(1, Ordering::Relaxed);
                i * 10
            })
        }));
        let payload = caught.expect_err("the item panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("bad item 3")
        );
        assert_eq!(finished.load(Ordering::Relaxed), 7, "every other item ran");
    }
}
