//! Suite-level worker pool: runs per-test experiment closures across a
//! fixed number of threads while keeping results in input order.
//!
//! Experiment drivers iterate suites of 34–88 independent tests; each test
//! derives its own PRNG seed (see `derive_seed`), so per-test computations
//! are pure functions of `(test, config)` and can run concurrently without
//! changing any result. The pool hands out item indices from a shared
//! atomic counter (work stealing — suite tests vary wildly in cost, so
//! static striping would leave workers idle), collects `(index, result)`
//! pairs per worker, and reassembles them in input order.
//!
//! **Panic isolation.** Every item runs under `std::panic::catch_unwind`,
//! so one panicking test cannot take down its worker thread (and with it
//! every other item that worker would have processed). [`try_map_parallel`]
//! surfaces per-item panics as [`PerpleError::WorkerPanic`] values;
//! [`map_parallel`] keeps its infallible signature by re-raising the first
//! panic on the calling thread — but only after every other item has
//! finished.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::{panic_message, PerpleError};

/// Default pool width: the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on up to `workers` scoped threads, returning
/// per-item results in input order; a panicking item yields
/// `Err(PerpleError::WorkerPanic)` without disturbing any other item.
/// `workers <= 1` (or a single item) degrades to a plain serial loop on
/// the calling thread.
pub fn try_map_parallel<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<Result<R, PerpleError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let run_item = |i: usize, item: &T| -> Result<R, PerpleError> {
        // AssertUnwindSafe: the closure only borrows `f` and `items`
        // immutably, and a panicking item's partial state is discarded
        // with the unwound stack — nothing observable is left behind.
        catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| PerpleError::WorkerPanic {
            message: panic_message(&*payload),
        })
    };

    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| run_item(i, t))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, Result<R, PerpleError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let run_item = &run_item;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, run_item(i, item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                // Invariant assertion, not error handling: items cannot
                // unwind workers (each is caught above), so a worker can
                // only die of a harness bug.
                h.join().expect("suite pool worker died outside an item")
            })
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(
        tagged.iter().enumerate().all(|(pos, &(i, _))| pos == i),
        "every input index must appear exactly once"
    );
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Applies `f` to every item on up to `workers` scoped threads, returning
/// results in input order.
///
/// A panicking item no longer aborts the suite mid-flight: all other items
/// run to completion first, then the first panic (in input order) is
/// re-raised on the calling thread. Callers that want panics as values use
/// [`try_map_parallel`].
pub fn map_parallel<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    try_map_parallel(items, workers, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("suite item failed: {e}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1usize, 2, 3, 7, 16] {
            let out = map_parallel(&items, workers, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(
                out,
                items.iter().map(|x| x * x).collect::<Vec<_>>(),
                "workers {workers}"
            );
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(map_parallel(&none, 8, |_, &x| x).is_empty());
        assert_eq!(map_parallel(&[42u32], 8, |_, &x| x + 1), vec![43]);
    }

    #[test]
    fn oversubscribed_pool_still_covers_every_item() {
        let items: Vec<usize> = (0..5).collect();
        let out = map_parallel(&items, 64, |_, &x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn one_panicking_item_does_not_disturb_the_others() {
        let items: Vec<u32> = (0..20).collect();
        for workers in [1usize, 4, 16] {
            let out = try_map_parallel(&items, workers, |_, &x| {
                if x == 13 {
                    panic!("unlucky {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), 20);
            for (i, r) in out.iter().enumerate() {
                if i == 13 {
                    let err = r.as_ref().unwrap_err();
                    assert!(matches!(err, PerpleError::WorkerPanic { .. }));
                    assert!(err.to_string().contains("unlucky 13"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 * 2, "workers {workers}");
                }
            }
        }
    }

    #[test]
    fn every_item_panicking_still_returns_every_slot() {
        let items: Vec<u32> = (0..6).collect();
        let out = try_map_parallel(&items, 3, |_, _| -> u32 { panic!("all down") });
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|r| r.is_err()));
    }

    #[test]
    fn infallible_map_reraises_after_completing_other_items() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let completed = AtomicU32::new(0);
        let items: Vec<u32> = (0..10).collect();
        let res = catch_unwind(AssertUnwindSafe(|| {
            map_parallel(&items, 4, |_, &x| {
                if x == 0 {
                    panic!("first item dies");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        assert!(res.is_err(), "the panic must still surface");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            9,
            "all other items completed"
        );
    }
}
