//! One deterministic, ordered parallel map for grids of independent
//! simulations.
//!
//! Every `(point, seed)` of a figure sweep and every rack of a
//! population is a pure function of its own parameters, so the grid can
//! run on every core — as long as the *result* cannot tell.
//! [`par_map`] guarantees that: it returns exactly
//! `items.iter().map(f).collect()`, in item order, whatever the thread
//! count and whichever worker ran which call. Callers keep float
//! reductions out of `f` (or wholly inside one call), regroup the
//! returned values in index order, and their output is byte-identical
//! on one core and on sixty-four.
//!
//! A finished simulation is `!Send` (it owns boxed agents and an `Rc`
//! recorder), so `f` simulates *and* reduces on the worker and returns
//! plain numbers.
//!
//! Do not call the map from inside one of its own jobs, or from a
//! campaign cell: those already run one per core, and a nested pool
//! only multiplies live simulations (and their memory) without adding
//! parallelism.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads a parallel map uses on this host: the available
/// parallelism, 1 when it cannot be determined.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `items.iter().map(f).collect()`, with the calls spread over every
/// core. See the module docs for the contract.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with_threads(items, host_threads(), f)
}

/// [`par_map`] with an explicit worker count (tests pin thread-count
/// invariance with it; product callers pass [`host_threads`]).
///
/// `min(threads, items.len())` workers claim the next unclaimed index
/// off a shared counter — job costs are uneven, so claiming beats
/// striding — and the caller is one of them; with one worker or one item
/// everything runs inline and no thread is spawned. If a call panics,
/// the other workers finish the grid and are joined, then the panic is
/// re-raised on the caller with its original payload.
pub fn par_map_with_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Relaxed: the counter publishes nothing but itself; results travel
    // through `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        // If this call unwinds, `scope` joins the others before letting
        // the panic through.
        let mut done = work();
        let mut panicked = None;
        for handle in handles {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        done
    });
    debug_assert_eq!(done.len(), items.len(), "every index was claimed once");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// A job whose cost varies ~100x with its argument.
    fn uneven(&n: &u64) -> u64 {
        let spins = if n % 7 == 0 { 200_000 } else { 2_000 };
        (0..spins).fold(n, |acc, i| acc.wrapping_mul(6364136223846793005) ^ i)
    }

    #[test]
    fn results_come_back_in_item_order_at_any_thread_count() {
        let items: Vec<u64> = (0..200).collect();
        let want: Vec<u64> = items.iter().map(uneven).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(par_map_with_threads(&items, threads, uneven), want);
        }
        assert_eq!(par_map(&items, uneven), want);
    }

    #[test]
    fn more_threads_than_items_and_no_items() {
        assert_eq!(par_map_with_threads(&[1u64, 2], 16, |&n| n * 10), [10, 20]);
        assert_eq!(par_map_with_threads(&[5u64], 16, |&n| n * 10), [50]);
        let none: [u64; 0] = [];
        assert!(par_map_with_threads(&none, 4, |&n| n).is_empty());
        assert!(par_map_with_threads(&none, 0, |&n| n).is_empty());
        assert_eq!(par_map_with_threads(&[7u64], 0, |&n| n), [7]);
    }

    #[test]
    fn two_jobs_run_at_the_same_time() {
        // Each job waits for the other: this returns only if two workers
        // are inside `f` at once, on however many cores.
        let barrier = Barrier::new(2);
        let out = par_map_with_threads(&[1u32, 2], 2, |&n| {
            barrier.wait();
            n
        });
        assert_eq!(out, [1, 2]);
    }

    #[test]
    fn a_panicking_job_surfaces_on_the_caller_after_the_others_stopped() {
        // The caller is a worker too, and its panic takes a different
        // road out (through `scope`) than a spawned worker's (through
        // `join`): drive both.
        for panic_on_caller in [true, false] {
            let items: Vec<u64> = (0..16).collect();
            let caller = std::thread::current().id();
            let both_in = Barrier::new(2);
            let met = AtomicBool::new(false);
            let finished = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map_with_threads(&items, 2, |n| {
                    // The first two jobs meet, so they are on different
                    // threads and the panic happens with a job in flight.
                    if !met.load(Ordering::SeqCst) {
                        both_in.wait();
                        met.store(true, Ordering::SeqCst);
                        if (std::thread::current().id() == caller) == panic_on_caller {
                            panic!("job {n} exploded");
                        }
                    }
                    let out = uneven(n);
                    finished.fetch_add(1, Ordering::SeqCst);
                    out
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("payload is the formatted message");
            assert!(
                message == "job 0 exploded" || message == "job 1 exploded",
                "{message}"
            );
            // The surviving worker ran every other job before the panic
            // was let through: nothing is still running behind it.
            assert_eq!(finished.load(Ordering::SeqCst), items.len() - 1);
        }
    }
}
