//! # btc-par
//!
//! A hermetic, std-only scoped thread pool for the experiment sweeps of
//! the reproduction. Every reproduced artifact (Figure 6/8/10, Table
//! II/III, the evasion sweep, the detection baselines) is a list of
//! *independent, deterministically-seeded* runs; this crate fans such a
//! list across cores without changing a single output byte.
//!
//! ## Why not rayon/crossbeam
//!
//! The workspace builds offline with zero external crates (PR 1 shimmed
//! the externals out deliberately). The pool here is built from
//! `std::thread::scope`, one `Mutex`-guarded queue and an `AtomicBool`
//! only.
//!
//! ## One shared queue
//!
//! The input is one `Mutex` over `items.into_iter().enumerate()`. Each
//! worker pops the next `(index, item)`, releases the lock, runs `f`,
//! and keeps its `(index, result)` pairs until the queue is empty; the
//! caller joins the workers and sorts the pairs by index. A sweep task
//! is a whole simulation, so one lock taken once per task is never the
//! bottleneck, and a free worker always takes the next task, which is
//! all the load balancing such coarse tasks need.
//!
//! ## Determinism contract
//!
//! [`par_map`] returns the result of input `i` at output position `i`,
//! so for a pure `f` the returned vector is **identical for every `jobs`
//! value** — byte for byte, regardless of how the OS schedules the
//! workers. The serial path (`jobs <= 1` or at most one item) runs `f`
//! inline on the caller's thread with no pool at all, which makes
//! `--jobs 1` the exact pre-parallelism code path.
//!
//! ## Panics
//!
//! A panic inside `f` aborts the sweep: it sets a stop flag, no task
//! starts after it, the running ones finish, and one panic payload is
//! re-raised on the caller's thread — the same observable behavior as a
//! panic in a serial `map` loop, minus any later side effects.

#![warn(missing_docs)]

pub mod phase;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The default worker count: `std::thread::available_parallelism`, or 1
/// when the parallelism cannot be queried (the serial path).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` over `items` on `jobs` worker threads, returning the results
/// in **input order**. See the crate docs for the determinism contract.
///
/// `jobs <= 1` (or fewer than two items) executes serially on the
/// caller's thread.
///
/// # Panics
///
/// Re-raises a panic raised by an invocation of `f`; no task starts
/// after the first panic.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = jobs.min(items.len());
    let queue = Mutex::new(items.into_iter().enumerate());
    // A stop hint only: results travel through the join handles, so the
    // flag publishes no data and `Relaxed` suffices.
    let stop = AtomicBool::new(false);
    let worker = || {
        let mut done = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            // The guard is a temporary of this statement: `f` runs
            // unlocked.
            let Some((i, item)) = queue.lock().expect("queue lock").next() else {
                break;
            };
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => done.push((i, r)),
                Err(payload) => {
                    stop.store(true, Ordering::Relaxed);
                    resume_unwind(payload);
                }
            }
        }
        done
    };

    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&worker)).collect();
        // A worker's panic unwinds the scope, which joins the other
        // workers before it re-raises the payload.
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order_for_every_job_count() {
        let items: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for jobs in [1, 2, 3, 7, 32] {
            let got = par_map(jobs, items.clone(), |x| x * x + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(8, empty, |x| x + 1), Vec::<u32>::new());
        assert_eq!(par_map(8, vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn more_jobs_than_items() {
        assert_eq!(par_map(64, vec![1, 2, 3], |x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = par_map(4, (0..1000).collect::<Vec<usize>>(), |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<usize>>());
    }

    #[test]
    fn propagates_the_panic_payload() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(4, (0..64).collect::<Vec<u32>>(), |i| {
                if i == 13 {
                    panic!("boom at {i}");
                }
                i
            })
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("boom at"), "payload {msg:?}");
    }

    #[test]
    fn serial_path_panics_too() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(1, vec![1u8], |_| -> u8 { panic!("serial boom") })
        }));
        assert!(err.is_err());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
