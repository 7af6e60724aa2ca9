//! Barrier-phased fan-out: a leader repeatedly publishes a `u64` phase
//! value to a fixed set of workers, waits for all of them to finish the
//! phase, and eventually terminates the crew.
//!
//! This is the synchronization core of conservative-lookahead parallel
//! discrete-event simulation (`btc_netsim::shard`): the leader computes a
//! safe horizon, broadcasts it, the leader and the workers advance their
//! partitions to it, and the cycle repeats. The primitive is deliberately
//! tiny — one rendezvous and one `AtomicU64` — so the determinism
//! argument stays trivial: workers only ever read the published value
//! between two full rendezvous, so every worker of every crew size sees
//! the same sequence of phases.
//!
//! A rendezvous polls an atomic generation counter — a short spin, then a
//! bounded run of `yield_now` polls — and only then parks on a `Condvar`.
//! The last thread to arrive usually comes within the polls, so most
//! rendezvous skip the futex wake-up a `std::sync::Barrier` paid every
//! time. The spin is well under a microsecond: with more threads than
//! cores (the swarm check runs four workers on two-core machines) the
//! thread being waited for may need this very core, and a yield hands it
//! over where a spin would burn it. On a 2-core box a bare round trip
//! (announce + await) took 15–20 µs with the `Barrier`, and about 0.5 µs
//! with two threads and 3.5–6 µs with three or four threads this way.
//!
//! ```
//! use btc_par::phase::Phased;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let sum = AtomicU64::new(0);
//! let phased = Phased::new(3);
//! std::thread::scope(|s| {
//!     for _ in 0..3 {
//!         s.spawn(|| {
//!             while let Some(v) = phased.next_phase() {
//!                 sum.fetch_add(v, Ordering::Relaxed);
//!                 phased.finish_phase();
//!             }
//!         });
//!     }
//!     for v in [1u64, 2, 3] {
//!         phased.announce(v);
//!         phased.await_workers();
//!     }
//!     phased.terminate();
//! });
//! assert_eq!(sum.into_inner(), 3 * (1 + 2 + 3));
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// The phase value reserved as the shutdown signal.
const TERMINATE: u64 = u64::MAX;

/// Polls of the generation counter between `spin_loop` hints before a
/// waiter starts yielding.
const SPIN: u32 = 16;

/// Polls, each after a `yield_now`, before a waiter parks: tens of
/// microseconds when the core is otherwise idle.
const YIELDS: u32 = 64;

/// A leader/worker rendezvous broadcasting one `u64` per phase.
///
/// The protocol, per phase: the leader calls [`Phased::announce`] (which
/// releases every worker's [`Phased::next_phase`]), the workers do their
/// phase work and call [`Phased::finish_phase`], and the leader's
/// [`Phased::await_workers`] returns once all have. [`Phased::terminate`]
/// replaces `announce` on the final round and makes every pending
/// `next_phase` return `None`.
///
/// `u64::MAX` is reserved for the shutdown signal and must not be
/// announced as a phase value.
pub struct Phased {
    /// Threads that meet at each rendezvous: the leader plus the workers.
    parties: usize,
    /// Arrivals at the current rendezvous.
    arrived: AtomicUsize,
    /// Completed rendezvous; its change releases the waiters.
    generation: AtomicU64,
    /// Waiters parked on `wake`.
    parked: AtomicUsize,
    /// Guards parking, so a release cannot slip between a waiter's last
    /// check and its sleep.
    sleep: Mutex<()>,
    wake: Condvar,
    value: AtomicU64,
}

impl Phased {
    /// A rendezvous for one leader plus `workers` workers.
    pub fn new(workers: usize) -> Self {
        Phased {
            parties: workers + 1,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            value: AtomicU64::new(0),
        }
    }

    /// Blocks until all parties have called it for this generation. The
    /// last to arrive opens the next generation; everything a party wrote
    /// before arriving is visible to every party after it returns.
    fn rendezvous(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Nobody can arrive for the next generation before it opens,
            // so the reset cannot lose an arrival.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen + 1, Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) > 0 {
                let _sleep = self.sleep.lock().expect("phase lock poisoned");
                self.wake.notify_all();
            }
            return;
        }
        for _ in 0..SPIN {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            std::thread::yield_now();
        }
        // `parked` is raised before the last check and the generation is
        // stored before `parked` is read (both sequentially consistent):
        // either this waiter sees the new generation or the releaser sees
        // it parked and, taking `sleep`, wakes it.
        let mut sleep = self.sleep.lock().expect("phase lock poisoned");
        self.parked.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == gen {
            sleep = self.wake.wait(sleep).expect("phase lock poisoned");
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Leader: publish `v` and release the workers into the phase.
    ///
    /// # Panics
    ///
    /// Panics on the reserved value `u64::MAX` (use
    /// [`Phased::terminate`]).
    pub fn announce(&self, v: u64) {
        assert!(v != TERMINATE, "u64::MAX is the shutdown signal");
        self.value.store(v, Ordering::Release);
        self.rendezvous();
    }

    /// Leader: block until every worker has called
    /// [`Phased::finish_phase`].
    pub fn await_workers(&self) {
        self.rendezvous();
    }

    /// Leader: release the workers one final time with the shutdown
    /// signal; their `next_phase` returns `None` and they exit.
    pub fn terminate(&self) {
        self.value.store(TERMINATE, Ordering::Release);
        self.rendezvous();
    }

    /// Worker: wait for the next phase value; `None` means shut down.
    pub fn next_phase(&self) -> Option<u64> {
        self.rendezvous();
        let v = self.value.load(Ordering::Acquire);
        (v != TERMINATE).then_some(v)
    }

    /// Worker: mark this phase's work done (pairs with the leader's
    /// [`Phased::await_workers`]).
    pub fn finish_phase(&self) {
        self.rendezvous();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs `workers` workers that log every phase value they see while
    /// the leader announces 10..20, calling `lead` with the value and the
    /// logs inside each phase. Returns each worker's log.
    fn crew_logs(workers: usize, lead: impl Fn(u64, &[Mutex<Vec<u64>>])) -> Vec<Vec<u64>> {
        let phased = Phased::new(workers);
        let seen: Vec<Mutex<Vec<u64>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|s| {
            for log in &seen {
                let phased = &phased;
                s.spawn(move || {
                    while let Some(v) = phased.next_phase() {
                        log.lock().unwrap().push(v);
                        phased.finish_phase();
                    }
                });
            }
            for v in 10..20u64 {
                phased.announce(v);
                lead(v, &seen);
                phased.await_workers();
            }
            phased.terminate();
        });
        seen.into_iter()
            .map(|log| log.into_inner().unwrap())
            .collect()
    }

    #[test]
    fn workers_see_every_phase_in_order() {
        let want: Vec<u64> = (10..20).collect();
        for workers in [1usize, 2, 5] {
            for log in crew_logs(workers, |_, _| {}) {
                assert_eq!(log, want);
            }
        }
    }

    /// The leader doing a phase's share of work (as the region rounds'
    /// calling thread does) neither loses nor repeats a phase. Each phase
    /// the leader keeps working until every worker has logged it, so the
    /// workers always wait for the leader at the phase's end.
    #[test]
    fn leader_working_inside_the_phase_keeps_the_order() {
        let want: Vec<u64> = (10..20).collect();
        let led = Mutex::new(Vec::new());
        let logs = crew_logs(3, |v, seen| {
            let logged = |log: &Mutex<Vec<u64>>| log.lock().unwrap().last() == Some(&v);
            while !seen.iter().all(logged) {
                std::thread::yield_now();
            }
            led.lock().unwrap().push(v);
        });
        assert_eq!(led.into_inner().unwrap(), want);
        for log in logs {
            assert_eq!(log, want);
        }
    }

    /// More threads than any test machine has cores: waiters yield and
    /// park, and must all be released every phase.
    #[test]
    fn oversubscribed_crew_sees_every_phase_in_order() {
        let want: Vec<u64> = (10..20).collect();
        let logs = crew_logs(9, |_, _| std::thread::yield_now());
        assert_eq!(logs.len(), 9);
        for log in logs {
            assert_eq!(log, want);
        }
    }

    #[test]
    fn leader_only_crew_terminates_cleanly() {
        let phased = Phased::new(0);
        phased.announce(1);
        phased.await_workers();
        phased.terminate();
    }

    #[test]
    #[should_panic(expected = "shutdown signal")]
    fn reserved_value_is_rejected() {
        let phased = Phased::new(0);
        phased.announce(u64::MAX);
    }
}
