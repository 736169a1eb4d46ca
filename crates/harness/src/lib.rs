//! A deterministic scoped-thread job pool for embarrassingly-parallel
//! experiment sweeps.
//!
//! The paper's evaluation (§V) is a grid of scenarios × directions ×
//! trials, and every cell is an *independent* deterministic simulation
//! world: worlds share no state, each derives its RNG stream from
//! `(base seed, trial)` alone, and a cell's result is a pure function of
//! its job descriptor. That makes the sweep safe to fan out across OS
//! threads — *provided the join is deterministic*. This crate supplies
//! exactly that:
//!
//! * [`Pool::map`] hands jobs to workers through an atomic claim counter
//!   (dynamic load balance — cells differ in cost by orders of magnitude,
//!   e.g. POX3 vs. Linespeed), but every result is slotted back by its
//!   **job index**, so the output `Vec` is always in canonical input
//!   order regardless of thread count or OS scheduling.
//! * Aggregation stays with the caller, who folds the returned `Vec` in
//!   index order — floating-point sums therefore associate identically
//!   at one worker and at N, making parallel sweeps
//!   bit-identical to serial ones (enforced by the workspace
//!   `harness_determinism` test).
//!
//! No external dependencies, no unsafe: workers are `std::thread::scope`
//! threads, so borrowed job data needs no `'static` bound.
//!
//! The thread count comes from (highest priority first) an explicit
//! [`Pool::new`], the `NETCO_THREADS` environment variable, or
//! [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "NETCO_THREADS";

/// A fixed-size scoped-thread worker pool.
///
/// The pool itself is trivially cheap to construct (it holds only the
/// worker count); threads are spawned per [`Pool::map`] call and joined
/// before it returns, so no state leaks between sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: NonZeroUsize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: NonZeroUsize::new(threads.max(1)).expect("max(1) is non-zero"),
        }
    }

    /// The serial pool: one worker, jobs run on the calling thread in
    /// input order. The baseline every parallel run must be bit-identical
    /// to.
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// Reads `NETCO_THREADS`; falls back to the host's available
    /// parallelism. Invalid or zero values fall back too.
    pub fn from_env() -> Pool {
        match std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
        {
            Some(n) => Pool::new(n),
            None => Pool::new(
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1),
            ),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Runs `f` over every job and returns the results **in job order**.
    ///
    /// Jobs are claimed dynamically (one atomic fetch-add per job), so a
    /// slow cell never idles the other workers, yet the result order — and
    /// therefore any order-sensitive fold the caller performs — is a pure
    /// function of the input, independent of thread count and scheduling.
    ///
    /// With one worker (or at most one job) everything runs on the calling
    /// thread with no synchronization at all.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job (the remaining workers finish their
    /// claimed jobs first).
    pub fn map<I, T, F>(&self, jobs: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        let n = jobs.len();
        let workers = self.threads.get().min(n);
        if workers <= 1 {
            return jobs.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut out: Vec<(usize, T)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return out;
                }
                out.push((i, f(&jobs[i])));
            }
        };
        let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            // The calling thread is worker 0 — never left idle.
            let own = worker();
            let mut all = vec![own];
            for h in handles {
                match h.join() {
                    Ok(v) => all.push(v),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            all
        });
        // Canonical join: slot results by job index.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, t) in per_worker.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "job {i} claimed twice");
            slots[i] = Some(t);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every claimed job produced a result"))
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Pool {
        Pool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn results_in_job_order_any_thread_count() {
        let jobs: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = Pool::new(threads).map(&jobs, |&j| j * j);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let jobs: Vec<usize> = (0..100).collect();
        let seen = Mutex::new(Vec::new());
        Pool::new(4).map(&jobs, |&j| seen.lock().unwrap().push(j));
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 100);
        assert_eq!(seen.iter().copied().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn empty_and_single_job() {
        let pool = Pool::new(8);
        assert_eq!(pool.map(&[] as &[u8], |&b| b), Vec::<u8>::new());
        assert_eq!(pool.map(&[7u8], |&b| b + 1), vec![8]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn borrows_non_static_data() {
        let data = [String::from("a"), String::from("bb")];
        let jobs: Vec<&String> = data.iter().collect();
        let lens = Pool::new(2).map(&jobs, |s| s.len());
        assert_eq!(lens, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "job five")]
    fn worker_panic_propagates() {
        let jobs: Vec<usize> = (0..32).collect();
        Pool::new(4).map(&jobs, |&j| {
            if j == 5 {
                panic!("job five");
            }
            j
        });
    }

    #[test]
    fn float_fold_bit_identical_across_thread_counts() {
        // The determinism contract: index-ordered results make an
        // order-sensitive fold reproduce exactly.
        let jobs: Vec<u64> = (1..200).collect();
        let cell = |&j: &u64| 1.0_f64 / j as f64;
        let fold = |v: Vec<f64>| v.into_iter().sum::<f64>().to_bits();
        let serial = fold(Pool::serial().map(&jobs, cell));
        for threads in [2, 5, 16] {
            assert_eq!(fold(Pool::new(threads).map(&jobs, cell)), serial);
        }
    }
}
