//! A self-scheduling batch executor on `std::thread::scope`.
//!
//! Jobs are indices `0..n`; workers claim them in index order from one
//! shared atomic counter, so load balances dynamically (a slow job holds
//! up only its own worker) and results complete roughly in order. Results
//! are handed back **in submission order** regardless of which worker ran
//! what, so callers see serial semantics — either all at once
//! ([`Pool::run_ordered`]) or streamed to a sink as the in-order frontier
//! advances ([`Pool::stream_ordered`]).
//!
//! The executor is deliberately free of `unsafe` and of locks: workers
//! send `(index, result)` pairs over a channel to the calling thread,
//! which emits them in index order (jobs here are milliseconds-long
//! optimizations, so the channel traffic is noise).

use std::any::Any;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A fixed-width worker pool.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism.
    #[must_use]
    pub fn auto() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The within-job fan-out budget for a batch of `n_jobs`: pool workers
    /// divided evenly among the jobs that can run concurrently, never less
    /// than 1. A pure function of `(threads, n_jobs)` — independent of
    /// scheduling — so the budget itself can never introduce run-to-run
    /// variation. Small batches on a wide pool get leftover workers for
    /// within-state parallelism; saturated batches get 1 (all parallelism
    /// stays across jobs). [`Pool::stream_ordered`] runs every job under
    /// this budget (`qaoa::eval::with_within_state_threads`).
    #[must_use]
    pub fn inner_threads(&self, n_jobs: usize) -> usize {
        self.threads / n_jobs.clamp(1, self.threads)
    }

    /// Runs `job(0..n_jobs)` across the pool, returning results in
    /// submission order. `job` must be a pure function of the index for the
    /// output to be schedule-independent — the engine guarantees this by
    /// deriving all per-job randomness from stable keys (see
    /// [`qaoa::stablehash`]).
    ///
    /// # Panics
    ///
    /// As [`Pool::stream_ordered`]: the payload of the lowest-indexed
    /// panicked job is re-raised once the other jobs have run.
    pub fn run_ordered<T, F>(&self, n_jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(n_jobs);
        let streamed = self.stream_ordered(n_jobs, job, |_, value| {
            out.push(value);
            Ok::<(), Infallible>(())
        });
        match streamed {
            Ok(()) => out,
            Err(never) => match never {},
        }
    }

    /// Runs `job(0..n_jobs)` across the pool and hands each result to
    /// `sink(index, result)` on the calling thread, in submission order, as
    /// soon as it and every earlier result are done — a caller can stream
    /// output while later jobs still run. A `sink` error stops the batch:
    /// workers start no new job, later results are dropped, and the error
    /// is returned.
    ///
    /// Each job runs under the batch's within-state budget
    /// ([`Pool::inner_threads`]), so a batch narrower than the pool hands
    /// its leftover workers to each job's kernels. The kernels are
    /// deterministic in the budget, so results do not depend on it.
    ///
    /// # Panics
    ///
    /// A panicking job does not take its siblings down: the panic is caught
    /// on the worker, which stops; the remaining workers run the rest of the
    /// batch (results before the panicked index still reach `sink`), and
    /// the payload of the lowest-indexed panicked job is then re-raised on
    /// the caller via `resume_unwind` — so the *original* panic surfaces.
    pub fn stream_ordered<T, E, F, S>(&self, n_jobs: usize, job: F, mut sink: S) -> Result<(), E>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        S: FnMut(usize, T) -> Result<(), E>,
    {
        let inner = self.inner_threads(n_jobs);
        let job = |index| qaoa::eval::with_within_state_threads(inner, || job(index));
        let workers = self.threads.min(n_jobs).max(1);
        if workers == 1 {
            return (0..n_jobs).try_for_each(|index| sink(index, job(index)));
        }

        let next_job = AtomicUsize::new(0);
        let (sender, results) = mpsc::channel::<(usize, std::thread::Result<T>)>();
        // The lowest-indexed job panic seen so far, to re-raise at the end.
        let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
        let mut outcome = Ok(());

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (next_job, job, sender) = (&next_job, &job, sender.clone());
                scope.spawn(move || {
                    loop {
                        let index = next_job.fetch_add(1, Ordering::Relaxed);
                        if index >= n_jobs {
                            break;
                        }
                        let result = catch_unwind(AssertUnwindSafe(|| job(index)));
                        // A panicked worker stops; its siblings take the
                        // rest. A closed channel means the caller is gone.
                        let panicked = result.is_err();
                        if sender.send((index, result)).is_err() || panicked {
                            break;
                        }
                    }
                });
            }
            drop(sender);

            // Ordered emission: park out-of-order results until the
            // frontier reaches them. The loop ends once every worker has
            // exited (all senders dropped).
            let mut parked: Vec<Option<T>> = (0..n_jobs).map(|_| None).collect();
            let mut next = 0;
            for (index, result) in results {
                match result {
                    Ok(value) => parked[index] = Some(value),
                    Err(payload) => {
                        if first_panic.as_ref().is_none_or(|(i, _)| index < *i) {
                            first_panic = Some((index, payload));
                        }
                    }
                }
                while outcome.is_ok() {
                    let Some(value) = parked.get_mut(next).and_then(Option::take) else {
                        break;
                    };
                    outcome = sink(next, value);
                    next += 1;
                }
                if outcome.is_err() {
                    // Claim every remaining index: no worker starts
                    // another job.
                    next_job.store(n_jobs, Ordering::Relaxed);
                }
            }
        });

        if let Some((_, payload)) = first_panic {
            resume_unwind(payload);
        }
        outcome
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_submission_order() {
        let pool = Pool::new(4);
        let out = pool.run_ordered(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = Pool::new(3);
        let counter = AtomicUsize::new(0);
        let out = pool.run_ordered(57, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 57);
        assert_eq!(out.len(), 57);
    }

    #[test]
    fn single_thread_and_empty_batches() {
        assert_eq!(Pool::new(1).run_ordered(5, |i| i), vec![0, 1, 2, 3, 4]);
        assert!(Pool::new(4).run_ordered(0, |i| i).is_empty());
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn uneven_jobs_are_stolen() {
        // One pathologically slow job; the other workers should drain the
        // rest. Functional check only: results stay ordered and complete.
        let pool = Pool::new(4);
        let out = pool.run_ordered(32, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_jobs() {
        let pool = Pool::new(16);
        assert_eq!(pool.run_ordered(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn inner_threads_splits_idle_workers() {
        let pool = Pool::new(8);
        // Saturated or oversubscribed batches keep all parallelism across jobs.
        assert_eq!(pool.inner_threads(8), 1);
        assert_eq!(pool.inner_threads(100), 1);
        // Narrow batches hand leftover workers to each job.
        assert_eq!(pool.inner_threads(2), 4);
        assert_eq!(pool.inner_threads(3), 2);
        assert_eq!(pool.inner_threads(1), 8);
        // Degenerate inputs stay sane.
        assert_eq!(pool.inner_threads(0), 8);
        assert_eq!(Pool::new(1).inner_threads(4), 1);
    }

    #[test]
    fn fanout_passes_one_budget_to_every_job() {
        let pool = Pool::new(4);
        let budgets = pool.run_ordered(2, |i| (i, qaoa::eval::within_state_threads()));
        assert_eq!(budgets, vec![(0, 2), (1, 2)]);
        assert_eq!(
            Pool::new(4).run_ordered(1, |_| qaoa::eval::within_state_threads()),
            vec![4]
        );
        // The caller's own budget is untouched.
        assert_eq!(qaoa::eval::within_state_threads(), 1);
    }

    #[test]
    fn stream_emits_in_order_and_a_sink_error_stops_the_batch() {
        for threads in [1, 3] {
            let pool = Pool::new(threads);
            let ran = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let streamed = pool.stream_ordered(
                200,
                |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    // Later jobs are slow, so the stop lands long before
                    // the workers could drain the batch.
                    if i >= 20 {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    i
                },
                |index, value| {
                    assert_eq!(index, value);
                    seen.push(value);
                    if value == 9 {
                        Err("enough")
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(streamed, Err("enough"));
            assert_eq!(seen, (0..10).collect::<Vec<_>>());
            let ran = ran.load(Ordering::Relaxed);
            if threads == 1 {
                assert_eq!(ran, 10, "the serial path stops at the failing sink");
            } else {
                assert!(ran < 200, "workers must stop taking jobs: {ran} ran");
            }
        }
    }

    #[test]
    fn job_panic_propagates_the_original_payload() {
        // Regression test: a panicking job used to poison its queue mutex,
        // killing sibling workers on `expect("queue lock")` — the caller
        // saw the *mask* panic instead of the original one.
        let pool = Pool::new(4);
        let ran = AtomicUsize::new(0);
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_ordered(32, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 5 {
                    panic!("job five exploded");
                }
                i
            })
        }));
        let payload = unwound.expect_err("the job panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .expect("original payload type survives");
        assert!(
            message.contains("job five exploded"),
            "caller must see the job's panic, not a poisoned-lock panic: {message}"
        );
        // Sibling workers kept claiming jobs: far more than the panicking
        // worker's share ran.
        assert!(ran.load(Ordering::Relaxed) > 8);
    }

    #[test]
    fn lowest_indexed_panic_wins_when_every_job_panics() {
        // With every job panicking, each worker records its first claim; the
        // propagated payload must be the lowest *ran* index — and with
        // 2 workers over 2 jobs, job 0 always runs, so the winner is
        // deterministic.
        let pool = Pool::new(2);
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_ordered(2, |i| -> usize { panic!("boom {i}") })
        }));
        let payload = unwound.expect_err("must propagate");
        let message = payload.downcast_ref::<String>().expect("String payload");
        assert_eq!(message, "boom 0");
    }

    #[test]
    fn pool_is_reusable_after_a_panicked_batch() {
        let pool = Pool::new(3);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_ordered(9, |i| {
                if i == 0 {
                    panic!("first batch dies");
                }
                i
            })
        }));
        // The next batch on the same pool runs clean.
        assert_eq!(pool.run_ordered(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn drain_stress_does_not_deadlock() {
        // Thousands of tiny rounds make the end-of-batch race (workers
        // claiming past the last job while others still send) likely; no
        // round may hang or lose a result.
        let pool = Pool::new(2);
        for round in 0..5_000 {
            let out = pool.run_ordered(4, |i| i + round);
            assert_eq!(out.len(), 4);
        }
    }
}
