//! Parallel batch-execution engine for the QAOA pipeline.
//!
//! Every expensive path in this repository — corpus generation (§III-A),
//! the Table-I comparison sweep, the figure/table binaries — is
//! embarrassingly parallel batch work: thousands of independent QAOA
//! optimization loops. This crate turns those loops into scheduled work:
//!
//! * [`Pool`] — a self-scheduling executor on `std::thread::scope` that
//!   runs a batch of jobs across a configurable worker count and returns
//!   results in submission order; every job seeds its RNG from the master
//!   seed and a stable job key ([`qaoa::stablehash`]), the invariant that
//!   makes parallel runs **bit-identical** to serial runs,
//! * [`Level1Cache`] — a concurrent depth-1 optimum cache keyed by every
//!   input of the solve ([`Level1Key`]: canonical class, restarts, seed,
//!   optimizer, options), so isomorphic instances are never re-optimized,
//! * [`Engine`] / [`Job`] / [`BatchReport`] — the batch front door with
//!   per-job wall-clock and function-call accounting,
//! * [`corpus`] — the parallel fan-out of the §III-A corpus generator
//!   ([`qaoa::datagen`] owns the per-cell policy),
//! * [`compare`] — the parallel naive-vs-ML comparison sweep,
//! * [`wire`] — the versioned line-delimited text codec for jobs, outcomes,
//!   canonical keys, corpus records, batch reports, and shard tasking,
//! * [`artifact`] — the policy of every file of solved bits (numerics
//!   token, discard-never-fail loads, atomic writes), behind
//!   [`persist`] (the `QCACHE3` depth-1 cache file) and [`model`] (the
//!   `QMODEL2` predictor file of the `qaoa-predict` service),
//! * [`server`] — the job-server request loop behind the `qaoa-serve`
//!   binary: `JOB` lines in, `OUTCOME`/`REPORT` lines out, in submission
//!   order, plus the worker side of shard tasking (`SHARD`/`RANGE` in,
//!   `RECORD`/`DONE` out),
//! * [`shard`] — the corpus shard coordinator behind the `qaoa-shard`
//!   binary: a validated [`ShardPlan`] over graph-index ranges, driven
//!   over a streaming transport ([`shard::run_streaming`], or
//!   [`shard::run_wire`] to collect the corpus in memory), merging records
//!   in global graph-index order with bounded buffering and re-tasking the
//!   ranges of dead or timed-out workers — output **bit-identical** to the
//!   unsharded run at any worker count,
//! * [`transport`] — the [`ShardTransport`] trait the coordinator drives:
//!   one pipe transport whose workers are in-process threads on OS pipes
//!   ([`transport::LoopbackTransport`]) or spawned `qaoa-serve` processes
//!   ([`transport::SubprocessTransport`]), both read through the same
//!   1 MiB line cap and UTF-8 rule, and fault injectors for the failover
//!   test-suite.
//!
//! # Quickstart
//!
//! ```
//! use engine::{BatchConfig, Engine, Job};
//! use graphs::generators;
//! use optimize::Lbfgsb;
//!
//! # fn main() -> Result<(), qaoa::QaoaError> {
//! let engine = Engine::new(4);
//! let jobs: Vec<Job> = (4..8)
//!     .map(|n| Job::new(generators::cycle(n), 1, 3))
//!     .collect();
//! let (outcomes, report) = engine.run_batch(
//!     &Lbfgsb::default(),
//!     &jobs,
//!     &BatchConfig::default(),
//! )?;
//! assert_eq!(outcomes.len(), 4);
//! assert!(report.total_function_calls > 0);
//! println!("{}", report.summary());
//! # Ok(())
//! # }
//! ```
//!
//! # Determinism contract
//!
//! For a fixed job queue and master seed, results at `threads = 1` and
//! `threads = N` are **identical**: no job draws randomness from a shared
//! stream, worker identity, or scheduling order. Depth-1 cache entries are
//! pure functions of their key (every input of the solve), so cache races
//! between isomorphic jobs are benign (all contenders compute the same
//! bits) and jobs that differ in any input never share an entry.

#![cfg_attr(
    test,
    allow(
        clippy::as_conversions,
        reason = "unit tests build fixtures with small literal casts"
    )
)]

pub mod artifact;
pub mod batch;
pub mod cache;
pub mod compare;
pub mod corpus;
pub mod model;
pub mod persist;
pub mod pool;
pub mod server;
pub mod shard;
pub mod transport;
pub mod wire;

pub use artifact::Load;
pub use batch::{BatchConfig, BatchReport, Engine, Job, JobStats};
pub use cache::{Level1Cache, Level1Key};
pub use corpus::CorpusReport;
pub use model::ModelLoad;
pub use persist::LoadStatus;
pub use pool::Pool;
pub use server::ServeSummary;
pub use shard::{ShardError, ShardPlan, ShardReport, ShardStats, StreamOptions};
pub use transport::{
    KillAfter, LoopbackTransport, ShardTransport, StallAfter, SubprocessTransport, TransportError,
};
pub use wire::WireError;

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use optimize::Lbfgsb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batch_outcomes_are_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(400);
        let jobs: Vec<Job> = (0..8)
            .map(|i| {
                Job::new(
                    generators::erdos_renyi_nonempty(5, 0.5, &mut rng),
                    1 + i % 3,
                    2,
                )
            })
            .collect();
        let config = BatchConfig {
            master_seed: 7,
            ..BatchConfig::default()
        };
        let (serial, _) = Engine::new(1)
            .run_batch(&Lbfgsb::default(), &jobs, &config)
            .unwrap();
        let (parallel, report) = Engine::new(4)
            .run_batch(&Lbfgsb::default(), &jobs, &config)
            .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.params, b.params);
            assert_eq!(a.expectation.to_bits(), b.expectation.to_bits());
            assert_eq!(a.function_calls, b.function_calls);
        }
        assert_eq!(report.jobs.len(), 8);
        assert!(report.summary().contains("8 jobs"));
    }

    #[test]
    fn depth1_jobs_hit_the_isomorphism_cache() {
        // The same cycle under two labelings: second job must hit.
        let a = generators::cycle(5);
        let b = graphs::Graph::from_edges(5, &[(1, 3), (3, 0), (0, 4), (4, 2), (2, 1)]).unwrap();
        let jobs = vec![Job::new(a, 1, 2), Job::new(b, 1, 2)];
        let engine = Engine::new(1);
        let (outcomes, report) = engine
            .run_batch(&Lbfgsb::default(), &jobs, &BatchConfig::default())
            .unwrap();
        assert_eq!(report.cache_hits + report.cache_misses, 2);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(outcomes[0].params, outcomes[1].params);
        assert_eq!(engine.cache().len(), 1);
    }

    #[test]
    fn depth1_jobs_with_different_restarts_do_not_conflate() {
        // Two isomorphic depth-1 jobs whose restart counts differ: the
        // second must NOT be served the first's optimum (it was computed
        // under a different multistart budget). Each outcome must equal the
        // same job run alone on a fresh engine.
        let a = generators::cycle(5);
        let b = graphs::Graph::from_edges(5, &[(1, 3), (3, 0), (0, 4), (4, 2), (2, 1)]).unwrap();
        let jobs = vec![Job::new(a, 1, 2), Job::new(b, 1, 3)];
        let engine = Engine::new(1);
        let (outcomes, report) = engine
            .run_batch(&Lbfgsb::default(), &jobs, &BatchConfig::default())
            .unwrap();
        assert_eq!(report.cache_hits, 0, "different restarts must both miss");
        assert_eq!(report.cache_misses, 2);
        assert_eq!(engine.cache().len(), 2, "one entry per restarts variant");
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            let (alone, _) = Engine::new(1)
                .run_batch(
                    &Lbfgsb::default(),
                    std::slice::from_ref(job),
                    &BatchConfig::default(),
                )
                .unwrap();
            assert_eq!(alone[0].params, outcome.params);
            assert_eq!(
                alone[0].expectation.to_bits(),
                outcome.expectation.to_bits()
            );
            assert_eq!(alone[0].function_calls, outcome.function_calls);
        }
    }

    #[test]
    fn cache_does_not_change_results() {
        // The cached batch answers every depth-1 job, hit or miss, with the
        // bits of a direct `solve_level1` call on its class.
        let mut rng = StdRng::seed_from_u64(9);
        let mut jobs: Vec<Job> = (0..4)
            .map(|_| Job::new(generators::erdos_renyi_nonempty(5, 0.6, &mut rng), 1, 2))
            .collect();
        jobs.push(jobs[0].clone());
        let config = BatchConfig::default();
        let (outcomes, report) = Engine::new(2)
            .run_batch(&Lbfgsb::default(), &jobs, &config)
            .unwrap();
        assert!(report.cache_hits >= 1);
        for (job, got) in jobs.iter().zip(&outcomes) {
            let want = qaoa::datagen::solve_level1(
                &qaoa::canonical::graph_key(&job.graph),
                &Lbfgsb::default(),
                job.restarts,
                config.master_seed,
                &config.options,
            )
            .unwrap();
            let bits = |o: &qaoa::InstanceOutcome| {
                let mut b: Vec<u64> = o.params.iter().map(|x| x.to_bits()).collect();
                b.extend([o.expectation.to_bits(), o.approximation_ratio.to_bits()]);
                b
            };
            assert_eq!(bits(got), bits(&want));
            assert_eq!(got.function_calls, want.function_calls);
            assert_eq!(got.gradient_calls, want.gradient_calls);
            assert_eq!(got.termination, want.termination);
        }
    }

    #[test]
    fn empty_batch() {
        let (outcomes, report) = Engine::new(2)
            .run_batch(&Lbfgsb::default(), &[], &BatchConfig::default())
            .unwrap();
        assert!(outcomes.is_empty());
        assert_eq!(report.total_function_calls, 0);
    }

    #[test]
    fn job_errors_propagate() {
        // Depth 0 is invalid and must surface as an error, not a panic.
        let jobs = vec![Job::new(generators::cycle(4), 0, 1)];
        assert!(Engine::new(2)
            .run_batch(&Lbfgsb::default(), &jobs, &BatchConfig::default())
            .is_err());
    }
}
