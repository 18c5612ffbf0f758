//! Batch execution of independent QAOA optimization jobs.
//!
//! A [`Job`] is one `(graph, depth, restarts)` optimization; an [`Engine`]
//! fans a queue of jobs across its worker [`Pool`](crate::Pool) and returns
//! the [`InstanceOutcome`]s **in submission order**, plus a [`BatchReport`]
//! with per-job wall time and the function-call accounting that
//! `optimize::Counted` threads through every outcome.
//!
//! Depth-1 jobs are routed through the engine's isomorphism
//! [`Level1Cache`]: the solve runs on the canonical representative graph
//! with an RNG seeded from the canonical class hash and the restarts
//! count, so isomorphic jobs with equal restarts produce bit-identical
//! outcomes and hit each other's cache entries — at any worker count, in
//! any schedule. The cache key ([`Level1Key`]) carries every input of the
//! solve — class, restarts, master seed, optimizer and options — so jobs
//! that differ in any of them never serve each other's bits.

#![expect(
    clippy::disallowed_methods,
    reason = "wall-time accounting: JobStats and BatchReport wall times, never in results"
)]

use std::time::{Duration, Instant};

use graphs::Graph;
use optimize::{Optimizer, Options};
use qaoa::datagen::solve_level1;
use qaoa::stablehash::{domain_hash, mix, wide};
use qaoa::{InstanceOutcome, MaxCutProblem, QaoaError, QaoaInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{Level1Cache, Level1Key};
use crate::pool::Pool;

/// One unit of batch work: optimize a `(graph, depth)` QAOA instance with
/// best-of-`restarts` multistart.
#[derive(Debug, Clone)]
pub struct Job {
    /// Problem graph.
    pub graph: Graph,
    /// Circuit depth `p`.
    pub depth: usize,
    /// Random multistart count.
    pub restarts: usize,
}

impl Job {
    /// Convenience constructor.
    #[must_use]
    pub fn new(graph: Graph, depth: usize, restarts: usize) -> Self {
        Self {
            graph,
            depth,
            restarts,
        }
    }

    /// Stable key of this job at `index` in its queue — the input to its
    /// seed derivation, independent of scheduling.
    #[must_use]
    pub fn stable_key(&self, index: usize) -> u64 {
        let mut h: u64 = wide(self.graph.n_nodes());
        for e in self.graph.edges() {
            h = mix(h, &[wide(e.u), wide(e.v), e.weight.to_bits()]);
        }
        mix(h, &[wide(self.depth), wide(self.restarts), wide(index)])
    }
}

/// Batch-wide execution settings.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Master seed every per-job RNG is derived from.
    pub master_seed: u64,
    /// Optimizer options for all jobs.
    pub options: Options,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            master_seed: 2020,
            options: Options::default(),
        }
    }
}

/// Per-job accounting.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// Wall-clock time of this job on its worker.
    pub wall: Duration,
    /// Objective evaluations spent (`nfev`, from `optimize::Counted`).
    pub function_calls: usize,
    /// Analytic adjoint-gradient evaluations spent (`njev`); 0 for
    /// gradient-free optimizers.
    pub gradient_calls: usize,
    /// Whether the depth-1 cache served this job.
    pub cache_hit: bool,
}

/// Aggregated accounting for one batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job stats, in submission order.
    pub jobs: Vec<JobStats>,
    /// End-to-end wall-clock time of the batch.
    pub wall: Duration,
    /// Worker count used.
    pub threads: usize,
    /// Sum of all jobs' function calls (`nfev`).
    pub total_function_calls: usize,
    /// Sum of all jobs' analytic gradient evaluations (`njev`).
    pub total_gradient_calls: usize,
    /// Depth-1 cache hits within this batch.
    pub cache_hits: usize,
    /// Depth-1 cache misses (solves) within this batch.
    pub cache_misses: usize,
}

impl BatchReport {
    /// Sum of per-job wall times — the serial-equivalent compute time.
    /// `busy() / wall` approximates the parallel speedup achieved.
    #[must_use]
    pub fn busy(&self) -> Duration {
        self.jobs.iter().map(|j| j.wall).sum()
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} jobs on {} threads: wall {:.2?}, busy {:.2?} ({:.2}x), {} fn calls (+{} grad), cache {}/{} hit",
            self.jobs.len(),
            self.threads,
            self.wall,
            self.busy(),
            self.busy().as_secs_f64() / self.wall.as_secs_f64().max(1e-9),
            self.total_function_calls,
            self.total_gradient_calls,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
        )
    }
}

/// The batch executor: a worker pool plus the shared depth-1 cache.
/// `Engine::default()` sizes the pool to the machine's available
/// parallelism.
#[derive(Debug, Default)]
pub struct Engine {
    pool: Pool,
    cache: Level1Cache,
}

impl Engine {
    /// An engine with `threads` workers and an empty cache.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            pool: Pool::new(threads),
            cache: Level1Cache::new(),
        }
    }

    /// The worker pool.
    #[must_use]
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The shared depth-1 optimum cache.
    #[must_use]
    pub fn cache(&self) -> &Level1Cache {
        &self.cache
    }

    /// Worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Solves the depth-1 instance of `graph`'s canonical class
    /// ([`qaoa::datagen::solve_level1`]) through the cache, under the key
    /// [`Level1Key::for_solve`] builds from the same arguments, so a
    /// lookup is served only the outcome of this very solve. Returns
    /// `(outcome, was_hit)`.
    ///
    /// # Errors
    ///
    /// Propagates instance-construction and optimizer errors.
    pub fn level1_cached(
        &self,
        graph: &Graph,
        optimizer: &dyn Optimizer,
        restarts: usize,
        config: &BatchConfig,
    ) -> Result<(InstanceOutcome, bool), QaoaError> {
        let key = Level1Key::for_solve(graph, optimizer, restarts, config);
        self.cache.get_or_solve(&key, || {
            solve_level1(
                &key.class,
                optimizer,
                restarts,
                config.master_seed,
                &config.options,
            )
        })
    }

    /// Runs `jobs` across the pool, returning outcomes in submission order
    /// together with the batch report.
    ///
    /// Determinism contract: for a fixed `jobs` queue and
    /// `config.master_seed`, the outcomes are bit-identical at **any**
    /// worker count — every job's RNG is derived from its stable key, and
    /// depth-1 cache entries are pure functions of the graph's canonical
    /// class.
    ///
    /// When the batch is narrower than the pool, leftover workers are
    /// granted to each job as a within-state kernel budget (the pool
    /// applies [`Pool::inner_threads`] to every job it runs), so one
    /// large-`n` evaluation no longer serializes on a single core.
    /// The budget never affects results (the SoA kernels are deterministic
    /// in it), so the contract above is unchanged.
    ///
    /// # Errors
    ///
    /// Returns the first (in submission order) job error.
    pub fn run_batch(
        &self,
        optimizer: &(dyn Optimizer + Sync),
        jobs: &[Job],
        config: &BatchConfig,
    ) -> Result<(Vec<InstanceOutcome>, BatchReport), QaoaError> {
        let batch_start = Instant::now();
        let results: Vec<Result<(InstanceOutcome, JobStats), QaoaError>> =
            self.pool.run_ordered(jobs.len(), |i| {
                let job = &jobs[i];
                let start = Instant::now();
                let (outcome, cache_hit) = if job.depth == 1 {
                    self.level1_cached(&job.graph, optimizer, job.restarts, config)?
                } else {
                    // Depth >= 2: the job seed drives the multistart RNG,
                    // keeping outcomes pure functions of the queue at any
                    // worker count.
                    let instance = QaoaInstance::new(MaxCutProblem::new(&job.graph)?, job.depth)?;
                    let job_seed = mix(
                        config.master_seed,
                        &[domain_hash("batch"), job.stable_key(i)],
                    );
                    let mut rng = StdRng::seed_from_u64(job_seed);
                    let outcome = instance.optimize_multistart(
                        optimizer,
                        job.restarts,
                        &mut rng,
                        &config.options,
                    )?;
                    (outcome, false)
                };
                let stats = JobStats {
                    wall: start.elapsed(),
                    function_calls: outcome.function_calls,
                    gradient_calls: outcome.gradient_calls,
                    cache_hit,
                };
                Ok((outcome, stats))
            });

        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut job_stats = Vec::with_capacity(jobs.len());
        for result in results {
            let (outcome, stats) = result?;
            outcomes.push(outcome);
            job_stats.push(stats);
        }
        let cache_hits = job_stats.iter().filter(|s| s.cache_hit).count();
        let cache_misses = jobs
            .iter()
            .zip(&job_stats)
            .filter(|(job, stats)| job.depth == 1 && !stats.cache_hit)
            .count();
        let report = BatchReport {
            total_function_calls: job_stats.iter().map(|s| s.function_calls).sum(),
            total_gradient_calls: job_stats.iter().map(|s| s.gradient_calls).sum(),
            cache_hits,
            cache_misses,
            wall: batch_start.elapsed(),
            threads: self.threads(),
            jobs: job_stats,
        };
        Ok((outcomes, report))
    }
}
