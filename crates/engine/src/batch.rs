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
//! any schedule. The cache key carries the restarts count
//! ([`Level1Key`](crate::cache::Level1Key)), so jobs that differ only in
//! restarts never serve each other's bits.

use std::time::{Duration, Instant};

use graphs::Graph;
use optimize::{Optimizer, Options};
use qaoa::canonical::graph_key;
use qaoa::{
    InstanceOutcome, MaxCutProblem, ParameterPredictor, QaoaError, QaoaInstance, Scenario,
    TwoLevelConfig, TwoLevelFlow, TwoLevelOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{Level1Cache, Level1Key};
use crate::pool::Pool;
use crate::seed;

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

    /// Stable key of this job at `index` in its queue — the input to
    /// [`seed::derive2`], independent of scheduling.
    #[must_use]
    pub fn stable_key(&self, index: usize) -> u64 {
        let mut h: u64 = seed::wide(self.graph.n_nodes());
        for e in self.graph.edges() {
            h = seed::mix(h, &[seed::wide(e.u), seed::wide(e.v), e.weight.to_bits()]);
        }
        seed::mix(
            h,
            &[
                seed::wide(self.depth),
                seed::wide(self.restarts),
                seed::wide(index),
            ],
        )
    }
}

/// Batch-wide execution settings.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Master seed every per-job RNG is derived from.
    pub master_seed: u64,
    /// Optimizer options for all jobs.
    pub options: Options,
    /// Route depth-1 jobs through the isomorphism cache.
    pub use_cache: bool,
    /// Evaluation scenario every job's objective runs under. Non-exact
    /// scenarios bypass the depth-1 cache entirely — its entries are exact
    /// optima keyed on the canonical class, and a sampled or noisy solve is
    /// a different quantity that must never be served exact bits.
    pub scenario: Scenario,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            master_seed: 2020,
            options: Options::default(),
            use_cache: true,
            scenario: Scenario::Exact,
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

    /// An engine sized to the machine's available parallelism.
    #[must_use]
    pub fn auto() -> Self {
        Self {
            pool: Pool::auto(),
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

    /// Solves the depth-1 instance of `graph`'s canonical class, through
    /// the cache. The solve operates on the **canonical representative**
    /// with an RNG seeded from the class hash and the restarts count,
    /// making the result a pure function of
    /// `(master_seed, class, restarts)` — identical for every isomorphic
    /// graph and every schedule. The cache entry is keyed on
    /// `(class, restarts)` to match, so differing restart counts never
    /// conflate. Returns `(outcome, was_hit)`.
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
        let key = Level1Key::new(graph_key(graph), restarts);
        let solve = || {
            let representative = key.class.to_graph()?;
            let problem = MaxCutProblem::new(&representative)?;
            let instance = QaoaInstance::new(problem, 1)?;
            let mut rng = StdRng::seed_from_u64(seed::derive2(
                config.master_seed,
                "level1",
                key.class.hash64(),
                seed::wide(restarts),
            ));
            instance.optimize_multistart(optimizer, restarts, &mut rng, &config.options)
        };
        if config.use_cache {
            self.cache.get_or_solve(&key, solve)
        } else {
            Ok((solve()?, false))
        }
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
    /// granted to each job as a within-state kernel budget
    /// ([`Pool::inner_threads`] → `qaoa::eval::with_within_state_threads`),
    /// so one large-`n` evaluation no longer serializes on a single core.
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
            self.pool.run_ordered_fanout(jobs.len(), |i, inner| {
                qaoa::eval::with_within_state_threads(inner, || {
                    let job = &jobs[i];
                    let start = Instant::now();
                    let (outcome, cache_hit) = if job.depth == 1 && config.scenario.is_exact() {
                        self.level1_cached(&job.graph, optimizer, job.restarts, config)?
                    } else {
                        // Uncached path: depth >= 2, or any non-exact
                        // scenario (including depth-1 — the cache stores
                        // exact optima only). The job seed drives both the
                        // multistart RNG and the scenario's internal
                        // stochasticity, keeping outcomes pure functions of
                        // the queue at any worker count.
                        let problem = MaxCutProblem::new(&job.graph)?;
                        let job_seed = seed::mix(
                            config.master_seed,
                            &[seed::domain_hash("batch"), job.stable_key(i)],
                        );
                        let instance = QaoaInstance::with_scenario(
                            problem,
                            job.depth,
                            &config.scenario,
                            job_seed,
                        )?;
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
                })
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

    /// Runs the two-level flow over a batch of graphs with the level-1
    /// optimization served by the isomorphism cache: each graph's `p = 1`
    /// optimum is computed once per canonical class (via
    /// [`Engine::level1_cached`]) and fed to
    /// [`TwoLevelFlow::run_with_level1`], so isomorphic instances skip
    /// level 1 entirely.
    ///
    /// Cache-hit level-1 calls are still accounted in each outcome's
    /// `level1_calls` (the cached solve's cost), keeping outcomes
    /// bit-identical whether or not the cache was warm; the report's
    /// `cache_hits` shows how much work was actually skipped.
    ///
    /// Outcomes are in graph order and identical at any worker count.
    ///
    /// # Errors
    ///
    /// Returns the first (in graph order) flow error.
    pub fn run_two_level_batch(
        &self,
        graphs: &[Graph],
        target_depth: usize,
        optimizer: &(dyn Optimizer + Sync),
        predictor: &ParameterPredictor,
        level1_starts: usize,
        config: &BatchConfig,
    ) -> Result<(Vec<TwoLevelOutcome>, BatchReport), QaoaError> {
        let batch_start = Instant::now();
        let flow_config = TwoLevelConfig {
            level1_starts,
            options: config.options,
        };
        let results: Vec<Result<(TwoLevelOutcome, JobStats), QaoaError>> =
            self.pool.run_ordered_fanout(graphs.len(), |i, inner| {
                qaoa::eval::with_within_state_threads(inner, || {
                    let start = Instant::now();
                    let problem = MaxCutProblem::new(&graphs[i])?;
                    let flow = TwoLevelFlow::new(predictor);
                    let (outcome, cache_hit) = if config.scenario.is_exact() {
                        let (level1, cache_hit) =
                            self.level1_cached(&graphs[i], optimizer, level1_starts, config)?;
                        let outcome = flow.run_with_level1(
                            &problem,
                            target_depth,
                            optimizer,
                            &flow_config,
                            &level1,
                        )?;
                        (outcome, cache_hit)
                    } else {
                        // Non-exact scenarios skip the cache (exact-optimum
                        // entries) and run the full two-level flow under the
                        // scenario, seeded per graph index.
                        let graph_seed = seed::mix(
                            config.master_seed,
                            &[seed::domain_hash("two-level-scenario"), seed::wide(i)],
                        );
                        let mut rng = StdRng::seed_from_u64(graph_seed);
                        let outcome = flow.run(
                            &problem,
                            target_depth,
                            optimizer,
                            &flow_config,
                            &mut rng,
                            &config.scenario,
                            graph_seed,
                        )?;
                        (outcome, false)
                    };
                    let stats = JobStats {
                        wall: start.elapsed(),
                        function_calls: outcome.total_calls(),
                        gradient_calls: outcome.gradient_calls,
                        cache_hit,
                    };
                    Ok((outcome, stats))
                })
            });

        let mut outcomes = Vec::with_capacity(graphs.len());
        let mut job_stats = Vec::with_capacity(graphs.len());
        for result in results {
            let (outcome, stats) = result?;
            outcomes.push(outcome);
            job_stats.push(stats);
        }
        let cache_hits = job_stats.iter().filter(|s| s.cache_hit).count();
        let report = BatchReport {
            total_function_calls: job_stats.iter().map(|s| s.function_calls).sum(),
            total_gradient_calls: job_stats.iter().map(|s| s.gradient_calls).sum(),
            cache_hits,
            cache_misses: job_stats.len() - cache_hits,
            wall: batch_start.elapsed(),
            threads: self.threads(),
            jobs: job_stats,
        };
        Ok((outcomes, report))
    }
}
