//! The naive-vs-ML comparison harness behind Table I.
//!
//! For every (optimizer, target depth) cell the paper reports the mean and
//! standard deviation of the approximation ratio and of the function-call
//! count over the 264 test graphs, under two protocols:
//!
//! * **naive** — each graph solved from random initializations; AR and FC
//!   are averaged over the `n_starts` independent runs (Table I's FC values
//!   like `0.2172` are thousands of calls per run),
//! * **two-level** — the proposed flow: FC = level-1 calls + ML-initialized
//!   target-depth calls.
//!
//! This module holds one graph's protocol runs, the seed derivations and
//! the row aggregation. The sweep over cells and graphs lives in one
//! place, the `engine` crate's `compare` driver.

use graphs::Graph;
use ml::metrics::{mean, std_dev};
use optimize::{Optimizer, Options};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    count_f64, MaxCutProblem, ParameterPredictor, QaoaError, QaoaInstance, Scenario,
    TwoLevelConfig, TwoLevelFlow,
};

/// Configuration of a Table-I style comparison sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationConfig {
    /// Target depths to evaluate (paper: 2..=5).
    pub depths: Vec<usize>,
    /// Random initializations per graph for the naive protocol (paper: 20).
    pub naive_starts: usize,
    /// Level-1 starts for the two-level protocol.
    pub level1_starts: usize,
    /// Optimizer options for every run.
    pub options: Options,
    /// Seed for all random initializations.
    pub seed: u64,
    /// How every objective evaluation is performed (exact, sampled, or
    /// decohered) — in both protocols, at both levels.
    pub scenario: Scenario,
}

impl EvaluationConfig {
    /// The paper's Table-I configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            depths: vec![2, 3, 4, 5],
            naive_starts: 20,
            level1_starts: 1,
            options: Options::default(),
            seed: 77,
            scenario: Scenario::Exact,
        }
    }

    /// A CI-scale configuration.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            depths: vec![2, 3],
            naive_starts: 3,
            level1_starts: 1,
            options: Options::default(),
            seed: 77,
            scenario: Scenario::Exact,
        }
    }
}

impl Default for EvaluationConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One Table-I row: a (optimizer, depth) cell with both protocols' stats.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Optimizer name (`"L-BFGS-B"`, …).
    pub optimizer: String,
    /// Target depth `pt`.
    pub depth: usize,
    /// Naive protocol: mean AR over graphs × starts.
    pub naive_ar_mean: f64,
    /// Naive protocol: SD of AR.
    pub naive_ar_sd: f64,
    /// Naive protocol: mean function calls per run.
    pub naive_fc_mean: f64,
    /// Naive protocol: SD of function calls.
    pub naive_fc_sd: f64,
    /// Two-level protocol: mean AR over graphs.
    pub ml_ar_mean: f64,
    /// Two-level protocol: SD of AR.
    pub ml_ar_sd: f64,
    /// Two-level protocol: mean total function calls.
    pub ml_fc_mean: f64,
    /// Two-level protocol: SD of total function calls.
    pub ml_fc_sd: f64,
}

impl ComparisonRow {
    /// Percentage reduction in mean function calls (the paper's headline
    /// number; 44.9% on average across its sweep).
    #[must_use]
    pub fn fc_reduction_percent(&self) -> f64 {
        if self.naive_fc_mean <= 0.0 {
            0.0
        } else {
            100.0 * (self.naive_fc_mean - self.ml_fc_mean) / self.naive_fc_mean
        }
    }

    /// Formats the row in Table I's layout (FC in thousands, like the
    /// paper's `0.2172`-style entries).
    #[must_use]
    pub fn to_table_line(&self) -> String {
        format!(
            "{:<12} {:>2}  {:>7.4} {:>7.4} {:>8.4} {:>8.4}  {:>7.4} {:>7.4} {:>8.4} {:>8.4}  {:>6.1}",
            self.optimizer,
            self.depth,
            self.naive_ar_mean,
            self.naive_ar_sd,
            self.naive_fc_mean / 1e3,
            self.naive_fc_sd / 1e3,
            self.ml_ar_mean,
            self.ml_ar_sd,
            self.ml_fc_mean / 1e3,
            self.ml_fc_sd / 1e3,
            self.fc_reduction_percent()
        )
    }
}

/// The header matching [`ComparisonRow::to_table_line`].
#[must_use]
pub fn table_header() -> String {
    format!(
        "{:<12} {:>2}  {:>7} {:>7} {:>8} {:>8}  {:>7} {:>7} {:>8} {:>8}  {:>6}",
        "Optimizer",
        "p",
        "nAR",
        "sdAR",
        "nFC(k)",
        "sdFC(k)",
        "mAR",
        "sdAR",
        "mFC(k)",
        "sdFC(k)",
        "red%"
    )
}

/// Derives the independent RNG seed of one graph within a protocol sweep.
///
/// Both protocols seed **per graph** from `(master, graph_index)` rather
/// than streaming one RNG across the whole sweep. The derivation is a
/// SplitMix64 finalizer, so it is a pure function of its inputs — which is
/// what lets the `engine` crate run per-graph jobs on any number of workers
/// with bit-identical results.
#[must_use]
pub fn graph_seed(master: u64, graph_index: usize) -> u64 {
    use crate::stablehash::{mix64, wide, GOLDEN_GAMMA};
    mix64(master ^ wide(graph_index).wrapping_mul(GOLDEN_GAMMA))
}

/// Runs the naive protocol for a **single** graph: `n_starts` independent
/// random-init optimizations, one `(AR, FC)` sample per start, each
/// objective evaluation performed under `scenario` ([`Scenario::Exact`]
/// reproduces the historical noiseless protocol bit-for-bit).
///
/// # Errors
///
/// Propagates problem-construction, scenario, and optimizer errors.
#[allow(clippy::too_many_arguments)]
pub fn naive_protocol_graph(
    graph: &Graph,
    depth: usize,
    optimizer: &dyn Optimizer,
    n_starts: usize,
    options: &Options,
    seed: u64,
    scenario: &Scenario,
) -> Result<Vec<(f64, usize)>, QaoaError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds = crate::parameter_bounds(depth)?;
    let problem = MaxCutProblem::new(graph)?;
    let instance = QaoaInstance::with_scenario(problem, depth, scenario, seed)?;
    let mut samples = Vec::with_capacity(n_starts);
    for _ in 0..n_starts {
        let start = bounds.sample(&mut rng);
        let out = instance.optimize(optimizer, &start, options)?;
        samples.push((out.approximation_ratio, out.function_calls));
    }
    Ok(samples)
}

/// Runs the two-level protocol for a **single** graph, returning its
/// `(approximation_ratio, total_function_calls)` sample.
///
/// # Errors
///
/// Propagates flow errors.
#[allow(clippy::too_many_arguments)]
pub fn two_level_protocol_graph(
    graph: &Graph,
    depth: usize,
    optimizer: &dyn Optimizer,
    predictor: &ParameterPredictor,
    level1_starts: usize,
    options: &Options,
    seed: u64,
    scenario: &Scenario,
) -> Result<(f64, usize), QaoaError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let flow = TwoLevelFlow::new(predictor);
    let config = TwoLevelConfig {
        level1_starts,
        options: *options,
    };
    let problem = MaxCutProblem::new(graph)?;
    let out = flow.run(
        &problem, depth, optimizer, &config, &mut rng, scenario, seed,
    )?;
    Ok((out.approximation_ratio, out.total_calls()))
}

/// The RNG seed of the `(optimizer_index, depth_index)` cell of a sweep —
/// a pure function of the sweep seed and cell coordinates.
#[must_use]
pub fn cell_seed(master: u64, optimizer_index: usize, depth_index: usize) -> u64 {
    master.wrapping_add(crate::stablehash::wide(
        optimizer_index * 1000 + depth_index,
    ))
}

/// Aggregates per-run samples of both protocols into one [`ComparisonRow`].
#[must_use]
pub fn row_from_samples(
    optimizer_name: &str,
    depth: usize,
    naive: &[(f64, usize)],
    ml: &[(f64, usize)],
) -> ComparisonRow {
    let naive_ar: Vec<f64> = naive.iter().map(|s| s.0).collect();
    let naive_fc: Vec<f64> = naive.iter().map(|s| count_f64(s.1)).collect();
    let ml_ar: Vec<f64> = ml.iter().map(|s| s.0).collect();
    let ml_fc: Vec<f64> = ml.iter().map(|s| count_f64(s.1)).collect();
    ComparisonRow {
        optimizer: optimizer_name.to_string(),
        depth,
        naive_ar_mean: mean(&naive_ar),
        naive_ar_sd: std_dev(&naive_ar),
        naive_fc_mean: mean(&naive_fc),
        naive_fc_sd: std_dev(&naive_fc),
        ml_ar_mean: mean(&ml_ar),
        ml_ar_sd: std_dev(&ml_ar),
        ml_fc_mean: mean(&ml_fc),
        ml_fc_sd: std_dev(&ml_fc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_percent_math() {
        let row = ComparisonRow {
            optimizer: "X".into(),
            depth: 2,
            naive_ar_mean: 0.9,
            naive_ar_sd: 0.0,
            naive_fc_mean: 200.0,
            naive_fc_sd: 0.0,
            ml_ar_mean: 0.9,
            ml_ar_sd: 0.0,
            ml_fc_mean: 100.0,
            ml_fc_sd: 0.0,
        };
        assert_eq!(row.fc_reduction_percent(), 50.0);
        assert!(row.to_table_line().contains("50.0"));
        assert!(table_header().contains("red%"));
        let degenerate = ComparisonRow {
            naive_fc_mean: 0.0,
            ..row
        };
        assert_eq!(degenerate.fc_reduction_percent(), 0.0);
    }
}
