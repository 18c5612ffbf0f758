//! ML-accelerated QAOA for MaxCut — reproduction of Alam, Ash-Saki & Ghosh,
//! *"Accelerating Quantum Approximate Optimization Algorithm using Machine
//! Learning"*, DATE 2020.
//!
//! The paper's observation: the optimal QAOA control parameters
//! `(γᵢ, βᵢ)` of a MaxCut instance are strongly correlated across circuit
//! depths, so a small regression model can predict near-optimal initial
//! parameters for a depth-`pt` circuit from the depth-1 optimum, cutting the
//! classical optimization loop's iteration count by ~45% on average.
//!
//! The crate is organized along the paper's pipeline:
//!
//! * [`MaxCutProblem`] — cost Hamiltonian and exact optimum of a graph,
//! * [`QaoaAnsatz`] — the parametric circuit, with a gate-level path
//!   (Fig. 1(a): H / CNOT·RZ·CNOT / RX layers) and a fast diagonal path,
//!   cross-validated against each other,
//! * [`QaoaInstance`] — the closed optimization loop (quantum simulator +
//!   classical optimizer) with function-call accounting, under any
//!   [`Scenario`] (exact, finite shots, or gate noise),
//! * [`datagen`] — the 330-graph, depth-1..6 training corpus (§III-A),
//! * [`features`] — predictor/response extraction (§II-D), one
//!   [`features::FeatureSet`] per row layout: two-level, hierarchical
//!   (§I(d)) and graph-aware,
//! * [`ParameterPredictor`] — per-stage regression models (§III-C),
//! * [`TwoLevelFlow`] — the proposed accelerated flow (Fig. 4),
//! * [`evaluation`] — the naive-vs-ML comparison harness behind Table I:
//!   one graph's protocol runs, the sweep's seeds and row aggregation (the
//!   `engine` crate's `compare` driver runs the sweep itself).
//!
//! # Quickstart
//!
//! ```
//! use graphs::generators;
//! use optimize::Lbfgsb;
//! use qaoa::{MaxCutProblem, QaoaInstance};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), qaoa::QaoaError> {
//! let graph = generators::cycle(4);
//! let problem = MaxCutProblem::new(&graph)?;
//! let instance = QaoaInstance::new(problem, 1)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let outcome = instance.optimize_multistart(&Lbfgsb::default(), 5, &mut rng, &Default::default())?;
//! assert!(outcome.approximation_ratio > 0.7);
//! # Ok(())
//! # }
//! ```

mod ansatz;
pub mod canonical;
pub mod datagen;
mod error;
pub mod eval;
pub mod evaluation;
pub mod features;
mod instance;
pub mod noisy;
mod predictor;
mod problem;
pub mod sampled;
pub mod scenario;
pub mod stablehash;
mod twolevel;
pub mod warmstart;

pub use ansatz::QaoaAnsatz;
pub use error::QaoaError;
pub use eval::EvalContext;
pub use instance::{InstanceOutcome, QaoaInstance};
pub use predictor::ParameterPredictor;
pub use problem::{MaxCutProblem, MAX_PROBLEM_DEPTH, MAX_PROBLEM_NODES, MAX_RESTARTS};
pub use scenario::Scenario;
pub use twolevel::{TwoLevelConfig, TwoLevelFlow, TwoLevelOutcome};

/// The paper's parameter domain: γ ∈ [0, 2π].
pub const GAMMA_MAX: f64 = 2.0 * std::f64::consts::PI;
/// The paper's parameter domain: β ∈ [0, π].
pub const BETA_MAX: f64 = std::f64::consts::PI;

/// Converts a count, depth or index to `f64`.
///
/// Call counts are bounded by optimizer budgets and depths and indices by
/// the length of a parameter vector or dataset, all far below 2^53, so the
/// conversion is exact.
pub(crate) fn count_f64(n: usize) -> f64 {
    // lint:allow(no-lossy-as) counts and indices are < 2^53 so usize -> f64 is exact here
    n as f64
}

/// Bound-constrained parameter box for a depth-`p` instance, laid out as
/// `[γ₁…γ_p, β₁…β_p]`.
///
/// # Errors
///
/// Returns [`QaoaError::InvalidDepth`] for `p = 0`.
///
/// ```
/// let b = qaoa::parameter_bounds(2).unwrap();
/// assert_eq!(b.dim(), 4);
/// assert_eq!(b.upper()[0], 2.0 * std::f64::consts::PI); // γ
/// assert_eq!(b.upper()[2], std::f64::consts::PI);       // β
/// ```
pub fn parameter_bounds(p: usize) -> Result<optimize::Bounds, QaoaError> {
    if p == 0 {
        return Err(QaoaError::InvalidDepth { depth: p });
    }
    let mut lower = Vec::with_capacity(2 * p);
    let mut upper = Vec::with_capacity(2 * p);
    for _ in 0..p {
        lower.push(0.0);
        upper.push(GAMMA_MAX);
    }
    for _ in 0..p {
        lower.push(0.0);
        upper.push(BETA_MAX);
    }
    optimize::Bounds::new(lower, upper).map_err(QaoaError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_layout() {
        let b = parameter_bounds(3).unwrap();
        assert_eq!(b.dim(), 6);
        for i in 0..3 {
            assert_eq!(b.upper()[i], GAMMA_MAX);
            assert_eq!(b.upper()[3 + i], BETA_MAX);
            assert_eq!(b.lower()[i], 0.0);
        }
        assert!(parameter_bounds(0).is_err());
    }
}

/// The graph-aware feature set ([`features::FeatureSet::GraphAware`]) end to
/// end: its row layout, its predictor and its two-level run.
#[cfg(test)]
mod graph_aware {
    mod tests {
        use crate::datagen::{DataGenConfig, ParameterDataset};
        use crate::features::{FeatureSet, RowInputs};
        use crate::{
            MaxCutProblem, ParameterPredictor, QaoaError, Scenario, TwoLevelConfig, TwoLevelFlow,
            BETA_MAX, GAMMA_MAX,
        };
        use graphs::{generators, stats};
        use ml::ModelKind;
        use optimize::Lbfgsb;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        fn tiny_dataset() -> ParameterDataset {
            ParameterDataset::generate(&DataGenConfig {
                n_graphs: 6,
                n_nodes: 5,
                edge_probability: 0.6,
                max_depth: 3,
                restarts: 3,
                seed: 5,
                options: Default::default(),
                trend_preference_margin: 1e-3,
            })
            .expect("corpus")
        }

        #[test]
        fn features_have_twelve_entries() {
            let inputs = RowInputs {
                depth1: (1.0, 0.5),
                intermediate: None,
                structure: Some(stats::feature_vector(&generators::cycle(6))),
            };
            let f = FeatureSet::GraphAware.row(&inputs, 3).unwrap();
            assert_eq!(f.len(), 12);
            assert_eq!(&f[..3], &[1.0, 0.5, 3.0]);
            assert_eq!(f[3], 6.0); // n
        }

        #[test]
        fn train_predict_in_domain() {
            let ds = tiny_dataset();
            let g = generators::cycle(5);
            for kind in ModelKind::ALL {
                let predictor =
                    ParameterPredictor::train_with(kind, &ds, FeatureSet::GraphAware).unwrap();
                assert_eq!(predictor.kind(), kind);
                assert_eq!(predictor.features(), FeatureSet::GraphAware);
                for pt in 1..=3 {
                    let init = predictor.predict_for_graph(&g, 1.0, 0.4, pt).unwrap();
                    assert_eq!(init.len(), 2 * pt);
                    for (i, v) in init.iter().enumerate() {
                        let max = if i < pt { GAMMA_MAX } else { BETA_MAX };
                        assert!((0.0..=max).contains(v), "{kind} param {i} = {v}");
                    }
                }
                assert!(matches!(
                    predictor.predict_for_graph(&g, 1.0, 0.4, 9),
                    Err(QaoaError::InvalidDepth { depth: 9 })
                ));
                assert!(matches!(
                    predictor.predict_for_graph(&g, 1.0, 0.4, 0),
                    Err(QaoaError::InvalidDepth { depth: 0 })
                ));
            }
        }

        #[test]
        fn two_level_run_works_end_to_end() {
            let ds = tiny_dataset();
            let predictor =
                ParameterPredictor::train_with(ModelKind::Linear, &ds, FeatureSet::GraphAware)
                    .unwrap();
            let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
            let config = TwoLevelConfig {
                level1_starts: 1,
                ..TwoLevelConfig::default()
            };
            let out = TwoLevelFlow::new(&predictor)
                .run(
                    &problem,
                    2,
                    &Lbfgsb::default(),
                    &config,
                    &mut StdRng::seed_from_u64(8),
                    &Scenario::Exact,
                    0,
                )
                .unwrap();
            assert_eq!(out.params.len(), 4);
            assert_eq!(out.predicted_init.len(), 4);
            assert!(out.level1_calls > 0 && out.level2_calls > 0);
            assert_eq!(out.intermediate_calls, 0);
            assert!(out.approximation_ratio > 0.6);
        }
    }
}
