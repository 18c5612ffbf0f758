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
//! * [`features`] — predictor/response extraction (§II-D),
//! * [`ParameterPredictor`] — per-stage regression models (§III-C),
//! * [`TwoLevelFlow`] — the proposed accelerated flow (Fig. 4),
//! * [`evaluation`] — the naive-vs-ML comparison harness behind Table I.
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
pub mod graph_aware;
mod instance;
pub mod landscape;
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
