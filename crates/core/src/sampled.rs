//! Shot-noise objective: sampled `⟨C⟩` as a first-class engine workload.
//!
//! A finite-shot estimator that carries its own RNG *stream* makes the
//! estimate at a parameter point depend on how many evaluations happened
//! before it, which breaks the engine's requirement that every job be a
//! pure function of its seed. [`SampledExpectation`] fixes the seeding
//! scheme instead — evaluation `k` draws from
//! `StdRng::seed_from_u64(mix64(base_seed ^ (k+1)·GOLDEN_GAMMA))`, so the
//! whole optimization trace is a pure function of `(base_seed,
//! parameters)` and is bit-identical at any thread count — and evaluates
//! through its own [`EvalContext`](crate::EvalContext) plus a reusable
//! [`CdfSampler`], allocation-free after the first call.
//!
//! The objective is stochastic, so a
//! [`QaoaInstance`](crate::QaoaInstance) built for
//! [`Scenario::Sampled`](crate::Scenario::Sampled) optimizes it with a
//! seeded SPSA; analytic adjoint gradients do not exist for a sampled
//! estimate. This module only evaluates.
//!
//! # Example
//!
//! ```
//! use graphs::generators;
//! use qaoa::{sampled::SampledExpectation, MaxCutProblem};
//!
//! # fn main() -> Result<(), qaoa::QaoaError> {
//! let problem = MaxCutProblem::new(&generators::cycle(4))?;
//! let obj = SampledExpectation::new(problem, 1, 4096, 2020)?;
//! let exact = obj.ansatz().expectation(&[0.7, 0.4])?;
//! let sampled = obj.estimate(&[0.7, 0.4])?;
//! assert!((sampled - exact).abs() < 0.5); // within sampling error
//! // Same evaluation index, same seed — bit-identical estimate.
//! let again = SampledExpectation::new(obj.ansatz().problem().clone(), 1, 4096, 2020)?
//!     .estimate(&[0.7, 0.4])?;
//! assert_eq!(sampled, again);
//! # Ok(())
//! # }
//! ```

use std::cell::RefCell;

use qsim::CdfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stablehash::{mix64, GOLDEN_GAMMA};
use crate::{EvalContext, MaxCutProblem, QaoaAnsatz, QaoaError};

/// Per-evaluation scratch: the evaluation context and the CDF table are
/// reused across evaluations, and the counter indexes the deterministic
/// per-evaluation RNG schedule.
#[derive(Debug)]
struct Scratch {
    ctx: EvalContext,
    sampler: CdfSampler,
    evals: u64,
}

/// The finite-shot QAOA objective with a deterministic seeding schedule.
///
/// Each [`SampledExpectation::estimate`] call prepares `|ψ(γ, β)⟩` in the
/// objective's own evaluation context, samples `shots` basis states
/// from the Born distribution and averages the cut values — one simulated
/// hardware "QC call". Evaluation `k` uses its own RNG seeded from
/// `(base_seed, k)`, never a shared stream, so optimization traces are
/// reproducible bit-for-bit regardless of what else ran on the thread.
#[derive(Debug)]
pub struct SampledExpectation {
    ansatz: QaoaAnsatz,
    shots: u32,
    base_seed: u64,
    scratch: RefCell<Scratch>,
}

impl SampledExpectation {
    /// Builds the sampled objective at circuit depth `depth` with a
    /// per-evaluation budget of `shots` measurements.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] for `depth == 0`.
    /// * [`QaoaError::InvalidScenario`] for `shots == 0`.
    pub fn new(
        problem: MaxCutProblem,
        depth: usize,
        shots: u32,
        base_seed: u64,
    ) -> Result<Self, QaoaError> {
        if shots == 0 {
            return Err(QaoaError::InvalidScenario {
                reason: "sampled objective needs at least one shot",
            });
        }
        let ctx = EvalContext::new(problem.n_qubits());
        Ok(Self {
            ansatz: QaoaAnsatz::new(problem, depth)?,
            shots,
            base_seed,
            scratch: RefCell::new(Scratch {
                ctx,
                sampler: CdfSampler::default(),
                evals: 0,
            }),
        })
    }

    /// The underlying (exact) ansatz.
    #[must_use]
    pub fn ansatz(&self) -> &QaoaAnsatz {
        &self.ansatz
    }

    /// Evaluations performed so far (the index of the next RNG seed).
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.scratch.borrow().evals
    }

    /// One sampled objective evaluation (one simulated QC call).
    ///
    /// # Errors
    ///
    /// * [`QaoaError::ParameterCount`] on a parameter-length mismatch.
    /// * [`QaoaError::Simulator`] if the prepared state's Born distribution
    ///   is invalid (non-finite amplitudes from non-finite parameters).
    pub fn estimate(&self, params: &[f64]) -> Result<f64, QaoaError> {
        let (gammas, betas) = self.ansatz.split_params(params)?;
        let cost = self.ansatz.problem().cost();
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        let k = scratch.evals;
        scratch.evals += 1;
        let seed = mix64(self.base_seed ^ (k.wrapping_add(1)).wrapping_mul(GOLDEN_GAMMA));
        scratch.ctx.run_forward(cost, gammas, betas);
        scratch
            .sampler
            .load_amplitudes(scratch.ctx.state().amplitudes())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let diag = cost.diagonal();
        let mut sum = 0.0;
        for _ in 0..self.shots {
            sum += diag[scratch.sampler.draw(&mut rng)];
        }
        Ok(sum / f64::from(self.shots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QaoaInstance, Scenario};
    use graphs::generators;
    use optimize::{Lbfgsb, Options};

    fn objective(shots: u32, seed: u64) -> SampledExpectation {
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        SampledExpectation::new(problem, 1, shots, seed).unwrap()
    }

    fn instance(shots: u32, seed: u64) -> QaoaInstance {
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        QaoaInstance::with_scenario(problem, 1, &Scenario::Sampled { shots }, seed).unwrap()
    }

    #[test]
    fn zero_shots_rejected() {
        let problem = MaxCutProblem::new(&generators::cycle(4)).unwrap();
        assert!(matches!(
            SampledExpectation::new(problem, 1, 0, 7),
            Err(QaoaError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn estimate_is_a_pure_function_of_seed_and_eval_index() {
        let params = [0.9, 0.35];
        let a = objective(256, 11);
        let b = objective(256, 11);
        // Same eval index, same base seed: bit-identical across objects.
        let a1 = a.estimate(&params).unwrap();
        let b1 = b.estimate(&params).unwrap();
        assert_eq!(a1, b1);
        let a2 = a.estimate(&params).unwrap();
        let b2 = b.estimate(&params).unwrap();
        assert_eq!(a2, b2);
        // Different eval index: fresh shots at the same point.
        assert_ne!(a1, a2);
        assert_eq!(a.evaluations(), 2);
        // Different base seed: a different shot schedule.
        let c1 = objective(256, 12).estimate(&params).unwrap();
        assert_ne!(a1, c1);
    }

    #[test]
    fn estimate_error_shrinks_with_shots() {
        let params = [0.9, 0.35];
        let exact = objective(1, 0).ansatz().expectation(&params).unwrap();
        let mut coarse = 0.0;
        let mut fine = 0.0;
        for seed in 0..10 {
            coarse += (objective(32, seed).estimate(&params).unwrap() - exact).abs();
            fine += (objective(4096, seed).estimate(&params).unwrap() - exact).abs();
        }
        assert!(fine < coarse, "4096-shot {fine} !< 32-shot {coarse}");
        assert!(fine / 10.0 < 0.2);
    }

    #[test]
    fn spsa_optimization_improves_and_is_deterministic() {
        let options = Options::default().with_max_iters(60);
        // The optimizer argument is ignored: sampled instances run SPSA.
        let run = |seed: u64| {
            instance(512, seed)
                .optimize(&Lbfgsb::default(), &[2.0, 1.0], &options)
                .unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.params, b.params, "same seed must give identical traces");
        assert_eq!(a.function_calls, b.function_calls);
        assert_eq!(a.gradient_calls, 0);
        let f0 = objective(512, 5).ansatz().expectation(&[2.0, 1.0]).unwrap();
        assert!(
            a.expectation > f0,
            "SPSA should improve: {f0} -> {}",
            a.expectation
        );
        assert!(a.function_calls > 0);
    }

    #[test]
    fn outcome_judged_on_exact_expectation() {
        let inst = instance(64, 3);
        let out = inst
            .optimize(
                &Lbfgsb::default(),
                &[0.9, 0.35],
                &Options::default().with_max_iters(20),
            )
            .unwrap();
        let exact = inst.ansatz().expectation(&out.params).unwrap();
        assert_eq!(out.expectation, exact);
    }

    #[test]
    fn multistart_accumulates_and_requires_starts() {
        use rand::SeedableRng;
        let options = Options::default().with_max_iters(10);
        let mut rng = StdRng::seed_from_u64(1);
        let one = instance(64, 8)
            .optimize_multistart(&Lbfgsb::default(), 1, &mut rng, &options)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let three = instance(64, 8)
            .optimize_multistart(&Lbfgsb::default(), 3, &mut rng, &options)
            .unwrap();
        assert!(three.function_calls > one.function_calls);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            instance(64, 8).optimize_multistart(&Lbfgsb::default(), 0, &mut rng, &options),
            Err(QaoaError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn parameter_errors_propagate() {
        assert!(matches!(
            objective(16, 0).estimate(&[0.1]),
            Err(QaoaError::ParameterCount { .. })
        ));
        assert!(matches!(
            instance(16, 0).optimize(&Lbfgsb::default(), &[0.1], &Options::default()),
            Err(QaoaError::ParameterCount { .. })
        ));
    }
}
