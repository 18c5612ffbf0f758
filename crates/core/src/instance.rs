use std::cell::RefCell;

use optimize::{Objective, Optimizer, Options, Spsa, Termination};
use qsim::NoiseModel;
use rand::Rng;

use crate::noisy::NoisyQaoa;
use crate::sampled::SampledExpectation;
use crate::stablehash::mix64;
use crate::{parameter_bounds, EvalContext, MaxCutProblem, QaoaAnsatz, QaoaError, Scenario};

/// Domain separators so the shot schedule and the SPSA perturbation stream
/// derived from one job seed never collide.
const SHOT_DOMAIN: u64 = 0x5348_4f54_5348_4f54; // "SHOTSHOT"
const SPSA_DOMAIN: u64 = 0x5350_5341_5350_5341; // "SPSASPSA"

/// Outcome of optimizing one QAOA instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceOutcome {
    /// Best parameters found, `[γ₁…γ_p, β₁…β_p]`.
    pub params: Vec<f64>,
    /// Best expectation `⟨C⟩`.
    pub expectation: f64,
    /// Approximation ratio `⟨C⟩ / C_max` — the paper's quality metric.
    pub approximation_ratio: f64,
    /// Total objective evaluations (`nfev`) — the paper's cost metric
    /// (QC calls).
    pub function_calls: usize,
    /// Analytic adjoint-gradient evaluations (`njev`) consumed by
    /// gradient-based optimizers; 0 for gradient-free methods.
    pub gradient_calls: usize,
    /// Termination reason of the (best) run.
    pub termination: Termination,
}

impl InstanceOutcome {
    /// The γ parameters (first half of `params`).
    #[must_use]
    pub fn gammas(&self) -> &[f64] {
        &self.params[..self.params.len() / 2]
    }

    /// The β parameters (second half of `params`).
    #[must_use]
    pub fn betas(&self) -> &[f64] {
        &self.params[self.params.len() / 2..]
    }
}

/// A QAOA instance: the closed loop of Fig. 1(a)/(d) — quantum simulator in,
/// classical optimizer out — at a fixed circuit depth, with every objective
/// evaluation performed under one [`Scenario`].
///
/// The optimizer **minimizes** `−⟨C⟩`; every objective evaluation is one
/// "QC call".
///
/// # Example
///
/// ```
/// use graphs::Graph;
/// use optimize::NelderMead;
/// use qaoa::{MaxCutProblem, QaoaInstance};
/// # fn main() -> Result<(), qaoa::QaoaError> {
/// let g = Graph::from_edges(2, &[(0, 1)])?;
/// let instance = QaoaInstance::new(MaxCutProblem::new(&g)?, 1)?;
/// let out = instance.optimize(&NelderMead::default(), &[1.0, 1.0], &Default::default())?;
/// assert!(out.approximation_ratio > 0.9); // p=1 solves the single edge exactly
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QaoaInstance {
    evaluator: Evaluator,
}

/// How an instance evaluates `⟨C⟩` — the only thing scenarios differ in.
#[derive(Debug)]
enum Evaluator {
    /// Exact state-vector expectation, with its adjoint gradient.
    Exact(QaoaAnsatz),
    /// Finite-shot estimate, always optimized by its seeded SPSA. Boxed:
    /// its inline scratch state is far larger than the other variants.
    Sampled {
        objective: Box<SampledExpectation>,
        spsa: Spsa,
    },
    /// Density-matrix expectation under per-gate noise.
    Noisy(NoisyQaoa),
}

impl QaoaInstance {
    /// Creates an exact instance of depth `p` for `problem`.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::InvalidDepth`] for `p = 0`.
    pub fn new(problem: MaxCutProblem, depth: usize) -> Result<Self, QaoaError> {
        Ok(Self {
            evaluator: Evaluator::Exact(QaoaAnsatz::new(problem, depth)?),
        })
    }

    /// Creates an instance of depth `depth` for `problem` evaluated under
    /// `scenario`; [`Scenario::Exact`] gives [`QaoaInstance::new`].
    ///
    /// `base_seed` feeds only the stochastic scenarios (shot RNG schedule
    /// and SPSA perturbations, domain-separated); exact and noisy
    /// evaluations are deterministic and ignore it.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] for `depth == 0`.
    /// * [`QaoaError::InvalidScenario`] for an invalid configuration.
    /// * [`QaoaError::TooLarge`] if a noisy scenario exceeds the
    ///   density-matrix register cap.
    pub fn with_scenario(
        problem: MaxCutProblem,
        depth: usize,
        scenario: &Scenario,
        base_seed: u64,
    ) -> Result<Self, QaoaError> {
        scenario.validate()?;
        let evaluator = match *scenario {
            Scenario::Exact => return Self::new(problem, depth),
            Scenario::Sampled { shots } => Evaluator::Sampled {
                objective: Box::new(SampledExpectation::new(
                    problem,
                    depth,
                    shots,
                    mix64(base_seed ^ SHOT_DOMAIN),
                )?),
                spsa: Spsa::default().with_seed(mix64(base_seed ^ SPSA_DOMAIN)),
            },
            Scenario::Noisy { p1, p2 } => Evaluator::Noisy(NoisyQaoa::new(
                problem,
                depth,
                NoiseModel::uniform_depolarizing(p1, p2)?,
            )?),
        };
        Ok(Self { evaluator })
    }

    /// The underlying (exact) ansatz.
    #[must_use]
    pub fn ansatz(&self) -> &QaoaAnsatz {
        match &self.evaluator {
            Evaluator::Exact(ansatz) => ansatz,
            Evaluator::Sampled { objective, .. } => objective.ansatz(),
            Evaluator::Noisy(noisy) => noisy.ansatz(),
        }
    }

    /// The underlying problem.
    #[must_use]
    pub fn problem(&self) -> &MaxCutProblem {
        self.ansatz().problem()
    }

    /// Circuit depth `p`.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.ansatz().depth()
    }

    /// Runs one local optimization from `initial` parameters.
    ///
    /// Sampled scenarios run their seeded SPSA instead of `optimizer`
    /// (finite-difference or adjoint gradients are meaningless on a
    /// stochastic objective) and judge the result on the **exact** `⟨C⟩`
    /// at the final point, while `function_calls` counts the sampled
    /// evaluations. A failed evaluation winds the optimizer down on a
    /// `NaN` probe and is returned as the real [`QaoaError`].
    ///
    /// # Errors
    ///
    /// * [`QaoaError::ParameterCount`] if `initial` has the wrong length.
    /// * The first evaluation error of any optimizer probe.
    /// * Optimizer errors ([`QaoaError::Optimizer`]).
    pub fn optimize(
        &self,
        optimizer: &dyn Optimizer,
        initial: &[f64],
        options: &Options,
    ) -> Result<InstanceOutcome, QaoaError> {
        let ansatz = self.ansatz();
        if initial.len() != ansatz.n_parameters() {
            return Err(QaoaError::ParameterCount {
                expected: ansatz.n_parameters(),
                actual: initial.len(),
            });
        }
        let bounds = parameter_bounds(self.depth())?;
        let optimizer: &dyn Optimizer = match &self.evaluator {
            Evaluator::Sampled { spsa, .. } => spsa,
            _ => optimizer,
        };
        let objective = Negated {
            evaluator: &self.evaluator,
            // Sized on first use: only the exact evaluator evaluates in it.
            ctx: RefCell::new(EvalContext::new(0)),
            error: RefCell::new(None),
        };
        let result = optimizer.minimize_objective(&objective, initial, &bounds, options)?;
        if let Some(err) = objective.error.into_inner() {
            return Err(err);
        }
        let expectation = match self.evaluator {
            Evaluator::Sampled { .. } => ansatz.expectation(&result.x)?,
            _ => -result.fx,
        };
        Ok(InstanceOutcome {
            approximation_ratio: self.problem().approximation_ratio(expectation),
            params: result.x,
            expectation,
            function_calls: result.n_calls,
            gradient_calls: result.n_grad_calls,
            termination: result.termination,
        })
    }

    /// The paper's "naive" protocol: `n_starts` local runs from uniformly
    /// random initializations drawn from `rng`; returns the best outcome
    /// (strictly greater `⟨C⟩` wins, so the first of equals is kept) with
    /// the **summed** call counts of all starts (the total loop-iteration
    /// cost).
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidScenario`] if `n_starts == 0`.
    /// * Evaluation or optimizer errors from any start.
    pub fn optimize_multistart<R: Rng + ?Sized>(
        &self,
        optimizer: &dyn Optimizer,
        n_starts: usize,
        rng: &mut R,
        options: &Options,
    ) -> Result<InstanceOutcome, QaoaError> {
        let bounds = parameter_bounds(self.depth())?;
        let mut best: Option<InstanceOutcome> = None;
        let mut total_calls = 0usize;
        let mut total_grad_calls = 0usize;
        for _ in 0..n_starts {
            let start = bounds.sample(rng);
            let outcome = self.optimize(optimizer, &start, options)?;
            total_calls += outcome.function_calls;
            total_grad_calls += outcome.gradient_calls;
            if best
                .as_ref()
                .is_none_or(|b| outcome.expectation > b.expectation)
            {
                best = Some(outcome);
            }
        }
        let mut best = best.ok_or(QaoaError::InvalidScenario {
            reason: "multistart needs at least one start",
        })?;
        best.function_calls = total_calls;
        best.gradient_calls = total_grad_calls;
        Ok(best)
    }
}

/// The minimized objective `−⟨C⟩` of one optimizer run. The exact
/// scenario evaluates in the run's own [`EvalContext`] and also supplies
/// the adjoint gradient. Like [`optimize::Fallible`], a failed evaluation
/// yields `NaN` and the first error is kept for the caller.
struct Negated<'a> {
    evaluator: &'a Evaluator,
    ctx: RefCell<EvalContext>,
    error: RefCell<Option<QaoaError>>,
}

impl Negated<'_> {
    fn negate(&self, expectation: Result<f64, QaoaError>) -> f64 {
        match expectation {
            Ok(e) => -e,
            Err(err) => {
                self.error.borrow_mut().get_or_insert(err);
                f64::NAN
            }
        }
    }
}

impl Objective for Negated<'_> {
    fn value(&self, x: &[f64]) -> f64 {
        self.negate(match self.evaluator {
            Evaluator::Exact(ansatz) => ansatz.expectation_in(&mut self.ctx.borrow_mut(), x),
            Evaluator::Sampled { objective, .. } => objective.estimate(x),
            Evaluator::Noisy(noisy) => noisy.expectation(x),
        })
    }

    fn value_and_grad(&self, x: &[f64], grad: &mut [f64]) -> Option<f64> {
        let Evaluator::Exact(ansatz) = self.evaluator else {
            return None;
        };
        let e = ansatz.expectation_and_grad_in(&mut self.ctx.borrow_mut(), x, grad);
        for g in grad.iter_mut() {
            *g = -*g;
        }
        Some(self.negate(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, Graph};
    use optimize::{Cobyla, Lbfgsb, NelderMead, Slsqp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn single_edge_instance(p: usize) -> QaoaInstance {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        QaoaInstance::new(MaxCutProblem::new(&g).unwrap(), p).unwrap()
    }

    #[test]
    fn p1_single_edge_all_optimizers_reach_optimum() {
        // The p=1 landscape for one edge has max ⟨C⟩ = 1 at (π/2, π/4).
        let instance = single_edge_instance(1);
        let mut rng = StdRng::seed_from_u64(3);
        for opt in optimize::all_optimizers() {
            let out = instance
                .optimize_multistart(opt.as_ref(), 5, &mut rng, &Options::default())
                .unwrap();
            assert!(
                out.approximation_ratio > 0.999,
                "{}: AR = {}",
                opt.name(),
                out.approximation_ratio
            );
            assert!(out.function_calls > 0);
        }
    }

    #[test]
    fn ar_improves_with_depth_on_odd_cycle() {
        // C5 is not solved exactly at p=1; AR must not decrease with p.
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let mut prev_ar = 0.0;
        for p in 1..=3 {
            let inst = QaoaInstance::new(problem.clone(), p).unwrap();
            let out = inst
                .optimize_multistart(&Lbfgsb::default(), 8, &mut rng, &Options::default())
                .unwrap();
            assert!(
                out.approximation_ratio >= prev_ar - 0.02,
                "p={p}: AR {} < previous {prev_ar}",
                out.approximation_ratio
            );
            prev_ar = out.approximation_ratio;
        }
        assert!(prev_ar > 0.85, "p=3 AR on C5 = {prev_ar}");
    }

    #[test]
    fn outcome_accessors() {
        let instance = single_edge_instance(2);
        let out = instance
            .optimize(
                &NelderMead::default(),
                &[1.0, 1.0, 0.5, 0.5],
                &Options::default(),
            )
            .unwrap();
        assert_eq!(out.gammas().len(), 2);
        assert_eq!(out.betas().len(), 2);
        assert_eq!(out.params.len(), 4);
    }

    #[test]
    fn multistart_accumulates_calls() {
        let instance = single_edge_instance(1);
        let mut rng = StdRng::seed_from_u64(9);
        let one = instance
            .optimize_multistart(&Slsqp::default(), 1, &mut rng, &Options::default())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let five = instance
            .optimize_multistart(&Slsqp::default(), 5, &mut rng, &Options::default())
            .unwrap();
        assert!(five.function_calls > one.function_calls);
    }

    #[test]
    fn wrong_parameter_count_rejected() {
        let instance = single_edge_instance(2);
        assert!(matches!(
            instance.optimize(&Cobyla::default(), &[0.5], &Options::default()),
            Err(QaoaError::ParameterCount { .. })
        ));
    }

    #[test]
    fn deterministic_under_seed() {
        let instance = single_edge_instance(1);
        let a = instance
            .optimize_multistart(
                &NelderMead::default(),
                3,
                &mut StdRng::seed_from_u64(1),
                &Options::default(),
            )
            .unwrap();
        let b = instance
            .optimize_multistart(
                &NelderMead::default(),
                3,
                &mut StdRng::seed_from_u64(1),
                &Options::default(),
            )
            .unwrap();
        assert_eq!(a.params, b.params);
        assert_eq!(a.function_calls, b.function_calls);
    }
}
