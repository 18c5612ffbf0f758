//! Non-ML parameter-initialization heuristics that compete with the
//! ML predictor.
//!
//! The paper's reference list contains the two canonical heuristics of
//! Zhou et al. (arXiv:1812.01041, the paper's \[5\]): **INTERP**, which
//! linearly interpolates a depth-`p` optimum into a depth-`p+1` start, and
//! **FOURIER**, which optimizes a small number of Fourier coefficients of
//! the parameter schedules instead of the raw angles. Together with the
//! adiabatic-inspired **linear ramp** (TQA) start, they are the strongest
//! non-learned baselines for the paper's headline claim, so the
//! `baseline_compare` benchmark binary pits all three against the two-level
//! ML flow on identical function-call accounting.
//!
//! Parameter vectors use the crate's packed layout `[γ₁…γ_p, β₁…β_p]`.

use std::cell::RefCell;

use optimize::{Fallible, Optimizer, Options};
use rand::Rng;

use crate::datagen::interp_resample;
use crate::{
    parameter_bounds, EvalContext, MaxCutProblem, QaoaAnsatz, QaoaError, QaoaInstance, BETA_MAX,
    GAMMA_MAX,
};

/// Converts a depth, stage index or Fourier term index to `f64`.
///
/// Each is bounded by the length of a parameter vector, far below 2^53, so
/// the conversion is exact.
fn index_f64(i: usize) -> f64 {
    // lint:allow(no-lossy-as) indices are < 2^53 so usize -> f64 is exact here
    i as f64
}

/// Linear-ramp (trotterized-quantum-annealing) initialization.
///
/// Stage `i` of `p` gets `γᵢ = Δ·fᵢ` and `βᵢ = Δ·(1−fᵢ)` with the midpoint
/// schedule `fᵢ = (i − ½)/p` and time step `Δ = total_time / p` — γ ramps
/// up while β ramps down, the trend the paper observes in its Fig. 2.
///
/// # Errors
///
/// [`QaoaError::InvalidDepth`] for `depth == 0`.
///
/// # Example
///
/// ```
/// let init = qaoa::warmstart::linear_ramp(3, 2.25)?;
/// assert_eq!(init.len(), 6);
/// // γ increases, β decreases between stages.
/// assert!(init[0] < init[1] && init[1] < init[2]);
/// assert!(init[3] > init[4] && init[4] > init[5]);
/// # Ok::<(), qaoa::QaoaError>(())
/// ```
pub fn linear_ramp(depth: usize, total_time: f64) -> Result<Vec<f64>, QaoaError> {
    if depth == 0 {
        return Err(QaoaError::InvalidDepth { depth });
    }
    let p = index_f64(depth);
    let dt = total_time / p;
    let mut params = vec![0.0; 2 * depth];
    for i in 0..depth {
        let f = (index_f64(i) + 0.5) / p;
        params[i] = (dt * f).clamp(0.0, GAMMA_MAX);
        params[depth + i] = (dt * (1.0 - f)).clamp(0.0, BETA_MAX);
    }
    Ok(params)
}

/// One INTERP step (Zhou et al., eq. 8): maps a depth-`p` optimum to a
/// depth-`p+1` starting point by linear interpolation,
/// `θ'ᵢ = ((i−1)/p)·θᵢ₋₁ + ((p−i+1)/p)·θᵢ` for `i = 1…p+1` with `θ₀ = θ_{p+1} = 0`.
///
/// Applied independently to the γ and β halves of the packed vector, each
/// through [`interp_resample`] — the arithmetic the corpus seeds its deeper
/// depths with. Since each output is a convex combination of in-domain
/// values, the result stays inside the paper's parameter box.
///
/// # Errors
///
/// [`QaoaError::ParameterCount`] for an odd-length (non-packed) input, and
/// [`QaoaError::InvalidDepth`] for an empty one.
///
/// # Example
///
/// ```
/// // A depth-1 optimum spreads into a depth-2 ramp.
/// let next = qaoa::warmstart::interp_step(&[1.0, 0.5])?;
/// assert_eq!(next, vec![1.0, 1.0, 0.5, 0.5]);
/// # Ok::<(), qaoa::QaoaError>(())
/// ```
pub fn interp_step(packed: &[f64]) -> Result<Vec<f64>, QaoaError> {
    if packed.is_empty() {
        return Err(QaoaError::InvalidDepth { depth: 0 });
    }
    if !packed.len().is_multiple_of(2) {
        return Err(QaoaError::ParameterCount {
            expected: packed.len() + 1,
            actual: packed.len(),
        });
    }
    let p = packed.len() / 2;
    let mut next = interp_resample(&packed[..p], p + 1);
    next.extend(interp_resample(&packed[p..], p + 1));
    Ok(next)
}

/// The Fourier parameterization of Zhou et al.: `2q` coefficients
/// `(u, v)` generate a depth-`p` schedule
/// `γᵢ = Σₖ uₖ sin((k−½)(i−½)π/p)`, `βᵢ = Σₖ vₖ cos((k−½)(i−½)π/p)`.
///
/// Outputs are clamped into the paper's box `γ ∈ [0, 2π], β ∈ [0, π]` so
/// they are always valid circuit parameters.
///
/// # Panics
///
/// Panics if `u.len() != v.len()` or `depth == 0` (programmer error in the
/// flow below; public callers go through [`FourierFlow`]).
#[must_use]
pub fn fourier_to_params(u: &[f64], v: &[f64], depth: usize) -> Vec<f64> {
    assert_eq!(u.len(), v.len(), "u and v must have equal length");
    assert!(depth > 0, "depth must be positive");
    let p = index_f64(depth);
    let mut params = vec![0.0; 2 * depth];
    for i in 0..depth {
        let phase = (index_f64(i) + 0.5) * std::f64::consts::PI / p;
        let mut gamma = 0.0;
        let mut beta = 0.0;
        for (k, (&uk, &vk)) in u.iter().zip(v).enumerate() {
            let freq = (index_f64(k) + 0.5) * phase;
            gamma += uk * freq.sin();
            beta += vk * freq.cos();
        }
        params[i] = gamma.clamp(0.0, GAMMA_MAX);
        params[depth + i] = beta.clamp(0.0, BETA_MAX);
    }
    params
}

/// Outcome of a warm-start flow run, with the same cost accounting as
/// [`TwoLevelOutcome`](crate::TwoLevelOutcome): `total_calls` is the sum of
/// every objective evaluation across all depths.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStartOutcome {
    /// Final parameters at the target depth (packed `[γ…, β…]`).
    pub params: Vec<f64>,
    /// Final expectation `⟨C⟩`.
    pub expectation: f64,
    /// Final approximation ratio.
    pub approximation_ratio: f64,
    /// Function calls per optimized depth, in depth order.
    pub calls_per_depth: Vec<usize>,
}

impl WarmStartOutcome {
    /// Total function calls — the paper's run-time cost metric.
    #[must_use]
    pub fn total_calls(&self) -> usize {
        self.calls_per_depth.iter().sum()
    }
}

/// The INTERP incremental flow: optimize `p = 1` from random init, then for
/// each depth `2…pt` start from the [`interp_step`] of the previous optimum
/// and re-optimize.
///
/// # Example
///
/// ```no_run
/// use graphs::generators;
/// use optimize::Lbfgsb;
/// use qaoa::warmstart::InterpFlow;
/// use qaoa::MaxCutProblem;
/// use rand::SeedableRng;
/// # fn main() -> Result<(), qaoa::QaoaError> {
/// let problem = MaxCutProblem::new(&generators::cycle(6))?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let out = InterpFlow::default().run(&problem, 3, &Lbfgsb::default(), &mut rng)?;
/// assert_eq!(out.calls_per_depth.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct InterpFlow {
    /// Optimizer options used at every depth (paper: ftol 1e-6).
    pub options: Options,
}

impl InterpFlow {
    /// Runs the flow up to `target_depth`.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] for `target_depth == 0`.
    /// * Instance/optimizer errors from any depth.
    pub fn run<R: Rng + ?Sized>(
        &self,
        problem: &MaxCutProblem,
        target_depth: usize,
        optimizer: &dyn Optimizer,
        rng: &mut R,
    ) -> Result<WarmStartOutcome, QaoaError> {
        if target_depth == 0 {
            return Err(QaoaError::InvalidDepth { depth: 0 });
        }
        let mut calls = Vec::with_capacity(target_depth);

        // Depth 1 from a random start, as in the paper's level 1.
        let level1 = QaoaInstance::new(problem.clone(), 1)?;
        let bounds1 = parameter_bounds(1)?;
        let start = bounds1.sample(rng);
        let mut best = level1.optimize(optimizer, &start, &self.options)?;
        calls.push(best.function_calls);

        for depth in 2..=target_depth {
            let init = interp_step(&best.params)?;
            let instance = QaoaInstance::new(problem.clone(), depth)?;
            best = instance.optimize(optimizer, &init, &self.options)?;
            calls.push(best.function_calls);
        }

        Ok(WarmStartOutcome {
            params: best.params,
            expectation: best.expectation,
            approximation_ratio: best.approximation_ratio,
            calls_per_depth: calls,
        })
    }
}

/// The FOURIER incremental flow: optimize `2q` Fourier coefficients of the
/// parameter schedule at each depth `1…pt`, warm-starting each depth from
/// the previous depth's coefficients (new coefficients enter at zero).
///
/// `q` grows with depth up to [`FourierFlow::max_terms`] — `q = min(p, max_terms)` —
/// matching the truncated `FOURIER[q]` strategy of Zhou et al.
#[derive(Debug, Clone)]
pub struct FourierFlow {
    /// Cap on the number of Fourier terms per schedule.
    pub max_terms: usize,
    /// Optimizer options used at every depth.
    pub options: Options,
}

impl Default for FourierFlow {
    fn default() -> Self {
        Self {
            max_terms: 4,
            options: Options::default(),
        }
    }
}

impl FourierFlow {
    /// Runs the flow up to `target_depth`.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] for `target_depth == 0` or a zero
    ///   `max_terms`.
    /// * Instance/optimizer errors from any depth.
    pub fn run<R: Rng + ?Sized>(
        &self,
        problem: &MaxCutProblem,
        target_depth: usize,
        optimizer: &dyn Optimizer,
        rng: &mut R,
    ) -> Result<WarmStartOutcome, QaoaError> {
        if target_depth == 0 || self.max_terms == 0 {
            return Err(QaoaError::InvalidDepth { depth: 0 });
        }
        let mut calls = Vec::with_capacity(target_depth);
        // Coefficient state carried across depths.
        let mut u: Vec<f64> = Vec::new();
        let mut v: Vec<f64> = Vec::new();
        let mut final_outcome = None;
        // One evaluation context for every objective call of the run.
        let ctx = RefCell::new(EvalContext::new(problem.n_qubits()));

        for depth in 1..=target_depth {
            let q = depth.min(self.max_terms);
            u.resize(q, 0.0);
            v.resize(q, 0.0);
            if depth == 1 {
                // Random first start inside a modest coefficient range.
                u[0] = rng.gen_range(0.0..1.0);
                v[0] = rng.gen_range(0.0..1.0);
            }

            let ansatz = QaoaAnsatz::new(problem.clone(), depth)?;
            let evaluate = |x: &[f64]| {
                let (cu, cv) = x.split_at(q);
                let params = fourier_to_params(cu, cv, depth);
                ansatz
                    .expectation_in(&mut ctx.borrow_mut(), &params)
                    .map(|e| -e)
            };
            let objective = Fallible::new(&evaluate);
            // Generous symmetric coefficient box; the schedule itself is
            // clamped into the paper's domain by `fourier_to_params`.
            let bounds =
                optimize::Bounds::uniform(2 * q, -std::f64::consts::PI, std::f64::consts::PI)?;
            let start: Vec<f64> = u.iter().chain(v.iter()).copied().collect();
            let result =
                optimizer.minimize_objective(&objective, &start, &bounds, &self.options)?;
            if let Some(err) = objective.take_error() {
                return Err(err);
            }
            calls.push(result.n_calls);

            u.copy_from_slice(&result.x[..q]);
            v.copy_from_slice(&result.x[q..]);
            let params = fourier_to_params(&u, &v, depth);
            let expectation = -result.fx;
            final_outcome = Some(WarmStartOutcome {
                approximation_ratio: problem.approximation_ratio(expectation),
                params,
                expectation,
                calls_per_depth: calls.clone(),
            });
        }

        final_outcome.ok_or(QaoaError::InvalidDepth { depth: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use optimize::{Lbfgsb, NelderMead};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_ramp_monotone_and_bounded() {
        let init = linear_ramp(5, 3.75).unwrap();
        assert_eq!(init.len(), 10);
        for i in 0..4 {
            assert!(init[i] < init[i + 1], "gamma must ramp up");
            assert!(init[5 + i] > init[5 + i + 1], "beta must ramp down");
        }
        for i in 0..5 {
            assert!((0.0..=GAMMA_MAX).contains(&init[i]));
            assert!((0.0..=BETA_MAX).contains(&init[5 + i]));
        }
        assert!(matches!(
            linear_ramp(0, 1.0),
            Err(QaoaError::InvalidDepth { .. })
        ));
    }

    #[test]
    fn interp_step_depth1_to_2() {
        // p = 1: θ'₁ = θ₁, θ'₂ = θ₁ (w = 0 then w = 1).
        let next = interp_step(&[1.2, 0.4]).unwrap();
        assert_eq!(next, vec![1.2, 1.2, 0.4, 0.4]);
    }

    #[test]
    fn interp_step_preserves_linear_schedules() {
        // A linear ramp is a fixed point family of INTERP: interpolating a
        // linear schedule yields a linear schedule at the next depth.
        let p = 4;
        let packed: Vec<f64> = (1..=p)
            .map(|i| i as f64 / p as f64)
            .chain((1..=p).map(|i| 1.0 - i as f64 / p as f64))
            .collect();
        let next = interp_step(&packed).unwrap();
        assert_eq!(next.len(), 2 * (p + 1));
        // γ half still (weakly) increasing, β half decreasing.
        for i in 0..p {
            assert!(next[i] <= next[i + 1] + 1e-12);
            assert!(next[p + 1 + i] + 1e-12 >= next[p + 1 + i + 1]);
        }
    }

    #[test]
    fn interp_step_rejects_bad_shapes() {
        assert!(matches!(
            interp_step(&[]),
            Err(QaoaError::InvalidDepth { .. })
        ));
        assert!(matches!(
            interp_step(&[1.0, 2.0, 3.0]),
            Err(QaoaError::ParameterCount { .. })
        ));
    }

    #[test]
    fn fourier_single_term_shapes() {
        // One sine term: γ strictly increasing over stages; one cosine term:
        // β strictly decreasing.
        let params = fourier_to_params(&[0.8], &[0.6], 4);
        for i in 0..3 {
            assert!(params[i] < params[i + 1]);
            assert!(params[4 + i] > params[4 + i + 1]);
        }
        // Clamping keeps everything in the box even for huge coefficients.
        let big = fourier_to_params(&[100.0], &[-100.0], 3);
        for i in 0..3 {
            assert!((0.0..=GAMMA_MAX).contains(&big[i]));
            assert!((0.0..=BETA_MAX).contains(&big[3 + i]));
        }
    }

    #[test]
    fn interp_flow_reaches_good_ratio() {
        let problem = MaxCutProblem::new(&generators::cycle(6)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let out = InterpFlow::default()
            .run(&problem, 3, &Lbfgsb::default(), &mut rng)
            .unwrap();
        assert_eq!(out.calls_per_depth.len(), 3);
        assert!(out.total_calls() > 0);
        assert_eq!(out.params.len(), 6);
        assert!(
            out.approximation_ratio > 0.75,
            "{}",
            out.approximation_ratio
        );
        assert!(matches!(
            InterpFlow::default().run(&problem, 0, &Lbfgsb::default(), &mut rng),
            Err(QaoaError::InvalidDepth { .. })
        ));
    }

    #[test]
    fn fourier_flow_reaches_good_ratio() {
        let problem = MaxCutProblem::new(&generators::cycle(6)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let out = FourierFlow::default()
            .run(&problem, 3, &NelderMead::default(), &mut rng)
            .unwrap();
        assert_eq!(out.calls_per_depth.len(), 3);
        assert_eq!(out.params.len(), 6);
        assert!(
            out.approximation_ratio > 0.75,
            "{}",
            out.approximation_ratio
        );
        assert!(matches!(
            FourierFlow::default().run(&problem, 0, &NelderMead::default(), &mut rng),
            Err(QaoaError::InvalidDepth { .. })
        ));
        let zero_terms = FourierFlow {
            max_terms: 0,
            ..FourierFlow::default()
        };
        assert!(zero_terms
            .run(&problem, 2, &NelderMead::default(), &mut rng)
            .is_err());
    }

    #[test]
    fn deeper_interp_never_much_worse() {
        // AR should not collapse as depth grows (warm starts keep quality).
        let problem = MaxCutProblem::new(
            &generators::random_regular(6, 3, &mut StdRng::seed_from_u64(10)).unwrap(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let shallow = InterpFlow::default()
            .run(&problem, 1, &Lbfgsb::default(), &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let deep = InterpFlow::default()
            .run(&problem, 4, &Lbfgsb::default(), &mut rng)
            .unwrap();
        assert!(deep.approximation_ratio >= shallow.approximation_ratio - 0.02);
    }
}
