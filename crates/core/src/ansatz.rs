use qsim::{Circuit, StateVector};

use crate::{EvalContext, MaxCutProblem, QaoaError};

/// The depth-`p` QAOA circuit for a MaxCut problem, with two equivalent
/// execution paths.
///
/// **Gate-level path** ([`QaoaAnsatz::build_circuit`] / Fig. 1(a)): a layer
/// of Hadamards, then per stage a phase-separation layer (per edge:
/// `CNOT(u,v) · RZ_v(−γ·w) · CNOT(u,v)`, the paper's `RZ(−γ)` construction)
/// followed by a mixing layer of `RX(2β)` rotations.
///
/// **Fast diagonal path** ([`QaoaAnsatz::expectation_in`]): because the
/// cost Hamiltonian is diagonal, `e^{−iγC}` is a per-amplitude phase and
/// only the mixing layer needs gate kernels. This is `O(2ⁿ·(1 + n))` per
/// stage versus `O(2ⁿ·(|E| + n))` for the gate path and is what the
/// optimization loop uses — through a reusable [`EvalContext`] running on
/// the split re/im SoA kernels of `qsim::soa` (autovectorized,
/// cache-blocked, optionally fanned out within one state), which also
/// provides the exact adjoint gradient
/// ([`QaoaAnsatz::expectation_and_grad_in`]). The paths agree to machine
/// precision (see this module's tests; the `eval_hot_path` bench times the
/// fast path).
///
/// Parameters are laid out `[γ₁…γ_p, β₁…β_p]`, matching
/// [`parameter_bounds`](crate::parameter_bounds).
///
/// # Example
///
/// ```
/// use graphs::generators;
/// use qaoa::{MaxCutProblem, QaoaAnsatz};
/// # fn main() -> Result<(), qaoa::QaoaError> {
/// let problem = MaxCutProblem::new(&generators::cycle(4))?;
/// let ansatz = QaoaAnsatz::new(problem, 1)?;
/// // A single-edge-free sanity point: γ = β = 0 leaves the uniform state,
/// // whose expectation is half the edges.
/// let e = ansatz.expectation(&[0.0, 0.0])?;
/// assert!((e - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QaoaAnsatz {
    problem: MaxCutProblem,
    depth: usize,
}

impl QaoaAnsatz {
    /// Wraps a problem at circuit depth `p ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::InvalidDepth`] for `p = 0`.
    pub fn new(problem: MaxCutProblem, depth: usize) -> Result<Self, QaoaError> {
        if depth == 0 {
            return Err(QaoaError::InvalidDepth { depth });
        }
        Ok(Self { problem, depth })
    }

    /// The wrapped problem.
    #[must_use]
    pub fn problem(&self) -> &MaxCutProblem {
        &self.problem
    }

    /// Circuit depth `p`.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of trainable parameters (`2·p`).
    #[must_use]
    pub fn n_parameters(&self) -> usize {
        2 * self.depth
    }

    fn check_params(&self, params: &[f64]) -> Result<(), QaoaError> {
        if params.len() != self.n_parameters() {
            return Err(QaoaError::ParameterCount {
                expected: self.n_parameters(),
                actual: params.len(),
            });
        }
        Ok(())
    }

    /// Splits a packed parameter vector into `(γs, βs)`.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::ParameterCount`] on a length mismatch.
    pub fn split_params<'a>(&self, params: &'a [f64]) -> Result<(&'a [f64], &'a [f64]), QaoaError> {
        self.check_params(params)?;
        Ok(params.split_at(self.depth))
    }

    /// Builds the explicit gate-level circuit of Fig. 1(a).
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::ParameterCount`] on a length mismatch.
    pub fn build_circuit(&self, params: &[f64]) -> Result<Circuit, QaoaError> {
        let (gammas, betas) = self.split_params(params)?;
        let n = self.problem.n_qubits();
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        for (&gamma, &beta) in gammas.iter().zip(betas) {
            // Phase separation: e^{-iγ w_{uv} C_{uv}} per edge, realized as
            // CNOT · RZ(-γ·w) · CNOT (global phase dropped).
            for e in self.problem.graph().edges() {
                c.cnot(e.u, e.v);
                c.rz(e.v, -gamma * e.weight);
                c.cnot(e.u, e.v);
            }
            // Mixing: e^{-iβ X_q} = RX(2β).
            for q in 0..n {
                c.rx(q, 2.0 * beta);
            }
        }
        Ok(c)
    }

    /// The QAOA objective `⟨ψ(γ, β)|C|ψ(γ, β)⟩` — the quantity each
    /// "function call / QC call" of the paper evaluates — in a fresh
    /// [`EvalContext`] built for this one call. Loops that evaluate many
    /// points keep one context and call [`QaoaAnsatz::expectation_in`].
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::ParameterCount`] on a length mismatch.
    pub fn expectation(&self, params: &[f64]) -> Result<f64, QaoaError> {
        self.expectation_in(&mut EvalContext::new(self.problem.n_qubits()), params)
    }

    /// The objective evaluated **in** a caller-supplied [`EvalContext`]:
    /// the allocation-free hot entry point of the evaluation pipeline. The
    /// context's buffers are reset in place, so repeated calls are
    /// bit-identical to fresh-state evaluations.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::ParameterCount`] on a length mismatch.
    pub fn expectation_in(&self, ctx: &mut EvalContext, params: &[f64]) -> Result<f64, QaoaError> {
        let (gammas, betas) = self.split_params(params)?;
        Ok(ctx.expectation(self.problem.cost(), gammas, betas))
    }

    /// The objective **and its exact gradient** by the adjoint method, in
    /// `O(p·n·2ⁿ)` — about 5 plain evaluations at p = 2 (measured in
    /// `BENCH_eval.json`, see the [`crate::eval`] docs), independent of the
    /// parameter count (finite differences need `2p + 1` evaluations).
    /// Writes `∂⟨C⟩/∂γ_k` into `grad[k]` and `∂⟨C⟩/∂β_k` into
    /// `grad[p + k]`, returns `⟨C⟩`. Verified against central differences
    /// (see `tests/tests/gradient.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::ParameterCount`] if `params` or `grad` have the
    /// wrong length.
    pub fn expectation_and_grad_in(
        &self,
        ctx: &mut EvalContext,
        params: &[f64],
        grad: &mut [f64],
    ) -> Result<f64, QaoaError> {
        let (gammas, betas) = self.split_params(params)?;
        if grad.len() != self.n_parameters() {
            return Err(QaoaError::ParameterCount {
                expected: self.n_parameters(),
                actual: grad.len(),
            });
        }
        Ok(ctx.expectation_and_grad(self.problem.cost(), gammas, betas, grad))
    }

    /// The objective via the gate-level path (used for cross-validation and
    /// the path-comparison bench).
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::ParameterCount`] on a length mismatch.
    pub fn expectation_gate_level(&self, params: &[f64]) -> Result<f64, QaoaError> {
        let circuit = self.build_circuit(params)?;
        let state = circuit.run(StateVector::zero_state(self.problem.n_qubits()))?;
        Ok(self.problem.cost().expectation(&state)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EPS: f64 = 1e-10;

    fn single_edge() -> QaoaAnsatz {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        QaoaAnsatz::new(MaxCutProblem::new(&g).unwrap(), 1).unwrap()
    }

    #[test]
    fn p1_single_edge_closed_form() {
        // For one edge, ⟨C⟩(γ, β) = ½(1 + sin(4β)·sin(γ)) (Farhi et al.).
        let ansatz = single_edge();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let gamma = rng.gen_range(0.0..crate::GAMMA_MAX);
            let beta = rng.gen_range(0.0..crate::BETA_MAX);
            let expect = 0.5 * (1.0 + (4.0 * beta).sin() * gamma.sin());
            let got = ansatz.expectation(&[gamma, beta]).unwrap();
            assert!(
                (got - expect).abs() < EPS,
                "γ={gamma}, β={beta}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn p1_single_edge_optimum_reaches_analytic_max() {
        // Max of ½(1 + sin4β sinγ) is 1 at γ = π/2, β = π/8.
        let ansatz = single_edge();
        let best = ansatz
            .expectation(&[std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_8])
            .unwrap();
        assert!((best - 1.0).abs() < EPS);
    }

    #[test]
    fn fast_and_gate_paths_agree() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let g = generators::erdos_renyi_nonempty(5, 0.5, &mut rng);
            let problem = MaxCutProblem::new(&g).unwrap();
            for p in 1..=3 {
                let ansatz = QaoaAnsatz::new(problem.clone(), p).unwrap();
                let params: Vec<f64> = (0..2 * p)
                    .map(|i| {
                        if i < p {
                            rng.gen_range(0.0..crate::GAMMA_MAX)
                        } else {
                            rng.gen_range(0.0..crate::BETA_MAX)
                        }
                    })
                    .collect();
                let fast = ansatz.expectation(&params).unwrap();
                let gate = ansatz.expectation_gate_level(&params).unwrap();
                assert!((fast - gate).abs() < 1e-9, "p={p}: {fast} vs {gate}");
                // The full states also agree up to global phase.
                let mut ctx = EvalContext::new(problem.n_qubits());
                ansatz.expectation_in(&mut ctx, &params).unwrap();
                let sf = ctx.state().to_state_vector();
                let sg = ansatz
                    .build_circuit(&params)
                    .unwrap()
                    .run(StateVector::zero_state(problem.n_qubits()))
                    .unwrap();
                assert!((sf.fidelity(&sg).unwrap() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn weighted_edges_respected_by_both_paths() {
        let mut g = Graph::new(3);
        g.add_weighted_edge(0, 1, 2.0).unwrap();
        g.add_weighted_edge(1, 2, 0.5).unwrap();
        let ansatz = QaoaAnsatz::new(MaxCutProblem::new(&g).unwrap(), 2).unwrap();
        let params = [0.7, 1.1, 0.4, 0.9];
        let fast = ansatz.expectation(&params).unwrap();
        let gate = ansatz.expectation_gate_level(&params).unwrap();
        assert!((fast - gate).abs() < 1e-9);
    }

    #[test]
    fn zero_parameters_give_uniform_expectation() {
        // γ = β = 0: state stays |+…+⟩ and ⟨C⟩ = |E|·w̄/2 = m/2 (unweighted).
        let g = generators::complete(4);
        let ansatz = QaoaAnsatz::new(MaxCutProblem::new(&g).unwrap(), 3).unwrap();
        let e = ansatz.expectation(&[0.0; 6]).unwrap();
        assert!((e - 3.0).abs() < EPS); // 6 edges / 2
    }

    #[test]
    fn norm_preserved_through_ansatz() {
        let g = generators::cycle(5);
        let ansatz = QaoaAnsatz::new(MaxCutProblem::new(&g).unwrap(), 4).unwrap();
        let params: Vec<f64> = (0..8).map(|i| 0.3 + 0.1 * i as f64).collect();
        let mut ctx = EvalContext::new(5);
        ansatz.expectation_in(&mut ctx, &params).unwrap();
        assert!((ctx.state().to_state_vector().norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn parameter_count_enforced() {
        let ansatz = single_edge();
        assert!(matches!(
            ansatz.expectation(&[0.1]),
            Err(QaoaError::ParameterCount {
                expected: 2,
                actual: 1
            })
        ));
        assert!(matches!(
            ansatz.build_circuit(&[0.1, 0.2, 0.3]),
            Err(QaoaError::ParameterCount { .. })
        ));
        assert!(QaoaAnsatz::new(ansatz.problem().clone(), 0).is_err());
    }

    #[test]
    fn circuit_structure_matches_paper() {
        // p=1 on a single edge: 2 H + 2 CNOT + 1 RZ + 2 RX = 7 gates.
        let ansatz = single_edge();
        let c = ansatz.build_circuit(&[0.5, 0.5]).unwrap();
        assert_eq!(c.len(), 7);
        assert_eq!(c.two_qubit_count(), 2);
        assert!(c.validate().is_ok());
    }
}
