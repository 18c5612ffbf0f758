//! The allocation-free, gradient-capable evaluation context of the QAOA
//! hot path.
//!
//! Every "function call / QC call" of the paper is one expectation
//! evaluation, and a corpus sweep runs millions of them. The original fast
//! path paid two heap allocations per call (a fresh `plus` state plus a
//! `2^n` phase vector per stage) and `2^n` trigonometric evaluations per
//! stage. [`EvalContext`] removes all of it:
//!
//! * the state (and, for gradients, the adjoint state) live in **reusable
//!   buffers** reset in place per evaluation,
//! * the phase-separation layer is applied through a **per-level phase
//!   table** — `cis(−γ·c)` computed once per distinct cut value (at most
//!   `|E| + 1` of them) instead of once per basis state,
//! * both layers run on the split re/im structure-of-arrays kernels of
//!   [`qsim::soa::SplitState`]: autovectorized straight-line loops,
//!   cache-blocked so the phase layer and the low-qubit mixing sub-layers
//!   cost one trip through memory (two qubits per pass over a resident
//!   tile, the first pass fused with the phase layer), and fanned out
//!   across scoped threads for large registers (see
//!   [`with_within_state_threads`]),
//! * and only on **half the state**: `|+…+⟩`, the MaxCut phase layer
//!   (`C(z) = C(z̄)`) and the RX layers all commute with flipping every
//!   qubit, so the state — and the costate `C|ψ⟩` — are stored as their
//!   lower half, with bit-identical results (see the `qsim::soa` docs).
//!
//! The same context also computes **exact analytic gradients** by the
//! adjoint method in `O(p · n · 2^n)` — about 5 plain evaluations at
//! p = 2 (`gradient/adjoint` over `expectation/ctx_reused` in
//! `BENCH_eval.json`: 4.8× at n = 12, 5.2× at n = 16, 6.4× at n = 20; the
//! full-index reductions of the backward pass did not get cheaper when
//! the forward pass did), independent of the parameter count — where
//! finite differences need `2p + 1` full evaluations. Because the cost
//! Hamiltonian is diagonal, the backward pass is a phase conjugation plus
//! per-qubit RX derivatives; no per-gate unitary differentiation is
//! needed.
//!
//! Every context has one owner. The objective of one optimizer run (the
//! exact objective of [`QaoaInstance::optimize`](crate::QaoaInstance::optimize),
//! [`SampledExpectation`](crate::sampled::SampledExpectation) and the
//! Fourier flow's objective) builds one context and reuses its buffers for
//! every call of that run; [`QaoaAnsatz::expectation`](crate::QaoaAnsatz::expectation)
//! builds one per call. Reuse is exact: a reset context is byte-for-byte
//! identical to a fresh one, and every kernel and reduction is
//! deterministic in the thread budget (fixed tile partials combined in
//! index order), so results are bit-identical at any worker count, any
//! within-state budget, and with any job schedule.

use std::cell::Cell;

use qsim::soa::{self, SplitState};
use qsim::DiagonalObservable;

/// Reusable evaluation state: the work state, the adjoint state (gradients
/// only) and the per-stage phase table, all in split re/im form.
///
/// Build one with [`EvalContext::new`] per optimizer run and pass it to
/// [`QaoaAnsatz::expectation_in`](crate::QaoaAnsatz::expectation_in) /
/// [`QaoaAnsatz::expectation_and_grad_in`](crate::QaoaAnsatz::expectation_and_grad_in).
///
/// # Example
///
/// ```
/// use graphs::generators;
/// use qaoa::{EvalContext, MaxCutProblem, QaoaAnsatz};
/// # fn main() -> Result<(), qaoa::QaoaError> {
/// let problem = MaxCutProblem::new(&generators::cycle(4))?;
/// let ansatz = QaoaAnsatz::new(problem, 1)?;
/// let mut ctx = EvalContext::new(4);
/// // Repeated evaluations reuse the same buffers...
/// let a = ansatz.expectation_in(&mut ctx, &[0.4, 0.3])?;
/// let b = ansatz.expectation_in(&mut ctx, &[0.4, 0.3])?;
/// // ...and are bit-identical to the allocating wrapper.
/// assert_eq!(a.to_bits(), b.to_bits());
/// assert_eq!(a.to_bits(), ansatz.expectation(&[0.4, 0.3])?.to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EvalContext {
    state: SplitState,
    /// Costate buffer for the adjoint backward pass. Kept at width 0 (one
    /// amplitude) until the first gradient call so expectation-only users —
    /// gradient-free optimizers, plain `expectation` — never pay for a
    /// second `2^n` buffer.
    adjoint: SplitState,
    /// Per-level phase factors, split like the state.
    phase_re: Vec<f64>,
    phase_im: Vec<f64>,
    /// Within-state fan-out budget for every kernel call, read from
    /// [`within_state_threads`] at construction. Never affects results
    /// (kernels are deterministic in the budget), only wall-clock.
    threads: usize,
}

impl EvalContext {
    /// A context sized for `n_qubits`-wide registers. Widths adapt
    /// automatically on use, so the initial width is just a pre-allocation
    /// hint. The within-state thread budget is the calling thread's
    /// [`within_state_threads`] at this call.
    #[must_use]
    pub fn new(n_qubits: usize) -> Self {
        Self {
            state: SplitState::plus_state(n_qubits),
            adjoint: SplitState::plus_state(0),
            phase_re: Vec::new(),
            phase_im: Vec::new(),
            threads: within_state_threads(),
        }
    }

    /// Current register width.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.state.n_qubits()
    }

    /// The work state. After a plain evaluation
    /// ([`QaoaAnsatz::expectation_in`](crate::QaoaAnsatz::expectation_in))
    /// this is `|ψ(γ, β)⟩`, stored as its lower half (read it through
    /// [`SplitState::amplitude`] or [`SplitState::amplitudes`]); after a
    /// gradient call the backward pass has
    /// **unwound** it in place (back to `|+…+⟩` up to rounding), so re-run
    /// a plain evaluation before reading the state.
    #[must_use]
    pub fn state(&self) -> &SplitState {
        &self.state
    }

    /// The within-state fan-out budget: how many scoped threads one kernel
    /// call may use on registers of at least [`qsim::soa::PAR_MIN_DIM`]
    /// amplitudes. It never changes a result, only evaluation latency.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Resizes the work state when the problem width changes (reallocation
    /// only happens on an actual width switch). The adjoint buffer is
    /// sized separately, on gradient use.
    fn ensure_width(&mut self, n_qubits: usize) {
        if self.state.n_qubits() != n_qubits {
            self.state = SplitState::plus_state(n_qubits);
        }
    }

    /// Fills the phase table with `cis(scale · level)` per distinct level,
    /// split into re/im planes. The entries are bit-identical to
    /// `Complex64::cis(scale · level)`.
    fn load_phase_table(&mut self, levels: &[f64], scale: f64) {
        self.phase_re.clear();
        self.phase_im.clear();
        for &v in levels {
            let angle = scale * v;
            self.phase_re.push(angle.cos());
            self.phase_im.push(angle.sin());
        }
    }

    /// Forward pass: `|ψ(γ, β)⟩` into the work state, allocation-free.
    /// Each stage is one fused phase+mixing sweep plus the high-qubit
    /// butterflies ([`SplitState::apply_phase_rx`]).
    pub(crate) fn run_forward(&mut self, cost: &DiagonalObservable, gammas: &[f64], betas: &[f64]) {
        debug_assert_eq!(cost.level_of().len(), 1usize << cost.n_qubits());
        self.ensure_width(cost.n_qubits());
        self.state.reset_to_plus(self.threads);
        for (&gamma, &beta) in gammas.iter().zip(betas) {
            self.load_phase_table(cost.levels(), -gamma);
            self.state.apply_phase_rx(
                cost.level_of(),
                &self.phase_re,
                &self.phase_im,
                2.0 * beta,
                self.threads,
            );
        }
    }

    /// Forward pass plus expectation `⟨ψ|C|ψ⟩`.
    pub(crate) fn expectation(
        &mut self,
        cost: &DiagonalObservable,
        gammas: &[f64],
        betas: &[f64],
    ) -> f64 {
        self.run_forward(cost, gammas, betas);
        self.state.expectation_diag(cost.diagonal(), self.threads)
    }

    /// Expectation **and** its exact gradient by the adjoint method.
    ///
    /// Writes `∂⟨C⟩/∂γ_k` into `grad[k]` and `∂⟨C⟩/∂β_k` into
    /// `grad[p + k]` (the `[γ₁…γ_p, β₁…β_p]` layout) and returns `⟨C⟩`.
    ///
    /// Derivation: with `|ψ_k⟩` the state after stage `k` and
    /// `⟨λ| = ⟨ψ_p| C · U_p ⋯ U_{k+1}` the back-propagated costate,
    ///
    /// * `∂⟨C⟩/∂β_k = 2 Σ_q Im ⟨λ|X_q|ψ_k⟩` (from `∂/∂β e^{−iβX} = −iX e^{−iβX}`),
    /// * `∂⟨C⟩/∂γ_k = 2 Σ_z c_z · Im(λ̄_z ψ_z)` evaluated after undoing the
    ///   mixing layer (from `∂/∂γ e^{−iγC} = −iC e^{−iγC}`, diagonal).
    ///
    /// The backward pass undoes each stage on both states in place —
    /// `RX(−2β)` then the conjugate phase table — so the whole computation
    /// costs `O(p·n·2^n)` and allocates nothing. The costate seed `C|ψ⟩`
    /// is flip-symmetric like `|ψ⟩`, so both run on their stored halves;
    /// the reductions still sum over the full index range, in the same
    /// order as a full-plane pass.
    pub(crate) fn expectation_and_grad(
        &mut self,
        cost: &DiagonalObservable,
        gammas: &[f64],
        betas: &[f64],
        grad: &mut [f64],
    ) -> f64 {
        let p = gammas.len();
        debug_assert_eq!(grad.len(), 2 * p);
        self.run_forward(cost, gammas, betas);
        let energy = self.state.expectation_diag(cost.diagonal(), self.threads);

        // First gradient use (or a width switch): size the lazily-kept
        // adjoint buffer.
        if self.adjoint.n_qubits() != self.state.n_qubits() {
            self.adjoint = SplitState::plus_state(self.state.n_qubits());
        }
        // Costate seed: |λ⟩ = C|ψ⟩ (elementwise, C is diagonal).
        self.adjoint
            .assign_scaled(&self.state, cost.diagonal(), self.threads);

        for k in (0..p).rev() {
            // β_k gradient at the post-stage states.
            grad[p + k] = 2.0 * soa::sum_im_cross_x(&self.adjoint, &self.state, self.threads);
            // Undo the mixing layer on both states.
            self.state.apply_rx_layer(-2.0 * betas[k], self.threads);
            self.adjoint.apply_rx_layer(-2.0 * betas[k], self.threads);
            // γ_k gradient now that ψ is the post-phase state.
            grad[k] = 2.0
                * soa::sum_diag_im_cross(cost.diagonal(), &self.adjoint, &self.state, self.threads);
            // Undo the phase layer on both states (conjugate table).
            self.load_phase_table(cost.levels(), gammas[k]);
            self.state.apply_phase_levels(
                cost.level_of(),
                &self.phase_re,
                &self.phase_im,
                self.threads,
            );
            self.adjoint.apply_phase_levels(
                cost.level_of(),
                &self.phase_re,
                &self.phase_im,
                self.threads,
            );
        }
        energy
    }
}

thread_local! {
    /// The calling thread's within-state fan-out budget, read by every
    /// [`EvalContext::new`]. Set per job by the batch engine
    /// (`engine::Pool`'s within-job fan-out); defaults to 1 (serial
    /// kernels).
    static WITHIN_STATE_BUDGET: Cell<usize> = const { Cell::new(1) };
}

/// Runs `f` with the calling thread's within-state fan-out budget set to
/// `threads` (clamped to at least 1), restoring the previous budget after —
/// also on panic, so pooled worker threads never leak a stale budget. Every
/// [`EvalContext`] built inside `f` takes this budget.
///
/// The budget is a latency lever only: kernels and reductions are
/// deterministic in it, so results are bit-identical at any setting.
pub fn with_within_state_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WITHIN_STATE_BUDGET.with(|cell| cell.set(self.0));
        }
    }
    let prev = WITHIN_STATE_BUDGET.with(|cell| cell.replace(threads.max(1)));
    let _restore = Restore(prev);
    f()
}

/// The calling thread's current within-state fan-out budget.
#[must_use]
pub fn within_state_threads() -> usize {
    WITHIN_STATE_BUDGET.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MaxCutProblem, QaoaAnsatz};
    use graphs::{generators, Graph};

    #[test]
    fn context_adapts_width() {
        let mut ctx = EvalContext::new(3);
        assert_eq!(ctx.n_qubits(), 3);
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let ansatz = QaoaAnsatz::new(problem, 1).unwrap();
        let e = ansatz.expectation_in(&mut ctx, &[0.2, 0.1]).unwrap();
        assert_eq!(ctx.n_qubits(), 5);
        assert!(e.is_finite());
    }

    #[test]
    fn within_state_budget_scopes_and_restores() {
        assert_eq!(within_state_threads(), 1);
        let inner = with_within_state_threads(4, || {
            let nested = with_within_state_threads(2, within_state_threads);
            assert_eq!(nested, 2);
            EvalContext::new(3).threads()
        });
        assert_eq!(inner, 4);
        assert_eq!(within_state_threads(), 1);
        // Zero clamps to serial.
        assert_eq!(with_within_state_threads(0, within_state_threads), 1);
    }

    #[test]
    fn thread_budget_never_changes_results() {
        let problem = MaxCutProblem::new(&generators::cycle(6)).unwrap();
        let ansatz = QaoaAnsatz::new(problem, 2).unwrap();
        let params = [0.9, 0.2, 0.4, 0.7];
        let mut grad1 = [0.0; 4];
        let mut grad4 = [0.0; 4];
        let mut ctx = EvalContext::new(6);
        let e1 = ansatz
            .expectation_and_grad_in(&mut ctx, &params, &mut grad1)
            .unwrap();
        let e4 = with_within_state_threads(4, || {
            let mut ctx = EvalContext::new(6);
            assert_eq!(ctx.threads(), 4);
            ansatz.expectation_and_grad_in(&mut ctx, &params, &mut grad4)
        })
        .unwrap();
        assert_eq!(e1.to_bits(), e4.to_bits());
        for (a, b) in grad1.iter().zip(&grad4) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn single_edge_gradient_matches_closed_form() {
        // One edge at p = 1: ⟨C⟩ = ½(1 + sin4β·sinγ), so
        // ∂γ = ½ sin4β cosγ and ∂β = 2 cos4β sinγ.
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let ansatz = QaoaAnsatz::new(MaxCutProblem::new(&g).unwrap(), 1).unwrap();
        let mut ctx = EvalContext::new(2);
        let mut grad = [0.0; 2];
        for (gamma, beta) in [(0.7, 0.3), (2.1, 1.0), (4.4, 2.9), (0.0, 0.0)] {
            let e = ansatz
                .expectation_and_grad_in(&mut ctx, &[gamma, beta], &mut grad)
                .unwrap();
            let expect_e = 0.5 * (1.0 + (4.0 * beta).sin() * gamma.sin());
            let expect_dg = 0.5 * (4.0 * beta).sin() * gamma.cos();
            let expect_db = 2.0 * (4.0 * beta).cos() * gamma.sin();
            assert!((e - expect_e).abs() < 1e-12, "γ={gamma}, β={beta}");
            assert!(
                (grad[0] - expect_dg).abs() < 1e-10,
                "∂γ at γ={gamma}, β={beta}: {} vs {expect_dg}",
                grad[0]
            );
            assert!(
                (grad[1] - expect_db).abs() < 1e-10,
                "∂β at γ={gamma}, β={beta}: {} vs {expect_db}",
                grad[1]
            );
        }
    }

    #[test]
    fn gradient_call_leaves_context_reusable() {
        // After a backward pass the context must still produce bit-identical
        // plain evaluations (the backward pass unwinds in place).
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let ansatz = QaoaAnsatz::new(problem, 2).unwrap();
        let params = [1.2, 0.4, 0.6, 0.9];
        let mut ctx = EvalContext::new(5);
        let fresh = ansatz
            .expectation_in(&mut EvalContext::new(5), &params)
            .unwrap();
        let mut grad = [0.0; 4];
        let _ = ansatz
            .expectation_and_grad_in(&mut ctx, &params, &mut grad)
            .unwrap();
        let after = ansatz.expectation_in(&mut ctx, &params).unwrap();
        assert_eq!(fresh.to_bits(), after.to_bits());
    }
}
