//! Bit-parity of the SoA/SIMD kernels (`qsim::soa`) against two
//! references, the invariant the whole `EvalContext` fast path rests on:
//! **per-amplitude floating-point operations are identical in value and
//! order**, so results match bitwise — not to tolerance — for any width,
//! any depth, any parameters, and any within-state thread budget.
//!
//! * The scalar `StateVector` kernels: amplitudes match bitwise.
//! * The full-plane split kernels that stored both mirror images before
//!   `SplitState` kept only the bit-flip-symmetric lower half. This file
//!   keeps them as [`reference`] (the library no longer carries them):
//!   the expanded amplitudes, the energy and every adjoint-gradient
//!   component match bitwise, reductions included.
//!
//! Every budget-dependent test runs at a serial and a fanned-out
//! within-state budget ([`THREAD_BUDGETS`]), each against the reference.

use graphs::generators;
use proptest::prelude::*;
use qaoa::{EvalContext, MaxCutProblem, QaoaAnsatz};
use qsim::soa::{self, SplitState};
use qsim::{Complex64, DiagonalObservable, QsimError, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The full-plane split re/im kernels: both mirror images stored, every
/// qubit's butterfly over the whole state, reductions as per-`TILE`
/// partials combined in tile order. Serial: the thread budget never
/// changed their results. Indexed loops keep the arithmetic order easy
/// to read against the library's.
#[allow(clippy::needless_range_loop)]
mod reference {
    use qsim::soa::{TILE, TILE_BITS};
    use qsim::DiagonalObservable;

    pub struct FullState {
        pub n_qubits: usize,
        pub re: Vec<f64>,
        pub im: Vec<f64>,
    }

    impl FullState {
        pub fn plus_state(n_qubits: usize) -> Self {
            let dim = 1usize << n_qubits;
            let amp = 1.0 / (dim as f64).sqrt();
            Self {
                n_qubits,
                re: vec![amp; dim],
                im: vec![0.0; dim],
            }
        }

        fn dim(&self) -> usize {
            self.re.len()
        }

        pub fn apply_phase_levels(&mut self, level_of: &[u32], table_re: &[f64], table_im: &[f64]) {
            for (c, (re, im)) in self
                .re
                .chunks_mut(TILE)
                .zip(self.im.chunks_mut(TILE))
                .enumerate()
            {
                let start = c * TILE;
                phase_tile(
                    re,
                    im,
                    &level_of[start..start + re.len()],
                    table_re,
                    table_im,
                );
            }
        }

        pub fn apply_rx_layer(&mut self, theta: f64) {
            let (s, co) = (theta / 2.0).sin_cos();
            let n_low = self.n_qubits.min(TILE_BITS);
            for (re, im) in self.re.chunks_mut(TILE).zip(self.im.chunks_mut(TILE)) {
                rx_tile(re, im, n_low, s, co);
            }
            for qubit in TILE_BITS..self.n_qubits {
                self.rx_high_pass(1 << qubit, s, co);
            }
        }

        pub fn apply_phase_rx(
            &mut self,
            level_of: &[u32],
            table_re: &[f64],
            table_im: &[f64],
            theta: f64,
        ) {
            let (s, co) = (theta / 2.0).sin_cos();
            let n_low = self.n_qubits.min(TILE_BITS);
            for (c, (re, im)) in self
                .re
                .chunks_mut(TILE)
                .zip(self.im.chunks_mut(TILE))
                .enumerate()
            {
                let start = c * TILE;
                phase_tile(
                    re,
                    im,
                    &level_of[start..start + re.len()],
                    table_re,
                    table_im,
                );
                rx_tile(re, im, n_low, s, co);
            }
            for qubit in TILE_BITS..self.n_qubits {
                self.rx_high_pass(1 << qubit, s, co);
            }
        }

        fn rx_high_pass(&mut self, stride: usize, s: f64, co: f64) {
            for (re_block, im_block) in self
                .re
                .chunks_mut(2 * stride)
                .zip(self.im.chunks_mut(2 * stride))
            {
                let (re_lo, re_hi) = re_block.split_at_mut(stride);
                let (im_lo, im_hi) = im_block.split_at_mut(stride);
                rx_butterfly(re_lo, im_lo, re_hi, im_hi, s, co);
            }
        }

        pub fn assign_scaled(&mut self, src: &FullState, diag: &[f64]) {
            for z in 0..self.dim() {
                self.re[z] = src.re[z] * diag[z];
                self.im[z] = src.im[z] * diag[z];
            }
        }

        pub fn expectation_diag(&self, diag: &[f64]) -> f64 {
            reduce_tiles(self.dim(), |start, len| {
                let mut acc = 0.0;
                for k in start..start + len {
                    acc += (self.re[k] * self.re[k] + self.im[k] * self.im[k]) * diag[k];
                }
                acc
            })
        }
    }

    pub fn sum_im_cross_x(lambda: &FullState, psi: &FullState) -> f64 {
        reduce_tiles(psi.dim(), |start, len| {
            let mut acc = 0.0;
            for qubit in 0..psi.n_qubits {
                let stride = 1usize << qubit;
                if stride < len {
                    let mut base = start;
                    while base < start + len {
                        let mut block = 0.0;
                        for k in base..base + stride {
                            let h = k + stride;
                            block += lambda.re[k] * psi.im[h] - lambda.im[k] * psi.re[h]
                                + lambda.re[h] * psi.im[k]
                                - lambda.im[h] * psi.re[k];
                        }
                        acc += block;
                        base += 2 * stride;
                    }
                } else {
                    let partner = start ^ stride;
                    let mut block = 0.0;
                    for k in 0..len {
                        let (a, b) = (start + k, partner + k);
                        block += lambda.re[a] * psi.im[b] - lambda.im[a] * psi.re[b];
                    }
                    acc += block;
                }
            }
            acc
        })
    }

    pub fn sum_diag_im_cross(diag: &[f64], lambda: &FullState, psi: &FullState) -> f64 {
        reduce_tiles(psi.dim(), |start, len| {
            let mut acc = 0.0;
            for k in start..start + len {
                acc += diag[k] * (lambda.re[k] * psi.im[k] - lambda.im[k] * psi.re[k]);
            }
            acc
        })
    }

    /// `⟨C⟩` and its adjoint gradient `[∂γ₁…∂γ_p, ∂β₁…∂β_p]`, in the
    /// order the evaluation context runs the kernels.
    pub fn energy_and_grad(
        cost: &DiagonalObservable,
        gammas: &[f64],
        betas: &[f64],
    ) -> (FullState, f64, Vec<f64>) {
        let p = gammas.len();
        let mut state = forward(cost, gammas, betas);
        let forward_state = FullState {
            n_qubits: state.n_qubits,
            re: state.re.clone(),
            im: state.im.clone(),
        };
        let energy = state.expectation_diag(cost.diagonal());
        let mut adjoint = FullState::plus_state(state.n_qubits);
        adjoint.assign_scaled(&state, cost.diagonal());
        let mut grad = vec![0.0; 2 * p];
        for k in (0..p).rev() {
            grad[p + k] = 2.0 * sum_im_cross_x(&adjoint, &state);
            state.apply_rx_layer(-2.0 * betas[k]);
            adjoint.apply_rx_layer(-2.0 * betas[k]);
            grad[k] = 2.0 * sum_diag_im_cross(cost.diagonal(), &adjoint, &state);
            let (tre, tim) = phase_table(cost.levels(), gammas[k]);
            state.apply_phase_levels(cost.level_of(), &tre, &tim);
            adjoint.apply_phase_levels(cost.level_of(), &tre, &tim);
        }
        (forward_state, energy, grad)
    }

    fn forward(cost: &DiagonalObservable, gammas: &[f64], betas: &[f64]) -> FullState {
        let mut state = FullState::plus_state(cost.n_qubits());
        for (&gamma, &beta) in gammas.iter().zip(betas) {
            let (tre, tim) = phase_table(cost.levels(), -gamma);
            state.apply_phase_rx(cost.level_of(), &tre, &tim, 2.0 * beta);
        }
        state
    }

    /// `cis(scale · level)` per level, split into re/im planes.
    pub fn phase_table(levels: &[f64], scale: f64) -> (Vec<f64>, Vec<f64>) {
        levels
            .iter()
            .map(|&v| {
                let angle = scale * v;
                (angle.cos(), angle.sin())
            })
            .unzip()
    }

    fn reduce_tiles(dim: usize, f: impl Fn(usize, usize) -> f64) -> f64 {
        (0..dim.div_ceil(TILE))
            .map(|c| f(c * TILE, TILE.min(dim - c * TILE)))
            .fold(0.0, |acc, p| acc + p)
    }

    fn phase_tile(re: &mut [f64], im: &mut [f64], level_of: &[u32], tre: &[f64], tim: &[f64]) {
        for k in 0..re.len() {
            let l = level_of[k] as usize;
            let (r0, i0) = (re[k], im[k]);
            re[k] = r0 * tre[l] - i0 * tim[l];
            im[k] = r0 * tim[l] + i0 * tre[l];
        }
    }

    fn rx_butterfly(
        lo_re: &mut [f64],
        lo_im: &mut [f64],
        hi_re: &mut [f64],
        hi_im: &mut [f64],
        s: f64,
        co: f64,
    ) {
        for k in 0..lo_re.len() {
            let (r0, i0, r1, i1) = (lo_re[k], lo_im[k], hi_re[k], hi_im[k]);
            lo_re[k] = co * r0 + s * i1;
            lo_im[k] = co * i0 - s * r1;
            hi_re[k] = co * r1 + s * i0;
            hi_im[k] = co * i1 - s * r0;
        }
    }

    fn rx_tile(re: &mut [f64], im: &mut [f64], n_low: usize, s: f64, co: f64) {
        for qubit in 0..n_low {
            let stride = 1usize << qubit;
            for (re_block, im_block) in re.chunks_mut(2 * stride).zip(im.chunks_mut(2 * stride)) {
                let (re_lo, re_hi) = re_block.split_at_mut(stride);
                let (im_lo, im_hi) = im_block.split_at_mut(stride);
                rx_butterfly(re_lo, im_lo, re_hi, im_hi, s, co);
            }
        }
    }
}

/// Within-state thread budgets under test: serial and fanned out.
const THREAD_BUDGETS: [usize; 2] = [1, 4];

fn assert_bits(got: f64, want: f64, what: &str) {
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
}

/// Asserts the half-plane state, mirror expanded, equals the full-plane
/// reference amplitude for amplitude — through both the indexed and the
/// iterator expansion.
fn assert_expands_to(soa: &SplitState, re: &[f64], im: &[f64], what: &str) {
    assert_eq!(soa.dim(), re.len(), "{what}: dimension mismatch");
    assert_eq!(
        soa.amplitudes().count(),
        re.len(),
        "{what}: iterator length"
    );
    for (z, a) in soa.amplitudes().enumerate() {
        assert_bits(a.re, re[z], &format!("{what}: re of amplitude {z}"));
        assert_bits(a.im, im[z], &format!("{what}: im of amplitude {z}"));
        let b = soa.amplitude(z);
        assert_eq!(
            (b.re.to_bits(), b.im.to_bits()),
            (a.re.to_bits(), a.im.to_bits()),
            "{what}: amplitude({z}) differs from the iterator"
        );
    }
}

/// Asserts bitwise amplitude equality between the SoA state and the
/// scalar reference.
fn assert_matches_scalar(soa: &SplitState, reference: &StateVector, what: &str) {
    let re: Vec<f64> = reference.amplitudes().iter().map(|a| a.re).collect();
    let im: Vec<f64> = reference.amplitudes().iter().map(|a| a.im).collect();
    assert_expands_to(soa, &re, &im, what);
}

/// The library kernels in the evaluation context's order, driven
/// directly: forward state, energy and adjoint gradient. Used where no
/// MaxCut instance exists (one qubit) and to pin the public kernels
/// themselves.
fn kernel_energy_and_grad(
    cost: &DiagonalObservable,
    gammas: &[f64],
    betas: &[f64],
    threads: usize,
) -> (SplitState, f64, Vec<f64>) {
    let p = gammas.len();
    let mut state = SplitState::plus_state(cost.n_qubits());
    for (&gamma, &beta) in gammas.iter().zip(betas) {
        let (tre, tim) = reference::phase_table(cost.levels(), -gamma);
        state.apply_phase_rx(cost.level_of(), &tre, &tim, 2.0 * beta, threads);
    }
    let forward = state.clone();
    let energy = state.expectation_diag(cost.diagonal(), threads);
    let mut adjoint = SplitState::plus_state(cost.n_qubits());
    adjoint.assign_scaled(&state, cost.diagonal(), threads);
    let mut grad = vec![0.0; 2 * p];
    for k in (0..p).rev() {
        grad[p + k] = 2.0 * soa::sum_im_cross_x(&adjoint, &state, threads);
        state.apply_rx_layer(-2.0 * betas[k], threads);
        adjoint.apply_rx_layer(-2.0 * betas[k], threads);
        grad[k] = 2.0 * soa::sum_diag_im_cross(cost.diagonal(), &adjoint, &state, threads);
        let (tre, tim) = reference::phase_table(cost.levels(), gammas[k]);
        state.apply_phase_levels(cost.level_of(), &tre, &tim, threads);
        adjoint.apply_phase_levels(cost.level_of(), &tre, &tim, threads);
    }
    (forward, energy, grad)
}

/// Checks the library kernels against the full-plane reference on one
/// flip-symmetric cost at every budget: expanded amplitudes, energy and
/// every gradient component, all to the bit. Also checks the forward
/// amplitudes against the scalar `StateVector` kernels.
fn check_kernels(cost: &DiagonalObservable, gammas: &[f64], betas: &[f64], what: &str) {
    let (want_state, want_e, want_grad) = reference::energy_and_grad(cost, gammas, betas);

    let mut scalar = StateVector::plus_state(cost.n_qubits());
    for (&gamma, &beta) in gammas.iter().zip(betas) {
        let table: Vec<Complex64> = cost
            .levels()
            .iter()
            .map(|&v| Complex64::cis(-gamma * v))
            .collect();
        scalar
            .apply_phase_levels(cost.level_of(), &table)
            .expect("matching dims");
        scalar.apply_rx_layer(2.0 * beta);
    }

    for threads in THREAD_BUDGETS {
        let what = format!("{what} threads={threads}");
        let (state, e, grad) = kernel_energy_and_grad(cost, gammas, betas, threads);
        assert_expands_to(&state, &want_state.re, &want_state.im, &what);
        assert_matches_scalar(&state, &scalar, &what);
        assert_bits(e, want_e, &format!("{what}: energy"));
        for (i, (g, w)) in grad.iter().zip(&want_grad).enumerate() {
            assert_bits(*g, *w, &format!("{what}: grad[{i}]"));
        }
    }
}

/// [`check_kernels`] on a random MaxCut instance, plus the same bits
/// through `EvalContext` (`expectation_in`, its forward state, and
/// `expectation_and_grad_in`) at every budget.
fn check_parity(n: usize, gammas: &[f64], betas: &[f64], graph_seed: u64) {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    let graph = generators::erdos_renyi_nonempty(n, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let what = format!("n={n} seed={graph_seed}");
    check_kernels(problem.cost(), gammas, betas, &what);

    let (want_state, want_e, want_grad) = reference::energy_and_grad(problem.cost(), gammas, betas);
    let ansatz = QaoaAnsatz::new(problem, gammas.len()).expect("valid depth");
    let params: Vec<f64> = gammas.iter().chain(betas).copied().collect();
    for threads in THREAD_BUDGETS {
        let what = format!("{what} EvalContext threads={threads}");
        let mut grad = vec![0.0; params.len()];
        let (e, eg) = qaoa::eval::with_within_state_threads(threads, || {
            let mut ctx = EvalContext::new(n);
            assert_eq!(ctx.threads(), threads, "{what}: budget");
            let e = ansatz
                .expectation_in(&mut ctx, &params)
                .expect("valid params");
            assert_expands_to(ctx.state(), &want_state.re, &want_state.im, &what);
            let eg = ansatz
                .expectation_and_grad_in(&mut ctx, &params, &mut grad)
                .expect("valid params");
            (e, eg)
        });
        assert_bits(e, want_e, &format!("{what}: expectation_in"));
        assert_bits(
            eg,
            want_e,
            &format!("{what}: expectation_and_grad_in energy"),
        );
        for (i, (g, w)) in grad.iter().zip(&want_grad).enumerate() {
            assert_bits(*g, *w, &format!("{what}: grad[{i}]"));
        }
    }
}

/// Runs `expectation_and_grad_in` at every budget and asserts the energy
/// and every gradient component are bitwise identical across budgets.
fn check_gradient_budget_invariance(n: usize, p: usize, params: &[f64], graph_seed: u64) {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    let graph = generators::erdos_renyi_nonempty(n, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let ansatz = QaoaAnsatz::new(problem, p).expect("valid depth");

    let mut baseline: Option<(f64, Vec<f64>)> = None;
    for threads in THREAD_BUDGETS {
        let mut grad = vec![0.0; 2 * p];
        let e = qaoa::eval::with_within_state_threads(threads, || {
            let mut ctx = EvalContext::new(n);
            assert_eq!(ctx.threads(), threads, "n={n}: budget");
            ansatz
                .expectation_and_grad_in(&mut ctx, params, &mut grad)
                .expect("valid params")
        });
        match &baseline {
            None => baseline = Some((e, grad)),
            Some((e0, grad0)) => {
                assert_eq!(
                    e.to_bits(),
                    e0.to_bits(),
                    "n={n} threads={threads}: energy differs across budgets"
                );
                for (i, (g, g0)) in grad.iter().zip(grad0).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        g0.to_bits(),
                        "n={n} threads={threads}: grad[{i}] differs across budgets"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small circuits: amplitudes, energy and gradient are
    /// bit-identical to both references at every thread budget. Widths
    /// 2..=9 cover the SIMD lane boundary (SSE2 holds 2 f64 lanes) many
    /// times over, the stride-1/2 pair loops on both halves, and every
    /// low-qubit / mirror kernel split below one tile.
    #[test]
    fn random_circuits_bit_identical(
        seed in 0u64..1000,
        n in 2usize..10,
        depth in 1usize..4,
        gamma_frac in proptest::collection::vec(-1.0f64..1.0, 3),
        beta_frac in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        let gammas: Vec<f64> = gamma_frac[..depth].iter().map(|f| f * 2.0).collect();
        let betas: Vec<f64> = beta_frac[..depth].iter().map(|f| f * 2.0).collect();
        check_parity(n, &gammas, &betas, seed);
    }

    /// Random parameters: energies and gradients through the full
    /// `EvalContext` adjoint path are bitwise invariant in the budget.
    #[test]
    fn random_gradients_budget_invariant(
        seed in 0u64..1000,
        n in 2usize..9,
        depth in 1usize..4,
        frac in proptest::collection::vec(0.05f64..0.95, 6),
    ) {
        let mut params = Vec::with_capacity(2 * depth);
        params.extend(frac.iter().take(depth).map(|f| f * qaoa::GAMMA_MAX));
        params.extend(frac[depth..2 * depth].iter().map(|f| f * qaoa::BETA_MAX));
        check_gradient_budget_invariance(n, depth, &params, seed);
    }
}

/// The smallest widths, where the mirror line cuts the state into
/// halves of one, two and four amplitudes: at n = 1 the single stored
/// amplitude is its own top-qubit partner. A one-node graph has no
/// edges, so n = 1 runs a constant (hence flip-symmetric) cost through
/// the kernels directly; n = 2, 3 also run `EvalContext`.
#[test]
fn smallest_widths_bit_identical() {
    let constant = DiagonalObservable::new(vec![0.75, 0.75]).expect("power-of-two length");
    check_kernels(&constant, &[0.9, -0.3], &[0.4, 1.1], "n=1");
    for n in [2, 3] {
        for seed in 0..4 {
            check_parity(n, &[0.7, -1.3, 0.2], &[0.35, 0.8, -0.6], seed);
        }
    }
}

/// Widths that give the paired in-tile passes every shape. The in-tile
/// qubits are `0..n − 1`, taken two per pass (the first pass fused with
/// the phase layer), so n = 4, 6, 12 leave an odd qubit to a radix-2
/// pass, n = 5, 7, 11, 13 pair them all, and n = 1 has none to pair
/// (fallback path). n = 12 is the width of the `sweep_exact_n12`
/// benchmark workload.
#[test]
fn paired_pass_widths_bit_identical() {
    let constant = DiagonalObservable::new(vec![-1.5, -1.5]).expect("power-of-two length");
    check_kernels(&constant, &[0.2, 1.7, -0.6], &[-0.9, 0.45, 1.2], "n=1");
    for n in [4, 5, 6, 7, 11, 12, 13] {
        for seed in 0..2 {
            check_parity(
                n,
                &[0.7, -1.3, 0.2],
                &[0.35, 0.8, -0.6],
                100 * n as u64 + seed,
            );
        }
    }
}

/// Widths straddling the cache tile (`TILE` amplitudes: n = TILE_BITS
/// is exactly one tile, n = TILE_BITS + 1 is the first multi-tile
/// width, where the mirror butterfly pairs whole tiles) stay bitwise
/// identical to both references.
#[test]
fn tile_boundary_widths_bit_identical() {
    for n in [soa::TILE_BITS, soa::TILE_BITS + 1] {
        check_parity(n, &[0.7, -0.4], &[0.3, 0.9], 42 + n as u64);
    }
}

/// Widths straddling the within-state parallelism threshold
/// (`PAR_MIN_DIM` amplitudes: one qubit below stays serial at any
/// budget, the threshold width actually fans out when the budget
/// allows) stay bitwise identical to both references — the serial ≡
/// parallel invariant.
#[test]
fn parallelism_threshold_widths_bit_identical() {
    let par_min_qubits = soa::PAR_MIN_DIM.trailing_zeros() as usize;
    for n in [par_min_qubits - 1, par_min_qubits] {
        check_parity(n, &[0.55], &[-0.25], 42 + n as u64);
    }
}

/// Gradient budget-invariance at a width past the parallelism threshold:
/// the adjoint backward pass fans out too, and its tiled reductions
/// combine partials in fixed index order.
#[test]
fn gradient_budget_invariant_past_threshold() {
    let par_min_qubits = soa::PAR_MIN_DIM.trailing_zeros() as usize;
    check_gradient_budget_invariance(par_min_qubits, 1, &[0.6, 0.2], 7);
}

/// The half-plane state only represents flip-symmetric states: one
/// differing bit between an amplitude and its mirror is refused, and a
/// symmetric state round-trips exactly.
#[test]
fn from_state_vector_rejects_asymmetric_states() {
    let mut amps = vec![Complex64::new(0.5, 0.0); 4];
    amps[1] = Complex64::new(0.5, -0.0);
    let asymmetric = StateVector::from_amplitudes(amps).expect("power-of-two length");
    assert_eq!(
        SplitState::from_state_vector(&asymmetric),
        Err(QsimError::NotFlipSymmetric { index: 1 })
    );
    assert_eq!(
        SplitState::from_state_vector(&StateVector::zero_state(3)),
        Err(QsimError::NotFlipSymmetric { index: 0 })
    );

    let mut symmetric = StateVector::plus_state(3);
    symmetric.apply_rx_layer(0.4);
    let split = SplitState::from_state_vector(&symmetric).expect("flip-symmetric");
    assert_eq!(split.to_state_vector(), symmetric);
}
