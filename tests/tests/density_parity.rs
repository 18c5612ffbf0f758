//! Bit-parity of the fused split-plane `DensityMatrix` passes against the
//! array-of-structs kernels they replaced, which this file keeps as the
//! reference (the library no longer carries them).
//!
//! The contract: every element of ρ equals the reference's (a zero of
//! either sign counts as equal), and `trace`, every probability and
//! `expectation_diagonal` are equal to the bit — for every `Gate`
//! variant, depolarizing rates 0, 0.02, 1 and random, and widths 1
//! through 6. Beside the reference, `run` must equal the same circuit
//! applied one operation at a time in every bit of ρ, a digest pins ρ's
//! bits for the `noisy_n6` benchmark's shape across commits, and the
//! depolarizing closed form must equal its definition
//! `(1−p) ρ + p/3 (XρX + YρY + ZρZ)`, built from explicit Pauli products.

use graphs::generators;
use proptest::prelude::*;
use proptest::TestCaseError;
use qaoa::noisy::NoisyQaoa;
use qaoa::stablehash::Fnv64;
use qaoa::MaxCutProblem;
use qsim::gates::{self, Gate2};
use qsim::{Circuit, Complex64, DensityMatrix, DiagonalObservable, Gate, NoiseModel, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The array-of-structs density-matrix kernels: one `Complex64` vector,
/// a separate full sweep per left product, right product and channel,
/// and full complex `2×2` products throughout.
#[derive(Debug, Clone)]
struct Reference {
    dim: usize,
    elems: Vec<Complex64>,
}

impl Reference {
    fn zero_state(n_qubits: usize) -> Self {
        let dim = 1usize << n_qubits;
        let mut elems = vec![Complex64::ZERO; dim * dim];
        elems[0] = Complex64::ONE;
        Self { dim, elems }
    }

    fn element(&self, r: usize, c: usize) -> Complex64 {
        self.elems[r * self.dim + c]
    }

    fn trace(&self) -> f64 {
        (0..self.dim).map(|r| self.elems[r * self.dim + r].re).sum()
    }

    fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.elems[i * self.dim + i].re.max(0.0))
            .collect()
    }

    fn expectation_diagonal(&self, obs: &DiagonalObservable) -> f64 {
        obs.diagonal()
            .iter()
            .enumerate()
            .map(|(i, &o)| o * self.elems[i * self.dim + i].re)
            .sum()
    }

    fn left_mul_single(&mut self, qubit: usize, a: &Gate2) {
        let stride = 1usize << qubit;
        let dim = self.dim;
        let mut base = 0;
        while base < dim {
            for offset in base..base + stride {
                let r0 = offset;
                let r1 = offset + stride;
                for col in 0..dim {
                    let e0 = self.elems[r0 * dim + col];
                    let e1 = self.elems[r1 * dim + col];
                    self.elems[r0 * dim + col] = a[0][0] * e0 + a[0][1] * e1;
                    self.elems[r1 * dim + col] = a[1][0] * e0 + a[1][1] * e1;
                }
            }
            base += stride << 1;
        }
    }

    fn right_mul_single_adjoint(&mut self, qubit: usize, a: &Gate2) {
        let stride = 1usize << qubit;
        let dim = self.dim;
        let mut base = 0;
        while base < dim {
            for offset in base..base + stride {
                let c0 = offset;
                let c1 = offset + stride;
                for r in 0..dim {
                    let e0 = self.elems[r * dim + c0];
                    let e1 = self.elems[r * dim + c1];
                    self.elems[r * dim + c0] = e0 * a[0][0].conj() + e1 * a[0][1].conj();
                    self.elems[r * dim + c1] = e0 * a[1][0].conj() + e1 * a[1][1].conj();
                }
            }
            base += stride << 1;
        }
    }

    fn apply_single(&mut self, qubit: usize, u: &Gate2) {
        self.left_mul_single(qubit, u);
        self.right_mul_single_adjoint(qubit, u);
    }

    fn apply_controlled(&mut self, control: usize, target: usize, u: &Gate2) {
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        let dim = self.dim;
        for r in 0..dim {
            if r & cmask != 0 && r & tmask == 0 {
                let r1 = r | tmask;
                for col in 0..dim {
                    let e0 = self.elems[r * dim + col];
                    let e1 = self.elems[r1 * dim + col];
                    self.elems[r * dim + col] = u[0][0] * e0 + u[0][1] * e1;
                    self.elems[r1 * dim + col] = u[1][0] * e0 + u[1][1] * e1;
                }
            }
        }
        for c in 0..dim {
            if c & cmask != 0 && c & tmask == 0 {
                let c1 = c | tmask;
                for r in 0..dim {
                    let e0 = self.elems[r * dim + c];
                    let e1 = self.elems[r * dim + c1];
                    self.elems[r * dim + c] = e0 * u[0][0].conj() + e1 * u[0][1].conj();
                    self.elems[r * dim + c1] = e0 * u[1][0].conj() + e1 * u[1][1].conj();
                }
            }
        }
    }

    /// The depolarizing closed form; no pass at all at `p = 0`.
    fn apply_depolarizing(&mut self, qubit: usize, p: f64) {
        if p == 0.0 {
            return;
        }
        let keep = 1.0 - 2.0 * p / 3.0;
        let swap = 2.0 * p / 3.0;
        let shrink = 1.0 - 4.0 * p / 3.0;
        let stride = 1usize << qubit;
        let dim = self.dim;
        let mut base_r = 0;
        while base_r < dim {
            for r0 in base_r..base_r + stride {
                let r1 = r0 + stride;
                let mut base_c = 0;
                while base_c < dim {
                    for c0 in base_c..base_c + stride {
                        let c1 = c0 + stride;
                        let b00 = self.elems[r0 * dim + c0];
                        let b11 = self.elems[r1 * dim + c1];
                        self.elems[r0 * dim + c0] = keep * b00 + swap * b11;
                        self.elems[r1 * dim + c1] = swap * b00 + keep * b11;
                        self.elems[r0 * dim + c1] = shrink * self.elems[r0 * dim + c1];
                        self.elems[r1 * dim + c0] = shrink * self.elems[r1 * dim + c0];
                    }
                    base_c += stride << 1;
                }
            }
            base_r += stride << 1;
        }
    }

    fn apply_gate(&mut self, gate: &Gate) {
        match *gate {
            Gate::H(q) => self.apply_single(q, &gates::h()),
            Gate::Rx { qubit, theta } => self.apply_single(qubit, &gates::rx(theta)),
            Gate::Rz { qubit, theta } => self.apply_single(qubit, &gates::rz(theta)),
            Gate::Cnot { control, target } => self.apply_controlled(control, target, &gates::x()),
            ref other => panic!("reference has no kernel for {other:?}"),
        }
    }

    /// `circuit` with depolarizing noise at rate `p1` after every one-qubit
    /// gate and `p2` on both qubits after every two-qubit gate.
    fn run(&mut self, circuit: &Circuit, p1: f64, p2: f64) {
        for gate in circuit.ops() {
            self.apply_gate(gate);
            let p = if gate.is_two_qubit() { p2 } else { p1 };
            for q in gate.qubits() {
                self.apply_depolarizing(q, p);
            }
        }
    }
}

/// Asserts the bit contract between the fused state and the reference.
fn assert_parity(
    rho: &DensityMatrix,
    reference: &Reference,
    obs: &DiagonalObservable,
    what: &str,
) -> Result<(), TestCaseError> {
    for r in 0..reference.dim {
        for c in 0..reference.dim {
            let (got, want) = (rho.element(r, c), reference.element(r, c));
            prop_assert!(
                got.re == want.re && got.im == want.im,
                "{what}: ρ[{r}, {c}] = {got:?}, reference {want:?}"
            );
        }
    }
    let (got, want) = (rho.trace(), reference.trace());
    prop_assert!(
        got.to_bits() == want.to_bits(),
        "{what}: trace {got:e}, reference {want:e}"
    );
    // The reference clamps with `f64::max`, which may return either zero
    // for `(-0.0).max(0.0)` (debug builds keep -0.0); the library returns
    // +0.0 for a zero of either sign.
    let (got, want) = (rho.probabilities(), reference.probabilities());
    for (i, (p, q)) in got.iter().zip(&want).enumerate() {
        prop_assert!(
            p.to_bits() == q.to_bits() || (*q == 0.0 && p.to_bits() == 0),
            "{what}: probability {i} = {p:e}, reference {q:e}"
        );
    }
    let got = rho.expectation_diagonal(obs).expect("matching dims");
    let want = reference.expectation_diagonal(obs);
    prop_assert!(
        got.to_bits() == want.to_bits(),
        "{what}: expectation {got:e}, reference {want:e}"
    );
    Ok(())
}

/// Every `Gate` variant, two-qubit ones only when the register has two
/// qubits.
fn random_gate(rng: &mut StdRng, n_qubits: usize) -> Gate {
    let q = rng.gen_range(0..n_qubits);
    let other = |rng: &mut StdRng| (q + 1 + rng.gen_range(0..n_qubits - 1)) % n_qubits;
    let theta = rng.gen_range(-6.3..6.3);
    match rng.gen_range(0..if n_qubits > 1 { 4 } else { 3 }) {
        0 => Gate::H(q),
        1 => Gate::Rx { qubit: q, theta },
        2 => Gate::Rz { qubit: q, theta },
        _ => Gate::Cnot {
            control: q,
            target: other(rng),
        },
    }
}

fn random_circuit(rng: &mut StdRng, n_qubits: usize, n_gates: usize) -> Circuit {
    let mut circuit = Circuit::new(n_qubits);
    for _ in 0..n_gates {
        circuit.push(random_gate(rng, n_qubits));
    }
    circuit
}

/// Number of depolarizing rates [`rate`] draws from.
const RATE_KINDS: usize = 4;

/// A depolarizing rate: 0 (no noise), 0.02, 1 or a random rate.
fn rate(kind: usize, rng: &mut StdRng) -> f64 {
    match kind {
        0 => 0.0,
        1 => 0.02,
        2 => 1.0,
        _ => rng.gen_range(0.0..1.0),
    }
}

/// A diagonal observable with no zero entries, so an expectation is never
/// a sum of zeros alone.
fn random_observable(rng: &mut StdRng, n_qubits: usize) -> DiagonalObservable {
    let values: Vec<f64> = (0..1usize << n_qubits)
        .map(|_| rng.gen_range(0.5..2.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    DiagonalObservable::from_fn(n_qubits, |i| values[i])
}

/// A random 2×2 matrix with no exact zeros (the general block path).
fn random_matrix(rng: &mut StdRng) -> Gate2 {
    let mut z = || Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
    [[z(), z()], [z(), z()]]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// A noisy `run` of a random circuit matches the reference for any
    /// pair of rate kinds after one- and two-qubit gates.
    #[test]
    fn run_matches_reference(
        seed in 0u64..1 << 40,
        n_qubits in 1usize..7,
        n_gates in 1usize..40,
        kind_1q in 0usize..RATE_KINDS,
        kind_2q in 0usize..RATE_KINDS,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_circuit(&mut rng, n_qubits, n_gates);
        let (p1, p2) = (rate(kind_1q, &mut rng), rate(kind_2q, &mut rng));
        let noise = NoiseModel::uniform_depolarizing(p1, p2).expect("valid rates");
        let obs = random_observable(&mut rng, n_qubits);
        let mut rho = DensityMatrix::zero_state(n_qubits).expect("small register");
        rho.run(&circuit, &noise).expect("valid circuit");
        let mut reference = Reference::zero_state(n_qubits);
        reference.run(&circuit, p1, p2);
        assert_parity(&rho, &reference, &obs, "run")?;
    }

    /// The public one-operation entry points match the reference step by
    /// step, including general (zero-free) matrices and the channel on its
    /// own.
    #[test]
    fn public_operations_match_reference(
        seed in 0u64..1 << 40,
        n_qubits in 1usize..7,
        n_ops in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let obs = random_observable(&mut rng, n_qubits);
        let mut rho = DensityMatrix::zero_state(n_qubits).expect("small register");
        let mut reference = Reference::zero_state(n_qubits);
        for step in 0..n_ops {
            let q = rng.gen_range(0..n_qubits);
            match rng.gen_range(0..3) {
                0 => {
                    let u = if rng.gen_bool(0.5) {
                        random_matrix(&mut rng)
                    } else {
                        gates::u3(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0), 0.0)
                    };
                    rho.apply_single(q, &u).expect("valid qubit");
                    reference.apply_single(q, &u);
                }
                1 => {
                    let p = rate(rng.gen_range(0..RATE_KINDS), &mut rng);
                    rho.apply_depolarizing(q, p).expect("valid qubit and rate");
                    reference.apply_depolarizing(q, p);
                }
                _ => {
                    let gate = random_gate(&mut rng, n_qubits);
                    rho.apply_gate(&gate).expect("valid gate");
                    reference.apply_gate(&gate);
                }
            }
            assert_parity(&rho, &reference, &obs, &format!("step {step}"))?;
        }
    }

    /// The noisy QAOA objective at the benchmarked width and rates equals
    /// the reference evaluation of the same circuit, to the bit.
    #[test]
    fn noisy_qaoa_expectation_matches_reference(
        seed in 0u64..1 << 40,
        depth in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::erdos_renyi_nonempty(6, 0.5, &mut rng);
        let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
        let noise = NoiseModel::uniform_depolarizing(0.002, 0.02).expect("valid rates");
        let noisy = NoisyQaoa::new(problem, depth, noise.clone()).expect("small register");
        let params: Vec<f64> = (0..2 * depth).map(|_| rng.gen_range(0.0..3.0)).collect();
        let circuit = noisy.ansatz().build_circuit(&params).expect("valid params");
        let mut reference = Reference::zero_state(6);
        reference.run(&circuit, 0.002, 0.02);
        let cost = noisy.ansatz().problem().cost();
        prop_assert_eq!(
            noisy.expectation(&params).expect("valid params").to_bits(),
            reference.expectation_diagonal(cost).to_bits()
        );
    }
}

/// The bits of every element of ρ, zero signs included.
fn state_bits(rho: &DensityMatrix) -> Vec<u64> {
    let dim = rho.dim();
    (0..dim * dim)
        .flat_map(|i| {
            let z = rho.element(i / dim, i % dim);
            [z.re.to_bits(), z.im.to_bits()]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A fused `run` equals the same circuit one operation at a time:
    /// `apply_gate`, then `apply_depolarizing` on the gate's first qubit
    /// and then its second, for every element of ρ to the bit. Each
    /// circuit starts on qubit 0 and the top qubit, with a CNOT whose
    /// control is the higher qubit and one whose control is the lower.
    #[test]
    fn run_equals_gate_by_gate_passes(
        seed in 0u64..1 << 40,
        n_qubits in 1usize..8,
        n_gates in 1usize..32,
        kind_1q in 0usize..RATE_KINDS,
        kind_2q in 0usize..RATE_KINDS,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let top = n_qubits - 1;
        let mut circuit = Circuit::new(n_qubits);
        circuit.h(0).rx(top, rng.gen_range(-6.3..6.3)).rz(0, rng.gen_range(-6.3..6.3));
        if n_qubits > 1 {
            circuit.cnot(top, 0).rx(0, rng.gen_range(-6.3..6.3)).cnot(0, top);
        }
        for gate in random_circuit(&mut rng, n_qubits, n_gates).ops() {
            circuit.push(gate.clone());
        }
        let (p1, p2) = (rate(kind_1q, &mut rng), rate(kind_2q, &mut rng));
        let noise = NoiseModel::uniform_depolarizing(p1, p2).expect("valid rates");
        let mut fused = DensityMatrix::plus_state(n_qubits).expect("small register");
        let mut stepped = fused.clone();
        fused.run(&circuit, &noise).expect("valid circuit");
        for gate in circuit.ops() {
            stepped.apply_gate(gate).expect("valid gate");
            let p = if gate.is_two_qubit() { p2 } else { p1 };
            for q in gate.qubits() {
                stepped.apply_depolarizing(q, p).expect("valid qubit and rate");
            }
        }
        prop_assert!(state_bits(&fused) == state_bits(&stepped), "{:?}", circuit);
    }
}

/// The digest of ρ's bits after three noisy calls of the `noisy_n6`
/// benchmark's shape (n = 6, `gnm(6, 8)`, p = 2, depolarizing
/// p1 = 0.002, p2 = 0.02), as the fused passes computed them when this
/// pin was recorded. A kernel change that moves any bit of ρ, a zero sign
/// included, fails here.
#[test]
fn noisy_n6_states_are_pinned() {
    let noise = NoiseModel::uniform_depolarizing(0.002, 0.02).expect("valid rates");
    let mut rng = StdRng::seed_from_u64(2026);
    let mut digest = Fnv64::new();
    for params in [
        [0.8, 0.5, 0.4, 0.2],
        [2.1, 0.3, 1.7, 2.9],
        [0.05, 1.4, 3.0, 0.6],
    ] {
        let graph = generators::gnm(6, 8, &mut rng);
        let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
        let noisy = NoisyQaoa::new(problem, 2, noise.clone()).expect("small register");
        let rho = noisy.state(&params).expect("valid params");
        for word in state_bits(&rho) {
            digest.write_u64(word);
        }
    }
    assert_eq!(digest.finish(), 0x3f17_383f_f660_6e05);
}

/// The Pauli matrices X, Y and Z.
fn paulis() -> [Gate2; 3] {
    let (o, l, i) = (Complex64::ZERO, Complex64::ONE, Complex64::I);
    [[[o, l], [l, o]], [[o, -i], [i, o]], [[l, o], [o, -l]]]
}

/// `σ` on `qubit` and the identity on every other qubit, as a dense
/// `dim × dim` matrix: the Kronecker product `I ⊗ … ⊗ σ ⊗ … ⊗ I`.
fn embed(sigma: &Gate2, qubit: usize, dim: usize) -> Vec<Complex64> {
    let bit = 1usize << qubit;
    (0..dim * dim)
        .map(|k| {
            let (r, c) = (k / dim, k % dim);
            if r & !bit == c & !bit {
                sigma[usize::from(r & bit != 0)][usize::from(c & bit != 0)]
            } else {
                Complex64::ZERO
            }
        })
        .collect()
}

/// The dense product `a · b` of two `dim × dim` matrices.
fn matmul(a: &[Complex64], b: &[Complex64], dim: usize) -> Vec<Complex64> {
    (0..dim * dim)
        .map(|k| {
            let (r, c) = (k / dim, k % dim);
            (0..dim).fold(Complex64::ZERO, |acc, j| {
                acc + a[r * dim + j] * b[j * dim + c]
            })
        })
        .collect()
}

/// A random Hermitian, unit-trace, generally mixed ρ: a random pure
/// state, depolarized at random rates and conjugated by random zero-free
/// matrices on random qubits, then rescaled to unit trace.
fn random_mixed_state(rng: &mut StdRng, n_qubits: usize) -> DensityMatrix {
    let amps = (0..1usize << n_qubits)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let psi = StateVector::from_amplitudes(amps).expect("power-of-two length");
    let mut rho = DensityMatrix::from_state_vector(&psi).expect("small register");
    for _ in 0..2 * n_qubits {
        let q = rng.gen_range(0..n_qubits);
        rho.apply_depolarizing(q, rng.gen_range(0.0..1.0))
            .expect("valid qubit and rate");
        let q = rng.gen_range(0..n_qubits);
        rho.apply_single(q, &random_matrix(rng))
            .expect("valid qubit");
    }
    let s = Complex64::new(rho.trace().sqrt().recip(), 0.0);
    rho.apply_single(0, &[[s, Complex64::ZERO], [Complex64::ZERO, s]])
        .expect("valid qubit");
    rho
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `apply_depolarizing`'s closed form equals the channel's definition,
    /// `(1−p) ρ + p/3 (XρX + YρY + ZρZ)` with each Pauli embedded as a
    /// dense Kronecker product, within 1e-12, on every qubit of a random
    /// mixed ρ, at p = 0, p = 1 and a random p.
    #[test]
    fn depolarizing_closed_form_matches_pauli_definition(
        seed in 0u64..1 << 40,
        n_qubits in 1usize..5,
        p_random in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rho = random_mixed_state(&mut rng, n_qubits);
        let dim = rho.dim();
        let before: Vec<Complex64> = (0..dim * dim).map(|k| rho.element(k / dim, k % dim)).collect();
        prop_assert!((rho.trace() - 1.0).abs() < 1e-12);
        prop_assert!(rho.hermiticity_deviation() < 1e-12);
        for p in [0.0, 1.0, p_random] {
            for qubit in 0..n_qubits {
                let mut want: Vec<Complex64> = before.iter().map(|z| z.scale(1.0 - p)).collect();
                for sigma in &paulis() {
                    let e = embed(sigma, qubit, dim);
                    let conjugated = matmul(&matmul(&e, &before, dim), &e, dim);
                    for (w, z) in want.iter_mut().zip(&conjugated) {
                        *w += z.scale(p / 3.0);
                    }
                }
                let mut got = rho.clone();
                got.apply_depolarizing(qubit, p).expect("valid qubit and rate");
                for (k, w) in want.iter().enumerate() {
                    let z = got.element(k / dim, k % dim);
                    prop_assert!(
                        (z - *w).abs() < 1e-12,
                        "p = {p}, qubit {qubit}: ρ'[{}, {}] = {z:?}, definition {w:?}",
                        k / dim,
                        k % dim
                    );
                }
            }
        }
    }
}
