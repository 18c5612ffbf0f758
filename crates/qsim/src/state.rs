use crate::{Complex64, QsimError};

/// Maximum register width this simulator will allocate (`2^28` amplitudes,
/// 4 GiB of `Complex64`). The paper's instances are 8-qubit, but the
/// committed bench sweep and corpus/scaling runs operate up to n = 20
/// (16 MiB of amplitudes); the cap just bounds accidental allocation blowups
/// well above the real operating range.
pub const MAX_QUBITS: usize = 28;

/// A pure quantum state of `n` qubits stored as `2^n` complex amplitudes.
///
/// Qubit `k` owns bit `k` of the basis index (little-endian). All gate
/// kernels are in-place and `O(2^n)`.
///
/// # Example
///
/// ```
/// use qsim::{gates, StateVector};
/// # fn main() -> Result<(), qsim::QsimError> {
/// let mut psi = StateVector::zero_state(1);
/// psi.apply_single(0, &gates::h())?;
/// assert!((psi.probability(0) - 0.5).abs() < 1e-12);
/// assert!((psi.norm() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// Creates the all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > MAX_QUBITS`; use [`StateVector::try_zero_state`]
    /// for a fallible constructor.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic on a convenience constructor; try_zero_state is the fallible route"
    )]
    pub fn zero_state(n_qubits: usize) -> Self {
        Self::try_zero_state(n_qubits).expect("register too wide")
    }

    /// Fallible version of [`StateVector::zero_state`].
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::TooManyQubits`] if the register would exceed
    /// [`MAX_QUBITS`].
    pub fn try_zero_state(n_qubits: usize) -> Result<Self, QsimError> {
        if n_qubits > MAX_QUBITS {
            return Err(QsimError::TooManyQubits { n_qubits });
        }
        let mut amps = vec![Complex64::ZERO; 1 << n_qubits];
        amps[0] = Complex64::ONE;
        Ok(Self { n_qubits, amps })
    }

    /// Creates the uniform superposition `H^{⊗n}|0…0⟩` — the QAOA input
    /// state — directly, without applying `n` Hadamard gates.
    #[must_use]
    pub fn plus_state(n_qubits: usize) -> Self {
        let dim = 1usize << n_qubits;
        #[expect(
            clippy::as_conversions,
            reason = "dim <= 2^MAX_QUBITS < 2^53 is exactly representable in f64"
        )]
        let amp = Complex64::new(1.0 / (dim as f64).sqrt(), 0.0);
        Self {
            n_qubits,
            amps: vec![amp; dim],
        }
    }

    /// Creates a basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n_qubits` or the register is too wide; use
    /// [`StateVector::try_basis_state`] for a fallible constructor.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic on a convenience constructor; try_basis_state is the fallible route"
    )]
    pub fn basis_state(n_qubits: usize, index: usize) -> Self {
        Self::try_basis_state(n_qubits, index).expect("basis index out of range")
    }

    /// Fallible version of [`StateVector::basis_state`].
    ///
    /// # Errors
    ///
    /// * [`QsimError::TooManyQubits`] if the register would exceed
    ///   [`MAX_QUBITS`].
    /// * [`QsimError::BasisIndexOutOfRange`] if `index >= 2^n_qubits`.
    pub fn try_basis_state(n_qubits: usize, index: usize) -> Result<Self, QsimError> {
        let mut s = Self::try_zero_state(n_qubits)?;
        if index >= s.dim() {
            return Err(QsimError::BasisIndexOutOfRange {
                index,
                dim: s.dim(),
            });
        }
        s.amps[0] = Complex64::ZERO;
        s.amps[index] = Complex64::ONE;
        Ok(s)
    }

    /// Builds a state from raw amplitudes (length must be a power of two).
    ///
    /// The caller is responsible for normalization.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if the length is not a power
    /// of two (or zero).
    #[expect(
        clippy::as_conversions,
        reason = "trailing_zeros of a usize is at most 64, always in range"
    )]
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Result<Self, QsimError> {
        let dim = amps.len();
        if dim == 0 || !dim.is_power_of_two() {
            return Err(QsimError::DimensionMismatch {
                expected: dim.next_power_of_two().max(1),
                actual: dim,
            });
        }
        Ok(Self {
            n_qubits: dim.trailing_zeros() as usize,
            amps,
        })
    }

    /// Number of qubits.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Dimension `2^n` of the Hilbert space.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Borrows the amplitudes.
    #[must_use]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim()`.
    #[must_use]
    pub fn amplitude(&self, index: usize) -> Complex64 {
        self.amps[index]
    }

    /// `|⟨index|ψ⟩|²`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim()`.
    #[must_use]
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// The full probability distribution over basis states.
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// The 2-norm of the state (1 for a physical state).
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Fidelity `|⟨self|other⟩|²`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if widths differ.
    pub fn fidelity(&self, other: &StateVector) -> Result<f64, QsimError> {
        if self.dim() != other.dim() {
            return Err(QsimError::DimensionMismatch {
                expected: self.dim(),
                actual: other.dim(),
            });
        }
        let inner: Complex64 = self
            .amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum();
        Ok(inner.norm_sqr())
    }

    fn check_qubit(&self, qubit: usize) -> Result<(), QsimError> {
        if qubit >= self.n_qubits {
            Err(QsimError::QubitOutOfRange {
                qubit,
                n_qubits: self.n_qubits,
            })
        } else {
            Ok(())
        }
    }

    /// Applies a single-qubit unitary `u` (row-major `[[u00,u01],[u10,u11]]`)
    /// to `qubit`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::QubitOutOfRange`] for a bad qubit index.
    pub fn apply_single(&mut self, qubit: usize, u: &[[Complex64; 2]; 2]) -> Result<(), QsimError> {
        self.check_qubit(qubit)?;
        let stride = 1usize << qubit;
        let dim = self.dim();
        let mut base = 0;
        while base < dim {
            for offset in base..base + stride {
                let i0 = offset;
                let i1 = offset + stride;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = u[0][0] * a0 + u[0][1] * a1;
                self.amps[i1] = u[1][0] * a0 + u[1][1] * a1;
            }
            base += stride << 1;
        }
        Ok(())
    }

    /// Applies a unitary to `target`, controlled on `control` being `|1⟩`.
    ///
    /// # Errors
    ///
    /// * [`QsimError::QubitOutOfRange`] for a bad index.
    /// * [`QsimError::DuplicateQubit`] if `control == target`.
    pub fn apply_controlled(
        &mut self,
        control: usize,
        target: usize,
        u: &[[Complex64; 2]; 2],
    ) -> Result<(), QsimError> {
        self.check_qubit(control)?;
        self.check_qubit(target)?;
        if control == target {
            return Err(QsimError::DuplicateQubit { qubit: control });
        }
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        for i in 0..self.dim() {
            // Visit each target pair once, only when the control bit is set.
            if i & cmask != 0 && i & tmask == 0 {
                let j = i | tmask;
                let a0 = self.amps[i];
                let a1 = self.amps[j];
                self.amps[i] = u[0][0] * a0 + u[0][1] * a1;
                self.amps[j] = u[1][0] * a0 + u[1][1] * a1;
            }
        }
        Ok(())
    }

    /// Multiplies amplitude `i` by `phases[i]` — the fast path for diagonal
    /// unitaries such as the QAOA phase-separation layer `e^{-iγ H_C}`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if `phases.len() != dim()`.
    pub fn apply_diagonal(&mut self, phases: &[Complex64]) -> Result<(), QsimError> {
        if phases.len() != self.dim() {
            return Err(QsimError::DimensionMismatch {
                expected: self.dim(),
                actual: phases.len(),
            });
        }
        for (a, p) in self.amps.iter_mut().zip(phases) {
            *a *= *p;
        }
        Ok(())
    }

    /// Applies a diagonal unitary given as a small table of **distinct**
    /// phases plus a per-amplitude index into it: amplitude `i` is
    /// multiplied by `table[level_of[i]]`.
    ///
    /// Diagonal cost Hamiltonians take few distinct values (a MaxCut
    /// diagonal has at most `|E| + 1` levels on an unweighted graph), so
    /// precomputing `table[l] = cis(−γ · level_l)` turns `2^n`
    /// trigonometric evaluations into `O(levels)` — the dominant saving of
    /// the evaluation hot path.
    /// See [`DiagonalObservable::levels`](crate::DiagonalObservable::levels).
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if `level_of.len() != dim()`.
    ///
    /// # Panics
    ///
    /// Panics if an index in `level_of` is out of `table`'s range.
    #[expect(
        clippy::as_conversions,
        reason = "u32 -> usize is value-preserving on every supported target"
    )]
    pub fn apply_phase_levels(
        &mut self,
        level_of: &[u32],
        table: &[Complex64],
    ) -> Result<(), QsimError> {
        if level_of.len() != self.dim() {
            return Err(QsimError::DimensionMismatch {
                expected: self.dim(),
                actual: level_of.len(),
            });
        }
        for (a, &l) in self.amps.iter_mut().zip(level_of) {
            *a *= table[l as usize];
        }
        Ok(())
    }

    /// Applies `RX(θ)` to **every** qubit — the QAOA mixing layer — with a
    /// kernel specialized to the RX structure
    /// `[[cos, −i·sin], [−i·sin, cos]]` (half the multiplies of the generic
    /// [`StateVector::apply_single`] path, no gate-matrix indirection).
    pub fn apply_rx_layer(&mut self, theta: f64) {
        let (s, co) = (theta / 2.0).sin_cos();
        let dim = self.dim();
        for qubit in 0..self.n_qubits {
            let stride = 1usize << qubit;
            let mut base = 0;
            while base < dim {
                for offset in base..base + stride {
                    let i0 = offset;
                    let i1 = offset + stride;
                    let a0 = self.amps[i0];
                    let a1 = self.amps[i1];
                    // c·a0 − i·s·a1 and c·a1 − i·s·a0, expanded.
                    self.amps[i0] = Complex64::new(co * a0.re + s * a1.im, co * a0.im - s * a1.re);
                    self.amps[i1] = Complex64::new(co * a1.re + s * a0.im, co * a1.im - s * a0.re);
                }
                base += stride << 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    const EPS: f64 = 1e-12;

    #[test]
    fn zero_state_shape() {
        let s = StateVector::zero_state(3);
        assert_eq!(s.n_qubits(), 3);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.amplitude(0), Complex64::ONE);
        assert!((s.norm() - 1.0).abs() < EPS);
        assert!(StateVector::try_zero_state(64).is_err());
    }

    #[test]
    fn plus_state_is_uniform() {
        let s = StateVector::plus_state(4);
        for i in 0..16 {
            assert!((s.probability(i) - 1.0 / 16.0).abs() < EPS);
        }
        // Agreement with explicit Hadamards.
        let mut h = StateVector::zero_state(4);
        for q in 0..4 {
            h.apply_single(q, &gates::h()).unwrap();
        }
        assert!((s.fidelity(&h).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn basis_state_and_from_amplitudes() {
        let s = StateVector::basis_state(2, 3);
        assert_eq!(s.probability(3), 1.0);
        assert!(matches!(
            StateVector::try_basis_state(2, 4),
            Err(QsimError::BasisIndexOutOfRange { index: 4, dim: 4 })
        ));
        assert!(StateVector::try_basis_state(64, 0).is_err());
        assert!(StateVector::from_amplitudes(vec![Complex64::ONE; 3]).is_err());
        assert!(StateVector::from_amplitudes(vec![]).is_err());
        let ok = StateVector::from_amplitudes(vec![Complex64::ONE, Complex64::ZERO]).unwrap();
        assert_eq!(ok.n_qubits(), 1);
    }

    #[test]
    fn x_flips_correct_bit() {
        let mut s = StateVector::zero_state(3);
        s.apply_single(1, &gates::x()).unwrap();
        assert!((s.probability(0b010) - 1.0).abs() < EPS);
    }

    #[test]
    fn gate_out_of_range() {
        let mut s = StateVector::zero_state(2);
        assert!(matches!(
            s.apply_single(2, &gates::x()),
            Err(QsimError::QubitOutOfRange { qubit: 2, .. })
        ));
        assert!(matches!(
            s.apply_controlled(0, 0, &gates::x()),
            Err(QsimError::DuplicateQubit { qubit: 0 })
        ));
    }

    #[test]
    fn cnot_entangles() {
        let mut s = StateVector::zero_state(2);
        s.apply_single(0, &gates::h()).unwrap();
        s.apply_controlled(0, 1, &gates::x()).unwrap();
        assert!((s.probability(0b00) - 0.5).abs() < EPS);
        assert!((s.probability(0b11) - 0.5).abs() < EPS);
        assert!(s.probability(0b01) < EPS);
        assert!(s.probability(0b10) < EPS);
    }

    #[test]
    fn controlled_gate_ignores_control_zero() {
        let mut s = StateVector::zero_state(2);
        s.apply_controlled(0, 1, &gates::x()).unwrap();
        assert!((s.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn diagonal_phase_preserves_probabilities() {
        let mut s = StateVector::plus_state(2);
        let phases: Vec<Complex64> = (0..4).map(|i| Complex64::cis(0.3 * i as f64)).collect();
        let before = s.probabilities();
        s.apply_diagonal(&phases).unwrap();
        let after = s.probabilities();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < EPS);
        }
        assert!(s.apply_diagonal(&phases[..2]).is_err());
    }

    /// `|+…+⟩` after the diagonal phase `e^{−iγ·z}` (one level per basis
    /// state), so every amplitude differs from its neighbours.
    fn phased_plus(n: usize, gamma: f64) -> StateVector {
        let dim = 1u32 << n;
        let level_of: Vec<u32> = (0..dim).collect();
        let table: Vec<Complex64> = (0..dim)
            .map(|z| Complex64::cis(-gamma * f64::from(z)))
            .collect();
        let mut s = StateVector::plus_state(n);
        s.apply_phase_levels(&level_of, &table).unwrap();
        s
    }

    #[test]
    fn leveled_phase_matches_fused_phase() {
        // diag takes 3 distinct values; the leveled path must agree exactly
        // with the per-amplitude phase cis(−γ·diag[z]).
        let diag: Vec<f64> = (0..8).map(|z| (z % 3) as f64 * 1.5).collect();
        let gamma = 1.1;
        let level_of: Vec<u32> = (0..8).map(|z| (z % 3) as u32).collect();
        let table: Vec<Complex64> = (0..3)
            .map(|l| Complex64::cis(-gamma * l as f64 * 1.5))
            .collect();
        let mut leveled = StateVector::plus_state(3);
        leveled.apply_phase_levels(&level_of, &table).unwrap();
        let phases: Vec<Complex64> = diag.iter().map(|&c| Complex64::cis(-gamma * c)).collect();
        let mut fused = StateVector::plus_state(3);
        fused.apply_diagonal(&phases).unwrap();
        assert_eq!(leveled, fused);
        assert!(leveled.apply_phase_levels(&level_of[..4], &table).is_err());
    }

    #[test]
    fn rx_layer_matches_per_qubit_gates() {
        let theta = 0.83;
        let rx = gates::rx(theta);
        // Start from a non-trivial state so every matrix entry matters.
        let mut reference = phased_plus(4, 0.3);
        let mut layered = reference.clone();
        for q in 0..4 {
            reference.apply_single(q, &rx).unwrap();
        }
        layered.apply_rx_layer(theta);
        for (a, b) in reference.amplitudes().iter().zip(layered.amplitudes()) {
            assert!((a.re - b.re).abs() < 1e-15 && (a.im - b.im).abs() < 1e-15);
        }
        assert!((layered.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn rx_layer_is_exactly_invertible() {
        // The adjoint gradient's backward pass relies on RX(−θ) undoing
        // RX(θ) to machine precision.
        let mut s = phased_plus(3, 0.9);
        let before = s.clone();
        s.apply_rx_layer(0.37);
        s.apply_rx_layer(-0.37);
        for (a, b) in s.amplitudes().iter().zip(before.amplitudes()) {
            assert!((a.re - b.re).abs() < 1e-15 && (a.im - b.im).abs() < 1e-15);
        }
    }

    #[test]
    fn inner_product_orthogonality() {
        let a = StateVector::basis_state(2, 0);
        let b = StateVector::basis_state(2, 1);
        assert_eq!(a.fidelity(&b).unwrap(), 0.0);
        assert_eq!(a.fidelity(&a).unwrap(), 1.0);
        assert!(a.fidelity(&StateVector::zero_state(3)).is_err());
        // |⟨ψ|φ⟩|² is insensitive to a global phase on either side.
        let psi = phased_plus(2, 0.4);
        let mut rotated = psi.clone();
        rotated.apply_diagonal(&[Complex64::cis(1.3); 4]).unwrap();
        assert!((psi.fidelity(&rotated).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn rz_adds_relative_phase_only() {
        let mut s = StateVector::plus_state(1);
        s.apply_single(0, &gates::rz(1.0)).unwrap();
        // Probabilities unchanged; relative phase is e^{i}.
        assert!((s.probability(0) - 0.5).abs() < EPS);
        let rel = s.amplitude(1) / s.amplitude(0);
        assert!((rel.arg() - 1.0).abs() < EPS);
    }
}
