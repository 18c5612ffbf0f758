use crate::{QsimError, StateVector};

/// An observable that is diagonal in the computational basis.
///
/// Cost Hamiltonians of combinatorial problems (MaxCut in this workspace)
/// are diagonal, so their expectation in a state `|ψ⟩` is just
/// `Σ_z |ψ_z|² · C(z)` — no matrix products needed. The diagonal is stored
/// densely (`2^n` entries), matching the state-vector representation.
///
/// # Example
///
/// ```
/// use qsim::{DiagonalObservable, StateVector};
/// # fn main() -> Result<(), qsim::QsimError> {
/// // A one-qubit "Z" observable: +1 on |0⟩, -1 on |1⟩.
/// let z = DiagonalObservable::new(vec![1.0, -1.0])?;
/// let plus = StateVector::plus_state(1);
/// assert!(z.expectation(&plus)?.abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiagonalObservable {
    diag: Vec<f64>,
    /// The distinct diagonal values, in first-appearance order.
    levels: Vec<f64>,
    /// Per-basis-index position into `levels`: `diag[i] == levels[level_of[i]]`.
    level_of: Vec<u32>,
}

impl DiagonalObservable {
    /// Wraps a dense diagonal. The length must be a power of two.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] for non-power-of-two (or
    /// empty) input.
    pub fn new(diag: Vec<f64>) -> Result<Self, QsimError> {
        if diag.is_empty() || !diag.len().is_power_of_two() {
            return Err(QsimError::DimensionMismatch {
                expected: diag.len().next_power_of_two().max(1),
                actual: diag.len(),
            });
        }
        Ok(Self::from_diag(diag))
    }

    /// Builds the diagonal by evaluating `f` on every basis index.
    #[must_use]
    pub fn from_fn<F: FnMut(usize) -> f64>(n_qubits: usize, f: F) -> Self {
        Self::from_diag((0..1usize << n_qubits).map(f).collect())
    }

    /// Computes the level decomposition (distinct values + per-index table)
    /// used by the fast phase kernels. Values are keyed by their exact bit
    /// pattern, so the decomposition is a pure function of the diagonal.
    fn from_diag(diag: Vec<f64>) -> Self {
        let mut index_of = std::collections::BTreeMap::new();
        let mut levels = Vec::new();
        let mut level_of = Vec::with_capacity(diag.len());
        for &value in &diag {
            #[expect(
                clippy::as_conversions,
                reason = "distinct levels <= diag.len() <= 2^n for a simulable register, far under u32::MAX"
            )]
            let next = levels.len() as u32;
            let l = *index_of.entry(value.to_bits()).or_insert_with(|| {
                levels.push(value);
                next
            });
            level_of.push(l);
        }
        Self {
            diag,
            levels,
            level_of,
        }
    }

    /// Borrows the diagonal entries.
    #[must_use]
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }

    /// The distinct diagonal values, in first-appearance order. A MaxCut
    /// cost diagonal has at most `|E| + 1` levels (unweighted), which is
    /// what makes per-level phase tables (`cis(−γ·level)` computed once per
    /// level instead of once per basis state) the fast path for
    /// [`StateVector::apply_phase_levels`].
    #[must_use]
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Per-basis-index position into [`DiagonalObservable::levels`]:
    /// `diagonal()[i] == levels()[level_of()[i] as usize]`.
    #[must_use]
    pub fn level_of(&self) -> &[u32] {
        &self.level_of
    }

    /// Number of qubits the observable acts on.
    #[must_use]
    #[expect(
        clippy::as_conversions,
        reason = "trailing_zeros() <= 64 always fits usize"
    )]
    pub fn n_qubits(&self) -> usize {
        self.diag.len().trailing_zeros() as usize
    }

    /// Largest diagonal entry (the exact optimum for maximization problems).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.diag.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest diagonal entry.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.diag.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Expectation `⟨ψ|D|ψ⟩ = Σ_z |ψ_z|² D_z`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::DimensionMismatch`] if the state dimension
    /// differs from the diagonal length.
    pub fn expectation(&self, state: &StateVector) -> Result<f64, QsimError> {
        if state.dim() != self.diag.len() {
            return Err(QsimError::DimensionMismatch {
                expected: self.diag.len(),
                actual: state.dim(),
            });
        }
        Ok(state
            .amplitudes()
            .iter()
            .zip(&self.diag)
            .map(|(a, d)| a.norm_sqr() * d)
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::SplitState;
    use crate::Circuit;

    const EPS: f64 = 1e-12;

    #[test]
    fn diagonal_rejects_bad_lengths() {
        assert!(DiagonalObservable::new(vec![]).is_err());
        assert!(DiagonalObservable::new(vec![1.0, 2.0, 3.0]).is_err());
        assert!(DiagonalObservable::new(vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn diagonal_expectation_on_basis_states() {
        let d = DiagonalObservable::new(vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        for z in 0..4 {
            let s = StateVector::basis_state(2, z);
            assert!((d.expectation(&s).unwrap() - z as f64).abs() < EPS);
        }
        assert_eq!(d.max(), 3.0);
        assert_eq!(d.min(), 0.0);
        assert_eq!(d.n_qubits(), 2);
    }

    #[test]
    fn diagonal_expectation_uniform_is_mean() {
        let d = DiagonalObservable::from_fn(3, |z| z as f64);
        let s = StateVector::plus_state(3);
        assert!((d.expectation(&s).unwrap() - 3.5).abs() < EPS);
        assert!(d.expectation(&StateVector::plus_state(2)).is_err());
    }

    #[test]
    fn split_expectation_matches_dense() {
        let d = DiagonalObservable::from_fn(3, |z| (z % 3) as f64 - 1.0);
        let s = StateVector::plus_state(3);
        let split = SplitState::from_state_vector(&s).unwrap();
        // Below one reduction tile the tiled sum degenerates to the dense
        // sequential sum, so the two paths agree bitwise.
        assert_eq!(
            split.expectation_diag(d.diagonal(), 1).to_bits(),
            d.expectation(&s).unwrap().to_bits()
        );
    }

    #[test]
    fn level_decomposition_roundtrips() {
        let d = DiagonalObservable::from_fn(3, |z| (z % 3) as f64);
        assert_eq!(d.levels(), &[0.0, 1.0, 2.0]);
        for (i, &l) in d.level_of().iter().enumerate() {
            assert_eq!(d.diagonal()[i], d.levels()[l as usize]);
        }
        // Signed zeros are distinct bit patterns and must not collapse.
        let signed = DiagonalObservable::new(vec![0.0, -0.0]).unwrap();
        assert_eq!(signed.levels().len(), 2);
    }

    #[test]
    fn ghz_parity() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).cnot(1, 2);
        let ghz = c.run(StateVector::zero_state(3)).unwrap();
        // All weight on |000⟩ and |111⟩, so Z_a Z_b = +1 for every pair.
        let probs = ghz.probabilities();
        for (z, &p) in probs.iter().enumerate() {
            let want = if z == 0 || z == 7 { 0.5 } else { 0.0 };
            assert!((p - want).abs() < EPS, "p({z}) = {p}");
        }
    }
}
