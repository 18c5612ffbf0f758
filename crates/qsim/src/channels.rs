//! Depolarizing gate noise.
//!
//! The paper evaluates QAOA on a noiseless simulator (QuTiP), but its
//! motivation is NISQ hardware, where every gate is followed by noise. A
//! [`NoiseModel`] puts the depolarizing channel
//! `ρ → (1−p) ρ + p/3 (XρX + YρY + ZρZ)` after every gate that the
//! [`DensityMatrix`](crate::DensityMatrix) simulator runs, so the two-level
//! flow can be studied under decoherence (see the `noisy_qaoa` benchmark
//! binary and `qaoa::noisy`). Every rate is checked once, here: it must be
//! finite and in `[0, 1]`.

use crate::QsimError;

/// Checks a depolarizing rate: finite and in `[0, 1]`.
pub(crate) fn check_probability(p: f64) -> Result<(), QsimError> {
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(QsimError::InvalidChannel {
            reason: "probability outside [0, 1]",
        });
    }
    Ok(())
}

/// Where noise is injected while running a circuit on a
/// [`DensityMatrix`](crate::DensityMatrix).
///
/// Models the standard gate-error abstraction: after every one-qubit gate
/// the depolarizing channel at rate `p1` hits the target qubit; after every
/// two-qubit gate the channel at rate `p2` hits **both** qubits (two-qubit
/// gates dominate NISQ error budgets, so the two rates are independent
/// knobs). A rate of 0 applies no channel.
///
/// # Example
///
/// ```
/// use qsim::NoiseModel;
/// # fn main() -> Result<(), qsim::QsimError> {
/// let nm = NoiseModel::uniform_depolarizing(0.001, 0.01)?;
/// assert_ne!(nm, NoiseModel::noiseless());
/// assert_eq!(NoiseModel::uniform_depolarizing(0.0, 0.0)?, NoiseModel::noiseless());
/// assert!(NoiseModel::uniform_depolarizing(f64::NAN, 0.01).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NoiseModel {
    /// Depolarizing rate on the target qubit after every one-qubit gate.
    pub(crate) p1: f64,
    /// Depolarizing rate on both qubits after every two-qubit gate.
    pub(crate) p2: f64,
}

impl NoiseModel {
    /// No noise at all (identical to `Default`).
    #[must_use]
    pub fn noiseless() -> Self {
        Self::default()
    }

    /// Depolarizing noise with independent one- and two-qubit error rates —
    /// the standard NISQ abstraction (e.g. `p1 = 0.001`, `p2 = 0.01`).
    ///
    /// # Errors
    ///
    /// [`QsimError::InvalidChannel`] unless both rates are finite and in
    /// `[0, 1]`.
    pub fn uniform_depolarizing(p1: f64, p2: f64) -> Result<Self, QsimError> {
        check_probability(p1)?;
        check_probability(p2)?;
        Ok(Self { p1, p2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gates, DensityMatrix};

    /// A mixed two-qubit state with coherences on both qubits.
    fn mixed_state() -> DensityMatrix {
        let mut rho = DensityMatrix::plus_state(2).unwrap();
        rho.apply_single(0, &gates::rx(0.7)).unwrap();
        rho.apply_depolarizing(1, 0.3).unwrap();
        rho.apply_single(1, &gates::rz(1.1)).unwrap();
        rho
    }

    #[test]
    fn all_builtin_channels_are_trace_preserving() {
        for p in [0.0, 0.1, 0.5, 1.0] {
            for q in 0..2 {
                let mut rho = mixed_state();
                rho.apply_depolarizing(q, p).unwrap();
                assert!((rho.trace() - 1.0).abs() < 1e-12, "p = {p}, q = {q}");
                assert!(rho.hermiticity_deviation() < 1e-12, "p = {p}, q = {q}");
            }
        }
    }

    #[test]
    fn identity_channel() {
        // Rate 0 is the identity channel, bit for bit, and builds no noise.
        let before = mixed_state();
        for p in [0.0, -0.0] {
            let mut rho = before.clone();
            rho.apply_depolarizing(0, p).unwrap();
            rho.apply_depolarizing(1, p).unwrap();
            assert_eq!(rho, before);
            assert_eq!(
                NoiseModel::uniform_depolarizing(p, p).unwrap(),
                NoiseModel::noiseless()
            );
        }
        let mut rho = before.clone();
        rho.apply_depolarizing(0, 0.3).unwrap();
        assert_ne!(rho, before);
    }

    #[test]
    fn invalid_probabilities_rejected() {
        for p in [-0.1, 1.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                NoiseModel::uniform_depolarizing(p, 0.0).is_err(),
                "p1 = {p}"
            );
            assert!(
                NoiseModel::uniform_depolarizing(0.0, p).is_err(),
                "p2 = {p}"
            );
        }
        for p in [0.0, -0.0, 0.5, 1.0] {
            assert!(NoiseModel::uniform_depolarizing(p, p).is_ok(), "p = {p}");
        }
    }

    #[test]
    fn noise_model_constructors() {
        let none = NoiseModel::noiseless();
        assert_eq!(none, NoiseModel::default());
        let nm = NoiseModel::uniform_depolarizing(0.0, 0.0).unwrap();
        assert_eq!(nm, none);
        let nm = NoiseModel::uniform_depolarizing(0.001, 0.01).unwrap();
        assert_eq!((nm.p1, nm.p2), (0.001, 0.01));
        assert!(NoiseModel::uniform_depolarizing(-1.0, 0.0).is_err());
        assert!(NoiseModel::uniform_depolarizing(0.0, 2.0).is_err());
    }
}
