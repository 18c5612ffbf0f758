//! Single-qubit noise channels in Kraus form.
//!
//! The paper evaluates QAOA on a noiseless simulator (QuTiP), but its
//! motivation is NISQ hardware, where every gate is followed by noise. These
//! channels feed the [`DensityMatrix`](crate::DensityMatrix) simulator so
//! the two-level flow can be studied under realistic decoherence (see the
//! `noisy_qaoa` benchmark binary and `qaoa::noisy`).
//!
//! A channel is a set of Kraus operators `{K_i}` with `Σ K_i† K_i = I`,
//! acting as `ρ → Σ K_i ρ K_i†`. All constructors validate their
//! probability argument and the completeness relation.

use crate::gates::Gate2;
use crate::{Complex64, QsimError};

fn c(re: f64) -> Complex64 {
    Complex64::new(re, 0.0)
}

/// A single-qubit quantum channel in Kraus form.
///
/// # Example
///
/// ```
/// use qsim::KrausChannel;
/// # fn main() -> Result<(), qsim::QsimError> {
/// let ch = KrausChannel::depolarizing(0.1)?;
/// assert_eq!(ch.ops().len(), 4);
/// assert!(ch.completeness_deviation() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KrausChannel {
    name: &'static str,
    ops: Vec<Gate2>,
    /// Set by [`KrausChannel::depolarizing`]: the channel's probability,
    /// enabling the density-matrix simulator's closed-form fast path.
    depolarizing_p: Option<f64>,
}

impl KrausChannel {
    /// Builds a channel from explicit Kraus operators.
    ///
    /// # Errors
    ///
    /// * [`QsimError::InvalidChannel`] if `ops` is empty or the completeness
    ///   relation `Σ K†K = I` is violated by more than `1e-9`.
    pub fn new(name: &'static str, ops: Vec<Gate2>) -> Result<Self, QsimError> {
        if ops.is_empty() {
            return Err(QsimError::InvalidChannel {
                reason: "empty Kraus operator list",
            });
        }
        let ch = Self {
            name,
            ops,
            depolarizing_p: None,
        };
        if ch.completeness_deviation() > 1e-9 {
            return Err(QsimError::InvalidChannel {
                reason: "Kraus operators are not trace-preserving",
            });
        }
        Ok(ch)
    }

    /// The identity (no-noise) channel.
    #[must_use]
    pub fn identity() -> Self {
        Self {
            name: "identity",
            ops: vec![crate::gates::identity()],
            depolarizing_p: None,
        }
    }

    /// Depolarizing channel: with probability `p` the qubit is replaced by
    /// the maximally mixed state — `ρ → (1−p) ρ + p/3 (XρX + YρY + ZρZ)`.
    ///
    /// # Errors
    ///
    /// [`QsimError::InvalidChannel`] unless `p ∈ [0, 1]`.
    pub fn depolarizing(p: f64) -> Result<Self, QsimError> {
        check_probability(p)?;
        let scale = |g: Gate2, s: f64| scale_gate(&g, s);
        Ok(Self {
            name: "depolarizing",
            ops: vec![
                scale(crate::gates::identity(), (1.0 - p).sqrt()),
                scale(crate::gates::x(), (p / 3.0).sqrt()),
                scale(crate::gates::y(), (p / 3.0).sqrt()),
                scale(crate::gates::z(), (p / 3.0).sqrt()),
            ],
            depolarizing_p: Some(p),
        })
    }

    /// Amplitude damping (T1 relaxation): `|1⟩` decays to `|0⟩` with
    /// probability `gamma`.
    ///
    /// # Errors
    ///
    /// [`QsimError::InvalidChannel`] unless `gamma ∈ [0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Result<Self, QsimError> {
        check_probability(gamma)?;
        let k0 = [[c(1.0), c(0.0)], [c(0.0), c((1.0 - gamma).sqrt())]];
        let k1 = [[c(0.0), c(gamma.sqrt())], [c(0.0), c(0.0)]];
        Ok(Self {
            name: "amplitude-damping",
            ops: vec![k0, k1],
            depolarizing_p: None,
        })
    }

    /// Phase damping (pure T2 dephasing): off-diagonals shrink by
    /// `√(1−lambda)` without population transfer.
    ///
    /// # Errors
    ///
    /// [`QsimError::InvalidChannel`] unless `lambda ∈ [0, 1]`.
    pub fn phase_damping(lambda: f64) -> Result<Self, QsimError> {
        check_probability(lambda)?;
        let k0 = [[c(1.0), c(0.0)], [c(0.0), c((1.0 - lambda).sqrt())]];
        let k1 = [[c(0.0), c(0.0)], [c(0.0), c(lambda.sqrt())]];
        Ok(Self {
            name: "phase-damping",
            ops: vec![k0, k1],
            depolarizing_p: None,
        })
    }

    /// Bit-flip channel: applies `X` with probability `p`.
    ///
    /// # Errors
    ///
    /// [`QsimError::InvalidChannel`] unless `p ∈ [0, 1]`.
    pub fn bit_flip(p: f64) -> Result<Self, QsimError> {
        check_probability(p)?;
        Ok(Self {
            name: "bit-flip",
            ops: vec![
                scale_gate(&crate::gates::identity(), (1.0 - p).sqrt()),
                scale_gate(&crate::gates::x(), p.sqrt()),
            ],
            depolarizing_p: None,
        })
    }

    /// Phase-flip channel: applies `Z` with probability `p`.
    ///
    /// # Errors
    ///
    /// [`QsimError::InvalidChannel`] unless `p ∈ [0, 1]`.
    pub fn phase_flip(p: f64) -> Result<Self, QsimError> {
        check_probability(p)?;
        Ok(Self {
            name: "phase-flip",
            ops: vec![
                scale_gate(&crate::gates::identity(), (1.0 - p).sqrt()),
                scale_gate(&crate::gates::z(), p.sqrt()),
            ],
            depolarizing_p: None,
        })
    }

    /// The Kraus operators.
    #[must_use]
    pub fn ops(&self) -> &[Gate2] {
        &self.ops
    }

    /// The depolarizing probability, when this channel was built by
    /// [`KrausChannel::depolarizing`] — the density-matrix simulator uses
    /// it to apply the channel's closed form (a per-block blend) instead of
    /// the generic four-operator Kraus sum.
    #[must_use]
    pub fn as_depolarizing(&self) -> Option<f64> {
        self.depolarizing_p
    }

    /// Channel name (e.g. `"depolarizing"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `true` for the trivial single-identity-operator channel.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.ops.len() == 1
            && crate::gates::max_deviation(&self.ops[0], &crate::gates::identity()) < 1e-15
    }

    /// Max-norm deviation of `Σ K†K` from the identity (0 for a valid
    /// trace-preserving channel).
    #[must_use]
    pub fn completeness_deviation(&self) -> f64 {
        let mut sum = [[Complex64::ZERO; 2]; 2];
        for k in &self.ops {
            // K†K.
            for (i, row) in sum.iter_mut().enumerate() {
                for (j, entry) in row.iter_mut().enumerate() {
                    for krow in k {
                        *entry += krow[i].conj() * krow[j];
                    }
                }
            }
        }
        let id = crate::gates::identity();
        let mut dev = 0.0_f64;
        for i in 0..2 {
            for j in 0..2 {
                dev = dev.max((sum[i][j] - id[i][j]).abs());
            }
        }
        dev
    }
}

fn check_probability(p: f64) -> Result<(), QsimError> {
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(QsimError::InvalidChannel {
            reason: "probability outside [0, 1]",
        });
    }
    Ok(())
}

fn scale_gate(g: &Gate2, s: f64) -> Gate2 {
    [
        [g[0][0].scale(s), g[0][1].scale(s)],
        [g[1][0].scale(s), g[1][1].scale(s)],
    ]
}

/// Where noise is injected while running a circuit on a
/// [`DensityMatrix`](crate::DensityMatrix).
///
/// Models the standard gate-error abstraction: after every one-qubit gate
/// the `after_1q` channel hits the target qubit; after every two-qubit gate
/// the `after_2q` channel hits **both** qubits (two-qubit gates dominate
/// NISQ error budgets, so the two rates are independent knobs).
///
/// # Example
///
/// ```
/// use qsim::{KrausChannel, NoiseModel};
/// # fn main() -> Result<(), qsim::QsimError> {
/// let nm = NoiseModel::uniform_depolarizing(0.001, 0.01)?;
/// assert!(nm.after_1q.is_some() && nm.after_2q.is_some());
/// assert_eq!(NoiseModel::uniform_depolarizing(0.0, 0.0)?, NoiseModel::noiseless());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NoiseModel {
    /// Channel applied to the target qubit after every one-qubit gate.
    pub after_1q: Option<KrausChannel>,
    /// Channel applied to both qubits after every two-qubit gate.
    pub after_2q: Option<KrausChannel>,
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
    /// [`QsimError::InvalidChannel`] unless both rates are in `[0, 1]`.
    pub fn uniform_depolarizing(p1: f64, p2: f64) -> Result<Self, QsimError> {
        Ok(Self {
            after_1q: if p1 > 0.0 {
                Some(KrausChannel::depolarizing(p1)?)
            } else {
                check_probability(p1)?;
                None
            },
            after_2q: if p2 > 0.0 {
                Some(KrausChannel::depolarizing(p2)?)
            } else {
                check_probability(p2)?;
                None
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtin_channels_are_trace_preserving() {
        for p in [0.0, 0.1, 0.5, 1.0] {
            for ch in [
                KrausChannel::depolarizing(p).unwrap(),
                KrausChannel::amplitude_damping(p).unwrap(),
                KrausChannel::phase_damping(p).unwrap(),
                KrausChannel::bit_flip(p).unwrap(),
                KrausChannel::phase_flip(p).unwrap(),
            ] {
                assert!(
                    ch.completeness_deviation() < 1e-12,
                    "{} p={p}: {}",
                    ch.name(),
                    ch.completeness_deviation()
                );
            }
        }
    }

    #[test]
    fn invalid_probabilities_rejected() {
        for p in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            assert!(KrausChannel::depolarizing(p).is_err(), "p = {p}");
            assert!(KrausChannel::amplitude_damping(p).is_err());
            assert!(KrausChannel::bit_flip(p).is_err());
        }
    }

    #[test]
    fn new_validates_completeness() {
        // A lone X/√2 is not trace-preserving.
        let bad = scale_gate(&crate::gates::x(), std::f64::consts::FRAC_1_SQRT_2);
        assert!(matches!(
            KrausChannel::new("bad", vec![bad]),
            Err(QsimError::InvalidChannel { .. })
        ));
        assert!(matches!(
            KrausChannel::new("empty", vec![]),
            Err(QsimError::InvalidChannel { .. })
        ));
        // A unitary alone is fine.
        assert!(KrausChannel::new("h", vec![crate::gates::h()]).is_ok());
    }

    #[test]
    fn identity_channel() {
        let id = KrausChannel::identity();
        assert!(id.is_identity());
        assert!(!KrausChannel::depolarizing(0.3).unwrap().is_identity());
        // p = 0 depolarizing has 4 ops but 3 are zero; not flagged identity
        // by the cheap check, which is fine — it is still a no-op channel.
        assert!(
            KrausChannel::depolarizing(0.0)
                .unwrap()
                .completeness_deviation()
                < 1e-15
        );
    }

    #[test]
    fn noise_model_constructors() {
        let none = NoiseModel::noiseless();
        assert!(none.after_1q.is_none() && none.after_2q.is_none());
        let nm = NoiseModel::uniform_depolarizing(0.0, 0.0).unwrap();
        assert_eq!(nm, none);
        let nm = NoiseModel::uniform_depolarizing(0.001, 0.01).unwrap();
        assert!(nm.after_1q.is_some() && nm.after_2q.is_some());
        assert!(NoiseModel::uniform_depolarizing(-1.0, 0.0).is_err());
        assert!(NoiseModel::uniform_depolarizing(0.0, 2.0).is_err());
    }
}
