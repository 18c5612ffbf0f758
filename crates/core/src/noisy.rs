//! Gate-noise simulation: the QAOA objective under depolarizing errors.
//!
//! The paper's simulator (QuTiP) is noiseless, but the run-time metric it
//! optimizes — QC calls — matters precisely because real NISQ devices are
//! noisy. This module evaluates the QAOA energy on the density-matrix
//! simulator with a per-gate [`NoiseModel`], so the two-level flow can be
//! studied in the regime the paper targets (see the `noisy_qaoa` benchmark
//! binary): does ML initialization still help when every circuit execution
//! is decohered?
//!
//! This module only evaluates. A [`QaoaInstance`](crate::QaoaInstance)
//! built for [`Scenario::Noisy`](crate::Scenario::Noisy) optimizes the
//! noisy objective through the same `optimize` and multistart loop as the
//! exact one, counting every density-matrix evaluation as one (noisy) QC
//! call.
//!
//! # Example
//!
//! ```
//! use graphs::generators;
//! use qaoa::{noisy::NoisyQaoa, MaxCutProblem};
//! use qsim::NoiseModel;
//!
//! # fn main() -> Result<(), qaoa::QaoaError> {
//! let problem = MaxCutProblem::new(&generators::cycle(4))?;
//! let noiseless = NoisyQaoa::new(problem.clone(), 1, NoiseModel::noiseless())?;
//! let noisy = NoisyQaoa::new(problem, 1, NoiseModel::uniform_depolarizing(0.002, 0.02)?)?;
//! let params = [0.7, 0.4];
//! // Noise pulls the energy toward the maximally-mixed value.
//! assert!(noisy.expectation(&params)? <= noiseless.expectation(&params)? + 1e-9);
//! # Ok(())
//! # }
//! ```

use qsim::{DensityMatrix, NoiseModel, MAX_DM_QUBITS};

use crate::{MaxCutProblem, QaoaAnsatz, QaoaError};

/// A depth-`p` QAOA instance evaluated under a per-gate noise model.
///
/// Runs the gate-level circuit on a [`DensityMatrix`] with depolarizing
/// noise after every gate. The approximation ratio is still measured
/// against the *noiseless* exact MaxCut optimum, so noise shows up as an
/// AR penalty, as it would on hardware.
#[derive(Debug, Clone)]
pub struct NoisyQaoa {
    ansatz: QaoaAnsatz,
    noise: NoiseModel,
}

impl NoisyQaoa {
    /// Builds a noisy instance.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] for `depth == 0`.
    /// * [`QaoaError::TooLarge`] if the graph exceeds the density-matrix
    ///   register cap ([`MAX_DM_QUBITS`]).
    pub fn new(problem: MaxCutProblem, depth: usize, noise: NoiseModel) -> Result<Self, QaoaError> {
        if problem.n_qubits() > MAX_DM_QUBITS {
            return Err(QaoaError::TooLarge {
                n_nodes: problem.n_qubits(),
                max: MAX_DM_QUBITS,
            });
        }
        Ok(Self {
            ansatz: QaoaAnsatz::new(problem, depth)?,
            noise,
        })
    }

    /// The underlying (noiseless) ansatz.
    #[must_use]
    pub fn ansatz(&self) -> &QaoaAnsatz {
        &self.ansatz
    }

    /// The decohered output state `ρ(γ, β)`.
    ///
    /// # Errors
    ///
    /// [`QaoaError::ParameterCount`] on a parameter-length mismatch.
    pub fn state(&self, params: &[f64]) -> Result<DensityMatrix, QaoaError> {
        let circuit = self.ansatz.build_circuit(params)?;
        let mut rho = DensityMatrix::zero_state(circuit.n_qubits())?;
        rho.run(&circuit, &self.noise)?;
        Ok(rho)
    }

    /// The noisy objective `Tr(ρ(γ, β) · H_C)`.
    ///
    /// # Errors
    ///
    /// [`QaoaError::ParameterCount`] on a parameter-length mismatch.
    pub fn expectation(&self, params: &[f64]) -> Result<f64, QaoaError> {
        let rho = self.state(params)?;
        Ok(rho.expectation_diagonal(self.ansatz.problem().cost())?)
    }

    /// Approximation ratio of the noisy energy against the noiseless
    /// exact optimum.
    ///
    /// # Errors
    ///
    /// [`QaoaError::ParameterCount`] on a parameter-length mismatch.
    pub fn approximation_ratio(&self, params: &[f64]) -> Result<f64, QaoaError> {
        Ok(self
            .ansatz
            .problem()
            .approximation_ratio(self.expectation(params)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QaoaInstance, Scenario};
    use graphs::generators;
    use optimize::{NelderMead, Options};

    fn problem() -> MaxCutProblem {
        MaxCutProblem::new(&generators::cycle(4)).unwrap()
    }

    #[test]
    fn noiseless_matches_state_vector_path() {
        let nq = NoisyQaoa::new(problem(), 2, NoiseModel::noiseless()).unwrap();
        let params = [0.7, 0.3, 0.5, 0.2];
        let dm = nq.expectation(&params).unwrap();
        let sv = nq.ansatz().expectation(&params).unwrap();
        assert!((dm - sv).abs() < 1e-9, "dm {dm} sv {sv}");
    }

    #[test]
    fn noise_monotonically_degrades_energy_at_optimum() {
        // At a good parameter point, more depolarizing noise means lower ⟨C⟩.
        let params = [0.9, 0.35];
        let mut last = f64::INFINITY;
        for p in [0.0, 0.01, 0.05, 0.2] {
            let nq = NoisyQaoa::new(
                problem(),
                1,
                NoiseModel::uniform_depolarizing(p, p).unwrap(),
            )
            .unwrap();
            let e = nq.expectation(&params).unwrap();
            assert!(e < last + 1e-12, "p={p}: {e} !< {last}");
            last = e;
        }
    }

    #[test]
    fn full_noise_gives_mixed_state_energy() {
        // p = 1 depolarizing after every gate destroys all structure; the
        // energy approaches Tr(H_C)/2ⁿ = m/2 for unweighted MaxCut.
        let nq = NoisyQaoa::new(
            problem(),
            1,
            NoiseModel::uniform_depolarizing(1.0, 1.0).unwrap(),
        )
        .unwrap();
        let e = nq.expectation(&[0.9, 0.35]).unwrap();
        let mixed_energy = 4.0 / 2.0; // cycle(4): m = 4 edges
        assert!((e - mixed_energy).abs() < 0.15, "{e}");
    }

    #[test]
    fn optimize_under_mild_noise_still_beats_mixed_state() {
        let scenario = Scenario::Noisy {
            p1: 0.001,
            p2: 0.005,
        };
        let out = QaoaInstance::with_scenario(problem(), 1, &scenario, 0)
            .unwrap()
            .optimize(&NelderMead::default(), &[0.5, 0.5], &Options::default())
            .unwrap();
        assert!(out.function_calls > 0);
        assert!(out.expectation > 2.0, "{}", out.expectation);
        assert!(out.approximation_ratio > 0.5);
    }

    #[test]
    fn parameter_and_size_validation() {
        let nq = NoisyQaoa::new(problem(), 2, NoiseModel::noiseless()).unwrap();
        assert!(matches!(
            nq.expectation(&[0.1, 0.2]),
            Err(QaoaError::ParameterCount { .. })
        ));
        let noiseless = Scenario::Noisy { p1: 0.0, p2: 0.0 };
        let inst = QaoaInstance::with_scenario(problem(), 2, &noiseless, 0).unwrap();
        assert!(matches!(
            inst.optimize(&NelderMead::default(), &[0.1], &Options::default()),
            Err(QaoaError::ParameterCount { .. })
        ));
        let big = MaxCutProblem::new(&generators::cycle(MAX_DM_QUBITS + 1)).unwrap();
        assert!(matches!(
            NoisyQaoa::new(big, 1, NoiseModel::noiseless()),
            Err(QaoaError::TooLarge { .. })
        ));
    }
}
