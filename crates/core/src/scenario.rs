//! Evaluation scenarios: one switch selecting *how* a QAOA objective is
//! evaluated — exactly, from finite measurement shots, or under a per-gate
//! depolarizing noise model. A [`QaoaInstance`](crate::QaoaInstance) built
//! with [`QaoaInstance::with_scenario`](crate::QaoaInstance::with_scenario)
//! carries the scenario through every protocol: its one `optimize` and one
//! multistart loop serve all three, so the scenarios differ only in the
//! objective, the optimizer (sampled runs always use a seeded SPSA) and
//! the score (sampled runs are judged on the exact `⟨C⟩`).
//!
//! Each instance stays a pure function of `(problem, depth, scenario,
//! base_seed)`: the sampled path derives its shot RNG schedule and its SPSA
//! perturbation seed from `base_seed` (domain-separated), and the noisy
//! path is deterministic outright. That is what lets scenario workloads run
//! through `engine::batch`/`compare` with the serial ≡ parallel bit-parity
//! guarantee unchanged.
//!
//! # Example
//!
//! ```
//! use graphs::generators;
//! use optimize::{Lbfgsb, Options};
//! use qaoa::{MaxCutProblem, QaoaInstance, Scenario};
//!
//! # fn main() -> Result<(), qaoa::QaoaError> {
//! let problem = MaxCutProblem::new(&generators::cycle(4))?;
//! let scenario = Scenario::Sampled { shots: 1024 };
//! let inst = QaoaInstance::with_scenario(problem, 1, &scenario, 2020)?;
//! let out = inst.optimize(
//!     &Lbfgsb::default(), // ignored: sampled scenarios always run SPSA
//!     &[0.7, 0.4],
//!     &Options::default().with_max_iters(40),
//! )?;
//! assert!(out.approximation_ratio > 0.0);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use qsim::NoiseModel;

use crate::QaoaError;

/// How a QAOA objective evaluation is performed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Exact state-vector expectation (the paper's setting).
    Exact,
    /// Finite-shot estimation of `⟨C⟩`: each objective evaluation draws
    /// `shots` basis states from the Born distribution. Optimized with
    /// SPSA.
    Sampled {
        /// Measurement shots per objective evaluation.
        shots: u32,
    },
    /// Density-matrix evaluation with uniform depolarizing noise after
    /// every gate.
    Noisy {
        /// Depolarizing probability after each one-qubit gate.
        p1: f64,
        /// Depolarizing probability after each two-qubit gate.
        p2: f64,
    },
}

impl Scenario {
    /// Checks the configuration without building anything.
    ///
    /// # Errors
    ///
    /// [`QaoaError::InvalidScenario`] for zero shots or a noise probability
    /// outside `[0, 1]` (or non-finite).
    pub fn validate(&self) -> Result<(), QaoaError> {
        match *self {
            Scenario::Exact => Ok(()),
            Scenario::Sampled { shots } => {
                if shots == 0 {
                    return Err(QaoaError::InvalidScenario {
                        reason: "sampled objective needs at least one shot",
                    });
                }
                Ok(())
            }
            Scenario::Noisy { p1, p2 } => match NoiseModel::uniform_depolarizing(p1, p2) {
                Ok(_) => Ok(()),
                Err(_) => Err(QaoaError::InvalidScenario {
                    reason: "noise probabilities must be finite and within [0, 1]",
                }),
            },
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scenario::Exact => write!(f, "exact"),
            Scenario::Sampled { shots } => write!(f, "shots={shots}"),
            Scenario::Noisy { p1, p2 } => write!(f, "noise={p1},{p2}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MaxCutProblem, QaoaInstance};
    use graphs::generators;
    use optimize::{Lbfgsb, Options};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem() -> MaxCutProblem {
        MaxCutProblem::new(&generators::cycle(5)).unwrap()
    }

    #[test]
    fn display_labels() {
        assert_eq!(Scenario::Exact.to_string(), "exact");
        assert_eq!(Scenario::Sampled { shots: 256 }.to_string(), "shots=256");
        assert_eq!(
            Scenario::Noisy {
                p1: 0.002,
                p2: 0.02
            }
            .to_string(),
            "noise=0.002,0.02"
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(Scenario::Exact.validate().is_ok());
        assert!(Scenario::Sampled { shots: 1 }.validate().is_ok());
        assert!(Scenario::Sampled { shots: 0 }.validate().is_err());
        assert!(Scenario::Noisy { p1: 0.0, p2: 1.0 }.validate().is_ok());
        for (p1, p2) in [
            (-0.1, 0.0),
            (0.0, 1.5),
            (f64::NAN, 0.0),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
        ] {
            assert!(
                matches!(
                    Scenario::Noisy { p1, p2 }.validate(),
                    Err(QaoaError::InvalidScenario {
                        reason: "noise probabilities must be finite and within [0, 1]"
                    })
                ),
                "({p1}, {p2}) accepted"
            );
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn multistart_outcomes_match_recorded_bits() {
        // Bits recorded from the implementation that still had one
        // `optimize` and one multistart loop per scenario: merging them
        // must not move a single bit. Columns: params, ⟨C⟩, AR,
        // [nfev, njev].
        type Pinned = (Vec<u64>, u64, u64, [usize; 2]);
        let graph = generators::erdos_renyi_nonempty(6, 0.5, &mut StdRng::seed_from_u64(21));
        let problem = MaxCutProblem::new(&graph).unwrap();
        let options = Options::default().with_max_iters(40);
        let cases: [(Scenario, usize, Pinned); 3] = [
            (
                Scenario::Exact,
                2,
                (
                    vec![
                        0x4004cc04f20a52c4,
                        0x4011729b1325552e,
                        0x3ffd54c3a48abc3f,
                        0x3fd7fefcd8b78061,
                    ],
                    0x401504f2c801ef3e,
                    0x3fe805a7c00235fe,
                    [58, 25],
                ),
            ),
            (
                Scenario::Sampled { shots: 128 },
                2,
                (
                    vec![
                        0x400700e7b9b35271,
                        0x400ff94bd5075f05,
                        0x3fff52584ffef9bb,
                        0x3fd90691587e753f,
                    ],
                    0x40148e3e1d5e07ec,
                    0x3fe77dfdd86b76c5,
                    [164, 0],
                ),
            ),
            (
                Scenario::Noisy {
                    p1: 0.002,
                    p2: 0.02,
                },
                1,
                (
                    vec![0x3fe62ca24cf2e142, 0x3fd921fb3cf61580],
                    0x40129cc1607ff214,
                    0x3fe5456f49b6cb85,
                    [58, 0],
                ),
            ),
        ];
        for (scenario, depth, pinned) in cases {
            let out = QaoaInstance::with_scenario(problem.clone(), depth, &scenario, 7)
                .unwrap()
                .optimize_multistart(
                    &Lbfgsb::default(),
                    2,
                    &mut StdRng::seed_from_u64(5),
                    &options,
                )
                .unwrap();
            let got = (
                bits(&out.params),
                out.expectation.to_bits(),
                out.approximation_ratio.to_bits(),
                [out.function_calls, out.gradient_calls],
            );
            assert_eq!(got, pinned, "{scenario}");
        }
    }

    #[test]
    fn sampled_scenario_is_seed_deterministic() {
        let scenario = Scenario::Sampled { shots: 128 };
        let opts = Options::default().with_max_iters(25);
        let run = |seed: u64| {
            let si = QaoaInstance::with_scenario(problem(), 1, &scenario, seed).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            si.optimize_multistart(&Lbfgsb::default(), 2, &mut rng, &opts)
                .unwrap()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        let c = run(43);
        assert_ne!(a.params, c.params, "base seed must matter");
    }

    #[test]
    fn noisy_scenario_runs_and_degrades_energy() {
        let scenario = Scenario::Noisy {
            p1: 0.002,
            p2: 0.02,
        };
        let si = QaoaInstance::with_scenario(problem(), 1, &scenario, 0).unwrap();
        let params = [0.9, 0.35];
        let exact = si.ansatz().expectation(&params).unwrap();
        let out = si
            .optimize(
                &optimize::NelderMead::default(),
                &params,
                &Options::default().with_max_iters(60),
            )
            .unwrap();
        assert!(out.function_calls > 0);
        // The noisy optimum energy sits below the noiseless ceiling.
        assert!(out.expectation <= si.problem().optimal_cut() + 1e-9);
        let _ = exact;
    }

    #[test]
    fn zero_starts_rejected_for_every_scenario() {
        for scenario in [
            Scenario::Exact,
            Scenario::Sampled { shots: 16 },
            Scenario::Noisy { p1: 0.0, p2: 0.0 },
        ] {
            let si = QaoaInstance::with_scenario(problem(), 1, &scenario, 1).unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            assert!(matches!(
                si.optimize_multistart(&Lbfgsb::default(), 0, &mut rng, &Options::default()),
                Err(QaoaError::InvalidScenario { .. })
            ));
        }
    }

    #[test]
    fn oversized_noisy_graph_rejected() {
        let big = MaxCutProblem::new(&generators::cycle(qsim::MAX_DM_QUBITS + 1)).unwrap();
        assert!(matches!(
            QaoaInstance::with_scenario(big, 1, &Scenario::Noisy { p1: 0.0, p2: 0.0 }, 0),
            Err(QaoaError::TooLarge { .. })
        ));
    }
}
