use rand::Rng;

use crate::{Complex64, QsimError};

/// Reusable inverse-CDF sampler over an explicit probability vector.
///
/// [`CdfSampler::load`] validates the distribution and builds the cumulative
/// table once; [`CdfSampler::draw`] then costs one RNG draw plus a binary
/// search per shot with no allocation, so a hot loop can re-`load` the same
/// sampler every evaluation and keep its capacity.
///
/// Zero-probability entries occupy zero-width intervals of the CDF and are
/// never selected: `draw` looks for the first index whose cumulative value
/// *strictly exceeds* the uniform draw, which skips every plateau (including
/// a leading one at `u == 0`).
///
/// # Example
///
/// ```
/// use qsim::CdfSampler;
/// use rand::SeedableRng;
/// let mut sampler = CdfSampler::new();
/// sampler.load(&[0.0, 0.5, 0.0, 0.5])?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// for _ in 0..100 {
///     let z = sampler.draw(&mut rng);
///     assert!(z == 1 || z == 3);
/// }
/// # Ok::<(), qsim::QsimError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CdfSampler {
    cdf: Vec<f64>,
    total: f64,
    last_support: usize,
}

impl CdfSampler {
    /// An empty sampler; call [`CdfSampler::load`] before drawing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the cumulative table for `probs`, validating it first.
    ///
    /// Entries must be finite; tiny negative values (rounding noise from
    /// `re² + im²` arithmetic) are clamped to zero. Returns
    /// [`QsimError::InvalidProbabilities`] if `probs` is empty, contains a
    /// non-finite entry, or sums to zero — an all-zero vector has no valid
    /// Born distribution and must not silently sample index 0.
    pub fn load(&mut self, probs: &[f64]) -> Result<(), QsimError> {
        self.cdf.clear();
        self.cdf.reserve(probs.len());
        let mut acc = 0.0;
        let mut last_support = None;
        for (i, &p) in probs.iter().enumerate() {
            if !p.is_finite() {
                return Err(QsimError::InvalidProbabilities {
                    reason: "non-finite entry",
                });
            }
            let p = p.max(0.0);
            if p > 0.0 {
                last_support = Some(i);
            }
            acc += p;
            self.cdf.push(acc);
        }
        let Some(last_support) = last_support else {
            return Err(QsimError::InvalidProbabilities {
                reason: "no positive entry",
            });
        };
        self.total = acc;
        self.last_support = last_support;
        Ok(())
    }

    /// Builds the cumulative table from amplitudes in basis-index order
    /// (e.g. [`SplitState::amplitudes`](crate::soa::SplitState::amplitudes)),
    /// sampling the Born distribution `re² + im²` without an intermediate
    /// probability buffer.
    pub fn load_amplitudes(
        &mut self,
        amps: impl IntoIterator<Item = Complex64>,
    ) -> Result<(), QsimError> {
        let amps = amps.into_iter();
        self.cdf.clear();
        self.cdf.reserve(amps.size_hint().0);
        let mut acc = 0.0;
        let mut last_support = None;
        for (i, a) in amps.enumerate() {
            let p = a.re * a.re + a.im * a.im;
            if !p.is_finite() {
                return Err(QsimError::InvalidProbabilities {
                    reason: "non-finite entry",
                });
            }
            if p > 0.0 {
                last_support = Some(i);
            }
            acc += p;
            self.cdf.push(acc);
        }
        let Some(last_support) = last_support else {
            return Err(QsimError::InvalidProbabilities {
                reason: "no positive entry",
            });
        };
        self.total = acc;
        self.last_support = last_support;
        Ok(())
    }

    /// Draws one basis-state index from the loaded distribution.
    ///
    /// Consumes exactly one `f64` from `rng` per call. The search is
    /// strictly-greater (`partition_point` on `cdf[i] <= u`), so an index is
    /// selectable only if its probability widened the CDF — zero-probability
    /// states are unreachable. If rounding pushes `u` to the very top of the
    /// table, the draw falls back to the last positive-probability index.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen::<f64>() * self.total;
        let i = self.cdf.partition_point(|&c| c <= u);
        i.min(self.last_support)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DensityMatrix, StateVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `shots` draws from a sampler loaded with `probs`.
    fn draws(probs: &[f64], shots: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut sampler = CdfSampler::new();
        sampler.load(probs).unwrap();
        (0..shots).map(|_| sampler.draw(rng)).collect()
    }

    /// Per-index counts of `shots` draws from `probs`.
    fn counts(probs: &[f64], shots: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut counts = vec![0; probs.len()];
        for z in draws(probs, shots, rng) {
            counts[z] += 1;
        }
        counts
    }

    #[test]
    fn deterministic_state_samples_deterministically() {
        let s = StateVector::basis_state(3, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let counts = counts(&s.probabilities(), 50, &mut rng);
        assert_eq!(counts[5], 50);
        assert_eq!(counts.iter().sum::<usize>(), 50);
    }

    #[test]
    fn uniform_state_covers_support() {
        let s = StateVector::plus_state(2);
        let mut rng = StdRng::seed_from_u64(42);
        let counts = counts(&s.probabilities(), 4000, &mut rng);
        assert_eq!(counts.iter().sum::<usize>(), 4000);
        // All four outcomes present, each within 5 sigma of 1000.
        for &c in &counts {
            assert!((c as f64 - 1000.0).abs() < 5.0 * (4000.0_f64 * 0.25 * 0.75).sqrt());
        }
    }

    #[test]
    fn zero_shots_is_empty() {
        // Loading draws nothing: the stream is untouched until `draw`.
        let s = StateVector::plus_state(1);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(draws(&s.probabilities(), 0, &mut rng).is_empty());
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(0).gen::<u64>());
    }

    #[test]
    fn seeded_reproducibility() {
        let p = StateVector::plus_state(3).probabilities();
        let a = draws(&p, 32, &mut StdRng::seed_from_u64(9));
        let b = draws(&p, 32, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn density_sampling_matches_pure_state_distribution() {
        // Sampling |ψ⟩⟨ψ| must match sampling |ψ⟩ for the same seed.
        let s = StateVector::plus_state(2);
        let rho = DensityMatrix::from_state_vector(&s).unwrap();
        let a = draws(&s.probabilities(), 64, &mut StdRng::seed_from_u64(4));
        let b = draws(&rho.probabilities(), 64, &mut StdRng::seed_from_u64(4));
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_state_sampling_covers_support() {
        let rho = DensityMatrix::maximally_mixed(2).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let counts = counts(&rho.probabilities(), 4000, &mut rng);
        assert_eq!(counts.iter().sum::<usize>(), 4000);
        for &c in &counts {
            assert!((c as f64 - 1000.0).abs() < 5.0 * (4000.0_f64 * 0.25 * 0.75).sqrt());
        }
    }

    #[test]
    fn zero_probability_entries_never_sampled() {
        // Leading, interior, and trailing zeros: only the support may appear,
        // for every RNG stream. A basis state |2⟩ has zero amplitude on
        // indices 0, 1, and 3 — the old plateau-landing search could emit
        // them (u == 0.0 always selected index 0).
        let mut sampler = CdfSampler::new();
        sampler.load(&[0.0, 0.25, 0.0, 0.5, 0.25, 0.0]).unwrap();
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..256 {
                let z = sampler.draw(&mut rng);
                assert!(z == 1 || z == 3 || z == 4, "sampled zero-probability {z}");
            }
        }
    }

    #[test]
    fn leading_zero_state_never_samples_zero_index() {
        // Regression: basis_state(2, 2) has zero amplitude at index 0; a
        // uniform draw of exactly 0.0 used to land there.
        let s = StateVector::basis_state(2, 2);
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let shots = draws(&s.probabilities(), 128, &mut rng);
            assert!(shots.iter().all(|&z| z == 2));
        }
    }

    #[test]
    fn all_zero_probabilities_rejected() {
        let mut sampler = CdfSampler::new();
        let err = sampler.load(&[0.0, 0.0, 0.0]).unwrap_err();
        assert!(matches!(err, QsimError::InvalidProbabilities { .. }));
        let err = sampler.load(&[]).unwrap_err();
        assert!(matches!(err, QsimError::InvalidProbabilities { .. }));
    }

    #[test]
    fn non_finite_probabilities_rejected() {
        let mut sampler = CdfSampler::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = sampler.load(&[0.5, bad, 0.5]).unwrap_err();
            assert!(matches!(err, QsimError::InvalidProbabilities { .. }));
        }
    }

    #[test]
    fn negative_rounding_noise_clamped() {
        let mut sampler = CdfSampler::new();
        sampler.load(&[-1e-300, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..64 {
            assert_eq!(sampler.draw(&mut rng), 1);
        }
    }

    #[test]
    fn load_amplitudes_matches_load_of_squares() {
        let re = [0.5_f64, 0.0, -0.5, 0.5];
        let im = [0.0_f64, 0.0, 0.5, 0.0];
        let probs: Vec<f64> = re.iter().zip(&im).map(|(r, m)| r * r + m * m).collect();
        let mut a = CdfSampler::new();
        a.load_amplitudes(re.iter().zip(&im).map(|(&r, &m)| Complex64::new(r, m)))
            .unwrap();
        let mut b = CdfSampler::new();
        b.load(&probs).unwrap();
        let xa: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(77);
            (0..128).map(|_| a.draw(&mut rng)).collect()
        };
        let xb: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(77);
            (0..128).map(|_| b.draw(&mut rng)).collect()
        };
        assert_eq!(xa, xb);
        assert!(xa.iter().all(|&z| z != 1), "zero-amplitude index sampled");
    }

    #[test]
    fn sampler_reuse_after_error_is_clean() {
        let mut sampler = CdfSampler::new();
        assert!(sampler.load(&[0.0]).is_err());
        sampler.load(&[0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sampler.draw(&mut rng), 1);
    }
}
