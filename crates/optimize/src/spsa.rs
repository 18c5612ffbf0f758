use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    count_f64, Bounds, Counted, FnObjective, OptimizeError, OptimizeResult, Optimizer, Options,
    Termination,
};

/// Simultaneous Perturbation Stochastic Approximation (Spall, 1992).
///
/// SPSA estimates the gradient from **two** objective evaluations per
/// iteration regardless of dimension, which makes it the optimizer of choice
/// for QAOA loops that run on shot-noisy hardware — the regime the paper's
/// introduction motivates. It is not one of the four SciPy optimizers of
/// Table I; it is included as an extension so the two-level flow can be
/// compared against the hardware-practical baseline (see the
/// `shot_noise_study` and `optimizer_zoo` benchmark binaries).
///
/// Gains follow Spall's standard schedules `a_k = a/(k+1+A)^α` and
/// `c_k = c/(k+1)^γ` with `α = 0.602`, `γ = 0.101`. Perturbations are
/// Rademacher (±1). Iterates are projected onto the box after every step,
/// and the best evaluated point is returned (the raw SPSA iterate is never
/// evaluated, so the best probe point is the honest estimate).
///
/// The run is deterministic for a fixed [`Spsa::seed`].
///
/// # Example
///
/// ```
/// use optimize::{Bounds, Optimizer, Options, Spsa};
/// # fn main() -> Result<(), optimize::OptimizeError> {
/// let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// let bounds = Bounds::uniform(2, -2.0, 2.0)?;
/// let opts = Options::default().with_max_iters(500);
/// let r = Spsa::default().minimize(&sphere, &[1.5, -1.0], &bounds, &opts)?;
/// assert!(r.fx < 1e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spsa {
    /// Numerator of the step-size schedule `a_k = a / (k + 1 + A)^alpha`.
    pub a: f64,
    /// Stability offset `A` (typically ~10% of the iteration budget).
    pub big_a: f64,
    /// Step-size decay exponent `α` (Spall recommends 0.602).
    pub alpha: f64,
    /// Numerator of the perturbation schedule `c_k = c / (k + 1)^gamma`,
    /// as a fraction of the narrowest bound width.
    pub c: f64,
    /// Perturbation decay exponent `γ` (Spall recommends 0.101).
    pub gamma: f64,
    /// RNG seed for the Rademacher perturbations.
    pub seed: u64,
    /// Number of consecutive small smoothed-improvement iterations required
    /// to declare `ftol` convergence.
    pub patience: usize,
}

impl Default for Spsa {
    fn default() -> Self {
        Self {
            a: 0.2,
            big_a: 10.0,
            alpha: 0.602,
            c: 0.05,
            gamma: 0.101,
            seed: 0x5b5a_2020,
            patience: 10,
        }
    }
}

impl Spsa {
    /// Returns a copy with a different RNG seed; useful for multi-start runs.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Optimizer for Spsa {
    fn minimize(
        &self,
        f: &dyn Fn(&[f64]) -> f64,
        x0: &[f64],
        bounds: &Bounds,
        options: &Options,
    ) -> Result<OptimizeResult, OptimizeError> {
        if x0.is_empty() {
            return Err(OptimizeError::EmptyProblem);
        }
        if x0.len() != bounds.dim() {
            return Err(OptimizeError::DimensionMismatch {
                x0: x0.len(),
                bounds: bounds.dim(),
            });
        }
        let f = FnObjective(f);
        let counted = Counted::new(&f);
        let mut x = bounds.project(x0);
        let f0 = counted.eval(&x);
        if !f0.is_finite() {
            return Err(OptimizeError::NonFiniteObjective { value: f0 });
        }

        let n = x.len();
        let min_width = (0..n)
            .map(|i| bounds.width(i))
            .fold(f64::INFINITY, f64::min);
        let c_scale = (self.c * min_width).max(1e-6);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best_x = x.clone();
        let mut best_f = f0;
        let mut smoothed = f0;
        let mut stall = 0usize;
        let mut termination = Termination::MaxIterations;
        let mut iters = 0;

        for k in 0..options.max_iters {
            iters = k + 1;
            if options.calls_exhausted(counted.count()) {
                termination = Termination::MaxCalls;
                break;
            }
            let ak = self.a / (count_f64(k) + 1.0 + self.big_a).powf(self.alpha);
            let ck = c_scale / (count_f64(k) + 1.0).powf(self.gamma);

            let delta: Vec<f64> = (0..n)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let x_plus: Vec<f64> = bounds.project(
                &x.iter()
                    .zip(&delta)
                    .map(|(&xi, &d)| xi + ck * d)
                    .collect::<Vec<_>>(),
            );
            let x_minus: Vec<f64> = bounds.project(
                &x.iter()
                    .zip(&delta)
                    .map(|(&xi, &d)| xi - ck * d)
                    .collect::<Vec<_>>(),
            );
            let f_plus = counted.eval(&x_plus);
            let f_minus = counted.eval(&x_minus);
            if !f_plus.is_finite() || !f_minus.is_finite() {
                termination = Termination::NonFinite;
                break;
            }

            if f_plus < best_f {
                best_f = f_plus;
                best_x = x_plus.clone();
            }
            if f_minus < best_f {
                best_f = f_minus;
                best_x = x_minus.clone();
            }

            let diff = f_plus - f_minus;
            for i in 0..n {
                // ĝ_i = (f+ − f−) / (2 c_k δ_i); δ_i = ±1 so divide by δ_i.
                let g = diff / (2.0 * ck * delta[i]);
                x[i] -= ak * g;
            }
            bounds.project_in_place(&mut x);

            let probe = 0.5 * (f_plus + f_minus);
            let new_smoothed = 0.9 * smoothed + 0.1 * probe;
            if (smoothed - new_smoothed).abs() <= options.ftol * (1.0 + smoothed.abs()) {
                stall += 1;
                if stall >= self.patience {
                    termination = Termination::FtolSatisfied;
                    break;
                }
            } else {
                stall = 0;
            }
            smoothed = new_smoothed;
        }

        // Final polish readout: evaluate the last iterate so it can compete
        // with the probe points.
        if !options.calls_exhausted(counted.count()) {
            let fx = counted.eval(&x);
            if fx.is_finite() && fx < best_f {
                best_f = fx;
                best_x = x;
            }
        }

        Ok(OptimizeResult {
            x: best_x,
            fx: best_f,
            n_calls: counted.count(),
            n_grad_calls: 0,
            n_iters: iters,
            termination,
        })
    }

    fn name(&self) -> &'static str {
        "SPSA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    #[test]
    fn minimizes_sphere() {
        let b = Bounds::uniform(3, -2.0, 2.0).unwrap();
        let opts = Options::default().with_max_iters(3000);
        let r = Spsa::default()
            .minimize(&sphere, &[1.0, -1.5, 0.7], &b, &opts)
            .unwrap();
        assert!(r.fx < 1e-2, "{r}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let b = Bounds::uniform(2, -2.0, 2.0).unwrap();
        let opts = Options::default().with_max_iters(200);
        let r1 = Spsa::default()
            .minimize(&sphere, &[1.0, 1.0], &b, &opts)
            .unwrap();
        let r2 = Spsa::default()
            .minimize(&sphere, &[1.0, 1.0], &b, &opts)
            .unwrap();
        assert_eq!(r1.x, r2.x);
        assert_eq!(r1.n_calls, r2.n_calls);
    }

    #[test]
    fn different_seeds_diverge() {
        let b = Bounds::uniform(2, -2.0, 2.0).unwrap();
        let opts = Options::default().with_max_iters(50);
        let r1 = Spsa::default()
            .minimize(&sphere, &[1.0, 1.0], &b, &opts)
            .unwrap();
        let r2 = Spsa::default()
            .with_seed(99)
            .minimize(&sphere, &[1.0, 1.0], &b, &opts)
            .unwrap();
        assert_ne!(r1.x, r2.x);
    }

    #[test]
    fn stays_in_bounds() {
        let f = |x: &[f64]| (x[0] - 5.0).powi(2) + (x[1] - 5.0).powi(2);
        let b = Bounds::uniform(2, 0.0, 1.0).unwrap();
        let opts = Options::default().with_max_iters(500);
        let r = Spsa::default()
            .minimize(&f, &[0.5, 0.5], &b, &opts)
            .unwrap();
        assert!(b.contains(&r.x));
        assert!(r.x[0] > 0.8 && r.x[1] > 0.8, "{r}");
    }

    #[test]
    fn two_calls_per_iteration() {
        let b = Bounds::uniform(4, -1.0, 1.0).unwrap();
        let opts = Options::default().with_max_iters(25).with_ftol(0.0);
        let r = Spsa::default()
            .minimize(&sphere, &[0.5; 4], &b, &opts)
            .unwrap();
        // 1 initial + 2 per iteration + 1 final polish, independent of dim.
        assert_eq!(r.n_calls, 1 + 2 * 25 + 1);
    }

    #[test]
    fn max_calls_cap_respected() {
        let b = Bounds::uniform(2, -1.0, 1.0).unwrap();
        let opts = Options::default().with_max_calls(9).with_max_iters(1000);
        let r = Spsa::default()
            .minimize(&sphere, &[0.5; 2], &b, &opts)
            .unwrap();
        assert_eq!(r.termination, Termination::MaxCalls);
        assert!(r.n_calls <= 11);
    }

    #[test]
    fn dimension_checks() {
        let b = Bounds::uniform(2, 0.0, 1.0).unwrap();
        assert!(matches!(
            Spsa::default().minimize(&sphere, &[0.5], &b, &Options::default()),
            Err(OptimizeError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Spsa::default().minimize(&sphere, &[], &b, &Options::default()),
            Err(OptimizeError::EmptyProblem)
        ));
    }

    #[test]
    fn nonfinite_start_rejected() {
        let f = |_: &[f64]| f64::INFINITY;
        let b = Bounds::uniform(1, 0.0, 1.0).unwrap();
        assert!(matches!(
            Spsa::default().minimize(&f, &[0.5], &b, &Options::default()),
            Err(OptimizeError::NonFiniteObjective { .. })
        ));
    }
}
