use crate::{
    Bounds, Counted, FnObjective, OptimizeError, OptimizeResult, Optimizer, Options, Termination,
};

/// The Nelder–Mead downhill-simplex method, one of the paper's two
/// gradient-free optimizers.
///
/// Implements the standard reflection / expansion / contraction / shrink
/// scheme with the adaptive coefficients of Gao & Han (scaled by dimension,
/// matching SciPy's `adaptive=True` behaviour for small problems reduces to
/// the classic 1, 2, 0.5, 0.5). Box constraints are enforced by clamping
/// every trial vertex into the box, the same strategy SciPy users apply via
/// parameter transforms for the QAOA domain `β ∈ [0,π], γ ∈ [0,2π]`.
///
/// # Example
///
/// ```
/// use optimize::{Bounds, NelderMead, Optimizer, Options};
/// # fn main() -> Result<(), optimize::OptimizeError> {
/// let rosenbrock = |x: &[f64]| {
///     (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
/// };
/// let bounds = Bounds::uniform(2, -5.0, 5.0)?;
/// let opts = Options::default().with_max_iters(2000);
/// let r = NelderMead::default().minimize(&rosenbrock, &[-1.2, 1.0], &bounds, &opts)?;
/// assert!((r.x[0] - 1.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMead {
    /// Reflection coefficient (α > 0).
    pub alpha: f64,
    /// Expansion coefficient (χ > 1).
    pub chi: f64,
    /// Contraction coefficient (0 < ψ < 1).
    pub psi: f64,
    /// Shrink coefficient (0 < σ < 1).
    pub sigma: f64,
    /// Relative size of the initial simplex (fraction of each bound width).
    pub initial_step: f64,
}

impl Default for NelderMead {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            chi: 2.0,
            psi: 0.5,
            sigma: 0.5,
            initial_step: 0.05,
        }
    }
}

impl NelderMead {
    /// Builds the initial simplex: `x0` plus one perturbed vertex per axis.
    fn initial_simplex(&self, x0: &[f64], bounds: &Bounds) -> Vec<Vec<f64>> {
        let n = x0.len();
        let mut simplex = Vec::with_capacity(n + 1);
        simplex.push(x0.to_vec());
        for i in 0..n {
            let mut v = x0.to_vec();
            let step = (self.initial_step * bounds.width(i)).max(1e-4);
            // Step toward whichever side has room.
            if v[i] + step <= bounds.upper()[i] {
                v[i] += step;
            } else {
                v[i] -= step;
            }
            simplex.push(bounds.project(&v));
        }
        simplex
    }
}

fn centroid(simplex: &[Vec<f64>], exclude: usize) -> Vec<f64> {
    let n = simplex[0].len();
    let mut c = vec![0.0; n];
    for (k, v) in simplex.iter().enumerate() {
        if k == exclude {
            continue;
        }
        for (ci, vi) in c.iter_mut().zip(v) {
            *ci += vi;
        }
    }
    let m = f64::from(u32::try_from(simplex.len() - 1).unwrap_or(u32::MAX));
    for ci in &mut c {
        *ci /= m;
    }
    c
}

fn blend(a: &[f64], b: &[f64], t: f64, bounds: &Bounds) -> Vec<f64> {
    // a + t (a - b), clamped into the box.
    let raw: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(&ai, &bi)| ai + t * (ai - bi))
        .collect();
    bounds.project(&raw)
}

impl Optimizer for NelderMead {
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
        let x0 = bounds.project(x0);

        let mut simplex = self.initial_simplex(&x0, bounds);
        let mut values: Vec<f64> = simplex.iter().map(|v| counted.eval(v)).collect();
        if !values[0].is_finite() {
            return Err(OptimizeError::NonFiniteObjective { value: values[0] });
        }

        let n = x0.len();
        let mut termination = Termination::MaxIterations;
        let mut iters = 0;

        for iter in 0..options.max_iters {
            iters = iter + 1;
            // Order the simplex by objective value.
            let mut order: Vec<usize> = (0..=n).collect();
            order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
            let best = order[0];
            let worst = order[n];
            let second_worst = order[n - 1];

            // SciPy-style convergence: value spread and vertex spread.
            let f_spread = (values[worst] - values[best]).abs();
            let x_spread = simplex
                .iter()
                .flat_map(|v| v.iter().zip(&simplex[best]).map(|(a, b)| (a - b).abs()))
                .fold(0.0_f64, f64::max);
            if f_spread <= options.ftol * (1.0 + values[best].abs())
                && x_spread <= options.ftol.sqrt()
            {
                termination = Termination::FtolSatisfied;
                break;
            }
            if options.calls_exhausted(counted.count()) {
                termination = Termination::MaxCalls;
                break;
            }
            if !values[worst].is_finite() {
                termination = Termination::NonFinite;
                break;
            }

            let c = centroid(&simplex, worst);
            // Reflection.
            let xr = blend(&c, &simplex[worst], self.alpha, bounds);
            let fr = counted.eval(&xr);

            if fr < values[best] {
                // Expansion.
                let xe = blend(&c, &simplex[worst], self.alpha * self.chi, bounds);
                let fe = counted.eval(&xe);
                if fe < fr {
                    simplex[worst] = xe;
                    values[worst] = fe;
                } else {
                    simplex[worst] = xr;
                    values[worst] = fr;
                }
            } else if fr < values[second_worst] {
                simplex[worst] = xr;
                values[worst] = fr;
            } else {
                // Contraction (outside if the reflection helped the worst).
                let (xc, fc) = if fr < values[worst] {
                    let xc = blend(&c, &simplex[worst], self.alpha * self.psi, bounds);
                    let fc = counted.eval(&xc);
                    (xc, fc)
                } else {
                    let xc = blend(&c, &simplex[worst], -self.psi, bounds);
                    let fc = counted.eval(&xc);
                    (xc, fc)
                };
                if fc < values[worst].min(fr) {
                    simplex[worst] = xc;
                    values[worst] = fc;
                } else {
                    // Shrink toward the best vertex.
                    let best_v = simplex[best].clone();
                    for (k, v) in simplex.iter_mut().enumerate() {
                        if k == best {
                            continue;
                        }
                        for (vi, bi) in v.iter_mut().zip(&best_v) {
                            *vi = bi + self.sigma * (*vi - bi);
                        }
                        values[k] = counted.eval(v);
                    }
                }
            }
        }

        let best = values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        Ok(OptimizeResult {
            x: simplex.swap_remove(best),
            fx: values[best],
            n_calls: counted.count(),
            n_grad_calls: 0,
            n_iters: iters,
            termination,
        })
    }

    fn name(&self) -> &'static str {
        "Nelder-Mead"
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
        let r = NelderMead::default()
            .minimize(&sphere, &[1.0, -1.5, 0.7], &b, &Options::default())
            .unwrap();
        assert!(r.fx < 1e-6, "{r}");
        assert!(r.converged());
    }

    #[test]
    fn respects_bounds() {
        // Unconstrained minimum at (3, 3); box caps at 1.
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] - 3.0).powi(2);
        let b = Bounds::uniform(2, -1.0, 1.0).unwrap();
        let r = NelderMead::default()
            .minimize(&f, &[0.0, 0.0], &b, &Options::default())
            .unwrap();
        assert!(b.contains(&r.x));
        assert!((r.x[0] - 1.0).abs() < 1e-3);
        assert!((r.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn max_calls_cap_respected() {
        let b = Bounds::uniform(2, -5.0, 5.0).unwrap();
        let opts = Options::default().with_max_calls(10);
        let r = NelderMead::default()
            .minimize(&sphere, &[4.0, 4.0], &b, &opts)
            .unwrap();
        assert_eq!(r.termination, Termination::MaxCalls);
        // The cap is checked per iteration; one iteration adds at most n+2 calls.
        assert!(r.n_calls <= 10 + 4);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let b = Bounds::uniform(2, 0.0, 1.0).unwrap();
        assert!(matches!(
            NelderMead::default().minimize(&sphere, &[0.5], &b, &Options::default()),
            Err(OptimizeError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            NelderMead::default().minimize(&sphere, &[], &b, &Options::default()),
            Err(OptimizeError::EmptyProblem)
        ));
    }

    #[test]
    fn nonfinite_start_rejected() {
        let f = |_: &[f64]| f64::NAN;
        let b = Bounds::uniform(1, 0.0, 1.0).unwrap();
        assert!(matches!(
            NelderMead::default().minimize(&f, &[0.5], &b, &Options::default()),
            Err(OptimizeError::NonFiniteObjective { .. })
        ));
    }

    #[test]
    fn start_on_upper_bound_builds_valid_simplex() {
        let b = Bounds::uniform(2, 0.0, 1.0).unwrap();
        let f = |x: &[f64]| sphere(x);
        let r = NelderMead::default()
            .minimize(&f, &[1.0, 1.0], &b, &Options::default())
            .unwrap();
        assert!(r.fx < 1e-6);
    }

    #[test]
    fn one_dimensional() {
        let f = |x: &[f64]| (x[0] - 0.3).powi(2);
        let b = Bounds::uniform(1, 0.0, 1.0).unwrap();
        let r = NelderMead::default()
            .minimize(&f, &[0.9], &b, &Options::default())
            .unwrap();
        assert!((r.x[0] - 0.3).abs() < 1e-4);
    }
}
