use crate::{
    Bounds, Counted, FnObjective, OptimizeError, OptimizeResult, Optimizer, Options, Termination,
};

/// Constrained optimization by linear approximation — the workspace's
/// COBYLA, the paper's second gradient-free optimizer.
///
/// Powell's COBYLA maintains a simplex of `n + 1` interpolation points, fits
/// a linear model of the objective (and constraints) through them, and takes
/// trust-region steps of radius ρ that shrinks from `rho_begin` to
/// `rho_end`. This implementation reproduces that structure for the
/// box-constrained case: the linear model is the exact interpolant through
/// the simplex, the trust-region step minimizes it inside `‖d‖ ≤ ρ` ∩ box,
/// and degenerate simplex geometry triggers a geometry-improving replacement
/// step, as in Powell's method. General inequality constraints (which the
/// paper's problems don't have — bounds are handled directly) are not
/// implemented: this bound-only variant stands in for SciPy's COBYLA.
///
/// Non-finite objective values encountered after the start are treated as a
/// large penalty (`NON_FINITE_PENALTY`) so the simplex retreats from NaN/∞
/// regions instead of aborting.
///
/// # Example
///
/// ```
/// use optimize::{Bounds, Cobyla, Optimizer, Options};
/// # fn main() -> Result<(), optimize::OptimizeError> {
/// let f = |x: &[f64]| (x[0] - 0.25_f64).powi(2) + (x[1] - 0.75_f64).powi(2);
/// let bounds = Bounds::uniform(2, 0.0, 1.0)?;
/// let r = Cobyla::default().minimize(&f, &[0.9, 0.1], &bounds, &Options::default())?;
/// assert!(r.fx < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cobyla {
    /// Initial trust-region radius, as a fraction of the mean bound width
    /// (SciPy's `rhobeg` default is 1.0 in absolute units; QAOA domains span
    /// π–2π so a relative radius transfers better across problems).
    pub rho_begin_rel: f64,
    /// Final trust-region radius (absolute). Termination threshold.
    pub rho_end: f64,
}

impl Default for Cobyla {
    fn default() -> Self {
        Self {
            rho_begin_rel: 0.15,
            rho_end: 1e-6,
        }
    }
}

/// Substitute for non-finite objective values: large enough to repel the
/// simplex, small enough to keep the linear model finite.
const NON_FINITE_PENALTY: f64 = 1e30;

fn penalized(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        NON_FINITE_PENALTY
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Fits the linear interpolant `f(x) ≈ f(x₀) + gᵀ(x − x₀)` through the
/// simplex (vertex 0 is the base). Returns `None` if the simplex is
/// degenerate (singular difference matrix).
fn fit_linear_model(simplex: &[Vec<f64>], values: &[f64]) -> Option<Vec<f64>> {
    let n = simplex[0].len();
    // Rows: (x_i − x_0), rhs: f_i − f_0. Solve the n×n system.
    let mut a = vec![0.0; n * n];
    let mut b = vec![0.0; n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = simplex[i + 1][j] - simplex[0][j];
        }
        b[i] = values[i + 1] - values[0];
    }
    // Gaussian elimination with partial pivoting.
    for k in 0..n {
        let mut piv = k;
        for r in (k + 1)..n {
            if a[r * n + k].abs() > a[piv * n + k].abs() {
                piv = r;
            }
        }
        if a[piv * n + k].abs() < 1e-12 {
            return None;
        }
        if piv != k {
            for c in 0..n {
                a.swap(k * n + c, piv * n + c);
            }
            b.swap(k, piv);
        }
        for r in (k + 1)..n {
            let factor = a[r * n + k] / a[k * n + k];
            for c in k..n {
                a[r * n + c] -= factor * a[k * n + c];
            }
            b[r] -= factor * b[k];
        }
    }
    for k in (0..n).rev() {
        let mut s = b[k];
        for c in (k + 1)..n {
            s -= a[k * n + c] * b[c];
        }
        b[k] = s / a[k * n + k];
    }
    Some(b)
}

impl Optimizer for Cobyla {
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
        let n = x0.len();
        let f = FnObjective(f);
        let counted = Counted::new(&f);
        let x0 = bounds.project(x0);

        let dims = f64::from(u32::try_from(n).unwrap_or(u32::MAX));
        let mean_width: f64 = (0..n).map(|i| bounds.width(i)).sum::<f64>() / dims;
        let mut rho = (self.rho_begin_rel * mean_width).max(self.rho_end * 10.0);

        // Initial simplex: x0 plus ρ-steps along each axis (direction chosen
        // to stay in the box).
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(x0.clone());
        for i in 0..n {
            let mut v = x0.clone();
            if v[i] + rho <= bounds.upper()[i] {
                v[i] += rho;
            } else {
                v[i] -= rho;
            }
            simplex.push(bounds.project(&v));
        }
        let raw0 = counted.eval(&simplex[0]);
        if !raw0.is_finite() {
            return Err(OptimizeError::NonFiniteObjective { value: raw0 });
        }
        let mut values: Vec<f64> = std::iter::once(raw0)
            .chain(simplex[1..].iter().map(|v| penalized(counted.eval(v))))
            .collect();

        let mut termination = Termination::MaxIterations;
        let mut iters = 0;

        for iter in 0..options.max_iters {
            iters = iter + 1;
            if options.calls_exhausted(counted.count()) {
                termination = Termination::MaxCalls;
                break;
            }

            // Keep the best vertex at position 0.
            let best = values
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i);
            simplex.swap(0, best);
            values.swap(0, best);

            let Some(g) = fit_linear_model(&simplex, &values) else {
                // Degenerate geometry: rebuild the simplex around the best
                // vertex at the current radius (Powell's geometry step).
                let base = simplex[0].clone();
                for i in 0..n {
                    let mut v = base.clone();
                    if v[i] + rho <= bounds.upper()[i] {
                        v[i] += rho;
                    } else {
                        v[i] -= rho;
                    }
                    let v = bounds.project(&v);
                    values[i + 1] = penalized(counted.eval(&v));
                    simplex[i + 1] = v;
                }
                continue;
            };

            let gnorm = dot(&g, &g).sqrt();
            if gnorm < 1e-14 {
                // Flat model: either converged or need a smaller radius.
                if rho <= self.rho_end {
                    termination = Termination::StepSizeZero;
                    break;
                }
                rho *= 0.5;
                continue;
            }

            // Trust-region step: minimize the linear model inside ‖d‖ ≤ ρ,
            // then project into the box.
            let trial: Vec<f64> = simplex[0]
                .iter()
                .zip(&g)
                .map(|(&xi, &gi)| xi - rho * gi / gnorm)
                .collect();
            let trial = bounds.project(&trial);
            let f_trial = penalized(counted.eval(&trial));

            let predicted = rho * gnorm; // model decrease for the full step
            let actual = values[0] - f_trial;

            // Replace the worst vertex with the trial point (keeps geometry
            // fresh whether or not the step succeeded).
            let worst = values
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i);
            if f_trial < values[worst] {
                simplex[worst] = trial;
                values[worst] = f_trial;
            }

            // A step is successful only if it achieves a reasonable fraction
            // of the model's predicted decrease AND the decrease is
            // meaningful at the requested tolerance. Without the second
            // condition, fixed-radius steps can keep collecting tiny gains
            // around a minimum and the radius never shrinks (Powell's COBYLA
            // shrinks once progress at the current resolution is exhausted).
            let meaningful = actual > options.ftol * (1.0 + values[0].abs());
            if actual > 0.1 * predicted && meaningful {
                // Successful step: keep the radius.
            } else {
                // Progress at this resolution is exhausted: shrink.
                if rho <= self.rho_end {
                    termination = if meaningful {
                        Termination::StepSizeZero
                    } else {
                        Termination::FtolSatisfied
                    };
                    break;
                }
                rho *= 0.5;
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
        "COBYLA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    #[test]
    fn minimizes_quadratic() {
        let b = Bounds::uniform(2, -2.0, 2.0).unwrap();
        let r = Cobyla::default()
            .minimize(
                &sphere,
                &[1.5, -1.0],
                &b,
                &Options::default().with_max_iters(2000),
            )
            .unwrap();
        assert!(r.fx < 1e-6, "{r}");
    }

    #[test]
    fn pinned_at_bound() {
        let f = |x: &[f64]| (x[0] - 5.0) * (x[0] - 5.0);
        let b = Bounds::uniform(1, 0.0, 1.0).unwrap();
        let r = Cobyla::default()
            .minimize(&f, &[0.1], &b, &Options::default().with_max_iters(2000))
            .unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-3, "{r}");
        assert!(b.contains(&r.x));
    }

    #[test]
    fn linear_model_exact_on_linear_function() {
        let simplex = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        let values = vec![1.0, 3.0, 0.0]; // f = 1 + 2x - y
        let g = fit_linear_model(&simplex, &values).unwrap();
        assert!((g[0] - 2.0).abs() < 1e-12);
        assert!((g[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_simplex_detected() {
        let simplex = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![2.0, 0.0]];
        assert!(fit_linear_model(&simplex, &[0.0, 1.0, 2.0]).is_none());
    }

    #[test]
    fn flat_objective_terminates() {
        let f = |_: &[f64]| 7.0;
        let b = Bounds::uniform(2, 0.0, 1.0).unwrap();
        let r = Cobyla::default()
            .minimize(&f, &[0.5, 0.5], &b, &Options::default())
            .unwrap();
        assert_eq!(r.fx, 7.0);
        assert!(r.converged(), "{r}");
    }

    #[test]
    fn call_budget() {
        let b = Bounds::uniform(4, -5.0, 5.0).unwrap();
        let opts = Options::default().with_max_calls(12).with_ftol(0.0);
        let r = Cobyla::default()
            .minimize(&sphere, &[4.0; 4], &b, &opts)
            .unwrap();
        assert!(r.n_calls <= 12 + 6);
    }

    #[test]
    fn error_paths() {
        let b = Bounds::uniform(2, 0.0, 1.0).unwrap();
        assert!(Cobyla::default()
            .minimize(&sphere, &[0.5], &b, &Options::default())
            .is_err());
        let nan = |_: &[f64]| f64::NAN;
        assert!(Cobyla::default()
            .minimize(&nan, &[0.5, 0.5], &b, &Options::default())
            .is_err());
    }
}
