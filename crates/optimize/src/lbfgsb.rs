use std::collections::VecDeque;

use crate::{
    gradient, Bounds, Counted, FnObjective, Objective, OptimizeError, OptimizeResult, Optimizer,
    Options, Termination,
};

/// Projected limited-memory BFGS for box constraints — the workspace's
/// L-BFGS-B and the optimizer the paper used to generate its training data.
///
/// This is the gradient-projection variant: the quasi-Newton direction comes
/// from the standard L-BFGS two-loop recursion over the last `memory`
/// curvature pairs, and feasibility is maintained by searching along the
/// *projected* path `x(α) = P(x + α d)` with an Armijo backtracking rule.
/// It differs from the Byrd–Lu–Nocedal–Zhu subspace algorithm in how the
/// active set is handled (projection instead of generalized Cauchy point)
/// but exhibits the same first-order behaviour on the smooth, low-dimensional
/// QAOA landscapes studied here, so it stands in for SciPy's L-BFGS-B.
///
/// Gradients are forward finite differences (SciPy's default when no
/// Jacobian is passed), so each outer iteration costs `n + O(line search)`
/// function calls — all counted. When the objective supplies an analytic
/// gradient (via [`Optimizer::minimize_objective`] and
/// [`Objective::value_and_grad`]), the finite-difference probes disappear:
/// each outer iteration costs `O(line search)` function calls plus one
/// gradient call, reported separately as
/// [`OptimizeResult::n_grad_calls`].
///
/// # Example
///
/// ```
/// use optimize::{Bounds, Lbfgsb, Optimizer, Options};
/// # fn main() -> Result<(), optimize::OptimizeError> {
/// let f = |x: &[f64]| (x[0] - 0.5_f64).powi(2) + 3.0 * (x[1] + 0.25_f64).powi(2);
/// let bounds = Bounds::uniform(2, -1.0, 1.0)?;
/// let r = Lbfgsb::default().minimize(&f, &[0.9, 0.9], &bounds, &Options::default())?;
/// assert!(r.fx < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lbfgsb {
    /// Number of curvature pairs retained (SciPy default: 10).
    pub memory: usize,
    /// Armijo sufficient-decrease constant.
    pub armijo_c1: f64,
    /// Backtracking factor per line-search step.
    pub backtrack: f64,
    /// Maximum line-search evaluations per outer iteration.
    pub max_line_steps: usize,
}

impl Default for Lbfgsb {
    fn default() -> Self {
        Self {
            memory: 10,
            armijo_c1: 1e-4,
            backtrack: 0.5,
            max_line_steps: 20,
        }
    }
}

/// One (s, y, ρ) curvature pair for the two-loop recursion.
#[derive(Debug, Clone)]
struct Pair {
    s: Vec<f64>,
    y: Vec<f64>,
    rho: f64,
}

/// Two-loop recursion producing `-H·g` (a descent direction).
fn two_loop(grad: &[f64], pairs: &VecDeque<Pair>) -> Vec<f64> {
    let mut q: Vec<f64> = grad.to_vec();
    let mut alphas = Vec::with_capacity(pairs.len());
    for p in pairs.iter().rev() {
        let alpha = p.rho * linalg_dot(&p.s, &q);
        for (qi, yi) in q.iter_mut().zip(&p.y) {
            *qi -= alpha * yi;
        }
        alphas.push(alpha);
    }
    // Initial Hessian scaling γ = sᵀy / yᵀy from the most recent pair.
    if let Some(last) = pairs.back() {
        let gamma = linalg_dot(&last.s, &last.y) / linalg_dot(&last.y, &last.y).max(1e-300);
        for qi in &mut q {
            *qi *= gamma;
        }
    }
    for (p, &alpha) in pairs.iter().zip(alphas.iter().rev()) {
        let beta = p.rho * linalg_dot(&p.y, &q);
        for (qi, si) in q.iter_mut().zip(&p.s) {
            *qi += (alpha - beta) * si;
        }
    }
    for qi in &mut q {
        *qi = -*qi;
    }
    q
}

fn linalg_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Infinity norm of the projected gradient `P(x − g) − x`, the standard
/// bound-constrained stationarity measure.
fn projected_gradient_norm(x: &[f64], grad: &[f64], bounds: &Bounds) -> f64 {
    let stepped: Vec<f64> = x.iter().zip(grad).map(|(&xi, &gi)| xi - gi).collect();
    let projected = bounds.project(&stepped);
    projected
        .iter()
        .zip(x)
        .map(|(p, xi)| (p - xi).abs())
        .fold(0.0_f64, f64::max)
}

impl Optimizer for Lbfgsb {
    fn minimize(
        &self,
        f: &dyn Fn(&[f64]) -> f64,
        x0: &[f64],
        bounds: &Bounds,
        options: &Options,
    ) -> Result<OptimizeResult, OptimizeError> {
        self.minimize_objective(&FnObjective(f), x0, bounds, options)
    }

    fn minimize_objective(
        &self,
        f: &dyn Objective,
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
        let counted = Counted::new(f);
        let mut x = bounds.project(x0);
        let mut fx = counted.eval(&x);
        if !fx.is_finite() {
            return Err(OptimizeError::NonFiniteObjective { value: fx });
        }
        let mut grad = gradient(&counted, &x, fx, bounds, options.fd_step);
        let mut pairs: VecDeque<Pair> = VecDeque::with_capacity(self.memory);

        let mut termination = Termination::MaxIterations;
        let mut iters = 0;

        for iter in 0..options.max_iters {
            iters = iter + 1;
            if projected_gradient_norm(&x, &grad, bounds) <= options.gtol {
                termination = Termination::GtolSatisfied;
                break;
            }
            if options.calls_exhausted(counted.count()) {
                termination = Termination::MaxCalls;
                break;
            }

            let mut direction = two_loop(&grad, &pairs);
            // Safeguard: fall back to steepest descent on a non-descent dir.
            if linalg_dot(&direction, &grad) >= 0.0 {
                direction = grad.iter().map(|g| -g).collect();
                pairs.clear();
            }
            // First iteration has no curvature information: normalize the
            // steepest-descent step so the unit trial stays commensurate
            // with the box (SciPy seeds `H0 = I/‖g‖` the same way).
            if pairs.is_empty() {
                let dnorm = linalg_dot(&direction, &direction).sqrt();
                if dnorm > 1.0 {
                    for di in &mut direction {
                        *di /= dnorm;
                    }
                }
            }

            // Armijo backtracking along the projected path, with greedy
            // doubling when the unit step is accepted immediately (prevents
            // tiny-step creep after an early backtracking collapse).
            let trial_at = |alpha: f64| -> Vec<f64> {
                let raw: Vec<f64> = x
                    .iter()
                    .zip(&direction)
                    .map(|(&xi, &di)| xi + alpha * di)
                    .collect();
                bounds.project(&raw)
            };
            let armijo_ok = |trial: &[f64], ft: f64| -> bool {
                let disp: Vec<f64> = trial.iter().zip(&x).map(|(t, xi)| t - xi).collect();
                ft.is_finite() && ft <= fx + self.armijo_c1 * linalg_dot(&grad, &disp)
            };
            let mut accepted = false;
            let mut x_new = x.clone();
            let mut f_new = fx;
            let mut alpha = 1.0;
            for step in 0..self.max_line_steps {
                let trial = trial_at(alpha);
                if trial.iter().zip(&x).all(|(t, xi)| (t - xi).abs() < 1e-16) {
                    break; // projection annihilated the step
                }
                let ft = counted.eval(&trial);
                if armijo_ok(&trial, ft) {
                    x_new = trial;
                    f_new = ft;
                    accepted = true;
                    if step == 0 {
                        // Expansion phase: keep doubling while it pays off.
                        let mut expand = 2.0_f64;
                        for _ in 0..self.max_line_steps {
                            if options.calls_exhausted(counted.count()) {
                                break;
                            }
                            let wide = trial_at(expand);
                            if wide
                                .iter()
                                .zip(&x_new)
                                .all(|(w, xi)| (w - xi).abs() < 1e-16)
                            {
                                break;
                            }
                            let fw = counted.eval(&wide);
                            if fw.is_finite() && fw < f_new && armijo_ok(&wide, fw) {
                                x_new = wide;
                                f_new = fw;
                                expand *= 2.0;
                            } else {
                                break;
                            }
                        }
                    }
                    break;
                }
                alpha *= self.backtrack;
                if options.calls_exhausted(counted.count()) {
                    break;
                }
            }
            if !accepted {
                termination = Termination::StepSizeZero;
                break;
            }

            let grad_new = gradient(&counted, &x_new, f_new, bounds, options.fd_step);
            // Curvature update with the standard positivity guard.
            let s: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
            let y: Vec<f64> = grad_new.iter().zip(&grad).map(|(a, b)| a - b).collect();
            let sy = linalg_dot(&s, &y);
            if sy > 1e-10 * linalg_dot(&y, &y).sqrt() * linalg_dot(&s, &s).sqrt() {
                if pairs.len() == self.memory {
                    pairs.pop_front();
                }
                pairs.push_back(Pair {
                    s,
                    y,
                    rho: 1.0 / sy,
                });
            }

            let converged = options.f_converged(fx, f_new);
            x = x_new;
            fx = f_new;
            grad = grad_new;
            if converged {
                termination = Termination::FtolSatisfied;
                break;
            }
        }

        Ok(OptimizeResult {
            x,
            fx,
            n_calls: counted.count(),
            n_grad_calls: counted.njev(),
            n_iters: iters,
            termination,
        })
    }

    fn name(&self) -> &'static str {
        "L-BFGS-B"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    #[test]
    fn minimizes_quadratic_fast() {
        let b = Bounds::uniform(4, -5.0, 5.0).unwrap();
        let r = Lbfgsb::default()
            .minimize(&sphere, &[3.0, -2.0, 1.0, 4.0], &b, &Options::default())
            .unwrap();
        assert!(r.fx < 1e-9, "{r}");
        assert!(r.converged());
        assert!(r.n_iters < 50);
    }

    #[test]
    fn rosenbrock_converges() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let b = Bounds::uniform(2, -5.0, 5.0).unwrap();
        let r = Lbfgsb::default()
            .minimize(
                &f,
                &[-1.2, 1.0],
                &b,
                &Options::default().with_max_iters(500),
            )
            .unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-3, "{r}");
        assert!((r.x[1] - 1.0).abs() < 1e-3, "{r}");
    }

    #[test]
    fn active_bound_identified() {
        // Minimum at x = 2 but box caps at 1: solution must sit on the bound.
        let f = |x: &[f64]| (x[0] - 2.0) * (x[0] - 2.0);
        let b = Bounds::uniform(1, 0.0, 1.0).unwrap();
        let r = Lbfgsb::default()
            .minimize(&f, &[0.2], &b, &Options::default())
            .unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-8, "{r}");
        assert!(b.contains(&r.x));
    }

    #[test]
    fn counts_include_gradient_probes() {
        let b = Bounds::uniform(3, -1.0, 1.0).unwrap();
        let r = Lbfgsb::default()
            .minimize(&sphere, &[0.5, 0.5, 0.5], &b, &Options::default())
            .unwrap();
        // At minimum: 1 initial + 3 gradient probes per iteration.
        assert!(r.n_calls > 3 * r.n_iters.min(2));
    }

    #[test]
    fn analytic_gradient_cuts_nfev() {
        struct Sphere;
        impl Objective for Sphere {
            fn value(&self, x: &[f64]) -> f64 {
                x.iter().map(|v| v * v).sum()
            }
            fn value_and_grad(&self, x: &[f64], grad: &mut [f64]) -> Option<f64> {
                for (g, v) in grad.iter_mut().zip(x) {
                    *g = 2.0 * v;
                }
                Some(self.value(x))
            }
        }
        let b = Bounds::uniform(4, -5.0, 5.0).unwrap();
        let x0 = [3.0, -2.0, 1.0, 4.0];
        let opts = Options::default();
        let fd = Lbfgsb::default().minimize(&sphere, &x0, &b, &opts).unwrap();
        let an = Lbfgsb::default()
            .minimize_objective(&Sphere, &x0, &b, &opts)
            .unwrap();
        assert!(an.fx < 1e-9, "{an}");
        assert!((an.fx - fd.fx).abs() < 1e-8);
        assert!(an.n_grad_calls > 0);
        assert_eq!(fd.n_grad_calls, 0);
        // No finite-difference probes: strictly fewer objective evaluations.
        assert!(an.n_calls < fd.n_calls, "{} vs {}", an.n_calls, fd.n_calls);
    }

    #[test]
    fn trapped_objective_terminates() {
        // Constant function: gradient is zero immediately.
        let f = |_: &[f64]| 1.0;
        let b = Bounds::uniform(2, 0.0, 1.0).unwrap();
        let r = Lbfgsb::default()
            .minimize(&f, &[0.5, 0.5], &b, &Options::default())
            .unwrap();
        assert_eq!(r.termination, Termination::GtolSatisfied);
        assert_eq!(r.fx, 1.0);
    }

    #[test]
    fn call_cap_enforced() {
        let b = Bounds::uniform(6, -5.0, 5.0).unwrap();
        let opts = Options::default()
            .with_max_calls(20)
            .with_gtol(0.0)
            .with_ftol(0.0);
        let f = |x: &[f64]| sphere(x) + (x[0] * 10.0).sin() * 0.01;
        let r = Lbfgsb::default()
            .minimize(&f, &[4.0; 6], &b, &opts)
            .unwrap();
        // Cap checked per outer iteration; slack of one iteration's calls.
        assert!(r.n_calls <= 20 + 6 + Lbfgsb::default().max_line_steps + 6);
    }

    #[test]
    fn error_paths() {
        let b = Bounds::uniform(2, 0.0, 1.0).unwrap();
        assert!(Lbfgsb::default()
            .minimize(&sphere, &[0.5], &b, &Options::default())
            .is_err());
        let nan = |_: &[f64]| f64::NAN;
        assert!(matches!(
            Lbfgsb::default().minimize(&nan, &[0.5, 0.5], &b, &Options::default()),
            Err(OptimizeError::NonFiniteObjective { .. })
        ));
    }

    #[test]
    fn start_outside_box_is_projected() {
        let b = Bounds::uniform(2, 0.0, 1.0).unwrap();
        let r = Lbfgsb::default()
            .minimize(&sphere, &[5.0, -3.0], &b, &Options::default())
            .unwrap();
        assert!(b.contains(&r.x));
        assert!(r.fx < 1e-9);
    }
}
