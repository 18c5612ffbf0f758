use linalg::Matrix;

use crate::convert::count_f64;
use crate::params::ParamReader;
use crate::{MlError, ModelParams, RbfKernel, Regressor, StandardScaler};

/// ε-support-vector regression — the paper's `RSVM` baseline.
///
/// Solves the standard SVR dual
///
/// ```text
/// max_β  −½ βᵀKβ + yᵀβ − ε Σ|βᵢ|    s.t.  Σβᵢ = 0,  |βᵢ| ≤ C
/// ```
///
/// with an SMO-style pairwise coordinate ascent: each update picks a pair
/// `(i, j)`, moves `βᵢ += δ, βⱼ −= δ` (preserving the equality constraint)
/// to the exact maximizer of the piecewise-quadratic restriction, and keeps
/// a cached `Kβ` for O(n) updates. Inputs are standardized and the kernel is
/// RBF, mirroring MATLAB `fitrsvm(..., 'Standardize', true,
/// 'KernelFunction', 'gaussian')`. Defaults for `C` and `ε` are scaled from
/// the target spread, as MATLAB does (`iqr(Y)/13.49`-style heuristics).
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use ml::{Regressor, SvrModel};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.3]).collect();
/// let x = Matrix::from_rows(&xs)?;
/// let y: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).sin()).collect();
/// let mut svr = SvrModel::default();
/// svr.fit(&x, &y)?;
/// assert!((svr.predict(&[1.5])? - 1.5_f64.sin()).abs() < 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SvrModel {
    /// RBF length scale on standardized features.
    pub length_scale: f64,
    /// Maximum optimization epochs (full pair sweeps).
    pub max_epochs: usize,
    /// Stop when the best dual improvement in an epoch drops below this.
    pub tol: f64,
    state: Option<Fitted>,
}

#[derive(Debug, Clone)]
struct Fitted {
    scaler: StandardScaler,
    kernel: RbfKernel,
    support_x: Matrix,
    support_beta: Vec<f64>,
    bias: f64,
}

impl Default for SvrModel {
    fn default() -> Self {
        Self {
            length_scale: 1.0,
            max_epochs: 60,
            tol: 1e-8,
            state: None,
        }
    }
}

impl SvrModel {
    /// Rebuilds a fitted model from exported parameters.
    ///
    /// Layout: ints = `[n_support, cols]`; floats = `[length_scale,
    /// signal_variance, bias]` followed by the scaler means (`cols`), scaler
    /// scales (`cols`), standardized support vectors in row-major order
    /// (`n_support·cols`), and the dual coefficients β (`n_support`). The
    /// training-time `max_epochs`/`tol` are fit-time configuration and are
    /// restored to defaults.
    pub(crate) fn from_params(params: &ModelParams) -> Result<Self, MlError> {
        let mut r = ParamReader::new(params);
        let n_support = r.count()?;
        let cols = r.count()?;
        let length_scale = r.float()?;
        let signal_variance = r.float()?;
        let bias = r.float()?;
        let kernel = RbfKernel::from_parts(length_scale, signal_variance)?;
        let scaler =
            StandardScaler::from_parts(r.floats(cols)?.to_vec(), r.floats(cols)?.to_vec())?;
        let cells = n_support.checked_mul(cols).ok_or(MlError::Numerical {
            context: "model params: SVR shape overflow",
        })?;
        let xdata = r.floats(cells)?;
        let support_x = Matrix::from_fn(n_support, cols, |i, j| xdata[i * cols + j]);
        let support_beta = r.floats(n_support)?.to_vec();
        r.finish()?;
        Ok(Self {
            length_scale,
            state: Some(Fitted {
                scaler,
                kernel,
                support_x,
                support_beta,
                bias,
            }),
            ..Self::default()
        })
    }
}

/// Exact maximizer of the pairwise dual restriction.
///
/// `r` is the smooth-part derivative at δ = 0, `eta` the curvature,
/// `(bi, bj)` the current pair values, `(lo, hi)` the feasible δ interval.
/// Returns `(δ, ΔW)` for the best candidate.
fn best_pair_step(r: f64, eta: f64, bi: f64, bj: f64, eps: f64, lo: f64, hi: f64) -> (f64, f64) {
    let delta_w = |d: f64| -> f64 {
        d * r
            - 0.5 * d * d * eta
            - eps * ((bi + d).abs() - bi.abs())
            - eps * ((bj - d).abs() - bj.abs())
    };
    let mut candidates = [0.0_f64; 9];
    let mut n = 0;
    // Stationary points inside each sign region of (βi + δ, βj − δ).
    if eta > 1e-300 {
        for si in [-1.0, 1.0] {
            for sj in [-1.0, 1.0] {
                candidates[n] = (r - eps * (si - sj)) / eta;
                n += 1;
            }
        }
    }
    // Kinks where a coefficient crosses zero, plus the interval ends.
    candidates[n] = -bi;
    candidates[n + 1] = bj;
    candidates[n + 2] = lo;
    candidates[n + 3] = hi;
    n += 4;

    let mut best = (0.0, 0.0);
    for &cand in &candidates[..n] {
        let d = cand.clamp(lo, hi);
        let w = delta_w(d);
        if w > best.1 {
            best = (d, w);
        }
    }
    best
}

impl Regressor for SvrModel {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch {
                expected: x.rows(),
                actual: y.len(),
                what: "samples",
            });
        }
        let n = x.rows();
        if n == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x)?;
        let kernel = RbfKernel::new(self.length_scale, 1.0)?;
        let gram = kernel.gram(&xs);

        // MATLAB-style spread heuristics for C and ε.
        let spread = crate::metrics::std_dev(y).max(1e-6);
        let c = 10.0 * spread.max(0.1);
        let eps = spread / 10.0;

        let mut beta = vec![0.0_f64; n];
        let mut k_beta = vec![0.0_f64; n]; // cached K β

        for _epoch in 0..self.max_epochs {
            let mut best_epoch_gain = 0.0_f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    let eta = gram.get(i, i) + gram.get(j, j) - 2.0 * gram.get(i, j);
                    if eta <= 1e-12 {
                        continue;
                    }
                    let r = (y[i] - k_beta[i]) - (y[j] - k_beta[j]);
                    let lo = (-c - beta[i]).max(beta[j] - c);
                    let hi = (c - beta[i]).min(beta[j] + c);
                    if lo >= hi {
                        continue;
                    }
                    let (delta, gain) = best_pair_step(r, eta, beta[i], beta[j], eps, lo, hi);
                    if gain <= self.tol || delta == 0.0 {
                        continue;
                    }
                    beta[i] += delta;
                    beta[j] -= delta;
                    for (t, kb) in k_beta.iter_mut().enumerate() {
                        *kb += delta * (gram.get(t, i) - gram.get(t, j));
                    }
                    best_epoch_gain = best_epoch_gain.max(gain);
                }
            }
            if best_epoch_gain <= self.tol {
                break;
            }
        }

        // Bias from free support vectors' KKT conditions.
        let mut bias_sum = 0.0;
        let mut bias_count = 0usize;
        for i in 0..n {
            let b_abs = beta[i].abs();
            if b_abs > 1e-8 && b_abs < c - 1e-8 {
                bias_sum += y[i] - k_beta[i] - eps * beta[i].signum();
                bias_count += 1;
            }
        }
        let bias = if bias_count > 0 {
            bias_sum / count_f64(bias_count)
        } else {
            // No free SVs (e.g. a constant target inside the ε-tube):
            // center predictions on the mean residual.
            let resid: f64 = (0..n).map(|i| y[i] - k_beta[i]).sum();
            resid / count_f64(n)
        };

        // Keep only the support vectors for prediction.
        let support: Vec<usize> = (0..n).filter(|&i| beta[i].abs() > 1e-10).collect();
        let support_x = if support.is_empty() {
            Matrix::zeros(0, xs.cols())
        } else {
            Matrix::from_fn(support.len(), xs.cols(), |r, c2| xs.get(support[r], c2))
        };
        let support_beta: Vec<f64> = support.iter().map(|&i| beta[i]).collect();

        self.state = Some(Fitted {
            scaler,
            kernel,
            support_x,
            support_beta,
            bias,
        });
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        let st = self.state.as_ref().ok_or(MlError::NotFitted)?;
        let z = st.scaler.transform_row(x)?;
        let mut out = st.bias;
        for (r, &b) in st.support_beta.iter().enumerate() {
            out += b * st.kernel.eval(st.support_x.row(r), &z);
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "RSVM"
    }

    fn to_params(&self) -> Result<ModelParams, MlError> {
        let st = self.state.as_ref().ok_or(MlError::NotFitted)?;
        let mut p = ModelParams::new();
        p.push_count(st.support_x.rows());
        p.push_count(st.support_x.cols());
        p.floats.push(st.kernel.length_scale());
        p.floats.push(st.kernel.signal_variance());
        p.floats.push(st.bias);
        p.floats.extend_from_slice(st.scaler.means());
        p.floats.extend_from_slice(st.scaler.scales());
        for i in 0..st.support_x.rows() {
            p.floats.extend_from_slice(st.support_x.row(i));
        }
        p.floats.extend_from_slice(&st.support_beta);
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_linear_trend() {
        let rows: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..15).map(|i| 2.0 * i as f64 + 1.0).collect();
        let mut svr = SvrModel::default();
        svr.fit(&x, &y).unwrap();
        for (i, &target) in y.iter().enumerate() {
            let p = svr.predict(&[i as f64]).unwrap();
            assert!((p - target).abs() < 2.0, "at {i}: {p} vs {target}");
        }
        assert!(!svr.state.as_ref().unwrap().support_beta.is_empty());
    }

    #[test]
    fn constant_target_within_tube() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]).unwrap();
        let y = [5.0; 4];
        let mut svr = SvrModel::default();
        svr.fit(&x, &y).unwrap();
        // All targets inside the tube: β = 0, bias carries the prediction.
        assert!(svr.state.as_ref().unwrap().support_beta.is_empty());
        assert!((svr.predict(&[1.5]).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn dual_feasibility_invariants() {
        // After fitting, Σβ = 0 and |β| ≤ C must hold.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i as f64 * 0.7).sin(), i as f64])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..12).map(|i| (i as f64 * 0.5).cos()).collect();
        // The box constraint `fit` derives from the target spread.
        let c = 10.0 * crate::metrics::std_dev(&y).max(0.1);
        let mut svr = SvrModel::default();
        svr.fit(&x, &y).unwrap();
        let st = svr.state.as_ref().unwrap();
        let sum: f64 = st.support_beta.iter().sum();
        assert!(sum.abs() < 1e-9, "sum β = {sum}");
        assert!(st.support_beta.iter().all(|b| b.abs() <= c + 1e-9));
    }

    #[test]
    fn error_paths() {
        let svr = SvrModel::default();
        assert!(matches!(svr.predict(&[0.0]), Err(MlError::NotFitted)));
        let mut svr = SvrModel::default();
        let x = Matrix::from_rows(&[&[1.0]]).unwrap();
        assert!(svr.fit(&x, &[1.0, 2.0]).is_err());
        svr.fit(&x, &[1.0]).unwrap();
        assert!(svr.predict(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn pair_step_zero_when_optimal() {
        // r = 0, both at zero: no move should be proposed.
        let (d, w) = best_pair_step(0.0, 2.0, 0.0, 0.0, 0.1, -1.0, 1.0);
        assert_eq!(d, 0.0);
        assert_eq!(w, 0.0);
    }

    #[test]
    fn pair_step_improves_dual() {
        // Strong residual difference drives a positive-gain step.
        let (d, w) = best_pair_step(3.0, 2.0, 0.0, 0.0, 0.1, -1.0, 1.0);
        assert!(d > 0.0);
        assert!(w > 0.0);
    }
}
