use linalg::{Cholesky, Matrix};

use crate::convert::count_f64;
use crate::params::ParamReader;
use crate::{MlError, ModelParams, RbfKernel, Regressor, StandardScaler};

/// The hyperparameter grid [`GprModel::fit`](Regressor::fit) searches, in
/// loop order: length scales (on standardized features), signal standard
/// deviations and noise standard deviations.
const GRID: ([f64; 6], [f64; 3], [f64; 5]) = (
    [0.3, 0.5, 1.0, 2.0, 4.0, 8.0],
    [0.5, 1.0, 2.0],
    [1e-4, 1e-3, 1e-2, 5e-2, 1e-1],
);

/// Gaussian process regression with an RBF kernel — the paper's best model.
///
/// Mirrors MATLAB `fitrgp` defaults: squared-exponential kernel,
/// standardized inputs, constant (mean-of-targets) prior mean, and
/// hyperparameters chosen by maximizing the log marginal likelihood. The
/// likelihood search here is a deterministic grid over length scale, signal
/// standard deviation and noise standard deviation — ample for the paper's
/// 3-feature, 66-sample training sets and fully reproducible.
///
/// Fitting cost is `O(g · n³)` for `g` grid points. A prediction is the
/// posterior mean `ȳ + s · k*ᵀα`: `n` kernel evaluations against the stored
/// training rows, `O(n · d)` for `d` features.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use ml::{GprModel, Regressor};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Noise-free sine samples: GPR interpolates them nearly exactly.
/// let xs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 * 0.5]).collect();
/// let x = Matrix::from_rows(&xs)?;
/// let y: Vec<f64> = (0..9).map(|i| (i as f64 * 0.5).sin()).collect();
/// let mut gpr = GprModel::default();
/// gpr.fit(&x, &y)?;
/// assert!((gpr.predict(&[1.0])? - 1.0_f64.sin()).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GprModel {
    state: Option<Fitted>,
}

#[derive(Debug, Clone)]
struct Fitted {
    scaler: StandardScaler,
    x_train: Matrix,
    kernel: RbfKernel,
    /// The chosen noise variance; prediction does not read it, but the
    /// exported parameters carry it.
    noise_variance: f64,
    alpha: Vec<f64>,
    y_mean: f64,
    /// Target standard deviation: targets are standardized before fitting
    /// (as MATLAB `fitrgp` effectively does through its kernel-amplitude
    /// optimization) so the hyperparameter grid is scale-free.
    y_scale: f64,
}

impl GprModel {
    /// Rebuilds a fitted model from exported parameters.
    ///
    /// Layout: ints = `[rows, cols]`; floats = `[length_scale,
    /// signal_variance, noise_variance, y_mean, y_scale]` followed by the
    /// scaler means (`cols`), scaler scales (`cols`), standardized training
    /// rows in row-major order (`rows·cols`), and the dual weights α
    /// (`rows`). Prediction reads only the kernel, the training rows, α and
    /// the target shift and scale, all stored bit-exactly, so predictions
    /// are bit-identical to the exporting model's. The noise variance must
    /// be finite and non-negative, as every fitted one is.
    pub(crate) fn from_params(params: &ModelParams) -> Result<Self, MlError> {
        let mut r = ParamReader::new(params);
        let rows = r.count()?;
        let cols = r.count()?;
        if rows == 0 {
            return Err(MlError::Numerical {
                context: "model params: empty GPR training set",
            });
        }
        let length_scale = r.float()?;
        let signal_variance = r.float()?;
        let noise_variance = r.float()?;
        if !(noise_variance.is_finite() && noise_variance >= 0.0) {
            return Err(MlError::InvalidHyperparameter {
                name: "noise_variance",
                value: noise_variance,
            });
        }
        let y_mean = r.float()?;
        let y_scale = r.float()?;
        let kernel = RbfKernel::from_parts(length_scale, signal_variance)?;
        let scaler =
            StandardScaler::from_parts(r.floats(cols)?.to_vec(), r.floats(cols)?.to_vec())?;
        let cells = rows.checked_mul(cols).ok_or(MlError::Numerical {
            context: "model params: GPR shape overflow",
        })?;
        let xdata = r.floats(cells)?;
        let x_train = Matrix::from_fn(rows, cols, |i, j| xdata[i * cols + j]);
        let alpha = r.floats(rows)?.to_vec();
        r.finish()?;
        Ok(Self {
            state: Some(Fitted {
                scaler,
                x_train,
                kernel,
                noise_variance,
                alpha,
                y_mean,
                y_scale,
            }),
        })
    }
}

/// Log marginal likelihood of centered targets under the factored
/// covariance `chol` with dual weights `alpha` (the quantity the grid
/// search maximizes).
fn lml(chol: &Cholesky, alpha: &[f64], y_centered: &[f64]) -> f64 {
    let n = count_f64(y_centered.len());
    let fit_term: f64 = y_centered.iter().zip(alpha).map(|(y, a)| y * a).sum();
    -0.5 * fit_term - 0.5 * chol.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
}

impl Regressor for GprModel {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch {
                expected: x.rows(),
                actual: y.len(),
                what: "samples",
            });
        }
        if x.rows() == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x)?;
        let y_mean = y.iter().sum::<f64>() / count_f64(y.len());
        // Standardize targets so the hyperparameter grid (built for
        // unit-variance responses) transfers across target scales.
        let y_std = crate::metrics::std_dev(y);
        let y_scale = if y_std > 1e-12 { y_std } else { 1.0 };
        let centered: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_scale).collect();

        let (length_scales, signal_stds, noise_stds) = GRID;
        let mut best: Option<(f64, Fitted)> = None;
        for ls in length_scales {
            for sf in signal_stds {
                let kernel = RbfKernel::new(ls, sf)?;
                let gram = kernel.gram(&xs);
                for sn in noise_stds {
                    let mut k = gram.clone();
                    k.add_diagonal(sn * sn + 1e-10);
                    let Ok(chol) = k.cholesky() else { continue };
                    let Ok(alpha) = chol.solve(&centered) else {
                        continue;
                    };
                    let score = lml(&chol, &alpha, &centered);
                    if !score.is_finite() {
                        continue;
                    }
                    if best.as_ref().is_none_or(|(s, _)| score > *s) {
                        best = Some((
                            score,
                            Fitted {
                                scaler: scaler.clone(),
                                x_train: xs.clone(),
                                kernel,
                                noise_variance: sn * sn,
                                alpha,
                                y_mean,
                                y_scale,
                            },
                        ));
                    }
                }
            }
        }
        match best {
            Some((_, fitted)) => {
                self.state = Some(fitted);
                Ok(())
            }
            None => Err(MlError::Numerical {
                context: "gpr likelihood grid (no positive-definite candidate)",
            }),
        }
    }

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        let st = self.state.as_ref().ok_or(MlError::NotFitted)?;
        let z = st.scaler.transform_row(x)?;
        let k_star = st.kernel.cross(&st.x_train, &z);
        let standardized_mean: f64 = k_star.iter().zip(&st.alpha).map(|(k, a)| k * a).sum();
        Ok(st.y_mean + st.y_scale * standardized_mean)
    }

    fn name(&self) -> &'static str {
        "GPR"
    }

    fn to_params(&self) -> Result<ModelParams, MlError> {
        let st = self.state.as_ref().ok_or(MlError::NotFitted)?;
        let mut p = ModelParams::new();
        p.push_count(st.x_train.rows());
        p.push_count(st.x_train.cols());
        p.floats.push(st.kernel.length_scale());
        p.floats.push(st.kernel.signal_variance());
        p.floats.push(st.noise_variance);
        p.floats.push(st.y_mean);
        p.floats.push(st.y_scale);
        p.floats.extend_from_slice(st.scaler.means());
        p.floats.extend_from_slice(st.scaler.scales());
        for i in 0..st.x_train.rows() {
            p.floats.extend_from_slice(st.x_train.row(i));
        }
        p.floats.extend_from_slice(&st.alpha);
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.4]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        (x, y)
    }

    #[test]
    fn interpolates_noise_free_data() {
        let (x, y) = sine_data(12);
        let mut gpr = GprModel::default();
        gpr.fit(&x, &y).unwrap();
        for (i, yi) in y.iter().enumerate() {
            let p = gpr.predict(x.row(i)).unwrap();
            assert!((p - yi).abs() < 0.02, "at {i}: {p} vs {yi}");
        }
    }

    #[test]
    fn lml_is_finite_and_better_for_right_model() {
        // Targets are unit-scale sines: a unit length scale explains them
        // far better than a length scale 100× the data range.
        let (x, y) = sine_data(10);
        let score = |length_scale: f64, signal_std: f64, noise_std: f64| {
            let mut k = RbfKernel::new(length_scale, signal_std).unwrap().gram(&x);
            k.add_diagonal(noise_std * noise_std + 1e-10);
            let chol = k.cholesky().unwrap();
            let alpha = chol.solve(&y).unwrap();
            lml(&chol, &alpha, &y)
        };
        let l_good = score(1.0, 1.0, 1e-2);
        let l_bad = score(100.0, 0.5, 1e-4);
        assert!(l_good.is_finite() && l_bad.is_finite());
        assert!(l_good > l_bad);
    }

    #[test]
    fn error_paths() {
        let gpr = GprModel::default();
        assert!(matches!(gpr.predict(&[1.0]), Err(MlError::NotFitted)));
        let mut gpr = GprModel::default();
        let x = Matrix::from_rows(&[&[1.0]]).unwrap();
        assert!(gpr.fit(&x, &[1.0, 2.0]).is_err());
        gpr.fit(&x, &[1.0]).unwrap();
        assert!(gpr.predict(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn multifeature_fit() {
        // f(a, b) = a + 2b on a small grid.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                rows.push(vec![a as f64, b as f64]);
                y.push(a as f64 + 2.0 * b as f64);
            }
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut gpr = GprModel::default();
        gpr.fit(&x, &y).unwrap();
        let p = gpr.predict(&[1.5, 2.5]).unwrap();
        assert!((p - 6.5).abs() < 0.3, "{p}");
    }
}
