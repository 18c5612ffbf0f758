use linalg::Matrix;

use crate::params::ParamReader;
use crate::{MlError, ModelParams, Regressor};

/// Ordinary least squares with an intercept — the paper's `LM` baseline.
///
/// Solves `min ‖[1 X] β − y‖₂` through the Householder QR of the augmented
/// design matrix (numerically safer than the normal equations). When the
/// design matrix is rank-deficient it falls back to a tiny ridge penalty so
/// degenerate datasets still produce a usable fit.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use ml::{LinearModel, Regressor};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Plane y = 1 + 2a - b through six exact samples.
/// let x = Matrix::from_rows(&[
///     &[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0],
///     &[1.0, 1.0], &[2.0, 0.0], &[0.0, 2.0],
/// ])?;
/// let y: Vec<f64> = (0..6).map(|i| 1.0 + 2.0 * x.get(i, 0) - x.get(i, 1)).collect();
/// let mut lm = LinearModel::new();
/// lm.fit(&x, &y)?;
/// assert!((lm.predict(&[3.0, 1.0])? - 6.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinearModel {
    /// `[intercept, coef_1, …, coef_d]` once fitted.
    coefficients: Option<Vec<f64>>,
}

impl LinearModel {
    /// Creates an unfitted model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fitted coefficients `[intercept, coef…]`, if any.
    #[must_use]
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coefficients.as_deref()
    }

    /// Rebuilds a fitted model from exported parameters.
    ///
    /// Layout: ints = `[len]`, floats = `[intercept, coef…]` (`len` values).
    pub(crate) fn from_params(params: &ModelParams) -> Result<Self, MlError> {
        let mut r = ParamReader::new(params);
        let len = r.count()?;
        if len == 0 {
            return Err(MlError::Numerical {
                context: "model params: empty coefficient vector",
            });
        }
        let beta = r.floats(len)?.to_vec();
        r.finish()?;
        Ok(Self {
            coefficients: Some(beta),
        })
    }

    fn design(x: &Matrix) -> Matrix {
        Matrix::from_fn(x.rows(), x.cols() + 1, |i, j| {
            if j == 0 {
                1.0
            } else {
                x.get(i, j - 1)
            }
        })
    }
}

impl Regressor for LinearModel {
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
        let a = Self::design(x);
        // QR least squares; under-determined or rank-deficient systems fall
        // back to ridge-regularized normal equations.
        let solved = if a.rows() >= a.cols() {
            a.qr().ok().and_then(|qr| qr.solve_least_squares(y).ok())
        } else {
            None
        };
        let beta = match solved {
            Some(b) => b,
            None => {
                let mut gram = a.gram();
                gram.add_diagonal(1e-8);
                let rhs = a.matvec_t(y)?;
                gram.cholesky()?.solve(&rhs)?
            }
        };
        self.coefficients = Some(beta);
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        let beta = self.coefficients.as_ref().ok_or(MlError::NotFitted)?;
        if x.len() + 1 != beta.len() {
            return Err(MlError::ShapeMismatch {
                expected: beta.len() - 1,
                actual: x.len(),
                what: "features",
            });
        }
        Ok(beta[0]
            + x.iter()
                .zip(&beta[1..])
                .map(|(xi, bi)| xi * bi)
                .sum::<f64>())
    }

    fn name(&self) -> &'static str {
        "LM"
    }

    fn to_params(&self) -> Result<ModelParams, MlError> {
        let beta = self.coefficients.as_ref().ok_or(MlError::NotFitted)?;
        let mut p = ModelParams::new();
        p.push_count(beta.len());
        p.floats.extend_from_slice(beta);
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_planted_line() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]).unwrap();
        let y = [5.0, 7.0, 9.0, 11.0]; // y = 5 + 2x
        let mut lm = LinearModel::new();
        lm.fit(&x, &y).unwrap();
        let c = lm.coefficients().unwrap();
        assert!((c[0] - 5.0).abs() < 1e-10);
        assert!((c[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn least_squares_residual_orthogonality() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]).unwrap();
        let y = [0.1, 0.9, 2.2, 2.8]; // noisy line
        let mut lm = LinearModel::new();
        lm.fit(&x, &y).unwrap();
        let preds = lm.predict_batch(&x).unwrap();
        // Residuals sum to zero (intercept column orthogonality).
        let resid_sum: f64 = y.iter().zip(&preds).map(|(t, p)| t - p).sum();
        assert!(resid_sum.abs() < 1e-10);
    }

    #[test]
    fn underdetermined_falls_back_to_ridge() {
        // 2 samples, 3 features: rank-deficient design.
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]]).unwrap();
        let y = [1.0, 2.0];
        let mut lm = LinearModel::new();
        lm.fit(&x, &y).unwrap();
        // In-sample predictions still close.
        let p = lm.predict_batch(&x).unwrap();
        assert!((p[0] - 1.0).abs() < 1e-3);
        assert!((p[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn error_paths() {
        let mut lm = LinearModel::new();
        assert!(matches!(lm.predict(&[1.0]), Err(MlError::NotFitted)));
        let x = Matrix::from_rows(&[&[1.0]]).unwrap();
        assert!(matches!(
            lm.fit(&x, &[1.0, 2.0]),
            Err(MlError::ShapeMismatch { .. })
        ));
        lm.fit(&x, &[1.0]).unwrap();
        assert!(matches!(
            lm.predict(&[1.0, 2.0]),
            Err(MlError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn constant_target() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let mut lm = LinearModel::new();
        lm.fit(&x, &[4.0, 4.0, 4.0]).unwrap();
        assert!((lm.predict(&[10.0]).unwrap() - 4.0).abs() < 1e-9);
    }
}
