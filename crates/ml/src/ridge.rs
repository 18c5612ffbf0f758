use linalg::{Cholesky, Matrix};

use crate::convert::count_f64;
use crate::params::ParamReader;
use crate::{MlError, ModelParams, Regressor};

/// Ridge (Tikhonov-regularized least-squares) regression.
///
/// An extension beyond the paper's four models: the paper's linear model
/// (`fitlm`) is unregularized OLS, which degrades when the predictors are
/// strongly collinear — and Fig. 5 shows `γ₁OPT(p=1)` and `β₁OPT(p=1)`
/// correlate at R ≈ 0.92, exactly the regime where a ridge penalty helps.
/// The `model_compare` binary reports it alongside the paper's models.
///
/// Features and targets are centered internally, so the penalty does not
/// shrink the intercept. The normal equations
/// `(Xᶜᵀ Xᶜ + λ n I) w = Xᶜᵀ yᶜ` are solved by Cholesky factorization.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use ml::{Regressor, RidgeModel};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Near-duplicate predictors: OLS is ill-posed, ridge is stable.
/// let x = Matrix::from_rows(&[
///     &[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0], &[4.0, 4.0 + 1e-9],
/// ])?;
/// let y = [2.0, 4.0, 6.0, 8.0];
/// let mut model = RidgeModel::new(1e-3);
/// model.fit(&x, &y)?;
/// let pred = model.predict(&[5.0, 5.0])?;
/// assert!((pred - 10.0).abs() < 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeModel {
    /// Regularization strength λ ≥ 0 (λ = 0 recovers OLS on full-rank data).
    pub lambda: f64,
    weights: Option<Vec<f64>>,
    intercept: f64,
    x_mean: Vec<f64>,
}

impl RidgeModel {
    /// Creates an unfitted model with regularization strength `lambda`.
    #[must_use]
    pub fn new(lambda: f64) -> Self {
        Self {
            lambda,
            weights: None,
            intercept: 0.0,
            x_mean: Vec::new(),
        }
    }

    /// Fitted coefficients (one per feature), or `None` before `fit`.
    #[must_use]
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Fitted intercept; meaningful only after `fit`.
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Rebuilds a fitted model from exported parameters.
    ///
    /// Layout: ints = `[n_weights]`, floats = `[lambda, intercept,
    /// weight…]`. The feature means are a fit-time intermediate and are not
    /// persisted; prediction only needs the weights and intercept.
    pub(crate) fn from_params(params: &ModelParams) -> Result<Self, MlError> {
        let mut r = ParamReader::new(params);
        let n_weights = r.count()?;
        let lambda = r.float()?;
        let intercept = r.float()?;
        let weights = r.floats(n_weights)?.to_vec();
        r.finish()?;
        Ok(Self {
            lambda,
            weights: Some(weights),
            intercept,
            x_mean: Vec::new(),
        })
    }
}

impl Default for RidgeModel {
    fn default() -> Self {
        Self::new(1e-4)
    }
}

impl Regressor for RidgeModel {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        if x.rows() == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch {
                expected: x.rows(),
                actual: y.len(),
                what: "samples",
            });
        }
        if self.lambda < 0.0 || !self.lambda.is_finite() {
            return Err(MlError::InvalidHyperparameter {
                name: "lambda",
                value: self.lambda,
            });
        }
        let n = x.rows();
        let d = x.cols();

        let mut x_mean = vec![0.0; d];
        for i in 0..n {
            for (j, m) in x_mean.iter_mut().enumerate() {
                *m += x.get(i, j);
            }
        }
        for m in &mut x_mean {
            *m /= count_f64(n);
        }
        let y_mean = y.iter().sum::<f64>() / count_f64(n);

        // Centered Gram matrix Xᶜᵀ Xᶜ + λ n I and moment vector Xᶜᵀ yᶜ.
        let mut gram = Matrix::zeros(d, d);
        let mut moment = vec![0.0; d];
        for (i, &yi) in y.iter().enumerate() {
            let row = x.row(i);
            let yc = yi - y_mean;
            for a in 0..d {
                let xa = row[a] - x_mean[a];
                moment[a] += xa * yc;
                for b in a..d {
                    let xb = row[b] - x_mean[b];
                    let v = gram.get(a, b) + xa * xb;
                    gram.set(a, b, v);
                }
            }
        }
        for a in 0..d {
            for b in 0..a {
                let v = gram.get(b, a);
                gram.set(a, b, v);
            }
        }
        gram.add_diagonal(self.lambda * count_f64(n) + 1e-12);

        let chol = Cholesky::new(&gram).map_err(|_| MlError::Numerical {
            context: "ridge normal equations",
        })?;
        let w = chol.solve(&moment).map_err(|_| MlError::Numerical {
            context: "ridge solve",
        })?;

        self.intercept = y_mean - w.iter().zip(&x_mean).map(|(wi, mi)| wi * mi).sum::<f64>();
        self.x_mean = x_mean;
        self.weights = Some(w);
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        if x.len() != w.len() {
            return Err(MlError::ShapeMismatch {
                expected: w.len(),
                actual: x.len(),
                what: "features",
            });
        }
        Ok(self.intercept + w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>())
    }

    fn name(&self) -> &'static str {
        "Ridge"
    }

    fn to_params(&self) -> Result<ModelParams, MlError> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        let mut p = ModelParams::new();
        p.push_count(w.len());
        p.floats.push(self.lambda);
        p.floats.push(self.intercept);
        p.floats.extend_from_slice(w);
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_line_with_tiny_lambda() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]).unwrap();
        let y = [1.0, 3.0, 5.0, 7.0];
        let mut m = RidgeModel::new(1e-10);
        m.fit(&x, &y).unwrap();
        assert!((m.predict(&[4.0]).unwrap() - 9.0).abs() < 1e-6);
        assert!((m.coefficients().unwrap()[0] - 2.0).abs() < 1e-6);
        assert!((m.intercept() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn shrinks_with_large_lambda() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]).unwrap();
        let y = [1.0, 3.0, 5.0, 7.0];
        let mut weak = RidgeModel::new(1e-10);
        let mut strong = RidgeModel::new(100.0);
        weak.fit(&x, &y).unwrap();
        strong.fit(&x, &y).unwrap();
        let w_weak = weak.coefficients().unwrap()[0].abs();
        let w_strong = strong.coefficients().unwrap()[0].abs();
        assert!(w_strong < w_weak);
        // Heavily shrunk model predicts close to the target mean.
        assert!((strong.predict(&[1.5]).unwrap() - 4.0).abs() < 1.0);
    }

    #[test]
    fn collinear_features_stable() {
        // Perfectly duplicated columns break OLS normal equations; ridge is fine.
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0], &[4.0, 4.0]]).unwrap();
        let y = [2.0, 4.0, 6.0, 8.0];
        let mut m = RidgeModel::new(1e-6);
        m.fit(&x, &y).unwrap();
        let p = m.predict(&[5.0, 5.0]).unwrap();
        assert!((p - 10.0).abs() < 1e-2, "{p}");
        // Symmetry: the two identical columns get equal weight.
        let w = m.coefficients().unwrap();
        assert!((w[0] - w[1]).abs() < 1e-6);
    }

    #[test]
    fn multifeature_plane() {
        // y = 1 + 2 x0 − 3 x1 on a grid.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                rows.push(vec![i as f64, j as f64]);
                y.push(1.0 + 2.0 * i as f64 - 3.0 * j as f64);
            }
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut m = RidgeModel::new(1e-9);
        m.fit(&x, &y).unwrap();
        assert!((m.predict(&[2.0, 2.0]).unwrap() - (1.0 + 4.0 - 6.0)).abs() < 1e-5);
    }

    #[test]
    fn errors() {
        let mut m = RidgeModel::default();
        assert!(matches!(m.predict(&[1.0]), Err(MlError::NotFitted)));
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap();
        assert!(matches!(
            m.fit(&x, &[1.0]),
            Err(MlError::ShapeMismatch { .. })
        ));
        let empty = Matrix::zeros(0, 1);
        assert!(matches!(m.fit(&empty, &[]), Err(MlError::EmptyTrainingSet)));
        let mut bad = RidgeModel::new(-1.0);
        assert!(matches!(
            bad.fit(&x, &[1.0, 2.0]),
            Err(MlError::InvalidHyperparameter { .. })
        ));
    }

    #[test]
    fn wrong_feature_count_rejected() {
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[2.0, 2.0]]).unwrap();
        let mut m = RidgeModel::default();
        m.fit(&x, &[1.0, 2.0, 3.0]).unwrap();
        assert!(matches!(
            m.predict(&[1.0]),
            Err(MlError::ShapeMismatch { .. })
        ));
    }
}
