use linalg::Matrix;

use crate::convert::count_f64;
use crate::MlError;

/// Column-wise standardization to zero mean and unit variance.
///
/// GPR and SVR are scale-sensitive; the QAOA features mix angles in
/// `[0, 2π]` with integer depths in `[2, 6]`, so both models standardize
/// inputs through this type. Constant columns get unit scale (they carry no
/// information but must not divide by zero).
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use ml::StandardScaler;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[&[0.0, 10.0], &[2.0, 10.0], &[4.0, 10.0]])?;
/// let scaler = StandardScaler::fit(&x)?;
/// let z = scaler.transform_row(&[2.0, 10.0])?;
/// assert!(z[0].abs() < 1e-12); // mean maps to 0
/// assert_eq!(z[1], 0.0);       // constant column untouched
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    scales: Vec<f64>,
}

impl StandardScaler {
    /// Learns per-column means and standard deviations (population, like
    /// scikit-learn).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] for a zero-row matrix.
    pub fn fit(x: &Matrix) -> Result<Self, MlError> {
        if x.rows() == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let n = count_f64(x.rows());
        let mut means = vec![0.0; x.cols()];
        for i in 0..x.rows() {
            for (j, m) in means.iter_mut().enumerate() {
                *m += x.get(i, j);
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut scales = vec![0.0; x.cols()];
        for i in 0..x.rows() {
            for (j, s) in scales.iter_mut().enumerate() {
                let d = x.get(i, j) - means[j];
                *s += d * d;
            }
        }
        for s in &mut scales {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0; // constant column: identity scale
            }
        }
        Ok(Self { means, scales })
    }

    /// Rebuilds a scaler from stored per-column means and scales.
    pub(crate) fn from_parts(means: Vec<f64>, scales: Vec<f64>) -> Result<Self, MlError> {
        if means.len() != scales.len() {
            return Err(MlError::ShapeMismatch {
                expected: means.len(),
                actual: scales.len(),
                what: "scaler columns",
            });
        }
        Ok(Self { means, scales })
    }

    /// Per-column means learned at fit time.
    pub(crate) fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column scales (standard deviations) learned at fit time.
    pub(crate) fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// Number of columns the scaler was fitted on.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.means.len()
    }

    /// Standardizes one row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] for a wrong feature count.
    pub fn transform_row(&self, row: &[f64]) -> Result<Vec<f64>, MlError> {
        if row.len() != self.means.len() {
            return Err(MlError::ShapeMismatch {
                expected: self.means.len(),
                actual: row.len(),
                what: "features",
            });
        }
        Ok(row
            .iter()
            .zip(self.means.iter().zip(&self.scales))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect())
    }

    /// Standardizes a whole matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StandardScaler::transform_row`].
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, MlError> {
        if x.cols() != self.means.len() {
            return Err(MlError::ShapeMismatch {
                expected: self.means.len(),
                actual: x.cols(),
                what: "features",
            });
        }
        Ok(Matrix::from_fn(x.rows(), x.cols(), |i, j| {
            (x.get(i, j) - self.means[j]) / self.scales[j]
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_columns() {
        let x = Matrix::from_rows(&[&[1.0, 100.0], &[3.0, 200.0], &[5.0, 300.0]]).unwrap();
        let sc = StandardScaler::fit(&x).unwrap();
        let z = sc.transform(&x).unwrap();
        for j in 0..2 {
            let col: Vec<f64> = (0..3).map(|i| z.get(i, j)).collect();
            let m = col.iter().sum::<f64>() / 3.0;
            let var = col.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / 3.0;
            assert!(m.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_is_safe() {
        let x = Matrix::from_rows(&[&[5.0], &[5.0]]).unwrap();
        let sc = StandardScaler::fit(&x).unwrap();
        let z = sc.transform_row(&[5.0]).unwrap();
        assert_eq!(z[0], 0.0);
        assert_eq!(sc.n_features(), 1);
    }

    #[test]
    fn shape_errors() {
        let x = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let sc = StandardScaler::fit(&x).unwrap();
        assert!(sc.transform_row(&[1.0]).is_err());
        let wrong = Matrix::from_rows(&[&[1.0]]).unwrap();
        assert!(sc.transform(&wrong).is_err());
    }
}
