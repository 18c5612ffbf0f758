use crate::{solve_lower_triangular, solve_upper_triangular, LinalgError, Matrix};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// This is the workhorse behind Gaussian-process regression
/// (`ml::GprModel`): fitting solves `(K + σ²I) α = y` through this
/// factorization and the log-marginal likelihood needs `log det = 2 Σ log Lᵢᵢ`.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0],
///                             &[15.0, 18.0,  0.0],
///                             &[-5.0,  0.0, 11.0]])?;
/// let b = [1.0, 2.0, 3.0];
/// let x = a.cholesky()?.solve(&b)?;
/// let ax = a.matvec(&x)?;
/// assert!(ax.iter().zip(&b).all(|(p, q)| (p - q).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; mild asymmetry from floating-
    /// point noise is therefore harmless.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is rectangular.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive,
    ///   which is also the practical test for positive definiteness.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a.get(i, j);
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l.set(i, j, s.sqrt());
                } else {
                    l.set(i, j, s / l.get(j, j));
                }
            }
        }
        Ok(Self { l })
    }

    /// Borrows the lower-triangular factor `L`.
    #[must_use]
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via the two triangular solves `L y = b`, `Lᵀ x = y`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len()` does not match the
    /// factored dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let y = solve_lower_triangular(&self.l, b)?;
        solve_upper_triangular(&self.l.transpose(), &y)
    }

    /// Natural log of `det A = (Π Lᵢᵢ)²`, computed stably as `2 Σ log Lᵢᵢ`.
    #[must_use]
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l.get(i, i).ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_gap;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]).unwrap()
    }

    #[test]
    fn reconstructs_input() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let l = c.factor();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!((&back - &a).norm_fro() < 1e-12);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = c.solve(&b).unwrap();
        assert!(max_gap(&a.matvec(&x).unwrap(), &b) < 1e-12);
        assert!(c.solve(&[0.0; 2]).is_err());
    }

    #[test]
    fn log_det_matches_known_value() {
        // det of diag(2, 3) = 6.
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        let c = a.cholesky().unwrap();
        assert!((c.log_det() - 6.0_f64.ln()).abs() < 1e-14);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[9.0]]).unwrap();
        let c = a.cholesky().unwrap();
        assert_eq!(c.factor().get(0, 0), 3.0);
        assert_eq!(c.solve(&[18.0]).unwrap(), vec![2.0]);
    }
}
