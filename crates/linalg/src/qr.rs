use crate::{solve_upper_triangular, LinalgError, Matrix};

/// Householder QR factorization `A = Q R` of an `m x n` matrix with `m >= n`.
///
/// Used by ordinary least squares (`ml::LinearModel`): the minimizer of
/// `‖A x − b‖₂` is obtained from `R x = Qᵀ b` without forming the (worse-
/// conditioned) normal equations.
///
/// `Q` is kept implicitly as a sequence of Householder reflectors; only the
/// triangular factor and the least-squares solve are exposed.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// # fn main() -> Result<(), linalg::LinalgError> {
/// // Overdetermined fit of y = 2x + 1 through three exact points.
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
/// let coef = a.qr()?.solve_least_squares(&[1.0, 3.0, 5.0])?;
/// assert!((coef[0] - 1.0).abs() < 1e-12 && (coef[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Qr {
    /// Packed factorization: R in the upper triangle, reflector tails below.
    packed: Matrix,
    /// Scalar coefficients of the Householder reflectors.
    tau: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Qr {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if `a` has zero rows or columns.
    /// * [`LinalgError::ShapeMismatch`] if `a` has fewer rows than columns
    ///   (underdetermined systems are not supported here).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                op: "qr (requires rows >= cols)",
                lhs: (m, n),
                rhs: (n, n),
            });
        }
        let mut r = a.clone();
        let mut tau = vec![0.0; n];
        #[expect(
            clippy::needless_range_loop,
            reason = "k indexes both tau and the packed factor"
        )]
        for k in 0..n {
            // Build the Householder vector annihilating R[k+1.., k].
            let mut norm = 0.0;
            for i in k..m {
                norm += r.get(i, k) * r.get(i, k);
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let akk = r.get(k, k);
            let alpha = if akk >= 0.0 { -norm } else { norm };
            let v0 = akk - alpha;
            // Store tail of v (normalized by v0) below the diagonal.
            for i in (k + 1)..m {
                let vi = r.get(i, k) / v0;
                r.set(i, k, vi);
            }
            tau[k] = -v0 / alpha;
            r.set(k, k, alpha);
            // Apply the reflector to the remaining columns.
            for j in (k + 1)..n {
                let mut s = r.get(k, j);
                for i in (k + 1)..m {
                    s += r.get(i, k) * r.get(i, j);
                }
                s *= tau[k];
                let rkj = r.get(k, j) - s;
                r.set(k, j, rkj);
                for i in (k + 1)..m {
                    let rij = r.get(i, j) - s * r.get(i, k);
                    r.set(i, j, rij);
                }
            }
        }
        Ok(Self {
            packed: r,
            tau,
            rows: m,
            cols: n,
        })
    }

    /// The `n x n` upper-triangular factor `R`.
    #[must_use]
    pub fn r(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.cols, |i, j| {
            if j >= i {
                self.packed.get(i, j)
            } else {
                0.0
            }
        })
    }

    /// Applies `Qᵀ` to a length-`m` vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != m`.
    fn qt_mul(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "qr qt_mul",
                lhs: (self.rows, self.cols),
                rhs: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        for k in 0..self.cols {
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut s = y[k];
            for (i, yi) in y.iter().enumerate().skip(k + 1) {
                s += self.packed.get(i, k) * yi;
            }
            s *= self.tau[k];
            y[k] -= s;
            for (i, yi) in y.iter_mut().enumerate().skip(k + 1) {
                *yi -= s * self.packed.get(i, k);
            }
        }
        Ok(y)
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `b.len() != m`.
    /// * [`LinalgError::Singular`] if `A` is (numerically) rank-deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let y = self.qt_mul(b)?;
        solve_upper_triangular(&self.r(), &y[..self.cols])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{max_gap, norm2, norm_inf};

    #[test]
    fn square_solve_exact() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = [1.0, -1.0];
        let b = a.matvec(&x).unwrap();
        let got = a.qr().unwrap().solve_least_squares(&b).unwrap();
        assert!(max_gap(&got, &x) < 1e-12);
    }

    #[test]
    fn r_is_upper_triangular_with_correct_magnitude() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[4.0, 2.0]]).unwrap();
        let qr = a.qr().unwrap();
        let r = qr.r();
        assert_eq!(r.get(1, 0), 0.0);
        // |R00| is the norm of the first column of A = 5.
        assert!((r.get(0, 0).abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_least_squares_residual_orthogonal() {
        // Noisy line fit; residual must be orthogonal to the column space.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let b = [0.1, 0.9, 2.1, 2.9];
        let x = a.qr().unwrap().solve_least_squares(&b).unwrap();
        let r: Vec<f64> = a
            .matvec(&x)
            .unwrap()
            .iter()
            .zip(&b)
            .map(|(p, q)| p - q)
            .collect();
        let atr = a.matvec_t(&r).unwrap();
        assert!(norm_inf(&atr) < 1e-12);
    }

    #[test]
    fn qt_preserves_norm() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i * 7 + j * 3) % 5) as f64 + 1.0);
        let qr = a.qr().unwrap();
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = qr.qt_mul(&b).unwrap();
        assert!((norm2(&y) - norm2(&b)).abs() < 1e-12);
    }

    #[test]
    fn rank_deficient_detected() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        let res = a.qr().unwrap().solve_least_squares(&[0.0; 3]);
        assert!(matches!(res, Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn shape_errors() {
        assert!(Qr::new(&Matrix::zeros(2, 3)).is_err());
        let qr = Matrix::identity(3).qr().unwrap();
        assert!(qr.qt_mul(&[0.0; 2]).is_err());
    }
}
