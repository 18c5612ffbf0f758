use crate::{LinalgError, Matrix};

/// Solves `L x = b` for lower-triangular `L` by forward substitution.
///
/// Only the lower triangle (including the diagonal) of `l` is read, so a
/// packed factor stored in a full square matrix works directly.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] if `l` is rectangular.
/// * [`LinalgError::ShapeMismatch`] if `b.len() != l.rows()`.
/// * [`LinalgError::Singular`] if a diagonal entry is (numerically) zero.
///
/// # Example
///
/// ```
/// use linalg::{solve_lower_triangular, Matrix};
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]])?;
/// let x = solve_lower_triangular(&l, &[4.0, 11.0])?;
/// assert_eq!(x, vec![2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve_lower_triangular(l: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = check_triangular(l, b)?;
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for (lij, xj) in l.row(i).iter().zip(&x).take(i) {
            s -= lij * xj;
        }
        let d = l.get(i, i);
        if d.abs() < f64::EPSILON * 16.0 {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] = s / d;
    }
    Ok(x)
}

/// Solves `U x = b` for upper-triangular `U` by back substitution.
///
/// Only the upper triangle (including the diagonal) of `u` is read.
///
/// # Errors
///
/// Same conditions as [`solve_lower_triangular`].
pub fn solve_upper_triangular(u: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = check_triangular(u, b)?;
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = b[i];
        for (uij, xj) in u.row(i).iter().zip(&x).skip(i + 1) {
            s -= uij * xj;
        }
        let d = u.get(i, i);
        if d.abs() < f64::EPSILON * 16.0 {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] = s / d;
    }
    Ok(x)
}

fn check_triangular(m: &Matrix, b: &[f64]) -> Result<usize, LinalgError> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare { shape: m.shape() });
    }
    if b.len() != m.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "triangular solve",
            lhs: m.shape(),
            rhs: (b.len(), 1),
        });
    }
    Ok(m.rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_gap;

    #[test]
    fn upper_solve_roundtrip() {
        let u = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 4.0]]).unwrap();
        let x = [1.0, -2.0];
        let b = u.matvec(&x).unwrap();
        let got = solve_upper_triangular(&u, &b).unwrap();
        assert!(max_gap(&got, &x) < 1e-14);
    }

    #[test]
    fn lower_solve_roundtrip() {
        let l = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[1.0, 2.0, 0.0], &[4.0, 5.0, 6.0]]).unwrap();
        let x = [1.0, 2.0, 3.0];
        let b = l.matvec(&x).unwrap();
        let got = solve_lower_triangular(&l, &b).unwrap();
        assert!(max_gap(&got, &x) < 1e-14);
    }

    #[test]
    fn singular_diag_rejected() {
        let l = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).unwrap();
        assert!(matches!(
            solve_lower_triangular(&l, &[0.0; 2]),
            Err(LinalgError::Singular { pivot: 0 })
        ));
    }

    #[test]
    fn shape_errors() {
        let rect = Matrix::zeros(2, 3);
        assert!(solve_upper_triangular(&rect, &[0.0; 2]).is_err());
        let sq = Matrix::identity(2);
        assert!(solve_upper_triangular(&sq, &[0.0; 3]).is_err());
    }

    #[test]
    fn ignores_opposite_triangle() {
        // Garbage above the diagonal must not affect a lower solve.
        let l = Matrix::from_rows(&[&[1.0, 99.0], &[2.0, 1.0]]).unwrap();
        let x = solve_lower_triangular(&l, &[1.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0]);
    }
}
