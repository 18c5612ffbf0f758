use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::{Cholesky, LinalgError, Qr};

/// A dense, row-major matrix of `f64`.
///
/// Sized for the workloads in this workspace (Gram matrices and design
/// matrices of a few hundred training points); all kernels are
/// straightforward `O(n^3)` loops.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = a.transpose();
/// let c = a.matmul(&b)?;
/// assert_eq!(c.get(0, 0), 5.0); // 1*1 + 2*2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// ```
    /// let i = linalg::Matrix::identity(2);
    /// assert_eq!(i.get(0, 0), 1.0);
    /// assert_eq!(i.get(0, 1), 0.0);
    /// ```
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for zero rows and
    /// [`LinalgError::ShapeMismatch`] if rows have differing lengths.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].as_ref().is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].as_ref().len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            let r = r.as_ref();
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_rows",
                    lhs: (i, cols),
                    rhs: (i, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        self.data[i * self.cols + j] = value;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrows the flat row-major storage.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.rows).map(|i| crate::dot(self.row(i), x)).collect())
    }

    /// Transposed matrix-vector product `Aᵀ x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_t",
                lhs: (self.cols, self.rows),
                rhs: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += a * xi;
            }
        }
        Ok(out)
    }

    /// Matrix product `A B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += aik * other.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Gram product `Aᵀ A` (always symmetric positive semi-definite).
    #[must_use]
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let row = self.row(i);
            for a in 0..self.cols {
                for b in a..self.cols {
                    out.data[a * self.cols + b] += row[a] * row[b];
                }
            }
        }
        for a in 0..self.cols {
            for b in 0..a {
                out.data[a * self.cols + b] = out.data[b * self.cols + a];
            }
        }
        out
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm_fro(&self) -> f64 {
        crate::norm2(&self.data)
    }

    /// Maximum absolute deviation from symmetry; `0.0` for symmetric matrices.
    #[must_use]
    pub fn asymmetry(&self) -> f64 {
        if !self.is_square() {
            return f64::INFINITY;
        }
        let mut worst = 0.0_f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self.get(i, j) - self.get(j, i)).abs());
            }
        }
        worst
    }

    /// Adds `value` to every diagonal entry (jitter / ridge regularization).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, value: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            self.data[i * self.cols + i] += value;
        }
    }

    /// Computes the Cholesky factorization; see [`Cholesky::new`].
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError::NotSquare`] and
    /// [`LinalgError::NotPositiveDefinite`].
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::new(self)
    }

    /// Computes the Householder QR factorization; see [`Qr::new`].
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError::Empty`].
    pub fn qr(&self) -> Result<Qr, LinalgError> {
        Qr::new(self)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * rhs).collect(),
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self.get(i, j))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abcd() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = abcd();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert!(Matrix::from_rows::<&[f64]>(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0][..], &[1.0, 2.0][..]]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn from_fn_fills() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (2, 3));
    }

    #[test]
    fn matvec_matches_manual() {
        let m = abcd();
        let x = [1.0, 1.0];
        assert_eq!(m.matvec(&x).unwrap(), vec![3.0, 7.0]);
        assert_eq!(m.matvec_t(&x).unwrap(), vec![4.0, 6.0]);
        assert!(m.matvec(&[0.0; 3]).is_err());
        assert!(m.matvec_t(&[0.0; 3]).is_err());
    }

    #[test]
    fn matmul_identity() {
        let m = abcd();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
        assert!(m.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn gram_equals_at_a() {
        let m = Matrix::from_fn(4, 3, |i, j| ((i + 1) * (j + 2)) as f64);
        let g = m.gram();
        let expect = m.transpose().matmul(&m).unwrap();
        assert!((&g - &expect).norm_fro() < 1e-12);
        assert_eq!(g.asymmetry(), 0.0);
    }

    #[test]
    fn diagonal_and_norms() {
        let mut m = Matrix::identity(2);
        m.add_diagonal(1.0);
        assert_eq!(m.get(0, 0), 2.0);
        assert!((abcd().norm_fro() - 30.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(Matrix::zeros(2, 3).asymmetry(), f64::INFINITY);
    }

    #[test]
    fn elementwise_ops() {
        let m = abcd();
        let sum = &m + &m;
        assert_eq!(sum.get(1, 1), 8.0);
        let diff = &sum - &m;
        assert_eq!(diff, m);
        let scaled = &m * 0.5;
        assert_eq!(scaled.get(0, 0), 0.5);
    }

    #[test]
    fn display_has_rows() {
        let s = abcd().to_string();
        assert!(s.contains("[1.000000, 2.000000]"));
    }
}
