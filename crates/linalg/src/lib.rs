//! Dense real linear algebra for the `qaoa-ml` workspace.
//!
//! This crate provides the small-to-medium dense kernels that the
//! machine-learning substrate ([`ml`](../ml/index.html)) needs:
//!
//! * [`Matrix`] — a row-major dense matrix of `f64`,
//! * [`Cholesky`] — SPD factorization used by Gaussian-process regression,
//! * [`Qr`] — Householder QR used by ordinary least squares,
//! * free functions for norms, dot products and triangular solves.
//!
//! Vectors are plain slices: every solve and product takes `&[f64]` and
//! returns a `Vec<f64>`.
//!
//! Everything is implemented from scratch (no BLAS/LAPACK) because the paper
//! reproduction must run in a hermetic environment; matrices here are at most
//! a few hundred rows (330 training graphs), where naive `O(n^3)` kernels are
//! entirely adequate.
//!
//! # Example
//!
//! ```
//! use linalg::Matrix;
//!
//! # fn main() -> Result<(), linalg::LinalgError> {
//! // Solve the normal equations of a tiny least-squares problem.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = [1.0, 2.0];
//! let chol = a.cholesky()?;
//! let x = chol.solve(&b)?;
//! let r: Vec<f64> = a.matvec(&x)?.iter().zip(&b).map(|(p, q)| p - q).collect();
//! assert!(linalg::norm2(&r) < 1e-12);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::as_conversions,
        reason = "unit tests build fixtures with small literal casts"
    )
)]

mod cholesky;
mod error;
mod matrix;
mod qr;
mod solve;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use qr::Qr;
pub use solve::{solve_lower_triangular, solve_upper_triangular};

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// assert_eq!(linalg::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
///
/// ```
/// assert!((linalg::norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
/// ```
#[must_use]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Infinity norm (largest absolute entry) of a slice; `0.0` for empty input.
///
/// ```
/// assert_eq!(linalg::norm_inf(&[1.0, -7.0, 3.0]), 7.0);
/// ```
#[must_use]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// `y ← y + alpha * x` over equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Largest absolute entrywise difference of two equal-length slices.
#[cfg(test)]
fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_gap: length mismatch");
    a.iter()
        .zip(b)
        .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[1.0, -1.0], &[1.0, 1.0]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
        assert!((norm2(&[1.0; 16]) - 4.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
