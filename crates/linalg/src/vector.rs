use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::{axpy, dot, norm2, norm_inf};

/// Converts a vector length to `f64`.
///
/// Lengths of vectors held in memory are far below 2^53, so the conversion
/// is exact.
#[expect(
    clippy::as_conversions,
    reason = "in-memory lengths are < 2^53 so usize -> f64 is exact here"
)]
fn count_f64(n: usize) -> f64 {
    n as f64
}

/// An owned dense vector of `f64` with arithmetic helpers.
///
/// `Vector` is a thin, ergonomic wrapper over `Vec<f64>`; it exists so the
/// higher layers (optimizers, regression models) read like the math they
/// implement. It dereferences nowhere — use [`Vector::as_slice`] when a plain
/// slice is needed.
///
/// # Example
///
/// ```
/// use linalg::Vector;
/// let a = Vector::from(vec![1.0, 2.0]);
/// let b = Vector::from(vec![3.0, 4.0]);
/// assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
/// assert_eq!(a.dot(&b), 11.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates an empty vector.
    #[must_use]
    pub fn new() -> Self {
        Self { data: Vec::new() }
    }

    /// Creates a vector of `n` zeros.
    ///
    /// ```
    /// let z = linalg::Vector::zeros(3);
    /// assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);
    /// ```
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n] }
    }

    /// Creates a vector of `n` copies of `value`.
    #[must_use]
    pub fn filled(n: usize, value: f64) -> Self {
        Self {
            data: vec![value; n],
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the vector has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the entries as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the entries as a mutable slice.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn dot(&self, other: &Vector) -> f64 {
        dot(&self.data, &other.data)
    }

    /// Euclidean norm.
    #[must_use]
    pub fn norm2(&self) -> f64 {
        norm2(&self.data)
    }

    /// Infinity norm.
    #[must_use]
    pub fn norm_inf(&self) -> f64 {
        norm_inf(&self.data)
    }

    /// Sum of all entries.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean; `0.0` for the empty vector.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / count_f64(self.data.len())
        }
    }

    /// `self ← self + alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        axpy(alpha, &other.data, &mut self.data);
    }

    /// Returns a new vector scaled by `alpha`.
    #[must_use]
    pub fn scaled(&self, alpha: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|x| alpha * x).collect(),
        }
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Self { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for Vector {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector add: length mismatch");
        self.iter().zip(rhs.iter()).map(|(a, b)| a + b).collect()
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector sub: length mismatch");
        self.iter().zip(rhs.iter()).map(|(a, b)| a - b).collect()
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(Vector::new().is_empty());
        assert_eq!(Vector::zeros(2).as_slice(), &[0.0, 0.0]);
        assert_eq!(Vector::filled(2, 3.0).as_slice(), &[3.0, 3.0]);
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0, -3.0]);
        assert_eq!(a.dot(&b), 32.0);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 2.0);
        assert_eq!(Vector::new().mean(), 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Vector::from(vec![1.0, 1.0]);
        a.axpy(3.0, &Vector::from(vec![1.0, 2.0]));
        assert_eq!(a.as_slice(), &[4.0, 7.0]);
        assert_eq!(a.scaled(0.0).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn indexing_and_mutation() {
        let mut v = Vector::zeros(2);
        v[1] = 5.0;
        assert_eq!(v[1], 5.0);
        v.as_mut_slice()[0] = 2.0;
        assert_eq!(v.into_vec(), vec![2.0, 5.0]);
    }

    #[test]
    fn display_formats_entries() {
        let v = Vector::from(vec![1.0, -0.5]);
        assert_eq!(v.to_string(), "[1.000000, -0.500000]");
    }

    #[test]
    fn extend_appends() {
        let mut v = Vector::from(vec![1.0]);
        v.extend([2.0, 3.0]);
        assert_eq!(v.len(), 3);
    }
}
