//! The serializable parameter surface behind every fitted model.
//!
//! A fitted [`Regressor`](crate::Regressor) exports its complete learned
//! state as a [`ModelParams`] — one integer stream (shapes, hyperparameter
//! counts, tree structure tags) and one float stream (weights, thresholds,
//! training rows) — and [`ModelKind::from_params`](crate::ModelKind::from_params)
//! rebuilds a model whose predictions are **bit-identical** to the
//! original's. The two streams stay separate so no count is ever squeezed
//! through a float (and back) on the way to disk; the `QMODEL2` artifact
//! format in the engine crate persists both losslessly.
//!
//! Decoding is deliberately strict: a truncated stream, a count that does
//! not fit `usize`, or trailing unread values all fail with
//! [`MlError::Numerical`] rather than producing a silently different model.

use crate::MlError;

/// The learned state of one fitted model, flattened into an integer stream
/// and a float stream.
///
/// The encoding is model-specific (each model documents its own layout on
/// its `from_params` constructor) but always self-delimiting: the streams
/// carry their own shape information, so nested structures (forest members,
/// tree nodes) need no external framing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelParams {
    /// Shape and structure fields: dimensions, hyperparameter counts,
    /// tree-node tags, RNG seeds.
    pub ints: Vec<u64>,
    /// Learned weights: coefficients, thresholds, training rows, duals.
    pub floats: Vec<f64>,
}

impl ModelParams {
    /// An empty parameter set (both streams empty).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `usize` shape field to the integer stream.
    pub(crate) fn push_count(&mut self, n: usize) {
        // usize -> u64 is value-preserving on every supported target (the
        // fallback is unreachable; written cast-free for
        // `clippy::as_conversions`).
        self.ints.push(u64::try_from(n).unwrap_or(u64::MAX));
    }
}

const TRUNCATED: MlError = MlError::Numerical {
    context: "model params: stream truncated",
};
const TRAILING: MlError = MlError::Numerical {
    context: "model params: trailing unread values",
};
const OUT_OF_RANGE: MlError = MlError::Numerical {
    context: "model params: index out of range",
};

/// Sequential reader over a [`ModelParams`] pair of streams.
///
/// Every `from_params` constructor drains exactly the fields it wrote and
/// then calls [`ParamReader::finish`]; anything short or long is a decode
/// error, never a silently misaligned model.
pub(crate) struct ParamReader<'a> {
    ints: &'a [u64],
    floats: &'a [f64],
    next_int: usize,
    next_float: usize,
}

impl<'a> ParamReader<'a> {
    pub(crate) fn new(params: &'a ModelParams) -> Self {
        Self {
            ints: &params.ints,
            floats: &params.floats,
            next_int: 0,
            next_float: 0,
        }
    }

    /// Next raw integer field.
    pub(crate) fn int(&mut self) -> Result<u64, MlError> {
        let v = self.ints.get(self.next_int).copied().ok_or(TRUNCATED)?;
        self.next_int += 1;
        Ok(v)
    }

    /// Next integer field as a `usize` count.
    pub(crate) fn count(&mut self) -> Result<usize, MlError> {
        usize::try_from(self.int()?).map_err(|_| MlError::Numerical {
            context: "model params: count exceeds usize",
        })
    }

    /// Next integer field as an index below `len` (a feature index a
    /// predict would otherwise read out of bounds).
    pub(crate) fn index(&mut self, len: usize) -> Result<usize, MlError> {
        let i = self.count()?;
        (i < len).then_some(i).ok_or(OUT_OF_RANGE)
    }

    /// Next float field.
    pub(crate) fn float(&mut self) -> Result<f64, MlError> {
        let v = self.floats.get(self.next_float).copied().ok_or(TRUNCATED)?;
        self.next_float += 1;
        Ok(v)
    }

    /// Next `n` float fields as a slice.
    pub(crate) fn floats(&mut self, n: usize) -> Result<&'a [f64], MlError> {
        let end = self.next_float.checked_add(n).ok_or(TRUNCATED)?;
        let s = self.floats.get(self.next_float..end).ok_or(TRUNCATED)?;
        self.next_float = end;
        Ok(s)
    }

    /// Asserts both streams are fully consumed.
    pub(crate) fn finish(self) -> Result<(), MlError> {
        if self.next_int == self.ints.len() && self.next_float == self.floats.len() {
            Ok(())
        } else {
            Err(TRAILING)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_drains_in_order() {
        let mut p = ModelParams::new();
        p.push_count(3);
        p.ints.push(u64::MAX);
        p.floats.extend([1.5, -2.5, 0.0]);
        let mut r = ParamReader::new(&p);
        assert_eq!(r.count().unwrap(), 3);
        assert_eq!(r.int().unwrap(), u64::MAX);
        assert_eq!(r.float().unwrap(), 1.5);
        assert_eq!(r.floats(2).unwrap(), &[-2.5, 0.0]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_are_errors() {
        let p = ModelParams::new();
        let mut r = ParamReader::new(&p);
        assert!(r.int().is_err());
        assert!(r.float().is_err());

        let mut p = ModelParams::new();
        p.floats.push(1.0);
        let mut r = ParamReader::new(&p);
        assert!(r.floats(2).is_err());

        let mut p = ModelParams::new();
        p.ints.push(7);
        assert!(ParamReader::new(&p).finish().is_err());
    }
}
