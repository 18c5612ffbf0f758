use linalg::Matrix;

use crate::params::ParamReader;
use crate::{MlError, ModelParams, Regressor};

/// k-nearest-neighbours regression with inverse-distance weighting.
///
/// A non-parametric extension baseline: the paper's thesis is that optimal
/// parameters of *similar problem instances* transfer, and kNN is the most
/// literal implementation of that idea — predict a new instance's parameters
/// as a weighted average of the most similar training instances. Comparing
/// it against GPR (the paper's winner) quantifies how much the smoothness
/// prior of a kernel model adds over raw instance lookup.
///
/// Prediction is `ŷ = Σ wᵢ yᵢ / Σ wᵢ` over the `k` nearest training rows in
/// Euclidean distance with `wᵢ = 1 / (dᵢ + ε)`. An exact feature match
/// returns that row's target directly.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use ml::{KnnModel, Regressor};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]])?;
/// let y = [0.0, 1.0, 2.0, 3.0];
/// let mut model = KnnModel::new(2);
/// model.fit(&x, &y)?;
/// let p = model.predict(&[1.4])?;
/// assert!(p > 1.0 && p < 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnnModel {
    /// Number of neighbours consulted per prediction (clamped to the
    /// training-set size at fit time).
    pub k: usize,
    x: Option<Matrix>,
    y: Vec<f64>,
}

impl KnnModel {
    /// Creates an unfitted model that will consult `k` neighbours.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            k,
            x: None,
            y: Vec::new(),
        }
    }

    /// Rebuilds a fitted model from exported parameters.
    ///
    /// Layout: ints = `[k, rows, cols]`, floats = training rows in
    /// row-major order (`rows·cols` values) followed by the `rows` targets.
    pub(crate) fn from_params(params: &ModelParams) -> Result<Self, MlError> {
        let mut r = ParamReader::new(params);
        let k = r.count()?;
        let rows = r.count()?;
        let cols = r.count()?;
        if k == 0 || rows == 0 {
            return Err(MlError::Numerical {
                context: "model params: empty kNN training set",
            });
        }
        let cells = rows.checked_mul(cols).ok_or(MlError::Numerical {
            context: "model params: kNN shape overflow",
        })?;
        let xdata = r.floats(cells)?;
        let x = Matrix::from_fn(rows, cols, |i, j| xdata[i * cols + j]);
        let y = r.floats(rows)?.to_vec();
        r.finish()?;
        Ok(Self { k, x: Some(x), y })
    }
}

impl Default for KnnModel {
    fn default() -> Self {
        Self::new(5)
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl Regressor for KnnModel {
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
        if self.k == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "k",
                value: 0.0,
            });
        }
        self.x = Some(x.clone());
        self.y = y.to_vec();
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        let train = self.x.as_ref().ok_or(MlError::NotFitted)?;
        if x.len() != train.cols() {
            return Err(MlError::ShapeMismatch {
                expected: train.cols(),
                actual: x.len(),
                what: "features",
            });
        }
        let k = self.k.min(train.rows());
        // Partial selection of the k smallest distances.
        let mut dist: Vec<(f64, usize)> = (0..train.rows())
            .map(|i| (sq_dist(train.row(i), x), i))
            .collect();
        dist.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        dist.truncate(k);

        let mut num = 0.0;
        let mut den = 0.0;
        for &(d2, i) in &dist {
            let d = d2.sqrt();
            if d < 1e-12 {
                // Exact match short-circuits to that training target.
                return Ok(self.y[i]);
            }
            let w = 1.0 / (d + 1e-12);
            num += w * self.y[i];
            den += w;
        }
        Ok(num / den)
    }

    fn name(&self) -> &'static str {
        "kNN"
    }

    fn to_params(&self) -> Result<ModelParams, MlError> {
        let x = self.x.as_ref().ok_or(MlError::NotFitted)?;
        let mut p = ModelParams::new();
        p.push_count(self.k);
        p.push_count(x.rows());
        p.push_count(x.cols());
        for i in 0..x.rows() {
            p.floats.extend_from_slice(x.row(i));
        }
        p.floats.extend_from_slice(&self.y);
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn exact_match_returns_training_target() {
        let (x, y) = line_data();
        let mut m = KnnModel::new(3);
        m.fit(&x, &y).unwrap();
        assert_eq!(m.predict(&[4.0]).unwrap(), 8.0);
    }

    #[test]
    fn interpolates_between_neighbours() {
        let (x, y) = line_data();
        let mut m = KnnModel::new(2);
        m.fit(&x, &y).unwrap();
        let p = m.predict(&[4.5]).unwrap();
        assert!((p - 9.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn k_one_is_nearest_neighbour() {
        let (x, y) = line_data();
        let mut m = KnnModel::new(1);
        m.fit(&x, &y).unwrap();
        assert_eq!(m.predict(&[4.4]).unwrap(), 8.0);
        assert_eq!(m.predict(&[4.6]).unwrap(), 10.0);
    }

    #[test]
    fn k_larger_than_dataset_clamped() {
        let (x, y) = line_data();
        let mut m = KnnModel::new(100);
        m.fit(&x, &y).unwrap();
        let p = m.predict(&[4.5]).unwrap();
        assert!(p.is_finite());
        // Inverse-distance weighting keeps the estimate near the query.
        assert!((p - 9.0).abs() < 2.0, "{p}");
    }

    #[test]
    fn constant_targets_reproduced() {
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y = vec![7.0; 6];
        let mut m = KnnModel::default();
        m.fit(&x, &y).unwrap();
        assert!((m.predict(&[2.5, 5.0]).unwrap() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn errors() {
        let mut m = KnnModel::default();
        assert!(matches!(m.predict(&[1.0]), Err(MlError::NotFitted)));
        let (x, y) = line_data();
        let mut zero = KnnModel::new(0);
        assert!(matches!(
            zero.fit(&x, &y),
            Err(MlError::InvalidHyperparameter { .. })
        ));
        let empty = Matrix::zeros(0, 1);
        assert!(matches!(m.fit(&empty, &[]), Err(MlError::EmptyTrainingSet)));
        m.fit(&x, &y).unwrap();
        assert!(matches!(
            m.predict(&[1.0, 2.0]),
            Err(MlError::ShapeMismatch { .. })
        ));
    }
}
