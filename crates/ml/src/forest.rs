use linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::convert::{ceil_count, count_f64};
use crate::params::{ModelParams, ParamReader};
use crate::tree::TreeModel;
use crate::{MlError, Regressor};

/// Random-forest regression: bagged CART trees with feature subsampling.
///
/// An ensemble extension of the paper's `RTREE` baseline. A single
/// regression tree predicts piecewise-constant parameter surfaces, which is
/// why it trails GPR in §III-C; averaging many bootstrap-trained trees
/// smooths the response and is the natural "what if the authors had used a
/// stronger tree model" ablation reported by `model_compare`.
///
/// Each tree is trained on a bootstrap resample of the rows and sees a
/// random subset of ⌈√d⌉ features (selected per tree; the selection is
/// applied by projecting the feature vector, so [`TreeModel`] itself is
/// reused unchanged). The run is deterministic for a fixed [`ForestModel::seed`].
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use ml::{ForestModel, Regressor};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 10.0]).collect();
/// let y: Vec<f64> = (0..30).map(|i| (i as f64 / 10.0).sin()).collect();
/// let x = Matrix::from_rows(&rows)?;
/// let mut model = ForestModel::default();
/// model.fit(&x, &y)?;
/// let p = model.predict(&[1.5])?;
/// assert!((p - 1.5_f64.sin()).abs() < 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ForestModel {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Template hyperparameters applied to every tree.
    pub tree: TreeModel,
    /// RNG seed for bootstrap resampling and feature subsetting.
    pub seed: u64,
    members: Vec<(Vec<usize>, TreeModel)>,
    n_features: usize,
}

impl ForestModel {
    /// Creates an unfitted forest of `n_trees` default trees.
    #[must_use]
    pub fn new(n_trees: usize) -> Self {
        Self {
            n_trees,
            tree: TreeModel::default(),
            seed: 0x00f0_4e57,
            members: Vec::new(),
            n_features: 0,
        }
    }

    /// Returns a copy with a different RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Rebuilds a fitted forest from exported parameters.
    ///
    /// Layout: ints = `[n_trees, seed, n_features, tpl_max_depth,
    /// tpl_min_samples_split, tpl_min_samples_leaf, n_members]` followed by,
    /// per member, `[subset_len, subset…]` and the member tree's own ints;
    /// floats = the member trees' floats in the same order.
    pub(crate) fn from_params(params: &ModelParams) -> Result<Self, MlError> {
        let mut r = ParamReader::new(params);
        let n_trees = r.count()?;
        let seed = r.int()?;
        let n_features = r.count()?;
        let tree = TreeModel::with_hyperparams(r.count()?, r.count()?, r.count()?);
        let n_members = r.count()?;
        if n_members == 0 {
            return Err(MlError::Numerical {
                context: "model params: empty forest ensemble",
            });
        }
        // Every member and every feature index takes at least one int of
        // the stream, so no count past its length is reserved for.
        let cap = params.ints.len();
        let mut members = Vec::with_capacity(n_members.min(cap));
        for _ in 0..n_members {
            let subset_len = r.count()?;
            let mut feats = Vec::with_capacity(subset_len.min(cap));
            for _ in 0..subset_len {
                feats.push(r.index(n_features)?);
            }
            members.push((feats, TreeModel::read_params(&mut r)?));
        }
        r.finish()?;
        Ok(Self {
            n_trees,
            tree,
            seed,
            members,
            n_features,
        })
    }
}

impl Default for ForestModel {
    fn default() -> Self {
        Self::new(50)
    }
}

impl Regressor for ForestModel {
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
        if self.n_trees == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "n_trees",
                value: 0.0,
            });
        }
        let n = x.rows();
        let d = x.cols();
        let m_features = ceil_count(count_f64(d).sqrt()).clamp(1, d);
        let mut rng = StdRng::seed_from_u64(self.seed);

        self.members.clear();
        self.n_features = d;
        for _ in 0..self.n_trees {
            // Bootstrap rows.
            let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            // Random feature subset, kept sorted for reproducible projection.
            let mut feats: Vec<usize> = (0..d).collect();
            feats.shuffle(&mut rng);
            feats.truncate(m_features);
            feats.sort_unstable();

            let rows: Vec<Vec<f64>> = sample
                .iter()
                .map(|&i| feats.iter().map(|&j| x.get(i, j)).collect())
                .collect();
            let ys: Vec<f64> = sample.iter().map(|&i| y[i]).collect();
            let sub = Matrix::from_rows(&rows).map_err(|_| MlError::Numerical {
                context: "forest bootstrap matrix",
            })?;

            let mut tree = self.tree.clone();
            tree.fit(&sub, &ys)?;
            self.members.push((feats, tree));
        }
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        if self.members.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.len() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: self.n_features,
                actual: x.len(),
                what: "features",
            });
        }
        let mut sum = 0.0;
        for (feats, tree) in &self.members {
            let proj: Vec<f64> = feats.iter().map(|&j| x[j]).collect();
            sum += tree.predict(&proj)?;
        }
        Ok(sum / count_f64(self.members.len()))
    }

    fn name(&self) -> &'static str {
        "RandomForest"
    }

    fn to_params(&self) -> Result<ModelParams, MlError> {
        if self.members.is_empty() {
            return Err(MlError::NotFitted);
        }
        let mut p = ModelParams::new();
        p.push_count(self.n_trees);
        p.ints.push(self.seed);
        p.push_count(self.n_features);
        p.push_count(self.tree.max_depth);
        p.push_count(self.tree.min_samples_split);
        p.push_count(self.tree.min_samples_leaf);
        p.push_count(self.members.len());
        for (feats, tree) in &self.members {
            p.push_count(feats.len());
            for &j in feats {
                p.push_count(j);
            }
            tree.write_params(&mut p)?;
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn fits_smooth_function() {
        let (x, y) = sine_data(60);
        let mut m = ForestModel::default();
        m.fit(&x, &y).unwrap();
        assert_eq!(m.members.len(), 50);
        for q in [0.5, 2.0, 4.0] {
            let p = m.predict(&[q]).unwrap();
            assert!((p - q.sin()).abs() < 0.25, "q={q} p={p}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, y) = sine_data(40);
        let mut a = ForestModel::new(10);
        let mut b = ForestModel::new(10);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&[1.23]).unwrap(), b.predict(&[1.23]).unwrap());
    }

    #[test]
    fn seed_changes_ensemble() {
        let (x, y) = sine_data(40);
        let mut a = ForestModel::new(10);
        let mut b = ForestModel::new(10).with_seed(7);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_ne!(a.predict(&[1.23]).unwrap(), b.predict(&[1.23]).unwrap());
    }

    #[test]
    fn smoother_than_single_tree() {
        // Ensemble variance across nearby queries should not exceed a single
        // deep tree's (piecewise-constant jumps get averaged away).
        let (x, y) = sine_data(80);
        let mut forest = ForestModel::new(100);
        forest.fit(&x, &y).unwrap();
        let mut tree = TreeModel::default();
        tree.fit(&x, &y).unwrap();
        let queries: Vec<f64> = (0..200).map(|i| i as f64 * 0.035).collect();
        let err = |f: &dyn Fn(&[f64]) -> f64| -> f64 {
            queries
                .iter()
                .map(|&q| (f(&[q]) - q.sin()).powi(2))
                .sum::<f64>()
                / queries.len() as f64
        };
        let forest_mse = err(&|q: &[f64]| forest.predict(q).unwrap());
        let tree_mse = err(&|q: &[f64]| tree.predict(q).unwrap());
        // The forest should be at worst mildly worse, typically better.
        assert!(
            forest_mse <= tree_mse * 2.0,
            "forest {forest_mse} tree {tree_mse}"
        );
    }

    #[test]
    fn multifeature_uses_feature_subsets() {
        // 4 features, only feature 2 matters.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..50 {
            let t = i as f64 * 0.1;
            rows.push(vec![0.0, 1.0, t, -t]);
            y.push(3.0 * t);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut m = ForestModel::new(60);
        m.fit(&x, &y).unwrap();
        let p = m.predict(&[0.0, 1.0, 2.0, -2.0]).unwrap();
        assert!((p - 6.0).abs() < 1.0, "{p}");
    }

    #[test]
    fn errors() {
        let mut m = ForestModel::default();
        assert!(matches!(m.predict(&[1.0]), Err(MlError::NotFitted)));
        let (x, y) = sine_data(10);
        let mut zero = ForestModel::new(0);
        assert!(matches!(
            zero.fit(&x, &y),
            Err(MlError::InvalidHyperparameter { .. })
        ));
        m.fit(&x, &y).unwrap();
        assert!(matches!(
            m.predict(&[1.0, 2.0]),
            Err(MlError::ShapeMismatch { .. })
        ));
        let empty = Matrix::zeros(0, 1);
        assert!(matches!(m.fit(&empty, &[]), Err(MlError::EmptyTrainingSet)));
    }
}
