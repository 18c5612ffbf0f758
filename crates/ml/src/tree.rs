use linalg::Matrix;

use crate::convert::count_f64;
use crate::params::{ModelParams, ParamReader};
use crate::{MlError, Regressor};

/// CART regression tree — the paper's `RTREE` baseline.
///
/// Greedy binary splitting on the single `(feature, threshold)` pair that
/// maximizes variance reduction, with the usual stopping rules (`max_depth`,
/// `min_samples_split`, `min_samples_leaf`, zero-variance nodes). Thresholds
/// are midpoints between consecutive sorted feature values, matching
/// MATLAB `fitrtree` / scikit-learn behaviour.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use ml::{Regressor, TreeModel};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A step function is a tree's best case.
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[10.0], &[11.0], &[12.0]])?;
/// let y = [5.0, 5.0, 5.0, -3.0, -3.0, -3.0];
/// let mut tree = TreeModel::default();
/// tree.fit(&x, &y)?;
/// assert_eq!(tree.predict(&[1.5])?, 5.0);
/// assert_eq!(tree.predict(&[11.5])?, -3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TreeModel {
    /// Maximum tree depth (root is depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child after a split.
    pub min_samples_leaf: usize,
    root: Option<Node>,
    n_features: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Default for TreeModel {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 1,
            root: None,
            n_features: 0,
        }
    }
}

impl TreeModel {
    /// Creates a tree with the given depth cap, keeping the other defaults.
    #[must_use]
    pub fn with_max_depth(max_depth: usize) -> Self {
        Self {
            max_depth,
            ..Self::default()
        }
    }

    /// Creates an unfitted tree with explicit stopping hyperparameters.
    pub(crate) fn with_hyperparams(
        max_depth: usize,
        min_samples_split: usize,
        min_samples_leaf: usize,
    ) -> Self {
        Self {
            max_depth,
            min_samples_split,
            min_samples_leaf,
            ..Self::default()
        }
    }

    /// Number of leaves (0 before fitting) — a size diagnostic.
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        self.root.as_ref().map_or(0, count)
    }

    /// Rebuilds a fitted tree from exported parameters (the inverse of
    /// [`TreeModel::write_params`]).
    pub(crate) fn from_params(params: &ModelParams) -> Result<Self, MlError> {
        let mut r = ParamReader::new(params);
        let tree = Self::read_params(&mut r)?;
        r.finish()?;
        Ok(tree)
    }

    /// Appends this fitted tree's state to a shared parameter stream.
    ///
    /// Layout: ints = `[max_depth, min_samples_split, min_samples_leaf,
    /// n_features]` followed by the preorder node tags (`0` for a leaf, `1
    /// feature` for a split); floats = one preorder value per node (leaf
    /// value or split threshold). The preorder encoding is self-delimiting,
    /// so [`ForestModel`](crate::ForestModel) can nest member trees in its
    /// own stream without framing.
    pub(crate) fn write_params(&self, out: &mut ModelParams) -> Result<(), MlError> {
        fn write_node(node: &Node, out: &mut ModelParams) {
            match node {
                Node::Leaf { value } => {
                    out.ints.push(0);
                    out.floats.push(*value);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    out.ints.push(1);
                    out.push_count(*feature);
                    out.floats.push(*threshold);
                    write_node(left, out);
                    write_node(right, out);
                }
            }
        }
        let root = self.root.as_ref().ok_or(MlError::NotFitted)?;
        out.push_count(self.max_depth);
        out.push_count(self.min_samples_split);
        out.push_count(self.min_samples_leaf);
        out.push_count(self.n_features);
        write_node(root, out);
        Ok(())
    }

    /// Drains one fitted tree from a shared parameter stream.
    pub(crate) fn read_params(r: &mut ParamReader<'_>) -> Result<Self, MlError> {
        fn read_node(
            r: &mut ParamReader<'_>,
            depth: usize,
            cap: usize,
            n_features: usize,
        ) -> Result<Node, MlError> {
            // Every fitted tree respects its own max_depth; a stream nesting
            // deeper is corrupt. The hard cap bounds decode recursion.
            if depth > cap {
                return Err(MlError::Numerical {
                    context: "model params: tree nesting too deep",
                });
            }
            match r.int()? {
                0 => Ok(Node::Leaf { value: r.float()? }),
                1 => {
                    let feature = r.index(n_features)?;
                    let threshold = r.float()?;
                    let left = Box::new(read_node(r, depth + 1, cap, n_features)?);
                    let right = Box::new(read_node(r, depth + 1, cap, n_features)?);
                    Ok(Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    })
                }
                _ => Err(MlError::Numerical {
                    context: "model params: unknown tree node tag",
                }),
            }
        }
        let max_depth = r.count()?;
        let min_samples_split = r.count()?;
        let min_samples_leaf = r.count()?;
        let n_features = r.count()?;
        let root = read_node(r, 0, max_depth.min(512), n_features)?;
        Ok(Self {
            max_depth,
            min_samples_split,
            min_samples_leaf,
            root: Some(root),
            n_features,
        })
    }

    fn build(&self, x: &Matrix, y: &[f64], idx: &[usize], depth: usize) -> Node {
        let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / count_f64(idx.len());
        let sse: f64 = idx.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();
        if depth >= self.max_depth || idx.len() < self.min_samples_split || sse < 1e-12 {
            return Node::Leaf { value: mean };
        }

        // Best split by variance (SSE) reduction.
        let mut best: Option<(f64, usize, f64)> = None; // (child_sse, feature, threshold)
        let mut sorted = idx.to_vec();
        for feature in 0..x.cols() {
            sorted.sort_by(|&a, &b| x.get(a, feature).total_cmp(&x.get(b, feature)));
            // Prefix sums over the sorted order for O(1) child statistics.
            let mut prefix_sum = 0.0;
            let mut prefix_sq = 0.0;
            let total_sum: f64 = sorted.iter().map(|&i| y[i]).sum();
            let total_sq: f64 = sorted.iter().map(|&i| y[i] * y[i]).sum();
            for split_at in 1..sorted.len() {
                let i_prev = sorted[split_at - 1];
                prefix_sum += y[i_prev];
                prefix_sq += y[i_prev] * y[i_prev];
                let a = x.get(i_prev, feature);
                let b = x.get(sorted[split_at], feature);
                if a == b {
                    continue; // cannot separate identical values
                }
                let n_left = split_at;
                let n_right = sorted.len() - split_at;
                if n_left < self.min_samples_leaf || n_right < self.min_samples_leaf {
                    continue;
                }
                let left_sse = prefix_sq - prefix_sum * prefix_sum / count_f64(n_left);
                let right_sum = total_sum - prefix_sum;
                let right_sse = (total_sq - prefix_sq) - right_sum * right_sum / count_f64(n_right);
                let child = left_sse + right_sse;
                if best.as_ref().is_none_or(|(s, _, _)| child < *s) {
                    best = Some((child, feature, 0.5 * (a + b)));
                }
            }
        }

        match best {
            Some((child_sse, feature, threshold)) if child_sse < sse - 1e-12 => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| x.get(i, feature) <= threshold);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(self.build(x, y, &left_idx, depth + 1)),
                    right: Box::new(self.build(x, y, &right_idx, depth + 1)),
                }
            }
            _ => Node::Leaf { value: mean },
        }
    }
}

impl Regressor for TreeModel {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch {
                expected: x.rows(),
                actual: y.len(),
                what: "samples",
            });
        }
        if x.rows() == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let idx: Vec<usize> = (0..x.rows()).collect();
        self.root = Some(self.build(x, y, &idx, 0));
        self.n_features = x.cols();
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        let mut node = self.root.as_ref().ok_or(MlError::NotFitted)?;
        if x.len() != self.n_features {
            return Err(MlError::ShapeMismatch {
                expected: self.n_features,
                actual: x.len(),
                what: "features",
            });
        }
        loop {
            match node {
                Node::Leaf { value } => return Ok(*value),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "RTREE"
    }

    fn to_params(&self) -> Result<ModelParams, MlError> {
        let mut p = ModelParams::new();
        self.write_params(&mut p)?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_on_step_function() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[5.0], &[6.0], &[7.0]]).unwrap();
        let y = [1.0, 1.0, 1.0, 9.0, 9.0, 9.0];
        let mut t = TreeModel::default();
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict(&[0.5]).unwrap(), 1.0);
        assert_eq!(t.predict(&[6.5]).unwrap(), 9.0);
        assert_eq!(t.n_leaves(), 2);
    }

    #[test]
    fn depth_zero_predicts_mean() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]).unwrap();
        let y = [0.0, 1.0, 2.0, 3.0];
        let mut t = TreeModel::with_max_depth(0);
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict(&[0.0]).unwrap(), 1.5);
        assert_eq!(t.n_leaves(), 1);
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]).unwrap();
        let y = [0.0, 0.0, 0.0, 10.0];
        let mut t = TreeModel {
            min_samples_leaf: 2,
            ..TreeModel::default()
        };
        t.fit(&x, &y).unwrap();
        // The 3-vs-1 split is forbidden; best legal split is 2-2.
        assert_eq!(t.predict(&[0.2]).unwrap(), 0.0);
        assert_eq!(t.predict(&[2.9]).unwrap(), 5.0);
    }

    #[test]
    fn multifeature_split_selection() {
        // Feature 1 is pure noise; feature 0 defines the target.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..16 {
            rows.push(vec![(i / 8) as f64, (i % 4) as f64]);
            y.push(if i / 8 == 0 { -1.0 } else { 1.0 });
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut t = TreeModel::default();
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict(&[0.0, 3.0]).unwrap(), -1.0);
        assert_eq!(t.predict(&[1.0, 0.0]).unwrap(), 1.0);
        assert_eq!(t.n_leaves(), 2);
    }

    #[test]
    fn identical_features_cannot_split() {
        let x = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0], &[1.0]]).unwrap();
        let y = [0.0, 1.0, 2.0, 3.0];
        let mut t = TreeModel::default();
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict(&[1.0]).unwrap(), 1.5);
    }

    #[test]
    fn error_paths() {
        let mut t = TreeModel::default();
        assert!(matches!(t.predict(&[0.0]), Err(MlError::NotFitted)));
        let x = Matrix::from_rows(&[&[1.0]]).unwrap();
        assert!(t.fit(&x, &[1.0, 2.0]).is_err());
        t.fit(&x, &[1.0]).unwrap();
        assert!(t.predict(&[1.0, 2.0]).is_err());
    }
}
