use graphs::{stats, Graph};
use ml::{MlError, ModelKind, Regressor};

use crate::datagen::ParameterDataset;
use crate::features::{stage_tables, FeatureSet, ParamKind, RowInputs};
use crate::{QaoaError, BETA_MAX, GAMMA_MAX};

/// The trained parameter predictor of the two-level flow (Fig. 4).
///
/// Holds one regression model per response variable — `γᵢ` and `βᵢ` for
/// every stage `i` up to the corpus depth — each mapping one
/// [`FeatureSet`] row to that stage's optimal value: the 3 two-level
/// features `(γ₁OPT(p=1), β₁OPT(p=1), pt)`, 6 in the hierarchical variant
/// or 12 in the graph-aware one. Predictions are clamped into the paper's
/// domain `γ ∈ [0, 2π], β ∈ [0, π]` so they are always valid optimizer
/// starting points.
///
/// # Example
///
/// ```no_run
/// use ml::ModelKind;
/// use qaoa::datagen::{DataGenConfig, ParameterDataset};
/// use qaoa::ParameterPredictor;
/// # fn main() -> Result<(), qaoa::QaoaError> {
/// let corpus = ParameterDataset::generate(&DataGenConfig::quick())?;
/// let predictor = ParameterPredictor::train(ModelKind::Gpr, &corpus)?;
/// let init = predictor.predict(1.2, 0.6, 3)?; // [γ₁..γ₃, β₁..β₃]
/// assert_eq!(init.len(), 6);
/// # Ok(())
/// # }
/// ```
pub struct ParameterPredictor {
    kind: ModelKind,
    max_depth: usize,
    features: FeatureSet,
    gamma_models: Vec<Box<dyn Regressor>>,
    beta_models: Vec<Box<dyn Regressor>>,
}

impl ParameterPredictor {
    /// Trains the standard two-level predictor on a corpus.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction and model-fitting errors.
    pub fn train(kind: ModelKind, dataset: &ParameterDataset) -> Result<Self, QaoaError> {
        Self::train_with(kind, dataset, FeatureSet::TwoLevel)
    }

    /// Trains one regression per response stage on the rows of `features`.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction and model-fitting errors; hierarchical
    /// features need the corpus to contain depths beyond the intermediate
    /// depth.
    pub fn train_with(
        kind: ModelKind,
        dataset: &ParameterDataset,
        features: FeatureSet,
    ) -> Result<Self, QaoaError> {
        let mut gamma_models: Vec<Box<dyn Regressor>> = Vec::new();
        let mut beta_models: Vec<Box<dyn Regressor>> = Vec::new();
        let mut trained_depth = 0usize;
        for t in stage_tables(dataset, features)? {
            let (x, y) = drop_target_outliers(&t.x, &t.y);
            let mut model = kind.build();
            model.fit(&x, &y)?;
            match t.kind {
                ParamKind::Gamma => {
                    debug_assert_eq!(gamma_models.len(), t.stage - 1);
                    gamma_models.push(model);
                }
                ParamKind::Beta => {
                    debug_assert_eq!(beta_models.len(), t.stage - 1);
                    beta_models.push(model);
                }
            }
            trained_depth = trained_depth.max(t.stage);
        }
        if gamma_models.is_empty() || gamma_models.len() != beta_models.len() {
            return Err(QaoaError::Parse {
                line: 0,
                message: "corpus produced no usable training tables".into(),
            });
        }
        Ok(Self {
            kind,
            max_depth: dataset.max_depth().min(trained_depth),
            features,
            gamma_models,
            beta_models,
        })
    }

    /// Reassembles a predictor from per-stage models (the model-artifact
    /// loader's entry point).
    ///
    /// `gamma_models[i]`/`beta_models[i]` must be the stage-`i+1` models, and
    /// both lists must cover every stage up to `max_depth`.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::Parse`] when the stage lists are empty,
    /// mismatched, or shorter than `max_depth`.
    pub fn from_parts(
        kind: ModelKind,
        max_depth: usize,
        features: FeatureSet,
        gamma_models: Vec<Box<dyn Regressor>>,
        beta_models: Vec<Box<dyn Regressor>>,
    ) -> Result<Self, QaoaError> {
        if gamma_models.is_empty() || gamma_models.len() != beta_models.len() {
            return Err(QaoaError::Parse {
                line: 0,
                message: "predictor parts: empty or mismatched stage model lists".into(),
            });
        }
        if max_depth == 0 || max_depth > gamma_models.len() {
            return Err(QaoaError::Parse {
                line: 0,
                message: format!(
                    "predictor parts: max depth {max_depth} outside 1..={}",
                    gamma_models.len()
                ),
            });
        }
        Ok(Self {
            kind,
            max_depth,
            features,
            gamma_models,
            beta_models,
        })
    }

    /// The model family behind every stage regression.
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Deepest target depth this predictor can initialize.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// The feature row every stage model reads.
    #[must_use]
    pub fn features(&self) -> FeatureSet {
        self.features
    }

    /// Per-stage γ models (`[stage 1, …, stage max_depth]`).
    #[must_use]
    pub fn gamma_models(&self) -> &[Box<dyn Regressor>] {
        &self.gamma_models
    }

    /// Per-stage β models (`[stage 1, …, stage max_depth]`).
    #[must_use]
    pub fn beta_models(&self) -> &[Box<dyn Regressor>] {
        &self.beta_models
    }

    /// Predicts initial parameters `[γ₁…γ_pt, β₁…β_pt]` for a depth-`pt`
    /// instance from the depth-1 optimum (two-level features).
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] if `pt` is 0 or beyond
    ///   [`ParameterPredictor::max_depth`].
    /// * [`QaoaError::Ml`] if the predictor's rows need more than the
    ///   depth-1 optimum (use [`ParameterPredictor::predict_hierarchical`],
    ///   or a [`crate::TwoLevelFlow`] for graph-aware predictors).
    pub fn predict(
        &self,
        gamma1_p1: f64,
        beta1_p1: f64,
        target_depth: usize,
    ) -> Result<Vec<f64>, QaoaError> {
        let inputs = RowInputs {
            depth1: (gamma1_p1, beta1_p1),
            intermediate: None,
            structure: None,
        };
        self.predict_row(&inputs, target_depth)
    }

    /// Predicts initial parameters using the hierarchical features.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ParameterPredictor::predict`], mirrored for
    /// predictors that are not hierarchical.
    pub fn predict_hierarchical(
        &self,
        gamma1_p1: f64,
        beta1_p1: f64,
        gamma1_pm: f64,
        beta1_pm: f64,
        target_depth: usize,
    ) -> Result<Vec<f64>, QaoaError> {
        if !matches!(self.features, FeatureSet::Hierarchical { .. }) {
            return Err(QaoaError::Ml(MlError::ShapeMismatch {
                expected: self.features.width(),
                actual: 6,
                what: "features (only a hierarchical predictor reads an intermediate optimum)",
            }));
        }
        let inputs = RowInputs {
            depth1: (gamma1_p1, beta1_p1),
            intermediate: Some((gamma1_pm, beta1_pm)),
            structure: None,
        };
        self.predict_row(&inputs, target_depth)
    }

    /// Predicts initial parameters for `graph` from its depth-1 optimum:
    /// the two-level flow's entry point, which serves two-level and
    /// graph-aware predictors alike.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ParameterPredictor::predict`].
    pub(crate) fn predict_for_graph(
        &self,
        graph: &Graph,
        gamma1_p1: f64,
        beta1_p1: f64,
        target_depth: usize,
    ) -> Result<Vec<f64>, QaoaError> {
        let inputs = RowInputs {
            depth1: (gamma1_p1, beta1_p1),
            intermediate: None,
            structure: (self.features == FeatureSet::GraphAware)
                .then(|| stats::feature_vector(graph)),
        };
        self.predict_row(&inputs, target_depth)
    }

    fn predict_row(&self, inputs: &RowInputs, target_depth: usize) -> Result<Vec<f64>, QaoaError> {
        if target_depth == 0 || target_depth > self.max_depth {
            return Err(QaoaError::InvalidDepth {
                depth: target_depth,
            });
        }
        let features = self.features.row(inputs, target_depth)?;
        let mut params = Vec::with_capacity(2 * target_depth);
        for i in 0..target_depth {
            let g = self.gamma_models[i].predict(&features)?;
            params.push(g.clamp(0.0, GAMMA_MAX));
        }
        for i in 0..target_depth {
            let b = self.beta_models[i].predict(&features)?;
            params.push(b.clamp(0.0, BETA_MAX));
        }
        Ok(params)
    }
}

/// Removes rows whose target is a gross outlier (more than 8 median
/// absolute deviations from the median), capped at 10% of the rows.
///
/// QAOA landscapes carry near-degenerate optima in distant basins; the
/// corpus records whichever is best, so a small fraction of targets can sit
/// far from the trend-consistent cluster. Interpolating models (GPR) are
/// destroyed by such rows; this conservative filter is standard robust-
/// regression hygiene and leaves clean tables untouched.
pub(crate) fn drop_target_outliers(x: &linalg::Matrix, y: &[f64]) -> (linalg::Matrix, Vec<f64>) {
    let n = y.len();
    if n < 8 {
        return (x.clone(), y.to_vec());
    }
    let mut sorted = y.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[n / 2];
    let mut deviations: Vec<f64> = y.iter().map(|v| (v - median).abs()).collect();
    let mut dev_sorted = deviations.clone();
    dev_sorted.sort_by(f64::total_cmp);
    let mad = dev_sorted[n / 2].max(1e-9);
    let threshold = 8.0 * mad;
    // Rank rows by deviation and drop the worst offenders, at most 10%.
    let max_drop = n / 10;
    let mut keep: Vec<bool> = deviations.iter().map(|d| *d <= threshold).collect();
    let dropped = keep.iter().filter(|k| !**k).count();
    if dropped > max_drop {
        // Keep the least-deviant among the flagged rows.
        let mut flagged: Vec<usize> = (0..n).filter(|&i| !keep[i]).collect();
        flagged.sort_by(|&a, &b| deviations[a].total_cmp(&deviations[b]));
        for &i in flagged.iter().take(dropped - max_drop) {
            keep[i] = true;
        }
    }
    deviations.clear();
    let rows: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
    if rows.len() == n {
        return (x.clone(), y.to_vec());
    }
    let xf = linalg::Matrix::from_fn(rows.len(), x.cols(), |i, j| x.get(rows[i], j));
    let yf: Vec<f64> = rows.iter().map(|&i| y[i]).collect();
    (xf, yf)
}

impl std::fmt::Debug for ParameterPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParameterPredictor")
            .field("kind", &self.kind)
            .field("max_depth", &self.max_depth)
            .field("features", &self.features)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::DataGenConfig;

    fn tiny_dataset() -> ParameterDataset {
        ParameterDataset::generate(&DataGenConfig {
            n_graphs: 5,
            n_nodes: 5,
            edge_probability: 0.6,
            max_depth: 3,
            restarts: 2,
            seed: 33,
            options: Default::default(),
            trend_preference_margin: 1e-3,
        })
        .unwrap()
    }

    #[test]
    fn train_and_predict_all_kinds() {
        let ds = tiny_dataset();
        for kind in ModelKind::ALL {
            let p = ParameterPredictor::train(kind, &ds).unwrap();
            assert_eq!(p.kind(), kind);
            assert_eq!(p.max_depth(), 3);
            assert_eq!(p.features(), FeatureSet::TwoLevel);
            for pt in 1..=3 {
                let init = p.predict(1.0, 0.5, pt).unwrap();
                assert_eq!(init.len(), 2 * pt);
                for (i, &v) in init.iter().enumerate() {
                    let hi = if i < pt { GAMMA_MAX } else { BETA_MAX };
                    assert!((0.0..=hi).contains(&v), "{kind} param {i} = {v}");
                }
            }
        }
    }

    #[test]
    fn depth_bounds_enforced() {
        let ds = tiny_dataset();
        let p = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        assert!(matches!(
            p.predict(1.0, 0.5, 0),
            Err(QaoaError::InvalidDepth { depth: 0 })
        ));
        assert!(matches!(
            p.predict(1.0, 0.5, 9),
            Err(QaoaError::InvalidDepth { depth: 9 })
        ));
    }

    #[test]
    fn graph_aware_predictor() {
        let ds = tiny_dataset();
        let p =
            ParameterPredictor::train_with(ModelKind::Linear, &ds, FeatureSet::GraphAware).unwrap();
        // The plain entry point has no graph to read.
        assert!(matches!(
            p.predict(1.0, 0.5, 2),
            Err(QaoaError::Ml(MlError::ShapeMismatch {
                expected: 12,
                actual: 3,
                ..
            }))
        ));
        let s = format!("{p:?}");
        assert!(s.contains("GraphAware") && s.contains("max_depth"), "{s}");
        // A two-level predictor ignores the graph.
        let two_level = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let graph = graphs::generators::cycle(5);
        assert_eq!(
            two_level.predict_for_graph(&graph, 1.0, 0.5, 3).unwrap(),
            two_level.predict(1.0, 0.5, 3).unwrap()
        );
    }

    #[test]
    fn hierarchical_predictor() {
        let ds = tiny_dataset();
        let features = FeatureSet::Hierarchical {
            intermediate_depth: 2,
        };
        let p = ParameterPredictor::train_with(ModelKind::Linear, &ds, features).unwrap();
        assert_eq!(p.features(), features);
        let init = p.predict_hierarchical(1.0, 0.5, 0.9, 0.4, 3).unwrap();
        assert_eq!(init.len(), 6);
        // Wrong entry point rejected both ways.
        assert!(p.predict(1.0, 0.5, 3).is_err());
        let two_level = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        assert!(two_level
            .predict_hierarchical(1.0, 0.5, 0.9, 0.4, 3)
            .is_err());
    }

    #[test]
    fn stage1_prediction_tracks_depth1_feature() {
        // With a linear model, predicting pt=1 for a feature vector seen in
        // training (depth-1 rows are identities) stays close to γ₁.
        let ds = tiny_dataset();
        let p = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let r = ds.record(0, 1).unwrap();
        let init = p.predict(r.gammas[0], r.betas[0], 1).unwrap();
        // Loose tolerance: the stage-1 model is trained across depths.
        assert!((init[0] - r.gammas[0]).abs() < 1.5);
    }
}

#[cfg(test)]
mod outlier_tests {
    use super::drop_target_outliers;
    use linalg::Matrix;

    #[test]
    fn clean_table_untouched() {
        let x = Matrix::from_fn(10, 2, |i, j| (i + j) as f64);
        let y: Vec<f64> = (0..10).map(|i| 0.5 + 0.01 * i as f64).collect();
        let (xf, yf) = drop_target_outliers(&x, &y);
        assert_eq!(xf.rows(), 10);
        assert_eq!(yf, y);
    }

    #[test]
    fn gross_outlier_removed() {
        let x = Matrix::from_fn(12, 1, |i, _| i as f64);
        let mut y: Vec<f64> = (0..12).map(|i| 0.6 + 0.02 * i as f64).collect();
        y[5] = 6.0; // far-basin record
        let (xf, yf) = drop_target_outliers(&x, &y);
        assert_eq!(xf.rows(), 11);
        assert!(yf.iter().all(|v| *v < 2.0));
    }

    #[test]
    fn drop_fraction_capped() {
        // A third of rows "outlying": cap keeps at least 90%.
        let x = Matrix::from_fn(12, 1, |i, _| i as f64);
        let y: Vec<f64> = (0..12)
            .map(|i| if i % 3 == 0 { 50.0 + i as f64 } else { 1.0 })
            .collect();
        let (_, yf) = drop_target_outliers(&x, &y);
        assert!(yf.len() >= 11, "dropped too many: {}", 12 - yf.len());
    }

    #[test]
    fn tiny_tables_skipped() {
        let x = Matrix::from_fn(4, 1, |i, _| i as f64);
        let y = vec![0.0, 100.0, 0.0, 0.0];
        let (_, yf) = drop_target_outliers(&x, &y);
        assert_eq!(yf.len(), 4);
    }
}
