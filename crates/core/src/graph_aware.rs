//! Graph-aware parameter prediction (extension).
//!
//! The paper's predictor sees only `(γ₁OPT(1), β₁OPT(1), pt)` — nothing
//! about the problem graph itself. That is fine inside one ensemble (all
//! its graphs look statistically alike) but is exactly what should fail
//! when the test graph comes from a different family. This module augments
//! the feature vector with the nine structural graph features of
//! [`graphs::stats::feature_vector`] (size, density, degree statistics,
//! triangles, clustering), so the model can condition its prediction on
//! *what kind of graph* it is initializing. The `generalization_study`
//! benchmark compares the two predictors across graph families.

use graphs::{stats, Graph};
use linalg::Matrix;
use ml::{ModelKind, Regressor};
use optimize::{Optimizer, Options};
use rand::Rng;

use crate::datagen::ParameterDataset;
use crate::features::{ParamKind, StageTable};
use crate::predictor::drop_target_outliers;
use crate::{MaxCutProblem, QaoaError, QaoaInstance, TwoLevelOutcome, BETA_MAX, GAMMA_MAX};

/// Builds the graph-aware feature vector:
/// `[γ₁(1), β₁(1), pt]` followed by the 9 structural features.
#[must_use]
pub fn graph_aware_features(
    gamma1_p1: f64,
    beta1_p1: f64,
    target_depth: usize,
    graph: &Graph,
) -> Vec<f64> {
    let mut f = vec![gamma1_p1, beta1_p1, target_depth as f64];
    f.extend(stats::feature_vector(graph));
    f
}

/// Extracts per-stage training tables with graph-aware features.
///
/// # Errors
///
/// Returns [`QaoaError::Parse`] if some graph lacks a depth-1 record.
pub fn graph_aware_tables(dataset: &ParameterDataset) -> Result<Vec<StageTable>, QaoaError> {
    let base: Vec<(f64, f64)> = (0..dataset.graphs().len())
        .map(|g| {
            dataset
                .record(g, 1)
                .map(|r| (r.gammas[0], r.betas[0]))
                .ok_or_else(|| QaoaError::Parse {
                    line: 0,
                    message: format!("graph {g} lacks a depth-1 record"),
                })
        })
        .collect::<Result<_, _>>()?;
    let graph_feats: Vec<Vec<f64>> = dataset.graphs().iter().map(stats::feature_vector).collect();

    let mut tables = Vec::new();
    for kind in ParamKind::BOTH {
        for stage in 1..=dataset.max_depth() {
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut y = Vec::new();
            for r in dataset.records() {
                if r.depth < stage {
                    continue;
                }
                let (g1, b1) = base[r.graph_id];
                let mut row = vec![g1, b1, r.depth as f64];
                row.extend(graph_feats[r.graph_id].iter().copied());
                rows.push(row);
                y.push(match kind {
                    ParamKind::Gamma => r.gammas[stage - 1],
                    ParamKind::Beta => r.betas[stage - 1],
                });
            }
            if rows.is_empty() {
                continue;
            }
            let x = Matrix::from_rows(&rows).map_err(|e| QaoaError::Parse {
                line: 0,
                message: format!("graph-aware feature table: {e}"),
            })?;
            tables.push(StageTable { kind, stage, x, y });
        }
    }
    Ok(tables)
}

/// A parameter predictor whose features include graph structure.
///
/// # Example
///
/// ```no_run
/// use graphs::generators;
/// use ml::ModelKind;
/// use qaoa::datagen::{DataGenConfig, ParameterDataset};
/// use qaoa::graph_aware::GraphAwarePredictor;
/// # fn main() -> Result<(), qaoa::QaoaError> {
/// let corpus = ParameterDataset::generate(&DataGenConfig::quick())?;
/// let predictor = GraphAwarePredictor::train(ModelKind::Gpr, &corpus)?;
/// let graph = generators::cycle(6);
/// let init = predictor.predict(1.2, 0.6, 3, &graph)?;
/// assert_eq!(init.len(), 6);
/// # Ok(())
/// # }
/// ```
pub struct GraphAwarePredictor {
    kind: ModelKind,
    max_depth: usize,
    gamma_models: Vec<Box<dyn Regressor>>,
    beta_models: Vec<Box<dyn Regressor>>,
}

impl GraphAwarePredictor {
    /// Trains one regression per response stage on graph-aware features.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction and model-fitting errors.
    pub fn train(kind: ModelKind, dataset: &ParameterDataset) -> Result<Self, QaoaError> {
        let tables = graph_aware_tables(dataset)?;
        let mut gamma_models: Vec<Box<dyn Regressor>> = Vec::new();
        let mut beta_models: Vec<Box<dyn Regressor>> = Vec::new();
        let mut trained_depth = 0usize;
        for t in tables {
            let (x, y) = drop_target_outliers(&t.x, &t.y);
            let mut model = kind.build();
            model.fit(&x, &y)?;
            match t.kind {
                ParamKind::Gamma => gamma_models.push(model),
                ParamKind::Beta => beta_models.push(model),
            }
            trained_depth = trained_depth.max(t.stage);
        }
        if gamma_models.is_empty() || gamma_models.len() != beta_models.len() {
            return Err(QaoaError::Parse {
                line: 0,
                message: "corpus produced no usable graph-aware tables".into(),
            });
        }
        Ok(Self {
            kind,
            max_depth: dataset.max_depth().min(trained_depth),
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

    /// Predicts packed initial parameters `[γ₁…γ_pt, β₁…β_pt]` for `graph`,
    /// clamped into the paper's domain.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] outside `1..=max_depth()`.
    /// * Model prediction errors.
    pub fn predict(
        &self,
        gamma1_p1: f64,
        beta1_p1: f64,
        target_depth: usize,
        graph: &Graph,
    ) -> Result<Vec<f64>, QaoaError> {
        if target_depth == 0 || target_depth > self.max_depth {
            return Err(QaoaError::InvalidDepth {
                depth: target_depth,
            });
        }
        let features = graph_aware_features(gamma1_p1, beta1_p1, target_depth, graph);
        let mut params = Vec::with_capacity(2 * target_depth);
        for i in 0..target_depth {
            params.push(
                self.gamma_models[i]
                    .predict(&features)?
                    .clamp(0.0, GAMMA_MAX),
            );
        }
        for i in 0..target_depth {
            params.push(self.beta_models[i].predict(&features)?.clamp(0.0, BETA_MAX));
        }
        Ok(params)
    }

    /// Runs the two-level flow with graph-aware prediction (level-1 random
    /// optimization → graph-aware init → level-2 optimization).
    ///
    /// # Errors
    ///
    /// Depth, instance and optimizer errors from either level.
    pub fn run_two_level<R: Rng + ?Sized>(
        &self,
        problem: &MaxCutProblem,
        target_depth: usize,
        optimizer: &dyn Optimizer,
        options: &Options,
        rng: &mut R,
    ) -> Result<TwoLevelOutcome, QaoaError> {
        let level1 = QaoaInstance::new(problem.clone(), 1)?;
        let l1 = level1.optimize_multistart(optimizer, 1, rng, options)?;
        let l1_canon = crate::canonical::canonicalize_packed(&l1.params);
        let init = self.predict(l1_canon[0], l1_canon[1], target_depth, problem.graph())?;
        let level2 = QaoaInstance::new(problem.clone(), target_depth)?;
        crate::twolevel::optimize_level2(&level2, optimizer, options, &l1, None, init)
    }
}

impl std::fmt::Debug for GraphAwarePredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphAwarePredictor")
            .field("kind", &self.kind)
            .field("max_depth", &self.max_depth)
            .field("n_features", &12usize)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::DataGenConfig;
    use graphs::generators;
    use optimize::Lbfgsb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_dataset() -> ParameterDataset {
        ParameterDataset::generate(&DataGenConfig {
            n_graphs: 6,
            n_nodes: 5,
            edge_probability: 0.6,
            max_depth: 3,
            restarts: 3,
            seed: 5,
            options: Options::default(),
            trend_preference_margin: 1e-3,
        })
        .expect("corpus")
    }

    #[test]
    fn features_have_twelve_entries() {
        let g = generators::cycle(6);
        let f = graph_aware_features(1.0, 0.5, 3, &g);
        assert_eq!(f.len(), 12);
        assert_eq!(&f[..3], &[1.0, 0.5, 3.0]);
        assert_eq!(f[3], 6.0); // n
    }

    #[test]
    fn tables_match_plain_tables_row_counts() {
        let ds = tiny_dataset();
        let plain = crate::features::two_level_tables(&ds).unwrap();
        let aware = graph_aware_tables(&ds).unwrap();
        assert_eq!(plain.len(), aware.len());
        for (p, a) in plain.iter().zip(&aware) {
            assert_eq!(p.x.rows(), a.x.rows());
            assert_eq!(p.x.cols() + 9, a.x.cols());
            assert_eq!(p.y, a.y);
        }
    }

    #[test]
    fn train_predict_in_domain() {
        let ds = tiny_dataset();
        let predictor = GraphAwarePredictor::train(ModelKind::Linear, &ds).unwrap();
        assert_eq!(predictor.kind(), ModelKind::Linear);
        let g = generators::cycle(5);
        let init = predictor.predict(1.0, 0.4, 3, &g).unwrap();
        assert_eq!(init.len(), 6);
        for (i, v) in init.iter().enumerate() {
            let max = if i < 3 { GAMMA_MAX } else { BETA_MAX };
            assert!((0.0..=max).contains(v), "param {i} = {v}");
        }
        assert!(matches!(
            predictor.predict(1.0, 0.4, 9, &g),
            Err(QaoaError::InvalidDepth { .. })
        ));
        assert!(matches!(
            predictor.predict(1.0, 0.4, 0, &g),
            Err(QaoaError::InvalidDepth { .. })
        ));
    }

    #[test]
    fn two_level_run_works_end_to_end() {
        let ds = tiny_dataset();
        let predictor = GraphAwarePredictor::train(ModelKind::Linear, &ds).unwrap();
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let out = predictor
            .run_two_level(
                &problem,
                2,
                &Lbfgsb::default(),
                &Options::default(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.params.len(), 4);
        assert!(out.level1_calls > 0 && out.level2_calls > 0);
        assert!(out.approximation_ratio > 0.6);
    }

    #[test]
    fn two_level_run_matches_recorded_bits() {
        // Recorded from the implementation that built its own
        // `TwoLevelOutcome` here instead of sharing the level-2 routine.
        use crate::twolevel::tests::{pinned, pinned_problem};
        let predictor = GraphAwarePredictor::train(ModelKind::Linear, &tiny_dataset()).unwrap();
        let out = predictor
            .run_two_level(
                &pinned_problem(),
                2,
                &Lbfgsb::default(),
                &Options::default().with_max_iters(40),
                &mut StdRng::seed_from_u64(8),
            )
            .unwrap();
        assert_eq!(
            pinned(&out),
            (
                vec![
                    0x3fe5f071e47e214c,
                    0x400731830b86f4d5,
                    0x3fdc8b803184d400,
                    0x3ffb2f8159e2c8e5
                ],
                0x401431f373a32c21,
                0x3fe71483f1df0ddd,
                [16, 0, 33, 23],
                vec![
                    0x3fe8a7414231f7c8,
                    0x40020bec470eb6ee,
                    0x3fea7ad34d4d2338,
                    0x3fe0d7f2f4a7199d
                ],
            )
        );
    }

    #[test]
    fn debug_formats() {
        let ds = tiny_dataset();
        let predictor = GraphAwarePredictor::train(ModelKind::Linear, &ds).unwrap();
        let s = format!("{predictor:?}");
        assert!(s.contains("GraphAwarePredictor"));
        assert!(s.contains("max_depth"));
    }
}
