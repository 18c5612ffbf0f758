//! Feature extraction for the parameter predictor (§II-D).
//!
//! The two-level approach uses three features — `γ₁OPT(p=1)`, `β₁OPT(p=1)`
//! and the target depth `pt` — and predicts the `2·pt` responses
//! `γ₁…γ_pt, β₁…β_pt`. Because the response dimension varies with `pt`,
//! training is organized **per stage**: one regression per response variable
//! `γᵢ` (respectively `βᵢ`), trained on every record whose depth is ≥ i,
//! with the record's depth as the third feature. This reproduces the
//! correlation structure the paper analyzes in Fig. 5 (each `γᵢOPT`/`βᵢOPT`
//! against `γ₁OPT(p=1)`, `β₁OPT(p=1)` and `p`).
//!
//! A [`FeatureSet`] fixes the row layout: the paper's three features, the
//! hierarchical variant (§I(d)) that adds the optimal parameters of an
//! intermediate-depth instance, or the graph-aware extension that adds the
//! graph's structure.

use graphs::stats;
use linalg::Matrix;
use ml::MlError;

use crate::datagen::{OptimalRecord, ParameterDataset};
use crate::QaoaError;

/// Which parameter family a table/model targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Phase-separation parameters γ.
    Gamma,
    /// Mixing parameters β.
    Beta,
}

impl ParamKind {
    /// Both kinds, γ first (matching the parameter layout).
    pub const BOTH: [ParamKind; 2] = [ParamKind::Gamma, ParamKind::Beta];
}

/// A per-stage training table: features `X` and the single response column.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StageTable {
    /// Which family the response belongs to.
    pub(crate) kind: ParamKind,
    /// Stage index `i` (1-based).
    pub(crate) stage: usize,
    /// Feature rows.
    pub(crate) x: Matrix,
    /// Response values (`γᵢ` or `βᵢ` at the row's depth).
    pub(crate) y: Vec<f64>,
}

/// The inputs a predictor's feature row holds — one row layout per set.
///
/// Every row starts from the depth-1 optimum `γ₁OPT(1), β₁OPT(1)` and
/// carries the target depth `pt`; the sets differ in what they add.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureSet {
    /// The paper's two-level row `[γ₁(1), β₁(1), pt]` (§II-D).
    TwoLevel,
    /// The hierarchical row `[γ₁(1), β₁(1), γ₁(pm), β₁(pm), pm, pt]`
    /// (§I(d)), where `pm` is the intermediate depth whose optimum has been
    /// computed. Its tables keep only records deeper than `pm`, the regime
    /// where the hierarchical flow is used.
    Hierarchical {
        /// The intermediate depth `pm`.
        intermediate_depth: usize,
    },
    /// The graph-aware row (extension): `[γ₁(1), β₁(1), pt]` followed by
    /// the nine structural features of [`stats::feature_vector`] (size,
    /// density, degree statistics, triangles, clustering).
    ///
    /// The paper's row sees nothing about the problem graph itself. That is
    /// fine inside one ensemble (all its graphs look statistically alike)
    /// but is exactly what should fail when the test graph comes from a
    /// different family. The structural features let the model condition
    /// its prediction on *what kind of graph* it is initializing; the
    /// `generalization_study` benchmark compares the two rows across graph
    /// families. The two-level flow hands the problem's graph to the
    /// predictor:
    ///
    /// ```no_run
    /// use graphs::generators;
    /// use ml::ModelKind;
    /// use optimize::Lbfgsb;
    /// use qaoa::datagen::{DataGenConfig, ParameterDataset};
    /// use qaoa::features::FeatureSet;
    /// use qaoa::{MaxCutProblem, ParameterPredictor, Scenario, TwoLevelConfig, TwoLevelFlow};
    /// use rand::SeedableRng;
    /// # fn main() -> Result<(), qaoa::QaoaError> {
    /// let corpus = ParameterDataset::generate(&DataGenConfig::quick())?;
    /// let aware = ParameterPredictor::train_with(ModelKind::Gpr, &corpus, FeatureSet::GraphAware)?;
    /// let problem = MaxCutProblem::new(&generators::cycle(6))?;
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    /// let config = TwoLevelConfig::default();
    /// let out = TwoLevelFlow::new(&aware)
    ///     .run(&problem, 3, &Lbfgsb::default(), &config, &mut rng, &Scenario::Exact, 0)?;
    /// assert_eq!(out.predicted_init.len(), 6);
    /// # Ok(())
    /// # }
    /// ```
    GraphAware,
}

/// One graph's inputs to its feature rows. A row reads the fields its
/// [`FeatureSet`] needs and rejects inputs that lack them.
pub(crate) struct RowInputs {
    /// `(γ₁, β₁)` of the depth-1 optimum.
    pub(crate) depth1: (f64, f64),
    /// `(γ₁, β₁)` of the intermediate-depth optimum (hierarchical rows).
    pub(crate) intermediate: Option<(f64, f64)>,
    /// [`stats::feature_vector`] of the graph (graph-aware rows).
    pub(crate) structure: Option<Vec<f64>>,
}

impl RowInputs {
    /// Columns of the row these inputs fill.
    fn width(&self) -> usize {
        let intermediate = self.intermediate.map_or(0, |_| 3);
        3 + intermediate + self.structure.as_ref().map_or(0, Vec::len)
    }
}

impl FeatureSet {
    /// Columns of one feature row: 3, 6 or 12.
    #[must_use]
    pub fn width(self) -> usize {
        match self {
            FeatureSet::TwoLevel => 3,
            FeatureSet::Hierarchical { .. } => 6,
            FeatureSet::GraphAware => 12,
        }
    }

    /// The feature row of a depth-`target_depth` instance, in the set's
    /// column order.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::Ml`] if `inputs` lack what this set reads.
    /// * [`QaoaError::InvalidDepth`] for a depth beyond `u32::MAX`.
    pub(crate) fn row(
        self,
        inputs: &RowInputs,
        target_depth: usize,
    ) -> Result<Vec<f64>, QaoaError> {
        let missing = || {
            QaoaError::Ml(MlError::ShapeMismatch {
                expected: self.width(),
                actual: inputs.width(),
                what: "features",
            })
        };
        let (g1, b1) = inputs.depth1;
        let pt = depth_feature(target_depth)?;
        let mut row = Vec::with_capacity(self.width());
        match self {
            FeatureSet::TwoLevel => row.extend([g1, b1, pt]),
            FeatureSet::Hierarchical { intermediate_depth } => {
                let (gm, bm) = inputs.intermediate.ok_or_else(missing)?;
                row.extend([g1, b1, gm, bm, depth_feature(intermediate_depth)?, pt]);
            }
            FeatureSet::GraphAware => {
                row.extend([g1, b1, pt]);
                row.extend_from_slice(inputs.structure.as_deref().ok_or_else(missing)?);
            }
        }
        Ok(row)
    }

    /// Graph `g`'s row inputs, read from its corpus records; the
    /// intermediate optimum and the structural features only for the sets
    /// that use them.
    fn graph_inputs(self, dataset: &ParameterDataset, g: usize) -> Result<RowInputs, QaoaError> {
        let first_layer = |depth: usize| {
            dataset
                .record(g, depth)
                .map(|r| (r.gammas[0], r.betas[0]))
                .ok_or_else(|| QaoaError::Parse {
                    line: 0,
                    message: format!("graph {g} lacks a depth-{depth} record"),
                })
        };
        Ok(RowInputs {
            depth1: first_layer(1)?,
            intermediate: match self {
                FeatureSet::Hierarchical { intermediate_depth } => {
                    Some(first_layer(intermediate_depth)?)
                }
                _ => None,
            },
            structure: (self == FeatureSet::GraphAware)
                .then(|| stats::feature_vector(&dataset.graphs()[g])),
        })
    }
}

/// A depth as a feature value. Depths are small counts, so the conversion
/// goes through `u32` and is exact; a depth beyond `u32::MAX` is rejected
/// rather than rounded.
fn depth_feature(depth: usize) -> Result<f64, QaoaError> {
    u32::try_from(depth)
        .map(f64::from)
        .map_err(|_| QaoaError::InvalidDepth { depth })
}

/// Extracts every per-stage training table of a corpus under `features`.
///
/// For stage `i` and kind `k`, rows are all `(graph, depth p ≥ i)` records
/// (hierarchical sets keep only `p > pm`); each graph's inputs come from
/// its depth-1 record (and its depth-`pm` record).
///
/// # Errors
///
/// Returns [`QaoaError::Parse`] if some graph lacks a record its feature
/// set reads (a corpus invariant violation).
pub(crate) fn stage_tables(
    dataset: &ParameterDataset,
    features: FeatureSet,
) -> Result<Vec<StageTable>, QaoaError> {
    let inputs = (0..dataset.graphs().len())
        .map(|g| features.graph_inputs(dataset, g))
        .collect::<Result<Vec<_>, _>>()?;
    let deeper_than = match features {
        FeatureSet::Hierarchical { intermediate_depth } => intermediate_depth,
        _ => 0,
    };
    let records: Vec<&OptimalRecord> = dataset
        .records()
        .iter()
        .filter(|r| r.depth > deeper_than)
        .collect();
    let rows = records
        .iter()
        .map(|r| features.row(&inputs[r.graph_id], r.depth))
        .collect::<Result<Vec<_>, _>>()?;
    let mut tables = Vec::new();
    for kind in ParamKind::BOTH {
        for stage in 1..=dataset.max_depth() {
            let picked: Vec<usize> = (0..records.len())
                .filter(|&i| records[i].depth >= stage)
                .collect();
            if picked.is_empty() {
                continue;
            }
            let x = Matrix::from_fn(picked.len(), features.width(), |i, j| rows[picked[i]][j]);
            let y = picked
                .iter()
                .map(|&i| match kind {
                    ParamKind::Gamma => records[i].gammas[stage - 1],
                    ParamKind::Beta => records[i].betas[stage - 1],
                })
                .collect();
            tables.push(StageTable { kind, stage, x, y });
        }
    }
    Ok(tables)
}

/// One Fig. 5 correlation row: `(kind, stage, r_gamma1, r_beta1, r_depth)`.
pub type CorrelationRow = (ParamKind, usize, f64, f64, f64);

/// The Fig. 5 correlation analysis: Pearson correlation between each
/// predictor (`γ₁(1)`, `β₁(1)`, `p`) and each response (`γᵢ`, `βᵢ`).
///
/// Returns rows `(kind, stage, r_gamma1, r_beta1, r_depth)`.
///
/// # Errors
///
/// Propagates table-extraction errors; correlation over fewer than two rows
/// yields zeros rather than an error.
pub fn predictor_response_correlations(
    dataset: &ParameterDataset,
) -> Result<Vec<CorrelationRow>, QaoaError> {
    let tables = stage_tables(dataset, FeatureSet::TwoLevel)?;
    let mut out = Vec::with_capacity(tables.len());
    for t in tables {
        let col = |j: usize| -> Vec<f64> { (0..t.x.rows()).map(|i| t.x.get(i, j)).collect() };
        let r = |a: &[f64]| ml::metrics::pearson(a, &t.y).unwrap_or(0.0);
        out.push((t.kind, t.stage, r(&col(0)), r(&col(1)), r(&col(2))));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{DataGenConfig, ParameterDataset};
    use graphs::generators;

    fn tiny_dataset() -> ParameterDataset {
        ParameterDataset::generate(&DataGenConfig {
            n_graphs: 4,
            n_nodes: 5,
            edge_probability: 0.6,
            max_depth: 3,
            restarts: 2,
            seed: 21,
            options: Default::default(),
            trend_preference_margin: 1e-3,
        })
        .unwrap()
    }

    fn hierarchical(intermediate_depth: usize) -> FeatureSet {
        FeatureSet::Hierarchical { intermediate_depth }
    }

    #[test]
    fn feature_vectors() {
        let inputs = RowInputs {
            depth1: (1.0, 2.0),
            intermediate: Some((3.0, 4.0)),
            structure: Some(stats::feature_vector(&generators::cycle(6))),
        };
        let two_level = FeatureSet::TwoLevel.row(&inputs, 4).unwrap();
        assert_eq!(two_level, vec![1.0, 2.0, 4.0]);
        let hier = hierarchical(2).row(&inputs, 5).unwrap();
        assert_eq!(hier, vec![1.0, 2.0, 3.0, 4.0, 2.0, 5.0]);
        let aware = FeatureSet::GraphAware.row(&inputs, 3).unwrap();
        for (set, row) in [
            (FeatureSet::TwoLevel, two_level),
            (hierarchical(2), hier),
            (FeatureSet::GraphAware, aware),
        ] {
            assert_eq!(set.width(), row.len());
        }
        // A row whose inputs lack what its set reads is rejected.
        let bare = RowInputs {
            depth1: (1.0, 2.0),
            intermediate: None,
            structure: None,
        };
        for set in [hierarchical(2), FeatureSet::GraphAware] {
            assert!(matches!(
                set.row(&bare, 3),
                Err(QaoaError::Ml(MlError::ShapeMismatch { actual: 3, .. }))
            ));
        }
    }

    #[test]
    fn table_shapes() {
        let ds = tiny_dataset();
        let tables = stage_tables(&ds, FeatureSet::TwoLevel).unwrap();
        // 2 kinds × 3 stages.
        assert_eq!(tables.len(), 6);
        for t in &tables {
            assert_eq!(t.x.cols(), 3);
            assert_eq!(t.x.rows(), t.y.len());
            // Stage i uses records of depth >= i: 4 graphs × (3 − i + 1).
            assert_eq!(t.x.rows(), 4 * (3 - t.stage + 1));
            // Depth feature within range.
            for i in 0..t.x.rows() {
                let d = t.x.get(i, 2);
                assert!((t.stage as f64..=3.0).contains(&d));
            }
        }
    }

    #[test]
    fn graph_aware_tables_match_two_level_row_counts() {
        let ds = tiny_dataset();
        let plain = stage_tables(&ds, FeatureSet::TwoLevel).unwrap();
        let aware = stage_tables(&ds, FeatureSet::GraphAware).unwrap();
        assert_eq!(plain.len(), aware.len());
        for (p, a) in plain.iter().zip(&aware) {
            assert_eq!(a.x.cols(), 12);
            assert_eq!(p.x.rows(), a.x.rows());
            assert_eq!(p.y, a.y);
            for i in 0..p.x.rows() {
                for j in 0..3 {
                    assert_eq!(p.x.get(i, j).to_bits(), a.x.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn stage1_depth1_rows_are_identity() {
        // For stage 1, depth-1 rows have response == first feature (γ case).
        let ds = tiny_dataset();
        let tables = stage_tables(&ds, FeatureSet::TwoLevel).unwrap();
        let t = tables
            .iter()
            .find(|t| t.kind == ParamKind::Gamma && t.stage == 1)
            .unwrap();
        for i in 0..t.x.rows() {
            if t.x.get(i, 2) == 1.0 {
                assert!((t.x.get(i, 0) - t.y[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hierarchical_tables_exclude_shallow_records() {
        let ds = tiny_dataset();
        let tables = stage_tables(&ds, hierarchical(2)).unwrap();
        for t in &tables {
            assert_eq!(t.x.cols(), 6);
            for i in 0..t.x.rows() {
                assert!(t.x.get(i, 5) > 2.0); // target depth > pm
            }
        }
        // Stage tables only exist where depth > pm ≥ stage rows remain.
        assert!(tables.iter().all(|t| !t.y.is_empty()));
        // A corpus without depth-pm records cannot feed the set.
        assert!(matches!(
            stage_tables(&ds, hierarchical(7)),
            Err(QaoaError::Parse { .. })
        ));
    }

    #[test]
    fn correlations_are_bounded() {
        let ds = tiny_dataset();
        let rows = predictor_response_correlations(&ds).unwrap();
        assert_eq!(rows.len(), 6);
        for (_, _, r1, r2, r3) in rows {
            for r in [r1, r2, r3] {
                assert!((-1.0..=1.0).contains(&r), "correlation {r} out of range");
            }
        }
    }
}
