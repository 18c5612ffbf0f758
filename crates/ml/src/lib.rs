//! Supervised regression models, metrics and preprocessing.
//!
//! This crate replaces the MATLAB Statistics & ML Toolbox models the paper
//! trains as QAOA parameter predictors:
//!
//! * [`GprModel`] — Gaussian process regression (`fitrgp`), the paper's best
//!   model,
//! * [`LinearModel`] — ordinary least squares (`fitlm`),
//! * [`TreeModel`] — CART regression tree (`fitrtree`),
//! * [`SvrModel`] — ε-support-vector regression (`fitrsvm`),
//!
//! plus the shared machinery: the [`Regressor`] trait, feature
//! standardization ([`StandardScaler`]), and the evaluation metrics of
//! §III-C ([`metrics`]: MSE, RMSE, MAE, R², adjusted R², Pearson
//! correlation).
//!
//! The QAOA predictor (`qaoa::ParameterPredictor`) fits one [`Regressor`]
//! per stage parameter (`γᵢ`, `βᵢ`) and makes the paper's 20:80 split by
//! graph with `qaoa::datagen::ParameterDataset::split_by_graph`.
//!
//! # Example
//!
//! ```
//! use linalg::Matrix;
//! use ml::{LinearModel, Regressor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Fit y = 1 + 2 x.
//! let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]])?;
//! let y = [1.0, 3.0, 5.0, 7.0];
//! let mut model = LinearModel::new();
//! model.fit(&x, &y)?;
//! assert!((model.predict(&[4.0])? - 9.0).abs() < 1e-10);
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

mod convert;
mod error;
mod forest;
mod gpr;
mod kernel;
mod knn;
mod linear;
pub mod metrics;
mod params;
mod ridge;
mod scaler;
mod svr;
mod tree;

pub use error::MlError;
pub use forest::ForestModel;
pub use gpr::GprModel;
pub use kernel::RbfKernel;
pub use knn::KnnModel;
pub use linear::LinearModel;
pub use params::ModelParams;
pub use ridge::RidgeModel;
pub use scaler::StandardScaler;
pub use svr::SvrModel;
pub use tree::TreeModel;

use linalg::Matrix;

/// A single-output regression model.
///
/// All four paper models implement this trait, which is object-safe so the
/// QAOA predictor can switch models at run time (§III-C compares them).
pub trait Regressor: Send + Sync {
    /// Fits the model to feature rows `x` and targets `y`.
    ///
    /// # Errors
    ///
    /// * [`MlError::ShapeMismatch`] if `x.rows() != y.len()`.
    /// * [`MlError::EmptyTrainingSet`] for zero rows.
    /// * Model-specific numerical failures ([`MlError::Numerical`]).
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError>;

    /// Predicts the target for one feature vector.
    ///
    /// # Errors
    ///
    /// * [`MlError::NotFitted`] before [`Regressor::fit`] succeeds.
    /// * [`MlError::ShapeMismatch`] for a wrong feature count.
    fn predict(&self, x: &[f64]) -> Result<f64, MlError>;

    /// Predicts targets for every row of `x`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Regressor::predict`].
    fn predict_batch(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        (0..x.rows()).map(|i| self.predict(x.row(i))).collect()
    }

    /// Short identifier used in comparison tables (e.g. `"GPR"`).
    fn name(&self) -> &'static str;

    /// Exports the fitted model's complete learned state.
    ///
    /// The returned [`ModelParams`] round-trips through
    /// [`ModelKind::from_params`] into a model whose predictions are
    /// bit-identical to this one's.
    ///
    /// # Errors
    ///
    /// * [`MlError::NotFitted`] before [`Regressor::fit`] succeeds.
    fn to_params(&self) -> Result<ModelParams, MlError>;
}

/// The four model families compared in §III-C, plus the extension models
/// ([`RidgeModel`], [`KnnModel`], [`ForestModel`]) evaluated alongside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Gaussian process regression (the paper's winner).
    Gpr,
    /// Ordinary least squares.
    Linear,
    /// CART regression tree.
    Tree,
    /// ε-support-vector regression.
    Svr,
    /// Ridge-regularized linear regression (extension).
    Ridge,
    /// k-nearest-neighbour regression (extension).
    Knn,
    /// Random-forest regression (extension).
    Forest,
}

impl ModelKind {
    /// The four paper kinds in the paper's order (GPR, LM, RTREE, RSVM).
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Gpr,
        ModelKind::Linear,
        ModelKind::Tree,
        ModelKind::Svr,
    ];

    /// The paper's four kinds followed by the three extension models.
    pub const EXTENDED: [ModelKind; 7] = [
        ModelKind::Gpr,
        ModelKind::Linear,
        ModelKind::Tree,
        ModelKind::Svr,
        ModelKind::Ridge,
        ModelKind::Knn,
        ModelKind::Forest,
    ];

    /// Instantiates a default-configured model of this kind.
    #[must_use]
    pub fn build(self) -> Box<dyn Regressor> {
        match self {
            ModelKind::Gpr => Box::new(GprModel::default()),
            ModelKind::Linear => Box::new(LinearModel::new()),
            ModelKind::Tree => Box::new(TreeModel::default()),
            ModelKind::Svr => Box::new(SvrModel::default()),
            ModelKind::Ridge => Box::new(RidgeModel::default()),
            ModelKind::Knn => Box::new(KnnModel::default()),
            ModelKind::Forest => Box::new(ForestModel::default()),
        }
    }

    /// The paper's abbreviation for this model (extensions use our names).
    #[must_use]
    pub fn abbreviation(self) -> &'static str {
        match self {
            ModelKind::Gpr => "GPR",
            ModelKind::Linear => "LM",
            ModelKind::Tree => "RTREE",
            ModelKind::Svr => "RSVM",
            ModelKind::Ridge => "RIDGE",
            ModelKind::Knn => "KNN",
            ModelKind::Forest => "RFOREST",
        }
    }

    /// The inverse of [`ModelKind::abbreviation`] (model artifacts store the
    /// abbreviation as the kind tag).
    #[must_use]
    pub fn from_abbreviation(abbr: &str) -> Option<ModelKind> {
        ModelKind::EXTENDED
            .into_iter()
            .find(|kind| kind.abbreviation() == abbr)
    }

    /// Rebuilds a fitted model of this kind from exported parameters.
    ///
    /// The result predicts bit-identically to the model that produced
    /// `params` via [`Regressor::to_params`].
    ///
    /// # Errors
    ///
    /// [`MlError::Numerical`] when `params` is truncated, carries trailing
    /// values, or encodes an invalid state for this kind.
    pub fn from_params(self, params: &ModelParams) -> Result<Box<dyn Regressor>, MlError> {
        Ok(match self {
            ModelKind::Gpr => Box::new(GprModel::from_params(params)?),
            ModelKind::Linear => Box::new(LinearModel::from_params(params)?),
            ModelKind::Tree => Box::new(TreeModel::from_params(params)?),
            ModelKind::Svr => Box::new(SvrModel::from_params(params)?),
            ModelKind::Ridge => Box::new(RidgeModel::from_params(params)?),
            ModelKind::Knn => Box::new(KnnModel::from_params(params)?),
            ModelKind::Forest => Box::new(ForestModel::from_params(params)?),
        })
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbreviation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_kind_roundtrip() {
        for kind in ModelKind::ALL {
            let model = kind.build();
            assert!(!model.name().is_empty());
            assert_eq!(kind.to_string(), kind.abbreviation());
        }
    }

    /// A 24-sample, 3-feature training set and 26 queries: the training
    /// rows plus two points off them.
    fn fixture() -> (Matrix, Vec<f64>, Vec<Vec<f64>>) {
        let rows: Vec<Vec<f64>> = (0..24)
            .map(|i| {
                let t = i as f64 * 0.37;
                vec![t.sin(), t * 0.25, (i % 5) as f64]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..24)
            .map(|i| {
                let t = i as f64 * 0.37;
                0.5 * t.sin() + 0.1 * t
            })
            .collect();
        let queries: Vec<Vec<f64>> = rows
            .iter()
            .cloned()
            .chain([vec![0.2, 1.3, 2.0], vec![-0.9, 0.0, 4.5]])
            .collect();
        (x, y, queries)
    }

    #[test]
    fn params_roundtrip_is_bit_identical_for_every_kind() {
        let (x, y, queries) = fixture();
        for kind in ModelKind::EXTENDED {
            let mut model = kind.build();
            model.fit(&x, &y).unwrap();
            let params = model.to_params().unwrap();
            let restored = kind.from_params(&params).unwrap();
            for q in &queries {
                let a = model.predict(q).unwrap();
                let b = restored.predict(q).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "{kind} at {q:?}");
            }
            // The restored model exports the same parameters again.
            assert_eq!(params, restored.to_params().unwrap(), "{kind}");
        }
    }

    #[test]
    fn predictions_match_recorded_bits() {
        // FNV-1a (the digest of `qaoa::stablehash::Fnv64`) over the
        // little-endian bits of every query's prediction. Recorded from the
        // implementation whose GPR also carried a Cholesky factor and a
        // posterior variance: dropping them must not move a bit.
        const RECORDED: [(ModelKind, u64); 7] = [
            (ModelKind::Gpr, 0x01ff_eda0_5eb2_20fd),
            (ModelKind::Linear, 0x9036_2c63_12a1_123c),
            (ModelKind::Tree, 0xb96a_96bb_e4cd_ecf5),
            (ModelKind::Svr, 0x146e_ad50_9c4b_c44a),
            (ModelKind::Ridge, 0xbd6e_7671_1ef5_7b9f),
            (ModelKind::Knn, 0x8e46_7963_bddd_8e51),
            (ModelKind::Forest, 0x78a7_d9f1_6787_697e),
        ];
        let (x, y, queries) = fixture();
        for (kind, digest) in RECORDED {
            let mut model = kind.build();
            model.fit(&x, &y).unwrap();
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for q in &queries {
                for b in model.predict(q).unwrap().to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(h, digest, "{kind}: {h:#018x}");
        }
        let kinds: Vec<ModelKind> = RECORDED.iter().map(|(kind, _)| *kind).collect();
        assert_eq!(kinds, ModelKind::EXTENDED);
    }

    #[test]
    fn unfitted_models_refuse_to_export() {
        for kind in ModelKind::EXTENDED {
            assert!(matches!(kind.build().to_params(), Err(MlError::NotFitted)));
        }
    }

    #[test]
    fn truncated_params_are_rejected_for_every_kind() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0], &[4.0], &[5.0]]).unwrap();
        let y = [0.0, 1.0, 0.5, 2.0, 1.5, 3.0];
        for kind in ModelKind::EXTENDED {
            let mut model = kind.build();
            model.fit(&x, &y).unwrap();
            let params = model.to_params().unwrap();
            let mut truncated = params.clone();
            truncated.floats.pop();
            assert!(kind.from_params(&truncated).is_err(), "{kind} truncated");
            let mut trailing = params;
            trailing.floats.push(0.0);
            assert!(kind.from_params(&trailing).is_err(), "{kind} trailing");
        }
        // GPR's noise variance (the third float) must be finite and
        // non-negative, although prediction never reads it.
        let mut gpr = ModelKind::Gpr.build();
        gpr.fit(&x, &y).unwrap();
        let params = gpr.to_params().unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-3] {
            let mut corrupt = params.clone();
            corrupt.floats[2] = bad;
            assert!(
                matches!(
                    ModelKind::Gpr.from_params(&corrupt),
                    Err(MlError::InvalidHyperparameter {
                        name: "noise_variance",
                        ..
                    })
                ),
                "noise variance {bad}"
            );
        }
    }

    #[test]
    fn abbreviation_roundtrip() {
        for kind in ModelKind::EXTENDED {
            assert_eq!(
                ModelKind::from_abbreviation(kind.abbreviation()),
                Some(kind)
            );
        }
        assert_eq!(ModelKind::from_abbreviation("NOPE"), None);
    }

    #[test]
    fn all_kinds_fit_a_line() {
        let x = Matrix::from_rows(&[
            &[0.0],
            &[0.5],
            &[1.0],
            &[1.5],
            &[2.0],
            &[2.5],
            &[3.0],
            &[3.5],
        ])
        .unwrap();
        let y: Vec<f64> = (0..8).map(|i| 1.0 + 0.25 * i as f64).collect();
        for kind in ModelKind::ALL {
            let mut m = kind.build();
            m.fit(&x, &y).unwrap();
            let preds = m.predict_batch(&x).unwrap();
            let mse = metrics::mse(&y, &preds).unwrap();
            assert!(mse < 0.5, "{kind} mse = {mse}");
        }
    }
}
