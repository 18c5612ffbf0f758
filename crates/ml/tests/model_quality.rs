//! Model-quality integration tests: the four regression families on
//! QAOA-parameter-shaped data (3 features, correlated targets), mirroring
//! the §III-C comparison at small scale.

#![allow(
    clippy::as_conversions,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test and bench code: a panic is how it reports a failure, and fixtures cast literals"
)]

use linalg::Matrix;
use ml::metrics::{mse, r2};
use ml::{GprModel, ModelKind, Regressor, StandardScaler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthetic data with the paper's correlation structure:
/// γᵢ(p) ≈ a·γ₁ − b·p + noise, β correlated with γ₁.
fn paper_shaped(n: usize, noise: f64, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let g1: f64 = rng.gen_range(0.3..0.8);
        let b1: f64 = 0.55 * g1 + rng.gen_range(-0.03..0.03);
        let p: f64 = rng.gen_range(1..=6) as f64;
        rows.push(vec![g1, b1, p]);
        y.push(0.9 * g1 - 0.04 * p + 0.3 + noise * rng.gen_range(-1.0..1.0));
    }
    (Matrix::from_rows(&rows).expect("non-empty"), y)
}

#[test]
fn all_models_beat_the_mean_predictor() {
    let (x_train, y_train) = paper_shaped(66, 0.01, 1);
    let (x_test, y_test) = paper_shaped(100, 0.01, 2);
    let mean = y_train.iter().sum::<f64>() / y_train.len() as f64;
    let baseline = mse(&y_test, &vec![mean; y_test.len()]).expect("valid input");
    for kind in ModelKind::ALL {
        let mut model = kind.build();
        model.fit(&x_train, &y_train).expect("fit succeeds");
        let preds = model.predict_batch(&x_test).expect("predict succeeds");
        let err = mse(&y_test, &preds).expect("valid input");
        assert!(
            err < baseline * 0.5,
            "{kind}: mse {err} vs mean-baseline {baseline}"
        );
    }
}

#[test]
fn gpr_wins_on_smooth_low_noise_data() {
    // The paper selects GPR as its predictor; on smooth low-noise data GPR
    // should be at least competitive with every other family.
    let (x_train, y_train) = paper_shaped(66, 0.005, 3);
    let (x_test, y_test) = paper_shaped(120, 0.005, 4);
    let mut scores = Vec::new();
    for kind in ModelKind::ALL {
        let mut model = kind.build();
        model.fit(&x_train, &y_train).expect("fit succeeds");
        let preds = model.predict_batch(&x_test).expect("predict succeeds");
        scores.push((kind, mse(&y_test, &preds).expect("valid input")));
    }
    let gpr = scores
        .iter()
        .find(|(k, _)| *k == ModelKind::Gpr)
        .expect("GPR present")
        .1;
    for (kind, err) in &scores {
        assert!(
            gpr <= err * 1.5,
            "GPR mse {gpr} much worse than {kind} ({err})"
        );
    }
}

#[test]
fn r2_close_to_one_on_learnable_data() {
    let (x_train, y_train) = paper_shaped(66, 0.01, 5);
    let (x_test, y_test) = paper_shaped(80, 0.01, 6);
    let mut gpr = GprModel::default();
    gpr.fit(&x_train, &y_train).expect("fit succeeds");
    let preds = gpr.predict_batch(&x_test).expect("predict succeeds");
    let score = r2(&y_test, &preds).expect("valid input");
    assert!(score > 0.9, "GPR R² = {score}");
}

#[test]
fn standardization_does_not_change_gpr_ranking() {
    // GPR standardizes internally; feeding externally-standardized features
    // must preserve prediction ordering.
    let (x, y) = paper_shaped(40, 0.01, 8);
    let scaler = StandardScaler::fit(&x).expect("non-empty");
    let xs = scaler.transform(&x).expect("matching width");
    let mut raw = GprModel::default();
    raw.fit(&x, &y).expect("fit succeeds");
    let mut standardized = GprModel::default();
    standardized.fit(&xs, &y).expect("fit succeeds");
    let a = raw.predict(x.row(0)).expect("predict succeeds");
    let b = standardized
        .predict(&scaler.transform_row(x.row(0)).expect("matching width"))
        .expect("predict succeeds");
    assert!((a - b).abs() < 0.05, "{a} vs {b}");
}

#[test]
fn tree_depth_controls_capacity() {
    let (x, y) = paper_shaped(60, 0.0, 9);
    let mut shallow = ml::TreeModel::with_max_depth(1);
    shallow.fit(&x, &y).expect("fit succeeds");
    let mut deep = ml::TreeModel::with_max_depth(10);
    deep.fit(&x, &y).expect("fit succeeds");
    assert!(deep.n_leaves() > shallow.n_leaves());
    let shallow_err = mse(&y, &shallow.predict_batch(&x).expect("ok")).expect("ok");
    let deep_err = mse(&y, &deep.predict_batch(&x).expect("ok")).expect("ok");
    assert!(deep_err <= shallow_err);
}
