//! §III-C: comparison of the four regression families (GPR, LM, RTREE,
//! RSVM) as parameter predictors, on MSE / RMSE / MAE / R² / adjusted R²
//! over the test graphs.
//!
//! Shape to reproduce: GPR wins on every metric.
//!
//! Run: `cargo run --release -p bench --bin model_compare [-- --quick]`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "a binary may stop on an unrecoverable startup error; the no-panic rule guards library code"
)]

use bench::RunConfig;
use ml::metrics::{adjusted_r2, mae, mean, mse, r2, rmse};
use ml::ModelKind;
use qaoa::ParameterPredictor;

fn main() {
    let config = RunConfig::from_env();
    let dataset = config.corpus();
    let (train, test) = dataset.split_by_graph(0.2);

    println!(
        "# Model comparison on {} test graphs x depths 2..={}",
        test.graphs().len(),
        config.max_depth
    );
    println!(
        "{:<7} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "model", "MSE", "RMSE", "MAE", "R2", "adjR2"
    );

    // The paper's four families first, then the extension models
    // (Ridge / kNN / RandomForest) for the "stronger baseline" ablation.
    for kind in ModelKind::EXTENDED {
        let predictor = match ParameterPredictor::train(kind, &train) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{kind}: training failed: {e}");
                continue;
            }
        };
        // Pool truth/prediction pairs over all target depths and stages.
        let mut truth = Vec::new();
        let mut preds = Vec::new();
        for (gid, _) in test.graphs().iter().enumerate() {
            let Some(d1) = test.record(gid, 1) else {
                continue;
            };
            for pt in 2..=config.max_depth {
                let Some(dt) = test.record(gid, pt) else {
                    continue;
                };
                let predicted = predictor
                    .predict(d1.gammas[0], d1.betas[0], pt)
                    .expect("prediction in range");
                for (p, t) in predicted.iter().zip(dt.gammas.iter().chain(&dt.betas)) {
                    preds.push(*p);
                    truth.push(*t);
                }
            }
        }
        let scores = (
            mse(&truth, &preds).unwrap_or(f64::NAN),
            rmse(&truth, &preds).unwrap_or(f64::NAN),
            mae(&truth, &preds).unwrap_or(f64::NAN),
            r2(&truth, &preds).unwrap_or(f64::NAN),
            adjusted_r2(&truth, &preds, 3).unwrap_or(f64::NAN),
        );
        println!(
            "{:<7} {:>10.4} {:>10.4} {:>10.4} {:>8.3} {:>8.3}",
            kind.abbreviation(),
            scores.0,
            scores.1,
            scores.2,
            scores.3,
            scores.4
        );
    }
    println!("\n# Expected shape: GPR lowest error / highest R2 (the paper picked GPR).");
    let _ = mean(&[0.0]); // keep metric module fully linked in quick builds
}
