//! Ablation: training-set size. The paper deliberately trains on only 20%
//! of its graphs (66 of 330), arguing a small training set suffices. This
//! sweep varies the train fraction and reports the resulting prediction
//! error and two-level FC reduction.
//!
//! Run: `cargo run --release -p bench --bin ablation_trainsize [-- --quick]`

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
use ml::ModelKind;
use optimize::{Lbfgsb, Optimizer};
use qaoa::evaluation::row_from_samples;
use qaoa::ParameterPredictor;

fn main() {
    let config = RunConfig::from_env();
    let dataset = config.corpus();
    let fractions = [0.05, 0.1, 0.2, 0.4, 0.6];
    let pt = config.max_depth.min(3);
    let optimizer = Lbfgsb::default();
    let pool = bench::cli::pool(&config);

    println!("# Training-size ablation: GPR predictor, target depth {pt}, L-BFGS-B");
    println!(
        "{:>9} {:>7} {:>7} {:>10} {:>10} {:>8}",
        "train%", "ntrain", "ntest", "naiveFC", "mlFC", "red%"
    );
    for &fraction in &fractions {
        let (train, test) = dataset.split_by_graph(fraction);
        if train.graphs().len() < 2 || test.graphs().is_empty() {
            continue;
        }
        let Ok(predictor) = ParameterPredictor::train(ModelKind::Gpr, &train) else {
            eprintln!("training failed at fraction {fraction}");
            continue;
        };
        let naive = engine::compare::naive_protocol(
            test.graphs(),
            pt,
            &optimizer,
            config.restarts.min(5),
            &Default::default(),
            config.seed,
            &qaoa::Scenario::Exact,
            &pool,
        )
        .expect("naive protocol");
        let ml = engine::compare::two_level_protocol(
            test.graphs(),
            pt,
            &optimizer,
            &predictor,
            1,
            &Default::default(),
            config.seed ^ 0x51,
            &qaoa::Scenario::Exact,
            &pool,
        )
        .expect("two-level protocol");
        let row = row_from_samples(optimizer.name(), pt, &naive, &ml);
        println!(
            "{:>9.0} {:>7} {:>7} {:>10.1} {:>10.1} {:>8.1}",
            fraction * 100.0,
            train.graphs().len(),
            test.graphs().len(),
            row.naive_fc_mean,
            row.ml_fc_mean,
            row.fc_reduction_percent()
        );
    }
    println!("\n# Expected shape: the reduction saturates at small training fractions —");
    println!("# the paper's 20% split is already enough (its stated motivation).");
}
