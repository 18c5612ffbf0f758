//! Fig. 6: distribution of GPR prediction errors (absolute % deviation from
//! the true optimal parameters) on the test graphs, per target depth
//! p = 2..5.
//!
//! Paper values: μ = 5.7 / 8.1 / 9.4 / 10.2 % for p = 2 / 3 / 4 / 5 — the
//! shape to reproduce is the **growth of the error with target depth**
//! (features correlate less with deeper-stage parameters).
//!
//! Run: `cargo run --release -p bench --bin fig6 [-- --quick]`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "a binary may stop on an unrecoverable startup error; the no-panic rule guards library code"
)]

use bench::{text_histogram, RunConfig};
use ml::metrics::{mean, std_dev};
use ml::ModelKind;
use qaoa::ParameterPredictor;

fn main() {
    let config = RunConfig::from_env();
    let dataset = config.corpus();
    let (train, test) = dataset.split_by_graph(0.2);
    eprintln!(
        "# training GPR on {} graphs, evaluating on {}",
        train.graphs().len(),
        test.graphs().len()
    );
    let predictor = ParameterPredictor::train(ModelKind::Gpr, &train).expect("GPR training");

    let depths: Vec<usize> = (2..=config.max_depth.min(5)).collect();
    println!("# Fig 6: |prediction error| (%) per target depth, GPR, test set");
    let mut mus = Vec::new();
    for &pt in &depths {
        let mut errors = Vec::new();
        for (gid, _) in test.graphs().iter().enumerate() {
            let (Some(d1), Some(dt)) = (test.record(gid, 1), test.record(gid, pt)) else {
                continue;
            };
            let predicted = predictor
                .predict(d1.gammas[0], d1.betas[0], pt)
                .expect("prediction in range");
            let truth: Vec<f64> = dt.gammas.iter().chain(&dt.betas).copied().collect();
            for (p, t) in predicted.iter().zip(&truth) {
                if t.abs() > 1e-6 {
                    errors.push(100.0 * ((p - t) / t).abs());
                }
            }
        }
        let mu = mean(&errors);
        mus.push(mu);
        println!(
            "\n## target depth p = {pt}: mu = {mu:.1}%, sigma = {:.1}% ({} samples)",
            std_dev(&errors),
            errors.len()
        );
        print!("{}", text_histogram(&errors, 12, 40));
    }
    println!("\n# Expected shape: mu grows with target depth (paper: 5.7 -> 8.1 -> 9.4 -> 10.2).");
    println!(
        "# measured mu sequence: {:?}",
        mus.iter()
            .map(|m| (m * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
}
