//! Table I: run-time (function calls) and quality (approximation ratio)
//! comparison between the naive random-initialization protocol and the
//! proposed two-level ML flow, for L-BFGS-B / Nelder-Mead / SLSQP / COBYLA
//! at target depths 2..5 over the test graphs.
//!
//! Shapes to reproduce: positive FC reduction in every cell, growing with
//! target depth (paper: 12.3% → 65.7%, average 44.9%); ML AR never worse
//! than naive AR.
//!
//! Run: `cargo run --release -p bench --bin table1 [-- --quick] [-- --threads N]`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "a binary may stop on an unrecoverable startup error; the no-panic rule guards library code"
)]

use bench::{count_f64, RunConfig};
use ml::ModelKind;
use qaoa::evaluation::{table_header, EvaluationConfig};
use qaoa::ParameterPredictor;

fn main() {
    let config = RunConfig::from_env();
    let dataset = config.corpus();
    let (train, test) = dataset.split_by_graph(0.2);
    eprintln!(
        "# training GPR on {} graphs; evaluating on {} test graphs",
        train.graphs().len(),
        test.graphs().len()
    );
    let predictor = ParameterPredictor::train(ModelKind::Gpr, &train).expect("GPR training");

    let scenario = config.scenario();
    let eval = EvaluationConfig {
        depths: (2..=config.max_depth.min(5)).collect(),
        naive_starts: config.naive_starts(),
        level1_starts: 1,
        options: bench::cli::scenario::tuned_options(&scenario, Default::default()),
        seed: config.seed,
        scenario,
    };
    let optimizers = optimize::all_optimizers();
    let pool = bench::cli::pool(&config);
    eprintln!(
        "# sweeping {} optimizers x {:?} depths on {} threads, scenario {scenario}...",
        optimizers.len(),
        eval.depths,
        pool.threads()
    );
    let rows = engine::compare::compare(test.graphs(), &optimizers, &predictor, &eval, &pool)
        .expect("comparison sweep");

    println!(
        "# Table I: naive random init vs two-level ML init (FC in thousands of calls, \
         scenario {scenario})"
    );
    println!("{}", table_header());
    let mut reductions = Vec::new();
    for row in &rows {
        println!("{}", row.to_table_line());
        reductions.push(row.fc_reduction_percent());
    }
    let avg = reductions.iter().sum::<f64>() / count_f64(reductions.len().max(1));
    let max = reductions.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!("\n# average FC reduction: {avg:.1}% (paper: 44.9%), max: {max:.1}% (paper: 65.7%)");
    let positive = reductions.iter().filter(|&&r| r > 0.0).count();
    println!(
        "# FC reduction positive in {positive} of {} cells (paper: every cell).",
        reductions.len()
    );
}
