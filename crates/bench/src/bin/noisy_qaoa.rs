//! Extension study: the two-level flow under per-gate depolarizing noise.
//!
//! The paper's run-time argument (fewer QC calls) matters most on noisy
//! hardware, yet its simulation is noiseless. Here every circuit execution
//! runs on the density-matrix simulator with depolarizing channels after
//! each gate (1q rate `p1 = p2/10`, 2q rate `p2` swept). We compare random
//! initialization against ML initialization, where the predictor was
//! trained on *noiseless* corpora — testing whether learned parameter
//! patterns survive decoherence of the objective itself.
//!
//! Both protocols run as ordinary engine workloads
//! ([`engine::compare::naive_protocol`] / `two_level_protocol`) under a
//! [`qaoa::Scenario::Noisy`] objective, so the rows are bit-identical at
//! any `--threads` value.
//!
//! Run: `cargo run --release -p bench --bin noisy_qaoa [-- --quick] [-- --threads N]`

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
use graphs::Graph;
use ml::ModelKind;
use optimize::{NelderMead, Options};
use qaoa::evaluation::row_from_samples;
use qaoa::{ParameterPredictor, Scenario};

fn main() {
    let config = RunConfig::from_env();
    let dataset = config.corpus();
    let (train, test) = dataset.split_by_graph(0.2);
    let predictor = ParameterPredictor::train(ModelKind::Gpr, &train).expect("GPR training");
    let target_depth = config.max_depth.min(if config.quick { 2 } else { 3 });
    let optimizer = NelderMead::default();
    let options = Options::default().with_max_iters(120);
    let n_eval = test.graphs().len().min(if config.quick { 6 } else { 16 });
    let graphs: Vec<Graph> = test.graphs().iter().take(n_eval).cloned().collect();
    let pool = bench::cli::pool(&config);

    println!(
        "# Noisy-QAOA study: depolarizing (p1 = p2/10), Nelder-Mead, depth {target_depth}, \
         {n_eval} graphs, {} threads",
        pool.threads()
    );
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "p2", "naiveAR", "mlAR", "naiveFC", "mlFC", "red%"
    );

    for p2 in [0.0, 0.001, 0.005, 0.02] {
        let scenario = Scenario::Noisy { p1: p2 / 10.0, p2 };
        let seed = config.seed ^ (p2.to_bits() >> 3);
        let naive = engine::compare::naive_protocol(
            &graphs,
            target_depth,
            &optimizer,
            1,
            &options,
            seed,
            &scenario,
            &pool,
        )
        .expect("noisy naive protocol");
        let ml = engine::compare::two_level_protocol(
            &graphs,
            target_depth,
            &optimizer,
            &predictor,
            1,
            &options,
            seed ^ 0xA11,
            &scenario,
            &pool,
        )
        .expect("noisy two-level protocol");

        let row = row_from_samples("Nelder-Mead", target_depth, &naive, &ml);
        println!(
            "{:>9.4} {:>10.4} {:>10.4} {:>10.1} {:>10.1} {:>7.1}",
            p2,
            row.naive_ar_mean,
            row.ml_ar_mean,
            row.naive_fc_mean,
            row.ml_fc_mean,
            100.0 * (1.0 - row.ml_fc_mean / row.naive_fc_mean)
        );
    }
    println!("\n# Expected shape: ML initialization keeps its call advantage as p2 grows,");
    println!("# even though the predictor never saw a noisy objective during training.");
}
