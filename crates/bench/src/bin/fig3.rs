//! Fig. 3: across-depth trends in the optimal control parameters of a single
//! 3-regular graph — for a fixed stage i, γᵢOPT decreases as the circuit
//! depth p grows while βᵢOPT increases.
//!
//! Optima are the corpus pipeline's own (`qaoa::datagen`, run by
//! `engine::corpus`): multistart at every depth plus one INTERP-seeded run
//! above `p = 1` (Zhou et al., the paper's ref [5]), displayed through the
//! same continuity-anchored fold as the `fig2` binary.
//!
//! Run: `cargo run --release -p bench --bin fig3 [-- --quick] [-- --threads N]`

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
use graphs::generators;
use qaoa::datagen::DataGenConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let config = RunConfig::from_env();
    let max_depth = if config.quick { 3 } else { 5 };
    let nodes = config.nodes.max(4);
    let degree = 3.min(nodes - 1);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let graph = generators::random_regular(nodes, degree, &mut rng).expect("valid regular params");
    let engine = config.engine();
    let datagen = DataGenConfig {
        max_depth,
        ..config.datagen()
    };
    let (dataset, _) =
        engine::corpus::from_graphs(vec![graph], &datagen, &engine).expect("corpus solve");
    config.persist_level1(engine.cache());

    println!(
        "# Fig 3: optimal gamma_i / beta_i vs depth p, one {degree}-regular {nodes}-node graph"
    );
    println!(
        "# corpus policy: {} random inits per depth plus the INTERP-seeded run, L-BFGS-B, ftol 1e-6",
        config.restarts
    );
    println!(
        "{:>3} {:>3} {:>10} {:>10} {:>9}",
        "p", "i", "gamma_i", "beta_i", "AR"
    );
    let records: Vec<_> = (1..=max_depth)
        .map(|p| dataset.record(0, p).expect("solved depth"))
        .collect();
    let chain: Vec<Vec<f64>> = records
        .iter()
        .map(|r| r.gammas.iter().chain(&r.betas).copied().collect())
        .collect();
    for (record, display) in records
        .iter()
        .zip(qaoa::canonical::display_fold_chain(&chain))
    {
        let p = record.depth;
        for i in 0..p {
            println!(
                "{:>3} {:>3} {:>10.4} {:>10.4} {:>9.4}",
                p,
                i + 1,
                display[i],
                display[p + i],
                record.approximation_ratio
            );
        }
    }
    println!("# Expected shape: reading a fixed i down the table, gamma_i falls and beta_i rises with p.");
}
