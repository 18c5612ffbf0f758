//! Fig. 1(c): approximation-ratio and run-time (QC calls) distributions for
//! QAOA MaxCut on four 3-regular 8-node graphs, depths p = 1..5, random
//! initialization with L-BFGS-B.
//!
//! The paper's shape to reproduce: AR climbs with depth while FC grows —
//! depth buys quality but costs loop iterations.
//!
//! Run: `cargo run --release -p bench --bin fig1c [-- --quick] [-- --threads N]`

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
use optimize::{Lbfgsb, Options};
use qaoa::evaluation::{cell_seed, graph_seed, naive_protocol_graph, row_from_samples};
use qaoa::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let config = RunConfig::from_env();
    let n_graphs = 4usize;
    let max_depth = if config.quick { 3 } else { 5 };
    let restarts = config.restarts.min(if config.quick { 3 } else { 20 });
    let nodes = config.nodes.max(4);
    let degree = 3.min(nodes - 1);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let graphs: Vec<_> = (0..n_graphs)
        .map(|_| generators::random_regular(nodes, degree, &mut rng).expect("valid regular params"))
        .collect();

    println!(
        "# Fig 1(c): AR and FC vs depth, {n_graphs} random {degree}-regular {nodes}-node graphs"
    );
    println!("# {restarts} random inits per (graph, depth), L-BFGS-B, ftol 1e-6");
    println!(
        "{:<6} {:>3} {:>9} {:>9} {:>10} {:>10}",
        "graph", "p", "meanAR", "sdAR", "meanFC", "sdFC"
    );

    // The naive protocol once per (graph, depth) cell, seeded like a
    // Table-I sweep of one optimizer, so rows do not depend on the pool.
    let cells: Vec<(usize, usize)> = (0..n_graphs)
        .flat_map(|gi| (1..=max_depth).map(move |p| (gi, p)))
        .collect();
    let samples = bench::cli::pool(&config).run_ordered(cells.len(), |cell| {
        let (gi, p) = cells[cell];
        naive_protocol_graph(
            &graphs[gi],
            p,
            &Lbfgsb::default(),
            restarts,
            &Options::default(),
            graph_seed(cell_seed(config.seed, 0, p - 1), gi),
            &Scenario::Exact,
        )
        .expect("optimization runs")
    });
    for (&(gi, p), samples) in cells.iter().zip(&samples) {
        let row = row_from_samples("L-BFGS-B", p, samples, &[]);
        println!(
            "G{:<5} {:>3} {:>9.4} {:>9.4} {:>10.1} {:>10.1}",
            gi + 1,
            p,
            row.naive_ar_mean,
            row.naive_ar_sd,
            row.naive_fc_mean,
            row.naive_fc_sd
        );
    }
    println!("# Expected shape: mean AR increases with p; mean FC increases with p.");
}
