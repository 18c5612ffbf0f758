//! Ablation: multistart count in data generation. The paper uses 20 random
//! initializations per instance when building its corpus; this sweep shows
//! how the best-found expectation and the total generation cost scale with
//! the restart budget.
//!
//! Run: `cargo run --release -p bench --bin ablation_restarts [-- --quick] [-- --threads N]`

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
use qaoa::evaluation::{graph_seed, row_from_samples};
use qaoa::{MaxCutProblem, QaoaInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let config = RunConfig::from_env();
    let n_graphs = if config.quick { 6 } else { 24 };
    let depth = config.max_depth.min(3);
    let budgets = [1u8, 2, 5, 10, 20];

    let mut rng = StdRng::seed_from_u64(config.seed);
    let graphs: Vec<_> = (0..n_graphs)
        .map(|_| generators::erdos_renyi_nonempty(config.nodes, 0.5, &mut rng))
        .collect();
    let optimizer = Lbfgsb::default();
    let options = Options::default();

    println!(
        "# Restart ablation: best AR found vs restart budget, depth {depth}, {n_graphs} ER graphs"
    );
    println!(
        "{:>9} {:>10} {:>10} {:>12}",
        "restarts", "meanAR", "sdAR", "meanFC"
    );
    // One multistart run per (budget, graph) cell. Every budget draws graph
    // gi's starts from the same graph_seed(seed, gi) stream, so the
    // k-restart run is a prefix of the 20-restart run (a strictly greater
    // ⟨C⟩ wins): each graph's best AR and summed FC can only grow with k,
    // and rows do not depend on the pool.
    let cells: Vec<(u8, usize)> = budgets
        .iter()
        .flat_map(|&k| (0..n_graphs).map(move |gi| (k, gi)))
        .collect();
    let samples = bench::cli::pool(&config).run_ordered(cells.len(), |cell| {
        let (k, gi) = cells[cell];
        let problem = MaxCutProblem::new(&graphs[gi]).expect("non-empty graph");
        let instance = QaoaInstance::new(problem, depth).expect("valid depth");
        let mut run_rng = StdRng::seed_from_u64(graph_seed(config.seed, gi));
        let out = instance
            .optimize_multistart(&optimizer, usize::from(k), &mut run_rng, &options)
            .expect("optimization runs");
        (out.approximation_ratio, out.function_calls)
    });
    for (&k, samples) in budgets.iter().zip(samples.chunks(n_graphs)) {
        let row = row_from_samples("L-BFGS-B", depth, samples, &[]);
        println!(
            "{:>9} {:>10.4} {:>10.4} {:>12.1}",
            k, row.naive_ar_mean, row.naive_ar_sd, row.naive_fc_mean
        );
    }
    println!("\n# Expected shape: AR gains saturate after a handful of restarts while cost");
    println!("# grows linearly — context for the paper's choice of 20.");
}
