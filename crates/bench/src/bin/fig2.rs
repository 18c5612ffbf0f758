//! Fig. 2: within-depth trends in the optimal control parameters of four
//! 3-regular graphs — at fixed depth, γᵢOPT increases with stage i while
//! βᵢOPT decreases (panels (a) p = 3 and (b) p = 5).
//!
//! Optima are the corpus pipeline's own (`qaoa::datagen`, run by
//! `engine::corpus`), so they are the optima the predictor trains on:
//! depth 1 by multistart, every deeper depth by multistart plus one
//! INTERP-seeded run (Zhou et al., the paper's ref [5]), near-ties resolved
//! to the INTERP basin. For display, only the smoothness-preserving
//! conjugation fold is applied so every graph appears in the same image
//! family of the paper's domain `γ ∈ [0, 2π], β ∈ [0, π]`.
//!
//! Run: `cargo run --release -p bench --bin fig2 [-- --quick] [-- --threads N]`

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
    let depths: Vec<usize> = if config.quick { vec![2, 3] } else { vec![3, 5] };
    let max_depth = *depths.iter().max().expect("non-empty depths");
    let nodes = config.nodes.max(4);
    let degree = 3.min(nodes - 1);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let graphs: Vec<_> = (0..4)
        .map(|_| generators::random_regular(nodes, degree, &mut rng).expect("valid regular params"))
        .collect();
    let engine = config.engine();
    let datagen = DataGenConfig {
        max_depth,
        ..config.datagen()
    };
    let (dataset, _) =
        engine::corpus::from_graphs(graphs, &datagen, &engine).expect("corpus solve");
    config.persist_level1(engine.cache());

    println!(
        "# Fig 2: optimal parameters per stage at fixed depth ({} inits per depth plus \
         the INTERP-seeded run, corpus policy)",
        config.restarts
    );
    // Continuity-anchored fold over each graph's whole chain; each depth's
    // table reads its row.
    let record = |gi: usize, p: usize| dataset.record(gi, p).expect("solved depth");
    let folded: Vec<_> = (0..dataset.graphs().len())
        .map(|gi| {
            let chain: Vec<Vec<f64>> = (1..=max_depth)
                .map(|p| {
                    let r = record(gi, p);
                    r.gammas.iter().chain(&r.betas).copied().collect()
                })
                .collect();
            qaoa::canonical::display_fold_chain(&chain)
        })
        .collect();
    for &p in &depths {
        println!("## depth p = {p}");
        println!(
            "{:<6} {:>3} {:>10} {:>10} {:>9}",
            "graph", "i", "gamma_i", "beta_i", "AR"
        );
        for (gi, chain) in folded.iter().enumerate() {
            let params = &chain[p - 1];
            for i in 0..p {
                println!(
                    "G{:<5} {:>3} {:>10.4} {:>10.4} {:>9.4}",
                    gi + 1,
                    i + 1,
                    params[i],
                    params[p + i],
                    record(gi, p).approximation_ratio
                );
            }
        }
    }
    println!("# Expected shape: within a graph, gamma_i grows with i; beta_i shrinks with i.");
}
