//! Ablation (§I(d)): hierarchical prediction — does adding an optimized
//! intermediate-depth instance's parameters to the feature vector pay for
//! its extra function calls?
//!
//! Compares, per target depth: naive | two-level | hierarchical (pm = 2).
//!
//! Run: `cargo run --release -p bench --bin ablation_hierarchical [-- --quick] [-- --threads N]`

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
use optimize::Lbfgsb;
use qaoa::evaluation::{graph_seed, row_from_samples};
use qaoa::features::FeatureSet;
use qaoa::{MaxCutProblem, ParameterPredictor, Scenario, TwoLevelConfig, TwoLevelFlow};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let config = RunConfig::from_env();
    let dataset = config.corpus();
    let (train, test) = dataset.split_by_graph(0.2);
    let two_level = ParameterPredictor::train(ModelKind::Gpr, &train).expect("two-level training");
    let intermediate = 2usize;
    let hier = ParameterPredictor::train_with(
        ModelKind::Gpr,
        &train,
        FeatureSet::Hierarchical {
            intermediate_depth: intermediate,
        },
    )
    .expect("hierarchical training");

    let optimizer = Lbfgsb::default();
    let pool = bench::cli::pool(&config);
    let flow_config = TwoLevelConfig::default();
    let depths: Vec<usize> = ((intermediate + 1)..=config.max_depth.min(5)).collect();
    // Graph gi's level-1 start is drawn from graph_seed(flow_seed, gi) in
    // both flows, so the two columns share each graph's level-1 optimum.
    let flow_seed = config.seed ^ 0xA5;

    println!(
        "# Hierarchical ablation (pm = {intermediate}), L-BFGS-B, {} test graphs",
        test.graphs().len()
    );
    println!(
        "{:>3} {:>10} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "p", "naiveFC", "2lvlFC", "2lvlAR", "hierFC", "hierAR", "hier-red%"
    );

    for &pt in &depths {
        let naive = engine::compare::naive_protocol(
            test.graphs(),
            pt,
            &optimizer,
            config.restarts.min(5),
            &flow_config.options,
            config.seed,
            &Scenario::Exact,
            &pool,
        )
        .expect("naive protocol");
        let tl = engine::compare::two_level_protocol(
            test.graphs(),
            pt,
            &optimizer,
            &two_level,
            flow_config.level1_starts,
            &flow_config.options,
            flow_seed,
            &Scenario::Exact,
            &pool,
        )
        .expect("two-level protocol");
        let hi: Vec<(f64, usize)> = pool.run_ordered(test.graphs().len(), |gi| {
            let problem = MaxCutProblem::new(&test.graphs()[gi]).expect("non-empty graph");
            let mut rng = StdRng::seed_from_u64(graph_seed(flow_seed, gi));
            let out = TwoLevelFlow::new(&hier)
                .run_hierarchical(&two_level, &problem, pt, &optimizer, &flow_config, &mut rng)
                .expect("hierarchical run");
            (out.approximation_ratio, out.total_calls())
        });
        let tl = row_from_samples("L-BFGS-B", pt, &naive, &tl);
        let hi = row_from_samples("L-BFGS-B", pt, &naive, &hi);
        println!(
            "{:>3} {:>10.1} {:>10.1} {:>6.4}±{:<5.4} {:>10.1} {:>6.4}±{:<5.4} {:>10.1}",
            pt,
            tl.naive_fc_mean,
            tl.ml_fc_mean,
            tl.ml_ar_mean,
            tl.ml_ar_sd,
            hi.ml_fc_mean,
            hi.ml_ar_mean,
            hi.ml_ar_sd,
            hi.fc_reduction_percent()
        );
    }
    println!("\n# Reading: hierarchical adds an intermediate optimization, so its FC is higher");
    println!("# than plain two-level; it pays off only if its AR/deep-depth initialization wins.");
}
