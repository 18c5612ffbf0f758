//! Extension study: does the ER-trained predictor transfer to other graph
//! families?
//!
//! The paper trains and tests on the same Erdős–Rényi ensemble (edge
//! probability 0.5). Its thesis — parameter patterns transfer between
//! *similar* instances — invites the harder question: how far does "similar"
//! stretch? This study trains GPR on the usual ER corpus and evaluates the
//! two-level flow on held-out ER graphs plus four out-of-ensemble families
//! (3-regular, Barabási–Albert, Watts–Strogatz, dense ER), reporting the
//! function-call reduction and AR delta per family for the paper's
//! predictor (`ml`) and a graph-aware one (`ga`,
//! [`FeatureSet::GraphAware`]). Every column runs under the chosen
//! scenario (`--shots`, `--noise`).
//!
//! Run: `cargo run --release -p bench --bin generalization_study [-- --quick] [-- --threads N]`

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
use graphs::{generators, Graph};
use ml::ModelKind;
use optimize::{Lbfgsb, Options};
use qaoa::evaluation::row_from_samples;
use qaoa::features::FeatureSet;
use qaoa::ParameterPredictor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn family_graphs(name: &str, count: usize, nodes: usize, rng: &mut StdRng) -> Vec<Graph> {
    (0..count)
        .map(|_| loop {
            let g = match name {
                "ER(0.5)" => generators::erdos_renyi_nonempty(nodes, 0.5, rng),
                "ER(0.8)" => generators::erdos_renyi_nonempty(nodes, 0.8, rng),
                "3-regular" => {
                    generators::random_regular(nodes, 3, rng).expect("even n·d for these sizes")
                }
                "BA(m=2)" => {
                    generators::barabasi_albert(nodes, 2, rng).expect("valid BA parameters")
                }
                "WS(k=4)" => {
                    generators::watts_strogatz(nodes, 4, 0.3, rng).expect("valid WS parameters")
                }
                other => unreachable!("unknown family {other}"),
            };
            if !g.is_empty() {
                break g;
            }
        })
        .collect()
}

fn main() {
    let config = RunConfig::from_env();
    let dataset = config.corpus();
    let (train, test) = dataset.split_by_graph(0.2);
    let predictor = ParameterPredictor::train(ModelKind::Gpr, &train).expect("GPR training");
    let aware = ParameterPredictor::train_with(ModelKind::Gpr, &train, FeatureSet::GraphAware)
        .expect("graph-aware training");
    let optimizer = Lbfgsb::default();
    let depth = config.max_depth.min(4);
    let per_family = if config.quick { 8 } else { 32 };
    let naive_starts = config.naive_starts.unwrap_or(config.restarts);
    // 3-regular needs even n·d.
    let nodes = if config.nodes.is_multiple_of(2) {
        config.nodes
    } else {
        config.nodes + 1
    };

    let scenario = config.scenario();
    let options = bench::cli::scenario::tuned_options(&scenario, Options::default());
    let pool = bench::cli::pool(&config);
    println!(
        "# Generalization study: GPR trained on ER({:.1}) n={}, evaluated at p={depth}, \
         {per_family} graphs/family, L-BFGS-B, {} threads, scenario {scenario}",
        0.5,
        config.nodes,
        pool.threads()
    );
    println!(
        "{:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7}",
        "family", "naiveAR", "mlAR", "gaAR", "naiveFC", "mlFC", "gaFC", "red%", "gared%"
    );

    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x6E6E);
    let mut families: Vec<(&str, Vec<Graph>)> = vec![(
        "ER-heldout",
        test.graphs().iter().take(per_family).cloned().collect(),
    )];
    for name in ["ER(0.8)", "3-regular", "BA(m=2)", "WS(k=4)"] {
        families.push((name, family_graphs(name, per_family, nodes, &mut rng)));
    }

    for (name, graphs) in &families {
        let naive = engine::compare::naive_protocol(
            graphs,
            depth,
            &optimizer,
            naive_starts,
            &options,
            config.seed,
            &scenario,
            &pool,
        )
        .expect("naive protocol");
        let ml = engine::compare::two_level_protocol(
            graphs,
            depth,
            &optimizer,
            &predictor,
            1,
            &options,
            config.seed ^ 0xA11,
            &scenario,
            &pool,
        )
        .expect("two-level protocol");
        let ga = engine::compare::two_level_protocol(
            graphs,
            depth,
            &optimizer,
            &aware,
            1,
            &options,
            config.seed ^ 0xB22,
            &scenario,
            &pool,
        )
        .expect("graph-aware two-level protocol");

        let ml = row_from_samples("L-BFGS-B", depth, &naive, &ml);
        let ga = row_from_samples("L-BFGS-B", depth, &naive, &ga);
        println!(
            "{:>12} {:>9.4} {:>9.4} {:>9.4} {:>9.1} {:>9.1} {:>9.1} {:>7.1} {:>7.1}",
            name,
            ml.naive_ar_mean,
            ml.ml_ar_mean,
            ga.ml_ar_mean,
            ml.naive_fc_mean,
            ml.ml_fc_mean,
            ga.ml_fc_mean,
            100.0 * (1.0 - ml.ml_fc_mean / ml.naive_fc_mean),
            100.0 * (1.0 - ga.ml_fc_mean / ml.naive_fc_mean)
        );
    }
}
