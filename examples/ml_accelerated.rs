//! The full paper pipeline, end to end: generate a training corpus, train
//! the GPR parameter predictor, then solve unseen MaxCut instances with the
//! two-level flow and compare its cost against the naive protocol.
//!
//! This is Fig. 4 in motion — the headline 44.9% average loop-iteration
//! saving at paper scale; this example runs a reduced scale so it finishes
//! in about a minute.
//!
//! Run: `cargo run --release -p integration --example ml_accelerated`

use ml::metrics::mean;
use ml::ModelKind;
use optimize::{Lbfgsb, Options};
use qaoa::datagen::{DataGenConfig, ParameterDataset};
use qaoa::{
    MaxCutProblem, ParameterPredictor, QaoaInstance, Scenario, TwoLevelConfig, TwoLevelFlow,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. One-time cost: build the optimal-parameter corpus (§III-A).
    let config = DataGenConfig {
        n_graphs: 40,
        n_nodes: 7,
        edge_probability: 0.5,
        max_depth: 4,
        restarts: 5,
        seed: 2020,
        options: Options::default(),
        trend_preference_margin: 1e-3,
    };
    println!(
        "generating corpus: {} graphs x depths 1..={} ...",
        config.n_graphs, config.max_depth
    );
    let corpus = ParameterDataset::generate(&config)?;
    println!("corpus: {} optimal parameters", corpus.n_parameters());

    // 2. Train the predictor on 20% of the graphs (the paper's split).
    let (train, test) = corpus.split_by_graph(0.2);
    let predictor = ParameterPredictor::train(ModelKind::Gpr, &train)?;
    println!(
        "trained GPR predictor on {} graphs; evaluating on {}",
        train.graphs().len(),
        test.graphs().len()
    );

    // 3. Solve every test graph both ways at target depth 3.
    let target_depth = 3;
    let optimizer = Lbfgsb::default();
    let flow = TwoLevelFlow::new(&predictor);
    let mut rng = StdRng::seed_from_u64(7);
    let bounds = qaoa::parameter_bounds(target_depth)?;

    let mut naive_fc = Vec::new();
    let mut naive_ar = Vec::new();
    let mut ml_fc = Vec::new();
    let mut ml_ar = Vec::new();
    for graph in test.graphs() {
        let problem = MaxCutProblem::new(graph)?;
        // Naive: one random-initialization run at the target depth.
        let instance = QaoaInstance::new(problem.clone(), target_depth)?;
        let start = bounds.sample(&mut rng);
        let naive = instance.optimize(&optimizer, &start, &Options::default())?;
        naive_fc.push(naive.function_calls as f64);
        naive_ar.push(naive.approximation_ratio);
        // Two-level: p=1 warm-up, ML prediction, target-depth refinement.
        let out = flow.run(
            &problem,
            target_depth,
            &optimizer,
            &TwoLevelConfig::default(),
            &mut rng,
            &Scenario::Exact,
            0,
        )?;
        ml_fc.push(out.total_calls() as f64);
        ml_ar.push(out.approximation_ratio);
    }

    let reduction = 100.0 * (mean(&naive_fc) - mean(&ml_fc)) / mean(&naive_fc);
    println!("\n           {:>10} {:>10}", "naive", "two-level");
    println!(
        "mean FC    {:>10.1} {:>10.1}",
        mean(&naive_fc),
        mean(&ml_fc)
    );
    println!(
        "mean AR    {:>10.4} {:>10.4}",
        mean(&naive_ar),
        mean(&ml_ar)
    );
    println!("\nfunction-call reduction: {reduction:.1}% (paper reports 44.9% on average)");
    Ok(())
}
