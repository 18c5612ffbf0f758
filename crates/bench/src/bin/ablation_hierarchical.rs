//! Ablation (§I(d)): hierarchical prediction — does adding an optimized
//! intermediate-depth instance's parameters to the feature vector pay for
//! its extra function calls?
//!
//! Compares, per target depth: naive | two-level | hierarchical (pm = 2).
//!
//! Run: `cargo run --release -p bench --bin ablation_hierarchical [-- --quick]`

use bench::RunConfig;
use ml::metrics::{mean, std_dev};
use ml::ModelKind;
use optimize::Lbfgsb;
use qaoa::{MaxCutProblem, ParameterPredictor, Scenario, TwoLevelConfig, TwoLevelFlow};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let config = RunConfig::from_env();
    let dataset = config.corpus();
    let (train, test) = dataset.split_by_graph(0.2);
    let two_level = ParameterPredictor::train(ModelKind::Gpr, &train).expect("two-level training");
    let intermediate = 2usize;
    let hier = ParameterPredictor::train_hierarchical(ModelKind::Gpr, &train, intermediate)
        .expect("hierarchical training");

    let optimizer = Lbfgsb::default();
    let pool = bench::cli::pool(&config);
    let flow_config = TwoLevelConfig::default();
    let depths: Vec<usize> = ((intermediate + 1)..=config.max_depth.min(5)).collect();

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
            &Default::default(),
            config.seed,
            &qaoa::Scenario::Exact,
            &pool,
        )
        .expect("naive protocol");
        let naive_fc = mean(&naive.iter().map(|s| s.1 as f64).collect::<Vec<_>>());

        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA5);
        let mut tl_fc = Vec::new();
        let mut tl_ar = Vec::new();
        let mut hi_fc = Vec::new();
        let mut hi_ar = Vec::new();
        for graph in test.graphs() {
            let problem = MaxCutProblem::new(graph).expect("non-empty graph");
            let flow = TwoLevelFlow::new(&two_level);
            let out = flow
                .run(
                    &problem,
                    pt,
                    &optimizer,
                    &flow_config,
                    &mut rng,
                    &Scenario::Exact,
                    0,
                )
                .expect("two-level run");
            tl_fc.push(out.total_calls() as f64);
            tl_ar.push(out.approximation_ratio);

            let hflow = TwoLevelFlow::new(&hier);
            let hout = hflow
                .run_hierarchical(&two_level, &problem, pt, &optimizer, &flow_config, &mut rng)
                .expect("hierarchical run");
            hi_fc.push(hout.total_calls() as f64);
            hi_ar.push(hout.approximation_ratio);
        }
        let reduction = 100.0 * (naive_fc - mean(&hi_fc)) / naive_fc.max(1.0);
        println!(
            "{:>3} {:>10.1} {:>10.1} {:>6.4}±{:<5.4} {:>10.1} {:>6.4}±{:<5.4} {:>10.1}",
            pt,
            naive_fc,
            mean(&tl_fc),
            mean(&tl_ar),
            std_dev(&tl_ar),
            mean(&hi_fc),
            mean(&hi_ar),
            std_dev(&hi_ar),
            reduction
        );
    }
    println!("\n# Reading: hierarchical adds an intermediate optimization, so its FC is higher");
    println!("# than plain two-level; it pays off only if its AR/deep-depth initialization wins.");
}
