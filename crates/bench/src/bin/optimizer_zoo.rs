//! Extension study: Table I widened to six optimizers.
//!
//! The paper claims its approach is optimizer-agnostic and demonstrates it
//! on four SciPy methods. This study adds Powell (derivative-free
//! direction-set) and SPSA (two-evaluations-per-iteration stochastic
//! approximation, the standard hardware-loop optimizer) and reruns the
//! naive-vs-two-level comparison, checking that the function-call reduction
//! holds across the wider spectrum.
//!
//! Run: `cargo run --release -p bench --bin optimizer_zoo [-- --quick] [-- --threads N]`

use bench::{count_f64, RunConfig};
use ml::ModelKind;
use optimize::extended_optimizers;
use qaoa::evaluation::{self, EvaluationConfig};
use qaoa::ParameterPredictor;

fn main() {
    let config = RunConfig::from_env();
    let dataset = config.corpus();
    let (train, test) = dataset.split_by_graph(0.2);
    let predictor = ParameterPredictor::train(ModelKind::Gpr, &train).expect("GPR training");
    let n_eval = test.graphs().len().min(if config.quick { 10 } else { 48 });
    let graphs = &test.graphs()[..n_eval];

    let mut eval_config = if config.quick {
        EvaluationConfig::quick()
    } else {
        EvaluationConfig::paper()
    };
    eval_config.seed = config.seed;
    eval_config.depths.retain(|&d| d <= config.max_depth);
    if let Some(n) = config.naive_starts {
        eval_config.naive_starts = n;
    }

    let pool = bench::cli::pool(&config);
    println!(
        "# Optimizer zoo: naive vs two-level on {n_eval} test graphs, depths {:?}, {} threads",
        eval_config.depths,
        pool.threads()
    );
    println!("{}", evaluation::table_header());
    let rows = engine::compare::compare(
        graphs,
        &extended_optimizers(),
        &predictor,
        &eval_config,
        &pool,
    )
    .expect("comparison");
    let mut reductions = Vec::new();
    let mut spsa_ar_gain = Vec::new();
    for row in &rows {
        println!("{}", row.to_table_line());
        // SPSA runs to a fixed iteration budget (its ftol criterion rarely
        // fires), so FC reduction is not meaningful for it; its benefit
        // shows up as a higher AR at equal budget instead.
        if row.optimizer == "SPSA" {
            spsa_ar_gain.push(row.ml_ar_mean - row.naive_ar_mean);
        } else {
            reductions.push(row.fc_reduction_percent());
        }
    }
    let avg = reductions.iter().sum::<f64>() / count_f64(reductions.len());
    let max = reductions.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    println!(
        "\naverage FC reduction {avg:.1}% (paper: 44.9%), max {max:.1}% (paper: 65.7%) \
         [convergence-terminated optimizers]"
    );
    if !spsa_ar_gain.is_empty() {
        let ar = spsa_ar_gain.iter().sum::<f64>() / count_f64(spsa_ar_gain.len());
        println!("SPSA (fixed budget): ML init improves AR by {ar:+.4} on average at equal cost");
    }
}
