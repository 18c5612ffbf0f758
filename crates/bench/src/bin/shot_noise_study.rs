//! Extension study: the two-level flow under measurement shot noise.
//!
//! The paper's evaluation is noise-free (exact expectations). On hardware,
//! each QC call estimates `⟨C⟩` from a finite shot budget; this study
//! checks that the ML initialization's advantage survives that regime —
//! the setting the paper's run-time argument is ultimately about.
//!
//! Protocol: both flows run as ordinary engine workloads under a
//! [`qaoa::Scenario::Sampled`] objective — sampled `⟨C⟩` with a
//! deterministic per-evaluation shot RNG, optimized by seeded SPSA (the
//! scenario's noise-appropriate optimizer; the gradient-based default is
//! meaningless on a stochastic objective). Quality is judged on the exact
//! expectation at the returned point. Rows are bit-identical at any
//! `--threads` value.
//!
//! Run: `cargo run --release -p bench --bin shot_noise_study [-- --quick] [-- --threads N]`

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
    let target_depth = config.max_depth.min(3);
    // The sampled scenario substitutes its own seeded SPSA internally; the
    // optimizer below only drives any exact fallback cells.
    let optimizer = NelderMead::default();
    // Cap the noisy loops: with stochastic objectives ftol never fires, so
    // the run length is governed by the iteration budget.
    let options = Options::default().with_max_iters(150).with_ftol(1e-4);
    let n_eval = test.graphs().len().min(if config.quick { 8 } else { 24 });
    let graphs: Vec<Graph> = test.graphs().iter().take(n_eval).cloned().collect();
    let pool = bench::cli::pool(&config);

    println!(
        "# Shot-noise study: SPSA on sampled <C>, target depth {target_depth}, {n_eval} graphs, \
         {} threads",
        pool.threads()
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10}",
        "shots", "naiveAR", "mlAR", "naiveFC", "mlFC"
    );
    for shots in [64u32, 256, 1024, 4096] {
        let scenario = Scenario::Sampled { shots };
        let seed = config.seed ^ (u64::from(shots) << 20);
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
        .expect("sampled naive protocol");
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
        .expect("sampled two-level protocol");

        let row = row_from_samples("SPSA", target_depth, &naive, &ml);
        println!(
            "{:>8} {:>10.4} {:>10.4} {:>10.1} {:>10.1}",
            shots, row.naive_ar_mean, row.ml_ar_mean, row.naive_fc_mean, row.ml_fc_mean
        );
    }
    println!("\n# Expected shape: ML AR advantage persists at every shot budget, and both");
    println!("# improve with shots — the warm start matters most when calls are expensive.");
}
