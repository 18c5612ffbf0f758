//! Fig. 5: Pearson correlations between the two-level predictors
//! (γ₁OPT(p=1), β₁OPT(p=1), depth p) and the responses γᵢOPT / βᵢOPT over
//! the full corpus, plus the γ₁–β₁ correlation the paper quotes (R ≈ 0.92).
//!
//! Shapes to reproduce: R(γᵢ, p) < 0 and weakening with i;
//! R(βᵢ, p) > 0; response correlations with the depth-1 features positive
//! and weakening with i.
//!
//! Run: `cargo run --release -p bench --bin fig5 [-- --quick]`

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
use ml::metrics::pearson;
use qaoa::features;

fn main() {
    let config = RunConfig::from_env();
    let dataset = config.corpus();
    println!(
        "# Fig 5: predictor/response correlations over {} records ({} optimal parameters)",
        dataset.records().len(),
        dataset.n_parameters()
    );

    // The paper's headline: γ₁OPT(p=1) and β₁OPT(p=1) correlate strongly.
    let d1 = dataset.records_at_depth(1);
    let g1: Vec<f64> = d1.iter().map(|r| r.gammas[0]).collect();
    let b1: Vec<f64> = d1.iter().map(|r| r.betas[0]).collect();
    println!(
        "R(gamma1(p=1), beta1(p=1)) = {:+.3}   (paper: 0.92)",
        pearson(&g1, &b1).unwrap_or(0.0)
    );

    println!(
        "{:<9} {:>5} {:>12} {:>12} {:>10}",
        "response", "stage", "R(gamma1)", "R(beta1)", "R(p)"
    );
    let rows = features::predictor_response_correlations(&dataset).expect("correlation analysis");
    for (kind, stage, r_g1, r_b1, r_p) in rows {
        let name = match kind {
            features::ParamKind::Gamma => "gamma_i",
            features::ParamKind::Beta => "beta_i",
        };
        println!("{name:<9} {stage:>5} {r_g1:>12.3} {r_b1:>12.3} {r_p:>10.3}");
    }
    println!("# Expected shape: R(gamma_i, p) negative and |R| shrinking with i;");
    println!("#                 R(beta_i, p) positive; feature correlations fade with i.");
}
