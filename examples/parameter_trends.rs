//! Reproduces the parameter-trend observations of §II (Figs. 2 and 3) on a
//! single random 3-regular graph: within a fixed depth the optimal γᵢ grow
//! and βᵢ shrink with the stage index, and across depths γ₁ shrinks while
//! β₁ grows.
//!
//! These regularities are the entire basis of the paper's ML predictor.
//! They emerge when consecutive depths stay in the same smooth basin family,
//! so the graph is solved by the corpus pipeline itself (`qaoa::datagen` on
//! `engine::corpus`): multistart at every depth plus one run seeded by Zhou
//! et al.'s INTERP schedule above depth 1, near-ties resolved to the INTERP
//! basin; the smoothness-preserving conjugation fold normalizes the display.
//!
//! Run: `cargo run --release -p integration --example parameter_trends`

use engine::Engine;
use graphs::generators;
use qaoa::canonical;
use qaoa::datagen::DataGenConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2020);
    let graph = generators::random_regular(8, 3, &mut rng)?;
    println!("graph: {graph} (3-regular)");

    // Solve depths 1..=5 once; read both trends off the chain.
    let config = DataGenConfig {
        max_depth: 5,
        restarts: 10,
        seed: 2020,
        ..DataGenConfig::paper()
    };
    let (dataset, _) = engine::corpus::from_graphs(vec![graph], &config, &Engine::default())?;
    let records = dataset.records();

    let folded = canonical::display_fold_chain(
        &records
            .iter()
            .map(|r| r.gammas.iter().chain(&r.betas).copied().collect())
            .collect::<Vec<_>>(),
    );

    println!("\nWithin-depth trend (Fig. 2): optimal parameters per stage at p = 4");
    println!("{:>5} {:>10} {:>10}", "stage", "gamma_i", "beta_i");
    for i in 0..4 {
        println!(
            "{:>5} {:>10.4} {:>10.4}",
            i + 1,
            folded[3][i],
            folded[3][4 + i]
        );
    }
    println!("(expect gamma_i increasing, beta_i decreasing)");

    println!("\nAcross-depth trend (Fig. 3): first-stage optimum vs circuit depth");
    println!("{:>3} {:>10} {:>10} {:>8}", "p", "gamma_1", "beta_1", "AR");
    for (p, params) in folded.iter().enumerate() {
        println!(
            "{:>3} {:>10.4} {:>10.4} {:>8.4}",
            p + 1,
            params[0],
            params[p + 1],
            records[p].approximation_ratio
        );
    }
    println!("(expect gamma_1 decreasing, beta_1 increasing, AR increasing)");
    Ok(())
}
