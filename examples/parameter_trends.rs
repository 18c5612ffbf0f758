//! Reproduces the parameter-trend observations of §II (Figs. 2 and 3) on a
//! single random 3-regular graph: within a fixed depth the optimal γᵢ grow
//! and βᵢ shrink with the stage index, and across depths γ₁ shrinks while
//! β₁ grows.
//!
//! These regularities are the entire basis of the paper's ML predictor.
//! They emerge when consecutive depths stay in the same smooth basin family,
//! so — as in the corpus pipeline (`qaoa::datagen`) — the depth-1 instance is
//! solved by multistart and deeper instances follow Zhou et al.'s INTERP
//! chain; the smoothness-preserving conjugation fold normalizes the display.
//!
//! Run: `cargo run --release -p qaoa --example parameter_trends`

use graphs::generators;
use optimize::{Lbfgsb, Options};
use qaoa::datagen::interp_resample;
use qaoa::{canonical, MaxCutProblem, QaoaInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2020);
    let graph = generators::random_regular(8, 3, &mut rng)?;
    let problem = MaxCutProblem::new(&graph)?;
    let optimizer = Lbfgsb::default();
    let options = Options::default();
    let max_depth = 5;

    println!("graph: {graph} (3-regular)");

    // Build the INTERP chain once; read both trends off it.
    let mut chain: Vec<(Vec<f64>, f64)> = Vec::new();
    for p in 1..=max_depth {
        let instance = QaoaInstance::new(problem.clone(), p)?;
        let outcome = if let Some((packed, _)) = chain.last() {
            let half = packed.len() / 2;
            let mut seed = interp_resample(&packed[..half], p);
            seed.extend(interp_resample(&packed[half..], p));
            instance.optimize(&optimizer, &seed, &options)?
        } else {
            instance.optimize_multistart(&optimizer, 10, &mut rng, &options)?
        };
        chain.push((outcome.params, outcome.approximation_ratio));
    }

    let folded = canonical::display_fold_chain(
        &chain
            .iter()
            .map(|(params, _)| params.clone())
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
            chain[p].1
        );
    }
    println!("(expect gamma_1 decreasing, beta_1 increasing, AR increasing)");
    Ok(())
}
