//! Fig. 2: within-depth trends in the optimal control parameters of four
//! 3-regular graphs — at fixed depth, γᵢOPT increases with stage i while
//! βᵢOPT decreases (panels (a) p = 3 and (b) p = 5).
//!
//! Optima are produced the way the paper's own figures imply, and the way
//! the corpus pipeline produces them: the depth-1 instance is solved by multistart and deeper instances
//! follow the INTERP chain (Zhou et al., the paper's ref [5]) that stays in
//! one smooth basin family; for display, only the smoothness-preserving
//! conjugation fold is applied so every graph appears in the same image
//! family of the paper's domain `γ ∈ [0, 2π], β ∈ [0, π]`.
//!
//! Run: `cargo run --release -p bench --bin fig2 [-- --quick]`

use bench::RunConfig;
use graphs::generators;
use optimize::{Lbfgsb, Options};
use qaoa::datagen::interp_resample;
use qaoa::{MaxCutProblem, QaoaInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Solves depths `1..=max` along an INTERP chain; returns per-depth packed
/// parameters and ARs.
fn interp_chain(
    problem: &MaxCutProblem,
    max_depth: usize,
    restarts: usize,
    rng: &mut StdRng,
) -> Vec<(Vec<f64>, f64)> {
    let optimizer = Lbfgsb::default();
    let options = Options::default();
    let mut out = Vec::with_capacity(max_depth);
    let mut prev: Option<Vec<f64>> = None;
    for p in 1..=max_depth {
        let instance = QaoaInstance::new(problem.clone(), p).expect("valid depth");
        let outcome = match &prev {
            None => instance
                .optimize_multistart(&optimizer, restarts, rng, &options)
                .expect("level-1 optimization"),
            Some(packed) => {
                let half = packed.len() / 2;
                let mut seed = interp_resample(&packed[..half], p);
                seed.extend(interp_resample(&packed[half..], p));
                instance
                    .optimize(&optimizer, &seed, &options)
                    .expect("seeded optimization")
            }
        };
        prev = Some(outcome.params.clone());
        out.push((outcome.params, outcome.approximation_ratio));
    }
    out
}

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

    println!(
        "# Fig 2: optimal parameters per stage at fixed depth ({} inits at p=1, INTERP chain above)",
        config.restarts
    );
    let chains: Vec<_> = graphs
        .iter()
        .map(|g| {
            let problem = MaxCutProblem::new(g).expect("non-empty graph");
            interp_chain(&problem, max_depth, config.restarts, &mut rng)
        })
        .collect();
    for &p in &depths {
        println!("## depth p = {p}");
        println!(
            "{:<6} {:>3} {:>10} {:>10}",
            "graph", "i", "gamma_i", "beta_i"
        );
        for (gi, chain) in chains.iter().enumerate() {
            // Continuity-anchored fold over the whole chain, then read the
            // requested depth's row.
            let packed: Vec<Vec<f64>> = chain.iter().map(|(v, _)| v.clone()).collect();
            let folded = qaoa::canonical::display_fold_chain(&packed);
            let params = &folded[p - 1];
            for i in 0..p {
                println!(
                    "G{:<5} {:>3} {:>10.4} {:>10.4}",
                    gi + 1,
                    i + 1,
                    params[i],
                    params[p + i]
                );
            }
        }
    }
    println!("# Expected shape: within a graph, gamma_i grows with i; beta_i shrinks with i.");
}
