//! Noisy QAOA: how gate errors eat the approximation ratio.
//!
//! Runs the same depth-2 QAOA instance on the density-matrix simulator
//! under increasing depolarizing noise and shows (a) the decohered energy
//! at fixed good parameters, and (b) what re-optimizing *under* noise
//! recovers. This is the regime the paper's run-time argument targets:
//! every QC call is expensive and noisy.
//!
//! Run: `cargo run --release -p integration --example noisy_simulation`

use graphs::generators;
use optimize::{NelderMead, Options};
use qaoa::noisy::NoisyQaoa;
use qaoa::{MaxCutProblem, QaoaInstance, Scenario};
use qsim::NoiseModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(11);
    let graph = generators::erdos_renyi_nonempty(6, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph)?;
    let depth = 2;

    // First find good noiseless parameters.
    let instance = QaoaInstance::new(problem.clone(), depth)?;
    let clean =
        instance.optimize_multistart(&NelderMead::default(), 5, &mut rng, &Options::default())?;
    println!(
        "noiseless optimum: AR = {:.4} ({} calls)\n",
        clean.approximation_ratio, clean.function_calls
    );

    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "p2", "AR(frozen)", "AR(re-opt)", "purity"
    );
    for p2 in [0.0, 0.002, 0.01, 0.05] {
        let noise = NoiseModel::uniform_depolarizing(p2 / 10.0, p2)?;
        let noisy = NoisyQaoa::new(problem.clone(), depth, noise)?;
        let scenario = Scenario::Noisy { p1: p2 / 10.0, p2 };

        // (a) Evaluate the noiseless optimum on the noisy device.
        let frozen_ar = noisy.approximation_ratio(&clean.params)?;
        let purity = noisy.state(&clean.params)?.purity();

        // (b) Re-optimize in the presence of noise, warm-started from the
        // noiseless optimum.
        let reopt = QaoaInstance::with_scenario(problem.clone(), depth, &scenario, 0)?.optimize(
            &NelderMead::default(),
            &clean.params,
            &Options::default().with_max_iters(100),
        )?;

        println!(
            "{:>8.3} {:>12.4} {:>12.4} {:>10.4}",
            p2, frozen_ar, reopt.approximation_ratio, purity
        );
    }

    println!(
        "\nNoise suppresses the achievable AR even with re-optimization — the\n\
         fewer QC calls a flow needs (the paper's two-level proposal), the\n\
         less decoherence budget the experiment burns."
    );
    Ok(())
}
