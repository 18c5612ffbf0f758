//! Warm-start shoot-out: random vs ramp vs INTERP vs FOURIER on one graph.
//!
//! Demonstrates the non-ML initialization heuristics of `qaoa::warmstart`
//! and how their cost (function calls) and quality (approximation ratio)
//! compare on a single 8-node instance. The `baseline_compare` benchmark
//! binary runs the same comparison — plus the ML two-level flow — over a
//! whole ensemble.
//!
//! Run: `cargo run --release -p integration --example warmstart_baselines`

use graphs::generators;
use optimize::{Lbfgsb, Options};
use qaoa::warmstart::{linear_ramp, FourierFlow, InterpFlow};
use qaoa::{MaxCutProblem, QaoaInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);
    let graph = generators::random_regular(8, 3, &mut rng)?;
    let problem = MaxCutProblem::new(&graph)?;
    let depth = 4;
    let optimizer = Lbfgsb::default();
    let options = Options::default();

    println!("8-node 3-regular graph, target depth p = {depth}\n");
    println!("{:<10} {:>8} {:>8}", "strategy", "AR", "calls");

    // Random initialization (mean of 5 starts).
    let instance = QaoaInstance::new(problem.clone(), depth)?;
    let bounds = qaoa::parameter_bounds(depth)?;
    let mut total_ar = 0.0;
    let mut total_fc = 0;
    for _ in 0..5 {
        let start = bounds.sample(&mut rng);
        let out = instance.optimize(&optimizer, &start, &options)?;
        total_ar += out.approximation_ratio;
        total_fc += out.function_calls;
    }
    println!(
        "{:<10} {:>8.4} {:>8}",
        "random",
        total_ar / 5.0,
        total_fc / 5
    );

    // Linear ramp (TQA-style) single-shot initialization.
    let init = linear_ramp(depth, 0.75 * depth as f64)?;
    let out = instance.optimize(&optimizer, &init, &options)?;
    println!(
        "{:<10} {:>8.4} {:>8}",
        "ramp", out.approximation_ratio, out.function_calls
    );

    // INTERP: re-optimize at every depth 1..=4, interpolating upward.
    let out = InterpFlow::default().run(&problem, depth, &optimizer, &mut rng)?;
    println!(
        "{:<10} {:>8.4} {:>8}",
        "interp",
        out.approximation_ratio,
        out.total_calls()
    );
    println!("           calls per depth: {:?}", out.calls_per_depth);

    // FOURIER: optimize a truncated Fourier series of the schedules.
    let out = FourierFlow::default().run(&problem, depth, &optimizer, &mut rng)?;
    println!(
        "{:<10} {:>8.4} {:>8}",
        "fourier",
        out.approximation_ratio,
        out.total_calls()
    );
    println!("           calls per depth: {:?}", out.calls_per_depth);

    Ok(())
}
