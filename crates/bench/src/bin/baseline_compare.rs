//! Extension study: ML initialization vs the canonical non-learned
//! warm-start heuristics.
//!
//! The paper compares its two-level flow only against random initialization
//! (Table I). The literature it cites (\[5\], Zhou et al.) offers stronger
//! baselines: the INTERP and FOURIER incremental strategies and the
//! adiabatic linear ramp. This binary runs all five initialization
//! strategies on the same test graphs with identical function-call
//! accounting, answering "does the ML predictor beat the best non-learned
//! warm starts, not just random ones?"
//!
//! Strategies, per test graph and target depth `pt`:
//!
//! * **random** — best-effort mean over `restarts` random inits at `pt`,
//! * **ramp** — one optimization from the linear-ramp (TQA) start,
//! * **interp** — incremental re-optimization p = 1…pt (Zhou et al.),
//! * **fourier** — incremental coefficient-space optimization (Zhou et al.),
//! * **two-level** — the paper's flow: p = 1 optimum → GPR → pt init.
//!
//! Run: `cargo run --release -p bench --bin baseline_compare [-- --quick] [-- --threads N]`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "a binary may stop on an unrecoverable startup error; the no-panic rule guards library code"
)]

use bench::{count_f64, RunConfig};
use ml::metrics::mean;
use ml::ModelKind;
use optimize::{Lbfgsb, Options};
use qaoa::evaluation;
use qaoa::stablehash::wide;
use qaoa::warmstart::{linear_ramp, FourierFlow, InterpFlow};
use qaoa::{MaxCutProblem, ParameterPredictor, QaoaInstance, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct StrategyStats {
    name: &'static str,
    ar: Vec<f64>,
    fc: Vec<f64>,
}

impl StrategyStats {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            ar: Vec::new(),
            fc: Vec::new(),
        }
    }

    fn push(&mut self, ar: f64, fc: usize) {
        self.ar.push(ar);
        self.fc.push(count_f64(fc));
    }
}

fn main() {
    let config = RunConfig::from_env();
    let dataset = config.corpus();
    let (train, test) = dataset.split_by_graph(0.2);
    let predictor = ParameterPredictor::train(ModelKind::Gpr, &train).expect("GPR training");
    let optimizer = Lbfgsb::default();
    let options = Options::default();
    let n_eval = test.graphs().len().min(if config.quick { 12 } else { 64 });
    let depths: Vec<usize> = (2..=config.max_depth.min(5)).collect();
    let pool = bench::cli::pool(&config);

    println!(
        "# Baseline comparison: L-BFGS-B, {n_eval} test graphs, \
         random uses {} starts, {} threads",
        config.naive_starts.unwrap_or(config.restarts),
        pool.threads()
    );
    println!(
        "{:>3} {:>10} {:>9} {:>9} {:>9}",
        "p", "strategy", "meanAR", "meanFC", "red% vs random"
    );

    for &depth in &depths {
        let mut strategies = vec![
            StrategyStats::new("random"),
            StrategyStats::new("ramp"),
            StrategyStats::new("interp"),
            StrategyStats::new("fourier"),
            StrategyStats::new("two-level"),
        ];

        // Random baseline via the shared (engine-parallel) Table-I protocol.
        let naive = engine::compare::naive_protocol(
            &test.graphs()[..n_eval],
            depth,
            &optimizer,
            config.naive_starts.unwrap_or(config.restarts),
            &options,
            config.seed,
            &Scenario::Exact,
            &pool,
        )
        .expect("naive protocol");
        for (ar, fc) in naive {
            strategies[0].push(ar, fc);
        }

        // The four warm-start strategies, one engine job per graph. Seeds
        // are derived per (depth, graph), so results match serial exactly.
        let graphs = &test.graphs()[..n_eval];
        let per_graph = pool.run_ordered(graphs.len(), |gid| {
            let problem = MaxCutProblem::new(&graphs[gid]).expect("non-empty graph");
            let seed = config.seed ^ (wide(depth) << 32) ^ wide(gid);

            // Linear ramp: one shot at the target depth.
            let init = linear_ramp(depth, 0.75 * count_f64(depth)).expect("valid depth");
            let instance = QaoaInstance::new(problem.clone(), depth).expect("valid depth");
            let out = instance
                .optimize(&optimizer, &init, &options)
                .expect("ramp optimization");
            let ramp = (out.approximation_ratio, out.function_calls);

            // INTERP incremental flow.
            let mut rng = StdRng::seed_from_u64(seed);
            let out = InterpFlow::default()
                .run(&problem, depth, &optimizer, &mut rng)
                .expect("interp flow");
            let interp = (out.approximation_ratio, out.total_calls());

            // FOURIER incremental flow.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF0F0);
            let out = FourierFlow::default()
                .run(&problem, depth, &optimizer, &mut rng)
                .expect("fourier flow");
            let fourier = (out.approximation_ratio, out.total_calls());

            // Two-level ML flow: the Table-I protocol on this graph.
            let two_level = evaluation::two_level_protocol_graph(
                &graphs[gid],
                depth,
                &optimizer,
                &predictor,
                1,
                &options,
                seed ^ 0x4D4C,
                &Scenario::Exact,
            )
            .expect("two-level flow");

            [ramp, interp, fourier, two_level]
        });
        for samples in per_graph {
            for (si, (ar, fc)) in samples.into_iter().enumerate() {
                strategies[1 + si].push(ar, fc);
            }
        }

        let random_fc = mean(&strategies[0].fc);
        for s in &strategies {
            let red = 100.0 * (1.0 - mean(&s.fc) / random_fc);
            println!(
                "{:>3} {:>10} {:>9.4} {:>9.1} {:>9.1}",
                depth,
                s.name,
                mean(&s.ar),
                mean(&s.fc),
                red
            );
        }
        println!();
    }
}
