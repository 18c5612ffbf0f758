//! `noisy_n6`: the two Table-I protocols under gate noise. On n=6, depth
//! 2, 12 graphs, `engine::compare::naive_protocol` and `two_level_protocol`
//! run Nelder-Mead (at most 120 iterations) on two threads with every
//! ⟨C⟩ a density-matrix simulation under depolarizing noise
//! (p1 = 0.002, p2 = 0.02). The GPR predictor is trained in set-up on an
//! exact n=6 Erdős–Rényi corpus. The unit operation is one objective call,
//! costed as an optimizer run's time over its calls.
//!
//! The evaluated graphs are uniform random graphs with exactly 8 edges
//! (the mean of G(6, 0.5) is 7.5). A noisy call applies one two-qubit
//! channel per edge, so its cost follows the edge count. With G(6, 0.5)
//! graphs the median call cost moved by a third from seed to seed.

use std::sync::Arc;
use std::time::Instant;

use engine::{corpus, Engine};
use graphs::{generators, Graph};
use ml::ModelKind;
use optimize::{NelderMead, Optimizer, Options};
use qaoa::datagen::DataGenConfig;
use qaoa::{ParameterPredictor, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{derive, measure, repeat_setup, since, Ctx, Cycle, THREADS};
use crate::probes;
use crate::report::Report;
use crate::stats::{median, Digest};
use crate::sys;
use crate::timing::{timed, CallLog, OptCall};
use crate::trace::Tracer;

const DEPTH: usize = 2;
const P1: f64 = 0.002;
const P2: f64 = 0.02;
const NAIVE_STARTS: usize = 2;
/// Set-ups per cycle: one takes about ten milliseconds.
const SETUPS: usize = 5;

const GRAPHS: usize = 12;
const NODES: usize = 6;
const EDGES: usize = 8;

pub struct Inputs {
    corpus: DataGenConfig,
    graphs: Vec<Graph>,
    naive_seed: u64,
    ml_seed: u64,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(derive(seed, 24));
    Inputs {
        corpus: DataGenConfig {
            n_graphs: 4,
            n_nodes: NODES,
            edge_probability: 0.5,
            max_depth: DEPTH,
            restarts: 3,
            seed: derive(seed, 21),
            options: Default::default(),
            trend_preference_margin: 1e-3,
        },
        graphs: (0..GRAPHS)
            .map(|_| generators::gnm(NODES, EDGES, &mut rng))
            .collect(),
        naive_seed: derive(seed, 22),
        ml_seed: derive(seed, 23),
    }
}

pub struct Pass {
    pub protocols_s: f64,
    pub jobs: usize,
    pub naive: Vec<(f64, usize)>,
    pub ml: Vec<(f64, usize)>,
    pub calls: Vec<OptCall>,
    pub cpu_s: f64,
    pub train_s: f64,
    pub first_graph: Graph,
}

fn cycle(inputs: &Inputs, tracer: &Tracer, parent: u64) -> Result<Cycle<Pass>, String> {
    let graphs = &inputs.graphs;
    let ((engine, predictor, log, optimizer, train_s), setup_s) = repeat_setup(SETUPS, || {
        tracer.span("phase.setup", parent, 0, |setup| -> Result<_, String> {
            let engine = Engine::new(THREADS);
            let (dataset, _) = corpus::generate(&inputs.corpus, &engine)
                .map_err(|e| format!("training corpus failed: {e}"))?;
            let train_start = Instant::now();
            let predictor = tracer
                .span("ml.train", setup, 0, |_| {
                    ParameterPredictor::train(ModelKind::Gpr, &dataset)
                })
                .map_err(|e| format!("GPR training failed: {e}"))?;
            let train_s = since(train_start);
            let log = Arc::new(CallLog::default());
            let mut optimizer = timed(vec![Box::new(NelderMead::default())], &log);
            let optimizer = optimizer.pop().expect("one optimizer was wrapped");
            Ok((engine, predictor, log, optimizer, train_s))
        })
    })?;

    let scenario = Scenario::Noisy { p1: P1, p2: P2 };
    let options = Options::default().with_max_iters(120);
    let optimizer: &(dyn Optimizer + Sync) = optimizer.as_ref();
    let pass_start = Instant::now();
    let cpu0 = sys::cpu_seconds().unwrap_or(0.0);
    let naive = tracer.span("phase.naive", parent, 0, |_| {
        engine::compare::naive_protocol(
            graphs,
            DEPTH,
            optimizer,
            NAIVE_STARTS,
            &options,
            inputs.naive_seed,
            &scenario,
            engine.pool(),
        )
    });
    let naive = naive.map_err(|e| format!("noisy naive protocol failed: {e}"))?;
    let ml = tracer.span("phase.two_level", parent, 0, |_| {
        engine::compare::two_level_protocol(
            graphs,
            DEPTH,
            optimizer,
            &predictor,
            1,
            &options,
            inputs.ml_seed,
            &scenario,
            engine.pool(),
        )
    });
    let ml = ml.map_err(|e| format!("noisy two-level protocol failed: {e}"))?;
    let pass_s = since(pass_start);
    let cpu_s = sys::cpu_seconds().unwrap_or(0.0) - cpu0;

    tracer.span("phase.verify", parent, 0, move |_| {
        let mut digest = Digest::default();
        let mut problems = Vec::new();
        for &(ar, fc) in naive.iter().chain(&ml) {
            digest.add_f64(ar);
            digest.add(&fc.to_le_bytes());
            if !(ar > 0.0 && ar <= 1.0) {
                problems.push(format!("approximation ratio {ar} outside (0, 1]"));
            }
        }
        let jobs = graphs.len() * 2;
        if naive.len() != graphs.len() * NAIVE_STARTS || ml.len() != graphs.len() {
            problems.push(format!("{} naive and {} ML samples", naive.len(), ml.len()));
        }
        let calls = log.calls();
        Ok(Cycle {
            setup_s,
            pass_s,
            ops_us: calls.iter().map(OptCall::us_per_call).collect(),
            attempted: jobs as u64,
            failed: 0,
            digest: digest.value(),
            problems,
            extra: Pass {
                protocols_s: pass_s,
                jobs,
                naive,
                ml,
                calls,
                cpu_s,
                train_s,
                first_graph: graphs[0].clone(),
            },
        })
    })
}

/// FC reduction of the ML flow against naive starts, and the ML flow's
/// mean approximation ratio.
fn quality(pass: &Pass) -> (f64, f64) {
    let mean = |s: &[(f64, usize)], f: fn(&(f64, usize)) -> f64| {
        s.iter().map(f).sum::<f64>() / s.len().max(1) as f64
    };
    let naive_fc = mean(&pass.naive, |s| s.1 as f64);
    let ml_fc = mean(&pass.ml, |s| s.1 as f64);
    (
        100.0 * (naive_fc - ml_fc) / naive_fc,
        mean(&pass.ml, |s| s.0),
    )
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let inputs = inputs(ctx.seed);
    let tracer = Tracer::new(false);
    // Naive starts plus a level-1 and a target run per two-level job.
    let ops_per_pass = GRAPHS * NAIVE_STARTS + GRAPHS * 2;
    let (mut report, passes) = measure(ctx, ops_per_pass, || cycle(&inputs, &tracer, 0))?;
    let jobs: Vec<f64> = passes
        .iter()
        .map(|p| p.jobs as f64 / p.protocols_s)
        .collect();
    let (fc, ar) = quality(&passes[0]);
    report.note(format!("sweep_jobs_per_s = {} jobs/s", median(&jobs)));
    report.note(format!("fc_reduction_pct = {fc} %"));
    report.note(format!("ml_ar_mean = {ar} ratio"));
    report.note(format!(
        "fail_ratio = {} ratio",
        report.failed as f64 / report.attempted.max(1) as f64
    ));
    Ok(report)
}

pub fn traced(
    ctx: &Ctx,
    tracer: &Tracer,
    root: u64,
    report: &mut Report,
) -> Result<(u64, f64), String> {
    let cycle = cycle(&inputs(ctx.seed), tracer, root)?;
    report.attempted += cycle.attempted;
    report.failed += cycle.failed;
    for p in &cycle.problems {
        report.fail(format!("noisy_n6: {p}"));
    }
    if !tracer.enabled() {
        return Ok((
            cycle.digest,
            cycle.setup_s.iter().sum::<f64>() + cycle.pass_s,
        ));
    }
    let probes_start = Instant::now();
    let probes_id = tracer.open();
    let pass = &cycle.extra;
    // qsim::density: level-1 runs of the two-level flow are depth 1, the
    // rest depth 2.
    let eval_ms = [
        0.0,
        probes::density_ms(&pass.first_graph, 1, P1, P2)?,
        probes::density_ms(&pass.first_graph, DEPTH, P1, P2)?,
    ];
    report.metric("density.eval_ms", eval_ms[DEPTH], "ms");
    let computed_busy: f64 = pass
        .calls
        .iter()
        .map(|c| c.nfev as f64 * eval_ms[c.depth.clamp(1, DEPTH)])
        .sum::<f64>()
        / 1e3;
    report.metric(
        "density.share_computed",
        computed_busy / (THREADS as f64 * pass.protocols_s),
        "ratio",
    );
    report.metric(
        "engine.cpu_util_noisy",
        pass.cpu_s / (pass.protocols_s * THREADS as f64),
        "ratio",
    );
    report.metric("ml.train_ms_noisy", pass.train_s * 1e3, "ms");
    let (fc, ar) = quality(pass);
    report.metric("noisy.fc_reduction_pct", fc, "%");
    report.metric("noisy.ml_ar_mean", ar, "ratio");
    tracer.close(probes_id, "phase.probes", root, 0, probes_start);
    Ok((
        cycle.digest,
        cycle.setup_s.iter().sum::<f64>() + cycle.pass_s,
    ))
}
