//! `sweep_exact_n12`: the paper's whole pipeline in one process on two
//! threads. `engine::corpus` solves the corpus (n=12, 12 Erdős–Rényi
//! graphs, depths 1..4, 2 restarts), `ParameterPredictor::train` fits GPR
//! on the first 20% of graphs, and `engine::compare::compare` runs the
//! Table-I sweep on the rest: 4 optimizers × depths 2..4, 2 naive starts.
//! The unit operation is one objective call inside the sweep, costed as an
//! optimizer run's time over its calls (values and gradients alike).

use std::sync::Arc;
use std::time::Instant;

use engine::{corpus, CorpusReport, Engine};
use graphs::Graph;
use ml::ModelKind;
use qaoa::datagen::DataGenConfig;
use qaoa::evaluation::{ComparisonRow, EvaluationConfig};
use qaoa::{ParameterPredictor, Scenario};

use super::{derive, measure, repeat_setup, since, Ctx, Cycle, THREADS};
use crate::probes;
use crate::report::Report;
use crate::stats::{median, Digest};
use crate::sys;
use crate::timing::{timed, CallLog, OptCall};
use crate::trace::Tracer;

/// Set-ups per cycle: one takes well under a millisecond, so many are
/// needed for a steady median.
const SETUPS: usize = 50;

pub fn inputs(seed: u64) -> (DataGenConfig, EvaluationConfig) {
    let corpus = DataGenConfig {
        n_graphs: 12,
        n_nodes: 12,
        edge_probability: 0.5,
        max_depth: 4,
        restarts: 2,
        seed: derive(seed, 1),
        options: Default::default(),
        trend_preference_margin: 1e-3,
    };
    let eval = EvaluationConfig {
        depths: vec![2, 3, 4],
        naive_starts: 2,
        level1_starts: 1,
        options: Default::default(),
        seed: derive(seed, 2),
        scenario: Scenario::Exact,
    };
    (corpus, eval)
}

/// What one pass of the pipeline leaves for the report.
pub struct Pass {
    pub corpus: CorpusReport,
    pub corpus_s: f64,
    pub sweep_s: f64,
    pub jobs: usize,
    pub rows: Vec<ComparisonRow>,
    pub calls: Vec<OptCall>,
    pub cpu_corpus_s: f64,
    pub cpu_sweep_s: f64,
    pub sweep_span: u64,
    pub first_graph: Graph,
}

fn cycle(
    corpus_cfg: &DataGenConfig,
    eval: &EvaluationConfig,
    tracer: &Tracer,
    parent: u64,
) -> Result<Cycle<Pass>, String> {
    let ((engine, graphs, log, optimizers), setup_s) = repeat_setup(SETUPS, || {
        Ok(tracer.span("phase.setup", parent, 0, |_| {
            let log = Arc::new(CallLog::default());
            let optimizers = timed(optimize::all_optimizers(), &log);
            (
                Engine::new(THREADS),
                corpus::ensemble(corpus_cfg),
                log,
                optimizers,
            )
        }))
    })?;
    let first_graph = graphs[0].clone();

    let pass_start = Instant::now();
    let cpu0 = sys::cpu_seconds().unwrap_or(0.0);
    let (dataset, corpus_report) = tracer
        .span("phase.corpus", parent, 0, |_| {
            corpus::from_graphs(graphs, corpus_cfg, &engine)
        })
        .map_err(|e| format!("corpus generation failed: {e}"))?;
    let corpus_s = since(pass_start);
    let cpu1 = sys::cpu_seconds().unwrap_or(0.0);
    let (train, test) = dataset.split_by_graph(0.2);
    let predictor = tracer
        .span("phase.train", parent, 0, |_| {
            ParameterPredictor::train(ModelKind::Gpr, &train)
        })
        .map_err(|e| format!("GPR training failed: {e}"))?;
    let sweep_start = Instant::now();
    let cpu2 = sys::cpu_seconds().unwrap_or(0.0);
    let (rows, sweep_span) = tracer.span("phase.sweep", parent, 0, |id| {
        let rows =
            engine::compare::compare(test.graphs(), &optimizers, &predictor, eval, engine.pool());
        (rows, id)
    });
    let rows = rows.map_err(|e| format!("Table-I sweep failed: {e}"))?;
    let sweep_s = since(sweep_start);
    let pass_s = since(pass_start);
    let cpu3 = sys::cpu_seconds().unwrap_or(0.0);

    tracer.span("phase.verify", parent, 0, move |_| {
        let calls = log.calls();
        let jobs = optimizers.len() * eval.depths.len() * test.graphs().len() * 2;
        let mut digest = Digest::default();
        for record in dataset.records() {
            digest.add(engine::wire::encode_record(record).as_bytes());
        }
        let mut problems = Vec::new();
        for row in &rows {
            digest.add(row.optimizer.as_bytes());
            digest.add(&row.depth.to_le_bytes());
            for x in [
                row.naive_ar_mean,
                row.naive_ar_sd,
                row.naive_fc_mean,
                row.naive_fc_sd,
                row.ml_ar_mean,
                row.ml_ar_sd,
                row.ml_fc_mean,
                row.ml_fc_sd,
            ] {
                digest.add_f64(x);
            }
            for ar in [row.naive_ar_mean, row.ml_ar_mean] {
                if !(ar > 0.0 && ar <= 1.0) {
                    problems.push(format!(
                        "{} depth {}: approximation ratio {ar} outside (0, 1]",
                        row.optimizer, row.depth
                    ));
                }
            }
        }
        let cells = optimizers.len() * eval.depths.len();
        if rows.len() != cells {
            problems.push(format!("{} Table-I rows, expected {cells}", rows.len()));
        }
        if corpus_report.cells != corpus_cfg.n_graphs * corpus_cfg.max_depth {
            problems.push(format!("corpus solved {} cells", corpus_report.cells));
        }
        Ok(Cycle {
            setup_s,
            pass_s,
            ops_us: calls.iter().map(OptCall::us_per_call).collect(),
            attempted: (jobs + corpus_report.cells) as u64,
            failed: 0,
            digest: digest.value(),
            problems,
            extra: Pass {
                corpus: corpus_report,
                corpus_s,
                sweep_s,
                jobs,
                rows,
                calls,
                cpu_corpus_s: cpu1 - cpu0,
                cpu_sweep_s: cpu3 - cpu2,
                sweep_span,
                first_graph,
            },
        })
    })
}

/// Mean Table-I FC reduction and mean ML approximation ratio over rows.
pub fn quality(rows: &[ComparisonRow]) -> (f64, f64) {
    let n = rows.len().max(1) as f64;
    let fc = rows
        .iter()
        .map(ComparisonRow::fc_reduction_percent)
        .sum::<f64>()
        / n;
    let ar = rows.iter().map(|r| r.ml_ar_mean).sum::<f64>() / n;
    (fc, ar)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (corpus_cfg, eval) = inputs(ctx.seed);
    let tracer = Tracer::new(false);
    // Optimizer runs: 4 optimizers × 3 depths × 9 graphs × (2 naive starts
    // plus the two-level flow's level-1 and target runs).
    let ops_per_pass = 4 * 3 * 9 * 4;
    let (mut report, passes) =
        measure(ctx, ops_per_pass, || cycle(&corpus_cfg, &eval, &tracer, 0))?;
    let cells: Vec<f64> = passes
        .iter()
        .map(|p| p.corpus.cells as f64 / p.corpus_s)
        .collect();
    let jobs: Vec<f64> = passes.iter().map(|p| p.jobs as f64 / p.sweep_s).collect();
    let (fc, ar) = quality(&passes[0].rows);
    report.note(format!(
        "cells_per_s = {} cells/s (corpus phase)",
        median(&cells)
    ));
    report.note(format!(
        "sweep_jobs_per_s = {} jobs/s (Table-I phase)",
        median(&jobs)
    ));
    report.note(format!("fc_reduction_pct = {fc} %"));
    report.note(format!("ml_ar_mean = {ar} ratio"));
    report.note(format!(
        "fail_ratio = {} ratio",
        report.failed as f64 / report.attempted.max(1) as f64
    ));
    Ok(report)
}

/// Short metric key of an optimizer name.
pub fn opt_key(name: &str) -> String {
    name.to_ascii_lowercase()
        .replace(['-', ' '], "_")
        .replace("l_bfgs_b", "lbfgsb")
}

pub fn traced(
    ctx: &Ctx,
    tracer: &Tracer,
    root: u64,
    report: &mut Report,
) -> Result<(u64, f64), String> {
    let (corpus_cfg, eval) = inputs(ctx.seed);
    let cycle = cycle(&corpus_cfg, &eval, tracer, root)?;
    report.attempted += cycle.attempted;
    report.failed += cycle.failed;
    for p in &cycle.problems {
        report.fail(format!("sweep_exact_n12: {p}"));
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
    for call in &pass.calls {
        let id = tracer.open();
        let name = format!("optimize.{}", opt_key(call.optimizer));
        tracer.record(id, &name, pass.sweep_span, 0, call.start, call.end);
    }

    // qsim::soa through qaoa::eval, at n = 12 and every depth the sweep runs.
    let mut eval_us = [0.0; 5];
    let mut grad_us = [0.0; 5];
    for depth in 1..=4 {
        let (e, g) = probes::soa_us(&pass.first_graph, depth)?;
        eval_us[depth] = e;
        grad_us[depth] = g;
    }
    report.metric("soa.expectation_us", eval_us[3], "us");
    report.metric("soa.gradient_us", grad_us[3], "us");
    report.metric("soa.grad_to_eval", grad_us[3] / eval_us[3], "ratio");
    let computed_busy: f64 = pass
        .calls
        .iter()
        .map(|c| {
            let d = c.depth.clamp(1, 4);
            c.nfev as f64 * eval_us[d] + c.njev as f64 * grad_us[d]
        })
        .sum::<f64>()
        / 1e6;
    report.metric(
        "soa.share_computed",
        computed_busy / (THREADS as f64 * pass.sweep_s),
        "ratio",
    );

    // optimize: deterministic call counts and busy time per Table-I cell.
    for name in ["L-BFGS-B", "Nelder-Mead", "SLSQP", "COBYLA"] {
        let key = opt_key(name);
        let mine: Vec<&OptCall> = pass.calls.iter().filter(|c| c.optimizer == name).collect();
        report.metric(
            format!("optimize.nfev.{key}"),
            mine.iter().map(|c| c.nfev).sum::<usize>() as f64,
            "count",
        );
        if matches!(name, "L-BFGS-B" | "SLSQP") {
            report.metric(
                format!("optimize.njev.{key}"),
                mine.iter().map(|c| c.njev).sum::<usize>() as f64,
                "count",
            );
        }
        let busy: f64 = mine.iter().map(|c| c.seconds()).sum();
        report.metric(
            format!("optimize.cell_s.{key}"),
            busy / eval.depths.len() as f64,
            "s",
        );
    }

    // engine::corpus and engine::pool.
    report.metric("corpus.wall_s", pass.corpus.wall.as_secs_f64(), "s");
    report.metric(
        "corpus.fn_calls",
        pass.corpus.function_calls as f64,
        "count",
    );
    report.metric("corpus.cache_hits", pass.corpus.cache_hits as f64, "count");
    let threads = THREADS as f64;
    report.metric(
        "engine.cpu_util_corpus",
        pass.cpu_corpus_s / (pass.corpus_s * threads),
        "ratio",
    );
    report.metric(
        "engine.cpu_util_sweep",
        pass.cpu_sweep_s / (pass.sweep_s * threads),
        "ratio",
    );
    let (fc, ar) = quality(&pass.rows);
    report.metric("sweep.fc_reduction_pct", fc, "%");
    report.metric("sweep.ml_ar_mean", ar, "ratio");
    tracer.close(probes_id, "phase.probes", root, 0, probes_start);
    Ok((
        cycle.digest,
        cycle.setup_s.iter().sum::<f64>() + cycle.pass_s,
    ))
}
