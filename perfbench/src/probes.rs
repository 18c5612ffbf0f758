//! Calibration probes for the traced run: single calls into a layer's
//! public functions at a workload's sizes, timed in isolation. Shares
//! derived from them are labelled as computed, since they assume each call
//! inside a workload costs what it costs alone.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use graphs::Graph;
use qaoa::noisy::NoisyQaoa;
use qaoa::{EvalContext, MaxCutProblem, ParameterPredictor, QaoaAnsatz};
use qsim::NoiseModel;

use crate::stats::median;

/// Shortest batch whose time is trusted.
const MIN_BATCH: Duration = Duration::from_millis(5);

/// Microseconds per call of `f`: the median of five batches, each long
/// enough to time.
pub fn per_call_us(mut f: impl FnMut()) -> f64 {
    let mut reps: u32 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        if start.elapsed() >= MIN_BATCH || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
        })
        .collect();
    median(&batches)
}

/// Fixed, non-degenerate parameters `[γ₁…γ_p, β₁…β_p]`.
pub fn params(depth: usize) -> Vec<f64> {
    let gammas = (0..depth).map(|k| 0.35 + 0.1 * k as f64);
    let betas = (0..depth).map(|k| 0.4 - 0.05 * k as f64);
    gammas.chain(betas).collect()
}

/// One exact ⟨C⟩ and one adjoint value-plus-gradient on `graph` at
/// `depth`, in microseconds, both through a reused [`EvalContext`].
pub fn soa_us(graph: &Graph, depth: usize) -> Result<(f64, f64), String> {
    let problem = MaxCutProblem::new(graph).map_err(|e| e.to_string())?;
    let ansatz = QaoaAnsatz::new(problem, depth).map_err(|e| e.to_string())?;
    let x = params(depth);
    let mut ctx = EvalContext::new(graph.n_nodes());
    let mut grad = vec![0.0; x.len()];
    ansatz
        .expectation_and_grad_in(&mut ctx, &x, &mut grad)
        .map_err(|e| e.to_string())?;
    let eval = per_call_us(|| {
        black_box(ansatz.expectation_in(&mut ctx, black_box(&x)).ok());
    });
    let gradient = per_call_us(|| {
        black_box(
            ansatz
                .expectation_and_grad_in(&mut ctx, black_box(&x), &mut grad)
                .ok(),
        );
    });
    Ok((eval, gradient))
}

/// One noisy ⟨C⟩ (density matrix with depolarizing channels) on `graph`
/// at `depth`, in milliseconds.
pub fn density_ms(graph: &Graph, depth: usize, p1: f64, p2: f64) -> Result<f64, String> {
    let problem = MaxCutProblem::new(graph).map_err(|e| e.to_string())?;
    let noise = NoiseModel::uniform_depolarizing(p1, p2).map_err(|e| e.to_string())?;
    let noisy = NoisyQaoa::new(problem, depth, noise).map_err(|e| e.to_string())?;
    let x = params(depth);
    noisy.expectation(&x).map_err(|e| e.to_string())?;
    Ok(per_call_us(|| {
        black_box(noisy.expectation(black_box(&x)).ok());
    }) / 1e3)
}

/// Mean microseconds of [`qaoa::canonical::graph_key`] over `graphs`.
pub fn graph_key_us(graphs: &[Graph]) -> f64 {
    per_call_us(|| {
        for g in graphs {
            black_box(qaoa::canonical::graph_key(black_box(g)));
        }
    }) / graphs.len().max(1) as f64
}

/// Mean microseconds per line of `f` over `lines`.
pub fn per_line_us<T>(lines: &[T], mut f: impl FnMut(&T)) -> f64 {
    per_call_us(|| {
        for line in lines {
            f(line);
        }
    }) / lines.len().max(1) as f64
}

/// Microseconds of one [`ParameterPredictor::predict`], averaged over
/// `depths`.
pub fn ml_predict_us(predictor: &ParameterPredictor, depths: &[usize]) -> f64 {
    per_call_us(|| {
        for &d in depths {
            black_box(predictor.predict(black_box(0.61), black_box(0.39), d).ok());
        }
    }) / depths.len().max(1) as f64
}

/// Milliseconds to load a `QMODEL1` artifact, median of five loads.
pub fn model_load_ms(path: &Path, master_seed: u64) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        match engine::model::load(path, master_seed) {
            engine::ModelLoad::Loaded(p) => black_box(p),
            other => return Err(format!("model did not load: {}", other.summary())),
        };
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&times))
}
