//! The evaluation hot path: allocating legacy pipeline vs the
//! `EvalContext` pipeline, and finite-difference vs adjoint gradients.
//!
//! `expectation/...` benches the paper's "function call / QC call" unit
//! across a width sweep — n = 8 (the paper's width), n = 12, n = 16 (the
//! acceptance workload), and n = 20 (the scaling headroom check) — all at
//! p = 2. The sweep feeds the committed `BENCH_eval.json` snapshot
//! (regenerate with `scripts/bench_snapshot.sh`):
//!
//! * `allocating` — the pre-`EvalContext` implementation, replicated
//!   verbatim: fresh `plus_state` per call, a materialized `2^n` phase
//!   vector per stage (one `cis` per basis state), generic per-qubit RX
//!   gates.
//! * `ctx_fresh` — `EvalContext` pipeline (per-level phase table + fused RX
//!   layer) but a new context per call: isolates the kernel wins from the
//!   buffer-reuse win.
//! * `ctx_reused` — one context reused across calls, as each optimizer run
//!   reuses the context it owns for all of its objective calls.
//!
//! `gradient/...` compares full-gradient acquisition across the same
//! width sweep (n = 8, 12, 16, 20) at p = 2: `2p + 1 = 5` evaluations for
//! central differences vs one adjoint backward pass.

#![allow(
    clippy::as_conversions,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test and bench code: a panic is how it reports a failure, and fixtures cast literals"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use graphs::generators;
use qaoa::{EvalContext, MaxCutProblem, QaoaAnsatz};
use qsim::{gates, Complex64, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-`EvalContext` expectation, kept verbatim as the baseline.
fn allocating_expectation(ansatz: &QaoaAnsatz, params: &[f64]) -> f64 {
    let (gammas, betas) = ansatz.split_params(params).expect("valid params");
    let n = ansatz.problem().n_qubits();
    let diag = ansatz.problem().cost().diagonal();
    let mut state = StateVector::plus_state(n);
    for (&gamma, &beta) in gammas.iter().zip(betas) {
        let phases: Vec<Complex64> = diag.iter().map(|&c| Complex64::cis(-gamma * c)).collect();
        state.apply_diagonal(&phases).expect("matching dims");
        let rx = gates::rx(2.0 * beta);
        for q in 0..n {
            state.apply_single(q, &rx).expect("valid qubit");
        }
    }
    ansatz
        .problem()
        .cost()
        .expectation(&state)
        .expect("matching dims")
}

fn workload(n: usize, p: usize) -> (QaoaAnsatz, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(16);
    let graph = generators::erdos_renyi_nonempty(n, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let ansatz = QaoaAnsatz::new(problem, p).expect("valid depth");
    let params: Vec<f64> = (0..2 * p).map(|i| 0.3 + 0.17 * i as f64).collect();
    (ansatz, params)
}

fn bench_expectation_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("expectation");
    for n in [8usize, 12, 16, 20] {
        let (ansatz, params) = workload(n, 2);
        group.bench_with_input(BenchmarkId::new("allocating", n), &n, |b, _| {
            b.iter(|| black_box(allocating_expectation(&ansatz, &params)));
        });
        group.bench_with_input(BenchmarkId::new("ctx_fresh", n), &n, |b, _| {
            b.iter(|| {
                let mut ctx = EvalContext::new(n);
                black_box(
                    ansatz
                        .expectation_in(&mut ctx, &params)
                        .expect("valid params"),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("ctx_reused", n), &n, |b, _| {
            let mut ctx = EvalContext::new(n);
            b.iter(|| {
                black_box(
                    ansatz
                        .expectation_in(&mut ctx, &params)
                        .expect("valid params"),
                )
            });
        });
    }
    group.finish();
}

fn bench_gradient_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("gradient");
    for n in [8usize, 12, 16, 20] {
        let (ansatz, params) = workload(n, 2);
        let dim = params.len();
        group.bench_with_input(BenchmarkId::new("central_diff", n), &n, |b, _| {
            // 2p + 1 evaluations: the value plus a ± probe pair per
            // parameter, each through the fast context path (FD's best
            // case).
            let mut ctx = EvalContext::new(n);
            b.iter(|| {
                let mut grad = vec![0.0; dim];
                let h = 1e-6;
                let base = ansatz
                    .expectation_in(&mut ctx, &params)
                    .expect("valid params");
                let mut probe = params.clone();
                for i in 0..dim {
                    probe[i] = params[i] + h;
                    let up = ansatz
                        .expectation_in(&mut ctx, &probe)
                        .expect("valid params");
                    probe[i] = params[i] - h;
                    let dn = ansatz
                        .expectation_in(&mut ctx, &probe)
                        .expect("valid params");
                    probe[i] = params[i];
                    grad[i] = (up - dn) / (2.0 * h);
                }
                black_box((base, grad))
            });
        });
        group.bench_with_input(BenchmarkId::new("adjoint", n), &n, |b, _| {
            let mut ctx = EvalContext::new(n);
            b.iter(|| {
                let mut grad = vec![0.0; dim];
                let e = ansatz
                    .expectation_and_grad_in(&mut ctx, &params, &mut grad)
                    .expect("valid params");
                black_box((e, grad))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_expectation_paths, bench_gradient_paths);
criterion_main!(benches);
