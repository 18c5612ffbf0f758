//! Criterion benches for the simulator kernels, including one design-choice
//! ablation: the fast diagonal QAOA path (phase layer applied as a diagonal)
//! vs the gate-level circuit path (CNOT–RZ–CNOT per edge).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use graphs::generators;
use qaoa::{MaxCutProblem, QaoaAnsatz};
use qsim::{gates, Complex64, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_single_qubit_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_qubit_gate");
    for n in [8usize, 12, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let rx = gates::rx(0.7);
            b.iter_batched(
                || StateVector::plus_state(n),
                |mut s| {
                    s.apply_single(n / 2, &rx).expect("valid qubit");
                    black_box(s)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_diagonal_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("diagonal_phase");
    for n in [8usize, 12, 16] {
        let phases: Vec<Complex64> = (0..1usize << n)
            .map(|z| Complex64::cis(0.01 * z as f64))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || StateVector::plus_state(n),
                |mut s| {
                    s.apply_diagonal(&phases).expect("matching dims");
                    black_box(s)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_qaoa_paths(c: &mut Criterion) {
    // Ablation: fast diagonal path vs gate-level circuit.
    let mut rng = StdRng::seed_from_u64(3);
    let graph = generators::erdos_renyi_nonempty(8, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let mut group = c.benchmark_group("qaoa_expectation_path");
    for p in [1usize, 3, 5] {
        let ansatz = QaoaAnsatz::new(problem.clone(), p).expect("valid depth");
        let params: Vec<f64> = (0..2 * p).map(|i| 0.2 + 0.1 * i as f64).collect();
        group.bench_with_input(BenchmarkId::new("fast", p), &p, |b, _| {
            b.iter(|| {
                black_box(
                    ansatz
                        .expectation(black_box(&params))
                        .expect("valid params"),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("gate_level", p), &p, |b, _| {
            b.iter(|| {
                black_box(
                    ansatz
                        .expectation_gate_level(black_box(&params))
                        .expect("valid params"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_qubit_gates,
    bench_diagonal_phase,
    bench_qaoa_paths
);
criterion_main!(benches);
