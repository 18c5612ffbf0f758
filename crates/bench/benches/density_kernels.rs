//! Criterion benches for the density-matrix (open-system) simulator:
//! gate application, the depolarizing channel, and the full noisy-QAOA energy
//! evaluation, against the pure-state path as the reference cost.
//! `dm_cnot_depolarizing` is the two-qubit pass of one noisy QAOA edge,
//! and `noisy_run/n6_m8_p2` is one noisy objective call on the shape of
//! the `noisy_n6` perfbench workload.

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
use qaoa::noisy::NoisyQaoa;
use qaoa::{EvalContext, MaxCutProblem, QaoaAnsatz};
use qsim::{gates, Circuit, DensityMatrix, NoiseModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One `RX` on qubit `n/2` (`dm_single_gate/{n}`), on qubit 0 (`q0/{n}`)
/// and on the top qubit `n − 1` (`top/{n}`): the block stride of a pass is
/// `2^qubit`, so the three cover the shortest, a middle and the longest
/// contiguous column runs.
fn bench_dm_single_gate(c: &mut Criterion) {
    let mut group = c.benchmark_group("dm_single_gate");
    for which in ["mid", "q0", "top"] {
        for n in [4usize, 6, 8] {
            let (id, qubit) = match which {
                "q0" => (format!("q0/{n}"), 0),
                "top" => (format!("top/{n}"), n - 1),
                _ => (n.to_string(), n / 2),
            };
            group.bench_function(id, |b| {
                let rx = gates::rx(0.7);
                b.iter_batched(
                    || DensityMatrix::plus_state(n).expect("small register"),
                    |mut rho| {
                        rho.apply_single(qubit, &rx).expect("valid qubit");
                        black_box(rho)
                    },
                    criterion::BatchSize::SmallInput,
                );
            });
        }
    }
    group.finish();
}

fn bench_dm_depolarizing_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("dm_depolarizing_channel");
    for n in [4usize, 6, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || DensityMatrix::plus_state(n).expect("small register"),
                |mut rho| {
                    rho.apply_depolarizing(n / 2, 0.01)
                        .expect("valid qubit and rate");
                    black_box(rho)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// One CNOT from qubit 0 to the top qubit with the depolarizing channel
/// p2 = 0.02 on both, the two-qubit pass of a noisy QAOA edge.
fn bench_dm_cnot_depolarizing(c: &mut Criterion) {
    let mut group = c.benchmark_group("dm_cnot_depolarizing");
    let noise = NoiseModel::uniform_depolarizing(0.0, 0.02).expect("valid rate");
    for n in [4usize, 6, 8] {
        let mut circuit = Circuit::new(n);
        circuit.cnot(0, n - 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || DensityMatrix::plus_state(n).expect("small register"),
                |mut rho| {
                    rho.run(&circuit, &noise).expect("valid circuit");
                    black_box(rho)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_noisy_vs_clean_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("qaoa_energy_p2");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(5);
    let graph = generators::erdos_renyi_nonempty(6, 0.5, &mut rng);
    let params = [0.8, 0.5, 0.4, 0.2];

    let problem = MaxCutProblem::new(&graph).expect("non-empty");
    let ansatz = QaoaAnsatz::new(problem.clone(), 2).expect("valid depth");
    group.bench_function("statevector_fast", |b| {
        // One context for every call, as one optimizer run keeps its own.
        let mut ctx = EvalContext::new(6);
        b.iter(|| {
            black_box(
                ansatz
                    .expectation_in(&mut ctx, black_box(&params))
                    .expect("valid params"),
            )
        });
    });

    let clean = NoisyQaoa::new(problem.clone(), 2, NoiseModel::noiseless()).expect("small");
    group.bench_function("density_noiseless", |b| {
        b.iter(|| black_box(clean.expectation(black_box(&params)).expect("valid params")));
    });

    let noisy = NoisyQaoa::new(
        problem,
        2,
        NoiseModel::uniform_depolarizing(0.001, 0.01).expect("valid rates"),
    )
    .expect("small");
    group.bench_function("density_depolarizing", |b| {
        b.iter(|| black_box(noisy.expectation(black_box(&params)).expect("valid params")));
    });
    group.finish();
}

/// One noisy ⟨C⟩ at n = 6 with exactly 8 edges, depth 2, depolarizing
/// p1 = 0.002 after one-qubit and p2 = 0.02 after two-qubit gates.
fn bench_noisy_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("noisy_run");
    let mut rng = StdRng::seed_from_u64(6);
    let graph = generators::gnm(6, 8, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty");
    let noise = NoiseModel::uniform_depolarizing(0.002, 0.02).expect("valid rates");
    let noisy = NoisyQaoa::new(problem, 2, noise).expect("small");
    let params = [0.8, 0.5, 0.4, 0.2];
    group.bench_function("n6_m8_p2", |b| {
        b.iter(|| black_box(noisy.expectation(black_box(&params)).expect("valid params")));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dm_single_gate,
    bench_dm_depolarizing_channel,
    bench_dm_cnot_depolarizing,
    bench_noisy_vs_clean_energy,
    bench_noisy_run
);
criterion_main!(benches);
