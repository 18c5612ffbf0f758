//! Criterion benches for the density-matrix (open-system) simulator:
//! gate application, Kraus channels, and the full noisy-QAOA energy
//! evaluation, against the pure-state path as the reference cost.
//! `noisy_run/n6_m8_p2` is one noisy objective call on the shape of the
//! `noisy_n6` perfbench workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use graphs::generators;
use qaoa::noisy::NoisyQaoa;
use qaoa::{EvalContext, MaxCutProblem, QaoaAnsatz};
use qsim::{gates, DensityMatrix, KrausChannel, NoiseModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_dm_single_gate(c: &mut Criterion) {
    let mut group = c.benchmark_group("dm_single_gate");
    for n in [4usize, 6, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let rx = gates::rx(0.7);
            b.iter_batched(
                || DensityMatrix::plus_state(n).expect("small register"),
                |mut rho| {
                    rho.apply_single(n / 2, &rx).expect("valid qubit");
                    black_box(rho)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_dm_kraus_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("dm_depolarizing_channel");
    let channel = KrausChannel::depolarizing(0.01).expect("valid rate");
    for n in [4usize, 6, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || DensityMatrix::plus_state(n).expect("small register"),
                |mut rho| {
                    rho.apply_channel(n / 2, &channel).expect("valid qubit");
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
    bench_dm_kraus_channel,
    bench_noisy_vs_clean_energy,
    bench_noisy_run
);
criterion_main!(benches);
