//! Criterion benches: end-to-end naive vs two-level solve of one MaxCut
//! instance — the wall-clock counterpart of Table I's function-call
//! comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use graphs::generators;
use ml::ModelKind;
use optimize::{Lbfgsb, Options};
use qaoa::datagen::{DataGenConfig, ParameterDataset};
use qaoa::{
    MaxCutProblem, ParameterPredictor, QaoaInstance, Scenario, TwoLevelConfig, TwoLevelFlow,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_naive_vs_two_level(c: &mut Criterion) {
    // One-time corpus + predictor (small but real).
    let corpus = ParameterDataset::generate(&DataGenConfig {
        n_graphs: 12,
        n_nodes: 6,
        edge_probability: 0.5,
        max_depth: 3,
        restarts: 3,
        seed: 99,
        options: Options::default(),
        trend_preference_margin: 1e-3,
    })
    .expect("corpus generation");
    let predictor = ParameterPredictor::train(ModelKind::Gpr, &corpus).expect("GPR training");

    let mut rng = StdRng::seed_from_u64(4242);
    let graph = generators::erdos_renyi_nonempty(6, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let optimizer = Lbfgsb::default();

    let mut group = c.benchmark_group("end_to_end_p3");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("naive", "random_init"), |b| {
        let instance = QaoaInstance::new(problem.clone(), 3).expect("valid depth");
        let bounds = qaoa::parameter_bounds(3).expect("valid depth");
        b.iter(|| {
            let mut run_rng = StdRng::seed_from_u64(7);
            let start = bounds.sample(&mut run_rng);
            black_box(
                instance
                    .optimize(&optimizer, &start, &Options::default())
                    .expect("optimization runs"),
            )
        });
    });
    group.bench_function(BenchmarkId::new("two_level", "ml_init"), |b| {
        let flow = TwoLevelFlow::new(&predictor);
        b.iter(|| {
            let mut run_rng = StdRng::seed_from_u64(7);
            black_box(
                flow.run(
                    &problem,
                    3,
                    &optimizer,
                    &TwoLevelConfig::default(),
                    &mut run_rng,
                    &Scenario::Exact,
                    0,
                )
                .expect("two-level run"),
            )
        });
    });
    group.finish();
}

fn bench_datagen_unit(c: &mut Criterion) {
    // Cost of producing one (graph, depth) corpus record.
    let mut rng = StdRng::seed_from_u64(31);
    let graph = generators::erdos_renyi_nonempty(6, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let optimizer = Lbfgsb::default();
    let mut group = c.benchmark_group("datagen_record");
    group.sample_size(10);
    for p in [1usize, 3] {
        let instance = QaoaInstance::new(problem.clone(), p).expect("valid depth");
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| {
                let mut run_rng = StdRng::seed_from_u64(8);
                black_box(
                    instance
                        .optimize_multistart(&optimizer, 3, &mut run_rng, &Options::default())
                        .expect("optimization runs"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_naive_vs_two_level, bench_datagen_unit);
criterion_main!(benches);
