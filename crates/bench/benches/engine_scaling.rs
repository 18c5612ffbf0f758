//! Engine scaling: batch throughput at 1/2/4/8 workers.
//!
//! Two workloads, both on a fixed 24-graph queue:
//!
//! * `batch_p2` — depth-2 multistart jobs through `Engine::run_batch`,
//! * `corpus` — the full §III-A pipeline (depths 1..=2) via
//!   `engine::corpus::from_graphs`, with a fresh engine (empty cache) per
//!   iteration so the measurement is pure compute scaling.
//!
//! Run: `cargo bench -p bench --bench engine_scaling`

#![allow(
    clippy::as_conversions,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test and bench code: a panic is how it reports a failure, and fixtures cast literals"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use engine::{BatchConfig, Engine, Job};
use graphs::Graph;
use optimize::Lbfgsb;
use qaoa::datagen::DataGenConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ensemble(n_graphs: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(515);
    (0..n_graphs)
        .map(|_| graphs::generators::erdos_renyi_nonempty(6, 0.5, &mut rng))
        .collect()
}

fn bench_batch_scaling(c: &mut Criterion) {
    let jobs: Vec<Job> = ensemble(24)
        .into_iter()
        .map(|g| Job::new(g, 2, 2))
        .collect();
    let config = BatchConfig {
        master_seed: 99,
        ..BatchConfig::default()
    };
    let optimizer = Lbfgsb::default();

    let mut group = c.benchmark_group("engine_batch_p2");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let eng = Engine::new(workers);
                    eng.run_batch(&optimizer, &jobs, &config)
                        .expect("batch runs")
                });
            },
        );
    }
    group.finish();
}

fn bench_corpus_scaling(c: &mut Criterion) {
    let graphs = ensemble(24);
    let config = DataGenConfig {
        n_graphs: graphs.len(),
        n_nodes: 6,
        edge_probability: 0.5,
        max_depth: 2,
        restarts: 2,
        seed: 77,
        options: Default::default(),
        trend_preference_margin: 1e-3,
    };

    let mut group = c.benchmark_group("engine_corpus");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    engine::corpus::from_graphs(graphs.clone(), &config, &Engine::new(workers))
                        .expect("corpus runs")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch_scaling, bench_corpus_scaling);
criterion_main!(benches);
