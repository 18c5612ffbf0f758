//! The per-request work of a `PREDICT` answer outside the tiers
//! themselves, on the shape of the `predict_zipf_n8` perfbench workload:
//!
//! * `predict_path/graph_key` — `qaoa::canonical::graph_key` of one n=8
//!   ER(0.5) graph (the cache and memo key of every request),
//! * `predict_path/decode_predict` — `engine::wire::decode_predict` of one
//!   such request line,
//! * `predict_path/encode_predicted` — `engine::wire::encode_predicted` of
//!   one depth-3 answer (6 parameters).
//!
//! Each iteration handles the next of 64 fixed graphs in turn; 20 000
//! iterations per bench, so one µs-scale mean covers every graph many
//! times over.
//!
//! Run: `cargo bench -p bench --bench predict_path`

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use engine::wire::{self, AnswerTier, PredictRequest, Predicted};
use graphs::{generators, Graph};
use qaoa::canonical::graph_key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRAPHS: usize = 64;

fn graphs() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(8);
    (0..GRAPHS)
        .map(|_| generators::erdos_renyi_nonempty(8, 0.5, &mut rng))
        .collect()
}

fn bench_predict_path(c: &mut Criterion) {
    let graphs = graphs();
    let lines: Vec<String> = graphs
        .iter()
        .enumerate()
        .map(|(id, graph)| {
            wire::encode_predict(&PredictRequest {
                id: u64::try_from(id).expect("small id"),
                depth: 3,
                restarts: 3,
                graph: graph.clone(),
            })
            .expect("encodable graph")
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(9);
    let answers: Vec<Predicted> = (0..GRAPHS)
        .map(|id| Predicted {
            id: u64::try_from(id).expect("small id"),
            tier: AnswerTier::Model,
            params: (0..6).map(|_| rng.gen_range(0.0..3.0)).collect(),
        })
        .collect();

    let mut group = c.benchmark_group("predict_path");
    group.sample_size(20_000);
    let mut i = 0;
    group.bench_function("graph_key", |b| {
        b.iter(|| {
            i = (i + 1) % GRAPHS;
            black_box(graph_key(black_box(&graphs[i])))
        });
    });
    group.bench_function("decode_predict", |b| {
        b.iter(|| {
            i = (i + 1) % GRAPHS;
            black_box(wire::decode_predict(black_box(&lines[i])).expect("valid line"))
        });
    });
    group.bench_function("encode_predicted", |b| {
        b.iter(|| {
            i = (i + 1) % GRAPHS;
            black_box(wire::encode_predicted(black_box(&answers[i])))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_predict_path);
criterion_main!(benches);
