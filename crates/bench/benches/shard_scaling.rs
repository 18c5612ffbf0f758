//! Shard scaling: the streaming coordinator's corpus throughput at 1/2/4
//! shards over both wire transports.
//!
//! One fixed 12-graph, depth-2 corpus; each iteration runs the full
//! coordinator loop — dispatch, streaming merge, graceful close — against
//! freshly started workers:
//!
//! * `shard_loopback` — in-process worker threads over OS pipes, read
//!   through the same capped line reader as spawned workers (no process
//!   startup; measures the coordinator, the pipes and the solve),
//! * `shard_subprocess` — spawned `qaoa-serve` processes over stdin/stdout
//!   (adds process startup and pipe framing; the gap to loopback is the
//!   real cost of process isolation).
//!
//! Run: `cargo bench -p bench --bench shard_scaling`

#![allow(
    clippy::as_conversions,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test and bench code: a panic is how it reports a failure, and fixtures cast literals"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use engine::shard::{self, ShardPlan, StreamOptions};
use engine::{LoopbackTransport, SubprocessTransport};
use qaoa::datagen::DataGenConfig;

fn spec() -> DataGenConfig {
    DataGenConfig {
        n_graphs: 12,
        n_nodes: 6,
        edge_probability: 0.5,
        max_depth: 2,
        restarts: 2,
        seed: 77,
        options: Default::default(),
        trend_preference_margin: 1e-3,
    }
}

fn bench_loopback(c: &mut Criterion) {
    let config = spec();
    let mut group = c.benchmark_group("shard_loopback");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        let plan = ShardPlan::split_even(config.n_graphs, shards);
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut transport = LoopbackTransport::new(shards, 1);
                    shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
                        .expect("loopback shard run")
                });
            },
        );
    }
    group.finish();
}

fn bench_subprocess(c: &mut Criterion) {
    let config = spec();
    let mut cmd = vec![env!("CARGO_BIN_EXE_qaoa-serve").to_string()];
    for arg in ["--threads", "1", "--seed", "77"] {
        cmd.push(arg.to_string());
    }
    let mut group = c.benchmark_group("shard_subprocess");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        let plan = ShardPlan::split_even(config.n_graphs, shards);
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut transport =
                        SubprocessTransport::spawn(&cmd, shards).expect("spawning workers");
                    shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
                        .expect("subprocess shard run")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_loopback, bench_subprocess);
criterion_main!(benches);
