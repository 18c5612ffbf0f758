//! End-to-end tests of the spawned-subprocess transport: real `qaoa-serve`
//! processes (the `CARGO_BIN_EXE` build of this crate's own binary) driven
//! by the streaming shard coordinator over stdin/stdout.
//!
//! These live in the bench crate — not `tests/` — because only the crate
//! that owns a binary gets `CARGO_BIN_EXE_<name>` at test-build time.

#![allow(
    clippy::as_conversions,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test and bench code: a panic is how it reports a failure, and fixtures cast literals"
)]

use std::time::Duration;

use bench::RunConfig;
use engine::shard::{self, ShardPlan, StreamOptions};
use engine::{wire, Engine, KillAfter, ShardTransport, SubprocessTransport};
use qaoa::datagen::{DataGenConfig, ParameterDataset};

/// A corpus spec small enough that even debug-build workers answer in
/// milliseconds, deep enough (2 depths) to cover the trend-seeded path.
fn spec(graphs: usize) -> DataGenConfig {
    let mut config = RunConfig::quick();
    config.graphs = graphs;
    config.nodes = 4;
    config.max_depth = 2;
    config.restarts = 2;
    config.seed = 77;
    config.datagen()
}

/// The worker argv: this build's own `qaoa-serve`, plus `extra`.
fn serve_cmd(extra: &[&str]) -> Vec<String> {
    let mut cmd = vec![env!("CARGO_BIN_EXE_qaoa-serve").to_string()];
    cmd.extend(extra.iter().map(ToString::to_string));
    cmd
}

fn reference(config: &DataGenConfig) -> ParameterDataset {
    let (dataset, _) = engine::corpus::generate(config, &Engine::new(1)).expect("reference corpus");
    dataset
}

fn assert_bit_identical(a: &ParameterDataset, b: &ParameterDataset, what: &str) {
    assert_eq!(a.records().len(), b.records().len(), "{what}: record count");
    for (x, y) in a.records().iter().zip(b.records()) {
        assert_eq!(x.graph_id, y.graph_id, "{what}: graph_id");
        assert_eq!(x.depth, y.depth, "{what}: depth");
        assert_eq!(
            x.expectation.to_bits(),
            y.expectation.to_bits(),
            "{what}: expectation bits (graph {}, depth {})",
            x.graph_id,
            x.depth
        );
        assert_eq!(
            x.approximation_ratio.to_bits(),
            y.approximation_ratio.to_bits(),
            "{what}: ar bits"
        );
        assert_eq!(x.function_calls, y.function_calls, "{what}: fn calls");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x.gammas), bits(&y.gammas), "{what}: gammas");
        assert_eq!(bits(&x.betas), bits(&y.betas), "{what}: betas");
    }
}

#[test]
fn spawned_workers_match_the_unsharded_corpus() {
    let config = spec(5);
    let unsharded = reference(&config);
    let cmd = serve_cmd(&["--threads", "1", "--seed", "77"]);
    for shards in [2usize, 3] {
        let plan = ShardPlan::split_even(config.n_graphs, shards);
        let mut transport =
            SubprocessTransport::spawn(&cmd, 2).expect("spawning qaoa-serve workers");
        let (merged, report) =
            shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
                .expect("subprocess shard run");
        assert_eq!(report.lost_workers, 0);
        assert_eq!(report.retasked, 0);
        assert_bit_identical(
            &unsharded,
            &merged,
            &format!("{shards} shards over subprocesses"),
        );
    }
}

#[test]
fn killed_subprocess_worker_still_matches() {
    // Kill a real worker process after its first delivered line: the
    // coordinator must detect the death (closed pipe), re-task the range
    // onto the surviving process, and still merge bit-identically.
    let config = spec(5);
    let unsharded = reference(&config);
    let plan = ShardPlan::split_even(config.n_graphs, 3);
    let cmd = serve_cmd(&["--threads", "1", "--seed", "77"]);
    let inner = SubprocessTransport::spawn(&cmd, 2).expect("spawning qaoa-serve workers");
    let mut transport = KillAfter::new(inner, 0, 1);
    let (merged, report) =
        shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
            .expect("failover over subprocesses");
    assert_eq!(
        report.lost_workers, 1,
        "the killed process must be declared dead"
    );
    assert!(report.retasked >= 1, "its range must be re-tasked");
    assert_bit_identical(&unsharded, &merged, "kill-one-subprocess run");
}

#[test]
fn spawned_server_answers_predict_from_a_model_artifact() {
    // The prediction service over the subprocess transport: train a tiny
    // predictor, persist it as a QMODEL2 artifact, spawn `qaoa-serve
    // --model` on it, and get a tiered PREDICTED answer over the pipe.
    let config = spec(4);
    let corpus = reference(&config);
    let predictor =
        qaoa::ParameterPredictor::train(ml::ModelKind::Gpr, &corpus).expect("tiny predictor");
    let model_path =
        std::env::temp_dir().join(format!("qaoa_subprocess_model_{}.qm", std::process::id()));
    engine::model::save(&predictor, &model_path, config.seed).expect("model artifact");

    let cmd = serve_cmd(&[
        "--threads",
        "1",
        "--seed",
        "77",
        "--model",
        model_path.to_str().expect("utf-8 temp path"),
    ]);
    let mut transport = SubprocessTransport::spawn(&cmd, 1).expect("spawning qaoa-serve");
    let graph = engine::corpus::ensemble(&config)
        .into_iter()
        .next()
        .expect("ensemble has a graph");
    let request = wire::PredictRequest {
        id: 42,
        depth: 2,
        restarts: config.restarts,
        graph,
    };
    let line = wire::encode_predict(&request).expect("encodable request");
    transport
        .send_line(0, &line)
        .expect("request reaches the worker");
    let answer = transport
        .recv_line(0, Duration::from_secs(60))
        .expect("worker answers");
    let predicted = wire::decode_predicted(&answer).expect("well-formed PREDICTED line");
    assert_eq!(predicted.id, 42);
    assert_eq!(
        predicted.params.len(),
        2 * request.depth,
        "a depth-p answer carries 2p parameters"
    );
    assert!(predicted.params.iter().all(|p| p.is_finite()));
    transport.close(0);
    std::fs::remove_file(&model_path).ok();
}

/// Runs the `qaoa-shard` CLI on the `spec(5)` corpus plus `extra` flags.
fn qaoa_shard(extra: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_qaoa-shard"))
        .args([
            "--quick",
            "--graphs",
            "5",
            "--nodes",
            "4",
            "--max-depth",
            "2",
            "--restarts",
            "2",
            "--seed",
            "77",
            "--threads",
            "1",
        ])
        .args(extra)
        .output()
        .expect("qaoa-shard runs")
}

/// The TSV bytes of the in-process, unsharded `spec(5)` corpus.
fn reference_tsv() -> Vec<u8> {
    let mut tsv = Vec::new();
    reference(&spec(5))
        .write_tsv(&mut tsv)
        .expect("in-memory TSV");
    tsv
}

#[test]
fn qaoa_shard_refuses_flags_beyond_the_wire_limits() {
    for (flag, value) in [
        ("--max-depth", qaoa::MAX_PROBLEM_DEPTH + 1),
        ("--restarts", qaoa::MAX_RESTARTS + 1),
        ("--nodes", qaoa::MAX_PROBLEM_NODES + 1),
    ] {
        let value = value.to_string();
        let output = qaoa_shard(&[flag, &value, "--workers", "spawn:1"]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains("exceeds"), "{flag}: {stderr}");
        assert!(output.stdout.is_empty(), "{flag}: no corpus is written");
    }
}

#[test]
fn qaoa_shard_spawn_cli_matches_local_mode() {
    // The full CLI path: `qaoa-shard --workers spawn:2` must write to
    // stdout exactly the TSV bytes of the local, in-process unsharded
    // generator (`engine::corpus::generate`).
    let output = qaoa_shard(&[
        "--shards",
        "3",
        "--workers",
        "spawn:2",
        "--worker-cmd",
        env!("CARGO_BIN_EXE_qaoa-serve"),
    ]);
    assert!(
        output.status.success(),
        "qaoa-shard failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        output.stdout,
        reference_tsv(),
        "spawn-mode stdout TSV differs from the in-process corpus"
    );
}

#[test]
fn oversized_worker_line_kills_the_worker_and_its_range_is_retasked() {
    // Of two spawned workers, the first to start reads its SHARD and
    // RANGE lines, then floods one 2 MiB line instead of serving; the
    // other is a real qaoa-serve. Flooding only after the dispatch makes
    // the loss always a re-task. The coordinator must stop reading the
    // flood at its line cap, declare that worker dead, re-task its range
    // onto the survivor, and still write the reference bytes.
    let dir = std::env::temp_dir().join(format!("qaoa_oversized_line_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let script = dir.join("worker.sh");
    // argv: marker dir, qaoa-serve path, then the flags qaoa-shard appends.
    let flooder = r#"marker=$1; serve=$2; shift 2
if mkdir "$marker" 2>/dev/null; then
  read -r _; read -r _
  head -c 2097152 /dev/zero | tr '\0' x
  echo
  exec cat >/dev/null
fi
exec "$serve" "$@"
"#;
    std::fs::write(&script, flooder).expect("worker script");
    let worker_cmd = format!(
        "sh {} {} {}",
        script.display(),
        dir.join("flooder-claimed").display(),
        env!("CARGO_BIN_EXE_qaoa-serve")
    );
    let output = qaoa_shard(&[
        "--shards",
        "3",
        "--workers",
        "spawn:2",
        "--worker-cmd",
        &worker_cmd,
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "qaoa-shard failed: {stderr}");
    assert!(
        stderr.contains("lost 1 worker(s), re-tasked 1 range(s)"),
        "the flooding worker must be lost and its range re-tasked: {stderr}"
    );
    assert_eq!(output.stdout, reference_tsv());
    std::fs::remove_dir_all(&dir).ok();
}
