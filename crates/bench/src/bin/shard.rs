//! `qaoa-shard` — the sharded corpus coordinator.
//!
//! Splits the §III-A ensemble into `--shards K` contiguous graph-index
//! ranges and hands them to workers through the streaming coordinator
//! ([`engine::shard::run_streaming`]): records merge in global graph-index
//! order with bounded buffering, and a dead or silent worker's range is
//! re-tasked onto the survivors. `--workers` picks where the workers run:
//!
//! * `loopback:K` (default `loopback:1`) — K in-process `qaoa-serve` loops
//!   on threads over OS pipes; one worker takes the ranges in order.
//! * `spawn:K` — K spawned worker subprocesses (`--worker-cmd`, default
//!   the `qaoa-serve` binary next to this executable) speaking `QW1` over
//!   stdin/stdout.
//!
//! The merged corpus — and, with `--cache-file`, the merged depth-1 cache
//! file — is **bit-identical** to an unsharded run with the same flags, at
//! any shard, worker, and thread count, even when `--kill-worker W` injects
//! a worker death mid-run; CI diffs all of it byte-for-byte against the
//! `table1` corpus.
//!
//! The merged corpus TSV goes to `--out PATH` (or stdout), *streamed* one
//! line per record as the coordinator's frontier advances, so peak memory
//! is bounded by the dispatch window, not the corpus. Progress and the
//! shard report go to stderr.
//!
//! Run:
//! `cargo run --release -p bench --bin qaoa-shard -- --quick --shards 3 --workers spawn:2 --out corpus.tsv`

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bench::{RunConfig, WorkerMode};
use engine::shard::{ShardPlan, ShardReport, StreamOptions};
use engine::{
    persist, KillAfter, Level1Cache, LoopbackTransport, ShardTransport, SubprocessTransport,
};
use qaoa::datagen::{self, DataGenConfig};
use qaoa::{MAX_PROBLEM_DEPTH, MAX_PROBLEM_NODES, MAX_RESTARTS};

fn main() {
    let config = RunConfig::from_env();
    if let Err(message) = run(&config) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

fn run(config: &RunConfig) -> Result<(), String> {
    // Every worker refuses a SHARD spec beyond the wire limits; say so
    // before any worker starts.
    for (flag, value, limit) in [
        ("--nodes", config.nodes, MAX_PROBLEM_NODES),
        ("--max-depth", config.max_depth, MAX_PROBLEM_DEPTH),
        ("--restarts", config.restarts, MAX_RESTARTS),
    ] {
        if value > limit {
            return Err(format!("{flag} {value} exceeds the {limit} limit"));
        }
    }
    let spec = config.datagen();
    let plan = ShardPlan::split_even(config.graphs, config.shards);
    let mode = match config.workers {
        WorkerMode::Loopback(k) => format!("{k} loopback worker(s)"),
        WorkerMode::Spawn(k) => format!("{k} spawned worker(s)"),
    };
    eprintln!(
        "# qaoa-shard: {} graphs x depths 1..={} over {} shards, {mode}, {} threads/worker",
        config.graphs,
        config.max_depth,
        plan.shards(),
        config.threads()
    );

    match config.workers {
        WorkerMode::Loopback(k) => run_loopback(config, &spec, &plan, k),
        WorkerMode::Spawn(k) => run_spawn(config, &spec, &plan, k),
    }
}

/// Loopback mode: the streaming coordinator over in-process workers
/// sharing one depth-1 cache (pre-warmed from `--cache-file`, saved back
/// merged).
fn run_loopback(
    config: &RunConfig,
    spec: &DataGenConfig,
    plan: &ShardPlan,
    workers: usize,
) -> Result<(), String> {
    let cache = Arc::new(Level1Cache::new());
    config.load_level1(&cache);
    let transport = LoopbackTransport::with_cache(
        workers,
        config.threads(),
        config.seed,
        Some(Arc::clone(&cache)),
    );
    let report = stream_corpus(config, spec, plan, transport)?;
    print_report(&report);
    config.persist_level1(&cache);
    Ok(())
}

/// Spawn mode: the streaming coordinator over worker subprocesses.
/// With `--cache-file`, each worker gets its own pre-warmed copy of the
/// file (`PATH.wK`) to persist into at exit; the coordinator merges the
/// copies back into `PATH` afterwards, so the final file is identical to
/// an unsharded run's.
fn run_spawn(
    config: &RunConfig,
    spec: &DataGenConfig,
    plan: &ShardPlan,
    workers: usize,
) -> Result<(), String> {
    let base = worker_command(config)?;
    let mut commands: Vec<Vec<String>> = Vec::with_capacity(workers);
    let mut worker_caches: Vec<PathBuf> = Vec::new();
    for worker in 0..workers {
        let mut command = base.clone();
        command.push("--threads".into());
        command.push(config.threads().to_string());
        command.push("--seed".into());
        command.push(config.seed.to_string());
        if let Some(path) = &config.cache_file {
            let worker_path = PathBuf::from(format!("{}.w{worker}", path.display()));
            if path.exists() {
                std::fs::copy(path, &worker_path).map_err(|e| {
                    format!(
                        "could not pre-warm worker cache {}: {e}",
                        worker_path.display()
                    )
                })?;
            } else {
                // A stale copy from an earlier run would otherwise leak
                // foreign entries into the merge below.
                std::fs::remove_file(&worker_path).ok();
            }
            command.push("--cache-file".into());
            command.push(worker_path.display().to_string());
            worker_caches.push(worker_path);
        }
        commands.push(command);
    }
    eprintln!("# spawning {} x `{}`", workers, base.join(" "));
    let transport = SubprocessTransport::spawn_each(&commands)
        .map_err(|e| format!("could not spawn workers: {e}"))?;
    let report = stream_corpus(config, spec, plan, transport)?;
    print_report(&report);

    // The workers have exited (a successful run closes them) and persisted
    // their per-worker cache files; fold everything into the main file.
    if config.cache_file.is_some() {
        let merged = Level1Cache::new();
        config.load_level1(&merged);
        for worker_path in &worker_caches {
            let status = persist::load_into(&merged, worker_path, config.seed);
            eprintln!(
                "# worker cache {}: {}",
                worker_path.display(),
                status.summary()
            );
            std::fs::remove_file(worker_path).ok();
        }
        config.persist_level1(&merged);
    }
    Ok(())
}

/// The spawn-mode worker argv: `--worker-cmd` whitespace-split, or the
/// `qaoa-serve` binary sitting next to this executable.
fn worker_command(config: &RunConfig) -> Result<Vec<String>, String> {
    if let Some(cmd) = &config.worker_cmd {
        let parts: Vec<String> = cmd.split_whitespace().map(str::to_string).collect();
        if parts.is_empty() {
            return Err("--worker-cmd is empty".into());
        }
        return Ok(parts);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let serve = exe
        .parent()
        .ok_or_else(|| "executable has no parent directory".to_string())?
        .join("qaoa-serve");
    if !serve.exists() {
        return Err(format!(
            "default worker binary {} not found; pass --worker-cmd",
            serve.display()
        ));
    }
    Ok(vec![serve.display().to_string()])
}

/// Runs the streaming coordinator over `transport`, writing the merged
/// corpus TSV to `--out` (or stdout) one record at a time — the writer
/// never holds the record set. Wraps the transport in a
/// [`KillAfter`] fault injector when `--kill-worker` asks for one.
fn stream_corpus<T: ShardTransport>(
    config: &RunConfig,
    spec: &DataGenConfig,
    plan: &ShardPlan,
    transport: T,
) -> Result<ShardReport, String> {
    match config.kill_worker {
        Some(victim) => {
            eprintln!("# fault injection: killing worker {victim} after its first line");
            stream_corpus_inner(config, spec, plan, KillAfter::new(transport, victim, 1))
        }
        None => stream_corpus_inner(config, spec, plan, transport),
    }
}

fn stream_corpus_inner<T: ShardTransport>(
    config: &RunConfig,
    spec: &DataGenConfig,
    plan: &ShardPlan,
    mut transport: T,
) -> Result<ShardReport, String> {
    let graphs = engine::corpus::ensemble(spec);
    let options = StreamOptions {
        timeout: Duration::from_secs(config.timeout_secs.max(1)),
        ..StreamOptions::default()
    };
    let mut out: Box<dyn Write> = match &config.out {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|e| format!("could not create {}: {e}", path.display()))?,
        )),
        None => Box::new(std::io::BufWriter::new(std::io::stdout().lock())),
    };
    datagen::write_tsv_header(&mut out).map_err(|e| format!("could not write corpus: {e}"))?;
    let report =
        engine::shard::run_streaming(spec, plan, &mut transport, &options, &mut |record| {
            datagen::write_tsv_record(&mut out, &record, &graphs[record.graph_id])
                .map_err(|e| format!("could not write corpus: {e}"))
        })
        .map_err(|e| e.to_string())?;
    out.flush()
        .map_err(|e| format!("could not write corpus: {e}"))?;
    if let Some(path) = &config.out {
        eprintln!("# corpus written to {}", path.display());
    }
    Ok(report)
}

fn print_report(report: &ShardReport) {
    for (i, stats) in report.per_shard.iter().enumerate() {
        eprintln!(
            "#   shard {i}: graphs {}..{} -> {} cells, {} fn calls ({} attempt(s))",
            stats.range.start, stats.range.end, stats.cells, stats.function_calls, stats.attempts,
        );
    }
    eprintln!("# merged: {}", report.summary());
}
