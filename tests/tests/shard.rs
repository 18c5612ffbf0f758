//! Integration tests for the sharded corpus coordinator: the bit-parity
//! guarantee (any valid partition, any thread count, any worker count,
//! merges to the unsharded corpus bit-for-bit), merged cache-file
//! identity, and the coordinator's protocol validation.

mod common;

use std::sync::Arc;
use std::time::Duration;

use engine::shard::{self, ShardPlan, ShardReport, StreamOptions};
use engine::{persist, Engine, Level1Cache, LoopbackTransport, ShardTransport, TransportError};
use proptest::prelude::*;
use qaoa::datagen::{DataGenConfig, ParameterDataset};

/// The suite's corpus spec: small enough that one case solves in
/// milliseconds, rich enough (2 depths, 2 restarts) to exercise the
/// depth-1 cache path and the trend-seeded depth-2 path.
fn spec(n_graphs: usize) -> DataGenConfig {
    common::tiny_datagen(n_graphs, 4, 0.6, 2, 2, 77)
}

/// The unsharded reference everything must reproduce bit-for-bit.
fn reference(config: &DataGenConfig) -> qaoa::datagen::ParameterDataset {
    let (dataset, _) = engine::corpus::generate(config, &Engine::new(1)).expect("reference corpus");
    dataset
}

/// The single-process sharded run: one loopback worker with `threads`
/// pool workers takes the ranges in order, warm-starting from and folding
/// back into `shared` (the coordinator's depth-1 cache).
fn run_in_process(
    config: &DataGenConfig,
    plan: &ShardPlan,
    threads: usize,
    shared: &Arc<Level1Cache>,
) -> (ParameterDataset, ShardReport) {
    let mut transport =
        LoopbackTransport::with_cache(1, threads, config.seed, Some(Arc::clone(shared)));
    shard::run_wire(config, plan, &mut transport, &StreamOptions::default()).expect("sharded run")
}

/// Builds a partition of `0..n` from arbitrary cut points (duplicates and
/// boundary cuts yield empty ranges; adjacent cuts yield singletons).
fn plan_from_cuts(n: usize, mut cuts: Vec<usize>) -> ShardPlan {
    cuts.sort_unstable();
    let mut ranges = Vec::with_capacity(cuts.len() + 1);
    let mut cursor = 0;
    for cut in cuts {
        ranges.push(cursor..cut);
        cursor = cut;
    }
    ranges.push(cursor..n);
    ShardPlan::from_ranges(n, ranges).expect("cut construction is always valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The ISSUE's headline property: **any** valid partition of `0..n`
    /// into contiguous ranges — empty and singleton ranges included —
    /// merges to a corpus bit-identical to the unsharded run, at 1 and at
    /// 4 threads per shard.
    #[test]
    fn any_partition_merges_bit_identically(
        (n, cuts) in (1usize..6).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec(0usize..=n, 0..4))
        })
    ) {
        let config = spec(n);
        let plan = plan_from_cuts(n, cuts);
        let unsharded = reference(&config);
        for threads in [1usize, 4] {
            let (sharded, report) =
                run_in_process(&config, &plan, threads, &Arc::new(Level1Cache::new()));
            prop_assert_eq!(report.per_shard.len(), plan.shards());
            prop_assert_eq!(report.cells(), n * config.max_depth);
            common::assert_corpora_bit_identical(
                &unsharded,
                &sharded,
                &format!("{} shards at {threads} threads", plan.shards()),
            );
        }
    }
}

#[test]
fn shard_counts_1_2_3_at_1_and_4_threads_match_unsharded() {
    // The acceptance grid, pinned explicitly (the property test above
    // samples arbitrary partitions; this is the even-split matrix the CI
    // step mirrors).
    let config = spec(5);
    let unsharded = reference(&config);
    for shards in [1usize, 2, 3] {
        let plan = ShardPlan::split_even(config.n_graphs, shards);
        for threads in [1usize, 4] {
            let (sharded, _) =
                run_in_process(&config, &plan, threads, &Arc::new(Level1Cache::new()));
            common::assert_corpora_bit_identical(
                &unsharded,
                &sharded,
                &format!("{shards} shards x {threads} threads"),
            );
        }
    }
}

#[test]
fn merged_cache_file_is_byte_identical_to_unsharded() {
    // Same master seed, same flags: the cache file a 3-shard run persists
    // must equal the unsharded run's byte-for-byte.
    let config = spec(6);
    let unsharded_path = common::temp_path("shard_cache_unsharded");
    let sharded_path = common::temp_path("shard_cache_sharded");
    std::fs::remove_file(&unsharded_path).ok();
    std::fs::remove_file(&sharded_path).ok();

    let engine = Engine::new(2);
    engine::corpus::generate(&config, &engine).expect("unsharded corpus");
    persist::save_merge(engine.cache(), &unsharded_path).unwrap();

    let cache = Arc::new(Level1Cache::new());
    let plan = ShardPlan::split_even(config.n_graphs, 3);
    run_in_process(&config, &plan, 4, &cache);
    persist::save_merge(&cache, &sharded_path).unwrap();

    let unsharded_bytes = std::fs::read(&unsharded_path).unwrap();
    let sharded_bytes = std::fs::read(&sharded_path).unwrap();
    assert!(
        !unsharded_bytes.is_empty(),
        "cache file must hold the run's entries"
    );
    assert_eq!(
        unsharded_bytes, sharded_bytes,
        "merged shard cache file must be byte-identical to the unsharded one"
    );
    std::fs::remove_file(&unsharded_path).ok();
    std::fs::remove_file(&sharded_path).ok();
}

#[test]
fn warm_sharded_run_serves_depth1_from_the_cache_file() {
    // A cache file written by an unsharded run pre-warms every shard: the
    // warm sharded run performs zero depth-1 solves and still reproduces
    // the exact corpus. To make "zero solves" observable, every cached
    // outcome is re-inserted with a marker function-call count that no
    // real solve produces: the warm corpus must equal the reference with
    // every depth-1 record carrying the marker. The depth >= 2 records are
    // trend-seeded from the depth-1 γ and β only, so they stay unchanged.
    const MARKER: usize = 987_654_321;
    let config = spec(5);
    let path = common::temp_path("shard_warm");
    std::fs::remove_file(&path).ok();

    let engine = Engine::new(2);
    let (unsharded, _) = engine::corpus::generate(&config, &engine).expect("cold corpus");
    persist::save_merge(engine.cache(), &path).unwrap();

    let loaded = Level1Cache::new();
    assert!(matches!(
        persist::load_into(&loaded, &path),
        persist::LoadStatus::Loaded(_)
    ));
    let shared = Arc::new(Level1Cache::new());
    for (key, mut outcome) in loaded.snapshot() {
        outcome.function_calls = MARKER;
        shared.insert(key, outcome);
    }
    let plan = ShardPlan::split_even(config.n_graphs, 2);
    let (warm, _) = run_in_process(&config, &plan, 2, &shared);

    let mut records = unsharded.records().to_vec();
    for record in records.iter_mut().filter(|r| r.depth == 1) {
        record.function_calls = MARKER;
    }
    let expected =
        ParameterDataset::from_parts(unsharded.graphs().to_vec(), records, unsharded.max_depth())
            .expect("marked reference");
    common::assert_corpora_bit_identical(
        &expected,
        &warm,
        "warm sharded run (depth-1 records served from the cache file)",
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn wire_path_matches_unsharded_through_a_loopback_server() {
    // run_wire drives in-process `server::serve` workers over the
    // streaming transport — behaviorally identical to spawned qaoa-serve
    // processes — and must still merge bit-identically, whether the
    // worker fleet is smaller, equal, or larger than the shard count.
    let config = spec(5);
    let unsharded = reference(&config);
    for shards in [1usize, 2, 3] {
        let plan = ShardPlan::split_even(config.n_graphs, shards);
        let mut transport = LoopbackTransport::new(2, 2);
        let (merged, report) =
            shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
                .expect("wire-sharded run");
        assert_eq!(report.cells(), config.n_graphs * config.max_depth);
        assert_eq!(report.lost_workers, 0);
        assert_eq!(report.retasked, 0);
        common::assert_corpora_bit_identical(
            &unsharded,
            &merged,
            &format!("wire path, {shards} shards"),
        );
    }
}

/// A test transport that rewrites each line a worker sends through a hook:
/// the hook maps one received line to zero or more lines delivered to the
/// coordinator, which is how the suite forges protocol violations (forged
/// ERRs, duplicated or rewritten DONEs, dropped and reordered records) on
/// top of an honest loopback worker.
struct MutateLines<T: ShardTransport, F: FnMut(usize, String) -> Vec<String>> {
    inner: T,
    hook: F,
    queues: Vec<std::collections::VecDeque<String>>,
}

impl<T: ShardTransport, F: FnMut(usize, String) -> Vec<String>> MutateLines<T, F> {
    fn new(inner: T, hook: F) -> Self {
        let queues = (0..inner.workers()).map(|_| Default::default()).collect();
        Self {
            inner,
            hook,
            queues,
        }
    }
}

impl<T: ShardTransport, F: FnMut(usize, String) -> Vec<String>> ShardTransport
    for MutateLines<T, F>
{
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn send_line(&mut self, worker: usize, line: &str) -> Result<(), TransportError> {
        self.inner.send_line(worker, line)
    }

    fn recv_line(&mut self, worker: usize, wait: Duration) -> Result<String, TransportError> {
        loop {
            if let Some(line) = self.queues[worker].pop_front() {
                return Ok(line);
            }
            let line = self.inner.recv_line(worker, wait)?;
            self.queues[worker].extend((self.hook)(worker, line));
        }
    }

    fn kill(&mut self, worker: usize) {
        self.inner.kill(worker);
    }

    fn close(&mut self, worker: usize) {
        self.inner.close(worker);
    }
}

#[test]
fn coordinator_rejects_protocol_violations() {
    // Protocol violations — a worker answering *wrong*, not merely dying —
    // must hard-fail, never be re-tasked: a worker that disagrees with the
    // contract would disagree again, and parity is already forfeit.
    let config = spec(3);
    let plan = ShardPlan::split_even(config.n_graphs, 1);
    let fails = |hook: Box<dyn FnMut(usize, String) -> Vec<String>>, what: &str| {
        let mut transport = MutateLines::new(LoopbackTransport::new(1, 1), hook);
        let err = shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
            .err()
            .unwrap_or_else(|| panic!("{what}: coordinator must reject"));
        assert!(
            matches!(
                err,
                engine::ShardError::Protocol { .. } | engine::ShardError::Transport(_)
            ),
            "{what}: got {err}"
        );
    };
    // A worker ERR propagates.
    fails(
        Box::new(|_, line| {
            if line.starts_with("QW1 RECORD") {
                vec!["QW1 ERR solver caught fire".to_string()]
            } else {
                vec![line]
            }
        }),
        "in-band worker ERR",
    );
    // Duplicate DONE: the stray second marker is caught by the
    // post-completion drain check.
    fails(
        Box::new(|_, line| {
            if line.starts_with("QW1 DONE") {
                vec![line.clone(), line]
            } else {
                vec![line]
            }
        }),
        "duplicate DONE",
    );
    // DONE for the wrong range.
    fails(
        Box::new(|_, line| vec![line.replace("QW1 DONE 0 3", "QW1 DONE 0 2")]),
        "mismatched DONE",
    );
    // A dropped record (count mismatch / out-of-order tail).
    fails(
        Box::new({
            let mut dropped_one = false;
            move |_, line| {
                if !dropped_one && line.starts_with("QW1 RECORD") {
                    dropped_one = true;
                    vec![]
                } else {
                    vec![line]
                }
            }
        }),
        "dropped record",
    );
    // Reordered records violate the graph-major, depth-minor contract.
    fails(
        Box::new({
            let mut held: Option<String> = None;
            let mut swapped = false;
            move |_, line| {
                if swapped || !line.starts_with("QW1 RECORD") {
                    return vec![line];
                }
                match held.take() {
                    None => {
                        held = Some(line);
                        vec![]
                    }
                    Some(first) => {
                        swapped = true;
                        vec![line, first]
                    }
                }
            }
        }),
        "reordered records",
    );
}

#[test]
fn swallowed_done_times_out_and_exhausts_the_fleet() {
    // A worker that streams its records but never a DONE is
    // indistinguishable from a stalled worker: the coordinator times it
    // out and re-tasks. With a single worker there is no survivor, so the
    // run must report the fleet lost — not hang, not accept the range.
    let config = spec(3);
    let plan = ShardPlan::split_even(config.n_graphs, 1);
    let hook = |_: usize, line: String| {
        if line.starts_with("QW1 DONE") {
            vec![]
        } else {
            vec![line]
        }
    };
    let mut transport = MutateLines::new(LoopbackTransport::new(1, 1), hook);
    let options = StreamOptions {
        timeout: Duration::from_millis(300),
        ..StreamOptions::default()
    };
    match shard::run_wire(&config, &plan, &mut transport, &options) {
        Err(engine::ShardError::Transport(message)) => {
            assert!(message.contains("all 1 workers lost"), "got: {message}");
        }
        other => panic!("expected the fleet lost, got {other:?}"),
    }
}
