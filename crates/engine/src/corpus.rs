//! Parallel training-corpus generation (§III-A) on the engine.
//!
//! The unit of parallelism is the **graph**: depths within one graph are
//! coupled by trend seeding (depth `p` is initialized from the depth-`p−1`
//! optimum), so one worker walks `p = 1..=max_depth` for its graph while
//! other graphs run concurrently. Each graph is one
//! [`qaoa::datagen::solve_graph`] call on its depth-1 outcome, served per
//! isomorphism class by [`Engine::level1_cached`]; the output equals the
//! serial [`ParameterDataset::from_graphs`] bit for bit at any worker
//! count, with or without cache hits.

#![expect(
    clippy::disallowed_methods,
    reason = "wall-time accounting: the corpus report's wall time, never in results"
)]

use std::ops::Range;
use std::time::{Duration, Instant};

use graphs::Graph;
use optimize::Lbfgsb;
use qaoa::datagen::{self, DataGenConfig, OptimalRecord, ParameterDataset};
use qaoa::QaoaError;

use crate::batch::{BatchConfig, Engine};

/// Accounting for one corpus generation run.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// Graphs solved.
    pub graphs: usize,
    /// `(graph, depth)` cells solved.
    pub cells: usize,
    /// End-to-end wall-clock time.
    pub wall: Duration,
    /// Worker count used.
    pub threads: usize,
    /// Depth-1 solves served from the isomorphism cache.
    pub cache_hits: usize,
    /// Total function calls across all records.
    pub function_calls: usize,
}

impl CorpusReport {
    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} graphs / {} cells on {} threads in {:.2?} ({} level-1 cache hits, {} fn calls)",
            self.graphs, self.cells, self.threads, self.wall, self.cache_hits, self.function_calls,
        )
    }
}

pub use qaoa::datagen::ensemble;

/// Generates the Erdős–Rényi ensemble of `config` and solves it in
/// parallel: the corpus of [`ParameterDataset::generate`].
///
/// # Errors
///
/// Propagates problem-construction and optimizer errors.
pub fn generate(
    config: &DataGenConfig,
    engine: &Engine,
) -> Result<(ParameterDataset, CorpusReport), QaoaError> {
    from_graphs(ensemble(config), config, engine)
}

/// Solves a caller-supplied ensemble in parallel (one worker per graph).
///
/// # Errors
///
/// Propagates problem-construction and optimizer errors.
pub fn from_graphs(
    graphs: Vec<Graph>,
    config: &DataGenConfig,
    engine: &Engine,
) -> Result<(ParameterDataset, CorpusReport), QaoaError> {
    let (records, report) = solve_range(&graphs, 0..graphs.len(), config, engine)?;
    let dataset = ParameterDataset::from_parts(graphs, records, config.max_depth)?;
    Ok((dataset, report))
}

/// Solves the `(graph, depth)` cells of `range` (global graph indices into
/// `graphs`) in parallel, returning the records in graph-index order.
///
/// This is the shard worker's unit of work: every per-cell RNG is derived
/// from the **global** graph index ([`qaoa::datagen::solve_graph`]), so a
/// worker handed `graphs[a..b]` of a larger ensemble produces exactly the
/// records an unsharded run computes for those indices — the bit-parity
/// invariant [`crate::shard`] builds on.
///
/// # Errors
///
/// Propagates problem-construction and optimizer errors; rejects a range
/// extending past the ensemble.
pub fn solve_range(
    graphs: &[Graph],
    range: Range<usize>,
    config: &DataGenConfig,
    engine: &Engine,
) -> Result<(Vec<OptimalRecord>, CorpusReport), QaoaError> {
    let start = Instant::now();
    let mut records = Vec::with_capacity(range.len() * config.max_depth);
    let mut cache_hits = 0;
    stream_range(graphs, range.clone(), config, engine, |graph| {
        let (graph_records, hits) = graph?;
        cache_hits += hits;
        records.extend(graph_records);
        Ok::<(), QaoaError>(())
    })?;
    let function_calls = records.iter().map(|r| r.function_calls).sum();
    let report = CorpusReport {
        graphs: range.len(),
        cells: records.len(),
        wall: start.elapsed(),
        threads: engine.threads(),
        cache_hits,
        function_calls,
    };
    Ok((records, report))
}

/// One graph's solved cells: its records (depths `1..=max_depth`) and its
/// depth-1 cache hits (0 or 1).
pub(crate) type GraphCells = (Vec<OptimalRecord>, usize);

/// [`solve_range`] as a stream: one pool fan-out over the whole range,
/// handing each graph's outcome to `sink` in graph-index order as soon as
/// it and every earlier graph are solved, so a caller can write records
/// while later graphs still run. A range extending past the ensemble
/// reaches `sink` as one [`QaoaError::InvalidRange`]. A `sink` error stops
/// the solve (no new graph starts) and is returned.
///
/// # Errors
///
/// Returns the first error `sink` returns.
pub(crate) fn stream_range<E>(
    graphs: &[Graph],
    range: Range<usize>,
    config: &DataGenConfig,
    engine: &Engine,
    mut sink: impl FnMut(Result<GraphCells, QaoaError>) -> Result<(), E>,
) -> Result<(), E> {
    if range.end > graphs.len() || range.start > range.end {
        return sink(Err(QaoaError::InvalidRange {
            start: range.start,
            end: range.end,
            len: graphs.len(),
        }));
    }
    let batch_config = BatchConfig {
        master_seed: config.seed,
        options: config.options,
    };
    let optimizer = Lbfgsb::default();
    engine.pool().stream_ordered(
        range.len(),
        |offset| {
            let graph_id = range.start + offset;
            let graph = &graphs[graph_id];
            let (level1, hit) =
                engine.level1_cached(graph, &optimizer, config.restarts, &batch_config)?;
            let records = datagen::solve_graph(graph, graph_id, config, &level1)?;
            Ok((records, usize::from(hit)))
        },
        |_, graph| sink(graph),
    )
}
