//! The naive-vs-ML comparison sweep (Table I) on the engine.
//!
//! [`compare`] is the one driver that enumerates a sweep: which cells
//! exist, each cell's seed ([`cell_seed`]), the per-graph seeds of both
//! protocols ([`graph_seed`]) and the order their samples are pooled in.
//! Both protocols seed per graph, so the sweep decomposes into independent
//! `(cell, protocol, graph)` jobs; this module fans them across the pool
//! and reassembles the rows in cell order, bit-identical at any worker
//! count. A serial run is `Pool::new(1)`, which runs every job inline on
//! the caller's thread.

use graphs::Graph;
use optimize::Optimizer;
use qaoa::evaluation::{
    self, cell_seed, graph_seed, row_from_samples, ComparisonRow, EvaluationConfig,
};
use qaoa::{ParameterPredictor, QaoaError};

use crate::pool::Pool;

/// The two protocols of a Table-I cell.
#[derive(Clone, Copy)]
enum Protocol {
    /// Random-init optimization, `naive_starts` samples per graph.
    Naive,
    /// The ML-initialized two-level flow, one sample per graph.
    TwoLevel,
}

/// One unit of sweep work: one protocol on one graph of one cell.
struct SweepJob<'a> {
    cell: usize,
    protocol: Protocol,
    optimizer: &'a (dyn Optimizer + Send + Sync),
    depth: usize,
    graph: &'a Graph,
    seed: u64,
}

/// Runs the full Table-I comparison: one row per (optimizer, depth) cell,
/// optimizer-major.
///
/// Within a cell, graph `gi`'s naive samples are seeded by
/// `graph_seed(cell_seed, gi)` and its two-level sample by
/// `graph_seed(cell_seed + 500, gi)`; each protocol's samples are pooled in
/// graph order.
///
/// # Errors
///
/// Propagates the first (in job order) protocol error.
pub fn compare(
    graphs: &[Graph],
    optimizers: &[Box<dyn Optimizer + Send + Sync>],
    predictor: &ParameterPredictor,
    config: &EvaluationConfig,
    pool: &Pool,
) -> Result<Vec<ComparisonRow>, QaoaError> {
    // Flatten the sweep into per-graph jobs, remembering cell coordinates.
    let mut jobs: Vec<SweepJob> = Vec::new();
    let mut cells: Vec<(&str, usize)> = Vec::new();
    for (oi, optimizer) in optimizers.iter().enumerate() {
        for (di, &depth) in config.depths.iter().enumerate() {
            let cell = cells.len();
            let seed = cell_seed(config.seed, oi, di);
            cells.push((optimizer.name(), depth));
            for (protocol, seed) in [
                (Protocol::Naive, seed),
                (Protocol::TwoLevel, seed.wrapping_add(500)),
            ] {
                for (gi, graph) in graphs.iter().enumerate() {
                    jobs.push(SweepJob {
                        cell,
                        protocol,
                        optimizer: optimizer.as_ref(),
                        depth,
                        graph,
                        seed: graph_seed(seed, gi),
                    });
                }
            }
        }
    }

    let results: Vec<Result<Vec<(f64, usize)>, QaoaError>> = pool.run_ordered(jobs.len(), |i| {
        let job = &jobs[i];
        match job.protocol {
            Protocol::Naive => evaluation::naive_protocol_graph(
                job.graph,
                job.depth,
                job.optimizer,
                config.naive_starts,
                &config.options,
                job.seed,
                &config.scenario,
            ),
            Protocol::TwoLevel => evaluation::two_level_protocol_graph(
                job.graph,
                job.depth,
                job.optimizer,
                predictor,
                config.level1_starts,
                &config.options,
                job.seed,
                &config.scenario,
            )
            .map(|sample| vec![sample]),
        }
    });

    // Results come back in submission order: graph order within each
    // protocol within each cell.
    let mut naive: Vec<Vec<(f64, usize)>> = vec![Vec::new(); cells.len()];
    let mut ml: Vec<Vec<(f64, usize)>> = vec![Vec::new(); cells.len()];
    for (job, result) in jobs.iter().zip(results) {
        let samples = match job.protocol {
            Protocol::Naive => &mut naive[job.cell],
            Protocol::TwoLevel => &mut ml[job.cell],
        };
        samples.extend(result?);
    }
    Ok(cells
        .iter()
        .enumerate()
        .map(|(cell, &(name, depth))| row_from_samples(name, depth, &naive[cell], &ml[cell]))
        .collect())
}

/// The naive protocol for one optimizer/depth over `graphs`, fanned per
/// graph: `n_starts` samples per graph in graph order, graph `gi` seeded by
/// `graph_seed(seed, gi)`.
///
/// # Errors
///
/// Propagates the first per-graph error.
#[expect(
    clippy::too_many_arguments,
    reason = "the protocol's inputs plus the pool"
)]
pub fn naive_protocol(
    graphs: &[Graph],
    depth: usize,
    optimizer: &(dyn Optimizer + Sync),
    n_starts: usize,
    options: &optimize::Options,
    seed: u64,
    scenario: &qaoa::Scenario,
    pool: &Pool,
) -> Result<Vec<(f64, usize)>, QaoaError> {
    let per_graph: Vec<Result<Vec<(f64, usize)>, QaoaError>> =
        pool.run_ordered(graphs.len(), |gi| {
            evaluation::naive_protocol_graph(
                &graphs[gi],
                depth,
                optimizer,
                n_starts,
                options,
                graph_seed(seed, gi),
                scenario,
            )
        });
    let mut samples = Vec::with_capacity(graphs.len() * n_starts);
    for result in per_graph {
        samples.extend(result?);
    }
    Ok(samples)
}

/// The two-level protocol for one optimizer/depth over `graphs`, fanned
/// per graph: one sample per graph in graph order, graph `gi` seeded by
/// `graph_seed(seed, gi)`.
///
/// # Errors
///
/// Propagates the first per-graph error.
#[expect(
    clippy::too_many_arguments,
    reason = "the protocol's inputs plus the pool"
)]
pub fn two_level_protocol(
    graphs: &[Graph],
    depth: usize,
    optimizer: &(dyn Optimizer + Sync),
    predictor: &ParameterPredictor,
    level1_starts: usize,
    options: &optimize::Options,
    seed: u64,
    scenario: &qaoa::Scenario,
    pool: &Pool,
) -> Result<Vec<(f64, usize)>, QaoaError> {
    let per_graph: Vec<Result<(f64, usize), QaoaError>> = pool.run_ordered(graphs.len(), |gi| {
        evaluation::two_level_protocol_graph(
            &graphs[gi],
            depth,
            optimizer,
            predictor,
            level1_starts,
            options,
            graph_seed(seed, gi),
            scenario,
        )
    });
    per_graph.into_iter().collect()
}
