//! Parallel naive-vs-ML comparison sweeps (Table I) on the engine.
//!
//! The serial `qaoa::evaluation::compare` decomposes into independent
//! per-graph jobs because both protocols seed per graph
//! (`evaluation::graph_seed`). This module fans those jobs — every
//! `(cell, protocol, graph)` triple — across the pool and reassembles the
//! rows in cell order, reproducing the serial sweep bit-for-bit at any
//! worker count.

use graphs::Graph;
use optimize::Optimizer;
use qaoa::evaluation::{
    self, cell_seed, graph_seed, row_from_samples, ComparisonRow, EvaluationConfig,
};
use qaoa::{ParameterPredictor, QaoaError};

use crate::pool::Pool;

/// One unit of sweep work.
enum SweepJob<'a> {
    Naive {
        cell: usize,
        optimizer: &'a (dyn Optimizer + Send + Sync),
        depth: usize,
        graph: &'a Graph,
        seed: u64,
    },
    TwoLevel {
        cell: usize,
        optimizer: &'a (dyn Optimizer + Send + Sync),
        depth: usize,
        graph: &'a Graph,
        seed: u64,
    },
}

/// Runs the full Table-I comparison in parallel. Output is identical to
/// `qaoa::evaluation::compare` on the same inputs.
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
    let mut cells: Vec<(String, usize)> = Vec::new();
    for (oi, optimizer) in optimizers.iter().enumerate() {
        for (di, &depth) in config.depths.iter().enumerate() {
            let cell = cells.len();
            let seed = cell_seed(config.seed, oi, di);
            cells.push((optimizer.name().to_string(), depth));
            for (gi, graph) in graphs.iter().enumerate() {
                jobs.push(SweepJob::Naive {
                    cell,
                    optimizer: optimizer.as_ref(),
                    depth,
                    graph,
                    seed: graph_seed(seed, gi),
                });
            }
            for (gi, graph) in graphs.iter().enumerate() {
                jobs.push(SweepJob::TwoLevel {
                    cell,
                    optimizer: optimizer.as_ref(),
                    depth,
                    graph,
                    seed: graph_seed(seed.wrapping_add(500), gi),
                });
            }
        }
    }

    type JobSamples = (usize, bool, Vec<(f64, usize)>);
    let results: Vec<Result<JobSamples, QaoaError>> =
        pool.run_ordered(jobs.len(), |i| match &jobs[i] {
            SweepJob::Naive {
                cell,
                optimizer,
                depth,
                graph,
                seed,
            } => {
                let samples = evaluation::naive_protocol_graph(
                    graph,
                    *depth,
                    *optimizer,
                    config.naive_starts,
                    &config.options,
                    *seed,
                    &config.scenario,
                )?;
                Ok((*cell, false, samples))
            }
            SweepJob::TwoLevel {
                cell,
                optimizer,
                depth,
                graph,
                seed,
            } => {
                let sample = evaluation::two_level_protocol_graph(
                    graph,
                    *depth,
                    *optimizer,
                    predictor,
                    config.level1_starts,
                    &config.options,
                    *seed,
                    &config.scenario,
                )?;
                Ok((*cell, true, vec![sample]))
            }
        });

    // Reassemble per-cell sample vectors. Jobs come back in submission
    // order, which is graph order within each protocol within each cell —
    // exactly the serial concatenation.
    let mut naive: Vec<Vec<(f64, usize)>> = vec![Vec::new(); cells.len()];
    let mut ml: Vec<Vec<(f64, usize)>> = vec![Vec::new(); cells.len()];
    for result in results {
        let (cell, is_ml, samples) = result?;
        if is_ml {
            ml[cell].extend(samples);
        } else {
            naive[cell].extend(samples);
        }
    }
    Ok(cells
        .iter()
        .enumerate()
        .map(|(cell, (name, depth))| row_from_samples(name, *depth, &naive[cell], &ml[cell]))
        .collect())
}

/// Parallel counterpart of `qaoa::evaluation::naive_protocol`: identical
/// samples, fanned per graph.
///
/// # Errors
///
/// Propagates the first per-graph error.
#[allow(clippy::too_many_arguments)] // mirrors the serial protocol signature
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

/// Parallel counterpart of `qaoa::evaluation::two_level_protocol`:
/// identical samples, fanned per graph.
///
/// # Errors
///
/// Propagates the first per-graph error.
#[allow(clippy::too_many_arguments)] // mirrors the serial protocol signature
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
