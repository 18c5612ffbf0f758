//! Training-corpus generation (§III-A of the paper).
//!
//! The paper builds its dataset from 330 Erdős–Rényi graphs (8 nodes, edge
//! probability 0.5), solving each at depths `p = 1…6` with L-BFGS-B from 20
//! random initializations — 13,860 optimal parameters in total. This module
//! reproduces that pipeline with a configurable scale and a TSV
//! serialization so the (one-time) generation cost can be amortized across
//! experiments.
//!
//! The per-cell policy lives here once: [`solve_level1`] solves a graph's
//! depth 1 on its canonical representative, seeded from the class hash,
//! and [`solve_graph`] walks depths `2..=max_depth`, each cell seeded from
//! `(seed, graph_id, depth)`. Every corpus is therefore a pure function of
//! `(graphs, config)`: the serial [`ParameterDataset::from_graphs`] and the
//! parallel `engine::corpus`, which fans the same per-graph calls across a
//! worker pool and caches [`solve_level1`] per isomorphism class, produce
//! the same bits.

use std::io::{Read, Write};

use graphs::{generators, Graph};
use optimize::{Lbfgsb, Optimizer, Options};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::canonical::{graph_key, CanonicalGraphKey};
use crate::stablehash::{derive2, domain_hash, mix, wide};
use crate::{
    count_f64, InstanceOutcome, MaxCutProblem, QaoaError, QaoaInstance, MAX_PROBLEM_NODES,
};

/// One row of the corpus: the optimal parameters of one `(graph, depth)`
/// QAOA instance.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalRecord {
    /// Index of the graph within the generated ensemble.
    pub graph_id: usize,
    /// Circuit depth `p` of this instance.
    pub depth: usize,
    /// Optimal phase-separation parameters `γ₁…γ_p`.
    pub gammas: Vec<f64>,
    /// Optimal mixing parameters `β₁…β_p`.
    pub betas: Vec<f64>,
    /// Best expectation `⟨C⟩` reached.
    pub expectation: f64,
    /// Approximation ratio at the optimum.
    pub approximation_ratio: f64,
    /// Total function calls spent (all restarts).
    pub function_calls: usize,
}

impl OptimalRecord {
    /// Number of optimal parameters this record contributes (`2·p`).
    #[must_use]
    pub fn n_parameters(&self) -> usize {
        self.gammas.len() + self.betas.len()
    }
}

/// Configuration of the data-generation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DataGenConfig {
    /// Number of Erdős–Rényi graphs (paper: 330).
    pub n_graphs: usize,
    /// Nodes per graph (paper: 8).
    pub n_nodes: usize,
    /// Edge probability (paper: 0.5).
    pub edge_probability: f64,
    /// Depths to solve, `1..=max_depth` (paper: 6).
    pub max_depth: usize,
    /// Random initializations per instance (paper: 20).
    pub restarts: usize,
    /// RNG seed for graphs and initializations.
    pub seed: u64,
    /// Optimizer options (paper: ftol 1e-6).
    pub options: Options,
    /// Relative margin by which a random-restart optimum must beat the
    /// trend-seeded optimum to be recorded instead of it. QAOA landscapes
    /// carry near-degenerate optima in different basin families; among
    /// near-ties the trend-consistent representative keeps the corpus
    /// learnable (outliers in the regression targets otherwise wreck GPR).
    pub trend_preference_margin: f64,
}

impl DataGenConfig {
    /// The paper's full-scale configuration (330 graphs × depths 1–6 × 20
    /// restarts). Expect minutes of compute; use [`DataGenConfig::quick`]
    /// for tests.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            n_graphs: 330,
            n_nodes: 8,
            edge_probability: 0.5,
            max_depth: 6,
            restarts: 20,
            seed: 2020,
            options: Options::default(),
            trend_preference_margin: 1e-3,
        }
    }

    /// A CI-scale configuration: few small graphs, shallow depths.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            n_graphs: 10,
            n_nodes: 6,
            edge_probability: 0.5,
            max_depth: 3,
            restarts: 3,
            seed: 2020,
            options: Options::default(),
            trend_preference_margin: 1e-3,
        }
    }
}

impl Default for DataGenConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The generated corpus: the graph ensemble plus one [`OptimalRecord`] per
/// `(graph, depth)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterDataset {
    graphs: Vec<Graph>,
    records: Vec<OptimalRecord>,
    max_depth: usize,
}

impl ParameterDataset {
    /// Runs the full §III-A pipeline under `config`: the [`ensemble`] it
    /// draws, solved by [`ParameterDataset::from_graphs`].
    ///
    /// # Errors
    ///
    /// Propagates problem-construction and optimizer errors.
    pub fn generate(config: &DataGenConfig) -> Result<Self, QaoaError> {
        Self::from_graphs(ensemble(config), config)
    }

    /// Solves a caller-supplied graph ensemble, one graph after another:
    /// [`solve_level1`] then [`solve_graph`] per graph. Uses L-BFGS-B with
    /// multistart (the paper's data-generation optimizer). This is the
    /// reference the parallel `engine::corpus` reproduces bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction and optimizer errors.
    pub fn from_graphs(graphs: Vec<Graph>, config: &DataGenConfig) -> Result<Self, QaoaError> {
        let optimizer = Lbfgsb::default();
        let mut records = Vec::with_capacity(graphs.len() * config.max_depth);
        for (graph_id, graph) in graphs.iter().enumerate() {
            let level1 = solve_level1(
                &graph_key(graph),
                &optimizer,
                config.restarts,
                config.seed,
                &config.options,
            )?;
            records.extend(solve_graph(graph, graph_id, config, &level1)?);
        }
        Self::from_parts(graphs, records, config.max_depth)
    }

    /// Assembles a dataset from pre-solved parts. Every generator, the TSV
    /// reader and the shard coordinator build through it, so every dataset
    /// meets the same invariants.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::Parse`] (its `line` is the 1-based record
    /// index) when a record references a graph outside `graphs`, a depth of
    /// 0 or beyond `max_depth`, or carries a `gammas` or `betas` count
    /// other than its depth.
    pub fn from_parts(
        graphs: Vec<Graph>,
        records: Vec<OptimalRecord>,
        max_depth: usize,
    ) -> Result<Self, QaoaError> {
        for (i, r) in records.iter().enumerate() {
            let message = if r.graph_id >= graphs.len() || r.depth == 0 || r.depth > max_depth {
                format!(
                    "record {i} out of range: graph_id {} (of {}), depth {} (max {max_depth})",
                    r.graph_id,
                    graphs.len(),
                    r.depth
                )
            } else if r.gammas.len() != r.depth || r.betas.len() != r.depth {
                format!(
                    "record {i} at depth {} carries {} gammas and {} betas",
                    r.depth,
                    r.gammas.len(),
                    r.betas.len()
                )
            } else {
                continue;
            };
            return Err(QaoaError::Parse {
                line: i + 1,
                message,
            });
        }
        Ok(Self {
            graphs,
            records,
            max_depth,
        })
    }

    /// The graph ensemble, indexed by `graph_id`.
    #[must_use]
    pub fn graphs(&self) -> &[Graph] {
        &self.graphs
    }

    /// All records.
    #[must_use]
    pub fn records(&self) -> &[OptimalRecord] {
        &self.records
    }

    /// Largest depth in the corpus.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Total count of optimal parameters — the paper quotes 13,860 for its
    /// configuration (`330 · 2·(1+2+…+6)`).
    #[must_use]
    pub fn n_parameters(&self) -> usize {
        self.records.iter().map(OptimalRecord::n_parameters).sum()
    }

    /// Records for one depth, in graph order.
    #[must_use]
    pub fn records_at_depth(&self, depth: usize) -> Vec<&OptimalRecord> {
        self.records.iter().filter(|r| r.depth == depth).collect()
    }

    /// The record for a specific `(graph, depth)` pair.
    #[must_use]
    pub fn record(&self, graph_id: usize, depth: usize) -> Option<&OptimalRecord> {
        self.records
            .iter()
            .find(|r| r.graph_id == graph_id && r.depth == depth)
    }

    /// Splits the corpus **by graph** into train/test subsets (the paper's
    /// 20:80 split keeps all depths of a graph together).
    #[must_use]
    pub fn split_by_graph(&self, train_fraction: f64) -> (ParameterDataset, ParameterDataset) {
        let n = self.graphs.len();
        // ceil(fraction · n) is the number of graph indices below fraction · n.
        let target = train_fraction.clamp(0.0, 1.0) * count_f64(n);
        let k = (0..n).filter(|&i| count_f64(i) < target).count();
        let k = if n == 0 {
            0
        } else {
            k.clamp(1, (n - 1).max(1))
        };
        let subset = |range: std::ops::Range<usize>| -> ParameterDataset {
            let graphs: Vec<Graph> = range.clone().map(|i| self.graphs[i].clone()).collect();
            let records: Vec<OptimalRecord> = self
                .records
                .iter()
                .filter(|r| range.contains(&r.graph_id))
                .map(|r| {
                    let mut r = r.clone();
                    r.graph_id -= range.start;
                    r
                })
                .collect();
            ParameterDataset {
                graphs,
                records,
                max_depth: self.max_depth,
            }
        };
        (subset(0..k), subset(k..n))
    }

    /// Writes the corpus as TSV (one header line, one line per record).
    ///
    /// Streaming producers that never hold the whole record set — the
    /// sharded corpus coordinator writes each merged record as it arrives —
    /// use the same [`write_tsv_header`] / [`write_tsv_record`] helpers
    /// directly, so their output is byte-identical to this method's.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_tsv<W: Write>(&self, mut w: W) -> Result<(), QaoaError> {
        write_tsv_header(&mut w)?;
        for r in &self.records {
            write_tsv_record(&mut w, r, &self.graphs[r.graph_id])?;
        }
        Ok(())
    }

    /// Reads a corpus previously written by [`ParameterDataset::write_tsv`].
    ///
    /// # Errors
    ///
    /// * [`QaoaError::Io`] on read failure.
    /// * [`QaoaError::Parse`] on malformed content, including a last line
    ///   without its newline (a file cut mid-record), a graph of more than
    ///   [`MAX_PROBLEM_NODES`] nodes, a negative NaN, a record whose
    ///   node count or edges differ from its graph's first record, and the
    ///   records [`ParameterDataset::from_parts`] rejects.
    pub fn read_tsv<R: Read>(mut r: R) -> Result<Self, QaoaError> {
        let mut text = String::new();
        r.read_to_string(&mut text)?;
        let mut records = Vec::new();
        let mut graphs: Vec<Graph> = Vec::new();
        let mut max_depth = 0usize;
        for (lineno, line) in text.lines().enumerate() {
            if lineno == 0 || line.trim().is_empty() {
                continue; // header
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 9 {
                return Err(QaoaError::Parse {
                    line: lineno + 1,
                    message: format!("expected 9 fields, got {}", fields.len()),
                });
            }
            let parse_err = |message: String| QaoaError::Parse {
                line: lineno + 1,
                message,
            };
            let graph_id: usize = fields[0]
                .parse()
                .map_err(|e| parse_err(format!("graph_id: {e}")))?;
            let depth: usize = fields[1]
                .parse()
                .map_err(|e| parse_err(format!("depth: {e}")))?;
            let expectation =
                parse_float(fields[2]).map_err(|m| parse_err(format!("expectation: {m}")))?;
            let ar = parse_float(fields[3]).map_err(|m| parse_err(format!("ar: {m}")))?;
            let fc: usize = fields[4]
                .parse()
                .map_err(|e| parse_err(format!("fc: {e}")))?;
            let gammas = split_floats(fields[5]).map_err(|m| parse_err(format!("gammas: {m}")))?;
            let betas = split_floats(fields[6]).map_err(|m| parse_err(format!("betas: {m}")))?;
            let n_nodes: usize = fields[7]
                .parse()
                .map_err(|e| parse_err(format!("n_nodes: {e}")))?;
            if n_nodes > MAX_PROBLEM_NODES {
                return Err(parse_err(format!(
                    "n_nodes {n_nodes} exceeds the problem limit {MAX_PROBLEM_NODES}"
                )));
            }
            if graph_id > graphs.len() {
                return Err(parse_err("graph ids out of order".into()));
            }
            let mut g = Graph::new(n_nodes);
            for pair in fields[8].split(',').filter(|s| !s.is_empty()) {
                let (u, v) = pair
                    .split_once('-')
                    .ok_or_else(|| parse_err(format!("edge `{pair}`")))?;
                let u: usize = u.parse().map_err(|e| parse_err(format!("edge u: {e}")))?;
                let v: usize = v.parse().map_err(|e| parse_err(format!("edge v: {e}")))?;
                g.add_edge(u, v)?;
            }
            // The first record of a graph materializes it; every later one
            // must repeat its node count and edges.
            match graphs.get(graph_id) {
                None => graphs.push(g),
                Some(first) if *first != g => {
                    return Err(parse_err(format!(
                        "graph {graph_id} contradicts its first record"
                    )));
                }
                Some(_) => {}
            }
            max_depth = max_depth.max(depth);
            records.push(OptimalRecord {
                graph_id,
                depth,
                gammas,
                betas,
                expectation,
                approximation_ratio: ar,
                function_calls: fc,
            });
        }
        if records.is_empty() {
            return Err(QaoaError::Parse {
                line: 1,
                message: "dataset contains no records".into(),
            });
        }
        if !text.ends_with('\n') {
            return Err(QaoaError::Parse {
                line: text.lines().count(),
                message: "last record is cut short (no trailing newline)".into(),
            });
        }
        Self::from_parts(graphs, records, max_depth)
    }
}

/// Generates the Erdős–Rényi ensemble of `config`: one RNG seeded with
/// `config.seed`, streamed across the whole ensemble. Shard coordinators
/// and wire workers materialize identical ensembles from the spec alone.
#[must_use]
pub fn ensemble(config: &DataGenConfig) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.n_graphs)
        .map(|_| {
            generators::erdos_renyi_nonempty(config.n_nodes, config.edge_probability, &mut rng)
        })
        .collect()
}

/// Solves the depth-1 instance of the isomorphism class `class` with
/// best-of-`restarts` multistart: on the class's canonical representative,
/// from an RNG seeded by `(master_seed, class hash, restarts)`. The outcome
/// is a pure function of its arguments, identical for every graph of the
/// class, which is what lets the engine cache it per class under the key
/// `(class, restarts, `[`level1_solver`]`)`.
///
/// # Errors
///
/// Propagates instance-construction and optimizer errors.
pub fn solve_level1(
    class: &CanonicalGraphKey,
    optimizer: &dyn Optimizer,
    restarts: usize,
    master_seed: u64,
    options: &Options,
) -> Result<InstanceOutcome, QaoaError> {
    let representative = class.to_graph()?;
    let instance = QaoaInstance::new(MaxCutProblem::new(&representative)?, 1)?;
    let mut rng = StdRng::seed_from_u64(derive2(
        master_seed,
        "level1",
        class.hash64(),
        wide(restarts),
    ));
    instance.optimize_multistart(optimizer, restarts, &mut rng, options)
}

/// The fingerprint of every [`solve_level1`] input apart from the class
/// and the restarts count: the master seed, the optimizer's name and the
/// bits of every [`Options`] field. Two solves of one class and restarts
/// count give the same bits when their fingerprints agree. Optimizer
/// tunables outside [`Options`] are not in it: every caller builds its
/// optimizer with `Default::default()`, so two optimizers of one name
/// solve alike.
#[must_use]
pub fn level1_solver(optimizer: &dyn Optimizer, master_seed: u64, options: &Options) -> u64 {
    // Destructured, so that a new `Options` field cannot be left out.
    let Options {
        ftol,
        gtol,
        max_iters,
        max_calls,
        fd_step,
    } = *options;
    mix(
        master_seed,
        &[
            domain_hash(optimizer.name()),
            ftol.to_bits(),
            gtol.to_bits(),
            wide(max_iters),
            wide(max_calls),
            fd_step.to_bits(),
        ],
    )
}

/// Solves depths `1..=config.max_depth` of ensemble graph `graph_id` from
/// its depth-1 outcome `level1` ([`solve_level1`] of its class): depth 1
/// is `level1` canonicalized, and each deeper depth is one multistart solve
/// trend-seeded from the depth below, from an RNG seeded by
/// `(config.seed, graph_id, depth)`. Keyed on the global `graph_id`, so a
/// shard that solves part of an ensemble gets the records of the whole.
///
/// # Errors
///
/// Propagates problem-construction and optimizer errors.
pub fn solve_graph(
    graph: &Graph,
    graph_id: usize,
    config: &DataGenConfig,
    level1: &InstanceOutcome,
) -> Result<Vec<OptimalRecord>, QaoaError> {
    let problem = MaxCutProblem::new(graph)?;
    let mut records: Vec<OptimalRecord> = Vec::with_capacity(config.max_depth);
    for depth in 1..=config.max_depth {
        let record = match records.last() {
            None => canonical_record(graph_id, depth, level1),
            Some(prev) => solve_depth(&problem, graph_id, depth, prev, config)?,
        };
        records.push(record);
    }
    Ok(records)
}

/// Solves one `(graph, depth ≥ 2)` corpus cell: the paper's
/// best-of-`restarts` multistart from an RNG seeded by
/// `(config.seed, graph_id, depth)`, plus one trend-seeded run interpolated
/// from the previous depth's canonical optimum `prev`, with near-ties
/// resolved to the trend-consistent basin. Returns the canonicalized
/// [`OptimalRecord`].
///
/// # Errors
///
/// Propagates instance-construction and optimizer errors.
fn solve_depth(
    problem: &MaxCutProblem,
    graph_id: usize,
    depth: usize,
    prev: &OptimalRecord,
    config: &DataGenConfig,
) -> Result<OptimalRecord, QaoaError> {
    let mut rng =
        StdRng::seed_from_u64(derive2(config.seed, "corpus", wide(graph_id), wide(depth)));
    let optimizer = Lbfgsb::default();
    let instance = QaoaInstance::new(problem.clone(), depth)?;
    // The paper's protocol: best of `restarts` random inits.
    let mut outcome = instance.optimize_multistart(
        &optimizer as &dyn Optimizer,
        config.restarts,
        &mut rng,
        &config.options,
    )?;
    // One extra trend-seeded run (Zhou et al.'s INTERP schedule, the
    // paper's ref [5]): initialize depth p from the interpolated
    // depth-(p−1) optimum. QAOA landscapes carry many near-degenerate
    // local optima, and independent multistart hops between them across
    // graphs; the interpolation seed keeps every graph in the same smooth
    // basin family — the regularity Figs. 2/3 depend on.
    let mut seed = interp_resample(&prev.gammas, depth);
    seed.extend(interp_resample(&prev.betas, depth));
    let seeded = instance.optimize(&optimizer as &dyn Optimizer, &seed, &config.options)?;
    let total = outcome.function_calls + seeded.function_calls;
    // Record the random-restart winner only when it beats the
    // trend-consistent optimum by a real margin; near-degenerate ties
    // resolve to the seeded basin.
    let margin = config.trend_preference_margin * (1.0 + seeded.expectation.abs());
    if outcome.expectation <= seeded.expectation + margin {
        outcome = seeded;
    }
    outcome.function_calls = total;
    Ok(canonical_record(graph_id, depth, &outcome))
}

/// The record of one solved cell, its optimum folded into the canonical
/// symmetry domain so optimal parameters are comparable across graphs (see
/// the `canonical` module).
fn canonical_record(graph_id: usize, depth: usize, outcome: &InstanceOutcome) -> OptimalRecord {
    let mut gammas = outcome.gammas().to_vec();
    let mut betas = outcome.betas().to_vec();
    crate::canonical::canonicalize(&mut gammas, &mut betas);
    OptimalRecord {
        graph_id,
        depth,
        gammas,
        betas,
        expectation: outcome.expectation,
        approximation_ratio: outcome.approximation_ratio,
        function_calls: outcome.function_calls,
    }
}

/// Linearly resamples a parameter schedule to a new length — Zhou et al.'s
/// INTERP initialization (the paper's ref [5]), used to seed a depth-`p`
/// optimization from a depth-`p−1` optimum. A single value is replicated,
/// and a length-1 target keeps the first value.
///
/// ```
/// let seed = qaoa::datagen::interp_resample(&[1.0, 3.0], 3);
/// assert_eq!(seed, vec![1.0, 2.0, 3.0]);
/// assert_eq!(qaoa::datagen::interp_resample(&[1.0, 3.0], 1), vec![1.0]);
/// ```
#[must_use]
pub fn interp_resample(old: &[f64], new_len: usize) -> Vec<f64> {
    if old.is_empty() || new_len == 0 {
        return vec![0.0; new_len];
    }
    if old.len() == 1 || new_len == 1 {
        return vec![old[0]; new_len];
    }
    let (span, steps) = (old.len() - 1, new_len - 1);
    (0..new_len)
        .map(|i| {
            let t = count_f64(i) * count_f64(span) / count_f64(steps);
            // floor(t) in integers. While i · span + steps < 2^53 the
            // rounded quotient t never reaches the next integer, so this is
            // exactly t.floor().
            let lo = i * span / steps;
            let hi = (lo + 1).min(span);
            let frac = t - count_f64(lo);
            old[lo] * (1.0 - frac) + old[hi] * frac
        })
        .collect()
}

/// Writes the corpus TSV header line — the first line of every file
/// [`ParameterDataset::write_tsv`] produces.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_tsv_header<W: Write>(w: &mut W) -> Result<(), QaoaError> {
    writeln!(
        w,
        "graph_id\tdepth\texpectation\tar\tfc\tgammas\tbetas\tn_nodes\tedges"
    )?;
    Ok(())
}

/// Writes one corpus record as a TSV line, byte-identical to the line
/// [`ParameterDataset::write_tsv`] writes for the same record. `graph` must
/// be the ensemble graph `record.graph_id` refers to.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_tsv_record<W: Write>(
    w: &mut W,
    record: &OptimalRecord,
    graph: &Graph,
) -> Result<(), QaoaError> {
    let edges: Vec<String> = graph
        .edges()
        .iter()
        .map(|e| format!("{}-{}", e.u, e.v))
        .collect();
    writeln!(
        w,
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        record.graph_id,
        record.depth,
        record.expectation,
        record.approximation_ratio,
        record.function_calls,
        join_floats(&record.gammas),
        join_floats(&record.betas),
        graph.n_nodes(),
        edges.join(",")
    )?;
    Ok(())
}

fn join_floats(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.17e}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn split_floats(s: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(parse_float)
        .collect()
}

/// Parses one float of a corpus line. A negative NaN is refused: the
/// writer prints every NaN as `NaN`, so its sign could not round-trip.
fn parse_float(s: &str) -> Result<f64, String> {
    let x: f64 = s
        .parse()
        .map_err(|e: std::num::ParseFloatError| e.to_string())?;
    if x.is_nan() && x.is_sign_negative() {
        return Err(format!("`{s}` is a negative NaN"));
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> DataGenConfig {
        DataGenConfig {
            n_graphs: 3,
            n_nodes: 4,
            edge_probability: 0.6,
            max_depth: 2,
            restarts: 2,
            seed: 7,
            options: Options::default(),
            trend_preference_margin: 1e-3,
        }
    }

    #[test]
    fn generation_shape_and_counts() {
        let ds = ParameterDataset::generate(&tiny_config()).unwrap();
        assert_eq!(ds.graphs().len(), 3);
        assert_eq!(ds.records().len(), 6); // 3 graphs × 2 depths
                                           // Parameter count: 3 × 2·(1+2) = 18.
        assert_eq!(ds.n_parameters(), 18);
        assert_eq!(ds.records_at_depth(1).len(), 3);
        assert!(ds.record(0, 2).is_some());
        assert!(ds.record(0, 3).is_none());
        for r in ds.records() {
            assert_eq!(r.gammas.len(), r.depth);
            assert_eq!(r.betas.len(), r.depth);
            assert!(r.approximation_ratio > 0.4 && r.approximation_ratio <= 1.0 + 1e-9);
            assert!(r.function_calls > 0);
        }
    }

    #[test]
    fn paper_scale_parameter_count_formula() {
        // 330 graphs × 2·(1+…+6) = 13,860 — the paper's quoted total.
        let per_graph: usize = (1..=6).map(|p| 2 * p).sum();
        assert_eq!(330 * per_graph, 13_860);
    }

    #[test]
    fn deterministic_generation() {
        let a = ParameterDataset::generate(&tiny_config()).unwrap();
        let b = ParameterDataset::generate(&tiny_config()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tsv_roundtrip() {
        let ds = ParameterDataset::generate(&tiny_config()).unwrap();
        let mut buf = Vec::new();
        ds.write_tsv(&mut buf).unwrap();
        let back = ParameterDataset::read_tsv(&buf[..]).unwrap();
        assert_eq!(back.records().len(), ds.records().len());
        assert_eq!(back.graphs().len(), ds.graphs().len());
        assert_eq!(back.max_depth(), ds.max_depth());
        for (a, b) in ds.records().iter().zip(back.records()) {
            assert_eq!(a.graph_id, b.graph_id);
            assert_eq!(a.depth, b.depth);
            assert!((a.expectation - b.expectation).abs() < 1e-12);
            assert_eq!(a.gammas.len(), b.gammas.len());
        }
        // Graph edges survive the roundtrip.
        for (g, h) in ds.graphs().iter().zip(back.graphs()) {
            assert_eq!(g.n_edges(), h.n_edges());
        }
        // A file cut inside its last record is rejected, not loaded short.
        assert!(matches!(
            ParameterDataset::read_tsv(&buf[..buf.len() - 1]),
            Err(QaoaError::Parse { .. })
        ));
    }

    #[test]
    fn malformed_tsv_rejected() {
        assert!(matches!(
            ParameterDataset::read_tsv(&b"header\n1\t2\n"[..]),
            Err(QaoaError::Parse { line: 2, .. })
        ));
        assert!(ParameterDataset::read_tsv(&b"header only\n"[..]).is_err());
    }

    #[test]
    fn records_whose_angle_count_is_not_their_depth_are_rejected() {
        let ds = ParameterDataset::generate(&tiny_config()).unwrap();
        let mut short = ds.records().to_vec();
        short[1].gammas.pop();
        assert!(matches!(
            ParameterDataset::from_parts(ds.graphs().to_vec(), short, 2),
            Err(QaoaError::Parse { line: 2, .. })
        ));
        // The TSV reader builds through the same check.
        let mut buf = Vec::new();
        ds.write_tsv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let mut fields: Vec<&str> = lines[2].split('\t').collect();
        fields[6] = "";
        lines[2] = fields.join("\t");
        let cut = lines.join("\n") + "\n";
        assert!(matches!(
            ParameterDataset::read_tsv(cut.as_bytes()),
            Err(QaoaError::Parse { .. })
        ));
    }

    #[test]
    fn repeated_graph_records_that_contradict_the_first_are_rejected() {
        let ds = ParameterDataset::generate(&tiny_config()).unwrap();
        let mut buf = Vec::new();
        ds.write_tsv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Line 3 is graph 0's second record.
        let with_line3 = |field: usize, value: &dyn Fn(&str) -> String| {
            let mut lines: Vec<String> = text.lines().map(String::from).collect();
            let mut fields: Vec<String> = lines[2].split('\t').map(String::from).collect();
            assert_eq!(fields[0], "0");
            fields[field] = value(&fields[field]);
            lines[2] = fields.join("\t");
            lines.join("\n") + "\n"
        };
        let same = with_line3(8, &|edges| edges.to_string());
        assert!(ParameterDataset::read_tsv(same.as_bytes()).is_ok());
        let one_edge_less = with_line3(8, &|edges| {
            edges
                .rsplit_once(',')
                .map_or("", |(head, _)| head)
                .to_string()
        });
        let one_node_more = with_line3(7, &|n| (n.parse::<usize>().unwrap() + 1).to_string());
        for bad in [one_edge_less, one_node_more] {
            assert!(matches!(
                ParameterDataset::read_tsv(bad.as_bytes()),
                Err(QaoaError::Parse { line: 3, .. })
            ));
        }
    }

    #[test]
    fn split_by_graph_keeps_depths_together() {
        let ds = ParameterDataset::generate(&tiny_config()).unwrap();
        let (train, test) = ds.split_by_graph(0.34);
        assert_eq!(train.graphs().len() + test.graphs().len(), 3);
        // Every graph contributes all its depths to exactly one side.
        assert_eq!(train.records().len() % train.graphs().len(), 0);
        assert_eq!(test.records().len() % test.graphs().len(), 0);
        // Re-indexed ids are dense.
        for r in test.records() {
            assert!(r.graph_id < test.graphs().len());
        }
        // An empty corpus splits into two empty halves.
        let empty = ParameterDataset::from_parts(vec![], vec![], 3).unwrap();
        let (train, test) = empty.split_by_graph(0.2);
        assert!(train.graphs().is_empty() && train.records().is_empty());
        assert!(test.graphs().is_empty() && test.records().is_empty());
    }
}

#[cfg(test)]
mod interp_tests {
    use super::interp_resample;

    #[test]
    fn single_value_replicates() {
        assert_eq!(interp_resample(&[2.0], 3), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn endpoints_preserved() {
        let out = interp_resample(&[1.0, 3.0], 4);
        assert_eq!(out.first(), Some(&1.0));
        assert_eq!(out.last(), Some(&3.0));
        assert_eq!(out.len(), 4);
        // Monotone input stays monotone.
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn identity_resample() {
        let v = vec![0.1, 0.5, 0.9];
        let out = interp_resample(&v, 3);
        for (a, b) in v.iter().zip(&out) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(interp_resample(&[], 0).is_empty());
        assert_eq!(interp_resample(&[], 2), vec![0.0, 0.0]);
        assert!(interp_resample(&[1.0, 2.0], 0).is_empty());
        assert_eq!(interp_resample(&[1.0, 2.0], 1), vec![1.0]);
    }
}
