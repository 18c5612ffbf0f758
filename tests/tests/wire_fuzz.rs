//! Totality of the request, answer, corpus-tasking and cache-entry decoders
//! (`PREDICT`, `JOB`, `PREDICTED`, `OUTCOME`, `REPORT`, `SHARD`, `RANGE`,
//! `RECORD`, `DONE`, `ENTRY`) and of the whole-file decoders of `QCACHE3`
//! and `QMODEL2` artifacts and of the corpus TSV: every
//! input is either rejected with an error or decodes to a value that
//! re-encodes and decodes back bit-exactly. No input panics, and nothing
//! accepted breaks the limits a request or a corpus session is sized from
//! (nodes, depth, restarts, ensemble size).
//!
//! Inputs are arbitrary bytes (bare or behind a valid verb prefix or file
//! header) and valid lines or files that are truncated, bit-flipped, given
//! a duplicated or out-of-range edge, or given a huge count in one numeric
//! field.

mod common;

use std::ops::Range;
use std::sync::OnceLock;

use std::time::Duration;

use engine::persist::{self, CACHE_VERSION};
use engine::wire::{
    self, AnswerTier, PredictRequest, Predicted, RangeDone, MAX_PROBLEM_DEPTH, MAX_PROBLEM_NODES,
    MAX_RESTARTS, MAX_SHARD_GRAPHS,
};
use engine::{artifact, model, BatchReport, Job, JobStats, Level1Key};
use graphs::{generators, Graph};
use ml::ModelKind;
use optimize::Termination;
use proptest::prelude::*;
use proptest::TestCaseError;
use qaoa::canonical::graph_key;
use qaoa::datagen::{DataGenConfig, OptimalRecord, ParameterDataset};
use qaoa::stablehash::wide;
use qaoa::{InstanceOutcome, ParameterPredictor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(u, v, weight bits)` of every edge, for bit-exact comparison (`Graph`'s
/// `PartialEq` compares weights as floats, so `-0.0 == 0.0`).
fn edge_bits(g: &Graph) -> Vec<(usize, usize, u64)> {
    g.edges()
        .iter()
        .map(|e| (e.u, e.v, e.weight.to_bits()))
        .collect()
}

/// The request graph's invariants: within the node limit, at least two
/// nodes and one edge, finite weights, no duplicate pair.
fn check_graph(g: &Graph) -> Result<(), TestCaseError> {
    prop_assert!((2..=MAX_PROBLEM_NODES).contains(&g.n_nodes()));
    prop_assert!(!g.is_empty());
    prop_assert!(g.edges().iter().all(|e| e.weight.is_finite()));
    let mut pairs: Vec<(usize, usize)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    prop_assert_eq!(pairs.len(), g.n_edges());
    Ok(())
}

/// Decodes `line` as `PREDICT`; an accepted request must respect the limits
/// and round-trip bit-exactly.
fn check_predict(line: &str) -> Result<(), TestCaseError> {
    let Ok(request) = wire::decode_predict(line) else {
        return Ok(());
    };
    prop_assert!((1..=MAX_PROBLEM_DEPTH).contains(&request.depth));
    prop_assert!((1..=MAX_RESTARTS).contains(&request.restarts));
    check_graph(&request.graph)?;
    let encoded = wire::encode_predict(&request).expect("decoded graphs encode");
    let back = wire::decode_predict(&encoded).expect("re-encoded line decodes");
    prop_assert_eq!(back.id, request.id);
    prop_assert_eq!(back.depth, request.depth);
    prop_assert_eq!(back.restarts, request.restarts);
    prop_assert_eq!(back.graph.n_nodes(), request.graph.n_nodes());
    prop_assert_eq!(edge_bits(&back.graph), edge_bits(&request.graph));
    prop_assert_eq!(wire::encode_predict(&back).unwrap(), encoded);
    Ok(())
}

/// Decodes `line` as `JOB`; an accepted job must respect the limits and
/// round-trip bit-exactly.
fn check_job(line: &str) -> Result<(), TestCaseError> {
    let Ok(job) = wire::decode_job(line) else {
        return Ok(());
    };
    prop_assert!((1..=MAX_PROBLEM_DEPTH).contains(&job.depth));
    prop_assert!((1..=MAX_RESTARTS).contains(&job.restarts));
    check_graph(&job.graph)?;
    let encoded = wire::encode_job(&job).expect("decoded graphs encode");
    let back = wire::decode_job(&encoded).expect("re-encoded line decodes");
    prop_assert_eq!(back.depth, job.depth);
    prop_assert_eq!(back.restarts, job.restarts);
    prop_assert_eq!(back.graph.n_nodes(), job.graph.n_nodes());
    prop_assert_eq!(edge_bits(&back.graph), edge_bits(&job.graph));
    prop_assert_eq!(wire::encode_job(&back).unwrap(), encoded);
    Ok(())
}

/// `x`'s bits, so NaN payloads and signed zeros compare exactly.
fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// A `SHARD` spec's every field, floats as bits.
fn shard_bits(c: &DataGenConfig) -> ([usize; 4], u64, [u64; 2]) {
    (
        [c.n_graphs, c.n_nodes, c.max_depth, c.restarts],
        c.seed,
        [
            c.edge_probability.to_bits(),
            c.trend_preference_margin.to_bits(),
        ],
    )
}

/// Decodes `line` as `SHARD`; an accepted spec must respect the session
/// limits and round-trip bit-exactly.
fn check_shard(line: &str) -> Result<(), TestCaseError> {
    let Ok(config) = wire::decode_shard(line) else {
        return Ok(());
    };
    prop_assert!(config.n_graphs <= MAX_SHARD_GRAPHS);
    prop_assert!((2..=MAX_PROBLEM_NODES).contains(&config.n_nodes));
    prop_assert!((1..=MAX_PROBLEM_DEPTH).contains(&config.max_depth));
    prop_assert!((1..=MAX_RESTARTS).contains(&config.restarts));
    prop_assert!(config.edge_probability > 0.0 && config.edge_probability <= 1.0);
    prop_assert!(config.trend_preference_margin.is_finite());
    let encoded = wire::encode_shard(&config);
    let back = wire::decode_shard(&encoded).expect("re-encoded line decodes");
    prop_assert_eq!(shard_bits(&back), shard_bits(&config));
    prop_assert_eq!(wire::encode_shard(&back), encoded);
    Ok(())
}

/// Decodes `line` as `RANGE`; an accepted range is never inverted and
/// round-trips.
fn check_range(line: &str) -> Result<(), TestCaseError> {
    let Ok(range) = wire::decode_range(line) else {
        return Ok(());
    };
    prop_assert!(range.start <= range.end);
    let encoded = wire::encode_range(&range);
    prop_assert_eq!(
        wire::decode_range(&encoded).expect("re-encoded line decodes"),
        range
    );
    Ok(())
}

/// Decodes `line` as `RECORD`; an accepted record carries one gamma and
/// one beta per layer of a nonzero depth, and round-trips bit-exactly.
fn check_record(line: &str) -> Result<(), TestCaseError> {
    let Ok(record) = wire::decode_record(line) else {
        return Ok(());
    };
    prop_assert!(record.depth >= 1);
    prop_assert_eq!(record.gammas.len(), record.depth);
    prop_assert_eq!(record.betas.len(), record.depth);
    let encoded = wire::encode_record(&record);
    let back = wire::decode_record(&encoded).expect("re-encoded line decodes");
    prop_assert_eq!(back.graph_id, record.graph_id);
    prop_assert_eq!(back.depth, record.depth);
    prop_assert_eq!(back.expectation.to_bits(), record.expectation.to_bits());
    prop_assert_eq!(
        back.approximation_ratio.to_bits(),
        record.approximation_ratio.to_bits()
    );
    prop_assert_eq!(back.function_calls, record.function_calls);
    prop_assert_eq!(bits(&back.gammas), bits(&record.gammas));
    prop_assert_eq!(bits(&back.betas), bits(&record.betas));
    prop_assert_eq!(wire::encode_record(&back), encoded);
    Ok(())
}

/// Decodes `line` as `DONE`; an accepted marker is never inverted and
/// round-trips.
fn check_done(line: &str) -> Result<(), TestCaseError> {
    let Ok(done) = wire::decode_done(line) else {
        return Ok(());
    };
    prop_assert!(done.range.start <= done.range.end);
    let encoded = wire::encode_done(&done);
    prop_assert_eq!(
        wire::decode_done(&encoded).expect("re-encoded line decodes"),
        done
    );
    Ok(())
}

/// An outcome's every field, floats as bits.
fn outcome_bits(o: &InstanceOutcome) -> (Vec<u64>, [u64; 2], [usize; 2], Termination) {
    (
        bits(&o.params),
        [o.expectation.to_bits(), o.approximation_ratio.to_bits()],
        [o.function_calls, o.gradient_calls],
        o.termination,
    )
}

/// Decodes `line` as `ENTRY`; an accepted entry must respect the limits and
/// round-trip bit-exactly.
fn check_entry(line: &str) -> Result<(), TestCaseError> {
    let Ok((key, outcome)) = wire::decode_entry(line) else {
        return Ok(());
    };
    prop_assert!((1..=MAX_RESTARTS).contains(&key.restarts));
    prop_assert!(key.class.n_nodes() <= MAX_PROBLEM_NODES);
    let encoded = wire::encode_entry(&key, &outcome);
    let (back_key, back) = wire::decode_entry(&encoded).expect("re-encoded line decodes");
    prop_assert_eq!(&back_key, &key);
    prop_assert_eq!(outcome_bits(&back), outcome_bits(&outcome));
    prop_assert_eq!(wire::encode_entry(&back_key, &back), encoded);
    Ok(())
}

/// Decodes `line` as `PREDICTED`; an accepted answer carries parameters
/// and round-trips bit-exactly.
fn check_predicted(line: &str) -> Result<(), TestCaseError> {
    let Ok(answer) = wire::decode_predicted(line) else {
        return Ok(());
    };
    prop_assert!(!answer.params.is_empty());
    let encoded = wire::encode_predicted(&answer);
    let back = wire::decode_predicted(&encoded).expect("re-encoded line decodes");
    prop_assert_eq!(back.id, answer.id);
    prop_assert_eq!(back.tier, answer.tier);
    prop_assert_eq!(bits(&back.params), bits(&answer.params));
    prop_assert_eq!(wire::encode_predicted(&back), encoded);
    Ok(())
}

/// Decodes `line` as `OUTCOME`; an accepted outcome round-trips
/// bit-exactly.
fn check_outcome(line: &str) -> Result<(), TestCaseError> {
    let Ok(outcome) = wire::decode_outcome(line) else {
        return Ok(());
    };
    let encoded = wire::encode_outcome(&outcome);
    let back = wire::decode_outcome(&encoded).expect("re-encoded line decodes");
    prop_assert_eq!(outcome_bits(&back), outcome_bits(&outcome));
    prop_assert_eq!(wire::encode_outcome(&back), encoded);
    Ok(())
}

/// A report's every field; `BatchReport` has no `PartialEq`.
type ReportFields = ([usize; 5], u128, Vec<(u128, usize, usize, bool)>);

fn report_fields(r: &BatchReport) -> ReportFields {
    (
        [
            r.threads,
            r.total_function_calls,
            r.total_gradient_calls,
            r.cache_hits,
            r.cache_misses,
        ],
        r.wall.as_nanos(),
        r.jobs
            .iter()
            .map(|j| {
                (
                    j.wall.as_nanos(),
                    j.function_calls,
                    j.gradient_calls,
                    j.cache_hit,
                )
            })
            .collect(),
    )
}

/// Decodes `line` as `REPORT`; an accepted report round-trips exactly.
fn check_report(line: &str) -> Result<(), TestCaseError> {
    let Ok(report) = wire::decode_report(line) else {
        return Ok(());
    };
    let encoded = wire::encode_report(&report);
    let back = wire::decode_report(&encoded).expect("re-encoded line decodes");
    prop_assert_eq!(report_fields(&back), report_fields(&report));
    prop_assert_eq!(wire::encode_report(&back), encoded);
    Ok(())
}

/// Runs every decoder over `line` (each rejects the other verbs).
fn check_all(line: &str) -> Result<(), TestCaseError> {
    check_predict(line)?;
    check_job(line)?;
    check_predicted(line)?;
    check_outcome(line)?;
    check_report(line)?;
    check_shard(line)?;
    check_range(line)?;
    check_record(line)?;
    check_done(line)?;
    check_entry(line)
}

/// A random valid request: n in 2..=10, ER(p) forced non-empty, weights
/// either all 1 or drawn from a set with a signed zero and extremes.
fn random_request(rng: &mut StdRng) -> PredictRequest {
    const WEIGHTS: [f64; 5] = [1.0, -0.0, 0.5, f64::MAX, f64::MIN_POSITIVE];
    let n = rng.gen_range(2..=10);
    let p = rng.gen_range(0.1..1.0);
    let base = generators::erdos_renyi_nonempty(n, p, rng);
    let weighted = rng.gen_range(0..2) == 1;
    let mut graph = Graph::new(n);
    for e in base.edges() {
        let w = if weighted {
            WEIGHTS[rng.gen_range(0..WEIGHTS.len())]
        } else {
            1.0
        };
        graph.add_weighted_edge(e.u, e.v, w).unwrap();
    }
    PredictRequest {
        id: rng.gen_range(0..u64::MAX),
        depth: rng.gen_range(1..=MAX_PROBLEM_DEPTH),
        restarts: rng.gen_range(1..=MAX_RESTARTS),
        graph,
    }
}

/// A valid `PREDICT` line and the `JOB` line over the same graph.
fn valid_lines(rng: &mut StdRng) -> (PredictRequest, String, String) {
    let request = random_request(rng);
    let predict = wire::encode_predict(&request).unwrap();
    let job = wire::encode_job(&Job::new(
        request.graph.clone(),
        request.depth,
        request.restarts,
    ))
    .unwrap();
    (request, predict, job)
}

/// Floats with signed zeros, infinities, NaN payloads and subnormals.
const ODD_FLOATS: [f64; 8] = [
    0.5,
    -0.0,
    f64::INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
    5e-324,
    f64::MAX,
    -1.25,
];

/// One valid value of each corpus-tasking verb, in the order `SHARD`,
/// `RANGE`, `RECORD`, `DONE`. The `RECORD` carries `depth` gammas and
/// `depth` betas, as the decoder requires.
fn valid_tasks(rng: &mut StdRng) -> (DataGenConfig, Range<usize>, OptimalRecord, RangeDone) {
    let config = DataGenConfig {
        n_graphs: rng.gen_range(0..=MAX_SHARD_GRAPHS),
        n_nodes: rng.gen_range(2..=MAX_PROBLEM_NODES),
        edge_probability: [1.0, 0.5, f64::MIN_POSITIVE][rng.gen_range(0..3)],
        max_depth: rng.gen_range(1..=MAX_PROBLEM_DEPTH),
        restarts: rng.gen_range(1..=MAX_RESTARTS),
        seed: rng.gen_range(0..u64::MAX),
        options: Default::default(),
        trend_preference_margin: [0.0, -0.0, 1e-3, f64::MAX][rng.gen_range(0..4)],
    };
    let start = rng.gen_range(0..usize::MAX);
    let end = rng.gen_range(start..=usize::MAX);
    let depth = rng.gen_range(1..4);
    let floats = |rng: &mut StdRng| -> Vec<f64> {
        (0..depth)
            .map(|_| ODD_FLOATS[rng.gen_range(0..ODD_FLOATS.len())])
            .collect()
    };
    let record = OptimalRecord {
        graph_id: rng.gen_range(0..usize::MAX),
        depth,
        gammas: floats(rng),
        betas: floats(rng),
        expectation: ODD_FLOATS[rng.gen_range(0..ODD_FLOATS.len())],
        approximation_ratio: ODD_FLOATS[rng.gen_range(0..ODD_FLOATS.len())],
        function_calls: rng.gen_range(0..usize::MAX),
    };
    let done = RangeDone {
        range: start..end,
        cells: rng.gen_range(0..usize::MAX),
        function_calls: rng.gen_range(0..usize::MAX),
    };
    (config, start..end, record, done)
}

/// [`valid_tasks`], encoded.
fn valid_tasking_lines(rng: &mut StdRng) -> [String; 4] {
    let (config, range, record, done) = valid_tasks(rng);
    [
        wire::encode_shard(&config),
        wire::encode_range(&range),
        wire::encode_record(&record),
        wire::encode_done(&done),
    ]
}

const TERMINATIONS: [Termination; 6] = [
    Termination::FtolSatisfied,
    Termination::GtolSatisfied,
    Termination::StepSizeZero,
    Termination::MaxIterations,
    Termination::MaxCalls,
    Termination::NonFinite,
];

/// One of [`ODD_FLOATS`].
fn odd_float(rng: &mut StdRng) -> f64 {
    ODD_FLOATS[rng.gen_range(0..ODD_FLOATS.len())]
}

/// A random outcome of zero to four odd-float parameters and any counts.
fn random_outcome(rng: &mut StdRng) -> InstanceOutcome {
    InstanceOutcome {
        params: (0..rng.gen_range(0..5)).map(|_| odd_float(rng)).collect(),
        expectation: odd_float(rng),
        approximation_ratio: odd_float(rng),
        function_calls: rng.gen_range(0..usize::MAX),
        gradient_calls: rng.gen_range(0..usize::MAX),
        termination: TERMINATIONS[rng.gen_range(0..TERMINATIONS.len())],
    }
}

/// A random valid cache entry: the class of a random request graph, any
/// solver fingerprint, and an outcome of odd floats.
fn random_entry(rng: &mut StdRng) -> (Level1Key, InstanceOutcome) {
    let request = random_request(rng);
    let key = Level1Key {
        class: graph_key(&request.graph),
        restarts: request.restarts,
        solver: rng.gen(),
    };
    (key, random_outcome(rng))
}

/// A random report of zero to three jobs with any counts and wall times.
fn random_report(rng: &mut StdRng) -> BatchReport {
    let count = |rng: &mut StdRng| rng.gen_range(0..usize::MAX);
    let nanos = |rng: &mut StdRng| Duration::from_nanos(rng.gen_range(0..u64::MAX));
    BatchReport {
        jobs: (0..rng.gen_range(0..4))
            .map(|_| JobStats {
                wall: nanos(rng),
                function_calls: count(rng),
                gradient_calls: count(rng),
                cache_hit: rng.gen_range(0..2) == 1,
            })
            .collect(),
        wall: nanos(rng),
        threads: count(rng),
        total_function_calls: count(rng),
        total_gradient_calls: count(rng),
        cache_hits: count(rng),
        cache_misses: count(rng),
    }
}

/// One valid value of each answer verb, in the order `PREDICTED`,
/// `OUTCOME`, `REPORT`.
fn valid_answers(rng: &mut StdRng) -> (Predicted, InstanceOutcome, BatchReport) {
    const TIERS: [AnswerTier; 3] = [
        AnswerTier::CachedExact,
        AnswerTier::Model,
        AnswerTier::WarmStart,
    ];
    let predicted = Predicted {
        id: rng.gen_range(0..u64::MAX),
        tier: TIERS[rng.gen_range(0..TIERS.len())],
        params: (0..rng.gen_range(1..5)).map(|_| odd_float(rng)).collect(),
    };
    (predicted, random_outcome(rng), random_report(rng))
}

/// [`valid_answers`], encoded.
fn valid_answer_lines(rng: &mut StdRng) -> [String; 3] {
    let (predicted, outcome, report) = valid_answers(rng);
    [
        wire::encode_predicted(&predicted),
        wire::encode_outcome(&outcome),
        wire::encode_report(&report),
    ]
}

/// One valid line of every verb, each with the indices of its integer
/// count fields in the space-split line: `PREDICT`, `JOB`, `PREDICTED`,
/// `OUTCOME`, `REPORT`, `SHARD`, `RANGE`, `RECORD`, `DONE`, `ENTRY`.
fn every_verb(rng: &mut StdRng) -> Vec<(String, &'static [usize])> {
    let (_, predict, job) = valid_lines(rng);
    let [predicted, outcome_line, report] = valid_answer_lines(rng);
    let [shard, range, record, done] = valid_tasking_lines(rng);
    let (key, outcome) = random_entry(rng);
    vec![
        (predict, &[2, 3, 4, 5]),
        (job, &[2, 3, 4]),
        (predicted, &[2, 3]),
        (outcome_line, &[5, 6]),
        (report, &[2, 3, 4, 5, 6, 7]),
        (shard, &[2, 3, 5, 6, 7]),
        (range, &[2, 3]),
        (record, &[2, 3, 6]),
        (done, &[2, 3, 4, 5]),
        (wire::encode_entry(&key, &outcome), &[2, 4, 9, 10]),
    ]
}

// --- whole artifact files ----------------------------------------------------

/// A valid `QCACHE3` file of one to three random entries.
fn cache_file(rng: &mut StdRng) -> String {
    let mut text = format!("{}\n", artifact::header(CACHE_VERSION));
    for _ in 0..rng.gen_range(1..=3) {
        let (key, outcome) = random_entry(rng);
        text.push_str(&wire::encode_entry(&key, &outcome));
        text.push('\n');
    }
    text
}

/// Parses `text` as a cache file; an accepted file must round-trip
/// bit-exactly through the entry encoder.
fn check_cache_file(text: &str) -> Result<(), TestCaseError> {
    let Ok(entries) = persist::parse_entries(text) else {
        return Ok(());
    };
    let mut encoded = format!("{}\n", artifact::header(CACHE_VERSION));
    for (key, outcome) in &entries {
        prop_assert!(key.class.n_nodes() <= MAX_PROBLEM_NODES);
        encoded.push_str(&wire::encode_entry(key, outcome));
        encoded.push('\n');
    }
    let back = persist::parse_entries(&encoded).expect("re-encoded file parses");
    prop_assert_eq!(back.len(), entries.len());
    for ((bk, bo), (k, o)) in back.iter().zip(&entries) {
        prop_assert_eq!(bk, k);
        prop_assert_eq!(outcome_bits(bo), outcome_bits(o));
    }
    Ok(())
}

/// The master seed of the model files.
const MODEL_SEED: u64 = 41;

/// One valid `QMODEL2` file per model kind, trained once on a tiny corpus.
fn model_files() -> &'static [String] {
    static FILES: OnceLock<Vec<String>> = OnceLock::new();
    FILES.get_or_init(|| {
        let corpus = ParameterDataset::generate(&common::tiny_datagen(4, 4, 0.7, 2, 1, 5))
            .expect("tiny corpus");
        ModelKind::EXTENDED
            .into_iter()
            .map(|kind| {
                let predictor = ParameterPredictor::train(kind, &corpus).expect("training");
                model::encode(&predictor, MODEL_SEED).expect("encode")
            })
            .collect()
    })
}

/// Parses `text` as a model file; an accepted model must predict at every
/// depth without panicking and re-encode, and its encoding must parse back
/// to the same encoding.
fn check_model_file(text: &str) -> Result<(), TestCaseError> {
    let Ok(predictor) = model::parse_model(text, MODEL_SEED) else {
        return Ok(());
    };
    for depth in 1..=predictor.max_depth() {
        let _ = predictor.predict(0.6, 0.4, depth);
    }
    let encoded = model::encode(&predictor, MODEL_SEED).expect("accepted models re-encode");
    let back = model::parse_model(&encoded, MODEL_SEED).expect("re-encoded file parses");
    prop_assert_eq!(model::encode(&back, MODEL_SEED).unwrap(), encoded);
    Ok(())
}

/// A valid corpus TSV: one to three random request graphs, each with
/// records at depths 1 to 3 whose values are odd floats and any counts.
fn corpus_tsv(rng: &mut StdRng) -> String {
    let graphs: Vec<Graph> = (0..rng.gen_range(1..=3))
        .map(|_| random_request(rng).graph)
        .collect();
    let mut records = Vec::new();
    for graph_id in 0..graphs.len() {
        for depth in 1..=rng.gen_range(1..=3) {
            records.push(OptimalRecord {
                graph_id,
                depth,
                gammas: (0..depth).map(|_| odd_float(rng)).collect(),
                betas: (0..depth).map(|_| odd_float(rng)).collect(),
                expectation: odd_float(rng),
                approximation_ratio: odd_float(rng),
                function_calls: rng.gen_range(0..usize::MAX),
            });
        }
    }
    let dataset = ParameterDataset::from_parts(graphs, records, 3).expect("valid corpus");
    let mut text = Vec::new();
    dataset.write_tsv(&mut text).expect("in-memory write");
    String::from_utf8(text).expect("the corpus TSV is ASCII")
}

/// Every graph's node count and edges, and every record's counts and
/// value bits.
type CorpusBits = (Vec<(usize, Vec<(usize, usize, u64)>)>, Vec<Vec<u64>>);

/// The bits of every value of a corpus, for bit-exact comparison.
fn corpus_bits(ds: &ParameterDataset) -> CorpusBits {
    let graphs = ds
        .graphs()
        .iter()
        .map(|g| (g.n_nodes(), edge_bits(g)))
        .collect();
    let records = ds
        .records()
        .iter()
        .map(|r| {
            let mut v = vec![wide(r.graph_id), wide(r.depth), wide(r.function_calls)];
            v.extend(bits(&r.gammas));
            v.extend(bits(&r.betas));
            v.extend(bits(&[r.expectation, r.approximation_ratio]));
            v
        })
        .collect();
    (graphs, records)
}

/// Parses `text` as a corpus TSV; an accepted corpus must stay within the
/// node limit and round-trip bit-exactly through `write_tsv`.
fn check_corpus_tsv(text: &str) -> Result<(), TestCaseError> {
    let Ok(dataset) = ParameterDataset::read_tsv(text.as_bytes()) else {
        return Ok(());
    };
    prop_assert!(dataset
        .graphs()
        .iter()
        .all(|g| g.n_nodes() <= MAX_PROBLEM_NODES));
    let mut encoded = Vec::new();
    dataset.write_tsv(&mut encoded).expect("in-memory write");
    let back = ParameterDataset::read_tsv(&encoded[..]).expect("re-encoded corpus parses");
    prop_assert_eq!(back.max_depth(), dataset.max_depth());
    prop_assert_eq!(corpus_bits(&back), corpus_bits(&dataset));
    let mut again = Vec::new();
    back.write_tsv(&mut again).expect("in-memory write");
    prop_assert_eq!(again, encoded);
    Ok(())
}

/// Byte ranges of the all-digit fields of `text`: runs of digits bounded
/// by a separator (space, tab, comma, `=`, `:`, `-`, newline) or an end.
fn int_fields(text: &str) -> Vec<Range<usize>> {
    let bytes = text.as_bytes();
    let sep = |i: usize| i >= bytes.len() || b" \t,=:-\n".contains(&bytes[i]);
    let mut fields = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i == start {
            i += 1;
        } else if (start == 0 || sep(start - 1)) && sep(i) {
            fields.push(start..i);
        }
    }
    fields
}

/// `text` cut at `at` ten-thousandths of its length, with one bit of the
/// byte at `flip` flipped, or with one integer field made huge: the three
/// ways a valid file is damaged below.
fn damaged(text: &str, how: usize, at: usize, bit: u32, huge: usize) -> String {
    match how {
        0 => text[..at * text.len() / 10_000].to_string(),
        1 => {
            let mut bytes = text.as_bytes().to_vec();
            let i = at * bytes.len() / 10_000;
            bytes[i] ^= 1 << bit;
            String::from_utf8_lossy(&bytes).into_owned()
        }
        _ => {
            let fields = int_fields(text);
            let field = fields[at * fields.len() / 10_000].clone();
            format!(
                "{}{}{}",
                &text[..field.start],
                HUGE[huge],
                &text[field.end..]
            )
        }
    }
}

/// Numbers a hostile client might put in any count field.
const HUGE: [&str; 6] = [
    "100000000000000000",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "-1",
    "65",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare or behind a verb prefix.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in collection::vec(0u8..=255, 0..96),
        prefix in 0usize..12,
    ) {
        let tail = String::from_utf8_lossy(&bytes);
        let head = [
            "",
            "QW1 PREDICT ",
            "QW1 JOB ",
            "QW1 PREDICT 1 2 3 4 ",
            "QW1 PREDICTED ",
            "QW1 OUTCOME ",
            "QW1 REPORT ",
            "QW1 SHARD ",
            "QW1 RANGE ",
            "QW1 RECORD ",
            "QW1 DONE ",
            "QW1 ENTRY ",
        ][prefix];
        check_all(&format!("{head}{tail}"))?;
    }

    /// Bytes drawn from the wire alphabet, so more of them reach the
    /// numeric and edge parsers.
    #[test]
    fn wire_alphabet_lines_never_panic(
        picks in collection::vec(0usize..16, 0..64),
        prefix in 0usize..10,
    ) {
        const ALPHABET: &[u8] = b"0123456789-,: af";
        let tail: String = picks.iter().map(|&i| char::from(ALPHABET[i])).collect();
        let head = [
            "QW1 PREDICT ",
            "QW1 JOB ",
            "QW1 PREDICTED ",
            "QW1 OUTCOME ",
            "QW1 REPORT ",
            "QW1 SHARD ",
            "QW1 RANGE ",
            "QW1 RECORD ",
            "QW1 DONE ",
            "QW1 ENTRY ",
        ][prefix];
        check_all(&format!("{head}{tail}"))?;
    }

    /// Valid lines decode to exactly what was encoded.
    #[test]
    fn valid_lines_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (request, predict, job) = valid_lines(&mut rng);
        let decoded = wire::decode_predict(&predict).expect("valid PREDICT");
        prop_assert_eq!(decoded.id, request.id);
        prop_assert_eq!(edge_bits(&decoded.graph), edge_bits(&request.graph));
        let decoded = wire::decode_job(&job).expect("valid JOB");
        prop_assert_eq!(decoded.depth, request.depth);
        prop_assert_eq!(edge_bits(&decoded.graph), edge_bits(&request.graph));
        // Every float-carrying verb decodes to the value encoded, bit for
        // bit (-0.0, subnormals and NaN payloads included).
        let (predicted_value, outcome, report_value) = valid_answers(&mut rng);
        let predicted = wire::encode_predicted(&predicted_value);
        let back = wire::decode_predicted(&predicted).expect("valid PREDICTED");
        prop_assert_eq!((back.id, back.tier), (predicted_value.id, predicted_value.tier));
        prop_assert_eq!(bits(&back.params), bits(&predicted_value.params));
        let outcome_line = wire::encode_outcome(&outcome);
        let back = wire::decode_outcome(&outcome_line).expect("valid OUTCOME");
        prop_assert_eq!(outcome_bits(&back), outcome_bits(&outcome));
        let report = wire::encode_report(&report_value);
        let back = wire::decode_report(&report).expect("valid REPORT");
        prop_assert_eq!(report_fields(&back), report_fields(&report_value));
        let (config, range_value, record_value, done_value) = valid_tasks(&mut rng);
        let shard = wire::encode_shard(&config);
        let back = wire::decode_shard(&shard).expect("valid SHARD");
        prop_assert_eq!(shard_bits(&back), shard_bits(&config));
        let range = wire::encode_range(&range_value);
        prop_assert_eq!(wire::decode_range(&range).expect("valid RANGE"), range_value);
        let record = wire::encode_record(&record_value);
        prop_assert!(wire::decode_record(&record).is_ok(), "{}", record);
        let done = wire::encode_done(&done_value);
        prop_assert_eq!(wire::decode_done(&done).expect("valid DONE"), done_value);
        let (key, outcome) = random_entry(&mut rng);
        let entry = wire::encode_entry(&key, &outcome);
        let (back_key, back) = wire::decode_entry(&entry).expect("valid ENTRY");
        prop_assert_eq!(&back_key, &key);
        prop_assert_eq!(outcome_bits(&back), outcome_bits(&outcome));
        for line in [
            predict,
            job,
            predicted,
            outcome_line,
            report,
            shard,
            range,
            record,
            done,
            entry,
        ] {
            check_all(&line)?;
        }
    }

    /// Valid lines cut short at any byte (the lines are ASCII).
    #[test]
    fn truncated_lines_are_rejected_or_round_trip(seed in 0u64..u64::MAX, cut in 0usize..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (line, _) in every_verb(&mut rng) {
            check_all(&line[..cut * line.len() / 10_000])?;
        }
    }

    /// Valid lines with one bit flipped anywhere.
    #[test]
    fn bit_flipped_lines_are_rejected_or_round_trip(
        seed in 0u64..u64::MAX,
        at in 0usize..10_000,
        bit in 0u32..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (line, _) in every_verb(&mut rng) {
            let mut bytes = line.into_bytes();
            let i = at * bytes.len() / 10_000;
            bytes[i] ^= 1 << bit;
            check_all(&String::from_utf8_lossy(&bytes))?;
        }
    }

    /// A valid line with one edge repeated (either orientation, any
    /// weight) or one endpoint out of range is always rejected.
    #[test]
    fn duplicate_and_out_of_range_edges_are_rejected(seed in 0u64..u64::MAX, kind in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (request, predict, job) = valid_lines(&mut rng);
        let edges = request.graph.edges();
        let e = edges[rng.gen_range(0..edges.len())];
        let n = request.graph.n_nodes();
        let extra = match kind {
            0 => format!("{}-{}", e.u, e.v),
            1 => format!("{}-{}:{:016x}", e.v, e.u, 2.5f64.to_bits()),
            2 => format!("{}-{n}", e.u),
            _ => format!("4294967295-{}", e.v),
        };
        for line in [predict, job] {
            let line = format!("{line},{extra}");
            prop_assert!(wire::decode_predict(&line).is_err(), "{}", line);
            prop_assert!(wire::decode_job(&line).is_err(), "{}", line);
        }
    }

    /// A valid `RECORD` whose depth is 0, or whose gammas or betas are one
    /// short, one too many or absent (`-`), is always rejected.
    #[test]
    fn record_angle_counts_must_match_depth(seed in 0u64..u64::MAX, kind in 0usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let [_, _, record, _] = valid_tasking_lines(&mut rng);
        let mut fields: Vec<String> = record.split(' ').map(String::from).collect();
        match kind {
            0 => fields[3] = "0".into(),
            1 => fields[3] = (fields[7].split(',').count() + 1).to_string(),
            2 => fields[7] = "-".into(),
            3 => fields[8] = format!("{},{}", fields[8], fields[8]),
            _ => {
                fields[7] = "-".into();
                fields[8] = "-".into();
            }
        }
        let line = fields.join(" ");
        prop_assert!(wire::decode_record(&line).is_err(), "{}", line);
    }

    /// A valid line with one count field replaced by a huge (or
    /// negative, or overflowing) count.
    #[test]
    fn huge_counts_are_rejected_or_round_trip(
        seed in 0u64..u64::MAX,
        field in 0usize..5,
        huge in 0usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (line, counts) in every_verb(&mut rng) {
            let mut fields: Vec<&str> = line.split(' ').collect();
            fields[counts[field % counts.len()]] = HUGE[huge];
            check_all(&fields.join(" "))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, bare or behind a valid file header.
    #[test]
    fn arbitrary_artifact_bytes_never_panic(
        bytes in collection::vec(0u8..=255, 0..160),
        headed in 0usize..2,
    ) {
        let tail = String::from_utf8_lossy(&bytes);
        let cache_head = [String::new(), format!("{}\n", artifact::header(CACHE_VERSION))];
        check_cache_file(&format!("{}{tail}", cache_head[headed]))?;
        let model_head = [
            String::new(),
            format!("{} seed={MODEL_SEED} kind=LM features=3 max-depth=2 intermediate=-\n",
                artifact::header(model::MODEL_VERSION)),
        ];
        check_model_file(&format!("{}{tail}", model_head[headed]))?;
    }

    /// Arbitrary bytes, bare or behind the corpus TSV header line.
    #[test]
    fn arbitrary_corpus_bytes_never_panic(
        bytes in collection::vec(0u8..=255, 0..160),
        headed in 0usize..2,
    ) {
        let tail = String::from_utf8_lossy(&bytes);
        let head = ["", "graph_id\tdepth\texpectation\tar\tfc\tgammas\tbetas\tn_nodes\tedges\n"];
        check_corpus_tsv(&format!("{}{tail}", head[headed]))?;
    }

    /// Valid corpus TSVs round-trip; truncated, bit-flipped or huge-count
    /// copies, and copies with one record line repeated, are rejected or
    /// round-trip.
    #[test]
    fn damaged_corpus_tsvs_are_rejected_or_round_trip(
        seed in 0u64..u64::MAX,
        how in 0usize..4,
        at in 0usize..10_000,
        bit in 0u32..8,
        huge in 0usize..6,
    ) {
        let text = corpus_tsv(&mut StdRng::seed_from_u64(seed));
        prop_assert!(ParameterDataset::read_tsv(text.as_bytes()).is_ok(), "{}", text);
        check_corpus_tsv(&text)?;
        let damaged = if how == 3 {
            let lines: Vec<&str> = text.lines().collect();
            let i = 1 + at * (lines.len() - 1) / 10_000;
            let mut repeated = lines.clone();
            repeated.insert(i, lines[i]);
            repeated.join("\n") + "\n"
        } else {
            damaged(&text, how, at, bit, huge)
        };
        check_corpus_tsv(&damaged)?;
    }

    /// A record line that repeats a graph with a changed edge list (its
    /// last edge dropped) is rejected, not read as the graph's first line.
    #[test]
    fn corpus_lines_that_change_a_repeated_graph_are_rejected(seed in 0u64..u64::MAX) {
        let text = corpus_tsv(&mut StdRng::seed_from_u64(seed));
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let graph_id = |line: &str| line.split('\t').next().map(String::from);
        let Some(i) = (2..lines.len()).find(|&i| graph_id(&lines[i]) == graph_id(&lines[i - 1]))
        else {
            return Ok(());
        };
        let mut fields: Vec<&str> = lines[i].split('\t').collect();
        fields[8] = fields[8].rsplit_once(',').map_or("", |(head, _)| head);
        lines[i] = fields.join("\t");
        let changed = lines.join("\n") + "\n";
        prop_assert!(ParameterDataset::read_tsv(changed.as_bytes()).is_err(), "{}", changed);
    }

    /// Valid cache files round-trip; truncated, bit-flipped or
    /// huge-count copies are rejected or round-trip.
    #[test]
    fn damaged_cache_files_are_rejected_or_round_trip(
        seed in 0u64..u64::MAX,
        how in 0usize..3,
        at in 0usize..10_000,
        bit in 0u32..8,
        huge in 0usize..6,
    ) {
        let text = cache_file(&mut StdRng::seed_from_u64(seed));
        prop_assert!(persist::parse_entries(&text).is_ok(), "{}", text);
        check_cache_file(&text)?;
        check_cache_file(&damaged(&text, how, at, bit, huge))?;
    }

    /// Valid model files of every kind round-trip; truncated, bit-flipped
    /// or huge-count copies (stage numbers, the `END` count, header depths
    /// and the models' own counts) are rejected or round-trip.
    #[test]
    fn damaged_model_files_are_rejected_or_round_trip(
        kind in 0usize..ModelKind::EXTENDED.len(),
        how in 0usize..3,
        at in 0usize..10_000,
        bit in 0u32..8,
        huge in 0usize..6,
    ) {
        let text = &model_files()[kind];
        prop_assert!(model::parse_model(text, MODEL_SEED).is_ok());
        check_model_file(text)?;
        check_model_file(&damaged(text, how, at, bit, huge))?;
    }
}

#[test]
fn huge_counts_in_every_field_are_rejected() {
    for huge in &HUGE[..3] {
        for line in [
            format!("QW1 PREDICT 1 {huge} 3 4 0-1,1-2"),
            format!("QW1 PREDICT 1 2 {huge} 4 0-1,1-2"),
            format!("QW1 PREDICT 1 2 3 {huge} 0-1,1-2"),
            format!("QW1 JOB {huge} 3 4 0-1,1-2"),
            format!("QW1 JOB 2 {huge} 4 0-1,1-2"),
            format!("QW1 JOB 2 3 {huge} 0-1,1-2"),
        ] {
            assert!(wire::decode_predict(&line).is_err(), "{line}");
            assert!(wire::decode_job(&line).is_err(), "{line}");
        }
    }
}

#[test]
fn counts_past_every_shard_limit_are_rejected() {
    let line = |f: [String; 4]| {
        format!(
            "QW1 SHARD {} {} 3fe0000000000000 {} {} 99 3f50624dd2f1a9fc",
            f[0], f[1], f[2], f[3]
        )
    };
    let valid = ["4", "5", "2", "2"].map(String::from);
    assert!(wire::decode_shard(&line(valid.clone())).is_ok());
    // n_graphs, n_nodes, max_depth, restarts.
    let limits = [
        MAX_SHARD_GRAPHS,
        MAX_PROBLEM_NODES,
        MAX_PROBLEM_DEPTH,
        MAX_RESTARTS,
    ];
    for (field, limit) in limits.into_iter().enumerate() {
        let over = (limit + 1).to_string();
        for huge in HUGE[..3].iter().copied().chain([over.as_str()]) {
            let mut fields = valid.clone();
            fields[field] = huge.to_string();
            let line = line(fields);
            assert!(wire::decode_shard(&line).is_err(), "{line}");
        }
    }
}

#[test]
fn huge_counts_in_every_model_header_and_leading_field_are_rejected_or_round_trip() {
    // The header, the first stage number and the first model's leading
    // counts (shapes, ensemble sizes) are what a decoder sizes from.
    for text in model_files() {
        for field in int_fields(text).into_iter().take(24) {
            for huge in HUGE {
                let damaged = format!("{}{huge}{}", &text[..field.start], &text[field.end..]);
                check_model_file(&damaged).unwrap();
            }
        }
    }
}

#[test]
fn corpus_values_the_writer_cannot_reproduce_are_rejected() {
    // A negative NaN would be written back as `NaN`, and a graph past the
    // problem limit is never written at all: both are refused on read.
    let tsv = |expectation: &str, gammas: &str, n_nodes: &str| {
        format!(
            "graph_id\tdepth\texpectation\tar\tfc\tgammas\tbetas\tn_nodes\tedges\n\
             0\t1\t{expectation}\t0.5\t7\t{gammas}\t2.50000000000000000e-1\t{n_nodes}\t0-1,1-2\n"
        )
    };
    let gamma = "7.50000000000000000e-1";
    let valid = tsv("1.5", gamma, "4");
    let dataset = ParameterDataset::read_tsv(valid.as_bytes()).expect("valid corpus");
    let mut written = Vec::new();
    dataset.write_tsv(&mut written).unwrap();
    assert_eq!(String::from_utf8(written).unwrap(), valid);
    for bad in [
        tsv("-NaN", gamma, "4"),
        tsv("1.5", "-nan", "4"),
        tsv("1.5", gamma, "21"),
        tsv("1.5", gamma, HUGE[0]),
    ] {
        assert!(ParameterDataset::read_tsv(bad.as_bytes()).is_err(), "{bad}");
    }
}
