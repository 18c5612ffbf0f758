//! Totality of the `PREDICT` and `JOB` decoders: every input line is
//! either rejected with an error or decodes to a request that re-encodes
//! and decodes back bit-exactly. No input panics, and nothing accepted
//! breaks the limits a request is sized from (nodes, depth, restarts).
//!
//! Inputs are arbitrary bytes (bare or behind a valid verb prefix) and
//! valid lines that are truncated, bit-flipped, given a duplicated or
//! out-of-range edge, or given a huge count in one numeric field.

use engine::wire::{self, PredictRequest, MAX_PROBLEM_DEPTH, MAX_PROBLEM_NODES, MAX_RESTARTS};
use engine::Job;
use graphs::{generators, Graph};
use proptest::prelude::*;
use proptest::TestCaseError;
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

/// Runs both decoders over `line` (each rejects the other's verb).
fn check_both(line: &str) -> Result<(), TestCaseError> {
    check_predict(line)?;
    check_job(line)
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
        prefix in 0usize..4,
    ) {
        let tail = String::from_utf8_lossy(&bytes);
        let head = ["", "QW1 PREDICT ", "QW1 JOB ", "QW1 PREDICT 1 2 3 4 "][prefix];
        check_both(&format!("{head}{tail}"))?;
    }

    /// Bytes drawn from the wire alphabet, so more of them reach the
    /// numeric and edge parsers.
    #[test]
    fn wire_alphabet_lines_never_panic(
        picks in collection::vec(0usize..16, 0..48),
        prefix in 0usize..2,
    ) {
        const ALPHABET: &[u8] = b"0123456789-,: af";
        let tail: String = picks.iter().map(|&i| char::from(ALPHABET[i])).collect();
        let head = ["QW1 PREDICT ", "QW1 JOB "][prefix];
        check_both(&format!("{head}{tail}"))?;
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
        check_both(&predict)?;
        check_both(&job)?;
    }

    /// Valid lines cut short at any byte (the lines are ASCII).
    #[test]
    fn truncated_lines_are_rejected_or_round_trip(seed in 0u64..u64::MAX, cut in 0usize..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, predict, job) = valid_lines(&mut rng);
        for line in [predict, job] {
            check_both(&line[..cut * line.len() / 10_000])?;
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
        let (_, predict, job) = valid_lines(&mut rng);
        for line in [predict, job] {
            let mut bytes = line.into_bytes();
            let i = at * bytes.len() / 10_000;
            bytes[i] ^= 1 << bit;
            check_both(&String::from_utf8_lossy(&bytes))?;
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

    /// A valid line with one numeric field replaced by a huge (or
    /// negative, or overflowing) count.
    #[test]
    fn huge_counts_are_rejected_or_round_trip(
        seed in 0u64..u64::MAX,
        field in 0usize..4,
        huge in 0usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, predict, job) = valid_lines(&mut rng);
        // PREDICT: id depth restarts n_nodes; JOB: depth restarts n_nodes.
        for (line, first) in [(predict, 2usize), (job, 1)] {
            let mut fields: Vec<&str> = line.split(' ').collect();
            let at = (first + field).min(fields.len() - 2);
            fields[at] = HUGE[huge];
            check_both(&fields.join(" "))?;
        }
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
