//! Versioned, line-delimited wire format for engine jobs and results.
//!
//! One message per line, every line self-identifying:
//!
//! ```text
//! line     := "QW1" SP type SP payload
//! type     := "KEY" | "RECORD" | "JOB" | "OUTCOME" | "REPORT" | "ENTRY"
//!           | "SHARD" | "RANGE" | "DONE" | "RUN" | "ERR"
//!           | "PREDICT" | "PREDICTED"
//! KEY      := n_nodes SP edges               — qaoa::canonical::CanonicalGraphKey
//! RECORD   := graph_id SP depth SP f64 SP f64 SP fc SP floats SP floats
//!                                            — qaoa::datagen::OptimalRecord
//! JOB      := depth SP restarts SP n_nodes SP edges
//!                                            — engine::Job
//! OUTCOME  := floats SP f64 SP f64 SP fc SP gc SP term
//!                                            — qaoa::InstanceOutcome
//! REPORT   := threads SP wall_ns SP fc SP gc SP hits SP misses SP jobstats
//!                                            — engine::BatchReport
//! ENTRY    := restarts SP KEY-payload SP OUTCOME-payload
//!                                            — one persisted cache entry
//! SHARD    := n_graphs SP n_nodes SP edge_p(f64) SP max_depth SP restarts
//!             SP seed SP trend_margin(f64)   — corpus spec opening a shard
//!                                              session (→ DataGenConfig)
//! RANGE    := start SP end                   — half-open global graph-index
//!                                              range tasked to a worker
//! DONE     := start SP end SP cells SP fc    — worker's completion marker
//!                                              for one finished RANGE
//! PREDICT  := id SP depth SP restarts SP n_nodes SP edges
//!                                            — parameter request: answer
//!                                              initialization parameters
//!                                              for this graph at this depth
//! PREDICTED:= id SP tier SP floats           — the answer: tier 1 (cached
//!                                              exact optimum), 2 (model
//!                                              prediction) or 3 (optimized
//!                                              with warm start)
//! RUN      := "-"                            — server flush sentinel
//! ERR      := free text                      — server-side failure notice
//! edges    := "-" | edge ("," edge)*   edge := u "-" v [":" hex64]
//! floats   := "-" | hex64 ("," hex64)*
//! f64      := hex64 (IEEE-754 bits, 16 lowercase hex digits)
//! jobstats := "-" | stat ("," stat)*   stat := wall_ns ":" fc ":" gc ":" ("h"|"m")
//! ```
//!
//! Floats travel as the hex of their IEEE-754 bit pattern, so every
//! round-trip is **bit-exact** — the property that lets a persisted cache
//! preserve the engine's serial == parallel parity guarantee. An omitted
//! edge weight (`u-v` with no `:hex64`) decodes as 1.0, which keeps
//! hand-written job lines readable (see the README's serve example).
//!
//! The vendored `serde` stand-ins are no-op markers (no real
//! serialization), so the codec is hand-rolled here against the stable
//! accessors the data types expose ([`CanonicalGraphKey::edges`],
//! [`Termination::as_token`], public fields elsewhere). Bump [`MAGIC`]
//! whenever any payload changes shape; decoders reject other versions,
//! which the persistence layer ([`crate::persist`]) turns into
//! "discard and regenerate".

use std::fmt::{self, Write as _};
use std::time::Duration;

use graphs::Graph;
use optimize::Termination;
use qaoa::canonical::CanonicalGraphKey;
use qaoa::datagen::{DataGenConfig, OptimalRecord};
use qaoa::InstanceOutcome;

use crate::batch::{BatchReport, Job, JobStats};
use crate::cache::Level1Key;

/// Version tag prefixing every wire line.
pub const MAGIC: &str = "QW1";

/// Largest graph a wire line may name: the simulator's own limit. `JOB`,
/// `PREDICT`, `KEY`, `ENTRY` and `SHARD` lines naming more nodes are
/// refused before any graph or vector is built, so a hostile `n_nodes`
/// cannot drive an allocation; such a graph could never be solved anyway.
/// Depths (`JOB`, `PREDICT`, `SHARD`) above [`MAX_PROBLEM_DEPTH`] and
/// restart counts (`JOB`, `PREDICT`, `SHARD`, `ENTRY`) above
/// [`MAX_RESTARTS`] are refused the same way.
pub use qaoa::{MAX_PROBLEM_DEPTH, MAX_PROBLEM_NODES, MAX_RESTARTS};

/// A malformed or version-mismatched wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description of the first problem found.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire: {}", self.message)
    }
}

impl std::error::Error for WireError {}

// --- scalar helpers --------------------------------------------------------

pub(crate) fn fmt_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

pub(crate) fn parse_f64(s: &str) -> Result<f64, WireError> {
    let bits = u64::from_str_radix(s, 16)
        .map_err(|e| WireError::new(format!("bad f64 bits `{s}`: {e}")))?;
    Ok(f64::from_bits(bits))
}

pub(crate) fn parse_int<T: std::str::FromStr<Err = std::num::ParseIntError>>(
    s: &str,
    what: &str,
) -> Result<T, WireError> {
    s.parse()
        .map_err(|e| WireError::new(format!("bad {what} `{s}`: {e}")))
}

/// Parses an `n_nodes` field, refusing more than [`MAX_PROBLEM_NODES`].
fn parse_n_nodes(s: &str) -> Result<usize, WireError> {
    let n_nodes: usize = parse_int(s, "n_nodes")?;
    check_limit("n_nodes", n_nodes, MAX_PROBLEM_NODES)?;
    Ok(n_nodes)
}

/// Refuses a count above `limit`, before anything is sized from it.
fn check_limit(field: &str, value: usize, limit: usize) -> Result<(), WireError> {
    if value > limit {
        return Err(WireError::new(format!(
            "{field} {value} exceeds the {limit} limit"
        )));
    }
    Ok(())
}

pub(crate) fn fmt_floats(v: &[f64]) -> String {
    if v.is_empty() {
        return "-".into();
    }
    let mut out = String::with_capacity(17 * v.len());
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{:016x}", x.to_bits());
    }
    out
}

pub(crate) fn parse_floats(s: &str) -> Result<Vec<f64>, WireError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',').map(parse_f64).collect()
}

fn fmt_edges(edges: &[(u32, u32, u64)]) -> String {
    if edges.is_empty() {
        return "-".into();
    }
    // Room for two 4-digit endpoints per edge; wider ones grow the string.
    let mut out = String::with_capacity(28 * edges.len());
    for (i, (u, v, bits)) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{u}-{v}:{bits:016x}");
    }
    out
}

/// The `edge` items of an `edges` field (none for `-`).
fn edge_parts(s: &str) -> impl Iterator<Item = &str> {
    (s != "-").then(|| s.split(',')).into_iter().flatten()
}

fn parse_edge(part: &str) -> Result<(u32, u32, u64), WireError> {
    let (endpoints, bits) = match part.split_once(':') {
        Some((e, w)) => (
            e,
            u64::from_str_radix(w, 16)
                .map_err(|e| WireError::new(format!("bad weight in `{part}`: {e}")))?,
        ),
        // Unweighted shorthand for hand-written job lines.
        None => (part, 1.0f64.to_bits()),
    };
    let (u, v) = endpoints
        .split_once('-')
        .ok_or_else(|| WireError::new(format!("bad edge `{part}` (expected u-v)")))?;
    Ok((
        parse_int::<u32>(u, "edge endpoint")?,
        parse_int::<u32>(v, "edge endpoint")?,
        bits,
    ))
}

/// Strips the magic and the expected type token, returning the payload
/// fields.
fn payload<'a>(line: &'a str, expected: &str) -> Result<Vec<&'a str>, WireError> {
    let mut fields = line.split_whitespace();
    match fields.next() {
        Some(MAGIC) => {}
        Some(other) => {
            return Err(WireError::new(format!(
                "unsupported wire version `{other}` (this codec speaks {MAGIC})"
            )))
        }
        None => return Err(WireError::new("empty line")),
    }
    match fields.next() {
        Some(t) if t == expected => {}
        Some(other) => {
            return Err(WireError::new(format!(
                "expected {expected} message, got {other}"
            )))
        }
        None => return Err(WireError::new("missing message type")),
    }
    Ok(fields.collect())
}

fn expect_fields<'a>(
    fields: Vec<&'a str>,
    n: usize,
    what: &str,
) -> Result<Vec<&'a str>, WireError> {
    if fields.len() == n {
        Ok(fields)
    } else {
        Err(WireError::new(format!(
            "{what} payload needs {n} fields, got {}",
            fields.len()
        )))
    }
}

/// The message type token of a line, for dispatch without full decoding.
///
/// # Errors
///
/// Rejects lines whose version tag is not [`MAGIC`].
pub fn message_type(line: &str) -> Result<&str, WireError> {
    let mut fields = line.split_whitespace();
    match fields.next() {
        Some(MAGIC) => {}
        Some(other) => {
            return Err(WireError::new(format!(
                "unsupported wire version `{other}` (this codec speaks {MAGIC})"
            )))
        }
        None => return Err(WireError::new("empty line")),
    }
    fields
        .next()
        .ok_or_else(|| WireError::new("missing message type"))
}

// --- KEY -------------------------------------------------------------------

/// Encodes a canonical graph key as one `KEY` line.
#[must_use]
pub fn encode_key(key: &CanonicalGraphKey) -> String {
    format!("{MAGIC} KEY {}", key_payload(key))
}

fn key_payload(key: &CanonicalGraphKey) -> String {
    format!("{} {}", key.n_nodes(), fmt_edges(key.edges()))
}

/// Decodes a `KEY` line.
///
/// # Errors
///
/// Rejects malformed lines and edge lists violating the canonical-key
/// invariants (see [`CanonicalGraphKey::from_parts`]).
pub fn decode_key(line: &str) -> Result<CanonicalGraphKey, WireError> {
    let fields = expect_fields(payload(line, "KEY")?, 2, "KEY")?;
    key_from_fields(&fields)
}

fn key_from_fields(fields: &[&str]) -> Result<CanonicalGraphKey, WireError> {
    let n_nodes = parse_n_nodes(fields[0])?;
    let edges = edge_parts(fields[1])
        .map(parse_edge)
        .collect::<Result<_, _>>()?;
    CanonicalGraphKey::from_parts(n_nodes, edges).map_err(WireError::new)
}

// --- RECORD ----------------------------------------------------------------

/// Encodes a corpus record as one `RECORD` line.
#[must_use]
pub fn encode_record(record: &OptimalRecord) -> String {
    format!(
        "{MAGIC} RECORD {} {} {} {} {} {} {}",
        record.graph_id,
        record.depth,
        fmt_f64(record.expectation),
        fmt_f64(record.approximation_ratio),
        record.function_calls,
        fmt_floats(&record.gammas),
        fmt_floats(&record.betas),
    )
}

/// Decodes a `RECORD` line.
///
/// # Errors
///
/// Rejects malformed lines.
pub fn decode_record(line: &str) -> Result<OptimalRecord, WireError> {
    let f = expect_fields(payload(line, "RECORD")?, 7, "RECORD")?;
    Ok(OptimalRecord {
        graph_id: parse_int(f[0], "graph_id")?,
        depth: parse_int(f[1], "depth")?,
        expectation: parse_f64(f[2])?,
        approximation_ratio: parse_f64(f[3])?,
        function_calls: parse_int(f[4], "function_calls")?,
        gammas: parse_floats(f[5])?,
        betas: parse_floats(f[6])?,
    })
}

// --- JOB -------------------------------------------------------------------

/// Encodes a batch job as one `JOB` line.
///
/// # Errors
///
/// Rejects a graph whose node indices overflow the wire format's `u32`
/// endpoint domain (the format caps registers far beyond anything a
/// statevector can simulate, so this only fires on corrupt input).
pub fn encode_job(job: &Job) -> Result<String, WireError> {
    Ok(format!(
        "{MAGIC} JOB {} {} {} {}",
        job.depth,
        job.restarts,
        job.graph.n_nodes(),
        fmt_edges(&graph_wire_edges(&job.graph)?),
    ))
}

/// A graph's edges in the wire `(u32, u32, weight bits)` domain.
///
/// # Errors
///
/// Rejects node indices overflowing the wire format's `u32` endpoint domain
/// (the format caps registers far beyond anything a statevector can
/// simulate, so this only fires on corrupt input).
fn graph_wire_edges(graph: &Graph) -> Result<Vec<(u32, u32, u64)>, WireError> {
    let mut edges = Vec::with_capacity(graph.edges().len());
    for e in graph.edges() {
        let u = u32::try_from(e.u)
            .map_err(|_| WireError::new(format!("edge endpoint {} overflows u32", e.u)))?;
        let v = u32::try_from(e.v)
            .map_err(|_| WireError::new(format!("edge endpoint {} overflows u32", e.v)))?;
        edges.push((u, v, e.weight.to_bits()));
    }
    Ok(edges)
}

/// A wire `u32` endpoint in the `Graph` index domain. Infallible on every
/// target of 32 bits or more; checked anyway so a narrower port fails
/// loudly instead of aliasing vertices.
fn endpoint(x: u32) -> Result<usize, WireError> {
    usize::try_from(x).map_err(|_| WireError::new(format!("edge endpoint {x} overflows usize")))
}

/// Decodes a `JOB` line, validating it is *executable*: depth and restarts
/// at least 1, at least 2 nodes and 1 edge (the QAOA objective needs a
/// non-empty graph). Catching these at decode time lets the server answer
/// per line instead of failing a whole batch mid-run.
///
/// # Errors
///
/// Rejects malformed or non-executable jobs.
pub fn decode_job(line: &str) -> Result<Job, WireError> {
    let f = expect_fields(payload(line, "JOB")?, 4, "JOB")?;
    let depth: usize = parse_int(f[0], "depth")?;
    let restarts: usize = parse_int(f[1], "restarts")?;
    if depth == 0 || restarts == 0 {
        return Err(WireError::new("JOB needs depth >= 1 and restarts >= 1"));
    }
    check_limit("JOB depth", depth, MAX_PROBLEM_DEPTH)?;
    check_limit("JOB restarts", restarts, MAX_RESTARTS)?;
    let graph = executable_graph(f[2], f[3], "JOB")?;
    Ok(Job::new(graph, depth, restarts))
}

/// Decodes `n_nodes` + `edges` payload fields into an *executable* graph:
/// 2 to [`MAX_PROBLEM_NODES`] nodes and at least 1 edge (the QAOA
/// objective needs a non-empty graph), finite weights, no duplicate
/// edges. Shared by `JOB` and `PREDICT` so both verbs accept exactly the
/// same graphs.
///
/// One pass parses each edge straight into the graph. The checks keep
/// their precedence: a malformed edge anywhere in the list outranks the
/// size check, which outranks the first rejected edge, so that edge's
/// error waits until the whole list has parsed.
fn executable_graph(n_nodes: &str, edges: &str, what: &str) -> Result<Graph, WireError> {
    let n_nodes = parse_n_nodes(n_nodes)?;
    let mut graph = Graph::new(n_nodes);
    let mut n_edges = 0usize;
    let mut rejected = None;
    for part in edge_parts(edges) {
        let (u, v, bits) = parse_edge(part)?;
        n_edges += 1;
        if rejected.is_none() {
            rejected = add_wire_edge(&mut graph, u, v, bits).err();
        }
    }
    if n_nodes < 2 || n_edges == 0 {
        return Err(WireError::new(format!(
            "{what} needs >= 2 nodes and >= 1 edge"
        )));
    }
    match rejected {
        Some(e) => Err(e),
        None => Ok(graph),
    }
}

/// Adds one wire edge to `graph`, rejecting a non-finite weight, an
/// endpoint out of range, a self-loop and a duplicate pair.
fn add_wire_edge(graph: &mut Graph, u: u32, v: u32, bits: u64) -> Result<(), WireError> {
    let weight = f64::from_bits(bits);
    if !weight.is_finite() {
        return Err(WireError::new(format!("edge {u}-{v}: non-finite weight")));
    }
    let before = graph.n_edges();
    graph
        .add_weighted_edge(endpoint(u)?, endpoint(v)?, weight)
        .map_err(|e| WireError::new(format!("edge {u}-{v}: {e}")))?;
    // `Graph::add_weighted_edge` keeps the first occurrence of a duplicate
    // pair and drops the rest without erroring (the edge count does not
    // grow); a line that names an edge twice must be rejected here, not
    // answered with a confidently wrong outcome for a different graph.
    if graph.n_edges() == before {
        return Err(WireError::new(format!("edge {u}-{v}: duplicate edge")));
    }
    Ok(())
}

// --- PREDICT / PREDICTED ---------------------------------------------------

/// A parameter request: answer initialization parameters for `graph` at
/// `depth` without the client caring which tier produces them. `restarts`
/// scopes the depth-1 landscape the answer derives from (it selects the
/// [`Level1Key`] cache entry and seeds a tier-3 fallback solve).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Client-chosen correlation id, echoed on the answer line.
    pub id: u64,
    /// Target circuit depth `p` (the answer carries `2·p` parameters).
    pub depth: usize,
    /// Multistart budget scoping the underlying depth-1 optimum.
    pub restarts: usize,
    /// The MaxCut instance to parameterize.
    pub graph: Graph,
}

/// Which path produced a `PREDICTED` answer; lower tiers are cheaper and
/// exact-er.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AnswerTier {
    /// Depth-1 request whose canonical class was already solved: the cached
    /// exact optimum.
    CachedExact,
    /// The trained model's prediction, seeded from the class's cached
    /// depth-1 optimum.
    Model,
    /// No usable cache entry: the optimizer ran (warm-started) and its
    /// optimum is answered.
    WarmStart,
}

impl AnswerTier {
    /// The tier's wire token (`1`, `2`, `3`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            AnswerTier::CachedExact => "1",
            AnswerTier::Model => "2",
            AnswerTier::WarmStart => "3",
        }
    }

    /// The inverse of [`AnswerTier::token`].
    #[must_use]
    pub fn from_token(s: &str) -> Option<AnswerTier> {
        match s {
            "1" => Some(AnswerTier::CachedExact),
            "2" => Some(AnswerTier::Model),
            "3" => Some(AnswerTier::WarmStart),
            _ => None,
        }
    }
}

impl fmt::Display for AnswerTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnswerTier::CachedExact => f.write_str("tier 1 (cached exact)"),
            AnswerTier::Model => f.write_str("tier 2 (model)"),
            AnswerTier::WarmStart => f.write_str("tier 3 (warm-start)"),
        }
    }
}

/// A `PREDICTED` answer line: the request id, the tier that produced the
/// answer, and the `[γ₁…γ_p, β₁…β_p]` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicted {
    /// The request's correlation id.
    pub id: u64,
    /// Which tier answered.
    pub tier: AnswerTier,
    /// The answered parameters, `[γ₁…γ_p, β₁…β_p]`.
    pub params: Vec<f64>,
}

/// Encodes a parameter request as one `PREDICT` line.
///
/// # Errors
///
/// Rejects a graph whose node indices overflow the wire `u32` endpoint
/// domain (see [`encode_job`]).
pub fn encode_predict(request: &PredictRequest) -> Result<String, WireError> {
    Ok(format!(
        "{MAGIC} PREDICT {} {} {} {} {}",
        request.id,
        request.depth,
        request.restarts,
        request.graph.n_nodes(),
        fmt_edges(&graph_wire_edges(&request.graph)?),
    ))
}

/// Decodes a `PREDICT` line, validating it is answerable (same graph rules
/// as [`decode_job`], depth and restarts at least 1).
///
/// # Errors
///
/// Rejects malformed or unanswerable requests.
pub fn decode_predict(line: &str) -> Result<PredictRequest, WireError> {
    let f = expect_fields(payload(line, "PREDICT")?, 5, "PREDICT")?;
    let id: u64 = parse_int(f[0], "request id")?;
    let depth: usize = parse_int(f[1], "depth")?;
    let restarts: usize = parse_int(f[2], "restarts")?;
    if depth == 0 || restarts == 0 {
        return Err(WireError::new("PREDICT needs depth >= 1 and restarts >= 1"));
    }
    check_limit("PREDICT depth", depth, MAX_PROBLEM_DEPTH)?;
    check_limit("PREDICT restarts", restarts, MAX_RESTARTS)?;
    let graph = executable_graph(f[3], f[4], "PREDICT")?;
    Ok(PredictRequest {
        id,
        depth,
        restarts,
        graph,
    })
}

/// Encodes a `PREDICTED` answer line.
#[must_use]
pub fn encode_predicted(answer: &Predicted) -> String {
    format!(
        "{MAGIC} PREDICTED {} {} {}",
        answer.id,
        answer.tier.token(),
        fmt_floats(&answer.params),
    )
}

/// Decodes a `PREDICTED` line.
///
/// # Errors
///
/// Rejects malformed lines, unknown tiers, and empty parameter lists (every
/// answer carries `2·p ≥ 2` parameters).
pub fn decode_predicted(line: &str) -> Result<Predicted, WireError> {
    let f = expect_fields(payload(line, "PREDICTED")?, 3, "PREDICTED")?;
    let id: u64 = parse_int(f[0], "request id")?;
    let tier = AnswerTier::from_token(f[1])
        .ok_or_else(|| WireError::new(format!("unknown answer tier `{}`", f[1])))?;
    let params = parse_floats(f[2])?;
    if params.is_empty() {
        return Err(WireError::new("PREDICTED carries no parameters"));
    }
    Ok(Predicted { id, tier, params })
}

// --- OUTCOME ---------------------------------------------------------------

/// Encodes an instance outcome as one `OUTCOME` line.
#[must_use]
pub fn encode_outcome(outcome: &InstanceOutcome) -> String {
    format!("{MAGIC} OUTCOME {}", outcome_payload(outcome))
}

/// The `OUTCOME` payload fields, shared by [`encode_outcome`] and
/// [`encode_entry`] (which embeds them after its own key fields) so the
/// two lines can never drift apart.
fn outcome_payload(outcome: &InstanceOutcome) -> String {
    format!(
        "{} {} {} {} {} {}",
        fmt_floats(&outcome.params),
        fmt_f64(outcome.expectation),
        fmt_f64(outcome.approximation_ratio),
        outcome.function_calls,
        outcome.gradient_calls,
        outcome.termination.as_token(),
    )
}

/// Decodes an `OUTCOME` line.
///
/// # Errors
///
/// Rejects malformed lines and unknown termination tokens.
pub fn decode_outcome(line: &str) -> Result<InstanceOutcome, WireError> {
    let f = expect_fields(payload(line, "OUTCOME")?, 6, "OUTCOME")?;
    outcome_from_fields(&f)
}

fn outcome_from_fields(f: &[&str]) -> Result<InstanceOutcome, WireError> {
    Ok(InstanceOutcome {
        params: parse_floats(f[0])?,
        expectation: parse_f64(f[1])?,
        approximation_ratio: parse_f64(f[2])?,
        function_calls: parse_int(f[3], "function_calls")?,
        gradient_calls: parse_int(f[4], "gradient_calls")?,
        termination: Termination::from_token(f[5])
            .ok_or_else(|| WireError::new(format!("unknown termination `{}`", f[5])))?,
    })
}

// --- REPORT ----------------------------------------------------------------

/// Encodes a batch report as one `REPORT` line.
#[must_use]
pub fn encode_report(report: &BatchReport) -> String {
    let stats: Vec<String> = report
        .jobs
        .iter()
        .map(|j| {
            format!(
                "{}:{}:{}:{}",
                j.wall.as_nanos(),
                j.function_calls,
                j.gradient_calls,
                if j.cache_hit { 'h' } else { 'm' },
            )
        })
        .collect();
    format!(
        "{MAGIC} REPORT {} {} {} {} {} {} {}",
        report.threads,
        report.wall.as_nanos(),
        report.total_function_calls,
        report.total_gradient_calls,
        report.cache_hits,
        report.cache_misses,
        if stats.is_empty() {
            "-".into()
        } else {
            stats.join(",")
        },
    )
}

/// Decodes a `REPORT` line.
///
/// # Errors
///
/// Rejects malformed lines.
pub fn decode_report(line: &str) -> Result<BatchReport, WireError> {
    let f = expect_fields(payload(line, "REPORT")?, 7, "REPORT")?;
    let jobs = if f[6] == "-" {
        Vec::new()
    } else {
        f[6].split(',')
            .map(|stat| {
                let parts: Vec<&str> = stat.split(':').collect();
                if parts.len() != 4 {
                    return Err(WireError::new(format!("bad job stat `{stat}`")));
                }
                Ok(JobStats {
                    wall: Duration::from_nanos(parse_int(parts[0], "job wall")?),
                    function_calls: parse_int(parts[1], "job fc")?,
                    gradient_calls: parse_int(parts[2], "job gc")?,
                    cache_hit: match parts[3] {
                        "h" => true,
                        "m" => false,
                        other => return Err(WireError::new(format!("bad cache flag `{other}`"))),
                    },
                })
            })
            .collect::<Result<_, _>>()?
    };
    Ok(BatchReport {
        threads: parse_int(f[0], "threads")?,
        wall: Duration::from_nanos(parse_int(f[1], "wall")?),
        total_function_calls: parse_int(f[2], "total fc")?,
        total_gradient_calls: parse_int(f[3], "total gc")?,
        cache_hits: parse_int(f[4], "cache hits")?,
        cache_misses: parse_int(f[5], "cache misses")?,
        jobs,
    })
}

// --- RUN / ERR -------------------------------------------------------------

/// The server's batch-flush sentinel line.
#[must_use]
pub fn encode_run() -> String {
    format!("{MAGIC} RUN -")
}

/// Encodes a server-side failure notice. Newlines in `message` are
/// flattened so the line stays one line.
#[must_use]
pub fn encode_err(message: &str) -> String {
    format!("{MAGIC} ERR {}", message.replace(['\n', '\r'], " "))
}

// --- cache entries ---------------------------------------------------------

/// Encodes one persisted cache entry — a [`Level1Key`] (canonical class
/// plus the restarts count the solve drew) and its finished depth-1
/// optimum — as one `ENTRY`-typed line
/// (`restarts` ++ `KEY` payload ++ `OUTCOME` payload). Carrying `restarts`
/// per entry lets one cache file serve runs and job-server sessions that
/// mix restart counts without conflating their (restart-dependent) optima.
#[must_use]
pub fn encode_entry(key: &Level1Key, outcome: &InstanceOutcome) -> String {
    format!(
        "{MAGIC} ENTRY {} {} {}",
        key.restarts,
        key_payload(&key.class),
        outcome_payload(outcome)
    )
}

/// Decodes an `ENTRY` line.
///
/// # Errors
///
/// Rejects malformed lines, including a restarts count of 0 (no solve ever
/// runs with zero restarts, so such an entry could never be served).
pub fn decode_entry(line: &str) -> Result<(Level1Key, InstanceOutcome), WireError> {
    let f = expect_fields(payload(line, "ENTRY")?, 9, "ENTRY")?;
    let restarts: usize = parse_int(f[0], "restarts")?;
    if restarts == 0 {
        return Err(WireError::new("ENTRY needs restarts >= 1"));
    }
    check_limit("ENTRY restarts", restarts, MAX_RESTARTS)?;
    let class = key_from_fields(&f[1..3])?;
    let outcome = outcome_from_fields(&f[3..])?;
    Ok((Level1Key::new(class, restarts), outcome))
}

// --- SHARD / RANGE / DONE --------------------------------------------------

/// Encodes a corpus specification as one `SHARD` line — the message a shard
/// coordinator opens a worker session with.
///
/// Only the numeric fields of [`DataGenConfig`] travel; optimizer `options`
/// are not wire-encoded and always decode to `Options::default()`, which is
/// what every driver in this repository runs with. A coordinator using
/// non-default options must not expect wire workers to reproduce its bits.
#[must_use]
pub fn encode_shard(config: &DataGenConfig) -> String {
    format!(
        "{MAGIC} SHARD {} {} {} {} {} {} {}",
        config.n_graphs,
        config.n_nodes,
        fmt_f64(config.edge_probability),
        config.max_depth,
        config.restarts,
        config.seed,
        fmt_f64(config.trend_preference_margin),
    )
}

/// Largest ensemble a `SHARD` line may declare. A worker materializes the
/// full ensemble when it opens a session, so an unbounded `n_graphs` would
/// let one client line drive an arbitrarily large allocation (a
/// `usize::MAX` count overflows `Vec` capacity outright). The ceiling is
/// ~3000× the paper's 330-graph corpus — far beyond any realistic run —
/// while keeping a hostile or corrupted line answerable with `ERR`.
pub const MAX_SHARD_GRAPHS: usize = 1_000_000;

/// Decodes a `SHARD` line into a [`DataGenConfig`] (with default optimizer
/// options — see [`encode_shard`]).
///
/// # Errors
///
/// Rejects malformed lines and specs no corpus run could execute:
/// `n_nodes` outside `2..=`[`MAX_PROBLEM_NODES`], zero `max_depth` or
/// `restarts`, an edge probability outside `(0, 1]` or non-finite (the
/// ensemble draws *non-empty* graphs, which `p = 0` can never produce —
/// the generator would retry forever), a non-finite/negative trend margin,
/// or an ensemble larger than [`MAX_SHARD_GRAPHS`].
pub fn decode_shard(line: &str) -> Result<DataGenConfig, WireError> {
    let f = expect_fields(payload(line, "SHARD")?, 7, "SHARD")?;
    let n_graphs: usize = parse_int(f[0], "n_graphs")?;
    check_limit("SHARD n_graphs", n_graphs, MAX_SHARD_GRAPHS)?;
    let n_nodes = parse_n_nodes(f[1])?;
    let edge_probability = parse_f64(f[2])?;
    let max_depth: usize = parse_int(f[3], "max_depth")?;
    let restarts: usize = parse_int(f[4], "restarts")?;
    let seed: u64 = parse_int(f[5], "seed")?;
    let trend_preference_margin = parse_f64(f[6])?;
    if n_nodes < 2 {
        return Err(WireError::new("SHARD needs n_nodes >= 2"));
    }
    if max_depth == 0 || restarts == 0 {
        return Err(WireError::new(
            "SHARD needs max_depth >= 1 and restarts >= 1",
        ));
    }
    check_limit("SHARD max_depth", max_depth, MAX_PROBLEM_DEPTH)?;
    check_limit("SHARD restarts", restarts, MAX_RESTARTS)?;
    // p = 0 is excluded because the ensemble draws non-empty graphs: the
    // generator would reject the empty graph and retry forever.
    if !(edge_probability > 0.0 && edge_probability <= 1.0) {
        return Err(WireError::new(
            "SHARD edge probability must be finite in (0, 1]",
        ));
    }
    if !trend_preference_margin.is_finite() || trend_preference_margin < 0.0 {
        return Err(WireError::new(
            "SHARD trend margin must be finite and non-negative",
        ));
    }
    Ok(DataGenConfig {
        n_graphs,
        n_nodes,
        edge_probability,
        max_depth,
        restarts,
        seed,
        options: Default::default(),
        trend_preference_margin,
    })
}

/// Encodes one half-open global graph-index range as a `RANGE` line — the
/// coordinator's "generate these corpus cells" task.
#[must_use]
pub fn encode_range(range: &std::ops::Range<usize>) -> String {
    format!("{MAGIC} RANGE {} {}", range.start, range.end)
}

/// Decodes a `RANGE` line.
///
/// # Errors
///
/// Rejects malformed lines and inverted ranges (`start > end`). Whether the
/// range fits the session's ensemble is a *contextual* check the server
/// makes against its current `SHARD` spec.
pub fn decode_range(line: &str) -> Result<std::ops::Range<usize>, WireError> {
    let f = expect_fields(payload(line, "RANGE")?, 2, "RANGE")?;
    let start: usize = parse_int(f[0], "range start")?;
    let end: usize = parse_int(f[1], "range end")?;
    if start > end {
        return Err(WireError::new(format!(
            "RANGE {start}..{end} is inverted (start must not exceed end)"
        )));
    }
    Ok(start..end)
}

/// A worker's completion marker for one finished `RANGE`: the range it
/// covered plus the `(graph, depth)` cell count and total function calls
/// spent, so the coordinator can account per-shard cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeDone {
    /// The half-open global graph-index range that finished.
    pub range: std::ops::Range<usize>,
    /// `(graph, depth)` cells solved (or served from cache).
    pub cells: usize,
    /// Total function calls across the range's records.
    pub function_calls: usize,
}

/// Encodes a worker's `DONE` line.
#[must_use]
pub fn encode_done(done: &RangeDone) -> String {
    format!(
        "{MAGIC} DONE {} {} {} {}",
        done.range.start, done.range.end, done.cells, done.function_calls,
    )
}

/// Decodes a `DONE` line.
///
/// # Errors
///
/// Rejects malformed lines and inverted ranges.
pub fn decode_done(line: &str) -> Result<RangeDone, WireError> {
    let f = expect_fields(payload(line, "DONE")?, 4, "DONE")?;
    let start: usize = parse_int(f[0], "range start")?;
    let end: usize = parse_int(f[1], "range end")?;
    if start > end {
        return Err(WireError::new(format!("DONE {start}..{end} is inverted")));
    }
    Ok(RangeDone {
        range: start..end,
        cells: parse_int(f[2], "cells")?,
        function_calls: parse_int(f[3], "function_calls")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use qaoa::canonical::graph_key;

    fn sample_outcome() -> InstanceOutcome {
        InstanceOutcome {
            params: vec![0.25, -1.5e-300, std::f64::consts::PI],
            expectation: 3.75,
            approximation_ratio: 0.9375,
            function_calls: 42,
            gradient_calls: 7,
            termination: Termination::GtolSatisfied,
        }
    }

    #[test]
    fn key_round_trip() {
        let key = graph_key(&generators::cycle(6));
        let line = encode_key(&key);
        assert!(line.starts_with("QW1 KEY "));
        assert_eq!(decode_key(&line).unwrap(), key);
    }

    #[test]
    fn outcome_round_trip_is_bit_exact() {
        let outcome = sample_outcome();
        let back = decode_outcome(&encode_outcome(&outcome)).unwrap();
        assert_eq!(back.params.len(), outcome.params.len());
        for (a, b) in outcome.params.iter().zip(&back.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.expectation.to_bits(), outcome.expectation.to_bits());
        assert_eq!(back.termination, outcome.termination);
    }

    #[test]
    fn job_round_trip_and_unweighted_shorthand() {
        let job = Job::new(generators::cycle(5), 2, 3);
        let line = encode_job(&job).expect("encode");
        let back = decode_job(&line).unwrap();
        assert_eq!(back.depth, 2);
        assert_eq!(back.restarts, 3);
        assert_eq!(back.graph, job.graph);
        // Hand-written form: weights default to 1.0.
        let short = decode_job("QW1 JOB 1 2 3 0-1,1-2").unwrap();
        assert_eq!(short.graph.edges()[0].weight, 1.0);
        // Re-encoding writes explicit weights; the round trip still holds.
        let reencoded = encode_job(&short).expect("encode");
        assert!(reencoded.contains(':'));
        assert_eq!(decode_job(&reencoded).unwrap().graph, short.graph);
    }

    #[test]
    fn job_decode_rejects_non_executable() {
        assert!(decode_job("QW1 JOB 0 2 3 0-1").is_err());
        assert!(decode_job("QW1 JOB 1 0 3 0-1").is_err());
        assert!(decode_job("QW1 JOB 1 2 3 -").is_err());
        assert!(decode_job("QW1 JOB 1 2 1 0-1").is_err());
        assert!(decode_job("QW1 JOB 1 2 3 0-9").is_err());
        assert!(decode_job(&format!("QW1 JOB 1 2 3 0-1:{:016x}", f64::NAN.to_bits())).is_err());
        // Duplicate edges (in either orientation, any weights) are rejected
        // rather than silently collapsed to the first occurrence.
        assert!(decode_job("QW1 JOB 1 2 3 0-1,0-1,1-2").is_err());
        let dup = format!(
            "QW1 JOB 1 2 3 0-1:{:016x},1-0:{:016x}",
            2.0f64.to_bits(),
            3.0f64.to_bits()
        );
        assert!(decode_job(&dup).is_err());
    }

    #[test]
    fn predict_round_trip_and_validation() {
        let request = PredictRequest {
            id: 7,
            depth: 4,
            restarts: 3,
            graph: generators::cycle(5),
        };
        let line = encode_predict(&request).unwrap();
        assert!(line.starts_with("QW1 PREDICT 7 "));
        assert_eq!(decode_predict(&line).unwrap(), request);
        // Unweighted shorthand works like JOB's.
        let short = decode_predict("QW1 PREDICT 0 2 1 3 0-1,1-2").unwrap();
        assert_eq!(short.graph.edges()[0].weight, 1.0);
        // Same executability rules as JOB.
        assert!(
            decode_predict("QW1 PREDICT 0 0 1 3 0-1").is_err(),
            "depth 0"
        );
        assert!(
            decode_predict("QW1 PREDICT 0 1 0 3 0-1").is_err(),
            "restarts 0"
        );
        assert!(decode_predict("QW1 PREDICT 0 1 1 3 -").is_err(), "no edges");
        assert!(
            decode_predict("QW1 PREDICT 0 1 1 3 0-1,0-1").is_err(),
            "dup edge"
        );
        assert!(
            decode_predict("QW1 PREDICT 0 1 1 3 0-9").is_err(),
            "bad endpoint"
        );
    }

    #[test]
    fn predicted_round_trip_is_bit_exact() {
        let answer = Predicted {
            id: 12,
            tier: AnswerTier::Model,
            params: vec![0.25, -1.5e-300, std::f64::consts::PI, 0.5],
        };
        let line = encode_predicted(&answer);
        let back = decode_predicted(&line).unwrap();
        assert_eq!(back.id, 12);
        assert_eq!(back.tier, AnswerTier::Model);
        for (a, b) in answer.params.iter().zip(&back.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for tier in [
            AnswerTier::CachedExact,
            AnswerTier::Model,
            AnswerTier::WarmStart,
        ] {
            assert_eq!(AnswerTier::from_token(tier.token()), Some(tier));
        }
        assert!(
            decode_predicted("QW1 PREDICTED 1 4 deadbeefdeadbeef").is_err(),
            "bad tier"
        );
        assert!(
            decode_predicted("QW1 PREDICTED 1 2 -").is_err(),
            "no params"
        );
    }

    #[test]
    fn record_round_trip() {
        let record = OptimalRecord {
            graph_id: 12,
            depth: 3,
            gammas: vec![1.0, 2.0, 3.0],
            betas: vec![0.1, 0.2, 0.3],
            expectation: 5.5,
            approximation_ratio: 0.99,
            function_calls: 321,
        };
        let back = decode_record(&encode_record(&record)).unwrap();
        assert_eq!(back.graph_id, 12);
        assert_eq!(back.gammas, record.gammas);
        assert_eq!(back.betas, record.betas);
        assert_eq!(back.function_calls, 321);
    }

    #[test]
    fn report_round_trip() {
        let report = BatchReport {
            jobs: vec![
                JobStats {
                    wall: Duration::from_nanos(1234),
                    function_calls: 10,
                    gradient_calls: 2,
                    cache_hit: true,
                },
                JobStats {
                    wall: Duration::from_micros(9),
                    function_calls: 20,
                    gradient_calls: 0,
                    cache_hit: false,
                },
            ],
            wall: Duration::from_millis(3),
            threads: 4,
            total_function_calls: 30,
            total_gradient_calls: 2,
            cache_hits: 1,
            cache_misses: 1,
        };
        let back = decode_report(&encode_report(&report)).unwrap();
        assert_eq!(back.threads, 4);
        assert_eq!(back.wall, report.wall);
        assert_eq!(back.jobs.len(), 2);
        assert!(back.jobs[0].cache_hit);
        assert_eq!(back.jobs[1].function_calls, 20);
        // Empty report encodes the "-" placeholder.
        let empty = BatchReport {
            jobs: vec![],
            wall: Duration::ZERO,
            threads: 1,
            total_function_calls: 0,
            total_gradient_calls: 0,
            cache_hits: 0,
            cache_misses: 0,
        };
        assert!(decode_report(&encode_report(&empty))
            .unwrap()
            .jobs
            .is_empty());
    }

    #[test]
    fn entry_round_trip() {
        let key = Level1Key::new(graph_key(&generators::path(4)), 3);
        let outcome = sample_outcome();
        let (k, o) = decode_entry(&encode_entry(&key, &outcome)).unwrap();
        assert_eq!(k, key);
        assert_eq!(k.restarts, 3);
        assert_eq!(o.expectation.to_bits(), outcome.expectation.to_bits());
        // A restarts-less (pre-restarts-keyed) entry or restarts=0 is
        // malformed, not silently accepted under a default.
        let line = encode_entry(&key, &outcome);
        let old_format = line.replacen("ENTRY 3 ", "ENTRY ", 1);
        assert!(decode_entry(&old_format).is_err());
        let zero = line.replacen("ENTRY 3 ", "ENTRY 0 ", 1);
        assert!(decode_entry(&zero).is_err());
    }

    #[test]
    fn every_graph_verb_caps_n_nodes_at_the_problem_limit() {
        let entry = encode_entry(
            &Level1Key::new(graph_key(&generators::path(4)), 3),
            &sample_outcome(),
        );
        let shard = encode_shard(&DataGenConfig::quick());
        let shard_fields: Vec<&str> = shard.split(' ').collect();
        let lines = |n: usize| {
            let mut with_n = shard_fields.clone();
            let n_text = n.to_string();
            with_n[3] = &n_text;
            [
                (decode_job(&format!("QW1 JOB 1 2 {n} 0-1")).is_ok(), "JOB"),
                (
                    decode_predict(&format!("QW1 PREDICT 1 1 2 {n} 0-1")).is_ok(),
                    "PREDICT",
                ),
                (decode_key(&format!("QW1 KEY {n} 0-1")).is_ok(), "KEY"),
                (
                    decode_entry(&entry.replacen("ENTRY 3 4 ", &format!("ENTRY 3 {n} "), 1))
                        .is_ok(),
                    "ENTRY",
                ),
                (decode_shard(&with_n.join(" ")).is_ok(), "SHARD"),
            ]
        };
        for (ok, verb) in lines(MAX_PROBLEM_NODES) {
            assert!(ok, "{verb} at the limit");
        }
        for n in [MAX_PROBLEM_NODES + 1, 100_000_000_000_000] {
            for (ok, verb) in lines(n) {
                assert!(!ok, "{verb} with {n} nodes");
            }
        }
    }

    #[test]
    fn every_verb_caps_depth_and_restarts() {
        // Regression: a 10^17-depth JOB once aborted the server on a
        // 1.6·10^18-byte bounds allocation, and 10^17 restarts hung it.
        let entry = encode_entry(
            &Level1Key::new(graph_key(&generators::path(4)), 3),
            &sample_outcome(),
        );
        let shard = encode_shard(&DataGenConfig::quick());
        let shard_with = |depth: usize, restarts: usize| {
            let mut fields: Vec<String> = shard.split(' ').map(str::to_string).collect();
            fields[5] = depth.to_string();
            fields[6] = restarts.to_string();
            fields.join(" ")
        };
        let lines = |depth: usize, restarts: usize| {
            [
                (
                    decode_job(&format!("QW1 JOB {depth} {restarts} 3 0-1")).is_ok(),
                    "JOB",
                ),
                (
                    decode_predict(&format!("QW1 PREDICT 1 {depth} {restarts} 3 0-1")).is_ok(),
                    "PREDICT",
                ),
                (decode_shard(&shard_with(depth, restarts)).is_ok(), "SHARD"),
                (
                    decode_entry(&entry.replacen("ENTRY 3 ", &format!("ENTRY {restarts} "), 1))
                        .is_ok(),
                    "ENTRY",
                ),
            ]
        };
        for (ok, verb) in lines(MAX_PROBLEM_DEPTH, MAX_RESTARTS) {
            assert!(ok, "{verb} at the limits");
        }
        for depth in [MAX_PROBLEM_DEPTH + 1, 100_000_000_000_000_000] {
            // ENTRY carries no depth.
            for (ok, verb) in &lines(depth, 1)[..3] {
                assert!(!ok, "{verb} at depth {depth}");
            }
        }
        for restarts in [MAX_RESTARTS + 1, 100_000_000_000_000_000] {
            for (ok, verb) in lines(1, restarts) {
                assert!(!ok, "{verb} with {restarts} restarts");
            }
        }
        let err = decode_job("QW1 JOB 100000000000000000 1 4 0-1,1-2,2-3,3-0").unwrap_err();
        assert_eq!(
            err.message,
            format!("JOB depth 100000000000000000 exceeds the {MAX_PROBLEM_DEPTH} limit")
        );
    }

    #[test]
    fn executable_graph_keeps_its_error_precedence() {
        // A malformed edge anywhere outranks the size check, which
        // outranks the first rejected edge, as when the edge list was
        // parsed whole before the graph was built.
        let message = |line: &str| decode_job(line).unwrap_err().message;
        assert_eq!(
            message("QW1 JOB 1 1 3 0-9,0-1,x"),
            "bad edge `x` (expected u-v)"
        );
        assert_eq!(
            message("QW1 JOB 1 1 1 0-0,0-1"),
            "JOB needs >= 2 nodes and >= 1 edge"
        );
        assert_eq!(
            message("QW1 JOB 1 1 3 0-1,1-0,0-9"),
            "edge 1-0: duplicate edge"
        );
        assert!(message("QW1 JOB 1 1 3 0-9,0-1,0-1").starts_with("edge 0-9: "));
        assert!(message("QW1 JOB 1 1 3 1-1,0-1").starts_with("edge 1-1: "));
        let nan = format!("QW1 JOB 1 1 3 0-1,0-1:{:016x}", f64::NAN.to_bits());
        assert_eq!(message(&nan), "edge 0-1: non-finite weight");
    }

    #[test]
    fn shard_round_trip_is_bit_exact() {
        let config = DataGenConfig {
            n_graphs: 24,
            n_nodes: 6,
            edge_probability: 0.5,
            max_depth: 4,
            restarts: 3,
            seed: u64::MAX,
            options: Default::default(),
            trend_preference_margin: 1e-3,
        };
        let back = decode_shard(&encode_shard(&config)).unwrap();
        assert_eq!(back, config);
        assert_eq!(
            back.edge_probability.to_bits(),
            config.edge_probability.to_bits()
        );
    }

    #[test]
    fn shard_decode_rejects_non_executable_specs() {
        let good = encode_shard(&DataGenConfig::quick());
        assert!(decode_shard(&good).is_ok());
        // n_nodes < 2, max_depth = 0, restarts = 0.
        assert!(decode_shard(&good.replacen(" 6 ", " 1 ", 1)).is_err());
        let f: Vec<&str> = good.split(' ').collect();
        let with = |idx: usize, val: &str| {
            let mut f = f.clone();
            f[idx] = val;
            f.join(" ")
        };
        // Payload fields start at index 2 (after "QW1 SHARD").
        assert!(decode_shard(&with(5, "0")).is_err(), "max_depth 0");
        assert!(decode_shard(&with(6, "0")).is_err(), "restarts 0");
        // Edge probability out of range / non-finite — and p = 0, which
        // would make the non-empty-graph generator retry forever when the
        // worker eagerly derives the ensemble.
        assert!(decode_shard(&with(4, &fmt_f64(1.5))).is_err());
        assert!(decode_shard(&with(4, &fmt_f64(f64::NAN))).is_err());
        assert!(decode_shard(&with(4, &fmt_f64(0.0))).is_err());
        assert!(decode_shard(&with(4, &fmt_f64(-0.0))).is_err());
        assert!(decode_shard(&with(4, &fmt_f64(1.0))).is_ok());
        // Trend margin negative / non-finite.
        assert!(decode_shard(&with(8, &fmt_f64(-1.0))).is_err());
        assert!(decode_shard(&with(8, &fmt_f64(f64::INFINITY))).is_err());
        // Wrong arity.
        assert!(decode_shard("QW1 SHARD 1 2 3").is_err());
        // An ensemble size past the protocol ceiling must answer ERR at
        // decode time, not reach the worker's eager ensemble allocation
        // (usize::MAX once overflowed Vec capacity and killed the loop).
        assert!(decode_shard(&with(2, &format!("{}", MAX_SHARD_GRAPHS + 1))).is_err());
        assert!(decode_shard(&with(2, &format!("{}", usize::MAX))).is_err());
        assert!(decode_shard(&with(2, &format!("{MAX_SHARD_GRAPHS}"))).is_ok());
        // Same ceiling logic for the graph width: O(n^2) ensemble
        // generation must not be reachable with a billion-node spec.
        assert!(decode_shard(&with(3, &format!("{}", MAX_PROBLEM_NODES + 1))).is_err());
        assert!(decode_shard(&with(3, "4000000000")).is_err());
        assert!(decode_shard(&with(3, &format!("{MAX_PROBLEM_NODES}"))).is_ok());
    }

    #[test]
    fn range_round_trip_and_validation() {
        for range in [0..0, 0..5, 3..3, 7..24] {
            assert_eq!(decode_range(&encode_range(&range)).unwrap(), range);
        }
        assert!(decode_range("QW1 RANGE 5 3").is_err(), "inverted");
        assert!(decode_range("QW1 RANGE 5").is_err(), "missing end");
        assert!(decode_range("QW1 RANGE -1 3").is_err(), "negative");
    }

    #[test]
    fn done_round_trip_and_validation() {
        let done = RangeDone {
            range: 4..9,
            cells: 20,
            function_calls: 12345,
        };
        assert_eq!(decode_done(&encode_done(&done)).unwrap(), done);
        assert!(decode_done("QW1 DONE 9 4 0 0").is_err(), "inverted");
        assert!(decode_done("QW1 DONE 4 9 0").is_err(), "missing fc");
    }

    #[test]
    fn version_and_type_mismatches_are_rejected() {
        assert!(decode_key("QW2 KEY 3 0-1").is_err());
        assert!(decode_key("QW1 JOB 1 2 3 0-1").is_err());
        assert!(decode_key("").is_err());
        assert!(message_type("QW1 RUN -").unwrap() == "RUN");
        assert!(message_type("QW9 RUN -").is_err());
        assert!(encode_err("multi\nline").lines().count() == 1);
    }
}
