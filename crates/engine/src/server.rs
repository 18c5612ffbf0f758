//! The job-server front end: a line-delimited request loop over
//! [`crate::wire`].
//!
//! The server reads messages from any `BufRead` (stdin in the `qaoa-serve`
//! binary), accumulates `JOB` lines, and executes the pending batch on the
//! engine whenever a `RUN` sentinel — or end of input — arrives. Outcomes
//! stream back **in submission order**, one `OUTCOME` line per job,
//! followed by one `REPORT` line per batch; the output is flushed after
//! every batch so interactive clients see results as soon as they exist.
//!
//! The same loop speaks the **worker side of shard tasking**
//! ([`crate::shard`]): a `SHARD` line opens a corpus session (the worker
//! derives the full ensemble from the spec's seed), and each subsequent
//! `RANGE` line generates that global graph-index range's corpus cells,
//! streaming `RECORD` lines back followed by one `DONE` marker. Range
//! tasking is validated in context — a `RANGE` before any `SHARD`, a range
//! past the ensemble, or one overlapping an already-served range answers
//! `ERR` (a coordinator bug must surface, not silently double-generate
//! records).
//!
//! With a trained model attached ([`serve_with_model`]), the loop is also a
//! **low-latency prediction service**: each `PREDICT` line is answered
//! immediately (no batching) with one `PREDICTED` line carrying
//! initialization parameters for the requested graph and depth, produced by
//! the cheapest able tier —
//!
//! 1. **cached exact** — a depth-1 request whose depth-1 solve (its
//!    [`Level1Key`]: class, restarts, seed, optimizer and options) is
//!    already in the cache answers the cached exact optimum,
//! 2. **model** — a deeper request whose class is cached answers the
//!    trained predictor's parameters, seeded from the cached depth-1
//!    optimum (the paper's predict-don't-optimize promise),
//! 3. **warm start** — a cold class runs the optimizer: a plain depth-1
//!    solve through the cache, or at depth > 1 the two-level flow (that
//!    same cached depth-1 solve, then the model's prediction
//!    warm-starting the target depth, with the engine's whole pool as the
//!    kernels' within-state budget). Either warms the cache, so follow-up
//!    requests answer from tiers 1–2.
//!
//! Deep (depth > 1) answers are memoized per `(depth-1 key, depth)`
//! for the session, so a repeated request echoes its original tier and bits
//! even after the cache has warmed underneath it; depth-1 repeats are
//! already bit-stable through the cache itself. Per-tier request counts and latency
//! totals accumulate in the [`ServeSummary`]; nothing timing-derived is
//! ever written to `output`, so serving the same requests twice produces
//! bit-identical transcripts.
//!
//! Per-request cost: every `PREDICT`, a memoized repeat included, is
//! decoded in one pass straight into its graph
//! ([`crate::wire::decode_predict`]), keyed with
//! [`qaoa::canonical::graph_key`] on flat buffers, looked up in the memo by
//! reference (the key is moved into the memo only on insert) and answered
//! through one `String` ([`crate::wire::encode_predicted`]). In a traced
//! `predict_zipf_n8` perfbench run (n = 8 requests, 2-vCPU x86-64 host)
//! that is about 3.5 µs for the key, 3.6 µs for the decode and 0.5 µs for
//! the encode, of a memoized round trip of about 24 µs at the median.
//!
//! Error containment: a malformed line — or one over the 1 MiB line cap,
//! or not UTF-8 — answers with an `ERR` line and the loop continues: one
//! bad client line must not kill a server multiplexing many.
//! [`crate::wire::decode_job`] validates executability at decode time
//! (depth/restarts ≥ 1, non-empty graph), so batch execution itself
//! only fails on conditions a well-formed job cannot trigger; such a
//! failure answers with one `ERR` line for the whole batch.
//!
//! Determinism: outcomes are a pure function of `(job lines, master seed)`
//! — the engine derives every per-job RNG from stable keys, and depth-1
//! jobs go through the (optionally pre-warmed, see [`crate::persist`])
//! isomorphism cache, which never changes values, only cost. The cache is
//! keyed on every input of the solve ([`Level1Key`]), so isomorphic jobs
//! whose restart counts differ never serve each other's optima. Shard
//! sessions solve on the same engine under the *session spec's* master
//! seed (it need not match the server's `--seed`): the key keeps the
//! entries of the two seeds apart, and `--cache-file` serves shard work
//! too.

#![expect(
    clippy::disallowed_methods,
    reason = "wall-time accounting: per-tier PREDICT latency, reported on stderr only"
)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, Write};
use std::ops::Range;
use std::time::{Duration, Instant};

use graphs::Graph;
use optimize::Optimizer;
use qaoa::datagen::DataGenConfig;
use qaoa::eval::with_within_state_threads;
use qaoa::{MaxCutProblem, ParameterPredictor, TwoLevelFlow};

use crate::batch::{BatchConfig, Engine, Job};
use crate::cache::Level1Key;
use crate::corpus;
use crate::transport::{read_capped_line, skip_line, BadLine};
use crate::wire;
use crate::wire::AnswerTier;

/// Accounting for one [`serve`] session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs executed successfully.
    pub jobs: usize,
    /// Batches flushed (RUN sentinels plus the implicit EOF flush).
    pub batches: usize,
    /// Shard ranges served (`RANGE` lines that completed with `DONE`).
    pub ranges: usize,
    /// Corpus cells generated across all served ranges.
    pub cells: usize,
    /// `ERR` lines emitted (malformed input, failed batches or ranges).
    pub errors: usize,
    /// Depth-1 cache hits across all batches.
    pub cache_hits: usize,
    /// Depth-1 cache misses (solves) across all batches.
    pub cache_misses: usize,
    /// `PREDICT` requests answered (memoized answers included, errors not).
    pub predicts: usize,
    /// `PREDICT` requests answered from the session memo (a repeat of an
    /// earlier request; counted into its original tier's stats too).
    pub predict_memo_hits: usize,
    /// Per-tier request counts and latency, indexed tier 1 → 3.
    pub tiers: [TierStats; 3],
}

/// Request count and cumulative latency of one answer tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// `PREDICT` requests this tier answered.
    pub requests: usize,
    /// Total wall-clock time spent answering them (decode to write).
    pub wall: Duration,
}

impl TierStats {
    /// Mean latency per answered request (zero when none were).
    #[must_use]
    pub fn mean_latency(&self) -> Duration {
        let n = u32::try_from(self.requests).unwrap_or(u32::MAX);
        if n == 0 {
            Duration::ZERO
        } else {
            self.wall / n
        }
    }

    /// Answers per second (zero when no time was spent).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let n = u32::try_from(self.requests).unwrap_or(u32::MAX);
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            f64::from(n) / secs
        } else {
            0.0
        }
    }
}

impl ServeSummary {
    fn record_predict(&mut self, tier: AnswerTier, wall: Duration, memoized: bool) {
        self.predicts += 1;
        if memoized {
            self.predict_memo_hits += 1;
        }
        let slot = match tier {
            AnswerTier::CachedExact => &mut self.tiers[0],
            AnswerTier::Model => &mut self.tiers[1],
            AnswerTier::WarmStart => &mut self.tiers[2],
        };
        slot.requests += 1;
        slot.wall += wall;
    }

    /// Multi-line per-tier accounting of the session's `PREDICT` traffic,
    /// for the driver's stderr (latency never goes on the wire — transcripts
    /// stay bit-identical across runs).
    #[must_use]
    pub fn predict_report(&self) -> String {
        let mut lines = vec![format!(
            "{} PREDICT answers ({} memoized)",
            self.predicts, self.predict_memo_hits
        )];
        for (tier, stats) in [
            AnswerTier::CachedExact,
            AnswerTier::Model,
            AnswerTier::WarmStart,
        ]
        .into_iter()
        .zip(&self.tiers)
        {
            lines.push(format!(
                "  {tier}: {} answers, total {:.2?}, mean {:.2?}, {:.1}/s",
                stats.requests,
                stats.wall,
                stats.mean_latency(),
                stats.throughput(),
            ));
        }
        lines.join("\n")
    }
}

impl fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs in {} batches, {} shard ranges / {} cells ({} errors, depth-1 cache {}/{} hit)",
            self.jobs,
            self.batches,
            self.ranges,
            self.cells,
            self.errors,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
        )?;
        if self.predicts > 0 {
            write!(
                f,
                ", {} predicts (tiers {}/{}/{})",
                self.predicts,
                self.tiers[0].requests,
                self.tiers[1].requests,
                self.tiers[2].requests,
            )?;
        }
        Ok(())
    }
}

/// One open shard-tasking session: the corpus spec a `SHARD` line declared,
/// the ensemble derived from it, and the ranges already served (for
/// overlap rejection).
struct ShardSession {
    spec: DataGenConfig,
    graphs: Vec<Graph>,
    served: Vec<Range<usize>>,
}

/// Runs the request loop until `input` is exhausted. Blank lines and
/// `#`-prefixed comment lines are ignored. A line longer than 1 MiB, or
/// one that is not UTF-8, is answered with one `ERR` line; the rest of an
/// oversized line is skipped without being buffered.
///
/// # Errors
///
/// Only transport failures (reading `input`, writing `output`) abort the
/// loop; every protocol-level problem is answered in-band with an `ERR`
/// line.
pub fn serve<R: BufRead, W: Write>(
    input: R,
    output: W,
    engine: &Engine,
    optimizer: &(dyn Optimizer + Sync),
    config: &BatchConfig,
) -> std::io::Result<ServeSummary> {
    serve_with_model(input, output, engine, optimizer, config, None)
}

/// [`serve`] with an optional trained predictor attached, which enables the
/// `PREDICT` verb (see the module docs for the answer tiers). Without a
/// predictor, `PREDICT` lines answer `ERR`.
///
/// # Errors
///
/// Same contract as [`serve`]: only transport failures abort the loop.
pub fn serve_with_model<R: BufRead, W: Write>(
    mut input: R,
    mut output: W,
    engine: &Engine,
    optimizer: &(dyn Optimizer + Sync),
    config: &BatchConfig,
    predictor: Option<&ParameterPredictor>,
) -> std::io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    let mut pending: Vec<Job> = Vec::new();
    let mut session: Option<ShardSession> = None;
    let mut memo: PredictMemo = BTreeMap::new();

    while let Some(line) = read_capped_line(&mut input)? {
        let line = match line {
            Ok(line) => line,
            Err(bad) => {
                if bad == BadLine::TooLong {
                    skip_line(&mut input)?;
                }
                reject(
                    &mut output,
                    &mut summary,
                    &format!("unreadable request: {bad}"),
                )?;
                continue;
            }
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match wire::message_type(line) {
            Ok("JOB") => match wire::decode_job(line) {
                Ok(job) => pending.push(job),
                Err(e) => reject(&mut output, &mut summary, &e.to_string())?,
            },
            Ok("RUN") => {
                flush_batch(
                    &mut output,
                    engine,
                    optimizer,
                    config,
                    &mut pending,
                    &mut summary,
                )?;
            }
            Ok("SHARD") => match wire::decode_shard(line) {
                Ok(spec) => {
                    session = Some(ShardSession {
                        graphs: corpus::ensemble(&spec),
                        spec,
                        served: Vec::new(),
                    });
                }
                Err(e) => reject(&mut output, &mut summary, &e.to_string())?,
            },
            Ok("RANGE") => {
                serve_range(&mut output, line, session.as_mut(), engine, &mut summary)?;
            }
            Ok("PREDICT") => {
                answer_predict(
                    &mut output,
                    line,
                    engine,
                    optimizer,
                    config,
                    predictor,
                    &mut memo,
                    &mut summary,
                )?;
            }
            Ok(other) => reject(
                &mut output,
                &mut summary,
                &format!(
                    "unexpected {other} message (the server accepts JOB, RUN, SHARD, RANGE, and PREDICT)"
                ),
            )?,
            Err(e) => reject(&mut output, &mut summary, &e.to_string())?,
        }
    }
    // EOF flushes the final batch, so `printf JOB... | qaoa-serve` works
    // without an explicit RUN.
    if !pending.is_empty() {
        flush_batch(
            &mut output,
            engine,
            optimizer,
            config,
            &mut pending,
            &mut summary,
        )?;
    }
    Ok(summary)
}

/// The session's answer memo for depth > 1 requests: `(depth-1 key,
/// depth)` → the tier and parameters first answered. A repeated deep
/// request must echo the same bits, but after its tier-3 solve has warmed
/// the cache the repeat would re-route through tier 2 and answer the
/// *model's* parameters instead of the optimized ones — the memo pins the
/// original answer. Depth-1 requests don't need it: tiers 1 and 3 both
/// answer the cache's exact optimum, identical bits either way. Keyed by
/// class first, then depth, so a lookup borrows the request's key.
type PredictMemo = BTreeMap<Level1Key, BTreeMap<usize, (AnswerTier, Vec<f64>)>>;

/// Handles one `PREDICT` line: picks the cheapest able tier, answers one
/// `PREDICTED` line, and accounts the tier's latency. Unanswerable
/// requests (no model, depth beyond the model, optimizer failure) answer
/// `ERR`.
#[expect(
    clippy::too_many_arguments,
    reason = "the request line plus the session state every tier reads"
)]
fn answer_predict<W: Write>(
    output: &mut W,
    line: &str,
    engine: &Engine,
    optimizer: &(dyn Optimizer + Sync),
    config: &BatchConfig,
    predictor: Option<&ParameterPredictor>,
    memo: &mut PredictMemo,
    summary: &mut ServeSummary,
) -> std::io::Result<()> {
    let start = Instant::now();
    let request = match wire::decode_predict(line) {
        Ok(request) => request,
        Err(e) => return reject(output, summary, &e.to_string()),
    };
    let Some(predictor) = predictor else {
        return reject(
            output,
            summary,
            &format!(
                "PREDICT {} needs a trained model (start the server with --model)",
                request.id
            ),
        );
    };
    if request.depth > predictor.max_depth() {
        return reject(
            output,
            summary,
            &format!(
                "PREDICT {} depth {} exceeds the model's max depth {}",
                request.id,
                request.depth,
                predictor.max_depth()
            ),
        );
    }
    let key = Level1Key::for_solve(&request.graph, optimizer, request.restarts, config);
    let memoized = memo
        .get(&key)
        .and_then(|by_depth| by_depth.get(&request.depth));
    if let Some((tier, params)) = memoized.filter(|_| request.depth > 1) {
        let answer = wire::Predicted {
            id: request.id,
            tier: *tier,
            params: params.clone(),
        };
        writeln!(output, "{}", wire::encode_predicted(&answer))?;
        summary.record_predict(*tier, start.elapsed(), true);
        return output.flush();
    }
    let answered = match engine.cache().peek(&key) {
        // Tier 1: the request *is* a depth-1 solve we already hold.
        Some(level1) if request.depth == 1 => Ok((AnswerTier::CachedExact, level1.params)),
        // Tier 2: predict from the cached depth-1 optimum's features.
        Some(level1) => match (level1.params.first(), level1.params.get(1)) {
            (Some(&gamma1), Some(&beta1)) => predictor
                .predict(gamma1, beta1, request.depth)
                .map(|params| (AnswerTier::Model, params))
                .map_err(|e| e.to_string()),
            _ => Err("cached depth-1 optimum carries no parameters".into()),
        },
        // Tier 3, cold depth-1 request: solve it (and warm the cache), with
        // the whole pool as the kernels' within-state budget.
        None if request.depth == 1 => {
            with_within_state_threads(engine.pool().inner_threads(1), || {
                engine.level1_cached(&request.graph, optimizer, request.restarts, config)
            })
            .map(|(outcome, _)| (AnswerTier::WarmStart, outcome.params))
            .map_err(|e| e.to_string())
        }
        // Tier 3, cold deep request: the two-level flow. Its depth-1 solve
        // warms the cache and the model's prediction warm-starts the
        // target depth; the kernels get the whole pool as their
        // within-state budget.
        None => with_within_state_threads(engine.pool().inner_threads(1), || {
            let problem = MaxCutProblem::new(&request.graph)?;
            let (level1, _) =
                engine.level1_cached(&request.graph, optimizer, request.restarts, config)?;
            TwoLevelFlow::new(predictor).run_with_level1(
                &problem,
                request.depth,
                optimizer,
                &config.options,
                &level1,
            )
        })
        .map(|outcome| (AnswerTier::WarmStart, outcome.params))
        .map_err(|e| e.to_string()),
    };
    match answered {
        Ok((tier, params)) => {
            let answer = wire::Predicted {
                id: request.id,
                tier,
                params: params.clone(),
            };
            writeln!(output, "{}", wire::encode_predicted(&answer))?;
            if request.depth > 1 {
                memo.entry(key)
                    .or_default()
                    .insert(request.depth, (tier, params));
            }
            summary.record_predict(tier, start.elapsed(), false);
            output.flush()
        }
        Err(e) => reject(
            output,
            summary,
            &format!("PREDICT {} failed: {e}", request.id),
        ),
    }
}

fn reject<W: Write>(
    output: &mut W,
    summary: &mut ServeSummary,
    message: &str,
) -> std::io::Result<()> {
    summary.errors += 1;
    writeln!(output, "{}", wire::encode_err(message))?;
    output.flush()
}

/// Why a streamed `RANGE` solve stopped early: a solve error (answered
/// in-band with `ERR`) or a transport failure (aborts the serve loop).
enum RangeStop {
    Solve(qaoa::QaoaError),
    Io(std::io::Error),
}

/// Handles one `RANGE` line: contextual validation against the open
/// session, then the solve, streaming `RECORD` lines and the `DONE` marker.
fn serve_range<W: Write>(
    output: &mut W,
    line: &str,
    session: Option<&mut ShardSession>,
    engine: &Engine,
    summary: &mut ServeSummary,
) -> std::io::Result<()> {
    let range = match wire::decode_range(line) {
        Ok(range) => range,
        Err(e) => return reject(output, summary, &e.to_string()),
    };
    let Some(session) = session else {
        return reject(
            output,
            summary,
            "RANGE before SHARD (no corpus spec in this session)",
        );
    };
    if range.end > session.graphs.len() {
        return reject(
            output,
            summary,
            &format!(
                "RANGE {}..{} out of bounds (the SHARD spec has {} graphs)",
                range.start,
                range.end,
                session.graphs.len()
            ),
        );
    }
    // Overlap = a shared graph index, which an empty range cannot have —
    // plans legally contain empty ranges anywhere, including inside
    // another shard's span, so only non-empty pairs can conflict.
    if let Some(prior) = session
        .served
        .iter()
        .find(|s| !range.is_empty() && s.start < range.end && range.start < s.end)
    {
        return reject(
            output,
            summary,
            &format!(
                "RANGE {}..{} overlaps already-served range {}..{}",
                range.start, range.end, prior.start, prior.end
            ),
        );
    }
    // Solve the range in one pool fan-out and stream each graph's records
    // (flushed) as soon as it and every earlier graph are solved, so a
    // streaming coordinator sees steady liveness on a long range instead
    // of one burst at the end. The bytes are identical to a whole-range
    // solve — every cell is a pure function of its global index, and the
    // stream walks the range in order — and `DONE` carries the summed
    // accounting.
    let mut cells = 0;
    let mut function_calls = 0;
    let streamed = corpus::stream_range(
        &session.graphs,
        range.clone(),
        &session.spec,
        engine,
        |graph| {
            let (records, _) = graph.map_err(RangeStop::Solve)?;
            for record in &records {
                writeln!(output, "{}", wire::encode_record(record)).map_err(RangeStop::Io)?;
                function_calls += record.function_calls;
            }
            cells += records.len();
            output.flush().map_err(RangeStop::Io)
        },
    );
    match streamed {
        Ok(()) => {}
        Err(RangeStop::Solve(e)) => {
            return reject(
                output,
                summary,
                &format!("range {}..{} failed: {e}", range.start, range.end),
            );
        }
        Err(RangeStop::Io(e)) => return Err(e),
    }
    writeln!(
        output,
        "{}",
        wire::encode_done(&wire::RangeDone {
            range: range.clone(),
            cells,
            function_calls,
        })
    )?;
    // An empty range covers no indices; keeping it out of the
    // served set means it can never (spuriously) conflict.
    if !range.is_empty() {
        session.served.push(range);
    }
    summary.ranges += 1;
    summary.cells += cells;
    output.flush()
}

fn flush_batch<W: Write>(
    output: &mut W,
    engine: &Engine,
    optimizer: &(dyn Optimizer + Sync),
    config: &BatchConfig,
    pending: &mut Vec<Job>,
    summary: &mut ServeSummary,
) -> std::io::Result<()> {
    summary.batches += 1;
    if pending.is_empty() {
        writeln!(output, "{}", wire::encode_report(&empty_report(engine)))?;
        return output.flush();
    }
    let jobs = std::mem::take(pending);
    match engine.run_batch(optimizer, &jobs, config) {
        Ok((outcomes, report)) => {
            for outcome in &outcomes {
                writeln!(output, "{}", wire::encode_outcome(outcome))?;
            }
            summary.jobs += outcomes.len();
            summary.cache_hits += report.cache_hits;
            summary.cache_misses += report.cache_misses;
            writeln!(output, "{}", wire::encode_report(&report))?;
        }
        Err(e) => {
            summary.errors += 1;
            writeln!(
                output,
                "{}",
                wire::encode_err(&format!("batch of {} jobs failed: {e}", jobs.len()))
            )?;
        }
    }
    output.flush()
}

fn empty_report(engine: &Engine) -> crate::batch::BatchReport {
    crate::batch::BatchReport {
        jobs: Vec::new(),
        wall: std::time::Duration::ZERO,
        threads: engine.threads(),
        total_function_calls: 0,
        total_gradient_calls: 0,
        cache_hits: 0,
        cache_misses: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimize::Lbfgsb;

    fn run_session(input: &str, engine: &Engine) -> (String, ServeSummary) {
        let mut out = Vec::new();
        let summary = serve(
            std::io::Cursor::new(input),
            &mut out,
            engine,
            &Lbfgsb::default(),
            &BatchConfig::default(),
        )
        .expect("transport never fails in-memory");
        (String::from_utf8(out).unwrap(), summary)
    }

    #[test]
    fn two_jobs_two_outcomes_in_order() {
        let input = "QW1 JOB 1 2 5 0-1,1-2,2-3,3-4,4-0\nQW1 JOB 2 2 4 0-1,1-2,2-3,3-0\n";
        let engine = Engine::new(2);
        let (out, summary) = run_session(input, &engine);
        let outcomes: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("QW1 OUTCOME"))
            .collect();
        assert_eq!(outcomes.len(), 2);
        // Submission order: job 1 has depth 1 (2 params), job 2 depth 2 (4).
        assert_eq!(wire::decode_outcome(outcomes[0]).unwrap().params.len(), 2);
        assert_eq!(wire::decode_outcome(outcomes[1]).unwrap().params.len(), 4);
        assert_eq!(
            out.lines().filter(|l| l.starts_with("QW1 REPORT")).count(),
            1
        );
        assert_eq!(summary.jobs, 2);
        assert_eq!(summary.batches, 1);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn run_sentinel_splits_batches_and_outcomes_are_deterministic() {
        let job = "QW1 JOB 1 2 5 0-1,1-2,2-3,3-4,4-0";
        let batched = format!("{job}\nQW1 RUN -\n{job}\n");
        let engine = Engine::new(2);
        let (out, summary) = run_session(&batched, &engine);
        assert_eq!(summary.batches, 2);
        assert_eq!(summary.jobs, 2);
        // Same job twice: bit-identical outcome lines, and the second batch
        // served it from the cache warmed by the first.
        let outcomes: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("QW1 OUTCOME"))
            .collect();
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(summary.cache_misses, 1);
    }

    #[test]
    fn isomorphic_jobs_with_different_restarts_do_not_conflate() {
        // Relabelings of one 5-cycle at restarts 2 and 3: the second job
        // must be solved under its own restart budget, not served the
        // first's cached optimum — and must match the same job run alone.
        let with_r2 = "QW1 JOB 1 2 5 0-1,1-2,2-3,3-4,4-0\nQW1 JOB 1 3 5 1-3,3-0,0-4,4-2,2-1\n";
        let engine = Engine::new(1);
        let (out, summary) = run_session(with_r2, &engine);
        assert_eq!(summary.cache_hits, 0);
        assert_eq!(summary.cache_misses, 2);
        let outcomes: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("QW1 OUTCOME"))
            .collect();
        let (alone_out, _) = run_session("QW1 JOB 1 3 5 1-3,3-0,0-4,4-2,2-1\n", &Engine::new(1));
        let alone: Vec<&str> = alone_out
            .lines()
            .filter(|l| l.starts_with("QW1 OUTCOME"))
            .collect();
        assert_eq!(outcomes[1], alone[0], "restarts=3 outcome must be its own");
    }

    #[test]
    fn oversized_and_non_utf8_lines_answer_err_and_the_loop_survives() {
        let cap = usize::try_from(crate::transport::MAX_LINE_BYTES).unwrap();
        let mut input = b"QW1 JOB 1 2 3 0-1,1-2\n".to_vec();
        input.extend(std::iter::repeat_n(b'x', 3 * cap));
        input.extend_from_slice(b"\n\xff\xfe QW1 JOB\nQW1 JOB 2 2 4 0-1,1-2,2-3,3-0\n");
        input.extend(std::iter::repeat_n(b'y', cap + 1));
        let engine = Engine::new(1);
        let mut out = Vec::new();
        let summary = serve(
            std::io::Cursor::new(input),
            &mut out,
            &engine,
            &Lbfgsb::default(),
            &BatchConfig::default(),
        )
        .expect("transport never fails in-memory");
        let out = String::from_utf8(out).unwrap();
        let errs: Vec<&str> = out.lines().filter(|l| l.starts_with("QW1 ERR")).collect();
        assert_eq!(errs.len(), 3, "output: {out}");
        assert_eq!(summary.errors, 3);
        assert_eq!(summary.jobs, 2, "both good jobs ran");
        assert_eq!(
            out.lines().filter(|l| l.starts_with("QW1 OUTCOME")).count(),
            2
        );
    }

    #[test]
    fn a_huge_job_answers_err_and_its_batch_still_runs() {
        // Regression: a 10^14-node JOB once reached the batch and aborted
        // the process on a petabyte allocation.
        let input = "QW1 JOB 1 1 100000000000000 0-1\nQW1 JOB 1 2 3 0-1,1-2\nQW1 RUN -\n";
        let (out, summary) = run_session(input, &Engine::new(1));
        assert_eq!(out.lines().filter(|l| l.starts_with("QW1 ERR")).count(), 1);
        assert!(out.contains("exceeds"), "output: {out}");
        assert_eq!(summary.jobs, 1, "the good job still ran");
        assert_eq!(
            out.lines().filter(|l| l.starts_with("QW1 OUTCOME")).count(),
            1
        );
    }

    #[test]
    fn huge_depth_or_restarts_answer_err_and_the_loop_survives() {
        // Regression: a 10^17-depth JOB once aborted the process on a
        // 1.6·10^18-byte allocation, and 10^17 restarts hung it.
        let input = "QW1 JOB 100000000000000000 1 4 0-1,1-2,2-3,3-0\n\
QW1 JOB 1 100000000000000000 4 0-1,1-2,2-3,3-0\n\
QW1 JOB 1 2 3 0-1,1-2\n\
QW1 RUN -\n";
        let (out, summary) = run_session(input, &Engine::new(1));
        assert_eq!(summary.errors, 2);
        assert_eq!(summary.jobs, 1, "the good job still ran");
        let errs: Vec<&str> = out.lines().filter(|l| l.starts_with("QW1 ERR")).collect();
        assert_eq!(errs.len(), 2, "output: {out}");
        assert!(errs.iter().all(|l| l.contains("exceeds")), "output: {out}");
        assert_eq!(
            out.lines().filter(|l| l.starts_with("QW1 OUTCOME")).count(),
            1
        );
    }

    #[test]
    fn bad_lines_answer_err_and_the_loop_survives() {
        let input = "\
not even wire\n\
QW1 JOB 0 2 3 0-1\n\
QW1 KEY 3 0-1\n\
# a comment\n\
\n\
QW1 JOB 1 2 3 0-1,1-2\n";
        let engine = Engine::new(1);
        let (out, summary) = run_session(input, &engine);
        assert_eq!(summary.errors, 3);
        assert_eq!(summary.jobs, 1, "the good job still ran");
        assert_eq!(out.lines().filter(|l| l.starts_with("QW1 ERR")).count(), 3);
        assert_eq!(
            out.lines().filter(|l| l.starts_with("QW1 OUTCOME")).count(),
            1
        );
    }

    /// A quick-scale SHARD line (10 graphs, 6 nodes, p=0.5, depth 3,
    /// restarts 3, seed 2020, margin 1e-3).
    fn shard_line() -> String {
        wire::encode_shard(&qaoa::datagen::DataGenConfig::quick())
    }

    #[test]
    fn shard_session_serves_ranges_with_records_and_done() {
        let input = format!("{}\nQW1 RANGE 2 4\nQW1 RANGE 0 0\n", shard_line());
        let engine = Engine::new(2);
        let (out, summary) = run_session(&input, &engine);
        assert_eq!(summary.errors, 0, "output: {out}");
        assert_eq!(summary.ranges, 2);
        assert_eq!(summary.cells, 6, "2 graphs x depths 1..=3");
        let records: Vec<_> = out
            .lines()
            .filter(|l| l.starts_with("QW1 RECORD"))
            .map(|l| wire::decode_record(l).unwrap())
            .collect();
        assert_eq!(records.len(), 6);
        // Global graph ids, graph-major depth-minor order.
        let coords: Vec<(usize, usize)> = records.iter().map(|r| (r.graph_id, r.depth)).collect();
        assert_eq!(coords, vec![(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]);
        // One DONE per range, carrying the range's accounting; the empty
        // range completes with zero cells.
        let dones: Vec<_> = out
            .lines()
            .filter(|l| l.starts_with("QW1 DONE"))
            .map(|l| wire::decode_done(l).unwrap())
            .collect();
        assert_eq!(dones.len(), 2);
        assert_eq!(dones[0].range, 2..4);
        assert_eq!(dones[0].cells, 6);
        assert_eq!(
            dones[0].function_calls,
            records.iter().map(|r| r.function_calls).sum::<usize>()
        );
        assert_eq!(dones[1].range, 0..0);
        assert_eq!(dones[1].cells, 0);
    }

    #[test]
    fn range_records_match_a_direct_solve_bit_for_bit() {
        let spec = qaoa::datagen::DataGenConfig::quick();
        let input = format!("{}\nQW1 RANGE 4 6\n", wire::encode_shard(&spec));
        let (out, _) = run_session(&input, &Engine::new(2));
        let served: Vec<String> = out
            .lines()
            .filter(|l| l.starts_with("QW1 RECORD"))
            .map(String::from)
            .collect();
        let graphs = crate::corpus::ensemble(&spec);
        let (direct, _) =
            crate::corpus::solve_range(&graphs, 4..6, &spec, &Engine::new(1)).unwrap();
        let expected: Vec<String> = direct.iter().map(wire::encode_record).collect();
        assert_eq!(served, expected, "wire records must be bit-identical");
    }

    #[test]
    fn range_before_shard_answers_err_and_loop_survives() {
        let input = format!("QW1 RANGE 0 2\n{}\nQW1 RANGE 0 1\n", shard_line());
        let (out, summary) = run_session(&input, &Engine::new(1));
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.ranges, 1, "the post-SHARD range still served");
        assert!(out.contains("RANGE before SHARD"));
    }

    #[test]
    fn out_of_bounds_range_answers_err_and_loop_survives() {
        // The quick spec has 10 graphs; 8..12 must be refused in context
        // even though the RANGE line itself is well-formed.
        let input = format!("{}\nQW1 RANGE 8 12\nQW1 RANGE 8 10\n", shard_line());
        let (out, summary) = run_session(&input, &Engine::new(1));
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.ranges, 1);
        assert!(out.contains("out of bounds"));
    }

    #[test]
    fn overlapping_ranges_answer_err_and_loop_survives() {
        let input = format!(
            "{}\nQW1 RANGE 0 2\nQW1 RANGE 1 3\nQW1 RANGE 2 3\n",
            shard_line()
        );
        let (out, summary) = run_session(&input, &Engine::new(1));
        assert_eq!(summary.errors, 1, "output: {out}");
        assert_eq!(summary.ranges, 2, "disjoint follow-up range still served");
        assert!(out.contains("overlaps already-served range 0..2"));
        // A fresh SHARD resets the served set: re-serving 0..2 is fine.
        let reshard = format!("{0}\nQW1 RANGE 0 2\n{0}\nQW1 RANGE 0 2\n", shard_line());
        let (_, summary) = run_session(&reshard, &Engine::new(1));
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.ranges, 2);
    }

    #[test]
    fn empty_ranges_never_overlap_anything() {
        // Plans legally contain empty ranges anywhere — including a point
        // strictly inside an already-served span — and an empty range
        // covers no indices, so it must serve (zero records + DONE), not
        // answer ERR. It must also never block a later real range.
        let input = format!(
            "{}\nQW1 RANGE 0 4\nQW1 RANGE 2 2\nQW1 RANGE 2 2\nQW1 RANGE 4 6\n",
            shard_line()
        );
        let (out, summary) = run_session(&input, &Engine::new(1));
        assert_eq!(summary.errors, 0, "output: {out}");
        assert_eq!(summary.ranges, 4);
        let dones: Vec<_> = out
            .lines()
            .filter(|l| l.starts_with("QW1 DONE"))
            .map(|l| wire::decode_done(l).unwrap())
            .collect();
        assert_eq!(dones.len(), 4);
        assert_eq!((dones[1].range.clone(), dones[1].cells), (2..2, 0));
        assert_eq!(dones[3].range, 4..6);
    }

    #[test]
    fn worker_only_lines_answer_err_without_killing_the_loop() {
        // DONE (and a duplicate of it) belongs to the worker->coordinator
        // direction; a server receiving one answers ERR per line, like any
        // unexpected message, and keeps serving.
        let input = format!(
            "QW1 DONE 0 2 4 100\nQW1 DONE 0 2 4 100\n{}\nQW1 RANGE 0 1\nQW1 SHARD bogus\nQW1 RANGE 0 0\n",
            shard_line()
        );
        let (out, summary) = run_session(&input, &Engine::new(1));
        assert_eq!(summary.errors, 3, "two DONEs + one malformed SHARD");
        assert_eq!(summary.ranges, 2, "ranges around the bad lines served");
        assert_eq!(out.lines().filter(|l| l.starts_with("QW1 ERR")).count(), 3);
        assert!(out.contains("unexpected DONE message"));
    }

    #[test]
    fn oversized_shard_spec_answers_err_and_loop_survives() {
        // Regression: a SHARD line declaring a near-usize::MAX ensemble
        // once reached the eager ensemble allocation and killed the whole
        // process with a capacity overflow. It must be refused at decode
        // time like any other non-executable spec.
        let input = format!(
            "QW1 SHARD {} 5 3fe0000000000000 2 2 99 3f50624dd2f1a9fc\n{}\nQW1 RANGE 0 1\n",
            usize::MAX,
            shard_line()
        );
        let (out, summary) = run_session(&input, &Engine::new(1));
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.ranges, 1, "the sane follow-up session still works");
        assert!(out.contains("exceeds"));
    }

    #[test]
    fn shard_sessions_and_job_batches_coexist() {
        let input = format!(
            "QW1 JOB 1 2 5 0-1,1-2,2-3,3-4,4-0\n{}\nQW1 RANGE 0 1\nQW1 RUN -\n",
            shard_line()
        );
        let (out, summary) = run_session(&input, &Engine::new(1));
        assert_eq!(summary.errors, 0, "output: {out}");
        assert_eq!(summary.jobs, 1);
        assert_eq!(summary.ranges, 1);
        assert_eq!(
            out.lines().filter(|l| l.starts_with("QW1 OUTCOME")).count(),
            1
        );
        assert_eq!(out.lines().filter(|l| l.starts_with("QW1 DONE")).count(), 1);
    }

    fn trained_predictor() -> ParameterPredictor {
        let corpus = qaoa::datagen::ParameterDataset::generate(&qaoa::datagen::DataGenConfig {
            n_graphs: 5,
            n_nodes: 5,
            edge_probability: 0.6,
            max_depth: 3,
            restarts: 2,
            seed: 33,
            options: Default::default(),
            trend_preference_margin: 1e-3,
        })
        .unwrap();
        ParameterPredictor::train(ml::ModelKind::Linear, &corpus).unwrap()
    }

    fn run_model_session(
        input: &str,
        engine: &Engine,
        predictor: &ParameterPredictor,
    ) -> (String, ServeSummary) {
        let mut out = Vec::new();
        let summary = serve_with_model(
            std::io::Cursor::new(input),
            &mut out,
            engine,
            &Lbfgsb::default(),
            &BatchConfig::default(),
            Some(predictor),
        )
        .expect("transport never fails in-memory");
        (String::from_utf8(out).unwrap(), summary)
    }

    #[test]
    fn predict_without_model_answers_err_and_loop_survives() {
        let input = "QW1 PREDICT 1 1 2 5 0-1,1-2,2-3,3-4,4-0\nQW1 JOB 1 2 3 0-1,1-2\n";
        let (out, summary) = run_session(input, &Engine::new(1));
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.predicts, 0);
        assert_eq!(summary.jobs, 1, "the job after the refused predict ran");
        assert!(out.contains("--model"), "output: {out}");
    }

    #[test]
    fn predict_answers_one_tier_per_request_state() {
        let cycle = "0-1,1-2,2-3,3-4,4-0";
        let relabeled = "1-3,3-0,0-4,4-2,2-1";
        let input = format!(
            "QW1 PREDICT 1 1 2 5 {cycle}\n\
             QW1 PREDICT 2 1 2 5 {relabeled}\n\
             QW1 PREDICT 3 2 2 5 {cycle}\n\
             QW1 PREDICT 4 2 2 5 {relabeled}\n"
        );
        let predictor = trained_predictor();
        let engine = Engine::new(2);
        let (out, summary) = run_model_session(&input, &engine, &predictor);
        let answers: Vec<wire::Predicted> = out
            .lines()
            .filter(|l| l.starts_with("QW1 PREDICTED"))
            .map(|l| wire::decode_predicted(l).unwrap())
            .collect();
        assert_eq!(summary.errors, 0, "output: {out}");
        assert_eq!(answers.len(), 4);
        assert_eq!(
            answers.iter().map(|a| a.tier).collect::<Vec<_>>(),
            vec![
                AnswerTier::WarmStart,   // cold class: solved
                AnswerTier::CachedExact, // same class relabeled: cache hit
                AnswerTier::Model,       // deeper: model prediction
                AnswerTier::Model,       // repeat (same class+depth): memoized
            ]
        );
        // The tier-3 depth-1 solve IS the entry tier 1 later serves: same bits.
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&answers[0].params), bits(&answers[1].params));
        // Tier 2 answers exactly the predictor's output for the cached
        // depth-1 optimum's features.
        let expected = predictor
            .predict(answers[0].params[0], answers[0].params[1], 2)
            .unwrap();
        assert_eq!(bits(&answers[2].params), bits(&expected));
        assert_eq!(bits(&answers[3].params), bits(&answers[2].params));
        // Per-tier accounting: 1 cached-exact, 2 model (one memoized), 1 warm.
        assert_eq!(summary.predicts, 4);
        assert_eq!(summary.predict_memo_hits, 1);
        assert_eq!(
            [
                summary.tiers[0].requests,
                summary.tiers[1].requests,
                summary.tiers[2].requests
            ],
            [1, 2, 1]
        );
        assert!(summary.to_string().contains("4 predicts (tiers 1/2/1)"));
        assert!(summary.predict_report().contains("4 PREDICT answers"));
    }

    #[test]
    fn cold_deep_predict_warms_the_cache_for_tier_1() {
        let input = "QW1 PREDICT 1 3 2 5 0-1,1-2,2-3,3-4,4-0\n\
                     QW1 PREDICT 2 1 2 5 0-1,1-2,2-3,3-4,4-0\n";
        let predictor = trained_predictor();
        let (out, summary) = run_model_session(input, &Engine::new(2), &predictor);
        let answers: Vec<wire::Predicted> = out
            .lines()
            .filter(|l| l.starts_with("QW1 PREDICTED"))
            .map(|l| wire::decode_predicted(l).unwrap())
            .collect();
        assert_eq!(summary.errors, 0, "output: {out}");
        assert_eq!(answers[0].tier, AnswerTier::WarmStart);
        assert_eq!(answers[0].params.len(), 6, "depth 3 answers 6 params");
        assert_eq!(
            answers[1].tier,
            AnswerTier::CachedExact,
            "the tier-3 flow's depth-1 solve must warm the cache"
        );
    }

    #[test]
    fn isomorphic_cold_deep_predicts_share_one_depth1_entry_at_any_thread_count() {
        // A cold deep request solves its class's depth-1 instance once. The
        // isomorphic relabelling (at another depth, so the session memo
        // does not answer it) is served from that same entry, and a second
        // class gets an entry of its own.
        let cycle = "QW1 PREDICT 1 2 2 5 0-1,1-2,2-3,3-4,4-0";
        let input = format!(
            "{cycle}\n\
             QW1 PREDICT 2 3 2 5 1-3,3-0,0-4,4-2,2-1\n\
             QW1 PREDICT 3 2 2 5 0-1,0-2,0-3,0-4\n"
        );
        let predictor = trained_predictor();
        let run = |threads: usize| {
            let engine = Engine::new(threads);
            let (out, summary) = run_model_session(&input, &engine, &predictor);
            (out, summary, engine)
        };
        let (serial, summary, engine) = run(1);
        let (parallel, ..) = run(4);
        assert_eq!(summary.errors, 0, "output: {serial}");
        let answers: Vec<wire::Predicted> = serial
            .lines()
            .filter(|l| l.starts_with("QW1 PREDICTED"))
            .map(|l| wire::decode_predicted(l).unwrap())
            .collect();
        assert_eq!(
            answers.iter().map(|a| a.tier).collect::<Vec<_>>(),
            vec![
                AnswerTier::WarmStart, // cold cycle: two-level flow
                AnswerTier::Model,     // relabelled cycle: the cycle's entry
                AnswerTier::WarmStart, // cold star: its own flow
            ]
        );
        assert_eq!(engine.cache().len(), 2, "one depth-1 entry per class");
        assert_eq!(engine.cache().misses(), 2, "one depth-1 solve per class");

        // Both cycle answers derive from the one cached depth-1 optimum.
        let graph = wire::decode_predict(cycle).unwrap().graph;
        let optimizer = Lbfgsb::default();
        let config = BatchConfig::default();
        let key = Level1Key::for_solve(&graph, &optimizer, 2, &config);
        let level1 = engine
            .cache()
            .peek(&key)
            .expect("the cold request cached its solve");
        let flow = TwoLevelFlow::new(&predictor)
            .run_with_level1(
                &MaxCutProblem::new(&graph).unwrap(),
                2,
                &optimizer,
                &config.options,
                &level1,
            )
            .unwrap();
        let predicted = predictor
            .predict(level1.params[0], level1.params[1], 3)
            .unwrap();
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&answers[0].params), bits(&flow.params));
        assert_eq!(bits(&answers[1].params), bits(&predicted));

        assert_eq!(
            serial, parallel,
            "transcripts are invariant to the engine's thread count"
        );
    }

    #[test]
    fn predict_beyond_model_depth_answers_err_and_loop_survives() {
        let input = "QW1 PREDICT 1 9 2 5 0-1,1-2,2-3,3-4,4-0\n\
                     QW1 PREDICT 2 1 2 5 0-1,1-2,2-3,3-4,4-0\n";
        let predictor = trained_predictor();
        let (out, summary) = run_model_session(input, &Engine::new(1), &predictor);
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.predicts, 1, "the sane follow-up still answered");
        assert!(out.contains("max depth"), "output: {out}");
    }

    #[test]
    fn predict_answers_immediately_before_pending_batches() {
        let input = "QW1 JOB 1 2 5 0-1,1-2,2-3,3-4,4-0\n\
                     QW1 PREDICT 1 1 2 4 0-1,1-2,2-3,3-0\n\
                     QW1 RUN -\n";
        let predictor = trained_predictor();
        let (out, summary) = run_model_session(input, &Engine::new(1), &predictor);
        assert_eq!(summary.errors, 0, "output: {out}");
        assert_eq!(summary.jobs, 1);
        assert_eq!(summary.predicts, 1);
        let kinds: Vec<&str> = out
            .lines()
            .filter_map(|l| wire::message_type(l).ok())
            .collect();
        assert_eq!(
            kinds,
            vec!["PREDICTED", "OUTCOME", "REPORT"],
            "PREDICT is answered at arrival, not held for the batch flush"
        );
    }

    #[test]
    fn predict_transcripts_are_bit_identical_across_sessions() {
        let input = "QW1 PREDICT 1 1 2 5 0-1,1-2,2-3,3-4,4-0\n\
                     QW1 PREDICT 2 2 2 5 0-1,1-2,2-3,3-4,4-0\n\
                     QW1 PREDICT 3 3 3 4 0-1,1-2,2-3,3-0\n";
        let predictor = trained_predictor();
        let (first, _) = run_model_session(input, &Engine::new(2), &predictor);
        let (second, _) = run_model_session(input, &Engine::new(1), &predictor);
        assert_eq!(
            first, second,
            "answers are pure functions of (requests, model, master seed)"
        );
    }

    /// [`Lbfgsb`] that records the within-state budget of its last solve.
    #[derive(Default)]
    struct BudgetProbe {
        inner: Lbfgsb,
        seen: std::sync::atomic::AtomicUsize,
    }

    impl Optimizer for BudgetProbe {
        fn minimize(
            &self,
            f: &dyn Fn(&[f64]) -> f64,
            x0: &[f64],
            bounds: &optimize::Bounds,
            options: &optimize::Options,
        ) -> Result<optimize::OptimizeResult, optimize::OptimizeError> {
            let budget = qaoa::eval::within_state_threads();
            self.seen
                .store(budget, std::sync::atomic::Ordering::Relaxed);
            self.inner.minimize(f, x0, bounds, options)
        }

        fn minimize_objective(
            &self,
            f: &dyn optimize::Objective,
            x0: &[f64],
            bounds: &optimize::Bounds,
            options: &optimize::Options,
        ) -> Result<optimize::OptimizeResult, optimize::OptimizeError> {
            let budget = qaoa::eval::within_state_threads();
            self.seen
                .store(budget, std::sync::atomic::Ordering::Relaxed);
            self.inner.minimize_objective(f, x0, bounds, options)
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    #[test]
    fn cold_depth1_predict_solves_with_the_whole_pool() {
        // A cold depth-1 request, then its cached (tier 1) relabelling.
        let input = "QW1 PREDICT 1 1 2 5 0-1,1-2,2-3,3-4,4-0\n\
                     QW1 PREDICT 2 1 2 5 1-2,2-3,3-4,4-0,0-1\n";
        let predictor = trained_predictor();
        let run = |threads: usize| {
            let probe = BudgetProbe::default();
            let mut out = Vec::new();
            serve_with_model(
                std::io::Cursor::new(input),
                &mut out,
                &Engine::new(threads),
                &probe,
                &BatchConfig::default(),
                Some(&predictor),
            )
            .expect("transport never fails in-memory");
            (String::from_utf8(out).unwrap(), probe.seen.into_inner())
        };
        let (serial, serial_budget) = run(1);
        let (parallel, parallel_budget) = run(4);
        assert_eq!(serial_budget, 1);
        assert_eq!(parallel_budget, 4, "the solve gets every worker");
        let tiers: Vec<AnswerTier> = serial
            .lines()
            .filter(|l| l.starts_with("QW1 PREDICTED"))
            .map(|l| wire::decode_predicted(l).unwrap().tier)
            .collect();
        assert_eq!(tiers, vec![AnswerTier::WarmStart, AnswerTier::CachedExact]);
        assert_eq!(
            serial, parallel,
            "transcripts are invariant to the engine's thread count"
        );
    }

    #[test]
    fn empty_run_emits_an_empty_report() {
        let engine = Engine::new(1);
        let (out, summary) = run_session("QW1 RUN -\n", &engine);
        assert_eq!(summary.batches, 1);
        assert_eq!(summary.jobs, 0);
        let report_line = out
            .lines()
            .find(|l| l.starts_with("QW1 REPORT"))
            .expect("report line");
        assert!(wire::decode_report(report_line).unwrap().jobs.is_empty());
    }
}
