//! `predict_zipf_n8`: one closed-loop client replays ~20k `PREDICT`
//! requests, sending each only after the previous answer arrived, over
//! `SubprocessTransport` to one `qaoa-predict serve --threads 1` worker
//! loaded with a GPR model trained in set-up. Requests are paper-size
//! graphs (n=8) from 2000 isomorphism classes drawn with Zipf skew
//! s = 1.1, at depths 1..4 with 3 restarts; every request is a random
//! relabelling of its class. The unit operation is one request, timed
//! from send to answer received.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use engine::wire::{self, AnswerTier, PredictRequest};
use engine::{corpus, Engine, ShardTransport, SubprocessTransport};
use graphs::{generators, Graph};
use ml::ModelKind;
use qaoa::datagen::DataGenConfig;
use qaoa::ParameterPredictor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::{derive, measure, since, Ctx, Cycle, THREADS};
use crate::probes;
use crate::report::Report;
use crate::stats::{median, Digest, Tail};
use crate::sys::Pinned;
use crate::trace::Tracer;
use crate::zipf::Zipf;

pub const CLASSES: usize = 2000;
pub const REQUESTS: usize = 20_000;
const ZIPF_S: f64 = 1.1;
const NODES: usize = 8;
const MAX_DEPTH: usize = 4;
const RESTARTS: usize = 3;
/// Longest a single answer may take before the run fails.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);
/// Request and answer lines the wire probes time.
const PROBE_LINES: usize = 2000;
/// Request graphs kept for the `graph_key` probe.
const SAMPLE_GRAPHS: usize = 256;

/// How the generator expects a request to be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// First time this (class, depth) is asked: answered by this tier.
    Fresh(AnswerTier),
    /// A deep (class, depth) asked before: the session memo repeats the
    /// first answer, tier token included.
    Memo,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: u64,
    pub class: usize,
    pub depth: usize,
    pub line: String,
    pub expect: Expect,
}

pub struct Stream {
    pub requests: Vec<Request>,
    pub sample_graphs: Vec<Graph>,
}

/// A random relabelling of `graph`, edges in random order.
fn relabel(graph: &Graph, rng: &mut StdRng) -> Graph {
    let mut perm: Vec<usize> = (0..graph.n_nodes()).collect();
    perm.shuffle(rng);
    let mut pairs: Vec<(usize, usize)> = graph
        .edges()
        .iter()
        .map(|e| (perm[e.u], perm[e.v]))
        .collect();
    pairs.shuffle(rng);
    Graph::from_edges(graph.n_nodes(), &pairs).expect("a relabelling of a valid graph is valid")
}

/// The request stream of `seed`: `classes` distinct isomorphism classes,
/// `requests` Zipf-distributed requests over them.
pub fn stream(seed: u64, classes: usize, requests: usize) -> Stream {
    let mut rng = StdRng::seed_from_u64(derive(seed, 31));
    let mut keys = BTreeSet::new();
    let mut reps: Vec<Graph> = Vec::with_capacity(classes);
    while reps.len() < classes {
        let g = generators::erdos_renyi_nonempty(NODES, 0.5, &mut rng);
        if keys.insert(qaoa::canonical::graph_key(&g)) {
            reps.push(g);
        }
    }
    let zipf = Zipf::new(classes, ZIPF_S);
    let mut seen_class = vec![false; classes];
    let mut seen_deep = BTreeSet::new();
    let mut sample_graphs = Vec::new();
    let requests = (0..requests)
        .map(|i| {
            let class = zipf.sample(&mut rng);
            let depth = rng.gen_range(1..=MAX_DEPTH);
            let graph = relabel(&reps[class], &mut rng);
            let expect = if depth > 1 && !seen_deep.insert((class, depth)) {
                Expect::Memo
            } else if !seen_class[class] {
                Expect::Fresh(AnswerTier::WarmStart)
            } else if depth == 1 {
                Expect::Fresh(AnswerTier::CachedExact)
            } else {
                Expect::Fresh(AnswerTier::Model)
            };
            seen_class[class] = true;
            let id = i as u64 + 1;
            let line = wire::encode_predict(&PredictRequest {
                id,
                depth,
                restarts: RESTARTS,
                graph: graph.clone(),
            })
            .expect("n=8 graphs fit the wire's endpoint range");
            if sample_graphs.len() < SAMPLE_GRAPHS {
                sample_graphs.push(graph);
            }
            Request {
                id,
                class,
                depth,
                line,
                expect,
            }
        })
        .collect();
    Stream {
        requests,
        sample_graphs,
    }
}

fn model_corpus(seed: u64) -> DataGenConfig {
    DataGenConfig {
        n_graphs: 24,
        n_nodes: NODES,
        edge_probability: 0.5,
        max_depth: MAX_DEPTH,
        restarts: RESTARTS,
        seed: derive(seed, 32),
        options: Default::default(),
        trend_preference_margin: 1e-3,
    }
}

/// The worker's master seed; also the model artifact's.
fn master_seed(seed: u64) -> u64 {
    derive(seed, 33) >> 1
}

fn model_path(ctx: &Ctx) -> PathBuf {
    ctx.work_dir
        .join(format!("predict-model-seed{}.qm", ctx.seed))
}

/// Answer buckets: fresh tier 1, 2, 3, then memoized repeats.
const BUCKETS: [&str; 4] = ["tier1", "tier2", "tier3", "memo"];

fn bucket(expect: Expect) -> usize {
    match expect {
        Expect::Fresh(AnswerTier::CachedExact) => 0,
        Expect::Fresh(AnswerTier::Model) => 1,
        Expect::Fresh(AnswerTier::WarmStart) => 2,
        Expect::Memo => 3,
    }
}

pub struct Pass {
    pub replay_s: f64,
    /// Client latency per bucket, microseconds.
    pub by_bucket: [Vec<f64>; 4],
    /// The first answer lines, kept for the wire probe of a traced run.
    pub answers: Vec<String>,
    pub predictor: ParameterPredictor,
    pub train_s: f64,
}

fn cycle(ctx: &Ctx, stream: &Stream, tracer: &Tracer, parent: u64) -> Result<Cycle<Pass>, String> {
    let seed = master_seed(ctx.seed);
    let path = model_path(ctx);
    let started = Instant::now();
    let (mut worker, pinned, predictor, train_s) =
        tracer.span("phase.setup", parent, 0, |setup| -> Result<_, String> {
            let engine = Engine::new(THREADS);
            let (dataset, _) = corpus::generate(&model_corpus(ctx.seed), &engine)
                .map_err(|e| format!("model corpus failed: {e}"))?;
            let train_start = Instant::now();
            let predictor = tracer
                .span("ml.train", setup, 0, |_| {
                    ParameterPredictor::train(ModelKind::Gpr, &dataset)
                })
                .map_err(|e| format!("GPR training failed: {e}"))?;
            let train_s = since(train_start);
            engine::model::save(&predictor, &path, seed)
                .map_err(|e| format!("saving {}: {e}", path.display()))?;
            let command: Vec<String> = [
                ctx.bin_dir.join("qaoa-predict").display().to_string(),
                "serve".into(),
                "--quick".into(),
                "--threads".into(),
                "1".into(),
                "--seed".into(),
                seed.to_string(),
                "--model".into(),
                path.display().to_string(),
            ]
            .into();
            // Client and worker share one core, so a round trip does not
            // hinge on where the scheduler puts the two processes.
            let pinned = Pinned::first_cpu()?;
            let mut worker = tracer
                .span("transport.spawn", setup, 0, |_| {
                    SubprocessTransport::spawn(&command, 1)
                })
                .map_err(|e| format!("spawning the prediction worker: {e}"))?;
            // The first answer: an empty batch flush, which leaves no state.
            worker
                .send_line(0, &wire::encode_run())
                .map_err(|e| format!("prediction worker: {e}"))?;
            let first = worker
                .recv_line(0, ANSWER_TIMEOUT)
                .map_err(|e| format!("prediction worker never answered: {e}"))?;
            if !first.starts_with("QW1 REPORT ") {
                return Err(format!("prediction worker answered `{first}` to RUN"));
            }
            Ok((worker, pinned, predictor, train_s))
        })?;
    let setup_s = vec![since(started)];

    let mut times: Vec<(Instant, Instant)> = Vec::with_capacity(stream.requests.len());
    let mut answers: Vec<String> = Vec::with_capacity(stream.requests.len());
    let replay_id = tracer.open();
    let replay_start = Instant::now();
    for request in &stream.requests {
        let sent = Instant::now();
        worker
            .send_line(0, &request.line)
            .map_err(|e| format!("request {}: {e}", request.id))?;
        let answer = worker
            .recv_line(0, ANSWER_TIMEOUT)
            .map_err(|e| format!("request {}: {e}", request.id))?;
        times.push((sent, Instant::now()));
        answers.push(answer);
    }
    let replay_s = since(replay_start);
    tracer.close(replay_id, "phase.replay", parent, 0, replay_start);
    tracer.span("transport.close", parent, 0, |_| worker.close(0));
    drop(pinned);

    tracer.span("phase.verify", parent, 0, |_| {
        let mut digest = Digest::default();
        let mut problems = Vec::new();
        let mut failed = 0;
        let mut first_tier: BTreeMap<(usize, usize), AnswerTier> = BTreeMap::new();
        let mut by_bucket: [Vec<f64>; 4] = Default::default();
        for ((request, answer), (sent, got)) in stream.requests.iter().zip(&answers).zip(&times) {
            digest.add(answer.as_bytes());
            let latency = got.duration_since(*sent);
            let b = bucket(request.expect);
            by_bucket[b].push(latency.as_secs_f64() * 1e6);
            tracer.record(
                tracer.open(),
                BUCKETS[b],
                replay_id,
                request.id,
                *sent,
                *got,
            );
            let wrong = match wire::decode_predicted(answer) {
                Err(e) => Some(format!("request {}: answer `{answer}` ({e})", request.id)),
                Ok(p) if p.id != request.id => {
                    Some(format!("request {} answered as {}", request.id, p.id))
                }
                Ok(p)
                    if p.params.len() != 2 * request.depth
                        || p.params.iter().any(|x| !x.is_finite()) =>
                {
                    Some(format!(
                        "request {}: {} parameters at depth {}",
                        request.id,
                        p.params.len(),
                        request.depth
                    ))
                }
                Ok(p) => {
                    let key = (request.class, request.depth);
                    let expected = match request.expect {
                        Expect::Fresh(tier) => tier,
                        Expect::Memo => first_tier.get(&key).copied().unwrap_or(p.tier),
                    };
                    first_tier.entry(key).or_insert(p.tier);
                    (p.tier != expected).then(|| {
                        format!(
                            "request {}: answered by {} where {expected} was due",
                            request.id, p.tier
                        )
                    })
                }
            };
            if let Some(why) = wrong {
                failed += 1;
                if problems.len() < 5 {
                    problems.push(why);
                }
            }
        }
        let ops_us = by_bucket.iter().flatten().copied().collect();
        Ok(Cycle {
            setup_s,
            pass_s: replay_s,
            ops_us,
            attempted: stream.requests.len() as u64,
            failed,
            digest: digest.value(),
            problems,
            extra: Pass {
                replay_s,
                by_bucket,
                answers: if tracer.enabled() {
                    answers.into_iter().take(PROBE_LINES).collect()
                } else {
                    Vec::new()
                },
                predictor,
                train_s,
            },
        })
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let stream = stream(ctx.seed, CLASSES, REQUESTS);
    let tracer = Tracer::new(false);
    let (mut report, passes) = measure(ctx, REQUESTS, || cycle(ctx, &stream, &tracer, 0))?;
    let all: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.by_bucket.iter().flatten().copied())
        .collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| REQUESTS as f64 / p.replay_s)
        .collect();
    let tail = Tail::of(&all);
    report.note(format!(
        "predict_p50_us = {} us over {} requests",
        median(&all),
        all.len()
    ));
    report.note(format!(
        "predict_p99_us = {} us ({})",
        tail.value,
        tail.label()
    ));
    report.note(format!(
        "predicts_per_s = {} req/s (one closed-loop client)",
        median(&rates)
    ));
    let counts: Vec<String> = BUCKETS
        .iter()
        .zip(&passes[0].by_bucket)
        .map(|(name, v)| format!("{name} {}", v.len()))
        .collect();
    report.note(format!("answers per pass: {}", counts.join(", ")));
    report.note(format!(
        "fail_ratio = {} ratio",
        report.failed as f64 / report.attempted.max(1) as f64
    ));
    Ok(report)
}

pub fn traced(
    ctx: &Ctx,
    tracer: &Tracer,
    root: u64,
    report: &mut Report,
) -> Result<(u64, f64), String> {
    let stream = tracer.span("phase.inputs", root, 0, |_| {
        stream(ctx.seed, CLASSES, REQUESTS)
    });
    let cycle = cycle(ctx, &stream, tracer, root)?;
    report.attempted += cycle.attempted;
    report.failed += cycle.failed;
    for p in &cycle.problems {
        report.fail(format!("predict_zipf_n8: {p}"));
    }
    if !tracer.enabled() {
        return Ok((
            cycle.digest,
            cycle.setup_s.iter().sum::<f64>() + cycle.pass_s,
        ));
    }
    let probes_start = Instant::now();
    let probes_id = tracer.open();
    let pass = &cycle.extra;
    let total = REQUESTS as f64;
    for (name, latencies) in BUCKETS.iter().zip(&pass.by_bucket) {
        let share = latencies.len() as f64 / total;
        if *name == "memo" {
            report.metric("server.memo_share", share, "ratio");
            report.metric("server.memo_p50_us", median(latencies), "us");
        } else {
            report.metric(format!("cache.{name}_share"), share, "ratio");
            report.metric(format!("server.{name}_p50_us"), median(latencies), "us");
        }
    }
    let tier3 = Tail::of(&pass.by_bucket[2]);
    report.metric("server.tier3_p99_us", tier3.value, "us");
    report.note(format!("server.tier3_p99_us is {}", tier3.label()));

    report.metric(
        "canonical.graph_key_us",
        probes::graph_key_us(&stream.sample_graphs),
        "us",
    );
    let lines: Vec<&String> = stream
        .requests
        .iter()
        .take(PROBE_LINES)
        .map(|r| &r.line)
        .collect();
    report.metric(
        "wire.decode_predict_us",
        probes::per_line_us(&lines, |l| {
            std::hint::black_box(wire::decode_predict(l).ok());
        }),
        "us",
    );
    let answers: Vec<wire::Predicted> = pass
        .answers
        .iter()
        .filter_map(|a| wire::decode_predicted(a).ok())
        .collect();
    report.metric(
        "wire.encode_predicted_us",
        probes::per_line_us(&answers, |a| {
            std::hint::black_box(wire::encode_predicted(a));
        }),
        "us",
    );
    report.metric("ml.train_ms", pass.train_s * 1e3, "ms");
    report.metric(
        "ml.predict_us",
        probes::ml_predict_us(&pass.predictor, &[2, 3, 4]),
        "us",
    );
    report.metric(
        "model.load_ms",
        probes::model_load_ms(&model_path(ctx), master_seed(ctx.seed))?,
        "ms",
    );
    tracer.close(probes_id, "phase.probes", root, 0, probes_start);
    Ok((
        cycle.digest,
        cycle.setup_s.iter().sum::<f64>() + cycle.pass_s,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_pure_function_of_the_seed() {
        let a = stream(7, 50, 400);
        let b = stream(7, 50, 400);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, stream(8, 50, 400).requests);
    }

    #[test]
    fn stream_classes_are_distinct_and_expectations_follow_the_tiers() {
        let s = stream(3, 40, 600);
        let mut seen = BTreeSet::new();
        let mut deep = BTreeSet::new();
        for r in &s.requests {
            let request = wire::decode_predict(&r.line).expect("stream lines decode");
            assert_eq!(request.id, r.id);
            assert_eq!(request.depth, r.depth);
            let expected = if r.depth > 1 && !deep.insert((r.class, r.depth)) {
                Expect::Memo
            } else if seen.insert(r.class) {
                Expect::Fresh(AnswerTier::WarmStart)
            } else if r.depth == 1 {
                Expect::Fresh(AnswerTier::CachedExact)
            } else {
                Expect::Fresh(AnswerTier::Model)
            };
            assert_eq!(r.expect, expected);
        }
        // Repeats of one class are relabelled, yet share one canonical key.
        let first = &s.requests[0];
        let same: Vec<_> = s
            .requests
            .iter()
            .filter(|r| r.class == first.class)
            .collect();
        assert!(same.len() > 1);
        let key =
            |r: &Request| qaoa::canonical::graph_key(&wire::decode_predict(&r.line).unwrap().graph);
        assert!(same.iter().all(|r| key(r) == key(first)));
    }
}
