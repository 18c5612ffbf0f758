//! `shard_spawn_n8`: `engine::shard::run_streaming` over
//! `SubprocessTransport` with two `qaoa-serve --threads 1` workers. The
//! corpus is n=8, 256 graphs, depths 1..4, 3 restarts, cut into 128 ranges
//! of 2 graphs, so coordinator, transport and per-range overhead dominate.
//! The unit operation is one range, timed from `RANGE` sent to `DONE`
//! received by a decorator around the transport.

use std::time::Instant;

use engine::{corpus, Engine, ShardPlan, ShardTransport, StreamOptions, SubprocessTransport};
use qaoa::datagen::{DataGenConfig, OptimalRecord};

use super::{derive, measure, repeat_setup, since, Ctx, Cycle, THREADS};
use crate::probes;
use crate::report::Report;
use crate::stats::{median, percentile_of, Digest};
use crate::sys;
use crate::timing::{RangeTiming, TimedTransport};
use crate::trace::Tracer;

const WORKERS: usize = 2;
const RANGES: usize = 128;
/// Set-ups per cycle: spawning both workers takes a few milliseconds.
const SETUPS: usize = 3;

pub fn inputs(seed: u64) -> DataGenConfig {
    DataGenConfig {
        n_graphs: 256,
        n_nodes: 8,
        edge_probability: 0.5,
        max_depth: 4,
        restarts: 3,
        seed: derive(seed, 41),
        options: Default::default(),
        trend_preference_margin: 1e-3,
    }
}

/// Digest of records in order; also checks each `(graph, depth)` comes
/// exactly once, in global order.
struct Merge {
    digest: Digest,
    next: usize,
    max_depth: usize,
    problems: Vec<String>,
}

impl Merge {
    fn new(max_depth: usize) -> Self {
        Merge {
            digest: Digest::default(),
            next: 0,
            max_depth,
            problems: Vec::new(),
        }
    }

    fn push(&mut self, record: &OptimalRecord) {
        let (graph, depth) = (self.next / self.max_depth, self.next % self.max_depth + 1);
        if (record.graph_id, record.depth) != (graph, depth) && self.problems.len() < 5 {
            self.problems.push(format!(
                "record {} is (graph {}, depth {}), expected (graph {graph}, depth {depth})",
                self.next, record.graph_id, record.depth
            ));
        }
        self.next += 1;
        self.digest
            .add(engine::wire::encode_record(record).as_bytes());
    }
}

pub struct Pass {
    pub stream_s: f64,
    pub ranges: Vec<RangeTiming>,
    pub dispatch_gaps: Vec<f64>,
    pub recv_timeouts: usize,
    pub recv_wait_s: f64,
    pub unread_s: Vec<f64>,
    pub record_lines: Vec<String>,
    pub first_line_s: Vec<f64>,
    pub report: engine::ShardReport,
}

fn spawn_workers(ctx: &Ctx) -> Result<SubprocessTransport, String> {
    // Each worker gets a core of its own, so the two never share one
    // while the other core idles.
    let cpus = sys::cpu_list();
    let commands: Vec<Vec<String>> = (0..WORKERS)
        .map(|w| {
            let mut command: Vec<String> = Vec::new();
            if let Some(cpu) = cpus.get(w % cpus.len().max(1)) {
                command.extend(["taskset".into(), "-c".into(), cpu.to_string()]);
            }
            command.extend([
                ctx.bin_dir.join("qaoa-serve").display().to_string(),
                "--threads".into(),
                "1".into(),
            ]);
            command
        })
        .collect();
    let mut workers =
        SubprocessTransport::spawn_each(&commands).map_err(|e| format!("spawning workers: {e}"))?;
    // The first answer from each: an empty batch flush, which leaves no
    // state behind.
    for w in 0..WORKERS {
        workers
            .send_line(w, &engine::wire::encode_run())
            .map_err(|e| format!("worker {w}: {e}"))?;
    }
    for w in 0..WORKERS {
        let line = workers
            .recv_line(w, std::time::Duration::from_secs(30))
            .map_err(|e| format!("worker {w} never answered: {e}"))?;
        if !line.starts_with("QW1 REPORT ") {
            return Err(format!("worker {w} answered `{line}` to RUN"));
        }
    }
    Ok(workers)
}

fn cycle(
    ctx: &Ctx,
    config: &DataGenConfig,
    tracer: &Tracer,
    parent: u64,
) -> Result<Cycle<Pass>, String> {
    let (workers, setup_s) = repeat_setup(SETUPS, || {
        tracer.span("phase.setup", parent, 0, |_| spawn_workers(ctx))
    })?;

    let plan = ShardPlan::split_even(config.n_graphs, RANGES);
    let mut timed = TimedTransport::new(workers);
    let mut merge = Merge::new(config.max_depth);
    let stream_id = tracer.open();
    let stream_start = Instant::now();
    let outcome = engine::shard::run_streaming(
        config,
        &plan,
        &mut timed,
        &StreamOptions::default(),
        &mut |record| {
            merge.push(&record);
            Ok(())
        },
    );
    let stream_s = since(stream_start);
    tracer.close(stream_id, "phase.stream", parent, 0, stream_start);
    let report = outcome.map_err(|e| format!("sharded corpus failed: {e}"))?;

    tracer.span("phase.verify", parent, 0, |_| {
        let mut problems = std::mem::take(&mut merge.problems);
        let cells = config.n_graphs * config.max_depth;
        if merge.next != cells {
            problems.push(format!("{} records merged, expected {cells}", merge.next));
        }
        let carried: usize = timed.ranges.iter().map(|r| r.records).sum();
        if timed.ranges.len() != RANGES || carried != cells {
            problems.push(format!(
                "{} ranges carried {carried} records",
                timed.ranges.len()
            ));
        }
        if (0..WORKERS).any(|w| timed.ranges.iter().all(|r| r.worker != w)) {
            problems.push("a worker served no range".into());
        }
        for (i, r) in timed.ranges.iter().enumerate() {
            tracer.record(
                tracer.open(),
                "shard.range",
                stream_id,
                i as u64 + 1,
                r.sent,
                r.done,
            );
        }
        Ok(Cycle {
            setup_s,
            pass_s: stream_s,
            ops_us: timed.ranges.iter().map(|r| r.seconds() * 1e6).collect(),
            attempted: RANGES as u64,
            failed: report.lost_workers as u64,
            digest: merge.digest.value(),
            problems,
            extra: Pass {
                stream_s,
                first_line_s: timed
                    .ranges
                    .iter()
                    .map(|r| r.first_line.duration_since(r.sent).as_secs_f64())
                    .collect(),
                ranges: std::mem::take(&mut timed.ranges),
                dispatch_gaps: std::mem::take(&mut timed.dispatch_gaps),
                recv_timeouts: timed.recv_timeouts,
                recv_wait_s: timed.recv_wait.as_secs_f64(),
                unread_s: std::mem::take(&mut timed.unread),
                record_lines: std::mem::take(&mut timed.record_lines),
                report,
            },
        })
    })
}

/// Digest of the same corpus solved in-process, the reference the merged
/// records must equal.
fn reference_digest(config: &DataGenConfig) -> Result<u64, String> {
    let (dataset, _) = corpus::generate(config, &Engine::new(THREADS))
        .map_err(|e| format!("in-process reference failed: {e}"))?;
    let mut merge = Merge::new(config.max_depth);
    for record in dataset.records() {
        merge.push(record);
    }
    Ok(merge.digest.value())
}

fn check_reference(config: &DataGenConfig, digest: u64, report: &mut Report) -> Result<(), String> {
    let reference = reference_digest(config)?;
    if reference == digest {
        report.note(format!(
            "merged records equal the in-process reference ({reference:016x})"
        ));
    } else {
        report.fail(format!(
            "merged digest {digest:016x} differs from the in-process reference {reference:016x}"
        ));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let config = inputs(ctx.seed);
    let tracer = Tracer::new(false);
    let mut digest = 0;
    let (mut report, passes) = measure(ctx, RANGES, || {
        let c = cycle(ctx, &config, &tracer, 0)?;
        digest = c.digest;
        Ok(c)
    })?;
    // peak_rss_mb is already taken: the reference below does not count.
    check_reference(&config, digest, &mut report)?;
    let cells = (config.n_graphs * config.max_depth) as f64;
    let rates: Vec<f64> = passes.iter().map(|p| cells / p.stream_s).collect();
    report.note(format!("cells_per_s = {} cells/s", median(&rates)));
    report.note(format!(
        "peak_buffered_records = {}",
        passes
            .iter()
            .map(|p| p.report.peak_buffered_records)
            .max()
            .unwrap_or(0)
    ));
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
    let config = inputs(ctx.seed);
    let cycle = cycle(ctx, &config, tracer, root)?;
    report.attempted += cycle.attempted;
    report.failed += cycle.failed;
    for p in &cycle.problems {
        report.fail(format!("shard_spawn_n8: {p}"));
    }
    if !tracer.enabled() {
        return Ok((
            cycle.digest,
            cycle.setup_s.iter().sum::<f64>() + cycle.pass_s,
        ));
    }
    let probes_start = Instant::now();
    let probes_id = tracer.open();
    check_reference(&config, cycle.digest, report)?;

    let pass = &cycle.extra;
    let range_ms: Vec<f64> = pass.ranges.iter().map(|r| r.seconds() * 1e3).collect();
    report.metric("shard.range_ms_p50", percentile_of(&range_ms, 50.0), "ms");
    report.metric("shard.range_ms_p90", percentile_of(&range_ms, 90.0), "ms");
    let gaps_ms: Vec<f64> = pass.dispatch_gaps.iter().map(|g| g * 1e3).collect();
    report.metric("shard.dispatch_gap_ms", median(&gaps_ms), "ms");
    let unread_ms: Vec<f64> = pass.unread_s.iter().map(|g| g * 1e3).collect();
    report.metric("shard.unread_ms", median(&unread_ms), "ms");
    report.metric("shard.unread_lines", unread_ms.len() as f64, "count");
    report.metric("shard.recv_timeouts", pass.recv_timeouts as f64, "count");
    report.metric("shard.recv_wait_s", pass.recv_wait_s, "s");
    let busy: f64 = pass.ranges.iter().map(RangeTiming::seconds).sum();
    report.metric(
        "shard.worker_util",
        busy / (WORKERS as f64 * pass.stream_s),
        "ratio",
    );
    let first_ms: Vec<f64> = pass.first_line_s.iter().map(|s| s * 1e3).collect();
    report.metric("transport.first_line_ms", median(&first_ms), "ms");
    report.metric(
        "shard.peak_buffered_records",
        pass.report.peak_buffered_records as f64,
        "count",
    );
    report.metric("shard.retasked", pass.report.retasked as f64, "count");
    report.metric(
        "shard.lost_workers",
        pass.report.lost_workers as f64,
        "count",
    );
    report.metric(
        "wire.decode_record_us",
        probes::per_line_us(&pass.record_lines, |l| {
            std::hint::black_box(engine::wire::decode_record(l).ok());
        }),
        "us",
    );
    tracer.close(probes_id, "phase.probes", root, 0, probes_start);
    Ok((
        cycle.digest,
        cycle.setup_s.iter().sum::<f64>() + cycle.pass_s,
    ))
}
