//! The four workloads and the pass loop they share.
//!
//! A run of one workload repeats *cycles* — the system's set-up, then one
//! whole pass over the workload's inputs — for about `--seconds`, and at
//! least [`MIN_PASSES`] times. Every pass of a run sees the same
//! inputs, so its output digest must repeat exactly. The end-to-end
//! metrics, the same for every workload:
//!
//! | metric        | meaning                                                    |
//! |---------------|------------------------------------------------------------|
//! | `setup_s`     | set-up of the system under test, median over all set-ups   |
//! | `op_p50_us`   | median cost of the workload's unit operation               |
//! | `peak_rss_mb` | high-water resident set of the benchmark process           |
//!
//! The median pass time (`pass_s`) and the tail of the unit operation
//! (`op_tail_us`, see [`crate::stats`]) are printed beside them. They swing
//! too far between runs on a shared machine to serve as bounded metrics.

pub mod noisy;
pub mod predict;
pub mod shard;
pub mod sweep;

use std::path::PathBuf;
use std::time::Instant;

use crate::report::Report;
use crate::stats::{self, median, Tail};
use crate::sys;
use crate::trace::{self, Tracer, ROOT};

/// Busy threads a workload may use: the benchmark machine's two cores.
pub const THREADS: usize = 2;

/// No pass starts that would end beyond this, whatever `--seconds` asks
/// for, so a run always ends within its time limit.
const HARD_CAP_S: f64 = 120.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepExactN12,
    PredictZipfN8,
    ShardSpawnN8,
    NoisyN6,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepExactN12,
        Workload::PredictZipfN8,
        Workload::ShardSpawnN8,
        Workload::NoisyN6,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepExactN12 => "sweep_exact_n12",
            Workload::PredictZipfN8 => "predict_zipf_n8",
            Workload::ShardSpawnN8 => "shard_spawn_n8",
            Workload::NoisyN6 => "noisy_n6",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What every workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Where the repository's `qaoa-serve` and `qaoa-predict` live.
    pub bin_dir: PathBuf,
    /// Working directory for model files and the span dump.
    pub work_dir: PathBuf,
}

/// A seed for one purpose of one workload, derived from the run's seed
/// (SplitMix64 finalizer).
pub fn derive(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// One set-up plus one pass. `X` carries what the workload reports beyond
/// the shared metrics.
pub struct Cycle<X> {
    /// Every set-up of the cycle; the last one's system ran the pass.
    pub setup_s: Vec<f64>,
    pub pass_s: f64,
    /// Latency of every unit operation of the pass, in microseconds.
    pub ops_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the pass's outputs; equal across passes of one run.
    pub digest: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
    pub extra: X,
}

/// Sets the system up `times` times, timing each, and keeps the last one
/// (earlier ones are dropped, which stops any processes they started).
pub fn repeat_setup<S>(
    times: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        seconds.push(since(start));
    }
    Ok((last.expect("set up at least once"), seconds))
}

/// Passes every run makes, however long they take: two, so the output
/// digest is compared at least once.
const MIN_PASSES: usize = 2;

/// Repeats `cycle` for about `ctx.seconds` (and at least [`MIN_PASSES`]
/// times), then turns the cycles into the end-to-end metrics.
/// `ops_per_pass` unit operations in a pass fix, with [`MIN_PASSES`], which
/// tail percentile is printed, whatever number of passes fits.
pub fn measure<X>(
    ctx: &Ctx,
    ops_per_pass: usize,
    mut cycle: impl FnMut() -> Result<Cycle<X>, String>,
) -> Result<(Report, Vec<X>), String> {
    let start = Instant::now();
    let mut cycles: Vec<Cycle<X>> = Vec::new();
    loop {
        cycles.push(cycle()?);
        // Stop before a cycle of typical length would overrun the budget.
        let elapsed = since(start);
        let mean_cycle = elapsed / cycles.len() as f64;
        let enough = cycles.len() >= MIN_PASSES;
        if enough && elapsed + mean_cycle > ctx.seconds.min(HARD_CAP_S) {
            break;
        }
    }
    let mut report = Report::default();
    let setups: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.setup_s.iter().copied())
        .collect();
    let passes: Vec<f64> = cycles.iter().map(|c| c.pass_s).collect();
    let ops: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.ops_us.iter().copied())
        .collect();
    let tail_q = stats::tail_percentile(ops_per_pass * MIN_PASSES);
    let tail = Tail {
        percentile: tail_q,
        value: stats::percentile_of(&ops, tail_q),
        samples: ops.len(),
    };
    report.metric("setup_s", median(&setups), "s");
    report.metric("op_p50_us", median(&ops), "us");
    report.metric("peak_rss_mb", sys::peak_rss_mb().unwrap_or(0.0), "MiB");
    let each: Vec<String> = passes.iter().map(|p| format!("{p:.3}")).collect();
    report.note(format!(
        "{} passes of {} s; {} set-ups",
        cycles.len(),
        each.join(", "),
        setups.len()
    ));
    report.note(format!("pass_s = {} s (median pass)", median(&passes)));
    report.note(format!("op_tail_us = {} us ({})", tail.value, tail.label()));
    for c in &cycles {
        report.attempted += c.attempted;
        report.failed += c.failed;
        for p in &c.problems {
            report.fail(p.clone());
        }
    }
    let first = cycles[0].digest;
    if cycles.iter().any(|c| c.digest != first) {
        let all: Vec<String> = cycles
            .iter()
            .map(|c| format!("{:016x}", c.digest))
            .collect();
        report.fail(format!(
            "output digest differs between passes: {}",
            all.join(" ")
        ));
    } else {
        report.note(format!("output digest {first:016x} repeated in every pass"));
    }
    Ok((report, cycles.into_iter().map(|c| c.extra).collect()))
}

/// Runs one workload untraced.
pub fn run(workload: Workload, ctx: &Ctx) -> Result<Report, String> {
    match workload {
        Workload::SweepExactN12 => sweep::run(ctx),
        Workload::PredictZipfN8 => predict::run(ctx),
        Workload::ShardSpawnN8 => shard::run(ctx),
        Workload::NoisyN6 => noisy::run(ctx),
    }
}

/// The traced run: every workload once untraced and once traced, so one
/// run yields every per-layer metric whichever workload was named. The
/// difference between the two cycles' set-up plus pass time is reported as
/// tracing overhead; the top-level spans under each workload's root span
/// should account for its wall time.
pub fn run_traced(ctx: &Ctx) -> Result<Report, String> {
    let tracer = Tracer::new(true);
    let mut report = Report::default();
    for workload in Workload::ALL {
        let name = workload.name();
        let untraced = Tracer::new(false);
        let (plain, plain_s) = traced_cycle(workload, ctx, &untraced, ROOT, &mut report)?;

        let root = tracer.open();
        let begun = Instant::now();
        let (traced, traced_s) = traced_cycle(workload, ctx, &tracer, root, &mut report)?;
        tracer.close(root, &format!("workload.{name}"), ROOT, 0, begun);

        if plain != traced {
            report.fail(format!(
                "{name}: traced pass digest {traced:016x} differs from untraced {plain:016x}"
            ));
        }
        report.metric(
            format!("trace.overhead_pct.{name}"),
            100.0 * (traced_s - plain_s) / plain_s,
            "%",
        );
        report.metric(
            format!("trace.phase_coverage.{name}"),
            trace::child_coverage(&tracer.spans(), root),
            "ratio",
        );
    }
    let dump = ctx.work_dir.join(format!("trace-seed{}.tsv", ctx.seed));
    match tracer.write_tsv(&dump) {
        Ok(()) => report.note(format!("spans written to {}", dump.display())),
        Err(e) => report.fail(format!("could not write spans to {}: {e}", dump.display())),
    }
    Ok(report)
}

/// One cycle of `workload`; with an enabled tracer it also adds the
/// workload's per-layer metrics to `report`. Returns the output digest and
/// the seconds of set-up plus pass.
fn traced_cycle(
    workload: Workload,
    ctx: &Ctx,
    tracer: &Tracer,
    root: u64,
    report: &mut Report,
) -> Result<(u64, f64), String> {
    match workload {
        Workload::SweepExactN12 => sweep::traced(ctx, tracer, root, report),
        Workload::PredictZipfN8 => predict::traced(ctx, tracer, root, report),
        Workload::ShardSpawnN8 => shard::traced(ctx, tracer, root, report),
        Workload::NoisyN6 => noisy::traced(ctx, tracer, root, report),
    }
}
