//! `perfbench` — the end-to-end and per-layer benchmark of the QAOA
//! pipeline.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --bin-dir DIR --work-dir DIR
//! ```
//!
//! Workloads: `sweep_exact_n12`, `predict_zipf_n8`, `shard_spawn_n8`,
//! `noisy_n6` (see `workloads/`). With `--trace 0` the named workload runs
//! untraced for about `--seconds` and the end-to-end metrics are printed;
//! with `--trace 1` every workload runs once untraced and once traced and
//! the per-layer metrics are printed. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--bin-dir` holds the repository's `qaoa-serve` and `qaoa-predict`
//! release binaries; `--work-dir` receives model files and the span dump.
//! `run.py` builds everything and passes both.

mod probes;
mod report;
mod stats;
mod sys;
mod timing;
mod trace;
mod workloads;
mod zipf;

use std::path::PathBuf;

use workloads::{Ctx, Workload};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     --bin-dir DIR --work-dir DIR";

struct Args {
    workload: Workload,
    trace: bool,
    ctx: Ctx,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut work_dir = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        trace: trace.unwrap_or(false),
        ctx: Ctx {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            bin_dir: bin_dir.ok_or_else(|| missing("--bin-dir"))?,
            work_dir: work_dir.ok_or_else(|| missing("--work-dir"))?,
        },
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.ctx.work_dir) {
        eprintln!(
            "perfbench: cannot create {}: {e}",
            args.ctx.work_dir.display()
        );
        std::process::exit(2);
    }
    let result = if args.trace {
        workloads::run_traced(&args.ctx)
    } else {
        workloads::run(args.workload, &args.ctx)
    };
    match result {
        Ok(report) => {
            report.print();
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}
