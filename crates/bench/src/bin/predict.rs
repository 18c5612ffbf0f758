//! `qaoa-predict` — the train-once / predict-many prediction service.
//!
//! Two subcommands split the paper's cost asymmetry at the process
//! boundary:
//!
//! * `qaoa-predict train --out model.qm [flags]` — generate the corpus
//!   (hundreds of QAOA optimizations, amortized through the engine and the
//!   optional `--cache-file`), train the GPR parameter predictor on it, and
//!   persist the result as a versioned `QMODEL2` artifact (atomic write).
//! * `qaoa-predict serve --model model.qm [--cache-file PATH] [flags]` —
//!   load the artifact (retraining and overwriting it if missing, corrupt,
//!   or stale — never fatal) and answer `QW1 PREDICT ...` lines from stdin
//!   with tiered `QW1 PREDICTED ...` replies on stdout:
//!
//!   | tier | answer                    | when                               |
//!   |------|---------------------------|------------------------------------|
//!   | 1    | cached exact optimum      | depth-1 request, class in cache    |
//!   | 2    | model prediction          | deeper request, class in cache     |
//!   | 3    | optimize with warm start  | class not yet cached               |
//!
//!   The serve loop is the full job server (`JOB`/`RUN`/`SHARD`/`RANGE`
//!   still work); per-tier request counts and latency go to stderr only, so
//!   transcripts stay bit-identical across runs and thread counts.
//!
//! Run:
//! ```text
//! cargo run --release -p bench --bin qaoa-predict -- train --quick --out model.qm
//! printf 'QW1 PREDICT 1 3 3 5 0-1,1-2,2-3,3-4,4-0\n' \
//!   | cargo run --release -p bench --bin qaoa-predict -- serve --quick --model model.qm
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "a binary may stop on an unrecoverable startup error; the no-panic rule guards library code"
)]

use std::path::PathBuf;

use engine::BatchConfig;
use optimize::Lbfgsb;

use bench::{cli, RunConfig};

/// Subcommand usage preamble printed above the shared flag reference.
const PREDICT_USAGE: &str = "\
usage: qaoa-predict train --out PATH [flags]   train and save a QMODEL2 artifact
       qaoa-predict serve --model PATH [flags] answer PREDICT requests from stdin
";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{PREDICT_USAGE}\n{}", cli::USAGE);
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.first().map(String::as_str) {
        Some("train") => {
            args.remove(0);
            Mode::Train
        }
        Some("serve") => {
            args.remove(0);
            Mode::Serve
        }
        Some("--help" | "-h") | None => {
            println!("{PREDICT_USAGE}\n{}", cli::USAGE);
            std::process::exit(0);
        }
        Some(other) => usage_error(&format!("unknown subcommand {other} (train or serve)")),
    };
    let config = match cli::parse_args(args) {
        Ok(cli::Parsed::Run(config)) => *config,
        Ok(cli::Parsed::Help) => {
            println!("{PREDICT_USAGE}\n{}", cli::USAGE);
            std::process::exit(0);
        }
        Err(msg) => usage_error(&msg),
    };
    match mode {
        Mode::Train => train(&config),
        Mode::Serve => serve(&config),
    }
}

enum Mode {
    Train,
    Serve,
}

/// Resolves where `train` writes: `--out` (the documented spelling), with
/// `--model` accepted as an alias so a single flag set works for both
/// subcommands.
fn train_path(config: &RunConfig) -> PathBuf {
    match config.out.clone().or_else(|| config.model.clone()) {
        Some(path) => path,
        None => usage_error("train needs --out PATH (where to write the model artifact)"),
    }
}

fn train(config: &RunConfig) {
    let path = train_path(config);
    let predictor = config.train_predictor();
    match engine::model::save(&predictor, &path, config.seed) {
        Ok(()) => eprintln!(
            "# qaoa-predict: saved {} model (max depth {}) to {}",
            predictor.kind(),
            predictor.max_depth(),
            path.display()
        ),
        Err(e) => {
            eprintln!("error: could not save model to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn serve(config: &RunConfig) {
    let Some(path) = config.model.clone() else {
        usage_error("serve needs --model PATH (a QMODEL2 artifact; train one first)");
    };
    let status = engine::model::load(&path, config.seed);
    eprintln!("# model {}: {}", path.display(), status.summary());
    let predictor = match status {
        engine::ModelLoad::Loaded(predictor) => predictor,
        // Missing or discarded: retrain and overwrite, per the artifact's
        // discard-and-retrain failure policy.
        engine::ModelLoad::Missing | engine::ModelLoad::Discarded(_) => {
            let predictor = config.train_predictor();
            match engine::model::save(&predictor, &path, config.seed) {
                Ok(()) => eprintln!(
                    "# qaoa-predict: retrained and saved {} model to {}",
                    predictor.kind(),
                    path.display()
                ),
                // The artifact is an optimization; serve from memory anyway.
                Err(e) => eprintln!("# warning: could not save model to {}: {e}", path.display()),
            }
            predictor
        }
    };

    let engine = config.engine();
    let batch_config = BatchConfig {
        master_seed: config.seed,
        options: Default::default(),
    };
    eprintln!(
        "# qaoa-predict: {} threads, master seed {}, {} model (max depth {}); \
         reading QW1 lines from stdin",
        engine.threads(),
        config.seed,
        predictor.kind(),
        predictor.max_depth()
    );

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let summary = match engine::server::serve_with_model(
        stdin.lock(),
        stdout.lock(),
        &engine,
        &Lbfgsb::default(),
        &batch_config,
        Some(&predictor),
    ) {
        Ok(summary) => summary,
        Err(e) => {
            // Transport death (closed pipe etc.) — still try to keep the
            // cache entries computed so far.
            config.persist_level1(engine.cache());
            eprintln!("error: transport failed: {e}");
            std::process::exit(1);
        }
    };
    config.persist_level1(engine.cache());
    eprintln!("# qaoa-predict: {summary}");
    for line in summary.predict_report().lines() {
        eprintln!("# {line}");
    }
}
