//! `qaoa-serve` — the engine's job-server front end.
//!
//! Reads `QW1 JOB ...` lines from stdin, executes them on the parallel
//! engine with deterministic seeding, and streams `QW1 OUTCOME ...` lines
//! back on stdout **in submission order** (plus one `QW1 REPORT ...` line
//! per batch). A `QW1 RUN -` line flushes the pending batch; end of input
//! flushes implicitly. Malformed lines answer `QW1 ERR ...` without
//! killing the loop. See the README's "Job server & persistent cache"
//! section for the wire grammar.
//!
//! With `--cache-file PATH`, the depth-1 optimum cache is pre-warmed from
//! `PATH` at startup and saved back (merged) at shutdown, so repeated
//! server sessions — and the corpus/Table-I drivers sharing the file —
//! never re-solve a known depth-1 solve (canonical graph class, restarts,
//! seed, optimizer and options).
//!
//! With `--model PATH`, a trained `QMODEL2` predictor artifact (written by
//! `qaoa-predict train`) is loaded at startup and `QW1 PREDICT ...` lines
//! are answered with tiered `QW1 PREDICTED ...` replies. A missing or
//! discarded model is a stderr warning, not fatal: the server degrades to
//! answering `PREDICT` with `ERR` (this bin never trains — that is
//! `qaoa-predict`'s job).
//!
//! Run:
//! `printf 'QW1 JOB 1 3 5 0-1,1-2,2-3,3-4,4-0\n' | cargo run --release -p bench --bin qaoa-serve -- --threads 4`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "a binary may stop on an unrecoverable startup error; the no-panic rule guards library code"
)]

use engine::{BatchConfig, Load};
use optimize::Lbfgsb;

use bench::RunConfig;

fn main() {
    let config = RunConfig::from_env();
    let engine = config.engine();
    let batch_config = BatchConfig {
        master_seed: config.seed,
        options: Default::default(),
    };
    // This bin never trains (that is `qaoa-predict`'s job): without a
    // loadable model, PREDICT answers ERR.
    let model = config.model.as_ref().and_then(|path| {
        let why = match engine::model::load(path, config.seed) {
            Load::Loaded(p) => {
                eprintln!(
                    "# model {}: loaded {} model (max depth {})",
                    path.display(),
                    p.kind(),
                    p.max_depth()
                );
                return Some(p);
            }
            Load::Missing => "not found".to_string(),
            Load::Discarded(why) => format!("discarded ({why})"),
        };
        eprintln!(
            "# warning: model {} {why}; PREDICT answers ERR \
             (train one with qaoa-predict train --out)",
            path.display()
        );
        None
    });
    eprintln!(
        "# qaoa-serve: {} threads, master seed {}; reading QW1 lines from stdin",
        engine.threads(),
        config.seed
    );

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let summary = match engine::server::serve_with_model(
        stdin.lock(),
        stdout.lock(),
        &engine,
        &Lbfgsb::default(),
        &batch_config,
        model.as_ref(),
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
    eprintln!("# qaoa-serve: {summary}");
    if summary.predicts > 0 {
        for line in summary.predict_report().lines() {
            eprintln!("# {line}");
        }
    }
}
