//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the paper
//! (its module docs name which) and accepts the same flags:
//!
//! ```text
//! --quick            CI-scale preset (small ensemble, shallow depths)
//! --nodes N          nodes per graph            (paper: 8)
//! --graphs N         ensemble size              (paper: 330)
//! --restarts N       random inits per instance  (paper: 20)
//! --max-depth N      corpus depth               (paper: 6)
//! --seed N           RNG seed                   (default: 2020)
//! --threads N        engine worker count        (default: all cores)
//! --cache-file PATH  persistent depth-1 cache shared across runs
//! --model PATH       trained QMODEL2 predictor artifact shared across runs
//! ```
//!
//! Parsing is deliberately dependency-free.

use qaoa::datagen::DataGenConfig;

pub mod cli;

/// How `qaoa-shard` runs its shard workers (`--workers`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerMode {
    /// K in-process `qaoa-serve` loops on threads over OS pipes.
    /// `Loopback(1)` is the default single-process run.
    Loopback(usize),
    /// K spawned worker subprocesses (`--worker-cmd`, default `qaoa-serve`)
    /// over stdin/stdout.
    Spawn(usize),
}

impl WorkerMode {
    /// Parses `--workers` values: `loopback:K` or `spawn:K` (K >= 1).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for anything else.
    pub fn parse(value: &str) -> Result<Self, String> {
        let parse_k = |kind: &str, k: &str| -> Result<usize, String> {
            match k.parse::<usize>() {
                Ok(k) if k >= 1 => Ok(k),
                _ => Err(format!(
                    "--workers {kind}:{k}: worker count must be a positive integer"
                )),
            }
        };
        if let Some(k) = value.strip_prefix("loopback:") {
            return Ok(Self::Loopback(parse_k("loopback", k)?));
        }
        if let Some(k) = value.strip_prefix("spawn:") {
            return Ok(Self::Spawn(parse_k("spawn", k)?));
        }
        Err(format!("--workers {value}: expected loopback:K or spawn:K"))
    }
}

/// Scale parameters shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Nodes per problem graph.
    pub nodes: usize,
    /// Number of graphs in the ensemble.
    pub graphs: usize,
    /// Random initializations per instance.
    pub restarts: usize,
    /// Maximum corpus depth.
    pub max_depth: usize,
    /// RNG seed.
    pub seed: u64,
    /// Whether `--quick` was requested.
    pub quick: bool,
    /// Override for the naive protocol's random starts in evaluation
    /// binaries (`None` = same as `restarts`). Lets a cached corpus (keyed
    /// on `restarts`) be reused while scaling evaluation cost separately.
    pub naive_starts: Option<usize>,
    /// Engine worker count (`None` = the machine's available parallelism).
    pub threads: Option<usize>,
    /// Persistent depth-1 optimum cache (`--cache-file`): loaded into every
    /// [`RunConfig::engine`] and saved back by the drivers, so repeated
    /// runs — at any thread count — start with all previously-seen
    /// canonical graph classes already solved.
    pub cache_file: Option<std::path::PathBuf>,
    /// Trained predictor artifact (`--model`): a versioned `QMODEL2` file
    /// `qaoa-predict train` writes and `qaoa-predict serve` / `qaoa-serve`
    /// load to answer `PREDICT` requests without re-training. Missing,
    /// corrupt, or stale files are discarded, never fatal.
    pub model: Option<std::path::PathBuf>,
    /// Corpus shard count (`--shards`, `qaoa-shard`): the ensemble is split
    /// into this many contiguous graph-index ranges, one worker per range.
    /// Output is bit-identical at any value; default 1 (unsharded).
    pub shards: usize,
    /// Output path for the merged corpus TSV (`--out`, `qaoa-shard`);
    /// `None` writes to stdout.
    pub out: Option<std::path::PathBuf>,
    /// Shard worker mode (`--workers`, `qaoa-shard`): K loopback wire
    /// workers (default one) or K spawned subprocesses.
    pub workers: WorkerMode,
    /// Worker command line for spawn mode (`--worker-cmd`, whitespace-split;
    /// `None` = the `qaoa-serve` binary next to the running executable).
    /// `qaoa-shard` appends `--threads`/`--seed` (and a per-worker
    /// `--cache-file`) itself.
    pub worker_cmd: Option<String>,
    /// Coordinator liveness timeout in seconds (`--timeout-secs`): a wire
    /// worker silent this long is declared dead and its range re-tasked.
    pub timeout_secs: u64,
    /// Fault injection for CI (`--kill-worker W`): kill wire worker W after
    /// its first delivered line; the run must still complete bit-identically
    /// via re-tasking.
    pub kill_worker: Option<usize>,
    /// Evaluation scenario: [`Scenario::Sampled`](qaoa::Scenario::Sampled)
    /// from `--shots N` (N measurement shots per objective call),
    /// [`Scenario::Noisy`](qaoa::Scenario::Noisy) from `--noise p1,p2`
    /// (depolarizing gate noise on the density-matrix path), else
    /// [`Scenario::Exact`](qaoa::Scenario::Exact). The flags are mutually
    /// exclusive.
    pub scenario: qaoa::Scenario,
}

impl RunConfig {
    /// The paper's full scale.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            nodes: 8,
            graphs: 330,
            restarts: 20,
            max_depth: 6,
            seed: 2020,
            quick: false,
            naive_starts: None,
            threads: None,
            cache_file: None,
            model: None,
            shards: 1,
            out: None,
            workers: WorkerMode::Loopback(1),
            worker_cmd: None,
            timeout_secs: 30,
            kill_worker: None,
            scenario: qaoa::Scenario::Exact,
        }
    }

    /// CI scale: finishes in seconds.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            nodes: 6,
            graphs: 24,
            restarts: 3,
            max_depth: 4,
            seed: 2020,
            quick: true,
            naive_starts: None,
            threads: None,
            cache_file: None,
            model: None,
            shards: 1,
            out: None,
            workers: WorkerMode::Loopback(1),
            worker_cmd: None,
            timeout_secs: 30,
            kill_worker: None,
            scenario: qaoa::Scenario::Exact,
        }
    }

    /// Parses `args` (without the program name) on top of the paper preset.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or bad values,
    /// and for `--help` (this programmatic entry point has no usage text to
    /// print; binaries go through [`RunConfig::from_env`], which handles
    /// help on stdout with exit 0).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        match cli::parse_args(args)? {
            cli::Parsed::Run(config) => Ok(*config),
            cli::Parsed::Help => Err("--help requested (see bench::cli::USAGE)".into()),
        }
    }

    /// Parses the real process arguments, exiting with a usage message on
    /// error.
    #[must_use]
    pub fn from_env() -> Self {
        cli::from_env()
    }

    /// The corresponding data-generation configuration.
    #[must_use]
    pub fn datagen(&self) -> DataGenConfig {
        DataGenConfig {
            n_graphs: self.graphs,
            n_nodes: self.nodes,
            edge_probability: 0.5,
            max_depth: self.max_depth,
            restarts: self.restarts,
            seed: self.seed,
            options: Default::default(),
            trend_preference_margin: 1e-3,
        }
    }

    /// Random starts for the naive evaluation protocol.
    #[must_use]
    pub fn naive_starts(&self) -> usize {
        self.naive_starts.unwrap_or(self.restarts)
    }

    /// The evaluation scenario selected by `--shots` / `--noise`
    /// ([`Scenario::Exact`](qaoa::Scenario::Exact) when neither is given).
    #[must_use]
    pub fn scenario(&self) -> qaoa::Scenario {
        self.scenario
    }

    /// Engine worker count: `--threads` if given, else the machine's
    /// available parallelism.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Pre-warms `cache` from `--cache-file` (no-op without the flag),
    /// reporting the load status on stderr. A missing, corrupt, or
    /// version-stale file is ignored — the cache simply starts cold and
    /// the file is regenerated by [`RunConfig::persist_level1`].
    pub fn load_level1(&self, cache: &engine::Level1Cache) {
        if let Some(path) = &self.cache_file {
            let status = engine::persist::load_into(cache, path);
            eprintln!("# cache-file {}: {}", path.display(), status.summary());
        }
    }

    /// Saves `cache` back to `--cache-file` (merged with any entries
    /// another process persisted meanwhile). No-op without the flag; a
    /// failed save is a stderr warning, never fatal — the cache is an
    /// optimization.
    pub fn persist_level1(&self, cache: &engine::Level1Cache) {
        let Some(path) = &self.cache_file else {
            return;
        };
        match engine::persist::save_merge(cache, path) {
            Ok(n) => eprintln!(
                "# cache-file {}: saved {n} depth-1 entries ({} hits / {} misses this run)",
                path.display(),
                cache.hits(),
                cache.misses(),
            ),
            Err(e) => eprintln!(
                "# warning: could not save cache-file {}: {e}",
                path.display()
            ),
        }
    }

    /// A batch engine sized by [`RunConfig::threads`], pre-warmed from
    /// `--cache-file` via [`RunConfig::load_level1`].
    #[must_use]
    pub fn engine(&self) -> engine::Engine {
        let engine = engine::Engine::new(self.threads());
        self.load_level1(engine.cache());
        engine
    }

    /// Generates the corpus for this configuration on the parallel engine,
    /// caching it as TSV under `target/` so repeated figure binaries share
    /// the (one-time, §III-A) generation cost. Delete the cache file to
    /// force regeneration.
    ///
    /// With `--cache-file`, the persistent **depth-1 class cache** replaces
    /// the whole-corpus TSV as the cross-run reuse mechanism: the corpus is
    /// regenerated each run (so the run's cache hit/miss accounting is
    /// real and observable), but every depth-1 solve whose canonical class
    /// was seen by *any* earlier run — in this or another process — is
    /// served from the file. The file is then saved back, merged.
    ///
    /// The engine's per-cell deterministic seeding makes the corpus a pure
    /// function of the configuration — the same at any `--threads` value,
    /// warm or cold.
    ///
    /// # Panics
    ///
    /// Panics if generation fails (binaries have no recovery path).
    #[must_use]
    pub fn corpus(&self) -> qaoa::datagen::ParameterDataset {
        // The numerics token keeps corpora from earlier pipelines from
        // being loaded as if equivalent.
        use engine::artifact::NUMERICS;
        self.corpus_cached_at(std::path::Path::new(&format!(
            "target/qaoa_corpus_{NUMERICS}_n{}_g{}_d{}_r{}_s{}.tsv",
            self.nodes, self.graphs, self.max_depth, self.restarts, self.seed
        )))
    }

    /// [`RunConfig::corpus`] with its TSV cache at `cache`. A cache that
    /// does not parse, or whose graph or record count is not this
    /// configuration's (`graphs` and `graphs × max_depth`), is regenerated.
    fn corpus_cached_at(&self, cache: &std::path::Path) -> qaoa::datagen::ParameterDataset {
        use engine::artifact::{self, Load};
        use qaoa::datagen::ParameterDataset;
        if self.cache_file.is_none() {
            let records = self.graphs.checked_mul(self.max_depth);
            let loaded = artifact::read(cache, |text| {
                let ds = ParameterDataset::read_tsv(text.as_bytes()).map_err(|e| e.to_string())?;
                if ds.graphs().len() == self.graphs && Some(ds.records().len()) == records {
                    return Ok(ds);
                }
                Err(format!(
                    "holds {} graphs / {} records, not {} graphs x {} depths",
                    ds.graphs().len(),
                    ds.records().len(),
                    self.graphs,
                    self.max_depth
                ))
            });
            match loaded {
                Load::Loaded(ds) => {
                    eprintln!("# corpus loaded from {}", cache.display());
                    return ds;
                }
                Load::Discarded(why) => eprintln!("# corpus cache {why}; regenerating"),
                Load::Missing => {}
            }
        }
        eprintln!(
            "# generating corpus ({} graphs x depths 1..={}, {} restarts, {} threads)...",
            self.graphs,
            self.max_depth,
            self.restarts,
            self.threads()
        );
        let engine = self.engine();
        let generated = engine::corpus::generate(&self.datagen(), &engine);
        #[expect(
            clippy::expect_used,
            reason = "same policy as train_predictor below: bench binaries have no recovery path from a failed generation run"
        )]
        let (ds, report) = generated.expect("corpus generation");
        eprintln!("# corpus: {}", report.summary());
        self.persist_level1(engine.cache());
        if self.cache_file.is_none() {
            let mut tsv = Vec::new();
            let written = ds.write_tsv(&mut tsv).map_err(std::io::Error::other);
            match written.and_then(|()| artifact::write_atomic(cache, &tsv)) {
                Ok(()) => eprintln!("# corpus cached at {}", cache.display()),
                Err(e) => eprintln!("# warning: could not cache corpus: {e}"),
            }
        }
        ds
    }

    /// Trains the prediction-service regressor on this configuration's
    /// corpus (GPR — the paper's best-performing regressor family). This is
    /// the expensive half of train-once / predict-many; `qaoa-predict`
    /// persists the result as a `QMODEL2` artifact so serving sessions skip
    /// it entirely.
    ///
    /// # Panics
    ///
    /// Panics if training fails (binaries have no recovery path).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "same policy as corpus(): bench binaries have no recovery path from a failed training run"
    )]
    pub fn train_predictor(&self) -> qaoa::ParameterPredictor {
        let corpus = self.corpus();
        eprintln!(
            "# training {} predictor (depths 1..={})...",
            ml::ModelKind::Gpr,
            corpus.max_depth()
        );
        qaoa::ParameterPredictor::train(ml::ModelKind::Gpr, &corpus).expect("predictor training")
    }
}

/// Converts a count, depth or bin index to `f64` for the binaries' summary
/// arithmetic.
///
/// Every count here is bounded by a run's graphs, depths, bins or function
/// calls, far below 2^53, so the conversion is exact.
#[must_use]
#[expect(
    clippy::as_conversions,
    reason = "bench counts are < 2^53 so usize -> f64 is exact here"
)]
pub fn count_f64(n: usize) -> f64 {
    n as f64
}

/// Renders a crude text histogram (used by the distribution figures).
#[must_use]
pub fn text_histogram(values: &[f64], bins: usize, width: usize) -> String {
    if values.is_empty() || bins == 0 {
        return String::from("(no data)\n");
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let bins_f = count_f64(bins);
    let mut counts = vec![0usize; bins];
    for &v in values {
        #[expect(
            clippy::as_conversions,
            reason = "truncating to a bin index is the binning operation itself; the value is clamped to [0, bins-1] first"
        )]
        let b = (((v - lo) / span) * bins_f).clamp(0.0, bins_f - 1.0) as usize;
        counts[b.min(bins - 1)] += 1;
    }
    let peak = *counts.iter().max().unwrap_or(&1);
    let mut out = String::new();
    for (b, &c) in counts.iter().enumerate() {
        let from = lo + span * count_f64(b) / bins_f;
        let to = lo + span * count_f64(b + 1) / bins_f;
        let bar = "#".repeat((c * width).div_ceil(peak.max(1)).min(width));
        out.push_str(&format!("[{from:8.3}, {to:8.3}) {c:5} {bar}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_is_paper_scale() {
        let c = RunConfig::parse(sv(&[])).unwrap();
        assert_eq!(c, RunConfig::paper());
        assert_eq!(c.graphs, 330);
        assert_eq!(c.restarts, 20);
    }

    #[test]
    fn quick_preset_and_overrides() {
        let c = RunConfig::parse(sv(&["--quick", "--graphs", "5", "--seed", "9"])).unwrap();
        assert!(c.quick);
        assert_eq!(c.graphs, 5);
        assert_eq!(c.seed, 9);
        assert_eq!(c.nodes, RunConfig::quick().nodes);
    }

    #[test]
    fn errors_are_reported() {
        assert!(RunConfig::parse(sv(&["--bogus"])).is_err());
        assert!(RunConfig::parse(sv(&["--nodes"])).is_err());
        assert!(RunConfig::parse(sv(&["--nodes", "zero"])).is_err());
        assert!(RunConfig::parse(sv(&["--graphs", "0"])).is_err());
    }

    #[test]
    fn threads_flag() {
        let c = RunConfig::parse(sv(&["--quick", "--threads", "3"])).unwrap();
        assert_eq!(c.threads, Some(3));
        assert_eq!(c.threads(), 3);
        assert_eq!(c.engine().threads(), 3);
        // Zero clamps to one worker.
        let c = RunConfig::parse(sv(&["--threads", "0"])).unwrap();
        assert_eq!(c.threads(), 1);
        // Default: machine parallelism, at least one.
        assert!(RunConfig::paper().threads() >= 1);
    }

    #[test]
    fn datagen_mapping() {
        let c = RunConfig::parse(sv(&["--quick"])).unwrap();
        let d = c.datagen();
        assert_eq!(d.n_graphs, c.graphs);
        assert_eq!(d.n_nodes, c.nodes);
        assert_eq!(d.max_depth, c.max_depth);
    }

    #[test]
    fn truncated_corpus_cache_is_regenerated() {
        let args = "--nodes 4 --graphs 3 --max-depth 2 --restarts 1 --threads 1";
        let config = RunConfig::parse(args.split(' ').map(String::from)).unwrap();
        let dir = std::env::temp_dir().join(format!("bench-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("corpus.tsv");
        let fresh = config.corpus_cached_at(&cache);
        let bytes = std::fs::read(&cache).unwrap();
        let newline_cuts = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1);
        // Cut after a newline (fewer records, then fewer graphs) and inside
        // the last record: each must be regenerated to the same bytes.
        for cut in newline_cuts.rev().skip(1).take(3).chain([bytes.len() - 3]) {
            std::fs::write(&cache, &bytes[..cut]).unwrap();
            let again = config.corpus_cached_at(&cache);
            assert_eq!(again.records().len(), fresh.records().len(), "cut at {cut}");
            assert_eq!(again.graphs(), fresh.graphs(), "cut at {cut}");
            assert_eq!(std::fs::read(&cache).unwrap(), bytes, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn histogram_shape() {
        let h = text_histogram(&[0.0, 0.1, 0.9, 1.0], 2, 10);
        assert_eq!(h.lines().count(), 2);
        assert!(text_histogram(&[], 3, 10).contains("no data"));
    }
}
