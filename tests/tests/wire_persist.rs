//! Integration tests for the wire codec, cache persistence, and the job
//! server: encode→decode identity (property-tested), cold-write/warm-read
//! cache files, corrupt/stale fallback, and end-to-end serve sessions.

mod common;

use common::temp_path;
use engine::persist::{self, LoadStatus};
use engine::{wire, BatchConfig, Engine, Job, Level1Cache, Level1Key};
use graphs::generators;
use optimize::{Lbfgsb, Termination};
use proptest::prelude::*;
use qaoa::canonical::graph_key;
use qaoa::datagen::OptimalRecord;
use qaoa::InstanceOutcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn termination_from(index: usize) -> Termination {
    [
        Termination::FtolSatisfied,
        Termination::GtolSatisfied,
        Termination::StepSizeZero,
        Termination::MaxIterations,
        Termination::MaxCalls,
        Termination::NonFinite,
    ][index % 6]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Canonical keys survive the wire bit-for-bit inside a cache entry,
    /// hash included.
    #[test]
    fn key_encode_decode_identity(seed in 0u64..10_000, n in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_nonempty(n, 0.5, &mut rng);
        let key = Level1Key { class: graph_key(&g), restarts: 3, solver: seed };
        let outcome = InstanceOutcome {
            params: vec![0.5, 0.25],
            expectation: 1.0,
            approximation_ratio: 0.5,
            function_calls: 1,
            gradient_calls: 0,
            termination: Termination::GtolSatisfied,
        };
        let (decoded, _) = wire::decode_entry(&wire::encode_entry(&key, &outcome))
            .expect("round trip");
        prop_assert_eq!(&decoded, &key);
        prop_assert_eq!(decoded.class.hash64(), key.class.hash64());
    }

    /// Corpus records survive the wire with bit-exact floats. A record's
    /// depth is its angle count per kind, as the decoder requires.
    #[test]
    fn record_encode_decode_identity(
        graph_id in 0usize..1000,
        fc in 0usize..100_000,
        values in proptest::collection::vec(-1.0e3f64..1.0e3, 2..14),
    ) {
        let p = values.len() / 2;
        let record = OptimalRecord {
            graph_id,
            depth: p,
            gammas: values[..p].to_vec(),
            betas: values[p..2 * p].to_vec(),
            expectation: values[0] * 1.0e-17,
            approximation_ratio: values[p] / 1.0e3,
            function_calls: fc,
        };
        let back = wire::decode_record(&wire::encode_record(&record)).expect("round trip");
        prop_assert_eq!(back.graph_id, record.graph_id);
        prop_assert_eq!(back.depth, record.depth);
        prop_assert_eq!(back.function_calls, record.function_calls);
        prop_assert_eq!(back.gammas.len(), record.gammas.len());
        for (a, b) in record.gammas.iter().zip(&back.gammas) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in record.betas.iter().zip(&back.betas) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(back.expectation.to_bits(), record.expectation.to_bits());
        prop_assert_eq!(
            back.approximation_ratio.to_bits(),
            record.approximation_ratio.to_bits()
        );
    }

    /// Instance outcomes survive the wire — every termination variant, and
    /// float payloads from raw bit patterns (subnormals, infinities, NaN
    /// included: the codec moves bits, not decimal renderings).
    #[test]
    fn outcome_encode_decode_identity(
        bits in proptest::collection::vec(0u64..u64::MAX, 2..10),
        fc in 0usize..100_000,
        gc in 0usize..10_000,
        term in 0usize..6,
    ) {
        let outcome = InstanceOutcome {
            params: bits.iter().map(|&b| f64::from_bits(b)).collect(),
            expectation: f64::from_bits(bits[0].rotate_left(17)),
            approximation_ratio: f64::from_bits(bits[1].rotate_left(31)),
            function_calls: fc,
            gradient_calls: gc,
            termination: termination_from(term),
        };
        let back = wire::decode_outcome(&wire::encode_outcome(&outcome)).expect("round trip");
        prop_assert_eq!(back.params.len(), outcome.params.len());
        for (a, b) in outcome.params.iter().zip(&back.params) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(back.expectation.to_bits(), outcome.expectation.to_bits());
        prop_assert_eq!(
            back.approximation_ratio.to_bits(),
            outcome.approximation_ratio.to_bits()
        );
        prop_assert_eq!(back.function_calls, outcome.function_calls);
        prop_assert_eq!(back.gradient_calls, outcome.gradient_calls);
        prop_assert_eq!(back.termination, outcome.termination);
    }

    /// Jobs survive the wire with their full weighted graph.
    #[test]
    fn job_encode_decode_identity(
        seed in 0u64..10_000,
        n in 2usize..8,
        depth in 1usize..5,
        restarts in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = generators::erdos_renyi_nonempty(n, 0.6, &mut rng);
        // Reweight some edges so weights actually travel.
        let reweighted: Vec<(usize, usize, f64)> = graph
            .edges()
            .iter()
            .map(|e| (e.u, e.v, rng.gen_range(0.25..4.0)))
            .collect();
        let mut g = graphs::Graph::new(n);
        for (u, v, w) in reweighted {
            g.add_weighted_edge(u, v, w).unwrap();
        }
        graph = g;
        let job = Job::new(graph, depth, restarts);
        let back = wire::decode_job(&wire::encode_job(&job).expect("encode")).expect("round trip");
        prop_assert_eq!(back.depth, job.depth);
        prop_assert_eq!(back.restarts, job.restarts);
        prop_assert_eq!(&back.graph, &job.graph);
    }
}

/// The acceptance scenario: a cold run writes the cache file; a warm run —
/// at one worker *and* at four — serves every depth-1 solve from it, with
/// schedule-independent hit counts and bit-identical outcomes.
#[test]
fn cold_run_writes_warm_run_hits_without_solving() {
    let path = temp_path("warm");
    std::fs::remove_file(&path).ok();
    let jobs: Vec<Job> = common::fixture_graphs(6, 5, 33)
        .into_iter()
        .map(|g| Job::new(g, 1, 2))
        .collect();
    let config = BatchConfig::default();
    let optimizer = Lbfgsb::default();

    // Cold: all classes solved here, then persisted.
    let cold = Engine::new(2);
    assert_eq!(persist::load_into(cold.cache(), &path), LoadStatus::Missing);
    let (cold_outcomes, cold_report) = cold.run_batch(&optimizer, &jobs, &config).unwrap();
    assert!(cold_report.cache_misses > 0, "cold run must actually solve");
    let classes = cold.cache().len();
    persist::save_merge(cold.cache(), &path).unwrap();

    let mut warm_hit_counts = Vec::new();
    for threads in [1, 4] {
        let warm = Engine::new(threads);
        assert_eq!(
            persist::load_into(warm.cache(), &path),
            LoadStatus::Loaded(classes)
        );
        let (outcomes, report) = warm.run_batch(&optimizer, &jobs, &config).unwrap();
        assert_eq!(
            report.cache_misses, 0,
            "warm run at {threads} threads must not solve depth 1"
        );
        assert_eq!(report.cache_hits, jobs.len());
        assert_eq!(warm.cache().misses(), 0);
        warm_hit_counts.push(report.cache_hits);
        for (a, b) in cold_outcomes.iter().zip(&outcomes) {
            assert_eq!(a.params, b.params, "warm outcome must be bit-identical");
            assert_eq!(a.expectation.to_bits(), b.expectation.to_bits());
            assert_eq!(a.function_calls, b.function_calls);
        }
    }
    assert_eq!(
        warm_hit_counts[0], warm_hit_counts[1],
        "hits are schedule-independent"
    );
    std::fs::remove_file(&path).ok();
}

/// Regression for the warm-run purity bug: a cache file written by a
/// `restarts = 2` run must NOT serve a `restarts = 3` run's depth-1
/// solves. Entries are keyed on every input of the solve, so the warm run
/// re-solves under its own budget, returns exactly the bits a cold run
/// would, and the merged file ends up holding both variants.
#[test]
fn warm_run_with_different_restarts_re_solves() {
    let path = temp_path("restarts");
    std::fs::remove_file(&path).ok();
    let graph = generators::cycle(5);
    let jobs_r2 = vec![Job::new(graph.clone(), 1, 2)];
    let jobs_r3 = vec![Job::new(graph, 1, 3)];
    let config = BatchConfig::default();
    let optimizer = Lbfgsb::default();

    // Run 1 (restarts = 2) persists its entry.
    let first = Engine::new(1);
    first.run_batch(&optimizer, &jobs_r2, &config).unwrap();
    persist::save_merge(first.cache(), &path).unwrap();

    // Cold reference for restarts = 3 — what a warm run must reproduce.
    let (reference, _) = Engine::new(1)
        .run_batch(&optimizer, &jobs_r3, &config)
        .unwrap();

    // Run 2 (restarts = 3) warm from run 1's file: the foreign-restarts
    // entry loads but must never be served.
    let warm = Engine::new(1);
    assert_eq!(
        persist::load_into(warm.cache(), &path),
        LoadStatus::Loaded(1)
    );
    let (outcomes, report) = warm.run_batch(&optimizer, &jobs_r3, &config).unwrap();
    assert_eq!(report.cache_hits, 0, "restarts=2 entry must not serve r=3");
    assert_eq!(report.cache_misses, 1);
    assert_eq!(outcomes[0].params, reference[0].params);
    assert_eq!(
        outcomes[0].expectation.to_bits(),
        reference[0].expectation.to_bits()
    );
    assert_eq!(outcomes[0].function_calls, reference[0].function_calls);

    // The merged file now carries both restart variants of the class.
    persist::save_merge(warm.cache(), &path).unwrap();
    let reload = Level1Cache::new();
    assert_eq!(persist::load_into(&reload, &path), LoadStatus::Loaded(2));
    std::fs::remove_file(&path).ok();
}

/// Corrupt, truncated, and version- or numerics-stale cache files are
/// discarded — the run proceeds cold and the next save regenerates a
/// loadable file. A file written under another seed is not stale: its
/// entry loads, but it is never served to a lookup at this seed, which
/// re-solves to the cold run's bits.
#[test]
fn corrupt_or_stale_cache_file_regenerates() {
    let path = temp_path("fallback");
    let config = BatchConfig::default();
    let optimizer = Lbfgsb::default();
    let graph = generators::cycle(5);
    let key_at = |master_seed: u64| {
        let config = BatchConfig {
            master_seed,
            ..BatchConfig::default()
        };
        Level1Key::for_solve(&graph, &optimizer, 2, &config)
    };
    let key = key_at(config.master_seed);
    let entry = InstanceOutcome {
        params: vec![0.1, 0.2],
        expectation: 1.0,
        approximation_ratio: 1.0,
        function_calls: 3,
        gradient_calls: 0,
        termination: Termination::FtolSatisfied,
    };
    let file_with = |key: &Level1Key| {
        let cache = Level1Cache::new();
        cache.insert(key.clone(), entry.clone());
        let tmp = temp_path("fallback_good");
        std::fs::remove_file(&tmp).ok();
        persist::save_merge(&cache, &tmp).unwrap();
        let text = std::fs::read_to_string(&tmp).unwrap();
        std::fs::remove_file(&tmp).ok();
        text
    };
    let good = file_with(&key);
    let cases: Vec<(&str, String)> = vec![
        (
            "binary garbage",
            "\u{1}\u{2}\u{3} not text protocol\n".into(),
        ),
        ("truncated mid-entry", good[..good.len() - 10].into()),
        (
            "stale version (seed-scoped, no solver field)",
            good.replacen("QCACHE3", "QCACHE2", 1),
        ),
        (
            "other numerics",
            good.replacen("numerics=v3", "numerics=v2", 1),
        ),
        ("wrong wire version", good.replace("QW1 ENTRY", "QW9 ENTRY")),
    ];
    for (what, text) in cases {
        std::fs::write(&path, text).unwrap();
        let cache = Level1Cache::new();
        let status = persist::load_into(&cache, &path);
        assert!(
            matches!(status, LoadStatus::Discarded(_)),
            "{what}: expected Discarded, got {status:?}"
        );
        assert!(cache.is_empty(), "{what}: nothing may leak into the cache");
        // Regeneration: save over the bad file, reload cleanly.
        cache.insert(key.clone(), entry.clone());
        persist::save_merge(&cache, &path).unwrap();
        let reload = Level1Cache::new();
        assert_eq!(persist::load_into(&reload, &path), LoadStatus::Loaded(1));
    }

    // Foreign seed: the seed-999 entry loads, the seed-2020 job misses it
    // and returns exactly what a cold engine returns.
    std::fs::write(&path, file_with(&key_at(999))).unwrap();
    let jobs = vec![Job::new(graph.clone(), 1, 2)];
    let (cold, _) = Engine::new(1)
        .run_batch(&optimizer, &jobs, &config)
        .unwrap();
    let warm = Engine::new(1);
    assert_eq!(
        persist::load_into(warm.cache(), &path),
        LoadStatus::Loaded(1)
    );
    let (served, report) = warm.run_batch(&optimizer, &jobs, &config).unwrap();
    assert_eq!((report.cache_hits, report.cache_misses), (0, 1));
    assert_eq!(served[0].params, cold[0].params);
    assert_ne!(served[0].params, entry.params);
    assert_eq!(
        served[0].expectation.to_bits(),
        cold[0].expectation.to_bits()
    );
    assert_eq!(served[0].function_calls, cold[0].function_calls);
    std::fs::remove_file(&path).ok();
}

/// End-to-end serve session: two piped jobs yield two ordered outcomes and
/// a report, and a second session warmed from the first's cache file
/// re-serves the same bits without solving.
#[test]
fn serve_session_round_trips_jobs_and_reuses_the_cache_file() {
    let path = temp_path("serve");
    std::fs::remove_file(&path).ok();
    let input = "QW1 JOB 1 2 5 0-1,1-2,2-3,3-4,4-0\nQW1 JOB 1 2 5 1-3,3-0,0-4,4-2,2-1\n";
    let config = BatchConfig::default();
    let optimizer = Lbfgsb::default();

    let run_session = |warm_from: Option<&std::path::Path>| {
        let engine = Engine::new(2);
        if let Some(p) = warm_from {
            assert!(matches!(
                persist::load_into(engine.cache(), p),
                LoadStatus::Loaded(_)
            ));
        }
        let mut out = Vec::new();
        let summary = engine::server::serve(
            std::io::Cursor::new(input),
            &mut out,
            &engine,
            &optimizer,
            &config,
        )
        .unwrap();
        persist::save_merge(engine.cache(), &path).unwrap();
        (String::from_utf8(out).unwrap(), summary)
    };

    let (cold_out, cold_summary) = run_session(None);
    let outcomes: Vec<&str> = cold_out
        .lines()
        .filter(|l| l.starts_with("QW1 OUTCOME"))
        .collect();
    assert_eq!(outcomes.len(), 2);
    // The two jobs are relabelings of one 5-cycle: one solve, one hit, and
    // identical outcome lines.
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(cold_summary.cache_misses, 1);
    assert_eq!(cold_summary.cache_hits, 1);

    let (warm_out, warm_summary) = run_session(Some(&path));
    assert_eq!(warm_summary.cache_misses, 0, "warm session must not solve");
    assert_eq!(warm_summary.cache_hits, 2);
    // Outcome lines are bit-identical warm or cold (the REPORT line differs
    // only in wall time and hit/miss accounting).
    let warm_outcomes: Vec<&str> = warm_out
        .lines()
        .filter(|l| l.starts_with("QW1 OUTCOME"))
        .collect();
    assert_eq!(warm_outcomes, outcomes);
    std::fs::remove_file(&path).ok();
}
