//! Integration tests for the parallel batch-execution engine: the
//! determinism contract (1 worker ≡ N workers, bit-for-bit), the
//! isomorphism cache, and parity between the serial and engine-parallel
//! pipelines.

mod common;

use common::{fixture_graphs, relabeled_cycle5, tiny_datagen};
use engine::{BatchConfig, Engine, Job, Pool};
use graphs::{generators, Graph};
use ml::ModelKind;
use optimize::Lbfgsb;
use qaoa::datagen::ParameterDataset;
use qaoa::evaluation::{self, EvaluationConfig};
use qaoa::{stablehash, ParameterPredictor};

#[test]
fn batch_16_graphs_identical_across_worker_counts() {
    // The ISSUE's headline contract: a 16-graph batch with 1 worker and
    // with N workers produces identical outcomes under a fixed master seed.
    let jobs: Vec<Job> = fixture_graphs(16, 6, 2024)
        .into_iter()
        .enumerate()
        .map(|(i, g)| Job::new(g, 1 + i % 3, 2))
        .collect();
    let config = BatchConfig {
        master_seed: 42,
        ..BatchConfig::default()
    };
    let optimizer = Lbfgsb::default();
    let (reference, _) = Engine::new(1)
        .run_batch(&optimizer, &jobs, &config)
        .expect("serial batch");
    for workers in [2, 4, 8] {
        let (outcomes, report) = Engine::new(workers)
            .run_batch(&optimizer, &jobs, &config)
            .expect("parallel batch");
        assert_eq!(outcomes.len(), reference.len());
        for (i, (a, b)) in reference.iter().zip(&outcomes).enumerate() {
            assert_eq!(
                a.params, b.params,
                "job {i} params differ at {workers} workers"
            );
            assert_eq!(
                a.expectation.to_bits(),
                b.expectation.to_bits(),
                "job {i} expectation differs at {workers} workers"
            );
            assert_eq!(a.function_calls, b.function_calls, "job {i} FC differ");
            assert_eq!(a.termination, b.termination, "job {i} termination differs");
        }
        assert_eq!(report.jobs.len(), 16);
        assert!(report.total_function_calls > 0);
    }
}

#[test]
fn depth1_cache_hits_for_isomorphic_graphs() {
    // Shuffled relabelings of one 6-cycle: one miss, then all hits, and
    // every outcome identical.
    let base = generators::cycle(6);
    let relabelings: Vec<Graph> = vec![
        base.clone(),
        Graph::from_edges(6, &[(3, 5), (5, 1), (1, 0), (0, 4), (4, 2), (2, 3)]).unwrap(),
        Graph::from_edges(6, &[(2, 0), (0, 5), (5, 3), (3, 1), (1, 4), (4, 2)]).unwrap(),
    ];
    let jobs: Vec<Job> = relabelings.into_iter().map(|g| Job::new(g, 1, 3)).collect();
    let eng = Engine::new(4);
    let (outcomes, report) = eng
        .run_batch(&Lbfgsb::default(), &jobs, &BatchConfig::default())
        .expect("batch");
    assert_eq!(report.cache_hits + report.cache_misses, 3);
    assert_eq!(eng.cache().len(), 1, "all three graphs share one class");
    assert!(eng.cache().hits() >= 2);
    for pair in outcomes.windows(2) {
        assert_eq!(pair[0].params, pair[1].params);
        assert_eq!(pair[0].expectation.to_bits(), pair[1].expectation.to_bits());
    }
}

#[test]
fn corpus_generation_identical_across_worker_counts() {
    let config = tiny_datagen(10, 5, 0.5, 2, 2, 7);
    let (serial, serial_report) =
        engine::corpus::generate(&config, &Engine::new(1)).expect("serial corpus");
    let (parallel, parallel_report) =
        engine::corpus::generate(&config, &Engine::new(4)).expect("parallel corpus");
    assert_eq!(serial, parallel, "corpus differs across worker counts");
    assert_eq!(serial_report.cells, 20);
    assert_eq!(parallel_report.threads, 4);
    // Single-flight misses make the hit/miss *counts* — not just the cached
    // values — schedule-independent.
    assert_eq!(serial_report.cache_hits, parallel_report.cache_hits);
}

#[test]
fn corpus_cache_reuses_isomorphic_level1_solves() {
    // An ensemble with known isomorphic duplicates: serial engine order
    // guarantees the later relabelings hit the cache.
    let graphs = vec![
        generators::cycle(5),
        relabeled_cycle5(),
        generators::path(5),
        Graph::from_edges(5, &[(2, 0), (0, 3), (3, 1), (1, 4)]).unwrap(),
    ];
    let config = tiny_datagen(graphs.len(), 5, 0.5, 2, 2, 9);
    let eng = Engine::new(1);
    let (ds, report) = engine::corpus::from_graphs(graphs, &config, &eng).expect("corpus");
    assert_eq!(report.cache_hits, 2, "both relabelings hit their class");
    assert_eq!(eng.cache().len(), 2, "two distinct classes cached");
    // Isomorphic graphs share identical depth-1 records.
    let c5 = ds.record(0, 1).unwrap();
    let c5_relabeled = ds.record(1, 1).unwrap();
    assert_eq!(c5.gammas, c5_relabeled.gammas);
    assert_eq!(c5.betas, c5_relabeled.betas);
    assert_eq!(c5.function_calls, c5_relabeled.function_calls);
}

#[test]
fn library_generator_equals_engine_generator() {
    // One generator: the serial `ParameterDataset` entry points and the
    // engine's fan-out produce the same corpus, bit for bit, function calls
    // included, at any worker count.
    let config = tiny_datagen(6, 6, 0.5, 3, 3, 2020);
    let serial = ParameterDataset::generate(&config).expect("library corpus");
    for threads in [1, 4] {
        let (parallel, _) =
            engine::corpus::generate(&config, &Engine::new(threads)).expect("engine corpus");
        common::assert_corpora_bit_identical(
            &serial,
            &parallel,
            &format!("generate, {threads} threads"),
        );
    }
    // An ensemble with isomorphic duplicates, so the engine serves depth 1
    // from its cache while the library solves every graph.
    let graphs = vec![
        generators::cycle(5),
        generators::path(5),
        relabeled_cycle5(),
        Graph::from_edges(5, &[(2, 0), (0, 3), (3, 1), (1, 4)]).unwrap(),
        generators::cycle(5),
    ];
    let config = tiny_datagen(graphs.len(), 5, 0.5, 3, 2, 9);
    let serial = ParameterDataset::from_graphs(graphs.clone(), &config).expect("library corpus");
    for threads in [1, 4] {
        let (parallel, report) =
            engine::corpus::from_graphs(graphs.clone(), &config, &Engine::new(threads))
                .expect("engine corpus");
        assert_eq!(report.cache_hits, 3, "{threads} threads");
        common::assert_corpora_bit_identical(
            &serial,
            &parallel,
            &format!("from_graphs, {threads} threads"),
        );
    }
}

#[test]
fn corpus_is_never_served_another_solves_depth1_optimum() {
    // The depth-1 cache keys every input of the solve, so what an engine
    // solved before never leaks into a later corpus on the same engine.
    let graphs = vec![generators::cycle(5), generators::path(5)];

    // A Nelder-Mead depth-1 job on C5 (restarts 3, seed 9), then the
    // L-BFGS-B corpus over C5 on the same engine.
    let config = tiny_datagen(graphs.len(), 5, 0.5, 2, 3, 9);
    let eng = Engine::new(1);
    let batch_config = BatchConfig {
        master_seed: config.seed,
        ..BatchConfig::default()
    };
    eng.run_batch(
        &optimize::NelderMead::default(),
        &[Job::new(generators::cycle(5), 1, config.restarts)],
        &batch_config,
    )
    .expect("Nelder-Mead job");
    let (served, report) =
        engine::corpus::from_graphs(graphs.clone(), &config, &eng).expect("engine corpus");
    assert_eq!(
        report.cache_hits, 0,
        "the Nelder-Mead optimum is not served"
    );
    let library = ParameterDataset::from_graphs(graphs.clone(), &config).expect("library corpus");
    common::assert_corpora_bit_identical(&library, &served, "after a Nelder-Mead job");

    // A seed-9 corpus, then a seed-10 corpus on one engine: the second is
    // the seed-10 library corpus, not the seed-9 optima.
    let eng = Engine::new(1);
    engine::corpus::from_graphs(graphs.clone(), &config, &eng).expect("seed-9 corpus");
    let seed10 = tiny_datagen(graphs.len(), 5, 0.5, 2, 3, 10);
    let (served, report) =
        engine::corpus::from_graphs(graphs.clone(), &seed10, &eng).expect("seed-10 corpus");
    assert_eq!(report.cache_hits, 0, "seed-9 optima are not served");
    let library = ParameterDataset::from_graphs(graphs, &seed10).expect("library corpus");
    common::assert_corpora_bit_identical(&library, &served, "seed 10 after seed 9");
}

#[test]
fn corpus_records_have_expected_shape() {
    let config = tiny_datagen(4, 5, 0.6, 3, 2, 3);
    let (ds, report) = engine::corpus::generate(&config, &Engine::new(2)).expect("corpus");
    assert_eq!(ds.graphs().len(), 4);
    assert_eq!(ds.records().len(), 12);
    assert_eq!(ds.max_depth(), 3);
    for r in ds.records() {
        assert_eq!(r.gammas.len(), r.depth);
        assert_eq!(r.betas.len(), r.depth);
        assert!(r.function_calls > 0);
        assert!(r.approximation_ratio > 0.4 && r.approximation_ratio <= 1.0 + 1e-9);
    }
    assert!(report.function_calls > 0);
    assert!(report.summary().contains("4 graphs"));
}

#[test]
fn parallel_compare_matches_serial_compare() {
    // Train a tiny predictor, then sweep the same cell on one worker and on
    // four: rows must agree exactly, and equal the cell assembled from the
    // per-graph protocol runs.
    let config = tiny_datagen(6, 5, 0.6, 2, 2, 91);
    let (ds, _) = engine::corpus::generate(&config, &Engine::new(2)).expect("corpus");
    let (train, test) = ds.split_by_graph(0.5);
    let predictor = ParameterPredictor::train(ModelKind::Linear, &train).expect("training");
    let optimizer = Lbfgsb::default();
    let optimizers: Vec<Box<dyn optimize::Optimizer + Send + Sync>> =
        vec![Box::new(Lbfgsb::default())];
    let eval = EvaluationConfig {
        depths: vec![2],
        naive_starts: 2,
        level1_starts: 1,
        options: Default::default(),
        seed: 5,
        scenario: qaoa::Scenario::Exact,
    };
    // Reference for the single cell (optimizer 0, depth 0).
    let seed = evaluation::cell_seed(eval.seed, 0, 0);
    let mut naive = Vec::new();
    let mut ml = Vec::new();
    for (gi, graph) in test.graphs().iter().enumerate() {
        naive.extend(
            evaluation::naive_protocol_graph(
                graph,
                2,
                &optimizer,
                eval.naive_starts,
                &eval.options,
                evaluation::graph_seed(seed, gi),
                &eval.scenario,
            )
            .expect("naive protocol"),
        );
        ml.push(
            evaluation::two_level_protocol_graph(
                graph,
                2,
                &optimizer,
                &predictor,
                eval.level1_starts,
                &eval.options,
                evaluation::graph_seed(seed.wrapping_add(500), gi),
                &eval.scenario,
            )
            .expect("two-level protocol"),
        );
    }
    let reference = evaluation::row_from_samples("L-BFGS-B", 2, &naive, &ml);
    let sweep = |threads: usize| {
        engine::compare::compare(
            test.graphs(),
            &optimizers,
            &predictor,
            &eval,
            &Pool::new(threads),
        )
        .expect("sweep")
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(
        serial,
        vec![reference],
        "serial sweep differs from reference"
    );
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a, b, "parallel sweep row differs from serial");
    }
}

#[test]
fn parallel_protocols_match_serial_protocols() {
    let graphs = fixture_graphs(16, 6, 11);
    let optimizer = Lbfgsb::default();
    let options = Default::default();
    let pool = Pool::new(3);
    let scenario = qaoa::Scenario::Exact;
    // Reference: graph `gi` runs alone, seeded by `graph_seed(17, gi)`,
    // its samples appended in graph order.
    let mut serial = Vec::new();
    for (gi, graph) in graphs.iter().enumerate() {
        serial.extend(
            evaluation::naive_protocol_graph(
                graph,
                2,
                &optimizer,
                2,
                &options,
                evaluation::graph_seed(17, gi),
                &scenario,
            )
            .expect("serial naive"),
        );
    }
    let parallel =
        engine::compare::naive_protocol(&graphs, 2, &optimizer, 2, &options, 17, &scenario, &pool)
            .expect("parallel naive");
    assert_eq!(serial, parallel);
}

#[test]
fn seed_derivation_is_schedule_free() {
    // Same key, same seed; different domains/indices, different seeds.
    assert_eq!(
        stablehash::derive2(1, "corpus", 5, 1),
        stablehash::derive2(1, "corpus", 5, 1)
    );
    assert_ne!(
        stablehash::derive2(1, "corpus", 5, 1),
        stablehash::derive2(1, "level1", 5, 1)
    );
    // Job keys are label-sensitive (they key raw graphs, not classes) but
    // stable across constructions.
    let g = generators::cycle(5);
    assert_eq!(
        Job::new(g.clone(), 2, 3).stable_key(0),
        Job::new(g, 2, 3).stable_key(0)
    );
}
