//! Dedicated coverage for `engine::compare` — the Table-I sweep driver.
//!
//! Contract under test: the sweep equals a serial reference written out in
//! this file (cells optimizer-major, the seed policy spelled out, each cell
//! assembled from the per-graph protocol runs) **bit-for-bit**, cell by
//! cell, at any worker count; and its cost accounting (function and
//! gradient evaluations) is a pure function of the inputs — independent of
//! worker count and schedule.

mod common;

use engine::{BatchConfig, Engine, Job, Pool};
use graphs::Graph;
use ml::ModelKind;
use optimize::{Lbfgsb, Optimizer, Slsqp};
use qaoa::evaluation::{
    cell_seed, graph_seed, naive_protocol_graph, row_from_samples, two_level_protocol_graph,
    ComparisonRow, EvaluationConfig,
};
use qaoa::ParameterPredictor;

/// A small trained predictor plus held-out test graphs, shared by the
/// sweep tests.
fn predictor_and_test_graphs() -> (ParameterPredictor, Vec<Graph>) {
    // Depth 3 so the predictor covers both target depths of the sweep.
    let config = common::tiny_datagen(8, 5, 0.6, 3, 2, 91);
    let (ds, _) = engine::corpus::generate(&config, &Engine::new(2)).expect("corpus");
    let (train, test) = ds.split_by_graph(0.5);
    let predictor = ParameterPredictor::train(ModelKind::Linear, &train).expect("training");
    (predictor, test.graphs().to_vec())
}

/// The Table-I sweep written out serially. Cells run optimizer-major; cell
/// `(oi, di)` is seeded by `cell_seed(seed, oi, di)`; graph `gi`'s naive
/// samples by `graph_seed(cell, gi)` and its two-level sample by
/// `graph_seed(cell + 500, gi)`; each protocol's samples pool in graph
/// order.
fn reference_sweep(
    graphs: &[Graph],
    optimizers: &[Box<dyn Optimizer + Send + Sync>],
    predictor: &ParameterPredictor,
    eval: &EvaluationConfig,
) -> Vec<ComparisonRow> {
    let mut rows = Vec::new();
    for (oi, optimizer) in optimizers.iter().enumerate() {
        for (di, &depth) in eval.depths.iter().enumerate() {
            let seed = cell_seed(eval.seed, oi, di);
            let mut naive = Vec::new();
            let mut ml = Vec::new();
            for (gi, graph) in graphs.iter().enumerate() {
                naive.extend(
                    naive_protocol_graph(
                        graph,
                        depth,
                        optimizer.as_ref(),
                        eval.naive_starts,
                        &eval.options,
                        graph_seed(seed, gi),
                        &eval.scenario,
                    )
                    .expect("naive protocol"),
                );
                ml.push(
                    two_level_protocol_graph(
                        graph,
                        depth,
                        optimizer.as_ref(),
                        predictor,
                        eval.level1_starts,
                        &eval.options,
                        graph_seed(seed.wrapping_add(500), gi),
                        &eval.scenario,
                    )
                    .expect("two-level protocol"),
                );
            }
            rows.push(row_from_samples(optimizer.name(), depth, &naive, &ml));
        }
    }
    rows
}

/// A sweep config of `depths` with two naive starts and one level-1 start.
fn sweep_config(depths: Vec<usize>, seed: u64) -> EvaluationConfig {
    EvaluationConfig {
        depths,
        naive_starts: 2,
        level1_starts: 1,
        options: Default::default(),
        seed,
        scenario: qaoa::Scenario::Exact,
    }
}

#[test]
fn every_table1_cell_matches_the_serial_sweep() {
    // Multi-cell parity: 2 optimizers x 2 depths, every row equal to the
    // serial reference at 1 and 4 workers — means, SDs, and reduction
    // percentages included (ComparisonRow compares exactly).
    let (predictor, graphs) = predictor_and_test_graphs();
    let optimizers: Vec<Box<dyn Optimizer + Send + Sync>> =
        vec![Box::new(Lbfgsb::default()), Box::new(Slsqp::default())];
    let eval = sweep_config(vec![2, 3], 5);
    let reference = reference_sweep(&graphs, &optimizers, &predictor, &eval);
    assert_eq!(reference.len(), 4, "2 optimizers x 2 depths");
    for threads in [1usize, 4] {
        let rows =
            engine::compare::compare(&graphs, &optimizers, &predictor, &eval, &Pool::new(threads))
                .expect("sweep");
        assert_eq!(rows.len(), reference.len());
        for (cell, (a, b)) in reference.iter().zip(&rows).enumerate() {
            assert_eq!(
                a, b,
                "cell {cell} ({} p={}) differs at {threads} workers",
                a.optimizer, a.depth
            );
        }
    }
}

#[test]
fn compare_emits_one_row_per_cell() {
    let (predictor, graphs) = predictor_and_test_graphs();
    let optimizers: Vec<Box<dyn Optimizer + Send + Sync>> = vec![Box::new(Lbfgsb::default())];
    let rows = engine::compare::compare(
        &graphs,
        &optimizers,
        &predictor,
        &sweep_config(vec![2], 7),
        &Pool::new(1),
    )
    .expect("sweep");
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(row.optimizer, "L-BFGS-B");
    assert_eq!(row.depth, 2);
    assert!(row.naive_fc_mean > 0.0);
    assert!(row.ml_fc_mean > 0.0);
}

#[test]
fn protocols_produce_expected_sample_counts() {
    let (predictor, graphs) = predictor_and_test_graphs();
    let opt = Lbfgsb::default();
    let options = Default::default();
    let scenario = qaoa::Scenario::Exact;
    let pool = Pool::new(1);
    let naive = engine::compare::naive_protocol(&graphs, 2, &opt, 2, &options, 3, &scenario, &pool)
        .expect("naive protocol");
    assert_eq!(naive.len(), graphs.len() * 2);
    let ml = engine::compare::two_level_protocol(
        &graphs, 2, &opt, &predictor, 1, &options, 3, &scenario, &pool,
    )
    .expect("two-level protocol");
    assert_eq!(ml.len(), graphs.len());
    for (ar, fc) in naive.iter().chain(&ml) {
        assert!((0.0..=1.0 + 1e-9).contains(ar));
        assert!(*fc > 0);
    }
}

#[test]
fn sweep_cost_accounting_is_schedule_independent() {
    // The smoke for FC purity: the same sweep at 1, 2, and 5 workers
    // yields bit-identical function-call statistics in every cell. (FC
    // means are exact sums of integer counts divided by a fixed n, so
    // bit-equality is the right assertion, not approximate equality.)
    let (predictor, graphs) = predictor_and_test_graphs();
    let optimizers: Vec<Box<dyn Optimizer + Send + Sync>> = vec![Box::new(Lbfgsb::default())];
    let eval = sweep_config(vec![2], 13);
    let runs: Vec<_> = [1usize, 2, 5]
        .iter()
        .map(|&threads| {
            engine::compare::compare(&graphs, &optimizers, &predictor, &eval, &Pool::new(threads))
                .expect("sweep")
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(run.len(), runs[0].len());
        for (a, b) in runs[0].iter().zip(run) {
            assert_eq!(a.naive_fc_mean.to_bits(), b.naive_fc_mean.to_bits());
            assert_eq!(a.naive_fc_sd.to_bits(), b.naive_fc_sd.to_bits());
            assert_eq!(a.ml_fc_mean.to_bits(), b.ml_fc_mean.to_bits());
            assert_eq!(a.ml_fc_sd.to_bits(), b.ml_fc_sd.to_bits());
            assert_eq!(a.naive_ar_mean.to_bits(), b.naive_ar_mean.to_bits());
            assert_eq!(a.ml_ar_mean.to_bits(), b.ml_ar_mean.to_bits());
        }
    }
}

#[test]
fn gradient_and_fev_counts_are_schedule_independent() {
    // Batch-level accounting: total nfev and njev are pure functions of
    // the job queue, not of the worker count or schedule.
    let jobs: Vec<Job> = common::fixture_graphs(8, 5, 21)
        .into_iter()
        .enumerate()
        .map(|(i, g)| Job::new(g, 1 + i % 2, 2))
        .collect();
    let config = BatchConfig {
        master_seed: 17,
        ..BatchConfig::default()
    };
    let (_, reference) = Engine::new(1)
        .run_batch(&Lbfgsb::default(), &jobs, &config)
        .expect("serial batch");
    assert!(
        reference.total_gradient_calls > 0,
        "L-BFGS-B consumes analytic gradients"
    );
    for threads in [2usize, 4] {
        let (_, report) = Engine::new(threads)
            .run_batch(&Lbfgsb::default(), &jobs, &config)
            .expect("parallel batch");
        assert_eq!(report.total_function_calls, reference.total_function_calls);
        assert_eq!(report.total_gradient_calls, reference.total_gradient_calls);
        for (a, b) in reference.jobs.iter().zip(&report.jobs) {
            assert_eq!(a.function_calls, b.function_calls);
            assert_eq!(a.gradient_calls, b.gradient_calls);
        }
    }
}

#[test]
fn parallel_two_level_protocol_matches_serial() {
    // The two-level fan-out: at any pool size, graph `gi`'s sample is the
    // per-graph protocol run seeded by `graph_seed(seed, gi)`.
    let (predictor, graphs) = predictor_and_test_graphs();
    let optimizer = Lbfgsb::default();
    let options = Default::default();
    let scenario = qaoa::Scenario::Exact;
    let serial: Vec<(f64, usize)> = graphs
        .iter()
        .enumerate()
        .map(|(gi, graph)| {
            two_level_protocol_graph(
                graph,
                2,
                &optimizer,
                &predictor,
                1,
                &options,
                graph_seed(23, gi),
                &scenario,
            )
            .expect("serial two-level")
        })
        .collect();
    for threads in [1usize, 3] {
        let parallel = engine::compare::two_level_protocol(
            &graphs,
            2,
            &optimizer,
            &predictor,
            1,
            &options,
            23,
            &scenario,
            &Pool::new(threads),
        )
        .expect("parallel two-level");
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "graph {i} AR differs");
            assert_eq!(a.1, b.1, "graph {i} FC differs");
        }
    }
}

#[test]
fn empty_sweeps_are_well_formed() {
    // No graphs: every cell still materializes (with empty samples), so
    // downstream table rendering never indexes out of bounds.
    let (predictor, _) = predictor_and_test_graphs();
    let optimizers: Vec<Box<dyn Optimizer + Send + Sync>> = vec![Box::new(Lbfgsb::default())];
    let eval = sweep_config(vec![2, 3], 3);
    let rows = engine::compare::compare(&[], &optimizers, &predictor, &eval, &Pool::new(2))
        .expect("empty sweep");
    assert_eq!(rows.len(), 2);
    // No optimizers / no depths: no cells.
    assert!(
        engine::compare::compare(&[], &[], &predictor, &eval, &Pool::new(2))
            .expect("no optimizers")
            .is_empty()
    );
}
