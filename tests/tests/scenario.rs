//! Integration tests for the scenario-diversity layer: shot-noise and
//! gate-noise objectives as first-class engine workloads.
//!
//! Contracts under test:
//!
//! * **Thread parity** — sampled and noisy protocol runs are bit-identical
//!   at 1 and 4 workers under the same master seed (all scenario
//!   stochasticity is a pure function of per-job seeds, never of thread
//!   scheduling).
//! * **Convergence** — the sampled estimate approaches the exact
//!   expectation at the 1/√shots rate.

mod common;

use common::fixture_graphs;
use engine::{Engine, Pool};
use ml::ModelKind;
use optimize::{Lbfgsb, Options};
use qaoa::features::FeatureSet;
use qaoa::sampled::SampledExpectation;
use qaoa::{
    MaxCutProblem, ParameterPredictor, QaoaInstance, Scenario, TwoLevelConfig, TwoLevelFlow,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The plain and the graph-aware predictor, both trained on one corpus,
/// and the held-out graphs.
fn predictors_and_test_graphs() -> (ParameterPredictor, ParameterPredictor, Vec<graphs::Graph>) {
    let config = common::tiny_datagen(8, 5, 0.6, 3, 2, 91);
    let (ds, _) = engine::corpus::generate(&config, &Engine::new(2)).expect("corpus");
    let (train, test) = ds.split_by_graph(0.5);
    let predictor = ParameterPredictor::train(ModelKind::Linear, &train).expect("training");
    let aware = ParameterPredictor::train_with(ModelKind::Linear, &train, FeatureSet::GraphAware)
        .expect("graph-aware training");
    (predictor, aware, test.graphs().to_vec())
}

#[test]
fn sampled_protocols_are_bit_identical_at_1_and_4_threads() {
    let (predictor, aware, graphs) = predictors_and_test_graphs();
    let optimizer = Lbfgsb::default();
    let options = Options::default().with_max_iters(60);
    let scenario = Scenario::Sampled { shots: 64 };
    let run = |threads: usize| {
        let pool = Pool::new(threads);
        let naive = engine::compare::naive_protocol(
            &graphs, 2, &optimizer, 2, &options, 11, &scenario, &pool,
        )
        .expect("sampled naive");
        let ml = engine::compare::two_level_protocol(
            &graphs, 2, &optimizer, &predictor, 1, &options, 11, &scenario, &pool,
        )
        .expect("sampled two-level");
        let ga = engine::compare::two_level_protocol(
            &graphs, 2, &optimizer, &aware, 1, &options, 11, &scenario, &pool,
        )
        .expect("sampled graph-aware two-level");
        (naive, ml, ga)
    };
    let (naive1, ml1, ga1) = run(1);
    let (naive4, ml4, ga4) = run(4);
    assert_eq!(naive1.len(), naive4.len());
    for (i, (a, b)) in naive1.iter().zip(&naive4).enumerate() {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "naive sample {i} AR differs");
        assert_eq!(a.1, b.1, "naive sample {i} FC differs");
    }
    for (i, (a, b)) in ml1.iter().zip(&ml4).enumerate() {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "ml sample {i} AR differs");
        assert_eq!(a.1, b.1, "ml sample {i} FC differs");
    }
    assert_eq!(ga1.len(), ga4.len());
    for (i, (a, b)) in ga1.iter().zip(&ga4).enumerate() {
        assert_eq!(
            a.0.to_bits(),
            b.0.to_bits(),
            "graph-aware sample {i} AR differs"
        );
        assert_eq!(a.1, b.1, "graph-aware sample {i} FC differs");
    }
}

#[test]
fn noisy_protocols_are_bit_identical_at_1_and_4_threads() {
    let (predictor, aware, graphs) = predictors_and_test_graphs();
    let optimizer = Lbfgsb::default();
    let options = Options::default().with_max_iters(60);
    let scenario = Scenario::Noisy {
        p1: 0.002,
        p2: 0.02,
    };
    let run = |threads: usize| {
        let pool = Pool::new(threads);
        let naive = engine::compare::naive_protocol(
            &graphs, 2, &optimizer, 2, &options, 13, &scenario, &pool,
        )
        .expect("noisy naive");
        let ml = engine::compare::two_level_protocol(
            &graphs, 2, &optimizer, &predictor, 1, &options, 13, &scenario, &pool,
        )
        .expect("noisy two-level");
        let ga = engine::compare::two_level_protocol(
            &graphs, 2, &optimizer, &aware, 1, &options, 13, &scenario, &pool,
        )
        .expect("noisy graph-aware two-level");
        (naive, ml, ga)
    };
    let (naive1, ml1, ga1) = run(1);
    let (naive4, ml4, ga4) = run(4);
    for (i, (a, b)) in naive1.iter().zip(&naive4).enumerate() {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "naive sample {i} AR differs");
        assert_eq!(a.1, b.1, "naive sample {i} FC differs");
    }
    for (i, (a, b)) in ml1.iter().zip(&ml4).enumerate() {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "ml sample {i} AR differs");
        assert_eq!(a.1, b.1, "ml sample {i} FC differs");
    }
    assert_eq!(ga1.len(), ga4.len());
    for (i, (a, b)) in ga1.iter().zip(&ga4).enumerate() {
        assert_eq!(
            a.0.to_bits(),
            b.0.to_bits(),
            "graph-aware sample {i} AR differs"
        );
        assert_eq!(a.1, b.1, "graph-aware sample {i} FC differs");
    }
}

#[test]
fn graph_aware_flow_runs_under_the_sampled_scenario() {
    // The graph-aware predictor runs the same flow as the plain one: under
    // shot noise both levels optimize with SPSA (no gradient calls), and
    // with one seed the level-1 run, which no predictor touches, costs the
    // same for both.
    let (predictor, aware, graphs) = predictors_and_test_graphs();
    let problem = MaxCutProblem::new(&graphs[0]).expect("non-empty graph");
    let config = TwoLevelConfig {
        level1_starts: 1,
        options: Options::default().with_max_iters(60),
    };
    let scenario = Scenario::Sampled { shots: 64 };
    let run = |p: &ParameterPredictor| {
        TwoLevelFlow::new(p)
            .run(
                &problem,
                2,
                &Lbfgsb::default(),
                &config,
                &mut StdRng::seed_from_u64(17),
                &scenario,
                17,
            )
            .expect("sampled two-level run")
    };
    let (plain, ga) = (run(&predictor), run(&aware));
    assert_eq!(ga.gradient_calls, 0);
    assert_eq!(plain.gradient_calls, 0);
    assert_eq!(ga.level1_calls, plain.level1_calls);
    assert!(ga.level2_calls > 0);
}

#[test]
fn sampled_estimate_converges_at_inverse_sqrt_shots() {
    // Statistical contract at the integration level: averaging many
    // fixed-parameter sampled evaluations, the RMS error versus the exact
    // expectation shrinks roughly like 1/√shots.
    let graph = fixture_graphs(1, 6, 3)[0].clone();
    let problem = MaxCutProblem::new(&graph).expect("non-empty");
    let params = [0.7, 0.4];
    let exact = QaoaInstance::new(problem.clone(), 1)
        .expect("exact instance")
        .ansatz()
        .expectation(&params)
        .expect("exact expectation");

    let rms = |shots: u32| {
        let mut sq = 0.0;
        let reps = 24u32;
        for rep in 0..reps {
            let objective = SampledExpectation::new(problem.clone(), 1, shots, u64::from(rep))
                .expect("sampled objective");
            let est = objective.estimate(&params).expect("sampled estimate");
            sq += (est - exact) * (est - exact);
        }
        (sq / f64::from(reps)).sqrt()
    };
    let coarse = rms(32);
    let fine = rms(2048);
    // 64x the shots should cut RMS error ~8x; allow generous slack.
    assert!(
        fine < coarse / 3.0,
        "RMS error should shrink with shots: 32 shots -> {coarse}, 2048 shots -> {fine}"
    );
}
