//! End-to-end integration tests of the full paper pipeline:
//! graphs → simulator → optimizers → corpus → predictor → two-level flow.

mod common;

use engine::compare::{naive_protocol, two_level_protocol};
use engine::Pool;
use ml::metrics::mean;
use ml::ModelKind;
use optimize::{Lbfgsb, Options};
use qaoa::datagen::ParameterDataset;
use qaoa::{
    MaxCutProblem, ParameterPredictor, QaoaInstance, Scenario, TwoLevelConfig, TwoLevelFlow,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_corpus() -> ParameterDataset {
    ParameterDataset::generate(&common::tiny_datagen(12, 6, 0.5, 3, 4, 1234))
        .expect("corpus generation")
}

#[test]
fn two_level_flow_reduces_function_calls_on_average() {
    // The paper's headline claim, at reduced scale: over unseen graphs, the
    // ML-initialized flow needs fewer loop iterations than the naive
    // random-initialization protocol at the same tolerance.
    let corpus = small_corpus();
    let (train, test) = corpus.split_by_graph(0.34);
    let predictor = ParameterPredictor::train(ModelKind::Gpr, &train).expect("GPR training");
    let optimizer = Lbfgsb::default();
    let depth = 3;
    let pool = Pool::new(2);

    let naive = naive_protocol(
        test.graphs(),
        depth,
        &optimizer,
        4,
        &Options::default(),
        9,
        &qaoa::Scenario::Exact,
        &pool,
    )
    .expect("naive protocol");
    let ml = two_level_protocol(
        test.graphs(),
        depth,
        &optimizer,
        &predictor,
        1,
        &Options::default(),
        9,
        &qaoa::Scenario::Exact,
        &pool,
    )
    .expect("two-level protocol");

    let naive_fc = mean(&naive.iter().map(|s| s.1 as f64).collect::<Vec<_>>());
    let ml_fc = mean(&ml.iter().map(|s| s.1 as f64).collect::<Vec<_>>());
    assert!(
        ml_fc < naive_fc,
        "two-level mean FC {ml_fc} should beat naive {naive_fc}"
    );

    // Quality must not collapse: mean AR within a small margin of naive.
    let naive_ar = mean(&naive.iter().map(|s| s.0).collect::<Vec<_>>());
    let ml_ar = mean(&ml.iter().map(|s| s.0).collect::<Vec<_>>());
    assert!(
        ml_ar > naive_ar - 0.05,
        "two-level AR {ml_ar} collapsed vs naive {naive_ar}"
    );
}

#[test]
fn predictions_are_better_starts_than_random() {
    // The mechanism behind the reduction: predicted parameters start closer
    // to optimal, i.e. their initial expectation is higher than a random
    // start's on average.
    let corpus = small_corpus();
    let (train, test) = corpus.split_by_graph(0.34);
    let predictor = ParameterPredictor::train(ModelKind::Gpr, &train).expect("GPR training");
    let mut rng = StdRng::seed_from_u64(3);
    let depth = 3;
    let bounds = qaoa::parameter_bounds(depth).expect("valid depth");

    let mut predicted_better = 0usize;
    let mut total = 0usize;
    for (gid, graph) in test.graphs().iter().enumerate() {
        let problem = MaxCutProblem::new(graph).expect("non-empty graph");
        let instance = QaoaInstance::new(problem, depth).expect("valid depth");
        let d1 = test.record(gid, 1).expect("depth-1 record");
        let predicted = predictor
            .predict(d1.gammas[0], d1.betas[0], depth)
            .expect("prediction");
        let e_pred = instance
            .ansatz()
            .expectation(&predicted)
            .expect("valid params");
        // Average several random starts for a fair comparison.
        let random_mean: f64 = (0..5)
            .map(|_| {
                let start = bounds.sample(&mut rng);
                instance.ansatz().expectation(&start).expect("valid params")
            })
            .sum::<f64>()
            / 5.0;
        if e_pred > random_mean {
            predicted_better += 1;
        }
        total += 1;
    }
    assert!(
        predicted_better * 3 >= total * 2,
        "predicted starts beat random in only {predicted_better}/{total} graphs"
    );
}

#[test]
fn corpus_roundtrip_preserves_pipeline_behaviour() {
    // Save/load the corpus and verify the trained predictor is unchanged.
    let corpus = small_corpus();
    let mut buf = Vec::new();
    corpus.write_tsv(&mut buf).expect("serialize");
    let reloaded = ParameterDataset::read_tsv(&buf[..]).expect("deserialize");
    let p1 = ParameterPredictor::train(ModelKind::Linear, &corpus).expect("train original");
    let p2 = ParameterPredictor::train(ModelKind::Linear, &reloaded).expect("train reloaded");
    for pt in 1..=3 {
        let a = p1.predict(1.1, 0.6, pt).expect("prediction");
        let b = p2.predict(1.1, 0.6, pt).expect("prediction");
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "depth {pt}: {x} vs {y}");
        }
    }
}

#[test]
fn all_four_optimizers_complete_the_two_level_flow() {
    let corpus = small_corpus();
    let (train, _) = corpus.split_by_graph(0.5);
    let predictor = ParameterPredictor::train(ModelKind::Tree, &train).expect("training");
    let flow = TwoLevelFlow::new(&predictor);
    let problem = MaxCutProblem::new(&graphs::generators::cycle(6)).expect("non-empty graph");
    let mut rng = StdRng::seed_from_u64(8);
    for optimizer in optimize::all_optimizers() {
        let out = flow
            .run(
                &problem,
                2,
                optimizer.as_ref(),
                &TwoLevelConfig::default(),
                &mut rng,
                &Scenario::Exact,
                0,
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", optimizer.name()));
        assert!(out.total_calls() > 0, "{}", optimizer.name());
        assert!(
            out.approximation_ratio > 0.5,
            "{}: AR {}",
            optimizer.name(),
            out.approximation_ratio
        );
    }
}
