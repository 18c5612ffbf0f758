//! Integration tests for `QMODEL2` model artifacts: save→load round trips
//! that answer bit-identically for every model kind, discard-and-retrain
//! fallback for damaged files, and the artifact driving a real `PREDICT`
//! serve session (the cross-process promise behind `qaoa-predict`).

mod common;

use common::temp_path;
use engine::model::{self, ModelLoad};
use engine::{BatchConfig, Engine};
use ml::ModelKind;
use optimize::Lbfgsb;
use qaoa::datagen::ParameterDataset;
use qaoa::ParameterPredictor;

/// The corpus master seed the round-trip artifacts are scoped to.
const CORPUS_SEED: u64 = 33;

/// The shared training corpus: small enough for CI, deep enough that the
/// predictor has distinct per-depth stages to persist.
fn corpus() -> ParameterDataset {
    let config = common::tiny_datagen(6, 5, 0.6, 3, 2, CORPUS_SEED);
    let (ds, _) = engine::corpus::generate(&config, &Engine::new(2)).expect("corpus");
    ds
}

/// Feature probes spanning the predictor's input range (depth-1 optima
/// land in [0, π/2] × [0, π/4]; include out-of-range values to exercise
/// the clamp path too).
const PROBES: [(f64, f64); 4] = [(0.4, 0.2), (0.9, 0.6), (1.3, 0.1), (2.0, 0.9)];

/// Every supported model kind survives save→load with bit-identical
/// predictions at every depth — the serving process answers exactly what
/// the training process would have.
#[test]
fn every_model_kind_round_trips_bit_identically() {
    let ds = corpus();
    for kind in ModelKind::EXTENDED {
        let trained = ParameterPredictor::train(kind, &ds).expect("training");
        let path = temp_path(&format!("model_{kind:?}"));
        model::save(&trained, &path, CORPUS_SEED).expect("save");
        let loaded = match model::load(&path, CORPUS_SEED) {
            ModelLoad::Loaded(p) => p,
            other => panic!("{kind:?}: expected Loaded, got {}", other.summary()),
        };
        assert_eq!(loaded.kind(), trained.kind());
        assert_eq!(loaded.max_depth(), trained.max_depth());
        for depth in 1..=trained.max_depth() {
            for (gamma, beta) in PROBES {
                let a = trained.predict(gamma, beta, depth).expect("predict");
                let b = loaded.predict(gamma, beta, depth).expect("predict");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&a),
                    bits(&b),
                    "{kind:?}: depth {depth} probe ({gamma}, {beta}) drifted across save/load"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Damaged or out-of-scope artifacts are discarded, never fatal — the
/// driver retrains and overwrites, exactly like the depth-1 cache file.
#[test]
fn corrupt_stale_or_misseeded_artifacts_are_discarded_not_fatal() {
    let ds = corpus();
    let trained = ParameterPredictor::train(ModelKind::Linear, &ds).expect("training");
    let path = temp_path("model_fallback");
    model::save(&trained, &path, 2020).expect("save");
    let good = std::fs::read_to_string(&path).unwrap();

    let cases: Vec<(&str, String)> = vec![
        ("binary garbage", "\u{1}\u{2}\u{3} not a model\n".into()),
        ("empty file", String::new()),
        ("stale version", good.replacen("QMODEL2", "QMODEL1", 1)),
        (
            "other numerics",
            good.replacen("numerics=v3", "numerics=v2", 1),
        ),
        ("foreign seed", good.replacen("seed=2020", "seed=999", 1)),
        ("unknown kind", good.replacen("kind=LM", "kind=ORACLE", 1)),
        (
            "truncated (no END trailer)",
            good.lines().take(3).collect::<Vec<_>>().join("\n"),
        ),
    ];
    for (what, text) in cases {
        std::fs::write(&path, text).unwrap();
        let status = model::load(&path, 2020);
        assert!(
            matches!(status, ModelLoad::Discarded(_)),
            "{what}: expected Discarded, got {}",
            status.summary()
        );
        // Regeneration: save over the bad file, reload cleanly.
        model::save(&trained, &path, 2020).expect("overwrite");
        assert!(
            matches!(model::load(&path, 2020), ModelLoad::Loaded(_)),
            "{what}: regenerated file must load"
        );
    }

    // A missing path is a cold start, not an error.
    std::fs::remove_file(&path).ok();
    assert!(matches!(model::load(&path, 2020), ModelLoad::Missing));
}

/// The artifact actually serves: a predictor saved by one "process" and
/// loaded by another answers a `PREDICT` line with exactly the bits the
/// in-memory original produces.
#[test]
fn loaded_artifact_serves_predict_with_the_original_bits() {
    let ds = corpus();
    let trained = ParameterPredictor::train(ModelKind::Gpr, &ds).expect("training");
    let path = temp_path("model_serve");
    let config = BatchConfig::default();
    model::save(&trained, &path, config.master_seed).expect("save");
    let loaded = match model::load(&path, config.master_seed) {
        ModelLoad::Loaded(p) => p,
        other => panic!("expected Loaded, got {}", other.summary()),
    };
    std::fs::remove_file(&path).ok();

    // Warm the class (depth-1 PREDICT), then ask for depth 3: the tier-2
    // answer must be the loaded model's prediction from the cached optimum.
    let input = "QW1 PREDICT 1 1 2 5 0-1,1-2,2-3,3-4,4-0\n\
                 QW1 PREDICT 2 3 2 5 0-1,1-2,2-3,3-4,4-0\n";
    let run = |predictor: &ParameterPredictor| {
        let engine = Engine::new(1);
        let mut out = Vec::new();
        engine::server::serve_with_model(
            std::io::Cursor::new(input),
            &mut out,
            &engine,
            &Lbfgsb::default(),
            &config,
            Some(predictor),
        )
        .unwrap();
        String::from_utf8(out).unwrap()
    };
    let from_trained = run(&trained);
    let from_loaded = run(&loaded);
    assert_eq!(
        from_loaded, from_trained,
        "a reloaded artifact must serve byte-identical transcripts"
    );
    assert!(
        from_loaded.contains("QW1 PREDICTED 2 2 "),
        "deep answer is tier 2"
    );
}
