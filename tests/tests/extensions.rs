//! Integration tests for the extension subsystems added on top of the
//! paper's core pipeline: warm-start baselines, the density-matrix noisy
//! simulator, the wider graph-generator/model zoo, and their interactions.

use graphs::{generators, stats, MaxCut};
use ml::{ForestModel, KnnModel, ModelKind, Regressor, RidgeModel};
use optimize::{extended_optimizers, Lbfgsb, Options, Powell, Spsa};
use qaoa::datagen::{DataGenConfig, ParameterDataset};
use qaoa::noisy::NoisyQaoa;
use qaoa::warmstart::{interp_step, linear_ramp, FourierFlow, InterpFlow};
use qaoa::{MaxCutProblem, ParameterPredictor, QaoaInstance, Scenario};
use qsim::{DensityMatrix, NoiseModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_corpus() -> ParameterDataset {
    ParameterDataset::generate(&DataGenConfig {
        n_graphs: 8,
        n_nodes: 6,
        edge_probability: 0.5,
        max_depth: 3,
        restarts: 3,
        seed: 77,
        options: Options::default(),
        trend_preference_margin: 1e-3,
    })
    .expect("corpus generation")
}

#[test]
fn warm_starts_beat_random_on_function_calls() {
    // INTERP warm-starting each depth should make the final-depth
    // optimization cheaper than a cold random start at that depth.
    let mut rng = StdRng::seed_from_u64(21);
    let graph = generators::random_regular(8, 3, &mut rng).expect("valid");
    let problem = MaxCutProblem::new(&graph).expect("non-empty");
    let depth = 4;

    let out = InterpFlow::default()
        .run(&problem, depth, &Lbfgsb::default(), &mut rng)
        .expect("interp flow");
    // The warm-started final level is cheaper than the first cold level
    // scaled by the parameter count growth (a loose but meaningful bound).
    let final_calls = *out.calls_per_depth.last().expect("non-empty");

    let instance = QaoaInstance::new(problem, depth).expect("valid depth");
    let bounds = qaoa::parameter_bounds(depth).expect("valid depth");
    let mut cold_total = 0;
    for _ in 0..3 {
        let start = bounds.sample(&mut rng);
        cold_total += instance
            .optimize(&Lbfgsb::default(), &start, &Options::default())
            .expect("cold run")
            .function_calls;
    }
    let cold_mean = cold_total / 3;
    assert!(
        final_calls <= cold_mean * 2,
        "warm-started final level ({final_calls}) should not dwarf cold mean ({cold_mean})"
    );
    assert!(out.approximation_ratio > 0.85);
}

#[test]
fn all_warm_start_strategies_agree_on_easy_instance() {
    // On the 4-cycle every sensible strategy should find a near-perfect cut.
    let problem = MaxCutProblem::new(&generators::cycle(4)).expect("non-empty");
    let mut rng = StdRng::seed_from_u64(5);
    let interp = InterpFlow::default()
        .run(&problem, 2, &Lbfgsb::default(), &mut rng)
        .expect("interp");
    let fourier = FourierFlow::default()
        .run(&problem, 2, &Lbfgsb::default(), &mut rng)
        .expect("fourier");
    let ramp_init = linear_ramp(2, 1.5).expect("valid");
    let instance = QaoaInstance::new(problem, 2).expect("valid depth");
    let ramp = instance
        .optimize(&Lbfgsb::default(), &ramp_init, &Options::default())
        .expect("ramp");
    // Depth-1 QAOA on the 4-cycle caps at AR = 3/4, and the incremental
    // flows inherit that level-1 optimum, so "agree" means "all clear the
    // level-1 ceiling's neighbourhood", not "all reach 1".
    for (name, ar) in [
        ("interp", interp.approximation_ratio),
        ("fourier", fourier.approximation_ratio),
        ("ramp", ramp.approximation_ratio),
    ] {
        assert!(ar > 0.7, "{name} AR = {ar}");
    }
}

#[test]
fn interp_of_corpus_optimum_is_good_initialization() {
    // Take a real depth-2 optimum from the corpus and INTERP it to depth 3:
    // the resulting start should already score a decent AR before any
    // optimization.
    let corpus = small_corpus();
    let gid = 0;
    let rec = corpus.record(gid, 2).expect("depth-2 record");
    let packed: Vec<f64> = rec.gammas.iter().chain(&rec.betas).copied().collect();
    let init3 = interp_step(&packed).expect("valid packed");

    let problem = MaxCutProblem::new(&corpus.graphs()[gid]).expect("non-empty");
    let instance = QaoaInstance::new(problem.clone(), 3).expect("valid depth");
    let e = instance.ansatz().expectation(&init3).expect("valid params");
    let ar = problem.approximation_ratio(e);
    assert!(ar > 0.7, "INTERP start AR = {ar}");
}

#[test]
fn noisy_two_level_pipeline_end_to_end() {
    // Train noiselessly, deploy on a depolarized device: the predicted
    // initialization must still evaluate to a competitive AR under noise.
    let corpus = small_corpus();
    let (train, test) = corpus.split_by_graph(0.5);
    let predictor = ParameterPredictor::train(ModelKind::Linear, &train).expect("training");

    let graph = &test.graphs()[0];
    let problem = MaxCutProblem::new(graph).expect("non-empty");
    let noise = NoiseModel::uniform_depolarizing(0.0005, 0.005).expect("valid rates");

    // Level 1 under noise.
    let scenario = Scenario::Noisy {
        p1: 0.0005,
        p2: 0.005,
    };
    let l1 = QaoaInstance::with_scenario(problem.clone(), 1, &scenario, 0).expect("small register");
    let mut rng = StdRng::seed_from_u64(3);
    let start = qaoa::parameter_bounds(1).expect("ok").sample(&mut rng);
    let l1_out = l1
        .optimize(&Lbfgsb::default(), &start, &Options::default())
        .expect("noisy level 1");

    let canon = qaoa::canonical::canonicalize_packed(&l1_out.params);
    let init = predictor
        .predict(canon[0], canon[1], 3)
        .expect("prediction");

    let pre_ar = NoisyQaoa::new(problem.clone(), 3, noise)
        .expect("small register")
        .approximation_ratio(&init)
        .expect("valid params");
    let l2 = QaoaInstance::with_scenario(problem, 3, &scenario, 0).expect("small register");
    let out = l2
        .optimize(&Lbfgsb::default(), &init, &Options::default())
        .expect("noisy level 2");
    assert!(out.approximation_ratio >= pre_ar - 1e-9);
    assert!(out.approximation_ratio > 0.5, "{}", out.approximation_ratio);
}

#[test]
fn density_matrix_agrees_with_statevector_on_qaoa_circuit() {
    // The cross-substrate identity behind every noisy experiment: at zero
    // noise the density-matrix energy equals the fast state-vector energy.
    let mut rng = StdRng::seed_from_u64(9);
    let graph = generators::erdos_renyi_nonempty(6, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty");
    let params = [0.9, 0.3, 0.45, 0.15];

    let instance = QaoaInstance::new(problem.clone(), 2).expect("valid depth");
    let fast = instance
        .ansatz()
        .expectation(&params)
        .expect("valid params");

    let clean = NoisyQaoa::new(problem, 2, NoiseModel::noiseless()).expect("small register");
    let dm = clean.expectation(&params).expect("valid params");
    assert!((fast - dm).abs() < 1e-9, "fast {fast} vs dm {dm}");
}

#[test]
fn new_generators_produce_solvable_maxcut_instances() {
    let mut rng = StdRng::seed_from_u64(31);
    let graphs = vec![
        generators::barabasi_albert(8, 2, &mut rng).expect("BA"),
        generators::watts_strogatz(8, 4, 0.3, &mut rng).expect("WS"),
        generators::gnm(8, 12, &mut rng),
        generators::wheel(8),
        generators::barbell(4),
    ];
    for g in graphs {
        let exact = MaxCut::solve(&g);
        assert!(exact.value() > 0.0);
        let problem = MaxCutProblem::new(&g).expect("non-empty");
        let instance = QaoaInstance::new(problem, 1).expect("valid depth");
        let out = instance
            .optimize(&Lbfgsb::default(), &[0.5, 0.4], &Options::default())
            .expect("optimization");
        assert!(out.approximation_ratio > 0.5);
        assert!(out.approximation_ratio <= 1.0 + 1e-9);
    }
}

#[test]
fn weighted_maxcut_through_full_stack() {
    // Random edge weights flow through graph → Hamiltonian → ansatz → AR.
    let mut rng = StdRng::seed_from_u64(13);
    let base = generators::cycle(6);
    let weighted = generators::with_random_weights(&base, 0.5, 2.0, &mut rng);
    let exact = MaxCut::solve(&weighted);
    assert!(exact.value() > 0.0);

    let problem = MaxCutProblem::new(&weighted).expect("non-empty");
    let instance = QaoaInstance::new(problem, 2).expect("valid depth");
    let out = instance
        .optimize_multistart(&Lbfgsb::default(), 5, &mut rng, &Options::default())
        .expect("optimization");
    assert!(out.approximation_ratio > 0.7, "{}", out.approximation_ratio);
    assert!(out.approximation_ratio <= 1.0 + 1e-9);
}

#[test]
fn extension_models_predict_qaoa_parameters() {
    // Ridge, kNN and RandomForest all train on a real corpus and produce
    // in-domain predictions through the shared predictor plumbing.
    let corpus = small_corpus();
    for kind in [ModelKind::Ridge, ModelKind::Knn, ModelKind::Forest] {
        let predictor = ParameterPredictor::train(kind, &corpus).expect("training");
        let init = predictor.predict(1.0, 0.5, 3).expect("prediction");
        assert_eq!(init.len(), 6);
        for (i, v) in init.iter().enumerate() {
            let max = if i < 3 {
                qaoa::GAMMA_MAX
            } else {
                qaoa::BETA_MAX
            };
            assert!((0.0..=max).contains(v), "{kind}: param {i} = {v}");
        }
    }
}

#[test]
fn extension_models_fit_standalone() {
    // Direct Regressor-trait usage outside the predictor plumbing.
    let x = linalg::Matrix::from_rows(&[
        &[0.0, 1.0],
        &[1.0, 2.0],
        &[2.0, 3.0],
        &[3.0, 4.0],
        &[4.0, 5.0],
    ])
    .expect("matrix");
    let y = [1.0, 3.0, 5.0, 7.0, 9.0];
    let models: Vec<Box<dyn Regressor>> = vec![
        Box::new(RidgeModel::new(1e-6)),
        Box::new(KnnModel::new(2)),
        Box::new(ForestModel::new(30)),
    ];
    for mut m in models {
        m.fit(&x, &y).expect("fit");
        let p = m.predict(&[2.0, 3.0]).expect("predict");
        assert!((p - 5.0).abs() < 1.5, "{}: {p}", m.name());
    }
}

#[test]
fn extended_optimizers_all_solve_qaoa_depth1() {
    let problem = MaxCutProblem::new(&generators::cycle(6)).expect("non-empty");
    let instance = QaoaInstance::new(problem, 1).expect("valid depth");
    let opts = Options::default().with_max_iters(2000);
    for optimizer in extended_optimizers() {
        let out = instance
            .optimize(optimizer.as_ref(), &[1.0, 0.5], &opts)
            .expect("optimization");
        assert!(
            out.approximation_ratio > 0.7,
            "{}: AR = {}",
            optimizer.name(),
            out.approximation_ratio
        );
    }
}

#[test]
fn powell_and_spsa_comparable_to_paper_optimizers() {
    // The extension optimizers reach the same landscape optimum on a
    // deterministic instance (Powell exactly; SPSA approximately).
    let problem = MaxCutProblem::new(&generators::complete(5)).expect("non-empty");
    let instance = QaoaInstance::new(problem, 1).expect("valid depth");
    let reference = instance
        .optimize(&Lbfgsb::default(), &[1.0, 0.5], &Options::default())
        .expect("reference");
    let powell = instance
        .optimize(&Powell::default(), &[1.0, 0.5], &Options::default())
        .expect("powell");
    assert!((powell.expectation - reference.expectation).abs() < 1e-3);
    let spsa = instance
        .optimize(
            &Spsa::default(),
            &[1.0, 0.5],
            &Options::default().with_max_iters(1500),
        )
        .expect("spsa");
    assert!(spsa.expectation > reference.expectation - 0.1);
}

#[test]
fn graph_features_correlate_with_instance_hardness_inputs() {
    // Sanity of the structural feature vector across families: dense graphs
    // report higher density/clustering than sparse ones.
    let dense = stats::feature_vector(&generators::complete(8));
    let sparse = stats::feature_vector(&generators::cycle(8));
    assert!(dense[2] > sparse[2]); // density
    assert!(dense[8] > sparse[8]); // clustering
    assert_eq!(dense.len(), sparse.len());
}

#[test]
fn noise_model_reduces_purity_through_qaoa_stack() {
    let problem = MaxCutProblem::new(&generators::cycle(4)).expect("non-empty");
    let params = [0.8, 0.4];
    let mut purities = Vec::new();
    for p2 in [0.0, 0.01, 0.05] {
        let nq = NoisyQaoa::new(
            problem.clone(),
            1,
            NoiseModel::uniform_depolarizing(p2 / 10.0, p2).expect("rates"),
        )
        .expect("small register");
        purities.push(nq.state(&params).expect("valid params").purity());
    }
    assert!(purities[0] > purities[1] && purities[1] > purities[2]);
    assert!((purities[0] - 1.0).abs() < 1e-9);
}

#[test]
fn density_matrix_of_corpus_graph_respects_bounds() {
    // Full 8-node density simulation stays within physical bounds.
    let mut rng = StdRng::seed_from_u64(17);
    let graph = generators::erdos_renyi_nonempty(8, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty");
    let nq = NoisyQaoa::new(
        problem.clone(),
        2,
        NoiseModel::uniform_depolarizing(0.001, 0.01).expect("rates"),
    )
    .expect("small register");
    let rho: DensityMatrix = nq.state(&[0.7, 0.3, 0.5, 0.2]).expect("valid params");
    assert!((rho.trace() - 1.0).abs() < 1e-9);
    assert!(rho.hermiticity_deviation() < 1e-9);
    let e = rho
        .expectation_diagonal(problem.cost())
        .expect("matching dims");
    assert!(e >= 0.0 && e <= problem.optimal_cut() + 1e-9);
}
