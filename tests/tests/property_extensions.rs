//! Property-based tests (proptest) over the extension subsystems:
//! density-matrix physicality, warm-start domain invariants, extension
//! optimizers and models.

use graphs::generators;
use linalg::Matrix;
use ml::{ForestModel, KnnModel, Regressor, RidgeModel};
use optimize::{Bounds, Optimizer, Options, Powell, Spsa};
use proptest::prelude::*;
use qaoa::datagen::interp_resample;
use qaoa::warmstart::{fourier_to_params, interp_step, linear_ramp};
use qaoa::{BETA_MAX, GAMMA_MAX};
use qsim::{Circuit, DensityMatrix, NoiseModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_circuit(seed: u64, n_qubits: usize, n_gates: usize) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circuit = Circuit::new(n_qubits);
    for _ in 0..n_gates {
        let q = rng.gen_range(0..n_qubits);
        match rng.gen_range(0..4u8) {
            0 => {
                circuit.h(q);
            }
            1 => {
                circuit.rx(q, rng.gen_range(-6.3..6.3));
            }
            2 => {
                circuit.rz(q, rng.gen_range(-6.3..6.3));
            }
            _ if n_qubits > 1 => {
                let t = (q + 1 + rng.gen_range(0..n_qubits - 1)) % n_qubits;
                circuit.cnot(q, t);
            }
            _ => {
                circuit.h(q);
            }
        }
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any noisy circuit execution leaves a physical state: unit trace,
    /// Hermitian, purity in [1/2ⁿ, 1].
    #[test]
    fn noisy_evolution_stays_physical(
        seed in 0u64..500,
        n_qubits in 1usize..4,
        n_gates in 1usize..25,
        p1 in 0.0f64..0.2,
        p2 in 0.0f64..0.2,
    ) {
        let circuit = random_circuit(seed, n_qubits, n_gates);
        let noise = NoiseModel::uniform_depolarizing(p1, p2).expect("valid rates");
        let mut rho = DensityMatrix::zero_state(n_qubits).expect("small register");
        rho.run(&circuit, &noise).expect("run");
        prop_assert!((rho.trace() - 1.0).abs() < 1e-8);
        prop_assert!(rho.hermiticity_deviation() < 1e-8);
        let purity = rho.purity();
        let floor = 1.0 / (1usize << n_qubits) as f64;
        prop_assert!(purity <= 1.0 + 1e-9);
        prop_assert!(purity >= floor - 1e-9);
        // Diagonal is a probability distribution.
        let probs = rho.probabilities();
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-8);
        prop_assert!(probs.iter().all(|&p| p >= -1e-10));
    }

    /// The depolarizing channel preserves trace on arbitrary mixed states,
    /// on either qubit, at any rate.
    #[test]
    fn channels_preserve_trace_on_mixed_states(
        seed in 0u64..500,
        qubit in 0usize..2,
        p in 0.0f64..=1.0,
    ) {
        // Build a mixed state by running a noisy random circuit first.
        let circuit = random_circuit(seed, 2, 10);
        let mut rho = DensityMatrix::zero_state(2).expect("small register");
        rho.run(&circuit, &NoiseModel::uniform_depolarizing(0.05, 0.05).expect("rates"))
            .expect("run");
        let trace_before = rho.trace();
        rho.apply_depolarizing(qubit, p).expect("valid qubit and rate");
        prop_assert!((rho.trace() - trace_before).abs() < 1e-9);
        prop_assert!(rho.hermiticity_deviation() < 1e-8);
    }

    /// INTERP grows the packed vector by exactly one stage per half, its
    /// outputs stay within the convex hull of {0} ∪ inputs, and each half
    /// is the corpus's `interp_resample` of the input half, bit for bit.
    #[test]
    fn interp_step_convexity(
        depth in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut packed: Vec<f64> = (0..depth).map(|_| rng.gen_range(0.0..GAMMA_MAX)).collect();
        packed.extend((0..depth).map(|_| rng.gen_range(0.0..BETA_MAX)));
        let next = interp_step(&packed).expect("valid packed");
        prop_assert_eq!(next.len(), 2 * (depth + 1));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(&next[..depth + 1]),
            bits(&interp_resample(&packed[..depth], depth + 1))
        );
        prop_assert_eq!(
            bits(&next[depth + 1..]),
            bits(&interp_resample(&packed[depth..], depth + 1))
        );
        let gmax = packed[..depth].iter().fold(0.0f64, |a, &b| a.max(b));
        let bmax = packed[depth..].iter().fold(0.0f64, |a, &b| a.max(b));
        for &g in &next[..depth + 1] {
            prop_assert!(g >= -1e-12 && g <= gmax + 1e-12);
        }
        for &b in &next[depth + 1..] {
            prop_assert!(b >= -1e-12 && b <= bmax + 1e-12);
        }
    }

    /// Fourier schedules are always inside the paper's parameter box, for
    /// any coefficients.
    #[test]
    fn fourier_params_always_in_box(
        depth in 1usize..8,
        q in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u: Vec<f64> = (0..q).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let v: Vec<f64> = (0..q).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let params = fourier_to_params(&u, &v, depth);
        prop_assert_eq!(params.len(), 2 * depth);
        for &g in &params[..depth] {
            prop_assert!((0.0..=GAMMA_MAX).contains(&g));
        }
        for &b in &params[depth..] {
            prop_assert!((0.0..=BETA_MAX).contains(&b));
        }
    }

    /// Linear ramps are monotone and in-domain for any positive total time.
    #[test]
    fn linear_ramp_monotone(
        depth in 1usize..10,
        total_time in 0.01f64..20.0,
    ) {
        let ramp = linear_ramp(depth, total_time).expect("valid depth");
        prop_assert_eq!(ramp.len(), 2 * depth);
        for i in 0..depth {
            prop_assert!((0.0..=GAMMA_MAX).contains(&ramp[i]));
            prop_assert!((0.0..=BETA_MAX).contains(&ramp[depth + i]));
            if i + 1 < depth {
                prop_assert!(ramp[i] <= ramp[i + 1] + 1e-12);
                prop_assert!(ramp[depth + i] + 1e-12 >= ramp[depth + i + 1]);
            }
        }
    }

    /// Powell and SPSA never step outside the feasible box and never
    /// worsen a finite starting value.
    #[test]
    fn extension_optimizers_feasible_and_monotone(
        seed in 0u64..200,
        dim in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let center: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let f = move |x: &[f64]| -> f64 {
            x.iter().zip(&center).map(|(a, b)| (a - b).powi(2)).sum()
        };
        let bounds = Bounds::uniform(dim, -2.0, 2.0).expect("valid bounds");
        let start = bounds.sample(&mut rng);
        let f_start = f(&start);
        let opts = Options::default().with_max_iters(300);
        for optimizer in [&Powell::default() as &dyn Optimizer, &Spsa::default()] {
            let r = optimizer.minimize(&f, &start, &bounds, &opts).expect("run");
            prop_assert!(bounds.contains(&r.x), "{} left the box", optimizer.name());
            prop_assert!(r.fx <= f_start + 1e-9, "{} worsened the start", optimizer.name());
            prop_assert!(r.n_calls > 0);
        }
    }

    /// Extension regressors interpolate within the target range on
    /// arbitrary monotone data (kNN and forests are averages of targets;
    /// ridge of a line recovers the line).
    #[test]
    fn extension_models_bounded_predictions(
        seed in 0u64..200,
        n in 6usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..n).map(|i| i as f64 * rng.gen_range(0.5..2.0)).collect();
        let x = Matrix::from_rows(&rows).expect("matrix");
        let (ymin, ymax) = y.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
        let query = rng.gen_range(0.0..(n - 1) as f64);

        let mut knn = KnnModel::new(3);
        knn.fit(&x, &y).expect("fit");
        let p = knn.predict(&[query]).expect("predict");
        prop_assert!(p >= ymin - 1e-9 && p <= ymax + 1e-9);

        let mut forest = ForestModel::new(15);
        forest.fit(&x, &y).expect("fit");
        let p = forest.predict(&[query]).expect("predict");
        prop_assert!(p >= ymin - 1e-9 && p <= ymax + 1e-9);

        let mut ridge = RidgeModel::new(1e-8);
        ridge.fit(&x, &y).expect("fit");
        let p = ridge.predict(&[query]).expect("predict");
        prop_assert!(p.is_finite());
    }

    /// Generator contracts hold for arbitrary valid parameters.
    #[test]
    fn generator_invariants(
        seed in 0u64..500,
        nodes in 5usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ba = generators::barabasi_albert(nodes, 2, &mut rng).expect("BA");
        prop_assert_eq!(ba.n_nodes(), nodes);
        prop_assert_eq!(ba.n_edges(), 2 + (nodes - 3) * 2);
        prop_assert!(ba.is_connected());

        let ws = generators::watts_strogatz(nodes, 4, 0.3, &mut rng).expect("WS");
        prop_assert_eq!(ws.n_edges(), nodes * 2);

        let m = rng.gen_range(0..=nodes * (nodes - 1) / 2);
        let gnm = generators::gnm(nodes, m, &mut rng);
        prop_assert_eq!(gnm.n_edges(), m);
    }
}
