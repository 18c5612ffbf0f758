//! Property-based tests (proptest) over cross-crate invariants.

use graphs::{generators, Graph};
use proptest::prelude::*;
use qaoa::{MaxCutProblem, QaoaAnsatz};
use qsim::{gates, Circuit, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any sequence of gates preserves the state norm (unitarity).
    #[test]
    fn random_circuits_preserve_norm(
        seed in 0u64..1000,
        n_gates in 1usize..40,
        n_qubits in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut circuit = Circuit::new(n_qubits);
        for _ in 0..n_gates {
            let q = rng.gen_range(0..n_qubits);
            match rng.gen_range(0..4u8) {
                0 => { circuit.h(q); }
                1 => { circuit.rx(q, rng.gen_range(-6.3..6.3)); }
                2 => { circuit.rz(q, rng.gen_range(-6.3..6.3)); }
                _ if n_qubits > 1 => {
                    let t = (q + 1 + rng.gen_range(0..n_qubits - 1)) % n_qubits;
                    circuit.cnot(q, t);
                }
                _ => { circuit.h(q); }
            }
        }
        let state = circuit.run(StateVector::zero_state(n_qubits)).expect("valid circuit");
        prop_assert!((state.norm() - 1.0).abs() < 1e-9);
    }

    /// Cut values are invariant under global partition flip.
    #[test]
    fn cut_symmetric_under_complement(
        seed in 0u64..500,
        n in 2usize..9,
        assignment in 0usize..256,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, 0.5, &mut rng);
        let mask = (1usize << n) - 1;
        let z = assignment & mask;
        prop_assert_eq!(g.cut_value(z), g.cut_value(!z & mask));
    }

    /// The problem's optimum, read off its cost diagonal, is the
    /// brute-force `MaxCut::solve` value bit for bit, on weighted graphs
    /// whose weights include signed zeros and negatives.
    #[test]
    fn optimal_cut_is_the_brute_force_optimum_bit_for_bit(
        seed in 0u64..10_000,
        n in 2usize..10,
        weighted in 0usize..3,
    ) {
        const WEIGHTS: [f64; 6] = [1.0, -0.0, 0.0, -1.5, 0.3, 7.25];
        let mut rng = StdRng::seed_from_u64(seed);
        let base = generators::erdos_renyi_nonempty(n, rng.gen_range(0.2..1.0), &mut rng);
        let mut g = Graph::new(n);
        for e in base.edges() {
            let w = if weighted > 0 { WEIGHTS[rng.gen_range(0..WEIGHTS.len())] } else { 1.0 };
            g.add_weighted_edge(e.u, e.v, w).unwrap();
        }
        let problem = MaxCutProblem::new(&g).unwrap();
        prop_assert_eq!(
            problem.optimal_cut().to_bits(),
            graphs::MaxCut::solve(&g).value().to_bits()
        );
    }

    /// Cut value of any assignment never exceeds the exact MaxCut.
    #[test]
    fn maxcut_dominates_all_assignments(
        seed in 0u64..500,
        n in 2usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, 0.6, &mut rng);
        let best = graphs::MaxCut::solve(&g).value();
        for z in 0..(1usize << n) {
            prop_assert!(g.cut_value(z) <= best + 1e-12);
        }
    }

    /// QAOA expectations stay within [0, C_max] for arbitrary in-domain
    /// parameters, at any depth.
    #[test]
    fn qaoa_expectation_within_physical_bounds(
        seed in 0u64..300,
        depth in 1usize..5,
        gamma_frac in proptest::collection::vec(0.0f64..1.0, 1..5),
        beta_frac in proptest::collection::vec(0.0f64..1.0, 1..5),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_nonempty(5, 0.5, &mut rng);
        let problem = MaxCutProblem::new(&g).expect("non-empty graph");
        let ansatz = QaoaAnsatz::new(problem.clone(), depth).expect("valid depth");
        let mut params = Vec::with_capacity(2 * depth);
        for i in 0..depth {
            params.push(gamma_frac[i % gamma_frac.len()] * qaoa::GAMMA_MAX);
        }
        for i in 0..depth {
            params.push(beta_frac[i % beta_frac.len()] * qaoa::BETA_MAX);
        }
        let e = ansatz.expectation(&params).expect("valid params");
        prop_assert!(e >= -1e-9);
        prop_assert!(e <= problem.optimal_cut() + 1e-9);
    }

    /// The two ansatz execution paths agree for arbitrary parameters.
    #[test]
    fn ansatz_paths_agree(
        seed in 0u64..200,
        gamma in 0.0f64..std::f64::consts::TAU,
        beta in 0.0f64..std::f64::consts::PI,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_nonempty(4, 0.6, &mut rng);
        let ansatz = QaoaAnsatz::new(MaxCutProblem::new(&g).expect("non-empty"), 1)
            .expect("valid depth");
        let fast = ansatz.expectation(&[gamma, beta]).expect("valid params");
        let gate = ansatz.expectation_gate_level(&[gamma, beta]).expect("valid params");
        prop_assert!((fast - gate).abs() < 1e-9);
    }

    /// Single-qubit rotation gates are always unitary.
    #[test]
    fn rotations_unitary(theta in -10.0f64..10.0) {
        prop_assert!(gates::is_unitary(&gates::rx(theta), 1e-12));
        prop_assert!(gates::is_unitary(&gates::u3(theta, 0.0, 0.0), 1e-12));
        prop_assert!(gates::is_unitary(&gates::rz(theta), 1e-12));
        prop_assert!(gates::is_unitary(&gates::phase(theta), 1e-12));
    }

    /// Optimizers never step outside the box and never return a worse value
    /// than the starting point.
    #[test]
    fn optimizers_respect_bounds_and_monotonicity(
        x0 in proptest::collection::vec(0.0f64..1.0, 2..4),
        seed in 0u64..100,
    ) {
        let _ = seed;
        let dim = x0.len();
        let f = |x: &[f64]| x.iter().enumerate().map(|(i, v)| (v - 0.3 * i as f64).powi(2)).sum::<f64>();
        let bounds = optimize::Bounds::uniform(dim, 0.0, 1.0).expect("valid bounds");
        let start = bounds.project(&x0);
        let f0 = f(&start);
        for optimizer in optimize::all_optimizers() {
            let r = optimizer
                .minimize(&f, &start, &bounds, &optimize::Options::default())
                .expect("optimization runs");
            prop_assert!(bounds.contains(&r.x), "{} left the box", optimizer.name());
            prop_assert!(r.fx <= f0 + 1e-12, "{} worsened the objective", optimizer.name());
        }
    }

    /// Metrics invariants: MSE >= 0, R² <= 1, Pearson in [-1, 1].
    #[test]
    fn metric_invariants(
        t in proptest::collection::vec(-10.0f64..10.0, 2..20),
        noise in proptest::collection::vec(-1.0f64..1.0, 2..20),
    ) {
        let n = t.len().min(noise.len());
        let t = &t[..n];
        let p: Vec<f64> = t.iter().zip(&noise[..n]).map(|(a, b)| a + b).collect();
        prop_assert!(ml::metrics::mse(t, &p).expect("valid input") >= 0.0);
        prop_assert!(ml::metrics::r2(t, &p).expect("valid input") <= 1.0);
        let r = ml::metrics::pearson(t, &p).expect("valid input");
        prop_assert!((-1.0..=1.0).contains(&r));
    }

    /// Graph generators produce simple graphs with consistent handshake sums.
    #[test]
    fn handshake_lemma(seed in 0u64..500, n in 2usize..10, p in 0.0f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng);
        let degree_sum: usize = (0..n).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.n_edges());
        // Simplicity: no self-loops representable, no duplicate edges.
        let mut seen = std::collections::HashSet::new();
        for e in g.edges() {
            prop_assert!(e.u < e.v);
            prop_assert!(seen.insert((e.u, e.v)));
        }
    }
}

#[test]
fn graph_from_edges_matches_incremental_construction() {
    let pairs = [(0usize, 1usize), (1, 2), (2, 3), (0, 3)];
    let bulk = Graph::from_edges(4, &pairs).expect("valid edges");
    let mut incremental = Graph::new(4);
    for (u, v) in pairs {
        incremental.add_edge(u, v).expect("valid edge");
    }
    assert_eq!(bulk, incremental);
}
