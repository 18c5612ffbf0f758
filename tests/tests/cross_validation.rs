//! Cross-crate validation: the simulator's two execution paths, optimizer
//! agreement on shared landscapes, and analytic ground truths.

use graphs::{generators, Graph};
use optimize::{Lbfgsb, NelderMead, Options};
use qaoa::{MaxCutProblem, QaoaAnsatz, QaoaInstance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn gate_level_and_fast_paths_agree_on_random_ensemble() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..8 {
        let graph = generators::erdos_renyi_nonempty(6, 0.5, &mut rng);
        let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
        for p in 1..=4 {
            let ansatz = QaoaAnsatz::new(problem.clone(), p).expect("valid depth");
            let params: Vec<f64> = (0..2 * p)
                .map(|i| {
                    if i < p {
                        rng.gen_range(0.0..qaoa::GAMMA_MAX)
                    } else {
                        rng.gen_range(0.0..qaoa::BETA_MAX)
                    }
                })
                .collect();
            let fast = ansatz.expectation(&params).expect("valid params");
            let gate = ansatz
                .expectation_gate_level(&params)
                .expect("valid params");
            assert!(
                (fast - gate).abs() < 1e-9,
                "paths diverge at p={p}: {fast} vs {gate}"
            );
        }
    }
}

/// `(γ, β, ⟨C⟩)` at every point of an `n_gamma × n_beta` grid spanning the
/// paper's domain `γ ∈ [0, 2π], β ∈ [0, π]`, endpoints included.
fn p1_grid(problem: &MaxCutProblem, n_gamma: usize, n_beta: usize) -> Vec<(f64, f64, f64)> {
    let ansatz = QaoaAnsatz::new(problem.clone(), 1).expect("valid depth");
    let mut grid = Vec::with_capacity(n_gamma * n_beta);
    for i in 0..n_gamma {
        let gamma = qaoa::GAMMA_MAX * i as f64 / (n_gamma - 1) as f64;
        for j in 0..n_beta {
            let beta = qaoa::BETA_MAX * j as f64 / (n_beta - 1) as f64;
            let value = ansatz.expectation(&[gamma, beta]).expect("valid params");
            grid.push((gamma, beta, value));
        }
    }
    grid
}

#[test]
fn single_edge_landscape_matches_closed_form() {
    let graph = Graph::from_edges(2, &[(0, 1)]).expect("valid edge");
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    for (gamma, beta, value) in p1_grid(&problem, 21, 21) {
        let expect = 0.5 * (1.0 + (4.0 * beta).sin() * gamma.sin());
        assert!(
            (value - expect).abs() < 1e-10,
            "⟨C⟩({gamma}, {beta}) = {value}, closed form {expect}"
        );
    }
}

#[test]
fn landscape_is_periodic_in_gamma_for_unweighted_graphs() {
    // Integer-valued cost: ⟨C⟩(γ = 0) = ⟨C⟩(γ = 2π) at every β.
    let problem = MaxCutProblem::new(&generators::cycle(3)).expect("non-empty graph");
    let grid = p1_grid(&problem, 9, 5);
    let (first, last) = (&grid[..5], &grid[grid.len() - 5..]);
    for (a, b) in first.iter().zip(last) {
        assert_eq!(a.1, b.1);
        assert!((a.2 - b.2).abs() < 1e-10, "β = {}: {} vs {}", a.1, a.2, b.2);
    }
}

#[test]
fn optimizer_and_grid_scan_agree_on_p1_optimum() {
    // The best grid value must be attainable (within grid resolution) by
    // the local optimizer with multistart, and vice versa.
    let graph = generators::cycle(6);
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let grid_best = p1_grid(&problem, 61, 31)
        .into_iter()
        .map(|(_, _, value)| value)
        .fold(f64::NEG_INFINITY, f64::max);

    let instance = QaoaInstance::new(problem, 1).expect("valid depth");
    let mut rng = StdRng::seed_from_u64(5);
    let out = instance
        .optimize_multistart(&Lbfgsb::default(), 10, &mut rng, &Options::default())
        .expect("optimization");
    assert!(
        out.expectation >= grid_best - 0.02,
        "optimizer {} vs grid {grid_best}",
        out.expectation
    );
}

#[test]
fn gradient_and_gradient_free_optimizers_find_same_p1_value() {
    let graph = generators::complete(5);
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let instance = QaoaInstance::new(problem, 1).expect("valid depth");
    let mut rng = StdRng::seed_from_u64(21);
    let a = instance
        .optimize_multistart(&Lbfgsb::default(), 8, &mut rng, &Options::default())
        .expect("lbfgsb run");
    let mut rng = StdRng::seed_from_u64(21);
    let b = instance
        .optimize_multistart(&NelderMead::default(), 8, &mut rng, &Options::default())
        .expect("nelder-mead run");
    assert!(
        (a.expectation - b.expectation).abs() < 0.02,
        "L-BFGS-B {} vs Nelder-Mead {}",
        a.expectation,
        b.expectation
    );
}

#[test]
fn bipartite_graphs_reach_ar_one_quickly() {
    // Even cycles are bipartite: MaxCut cuts all edges, and QAOA at modest
    // depth should approach AR ~ 1 far more easily than on odd cycles.
    let problem = MaxCutProblem::new(&generators::cycle(4)).expect("non-empty graph");
    let instance = QaoaInstance::new(problem, 2).expect("valid depth");
    let mut rng = StdRng::seed_from_u64(31);
    let out = instance
        .optimize_multistart(&Lbfgsb::default(), 10, &mut rng, &Options::default())
        .expect("optimization");
    assert!(
        out.approximation_ratio > 0.95,
        "AR = {}",
        out.approximation_ratio
    );
}

#[test]
fn expectation_bounded_by_exact_optimum_everywhere() {
    // ⟨C⟩ ≤ C_max for any parameters — the AR can never exceed 1.
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..5 {
        let graph = generators::erdos_renyi_nonempty(5, 0.6, &mut rng);
        let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
        let ansatz = QaoaAnsatz::new(problem.clone(), 2).expect("valid depth");
        for _ in 0..20 {
            let params: Vec<f64> = vec![
                rng.gen_range(0.0..qaoa::GAMMA_MAX),
                rng.gen_range(0.0..qaoa::GAMMA_MAX),
                rng.gen_range(0.0..qaoa::BETA_MAX),
                rng.gen_range(0.0..qaoa::BETA_MAX),
            ];
            let e = ansatz.expectation(&params).expect("valid params");
            assert!(e <= problem.optimal_cut() + 1e-9);
            assert!(e >= 0.0 - 1e-9);
        }
    }
}

#[test]
fn single_triangle_p1_analytic_bound() {
    // The odd 3-cycle cannot be cut fully: C_max = 2 of 3 edges. QAOA p=1
    // reaches a known ⟨C⟩ well below 2 but above the random-guess 1.5.
    let problem =
        MaxCutProblem::new(&Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).expect("triangle"))
            .expect("non-empty graph");
    let instance = QaoaInstance::new(problem, 1).expect("valid depth");
    let mut rng = StdRng::seed_from_u64(13);
    let out = instance
        .optimize_multistart(&Lbfgsb::default(), 12, &mut rng, &Options::default())
        .expect("optimization");
    assert!(out.expectation > 1.5, "should beat the uniform state");
    assert!(out.expectation < 2.0 + 1e-9);
}
