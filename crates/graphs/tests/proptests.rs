//! Property-based tests for graph construction, generators and MaxCut.

#![allow(
    clippy::as_conversions,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test and bench code: a panic is how it reports a failure, and fixtures cast literals"
)]

use graphs::{generators, Graph, MaxCut};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MaxCut of a graph equals MaxCut of its "double complement".
    #[test]
    fn complement_involution(seed in 0u64..500, n in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, 0.5, &mut rng);
        let cc = g.complement().complement();
        prop_assert_eq!(&g, &cc);
    }

    /// Cut values are subadditive with respect to edge partition: the cut of
    /// the union graph equals the sum of the cuts on disjoint edge sets.
    #[test]
    fn cut_additive_over_edges(seed in 0u64..500, z in 0usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(6, 0.5, &mut rng);
        let z = z & 0b11_1111;
        // Split edges into two halves and rebuild two graphs.
        let edges = g.edges();
        let half = edges.len() / 2;
        let mut a = Graph::new(6);
        let mut b = Graph::new(6);
        for (i, e) in edges.iter().enumerate() {
            let target = if i < half { &mut a } else { &mut b };
            target.add_weighted_edge(e.u, e.v, e.weight).expect("valid edge");
        }
        prop_assert!((g.cut_value(z) - (a.cut_value(z) + b.cut_value(z))).abs() < 1e-12);
    }

    /// Bipartite families are fully cuttable: MaxCut == total weight.
    #[test]
    fn bipartite_full_cut(n in 2usize..12) {
        let path = generators::path(n);
        prop_assert_eq!(MaxCut::solve(&path).value(), path.total_weight());
        let star = generators::star(n);
        prop_assert_eq!(MaxCut::solve(&star).value(), star.total_weight());
        if n >= 2 && n % 2 == 0 && n >= 4 {
            let cycle = generators::cycle(n);
            prop_assert_eq!(MaxCut::solve(&cycle).value(), cycle.total_weight());
        }
    }

    /// Odd cycles always lose exactly one edge.
    #[test]
    fn odd_cycle_maxcut(k in 1usize..6) {
        let n = 2 * k + 1;
        let g = generators::cycle(n);
        prop_assert_eq!(MaxCut::solve(&g).value(), (n - 1) as f64);
    }

    /// MaxCut is at least half the edges (random assignment bound).
    #[test]
    fn maxcut_at_least_half_edges(seed in 0u64..500, n in 2usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, 0.6, &mut rng);
        prop_assert!(MaxCut::solve(&g).value() >= g.total_weight() / 2.0 - 1e-12);
    }

    /// d-regular generators respect the handshake lemma and degree bound.
    #[test]
    fn regular_generator_properties(seed in 0u64..200, k in 1usize..4) {
        let n = 8;
        let d = k; // 1..3
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng).expect("feasible params");
        prop_assert_eq!(g.n_edges(), n * d / 2);
        for v in 0..n {
            prop_assert_eq!(g.degree(v), d);
        }
    }

    /// The reported optimal assignment achieves the reported value, and node
    /// 0's side is fixed (symmetry convention).
    #[test]
    fn solution_consistency(seed in 0u64..300, n in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, 0.5, &mut rng);
        let sol = MaxCut::solve(&g);
        prop_assert_eq!(g.cut_value(sol.assignment()), sol.value());
        prop_assert_eq!(sol.partition().len(), n);
        // Highest node is fixed on side 0 by the search convention.
        prop_assert!(!sol.partition()[n - 1]);
    }
}
