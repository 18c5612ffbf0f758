//! Parity of the flat-buffer `qaoa::canonical::graph_key` against the
//! `Vec`-per-vertex implementation it replaced, which this file keeps as
//! the reference (the library no longer carries it).
//!
//! The contract: for every graph, both produce the same key — the same
//! node count and the same canonically relabeled edge list, bit for bit —
//! and so the same `hash64`. Persisted `QCACHE2` files and corpus seeds
//! are derived from those keys, so any drift would silently orphan every
//! cache written before it.

use graphs::{generators, Graph};
use proptest::prelude::*;
use proptest::TestCaseError;
use qaoa::canonical::{graph_key, CanonicalGraphKey};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Same bound as the library's: beyond this many class-respecting
/// labelings, the heuristic ordering is used.
const MAX_LABELINGS: u128 = 100_000;

/// The replaced `graph_key`, verbatim apart from building the key through
/// `CanonicalGraphKey::from_parts`.
fn reference_key(g: &Graph) -> CanonicalGraphKey {
    let n = g.n_nodes();
    if n == 0 {
        return CanonicalGraphKey::from_parts(0, Vec::new()).unwrap();
    }

    // --- 1. WL color refinement -------------------------------------------
    // Adjacency with weight bits so weighted graphs refine correctly.
    let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for e in g.edges() {
        let bits = e.weight.to_bits();
        adj[e.u].push((e.v, bits));
        adj[e.v].push((e.u, bits));
    }
    let mut colors: Vec<usize> = (0..n).map(|v| adj[v].len()).collect();
    // Remap initial colors (degrees) into dense, order-preserving indices.
    let mut distinct: Vec<usize> = {
        let mut d = colors.clone();
        d.sort_unstable();
        d.dedup();
        d
    };
    for c in &mut colors {
        *c = distinct.binary_search(c).expect("color present");
    }
    for _round in 0..n {
        // Signature of v: (own color, sorted (neighbor color, weight bits)).
        let mut sigs: Vec<(usize, Vec<(usize, u64)>)> = (0..n)
            .map(|v| {
                let mut ns: Vec<(usize, u64)> =
                    adj[v].iter().map(|&(w, bits)| (colors[w], bits)).collect();
                ns.sort_unstable();
                (colors[v], ns)
            })
            .collect();
        let mut sorted: Vec<(usize, Vec<(usize, u64)>)> = sigs.clone();
        sorted.sort();
        sorted.dedup();
        let n_new = sorted.len();
        let new_colors: Vec<usize> = sigs
            .drain(..)
            .map(|sig| sorted.binary_search(&sig).expect("sig present"))
            .collect();
        let stable = {
            let mut old_distinct = colors.clone();
            old_distinct.sort_unstable();
            old_distinct.dedup();
            old_distinct.len() == n_new
        };
        colors = new_colors;
        if stable {
            break;
        }
    }
    distinct = colors.clone();
    distinct.sort_unstable();
    distinct.dedup();

    // --- 2. Color classes, in refined-color order -------------------------
    let classes: Vec<Vec<usize>> = distinct
        .iter()
        .map(|&c| (0..n).filter(|&v| colors[v] == c).collect())
        .collect();

    let relabel_edges = |position_of: &[u32]| -> Vec<(u32, u32, u64)> {
        let mut edges: Vec<(u32, u32, u64)> = g
            .edges()
            .iter()
            .map(|e| {
                let (a, b) = (position_of[e.u], position_of[e.v]);
                (a.min(b), a.max(b), e.weight.to_bits())
            })
            .collect();
        edges.sort_unstable();
        edges
    };

    // Candidate count: product of class factorials.
    let mut candidates: u128 = 1;
    for class in &classes {
        let mut f: u128 = 1;
        for k in 2..=class.len() as u128 {
            f = f.saturating_mul(k);
        }
        candidates = candidates.saturating_mul(f);
        if candidates > MAX_LABELINGS {
            break;
        }
    }

    // Heuristic (sound but not complete) fallback ordering: refined color,
    // then original index.
    let heuristic = |_: ()| -> Vec<(u32, u32, u64)> {
        let mut position_of = vec![0u32; n];
        let mut next = 0u32;
        for class in &classes {
            for &v in class {
                position_of[v] = next;
                next += 1;
            }
        }
        relabel_edges(&position_of)
    };

    let edges = if candidates > MAX_LABELINGS {
        heuristic(())
    } else {
        // --- 3. Exhaustive search over class-respecting labelings ---------
        // Precompute all permutations of each class, then walk the odometer.
        let perms_per_class: Vec<Vec<Vec<usize>>> =
            classes.iter().map(|c| permutations(c)).collect();
        let mut best: Option<Vec<(u32, u32, u64)>> = None;
        let mut odometer = vec![0usize; classes.len()];
        loop {
            let mut position_of = vec![0u32; n];
            let mut next = 0u32;
            for (ci, perm_idx) in odometer.iter().enumerate() {
                for &v in &perms_per_class[ci][*perm_idx] {
                    position_of[v] = next;
                    next += 1;
                }
            }
            let candidate = relabel_edges(&position_of);
            if best.as_ref().is_none_or(|b| candidate < *b) {
                best = Some(candidate);
            }
            // Advance the odometer.
            let mut digit = 0;
            loop {
                if digit == odometer.len() {
                    break;
                }
                odometer[digit] += 1;
                if odometer[digit] < perms_per_class[digit].len() {
                    break;
                }
                odometer[digit] = 0;
                digit += 1;
            }
            if digit == odometer.len() {
                break;
            }
        }
        best.expect("at least the identity labeling was tried")
    };

    CanonicalGraphKey::from_parts(n, edges).unwrap()
}

/// All permutations of `items` (Heap's algorithm), deterministic order.
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    let mut current = items.to_vec();
    let k = current.len();
    let mut out = vec![current.clone()];
    let mut c = vec![0usize; k];
    let mut i = 1;
    while i < k {
        if c[i] < i {
            if i % 2 == 0 {
                current.swap(0, i);
            } else {
                current.swap(c[i], i);
            }
            out.push(current.clone());
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    out
}

/// Relabels `g` by a random permutation.
fn relabel(g: &Graph, rng: &mut StdRng) -> Graph {
    let n = g.n_nodes();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let mut h = Graph::new(n);
    for e in g.edges() {
        h.add_weighted_edge(perm[e.u], perm[e.v], e.weight).unwrap();
    }
    h
}

/// `g` with every edge weight drawn from a small set, so weight ties (and
/// the refinement they drive) are common.
fn with_weight_set(g: &Graph, rng: &mut StdRng) -> Graph {
    const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, -1.5];
    let mut h = Graph::new(g.n_nodes());
    for e in g.edges() {
        let w = WEIGHTS[rng.gen_range(0..WEIGHTS.len())];
        h.add_weighted_edge(e.u, e.v, w).unwrap();
    }
    h
}

/// Asserts the library key equals the reference key (and so its hash),
/// for `g` and for a random relabeling of it.
fn assert_parity(g: &Graph, rng: &mut StdRng) -> Result<(), TestCaseError> {
    for graph in [g.clone(), relabel(g, rng)] {
        let got = graph_key(&graph);
        let want = reference_key(&graph);
        prop_assert_eq!(got.hash64(), want.hash64());
        prop_assert_eq!(got, want);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Erdős–Rényi graphs at every size up to 10 and any density,
    /// unweighted and with weights from a small set.
    #[test]
    fn erdos_renyi_keys_match_reference(
        seed in 0u64..1_000_000,
        n in 0usize..=10,
        p in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng);
        assert_parity(&g, &mut rng)?;
        assert_parity(&with_weight_set(&g, &mut rng), &mut rng)?;
    }

    /// Random regular graphs: every vertex starts in one color class, the
    /// worst case for refinement and the largest candidate searches.
    #[test]
    fn regular_keys_match_reference(
        seed in 0u64..1_000_000,
        (n, d) in (4usize..=10).prop_flat_map(|n| (Just(n), 2usize..n.min(6))),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(g) = generators::random_regular(n, d, &mut rng) {
            assert_parity(&g, &mut rng)?;
            assert_parity(&with_weight_set(&g, &mut rng), &mut rng)?;
        }
    }
}

#[test]
fn structured_keys_match_reference() {
    let mut rng = StdRng::seed_from_u64(18);
    for n in 0..=9 {
        // K9 has 9! > MAX_LABELINGS labelings: the heuristic path.
        for g in [
            Graph::new(n),
            generators::complete(n),
            generators::cycle(n.max(3)),
            generators::path(n),
            generators::star(n.max(1)),
        ] {
            assert_parity(&g, &mut rng).unwrap();
            assert_parity(&with_weight_set(&g, &mut rng), &mut rng).unwrap();
        }
    }
}

#[test]
fn heuristic_path_matches_reference() {
    // One class of 9 or 10 vertices: 9! and 10! exceed MAX_LABELINGS.
    let mut rng = StdRng::seed_from_u64(9);
    for g in [
        generators::complete(9),
        generators::complete(10),
        generators::cycle(10),
        generators::random_regular(10, 3, &mut rng).unwrap(),
    ] {
        assert_parity(&g, &mut rng).unwrap();
    }
}

/// `hash64` of five fixed graphs, recorded before the flat-buffer rewrite.
/// These digests seed depth-1 solves and name persisted cache entries.
#[test]
fn hash64_pins() {
    let mut weighted = Graph::new(4);
    weighted.add_weighted_edge(0, 1, 0.5).unwrap();
    weighted.add_weighted_edge(1, 2, 2.0).unwrap();
    weighted.add_weighted_edge(2, 3, 0.5).unwrap();
    weighted.add_weighted_edge(3, 0, 2.0).unwrap();
    let mut rng = StdRng::seed_from_u64(2020);
    let cases = [
        ("empty n=0", Graph::new(0), 0xa8c7_f832_281a_39c5),
        ("cycle n=6", generators::cycle(6), 0xab93_f909_c766_9a4b),
        ("K9", generators::complete(9), 0x4fc0_ca7c_5b94_1ffc),
        ("weighted 4-cycle", weighted, 0x48c0_1a0c_3697_aba1),
        (
            "ER(8, 0.5) seed 2020",
            generators::erdos_renyi_nonempty(8, 0.5, &mut rng),
            0x845d_9864_604e_904e,
        ),
    ];
    for (name, g, want) in cases {
        assert_eq!(graph_key(&g).hash64(), want, "{name}");
    }
}
