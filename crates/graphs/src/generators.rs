//! Random and named graph generators.
//!
//! The paper's experiments draw on two ensembles:
//!
//! * **Erdős–Rényi `G(n, p)`** with `n = 8`, `p = 0.5` — the 330 graphs of
//!   the training/test data-set ([`erdos_renyi`]),
//! * **random 3-regular graphs** on 8 nodes — the four graphs of
//!   Figs. 1(c), 2 and 3 ([`random_regular`]).
//!
//! Named families ([`complete`], [`cycle`], [`path`], [`star`], [`ladder`])
//! serve as fixtures with known MaxCut optima for tests and examples.

use rand::Rng;

use crate::{Graph, GraphError};

/// Samples `G(n, p)`: every unordered pair becomes an edge independently
/// with probability `p`.
///
/// Probabilities are clamped to `[0, 1]`. Matches NetworkX's `gnp_random_graph`
/// sampling semantics (the paper's source of problem graphs).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let g = graphs::generators::erdos_renyi(8, 1.0, &mut rng);
/// assert_eq!(g.n_edges(), 28); // p = 1 gives the complete graph
/// ```
pub fn erdos_renyi<R: Rng + ?Sized>(n_nodes: usize, p: f64, rng: &mut R) -> Graph {
    let p = p.clamp(0.0, 1.0);
    let mut g = Graph::new(n_nodes);
    for u in 0..n_nodes {
        for v in (u + 1)..n_nodes {
            if rng.gen::<f64>() < p {
                g.push_valid_edge(u, v, 1.0);
            }
        }
    }
    g
}

/// Samples `G(n, p)` conditioned on having at least one edge.
///
/// The QAOA objective is identically zero on the empty graph (AR undefined),
/// so dataset generation uses this variant, mirroring the paper's implicit
/// restriction to non-trivial instances.
pub fn erdos_renyi_nonempty<R: Rng + ?Sized>(n_nodes: usize, p: f64, rng: &mut R) -> Graph {
    loop {
        let g = erdos_renyi(n_nodes, p, rng);
        if !g.is_empty() {
            return g;
        }
    }
}

/// Samples a uniformly random simple `degree`-regular graph via the pairing
/// (configuration) model with rejection.
///
/// # Errors
///
/// * [`GraphError::InvalidRegularParams`] unless `n·d` is even and `d < n`.
/// * [`GraphError::GenerationFailed`] if rejection sampling exhausts its
///   budget (practically impossible for the 8-node, degree-3 graphs used in
///   the paper).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// # fn main() -> Result<(), graphs::GraphError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let g = graphs::generators::random_regular(8, 3, &mut rng)?;
/// assert!((0..8).all(|v| g.degree(v) == 3));
/// # Ok(())
/// # }
/// ```
pub fn random_regular<R: Rng + ?Sized>(
    n_nodes: usize,
    degree: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if !(n_nodes * degree).is_multiple_of(2) || degree >= n_nodes {
        return Err(GraphError::InvalidRegularParams { n_nodes, degree });
    }
    if degree == 0 {
        return Ok(Graph::new(n_nodes));
    }
    const MAX_ATTEMPTS: usize = 10_000;
    'attempt: for _ in 0..MAX_ATTEMPTS {
        // Pairing model: shuffle n*d "stubs" and pair them off.
        let mut stubs: Vec<usize> = (0..n_nodes)
            .flat_map(|v| std::iter::repeat_n(v, degree))
            .collect();
        // Fisher-Yates shuffle.
        for i in (1..stubs.len()).rev() {
            let j = rng.gen_range(0..=i);
            stubs.swap(i, j);
        }
        let mut g = Graph::new(n_nodes);
        for pair in stubs.chunks(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v || g.has_edge(u, v) {
                continue 'attempt; // reject self-loops and multi-edges
            }
            g.push_valid_edge(u, v, 1.0);
        }
        return Ok(g);
    }
    Err(GraphError::GenerationFailed {
        attempts: MAX_ATTEMPTS,
    })
}

/// The complete graph `K_n`.
#[must_use]
pub fn complete(n_nodes: usize) -> Graph {
    let mut g = Graph::new(n_nodes);
    for u in 0..n_nodes {
        for v in (u + 1)..n_nodes {
            g.push_valid_edge(u, v, 1.0);
        }
    }
    g
}

/// The cycle `C_n` (`n >= 3`); smaller `n` yields a path.
#[must_use]
pub fn cycle(n_nodes: usize) -> Graph {
    let mut g = path(n_nodes);
    if n_nodes >= 3 {
        g.push_valid_edge(n_nodes - 1, 0, 1.0);
    }
    g
}

/// The path `P_n` with `n - 1` edges.
#[must_use]
pub fn path(n_nodes: usize) -> Graph {
    let mut g = Graph::new(n_nodes);
    for v in 1..n_nodes {
        g.push_valid_edge(v - 1, v, 1.0);
    }
    g
}

/// The star `S_{n-1}`: node 0 connected to all others.
#[must_use]
pub fn star(n_nodes: usize) -> Graph {
    let mut g = Graph::new(n_nodes);
    for v in 1..n_nodes {
        g.push_valid_edge(0, v, 1.0);
    }
    g
}

/// The ladder graph `L_k` on `2k` nodes (two parallel paths plus rungs).
#[must_use]
pub fn ladder(rungs: usize) -> Graph {
    let mut g = Graph::new(2 * rungs);
    for i in 0..rungs {
        g.push_valid_edge(2 * i, 2 * i + 1, 1.0);
        if i + 1 < rungs {
            g.push_valid_edge(2 * i, 2 * (i + 1), 1.0);
            g.push_valid_edge(2 * i + 1, 2 * (i + 1) + 1, 1.0);
        }
    }
    g
}

/// The wheel graph `W_n`: a hub (node 0) joined to every node of the cycle
/// `C_{n-1}` on nodes `1..n`.
///
/// ```
/// let w = graphs::generators::wheel(6);
/// assert_eq!(w.degree(0), 5);
/// assert_eq!(w.n_edges(), 10); // 5 spokes + 5 rim edges
/// ```
#[must_use]
pub fn wheel(n_nodes: usize) -> Graph {
    let mut g = Graph::new(n_nodes);
    if n_nodes < 2 {
        return g;
    }
    let rim = n_nodes - 1;
    for v in 1..n_nodes {
        g.push_valid_edge(0, v, 1.0);
    }
    if rim >= 3 {
        for i in 0..rim {
            let u = 1 + i;
            let v = 1 + (i + 1) % rim;
            if !g.has_edge(u, v) {
                g.push_valid_edge(u, v, 1.0);
            }
        }
    } else if rim == 2 {
        g.push_valid_edge(1, 2, 1.0);
    }
    g
}

/// The barbell graph: two `K_k` cliques joined by a single bridge edge.
///
/// A worst case for low-depth QAOA locality — the bridge edge's optimal cut
/// assignment depends on both cliques — used by the generalization study.
///
/// ```
/// let b = graphs::generators::barbell(4);
/// assert_eq!(b.n_nodes(), 8);
/// assert_eq!(b.n_edges(), 2 * 6 + 1);
/// ```
#[must_use]
pub fn barbell(clique: usize) -> Graph {
    let mut g = Graph::new(2 * clique);
    for offset in [0, clique] {
        for u in 0..clique {
            for v in (u + 1)..clique {
                g.push_valid_edge(offset + u, offset + v, 1.0);
            }
        }
    }
    if clique >= 1 && 2 * clique >= 2 {
        g.push_valid_edge(clique - 1, clique, 1.0);
    }
    g
}

/// Samples `G(n, m)`: a graph with exactly `m` edges chosen uniformly from
/// all `C(n,2)` pairs (NetworkX `gnm_random_graph`).
///
/// `m` is clamped to the number of available pairs.
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let g = graphs::generators::gnm(8, 12, &mut rng);
/// assert_eq!(g.n_edges(), 12);
/// ```
pub fn gnm<R: Rng + ?Sized>(n_nodes: usize, m: usize, rng: &mut R) -> Graph {
    let mut pairs: Vec<(usize, usize)> = (0..n_nodes)
        .flat_map(|u| ((u + 1)..n_nodes).map(move |v| (u, v)))
        .collect();
    let m = m.min(pairs.len());
    // Partial Fisher–Yates: the first m entries are a uniform m-subset.
    for i in 0..m {
        let j = rng.gen_range(i..pairs.len());
        pairs.swap(i, j);
    }
    let mut g = Graph::new(n_nodes);
    for &(u, v) in &pairs[..m] {
        g.push_valid_edge(u, v, 1.0);
    }
    g
}

/// Samples a Barabási–Albert preferential-attachment graph: starting from a
/// star on `m + 1` nodes, each new node attaches to `m` distinct existing
/// nodes with probability proportional to their current degree.
///
/// # Errors
///
/// * [`GraphError::InvalidRegularParams`] if `m == 0` or `m + 1 > n_nodes`
///   (reusing the parameter-validation variant; the message names both).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// # fn main() -> Result<(), graphs::GraphError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let g = graphs::generators::barabasi_albert(10, 2, &mut rng)?;
/// assert_eq!(g.n_edges(), 2 + (10 - 3) * 2); // star K_{1,2} then 7 × 2
/// # Ok(())
/// # }
/// ```
pub fn barabasi_albert<R: Rng + ?Sized>(
    n_nodes: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if m == 0 || m + 1 > n_nodes {
        return Err(GraphError::InvalidRegularParams { n_nodes, degree: m });
    }
    // Seed graph: a star K_{1,m} on nodes 0..=m inside the full node set.
    let mut g = Graph::new(n_nodes);
    for v in 1..=m {
        g.push_valid_edge(0, v, 1.0);
    }
    // Repeated-node list: node v appears deg(v) times, so uniform sampling
    // from it is degree-proportional sampling.
    let mut stubs: Vec<usize> = Vec::new();
    for e in g.edges() {
        stubs.push(e.u);
        stubs.push(e.v);
    }
    for new in (m + 1)..n_nodes {
        let mut targets: Vec<usize> = Vec::with_capacity(m);
        while targets.len() < m {
            let candidate = stubs[rng.gen_range(0..stubs.len())];
            if !targets.contains(&candidate) {
                targets.push(candidate);
            }
        }
        for &t in &targets {
            g.push_valid_edge(new, t, 1.0);
            stubs.push(new);
            stubs.push(t);
        }
    }
    Ok(g)
}

/// Samples a Watts–Strogatz small-world graph: a ring lattice where every
/// node connects to its `k/2` nearest neighbours on each side, with each
/// edge rewired to a random target with probability `beta`.
///
/// # Errors
///
/// * [`GraphError::InvalidRegularParams`] if `k` is odd, zero, or
///   `k >= n_nodes`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// # fn main() -> Result<(), graphs::GraphError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let g = graphs::generators::watts_strogatz(12, 4, 0.2, &mut rng)?;
/// assert_eq!(g.n_edges(), 12 * 4 / 2);
/// # Ok(())
/// # }
/// ```
pub fn watts_strogatz<R: Rng + ?Sized>(
    n_nodes: usize,
    k: usize,
    beta: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if k == 0 || !k.is_multiple_of(2) || k >= n_nodes {
        return Err(GraphError::InvalidRegularParams { n_nodes, degree: k });
    }
    let beta = beta.clamp(0.0, 1.0);
    // Work on a normalized edge set so rewiring preserves the edge count
    // exactly (NetworkX `watts_strogatz_graph` semantics).
    let norm = |a: usize, b: usize| if a < b { (a, b) } else { (b, a) };
    let mut edges = std::collections::BTreeSet::new();
    let mut degree = vec![0usize; n_nodes];
    for u in 0..n_nodes {
        for hop in 1..=(k / 2) {
            let v = (u + hop) % n_nodes;
            if edges.insert(norm(u, v)) {
                degree[u] += 1;
                degree[v] += 1;
            }
        }
    }
    for u in 0..n_nodes {
        for hop in 1..=(k / 2) {
            let v = (u + hop) % n_nodes;
            if rng.gen::<f64>() >= beta {
                continue;
            }
            // Skip if u is already saturated — no fresh target exists.
            if degree[u] >= n_nodes - 1 {
                continue;
            }
            // The lattice edge may itself have been rewired away already.
            if !edges.contains(&norm(u, v)) {
                continue;
            }
            loop {
                let w = rng.gen_range(0..n_nodes);
                if w != u && !edges.contains(&norm(u, w)) {
                    edges.remove(&norm(u, v));
                    degree[v] -= 1;
                    edges.insert(norm(u, w));
                    degree[w] += 1;
                    break;
                }
            }
        }
    }
    let mut g = Graph::new(n_nodes);
    for (a, b) in edges {
        g.push_valid_edge(a, b, 1.0);
    }
    Ok(g)
}

/// Returns a copy of `graph` with every edge weight resampled uniformly
/// from `[lo, hi]` — the weighted-MaxCut extension workload.
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let g = graphs::generators::complete(5);
/// let w = graphs::generators::with_random_weights(&g, 0.5, 2.0, &mut rng);
/// assert_eq!(w.n_edges(), g.n_edges());
/// assert!(w.edges().iter().all(|e| (0.5..=2.0).contains(&e.weight)));
/// ```
pub fn with_random_weights<R: Rng + ?Sized>(graph: &Graph, lo: f64, hi: f64, rng: &mut R) -> Graph {
    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    let mut g = Graph::new(graph.n_nodes());
    for e in graph.edges() {
        let w = if (hi - lo).abs() < f64::EPSILON {
            lo
        } else {
            rng.gen_range(lo..=hi)
        };
        g.push_valid_edge(e.u, e.v, w);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn er_extremes() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(erdos_renyi(6, 0.0, &mut rng).n_edges(), 0);
        assert_eq!(erdos_renyi(6, 1.0, &mut rng).n_edges(), 15);
        // Clamping out-of-range probabilities.
        assert_eq!(erdos_renyi(6, -1.0, &mut rng).n_edges(), 0);
        assert_eq!(erdos_renyi(6, 2.0, &mut rng).n_edges(), 15);
    }

    #[test]
    fn er_density_statistics() {
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 200;
        let total: usize = (0..trials)
            .map(|_| erdos_renyi(8, 0.5, &mut rng).n_edges())
            .sum();
        let mean = total as f64 / trials as f64;
        // Expected 14 edges; allow 5 sigma of the binomial(28, 0.5) mean.
        let sigma = (28.0_f64 * 0.25 / trials as f64).sqrt();
        assert!((mean - 14.0).abs() < 5.0 * sigma * 28.0_f64.sqrt());
    }

    #[test]
    fn er_nonempty_never_empty() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            assert!(!erdos_renyi_nonempty(4, 0.05, &mut rng).is_empty());
        }
    }

    #[test]
    fn regular_graphs_have_uniform_degree() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            let g = random_regular(8, 3, &mut rng).unwrap();
            assert_eq!(g.n_edges(), 12);
            for v in 0..8 {
                assert_eq!(g.degree(v), 3, "degree of {v}");
            }
        }
    }

    #[test]
    fn regular_rejects_impossible_params() {
        let mut rng = StdRng::seed_from_u64(1);
        // Odd n*d.
        assert!(matches!(
            random_regular(5, 3, &mut rng),
            Err(GraphError::InvalidRegularParams { .. })
        ));
        // d >= n.
        assert!(matches!(
            random_regular(4, 4, &mut rng),
            Err(GraphError::InvalidRegularParams { .. })
        ));
        // Degenerate but valid: 0-regular.
        assert_eq!(random_regular(4, 0, &mut rng).unwrap().n_edges(), 0);
    }

    #[test]
    fn named_families_shapes() {
        assert_eq!(complete(5).n_edges(), 10);
        assert_eq!(cycle(5).n_edges(), 5);
        assert_eq!(cycle(2).n_edges(), 1); // degenerates to path
        assert_eq!(path(5).n_edges(), 4);
        assert_eq!(path(1).n_edges(), 0);
        assert_eq!(star(5).n_edges(), 4);
        assert_eq!(star(5).degree(0), 4);
        let l = ladder(3); // 6 nodes, 3 rungs + 4 rails
        assert_eq!(l.n_nodes(), 6);
        assert_eq!(l.n_edges(), 7);
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let a = erdos_renyi(8, 0.5, &mut StdRng::seed_from_u64(99));
        let b = erdos_renyi(8, 0.5, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
        let ra = random_regular(8, 3, &mut StdRng::seed_from_u64(4)).unwrap();
        let rb = random_regular(8, 3, &mut StdRng::seed_from_u64(4)).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn wheel_shapes() {
        let w = wheel(6);
        assert_eq!(w.n_nodes(), 6);
        assert_eq!(w.degree(0), 5);
        assert!((1..6).all(|v| w.degree(v) == 3));
        assert_eq!(w.n_edges(), 10);
        // Degenerate sizes.
        assert_eq!(wheel(0).n_edges(), 0);
        assert_eq!(wheel(1).n_edges(), 0);
        assert_eq!(wheel(2).n_edges(), 1);
        assert_eq!(wheel(3).n_edges(), 3); // triangle
        assert_eq!(wheel(4).n_edges(), 6); // K4
    }

    #[test]
    fn barbell_shapes() {
        let b = barbell(4);
        assert_eq!(b.n_nodes(), 8);
        assert_eq!(b.n_edges(), 13);
        assert!(b.has_edge(3, 4)); // the bridge
        assert!(b.is_connected());
        assert_eq!(barbell(1).n_edges(), 1); // two isolated nodes + bridge
    }

    #[test]
    fn gnm_edge_counts() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(gnm(8, 0, &mut rng).n_edges(), 0);
        assert_eq!(gnm(8, 12, &mut rng).n_edges(), 12);
        // Clamped to C(8,2) = 28.
        assert_eq!(gnm(8, 1000, &mut rng).n_edges(), 28);
        let a = gnm(8, 10, &mut StdRng::seed_from_u64(9));
        let b = gnm(8, 10, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn barabasi_albert_growth() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = barabasi_albert(20, 3, &mut rng).unwrap();
        assert_eq!(g.n_nodes(), 20);
        assert_eq!(g.n_edges(), 3 + (20 - 4) * 3);
        // Every late node has degree >= m.
        assert!((4..20).all(|v| g.degree(v) >= 3));
        assert!(g.is_connected());
        assert!(matches!(
            barabasi_albert(5, 0, &mut rng),
            Err(GraphError::InvalidRegularParams { .. })
        ));
        assert!(matches!(
            barabasi_albert(3, 3, &mut rng),
            Err(GraphError::InvalidRegularParams { .. })
        ));
    }

    #[test]
    fn watts_strogatz_ring_and_rewiring() {
        let mut rng = StdRng::seed_from_u64(1);
        // beta = 0 keeps the pure ring lattice.
        let ring = watts_strogatz(10, 4, 0.0, &mut rng).unwrap();
        assert_eq!(ring.n_edges(), 20);
        assert!((0..10).all(|v| ring.degree(v) == 4));
        // beta = 1 rewires everything but keeps the edge count.
        let rewired = watts_strogatz(10, 4, 1.0, &mut rng).unwrap();
        assert_eq!(rewired.n_edges(), 20);
        assert_ne!(ring, rewired);
        assert!(matches!(
            watts_strogatz(10, 3, 0.1, &mut rng),
            Err(GraphError::InvalidRegularParams { .. })
        ));
        assert!(matches!(
            watts_strogatz(4, 4, 0.1, &mut rng),
            Err(GraphError::InvalidRegularParams { .. })
        ));
    }

    fn edge_list(g: &Graph) -> String {
        let pairs: Vec<String> = g
            .edges()
            .iter()
            .map(|e| format!("{}-{}", e.u, e.v))
            .collect();
        pairs.join(" ")
    }

    #[test]
    fn deterministic_generators_match_recorded_edge_lists() {
        for (g, edges) in [
            (complete(0), ""),
            (cycle(0), ""),
            (path(0), ""),
            (star(0), ""),
            (wheel(0), ""),
            (complete(1), ""),
            (cycle(1), ""),
            (path(1), ""),
            (star(1), ""),
            (wheel(1), ""),
            (complete(2), "0-1"),
            (cycle(2), "0-1"),
            (path(2), "0-1"),
            (star(2), "0-1"),
            (wheel(2), "0-1"),
            (complete(3), "0-1 0-2 1-2"),
            (cycle(3), "0-1 1-2 0-2"),
            (path(3), "0-1 1-2"),
            (star(3), "0-1 0-2"),
            (wheel(3), "0-1 0-2 1-2"),
            (complete(5), "0-1 0-2 0-3 0-4 1-2 1-3 1-4 2-3 2-4 3-4"),
            (cycle(5), "0-1 1-2 2-3 3-4 0-4"),
            (path(5), "0-1 1-2 2-3 3-4"),
            (star(5), "0-1 0-2 0-3 0-4"),
            (wheel(5), "0-1 0-2 0-3 0-4 1-2 2-3 3-4 1-4"),
            (ladder(0), ""),
            (barbell(0), ""),
            (ladder(1), "0-1"),
            (barbell(1), "0-1"),
            (ladder(3), "0-1 0-2 1-3 2-3 2-4 3-5 4-5"),
            (barbell(3), "0-1 0-2 1-2 3-4 3-5 4-5 2-3"),
        ] {
            assert_eq!(edge_list(&g), edges);
        }
    }

    #[test]
    fn seeded_generators_match_recorded_edge_lists() {
        let rng = || StdRng::seed_from_u64(2020);
        for (g, edges) in [
            (
                erdos_renyi(7, 0.5, &mut rng()),
                "0-1 0-5 1-2 1-4 2-3 2-4 3-4 3-6 4-6",
            ),
            (erdos_renyi_nonempty(5, 0.1, &mut rng()), "1-2"),
            (
                random_regular(8, 3, &mut rng()).unwrap(),
                "5-7 0-1 2-6 0-3 3-6 1-6 1-5 4-5 4-7 2-3 0-7 2-4",
            ),
            (gnm(7, 9, &mut rng()), "0-6 2-4 3-6 3-5 0-5 5-6 1-5 3-4 1-2"),
            (
                barabasi_albert(9, 2, &mut rng()).unwrap(),
                "0-1 0-2 1-3 0-3 3-4 1-4 0-5 1-5 2-6 3-6 0-7 4-7 6-8 3-8",
            ),
            (
                watts_strogatz(10, 4, 0.3, &mut rng()).unwrap(),
                "0-2 0-3 0-5 0-7 0-8 0-9 1-2 1-4 1-5 1-9 2-4 2-5 3-5 4-5 4-8 5-6 5-7 6-7 6-8 7-8",
            ),
        ] {
            assert_eq!(edge_list(&g), edges);
        }
        let w = with_random_weights(&cycle(5), 0.5, 2.0, &mut rng());
        assert_eq!(edge_list(&w), "0-1 1-2 2-3 3-4 0-4");
        let bits: Vec<u64> = w.edges().iter().map(|e| e.weight.to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3fed1491d7574da9,
                0x3ff5429746f01d90,
                0x3ffb0753ac284bf4,
                0x3ff98b0bdb9cddcb,
                0x3fe03b652294b1e7
            ]
        );
    }

    #[test]
    fn random_weights_cover_topology() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = cycle(6);
        let w = with_random_weights(&g, 2.0, 3.0, &mut rng);
        assert_eq!(w.n_edges(), 6);
        for e in w.edges() {
            assert!(g.has_edge(e.u, e.v));
            assert!((2.0..=3.0).contains(&e.weight));
        }
        // Reversed bounds are swapped, equal bounds give a constant.
        let c = with_random_weights(&g, 5.0, 5.0, &mut rng);
        assert!(c.edges().iter().all(|e| e.weight == 5.0));
        let r = with_random_weights(&g, 3.0, 2.0, &mut rng);
        assert!(r.edges().iter().all(|e| (2.0..=3.0).contains(&e.weight)));
    }
}
