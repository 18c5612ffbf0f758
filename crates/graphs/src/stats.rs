//! Descriptive statistics over graphs, used by the dataset analysis
//! (Fig. 5 reproduction) and by tests.

use crate::Graph;

/// Converts a node, edge, degree or triangle count to `f64`.
///
/// Every count here is bounded by `n²` for a graph held in memory, far
/// below 2^53, so the conversion is exact.
#[expect(
    clippy::as_conversions,
    reason = "graph counts are < 2^53 so usize -> f64 is exact here"
)]
fn count_f64(n: usize) -> f64 {
    n as f64
}

/// Degree of every node, in node order.
///
/// ```
/// let g = graphs::generators::star(4);
/// assert_eq!(graphs::stats::degree_sequence(&g), vec![3, 1, 1, 1]);
/// ```
#[must_use]
pub fn degree_sequence(graph: &Graph) -> Vec<usize> {
    (0..graph.n_nodes()).map(|v| graph.degree(v)).collect()
}

/// Mean degree; `0.0` for the empty graph.
#[must_use]
pub fn mean_degree(graph: &Graph) -> f64 {
    if graph.n_nodes() == 0 {
        return 0.0;
    }
    2.0 * count_f64(graph.n_edges()) / count_f64(graph.n_nodes())
}

/// Edge density `m / C(n, 2)`; `0.0` for graphs with fewer than two nodes.
#[must_use]
pub fn density(graph: &Graph) -> f64 {
    let n = graph.n_nodes();
    if n < 2 {
        return 0.0;
    }
    count_f64(graph.n_edges()) / count_f64(n * (n - 1) / 2)
}

/// `true` if every node has the same degree `d`; returns that degree.
#[must_use]
pub fn regularity(graph: &Graph) -> Option<usize> {
    let seq = degree_sequence(graph);
    match seq.first() {
        None => Some(0),
        Some(&d) if seq.iter().all(|&x| x == d) => Some(d),
        _ => None,
    }
}

/// Number of triangles (3-cycles) in the graph.
#[must_use]
pub fn triangle_count(graph: &Graph) -> usize {
    let n = graph.n_nodes();
    let mut count = 0;
    for u in 0..n {
        for v in (u + 1)..n {
            if !graph.has_edge(u, v) {
                continue;
            }
            for w in (v + 1)..n {
                if graph.has_edge(u, w) && graph.has_edge(v, w) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Local clustering coefficient of `node`: the fraction of its neighbour
/// pairs that are themselves adjacent; `0.0` for degree < 2.
///
/// ```
/// let g = graphs::generators::complete(4);
/// assert_eq!(graphs::stats::local_clustering(&g, 0), 1.0);
/// let s = graphs::generators::star(4);
/// assert_eq!(graphs::stats::local_clustering(&s, 0), 0.0);
/// ```
#[must_use]
pub fn local_clustering(graph: &Graph, node: usize) -> f64 {
    let nbrs = graph.neighbors(node);
    let k = nbrs.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for (a, &u) in nbrs.iter().enumerate() {
        for &v in &nbrs[(a + 1)..] {
            if graph.has_edge(u, v) {
                links += 1;
            }
        }
    }
    2.0 * count_f64(links) / count_f64(k * (k - 1))
}

/// Average clustering coefficient (mean of [`local_clustering`] over all
/// nodes, NetworkX `average_clustering`); `0.0` for the empty graph.
#[must_use]
pub fn average_clustering(graph: &Graph) -> f64 {
    let n = graph.n_nodes();
    if n == 0 {
        return 0.0;
    }
    (0..n).map(|v| local_clustering(graph, v)).sum::<f64>() / count_f64(n)
}

/// Maximum degree; `0` for the empty graph.
#[must_use]
pub fn max_degree(graph: &Graph) -> usize {
    degree_sequence(graph).into_iter().max().unwrap_or(0)
}

/// Minimum degree; `0` for the empty graph.
#[must_use]
pub fn min_degree(graph: &Graph) -> usize {
    degree_sequence(graph).into_iter().min().unwrap_or(0)
}

/// Population variance of the degree sequence; `0.0` for regular graphs.
#[must_use]
pub fn degree_variance(graph: &Graph) -> f64 {
    let seq = degree_sequence(graph);
    if seq.is_empty() {
        return 0.0;
    }
    let mean = count_f64(seq.iter().sum::<usize>()) / count_f64(seq.len());
    seq.iter()
        .map(|&d| (count_f64(d) - mean).powi(2))
        .sum::<f64>()
        / count_f64(seq.len())
}

/// A fixed-length structural feature vector for graph-aware predictors:
/// `[n, m, density, mean_deg, max_deg, min_deg, deg_var, triangles, avg_clustering]`.
///
/// The two-level predictor of the paper uses only
/// `(γ₁OPT(1), β₁OPT(1), pt)`; appending these features lets the
/// generalization study test whether structural context improves transfer
/// to out-of-ensemble graph families.
///
/// ```
/// let g = graphs::generators::cycle(8);
/// let f = graphs::stats::feature_vector(&g);
/// assert_eq!(f.len(), 9);
/// assert_eq!(f[0], 8.0); // n
/// assert_eq!(f[1], 8.0); // m
/// ```
#[must_use]
pub fn feature_vector(graph: &Graph) -> Vec<f64> {
    vec![
        count_f64(graph.n_nodes()),
        count_f64(graph.n_edges()),
        density(graph),
        mean_degree(graph),
        count_f64(max_degree(graph)),
        count_f64(min_degree(graph)),
        degree_variance(graph),
        count_f64(triangle_count(graph)),
        average_clustering(graph),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degree_statistics() {
        let g = generators::cycle(5);
        assert_eq!(degree_sequence(&g), vec![2; 5]);
        assert_eq!(mean_degree(&g), 2.0);
        assert_eq!(regularity(&g), Some(2));
        assert_eq!(regularity(&generators::star(4)), None);
        assert_eq!(regularity(&Graph::new(0)), Some(0));
    }

    #[test]
    fn density_bounds() {
        assert_eq!(density(&generators::complete(6)), 1.0);
        assert_eq!(density(&Graph::new(6)), 0.0);
        assert_eq!(density(&Graph::new(1)), 0.0);
        let half = generators::path(3); // 2 of 3 possible edges
        assert!((density(&half) - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn triangles() {
        assert_eq!(triangle_count(&generators::complete(4)), 4);
        assert_eq!(triangle_count(&generators::cycle(4)), 0);
        assert_eq!(triangle_count(&generators::cycle(3)), 1);
        assert_eq!(triangle_count(&Graph::new(3)), 0);
    }

    #[test]
    fn mean_degree_empty() {
        assert_eq!(mean_degree(&Graph::new(0)), 0.0);
    }

    #[test]
    fn clustering_known_values() {
        assert_eq!(average_clustering(&generators::complete(5)), 1.0);
        assert_eq!(average_clustering(&generators::cycle(6)), 0.0);
        assert_eq!(average_clustering(&Graph::new(0)), 0.0);
        // Wheel hub: rim neighbours form a cycle, so C(hub) = (n-1)/C(n-1,2).
        let w = generators::wheel(6);
        assert!((local_clustering(&w, 0) - 5.0 / 10.0).abs() < 1e-15);
        // Rim node: neighbours {hub, 2 rim} with 2 of 3 pairs linked.
        assert!((local_clustering(&w, 1) - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn degree_extremes_and_variance() {
        let s = generators::star(5);
        assert_eq!(max_degree(&s), 4);
        assert_eq!(min_degree(&s), 1);
        assert!(degree_variance(&s) > 0.0);
        assert_eq!(degree_variance(&generators::cycle(7)), 0.0);
        assert_eq!(max_degree(&Graph::new(0)), 0);
        assert_eq!(min_degree(&Graph::new(0)), 0);
        assert_eq!(degree_variance(&Graph::new(0)), 0.0);
    }

    #[test]
    fn feature_vector_consistency() {
        let g = generators::complete(4);
        let f = feature_vector(&g);
        assert_eq!(f, vec![4.0, 6.0, 1.0, 3.0, 3.0, 3.0, 0.0, 4.0, 1.0]);
    }

    #[test]
    fn feature_vectors_match_recorded_bits() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for (g, bits) in [
            (
                Graph::new(0),
                [
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                ],
            ),
            (
                generators::cycle(5),
                [
                    0x4014000000000000,
                    0x4014000000000000,
                    0x3fe0000000000000,
                    0x4000000000000000,
                    0x4000000000000000,
                    0x4000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                ],
            ),
            (
                generators::star(4),
                [
                    0x4010000000000000,
                    0x4008000000000000,
                    0x3fe0000000000000,
                    0x3ff8000000000000,
                    0x4008000000000000,
                    0x3ff0000000000000,
                    0x3fe8000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                ],
            ),
            (
                generators::barbell(3),
                [
                    0x4018000000000000,
                    0x401c000000000000,
                    0x3fddddddddddddde,
                    0x4002aaaaaaaaaaab,
                    0x4008000000000000,
                    0x4000000000000000,
                    0x3fcc71c71c71c71c,
                    0x4000000000000000,
                    0x3fe8e38e38e38e39,
                ],
            ),
            (
                generators::wheel(6),
                [
                    0x4018000000000000,
                    0x4024000000000000,
                    0x3fe5555555555555,
                    0x400aaaaaaaaaaaab,
                    0x4014000000000000,
                    0x4008000000000000,
                    0x3fe1c71c71c71c71,
                    0x4014000000000000,
                    0x3fe471c71c71c71b,
                ],
            ),
            (
                generators::erdos_renyi(8, 0.5, &mut StdRng::seed_from_u64(7)),
                [
                    0x4020000000000000,
                    0x4032000000000000,
                    0x3fe4924924924925,
                    0x4012000000000000,
                    0x401c000000000000,
                    0x4008000000000000,
                    0x3ff4000000000000,
                    0x402e000000000000,
                    0x3fe65ca5ca5ca5ca,
                ],
            ),
        ] {
            let got: Vec<u64> = feature_vector(&g).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, bits);
        }
    }
}
