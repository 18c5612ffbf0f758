use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::GraphError;

/// An undirected weighted edge `(u, v, w)` with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Edge weight (1.0 for the unweighted graphs used in the paper).
    pub weight: f64,
}

/// A simple undirected graph with `f64` edge weights.
///
/// Nodes are `0..n_nodes`. Parallel edges are rejected by keeping at most
/// one edge per unordered pair; self-loops are errors. The representation is
/// an edge list plus an adjacency-set index, which suits both the QAOA
/// circuit construction (iterate edges) and generators (membership tests).
///
/// # Example
///
/// ```
/// use graphs::Graph;
/// # fn main() -> Result<(), graphs::GraphError> {
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1)?;
/// g.add_weighted_edge(1, 2, 2.5)?;
/// assert_eq!(g.n_edges(), 2);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(1, 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    n_nodes: usize,
    edges: Vec<Edge>,
    /// Unordered-pair membership index, `min * n + max`.
    #[serde(skip)]
    index: BTreeSet<usize>,
}

impl Graph {
    /// Creates an empty graph on `n_nodes` nodes.
    #[must_use]
    pub fn new(n_nodes: usize) -> Self {
        Self {
            n_nodes,
            edges: Vec::new(),
            index: BTreeSet::new(),
        }
    }

    /// Builds a graph from unweighted edge pairs.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from [`Graph::add_edge`].
    pub fn from_edges(n_nodes: usize, pairs: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut g = Self::new(n_nodes);
        for &(u, v) in pairs {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    fn pair_key(&self, u: usize, v: usize) -> usize {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        a * self.n_nodes + b
    }

    /// Adds an unweighted (weight 1) edge. Duplicate pairs are ignored.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfRange`] if either endpoint is invalid.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.add_weighted_edge(u, v, 1.0)
    }

    /// Adds a weighted edge. Duplicate pairs are ignored (first weight wins).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::add_edge`].
    pub fn add_weighted_edge(&mut self, u: usize, v: usize, weight: f64) -> Result<(), GraphError> {
        for node in [u, v] {
            if node >= self.n_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node,
                    n_nodes: self.n_nodes,
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let key = self.pair_key(u, v);
        if self.index.insert(key) {
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            self.edges.push(Edge { u: a, v: b, weight });
        }
        Ok(())
    }

    /// Adds an edge whose endpoints the caller built in range and distinct,
    /// the one way this crate's generators and [`Graph::complement`] add
    /// edges.
    pub(crate) fn push_valid_edge(&mut self, u: usize, v: usize, weight: f64) {
        // lint:allow(no-panic-lib) every caller derives u != v from loops or edges over 0..n_nodes, so add_weighted_edge cannot fail
        self.add_weighted_edge(u, v, weight).expect("valid edge");
    }

    /// Number of nodes.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of edges.
    #[must_use]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the graph has no edges.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Borrows the edge list (each edge once, with `u < v`).
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// `true` if the unordered pair `(u, v)` is an edge.
    #[must_use]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u != v && u < self.n_nodes && v < self.n_nodes && self.index.contains(&self.pair_key(u, v))
    }

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= n_nodes`.
    #[must_use]
    pub fn degree(&self, node: usize) -> usize {
        assert!(node < self.n_nodes, "node out of range");
        self.edges
            .iter()
            .filter(|e| e.u == node || e.v == node)
            .count()
    }

    /// Neighbors of `node`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `node >= n_nodes`.
    #[must_use]
    pub fn neighbors(&self, node: usize) -> Vec<usize> {
        assert!(node < self.n_nodes, "node out of range");
        let mut out: Vec<usize> = self
            .edges
            .iter()
            .filter_map(|e| {
                if e.u == node {
                    Some(e.v)
                } else if e.v == node {
                    Some(e.u)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Sum of all edge weights — the trivial upper bound on any cut.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Weight of the cut induced by `assignment`, where bit `k` of
    /// `assignment` gives the partition of node `k`.
    ///
    /// This is the classical objective `C(z) = Σ_{(u,v)∈E} w_{uv}·[z_u ≠ z_v]`
    /// that QAOA maximizes.
    #[must_use]
    pub fn cut_value(&self, assignment: usize) -> f64 {
        self.edges
            .iter()
            .filter(|e| (assignment >> e.u) & 1 != (assignment >> e.v) & 1)
            .map(|e| e.weight)
            .sum()
    }

    /// The complement graph (same nodes, complementary unweighted edges).
    #[must_use]
    pub fn complement(&self) -> Graph {
        let mut g = Graph::new(self.n_nodes);
        for u in 0..self.n_nodes {
            for v in (u + 1)..self.n_nodes {
                if !self.has_edge(u, v) {
                    g.push_valid_edge(u, v, 1.0);
                }
            }
        }
        g
    }

    /// `true` if every node can reach every other node.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.n_nodes == 0 {
            return true;
        }
        let mut seen = vec![false; self.n_nodes];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Rebuilds the internal adjacency index (needed after deserialization,
    /// which skips the index field).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .edges
            .iter()
            .map(|e| e.u * self.n_nodes + e.v)
            .collect();
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n_nodes, self.n_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(2, 1).unwrap();
        assert_eq!(g.n_edges(), 2);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.neighbors(1), vec![0, 2]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 0).unwrap();
        g.add_weighted_edge(0, 1, 9.0).unwrap();
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.edges()[0].weight, 1.0);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.add_edge(0, 5),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
        assert!(matches!(
            g.add_edge(1, 1),
            Err(GraphError::SelfLoop { node: 1 })
        ));
    }

    #[test]
    fn cut_values_on_triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.cut_value(0b000), 0.0);
        assert_eq!(g.cut_value(0b001), 2.0);
        assert_eq!(g.cut_value(0b011), 2.0);
        assert_eq!(g.cut_value(0b111), 0.0);
        // Cut is symmetric under global flip.
        for z in 0..8usize {
            assert_eq!(g.cut_value(z), g.cut_value(!z & 0b111));
        }
    }

    #[test]
    fn weighted_cut() {
        let mut g = Graph::new(2);
        g.add_weighted_edge(0, 1, 2.5).unwrap();
        assert_eq!(g.cut_value(0b01), 2.5);
        assert_eq!(g.total_weight(), 2.5);
    }

    #[test]
    fn complement_partitions_pairs() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let c = g.complement();
        assert_eq!(g.n_edges() + c.n_edges(), 4 * 3 / 2);
        for u in 0..4 {
            for v in (u + 1)..4 {
                assert_ne!(g.has_edge(u, v), c.has_edge(u, v));
            }
        }
    }

    #[test]
    fn connectivity() {
        let path = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(path.is_connected());
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!split.is_connected());
        assert!(Graph::new(0).is_connected());
        assert!(!Graph::new(2).is_connected());
    }

    #[test]
    fn display() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(g.to_string(), "Graph(n=3, m=1)");
    }

    #[test]
    fn rebuild_index_restores_membership() {
        let g = Graph::from_edges(3, &[(0, 2)]).unwrap();
        let mut clone = Graph {
            n_nodes: g.n_nodes,
            edges: g.edges.clone(),
            index: BTreeSet::new(),
        };
        assert!(!clone.has_edge(0, 2)); // index empty
        clone.rebuild_index();
        assert!(clone.has_edge(0, 2));
    }
}
