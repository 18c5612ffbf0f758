//! Canonicalization of QAOA parameters under the exact landscape symmetries.
//!
//! For MaxCut cost functions (which satisfy `C(z) = C(z̄)`), the QAOA
//! expectation is invariant under
//!
//! 1. `βᵢ → βᵢ + π/2` independently per layer (the shift introduces an
//!    `X^⊗n` that commutes through the symmetric cost layers),
//! 2. `γᵢ → γᵢ + 2π` for integer-valued (unweighted) costs,
//! 3. the global conjugation `γᵢ → −γᵢ, βᵢ → −βᵢ` (complex conjugation of
//!    the circuit).
//!
//! Best-of-N multistart therefore returns an *arbitrary symmetric image* of
//! the optimum, different per graph — which destroys the cross-instance
//! regularities (§II-B/C) the predictor must learn. The paper's clean
//! parameter trends implicitly rely on consistent representatives; this
//! module makes that explicit: [`canonicalize`] folds every parameter
//! vector into the fundamental domain `γᵢ ∈ [0, 2π), βᵢ ∈ [0, π/2)` with
//! `γ₁ ≤ π` (conjugation fold), and the data-generation pipeline and
//! two-level flow apply it before any learning or prediction.
//!
//! All three symmetries are verified numerically in this module's tests and
//! in the property suite.

use std::f64::consts::{FRAC_PI_2, PI};
use std::ops::Range;

use graphs::{Graph, GraphError};

const TWO_PI: f64 = 2.0 * PI;

/// Folds `(γs, βs)` into the canonical fundamental domain in place.
///
/// Assumes an unweighted (integer-cost) MaxCut instance; for weighted graphs
/// only the β folding and conjugation remain exact, which is still a valid
/// (weaker) canonicalization.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn canonicalize(gammas: &mut [f64], betas: &mut [f64]) {
    assert_eq!(gammas.len(), betas.len(), "layer count mismatch");
    for g in gammas.iter_mut() {
        *g = g.rem_euclid(TWO_PI);
    }
    for b in betas.iter_mut() {
        *b = b.rem_euclid(FRAC_PI_2);
    }
    // Conjugation fold: pick the representative with γ₁ ∈ [0, π].
    if let Some(&g1) = gammas.first() {
        if g1 > PI {
            for g in gammas.iter_mut() {
                *g = (TWO_PI - *g).rem_euclid(TWO_PI);
            }
            for b in betas.iter_mut() {
                *b = (FRAC_PI_2 - *b).rem_euclid(FRAC_PI_2);
            }
        }
    }
}

/// Returns the canonical image of a packed parameter vector
/// `[γ₁…γ_p, β₁…β_p]`.
///
/// # Panics
///
/// Panics if the length is odd.
///
/// ```
/// use std::f64::consts::PI;
/// // A symmetric image of (π/2, π/8) folds back onto it.
/// let packed = [2.0 * PI - PI / 2.0, PI / 2.0 - PI / 8.0];
/// let canon = qaoa::canonical::canonicalize_packed(&packed);
/// assert!((canon[0] - PI / 2.0).abs() < 1e-12);
/// assert!((canon[1] - PI / 8.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn canonicalize_packed(params: &[f64]) -> Vec<f64> {
    assert!(
        params.len().is_multiple_of(2),
        "packed parameters must have even length"
    );
    let p = params.len() / 2;
    let mut gammas = params[..p].to_vec();
    let mut betas = params[p..].to_vec();
    canonicalize(&mut gammas, &mut betas);
    gammas.extend(betas);
    gammas
}

/// Folds a *chain* of packed vectors (one per depth, as produced by an
/// INTERP schedule) for display, keeping the image choice continuous across
/// depths: the conjugation decision and the uniform β shift of each row are
/// anchored to the previous row's folded mean, so trends read coherently
/// down the table.
///
/// Each row gets the global conjugation fold into the display domain
/// `γ ∈ [0, 2π], β ∈ [0, π]` (when `γ₁ > π`, `γᵢ → 2π − γᵢ, βᵢ → π − βᵢ`)
/// and one uniform β shift by a multiple of π/2. Unlike
/// [`canonicalize_packed`] there is no per-layer β folding, so smooth
/// per-stage schedules (Figs. 2–3) stay smooth. A one-row chain lands its β
/// mean in `[0, π/2)`.
///
/// ```
/// use std::f64::consts::PI;
/// let chain = vec![vec![0.5, 0.3], vec![0.45, 0.55, 0.35, 0.25]];
/// let folded = qaoa::canonical::display_fold_chain(&chain);
/// assert_eq!(folded.len(), 2);
/// assert_eq!(folded[0].len(), 2);
/// ```
#[must_use]
pub fn display_fold_chain(chain: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(chain.len());
    let mut prev_mean: Option<f64> = None;
    for packed in chain {
        let p = packed.len() / 2;
        let mut gammas: Vec<f64> = packed[..p].iter().map(|g| g.rem_euclid(TWO_PI)).collect();
        let mut betas: Vec<f64> = packed[p..].to_vec();
        if gammas.first().is_some_and(|&g1| g1 > PI) {
            for g in &mut gammas {
                *g = (TWO_PI - *g).rem_euclid(TWO_PI);
            }
            for b in &mut betas {
                *b = PI - *b;
            }
        }
        if !betas.is_empty() {
            let mean = mean_of(&betas);
            // Anchor: first row lands in [0, π/2); later rows pick the shift
            // whose folded mean is closest to the previous row's.
            let k = match prev_mean {
                None => (mean / FRAC_PI_2).floor(),
                Some(anchor) => ((mean - anchor) / FRAC_PI_2).round(),
            };
            for b in &mut betas {
                *b -= k * FRAC_PI_2;
            }
            prev_mean = Some(mean_of(&betas));
        }
        gammas.extend(betas);
        out.push(gammas);
    }
    out
}

/// Mean of a non-empty slice of layer angles.
fn mean_of(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / crate::count_f64(xs.len())
}

/// Upper bound on the number of candidate labelings [`graph_key`] will
/// enumerate before falling back to a heuristic (still sound) ordering.
const MAX_LABELINGS: u128 = 100_000;

/// A canonical, hashable form of a graph, usable as a cache key.
///
/// The key is the graph's edge list under a *canonical labeling*: vertices
/// are partitioned by iterated Weisfeiler–Leman color refinement, then the
/// lexicographically smallest relabeled edge list over all permutations
/// consistent with the partition is selected. Two properties follow:
///
/// * **Soundness** — equal keys imply isomorphic graphs, always: the key
///   contains the full edge multiset under *some* relabeling, so equal keys
///   exhibit an explicit isomorphism. A cache keyed on this type can never
///   conflate distinct problems.
/// * **Completeness** — isomorphic graphs get equal keys whenever the
///   refinement-constrained search space is below [`MAX_LABELINGS`]
///   candidates (always true for the paper's 8-node ensembles). Beyond
///   that, a deterministic heuristic ordering is used and isomorphic
///   duplicates may miss the cache — a performance, not correctness, loss.
///
/// QAOA expectation landscapes (and MaxCut optima) are invariant under
/// graph isomorphism, so a depth-1 optimum computed for the [canonical
/// representative](CanonicalGraphKey::to_graph) is valid for every graph
/// with the same key.
///
/// **Cost.** [`graph_key`] works on flat buffers: a CSR adjacency with
/// ranked weights, refinement rounds that only sort inside classes of two
/// or more vertices, and a candidate search that swaps two vertices per
/// step into one reused edge buffer. It makes a fixed handful of
/// allocations per call, independent of the candidate count. On the
/// `predict_path` bench (n = 8 Erdős–Rényi graphs at p = 0.5, about two
/// candidates each), a key takes about 2.3 µs on a 2-vCPU x86-64 host.
/// `tests/tests/canonical_parity.rs` holds the key to the bits of the
/// per-vertex `Vec` implementation this one replaced.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalGraphKey {
    n_nodes: usize,
    /// Canonically relabeled edges `(u, v, weight bits)` with `u < v`,
    /// sorted.
    edges: Vec<(u32, u32, u64)>,
}

impl CanonicalGraphKey {
    /// Number of nodes of the keyed graph.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of edges of the keyed graph.
    #[must_use]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The canonically relabeled edge list `(u, v, weight bits)` with
    /// `u < v`, sorted — the key's full identity, exposed so callers (wire
    /// codecs, on-disk caches) can encode it stably.
    #[must_use]
    pub fn edges(&self) -> &[(u32, u32, u64)] {
        &self.edges
    }

    /// Reassembles a key from its parts (the inverse of
    /// [`CanonicalGraphKey::edges`]), validating the structural invariants
    /// every [`graph_key`]-produced key satisfies: endpoints in range and
    /// distinct with `u < v`, the list strictly sorted (so no duplicate
    /// edges), and finite weights.
    ///
    /// Soundness survives decoding untrusted input: two equal keys have
    /// identical edge lists and therefore describe literally the same
    /// labeled graph, so a cache keyed on decoded keys still never
    /// conflates distinct problems. A forged *non-canonical* edge list
    /// merely fails to match any [`graph_key`] output (a wasted cache
    /// entry, not a wrong answer).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn from_parts(n_nodes: usize, edges: Vec<(u32, u32, u64)>) -> Result<Self, String> {
        for (i, &(u, v, bits)) in edges.iter().enumerate() {
            if u >= v {
                return Err(format!(
                    "edge {i}: endpoints must satisfy u < v, got {u}-{v}"
                ));
            }
            if !usize::try_from(v).is_ok_and(|v| v < n_nodes) {
                return Err(format!(
                    "edge {i}: endpoint {v} out of range for {n_nodes} nodes"
                ));
            }
            if !f64::from_bits(bits).is_finite() {
                return Err(format!("edge {i}: non-finite weight"));
            }
            if i > 0 && edges[i - 1] >= (u, v, bits) {
                return Err(format!("edge {i}: list must be strictly sorted"));
            }
        }
        Ok(Self { n_nodes, edges })
    }

    /// Rebuilds the canonical representative graph of this key.
    ///
    /// # Errors
    ///
    /// Never fails for keys produced by [`graph_key`] or
    /// [`CanonicalGraphKey::from_parts`] (edges are in range and
    /// deduplicated by construction); an endpoint beyond the target's
    /// `usize` reports [`GraphError::NodeOutOfRange`].
    pub fn to_graph(&self) -> Result<Graph, GraphError> {
        let endpoint = |x: u32| usize::try_from(x).unwrap_or(usize::MAX);
        let mut g = Graph::new(self.n_nodes);
        for &(u, v, bits) in &self.edges {
            g.add_weighted_edge(endpoint(u), endpoint(v), f64::from_bits(bits))?;
        }
        Ok(g)
    }

    /// A stable 64-bit digest (FNV-1a over the key bytes), suitable for
    /// deterministic seed derivation. Unlike `Hash`, this is identical
    /// across processes and runs.
    #[must_use]
    pub fn hash64(&self) -> u64 {
        let mut h = crate::stablehash::Fnv64::new();
        // Value-preserving on every target of 64 bits or fewer.
        h.write_u64(u64::try_from(self.n_nodes).unwrap_or(u64::MAX));
        for &(u, v, w) in &self.edges {
            h.write_u64(u64::from(u));
            h.write_u64(u64::from(v));
            h.write_u64(w);
        }
        h.finish()
    }
}

/// Computes the [`CanonicalGraphKey`] of `g`. See the type docs for the
/// soundness/completeness contract.
#[must_use]
pub fn graph_key(g: &Graph) -> CanonicalGraphKey {
    let n = g.n_nodes();
    if g.is_empty() {
        // Every labeling of an edgeless graph relabels to the empty list.
        return CanonicalGraphKey {
            n_nodes: n,
            edges: Vec::new(),
        };
    }

    // --- 1. CSR adjacency with weight ranks --------------------------------
    // Vertex v's neighbors are `nbrs[start[v]..start[v + 1]]`, each with
    // its edge weight as a rank among the graph's distinct weight bits:
    // ranks order exactly like the bits, so weighted graphs refine as they
    // would on the bits, one word per neighbor.
    let mut weights: Vec<u64> = g.edges().iter().map(|e| e.weight.to_bits()).collect();
    weights.sort_unstable();
    weights.dedup();
    let n_weights = weights.len();
    let mut start = vec![0usize; n + 1];
    for e in g.edges() {
        start[e.u + 1] += 1;
        start[e.v + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut nbrs = vec![(0usize, 0usize); start[n]];
    let mut fill = start.clone();
    for e in g.edges() {
        let rank = weights
            .binary_search(&e.weight.to_bits())
            .unwrap_or_else(|i| i);
        nbrs[fill[e.u]] = (e.v, rank);
        fill[e.u] += 1;
        nbrs[fill[e.v]] = (e.u, rank);
        fill[e.v] += 1;
    }
    let degree = |v: usize| start[v + 1] - start[v];

    // --- 2. WL color refinement -------------------------------------------
    // Colors are dense ranks: first of the degree, then of the signature
    // (own color, sorted (neighbor color, weight)), until a round no longer
    // splits a class. `order` lists the vertices sorted by color, so a
    // round only sorts within each class of two or more vertices, by the
    // neighbor part of the signature: vertex v's row
    // `sigs[start[v]..start[v + 1]]`, one word `color · n_weights + weight
    // rank` per neighbor, which orders like the pair.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&v| degree(v));
    let mut colors = vec![0usize; n];
    let mut n_classes = 0;
    for (i, &v) in order.iter().enumerate() {
        if i > 0 && degree(order[i - 1]) != degree(v) {
            n_classes += 1;
        }
        colors[v] = n_classes;
    }
    n_classes += 1;
    let mut next = vec![0usize; n];
    let mut sigs = vec![0usize; nbrs.len()];
    let slots = |v: usize| start[v]..start[v + 1];
    for _round in 0..n {
        if n_classes == n {
            // Every class is a single vertex: nothing left to split.
            break;
        }
        let mut n_new = 0;
        for class in order.chunk_by_mut(|&a, &b| colors[a] == colors[b]) {
            if class.len() > 1 {
                for &v in class.iter() {
                    let sig = &mut sigs[slots(v)];
                    for (s, &(w, rank)) in sig.iter_mut().zip(&nbrs[slots(v)]) {
                        *s = colors[w] * n_weights + rank;
                    }
                    sig.sort_unstable();
                }
                class.sort_unstable_by(|&a, &b| sigs[slots(a)].cmp(&sigs[slots(b)]));
            }
            for (i, &v) in class.iter().enumerate() {
                if i > 0 && sigs[slots(class[i - 1])] != sigs[slots(v)] {
                    n_new += 1;
                }
                next[v] = n_new;
            }
            n_new += 1;
        }
        std::mem::swap(&mut colors, &mut next);
        let stable = n_new == n_classes;
        n_classes = n_new;
        if stable {
            break;
        }
    }

    // --- 3. Color classes as contiguous slices, in color order ------------
    // `members` is the labeling: vertex `members[i]` gets label `i`.
    // Within a class the vertices start in index order.
    let mut members = order;
    let mut classes: Vec<Range<usize>> = Vec::with_capacity(n_classes);
    for class in members.chunk_by_mut(|&a, &b| colors[a] == colors[b]) {
        class.sort_unstable();
        let lo = classes.last().map_or(0, |c| c.end);
        classes.push(lo..lo + class.len());
    }
    let mut position_of = vec![0u32; n];
    for (i, &v) in members.iter().enumerate() {
        position_of[v] = label(i);
    }

    // The identity labeling is the heuristic (sound but not complete)
    // fallback ordering: refined color, then original index.
    let mut best = Vec::with_capacity(g.n_edges());
    relabel_edges(g, &position_of, &mut best);
    if !exceeds_max_labelings(&classes) {
        // --- 4. Exhaustive search over class-respecting labelings ---------
        // An odometer over the classes whose digits are per-class Heap's
        // algorithm steps: each step swaps two vertices of one class.
        classes.retain(|class| class.len() > 1);
        let mut heap_counters = vec![0usize; n];
        let mut candidate = Vec::with_capacity(best.len());
        while next_labeling(&mut members, &mut heap_counters, &classes, &mut position_of) {
            relabel_edges(g, &position_of, &mut candidate);
            if candidate < best {
                std::mem::swap(&mut best, &mut candidate);
            }
        }
    }

    CanonicalGraphKey {
        n_nodes: n,
        edges: best,
    }
}

/// `true` when the product of the class factorials — the number of
/// class-respecting labelings — exceeds [`MAX_LABELINGS`].
fn exceeds_max_labelings(classes: &[Range<usize>]) -> bool {
    let mut total: u128 = 1;
    for class in classes {
        let mut k: u128 = 1;
        for _ in 1..class.len() {
            k += 1;
            total = total.saturating_mul(k);
            if total > MAX_LABELINGS {
                return true;
            }
        }
    }
    false
}

/// Steps the odometer of class-respecting labelings: the first class
/// whose Heap's algorithm has arrangements left swaps two of its vertices
/// (updating `position_of`), and every class before it has wrapped round
/// to start over. Returns `false` once every labeling has been visited.
fn next_labeling(
    members: &mut [usize],
    heap_counters: &mut [usize],
    classes: &[Range<usize>],
    position_of: &mut [u32],
) -> bool {
    for class in classes {
        let class_members = &mut members[class.clone()];
        if let Some((i, j)) = heap_step(class_members, &mut heap_counters[class.clone()]) {
            position_of[class_members[i]] = label(class.start + i);
            position_of[class_members[j]] = label(class.start + j);
            return true;
        }
    }
    false
}

/// One step of Heap's algorithm over `items` with its counters `c`: swaps
/// two items and returns their indices, or returns `None` (leaving `c`
/// reset) once all `items.len()!` arrangements have been visited.
fn heap_step(items: &mut [usize], c: &mut [usize]) -> Option<(usize, usize)> {
    let mut i = 1;
    while i < items.len() {
        if c[i] < i {
            let j = if i % 2 == 0 { 0 } else { c[i] };
            items.swap(j, i);
            c[i] += 1;
            return Some((j, i));
        }
        c[i] = 0;
        i += 1;
    }
    None
}

/// A vertex label in the key's `u32` domain. Labels are below the node
/// count, and a graph with more than `u32::MAX` nodes could not have its
/// per-vertex buffers allocated in the first place.
fn label(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
}

/// Writes `g`'s edges under the labeling `position_of`, as sorted
/// `(u, v, weight bits)` with `u < v`, into `out`.
fn relabel_edges(g: &Graph, position_of: &[u32], out: &mut Vec<(u32, u32, u64)>) {
    out.clear();
    out.extend(g.edges().iter().map(|e| {
        let (a, b) = (position_of[e.u], position_of[e.v]);
        (a.min(b), a.max(b), e.weight.to_bits())
    }));
    out.sort_unstable();
}

/// `true` if the packed vector already lies in the canonical domain.
#[must_use]
pub fn is_canonical(params: &[f64]) -> bool {
    let p = params.len() / 2;
    let gammas_ok = params[..p].iter().all(|g| (0.0..TWO_PI).contains(g));
    let betas_ok = params[p..].iter().all(|b| (0.0..FRAC_PI_2).contains(b));
    let conj_ok = params.first().is_none_or(|&g1| g1 <= PI);
    gammas_ok && betas_ok && conj_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MaxCutProblem, QaoaAnsatz};
    use graphs::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn folding_lands_in_domain() {
        let mut g = vec![7.0, -1.0, 100.0];
        let mut b = vec![3.0, -0.2, 9.9];
        canonicalize(&mut g, &mut b);
        assert!(is_canonical(
            &g.iter().chain(&b).copied().collect::<Vec<_>>()
        ));
    }

    #[test]
    fn canonical_image_preserves_expectation() {
        // The whole point: folding must not change ⟨C⟩ on unweighted graphs.
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..6 {
            let graph = generators::erdos_renyi_nonempty(6, 0.5, &mut rng);
            let problem = MaxCutProblem::new(&graph).unwrap();
            for p in 1..=3 {
                let ansatz = QaoaAnsatz::new(problem.clone(), p).unwrap();
                let params: Vec<f64> = (0..2 * p)
                    .map(|i| {
                        if i < p {
                            rng.gen_range(0.0..crate::GAMMA_MAX)
                        } else {
                            rng.gen_range(0.0..crate::BETA_MAX)
                        }
                    })
                    .collect();
                let folded = canonicalize_packed(&params);
                let e0 = ansatz.expectation(&params).unwrap();
                let e1 = ansatz.expectation(&folded).unwrap();
                assert!(
                    (e0 - e1).abs() < 1e-9,
                    "p={p}: {e0} vs {e1} for {params:?} -> {folded:?}"
                );
            }
        }
    }

    #[test]
    fn per_layer_beta_shift_is_a_symmetry() {
        // β₂ → β₂ + π/2 alone (middle layer) leaves ⟨C⟩ unchanged.
        let mut rng = StdRng::seed_from_u64(4);
        let graph = generators::erdos_renyi_nonempty(5, 0.6, &mut rng);
        let ansatz = QaoaAnsatz::new(MaxCutProblem::new(&graph).unwrap(), 3).unwrap();
        let params = [0.7, 1.2, 2.0, 0.3, 0.9, 0.2];
        let mut shifted = params;
        shifted[4] += FRAC_PI_2;
        let e0 = ansatz.expectation(&params).unwrap();
        let e1 = ansatz.expectation(&shifted).unwrap();
        assert!((e0 - e1).abs() < 1e-9);
    }

    #[test]
    fn idempotent() {
        let params = [5.0, 1.0, 2.8, 0.1];
        let once = canonicalize_packed(&params);
        let twice = canonicalize_packed(&once);
        for (a, b) in once.iter().zip(&twice) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(is_canonical(&once));
    }

    #[test]
    fn symmetric_pairs_fold_to_same_point() {
        let params = [1.0, 2.5, 0.3, 0.4];
        // Image under conjugation + assorted β shifts.
        let image = [
            TWO_PI - 1.0,
            TWO_PI - 2.5,
            (FRAC_PI_2 - 0.3) + FRAC_PI_2,
            (FRAC_PI_2 - 0.4) + 3.0 * FRAC_PI_2,
        ];
        let a = canonicalize_packed(&params);
        let b = canonicalize_packed(&image);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn empty_is_fine() {
        let out = canonicalize_packed(&[]);
        assert!(out.is_empty());
        assert!(is_canonical(&[]));
    }
}

#[cfg(test)]
mod graph_key_tests {
    use super::*;
    use graphs::generators;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

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

    #[test]
    fn isomorphic_graphs_share_a_key() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let g = generators::erdos_renyi_nonempty(7, 0.5, &mut rng);
            let h = relabel(&g, &mut rng);
            assert_eq!(graph_key(&g), graph_key(&h));
            assert_eq!(graph_key(&g).hash64(), graph_key(&h).hash64());
        }
    }

    #[test]
    fn regular_graphs_canonicalize_exactly() {
        // Worst case for refinement: every vertex starts in one color class.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let g = generators::random_regular(8, 3, &mut rng).unwrap();
            let h = relabel(&g, &mut rng);
            assert_eq!(graph_key(&g), graph_key(&h));
        }
    }

    #[test]
    fn distinct_graphs_get_distinct_keys() {
        let path = generators::path(5);
        let cycle = generators::cycle(5);
        let star = generators::star(5);
        let kp = graph_key(&path);
        let kc = graph_key(&cycle);
        let ks = graph_key(&star);
        assert_ne!(kp, kc);
        assert_ne!(kp, ks);
        assert_ne!(kc, ks);
        // Same edge count, different structure: P4 vs K3 + isolated vertex.
        let p4 = generators::path(4);
        let mut tri = Graph::new(4);
        tri.add_edge(0, 1).unwrap();
        tri.add_edge(1, 2).unwrap();
        tri.add_edge(0, 2).unwrap();
        assert_ne!(graph_key(&p4), graph_key(&tri));
    }

    #[test]
    fn canonical_representative_is_isomorphic() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::erdos_renyi_nonempty(6, 0.6, &mut rng);
        let key = graph_key(&g);
        let rep = key.to_graph().unwrap();
        assert_eq!(rep.n_nodes(), g.n_nodes());
        assert_eq!(rep.n_edges(), g.n_edges());
        // Re-keying the representative is a fixed point.
        assert_eq!(graph_key(&rep), key);
    }

    #[test]
    fn hash64_is_stable_and_discriminating() {
        let g = generators::cycle(6);
        assert_eq!(graph_key(&g).hash64(), graph_key(&g).hash64());
        assert_ne!(
            graph_key(&g).hash64(),
            graph_key(&generators::path(6)).hash64()
        );
        // Must not depend on process-level hash randomization: pin a value
        // shape (nonzero, reproducible within this test run suffices for
        // FNV over fixed bytes).
        let k = graph_key(&g);
        assert_eq!(k.hash64(), graph_key(&generators::cycle(6)).hash64());
        assert_eq!(k.n_nodes(), 6);
        assert_eq!(k.n_edges(), 6);
    }

    #[test]
    fn weighted_edges_distinguish_keys() {
        let mut a = Graph::new(3);
        a.add_weighted_edge(0, 1, 1.0).unwrap();
        a.add_weighted_edge(1, 2, 2.0).unwrap();
        let mut b = Graph::new(3);
        b.add_weighted_edge(0, 1, 1.0).unwrap();
        b.add_weighted_edge(1, 2, 1.0).unwrap();
        assert_ne!(graph_key(&a), graph_key(&b));
        // Weight-permuted isomorphic image still matches.
        let mut c = Graph::new(3);
        c.add_weighted_edge(2, 1, 1.0).unwrap();
        c.add_weighted_edge(1, 0, 2.0).unwrap();
        assert_eq!(graph_key(&a), graph_key(&c));
    }

    #[test]
    fn empty_and_tiny_graphs() {
        assert_eq!(graph_key(&Graph::new(0)).n_nodes(), 0);
        let lone = Graph::new(1);
        assert_eq!(graph_key(&lone).n_edges(), 0);
        assert_eq!(graph_key(&lone).n_nodes(), 1);
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let key = graph_key(&generators::cycle(6));
        let rebuilt = CanonicalGraphKey::from_parts(key.n_nodes(), key.edges().to_vec()).unwrap();
        assert_eq!(rebuilt, key);
        assert_eq!(rebuilt.hash64(), key.hash64());
        // Each invariant is enforced.
        let w = 1.0f64.to_bits();
        assert!(CanonicalGraphKey::from_parts(3, vec![(1, 1, w)]).is_err());
        assert!(CanonicalGraphKey::from_parts(3, vec![(1, 0, w)]).is_err());
        assert!(CanonicalGraphKey::from_parts(3, vec![(0, 3, w)]).is_err());
        assert!(CanonicalGraphKey::from_parts(3, vec![(0, 1, w), (0, 1, w)]).is_err());
        assert!(CanonicalGraphKey::from_parts(3, vec![(1, 2, w), (0, 1, w)]).is_err());
        assert!(CanonicalGraphKey::from_parts(3, vec![(0, 1, f64::NAN.to_bits())]).is_err());
        assert!(CanonicalGraphKey::from_parts(0, vec![]).is_ok());
    }
}

#[cfg(test)]
mod display_fold_tests {
    use super::*;
    use crate::{MaxCutProblem, QaoaAnsatz};
    use graphs::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A one-row chain: the fold a single packed vector gets for display.
    fn fold_one(params: &[f64]) -> Vec<f64> {
        display_fold_chain(&[params.to_vec()]).remove(0)
    }

    #[test]
    fn display_fold_preserves_expectation() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::erdos_renyi_nonempty(5, 0.5, &mut rng);
        let ansatz = QaoaAnsatz::new(MaxCutProblem::new(&g).unwrap(), 2).unwrap();
        for _ in 0..10 {
            let params = [
                rng.gen_range(0.0..crate::GAMMA_MAX),
                rng.gen_range(0.0..crate::GAMMA_MAX),
                rng.gen_range(0.0..crate::BETA_MAX),
                rng.gen_range(0.0..crate::BETA_MAX),
            ];
            let folded = fold_one(&params);
            let e0 = ansatz.expectation(&params).unwrap();
            let e1 = ansatz.expectation(&folded).unwrap();
            assert!((e0 - e1).abs() < 1e-9, "{params:?} -> {folded:?}");
        }
    }

    #[test]
    fn display_fold_identity_when_gamma1_small() {
        let params = [1.0, 2.0, 0.5, 0.6];
        assert_eq!(fold_one(&params), params.to_vec());
    }

    #[test]
    fn display_fold_lands_in_first_image() {
        let params = [5.0, 6.0, 2.5, 3.0];
        let folded = fold_one(&params);
        assert!(folded[0] <= PI);
        // Exact mirror of every coordinate.
        assert!((folded[0] - (TWO_PI - 5.0)).abs() < 1e-12);
        assert!((folded[2] - (PI - 2.5)).abs() < 1e-12);
    }
}
