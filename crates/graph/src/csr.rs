//! Compressed-sparse-row graph storage and its builder.
//!
//! [`CsrGraph`] is an immutable, undirected, weighted graph optimised for the
//! read-heavy access patterns of query processing: cache-friendly sequential
//! neighbor scans and `O(log deg)` edge lookups (adjacency lists are kept
//! sorted by target id).

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Node identifier. `u32` bounds graphs at ~4.2 billion nodes, which is far
/// beyond the scale of the reproduction while halving index memory compared
/// to `usize` on 64-bit targets.
pub type NodeId = u32;

/// An immutable undirected weighted graph in CSR layout.
///
/// Every undirected edge `{u, v}` is stored as the two directed arcs
/// `(u, v)` and `(v, u)` so that neighbor scans never need a reverse index.
/// Adjacency lists are sorted by target id; parallel edges are merged at
/// build time (keeping the maximum weight) and self-loops are dropped.
///
/// The three arrays are flat — traversals index them directly — and sit
/// behind `Arc`s only so that a clone (an epoch whose batch edits no edge)
/// shares them instead of copying.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CsrGraph {
    /// `offsets[u] .. offsets[u + 1]` delimits `u`'s slice in `targets`.
    offsets: Arc<[usize]>,
    /// Concatenated, per-node-sorted adjacency lists.
    targets: Arc<[NodeId]>,
    /// `weights[i]` is the weight of the arc `targets[i]`.
    weights: Arc<[f32]>,
    /// Process-unique identity token, assigned at construction and shared by
    /// clones (a clone *is* the same graph). Caches keyed on derived data
    /// (e.g. seeker proximity) include it so entries can never be served for
    /// a different graph.
    token: u64,
}

fn next_graph_token() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl CsrGraph {
    /// Creates an empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            offsets: vec![0; n + 1].into(),
            targets: Arc::from(Vec::new()),
            weights: Arc::from(Vec::new()),
            token: next_graph_token(),
        }
    }

    /// The graph's process-unique identity token (stable across clones,
    /// distinct for every separately constructed graph).
    #[inline]
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Number of nodes, including isolated ones.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *undirected* edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of stored directed arcs (`2 × num_edges`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Degree of `u` (number of distinct neighbors).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Sorted slice of `u`'s neighbors.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Weights parallel to [`CsrGraph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, u: NodeId) -> &[f32] {
        let u = u as usize;
        &self.weights[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Iterator over `(neighbor, weight)` pairs of `u`.
    #[inline]
    pub fn edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f32)> + '_ {
        self.neighbors(u)
            .iter()
            .copied()
            .zip(self.neighbor_weights(u).iter().copied())
    }

    /// Sum of the weights of `u`'s incident edges.
    pub fn weighted_degree(&self, u: NodeId) -> f64 {
        self.neighbor_weights(u).iter().map(|&w| w as f64).sum()
    }

    /// Whether the undirected edge `{u, v}` exists. `O(log deg(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Weight of the edge `{u, v}`, if present. `O(log deg(u))`.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f32> {
        self.neighbors(u)
            .binary_search(&v)
            .ok()
            .map(|i| self.neighbor_weights(u)[i])
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over every undirected edge exactly once, as `(u, v, w)` with
    /// `u < v`.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        self.nodes()
            .flat_map(move |u| self.edges(u).map(move |(v, w)| (u, v, w)))
            .filter(|&(u, v, _)| u < v)
    }

    /// Approximate resident memory of the graph structure, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
            + self.weights.len() * std::mem::size_of::<f32>()
    }

    /// The node with the largest degree, or `None` for an empty graph.
    pub fn max_degree_node(&self) -> Option<NodeId> {
        self.nodes().max_by_key(|&u| self.degree(u))
    }

    /// Replaces every edge weight using `f(u, v, old) -> new`, preserving the
    /// symmetric storage invariant (both arc copies get the same weight
    /// because `f` is invoked with endpoints ordered `min, max`).
    pub fn map_weights(&mut self, mut f: impl FnMut(NodeId, NodeId, f32) -> f32) {
        let mut weights = self.weights.to_vec();
        for u in self.nodes() {
            let row = self.offsets[u as usize]..self.offsets[u as usize + 1];
            for (w, &v) in weights[row.clone()].iter_mut().zip(&self.targets[row]) {
                *w = f(u.min(v), u.max(v), *w);
            }
        }
        self.weights = weights.into();
        // Weights changed ⇒ derived data (e.g. cached proximity) is stale:
        // re-identify the graph so token-keyed caches miss.
        self.token = next_graph_token();
    }

    /// Returns a copy of the graph with edge edits applied, **keeping this
    /// graph's identity token**.
    ///
    /// Inserting an edge that already exists replaces its weight (most
    /// recent write wins, unlike the builder's max-merge); an insert beats
    /// a removal of the same pair in the same call; removing an absent edge
    /// is a no-op; self-loops are dropped.
    ///
    /// The copy is a linear splice: only the adjacency rows of the edited
    /// endpoints are recomputed, every other row is block-copied with its
    /// offsets shifted, and a call that names no edge shares the arrays
    /// outright. The result equals a [`GraphBuilder`] rebuild of the edited
    /// edge set, bit for bit.
    ///
    /// Preserving the token is what makes live updates incremental: σ
    /// cache entries for seekers the edit cannot reach keep hitting under
    /// the edited graph. The contract is therefore inverted from
    /// [`CsrGraph::map_weights`]: the *caller* must invalidate every
    /// token-keyed cache entry the edits can affect **before** publishing
    /// the edited graph (see `friends_core::live`), because nothing here
    /// will force a miss.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or an inserted weight is not
    /// finite and non-negative (same contract as [`GraphBuilder::add_edge`]).
    pub fn with_edits(
        &self,
        inserts: &[(NodeId, NodeId, f32)],
        removals: &[(NodeId, NodeId)],
    ) -> CsrGraph {
        let n = self.num_nodes();
        let canon = |u: NodeId, v: NodeId| if u < v { (u, v) } else { (v, u) };
        // One record per edit, removals before inserts: after the stable
        // sort the last record of a pair decides it — the batch's last
        // insert of the pair if there is one, a removal otherwise.
        let mut edits: Vec<((NodeId, NodeId), Option<f32>)> = removals
            .iter()
            .map(|&(u, v)| (canon(u, v), None))
            .chain(
                inserts
                    .iter()
                    .filter(|&&(u, v, _)| u != v)
                    .map(|&(u, v, w)| (canon(u, v), Some(w))),
            )
            .collect();
        edits.sort_by_key(|e| e.0);
        // Both directed arcs of every decided pair, grouped by source row.
        let mut arcs: Vec<(NodeId, NodeId, Option<f32>)> = Vec::with_capacity(2 * edits.len());
        for pair in edits.chunk_by(|a, b| a.0 == b.0) {
            let ((u, v), weight) = pair[pair.len() - 1];
            match weight {
                Some(w) => check_edge(n, u, v, w),
                // A self-loop or an out-of-range pair is never stored:
                // nothing to shed.
                None if u == v || v as usize >= n => continue,
                None => {}
            }
            arcs.push((u, v, weight));
            arcs.push((v, u, weight));
        }
        if arcs.is_empty() {
            return self.clone();
        }
        arcs.sort_unstable_by_key(|a| (a.0, a.1));

        let mut next = Splice {
            old: self,
            offsets: Vec::with_capacity(n + 1),
            targets: Vec::with_capacity(self.targets.len() + arcs.len()),
            weights: Vec::with_capacity(self.weights.len() + arcs.len()),
        };
        let mut copied = 0; // rows `..copied` are already in `next`
        for row in arcs.chunk_by(|a, b| a.0 == b.0) {
            let u = row[0].0 as usize;
            next.copy_rows(copied, u);
            next.offsets.push(next.targets.len());
            let mut at = self.offsets[u];
            let end = self.offsets[u + 1];
            for &(_, v, weight) in row {
                let upto = at + self.targets[at..end].partition_point(|&t| t < v);
                next.copy_arcs(at, upto);
                // The stale copy of the pair, if any, is shed either way.
                at = upto + usize::from(upto < end && self.targets[upto] == v);
                if let Some(w) = weight {
                    next.targets.push(v);
                    next.weights.push(w);
                }
            }
            next.copy_arcs(at, end);
            copied = u + 1;
        }
        next.copy_rows(copied, n);
        next.offsets.push(next.targets.len());
        CsrGraph {
            offsets: next.offsets.into(),
            targets: next.targets.into(),
            weights: next.weights.into(),
            token: self.token,
        }
    }
}

/// The arrays [`CsrGraph::with_edits`] is writing, beside the graph it reads.
struct Splice<'g> {
    old: &'g CsrGraph,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<f32>,
}

impl Splice<'_> {
    /// Appends the old arcs `lo..hi` unchanged.
    fn copy_arcs(&mut self, lo: usize, hi: usize) {
        self.targets.extend_from_slice(&self.old.targets[lo..hi]);
        self.weights.extend_from_slice(&self.old.weights[lo..hi]);
    }

    /// Appends the old rows `lo..hi` unchanged: one block copy of their
    /// arcs, their offsets shifted to where the block lands.
    fn copy_rows(&mut self, lo: usize, hi: usize) {
        let (from, to) = (self.old.offsets[lo], self.targets.len());
        self.offsets
            .extend(self.old.offsets[lo..hi].iter().map(|&o| o - from + to));
        self.copy_arcs(from, self.old.offsets[hi]);
    }
}

/// The endpoint and weight contract shared by [`GraphBuilder::add_edge`]
/// and [`CsrGraph::with_edits`].
fn check_edge(n: usize, u: NodeId, v: NodeId, w: f32) {
    if !edge_in_contract(n, u, v, w) {
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for {n} nodes"
        );
        panic!("invalid edge weight {w}");
    }
}

/// Whether the edge `{u, v}` at weight `w` keeps the contract
/// [`GraphBuilder::add_edge`] and [`CsrGraph::with_edits`] enforce on a
/// graph of `n` nodes: both endpoints in range, the weight finite and
/// non-negative.
pub fn edge_in_contract(n: usize, u: NodeId, v: NodeId, w: f32) -> bool {
    (u as usize) < n && (v as usize) < n && w.is_finite() && w >= 0.0
}

/// Incremental builder producing a [`CsrGraph`].
///
/// Edges may be added in any order; duplicates (including the mirrored
/// direction) are merged keeping the **maximum** weight, and self-loops are
/// silently dropped. Node ids must be `< n`.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, f32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with pre-reserved space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range, or if `w` is not finite or is
    /// negative — social proximity weights are non-negative by construction
    /// and letting a NaN in here would poison every downstream bound.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f32) {
        check_edge(self.n, u, v, w);
        if u == v {
            return; // self-loops carry no social information
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    /// Adds an unweighted edge (weight 1.0).
    pub fn add_unweighted(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v, 1.0);
    }

    /// Finalises the builder into an immutable CSR graph.
    pub fn build(mut self) -> CsrGraph {
        // Sort canonical (min, max) pairs, then merge duplicates keeping the
        // max weight: a pair of users connected through several channels is
        // at least as close as its strongest channel.
        self.edges.sort_unstable_by_key(|a| (a.0, a.1));
        self.edges.dedup_by(|next, kept| {
            if next.0 == kept.0 && next.1 == kept.1 {
                kept.2 = kept.2.max(next.2);
                true
            } else {
                false
            }
        });

        let n = self.n;
        let mut counts = vec![0usize; n + 1];
        for &(u, v, _) in &self.edges {
            counts[u as usize + 1] += 1;
            counts[v as usize + 1] += 1;
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;
        let arcs = self.edges.len() * 2;
        let mut targets = vec![0 as NodeId; arcs];
        let mut weights = vec![0f32; arcs];
        let mut cursor = offsets.clone();
        for &(u, v, w) in &self.edges {
            let cu = &mut cursor[u as usize];
            targets[*cu] = v;
            weights[*cu] = w;
            *cu += 1;
            let cv = &mut cursor[v as usize];
            targets[*cv] = u;
            weights[*cv] = w;
            *cv += 1;
        }
        // Edges were sorted by (min, max); per-node lists still need a sort
        // because arcs from the "max endpoint" side arrive out of order.
        for u in 0..n {
            let lo = offsets[u];
            let hi = offsets[u + 1];
            let mut idx: Vec<usize> = (lo..hi).collect();
            idx.sort_unstable_by_key(|&i| targets[i]);
            let ts: Vec<NodeId> = idx.iter().map(|&i| targets[i]).collect();
            let ws: Vec<f32> = idx.iter().map(|&i| weights[i]).collect();
            targets[lo..hi].copy_from_slice(&ts);
            weights[lo..hi].copy_from_slice(&ws);
        }
        CsrGraph {
            offsets: offsets.into(),
            targets: targets.into(),
            weights: weights.into(),
            token: next_graph_token(),
        }
    }

    /// Convenience: builds directly from an edge list.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, f32)>,
    ) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for (u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> CsrGraph {
        GraphBuilder::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (2, 3, 0.5)])
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    fn zero_node_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.max_degree_node(), None);
    }

    #[test]
    fn basic_topology() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = GraphBuilder::from_edges(6, [(5, 0, 1.0), (5, 3, 1.0), (5, 1, 1.0), (5, 4, 1.0)]);
        assert_eq!(g.neighbors(5), &[0, 1, 3, 4]);
    }

    #[test]
    fn edge_lookup_and_weights() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_weight(2, 0), Some(3.0));
        assert_eq!(g.edge_weight(0, 2), Some(3.0));
        assert_eq!(g.edge_weight(3, 0), None);
    }

    #[test]
    fn duplicate_edges_keep_max_weight() {
        let g = GraphBuilder::from_edges(2, [(0, 1, 0.2), (1, 0, 0.9), (0, 1, 0.5)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(0.9));
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1, 1.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid edge weight")]
    fn nan_weight_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, f32::NAN);
    }

    #[test]
    fn weighted_degree_sums() {
        let g = triangle_plus_pendant();
        assert!((g.weighted_degree(2) - 5.5).abs() < 1e-9);
    }

    #[test]
    fn undirected_edges_enumerates_once() {
        let g = triangle_plus_pendant();
        let mut es: Vec<_> = g.undirected_edges().map(|(u, v, _)| (u, v)).collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn map_weights_rescales_symmetrically() {
        let mut g = triangle_plus_pendant();
        g.map_weights(|_, _, w| w * 2.0);
        assert_eq!(g.edge_weight(0, 2), Some(6.0));
        assert_eq!(g.edge_weight(2, 0), Some(6.0));
    }

    #[test]
    fn memory_accounting_positive() {
        let g = triangle_plus_pendant();
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn isolated_trailing_nodes_kept() {
        let g = GraphBuilder::from_edges(10, [(0, 1, 1.0)]);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn with_edits_applies_inserts_and_removals() {
        let g = triangle_plus_pendant();
        let edited = g.with_edits(&[(0, 3, 4.0)], &[(1, 2)]);
        assert_eq!(edited.num_edges(), 4);
        assert_eq!(edited.edge_weight(0, 3), Some(4.0));
        assert_eq!(edited.edge_weight(3, 0), Some(4.0));
        assert!(!edited.has_edge(1, 2));
        assert_eq!(edited.edge_weight(0, 2), Some(3.0), "untouched edge kept");
        // The original is immutable and unaffected.
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn with_edits_keeps_the_token() {
        let g = triangle_plus_pendant();
        let edited = g.with_edits(&[(0, 3, 4.0)], &[]);
        assert_eq!(edited.token(), g.token());
    }

    #[test]
    fn with_edits_insert_replaces_weight_last_wins() {
        let g = triangle_plus_pendant();
        // Existing {0,1} has weight 1.0; a re-insert with a *lower* weight
        // must replace it (not max-merge), and the last write in the batch
        // wins over earlier ones.
        let edited = g.with_edits(&[(0, 1, 0.7), (1, 0, 0.3)], &[]);
        assert_eq!(edited.edge_weight(0, 1), Some(0.3));
        assert_eq!(edited.num_edges(), g.num_edges());
    }

    #[test]
    fn with_edits_tolerates_absent_removals_and_self_loops() {
        let g = triangle_plus_pendant();
        let edited = g.with_edits(&[(2, 2, 9.0)], &[(0, 3), (1, 1)]);
        assert_eq!(edited.num_edges(), g.num_edges());
        assert!(!edited.has_edge(2, 2));
    }
}
