//! Property-based tests for the graph substrate: structural invariants of
//! the CSR builder, optimality of the traversals, and the probabilistic
//! contracts of PPR and the landmark oracle.

use friends_graph::components::Components;
use friends_graph::csr::{CsrGraph, GraphBuilder, NodeId};
use friends_graph::landmarks::{LandmarkOracle, LandmarkStrategy};
use friends_graph::ppr::{forward_push, power_iteration, PushWorkspace};
use friends_graph::traversal::{
    bfs_distances, decay_labels, repair_labels, EdgeEdit, ProximityLabels, ProximityScan,
    ProximityWorkspace, RepairScratch, UNREACHABLE,
};
use friends_graph::OrdF64;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Strategy: a random small graph as (n, edge list with weights).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId, f32)>)> {
    (2usize..30).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0..n as NodeId, 0..n as NodeId, 0.05f32..1.0), 0..(n * 3));
        (Just(n), edges)
    })
}

/// Strategy for the two proximity kernels: up to 40 nodes (sparse enough
/// that some stay disconnected), a source, and weights that hit the decay's
/// corners — 0 (an arc that carries nothing), > 1 (clamped to 1), 0.5 and 1
/// repeated (ties, equal-product paths) — beside ordinary strengths.
fn arb_weighted() -> impl Strategy<Value = (usize, NodeId, Vec<(NodeId, NodeId, f32)>)> {
    (1usize..40).prop_flat_map(|n| {
        let weight = prop_oneof![
            Just(0.0f32),
            Just(0.5f32),
            Just(1.0f32),
            Just(2.5f32),
            0.05f32..1.0,
        ];
        let edges = proptest::collection::vec((0..n as NodeId, 0..n as NodeId, weight), 0..(n * 3));
        (Just(n), 0..n as NodeId, edges)
    })
}

/// Single-source shortest path lengths under `length(weight)`, infinite
/// when unreachable: the independent additive oracle the multiplicative
/// proximity kernels are checked against.
fn dijkstra(g: &CsrGraph, src: NodeId, mut length: impl FnMut(f32) -> f64) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.num_nodes()];
    let mut heap = BinaryHeap::from([Reverse((OrdF64(0.0), src))]);
    dist[src as usize] = 0.0;
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for (v, w) in g.edges(u) {
            let nd = d + length(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((OrdF64(nd), v)));
            }
        }
    }
    dist
}

/// A whole [`ProximityScan`] from `src` on a fresh workspace.
fn scan(g: &CsrGraph, src: NodeId, decay: impl FnMut(f32) -> f64) -> Vec<(NodeId, f64)> {
    ProximityScan::new(g, src, decay, &mut ProximityWorkspace::new()).collect()
}

fn build(n: usize, edges: &[(NodeId, NodeId, f32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        if u != v {
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// The sort-rebuild that `CsrGraph::with_edits` used to be, kept as its
/// oracle: every pair the batch names sheds its stored copy, the batch's
/// last insert of a pair is added back, `GraphBuilder` canonicalizes.
fn rebuild_with_edits(
    g: &CsrGraph,
    inserts: &[(NodeId, NodeId, f32)],
    removals: &[(NodeId, NodeId)],
) -> CsrGraph {
    let canon = |u: NodeId, v: NodeId| (u.min(v), u.max(v));
    let stale: BTreeSet<(NodeId, NodeId)> = removals
        .iter()
        .map(|&(u, v)| canon(u, v))
        .chain(inserts.iter().map(|&(u, v, _)| canon(u, v)))
        .collect();
    let mut b = GraphBuilder::new(g.num_nodes());
    for (u, v, w) in g.undirected_edges() {
        if !stale.contains(&(u, v)) {
            b.add_edge(u, v, w);
        }
    }
    let mut latest: Vec<(NodeId, NodeId, f32)> = Vec::new();
    for &(u, v, w) in inserts.iter().filter(|e| e.0 != e.1) {
        let (a, z) = canon(u, v);
        match latest.iter_mut().find(|e| (e.0, e.1) == (a, z)) {
            Some(e) => e.2 = w,
            None => latest.push((a, z, w)),
        }
    }
    for (u, v, w) in latest {
        b.add_edge(u, v, w);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The spliced `with_edits` equals the sort-rebuild on every observable:
    /// adjacency, weight bits, degrees, edge count — and keeps the token.
    /// Few nodes and many ops, so one batch regularly inserts a pair twice
    /// (last wins), inserts and removes the same pair (insert wins),
    /// re-weights a stored edge downwards (replace, not max-merge), removes
    /// absent edges and inserts self-loops, over graphs with isolated nodes
    /// and with no nodes at all.
    #[test]
    fn spliced_with_edits_matches_the_rebuild(
        n in 0usize..12,
        raw_edges in proptest::collection::vec((0u32..12, 0u32..12, 0.05f32..1.0), 0..30),
        ops in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64, 0.05f32..1.0), 0..24),
    ) {
        let node = |x: u32| x % n.max(1) as u32;
        let edges: Vec<(NodeId, NodeId, f32)> = raw_edges
            .iter()
            .filter(|_| n > 0)
            .map(|&(u, v, w)| (node(u), node(v), w))
            .collect();
        let g = build(n, &edges);
        let stored: Vec<(NodeId, NodeId, f32)> = g.undirected_edges().collect();
        let mut inserts = Vec::new();
        let mut removals = Vec::new();
        for &(kind, a, b, w) in &ops {
            match kind {
                // With no nodes only removals are legal; they name nothing.
                _ if n == 0 => removals.push((a, b)),
                0 => inserts.push((node(a), node(b), w)),
                1 => removals.push((node(a), node(b))),
                2 if !stored.is_empty() => {
                    let (u, v, old) = stored[a as usize % stored.len()];
                    inserts.push((v, u, old * 0.5));
                }
                3 if !stored.is_empty() => {
                    let (u, v, _) = stored[a as usize % stored.len()];
                    removals.push((v, u));
                }
                _ => inserts.push((node(a), node(a), w)),
            }
        }
        let spliced = g.with_edits(&inserts, &removals);
        let rebuilt = rebuild_with_edits(&g, &inserts, &removals);
        prop_assert_eq!(spliced.token(), g.token());
        prop_assert_eq!(spliced.num_nodes(), rebuilt.num_nodes());
        prop_assert_eq!(spliced.num_edges(), rebuilt.num_edges());
        for u in rebuilt.nodes() {
            prop_assert_eq!(spliced.degree(u), rebuilt.degree(u));
            prop_assert_eq!(spliced.neighbors(u), rebuilt.neighbors(u), "row {}", u);
            let bits = |g: &CsrGraph| -> Vec<u32> {
                g.neighbor_weights(u).iter().map(|w| w.to_bits()).collect()
            };
            prop_assert_eq!(bits(&spliced), bits(&rebuilt), "weights of row {}", u);
        }
    }
}

/// `with_edits` refuses what `GraphBuilder::add_edge` refuses, and a
/// removal can name anything.
#[test]
fn with_edits_panics_where_the_builder_does() {
    let g = build(3, &[(0, 1, 0.5)]);
    for bad in [
        (0, 3, 0.5),
        (7, 1, 0.5),
        (0, 2, f32::NAN),
        (0, 2, -0.25),
        (0, 2, f32::INFINITY),
    ] {
        let spliced = std::panic::catch_unwind(|| g.with_edits(&[bad], &[]));
        let built = std::panic::catch_unwind(|| GraphBuilder::from_edges(3, [bad]));
        assert!(spliced.is_err() && built.is_err(), "{bad:?} was accepted");
    }
    let same = g.with_edits(&[], &[(0, 9), (9, 9), (2, 2), (1, 2)]);
    assert_eq!(same.num_edges(), 1);
    assert_eq!(same.edge_weight(1, 0), Some(0.5));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The CSR stores exactly the deduplicated undirected edge set, with
    /// symmetric adjacency and sorted neighbor lists.
    #[test]
    fn csr_preserves_edge_set((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let want: BTreeSet<(NodeId, NodeId)> = edges
            .iter()
            .filter(|&&(u, v, _)| u != v)
            .map(|&(u, v, _)| (u.min(v), u.max(v)))
            .collect();
        let got: BTreeSet<(NodeId, NodeId)> =
            g.undirected_edges().map(|(u, v, _)| (u, v)).collect();
        prop_assert_eq!(want, got);
        for u in g.nodes() {
            let nb = g.neighbors(u);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "unsorted/dup at {}", u);
            for &v in nb {
                prop_assert!(g.has_edge(v, u), "asymmetric edge {} {}", u, v);
                prop_assert_eq!(g.edge_weight(u, v), g.edge_weight(v, u));
            }
        }
        prop_assert_eq!(g.num_arcs(), 2 * g.num_edges());
    }

    /// BFS distances satisfy the triangle property along every edge and are
    /// exactly reproduced by the unit-length Dijkstra oracle.
    #[test]
    fn traversals_agree((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let d = bfs_distances(&g, 0);
        for (u, v, _) in g.undirected_edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != UNREACHABLE && dv != UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
            } else {
                // An edge cannot connect a reached and an unreached node.
                prop_assert_eq!(du, dv);
            }
        }
        let dij = dijkstra(&g, 0, |_| 1.0);
        for u in 0..n {
            if d[u] == UNREACHABLE {
                prop_assert_eq!(dij[u], f64::INFINITY);
            } else {
                prop_assert!((dij[u] - d[u] as f64).abs() < 1e-9);
            }
        }
    }

    /// ProximityScan yields every reachable node exactly once, in
    /// non-increasing proximity, and its proximities match an independent
    /// Dijkstra over -log(decay).
    #[test]
    fn proximity_order_is_dijkstra((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let alpha = 0.7f64;
        let order = scan(&g, 0, |w| alpha * w as f64);
        // Non-increasing.
        for w in order.windows(2) {
            prop_assert!(w[0].1 >= w[1].1 - 1e-12);
        }
        // Unique nodes.
        let ids: BTreeSet<NodeId> = order.iter().map(|&(u, _)| u).collect();
        prop_assert_eq!(ids.len(), order.len());
        // Agreement with additive Dijkstra on lengths -ln(alpha * w).
        let lens = dijkstra(&g, 0, |w| -((alpha * w as f64).ln()));
        for &(u, p) in &order {
            let expect = (-lens[u as usize]).exp();
            prop_assert!(
                (p - expect).abs() < 1e-6 * (1.0 + expect),
                "node {}: {} vs {}", u, p, expect
            );
        }
        // Reachable set equals BFS reachable set.
        let d = bfs_distances(&g, 0);
        let reachable = d.iter().filter(|&&x| x != UNREACHABLE).count();
        prop_assert_eq!(order.len(), reachable);
    }

    /// The unordered kernel labels exactly what the heap-ordered one
    /// settles: the same reached set, every value bit for bit — for
    /// multipliers that always leave the binade (α ≤ 0.5) and for ones
    /// that re-relax inside it (α > 0.5) — across reuse of one label map.
    #[test]
    fn decay_labels_equal_proximity_order(
        (n, src, edges) in arb_weighted(),
        alpha in prop_oneof![0.01f64..0.5, 0.5f64..0.999],
    ) {
        let g = build(n, &edges);
        let decay = move |w: f32| alpha * (w as f64).clamp(0.0, 1.0);
        let mut labels = ProximityLabels::new();
        for src in [src, 0, src] {
            let order = scan(&g, src, decay);
            let residual = decay_labels(&g, src, decay, 0.0, &mut labels);
            prop_assert_eq!(residual, 0.0);
            let reached: BTreeSet<NodeId> = order.iter().map(|&(u, _)| u).collect();
            let touched: BTreeSet<NodeId> = labels.touched().iter().copied().collect();
            prop_assert_eq!(labels.touched().len(), touched.len(), "node labelled twice");
            prop_assert_eq!(&reached, &touched);
            for &(u, p) in &order {
                prop_assert_eq!(labels.get(u).to_bits(), p.to_bits(), "node {}", u);
            }
            for u in (0..n as NodeId).filter(|u| !reached.contains(u)) {
                prop_assert_eq!(labels.get(u), 0.0, "unreached node {}", u);
            }
        }
    }

    /// Under a floor every node whose true proximity clears it keeps its
    /// exact value, every other node reads 0, and the residual is 0
    /// exactly when no node with positive proximity was cut — never looser
    /// than the heap scan's.
    #[test]
    fn decay_labels_floor_is_exact_above_and_certified_below(
        (n, src, edges) in arb_weighted(),
        alpha in prop_oneof![0.01f64..0.5, 0.5f64..0.999],
        floor in prop_oneof![Just(0.0f64), 1e-6f64..0.6, Just(1.0f64)],
    ) {
        let g = build(n, &edges);
        let decay = move |w: f32| alpha * (w as f64).clamp(0.0, 1.0);
        let mut truth = vec![0.0f64; n];
        for (u, p) in scan(&g, src, decay) {
            truth[u as usize] = p;
        }
        let mut labels = ProximityLabels::new();
        let residual = decay_labels(&g, src, decay, floor, &mut labels);
        let mut cut = false;
        for u in 0..n as NodeId {
            let p = truth[u as usize];
            if p >= floor {
                prop_assert_eq!(labels.get(u).to_bits(), p.to_bits(), "kept node {}", u);
            } else {
                prop_assert_eq!(labels.get(u), 0.0, "node {} is below the floor", u);
                prop_assert!(!labels.touched().contains(&u));
                cut |= p > 0.0;
            }
        }
        prop_assert_eq!(residual, if cut { floor } else { 0.0 });
        let mut ws = ProximityWorkspace::new();
        let mut scan = ProximityScan::with_floor(&g, src, decay, floor, &mut ws);
        let yielded = scan.by_ref().count();
        prop_assert_eq!(yielded, labels.touched().len());
        prop_assert!(residual <= scan.residual_bound());
    }

    /// PPR estimates: power iteration is a distribution; forward push is a
    /// sub-distribution lower bound within its additive guarantee.
    #[test]
    fn ppr_contracts((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let alpha = 0.25;
        let exact = power_iteration(&g, 0, alpha, 120);
        let sum: f64 = exact.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {}", sum);
        prop_assert!(exact.iter().all(|&x| x >= -1e-12));

        let eps = 1e-4;
        let approx = forward_push(&g, 0, alpha, eps, &mut PushWorkspace::new(n));
        let asum: f64 = approx.iter().map(|&(_, p)| p).sum();
        prop_assert!(asum <= 1.0 + 1e-9);
        let mut dense = vec![0.0f64; n];
        for &(u, p) in &approx {
            dense[u as usize] = p;
        }
        for u in 0..n {
            let bound = eps * g.weighted_degree(u as NodeId) + 1e-9;
            prop_assert!(
                (dense[u] - exact[u]).abs() <= bound,
                "node {}: {} vs {} (bound {})", u, dense[u], exact[u], bound
            );
        }
    }

    /// Landmark oracle bounds always sandwich the true distance.
    #[test]
    fn landmark_bounds_sandwich((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let oracle = LandmarkOracle::build(&g, 4, LandmarkStrategy::HighestDegree);
        let truth = bfs_distances(&g, 0);
        for v in 0..n as NodeId {
            let t = truth[v as usize];
            if t == UNREACHABLE {
                continue;
            }
            prop_assert!(oracle.lower_bound(0, v) <= t);
            if let Some(ub) = oracle.upper_bound(0, v) {
                prop_assert!(ub >= t, "ub {} < true {} for {}", ub, t, v);
            }
        }
    }
}

/// Edge weights of the repair proptest: few values, so equal-product paths
/// and equally good parents are the rule, plus an arc that carries nothing.
const QUANTA: [f32; 5] = [0.0, 0.25, 0.5, 0.5, 1.0];

/// One op of a repair batch, resolved against the graph the batch applies
/// to: `(kind, a, b, weight index)`.
type RepairOp = (u8, u32, u32, usize);

/// A small graph over quantised weights, a seeker, and a chain of batches.
#[allow(clippy::type_complexity)]
fn arb_repair_case() -> impl Strategy<
    Value = (
        usize,
        NodeId,
        Vec<(NodeId, NodeId, usize)>,
        Vec<Vec<RepairOp>>,
    ),
> {
    (1usize..20).prop_flat_map(|n| {
        let node = 0..n as NodeId;
        let edges =
            proptest::collection::vec((node.clone(), node.clone(), 0..QUANTA.len()), 0..(n * 2));
        let op = (0u8..7, 0u32..64, 0u32..64, 0..QUANTA.len());
        let batches = proptest::collection::vec(proptest::collection::vec(op, 0..6), 1..6);
        (Just(n), node, edges, batches)
    })
}

/// Resolves a batch against `g`: random inserts and removals (absent pairs
/// included), up- and down-weights and removals of stored edges (which
/// disconnect and, a batch later, reconnect), inserts at the stored weight
/// (no-ops), and edits at the seeker.
#[allow(clippy::type_complexity)]
fn resolve_ops(
    g: &CsrGraph,
    seeker: NodeId,
    ops: &[RepairOp],
) -> (Vec<(NodeId, NodeId, f32)>, Vec<(NodeId, NodeId)>) {
    let n = g.num_nodes() as u32;
    let stored: Vec<(NodeId, NodeId, f32)> = g.undirected_edges().collect();
    let (mut inserts, mut removals) = (Vec::new(), Vec::new());
    for &(kind, a, b, wi) in ops {
        let pick = (!stored.is_empty()).then(|| stored[a as usize % stored.len().max(1)]);
        match (kind, pick) {
            (0, _) => inserts.push((a % n, b % n, QUANTA[wi])),
            (1, _) => removals.push((a % n, b % n)),
            (2, Some((u, v, w))) => inserts.push((v, u, (w * 2.0).min(1.0))),
            (3, Some((u, v, w))) => inserts.push((u, v, w * 0.5)),
            (4, Some((u, v, _))) => removals.push((u, v)),
            (5, Some((u, v, w))) => inserts.push((u, v, w)),
            _ => inserts.push((seeker, b % n, QUANTA[wi])),
        }
    }
    (inserts, removals)
}

/// Every pair the batch names whose weight differs between the two graphs.
fn edits_between(
    old: &CsrGraph,
    new: &CsrGraph,
    inserts: &[(NodeId, NodeId, f32)],
    removals: &[(NodeId, NodeId)],
) -> Vec<EdgeEdit> {
    let pairs: BTreeSet<(NodeId, NodeId)> = removals
        .iter()
        .copied()
        .chain(inserts.iter().map(|&(u, v, _)| (u, v)))
        .filter(|&(u, v)| u != v)
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    pairs
        .into_iter()
        .map(|(u, v)| EdgeEdit {
            u,
            v,
            old: old.edge_weight(u, v),
            new: new.edge_weight(u, v),
        })
        .filter(|e| e.old != e.new)
        .collect()
}

/// Drives one vector through the chain of batches with `repair_labels` and
/// checks it, after every batch, against `cold` on that batch's graph.
fn check_repair_chain(
    n: usize,
    seeker: NodeId,
    edges: &[(NodeId, NodeId, usize)],
    batches: &[Vec<RepairOp>],
    relax: impl Fn(f64, f32) -> f64,
    cold: impl Fn(&CsrGraph) -> Vec<f64>,
) -> Result<(), TestCaseError> {
    let weighted: Vec<(NodeId, NodeId, f32)> =
        edges.iter().map(|&(u, v, wi)| (u, v, QUANTA[wi])).collect();
    let mut g = build(n, &weighted);
    let mut values = cold(&g);
    let mut scratch = RepairScratch::new();
    for ops in batches {
        let (inserts, removals) = resolve_ops(&g, seeker, ops);
        let next = g.with_edits(&inserts, &removals);
        let edits = edits_between(&g, &next, &inserts, &removals);
        let before = values.clone();
        repair_labels(&next, seeker, &relax, &edits, &mut values, &mut scratch);
        let want = cold(&next);
        for u in 0..n {
            prop_assert_eq!(
                values[u].to_bits(),
                want[u].to_bits(),
                "node {}: repaired {} cold {} (edits {:?})",
                u,
                values[u],
                want[u],
                edits
            );
        }
        let differing: BTreeSet<NodeId> = (0..n as NodeId)
            .filter(|&u| before[u as usize].to_bits() != values[u as usize].to_bits())
            .collect();
        let changed: BTreeSet<NodeId> = scratch.changed().iter().copied().collect();
        prop_assert_eq!(
            scratch.changed().len(),
            changed.len(),
            "a node listed twice"
        );
        prop_assert_eq!(&changed, &differing);
        // With nothing edited there is nothing to repair.
        repair_labels(&next, seeker, &relax, &[], &mut values, &mut scratch);
        prop_assert!(scratch.changed().is_empty());
        for u in 0..n {
            prop_assert_eq!(
                values[u].to_bits(),
                want[u].to_bits(),
                "idle repair moved {}",
                u
            );
        }
        g = next;
    }
    prop_assert_eq!(scratch.allocation_count(), 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `repair_labels` under the product step of `decay_labels`: after every
    /// batch the repaired vector is the cold labelling of that batch's
    /// graph, bit for bit at every node, for a multiplier that always
    /// leaves the binade, the boundary one, and one that does not — and for
    /// `alpha = 1`, where a full-weight arc hands its value on unchanged:
    /// the plateaus (here whole cycles of equal values, the seeker's 1.0
    /// among them) that sub-normal products form in deep graphs, which must
    /// fall as one when the arc feeding them goes.
    #[test]
    fn repaired_products_equal_cold_labels(
        (n, seeker, edges, batches) in arb_repair_case(),
        alpha in prop_oneof![Just(0.3f64), Just(0.5f64), Just(0.9f64), Just(1.0f64)],
    ) {
        let decay = move |w: f32| alpha * (w as f64).clamp(0.0, 1.0);
        check_repair_chain(n, seeker, &edges, &batches, |p, w| p * decay(w), |g| {
            let mut labels = ProximityLabels::new();
            decay_labels(g, seeker, decay, 0.0, &mut labels);
            labels.to_dense(n)
        })?;
    }

    /// `repair_labels` under a level-table step (`alpha^h → alpha^(h+1)`,
    /// whatever the arc weighs): the repaired vector is `alpha.powi(hops)`
    /// of a fresh BFS, bit for bit.
    #[test]
    fn repaired_levels_equal_bfs_powers(
        (n, seeker, edges, batches) in arb_repair_case(),
        alpha in prop_oneof![Just(0.3f64), Just(0.8f64)],
    ) {
        let table: Vec<f64> = (0..=n as i32 + 1).map(|h| alpha.powi(h)).collect();
        let step = |p: f64, _: f32| {
            let h = table.partition_point(|&level| level > p);
            assert_eq!(table[h].to_bits(), p.to_bits(), "{p} is not a level");
            table[h + 1]
        };
        check_repair_chain(n, seeker, &edges, &batches, step, |g| {
            bfs_distances(g, seeker)
                .iter()
                .map(|&h| if h == UNREACHABLE { 0.0 } else { alpha.powi(h as i32) })
                .collect()
        })?;
    }
}

/// Folds per-batch edit lists into the one list that takes the first
/// batch's graph to the last one's: each pair's first `old` and last `new`
/// weight, and no pair whose two weights agree.
fn fold(lists: &[Vec<EdgeEdit>]) -> Vec<EdgeEdit> {
    let mut folded: BTreeMap<(NodeId, NodeId), EdgeEdit> = BTreeMap::new();
    for e in lists.iter().flatten() {
        folded
            .entry((e.u, e.v))
            .and_modify(|f| f.new = e.new)
            .or_insert(*e);
    }
    folded
        .into_values()
        .filter(|e| e.old.map(f32::to_bits) != e.new.map(f32::to_bits))
        .collect()
}

/// Two scripted batches on one pair, spliced into a random lineage:
/// insert-then-remove, a reweight twice, or a stored edge removed and
/// re-inserted at its old weight — the last must fold away.
fn scripted(
    g: &CsrGraph,
    mode: u8,
    pick: usize,
    wi: usize,
) -> Option<[Vec<(NodeId, NodeId, f32)>; 2]> {
    let n = g.num_nodes();
    if n < 2 {
        return None;
    }
    let a = (pick % n) as NodeId;
    let b = ((a as usize + 1 + pick / n % (n - 1)) % n) as NodeId;
    let (w1, w2) = (QUANTA[wi], QUANTA[(wi + 1) % QUANTA.len()]);
    // A negative weight stands for a removal.
    Some(match mode {
        0 => [vec![(a, b, w1)], vec![(a, b, -1.0)]],
        1 => [vec![(a, b, w1)], vec![(a, b, w2)]],
        _ => {
            let stored: Vec<_> = g.undirected_edges().collect();
            let (u, v, w) = *stored.get(pick % stored.len().max(1))?;
            [vec![(u, v, -1.0)], vec![(u, v, w)]]
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One `repair_labels` across a whole multi-batch lineage: the batches'
    /// effective edits folded into one list are exactly the pairs whose
    /// weight differs between the first graph and the last, and repairing
    /// the first graph's labels with them gives the last graph's
    /// `decay_labels` bit for bit — with an insert-then-remove, a double
    /// reweight or a remove-and-reinsert at the old weight spliced in.
    #[test]
    fn one_repair_across_folded_batches_equals_cold_labels(
        (n, seeker, edges, batches) in arb_repair_case(),
        (mode, pick, wi, at) in (0u8..3, 0usize..64, 0..QUANTA.len(), 0usize..6),
        alpha in prop_oneof![Just(0.5f64), Just(1.0f64)],
    ) {
        let decay = move |w: f32| alpha * (w as f64).clamp(0.0, 1.0);
        let cold = |g: &CsrGraph| {
            let mut labels = ProximityLabels::new();
            decay_labels(g, seeker, decay, 0.0, &mut labels);
            labels.to_dense(n)
        };
        let weighted: Vec<(NodeId, NodeId, f32)> =
            edges.iter().map(|&(u, v, wi)| (u, v, QUANTA[wi])).collect();
        let first = build(n, &weighted);
        let mut g = first.clone();
        let mut lists = Vec::new();
        let mut step = |g: &mut CsrGraph, inserts: Vec<(NodeId, NodeId, f32)>, removals: Vec<(NodeId, NodeId)>| {
            let next = g.with_edits(&inserts, &removals);
            lists.push(edits_between(g, &next, &inserts, &removals));
            *g = next;
        };
        let mut pair = None;
        for i in 0..=batches.len() {
            if i == at.min(batches.len()) {
                if let Some(script) = scripted(&g, mode, pick, wi) {
                    for batch in script {
                        let (u, v, w) = batch[0];
                        pair = Some((u.min(v), u.max(v)));
                        if w < 0.0 {
                            step(&mut g, vec![], vec![(u, v)]);
                        } else {
                            step(&mut g, batch, vec![]);
                        }
                    }
                }
            }
            if let Some(ops) = batches.get(i) {
                let (inserts, removals) = resolve_ops(&g, seeker, ops);
                step(&mut g, inserts, removals);
            }
        }
        let folded = fold(&lists);
        let differ: Vec<(NodeId, NodeId)> = (0..n as NodeId)
            .flat_map(|u| (u + 1..n as NodeId).map(move |v| (u, v)))
            .filter(|&(u, v)| {
                first.edge_weight(u, v).map(f32::to_bits) != g.edge_weight(u, v).map(f32::to_bits)
            })
            .collect();
        let pairs: Vec<(NodeId, NodeId)> = folded.iter().map(|e| (e.u, e.v)).collect();
        prop_assert_eq!(&pairs, &differ);
        if let (2, Some(pair)) = (mode, pair) {
            let edited = lists.iter().flatten().filter(|e| (e.u, e.v) == pair).count();
            if edited == 2 {
                prop_assert!(!pairs.contains(&pair), "{:?} did not fold away", pair);
            }
        }
        let mut values = cold(&first);
        let relax = |p: f64, w: f32| p * decay(w);
        repair_labels(&g, seeker, relax, &folded, &mut values, &mut RepairScratch::new());
        let want = cold(&g);
        for u in 0..n {
            prop_assert_eq!(
                values[u].to_bits(),
                want[u].to_bits(),
                "node {}: repaired {} cold {} (folded {:?})",
                u,
                values[u],
                want[u],
                folded
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Components::after` along a lineage equals `Components::build` on
    /// every graph of it, and `build` names each node's component by the
    /// smallest node a BFS from it reaches. The graphs are sparse (up to 2n
    /// random edges on n ≤ 19 nodes), so they start in several components;
    /// batches insert random pairs (joins), remove stored edges (bridges
    /// that split a component, a node's last edge), remove absent pairs and
    /// re-insert at the stored weight (no-ops), reweight stored edges, and
    /// are sometimes empty. A batch that joins and splits nothing shares
    /// its base's labels.
    #[test]
    fn derived_components_equal_cold_labels(
        (n, _seeker, edges, batches) in arb_repair_case(),
    ) {
        let weighted: Vec<(NodeId, NodeId, f32)> =
            edges.iter().map(|&(u, v, wi)| (u, v, QUANTA[wi])).collect();
        let mut g = build(n, &weighted);
        let mut labels = Components::build(&g);
        for ops in &batches {
            let (inserts, removals) = resolve_ops(&g, 0, ops);
            let next = g.with_edits(&inserts, &removals);
            let edits = edits_between(&g, &next, &inserts, &removals);
            let derived = labels.after(&next, &edits);
            let cold = Components::build(&next);
            prop_assert_eq!(&derived, &cold, "edits {:?}", edits);
            for u in 0..n as NodeId {
                let dist = bfs_distances(&next, u);
                let smallest = dist.iter().position(|&d| d != UNREACHABLE);
                prop_assert_eq!(Some(cold.label(u) as usize), smallest, "node {}", u);
            }
            let roots = (0..n as NodeId).filter(|&u| cold.label(u) == u).count();
            prop_assert_eq!(cold.count(), roots);
            if cold == labels {
                let shared = std::ptr::eq(derived.labels(), labels.labels());
                prop_assert!(shared, "edits {:?}", edits);
            }
            g = next;
            labels = derived;
        }
    }
}

#[test]
fn decay_labels_on_an_empty_graph_labels_nothing() {
    let g = CsrGraph::empty(0);
    let mut labels = ProximityLabels::new();
    assert_eq!(decay_labels(&g, 0, |_| 0.5, 0.0, &mut labels), 0.0);
    assert!(labels.touched().is_empty());
}
