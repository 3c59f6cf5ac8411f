//! Personalized PageRank (PPR).
//!
//! PPR is one of the social-proximity measures the reproduction evaluates:
//! `ppr_u(v)` is the stationary probability that an α-restarting random walk
//! from seeker `u` is at `v`. Three estimators with different cost/accuracy
//! trade-offs are provided:
//!
//! * [`power_iteration`] — dense, near-exact; the accuracy reference.
//! * [`forward_push`] — sparse local push (Andersen–Chung–Lang) with additive
//!   error `epsilon · deg(v)`; the production estimator.
//! * [`monte_carlo`] — walk sampling; used to cross-validate the other two.
//!
//! Walks are weighted: a step from `u` picks neighbor `v` with probability
//! proportional to the edge weight `w(u, v)`.

use crate::csr::{CsrGraph, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A sparse PPR vector: `(node, mass)` pairs sorted by node id.
pub type SparseVec = Vec<(NodeId, f64)>;

/// Near-exact PPR by dense power iteration.
///
/// Runs `iters` iterations of `p ← alpha·e_src + (1-alpha)·W^T p`, where `W`
/// is the weighted random-walk matrix. Error decays as `(1-alpha)^iters`.
/// Dangling mass (isolated nodes) is returned to the source, keeping the
/// result a probability distribution.
pub fn power_iteration(g: &CsrGraph, src: NodeId, alpha: f64, iters: usize) -> Vec<f64> {
    assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0,1)");
    let n = g.num_nodes();
    let mut p = vec![0.0f64; n];
    if n == 0 {
        return p;
    }
    p[src as usize] = 1.0;
    let wdeg: Vec<f64> = (0..n as NodeId).map(|u| g.weighted_degree(u)).collect();
    let mut next = vec![0.0f64; n];
    for _ in 0..iters {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0f64;
        for u in 0..n {
            let mass = p[u];
            if mass == 0.0 {
                continue;
            }
            if wdeg[u] == 0.0 {
                dangling += mass;
                continue;
            }
            let share = mass / wdeg[u];
            for (v, w) in g.edges(u as NodeId) {
                next[v as usize] += share * w as f64;
            }
        }
        for x in next.iter_mut() {
            *x *= 1.0 - alpha;
        }
        next[src as usize] += alpha + (1.0 - alpha) * dangling;
        std::mem::swap(&mut p, &mut next);
    }
    p
}

/// Reusable scratch space for [`forward_push`], so repeated queries do not
/// re-allocate `O(n)` buffers. Sizes itself lazily to the largest graph it
/// has seen; `allocation_count` exposes growth for zero-allocation tests.
#[derive(Default)]
pub struct PushWorkspace {
    residual: Vec<f64>,
    estimate: Vec<f64>,
    touched: Vec<NodeId>,
    on_queue: Vec<bool>,
    queue: Vec<NodeId>,
    allocations: u64,
}

impl PushWorkspace {
    /// Creates a workspace for graphs with up to `n` nodes.
    pub fn new(n: usize) -> Self {
        let mut ws = PushWorkspace::default();
        ws.ensure(n);
        ws
    }

    /// Grows the buffers to hold `n` nodes (no-op when already large enough).
    pub fn ensure(&mut self, n: usize) {
        if self.residual.len() < n {
            self.residual.resize(n, 0.0);
            self.estimate.resize(n, 0.0);
            self.on_queue.resize(n, false);
            self.allocations += 1;
        }
    }

    /// Number of times the workspace grew its buffers.
    pub fn allocation_count(&self) -> u64 {
        self.allocations
    }

    fn reset(&mut self) {
        for &u in &self.touched {
            self.residual[u as usize] = 0.0;
            self.estimate[u as usize] = 0.0;
            self.on_queue[u as usize] = false;
        }
        self.touched.clear();
    }

    fn touch(&mut self, u: NodeId) {
        if self.residual[u as usize] == 0.0 && self.estimate[u as usize] == 0.0 {
            self.touched.push(u);
        }
    }
}

/// Local forward push with additive guarantee
/// `|ppr(v) − estimate(v)| ≤ epsilon · wdeg(v)` for every `v`.
///
/// Cost is `O(1 / (alpha · epsilon))` pushes independent of graph size, which
/// is what makes PPR proximity viable at query time. Returns the sparse
/// estimate vector sorted by node id.
pub fn forward_push(
    g: &CsrGraph,
    src: NodeId,
    alpha: f64,
    epsilon: f64,
    ws: &mut PushWorkspace,
) -> SparseVec {
    let mut out = Vec::new();
    forward_push_into(g, src, alpha, epsilon, ws, &mut out);
    out
}

/// [`forward_push`] writing into a caller-owned buffer: the allocation-free
/// variant for hot query paths (`out` is cleared, then filled sorted by node
/// id, keeping its capacity across calls).
pub fn forward_push_into(
    g: &CsrGraph,
    src: NodeId,
    alpha: f64,
    epsilon: f64,
    ws: &mut PushWorkspace,
    out: &mut SparseVec,
) {
    assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0,1)");
    assert!(epsilon > 0.0, "epsilon must be positive");
    out.clear();
    let n = g.num_nodes();
    if n == 0 {
        return;
    }
    ws.ensure(n);
    ws.reset();
    let wdeg = |u: NodeId| g.weighted_degree(u);

    ws.touch(src);
    ws.residual[src as usize] = 1.0;
    let mut queue = std::mem::take(&mut ws.queue);
    queue.clear();
    queue.push(src);
    ws.on_queue[src as usize] = true;
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        ws.on_queue[u as usize] = false;
        let r = ws.residual[u as usize];
        let du = wdeg(u);
        if du == 0.0 {
            // Dangling node: all residual mass converts to estimate.
            ws.estimate[u as usize] += r;
            ws.residual[u as usize] = 0.0;
            continue;
        }
        if r < epsilon * du {
            continue;
        }
        ws.estimate[u as usize] += alpha * r;
        ws.residual[u as usize] = 0.0;
        let spread = (1.0 - alpha) * r / du;
        for (v, w) in g.edges(u) {
            ws.touch(v);
            ws.residual[v as usize] += spread * w as f64;
            if !ws.on_queue[v as usize]
                && ws.residual[v as usize] >= epsilon * wdeg(v).max(f64::MIN_POSITIVE)
            {
                ws.on_queue[v as usize] = true;
                queue.push(v);
            }
        }
    }
    ws.queue = queue;
    out.extend(
        ws.touched
            .iter()
            .filter(|&&u| ws.estimate[u as usize] > 0.0)
            .map(|&u| (u, ws.estimate[u as usize])),
    );
    out.sort_unstable_by_key(|&(u, _)| u);
}

/// Monte-Carlo PPR: runs `walks` α-restarting weighted random walks from
/// `src` and returns the empirical endpoint distribution (sparse, sorted).
pub fn monte_carlo(g: &CsrGraph, src: NodeId, alpha: f64, walks: usize, seed: u64) -> SparseVec {
    assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0,1)");
    let n = g.num_nodes();
    if n == 0 || walks == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts: std::collections::HashMap<NodeId, u64> = std::collections::HashMap::new();
    for _ in 0..walks {
        let mut u = src;
        loop {
            if rng.gen_bool(alpha) {
                break;
            }
            let ws = g.neighbor_weights(u);
            if ws.is_empty() {
                break; // dangling: walk is stuck, terminate here
            }
            let total: f32 = ws.iter().sum();
            let mut pick = rng.gen_range(0.0..total as f64) as f32;
            let mut chosen = g.neighbors(u)[ws.len() - 1];
            for (i, &w) in ws.iter().enumerate() {
                if pick < w {
                    chosen = g.neighbors(u)[i];
                    break;
                }
                pick -= w;
            }
            u = chosen;
        }
        *counts.entry(u).or_insert(0) += 1;
    }
    let mut out: SparseVec = counts
        .into_iter()
        .map(|(u, c)| (u, c as f64 / walks as f64))
        .collect();
    out.sort_unstable_by_key(|&(u, _)| u);
    out
}

/// L1 distance between a sparse vector and a dense reference.
pub fn l1_error(sparse: &SparseVec, dense: &[f64]) -> f64 {
    let mut err = 0.0;
    let mut seen = vec![false; dense.len()];
    for &(u, p) in sparse {
        err += (p - dense[u as usize]).abs();
        seen[u as usize] = true;
    }
    for (u, &d) in dense.iter().enumerate() {
        if !seen[u] {
            err += d;
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use crate::generators;

    #[test]
    fn power_iteration_is_a_distribution() {
        let g = generators::watts_strogatz(120, 4, 0.1, 2);
        let p = power_iteration(&g, 5, 0.15, 60);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(p.iter().all(|&x| x >= 0.0));
        // Source should hold at least the restart mass.
        assert!(p[5] >= 0.15);
    }

    #[test]
    fn power_iteration_isolated_source() {
        let g = CsrGraph::empty(3);
        let p = power_iteration(&g, 1, 0.2, 20);
        assert!((p[1] - 1.0).abs() < 1e-12);
        assert_eq!(p[0], 0.0);
    }

    #[test]
    fn push_close_to_power_iteration() {
        let g = generators::barabasi_albert(300, 3, 4);
        let exact = power_iteration(&g, 0, 0.2, 100);
        let approx = forward_push(&g, 0, 0.2, 1e-6, &mut PushWorkspace::new(g.num_nodes()));
        let err = l1_error(&approx, &exact);
        assert!(err < 0.02, "L1 error {err}");
    }

    #[test]
    fn push_respects_per_node_bound() {
        let g = generators::watts_strogatz(200, 6, 0.2, 7);
        let eps = 1e-4;
        let exact = power_iteration(&g, 3, 0.15, 200);
        let approx = forward_push(&g, 3, 0.15, eps, &mut PushWorkspace::new(g.num_nodes()));
        let mut est = vec![0.0; 200];
        for &(u, p) in &approx {
            est[u as usize] = p;
        }
        for u in 0..200u32 {
            let bound = eps * g.weighted_degree(u) + 1e-9;
            let diff = (est[u as usize] - exact[u as usize]).abs();
            assert!(diff <= bound, "node {u}: diff {diff} > bound {bound}");
        }
    }

    #[test]
    fn push_estimates_underestimate_total_mass() {
        let g = generators::erdos_renyi(150, 0.04, 5);
        let approx = forward_push(&g, 2, 0.2, 1e-5, &mut PushWorkspace::new(g.num_nodes()));
        let sum: f64 = approx.iter().map(|&(_, p)| p).sum();
        assert!(sum <= 1.0 + 1e-9);
        assert!(sum > 0.5, "push should have converted most mass, got {sum}");
    }

    #[test]
    fn push_workspace_reuse_is_clean() {
        let g = generators::barabasi_albert(100, 2, 9);
        let mut ws = PushWorkspace::new(100);
        let a = forward_push(&g, 0, 0.2, 1e-5, &mut ws);
        let b = forward_push(&g, 50, 0.2, 1e-5, &mut ws);
        let a2 = forward_push(&g, 0, 0.2, 1e-5, &mut ws);
        assert_eq!(a, a2, "workspace reuse must not leak state");
        assert_ne!(a, b);
    }

    /// Forward push's mass threshold (`epsilon`) is already its early
    /// termination: cost is `O(1 / (alpha · epsilon))` pushes, independent
    /// of graph size — a seeker in a 50-node component of a 10k-node
    /// universe touches only the component. This is the reach-proportional
    /// contract the σ-materialization floor work relies on for PPR.
    #[test]
    fn push_cost_is_reach_proportional() {
        let component = 50u32;
        let edges = (0..component).map(|i| (i, (i + 1) % component, 1.0));
        let g = GraphBuilder::from_edges(10_000, edges);
        let v = forward_push(&g, 0, 0.2, 1e-5, &mut PushWorkspace::new(g.num_nodes()));
        assert!(!v.is_empty() && v.len() <= component as usize);
        assert!(v.iter().all(|&(u, _)| u < component));
    }

    #[test]
    fn push_sparse_output_sorted_unique() {
        let g = generators::watts_strogatz(80, 4, 0.3, 11);
        let v = forward_push(&g, 10, 0.15, 1e-4, &mut PushWorkspace::new(g.num_nodes()));
        for w in v.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn monte_carlo_agrees_roughly() {
        let g = generators::watts_strogatz(60, 4, 0.2, 3);
        let exact = power_iteration(&g, 0, 0.3, 120);
        let mc = monte_carlo(&g, 0, 0.3, 60_000, 99);
        let err = l1_error(&mc, &exact);
        assert!(err < 0.08, "MC L1 error {err}");
    }

    #[test]
    fn monte_carlo_weighted_steps_bias() {
        // Star: 0 connected to 1 (weight 9) and 2 (weight 1). First step from
        // 0 should land on 1 ~90% of the time.
        let g = GraphBuilder::from_edges(3, [(0, 1, 9.0), (0, 2, 1.0)]);
        let mc = monte_carlo(&g, 0, 0.3, 40_000, 5);
        let p1 = mc.iter().find(|&&(u, _)| u == 1).map_or(0.0, |&(_, p)| p);
        let p2 = mc.iter().find(|&&(u, _)| u == 2).map_or(0.0, |&(_, p)| p);
        assert!(p1 > 5.0 * p2, "p1 {p1} vs p2 {p2}");
    }

    #[test]
    fn ppr_localizes_mass_near_source() {
        // On a long path, PPR mass at distance d decays geometrically.
        let g = GraphBuilder::from_edges(30, (0..29).map(|i| (i as NodeId, i as NodeId + 1, 1.0)));
        let p = power_iteration(&g, 0, 0.3, 200);
        assert!(p[1] > p[5]);
        assert!(p[5] > p[15]);
    }
}
