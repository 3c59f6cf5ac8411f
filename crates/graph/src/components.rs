//! Connected components of an undirected graph, and how they move under a
//! batch of edge edits.
//!
//! A node's σ under any proximity model can only see nodes it is connected
//! to, so "which seekers can an edit at `u` change" is, without a horizon,
//! "which nodes share `u`'s component". [`Components::build`] labels every
//! node in one `O(n + m)` pass; [`Components::after`] carries the labels to
//! the next graph of a lineage at the cost of the batch: inserts merge
//! labels, and each removal costs one bidirectional search that almost
//! always meets its other end after a few hundred nodes. Only a removal that
//! really disconnects its endpoints pays for a full rebuild.

use crate::csr::{CsrGraph, NodeId};
use crate::traversal::EdgeEdit;
use std::sync::Arc;

/// Every node's connected component, named by the component's smallest
/// node. The naming is canonical — one graph has one labelling — so two
/// labellings describe the same partition exactly when they are equal.
///
/// The labels sit behind an `Arc`: a batch that joins and splits no
/// component hands the next graph the same allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    labels: Arc<[NodeId]>,
    count: usize,
}

impl Components {
    /// Labels `g`'s components: one depth-first pass, `O(n + m)`.
    pub fn build(g: &CsrGraph) -> Self {
        const UNLABELLED: NodeId = NodeId::MAX;
        let mut labels = vec![UNLABELLED; g.num_nodes()];
        let mut stack = Vec::new();
        let mut count = 0;
        for root in g.nodes() {
            if labels[root as usize] != UNLABELLED {
                continue;
            }
            // Roots come in increasing order, so each is its component's
            // smallest node.
            labels[root as usize] = root;
            stack.push(root);
            while let Some(u) = stack.pop() {
                for &v in g.neighbors(u) {
                    if labels[v as usize] == UNLABELLED {
                        labels[v as usize] = root;
                        stack.push(v);
                    }
                }
            }
            count += 1;
        }
        Components {
            labels: labels.into(),
            count,
        }
    }

    /// The components of `next`, given that these are the components of a
    /// graph on the same node set and `edits` lists every pair whose
    /// presence differs between the two (reweights may be listed too; they
    /// move nothing). Equal to [`Components::build`] over `next`.
    ///
    /// Each removed pair is searched for in `next` from both ends. If every
    /// one is still joined, no component split — every edge of the old
    /// graph and of the inserts still has its ends connected in `next`, and
    /// `next` has no other edge — so `next`'s components are the old ones
    /// merged across the inserted pairs. A removal that did disconnect its
    /// ends falls back to a full rebuild.
    ///
    /// # Panics
    /// Panics if `next` has a different number of nodes.
    pub fn after(&self, next: &CsrGraph, edits: &[EdgeEdit]) -> Self {
        assert_eq!(
            next.num_nodes(),
            self.labels.len(),
            "a lineage keeps its node set"
        );
        let mut search = PairSearch::default();
        for e in edits.iter().filter(|e| e.old.is_some() && e.new.is_none()) {
            if !search.connected(next, e.u, e.v) {
                return Self::build(next);
            }
        }
        let label = |u: NodeId| self.labels[u as usize];
        let mut joins = edits
            .iter()
            .filter(|e| e.old.is_none() && e.new.is_some())
            .map(|e| (label(e.u), label(e.v)))
            .filter(|(a, b)| a != b)
            .peekable();
        if joins.peek().is_none() {
            return self.clone();
        }
        // Union-find over labels, the smaller label the root: a merged
        // component keeps its smallest node as its name.
        let mut parent: Vec<NodeId> = next.nodes().collect();
        let find = |parent: &[NodeId], mut x: NodeId| {
            while parent[x as usize] != x {
                x = parent[x as usize];
            }
            x
        };
        let mut count = self.count;
        for (a, b) in joins {
            let (a, b) = (find(&parent, a), find(&parent, b));
            if a != b {
                parent[a.max(b) as usize] = a.min(b);
                count -= 1;
            }
        }
        Components {
            labels: self.labels.iter().map(|&l| find(&parent, l)).collect(),
            count,
        }
    }

    /// The label of `u`'s component (its smallest node).
    #[inline]
    pub fn label(&self, u: NodeId) -> NodeId {
        self.labels[u as usize]
    }

    /// Every node's label, indexed by node.
    pub fn labels(&self) -> &[NodeId] {
        &self.labels
    }

    /// Number of components (an isolated node is one).
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Scratch of [`Components::after`]'s searches: per-node marks that name
/// the search and side that reached the node, so one allocation serves
/// every removed pair of a batch.
#[derive(Default)]
struct PairSearch {
    marks: Vec<u32>,
    runs: u32,
    queues: [Vec<NodeId>; 2],
}

impl PairSearch {
    /// Whether `u` and `v` are connected in `g`: a breadth-first search from
    /// each end, always advancing the side with fewer nodes pending, until a
    /// side reaches a node the other marked (joined) or runs out (that side
    /// has closed over its whole component without meeting the other).
    fn connected(&mut self, g: &CsrGraph, u: NodeId, v: NodeId) -> bool {
        if self.marks.is_empty() {
            self.marks = vec![0; g.num_nodes()];
        }
        self.runs += 1;
        let tags = [2 * self.runs - 1, 2 * self.runs];
        let mut heads = [0; 2];
        for (side, start) in [u, v].into_iter().enumerate() {
            self.queues[side].clear();
            self.queues[side].push(start);
            self.marks[start as usize] = tags[side];
        }
        loop {
            let pending = |s: usize| self.queues[s].len() - heads[s];
            let side = usize::from(pending(1) < pending(0));
            let Some(&x) = self.queues[side].get(heads[side]) else {
                return false;
            };
            heads[side] += 1;
            for &y in g.neighbors(x) {
                let mark = self.marks[y as usize];
                if mark == tags[1 - side] {
                    return true;
                }
                if mark != tags[side] {
                    self.marks[y as usize] = tags[side];
                    self.queues[side].push(y);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;

    fn edit(u: NodeId, v: NodeId, old: Option<f32>, new: Option<f32>) -> EdgeEdit {
        EdgeEdit { u, v, old, new }
    }

    #[test]
    fn labels_name_each_component_by_its_smallest_node() {
        let g = GraphBuilder::from_edges(7, [(1, 4, 1.0), (4, 2, 1.0), (5, 6, 1.0)]);
        let c = Components::build(&g);
        assert_eq!(c.labels(), &[0, 1, 1, 3, 1, 5, 5]);
        assert_eq!(c.count(), 4);
    }

    #[test]
    fn inserts_merge_and_a_bridge_removal_splits() {
        let g = GraphBuilder::from_edges(6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)]);
        let c = Components::build(&g);
        let join = [edit(1, 2, None, Some(0.5)), edit(3, 4, None, Some(0.5))];
        let joined = g.with_edits(&[(1, 2, 0.5), (3, 4, 0.5)], &[]);
        let merged = c.after(&joined, &join);
        assert_eq!(merged, Components::build(&joined));
        assert_eq!(merged.count(), 1);
        let cut = joined.with_edits(&[], &[(1, 2)]);
        let split = merged.after(&cut, &[edit(1, 2, Some(0.5), None)]);
        assert_eq!(split, Components::build(&cut));
        assert_eq!(split.labels(), &[0, 0, 2, 2, 2, 2]);
    }

    #[test]
    fn a_batch_that_joins_and_splits_nothing_shares_the_labels() {
        // A cycle: removing one of its edges leaves it connected.
        let g = GraphBuilder::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let c = Components::build(&g);
        let next = g.with_edits(&[(0, 2, 1.0), (1, 2, 0.25)], &[(0, 1)]);
        let edits = [
            edit(0, 1, Some(1.0), None),
            edit(0, 2, None, Some(1.0)),
            edit(1, 2, Some(1.0), Some(0.25)),
        ];
        let after = c.after(&next, &edits);
        assert!(Arc::ptr_eq(&after.labels, &c.labels));
        assert_eq!(after, Components::build(&next));
    }
}
