//! # friends-graph
//!
//! Social-graph substrate for the `friends` workspace: a compact CSR
//! (compressed sparse row) in-memory graph, synthetic social-network
//! generators, traversals, connected components, personalized PageRank,
//! landmark distance oracles, community detection and descriptive metrics.
//!
//! The crate is deliberately self-contained (no graph ecosystem
//! dependencies): the ICDE-2013 reproduction needs full control over memory
//! layout and traversal order, and the Rust graph-analytics ecosystem is thin
//! for this use case (see `DESIGN.md`).
//!
//! ## Quick tour
//!
//! ```
//! use friends_graph::{GraphBuilder, generators, traversal};
//!
//! // Hand-built triangle plus a pendant node.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 1.0);
//! b.add_edge(2, 0, 1.0);
//! b.add_edge(2, 3, 0.5);
//! let g = b.build();
//! assert_eq!(g.degree(2), 3);
//!
//! // A synthetic small world.
//! let sw = generators::watts_strogatz(100, 6, 0.1, 42);
//! let dist = traversal::bfs_distances(&sw, 0);
//! assert!(dist.iter().all(|&d| d != friends_graph::traversal::UNREACHABLE));
//! ```

#![forbid(unsafe_code)]

pub mod community;
pub mod components;
pub mod csr;
pub mod generators;
pub mod landmarks;
pub mod metrics;
pub mod ppr;
pub mod traversal;

pub use components::Components;
pub use csr::{CsrGraph, GraphBuilder, NodeId};

/// A totally ordered `f32` wrapper for use in binary heaps.
///
/// Comparisons use [`f32::total_cmp`], which keeps the ordering total even in
/// the presence of `NaN`; traversal code never produces `NaN`, so in practice
/// this behaves exactly like `f32`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrdF32(pub f32);

impl Eq for OrdF32 {}

impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A totally ordered `f64` wrapper, companion to [`OrdF32`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod ord_tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn ordf32_orders_like_f32() {
        let mut h = BinaryHeap::new();
        for v in [0.5f32, -1.0, 3.25, 0.0] {
            h.push(OrdF32(v));
        }
        assert_eq!(h.pop(), Some(OrdF32(3.25)));
        assert_eq!(h.pop(), Some(OrdF32(0.5)));
        assert_eq!(h.pop(), Some(OrdF32(0.0)));
        assert_eq!(h.pop(), Some(OrdF32(-1.0)));
    }

    #[test]
    fn ordf64_total_on_nan() {
        let a = OrdF64(f64::NAN);
        let b = OrdF64(f64::NAN);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert!(OrdF64(1.0) < OrdF64(f64::NAN));
    }
}
