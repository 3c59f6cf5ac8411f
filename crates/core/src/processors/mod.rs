//! Query processors: the baselines and the paper's network-aware algorithms.

mod cluster;
mod exact;
mod expansion;
mod global;
mod globalbound;
mod hybrid;

pub use cluster::{ClusterConfig, ClusterIndex};
pub use exact::ExactOnline;
pub(crate) use exact::BLOCKMAX_MIN_POSTINGS;
pub use expansion::{ExpansionConfig, FriendExpansion};
pub use global::GlobalProcessor;
pub use globalbound::GlobalBoundTA;
pub use hybrid::{Hybrid, HybridConfig};

use crate::cache::ProximityCache;
use crate::corpus::{QueryStats, SearchResult};
use crate::latency::elapsed_ns;
use crate::proximity::{ProximityModel, ProximityVec, SigmaBounds, SigmaWorkspace};
use friends_data::queries::Query;
use friends_graph::{CsrGraph, NodeId};
use friends_index::accumulate::DenseAccumulator;
use std::sync::Arc;

/// How a processor evaluates one query's σ-weighted scores. All strategies
/// of a given processor return **bit-identical rankings** (pinned by the
/// differential property suites); the choice is purely a cost decision.
///
/// `ExactOnline` honors `PostingScan` / `SupportProbe` / `BlockMax`;
/// `GlobalBoundTA` honors `GlobalTa` / `BlockMax`. `Auto` (the default)
/// lets the processor pick per query from the model's support shape and the
/// posting volume; forcing a strategy a processor does not implement falls
/// back to `Auto` (documented per processor).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ScoringStrategy {
    /// Per-query adaptive choice (the default).
    #[default]
    Auto,
    /// Scan every posting of every query tag, `O(1)` σ lookups.
    PostingScan,
    /// Probe only the seeker's σ-support postings (sparse models).
    SupportProbe,
    /// Block-max σ-aware WAND over the corpus's σ-aware posting index.
    BlockMax,
    /// Global-index-driven TA with σ probes (`GlobalBoundTA`'s native path).
    GlobalTa,
}

/// A top-k query processor.
///
/// `query` takes `&mut self` so processors can reuse per-query scratch
/// buffers (accumulators, workspaces) without interior mutability.
pub trait Processor {
    /// Short stable name used in reports and benchmark rows.
    fn name(&self) -> &'static str;

    /// Executes one query.
    fn query(&mut self, q: &Query) -> SearchResult;

    /// Applies a per-request [`ScoringStrategy`] hint ahead of the next
    /// [`Processor::query`] call — the entry point `friends_service`
    /// requests carry their hint through. Processors with a single
    /// execution path ignore it (the default); `ExactOnline` and
    /// `GlobalBoundTA` honor it exactly like their `with_strategy`
    /// constructors (every strategy returns byte-identical rankings, so
    /// the hint is purely a cost decision).
    fn set_strategy(&mut self, _strategy: ScoringStrategy) {}

    /// Applies per-request [`crate::proximity::SigmaBounds`] ahead of the
    /// next [`Processor::query`] call — the entry point degraded serving
    /// threads approximation bounds through. Processors that cannot bound
    /// their σ materialization ignore it (the default) and keep returning
    /// exact results with `residual == 0.0`; `ExactOnline` and
    /// `GlobalBoundTA` honor it and report the score-space residual
    /// certificate in [`SearchResult::residual`].
    fn set_bounds(&mut self, _bounds: crate::proximity::SigmaBounds) {}
}

/// Resolves `σ(seeker, ·)` for one query, the step `ExactOnline` and
/// `GlobalBoundTA` share: a cache hit returns the shared vector; a miss
/// materializes into `ws` (returning `None` — σ is then read from the
/// workspace) and offers the cache a snapshot, built only if the cache
/// admits it. Models cheaper to rebuild than to fetch skip the cache
/// entirely. The cache is keyed on the bounds, so a degraded σ is never
/// served for an exact request (or for differently-bounded ones). Records
/// `sigma_ns` and `sigma_cached` in `stats`.
pub(crate) fn resolve_sigma(
    graph: &CsrGraph,
    seeker: NodeId,
    model: ProximityModel,
    bounds: SigmaBounds,
    cache: Option<&ProximityCache>,
    ws: &mut SigmaWorkspace,
    stats: &mut QueryStats,
) -> Option<Arc<ProximityVec>> {
    let start = std::time::Instant::now();
    let cache = cache.filter(|_| model.cache_worthy());
    let cached = cache.and_then(|c| c.get_bounded(graph, seeker, model, bounds));
    if cached.is_none() {
        model.materialize_bounded(graph, seeker, ws, bounds);
        if let Some(c) = cache {
            let n = graph.num_nodes();
            c.insert_with(graph, seeker, model, bounds, ws.snapshot_bytes(n), || {
                Arc::new(ws.snapshot(n))
            });
        }
    }
    stats.sigma_ns = elapsed_ns(start);
    stats.sigma_cached = cache.map(|_| cached.is_some());
    cached
}

/// `(θ, η)` over an accumulator's touched docs: the k-th best accumulated
/// score and the best score *outside* the current top-k (0.0 when fewer than
/// `k + 1` docs are touched). Shared by the early-terminating processors;
/// `scratch` is reused across queries.
pub(crate) fn kth_and_next(acc: &DenseAccumulator, scratch: &mut Vec<f32>, k: usize) -> (f32, f32) {
    if k == 0 {
        // Nothing to return: any bound justifies stopping immediately.
        return (f32::INFINITY, 0.0);
    }
    let touched = acc.touched();
    if touched.len() < k {
        return (f32::NEG_INFINITY, 0.0);
    }
    scratch.clear();
    scratch.extend(touched.iter().map(|&d| acc.get(d)));
    let n = scratch.len();
    // k-th largest = element at index k-1 of descending order.
    let (_, kth, _rest) = scratch.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
    let theta = *kth;
    let eta = if n > k {
        // Largest of the remaining (non-top-k) elements.
        scratch[k..].iter().copied().fold(0.0f32, f32::max)
    } else {
        0.0
    };
    (theta, eta)
}
