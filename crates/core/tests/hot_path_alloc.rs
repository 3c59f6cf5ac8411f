//! The zero-allocation contract of the query hot path: once a processor has
//! served one query (sizing its epoch-stamped workspaces to the corpus), a
//! steady-state query stream must never grow an `O(n)` buffer again. The
//! workspaces count their growth events explicitly, so this is a
//! deterministic test, not a heap-profiler heuristic.

use friends_core::cache::ProximityCache;
use friends_core::corpus::Corpus;
use friends_core::live::LiveCorpus;
use friends_core::processors::{
    ExactOnline, ExpansionConfig, FriendExpansion, Processor, ScoringStrategy,
};
use friends_core::proximity::{ProximityModel, SigmaBounds, SigmaWorkspace};
use friends_data::datasets::{DatasetSpec, Scale};
use friends_data::mutations::{MutationParams, MutationStream};
use friends_data::queries::{QueryParams, QueryWorkload};
use std::sync::Arc;

fn fixture() -> (Corpus, QueryWorkload) {
    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(41);
    let corpus = Corpus::new(ds.graph, ds.store);
    let w = QueryWorkload::generate(
        &corpus.graph,
        &corpus.store,
        &QueryParams {
            count: 40,
            ..QueryParams::default()
        },
        19,
    );
    (corpus, w)
}

fn all_models() -> Vec<ProximityModel> {
    vec![
        ProximityModel::Global,
        ProximityModel::FriendsOnly,
        ProximityModel::DistanceDecay { alpha: 0.5 },
        ProximityModel::WeightedDecay { alpha: 0.5 },
        ProximityModel::Ppr {
            alpha: 0.2,
            epsilon: 1e-4,
        },
        ProximityModel::AdamicAdar,
    ]
}

#[test]
fn exact_online_steady_state_is_allocation_free() {
    let (corpus, w) = fixture();
    for model in all_models() {
        let mut p = ExactOnline::new(&corpus, model);
        // Warm pass: every per-query buffer — σ workspaces, accumulators and
        // (for queries the Auto strategy routes to block-max) the operator's
        // cursor states and block decode buffers — reaches its steady size.
        for q in &w.queries {
            p.query(q);
        }
        let warm = p.allocation_count();
        for q in &w.queries {
            p.query(q);
        }
        assert_eq!(
            p.allocation_count(),
            warm,
            "{} grew an O(n) buffer mid-stream",
            model.name()
        );
    }
}

#[test]
fn block_max_steady_state_is_allocation_free() {
    // The forced block-max path: block metadata and decode buffers must be
    // reused across queries — no per-query skip-list or cursor allocations
    // once the operator has served the workload once.
    let (corpus, w) = fixture();
    corpus.sigma_index(); // shared index builds once, outside the contract
    for model in all_models() {
        let mut p = ExactOnline::with_strategy(&corpus, model, ScoringStrategy::BlockMax);
        for q in &w.queries {
            p.query(q);
        }
        let warm = p.allocation_count();
        for q in &w.queries {
            p.query(q);
        }
        assert_eq!(
            p.allocation_count(),
            warm,
            "{} block-max path grew a buffer mid-stream",
            model.name()
        );
    }
}

#[test]
fn friend_expansion_steady_state_is_allocation_free() {
    let (corpus, w) = fixture();
    let mut p = FriendExpansion::new(&corpus, ExpansionConfig::default());
    p.query(&w.queries[0]);
    let warm = p.allocation_count();
    for q in &w.queries[1..] {
        p.query(q);
    }
    assert_eq!(p.allocation_count(), warm);
}

#[test]
fn sigma_workspace_steady_state_is_allocation_free() {
    let (corpus, w) = fixture();
    let mut ws = SigmaWorkspace::new();
    // Warm every model's private scratch (BFS / bucket stacks / push buffers).
    for model in all_models() {
        model.materialize_into(&corpus.graph, 0, &mut ws);
    }
    let warm = ws.allocation_count();
    for q in &w.queries {
        for model in all_models() {
            model.materialize_into(&corpus.graph, q.seeker, &mut ws);
        }
    }
    assert_eq!(ws.allocation_count(), warm);
}

#[test]
fn weighted_decay_kernel_steady_state_is_allocation_free() {
    // The unordered σ kernel labels into the workspace's own record array:
    // one materialization sizes it, and no later seeker, decay (α > 0.5
    // re-queues nodes inside a binade) or mass floor grows it again.
    let (corpus, w) = fixture();
    let mut ws = SigmaWorkspace::new();
    ProximityModel::WeightedDecay { alpha: 0.5 }.materialize_into(&corpus.graph, 0, &mut ws);
    let warm = ws.allocation_count();
    for alpha in [0.5, 0.9] {
        for min_mass in [0.0, 0.05] {
            let bounds = SigmaBounds::with_min_mass(min_mass);
            for q in &w.queries {
                ProximityModel::WeightedDecay { alpha }.materialize_bounded(
                    &corpus.graph,
                    q.seeker,
                    &mut ws,
                    bounds,
                );
            }
        }
    }
    assert_eq!(ws.allocation_count(), warm);
}

#[test]
fn repairing_sweep_steady_state_is_allocation_free() {
    // Reads repair stale cached vectors in the cache's own scratch: the
    // first repair sizes it to the graph, and no later one — inserts,
    // removals, both repairable models, every seeker re-read after every
    // batch — grows it again.
    let (corpus, w) = fixture();
    let live = LiveCorpus::new(Arc::new(corpus));
    let cache = Arc::new(ProximityCache::new(4 * w.queries.len()));
    let models = [
        ProximityModel::WeightedDecay { alpha: 0.5 },
        ProximityModel::WeightedDecay { alpha: 0.9 },
        ProximityModel::DistanceDecay { alpha: 0.5 },
    ];
    let base = live.snapshot();
    let batches = MutationStream::generate(
        &base.graph,
        &base.store,
        &MutationParams {
            count: 12 * 16,
            ..MutationParams::default()
        },
        23,
    )
    .batches(16);
    let mut warm = None;
    for batch in &batches {
        let snap = live.snapshot();
        for model in models {
            let mut p = ExactOnline::with_cache(&snap, model, Arc::clone(&cache));
            for q in &w.queries {
                p.query(q);
                if cache.stale_hits().repaired > 0 {
                    let count = cache.repair_allocation_count();
                    assert_eq!(
                        *warm.get_or_insert(count),
                        count,
                        "a warm repair grew its scratch"
                    );
                }
            }
        }
        let prepared = live.prepare(batch);
        cache.advance(&prepared.edits);
        live.publish(&prepared);
    }
    assert!(warm.is_some(), "no read repaired anything");
}
