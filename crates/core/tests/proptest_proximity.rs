//! Property tests for the zero-allocation proximity hot path: for every
//! `ProximityModel` × processor combination on randomly generated corpora,
//! the sparse/workspace σ path, the legacy dense-materialize path and the
//! cached path must produce **byte-identical** rankings (same item ids in
//! the same order, bit-equal f32 scores). This is the contract that lets the
//! perf refactor claim "rankings provably unchanged".

use friends_core::cache::ProximityCache;
use friends_core::corpus::Corpus;
use friends_core::processors::{ExactOnline, GlobalBoundTA, Processor, ScoringStrategy};
use friends_core::proximity::{edge_decay, ProximityModel, SigmaBounds, SigmaWorkspace};
use friends_data::queries::Query;
use friends_data::store::TagStore;
use friends_data::{TagId, Tagging};
use friends_graph::traversal::{bfs_distances, ProximityScan, ProximityWorkspace, UNREACHABLE};
use friends_graph::{CsrGraph, GraphBuilder};
use friends_index::topk::TopK;
use proptest::prelude::*;
use std::sync::Arc;

/// σ by **raw unbounded graph traversal**, bypassing the materialization
/// layer entirely for the decay models: a full BFS (every reachable node,
/// no horizon) and a full proximity Dijkstra. This is the reference the
/// bounded-radius/mass-floor traversals must reproduce bit for bit — using
/// it in [`dense_materialize_reference`] makes every ranking proptest in
/// this file a differential test of the bounded materialization too.
fn unbounded_sigma(g: &CsrGraph, model: ProximityModel, seeker: u32) -> Vec<f64> {
    let n = g.num_nodes();
    match model {
        ProximityModel::DistanceDecay { alpha } => bfs_distances(g, seeker)
            .iter()
            .map(|&d| {
                if d == UNREACHABLE {
                    0.0
                } else {
                    alpha.powi(d as i32)
                }
            })
            .collect(),
        ProximityModel::WeightedDecay { alpha } => {
            let mut v = vec![0.0f64; n];
            let mut ws = ProximityWorkspace::new();
            for (u, p) in ProximityScan::new(g, seeker, edge_decay(alpha), &mut ws) {
                v[u as usize] = p;
            }
            v
        }
        _ => model.materialize(g, seeker),
    }
}

/// Strategy: a small random corpus (graph + taggings) plus a query.
fn arb_corpus_and_query() -> impl Strategy<Value = (Corpus, Query)> {
    (
        3usize..32, // users
        1u32..24,   // items
        1u32..6,    // tags
        proptest::collection::vec((0u32..32, 0u32..24, 0u32..6, 0.01f32..2.0), 0..100),
        proptest::collection::vec((0u32..32, 0u32..32, 0.05f32..1.0), 0..64),
        0u32..32,                                 // seeker (mod users)
        proptest::collection::vec(0u32..6, 1..4), // query tags
        1usize..8,                                // k
    )
        .prop_map(
            |(n, items, tags, raw_taggings, raw_edges, seeker, qtags, k)| {
                let n = n.max(2);
                let mut b = GraphBuilder::new(n);
                for (u, v, w) in raw_edges {
                    let (u, v) = (u % n as u32, v % n as u32);
                    if u != v {
                        b.add_edge(u, v, w);
                    }
                }
                let graph = b.build();
                let taggings: Vec<Tagging> = raw_taggings
                    .into_iter()
                    .map(|(u, i, t, w)| Tagging {
                        user: u % n as u32,
                        item: i % items,
                        tag: t % tags,
                        weight: w,
                    })
                    .collect();
                let store = TagStore::build(n as u32, items, tags, taggings);
                let corpus = Corpus::new(graph, store);
                let mut qtags: Vec<TagId> = qtags.into_iter().map(|t| t % tags).collect();
                qtags.sort_unstable();
                qtags.dedup();
                let query = Query {
                    seeker: seeker % n as u32,
                    tags: qtags,
                    k,
                };
                (corpus, query)
            },
        )
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

/// The seed's ExactOnline algorithm, verbatim: materialize a dense σ vector
/// (by raw **unbounded** traversal — see [`unbounded_sigma`]), scan whole
/// tag posting lists in `(tag; item, user)` order, accumulate f32 per item,
/// rank via `TopK`.
fn dense_materialize_reference(
    corpus: &Corpus,
    model: ProximityModel,
    q: &Query,
) -> Vec<(u32, f32)> {
    let sigma = unbounded_sigma(&corpus.graph, model, q.seeker);
    let mut scores = vec![0.0f32; corpus.num_items() as usize];
    let mut touched: Vec<u32> = Vec::new();
    let mut is_touched = vec![false; corpus.num_items() as usize];
    for &tag in &q.tags {
        if tag >= corpus.store.num_tags() {
            continue;
        }
        for t in corpus.store.tag_taggings(tag) {
            let s = sigma[t.user as usize];
            if s > 0.0 {
                if !is_touched[t.item as usize] {
                    is_touched[t.item as usize] = true;
                    touched.push(t.item);
                }
                scores[t.item as usize] += (s * t.weight as f64) as f32;
            }
        }
    }
    let mut topk = TopK::new(q.k);
    for &i in &touched {
        topk.offer(i, scores[i as usize]);
    }
    topk.into_sorted_vec()
}

fn assert_byte_identical(
    want: &[(u32, f32)],
    got: &[(u32, f32)],
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.len(), got.len(), "{}: length", label);
    for (w, g) in want.iter().zip(got) {
        prop_assert_eq!(w.0, g.0, "{}: item ids diverge", label);
        prop_assert_eq!(
            w.1.to_bits(),
            g.1.to_bits(),
            "{}: score bits diverge on item {} ({} vs {})",
            label,
            w.0,
            w.1,
            g.1
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ExactOnline through the workspace (sparse or stamped-dense σ) and
    /// through the shared cache returns exactly the dense-materialize
    /// reference ranking, for every model.
    #[test]
    fn exact_online_sigma_paths_are_byte_identical((corpus, query) in arb_corpus_and_query()) {
        for model in all_models() {
            let want = dense_materialize_reference(&corpus, model, &query);

            let mut ws_path = ExactOnline::new(&corpus, model);
            // Run twice: the second query exercises epoch-stamped reuse.
            ws_path.query(&query);
            let got = ws_path.query(&query);
            assert_byte_identical(&want, &got.items, model.name())?;

            let cache = Arc::new(ProximityCache::new(16));
            let mut cached = ExactOnline::with_cache(&corpus, model, Arc::clone(&cache));
            let miss = cached.query(&query);
            assert_byte_identical(&want, &miss.items, model.name())?;
            let hit = cached.query(&query);
            if model.cache_worthy() {
                prop_assert!(cache.stats().hits > 0, "{}: no cache hit", model.name());
            } else {
                // Cheap models must bypass the cache mutex entirely.
                prop_assert_eq!(cache.stats().hits + cache.stats().misses, 0);
            }
            assert_byte_identical(&want, &hit.items, model.name())?;
        }
    }

    /// GlobalBoundTA returns byte-identical rankings whether σ comes from
    /// its own workspace or from a cache hit, for every model with σ ≤ 1.
    #[test]
    fn global_bound_ta_sigma_paths_are_byte_identical((corpus, query) in arb_corpus_and_query()) {
        for model in all_models() {
            if matches!(model, ProximityModel::Ppr { .. }) {
                continue; // GBTA requires σ ≤ 1; PPR is a distribution
            }
            let mut plain = GlobalBoundTA::new(&corpus, model);
            plain.query(&query);
            let want = plain.query(&query);

            let cache = Arc::new(ProximityCache::new(16));
            let mut cached = GlobalBoundTA::with_cache(&corpus, model, Arc::clone(&cache));
            let miss = cached.query(&query);
            assert_byte_identical(&want.items, &miss.items, model.name())?;
            let hit = cached.query(&query);
            if model.cache_worthy() {
                prop_assert!(cache.stats().hits > 0, "{}: no cache hit", model.name());
            } else {
                prop_assert_eq!(cache.stats().hits + cache.stats().misses, 0);
            }
            assert_byte_identical(&want.items, &hit.items, model.name())?;
        }
    }

    /// The three `ExactOnline` scoring strategies — posting scan, support
    /// probe (sparse-σ models) and block-max σ-aware WAND — return
    /// byte-identical rankings for every model, including when the query is
    /// served twice (epoch-stamped reuse and warm block cursors).
    #[test]
    fn exact_online_strategies_are_byte_identical((corpus, query) in arb_corpus_and_query()) {
        for model in all_models() {
            let want = dense_materialize_reference(&corpus, model, &query);

            let mut scan =
                ExactOnline::with_strategy(&corpus, model, ScoringStrategy::PostingScan);
            assert_byte_identical(&want, &scan.query(&query).items,
                &format!("{} scan", model.name()))?;

            let mut bm = ExactOnline::with_strategy(&corpus, model, ScoringStrategy::BlockMax);
            // Twice: the second run exercises reused block cursors/buffers.
            bm.query(&query);
            assert_byte_identical(&want, &bm.query(&query).items,
                &format!("{} block-max", model.name()))?;

            if model.has_sparse_support() {
                let mut sup =
                    ExactOnline::with_strategy(&corpus, model, ScoringStrategy::SupportProbe);
                assert_byte_identical(&want, &sup.query(&query).items,
                    &format!("{} support", model.name()))?;
            }
        }
    }

    /// `GlobalBoundTA`'s native global-driven TA and its block-max strategy
    /// return byte-identical rankings for the five σ ≤ 1 models.
    #[test]
    fn global_bound_ta_strategies_are_byte_identical((corpus, query) in arb_corpus_and_query()) {
        for model in all_models() {
            if matches!(model, ProximityModel::Ppr { .. }) {
                continue; // the native τ bound requires σ ≤ 1
            }
            let mut native =
                GlobalBoundTA::with_strategy(&corpus, model, ScoringStrategy::GlobalTa);
            let want = native.query(&query);

            let mut bm = GlobalBoundTA::with_strategy(&corpus, model, ScoringStrategy::BlockMax);
            bm.query(&query);
            assert_byte_identical(&want.items, &bm.query(&query).items,
                &format!("{} gbta block-max", model.name()))?;
        }
    }

    /// The workspace σ values themselves are bit-equal to the **unbounded**
    /// traversal reference, node by node, model by model — the horizon /
    /// underflow bounds the workspace path runs under must be invisible.
    #[test]
    fn workspace_sigma_equals_unbounded_sigma((corpus, query) in arb_corpus_and_query()) {
        let mut ws = SigmaWorkspace::new();
        for model in all_models() {
            let dense = unbounded_sigma(&corpus.graph, model, query.seeker);
            model.materialize_into(&corpus.graph, query.seeker, &mut ws);
            prop_assert_eq!(ws.residual_bound().to_bits(), 0.0f64.to_bits(), "{}", model.name());
            for u in 0..corpus.graph.num_nodes() as u32 {
                prop_assert_eq!(
                    dense[u as usize].to_bits(),
                    ws.get(u).to_bits(),
                    "{} node {}",
                    model.name(),
                    u
                );
            }
        }
    }

    /// Bounded-radius / mass-floor materialization against the unbounded
    /// reference, with the cutoff landing *inside* the component (the
    /// straddle case): kept nodes are bit-identical, dropped nodes read
    /// exactly 0 and are dominated by the recorded residual, and a cutoff
    /// wide enough to cover the reach reports residual 0 — the per-query
    /// exactness proof.
    #[test]
    fn bounded_materialization_is_sound_and_tight(
        (corpus, query) in arb_corpus_and_query(),
        radius in 0u32..6,
        floor_exp in 1i32..30,
    ) {
        let g = &corpus.graph;
        let seeker = query.seeker;
        let mut ws = SigmaWorkspace::new();
        for alpha in [0.3f64, 0.5] {
            // DistanceDecay under a hop radius.
            let model = ProximityModel::DistanceDecay { alpha };
            let full = unbounded_sigma(g, model, seeker);
            model.materialize_bounded(g, seeker, &mut ws, SigmaBounds::with_radius(radius));
            let dist = bfs_distances(g, seeker);
            let res = ws.residual_bound();
            for u in 0..g.num_nodes() as u32 {
                let d = dist[u as usize];
                if d != UNREACHABLE && d <= radius {
                    prop_assert_eq!(full[u as usize].to_bits(), ws.get(u).to_bits(),
                        "kept node {} at {} hops", u, d);
                } else {
                    prop_assert_eq!(ws.get(u).to_bits(), 0.0f64.to_bits(), "dropped node {}", u);
                    prop_assert!(full[u as usize] <= res.max(0.0) || full[u as usize] == 0.0,
                        "dropped node {} σ {} above residual {}", u, full[u as usize], res);
                }
            }
            if res == 0.0 {
                for u in 0..g.num_nodes() as u32 {
                    prop_assert_eq!(full[u as usize].to_bits(), ws.get(u).to_bits());
                }
            }
            // WeightedDecay under a mass floor.
            let model = ProximityModel::WeightedDecay { alpha };
            let full = unbounded_sigma(g, model, seeker);
            let floor = 0.5f64.powi(floor_exp);
            model.materialize_bounded(g, seeker, &mut ws, SigmaBounds::with_min_mass(floor));
            let res = ws.residual_bound();
            prop_assert!(res <= floor);
            for u in 0..g.num_nodes() as u32 {
                let b = ws.get(u);
                if b > 0.0 {
                    prop_assert_eq!(full[u as usize].to_bits(), b.to_bits(), "kept node {}", u);
                } else if full[u as usize] > 0.0 {
                    prop_assert!(full[u as usize] < floor && res > 0.0,
                        "dropped node {} σ {} vs floor {}", u, full[u as usize], floor);
                }
            }
        }
    }
}
