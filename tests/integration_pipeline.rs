//! End-to-end integration: dataset generation → corpus → every processor,
//! checking the cross-processor contracts the evaluation relies on.
//! Personalized reference rankings run through the unified [`SearchClient`]
//! API where a test doesn't specifically probe a processor's internals.

use friends::prelude::*;
use std::sync::Arc;

/// Exact personalized rankings through the client API (the planner picks
/// the processor/strategy; exactness is part of its contract).
fn client_truth(
    corpus: &Arc<Corpus>,
    queries: &[Query],
    model: ProximityModel,
) -> Vec<SearchResult> {
    let client = ServedClient::start(Arc::clone(corpus), ServiceConfig::default());
    let out = client.search(queries, model);
    client.shutdown();
    out
}

fn corpus(seed: u64) -> Corpus {
    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(seed);
    Corpus::new(ds.graph, ds.store)
}

fn workload(c: &Corpus, count: usize, k: usize, seed: u64) -> QueryWorkload {
    QueryWorkload::generate(
        &c.graph,
        &c.store,
        &QueryParams {
            count,
            k,
            ..QueryParams::default()
        },
        seed,
    )
}

#[test]
fn global_processor_equals_exact_with_global_model() {
    let c = corpus(11);
    let mut global = GlobalProcessor::new(&c, IndexConfig::default());
    let mut exact = ExactOnline::new(&c, ProximityModel::Global);
    for q in &workload(&c, 30, 10, 5).queries {
        let a = global.query(q);
        let b = exact.query(q);
        assert_eq!(a.item_ids(), b.item_ids(), "query {q:?}");
        for (x, y) in a.items.iter().zip(&b.items) {
            assert!((x.1 - y.1).abs() < 1e-3, "{x:?} vs {y:?}");
        }
    }
}

#[test]
fn expansion_exhaustive_equals_exact_weighted_decay() {
    let c = corpus(13);
    let alpha = 0.45;
    let mut exact = ExactOnline::new(&c, ProximityModel::WeightedDecay { alpha });
    let mut exp = FriendExpansion::new(
        &c,
        ExpansionConfig {
            alpha,
            exhaustive: true,
            ..ExpansionConfig::default()
        },
    );
    for q in &workload(&c, 30, 10, 6).queries {
        // The two exact implementations accumulate f32 scores in different
        // orders, so near-ties may swap ranks; compare sets and score values.
        let a = exact.query(q);
        let b = exp.query(q);
        let sa: std::collections::BTreeSet<ItemId> = a.item_ids().into_iter().collect();
        let sb: std::collections::BTreeSet<ItemId> = b.item_ids().into_iter().collect();
        assert_eq!(sa, sb, "query {q:?}");
        let mb: std::collections::HashMap<ItemId, f32> = b.items.iter().copied().collect();
        for (item, s) in &a.items {
            assert!(
                (mb[item] - s).abs() < 1e-3,
                "item {item}: {s} vs {}",
                mb[item]
            );
        }
    }
}

#[test]
fn early_terminating_expansion_preserves_topk_set() {
    let c = corpus(17);
    let alpha = 0.35;
    let mut exact = ExactOnline::new(&c, ProximityModel::WeightedDecay { alpha });
    let mut exp = FriendExpansion::new(
        &c,
        ExpansionConfig {
            alpha,
            exhaustive: false,
            check_interval: 8,
        },
    );
    for q in &workload(&c, 50, 5, 7).queries {
        // The exact top-k *set* is only unique up to ties at the k-th score:
        // when the boundary is tied, either tied item is a correct answer
        // (bit-equal ties do occur on generated corpora).
        let want = exact.query(q);
        let got = exp.query(q).item_ids();
        let mut wide_q = q.clone();
        wide_q.k = q.k + 32;
        let wide = exact.query(&wide_q);
        assert!(
            topk_sets_equal_up_to_ties(&want.items, &got, &wide.items),
            "top-k sets differ beyond boundary ties for {q:?}: {:?} vs {got:?}",
            want.item_ids()
        );
    }
}

#[test]
fn prefix_consistency_across_k() {
    // The top-5 of the exact path must be a prefix of its top-10 — checked
    // through the client API, so planning can never break it either.
    let c = Arc::new(corpus(19));
    let w = workload(&c, 20, 10, 9);
    let model = ProximityModel::WeightedDecay { alpha: 0.5 };
    let big = client_truth(&c, &w.queries, model);
    let small_queries: Vec<Query> = w
        .queries
        .iter()
        .map(|q| {
            let mut q5 = q.clone();
            q5.k = 5;
            q5
        })
        .collect();
    let small = client_truth(&c, &small_queries, model);
    for (b, s) in big.iter().zip(&small) {
        let (b, s) = (b.item_ids(), s.item_ids());
        assert_eq!(&b[..s.len().min(5)], &s[..]);
    }
}

#[test]
fn cluster_index_quality_is_reasonable() {
    let c = corpus(23);
    let alpha = 0.5;
    let mut exact = ExactOnline::new(&c, ProximityModel::DistanceDecay { alpha });
    let mut cluster = ClusterIndex::build(
        &c,
        ClusterConfig {
            alpha,
            num_landmarks: 24,
            ..ClusterConfig::default()
        },
    );
    let w = workload(&c, 30, 10, 11);
    let mut ps = Vec::new();
    for q in &w.queries {
        let truth = exact.query(q);
        let approx = cluster.query(q);
        ps.push(precision_at_k(&approx.item_ids(), &truth.item_ids(), q.k));
    }
    let avg = ps.iter().sum::<f64>() / ps.len() as f64;
    assert!(avg > 0.55, "cluster precision collapsed: {avg}");
}

#[test]
fn hybrid_always_answers_and_routes_sensibly() {
    let c = corpus(29);
    let mut hybrid = Hybrid::build(&c, HybridConfig::default());
    for q in &workload(&c, 40, 10, 13).queries {
        let r = hybrid.query(q);
        assert!(r.items.len() <= q.k);
        assert!(r.items.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_ne!(hybrid.last_route(), "unrouted");
    }
}

#[test]
fn personalization_diverges_from_global_under_homophily() {
    // On a homophilous dataset, personalized and global rankings must not be
    // identical for most seekers (otherwise the whole premise is vacuous).
    // Both sides run through one client — the per-request model is the only
    // difference.
    let c = Arc::new(corpus(31));
    let w = workload(&c, 40, 10, 15);
    let global = client_truth(&c, &w.queries, ProximityModel::Global);
    let exact = client_truth(&c, &w.queries, ProximityModel::WeightedDecay { alpha: 0.4 });
    let diverged = global
        .iter()
        .zip(&exact)
        .filter(|(g, e)| g.item_ids() != e.item_ids())
        .count();
    assert!(
        diverged * 2 > w.len(),
        "only {diverged}/{} queries diverged",
        w.len()
    );
}

#[test]
fn stats_are_internally_consistent() {
    let c = corpus(37);
    let mut exp = FriendExpansion::new(&c, ExpansionConfig::default());
    for q in &workload(&c, 20, 10, 17).queries {
        let r = exp.query(q);
        assert!(r.stats.users_visited <= c.num_users() as usize);
        assert!(r.stats.postings_scanned <= c.store.num_taggings());
    }
}
