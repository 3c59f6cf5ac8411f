//! Client-exactness property suite: for random corpora and request
//! streams, [`DirectClient`] and [`ServedClient`] return byte-identical
//! results (same item ids, bit-equal scores) to direct processor execution,
//! for every proximity model × scoring strategy. The reference re-derives the planner's exact
//! decision per query, so planning is pinned deterministic too. A separate
//! test drives ≥ 64 in-flight requests with mixed deadlines through the
//! [`Multiplexer`].

use friends_core::corpus::Corpus;
use friends_core::plan::{Planner, ProcessorRegistry, QueryRequest};
use friends_core::processors::{ExactOnline, Processor, ScoringStrategy};
use friends_core::proximity::ProximityModel;
use friends_data::queries::Query;
use friends_data::store::TagStore;
use friends_data::Tagging;
use friends_graph::GraphBuilder;
use friends_service::{
    DirectClient, DirectConfig, Multiplexer, Outcome, SearchClient, ServedClient, ServiceConfig,
    Ticket,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Strategy: a small random corpus plus a stream of queries with repeated
/// seekers (repetition exercises affinity, coalescing and memoization).
fn arb_corpus_and_stream() -> impl Strategy<Value = (Arc<Corpus>, Vec<Query>)> {
    (
        3usize..24, // users
        1u32..16,   // items
        1u32..5,    // tags
        proptest::collection::vec((0u32..24, 0u32..16, 0u32..5, 0.01f32..2.0), 0..80),
        proptest::collection::vec((0u32..24, 0u32..24, 0.05f32..1.0), 0..48),
        proptest::collection::vec((0u32..6, 0u32..5, 1usize..6), 1..20), // (seeker-pool idx, tag, k)
    )
        .prop_map(|(n, items, tags, raw_taggings, raw_edges, raw_queries)| {
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
            let corpus = Arc::new(Corpus::new(graph, store));
            let queries: Vec<Query> = raw_queries
                .into_iter()
                .map(|(s, t, k)| Query {
                    seeker: s % n as u32,
                    tags: vec![t % tags],
                    k,
                })
                .collect();
            (corpus, queries)
        })
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

/// Every strategy the clients accept as a hint (`GlobalTa` is
/// `GlobalBoundTA`-native; on the planner's default `ExactOnline` entry it
/// behaves like `Auto`, which the processor contract documents).
const STRATEGIES: [ScoringStrategy; 4] = [
    ScoringStrategy::Auto,
    ScoringStrategy::PostingScan,
    ScoringStrategy::SupportProbe,
    ScoringStrategy::BlockMax,
];

/// The reference ranking stream: for each query, resolve the *exact* plan
/// the clients will run (planner decision included), then execute it on a
/// directly-constructed processor.
fn reference_stream(
    corpus: &Corpus,
    queries: &[Query],
    model: ProximityModel,
    hint: ScoringStrategy,
) -> Vec<Vec<(u32, f32)>> {
    let planner = Planner;
    let registry = ProcessorRegistry::standard();
    // One direct processor per concrete strategy, so per-query plans can
    // differ (Auto resolves per query) while scratch reuse mirrors a real
    // worker.
    let mut by_strategy: std::collections::HashMap<ScoringStrategy, ExactOnline<'_>> =
        std::collections::HashMap::new();
    queries
        .iter()
        .map(|q| {
            let plan = planner.plan(
                corpus,
                &registry,
                q,
                model,
                hint,
                None,
                friends_core::proximity::SigmaBounds::EXACT,
            );
            assert_eq!(plan.processor_name, friends_core::plan::EXACT_ONLINE);
            let p = by_strategy
                .entry(plan.strategy)
                .or_insert_with(|| ExactOnline::with_strategy(corpus, model, plan.strategy));
            p.query(q).items
        })
        .collect()
}

fn assert_streams_identical(
    want: &[Vec<(u32, f32)>],
    got: &[friends_core::corpus::SearchResult],
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.len(), got.len(), "{}: stream length", label);
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        prop_assert_eq!(w.len(), g.items.len(), "{}: query {} length", label, i);
        for (a, b) in w.iter().zip(&g.items) {
            prop_assert_eq!(a.0, b.0, "{}: query {} item ids diverge", label, i);
            prop_assert_eq!(
                a.1.to_bits(),
                b.1.to_bits(),
                "{}: query {} score bits diverge ({} vs {})",
                label,
                i,
                a.1,
                b.1
            );
        }
    }
    Ok(())
}

fn client_stream(
    client: &dyn SearchClient,
    queries: &[Query],
    model: ProximityModel,
    hint: ScoringStrategy,
) -> Vec<friends_core::corpus::SearchResult> {
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| {
            client.submit(
                QueryRequest::from_query(q.clone())
                    .with_model(model)
                    .with_strategy(hint)
                    .without_deadline(),
            )
        })
        .collect();
    tickets
        .into_iter()
        .map(|t| t.wait().outcome.expect_done("client stream"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `DirectClient` is byte-identical to plan-resolved direct execution
    /// for every model × strategy hint.
    #[test]
    fn direct_client_is_byte_identical((corpus, queries) in arb_corpus_and_stream()) {
        let client = DirectClient::start(
            Arc::clone(&corpus),
            DirectConfig { threads: 2, ..DirectConfig::default() },
        );
        for model in all_models() {
            for hint in STRATEGIES {
                let want = reference_stream(&corpus, &queries, model, hint);
                let got = client_stream(&client, &queries, model, hint);
                assert_streams_identical(
                    &want,
                    &got,
                    &format!("direct {} {:?}", model.name(), hint),
                )?;
            }
        }
    }

    /// `ServedClient` (coalescing + memoization on) is byte-identical to
    /// plan-resolved direct execution at 1 and 3 shards.
    #[test]
    fn served_client_is_byte_identical((corpus, queries) in arb_corpus_and_stream()) {
        for shards in [1usize, 3] {
            let client = ServedClient::start(
                Arc::clone(&corpus),
                ServiceConfig {
                    shards,
                    result_cache_capacity: 64,
                    ..ServiceConfig::default()
                },
            );
            for model in all_models() {
                for hint in STRATEGIES {
                    let want = reference_stream(&corpus, &queries, model, hint);
                    let got = client_stream(&client, &queries, model, hint);
                    assert_streams_identical(
                        &want,
                        &got,
                        &format!("served {} {:?} shards={shards}", model.name(), hint),
                    )?;
                }
            }
            client.shutdown();
        }
    }
}

/// The multiplexer satellite: ≥ 64 in-flight requests with mixed deadlines
/// driven through one completion loop. Unbounded requests must all
/// complete with exact answers; zero-budget requests must surface as
/// `DeadlineMissed` (shed by the broker or synthesized by the
/// multiplexer) — and every tag must come back exactly once.
#[test]
fn multiplexer_drives_64_in_flight_with_mixed_deadlines() {
    use friends_data::datasets::{DatasetSpec, Scale};

    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(21);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    let model = ProximityModel::WeightedDecay { alpha: 0.5 };
    let client = ServedClient::start(
        Arc::clone(&corpus),
        ServiceConfig {
            shards: 2,
            max_batch: 4, // small dispatch cycles: the queue drains slowly
            ..ServiceConfig::default()
        },
    );
    let mut reference = ExactOnline::new(&corpus, model);

    let total = 96u64;
    let mut mux = Multiplexer::new();
    let mut queries = Vec::new();
    for i in 0..total {
        let q = Query {
            seeker: (i % 11) as u32,
            tags: vec![(i % 5) as u32, 5 + (i % 3) as u32],
            k: 1 + (i % 8) as usize,
        };
        // A third of the stream carries an already-hopeless deadline; the
        // rest is unbounded.
        let req = QueryRequest::from_query(q.clone())
            .with_model(model)
            .with_tag(i);
        let req = if i % 3 == 0 {
            req.with_deadline(Duration::ZERO)
        } else {
            req.without_deadline()
        };
        queries.push(q);
        mux.push(client.submit(req));
    }
    assert_eq!(mux.len(), total as usize);

    let mut seen = vec![false; total as usize];
    let mut missed = 0u64;
    for (tag, reply) in mux.by_ref() {
        assert_eq!(tag, reply.tag);
        assert!(
            !std::mem::replace(&mut seen[tag as usize], true),
            "tag {tag} twice"
        );
        match reply.outcome {
            Outcome::Done(result) => {
                assert!(tag % 3 != 0, "zero-budget request {tag} should have missed");
                let want = reference.query(&queries[tag as usize]).items;
                assert_eq!(want, result.items, "request {tag} diverged");
            }
            Outcome::DeadlineMissed => {
                assert_eq!(
                    tag % 3,
                    0,
                    "unbounded request {tag} missed its (absent) deadline"
                );
                missed += 1;
            }
            Outcome::Failed => panic!("request {tag} failed"),
        }
    }
    assert!(mux.is_empty());
    assert!(seen.iter().all(|&s| s), "not every tag completed");
    assert_eq!(
        missed,
        total.div_ceil(3),
        "every zero-budget request must miss"
    );
    client.shutdown();
}

/// The multiplexer synthesizes `DeadlineMissed` at the deadline even when
/// the worker never answers in time — the client-side half of the deadline
/// contract, without blocking the completion loop.
#[test]
fn multiplexer_surfaces_deadlines_of_stuck_requests() {
    use friends_data::datasets::{DatasetSpec, Scale};
    use friends_data::queries::{QueryParams, QueryWorkload};
    use std::time::Instant;

    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(5);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    let client = ServedClient::start(
        Arc::clone(&corpus),
        ServiceConfig {
            shards: 1,
            max_batch: 1,
            ..ServiceConfig::default()
        },
    );
    // Park the single shard behind plenty of work: far more than 5 ms of
    // it even in a release build, where one of these queries costs ~20 µs.
    let w = QueryWorkload::generate(
        &corpus.graph,
        &corpus.store,
        &QueryParams {
            count: 64,
            ..QueryParams::default()
        },
        7,
    );
    let parked: Vec<Ticket> = w
        .queries
        .iter()
        .cycle()
        .take(4096)
        .map(|q| {
            client.submit(
                QueryRequest::from_query(q.clone())
                    .with_model(ProximityModel::WeightedDecay { alpha: 0.5 })
                    .without_deadline(),
            )
        })
        .collect();
    let mut mux = Multiplexer::new();
    mux.push(
        client.submit(
            QueryRequest::new(3, vec![0], 5)
                .with_model(ProximityModel::WeightedDecay { alpha: 0.5 })
                .with_deadline(Duration::from_millis(5))
                .with_tag(42),
        ),
    );
    let start = Instant::now();
    let (tag, reply) = mux.next().expect("one pending");
    assert_eq!(tag, 42);
    assert!(
        matches!(reply.outcome, Outcome::DeadlineMissed),
        "expected a miss, got {:?}",
        reply.outcome
    );
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "multiplexer blocked {:?} past a 5ms deadline",
        start.elapsed()
    );
    for t in parked {
        assert!(t.wait().outcome.result().is_some());
    }
    client.shutdown();
}
