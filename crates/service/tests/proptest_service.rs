//! Routing-exactness property suite: for random corpora and request
//! streams, the service returns **byte-identical** results (same item ids,
//! bit-equal scores) to direct single-processor execution, for every
//! proximity model × processor — including under forced shard counts of 1 (fully serialized) and far more shards than
//! distinct seekers (maximally spread). Affinity routing, batching and
//! coalescing may change *where and how often* a query executes, never its
//! answer.

use friends_core::corpus::{Corpus, SearchResult};
use friends_core::plan::{Planner, ProcessorRegistry, QueryRequest, GLOBAL_BOUND_TA};
use friends_core::processors::{
    ExactOnline, ExpansionConfig, FriendExpansion, GlobalBoundTA, Processor,
};
use friends_core::proximity::{ProximityModel, SigmaBounds};
use friends_data::queries::Query;
use friends_data::store::TagStore;
use friends_data::Tagging;
use friends_graph::GraphBuilder;
use friends_service::{
    FaultKind, FaultPlan, Outcome, SearchClient, ServedClient, ServiceConfig, Ticket,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Strategy: a small random corpus plus a stream of queries with repeated
/// seekers (repetition is what exercises affinity and coalescing).
fn arb_corpus_and_stream() -> impl Strategy<Value = (Arc<Corpus>, Vec<Query>)> {
    (
        3usize..24, // users
        1u32..16,   // items
        1u32..5,    // tags
        proptest::collection::vec((0u32..24, 0u32..16, 0u32..5, 0.01f32..2.0), 0..80),
        proptest::collection::vec((0u32..24, 0u32..24, 0.05f32..1.0), 0..48),
        proptest::collection::vec((0u32..6, 0u32..5, 1usize..6), 1..24), // (seeker-pool idx, tag, k)
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
            // A small seeker pool ⇒ repeated seekers (and often repeated
            // whole queries) across the stream.
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

/// Shard counts the satellite task pins: serialized, a few, and far more
/// shards than any stream has distinct seekers.
const SHARD_COUNTS: [usize; 3] = [1, 3, 64];

/// Strategy: arbitrary σ bounds, from brutally truncated (radius 0) to
/// effectively exact (a radius beyond any 24-user test graph's diameter
/// with no mass floor).
fn arb_bounds() -> impl Strategy<Value = SigmaBounds> {
    (
        0u32..6,
        prop_oneof![Just(0.0f64), Just(1e-4), Just(1e-3), Just(1e-2)],
    )
        .prop_map(|(max_radius, min_mass)| SigmaBounds {
            max_radius,
            min_mass,
        })
}

/// Floods `queries` (each turned into a deadline-free request by
/// `request`) through a transient `shards`-shard service over `registry`,
/// and returns the results in input order.
fn serve(
    corpus: &Arc<Corpus>,
    queries: &[Query],
    shards: usize,
    registry: ProcessorRegistry,
    request: impl Fn(&Query) -> QueryRequest,
) -> Vec<SearchResult> {
    let client = ServedClient::with_registry(
        Arc::clone(corpus),
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        },
        Arc::new(registry),
        Planner::default(),
    );
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| client.submit(request(q).without_deadline()))
        .collect();
    tickets
        .into_iter()
        .map(|t| t.wait().outcome.expect_done("serve"))
        .collect()
}

fn assert_streams_identical(
    want: &[Vec<(u32, f32)>],
    got: &[SearchResult],
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `ExactOnline` through the service is byte-identical to direct
    /// sequential execution at every shard count, for every model.
    #[test]
    fn service_exact_online_is_byte_identical((corpus, queries) in arb_corpus_and_stream()) {
        for model in all_models() {
            let mut direct = ExactOnline::new(&corpus, model);
            let want: Vec<Vec<(u32, f32)>> =
                queries.iter().map(|q| direct.query(q).items).collect();
            for shards in SHARD_COUNTS {
                let served = serve(&corpus, &queries, shards, ProcessorRegistry::standard(), |q| {
                    QueryRequest::from_query(q.clone()).with_model(model)
                });
                assert_streams_identical(
                    &want,
                    &served,
                    &format!("exact-online {} shards={shards}", model.name()),
                )?;
            }
        }
    }

    /// `GlobalBoundTA` through the service is byte-identical to direct
    /// execution at every shard count (σ ≤ 1 models only).
    #[test]
    fn service_global_bound_ta_is_byte_identical((corpus, queries) in arb_corpus_and_stream()) {
        for model in all_models() {
            if matches!(model, ProximityModel::Ppr { .. }) {
                continue; // GBTA requires σ ≤ 1; PPR is a distribution
            }
            let mut direct = GlobalBoundTA::new(&corpus, model);
            let want: Vec<Vec<(u32, f32)>> =
                queries.iter().map(|q| direct.query(q).items).collect();
            for shards in SHARD_COUNTS {
                let served = serve(&corpus, &queries, shards, ProcessorRegistry::standard(), |q| {
                    QueryRequest::from_query(q.clone())
                        .with_model(model)
                        .with_processor(GLOBAL_BOUND_TA)
                });
                assert_streams_identical(
                    &want,
                    &served,
                    &format!("global-bound-ta {} shards={shards}", model.name()),
                )?;
            }
        }
    }

    /// A registered entry (FriendExpansion — a processor with no strategy
    /// hints and no cache use) serves byte-identically too: the broker does
    /// not depend on processor internals.
    #[test]
    fn service_friend_expansion_is_byte_identical((corpus, queries) in arb_corpus_and_stream()) {
        let mut direct = FriendExpansion::new(&corpus, ExpansionConfig::default());
        let want: Vec<Vec<(u32, f32)>> = queries.iter().map(|q| direct.query(q).items).collect();
        for shards in SHARD_COUNTS {
            let mut registry = ProcessorRegistry::standard();
            registry.register("friend-expansion", |c, _model, _cache| {
                Box::new(FriendExpansion::new(c, ExpansionConfig::default()))
            });
            let served = serve(&corpus, &queries, shards, registry, |q| {
                QueryRequest::from_query(q.clone()).with_processor("friend-expansion")
            });
            assert_streams_identical(&want, &served, &format!("friend-expansion shards={shards}"))?;
        }
    }

    /// Degraded-serving soundness: for any corpus and any σ bounds, every
    /// score the service returns is a lower bound on the exact score, the
    /// gap never exceeds the reply's residual certificate, and a zero
    /// residual proves the ranking byte-identical to exact execution.
    #[test]
    fn degraded_scores_stay_within_the_residual_certificate(
        (corpus, queries) in arb_corpus_and_stream(),
        bounds in arb_bounds(),
    ) {
        for model in [
            ProximityModel::DistanceDecay { alpha: 0.5 },
            ProximityModel::WeightedDecay { alpha: 0.5 },
        ] {
            let mut exact = ExactOnline::new(&corpus, model);
            let client = ServedClient::start(
                Arc::clone(&corpus),
                ServiceConfig {
                    shards: 2,
                    ..ServiceConfig::default()
                },
            );
            for q in &queries {
                // Full ranking (the strategy caps items below 16), so the
                // certificate is checked for every scored item, not just a
                // shared top-k prefix.
                let mut q = q.clone();
                q.k = 16;
                let want = exact.query(&q);
                let reply = client.run(
                    QueryRequest::from_query(q).with_model(model).with_bounds(bounds),
                );
                let got = match reply.outcome.result() {
                    Some(r) => r,
                    None => return Err(TestCaseError::fail("bounded request did not complete")),
                };
                prop_assert!(
                    got.residual.is_finite() && got.residual >= 0.0,
                    "residual must be a finite nonnegative certificate: {}",
                    got.residual
                );
                let by_item: HashMap<u32, f32> = got.items.iter().copied().collect();
                for &(item, ws) in &want.items {
                    // Items the bounded run omitted scored 0 under it.
                    let ds = by_item.get(&item).copied().unwrap_or(0.0);
                    prop_assert!(
                        f64::from(ds) <= f64::from(ws) + 1e-5,
                        "bounded σ must never over-report: item {} exact {} bounded {}",
                        item, ws, ds
                    );
                    prop_assert!(
                        f64::from(ws) - f64::from(ds) <= got.residual + 1e-5,
                        "certificate violated: item {} exact {} bounded {} residual {}",
                        item, ws, ds, got.residual
                    );
                }
                if got.residual == 0.0 {
                    assert_streams_identical(
                        std::slice::from_ref(&want.items),
                        std::slice::from_ref(got),
                        &format!("zero-residual {} bounds={bounds:?}", model.name()),
                    )?;
                }
            }
            client.shutdown();
        }
    }
}

/// A panic injected mid-stream — with the whole stream already in flight —
/// fails exactly the one executing request: everything before and after it
/// completes, the engine is rebuilt once, and the shard keeps serving.
#[test]
fn midstream_panic_loses_only_the_in_flight_request() {
    let n = 16u32;
    let mut b = GraphBuilder::new(n as usize);
    for u in 0..n {
        b.add_edge(u, (u + 1) % n, 1.0);
        b.add_edge(u, (u + 5) % n, 0.5);
    }
    let graph = b.build();
    let taggings: Vec<Tagging> = (0..n)
        .flat_map(|u| {
            (0..3u32).map(move |j| Tagging {
                user: u,
                item: (u + j) % 8,
                tag: j % 2,
                weight: 1.0 + j as f32,
            })
        })
        .collect();
    let store = TagStore::build(n, 8, 2, taggings);
    let corpus = Arc::new(Corpus::new(graph, store));
    let model = ProximityModel::WeightedDecay { alpha: 0.5 };

    let svc = ServedClient::start(
        Arc::clone(&corpus),
        ServiceConfig {
            shards: 1,    // one FIFO queue: the fault ordinal is the stream position
            max_batch: 1, // every request is its own dispatch cycle and execution attempt
            fault: Some(FaultPlan {
                nth: 5,
                kind: FaultKind::Panic,
            }),
            ..ServiceConfig::default()
        },
    );
    let request = |q: &Query| {
        QueryRequest::from_query(q.clone())
            .with_model(model)
            .without_deadline()
    };

    // Flood the entire stream before collecting anything, so the fault
    // fires with dozens of requests in flight.
    let queries: Vec<Query> = (0..32u32)
        .map(|i| Query {
            seeker: i % n,
            tags: vec![i % 2],
            k: 5,
        })
        .collect();
    let tickets: Vec<_> = queries.iter().map(|q| svc.submit(request(q))).collect();
    let replies: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();

    let failed: Vec<usize> = replies
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.outcome, Outcome::Failed))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(failed, vec![4], "exactly the 5th execution fails");
    for (i, r) in replies.iter().enumerate() {
        if i != 4 {
            assert!(r.outcome.result().is_some(), "request {i} must complete");
        }
    }

    // The shard rebuilt its engine once and keeps serving fresh requests.
    let after = svc.submit(request(&queries[0])).wait();
    assert!(
        after.outcome.result().is_some(),
        "service must keep serving"
    );
    let stats = svc.shutdown().totals();
    assert_eq!(stats.worker_restarts, 1, "one contained rebuild");
    assert_eq!(stats.failed, 1, "only the in-flight request is lost");
    assert_eq!(stats.executed, 32, "31 stream survivors + 1 follow-up");
}
