//! End-to-end integration of the unified client API through the facade
//! prelude: one `QueryRequest` surface over `ServedClient` in its
//! cache-less and memoizing postures, non-blocking tickets, the multiplexer
//! and result memoization.

use friends::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn fixture() -> (Arc<Corpus>, QueryWorkload) {
    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(33);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    let w = QueryWorkload::generate(
        &corpus.graph,
        &corpus.store,
        &QueryParams {
            count: 25,
            ..QueryParams::default()
        },
        6,
    );
    (corpus, w)
}

const MODEL: ProximityModel = ProximityModel::WeightedDecay { alpha: 0.5 };

#[test]
fn one_request_surface_two_backends_same_answers() {
    let (corpus, w) = fixture();
    let mut reference = ExactOnline::new(&corpus, MODEL);
    let want: Vec<_> = w.queries.iter().map(|q| reference.query(q).items).collect();

    // No σ fits a zero budget, and one request per dispatch cycle.
    let lean = ServedClient::start(
        Arc::clone(&corpus),
        ServiceConfig {
            cache_bytes: 0,
            max_batch: 1,
            ..ServiceConfig::default()
        },
    );
    let served = ServedClient::start(
        Arc::clone(&corpus),
        ServiceConfig {
            shards: 2,
            result_cache_capacity: 128,
            ..ServiceConfig::default()
        },
    );
    for client in [&lean as &dyn SearchClient, &served as &dyn SearchClient] {
        let got = client.search(&w.queries, MODEL);
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a, &b.items);
        }
        // Second pass must be identical too (caches, memoization).
        let again = client.search(&w.queries, MODEL);
        for (a, b) in want.iter().zip(&again) {
            assert_eq!(a, &b.items);
        }
    }
    let stats = served.shutdown().totals();
    assert!(
        stats.result_served > 0,
        "second served pass should hit the result cache: {stats:?}"
    );
    assert!(
        stats.plans.total() > 0,
        "planner decisions must be recorded"
    );
    lean.shutdown();
}

#[test]
fn multiplexed_session_with_mixed_models_and_deadlines() {
    let (corpus, w) = fixture();
    let client = ServedClient::start(
        Arc::clone(&corpus),
        ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        },
    );
    let models = [MODEL, ProximityModel::Global, ProximityModel::FriendsOnly];
    let mut mux = Multiplexer::new();
    for (i, q) in w.queries.iter().enumerate() {
        let req = QueryRequest::from_query(q.clone())
            .with_model(models[i % models.len()])
            .with_tag(i as u64);
        // Every fourth request gets a generous explicit budget; the rest
        // are unbounded. Nothing should miss on a healthy service.
        let req = if i % 4 == 0 {
            req.with_deadline(Duration::from_secs(30))
        } else {
            req.without_deadline()
        };
        mux.push(client.submit(req));
    }
    let done = mux.drain();
    assert_eq!(done.len(), w.len());
    for (tag, reply) in done {
        let model = models[tag as usize % models.len()];
        let mut reference = ExactOnline::new(&corpus, model);
        let want = reference.query(&w.queries[tag as usize]).items;
        assert_eq!(
            want,
            reply.outcome.expect_done("healthy service").items,
            "request {tag} diverged"
        );
    }
    client.shutdown();
}
