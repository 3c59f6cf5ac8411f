//! Quickstart: build a synthetic social-tagging dataset, ask a
//! personalized question through the unified [`SearchClient`] API, then
//! compare every underlying processor on the same query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use friends::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A ~500-user Delicious-like world: scale-free friendships, Zipf tags,
    // homophilous annotation behaviour.
    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(42);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    println!(
        "dataset `{}`: {} users / {} edges / {} taggings",
        ds.name,
        corpus.num_users(),
        corpus.graph.num_edges(),
        corpus.store.num_taggings()
    );

    // A reproducible query workload; take the first query as our example.
    let workload = QueryWorkload::generate(
        &corpus.graph,
        &corpus.store,
        &QueryParams {
            count: 1,
            min_tags: 2,
            max_tags: 2,
            k: 10,
        },
        7,
    );
    let q = &workload.queries[0];
    println!("\nquery: seeker={} tags={:?} k={}\n", q.seeker, q.tags, q.k);

    let alpha = 0.5;
    let model = ProximityModel::WeightedDecay { alpha };

    // The application-facing path: one client, one request type. The
    // planner chooses the processor and scoring strategy behind the trait.
    let client = ServedClient::start(Arc::clone(&corpus), ServiceConfig::default());
    let t = Instant::now();
    let reply = client.run(QueryRequest::from_query(q.clone()).with_model(model));
    let truth = reply.outcome.result().expect("served in time").clone();
    println!(
        "SearchClient answered in {} us (worker {}, plan: {:?})\n",
        t.elapsed().as_micros(),
        reply.shard,
        client.stats().totals().plans.strategies,
    );

    // Under the hood: the processors the planner chooses between, driven
    // directly for comparison.
    let mut exact = ExactOnline::new(&corpus, model);
    let mut global = GlobalProcessor::new(&corpus, IndexConfig::default());
    let mut expansion = FriendExpansion::new(
        &corpus,
        ExpansionConfig {
            alpha,
            ..ExpansionConfig::default()
        },
    );
    let mut cluster = ClusterIndex::build(
        &corpus,
        ClusterConfig {
            alpha,
            ..ClusterConfig::default()
        },
    );
    let mut hybrid = Hybrid::build(
        &corpus,
        HybridConfig {
            alpha,
            ..HybridConfig::default()
        },
    );

    println!(
        "{:<18} {:>9} {:>8} {:>9} {:>10}",
        "processor", "time_us", "p@10", "visited", "postings"
    );
    let run = |name: &str, result: SearchResult, elapsed_us: u128| {
        let p = precision_at_k(&result.item_ids(), &truth.item_ids(), q.k);
        println!(
            "{:<18} {:>9} {:>8.2} {:>9} {:>10}",
            name, elapsed_us, p, result.stats.users_visited, result.stats.postings_scanned
        );
    };

    let t = Instant::now();
    let r = exact.query(q);
    run("exact-online", r, t.elapsed().as_micros());

    let t = Instant::now();
    let r = global.query(q);
    run("global (no net)", r, t.elapsed().as_micros());

    let t = Instant::now();
    let r = expansion.query(q);
    run("friend-expansion", r, t.elapsed().as_micros());

    let t = Instant::now();
    let r = cluster.query(q);
    run("cluster-index", r, t.elapsed().as_micros());

    let t = Instant::now();
    let r = hybrid.query(q);
    run("hybrid", r, t.elapsed().as_micros());
    println!("(hybrid routed to: {})", hybrid.last_route());

    println!("\ntop-5 personalized results:");
    for (rank, (item, score)) in truth.items.iter().take(5).enumerate() {
        println!("  #{:<2} item {:<6} score {score:.4}", rank + 1, item);
    }
    client.shutdown();
}
