//! Serving-style throughput: answer a request stream with repeats (Zipf
//! seekers, each rotating among a few personal queries) sequentially with
//! one [`ExactOnline`] (the oracle), and through a [`ServedClient`] over
//! the seeker-affinity broker (one request per dispatch cycle, coalescing,
//! and coalescing with result memoization) — and verify the answers never
//! change.
//!
//! ```sh
//! cargo run --release --example batch_throughput
//! ```

use friends::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(11);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    let queries = RequestStream::generate(
        &corpus.graph,
        &corpus.store,
        &RequestParams {
            count: 400,
            ..RequestParams::default()
        },
        3,
    )
    .queries();
    println!(
        "{} queries over {} users / {} taggings ({} hardware threads)\n",
        queries.len(),
        corpus.num_users(),
        corpus.store.num_taggings(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let model = ProximityModel::WeightedDecay { alpha: 0.5 };

    println!("{:<22} {:>12} {:>12}", "path", "elapsed ms", "queries/s");
    // The oracle: one processor, one thread, no cache.
    let start = Instant::now();
    let mut exact = ExactOnline::new(&corpus, model);
    let want: Vec<SearchResult> = queries.iter().map(|q| exact.query(q)).collect();
    let elapsed = start.elapsed();
    println!(
        "{:<22} {:>12.1} {:>12.0}",
        "ExactOnline (oracle)",
        elapsed.as_secs_f64() * 1e3,
        queries.len() as f64 / elapsed.as_secs_f64()
    );

    // The same stream through the seeker-affinity broker behind the
    // unified API. Repeated seekers stay on one shard (hot private caches);
    // past one request per dispatch cycle, duplicate in-flight queries
    // execute once, and — with memoization on — repeats across dispatch
    // cycles skip execution entirely.
    let batch = ServiceConfig::default().max_batch;
    for (label, max_batch, result_cache) in [
        ("one per cycle", 1, 0usize),
        ("ServedClient", batch, 0),
        ("  + result memo", batch, 4096),
    ] {
        for shards in [1usize, 2, 4] {
            let client = ServedClient::start(
                Arc::clone(&corpus),
                ServiceConfig {
                    shards,
                    max_batch,
                    result_cache_capacity: result_cache,
                    ..ServiceConfig::default()
                },
            );
            let start = Instant::now();
            let served = client.search(&queries, model);
            let elapsed = start.elapsed();
            for (a, b) in want.iter().zip(&served) {
                assert_eq!(a.items, b.items, "service must not change any answer");
            }
            let stats = client.shutdown().totals();
            println!(
                "{:<22} {:>12.1} {:>12.0}   ({} executed, {} coalesced, {} memo-served, {:.0}% cache hits)",
                format!("{label} x{shards}"),
                elapsed.as_secs_f64() * 1e3,
                queries.len() as f64 / elapsed.as_secs_f64(),
                stats.executed,
                stats.coalesced,
                stats.result_served,
                100.0 * stats.cache.hit_rate(),
            );
        }
    }

    println!(
        "\n(answers verified identical across every path; speedup is bounded\n\
         by the hardware thread count printed above)"
    );
}
