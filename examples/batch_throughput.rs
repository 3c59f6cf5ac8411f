//! Serving-style throughput: answer a whole query log sequentially with
//! one [`ExactOnline`] (the oracle), through an in-process [`DirectClient`]
//! pool, and through a [`ServedClient`] over the seeker-affinity broker
//! (with and without result memoization) — and verify the answers never
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
    let workload = QueryWorkload::generate(
        &corpus.graph,
        &corpus.store,
        &QueryParams {
            count: 400,
            k: 10,
            ..QueryParams::default()
        },
        3,
    );
    println!(
        "{} queries over {} users / {} taggings ({} hardware threads)\n",
        workload.len(),
        corpus.num_users(),
        corpus.store.num_taggings(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let model = ProximityModel::WeightedDecay { alpha: 0.5 };

    println!("{:<22} {:>12} {:>12}", "path", "elapsed ms", "queries/s");
    // The oracle: one processor, one thread, no cache.
    let start = Instant::now();
    let mut exact = ExactOnline::new(&corpus, model);
    let want: Vec<SearchResult> = workload.queries.iter().map(|q| exact.query(q)).collect();
    let elapsed = start.elapsed();
    println!(
        "{:<22} {:>12.1} {:>12.0}",
        "ExactOnline (oracle)",
        elapsed.as_secs_f64() * 1e3,
        workload.len() as f64 / elapsed.as_secs_f64()
    );

    // The in-process client: same executors behind the unified API, plus a
    // shared proximity cache and non-blocking submission.
    for threads in [1usize, 2, 4] {
        let client = DirectClient::start(
            Arc::clone(&corpus),
            DirectConfig {
                threads,
                ..DirectConfig::default()
            },
        );
        let start = Instant::now();
        let results = client.search(&workload.queries, model);
        let elapsed = start.elapsed();
        for (a, b) in want.iter().zip(&results) {
            assert_eq!(a.items, b.items, "client must not change any answer");
        }
        let stats = client.shutdown();
        println!(
            "{:<22} {:>12.1} {:>12.0}   ({:.0}% cache hits)",
            format!("DirectClient x{threads}"),
            elapsed.as_secs_f64() * 1e3,
            workload.len() as f64 / elapsed.as_secs_f64(),
            100.0 * stats.cache.hit_rate(),
        );
    }

    // The serving tier: the same workload through the seeker-affinity
    // broker. Repeated seekers stay on one shard (hot private caches),
    // duplicate in-flight queries execute once, and — with memoization on —
    // repeats across dispatch cycles skip execution entirely.
    for (label, result_cache) in [("ServedClient", 0usize), ("  + result memo", 4096)] {
        for shards in [2usize, 4] {
            let client = ServedClient::start(
                Arc::clone(&corpus),
                ServiceConfig {
                    shards,
                    result_cache_capacity: result_cache,
                    ..ServiceConfig::default()
                },
            );
            let start = Instant::now();
            let served = client.search(&workload.queries, model);
            let elapsed = start.elapsed();
            for (a, b) in want.iter().zip(&served) {
                assert_eq!(a.items, b.items, "service must not change any answer");
            }
            let stats = client.shutdown().totals();
            println!(
                "{:<22} {:>12.1} {:>12.0}   ({} executed, {} coalesced, {} memo-served, {:.0}% cache hits)",
                format!("{label} x{shards}"),
                elapsed.as_secs_f64() * 1e3,
                workload.len() as f64 / elapsed.as_secs_f64(),
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
