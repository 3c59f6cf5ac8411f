//! Fig 11 kernel: the serving tier under a Zipf repeat-query request
//! stream.
//!
//! Three ways to answer the same stream, per model, each a planner-backed
//! `ServedClient` with seeker-affinity shard routing and private
//! admission-controlled σ caches:
//!
//! * `baseline` — one request per dispatch cycle, so nothing coalesces;
//! * `service` — batched dispatch with duplicate-request coalescing;
//! * `service_memo` — the same with the cross-request result cache, so
//!   repeats in *later* iterations of the measurement loop skip execution.
//!
//! `report --exp fig11` prints the same comparison with throughput numbers,
//! service stats and the correctness cross-check; the ignored
//! `fig11_service_gate` test pins the serving-scale speedup through the
//! client API.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use friends_bench::serving_corpus;
use friends_core::proximity::ProximityModel;
use friends_data::requests::{RequestParams, RequestStream};
use friends_service::{SearchClient, ServedClient, ServiceConfig};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let corpus = Arc::new(serving_corpus(1_000, 42));
    corpus.sigma_index();
    let stream = RequestStream::generate(
        &corpus.graph,
        &corpus.store,
        &RequestParams {
            count: 128,
            seeker_theta: 1.1,
            ..RequestParams::default()
        },
        7,
    );
    let queries = stream.queries();
    let shards = 4;
    let mut group = c.benchmark_group("fig11_service");
    group.sample_size(10);

    for model in [
        ProximityModel::DistanceDecay { alpha: 0.3 },
        ProximityModel::Ppr {
            alpha: 0.2,
            epsilon: 1e-4,
        },
    ] {
        let batch = ServiceConfig::default().max_batch;
        for (label, max_batch, result_cache) in [
            ("baseline", 1, 0usize),
            ("service", batch, 0),
            ("service_memo", batch, 4096),
        ] {
            group.bench_with_input(BenchmarkId::new(label, model.name()), &queries, |b, q| {
                let client = ServedClient::start(
                    Arc::clone(&corpus),
                    ServiceConfig {
                        shards,
                        max_batch,
                        result_cache_capacity: result_cache,
                        ..ServiceConfig::default()
                    },
                );
                b.iter(|| std::hint::black_box(client.search(q, model)))
            });
        }
    }
    group.finish();
}

// Default: plain wall-clock harness. With `--features flamegraph`, the
// same targets run under the pprof profiler hook (see
// `friends_bench::profiled_criterion`).
#[cfg(not(feature = "flamegraph"))]
criterion_group!(benches, bench);
#[cfg(feature = "flamegraph")]
criterion_group! {
    name = benches;
    config = friends_bench::profiled_criterion();
    targets = bench
}
criterion_main!(benches);
