//! Fig 9 kernel: the zero-allocation query hot path under Zipf-skewed
//! seeker traffic.
//!
//! Three σ paths over the same batch, per sparse-support-friendly model,
//! each through a standing 4-shard [`ServedClient`] that takes one request
//! per dispatch cycle:
//!
//! * `dense`      — the baseline registry entry: per-query `O(n)`
//!   materialize + full posting scan;
//! * `workspace`  — epoch-stamped `SigmaWorkspace` (sparse support where the
//!   model allows), zero per-query `O(n)` allocations: a zero σ byte budget
//!   admits nothing;
//! * `cached`     — workspace plus each shard's private seeker-proximity
//!   cache.
//!
//! `report --exp fig9` prints the same comparison with throughput numbers
//! and the correctness cross-check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use friends_bench::{
    registry_with_dense_baseline, search_with, zipf_seeker_workload, DENSE_MATERIALIZE,
};
use friends_core::corpus::Corpus;
use friends_core::proximity::ProximityModel;
use friends_data::datasets::{DatasetSpec, Scale};
use friends_service::{SearchClient, ServedClient, ServiceConfig};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(42);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    let w = zipf_seeker_workload(&corpus, 128, 10, 1.1, 7);
    let shards = 4;
    let mut group = c.benchmark_group("fig9_hot_path");
    group.sample_size(10);

    for model in [
        ProximityModel::FriendsOnly,
        ProximityModel::WeightedDecay { alpha: 0.5 },
        ProximityModel::Ppr {
            alpha: 0.2,
            epsilon: 1e-4,
        },
    ] {
        let pool = |cache_bytes| {
            ServedClient::with_registry(
                Arc::clone(&corpus),
                ServiceConfig {
                    shards,
                    cache_bytes,
                    max_batch: 1,
                    ..ServiceConfig::default()
                },
                registry_with_dense_baseline(),
            )
        };
        group.bench_with_input(BenchmarkId::new("dense", model.name()), &w, |b, w| {
            let client = pool(0);
            b.iter(|| {
                std::hint::black_box(search_with(&client, &w.queries, model, DENSE_MATERIALIZE))
            })
        });
        group.bench_with_input(BenchmarkId::new("workspace", model.name()), &w, |b, w| {
            let client = pool(0);
            b.iter(|| std::hint::black_box(client.search(&w.queries, model)))
        });
        group.bench_with_input(BenchmarkId::new("cached", model.name()), &w, |b, w| {
            let client = pool(ServiceConfig::default().cache_bytes);
            b.iter(|| std::hint::black_box(client.search(&w.queries, model)))
        });
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
