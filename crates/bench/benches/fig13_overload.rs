//! Fig 13 kernel: the per-query cost of each degradation level — the
//! capacity lever the overload controller pulls.
//!
//! `report --exp fig13` runs the real open-loop experiment (offered load at
//! 1.5× measured capacity, exact vs degraded serving); criterion cannot
//! time an open-loop schedule, whose elapsed time is fixed by the arrival
//! process, so this kernel measures the thing that makes degradation work:
//! serving the same request stream under [`Planner::degraded_bounds`]
//! levels 0 (exact), 1 and 2. The ignored `fig13_overload_gate` test pins
//! the end-to-end claim — degraded serving holds p99 inside the deadline
//! and completes at least twice what exact serving manages under identical
//! overload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use friends_bench::overload_corpus;
use friends_core::plan::{Planner, QueryRequest};
use friends_core::proximity::ProximityModel;
use friends_data::requests::{RequestParams, RequestStream};
use friends_service::{SearchClient, ServedClient, ServiceConfig};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let corpus = Arc::new(overload_corpus(2_000, 42));
    let model = ProximityModel::WeightedDecay { alpha: 0.5 };
    let stream = RequestStream::generate(
        &corpus.graph,
        &corpus.store,
        &RequestParams {
            count: 64,
            seeker_theta: 1.1,
            ..RequestParams::default()
        },
        7,
    );
    let queries = stream.queries();

    let mut group = c.benchmark_group("fig13_overload");
    group.sample_size(10);

    for level in [0u8, 1, 2] {
        let bounds = Planner::degraded_bounds(level);
        group.bench_with_input(BenchmarkId::new("level", level), &queries, |b, q| {
            let client = ServedClient::start(
                Arc::clone(&corpus),
                ServiceConfig {
                    shards: 2,
                    // One request per dispatch cycle: the stream's repeats
                    // each execute, as they would arriving apart.
                    max_batch: 1,
                    ..ServiceConfig::default()
                },
            );
            b.iter(|| {
                let requests: Vec<_> = q
                    .iter()
                    .map(|query| {
                        QueryRequest::from_query(query.clone())
                            .with_model(model)
                            .with_bounds(bounds)
                    })
                    .collect();
                std::hint::black_box(client.run_batch(requests))
            })
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
