//! Fig 12 kernel: cold-seeker σ materialization on a seeker-diverse stream.
//!
//! Every seeker in the workload is distinct, so neither the proximity cache
//! nor result memoization ever hits — each query pays the full miss path.
//! Two miss paths over the same batch, per decay model:
//!
//! * `dense-snap` — the pre-PR floor: workspace materialization, then an
//!   `O(n)` dense snapshot published into the shared cache per cold seeker;
//! * `touched`    — the reach-proportional path: the same traversal, a
//!   `Touched` snapshot built from the stamped touched-list in `O(reach)`.
//!
//! `report --exp fig12` prints the same comparison with snapshot-bytes and
//! touched-fraction columns plus the correctness cross-check; the ignored
//! `fig12_sigma_floor` test pins the ≥ 1.5× ratio at serving scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use friends_bench::{archipelago_corpus, distinct_seeker_workload, DenseSnapshotExact};
use friends_core::cache::{CachePolicy, ProximityCache};
use friends_core::processors::{ExactOnline, Processor};
use friends_core::proximity::ProximityModel;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let corpus = archipelago_corpus(2_000, 64, 42);
    corpus.sigma_index();
    let w = distinct_seeker_workload(&corpus, 256, 10, 7);
    let budget = 16usize << 20;
    let mut group = c.benchmark_group("fig12_sigma_floor");
    group.sample_size(10);

    for model in [
        ProximityModel::DistanceDecay { alpha: 0.3 },
        ProximityModel::WeightedDecay { alpha: 0.5 },
    ] {
        group.bench_with_input(BenchmarkId::new("dense-snap", model.name()), &w, |b, w| {
            let cache = Arc::new(ProximityCache::with_byte_budget(
                budget,
                CachePolicy::default(),
            ));
            let mut p = DenseSnapshotExact::new(&corpus, model, cache);
            b.iter(|| {
                for q in &w.queries {
                    std::hint::black_box(p.query(q));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("touched", model.name()), &w, |b, w| {
            let cache = Arc::new(ProximityCache::with_byte_budget(
                budget,
                CachePolicy::default(),
            ));
            let mut p = ExactOnline::with_cache(&corpus, model, cache);
            b.iter(|| {
                for q in &w.queries {
                    std::hint::black_box(p.query(q));
                }
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
