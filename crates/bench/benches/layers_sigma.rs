//! Layer kernel: σ materialization, the stage a cold seeker pays for.
//!
//! The first of the per-layer kernels (ROADMAP "perf ledger"): what one
//! `materialize_bounded` costs per proximity model on the graph the
//! `cold_sigma` / `live_durable` benchmark workloads serve (the overload
//! corpus: BA 10k, m = 8, Jaccard strengths), at full reach and under the
//! degraded-mode mass floor — next to `ProximityScan` run dry, the
//! heap-ordered kernel `FriendExpansion` iterates and the bound the
//! unordered WeightedDecay kernel is measured against. Each sample
//! materializes 256 distinct seekers into one warm workspace.
//!
//! End-to-end numbers come from the serving benchmark, not from here:
//! see `benchmark/README.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use friends_bench::{distinct_seeker_workload, overload_corpus};
use friends_core::proximity::{edge_decay, ProximityModel, SigmaBounds, SigmaWorkspace};
use friends_graph::traversal::{ProximityScan, ProximityWorkspace};

const ALPHA: f64 = 0.5;

fn bench(c: &mut Criterion) {
    let corpus = overload_corpus(10_000, 42);
    let g = &corpus.graph;
    let seekers: Vec<u32> = distinct_seeker_workload(&corpus, 256, 10, 7)
        .queries
        .iter()
        .map(|q| q.seeker)
        .collect();
    let reaches = [
        ("full", SigmaBounds::EXACT),
        ("floor-0.05", SigmaBounds::with_min_mass(0.05)),
    ];
    let mut group = c.benchmark_group("layers_sigma");
    group.sample_size(10);

    for (reach, bounds) in reaches {
        group.bench_with_input(BenchmarkId::new("scan-dry", reach), &seekers, |b, s| {
            let mut prox = ProximityWorkspace::new();
            b.iter(|| {
                s.iter()
                    .map(|&u| {
                        ProximityScan::with_floor(
                            g,
                            u,
                            edge_decay(ALPHA),
                            bounds.min_mass,
                            &mut prox,
                        )
                        .count()
                    })
                    .sum::<usize>()
            })
        });
    }
    for model in [
        ProximityModel::DistanceDecay { alpha: ALPHA },
        ProximityModel::WeightedDecay { alpha: ALPHA },
        ProximityModel::Ppr {
            alpha: 0.2,
            epsilon: 1e-4,
        },
        ProximityModel::AdamicAdar,
    ] {
        // Only the decay models have a reach for the bounds to cut.
        let decays = matches!(
            model,
            ProximityModel::DistanceDecay { .. } | ProximityModel::WeightedDecay { .. }
        );
        for (reach, bounds) in reaches.into_iter().take(if decays { 2 } else { 1 }) {
            let id = BenchmarkId::new(format!("materialize/{}", model.name()), reach);
            group.bench_with_input(id, &seekers, |b, s| {
                let mut ws = SigmaWorkspace::new();
                b.iter(|| {
                    for &u in s {
                        model.materialize_bounded(g, u, &mut ws, bounds);
                        std::hint::black_box(ws.residual_bound());
                    }
                })
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
