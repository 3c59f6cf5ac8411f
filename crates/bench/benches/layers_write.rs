//! Layer kernels of the write path: what one 64-mutation batch costs at each
//! stage between `apply_mutations` and the pointer swap.
//!
//! The write-side sibling of `layers_sigma`: `CsrGraph::with_edits`,
//! `TagStore::with_appends` and `LiveCorpus::prepare_from` (both of those
//! plus the blast radius and the derived σ-index / global lists) per batch
//! against a warm base epoch, and the replay half of `LiveCorpus::recover`
//! (`replay_onto`: eight logged batches coalesced into one rebuild, per
//! batch), on the two corpus shapes the serving benchmark writes to — 10 k
//! users × 64 heavy tags × 100 taggings (`memo_hot`, `scan_heavy`) and × 625
//! light tags × 20 (`cold_sigma`, `live_durable`) — with batches from the
//! generator and mix that benchmark uses. Each sample runs all eight
//! batches against the same base, so a sample is eight batches' worth.
//!
//! End-to-end numbers come from the serving benchmark, not from here:
//! see `benchmark/README.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use friends_bench::{overload_corpus, serving_corpus};
use friends_core::live::{LiveCorpus, RecoveryReport};
use friends_data::mutations::{MutationBatch, MutationParams, MutationStream};
use std::hint::black_box;
use std::sync::Arc;

const BATCH: usize = 64;
const BATCHES: usize = 8;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("layers_write");
    group.sample_size(10);
    for (shape, corpus) in [
        ("heavy-tags", serving_corpus(10_000, 42)),
        ("light-tags", overload_corpus(10_000, 42)),
    ] {
        let base = Arc::new(corpus);
        // A serving epoch has both structures built; the next one derives
        // them. (A base that never built them would pay two cold builds.)
        base.sigma_index();
        base.global_lists();
        let batches: Vec<MutationBatch> = MutationStream::generate(
            &base.graph,
            &base.store,
            &MutationParams {
                count: BATCHES * BATCH,
                user_theta: 1.1,
                ..MutationParams::default()
            },
            42 ^ 0x3D17,
        )
        .batches(BATCH);
        let splits: Vec<_> = batches.iter().map(MutationBatch::split).collect();

        group.bench_with_input(BenchmarkId::new("with_edits", shape), &splits, |b, s| {
            b.iter(|| {
                for (inserts, removals, _) in s {
                    black_box(base.graph.with_edits(inserts, removals));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("with_appends", shape), &splits, |b, s| {
            b.iter(|| {
                for (_, _, appends) in s {
                    black_box(base.store.with_appends(appends));
                }
            })
        });
        group.bench_with_input(
            BenchmarkId::new("prepare_from", shape),
            &batches,
            |b, batches| {
                b.iter(|| {
                    for batch in batches {
                        black_box(LiveCorpus::prepare_from(&base, batch, None));
                    }
                })
            },
        );
        let records: Vec<(u64, MutationBatch)> = (1u64..).zip(batches.iter().cloned()).collect();
        group.bench_with_input(
            BenchmarkId::new("recover-replay", shape),
            &records,
            |b, records| {
                b.iter(|| {
                    let mut report = RecoveryReport::default();
                    let out = LiveCorpus::replay_onto(Arc::clone(&base), records, &mut report);
                    assert_eq!(report.replayed, BATCHES as u64);
                    black_box(out)
                })
            },
        );
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
