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
//! The σ rows follow one lineage of eight consecutive epochs out and back
//! (the eight batches, then the same eight undone), so a sample is sixteen
//! steps and ends on the graph it began on: `sigma_repair` carries one
//! cached vector along with `ProximityModel::repair`, `sigma_rebuild`
//! materializes and snapshots it from scratch on each step's graph, and
//! `sigma_sweep` is `ProximityCache::repair_affected` over 64 and over 699
//! resident vectors, each read again before every step (an unread entry is
//! dropped, not repaired) — `DistanceDecay 0.3` on the heavy-tag corpus,
//! `WeightedDecay 0.5` on the light-tag one, as the serving benchmark
//! pairs them.
//!
//! End-to-end numbers come from the serving benchmark, not from here:
//! see `benchmark/README.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use friends_bench::{overload_corpus, serving_corpus};
use friends_core::cache::ProximityCache;
use friends_core::corpus::Corpus;
use friends_core::live::{LiveCorpus, RecoveryReport};
use friends_core::proximity::{ProximityModel, ProximityVec, SigmaRepair, SigmaWorkspace};
use friends_data::mutations::{MutationBatch, MutationParams, MutationStream};
use friends_graph::traversal::EdgeEdit;
use friends_graph::CsrGraph;
use std::hint::black_box;
use std::sync::Arc;

const BATCH: usize = 64;
const BATCHES: usize = 8;

/// The hot seeker the single-vector rows follow (rank 3 of the Zipf order).
const SEEKER: u32 = 3;

/// The lineage of `batches` from `base`, as the steps of a round trip: each
/// step is the graph it arrives at and the effective edits that lead there
/// — the eight batches forwards, then each undone in turn.
fn round_trip(base: &Arc<Corpus>, batches: &[MutationBatch]) -> Vec<(CsrGraph, Vec<EdgeEdit>)> {
    let mut graphs = vec![base.graph.clone()];
    let mut edits = Vec::new();
    let mut epoch = Arc::clone(base);
    for batch in batches {
        let prepared = LiveCorpus::prepare_from(&epoch, batch, None);
        graphs.push(prepared.next.graph.clone());
        edits.push(prepared.edits);
        epoch = prepared.next;
    }
    let undone = |e: &EdgeEdit| EdgeEdit {
        old: e.new,
        new: e.old,
        ..*e
    };
    let out = (0..batches.len()).map(|i| (graphs[i + 1].clone(), edits[i].clone()));
    let back = (0..batches.len())
        .rev()
        .map(|i| (graphs[i].clone(), edits[i].iter().map(undone).collect()));
    out.chain(back).collect()
}

fn cold(model: ProximityModel, g: &CsrGraph, seeker: u32, ws: &mut SigmaWorkspace) -> ProximityVec {
    model.materialize_into(g, seeker, ws);
    ws.snapshot(g.num_nodes())
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("layers_write");
    group.sample_size(10);
    for (shape, corpus, model) in [
        (
            "heavy-tags",
            serving_corpus(10_000, 42),
            ProximityModel::DistanceDecay { alpha: 0.3 },
        ),
        (
            "light-tags",
            overload_corpus(10_000, 42),
            ProximityModel::WeightedDecay { alpha: 0.5 },
        ),
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

        let steps = round_trip(&base, &batches);
        let mut ws = SigmaWorkspace::new();
        let mut scratch = SigmaRepair::new();
        let mut vec = cold(model, &base.graph, SEEKER, &mut ws);
        group.bench_with_input(
            BenchmarkId::new("sigma_repair", shape),
            &steps,
            |b, steps| {
                b.iter(|| {
                    for (graph, edits) in steps {
                        let changed = model.repair(graph, edits, &mut vec, &mut scratch);
                        black_box(changed.expect("a decay model over a shallow graph"));
                    }
                })
            },
        );
        assert_eq!(vec, cold(model, &base.graph, SEEKER, &mut ws));
        group.bench_with_input(
            BenchmarkId::new("sigma_rebuild", shape),
            &steps,
            |b, steps| {
                b.iter(|| {
                    for (graph, _) in steps {
                        black_box(cold(model, graph, SEEKER, &mut ws));
                    }
                })
            },
        );
        for resident in [64u32, 699] {
            let cache = ProximityCache::new(resident as usize);
            for seeker in 0..resident {
                let v = cold(model, &base.graph, seeker, &mut ws);
                cache.insert(&base.graph, seeker, model, Arc::new(v));
            }
            let row = format!("sigma_sweep/{resident}");
            group.bench_with_input(BenchmarkId::new(row, shape), &steps, |b, steps| {
                b.iter(|| {
                    for (graph, edits) in steps {
                        for seeker in 0..resident {
                            black_box(cache.get(graph, seeker, model));
                        }
                        let sweep = cache.repair_affected(graph, edits);
                        assert_eq!(sweep.dropped, 0);
                        black_box(sweep);
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
