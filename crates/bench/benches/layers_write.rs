//! Layer kernels of the write path: what one 64-mutation batch costs at each
//! stage between `apply_mutations` and the pointer swap.
//!
//! The write-side sibling of `layers_sigma`: `CsrGraph::with_edits`,
//! `TagStore::with_appends` and `LiveCorpus::prepare_from` (both of those
//! plus the blast radius and the derived σ-index / global lists) per batch
//! against a warm base epoch, the two derivations apart —
//! `derive_sigma_index` and `derive_global_lists` are `Corpus::next_epoch`
//! on a base with only that one structure built, over the batch's
//! precomputed graph and store (a clone of each, pointer tables only, is
//! part of the sample) — `blast_radius` (the batch's component labels
//! derived from the base's with `Components::after` over the precomputed
//! graph, plus its `AffectedSeekers`) and the replay half of
//! `LiveCorpus::recover`
//! (`replay_onto`: eight logged batches coalesced into one rebuild, per
//! batch), on the two corpus shapes the serving benchmark writes to — 10 k
//! users × 64 heavy tags × 100 taggings (`memo_hot`, `scan_heavy`) and × 625
//! light tags × 20 (`cold_sigma`, `live_durable`) — with batches from the
//! generator and mix that benchmark uses. Each sample runs all eight batches against the same
//! base, so a sample is eight batches' worth.
//!
//! The σ rows follow one lineage of eight consecutive epochs out and back
//! (the eight batches, then the same eight undone), so a sample is sixteen
//! steps and ends on the graph it began on: `sigma_repair` carries one
//! cached vector along with `ProximityModel::repair`, `sigma_rebuild`
//! materializes and snapshots it from scratch on each step's graph, and
//! `sigma_reread` advances a `ProximityCache` holding 64 or 699 resident
//! vectors across each step and reads every one of them again, so each
//! read repairs its vector — `DistanceDecay 0.3` on the heavy-tag corpus,
//! `WeightedDecay 0.5` on the light-tag one, as the serving benchmark
//! pairs them.
//!
//! On the light-tag corpus (the `live_durable` shape), `sigma_composed/d`
//! is one repair of a cached vector across d consecutive batches folded
//! into one edit list (each pair's first old and last new weight, pairs
//! whose weights agree dropped) and `sigma_cold/d` a cold σ on the graph d
//! batches on, each over eight hot seekers per sample; the folded lengths
//! go to stderr. Where the two rows cross is the break-even that sets the
//! σ cache's edit history (`MAX_FOLDED_EDITS` in `friends_core::cache`).
//!
//! End-to-end numbers come from the serving benchmark, not from here:
//! see `benchmark/README.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use friends_bench::{overload_corpus, serving_corpus};
use friends_core::cache::ProximityCache;
use friends_core::corpus::Corpus;
use friends_core::live::{AffectedSeekers, LiveCorpus, RecoveryReport};
use friends_core::proximity::{ProximityModel, ProximityVec, SigmaRepair, SigmaWorkspace};
use friends_data::mutations::{MutationBatch, MutationParams, MutationStream};
use friends_graph::traversal::EdgeEdit;
use friends_graph::CsrGraph;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

const BATCH: usize = 64;
const BATCHES: usize = 8;

/// The hot seeker the single-vector rows follow (rank 3 of the Zipf order).
const SEEKER: u32 = 3;

/// Batches folded by the `sigma_composed` rows.
const COMPOSED: [usize; 8] = [1, 2, 4, 8, 16, 32, 48, 64];

/// The effective edits of `batches` applied one after another from
/// `base`, each batch's list, and the graph after each batch.
fn lineage(base: &Arc<Corpus>, batches: &[MutationBatch]) -> Vec<(CsrGraph, Arc<[EdgeEdit]>)> {
    let mut epoch = Arc::clone(base);
    batches
        .iter()
        .map(|batch| {
            let prepared = LiveCorpus::prepare_from(&epoch, batch, None);
            epoch = Arc::clone(&prepared.next);
            (prepared.next.graph.clone(), prepared.edits)
        })
        .collect()
}

/// Folds per-batch edit lists into one: each pair's first `old` and last
/// `new` weight, pairs whose two weights agree dropped.
fn fold(lists: &[(CsrGraph, Arc<[EdgeEdit]>)]) -> Vec<EdgeEdit> {
    let mut folded: BTreeMap<(u32, u32), EdgeEdit> = BTreeMap::new();
    for e in lists.iter().flat_map(|(_, edits)| edits.iter()) {
        folded
            .entry((e.u, e.v))
            .and_modify(|f| f.new = e.new)
            .or_insert(*e);
    }
    folded
        .into_values()
        .filter(|e| e.old.map(f32::to_bits) != e.new.map(f32::to_bits))
        .collect()
}

/// The lineage of `batches` from `base`, as the steps of a round trip: each
/// step is the graph it arrives at and the effective edits that lead there
/// — the eight batches forwards, then each undone in turn.
fn round_trip(base: &Arc<Corpus>, batches: &[MutationBatch]) -> Vec<(CsrGraph, Arc<[EdgeEdit]>)> {
    let out = lineage(base, batches);
    let undone = |e: &EdgeEdit| EdgeEdit {
        old: e.new,
        new: e.old,
        ..*e
    };
    let mut back: Vec<_> = std::iter::once(base.graph.clone())
        .chain(out.iter().map(|(g, _)| g.clone()))
        .zip(&out)
        .map(|(g, (_, edits))| (g, edits.iter().map(undone).collect()))
        .collect();
    back.reverse();
    out.into_iter().chain(back).collect()
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
        // A serving epoch past its first write has all three structures
        // built; the next one derives them. (A base that never built them
        // would pay three cold builds.)
        base.sigma_index();
        base.global_lists();
        base.components();
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
        let nexts: Vec<_> = splits
            .iter()
            .zip(&batches)
            .map(|((inserts, removals, appends), batch)| {
                let graph = base.graph.with_edits(inserts, removals);
                let edits = LiveCorpus::prepare_from(&base, batch, None).edits;
                (graph, base.store.with_appends(appends), appends, edits)
            })
            .collect();
        for (row, warm) in [
            (
                "derive_sigma_index",
                (|c| _ = c.sigma_index()) as fn(&Corpus),
            ),
            ("derive_global_lists", |c| _ = c.global_lists()),
        ] {
            let one = Corpus::with_epoch(base.graph.clone(), base.store.clone(), base.epoch());
            warm(&one);
            group.bench_with_input(BenchmarkId::new(row, shape), &nexts, |b, nexts| {
                b.iter(|| {
                    for (graph, store, appends, edits) in nexts {
                        black_box(one.next_epoch(graph.clone(), store.clone(), appends, edits));
                    }
                })
            });
        }
        let components = base.components();
        group.bench_with_input(
            BenchmarkId::new("blast_radius", shape),
            &nexts,
            |b, nexts| {
                b.iter(|| {
                    for (graph, _, _, edits) in nexts {
                        black_box(components.after(graph, edits));
                        let endpoints = EdgeEdit::endpoints(edits);
                        black_box(AffectedSeekers::connected_to(components, &endpoints));
                    }
                })
            },
        );
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
            let row = format!("sigma_reread/{resident}");
            group.bench_with_input(BenchmarkId::new(row, shape), &steps, |b, steps| {
                b.iter(|| {
                    for (graph, edits) in steps {
                        cache.advance(edits);
                        for seeker in 0..resident {
                            black_box(cache.get(graph, seeker, model));
                        }
                    }
                })
            });
        }
        if shape == "light-tags" {
            composed(&mut group, &base, model, &mut ws, &mut scratch);
        }
    }
    group.finish();
}

/// The `sigma_composed/d` and `sigma_cold/d` rows (see the module docs).
fn composed(
    group: &mut criterion::BenchmarkGroup<'_>,
    base: &Arc<Corpus>,
    model: ProximityModel,
    ws: &mut SigmaWorkspace,
    scratch: &mut SigmaRepair,
) {
    let batches = MutationStream::generate(
        &base.graph,
        &base.store,
        &MutationParams {
            count: COMPOSED[COMPOSED.len() - 1] * BATCH,
            user_theta: 1.1,
            ..MutationParams::default()
        },
        42 ^ 0x5EED,
    )
    .batches(BATCH);
    let steps = lineage(base, &batches);
    let vecs: Vec<ProximityVec> = (SEEKER..SEEKER + 8)
        .map(|seeker| cold(model, &base.graph, seeker, ws))
        .collect();
    for d in COMPOSED {
        let (graph, folded) = (&steps[d - 1].0, fold(&steps[..d]));
        eprintln!("sigma_composed/{d}: {} folded edits", folded.len());
        group.bench_function(BenchmarkId::new("sigma_composed", d), |b| {
            b.iter(|| {
                for v in &vecs {
                    let mut v = v.clone();
                    let changed = model.repair(graph, &folded, &mut v, scratch);
                    black_box(changed.expect("a decay model over a shallow graph"));
                }
            })
        });
        group.bench_function(BenchmarkId::new("sigma_cold", d), |b| {
            b.iter(|| {
                for seeker in SEEKER..SEEKER + 8 {
                    black_box(cold(model, graph, seeker, ws));
                }
            })
        });
    }
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
