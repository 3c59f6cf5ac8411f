//! Property tests for the live-graph write path (`friends_core::live`):
//!
//! * **Rebuild equivalence** — interleaving random mutation batches with
//!   queries through [`LiveCorpus`] (incremental sweeps, token-preserving
//!   edits, a warm shared σ cache) answers byte-identically to a corpus
//!   rebuilt from scratch at the same epoch. This is the contract that
//!   lets the mutation subsystem claim "cached entries that survive a
//!   sweep are still exact".
//! * **Sweep exactness** — [`ProximityCache::invalidate_affected`] drops
//!   *exactly* the entries whose σ support crosses a touched endpoint: a
//!   differential count against dense σ, which also pins the acceptance
//!   property that a batch outside every cached reach set drops nothing.
//! * **Repair exactness** — after [`ProximityCache::repair_affected`] every
//!   resident entry `==` the cold snapshot on the next graph as a
//!   `ProximityVec`, the sweep's counts add up to the entries the reach
//!   predicate marks, the byte charge is the sum of the residents', and
//!   only exact decay-model entries read since the previous sweep are
//!   repaired rather than dropped.
//! * **Snapshot isolation** — every answer computed against a pinned
//!   snapshot while a writer races equals the frozen answer of *some*
//!   published epoch, and pinned epochs never change under the reader.

use friends_core::cache::ProximityCache;
use friends_core::corpus::Corpus;
use friends_core::live::LiveCorpus;
use friends_core::processors::{ExactOnline, Processor};
use friends_core::proximity::{ProximityModel, ProximityVec, SigmaBounds, SigmaWorkspace};
use friends_data::mutations::{Mutation, MutationBatch};
use friends_data::queries::Query;
use friends_data::store::TagStore;
use friends_data::Tagging;
use friends_graph::{GraphBuilder, NodeId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const MODEL: ProximityModel = ProximityModel::WeightedDecay { alpha: 0.5 };

const USERS: u32 = 14;
const ITEMS: u32 = 10;
const TAGS: u32 = 4;

/// Mirror of the corpus a mutation lineage should converge to: edge map
/// keyed on canonical pairs (inserts replace, removals delete) plus the
/// append-only tagging list. `rebuild` produces a fresh corpus with a new
/// graph token — the reference never shares cache state with the system
/// under test.
struct Mirror {
    edges: BTreeMap<(NodeId, NodeId), f32>,
    taggings: Vec<Tagging>,
}

impl Mirror {
    fn of(corpus: &Corpus) -> Self {
        let mut edges = BTreeMap::new();
        for (u, v, w) in corpus.graph.undirected_edges() {
            edges.insert(if u < v { (u, v) } else { (v, u) }, w);
        }
        let mut taggings = Vec::new();
        for t in 0..corpus.store.num_tags() {
            taggings.extend(corpus.store.tag_taggings(t).iter().copied());
        }
        Mirror { edges, taggings }
    }

    fn push(&mut self, batch: &MutationBatch) {
        let canon = |u: NodeId, v: NodeId| if u < v { (u, v) } else { (v, u) };
        let (inserts, removals, appends) = batch.split();
        for (u, v) in removals {
            self.edges.remove(&canon(u, v));
        }
        for (u, v, w) in inserts {
            if u != v {
                self.edges.insert(canon(u, v), w);
            }
        }
        self.taggings.extend(appends);
    }

    fn rebuild(&self) -> Corpus {
        let mut b = GraphBuilder::new(USERS as usize);
        for (&(u, v), &w) in &self.edges {
            b.add_edge(u, v, w);
        }
        Corpus::new(
            b.build(),
            TagStore::build(USERS, ITEMS, TAGS, self.taggings.clone()),
        )
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    // The vendored proptest has no `prop_filter_map`; dodge self-loops by
    // displacing `v` instead of filtering.
    let unloop = |u: u32, v: u32| if u == v { (v + 1) % USERS } else { v };
    prop_oneof![
        (0u32..USERS, 0u32..USERS, 0.05f32..2.0).prop_map(move |(u, v, w)| {
            Mutation::InsertEdge {
                u,
                v: unloop(u, v),
                weight: w,
            }
        }),
        (0u32..USERS, 0u32..USERS)
            .prop_map(move |(u, v)| Mutation::RemoveEdge { u, v: unloop(u, v) }),
        (0u32..USERS, 0u32..ITEMS, 0u32..TAGS, 0.1f32..2.0).prop_map(
            |(user, item, tag, weight)| Mutation::AddTagging(Tagging {
                user,
                item,
                tag,
                weight,
            })
        ),
    ]
}

#[allow(clippy::type_complexity)]
fn arb_seed() -> impl Strategy<Value = (Vec<(u32, u32, f32)>, Vec<(u32, u32, u32, f32)>)> {
    (
        proptest::collection::vec((0u32..USERS, 0u32..USERS, 0.05f32..1.0), 0..40),
        proptest::collection::vec((0u32..USERS, 0u32..ITEMS, 0u32..TAGS, 0.1f32..1.0), 0..50),
    )
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        0u32..USERS,
        proptest::collection::vec(0u32..TAGS, 1..3),
        1usize..6,
    )
        .prop_map(|(seeker, mut tags, k)| {
            tags.sort_unstable();
            tags.dedup();
            Query { seeker, tags, k }
        })
}

fn seed_corpus(edges: &[(u32, u32, f32)], taggings: &[(u32, u32, u32, f32)]) -> Corpus {
    let mut b = GraphBuilder::new(USERS as usize);
    for &(u, v, w) in edges {
        if u != v {
            b.add_edge(u, v, w);
        }
    }
    let taggings: Vec<Tagging> = taggings
        .iter()
        .map(|&(user, item, tag, weight)| Tagging {
            user,
            item,
            tag,
            weight,
        })
        .collect();
    Corpus::new(b.build(), TagStore::build(USERS, ITEMS, TAGS, taggings))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleave mutation batches with queries: after every batch, every
    /// query served from the live lineage (with its incrementally swept,
    /// warm σ cache) must be byte-identical to a corpus rebuilt from
    /// scratch at the same epoch.
    #[test]
    fn interleaved_mutations_match_a_from_scratch_rebuild(
        (edges, taggings) in arb_seed(),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_mutation(), 1..5), 1..5),
        queries in proptest::collection::vec(arb_query(), 1..5),
    ) {
        let seed = Arc::new(seed_corpus(&edges, &taggings));
        let mut mirror = Mirror::of(&seed);
        let live = LiveCorpus::new(Arc::clone(&seed));
        let cache = Arc::new(ProximityCache::new(256));
        for (epoch, muts) in batches.into_iter().enumerate() {
            // Warm the cache under the current epoch so the next sweep has
            // survivors to get wrong.
            {
                let snap = live.snapshot();
                let mut exact = ExactOnline::with_cache(&snap, MODEL, Arc::clone(&cache));
                for q in &queries {
                    let _ = exact.query(q);
                }
            }
            let batch = MutationBatch::new(muts);
            let published = live
                .commit(&batch, None, |p, _| {
                    cache.repair_affected(&p.next.graph, &p.edits);
                    p.epoch()
                })
                .unwrap();
            mirror.push(&batch);
            prop_assert_eq!(published, epoch as u64 + 1);
            let snap = live.snapshot();
            let rebuilt = mirror.rebuild();
            prop_assert_eq!(snap.graph.num_edges(), rebuilt.graph.num_edges());
            let mut lively = ExactOnline::with_cache(&snap, MODEL, Arc::clone(&cache));
            let mut fresh = ExactOnline::new(&rebuilt, MODEL);
            for q in &queries {
                let a = lively.query(q);
                let b = fresh.query(q);
                prop_assert_eq!(
                    &a.items, &b.items,
                    "epoch {} diverged from rebuild for {:?}", published, q
                );
            }
        }
    }

    /// The incremental σ sweep drops *exactly* the affected entries: for
    /// every cached seeker, affectedness by the dense-σ rule (seeker is an
    /// endpoint, or σ(seeker, endpoint) > 0 for some endpoint) predicts
    /// the drop. A batch outside every reach set therefore drops nothing —
    /// the acceptance property — and `Global` entries never drop.
    #[test]
    fn sweep_drops_exactly_the_affected_entries(
        (edges, taggings) in arb_seed(),
        muts in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let corpus = seed_corpus(&edges, &taggings);
        let cache = ProximityCache::new(256);
        for seeker in 0..USERS {
            let mut ws = SigmaWorkspace::new();
            MODEL.materialize_into(&corpus.graph, seeker, &mut ws);
            cache.insert(
                &corpus.graph,
                seeker,
                MODEL,
                Arc::new(ws.snapshot(corpus.graph.num_nodes())),
            );
            // Global entries are graph-independent and must survive any
            // edge mutation.
            let mut ws = SigmaWorkspace::new();
            ProximityModel::Global.materialize_into(&corpus.graph, seeker, &mut ws);
            cache.insert(
                &corpus.graph,
                seeker,
                ProximityModel::Global,
                Arc::new(ws.snapshot(corpus.graph.num_nodes())),
            );
        }
        let batch = MutationBatch::new(muts);
        let endpoints = batch.touched_nodes();
        let mut expected = 0u64;
        for seeker in 0..USERS {
            let sigma = MODEL.materialize(&corpus.graph, seeker);
            let affected = endpoints
                .iter()
                .any(|&e| e == seeker || sigma[e as usize] > 0.0);
            if affected {
                expected += 1;
            }
        }
        let dropped = cache.invalidate_affected(&endpoints);
        prop_assert_eq!(dropped, expected, "endpoints {:?}", endpoints);
        // Survivors: all Global entries plus the unaffected decay entries.
        prop_assert_eq!(cache.len() as u64, 2 * USERS as u64 - expected);
        if endpoints.is_empty() {
            prop_assert_eq!(dropped, 0);
        }
    }

    /// The repairing sweep against a mirror of what it must do. Entries of
    /// six kinds per seeker — two repairable decay models, the same model
    /// under lossy bounds, PPR, AdamicAdar, Global — are offered, a random
    /// subset is read between batches, and after every sweep the mirror
    /// says which entries are resident: unmarked ones untouched, marked
    /// exact decay entries read (or inserted) since the last sweep
    /// repaired, everything else marked dropped. Counts, length and byte
    /// charge are checked against the mirror without reading the cache;
    /// every read, and a full read at the end, compares the resident
    /// vector with the cold snapshot on that epoch's graph.
    #[test]
    fn repairing_sweep_leaves_cold_snapshots(
        (edges, taggings) in arb_seed(),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_mutation(), 1..5), 1..6),
        reads in proptest::collection::vec(
            proptest::collection::vec((0u32..USERS, 0usize..6), 0..40), 6),
    ) {
        let bounded = SigmaBounds::with_min_mass(0.2);
        let kinds: [(ProximityModel, SigmaBounds); 6] = [
            (MODEL, SigmaBounds::EXACT),
            (ProximityModel::DistanceDecay { alpha: 0.8 }, SigmaBounds::EXACT),
            (MODEL, bounded),
            (ProximityModel::Ppr { alpha: 0.2, epsilon: 1e-4 }, SigmaBounds::EXACT),
            (ProximityModel::AdamicAdar, SigmaBounds::EXACT),
            (ProximityModel::Global, SigmaBounds::EXACT),
        ];
        let cold = |graph: &friends_graph::CsrGraph, seeker: u32, kind: usize| -> ProximityVec {
            let (model, bounds) = kinds[kind];
            let mut ws = SigmaWorkspace::new();
            model.materialize_bounded(graph, seeker, &mut ws, bounds);
            ws.snapshot(graph.num_nodes())
        };
        let n = USERS as usize;
        let live = LiveCorpus::new(Arc::new(seed_corpus(&edges, &taggings)));
        let cache = ProximityCache::new(4 * 6 * n);
        let overhead = {
            let probe = ProximityCache::new(4);
            let graph = &live.snapshot().graph;
            probe.insert(graph, 0, MODEL, Arc::new(ProximityVec::AllOnes));
            probe.memory_bytes()
        };
        // (seeker, kind) → read or inserted since the last sweep.
        let mut resident: BTreeMap<(u32, usize), bool> = BTreeMap::new();
        for (round, muts) in batches.into_iter().enumerate() {
            let snap = live.snapshot();
            // Reads hit what is resident and insert what is not.
            for &(seeker, kind) in &reads[round % reads.len()] {
                let (model, bounds) = kinds[kind];
                match cache.get_bounded(&snap.graph, seeker, model, bounds) {
                    Some(v) => {
                        prop_assert!(resident.contains_key(&(seeker, kind)));
                        prop_assert_eq!(&*v, &cold(&snap.graph, seeker, kind),
                            "round {} seeker {} kind {}", round, seeker, kind);
                    }
                    None => {
                        prop_assert!(!resident.contains_key(&(seeker, kind)));
                        let v = Arc::new(cold(&snap.graph, seeker, kind));
                        cache.insert_bounded(&snap.graph, seeker, model, bounds, v);
                    }
                }
                resident.insert((seeker, kind), true);
            }
            let prepared = live.prepare(&MutationBatch::new(muts), None);
            let endpoints: BTreeSet<u32> = prepared.touched_nodes.iter().copied().collect();
            let mut marked = 0u64;
            let mut expect_dropped = 0u64;
            resident.retain(|&(seeker, kind), read| {
                let old = cold(&snap.graph, seeker, kind);
                let hit = kind != 5
                    && endpoints.iter().any(|&e| e == seeker || old.get(e) > 0.0);
                marked += hit as u64;
                let keep = !hit || (kind < 2 && *read);
                expect_dropped += !keep as u64;
                keep
            });
            let sweep = cache.repair_affected(&prepared.next.graph, &prepared.edits);
            live.publish(&prepared);
            if !endpoints.is_empty() {
                resident.values_mut().for_each(|read| *read = false);
            }
            prop_assert_eq!(sweep.kept + sweep.repaired + sweep.dropped, marked);
            prop_assert_eq!(sweep.dropped, expect_dropped);
            prop_assert_eq!(sweep.repaired == 0, sweep.changed_nodes == 0);
            prop_assert_eq!(cache.len(), resident.len());
            let next = &prepared.next.graph;
            let charges: usize = resident
                .keys()
                .map(|&(seeker, kind)| cold(next, seeker, kind).memory_bytes() + overhead)
                .sum();
            prop_assert_eq!(cache.memory_bytes(), charges);
        }
        let snap = live.snapshot();
        for seeker in 0..USERS {
            for (kind, &(model, bounds)) in kinds.iter().enumerate() {
                let got = cache.get_bounded(&snap.graph, seeker, model, bounds);
                prop_assert_eq!(got.is_some(), resident.contains_key(&(seeker, kind)));
                if let Some(v) = got {
                    prop_assert_eq!(&*v, &cold(&snap.graph, seeker, kind),
                        "final: seeker {} kind {}", seeker, kind);
                    prop_assert_eq!(v.residual_bound(), cold(&snap.graph, seeker, kind).residual_bound());
                }
            }
        }
    }

    /// Readers pinning snapshots while a writer publishes epochs: every
    /// answer equals the frozen answer of the epoch the reader pinned, and
    /// the pinned epoch never moves underneath it.
    #[test]
    fn concurrent_queries_answer_from_exactly_one_epoch(
        (edges, taggings) in arb_seed(),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_mutation(), 1..4), 1..4),
        query in arb_query(),
    ) {
        let seed = Arc::new(seed_corpus(&edges, &taggings));
        let live = Arc::new(LiveCorpus::new(Arc::clone(&seed)));
        let total = batches.len() as u64;
        let writer_live = Arc::clone(&live);
        let observed: Vec<(u64, Vec<(u32, f32)>)> = std::thread::scope(|s| {
            let writer = s.spawn(move || {
                let mut lineage = vec![];
                for muts in batches {
                    let batch = MutationBatch::new(muts);
                    writer_live.commit(&batch, None, |_, _| ()).unwrap();
                    lineage.push(writer_live.snapshot());
                }
                lineage
            });
            let mut observed = Vec::new();
            loop {
                let snap = live.snapshot();
                let epoch = snap.epoch();
                let items = ExactOnline::new(&snap, MODEL).query(&query).items;
                // The pinned snapshot cannot have moved mid-query.
                prop_assert_eq!(snap.epoch(), epoch);
                observed.push((epoch, items));
                if epoch == total {
                    break;
                }
                std::thread::yield_now();
            }
            let mut lineage = writer.join().expect("writer");
            lineage.insert(0, Arc::clone(&seed));
            // Every observed answer is byte-identical to the frozen answer
            // of the epoch it pinned.
            for (epoch, items) in &observed {
                let frozen = &lineage[*epoch as usize];
                prop_assert_eq!(frozen.epoch(), *epoch);
                let expect = ExactOnline::new(frozen, MODEL).query(&query).items;
                prop_assert_eq!(items, &expect, "epoch {} answer drifted", epoch);
            }
            Ok(observed)
        })?;
        prop_assert!(observed.iter().any(|(e, _)| *e == total));
    }
}
