//! Property tests for the live-graph write path (`friends_core::live`):
//!
//! * **Rebuild equivalence** — interleaving random mutation batches with
//!   queries through [`LiveCorpus`] (a warm shared σ cache advanced across
//!   every batch and repaired when read, token-preserving edits) answers
//!   byte-identically to a corpus rebuilt from scratch at the same epoch.
//!   This is the contract that lets the mutation subsystem claim "a cached
//!   entry is served only exact for the reader's graph".
//! * **Sweep exactness** — [`ProximityCache::invalidate_affected`] drops
//!   *exactly* the entries whose σ support crosses a touched endpoint: a
//!   differential count against dense σ, which also pins the acceptance
//!   property that a batch outside every cached reach set drops nothing.
//! * **Repair exactness** — reads interleaved with up to 64 batches a
//!   [`ProximityCache`] advances across ([`ProximityCache::advance`]):
//!   every vector served equals the cold snapshot on the reader's graph
//!   bit for bit, however many batches it missed; a mirror predicts which
//!   stale entries are kept, repaired, dropped (reached, no repair for
//!   their model or bounds) or too far behind (the edit history holds
//!   fewer batches), and the byte charge is the sum of the residents'.
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
use std::collections::BTreeMap;
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

/// Nodes of the read-side repair lineage, and the seekers it reads.
const LAZY_USERS: u32 = 40;
const LAZY_SEEKERS: u32 = 8;

/// The most edits the σ cache's edit history holds (its private
/// `MAX_FOLDED_EDITS`): a stale entry whose missed batches edited more is
/// rebuilt.
const HISTORY_EDITS: usize = 1_400;

/// σ entry kinds the read-side repair mirror reads: model and bounds.
const KINDS: usize = 6;

fn kind(kind: usize) -> (ProximityModel, SigmaBounds) {
    match kind {
        0 => (MODEL, SigmaBounds::EXACT),
        1 => (
            ProximityModel::DistanceDecay { alpha: 0.8 },
            SigmaBounds::EXACT,
        ),
        2 => (MODEL, SigmaBounds::with_min_mass(0.2)),
        3 => (
            ProximityModel::Ppr {
                alpha: 0.2,
                epsilon: 1e-4,
            },
            SigmaBounds::EXACT,
        ),
        4 => (ProximityModel::AdamicAdar, SigmaBounds::EXACT),
        _ => (ProximityModel::Global, SigmaBounds::EXACT),
    }
}

/// Equal as `ProximityVec`s and bit for bit at every node.
fn same_bits(a: &ProximityVec, b: &ProximityVec) -> bool {
    a == b && (0..LAZY_USERS).all(|u| a.get(u).to_bits() == b.get(u).to_bits())
}

/// What a σ cache that repairs on read must do, predicted from first
/// principles: the mirror keeps the graph of every cache version and, for a
/// stale entry, finds the pairs whose weights differ between the entry's
/// graph and the reader's — no fold, no ring.
struct Lazy {
    /// The graph of every cache version (a batch that edits no pair leaves
    /// the version as it is), and how many pairs each version edited.
    graphs: Vec<Arc<Corpus>>,
    widths: Vec<usize>,
    /// `(seeker, kind)` → the version its entry is exact for.
    resident: BTreeMap<(u32, usize), usize>,
    /// Stale hits kept, repaired, dropped and too far behind.
    expect: [u64; 4],
    colds: BTreeMap<(usize, u32, usize), Arc<ProximityVec>>,
}

impl Lazy {
    fn new(seed: Arc<Corpus>) -> Self {
        Lazy {
            graphs: vec![seed],
            widths: vec![0],
            resident: BTreeMap::new(),
            expect: [0; 4],
            colds: BTreeMap::new(),
        }
    }

    /// The cold snapshot of `(seeker, kind)` on `version`'s graph.
    fn cold(&mut self, version: usize, seeker: u32, kind_: usize) -> Arc<ProximityVec> {
        let graph = &self.graphs[version].graph;
        let made = self
            .colds
            .entry((version, seeker, kind_))
            .or_insert_with(|| {
                let (model, bounds) = kind(kind_);
                let mut ws = SigmaWorkspace::new();
                model.materialize_bounded(graph, seeker, &mut ws, bounds);
                Arc::new(ws.snapshot(graph.num_nodes()))
            });
        Arc::clone(made)
    }

    /// Whether reading the entry of `(seeker, kind_)` exact for `version`
    /// at the latest version must serve it, counting the stale hit.
    fn serves(&mut self, version: usize, seeker: u32, kind_: usize) -> bool {
        let now = self.graphs.len() - 1;
        if version == now {
            return true;
        }
        if self.widths[version + 1..].iter().sum::<usize>() > HISTORY_EDITS {
            self.expect[3] += 1;
            return false;
        }
        let (then, fresh) = (
            self.cold(version, seeker, kind_),
            self.cold(now, seeker, kind_),
        );
        let (old, new) = (&self.graphs[version].graph, &self.graphs[now].graph);
        let touches = |x: u32| x == seeker || then.get(x) > 0.0;
        let reached = kind_ != 5
            && (0..LAZY_USERS).any(|u| {
                (u + 1..LAZY_USERS).any(|v| {
                    old.edge_weight(u, v).map(f32::to_bits)
                        != new.edge_weight(u, v).map(f32::to_bits)
                        && (touches(u) || touches(v))
                })
            });
        let fate = match (reached, kind_ < 2) {
            (false, _) => 0,
            (true, true) if same_bits(&then, &fresh) => 0,
            (true, true) => 1,
            (true, false) => 2,
        };
        self.expect[fate] += 1;
        fate < 2
    }

    /// Reads `(seeker, kind_)` through `cache` at the latest version,
    /// inserting a cold snapshot on a miss, and checks what came back.
    fn read(
        &mut self,
        cache: &ProximityCache,
        seeker: u32,
        kind_: usize,
    ) -> Result<(), TestCaseError> {
        let now = self.graphs.len() - 1;
        let (model, bounds) = kind(kind_);
        let want = self.cold(now, seeker, kind_);
        let served = match self.resident.get(&(seeker, kind_)) {
            Some(&version) => self.serves(version, seeker, kind_),
            None => false,
        };
        let graph = &self.graphs[now].graph;
        match cache.get_bounded(graph, seeker, model, bounds) {
            Some(got) => {
                prop_assert!(served, "seeker {} kind {} served", seeker, kind_);
                prop_assert!(
                    same_bits(&got, &want),
                    "version {} seeker {} kind {}: {:?} != {:?}",
                    now,
                    seeker,
                    kind_,
                    got,
                    want
                );
            }
            None => {
                prop_assert!(!served, "seeker {} kind {} missed", seeker, kind_);
                cache.insert_bounded(graph, seeker, model, bounds, want);
            }
        }
        self.resident.insert((seeker, kind_), now);
        Ok(())
    }

    fn check_counts(&self, cache: &ProximityCache) -> Result<(), TestCaseError> {
        let stale = cache.stale_hits();
        prop_assert_eq!(
            [
                stale.kept,
                stale.repaired,
                stale.dropped,
                stale.too_far_behind
            ],
            self.expect
        );
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleave mutation batches with queries: after every batch, every
    /// query served from the live lineage (with its warm σ cache, advanced
    /// across the batch and repaired when read) must be byte-identical to a
    /// corpus rebuilt from scratch at the same epoch.
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
            // Warm the cache under the current epoch so the reads after the
            // next batch have stale entries to get wrong.
            {
                let snap = live.snapshot();
                let mut exact = ExactOnline::with_cache(&snap, MODEL, Arc::clone(&cache));
                for q in &queries {
                    let _ = exact.query(q);
                }
            }
            let batch = MutationBatch::new(muts);
            let published = live
                .commit(&batch, |p, _| {
                    cache.advance(&p.edits);
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

    /// The drop-only σ sweep drops *exactly* the affected entries: for
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

    /// Read-side repair against a mirror of what it must do ([`Lazy`]).
    /// Entries of six kinds per seeker — two repairable decay models, the
    /// same model under lossy bounds, PPR, AdamicAdar, Global — are read
    /// at random points of a lineage of up to 64 batches, wide enough that
    /// some entries fall further behind than the edit history holds. Every
    /// vector served must equal the cold snapshot on the reader's graph bit
    /// for bit, and after every batch the stale-hit counts and the byte
    /// charge must match the mirror's. A full read at the end covers what
    /// was not read again.
    #[test]
    fn repairing_sweep_leaves_cold_snapshots(
        seed_edges in proptest::collection::vec(
            (0u32..LAZY_USERS, 0u32..LAZY_USERS, 0.05f32..1.0), 0..120),
        steps in proptest::collection::vec(
            (
                proptest::collection::vec(
                    (0u32..LAZY_USERS, 0u32..LAZY_USERS, 0.05f32..2.0, 0u8..3), 16..96),
                proptest::collection::vec((0u32..LAZY_SEEKERS, 0usize..6), 0..6),
            ),
            1..64),
    ) {
        let mut b = GraphBuilder::new(LAZY_USERS as usize);
        for &(u, v, w) in &seed_edges {
            if u != v {
                b.add_edge(u, v, w);
            }
        }
        let store = TagStore::build(LAZY_USERS, 1, 1, Vec::new());
        let live = LiveCorpus::new(Arc::new(Corpus::new(b.build(), store)));
        let cache = ProximityCache::with_limits(usize::MAX, usize::MAX, 1, Default::default());
        let overhead = {
            let probe = ProximityCache::new(4);
            probe.insert(&live.snapshot().graph, 0, MODEL, Arc::new(ProximityVec::AllOnes));
            probe.memory_bytes()
        };
        let mut mirror = Lazy::new(live.snapshot());
        for (muts, reads) in &steps {
            for &(seeker, kind) in reads {
                mirror.read(&cache, seeker, kind)?;
            }
            // Two inserts to a removal, so the graph fills up and removals
            // find edges to remove.
            let muts = muts.iter().map(|&(u, v, weight, op)| {
                let v = if u == v { (v + 1) % LAZY_USERS } else { v };
                if op > 0 {
                    Mutation::InsertEdge { u, v, weight }
                } else {
                    Mutation::RemoveEdge { u, v }
                }
            });
            let prepared = live.prepare(&MutationBatch::new(muts.collect()));
            cache.advance(&prepared.edits);
            live.publish(&prepared);
            if !prepared.edits.is_empty() {
                mirror.graphs.push(Arc::clone(&prepared.next));
                mirror.widths.push(prepared.edits.len());
            }
            mirror.check_counts(&cache)?;
            prop_assert_eq!(cache.len(), mirror.resident.len());
            let charges: usize = mirror
                .resident
                .clone()
                .into_iter()
                .map(|((seeker, kind), version)| mirror.cold(version, seeker, kind).memory_bytes())
                .sum();
            prop_assert_eq!(cache.memory_bytes(), charges + mirror.resident.len() * overhead);
        }
        for seeker in 0..LAZY_SEEKERS {
            for kind in 0..KINDS {
                mirror.read(&cache, seeker, kind)?;
            }
        }
        mirror.check_counts(&cache)?;
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
                    writer_live.commit(&batch, |_, _| ()).unwrap();
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
