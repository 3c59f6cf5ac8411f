//! The shared query substrate: a social graph plus a tagging store, and the
//! result/statistics types every processor returns.

use friends_data::store::TagStore;
use friends_data::{ItemId, TagId, Tagging, UserId};
use friends_graph::traversal::EdgeEdit;
use friends_graph::{Components, CsrGraph};
use friends_index::inverted::{IndexConfig, InvertedIndex};
use friends_index::postings::PostingConfig;
use std::sync::{Arc, OnceLock};

/// Block length of the σ-aware posting index. Smaller than the classical
/// 128-entry default: σ-aware pruning skips at block granularity, and the
/// per-block tagger ranges and mass maxima tighten considerably with fewer
/// docs per block, at a modest skip-metadata cost.
pub const SIGMA_INDEX_BLOCK_LEN: usize = 32;

/// One tag's `(item, aggregate weight)` ranking, as [`Corpus::global_lists`]
/// hands it out: descending weight, ties by item id. Shared between the
/// epochs whose batches left the tag alone.
pub type GlobalList = Arc<[(ItemId, f32)]>;

/// A queryable dataset: the social graph and the tagging store, with users
/// of the store identified with nodes of the graph.
#[derive(Clone, Debug)]
pub struct Corpus {
    pub graph: CsrGraph,
    pub store: TagStore,
    /// Lazily built σ-aware posting index (tag → doc-sorted list with
    /// per-entry tagger groups and per-block tagger ranges), shared by every
    /// processor running block-max scoring over this corpus. Built once on
    /// first use — every worker shares it through `&Corpus`.
    sigma_index: OnceLock<InvertedIndex>,
    /// Lazily built per-tag global item rankings (descending aggregate
    /// weight, ties by item id) — the candidate lists `GlobalBoundTA`
    /// drives its threshold-algorithm scans from. Store-only data, so the
    /// live write path warms it per epoch off the read path instead of
    /// every shard re-sorting it on its first planned query. Each row is
    /// `Arc`'d, so the next epoch shares every row its batch left alone.
    global_lists: OnceLock<Vec<GlobalList>>,
    /// Lazily built connected-component labels of the graph — what the
    /// live write path reads a batch's affected seekers from. Built by the
    /// first write that edits an edge, never by construction or recovery;
    /// each later epoch derives its labels from its predecessor's.
    components: OnceLock<Components>,
    /// Mutation epoch: 0 for a freshly built (frozen) corpus, bumped by one
    /// for every published mutation batch (see `crate::live`). Purely an
    /// observability/versioning stamp — cache identity stays keyed on the
    /// graph token, which live edits deliberately preserve.
    epoch: u64,
}

impl Corpus {
    /// Bundles a graph and a store.
    ///
    /// # Panics
    /// Panics if the store's user universe differs from the graph's node set
    /// — every tagger must be a network member for proximity to be defined.
    pub fn new(graph: CsrGraph, store: TagStore) -> Self {
        assert_eq!(
            graph.num_nodes() as u32,
            store.num_users(),
            "graph nodes and store users must coincide"
        );
        Corpus {
            graph,
            store,
            sigma_index: OnceLock::new(),
            global_lists: OnceLock::new(),
            components: OnceLock::new(),
            epoch: 0,
        }
    }

    /// [`Corpus::new`] stamped with an explicit mutation epoch — what the
    /// live write path uses when publishing an edited snapshot.
    pub fn with_epoch(graph: CsrGraph, store: TagStore, epoch: u64) -> Self {
        let mut c = Corpus::new(graph, store);
        c.epoch = epoch;
        c
    }

    /// The epoch after this one: `graph` and `store` are this corpus's with
    /// one mutation batch applied, `appends` the batch's taggings (any
    /// order, repeats allowed) and `edits` every pair whose edge the batch
    /// changed.
    ///
    /// Whatever this corpus has built of its σ-index, global lists and
    /// component labels is carried over. The labels go through
    /// [`Components::after`], which shares them when the batch joins and
    /// splits no component. The two indexes share every tag the batch
    /// appended nothing to. An appended-to tag's posting list keeps its
    /// blocks below the tag's smallest appended item and re-encodes the
    /// rest from `store`'s row
    /// ([`InvertedIndex::with_suffixes_rebuilt`]); its global list re-sums
    /// the appended items from that row and merges them back into the
    /// ranking. Both equal a cold build over `store`, because both
    /// structures build each tag from that tag's row alone and appends
    /// change no item they do not name. What this corpus never built stays
    /// unbuilt.
    pub fn next_epoch(
        &self,
        graph: CsrGraph,
        store: TagStore,
        appends: &[Tagging],
        edits: &[EdgeEdit],
    ) -> Self {
        let next = Corpus::with_epoch(graph, store, self.epoch + 1);
        if let Some(components) = self.components.get() {
            let derived = components.after(&next.graph, edits);
            next.components
                .set(derived)
                .expect("a fresh corpus has no labels");
        }
        let mut touched: Vec<(TagId, ItemId)> = appends.iter().map(|t| (t.tag, t.item)).collect();
        touched.sort_unstable();
        touched.dedup();
        let per_tag = || touched.chunk_by(|a, b| a.0 == b.0);
        if let Some(index) = self.sigma_index.get() {
            // Each tag's smallest appended item: its first changed doc.
            let firsts: Vec<(TagId, ItemId)> = per_tag().map(|run| run[0]).collect();
            let derived =
                index.with_suffixes_rebuilt(&firsts, |t, start| sigma_quads(&next.store, t, start));
            next.sigma_index
                .set(derived)
                .expect("a fresh corpus has no index");
        }
        if let Some(lists) = self.global_lists.get() {
            let mut lists = lists.clone();
            for run in per_tag() {
                let t = run[0].0;
                let items = run.iter().map(|&(_, item)| item);
                let patched =
                    patched_global_list(&lists[t as usize], t, items, &self.store, &next.store);
                lists[t as usize] = patched;
            }
            next.global_lists
                .set(lists)
                .expect("a fresh corpus has no global lists");
        }
        next
    }

    /// The corpus's mutation epoch (0 = frozen seed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of users.
    pub fn num_users(&self) -> u32 {
        self.store.num_users()
    }

    /// Number of items.
    pub fn num_items(&self) -> u32 {
        self.store.num_items()
    }

    /// Per-tag global item rankings (descending aggregate weight, ties by
    /// item id), building them on first call (thread-safe; subsequent calls
    /// are a load).
    pub fn global_lists(&self) -> &[GlobalList] {
        self.global_lists.get_or_init(|| {
            (0..self.store.num_tags())
                .map(|t| global_list(&self.store, t))
                .collect()
        })
    }

    /// The graph's connected-component labels, building them on first call
    /// (one `O(n + m)` pass; thread-safe, later calls are a load).
    pub fn components(&self) -> &Components {
        self.components
            .get_or_init(|| Components::build(&self.graph))
    }

    /// The σ-aware posting index over `(tag; item, tagger, weight)`,
    /// building it on first call (thread-safe; subsequent calls are a load).
    pub fn sigma_index(&self) -> &InvertedIndex {
        self.sigma_index.get_or_init(|| {
            let quads = (0..self.store.num_tags()).flat_map(|t| {
                sigma_quads(&self.store, t, 0)
                    .map(move |(item, user, weight)| (t, item, user, weight))
            });
            InvertedIndex::build_with_taggers(
                quads,
                IndexConfig {
                    postings: PostingConfig {
                        block_len: SIGMA_INDEX_BLOCK_LEN,
                        ..PostingConfig::default()
                    },
                },
            )
        })
    }
}

/// `tag`'s `(item, tagger, weight)` triples from item `from` on, in `(item,
/// tagger)` order — what its σ-index list is built from.
fn sigma_quads(
    store: &TagStore,
    tag: TagId,
    from: ItemId,
) -> impl ExactSizeIterator<Item = (ItemId, UserId, f32)> + '_ {
    let row = store.tag_taggings(tag);
    row[row.partition_point(|tg| tg.item < from)..]
        .iter()
        .map(|tg| (tg.item, tg.user, tg.weight))
}

/// The global-list order: descending aggregate weight, ties by item.
fn rank(a: &(ItemId, f32), b: &(ItemId, f32)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// `tag`'s global item ranking, built from its whole row.
fn global_list(store: &TagStore, tag: TagId) -> GlobalList {
    let mut v = store.global_item_scores(tag);
    v.sort_unstable_by(rank);
    v.into()
}

/// `row`, `tag`'s ranking over `old`, brought to `new` — `old` with
/// taggings of `tag` appended to `items` (distinct) and to no other of its
/// items. Each item's stale entry is found by its old mass and dropped, and
/// its new mass, re-summed from `new`'s row, is inserted where the order
/// puts it. The row is copied once, run by run between those edits, and
/// never re-sorted; the result equals [`global_list`] over `new`.
fn patched_global_list(
    row: &[(ItemId, f32)],
    tag: TagId,
    items: impl Iterator<Item = ItemId>,
    old: &TagStore,
    new: &TagStore,
) -> GlobalList {
    // `(p, Some(entry))` inserts `entry` before `row[p]`; `(p, None)` drops
    // `row[p]`. A re-ranked entry never moves down (appends only add mass),
    // and at one position inserts come first, in rank order.
    let mut edits: Vec<(usize, Option<(ItemId, f32)>)> = Vec::new();
    for item in items {
        if let Some(mass) = old.tag_item_mass(tag, item) {
            let at = row.binary_search_by(|e| rank(e, &(item, mass)));
            edits.push((at.expect("a stored item is ranked"), None));
        }
        let mass = new.tag_item_mass(tag, item);
        let entry = (item, mass.expect("an appended item is stored"));
        edits.push((
            row.partition_point(|e| rank(e, &entry).is_lt()),
            Some(entry),
        ));
    }
    edits.sort_unstable_by(|(p, a), (q, b)| {
        p.cmp(q).then_with(|| match (a, b) {
            (Some(a), Some(b)) => rank(a, b),
            _ => a.is_none().cmp(&b.is_none()),
        })
    });
    let inserts = edits.iter().filter(|e| e.1.is_some()).count();
    let len = row.len() + 2 * inserts - edits.len();
    // A `repeat_n` is exact-size: `collect` fills the one shared allocation
    // in place, and the runs overwrite it.
    let mut patched: GlobalList = std::iter::repeat_n((0, 0.0), len).collect();
    let out = Arc::get_mut(&mut patched).expect("a fresh allocation is unique");
    let (mut from, mut at) = (0, 0);
    for (p, edit) in edits {
        out[at..at + p - from].copy_from_slice(&row[from..p]);
        at += p - from;
        from = p;
        match edit {
            Some(entry) => {
                out[at] = entry;
                at += 1;
            }
            None => from += 1,
        }
    }
    out[at..].copy_from_slice(&row[from..]);
    patched
}

/// Work counters reported by each query execution (Fig 8 and Table 3 read
/// these; wall-clock time is measured by the bench harness, not here).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Users whose tagging profiles were scanned.
    pub users_visited: usize,
    /// Individual annotations actually read. Processors that skip postings
    /// by construction (e.g. `ExactOnline`'s support-driven scan, which
    /// probes only the seeker's neighborhood) report correspondingly lower
    /// counts — this measures postings touched, not an
    /// implementation-independent cost model, so compare it across
    /// strategies with that in mind (index-probe overhead is not included).
    pub postings_scanned: usize,
    /// Clusters touched (cluster index only).
    pub clusters_touched: usize,
    /// Termination-bound evaluations performed.
    pub bound_checks: usize,
    /// Posting blocks skipped without decoding (block-max strategy only).
    pub blocks_skipped: usize,
    /// Whether the processor terminated before exhausting its input.
    pub early_terminated: bool,
    /// Wall-clock nanoseconds spent resolving the seeker's σ vector (cache
    /// probe + materialization). Zero for processors without a distinct σ
    /// phase (e.g. global scoring, or expansion's interleaved traversal).
    /// Timing fields make equality of two *different* executions
    /// meaningless; the work counters above are what equality should
    /// compare, so compare those field-wise in tests.
    pub sigma_ns: u64,
    /// Wall-clock nanoseconds spent scoring (posting traversal, bound
    /// checks, top-k maintenance) after σ is resolved.
    pub scoring_ns: u64,
    /// σ cache probe outcome: `Some(true)` hit, `Some(false)` miss
    /// (materialized), `None` when no probe happened (no cache attached,
    /// or the model bypasses caching). Like the timing fields, irrelevant
    /// to work-counter equality.
    pub sigma_cached: Option<bool>,
}

/// A ranked result list plus its execution statistics.
#[derive(Clone, Debug, Default)]
pub struct SearchResult {
    /// `(item, score)` in descending score order (ties: smaller item id
    /// first). Scores are exact for exact processors; for early-terminating
    /// or sketch-based processors they are the documented lower bounds.
    pub items: Vec<(ItemId, f32)>,
    pub stats: QueryStats,
    /// Error certificate for bounded execution: an upper bound on how far
    /// any returned score can sit below its exact (unbounded-σ) value.
    /// `0.0` — always the case under `SigmaBounds::EXACT` — proves the
    /// result is byte-identical to the exact one. Scores are never
    /// over-reported: bounded σ only drops nonnegative contributions.
    pub residual: f64,
}

impl SearchResult {
    /// The ranked item ids only.
    pub fn item_ids(&self) -> Vec<ItemId> {
        self.items.iter().map(|&(i, _)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use friends_data::Tagging;
    use friends_graph::GraphBuilder;

    #[test]
    fn corpus_construction() {
        let g = GraphBuilder::from_edges(3, [(0, 1, 1.0)]);
        let s = TagStore::build(3, 4, 2, vec![Tagging::unit(0, 0, 0)]);
        let c = Corpus::new(g, s);
        assert_eq!(c.num_users(), 3);
        assert_eq!(c.num_items(), 4);
    }

    #[test]
    #[should_panic(expected = "must coincide")]
    fn mismatched_universes_panic() {
        let g = GraphBuilder::from_edges(3, [(0, 1, 1.0)]);
        let s = TagStore::build(5, 4, 2, vec![]);
        Corpus::new(g, s);
    }

    #[test]
    fn search_result_ids() {
        let r = SearchResult {
            items: vec![(4, 2.0), (1, 1.0)],
            ..SearchResult::default()
        };
        assert_eq!(r.item_ids(), vec![4, 1]);
    }
}
