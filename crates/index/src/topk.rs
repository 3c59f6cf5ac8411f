//! Top-k machinery: a bounded result heap, a WAND-style document-at-a-time
//! traversal over doc-sorted posting lists, and its σ-aware block-max
//! generalization ([`BlockMaxWand`]).
//!
//! [`wand_topk`] is the classical, *non-personalized* algorithm;
//! [`BlockMaxWand`] re-derives its termination conditions under
//! seeker-dependent scores. The exhaustive oracles live in
//! [`crate::accumulate`].

use crate::postings::PostingList;
use crate::{DocId, Score};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A candidate result. Ordering: higher score first, then smaller doc id —
/// the canonical tie-break used across the workspace so all processors
/// return identical rankings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    pub doc: DocId,
    pub score: Score,
}

impl Eq for Hit {}

impl PartialOrd for Hit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Hit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // "Greater" = better: higher score, then smaller doc id.
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.doc.cmp(&self.doc))
    }
}

/// Bounded min-heap keeping the `k` best [`Hit`]s seen so far.
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Reverse<Hit>>,
}

impl TopK {
    /// Creates a collector for the best `k` hits (`k == 0` collects nothing).
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers a candidate; keeps it only if it beats the current k-th best.
    pub fn offer(&mut self, doc: DocId, score: Score) {
        if self.k == 0 {
            return;
        }
        let hit = Hit { doc, score };
        if self.heap.len() < self.k {
            self.heap.push(Reverse(hit));
        } else if hit > self.heap.peek().unwrap().0 {
            self.heap.pop();
            self.heap.push(Reverse(hit));
        }
    }

    /// Current k-th best score: the bar a new candidate must clear. Returns
    /// `f32::NEG_INFINITY` while fewer than `k` hits are held (anything can
    /// still enter).
    pub fn threshold(&self) -> Score {
        if self.heap.len() < self.k {
            f32::NEG_INFINITY
        } else {
            self.heap.peek().map_or(f32::NEG_INFINITY, |h| h.0.score)
        }
    }

    /// Number of hits currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no hits are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the collector, returning hits best-first.
    pub fn into_sorted_vec(self) -> Vec<(DocId, Score)> {
        let mut v: Vec<Hit> = self.heap.into_iter().map(|r| r.0).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v.into_iter().map(|h| (h.doc, h.score)).collect()
    }
}

/// What [`wand_topk`] and [`BlockMaxWand`] report about their work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Postings read sequentially (sorted access).
    pub sorted_accesses: usize,
    /// σ-range bound evaluations ([`BlockMaxWand`] only).
    pub random_accesses: usize,
    /// Whole blocks skipped without decoding ([`BlockMaxWand`] only).
    pub blocks_skipped: usize,
}

/// WAND-style document-at-a-time top-k over doc-sorted posting lists with
/// sum aggregation, using list max scores for pruning.
pub fn wand_topk(lists: &[&PostingList], k: usize) -> (Vec<(DocId, Score)>, AccessStats) {
    let mut stats = AccessStats::default();
    let mut topk = TopK::new(k);
    if lists.is_empty() || k == 0 {
        return (topk.into_sorted_vec(), stats);
    }
    let mut cursors: Vec<_> = lists.iter().map(|l| l.cursor()).collect();
    loop {
        // Order live cursors by current doc.
        let mut order: Vec<usize> = (0..cursors.len())
            .filter(|&i| !cursors[i].is_exhausted())
            .collect();
        if order.is_empty() {
            break;
        }
        order.sort_unstable_by_key(|&i| cursors[i].doc().unwrap());
        // Find pivot: smallest prefix whose max-score sum beats the bar.
        let bar = topk.threshold();
        let mut acc = 0.0f32;
        let mut pivot = None;
        for (rank, &ci) in order.iter().enumerate() {
            acc += cursors[ci].list_max();
            if acc > bar || bar == f32::NEG_INFINITY {
                pivot = Some(rank);
                break;
            }
        }
        let Some(pivot_rank) = pivot else {
            break; // even all lists together can't beat the bar
        };
        let pivot_doc = cursors[order[pivot_rank]].doc().unwrap();
        if cursors[order[0]].doc().unwrap() == pivot_doc {
            // All cursors before the pivot sit on pivot_doc: score it fully.
            let mut score = 0.0f32;
            for c in cursors.iter_mut() {
                if c.doc() == Some(pivot_doc) {
                    score += c.score();
                    c.next();
                    stats.sorted_accesses += 1;
                }
            }
            topk.offer(pivot_doc, score);
        } else {
            // Advance the laggard(s) up to the pivot doc.
            for &ci in &order[..pivot_rank] {
                cursors[ci].advance(pivot_doc);
                stats.sorted_accesses += 1;
            }
        }
    }
    (topk.into_sorted_vec(), stats)
}

/// Seeker-dependent per-tagger weights, as seen by [`BlockMaxWand`].
///
/// Implementations live with the proximity models (`friends-core`); the
/// index crate only needs two capabilities: the exact weight of one tagger,
/// and a sound *upper bound* over a contiguous tagger-id range (the per-block
/// min/max range recorded by `PostingList::build_with_taggers`).
///
/// # Contract
/// `max_in_range(lo, hi)` must be `>= sigma(u)` for every `u ∈ [lo, hi]`,
/// and all values must be finite and non-negative. An overestimate only
/// weakens pruning; an underestimate breaks exactness.
pub trait SigmaBound {
    /// Exact σ of one tagger.
    fn sigma(&self, tagger: u32) -> f64;
    /// Upper bound on σ over taggers in `lo..=hi`.
    fn max_in_range(&self, lo: u32, hi: u32) -> f64;
}

/// `σ ≡ 1`: reduces [`BlockMaxWand`] to classical block-max WAND over the
/// global (σ-free) scores.
pub struct UnitSigma;

impl SigmaBound for UnitSigma {
    fn sigma(&self, _tagger: u32) -> f64 {
        1.0
    }
    fn max_in_range(&self, _lo: u32, _hi: u32) -> f64 {
        1.0
    }
}

/// How [`BlockMaxWand`] accumulates a document's score — chosen to be
/// bit-identical to the processor it serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigmaAccum {
    /// Per-contribution `(σ · w) as f32` adds into an f32 total, skipping
    /// `σ == 0` taggers; a doc is a result iff any tagger had `σ > 0`
    /// (`ExactOnline`'s `DenseAccumulator` semantics).
    F32,
    /// f64 accumulation, one final cast; a doc is a result iff its cast
    /// score is `> 0` (`GlobalBoundTA`'s `score_item` semantics).
    F64,
}

/// Relative slack applied to every pruning comparison: block/list upper
/// bounds are products of exact f64 σ bounds and the build-time-inflated
/// `sigma_base`, but chained f32 accumulation *across* lists can drift above
/// the exact sum by ~`total_terms · 2⁻²⁴` relative in the adversarial worst
/// case. `1e-3` covers ≈8k-term drifts — orders of magnitude beyond what
/// round-to-nearest produces on real weights — at a negligible pruning cost.
const BOUND_SLACK: f64 = 1.0 + 1e-3;

/// Per-list cursor state owned by [`BlockMaxWand`], reused across queries.
#[derive(Default)]
struct ListState {
    block: usize,
    pos: usize,
    cur_doc: DocId,
    exhausted: bool,
    /// Element index of the current block's first entry.
    elem_base: usize,
    /// Doc ids of the current block (decoded or copied).
    docs: Vec<DocId>,
    /// `sigma_base · σ-range-max` over the whole list.
    list_bound: f64,
    /// Cached block bound + σ-range max, valid for `bound_block`.
    block_bound: f64,
    block_sigma_max: f64,
    bound_block: usize,
}

/// **Block-max σ-aware WAND**: exact document-at-a-time top-k over σ-aware
/// posting lists (`PostingList::build_with_taggers`), skipping whole blocks
/// whenever `block.sigma_base · max σ over the block's tagger range` cannot
/// reach the current k-th threshold — the personalized generalization of
/// block-max WAND that serves seeker-dependent scores without falling back
/// to full posting scans.
///
/// Two structural prunes compose:
/// * **threshold prune** — classical WAND pivoting on list-level bounds,
///   refined by per-block bounds before any block is decoded;
/// * **support prune** — a block whose tagger range has `max σ == 0` (e.g. a
///   FriendsOnly seeker whose friends all fall outside the range) is skipped
///   even while the heap is not yet full: no document in it can be touched.
///
/// The operator owns all per-list scratch (block decode buffers, the pivot
/// ordering), so a warm instance performs no per-query allocation beyond the
/// result vector; [`BlockMaxWand::allocation_count`] exposes buffer-growth
/// events for the hot-path allocation tests.
///
/// Lists **without** tagger groups are scored by their entry score verbatim
/// (the `σ ≡ 1` interpretation); mixing them with a non-unit [`SigmaBound`]
/// is unsound and must be avoided by the caller.
#[derive(Default)]
pub struct BlockMaxWand {
    states: Vec<ListState>,
    order: Vec<usize>,
    allocations: u64,
}

impl BlockMaxWand {
    /// Creates an operator with empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        BlockMaxWand::default()
    }

    /// Buffer-growth events since creation (constant once warm).
    pub fn allocation_count(&self) -> u64 {
        self.allocations
    }

    fn load_block(st: &mut ListState, list: &PostingList, bi: usize, allocations: &mut u64) {
        st.block = bi;
        st.pos = 0;
        st.elem_base = list.block(bi).elem_start;
        let cap = st.docs.capacity();
        list.block_docs_into(bi, &mut st.docs);
        if st.docs.capacity() != cap {
            *allocations += 1;
        }
        st.cur_doc = st.docs[0];
    }

    /// Steps to the next posting.
    fn step(st: &mut ListState, list: &PostingList, allocations: &mut u64) {
        st.pos += 1;
        if st.pos >= st.docs.len() {
            if st.block + 1 < list.num_blocks() {
                Self::load_block(st, list, st.block + 1, allocations);
            } else {
                st.exhausted = true;
            }
        } else {
            st.cur_doc = st.docs[st.pos];
        }
    }

    /// First block index at or after `from` whose `last_doc >= target`, or
    /// `None` when the list has no such block.
    fn seek_block(list: &PostingList, from: usize, target: DocId) -> Option<usize> {
        let nb = list.num_blocks();
        if from < nb && list.block(from).last_doc >= target {
            return Some(from);
        }
        let (mut lo, mut hi) = (from + 1, nb);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if list.block(mid).last_doc < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < nb).then_some(lo)
    }

    /// Advances to the first posting with `doc >= target`.
    fn advance(st: &mut ListState, list: &PostingList, target: DocId, allocations: &mut u64) {
        if st.exhausted || st.cur_doc >= target {
            return;
        }
        match Self::seek_block(list, st.block, target) {
            None => st.exhausted = true,
            Some(bi) => {
                if bi != st.block {
                    Self::load_block(st, list, bi, allocations);
                }
                // `last_doc >= target` guarantees an in-block hit.
                st.pos = st.docs.partition_point(|&d| d < target);
                st.cur_doc = st.docs[st.pos];
            }
        }
    }

    /// Accumulates entry `elem` of `list` into the running score, in the
    /// documented per-mode semantics.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn accumulate_entry(
        list: &PostingList,
        elem: usize,
        sigma: &dyn SigmaBound,
        accum: SigmaAccum,
        acc32: &mut f32,
        acc64: &mut f64,
        touched: &mut bool,
        stats: &mut AccessStats,
    ) {
        if list.has_taggers() {
            let group = list.taggers_of(elem);
            stats.sorted_accesses += group.len();
            for &(u, w) in group {
                let s = sigma.sigma(u);
                if s > 0.0 {
                    *touched = true;
                    match accum {
                        SigmaAccum::F32 => *acc32 += (s * w as f64) as f32,
                        SigmaAccum::F64 => *acc64 += s * w as f64,
                    }
                }
            }
        } else {
            stats.sorted_accesses += 1;
            *touched = true;
            let w = list.score_at(elem);
            match accum {
                SigmaAccum::F32 => *acc32 += w,
                SigmaAccum::F64 => *acc64 += w as f64,
            }
        }
    }

    /// Offers an accumulated doc score under the mode's result criterion.
    #[inline]
    fn offer_scored(
        topk: &mut TopK,
        doc: DocId,
        accum: SigmaAccum,
        acc32: f32,
        acc64: f64,
        touched: bool,
    ) {
        match accum {
            SigmaAccum::F32 => {
                if touched {
                    topk.offer(doc, acc32);
                }
            }
            SigmaAccum::F64 => {
                let sc = acc64 as f32;
                if sc > 0.0 {
                    topk.offer(doc, sc);
                }
            }
        }
    }

    /// Exhausts the last live list without the pivot machinery: per block,
    /// one σ-range bound (metadata only) decides between skipping the whole
    /// block — **without decoding it** — and scoring its docs, each first
    /// checked against its own `mass · block σ-max` bound before any tagger
    /// group is read. This is also the whole algorithm for single-term
    /// queries.
    #[allow(clippy::too_many_arguments)]
    fn drain_single(
        st: &mut ListState,
        list: &PostingList,
        sigma: &dyn SigmaBound,
        accum: SigmaAccum,
        topk: &mut TopK,
        stats: &mut AccessStats,
        allocations: &mut u64,
    ) {
        // The entry block is already decoded (the cursor sits mid-block);
        // blocks reached by skipping are decoded lazily, only when scored.
        let mut decoded = true;
        while !st.exhausted {
            let bar = topk.threshold();
            let full = bar != f32::NEG_INFINITY;
            if st.bound_block != st.block {
                let b = list.block(st.block);
                let smax = sigma.max_in_range(b.min_tagger, b.max_tagger);
                st.block_sigma_max = smax;
                st.block_bound = b.sigma_base as f64 * smax;
                st.bound_block = st.block;
                stats.random_accesses += 1;
            }
            if st.block_sigma_max == 0.0 || (full && st.block_bound * BOUND_SLACK <= bar as f64) {
                stats.blocks_skipped += 1;
            } else {
                if !decoded {
                    Self::load_block(st, list, st.block, allocations);
                    decoded = true;
                }
                let smax = st.block_sigma_max;
                let count = st.docs.len();
                while st.pos < count {
                    let elem = st.elem_base + st.pos;
                    let bar = topk.threshold();
                    if bar != f32::NEG_INFINITY
                        && smax * list.score_at(elem) as f64 * BOUND_SLACK <= bar as f64
                    {
                        st.pos += 1;
                        continue;
                    }
                    let mut acc32 = 0.0f32;
                    let mut acc64 = 0.0f64;
                    let mut touched = false;
                    Self::accumulate_entry(
                        list,
                        elem,
                        sigma,
                        accum,
                        &mut acc32,
                        &mut acc64,
                        &mut touched,
                        stats,
                    );
                    Self::offer_scored(topk, st.docs[st.pos], accum, acc32, acc64, touched);
                    st.pos += 1;
                }
            }
            if st.block + 1 < list.num_blocks() {
                // Move to the next block by metadata only; decode on demand.
                st.block += 1;
                st.pos = 0;
                decoded = false;
            } else {
                st.exhausted = true;
            }
        }
    }

    /// Bound info of the *shallow* block for `target`: the block (at or
    /// after the cursor) that would contain `target`, located via skip
    /// metadata only — nothing is decoded. Returns
    /// `(block bound, σ-range max, block last_doc)`, or `None` when the list
    /// holds no doc `>= target` (it then contributes nothing and imposes no
    /// skip constraint).
    fn shallow_bound(
        st: &mut ListState,
        list: &PostingList,
        target: DocId,
        sigma: &dyn SigmaBound,
        stats: &mut AccessStats,
    ) -> Option<(f64, f64, DocId)> {
        let bi = Self::seek_block(list, st.block, target)?;
        let b = list.block(bi);
        if st.bound_block != bi {
            let smax = sigma.max_in_range(b.min_tagger, b.max_tagger);
            st.block_sigma_max = smax;
            st.block_bound = b.sigma_base as f64 * smax;
            st.bound_block = bi;
            stats.random_accesses += 1;
        }
        Some((st.block_bound, st.block_sigma_max, b.last_doc))
    }

    /// Runs one exact top-k query. `lists` come in query-term order (the
    /// accumulation order processors score in); `k == 0` or empty input
    /// returns an empty ranking.
    pub fn search(
        &mut self,
        lists: &[&PostingList],
        sigma: &dyn SigmaBound,
        k: usize,
        accum: SigmaAccum,
    ) -> (Vec<(DocId, Score)>, AccessStats) {
        let mut stats = AccessStats::default();
        let mut topk = TopK::new(k);
        if lists.is_empty() || k == 0 {
            return (topk.into_sorted_vec(), stats);
        }
        if self.states.len() < lists.len() {
            self.states.resize_with(lists.len(), ListState::default);
            self.allocations += 1;
        }
        for (i, list) in lists.iter().enumerate() {
            let st = &mut self.states[i];
            st.block = 0;
            st.pos = 0;
            st.bound_block = usize::MAX;
            st.exhausted = list.is_empty();
            if st.exhausted {
                st.list_bound = 0.0;
                continue;
            }
            Self::load_block(st, list, 0, &mut self.allocations);
            let (lo, hi) = list.tagger_range();
            st.list_bound = list.sigma_base() as f64 * sigma.max_in_range(lo, hi);
            stats.random_accesses += 1;
        }
        let mut order = std::mem::take(&mut self.order);
        loop {
            let cap = order.capacity();
            order.clear();
            order.extend((0..lists.len()).filter(|&i| !self.states[i].exhausted));
            if order.capacity() != cap {
                self.allocations += 1;
            }
            if order.is_empty() {
                break;
            }
            if order.len() == 1 {
                let i = order[0];
                Self::drain_single(
                    &mut self.states[i],
                    lists[i],
                    sigma,
                    accum,
                    &mut topk,
                    &mut stats,
                    &mut self.allocations,
                );
                break;
            }
            order.sort_unstable_by_key(|&i| self.states[i].cur_doc);
            let bar = topk.threshold();
            let full = bar != f32::NEG_INFINITY;
            // Pivot: smallest prefix whose list-level bounds can beat the bar.
            let mut acc = 0.0f64;
            let mut pivot_rank = None;
            for (rank, &i) in order.iter().enumerate() {
                acc += self.states[i].list_bound;
                if !full || acc * BOUND_SLACK > bar as f64 {
                    pivot_rank = Some(rank);
                    break;
                }
            }
            let Some(mut pivot_rank) = pivot_rank else {
                break; // even all lists together can't beat the bar
            };
            let pivot_doc = self.states[order[pivot_rank]].cur_doc;
            // Fold doc ties into the prefix so every non-prefix cursor sits
            // strictly beyond the pivot (required by the skip-target logic).
            while pivot_rank + 1 < order.len()
                && self.states[order[pivot_rank + 1]].cur_doc == pivot_doc
            {
                pivot_rank += 1;
            }
            // Block-max refinement: per-block σ-aware bounds over the prefix.
            let mut bsum = 0.0f64;
            let mut sigma_alive = false;
            let mut min_block_last = u32::MAX;
            for &i in &order[..=pivot_rank] {
                if let Some((bound, smax, last)) =
                    Self::shallow_bound(&mut self.states[i], lists[i], pivot_doc, sigma, &mut stats)
                {
                    bsum += bound;
                    sigma_alive |= smax > 0.0;
                    min_block_last = min_block_last.min(last);
                }
            }
            if sigma_alive && (!full || bsum * BOUND_SLACK > bar as f64) {
                if self.states[order[0]].cur_doc == pivot_doc {
                    // Whole prefix aligned on the pivot. Per-doc refinement
                    // first: each list's contribution is bounded by its
                    // cached block σ-max times *this doc's own mass* — far
                    // tighter than the block mass max, and readable without
                    // touching any tagger group. (`shallow_bound` above has
                    // just validated the cache for the current blocks.)
                    let mut doc_bound = 0.0f64;
                    for &i in &order[..=pivot_rank] {
                        let st = &self.states[i];
                        doc_bound +=
                            st.block_sigma_max * lists[i].score_at(st.elem_base + st.pos) as f64;
                    }
                    if full && doc_bound * BOUND_SLACK <= bar as f64 {
                        for &i in &order[..=pivot_rank] {
                            Self::step(&mut self.states[i], lists[i], &mut self.allocations);
                        }
                        continue;
                    }
                    // Score it exactly, in list (query-term) order, ascending
                    // tagger within a group — the accumulation order every
                    // scan path uses.
                    let mut acc32 = 0.0f32;
                    let mut acc64 = 0.0f64;
                    let mut touched = false;
                    for (i, list) in lists.iter().enumerate() {
                        let st = &mut self.states[i];
                        if st.exhausted || st.cur_doc != pivot_doc {
                            continue;
                        }
                        Self::accumulate_entry(
                            list,
                            st.elem_base + st.pos,
                            sigma,
                            accum,
                            &mut acc32,
                            &mut acc64,
                            &mut touched,
                            &mut stats,
                        );
                        Self::step(st, list, &mut self.allocations);
                    }
                    Self::offer_scored(&mut topk, pivot_doc, accum, acc32, acc64, touched);
                } else {
                    // Advance the laggards up to the pivot doc.
                    for &i in &order[..pivot_rank] {
                        if self.states[i].cur_doc < pivot_doc {
                            Self::advance(
                                &mut self.states[i],
                                lists[i],
                                pivot_doc,
                                &mut self.allocations,
                            );
                        }
                    }
                }
            } else {
                // No doc in [pivot, min_block_last] can enter the top-k (or
                // be touched at all when `!sigma_alive`): jump every prefix
                // cursor past the constraining block, capped by the first
                // non-prefix cursor. `min_block_last + 1` can overflow when
                // a list carries doc id u32::MAX — the pruned range then
                // extends to the end of the id space, so an uncapped skip
                // must exhaust the prefix outright rather than "advance to
                // u32::MAX" (which would no-op on a cursor already there and
                // loop forever).
                stats.blocks_skipped += 1;
                let next_doc = (pivot_rank + 1 < order.len())
                    .then(|| self.states[order[pivot_rank + 1]].cur_doc);
                match (min_block_last.checked_add(1), next_doc) {
                    (base, Some(n)) => {
                        let target = base.map_or(n, |b| b.min(n));
                        for &i in &order[..=pivot_rank] {
                            if self.states[i].cur_doc < target {
                                Self::advance(
                                    &mut self.states[i],
                                    lists[i],
                                    target,
                                    &mut self.allocations,
                                );
                            }
                        }
                    }
                    (Some(target), None) => {
                        for &i in &order[..=pivot_rank] {
                            if self.states[i].cur_doc < target {
                                Self::advance(
                                    &mut self.states[i],
                                    lists[i],
                                    target,
                                    &mut self.allocations,
                                );
                            }
                        }
                    }
                    (None, None) => {
                        for &i in &order[..=pivot_rank] {
                            self.states[i].exhausted = true;
                        }
                    }
                }
            }
        }
        self.order = order;
        (topk.into_sorted_vec(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulate::taat_topk;
    use crate::postings::PostingConfig;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_lists(
        n_lists: usize,
        n_docs: u32,
        density: f64,
        seed: u64,
    ) -> Vec<Vec<(DocId, Score)>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_lists)
            .map(|_| {
                let mut entries = Vec::new();
                for d in 0..n_docs {
                    if rng.gen_bool(density) {
                        entries.push((d, rng.gen_range(0.01f32..5.0)));
                    }
                }
                entries
            })
            .collect()
    }

    #[test]
    fn topk_keeps_best_with_ties() {
        let mut t = TopK::new(2);
        t.offer(3, 1.0);
        t.offer(1, 1.0);
        t.offer(2, 1.0);
        t.offer(9, 0.5);
        // Ties broken toward smaller doc ids.
        assert_eq!(t.into_sorted_vec(), vec![(1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn topk_zero_k() {
        let mut t = TopK::new(0);
        t.offer(1, 5.0);
        assert!(t.is_empty());
        assert!(t.into_sorted_vec().is_empty());
    }

    #[test]
    fn topk_threshold_semantics() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f32::NEG_INFINITY);
        t.offer(1, 3.0);
        assert_eq!(t.threshold(), f32::NEG_INFINITY); // not full yet
        t.offer(2, 1.0);
        assert_eq!(t.threshold(), 1.0);
        t.offer(3, 2.0);
        assert_eq!(t.threshold(), 2.0);
    }

    #[test]
    fn wand_matches_brute_force_randomized() {
        for seed in 40..48u64 {
            let raw = random_lists(3, 300, 0.3, seed);
            let lists_pl: Vec<PostingList> = raw
                .iter()
                .map(|v| PostingList::build(v.clone(), PostingConfig::default()))
                .collect();
            let refs: Vec<&PostingList> = lists_pl.iter().collect();
            for k in [1usize, 7, 25] {
                let (got, _) = wand_topk(&refs, k);
                let want = taat_topk(&refs, k);
                assert_eq!(
                    got.iter().map(|h| h.0).collect::<Vec<_>>(),
                    want.iter().map(|h| h.0).collect::<Vec<_>>(),
                    "seed {seed} k {k}"
                );
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.1 - w.1).abs() < 1e-4);
                }
            }
        }
    }

    /// Sorted sparse σ support for tests: exact range max by scan.
    struct SparseSigma(Vec<(u32, f64)>);

    impl SigmaBound for SparseSigma {
        fn sigma(&self, tagger: u32) -> f64 {
            match self.0.binary_search_by_key(&tagger, |&(u, _)| u) {
                Ok(i) => self.0[i].1,
                Err(_) => 0.0,
            }
        }
        fn max_in_range(&self, lo: u32, hi: u32) -> f64 {
            let a = self.0.partition_point(|&(u, _)| u < lo);
            self.0[a..]
                .iter()
                .take_while(|&&(u, _)| u <= hi)
                .map(|&(_, s)| s)
                .fold(0.0, f64::max)
        }
    }

    /// F32-accumulation reference for σ-weighted scoring: per doc, lists in
    /// order, ascending tagger within a group — mirrors every scan path.
    fn sigma_reference(
        lists: &[Vec<(DocId, u32, f32)>],
        sigma: &dyn SigmaBound,
        k: usize,
    ) -> Vec<(DocId, Score)> {
        let mut per_doc: std::collections::BTreeMap<DocId, (f32, bool)> =
            std::collections::BTreeMap::new();
        for raw in lists {
            let mut sorted = raw.clone();
            sorted.sort_unstable_by_key(|&(d, u, _)| (d, u));
            sorted.dedup_by(|n, kept| {
                if n.0 == kept.0 && n.1 == kept.1 {
                    kept.2 += n.2;
                    true
                } else {
                    false
                }
            });
            for (d, u, w) in sorted {
                let s = sigma.sigma(u);
                if s > 0.0 {
                    let e = per_doc.entry(d).or_insert((0.0, false));
                    e.0 += (s * w as f64) as f32;
                    e.1 = true;
                }
            }
        }
        let mut topk = TopK::new(k);
        for (d, (sc, touched)) in per_doc {
            if touched {
                topk.offer(d, sc);
            }
        }
        topk.into_sorted_vec()
    }

    #[test]
    fn blockmax_unit_sigma_matches_wand() {
        let mut bmw = BlockMaxWand::new();
        for seed in 60..66u64 {
            let raw = random_lists(3, 300, 0.3, seed);
            let plists: Vec<PostingList> = raw
                .iter()
                .map(|v| {
                    PostingList::build(
                        v.clone(),
                        PostingConfig {
                            block_len: 16,
                            ..PostingConfig::default()
                        },
                    )
                })
                .collect();
            let refs: Vec<&PostingList> = plists.iter().collect();
            for k in [1usize, 7, 25] {
                let (got, _) = bmw.search(&refs, &UnitSigma, k, SigmaAccum::F32);
                let (want, _) = wand_topk(&refs, k);
                assert_eq!(
                    got.iter().map(|h| h.0).collect::<Vec<_>>(),
                    want.iter().map(|h| h.0).collect::<Vec<_>>(),
                    "seed {seed} k {k}"
                );
            }
        }
    }

    #[test]
    fn blockmax_sigma_weighted_matches_reference() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut bmw = BlockMaxWand::new();
        for _round in 0..8 {
            let mut lists_raw: Vec<Vec<(DocId, u32, f32)>> = Vec::new();
            for _ in 0..3 {
                let mut l = Vec::new();
                for _ in 0..200 {
                    if rng.gen_bool(0.4) {
                        l.push((
                            rng.gen_range(0u32..150),
                            rng.gen_range(0u32..40),
                            rng.gen_range(0.01f32..3.0),
                        ));
                    }
                }
                lists_raw.push(l);
            }
            let mut support: Vec<(u32, f64)> = Vec::new();
            for u in 0..40u32 {
                if rng.gen_bool(0.3) {
                    support.push((u, rng.gen_range(0.05f64..1.0)));
                }
            }
            let sigma = SparseSigma(support);
            let plists: Vec<PostingList> = lists_raw
                .iter()
                .map(|v| {
                    PostingList::build_with_taggers(
                        v.clone(),
                        PostingConfig {
                            block_len: 4,
                            ..PostingConfig::default()
                        },
                    )
                })
                .collect();
            let refs: Vec<&PostingList> = plists.iter().collect();
            for k in [1usize, 5, 100] {
                let (got, _) = bmw.search(&refs, &sigma, k, SigmaAccum::F32);
                let want = sigma_reference(&lists_raw, &sigma, k);
                assert_eq!(want.len(), got.len(), "k {k}");
                for (w, g) in want.iter().zip(&got) {
                    assert_eq!(w.0, g.0, "k {k}");
                    assert_eq!(w.1.to_bits(), g.1.to_bits(), "k {k} doc {}", w.0);
                }
            }
        }
    }

    #[test]
    fn blockmax_empty_support_skips_everything() {
        let triples: Vec<(DocId, u32, f32)> = (0..512u32).map(|d| (d, d % 64, 1.0)).collect();
        let list = PostingList::build_with_taggers(
            triples,
            PostingConfig {
                block_len: 8,
                ..PostingConfig::default()
            },
        );
        let mut bmw = BlockMaxWand::new();
        // σ lives entirely outside the tagger universe: nothing is touched,
        // and the support prune must skip without decoding groups.
        let sigma = SparseSigma(vec![(1000, 1.0)]);
        let (got, stats) = bmw.search(&[&list], &sigma, 10, SigmaAccum::F32);
        assert!(got.is_empty());
        assert_eq!(stats.sorted_accesses, 0, "no posting may be scored");
        assert!(stats.blocks_skipped > 0);
    }

    #[test]
    fn blockmax_handles_max_doc_id_without_hanging() {
        // Regression: a posting at doc u32::MAX makes the skip target
        // `min_block_last + 1` overflow; the skip must exhaust the pruned
        // cursors instead of "advancing" to a doc id that cannot grow.
        let triples: Vec<(DocId, u32, f32)> =
            vec![(10, 3, 1.0), (u32::MAX - 1, 4, 1.0), (u32::MAX, 5, 2.0)];
        let cfg = PostingConfig {
            block_len: 2,
            ..PostingConfig::default()
        };
        let l1 = PostingList::build_with_taggers(triples.clone(), cfg);
        let l2 = PostingList::build_with_taggers(triples, cfg);
        let mut bmw = BlockMaxWand::new();
        // Support prune path: σ = 0 everywhere → skip branch fires on every
        // pivot, including the one at u32::MAX.
        let (got, _) = bmw.search(&[&l1, &l2], &SparseSigma(vec![]), 5, SigmaAccum::F32);
        assert!(got.is_empty());
        // Threshold prune path: one strong tagger fills the heap, the rest
        // of both lists (ending at u32::MAX) is pruned by the bar.
        let sigma = SparseSigma(vec![(3, 1.0)]);
        let (got, _) = bmw.search(&[&l1, &l2], &sigma, 1, SigmaAccum::F32);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 10);
        // And scoring at u32::MAX itself works.
        let sigma_all = SparseSigma(vec![(3, 0.5), (4, 0.5), (5, 0.5)]);
        let (got, _) = bmw.search(&[&l1, &l2], &sigma_all, 3, SigmaAccum::F32);
        assert_eq!(got.first().map(|h| h.0), Some(u32::MAX));
    }

    #[test]
    fn drain_single_skips_blocks_without_decoding() {
        // All σ mass outside the tagger universe: every block must be
        // support-pruned, and — on the single-list drain — skipped blocks
        // must not be decoded (no sorted accesses, no decode allocations
        // beyond the entry block).
        let triples: Vec<(DocId, u32, f32)> = (0..512u32).map(|d| (d, d % 64, 1.0)).collect();
        let list = PostingList::build_with_taggers(
            triples,
            PostingConfig {
                block_len: 8,
                ..PostingConfig::default()
            },
        );
        let mut bmw = BlockMaxWand::new();
        let sigma = SparseSigma(vec![(1000, 1.0)]);
        bmw.search(&[&list], &sigma, 10, SigmaAccum::F32);
        let warm = bmw.allocation_count();
        let (got, stats) = bmw.search(&[&list], &sigma, 10, SigmaAccum::F32);
        assert!(got.is_empty());
        assert_eq!(stats.sorted_accesses, 0);
        assert_eq!(stats.blocks_skipped, list.num_blocks());
        assert_eq!(
            bmw.allocation_count(),
            warm,
            "skipped blocks must not grow decode buffers"
        );
    }

    #[test]
    fn blockmax_warm_instance_does_not_allocate() {
        let raw = random_lists(3, 400, 0.3, 123);
        let plists: Vec<PostingList> = raw
            .iter()
            .map(|v| PostingList::build(v.clone(), PostingConfig::default()))
            .collect();
        let refs: Vec<&PostingList> = plists.iter().collect();
        let mut bmw = BlockMaxWand::new();
        bmw.search(&refs, &UnitSigma, 10, SigmaAccum::F32);
        let warm = bmw.allocation_count();
        for k in [1usize, 5, 10, 25] {
            bmw.search(&refs, &UnitSigma, k, SigmaAccum::F32);
        }
        assert_eq!(bmw.allocation_count(), warm, "warm operator reallocated");
    }

    #[test]
    fn empty_inputs() {
        assert!(wand_topk(&[], 5).0.is_empty());
        let mut bmw = BlockMaxWand::new();
        assert!(bmw.search(&[], &UnitSigma, 5, SigmaAccum::F32).0.is_empty());
        let empty_pl = PostingList::build(vec![], PostingConfig::default());
        assert!(bmw
            .search(&[&empty_pl], &UnitSigma, 5, SigmaAccum::F64)
            .0
            .is_empty());
        let (r, _) = wand_topk(&[&empty_pl], 3);
        assert!(r.is_empty());
    }

    #[test]
    fn k_larger_than_candidates() {
        let l = PostingList::build(vec![(1, 1.0), (2, 2.0)], PostingConfig::default());
        let (r, _) = wand_topk(&[&l], 10);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, 2);
    }

    #[test]
    fn single_list_fast_paths() {
        let entries: Vec<(DocId, Score)> = (0..100).map(|d| (d, (d % 13) as f32)).collect();
        let pl = PostingList::build(entries, PostingConfig::default());
        let (w, _) = wand_topk(&[&pl], 5);
        let bf = taat_topk(&[&pl], 5);
        assert_eq!(
            w.iter().map(|h| h.0).collect::<Vec<_>>(),
            bf.iter().map(|h| h.0).collect::<Vec<_>>()
        );
    }
}
