//! Posting lists: blocks of `(doc, score)` pairs sorted by document id, with
//! per-block skip metadata (first/last doc, max score) enabling `advance()`
//! seeks and WAND-style block-max pruning.
//!
//! Document ids can be stored raw (`u32` per entry) or delta-varint
//! compressed per block; scores are always raw `f32` (float compression is
//! out of scope — the Table 3 ablation measures doc-id compression only).

use crate::varint;
use crate::{DocId, Score};
use serde::{Deserialize, Serialize};

/// Default number of entries per block. 128 balances skip granularity
/// against decode overhead, matching common practice (e.g. Lucene).
pub const DEFAULT_BLOCK_LEN: usize = 128;

/// Document-id storage format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Encoding {
    /// 4 bytes per doc id; fastest decode.
    Raw,
    /// Per-block delta varint; ~1 byte per id for dense lists.
    DeltaVarint,
}

/// Build-time options for a posting list.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PostingConfig {
    pub encoding: Encoding,
    /// Entries per block (must be ≥ 1).
    pub block_len: usize,
    /// When false, [`PostingCursor::advance`] scans linearly instead of
    /// binary-searching block metadata — the "no skip pointers" ablation.
    pub skips_enabled: bool,
}

impl Default for PostingConfig {
    fn default() -> Self {
        PostingConfig {
            encoding: Encoding::DeltaVarint,
            block_len: DEFAULT_BLOCK_LEN,
            skips_enabled: true,
        }
    }
}

/// Per-block skip entry.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct BlockMeta {
    first_doc: DocId,
    last_doc: DocId,
    max_score: Score,
    /// Byte offset into `data` (DeltaVarint) — unused for Raw.
    byte_start: u32,
    /// Element offset of the block start within the list.
    elem_start: u32,
    /// Entries in this block.
    count: u32,
    /// Smallest tagger id contributing to any entry of this block
    /// (`0` for lists built without tagger groups).
    min_tagger: u32,
    /// Largest tagger id contributing to any entry of this block
    /// (`u32::MAX` for lists built without tagger groups — an unconstrained
    /// range, so σ-aware bounds degrade soundly to the global bound).
    max_tagger: u32,
    /// Conservative upper bound on any single entry's score as *accumulated
    /// by a scorer* (see [`PostingList::build_with_taggers`]): the largest
    /// per-doc weight mass in the block, inflated to absorb f32 summation
    /// rounding. Equals `max_score` for lists built without tagger groups.
    sigma_base: Score,
}

/// An immutable posting list sorted by document id.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PostingList {
    config: PostingConfig,
    len: usize,
    max_score: Score,
    blocks: Vec<BlockMeta>,
    /// Raw doc ids (Raw encoding) — empty for DeltaVarint.
    docs: Vec<DocId>,
    /// Compressed doc ids (DeltaVarint) — empty for Raw.
    data: Vec<u8>,
    /// Scores for all entries, in doc order.
    scores: Vec<Score>,
    /// Per-entry tagger-group offsets into `taggers`
    /// (`tagger_offsets[i]..tagger_offsets[i+1]` is entry `i`'s group).
    /// Empty for lists built without tagger groups.
    tagger_offsets: Vec<u32>,
    /// `(tagger, weight)` pairs, ascending tagger id within each group.
    taggers: Vec<(u32, Score)>,
    /// List-level tagger range and σ-aware score bound, folded over the
    /// blocks at build time so per-query reads are O(1).
    list_min_tagger: u32,
    list_max_tagger: u32,
    list_sigma_base: Score,
}

/// Public snapshot of one block's skip metadata — what block-skipping
/// operators and the block-boundary fuzz tests consume.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockInfo {
    pub first_doc: DocId,
    pub last_doc: DocId,
    pub max_score: Score,
    /// See the `sigma_base` field docs on the block metadata: a rounding-safe
    /// upper bound on any entry's accumulated score in this block.
    pub sigma_base: Score,
    pub min_tagger: u32,
    pub max_tagger: u32,
    /// Element offset of the block start within the list.
    pub elem_start: usize,
    /// Entries in this block.
    pub count: usize,
    /// Byte offset of the block into the varint stream (0 for Raw).
    pub byte_start: usize,
}

impl PostingList {
    /// Builds a list from `(doc, score)` pairs. Pairs may be unsorted and may
    /// contain duplicate docs, whose scores are **summed** (a tag applied by
    /// several users accumulates weight).
    pub fn build(mut entries: Vec<(DocId, Score)>, config: PostingConfig) -> Self {
        assert!(config.block_len >= 1, "block_len must be >= 1");
        entries.sort_unstable_by_key(|&(d, _)| d);
        entries.dedup_by(|next, kept| {
            if next.0 == kept.0 {
                kept.1 += next.1;
                true
            } else {
                false
            }
        });
        let len = entries.len();
        let mut blocks = Vec::with_capacity(len.div_ceil(config.block_len));
        let mut docs = Vec::new();
        let mut data = Vec::new();
        let mut scores = Vec::with_capacity(len);
        let mut max_score = 0.0f32;
        for (bi, chunk) in entries.chunks(config.block_len).enumerate() {
            let ids: Vec<DocId> = chunk.iter().map(|&(d, _)| d).collect();
            let block_max = chunk
                .iter()
                .map(|&(_, s)| s)
                .fold(f32::NEG_INFINITY, f32::max);
            max_score = max_score.max(block_max);
            blocks.push(BlockMeta {
                first_doc: ids[0],
                last_doc: *ids.last().unwrap(),
                max_score: block_max,
                byte_start: data.len() as u32,
                elem_start: (bi * config.block_len) as u32,
                count: ids.len() as u32,
                min_tagger: 0,
                max_tagger: u32::MAX,
                sigma_base: block_max,
            });
            match config.encoding {
                Encoding::Raw => docs.extend_from_slice(&ids),
                Encoding::DeltaVarint => varint::encode_sorted(&ids, &mut data),
            }
            scores.extend(chunk.iter().map(|&(_, s)| s));
        }
        if len == 0 {
            max_score = 0.0;
        }
        PostingList {
            config,
            len,
            max_score,
            blocks,
            docs,
            data,
            scores,
            tagger_offsets: Vec::new(),
            taggers: Vec::new(),
            list_min_tagger: 0,
            list_max_tagger: u32::MAX,
            list_sigma_base: max_score,
        }
    }

    /// Builds a **σ-aware** list from `(doc, tagger, weight)` triples: one
    /// entry per doc whose *score* is the doc's total weight mass (the
    /// f32-accumulated `Σ_tagger weight`, ascending tagger order — bit-equal
    /// to a tag-slice scan), carrying the per-doc `(tagger, weight)` group so
    /// a scorer can evaluate `Σ_tagger σ(tagger) · weight` exactly. Duplicate
    /// `(doc, tagger)` pairs have their weights summed.
    ///
    /// Every block additionally records the min/max tagger id over the
    /// groups it covers and a rounding-safe `sigma_base` bound, enabling
    /// sound per-block upper bounds `sigma_base · max σ over [min, max]` for
    /// block-max pruning under seeker-dependent weights.
    ///
    /// # Panics
    /// Panics on non-finite or negative weights.
    pub fn build_with_taggers(
        mut entries: Vec<(DocId, u32, Score)>,
        config: PostingConfig,
    ) -> Self {
        assert!(config.block_len >= 1, "block_len must be >= 1");
        for &(_, _, w) in &entries {
            assert!(w.is_finite() && w >= 0.0, "bad weight {w}");
        }
        entries.sort_unstable_by_key(|&(d, u, _)| (d, u));
        entries.dedup_by(|next, kept| {
            if next.0 == kept.0 && next.1 == kept.1 {
                kept.2 += next.2;
                true
            } else {
                false
            }
        });
        let mut list = PostingList {
            config,
            len: 0,
            max_score: 0.0,
            blocks: Vec::new(),
            docs: Vec::new(),
            data: Vec::new(),
            scores: Vec::new(),
            tagger_offsets: vec![0],
            taggers: Vec::new(),
            list_min_tagger: u32::MAX,
            list_max_tagger: 0,
            list_sigma_base: 0.0,
        };
        list.push_tagged_blocks(entries);
        list
    }

    /// This σ-aware list after its term's triples changed from doc
    /// `first_changed` on, none below it: the list
    /// [`PostingList::build_with_taggers`] builds over the new triples, bit
    /// for bit, at the cost of the changed tail. Blocks are cut by
    /// position, so every full block whose docs all sit below
    /// `first_changed` is unchanged: those are copied as they are —
    /// metadata, bytes, scores, tagger offsets and taggers — and the block
    /// loop re-runs over `suffix(start)`, every new `(doc, tagger, weight)`
    /// triple from doc `start` (one past the last kept doc) on, sorted by
    /// `(doc, tagger)` with unique keys (the order `build_with_taggers`
    /// sorts its input into).
    ///
    /// # Panics
    /// Panics on a list built without tagger groups.
    pub fn with_suffix_rebuilt<I>(
        &self,
        first_changed: DocId,
        suffix: impl FnOnce(DocId) -> I,
    ) -> Self
    where
        I: IntoIterator<Item = (DocId, u32, Score)>,
    {
        assert!(self.has_taggers(), "only σ-aware lists rebuild a suffix");
        // Every block but the last is full, so `len / block_len` bounds the
        // whole blocks below the first changed position.
        let kept = self
            .blocks
            .partition_point(|b| b.last_doc < first_changed)
            .min(self.len / self.config.block_len);
        let kept_len = kept * self.config.block_len;
        let kept_bytes = self
            .blocks
            .get(kept)
            .map_or(self.data.len(), |b| b.byte_start as usize);
        let start = kept
            .checked_sub(1)
            .map_or(0, |b| self.blocks[b].last_doc + 1);
        let suffix = suffix(start).into_iter();
        // Room for the suffix up front, so the block loop appends without
        // moving the copied prefix: its docs are at most its triples, and
        // a dense list's deltas take about a byte each.
        let room = suffix.size_hint().0;
        let (kept_docs, docs_room, data_room) = match self.config.encoding {
            Encoding::Raw => (kept_len, room, 0),
            Encoding::DeltaVarint => (0, 0, room),
        };
        let mut next = PostingList {
            blocks: with_room(&self.blocks[..kept], room.div_ceil(self.config.block_len)),
            docs: with_room(&self.docs[..kept_docs], docs_room),
            data: with_room(&self.data[..kept_bytes], data_room),
            scores: with_room(&self.scores[..kept_len], room),
            tagger_offsets: with_room(&self.tagger_offsets[..=kept_len], room),
            taggers: with_room(
                &self.taggers[..self.tagger_offsets[kept_len] as usize],
                room,
            ),
            len: kept_len,
            ..*self
        };
        next.push_tagged_blocks(suffix);
        next
    }

    /// The one σ-aware block loop, behind both
    /// [`PostingList::build_with_taggers`] and
    /// [`PostingList::with_suffix_rebuilt`]: appends `triples` — sorted by
    /// `(doc, tagger)`, keys unique, every doc past this list's last — as
    /// blocks after this list's (all full), then refolds the list-level
    /// bounds over every block.
    fn push_tagged_blocks(&mut self, triples: impl IntoIterator<Item = (DocId, u32, Score)>) {
        let block_len = self.config.block_len;
        debug_assert_eq!(self.len % block_len, 0, "kept blocks must be full");
        let triples = triples.into_iter();
        self.taggers.reserve(triples.size_hint().0);
        // Collapse to per-doc entries, tracking each doc's group extent.
        // `docs_meta[i] = (doc, mass_f32, group_start, group_len)`.
        let mut docs_meta: Vec<(DocId, Score, usize, usize)> = Vec::new();
        let mut last_key = self.blocks.last().map(|b| (b.last_doc, u32::MAX));
        for (d, u, w) in triples {
            debug_assert!(last_key < Some((d, u)), "unsorted or repeated triple");
            last_key = Some((d, u));
            match docs_meta.last_mut() {
                Some(m) if m.0 == d => {
                    m.1 += w;
                    m.3 += 1;
                }
                _ => docs_meta.push((d, w, self.taggers.len(), 1)),
            }
            self.taggers.push((u, w));
        }
        let taggers = &self.taggers;
        self.blocks.reserve(docs_meta.len().div_ceil(block_len));
        self.scores.reserve(docs_meta.len());
        self.tagger_offsets.reserve(docs_meta.len());
        if self.config.encoding == Encoding::Raw {
            self.docs.reserve(docs_meta.len());
        }
        let mut ids: Vec<DocId> = Vec::with_capacity(block_len);
        for chunk in docs_meta.chunks(block_len) {
            ids.clear();
            ids.extend(chunk.iter().map(|&(d, ..)| d));
            let mut block_max = f32::NEG_INFINITY;
            let mut sigma_base = 0.0f32;
            let mut min_tagger = u32::MAX;
            let mut max_tagger = 0u32;
            for &(_, mass, gs, gl) in chunk {
                block_max = block_max.max(mass);
                // Exact f64 mass inflated by a bound on the f32 accumulation
                // error of `gl` rounded nonnegative terms (≤ (m+1)·2⁻²³
                // relative, covering both the per-term f64→f32 casts and the
                // running-sum roundings), so `sigma_base · σmax` provably
                // dominates any σ-weighted f32 or f64 accumulation of the
                // dominated per-tagger terms.
                let exact: f64 = taggers[gs..gs + gl].iter().map(|&(_, w)| w as f64).sum();
                let inflated = exact * (1.0 + (gl as f64 + 2.0) * 2.0f64.powi(-23));
                sigma_base = sigma_base.max(inflated as f32);
                min_tagger = min_tagger.min(taggers[gs].0);
                max_tagger = max_tagger.max(taggers[gs + gl - 1].0);
            }
            self.blocks.push(BlockMeta {
                first_doc: ids[0],
                last_doc: *ids.last().unwrap(),
                max_score: block_max,
                byte_start: self.data.len() as u32,
                elem_start: self.len as u32,
                count: ids.len() as u32,
                min_tagger,
                max_tagger,
                sigma_base,
            });
            match self.config.encoding {
                Encoding::Raw => self.docs.extend_from_slice(&ids),
                Encoding::DeltaVarint => varint::encode_sorted(&ids, &mut self.data),
            }
            self.scores.extend(chunk.iter().map(|&(_, mass, ..)| mass));
            self.tagger_offsets
                .extend(chunk.iter().map(|&(.., gs, gl)| (gs + gl) as u32));
            self.len += chunk.len();
        }
        self.max_score = 0.0;
        self.list_min_tagger = u32::MAX;
        self.list_max_tagger = 0;
        self.list_sigma_base = 0.0;
        for b in &self.blocks {
            self.max_score = self.max_score.max(b.max_score);
            self.list_min_tagger = self.list_min_tagger.min(b.min_tagger);
            self.list_max_tagger = self.list_max_tagger.max(b.max_tagger);
            self.list_sigma_base = self.list_sigma_base.max(b.sigma_base);
        }
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest single score in the list (0.0 when empty) — the list-level
    /// upper bound used by TA/WAND.
    pub fn max_score(&self) -> Score {
        self.max_score
    }

    /// Build configuration.
    pub fn config(&self) -> PostingConfig {
        self.config
    }

    /// Approximate resident memory in bytes (payload + skip metadata).
    pub fn memory_bytes(&self) -> usize {
        self.docs.len() * 4
            + self.data.len()
            + self.scores.len() * 4
            + self.blocks.len() * std::mem::size_of::<BlockMeta>()
            + self.tagger_offsets.len() * 4
            + self.taggers.len() * std::mem::size_of::<(u32, Score)>()
    }

    /// Whether the list was built with per-entry tagger groups
    /// ([`PostingList::build_with_taggers`]).
    pub fn has_taggers(&self) -> bool {
        !self.tagger_offsets.is_empty()
    }

    /// The `(tagger, weight)` group of entry `idx` (element index within the
    /// list), ascending tagger id. Empty for lists built without taggers.
    #[inline]
    pub fn taggers_of(&self, idx: usize) -> &[(u32, Score)] {
        if self.tagger_offsets.is_empty() {
            return &[];
        }
        let lo = self.tagger_offsets[idx] as usize;
        let hi = self.tagger_offsets[idx + 1] as usize;
        &self.taggers[lo..hi]
    }

    /// Number of skip blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Skip metadata of block `bi`.
    pub fn block(&self, bi: usize) -> BlockInfo {
        let b = &self.blocks[bi];
        BlockInfo {
            first_doc: b.first_doc,
            last_doc: b.last_doc,
            max_score: b.max_score,
            sigma_base: b.sigma_base,
            min_tagger: b.min_tagger,
            max_tagger: b.max_tagger,
            elem_start: b.elem_start as usize,
            count: b.count as usize,
            byte_start: b.byte_start as usize,
        }
    }

    /// The varint byte range of block `bi` (empty for Raw encoding) — the
    /// skip-pointer target the block-boundary fuzz tests decode from.
    pub fn block_bytes(&self, bi: usize) -> &[u8] {
        if self.config.encoding != Encoding::DeltaVarint {
            return &[];
        }
        let start = self.blocks[bi].byte_start as usize;
        let end = self
            .blocks
            .get(bi + 1)
            .map_or(self.data.len(), |b| b.byte_start as usize);
        &self.data[start..end]
    }

    /// Decodes the doc ids of block `bi` into `out` (cleared first; capacity
    /// reused). Reads straight from the raw array for `Raw` encoding.
    pub fn block_docs_into(&self, bi: usize, out: &mut Vec<DocId>) {
        let b = &self.blocks[bi];
        match self.config.encoding {
            Encoding::Raw => {
                out.clear();
                let start = b.elem_start as usize;
                out.extend_from_slice(&self.docs[start..start + b.count as usize]);
            }
            Encoding::DeltaVarint => {
                let mut buf = &self.data[b.byte_start as usize..];
                varint::decode_sorted_into(&mut buf, b.count as usize, out)
                    .expect("corrupt posting block");
            }
        }
    }

    /// Score of entry `idx` (element index within the list).
    #[inline]
    pub fn score_at(&self, idx: usize) -> Score {
        self.scores[idx]
    }

    /// The min/max tagger id across the whole list — `(0, u32::MAX)` for
    /// lists without tagger groups (an unconstrained range), and
    /// `(u32::MAX, 0)` for empty tagger-built lists (an empty range).
    /// Precomputed at build time; O(1).
    pub fn tagger_range(&self) -> (u32, u32) {
        (self.list_min_tagger, self.list_max_tagger)
    }

    /// Largest per-block `sigma_base` — the list-level σ-aware score bound
    /// (0.0 when empty). Precomputed at build time; O(1).
    pub fn sigma_base(&self) -> Score {
        self.list_sigma_base
    }

    /// Opens a cursor positioned on the first posting.
    pub fn cursor(&self) -> PostingCursor<'_> {
        let mut c = PostingCursor {
            list: self,
            block: 0,
            decoded: Vec::new(),
            pos: 0,
            exhausted: self.len == 0,
        };
        if !c.exhausted {
            c.load_block(0);
        }
        c
    }

    /// Random-access score lookup by binary search over blocks then within
    /// the block. `O(log #blocks + block_len)` (decode) — used by TA.
    pub fn score_of(&self, doc: DocId) -> Option<Score> {
        if self.len == 0 {
            return None;
        }
        let bi = match self.blocks.binary_search_by(|b| {
            if doc < b.first_doc {
                std::cmp::Ordering::Greater
            } else if doc > b.last_doc {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => i,
            Err(_) => return None,
        };
        let b = &self.blocks[bi];
        match self.config.encoding {
            Encoding::Raw => {
                let start = b.elem_start as usize;
                let ids = &self.docs[start..start + b.count as usize];
                ids.binary_search(&doc).ok().map(|i| self.scores[start + i])
            }
            Encoding::DeltaVarint => {
                let mut buf = &self.data[b.byte_start as usize..];
                let ids = varint::decode_sorted(&mut buf, b.count as usize)
                    .expect("corrupt posting block");
                ids.binary_search(&doc)
                    .ok()
                    .map(|i| self.scores[b.elem_start as usize + i])
            }
        }
    }

    /// Decodes the whole list into `(doc, score)` pairs (tests/debugging).
    pub fn to_vec(&self) -> Vec<(DocId, Score)> {
        let mut c = self.cursor();
        let mut out = Vec::with_capacity(self.len);
        while let Some(d) = c.doc() {
            out.push((d, c.score()));
            c.next();
        }
        out
    }
}

/// `prefix` copied into a vector with room for `room` more.
fn with_room<T: Copy>(prefix: &[T], room: usize) -> Vec<T> {
    let mut v = Vec::with_capacity(prefix.len() + room);
    v.extend_from_slice(prefix);
    v
}

/// Forward cursor over a [`PostingList`], in document-id order.
pub struct PostingCursor<'a> {
    list: &'a PostingList,
    block: usize,
    /// Decoded doc ids of the current block (DeltaVarint only).
    decoded: Vec<DocId>,
    /// Position within the current block.
    pos: usize,
    exhausted: bool,
}

impl<'a> PostingCursor<'a> {
    fn load_block(&mut self, bi: usize) {
        self.block = bi;
        self.pos = 0;
        let b = &self.list.blocks[bi];
        if self.list.config.encoding == Encoding::DeltaVarint {
            let mut buf = &self.list.data[b.byte_start as usize..];
            varint::decode_sorted_into(&mut buf, b.count as usize, &mut self.decoded)
                .expect("corrupt posting block");
        }
    }

    /// The `(tagger, weight)` group of the current entry (empty for lists
    /// without tagger groups).
    ///
    /// # Panics
    /// Panics if the cursor is exhausted.
    pub fn taggers(&self) -> &[(u32, Score)] {
        assert!(!self.exhausted, "cursor exhausted");
        let b = &self.list.blocks[self.block];
        self.list.taggers_of(b.elem_start as usize + self.pos)
    }

    /// Current document id, or `None` when exhausted.
    #[inline]
    pub fn doc(&self) -> Option<DocId> {
        if self.exhausted {
            return None;
        }
        let b = &self.list.blocks[self.block];
        Some(match self.list.config.encoding {
            Encoding::Raw => self.list.docs[b.elem_start as usize + self.pos],
            Encoding::DeltaVarint => self.decoded[self.pos],
        })
    }

    /// Score of the current posting.
    ///
    /// # Panics
    /// Panics if the cursor is exhausted.
    #[inline]
    pub fn score(&self) -> Score {
        assert!(!self.exhausted, "cursor exhausted");
        let b = &self.list.blocks[self.block];
        self.list.scores[b.elem_start as usize + self.pos]
    }

    /// Max score of the current block (block-max pruning bound).
    pub fn block_max(&self) -> Score {
        if self.exhausted {
            0.0
        } else {
            self.list.blocks[self.block].max_score
        }
    }

    /// List-level max score.
    pub fn list_max(&self) -> Score {
        self.list.max_score()
    }

    /// Advances to the next posting.
    pub fn next(&mut self) {
        if self.exhausted {
            return;
        }
        self.pos += 1;
        if self.pos >= self.list.blocks[self.block].count as usize {
            if self.block + 1 < self.list.blocks.len() {
                let nb = self.block + 1;
                self.load_block(nb);
            } else {
                self.exhausted = true;
            }
        }
    }

    /// Advances to the first posting with `doc >= target` (no-op if already
    /// there). Uses skip metadata when enabled, linear scan otherwise.
    pub fn advance(&mut self, target: DocId) {
        if self.exhausted {
            return;
        }
        if let Some(d) = self.doc() {
            if d >= target {
                return;
            }
        }
        if self.list.config.skips_enabled {
            // Find first block whose last_doc >= target, at or after current.
            let blocks = &self.list.blocks;
            if blocks[self.block].last_doc < target {
                let rel = blocks[self.block + 1..].partition_point(|b| b.last_doc < target);
                let bi = self.block + 1 + rel;
                if bi >= blocks.len() {
                    self.exhausted = true;
                    return;
                }
                self.load_block(bi);
            }
            // Binary search inside the block.
            let b = &self.list.blocks[self.block];
            let idx = match self.list.config.encoding {
                Encoding::Raw => {
                    let start = b.elem_start as usize;
                    let ids = &self.list.docs[start..start + b.count as usize];
                    ids.partition_point(|&d| d < target)
                }
                Encoding::DeltaVarint => self.decoded.partition_point(|&d| d < target),
            };
            if idx >= b.count as usize {
                // target falls past this block (only possible when we didn't
                // move blocks); step into the next one.
                self.pos = b.count as usize - 1;
                self.next();
                self.advance(target);
            } else {
                self.pos = idx;
            }
        } else {
            while let Some(d) = self.doc() {
                if d >= target {
                    return;
                }
                self.next();
            }
        }
    }

    /// Whether the cursor has passed the last posting.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries(n: u32, stride: u32) -> Vec<(DocId, Score)> {
        (0..n)
            .map(|i| (i * stride + 1, (i % 17) as f32 + 0.5))
            .collect()
    }

    fn configs() -> Vec<PostingConfig> {
        vec![
            PostingConfig::default(),
            PostingConfig {
                encoding: Encoding::Raw,
                block_len: 128,
                skips_enabled: true,
            },
            PostingConfig {
                encoding: Encoding::DeltaVarint,
                block_len: 7,
                skips_enabled: true,
            },
            PostingConfig {
                encoding: Encoding::Raw,
                block_len: 3,
                skips_enabled: false,
            },
        ]
    }

    #[test]
    fn round_trip_all_configs() {
        let entries = sample_entries(500, 3);
        for cfg in configs() {
            let list = PostingList::build(entries.clone(), cfg);
            assert_eq!(list.len(), 500);
            assert_eq!(list.to_vec(), entries, "config {cfg:?}");
        }
    }

    #[test]
    fn empty_list() {
        let list = PostingList::build(vec![], PostingConfig::default());
        assert!(list.is_empty());
        assert_eq!(list.max_score(), 0.0);
        let mut c = list.cursor();
        assert_eq!(c.doc(), None);
        c.next();
        c.advance(10);
        assert!(c.is_exhausted());
        assert_eq!(list.score_of(5), None);
    }

    #[test]
    fn unsorted_input_with_duplicates_sums() {
        let list = PostingList::build(
            vec![(5, 1.0), (2, 2.0), (5, 0.5), (9, 1.0), (2, 1.0)],
            PostingConfig::default(),
        );
        assert_eq!(list.to_vec(), vec![(2, 3.0), (5, 1.5), (9, 1.0)]);
    }

    #[test]
    fn max_score_tracks_largest() {
        let list = PostingList::build(sample_entries(100, 2), PostingConfig::default());
        let expect = list
            .to_vec()
            .iter()
            .map(|&(_, s)| s)
            .fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(list.max_score(), expect);
    }

    #[test]
    fn score_of_random_access() {
        let entries = sample_entries(300, 5);
        for cfg in configs() {
            let list = PostingList::build(entries.clone(), cfg);
            for &(d, s) in &entries {
                assert_eq!(list.score_of(d), Some(s), "doc {d} cfg {cfg:?}");
            }
            assert_eq!(list.score_of(0), None);
            assert_eq!(list.score_of(2), None); // gap
            assert_eq!(list.score_of(10_000_000), None);
        }
    }

    #[test]
    fn advance_semantics() {
        let entries = sample_entries(200, 4); // docs 1, 5, 9, ...
        for cfg in configs() {
            let list = PostingList::build(entries.clone(), cfg);
            let mut c = list.cursor();
            c.advance(6);
            assert_eq!(c.doc(), Some(9), "cfg {cfg:?}");
            c.advance(9); // already there: no-op
            assert_eq!(c.doc(), Some(9));
            c.advance(700);
            assert_eq!(c.doc(), Some(701));
            c.advance(1_000_000);
            assert!(c.is_exhausted());
        }
    }

    #[test]
    fn advance_matches_linear_reference() {
        let entries = sample_entries(512, 3);
        let with_skips = PostingList::build(entries.clone(), PostingConfig::default());
        let without = PostingList::build(
            entries,
            PostingConfig {
                skips_enabled: false,
                ..PostingConfig::default()
            },
        );
        for target in [0u32, 1, 2, 100, 511, 512, 513, 1535, 1536, 9999] {
            let mut a = with_skips.cursor();
            let mut b = without.cursor();
            a.advance(target);
            b.advance(target);
            assert_eq!(a.doc(), b.doc(), "target {target}");
        }
    }

    #[test]
    fn interleaved_next_and_advance() {
        let entries = sample_entries(100, 7);
        let list = PostingList::build(
            entries.clone(),
            PostingConfig {
                block_len: 8,
                ..PostingConfig::default()
            },
        );
        let mut c = list.cursor();
        c.next();
        c.next();
        assert_eq!(c.doc(), Some(15));
        c.advance(16);
        assert_eq!(c.doc(), Some(22));
        c.next();
        assert_eq!(c.doc(), Some(29));
    }

    #[test]
    fn compression_shrinks_dense_lists() {
        let entries: Vec<(DocId, Score)> = (0..10_000).map(|i| (i, 1.0)).collect();
        let raw = PostingList::build(
            entries.clone(),
            PostingConfig {
                encoding: Encoding::Raw,
                ..PostingConfig::default()
            },
        );
        let packed = PostingList::build(entries, PostingConfig::default());
        assert!(
            (packed.memory_bytes() as f64) < 0.7 * raw.memory_bytes() as f64,
            "packed {} vs raw {}",
            packed.memory_bytes(),
            raw.memory_bytes()
        );
    }

    #[test]
    fn block_max_is_upper_bound_within_block() {
        let list = PostingList::build(
            sample_entries(300, 2),
            PostingConfig {
                block_len: 16,
                ..PostingConfig::default()
            },
        );
        let mut c = list.cursor();
        while let Some(_d) = c.doc() {
            assert!(c.score() <= c.block_max() + 1e-6);
            assert!(c.block_max() <= c.list_max() + 1e-6);
            c.next();
        }
    }

    #[test]
    fn tagger_build_groups_and_masses() {
        // doc 4 tagged by users 9 and 2 (dup (4, 2) merges), doc 1 by user 5.
        let list = PostingList::build_with_taggers(
            vec![(4, 9, 1.0), (1, 5, 2.0), (4, 2, 0.5), (4, 2, 0.25)],
            PostingConfig::default(),
        );
        assert!(list.has_taggers());
        assert_eq!(list.len(), 2);
        assert_eq!(list.to_vec(), vec![(1, 2.0), (4, 1.75)]);
        let mut c = list.cursor();
        assert_eq!(c.taggers(), &[(5, 2.0)]);
        c.next();
        assert_eq!(c.taggers(), &[(2, 0.75), (9, 1.0)]);
        assert_eq!(list.tagger_range(), (2, 9));
        assert!(list.sigma_base() >= list.max_score());
    }

    #[test]
    fn tagger_blocks_carry_sound_ranges_and_bounds() {
        // Many docs, 3 taggers each, small blocks: every block's tagger
        // range must cover its groups and sigma_base must dominate masses.
        let mut triples = Vec::new();
        for d in 0..200u32 {
            for t in 0..3u32 {
                triples.push((d, (d * 7 + t * 13) % 64, 0.1 + (t as f32) * 0.3));
            }
        }
        let list = PostingList::build_with_taggers(
            triples,
            PostingConfig {
                block_len: 9,
                ..PostingConfig::default()
            },
        );
        for bi in 0..list.num_blocks() {
            let b = list.block(bi);
            let mut mass_max = 0.0f32;
            for i in b.elem_start..b.elem_start + b.count {
                let group = list.taggers_of(i);
                assert!(!group.is_empty());
                assert!(group.windows(2).all(|w| w[0].0 < w[1].0), "unsorted group");
                for &(u, _) in group {
                    assert!((b.min_tagger..=b.max_tagger).contains(&u));
                }
                mass_max = mass_max.max(group.iter().map(|&(_, w)| w).sum());
            }
            assert!(b.sigma_base >= mass_max, "block {bi}");
            assert!(b.sigma_base >= b.max_score);
        }
    }

    #[test]
    fn taggerless_lists_have_unconstrained_ranges() {
        let list = PostingList::build(sample_entries(50, 2), PostingConfig::default());
        assert!(!list.has_taggers());
        assert_eq!(list.tagger_range(), (0, u32::MAX));
        assert_eq!(list.sigma_base(), list.max_score());
        assert!(list.taggers_of(0).is_empty());
    }

    #[test]
    fn block_docs_into_matches_cursor_walk() {
        let entries = sample_entries(300, 3);
        for cfg in configs() {
            let list = PostingList::build(entries.clone(), cfg);
            let want: Vec<DocId> = list.to_vec().iter().map(|&(d, _)| d).collect();
            let mut got = Vec::new();
            let mut buf = Vec::new();
            for bi in 0..list.num_blocks() {
                list.block_docs_into(bi, &mut buf);
                assert_eq!(buf.len(), list.block(bi).count);
                got.extend_from_slice(&buf);
            }
            assert_eq!(got, want, "cfg {cfg:?}");
        }
    }

    #[test]
    fn single_entry_list() {
        let list = PostingList::build(vec![(7, 2.5)], PostingConfig::default());
        assert_eq!(list.len(), 1);
        assert_eq!(list.max_score(), 2.5);
        let mut c = list.cursor();
        assert_eq!(c.doc(), Some(7));
        assert_eq!(c.score(), 2.5);
        c.next();
        assert!(c.is_exhausted());
    }
}
