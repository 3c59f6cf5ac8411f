//! Inverted index mapping term ids to posting lists.

use crate::postings::{PostingConfig, PostingList};
use crate::{DocId, Score, TermId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Build-time options for an [`InvertedIndex`].
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct IndexConfig {
    /// Posting-list configuration applied to every term.
    pub postings: PostingConfig,
}

/// An immutable inverted index: `term → PostingList` (doc-sorted).
///
/// Every list sits behind its own `Arc`: a clone copies one pointer per
/// term, and [`InvertedIndex::with_terms_rebuilt`] shares every list it
/// does not rebuild with the index it came from.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InvertedIndex {
    config: IndexConfig,
    lists: Vec<Arc<PostingList>>,
    num_docs: DocId,
    num_postings: usize,
}

impl InvertedIndex {
    /// Builds an index from `(term, doc, score)` triples in any order.
    /// Duplicate `(term, doc)` pairs accumulate their scores. Terms are dense
    /// ids; the index covers `0..=max_term` (missing terms get empty lists).
    pub fn build(
        triples: impl IntoIterator<Item = (TermId, DocId, Score)>,
        config: IndexConfig,
    ) -> Self {
        let mut per_term: Vec<Vec<(DocId, Score)>> = Vec::new();
        let mut num_docs = 0;
        let mut num_postings = 0usize;
        for (t, d, s) in triples {
            let ti = t as usize;
            if ti >= per_term.len() {
                per_term.resize_with(ti + 1, Vec::new);
            }
            per_term[ti].push((d, s));
            num_docs = num_docs.max(d + 1);
        }
        let lists: Vec<Arc<PostingList>> = per_term
            .into_iter()
            .map(|entries| {
                let l = PostingList::build(entries, config.postings);
                num_postings += l.len();
                Arc::new(l)
            })
            .collect();
        InvertedIndex {
            config,
            lists,
            num_docs,
            num_postings,
        }
    }

    /// Builds a **σ-aware** index from `(term, doc, tagger, weight)` quads:
    /// every term's list carries per-entry tagger groups and per-block
    /// tagger-id ranges (see [`PostingList::build_with_taggers`]), the
    /// substrate the block-max σ-aware WAND operator prunes over. Duplicate
    /// `(term, doc, tagger)` quads accumulate their weights.
    pub fn build_with_taggers(
        quads: impl IntoIterator<Item = (TermId, DocId, u32, Score)>,
        config: IndexConfig,
    ) -> Self {
        let mut per_term: Vec<Vec<(DocId, u32, Score)>> = Vec::new();
        let mut num_docs = 0;
        let mut num_postings = 0usize;
        for (t, d, u, w) in quads {
            let ti = t as usize;
            if ti >= per_term.len() {
                per_term.resize_with(ti + 1, Vec::new);
            }
            per_term[ti].push((d, u, w));
            num_docs = num_docs.max(d + 1);
        }
        let lists: Vec<Arc<PostingList>> = per_term
            .into_iter()
            .map(|entries| {
                let l = PostingList::build_with_taggers(entries, config.postings);
                num_postings += l.len();
                Arc::new(l)
            })
            .collect();
        InvertedIndex {
            config,
            lists,
            num_docs,
            num_postings,
        }
    }

    /// This σ-aware index with the lists of `terms` rebuilt from
    /// `quads_of(term)` — all of the term's `(doc, tagger, weight)` triples,
    /// not a delta — and every other list shared. Because
    /// [`InvertedIndex::build_with_taggers`] builds each term's list from
    /// that term's triples alone, the result equals a from-scratch build
    /// over the updated triples, provided no doc disappeared from a rebuilt
    /// term (`num_docs` can only grow here; an append-only store
    /// guarantees it).
    pub fn with_terms_rebuilt(
        &self,
        terms: &[TermId],
        mut quads_of: impl FnMut(TermId) -> Vec<(DocId, u32, Score)>,
    ) -> Self {
        let mut next = self.clone();
        for &t in terms {
            let entries = quads_of(t);
            if let Some(&(d, ..)) = entries.iter().max_by_key(|e| e.0) {
                next.num_docs = next.num_docs.max(d + 1);
            }
            let ti = t as usize;
            if ti >= next.lists.len() {
                if entries.is_empty() {
                    continue; // a from-scratch build never saw this term
                }
                let postings = self.config.postings;
                next.lists.resize_with(ti + 1, || {
                    Arc::new(PostingList::build_with_taggers(Vec::new(), postings))
                });
            }
            let list = PostingList::build_with_taggers(entries, self.config.postings);
            next.num_postings = next.num_postings - next.lists[ti].len() + list.len();
            next.lists[ti] = Arc::new(list);
        }
        next
    }

    /// Number of terms (including empty ones up to the max seen id).
    pub fn num_terms(&self) -> usize {
        self.lists.len()
    }

    /// One past the largest doc id seen at build time.
    pub fn num_docs(&self) -> DocId {
        self.num_docs
    }

    /// Total postings across all terms (after duplicate merging).
    pub fn num_postings(&self) -> usize {
        self.num_postings
    }

    /// Posting list of `term`, or `None` for out-of-range ids.
    pub fn postings(&self, term: TermId) -> Option<&PostingList> {
        self.lists.get(term as usize).map(|l| &**l)
    }

    /// Build configuration.
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// Approximate resident memory of all posting lists, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.lists.iter().map(|l| l.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedIndex {
        InvertedIndex::build(
            [
                (0u32, 5u32, 1.0f32),
                (0, 2, 2.0),
                (2, 5, 0.5),
                (0, 5, 1.5), // duplicate (term 0, doc 5): accumulates
            ],
            IndexConfig::default(),
        )
    }

    #[test]
    fn build_and_lookup() {
        let idx = sample();
        assert_eq!(idx.num_terms(), 3); // term 1 exists but is empty
        assert_eq!(idx.num_docs(), 6);
        assert_eq!(idx.num_postings(), 3);
        let l0 = idx.postings(0).unwrap();
        assert_eq!(l0.to_vec(), vec![(2, 2.0), (5, 2.5)]);
        assert!(idx.postings(1).unwrap().is_empty());
        assert!(idx.postings(7).is_none());
    }

    #[test]
    fn sigma_index_carries_groups() {
        let idx = InvertedIndex::build_with_taggers(
            [
                (0u32, 5u32, 3u32, 1.0f32),
                (0, 5, 1, 0.5),
                (0, 2, 7, 2.0),
                (2, 5, 1, 0.5),
                (0, 5, 1, 0.25), // duplicate (term, doc, tagger): accumulates
            ],
            IndexConfig::default(),
        );
        assert_eq!(idx.num_terms(), 3);
        assert_eq!(idx.num_postings(), 3);
        let l0 = idx.postings(0).unwrap();
        assert!(l0.has_taggers());
        assert_eq!(l0.to_vec(), vec![(2, 2.0), (5, 1.75)]);
        assert_eq!(l0.taggers_of(1), &[(1, 0.75), (3, 1.0)]);
        assert_eq!(l0.tagger_range(), (1, 7));
    }

    #[test]
    fn rebuilt_terms_are_replaced_and_the_rest_shared() {
        let mut quads = vec![(0u32, 5u32, 3u32, 1.0f32), (0, 2, 7, 2.0), (2, 5, 1, 0.5)];
        let base = InvertedIndex::build_with_taggers(quads.clone(), IndexConfig::default());
        // Term 2 gains a doc past the old `num_docs`; term 4 is new, which
        // also brings an empty term 3 into being.
        quads.extend([(2, 9, 4, 0.25), (4, 1, 1, 1.0)]);
        let of = |t: TermId| -> Vec<(DocId, u32, Score)> {
            let own = quads.iter().filter(|q| q.0 == t);
            own.map(|&(_, d, u, w)| (d, u, w)).collect()
        };
        let derived = base.with_terms_rebuilt(&[2, 4], of);
        let cold = InvertedIndex::build_with_taggers(quads.clone(), IndexConfig::default());
        assert_eq!(derived.num_terms(), 5);
        assert_eq!(derived.num_docs(), 10);
        assert_eq!(derived.num_postings(), cold.num_postings());
        for t in 0..5 {
            let (d, c) = (derived.postings(t).unwrap(), cold.postings(t).unwrap());
            assert_eq!(d.to_vec(), c.to_vec(), "term {t}");
            assert_eq!(d.has_taggers(), c.has_taggers());
        }
        for t in 0..3 {
            let shared = Arc::ptr_eq(&base.lists[t], &derived.lists[t]);
            assert_eq!(shared, t != 2, "term {t}");
        }
        // Rebuilding nothing is a pointer-table copy.
        let same = base.with_terms_rebuilt(&[], of);
        assert!(base
            .lists
            .iter()
            .zip(&same.lists)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn empty_index() {
        let idx = InvertedIndex::build(std::iter::empty(), IndexConfig::default());
        assert_eq!(idx.num_terms(), 0);
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.memory_bytes(), 0);
    }

    #[test]
    fn memory_reflects_postings() {
        let big = InvertedIndex::build(
            (0..1000u32).map(|i| (0u32, i, 1.0f32)),
            IndexConfig::default(),
        );
        let small = InvertedIndex::build(
            (0..10u32).map(|i| (0u32, i, 1.0f32)),
            IndexConfig::default(),
        );
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
