//! # friends-index
//!
//! Information-retrieval substrate for the `friends` workspace: compressed
//! posting lists with skip pointers, an inverted index keyed by term id, and
//! the top-k machinery: a bounded result heap, exhaustive term- and
//! document-at-a-time oracles, WAND, and the σ-aware block-max WAND the
//! personalized processors run on.
//!
//! The network-aware processors in `friends-core` are built by *re-deriving*
//! WAND's pruning under personalized scores; the textbook version stays as
//! the non-personalized (`global`) baseline.
//!
//! ```
//! use friends_index::inverted::{InvertedIndex, IndexConfig};
//! use friends_index::topk::TopK;
//!
//! let idx = InvertedIndex::build(
//!     [(0u32, 10u32, 2.0f32), (0, 11, 1.0), (1, 10, 0.5)],
//!     IndexConfig::default(),
//! );
//! assert_eq!(idx.num_terms(), 2);
//! let mut topk = TopK::new(1);
//! topk.offer(10, 2.5);
//! topk.offer(11, 1.0);
//! assert_eq!(topk.into_sorted_vec()[0].0, 10);
//! ```

#![forbid(unsafe_code)]

pub mod accumulate;
pub mod inverted;
pub mod postings;
pub mod topk;
pub mod varint;

/// Document (item) identifier.
pub type DocId = u32;

/// Term (tag) identifier.
pub type TermId = u32;

/// Score type used across the index.
pub type Score = f32;

/// Totally ordered score wrapper (see `f32::total_cmp`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrdScore(pub Score);

impl Eq for OrdScore {}

impl PartialOrd for OrdScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
