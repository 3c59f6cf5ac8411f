//! # friends-index
//!
//! Information-retrieval substrate for the `friends` workspace: compressed
//! posting lists with skip pointers, an inverted index keyed by term id, and
//! the classical top-k machinery (score-sorted lists, Fagin's TA, NRA and a
//! WAND-style document-at-a-time traversal).
//!
//! The network-aware processors in `friends-core` are built by *re-deriving*
//! these textbook algorithms under personalized scores; having the textbook
//! versions in the same workspace gives the evaluation its baselines.
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
