//! Property test for what one epoch hands the next
//! ([`Corpus::next_epoch`] through [`LiveCorpus::prepare_from`]): along a
//! chain of random batches the σ-index and the global lists each epoch
//! *derives* — its predecessor's, each touched posting list re-encoded from
//! its first changed block and each touched global list patched — equal
//! the ones a cold corpus over the same graph and store builds from scratch.
//! Compared per tag down to tagger groups, tagger ranges, block metadata
//! and the encoded block bytes, plus the index-wide counts.

use friends_core::corpus::Corpus;
use friends_core::live::LiveCorpus;
use friends_data::mutations::{Mutation, MutationBatch};
use friends_data::store::TagStore;
use friends_data::Tagging;
use friends_graph::{CsrGraph, GraphBuilder};
use friends_index::inverted::InvertedIndex;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

const USERS: u32 = 12;
const ITEMS: u32 = 80;
const TAGS: u32 = 7;

/// One raw mutation: `(kind, a, b, c, k)`. Kinds 0–1 edit edges, 2–4
/// append taggings — with weight `0.1 · k`, so repeats of a key exercise
/// the summation order too.
type RawOp = (u8, u32, u32, u32, u32);

fn batch_of(ops: &[RawOp]) -> MutationBatch {
    MutationBatch::new(
        ops.iter()
            .map(|&(kind, a, b, c, k)| match kind {
                0 => Mutation::InsertEdge {
                    u: a % USERS,
                    v: b % USERS,
                    weight: 0.1 * k as f32,
                },
                1 => Mutation::RemoveEdge {
                    u: a % USERS,
                    v: b % USERS,
                },
                _ => Mutation::AddTagging(Tagging {
                    user: a % USERS,
                    item: b % ITEMS,
                    tag: c % TAGS,
                    weight: 0.1 * k as f32,
                }),
            })
            .collect(),
    )
}

/// The seed names only items below 40 and tags below 4: later appends grow
/// `num_docs`, start lists for tags the index has no list for, and push
/// lists past one 32-entry block.
fn seed_corpus(raw: &[(u32, u32, u32, u32)]) -> Corpus {
    let taggings = raw
        .iter()
        .map(|&(user, item, tag, k)| Tagging {
            user: user % USERS,
            item: item % 40,
            tag: tag % 4,
            weight: 0.1 * k as f32,
        })
        .collect();
    Corpus::new(ring(), TagStore::build(USERS, ITEMS, TAGS, taggings))
}

fn ring() -> CsrGraph {
    GraphBuilder::from_edges(
        USERS as usize,
        (0..USERS).map(|u| (u, (u * 5 + 1) % USERS, 0.5)),
    )
}

fn bits(row: &[(u32, f32)]) -> Vec<(u32, u32)> {
    row.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

fn same_index(derived: &InvertedIndex, cold: &InvertedIndex) -> Result<(), TestCaseError> {
    prop_assert_eq!(derived.num_terms(), cold.num_terms());
    prop_assert_eq!(derived.num_docs(), cold.num_docs());
    prop_assert_eq!(derived.num_postings(), cold.num_postings());
    for t in 0..cold.num_terms() as u32 {
        let (d, c) = (derived.postings(t).unwrap(), cold.postings(t).unwrap());
        let bits = |v: Vec<(u32, f32)>| -> Vec<(u32, u32)> {
            v.into_iter().map(|(x, s)| (x, s.to_bits())).collect()
        };
        prop_assert_eq!(bits(d.to_vec()), bits(c.to_vec()), "tag {}", t);
        prop_assert_eq!(d.tagger_range(), c.tagger_range());
        prop_assert_eq!(d.sigma_base().to_bits(), c.sigma_base().to_bits());
        prop_assert_eq!(d.max_score().to_bits(), c.max_score().to_bits());
        for i in 0..c.len() {
            prop_assert_eq!(
                bits(d.taggers_of(i).to_vec()),
                bits(c.taggers_of(i).to_vec()),
                "tag {} entry {}",
                t,
                i
            );
        }
        prop_assert_eq!(d.num_blocks(), c.num_blocks());
        for bi in 0..c.num_blocks() {
            prop_assert_eq!(d.block(bi), c.block(bi), "tag {} block {}", t, bi);
            prop_assert_eq!(d.block_bytes(bi), c.block_bytes(bi));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn derived_indexes_equal_cold_builds_along_a_chain(
        seed in proptest::collection::vec((0u32..64, 0u32..64, 0u32..64, 1u32..10), 0..120),
        chain in proptest::collection::vec(
            proptest::collection::vec((0u8..5, 0u32..256, 0u32..256, 0u32..64, 1u32..10), 0..10),
            20..28,
        ),
    ) {
        let mut current = Arc::new(seed_corpus(&seed));
        current.sigma_index();
        current.global_lists();
        for ops in &chain {
            let next = LiveCorpus::prepare_from(&current, &batch_of(ops), None).next;
            let cold = Corpus::with_epoch(next.graph.clone(), next.store.clone(), next.epoch());
            same_index(next.sigma_index(), cold.sigma_index())?;
            let bits = |lists: &[Arc<[(u32, f32)]>]| -> Vec<Vec<(u32, u32)>> {
                lists.iter().map(|l| bits(l)).collect()
            };
            prop_assert_eq!(bits(next.global_lists()), bits(cold.global_lists()));
            current = next;
        }
        prop_assert_eq!(current.epoch(), chain.len() as u64);
    }

    /// Global lists under heavy ties: weights from {0, ½, 1} give many items
    /// of a tag the same mass, so where a patched entry lands among its ties
    /// is decided by item id alone. Every epoch's rows equal a ranking from
    /// scratch, and every row its batch appended nothing to is shared.
    #[test]
    fn patched_global_lists_equal_cold_rankings_under_ties(
        seed in proptest::collection::vec((0u32..64, 0u32..40, 0u32..4, 0u32..3), 0..150),
        chain in proptest::collection::vec(
            proptest::collection::vec((0u32..64, 0u32..80, 0u32..64, 0u32..3), 1..12),
            8..16,
        ),
    ) {
        let tagging = |&(user, item, tag, k): &(u32, u32, u32, u32)| Tagging {
            user: user % USERS,
            item,
            tag: tag % TAGS,
            weight: 0.5 * k as f32,
        };
        let store = TagStore::build(USERS, ITEMS, TAGS, seed.iter().map(tagging).collect());
        let mut current = Arc::new(Corpus::new(ring(), store));
        current.global_lists();
        for adds in &chain {
            let batch = adds.iter().map(|a| Mutation::AddTagging(tagging(a))).collect();
            let next = LiveCorpus::prepare_from(&current, &MutationBatch::new(batch), None).next;
            let cold = Corpus::new(next.graph.clone(), next.store.clone());
            for t in 0..TAGS {
                let (row, want) = (&next.global_lists()[t as usize], &cold.global_lists()[t as usize]);
                prop_assert_eq!(bits(row), bits(want), "tag {}", t);
                let touched = adds.iter().any(|a| a.2 % TAGS == t);
                let shared = Arc::ptr_eq(row, &current.global_lists()[t as usize]);
                prop_assert_eq!(shared, !touched, "tag {}", t);
            }
            current = next;
        }
    }
}
