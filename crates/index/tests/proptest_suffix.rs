//! Property test for the suffix derivation of σ-aware posting lists
//! ([`PostingList::with_suffix_rebuilt`]): a list whose triples changed from
//! some doc on, derived by keeping its blocks below that doc and re-running
//! the block loop over the new triples from there, equals
//! [`PostingList::build_with_taggers`] over the new triples bit for bit —
//! blocks, encoded block bytes, scores, tagger groups, tagger ranges,
//! `sigma_base` and `max_score` — for both encodings and several block
//! lengths.
//!
//! Base lists hold 0–600 docs at ids `3i + 2`, so every doc has free ids on
//! both sides. A batch adds taggings before the first doc, inside a full
//! block, in the last partial block, past the end, onto an existing `(doc,
//! tagger)` key (the weights merge: stored, then the adds in order) and
//! onto an existing doc with a new tagger, with zero weights among them.

use friends_index::postings::{Encoding, PostingConfig, PostingList};
use friends_index::{DocId, Score};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Taggers of the base lists; added taggers start here, so they are new.
const BASE_TAGGERS: u32 = 40;

/// `0.1 · k`: sums that round, and an exact zero at `k = 0`.
fn weight(k: u32) -> Score {
    0.1 * k as Score
}

/// The base triples: unique `(doc, tagger)` keys (a repeated key keeps its
/// first weight), sorted.
fn base_triples(raw: &[(u32, u32, u32)]) -> Vec<(DocId, u32, Score)> {
    let mut triples: Vec<_> = raw
        .iter()
        .map(|&(i, u, k)| (3 * i + 2, u % BASE_TAGGERS, weight(k)))
        .collect();
    triples.sort_by_key(|&(d, u, _)| (d, u));
    triples.dedup_by_key(|&mut (d, u, _)| (d, u));
    triples
}

/// One added triple per op `(kind, a, b, k)`, placed by `kind` against the
/// base list's docs and its block geometry.
fn adds_of(
    base: &[(DocId, u32, Score)],
    block_len: usize,
    ops: &[(u8, u32, u32, u32)],
) -> Vec<(DocId, u32, Score)> {
    let mut docs: Vec<DocId> = base.iter().map(|&(d, ..)| d).collect();
    docs.dedup();
    let full = docs.len() / block_len * block_len;
    let past_end = |a: u32| docs.last().map_or(2, |&d| d + 1 + a % 5);
    // A free id just after the doc at position `lo + a % (hi - lo)`.
    let after = |lo: usize, hi: usize, a: u32| match hi > lo {
        true => docs[lo + a as usize % (hi - lo)] + 1,
        false => past_end(a),
    };
    ops.iter()
        .map(|&(kind, a, b, k)| {
            let w = weight(k);
            match kind {
                0 => (a % 2, b % BASE_TAGGERS, w),
                1 => (after(0, full, a), b % BASE_TAGGERS, w),
                2 => (after(full, docs.len(), a), b % BASE_TAGGERS, w),
                3 => (past_end(a), b % BASE_TAGGERS, w),
                4 if !base.is_empty() => {
                    let (d, u, _) = base[a as usize % base.len()];
                    (d, u, w)
                }
                _ => (after(0, docs.len(), a) - 1, BASE_TAGGERS + b % 8, w),
            }
        })
        .collect()
}

/// The base triples with `adds` applied in order — a repeated key's weight
/// is the stored one, then each add's — sorted by `(doc, tagger)`.
fn merged(base: &[(DocId, u32, Score)], adds: &[(DocId, u32, Score)]) -> Vec<(DocId, u32, Score)> {
    let mut out = base.to_vec();
    for &(d, u, w) in adds {
        match out.iter_mut().find(|t| (t.0, t.1) == (d, u)) {
            Some(t) => t.2 += w,
            None => out.push((d, u, w)),
        }
    }
    out.sort_by_key(|&(d, u, _)| (d, u));
    out
}

fn bits(v: &[(u32, f32)]) -> Vec<(u32, u32)> {
    v.iter().map(|&(x, s)| (x, s.to_bits())).collect()
}

fn same_list(d: &PostingList, c: &PostingList) -> Result<(), TestCaseError> {
    prop_assert_eq!(d.len(), c.len());
    prop_assert_eq!(d.memory_bytes(), c.memory_bytes());
    prop_assert_eq!(bits(&d.to_vec()), bits(&c.to_vec()));
    prop_assert_eq!(d.max_score().to_bits(), c.max_score().to_bits());
    prop_assert_eq!(d.sigma_base().to_bits(), c.sigma_base().to_bits());
    prop_assert_eq!(d.tagger_range(), c.tagger_range());
    for i in 0..c.len() {
        prop_assert_eq!(bits(d.taggers_of(i)), bits(c.taggers_of(i)), "entry {}", i);
    }
    prop_assert_eq!(d.num_blocks(), c.num_blocks());
    for bi in 0..c.num_blocks() {
        let (x, y) = (d.block(bi), c.block(bi));
        prop_assert_eq!(x, y, "block {}", bi);
        prop_assert_eq!(x.max_score.to_bits(), y.max_score.to_bits());
        prop_assert_eq!(x.sigma_base.to_bits(), y.sigma_base.to_bits());
        prop_assert_eq!(d.block_bytes(bi), c.block_bytes(bi), "block {}", bi);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn suffix_rebuilt_lists_equal_cold_builds(
        raw in (0u32..=600).prop_flat_map(|n| {
            proptest::collection::vec((0..n.max(1), 0u32..64, 0u32..8), 0..(2 * n as usize + 1))
        }),
        ops in proptest::collection::vec((0u8..6, 0u32..1 << 16, 0u32..64, 0u32..8), 1..12),
        geometry in (0usize..2, prop_oneof![Just(1usize), Just(5), Just(32)]),
    ) {
        let (encoding, block_len) = geometry;
        let config = PostingConfig {
            encoding: [Encoding::Raw, Encoding::DeltaVarint][encoding],
            block_len,
            skips_enabled: true,
        };
        let base = base_triples(&raw);
        let adds = adds_of(&base, block_len, &ops);
        let new = merged(&base, &adds);
        let first_changed = adds.iter().map(|&(d, ..)| d).min().unwrap();
        let derived = PostingList::build_with_taggers(base, config)
            .with_suffix_rebuilt(first_changed, |start| {
                new.iter().copied().filter(move |&(d, ..)| d >= start)
            });
        same_list(&derived, &PostingList::build_with_taggers(new, config))?;
    }
}
