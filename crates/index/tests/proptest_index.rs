//! Property-based tests for the IR substrate: codec round-trips, cursor
//! semantics against a naive reference, and agreement of every top-k
//! algorithm with the exhaustive term-at-a-time oracle.

use friends_index::accumulate::{daat_topk, taat_topk};
use friends_index::postings::{Encoding, PostingConfig, PostingList};
use friends_index::topk::wand_topk;
use friends_index::varint;
use friends_index::{DocId, Score};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = PostingConfig> {
    (
        prop_oneof![Just(Encoding::Raw), Just(Encoding::DeltaVarint)],
        1usize..40,
        any::<bool>(),
    )
        .prop_map(|(encoding, block_len, skips_enabled)| PostingConfig {
            encoding,
            block_len,
            skips_enabled,
        })
}

fn arb_entries() -> impl Strategy<Value = Vec<(DocId, Score)>> {
    proptest::collection::vec((0u32..500, 0.01f32..5.0), 0..200)
}

/// Reference semantics: sorted by doc, duplicate scores summed.
fn reference(entries: &[(DocId, Score)]) -> Vec<(DocId, Score)> {
    let mut m: std::collections::BTreeMap<DocId, f32> = std::collections::BTreeMap::new();
    for &(d, s) in entries {
        *m.entry(d).or_insert(0.0) += s;
    }
    m.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn varint_u32_round_trip(v in any::<u32>()) {
        let mut buf = Vec::new();
        varint::write_u32(&mut buf, v);
        prop_assert_eq!(buf.len(), varint::len_u32(v));
        let mut s = buf.as_slice();
        prop_assert_eq!(varint::read_u32(&mut s), Some(v));
        prop_assert!(s.is_empty());
    }

    #[test]
    fn varint_u64_round_trip(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, v);
        let mut s = buf.as_slice();
        prop_assert_eq!(varint::read_u64(&mut s), Some(v));
    }

    #[test]
    fn delta_coding_round_trip(mut ids in proptest::collection::btree_set(0u32..1_000_000, 0..300)) {
        let ids: Vec<u32> = std::mem::take(&mut ids).into_iter().collect();
        let mut buf = Vec::new();
        varint::encode_sorted(&ids, &mut buf);
        let mut s = buf.as_slice();
        prop_assert_eq!(varint::decode_sorted(&mut s, ids.len()), Some(ids));
    }

    /// Posting lists reproduce the reference under every configuration, and
    /// random access agrees with the decoded content.
    #[test]
    fn postings_round_trip(entries in arb_entries(), cfg in arb_config()) {
        let want = reference(&entries);
        let list = PostingList::build(entries, cfg);
        let got = list.to_vec();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.0, w.0);
            prop_assert!((g.1 - w.1).abs() < 1e-4);
        }
        for &(d, s) in &want {
            let q = list.score_of(d).expect("present doc");
            prop_assert!((q - s).abs() < 1e-4);
        }
        prop_assert_eq!(list.score_of(1_000_000), None);
    }

    /// `advance(target)` lands on the first doc >= target, matching a naive
    /// scan, from any starting position.
    #[test]
    fn cursor_advance_matches_naive(
        entries in arb_entries(),
        cfg in arb_config(),
        targets in proptest::collection::vec(0u32..600, 1..20),
    ) {
        let want = reference(&entries);
        let list = PostingList::build(entries, cfg);
        let mut cur = list.cursor();
        let mut sorted_targets = targets;
        sorted_targets.sort_unstable();
        for &t in &sorted_targets {
            cur.advance(t);
            let expect = want.iter().map(|&(d, _)| d).find(|&d| d >= t);
            prop_assert_eq!(cur.doc(), expect, "target {}", t);
            if let Some(d) = cur.doc() {
                let s = want.iter().find(|&&(x, _)| x == d).unwrap().1;
                prop_assert!((cur.score() - s).abs() < 1e-4);
            }
        }
    }

    /// WAND and DAAT agree with the exhaustive TAAT oracle on the returned
    /// doc set (scores within tolerance; near-ties may permute).
    #[test]
    fn all_topk_algorithms_agree(
        lists_raw in proptest::collection::vec(arb_entries(), 1..4),
        k in 1usize..12,
    ) {
        let plists: Vec<PostingList> = lists_raw
            .iter()
            .cloned()
            .map(|e| PostingList::build(e, PostingConfig::default()))
            .collect();
        let prefs: Vec<&PostingList> = plists.iter().collect();

        let want = taat_topk(&prefs, k);
        let want_scores: std::collections::HashMap<DocId, f32> =
            want.iter().copied().collect();
        let check = |got: Vec<(DocId, Score)>, name: &str| -> Result<(), TestCaseError> {
            prop_assert_eq!(got.len(), want.len(), "{} length", name);
            for (d, s) in &got {
                match want_scores.get(d) {
                    Some(ws) => prop_assert!((*ws - *s).abs() < 1e-3,
                        "{}: doc {} score {} vs {}", name, d, s, ws),
                    None => {
                        // Tie at the boundary: the score must equal the
                        // k-th best within tolerance.
                        let kth = want.last().unwrap().1;
                        prop_assert!((kth - *s).abs() < 1e-3,
                            "{}: unexpected doc {} (score {})", name, d, s);
                    }
                }
            }
            Ok(())
        };
        check(wand_topk(&prefs, k).0, "WAND")?;
        check(daat_topk(&prefs, k), "DAAT")?;
    }

    /// The list-level max score really bounds every posting.
    #[test]
    fn max_score_is_sound(entries in arb_entries(), cfg in arb_config()) {
        let list = PostingList::build(entries, cfg);
        let mut cur = list.cursor();
        while let Some(_d) = cur.doc() {
            prop_assert!(cur.score() <= list.max_score() + 1e-6);
            prop_assert!(cur.score() <= cur.block_max() + 1e-6);
            cur.next();
        }
    }

    /// `decode_sorted_into` equals `decode_sorted` and reuses its buffer:
    /// repeated decodes into one scratch vector reproduce every sequence.
    #[test]
    fn decode_into_matches_decode(
        seqs in proptest::collection::vec(
            proptest::collection::btree_set(0u32..1_000_000, 0..120), 1..6),
    ) {
        let mut scratch = Vec::new();
        for ids in &seqs {
            let ids: Vec<u32> = ids.iter().copied().collect();
            let mut buf = Vec::new();
            varint::encode_sorted(&ids, &mut buf);
            let mut a = buf.as_slice();
            let mut b = buf.as_slice();
            let want = varint::decode_sorted(&mut a, ids.len());
            prop_assert_eq!(
                varint::decode_sorted_into(&mut b, ids.len(), &mut scratch),
                want.as_ref().map(|_| ())
            );
            prop_assert_eq!(Some(&scratch), want.as_ref());
            prop_assert!(a.is_empty() && b.is_empty());
        }
    }

    /// Block-boundary decode: starting a decode at any block's skip-pointer
    /// byte offset reproduces exactly that block's slice of the full-stream
    /// decode — the precondition for sound block skipping (and for any
    /// future SIMD group decode that processes one block at a time).
    #[test]
    fn block_offset_decode_equals_full_stream(
        entries in arb_entries(),
        block_len in 1usize..40,
    ) {
        let cfg = PostingConfig {
            encoding: Encoding::DeltaVarint,
            block_len,
            skips_enabled: true,
        };
        let list = PostingList::build(entries, cfg);
        let full: Vec<DocId> = list.to_vec().iter().map(|&(d, _)| d).collect();
        let mut scratch = Vec::new();
        for bi in 0..list.num_blocks() {
            let b = list.block(bi);
            // Decode from the raw skip-pointer bytes…
            let mut bytes = list.block_bytes(bi);
            let decoded = varint::decode_sorted(&mut bytes, b.count)
                .expect("block decode failed");
            prop_assert!(bytes.is_empty(), "block {} bytes not fully consumed", bi);
            prop_assert_eq!(&decoded, &full[b.elem_start..b.elem_start + b.count]);
            // …and through the block accessor used by the operator.
            list.block_docs_into(bi, &mut scratch);
            prop_assert_eq!(&scratch, &decoded);
            prop_assert_eq!(decoded.first().copied(), Some(b.first_doc));
            prop_assert_eq!(decoded.last().copied(), Some(b.last_doc));
        }
    }

    /// σ-aware builds agree with plain builds on the doc/score content for
    /// identical input, regardless of block geometry, and their per-block
    /// tagger ranges cover every group member.
    #[test]
    fn sigma_build_agrees_with_plain_build(
        triples in proptest::collection::vec((0u32..300, 0u32..40, 0.01f32..3.0), 0..150),
        block_len in 1usize..40,
        raw_encoding in any::<bool>(),
    ) {
        let cfg = PostingConfig {
            encoding: if raw_encoding { Encoding::Raw } else { Encoding::DeltaVarint },
            block_len,
            skips_enabled: true,
        };
        let sigma_list = PostingList::build_with_taggers(triples.clone(), cfg);
        // Reference masses: merge (doc, tagger) duplicates, then f32-sum per
        // doc in ascending tagger order — the documented accumulation order.
        let mut merged = triples;
        merged.sort_unstable_by_key(|&(d, u, _)| (d, u));
        merged.dedup_by(|n, kept| {
            if n.0 == kept.0 && n.1 == kept.1 {
                kept.2 += n.2;
                true
            } else {
                false
            }
        });
        let mut want: Vec<(DocId, f32)> = Vec::new();
        for &(d, _, w) in &merged {
            match want.last_mut() {
                Some(last) if last.0 == d => last.1 += w,
                _ => want.push((d, w)),
            }
        }
        let got = sigma_list.to_vec();
        prop_assert_eq!(got.len(), want.len());
        for ((da, sa), (db, sb)) in got.iter().zip(&want) {
            prop_assert_eq!(da, db);
            prop_assert_eq!(sa.to_bits(), sb.to_bits(), "doc {} mass bits", da);
        }
        for bi in 0..sigma_list.num_blocks() {
            let blk = sigma_list.block(bi);
            for i in blk.elem_start..blk.elem_start + blk.count {
                let group = sigma_list.taggers_of(i);
                prop_assert!(group.windows(2).all(|w| w[0].0 < w[1].0));
                for &(u, _) in group {
                    prop_assert!((blk.min_tagger..=blk.max_tagger).contains(&u));
                }
                prop_assert!(sigma_list.score_at(i) <= blk.sigma_base);
            }
        }
    }
}
