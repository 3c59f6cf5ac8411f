//! Differential test of the slice-by-8 CRC32 against the one-byte
//! table-free reference: every length from 0 to 4096, every alignment of
//! the input slice, and any split of the input across `update` calls must
//! give the reference digest.

use friends_data::crc::{crc32, Crc32};
use proptest::prelude::*;

/// The bit-at-a-time reflected CRC-32 (polynomial 0xEDB88320): the
/// definition the table-driven code must reproduce.
fn reference(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[test]
fn reference_matches_the_check_value() {
    assert_eq!(reference(b"123456789"), 0xCBF4_3926);
}

#[test]
fn every_length_up_to_4096() {
    let data: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    for len in 0..=data.len() {
        assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes at a random offset into a buffer (so the 8-byte fold
    /// starts at every alignment) digest like the reference.
    #[test]
    fn unaligned_slices_match_reference(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        skip in 0usize..16,
    ) {
        let skip = skip.min(data.len());
        let slice = &data[skip..];
        prop_assert_eq!(crc32(slice), reference(slice));
    }

    /// Feeding the input in random-sized chunks gives the one-shot digest.
    #[test]
    fn random_update_splits_match_reference(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        cuts in proptest::collection::vec(0usize..4096, 0..12),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
        cuts.sort_unstable();
        let mut h = Crc32::new();
        let mut from = 0;
        for c in cuts.into_iter().chain([data.len()]) {
            h.update(&data[from..c]);
            from = c;
        }
        prop_assert_eq!(h.finish(), reference(&data));
    }
}
