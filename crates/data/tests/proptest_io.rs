//! Failure injection for the binary dataset format: random corruption must
//! never panic, loop, or silently yield a different dataset — it must fail
//! with a structured error or (for byte-identical content) round-trip.
//!
//! Random flips die at the section CRC. The `hostile_*` cases mutate a
//! section's payload and then recompute its CRC, so the decoders
//! themselves see out-of-range ids, bad weights, counts that disagree with
//! the section length, duplicate keys and out-of-order taggings.

use friends_data::crc::crc32;
use friends_data::datasets::{DatasetSpec, Scale};
use friends_data::io::{self, IoError};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

/// One small serialized dataset, shared across cases.
fn golden() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ds = DatasetSpec::flickr_like(Scale::Tiny).build(2);
        let path = std::env::temp_dir().join(format!("friends-golden-{}.bin", std::process::id()));
        io::save(&path, &ds.graph, &ds.store).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    })
}

fn load_bytes(bytes: &[u8], tag: &str) -> Result<(), String> {
    load_raw(bytes, tag).map_err(|e| e.to_string())
}

fn load_raw(bytes: &[u8], tag: &str) -> Result<(), IoError> {
    let path =
        std::env::temp_dir().join(format!("friends-corrupt-{}-{tag}.bin", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let r = io::load(&path);
    std::fs::remove_file(&path).ok();
    r.map(|_| ())
}

/// A v2 section of the golden file: where its crc field sits and its
/// payload's byte range.
struct Section {
    crc_at: usize,
    payload: Range<usize>,
}

fn le(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn put(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// The graph and store sections: a 20-byte header, then `len | crc |
/// payload` twice.
fn sections(bytes: &[u8]) -> [Section; 2] {
    let section = |at: usize| {
        let len = le(bytes, at) as usize;
        Section {
            crc_at: at + 4,
            payload: at + 8..at + 8 + len,
        }
    };
    let graph = section(20);
    let store = section(graph.payload.end);
    [graph, store]
}

/// Loads `bytes` after recomputing `s`'s CRC, and checks the decoder
/// refused them with an offset inside that section's payload.
fn assert_corrupt_in(mut bytes: Vec<u8>, s: &Section, tag: &str) -> Result<(), TestCaseError> {
    let crc = crc32(&bytes[s.payload.clone()]);
    put(&mut bytes, s.crc_at, crc);
    match load_raw(&bytes, tag) {
        Err(IoError::Corrupt { what, offset }) => {
            let offset = offset as usize;
            prop_assert!(
                s.payload.contains(&offset),
                "{what} at {offset}, outside {:?}",
                s.payload
            );
            Ok(())
        }
        other => Err(TestCaseError::fail(format!(
            "expected Corrupt, got {other:?}"
        ))),
    }
}

/// A weight no decoder may accept.
fn bad_weight(pick: u32) -> f32 {
    [
        f32::NAN,
        -1.0,
        -f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ][pick as usize % 5]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating at any point either still parses (only possible for the
    /// full length) or returns a structured error — never a panic.
    #[test]
    fn truncation_never_panics(cut in 0usize..=1usize << 16) {
        let bytes = golden();
        let cut = cut.min(bytes.len());
        let r = load_bytes(&bytes[..cut], "trunc");
        if cut == bytes.len() {
            prop_assert!(r.is_ok());
        } else {
            prop_assert!(r.is_err(), "truncated at {cut} parsed successfully");
        }
    }

    /// Flipping bytes anywhere never panics; it either errors or yields a
    /// dataset (bit flips inside float payloads can be value-preservingly
    /// harmless, which is acceptable — the guarantee is no UB/panic).
    #[test]
    fn byte_flips_never_panic(
        pos in 0usize..1usize << 16,
        val in any::<u8>(),
    ) {
        let mut bytes = golden().clone();
        let pos = pos % bytes.len();
        bytes[pos] = val;
        // Must not panic; outcome may be Ok or Err.
        let _ = load_bytes(&bytes, "flip");
    }

    /// Appending garbage is always rejected.
    #[test]
    fn trailing_garbage_rejected(extra in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut bytes = golden().clone();
        bytes.extend(extra);
        prop_assert!(load_bytes(&bytes, "trail").is_err());
    }

    /// Random prefixes of random bytes never panic the loader.
    #[test]
    fn random_blobs_never_panic(blob in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = load_bytes(&blob, "blob");
    }

    /// Graph payloads with an endpoint past the node count, a bad weight,
    /// or an edge count that disagrees with the section length.
    #[test]
    fn hostile_graph_payloads_are_corrupt(
        kind in 0u32..4,
        pick in any::<u32>(),
        val in any::<u32>(),
    ) {
        let mut bytes = golden().clone();
        let [g, _] = sections(&bytes);
        let p = g.payload.start;
        let (n, m) = (le(&bytes, p), le(&bytes, p + 4));
        let edge = p + 8 + (pick % m) as usize * 12;
        match kind {
            0 => put(&mut bytes, edge, n.saturating_add(val % 1024)),
            1 => put(&mut bytes, edge + 4, n.max(val)),
            2 => put(&mut bytes, edge + 8, bad_weight(val).to_bits()),
            _ => put(&mut bytes, p + 4, if val == m { m + 1 } else { val }),
        }
        assert_corrupt_in(bytes, &g, "hostile-graph")?;
    }

    /// Store payloads with an id past its universe, a bad weight, a
    /// tagging count that disagrees with the section length, a duplicate
    /// key, or two taggings out of order.
    #[test]
    fn hostile_store_payloads_are_corrupt(
        kind in 0u32..7,
        pick in any::<u32>(),
        val in any::<u32>(),
    ) {
        let mut bytes = golden().clone();
        let [_, s] = sections(&bytes);
        let p = s.payload.start;
        let count = le(&bytes, p + 12);
        let i = (pick % (count - 1)) as usize;
        let rec = p + 16 + i * 16;
        match kind {
            // user, item or tag at or past its universe size
            0..=2 => {
                let universe = le(&bytes, p + 4 * kind as usize);
                put(&mut bytes, rec + 4 * kind as usize, universe.max(val));
            }
            3 => put(&mut bytes, rec + 12, bad_weight(val).to_bits()),
            4 => put(&mut bytes, p + 12, if val == count { count + 1 } else { val }),
            // record i repeated at i + 1
            5 => bytes.copy_within(rec..rec + 16, rec + 16),
            // records i and i + 1 swapped
            _ => {
                let first = bytes[rec..rec + 16].to_vec();
                bytes.copy_within(rec + 16..rec + 32, rec);
                bytes[rec + 16..rec + 32].copy_from_slice(&first);
            }
        }
        assert_corrupt_in(bytes, &s, "hostile-store")?;
    }
}
