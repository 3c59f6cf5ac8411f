//! Binary persistence for datasets and live-corpus snapshots.
//!
//! Generating the Medium/Large synthetic datasets takes seconds to minutes;
//! experiments that sweep processors over the same dataset want to pay that
//! once. This module writes a `(graph, store)` pair to a compact
//! little-endian binary file and reads it back. The format is versioned and
//! self-describing enough to fail loudly on corruption — not a public
//! interchange format.
//!
//! ## Format v2
//!
//! v2 is the durable-snapshot format the WAL recovery path
//! (`friends_core::live`) builds on:
//!
//! ```text
//!   [magic u32le] [version=2 u32le] [epoch u64le] [header crc u32le]
//!   [graph section:  len u32le | crc u32le | payload]
//!   [store section:  len u32le | crc u32le | payload]
//!   graph payload := [nodes u32le] [m u32le] ([u u32le] [v u32le] [w f32le])×m
//!   store payload := [users u32le] [items u32le] [tags u32le] [count u32le]
//!                    ([user u32le] [item u32le] [tag u32le] [w f32le])×count
//! ```
//!
//! Each section's payload carries its own CRC32 ([`crate::crc`]) so a torn
//! write or a flipped bit is detected *before* any value is parsed, and the
//! header records the epoch the snapshot captures. Writes go through a
//! temp file + atomic rename, so a crash mid-save never leaves a truncated
//! file at the target path — the old file (if any) survives intact.
//! [`load`] still reads v1 files (the same two payloads back to back, no
//! sections, no CRCs, epoch 0). A length or count too large for its u32
//! field makes [`save`] fail with [`IoError::TooLarge`] before it writes.
//!
//! ## Validate, don't re-sort
//!
//! [`save`] writes the taggings in [`TagStore::iter`] order: strictly
//! increasing `(user, tag, item)`, each key once. [`load`] requires that
//! order and does not sort: it checks every id, weight and key against its
//! predecessor while building the store with
//! [`TagStore::from_sorted`] (user rows are cut straight from the records;
//! tag rows come from O(n) counting passes). A section must hold exactly
//! its count × record size (12 B per edge, 16 B per tagging); the count is
//! checked against the section length before anything is sized by it.
//!
//! Every [`IoError::Corrupt`] carries the absolute byte offset where
//! validation failed, so corruption reports are actionable (`dd` straight
//! to the bad record): out-of-range ids and bad weights name the record,
//! and `"taggings out of order"` names the first record whose key is not
//! below its successor's.

use crate::crc::crc32;
use crate::store::{contract_violation, TagStore};
use crate::Tagging;
use bytes::BufMut;
use friends_graph::{CsrGraph, GraphBuilder};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

const MAGIC: u32 = 0x46524E44; // "FRND"
const VERSION_V1: u32 = 1;
const VERSION: u32 = 2;
/// Encoded edge: `u`, `v`, `weight`.
const EDGE_BYTES: usize = 12;
/// Encoded tagging: `user`, `item`, `tag`, `weight`.
const TAGGING_BYTES: usize = 16;

/// Errors raised by [`save`] / [`load`].
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file is not a dataset file or is a different version.
    BadHeader,
    /// The payload ended early or contained out-of-range values; `offset`
    /// is the absolute byte position where validation failed.
    Corrupt { what: &'static str, offset: u64 },
    /// [`save`] refused, before writing a byte: `what` (a section length
    /// or a record count) is `len`, more than its u32 field can hold.
    TooLarge { what: &'static str, len: u64 },
}

impl IoError {
    fn corrupt(what: &'static str, offset: u64) -> Self {
        IoError::Corrupt { what, offset }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::BadHeader => write!(f, "not a friends dataset file (bad magic/version)"),
            IoError::Corrupt { what, offset } => {
                write!(f, "corrupt dataset file: {what} at byte {offset}")
            }
            IoError::TooLarge { what, len } => {
                write!(f, "cannot save: {what} is {len}, over the u32 limit")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// `len` as the u32 a length or count field stores, or
/// [`IoError::TooLarge`] — never a silently truncated value.
fn field_u32(len: usize, what: &'static str) -> Result<u32, IoError> {
    u32::try_from(len).map_err(|_| IoError::TooLarge {
        what,
        len: len as u64,
    })
}

/// The little-endian u32 at `at` in a record.
fn le_u32(record: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([record[at], record[at + 1], record[at + 2], record[at + 3]])
}

/// Offset-tracking little-endian reader; every failure names the absolute
/// byte position it happened at.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Absolute file offset of `buf[0]`.
    base: u64,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], base: u64) -> Self {
        Reader { buf, pos: 0, base }
    }

    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], IoError> {
        if self.remaining() < n {
            return Err(IoError::corrupt(what, self.offset()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// `count` records of `size` bytes as one slice. The count is checked
    /// against the bytes left before anything is sized by it.
    fn records(
        &mut self,
        count: u32,
        size: usize,
        what: &'static str,
    ) -> Result<&'a [u8], IoError> {
        match (count as usize).checked_mul(size) {
            Some(n) => self.take(n, what),
            None => Err(IoError::corrupt(what, self.offset())),
        }
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, IoError> {
        Ok(le_u32(self.take(4, what)?, 0))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, IoError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Errors with `what` unless every byte has been consumed.
    fn expect_end(&self, what: &'static str) -> Result<(), IoError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(IoError::corrupt(what, self.offset())),
        }
    }
}

fn encode_graph(graph: &CsrGraph) -> Result<Vec<u8>, IoError> {
    let mut buf = Vec::with_capacity(8 + graph.num_edges() * EDGE_BYTES);
    buf.put_u32_le(field_u32(graph.num_nodes(), "graph node count")?);
    buf.put_u32_le(field_u32(graph.num_edges(), "graph edge count")?);
    for (u, v, w) in graph.undirected_edges() {
        buf.put_u32_le(u);
        buf.put_u32_le(v);
        buf.put_f32_le(w);
    }
    Ok(buf)
}

fn encode_store(store: &TagStore) -> Result<Vec<u8>, IoError> {
    let mut buf = Vec::with_capacity(16 + store.num_taggings() * TAGGING_BYTES);
    buf.put_u32_le(store.num_users());
    buf.put_u32_le(store.num_items());
    buf.put_u32_le(store.num_tags());
    buf.put_u32_le(field_u32(store.num_taggings(), "tagging count")?);
    for t in store.iter() {
        buf.put_u32_le(t.user);
        buf.put_u32_le(t.item);
        buf.put_u32_le(t.tag);
        buf.put_f32_le(t.weight);
    }
    Ok(buf)
}

fn decode_graph(r: &mut Reader<'_>) -> Result<CsrGraph, IoError> {
    let n = r.u32("truncated graph header")? as usize;
    let m = r.u32("truncated graph header")?;
    let at = r.offset();
    let body = r.records(m, EDGE_BYTES, "edge count exceeds payload")?;
    let mut b = GraphBuilder::with_capacity(n, m as usize);
    for (i, e) in body.chunks_exact(EDGE_BYTES).enumerate() {
        let (u, v, w) = (le_u32(e, 0), le_u32(e, 4), f32::from_bits(le_u32(e, 8)));
        if u as usize >= n || v as usize >= n || !w.is_finite() || w < 0.0 {
            return Err(IoError::corrupt(
                "edge out of range",
                at + (i * EDGE_BYTES) as u64,
            ));
        }
        b.add_edge(u, v, w);
    }
    Ok(b.build())
}

/// A decoded store section whose order is not yet checked: the universe
/// sizes, the taggings as the file lists them, and the file offset of the
/// first one.
struct StoreRecords {
    users: u32,
    items: u32,
    tags: u32,
    taggings: Vec<Tagging>,
    at: u64,
}

fn decode_store(r: &mut Reader<'_>) -> Result<StoreRecords, IoError> {
    let users = r.u32("truncated store header")?;
    let items = r.u32("truncated store header")?;
    let tags = r.u32("truncated store header")?;
    let count = r.u32("truncated store header")?;
    let at = r.offset();
    let body = r.records(count, TAGGING_BYTES, "tagging count exceeds payload")?;
    let mut taggings = Vec::with_capacity(count as usize);
    for (i, c) in body.chunks_exact(TAGGING_BYTES).enumerate() {
        let t = Tagging {
            user: le_u32(c, 0),
            item: le_u32(c, 4),
            tag: le_u32(c, 8),
            weight: f32::from_bits(le_u32(c, 12)),
        };
        if let Some(what) = contract_violation(&t, users, items, tags) {
            return Err(IoError::corrupt(what, at + (i * TAGGING_BYTES) as u64));
        }
        taggings.push(t);
    }
    Ok(StoreRecords {
        users,
        items,
        tags,
        taggings,
        at,
    })
}

impl StoreRecords {
    /// The store, built without sorting: `save` writes taggings in
    /// [`TagStore::iter`] order, so this only checks that order.
    fn into_store(self) -> Result<TagStore, IoError> {
        let at = self.at;
        TagStore::from_sorted(self.users, self.items, self.tags, self.taggings)
            .map_err(|i| IoError::corrupt("taggings out of order", at + (i * TAGGING_BYTES) as u64))
    }
}

/// Writes `payload` as a checksummed v2 section: `len | crc | payload`.
fn put_section(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), IoError> {
    out.put_u32_le(field_u32(payload.len(), "section length")?);
    out.put_u32_le(crc32(payload));
    out.extend_from_slice(payload);
    Ok(())
}

/// Reads one v2 section, verifying its CRC before yielding the payload.
fn take_section<'a>(r: &mut Reader<'a>, what: &'static str) -> Result<Reader<'a>, IoError> {
    let len = r.u32(what)? as usize;
    let crc = r.u32(what)?;
    let at = r.offset();
    let payload = r.take(len, what)?;
    if crc32(payload) != crc {
        return Err(IoError::corrupt("section crc mismatch", at));
    }
    Ok(Reader::new(payload, at))
}

/// Serializes a graph + store pair to `path` (v2, epoch 0). The write is
/// atomic: data lands in a temp file in the same directory, is fsynced,
/// and then renamed over the target — a crash mid-save never leaves a
/// truncated file where a good one was expected.
pub fn save(path: &Path, graph: &CsrGraph, store: &TagStore) -> Result<(), IoError> {
    save_with_epoch(path, graph, store, 0)
}

/// [`save`] stamping the snapshot's epoch into the v2 header.
pub fn save_with_epoch(
    path: &Path,
    graph: &CsrGraph,
    store: &TagStore,
    epoch: u64,
) -> Result<(), IoError> {
    let mut buf: Vec<u8> = Vec::with_capacity(
        32 + graph.num_edges() * EDGE_BYTES + store.num_taggings() * TAGGING_BYTES,
    );
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.extend_from_slice(&epoch.to_le_bytes());
    // Header CRC over magic‖version‖epoch: the epoch drives recovery
    // decisions, so it must not be trusted unchecked.
    let header_crc = crc32(&buf[..16]);
    buf.put_u32_le(header_crc);
    put_section(&mut buf, &encode_graph(graph)?)?;
    put_section(&mut buf, &encode_store(store)?)?;
    write_atomic(path, &buf)?;
    Ok(())
}

/// Writes `bytes` to `path` via temp-file + fsync + rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let res = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable where the platform allows it.
        if let Some(dir) = dir {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if res.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    res
}

/// Reads back a pair written by [`save`] (either format version).
pub fn load(path: &Path) -> Result<(CsrGraph, TagStore), IoError> {
    let (graph, store, _) = load_with_epoch(path)?;
    Ok((graph, store))
}

/// [`load`] that also yields the snapshot epoch (0 for v1 files, which
/// predate epochs).
pub fn load_with_epoch(path: &Path) -> Result<(CsrGraph, TagStore, u64), IoError> {
    let mut raw = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut raw)?;
    let (graph, records, epoch) = parse(&raw)?;
    // The file buffer goes before the store's by-tag pass, which is where
    // peak memory is.
    drop(raw);
    Ok((graph, records.into_store()?, epoch))
}

/// Decodes a whole file: the graph, the store's records and the epoch.
fn parse(raw: &[u8]) -> Result<(CsrGraph, StoreRecords, u64), IoError> {
    let mut r = Reader::new(raw, 0);
    if r.remaining() < 8 {
        return Err(IoError::BadHeader);
    }
    let magic = r.u32("header")?;
    let version = r.u32("header")?;
    if magic != MAGIC {
        return Err(IoError::BadHeader);
    }
    match version {
        VERSION_V1 => {
            // Legacy: unsectioned, no CRCs, no epoch.
            let graph = decode_graph(&mut r)?;
            let store = decode_store(&mut r)?;
            r.expect_end("trailing bytes")?;
            Ok((graph, store, 0))
        }
        VERSION => {
            let epoch = r.u64("truncated epoch header")?;
            let at = r.offset();
            let header_crc = r.u32("truncated header crc")?;
            if crc32(&raw[..16]) != header_crc {
                return Err(IoError::corrupt("header crc mismatch", at));
            }
            // Each section must hold exactly its count × record size.
            let mut gs = take_section(&mut r, "truncated graph section")?;
            let graph = decode_graph(&mut gs)?;
            gs.expect_end("trailing graph section bytes")?;
            let mut ss = take_section(&mut r, "truncated store section")?;
            let store = decode_store(&mut ss)?;
            ss.expect_end("trailing store section bytes")?;
            r.expect_end("trailing bytes")?;
            Ok((graph, store, epoch))
        }
        _ => Err(IoError::BadHeader),
    }
}

/// Snapshot path for an epoch: `dir/snap-{epoch:016x}.snap` — hex-padded
/// so lexicographic order is epoch order.
pub fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snap-{epoch:016x}.snap"))
}

/// Snapshot files under `dir` as `(epoch, path)`, ascending by epoch.
/// Epochs come from the file *names*; validity is only known after a
/// [`load_with_epoch`]. Non-snapshot files are ignored; a missing
/// directory is an empty list.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut snaps = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for e in entries {
                let path = e?.path();
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if let Some(hex) = name
                    .strip_prefix("snap-")
                    .and_then(|s| s.strip_suffix(".snap"))
                {
                    if let Ok(epoch) = u64::from_str_radix(hex, 16) {
                        snaps.push((epoch, path));
                    }
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    snaps.sort_unstable();
    Ok(snaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{DatasetSpec, Scale};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("friends-io-{}-{name}.bin", std::process::id()));
        p
    }

    #[test]
    fn round_trip() {
        let ds = DatasetSpec::flickr_like(Scale::Tiny).build(3);
        let path = tmp("roundtrip");
        save(&path, &ds.graph, &ds.store).unwrap();
        let (g, s) = load(&path).unwrap();
        assert_eq!(g.num_nodes(), ds.graph.num_nodes());
        assert_eq!(g.num_edges(), ds.graph.num_edges());
        let bits = |w: &[f32]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        for u in g.nodes() {
            assert_eq!(g.neighbors(u), ds.graph.neighbors(u), "arcs of {u}");
            assert_eq!(
                bits(g.neighbor_weights(u)),
                bits(ds.graph.neighbor_weights(u)),
                "arc weights of {u}"
            );
        }
        assert_eq!(
            (s.num_users(), s.num_items(), s.num_tags(), s.num_taggings()),
            (
                ds.store.num_users(),
                ds.store.num_items(),
                ds.store.num_tags(),
                ds.store.num_taggings()
            )
        );
        let rows = |row: &[Tagging]| {
            row.iter()
                .map(|t| (t.user, t.item, t.tag, t.weight.to_bits()))
                .collect::<Vec<_>>()
        };
        for u in 0..s.num_users() {
            assert_eq!(
                rows(s.user_taggings(u)),
                rows(ds.store.user_taggings(u)),
                "user row {u}"
            );
        }
        for t in 0..s.num_tags() {
            assert_eq!(
                rows(s.tag_taggings(t)),
                rows(ds.store.tag_taggings(t)),
                "tag row {t}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// File offsets of a v2 file's store-section crc field and payload.
    fn store_layout(bytes: &[u8]) -> (usize, usize) {
        let graph_len = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
        let crc_at = 20 + 8 + graph_len + 4;
        (crc_at, crc_at + 4)
    }

    #[test]
    fn swapped_taggings_are_corrupt_at_the_first_swapped_record() {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(5);
        let path = tmp("swap");
        save(&path, &ds.graph, &ds.store).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (crc_at, payload) = store_layout(&bytes);
        let rec = |i: usize| payload + 16 + i * TAGGING_BYTES;
        let i = ds.store.num_taggings() / 2;
        let (a, b) = (rec(i), rec(i + 1));
        let first: Vec<u8> = bytes[a..b].to_vec();
        bytes.copy_within(b..b + TAGGING_BYTES, a);
        bytes[b..b + TAGGING_BYTES].copy_from_slice(&first);
        let crc = crc32(&bytes[payload..]);
        bytes[crc_at..payload].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match load(&path) {
            Err(IoError::Corrupt { what, offset }) => {
                assert_eq!(what, "taggings out of order");
                assert_eq!(offset as usize, a);
            }
            other => panic!("expected out-of-order error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn length_fields_refuse_to_truncate() {
        assert_eq!(field_u32(u32::MAX as usize, "x").unwrap(), u32::MAX);
        #[cfg(target_pointer_width = "64")]
        match field_u32(u32::MAX as usize + 1, "section length") {
            Err(IoError::TooLarge { what, len }) => {
                assert_eq!((what, len), ("section length", 1 << 32));
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn epoch_round_trips_in_the_header() {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(4);
        let path = tmp("epoch");
        save_with_epoch(&path, &ds.graph, &ds.store, 0xDEAD_BEEF).unwrap();
        let (_, _, epoch) = load_with_epoch(&path).unwrap();
        assert_eq!(epoch, 0xDEAD_BEEF);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn still_reads_v1_files() {
        let ds = DatasetSpec::citeulike_like(Scale::Tiny).build(2);
        let path = tmp("v1compat");
        // Hand-roll a v1 file: unsectioned, no CRCs.
        let mut buf = Vec::new();
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(VERSION_V1);
        buf.extend_from_slice(&encode_graph(&ds.graph).unwrap());
        buf.extend_from_slice(&encode_store(&ds.store).unwrap());
        std::fs::write(&path, &buf).unwrap();
        let (g, s, epoch) = load_with_epoch(&path).unwrap();
        assert_eq!(epoch, 0, "v1 files predate epochs");
        assert_eq!(g.num_edges(), ds.graph.num_edges());
        assert_eq!(s.num_taggings(), ds.store.num_taggings());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"not a dataset at all").unwrap();
        match load(&path) {
            Err(IoError::BadHeader) | Err(IoError::Corrupt { .. }) => {}
            other => panic!("expected header error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncation() {
        let ds = DatasetSpec::citeulike_like(Scale::Tiny).build(1);
        let path = tmp("trunc");
        save(&path, &ds.graph, &ds.store).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(load(&path), Err(IoError::Corrupt { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_trailing_garbage() {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(1);
        let path = tmp("trailing");
        save(&path, &ds.graph, &ds.store).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&path, &bytes).unwrap();
        match load(&path) {
            Err(IoError::Corrupt { what, offset }) => {
                assert_eq!(what, "trailing bytes");
                assert_eq!(offset as usize, bytes.len() - 3);
            }
            other => panic!("expected trailing-bytes error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn section_crc_catches_payload_flips() {
        let ds = DatasetSpec::flickr_like(Scale::Tiny).build(6);
        let path = tmp("crcflip");
        save(&path, &ds.graph, &ds.store).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit in every byte past the fixed header; the section
        // CRCs (or framing checks) must reject all of them.
        let mut rejected = 0;
        for pos in (16..clean.len()).step_by(7) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            if load(&path).is_err() {
                rejected += 1;
            }
        }
        let tried = (16..clean.len()).step_by(7).count();
        assert_eq!(rejected, tried, "every payload flip must be detected");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_offset_is_actionable() {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(3);
        let path = tmp("offset");
        save(&path, &ds.graph, &ds.store).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes.len() / 2;
        bytes[pos] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match load(&path) {
            Err(IoError::Corrupt { offset, .. }) => {
                // The CRC blames the section payload containing the flip.
                assert!(offset as usize <= pos, "offset {offset} past flip {pos}");
                assert!(offset > 0);
            }
            other => panic!("expected corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_no_temp_residue() {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(8);
        let dir = std::env::temp_dir().join(format!("friends-io-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        save(&path, &ds.graph, &ds.store).unwrap();
        // Overwrite must go through rename as well.
        save_with_epoch(&path, &ds.graph, &ds.store, 9).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["data.bin".to_string()], "no temp files left");
        let (_, _, epoch) = load_with_epoch(&path).unwrap();
        assert_eq!(epoch, 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_listing_orders_by_epoch() {
        let dir = std::env::temp_dir().join(format!("friends-io-snaps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for e in [7u64, 1, 300] {
            std::fs::write(snapshot_path(&dir, e), b"x").unwrap();
        }
        std::fs::write(dir.join("unrelated.txt"), b"y").unwrap();
        let snaps = list_snapshots(&dir).unwrap();
        let epochs: Vec<u64> = snaps.iter().map(|&(e, _)| e).collect();
        assert_eq!(epochs, vec![1, 7, 300]);
        assert!(list_snapshots(&dir.join("missing")).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", IoError::BadHeader).contains("magic"));
        let e = IoError::corrupt("x", 42);
        let msg = format!("{e}");
        assert!(msg.contains('x') && msg.contains("42"));
    }
}
