//! Segmented write-ahead log for live-graph mutation batches.
//!
//! PR 9 made the corpus mutable; this module makes those mutations
//! *durable*. Every applied [`MutationBatch`] is appended as one
//! length-prefixed, CRC32-checksummed record stamped with the epoch it
//! publishes, `fsync`ed per [`SyncPolicy`], before the batch is
//! acknowledged. After a crash, [`Wal::replay`] walks the segments in
//! epoch order and stops cleanly at the first torn or corrupt record —
//! everything durable before it survives, nothing after it is trusted.
//!
//! ## Record layout
//!
//! ```text
//!   ┌────────────┬────────────┬──────────────┬───────────────────┐
//!   │ len: u32le │ crc: u32le │ epoch: u64le │ payload (len B)   │
//!   └────────────┴────────────┴──────────────┴───────────────────┘
//!                     crc = CRC32(epoch_le ‖ payload)
//! ```
//!
//! The payload is the batch codec below ([`encode_batch`] /
//! [`decode_batch`]): a mutation count followed by one tagged entry per
//! mutation. A record is accepted only if its header fits, the declared
//! payload fits, the CRC matches, the payload decodes exactly, and its
//! epoch is strictly greater than the previous record's — anything else is
//! the stop point (tail truncation or a corrupt segment, reported, never
//! fatal).
//!
//! ## Group commit and segments
//!
//! One committed batch = one record = one `write` (+ one `fsync` under
//! [`SyncPolicy::Always`]) — the fsync amortizes over the whole batch,
//! which is what makes durable writes affordable at serving rates.
//! Segments are named `wal-{first_epoch:016x}.log` so their sort order is
//! replay order; [`Wal::rotate`] seals the active segment, and
//! [`Wal::retire_through`] deletes sealed segments made redundant by a
//! newer snapshot.
//!
//! ## Fault injection
//!
//! Appends go through the [`WalFs`]/[`WalFile`] traits. Production uses
//! [`StdFs`]; the [`fault`] module provides [`fault::FailingFs`] — a
//! writer that dies after N bytes, flips a bit in the stream, or silently
//! drops flushes — so crash-consistency is *proven* by killing the writer
//! at every byte offset (`crates/core/tests/proptest_recovery.rs`), not
//! assumed.

use crate::mutations::{Mutation, MutationBatch};
use crate::Tagging;
use bytes::BufMut;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Record header: payload length, CRC, epoch.
const HEADER: usize = 4 + 4 + 8;
/// Smallest legal mutation encoding (`RemoveEdge`: tag byte + two u32s) —
/// bounds the mutation count a decoder will believe from a length field.
const MIN_MUTATION: usize = 9;

/// When the WAL `fsync`s. The crash-consistency contract per policy:
///
/// * `Always` — every acknowledged batch survives any crash (group commit:
///   one fsync per batch, amortized over its mutations).
/// * `EveryN(n)` — up to the last `n - 1` acknowledged batches may be lost
///   on power failure; recovery still lands on a clean batch prefix.
/// * `Never` — the OS flushes when it pleases; any suffix of acknowledged
///   batches may be lost. Recovery still never sees a partial batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every appended record.
    Always,
    /// `fsync` after every `n`th appended record (`n >= 1`; `EveryN(1)`
    /// behaves like `Always`).
    EveryN(u32),
    /// Never `fsync`; rely on the OS page cache.
    Never,
}

/// WAL tuning.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Fsync cadence — see [`SyncPolicy`].
    pub sync: SyncPolicy,
    /// Seal the active segment once it exceeds this many bytes (the next
    /// append starts a new one). Bounds per-segment replay memory and the
    /// blast radius of a corrupt segment.
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            sync: SyncPolicy::Always,
            segment_bytes: 8 << 20,
        }
    }
}

/// One append's receipt: how many bytes the record occupied and whether
/// this append `fsync`ed (under [`SyncPolicy::EveryN`] most appends ride
/// on a later sync).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalAppend {
    /// Total record bytes (header + payload).
    pub bytes: u64,
    /// Whether this append ended with an `fsync`.
    pub synced: bool,
}

/// Monotonic WAL counters, snapshotted by [`Wal::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended over this handle's lifetime.
    pub appends: u64,
    /// Bytes appended (headers + payloads).
    pub bytes: u64,
    /// `fsync`s issued.
    pub syncs: u64,
    /// Segment rotations (seals).
    pub rotations: u64,
    /// Sealed segments deleted by [`Wal::retire_through`].
    pub retired_segments: u64,
    /// Segments currently on disk (sealed + active).
    pub segments: u64,
}

/// What [`Wal::replay`] found: every decodable record in epoch order, plus
/// how the log ended.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// `(epoch, batch)` for every valid record, in log order (epochs
    /// strictly increasing).
    pub records: Vec<(u64, MutationBatch)>,
    /// The scan stopped at a torn or corrupt record in the **final**
    /// segment — the expected artifact of a crash mid-append.
    pub truncated_tail: bool,
    /// Segments wholly or partially discarded: a mid-log segment that
    /// failed validation, plus every segment after the stop point (their
    /// epochs can no longer chain).
    pub corrupt_segments: usize,
    /// Bytes of valid records scanned.
    pub valid_bytes: u64,
}

impl WalReplay {
    /// Epoch of the last valid record (`None` for an empty log).
    pub fn last_epoch(&self) -> Option<u64> {
        self.records.last().map(|&(e, _)| e)
    }
}

// ---------------------------------------------------------------------------
// Batch + record codec
// ---------------------------------------------------------------------------

/// Serializes a batch into the WAL payload form (count + tagged entries).
pub fn encode_batch(batch: &MutationBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + batch.len() * 17);
    out.put_u32_le(batch.len() as u32);
    for m in &batch.mutations {
        match *m {
            Mutation::InsertEdge { u, v, weight } => {
                out.push(0);
                out.put_u32_le(u);
                out.put_u32_le(v);
                out.put_f32_le(weight);
            }
            Mutation::RemoveEdge { u, v } => {
                out.push(1);
                out.put_u32_le(u);
                out.put_u32_le(v);
            }
            Mutation::AddTagging(t) => {
                out.push(2);
                out.put_u32_le(t.user);
                out.put_u32_le(t.item);
                out.put_u32_le(t.tag);
                out.put_f32_le(t.weight);
            }
        }
    }
    out
}

/// Decodes a payload written by [`encode_batch`]. The payload must be
/// consumed exactly; any structural mismatch is an error naming the field
/// that failed (the CRC normally rejects corruption first — this is the
/// second line of defense, and the decoder the round-trip proptests pin).
pub fn decode_batch(buf: &[u8]) -> Result<MutationBatch, &'static str> {
    let mut r = Cursor { buf, pos: 0 };
    let count = r.u32("mutation count")? as usize;
    if count > buf.len() / MIN_MUTATION + 1 {
        return Err("mutation count exceeds payload");
    }
    let mut mutations = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = r.u8("mutation kind")?;
        let m = match kind {
            0 => {
                let u = r.u32("insert endpoint u")?;
                let v = r.u32("insert endpoint v")?;
                let weight = r.f32("insert weight")?;
                if !weight.is_finite() {
                    return Err("non-finite insert weight");
                }
                Mutation::InsertEdge { u, v, weight }
            }
            1 => Mutation::RemoveEdge {
                u: r.u32("remove endpoint u")?,
                v: r.u32("remove endpoint v")?,
            },
            2 => {
                let t = Tagging {
                    user: r.u32("tagging user")?,
                    item: r.u32("tagging item")?,
                    tag: r.u32("tagging tag")?,
                    weight: r.f32("tagging weight")?,
                };
                if !t.weight.is_finite() {
                    return Err("non-finite tagging weight");
                }
                Mutation::AddTagging(t)
            }
            _ => return Err("unknown mutation kind"),
        };
        mutations.push(m);
    }
    if r.pos != buf.len() {
        return Err("trailing payload bytes");
    }
    Ok(MutationBatch::new(mutations))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&[u8], &'static str> {
        if self.buf.len() - self.pos < n {
            return Err(what);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self, what: &'static str) -> Result<u8, &'static str> {
        Ok(self.take(1, what)?[0])
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn f32(&mut self, what: &'static str) -> Result<f32, &'static str> {
        Ok(f32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
}

/// Serializes one full record (header + payload) into `out`, returning the
/// record's size in bytes.
pub fn encode_record(epoch: u64, batch: &MutationBatch, out: &mut Vec<u8>) -> usize {
    let payload = encode_batch(batch);
    let mut crc = crate::crc::Crc32::new();
    crc.update(&epoch.to_le_bytes());
    crc.update(&payload);
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(crc.finish());
    out.put_u64_le(epoch);
    out.extend_from_slice(&payload);
    HEADER + payload.len()
}

/// Why a record failed to decode — both variants mean "stop scanning
/// here"; the distinction is reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The buffer ends before the record does (torn write).
    Torn,
    /// The record is structurally complete but invalid (CRC mismatch,
    /// undecodable payload, epoch regression).
    Corrupt(&'static str),
}

/// Decodes the record at the start of `buf`. `prev_epoch` enforces the
/// strictly-increasing epoch chain (`None` at the start of the log).
/// Returns `(epoch, batch, bytes_consumed)`.
pub fn decode_record(
    buf: &[u8],
    prev_epoch: Option<u64>,
) -> Result<(u64, MutationBatch, usize), RecordError> {
    if buf.len() < HEADER {
        return Err(RecordError::Torn);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if buf.len() - HEADER < len {
        // A corrupted length field is indistinguishable from a torn tail;
        // both stop the scan.
        return Err(RecordError::Torn);
    }
    let mut h = crate::crc::Crc32::new();
    h.update(&buf[8..HEADER + len]);
    if h.finish() != crc {
        return Err(RecordError::Corrupt("record crc mismatch"));
    }
    let epoch = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    if prev_epoch.is_some_and(|p| epoch <= p) {
        return Err(RecordError::Corrupt("epoch regression"));
    }
    let batch = decode_batch(&buf[HEADER..HEADER + len]).map_err(RecordError::Corrupt)?;
    Ok((epoch, batch, HEADER + len))
}

// ---------------------------------------------------------------------------
// Pluggable write path (fault injection)
// ---------------------------------------------------------------------------

/// One open WAL segment on the write path.
pub trait WalFile: Send {
    /// Appends `buf` (all-or-error, like `write_all`).
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Makes everything appended so far durable (`fsync`).
    fn sync(&mut self) -> io::Result<()>;
}

/// Opens WAL segments. Production is [`StdFs`]; tests inject
/// [`fault::FailingFs`].
pub trait WalFs: Send + Sync {
    /// Opens `path` for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalFile>>;
}

/// The real filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdFs;

struct StdFile(std::fs::File);

impl WalFile for StdFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl WalFs for StdFs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(StdFile(f)))
    }
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// A sealed-or-active segment the handle knows about.
#[derive(Clone, Debug)]
struct SegmentMeta {
    path: PathBuf,
    /// Epoch of the segment's last record (segments are never empty).
    last_epoch: u64,
}

/// The segmented write-ahead log. One instance is the single writer for a
/// directory; callers serialize appends (the live-corpus writer gate /
/// service mutation gate already do).
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    fs: Arc<dyn WalFs>,
    /// The open active segment, if any (`None` right after open/rotate —
    /// the next append creates one named by its epoch).
    active: Option<(Box<dyn WalFile>, SegmentMeta, u64)>, // (file, meta, bytes)
    sealed: Vec<SegmentMeta>,
    appends_since_sync: u32,
    stats: WalStats,
}

impl Wal {
    /// Segment path for a first-record epoch.
    pub fn segment_path(dir: &Path, first_epoch: u64) -> PathBuf {
        dir.join(format!("wal-{first_epoch:016x}.log"))
    }

    fn parse_segment(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
        u64::from_str_radix(hex, 16).ok()
    }

    /// Segment paths in replay (epoch) order.
    fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut segs = Vec::new();
        match std::fs::read_dir(dir) {
            Ok(entries) => {
                for e in entries {
                    let path = e?.path();
                    if let Some(epoch) = Self::parse_segment(&path) {
                        segs.push((epoch, path));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        segs.sort_unstable();
        Ok(segs)
    }

    /// Scans one segment's bytes: valid records, the byte length of the
    /// valid prefix, and the error that stopped the scan (if any).
    fn scan_segment(
        bytes: &[u8],
        mut prev_epoch: Option<u64>,
    ) -> (Vec<(u64, MutationBatch)>, usize, Option<RecordError>) {
        let mut records = Vec::new();
        let mut pos = 0;
        while pos < bytes.len() {
            match decode_record(&bytes[pos..], prev_epoch) {
                Ok((epoch, batch, consumed)) => {
                    prev_epoch = Some(epoch);
                    records.push((epoch, batch));
                    pos += consumed;
                }
                Err(e) => return (records, pos, Some(e)),
            }
        }
        (records, pos, None)
    }

    /// Read-only scan of every segment under `dir`, stopping at the first
    /// torn or corrupt record. Never errors on corruption — only on an
    /// unreadable directory/file.
    pub fn replay(dir: &Path) -> io::Result<WalReplay> {
        let segs = Self::segment_files(dir)?;
        let mut out = WalReplay::default();
        let mut prev_epoch = None;
        let mut stopped = false;
        let last = segs.len().saturating_sub(1);
        for (i, (_, path)) in segs.iter().enumerate() {
            if stopped {
                out.corrupt_segments += 1;
                continue;
            }
            let mut bytes = Vec::new();
            std::fs::File::open(path)?.read_to_end(&mut bytes)?;
            let (records, valid_len, err) = Self::scan_segment(&bytes, prev_epoch);
            prev_epoch = records.last().map(|&(e, _)| e).or(prev_epoch);
            out.valid_bytes += valid_len as u64;
            out.records.extend(records);
            if let Some(e) = err {
                stopped = true;
                if i == last && e == RecordError::Torn {
                    out.truncated_tail = true;
                } else {
                    // Mid-log damage (or a CRC-invalid record even at the
                    // tail): the segment is corrupt, not merely torn.
                    out.corrupt_segments += 1;
                    out.truncated_tail = true;
                }
            }
        }
        Ok(out)
    }

    /// Opens (and repairs) the log for appending through the real
    /// filesystem.
    pub fn open(dir: &Path, config: WalConfig) -> io::Result<Wal> {
        Self::open_with(dir, config, Arc::new(StdFs))
    }

    /// [`Wal::open`] with an injected write path ([`fault::FailingFs`] in
    /// the crash harness). Repair — truncating the torn tail and deleting
    /// unusable later segments — always happens through the real
    /// filesystem: it mirrors what [`Wal::replay`] validated.
    pub fn open_with(dir: &Path, config: WalConfig, fs: Arc<dyn WalFs>) -> io::Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let segs = Self::segment_files(dir)?;
        let mut sealed = Vec::new();
        let mut prev_epoch = None;
        let mut stopped = false;
        let mut retired = 0u64;
        let last = segs.len().saturating_sub(1);
        let mut active_tail: Option<(SegmentMeta, u64)> = None;
        for (i, (_, path)) in segs.iter().enumerate() {
            if stopped {
                // Epochs after the stop point can never chain; the
                // segment is unusable and appending past it would hide
                // the gap.
                std::fs::remove_file(path)?;
                retired += 1;
                continue;
            }
            let mut bytes = Vec::new();
            std::fs::File::open(path)?.read_to_end(&mut bytes)?;
            let (records, valid_len, err) = Self::scan_segment(&bytes, prev_epoch);
            if err.is_some() {
                stopped = true;
            }
            match records.last() {
                Some(&(e, _)) => {
                    prev_epoch = Some(e);
                    if valid_len < bytes.len() {
                        // Tail truncation: keep exactly the valid prefix.
                        let f = std::fs::OpenOptions::new().write(true).open(path)?;
                        f.set_len(valid_len as u64)?;
                        f.sync_data()?;
                    }
                    let meta = SegmentMeta {
                        path: path.clone(),
                        last_epoch: e,
                    };
                    if i == last && !stopped {
                        active_tail = Some((meta, valid_len as u64));
                    } else if i == last {
                        // Repaired tail segment: seal it — the next append
                        // starts a fresh segment after the repair point.
                        sealed.push(meta);
                    } else {
                        sealed.push(meta);
                    }
                }
                None => {
                    // No valid record at all — an empty or wholly corrupt
                    // file; appending to it would bury garbage mid-log.
                    std::fs::remove_file(path)?;
                    retired += 1;
                }
            }
        }
        // Reopen the clean tail segment for appending if it has room.
        let active = match active_tail {
            Some((meta, len)) if len < config.segment_bytes => {
                let file = fs.open_append(&meta.path)?;
                Some((file, meta, len))
            }
            Some((meta, _)) => {
                sealed.push(meta);
                None
            }
            None => None,
        };
        let segments = sealed.len() as u64 + active.is_some() as u64;
        Ok(Wal {
            dir: dir.to_path_buf(),
            config,
            fs,
            active,
            sealed,
            appends_since_sync: 0,
            stats: WalStats {
                retired_segments: retired,
                segments,
                ..WalStats::default()
            },
        })
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one batch as a single record and applies the sync policy.
    /// The record is on its way to disk when this returns; with
    /// [`SyncPolicy::Always`] (or when `synced` is set in the receipt) it
    /// is durable.
    pub fn append(&mut self, epoch: u64, batch: &MutationBatch) -> io::Result<WalAppend> {
        let mut buf = Vec::new();
        let bytes = encode_record(epoch, batch, &mut buf) as u64;
        if self.active.is_none() {
            let meta = SegmentMeta {
                path: Self::segment_path(&self.dir, epoch),
                last_epoch: epoch,
            };
            let file = self.fs.open_append(&meta.path)?;
            self.active = Some((file, meta, 0));
            self.stats.segments += 1;
        }
        let (file, meta, len) = self.active.as_mut().unwrap();
        file.append(&buf)?;
        meta.last_epoch = epoch;
        *len += bytes;
        self.stats.appends += 1;
        self.stats.bytes += bytes;
        self.appends_since_sync += 1;
        let synced = match self.config.sync {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => self.appends_since_sync >= n.max(1),
            SyncPolicy::Never => false,
        };
        if synced {
            file.sync()?;
            self.stats.syncs += 1;
            self.appends_since_sync = 0;
        }
        if *len >= self.config.segment_bytes {
            self.rotate()?;
        }
        Ok(WalAppend { bytes, synced })
    }

    /// Syncs the active segment regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some((file, _, _)) = self.active.as_mut() {
            file.sync()?;
            self.stats.syncs += 1;
            self.appends_since_sync = 0;
        }
        Ok(())
    }

    /// Seals the active segment (after a final sync); the next append
    /// starts a fresh one. No-op when nothing is active.
    pub fn rotate(&mut self) -> io::Result<()> {
        if let Some((mut file, meta, _)) = self.active.take() {
            file.sync()?;
            self.stats.syncs += 1;
            self.appends_since_sync = 0;
            self.sealed.push(meta);
            self.stats.rotations += 1;
        }
        Ok(())
    }

    /// Deletes sealed segments whose every record is `<= epoch` — called
    /// after a snapshot at `epoch` makes them redundant. The active
    /// segment is never deleted (call [`Wal::rotate`] first to seal it).
    /// Returns the number of segments deleted.
    pub fn retire_through(&mut self, epoch: u64) -> io::Result<usize> {
        let mut kept = Vec::with_capacity(self.sealed.len());
        let mut deleted = 0;
        for seg in self.sealed.drain(..) {
            if seg.last_epoch <= epoch {
                std::fs::remove_file(&seg.path)?;
                deleted += 1;
            } else {
                kept.push(seg);
            }
        }
        self.sealed = kept;
        self.stats.retired_segments += deleted as u64;
        self.stats.segments -= deleted as u64;
        Ok(deleted)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort final flush so a clean shutdown under
        // `SyncPolicy::Never`/`EveryN` loses nothing.
        let _ = self.sync();
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Crash-point and corruption injection for the WAL write path — the
/// harness behind the recovery proptests. Not `cfg(test)`: the bench
/// harness and downstream crash drills use it too, like
/// `friends_service`'s `FaultPlan`.
pub mod fault {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// What the failing writer does to the byte stream. Offsets and
    /// budgets are *global* across every segment the [`FailingFs`] opens —
    /// the stream position is "bytes the writer believes it wrote so far".
    #[derive(Clone, Copy, Debug)]
    pub enum FailMode {
        /// Persist exactly the first `n` stream bytes, then fail every
        /// write (the process "died" mid-write; a partial record may land
        /// on disk).
        CrashAfter(u64),
        /// Flip bit `bit` of the stream byte at `offset`; writes succeed.
        /// Models silent media corruption the CRC must catch.
        FlipBit {
            /// Global stream offset of the byte to corrupt.
            offset: u64,
            /// Which bit (0–7) to flip.
            bit: u8,
        },
        /// Buffer writes; only a `sync` persists them — and syncs after
        /// the first `n` are silently *dropped* together with their
        /// buffered bytes (a lying disk / lost final flush). `n = 0`
        /// persists nothing.
        DropSyncsAfter(u64),
    }

    /// Shared stream state across the segments one run opens.
    #[derive(Default)]
    struct FailShared {
        written: AtomicU64,
        syncs: AtomicU64,
    }

    /// A [`WalFs`] that injects one [`FailMode`] into the write path.
    /// Clone-cheap; all clones share the stream position.
    #[derive(Clone)]
    pub struct FailingFs {
        mode: FailMode,
        shared: Arc<FailShared>,
    }

    impl FailingFs {
        /// A fresh injector (stream position 0).
        pub fn new(mode: FailMode) -> Self {
            FailingFs {
                mode,
                shared: Arc::new(FailShared::default()),
            }
        }

        /// Bytes the writer has pushed through so far (whether or not
        /// they were persisted).
        pub fn stream_position(&self) -> u64 {
            self.shared.written.load(Ordering::SeqCst)
        }
    }

    impl WalFs for FailingFs {
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            Ok(Box::new(FailingFile {
                file,
                mode: self.mode,
                shared: Arc::clone(&self.shared),
                buffer: Mutex::new(Vec::new()),
            }))
        }
    }

    struct FailingFile {
        file: std::fs::File,
        mode: FailMode,
        shared: Arc<FailShared>,
        /// Unsynced bytes under [`FailMode::DropSyncsAfter`].
        buffer: Mutex<Vec<u8>>,
    }

    impl WalFile for FailingFile {
        fn append(&mut self, buf: &[u8]) -> io::Result<()> {
            let start = self
                .shared
                .written
                .fetch_add(buf.len() as u64, Ordering::SeqCst);
            match self.mode {
                FailMode::CrashAfter(n) => {
                    let room = n.saturating_sub(start).min(buf.len() as u64) as usize;
                    self.file.write_all(&buf[..room])?;
                    if room < buf.len() {
                        self.file.sync_data().ok();
                        return Err(io::Error::other("injected crash: write budget exhausted"));
                    }
                    Ok(())
                }
                FailMode::FlipBit { offset, bit } => {
                    if (start..start + buf.len() as u64).contains(&offset) {
                        let mut owned = buf.to_vec();
                        owned[(offset - start) as usize] ^= 1 << (bit & 7);
                        self.file.write_all(&owned)
                    } else {
                        self.file.write_all(buf)
                    }
                }
                FailMode::DropSyncsAfter(_) => {
                    self.buffer.lock().unwrap().extend_from_slice(buf);
                    Ok(())
                }
            }
        }

        fn sync(&mut self) -> io::Result<()> {
            match self.mode {
                FailMode::DropSyncsAfter(n) => {
                    let sync_no = self.shared.syncs.fetch_add(1, Ordering::SeqCst);
                    let mut buffer = self.buffer.lock().unwrap();
                    if sync_no < n {
                        self.file.write_all(&buffer)?;
                        buffer.clear();
                        self.file.sync_data()
                    } else {
                        // The lying flush: claim success, persist nothing.
                        buffer.clear();
                        Ok(())
                    }
                }
                _ => self.file.sync_data(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fault::{FailMode, FailingFs};
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "friends-wal-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(seed: u32) -> MutationBatch {
        MutationBatch::new(vec![
            Mutation::InsertEdge {
                u: seed,
                v: seed + 1,
                weight: 0.5 + seed as f32 * 0.01,
            },
            Mutation::RemoveEdge {
                u: seed,
                v: seed + 2,
            },
            Mutation::AddTagging(Tagging::unit(seed, seed + 3, seed % 7)),
        ])
    }

    #[test]
    fn record_round_trip() {
        let b = batch(4);
        let mut buf = Vec::new();
        let n = encode_record(9, &b, &mut buf);
        assert_eq!(n, buf.len());
        let (epoch, decoded, consumed) = decode_record(&buf, Some(8)).unwrap();
        assert_eq!((epoch, consumed), (9, buf.len()));
        assert_eq!(decoded, b);
    }

    #[test]
    fn empty_batch_round_trips() {
        let mut buf = Vec::new();
        encode_record(1, &MutationBatch::default(), &mut buf);
        let (_, decoded, _) = decode_record(&buf, None).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn epoch_regression_is_corrupt() {
        let mut buf = Vec::new();
        encode_record(5, &batch(1), &mut buf);
        assert!(matches!(
            decode_record(&buf, Some(5)),
            Err(RecordError::Corrupt("epoch regression"))
        ));
    }

    #[test]
    fn truncation_is_torn_at_every_cut() {
        let mut buf = Vec::new();
        encode_record(3, &batch(2), &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                decode_record(&buf[..cut], None).unwrap_err(),
                RecordError::Torn,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn append_replay_round_trip_and_rotation() {
        let dir = tmp_dir("roundtrip");
        let mut wal = Wal::open(
            &dir,
            WalConfig {
                sync: SyncPolicy::Always,
                segment_bytes: 96, // force rotations
            },
        )
        .unwrap();
        let batches: Vec<MutationBatch> = (0..6).map(batch).collect();
        for (i, b) in batches.iter().enumerate() {
            let ack = wal.append(i as u64 + 1, b).unwrap();
            assert!(ack.synced && ack.bytes > 0);
        }
        let s = wal.stats();
        assert_eq!(s.appends, 6);
        assert!(s.rotations > 0, "tiny segment budget must rotate");
        assert!(s.segments > 1);
        drop(wal);
        let replay = Wal::replay(&dir).unwrap();
        assert!(!replay.truncated_tail);
        assert_eq!(replay.corrupt_segments, 0);
        assert_eq!(replay.records.len(), 6);
        for (i, (epoch, b)) in replay.records.iter().enumerate() {
            assert_eq!(*epoch, i as u64 + 1);
            assert_eq!(b, &batches[i]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_n_sync_cadence() {
        let dir = tmp_dir("everyn");
        let mut wal = Wal::open(
            &dir,
            WalConfig {
                sync: SyncPolicy::EveryN(3),
                ..WalConfig::default()
            },
        )
        .unwrap();
        let synced: Vec<bool> = (1..=7)
            .map(|e| wal.append(e, &batch(e as u32)).unwrap().synced)
            .collect();
        assert_eq!(synced, [false, false, true, false, false, true, false]);
        assert_eq!(wal.stats().syncs, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_continues_the_chain() {
        let dir = tmp_dir("reopen");
        let cfg = WalConfig::default();
        let mut wal = Wal::open(&dir, cfg.clone()).unwrap();
        wal.append(1, &batch(1)).unwrap();
        wal.append(2, &batch(2)).unwrap();
        drop(wal);
        let mut wal = Wal::open(&dir, cfg).unwrap();
        wal.append(3, &batch(3)).unwrap();
        drop(wal);
        let replay = Wal::replay(&dir).unwrap();
        assert_eq!(
            replay.records.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(!replay.truncated_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_truncates_a_torn_tail_and_appends_cleanly() {
        let dir = tmp_dir("torn");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append(1, &batch(1)).unwrap();
        wal.append(2, &batch(2)).unwrap();
        drop(wal);
        // Tear the tail mid-record.
        let seg = Wal::segment_path(&dir, 1);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();
        let replay = Wal::replay(&dir).unwrap();
        assert!(replay.truncated_tail);
        assert_eq!(replay.records.len(), 1);
        // Open repairs: the torn record is gone, new appends chain on.
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append(2, &batch(9)).unwrap();
        drop(wal);
        let replay = Wal::replay(&dir).unwrap();
        assert!(!replay.truncated_tail);
        assert_eq!(
            replay.records.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(replay.records[1].1, batch(9));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retire_through_deletes_only_covered_segments() {
        let dir = tmp_dir("retire");
        let mut wal = Wal::open(
            &dir,
            WalConfig {
                segment_bytes: 64,
                ..WalConfig::default()
            },
        )
        .unwrap();
        for e in 1..=8 {
            wal.append(e, &batch(e as u32)).unwrap();
        }
        wal.rotate().unwrap();
        let before = wal.stats().segments;
        assert!(before >= 2);
        let deleted = wal.retire_through(4).unwrap();
        assert!(deleted > 0);
        let replay = Wal::replay(&dir).unwrap();
        // Everything after epoch 4 must survive retirement.
        let epochs: Vec<u64> = replay.records.iter().map(|&(e, _)| e).collect();
        assert!(epochs.contains(&8) && epochs.iter().all(|&e| e > deleted as u64));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_after_budget_yields_a_clean_prefix() {
        let dir = tmp_dir("crash");
        let fs = Arc::new(FailingFs::new(FailMode::CrashAfter(100)));
        let mut wal = Wal::open_with(&dir, WalConfig::default(), fs).unwrap();
        let mut appended = 0;
        for e in 1..=10u64 {
            match wal.append(e, &batch(e as u32)) {
                Ok(_) => appended += 1,
                Err(_) => break,
            }
        }
        assert!(appended < 10, "the budget must kill the writer");
        drop(wal);
        let replay = Wal::replay(&dir).unwrap();
        assert!(replay.records.len() <= appended + 1);
        for (i, &(e, _)) in replay.records.iter().enumerate() {
            assert_eq!(e, i as u64 + 1, "replay must be a clean prefix");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_bit_is_detected_not_served() {
        let dir = tmp_dir("flip");
        // Corrupt one payload byte of the second record.
        let fs = Arc::new(FailingFs::new(FailMode::FlipBit { offset: 80, bit: 3 }));
        let mut wal = Wal::open_with(&dir, WalConfig::default(), fs).unwrap();
        for e in 1..=3u64 {
            wal.append(e, &batch(e as u32)).unwrap();
        }
        drop(wal);
        let replay = Wal::replay(&dir).unwrap();
        assert!(replay.records.len() < 3, "corruption must stop the scan");
        assert!(replay.truncated_tail || replay.corrupt_segments > 0);
        for (i, &(e, _)) in replay.records.iter().enumerate() {
            assert_eq!(e, i as u64 + 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_final_flush_loses_only_the_unsynced_suffix() {
        let dir = tmp_dir("dropflush");
        let fs = Arc::new(FailingFs::new(FailMode::DropSyncsAfter(2)));
        let mut wal = Wal::open_with(&dir, WalConfig::default(), fs).unwrap();
        for e in 1..=5u64 {
            let ack = wal.append(e, &batch(e as u32)).unwrap();
            assert!(ack.synced, "Always policy reports synced (the disk lies)");
        }
        drop(wal);
        let replay = Wal::replay(&dir).unwrap();
        assert_eq!(
            replay.records.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
            vec![1, 2],
            "only the two honestly-flushed records survive"
        );
        assert!(!replay.truncated_tail, "lost flushes tear at record edges");
        std::fs::remove_dir_all(&dir).ok();
    }
}
