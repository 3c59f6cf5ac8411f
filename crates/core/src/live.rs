//! The live-graph write path: epoch-snapshot publication with incremental
//! cache maintenance.
//!
//! Every structure below this module is immutable — the CSR graph, the
//! posting store, the σ index are built once and only read. [`LiveCorpus`]
//! turns that immutability into the concurrency mechanism of a *mutable*
//! corpus: writers never edit in place, they assemble the next [`Corpus`]
//! off to the side — sharing with the current one every section the batch
//! did not touch — and swap one `Arc` pointer; readers never block on that
//! work, they pin whatever snapshot was current when their query started
//! and keep it alive by refcount.
//!
//! ## Epoch lifecycle
//!
//! ```text
//!   epoch N (frozen)                          epoch N+1
//!   ┌────────────────┐   prepare (off-lock)   ┌────────────────┐
//!   │ graph · store  │ ─────────────────────▶ │ graph' · store'│
//!   │ σ-index, lists │   copied: one pointer  │ σ-index, lists │
//!   └───────┬────────┘   per user/tag/term,   └───────▲────────┘
//!           │            the rows the batch           │
//!           │            names, one linear            │
//!           │            CSR pass (same token!)       │
//!           │            shared: all other rows       │
//!           │                                         │
//!           │ readers pin via Arc      advance σ,     │ publish: one
//!           │ (never blocked)          sweep results  │ pointer swap
//!           ▼                                         │ under write lock
//!   retired when the last reader drops ───────────────┘
//! ```
//!
//! 1. **prepare** — assemble the next corpus from the current snapshot:
//!    [`friends_graph::CsrGraph::with_edits`] (token-preserving) plus
//!    [`friends_data::store::TagStore::with_appends`] plus
//!    [`Corpus::next_epoch`], stamped `epoch + 1`, and record what the
//!    batch changed: the *effective* edge edits (pairs whose stored weight
//!    really differs — removing an absent edge or inserting one at its
//!    stored weight touches nothing) and the touched tags. No lock is
//!    held; queries proceed untouched.
//! 2. **sweep** — make every cache entry the batch can affect safe under
//!    the new epoch: σ caches record the batch's edits in O(1)
//!    ([`crate::cache::ProximityCache::advance`]) and repair a stale vector
//!    when it is next read; the serving tier's result caches drop every
//!    σ-dependent ranking when the batch edited an edge, and the rankings
//!    that name a touched tag. Because the edited graph keeps its identity
//!    token, everything else keeps hitting under the new epoch — that is
//!    the entire point.
//! 3. **publish** — swap the snapshot pointer. Writers hold the write lock
//!    only for the swap itself; readers hold the read lock only to clone
//!    the `Arc`. The retired corpus is reclaimed when its last pinned
//!    reader drops it — no reader ever observes a torn corpus.
//!
//! ## The one write path
//!
//! [`LiveCorpus::commit`] runs those steps for every writer — a test, the
//! recovery-curve experiment, the serving tier's mutation barrier:
//!
//! 1. take the writer gate (the one lock that orders writes and snapshots);
//! 2. prepare the next epoch;
//! 3. on a durable corpus ([`LiveCorpus::open_durable`]), append the batch
//!    to the WAL as one record — the **durability point**: on an error the
//!    call returns before anything is swept or published. The append runs
//!    on a scoped thread beside prepare (the epoch is the base's + 1,
//!    known under the gate), and both finish before step 4. A batch that
//!    breaks the graph's or the store's contract
//!    ([`MutationBatch::keeps_the_contract`]) is refused before either
//!    starts: prepare could not apply it, or recovery could not replay it;
//! 4. run the caller's sweep with the prepared epoch and the WAL receipt;
//! 5. publish;
//! 6. write a snapshot if [`DurabilityConfig::snapshot_every`] says one is
//!    due, and return the sweep's value.
//!
//! Every batch, the empty one included, is one WAL record and one epoch;
//! recovery therefore lands on a prefix of the acknowledged batches
//! (`tests/proptest_recovery.rs` kills the WAL writer at every byte).
//!
//! ## What prepare copies, and what it shares
//!
//! A write costs what the batch touches, not what the corpus holds:
//!
//! * **store** — one `Arc`'d row per user and per tag. Copied: the two
//!   pointer tables and the rows of the users and tags the batch appends
//!   to (a sorted merge each). Shared: every other row; everything, for a
//!   batch without appends.
//! * **graph** — three flat arrays. Copied: one linear pass that
//!   recomputes the rows of edited endpoints and block-copies the rest.
//!   Shared: all three arrays, for a batch without edge edits. The arrays
//!   stay flat rather than chunked because σ traversals index them in
//!   their innermost loop; a 0.15 ms sequential copy per write is cheaper
//!   than a pointer chase per arc on every cold read.
//! * **σ-index, global lists** — one `Arc`'d posting list and one `Arc`'d
//!   ranking per tag. Copied: the two pointer tables; each touched posting
//!   list's blocks below the tag's smallest appended item, with the rest
//!   re-encoded from the new store row; each touched ranking, with its
//!   appended items re-summed and merged into place. Shared: every other
//!   list and ranking. Built in full only when the base never built them.
//!   Equal to a cold build because each tag's list and ranking are built
//!   from that tag's row alone.
//!
//! Duplicate `(user, item, tag)` weights are summed in input order (stored
//! weight, then appends in batch order) so that live applies, coalesced
//! recovery and a one-pass build agree bit for bit for any weights, not
//! only ones that add exactly.
//!
//! ## What a read repairs, and why the repair is exact
//!
//! A cached σ vector of a max-product model (`WeightedDecay`,
//! `DistanceDecay`) is the supported fixed point of `P[t] = max
//! fl(relax(P[x], w(x, t)))`, and a 64-mutation batch moves about 1 % of
//! it. So a write does not drop such a vector for the next reader to
//! rebuild from scratch. The cache keeps the batches' edits, and the next
//! read of a stale vector folds the edits it missed into one list and
//! repairs the vector where it lies, in `O(edits + changed nodes × degree)`
//! ([`friends_graph::traversal::repair_labels`] through
//! [`crate::proximity::ProximityModel::repair`]), to the bits a cold
//! materialization on the reader's graph writes. One repair across several
//! batches is sound because `repair_labels` accepts any two graphs on one
//! node set, given every pair whose weight differs between them — which is
//! what the fold keeps.
//!
//! Why the repair is exact — tight arcs, suspects settled in decreasing
//! old value, plateaus that must fall as a whole — is set out on
//! `repair_labels`.
//!
//! Only exact-bounds entries of those two models are repaired; a stale
//! bounded (degraded) entry, PPR or AdamicAdar vector the edits reach is
//! dropped, and so is a vector further behind than the cache's edit
//! history. Repair work therefore follows the reads, not the writes: a
//! vector nobody asks for again costs nothing.
//!
//! A σ cache serves readers at its latest version, so it must advance when
//! its readers switch snapshots, with no read in between. A
//! [`LiveCorpus::commit`] that advances a cache *concurrent* readers also
//! use is not epoch-isolated — between advance and publish a reader pins
//! the old snapshot and may be handed a vector brought to the next epoch.
//! The serving tier has no such window: each shard advances its private
//! cache at a batch boundary and switches snapshot in the same step, on the
//! one thread that reads the cache.
//!
//! ## Writer/reader memory-ordering contract
//!
//! * Readers: [`LiveCorpus::snapshot`] clones the `Arc` under the read
//!   lock; the lock's acquire pairs with the publisher's release, so a
//!   reader that observes epoch `N+1` also observes every byte of the
//!   `N+1` corpus (which was fully built *before* the swap).
//! * Writers: [`LiveCorpus::publish`] stores the new pointer under the
//!   write lock and then bumps the epoch hint with `Release`;
//!   [`LiveCorpus::epoch`] reads it with `Acquire`. The hint may lag the
//!   pointer by an instant — it is a non-blocking observability hint, not
//!   a synchronization primitive. Correctness never depends on it.
//! * Ordering between *writers* is the caller's job for the raw
//!   `prepare`/`publish` pair; [`LiveCorpus::commit`] enforces it with its
//!   writer gate.
//! * A query must execute against **one** pinned snapshot end to end —
//!   pin once, thread the same `Arc` through σ materialization and
//!   scoring. That is what makes every answer byte-identical to *some*
//!   epoch's frozen-corpus answer (snapshot isolation, pinned by
//!   `tests/proptest_live.rs`).
//!
//! ## Why keeping an unreached vector is sound (and minimal)
//!
//! For an edge mutation on `{u, v}`: any σ walk from a seeker `s` that
//! crosses the mutated edge must first arrive at `u` or `v` through edges
//! that already existed. So if `σ_old(s, u) = 0` and `σ_old(s, v) = 0`
//! and `s ∉ {u, v}`, no walk from `s` can notice the mutation — the
//! cached vector is its own dependency (reach) set, truncated by the
//! model's decay horizon / [`crate::proximity::SigmaBounds`] radius
//! exactly where contributions become zero. Batches compose: every
//! endpoint of every folded edit is tested at once, so chains of new
//! edges are covered (the first new edge on any walk is reached the old
//! way). `Global`-model entries (σ ≡ 1) are graph-independent and never
//! affected; tag appends touch no σ at all — they invalidate per-tag in
//! the result layer instead.
//!
//! The result layer keeps no σ to test reach against, so it does not ask
//! which seekers a batch reaches: a batch with an effective edge edit
//! drops every σ-dependent ranking. On a connected graph every seeker
//! reaches an endpoint, so short of the decay horizon that is the set the
//! reach argument gives; on a disconnected one it drops more, which is
//! always sound.

use crate::corpus::Corpus;
use crate::metrics::MetricsRegistry;
use friends_data::io as snapio;
use friends_data::mutations::MutationBatch;
use friends_data::wal::{StdFs, SyncPolicy, Wal, WalAppend, WalConfig, WalFs, WalStats};
use friends_data::TagId;
use friends_graph::traversal::EdgeEdit;
use friends_graph::{CsrGraph, NodeId};
use parking_lot::{Mutex, RwLock};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A mutation batch resolved against a concrete base snapshot: the next
/// corpus (sharing with the base whatever the batch left alone) plus what
/// the batch changed. [`LiveCorpus::commit`] builds one and hands it to
/// its sweep; [`LiveCorpus::prepare`] builds one without committing it.
/// Cheap to clone behind an `Arc` for fan-out to per-shard workers.
#[derive(Debug)]
pub struct PreparedMutation {
    /// The next snapshot: edited graph (same token), appended store,
    /// epoch = base epoch + 1.
    pub next: Arc<Corpus>,
    /// The batch's *effective* edge edits: every pair whose stored weight
    /// differs between the base graph and `next`'s, with both weights, one
    /// per pair in `(u, v)` order with `u < v`. Removing an absent edge or
    /// inserting one at its stored weight is not an edit. Shared, so each
    /// shard's σ cache records it in O(1)
    /// ([`crate::cache::ProximityCache::advance`]) and repairs cached σ
    /// with it when read — no shard ever needs the base graph. Non-empty
    /// means every σ-dependent ranking may have changed.
    pub edits: Arc<[EdgeEdit]>,
    /// Distinct tags appended by the batch, sorted: rankings of queries
    /// naming them are stale whatever their seeker (the postings changed).
    pub touched_tags: Vec<TagId>,
    /// Number of mutations in the batch.
    pub mutations: usize,
    /// Wall time spent building all of the above.
    pub prepare_time: Duration,
}

impl PreparedMutation {
    /// The epoch this mutation publishes.
    pub fn epoch(&self) -> u64 {
        self.next.epoch()
    }
}

/// An epoch-versioned corpus: snapshot reads that never block on writers,
/// atomic batch publication, refcount reclamation of retired epochs, and —
/// when opened durable — a WAL record per batch and periodic snapshots. See
/// the module docs for the lifecycle and the memory-ordering contract.
pub struct LiveCorpus {
    current: RwLock<Arc<Corpus>>,
    /// Non-blocking epoch hint (Release on publish / Acquire on read).
    epoch_hint: AtomicU64,
    /// The one lock that orders writers: held across a whole `commit`
    /// (prepare must see the latest snapshot, the WAL must see epochs in
    /// order) and across `snapshot_now` (which must capture a settled
    /// epoch).
    write_gate: Mutex<()>,
    /// WAL and snapshot state; `None` for a memory-only corpus.
    durable: Option<Durable>,
}

/// The durable side of a [`LiveCorpus`], private to it: only
/// [`LiveCorpus::commit`] appends, only the snapshot path rotates.
struct Durable {
    config: DurabilityConfig,
    /// Locked on its own (not only under the writer gate) so WAL counters
    /// and explicit syncs never wait for a write's sweep.
    wal: Mutex<Wal>,
    report: RecoveryReport,
    /// Batches committed since the last snapshot (written under the gate).
    batches_since_snapshot: AtomicU64,
}

impl LiveCorpus {
    /// Starts a memory-only lineage at `corpus` (usually a frozen epoch-0
    /// seed).
    pub fn new(corpus: Arc<Corpus>) -> Self {
        Self::with_durability(corpus, None)
    }

    fn with_durability(corpus: Arc<Corpus>, durable: Option<Durable>) -> Self {
        LiveCorpus {
            epoch_hint: AtomicU64::new(corpus.epoch()),
            current: RwLock::new(corpus),
            write_gate: Mutex::new(()),
            durable,
        }
    }

    /// Pins the current snapshot. The read lock is held only for the
    /// `Arc` clone; the snapshot stays valid (and its memory resident)
    /// for as long as the caller holds it, across any number of
    /// publications.
    pub fn snapshot(&self) -> Arc<Corpus> {
        Arc::clone(&self.current.read())
    }

    /// The published epoch, without touching the snapshot lock. May lag
    /// [`LiveCorpus::snapshot`] by an instant — an observability hint.
    pub fn epoch(&self) -> u64 {
        self.epoch_hint.load(Ordering::Acquire)
    }

    /// Builds the next snapshot from the current one without publishing
    /// it: edited graph (token preserved), appended store, derived
    /// σ-index and global lists, epoch + 1, the effective edge edits and
    /// the touched tags — at a cost proportional to what the batch touches
    /// (see the module docs). Lock-free with respect to readers.
    ///
    /// Callers of the raw `prepare`/`publish` pair are the single-writer
    /// side of the contract: do not interleave two prepares, and log
    /// nothing — [`LiveCorpus::commit`] is the write path.
    pub fn prepare(&self, batch: &MutationBatch) -> PreparedMutation {
        Self::prepare_from(&self.snapshot(), batch, None)
    }

    /// [`LiveCorpus::prepare`] against an explicit base snapshot.
    /// `_horizon` is ignored: the serving benchmark (`benchmark/`) still
    /// passes `None`, and the argument goes when it stops.
    pub fn prepare_from(
        base: &Arc<Corpus>,
        batch: &MutationBatch,
        _horizon: Option<u32>,
    ) -> PreparedMutation {
        let started = Instant::now();
        let (inserts, removals, appends) = batch.split();
        // Both calls share with `base` whatever the batch does not name: an
        // edge-free batch gets the same CSR arrays, an append-free one the
        // same store rows.
        let graph = base.graph.with_edits(&inserts, &removals);
        let store = base.store.with_appends(&appends);
        let edits = effective_edits(&base.graph, &graph, &inserts, &removals);
        let next = Arc::new(base.next_epoch(graph, store, &appends));
        // The σ-index and global lists must be warm before publication:
        // the first query needing them on each shard would otherwise build
        // them inline after the epoch switch, stalling that shard's queue
        // for the whole build. `next_epoch` derived them from what `base`
        // had built, so these are loads on every epoch but the first.
        next.sigma_index();
        next.global_lists();
        PreparedMutation {
            next,
            edits: edits.into(),
            touched_tags: batch.touched_tags(),
            mutations: batch.len(),
            prepare_time: started.elapsed(),
        }
    }

    /// Publishes a prepared snapshot: one pointer swap under the write
    /// lock, then the epoch hint bump. A retired epoch this held the last
    /// reference to is freed after the lock is released. Sweep the caches
    /// you own **before** calling this — after the swap, readers will
    /// trust every surviving entry (the graph token did not change).
    pub fn publish(&self, prepared: &PreparedMutation) {
        let next = Arc::clone(&prepared.next);
        let epoch = next.epoch();
        // The guard is released at the end of this statement.
        let retired = std::mem::replace(&mut *self.current.write(), next);
        self.epoch_hint.store(epoch, Ordering::Release);
        drop(retired);
    }

    /// The write path: under the writer gate, prepare the next epoch while
    /// appending `batch` to the WAL (durable corpora only), run `sweep`,
    /// publish, and snapshot if one is due; returns what `sweep` returned.
    ///
    /// `sweep` receives the prepared epoch and the batch's WAL receipt
    /// (`None` in memory) and must make every cache the caller owns safe
    /// under the new epoch before it returns — after the publish, readers
    /// trust every entry. A single σ cache does so with
    /// `|p, _| cache.advance(&p.edits)`, and repairs what it must when read;
    /// the serving tier broadcasts `p` to its shards and waits for their
    /// acks.
    ///
    /// `Err` from the WAL append means the batch is not durable: `sweep`
    /// did not run and nothing was published. So does `InvalidInput` from
    /// a durable corpus, which refuses a batch that breaks the graph's or
    /// the store's contract ([`MutationBatch::keeps_the_contract`]) before
    /// logging it: recovery could not replay it. `Err` after the append can
    /// only come from snapshot maintenance; the batch is then already
    /// durable and published, and only the sweep's value is lost. Readers
    /// never wait on the gate.
    pub fn commit<R>(
        &self,
        batch: &MutationBatch,
        sweep: impl FnOnce(&Arc<PreparedMutation>, Option<WalAppend>) -> R,
    ) -> std::io::Result<R> {
        let _writer = self.write_gate.lock();
        let base = self.snapshot();
        let (prepared, wal) = match &self.durable {
            None => (Self::prepare_from(&base, batch, None), None),
            Some(d) => {
                if !batch.keeps_the_contract(&base.store) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "mutation batch breaks the graph's or the store's contract",
                    ));
                }
                let (prepared, appended) = std::thread::scope(|s| {
                    // The epoch is the base's + 1, fixed under the gate.
                    let append = s.spawn(|| d.wal.lock().append(base.epoch() + 1, batch));
                    (Self::prepare_from(&base, batch, None), append.join())
                });
                let appended = appended.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                (prepared, Some(appended?))
            }
        };
        let prepared = Arc::new(prepared);
        let swept = sweep(&prepared, wal);
        self.publish(&prepared);
        if let Some(d) = &self.durable {
            let every = d.config.snapshot_every;
            let due = d.batches_since_snapshot.fetch_add(1, Ordering::Relaxed) + 1;
            if every > 0 && due >= every {
                d.snapshot(&prepared.next)?;
            }
        }
        Ok(swept)
    }
}

// ---------------------------------------------------------------------------
// Durability: checksummed snapshots + mutation WAL + replay recovery
// ---------------------------------------------------------------------------

/// Where and how a live corpus persists itself. The directory holds v2
/// snapshots (`snap-{epoch:016x}.snap`, written atomically with per-section
/// CRCs) and a `wal/` subdirectory of checksummed mutation segments.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Root directory for snapshots; the WAL lives in `dir/wal/`.
    pub dir: PathBuf,
    /// WAL fsync cadence — the crash-consistency contract knob.
    pub sync: SyncPolicy,
    /// Write a snapshot automatically every this many committed batches
    /// (0 = only on explicit [`LiveCorpus::snapshot_now`] calls).
    pub snapshot_every: u64,
}

/// Snapshots retained after pruning. Two, so recovery can fall back to an
/// older snapshot when the newest is corrupt — the WAL is only retired
/// through the *oldest* retained snapshot's epoch, which is exactly what
/// makes that fallback replayable.
const KEEP_SNAPSHOTS: usize = 2;

impl DurabilityConfig {
    /// Durable defaults rooted at `dir`: sync every batch, no automatic
    /// snapshots. WAL segments rotate at [`WalConfig`]'s default size.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            sync: SyncPolicy::Always,
            snapshot_every: 0,
        }
    }

    fn wal_dir(&self) -> PathBuf {
        self.dir.join("wal")
    }

    fn wal_config(&self) -> WalConfig {
        WalConfig {
            sync: self.sync,
            ..WalConfig::default()
        }
    }
}

/// What recovery found and did. Degradation is *reported*, never fatal:
/// a torn WAL tail or a corrupt newest snapshot still yields a serving
/// corpus as long as one consistent (snapshot, WAL-suffix) pair exists.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// WAL batches replayed on top of it.
    pub replayed: u64,
    /// The WAL ended in a torn or invalid record (the expected artifact of
    /// a crash mid-append); everything before it was recovered.
    pub truncated_tail: bool,
    /// WAL segments wholly or partially discarded beyond tail truncation.
    pub corrupt_segments: usize,
    /// Snapshot files that failed validation and were skipped (newest
    /// first) before a loadable one was found.
    pub corrupt_snapshots: usize,
    /// The epoch the corpus serves at after replay.
    pub recovered_epoch: u64,
    /// Valid WAL bytes scanned during replay.
    pub wal_bytes: u64,
    /// Wall-clock recovery time.
    pub elapsed_ms: f64,
}

impl RecoveryReport {
    /// Whether recovery had to discard *anything* (crash artifacts or real
    /// corruption). A clean restart reports `false`.
    pub fn degraded(&self) -> bool {
        self.truncated_tail || self.corrupt_segments > 0 || self.corrupt_snapshots > 0
    }

    /// Publishes the report as `friends_recovery_*` metrics.
    pub fn register_into(&self, reg: &mut MetricsRegistry) {
        reg.gauge(
            "friends_recovery_snapshot_epoch",
            "Epoch of the snapshot recovery started from",
            self.snapshot_epoch as f64,
        );
        reg.gauge(
            "friends_recovery_recovered_epoch",
            "Epoch served after WAL replay",
            self.recovered_epoch as f64,
        );
        reg.counter(
            "friends_recovery_replayed_batches",
            "WAL batches replayed on top of the snapshot",
            self.replayed,
        );
        reg.gauge(
            "friends_recovery_truncated_tail",
            "1 when the WAL ended in a torn/invalid record",
            self.truncated_tail as u64 as f64,
        );
        reg.counter(
            "friends_recovery_corrupt_segments",
            "WAL segments discarded beyond tail truncation",
            self.corrupt_segments as u64,
        );
        reg.counter(
            "friends_recovery_corrupt_snapshots",
            "Snapshot files skipped as invalid during recovery",
            self.corrupt_snapshots as u64,
        );
        reg.gauge(
            "friends_recovery_elapsed_ms",
            "Wall-clock recovery time in milliseconds",
            self.elapsed_ms,
        );
    }
}

/// Why recovery could not produce a corpus. Corruption of *some* state is
/// handled (and reported); this error means no consistent state exists at
/// all.
#[derive(Debug)]
pub enum RecoverError {
    /// Filesystem failure while reading state.
    Io(std::io::Error),
    /// Every snapshot in the directory (all `tried` of them, possibly 0)
    /// failed validation — there is no base to replay onto.
    NoUsableSnapshot { tried: usize },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery io error: {e}"),
            RecoverError::NoUsableSnapshot { tried } => {
                write!(f, "no usable snapshot ({tried} candidates all invalid)")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<RecoverError> for std::io::Error {
    fn from(e: RecoverError) -> Self {
        match e {
            RecoverError::Io(e) => e,
            other => std::io::Error::other(other.to_string()),
        }
    }
}

impl LiveCorpus {
    /// Opens (or initializes) a durable corpus at `config.dir`. An empty
    /// directory is seeded with a snapshot of `seed` at its epoch; a
    /// non-empty one is recovered — `seed` is then ignored, because the
    /// disk state is newer truth. The WAL is repaired (torn tail
    /// truncated, unusable segments removed) and reopened for appending;
    /// from then on every [`LiveCorpus::commit`] logs its batch before
    /// publishing it.
    pub fn open_durable(
        seed: Arc<Corpus>,
        config: DurabilityConfig,
    ) -> std::io::Result<LiveCorpus> {
        Self::open_durable_with_fs(seed, config, Arc::new(StdFs))
    }

    /// [`LiveCorpus::open_durable`] with an injected WAL write path — the
    /// crash-point harness plugs `friends_data::wal::fault::FailingFs` in
    /// here. Snapshot writes always use the real filesystem.
    pub fn open_durable_with_fs(
        seed: Arc<Corpus>,
        config: DurabilityConfig,
        fs: Arc<dyn WalFs>,
    ) -> std::io::Result<LiveCorpus> {
        std::fs::create_dir_all(&config.dir)?;
        let snaps = snapio::list_snapshots(&config.dir)?;
        let (corpus, report) = if snaps.is_empty() {
            let epoch = seed.epoch();
            snapio::save_with_epoch(
                &snapio::snapshot_path(&config.dir, epoch),
                &seed.graph,
                &seed.store,
                epoch,
            )
            .map_err(io_error)?;
            let report = RecoveryReport {
                snapshot_epoch: epoch,
                recovered_epoch: epoch,
                ..RecoveryReport::default()
            };
            (seed, report)
        } else {
            Self::recover_corpus(&config.dir)?
        };
        let wal = Wal::open_with(&config.wal_dir(), config.wal_config(), fs)?;
        let durable = Durable {
            config,
            wal: Mutex::new(wal),
            report,
            batches_since_snapshot: AtomicU64::new(0),
        };
        Ok(Self::with_durability(corpus, Some(durable)))
    }

    /// The startup recovery report of a durable corpus (all-zero counts
    /// when the directory was freshly initialized); `None` in memory.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durable.as_ref().map(|d| &d.report)
    }

    /// Current WAL counters; `None` in memory.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durable.as_ref().map(|d| d.wal.lock().stats())
    }

    /// Forces an fsync of the active WAL segment — a durable shutdown
    /// barrier under [`SyncPolicy::EveryN`]/[`SyncPolicy::Never`]. No-op
    /// in memory.
    pub fn sync_wal(&self) -> std::io::Result<()> {
        match &self.durable {
            Some(d) => d.wal.lock().sync(),
            None => Ok(()),
        }
    }

    /// Writes a snapshot of the current epoch now (atomic temp-file +
    /// rename), prunes to the newest two snapshots, seals the active WAL
    /// segment, and retires segments wholly covered by the *oldest
    /// retained* snapshot. Holds the writer gate, so the snapshot captures a settled
    /// epoch. Returns the snapshotted epoch, or `None` in memory.
    pub fn snapshot_now(&self) -> std::io::Result<Option<u64>> {
        let Some(d) = &self.durable else {
            return Ok(None);
        };
        let _writer = self.write_gate.lock();
        d.snapshot(&self.snapshot()).map(Some)
    }

    /// Pure read-side recovery: loads the newest valid snapshot under
    /// `dir`, replays every WAL record with `epoch > snapshot.epoch`, and
    /// stops cleanly at the first torn/corrupt record. Does not modify
    /// anything on disk — safe to run against a directory another process
    /// owns. Use [`LiveCorpus::open_durable`] to recover *and* resume
    /// writing.
    pub fn recover(dir: &Path) -> Result<(LiveCorpus, RecoveryReport), RecoverError> {
        let (corpus, report) = Self::recover_corpus(dir)?;
        Ok((LiveCorpus::new(corpus), report))
    }

    fn recover_corpus(dir: &Path) -> Result<(Arc<Corpus>, RecoveryReport), RecoverError> {
        let started = std::time::Instant::now();
        let snaps = snapio::list_snapshots(dir)?;
        // Newest snapshot first; fall back on validation failure. An older
        // snapshot is still consistent because the WAL is only retired
        // through the oldest *retained* snapshot's epoch.
        let mut corrupt_snapshots = 0;
        let mut base: Option<Arc<Corpus>> = None;
        for (_, path) in snaps.iter().rev() {
            match snapio::load_with_epoch(path) {
                Ok((graph, store, epoch)) => {
                    base = Some(Arc::new(Corpus::with_epoch(graph, store, epoch)));
                    break;
                }
                Err(_) => corrupt_snapshots += 1,
            }
        }
        let Some(corpus) = base else {
            return Err(RecoverError::NoUsableSnapshot { tried: snaps.len() });
        };
        let snapshot_epoch = corpus.epoch();
        let replay = Wal::replay(&dir.join("wal"))?;
        let mut report = RecoveryReport {
            snapshot_epoch,
            truncated_tail: replay.truncated_tail,
            corrupt_segments: replay.corrupt_segments,
            corrupt_snapshots,
            wal_bytes: replay.valid_bytes,
            ..RecoveryReport::default()
        };
        let corpus = Self::replay_onto(corpus, &replay.records, &mut report);
        report.recovered_epoch = corpus.epoch();
        report.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok((corpus, report))
    }

    /// The replay half of recovery: applies to `base` the records that
    /// continue its epoch chain (`base.epoch() + 1, + 2, …`; records at or
    /// below the base's epoch are already in it), counting them in
    /// `report.replayed`. An epoch gap means a segment is missing — nothing
    /// after it can be trusted, so replay stops there and sets
    /// `report.truncated_tail`, exactly like a torn tail.
    ///
    /// The chain is validated record by record but applied as ONE
    /// `with_edits` + `with_appends`. Sound because a batch's edit of a
    /// pair fully replaces that pair's state (`with_edits` sheds the old
    /// copy whether the batch inserts or removes, and an insert beats a
    /// removal of the same pair within a batch), so each pair's final state
    /// is decided by the last batch touching it; tag appends concatenate in
    /// order, and `with_appends` sums a key's weights in that order whether
    /// it sees them in one call or many. Byte-identical to the sequential
    /// in-memory path because both calls return a function of the final
    /// edge set and tagging sequence alone — and O(WAL + touched rows)
    /// rather than one pass per batch, which is what keeps the fig15
    /// recovery-time budget linear in WAL length. The σ-index and global
    /// lists are left unbuilt: recovery wants to reach "serving" fast and
    /// warm lazily.
    pub fn replay_onto(
        base: Arc<Corpus>,
        records: &[(u64, MutationBatch)],
        report: &mut RecoveryReport,
    ) -> Arc<Corpus> {
        let mut last_epoch = base.epoch();
        // canonical pair → Some(weight) = present, None = removed
        let mut net: std::collections::HashMap<(NodeId, NodeId), Option<f32>> =
            std::collections::HashMap::new();
        let mut appends = Vec::new();
        let canon = |u: NodeId, v: NodeId| if u < v { (u, v) } else { (v, u) };
        let mut replayed = 0;
        for (epoch, batch) in records {
            if *epoch <= last_epoch {
                continue; // already captured by the snapshot
            }
            if *epoch != last_epoch + 1 {
                report.truncated_tail = true;
                break;
            }
            let (inserts, removals, tags) = batch.split();
            for &(u, v) in &removals {
                net.insert(canon(u, v), None);
            }
            for &(u, v, w) in &inserts {
                if u != v {
                    net.insert(canon(u, v), Some(w));
                }
            }
            appends.extend(tags);
            last_epoch = *epoch;
            replayed += 1;
        }
        if replayed == 0 {
            return base;
        }
        report.replayed += replayed;
        let mut inserts = Vec::new();
        let mut removals = Vec::new();
        for (&(u, v), &action) in &net {
            match action {
                Some(w) => inserts.push((u, v, w)),
                None => removals.push((u, v)),
            }
        }
        let graph = base.graph.with_edits(&inserts, &removals);
        let store = base.store.with_appends(&appends);
        Arc::new(Corpus::with_epoch(graph, store, last_epoch))
    }
}

fn io_error(e: snapio::IoError) -> std::io::Error {
    match e {
        snapio::IoError::Io(e) => e,
        other => std::io::Error::other(other.to_string()),
    }
}

impl Durable {
    /// Saves `snap` (the published epoch; the caller holds the writer
    /// gate), prunes old snapshots and retires the WAL they cover. Returns
    /// the snapshotted epoch.
    fn snapshot(&self, snap: &Corpus) -> std::io::Result<u64> {
        let epoch = snap.epoch();
        snapio::save_with_epoch(
            &snapio::snapshot_path(&self.config.dir, epoch),
            &snap.graph,
            &snap.store,
            epoch,
        )
        .map_err(io_error)?;
        self.batches_since_snapshot.store(0, Ordering::Relaxed);
        let snaps = snapio::list_snapshots(&self.config.dir)?;
        let excess = snaps.len().saturating_sub(KEEP_SNAPSHOTS);
        for (_, path) in &snaps[..excess] {
            std::fs::remove_file(path)?;
        }
        let oldest_retained = snaps[excess].0;
        let mut wal = self.wal.lock();
        wal.rotate()?;
        wal.retire_through(oldest_retained)?;
        Ok(epoch)
    }
}

/// Publishes a [`WalStats`] snapshot as `friends_wal_*` metrics — the one
/// place the WAL's registry keys are defined (the serving tier's stats
/// export calls it).
pub fn register_wal_stats(s: &WalStats, reg: &mut MetricsRegistry) {
    reg.counter(
        "friends_wal_appends_total",
        "Mutation batches appended to the WAL",
        s.appends,
    );
    reg.counter(
        "friends_wal_bytes_total",
        "Bytes appended to the WAL (headers + payloads)",
        s.bytes,
    );
    reg.counter("friends_wal_syncs_total", "WAL fsyncs issued", s.syncs);
    reg.counter(
        "friends_wal_rotations_total",
        "WAL segment rotations",
        s.rotations,
    );
    reg.counter(
        "friends_wal_retired_segments_total",
        "WAL segments deleted after snapshots",
        s.retired_segments,
    );
    reg.gauge(
        "friends_wal_segments",
        "WAL segments currently on disk",
        s.segments as f64,
    );
}

/// The pairs the batch names whose stored weight differs between `base` and
/// `next = base.with_edits(inserts, removals)`, each once, with both
/// weights. Asking `next` what it stores keeps this in step with
/// `with_edits`' own rules (last insert wins, an insert beats a removal,
/// self-loops and out-of-range removals name nothing).
fn effective_edits(
    base: &CsrGraph,
    next: &CsrGraph,
    inserts: &[(NodeId, NodeId, f32)],
    removals: &[(NodeId, NodeId)],
) -> Vec<EdgeEdit> {
    let n = base.num_nodes();
    let mut pairs: Vec<(NodeId, NodeId)> = removals
        .iter()
        .copied()
        .chain(inserts.iter().map(|&(u, v, _)| (u, v)))
        .filter(|&(u, v)| u != v && (u.max(v) as usize) < n)
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
        .into_iter()
        .filter_map(|(u, v)| {
            let (old, new) = (base.edge_weight(u, v), next.edge_weight(u, v));
            (old.map(f32::to_bits) != new.map(f32::to_bits)).then_some(EdgeEdit { u, v, old, new })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{ProximityCache, SigmaSweep};
    use crate::processors::{ExactOnline, Processor};
    use crate::proximity::{ProximityModel, ProximityVec, SigmaWorkspace};
    use friends_data::mutations::Mutation;
    use friends_data::queries::Query;
    use friends_data::store::TagStore;
    use friends_data::Tagging;
    use friends_graph::GraphBuilder;

    /// Two far-apart communities: {0,1,2} and {3,4,5}, plus isolated 6.
    fn fixture() -> Arc<Corpus> {
        let graph = GraphBuilder::from_edges(
            7,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 0.5),
                (3, 4, 1.0),
                (4, 5, 1.0),
            ],
        );
        let store = TagStore::build(
            7,
            6,
            4,
            vec![
                Tagging::unit(0, 0, 1),
                Tagging::unit(1, 1, 1),
                Tagging::unit(2, 2, 2),
                Tagging::unit(3, 3, 1),
                Tagging::unit(4, 4, 2),
                Tagging::unit(5, 5, 1),
            ],
        );
        Arc::new(Corpus::new(graph, store))
    }

    const MODEL: ProximityModel = ProximityModel::WeightedDecay { alpha: 0.5 };

    /// Commits `batch` with nothing to sweep; returns the published epoch.
    fn commit(live: &LiveCorpus, batch: &MutationBatch) -> u64 {
        live.commit(batch, |p, _| p.epoch()).unwrap()
    }

    /// Commits `batch`, advancing `cache` across it.
    fn commit_advancing(live: &LiveCorpus, batch: &MutationBatch, cache: &ProximityCache) {
        live.commit(batch, |p, _| cache.advance(&p.edits)).unwrap()
    }

    fn sigma_vec(graph: &CsrGraph, seeker: u32) -> ProximityVec {
        let mut ws = SigmaWorkspace::new();
        MODEL.materialize_into(graph, seeker, &mut ws);
        ws.snapshot(graph.num_nodes())
    }

    #[test]
    fn snapshot_pins_across_publication() {
        let live = LiveCorpus::new(fixture());
        let pinned = live.snapshot();
        assert_eq!(pinned.epoch(), 0);
        let epoch = commit(&live, &edge_batch(2, 3, 1.0));
        assert_eq!(epoch, 1);
        assert_eq!(live.epoch(), 1);
        // The pinned snapshot still answers from epoch 0.
        assert_eq!(pinned.epoch(), 0);
        assert!(!pinned.graph.has_edge(2, 3));
        assert!(live.snapshot().graph.has_edge(2, 3));
        // Same lineage, same token: clones of one graph identity.
        assert_eq!(pinned.graph.token(), live.snapshot().graph.token());
    }

    #[test]
    fn retired_epochs_reclaim_by_refcount() {
        let live = LiveCorpus::new(fixture());
        let pinned = live.snapshot();
        let weak = Arc::downgrade(&pinned);
        commit(&live, &edge_batch(0, 6, 1.0));
        assert!(weak.upgrade().is_some(), "pinned epoch must stay resident");
        drop(pinned);
        assert!(
            weak.upgrade().is_none(),
            "retired epoch must be reclaimed once no reader holds it"
        );
    }

    #[test]
    fn prepare_computes_the_blast_radius() {
        let live = LiveCorpus::new(fixture());
        let p = live.prepare(&MutationBatch::new(vec![
            Mutation::InsertEdge {
                u: 2,
                v: 3,
                weight: 1.0,
            },
            Mutation::AddTagging(Tagging::unit(0, 0, 3)),
        ]));
        assert_eq!(p.epoch(), 1);
        assert_eq!(
            *p.edits,
            [EdgeEdit {
                u: 2,
                v: 3,
                old: None,
                new: Some(1.0)
            }]
        );
        assert_eq!(p.touched_tags, vec![3]);
    }

    #[test]
    fn apply_sweeps_only_affected_sigma() {
        let corpus = fixture();
        let live = LiveCorpus::new(Arc::clone(&corpus));
        let cache = ProximityCache::new(64);
        // Materialize σ for one seeker per community.
        for seeker in [0u32, 3] {
            let v = sigma_vec(&corpus.graph, seeker);
            cache.insert(&corpus.graph, seeker, MODEL, Arc::new(v));
        }
        assert_eq!(cache.len(), 2);
        // An edge inside community {3,4,5}: read again, community
        // {0,1,2}'s σ is kept as it is, seeker 3's is repaired where it
        // lies.
        let untouched = cache.get(&corpus.graph, 0, MODEL).expect("resident");
        commit_advancing(&live, &edge_batch(3, 5, 1.0), &cache);
        let now = live.snapshot();
        let kept = cache.get(&now.graph, 0, MODEL).expect("unaffected σ");
        assert!(
            Arc::ptr_eq(&kept, &untouched),
            "unaffected σ must keep hitting under the new epoch"
        );
        let repaired = cache.get(&now.graph, 3, MODEL).expect("repaired σ");
        assert_eq!(*repaired, sigma_vec(&now.graph, 3));
        assert_ne!(*repaired, sigma_vec(&corpus.graph, 3));
        drop(repaired);
        // Joining the communities and cutting them apart again, unread in
        // between: the two batches fold to no edit at all.
        let cut = MutationBatch::new(vec![Mutation::RemoveEdge { u: 3, v: 2 }]);
        commit_advancing(&live, &edge_batch(2, 3, 1.0), &cache);
        commit_advancing(&live, &cut, &cache);
        let now = live.snapshot();
        let kept = cache.get(&now.graph, 0, MODEL).expect("unaffected σ");
        assert!(Arc::ptr_eq(&kept, &untouched));
        let kept = cache.get(&now.graph, 3, MODEL).expect("unaffected σ");
        assert_eq!(*kept, sigma_vec(&now.graph, 3));
        // A join read two batches late: both entries repaired across it.
        commit_advancing(&live, &edge_batch(2, 3, 1.0), &cache);
        commit_advancing(&live, &edge_batch(3, 4, 0.5), &cache);
        let now = live.snapshot();
        for seeker in [0, 3] {
            let repaired = cache.get(&now.graph, seeker, MODEL).expect("repaired σ");
            assert_eq!(*repaired, sigma_vec(&now.graph, seeker));
        }
        let stale = cache.stale_hits();
        assert_eq!(
            (
                stale.kept,
                stale.repaired,
                stale.dropped,
                stale.too_far_behind
            ),
            (3, 3, 0, 0)
        );
        assert_eq!(cache.stats().invalidated, 0);
    }

    #[test]
    fn a_batch_of_no_op_edits_publishes_an_epoch_and_sweeps_nothing() {
        let corpus = fixture();
        let live = LiveCorpus::new(Arc::clone(&corpus));
        let cache = ProximityCache::new(64);
        for seeker in 0..7u32 {
            let v = sigma_vec(&corpus.graph, seeker);
            cache.insert(&corpus.graph, seeker, MODEL, Arc::new(v));
        }
        // An absent edge removed, a stored edge re-inserted at its weight,
        // a self-loop.
        let batch = MutationBatch::new(vec![
            Mutation::RemoveEdge { u: 0, v: 6 },
            Mutation::InsertEdge {
                u: 2,
                v: 0,
                weight: 0.5,
            },
            Mutation::InsertEdge {
                u: 4,
                v: 4,
                weight: 1.0,
            },
        ]);
        let p = live.prepare(&batch);
        assert!(p.edits.is_empty());
        commit_advancing(&live, &batch, &cache);
        assert_eq!(live.epoch(), 1);
        let now = live.snapshot();
        for seeker in 0..7u32 {
            assert!(cache.get(&now.graph, seeker, MODEL).is_some());
        }
        assert_eq!(
            cache.stale_hits(),
            SigmaSweep::default(),
            "nothing is stale"
        );
        assert_eq!(cache.stats().invalidated, 0);
    }

    #[test]
    fn surviving_entries_are_exact_under_the_new_epoch() {
        // The soundness claim behind token reuse, end to end: after a
        // commit, every cache entry still resident equals a from-scratch
        // materialization on the new graph.
        let corpus = fixture();
        let live = LiveCorpus::new(Arc::clone(&corpus));
        let cache = ProximityCache::new(64);
        for seeker in 0..7u32 {
            let v = sigma_vec(&corpus.graph, seeker);
            cache.insert(&corpus.graph, seeker, MODEL, Arc::new(v));
        }
        let batch = MutationBatch::new(vec![
            Mutation::InsertEdge {
                u: 4,
                v: 6,
                weight: 0.8,
            },
            Mutation::RemoveEdge { u: 3, v: 4 },
        ]);
        commit_advancing(&live, &batch, &cache);
        let now = live.snapshot();
        for seeker in 0..7u32 {
            if let Some(cached) = cache.get(&now.graph, seeker, MODEL) {
                let fresh = MODEL.materialize(&now.graph, seeker);
                for u in 0..7u32 {
                    assert_eq!(
                        cached.get(u),
                        fresh[u as usize],
                        "stale σ served for seeker {seeker} at {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn tag_appends_change_rankings_at_the_new_epoch_only() {
        let corpus = fixture();
        let live = LiveCorpus::new(Arc::clone(&corpus));
        let query = Query {
            seeker: 0,
            tags: vec![1],
            k: 10,
        };
        let before = ExactOnline::new(&corpus, MODEL).query(&query).items;
        let append = MutationBatch::new(vec![Mutation::AddTagging(Tagging {
            user: 1,
            item: 5,
            tag: 1,
            weight: 3.0,
        })]);
        commit(&live, &append);
        let pinned_old = corpus; // epoch-0 Arc still held
        let now = live.snapshot();
        let after = ExactOnline::new(&now, MODEL).query(&query).items;
        assert_ne!(before, after, "append must surface in new-epoch results");
        let still_old = ExactOnline::new(&pinned_old, MODEL).query(&query).items;
        assert_eq!(before, still_old, "pinned epoch must answer unchanged");
    }

    /// Whether two corpora hold the same allocation for each shareable
    /// section: `(CSR arrays, user 0's row, tag 1's row, tag 1's posting
    /// list, tag 1's global list)`.
    fn shared_sections(a: &Corpus, b: &Corpus) -> (bool, bool, bool, bool, bool) {
        (
            std::ptr::eq(a.graph.neighbors(0), b.graph.neighbors(0)),
            std::ptr::eq(a.store.user_taggings(0), b.store.user_taggings(0)),
            std::ptr::eq(a.store.tag_taggings(1), b.store.tag_taggings(1)),
            std::ptr::eq(
                a.sigma_index().postings(1).unwrap(),
                b.sigma_index().postings(1).unwrap(),
            ),
            Arc::ptr_eq(&a.global_lists()[1], &b.global_lists()[1]),
        )
    }

    #[test]
    fn an_edge_only_batch_shares_the_store_and_both_indexes() {
        let base = fixture();
        base.sigma_index();
        base.global_lists();
        let p = LiveCorpus::prepare_from(&base, &edge_batch(2, 3, 1.0), None);
        assert_eq!(
            shared_sections(&base, &p.next),
            (false, true, true, true, true)
        );
        assert!(p.touched_tags.is_empty());
        assert_eq!(
            *p.edits,
            [EdgeEdit {
                u: 2,
                v: 3,
                old: None,
                new: Some(1.0)
            }]
        );
    }

    #[test]
    fn a_tagging_only_batch_shares_the_graph_and_untouched_rows() {
        let base = fixture();
        base.sigma_index();
        base.global_lists();
        // User 2 tags with tag 2: user 0's row and tag 1's row, posting
        // list and global list are untouched; tag 2's are rebuilt.
        let batch = MutationBatch::new(vec![Mutation::AddTagging(Tagging::unit(2, 5, 2))]);
        let p = LiveCorpus::prepare_from(&base, &batch, None);
        assert_eq!(
            shared_sections(&base, &p.next),
            (true, true, true, true, true)
        );
        assert!(!Arc::ptr_eq(
            &base.global_lists()[2],
            &p.next.global_lists()[2]
        ));
        let (old, new) = (base.sigma_index(), p.next.sigma_index());
        assert!(!std::ptr::eq(
            old.postings(2).unwrap(),
            new.postings(2).unwrap()
        ));
        assert_eq!(new.num_postings(), old.num_postings() + 1);
        assert!(!std::ptr::eq(
            base.store.tag_taggings(2),
            p.next.store.tag_taggings(2)
        ));
        assert!(p.edits.is_empty());
        assert_eq!(p.touched_tags, vec![2]);
    }

    #[test]
    fn removing_an_absent_edge_still_publishes_an_epoch() {
        let live = LiveCorpus::new(fixture());
        let batch = MutationBatch::new(vec![Mutation::RemoveEdge { u: 0, v: 6 }]);
        let p = live.prepare(&batch);
        // Nothing changed, so nothing is touched.
        assert!(p.edits.is_empty());
        assert_eq!(commit(&live, &batch), 1);
        assert_same_corpus(
            &live.snapshot(),
            &Corpus::with_epoch(fixture().graph.clone(), fixture().store.clone(), 1),
        );
    }

    #[test]
    fn what_the_base_never_built_is_warmed_in_full() {
        // No index on the base: nothing to carry over, so prepare builds
        // both structures cold — and they equal a derived epoch's.
        let cold = LiveCorpus::prepare_from(&fixture(), &edge_batch(2, 3, 1.0), None).next;
        let warm_base = fixture();
        warm_base.sigma_index();
        warm_base.global_lists();
        let warm = LiveCorpus::prepare_from(&warm_base, &edge_batch(2, 3, 1.0), None).next;
        assert_eq!(cold.global_lists(), warm.global_lists());
        for t in 0..4 {
            let (a, b) = (cold.sigma_index(), warm.sigma_index());
            assert_eq!(
                a.postings(t).map(|l| l.to_vec()),
                b.postings(t).map(|l| l.to_vec())
            );
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "friends-live-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn edge_batch(u: u32, v: u32, w: f32) -> MutationBatch {
        MutationBatch::new(vec![Mutation::InsertEdge { u, v, weight: w }])
    }

    /// Structural equality of two corpora: same epoch, same adjacency with
    /// weights, same taggings.
    fn assert_same_corpus(a: &Corpus, b: &Corpus) {
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.graph.num_nodes(), b.graph.num_nodes());
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        for u in a.graph.nodes() {
            assert_eq!(a.graph.neighbors(u), b.graph.neighbors(u), "nbrs of {u}");
            assert_eq!(
                a.graph.neighbor_weights(u),
                b.graph.neighbor_weights(u),
                "weights of {u}"
            );
        }
        assert_eq!(a.store.num_taggings(), b.store.num_taggings());
        for user in 0..a.store.num_users() {
            assert_eq!(a.store.user_taggings(user), b.store.user_taggings(user));
        }
    }

    #[test]
    fn durable_apply_survives_restart() {
        let dir = tmp_dir("restart");
        let seed = fixture();
        let live =
            LiveCorpus::open_durable(Arc::clone(&seed), DurabilityConfig::new(&dir)).unwrap();
        let shadow = LiveCorpus::new(Arc::clone(&seed));
        for (i, b) in [
            edge_batch(2, 3, 1.0),
            MutationBatch::new(vec![
                Mutation::RemoveEdge { u: 0, v: 2 },
                Mutation::AddTagging(Tagging::unit(6, 1, 3)),
            ]),
            MutationBatch::default(), // empty batches still publish epochs
            edge_batch(5, 6, 0.25),
        ]
        .iter()
        .enumerate()
        {
            let (epoch, receipt) = live.commit(b, |p, wal| (p.epoch(), wal)).unwrap();
            assert_eq!(epoch, i as u64 + 1);
            assert!(
                receipt.expect("durable corpus").synced,
                "Always policy must sync every batch"
            );
            commit(&shadow, b);
        }
        drop(live);
        let (recovered, report) = LiveCorpus::recover(&dir).unwrap();
        assert_eq!(report.snapshot_epoch, 0);
        assert_eq!(report.replayed, 4);
        assert!(!report.degraded(), "clean shutdown must not look degraded");
        assert_eq!(report.recovered_epoch, 4);
        assert_same_corpus(&recovered.snapshot(), &shadow.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_durable_commit_refuses_what_recovery_could_not_replay() {
        let dir = tmp_dir("refused");
        let live = LiveCorpus::open_durable(fixture(), DurabilityConfig::new(&dir)).unwrap();
        let insert = |u, v, weight| Mutation::InsertEdge { u, v, weight };
        for bad in [
            vec![insert(0, 9, 1.0)],
            vec![insert(0, 3, -0.5)],
            vec![Mutation::AddTagging(Tagging::unit(9, 0, 0))],
            // `with_edits` reads only a pair's last insert, and ignores
            // self-loops, but the log cannot hold a NaN.
            vec![insert(0, 3, f32::NAN), insert(3, 0, 0.5)],
            vec![insert(2, 2, f32::NAN)],
        ] {
            let err = live
                .commit(&MutationBatch::new(bad), |_, _| ())
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert_eq!(live.epoch(), 0);
        }
        assert_eq!(live.wal_stats().unwrap().appends, 0);
        assert_eq!(commit(&live, &edge_batch(0, 3, 0.5)), 1);
        drop(live);
        let (recovered, report) = LiveCorpus::recover(&dir).unwrap();
        assert_eq!((report.replayed, report.degraded()), (1, false));
        assert_eq!(recovered.snapshot().graph.edge_weight(0, 3), Some(0.5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_resumes_the_epoch_chain() {
        let dir = tmp_dir("resume");
        let seed = fixture();
        let live =
            LiveCorpus::open_durable(Arc::clone(&seed), DurabilityConfig::new(&dir)).unwrap();
        commit(&live, &edge_batch(0, 3, 1.0));
        drop(live);
        // Second process lifetime: recovery feeds the same lineage.
        let live =
            LiveCorpus::open_durable(Arc::clone(&seed), DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(live.epoch(), 1, "reopen must resume at the durable epoch");
        assert_eq!(live.recovery_report().unwrap().replayed, 1);
        assert_eq!(commit(&live, &edge_batch(1, 4, 1.0)), 2);
        drop(live);
        let (recovered, report) = LiveCorpus::recover(&dir).unwrap();
        assert_eq!(report.replayed, 2);
        assert!(recovered.snapshot().graph.has_edge(0, 3));
        assert!(recovered.snapshot().graph.has_edge(1, 4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_retires_wal_and_recovery_uses_it() {
        let dir = tmp_dir("snapshot");
        let cfg = DurabilityConfig {
            snapshot_every: 3,
            ..DurabilityConfig::new(&dir)
        };
        let live = LiveCorpus::open_durable(fixture(), cfg).unwrap();
        for i in 0..7u32 {
            commit(&live, &edge_batch(i % 7, (i + 2) % 7, 0.5));
        }
        assert!(
            live.wal_stats().unwrap().retired_segments > 0,
            "snapshot must retire"
        );
        drop(live);
        let (recovered, report) = LiveCorpus::recover(&dir).unwrap();
        assert!(report.snapshot_epoch >= 3, "recovery starts at a snapshot");
        assert_eq!(report.recovered_epoch, 7);
        assert_eq!(
            report.snapshot_epoch + report.replayed,
            7,
            "snapshot + replay must cover the full lineage"
        );
        assert_eq!(recovered.epoch(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_degraded_but_alive() {
        let dir = tmp_dir("fallback");
        let cfg = DurabilityConfig {
            snapshot_every: 2,
            ..DurabilityConfig::new(&dir)
        };
        let live = LiveCorpus::open_durable(fixture(), cfg).unwrap();
        let shadow = LiveCorpus::new(fixture());
        for i in 0..5u32 {
            let b = edge_batch(i % 7, (i + 3) % 7, 1.0);
            commit(&live, &b);
            commit(&shadow, &b);
        }
        drop(live);
        // Corrupt the newest snapshot's payload.
        let snaps = snapio::list_snapshots(&dir).unwrap();
        let newest = &snaps.last().unwrap().1;
        let mut bytes = std::fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(newest, &bytes).unwrap();
        let (recovered, report) = LiveCorpus::recover(&dir).unwrap();
        assert_eq!(report.corrupt_snapshots, 1, "the bad snapshot is reported");
        assert!(report.degraded());
        assert_eq!(
            report.recovered_epoch, 5,
            "older snapshot + retained WAL must rebuild everything"
        );
        assert_same_corpus(&recovered.snapshot(), &shadow.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_usable_state_is_an_error_not_a_silent_reset() {
        let dir = tmp_dir("nostate");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            LiveCorpus::recover(&dir),
            Err(RecoverError::NoUsableSnapshot { tried: 0 })
        ));
        std::fs::write(snapio::snapshot_path(&dir, 3), b"garbage").unwrap();
        assert!(matches!(
            LiveCorpus::recover(&dir),
            Err(RecoverError::NoUsableSnapshot { tried: 1 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_metrics_register() {
        let report = RecoveryReport {
            snapshot_epoch: 4,
            replayed: 3,
            truncated_tail: true,
            recovered_epoch: 7,
            ..RecoveryReport::default()
        };
        let mut reg = MetricsRegistry::new();
        report.register_into(&mut reg);
        assert_eq!(reg.get("friends_recovery_snapshot_epoch"), Some(4.0));
        assert_eq!(reg.get("friends_recovery_replayed_batches"), Some(3.0));
        assert_eq!(reg.get("friends_recovery_truncated_tail"), Some(1.0));
        assert_eq!(reg.get("friends_recovery_recovered_epoch"), Some(7.0));
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_corpus() {
        let live = Arc::new(LiveCorpus::new(fixture()));
        let writer = Arc::clone(&live);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..50u32 {
                    commit(&writer, &edge_batch(i % 7, (i + 1) % 7, 0.5));
                }
            });
            for _ in 0..4 {
                let live = Arc::clone(&live);
                s.spawn(move || {
                    for _ in 0..200 {
                        let snap = live.snapshot();
                        // Structural invariants hold on every snapshot:
                        // graph/store universes agree and the epoch is
                        // consistent with the lineage.
                        assert_eq!(snap.graph.num_nodes() as u32, snap.store.num_users());
                        assert!(snap.epoch() <= 50);
                    }
                });
            }
        });
        assert_eq!(live.epoch(), 50);
    }
}
