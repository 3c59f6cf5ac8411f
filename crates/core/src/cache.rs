//! The seeker-proximity cache, and the cache engine ([`AdmissionLru`]) it
//! shares with `friends_service`'s result cache.
//!
//! Real query traffic is heavily skewed toward repeat seekers (the Zipf
//! workload of Fig 7 / `fig9_hot_path`), and `σ(seeker, ·)` depends only on
//! `(graph, seeker, model)` — never on the query's tags or `k`. Caching the
//! materialized [`ProximityVec`] therefore converts the dominant per-query
//! cost (a graph traversal) into an `Arc` clone for every repeated seeker.
//!
//! [`ProximityCache`] is one [`AdmissionLru`] and its edit history behind
//! one lock; `friends_service` workers each own a cache, so the lock is
//! always uncontended. The LRU carries the [`CachePolicy`] behaviors —
//! TinyLFU admission, so one-hit wonders cannot wash a skewed working set
//! out of a small cache, and a TTL bounding σ staleness in wall-clock time.
//!
//! ## Byte budgets
//!
//! Capacity can be stated in **entries** or in **bytes**
//! ([`ProximityCache::with_byte_budget`]); both limits are enforced when
//! both are set. Each entry is charged its [`ProximityVec::memory_bytes`]
//! plus a fixed bookkeeping overhead, so the budget tracks what the cache
//! actually holds: thousands of small reach-proportional `Touched` snapshots
//! fit in the space a few dozen dense vectors used to occupy — which is
//! exactly what lifts the hit rate on Zipf-tail seekers, whose σ is small
//! but numerous. Admission then weighs frequency per charged byte, so a
//! dense snapshot must be proportionally hotter than the entries it evicts.

mod lru;

pub use lru::{AdmissionLru, KeyHasher, KeyMap};

use crate::proximity::{ProximityModel, ProximityVec, SigmaBounds, SigmaRepair};
use friends_graph::traversal::EdgeEdit;
use friends_graph::{CsrGraph, NodeId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(graph, seeker, model, bounds)` identity: the graph contributes its
/// process-unique token (so one cache shared across corpora can never serve
/// σ computed on a different graph), the model its variant + exact
/// parameter bits (so e.g. `Ppr{eps=1e-4}` and `Ppr{eps=1e-5}` never
/// alias), and the `SigmaBounds` their exact bits — a σ materialized under
/// degraded bounds must never be served for an exact request, nor vice
/// versa. Hashed once, when it is built.
#[derive(Clone, Copy, PartialEq, Eq)]
struct SigmaKey {
    /// SipHash of the fields below; first, so unequal keys differ fast.
    hash: u64,
    graph: u64,
    seeker: NodeId,
    model: (u8, u64, u64),
    bounds: (u32, u64),
}

impl SigmaKey {
    fn new(graph: &CsrGraph, seeker: NodeId, model: ProximityModel, bounds: SigmaBounds) -> Self {
        let (graph, model, bounds) = (graph.token(), model.key_bits(), bounds.key_bits());
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (graph, seeker, model.0, model.1, model.2, bounds.0, bounds.1).hash(&mut h);
        SigmaKey {
            hash: h.finish(),
            graph,
            seeker,
            model,
            bounds,
        }
    }
}

impl Hash for SigmaKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A cached vector, the graph version it is exact for, and the model/bounds
/// behind its key's bits, kept so a read can repair it for a later version
/// — key bits alone cannot be mapped back to a [`ProximityModel`].
struct SigmaEntry {
    sigma: Arc<ProximityVec>,
    version: u64,
    model: ProximityModel,
    bounds: SigmaBounds,
}

/// Most composed edge edits (`E`) a stale vector is repaired across; the
/// edit history holds no more, so a vector further behind is rebuilt. Set at
/// the break-even where one repair across the folded edits costs what a
/// cold σ does: `layers_write`'s `sigma_composed`/`sigma_cold` rows
/// (overload BA 10 k, `WeightedDecay 0.5`, 2-vCPU Xeon, per vector) read
/// 1.09–1.15 ms against 1.15–1.20 ms at 1 385 folded edits (32 batches of
/// the serving benchmark's 64-mutation writes) and 1.44–1.51 ms against
/// 1.15–1.32 ms at 2 071 (48 batches), a crossing near 1 400–1 600 edits.
const MAX_FOLDED_EDITS: usize = 1_400;

/// Optional cache behaviors layered over the LRU core; the default policy
/// (`admission` off, no `ttl`) is the pre-existing plain-LRU behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CachePolicy {
    /// TinyLFU-style admission: a full cache admits a new key only when the
    /// frequency sketch has seen it more often than the would-be victim.
    pub admission: bool,
    /// Entries older than this are dropped on access (counted as a miss
    /// plus an expiration).
    pub ttl: Option<Duration>,
}

/// A 4-bit count-min sketch over key hashes — the frequency memory behind
/// [`AdmissionLru`]'s TinyLFU admission. Counters saturate at 15 and are
/// halved once the number of recorded accesses reaches the sample period,
/// so the sketch tracks *recent* popularity rather than all-time counts.
struct FreqSketch {
    /// Two 4-bit counters per byte; `width` nibble slots per row, 4 rows.
    table: Vec<u8>,
    width_mask: u64,
    ops: u64,
    sample_period: u64,
}

impl FreqSketch {
    const ROWS: u64 = 4;

    /// A sketch sized for a cache of `entries` entries, clamped to
    /// `[8, 2^20]` so no capacity can overflow the sizing arithmetic.
    fn new(entries: usize) -> Self {
        let entries = entries.clamp(8, 1 << 20) as u64;
        let width = (entries * 8).next_power_of_two();
        FreqSketch {
            table: vec![0u8; (width * Self::ROWS / 2) as usize],
            width_mask: width - 1,
            ops: 0,
            sample_period: entries * 10,
        }
    }

    /// Row-local nibble slot for `hash` in `row` (independent per-row mix).
    fn slot(&self, hash: u64, row: u64) -> usize {
        let mixed = hash
            .wrapping_mul(0x9E37_79B9_7F4A_7C15u64.wrapping_add(row * 2 + 1))
            .rotate_left(21 + 7 * row as u32);
        (row * (self.width_mask + 1) + (mixed & self.width_mask)) as usize
    }

    fn read(&self, slot: usize) -> u8 {
        (self.table[slot / 2] >> ((slot & 1) * 4)) & 0xF
    }

    fn bump(&mut self, slot: usize) {
        let cur = self.read(slot);
        if cur < 15 {
            self.table[slot / 2] += 1 << ((slot & 1) * 4);
        }
    }

    /// Records one access of `hash`, halving every counter at the end of
    /// each sample period (the aging step).
    fn record(&mut self, hash: u64) {
        for row in 0..Self::ROWS {
            let s = self.slot(hash, row);
            self.bump(s);
        }
        self.ops += 1;
        if self.ops >= self.sample_period {
            self.ops = 0;
            for b in self.table.iter_mut() {
                // Halve both 4-bit counters in place (0x77 clears the bits
                // that cross a nibble boundary under the shift).
                *b = (*b >> 1) & 0x77;
            }
        }
    }

    /// Count-min frequency estimate of `hash`.
    fn estimate(&self, hash: u64) -> u8 {
        (0..Self::ROWS)
            .map(|row| self.read(self.slot(hash, row)))
            .min()
            .unwrap_or(0)
    }
}

/// Fixed per-entry bookkeeping charge (key, slot, map/recency nodes) added
/// to [`ProximityVec::memory_bytes`] when charging a byte budget, so even
/// zero-byte values (`AllOnes`) cannot make a budget admit unboundedly many
/// entries.
const ENTRY_OVERHEAD_BYTES: usize = 96;

/// The byte charge of one cached vector.
fn charge_of(sigma: &ProximityVec) -> usize {
    sigma.memory_bytes() + ENTRY_OVERHEAD_BYTES
}

/// Aggregate counters, cheap enough to read in a serving loop.
///
/// **Deprecated for reporting**: reading these fields directly from
/// reporting/export code is deprecated — call [`CacheStats::register_into`]
/// and look the values up by their stable `friends_<subsystem>_*` registry
/// keys instead (migration table in `crates/README.md`). The fields stay
/// public because this struct *is* the recording surface; only the
/// read-for-reporting direction moved to the registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Inserts refused by TinyLFU admission (the key was colder than the
    /// would-be eviction victim) or by the byte budget (the entry alone
    /// exceeds it).
    pub rejections: u64,
    /// Entries dropped because they outlived `CachePolicy::ttl`: found
    /// stale on access (also a miss) or evicted stale.
    pub expirations: u64,
    /// Entries dropped because a live-graph mutation could change them: by
    /// sweeps ([`ProximityCache::invalidate_affected`], the result cache's
    /// partial invalidation) or, in the σ cache, by a read that could not
    /// repair a stale entry. Always 0 on a frozen corpus.
    pub invalidated: u64,
    pub entries: usize,
    /// Resident bytes currently charged against the byte budget
    /// (value bytes + per-entry overhead).
    pub bytes: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when the cache was never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Registers every counter under `friends_<subsystem>_*` (e.g.
    /// `friends_proximity_cache_hits_total`). Reporting paths read these
    /// registry keys; the struct fields stay as the recording surface.
    pub fn register_into(&self, registry: &mut crate::metrics::MetricsRegistry, subsystem: &str) {
        let name = |suffix: &str| format!("friends_{subsystem}_{suffix}");
        registry.counter(&name("hits_total"), "cache hits", self.hits);
        registry.counter(&name("misses_total"), "cache misses", self.misses);
        registry.counter(
            &name("insertions_total"),
            "cache insertions",
            self.insertions,
        );
        registry.counter(&name("evictions_total"), "cache evictions", self.evictions);
        registry.counter(
            &name("rejections_total"),
            "inserts refused by TinyLFU admission",
            self.rejections,
        );
        registry.counter(
            &name("expirations_total"),
            "entries dropped by TTL expiry",
            self.expirations,
        );
        registry.counter(
            &name("invalidated_total"),
            "entries dropped because a live-graph mutation could change them",
            self.invalidated,
        );
        registry.gauge(&name("entries"), "resident entries", self.entries as f64);
        registry.gauge(&name("bytes"), "resident bytes", self.bytes as f64);
        registry.gauge(&name("hit_rate"), "hit fraction in [0,1]", self.hit_rate());
    }

    /// Folds another stats snapshot into this one (entries are summed:
    /// intended for aggregating disjoint caches, e.g. one per service
    /// shard).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.rejections += other.rejections;
        self.expirations += other.expirations;
        self.invalidated += other.invalidated;
        self.entries += other.entries;
        self.bytes += other.bytes;
    }
}

/// What reads did with **stale** σ entries — entries a lookup found
/// resident but exact for an older graph version than the cache's
/// ([`ProximityCache::advance`]): `kept + repaired + dropped +
/// too_far_behind` is their number. The last two were rebuilt by the
/// reader and count as misses in [`CacheStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SigmaSweep {
    /// Served as they were: the edits missed are outside the vector's
    /// reach, or its repair changed no node.
    pub kept: u64,
    /// Repaired in place: at least one node's σ changed.
    pub repaired: u64,
    /// Reached by the edits, but their model or bounds admit no repair:
    /// dropped.
    pub dropped: u64,
    /// Behind by more batches than the edit history holds: dropped.
    pub too_far_behind: u64,
    /// Nodes whose σ changed, summed over the `repaired` entries.
    pub changed_nodes: u64,
    /// Length of the composed edit lists the stale entries were checked
    /// (and repaired) against, summed.
    pub folded_edits: u64,
    /// Time spent bringing stale entries forward.
    pub time: Duration,
}

impl SigmaSweep {
    /// Adds another count to this one.
    pub fn merge(&mut self, other: &SigmaSweep) {
        self.kept += other.kept;
        self.repaired += other.repaired;
        self.dropped += other.dropped;
        self.too_far_behind += other.too_far_behind;
        self.changed_nodes += other.changed_nodes;
        self.folded_edits += other.folded_edits;
        self.time += other.time;
    }

    /// What happened since `earlier`, a previous reading of the same
    /// counters.
    pub fn since(&self, earlier: &SigmaSweep) -> SigmaSweep {
        SigmaSweep {
            kept: self.kept - earlier.kept,
            repaired: self.repaired - earlier.repaired,
            dropped: self.dropped - earlier.dropped,
            too_far_behind: self.too_far_behind - earlier.too_far_behind,
            changed_nodes: self.changed_nodes - earlier.changed_nodes,
            folded_edits: self.folded_edits - earlier.folded_edits,
            time: self.time - earlier.time,
        }
    }

    /// Registers the counts as `{prefix}_{kept,repaired,dropped,
    /// too_far_behind,folded_edits}_total` and the `{prefix}_changed_nodes`
    /// mean per repaired vector.
    pub fn register_into(&self, registry: &mut crate::metrics::MetricsRegistry, prefix: &str) {
        for (name, help, value) in [
            ("kept", "stale sigma vectors served unchanged", self.kept),
            (
                "repaired",
                "stale sigma vectors repaired when read",
                self.repaired,
            ),
            (
                "dropped",
                "stale sigma vectors no repair applies to",
                self.dropped,
            ),
            (
                "too_far_behind",
                "stale sigma vectors past the edit history",
                self.too_far_behind,
            ),
            (
                "folded_edits",
                "composed edits stale sigma was checked against",
                self.folded_edits,
            ),
        ] {
            registry.counter(&format!("{prefix}_{name}_total"), help, value);
        }
        registry.gauge(
            &format!("{prefix}_changed_nodes"),
            "mean nodes whose sigma changed per repaired vector",
            self.changed_nodes as f64 / self.repaired.max(1) as f64,
        );
    }
}

/// The edit history of a [`ProximityCache`] and the state that brings stale
/// entries forward across it. Only reads that find a stale entry, and
/// [`ProximityCache::advance`], touch it.
#[derive(Default)]
struct History {
    /// `(version, edits)` of the latest edge-editing batches, oldest first,
    /// versions consecutive: `edits` turns version `version - 1` into
    /// `version`.
    ring: VecDeque<(u64, Arc<[EdgeEdit]>)>,
    /// Edits held in `ring`, at most [`MAX_FOLDED_EDITS`].
    held: usize,
    /// The composed edits of the latest fold.
    folded: Vec<EdgeEdit>,
    scratch: SigmaRepair,
    stale: SigmaSweep,
}

impl History {
    /// Brings a stale `entry` from its version to `version`: folds the
    /// edits in between, keeps the vector if they are out of its reach and
    /// repairs it otherwise. `false` (the entry must go) when the history
    /// does not reach back far enough, or the edits reach a vector no
    /// repair applies to.
    #[cold]
    #[inline(never)]
    fn bring_forward(
        &mut self,
        key: &SigmaKey,
        entry: &mut SigmaEntry,
        graph: &CsrGraph,
        version: u64,
    ) -> bool {
        let started = Instant::now();
        let brought = self.fold(entry.version, version) && self.repair(key, entry, graph);
        if brought {
            entry.version = version;
        }
        self.stale.time += started.elapsed();
        brought
    }

    /// Composes the batches `from + 1 ..= to` into `folded`, keeping each
    /// pair's first `old` and last `new` weight and dropping pairs whose
    /// two weights agree; `false` when the ring no longer holds them all.
    fn fold(&mut self, from: u64, to: u64) -> bool {
        let first = self.ring.front().map_or(u64::MAX, |&(v, _)| v);
        if from >= to || from + 1 < first || to - first >= self.ring.len() as u64 {
            self.stale.too_far_behind += 1;
            return false;
        }
        let folded = &mut self.folded;
        folded.clear();
        let batches = (from + 1 - first) as usize..=(to - first) as usize;
        self.ring
            .range(batches)
            .for_each(|(_, edits)| folded.extend_from_slice(edits));
        // Stable: a pair's edits stay in batch order (one per batch).
        folded.sort_by_key(|e| (e.u, e.v));
        folded.dedup_by(|later, kept| {
            let same = (later.u, later.v) == (kept.u, kept.v);
            if same {
                kept.new = later.new;
            }
            same
        });
        folded.retain(|e| e.old.map(f32::to_bits) != e.new.map(f32::to_bits));
        self.stale.folded_edits += folded.len() as u64;
        true
    }

    /// Brings `entry` across `folded`: kept if no folded pair is in its
    /// reach, repaired in place otherwise; `false` if no repair applies.
    fn repair(&mut self, key: &SigmaKey, entry: &mut SigmaEntry, graph: &CsrGraph) -> bool {
        let endpoints = self.folded.iter().flat_map(|e| [e.u, e.v]);
        if !reaches(key, &entry.sigma, endpoints) {
            self.stale.kept += 1;
            return true;
        }
        let changed = entry.bounds.is_exact().then(|| {
            let sigma = Arc::make_mut(&mut entry.sigma);
            entry
                .model
                .repair(graph, &self.folded, sigma, &mut self.scratch)
        });
        match changed.flatten() {
            None => {
                self.stale.dropped += 1;
                false
            }
            Some(0) => {
                self.stale.kept += 1;
                true
            }
            Some(changed) => {
                self.stale.repaired += 1;
                self.stale.changed_nodes += changed as u64;
                true
            }
        }
    }
}

/// Whether a cached vector can see a change at any of `nodes` (endpoints of
/// edited pairs): its seeker is one, or it holds positive mass on one — the
/// vector is its own dependency set (`friends_core::live` says why).
/// `Global` entries (key tag 0, σ ≡ 1) are graph-independent.
fn reaches(key: &SigmaKey, sigma: &ProximityVec, mut nodes: impl Iterator<Item = NodeId>) -> bool {
    key.model.0 != 0 && nodes.any(|u| u == key.seeker || sigma.get(u) > 0.0)
}

/// LRU cache of materialized proximity vectors, shared with executors via
/// `Arc<ProximityCache>`. See the module docs for the optional
/// admission/TTL policy.
///
/// On a live graph the cache is versioned: [`ProximityCache::advance`]
/// records each batch's edits, every entry remembers the version it is
/// exact for, and a lookup that finds an older one brings it forward before
/// serving it (see [`ProximityCache::get_bounded`]).
pub struct ProximityCache {
    inner: Mutex<Inner>,
}

/// Everything behind the cache's one lock.
struct Inner {
    lru: AdmissionLru<SigmaKey, SigmaEntry>,
    /// The graph version readers pass: the number of edge-editing batches
    /// advanced across.
    version: u64,
    history: History,
}

impl ProximityCache {
    /// Creates a cache holding at most `capacity` proximity vectors.
    pub fn new(capacity: usize) -> Self {
        Self::with_limits(capacity, usize::MAX, 1, CachePolicy::default())
    }

    /// Byte-budgeted cache: holds whatever number of vectors fits in
    /// `bytes`, charging each entry its [`ProximityVec::memory_bytes`] plus
    /// bookkeeping overhead. The shape serving tiers want:
    /// reach-proportional `Touched` snapshots pack thousands deep where
    /// dense vectors fit dozens, without the entry count lying about memory
    /// use. A budget of 0 admits nothing.
    pub fn with_byte_budget(bytes: usize, policy: CachePolicy) -> Self {
        Self::with_limits(usize::MAX, bytes, 1, policy)
    }

    /// Fully explicit constructor: entry capacity **and** byte budget (both
    /// enforced; pass `usize::MAX` to disable one) and policy. `_shards` is
    /// ignored: the cache is one LRU behind one lock.
    pub fn with_limits(capacity: usize, bytes: usize, _shards: usize, policy: CachePolicy) -> Self {
        ProximityCache {
            inner: Mutex::new(Inner {
                lru: AdmissionLru::new(capacity, bytes, policy),
                version: 0,
                history: History::default(),
            }),
        }
    }

    /// Looks up `σ(seeker, ·)` on `graph` under `model`, refreshing its
    /// recency: one hash of the key plus [`AdmissionLru::get`] under the
    /// lock.
    pub fn get(
        &self,
        graph: &CsrGraph,
        seeker: NodeId,
        model: ProximityModel,
    ) -> Option<Arc<ProximityVec>> {
        self.get_bounded(graph, seeker, model, SigmaBounds::EXACT)
    }

    /// [`ProximityCache::get`] under explicit [`SigmaBounds`]: the bounds
    /// are part of the key, so degraded and exact σ never alias. `get` is
    /// the `SigmaBounds::EXACT` shorthand.
    ///
    /// `graph` must be at the cache's version (the one the latest
    /// [`ProximityCache::advance`] moved to). An entry exact for that
    /// version is served as it is — the one extra cost of a hit is an
    /// integer compare. An older entry is brought forward first: the edits
    /// of the batches it missed are folded into one list (each pair's first
    /// old and last new weight, pairs whose weights agree dropped), and the
    /// vector is kept if none of them is in its reach, else repaired in
    /// place once ([`ProximityModel::repair`]) to the bits a cold
    /// materialization on `graph` writes. A stale entry that cannot be
    /// brought forward — further behind than the edit history holds, or of
    /// a model or bounds without a repair — is dropped and misses.
    pub fn get_bounded(
        &self,
        graph: &CsrGraph,
        seeker: NodeId,
        model: ProximityModel,
        bounds: SigmaBounds,
    ) -> Option<Arc<ProximityVec>> {
        let key = SigmaKey::new(graph, seeker, model, bounds);
        let mut inner = self.inner.lock();
        let Inner {
            lru,
            version,
            history,
        } = &mut *inner;
        let entry = lru.get(&key, true)?;
        if entry.version == *version {
            return Some(Arc::clone(&entry.sigma));
        }
        if history.bring_forward(&key, entry, graph, *version) {
            let sigma = Arc::clone(&entry.sigma);
            lru.recharge(&key, charge_of(&sigma));
            Some(sigma)
        } else {
            lru.invalidate(&key);
            None
        }
    }

    /// Inserts (or refreshes) a materialized vector under the eviction and
    /// admission rules of [`AdmissionLru::insert_with`].
    pub fn insert(
        &self,
        graph: &CsrGraph,
        seeker: NodeId,
        model: ProximityModel,
        value: Arc<ProximityVec>,
    ) {
        self.insert_bounded(graph, seeker, model, SigmaBounds::EXACT, value)
    }

    /// [`ProximityCache::insert`] under explicit [`SigmaBounds`] (part of
    /// the key — see [`ProximityCache::get_bounded`]).
    pub fn insert_bounded(
        &self,
        graph: &CsrGraph,
        seeker: NodeId,
        model: ProximityModel,
        bounds: SigmaBounds,
        value: Arc<ProximityVec>,
    ) {
        let value_bytes = value.memory_bytes();
        self.insert_with(graph, seeker, model, bounds, value_bytes, || value);
    }

    /// [`ProximityCache::insert_bounded`] for a value that does not exist
    /// yet: the admission decision needs only the value's size, so the
    /// caller states `value_bytes` (its [`ProximityVec::memory_bytes`]) and
    /// `make` builds it — under the lock — only once the insert is certain
    /// to go in. A cold seeker whose insert the budget or TinyLFU turns
    /// away never pays for the snapshot.
    pub fn insert_with(
        &self,
        graph: &CsrGraph,
        seeker: NodeId,
        model: ProximityModel,
        bounds: SigmaBounds,
        value_bytes: usize,
        make: impl FnOnce() -> Arc<ProximityVec>,
    ) {
        let key = SigmaKey::new(graph, seeker, model, bounds);
        let charge = value_bytes + ENTRY_OVERHEAD_BYTES;
        let mut inner = self.inner.lock();
        let version = inner.version;
        inner.lru.insert_with(key, charge, || {
            let sigma = make();
            debug_assert_eq!(sigma.memory_bytes(), value_bytes, "misstated charge");
            SigmaEntry {
                sigma,
                version,
                model,
                bounds,
            }
        });
    }

    /// Number of cached vectors.
    pub fn len(&self) -> usize {
        self.inner.lock().lru.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes charged against the byte budget (value bytes plus
    /// per-entry overhead).
    pub fn memory_bytes(&self) -> usize {
        self.stats().bytes
    }

    /// Moves the cache to the next graph version, in O(1): `edits` — every
    /// pair whose weight differs between the graph readers passed so far
    /// and the one they pass from now on — joins the edit history, and no
    /// entry is touched; each is brought forward when it is next read (see
    /// [`ProximityCache::get_bounded`]). Call it when the readers switch
    /// graphs, with no read in between: the serving tier's shards advance
    /// their private caches at the batch boundary where they switch
    /// snapshots. A batch that edits no pair changes no σ and leaves the
    /// version as it is.
    ///
    /// The history keeps the latest batches up to `MAX_FOLDED_EDITS`
    /// edits in all; an entry that missed more is rebuilt when read.
    pub fn advance(&self, edits: &Arc<[EdgeEdit]>) {
        if edits.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.version += 1;
        let Inner {
            version, history, ..
        } = &mut *inner;
        history.held += edits.len();
        history.ring.push_back((*version, Arc::clone(edits)));
        while history.held > MAX_FOLDED_EDITS {
            let (_, oldest) = history
                .ring
                .pop_front()
                .expect("held edits are in the ring");
            history.held -= oldest.len();
        }
    }

    /// Drops every entry that `endpoints` (of edited pairs) could reach and
    /// returns how many — the eager, drop-only alternative to
    /// [`ProximityCache::advance`] for a caller that knows the endpoints
    /// but not the edits.
    pub fn invalidate_affected(&self, endpoints: &[NodeId]) -> u64 {
        if endpoints.is_empty() {
            return 0;
        }
        self.inner
            .lock()
            .lru
            .retain(|key, entry| !reaches(key, &entry.sigma, endpoints.iter().copied()))
    }

    /// What reads have done with stale entries so far.
    pub fn stale_hits(&self) -> SigmaSweep {
        self.inner.lock().history.stale
    }

    /// Growth events of the read-side repair's graph-sized scratch (see
    /// [`SigmaRepair::allocation_count`]): constant once a repair has seen
    /// the graph.
    pub fn repair_allocation_count(&self) -> u64 {
        self.inner.lock().history.scratch.allocation_count()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.inner.lock().lru.clear();
    }

    /// Aggregate counters. A stale hit that had to be dropped counts as a
    /// miss, not a hit.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        let mut stats = inner.lru.stats();
        let stale = inner.history.stale;
        let rebuilt = stale.dropped + stale.too_far_behind;
        stats.hits -= rebuilt;
        stats.misses += rebuilt;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_for(u: NodeId) -> Arc<ProximityVec> {
        Arc::new(ProximityVec::Sparse(vec![(u, 1.0)]))
    }

    fn graph() -> CsrGraph {
        CsrGraph::empty(64)
    }

    const MODEL: ProximityModel = ProximityModel::FriendsOnly;

    #[test]
    fn get_after_insert_hits() {
        let g = graph();
        let c = ProximityCache::new(8);
        assert!(c.get(&g, 3, MODEL).is_none());
        c.insert(&g, 3, MODEL, vec_for(3));
        let v = c.get(&g, 3, MODEL).expect("hit");
        assert_eq!(v.get(3), 1.0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn model_parameters_do_not_alias() {
        let g = graph();
        let c = ProximityCache::new(8);
        let m1 = ProximityModel::DistanceDecay { alpha: 0.5 };
        let m2 = ProximityModel::DistanceDecay { alpha: 0.6 };
        c.insert(&g, 1, m1, vec_for(1));
        assert!(c.get(&g, 1, m2).is_none());
        assert!(c.get(&g, 1, m1).is_some());
    }

    #[test]
    fn distinct_graphs_do_not_alias() {
        // Two graphs with identical shape are still different graphs: a
        // cache shared across corpora must never serve one's σ for the
        // other.
        let g1 = graph();
        let g2 = graph();
        let c = ProximityCache::new(8);
        c.insert(&g1, 1, MODEL, vec_for(1));
        assert!(c.get(&g2, 1, MODEL).is_none());
        assert!(c.get(&g1, 1, MODEL).is_some());
        // A clone IS the same graph and must hit.
        let g1c = g1.clone();
        assert!(c.get(&g1c, 1, MODEL).is_some());
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        let g = graph();
        let c = ProximityCache::new(2);
        c.insert(&g, 1, MODEL, vec_for(1));
        c.insert(&g, 2, MODEL, vec_for(2));
        assert!(c.get(&g, 1, MODEL).is_some()); // refresh 1 → 2 is now oldest
        c.insert(&g, 3, MODEL, vec_for(3));
        assert!(c.get(&g, 2, MODEL).is_none(), "LRU entry must be evicted");
        assert!(c.get(&g, 1, MODEL).is_some());
        assert!(c.get(&g, 3, MODEL).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn stated_limits_hold_for_the_whole_cache() {
        // At most `capacity` vectors overall, whatever the keys hash to.
        let g = graph();
        let c = ProximityCache::new(8);
        for u in 0..64 {
            c.insert(&g, u, MODEL, vec_for(u));
        }
        assert_eq!(c.len(), 8);
        // Any entry within the byte budget is admitted; the shard count is
        // ignored, so it does not split the budget.
        let g = CsrGraph::empty(20_000);
        let entry = touched_vec(1, 40);
        assert!((1000 / 16..1000).contains(&charge_of(&entry)));
        let c = ProximityCache::with_limits(usize::MAX, 1000, 16, CachePolicy::default());
        c.insert(&g, 1, MODEL, entry);
        assert_eq!((c.len(), c.stats().insertions), (1, 1));
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let g = graph();
        let c = ProximityCache::new(4);
        c.insert(&g, 1, MODEL, vec_for(1));
        c.insert(&g, 1, MODEL, vec_for(1));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn admission_protects_hot_entries_from_one_hit_wonders() {
        let g = graph();
        let policy = CachePolicy {
            admission: true,
            ttl: None,
        };
        let c = ProximityCache::with_limits(2, usize::MAX, 1, policy);
        // Make seekers 1 and 2 hot: several lookups each feed the sketch.
        for _ in 0..6 {
            let _ = c.get(&g, 1, MODEL);
            let _ = c.get(&g, 2, MODEL);
        }
        c.insert(&g, 1, MODEL, vec_for(1));
        c.insert(&g, 2, MODEL, vec_for(2));
        // A cold scan of never-repeated seekers must not displace them.
        for u in 10..30 {
            let _ = c.get(&g, u, MODEL);
            c.insert(&g, u, MODEL, vec_for(u));
        }
        assert!(c.get(&g, 1, MODEL).is_some(), "hot entry 1 evicted");
        assert!(c.get(&g, 2, MODEL).is_some(), "hot entry 2 evicted");
        let s = c.stats();
        assert!(s.rejections > 0, "cold keys should have been rejected");
        assert_eq!(s.evictions, 0, "no hot entry should have been evicted");
    }

    #[test]
    fn admission_lets_hotter_keys_replace_colder_residents() {
        let g = graph();
        let policy = CachePolicy {
            admission: true,
            ttl: None,
        };
        let c = ProximityCache::with_limits(1, usize::MAX, 1, policy);
        let _ = c.get(&g, 1, MODEL); // one access for the resident…
        c.insert(&g, 1, MODEL, vec_for(1));
        for _ in 0..8 {
            let _ = c.get(&g, 2, MODEL); // …many for the challenger
        }
        c.insert(&g, 2, MODEL, vec_for(2));
        assert!(c.get(&g, 2, MODEL).is_some(), "hotter key must be admitted");
        assert!(c.get(&g, 1, MODEL).is_none(), "colder resident evicted");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn ttl_expires_stale_entries() {
        let g = graph();
        let policy = CachePolicy {
            admission: false,
            ttl: Some(std::time::Duration::from_millis(20)),
        };
        let c = ProximityCache::with_limits(8, usize::MAX, 1, policy);
        c.insert(&g, 1, MODEL, vec_for(1));
        assert!(c.get(&g, 1, MODEL).is_some(), "fresh entry must hit");
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(c.get(&g, 1, MODEL).is_none(), "stale entry must expire");
        let s = c.stats();
        assert_eq!(s.expirations, 1);
        assert_eq!(s.entries, 0, "expired entry is dropped eagerly");
        // Re-insert resets the clock.
        c.insert(&g, 1, MODEL, vec_for(1));
        assert!(c.get(&g, 1, MODEL).is_some());
    }

    #[test]
    fn expired_residents_cannot_win_the_admission_gate() {
        // Admission + TTL together: once the hot working set expires, new
        // (cold) keys must still get in — an unservable stale entry must
        // never block a fresh insert, however hot its sketch estimate is.
        let g = graph();
        let policy = CachePolicy {
            admission: true,
            ttl: Some(std::time::Duration::from_millis(15)),
        };
        let c = ProximityCache::with_limits(2, usize::MAX, 1, policy);
        for _ in 0..8 {
            let _ = c.get(&g, 1, MODEL); // make 1 and 2 very hot
            let _ = c.get(&g, 2, MODEL);
        }
        c.insert(&g, 1, MODEL, vec_for(1));
        c.insert(&g, 2, MODEL, vec_for(2));
        std::thread::sleep(std::time::Duration::from_millis(25));
        // Traffic shifts: a brand-new seeker with a single prior lookup.
        let _ = c.get(&g, 30, MODEL);
        c.insert(&g, 30, MODEL, vec_for(30));
        assert!(
            c.get(&g, 30, MODEL).is_some(),
            "fresh insert blocked by an expired resident: {:?}",
            c.stats()
        );
        assert!(c.stats().expirations > 0, "{:?}", c.stats());
    }

    #[test]
    fn default_policy_preserves_plain_lru_counters() {
        let g = graph();
        let c = ProximityCache::new(8);
        let _ = c.get(&g, 1, MODEL);
        c.insert(&g, 1, MODEL, vec_for(1));
        let _ = c.get(&g, 1, MODEL);
        let s = c.stats();
        assert_eq!((s.rejections, s.expirations), (0, 0));
        let mut merged = s;
        merged.merge(&s);
        assert_eq!(merged.hits, 2 * s.hits);
        assert_eq!(merged.entries, 2 * s.entries);
    }

    fn touched_vec(u: NodeId, entries: usize) -> Arc<ProximityVec> {
        Arc::new(ProximityVec::Touched {
            entries: (0..entries as u32).map(|i| (i, 0.5)).collect(),
            seeker: u,
            non_seeker_max: 0.5,
            residual: 0.0,
        })
    }

    fn dense_vec(u: NodeId, n: usize) -> Arc<ProximityVec> {
        Arc::new(ProximityVec::Dense {
            values: vec![0.5; n],
            seeker: u,
            non_seeker_max: 0.5,
        })
    }

    #[test]
    fn byte_budget_evicts_by_resident_size() {
        let g = CsrGraph::empty(20_000);
        let per_entry = charge_of(&touched_vec(0, 4)); // 4 pairs + overhead
        let c = ProximityCache::with_byte_budget(3 * per_entry, CachePolicy::default());
        for u in 0..3 {
            c.insert(&g, u, MODEL, touched_vec(u, 4));
        }
        assert_eq!(c.len(), 3);
        assert!(c.memory_bytes() <= 3 * per_entry);
        c.insert(&g, 3, MODEL, touched_vec(3, 4));
        assert_eq!(c.len(), 3, "budget must evict, not grow");
        assert!(c.get(&g, 0, MODEL).is_none(), "LRU victim evicted by bytes");
        assert!(c.get(&g, 3, MODEL).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().bytes, c.memory_bytes());
    }

    #[test]
    fn one_wide_entry_displaces_many_narrow_ones() {
        let g = CsrGraph::empty(20_000);
        let narrow = charge_of(&touched_vec(0, 4));
        let c = ProximityCache::with_byte_budget(8 * narrow, CachePolicy::default());
        for u in 0..8 {
            c.insert(&g, u, MODEL, touched_vec(u, 4));
        }
        assert_eq!(c.len(), 8);
        // A dense vector worth ~6 narrow entries must evict as many LRU
        // victims as it needs, in one insert.
        let wide = dense_vec(100, (6 * narrow) / 8);
        c.insert(&g, 100, MODEL, wide);
        assert!(c.get(&g, 100, MODEL).is_some());
        assert!(c.len() < 8, "several victims must have been displaced");
        assert!(c.memory_bytes() <= 8 * narrow);
    }

    #[test]
    fn touched_snapshots_pack_where_dense_do_not() {
        // The fig11-hit-rate mechanism in miniature: under one fixed byte
        // budget, reach-proportional snapshots cache an order of magnitude
        // more seekers than dense ones.
        let g = CsrGraph::empty(20_000);
        let budget = 1 << 20; // 1 MiB
        let dense = ProximityCache::with_byte_budget(budget, CachePolicy::default());
        for u in 0..2_000 {
            dense.insert(&g, u, MODEL, dense_vec(u, 10_000)); // 80 KB each
        }
        let touched = ProximityCache::with_byte_budget(budget, CachePolicy::default());
        for u in 0..2_000 {
            touched.insert(&g, u, MODEL, touched_vec(u, 100)); // 1.6 KB each
        }
        assert!(dense.len() <= 16, "dense: {}", dense.len());
        assert!(touched.len() >= 500, "touched: {}", touched.len());
        assert!(dense.memory_bytes() <= budget && touched.memory_bytes() <= budget);
    }

    #[test]
    fn oversized_value_is_rejected_outright() {
        let g = CsrGraph::empty(20_000);
        let c = ProximityCache::with_byte_budget(1024, CachePolicy::default());
        c.insert(&g, 1, MODEL, dense_vec(1, 10_000));
        assert!(c.is_empty());
        assert_eq!(c.stats().rejections, 1);
        // Small entries still fit afterwards.
        c.insert(&g, 2, MODEL, touched_vec(2, 4));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn insert_with_builds_the_value_only_when_it_goes_in() {
        let g = CsrGraph::empty(20_000);
        let policy = CachePolicy {
            admission: true,
            ttl: None,
        };
        let per_entry = charge_of(&touched_vec(0, 4));
        let c = ProximityCache::with_byte_budget(2 * per_entry, policy);
        let built = std::cell::Cell::new(0u32);
        let offer = |u: NodeId, v: Arc<ProximityVec>| {
            c.insert_with(&g, u, MODEL, SigmaBounds::EXACT, v.memory_bytes(), || {
                built.set(built.get() + 1);
                v
            })
        };
        for _ in 0..6 {
            let _ = c.get(&g, 1, MODEL);
            let _ = c.get(&g, 2, MODEL);
        }
        offer(1, touched_vec(1, 4));
        offer(2, touched_vec(2, 4));
        assert_eq!((built.get(), c.len()), (2, 2), "room: both built");
        // Colder than the resident it would displace: turned away unbuilt.
        let _ = c.get(&g, 3, MODEL);
        offer(3, touched_vec(3, 4));
        // Larger than the whole budget: turned away unbuilt.
        offer(4, dense_vec(4, 10_000));
        assert_eq!((built.get(), c.stats().rejections), (2, 2));
        // A refresh of a resident key goes in, so it is built.
        offer(1, touched_vec(1, 4));
        assert_eq!(built.get(), 3);
        assert!(c.get(&g, 1, MODEL).is_some() && c.get(&g, 2, MODEL).is_some());
    }

    #[test]
    fn oversized_insert_leaves_residents_untouched() {
        // The rejection must be decided before any eviction: an entry that
        // could never fit must not flush the cache on its way out.
        let g = CsrGraph::empty(20_000);
        let per_entry = charge_of(&touched_vec(0, 4));
        let c = ProximityCache::with_byte_budget(4 * per_entry, CachePolicy::default());
        for u in 0..4 {
            c.insert(&g, u, MODEL, touched_vec(u, 4));
        }
        c.insert(&g, 100, MODEL, dense_vec(100, 10_000));
        assert_eq!(c.stats().rejections, 1);
        assert_eq!(c.stats().evictions, 0, "no resident may be displaced");
        for u in 0..4 {
            assert!(c.get(&g, u, MODEL).is_some(), "resident {u} lost");
        }
    }

    #[test]
    fn rejected_multi_victim_insert_keeps_every_resident() {
        // Two-phase eviction: a newcomer needing several victims is judged
        // against each of them *before* anything is removed — a hot victim
        // anywhere in the plan rejects the insert with the cache intact,
        // including the colder entries that would have been evicted first.
        let g = CsrGraph::empty(20_000);
        let policy = CachePolicy {
            admission: true,
            ttl: None,
        };
        let narrow = charge_of(&touched_vec(0, 4));
        let c = ProximityCache::with_byte_budget(3 * narrow, policy);
        let _ = c.get(&g, 1, MODEL); // cold-ish resident: one access
        c.insert(&g, 1, MODEL, touched_vec(1, 4));
        for _ in 0..8 {
            let _ = c.get(&g, 2, MODEL); // hot resident
            let _ = c.get(&g, 3, MODEL);
        }
        c.insert(&g, 2, MODEL, touched_vec(2, 4));
        c.insert(&g, 3, MODEL, touched_vec(3, 4));
        // A twice-seen newcomer wide enough to need all three victims: it
        // beats resident 1 but not residents 2/3 → rejected, all resident.
        let _ = c.get(&g, 50, MODEL);
        let _ = c.get(&g, 50, MODEL);
        c.insert(&g, 50, MODEL, touched_vec(50, 3 * 4));
        assert!(c.get(&g, 50, MODEL).is_none());
        for u in 1..=3 {
            assert!(c.get(&g, u, MODEL).is_some(), "resident {u} lost");
        }
        assert_eq!(c.stats().evictions, 0);
        assert!(c.stats().rejections > 0);
    }

    #[test]
    fn over_budget_refresh_evicts_others_to_fit() {
        let g = CsrGraph::empty(20_000);
        let narrow = charge_of(&touched_vec(0, 4));
        let c = ProximityCache::with_byte_budget(6 * narrow, CachePolicy::default());
        for u in 0..6 {
            c.insert(&g, u, MODEL, touched_vec(u, 4));
        }
        assert_eq!(c.len(), 6);
        // Refresh the newest entry with a value ~4 narrow entries wide: the
        // budget must hold afterwards, at the expense of LRU residents —
        // never of the refreshed entry itself.
        c.insert(&g, 5, MODEL, touched_vec(5, 4 * 4 + 8));
        assert!(
            c.memory_bytes() <= 6 * narrow,
            "refresh left the cache over budget"
        );
        assert!(
            c.get(&g, 5, MODEL).is_some(),
            "refreshed entry must survive"
        );
        assert!(c.len() < 6);
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn expired_victims_of_a_widening_refresh_count_as_expirations() {
        // Whatever path evicts it, a victim past its TTL is an expiration:
        // room-making on insert, a widening refresh and a read repair's
        // re-charge share one eviction routine.
        let g = CsrGraph::empty(20_000);
        let narrow = charge_of(&touched_vec(0, 4));
        let policy = CachePolicy {
            admission: false,
            ttl: Some(Duration::from_millis(20)),
        };
        let c = ProximityCache::with_byte_budget(4 * narrow, policy);
        for u in 0..4 {
            c.insert(&g, u, MODEL, touched_vec(u, 4));
        }
        std::thread::sleep(Duration::from_millis(30));
        c.insert(&g, 3, MODEL, touched_vec(3, 2 * 4 + 8)); // ~2 entries wide
        let s = c.stats();
        assert!(s.bytes <= 4 * narrow, "{s:?}");
        assert_eq!((s.evictions, s.expirations), (0, 2), "{s:?}");
        assert!(c.get(&g, 3, MODEL).is_some(), "refresh restarts the clock");
    }

    #[test]
    fn byte_accounting_tracks_refresh_and_clear() {
        let g = CsrGraph::empty(20_000);
        let c = ProximityCache::with_byte_budget(1 << 20, CachePolicy::default());
        c.insert(&g, 1, MODEL, touched_vec(1, 4));
        let small = c.memory_bytes();
        c.insert(&g, 1, MODEL, touched_vec(1, 400)); // refresh with a wider σ
        assert!(c.memory_bytes() > small);
        assert_eq!(c.len(), 1);
        c.insert(&g, 1, MODEL, touched_vec(1, 4));
        assert_eq!(c.memory_bytes(), small, "refresh must re-charge exactly");
        c.clear();
        assert_eq!((c.len(), c.memory_bytes()), (0, 0));
    }

    #[test]
    fn admission_still_guards_byte_budget_eviction() {
        let g = CsrGraph::empty(20_000);
        let policy = CachePolicy {
            admission: true,
            ttl: None,
        };
        let per_entry = charge_of(&touched_vec(0, 4));
        let c = ProximityCache::with_byte_budget(2 * per_entry, policy);
        for _ in 0..6 {
            let _ = c.get(&g, 1, MODEL);
            let _ = c.get(&g, 2, MODEL);
        }
        c.insert(&g, 1, MODEL, touched_vec(1, 4));
        c.insert(&g, 2, MODEL, touched_vec(2, 4));
        // A cold one-hit wonder cannot displace the hot residents even
        // though the byte budget is full.
        let _ = c.get(&g, 50, MODEL);
        c.insert(&g, 50, MODEL, touched_vec(50, 4));
        assert!(c.get(&g, 1, MODEL).is_some());
        assert!(c.get(&g, 2, MODEL).is_some());
        assert!(c.stats().rejections > 0);
    }

    #[test]
    fn admission_is_size_aware_for_mixed_entries() {
        // Frequency alone no longer admits: a dense snapshot ~4.6× the
        // charge of the Touched residents must be proportionally hotter
        // than each victim it displaces, not merely as hot.
        let g = CsrGraph::empty(20_000);
        let policy = CachePolicy {
            admission: true,
            ttl: None,
        };
        let narrow = charge_of(&touched_vec(0, 4));
        let c = ProximityCache::with_byte_budget(8 * narrow, policy);
        for u in 0..8 {
            let _ = c.get(&g, u, MODEL);
            let _ = c.get(&g, u, MODEL);
            c.insert(&g, u, MODEL, touched_vec(u, 4));
        }
        // Equal frequency, much larger: frequency-per-byte loses.
        let wide = dense_vec(100, (4 * narrow) / 8);
        let _ = c.get(&g, 100, MODEL);
        let _ = c.get(&g, 100, MODEL);
        c.insert(&g, 100, MODEL, Arc::clone(&wide));
        assert!(
            c.get(&g, 100, MODEL).is_none(),
            "equal-frequency wide entry must be rejected"
        );
        assert_eq!(c.stats().evictions, 0);
        assert!(c.stats().rejections > 0);
        // Proportionally hotter (≥ 4.6× the residents' frequency): admitted,
        // displacing as many narrow victims as its bytes need.
        for _ in 0..12 {
            let _ = c.get(&g, 100, MODEL);
        }
        c.insert(&g, 100, MODEL, wide);
        assert!(
            c.get(&g, 100, MODEL).is_some(),
            "proportionally hotter wide entry must be admitted: {:?}",
            c.stats()
        );
        assert!(c.stats().evictions >= 2);
        assert!(c.memory_bytes() <= 8 * narrow);
    }

    #[test]
    fn bounded_entries_do_not_alias_exact_ones() {
        // The degraded-serving contract: σ materialized under tighter
        // bounds lives under its own key — an exact request never sees it,
        // and distinct bounds never see each other's entries.
        let g = graph();
        let c = ProximityCache::new(8);
        let m = ProximityModel::DistanceDecay { alpha: 0.5 };
        let b2 = SigmaBounds::with_radius(2);
        let b3 = SigmaBounds::with_radius(3);
        c.insert_bounded(&g, 1, m, b2, vec_for(1));
        assert!(c.get(&g, 1, m).is_none(), "exact must miss a bounded entry");
        assert!(c.get_bounded(&g, 1, m, b3).is_none());
        assert!(c.get_bounded(&g, 1, m, b2).is_some());
        c.insert(&g, 1, m, vec_for(1));
        assert!(c.get(&g, 1, m).is_some());
        assert!(
            c.get_bounded(&g, 1, m, SigmaBounds::EXACT).is_some(),
            "get/insert are the EXACT shorthand"
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn freq_sketch_tracks_and_ages() {
        // Sizing saturates: no capacity overflows the width arithmetic.
        assert_eq!(FreqSketch::new(usize::MAX).sample_period, 10 << 20);
        let mut sk = FreqSketch::new(16);
        for _ in 0..10 {
            sk.record(0xABCD);
        }
        sk.record(0x1234);
        assert!(sk.estimate(0xABCD) > sk.estimate(0x1234));
        assert_eq!(sk.estimate(0x9999), 0);
        // Saturation: never above 15.
        for _ in 0..100 {
            sk.record(0xABCD);
        }
        assert!(sk.estimate(0xABCD) <= 15);
        // Aging: a full sample period halves everything.
        let before = sk.estimate(0xABCD);
        for i in 0..sk.sample_period {
            sk.record(0x5000 + (i % 13));
        }
        assert!(sk.estimate(0xABCD) < before, "aging must decay counters");
    }

    #[test]
    fn invalidate_affected_sweeps_only_reachable_sigma() {
        let g = graph();
        let c = ProximityCache::new(64);
        // Seeker 1's σ reaches node 5; seeker 2's does not; seeker 7 is
        // itself an endpoint.
        c.insert(&g, 1, MODEL, Arc::new(ProximityVec::Sparse(vec![(5, 0.3)])));
        c.insert(&g, 2, MODEL, Arc::new(ProximityVec::Sparse(vec![(9, 0.3)])));
        c.insert(&g, 7, MODEL, Arc::new(ProximityVec::Sparse(vec![(9, 0.3)])));
        let dropped = c.invalidate_affected(&[5, 7]);
        assert_eq!(dropped, 2);
        assert!(c.get(&g, 1, MODEL).is_none(), "σ crossing endpoint 5 stale");
        assert!(c.get(&g, 7, MODEL).is_none(), "endpoint seeker stale");
        assert!(c.get(&g, 2, MODEL).is_some(), "unreachable entry survives");
        assert_eq!(c.stats().invalidated, 2);
        assert_eq!(c.stats().bytes, c.memory_bytes());
    }

    #[test]
    fn invalidate_affected_outside_every_reach_set_drops_nothing() {
        let g = graph();
        let c = ProximityCache::new(64);
        for u in 0..4 {
            c.insert(
                &g,
                u,
                MODEL,
                Arc::new(ProximityVec::Sparse(vec![(u + 10, 0.5)])),
            );
        }
        assert_eq!(c.invalidate_affected(&[40, 41]), 0);
        assert_eq!(c.len(), 4);
        assert_eq!(c.stats().invalidated, 0);
    }

    #[test]
    fn invalidate_affected_never_touches_global_entries() {
        let g = graph();
        let c = ProximityCache::new(64);
        // Global σ ≡ 1 everywhere — `get(endpoint)` is positive, but the
        // model is graph-independent, so the sweep must skip it.
        c.insert(
            &g,
            1,
            ProximityModel::Global,
            Arc::new(ProximityVec::AllOnes),
        );
        assert_eq!(c.invalidate_affected(&[1, 2, 3]), 0);
        assert!(c.get(&g, 1, ProximityModel::Global).is_some());
    }

    /// `WeightedDecay 0.5` on two components, `{0, 1, 2}` and `{3, 4}`,
    /// and the batch that adds `{0, 2}`.
    fn two_components() -> (CsrGraph, CsrGraph, Arc<[EdgeEdit]>) {
        use friends_graph::GraphBuilder;
        let g = GraphBuilder::from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        let next = g.with_edits(&[(0, 2, 1.0)], &[]);
        let edit = EdgeEdit {
            u: 0,
            v: 2,
            old: None,
            new: Some(1.0),
        };
        (g, next, Arc::from([edit]))
    }

    const DECAY: ProximityModel = ProximityModel::WeightedDecay { alpha: 0.5 };

    fn cold(g: &CsrGraph, seeker: NodeId) -> Arc<ProximityVec> {
        let mut ws = crate::proximity::SigmaWorkspace::new();
        DECAY.materialize_into(g, seeker, &mut ws);
        Arc::new(ws.snapshot(g.num_nodes()))
    }

    #[test]
    fn repair_leaves_recency_and_age_alone() {
        let (g, next, edits) = two_components();
        let c = ProximityCache::with_limits(2, usize::MAX, 1, CachePolicy::default());
        c.insert(&g, 0, DECAY, cold(&g, 0)); // older
        c.insert(&g, 3, DECAY, cold(&g, 3)); // newer
        c.advance(&edits);
        // Advancing touched no entry: seeker 0's is still the LRU victim.
        c.insert(&next, 4, DECAY, cold(&next, 4));
        assert!(c.get(&next, 0, DECAY).is_none(), "advance bumped recency");
        assert!(c.get(&next, 3, DECAY).is_some());

        // A repair on read re-charges the entry but keeps its insertion
        // clock: 200 ms before the repair and 200 ms after it outlive a
        // 300 ms TTL.
        let policy = CachePolicy {
            admission: false,
            ttl: Some(Duration::from_millis(300)),
        };
        let c = ProximityCache::with_limits(2, usize::MAX, 1, policy);
        c.insert(&g, 0, DECAY, cold(&g, 0));
        std::thread::sleep(Duration::from_millis(200));
        c.advance(&edits);
        let repaired = c.get(&next, 0, DECAY).expect("repaired on read");
        assert_eq!(repaired, cold(&next, 0));
        assert_eq!(c.memory_bytes(), charge_of(&repaired));
        let stale = c.stale_hits();
        assert_eq!(
            (stale.repaired, stale.changed_nodes, stale.folded_edits),
            (1, 1, 1)
        );
        std::thread::sleep(Duration::from_millis(200));
        assert!(c.get(&next, 0, DECAY).is_none(), "a repair reset the age");
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn a_read_past_the_edit_history_rebuilds() {
        let (g, next, edits) = two_components();
        let c = ProximityCache::with_limits(8, usize::MAX, 1, CachePolicy::default());
        c.insert(&g, 0, DECAY, cold(&g, 0));
        c.insert(&g, 3, DECAY, cold(&g, 3));
        // One batch wider than the history holds: it is forgotten as soon
        // as it is recorded, and every entry is now too far behind.
        let wide: Arc<[EdgeEdit]> = edits
            .iter()
            .copied()
            .cycle()
            .take(MAX_FOLDED_EDITS + 1)
            .collect();
        c.advance(&wide);
        assert!(c.get(&next, 3, DECAY).is_none());
        let s = c.stats();
        assert_eq!(c.stale_hits().too_far_behind, 1);
        assert_eq!((s.hits, s.misses, s.invalidated, s.entries), (0, 1, 1, 1));
        // A rebuilt entry is exact at the new version; a batch that edits
        // nothing leaves every entry fresh.
        c.insert(&next, 3, DECAY, cold(&next, 3));
        c.advance(&Arc::from([]));
        assert!(c.get(&next, 3, DECAY).is_some());
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let g = graph();
        let c = Arc::new(ProximityCache::new(64));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let c = Arc::clone(&c);
                let g = &g;
                s.spawn(move || {
                    for i in 0..200u32 {
                        let seeker = (t * 37 + i) % 50;
                        match c.get(g, seeker, MODEL) {
                            Some(v) => assert_eq!(v.get(seeker), 1.0),
                            None => c.insert(g, seeker, MODEL, vec_for(seeker)),
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert!(s.hits > 0 && s.insertions > 0);
        assert!(c.len() <= 64);
        assert!(s.hit_rate() > 0.0 && s.hit_rate() < 1.0);
    }
}
