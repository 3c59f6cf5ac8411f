//! The seeker-proximity cache, and the cache engine ([`AdmissionLru`]) it
//! shares with `friends_service`'s result cache.
//!
//! Real query traffic is heavily skewed toward repeat seekers (the Zipf
//! workload of Fig 7 / `fig9_hot_path`), and `σ(seeker, ·)` depends only on
//! `(graph, seeker, model)` — never on the query's tags or `k`. Caching the
//! materialized [`ProximityVec`] therefore converts the dominant per-query
//! cost (a graph traversal) into an `Arc` clone for every repeated seeker.
//!
//! [`ProximityCache`] is sharded by key hash so a `DirectClient`'s workers
//! contend only 1/`shards` of the time; `friends_service` workers each own
//! a one-shard cache, so the lock is always uncontended. Each shard is one
//! [`AdmissionLru`]: LRU plus the [`CachePolicy`] behaviors — TinyLFU
//! admission, so one-hit wonders cannot wash a skewed working set out of a
//! small cache, and a TTL bounding σ staleness in wall-clock time.
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

pub use lru::{AdmissionLru, KeyHasher, KeyMap, Sweep};

use crate::proximity::{ProximityModel, ProximityVec, SigmaBounds, SigmaRepair};
use friends_graph::traversal::EdgeEdit;
use friends_graph::{CsrGraph, NodeId};
use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

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

/// A cached vector plus the model/bounds behind its key's bits, kept so the
/// live-graph sweep ([`ProximityCache::repair_affected`]) can repair it for
/// a new epoch — key bits alone cannot be mapped back to a
/// [`ProximityModel`].
struct SigmaEntry {
    sigma: Arc<ProximityVec>,
    model: ProximityModel,
    bounds: SigmaBounds,
}

/// Optional cache behaviors layered over the LRU core; the default policy
/// (`admission` off, no `ttl`) is the pre-existing plain-LRU behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CachePolicy {
    /// TinyLFU-style admission: a full shard admits a new key only when the
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
    /// Entries dropped by sweeps ([`ProximityCache::repair_affected`], the
    /// result cache's partial invalidation) — what a live-graph mutation
    /// could change and the sweep did not repair. Always 0 on a frozen
    /// corpus.
    pub invalidated: u64,
    pub entries: usize,
    /// Resident bytes currently charged against the byte budget
    /// (value bytes + per-entry overhead, summed over all shards).
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
            "entries dropped by live-graph invalidation sweeps",
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

/// What one live-graph sweep ([`ProximityCache::repair_affected`]) did
/// with the entries the batch's endpoints could reach: `kept + repaired +
/// dropped` is their number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SigmaSweep {
    /// Entries the repair ran on and found unchanged.
    pub kept: u64,
    /// Entries repaired in place: at least one node's σ changed.
    pub repaired: u64,
    /// Entries dropped.
    pub dropped: u64,
    /// Nodes whose σ changed, summed over the `repaired` entries.
    pub changed_nodes: u64,
}

impl SigmaSweep {
    /// Adds another sweep's counts to this one.
    pub fn merge(&mut self, other: &SigmaSweep) {
        self.kept += other.kept;
        self.repaired += other.repaired;
        self.dropped += other.dropped;
        self.changed_nodes += other.changed_nodes;
    }
}

/// Sharded LRU cache of materialized proximity vectors, shared across batch
/// workers via `Arc<ProximityCache>`. See the module docs for the optional
/// admission/TTL policy.
pub struct ProximityCache {
    shards: Box<[Mutex<AdmissionLru<SigmaKey, SigmaEntry>>]>,
    /// Scratch of the repairing sweep, kept across sweeps.
    repair: Mutex<SigmaRepair>,
}

impl ProximityCache {
    /// Default shard count: enough to make worker contention negligible
    /// without fragmenting tiny caches.
    const DEFAULT_SHARDS: usize = 16;

    /// Creates a cache holding at most `capacity` proximity vectors overall.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, Self::DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit shard count (rounded up to ≥ 1; the
    /// per-shard capacity is `ceil(capacity / shards)`, minimum 1).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        Self::with_limits(capacity, usize::MAX, shards, CachePolicy::default())
    }

    /// Byte-budgeted cache: holds whatever number of vectors fits in
    /// `bytes` overall (split evenly across shards), charging each entry
    /// its [`ProximityVec::memory_bytes`] plus bookkeeping overhead. The
    /// shape serving tiers want: reach-proportional `Touched` snapshots
    /// pack thousands deep where dense vectors fit dozens, without the
    /// entry count lying about memory use.
    pub fn with_byte_budget(bytes: usize, shards: usize, policy: CachePolicy) -> Self {
        Self::with_limits(usize::MAX, bytes, shards, policy)
    }

    /// Fully explicit constructor: entry capacity **and** byte budget (both
    /// enforced; pass `usize::MAX` to disable one), shard count, policy.
    pub fn with_limits(capacity: usize, bytes: usize, shards: usize, policy: CachePolicy) -> Self {
        let shards = shards.max(1);
        let per_shard = |limit: usize| match limit {
            usize::MAX => usize::MAX,
            limit => limit.div_ceil(shards).max(1),
        };
        let (entries, bytes) = (per_shard(capacity), per_shard(bytes));
        ProximityCache {
            shards: (0..shards)
                .map(|_| Mutex::new(AdmissionLru::new(entries, bytes, policy)))
                .collect(),
            repair: Mutex::new(SigmaRepair::new()),
        }
    }

    fn shard_of(&self, key: &SigmaKey) -> &Mutex<AdmissionLru<SigmaKey, SigmaEntry>> {
        &self.shards[(key.hash as usize) % self.shards.len()]
    }

    /// Looks up `σ(seeker, ·)` on `graph` under `model`, refreshing its
    /// recency: one hash of the key plus [`AdmissionLru::get`] under the
    /// shard lock.
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
    pub fn get_bounded(
        &self,
        graph: &CsrGraph,
        seeker: NodeId,
        model: ProximityModel,
        bounds: SigmaBounds,
    ) -> Option<Arc<ProximityVec>> {
        let key = SigmaKey::new(graph, seeker, model, bounds);
        let mut shard = self.shard_of(&key).lock();
        shard.get(&key, true).map(|entry| Arc::clone(&entry.sigma))
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
    /// `make` builds it — under the shard lock — only once the insert is
    /// certain to go in. A cold seeker whose insert the budget or TinyLFU
    /// turns away never pays for the snapshot.
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
        self.shard_of(&key).lock().insert_with(key, charge, || {
            let sigma = make();
            debug_assert_eq!(sigma.memory_bytes(), value_bytes, "misstated charge");
            SigmaEntry {
                sigma,
                model,
                bounds,
            }
        });
    }

    /// Number of cached vectors.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes charged against the byte budget (value bytes plus
    /// per-entry overhead, summed over all shards).
    pub fn memory_bytes(&self) -> usize {
        self.stats().bytes
    }

    /// The live-graph sweep: brings the cache from the graph its entries
    /// were materialized on to `next`, the same graph (same token) after
    /// `edits` — every pair whose weight differs. Run it **before**
    /// publishing `next`, so that every surviving entry is exact under the
    /// new epoch.
    ///
    /// The cached vector itself is the dependency set. Any σ path from an
    /// entry's seeker that crosses an edited pair `{u, v}` must first reach
    /// `u` or `v` through *old* edges, so an entry is affected iff its
    /// seeker is an endpoint or its vector holds positive mass on one —
    /// `σ(endpoint) = 0` for every endpoint proves the edits are outside
    /// the seeker's reach (for decay models, beyond the decay horizon /
    /// `SigmaBounds` radius that already truncated the vector). Entries of
    /// the `Global` model (key tag 0, σ ≡ 1) are graph-independent and
    /// never swept.
    ///
    /// An affected entry is **repaired in place**
    /// ([`ProximityModel::repair`]) when it is an exact-bounds entry over
    /// `next`'s graph that was hit or inserted since the previous sweep,
    /// and dropped otherwise — so the work of a sweep follows the read
    /// traffic between two writes, not the size of the cache, and a vector
    /// nobody asked for during a whole epoch does not stay resident on the
    /// strength of repairs alone. A repair leaves recency and age alone
    /// (a TTL still bounds how old an entry gets) and re-charges the
    /// entry's bytes; a reader still holding the vector keeps the old
    /// epoch's copy.
    pub fn repair_affected(&self, next: &CsrGraph, edits: &[EdgeEdit]) -> SigmaSweep {
        self.sweep(&EdgeEdit::endpoints(edits), Some((next, edits)))
    }

    /// The drop-only form of [`ProximityCache::repair_affected`], for a
    /// caller that knows the endpoints of the edited pairs but not the
    /// edits: drops every entry they could reach and returns how many.
    pub fn invalidate_affected(&self, endpoints: &[NodeId]) -> u64 {
        self.sweep(endpoints, None).dropped
    }

    fn sweep(&self, endpoints: &[NodeId], repair: Option<(&CsrGraph, &[EdgeEdit])>) -> SigmaSweep {
        let mut out = SigmaSweep::default();
        if endpoints.is_empty() {
            return out;
        }
        let mut scratch = self.repair.lock();
        for shard in self.shards.iter() {
            let dropped = shard.lock().sweep(|key, entry, read| {
                let affected = key.model.0 != 0
                    && endpoints
                        .iter()
                        .any(|&e| e == key.seeker || entry.sigma.get(e) > 0.0);
                if !affected {
                    return Sweep::Keep;
                }
                let changed = repair
                    .filter(|(next, _)| {
                        key.graph == next.token() && entry.bounds.is_exact() && read
                    })
                    .and_then(|(next, edits)| {
                        let sigma = Arc::make_mut(&mut entry.sigma);
                        entry.model.repair(next, edits, sigma, &mut scratch)
                    });
                match changed {
                    None => Sweep::Drop,
                    Some(0) => {
                        out.kept += 1;
                        Sweep::Keep
                    }
                    Some(changed) => {
                        out.repaired += 1;
                        out.changed_nodes += changed as u64;
                        Sweep::Recharge(charge_of(&entry.sigma))
                    }
                }
            });
            out.dropped += dropped;
        }
        out
    }

    /// Growth events of the repairing sweep's graph-sized scratch (see
    /// [`SigmaRepair::allocation_count`]): constant once a sweep has seen
    /// the graph.
    pub fn repair_allocation_count(&self) -> u64 {
        self.repair.lock().allocation_count()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in self.shards.iter() {
            stats.merge(&shard.lock().stats());
        }
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
        // Single shard so the LRU order is globally observable.
        let g = graph();
        let c = ProximityCache::with_shards(2, 1);
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
    fn reinsert_refreshes_instead_of_duplicating() {
        let g = graph();
        let c = ProximityCache::with_shards(4, 1);
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
        let c = ProximityCache::with_byte_budget(3 * per_entry, 1, CachePolicy::default());
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
        let c = ProximityCache::with_byte_budget(8 * narrow, 1, CachePolicy::default());
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
        let dense = ProximityCache::with_byte_budget(budget, 1, CachePolicy::default());
        for u in 0..2_000 {
            dense.insert(&g, u, MODEL, dense_vec(u, 10_000)); // 80 KB each
        }
        let touched = ProximityCache::with_byte_budget(budget, 1, CachePolicy::default());
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
        let c = ProximityCache::with_byte_budget(1024, 1, CachePolicy::default());
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
        let c = ProximityCache::with_byte_budget(2 * per_entry, 1, policy);
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
        // could never fit must not flush the shard on its way out.
        let g = CsrGraph::empty(20_000);
        let per_entry = charge_of(&touched_vec(0, 4));
        let c = ProximityCache::with_byte_budget(4 * per_entry, 1, CachePolicy::default());
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
        // anywhere in the plan rejects the insert with the shard intact,
        // including the colder entries that would have been evicted first.
        let g = CsrGraph::empty(20_000);
        let policy = CachePolicy {
            admission: true,
            ttl: None,
        };
        let narrow = charge_of(&touched_vec(0, 4));
        let c = ProximityCache::with_byte_budget(3 * narrow, 1, policy);
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
        let c = ProximityCache::with_byte_budget(6 * narrow, 1, CachePolicy::default());
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
            "refresh left shard over budget"
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
        // room-making on insert, a widening refresh and a repairing sweep
        // share one eviction routine.
        let g = CsrGraph::empty(20_000);
        let narrow = charge_of(&touched_vec(0, 4));
        let policy = CachePolicy {
            admission: false,
            ttl: Some(Duration::from_millis(20)),
        };
        let c = ProximityCache::with_byte_budget(4 * narrow, 1, policy);
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
        let c = ProximityCache::with_byte_budget(1 << 20, 1, CachePolicy::default());
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
        let c = ProximityCache::with_byte_budget(2 * per_entry, 1, policy);
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
        let c = ProximityCache::with_byte_budget(8 * narrow, 1, policy);
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
        // and distinct bounds never see each other's entries. One shard:
        // both entries must co-reside whatever shards their keys hash to.
        let g = graph();
        let c = ProximityCache::with_shards(8, 1);
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

    #[test]
    fn repair_leaves_recency_and_age_alone() {
        use crate::proximity::SigmaWorkspace;
        use friends_graph::GraphBuilder;
        // Two components; the sweep reaches seeker 0's only.
        let g = GraphBuilder::from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        let model = ProximityModel::WeightedDecay { alpha: 0.5 };
        let cold = |g: &CsrGraph, seeker| {
            let mut ws = SigmaWorkspace::new();
            model.materialize_into(g, seeker, &mut ws);
            Arc::new(ws.snapshot(g.num_nodes()))
        };
        let next = g.with_edits(&[(0, 2, 1.0)], &[]);
        let edit = EdgeEdit {
            u: 0,
            v: 2,
            old: None,
            new: Some(1.0),
        };
        let repaired_one = SigmaSweep {
            repaired: 1,
            changed_nodes: 1,
            ..SigmaSweep::default()
        };

        let c = ProximityCache::with_limits(2, usize::MAX, 1, CachePolicy::default());
        c.insert(&g, 0, model, cold(&g, 0)); // older
        c.insert(&g, 3, model, cold(&g, 3)); // newer
        assert_eq!(c.repair_affected(&next, &[edit]), repaired_one);
        assert_eq!(c.stats().bytes, c.memory_bytes());
        // Repaired, not refreshed: seeker 0's entry is still the LRU victim.
        c.insert(&next, 4, model, cold(&next, 4));
        assert!(c.get(&next, 0, model).is_none(), "a repair bumped recency");
        assert!(c.get(&next, 3, model).is_some());

        // A repaired entry still ages out on its insertion clock: 200 ms
        // before the repair and 200 ms after it outlive a 300 ms TTL.
        let policy = CachePolicy {
            admission: false,
            ttl: Some(Duration::from_millis(300)),
        };
        let c = ProximityCache::with_limits(2, usize::MAX, 1, policy);
        c.insert(&g, 0, model, cold(&g, 0));
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(c.repair_affected(&next, &[edit]), repaired_one);
        std::thread::sleep(Duration::from_millis(200));
        assert!(c.get(&next, 0, model).is_none(), "a repair reset the age");
        assert_eq!(c.stats().expirations, 1);
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
