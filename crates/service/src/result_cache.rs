//! Cross-request result memoization.
//!
//! The broker's coalescer only merges duplicate requests that are in
//! flight *together*; over an immutable corpus, a repeat query arriving in
//! a later dispatch cycle pays full execution again. This cache closes
//! that gap: a small per-shard `(query, model, strategy) → ranking` map
//! with the same TinyLFU admission policy as the proximity cache (reusing
//! [`CachePolicy`] and [`FreqSketch`]), so one-shot queries cannot wash a
//! shard's hot repeat set out of a small cache.
//!
//! Invalidation comes in two granularities:
//!
//! * **Full stamp** — [`ResultCache::invalidate`] bumps the epoch; stale
//!   entries are dropped lazily on access (counted as expirations). The
//!   blunt fallback when the blast radius of a write is unknown.
//! * **Partial** — [`ResultCache::invalidate_partial`] eagerly sweeps only
//!   the entries a mutation batch can actually change: per-seeker (the
//!   seeker's σ vector may cross a new/removed edge — see
//!   `friends_core::live`) and per-tag (the batch appended postings under
//!   one of the query's tags). Everything else keeps serving hits.
//!
//! The optional [`CachePolicy::ttl`] bounds staleness in wall-clock time
//! as well.
//!
//! Rankings are memoized, not statistics: a cached reply carries the exact
//! `(item, score)` list of the original execution (byte-identical — the
//! corpus is immutable within an epoch) and empty [`QueryStats`], because
//! no scoring work was performed.
//!
//! [`QueryStats`]: friends_core::corpus::QueryStats

use friends_core::cache::{CachePolicy, CacheStats, FreqSketch};
use friends_core::processors::ScoringStrategy;
use friends_core::proximity::ProximityModel;
use friends_data::queries::Query;
use friends_data::ItemId;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The memoization key: the query, the model's exact parameter bits, the
/// strategy hint, the processor override and the *effective* σ-bounds bits the execution
/// ran under. Identical to the broker's coalescing key — whatever would
/// have coalesced in flight hits here across cycles. Keying on bounds is a
/// soundness requirement, not an optimization: a degraded ranking must
/// never be served for an exact request (nor for a differently-bounded
/// one).
pub(crate) type ResultKey = (
    Query,
    (u8, u64, u64),
    ScoringStrategy,
    Option<&'static str>,
    (u32, u64),
);

/// A cached ranking plus the residual certificate its execution reported.
pub(crate) type CachedRanking = (Arc<Vec<(ItemId, f32)>>, f64);

fn hash_key(key: &ResultKey) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

struct Slot {
    items: Arc<Vec<(ItemId, f32)>>,
    /// The original execution's score-space residual certificate — replayed
    /// verbatim on every hit (0.0 for exact entries).
    residual: f64,
    /// Recency stamp; also the key into the recency index.
    stamp: u64,
    epoch: u64,
    inserted_at: Instant,
}

struct Inner {
    map: HashMap<ResultKey, Slot>,
    /// stamp → key, oldest first: the eviction order.
    recency: BTreeMap<u64, ResultKey>,
    tick: u64,
    /// Approximate resident bytes of the memoized rankings.
    bytes: usize,
    /// Present iff the policy enables admission.
    sketch: Option<FreqSketch>,
}

/// Approximate byte charge of one memoized ranking (entries + bookkeeping),
/// mirroring the proximity cache's accounting so `CacheStats::bytes` means
/// the same thing in both.
fn charge_of(items: &[(ItemId, f32)]) -> usize {
    std::mem::size_of_val(items) + 96
}

/// A single-owner (per-shard) LRU of query rankings with TinyLFU admission,
/// TTL expiry and epoch invalidation. Mirrors the structure of
/// [`friends_core::cache::ProximityCache`] but stores *answers* instead of
/// σ vectors. Counters are shared atomics so the service handle can
/// snapshot them while the owning worker runs.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    policy: CachePolicy,
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    rejections: AtomicU64,
    expirations: AtomicU64,
    invalidated: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` rankings (minimum 1).
    pub fn new(capacity: usize, policy: CachePolicy) -> Self {
        let capacity = capacity.max(1);
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
                bytes: 0,
                sketch: policy.admission.then(|| FreqSketch::new(capacity)),
            }),
            capacity,
            policy,
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// The current corpus epoch. Entries from earlier epochs are dead.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Bumps the epoch, logically dropping every cached ranking at once
    /// (entries are reaped lazily on access). Call when the corpus mutates.
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Eagerly drops only the rankings a mutation batch can change:
    /// entries whose seeker is in `seekers` (sorted) under a σ-dependent
    /// model, plus entries whose query mentions a tag in `tags` (sorted).
    ///
    /// Seeker matching skips the `Global` model (`σ ≡ 1` is
    /// graph-independent). Tag matching is model-blind: appended postings
    /// change every ranking that reads that tag. Returns the number of
    /// entries dropped.
    pub fn invalidate_partial(&self, seekers: &[u32], tags: &[u32]) -> u64 {
        if seekers.is_empty() && tags.is_empty() {
            return 0;
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let doomed: Vec<(ResultKey, u64)> = inner
            .map
            .iter()
            .filter(|(key, _)| {
                let sigma_dependent = key.1 != ProximityModel::Global.key_bits();
                (sigma_dependent && seekers.binary_search(&key.0.seeker).is_ok())
                    || key.0.tags.iter().any(|t| tags.binary_search(t).is_ok())
            })
            .map(|(key, slot)| (key.clone(), slot.stamp))
            .collect();
        let dropped = doomed.len() as u64;
        for (key, stamp) in doomed {
            if let Some(slot) = inner.map.remove(&key) {
                inner.bytes -= charge_of(&slot.items);
            }
            inner.recency.remove(&stamp);
        }
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    fn slot_dead(&self, slot: &Slot, epoch: u64) -> bool {
        slot.epoch != epoch
            || self
                .policy
                .ttl
                .is_some_and(|ttl| slot.inserted_at.elapsed() > ttl)
    }

    /// Looks up a ranking and its residual certificate, refreshing its
    /// recency. Stale entries (older epoch, or past the TTL) are dropped
    /// and reported as a miss plus an expiration.
    pub(crate) fn get(&self, key: &ResultKey) -> Option<CachedRanking> {
        let epoch = self.epoch();
        let hash = hash_key(key);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(sketch) = inner.sketch.as_mut() {
            sketch.record(hash);
        }
        if let Some(slot) = inner.map.get_mut(key) {
            if self.slot_dead(slot, epoch) {
                let stamp = slot.stamp;
                if let Some(slot) = inner.map.remove(key) {
                    inner.bytes -= charge_of(&slot.items);
                }
                inner.recency.remove(&stamp);
                self.expirations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            inner.tick += 1;
            inner.recency.remove(&slot.stamp);
            slot.stamp = inner.tick;
            inner.recency.insert(inner.tick, key.clone());
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some((Arc::clone(&slot.items), slot.residual))
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Inserts (or refreshes) a ranking, evicting the LRU entry when full —
    /// unless the admission sketch finds the new key colder than the
    /// victim, in which case the insert is rejected. Dead victims (older
    /// epoch or expired TTL) are unconditionally evictable.
    ///
    /// `computed_epoch` is the epoch read *when the miss was observed*,
    /// before the ranking was computed. If [`ResultCache::invalidate`]
    /// landed in between, the ranking was derived from pre-invalidation
    /// state and the insert is silently dropped — stamping it with the new
    /// epoch would serve a stale answer as fresh forever.
    pub(crate) fn insert(
        &self,
        key: ResultKey,
        items: Arc<Vec<(ItemId, f32)>>,
        residual: f64,
        computed_epoch: u64,
    ) {
        let epoch = self.epoch();
        if epoch != computed_epoch {
            return;
        }
        let hash = hash_key(&key);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(slot) = inner.map.get_mut(&key) {
            inner.bytes = inner.bytes - charge_of(&slot.items) + charge_of(&items);
            slot.items = items;
            slot.residual = residual;
            slot.epoch = epoch;
            slot.inserted_at = Instant::now();
            inner.tick += 1;
            inner.recency.remove(&slot.stamp);
            slot.stamp = inner.tick;
            inner.recency.insert(inner.tick, key);
            return;
        }
        if inner.map.len() >= self.capacity {
            let victim = inner
                .recency
                .iter()
                .next()
                .map(|(&stamp, k)| (stamp, k.clone()));
            if let Some((oldest, victim_key)) = victim {
                let victim_dead = inner
                    .map
                    .get(&victim_key)
                    .is_some_and(|s| self.slot_dead(s, epoch));
                if !victim_dead {
                    if let Some(sketch) = inner.sketch.as_ref() {
                        if sketch.estimate(hash) <= sketch.estimate(hash_key(&victim_key)) {
                            self.rejections.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
                inner.recency.remove(&oldest);
                if let Some(slot) = inner.map.remove(&victim_key) {
                    inner.bytes -= charge_of(&slot.items);
                }
                if victim_dead {
                    self.expirations.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        inner.tick += 1;
        let stamp = inner.tick;
        inner.recency.insert(stamp, key.clone());
        inner.bytes += charge_of(&items);
        inner.map.insert(
            key,
            Slot {
                items,
                residual,
                stamp,
                epoch,
                inserted_at: Instant::now(),
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of cached rankings (dead entries included until reaped).
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters, in the same shape as the proximity cache's.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let inner = self.inner.lock();
            (inner.map.len(), inner.bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use friends_core::proximity::SigmaBounds;

    fn key(seeker: u32, tag: u32) -> ResultKey {
        (
            Query {
                seeker,
                tags: vec![tag],
                k: 5,
            },
            ProximityModel::FriendsOnly.key_bits(),
            ScoringStrategy::Auto,
            None,
            SigmaBounds::EXACT.key_bits(),
        )
    }

    fn ranking(item: u32) -> Arc<Vec<(ItemId, f32)>> {
        Arc::new(vec![(item, 1.0)])
    }

    const POLICY: CachePolicy = CachePolicy {
        admission: false,
        ttl: None,
    };

    #[test]
    fn get_after_insert_hits() {
        let c = ResultCache::new(8, POLICY);
        assert!(c.get(&key(1, 0)).is_none());
        c.insert(key(1, 0), ranking(7), 0.0, c.epoch());
        let (v, residual) = c.get(&key(1, 0)).expect("hit");
        assert_eq!(v[0].0, 7);
        assert_eq!(residual, 0.0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn strategy_and_model_are_part_of_the_key() {
        let c = ResultCache::new(8, POLICY);
        c.insert(key(1, 0), ranking(7), 0.0, c.epoch());
        let mut other = key(1, 0);
        other.2 = ScoringStrategy::BlockMax;
        assert!(c.get(&other).is_none(), "strategy must not alias");
        let mut other = key(1, 0);
        other.1 = ProximityModel::AdamicAdar.key_bits();
        assert!(c.get(&other).is_none(), "model must not alias");
    }

    #[test]
    fn bounds_are_part_of_the_key() {
        // A degraded ranking must never answer an exact request (or one
        // with different bounds), and its residual certificate replays.
        let c = ResultCache::new(8, POLICY);
        let mut degraded = key(1, 0);
        degraded.4 = SigmaBounds::with_radius(2).key_bits();
        c.insert(degraded.clone(), ranking(7), 0.25, c.epoch());
        assert!(c.get(&key(1, 0)).is_none(), "bounds must not alias");
        let (_, residual) = c.get(&degraded).expect("hit");
        assert_eq!(residual, 0.25);
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = ResultCache::new(2, POLICY);
        c.insert(key(1, 0), ranking(1), 0.0, c.epoch());
        c.insert(key(2, 0), ranking(2), 0.0, c.epoch());
        assert!(c.get(&key(1, 0)).is_some()); // refresh 1 → 2 is oldest
        c.insert(key(3, 0), ranking(3), 0.0, c.epoch());
        assert!(c.get(&key(2, 0)).is_none(), "LRU entry must be evicted");
        assert!(c.get(&key(1, 0)).is_some());
        assert!(c.get(&key(3, 0)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn admission_rejects_cold_keys() {
        let c = ResultCache::new(
            2,
            CachePolicy {
                admission: true,
                ttl: None,
            },
        );
        for _ in 0..6 {
            let _ = c.get(&key(1, 0)); // make residents hot
            let _ = c.get(&key(2, 0));
        }
        c.insert(key(1, 0), ranking(1), 0.0, c.epoch());
        c.insert(key(2, 0), ranking(2), 0.0, c.epoch());
        for u in 10..30 {
            let _ = c.get(&key(u, 0));
            c.insert(key(u, 0), ranking(u), 0.0, c.epoch());
        }
        assert!(c.get(&key(1, 0)).is_some(), "hot entry evicted");
        assert!(c.get(&key(2, 0)).is_some(), "hot entry evicted");
        let s = c.stats();
        assert!(s.rejections > 0, "{s:?}");
        assert_eq!(s.evictions, 0, "{s:?}");
    }

    #[test]
    fn epoch_invalidation_drops_entries_lazily() {
        let c = ResultCache::new(8, POLICY);
        c.insert(key(1, 0), ranking(1), 0.0, c.epoch());
        assert!(c.get(&key(1, 0)).is_some());
        c.invalidate();
        assert_eq!(c.epoch(), 1);
        assert!(c.get(&key(1, 0)).is_none(), "stale epoch must miss");
        let s = c.stats();
        assert_eq!(s.expirations, 1);
        assert_eq!(s.entries, 0, "stale entry reaped on access");
        // Fresh insert under the new epoch serves again.
        c.insert(key(1, 0), ranking(2), 0.0, c.epoch());
        assert_eq!(c.get(&key(1, 0)).expect("hit").0[0].0, 2);
    }

    #[test]
    fn inserts_computed_before_an_invalidation_are_dropped() {
        // The mid-execution race: a miss is observed at epoch 0, the
        // ranking is computed, invalidate() lands, and only then does the
        // insert arrive. Stamping it with the new epoch would serve the
        // stale ranking as fresh forever — it must be dropped instead.
        let c = ResultCache::new(8, POLICY);
        let observed = c.epoch();
        assert!(c.get(&key(1, 0)).is_none()); // the miss
        c.invalidate(); // corpus mutates while the worker computes
        c.insert(key(1, 0), ranking(7), 0.0, observed);
        assert!(
            c.get(&key(1, 0)).is_none(),
            "pre-invalidation ranking must not be cached: {:?}",
            c.stats()
        );
        assert_eq!(c.stats().insertions, 0);
        // An insert computed under the current epoch still lands.
        c.insert(key(1, 0), ranking(8), 0.0, c.epoch());
        assert_eq!(c.get(&key(1, 0)).expect("hit").0[0].0, 8);
    }

    #[test]
    fn stale_victims_cannot_block_admission() {
        let c = ResultCache::new(
            1,
            CachePolicy {
                admission: true,
                ttl: None,
            },
        );
        for _ in 0..8 {
            let _ = c.get(&key(1, 0)); // very hot resident
        }
        c.insert(key(1, 0), ranking(1), 0.0, c.epoch());
        c.invalidate(); // resident is now dead, however hot its sketch
        let _ = c.get(&key(2, 0));
        c.insert(key(2, 0), ranking(2), 0.0, c.epoch());
        assert!(
            c.get(&key(2, 0)).is_some(),
            "fresh insert blocked by a dead resident: {:?}",
            c.stats()
        );
    }

    #[test]
    fn partial_invalidation_is_per_seeker() {
        let c = ResultCache::new(8, POLICY);
        c.insert(key(1, 0), ranking(1), 0.0, c.epoch());
        c.insert(key(2, 0), ranking(2), 0.0, c.epoch());
        c.insert(key(3, 0), ranking(3), 0.0, c.epoch());
        let dropped = c.invalidate_partial(&[2], &[]);
        assert_eq!(dropped, 1);
        assert!(c.get(&key(1, 0)).is_some(), "unaffected seeker swept");
        assert!(c.get(&key(2, 0)).is_none(), "affected seeker survived");
        assert!(c.get(&key(3, 0)).is_some(), "unaffected seeker swept");
        assert_eq!(c.stats().invalidated, 1);
    }

    #[test]
    fn partial_invalidation_is_per_tag_and_model_blind() {
        // Tag appends change the postings themselves, so even Global-model
        // entries reading that tag must go; other tags survive.
        let c = ResultCache::new(8, POLICY);
        let mut global = key(1, 0);
        global.1 = ProximityModel::Global.key_bits();
        c.insert(global.clone(), ranking(1), 0.0, c.epoch());
        c.insert(key(2, 5), ranking(2), 0.0, c.epoch());
        let dropped = c.invalidate_partial(&[], &[0]);
        assert_eq!(dropped, 1);
        assert!(c.get(&global).is_none(), "touched tag must sweep Global");
        assert!(c.get(&key(2, 5)).is_some(), "untouched tag swept");
    }

    #[test]
    fn partial_invalidation_skips_global_for_edge_only_batches() {
        // An edge mutation cannot move σ ≡ 1: Global entries survive even
        // when their seeker is in the affected set; every other model's
        // entries for that seeker are swept.
        let c = ResultCache::new(8, POLICY);
        let mut global = key(1, 0);
        global.1 = ProximityModel::Global.key_bits();
        let personalized = key(1, 1);
        c.insert(global.clone(), ranking(1), 0.0, c.epoch());
        c.insert(personalized.clone(), ranking(2), 0.0, c.epoch());
        let dropped = c.invalidate_partial(&[1], &[]);
        assert_eq!(dropped, 1);
        assert!(c.get(&global).is_some(), "Global is graph-independent");
        assert!(
            c.get(&personalized).is_none(),
            "σ-dependent entry must be swept"
        );
    }

    #[test]
    fn ttl_expires_entries() {
        let c = ResultCache::new(
            8,
            CachePolicy {
                admission: false,
                ttl: Some(std::time::Duration::from_millis(15)),
            },
        );
        c.insert(key(1, 0), ranking(1), 0.0, c.epoch());
        assert!(c.get(&key(1, 0)).is_some());
        std::thread::sleep(std::time::Duration::from_millis(25));
        assert!(c.get(&key(1, 0)).is_none(), "stale entry must expire");
        assert_eq!(c.stats().expirations, 1);
    }
}
