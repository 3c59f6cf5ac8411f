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
//! Submitting threads probe it under its mutex — a hit is answered right
//! there, without a queue hop — and only the shard's worker inserts or
//! sweeps, at its batch boundaries. Because `apply_mutations` acks only
//! after every shard has swept, a probe answers from exactly one epoch, and
//! a probe that starts after the ack never sees a swept ranking.
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
use friends_core::proximity::{ProximityModel, SigmaBounds};
use friends_data::queries::Query;
use friends_data::ItemId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The memoization key: the query, the model's exact parameter bits, the
/// strategy hint, the processor override and the *effective* σ-bounds bits
/// the execution ran under. Identical to the broker's coalescing key —
/// whatever would have coalesced in flight hits here across cycles. Keying
/// on bounds is a soundness requirement, not an optimization: a degraded
/// ranking must never be served for an exact request (nor for a
/// differently-bounded one).
///
/// The key is hashed once, when it is built: the cache's map, its
/// admission sketch and the broker's group map all read that one value.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ResultKey {
    /// SipHash of the fields below; first, so unequal keys differ fast.
    hash: u64,
    query: Query,
    model: (u8, u64, u64),
    strategy: ScoringStrategy,
    processor: Option<&'static str>,
    bounds: (u32, u64),
}

impl ResultKey {
    pub fn new(
        query: Query,
        model: ProximityModel,
        strategy: ScoringStrategy,
        processor: Option<&'static str>,
        bounds: SigmaBounds,
    ) -> Self {
        let (model, bounds) = (model.key_bits(), bounds.key_bits());
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (&query, model, strategy, processor, bounds).hash(&mut h);
        ResultKey {
            hash: h.finish(),
            query,
            model,
            strategy,
            processor,
            bounds,
        }
    }

    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Hands the query back (a key built for a probe that missed).
    pub fn into_query(self) -> Query {
        self.query
    }

    pub fn strategy(&self) -> ScoringStrategy {
        self.strategy
    }

    pub fn processor(&self) -> Option<&'static str> {
        self.processor
    }

    /// The effective σ bounds, rebuilt from their key bits.
    pub fn bounds(&self) -> SigmaBounds {
        SigmaBounds {
            max_radius: self.bounds.0,
            min_mass: f64::from_bits(self.bounds.1),
        }
    }
}

impl Hash for ResultKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The hasher of maps keyed by [`ResultKey`]: the key already carries its
/// hash, so hashing it is a copy.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a ResultKey hashes as one precomputed u64")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A map keyed by [`ResultKey`] (or an `Arc` of one).
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// A cached ranking plus the residual certificate its execution reported.
pub(crate) type CachedRanking = (Arc<Vec<(ItemId, f32)>>, f64);

/// "No neighbour" in the recency list.
const NIL: usize = usize::MAX;

struct Slot {
    /// Shared with the map: a recency bump never touches the key.
    key: Arc<ResultKey>,
    items: Arc<Vec<(ItemId, f32)>>,
    /// The original execution's score-space residual certificate — replayed
    /// verbatim on every hit (0.0 for exact entries).
    residual: f64,
    epoch: u64,
    inserted_at: Instant,
    /// Neighbours in the recency list (`NIL` at either end).
    older: usize,
    newer: usize,
}

struct Inner {
    /// Key → index into `slots`.
    map: KeyMap<Arc<ResultKey>, usize>,
    /// The entries, densely packed and threaded oldest → newest by a
    /// doubly linked recency list, so a bump is pointer work: no
    /// allocation, no key clone.
    slots: Vec<Slot>,
    /// Ends of the recency list: the eviction victim and the latest use.
    oldest: usize,
    newest: usize,
    /// Approximate resident bytes of the memoized rankings.
    bytes: usize,
    /// Present iff the policy enables admission.
    sketch: Option<FreqSketch>,
}

impl Inner {
    fn unlink(&mut self, i: usize) {
        let (older, newer) = (self.slots[i].older, self.slots[i].newer);
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
    }

    fn push_newest(&mut self, i: usize) {
        self.slots[i].older = self.newest;
        self.slots[i].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n].newer = i,
        }
        self.newest = i;
    }

    /// Marks slot `i` as the most recently used.
    fn touch(&mut self, i: usize) {
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
    }

    /// Drops slot `i`. The last slot moves into its place, so indices
    /// above `i` are invalidated; indices below it stay put.
    fn remove(&mut self, i: usize) {
        self.unlink(i);
        let slot = self.slots.swap_remove(i);
        self.map.remove(&*slot.key);
        self.bytes -= charge_of(&slot.items);
        if i < self.slots.len() {
            let (older, newer) = (self.slots[i].older, self.slots[i].newer);
            match older {
                NIL => self.oldest = i,
                o => self.slots[o].newer = i,
            }
            match newer {
                NIL => self.newest = i,
                n => self.slots[n].older = i,
            }
            *self
                .map
                .get_mut(&*self.slots[i].key)
                .expect("every slot is indexed") = i;
        }
    }
}

/// Approximate byte charge of one memoized ranking (entries + bookkeeping),
/// mirroring the proximity cache's accounting so `CacheStats::bytes` means
/// the same thing in both.
fn charge_of(items: &[(ItemId, f32)]) -> usize {
    std::mem::size_of_val(items) + 96
}

/// A per-shard LRU of query rankings with TinyLFU admission, TTL expiry and
/// epoch invalidation. Mirrors the structure of
/// [`friends_core::cache::ProximityCache`] but stores *answers* instead of
/// σ vectors. Submitting threads probe it under its mutex; only the shard's
/// worker inserts or sweeps. Counters are shared atomics so the service
/// handle can snapshot them while the worker runs.
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
                map: KeyMap::default(),
                slots: Vec::new(),
                oldest: NIL,
                newest: NIL,
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
        let mut inner = self.inner.lock();
        let doomed: Vec<usize> = (0..inner.slots.len())
            .filter(|&i| {
                let key = &inner.slots[i].key;
                let sigma_dependent = key.model != ProximityModel::Global.key_bits();
                (sigma_dependent && seekers.binary_search(&key.query.seeker).is_ok())
                    || key.query.tags.iter().any(|t| tags.binary_search(t).is_ok())
            })
            .collect();
        // Highest index first: each removal only moves a slot from above
        // it, which is never a doomed one still to come.
        for &i in doomed.iter().rev() {
            inner.remove(i);
        }
        let dropped = doomed.len() as u64;
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

    /// Probes for a request's ranking and residual certificate, refreshing
    /// its recency. The probe is what the admission sketch and the
    /// hit/miss counters record — once per request. Stale entries (older
    /// epoch, or past the TTL) are dropped and reported as a miss plus an
    /// expiration.
    pub(crate) fn get(&self, key: &ResultKey) -> Option<CachedRanking> {
        self.lookup(key, true)
    }

    /// [`ResultCache::get`] for a request that was already probed: the
    /// worker's re-check before executing a miss (another cycle may have
    /// inserted the ranking while the request was queued). Records nothing
    /// in the sketch or the hit/miss counters.
    pub(crate) fn recheck(&self, key: &ResultKey) -> Option<CachedRanking> {
        self.lookup(key, false)
    }

    fn lookup(&self, key: &ResultKey, probe: bool) -> Option<CachedRanking> {
        let epoch = self.epoch();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if probe {
            if let Some(sketch) = inner.sketch.as_mut() {
                sketch.record(key.hash);
            }
        }
        let mut hit = inner.map.get(key).copied();
        if let Some(i) = hit {
            if self.slot_dead(&inner.slots[i], epoch) {
                inner.remove(i);
                self.expirations.fetch_add(1, Ordering::Relaxed);
                hit = None;
            }
        }
        if probe {
            let counter = if hit.is_some() {
                &self.hits
            } else {
                &self.misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let i = hit?;
        inner.touch(i);
        let slot = &inner.slots[i];
        Some((Arc::clone(&slot.items), slot.residual))
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
    ///
    /// Hands the key back, shared with the map when it was stored.
    pub(crate) fn insert(
        &self,
        key: ResultKey,
        items: Arc<Vec<(ItemId, f32)>>,
        residual: f64,
        computed_epoch: u64,
    ) -> Arc<ResultKey> {
        let epoch = self.epoch();
        if epoch != computed_epoch {
            return Arc::new(key);
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(&i) = inner.map.get(&key) {
            inner.bytes = inner.bytes - charge_of(&inner.slots[i].items) + charge_of(&items);
            let slot = &mut inner.slots[i];
            slot.items = items;
            slot.residual = residual;
            slot.epoch = epoch;
            slot.inserted_at = Instant::now();
            inner.touch(i);
            return Arc::clone(&inner.slots[i].key);
        }
        if inner.slots.len() >= self.capacity {
            let victim = inner.oldest;
            let victim_dead = self.slot_dead(&inner.slots[victim], epoch);
            if !victim_dead {
                if let Some(sketch) = inner.sketch.as_ref() {
                    if sketch.estimate(key.hash) <= sketch.estimate(inner.slots[victim].key.hash) {
                        self.rejections.fetch_add(1, Ordering::Relaxed);
                        return Arc::new(key);
                    }
                }
            }
            inner.remove(victim);
            let counter = if victim_dead {
                &self.expirations
            } else {
                &self.evictions
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let key = Arc::new(key);
        let i = inner.slots.len();
        inner.map.insert(Arc::clone(&key), i);
        inner.bytes += charge_of(&items);
        inner.slots.push(Slot {
            key: Arc::clone(&key),
            items,
            residual,
            epoch,
            inserted_at: Instant::now(),
            older: NIL,
            newer: NIL,
        });
        inner.push_newest(i);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        key
    }

    /// Number of cached rankings (dead entries included until reaped).
    pub fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters, in the same shape as the proximity cache's.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let inner = self.inner.lock();
            (inner.slots.len(), inner.bytes)
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

    /// A key under explicit model, strategy and bounds.
    fn key_with(
        seeker: u32,
        tag: u32,
        model: ProximityModel,
        strategy: ScoringStrategy,
        bounds: SigmaBounds,
    ) -> ResultKey {
        let query = Query {
            seeker,
            tags: vec![tag],
            k: 5,
        };
        ResultKey::new(query, model, strategy, None, bounds)
    }

    fn key(seeker: u32, tag: u32) -> ResultKey {
        key_with(
            seeker,
            tag,
            ProximityModel::FriendsOnly,
            ScoringStrategy::Auto,
            SigmaBounds::EXACT,
        )
    }

    fn global(seeker: u32, tag: u32) -> ResultKey {
        key_with(
            seeker,
            tag,
            ProximityModel::Global,
            ScoringStrategy::Auto,
            SigmaBounds::EXACT,
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
    fn a_recheck_serves_without_counting() {
        // The worker re-checks requests the submit-side probe already
        // counted: neither its hit nor its miss may count a second time.
        let c = ResultCache::new(8, POLICY);
        assert!(c.recheck(&key(1, 0)).is_none());
        c.insert(key(1, 0), ranking(7), 0.0, c.epoch());
        assert_eq!(c.recheck(&key(1, 0)).expect("hit").0[0].0, 7);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 1));
    }

    #[test]
    fn strategy_and_model_are_part_of_the_key() {
        let c = ResultCache::new(8, POLICY);
        c.insert(key(1, 0), ranking(7), 0.0, c.epoch());
        let other = key_with(
            1,
            0,
            ProximityModel::FriendsOnly,
            ScoringStrategy::BlockMax,
            SigmaBounds::EXACT,
        );
        assert!(c.get(&other).is_none(), "strategy must not alias");
        let other = key_with(
            1,
            0,
            ProximityModel::AdamicAdar,
            ScoringStrategy::Auto,
            SigmaBounds::EXACT,
        );
        assert!(c.get(&other).is_none(), "model must not alias");
    }

    #[test]
    fn bounds_are_part_of_the_key() {
        // A degraded ranking must never answer an exact request (or one
        // with different bounds), and its residual certificate replays.
        let c = ResultCache::new(8, POLICY);
        let degraded = || {
            key_with(
                1,
                0,
                ProximityModel::FriendsOnly,
                ScoringStrategy::Auto,
                SigmaBounds::with_radius(2),
            )
        };
        c.insert(degraded(), ranking(7), 0.25, c.epoch());
        assert!(c.get(&key(1, 0)).is_none(), "bounds must not alias");
        let (_, residual) = c.get(&degraded()).expect("hit");
        assert_eq!(residual, 0.25);
        assert_eq!(degraded().bounds(), SigmaBounds::with_radius(2));
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
    fn recency_survives_removals_from_the_middle() {
        // Sweeps remove slots anywhere in the list (the last slot moves
        // into the hole); eviction must still follow least-recent use.
        let c = ResultCache::new(4, POLICY);
        for u in 1..=4 {
            c.insert(key(u, u), ranking(u), 0.0, c.epoch());
        }
        assert!(c.get(&key(1, 1)).is_some()); // recency: 2 3 4 1
        assert_eq!(c.invalidate_partial(&[3], &[2]), 2); // recency: 4 1
        c.insert(key(5, 5), ranking(5), 0.0, c.epoch());
        c.insert(key(6, 6), ranking(6), 0.0, c.epoch()); // full: 4 1 5 6
        assert!(c.get(&key(4, 4)).is_some()); // recency: 1 5 6 4
        c.insert(key(7, 7), ranking(7), 0.0, c.epoch()); // evicts 1
        c.insert(key(8, 8), ranking(8), 0.0, c.epoch()); // evicts 5
        for (u, resident) in [(1, false), (5, false), (6, true), (4, true), (7, true)] {
            assert_eq!(c.get(&key(u, u)).is_some(), resident, "seeker {u}");
        }
        let s = c.stats();
        assert_eq!((s.entries, s.evictions), (4, 2));
        assert_eq!(s.bytes, 4 * charge_of(&ranking(0)));
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
        c.insert(global(1, 0), ranking(1), 0.0, c.epoch());
        c.insert(key(2, 5), ranking(2), 0.0, c.epoch());
        let dropped = c.invalidate_partial(&[], &[0]);
        assert_eq!(dropped, 1);
        assert!(
            c.get(&global(1, 0)).is_none(),
            "touched tag must sweep Global"
        );
        assert!(c.get(&key(2, 5)).is_some(), "untouched tag swept");
    }

    #[test]
    fn partial_invalidation_skips_global_for_edge_only_batches() {
        // An edge mutation cannot move σ ≡ 1: Global entries survive even
        // when their seeker is in the affected set; every other model's
        // entries for that seeker are swept.
        let c = ResultCache::new(8, POLICY);
        c.insert(global(1, 0), ranking(1), 0.0, c.epoch());
        c.insert(key(1, 1), ranking(2), 0.0, c.epoch());
        let dropped = c.invalidate_partial(&[1], &[]);
        assert_eq!(dropped, 1);
        assert!(
            c.get(&global(1, 0)).is_some(),
            "Global is graph-independent"
        );
        assert!(
            c.get(&key(1, 1)).is_none(),
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
