//! Cross-request result memoization.
//!
//! The broker's coalescer only merges duplicate requests that are in
//! flight *together*; over an immutable corpus, a repeat query arriving in
//! a later dispatch cycle pays full execution again. This cache closes
//! that gap: a small per-shard `(query, model, strategy) → ranking` map on
//! the same engine as the proximity cache ([`AdmissionLru`], with its
//! TinyLFU admission under the same [`CachePolicy`]), so one-shot queries
//! cannot wash a shard's hot repeat set out of a small cache.
//!
//! Submitting threads probe it under its mutex — a hit is answered right
//! there, without a queue hop — and only the shard's worker inserts or
//! sweeps, at its batch boundaries. Because `apply_mutations` acks only
//! after every shard has swept, a probe answers from exactly one epoch, and
//! a probe that starts after the ack never sees a swept ranking.
//!
//! Invalidation is **partial**: [`ResultCache::invalidate`] eagerly sweeps
//! the entries a mutation batch can change — every σ-dependent ranking
//! when the batch edited an edge (σ may cross a new or removed edge; see
//! `friends_core::live`), and every ranking whose query names a tag the
//! batch appended postings under. `Global` rankings of untouched tags, and
//! everything after a batch that changed neither, keep serving hits. The
//! broker sets no [`CachePolicy::ttl`]: the sweeps alone keep entries
//! current.
//!
//! Rankings are memoized, not statistics: a cached reply carries the exact
//! `(item, score)` list of the original execution (byte-identical — the
//! corpus is immutable within an epoch) and empty [`QueryStats`], because
//! no scoring work was performed.
//!
//! [`QueryStats`]: friends_core::corpus::QueryStats

use friends_core::cache::{AdmissionLru, CachePolicy, CacheStats};
use friends_core::processors::ScoringStrategy;
use friends_core::proximity::{ProximityModel, SigmaBounds};
use friends_data::queries::Query;
use friends_data::ItemId;
use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The memoization key: the query, the model's exact parameter bits, the
/// strategy hint, the processor override and the *effective* σ-bounds bits
/// the execution ran under. Identical to the broker's coalescing key —
/// whatever would have coalesced in flight hits here across cycles. Keying
/// on bounds is a soundness requirement, not an optimization: a degraded
/// ranking must never be served for an exact request (nor for a
/// differently-bounded one).
///
/// The key is hashed once, when it is built: the cache's map, its
/// admission sketch and the broker's group map all read that one value
/// (see [`friends_core::cache::KeyHasher`]).
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

/// A cached ranking plus the residual certificate its execution reported.
pub(crate) type CachedRanking = (Arc<Vec<(ItemId, f32)>>, f64);

struct Memo {
    items: Arc<Vec<(ItemId, f32)>>,
    /// The original execution's score-space residual certificate — replayed
    /// verbatim on every hit (0.0 for exact entries).
    residual: f64,
}

/// Approximate byte charge of one memoized ranking (entries + bookkeeping),
/// mirroring the proximity cache's accounting so `CacheStats::bytes` means
/// the same thing in both.
fn charge_of(items: &[(ItemId, f32)]) -> usize {
    std::mem::size_of_val(items) + 96
}

/// A per-shard LRU of query rankings: an [`AdmissionLru`] with an entry
/// cap and no byte budget, which stores *answers* where the proximity cache
/// stores σ vectors. Submitting threads probe it under its mutex; only the
/// shard's worker inserts or sweeps.
pub(crate) struct ResultCache {
    inner: Mutex<AdmissionLru<Arc<ResultKey>, Memo>>,
}

impl ResultCache {
    /// A cache holding at most `capacity` rankings (minimum 1).
    pub fn new(capacity: usize, policy: CachePolicy) -> Self {
        ResultCache {
            inner: Mutex::new(AdmissionLru::new(capacity, usize::MAX, policy)),
        }
    }

    /// Eagerly drops the rankings a mutation batch can change: every
    /// entry under a σ-dependent model when `edges_changed`, plus every
    /// entry whose query mentions a tag in `tags` (sorted).
    ///
    /// Edge edits spare the `Global` model (`σ ≡ 1` is graph-independent).
    /// Tag matching is model-blind: appended postings change every ranking
    /// that reads that tag. Returns the number of entries dropped.
    pub fn invalidate(&self, edges_changed: bool, tags: &[u32]) -> u64 {
        if !edges_changed && tags.is_empty() {
            return 0;
        }
        let global = ProximityModel::Global.key_bits();
        self.inner.lock().retain(|key, _| {
            let sigma_hit = edges_changed && key.model != global;
            !sigma_hit && !key.query.tags.iter().any(|t| tags.binary_search(t).is_ok())
        })
    }

    /// Probes for a request's ranking and residual certificate, refreshing
    /// its recency. The probe is what the admission sketch and the
    /// hit/miss counters record — once per request.
    pub(crate) fn get(&self, key: &ResultKey) -> Option<CachedRanking> {
        let mut inner = self.inner.lock();
        let memo = inner.get(key, true)?;
        Some((Arc::clone(&memo.items), memo.residual))
    }

    /// [`ResultCache::get`] for a request that was already probed: the
    /// worker's re-check before executing a miss (another cycle may have
    /// inserted the ranking while the request was queued). Records nothing
    /// in the sketch or the hit/miss counters.
    pub(crate) fn recheck(&self, key: &ResultKey) -> Option<CachedRanking> {
        let mut inner = self.inner.lock();
        let memo = inner.get(key, false)?;
        Some((Arc::clone(&memo.items), memo.residual))
    }

    /// Inserts (or refreshes) a ranking under the eviction and admission
    /// rules of [`AdmissionLru::insert_with`]. Hands the key back, shared
    /// with the cache when it went in.
    pub(crate) fn insert(
        &self,
        key: ResultKey,
        items: Arc<Vec<(ItemId, f32)>>,
        residual: f64,
    ) -> Arc<ResultKey> {
        let key = Arc::new(key);
        let charge = charge_of(&items);
        self.inner
            .lock()
            .insert_with(Arc::clone(&key), charge, || Memo { items, residual });
        key
    }

    /// Aggregate counters, in the same shape as the proximity cache's.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
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
        c.insert(key(1, 0), ranking(7), 0.0);
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
        c.insert(key(1, 0), ranking(7), 0.0);
        assert_eq!(c.recheck(&key(1, 0)).expect("hit").0[0].0, 7);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 1));
    }

    #[test]
    fn strategy_and_model_are_part_of_the_key() {
        let c = ResultCache::new(8, POLICY);
        c.insert(key(1, 0), ranking(7), 0.0);
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
        c.insert(degraded(), ranking(7), 0.25);
        assert!(c.get(&key(1, 0)).is_none(), "bounds must not alias");
        let (_, residual) = c.get(&degraded()).expect("hit");
        assert_eq!(residual, 0.25);
        assert_eq!(degraded().bounds(), SigmaBounds::with_radius(2));
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = ResultCache::new(2, POLICY);
        c.insert(key(1, 0), ranking(1), 0.0);
        c.insert(key(2, 0), ranking(2), 0.0);
        assert!(c.get(&key(1, 0)).is_some()); // refresh 1 → 2 is oldest
        c.insert(key(3, 0), ranking(3), 0.0);
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
            c.insert(key(u, u), ranking(u), 0.0);
        }
        assert!(c.get(&key(1, 1)).is_some()); // recency: 2 3 4 1
        assert_eq!(c.invalidate(false, &[2, 3]), 2); // recency: 4 1
        c.insert(key(5, 5), ranking(5), 0.0);
        c.insert(key(6, 6), ranking(6), 0.0); // full: 4 1 5 6
        assert!(c.get(&key(4, 4)).is_some()); // recency: 1 5 6 4
        c.insert(key(7, 7), ranking(7), 0.0); // evicts 1
        c.insert(key(8, 8), ranking(8), 0.0); // evicts 5
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
        c.insert(key(1, 0), ranking(1), 0.0);
        c.insert(key(2, 0), ranking(2), 0.0);
        for u in 10..30 {
            let _ = c.get(&key(u, 0));
            c.insert(key(u, 0), ranking(u), 0.0);
        }
        assert!(c.get(&key(1, 0)).is_some(), "hot entry evicted");
        assert!(c.get(&key(2, 0)).is_some(), "hot entry evicted");
        let s = c.stats();
        assert!(s.rejections > 0, "{s:?}");
        assert_eq!(s.evictions, 0, "{s:?}");
    }

    #[test]
    fn stale_victims_cannot_block_admission() {
        let c = ResultCache::new(
            1,
            CachePolicy {
                admission: true,
                ttl: Some(std::time::Duration::from_millis(15)),
            },
        );
        for _ in 0..8 {
            let _ = c.get(&key(1, 0)); // very hot resident
        }
        c.insert(key(1, 0), ranking(1), 0.0);
        std::thread::sleep(std::time::Duration::from_millis(25));
        // The resident is now dead, however hot its sketch.
        let _ = c.get(&key(2, 0));
        c.insert(key(2, 0), ranking(2), 0.0);
        assert!(
            c.get(&key(2, 0)).is_some(),
            "fresh insert blocked by a dead resident: {:?}",
            c.stats()
        );
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn partial_invalidation_drops_nothing_without_edits_or_tags() {
        // Removing an absent edge or re-inserting one at its stored weight
        // is no edit, and a batch without appends touches no tag.
        let c = ResultCache::new(8, POLICY);
        c.insert(global(1, 0), ranking(1), 0.0);
        c.insert(key(2, 0), ranking(2), 0.0);
        assert_eq!(c.invalidate(false, &[]), 0);
        assert!(c.get(&global(1, 0)).is_some());
        assert!(c.get(&key(2, 0)).is_some());
        assert_eq!(c.stats().invalidated, 0);
    }

    #[test]
    fn partial_invalidation_is_per_tag_and_model_blind() {
        // Tag appends change the postings themselves, so even Global-model
        // entries reading that tag must go; other tags survive.
        let c = ResultCache::new(8, POLICY);
        c.insert(global(1, 0), ranking(1), 0.0);
        c.insert(key(2, 0), ranking(2), 0.0);
        c.insert(key(3, 5), ranking(3), 0.0);
        c.insert(global(4, 5), ranking(4), 0.0);
        let dropped = c.invalidate(false, &[0]);
        assert_eq!(dropped, 2);
        assert!(
            c.get(&global(1, 0)).is_none(),
            "touched tag must sweep Global"
        );
        assert!(c.get(&key(2, 0)).is_none(), "touched tag survived");
        assert!(c.get(&key(3, 5)).is_some(), "untouched tag swept");
        assert!(c.get(&global(4, 5)).is_some(), "untouched tag swept");
    }

    #[test]
    fn partial_invalidation_skips_global_for_edge_only_batches() {
        // An edge edit may move any seeker's σ, so every σ-dependent entry
        // goes, whatever its seeker or tag; σ ≡ 1 cannot move, so Global
        // entries stay.
        let c = ResultCache::new(8, POLICY);
        c.insert(global(1, 0), ranking(1), 0.0);
        c.insert(global(2, 5), ranking(2), 0.0);
        c.insert(key(1, 1), ranking(3), 0.0);
        c.insert(key(2, 0), ranking(4), 0.0);
        c.insert(key(7, 5), ranking(5), 0.0);
        let dropped = c.invalidate(true, &[]);
        assert_eq!(dropped, 3);
        for (seeker, tag) in [(1, 0), (2, 5)] {
            assert!(
                c.get(&global(seeker, tag)).is_some(),
                "Global is graph-independent"
            );
        }
        for (seeker, tag) in [(1, 1), (2, 0), (7, 5)] {
            assert!(
                c.get(&key(seeker, tag)).is_none(),
                "σ-dependent entry must be swept"
            );
        }
        assert_eq!(c.stats().invalidated, 3);
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
        c.insert(key(1, 0), ranking(1), 0.0);
        assert!(c.get(&key(1, 0)).is_some());
        std::thread::sleep(std::time::Duration::from_millis(25));
        assert!(c.get(&key(1, 0)).is_none(), "stale entry must expire");
        assert_eq!(c.stats().expirations, 1);
    }
}
