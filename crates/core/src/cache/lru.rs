//! The one cache engine behind both of the workspace's caches: the σ cache
//! ([`super::ProximityCache`], one engine per shard) and `friends_service`'s
//! result cache (one per service shard).
//!
//! An [`AdmissionLru`] is a slab of entries threaded oldest → newest by an
//! intrusive doubly linked recency list, indexed by a map whose keys carry
//! their own hash ([`KeyHasher`]): a hit is one map probe plus pointer work,
//! with no allocation and no key clone. On top sit an entry cap, a byte
//! budget, TinyLFU admission (Einziger et al., ACM ToS 2017) over a 4-bit
//! count-min sketch, a TTL, and the counters — plain fields under whatever
//! lock the owner holds the engine in.

use super::{CachePolicy, CacheStats, FreqSketch};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::time::{Duration, Instant};

/// The hasher of maps keyed by keys that carry their own hash: such a key's
/// `Hash` impl writes one precomputed `u64` and nothing else, so hashing it
/// is a copy.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a self-hashing key writes one precomputed u64")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A map keyed by self-hashing keys (see [`KeyHasher`]).
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// The precomputed hash a self-hashing key carries.
fn hash_of<Q: Hash + ?Sized>(key: &Q) -> u64 {
    BuildHasherDefault::<KeyHasher>::default().hash_one(key)
}

/// "No neighbour" in the recency list.
const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    /// Bytes charged against the byte budget.
    charge: usize,
    inserted_at: Instant,
    /// Neighbours in the recency list (`NIL` at either end).
    older: usize,
    newer: usize,
}

/// An LRU cache with TinyLFU admission, an entry cap, a byte budget and a
/// TTL (see the module docs). `K`'s `Hash` impl must write exactly one
/// precomputed `u64` (see [`KeyHasher`]).
pub struct AdmissionLru<K, V> {
    /// Key → index into `slots`.
    map: KeyMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Ends of the recency list: the eviction victim and the latest use.
    oldest: usize,
    newest: usize,
    max_entries: usize,
    max_bytes: usize,
    ttl: Option<Duration>,
    /// Present iff the policy enables admission.
    sketch: Option<FreqSketch>,
    /// The counters, and in `bytes` the sum of the resident charges
    /// (`entries` is `slots.len()`).
    stats: CacheStats,
}

impl<K: Hash + Eq + Clone, V> AdmissionLru<K, V> {
    /// An empty cache holding at most `max_entries` entries (minimum 1)
    /// whose charges sum to at most `max_bytes`; `usize::MAX` disables
    /// either limit. Admission weighs frequency per charged byte when a
    /// byte budget is set, per entry otherwise.
    pub fn new(max_entries: usize, max_bytes: usize, policy: CachePolicy) -> Self {
        // The sketch needs a finite entry estimate: under a pure byte
        // budget, assume reach-proportional σ entries of ~1 KiB.
        let sketch_entries = match (max_entries, max_bytes) {
            (usize::MAX, usize::MAX) => 1024,
            (usize::MAX, bytes) => bytes / 1024,
            (entries, _) => entries,
        };
        AdmissionLru {
            map: KeyMap::default(),
            slots: Vec::new(),
            oldest: NIL,
            newest: NIL,
            max_entries: max_entries.max(1),
            max_bytes,
            ttl: policy.ttl,
            sketch: policy.admission.then(|| FreqSketch::new(sketch_entries)),
            stats: CacheStats::default(),
        }
    }

    /// Looks `key` up and, on a hit, makes it the most recently used entry.
    /// An entry past the TTL is dropped (an expiration) and misses.
    ///
    /// With `probe` set the lookup counts as a request for `key`: the
    /// admission sketch records it, and it counts as a hit or a miss.
    /// Without it (a re-check of a request already probed) neither happens.
    /// A caller that changes the value's size says so with
    /// [`AdmissionLru::recharge`].
    pub fn get<Q>(&mut self, key: &Q, probe: bool) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if probe {
            if let Some(sketch) = self.sketch.as_mut() {
                sketch.record(hash_of(key));
            }
        }
        let found = match self.map.get(key) {
            Some(&i) if self.expired(i) => {
                self.evict(i);
                None
            }
            found => found.copied(),
        };
        if probe {
            match found {
                Some(_) => self.stats.hits += 1,
                None => self.stats.misses += 1,
            }
        }
        let i = found?;
        self.touch(i);
        Some(&mut self.slots[i].value)
    }

    /// Re-charges a resident `key` at `charge` bytes (its value changed
    /// size in place), then evicts least recently used entries until the
    /// byte budget holds again, keeping at least the newest.
    pub fn recharge<Q>(&mut self, key: &Q, charge: usize)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(&i) = self.map.get(key) {
            let slot = &mut self.slots[i];
            self.stats.bytes = self.stats.bytes - slot.charge + charge;
            slot.charge = charge;
            self.evict_over_budget();
        }
    }

    /// Drops `key` if it is resident (counted as invalidated); returns
    /// whether it was.
    pub fn invalidate<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(&i) = self.map.get(key) else {
            return false;
        };
        self.remove(i);
        self.stats.invalidated += 1;
        true
    }

    /// Inserts (or refreshes) `key`, charged `charge` bytes; `make` builds
    /// the value only once it is certain to go in. Returns whether it did.
    ///
    /// A refresh replaces the value, re-charges it, restarts its TTL clock
    /// and then evicts least recently used entries until the byte budget
    /// holds again (never the refreshed entry itself). A new key needs
    /// victims when the cache is full: the least recently used entries, as
    /// many as the limits require, all chosen **before** any is removed. If
    /// admission is on and any live victim is at least as frequent as the
    /// newcomer — per charged byte under a byte budget — the insert is
    /// rejected with every resident intact. An expired victim is always
    /// evictable. An entry larger than the whole byte budget is rejected
    /// outright (and a resident version dropped).
    pub fn insert_with(&mut self, key: K, charge: usize, make: impl FnOnce() -> V) -> bool {
        if charge > self.max_bytes {
            if let Some(&i) = self.map.get(&key) {
                self.remove(i);
            }
            self.stats.rejections += 1;
            return false;
        }
        if let Some(&i) = self.map.get(&key) {
            let slot = &mut self.slots[i];
            self.stats.bytes = self.stats.bytes - slot.charge + charge;
            slot.charge = charge;
            slot.value = make();
            slot.inserted_at = Instant::now();
            self.touch(i);
            self.evict_over_budget();
            return true;
        }
        let (mut victims, mut freed, mut next) = (0, 0, self.oldest);
        while self.slots.len() - victims >= self.max_entries
            || (self.stats.bytes - freed).saturating_add(charge) > self.max_bytes
        {
            // Cannot run off the list: with every entry a victim, both
            // limits hold (`charge` fits the budget, `max_entries` ≥ 1).
            let victim = &self.slots[next];
            if let (Some(sketch), false) = (&self.sketch, self.expired(next)) {
                // Cross-multiplied `freq / charge`, so no division; equal
                // weights make it the classic frequency comparison.
                let (new_weight, victim_weight) = if self.max_bytes == usize::MAX {
                    (1, 1)
                } else {
                    (charge as u128, victim.charge as u128)
                };
                let new_freq = sketch.estimate(hash_of(&key)) as u128;
                let victim_freq = sketch.estimate(hash_of(&victim.key)) as u128;
                if new_freq * victim_weight <= victim_freq * new_weight {
                    self.stats.rejections += 1;
                    return false;
                }
            }
            freed += victim.charge;
            victims += 1;
            next = victim.newer;
        }
        for _ in 0..victims {
            self.evict(self.oldest);
        }
        let i = self.slots.len();
        self.map.insert(key.clone(), i);
        self.slots.push(Slot {
            key,
            value: make(),
            charge,
            inserted_at: Instant::now(),
            older: NIL,
            newer: NIL,
        });
        self.link(self.newest, i);
        self.link(i, NIL);
        self.stats.bytes += charge;
        self.stats.insertions += 1;
        true
    }

    /// Keeps the entries `keep` accepts and drops the rest (counted as
    /// invalidated), leaving recency and TTL clocks alone. Returns the
    /// number dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> u64 {
        let mut dropped = 0;
        // Back to front: a removal moves the last slot, already visited,
        // into the hole.
        for i in (0..self.slots.len()).rev() {
            if !keep(&self.slots[i].key, &self.slots[i].value) {
                self.remove(i);
                dropped += 1;
            }
        }
        self.stats.invalidated += dropped;
        dropped
    }

    /// Drops every entry (counters and the sketch are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        (self.oldest, self.newest) = (NIL, NIL);
        self.stats.bytes = 0;
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The counters, resident entries and resident bytes.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.slots.len(),
            ..self.stats
        }
    }

    /// The residents' keys and charges, least recently used first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, usize)> + '_ {
        let mut next = self.oldest;
        std::iter::from_fn(move || {
            let slot = self.slots.get(next)?;
            next = slot.newer;
            Some((&slot.key, slot.charge))
        })
    }

    /// The admission sketch's frequency estimate for `key` (0 without
    /// admission): what an insert of `key` is weighed by.
    pub fn frequency<Q: Hash + ?Sized>(&self, key: &Q) -> u8 {
        self.sketch
            .as_ref()
            .map_or(0, |sketch| sketch.estimate(hash_of(key)))
    }

    fn expired(&self, i: usize) -> bool {
        self.ttl
            .is_some_and(|ttl| self.slots[i].inserted_at.elapsed() > ttl)
    }

    /// Evicts least recently used entries until the byte budget holds,
    /// keeping at least the newest.
    fn evict_over_budget(&mut self) {
        while self.slots.len() > 1 && self.stats.bytes > self.max_bytes {
            self.evict(self.oldest);
        }
    }

    /// Removes slot `i` for lack of room or age: an expiration if it is
    /// past the TTL, an eviction otherwise.
    fn evict(&mut self, i: usize) {
        if self.expired(i) {
            self.stats.expirations += 1;
        } else {
            self.stats.evictions += 1;
        }
        self.remove(i);
    }

    /// Marks slot `i` as the most recently used.
    fn touch(&mut self, i: usize) {
        if self.newest != i {
            let (older, newer) = (self.slots[i].older, self.slots[i].newer);
            self.link(older, newer);
            self.link(self.newest, i);
            self.link(i, NIL);
        }
    }

    /// Makes `newer` follow `older` in the recency list (either may be
    /// `NIL`, meaning the list's end).
    fn link(&mut self, older: usize, newer: usize) {
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
    }

    /// Drops slot `i`. The last slot moves into its place, so indices
    /// above `i` are invalidated; indices below it stay put.
    fn remove(&mut self, i: usize) {
        let (older, newer) = (self.slots[i].older, self.slots[i].newer);
        self.link(older, newer);
        let slot = self.slots.swap_remove(i);
        self.map.remove(&slot.key);
        self.stats.bytes -= slot.charge;
        if let Some(moved) = self.slots.get(i) {
            let (older, newer) = (moved.older, moved.newer);
            *self.map.get_mut(&moved.key).expect("every slot is indexed") = i;
            self.link(older, i);
            self.link(i, newer);
        }
    }
}
