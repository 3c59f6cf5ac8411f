//! Differential property test of the cache engine
//! ([`friends_core::cache::AdmissionLru`]) against a naive reference: a
//! `Vec` in recency order (least recently used first), linear scans, and
//! the engine's own admission sketch for frequency estimates (only probes
//! write to it, so both sides see the same counts; the sketch itself is
//! unit-tested in `friends_core::cache`).
//!
//! Random get / re-check / insert / sweep / clear sequences run under an
//! entry cap, a byte budget or both, with admission on and off. After every
//! step the residents, their recency order and charges, `bytes` (the sum of
//! the charges) and every counter must match the reference, an insert must
//! build its value exactly when it goes in, and a sweep must tell each
//! entry whether it was read since the previous sweep.

use friends_core::cache::{AdmissionLru, CachePolicy, CacheStats, Sweep};
use proptest::prelude::*;
use std::hash::{Hash, Hasher};

/// A key that carries its own hash, like the engine's real keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    hash: u64,
    id: u32,
}

fn key(id: u32) -> Key {
    Key {
        hash: (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        id,
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One resident of the reference: key id, value, charge, read since the
/// previous sweep.
#[derive(Clone, Copy, Debug)]
struct Entry {
    id: u32,
    value: u64,
    charge: usize,
    read: bool,
}

struct Reference {
    /// Least recently used first.
    order: Vec<Entry>,
    max_entries: usize,
    max_bytes: usize,
    admission: bool,
    stats: CacheStats,
}

impl Reference {
    fn bytes(&self) -> usize {
        self.order.iter().map(|e| e.charge).sum()
    }

    fn position(&self, id: u32) -> Option<usize> {
        self.order.iter().position(|e| e.id == id)
    }

    fn get(&mut self, id: u32, probe: bool) -> Option<u64> {
        let found = self.position(id);
        if probe {
            match found {
                Some(_) => self.stats.hits += 1,
                None => self.stats.misses += 1,
            }
        }
        let mut entry = self.order.remove(found?);
        entry.read = true;
        self.order.push(entry);
        Some(entry.value)
    }

    fn evict_over_budget(&mut self) {
        while self.order.len() > 1 && self.bytes() > self.max_bytes {
            self.order.remove(0);
            self.stats.evictions += 1;
        }
    }

    fn insert(&mut self, id: u32, charge: usize, value: u64, freq: impl Fn(u32) -> u8) -> bool {
        if charge > self.max_bytes {
            if let Some(i) = self.position(id) {
                self.order.remove(i);
            }
            self.stats.rejections += 1;
            return false;
        }
        if let Some(i) = self.position(id) {
            self.order.remove(i);
            self.order.push(Entry {
                id,
                value,
                charge,
                read: true,
            });
            self.evict_over_budget();
            return true;
        }
        let mut victims = 0;
        while self.order.len() - victims >= self.max_entries
            || self.order[victims..]
                .iter()
                .map(|e| e.charge)
                .sum::<usize>()
                + charge
                > self.max_bytes
        {
            let victim = self.order[victims];
            if self.admission {
                let (new_weight, victim_weight) = if self.max_bytes == usize::MAX {
                    (1, 1)
                } else {
                    (charge as u128, victim.charge as u128)
                };
                if freq(id) as u128 * victim_weight <= freq(victim.id) as u128 * new_weight {
                    self.stats.rejections += 1;
                    return false;
                }
            }
            victims += 1;
        }
        self.order.drain(..victims);
        self.stats.evictions += victims as u64;
        self.order.push(Entry {
            id,
            value,
            charge,
            read: true,
        });
        self.stats.insertions += 1;
        true
    }

    fn sweep(&mut self, verdict: impl Fn(u32) -> Sweep) -> u64 {
        let before = self.order.len();
        self.order.retain_mut(|e| {
            e.read = false;
            match verdict(e.id) {
                Sweep::Keep => true,
                Sweep::Recharge(charge) => {
                    e.charge = charge;
                    true
                }
                Sweep::Drop => false,
            }
        });
        let dropped = (before - self.order.len()) as u64;
        self.stats.invalidated += dropped;
        self.evict_over_budget();
        dropped
    }
}

/// The sweep verdict for key `id` in sweep `seed`.
fn verdict(id: u32, seed: u32) -> Sweep {
    match (id + seed) % 3 {
        0 => Sweep::Keep,
        1 => Sweep::Recharge(1 + ((id * 7 + seed) % 60) as usize),
        _ => Sweep::Drop,
    }
}

fn same_state(lru: &AdmissionLru<Key, u64>, reference: &Reference) -> Result<(), TestCaseError> {
    let residents: Vec<(u32, usize)> = lru.iter().map(|(k, charge)| (k.id, charge)).collect();
    let expected: Vec<(u32, usize)> = reference.order.iter().map(|e| (e.id, e.charge)).collect();
    prop_assert_eq!(&residents, &expected, "recency order");
    let stats = lru.stats();
    prop_assert_eq!(stats.bytes, reference.bytes(), "bytes == Σ charges");
    prop_assert_eq!(
        stats,
        CacheStats {
            entries: reference.order.len(),
            bytes: reference.bytes(),
            ..reference.stats
        }
    );
    prop_assert_eq!(lru.len(), reference.order.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_matches_the_naive_reference(
        (limits, cap, budget, admission) in (0u8..3, 1usize..7, 40usize..240, any::<bool>()),
        ops in proptest::collection::vec((0u8..20, 0u32..12, 1usize..60), 0..160),
    ) {
        let max_entries = if limits == 1 { usize::MAX } else { cap };
        let max_bytes = if limits == 0 { usize::MAX } else { budget };
        let policy = CachePolicy { admission, ttl: None };
        let mut lru: AdmissionLru<Key, u64> = AdmissionLru::new(max_entries, max_bytes, policy);
        let mut reference = Reference {
            order: Vec::new(),
            max_entries,
            max_bytes,
            admission,
            stats: CacheStats::default(),
        };
        for (step, &(kind, id, n)) in ops.iter().enumerate() {
            let value = step as u64;
            match kind {
                0..=11 => {
                    let probe = kind < 10;
                    let got = lru.get(&key(id), probe).copied();
                    prop_assert_eq!(got, reference.get(id, probe), "get {} at {}", id, step);
                }
                12..=16 => {
                    let freq = |id: u32| lru.frequency(&key(id));
                    let expected = reference.insert(id, n, value, freq);
                    let mut built = false;
                    let went_in = lru.insert_with(key(id), n, || {
                        built = true;
                        value
                    });
                    prop_assert_eq!(went_in, expected, "insert {} ({}) at {}", id, n, step);
                    prop_assert_eq!(built, went_in, "make ran iff the insert went in");
                }
                17..=18 => {
                    let seed = n as u32;
                    let read: Vec<(u32, bool)> = reference.order.iter().map(|e| (e.id, e.read)).collect();
                    let mut told = Vec::new();
                    let dropped = lru.sweep(|k, _, was_read| {
                        told.push((k.id, was_read));
                        verdict(k.id, seed)
                    });
                    told.sort_unstable();
                    let mut read = read;
                    read.sort_unstable();
                    prop_assert_eq!(told, read, "read-since-sweep flags at {}", step);
                    prop_assert_eq!(dropped, reference.sweep(|id| verdict(id, seed)));
                }
                _ => {
                    lru.clear();
                    reference.order.clear();
                }
            }
            same_state(&lru, &reference)?;
        }
    }
}
