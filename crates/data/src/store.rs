//! The tagging store: a read-optimized row store over
//! `(user, item, tag, weight)` annotations with two sort orders.
//!
//! * **by user** — one row per user in `(tag, item)` order, for
//!   friend-expansion: when the expansion visits user `v`, it scans `v`'s
//!   postings for the query tags.
//! * **by tag** — one row per tag in `(item, user)` order, for building
//!   inverted indexes and the global baseline.
//!
//! Every row sits behind its own `Arc`, so a store is two pointer tables
//! and [`TagStore::with_appends`] — the live-graph write path — rebuilds
//! only the rows a batch names and shares every other row with its
//! predecessor (cloning a store copies the tables, never a tagging).
//!
//! Both views come from one assembler over unique keys in `(user, tag,
//! item)` order: user rows are cut straight from that order, tag rows
//! come from O(n) counting passes. [`TagStore::build`] sorts and merges
//! its input into that order first; [`TagStore::from_sorted`] — the
//! snapshot loader's path — only checks that its input already is.
//!
//! Duplicate `(user, item, tag)` triples are merged by summing weights
//! (repeated annotation = stronger signal) **in input order**: a key's
//! weight is the left fold `((w₁ + w₂) + w₃) …` over its occurrences as
//! they were given, appends after what the store already holds. f32
//! addition is not associative, so this order is what makes one `build`,
//! one coalesced `with_appends` and a chain of them agree bit for bit.

use crate::{ItemId, TagId, Tagging, UserId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Immutable social-tagging dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TagStore {
    num_users: u32,
    num_items: u32,
    num_tags: u32,
    num_taggings: usize,
    /// `by_user[u]` is `u`'s annotations, sorted by `(tag, item)`.
    by_user: Vec<Arc<[Tagging]>>,
    /// `by_tag[t]` is the annotations carrying `t`, sorted by `(item, user)`.
    by_tag: Vec<Arc<[Tagging]>>,
}

fn user_order(t: &Tagging) -> (UserId, TagId, ItemId) {
    (t.user, t.tag, t.item)
}

fn tag_order(t: &Tagging) -> (TagId, ItemId, UserId) {
    (t.tag, t.item, t.user)
}

/// Cuts `sorted` (grouped by `row_of`) into `rows` shared rows; rows no
/// tagging names share one empty allocation.
fn split_rows(
    sorted: &[Tagging],
    rows: u32,
    row_of: impl Fn(&Tagging) -> u32,
) -> Vec<Arc<[Tagging]>> {
    let empty: Arc<[Tagging]> = Arc::from(Vec::new());
    let mut out = vec![empty; rows as usize];
    for run in sorted.chunk_by(|a, b| row_of(a) == row_of(b)) {
        out[row_of(&run[0]) as usize] = Arc::from(run);
    }
    out
}

/// Stable counting sort of `src` into `dst`, of the same length, by
/// `key(t) < buckets`.
fn counting_sort(
    src: &[Tagging],
    dst: &mut [Tagging],
    buckets: usize,
    key: impl Fn(&Tagging) -> usize,
) {
    let mut next = vec![0usize; buckets + 1];
    for t in src {
        next[key(t) + 1] += 1;
    }
    for b in 1..=buckets {
        next[b] += next[b - 1];
    }
    for t in src {
        let slot = &mut next[key(t)];
        dst[*slot] = *t;
        *slot += 1;
    }
}

/// Reorders `taggings` from `(user, tag, item)` to `(tag, item, user)`
/// order in O(n): one stable counting pass by tag, then, inside each tag's
/// run, stable counting passes on the item's bytes, low to high, as many
/// as the run's largest item needs. Each pass keeps the previous order
/// among its ties, so users stay ascending within a `(tag, item)` run; a
/// run's passes stay in cache, and no count table is sized by the item
/// universe.
fn into_tag_order(mut taggings: Vec<Tagging>, num_tags: u32) -> Vec<Tagging> {
    // The clone only supplies an initialised buffer; every slot is overwritten.
    let mut by_tag = taggings.clone();
    counting_sort(&taggings, &mut by_tag, num_tags as usize, |t| {
        t.tag as usize
    });
    for run in by_tag.chunk_by_mut(|a, b| a.tag == b.tag) {
        let spare = &mut taggings[..run.len()];
        let top = run.iter().map(|t| t.item).max().unwrap_or(0);
        // Passes alternate between the run and `spare`.
        let (mut from, mut to) = (&mut *run, &mut *spare);
        let mut shift = 0;
        while shift < 32 && top >> shift != 0 {
            counting_sort(from, to, 256, |t| ((t.item >> shift) & 0xFF) as usize);
            std::mem::swap(&mut from, &mut to);
            shift += 8;
        }
        if shift % 16 != 0 {
            run.copy_from_slice(spare);
        }
    }
    by_tag
}

/// Merges `adds` (stably sorted by `key`, so equal keys keep batch order)
/// into `row` (sorted by `key`, keys unique): a key's weight is the row's,
/// then the adds in order. The merged row is written straight into its one
/// shared allocation: sized by counting the new keys first, filled (a
/// `repeat_n` is exact-size, so `collect` writes it in place), then
/// overwritten run by run.
fn merge_row<K: Ord>(
    row: &[Tagging],
    adds: &[Tagging],
    key: impl Fn(&Tagging) -> K,
) -> Arc<[Tagging]> {
    let runs = || adds.chunk_by(|a, b| key(a) == key(b));
    let new_keys = runs()
        .filter(|run| row.binary_search_by(|t| key(t).cmp(&key(&run[0]))).is_err())
        .count();
    let mut merged: Arc<[Tagging]> = std::iter::repeat_n(adds[0], row.len() + new_keys).collect();
    let out = Arc::get_mut(&mut merged).expect("a fresh allocation is unique");
    let (mut kept, mut at) = (0, 0);
    for run in runs() {
        let k = key(&run[0]);
        let upto = kept + row[kept..].partition_point(|t| key(t) < k);
        out[at..at + upto - kept].copy_from_slice(&row[kept..upto]);
        at += upto - kept;
        kept = upto;
        let (mut t, rest) = match row.get(kept).filter(|t| key(t) == k) {
            Some(&t) => {
                kept += 1;
                (t, run)
            }
            None => (run[0], &run[1..]),
        };
        for a in rest {
            t.weight += a.weight;
        }
        out[at] = t;
        at += 1;
    }
    out[at..].copy_from_slice(&row[kept..]);
    merged
}

/// The aggregated weight of one `(tag, item)` run of a tag row (non-empty,
/// user order): the left fold from its first weight — every global item
/// score's summation order.
fn run_mass(run: &[Tagging]) -> f32 {
    run[1..]
        .iter()
        .fold(run[0].weight, |mass, t| mass + t.weight)
}

/// Which part of the id and weight contract of [`TagStore::build`],
/// [`TagStore::from_sorted`] and [`TagStore::with_appends`] `t` breaks,
/// if any: ids must satisfy `user < num_users`, `item < num_items`, `tag <
/// num_tags`, and weights must be finite and non-negative.
pub(crate) fn contract_violation(
    t: &Tagging,
    num_users: u32,
    num_items: u32,
    num_tags: u32,
) -> Option<&'static str> {
    if t.user >= num_users || t.item >= num_items || t.tag >= num_tags {
        Some("tagging out of range")
    } else if !(t.weight.is_finite() && t.weight >= 0.0) {
        Some("bad weight")
    } else {
        None
    }
}

fn check(t: &Tagging, num_users: u32, num_items: u32, num_tags: u32) {
    if let Some(what) = contract_violation(t, num_users, num_items, num_tags) {
        panic!("{what}: {t:?}");
    }
}

impl TagStore {
    /// Builds a store. Ids must satisfy `user < num_users`, `item <
    /// num_items`, `tag < num_tags`; duplicates are merged (weights summed
    /// in input order).
    ///
    /// # Panics
    /// Panics on out-of-range ids or non-finite weights.
    pub fn build(
        num_users: u32,
        num_items: u32,
        num_tags: u32,
        mut taggings: Vec<Tagging>,
    ) -> Self {
        for t in &taggings {
            check(t, num_users, num_items, num_tags);
        }
        // Stable: duplicates stay in input order, which fixes the f32
        // summation order of the merge below.
        taggings.sort_by_key(user_order);
        taggings.dedup_by(|next, kept| {
            if user_order(next) == user_order(kept) {
                kept.weight += next.weight;
                true
            } else {
                false
            }
        });
        Self::assemble(num_users, num_items, num_tags, taggings)
    }

    /// Builds a store from taggings already in the order [`TagStore::iter`]
    /// yields — strictly increasing `(user, tag, item)`, so keys are unique
    /// — without sorting: the snapshot loader's path, since every save
    /// writes that order. The result equals [`TagStore::build`] over the
    /// same taggings.
    ///
    /// # Errors
    /// `Err(i)` names the first record that breaks the id and weight
    /// contract of [`TagStore::build`] or whose key is not below record
    /// `i + 1`'s.
    pub fn from_sorted(
        num_users: u32,
        num_items: u32,
        num_tags: u32,
        taggings: Vec<Tagging>,
    ) -> Result<Self, usize> {
        for (i, t) in taggings.iter().enumerate() {
            if contract_violation(t, num_users, num_items, num_tags).is_some() {
                return Err(i);
            }
            if i > 0 && user_order(&taggings[i - 1]) >= user_order(t) {
                return Err(i - 1);
            }
        }
        Ok(Self::assemble(num_users, num_items, num_tags, taggings))
    }

    /// Both views from unique-keyed taggings in `(user, tag, item)` order.
    fn assemble(num_users: u32, num_items: u32, num_tags: u32, taggings: Vec<Tagging>) -> Self {
        let by_user = split_rows(&taggings, num_users, |t| t.user);
        let num_taggings = taggings.len();
        let by_tag = split_rows(&into_tag_order(taggings, num_tags), num_tags, |t| t.tag);
        TagStore {
            num_users,
            num_items,
            num_tags,
            num_taggings,
            by_user,
            by_tag,
        }
    }

    /// Returns a store with `appends` added — the live-graph posting path.
    /// Universe sizes are unchanged; duplicates of existing annotations
    /// merge by summing weights (the stored weight, then the appends in
    /// batch order), exactly as [`TagStore::build`] would have merged them
    /// in one pass. Only the rows of the users and tags `appends` names are
    /// rebuilt; every other row is shared with `self`.
    ///
    /// # Panics
    /// Panics on out-of-range ids or non-finite weights (same contract as
    /// [`TagStore::build`]).
    pub fn with_appends(&self, appends: &[Tagging]) -> TagStore {
        for t in appends {
            check(t, self.num_users, self.num_items, self.num_tags);
        }
        let mut next = self.clone();
        let mut batch = appends.to_vec();
        batch.sort_by_key(user_order);
        for adds in batch.chunk_by(|a, b| a.user == b.user) {
            let row = &mut next.by_user[adds[0].user as usize];
            let merged = merge_row(row, adds, user_order);
            next.num_taggings += merged.len() - row.len();
            *row = merged;
        }
        batch.sort_by_key(tag_order);
        for adds in batch.chunk_by(|a, b| a.tag == b.tag) {
            let row = &mut next.by_tag[adds[0].tag as usize];
            *row = merge_row(row, adds, tag_order);
        }
        next
    }

    /// Number of users in the universe.
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Number of items in the universe.
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// Number of tags in the universe.
    pub fn num_tags(&self) -> u32 {
        self.num_tags
    }

    /// Total distinct `(user, item, tag)` annotations.
    pub fn num_taggings(&self) -> usize {
        self.num_taggings
    }

    /// All annotations by `user`, sorted by `(tag, item)`.
    pub fn user_taggings(&self, user: UserId) -> &[Tagging] {
        &self.by_user[user as usize]
    }

    /// `user`'s annotations carrying `tag`, sorted by item.
    pub fn user_tag_taggings(&self, user: UserId, tag: TagId) -> &[Tagging] {
        let all = self.user_taggings(user);
        let lo = all.partition_point(|t| t.tag < tag);
        let hi = all.partition_point(|t| t.tag <= tag);
        &all[lo..hi]
    }

    /// All annotations carrying `tag`, sorted by `(item, user)`.
    pub fn tag_taggings(&self, tag: TagId) -> &[Tagging] {
        &self.by_tag[tag as usize]
    }

    /// Aggregated global per-item score for `tag`: `Σ_user weight`, sorted
    /// by item id. This feeds the non-personalized baseline index.
    pub fn global_item_scores(&self, tag: TagId) -> Vec<(ItemId, f32)> {
        self.tag_taggings(tag)
            .chunk_by(|a, b| a.item == b.item)
            .map(|run| (run[0].item, run_mass(run)))
            .collect()
    }

    /// `item`'s aggregated weight under `tag` — its entry in
    /// [`TagStore::global_item_scores`], summed the same way — or `None`
    /// when no tagging pairs them. Two binary searches and the item's run.
    pub fn tag_item_mass(&self, tag: TagId, item: ItemId) -> Option<f32> {
        let row = self.tag_taggings(tag);
        let lo = row.partition_point(|t| t.item < item);
        let len = row[lo..].partition_point(|t| t.item == item);
        (len > 0).then(|| run_mass(&row[lo..lo + len]))
    }

    /// Users who used `tag` at least once (sorted, deduplicated).
    pub fn tag_users(&self, tag: TagId) -> Vec<UserId> {
        let mut users: Vec<UserId> = self.tag_taggings(tag).iter().map(|t| t.user).collect();
        users.sort_unstable();
        users.dedup();
        users
    }

    /// Largest single annotation weight for `tag` across all users — the
    /// per-user contribution bound used by FriendExpansion's terminator.
    pub fn tag_max_weight(&self, tag: TagId) -> f32 {
        self.tag_taggings(tag)
            .iter()
            .map(|t| t.weight)
            .fold(0.0, f32::max)
    }

    /// Largest **per-user total** weight for `tag`: `max_u Σ_{items} w`.
    /// A tighter per-visit bound than `tag_max_weight × items`.
    pub fn tag_max_user_mass(&self, tag: TagId) -> f32 {
        let mut per_user: std::collections::HashMap<UserId, f32> = std::collections::HashMap::new();
        for t in self.tag_taggings(tag) {
            *per_user.entry(t.user).or_insert(0.0) += t.weight;
        }
        per_user.into_values().fold(0.0f32, f32::max)
    }

    /// Distinct items annotated with `tag`.
    pub fn tag_num_items(&self, tag: TagId) -> usize {
        let mut n = 0usize;
        let mut last = u32::MAX;
        for t in self.tag_taggings(tag) {
            if t.item != last {
                n += 1;
                last = t.item;
            }
        }
        n
    }

    /// Iterates every stored annotation once (user order).
    pub fn iter(&self) -> impl Iterator<Item = &Tagging> {
        self.by_user.iter().flat_map(|row| row.iter())
    }

    /// Approximate resident memory, in bytes.
    pub fn memory_bytes(&self) -> usize {
        2 * self.num_taggings * std::mem::size_of::<Tagging>()
            + (self.by_user.len() + self.by_tag.len()) * std::mem::size_of::<Arc<[Tagging]>>()
    }
}

/// Dataset-level statistics (Table 1 rows).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreStats {
    pub users: u32,
    pub items: u32,
    pub tags: u32,
    pub taggings: usize,
    pub taggings_per_user_mean: f64,
    pub taggings_per_user_max: usize,
    pub items_per_tag_mean: f64,
    pub items_per_tag_max: usize,
}

impl TagStore {
    /// Computes [`StoreStats`].
    pub fn stats(&self) -> StoreStats {
        let mut per_user_max = 0usize;
        for u in 0..self.num_users {
            per_user_max = per_user_max.max(self.user_taggings(u).len());
        }
        let mut per_tag_max = 0usize;
        let mut per_tag_total = 0usize;
        for t in 0..self.num_tags {
            let n = self.tag_num_items(t);
            per_tag_max = per_tag_max.max(n);
            per_tag_total += n;
        }
        StoreStats {
            users: self.num_users,
            items: self.num_items,
            tags: self.num_tags,
            taggings: self.num_taggings(),
            taggings_per_user_mean: self.num_taggings() as f64 / self.num_users.max(1) as f64,
            taggings_per_user_max: per_user_max,
            items_per_tag_mean: per_tag_total as f64 / self.num_tags.max(1) as f64,
            items_per_tag_max: per_tag_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_store() -> TagStore {
        TagStore::build(
            3,
            5,
            4,
            vec![
                Tagging::unit(0, 0, 1),
                Tagging::unit(0, 1, 1),
                Tagging::unit(0, 1, 2),
                Tagging::unit(1, 1, 1),
                Tagging {
                    user: 2,
                    item: 4,
                    tag: 3,
                    weight: 2.5,
                },
                Tagging::unit(1, 1, 1), // duplicate: weights sum to 2.0
            ],
        )
    }

    #[test]
    fn build_merges_duplicates() {
        let s = small_store();
        assert_eq!(s.num_taggings(), 5);
        let t = s.user_tag_taggings(1, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].weight, 2.0);
    }

    #[test]
    fn user_slices() {
        let s = small_store();
        assert_eq!(s.user_taggings(0).len(), 3);
        assert_eq!(s.user_taggings(1).len(), 1);
        assert_eq!(s.user_taggings(2).len(), 1);
        // Sorted by (tag, item).
        let u0 = s.user_taggings(0);
        assert!(u0
            .windows(2)
            .all(|w| (w[0].tag, w[0].item) <= (w[1].tag, w[1].item)));
    }

    #[test]
    fn user_tag_slices() {
        let s = small_store();
        let u0t1 = s.user_tag_taggings(0, 1);
        assert_eq!(u0t1.len(), 2);
        assert!(u0t1.iter().all(|t| t.tag == 1 && t.user == 0));
        assert!(s.user_tag_taggings(0, 3).is_empty());
        assert!(s.user_tag_taggings(2, 1).is_empty());
    }

    #[test]
    fn tag_slices_and_aggregates() {
        let s = small_store();
        let t1 = s.tag_taggings(1);
        assert_eq!(t1.len(), 3);
        let g = s.global_item_scores(1);
        assert_eq!(g, vec![(0, 1.0), (1, 3.0)]);
        assert_eq!(s.tag_item_mass(1, 1), Some(3.0));
        assert_eq!(s.tag_item_mass(1, 4), None);
        assert_eq!(s.tag_users(1), vec![0, 1]);
        assert_eq!(s.tag_num_items(1), 2);
        assert_eq!(s.tag_max_weight(1), 2.0);
        assert_eq!(s.tag_max_user_mass(1), 2.0);
        // Tag 0 unused.
        assert!(s.tag_taggings(0).is_empty());
        assert_eq!(s.tag_max_weight(0), 0.0);
    }

    #[test]
    fn tag_max_user_mass_sums_within_user() {
        // User 0 tags two items with tag 1 (1.0 each): mass 2.0, while the
        // single max weight is also... make weights distinct to separate.
        let s = TagStore::build(
            2,
            3,
            2,
            vec![
                Tagging {
                    user: 0,
                    item: 0,
                    tag: 1,
                    weight: 0.6,
                },
                Tagging {
                    user: 0,
                    item: 1,
                    tag: 1,
                    weight: 0.6,
                },
                Tagging {
                    user: 1,
                    item: 2,
                    tag: 1,
                    weight: 0.9,
                },
            ],
        );
        assert!((s.tag_max_weight(1) - 0.9).abs() < 1e-6);
        assert!((s.tag_max_user_mass(1) - 1.2).abs() < 1e-6);
    }

    #[test]
    fn empty_store() {
        let s = TagStore::build(0, 0, 0, vec![]);
        assert_eq!(s.num_taggings(), 0);
        let stats = s.stats();
        assert_eq!(stats.taggings, 0);
    }

    #[test]
    fn stats_fields() {
        let s = small_store();
        let st = s.stats();
        assert_eq!(st.users, 3);
        assert_eq!(st.taggings, 5);
        assert_eq!(st.taggings_per_user_max, 3);
        assert_eq!(st.items_per_tag_max, 2);
        assert!(st.taggings_per_user_mean > 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_user_panics() {
        TagStore::build(1, 1, 1, vec![Tagging::unit(1, 0, 0)]);
    }

    #[test]
    fn memory_positive() {
        assert!(small_store().memory_bytes() > 0);
    }

    #[test]
    fn with_appends_matches_one_pass_build() {
        let s = small_store();
        let extra = vec![
            Tagging::unit(2, 3, 0),
            Tagging::unit(1, 1, 1), // merges into the existing (1,1,1)
        ];
        let appended = s.with_appends(&extra);
        let mut all: Vec<Tagging> = s.iter().copied().collect();
        all.extend_from_slice(&extra);
        let rebuilt = TagStore::build(3, 5, 4, all);
        assert_eq!(appended.num_taggings(), rebuilt.num_taggings());
        for u in 0..3 {
            assert_eq!(appended.user_taggings(u), rebuilt.user_taggings(u));
        }
        assert_eq!(appended.user_tag_taggings(1, 1)[0].weight, 3.0);
        // The original is untouched.
        assert_eq!(s.user_tag_taggings(1, 1)[0].weight, 2.0);
    }

    #[test]
    fn with_appends_shares_every_row_it_does_not_name() {
        let s = small_store();
        // User 2 and tag 0 get a new annotation; (1,1,1) repeats an old one.
        let next = s.with_appends(&[Tagging::unit(2, 3, 0), Tagging::unit(1, 1, 1)]);
        for u in 0..3 {
            let shared = Arc::ptr_eq(&s.by_user[u], &next.by_user[u]);
            assert_eq!(shared, u == 0, "user row {u}");
        }
        for t in 0..4 {
            let shared = Arc::ptr_eq(&s.by_tag[t], &next.by_tag[t]);
            assert_eq!(shared, t >= 2, "tag row {t}");
        }
        assert_eq!(next.num_taggings(), s.num_taggings() + 1);
        // Nothing named, nothing copied — as with a plain clone.
        for same in [s.with_appends(&[]), s.clone()] {
            let rows = |x: &TagStore| {
                x.by_user
                    .iter()
                    .chain(&x.by_tag)
                    .cloned()
                    .collect::<Vec<_>>()
            };
            assert!(rows(&s)
                .iter()
                .zip(&rows(&same))
                .all(|(a, b)| Arc::ptr_eq(a, b)));
        }
    }

    #[test]
    fn from_sorted_names_the_first_bad_record() {
        let sorted: Vec<Tagging> = small_store().iter().copied().collect();
        let from = |v: Vec<Tagging>| TagStore::from_sorted(3, 5, 4, v).map(|s| s.num_taggings());
        assert_eq!(from(sorted.clone()), Ok(5));
        let mut swapped = sorted.clone();
        swapped.swap(1, 2);
        assert_eq!(from(swapped), Err(1));
        let mut repeated = sorted.clone();
        repeated[3] = repeated[2];
        assert_eq!(from(repeated), Err(2));
        let mut out_of_range = sorted.clone();
        out_of_range[4].item = 5;
        assert_eq!(from(out_of_range), Err(4));
        let mut nan = sorted;
        nan[0].weight = f32::NAN;
        assert_eq!(from(nan), Err(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_appends_rejects_out_of_range() {
        small_store().with_appends(&[Tagging::unit(0, 9, 0)]);
    }
}
