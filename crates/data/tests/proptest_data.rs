//! Property-based tests for the data substrate: store invariants under
//! arbitrary tagging multisets and generator/workload contracts.

use friends_data::queries::{QueryParams, QueryWorkload};
use friends_data::store::TagStore;
use friends_data::zipf::Zipf;
use friends_data::Tagging;
use friends_graph::generators;
use proptest::prelude::*;

fn arb_store() -> impl Strategy<Value = TagStore> {
    (
        1u32..20,
        1u32..30,
        1u32..8,
        proptest::collection::vec((0u32..20, 0u32..30, 0u32..8, 0.01f32..3.0), 0..150),
    )
        .prop_map(|(users, items, tags, raw)| {
            let taggings: Vec<Tagging> = raw
                .into_iter()
                .map(|(u, i, t, w)| Tagging {
                    user: u % users,
                    item: i % items,
                    tag: t % tags,
                    weight: w,
                })
                .collect();
            TagStore::build(users, items, tags, taggings)
        })
}

/// Every row of both views with weights as bit patterns: two stores are
/// the same store iff these agree.
#[allow(clippy::type_complexity)]
fn rows_bits(s: &TagStore) -> (usize, Vec<Vec<(u32, u32, u32, u32)>>) {
    let bits = |row: &[Tagging]| -> Vec<(u32, u32, u32, u32)> {
        row.iter()
            .map(|t| (t.user, t.item, t.tag, t.weight.to_bits()))
            .collect()
    };
    let users = (0..s.num_users()).map(|u| bits(s.user_taggings(u)));
    let tags = (0..s.num_tags()).map(|t| bits(s.tag_taggings(t)));
    (s.num_taggings(), users.chain(tags).collect())
}

/// Taggings over a universe small enough that most keys repeat three times
/// or more, with weights `0.1 · k` — none exact in binary, so any change in
/// the order a key's duplicates are summed in shows in the low bits.
fn arb_colliding(max_len: usize) -> impl Strategy<Value = Vec<Tagging>> {
    proptest::collection::vec((0u32..2, 0u32..2, 0u32..2, 1u32..10), 0..max_len).prop_map(|raw| {
        raw.into_iter()
            .map(|(user, item, tag, k)| Tagging {
                user,
                item,
                tag,
                weight: 0.1 * k as f32,
            })
            .collect()
    })
}

/// Taggings with many repeated keys in random order, over an item
/// universe that is either small or wide enough that item ids need more
/// than 16 bits; the universe sizes come first.
fn arb_unsorted() -> impl Strategy<Value = (u32, u32, u32, Vec<Tagging>)> {
    (
        1u32..20,
        1u32..30,
        1u32..8,
        any::<bool>(),
        proptest::collection::vec((0u32..20, 0u32..30, 0u32..8, 1u32..10), 0..200),
    )
        .prop_map(|(users, items, tags, wide, raw)| {
            let stride = if wide { 9_973 } else { 1 };
            let taggings = raw
                .into_iter()
                .map(|(u, i, t, k)| Tagging {
                    user: u % users,
                    item: (i % items) * stride,
                    tag: t % tags,
                    weight: 0.1 * k as f32,
                })
                .collect();
            (users, items * stride, tags, taggings)
        })
}

/// What `build` must return, by comparison sorts: the taggings stably
/// sorted by `(user, tag, item)` with duplicates summed in input order,
/// cut into user rows, and the same taggings sorted by `(tag, item, user)`
/// cut into tag rows — in [`rows_bits`] form.
#[allow(clippy::type_complexity)]
fn reference_rows(
    users: u32,
    tags: u32,
    mut taggings: Vec<Tagging>,
) -> (usize, Vec<Vec<(u32, u32, u32, u32)>>) {
    taggings.sort_by_key(|t| (t.user, t.tag, t.item));
    let mut merged: Vec<Tagging> = Vec::new();
    for t in taggings {
        match merged.last_mut() {
            Some(m) if (m.user, m.tag, m.item) == (t.user, t.tag, t.item) => m.weight += t.weight,
            _ => merged.push(t),
        }
    }
    let bits = |t: &Tagging| (t.user, t.item, t.tag, t.weight.to_bits());
    let mut rows = vec![Vec::new(); (users + tags) as usize];
    for t in &merged {
        rows[t.user as usize].push(bits(t));
    }
    let mut by_tag = merged.clone();
    by_tag.sort_by_key(|t| (t.tag, t.item, t.user));
    for t in &by_tag {
        rows[(users + t.tag) as usize].push(bits(t));
    }
    (merged.len(), rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `build` equals the comparison-sort reference row for row, both
    /// views, weights bit for bit; `from_sorted` over the built store's
    /// own order rebuilds the same store.
    #[test]
    fn build_matches_sort_reference((users, items, tags, taggings) in arb_unsorted()) {
        let built = TagStore::build(users, items, tags, taggings.clone());
        prop_assert_eq!(rows_bits(&built), reference_rows(users, tags, taggings));
        let resorted = TagStore::from_sorted(users, items, tags, built.iter().copied().collect());
        prop_assert_eq!(rows_bits(&resorted.unwrap()), rows_bits(&built));
    }

    /// `with_appends` (row merge) equals `build` (global sort) over the
    /// store's taggings followed by the appends: both views, bit for bit.
    #[test]
    fn with_appends_matches_build(
        store in arb_store(),
        raw in proptest::collection::vec((0u32..20, 0u32..30, 0u32..8, 0.01f32..3.0), 0..60),
    ) {
        let appends: Vec<Tagging> = raw
            .into_iter()
            .map(|(u, i, t, w)| Tagging {
                user: u % store.num_users(),
                item: i % store.num_items(),
                tag: t % store.num_tags(),
                weight: w,
            })
            .collect();
        let mut all: Vec<Tagging> = store.iter().copied().collect();
        all.extend_from_slice(&appends);
        let rebuilt = TagStore::build(store.num_users(), store.num_items(), store.num_tags(), all);
        let appended = store.with_appends(&appends);
        prop_assert_eq!(rows_bits(&appended), rows_bits(&rebuilt));
        prop_assert!(appended.iter().eq(rebuilt.iter()));
    }

    /// Duplicate weights are summed in input order everywhere: applying
    /// batches one by one, applying their concatenation once, and building
    /// from scratch over everything give the same bits — with duplicates
    /// inside the seed, inside one batch and across batches.
    #[test]
    fn duplicate_weights_merge_in_input_order(
        seed in arb_colliding(12),
        batches in proptest::collection::vec(arb_colliding(10), 1..5),
    ) {
        let base = TagStore::build(2, 2, 2, seed.clone());
        let mut sequential = base.clone();
        for b in &batches {
            sequential = sequential.with_appends(b);
        }
        let all: Vec<Tagging> = batches.concat();
        let coalesced = base.with_appends(&all);
        let one_pass = TagStore::build(2, 2, 2, [seed, all].concat());
        prop_assert_eq!(rows_bits(&sequential), rows_bits(&one_pass));
        prop_assert_eq!(rows_bits(&coalesced), rows_bits(&one_pass));
    }

    /// The two sort orders of the store hold the same multiset: total mass,
    /// counts and per-(user, tag) slices are consistent.
    #[test]
    fn store_views_are_consistent(store in arb_store()) {
        let total_by_user: f64 = (0..store.num_users())
            .flat_map(|u| store.user_taggings(u))
            .map(|t| t.weight as f64)
            .sum();
        let total_by_tag: f64 = (0..store.num_tags())
            .flat_map(|t| store.tag_taggings(t))
            .map(|t| t.weight as f64)
            .sum();
        prop_assert!((total_by_user - total_by_tag).abs() < 1e-3);

        let count_by_user: usize = (0..store.num_users())
            .map(|u| store.user_taggings(u).len())
            .sum();
        prop_assert_eq!(count_by_user, store.num_taggings());

        for u in 0..store.num_users() {
            for t in 0..store.num_tags() {
                let slice = store.user_tag_taggings(u, t);
                prop_assert!(slice.iter().all(|x| x.user == u && x.tag == t));
                // Cross-check against the tag view.
                let via_tag = store
                    .tag_taggings(t)
                    .iter()
                    .filter(|x| x.user == u)
                    .count();
                prop_assert_eq!(slice.len(), via_tag);
            }
        }
    }

    /// Global aggregates match a naive recomputation.
    #[test]
    fn global_scores_match_naive(store in arb_store()) {
        for t in 0..store.num_tags() {
            let mut naive: std::collections::BTreeMap<u32, f32> =
                std::collections::BTreeMap::new();
            for x in store.tag_taggings(t) {
                *naive.entry(x.item).or_insert(0.0) += x.weight;
            }
            let got = store.global_item_scores(t);
            prop_assert_eq!(got.len(), naive.len());
            for (g, (item, mass)) in got.iter().zip(naive.iter()) {
                prop_assert_eq!(g.0, *item);
                prop_assert!((g.1 - mass).abs() < 1e-4);
            }
            // Max per-item mass is the max of the aggregates.
            let mx = naive.values().fold(0.0f32, |a, &b| a.max(b));
            let items_max = store
                .global_item_scores(t)
                .into_iter()
                .map(|(_, m)| m)
                .fold(0.0f32, f32::max);
            prop_assert!((mx - items_max).abs() < 1e-4);
        }
    }

    /// Zipf PMF sums to 1 and is non-increasing in rank.
    #[test]
    fn zipf_pmf_contract(n in 1usize..200, theta in 0.0f64..2.0) {
        let z = Zipf::new(n, theta);
        let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        for r in 1..n {
            prop_assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
    }

    /// Zipf samples stay in range for arbitrary seeds.
    #[test]
    fn zipf_samples_in_range(n in 1usize..100, theta in 0.0f64..2.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let z = Zipf::new(n, theta);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Query workloads are well-formed for arbitrary seeds.
    #[test]
    fn workload_contract(seed in any::<u64>(), k in 1usize..20) {
        let g = generators::watts_strogatz(60, 4, 0.2, 1);
        let store = {
            let taggings: Vec<Tagging> = (0..60u32)
                .map(|u| Tagging::unit(u, u % 10, u % 5))
                .collect();
            TagStore::build(60, 10, 5, taggings)
        };
        let w = QueryWorkload::generate(
            &g,
            &store,
            &QueryParams { count: 15, min_tags: 1, max_tags: 3, k },
            seed,
        );
        prop_assert_eq!(w.len(), 15);
        for q in &w.queries {
            prop_assert!(q.seeker < 60);
            prop_assert!(!q.tags.is_empty() && q.tags.len() <= 3);
            prop_assert!(q.tags.windows(2).all(|t| t[0] < t[1]));
            prop_assert_eq!(q.k, k);
        }
    }
}

/// `with_appends` refuses exactly what `build` refuses.
#[test]
fn with_appends_panics_where_build_does() {
    let ok = Tagging::unit(1, 2, 3);
    let bad = [
        Tagging { user: 4, ..ok },
        Tagging { item: 5, ..ok },
        Tagging { tag: 6, ..ok },
        Tagging {
            weight: f32::NAN,
            ..ok
        },
        Tagging { weight: -0.5, ..ok },
        Tagging {
            weight: f32::INFINITY,
            ..ok
        },
    ];
    let store = TagStore::build(4, 5, 6, vec![ok]);
    for t in bad {
        let built = std::panic::catch_unwind(|| TagStore::build(4, 5, 6, vec![ok, t]));
        let appended = std::panic::catch_unwind(|| store.with_appends(&[ok, t]));
        assert!(built.is_err() && appended.is_err(), "{t:?} was accepted");
    }
    assert_eq!(store.with_appends(&[ok]).user_taggings(1)[0].weight, 2.0);
}
