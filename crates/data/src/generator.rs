//! Homophilous synthetic tagging-workload generator.
//!
//! The generator is the heart of the data substitution (DESIGN.md §3): it
//! produces taggings whose *popularity skew* (Zipf over items and tags),
//! *volume skew* (per-user activity heavy tail) and *homophily* (friends tag
//! the same things) are all controllable.
//!
//! Homophily drives the entire premise of network-aware search: when `h = 0`
//! your friends' annotations are no more relevant than strangers', and the
//! personalized processors degrade to the global one; as `h → 1` the signal
//! concentrates in the seeker's neighborhood and friend expansion terminates
//! after a handful of visits. Fig 5 and Fig 8 sweep exactly this axis.

use crate::store::TagStore;
use crate::zipf::Zipf;
use crate::{Tagging, UserId};
use friends_graph::CsrGraph;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Parameters for [`generate`].
#[derive(Clone, Debug)]
pub struct WorkloadParams {
    /// Number of items in the universe.
    pub num_items: u32,
    /// Number of tags in the universe.
    pub num_tags: u32,
    /// Mean annotations per user (actual volume is heavy-tailed around it).
    pub mean_taggings_per_user: f64,
    /// Zipf exponent of item popularity.
    pub item_theta: f64,
    /// Zipf exponent of tag popularity.
    pub tag_theta: f64,
    /// Probability that a tagging *copies* a uniformly random existing
    /// tagging of a random friend instead of sampling fresh. In `[0, 1]`.
    pub homophily: f64,
    /// Weight model: annotations get weight 1.0 when false, else
    /// `Uniform(0.5, 1.5)` (rating-like noise).
    pub weighted: bool,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            num_items: 10_000,
            num_tags: 500,
            mean_taggings_per_user: 20.0,
            item_theta: 1.0,
            tag_theta: 1.0,
            homophily: 0.5,
            weighted: false,
        }
    }
}

/// Generates a [`TagStore`] over the users of `graph`.
///
/// Users are processed in random order; each performs a heavy-tailed number
/// of annotations. With probability `homophily` an annotation copies a
/// random friend's existing annotation (falling back to fresh sampling when
/// the friend has none yet), otherwise it samples `item ~ Zipf(item_theta)`
/// and `tag ~ Zipf(tag_theta)` independently.
pub fn generate(graph: &CsrGraph, params: &WorkloadParams, seed: u64) -> TagStore {
    assert!((0.0..=1.0).contains(&params.homophily), "bad homophily");
    assert!(params.num_items >= 1 && params.num_tags >= 1);
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let item_z = Zipf::new(params.num_items as usize, params.item_theta);
    let tag_z = Zipf::new(params.num_tags as usize, params.tag_theta);

    // Heavy-tailed per-user activity: volume ∝ a Zipf rank sample, scaled so
    // the mean matches `mean_taggings_per_user`.
    let activity = Zipf::new(50, 0.8);
    let mean_rank: f64 = (0..50).map(|r| (r + 1) as f64 * activity.pmf(r)).sum();
    let scale = params.mean_taggings_per_user / mean_rank;

    // Per-user tagging lists, so homophilous copies can reference them.
    let mut per_user: Vec<Vec<Tagging>> = vec![Vec::new(); n];
    let mut order: Vec<UserId> = (0..n as UserId).collect();
    order.shuffle(&mut rng);

    // Two passes: the first seeds everyone with some fresh annotations so
    // early homophilous copies have material to copy; the second adds the
    // remainder with the homophily mixture.
    for pass in 0..2 {
        for &u in &order {
            let volume = ((activity.sample(&mut rng) + 1) as f64 * scale).round() as usize;
            let volume = if pass == 0 {
                (volume / 2).max(1)
            } else {
                volume.saturating_sub(volume / 2)
            };
            for _ in 0..volume {
                let copied = if pass == 1 && rng.gen_bool(params.homophily) {
                    copy_from_friend(graph, &per_user, u, &mut rng)
                } else {
                    None
                };
                let (item, tag) = copied.unwrap_or_else(|| {
                    (
                        item_z.sample(&mut rng) as u32,
                        tag_z.sample(&mut rng) as u32,
                    )
                });
                let weight = if params.weighted {
                    rng.gen_range(0.5..1.5)
                } else {
                    1.0
                };
                per_user[u as usize].push(Tagging {
                    user: u,
                    item,
                    tag,
                    weight,
                });
            }
        }
    }
    let mut taggings: Vec<Tagging> = per_user.into_iter().flatten().collect();
    // Repeated annotations are merged here rather than left to
    // `TagStore::build`, whose merge follows input order: the benchmark
    // pins digests of the generated weights, and those were recorded when
    // a key's duplicates were summed in the order this unstable sort
    // leaves them. Which order a synthetic corpus sums in is immaterial;
    // that a seed keeps producing the same bits is not.
    taggings.sort_unstable_by_key(|t| (t.user, t.tag, t.item));
    taggings.dedup_by(|next, kept| {
        let same = (next.user, next.tag, next.item) == (kept.user, kept.tag, kept.item);
        if same {
            kept.weight += next.weight;
        }
        same
    });
    TagStore::build(n as u32, params.num_items, params.num_tags, taggings)
}

fn copy_from_friend(
    graph: &CsrGraph,
    per_user: &[Vec<Tagging>],
    u: UserId,
    rng: &mut StdRng,
) -> Option<(u32, u32)> {
    let nbrs = graph.neighbors(u);
    if nbrs.is_empty() {
        return None;
    }
    // Try a few friends; fall back to fresh sampling if none tagged yet.
    for _ in 0..4 {
        let f = nbrs[rng.gen_range(0..nbrs.len())];
        let fl = &per_user[f as usize];
        if !fl.is_empty() {
            let t = fl[rng.gen_range(0..fl.len())];
            return Some((t.item, t.tag));
        }
    }
    None
}

/// Fraction of annotations shared with at least one friend — an empirical
/// homophily measure used to validate the generator.
pub fn measured_homophily(graph: &CsrGraph, store: &TagStore) -> f64 {
    let mut shared = 0usize;
    let mut total = 0usize;
    for u in graph.nodes() {
        for t in store.user_taggings(u) {
            total += 1;
            let found = graph.neighbors(u).iter().any(|&f| {
                store
                    .user_tag_taggings(f, t.tag)
                    .iter()
                    .any(|ft| ft.item == t.item)
            });
            if found {
                shared += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        shared as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use friends_graph::generators;

    fn small_graph() -> CsrGraph {
        generators::watts_strogatz(200, 6, 0.1, 3)
    }

    #[test]
    fn generation_is_deterministic() {
        let g = small_graph();
        let p = WorkloadParams::default();
        let a = generate(&g, &p, 11);
        let b = generate(&g, &p, 11);
        assert_eq!(a.num_taggings(), b.num_taggings());
    }

    #[test]
    fn volume_tracks_mean() {
        let g = small_graph();
        let p = WorkloadParams {
            mean_taggings_per_user: 15.0,
            homophily: 0.0,
            ..WorkloadParams::default()
        };
        let s = generate(&g, &p, 5);
        let per_user = s.num_taggings() as f64 / 200.0;
        // Duplicate merging removes some volume; accept a broad band.
        assert!(
            per_user > 6.0 && per_user < 25.0,
            "taggings/user = {per_user}"
        );
    }

    #[test]
    fn homophily_increases_sharing() {
        let g = small_graph();
        let lo = generate(
            &g,
            &WorkloadParams {
                homophily: 0.0,
                ..WorkloadParams::default()
            },
            7,
        );
        let hi = generate(
            &g,
            &WorkloadParams {
                homophily: 0.9,
                ..WorkloadParams::default()
            },
            7,
        );
        let mh_lo = measured_homophily(&g, &lo);
        let mh_hi = measured_homophily(&g, &hi);
        assert!(
            mh_hi > mh_lo + 0.15,
            "homophily should increase sharing: {mh_lo} vs {mh_hi}"
        );
    }

    #[test]
    fn item_popularity_is_skewed() {
        let g = small_graph();
        let s = generate(
            &g,
            &WorkloadParams {
                item_theta: 1.2,
                homophily: 0.0,
                ..WorkloadParams::default()
            },
            9,
        );
        let mut counts = vec![0usize; s.num_items() as usize];
        for t in s.iter() {
            counts[t.item as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts[..10].iter().sum();
        let total: usize = counts.iter().sum();
        assert!(
            top10 as f64 > 0.2 * total as f64,
            "top-10 items hold {top10}/{total}"
        );
    }

    #[test]
    fn weighted_annotations_in_range() {
        let g = small_graph();
        let s = generate(
            &g,
            &WorkloadParams {
                weighted: true,
                ..WorkloadParams::default()
            },
            2,
        );
        // Merged duplicates may exceed 1.5, but no single weight is < 0.5.
        assert!(s.iter().all(|t| t.weight >= 0.5));
    }

    #[test]
    fn empty_graph_yields_empty_store() {
        let g = CsrGraph::empty(0);
        let s = generate(&g, &WorkloadParams::default(), 1);
        assert_eq!(s.num_taggings(), 0);
    }

    #[test]
    fn every_user_tags_at_least_once() {
        let g = small_graph();
        let s = generate(&g, &WorkloadParams::default(), 13);
        for u in 0..200u32 {
            assert!(
                !s.user_taggings(u).is_empty(),
                "user {u} has no annotations"
            );
        }
    }
}
