//! **GlobalBoundTA** — the fourth network-aware strategy of the paper
//! family: drive candidate generation from the *global* index, in global-
//! score order, and use the fact that `σ ≤ 1` implies
//! `personalized(i) ≤ global(i)`.
//!
//! At depth `d`, the threshold `τ = Σ_{t ∈ Q} frontier_t` (the global mass of
//! the d-th entry of each tag list) bounds the personalized score of every
//! not-yet-seen item; once the k-th best exactly-scored candidate reaches τ,
//! the top-k is final. Each candidate is scored exactly by probing its
//! taggers (`(tag, item)` slice of the store) against the materialized
//! proximity vector.
//!
//! This strategy shines when personalized and global rankings correlate
//! (weak personalization, popular items) and degrades to a full scan when
//! the seeker's taste is far from the mainstream — exactly complementary to
//! [`super::FriendExpansion`], which is what motivates [`super::Hybrid`].

use crate::cache::ProximityCache;
use crate::corpus::{Corpus, GlobalList, QueryStats, SearchResult};
use crate::latency::elapsed_ns;
use crate::processors::{resolve_sigma, Processor, ScoringStrategy};
use crate::proximity::{ProximityModel, Sigma, SigmaBounds, SigmaWorkspace};
use friends_data::queries::Query;
use friends_data::store::TagStore;
use friends_data::{ItemId, TagId};
use friends_index::accumulate::StampedSet;
use friends_index::postings::PostingList;
use friends_index::topk::{BlockMaxWand, SigmaAccum, TopK};
use std::sync::Arc;

/// Global-index-driven exact personalized top-k.
pub struct GlobalBoundTA<'a> {
    corpus: &'a Corpus,
    model: ProximityModel,
    /// Per tag: `(item, global mass)` sorted by mass desc, item asc.
    lists: &'a [GlobalList],
    sigma: SigmaWorkspace,
    seen_items: StampedSet,
    tags_scratch: Vec<TagId>,
    cache: Option<Arc<ProximityCache>>,
    strategy: ScoringStrategy,
    bounds: SigmaBounds,
    bmw: BlockMaxWand,
    bmw_lists: Vec<&'a PostingList>,
}

impl<'a> GlobalBoundTA<'a> {
    /// Builds the per-tag global candidate lists.
    ///
    /// # Panics
    /// Panics if `model` can produce proximities above 1.0 (`Global` is
    /// allowed and degenerates to the plain global top-k).
    pub fn new(corpus: &'a Corpus, model: ProximityModel) -> Self {
        let lists = corpus.global_lists();
        let mut seen_items = StampedSet::new();
        seen_items.ensure(corpus.num_items() as usize);
        GlobalBoundTA {
            corpus,
            model,
            lists,
            sigma: SigmaWorkspace::new(),
            seen_items,
            tags_scratch: Vec::new(),
            cache: None,
            strategy: ScoringStrategy::Auto,
            bounds: SigmaBounds::EXACT,
            bmw: BlockMaxWand::new(),
            bmw_lists: Vec::new(),
        }
    }

    /// Like [`GlobalBoundTA::new`], sharing a seeker-proximity cache. Models
    /// with [`ProximityModel::cache_worthy`] false bypass it entirely.
    pub fn with_cache(
        corpus: &'a Corpus,
        model: ProximityModel,
        cache: Arc<ProximityCache>,
    ) -> Self {
        let mut p = GlobalBoundTA::new(corpus, model);
        p.cache = Some(cache);
        p
    }

    /// Like [`GlobalBoundTA::new`] with a forced [`ScoringStrategy`].
    /// `GlobalBoundTA` implements `GlobalTa` (its native global-index-driven
    /// TA) and `BlockMax`; any other forced value behaves like `Auto`.
    pub fn with_strategy(
        corpus: &'a Corpus,
        model: ProximityModel,
        strategy: ScoringStrategy,
    ) -> Self {
        let mut p = GlobalBoundTA::new(corpus, model);
        p.strategy = strategy;
        p
    }

    /// The proximity model in use.
    pub fn model(&self) -> ProximityModel {
        self.model
    }

    /// The configured scoring strategy.
    pub fn strategy(&self) -> ScoringStrategy {
        self.strategy
    }

    /// Personalized score of `item`, probing its taggers. The second return
    /// is the item's *missed posting weight* — the total weight of taggers
    /// reading `σ = 0` — which under a lossy (bounded) σ turns the σ-space
    /// residual into this item's score-space error bound. Always 0.0 when
    /// `lossy` is false, so the exact path pays nothing for it.
    fn score_item(
        store: &TagStore,
        sigma: &Sigma<'_>,
        tags: &[TagId],
        item: ItemId,
        lossy: bool,
        stats: &mut QueryStats,
    ) -> (f32, f64) {
        let mut score = 0.0f64;
        let mut missed = 0.0f64;
        for &t in tags {
            let slice = store.tag_taggings(t);
            // Slice is sorted by (item, user): binary search the item range.
            let lo = slice.partition_point(|x| x.item < item);
            let hi = slice.partition_point(|x| x.item <= item);
            for tg in &slice[lo..hi] {
                let s = sigma.get(tg.user);
                if s > 0.0 {
                    score += s * tg.weight as f64;
                } else if lossy {
                    missed += tg.weight as f64;
                }
            }
            stats.postings_scanned += hi - lo;
        }
        (score as f32, missed)
    }
}

impl Processor for GlobalBoundTA<'_> {
    fn name(&self) -> &'static str {
        "global-bound-ta"
    }

    fn set_strategy(&mut self, strategy: ScoringStrategy) {
        self.strategy = strategy;
    }

    fn set_bounds(&mut self, bounds: SigmaBounds) {
        self.bounds = bounds;
    }

    fn query(&mut self, q: &Query) -> SearchResult {
        let mut stats = QueryStats::default();
        self.tags_scratch.clear();
        self.tags_scratch.extend(
            q.tags
                .iter()
                .copied()
                .filter(|&t| t < self.corpus.store.num_tags()),
        );
        if self.tags_scratch.is_empty() || self.corpus.graph.num_nodes() == 0 || q.k == 0 {
            return SearchResult {
                items: Vec::new(),
                stats,
                residual: 0.0,
            };
        }
        let cached = resolve_sigma(
            &self.corpus.graph,
            q.seeker,
            self.model,
            self.bounds,
            self.cache.as_deref(),
            &mut self.sigma,
            &mut stats,
        );
        let sigma = match &cached {
            Some(v) => Sigma::Shared(v.as_ref()),
            None => Sigma::Workspace(&self.sigma),
        };
        let sigma_residual = sigma.residual_bound();
        let scoring_start = std::time::Instant::now();
        // A lossy σ routes through the native TA: `score_item` enumerates
        // every posting of every scored candidate, so the missed weight —
        // and with it the score-space residual certificate — is observable
        // per candidate. Block-max skips exactly those postings.
        let lossy = sigma_residual > 0.0;
        // Third strategy beside the global-driven TA: block-max σ-aware
        // WAND over the σ-aware posting index. Auto routes to it for
        // FriendsOnly — a one-hop support so small that τ barely drops and
        // the native path degenerates to probing nearly every candidate
        // (measured ~1.5–1.7× slower than block-max on popular tags).
        // Wider supports (AdamicAdar's two-hop set, PPR) correlate with the
        // global order well enough that the native τ cutoff wins, so they
        // stay native; forcing `BlockMax` remains available — and exact.
        let use_blockmax = !lossy
            && match self.strategy {
                ScoringStrategy::BlockMax => true,
                ScoringStrategy::GlobalTa => false,
                _ => {
                    matches!(self.model, ProximityModel::FriendsOnly)
                        && sigma.support().is_some_and(|s| {
                            s.len().saturating_mul(self.tags_scratch.len())
                                <= self
                                    .tags_scratch
                                    .iter()
                                    .map(|&t| self.corpus.store.tag_taggings(t).len())
                                    .sum::<usize>()
                        })
                }
            };
        if use_blockmax {
            let index = self.corpus.sigma_index();
            self.bmw_lists.clear();
            self.bmw_lists
                .extend(self.tags_scratch.iter().filter_map(|&t| index.postings(t)));
            let bound = self.model.sigma_bound(q.seeker, &sigma);
            let (items, st) = self
                .bmw
                .search(&self.bmw_lists, &bound, q.k, SigmaAccum::F64);
            stats.postings_scanned = st.sorted_accesses;
            stats.bound_checks = st.random_accesses;
            stats.blocks_skipped = st.blocks_skipped;
            stats.early_terminated = st.blocks_skipped > 0;
            stats.scoring_ns = elapsed_ns(scoring_start);
            return SearchResult {
                items,
                stats,
                residual: 0.0,
            };
        }
        // τ only bounds unseen items' personalized scores when σ ≤ 1 —
        // check on every resolved σ source, cached vectors included.
        sigma.debug_assert_at_most_one();
        let tags = &self.tags_scratch;
        let mut topk = TopK::new(q.k);
        self.seen_items.ensure(self.corpus.num_items() as usize);
        self.seen_items.clear();
        let max_len = tags
            .iter()
            .map(|&t| self.lists[t as usize].len())
            .max()
            .unwrap_or(0);
        // Largest per-candidate missed weight over every scored candidate —
        // a superset of the returned items, so the certificate below covers
        // each of them.
        let mut max_missed = 0.0f64;
        for depth in 0..max_len {
            let mut tau = 0.0f32;
            let mut any = false;
            for &t in tags {
                if let Some(&(item, mass)) = self.lists[t as usize].get(depth) {
                    any = true;
                    tau += mass;
                    if self.seen_items.insert(item) {
                        // `users_visited` counts scored candidates here (the
                        // processor never walks the graph).
                        stats.users_visited += 1;
                        let (s, missed) = Self::score_item(
                            &self.corpus.store,
                            &sigma,
                            tags,
                            item,
                            lossy,
                            &mut stats,
                        );
                        max_missed = max_missed.max(missed);
                        if s > 0.0 {
                            // Zero-score candidates (no reachable tagger)
                            // are not results, matching ExactOnline.
                            topk.offer(item, s);
                        }
                    }
                }
            }
            stats.bound_checks += 1;
            if !any {
                break;
            }
            // Unseen items have personalized score ≤ their global score
            // ≤ the frontier sum (σ ≤ 1, sum aggregation). Strict comparison:
            // an unseen item tying the k-th score could still win the
            // smaller-id tie-break, so equality may not stop the scan.
            if topk.len() >= q.k && topk.threshold() > tau {
                if depth + 1 < max_len {
                    stats.early_terminated = true;
                }
                break;
            }
        }
        let items = topk.into_sorted_vec();
        stats.scoring_ns = elapsed_ns(scoring_start);
        SearchResult {
            items,
            stats,
            residual: sigma_residual * max_missed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processors::ExactOnline;
    use friends_data::datasets::{DatasetSpec, Scale};
    use friends_data::queries::{QueryParams, QueryWorkload};
    use friends_data::store::TagStore;
    use friends_data::Tagging;
    use friends_graph::GraphBuilder;

    fn fixture() -> Corpus {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(6);
        Corpus::new(ds.graph, ds.store)
    }

    #[test]
    fn matches_exact_online_across_models() {
        let corpus = fixture();
        let w = QueryWorkload::generate(
            &corpus.graph,
            &corpus.store,
            &QueryParams {
                count: 25,
                k: 8,
                ..QueryParams::default()
            },
            9,
        );
        for model in [
            ProximityModel::Global,
            ProximityModel::FriendsOnly,
            ProximityModel::DistanceDecay { alpha: 0.5 },
            ProximityModel::WeightedDecay { alpha: 0.5 },
            ProximityModel::AdamicAdar,
        ] {
            let mut gb = GlobalBoundTA::new(&corpus, model);
            let mut exact = ExactOnline::new(&corpus, model);
            for q in &w.queries {
                let a = gb.query(q);
                let b = exact.query(q);
                // Compare sets + scores (accumulation order may permute
                // exact float ties).
                let sa: std::collections::BTreeSet<_> = a.item_ids().into_iter().collect();
                let sb: std::collections::BTreeSet<_> = b.item_ids().into_iter().collect();
                assert_eq!(sa, sb, "{} {q:?}", model.name());
                let mb: std::collections::HashMap<ItemId, f32> = b.items.iter().copied().collect();
                for (item, s) in &a.items {
                    assert!(
                        (mb[item] - s).abs() < 1e-3,
                        "{}: item {item} {s} vs {}",
                        model.name(),
                        mb[item]
                    );
                }
            }
        }
    }

    #[test]
    fn global_model_terminates_at_depth_k() {
        // With σ ≡ 1 the personalized score equals the global score, so the
        // threshold fires as soon as k candidates are scored.
        let corpus = fixture();
        let mut gb = GlobalBoundTA::new(&corpus, ProximityModel::Global);
        let r = gb.query(&Query {
            seeker: 3,
            tags: vec![0],
            k: 5,
        });
        assert!(r.stats.bound_checks <= 10, "stats {:?}", r.stats);
        assert!(r.stats.early_terminated || r.stats.bound_checks <= 10);
    }

    #[test]
    fn scans_fewer_postings_than_exact_when_global_dominates() {
        // Items with huge global mass that the seeker's friends also tagged:
        // the global frontier drops fast, so GlobalBoundTA stops early.
        let g = GraphBuilder::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let mut taggings = vec![
            Tagging {
                user: 1,
                item: 0,
                tag: 0,
                weight: 5.0,
            }, // friend loves item 0
        ];
        // Long tail of stranger-tagged items with tiny mass.
        for i in 1..50u32 {
            taggings.push(Tagging {
                user: 3,
                item: i,
                tag: 0,
                weight: 0.01,
            });
        }
        let store = TagStore::build(4, 50, 1, taggings);
        let corpus = Corpus::new(g, store);
        let mut gb = GlobalBoundTA::new(&corpus, ProximityModel::DistanceDecay { alpha: 0.5 });
        let r = gb.query(&Query {
            seeker: 0,
            tags: vec![0],
            k: 1,
        });
        assert_eq!(r.items[0].0, 0);
        assert!(r.stats.early_terminated, "{:?}", r.stats);
        assert!(
            r.stats.postings_scanned < 50,
            "scanned {}",
            r.stats.postings_scanned
        );
    }

    #[test]
    fn degenerate_queries() {
        let corpus = fixture();
        let mut gb = GlobalBoundTA::new(&corpus, ProximityModel::Global);
        assert!(gb
            .query(&Query {
                seeker: 0,
                tags: vec![],
                k: 5
            })
            .items
            .is_empty());
        assert!(gb
            .query(&Query {
                seeker: 0,
                tags: vec![424242],
                k: 5
            })
            .items
            .is_empty());
        assert!(gb
            .query(&Query {
                seeker: 0,
                tags: vec![0],
                k: 0
            })
            .items
            .is_empty());
    }
}
