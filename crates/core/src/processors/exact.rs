//! The exact personalized baseline: materialize the seeker's proximity,
//! then score every relevant annotation of every query tag.
//!
//! This is the correctness oracle for all network-aware processors and the
//! "no early termination" baseline of Figs 3–5: always exact, cost
//! `O(proximity materialization + scoring)` per query.
//!
//! The hot path is allocation-free: proximity goes through a reusable
//! epoch-stamped [`SigmaWorkspace`], scores through the epoch-stamped
//! [`DenseAccumulator`], and distinct-tagger counting through a
//! [`StampedSet`]. For sparse-support models (FriendsOnly, PPR, AdamicAdar)
//! the scan is *support-driven* — only the seeker's neighborhood's postings
//! are read, not whole tag posting lists. Per item, contributions still
//! arrive in ascending-user order exactly like the posting-driven scan, so
//! both paths accumulate bit-identical f32 scores and return identical
//! rankings. An optional shared [`ProximityCache`] short-circuits
//! materialization entirely for repeated seekers.

use crate::cache::ProximityCache;
use crate::corpus::{Corpus, QueryStats, SearchResult};
use crate::latency::elapsed_ns;
use crate::processors::{resolve_sigma, Processor, ScoringStrategy};
use crate::proximity::{ProximityModel, Sigma, SigmaBounds, SigmaWorkspace};
use friends_data::queries::Query;
use friends_index::accumulate::{DenseAccumulator, StampedSet};
use friends_index::postings::PostingList;
use friends_index::topk::{BlockMaxWand, SigmaAccum};
use std::sync::Arc;

/// Above this many postings per query, a pruning-capable model routes to
/// block-max instead of a full scan (when no cheaper support probe exists).
/// Below it, the scan's lower constant factor wins. The planner reads the
/// same threshold when it commits a `DistanceDecay` request to `BlockMax`.
pub(crate) const BLOCKMAX_MIN_POSTINGS: usize = 512;

/// Exact network-aware top-k by full evaluation.
pub struct ExactOnline<'a> {
    corpus: &'a Corpus,
    model: ProximityModel,
    acc: DenseAccumulator,
    sigma: SigmaWorkspace,
    seen_users: StampedSet,
    cache: Option<Arc<ProximityCache>>,
    strategy: ScoringStrategy,
    bounds: SigmaBounds,
    bmw: BlockMaxWand,
    /// Query-tag posting lists handed to the operator; reused across
    /// queries (capacity growth is counted as an allocation event).
    bmw_lists: Vec<&'a PostingList>,
    scratch_allocs: u64,
}

impl<'a> ExactOnline<'a> {
    /// Creates the processor with reusable scratch (accumulator + σ
    /// workspace) and no cache.
    pub fn new(corpus: &'a Corpus, model: ProximityModel) -> Self {
        let mut seen_users = StampedSet::new();
        seen_users.ensure(corpus.num_users() as usize);
        ExactOnline {
            acc: DenseAccumulator::new(corpus.num_items() as usize),
            sigma: SigmaWorkspace::new(),
            seen_users,
            corpus,
            model,
            cache: None,
            strategy: ScoringStrategy::Auto,
            bounds: SigmaBounds::EXACT,
            bmw: BlockMaxWand::new(),
            bmw_lists: Vec::new(),
            scratch_allocs: 0,
        }
    }

    /// Like [`ExactOnline::new`], reading σ through a seeker-proximity cache
    /// (typically a service shard's private one). Models whose
    /// materialization is about as cheap as a cache hit
    /// ([`ProximityModel::cache_worthy`] is false) bypass the cache
    /// entirely — its lock is never taken for them.
    pub fn with_cache(
        corpus: &'a Corpus,
        model: ProximityModel,
        cache: Arc<ProximityCache>,
    ) -> Self {
        let mut p = ExactOnline::new(corpus, model);
        p.cache = Some(cache);
        p
    }

    /// Like [`ExactOnline::new`] with a forced [`ScoringStrategy`].
    /// `GlobalTa` is not an `ExactOnline` strategy and behaves like `Auto`;
    /// `SupportProbe` on a dense-σ model falls back to a posting scan (there
    /// is no support list to probe).
    pub fn with_strategy(
        corpus: &'a Corpus,
        model: ProximityModel,
        strategy: ScoringStrategy,
    ) -> Self {
        let mut p = ExactOnline::new(corpus, model);
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

    /// Buffer-growth events across all per-query scratch; constant once the
    /// processor is warm (the zero-allocation contract, see
    /// `tests/hot_path_alloc.rs`).
    pub fn allocation_count(&self) -> u64 {
        self.sigma.allocation_count()
            + self.acc.allocation_count()
            + self.bmw.allocation_count()
            + self.scratch_allocs
    }
}

impl Processor for ExactOnline<'_> {
    fn name(&self) -> &'static str {
        "exact-online"
    }

    fn set_strategy(&mut self, strategy: ScoringStrategy) {
        self.strategy = strategy;
    }

    fn set_bounds(&mut self, bounds: SigmaBounds) {
        self.bounds = bounds;
    }

    fn query(&mut self, q: &Query) -> SearchResult {
        let mut stats = QueryStats::default();
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
        // A lossy σ (positive residual) forces the posting-driven scan: it
        // is the one route that *enumerates* every posting the bounds may
        // have silenced, which is what turns the σ-space residual into a
        // score-space certificate (missed posting weight × residual). The
        // support probe and block-max both skip exactly those postings.
        let lossy = sigma_residual > 0.0;
        self.seen_users.ensure(self.corpus.num_users() as usize);
        self.seen_users.clear();
        let store = &self.corpus.store;
        // Support-driven scoring probes `|support| · |tags|` user profiles
        // (binary searches); posting-driven scans every posting of every
        // query tag with O(1) σ lookups; block-max runs σ-aware WAND over
        // the corpus's σ-aware posting index, skipping whole blocks the
        // seeker cannot score into. All three accumulate bit-identical
        // scores (per item, contributions arrive in the same tag-major,
        // ascending-user order — see `tests/proptest_proximity.rs`), so the
        // choice is purely a cost decision: support probing when the
        // neighborhood is smaller than the posting volume, block-max when a
        // pruning-capable model faces a large posting volume, a plain scan
        // otherwise.
        let posting_total: usize = q
            .tags
            .iter()
            .filter(|&&t| t < store.num_tags())
            .map(|&t| store.tag_taggings(t).len())
            .sum();
        let support_probes = |s: &[_]| s.len().saturating_mul(q.tags.len());
        let support_cheaper = sigma
            .support()
            .is_some_and(|s| support_probes(s) <= posting_total);
        // Auto routes to block-max only where it measurably wins (the fig10
        // gate regime): DistanceDecay's few discrete σ levels give tight
        // envelope bounds, so long lists prune hard. WeightedDecay's
        // high-variance σ and the sparse models' wide per-block tagger
        // ranges keep bounds loose today (see ROADMAP: tagger-id
        // clustering), so they stay on their scan/support paths; forcing
        // `BlockMax` remains available — and exact — for every model.
        let use_blockmax = !lossy
            && match self.strategy {
                ScoringStrategy::BlockMax => true,
                ScoringStrategy::PostingScan | ScoringStrategy::SupportProbe => false,
                _ => {
                    !support_cheaper
                        && matches!(self.model, ProximityModel::DistanceDecay { .. })
                        && posting_total > BLOCKMAX_MIN_POSTINGS
                }
            };
        if use_blockmax {
            let index = self.corpus.sigma_index();
            let cap = self.bmw_lists.capacity();
            self.bmw_lists.clear();
            self.bmw_lists
                .extend(q.tags.iter().filter_map(|&t| index.postings(t)));
            if self.bmw_lists.capacity() != cap {
                self.scratch_allocs += 1;
            }
            let bound = self.model.sigma_bound(q.seeker, &sigma);
            let (items, st) = self
                .bmw
                .search(&self.bmw_lists, &bound, q.k, SigmaAccum::F32);
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
        let force_support =
            !lossy && self.strategy == ScoringStrategy::SupportProbe && sigma.support().is_some();
        let mut missed_w = 0.0f64;
        match sigma.support().filter(|s| {
            !lossy
                && (force_support
                    || (self.strategy != ScoringStrategy::PostingScan
                        && support_probes(s) <= posting_total))
        }) {
            // Support-driven: probe only the neighborhood's postings.
            Some(support) => {
                for &tag in &q.tags {
                    if tag >= store.num_tags() {
                        continue;
                    }
                    for &(user, s) in support {
                        let slice = store.user_tag_taggings(user, tag);
                        if slice.is_empty() {
                            continue;
                        }
                        self.seen_users.insert(user);
                        for t in slice {
                            stats.postings_scanned += 1;
                            self.acc.add(t.item, (s * t.weight as f64) as f32);
                        }
                    }
                }
            }
            // Posting-driven: scan each tag list, O(1) σ lookups.
            None => {
                for &tag in &q.tags {
                    if tag >= store.num_tags() {
                        continue;
                    }
                    for t in store.tag_taggings(tag) {
                        stats.postings_scanned += 1;
                        let s = sigma.get(t.user);
                        if s > 0.0 {
                            self.acc.add(t.item, (s * t.weight as f64) as f32);
                            self.seen_users.insert(t.user);
                        } else if lossy {
                            // The tagger reads σ = 0 under a lossy σ: its
                            // true proximity may be anything up to the
                            // residual, so its whole posting weight feeds
                            // the score-space certificate.
                            missed_w += t.weight as f64;
                        }
                    }
                }
            }
        }
        stats.users_visited = self.seen_users.len();
        let items = self.acc.drain_topk(q.k);
        stats.scoring_ns = elapsed_ns(scoring_start);
        SearchResult {
            items,
            stats,
            residual: sigma_residual * missed_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use friends_data::store::TagStore;
    use friends_data::Tagging;
    use friends_graph::GraphBuilder;

    /// Seeker 0 — friend 1 — stranger 2 (two hops). Both tag different items.
    fn chain_corpus() -> Corpus {
        let g = GraphBuilder::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]);
        let s = TagStore::build(
            3,
            3,
            1,
            vec![
                Tagging::unit(1, 0, 0), // friend tags item 0
                Tagging::unit(2, 1, 0), // stranger tags item 1
                Tagging::unit(2, 1, 0), // (dup merges to weight 2)
            ],
        );
        Corpus::new(g, s)
    }

    #[test]
    fn personalization_beats_popularity() {
        let corpus = chain_corpus();
        // Globally item 1 (weight 2) beats item 0 (weight 1)...
        let mut global = ExactOnline::new(&corpus, ProximityModel::Global);
        let rg = global.query(&Query {
            seeker: 0,
            tags: vec![0],
            k: 2,
        });
        assert_eq!(rg.item_ids(), vec![1, 0]);
        // ...but with decay 0.5 the friend's item 0 wins for seeker 0:
        // item 0: 0.5·1 = 0.5; item 1: 0.25·2 = 0.5 — tie! Use alpha = 0.4:
        // item 0: 0.4; item 1: 0.16·2 = 0.32.
        let mut exact = ExactOnline::new(&corpus, ProximityModel::DistanceDecay { alpha: 0.4 });
        let re = exact.query(&Query {
            seeker: 0,
            tags: vec![0],
            k: 2,
        });
        assert_eq!(re.item_ids(), vec![0, 1]);
        assert!((re.items[0].1 - 0.4).abs() < 1e-6);
        assert!((re.items[1].1 - 0.32).abs() < 1e-6);
    }

    #[test]
    fn friends_only_excludes_strangers() {
        let corpus = chain_corpus();
        let mut p = ExactOnline::new(&corpus, ProximityModel::FriendsOnly);
        let r = p.query(&Query {
            seeker: 0,
            tags: vec![0],
            k: 5,
        });
        assert_eq!(r.item_ids(), vec![0]); // stranger's item invisible
                                           // Support-driven scan never reads the stranger's posting.
        assert_eq!(r.stats.postings_scanned, 1);
        assert_eq!(r.stats.users_visited, 1);
    }

    #[test]
    fn accumulator_reuse_is_clean_across_queries() {
        let corpus = chain_corpus();
        let mut p = ExactOnline::new(&corpus, ProximityModel::Global);
        let q = Query {
            seeker: 0,
            tags: vec![0],
            k: 5,
        };
        let a = p.query(&q);
        let b = p.query(&q);
        assert_eq!(a.items, b.items);
    }

    #[test]
    fn unknown_tag_is_ignored() {
        let corpus = chain_corpus();
        let mut p = ExactOnline::new(&corpus, ProximityModel::Global);
        let r = p.query(&Query {
            seeker: 0,
            tags: vec![0, 77],
            k: 5,
        });
        assert_eq!(r.items.len(), 2);
    }

    #[test]
    fn stats_count_work() {
        let corpus = chain_corpus();
        let mut p = ExactOnline::new(&corpus, ProximityModel::Global);
        let r = p.query(&Query {
            seeker: 0,
            tags: vec![0],
            k: 5,
        });
        assert_eq!(r.stats.postings_scanned, 2); // merged duplicate = 1 posting
        assert_eq!(r.stats.users_visited, 2);
    }

    #[test]
    fn disconnected_seeker_sees_only_self() {
        let g = GraphBuilder::from_edges(3, [(1, 2, 1.0)]);
        let s = TagStore::build(
            3,
            2,
            1,
            vec![Tagging::unit(0, 0, 0), Tagging::unit(1, 1, 0)],
        );
        let corpus = Corpus::new(g, s);
        let mut p = ExactOnline::new(&corpus, ProximityModel::DistanceDecay { alpha: 0.5 });
        let r = p.query(&Query {
            seeker: 0,
            tags: vec![0],
            k: 5,
        });
        assert_eq!(r.item_ids(), vec![0]);
    }

    #[test]
    fn cached_queries_return_identical_results() {
        use friends_data::datasets::{DatasetSpec, Scale};
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(4);
        let corpus = Corpus::new(ds.graph, ds.store);
        let cache = Arc::new(ProximityCache::new(64));
        for model in [
            ProximityModel::FriendsOnly,
            ProximityModel::WeightedDecay { alpha: 0.5 },
            ProximityModel::Ppr {
                alpha: 0.2,
                epsilon: 1e-4,
            },
        ] {
            let mut plain = ExactOnline::new(&corpus, model);
            let mut cached = ExactOnline::with_cache(&corpus, model, Arc::clone(&cache));
            let q = Query {
                seeker: 7,
                tags: vec![0, 1, 2],
                k: 10,
            };
            let want = plain.query(&q);
            let miss = cached.query(&q); // populates (cache-worthy models)
            let hit = cached.query(&q); // served from cache
            assert_eq!(want.items, miss.items, "{}", model.name());
            assert_eq!(want.items, hit.items, "{}", model.name());
        }
        // WeightedDecay and PPR each hit on their second query; FriendsOnly
        // is not cache-worthy and must bypass the cache entirely.
        assert_eq!(cache.stats().hits, 2);
    }

    /// The satellite regression: dense σ snapshots used to answer
    /// `support()` with `None`, so block-max's support prune never fired on
    /// cached decay-model hits no matter how tiny the seeker's reach. With
    /// reach-proportional `Touched` snapshots the cached hit carries its
    /// exact support, and whole stranger blocks are skipped undecoded.
    #[test]
    fn cached_decay_hit_takes_the_support_pruned_path() {
        use friends_data::Tagging;
        let n = 2048u32;
        // Seeker 0's world: a 16-node ring; everyone else is unreachable.
        let g = GraphBuilder::from_edges(n as usize, (0..16u32).map(|i| (i, (i + 1) % 16, 1.0)));
        // Tag 0: ~1024 stranger-tagged items (users 1000..), so the σ-aware
        // index has dozens of blocks whose tagger ranges miss the seeker's
        // component entirely — plus two friend-tagged items at the end.
        let mut taggings: Vec<Tagging> = (0..1024u32)
            .map(|i| Tagging::unit(1000 + (i % 1000), i, 0))
            .collect();
        taggings.push(Tagging::unit(1, 2000, 0));
        taggings.push(Tagging::unit(2, 2001, 0));
        let store = TagStore::build(n, 2002, 1, taggings);
        let corpus = Corpus::new(g, store);
        corpus.sigma_index();
        let model = ProximityModel::DistanceDecay { alpha: 0.5 };
        let cache = Arc::new(ProximityCache::new(16));
        let mut p = ExactOnline::with_cache(&corpus, model, Arc::clone(&cache));
        p.set_strategy(ScoringStrategy::BlockMax);
        let q = Query {
            seeker: 0,
            tags: vec![0],
            k: 5,
        };
        let miss = p.query(&q); // materializes + publishes a Touched snapshot
        assert_eq!(cache.stats().insertions, 1);
        let hit = p.query(&q); // served from the cached Touched σ
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(miss.items, hit.items, "cache must never change answers");
        assert_eq!(hit.item_ids(), vec![2000, 2001]);
        // Workspace-σ miss: dense-model support is unknown, the envelope is
        // alpha > 0, and the heap never fills — nothing can be skipped.
        assert_eq!(miss.stats.blocks_skipped, 0, "{:?}", miss.stats);
        // Cached Touched hit: stranger blocks bound to σ-max 0 and are
        // skipped without decoding a single tagger group.
        assert!(
            hit.stats.blocks_skipped >= 30,
            "support prune must fire on the cached hit: {:?}",
            hit.stats
        );
        assert!(hit.stats.postings_scanned < miss.stats.postings_scanned);
    }

    #[test]
    fn cheap_models_bypass_the_cache() {
        use friends_data::datasets::{DatasetSpec, Scale};
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(4);
        let corpus = Corpus::new(ds.graph, ds.store);
        let q = Query {
            seeker: 3,
            tags: vec![0, 1],
            k: 10,
        };
        for model in [ProximityModel::FriendsOnly, ProximityModel::Global] {
            let cache = Arc::new(ProximityCache::new(64));
            let mut plain = ExactOnline::new(&corpus, model);
            let mut cached = ExactOnline::with_cache(&corpus, model, Arc::clone(&cache));
            let want = plain.query(&q);
            for _ in 0..3 {
                assert_eq!(want.items, cached.query(&q).items, "{}", model.name());
            }
            let stats = cache.stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.insertions, stats.entries),
                (0, 0, 0, 0),
                "{}: cache must never be touched",
                model.name()
            );
        }
    }
}
