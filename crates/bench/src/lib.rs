//! Shared harness utilities for the benchmark suite and the `report` binary
//! that regenerates every table and figure of the evaluation (see
//! `EXPERIMENTS.md` for the experiment ↔ code index).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod explain;

use friends_core::cache::ProximityCache;
use friends_core::corpus::{Corpus, QueryStats, SearchResult};
use friends_core::plan::{ProcessorRegistry, QueryRequest};
use friends_core::processors::Processor;
use friends_core::proximity::{ProximityModel, Sigma, SigmaWorkspace};
use friends_data::queries::{Query, QueryWorkload};
use friends_data::requests::{RequestParams, RequestStream};
use friends_data::zipf::Zipf;
use friends_index::accumulate::DenseAccumulator;
use friends_service::{SearchClient, ServedClient, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A Zipf-skewed query workload: seekers drawn Zipf(θ) over the user
/// universe (rank = user id) and 1–3 tags drawn Zipf(1.0) over the tag
/// universe — the shape of real serving traffic, where a small set of heavy
/// seekers dominates. This is the regime the seeker-proximity cache and the
/// `fig9_hot_path` comparison target.
pub fn zipf_seeker_workload(
    corpus: &Corpus,
    count: usize,
    k: usize,
    theta: f64,
    seed: u64,
) -> QueryWorkload {
    let users = corpus.num_users() as usize;
    let tags = corpus.store.num_tags() as usize;
    assert!(users > 0 && tags > 0, "need a non-empty corpus");
    let seeker_z = Zipf::new(users, theta);
    let tag_z = Zipf::new(tags, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        let seeker = seeker_z.sample(&mut rng) as u32;
        let want = 1 + (seeker as usize % 3).min(tags - 1);
        let mut qtags: Vec<u32> = (0..want.max(1))
            .map(|_| tag_z.sample(&mut rng) as u32)
            .collect();
        qtags.sort_unstable();
        qtags.dedup();
        queries.push(Query {
            seeker,
            tags: qtags,
            k,
        });
    }
    QueryWorkload { queries }
}

/// A tag-selectivity-controlled workload for the strategy comparison
/// (fig10): every query draws 1–2 tags from either the **head** (most
/// heavily used tags — long posting lists, the low-selectivity regime where
/// block-max pruning matters) or the **tail** (rarely used tags) of the
/// corpus's tag-popularity ranking, with uniformly random seekers.
pub fn selectivity_workload(
    corpus: &Corpus,
    count: usize,
    k: usize,
    head: bool,
    seed: u64,
) -> QueryWorkload {
    let mut by_len: Vec<u32> = (0..corpus.store.num_tags())
        .filter(|&t| !corpus.store.tag_taggings(t).is_empty())
        .collect();
    assert!(
        !by_len.is_empty() && corpus.num_users() > 0,
        "need a non-empty corpus"
    );
    by_len.sort_unstable_by_key(|&t| std::cmp::Reverse(corpus.store.tag_taggings(t).len()));
    let pool: Vec<u32> = if head {
        by_len
            .iter()
            .copied()
            .take((by_len.len() / 8).max(2))
            .collect()
    } else {
        let skip = by_len.len() / 2;
        by_len.iter().copied().skip(skip).collect()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        let seeker = rng.gen_range(0..corpus.num_users());
        let mut tags = vec![pool[rng.gen_range(0..pool.len())]];
        if pool.len() > 1 && rng.gen_bool(0.5) {
            tags.push(pool[rng.gen_range(0..pool.len())]);
            tags.sort_unstable();
            tags.dedup();
        }
        queries.push(Query { seeker, tags, k });
    }
    QueryWorkload { queries }
}

/// The dense-materialize benchmark baseline (registered as
/// [`DENSE_MATERIALIZE`]): a fresh dense `O(n)` σ vector per query
/// ([`ProximityModel::materialize`]) and a full posting-list scan per tag.
/// `fig9_hot_path` measures the workspace/sparse/cached paths against this.
pub struct DenseMaterializeExact<'a> {
    corpus: &'a Corpus,
    model: ProximityModel,
    acc: DenseAccumulator,
}

impl<'a> DenseMaterializeExact<'a> {
    pub fn new(corpus: &'a Corpus, model: ProximityModel) -> Self {
        DenseMaterializeExact {
            acc: DenseAccumulator::new(corpus.num_items() as usize),
            corpus,
            model,
        }
    }
}

impl Processor for DenseMaterializeExact<'_> {
    fn name(&self) -> &'static str {
        "dense-materialize-exact"
    }

    fn query(&mut self, q: &Query) -> SearchResult {
        let sigma_start = Instant::now();
        let sigma = self.model.materialize(&self.corpus.graph, q.seeker);
        let mut stats = QueryStats {
            sigma_ns: friends_core::latency::elapsed_ns(sigma_start),
            ..QueryStats::default()
        };
        let scoring_start = Instant::now();
        let mut users = std::collections::HashSet::new();
        for &tag in &q.tags {
            if tag >= self.corpus.store.num_tags() {
                continue;
            }
            for t in self.corpus.store.tag_taggings(tag) {
                stats.postings_scanned += 1;
                let s = sigma[t.user as usize];
                if s > 0.0 {
                    self.acc.add(t.item, (s * t.weight as f64) as f32);
                    users.insert(t.user);
                }
            }
        }
        stats.users_visited = users.len();
        let items = self.acc.drain_topk(q.k);
        stats.scoring_ns = friends_core::latency::elapsed_ns(scoring_start);
        SearchResult {
            items,
            stats,
            residual: 0.0,
        }
    }
}

/// Registry name of the [`DenseMaterializeExact`] baseline entry.
pub const DENSE_MATERIALIZE: &str = "dense-materialize";

/// The standard registry plus the [`DenseMaterializeExact`] baseline under
/// [`DENSE_MATERIALIZE`], so a client can run the fig9 baseline arm by
/// naming it in [`QueryRequest::with_processor`].
pub fn registry_with_dense_baseline() -> Arc<ProcessorRegistry> {
    let mut registry = ProcessorRegistry::standard();
    registry.register(DENSE_MATERIALIZE, |corpus, model, _cache| {
        Box::new(DenseMaterializeExact::new(corpus, model))
    });
    Arc::new(registry)
}

/// [`SearchClient::search`] with a processor override: floods `queries`
/// under `model` through the `processor` registry entry, deadline-free,
/// and unwraps the results in input order.
pub fn search_with(
    client: &dyn SearchClient,
    queries: &[Query],
    model: ProximityModel,
    processor: &'static str,
) -> Vec<SearchResult> {
    let requests = queries
        .iter()
        .map(|q| {
            QueryRequest::from_query(q.clone())
                .with_model(model)
                .with_processor(processor)
                .without_deadline()
        })
        .collect();
    client
        .run_batch(requests)
        .into_iter()
        .map(|r| r.outcome.expect_done("search_with"))
        .collect()
}

/// Closed-loop capacity (requests/s) of an exact `shards`-shard service:
/// floods a `count`-request probe stream of the given `shape` and divides
/// by the elapsed time. The probe runs one request per dispatch cycle, so
/// every request is its own execution: a flood drained in wide cycles
/// coalesces duplicates across the whole stream — merging far more than any
/// bounded in-flight window ever sees — which would overstate sustainable
/// capacity several-fold.
pub fn probe_capacity(
    corpus: &Arc<Corpus>,
    shards: usize,
    model: ProximityModel,
    shape: &RequestParams,
    count: usize,
    seed: u64,
) -> f64 {
    let probe = RequestStream::generate(
        &corpus.graph,
        &corpus.store,
        &RequestParams {
            count,
            ..shape.clone()
        },
        seed,
    )
    .queries();
    let client = ServedClient::start(
        Arc::clone(corpus),
        ServiceConfig {
            shards,
            max_batch: 1,
            ..ServiceConfig::default()
        },
    );
    let (_, elapsed) = timed(|| client.search(&probe, model));
    client.shutdown();
    probe.len() as f64 / elapsed.as_secs_f64()
}

/// The serving-regime corpus fig11 measures on: a 10k-scale social graph
/// with few, heavy tags (the fig10 gate's shape — long posting lists), so
/// per-query cost is dominated by *scoring* rather than by the one-off
/// per-seeker σ materialization. This is the regime a serving tier lives
/// in: σ vectors are cached after first contact, and what each request
/// costs is reading postings — exactly the work request coalescing
/// removes for duplicate in-flight queries.
pub fn serving_corpus(users: usize, seed: u64) -> Corpus {
    use friends_data::generator::{generate, WorkloadParams};
    use friends_graph::generators::{self, WeightModel};
    let base = generators::barabasi_albert(users, 8, seed);
    let graph = generators::assign_weights(&base, WeightModel::Jaccard { floor: 0.1 }, seed);
    let store = generate(
        &graph,
        &WorkloadParams {
            num_items: (users * 5) as u32,
            num_tags: 64,
            mean_taggings_per_user: 100.0,
            item_theta: 1.1,
            tag_theta: 1.0,
            homophily: 0.5,
            weighted: true,
        },
        seed,
    );
    Corpus::new(graph, store)
}

/// The corpus fig13 measures overload on: a scale-free social graph whose
/// weighted-decay σ materialization requires a whole-graph traversal
/// (small diameter, one giant component), with **many light tags** so
/// per-query cost is dominated by σ materialization rather than scoring.
/// This is the regime where bounded-σ degradation buys real capacity: a
/// radius-bounded traversal touches a small neighborhood instead of the
/// whole graph, while the posting scan it feeds stays cheap either way.
pub fn overload_corpus(users: usize, seed: u64) -> Corpus {
    use friends_data::generator::{generate, WorkloadParams};
    use friends_graph::generators::{self, WeightModel};
    let base = generators::barabasi_albert(users, 8, seed);
    let graph = generators::assign_weights(&base, WeightModel::Jaccard { floor: 0.1 }, seed);
    let store = generate(
        &graph,
        &WorkloadParams {
            num_items: (users * 2) as u32,
            num_tags: ((users / 16).max(64)) as u32,
            mean_taggings_per_user: 20.0,
            item_theta: 1.1,
            tag_theta: 1.0,
            homophily: 0.5,
            weighted: true,
        },
        seed,
    );
    Corpus::new(graph, store)
}

/// The corpus fig12 measures on: an **archipelago** of disjoint
/// `community`-sized islands (ring + random chords, Jaccard-like tie
/// strengths) covering `users` users in total. Every seeker's reachable
/// set — and therefore every decay-model σ — is one island, a small
/// fraction of the user universe, which is the regime where the `O(n)`
/// dense snapshot dwarfs the traversal itself and reach-proportional
/// materialization pays. Tags are numerous and light, so per-query scoring
/// stays small relative to σ materialization (the cost fig12 isolates).
pub fn archipelago_corpus(users: usize, community: usize, seed: u64) -> Corpus {
    use friends_data::generator::{generate, WorkloadParams};
    use friends_graph::GraphBuilder;
    assert!(community >= 3 && users >= community);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA2C1);
    let mut edges: Vec<(u32, u32, f32)> = Vec::new();
    let mut base = 0usize;
    while base < users {
        let size = community.min(users - base);
        if size >= 2 {
            for i in 0..size {
                let u = (base + i) as u32;
                let v = (base + (i + 1) % size) as u32;
                if u != v {
                    edges.push((u, v, 0.3 + 0.7 * rng.gen_range(0.0f32..1.0)));
                }
            }
            // A few chords per island: realistic clustering, diameter ~log.
            for _ in 0..size / 4 {
                let u = (base + rng.gen_range(0..size)) as u32;
                let v = (base + rng.gen_range(0..size)) as u32;
                if u != v {
                    edges.push((u, v, 0.1 + 0.5 * rng.gen_range(0.0f32..1.0)));
                }
            }
        }
        base += size;
    }
    let graph = GraphBuilder::from_edges(users, edges);
    let store = generate(
        &graph,
        &WorkloadParams {
            num_items: (users * 4) as u32,
            num_tags: ((users / 8).max(64)) as u32,
            mean_taggings_per_user: 20.0,
            item_theta: 1.1,
            tag_theta: 1.0,
            homophily: 0.5,
            weighted: true,
        },
        seed,
    );
    Corpus::new(graph, store)
}

/// A **seeker-diverse** workload: every query carries a distinct seeker
/// (no repeats at all), so neither the proximity cache nor result
/// memoization can help — every query pays the cold σ-materialization
/// path, which is exactly what fig12 measures. Tags are drawn from the
/// light tail of the popularity ranking to keep scoring cheap.
pub fn distinct_seeker_workload(
    corpus: &Corpus,
    count: usize,
    k: usize,
    seed: u64,
) -> QueryWorkload {
    let users = corpus.num_users() as usize;
    assert!(
        count <= users,
        "cannot draw {count} distinct seekers from {users}"
    );
    let mut by_len: Vec<u32> = (0..corpus.store.num_tags())
        .filter(|&t| !corpus.store.tag_taggings(t).is_empty())
        .collect();
    assert!(!by_len.is_empty());
    by_len.sort_unstable_by_key(|&t| corpus.store.tag_taggings(t).len());
    let pool: Vec<u32> = by_len
        .iter()
        .copied()
        .take((by_len.len() / 2).max(2))
        .collect();
    // A fixed odd stride coprime with most universe sizes spreads the
    // distinct seekers across every island.
    let stride = (users / 2 + 1) | 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = vec![false; users];
    let mut seeker = 0usize;
    let mut queries = Vec::with_capacity(count);
    for i in 0..count {
        while seen[seeker] {
            seeker = (seeker + 1) % users;
        }
        seen[seeker] = true;
        let mut tags = vec![pool[rng.gen_range(0..pool.len())]];
        if pool.len() > 1 && rng.gen_bool(0.5) {
            tags.push(pool[rng.gen_range(0..pool.len())]);
            tags.sort_unstable();
            tags.dedup();
        }
        queries.push(Query {
            seeker: seeker as u32,
            tags,
            k,
        });
        seeker = (seeker + stride * (1 + i % 3)) % users;
    }
    QueryWorkload { queries }
}

/// The pre-PR cache **miss path**, kept as the fig12 baseline: σ goes
/// through the same epoch-stamped workspace, but every cold seeker
/// publishes a **dense `O(n)` snapshot** into the shared cache
/// ([`SigmaWorkspace::snapshot_dense`]) before the posting scan — the
/// "dense σ snapshots are O(n) on cache miss" floor the reach-proportional
/// `Touched` representation removes. Scoring is the identical posting
/// scan, so ranking differences are impossible and the comparison isolates
/// snapshot construction + cache-resident size.
pub struct DenseSnapshotExact<'a> {
    corpus: &'a Corpus,
    model: ProximityModel,
    acc: DenseAccumulator,
    sigma: SigmaWorkspace,
    cache: Arc<ProximityCache>,
}

impl<'a> DenseSnapshotExact<'a> {
    pub fn new(corpus: &'a Corpus, model: ProximityModel, cache: Arc<ProximityCache>) -> Self {
        DenseSnapshotExact {
            acc: DenseAccumulator::new(corpus.num_items() as usize),
            sigma: SigmaWorkspace::new(),
            corpus,
            model,
            cache,
        }
    }
}

impl Processor for DenseSnapshotExact<'_> {
    fn name(&self) -> &'static str {
        "dense-snapshot-exact"
    }

    fn query(&mut self, q: &Query) -> SearchResult {
        let mut stats = QueryStats::default();
        let sigma_start = Instant::now();
        let cached = self.cache.get(&self.corpus.graph, q.seeker, self.model);
        let sigma = match &cached {
            Some(v) => Sigma::Shared(v.as_ref()),
            None => {
                self.model
                    .materialize_into(&self.corpus.graph, q.seeker, &mut self.sigma);
                self.cache.insert(
                    &self.corpus.graph,
                    q.seeker,
                    self.model,
                    Arc::new(self.sigma.snapshot_dense(self.corpus.graph.num_nodes())),
                );
                Sigma::Workspace(&self.sigma)
            }
        };
        stats.sigma_ns = friends_core::latency::elapsed_ns(sigma_start);
        let scoring_start = Instant::now();
        for &tag in &q.tags {
            if tag >= self.corpus.store.num_tags() {
                continue;
            }
            for t in self.corpus.store.tag_taggings(tag) {
                stats.postings_scanned += 1;
                let s = sigma.get(t.user);
                if s > 0.0 {
                    self.acc.add(t.item, (s * t.weight as f64) as f32);
                }
            }
        }
        let items = self.acc.drain_topk(q.k);
        stats.scoring_ns = friends_core::latency::elapsed_ns(scoring_start);
        SearchResult {
            items,
            stats,
            residual: 0.0,
        }
    }
}

/// Drives a small repeat-query request stream through a transient
/// planner-backed [`friends_service::ServedClient`] twice and returns the
/// aggregated shard totals — the observability sample `report --json`
/// embeds so every summary records proximity-cache, result-cache and
/// planner-histogram behavior alongside the timings.
pub fn service_probe() -> friends_service::ShardStats {
    use friends_data::datasets::{DatasetSpec, Scale};
    use friends_data::requests::{RequestParams, RequestStream};
    use friends_service::{SearchClient, ServedClient, ServiceConfig};
    use std::sync::Arc;

    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(42);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    let stream = RequestStream::generate(
        &corpus.graph,
        &corpus.store,
        &RequestParams {
            count: 300,
            ..RequestParams::default()
        },
        11,
    );
    let client = ServedClient::start(
        Arc::clone(&corpus),
        ServiceConfig {
            shards: 2,
            // Tiny caches so admission and eviction both have to act: the
            // σ budget holds about 16 of this corpus's vectors.
            cache_bytes: 64 << 10,
            result_cache_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    let queries = stream.queries();
    client.search(&queries, ProximityModel::WeightedDecay { alpha: 0.5 });
    client.search(&queries, ProximityModel::WeightedDecay { alpha: 0.5 });
    client.shutdown().totals()
}

/// The proximity-cache slice of [`service_probe`] (kept for summary
/// diffing across PRs).
pub fn service_cache_probe() -> friends_core::cache::CacheStats {
    service_probe().cache
}

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Mean of durations in microseconds (0.0 for empty input).
pub fn mean_us(ds: &[Duration]) -> f64 {
    if ds.is_empty() {
        return 0.0;
    }
    ds.iter().map(|d| d.as_secs_f64() * 1e6).sum::<f64>() / ds.len() as f64
}

/// Percentile (0.0–1.0) of durations in microseconds, linearly
/// interpolated between the two bracketing order statistics at
/// `idx = q·(n-1)`. The old nearest-rank form rounded to whichever sample
/// was closer — p50 of `[1, 3]` reported 1 or 3, never 2 — which biased
/// every small-sample tail column by up to a full sample.
pub fn percentile_us(ds: &[Duration], q: f64) -> f64 {
    percentiles_us(ds, &[q])[0]
}

/// Several percentiles of one sample set from a single sorted pass
/// (callers asking for p50 **and** p95/p99 used to re-sort per quantile).
/// Quantiles are linearly interpolated like [`percentile_us`]; an empty
/// input yields all zeros.
pub fn percentiles_us(ds: &[Duration], qs: &[f64]) -> Vec<f64> {
    if ds.is_empty() {
        return vec![0.0; qs.len()];
    }
    let mut v: Vec<f64> = ds.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    v.sort_unstable_by(|a, b| a.total_cmp(b));
    qs.iter()
        .map(|&q| {
            let idx = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            v[lo] + (idx - lo as f64) * (v[hi] - v[lo])
        })
        .collect()
}

/// A plain-text aligned table, the output format of every experiment.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncol {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A [`criterion::Criterion`] configured with the pprof flamegraph
/// profiler, for the fig benches' `criterion_group!` config arm. Behind
/// the `flamegraph` feature so the default CI bench build stays free of
/// profiler hooks:
///
/// ```sh
/// cargo bench -p friends-bench --features flamegraph --bench fig9_hot_path
/// ```
#[cfg(feature = "flamegraph")]
pub fn profiled_criterion() -> criterion::Criterion {
    use pprof::criterion::{Output, PProfProfiler};
    criterion::Criterion::default()
        .with_profiler(PProfProfiler::new(1000, Output::Flamegraph(None)))
}

/// Formats a byte count human-readably.
pub fn fmt_bytes(b: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut x = b as f64;
    let mut u = 0;
    while x >= 1024.0 && u < UNITS.len() - 1 {
        x /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{x:.1} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use friends_data::datasets::{DatasetSpec, Scale};

    #[test]
    fn zipf_workload_is_skewed_and_well_formed() {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(3);
        let corpus = Corpus::new(ds.graph, ds.store);
        let w = zipf_seeker_workload(&corpus, 500, 10, 1.2, 9);
        assert_eq!(w.len(), 500);
        let mut counts = std::collections::HashMap::new();
        for q in &w.queries {
            assert!(q.seeker < corpus.num_users());
            assert!(!q.tags.is_empty());
            assert!(q.tags.iter().all(|&t| t < corpus.store.num_tags()));
            assert!(q.tags.windows(2).all(|p| p[0] < p[1]));
            *counts.entry(q.seeker).or_insert(0usize) += 1;
        }
        // Skew: the distinct-seeker count must be far below the query count
        // (that repetition is what the proximity cache exploits).
        assert!(
            counts.len() * 2 < w.len(),
            "only {} distinct seekers over {} queries",
            counts.len(),
            w.len()
        );
    }

    #[test]
    fn dense_baseline_matches_exact_online() {
        use friends_core::processors::{ExactOnline, Processor};
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(5);
        let corpus = Corpus::new(ds.graph, ds.store);
        let w = zipf_seeker_workload(&corpus, 40, 10, 1.0, 11);
        for model in [
            ProximityModel::FriendsOnly,
            ProximityModel::WeightedDecay { alpha: 0.5 },
            ProximityModel::AdamicAdar,
        ] {
            let mut baseline = DenseMaterializeExact::new(&corpus, model);
            let mut current = ExactOnline::new(&corpus, model);
            for q in &w.queries {
                assert_eq!(
                    baseline.query(q).items,
                    current.query(q).items,
                    "{} {q:?}",
                    model.name()
                );
            }
        }
    }

    /// Timing gates measure wall-clock throughput and tail latency; two of
    /// them racing for the same cores turns both into noise. Every gate
    /// takes this lock, so `--include-ignored` runs them serially no matter
    /// how many test threads the harness uses.
    static TIMING_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serialize_timing_gate() -> std::sync::MutexGuard<'static, ()> {
        TIMING_GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The fig9 acceptance gate: ≥ 2× batch throughput for sparse-support
    /// models against the dense-materialize baseline on Zipf-skewed traffic
    /// at serving scale (10k users; the baseline pays an `O(n)` tax per
    /// query), both through a 4-shard [`ServedClient`] taking one request
    /// per dispatch cycle — cache-less (a zero σ byte budget) for the
    /// baseline entry, fresh shard-private caches per trial for the
    /// standard one. Best-of-3 trials absorb scheduler noise.
    /// Timing assertions are machine-sensitive, so the test is `#[ignore]`d
    /// for CI; run it via `cargo test --release -p friends-bench -- --ignored`.
    #[test]
    #[ignore]
    fn fig9_speedup_gate() {
        let _serial = serialize_timing_gate();
        let ds = DatasetSpec::delicious_like(Scale::Custom(10_000)).build(42);
        let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
        let w = zipf_seeker_workload(&corpus, 2_000, 10, 1.4, 7);
        let pool = |cache_bytes| {
            ServedClient::with_registry(
                Arc::clone(&corpus),
                ServiceConfig {
                    shards: 4,
                    cache_bytes,
                    max_batch: 1,
                    ..ServiceConfig::default()
                },
                registry_with_dense_baseline(),
            )
        };
        let dense_client = pool(0);
        // Cache-worthy models must win ≥ 2× through the shared cache.
        // FriendsOnly bypasses the cache by policy (a hit costs about as
        // much as materializing), so its bar is the workspace path at a
        // slightly lower threshold — the bypass must not lose what the
        // cache used to provide.
        for (model, bar) in [
            (ProximityModel::FriendsOnly, 1.5),
            (ProximityModel::WeightedDecay { alpha: 0.5 }, 2.0),
            (
                ProximityModel::Ppr {
                    alpha: 0.2,
                    epsilon: 1e-4,
                },
                2.0,
            ),
        ] {
            let best = (0..3)
                .map(|_| {
                    let (_, dense) =
                        timed(|| search_with(&dense_client, &w.queries, model, DENSE_MATERIALIZE));
                    let cached_client = pool(ServiceConfig::default().cache_bytes);
                    let (_, cached) = timed(|| cached_client.search(&w.queries, model));
                    dense.as_secs_f64() / cached.as_secs_f64()
                })
                .fold(0.0f64, f64::max);
            eprintln!("fig9 {}: best {best:.2}x (bar {bar}x)", model.name());
            assert!(
                best >= bar,
                "{}: cached path only {best:.2}x over dense-materialize (bar {bar}x)",
                model.name()
            );
        }
    }

    #[test]
    fn selectivity_workload_is_well_formed() {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(3);
        let corpus = Corpus::new(ds.graph, ds.store);
        let head = selectivity_workload(&corpus, 200, 10, true, 5);
        let tail = selectivity_workload(&corpus, 200, 10, false, 5);
        let volume = |w: &QueryWorkload| -> usize {
            w.queries
                .iter()
                .flat_map(|q| q.tags.iter())
                .map(|&t| corpus.store.tag_taggings(t).len())
                .sum()
        };
        for w in [&head, &tail] {
            assert_eq!(w.len(), 200);
            for q in &w.queries {
                assert!(q.seeker < corpus.num_users());
                assert!(!q.tags.is_empty() && q.tags.len() <= 2);
                assert!(q.tags.iter().all(|&t| t < corpus.store.num_tags()));
            }
        }
        assert!(
            volume(&head) > 2 * volume(&tail),
            "head workload must carry far more postings: {} vs {}",
            volume(&head),
            volume(&tail)
        );
    }

    /// The fig10 acceptance gate: on low-selectivity personalized queries —
    /// popular tags whose posting lists dwarf the graph, so scoring (not σ
    /// materialization) dominates — the block-max σ-aware WAND strategy must
    /// beat the full posting scan for the decay models: the pruning the
    /// σ-aware block metadata exists to enable. Best-of-3 trials absorb
    /// scheduler noise; machine-sensitive, so `#[ignore]`d for CI like fig9
    /// (run via `cargo test --release -p friends-bench -- --ignored`).
    #[test]
    #[ignore]
    fn fig10_blockmax_gate() {
        let _serial = serialize_timing_gate();
        use friends_core::processors::{ExactOnline, Processor, ScoringStrategy};
        use friends_data::generator::{generate, WorkloadParams};
        use friends_graph::generators::{self, WeightModel};
        let base = generators::barabasi_albert(10_000, 8, 42);
        let graph = generators::assign_weights(&base, WeightModel::Jaccard { floor: 0.1 }, 42);
        let store = generate(
            &graph,
            &WorkloadParams {
                num_items: 50_000,
                num_tags: 16, // few, heavy tags: every query is low-selectivity
                mean_taggings_per_user: 150.0,
                item_theta: 1.1,
                tag_theta: 1.0,
                homophily: 0.5,
                weighted: true,
            },
            42,
        );
        let corpus = Corpus::new(graph, store);
        corpus.sigma_index(); // shared build, outside the timed region
        let w = selectivity_workload(&corpus, 400, 10, true, 17);
        // DistanceDecay is the pruning-friendly regime (σ takes a few
        // discrete levels, so the envelope is tight); WeightedDecay's
        // high-variance σ keeps range bounds loose — it stays exact but is
        // not gated (ROADMAP: tagger-id clustering would recover it).
        for model in [
            ProximityModel::DistanceDecay { alpha: 0.3 },
            ProximityModel::DistanceDecay { alpha: 0.5 },
        ] {
            let best = (0..3)
                .map(|_| {
                    let mut scan =
                        ExactOnline::with_strategy(&corpus, model, ScoringStrategy::PostingScan);
                    let mut bm =
                        ExactOnline::with_strategy(&corpus, model, ScoringStrategy::BlockMax);
                    let (_, scan_d) = timed(|| {
                        for q in &w.queries {
                            std::hint::black_box(scan.query(q));
                        }
                    });
                    let (_, bm_d) = timed(|| {
                        for q in &w.queries {
                            std::hint::black_box(bm.query(q));
                        }
                    });
                    scan_d.as_secs_f64() / bm_d.as_secs_f64()
                })
                .fold(0.0f64, f64::max);
            assert!(
                best >= 1.2,
                "{}: block-max only {best:.2}x over full posting scan",
                model.name()
            );
        }
    }

    /// The fig11 acceptance gate, invoked through the unified client API:
    /// on a Zipf(1.1) repeat-query request stream at serving scale (10k
    /// users), a [`friends_service::ServedClient`] — planner-backed
    /// seeker-affinity broker, coalescing duplicate in-flight requests
    /// onto one execution and keeping each seeker's σ on one shard's
    /// private admission-controlled cache — must beat a baseline
    /// `ServedClient` over as many shards that takes one request per
    /// dispatch cycle (so nothing coalesces) and memoizes nothing by ≥ 1.3×
    /// for both a dense-decay and a sparse-support model, with
    /// byte-identical rankings and zero
    /// deadline misses at the default deadline. Best-of-3 trials absorb
    /// scheduler noise; machine-sensitive, so `#[ignore]`d for CI like
    /// fig9/fig10 (run via
    /// `cargo test --release -p friends-bench -- --ignored`).
    #[test]
    #[ignore]
    fn fig11_service_gate() {
        let _serial = serialize_timing_gate();
        let corpus = Arc::new(serving_corpus(10_000, 42));
        corpus.sigma_index(); // shared lazy build, outside every timed region
        let stream = RequestStream::generate(
            &corpus.graph,
            &corpus.store,
            &RequestParams {
                count: 4_000,
                seeker_theta: 1.1,
                ..RequestParams::default()
            },
            17,
        );
        let queries = stream.queries();
        let workers = 4;
        for model in [
            ProximityModel::DistanceDecay { alpha: 0.3 },
            ProximityModel::Ppr {
                alpha: 0.2,
                epsilon: 1e-4,
            },
        ] {
            let best = (0..3)
                .map(|_| {
                    let base_client = ServedClient::start(
                        Arc::clone(&corpus),
                        ServiceConfig {
                            shards: workers,
                            max_batch: 1,
                            ..ServiceConfig::default()
                        },
                    );
                    let (base_r, base_d) = timed(|| base_client.search(&queries, model));
                    base_client.shutdown();
                    let client = ServedClient::start(
                        Arc::clone(&corpus),
                        ServiceConfig {
                            shards: workers,
                            // Wide dispatch window: a flooded queue drains
                            // in few cycles, maximizing in-flight overlap
                            // for the coalescer.
                            max_batch: 1024,
                            ..ServiceConfig::default()
                        },
                    );
                    let requests: Vec<QueryRequest> = queries
                        .iter()
                        .map(|q| QueryRequest::from_query(q.clone()).with_model(model))
                        .collect();
                    let (replies, svc_d) = timed(|| client.run_batch(requests));
                    let stats = client.shutdown().totals();
                    eprintln!(
                        "fig11 {}: baseline {:.0} q/s, service {:.0} q/s ({} executed, {} coalesced, \
                         {:.0}% hits, max batch {})",
                        model.name(),
                        queries.len() as f64 / base_d.as_secs_f64(),
                        queries.len() as f64 / svc_d.as_secs_f64(),
                        stats.executed,
                        stats.coalesced,
                        100.0 * stats.cache.hit_rate(),
                        stats.max_batch,
                    );
                    assert_eq!(
                        stats.deadline_misses,
                        0,
                        "{}: misses at the default deadline",
                        model.name()
                    );
                    for (a, b) in base_r.iter().zip(&replies) {
                        let served = b.outcome.result().expect("reply must be Done");
                        assert_eq!(
                            a.items,
                            served.items,
                            "{}: service ranking diverged",
                            model.name()
                        );
                    }
                    base_d.as_secs_f64() / svc_d.as_secs_f64()
                })
                .fold(0.0f64, f64::max);
            assert!(
                best >= 1.3,
                "{}: coalescing ServedClient only {best:.2}x over the one-request-per-cycle baseline",
                model.name()
            );
        }
    }

    #[test]
    fn archipelago_and_distinct_workload_are_well_formed() {
        let c = archipelago_corpus(512, 32, 3);
        assert_eq!(c.num_users(), 512);
        let w = distinct_seeker_workload(&c, 256, 10, 5);
        assert_eq!(w.len(), 256);
        let seekers: std::collections::HashSet<u32> = w.queries.iter().map(|q| q.seeker).collect();
        assert_eq!(seekers.len(), 256, "every seeker must be distinct");
        for q in &w.queries {
            assert!(q.seeker < c.num_users());
            assert!(!q.tags.is_empty() && q.tags.iter().all(|&t| t < c.store.num_tags()));
        }
        // Island structure: a decay seeker's reach is one island, so the
        // snapshot is Touched and its support is bounded by the island.
        let mut ws = SigmaWorkspace::new();
        for q in w.queries.iter().take(16) {
            ProximityModel::DistanceDecay { alpha: 0.5 }
                .materialize_into(&c.graph, q.seeker, &mut ws);
            let snap = ws.snapshot(512);
            let support = snap.support().expect("island reach must snapshot Touched");
            assert!(
                !support.is_empty() && support.len() <= 32,
                "reach {} outgrew the island",
                support.len()
            );
        }
    }

    #[test]
    fn dense_snapshot_baseline_matches_exact_online() {
        let c = archipelago_corpus(400, 25, 7);
        let w = distinct_seeker_workload(&c, 120, 10, 9);
        for model in [
            ProximityModel::DistanceDecay { alpha: 0.3 },
            ProximityModel::WeightedDecay { alpha: 0.5 },
        ] {
            let dense_cache = Arc::new(ProximityCache::new(1024));
            let touched_cache = Arc::new(ProximityCache::new(1024));
            let mut baseline = DenseSnapshotExact::new(&c, model, Arc::clone(&dense_cache));
            let mut current =
                friends_core::processors::ExactOnline::with_cache(&c, model, touched_cache);
            for q in &w.queries {
                assert_eq!(
                    baseline.query(q).items,
                    current.query(q).items,
                    "{} {q:?}",
                    model.name()
                );
            }
            // The baseline must really be paying the dense-snapshot tax.
            assert!(dense_cache.stats().bytes >= 120 * 400 * 8);
        }
    }

    /// The fig12 acceptance gate: on a seeker-diverse (every seeker
    /// distinct — memoization-free) stream over the 10k-user archipelago,
    /// the reach-proportional miss path must beat the dense-snapshot miss
    /// path by ≥ 1.5× for both decay models, with rankings byte-identical
    /// to the dense-materialize reference across every model and scoring
    /// strategy. Machine-sensitive like fig9–fig11, so `#[ignore]`d for the
    /// default CI lane; the release-gates job runs it via
    /// `cargo test --release -p friends-bench fig12_sigma_floor -- --ignored`.
    #[test]
    #[ignore]
    fn fig12_sigma_floor() {
        let _serial = serialize_timing_gate();
        use friends_core::processors::{ExactOnline, GlobalBoundTA, ScoringStrategy};
        let corpus = archipelago_corpus(10_000, 64, 42);
        corpus.sigma_index(); // shared build, outside every timed region
        let w = distinct_seeker_workload(&corpus, 2_000, 10, 17);

        // Exactness across all models × strategies (cold cached Auto path,
        // forced scan, forced block-max, support probe where defined, and
        // the cached global-bound processor) against the dense-materialize
        // reference.
        let all_models = [
            ProximityModel::Global,
            ProximityModel::FriendsOnly,
            ProximityModel::DistanceDecay { alpha: 0.3 },
            ProximityModel::WeightedDecay { alpha: 0.5 },
            ProximityModel::Ppr {
                alpha: 0.2,
                epsilon: 1e-4,
            },
            ProximityModel::AdamicAdar,
        ];
        for model in all_models {
            let mut reference = DenseMaterializeExact::new(&corpus, model);
            let cache = Arc::new(ProximityCache::with_byte_budget(
                16 << 20,
                Default::default(),
            ));
            let mut cached = ExactOnline::with_cache(&corpus, model, Arc::clone(&cache));
            let mut scan = ExactOnline::with_strategy(&corpus, model, ScoringStrategy::PostingScan);
            let mut bm = ExactOnline::with_strategy(&corpus, model, ScoringStrategy::BlockMax);
            let mut sup = model
                .has_sparse_support()
                .then(|| ExactOnline::with_strategy(&corpus, model, ScoringStrategy::SupportProbe));
            let mut gbta = (!matches!(model, ProximityModel::Ppr { .. })).then(|| {
                GlobalBoundTA::with_cache(&corpus, model, Arc::new(ProximityCache::new(4096)))
            });
            for q in w.queries.iter().take(200) {
                let want = reference.query(q).items;
                assert_eq!(want, cached.query(q).items, "{} cached", model.name());
                assert_eq!(want, cached.query(q).items, "{} cache hit", model.name());
                assert_eq!(want, scan.query(q).items, "{} scan", model.name());
                assert_eq!(want, bm.query(q).items, "{} block-max", model.name());
                if let Some(sup) = sup.as_mut() {
                    assert_eq!(want, sup.query(q).items, "{} support", model.name());
                }
                if let Some(gbta) = gbta.as_mut() {
                    let got = gbta.query(q).items;
                    // GBTA accumulates in f64: compare the ranked id sets.
                    let a: Vec<u32> = want.iter().map(|&(i, _)| i).collect();
                    let b: Vec<u32> = got.iter().map(|&(i, _)| i).collect();
                    assert_eq!(a, b, "{} gbta", model.name());
                }
            }
        }

        // Throughput: cold-seeker materialization, dense-snapshot vs
        // reach-proportional, best of 3 to absorb scheduler noise.
        for model in [
            ProximityModel::DistanceDecay { alpha: 0.3 },
            ProximityModel::WeightedDecay { alpha: 0.5 },
        ] {
            let best = (0..3)
                .map(|_| {
                    let dense_cache = Arc::new(ProximityCache::with_byte_budget(
                        16 << 20,
                        Default::default(),
                    ));
                    let mut dense = DenseSnapshotExact::new(&corpus, model, dense_cache);
                    let (dense_r, dense_d) =
                        timed(|| w.queries.iter().map(|q| dense.query(q)).collect::<Vec<_>>());
                    let touched_cache = Arc::new(ProximityCache::with_byte_budget(
                        16 << 20,
                        Default::default(),
                    ));
                    let mut touched = ExactOnline::with_cache(&corpus, model, touched_cache);
                    let (touched_r, touched_d) = timed(|| {
                        w.queries
                            .iter()
                            .map(|q| touched.query(q))
                            .collect::<Vec<_>>()
                    });
                    for (a, b) in dense_r.iter().zip(&touched_r) {
                        assert_eq!(a.items, b.items, "{}", model.name());
                    }
                    dense_d.as_secs_f64() / touched_d.as_secs_f64()
                })
                .fold(0.0f64, f64::max);
            eprintln!("fig12 {}: {best:.2}x", model.name());
            assert!(
                best >= 1.5,
                "{}: reach-proportional path only {best:.2}x over dense snapshots",
                model.name()
            );
        }
    }

    /// The fig13 acceptance gate: at an open-loop arrival rate 1.5× the
    /// measured closed-loop capacity, SLO-degraded serving (overload
    /// controller on) holds p99 completion latency inside the deadline
    /// with bounded residual certificates, while the exact service can
    /// only shed — losing ≥ 20% of the stream to deadline misses.
    /// Machine-sensitive like fig9–fig12, so `#[ignore]`d for the default
    /// CI lane; the release-gates job runs it via
    /// `cargo test --release -p friends-bench -- --ignored`.
    #[test]
    #[ignore]
    fn fig13_overload_gate() {
        let _serial = serialize_timing_gate();
        use crate::experiments::drive_open_loop;
        use friends_data::requests::{OpenLoopParams, OpenLoopStream};
        use friends_service::OverloadPolicy;

        let corpus = Arc::new(overload_corpus(20_000, 42));
        corpus.sigma_index(); // shared lazy build, outside every timed region
        let model = ProximityModel::WeightedDecay { alpha: 0.5 };
        let shards = 2;
        let deadline = Duration::from_millis(40);
        let shape = RequestParams {
            count: 3_000,
            seeker_theta: 1.1,
            ..RequestParams::default()
        };
        let capacity = probe_capacity(&corpus, shards, model, &shape, 800, 19);
        let stream = OpenLoopStream::generate(
            &corpus.graph,
            &corpus.store,
            &OpenLoopParams {
                rate: 1.5 * capacity,
                poisson: false,
                shape,
            },
            19,
        );

        // Exact mode: no controller — overload can only shed.
        let exact_client = ServedClient::start(
            Arc::clone(&corpus),
            ServiceConfig {
                shards,
                max_batch: 64,
                default_deadline: Some(deadline),
                ..ServiceConfig::default()
            },
        );
        let exact = drive_open_loop(&exact_client, &stream, model, deadline);
        let exact_stats = exact_client.shutdown().totals();
        eprintln!("fig13 exact: {exact:?} (capacity {capacity:.0} q/s)");
        eprintln!(
            "fig13 exact stats: executed {} coalesced {} misses {} hits {:.0}% batches {} maxb {}",
            exact_stats.executed,
            exact_stats.coalesced,
            exact_stats.deadline_misses,
            100.0 * exact_stats.cache.hit_rate(),
            exact_stats.batches,
            exact_stats.max_batch
        );
        assert!(
            exact.missed * 5 >= exact.submitted,
            "exact mode shed only {}/{} at 1.5x capacity — the stream is not \
             actually overloading (capacity {capacity:.0} q/s)",
            exact.missed,
            exact.submitted
        );

        // Degraded mode: the controller trades exactness for capacity.
        let degraded_client = ServedClient::start(
            Arc::clone(&corpus),
            ServiceConfig {
                shards,
                max_batch: 64,
                default_deadline: Some(deadline),
                overload: Some(OverloadPolicy {
                    depth_high: 16,
                    depth_low: 4,
                }),
                ..ServiceConfig::default()
            },
        );
        let degraded = drive_open_loop(&degraded_client, &stream, model, deadline);
        let stats = degraded_client.shutdown().totals();
        eprintln!(
            "fig13 degraded: {degraded:?} ({} server-degraded)",
            stats.degraded
        );
        eprintln!(
            "fig13 degraded stats: executed {} coalesced {} misses {} hits {:.0}% batches {} maxb {}",
            stats.executed,
            stats.coalesced,
            stats.deadline_misses,
            100.0 * stats.cache.hit_rate(),
            stats.batches,
            stats.max_batch
        );
        assert!(
            degraded.done >= 2 * exact.done,
            "degraded mode must complete at least twice what exact serving \
             manages under the same overload: {} vs {}",
            degraded.done,
            exact.done
        );
        assert!(
            degraded.degraded > 0 && stats.degraded > 0,
            "the overload controller never engaged: {degraded:?}"
        );
        assert!(
            degraded.p99_ms <= deadline.as_secs_f64() * 1e3 * 1.1,
            "degraded p99 {:.2} ms blew the {} ms deadline",
            degraded.p99_ms,
            deadline.as_millis()
        );
        assert!(
            degraded.max_residual.is_finite() && degraded.max_residual >= 0.0,
            "unbounded residual: {degraded:?}"
        );
        assert!(
            degraded.missed < exact.missed,
            "degradation must shed less than exact serving: {} vs {}",
            degraded.missed,
            exact.missed
        );
    }

    /// The fig14 acceptance gate: with a mutation stream applied at 10% of
    /// the query rate (64-mutation epoch batches through
    /// `apply_mutations`), read-path p99 stays within 2× the frozen
    /// baseline measured in the same process (plus a small absolute jitter
    /// floor — the frozen p99 is single-digit milliseconds, inside
    /// scheduler-noise territory on a loaded host), every epoch switch
    /// is absorbed incrementally (reads repair stale σ in place, per-seeker
    /// result drops, zero full-stamp expirations). Machine-sensitive like fig9–fig13,
    /// so `#[ignore]`d for the default CI lane; the live-graph-gates job
    /// runs it via `cargo test --release -p friends-bench -- --ignored
    /// fig14_live_graph_gate`.
    #[test]
    #[ignore]
    fn fig14_live_graph_gate() {
        let _serial = serialize_timing_gate();
        use crate::experiments::{drive_live_open_loop, drive_open_loop};
        use friends_data::mutations::{MutationBatch, MutationParams, MutationStream};
        use friends_data::requests::{OpenLoopParams, OpenLoopStream};

        let corpus = Arc::new(overload_corpus(20_000, 42));
        corpus.sigma_index(); // shared lazy build, outside every timed region
        let model = ProximityModel::WeightedDecay { alpha: 0.5 };
        let shards = 2;
        let deadline = Duration::from_millis(50);
        let count = 6_000; // p99 rank 60: one scheduler hiccup can't own it
        let shape = RequestParams {
            count,
            seeker_theta: 1.1,
            ..RequestParams::default()
        };
        // Pace reads at 30% of the exact service's closed-loop capacity:
        // the writer shares the cores, and this gate measures mutation
        // cost at a sustainable rate, not compounded with overload.
        let capacity = probe_capacity(&corpus, shards, model, &shape, 800, 19);
        let rate = 0.3 * capacity;
        let stream = OpenLoopStream::generate(
            &corpus.graph,
            &corpus.store,
            &OpenLoopParams {
                rate,
                poisson: false,
                shape: shape.clone(),
            },
            19,
        );
        let write_rate = 0.10 * rate;
        let muts = MutationStream::generate(
            &corpus.graph,
            &corpus.store,
            &MutationParams {
                count: count / 10,
                rate: write_rate,
                user_theta: shape.seeker_theta,
                ..MutationParams::default()
            },
            19,
        );
        const WRITE_BATCH: usize = 64;
        let writes: Vec<(Duration, MutationBatch)> = muts
            .batches(WRITE_BATCH)
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                let last = (i * WRITE_BATCH + b.len() - 1).min(muts.len() - 1);
                (muts.mutations[last].arrival, b)
            })
            .collect();
        let config = ServiceConfig {
            shards,
            max_batch: 64,
            default_deadline: Some(deadline),
            result_cache_capacity: 4_096,
            ..ServiceConfig::default()
        };

        let frozen_client = ServedClient::start(Arc::clone(&corpus), config.clone());
        let frozen = drive_open_loop(&frozen_client, &stream, model, deadline);
        let frozen_stats = frozen_client.shutdown().totals();
        eprintln!("fig14 frozen: {frozen:?} (rate {rate:.0} q/s)");
        assert_eq!(
            frozen_stats.mutation_epoch, 0,
            "the frozen baseline must never see an epoch switch"
        );

        let live_client = ServedClient::start(Arc::clone(&corpus), config);
        let (live, report) =
            drive_live_open_loop(&live_client, &stream, model, deadline, &writes, None);
        let live_stats = live_client.shutdown().totals();
        eprintln!("fig14 live: {live:?}");
        eprintln!(
            "fig14 mutations: epochs {} applied {} sigma {:?} \
             sigma_refreshed {} results_invalidated {} result_expirations {}",
            report.epoch,
            report.mutations,
            report.sigma,
            report.sigma_refreshed,
            report.results_invalidated,
            live_stats.results.expirations,
        );

        // The writes actually streamed, at epoch-batch granularity.
        assert_eq!(report.mutations, count / 10, "mutation stream truncated");
        assert_eq!(
            live_stats.mutation_epoch, report.epoch,
            "shards and report disagree on the final epoch"
        );
        assert!(report.epoch > 0, "no epoch switch happened");
        // Every switch was absorbed incrementally: reads repaired stale σ
        // in place and per-seeker result drops happened, a full
        // result-cache stamp never did.
        assert!(
            report.sigma.repaired > 0,
            "reads never repaired a stale cached σ vector in place"
        );
        assert!(
            report.sigma_refreshed > 0,
            "reads never served a stale cached σ vector brought forward"
        );
        assert!(
            report.results_invalidated > 0,
            "result sweeps never dropped an entry"
        );
        assert_eq!(
            live_stats.results.expirations, 0,
            "a full-stamp result invalidation ran — incremental sweeps \
             should have handled every epoch"
        );
        // The read path held: nearly everything completed, and p99 stayed
        // within 2× the frozen baseline plus 8 ms of scheduler-jitter
        // floor — both arms' p99s are single-digit-millisecond ranks that
        // swing several ms run-to-run on a loaded single-core host, while
        // a real regression (e.g. a per-epoch index rebuild on the shard
        // path) lands two orders of magnitude past this budget.
        assert!(
            live.done * 100 >= live.submitted * 95,
            "live serving shed too much: {live:?}"
        );
        assert!(
            live.p99_ms <= 2.0 * frozen.p99_ms + 8.0,
            "read-path p99 under writes blew the 2x-frozen budget: \
             {:.2} ms vs frozen {:.2} ms",
            live.p99_ms,
            frozen.p99_ms
        );
    }

    /// Release gate behind the fig15 durability claims; run explicitly
    /// with `cargo test --release -q -p friends-bench
    /// fig15_durability_gate -- --ignored`. Two claims: (1) fsync-per-batch
    /// durability (`SyncPolicy::Always`) keeps read p99 under writes within
    /// 1.3× of the WAL-off baseline (plus the same 8 ms scheduler-jitter
    /// floor as the fig14 gate — both arms' p99s are single-digit-ms ranks
    /// on a shared host, while a real regression, e.g. holding the
    /// mutation gate across the fsync of every read, lands orders of
    /// magnitude past this budget); (2) a 10k-mutation WAL with no
    /// snapshot replays to the exact acked epoch in under 2 s.
    #[test]
    #[ignore]
    fn fig15_durability_gate() {
        let _serial = serialize_timing_gate();
        use crate::experiments::drive_live_open_loop;
        use friends_core::live::{DurabilityConfig, LiveCorpus};
        use friends_data::mutations::{MutationBatch, MutationParams, MutationStream};
        use friends_data::requests::{OpenLoopParams, OpenLoopStream};
        use friends_data::wal::SyncPolicy;

        fn scratch(tag: &str) -> std::path::PathBuf {
            let mut dir = std::env::temp_dir();
            dir.push(format!("friends-gate-fig15-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        }

        let corpus = Arc::new(overload_corpus(20_000, 42));
        corpus.sigma_index(); // shared lazy build, outside every timed region
        let model = ProximityModel::WeightedDecay { alpha: 0.5 };
        let shards = 2;
        let deadline = Duration::from_millis(50);
        let count = 6_000; // p99 rank 60: one scheduler hiccup can't own it
        let shape = RequestParams {
            count,
            seeker_theta: 1.1,
            ..RequestParams::default()
        };
        let capacity = probe_capacity(&corpus, shards, model, &shape, 800, 23);
        let rate = 0.3 * capacity;
        let stream = OpenLoopStream::generate(
            &corpus.graph,
            &corpus.store,
            &OpenLoopParams {
                rate,
                poisson: false,
                shape: shape.clone(),
            },
            23,
        );
        let write_rate = 0.10 * rate;
        let muts = MutationStream::generate(
            &corpus.graph,
            &corpus.store,
            &MutationParams {
                count: count / 10,
                rate: write_rate,
                user_theta: shape.seeker_theta,
                ..MutationParams::default()
            },
            23,
        );
        const WRITE_BATCH: usize = 64;
        let writes: Vec<(Duration, MutationBatch)> = muts
            .batches(WRITE_BATCH)
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                let last = (i * WRITE_BATCH + b.len() - 1).min(muts.len() - 1);
                (muts.mutations[last].arrival, b)
            })
            .collect();

        let mut p99 = std::collections::HashMap::new();
        for (mode, durable) in [("wal-off", false), ("wal-fsync", true)] {
            let dir = scratch(mode);
            let client = ServedClient::start(
                Arc::clone(&corpus),
                ServiceConfig {
                    shards,
                    max_batch: 64,
                    default_deadline: Some(deadline),
                    result_cache_capacity: 4_096,
                    durability: durable.then(|| {
                        let mut d = DurabilityConfig::new(&dir);
                        d.sync = SyncPolicy::Always;
                        d
                    }),
                    ..ServiceConfig::default()
                },
            );
            let (run, report) =
                drive_live_open_loop(&client, &stream, model, deadline, &writes, None);
            let wal = client.service().wal_stats();
            client.shutdown();
            eprintln!("fig15 {mode}: {run:?} (rate {rate:.0} q/s) wal {wal:?}");
            assert_eq!(report.mutations, count / 10, "mutation stream truncated");
            if durable {
                let wal = wal.expect("durable arm has WAL counters");
                assert_eq!(
                    wal.appends as usize,
                    writes.len(),
                    "every acked batch is one WAL record"
                );
                assert!(
                    wal.syncs >= wal.appends,
                    "SyncPolicy::Always must fsync per batch: {wal:?}"
                );
            }
            assert!(
                run.done * 100 >= run.submitted * 95,
                "{mode} shed too much: {run:?}"
            );
            p99.insert(mode, run.p99_ms);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let (off, fsync) = (p99["wal-off"], p99["wal-fsync"]);
        assert!(
            fsync <= 1.3 * off + 8.0,
            "fsync-per-batch read p99 blew the 1.3x-of-wal-off budget: \
             {fsync:.2} ms vs {off:.2} ms"
        );

        // Recovery-time floor: 10k mutations, WAL only (no snapshot), must
        // replay to the exact acked epoch in under 2 s.
        let dir = scratch("recovery");
        let rcfg = {
            let mut d = DurabilityConfig::new(&dir);
            d.sync = SyncPolicy::Never;
            d.snapshot_every = 0;
            d
        };
        let live =
            LiveCorpus::open_durable(Arc::clone(&corpus), rcfg).expect("scratch durability dir");
        let rmuts = MutationStream::generate(
            &corpus.graph,
            &corpus.store,
            &MutationParams {
                count: 10_000,
                rate: write_rate,
                user_theta: shape.seeker_theta,
                ..MutationParams::default()
            },
            23,
        );
        for b in rmuts.batches(WRITE_BATCH) {
            live.commit(&b, None, |_, _| ()).expect("durable commit");
        }
        live.sync_wal().expect("flush WAL tail");
        let (recovered, report) = LiveCorpus::recover(&dir).expect("recover");
        eprintln!("fig15 recovery: {report:?}");
        assert_eq!(
            recovered.epoch(),
            live.epoch(),
            "recovery lost acked batches"
        );
        assert!(!report.degraded(), "{report:?}");
        assert!(
            report.elapsed_ms < 2_000.0,
            "10k-mutation WAL replay blew the 2s budget: {report:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn service_cache_probe_reports_activity() {
        let stats = service_cache_probe();
        assert!(stats.hits > 0, "{stats:?}");
        assert!(stats.insertions > 0, "{stats:?}");
        assert!(
            stats.hits + stats.misses >= stats.insertions,
            "{stats:?}: lookups must dominate insertions"
        );
    }

    #[test]
    fn timing_and_stats() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        let ds = vec![d, d, d];
        assert!(mean_us(&ds) >= 0.0);
        assert!(percentile_us(&ds, 0.5) >= 0.0);
        assert_eq!(mean_us(&[]), 0.0);
        assert_eq!(percentile_us(&[], 0.9), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        // p50 of two samples is their midpoint — the nearest-rank form
        // this replaced could only ever return one of the samples.
        let ds = [Duration::from_micros(1), Duration::from_micros(3)];
        assert_eq!(percentile_us(&ds, 0.5), 2.0);
        assert_eq!(percentile_us(&ds, 0.0), 1.0);
        assert_eq!(percentile_us(&ds, 1.0), 3.0);
        assert_eq!(percentile_us(&ds, 0.75), 2.5);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        let ds = [Duration::from_micros(5)];
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_us(&ds, q), 5.0, "q={q}");
        }
    }

    #[test]
    fn percentile_is_monotone_in_q() {
        let ds: Vec<Duration> = (0..97)
            .map(|i: u64| Duration::from_nanos((i * 7919) % 10_000))
            .collect();
        let qs: Vec<f64> = (0..=100).map(|i| i as f64 / 100.0).collect();
        let ps = percentiles_us(&ds, &qs);
        for w in ps.windows(2) {
            assert!(w[0] <= w[1], "percentiles must be monotone in q: {ps:?}");
        }
        // The multi-quantile pass must agree with the one-at-a-time form.
        for (&q, &p) in qs.iter().zip(&ps) {
            assert_eq!(p, percentile_us(&ds, q), "q={q}");
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["beta-long".into(), "23456".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("23456"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert!(fmt_bytes(3 * 1024 * 1024).contains("MiB"));
    }
}
