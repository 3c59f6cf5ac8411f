//! One function per table/figure of the evaluation. Each returns the
//! rendered text table(s); the `report` binary prints them, the Criterion
//! benches time the hot kernels, and `EXPERIMENTS.md` records the measured
//! shapes against the expectations.

use crate::{fmt_bytes, mean_us, percentiles_us, timed, TextTable};
use friends_core::corpus::{Corpus, QueryStats, SearchResult};
use friends_core::eval::{kendall_tau, mean, ndcg_at_k, precision_at_k};
use friends_core::latency::{LatencySnapshot, Stage, StageLatencies, StageSnapshot, STAGES};
use friends_core::metrics::MetricsRegistry;
use friends_core::plan::{QueryRequest, STRATEGY_LABELS};
use friends_core::processors::{
    ClusterConfig, ClusterIndex, ExactOnline, ExpansionConfig, FriendExpansion, GlobalBoundTA,
    GlobalProcessor, Hybrid, HybridConfig, Processor, ScoringStrategy,
};
use friends_core::proximity::ProximityModel;
use friends_data::datasets::{DatasetSpec, Scale};
use friends_data::generator::{generate, WorkloadParams};
use friends_data::queries::{QueryParams, QueryWorkload};
use friends_graph::generators::{self, WeightModel};
use friends_graph::metrics;
use friends_index::inverted::IndexConfig;
use friends_index::postings::{Encoding, PostingConfig};
use friends_service::{SearchClient, ServedClient, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

/// Experiment sizing: `Quick` keeps everything under a few seconds for tests
/// and CI; `Full` reproduces the figures at the scales in EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    Quick,
    Full,
}

impl Profile {
    fn scale(self) -> Scale {
        match self {
            Profile::Quick => Scale::Tiny,
            Profile::Full => Scale::Small,
        }
    }

    fn queries(self) -> usize {
        match self {
            Profile::Quick => 10,
            Profile::Full => 100,
        }
    }
}

const SEED: u64 = 42;

fn corpus_for(spec: &DatasetSpec) -> Corpus {
    let ds = spec.build(SEED);
    Corpus::new(ds.graph, ds.store)
}

fn std_workload(c: &Corpus, count: usize, k: usize) -> QueryWorkload {
    QueryWorkload::generate(
        &c.graph,
        &c.store,
        &QueryParams {
            count,
            k,
            min_tags: 1,
            max_tags: 3,
        },
        SEED ^ 0xBEEF,
    )
}

/// Runs `p` over the workload, returning per-query latencies and the summed
/// stats.
fn drive(p: &mut dyn Processor, w: &QueryWorkload) -> (Vec<Duration>, QueryStats) {
    let mut lat = Vec::with_capacity(w.len());
    let mut agg = QueryStats::default();
    for q in &w.queries {
        let (r, d) = timed(|| p.query(q));
        lat.push(d);
        accumulate(&mut agg, &r.stats);
    }
    (lat, agg)
}

fn accumulate(agg: &mut QueryStats, s: &QueryStats) {
    agg.users_visited += s.users_visited;
    agg.postings_scanned += s.postings_scanned;
    agg.clusters_touched += s.clusters_touched;
    agg.bound_checks += s.bound_checks;
    agg.blocks_skipped += s.blocks_skipped;
    if s.early_terminated {
        agg.early_terminated = true;
    }
}

/// [`drive`] through a [`SearchClient`]: per-query submit-and-wait under
/// `model` with a forced `strategy` hint, measuring the full client stack
/// (planning, queueing, execution). Returns latencies, summed stats and the
/// result stream for cross-strategy equality checks.
fn drive_client(
    client: &dyn SearchClient,
    w: &QueryWorkload,
    model: ProximityModel,
    strategy: ScoringStrategy,
) -> (Vec<Duration>, QueryStats, Vec<SearchResult>) {
    let mut lat = Vec::with_capacity(w.len());
    let mut agg = QueryStats::default();
    let mut results = Vec::with_capacity(w.len());
    for q in &w.queries {
        let (r, d) = timed(|| {
            client
                .run(
                    QueryRequest::from_query(q.clone())
                        .with_model(model)
                        .with_strategy(strategy)
                        .without_deadline(),
                )
                .outcome
                .expect_done("drive_client")
        });
        lat.push(d);
        accumulate(&mut agg, &r.stats);
        results.push(r);
    }
    (lat, agg, results)
}

// ---------------------------------------------------------------- Table 1

/// Table 1: dataset statistics for the three synthetic families.
pub fn table1(profile: Profile) -> String {
    let scale = profile.scale();
    let mut t = TextTable::new(&[
        "dataset",
        "users",
        "edges",
        "deg p50/p99",
        "clustering",
        "eff.diam",
        "items",
        "tags",
        "taggings",
        "tags/user",
    ]);
    for spec in [
        DatasetSpec::delicious_like(scale),
        DatasetSpec::flickr_like(scale),
        DatasetSpec::citeulike_like(scale),
    ] {
        let ds = spec.build(SEED);
        let g = metrics::summarize(&ds.graph, SEED);
        let s = ds.store.stats();
        t.row(vec![
            ds.name.clone(),
            g.nodes.to_string(),
            g.edges.to_string(),
            format!("{}/{}", g.degrees.p50, g.degrees.p99),
            format!("{:.3}", g.clustering),
            format!("{:.1}", g.effective_diameter),
            s.items.to_string(),
            s.tags.to_string(),
            s.taggings.to_string(),
            format!("{:.1}", s.taggings_per_user_mean),
        ]);
    }
    format!("Table 1 — dataset statistics ({scale:?})\n{}", t.render())
}

// ---------------------------------------------------------------- Table 2

/// Table 2: index construction time and size per dataset.
pub fn table2(profile: Profile) -> String {
    let scale = profile.scale();
    let mut t = TextTable::new(&[
        "dataset",
        "global build",
        "global size",
        "cluster build",
        "cluster size",
        "clusters",
        "raw store",
    ]);
    for spec in [
        DatasetSpec::delicious_like(scale),
        DatasetSpec::flickr_like(scale),
        DatasetSpec::citeulike_like(scale),
    ] {
        let c = corpus_for(&spec);
        let (global, dg) = timed(|| GlobalProcessor::new(&c, IndexConfig::default()));
        let (cluster, dc) = timed(|| ClusterIndex::build(&c, ClusterConfig::default()));
        t.row(vec![
            spec.name(),
            format!("{:.1} ms", dg.as_secs_f64() * 1e3),
            fmt_bytes(global.memory_bytes()),
            format!("{:.1} ms", dc.as_secs_f64() * 1e3),
            fmt_bytes(cluster.memory_bytes()),
            cluster.num_clusters().to_string(),
            fmt_bytes(c.store.memory_bytes()),
        ]);
    }
    format!(
        "Table 2 — index construction time and size ({scale:?})\n{}",
        t.render()
    )
}

// ------------------------------------------------------------------ Fig 3

/// Fig 3: mean query latency vs k, all processors, Delicious-like.
pub fn fig3(profile: Profile) -> String {
    let c = corpus_for(&DatasetSpec::delicious_like(profile.scale()));
    let ks: &[usize] = match profile {
        Profile::Quick => &[1, 10, 50],
        Profile::Full => &[1, 5, 10, 20, 50, 100],
    };
    let alpha = 0.5;
    let mut global = GlobalProcessor::new(&c, IndexConfig::default());
    let mut exact = ExactOnline::new(&c, ProximityModel::WeightedDecay { alpha });
    let mut expansion = FriendExpansion::new(
        &c,
        ExpansionConfig {
            alpha,
            check_interval: 16,
            ..ExpansionConfig::default()
        },
    );
    let mut cluster = ClusterIndex::build(
        &c,
        ClusterConfig {
            alpha,
            ..ClusterConfig::default()
        },
    );
    let mut hybrid = Hybrid::build(
        &c,
        HybridConfig {
            alpha,
            ..HybridConfig::default()
        },
    );
    let mut gbta = GlobalBoundTA::new(&c, ProximityModel::WeightedDecay { alpha });
    let mut t = TextTable::new(&[
        "k",
        "global us",
        "exact us",
        "expansion us",
        "cluster us",
        "gbound-ta us",
        "hybrid us",
    ]);
    for &k in ks {
        let w = std_workload(&c, profile.queries(), k);
        let (lg, _) = drive(&mut global, &w);
        let (le, _) = drive(&mut exact, &w);
        let (lx, _) = drive(&mut expansion, &w);
        let (lc, _) = drive(&mut cluster, &w);
        let (lb, _) = drive(&mut gbta, &w);
        let (lh, _) = drive(&mut hybrid, &w);
        t.row(vec![
            k.to_string(),
            format!("{:.0}", mean_us(&lg)),
            format!("{:.0}", mean_us(&le)),
            format!("{:.0}", mean_us(&lx)),
            format!("{:.0}", mean_us(&lc)),
            format!("{:.0}", mean_us(&lb)),
            format!("{:.0}", mean_us(&lh)),
        ]);
    }
    format!(
        "Fig 3 — mean query latency vs k (delicious, {:?}, {} queries/point)\n{}",
        profile.scale(),
        profile.queries(),
        t.render()
    )
}

// ------------------------------------------------------------------ Fig 4

/// Fig 4: latency vs network size (Barabási–Albert sweep), k = 10.
pub fn fig4(profile: Profile) -> String {
    let sizes: &[usize] = match profile {
        Profile::Quick => &[500, 2_000],
        Profile::Full => &[2_000, 5_000, 20_000, 50_000],
    };
    let alpha = 0.5;
    let mut t = TextTable::new(&[
        "users",
        "global us",
        "exact us",
        "expansion us",
        "cluster us",
        "exact/expansion",
    ]);
    for &n in sizes {
        let c = corpus_for(&DatasetSpec::delicious_like(Scale::Custom(n)));
        let w = std_workload(&c, profile.queries().min(50), 10);
        let mut global = GlobalProcessor::new(&c, IndexConfig::default());
        let mut exact = ExactOnline::new(&c, ProximityModel::WeightedDecay { alpha });
        let mut expansion = FriendExpansion::new(
            &c,
            ExpansionConfig {
                alpha,
                check_interval: 16,
                ..ExpansionConfig::default()
            },
        );
        let mut cluster = ClusterIndex::build(
            &c,
            ClusterConfig {
                alpha,
                ..ClusterConfig::default()
            },
        );
        let (lg, _) = drive(&mut global, &w);
        let (le, _) = drive(&mut exact, &w);
        let (lx, _) = drive(&mut expansion, &w);
        let (lc, _) = drive(&mut cluster, &w);
        let ratio = mean_us(&le) / mean_us(&lx).max(1e-9);
        t.row(vec![
            n.to_string(),
            format!("{:.0}", mean_us(&lg)),
            format!("{:.0}", mean_us(&le)),
            format!("{:.0}", mean_us(&lx)),
            format!("{:.0}", mean_us(&lc)),
            format!("{ratio:.1}x"),
        ]);
    }
    format!("Fig 4 — latency vs network size (k=10)\n{}", t.render())
}

// ------------------------------------------------------------------ Fig 5

/// Fig 5: effect of the proximity decay α on expansion cost.
pub fn fig5(profile: Profile) -> String {
    let c = corpus_for(&DatasetSpec::delicious_like(profile.scale()));
    let alphas = [0.1, 0.3, 0.5, 0.7, 0.9];
    let mut t = TextTable::new(&[
        "alpha",
        "expansion us",
        "visited/query",
        "early-term %",
        "exact us",
    ]);
    let n_q = profile.queries();
    for &alpha in &alphas {
        let mut expansion = FriendExpansion::new(
            &c,
            ExpansionConfig {
                alpha,
                check_interval: 16,
                ..ExpansionConfig::default()
            },
        );
        let mut exact = ExactOnline::new(&c, ProximityModel::WeightedDecay { alpha });
        let w = std_workload(&c, n_q, 10);
        let mut early = 0usize;
        let mut visited = 0usize;
        let mut lat = Vec::new();
        for q in &w.queries {
            let (r, d) = timed(|| expansion.query(q));
            lat.push(d);
            visited += r.stats.users_visited;
            if r.stats.early_terminated {
                early += 1;
            }
        }
        let (le, _) = drive(&mut exact, &w);
        t.row(vec![
            format!("{alpha:.1}"),
            format!("{:.0}", mean_us(&lat)),
            format!("{:.0}", visited as f64 / w.len() as f64),
            format!("{:.0}%", 100.0 * early as f64 / w.len() as f64),
            format!("{:.0}", mean_us(&le)),
        ]);
    }
    format!(
        "Fig 5 — proximity decay α vs expansion cost ({:?})\n{}",
        profile.scale(),
        t.render()
    )
}

// ------------------------------------------------------------------ Fig 6

/// Fig 6: ranking quality of the approximate strategies against the exact
/// personalized ranking.
pub fn fig6(profile: Profile) -> String {
    let c = corpus_for(&DatasetSpec::delicious_like(profile.scale()));
    let alpha = 0.5;
    let k = 10;
    let w = std_workload(&c, profile.queries(), k);

    let mut exact_wd = ExactOnline::new(&c, ProximityModel::WeightedDecay { alpha });
    let mut exact_dd = ExactOnline::new(&c, ProximityModel::DistanceDecay { alpha });
    let mut global = GlobalProcessor::new(&c, IndexConfig::default());
    let mut cluster = ClusterIndex::build(
        &c,
        ClusterConfig {
            alpha,
            num_landmarks: 16,
            ..ClusterConfig::default()
        },
    );

    let mut t = TextTable::new(&["strategy", "reference", "p@10", "kendall tau", "ndcg@10"]);
    {
        let mut ps = Vec::new();
        let mut taus = Vec::new();
        let mut ndcgs = Vec::new();
        for q in &w.queries {
            let truth = exact_wd.query(q);
            let got = global.query(q);
            ps.push(precision_at_k(&got.item_ids(), &truth.item_ids(), k));
            taus.push(kendall_tau(&got.item_ids(), &truth.item_ids()));
            let rel: std::collections::HashMap<u32, f32> = truth.items.iter().copied().collect();
            ndcgs.push(ndcg_at_k(&got.item_ids(), &rel, k));
        }
        t.row(vec![
            "global".into(),
            "exact(weighted-decay)".into(),
            format!("{:.2}", mean(&ps)),
            format!("{:.2}", mean(&taus)),
            format!("{:.2}", mean(&ndcgs)),
        ]);
    }
    {
        let mut ps = Vec::new();
        let mut taus = Vec::new();
        let mut ndcgs = Vec::new();
        for q in &w.queries {
            let truth = exact_dd.query(q);
            let got = cluster.query(q);
            ps.push(precision_at_k(&got.item_ids(), &truth.item_ids(), k));
            taus.push(kendall_tau(&got.item_ids(), &truth.item_ids()));
            let rel: std::collections::HashMap<u32, f32> = truth.items.iter().copied().collect();
            ndcgs.push(ndcg_at_k(&got.item_ids(), &rel, k));
        }
        t.row(vec![
            "cluster-index".into(),
            "exact(distance-decay)".into(),
            format!("{:.2}", mean(&ps)),
            format!("{:.2}", mean(&taus)),
            format!("{:.2}", mean(&ndcgs)),
        ]);
    }
    // PPR approximation quality: coarse vs fine epsilon.
    for eps in [1e-3, 1e-4, 1e-5] {
        let mut fine = ExactOnline::new(
            &c,
            ProximityModel::Ppr {
                alpha: 0.2,
                epsilon: 1e-7,
            },
        );
        let mut coarse = ExactOnline::new(
            &c,
            ProximityModel::Ppr {
                alpha: 0.2,
                epsilon: eps,
            },
        );
        let mut ps = Vec::new();
        let mut taus = Vec::new();
        let mut ndcgs = Vec::new();
        for q in &w.queries {
            let truth = fine.query(q);
            let got = coarse.query(q);
            ps.push(precision_at_k(&got.item_ids(), &truth.item_ids(), k));
            taus.push(kendall_tau(&got.item_ids(), &truth.item_ids()));
            let rel: std::collections::HashMap<u32, f32> = truth.items.iter().copied().collect();
            ndcgs.push(ndcg_at_k(&got.item_ids(), &rel, k));
        }
        t.row(vec![
            format!("ppr eps={eps:.0e}"),
            "exact(ppr eps=1e-7)".into(),
            format!("{:.2}", mean(&ps)),
            format!("{:.2}", mean(&taus)),
            format!("{:.2}", mean(&ndcgs)),
        ]);
    }
    format!(
        "Fig 6 — ranking quality of approximations ({:?})\n{}",
        profile.scale(),
        t.render()
    )
}

// ------------------------------------------------------------------ Fig 7

/// Fig 7: effect of tag-popularity skew (Zipf θ).
pub fn fig7(profile: Profile) -> String {
    let users = profile.scale().users();
    let base = generators::barabasi_albert(users, 5, SEED);
    let graph = generators::assign_weights(&base, WeightModel::Jaccard { floor: 0.1 }, SEED);
    let thetas = [0.6, 0.8, 1.0, 1.2, 1.4];
    let alpha = 0.5;
    let mut t = TextTable::new(&[
        "tag theta",
        "global us",
        "expansion us",
        "visited/query",
        "p@10 global",
    ]);
    for &theta in &thetas {
        let store = generate(
            &graph,
            &WorkloadParams {
                num_items: (users * 20) as u32,
                num_tags: ((users / 4).max(64)) as u32,
                tag_theta: theta,
                ..WorkloadParams::default()
            },
            SEED,
        );
        let c = Corpus::new(graph.clone(), store);
        let w = std_workload(&c, profile.queries(), 10);
        let mut global = GlobalProcessor::new(&c, IndexConfig::default());
        let mut exact = ExactOnline::new(&c, ProximityModel::WeightedDecay { alpha });
        let mut expansion = FriendExpansion::new(
            &c,
            ExpansionConfig {
                alpha,
                check_interval: 16,
                ..ExpansionConfig::default()
            },
        );
        let (lg, _) = drive(&mut global, &w);
        let mut lat = Vec::new();
        let mut visited = 0usize;
        let mut ps = Vec::new();
        for q in &w.queries {
            let truth = exact.query(q);
            let (r, d) = timed(|| expansion.query(q));
            lat.push(d);
            visited += r.stats.users_visited;
            let g = global.query(q);
            ps.push(precision_at_k(&g.item_ids(), &truth.item_ids(), 10));
        }
        t.row(vec![
            format!("{theta:.1}"),
            format!("{:.0}", mean_us(&lg)),
            format!("{:.0}", mean_us(&lat)),
            format!("{:.0}", visited as f64 / w.len() as f64),
            format!("{:.2}", mean(&ps)),
        ]);
    }
    format!(
        "Fig 7 — tag skew (Zipf θ) sweep ({} users)\n{}",
        users,
        t.render()
    )
}

// ------------------------------------------------------------------ Fig 8

/// Fig 8: early-termination effectiveness — users visited vs k.
pub fn fig8(profile: Profile) -> String {
    let c = corpus_for(&DatasetSpec::flickr_like(profile.scale()));
    let n = c.num_users() as usize;
    let ks: &[usize] = match profile {
        Profile::Quick => &[1, 10, 50],
        Profile::Full => &[1, 5, 10, 20, 50, 100],
    };
    let alpha = 0.3;
    let mut expansion = FriendExpansion::new(
        &c,
        ExpansionConfig {
            alpha,
            check_interval: 8,
            ..ExpansionConfig::default()
        },
    );
    let mut t = TextTable::new(&[
        "k",
        "visited/query",
        "visited %",
        "early-term %",
        "bound checks",
        "p50 us",
        "p95 us",
    ]);
    for &k in ks {
        let w = std_workload(&c, profile.queries(), k);
        let mut visited = 0usize;
        let mut early = 0usize;
        let mut checks = 0usize;
        let mut lat = Vec::new();
        for q in &w.queries {
            let (r, d) = timed(|| expansion.query(q));
            lat.push(d);
            visited += r.stats.users_visited;
            checks += r.stats.bound_checks;
            if r.stats.early_terminated {
                early += 1;
            }
        }
        let vq = visited as f64 / w.len() as f64;
        // Both tail columns from one sorted pass.
        let ps = percentiles_us(&lat, &[0.5, 0.95]);
        t.row(vec![
            k.to_string(),
            format!("{vq:.0}"),
            format!("{:.1}%", 100.0 * vq / n as f64),
            format!("{:.0}%", 100.0 * early as f64 / w.len() as f64),
            format!("{:.1}", checks as f64 / w.len() as f64),
            format!("{:.0}", ps[0]),
            format!("{:.0}", ps[1]),
        ]);
    }
    format!(
        "Fig 8 — users visited before termination vs k (flickr, α={alpha})\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------- Table 3

/// Table 3: ablations — posting encoding, skip pointers, cluster size,
/// landmark count, bound-check interval.
pub fn table3(profile: Profile) -> String {
    let c = corpus_for(&DatasetSpec::delicious_like(profile.scale()));
    let w = std_workload(&c, profile.queries(), 10);
    let mut out = String::new();

    // (a) posting-list encoding and skips: global index size + latency.
    let mut t = TextTable::new(&["postings config", "index size", "mean us"]);
    for (name, cfg) in [
        (
            "delta-varint + skips",
            PostingConfig {
                encoding: Encoding::DeltaVarint,
                block_len: 128,
                skips_enabled: true,
            },
        ),
        (
            "raw + skips",
            PostingConfig {
                encoding: Encoding::Raw,
                block_len: 128,
                skips_enabled: true,
            },
        ),
        (
            "delta-varint, no skips",
            PostingConfig {
                encoding: Encoding::DeltaVarint,
                block_len: 128,
                skips_enabled: false,
            },
        ),
    ] {
        let mut global = GlobalProcessor::new(&c, IndexConfig { postings: cfg });
        let (lat, _) = drive(&mut global, &w);
        t.row(vec![
            name.into(),
            fmt_bytes(global.memory_bytes()),
            format!("{:.0}", mean_us(&lat)),
        ]);
    }
    out.push_str(&format!("Table 3a — posting-list ablation\n{}", t.render()));

    // (b) cluster index: max cluster size × landmarks.
    let mut exact = ExactOnline::new(&c, ProximityModel::DistanceDecay { alpha: 0.5 });
    let truth: Vec<Vec<u32>> = w
        .queries
        .iter()
        .map(|q| exact.query(q).item_ids())
        .collect();
    let mut t = TextTable::new(&[
        "cluster config",
        "clusters",
        "index size",
        "mean us",
        "p@10",
    ]);
    for (mcs, nl) in [(32usize, 16usize), (64, 16), (128, 16), (64, 4), (64, 32)] {
        let mut cluster = ClusterIndex::build(
            &c,
            ClusterConfig {
                alpha: 0.5,
                max_cluster_size: mcs,
                num_landmarks: nl,
                ..ClusterConfig::default()
            },
        );
        let mut lat = Vec::new();
        let mut ps = Vec::new();
        for (q, tr) in w.queries.iter().zip(&truth) {
            let (r, d) = timed(|| cluster.query(q));
            lat.push(d);
            ps.push(precision_at_k(&r.item_ids(), tr, 10));
        }
        t.row(vec![
            format!("size<={mcs}, L={nl}"),
            cluster.num_clusters().to_string(),
            fmt_bytes(cluster.memory_bytes()),
            format!("{:.0}", mean_us(&lat)),
            format!("{:.2}", mean(&ps)),
        ]);
    }
    out.push_str(&format!(
        "\nTable 3b — cluster-index ablation\n{}",
        t.render()
    ));

    // (c) expansion bound-check interval.
    let mut t = TextTable::new(&["check interval", "mean us", "visited/query"]);
    for ci in [4usize, 16, 64, 256] {
        let mut expansion = FriendExpansion::new(
            &c,
            ExpansionConfig {
                alpha: 0.5,
                check_interval: ci,
                ..ExpansionConfig::default()
            },
        );
        let (lat, stats) = drive(&mut expansion, &w);
        t.row(vec![
            ci.to_string(),
            format!("{:.0}", mean_us(&lat)),
            format!("{:.0}", stats.users_visited as f64 / w.len() as f64),
        ]);
    }
    out.push_str(&format!(
        "\nTable 3c — expansion bound-check interval\n{}",
        t.render()
    ));

    // (d) hybrid routing threshold: how the dispatch rule trades the two
    // personalized strategies off against each other.
    let mut t = TextTable::new(&[
        "expansion budget",
        "mean us",
        "-> expansion %",
        "-> cluster %",
        "-> global %",
    ]);
    for budget in [0usize, 100_000, 2_000_000, usize::MAX] {
        let mut hybrid = Hybrid::build(
            &c,
            HybridConfig {
                alpha: 0.5,
                expansion_budget: budget,
            },
        );
        let mut lat = Vec::new();
        let mut routes: std::collections::HashMap<&'static str, usize> =
            std::collections::HashMap::new();
        for q in &w.queries {
            let (_, d) = timed(|| hybrid.query(q));
            lat.push(d);
            *routes.entry(hybrid.last_route()).or_insert(0) += 1;
        }
        let pct =
            |name: &str| 100.0 * routes.get(name).copied().unwrap_or(0) as f64 / w.len() as f64;
        let label = if budget == usize::MAX {
            "unbounded".to_owned()
        } else {
            budget.to_string()
        };
        t.row(vec![
            label,
            format!("{:.0}", mean_us(&lat)),
            format!("{:.0}%", pct("friend-expansion")),
            format!("{:.0}%", pct("cluster-index")),
            format!("{:.0}%", pct("global")),
        ]);
    }
    out.push_str(&format!(
        "\nTable 3d — hybrid routing threshold\n{}",
        t.render()
    ));
    format!("Table 3 — ablations ({:?})\n\n{}", profile.scale(), out)
}

// ------------------------------------------------------------------ Fig 9

/// Fig 9: the query hot path under Zipf-skewed seeker traffic — batch
/// throughput of the dense-materialize baseline
/// ([`crate::DenseMaterializeExact`], a registry entry a cache-less client
/// is told to use) vs the standard paths of the client API, all
/// [`ServedClient`]s with one shard per thread: a cache-less one (zero σ
/// byte budget: the epoch-stamped workspace path), a cached one
/// (shard-private seeker-proximity caches) — both, like the baseline, one
/// request per dispatch cycle — and one in the serving posture, which also
/// coalesces. Clients are standing (started outside the timed region —
/// that is the point of the API). Rankings are asserted identical across
/// all four paths while measuring.
pub fn fig9(profile: Profile) -> ExperimentOutput {
    let c = Arc::new(corpus_for(&DatasetSpec::delicious_like(profile.scale())));
    let (count, threads) = match profile {
        Profile::Quick => (300, 4),
        Profile::Full => (3_000, 4),
    };
    let w = crate::zipf_seeker_workload(&c, count, 10, 1.1, SEED ^ 0xF19);
    let models = [
        ProximityModel::FriendsOnly,
        ProximityModel::WeightedDecay { alpha: 0.5 },
        ProximityModel::Ppr {
            alpha: 0.2,
            epsilon: 1e-4,
        },
        ProximityModel::AdamicAdar,
    ];
    // One request per dispatch cycle: the baselines do not coalesce.
    let uncoalesced = ServiceConfig {
        shards: threads,
        max_batch: 1,
        ..ServiceConfig::default()
    };
    let cacheless = ServiceConfig {
        cache_bytes: 0, // pure workspace path
        ..uncoalesced.clone()
    };
    let dense_client = ServedClient::with_registry(
        Arc::clone(&c),
        cacheless.clone(),
        crate::registry_with_dense_baseline(),
    );
    let workspace_client = ServedClient::start(Arc::clone(&c), cacheless);
    let served_client = ServedClient::start(
        Arc::clone(&c),
        ServiceConfig {
            shards: threads,
            ..ServiceConfig::default()
        },
    );
    let mut t = TextTable::new(&[
        "model",
        "dense q/s",
        "workspace q/s",
        "cached q/s",
        "service q/s",
        "ws speedup",
        "cache speedup",
        "hit rate",
    ]);
    // Per-model cached clients shut down inside the loop; their per-stage
    // histograms merge into one aggregate for the latency table.
    let mut cached_lat = StageSnapshot::default();
    for model in models {
        let (dense_r, dense_d) = timed(|| {
            crate::search_with(&dense_client, &w.queries, model, crate::DENSE_MATERIALIZE)
        });
        let (ws_r, ws_d) = timed(|| workspace_client.search(&w.queries, model));
        // A fresh cached client per model: the hit rate below is this
        // model's, not an accumulation across the row loop.
        let cached_client = ServedClient::start(Arc::clone(&c), uncoalesced.clone());
        let (cached_r, cached_d) = timed(|| cached_client.search(&w.queries, model));
        cached_lat.merge(&cached_client.latencies());
        let cached_stats = cached_client.shutdown().totals();
        // The serving path: the same workload through the seeker-affinity
        // broker's serving posture (coalescing + shard-private caches).
        let (served_r, served_d) = timed(|| served_client.search(&w.queries, model));
        // The four paths must agree item-for-item — this is measured code,
        // but correctness is free to check here.
        for (((a, b), d), s) in dense_r.iter().zip(&ws_r).zip(&cached_r).zip(&served_r) {
            assert_eq!(a.items, b.items, "workspace path diverged ({model:?})");
            assert_eq!(a.items, d.items, "cached path diverged ({model:?})");
            assert_eq!(a.items, s.items, "service path diverged ({model:?})");
        }
        let qps = |d: Duration| count as f64 / d.as_secs_f64();
        let (dq, wq, cq, sq) = (qps(dense_d), qps(ws_d), qps(cached_d), qps(served_d));
        t.row(vec![
            model.name().into(),
            format!("{dq:.0}"),
            format!("{wq:.0}"),
            format!("{cq:.0}"),
            format!("{sq:.0}"),
            format!("{:.1}x", wq / dq),
            format!("{:.1}x", cq / dq),
            format!("{:.0}%", 100.0 * cached_stats.cache.hit_rate()),
        ]);
    }
    // Per-stage percentiles of the three standard client paths.
    let ws_lat = workspace_client.latencies();
    let svc_lat = served_client.latencies();
    let mut lt = stage_table();
    stage_rows(&mut lt, "workspace", &ws_lat);
    stage_rows(&mut lt, "cached", &cached_lat);
    stage_rows(&mut lt, "service", &svc_lat);
    let metrics = vec![
        plans_metric(&workspace_client.stats().totals().plans),
        (
            "service_plans".to_owned(),
            plan_histogram_json(&served_client.stats().totals().plans),
        ),
        ("latency_workspace".to_owned(), stage_snapshot_json(&ws_lat)),
        (
            "latency_cached".to_owned(),
            stage_snapshot_json(&cached_lat),
        ),
        ("latency_service".to_owned(), stage_snapshot_json(&svc_lat)),
        // The unified registry view of the same counters (the
        // `friends_*` naming convention; see friends_core::metrics).
        (
            "metrics_workspace".to_owned(),
            workspace_client.metrics().render_json(),
        ),
        (
            "metrics_service".to_owned(),
            served_client.metrics().render_json(),
        ),
    ];
    workspace_client.shutdown();
    served_client.shutdown();
    ExperimentOutput {
        text: format!(
            "Fig 9 — hot-path throughput, Zipf(1.1) seekers ({:?}, {count} queries, {threads} threads)\n{}\nPer-stage latency (all models pooled)\n{}",
            profile.scale(),
            t.render(),
            lt.render()
        ),
        metrics,
    }
}

/// Renders a [`friends_core::plan::PlanHistogram`] as a JSON object string
/// (shared with the `report` binary so the per-experiment metrics and the
/// probe emit one schema).
pub fn plan_histogram_json(h: &friends_core::plan::PlanHistogram) -> String {
    // Reporting reads go through registry lookups (the stable
    // `friends_plan_*` keys), not the histogram's arrays — the struct
    // stays the recording surface. The legacy JSON shape is preserved.
    let mut registry = MetricsRegistry::new();
    h.register_into(&mut registry);
    let strategies: Vec<String> = STRATEGY_LABELS
        .iter()
        .map(|label| {
            let n = registry
                .get(&format!("friends_plan_strategy_total{{strategy={label}}}"))
                .unwrap_or(0.0) as u64;
            format!("\"{label}\": {n}")
        })
        .collect();
    let processors: Vec<String> = registry
        .iter()
        .filter(|m| m.name == "friends_plan_processor_total")
        .enumerate()
        .map(|(i, m)| format!("\"entry{i}\": {}", m.value as u64))
        .collect();
    format!(
        "{{\"strategies\": {{{}}}, \"processors\": {{{}}}}}",
        strategies.join(", "),
        processors.join(", ")
    )
}

fn plans_metric(h: &friends_core::plan::PlanHistogram) -> (String, String) {
    (
        "planner_strategy_histogram".to_owned(),
        plan_histogram_json(h),
    )
}

/// Renders one stage's latency histogram as a JSON object string (times
/// in µs; quantiles are the histogram's pessimistic upper bounds, see
/// [`friends_core::latency`]).
pub fn latency_snapshot_json(s: &LatencySnapshot) -> String {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    format!(
        "{{\"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \
         \"max_us\": {:.1}, \"mean_us\": {:.1}}}",
        s.count(),
        us(s.p50()),
        us(s.p99()),
        us(s.p999()),
        us(s.max()),
        us(s.mean())
    )
}

/// Renders a per-stage snapshot as a JSON object keyed by stage name —
/// the shape of the `latency_*` metrics every client-driven experiment
/// emits into `report --json`.
pub fn stage_snapshot_json(s: &StageSnapshot) -> String {
    let stages: Vec<String> = STAGES
        .iter()
        .map(|&st| format!("\"{}\": {}", st.name(), latency_snapshot_json(s.get(st))))
        .collect();
    format!("{{{}}}", stages.join(", "))
}

/// A fresh per-stage latency table (one shape shared by every
/// client-driven figure).
fn stage_table() -> TextTable {
    TextTable::new(&[
        "path", "stage", "count", "p50 us", "p99 us", "p999 us", "max us",
    ])
}

/// Appends one row per stage of `snap` under `label`.
fn stage_rows(t: &mut TextTable, label: &str, snap: &StageSnapshot) {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    for &stage in &STAGES {
        let s = snap.get(stage);
        t.row(vec![
            label.into(),
            stage.name().into(),
            s.count().to_string(),
            format!("{:.0}", us(s.p50())),
            format!("{:.0}", us(s.p99())),
            format!("{:.0}", us(s.p999())),
            format!("{:.0}", us(s.max())),
        ]);
    }
}

/// Renders cache counters as a JSON object string (shared with the
/// `report` binary, like [`plan_histogram_json`]).
pub fn cache_stats_json(s: &friends_core::cache::CacheStats) -> String {
    // Reporting reads go through registry lookups (the stable
    // `friends_cache_*` keys), not the struct's fields — see the
    // migration table in `crates/README.md`. The legacy JSON shape is
    // preserved for downstream `jq` consumers.
    let mut registry = MetricsRegistry::new();
    s.register_into(&mut registry, "cache");
    let count = |k: &str| registry.get(&format!("friends_cache_{k}")).unwrap_or(0.0) as u64;
    format!(
        "{{\"hits\": {}, \"misses\": {}, \"insertions\": {}, \"evictions\": {}, \
         \"rejections\": {}, \"expirations\": {}, \"entries\": {}, \"bytes\": {}, \
         \"hit_rate\": {:.4}}}",
        count("hits_total"),
        count("misses_total"),
        count("insertions_total"),
        count("evictions_total"),
        count("rejections_total"),
        count("expirations_total"),
        count("entries"),
        count("bytes"),
        registry.get("friends_cache_hit_rate").unwrap_or(0.0)
    )
}

// ----------------------------------------------------------------- Fig 10

/// Fig 10: the three exact scoring strategies — full posting scan, support
/// probe and block-max σ-aware WAND — across proximity models and tag
/// selectivities, driven through a one-shard [`ServedClient`] with
/// forced strategy hints (latencies include the client stack, identically
/// for every strategy, so the ratios stay comparable). "Head" queries draw
/// popular tags (long posting lists, the low-selectivity regime block-max
/// targets); "tail" queries draw unpopular ones. Rankings are asserted
/// identical across strategies while measuring.
pub fn fig10(profile: Profile) -> ExperimentOutput {
    let c = Arc::new(corpus_for(&DatasetSpec::delicious_like(profile.scale())));
    c.sigma_index(); // built once, outside the timed region
    let n_q = profile.queries();
    let client = ServedClient::start(
        Arc::clone(&c),
        ServiceConfig {
            shards: 1, // per-query latency, one processor's scratch reuse
            ..ServiceConfig::default()
        },
    );
    let mut t = TextTable::new(&[
        "workload",
        "model",
        "scan us",
        "support us",
        "blockmax us",
        "bm/scan",
        "bm postings/q",
        "bm skips/q",
    ]);
    for (wname, w) in [
        (
            "head",
            crate::selectivity_workload(&c, n_q, 10, true, SEED ^ 0xF10),
        ),
        (
            "tail",
            crate::selectivity_workload(&c, n_q, 10, false, SEED ^ 0xF11),
        ),
    ] {
        for model in [
            ProximityModel::FriendsOnly,
            ProximityModel::DistanceDecay { alpha: 0.3 },
            ProximityModel::WeightedDecay { alpha: 0.5 },
            ProximityModel::AdamicAdar,
        ] {
            let (scan_lat, _, scan_r) =
                drive_client(&client, &w, model, ScoringStrategy::PostingScan);
            let (bm_lat, bm_stats, bm_r) =
                drive_client(&client, &w, model, ScoringStrategy::BlockMax);
            // Strategies must agree item-for-item (measured code, but the
            // differential contract is free to check here).
            for ((a, b), q) in scan_r.iter().zip(&bm_r).zip(&w.queries) {
                assert_eq!(
                    a.items,
                    b.items,
                    "block-max diverged ({} {q:?})",
                    model.name()
                );
            }
            let support_cell = if model.has_sparse_support() {
                let (sup_lat, _, sup_r) =
                    drive_client(&client, &w, model, ScoringStrategy::SupportProbe);
                for ((a, b), q) in scan_r.iter().zip(&sup_r).zip(&w.queries) {
                    assert_eq!(
                        a.items,
                        b.items,
                        "support probe diverged ({} {q:?})",
                        model.name()
                    );
                }
                format!("{:.0}", mean_us(&sup_lat))
            } else {
                "-".into()
            };
            t.row(vec![
                wname.into(),
                model.name().into(),
                format!("{:.0}", mean_us(&scan_lat)),
                support_cell,
                format!("{:.0}", mean_us(&bm_lat)),
                format!("{:.2}x", mean_us(&scan_lat) / mean_us(&bm_lat).max(1e-9)),
                format!("{:.0}", bm_stats.postings_scanned as f64 / w.len() as f64),
                format!("{:.1}", bm_stats.blocks_skipped as f64 / w.len() as f64),
            ]);
        }
    }
    // One aggregate per-stage view across every strategy arm (the client
    // records per request; strategy-sliced σ/scoring live in the row
    // ratios above).
    let lat = client.latencies();
    let mut lt = stage_table();
    stage_rows(&mut lt, "client", &lat);
    let registry_json = client.metrics().render_json();
    let stats = client.shutdown().totals();
    ExperimentOutput {
        text: format!(
            "Fig 10 — scan vs support-probe vs block-max σ-aware WAND ({:?}, {n_q} queries, k=10)\n{}\nPer-stage latency (all strategies pooled)\n{}",
            profile.scale(),
            t.render(),
            lt.render()
        ),
        metrics: vec![
            plans_metric(&stats.plans),
            ("latency_client".to_owned(), stage_snapshot_json(&lat)),
            ("metrics_client".to_owned(), registry_json),
        ],
    }
}

// ----------------------------------------------------------------- Fig 11

/// Fig 11: the serving tier — a [`ServedClient`] with coalescing and result
/// memoization vs a baseline `ServedClient` over as many shards that takes
/// one request per dispatch cycle and memoizes nothing, on a Zipf(1.1)
/// request stream with per-seeker repeat queries (the
/// [`friends_data::requests`] traffic shape). Both keep each seeker's σ on
/// one shard's private admission-controlled cache; only the service
/// coalesces duplicate in-flight requests and serves cross-cycle repeats
/// out of the result cache. It sheds nothing at the default deadline.
/// Rankings are asserted identical while measuring.
pub fn fig11(profile: Profile) -> ExperimentOutput {
    use friends_data::requests::{RequestParams, RequestStream};

    // The serving regime (see [`crate::serving_corpus`]): heavy tags, so
    // per-request cost is scoring — the work coalescing removes.
    let (users, count, workers) = match profile {
        Profile::Quick => (1_000, 400, 4),
        Profile::Full => (10_000, 2_000, 4),
    };
    let c = Arc::new(crate::serving_corpus(users, SEED));
    c.sigma_index(); // shared lazy build, outside every timed region
    let stream = RequestStream::generate(
        &c.graph,
        &c.store,
        &RequestParams {
            count,
            seeker_theta: 1.1,
            ..RequestParams::default()
        },
        SEED ^ 0xF11A,
    );
    let queries = stream.queries();
    let mut t = TextTable::new(&[
        "model",
        "baseline q/s",
        "service q/s",
        "speedup",
        "coalesced %",
        "memo-served %",
        "hit %",
        "deadline miss",
        "max depth",
    ]);
    let mut lt = stage_table();
    let mut metrics = Vec::new();
    for model in [
        ProximityModel::DistanceDecay { alpha: 0.3 },
        ProximityModel::Ppr {
            alpha: 0.2,
            epsilon: 1e-4,
        },
    ] {
        // The baseline: the same shards and σ caches, one request per
        // dispatch cycle, no result cache.
        let base_client = ServedClient::start(
            Arc::clone(&c),
            ServiceConfig {
                shards: workers,
                max_batch: 1,
                ..ServiceConfig::default()
            },
        );
        let (base_r, base_d) = timed(|| base_client.search(&queries, model));
        base_client.shutdown();
        // The serving path: affinity routing + coalescing + private caches
        // + cross-cycle result memoization, behind the client API.
        let client = ServedClient::start(
            Arc::clone(&c),
            ServiceConfig {
                shards: workers,
                result_cache_capacity: 4096,
                ..ServiceConfig::default()
            },
        );
        let requests: Vec<QueryRequest> = queries
            .iter()
            .map(|q| QueryRequest::from_query(q.clone()).with_model(model))
            .collect();
        let (replies, svc_d) = timed(|| client.run_batch(requests));
        let stats = client.shutdown().totals();
        // Measured code, but the differential contract is free to check:
        // routing/coalescing/memoization must never change an *answer*.
        // Requests shed at the default deadline (possible on a very loaded
        // machine) are reported in the table column instead of aborting
        // the report — the zero-miss requirement is pinned by
        // `fig11_service_gate`.
        for (a, b) in base_r.iter().zip(&replies) {
            if let Some(served) = b.outcome.result() {
                assert_eq!(a.items, served.items, "service diverged ({model:?})");
            }
        }
        let qps = |d: Duration| queries.len() as f64 / d.as_secs_f64();
        let (bq, sq) = (qps(base_d), qps(svc_d));
        t.row(vec![
            model.name().into(),
            format!("{bq:.0}"),
            format!("{sq:.0}"),
            format!("{:.2}x", sq / bq),
            format!(
                "{:.0}%",
                100.0 * stats.coalesced as f64 / stats.submitted as f64
            ),
            format!(
                "{:.0}%",
                100.0 * stats.result_served as f64 / stats.submitted as f64
            ),
            format!("{:.0}%", 100.0 * stats.cache.hit_rate()),
            stats.deadline_misses.to_string(),
            stats.max_queue_depth.to_string(),
        ]);
        metrics.push((
            format!("result_cache_{}", model.name()),
            cache_stats_json(&stats.results),
        ));
        metrics.push((
            format!("plans_{}", model.name()),
            plan_histogram_json(&stats.plans),
        ));
        stage_rows(&mut lt, model.name(), &stats.latency);
        metrics.push((
            format!("latency_{}", model.name()),
            stage_snapshot_json(&stats.latency),
        ));
        let mut registry = MetricsRegistry::new();
        stats.register_into(&mut registry);
        metrics.push((format!("metrics_{}", model.name()), registry.render_json()));
    }
    ExperimentOutput {
        text: format!(
            "Fig 11 — serving tier: coalescing, memoizing ServedClient vs one-request-per-cycle baseline \
             (Zipf(1.1) repeat-query stream, {users} users, {count} requests, {workers} shards)\n{}\nPer-stage service latency\n{}",
            t.render(),
            lt.render()
        ),
        metrics,
    }
}

// ----------------------------------------------------------------- Fig 12

/// Fig 12: the σ-materialization floor on a **seeker-diverse** stream —
/// every seeker distinct, so caches and memoization never hit and every
/// query pays cold materialization. On the archipelago corpus (disjoint
/// ~community-sized islands) a seeker's reach is a small fraction of the
/// universe; the figure compares the pre-PR dense-snapshot miss path
/// (`O(n)` snapshot per cold seeker) against the reach-proportional
/// `Touched` path, under one shared byte budget, and reports the per-model
/// snapshot footprint and touched fraction. Rankings are asserted identical
/// while measuring.
pub fn fig12(profile: Profile) -> ExperimentOutput {
    use friends_core::cache::{CachePolicy, ProximityCache};
    use friends_core::proximity::SigmaWorkspace;

    let (users, community, count) = match profile {
        Profile::Quick => (2_000, 64, 300),
        Profile::Full => (10_000, 64, 2_000),
    };
    let c = crate::archipelago_corpus(users, community, SEED);
    let n = c.num_users() as usize;
    let w = crate::distinct_seeker_workload(&c, count, 10, SEED ^ 0xF12);
    let budget = 16usize << 20; // 16 MiB shared byte budget, both paths
    let mut t = TextTable::new(&[
        "model",
        "dense-snap q/s",
        "touched q/s",
        "speedup",
        "touched %",
        "snap B",
        "snaps/MiB",
        "cached seekers",
    ]);
    let mut lt = stage_table();
    let mut metrics = Vec::new();
    for model in [
        ProximityModel::DistanceDecay { alpha: 0.3 },
        ProximityModel::WeightedDecay { alpha: 0.5 },
        ProximityModel::Ppr {
            alpha: 0.2,
            epsilon: 1e-4,
        },
        ProximityModel::AdamicAdar,
    ] {
        // Footprint sample, outside the timed region: mean snapshot bytes
        // and touched fraction over a spread of seekers.
        let mut ws = SigmaWorkspace::new();
        let (mut bytes_sum, mut frac_sum) = (0usize, 0.0f64);
        let sample = 32.min(w.len());
        for q in w.queries.iter().take(sample) {
            model.materialize_into(&c.graph, q.seeker, &mut ws);
            let snap = ws.snapshot(n);
            bytes_sum += snap.memory_bytes();
            frac_sum += snap
                .support()
                .map_or(1.0, |s| s.len() as f64 / n.max(1) as f64);
        }
        let snap_bytes = bytes_sum / sample.max(1);
        let touched_frac = frac_sum / sample.max(1) as f64;

        // Sparse-support models (PPR, AdamicAdar) were reach-proportional
        // before this representation existed — both paths snapshot the same
        // Sparse vector, so a dense-vs-touched timing row would only
        // measure noise. They get footprint columns; the decay models get
        // the timed comparison the fig12 gate pins.
        let timing = if model.has_sparse_support() {
            None
        } else {
            // Both arms carry the identical per-query recording overhead
            // (one `Instant` pair plus three histogram records), so the
            // speedup ratio stays a fair comparison. Queue wait stays
            // empty by construction: this drive has no queue.
            let policy = CachePolicy::default();
            let dense_cache = Arc::new(ProximityCache::with_byte_budget(budget, policy));
            let mut dense = crate::DenseSnapshotExact::new(&c, model, Arc::clone(&dense_cache));
            let dense_stages = StageLatencies::new();
            let (dense_r, dense_d) = timed(|| {
                w.queries
                    .iter()
                    .map(|q| {
                        let (r, d) = timed(|| dense.query(q));
                        dense_stages.record_ns(Stage::Sigma, r.stats.sigma_ns);
                        dense_stages.record_ns(Stage::Scoring, r.stats.scoring_ns);
                        dense_stages.record(Stage::EndToEnd, d);
                        r
                    })
                    .collect::<Vec<_>>()
            });
            let touched_cache = Arc::new(ProximityCache::with_byte_budget(budget, policy));
            let mut touched = ExactOnline::with_cache(&c, model, Arc::clone(&touched_cache));
            let touched_stages = StageLatencies::new();
            let (touched_r, touched_d) = timed(|| {
                w.queries
                    .iter()
                    .map(|q| {
                        let (r, d) = timed(|| touched.query(q));
                        touched_stages.record_ns(Stage::Sigma, r.stats.sigma_ns);
                        touched_stages.record_ns(Stage::Scoring, r.stats.scoring_ns);
                        touched_stages.record(Stage::EndToEnd, d);
                        r
                    })
                    .collect::<Vec<_>>()
            });
            // Measured code, but the differential contract is free to
            // check: the snapshot representation must never change an
            // answer.
            for ((a, b), q) in dense_r.iter().zip(&touched_r).zip(&w.queries) {
                assert_eq!(a.items, b.items, "touched path diverged ({model:?} {q:?})");
            }
            let qps = |d: Duration| count as f64 / d.as_secs_f64();
            Some((
                qps(dense_d),
                qps(touched_d),
                touched_cache.stats().entries,
                dense_cache.stats().entries,
                dense_stages.snapshot(),
                touched_stages.snapshot(),
            ))
        };
        let (dense_cell, touched_cell, speedup_cell, entries_cell, speedup_json) = match &timing {
            Some((dq, tq, te, de, _, _)) => (
                format!("{dq:.0}"),
                format!("{tq:.0}"),
                format!("{:.2}x", tq / dq),
                format!("{te} vs {de} dense"),
                format!("{:.3}", tq / dq),
            ),
            None => (
                "-".into(),
                "-".into(),
                "already sparse".into(),
                "-".into(),
                "null".into(),
            ),
        };
        if let Some((_, _, _, _, dense_snap, touched_snap)) = &timing {
            stage_rows(&mut lt, &format!("dense/{}", model.name()), dense_snap);
            stage_rows(&mut lt, &format!("touched/{}", model.name()), touched_snap);
            metrics.push((
                format!("latency_dense_{}", model.name()),
                stage_snapshot_json(dense_snap),
            ));
            metrics.push((
                format!("latency_touched_{}", model.name()),
                stage_snapshot_json(touched_snap),
            ));
            // Registry view of the touched (post-PR) arm: this direct drive
            // has no service stats, so only the stage latencies register.
            let mut registry = MetricsRegistry::new();
            touched_snap.register_into(&mut registry);
            metrics.push((format!("metrics_{}", model.name()), registry.render_json()));
        }
        t.row(vec![
            model.name().into(),
            dense_cell,
            touched_cell,
            speedup_cell,
            format!("{:.1}%", 100.0 * touched_frac),
            snap_bytes.to_string(),
            format!("{:.0}", (1 << 20) as f64 / (snap_bytes + 96) as f64),
            entries_cell,
        ]);
        metrics.push((
            format!("sigma_floor_{}", model.name()),
            format!(
                "{{\"snapshot_bytes\": {}, \"touched_fraction\": {:.4}, \"speedup\": {}}}",
                snap_bytes, touched_frac, speedup_json
            ),
        ));
    }
    ExperimentOutput {
        text: format!(
            "Fig 12 — the σ-materialization floor: dense-snapshot vs reach-proportional miss \
             path (seeker-diverse stream, {users} users in {community}-islands, {count} cold \
             queries, 16 MiB byte-budget caches)\n{}\nPer-stage latency (direct drive — no queue)\n{}",
            t.render(),
            lt.render()
        ),
        metrics,
    }
}

// ----------------------------------------------------------------- Fig 13

/// What one open-loop overload run observed, client-side.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverloadOutcome {
    /// Requests submitted (the whole stream).
    pub submitted: usize,
    /// Requests answered `Done`.
    pub done: usize,
    /// Requests shed / expired (`DeadlineMissed`).
    pub missed: usize,
    /// Requests answered `Failed`.
    pub failed: usize,
    /// `Done` replies marked degraded (executed under tightened σ bounds).
    pub degraded: usize,
    /// Largest residual certificate among degraded replies.
    pub max_residual: f64,
    /// p50 client-observed completion latency of `Done` replies, in ms.
    pub p50_ms: f64,
    /// p99 client-observed completion latency of `Done` replies, in ms.
    pub p99_ms: f64,
    /// Wall-clock of the whole run (submission through last completion).
    pub elapsed: Duration,
}

/// Drives an open-loop (fixed arrival schedule) stream through a client
/// from a single thread: submissions are paced to each request's arrival
/// offset, completions are drained through a [`friends_service::Multiplexer`]
/// between arrivals, and every request carries `deadline` — so an
/// overloaded service must shed or degrade, never silently stall the
/// driver. Returns the client-side view of the run.
pub fn drive_open_loop(
    client: &dyn SearchClient,
    stream: &friends_data::requests::OpenLoopStream,
    model: ProximityModel,
    deadline: Duration,
) -> OverloadOutcome {
    use friends_service::{Multiplexer, Outcome, Reply};
    use std::time::Instant;

    let mut out = OverloadOutcome {
        submitted: stream.len(),
        ..OverloadOutcome::default()
    };
    let mut latencies: Vec<Duration> = Vec::with_capacity(stream.len());
    let mut submitted_at: Vec<Instant> = Vec::with_capacity(stream.len());
    let mut mux = Multiplexer::new();
    let start = Instant::now();
    let mut record = |(tag, reply): (u64, Reply), submitted_at: &[Instant]| {
        let latency = submitted_at[tag as usize].elapsed();
        match reply.outcome {
            Outcome::Done(_) => {
                out.done += 1;
                latencies.push(latency);
                if reply.degraded {
                    out.degraded += 1;
                    out.max_residual = out.max_residual.max(reply.residual);
                }
            }
            Outcome::DeadlineMissed => out.missed += 1,
            Outcome::Failed => out.failed += 1,
        }
    };
    for (i, r) in stream.requests.iter().enumerate() {
        loop {
            // Drain whatever has completed, then pace to the arrival.
            while let Some(completion) = mux.poll() {
                record(completion, &submitted_at);
            }
            let now = start.elapsed();
            if now >= r.arrival {
                break;
            }
            std::thread::sleep((r.arrival - now).min(Duration::from_micros(200)));
        }
        submitted_at.push(Instant::now());
        mux.push(
            client.submit(
                QueryRequest::from_query(r.query.clone())
                    .with_model(model)
                    .with_deadline(deadline)
                    .with_tag(i as u64),
            ),
        );
    }
    for completion in mux.by_ref() {
        record(completion, &submitted_at);
    }
    out.elapsed = start.elapsed();
    // One sorted pass for both quantiles, interpolated between ranks.
    let ps = percentiles_us(&latencies, &[0.5, 0.99]);
    out.p50_ms = ps[0] / 1e3;
    out.p99_ms = ps[1] / 1e3;
    out
}

/// Fig 13: overload behavior — exact serving vs SLO-degraded serving at a
/// fixed arrival rate **1.5× the measured closed-loop capacity**. The exact
/// service can only shed (deadline misses); the degraded service's overload
/// controller tightens σ bounds (trading exactness for per-request cost,
/// each reply carrying its residual certificate) and sheds only as a last
/// resort. The gate (`fig13_overload_gate`) pins the Full-profile claim:
/// degraded mode holds p99 inside the deadline with bounded residuals while
/// exact mode sheds ≥ 20%.
pub fn fig13(profile: Profile) -> ExperimentOutput {
    use friends_data::requests::{OpenLoopParams, OpenLoopStream, RequestParams};
    use friends_service::OverloadPolicy;

    let (users, count, probe_count, deadline) = match profile {
        // Quick still needs a schedule much longer than the deadline —
        // otherwise the whole run is one sub-deadline burst and overload
        // never builds — so it keeps the full request count on the small
        // corpus (the schedule compresses to ~0.5 s there anyway).
        Profile::Quick => (2_000, 3_000, 600, Duration::from_millis(40)),
        Profile::Full => (20_000, 3_000, 800, Duration::from_millis(40)),
    };
    let c = Arc::new(crate::overload_corpus(users, SEED));
    c.sigma_index(); // shared lazy build, outside every timed region
    let model = ProximityModel::WeightedDecay { alpha: 0.5 };
    let shards = 2;
    let shape = RequestParams {
        count,
        seeker_theta: 1.1,
        ..RequestParams::default()
    };

    // The open-loop schedule offers 1.5× the *exact* service's closed-loop
    // capacity over this query shape.
    let capacity = crate::probe_capacity(&c, shards, model, &shape, probe_count, SEED ^ 0xF13);
    let rate = 1.5 * capacity;
    let stream = OpenLoopStream::generate(
        &c.graph,
        &c.store,
        &OpenLoopParams {
            rate,
            poisson: false, // deterministic pacing: the overload is sustained
            shape,
        },
        SEED ^ 0xF13,
    );

    let mut t = TextTable::new(&[
        "mode",
        "offered q/s",
        "done %",
        "shed %",
        "degraded %",
        "p50 ms",
        "p99 ms",
        "max residual",
        "restarts",
    ]);
    let mut lt = stage_table();
    let mut metrics = Vec::new();
    for (mode, overload) in [
        ("exact", None),
        (
            "degraded",
            Some(OverloadPolicy {
                depth_high: 16,
                depth_low: 4,
            }),
        ),
    ] {
        let client = ServedClient::start(
            Arc::clone(&c),
            ServiceConfig {
                shards,
                max_batch: 64,
                default_deadline: Some(deadline),
                overload,
                ..ServiceConfig::default()
            },
        );
        let run = drive_open_loop(&client, &stream, model, deadline);
        let stats = client.shutdown().totals();
        let pct = |x: usize| 100.0 * x as f64 / run.submitted.max(1) as f64;
        t.row(vec![
            mode.into(),
            format!("{rate:.0}"),
            format!("{:.1}%", pct(run.done)),
            format!("{:.1}%", pct(run.missed)),
            format!("{:.1}%", pct(run.degraded)),
            format!("{:.2}", run.p50_ms),
            format!("{:.2}", run.p99_ms),
            format!("{:.3e}", run.max_residual),
            stats.worker_restarts.to_string(),
        ]);
        metrics.push((
            format!("overload_{mode}"),
            format!(
                "{{\"offered_qps\": {rate:.0}, \"done\": {}, \"missed\": {}, \"degraded\": {}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_residual\": {:.6e}, \
                 \"deadline_misses\": {}, \"server_degraded\": {}}}",
                run.done,
                run.missed,
                run.degraded,
                run.p50_ms,
                run.p99_ms,
                run.max_residual,
                stats.deadline_misses,
                stats.degraded,
            ),
        ));
        stage_rows(&mut lt, mode, &stats.latency);
        metrics.push((
            format!("latency_{mode}"),
            stage_snapshot_json(&stats.latency),
        ));
        let mut registry = MetricsRegistry::new();
        stats.register_into(&mut registry);
        metrics.push((format!("metrics_{mode}"), registry.render_json()));
    }
    ExperimentOutput {
        text: format!(
            "Fig 13 — degrade, don't drop: open-loop overload at 1.5x measured capacity \
             ({capacity:.0} q/s closed-loop, {users} users, {count} requests, {shards} shards, \
             {}ms deadline)\n{}\nPer-stage service latency\n{}",
            deadline.as_millis(),
            t.render(),
            lt.render()
        ),
        metrics,
    }
}

// ----------------------------------------------------------------- Fig 14

/// Drives the open-loop query `stream` through `client` (same pacing as
/// [`drive_open_loop`]) while a writer thread applies `writes` — `(arrival,
/// batch)` pairs — through [`ServedClient::apply_mutations`] at their
/// scheduled offsets. Returns the client view of the read path plus the
/// accumulated mutation reports (final epoch; summed counts).
pub fn drive_live_open_loop(
    client: &ServedClient,
    stream: &friends_data::requests::OpenLoopStream,
    model: ProximityModel,
    deadline: Duration,
    writes: &[(Duration, friends_data::mutations::MutationBatch)],
    horizon: Option<u32>,
) -> (OverloadOutcome, friends_service::MutationReport) {
    use std::time::Instant;
    std::thread::scope(|s| {
        let start = Instant::now();
        let writer = s.spawn(move || {
            let mut sum = friends_service::MutationReport::default();
            for (arrival, batch) in writes {
                let now = start.elapsed();
                if now < *arrival {
                    std::thread::sleep(*arrival - now);
                }
                let r = client.apply_mutations(batch, horizon);
                sum.epoch = r.epoch;
                sum.mutations += r.mutations;
                sum.sigma.merge(&r.sigma);
                sum.results_invalidated += r.results_invalidated;
                sum.sigma_refreshed += r.sigma_refreshed;
            }
            sum
        });
        let run = drive_open_loop(client, stream, model, deadline);
        (run, writer.join().expect("mutation writer panicked"))
    })
}

/// Fig 14: the live graph — read-path latency while writes stream. The
/// same open-loop query schedule (paced at 60% of measured closed-loop
/// capacity: the experiment isolates mutation cost, not overload) is served
/// twice from the same seed corpus: once **frozen** (no writes), once
/// **live** with a mutation stream — Zipf-skewed edge inserts/removals plus
/// tagging appends — applied through `apply_mutations` at 15% of the query
/// rate (the fig14 regime floor is 10%). Every batch is a batch-boundary
/// epoch switch on every shard: the σ cache records the batch's edits and
/// repairs stale σ when read, plus per-seeker / per-tag result-cache
/// invalidation, never a full stamp. The gate
/// (`fig14_live_graph_gate`) pins the Full-profile claim: live read p99
/// within 2× the frozen baseline, with nonzero incremental invalidations
/// and zero full-stamp expirations.
pub fn fig14(profile: Profile) -> ExperimentOutput {
    use friends_data::mutations::{MutationBatch, MutationParams, MutationStream};
    use friends_data::requests::{OpenLoopParams, OpenLoopStream, RequestParams};

    let (users, count, probe_count, deadline) = match profile {
        Profile::Quick => (2_000, 1_500, 400, Duration::from_millis(50)),
        Profile::Full => (20_000, 3_000, 800, Duration::from_millis(50)),
    };
    let c = Arc::new(crate::overload_corpus(users, SEED));
    c.sigma_index(); // shared lazy build, outside every timed region
    let model = ProximityModel::WeightedDecay { alpha: 0.5 };
    let shards = 2;
    let shape = RequestParams {
        count,
        seeker_theta: 1.1,
        ..RequestParams::default()
    };

    let capacity = crate::probe_capacity(&c, shards, model, &shape, probe_count, SEED ^ 0xF14);
    // 30% of closed-loop capacity: the writer (sweeps, epoch prepare,
    // capped σ refresh) shares the same cores as the shards, so the
    // headroom is what absorbs its work — this measures mutation cost at a
    // sustainable rate, not mutation cost compounded with overload.
    let rate = 0.3 * capacity;
    let stream = OpenLoopStream::generate(
        &c.graph,
        &c.store,
        &OpenLoopParams {
            rate,
            poisson: false,
            shape: shape.clone(),
        },
        SEED ^ 0xF14,
    );

    // The write stream: 10% of the query rate (the fig14 regime floor),
    // batched 64 mutations per epoch step, each batch applied when its
    // last member has arrived. `horizon: None` keeps result-cache
    // invalidation exact (unbounded seeker BFS on the pre-mutation graph)
    // — the cost being measured.
    let write_rate = 0.10 * rate;
    let muts = MutationStream::generate(
        &c.graph,
        &c.store,
        &MutationParams {
            count: (count as f64 * 0.10).ceil() as usize,
            rate: write_rate,
            user_theta: shape.seeker_theta,
            ..MutationParams::default()
        },
        SEED ^ 0xF14,
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

    let mut t = TextTable::new(&[
        "mode",
        "offered q/s",
        "writes/s",
        "epochs",
        "mutations",
        "σ rebuilt",
        "σ refreshed",
        "results dropped",
        "done %",
        "shed %",
        "p50 ms",
        "p99 ms",
    ]);
    let mut lt = stage_table();
    let mut metrics = Vec::new();
    for mode in ["frozen", "live"] {
        let client = ServedClient::start(
            Arc::clone(&c),
            ServiceConfig {
                shards,
                max_batch: 64,
                default_deadline: Some(deadline),
                result_cache_capacity: 4_096,
                ..ServiceConfig::default()
            },
        );
        let (run, report) = if mode == "live" {
            drive_live_open_loop(&client, &stream, model, deadline, &writes, None)
        } else {
            (
                drive_open_loop(&client, &stream, model, deadline),
                friends_service::MutationReport::default(),
            )
        };
        let service_stats = client.shutdown();
        let stats = service_stats.totals();
        let pct = |x: usize| 100.0 * x as f64 / run.submitted.max(1) as f64;
        t.row(vec![
            mode.into(),
            format!("{rate:.0}"),
            if mode == "live" {
                format!("{write_rate:.0}")
            } else {
                "0".into()
            },
            report.epoch.to_string(),
            report.mutations.to_string(),
            (report.sigma.dropped + report.sigma.too_far_behind).to_string(),
            report.sigma_refreshed.to_string(),
            report.results_invalidated.to_string(),
            format!("{:.1}%", pct(run.done)),
            format!("{:.1}%", pct(run.missed)),
            format!("{:.2}", run.p50_ms),
            format!("{:.2}", run.p99_ms),
        ]);
        metrics.push((
            format!("live_{mode}"),
            format!(
                "{{\"offered_qps\": {rate:.0}, \"write_rate\": {write_rate:.0}, \
                 \"epochs\": {}, \"mutations\": {}, \"sigma_rebuilt\": {}, \
                 \"sigma_refreshed\": {}, \"results_invalidated\": {}, \"done\": {}, \
                 \"missed\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
                 \"result_expirations\": {}}}",
                report.epoch,
                report.mutations,
                report.sigma.dropped + report.sigma.too_far_behind,
                report.sigma_refreshed,
                report.results_invalidated,
                run.done,
                run.missed,
                run.p50_ms,
                run.p99_ms,
                stats.results.expirations,
            ),
        ));
        stage_rows(&mut lt, mode, &stats.latency);
        metrics.push((
            format!("latency_{mode}"),
            stage_snapshot_json(&stats.latency),
        ));
        // The whole-service registry: the pooled shard counters plus the
        // write path's stage times and stale-σ counters.
        metrics.push((
            format!("metrics_{mode}"),
            service_stats.registry().render_json(),
        ));
    }
    ExperimentOutput {
        text: format!(
            "Fig 14 — live graph: read-path latency while writes stream \
             ({users} users, {count} requests at 30% of {capacity:.0} q/s closed-loop, \
             writes at 10% of the query rate in {}-mutation epoch batches, {shards} shards, \
             {}ms deadline)\n{}\nPer-stage service latency\n{}",
            WRITE_BATCH,
            deadline.as_millis(),
            t.render(),
            lt.render()
        ),
        metrics,
    }
}

/// Fig 15: durability — what crash safety costs on the read path, and how
/// fast recovery replays the WAL. Three serving arms share the fig14
/// regime (open-loop reads at 30% of closed-loop capacity, paced writes at
/// 10% of the read rate): `wal-off` (no durability), `wal-buffered`
/// (`SyncPolicy::Never` — records hit the OS, fsync never), and
/// `wal-fsync` (`SyncPolicy::Always` — one fsync per acknowledged batch).
/// Each arm reports read p50/p99 under writes plus a closed-loop write
/// burst's throughput; durable arms also export their `friends_wal_*`
/// counters. The second table is the recovery-time curve: a WAL-only
/// directory (snapshots disabled) recovered from scratch at increasing
/// mutation counts — replay cost is linear in WAL length, which is exactly
/// the tail `snapshot_every` bounds. The Full-profile gate
/// (`fig15_durability_gate`) pins the claims: fsync-per-batch read p99
/// within 1.3× of wal-off, and a 10k-mutation WAL recovered in under 2 s.
pub fn fig15(profile: Profile) -> ExperimentOutput {
    use friends_core::live::{DurabilityConfig, LiveCorpus};
    use friends_data::mutations::{MutationBatch, MutationParams, MutationStream};
    use friends_data::requests::{OpenLoopParams, OpenLoopStream, RequestParams};
    use friends_data::wal::SyncPolicy;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("friends-bench-fig15-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    let (users, count, probe_count, deadline, curve): (_, _, _, _, Vec<usize>) = match profile {
        Profile::Quick => (
            2_000,
            900,
            300,
            Duration::from_millis(50),
            vec![160, 480, 960],
        ),
        Profile::Full => (
            20_000,
            3_000,
            800,
            Duration::from_millis(50),
            vec![1_000, 4_000, 10_000],
        ),
    };
    let c = Arc::new(crate::overload_corpus(users, SEED));
    c.sigma_index(); // shared lazy build, outside every timed region
    let model = ProximityModel::WeightedDecay { alpha: 0.5 };
    let shards = 2;
    let shape = RequestParams {
        count,
        seeker_theta: 1.1,
        ..RequestParams::default()
    };

    // One probe prices every arm's pacing identically.
    let capacity = crate::probe_capacity(&c, shards, model, &shape, probe_count, SEED ^ 0xF15);
    let rate = 0.3 * capacity;
    let stream = OpenLoopStream::generate(
        &c.graph,
        &c.store,
        &OpenLoopParams {
            rate,
            poisson: false,
            shape: shape.clone(),
        },
        SEED ^ 0xF15,
    );
    let write_rate = 0.10 * rate;
    let muts = MutationStream::generate(
        &c.graph,
        &c.store,
        &MutationParams {
            count: (count as f64 * 0.10).ceil() as usize,
            rate: write_rate,
            user_theta: shape.seeker_theta,
            ..MutationParams::default()
        },
        SEED ^ 0xF15,
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
    // The closed-loop write burst: same count again, applied back-to-back
    // after the paced phase, so the table prices the write path itself
    // (prepare + WAL append + sweep + publish) per durability mode.
    let burst = MutationStream::generate(
        &c.graph,
        &c.store,
        &MutationParams {
            count: (count as f64 * 0.10).ceil() as usize,
            rate: write_rate,
            user_theta: shape.seeker_theta,
            ..MutationParams::default()
        },
        SEED ^ 0xF15B,
    )
    .batches(WRITE_BATCH);
    let burst_mutations: usize = burst.iter().map(|b| b.len()).sum();

    let arms: [(&str, Option<SyncPolicy>); 3] = [
        ("wal-off", None),
        ("wal-buffered", Some(SyncPolicy::Never)),
        ("wal-fsync", Some(SyncPolicy::Always)),
    ];
    let mut t = TextTable::new(&[
        "mode",
        "offered q/s",
        "writes/s",
        "done %",
        "shed %",
        "read p50 ms",
        "read p99 ms",
        "burst writes/s",
        "wal appends",
        "wal KiB",
        "fsyncs",
    ]);
    let mut metrics = Vec::new();
    for (name, sync) in arms {
        let dir = scratch_dir(name);
        let durability = sync.map(|policy| {
            let mut d = DurabilityConfig::new(&dir);
            d.sync = policy;
            d
        });
        let client = ServedClient::start(
            Arc::clone(&c),
            ServiceConfig {
                shards,
                max_batch: 64,
                default_deadline: Some(deadline),
                result_cache_capacity: 4_096,
                durability,
                ..ServiceConfig::default()
            },
        );
        let (run, _) = drive_live_open_loop(&client, &stream, model, deadline, &writes, None);
        let (_, wd) = timed(|| {
            for b in &burst {
                client.apply_mutations(b, None);
            }
        });
        let write_qps = burst_mutations as f64 / wd.as_secs_f64();
        let wal = client.service().wal_stats().unwrap_or_default();
        let pct = |x: usize| 100.0 * x as f64 / run.submitted.max(1) as f64;
        t.row(vec![
            name.into(),
            format!("{rate:.0}"),
            format!("{write_rate:.0}"),
            format!("{:.1}%", pct(run.done)),
            format!("{:.1}%", pct(run.missed)),
            format!("{:.2}", run.p50_ms),
            format!("{:.2}", run.p99_ms),
            format!("{write_qps:.0}"),
            wal.appends.to_string(),
            (wal.bytes / 1024).to_string(),
            wal.syncs.to_string(),
        ]);
        metrics.push((
            format!("durability_{name}"),
            format!(
                "{{\"offered_qps\": {rate:.0}, \"write_rate\": {write_rate:.0}, \
                 \"done\": {}, \"missed\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
                 \"burst_write_qps\": {write_qps:.0}, \"wal_appends\": {}, \
                 \"wal_bytes\": {}, \"wal_syncs\": {}, \"wal_rotations\": {}}}",
                run.done,
                run.missed,
                run.p50_ms,
                run.p99_ms,
                wal.appends,
                wal.bytes,
                wal.syncs,
                wal.rotations,
            ),
        ));
        let stats = client.shutdown();
        metrics.push((
            format!("latency_{name}"),
            stage_snapshot_json(&stats.totals().latency),
        ));
        metrics.push((format!("metrics_{name}"), stats.registry().render_json()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The recovery-time curve: WAL only (snapshots disabled), recovered
    // from scratch at each checkpoint. `SyncPolicy::Never` keeps the
    // append side cheap — replay, the thing being timed, reads the same
    // bytes either way.
    let rdir = scratch_dir("recovery");
    let rcfg = {
        let mut d = DurabilityConfig::new(&rdir);
        d.sync = SyncPolicy::Never;
        d.snapshot_every = 0;
        d
    };
    let live = LiveCorpus::open_durable(Arc::clone(&c), rcfg).expect("scratch durability dir");
    let rmuts = MutationStream::generate(
        &c.graph,
        &c.store,
        &MutationParams {
            count: *curve.last().expect("nonempty curve"),
            rate: write_rate,
            user_theta: shape.seeker_theta,
            ..MutationParams::default()
        },
        SEED ^ 0xF15C,
    );
    let mut rbatches = rmuts.batches(WRITE_BATCH).into_iter();
    let mut rt = TextTable::new(&["mutations", "batches replayed", "wal KiB", "recover ms"]);
    let mut curve_json = Vec::new();
    let mut applied = 0usize;
    for &target in &curve {
        while applied < target {
            let b = rbatches.next().expect("curve exceeds mutation stream");
            applied += b.len();
            live.commit(&b, None, |_, _| ()).expect("durable commit");
        }
        live.sync_wal()
            .expect("flush WAL tail before recovery reads it");
        let (recovered, rep) = LiveCorpus::recover(&rdir).expect("recover scratch dir");
        assert_eq!(
            recovered.epoch(),
            live.epoch(),
            "recovery lost acked batches"
        );
        rt.row(vec![
            applied.to_string(),
            rep.replayed.to_string(),
            (rep.wal_bytes / 1024).to_string(),
            format!("{:.1}", rep.elapsed_ms),
        ]);
        curve_json.push(format!(
            "{{\"mutations\": {applied}, \"replayed_batches\": {}, \
             \"wal_bytes\": {}, \"recover_ms\": {:.3}}}",
            rep.replayed, rep.wal_bytes, rep.elapsed_ms
        ));
    }
    metrics.push((
        "recovery_curve".to_string(),
        format!("[{}]", curve_json.join(", ")),
    ));
    let _ = std::fs::remove_dir_all(&rdir);

    ExperimentOutput {
        text: format!(
            "Fig 15 — durability: WAL overhead on the read path and the recovery-time curve \
             ({users} users, {count} requests at 30% of {capacity:.0} q/s closed-loop, \
             writes at 10% of the query rate in {WRITE_BATCH}-mutation epoch batches, \
             {shards} shards, {}ms deadline)\n{}\nRecovery time vs WAL length \
             (snapshots disabled; the tail snapshot_every bounds)\n{}",
            deadline.as_millis(),
            t.render(),
            rt.render()
        ),
        metrics,
    }
}

/// One experiment's rendered table plus machine-readable metrics for
/// `report --json` (`(key, raw JSON value)` pairs — e.g. result-cache
/// counters, planner strategy histograms).
pub struct ExperimentOutput {
    pub text: String,
    pub metrics: Vec<(String, String)>,
}

impl From<String> for ExperimentOutput {
    fn from(text: String) -> Self {
        ExperimentOutput {
            text,
            metrics: Vec::new(),
        }
    }
}

/// All experiment names, in report order.
pub const ALL: &[&str] = &[
    "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "table3",
];

/// Dispatches an experiment by name, returning its table and metrics.
pub fn run_full(name: &str, profile: Profile) -> Option<ExperimentOutput> {
    Some(match name {
        "table1" => table1(profile).into(),
        "table2" => table2(profile).into(),
        "fig3" => fig3(profile).into(),
        "fig4" => fig4(profile).into(),
        "fig5" => fig5(profile).into(),
        "fig6" => fig6(profile).into(),
        "fig7" => fig7(profile).into(),
        "fig8" => fig8(profile).into(),
        "fig9" => fig9(profile),
        "fig10" => fig10(profile),
        "fig11" => fig11(profile),
        "fig12" => fig12(profile),
        "fig13" => fig13(profile),
        "fig14" => fig14(profile),
        "fig15" => fig15(profile),
        "table3" => table3(profile).into(),
        _ => return None,
    })
}

/// [`run_full`] keeping only the rendered table.
pub fn run(name: &str, profile: Profile) -> Option<String> {
    run_full(name, profile).map(|o| o.text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_runs_in_quick_profile() {
        for &name in ALL {
            let out = run(name, Profile::Quick).expect(name);
            assert!(out.contains('\n'), "{name} produced no table");
            assert!(out.len() > 100, "{name} output suspiciously small");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run("fig99", Profile::Quick).is_none());
    }
}
