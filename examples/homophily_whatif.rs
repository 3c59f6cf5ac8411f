//! What-if analysis: how much does *homophily* — friends annotating the same
//! things — power network-aware search?
//!
//! The generator exposes homophily as a knob. This example sweeps it and
//! reports, at each level: the measured annotation sharing, how well the
//! global ranking approximates the personalized one, and the cost profile
//! of FriendExpansion — making the knob's (sometimes counter-intuitive)
//! effects visible end to end. The personalized truth at every level runs
//! through the unified [`SearchClient`] (a fresh [`ServedClient`] per
//! corpus, since each level is a different world).
//!
//! ```sh
//! cargo run --release --example homophily_whatif
//! ```

use friends::data::generator::{generate, measured_homophily, WorkloadParams};
use friends::graph::generators::{self, WeightModel};
use friends::prelude::*;
use std::sync::Arc;

fn main() {
    let users = 800;
    let base = generators::watts_strogatz(users, 8, 0.1, 5);
    let graph = generators::assign_weights(&base, WeightModel::Jaccard { floor: 0.1 }, 6);

    println!(
        "{:>9} {:>10} {:>12} {:>12} {:>12}",
        "homophily", "measured", "p@10 global", "visited/user", "early-term %"
    );

    for h in [0.0, 0.25, 0.5, 0.75, 0.95] {
        let store = generate(
            &graph,
            &WorkloadParams {
                num_items: 8_000,
                num_tags: 300,
                mean_taggings_per_user: 25.0,
                homophily: h,
                ..WorkloadParams::default()
            },
            99,
        );
        let mh = measured_homophily(&graph, &store);
        let corpus = Arc::new(Corpus::new(graph.clone(), store));

        let workload = QueryWorkload::generate(
            &corpus.graph,
            &corpus.store,
            &QueryParams {
                count: 40,
                k: 10,
                ..QueryParams::default()
            },
            3,
        );

        // Personalized truth through the client API; global and expansion
        // driven directly for their cost/quality counters.
        let client = ServedClient::start(Arc::clone(&corpus), ServiceConfig::default());
        let truths = client.search(
            &workload.queries,
            ProximityModel::WeightedDecay { alpha: 0.4 },
        );
        client.shutdown();

        let mut global = GlobalProcessor::new(&corpus, IndexConfig::default());
        let mut expansion = FriendExpansion::new(
            &corpus,
            ExpansionConfig {
                alpha: 0.4,
                check_interval: 16,
                ..ExpansionConfig::default()
            },
        );

        let mut precisions = Vec::new();
        let mut visited = 0usize;
        let mut early = 0usize;
        for (q, truth) in workload.queries.iter().zip(&truths) {
            let g = global.query(q);
            precisions.push(precision_at_k(&g.item_ids(), &truth.item_ids(), q.k));
            let e = expansion.query(q);
            visited += e.stats.users_visited;
            if e.stats.early_terminated {
                early += 1;
            }
        }
        let n = workload.len() as f64;
        println!(
            "{:>9.2} {:>10.2} {:>12.2} {:>12.1} {:>11.0}%",
            h,
            mh,
            precisions.iter().sum::<f64>() / n,
            visited as f64 / n,
            100.0 * early as f64 / n
        );
    }

    println!(
        "\nreading: the measured-sharing column confirms the knob works (it\n\
         tracks the configured homophily). Two effects compound as it rises:\n\
         friends' annotations dominate the personalized score, AND copying\n\
         concentrates *global* popularity on the same items — so the global\n\
         ranking can track the personalized one better, not worse. The\n\
         regime where personalization matters most is moderate homophily\n\
         with niche queries; early-termination cost is driven by k and\n\
         proximity locality (see Fig 8 in EXPERIMENTS.md)."
    );
}
