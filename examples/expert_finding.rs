//! Expert finding: a second application built on the same public API.
//!
//! Instead of ranking *items*, rank *users*: who in (or near) my network is
//! the authority on a topic? The expert score of user `v` for seeker `u` and
//! tag `t` is `σ(u, v) · mass_v(t)` — annotation volume discounted by social
//! distance. This demonstrates composing the proximity models and the tag
//! store directly; the closing section then asks the unified
//! [`SearchClient`] what those nearby authorities would actually recommend,
//! tying the custom ranking back to the planner-backed item search.
//!
//! ```sh
//! cargo run --release --example expert_finding
//! ```

use friends::graph::traversal::{bfs_distances, UNREACHABLE};
use friends::prelude::*;
use std::sync::Arc;

/// Rank the top-`k` experts on `tag` from `seeker`'s point of view.
fn find_experts(
    corpus: &Corpus,
    model: ProximityModel,
    seeker: UserId,
    tag: TagId,
    k: usize,
) -> Vec<(UserId, f64)> {
    let sigma = model.materialize(&corpus.graph, seeker);
    let mut experts: Vec<(UserId, f64)> = Vec::new();
    for v in 0..corpus.num_users() {
        if v == seeker {
            continue; // you are not your own expert
        }
        let mass: f64 = corpus
            .store
            .user_tag_taggings(v, tag)
            .iter()
            .map(|t| t.weight as f64)
            .sum();
        let score = sigma[v as usize] * mass;
        if score > 0.0 {
            experts.push((v, score));
        }
    }
    experts.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    experts.truncate(k);
    experts
}

fn main() {
    let ds = DatasetSpec::citeulike_like(Scale::Tiny).build(17);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));

    // Busiest tag = the hottest research topic in this synthetic world.
    let topic = (0..corpus.store.num_tags())
        .max_by_key(|&t| corpus.store.tag_taggings(t).len())
        .expect("non-empty tag universe");
    let seeker: UserId = 5;

    println!(
        "topic tag {topic} ({} annotations); seeker {seeker} (degree {})\n",
        corpus.store.tag_taggings(topic).len(),
        corpus.graph.degree(seeker)
    );

    let hop_counts = bfs_distances(&corpus.graph, seeker);
    for model in [
        ProximityModel::Global,
        ProximityModel::FriendsOnly,
        ProximityModel::WeightedDecay { alpha: 0.5 },
        ProximityModel::Ppr {
            alpha: 0.2,
            epsilon: 1e-5,
        },
    ] {
        let experts = find_experts(&corpus, model, seeker, topic, 5);
        println!("top experts under `{}`:", model.name());
        if experts.is_empty() {
            println!("  (none reachable)");
        }
        for (rank, (v, score)) in experts.iter().enumerate() {
            let hops = match hop_counts[*v as usize] {
                UNREACHABLE => "∞".to_string(),
                h => h.to_string(),
            };
            println!(
                "  #{:<2} user {:<6} score {:.4}  ({} hops away, {} annotations on topic)",
                rank + 1,
                v,
                score,
                hops,
                corpus.store.user_tag_taggings(*v, topic).len()
            );
        }
        println!();
    }

    // What would those nearby authorities point the seeker at? The same
    // topic as an item query through the unified client — the planner
    // picks the processor and strategy.
    let client = ServedClient::start(Arc::clone(&corpus), ServiceConfig::default());
    let reply = client.run(
        QueryRequest::new(seeker, vec![topic], 5)
            .with_model(ProximityModel::WeightedDecay { alpha: 0.5 }),
    );
    let items = reply.outcome.result().expect("served in time");
    println!("what the seeker's circle would recommend on the topic:");
    for (rank, (item, score)) in items.items.iter().enumerate() {
        println!("  #{:<2} item {:<6} score {score:.4}", rank + 1, item);
    }
    client.shutdown();

    println!(
        "\nnote how `global` surfaces the most prolific users anywhere in the\n\
         network, while the personalized models surface *nearby* authorities\n\
         — the ones a real person could actually ask for help."
    );
}
