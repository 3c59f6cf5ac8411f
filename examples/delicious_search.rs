//! Social bookmark search: the motivating scenario of the paper family.
//!
//! Two users issue the *same* tag query. The global ranking is the same
//! list for both; the network-aware engine returns different lists, each
//! biased toward what the seeker's circle has bookmarked. The example
//! drives all four requests (2 seekers × 2 models) concurrently through
//! one [`SearchClient`] and a deadline-aware [`Multiplexer`], then
//! quantifies the divergence (Jaccard of result sets, Kendall's τ).
//!
//! ```sh
//! cargo run --release --example delicious_search
//! ```

use friends::prelude::*;
use std::sync::Arc;

fn jaccard(a: &[ItemId], b: &[ItemId]) -> f64 {
    let sa: std::collections::HashSet<_> = a.iter().collect();
    let sb: std::collections::HashSet<_> = b.iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    inter as f64 / (sa.len() + sb.len() - inter) as f64
}

fn main() {
    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(1);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    let alpha = 0.4;
    let personalized = ProximityModel::WeightedDecay { alpha };

    // Pick the two highest-degree users as seekers and a popular tag pair
    // they can both "see" (used in both neighborhoods).
    let mut by_degree: Vec<UserId> = (0..corpus.num_users()).collect();
    by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(corpus.graph.degree(u)));
    let (alice, bob) = (by_degree[0], by_degree[1]);

    // Most-used tags overall.
    let mut tag_volume: Vec<(TagId, usize)> = (0..corpus.store.num_tags())
        .map(|t| (t, corpus.store.tag_taggings(t).len()))
        .collect();
    tag_volume.sort_unstable_by_key(|&(_, n)| std::cmp::Reverse(n));
    let tags: Vec<TagId> = tag_volume.iter().take(2).map(|&(t, _)| t).collect();
    let k = 10;

    println!(
        "seekers: alice={alice} (degree {}), bob={bob} (degree {})",
        corpus.graph.degree(alice),
        corpus.graph.degree(bob)
    );
    println!("query tags: {tags:?} (the two most-used tags), k={k}\n");

    // One client, four in-flight requests, one completion loop. Tags
    // 0/1 = alice/bob global, 2/3 = alice/bob personalized.
    let client = ServedClient::start(Arc::clone(&corpus), ServiceConfig::default());
    let mut mux = Multiplexer::new();
    for (tag_id, (seeker, model)) in [
        (alice, ProximityModel::Global),
        (bob, ProximityModel::Global),
        (alice, personalized),
        (bob, personalized),
    ]
    .into_iter()
    .enumerate()
    {
        mux.push(
            client.submit(
                QueryRequest::new(seeker, tags.clone(), k)
                    .with_model(model)
                    .with_tag(tag_id as u64),
            ),
        );
    }
    let mut results: [Option<SearchResult>; 4] = [None, None, None, None];
    for (tag, reply) in mux {
        results[tag as usize] = Some(reply.outcome.expect_done("search"));
    }
    let [ga, gb, pa, pb] = results.map(|r| r.expect("all four completed"));

    println!("global(alice) vs global(bob):");
    println!(
        "  identical (as expected): jaccard = {:.2}",
        jaccard(&ga.item_ids(), &gb.item_ids())
    );

    println!("personalized(alice) vs personalized(bob):");
    println!(
        "  jaccard = {:.2}, kendall tau on common = {:.2}",
        jaccard(&pa.item_ids(), &pb.item_ids()),
        kendall_tau(&pa.item_ids(), &pb.item_ids())
    );

    println!("\npersonalized vs global, per seeker:");
    for (name, p, g) in [("alice", &pa, &ga), ("bob", &pb, &gb)] {
        println!(
            "  {name}: precision@{k} of global against personalized truth = {:.2}",
            precision_at_k(&g.item_ids(), &p.item_ids(), k)
        );
    }

    println!("\nalice's personalized top-5 (score = friend-weighted mass):");
    for (rank, (item, score)) in pa.items.iter().take(5).enumerate() {
        // How many direct friends bookmarked it with the query tags?
        let friends_with_item = corpus
            .graph
            .neighbors(alice)
            .iter()
            .filter(|&&f| {
                tags.iter().any(|&t| {
                    corpus
                        .store
                        .user_tag_taggings(f, t)
                        .iter()
                        .any(|tg| tg.item == *item)
                })
            })
            .count();
        println!(
            "  #{:<2} item {:<6} score {:.3}  ({} direct friends bookmarked it)",
            rank + 1,
            item,
            score,
            friends_with_item
        );
    }
    client.shutdown();
}
