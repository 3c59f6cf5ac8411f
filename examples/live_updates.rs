//! Live graph: interleave edge inserts with queries on a running service.
//!
//! Streams generated mutations through [`ServedClient::apply_mutations`]
//! in epoch batches while the same client keeps answering queries. After
//! every batch it prints the new corpus epoch, what the queries since the
//! previous batch did with the stale σ vectors they read (kept as they
//! were, repaired in place — with the mean number of nodes a repair
//! changed and the composed edits checked — or rebuilt), how many
//! memoized results the batch invalidated, and where the write's ack went
//! (building the next epoch, the shard barrier) next to the read-side
//! repair time — then finishes with the registry's
//! per-batch means of those stages, its stale-σ counters, and the read
//! path's per-stage latency percentiles accumulated across all epochs.
//!
//! ```sh
//! cargo run --release --example live_updates
//! ```

use friends::prelude::*;
use std::sync::Arc;

fn main() {
    let ds = DatasetSpec::delicious_like(Scale::Small).build(42);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    let queries = RequestStream::generate(
        &corpus.graph,
        &corpus.store,
        &RequestParams {
            count: 2_000,
            ..RequestParams::default()
        },
        11,
    )
    .queries();
    let muts = MutationStream::generate(
        &corpus.graph,
        &corpus.store,
        &MutationParams {
            count: 256,
            ..MutationParams::default()
        },
        11,
    );

    let client = ServedClient::start(
        Arc::clone(&corpus),
        ServiceConfig {
            shards: 2,
            result_cache_capacity: 1_024,
            ..ServiceConfig::default()
        },
    );
    let model = ProximityModel::WeightedDecay { alpha: 0.5 };

    // Warm both caches so the epoch switches below have something real to
    // make stale — a cold cache gives the reads nothing to repair.
    client.search(&queries, model);

    let batches = muts.batches(32);
    let per_epoch = queries.len() / (batches.len() + 1);
    println!(
        "epoch | mutations | σ kept | σ repaired | mean Δ | folded | σ rebuilt \
         | results dropped | queries between | prepare ms | repair ms | barrier ms"
    );
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    for (i, batch) in batches.iter().enumerate() {
        // Queries and writes interleave: each slice runs against the
        // epoch the previous batch published.
        let slice = &queries[i * per_epoch..(i + 1) * per_epoch];
        client.search(slice, model);
        // A batch that edits an edge drops every σ-dependent memoized
        // ranking; σ itself is repaired by the next read that needs it.
        let report: MutationReport = client.apply_mutations(batch);
        let sigma = report.sigma;
        println!(
            "{:>5} | {:>9} | {:>6} | {:>10} | {:>6.1} | {:>6} | {:>9} | {:>15} | {:>15} \
             | {:>10.3} | {:>9.3} | {:>10.3}",
            report.epoch,
            report.mutations,
            sigma.kept,
            sigma.repaired,
            sigma.changed_nodes as f64 / sigma.repaired.max(1) as f64,
            sigma.folded_edits,
            sigma.dropped + sigma.too_far_behind,
            report.results_invalidated,
            slice.len(),
            ms(report.prepare),
            ms(report.refresh),
            ms(report.barrier),
        );
    }

    let stats = client.stats();
    let registry = stats.registry();
    println!("\nwrite-path stage means per batch and stale-σ totals (registry):");
    for key in [
        "friends_mutation_prepare_ms",
        "friends_mutation_refresh_ms",
        "friends_mutation_barrier_ms",
        "friends_mutation_sigma_kept_total",
        "friends_mutation_sigma_repaired_total",
        "friends_mutation_sigma_dropped_total",
        "friends_mutation_sigma_too_far_behind_total",
        "friends_mutation_sigma_folded_edits_total",
        "friends_mutation_sigma_changed_nodes",
        "friends_proximity_cache_stale_repaired_total",
        "friends_proximity_cache_cold_misses_total",
    ] {
        let value = registry
            .get(key)
            .expect("the service exports its write stages");
        println!("  {key:<46} {value:>10.3}");
    }
    let totals = stats.totals();
    assert_eq!(totals.mutation_epoch, batches.len() as u64);
    println!(
        "\nread-path stage latencies across {} epochs:",
        totals.mutation_epoch
    );
    for &stage in &[
        Stage::QueueWait,
        Stage::Sigma,
        Stage::Scoring,
        Stage::EndToEnd,
    ] {
        let snap = totals.latency.get(stage);
        println!(
            "  {:<10} p50 {:>9.3?}  p99 {:>9.3?}  max {:>9.3?}  ({} samples)",
            stage.name(),
            snap.p50(),
            snap.p99(),
            snap.max(),
            snap.count(),
        );
    }
    client.shutdown();
}
