//! Dump the unified metrics registry as Prometheus text exposition.
//!
//! Drives a small repeat-query stream through a [`ServedClient`] (so the
//! caches, planner and coalescer all have something to count), then prints
//! `SearchClient::metrics()` rendered as Prometheus exposition — the same
//! `friends_<subsystem>_<name>` keys `report --json` embeds as `metrics_*`
//! objects. CI lints every line of this output against
//! `^# (HELP|TYPE)|^friends_[a-z0-9_]+(\{[^}]*\})? [0-9]`.
//!
//! ```sh
//! cargo run --release --example metrics_dump
//! ```

use friends::prelude::*;
use std::sync::Arc;

fn main() {
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
            // Tiny caches so admission and eviction both show up: the σ
            // budget holds about 16 of this corpus's vectors.
            cache_bytes: 64 << 10,
            result_cache_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    // Two passes of the same stream: the second hits the proximity and
    // result caches, so hit counters and memo-served counts are non-zero.
    let queries = stream.queries();
    let model = ProximityModel::WeightedDecay { alpha: 0.5 };
    client.search(&queries, model);
    client.search(&queries, model);
    print!("{}", client.metrics().render_prometheus());
    client.shutdown();
}
