//! The metric tables: every name the benchmark prints, with its unit and —
//! for end-to-end metrics — its direction and the bound by which it may
//! worsen. `BENCHMARK.json` is generated from these tables
//! (`benchmark manifest`), so the file the driver reads and the code that
//! measures cannot drift apart; a unit test compares the two.

use crate::inputs::SPECS;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub definition: &'static str,
}

/// Bounds come from two sets of ten runs per workload, each run another seed
/// (`NOISE.md`): at least three times the widest interquartile spread seen
/// for the metric on any workload, rounded up to a step of 5 %, with room
/// left for the half hours in which the box is noisier than it was then;
/// never above the contract's 0.25.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        definition: "corpus build + sigma-index + service start (durable ones seed a snapshot) + pass 0 over cold caches; median of three set-ups spread over the run",
    },
    EndToEnd {
        name: "sat_qps",
        unit: "1/s",
        better: "higher",
        bound: 0.20,
        definition: "reads completed per second with 64 in flight, good-side quartile over passes; in live_durable per 256-read segment with the following write's stall included",
    },
    EndToEnd {
        name: "solo_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        definition: "median submit-to-reply round trip with one request in flight, good-side quartile over passes (segments in live_durable)",
    },
    EndToEnd {
        name: "solo_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.20,
        definition: "p90 round trip with one request in flight (at least 25 samples beyond it per pass), good-side quartile over passes",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        definition: "VmHWM of the benchmark process at exit",
    },
    EndToEnd {
        name: "surge_goodput_qps",
        unit: "1/s",
        better: "higher",
        bound: 0.15,
        definition: "open-loop burst at the workload's fixed rate with a 40 ms deadline: replies Done within 40 ms of their due time per second of burst, good-side quartile over the 8 bursts",
    },
    EndToEnd {
        name: "write_ack_ms",
        unit: "ms",
        better: "lower",
        bound: 0.20,
        definition: "apply_mutations call time for a 64-mutation batch under SyncPolicy::Always, good-side quartile over batches",
    },
    EndToEnd {
        name: "recover_ms",
        unit: "ms",
        better: "lower",
        bound: 0.20,
        definition: "LiveCorpus::recover on the write service's directory (seed snapshot + replay of every batch so far), good-side quartile over one call per round",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Whether the value must repeat bit for bit between runs of one seed.
    pub exact: bool,
    /// The public call timed, or the counter read.
    pub source: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    exact: bool,
    source: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        exact,
        source,
        moves,
    }
}

pub const PER_LAYER: [Layer; 51] = [
    layer("graph.traverse_us", "us", false, "the model's graph traversal per seeker: bfs_stamped to the decay horizon, or ProximityScan run dry", "cold_sigma sat_qps, solo_*, surge_goodput_qps; not memo_hot, scan_heavy"),
    layer("graph.nodes_visited", "count", true, "nodes that traversal reaches, median per seeker", "cold_sigma, with graph.traverse_us"),
    layer("graph.with_edits_ms", "ms", false, "CsrGraph::with_edits per write batch", "write_ack_ms; no read-only metric"),
    layer("data.wal_append_always_us", "us", false, "Wal::append under SyncPolicy::Always", "write_ack_ms"),
    layer("data.wal_append_never_us", "us", false, "Wal::append under SyncPolicy::Never", "write_ack_ms (the part that is not fsync)"),
    layer("data.wal_bytes_per_mutation", "B", true, "WalStats::bytes over mutations appended", "write_ack_ms, recover_ms"),
    layer("data.wal_syncs", "count", true, "WalStats::syncs after the Always appends", "write_ack_ms"),
    layer("data.wal_replay_ms", "ms", false, "Wal::replay of the appended batches", "recover_ms"),
    layer("data.snapshot_load_ms", "ms", false, "io::load_with_epoch of the seed snapshot", "recover_ms"),
    layer("data.snapshot_save_ms", "ms", false, "io::save_with_epoch of the seed corpus", "setup_s of durable services"),
    layer("data.snapshot_bytes", "B", true, "size of that snapshot file", "recover_ms, setup_s"),
    layer("data.store_appends_ms", "ms", false, "TagStore::with_appends per write batch", "write_ack_ms"),
    layer("index.sigma_index_build_ms", "ms", false, "first Corpus::sigma_index() on a fresh corpus", "setup_s everywhere; write_ack_ms (the writer re-warms it)"),
    layer("index.search_us", "us", false, "scoring with sigma ready, by the planned route: BlockMaxWand::search, or the posting scan into DenseAccumulator", "scan_heavy sat_qps and solo_p90_us more than solo_p50_us; not memo_hot; cold_sigma under 3 %"),
    layer("index.decode_ns_per_posting", "ns", false, "PostingList::block_docs_into over every block of the queried lists", "scan_heavy, with index.search_us"),
    layer("index.blocks_skipped", "count", true, "QueryStats::blocks_skipped (skip decisions of the block-max route), median per request", "scan_heavy sat_qps"),
    layer("index.postings_scored", "count", true, "QueryStats::postings_scanned, median per request", "scan_heavy sat_qps, solo_*"),
    layer("core.plan_ns", "ns", false, "Planner::plan", "scan_heavy solo_p50_us (small); not memo_hot (hits skip planning)"),
    layer("core.sigma_us", "us", false, "ProximityModel::materialize_bounded per cold seeker", "cold_sigma sat_qps, solo_*; not memo_hot, scan_heavy"),
    layer("core.snapshot_us", "us", false, "SigmaWorkspace::snapshot per cold seeker", "cold_sigma sat_qps, solo_*"),
    layer("core.snapshot_bytes", "B", true, "ProximityVec::memory_bytes of that snapshot, median", "peak_rss_mb; cold_sigma evictions"),
    layer("core.prox_get_ns", "ns", false, "ProximityCache::get_bounded in the replay (hit or miss as the workload has it)", "scan_heavy solo_*, sat_qps"),
    layer("core.prox_insert_ns", "ns", false, "ProximityCache::insert_bounded per cold seeker, evictions included", "cold_sigma sat_qps"),
    layer("core.prox_hit_pct", "%", true, "CacheStats hits over lookups in the replay", "scan_heavy near 100, cold_sigma 0"),
    layer("core.prox_evictions", "count", true, "CacheStats::evictions in the replay", "cold_sigma"),
    layer("core.prox_rejections", "count", true, "CacheStats::rejections in the replay", "cold_sigma"),
    layer("core.execute_us", "us", false, "PlannedExecutor::execute on the driver thread, median per request", "solo_p50_us on scan_heavy and cold_sigma; not memo_hot"),
    layer("core.execute_covered_pct", "%", false, "sum of the replayed stages over core.execute_us, medians", "none: says how much of execute the stage spans explain"),
    layer("core.live_prepare_ms", "ms", false, "LiveCorpus::prepare_from per write batch", "write_ack_ms"),
    layer("core.live_publish_us", "us", false, "LiveCorpus::publish", "write_ack_ms"),
    layer("core.invalidate_us", "us", false, "ProximityCache::invalidate_affected on the replay's cache", "write_ack_ms; live_durable sat_qps through re-materialization"),
    layer("core.prox_invalidated", "count", true, "entries that sweep dropped", "live_durable sat_qps, solo_p90_us"),
    layer("core.trace_offer_ns", "ns", false, "TraceCollector::offer", "memo_hot solo_p50_us, sat_qps; not cold_sigma"),
    layer("core.latency_record_ns", "ns", false, "LatencyRecorder::record", "memo_hot solo_p50_us, sat_qps; not cold_sigma"),
    layer("service.channel_hop_us", "us", false, "crossbeam channel send, recv and reply between two spinning threads", "memo_hot solo_p50_us, sat_qps; cold_sigma under 1 %"),
    layer("service.overhead_us", "us", false, "solo round trip minus core.execute of the same request (nothing subtracted for memo hits), median", "memo_hot; about 8 % of scan_heavy; not cold_sigma"),
    layer("service.queue_wait_us", "us", false, "Reply::queue_wait, mean over a sat pass", "sat_qps"),
    layer("service.batch_size", "count", false, "requests per dispatch cycle over a sat pass, from ShardStats", "memo_hot sat_qps"),
    layer("service.executed", "count", false, "ShardStats::executed after pass 0: the distinct requests of the block; repeats exactly where the result cache is on (memo_hot, live_durable), within a few duplicates where coalescing alone catches them", "memo_hot setup_s"),
    layer("service.memo_hit_pct", "%", false, "ShardStats::result_served over requests of a sat pass", "memo_hot sat_qps"),
    layer("service.coalesced_pct", "%", false, "ShardStats::coalesced over requests of a sat pass", "scan_heavy sat_qps"),
    layer("service.degraded_pct", "%", false, "degraded replies over requests of a surge burst", "surge_goodput_qps"),
    layer("service.shed_pct", "%", false, "requests of a surge burst not answered within the deadline", "surge_goodput_qps"),
    layer("service.max_residual", "score", false, "largest Reply::residual of the burst", "surge_goodput_qps"),
    layer("service.barrier_ms", "ms", false, "write ack minus prepare, fsynced WAL append and publish", "write_ack_ms"),
    layer("service.results_invalidated", "count", false, "MutationReport::results_invalidated of the first write after the reads", "live_durable sat_qps"),
    layer("service.sigma_refreshed", "count", false, "MutationReport::sigma_refreshed of the first write after the reads", "write_ack_ms"),
    layer("driver.late_us", "us", false, "p99 of how late the surge burst submitted against its schedule", "none: generator health"),
    layer("driver.runq_wait_pct", "%", false, "run-queue wait over cpu + wait of all threads, /proc/self/task/*/schedstat", "none: a noisy neighbour shows here"),
    layer("driver.cpu_us_per_req", "us", false, "cpu time of all threads per read of the traced section", "none: spin cost included"),
    layer("driver.trace_overhead_pct", "%", false, "traced over untraced solo p50, alternating passes", "none: the cost of the spans"),
];

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Seconds one run measures for; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 16;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(s.name),
                quoted(s.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(layer_direction(m.name))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The tables as markdown: what every workload and metric name means, the
/// call behind each layer metric and what it should move.
pub fn glossary() -> String {
    let mut out = String::from("| workload | why |\n| --- | --- |\n");
    for s in &SPECS {
        out += &format!("| `{}` | {} |\n", s.name, s.why);
    }
    out += "\n| end-to-end metric | unit | better | bound | definition |\n| --- | --- | --- | --- | --- |\n";
    for m in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better,
            100.0 * m.bound,
            m.definition
        );
    }
    out += "\n| per-layer metric | unit | exact | public call timed / counter read | should move |\n| --- | --- | --- | --- | --- |\n";
    for m in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            if m.exact { "yes" } else { "" },
            m.source,
            m.moves
        );
    }
    out
}

/// Which way a layer metric is better: rates of useful outcomes up,
/// everything else (times, bytes, work counts, waste) down.
pub fn layer_direction(name: &str) -> &'static str {
    match name {
        "index.blocks_skipped"
        | "core.prox_hit_pct"
        | "core.execute_covered_pct"
        | "service.memo_hit_pct"
        | "service.coalesced_pct"
        | "service.batch_size" => "higher",
        _ => "lower",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_used_once() {
        let mut seen = HashSet::new();
        let names = SPECS
            .iter()
            .map(|s| (s.name, "count"))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name("µs"));
        assert!(!valid_unit("µs") && valid_unit("1/s") && valid_unit("%"));
    }

    #[test]
    fn bounds_and_texts_meet_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for s in &SPECS {
            assert!(
                s.why.len() <= 200 && !s.why.contains('\n'),
                "{} why",
                s.name
            );
        }
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        assert_eq!(on_disk, manifest(), "regenerate with `benchmark manifest`");
    }
}
