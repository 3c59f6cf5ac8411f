//! Regenerates the evaluation tables and figures.
//!
//! ```sh
//! cargo run --release -p friends-bench --bin report -- --exp all
//! cargo run --release -p friends-bench --bin report -- --exp fig3 --profile full
//! cargo run --release -p friends-bench --bin report -- --exp all --json target/report.json
//! ```
//!
//! `--json <path>` additionally writes a machine-readable summary (one entry
//! per experiment with its wall-clock time), giving future PRs a perf
//! trajectory to diff against.

use friends_bench::experiments::{self, Profile};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: report [--exp <name>|all] [--profile quick|full] [--json <path>]\n\
         \x20      report --explain <query-spec>\n\
         experiments: {}\n\
         query-spec: seeker=<id>,tags=<id>+<id>,k=<n>,model=<name> (all optional)",
        experiments::ALL.join(", ")
    );
    std::process::exit(2);
}

/// Minimal JSON string escaping (the report emits only names and numbers,
/// but be safe about it).
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp = "all".to_owned();
    let mut profile = Profile::Full;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                exp = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--profile" => {
                i += 1;
                profile = match args.get(i).map(String::as_str) {
                    Some("quick") => Profile::Quick,
                    Some("full") => Profile::Full,
                    _ => usage(),
                };
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--explain" => {
                // EXPLAIN mode: run one force-traced query, print its span
                // tree, and exit — no experiments, no JSON summary.
                i += 1;
                let spec = args.get(i).cloned().unwrap_or_else(|| usage());
                match friends_bench::explain::explain(&spec) {
                    Ok(tree) => {
                        println!("{tree}");
                        return;
                    }
                    Err(e) => {
                        eprintln!("bad query-spec `{spec}`: {e}");
                        usage();
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    let names: Vec<&str> = if exp == "all" {
        experiments::ALL.to_vec()
    } else {
        vec![exp.as_str()]
    };
    // (name, elapsed ms, output bytes, metrics as (key, raw-JSON) pairs).
    type SummaryRow = (String, f64, usize, Vec<(String, String)>);
    let mut summary: Vec<SummaryRow> = Vec::new();
    for name in names {
        let start = Instant::now();
        match experiments::run_full(name, profile) {
            Some(out) => {
                let elapsed = start.elapsed();
                println!("{}", out.text);
                summary.push((
                    name.to_owned(),
                    elapsed.as_secs_f64() * 1e3,
                    out.text.len(),
                    out.metrics,
                ));
            }
            None => {
                eprintln!("unknown experiment `{name}`");
                usage();
            }
        }
    }

    if let Some(path) = json_path {
        let profile_name = match profile {
            Profile::Quick => "quick",
            Profile::Full => "full",
        };
        let entries: Vec<String> = summary
            .iter()
            .map(|(name, ms, bytes, metrics)| {
                let metrics_json = if metrics.is_empty() {
                    String::new()
                } else {
                    let kv: Vec<String> = metrics
                        .iter()
                        .map(|(k, v)| format!("\"{}\": {}", json_escape(k), v))
                        .collect();
                    format!(", \"metrics\": {{{}}}", kv.join(", "))
                };
                format!(
                    "  {{\"experiment\": \"{}\", \"elapsed_ms\": {:.3}, \"output_bytes\": {}{}}}",
                    json_escape(name),
                    ms,
                    bytes,
                    metrics_json
                )
            })
            .collect();
        // Standing perf notes future PRs should read alongside the numbers.
        let notes = [
            "cache policy: global and friends-only bypass the ProximityCache \
             (cache_worthy=false) - a cache-mutex hit costs about what their \
             materialization does, so their fig9 'cached' column equals the \
             workspace path by design",
            "fig10: block-max sigma-aware WAND vs posting scan / support \
             probe, driven through a one-shard ServedClient with \
             forced strategy hints; the ignored fig10_blockmax_gate test \
             pins the low-selectivity speedup at serving scale",
            "fig11: ServedClient (planner-backed seeker-affinity shards + \
             request coalescing + TinyLFU-admission shard caches + result \
             memoization) vs a ServedClient over as many shards taking one \
             request per dispatch cycle with no result cache; the ignored \
             fig11_service_gate test pins the >=1.3x \
             serving-scale win with zero deadline misses through the \
             client API",
            "per-experiment 'metrics' objects carry result-cache counters \
             and planner strategy-choice histograms where the experiment \
             runs through a SearchClient (fig9, fig10, fig11)",
            "latency truth: every client-driven experiment (fig9-fig14) \
             exports 'latency_*' metrics - per stage (queue_wait, sigma, \
             scoring, e2e) a {count, p50_us, p99_us, p999_us, max_us, \
             mean_us} object from the lock-free log-bucketed \
             LatencyRecorder (quantiles are nearest-rank bucket upper \
             bounds capped at the observed max, <=1/16 relative error); \
             queue_wait/e2e count requests while sigma/scoring count \
             executions, so coalescing and memoization show up as the \
             gap between the two counts",
            "fig12: the sigma-materialization floor on a seeker-diverse \
             (cold, memoization-free) stream - dense O(n) snapshots vs \
             reach-proportional Touched snapshots under one byte-budgeted \
             cache; per-model snapshot_bytes and touched_fraction ride in \
             the metrics object, and the ignored fig12_sigma_floor test \
             pins the >=1.5x cold-seeker win for the decay models at 10k \
             users with byte-identical rankings",
            "cache counters now include resident 'bytes' (value bytes + \
             per-entry overhead) - the quantity byte-budgeted caches \
             (ProximityCache::with_byte_budget, ServiceConfig::cache_bytes) \
             enforce",
            "metrics_* keys (fig9-fig14 and the service probe) are the \
             unified MetricsRegistry rendered as a flat JSON object: \
             'friends_<subsystem>_<name>' keys per the naming convention \
             in crates/README.md (units as suffixes: _total counters, \
             _us latencies, _bytes sizes; variants as {label=value} key \
             suffixes). The CI tail-latency gates jq these keys - e.g. \
             .metrics.metrics_degraded.friends_stage_queue_wait_p99_us - \
             so renames are schema breaks",
            "tracing: per-request span trees (queue -> plan -> sigma -> \
             scoring -> reply) are head-sampled about 1/64 into per-shard \
             rings, force-retained for slow or deadline-missed requests \
             (slow-query log, SearchClient::slow_queries()), forced per \
             request via with_trace(); 'report --explain <query-spec>' \
             renders one. trace_* JSON keys are reserved for trace \
             exports; none ship in this summary yet",
        ];
        let notes_json: Vec<String> = notes
            .iter()
            .map(|n| format!("  \"{}\"", json_escape(n)))
            .collect();
        // The serving tier's counters over a FIXED synthetic probe
        // workload (Tiny corpus, 300 requests twice through a
        // planner-backed ServedClient, tiny caches) — a behavioral
        // fingerprint of the admission/LRU policy, the result
        // memoization and the planner, deliberately independent of
        // whichever experiments ran above so it is diffable across PRs.
        // Not a measurement of this run's experiments.
        let probe = friends_bench::service_probe();
        // Reporting reads the registry, not the stats struct's fields —
        // the same stable keys the Prometheus exposition serves.
        let mut registry = friends_core::metrics::MetricsRegistry::new();
        probe.register_into(&mut registry);
        let count = |key: &str| {
            registry
                .get(&format!("friends_service_{key}_total"))
                .unwrap_or(0.0) as u64
        };
        let probe_json = format!(
            "{{\"workload\": \"fixed synthetic probe (not this run's experiments)\", \
             \"proximity_cache\": {}, \"result_cache\": {}, \"result_served\": {}, \
             \"executed\": {}, \"coalesced\": {}, \"plans\": {}, \"metrics\": {}}}",
            experiments::cache_stats_json(&probe.cache),
            experiments::cache_stats_json(&probe.results),
            count("result_served"),
            count("executed"),
            count("coalesced"),
            experiments::plan_histogram_json(&probe.plans),
            registry.render_json()
        );
        let doc = format!(
            "{{\n\"profile\": \"{profile_name}\",\n\"experiments\": [\n{}\n],\n\
             \"service_probe\": {probe_json},\n\"notes\": [\n{}\n]\n}}\n",
            entries.join(",\n"),
            notes_json.join(",\n")
        );
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote bench summary to {path}");
    }
}
