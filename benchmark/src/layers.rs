//! The traced run: per-layer metrics, taken from outside.
//!
//! A layer is a crate. Each layer metric is the time of a public function
//! of that crate, called on the driver thread with the workload's own
//! inputs, or a counter the program already exports (`Reply`,
//! `ServiceStats`, `CacheStats`, `QueryStats`, `WalStats`,
//! `MutationReport`). The run traces the `solo` loop with a span around
//! submit and around wait, then replays the same requests stage by stage
//! and hangs each stage under that request's `core.execute` span.
//! End-to-end metrics never come from this run; the difference between its
//! traced and untraced passes is reported as `driver.trace_overhead_pct`.

use crate::driver::{self, Checker, Counts};
use crate::inputs::Spec;
use crate::report::{Outcome, PhaseReport};
use crate::run::{expected_rankings, Instance, RunConfig};
use crate::spans::{self_times, Spans};
use crate::stats::{median, percentile};
use friends_core::cache::{CachePolicy, ProximityCache};
use friends_core::corpus::Corpus;
use friends_core::latency::LatencyRecorder;
use friends_core::live::LiveCorpus;
use friends_core::plan::{PlanCounters, PlannedExecutor, Planner, ProcessorRegistry, QueryRequest};
use friends_core::processors::ScoringStrategy;
use friends_core::proximity::{
    decay_horizon, edge_decay, ProximityModel, Sigma, SigmaBounds, SigmaWorkspace,
};
use friends_core::trace::{TraceCollector, TraceConfig, TraceRecord};
use friends_data::io as snapshot_io;
use friends_data::queries::Query;
use friends_data::wal::{SyncPolicy, Wal, WalConfig};
use friends_data::ItemId;
use friends_graph::traversal::{bfs_stamped, BfsWorkspace, ProximityScan, ProximityWorkspace};
use friends_index::accumulate::DenseAccumulator;
use friends_index::topk::{BlockMaxWand, SigmaAccum};
use friends_service::{SearchClient, ServedClient};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests of the block the solo trace and the stage replay cover.
const REPLAYED: usize = 1_000;

/// Distinct seekers the cold σ kernels (traverse, materialize, snapshot,
/// insert) run over.
const COLD_SEEKERS: usize = 128;

/// Write batches the write-path kernels run over.
const WRITES: usize = 4;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// cpu and run-queue wait, nanoseconds, summed over every thread of this
/// process (`/proc/self/task/*/schedstat`: cpu ns, wait ns, slices).
fn schedstat() -> (f64, f64) {
    let mut cpu = 0.0;
    let mut wait = 0.0;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let text = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            let mut fields = text
                .split_whitespace()
                .map(|f| f.parse::<f64>().unwrap_or(0.0));
            cpu += fields.next().unwrap_or(0.0);
            wait += fields.next().unwrap_or(0.0);
        }
    }
    (cpu, wait)
}

/// One solo pass with a span around submit and around wait of every
/// request. Returns round trips (µs), the root span id of each request and
/// which replies came from the result cache.
fn traced_solo_pass(
    client: &ServedClient,
    spec: &Spec,
    queries: &[Query],
    spans: &mut Spans,
    checker: &mut Checker,
    counts: &mut Counts,
) -> (Vec<f64>, Vec<u32>, Vec<bool>) {
    let requests: Vec<QueryRequest> = queries.iter().map(|q| driver::request(q, spec)).collect();
    let mut round_trips = Vec::with_capacity(requests.len());
    let mut roots = Vec::with_capacity(requests.len());
    let mut memo = Vec::with_capacity(requests.len());
    for (i, req) in requests.into_iter().enumerate() {
        let start = spans.now();
        let mut ticket = client.submit(req);
        let submitted = spans.now();
        let reply = driver::spin_take(&mut ticket);
        let end = spans.now();
        let root = spans.record(0, "driver.request", i as u32, start, end);
        spans.record(root, "service.submit", i as u32, start, submitted);
        spans.record(root, "service.wait", i as u32, submitted, end);
        round_trips.push((end - start) as f64 / 1e3);
        roots.push(root);
        memo.push(reply.result_cached);
        counts.attempted += 1;
        if reply.outcome.result().is_none() {
            counts.failed += 1;
        }
        checker.check(i, &reply);
    }
    (round_trips, roots, memo)
}

/// The driver-side copy of what one shard executes with: an executor over
/// a σ cache with the shard's limits.
fn shard_like_cache(spec: &Spec) -> Arc<ProximityCache> {
    Arc::new(ProximityCache::with_limits(
        usize::MAX,
        spec.cache_bytes,
        1,
        CachePolicy {
            admission: true,
            ttl: None,
        },
    ))
}

/// Scratch of the stage-by-stage replay: everything `ExactOnline` owns.
struct Stages<'c> {
    corpus: &'c Corpus,
    model: ProximityModel,
    planner: Planner,
    registry: Arc<ProcessorRegistry>,
    cache: Arc<ProximityCache>,
    sigma: SigmaWorkspace,
    wand: BlockMaxWand,
    acc: DenseAccumulator,
}

/// Durations of one request's stages, nanoseconds; a stage that did not run
/// (σ served from the cache) is `None`.
#[derive(Default)]
struct StageTimes {
    plan: u64,
    prox_get: u64,
    sigma: Option<u64>,
    snapshot: Option<u64>,
    prox_insert: Option<u64>,
    search: u64,
}

impl StageTimes {
    fn named(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![("core.plan", self.plan), ("core.prox_get", self.prox_get)];
        out.extend(self.sigma.map(|d| ("core.sigma", d)));
        out.extend(self.snapshot.map(|d| ("core.snapshot", d)));
        out.extend(self.prox_insert.map(|d| ("core.prox_insert", d)));
        out.push(("index.search", self.search));
        out
    }

    fn total(&self) -> u64 {
        self.named().iter().map(|&(_, d)| d).sum()
    }
}

impl Stages<'_> {
    /// Runs one request through the public calls `ExactOnline::query` makes,
    /// in its order, timing each: plan, σ cache probe, on a miss
    /// materialize + snapshot + insert, then scoring by the planned route.
    fn run(&mut self, q: &Query) -> (StageTimes, Vec<(ItemId, f32)>) {
        let ns = |d: Duration| d.as_nanos() as u64;
        let graph = &self.corpus.graph;
        let mut times = StageTimes::default();
        let (plan, d) = timed(|| {
            self.planner.plan(
                self.corpus,
                &self.registry,
                q,
                self.model,
                ScoringStrategy::Auto,
                None,
                SigmaBounds::EXACT,
            )
        });
        times.plan = ns(d);
        let (cached, d) = timed(|| {
            self.cache
                .get_bounded(graph, q.seeker, self.model, SigmaBounds::EXACT)
        });
        times.prox_get = ns(d);
        if cached.is_none() {
            let (_, d) = timed(|| {
                self.model
                    .materialize_bounded(graph, q.seeker, &mut self.sigma, SigmaBounds::EXACT)
            });
            times.sigma = Some(ns(d));
            let (snapshot, d) = timed(|| Arc::new(self.sigma.snapshot(graph.num_nodes())));
            times.snapshot = Some(ns(d));
            let (_, d) = timed(|| {
                self.cache
                    .insert_bounded(graph, q.seeker, self.model, SigmaBounds::EXACT, snapshot)
            });
            times.prox_insert = Some(ns(d));
        }
        let sigma = match &cached {
            Some(v) => Sigma::Shared(v.as_ref()),
            None => Sigma::Workspace(&self.sigma),
        };
        let store = &self.corpus.store;
        let (items, d) = if plan.strategy == ScoringStrategy::BlockMax {
            let index = self.corpus.sigma_index();
            timed(|| {
                let lists: Vec<_> = q.tags.iter().filter_map(|&t| index.postings(t)).collect();
                let bound = self.model.sigma_bound(q.seeker, &sigma);
                self.wand.search(&lists, &bound, q.k, SigmaAccum::F32).0
            })
        } else {
            timed(|| {
                for &tag in q.tags.iter().filter(|&&t| t < store.num_tags()) {
                    for t in store.tag_taggings(tag) {
                        let s = sigma.get(t.user);
                        if s > 0.0 {
                            self.acc.add(t.item, (s * t.weight as f64) as f32);
                        }
                    }
                }
                self.acc.drain_topk(q.k)
            })
        };
        times.search = ns(d);
        (times, items)
    }
}

/// The solo trace, the `core.execute` replay and the stage replay over the
/// first [`REPLAYED`] requests.
fn read_path(
    spec: &Spec,
    instance: &Instance,
    seconds: f64,
    spans: &mut Spans,
    out: &mut Outcome,
    checker: &mut Checker,
) {
    let inputs = &instance.inputs;
    let corpus: &Corpus = &inputs.corpus;
    let head = &inputs.block[..inputs.block.len().min(REPLAYED)];
    let sched_before = schedstat();
    let mut reads = 0u64;

    // Untraced and traced solo passes, alternating. Only the last traced
    // pass records into the real sink — the others pay the same cost into a
    // scratch one — so `req` identifies one request in the span file.
    let budget = Duration::from_secs_f64(seconds * 0.2);
    let started = Instant::now();
    let (mut plain_p50, mut traced_p50) = (Vec::new(), Vec::new());
    let mut solo = Counts::default();
    let (round_trips, roots, memo) = loop {
        let last = plain_p50.len() >= 2 && started.elapsed() >= budget;
        let (plain, replies) = driver::solo_pass(&instance.reads, spec, head, 0, checker);
        solo.add(replies.counts);
        plain_p50.push(percentile(&plain, 0.5));
        let mut scratch = Spans::with_capacity(3 * head.len());
        let sink = if last { &mut *spans } else { &mut scratch };
        let (traced, roots, memo) =
            traced_solo_pass(&instance.reads, spec, head, sink, checker, &mut solo);
        traced_p50.push(percentile(&traced, 0.5));
        reads += 2 * head.len() as u64;
        if last {
            break (plain, roots, memo);
        }
    };
    let (plain, traced) = (median(&plain_p50), median(&traced_p50));
    out.values.insert(
        "driver.trace_overhead_pct",
        100.0 * (traced - plain) / plain,
    );
    out.phases.push(PhaseReport {
        name: "solo",
        counts: solo,
        samples: plain_p50.len() + traced_p50.len(),
    });

    // One sat pass between two stats snapshots.
    let before = instance.reads.stats().totals();
    let (_, replies) = driver::sat_pass(&instance.reads, spec, &inputs.block, 0, checker);
    let after = instance.reads.stats().totals();
    let n = (after.submitted - before.submitted).max(1) as f64;
    reads += replies.counts.attempted;
    out.values
        .insert("service.queue_wait_us", replies.queue_wait_us / n);
    out.values.insert(
        "service.batch_size",
        n / (after.batches - before.batches).max(1) as f64,
    );
    out.values.insert(
        "service.memo_hit_pct",
        100.0 * (after.result_served - before.result_served) as f64 / n,
    );
    out.values.insert(
        "service.coalesced_pct",
        100.0 * (after.coalesced - before.coalesced) as f64 / n,
    );
    out.phases.push(PhaseReport {
        name: "sat",
        counts: replies.counts,
        samples: 1,
    });
    let sched_after = schedstat();
    let (cpu, wait) = (
        sched_after.0 - sched_before.0,
        sched_after.1 - sched_before.1,
    );
    out.values
        .insert("driver.runq_wait_pct", 100.0 * wait / (cpu + wait).max(1.0));
    out.values
        .insert("driver.cpu_us_per_req", cpu / 1e3 / reads.max(1) as f64);

    // `core.execute`: the whole request on the driver thread, against a
    // cache with the shard's limits, warmed by one untimed pass.
    let registry = Arc::new(ProcessorRegistry::standard());
    let mut executor = PlannedExecutor::new(
        corpus,
        Some(shard_like_cache(spec)),
        Arc::clone(&registry),
        Planner::default(),
        Arc::new(PlanCounters::default()),
    );
    let mut execute = |q: &Query| {
        executor.execute(
            q,
            spec.model,
            ScoringStrategy::Auto,
            None,
            SigmaBounds::EXACT,
        )
    };
    for q in head {
        execute(q);
    }
    let mut execute_ns = Vec::with_capacity(head.len());
    let mut executed_items = Vec::with_capacity(head.len());
    let mut postings = Vec::with_capacity(head.len());
    let mut skips = Vec::with_capacity(head.len());
    let mut execute_span = Vec::with_capacity(head.len());
    for (i, q) in head.iter().enumerate() {
        let (result, id) = spans.time(roots[i], "core.execute", i as u32, || execute(q));
        execute_ns.push(spans.get(id).duration_ns() as f64);
        execute_span.push(id);
        postings.push(result.stats.postings_scanned as f64);
        skips.push(result.stats.blocks_skipped as f64);
        executed_items.push(result.items);
    }
    out.values
        .insert("core.execute_us", percentile(&execute_ns, 0.5) / 1e3);
    out.values
        .insert("index.postings_scored", percentile(&postings, 0.5));
    out.values
        .insert("index.blocks_skipped", percentile(&skips, 0.5));

    // The stage replay, same warm-up, each stage a child of that request's
    // `core.execute` span. The stages ran after their parent, so they are
    // laid end to end from the parent's start: a span file reader sees what
    // share of the parent each stage explains, and the parent's self time
    // is what the stages do not.
    let mut stages = Stages {
        corpus,
        model: spec.model,
        planner: Planner::default(),
        registry,
        cache: shard_like_cache(spec),
        sigma: SigmaWorkspace::new(),
        wand: BlockMaxWand::new(),
        acc: DenseAccumulator::new(corpus.num_items() as usize),
    };
    for q in head {
        stages.run(q);
    }
    let cache_before = stages.cache.stats();
    let mut all = Vec::with_capacity(head.len());
    let mut diverged = 0usize;
    for (i, q) in head.iter().enumerate() {
        let (times, items) = stages.run(q);
        if !driver::same_ranking(&items, &executed_items[i]) {
            diverged += 1;
        }
        let mut at = spans.get(execute_span[i]).start_ns;
        for (name, d) in times.named() {
            spans.record(execute_span[i], name, i as u32, at, at + d);
            at += d;
        }
        all.push(times);
    }
    if diverged > 0 {
        out.errors.push(format!(
            "the stage replay ranks {diverged} of {} requests differently from PlannedExecutor::execute",
            head.len()
        ));
    }
    let cache_after = stages.cache.stats();
    let p50 = |f: &dyn Fn(&StageTimes) -> Option<u64>| {
        let v: Vec<f64> = all.iter().filter_map(f).map(|d| d as f64).collect();
        percentile(&v, 0.5)
    };
    out.values
        .insert("core.plan_ns", p50(&|t: &StageTimes| Some(t.plan)));
    out.values
        .insert("core.prox_get_ns", p50(&|t: &StageTimes| Some(t.prox_get)));
    out.values.insert(
        "index.search_us",
        p50(&|t: &StageTimes| Some(t.search)) / 1e3,
    );
    let covered = p50(&|t: &StageTimes| Some(t.total()));
    out.values.insert(
        "core.execute_covered_pct",
        100.0 * covered / percentile(&execute_ns, 0.5),
    );
    let lookups =
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
    out.values.insert(
        "core.prox_hit_pct",
        100.0 * (cache_after.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
    );
    out.values.insert(
        "core.prox_evictions",
        (cache_after.evictions - cache_before.evictions) as f64,
    );
    out.values.insert(
        "core.prox_rejections",
        (cache_after.rejections - cache_before.rejections) as f64,
    );
    // service.overhead: what the round trip costs beyond the execution it
    // contains; a memo hit contains none.
    let overhead: Vec<f64> = round_trips
        .iter()
        .zip(&memo)
        .zip(&execute_ns)
        .map(|((&rt, &hit), &ex)| if hit { rt } else { rt - ex / 1e3 })
        .collect();
    out.values
        .insert("service.overhead_us", percentile(&overhead, 0.5));

    // What a write would sweep out of a cache in this state.
    let touched = inputs.batches[0].touched_nodes();
    let (dropped, d) = timed(|| stages.cache.invalidate_affected(&touched));
    out.values.insert("core.invalidate_us", us(d));
    out.values.insert("core.prox_invalidated", dropped as f64);
}

/// The cold σ path per seeker: graph traversal alone, then materialize,
/// snapshot and cache insert, over the block's first distinct seekers.
fn cold_sigma_kernels(spec: &Spec, instance: &Instance, out: &mut Outcome) {
    let graph = &instance.inputs.corpus.graph;
    let mut seekers: Vec<u32> = Vec::with_capacity(COLD_SEEKERS);
    for q in &instance.inputs.block {
        if !seekers.contains(&q.seeker) {
            seekers.push(q.seeker);
            if seekers.len() == COLD_SEEKERS {
                break;
            }
        }
    }
    let mut bfs = BfsWorkspace::new();
    let mut prox = ProximityWorkspace::new();
    let mut traverse = |seeker: u32| match spec.model {
        ProximityModel::WeightedDecay { alpha } => {
            ProximityScan::new(graph, seeker, edge_decay(alpha), &mut prox).count()
        }
        ProximityModel::DistanceDecay { alpha } => {
            bfs_stamped(graph, seeker, decay_horizon(alpha), &mut bfs)
        }
        _ => bfs_stamped(graph, seeker, u32::MAX, &mut bfs),
    };
    let cache = shard_like_cache(spec);
    let mut ws = SigmaWorkspace::new();
    let (mut t_traverse, mut visited, mut t_sigma, mut t_snapshot, mut bytes, mut t_insert) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    // One untimed lap grows every workspace to its final size.
    for lap in 0..2 {
        for &seeker in &seekers {
            let (nodes, d_traverse) = timed(|| traverse(seeker));
            let (_, d_sigma) = timed(|| {
                spec.model
                    .materialize_bounded(graph, seeker, &mut ws, SigmaBounds::EXACT)
            });
            let (snapshot, d_snapshot) = timed(|| Arc::new(ws.snapshot(graph.num_nodes())));
            let size = snapshot.memory_bytes();
            let (_, d_insert) = timed(|| {
                cache.insert_bounded(graph, seeker, spec.model, SigmaBounds::EXACT, snapshot)
            });
            if lap == 1 {
                t_traverse.push(us(d_traverse));
                visited.push(nodes as f64);
                t_sigma.push(us(d_sigma));
                t_snapshot.push(us(d_snapshot));
                bytes.push(size as f64);
                t_insert.push(d_insert.as_nanos() as f64);
            }
        }
    }
    out.values
        .insert("graph.traverse_us", percentile(&t_traverse, 0.5));
    out.values
        .insert("graph.nodes_visited", percentile(&visited, 0.5));
    out.values
        .insert("core.sigma_us", percentile(&t_sigma, 0.5));
    out.values
        .insert("core.snapshot_us", percentile(&t_snapshot, 0.5));
    out.values
        .insert("core.snapshot_bytes", percentile(&bytes, 0.5));
    out.values
        .insert("core.prox_insert_ns", percentile(&t_insert, 0.5));
}

/// Kernels with no request in them: block decode, σ-index build, the two
/// observability offers and the channel hop.
fn standalone_kernels(instance: &Instance, out: &mut Outcome) {
    let corpus: &Corpus = &instance.inputs.corpus;
    let head = &instance.inputs.block[..instance.inputs.block.len().min(REPLAYED)];

    let index = corpus.sigma_index();
    let mut tags: Vec<u32> = head.iter().flat_map(|q| q.tags.iter().copied()).collect();
    tags.sort_unstable();
    tags.dedup();
    let lists: Vec<_> = tags.iter().filter_map(|&t| index.postings(t)).collect();
    let mut docs = Vec::new();
    let mut per_posting = Vec::new();
    for _ in 0..5 {
        let mut decoded = 0usize;
        let (_, d) = timed(|| {
            for list in &lists {
                for bi in 0..list.num_blocks() {
                    list.block_docs_into(bi, &mut docs);
                    decoded += std::hint::black_box(&docs).len();
                }
            }
        });
        per_posting.push(d.as_nanos() as f64 / decoded.max(1) as f64);
    }
    out.values
        .insert("index.decode_ns_per_posting", median(&per_posting));

    let fresh = Corpus::new(corpus.graph.clone(), corpus.store.clone());
    let (_, d) = timed(|| {
        fresh.sigma_index();
    });
    out.values.insert("index.sigma_index_build_ms", ms(d));

    const CALLS: usize = 10_000;
    let collector = TraceCollector::new(0, TraceConfig::default());
    let trace = Arc::new(TraceRecord::new(0, &head[0], 0, false).finish(1, false));
    let recorder = LatencyRecorder::new();
    let (mut offer, mut record) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        let (_, d) = timed(|| {
            for _ in 0..CALLS {
                collector.offer(Arc::clone(std::hint::black_box(&trace)));
            }
        });
        offer.push(d.as_nanos() as f64 / CALLS as f64);
        let (_, d) = timed(|| {
            for i in 0..CALLS {
                recorder.record(Duration::from_nanos(std::hint::black_box(
                    20_000 + i as u64,
                )));
            }
        });
        record.push(d.as_nanos() as f64 / CALLS as f64);
    }
    out.values.insert("core.trace_offer_ns", median(&offer));
    out.values.insert("core.latency_record_ns", median(&record));

    // The hop a request and its reply make: two spinning threads, the
    // broker's channel type. Both services are idle (parked) meanwhile.
    use crossbeam::channel::{bounded, unbounded, TryRecvError};
    let (to_peer, peer_rx) = unbounded::<Option<u64>>();
    let (to_driver, driver_rx) = bounded::<u64>(1);
    let hops = std::thread::scope(|scope| {
        scope.spawn(move || loop {
            match peer_rx.try_recv() {
                Ok(Some(v)) => {
                    if to_driver.send(v).is_err() {
                        return;
                    }
                }
                Ok(None) | Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
            }
        });
        let mut hops = Vec::with_capacity(2 * CALLS);
        for i in 0..2 * CALLS as u64 {
            let start = Instant::now();
            to_peer.send(Some(i)).expect("peer is alive");
            loop {
                match driver_rx.try_recv() {
                    Ok(_) => break,
                    Err(TryRecvError::Empty) => std::hint::spin_loop(),
                    Err(TryRecvError::Disconnected) => panic!("hop peer died"),
                }
            }
            hops.push(us(start.elapsed()));
        }
        let _ = to_peer.send(None);
        hops
    });
    out.values
        .insert("service.channel_hop_us", percentile(&hops, 0.5));
}

/// The write path, layer by layer on private copies, then through the
/// service.
fn write_path(instance: &Instance, dir: &Path, out: &mut Outcome) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        out.errors.push(format!("creating {}: {e}", dir.display()));
    }
    let corpus = &instance.inputs.corpus;
    let batches = &instance.inputs.batches[..instance.inputs.batches.len().min(WRITES)];
    let (mut edits, mut appends, mut prepare, mut publish) = (vec![], vec![], vec![], vec![]);
    let live = LiveCorpus::new(Arc::clone(corpus));
    for b in batches {
        let (inserts, removals, taggings) = b.split();
        let base = live.snapshot();
        edits.push(ms(timed(|| base.graph.with_edits(&inserts, &removals)).1));
        appends.push(ms(timed(|| base.store.with_appends(&taggings)).1));
        let (prepared, d) = timed(|| LiveCorpus::prepare_from(&base, b, None));
        prepare.push(ms(d));
        publish.push(us(timed(|| live.publish(&prepared)).1));
    }
    out.values.insert("graph.with_edits_ms", median(&edits));
    out.values.insert("data.store_appends_ms", median(&appends));
    out.values.insert("core.live_prepare_ms", median(&prepare));
    out.values.insert("core.live_publish_us", median(&publish));

    let append_us = |policy: SyncPolicy, sub: &str| -> std::io::Result<(f64, Wal)> {
        let mut wal = Wal::open(
            &dir.join(sub),
            WalConfig {
                sync: policy,
                ..WalConfig::default()
            },
        )?;
        let mut times = Vec::with_capacity(batches.len());
        for (i, b) in batches.iter().enumerate() {
            let start = Instant::now();
            wal.append(i as u64 + 1, b)?;
            times.push(us(start.elapsed()));
        }
        Ok((median(&times), wal))
    };
    let wal_kernels = (|| -> std::io::Result<()> {
        let (always, wal) = append_us(SyncPolicy::Always, "wal-always")?;
        let stats = wal.stats();
        let mutations: usize = batches.iter().map(|b| b.len()).sum();
        out.values.insert("data.wal_append_always_us", always);
        out.values.insert(
            "data.wal_bytes_per_mutation",
            stats.bytes as f64 / mutations.max(1) as f64,
        );
        out.values.insert("data.wal_syncs", stats.syncs as f64);
        drop(wal);
        let (never, _) = append_us(SyncPolicy::Never, "wal-never")?;
        out.values.insert("data.wal_append_never_us", never);
        let (replay, d) = timed(|| Wal::replay(&dir.join("wal-always")));
        if replay?.records.len() != batches.len() {
            out.errors
                .push("Wal::replay did not return every appended batch".to_string());
        }
        out.values.insert("data.wal_replay_ms", ms(d));
        Ok(())
    })();
    if let Err(e) = wal_kernels {
        out.errors.push(format!("WAL kernels: {e}"));
    }

    let path = dir.join("kernel.snap");
    let (mut save, mut load) = (vec![], vec![]);
    for _ in 0..3 {
        let (saved, d) =
            timed(|| snapshot_io::save_with_epoch(&path, &corpus.graph, &corpus.store, 0));
        save.push(ms(d));
        let (loaded, d) = timed(|| snapshot_io::load_with_epoch(&path));
        load.push(ms(d));
        if let (Err(e), _) | (_, Err(e)) = (saved.map(|_| ()), loaded.map(|_| ())) {
            out.errors.push(format!("snapshot kernels: {e}"));
        }
    }
    out.values.insert("data.snapshot_save_ms", median(&save));
    out.values.insert("data.snapshot_load_ms", median(&load));
    out.values.insert(
        "data.snapshot_bytes",
        std::fs::metadata(&path).map_or(f64::NAN, |m| m.len() as f64),
    );

    let (mut ack, mut results, mut refreshed) = (vec![], vec![], vec![]);
    for (i, b) in batches.iter().enumerate() {
        let (outcome, d) = timed(|| instance.writes().try_apply_mutations(b, None));
        match outcome {
            Ok(report) => {
                ack.push(ms(d));
                results.push(report.results_invalidated as f64);
                refreshed.push(report.sigma_refreshed as f64);
            }
            Err(e) => out.errors.push(format!("write {i} failed: {e}")),
        }
    }
    let inner = median(&prepare)
        + out
            .values
            .get("data.wal_append_always_us")
            .copied()
            .unwrap_or(0.0)
            / 1e3
        + median(&publish) / 1e3;
    out.values
        .insert("service.barrier_ms", median(&ack) - inner);
    // Later writes of this run find the caches already swept.
    out.values.insert(
        "service.results_invalidated",
        results.first().copied().unwrap_or(f64::NAN),
    );
    out.values.insert(
        "service.sigma_refreshed",
        refreshed.first().copied().unwrap_or(f64::NAN),
    );
    out.phases.push(PhaseReport {
        name: "writes",
        counts: Counts {
            attempted: batches.len() as u64,
            failed: (batches.len() - ack.len()) as u64,
            shed: 0,
        },
        samples: ack.len(),
    });
}

pub fn run(config: &RunConfig) -> Outcome {
    let RunConfig {
        spec,
        seed,
        seconds,
        dir,
    } = config;
    let instance = Instance::start(spec, *seed, &dir.join("main"));
    let inputs = &instance.inputs;
    let mut out = Outcome {
        traced: true,
        digest: inputs.digest,
        values: BTreeMap::new(),
        phases: vec![PhaseReport {
            name: "pass0",
            counts: instance.pass0.counts,
            samples: 1,
        }],
        errors: Vec::new(),
        checked: 0,
        notes: Vec::new(),
    };
    out.values.insert(
        "service.executed",
        instance.reads.stats().totals().executed as f64,
    );
    let head = inputs.block.len().min(REPLAYED);
    let mut spans = Spans::with_capacity(12 * head);
    let mut checker = Checker::new(expected_rankings(spec, &inputs.corpus, &inputs.block));

    read_path(
        spec,
        &instance,
        *seconds,
        &mut spans,
        &mut out,
        &mut checker,
    );
    cold_sigma_kernels(spec, &instance, &mut out);
    standalone_kernels(&instance, &mut out);

    let burst = Duration::from_secs_f64((seconds * 0.1).max(0.2));
    let surge = driver::surge(&instance.reads, spec, &inputs.block, burst, &mut checker);
    let n = surge.counts.attempted.max(1) as f64;
    out.values
        .insert("service.degraded_pct", 100.0 * surge.degraded as f64 / n);
    out.values
        .insert("service.shed_pct", 100.0 * surge.counts.shed as f64 / n);
    out.values
        .insert("service.max_residual", surge.max_residual);
    out.values
        .insert("driver.late_us", percentile(&surge.late_us, 0.99));
    out.phases.push(PhaseReport {
        name: "surge",
        counts: surge.counts,
        samples: 1,
    });
    out.checked = checker.checked;
    if checker.mismatched > 0 {
        out.errors.push(format!(
            "{} of {} checked replies differ from direct execution",
            checker.mismatched, checker.checked
        ));
    }

    write_path(&instance, &dir.join("kernels"), &mut out);

    let path = crate::out_dir().join(format!("{}.trace.jsonl", spec.name));
    match spans.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.all().len(),
            path.display()
        )),
        Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
    }
    out.notes.push(self_time_summary(&spans));
    let failed: Vec<String> = out
        .phases
        .iter()
        .filter(|p| p.name != "surge" && p.counts.failed > 0)
        .map(|p| {
            format!(
                "{}: {} of {} operations failed",
                p.name, p.counts.failed, p.counts.attempted
            )
        })
        .collect();
    out.errors.extend(failed);
    instance.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Median self time per span name, for the human reader.
fn self_time_summary(spans: &Spans) -> String {
    let selfs = self_times(spans.all());
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, &t) in spans.all().iter().zip(&selfs) {
        by_name.entry(s.name).or_default().push(t as f64 / 1e3);
    }
    let parts: Vec<String> = by_name
        .iter()
        .map(|(name, v)| format!("{name} {:.2}", percentile(v, 0.5)))
        .collect();
    format!("median self time per span, us: {}", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::SPECS;
    use crate::metrics::PER_LAYER;

    /// The traced run of each workload at 1/20 size: every per-layer metric
    /// is reported, the checks hold, and the span file is a tree.
    #[test]
    fn smoke_every_workload_traced() {
        for spec in &SPECS {
            let outcome = run(&RunConfig {
                spec: spec.shrunk(20),
                seed: 5,
                seconds: 2.0,
                dir: crate::out_dir().join(format!("smoke-trace-{}", spec.name)),
            });
            assert_eq!(outcome.errors, Vec::<String>::new(), "{}", spec.name);
            for m in &PER_LAYER {
                let v = outcome.values.get(m.name).copied().unwrap_or(f64::NAN);
                assert!(v.is_finite(), "{}/{} = {v}", spec.name, m.name);
            }
            let path = crate::out_dir().join(format!("{}.trace.jsonl", spec.name));
            let text = std::fs::read_to_string(&path).expect("span file");
            assert!(text.lines().count() > 100, "{} wrote few spans", spec.name);
            assert!(text
                .lines()
                .all(|l| l.starts_with("{\"id\": ") && l.ends_with('}')));
        }
    }
}
