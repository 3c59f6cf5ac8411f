//! Per-shard observability: the counters a serving loop watches.

use crate::result_cache::ResultCache;
use friends_core::cache::{CacheStats, ProximityCache, SigmaSweep};
use friends_core::latency::{StageLatencies, StageSnapshot};
use friends_core::live::{register_wal_stats, RecoveryReport};
use friends_core::metrics::MetricsRegistry;
use friends_core::plan::{PlanCounters, PlanHistogram};
use friends_core::trace::TraceCollector;
use friends_data::wal::WalStats;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Live counters of one service shard, shared between its worker and the
/// handle that submits to it (all relaxed atomics — monitoring, not
/// coordination).
pub(crate) struct ShardState {
    pub depth: AtomicUsize,
    pub max_depth: AtomicUsize,
    pub submitted: AtomicU64,
    pub executed: AtomicU64,
    pub coalesced: AtomicU64,
    pub result_served: AtomicU64,
    pub deadline_misses: AtomicU64,
    pub degraded: AtomicU64,
    pub failed: AtomicU64,
    pub worker_restarts: AtomicU64,
    /// `f64::to_bits` of the largest residual reported so far. Residuals
    /// are finite and non-negative, so the bit patterns order like the
    /// numbers and a plain `fetch_max` keeps the running maximum.
    pub max_residual_bits: AtomicU64,
    pub batches: AtomicU64,
    pub max_batch: AtomicUsize,
    /// Individual mutations applied to this shard's snapshot (every shard
    /// applies every broadcast batch, so this counts shard-applications).
    pub mutations_applied: AtomicU64,
    /// Mutation batches applied at this shard's batch boundaries.
    pub mutation_batches: AtomicU64,
    /// Epoch of the snapshot this shard currently serves from.
    pub mutation_epoch: AtomicU64,
    /// The shard-private proximity cache (a zero byte budget admits
    /// nothing, which runs the shard cache-less).
    pub cache: Arc<ProximityCache>,
    /// Present when the service memoizes results.
    pub results: Option<Arc<ResultCache>>,
    pub plans: Arc<PlanCounters>,
    /// Per-stage latency histograms (queue wait, σ materialization,
    /// scoring, end-to-end) — lock-free, recorded by the worker loop and
    /// by result-cache hits answered at submit.
    pub latency: StageLatencies,
    /// Per-shard trace retention: head sampling, the sampled ring, and
    /// the slow-query log.
    pub traces: TraceCollector,
}

impl ShardState {
    pub fn new(
        cache: Arc<ProximityCache>,
        results: Option<Arc<ResultCache>>,
        traces: TraceCollector,
    ) -> Self {
        ShardState {
            depth: AtomicUsize::new(0),
            max_depth: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            result_served: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            max_residual_bits: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch: AtomicUsize::new(0),
            mutations_applied: AtomicU64::new(0),
            mutation_batches: AtomicU64::new(0),
            mutation_epoch: AtomicU64::new(0),
            cache,
            results,
            plans: Arc::default(),
            latency: StageLatencies::new(),
            traces,
        }
    }

    /// Records one degraded completion's residual certificate.
    pub fn record_degraded(&self, residual: f64) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
        self.max_residual_bits
            .fetch_max(residual.to_bits(), Ordering::Relaxed);
    }

    pub fn snapshot(&self, shard: usize) -> ShardStats {
        ShardStats {
            shard,
            queue_depth: self.depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_depth.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            result_served: self.result_served.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            max_residual: f64::from_bits(self.max_residual_bits.load(Ordering::Relaxed)),
            batches: self.batches.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            mutations_applied: self.mutations_applied.load(Ordering::Relaxed),
            mutation_batches: self.mutation_batches.load(Ordering::Relaxed),
            mutation_epoch: self.mutation_epoch.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            stale: self.cache.stale_hits(),
            results: self.results.as_ref().map(|r| r.stats()).unwrap_or_default(),
            plans: self.plans.snapshot(),
            latency: self.latency.snapshot(),
            traces_dropped: self.traces.dropped(),
        }
    }
}

/// A snapshot of one shard's counters.
///
/// **Deprecated for reporting**: reading counter fields directly from
/// reporting/export code is deprecated — call
/// [`ShardStats::register_into`] and look the values up by their stable
/// `friends_service_*` / `friends_stage_*` registry keys instead
/// (migration table in `crates/README.md`). The fields stay public
/// because this struct is the recording surface; only the
/// read-for-reporting direction moved to the registry.
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    pub shard: usize,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Deepest the queue has ever been.
    pub max_queue_depth: usize,
    /// Requests routed to this shard.
    pub submitted: u64,
    /// Queries actually executed (after coalescing, memoization and
    /// shedding).
    pub executed: u64,
    /// Requests answered by another identical request's execution.
    pub coalesced: u64,
    /// Requests answered out of the result-memoization cache (no
    /// execution, no coalescing) — on the submitting thread, or by the
    /// worker's re-check of a request that missed there. Always 0 when the
    /// cache is disabled.
    pub result_served: u64,
    /// Requests shed because their deadline passed while queued.
    pub deadline_misses: u64,
    /// Requests served under non-exact σ bounds (their own, or tightened
    /// by the overload controller).
    pub degraded: u64,
    /// Requests answered [`crate::Outcome::Failed`] — a contained worker
    /// panic (injected or real) lost the in-flight execution.
    pub failed: u64,
    /// Times this shard's engine was rebuilt after a contained panic.
    pub worker_restarts: u64,
    /// Largest score-space residual certificate reported by any degraded
    /// reply (0.0 when nothing degraded).
    pub max_residual: f64,
    /// Dispatch cycles run. Requests answered at submit never reach one.
    pub batches: u64,
    /// Largest batch drained in one dispatch cycle.
    pub max_batch: usize,
    /// Individual live-graph mutations applied on this shard. Every shard
    /// applies every broadcast batch, so in [`ServiceStats::totals`] this
    /// takes the max across shards (the service-level count), not the sum.
    pub mutations_applied: u64,
    /// Mutation batches applied at this shard's batch boundaries (max
    /// across shards in totals, like `mutations_applied`).
    pub mutation_batches: u64,
    /// Epoch of the snapshot this shard serves from (max across shards).
    pub mutation_epoch: u64,
    /// The shard-private proximity cache's counters. Under
    /// `ServiceConfig::cache_bytes: 0` it holds nothing, and every insert
    /// it refuses counts as a rejection.
    pub cache: CacheStats,
    /// What reads did with stale entries of that cache (its `misses`
    /// include the ones rebuilt).
    pub stale: SigmaSweep,
    /// The shard-private result-memoization cache's counters (all zero
    /// when disabled).
    pub results: CacheStats,
    /// Planner decisions on this shard.
    pub plans: PlanHistogram,
    /// Per-stage latency histograms. Queue wait counts every *queued*
    /// request (a hit answered at submit never queued) and end-to-end every
    /// answered one; σ and scoring count *executions* — coalesced and
    /// memo-served requests ride an execution they did not pay for.
    pub latency: StageSnapshot,
    /// Traces lost on contended trace-ring slots (0 in practice: the ring
    /// is shard-private and contention needs a concurrent drain).
    pub traces_dropped: u64,
}

impl ShardStats {
    /// Registers every counter under the unified naming convention:
    /// `friends_service_*` for the broker counters,
    /// `friends_proximity_cache_*` / `friends_result_cache_*` for the
    /// caches, `friends_plan_*` for planner decisions and
    /// `friends_stage_*` for the latency percentiles. Reporting paths
    /// read the registry; the struct fields stay as the recording
    /// surface.
    pub fn register_into(&self, registry: &mut MetricsRegistry) {
        registry.counter(
            "friends_service_submitted_total",
            "requests routed to the service",
            self.submitted,
        );
        registry.counter(
            "friends_service_executed_total",
            "queries actually executed",
            self.executed,
        );
        registry.counter(
            "friends_service_coalesced_total",
            "requests answered by an identical in-flight execution",
            self.coalesced,
        );
        registry.counter(
            "friends_service_result_served_total",
            "requests answered from the result-memoization cache",
            self.result_served,
        );
        registry.counter(
            "friends_service_deadline_misses_total",
            "requests shed past their deadline",
            self.deadline_misses,
        );
        registry.counter(
            "friends_service_degraded_total",
            "requests served under non-exact sigma bounds",
            self.degraded,
        );
        registry.counter(
            "friends_service_failed_total",
            "requests answered Failed after a contained panic or fault",
            self.failed,
        );
        registry.counter(
            "friends_service_worker_restarts_total",
            "engine rebuilds after contained panics",
            self.worker_restarts,
        );
        registry.counter(
            "friends_service_batches_total",
            "dispatch cycles run",
            self.batches,
        );
        registry.counter(
            "friends_service_traces_dropped_total",
            "traces lost on contended trace-ring slots",
            self.traces_dropped,
        );
        registry.gauge(
            "friends_service_queue_depth",
            "requests currently queued",
            self.queue_depth as f64,
        );
        registry.gauge(
            "friends_service_max_queue_depth",
            "deepest observed queue",
            self.max_queue_depth as f64,
        );
        registry.gauge(
            "friends_service_max_batch",
            "largest batch drained in one dispatch cycle",
            self.max_batch as f64,
        );
        registry.gauge(
            "friends_service_max_residual",
            "largest residual certificate of any degraded reply",
            self.max_residual,
        );
        registry.counter(
            "friends_mutation_applied_total",
            "individual live-graph mutations applied",
            self.mutations_applied,
        );
        registry.counter(
            "friends_mutation_batches_total",
            "mutation batches applied at batch boundaries",
            self.mutation_batches,
        );
        registry.gauge(
            "friends_mutation_epoch",
            "corpus epoch currently served (0 = frozen seed)",
            self.mutation_epoch as f64,
        );
        self.cache.register_into(registry, "proximity_cache");
        self.stale
            .register_into(registry, "friends_proximity_cache_stale");
        registry.counter(
            "friends_proximity_cache_cold_misses_total",
            "sigma lookups that found nothing resident (stale entries rebuilt are not among them)",
            self.cache.misses - self.stale.dropped - self.stale.too_far_behind,
        );
        self.results.register_into(registry, "result_cache");
        self.plans.register_into(registry);
        self.latency.register_into(registry);
    }
}

/// Where the writer's side of `apply_mutations` spent its time, summed
/// over the `batches` applied so far — the stages of a write's ack that are
/// not the WAL append (`friends_wal_*`) or the pointer swap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MutationTimes {
    /// Batches applied.
    pub batches: u64,
    /// Building the next epoch (`LiveCorpus::prepare`).
    pub prepare: Duration,
    /// First broadcast send to last shard ack.
    pub barrier: Duration,
    /// What the shards' reads did with stale σ up to the latest batch
    /// (each batch's `MutationReport::sigma`, summed); `sigma.time` is the
    /// read-side repair time.
    pub sigma: SigmaSweep,
}

impl MutationTimes {
    /// Publishes the per-batch means as `friends_mutation_*_ms` gauges
    /// (0 before the first batch).
    pub fn register_into(&self, registry: &mut MetricsRegistry) {
        let mean_ms = |total: Duration| total.as_secs_f64() * 1e3 / self.batches.max(1) as f64;
        registry.gauge(
            "friends_mutation_prepare_ms",
            "mean milliseconds per batch building the next epoch",
            mean_ms(self.prepare),
        );
        registry.gauge(
            "friends_mutation_refresh_ms",
            "mean milliseconds per batch the shards' reads spent repairing stale cached sigma",
            mean_ms(self.sigma.time),
        );
        self.sigma.register_into(registry, "friends_mutation_sigma");
        registry.gauge(
            "friends_mutation_barrier_ms",
            "mean milliseconds per batch from broadcast to the last shard ack",
            mean_ms(self.barrier),
        );
    }
}

/// A snapshot of every shard, plus aggregates and — on durable services —
/// the service-level WAL counters and startup recovery report.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    pub shards: Vec<ShardStats>,
    /// Writer-side stage times of the mutation batches applied so far.
    pub mutation_times: MutationTimes,
    /// WAL counters; `None` on memory-only services
    /// (`ServiceConfig::durability: None`).
    pub wal: Option<WalStats>,
    /// What startup recovery found and replayed; `None` on memory-only
    /// services, all-zero on a freshly initialized directory.
    pub recovery: Option<RecoveryReport>,
}

impl ServiceStats {
    /// Sums every shard (the `shard` field of the total is the shard
    /// count; depth fields take the max across shards).
    pub fn totals(&self) -> ShardStats {
        let mut t = ShardStats {
            shard: self.shards.len(),
            ..ShardStats::default()
        };
        for s in &self.shards {
            t.queue_depth += s.queue_depth;
            t.max_queue_depth = t.max_queue_depth.max(s.max_queue_depth);
            t.submitted += s.submitted;
            t.executed += s.executed;
            t.coalesced += s.coalesced;
            t.result_served += s.result_served;
            t.deadline_misses += s.deadline_misses;
            t.degraded += s.degraded;
            t.failed += s.failed;
            t.worker_restarts += s.worker_restarts;
            t.max_residual = t.max_residual.max(s.max_residual);
            t.batches += s.batches;
            t.max_batch = t.max_batch.max(s.max_batch);
            // Broadcast batches land on every shard: max, not sum, is the
            // service-level mutation count.
            t.mutations_applied = t.mutations_applied.max(s.mutations_applied);
            t.mutation_batches = t.mutation_batches.max(s.mutation_batches);
            t.mutation_epoch = t.mutation_epoch.max(s.mutation_epoch);
            t.cache.merge(&s.cache);
            t.stale.merge(&s.stale);
            t.results.merge(&s.results);
            t.plans.merge(&s.plans);
            // Shards iterate in index order, so the merged histograms are
            // deterministic run-to-run for a fixed set of samples.
            t.latency.merge(&s.latency);
            t.traces_dropped += s.traces_dropped;
        }
        t
    }

    /// The pooled (all-shards) counters as a [`MetricsRegistry`] — the
    /// export surface behind `report --json`'s `metrics_*` keys, the
    /// `metrics_dump` example and the CI tail-latency gates. Durable
    /// services additionally publish `friends_wal_*` and
    /// `friends_recovery_*`.
    pub fn registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        self.totals().register_into(&mut registry);
        self.mutation_times.register_into(&mut registry);
        if let Some(wal) = &self.wal {
            register_wal_stats(wal, &mut registry);
        }
        if let Some(recovery) = &self.recovery {
            recovery.register_into(&mut registry);
        }
        registry
    }
}
