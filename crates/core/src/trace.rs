//! Per-query tracing: the thread that connects one request's plan
//! decision, cache outcomes, degradation level and stage timings into a
//! single story — the answer to "why was *this* query slow?".
//!
//! ## Lifecycle
//!
//! ```text
//! submit ──► dispatch ──► execute ──► reply
//!   │            │                      │
//!   │   should_sample() (hot path:      │  cold path, only when wants():
//!   │   one fetch_add, no alloc)        │  TraceRecord ──finish()──► QueryTrace
//!   │                                   │        │
//!   └── with_trace() forces retention   └──► TraceCollector::offer()
//!                                                │
//!                          forced / slow / deadline-missed ──► retained ring
//!                          head-sampled (~1/64)              ──► sampled ring
//! ```
//!
//! The hot path never builds a trace: the only per-request cost is one
//! relaxed `fetch_add` deciding whether this request is head-sampled.
//! Everything else happens at reply time, and only for requests that are
//! sampled, forced, slow, or missed their deadline — the trace is
//! reconstructed *post hoc* from the timings and flags the reply already
//! carries, so untraced requests pay nothing.
//!
//! Retention is a pair of lock-free-in-effect ring buffers per shard
//! ([`TraceRing`]: `try_lock` per slot, a contended slot drops the trace
//! rather than blocking). Forced and slow traces go to the *retained* ring
//! — the slow-query log — which head-sampled traffic cannot wrap; sampled
//! traces go to the *sampled* ring and are overwritten by newer ones.

use crate::corpus::QueryStats;
use friends_data::queries::Query;
use friends_data::{TagId, UserId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tracing knobs, carried by the service/client configs.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Head-sample one request in `sample_every` (per shard). `0` disables
    /// head sampling; forced and slow traces are still retained.
    pub sample_every: u64,
    /// Slots in the per-shard sampled ring (newer traces overwrite older).
    pub ring_capacity: usize,
    /// Slots in the per-shard retained ring (forced + slow-query log).
    pub retained_capacity: usize,
    /// Requests whose end-to-end latency is at or above this threshold are
    /// force-retained with their full span tree (the slow-query log).
    /// `None` retains only deadline misses and forced traces.
    pub slow_threshold: Option<Duration>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 64,
            ring_capacity: 256,
            retained_capacity: 64,
            slow_threshold: None,
        }
    }
}

/// How the traced request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Answered with `items` results.
    Done { items: usize },
    /// The deadline expired before an answer was produced.
    DeadlineMissed,
    /// Execution failed (injected fault or contained panic).
    Failed,
}

/// One structured event inside a span.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Planner decision: which processor and strategy ran.
    Planned {
        processor: &'static str,
        strategy: &'static str,
    },
    /// σ cache probe outcome (absent when the model bypasses the cache).
    ProximityCache { hit: bool },
    /// Result-memoization probe outcome.
    ResultCache { hit: bool },
    /// Bounded σ: the effective bounds and the resulting error
    /// certificate.
    Degraded {
        max_radius: u32,
        min_mass: f64,
        residual: f64,
    },
    /// This request was folded into an identical in-flight execution.
    Coalesced,
    /// The overload controller shed this request before execution.
    Shed,
    /// An injected fault fired during execution.
    Fault { kind: &'static str },
    /// Work counters from the execution.
    Work {
        postings_scanned: usize,
        users_visited: usize,
        blocks_skipped: usize,
        early_terminated: bool,
    },
    /// A mutation batch published a new corpus epoch on this shard right
    /// before this query ran — the query raced a mutation.
    Mutation { epoch: u64, mutations: usize },
    /// Incremental invalidation performed by that mutation on this shard's
    /// result cache (memoized rankings dropped).
    Invalidation { results: u64 },
    /// That racing batch's WAL receipt: it was appended (and, when
    /// `synced`, fsynced) *before* any shard acknowledged it.
    WalAppend { bytes: u64, synced: bool },
    /// The submitting thread answered the request itself (a result-cache
    /// hit): it was never queued and never dispatched.
    AnsweredAtSubmit,
}

impl TraceEvent {
    fn render(&self) -> String {
        match self {
            TraceEvent::Planned {
                processor,
                strategy,
            } => format!("planned processor={processor} strategy={strategy}"),
            TraceEvent::ProximityCache { hit: true } => "proximity-cache hit".to_owned(),
            TraceEvent::ProximityCache { hit: false } => {
                "proximity-cache miss (materialized)".to_owned()
            }
            TraceEvent::ResultCache { hit: true } => "result-cache hit (memoized)".to_owned(),
            TraceEvent::ResultCache { hit: false } => "result-cache miss".to_owned(),
            TraceEvent::Degraded {
                max_radius,
                min_mass,
                residual,
            } => {
                let radius = if *max_radius == u32::MAX {
                    "∞".to_owned()
                } else {
                    max_radius.to_string()
                };
                format!(
                    "degraded max_radius={radius} min_mass={min_mass:.2e} residual={residual:.3e}"
                )
            }
            TraceEvent::Coalesced => "coalesced into an identical in-flight execution".to_owned(),
            TraceEvent::Shed => "shed by the overload controller".to_owned(),
            TraceEvent::Fault { kind } => format!("injected fault fired: {kind}"),
            TraceEvent::Work {
                postings_scanned,
                users_visited,
                blocks_skipped,
                early_terminated,
            } => format!(
                "work postings={postings_scanned} users={users_visited} \
                 blocks_skipped={blocks_skipped} early_terminated={early_terminated}"
            ),
            TraceEvent::Mutation { epoch, mutations } => {
                format!("raced mutation batch ({mutations} mutations) publishing epoch {epoch}")
            }
            TraceEvent::Invalidation { results } => {
                format!("invalidated result_entries={results}")
            }
            TraceEvent::WalAppend { bytes, synced } => {
                let fsync = if *synced { "fsynced" } else { "buffered" };
                format!("wal append {bytes} bytes ({fsync})")
            }
            TraceEvent::AnsweredAtSubmit => "answered at submit: no queue, no dispatch".to_owned(),
        }
    }
}

/// One stage of the request lifecycle: a named `[start, end]` interval
/// (offsets from submission) plus its structured events.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub events: Vec<TraceEvent>,
}

impl TraceSpan {
    /// The span's width.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A completed per-request trace: identity, outcome, and the span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    /// Unique id; the shard index is embedded in the high bits so ids
    /// never collide across shards.
    pub id: u64,
    pub shard: usize,
    pub seeker: UserId,
    pub tags: Vec<TagId>,
    pub k: usize,
    /// Caller's correlation tag (from the request).
    pub tag: u64,
    pub outcome: TraceOutcome,
    /// Explicitly requested via `with_trace()`.
    pub forced: bool,
    /// Picked by head sampling.
    pub sampled: bool,
    /// At or above the slow threshold, or missed its deadline — retained
    /// in the slow-query log.
    pub slow: bool,
    /// End-to-end latency (submission → reply).
    pub e2e: Duration,
    /// Spans in lifecycle order; offsets are relative to submission.
    pub spans: Vec<TraceSpan>,
}

impl QueryTrace {
    /// Whether the request missed its deadline.
    pub fn deadline_missed(&self) -> bool {
        self.outcome == TraceOutcome::DeadlineMissed
    }

    /// The span with the given name, if present.
    pub fn span(&self, name: &str) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Renders the trace as an annotated text tree (the `EXPLAIN` output).
    pub fn render(&self) -> String {
        let outcome = match self.outcome {
            TraceOutcome::Done { items } => format!("done ({items} items)"),
            TraceOutcome::DeadlineMissed => "deadline missed".to_owned(),
            TraceOutcome::Failed => "failed".to_owned(),
        };
        let mut flags = String::new();
        if self.forced {
            flags.push_str(" [forced]");
        }
        if self.sampled {
            flags.push_str(" [sampled]");
        }
        if self.slow {
            flags.push_str(" [slow]");
        }
        let tags: Vec<String> = self.tags.iter().map(|t| t.to_string()).collect();
        let mut out = format!(
            "trace {:#018x} shard {} seeker {} tags [{}] k {} — {} in {}{}\n",
            self.id,
            self.shard,
            self.seeker,
            tags.join(","),
            self.k,
            outcome,
            fmt_duration(self.e2e),
            flags
        );
        for (i, span) in self.spans.iter().enumerate() {
            let last = i + 1 == self.spans.len();
            let branch = if last { "└─" } else { "├─" };
            let cont = if last { "  " } else { "│ " };
            out.push_str(&format!(
                "{branch} {:<8} {:>10} .. {:<10} ({})\n",
                span.name,
                fmt_duration(span.start),
                fmt_duration(span.end),
                fmt_duration(span.duration())
            ));
            for event in &span.events {
                out.push_str(&format!("{cont}     · {}\n", event.render()));
            }
        }
        out
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Everything the reply path knows about one request, gathered on the cold
/// path (only for requests that will actually be retained) and turned into
/// a [`QueryTrace`] by [`TraceCollector::retain`]. Plain public fields:
/// the reply sites fill in what they know and leave the rest defaulted.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    pub shard: usize,
    pub seeker: UserId,
    pub tags: Vec<TagId>,
    pub k: usize,
    pub tag: u64,
    pub forced: bool,
    pub sampled: bool,
    pub outcome: TraceOutcome,
    pub e2e: Duration,
    pub queue_wait: Duration,
    /// σ / scoring wall-clock, from the execution's [`QueryStats`].
    pub sigma_ns: u64,
    pub scoring_ns: u64,
    /// Planner decision (`(processor, strategy)`); `None` when the request
    /// never executed.
    pub plan: Option<(&'static str, &'static str)>,
    /// σ cache probe outcome; `None` when no probe happened.
    pub sigma_cached: Option<bool>,
    /// Result-memoization probe outcome; `None` when memoization is off.
    pub result_cached: Option<bool>,
    pub coalesced: bool,
    pub shed: bool,
    /// Injected fault that fired, if any.
    pub fault: Option<&'static str>,
    /// Effective σ bounds when degraded: `(max_radius, min_mass)`.
    pub degraded: Option<(u32, f64)>,
    /// Error certificate of the returned result.
    pub residual: f64,
    /// Work counters; `Some` iff the request actually executed.
    pub stats: Option<QueryStats>,
    /// `(epoch, batch size)` of a mutation batch this shard applied while
    /// the request was queued — the query raced a mutation epoch.
    pub mutation: Option<(u64, usize)>,
    /// Memoized rankings that racing batch swept from this shard's result
    /// cache (its σ cache only records the batch's edits).
    pub invalidated: Option<u64>,
    /// `(bytes, synced)` of that racing batch's WAL append — present only
    /// when the service runs durable.
    pub wal: Option<(u64, bool)>,
    /// Answered on the submitting thread: the trace has a `submit` span
    /// where a queued request has its `queue` span.
    pub at_submit: bool,
}

impl TraceRecord {
    /// A record for one request; reply sites fill the rest field-wise.
    pub fn new(shard: usize, query: &Query, tag: u64, forced: bool) -> Self {
        TraceRecord {
            shard,
            seeker: query.seeker,
            tags: query.tags.clone(),
            k: query.k,
            tag,
            forced,
            sampled: false,
            outcome: TraceOutcome::Failed,
            e2e: Duration::ZERO,
            queue_wait: Duration::ZERO,
            sigma_ns: 0,
            scoring_ns: 0,
            plan: None,
            sigma_cached: None,
            result_cached: None,
            coalesced: false,
            shed: false,
            fault: None,
            degraded: None,
            residual: 0.0,
            stats: None,
            mutation: None,
            invalidated: None,
            wal: None,
            at_submit: false,
        }
    }

    /// Copies the execution's stage timings, cache outcome and work
    /// counters out of its [`QueryStats`].
    pub fn fill_execution(&mut self, stats: &QueryStats) {
        self.sigma_ns = stats.sigma_ns;
        self.scoring_ns = stats.scoring_ns;
        self.sigma_cached = stats.sigma_cached;
        self.stats = Some(*stats);
    }

    /// Builds the span tree. Offsets are reconstructed from the timings
    /// the reply already carries: queue `[0, queue_wait]`; plan = the
    /// slack between queue exit and σ start (dispatch overhead, injected
    /// delays); σ and scoring from the processor's own nanosecond
    /// counters; reply at `e2e`. A request answered at submit has a
    /// `submit` span `[0, e2e]` instead of its queue span.
    pub fn finish(self, id: u64, slow: bool) -> QueryTrace {
        let mut spans = Vec::with_capacity(5);
        if self.at_submit {
            spans.push(TraceSpan {
                name: "submit",
                start: Duration::ZERO,
                end: self.e2e,
                events: vec![TraceEvent::AnsweredAtSubmit],
            });
        } else {
            let mut queue = TraceSpan {
                name: "queue",
                start: Duration::ZERO,
                end: self.queue_wait,
                events: Vec::new(),
            };
            if self.coalesced {
                queue.events.push(TraceEvent::Coalesced);
            }
            if self.shed {
                queue.events.push(TraceEvent::Shed);
            }
            if let Some((epoch, mutations)) = self.mutation {
                queue.events.push(TraceEvent::Mutation { epoch, mutations });
            }
            if let Some(results) = self.invalidated {
                queue.events.push(TraceEvent::Invalidation { results });
            }
            if let Some((bytes, synced)) = self.wal {
                queue.events.push(TraceEvent::WalAppend { bytes, synced });
            }
            spans.push(queue);
        }

        let executed = self.stats.is_some();
        if executed || self.fault.is_some() {
            let sigma = Duration::from_nanos(self.sigma_ns);
            let scoring = Duration::from_nanos(self.scoring_ns);
            let slack = self.e2e.saturating_sub(self.queue_wait + sigma + scoring);
            let mut plan = TraceSpan {
                name: "plan",
                start: self.queue_wait,
                end: self.queue_wait + slack,
                events: Vec::new(),
            };
            if let Some((processor, strategy)) = self.plan {
                plan.events.push(TraceEvent::Planned {
                    processor,
                    strategy,
                });
            }
            if let Some(kind) = self.fault {
                plan.events.push(TraceEvent::Fault { kind });
            }
            if let Some((max_radius, min_mass)) = self.degraded {
                plan.events.push(TraceEvent::Degraded {
                    max_radius,
                    min_mass,
                    residual: self.residual,
                });
            }
            let plan_end = plan.end;
            spans.push(plan);

            if executed {
                let mut sigma_span = TraceSpan {
                    name: "sigma",
                    start: plan_end,
                    end: plan_end + sigma,
                    events: Vec::new(),
                };
                if let Some(hit) = self.sigma_cached {
                    sigma_span.events.push(TraceEvent::ProximityCache { hit });
                }
                let sigma_end = sigma_span.end;
                spans.push(sigma_span);

                let mut scoring_span = TraceSpan {
                    name: "scoring",
                    start: sigma_end,
                    end: sigma_end + scoring,
                    events: Vec::new(),
                };
                if let Some(stats) = &self.stats {
                    scoring_span.events.push(TraceEvent::Work {
                        postings_scanned: stats.postings_scanned,
                        users_visited: stats.users_visited,
                        blocks_skipped: stats.blocks_skipped,
                        early_terminated: stats.early_terminated,
                    });
                }
                spans.push(scoring_span);
            }
        }

        let mut reply = TraceSpan {
            name: "reply",
            start: self.e2e,
            end: self.e2e,
            events: Vec::new(),
        };
        if let Some(hit) = self.result_cached {
            reply.events.push(TraceEvent::ResultCache { hit });
        }
        spans.push(reply);

        QueryTrace {
            id,
            shard: self.shard,
            seeker: self.seeker,
            tags: self.tags,
            k: self.k,
            tag: self.tag,
            outcome: self.outcome,
            forced: self.forced,
            sampled: self.sampled,
            slow,
            e2e: self.e2e,
            spans,
        }
    }
}

/// A fixed-capacity ring of completed traces. Pushing never blocks: each
/// slot is guarded by a `try_lock`, and a contended slot drops the trace
/// (counted) instead of waiting — the hot path's worst case is one failed
/// lock attempt.
pub struct TraceRing {
    slots: Box<[Mutex<Option<Arc<QueryTrace>>>]>,
    head: AtomicUsize,
    dropped: AtomicU64,
}

impl TraceRing {
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Traces dropped because their slot was contended.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Stores a trace, overwriting the oldest slot. Never blocks and never
    /// allocates (the `Arc` is built by the caller on the cold path).
    pub fn push(&self, trace: Arc<QueryTrace>) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        match self.slots[slot].try_lock() {
            Some(mut guard) => *guard = Some(trace),
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Takes every stored trace, oldest first, leaving the ring empty.
    pub fn drain(&self) -> Vec<Arc<QueryTrace>> {
        let head = self.head.load(Ordering::Relaxed);
        let n = self.slots.len();
        let mut out = Vec::new();
        // `head % n` is the oldest surviving slot (the next to be
        // overwritten); walk forward from it so callers see FIFO order.
        for i in 0..n {
            if let Some(trace) = self.slots[(head + i) % n].lock().take() {
                out.push(trace);
            }
        }
        out
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

/// Per-shard trace retention: the head-sampling decision, trace-id
/// assignment, and the sampled + retained rings.
#[derive(Debug)]
pub struct TraceCollector {
    shard: usize,
    config: TraceConfig,
    /// Requests seen (head-sampling counter). Hot path: one `fetch_add`.
    seq: AtomicU64,
    /// Trace ids handed out (cold path).
    ids: AtomicU64,
    sampled: TraceRing,
    retained: TraceRing,
}

impl TraceCollector {
    pub fn new(shard: usize, config: TraceConfig) -> Self {
        TraceCollector {
            shard,
            config,
            seq: AtomicU64::new(0),
            ids: AtomicU64::new(0),
            sampled: TraceRing::new(config.ring_capacity),
            retained: TraceRing::new(config.retained_capacity),
        }
    }

    /// The collector's configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The per-request head-sampling decision — the ONLY tracing cost an
    /// untraced request pays. One relaxed `fetch_add`, no allocation.
    #[inline]
    pub fn should_sample(&self) -> bool {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        self.config.sample_every > 0 && n.is_multiple_of(self.config.sample_every)
    }

    /// Whether this end-to-end latency crosses the slow threshold.
    pub fn is_slow(&self, e2e: Duration) -> bool {
        self.config
            .slow_threshold
            .is_some_and(|threshold| e2e >= threshold)
    }

    /// Whether the reply path should build a trace at all — the guard
    /// every reply site checks before paying any trace-construction cost.
    pub fn wants(&self, forced: bool, sampled: bool, e2e: Duration, missed: bool) -> bool {
        forced || sampled || missed || self.is_slow(e2e)
    }

    /// A fresh trace id with the shard index in the high bits, so ids from
    /// different shards never collide.
    pub fn next_id(&self) -> u64 {
        let seq = self.ids.fetch_add(1, Ordering::Relaxed);
        ((self.shard as u64 + 1) << 40) | (seq & ((1 << 40) - 1))
    }

    /// Finishes a record into a [`QueryTrace`], stores it in the right
    /// ring, and returns it (the reply carries the same `Arc`).
    pub fn retain(&self, record: TraceRecord) -> Arc<QueryTrace> {
        let missed = record.outcome == TraceOutcome::DeadlineMissed;
        let slow = missed || self.is_slow(record.e2e);
        let trace = Arc::new(record.finish(self.next_id(), slow));
        self.offer(Arc::clone(&trace));
        trace
    }

    /// Routes an already-built trace: forced and slow traces go to the
    /// retained ring (the slow-query log, which sampled traffic cannot
    /// wrap); the rest to the sampled ring. Never blocks, never allocates.
    pub fn offer(&self, trace: Arc<QueryTrace>) {
        if trace.forced || trace.slow {
            self.retained.push(trace);
        } else {
            self.sampled.push(trace);
        }
    }

    /// Drains the head-sampled traces.
    pub fn drain_sampled(&self) -> Vec<Arc<QueryTrace>> {
        self.sampled.drain()
    }

    /// Drains the slow-query log (forced + slow + deadline-missed traces).
    pub fn drain_retained(&self) -> Vec<Arc<QueryTrace>> {
        self.retained.drain()
    }

    /// Traces dropped on contended ring slots, across both rings.
    pub fn dropped(&self) -> u64 {
        self.sampled.dropped() + self.retained.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> Query {
        Query {
            seeker: 7,
            tags: vec![1, 2],
            k: 10,
        }
    }

    fn record(collector: &TraceCollector, forced: bool, e2e_us: u64) -> TraceRecord {
        let mut rec = TraceRecord::new(0, &query(), 42, forced);
        rec.outcome = TraceOutcome::Done { items: 3 };
        rec.e2e = Duration::from_micros(e2e_us);
        rec.queue_wait = Duration::from_micros(e2e_us / 10);
        let _ = collector; // records are collector-independent
        rec
    }

    #[test]
    fn head_sampling_cadence() {
        let c = TraceCollector::new(
            0,
            TraceConfig {
                sample_every: 4,
                ..TraceConfig::default()
            },
        );
        let picks: Vec<bool> = (0..8).map(|_| c.should_sample()).collect();
        assert_eq!(
            picks,
            [true, false, false, false, true, false, false, false]
        );
        let off = TraceCollector::new(
            0,
            TraceConfig {
                sample_every: 0,
                ..TraceConfig::default()
            },
        );
        assert!((0..32).all(|_| !off.should_sample()));
    }

    #[test]
    fn ids_embed_the_shard() {
        let a = TraceCollector::new(0, TraceConfig::default());
        let b = TraceCollector::new(5, TraceConfig::default());
        assert_ne!(a.next_id(), b.next_id());
        assert_eq!(b.next_id() >> 40, 6);
    }

    #[test]
    fn span_tree_shape_for_an_executed_request() {
        // e2e 200µs = 20µs queue + slack + 40µs σ + 120µs scoring.
        let c = TraceCollector::new(0, TraceConfig::default());
        let mut rec = record(&c, true, 200);
        let stats = QueryStats {
            postings_scanned: 100,
            users_visited: 9,
            sigma_ns: 40_000,
            scoring_ns: 120_000,
            sigma_cached: Some(true),
            ..QueryStats::default()
        };
        rec.fill_execution(&stats);
        rec.plan = Some(("exact", "block-max"));
        rec.result_cached = Some(false);
        let trace = c.retain(rec);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["queue", "plan", "sigma", "scoring", "reply"]);
        assert_eq!(
            trace.span("sigma").unwrap().duration(),
            Duration::from_micros(40)
        );
        assert_eq!(trace.span("scoring").unwrap().end, trace.e2e);
        assert!(trace.span("plan").unwrap().events.iter().any(|e| matches!(
            e,
            TraceEvent::Planned {
                strategy: "block-max",
                ..
            }
        )));
        let rendered = trace.render();
        assert!(rendered.contains("proximity-cache hit"), "{rendered}");
        assert!(rendered.contains("strategy=block-max"), "{rendered}");
        assert!(rendered.contains("[forced]"), "{rendered}");
    }

    #[test]
    fn mutation_race_shows_in_the_queue_span() {
        let c = TraceCollector::new(0, TraceConfig::default());
        let mut rec = record(&c, true, 150);
        rec.fill_execution(&QueryStats {
            sigma_ns: 10_000,
            scoring_ns: 20_000,
            ..QueryStats::default()
        });
        rec.mutation = Some((3, 8));
        rec.invalidated = Some(2);
        let trace = c.retain(rec);
        let queue = trace.span("queue").unwrap();
        assert!(queue
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Mutation { epoch: 3, .. })));
        let rendered = trace.render();
        assert!(
            rendered.contains("raced mutation batch (8 mutations) publishing epoch 3"),
            "{rendered}"
        );
        assert!(
            rendered.contains("invalidated result_entries=2"),
            "{rendered}"
        );
    }

    #[test]
    fn shed_request_has_no_execution_spans() {
        let c = TraceCollector::new(0, TraceConfig::default());
        let mut rec = record(&c, false, 10);
        rec.sampled = true;
        rec.shed = true;
        rec.outcome = TraceOutcome::Failed;
        let trace = c.retain(rec);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["queue", "reply"]);
        assert!(trace.render().contains("shed"));
    }

    #[test]
    fn a_request_answered_at_submit_has_no_queue_or_execution_spans() {
        let c = TraceCollector::new(0, TraceConfig::default());
        let mut rec = record(&c, true, 2);
        rec.queue_wait = Duration::ZERO;
        rec.result_cached = Some(true);
        rec.at_submit = true;
        let trace = c.retain(rec);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["submit", "reply"]);
        assert_eq!(trace.span("submit").unwrap().end, trace.e2e);
        let rendered = trace.render();
        assert!(rendered.contains("answered at submit"), "{rendered}");
        assert!(rendered.contains("result-cache hit"), "{rendered}");
    }

    #[test]
    fn slow_and_missed_requests_land_in_the_retained_ring() {
        let c = TraceCollector::new(
            0,
            TraceConfig {
                slow_threshold: Some(Duration::from_micros(100)),
                ..TraceConfig::default()
            },
        );
        let fast = record(&c, false, 50);
        c.retain(fast); // below threshold, not forced → sampled ring
        let slow = record(&c, false, 150);
        let slow = c.retain(slow);
        assert!(slow.slow);
        let mut missed = record(&c, false, 50);
        missed.outcome = TraceOutcome::DeadlineMissed;
        let missed = c.retain(missed);
        assert!(missed.slow && missed.deadline_missed());
        let log = c.drain_retained();
        assert_eq!(log.len(), 2);
        assert_eq!(c.drain_sampled().len(), 1);
        assert!(c.drain_retained().is_empty(), "drain leaves the log empty");
    }

    #[test]
    fn ring_wrap_keeps_the_newest() {
        let ring = TraceRing::new(2);
        let c = TraceCollector::new(0, TraceConfig::default());
        for i in 0..5u64 {
            let mut rec = record(&c, false, 10);
            rec.tag = i;
            ring.push(Arc::new(rec.finish(i, false)));
        }
        let out = ring.drain();
        let tags: Vec<u64> = out.iter().map(|t| t.tag).collect();
        assert_eq!(tags, [3, 4], "oldest-first, newest survive the wrap");
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn forced_traces_survive_sampled_wrap() {
        let c = TraceCollector::new(
            0,
            TraceConfig {
                ring_capacity: 2,
                retained_capacity: 8,
                ..TraceConfig::default()
            },
        );
        let forced = c.retain(record(&c, true, 10));
        for _ in 0..64 {
            let mut rec = record(&c, false, 10);
            rec.sampled = true;
            c.retain(rec);
        }
        let log = c.drain_retained();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].id, forced.id);
    }
}
