//! The unified client API: one planner-backed query surface over direct
//! and served execution.
//!
//! Callers build a [`QueryRequest`] (seeker, tags, k, proximity model,
//! strategy hint, deadline, tag) and hand it to any [`SearchClient`]:
//!
//! * [`DirectClient`] — in-process execution on a standing worker pool
//!   with one **shared** sharded proximity cache. No affinity, no
//!   coalescing: the lightest way to run personalized queries concurrently.
//! * [`ServedClient`] — a planner-backed [`FriendsService`]: seeker
//!   affinity, batched dispatch, duplicate coalescing, shard-private
//!   caches, optional result memoization. The serving tier behind the same
//!   trait.
//!
//! Both return non-blocking [`Ticket`]s; a [`crate::Multiplexer`] drives
//! many in-flight tickets from one loop. Behind the trait, the
//! [`friends_core::plan::Planner`] maps every request to a
//! [`ProcessorRegistry`] entry plus a scoring strategy — callers never
//! name a processor type, and every plan returns byte-identical rankings
//! (pinned by `tests/proptest_client.rs`).

use crate::broker::{
    enqueue, spawn_worker, FaultPlan, FriendsService, ServiceConfig, WorkItem, WorkerConfig,
};
use crate::request::{Reply, Ticket};
use crate::stats::{ServiceStats, ShardState, ShardStats};
use crossbeam::channel;
use friends_core::cache::{CachePolicy, ProximityCache};
use friends_core::corpus::{Corpus, SearchResult};
use friends_core::latency::StageSnapshot;
use friends_core::metrics::MetricsRegistry;
use friends_core::plan::{ProcessorRegistry, QueryRequest};
use friends_core::proximity::ProximityModel;
use friends_core::trace::{QueryTrace, TraceCollector, TraceConfig};
use friends_data::mutations::MutationBatch;
use friends_data::queries::Query;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The one query surface of the system. Implementations differ in *where
/// and how* a request executes (in-process pool vs serving tier), never in
/// its answer: for the same corpus and request, every client returns
/// byte-identical rankings.
pub trait SearchClient {
    /// Enqueues one request, returning a non-blocking [`Ticket`].
    fn submit(&self, request: QueryRequest) -> Ticket;

    /// Submits and waits, respecting the request's deadline
    /// ([`Ticket::wait_deadline`]).
    fn run(&self, request: QueryRequest) -> Reply {
        self.submit(request).wait_deadline()
    }

    /// Floods every request in, then collects replies in input order,
    /// respecting each request's deadline.
    fn run_batch(&self, requests: Vec<QueryRequest>) -> Vec<Reply> {
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.submit(r)).collect();
        tickets.into_iter().map(Ticket::wait_deadline).collect()
    }

    /// Batch convenience for deadline-free workloads: runs every query
    /// under `model` and unwraps the results, in input order.
    ///
    /// # Panics
    /// Panics if a worker died mid-batch (requests are submitted without
    /// deadlines, so they are never shed).
    fn search(&self, queries: &[Query], model: ProximityModel) -> Vec<SearchResult> {
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|q| {
                self.submit(
                    QueryRequest::from_query(q.clone())
                        .with_model(model)
                        .without_deadline(),
                )
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().outcome.expect_done("search"))
            .collect()
    }

    /// Per-stage latency histograms (queue wait, σ materialization,
    /// scoring, end-to-end) accumulated so far.
    fn latencies(&self) -> StageSnapshot;

    /// Drains head-sampled traces accumulated so far (destructive: each
    /// trace is returned once).
    fn traces(&self) -> Vec<Arc<QueryTrace>>;

    /// Drains the slow-query log — forced (`with_trace()`), slow and
    /// deadline-missed traces, each with its full span tree.
    fn slow_queries(&self) -> Vec<Arc<QueryTrace>>;

    /// The client's counters as a unified [`MetricsRegistry`] snapshot
    /// (the `friends_*` naming convention).
    fn metrics(&self) -> MetricsRegistry;
}

/// [`DirectClient`] tuning.
#[derive(Clone, Copy, Debug)]
pub struct DirectConfig {
    /// Worker threads (0 → one per hardware thread). Workers compete for
    /// jobs on one queue — no affinity, work goes wherever a thread is
    /// idle.
    pub threads: usize,
    /// Capacity of the **shared** sharded proximity cache; 0 runs
    /// cache-less (every query materializes σ into its worker's scratch).
    pub cache_capacity: usize,
    /// Byte budget of the shared cache across all its shards
    /// (`usize::MAX` disables; both limits are enforced when set).
    pub cache_bytes: usize,
    /// Policy of the shared cache.
    pub cache_policy: CachePolicy,
    /// Deadline budget for requests that don't carry their own; `None`
    /// disables shedding for them.
    pub default_deadline: Option<Duration>,
}

impl Default for DirectConfig {
    fn default() -> Self {
        DirectConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // Byte budget is the primary limit; the entry cap is a disabled
            // fallback (0 still runs cache-less).
            cache_capacity: usize::MAX,
            cache_bytes: 64 << 20,
            cache_policy: CachePolicy {
                admission: true,
                ttl: None,
            },
            default_deadline: Some(Duration::from_secs(5)),
        }
    }
}

/// In-process [`SearchClient`]: a standing pool of planner-backed workers
/// over one shared proximity cache — non-blocking submission, per-request
/// models and deadlines, no per-batch thread spawning. The pool runs the
/// broker's worker loop: one queue and one set of shard counters shared by
/// every worker, no result cache, and one request per dispatch cycle so a
/// worker never drains work its idle siblings could take.
pub struct DirectClient {
    /// `None` only while shutting down (dropping it disconnects the queue).
    sender: Option<channel::Sender<WorkItem>>,
    state: Arc<ShardState>,
    workers: Vec<JoinHandle<()>>,
    default_deadline: Option<Duration>,
}

impl DirectClient {
    /// Starts a pool with the standard registry.
    pub fn start(corpus: Arc<Corpus>, config: DirectConfig) -> Self {
        Self::with_registry(corpus, config, Arc::new(ProcessorRegistry::standard()))
    }

    /// Starts a pool over a custom registry.
    pub fn with_registry(
        corpus: Arc<Corpus>,
        config: DirectConfig,
        registry: Arc<ProcessorRegistry>,
    ) -> Self {
        Self::spawn(corpus, config, registry, None)
    }

    /// [`DirectClient::with_registry`] with a test-only fault armed on
    /// every worker (see [`FaultPlan`]).
    fn spawn(
        corpus: Arc<Corpus>,
        config: DirectConfig,
        registry: Arc<ProcessorRegistry>,
        fault: Option<FaultPlan>,
    ) -> Self {
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        };
        let (tx, rx) = channel::unbounded();
        let cache = (config.cache_capacity > 0).then(|| {
            Arc::new(ProximityCache::with_limits(
                config.cache_capacity,
                config.cache_bytes,
                threads.clamp(1, 16),
                config.cache_policy,
            ))
        });
        // One pool-wide collector (the workers compete on one queue, so
        // there is no per-shard affinity to preserve in the trace ids).
        let state = Arc::new(ShardState::new(
            cache,
            None,
            TraceCollector::new(0, TraceConfig::default()),
        ));
        let workers = (0..threads)
            .map(|worker| {
                spawn_worker(
                    format!("friends-direct-{worker}"),
                    worker,
                    Arc::clone(&corpus),
                    rx.clone(),
                    Arc::clone(&state),
                    Arc::clone(&registry),
                    WorkerConfig {
                        max_batch: 1,
                        overload: None,
                        fault,
                    },
                )
            })
            .collect();
        DirectClient {
            sender: Some(tx),
            state,
            workers,
            default_deadline: config.default_deadline,
        }
    }

    /// A live snapshot of the pool's counters: the one queue's
    /// [`ShardStats`] (shard 0), filled by every worker. The pool neither
    /// coalesces nor memoizes, so those counters stay 0.
    pub fn stats(&self) -> ShardStats {
        self.state.snapshot(0)
    }

    /// Drain-based shutdown: closes the queue, lets workers finish what is
    /// already enqueued, joins them, and returns the final stats.
    pub fn shutdown(mut self) -> ShardStats {
        self.join();
        self.stats()
    }

    fn join(&mut self) {
        self.sender = None; // disconnects; workers drain then exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for DirectClient {
    fn drop(&mut self) {
        self.join();
    }
}

impl SearchClient for DirectClient {
    fn submit(&self, request: QueryRequest) -> Ticket {
        let sender = self.sender.as_ref().expect("queue open until shutdown");
        enqueue(sender, &self.state, 0, request, self.default_deadline)
    }

    fn latencies(&self) -> StageSnapshot {
        self.state.latency.snapshot()
    }

    fn traces(&self) -> Vec<Arc<QueryTrace>> {
        self.state.traces.drain_sampled()
    }

    fn slow_queries(&self) -> Vec<Arc<QueryTrace>> {
        self.state.traces.drain_retained()
    }

    fn metrics(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        self.stats().register_into(&mut registry);
        registry
    }
}

/// [`SearchClient`] over the serving tier: a planner-backed
/// [`FriendsService`] (seeker affinity, batched dispatch, coalescing,
/// shard-private caches, optional result memoization) behind the same
/// request surface as [`DirectClient`].
pub struct ServedClient {
    service: FriendsService,
}

impl ServedClient {
    /// Starts a planner-backed service with the standard registry.
    pub fn start(corpus: Arc<Corpus>, config: ServiceConfig) -> Self {
        Self::with_registry(corpus, config, Arc::new(ProcessorRegistry::standard()))
    }

    /// Starts a planner-backed service over a custom registry.
    pub fn with_registry(
        corpus: Arc<Corpus>,
        config: ServiceConfig,
        registry: Arc<ProcessorRegistry>,
    ) -> Self {
        ServedClient {
            service: FriendsService::start_planned(corpus, config, registry),
        }
    }

    /// The underlying service, for its broker-level API (shard routing,
    /// snapshots, durability).
    pub fn service(&self) -> &FriendsService {
        &self.service
    }

    /// A live snapshot of every shard's counters.
    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Applies a live-graph mutation batch across every shard with
    /// incremental cache invalidation — see
    /// [`FriendsService::apply_mutations`].
    pub fn apply_mutations(
        &self,
        batch: &MutationBatch,
        horizon: Option<u32>,
    ) -> crate::MutationReport {
        self.service.apply_mutations(batch, horizon)
    }

    /// [`ServedClient::apply_mutations`] with the durability error
    /// surfaced instead of panicking — see
    /// [`FriendsService::try_apply_mutations`]. On a durable service,
    /// `Ok` means the batch is on the WAL (fsynced per its sync policy)
    /// before any shard acknowledged it.
    pub fn try_apply_mutations(
        &self,
        batch: &MutationBatch,
        horizon: Option<u32>,
    ) -> std::io::Result<crate::MutationReport> {
        self.service.try_apply_mutations(batch, horizon)
    }

    /// The startup recovery report of a durable service — see
    /// [`FriendsService::recovery_report`]. `None` when the service runs
    /// memory-only.
    pub fn recovery_report(&self) -> Option<&friends_core::live::RecoveryReport> {
        self.service.recovery_report()
    }

    /// The service's published corpus epoch (0 = frozen seed).
    pub fn epoch(&self) -> u64 {
        self.service.epoch()
    }

    /// Drain-based shutdown; returns the final stats.
    pub fn shutdown(self) -> ServiceStats {
        self.service.shutdown()
    }
}

impl SearchClient for ServedClient {
    fn submit(&self, request: QueryRequest) -> Ticket {
        self.service.submit(request)
    }

    fn latencies(&self) -> StageSnapshot {
        self.service.stats().totals().latency
    }

    fn traces(&self) -> Vec<Arc<QueryTrace>> {
        self.service.traces()
    }

    fn slow_queries(&self) -> Vec<Arc<QueryTrace>> {
        self.service.slow_queries()
    }

    fn metrics(&self) -> MetricsRegistry {
        self.service.stats().registry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, Outcome};
    use friends_core::plan::GLOBAL_BOUND_TA;
    use friends_core::processors::{ExactOnline, GlobalBoundTA, Processor};
    use friends_data::datasets::{DatasetSpec, Scale};
    use friends_data::queries::{QueryParams, QueryWorkload};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Instant;

    fn fixture() -> (Arc<Corpus>, QueryWorkload) {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(8);
        let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
        let w = QueryWorkload::generate(
            &corpus.graph,
            &corpus.store,
            &QueryParams {
                count: 29,
                ..QueryParams::default()
            },
            4,
        );
        (corpus, w)
    }

    const MODEL: ProximityModel = ProximityModel::WeightedDecay { alpha: 0.5 };

    fn clients(corpus: &Arc<Corpus>) -> (DirectClient, ServedClient) {
        (
            DirectClient::start(
                Arc::clone(corpus),
                DirectConfig {
                    threads: 3,
                    ..DirectConfig::default()
                },
            ),
            ServedClient::start(
                Arc::clone(corpus),
                ServiceConfig {
                    shards: 3,
                    ..ServiceConfig::default()
                },
            ),
        )
    }

    #[test]
    fn both_clients_agree_with_direct_execution() {
        let (corpus, w) = fixture();
        let mut reference = ExactOnline::new(&corpus, MODEL);
        let want: Vec<_> = w.queries.iter().map(|q| reference.query(q).items).collect();
        let (direct, served) = clients(&corpus);
        for (client, name) in [
            (&direct as &dyn SearchClient, "direct"),
            (&served as &dyn SearchClient, "served"),
        ] {
            let got = client.search(&w.queries, MODEL);
            assert_eq!(got.len(), want.len());
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a, &b.items, "{name} diverged");
            }
        }
        let ds = direct.shutdown();
        assert_eq!(ds.submitted, w.len() as u64);
        assert_eq!(ds.executed, w.len() as u64);
        assert!(ds.plans.total() >= w.len() as u64);
        served.shutdown();
    }

    #[test]
    fn per_request_models_do_not_interfere() {
        let (corpus, w) = fixture();
        let (direct, served) = clients(&corpus);
        let models = [
            ProximityModel::Global,
            ProximityModel::FriendsOnly,
            MODEL,
            ProximityModel::AdamicAdar,
        ];
        // Interleave models within one in-flight burst on each client.
        for client in [&direct as &dyn SearchClient, &served as &dyn SearchClient] {
            let tickets: Vec<Ticket> = w
                .queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    client.submit(
                        QueryRequest::from_query(q.clone())
                            .with_model(models[i % models.len()])
                            .without_deadline(),
                    )
                })
                .collect();
            for (i, t) in tickets.into_iter().enumerate() {
                let model = models[i % models.len()];
                let mut reference = ExactOnline::new(&corpus, model);
                let want = reference.query(&w.queries[i]).items;
                let got = t.wait().outcome.expect_done("interleaved");
                assert_eq!(want, got.items, "query {i} under {}", model.name());
            }
        }
        direct.shutdown();
        served.shutdown();
    }

    #[test]
    fn processor_override_routes_to_the_named_entry() {
        let (corpus, w) = fixture();
        let (direct, served) = clients(&corpus);
        let mut reference = GlobalBoundTA::new(&corpus, ProximityModel::FriendsOnly);
        for q in w.queries.iter().take(6) {
            let want = reference.query(q).items;
            for client in [&direct as &dyn SearchClient, &served as &dyn SearchClient] {
                let reply = client.run(
                    QueryRequest::from_query(q.clone())
                        .with_model(ProximityModel::FriendsOnly)
                        .with_processor(GLOBAL_BOUND_TA)
                        .without_deadline(),
                );
                assert_eq!(reply.outcome.result().expect("done").items, want);
            }
        }
        let stats = direct.shutdown();
        assert_eq!(stats.plans.processors[1], 6, "{:?}", stats.plans);
        served.shutdown();
    }

    #[test]
    fn direct_client_sheds_expired_requests() {
        let (corpus, w) = fixture();
        let client = DirectClient::start(
            Arc::clone(&corpus),
            DirectConfig {
                threads: 1,
                ..DirectConfig::default()
            },
        );
        // Park the single worker, then submit a zero-budget request.
        let parked: Vec<Ticket> = w
            .queries
            .iter()
            .map(|q| client.submit(QueryRequest::from_query(q.clone()).without_deadline()))
            .collect();
        let doomed = client.submit(
            QueryRequest::new(5, vec![1], 5)
                .with_model(MODEL)
                .with_deadline(Duration::ZERO),
        );
        let reply = doomed.wait_deadline();
        assert!(matches!(reply.outcome, Outcome::DeadlineMissed));
        for t in parked {
            assert!(t.wait().outcome.result().is_some());
        }
        let stats = client.shutdown();
        assert!(stats.deadline_misses <= 1); // shed in queue, or missed at the ticket
        assert_eq!(
            stats.executed + stats.deadline_misses,
            stats.submitted,
            "{stats:?}"
        );
    }

    /// A request mix with every way a request can end: a repeat that
    /// arrives after its first execution finished (a memo hit where results
    /// are memoized), a cycled flood whose duplicates are in flight
    /// together, and a zero-budget request that expires in the queue. The
    /// armed fault supplies the failure. Returns every ticket's reply.
    fn mixed_traffic(client: &dyn SearchClient, w: &QueryWorkload) -> Vec<Reply> {
        let request = |q: &Query| QueryRequest::from_query(q.clone()).with_model(MODEL);
        let mut replies = vec![client.run(request(&w.queries[0]).without_deadline())];
        let mut tickets: Vec<Ticket> = w
            .queries
            .iter()
            .cycle()
            .take(256)
            .map(|q| client.submit(request(q).without_deadline()))
            .collect();
        tickets.push(client.submit(request(&w.queries[1]).with_deadline(Duration::ZERO)));
        replies.extend(tickets.into_iter().map(Ticket::wait));
        replies
    }

    /// Checks the replies against `[submitted, executed, coalesced,
    /// result_served, deadline_misses, failed]`: every ticket resolved,
    /// every request in exactly one counter.
    fn assert_balanced(replies: &[Reply], counters: [u64; 6], context: &str) {
        let [submitted, executed, coalesced, result_served, deadline_misses, failed] = counters;
        let count =
            |pred: fn(&Outcome) -> bool| replies.iter().filter(|r| pred(&r.outcome)).count() as u64;
        assert_eq!(submitted, replies.len() as u64, "{context}");
        assert_eq!(
            submitted,
            executed + coalesced + result_served + deadline_misses + failed,
            "{context}: {counters:?}"
        );
        assert_eq!(
            count(|o| matches!(o, Outcome::Done(_))),
            executed + coalesced + result_served,
            "{context}"
        );
        assert_eq!(
            count(|o| matches!(o, Outcome::DeadlineMissed)),
            deadline_misses,
            "{context}"
        );
        assert_eq!(count(|o| matches!(o, Outcome::Failed)), failed, "{context}");
        assert!(
            deadline_misses == 1 && failed >= 1,
            "{context}: {counters:?}"
        );
    }

    /// Both clients run the one worker loop, so after a drained shutdown
    /// the same identity holds for both — in the stats and in the registry
    /// keys reporting reads — under an injected panic and an injected
    /// error alike.
    #[test]
    fn counters_balance_on_the_one_loop_for_both_clients() {
        let (corpus, w) = fixture();
        for kind in [FaultKind::Panic, FaultKind::Error] {
            let fault = Some(FaultPlan { nth: 2, kind });
            let context = format!("{kind:?}");

            let served = ServedClient::start(
                Arc::clone(&corpus),
                ServiceConfig {
                    shards: 2,
                    result_cache_capacity: 256,
                    fault,
                    ..ServiceConfig::default()
                },
            );
            let replies = mixed_traffic(&served, &w);
            let registry = served.shutdown().registry();
            let read = |name: &str| {
                let key = format!("friends_service_{name}_total");
                registry.get(&key).expect("exported") as u64
            };
            let counters = [
                "submitted",
                "executed",
                "coalesced",
                "result_served",
                "deadline_misses",
                "failed",
            ]
            .map(read);
            assert_balanced(&replies, counters, &format!("served, {context}"));
            assert!(counters[2] > 0 && counters[3] > 0, "{counters:?}");

            let direct = DirectClient::spawn(
                Arc::clone(&corpus),
                DirectConfig {
                    threads: 2,
                    ..DirectConfig::default()
                },
                Arc::new(ProcessorRegistry::standard()),
                fault,
            );
            let replies = mixed_traffic(&direct, &w);
            let stats = direct.shutdown();
            let mut registry = MetricsRegistry::new();
            stats.register_into(&mut registry);
            let read = |name: &str| {
                let key = format!("friends_service_{name}_total");
                registry.get(&key).expect("exported") as u64
            };
            let counters = [
                "submitted",
                "executed",
                "coalesced",
                "result_served",
                "deadline_misses",
                "failed",
            ]
            .map(read);
            assert_eq!(
                counters,
                [
                    stats.submitted,
                    stats.executed,
                    0,
                    0,
                    stats.deadline_misses,
                    stats.failed
                ]
            );
            assert_balanced(&replies, counters, &format!("direct, {context}"));
        }
    }

    /// A registry entry whose every query waits until `PARTIES` executions
    /// are inside it at the same time (a cyclic barrier with a timeout, so
    /// a broken pool fails the test instead of hanging it).
    struct Rendezvous {
        arrived: Arc<AtomicUsize>,
        timed_out: Arc<AtomicBool>,
    }

    const PARTIES: usize = 4;

    impl Processor for Rendezvous {
        fn name(&self) -> &'static str {
            "rendezvous"
        }

        fn query(&mut self, _q: &Query) -> SearchResult {
            let ticket = self.arrived.fetch_add(1, Ordering::SeqCst);
            let full = (ticket / PARTIES + 1) * PARTIES;
            let started = Instant::now();
            while self.arrived.load(Ordering::SeqCst) < full {
                // One timeout fails the run: later queries pass through.
                if self.timed_out.load(Ordering::SeqCst)
                    || started.elapsed() > Duration::from_secs(10)
                {
                    self.timed_out.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            SearchResult::default()
        }
    }

    /// The pool's topology, pinned: one shared queue and one request per
    /// dispatch cycle, so a flood keeps every worker busy until it is
    /// gone. A worker that drained a batch of its own would sit in the
    /// rendezvous holding work its idle siblings need to get there.
    #[test]
    fn direct_client_spreads_a_flood_over_all_its_workers() {
        let (corpus, _) = fixture();
        let arrived = Arc::new(AtomicUsize::new(0));
        let timed_out = Arc::new(AtomicBool::new(false));
        let mut registry = ProcessorRegistry::standard();
        let (a, t) = (Arc::clone(&arrived), Arc::clone(&timed_out));
        registry.register("rendezvous", move |_, _, _| {
            Box::new(Rendezvous {
                arrived: Arc::clone(&a),
                timed_out: Arc::clone(&t),
            })
        });
        let client = DirectClient::with_registry(
            Arc::clone(&corpus),
            DirectConfig {
                threads: PARTIES,
                ..DirectConfig::default()
            },
            Arc::new(registry),
        );
        let tickets: Vec<Ticket> = (0..64)
            .map(|i| {
                client.submit(
                    QueryRequest::new(i % 7, vec![0], 1 + i as usize)
                        .with_processor("rendezvous")
                        .without_deadline(),
                )
            })
            .collect();
        for t in tickets {
            assert!(t.wait().outcome.result().is_some());
        }
        assert!(
            !timed_out.load(Ordering::SeqCst),
            "a worker held queued work while its siblings idled"
        );
        assert_eq!(arrived.load(Ordering::SeqCst), 64);
        client.shutdown();
    }

    #[test]
    fn direct_client_shares_its_cache_across_workers() {
        let (corpus, w) = fixture();
        let client = DirectClient::start(
            Arc::clone(&corpus),
            DirectConfig {
                threads: 4,
                ..DirectConfig::default()
            },
        );
        client.search(&w.queries, MODEL);
        client.search(&w.queries, MODEL); // repeat pass: seekers hit
        let stats = client.shutdown();
        assert!(stats.cache.insertions > 0, "{stats:?}");
        assert!(stats.cache.hits > 0, "{stats:?}");
    }

    #[test]
    fn cacheless_direct_client_still_answers_exactly() {
        let (corpus, w) = fixture();
        let client = DirectClient::start(
            Arc::clone(&corpus),
            DirectConfig {
                threads: 2,
                cache_capacity: 0,
                ..DirectConfig::default()
            },
        );
        let mut reference = ExactOnline::new(&corpus, MODEL);
        let got = client.search(&w.queries, MODEL);
        for (q, b) in w.queries.iter().zip(&got) {
            assert_eq!(reference.query(q).items, b.items);
        }
        let stats = client.shutdown();
        assert_eq!(
            stats.cache,
            friends_core::cache::CacheStats::default(),
            "cache must be unused"
        );
    }

    #[test]
    fn run_batch_preserves_input_order_and_tags() {
        let (corpus, w) = fixture();
        let (direct, _served) = clients(&corpus);
        let requests: Vec<QueryRequest> = w
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                QueryRequest::from_query(q.clone())
                    .with_model(MODEL)
                    .with_tag(i as u64)
                    .without_deadline()
            })
            .collect();
        let replies = direct.run_batch(requests);
        assert_eq!(replies.len(), w.len());
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.tag, i as u64, "input order lost");
            assert!(r.outcome.result().is_some());
        }
        direct.shutdown();
    }
}
