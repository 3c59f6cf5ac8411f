//! The unified client API: one planner-backed query surface.
//!
//! Callers build a [`QueryRequest`] (seeker, tags, k, proximity model,
//! strategy hint, deadline, tag) and hand it to a [`SearchClient`] — in
//! this crate a [`ServedClient`], a planner-backed [`FriendsService`]:
//! seeker affinity, batched dispatch, duplicate coalescing, shard-private
//! caches, optional result memoization. Its [`ServiceConfig`] covers the
//! lighter postures too: `cache_bytes: 0` runs every σ through the
//! worker's scratch, and `max_batch: 1` takes one request per dispatch
//! cycle, so nothing coalesces.
//!
//! It returns non-blocking [`Ticket`]s; a [`crate::Multiplexer`] drives
//! many in-flight tickets from one loop. Behind the trait, the
//! [`friends_core::plan::Planner`] maps every request to a
//! [`ProcessorRegistry`] entry plus a scoring strategy — callers never
//! name a processor type, and every plan returns byte-identical rankings
//! (pinned by `tests/proptest_client.rs`).

use crate::broker::{FriendsService, ServiceConfig};
use crate::request::{Reply, Ticket};
use crate::stats::ServiceStats;
use friends_core::corpus::{Corpus, SearchResult};
use friends_core::latency::StageSnapshot;
use friends_core::metrics::MetricsRegistry;
use friends_core::plan::{ProcessorRegistry, QueryRequest};
use friends_core::proximity::ProximityModel;
use friends_core::trace::QueryTrace;
use friends_data::mutations::MutationBatch;
use friends_data::queries::Query;
use std::sync::Arc;

/// The one query surface of the system. Implementations differ in *where
/// and how* a request executes, never in its answer: for the same corpus
/// and request, every client returns byte-identical rankings.
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

/// [`SearchClient`] over the serving tier: a planner-backed
/// [`FriendsService`] (seeker affinity, batched dispatch, coalescing,
/// shard-private caches, optional result memoization) behind the
/// [`SearchClient`] request surface.
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
    pub fn apply_mutations(&self, batch: &MutationBatch) -> crate::MutationReport {
        self.service.apply_mutations(batch)
    }

    /// [`ServedClient::apply_mutations`] with the durability error
    /// surfaced instead of panicking — see
    /// [`FriendsService::try_apply_mutations`]. On a durable service,
    /// `Ok` means the batch is on the WAL (fsynced per its sync policy)
    /// before any shard acknowledged it. `_horizon` is ignored: the
    /// serving benchmark (`benchmark/`) still passes `None`, and the
    /// argument goes when it stops.
    pub fn try_apply_mutations(
        &self,
        batch: &MutationBatch,
        _horizon: Option<u32>,
    ) -> std::io::Result<crate::MutationReport> {
        self.service.try_apply_mutations(batch)
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
    use crate::{FaultKind, FaultPlan, Outcome};
    use friends_core::plan::GLOBAL_BOUND_TA;
    use friends_core::processors::{ExactOnline, GlobalBoundTA, Processor};
    use friends_data::datasets::{DatasetSpec, Scale};
    use friends_data::queries::{QueryParams, QueryWorkload};
    use std::time::Duration;

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

    /// The cache-less posture: no σ fits a zero byte budget, so every one
    /// goes through the worker's scratch, and one request per dispatch
    /// cycle, so nothing coalesces.
    fn cacheless(shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            cache_bytes: 0,
            max_batch: 1,
            ..ServiceConfig::default()
        }
    }

    /// A cache-less client and one in the serving posture.
    fn clients(corpus: &Arc<Corpus>) -> (ServedClient, ServedClient) {
        (
            ServedClient::start(Arc::clone(corpus), cacheless(3)),
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
        let (lean, served) = clients(&corpus);
        for (client, name) in [
            (&lean as &dyn SearchClient, "cache-less"),
            (&served as &dyn SearchClient, "served"),
        ] {
            let got = client.search(&w.queries, MODEL);
            assert_eq!(got.len(), want.len());
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a, &b.items, "{name} diverged");
            }
        }
        let ds = lean.shutdown().totals();
        assert_eq!(ds.submitted, w.len() as u64);
        assert_eq!(ds.executed, w.len() as u64);
        assert!(ds.plans.total() >= w.len() as u64);
        served.shutdown();
    }

    #[test]
    fn per_request_models_do_not_interfere() {
        let (corpus, w) = fixture();
        let (lean, served) = clients(&corpus);
        let models = [
            ProximityModel::Global,
            ProximityModel::FriendsOnly,
            MODEL,
            ProximityModel::AdamicAdar,
        ];
        // Interleave models within one in-flight burst on each client.
        for client in [&lean as &dyn SearchClient, &served as &dyn SearchClient] {
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
        lean.shutdown();
        served.shutdown();
    }

    #[test]
    fn processor_override_routes_to_the_named_entry() {
        let (corpus, w) = fixture();
        let (lean, served) = clients(&corpus);
        let mut reference = GlobalBoundTA::new(&corpus, ProximityModel::FriendsOnly);
        for q in w.queries.iter().take(6) {
            let want = reference.query(q).items;
            for client in [&lean as &dyn SearchClient, &served as &dyn SearchClient] {
                let reply = client.run(
                    QueryRequest::from_query(q.clone())
                        .with_model(ProximityModel::FriendsOnly)
                        .with_processor(GLOBAL_BOUND_TA)
                        .without_deadline(),
                );
                assert_eq!(reply.outcome.result().expect("done").items, want);
            }
        }
        let stats = lean.shutdown().totals();
        assert_eq!(stats.plans.processors[1], 6, "{:?}", stats.plans);
        served.shutdown();
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

    /// Both postures run the one worker loop, so after a drained shutdown
    /// the same identity holds for both — in the registry keys reporting
    /// reads — under an injected panic and an injected error alike. The
    /// memoizing client answers some requests from its result cache and
    /// coalesces others; the cache-less one does neither.
    #[test]
    fn counters_balance_on_the_one_loop_for_both_clients() {
        let (corpus, w) = fixture();
        for kind in [FaultKind::Panic, FaultKind::Error] {
            let fault = Some(FaultPlan { nth: 2, kind });
            let memoizing = ServiceConfig {
                shards: 2,
                result_cache_capacity: 256,
                fault,
                ..ServiceConfig::default()
            };
            let lean = ServiceConfig {
                fault,
                ..cacheless(2)
            };
            for (config, name) in [(memoizing, "memoizing"), (lean, "cache-less")] {
                let memoizes = config.result_cache_capacity > 0;
                let client = ServedClient::start(Arc::clone(&corpus), config);
                let replies = mixed_traffic(&client, &w);
                let registry = client.shutdown().registry();
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
                assert_balanced(&replies, counters, &format!("{name}, {kind:?}"));
                assert_eq!(
                    counters[2] > 0 && counters[3] > 0,
                    memoizes,
                    "{name}: {counters:?}"
                );
            }
        }
    }

    #[test]
    fn cacheless_served_client_still_answers_exactly() {
        let (corpus, w) = fixture();
        let client = ServedClient::start(Arc::clone(&corpus), cacheless(2));
        let mut reference = ExactOnline::new(&corpus, MODEL);
        let got = client.search(&w.queries, MODEL);
        for (q, b) in w.queries.iter().zip(&got) {
            assert_eq!(reference.query(q).items, b.items);
        }
        let cache = client.shutdown().totals().cache;
        assert_eq!((cache.insertions, cache.entries), (0, 0), "{cache:?}");
        assert_eq!(cache.rejections, cache.misses, "{cache:?}");
    }

    #[test]
    fn run_batch_preserves_input_order_and_tags() {
        let (corpus, w) = fixture();
        let (lean, _served) = clients(&corpus);
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
        let replies = lean.run_batch(requests);
        assert_eq!(replies.len(), w.len());
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.tag, i as u64, "input order lost");
            assert!(r.outcome.result().is_some());
        }
        lean.shutdown();
    }
}
