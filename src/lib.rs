//! # friends
//!
//! *With a little help from my friends* — network-aware social search.
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`graph`] — social-graph substrate (CSR storage, generators,
//!   traversals, PPR, landmarks, communities);
//! * [`index`] — IR substrate (compressed postings, inverted index,
//!   block-max WAND);
//! * [`data`] — tagging store, synthetic datasets, query workloads and
//!   timed request streams;
//! * [`core`] — the network-aware query processors, proximity models, and
//!   the planner/registry behind the client API;
//! * [`service`] — the serving tier and the unified client API:
//!   [`SearchClient`](prelude::SearchClient) over
//!   [`DirectClient`](prelude::DirectClient) (in-process pool) and
//!   [`ServedClient`](prelude::ServedClient) (sharded broker), non-blocking
//!   tickets, and the deadline-aware [`Multiplexer`](prelude::Multiplexer).
//!
//! ## Quickstart
//!
//! One request type, one client trait; the planner picks the processor and
//! scoring strategy per request, so application code never names either:
//!
//! ```
//! use friends::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. Materialize a synthetic Delicious-like dataset.
//! let ds = DatasetSpec::delicious_like(Scale::Tiny).build(42);
//! let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
//!
//! // 2. Start an in-process client (worker pool + shared proximity cache).
//! let client = DirectClient::start(Arc::clone(&corpus), DirectConfig::default());
//!
//! // 3. Ask a personalized question.
//! let reply = client.run(
//!     QueryRequest::new(7, vec![3, 5], 10)
//!         .with_model(ProximityModel::WeightedDecay { alpha: 0.5 }),
//! );
//! let result = reply.outcome.result().expect("served in time");
//! assert!(result.items.len() <= 10);
//!
//! // 4. Or drive many in-flight requests through one completion loop.
//! let mut mux = Multiplexer::new();
//! for (i, seeker) in [7u32, 11, 13].into_iter().enumerate() {
//!     mux.push(client.submit(
//!         QueryRequest::new(seeker, vec![3], 5)
//!             .with_model(ProximityModel::FriendsOnly)
//!             .with_tag(i as u64),
//!     ));
//! }
//! while let Some((tag, reply)) = mux.next() {
//!     assert!(tag < 3 && reply.outcome.result().is_some());
//! }
//! ```
//!
//! The same requests serve unchanged — byte-identical rankings — through a
//! [`ServedClient`](prelude::ServedClient) over the sharded
//! seeker-affinity broker; see `crates/README.md` for the request
//! lifecycle.
//!
//! Live writes take one path, [`LiveCorpus::commit`](prelude::LiveCorpus::commit):
//! prepare the next epoch, append it to the WAL when the corpus was opened
//! durable, run the caller's cache sweep, publish.
//! [`ServedClient::apply_mutations`](prelude::ServedClient::apply_mutations)
//! is that call with the shard broadcast as its sweep.

#![forbid(unsafe_code)]

pub use friends_core as core;
pub use friends_data as data;
pub use friends_graph as graph;
pub use friends_index as index;
pub use friends_service as service;

/// One-stop imports for applications.
pub mod prelude {
    pub use friends_core::cache::{CachePolicy, CacheStats, ProximityCache};
    pub use friends_core::corpus::{Corpus, QueryStats, SearchResult};
    pub use friends_core::eval::{
        kendall_tau, ndcg_at_k, precision_at_k, topk_sets_equal_up_to_ties,
    };
    pub use friends_core::latency::{LatencySnapshot, Stage, StageSnapshot};
    pub use friends_core::plan::{
        Deadline, Plan, PlanHistogram, Planner, ProcessorRegistry, QueryRequest,
    };
    pub use friends_core::processors::{
        ClusterConfig, ClusterIndex, ExactOnline, ExpansionConfig, FriendExpansion, GlobalBoundTA,
        GlobalProcessor, Hybrid, HybridConfig, Processor, ScoringStrategy,
    };
    pub use friends_core::proximity::ProximityModel;
    pub use friends_core::proximity::{ProximityVec, Sigma, SigmaBounds, SigmaWorkspace};
    pub use friends_data::datasets::{Dataset, DatasetSpec, Family, Scale};
    pub use friends_data::queries::{Query, QueryParams, QueryWorkload};
    pub use friends_data::requests::{
        OpenLoopParams, OpenLoopRequest, OpenLoopStream, RequestParams, RequestStream, TimedRequest,
    };
    pub use friends_data::store::TagStore;
    pub use friends_data::{ItemId, TagId, Tagging, UserId};
    pub use friends_graph::{CsrGraph, GraphBuilder, NodeId};
    pub use friends_index::inverted::{IndexConfig, InvertedIndex};
    pub use friends_service::{
        DirectClient, DirectConfig, DurabilityConfig, FaultKind, FaultPlan, FriendsService,
        LiveCorpus, Metric, MetricKind, MetricsRegistry, Multiplexer, Mutation, MutationBatch,
        MutationParams, MutationReport, MutationStream, MutationTimes, Outcome, OverloadPolicy,
        QueryTrace, RecoverError, RecoveryReport, Reply, SearchClient, ServedClient, ServiceConfig,
        ServiceStats, ShardStats, SyncPolicy, Ticket, TraceConfig, TraceEvent, TraceOutcome,
        TraceSpan, WalAppend, WalStats,
    };
}
