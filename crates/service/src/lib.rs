//! # friends-service
//!
//! The serving tier and the **unified client API** over it: one
//! planner-backed query surface ([`SearchClient`]) over one client
//! ([`ServedClient`]), non-blocking tickets, and a deadline-aware
//! completion multiplexer.
//!
//! ## The client API
//!
//! Callers build a [`QueryRequest`] — seeker, tags, k, proximity model,
//! strategy hint, deadline, correlation tag — and hand it to a
//! [`ServedClient`], which wraps a planner-backed [`FriendsService`]: seeker
//! affinity, batched dispatch, coalescing, shard-private caches, result
//! memoization. [`ServiceConfig`] also gives the lighter postures:
//! `cache_bytes: 0` admits no σ (every query materializes into its
//! worker's scratch) and `max_batch: 1` takes one request per dispatch
//! cycle (nothing coalesces).
//!
//! Behind it, a [`friends_core::plan::Planner`] maps
//! `(model, corpus stats, request)` to a
//! [`friends_core::plan::ProcessorRegistry`] entry plus a
//! [`friends_core::processors::ScoringStrategy`] — callers never name a
//! processor type, and every plan returns byte-identical rankings.
//! [`Ticket`]s are non-blocking (`poll` / `try_take`; `wait_deadline`
//! respects the request's deadline even mid-execution), and a
//! [`Multiplexer`] drives many in-flight tickets from one loop.
//!
//! ```
//! use friends_core::corpus::Corpus;
//! use friends_core::plan::QueryRequest;
//! use friends_core::proximity::ProximityModel;
//! use friends_data::datasets::{DatasetSpec, Scale};
//! use friends_service::{SearchClient, ServedClient, ServiceConfig};
//! use std::sync::Arc;
//!
//! let ds = DatasetSpec::delicious_like(Scale::Tiny).build(1);
//! let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
//! let client = ServedClient::start(Arc::clone(&corpus), ServiceConfig::default());
//! let reply = client.run(
//!     QueryRequest::new(3, vec![1, 2], 5)
//!         .with_model(ProximityModel::WeightedDecay { alpha: 0.5 }),
//! );
//! assert!(reply.outcome.result().expect("served").items.len() <= 5);
//! ```
//!
//! ## The broker underneath
//!
//! [`FriendsService`] is a thread-based query broker between clients and
//! the `friends-core` processors, the layer WAND-era IR engines put between
//! the index and the network:
//!
//! * **Seeker-affinity sharding** — `hash(seeker) % shards` routes every
//!   request of a seeker to the same worker, so their σ materializations
//!   and cache entries stay hot on one thread instead of being recomputed
//!   on whichever worker a chunk split happened to land them on.
//! * **Batched dispatch with request coalescing** — each worker drains its
//!   queue into a small batch and executes duplicate in-flight
//!   `(query, model, strategy)` requests **once**, fanning the result
//!   out to every waiter. Real streams repeat queries (see
//!   [`friends_data::requests`]); coalescing converts that repetition into
//!   throughput.
//! * **Cross-request result memoization** — an optional per-shard
//!   `(query, model, strategy) → ranking` cache on the proximity cache's
//!   engine ([`friends_core::cache::AdmissionLru`], TinyLFU admission
//!   included) serves repeats that arrive in *different* dispatch cycles,
//!   invalidated per seeker/tag by each mutation batch's sweep on the
//!   shard's own thread. `submit` probes it on the submitting
//!   thread: a hit comes back as an already-answered [`Ticket`], with no
//!   queue hop and no worker wake-up.
//! * **Admission-controlled private caches** — every shard owns a
//!   [`friends_core::cache::ProximityCache`] with TinyLFU-style
//!   admission (and optional TTL): uncontended for its owner, and scan
//!   traffic cannot evict the shard's hot seekers.
//! * **Deadline-aware execution** — requests carry a deadline (defaulted
//!   from [`ServiceConfig`]); a request that expires while queued is shed
//!   without execution, and [`Ticket::wait_deadline`] returns
//!   `DeadlineMissed` at the deadline even when the request is already
//!   executing, so an overloaded shard degrades by dropping stale work
//!   instead of serving it late.
//!
//! The broker is synchronous by design: the vendored `crossbeam` channels
//! provide MPMC queues without an async runtime, and one OS thread per
//! shard matches the one-processor-per-worker scratch model of
//! `friends-core`. Non-blocking tickets plus the [`Multiplexer`] provide
//! the async-client ergonomics on top.

#![forbid(unsafe_code)]

mod broker;
mod client;
mod multiplexer;
mod request;
mod result_cache;
mod stats;

pub use broker::{
    FaultKind, FaultPlan, FriendsService, MutationReport, OverloadPolicy, ServiceConfig,
};
pub use client::{SearchClient, ServedClient};
pub use multiplexer::Multiplexer;
pub use request::{Deadline, Outcome, Reply, Ticket};
pub use stats::{MutationTimes, ServiceStats, ShardStats};

// The client API's request/planning types, re-exported so service users
// need only this crate.
pub use friends_core::plan::{Plan, PlanHistogram, Planner, ProcessorRegistry, QueryRequest};
pub use friends_core::proximity::SigmaBounds;

// The live-graph write path: mutation batches (generated or hand-built)
// and the `LiveCorpus` whose one `commit` runs `apply_mutations` — with
// the durability behind `ServiceConfig::durability` (checksummed
// snapshots, mutation WAL, replay recovery).
pub use friends_core::live::{
    DurabilityConfig, LiveCorpus, PreparedMutation, RecoverError, RecoveryReport,
};
pub use friends_data::mutations::{Mutation, MutationBatch, MutationParams, MutationStream};
pub use friends_data::wal::{SyncPolicy, WalAppend, WalStats};

// The observability surface: traces (EXPLAIN, slow-query log) and the
// unified metrics registry behind `SearchClient::metrics()`.
pub use friends_core::metrics::{Metric, MetricKind, MetricsRegistry};
pub use friends_core::trace::{QueryTrace, TraceConfig, TraceEvent, TraceOutcome, TraceSpan};
