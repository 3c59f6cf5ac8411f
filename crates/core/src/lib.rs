//! # friends-core
//!
//! The primary contribution of the reproduction: **network-aware top-k query
//! processing** over socially tagged content — answering queries *with a
//! little help from your friends*.
//!
//! ## Scoring model
//!
//! For a seeker `u`, tag bag `Q` and item `i`:
//!
//! ```text
//! score(i | u, Q) = Σ_{t ∈ Q}  Σ_{v ∈ Users}  σ(u, v) · w(v, i, t)
//! ```
//!
//! where `w(v, i, t)` is the weight of `v`'s annotation of item `i` with tag
//! `t` (0 when absent) and `σ(u, v)` is the **social proximity** of `v` to
//! the seeker (see [`proximity::ProximityModel`]). Global, non-personalized
//! search is the special case `σ ≡ 1`.
//!
//! ## Processors
//!
//! | Processor | Strategy | Guarantee |
//! |-----------|----------|-----------|
//! | [`processors::GlobalProcessor`] | WAND over a global inverted index | exact for `σ ≡ 1` (ignores the seeker) |
//! | [`processors::ExactOnline`] | materialize `σ(u, ·)`, scan tag postings | exact, any model |
//! | [`processors::FriendExpansion`] | best-first network expansion with score upper bounds | exact top-k *set*, early termination |
//! | [`processors::ClusterIndex`] | materialized cluster sketch + landmark proximity bounds | approximate, no graph traversal at query time |
//! | [`processors::Hybrid`] | per-query dispatch between the above | inherits choice |
//!
//! ```
//! use friends_core::corpus::Corpus;
//! use friends_core::processors::{ExactOnline, Processor};
//! use friends_core::proximity::ProximityModel;
//! use friends_data::datasets::{DatasetSpec, Scale};
//! use friends_data::queries::Query;
//!
//! let ds = DatasetSpec::delicious_like(Scale::Tiny).build(1);
//! let corpus = Corpus::new(ds.graph, ds.store);
//! let mut exact = ExactOnline::new(&corpus, ProximityModel::WeightedDecay { alpha: 0.5 });
//! let result = exact.query(&Query { seeker: 0, tags: vec![1, 2], k: 5 });
//! assert!(result.items.len() <= 5);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod corpus;
pub mod eval;
pub mod latency;
pub mod live;
pub mod metrics;
pub mod plan;
pub mod processors;
pub mod proximity;
pub mod trace;

pub use cache::{CachePolicy, CacheStats, ProximityCache};
pub use corpus::{Corpus, QueryStats, SearchResult};
pub use latency::{LatencyRecorder, LatencySnapshot, Stage, StageLatencies, StageSnapshot};
pub use live::{
    register_wal_stats, DurabilityConfig, LiveCorpus, PreparedMutation, RecoverError,
    RecoveryReport,
};
pub use metrics::{Metric, MetricKind, MetricsRegistry};
pub use plan::{
    Deadline, Plan, PlanCounters, PlanHistogram, PlannedExecutor, Planner, ProcessorRegistry,
    QueryRequest,
};
pub use processors::Processor;
pub use proximity::{ProximityVec, Sigma, SigmaWorkspace};
pub use trace::{
    QueryTrace, TraceCollector, TraceConfig, TraceEvent, TraceOutcome, TraceRecord, TraceRing,
    TraceSpan,
};
