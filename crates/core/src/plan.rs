//! The query planner behind the unified client API: request types, the
//! processor registry, and the planned executor that turns a
//! [`QueryRequest`] into one processor invocation.
//!
//! The paper's system exposes *one* query interface; which operator answers
//! a query is the engine's decision, not the caller's. This module is that
//! decision point:
//!
//! * [`QueryRequest`] — the one request type every client speaks: query +
//!   proximity model + optional strategy hint, deadline, processor override
//!   and caller correlation tag.
//! * [`ProcessorRegistry`] — named processor constructors. Callers never
//!   name a processor *type*; deployments can register their own entries.
//! * [`Planner`] — maps `(model, corpus stats, request)` to a registry
//!   entry plus a [`ScoringStrategy`]. Every strategy of every registered
//!   processor returns byte-identical rankings (pinned by the differential
//!   property suites), so planning is purely a cost decision and can never
//!   change an answer.
//! * [`PlannedExecutor`] — what a worker thread owns: lazily-built
//!   processor instances per `(registry entry, model)`, a shared proximity
//!   cache, and shared [`PlanCounters`] recording every choice the planner
//!   makes (surfaced as a histogram in service stats and `report --json`).

use crate::cache::ProximityCache;
use crate::corpus::{Corpus, SearchResult};
use crate::processors::{
    ExactOnline, GlobalBoundTA, Processor, ScoringStrategy, BLOCKMAX_MIN_POSTINGS,
};
use crate::proximity::{ProximityModel, SigmaBounds};
use friends_data::queries::Query;
use friends_data::{TagId, UserId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When a request must be served by. A request still queued past its
/// deadline is shed without execution; [`resolve`](Deadline::resolve) turns
/// the declarative form into a concrete expiry instant at submission time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Deadline {
    /// Use the serving layer's configured default budget.
    #[default]
    Default,
    /// No deadline — never shed. What batch clients use: a flood's tail
    /// legitimately waits behind the whole batch.
    Unbounded,
    /// Explicit budget, measured from submission.
    Budget(Duration),
}

impl Deadline {
    /// The expiry instant for a request submitted at `now` under a layer
    /// whose default budget is `default` (`None` disables shedding).
    pub fn resolve(self, now: Instant, default: Option<Duration>) -> Option<Instant> {
        match self {
            Deadline::Default => default.map(|b| now + b),
            Deadline::Unbounded => None,
            Deadline::Budget(b) => Some(now + b),
        }
    }
}

/// The one request type of the unified client API: what to search for, under
/// which proximity model, and how to serve it. Build with
/// [`QueryRequest::new`] and the `with_*` setters; every field has a
/// serving-safe default.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The query proper: seeker, tag bag, k.
    pub query: Query,
    /// Proximity model scoring this request. Defaults to
    /// [`ProximityModel::Global`] (non-personalized) — personalization is
    /// opt-in per request, not a property of the client.
    pub model: ProximityModel,
    /// Scoring-strategy hint. `Auto` (the default) lets the planner and the
    /// processor choose; any forced value is honored and still returns
    /// byte-identical rankings (the hint is purely a cost decision).
    pub strategy: ScoringStrategy,
    /// See [`Deadline`]; defaults to the client's configured budget.
    pub deadline: Deadline,
    /// Expert override: force a [`ProcessorRegistry`] entry by name instead
    /// of letting the planner choose. Unknown names fall back to the
    /// planner's choice.
    pub processor: Option<&'static str>,
    /// Approximation bounds on σ materialization. The default,
    /// [`SigmaBounds::EXACT`], is lossless; tighter bounds trade exactness
    /// for speed, and the result carries the score-space error certificate
    /// in [`SearchResult::residual`]. Under overload the serving tier may
    /// tighten these further (never loosen — see [`SigmaBounds::tighten`]).
    pub bounds: SigmaBounds,
    /// Caller correlation tag, echoed verbatim in the reply — what a
    /// multiplexed client uses to match completions to submissions.
    pub tag: u64,
    /// Force-sample this request's trace: the reply carries a full
    /// [`crate::trace::QueryTrace`] and the trace is retained in the
    /// serving tier's slow-query log regardless of latency or head
    /// sampling. Off by default (traced requests pay trace construction
    /// on the reply path).
    pub trace: bool,
}

impl QueryRequest {
    /// A request for the top `k` items under `tags` as seen by `seeker`,
    /// with every serving knob at its default.
    pub fn new(seeker: UserId, tags: Vec<TagId>, k: usize) -> Self {
        Self::from_query(Query { seeker, tags, k })
    }

    /// Wraps an existing [`Query`] with default serving knobs.
    pub fn from_query(query: Query) -> Self {
        QueryRequest {
            query,
            model: ProximityModel::Global,
            strategy: ScoringStrategy::default(),
            deadline: Deadline::Default,
            processor: None,
            bounds: SigmaBounds::EXACT,
            tag: 0,
            trace: false,
        }
    }

    /// Sets the proximity model.
    pub fn with_model(mut self, model: ProximityModel) -> Self {
        self.model = model;
        self
    }

    /// Sets the scoring-strategy hint.
    pub fn with_strategy(mut self, strategy: ScoringStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets an explicit deadline budget (overriding the client default).
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Deadline::Budget(budget);
        self
    }

    /// Opts out of deadlines entirely: the request is never shed.
    pub fn without_deadline(mut self) -> Self {
        self.deadline = Deadline::Unbounded;
        self
    }

    /// Forces a registry entry by name (see [`QueryRequest::processor`]).
    pub fn with_processor(mut self, name: &'static str) -> Self {
        self.processor = Some(name);
        self
    }

    /// Sets approximation bounds (see [`QueryRequest::bounds`]).
    pub fn with_bounds(mut self, bounds: SigmaBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Sets the caller correlation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Force-samples this request's trace (see [`QueryRequest::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// Registry name of the [`ExactOnline`] entry (index 0 of the standard
/// registry, and the planner's default choice).
pub const EXACT_ONLINE: &str = "exact-online";
/// Registry name of the [`GlobalBoundTA`] entry.
pub const GLOBAL_BOUND_TA: &str = "global-bound-ta";

/// A processor constructor: corpus + model + optional shared proximity
/// cache (`None` materializes every σ into the processor's scratch).
pub type ProcessorBuilder = dyn for<'c> Fn(&'c Corpus, ProximityModel, Option<Arc<ProximityCache>>) -> Box<dyn Processor + 'c>
    + Send
    + Sync;

/// Named processor constructors. Entry 0 is the planner's default;
/// [`ProcessorRegistry::standard`] puts [`ExactOnline`] there (it is the
/// exact reference implementation, and its adaptive strategies cover the
/// scan / support-probe / block-max trade-off).
pub struct ProcessorRegistry {
    entries: Vec<(&'static str, Box<ProcessorBuilder>)>,
}

impl ProcessorRegistry {
    /// An empty registry. The planner requires at least one entry; prefer
    /// [`ProcessorRegistry::standard`] and [`ProcessorRegistry::register`]
    /// on top of it.
    pub fn new() -> Self {
        ProcessorRegistry {
            entries: Vec::new(),
        }
    }

    /// The standard registry: `exact-online` (default) and
    /// `global-bound-ta`, both wired to the shared proximity cache when one
    /// is provided.
    pub fn standard() -> Self {
        let mut r = ProcessorRegistry::new();
        r.register(EXACT_ONLINE, |corpus, model, cache| match cache {
            Some(cache) => Box::new(ExactOnline::with_cache(corpus, model, cache)),
            None => Box::new(ExactOnline::new(corpus, model)),
        });
        r.register(GLOBAL_BOUND_TA, |corpus, model, cache| match cache {
            Some(cache) => Box::new(GlobalBoundTA::with_cache(corpus, model, cache)),
            None => Box::new(GlobalBoundTA::new(corpus, model)),
        });
        r
    }

    /// Adds (or replaces) a named entry.
    pub fn register<F>(&mut self, name: &'static str, build: F)
    where
        F: for<'c> Fn(
                &'c Corpus,
                ProximityModel,
                Option<Arc<ProximityCache>>,
            ) -> Box<dyn Processor + 'c>
            + Send
            + Sync
            + 'static,
    {
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            e.1 = Box::new(build);
        } else {
            self.entries.push((name, Box::new(build)));
        }
    }

    /// The index of `name`, if registered.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|(n, _)| *n == name)
    }

    /// The name of entry `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn name_of(&self, index: usize) -> &'static str {
        self.entries[index].0
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds entry `index` over `corpus`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn build<'c>(
        &self,
        index: usize,
        corpus: &'c Corpus,
        model: ProximityModel,
        cache: Option<Arc<ProximityCache>>,
    ) -> Box<dyn Processor + 'c> {
        (self.entries[index].1)(corpus, model, cache)
    }
}

impl Default for ProcessorRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

/// One planning decision: which registry entry executes the request, under
/// which scoring strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Index into the registry.
    pub processor: usize,
    /// The entry's name (for reports and histograms).
    pub processor_name: &'static str,
    /// The strategy handed to [`Processor::set_strategy`]. `Auto` means
    /// "defer to the processor's own per-query adaptive gate" — chosen when
    /// the planner lacks the information (e.g. the materialized support
    /// size) to beat it.
    pub strategy: ScoringStrategy,
}

/// Maps `(model, corpus stats, request)` to a [`Plan`]. Stateless and
/// deterministic: the same inputs always produce the same plan, which is
/// what lets the property suites pin client execution byte-identical to a
/// directly-constructed processor running the same plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct Planner;

impl Planner {
    /// The σ bounds the planner associates with a degradation level — the
    /// shared vocabulary an overload controller steps through. Level 0 is
    /// exact; each higher level tightens both the traversal radius and the
    /// mass floor (levels ≥ 2 saturate at the tightest step). Requests keep
    /// their own [`QueryRequest::bounds`]; a level only ever *tightens* them
    /// (via [`SigmaBounds::tighten`]), never loosens.
    pub fn degraded_bounds(level: u8) -> SigmaBounds {
        match level {
            0 => SigmaBounds::EXACT,
            1 => SigmaBounds {
                max_radius: 3,
                min_mass: 1e-4,
            },
            _ => SigmaBounds {
                max_radius: 2,
                min_mass: 1e-3,
            },
        }
    }

    /// Plans one request. The processor override (if it names a registered
    /// entry) wins; otherwise entry 0 is chosen. Non-exact `bounds` win
    /// next: strategy hints are pure cost decisions only under exact σ,
    /// but a bounded σ silences postings that only the posting-enumerating
    /// routes can fold into the error certificate, so the planner pins the
    /// built-in entries to their certificate-capable route. Then a
    /// non-`Auto` strategy hint wins; otherwise the planner commits to a
    /// concrete strategy only where corpus stats decide it outright:
    ///
    /// * `FriendsOnly` whose support (`degree + 1`, known exactly without
    ///   materializing) reads less than the posting volume → `SupportProbe`;
    /// * `DistanceDecay` (tight envelope bounds — the pruning-capable
    ///   regime) over more than `BLOCKMAX_MIN_POSTINGS` (512) postings →
    ///   `BlockMax`;
    /// * `Global` (no support, nothing to prune) → `PostingScan`;
    /// * everything else → `Auto`, deferring to the processor's gate, which
    ///   sees the *actual* materialized support size.
    #[allow(clippy::too_many_arguments)] // the full per-request decision surface, by design
    pub fn plan(
        &self,
        corpus: &Corpus,
        registry: &ProcessorRegistry,
        query: &Query,
        model: ProximityModel,
        hint: ScoringStrategy,
        processor: Option<&str>,
        bounds: SigmaBounds,
    ) -> Plan {
        assert!(!registry.is_empty(), "planner needs a non-empty registry");
        let index = processor
            .and_then(|name| registry.index_of(name))
            .unwrap_or(0);
        let plan = |strategy| Plan {
            processor: index,
            processor_name: registry.name_of(index),
            strategy,
        };
        if !bounds.is_exact() {
            // Degraded execution: route to the strategy that enumerates
            // silenced postings, so the residual certificate is computable.
            return match registry.name_of(index) {
                EXACT_ONLINE => plan(ScoringStrategy::PostingScan),
                GLOBAL_BOUND_TA => plan(ScoringStrategy::GlobalTa),
                _ => plan(ScoringStrategy::Auto),
            };
        }
        if hint != ScoringStrategy::Auto {
            return plan(hint);
        }
        if registry.name_of(index) != EXACT_ONLINE {
            // Foreign entries keep their own adaptive gate.
            return plan(ScoringStrategy::Auto);
        }
        let store = &corpus.store;
        let posting_total: usize = query
            .tags
            .iter()
            .filter(|&&t| t < store.num_tags())
            .map(|&t| store.tag_taggings(t).len())
            .sum();
        match model {
            ProximityModel::FriendsOnly => {
                let support = corpus.graph.degree(query.seeker) + 1;
                if support.saturating_mul(query.tags.len()) <= posting_total {
                    plan(ScoringStrategy::SupportProbe)
                } else {
                    plan(ScoringStrategy::PostingScan)
                }
            }
            ProximityModel::DistanceDecay { .. } if posting_total > BLOCKMAX_MIN_POSTINGS => {
                plan(ScoringStrategy::BlockMax)
            }
            ProximityModel::DistanceDecay { .. } | ProximityModel::Global => {
                plan(ScoringStrategy::PostingScan)
            }
            // Sparse models whose support size is only known after
            // materialization (PPR, AdamicAdar) and dense WeightedDecay:
            // the processor's gate decides with full information.
            _ => plan(ScoringStrategy::Auto),
        }
    }
}

/// Display labels of the strategy histogram, indexed like
/// [`PlanHistogram::strategies`].
pub const STRATEGY_LABELS: [&str; 5] = [
    "auto",
    "posting-scan",
    "support-probe",
    "block-max",
    "global-ta",
];

/// Histogram slot of a strategy.
pub fn strategy_index(s: ScoringStrategy) -> usize {
    match s {
        ScoringStrategy::Auto => 0,
        ScoringStrategy::PostingScan => 1,
        ScoringStrategy::SupportProbe => 2,
        ScoringStrategy::BlockMax => 3,
        ScoringStrategy::GlobalTa => 4,
    }
}

/// Registry entries individually tracked by the plan histogram; choices of
/// later entries all land in the last slot.
pub const TRACKED_PROCESSORS: usize = 4;

/// Shared live counters of planner decisions (relaxed atomics — monitoring,
/// not coordination). One instance is shared between a worker's
/// [`PlannedExecutor`] and whoever snapshots stats.
#[derive(Debug, Default)]
pub struct PlanCounters {
    strategies: [AtomicU64; 5],
    processors: [AtomicU64; TRACKED_PROCESSORS],
}

impl PlanCounters {
    /// Records one planning decision.
    pub fn record(&self, plan: &Plan) {
        self.strategies[strategy_index(plan.strategy)].fetch_add(1, Ordering::Relaxed);
        self.processors[plan.processor.min(TRACKED_PROCESSORS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> PlanHistogram {
        let mut h = PlanHistogram::default();
        for (i, c) in self.strategies.iter().enumerate() {
            h.strategies[i] = c.load(Ordering::Relaxed);
        }
        for (i, c) in self.processors.iter().enumerate() {
            h.processors[i] = c.load(Ordering::Relaxed);
        }
        h
    }
}

/// A snapshot of planner decisions: how often each strategy was chosen and
/// how often each registry entry executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanHistogram {
    /// Indexed by [`strategy_index`] / labeled by [`STRATEGY_LABELS`].
    pub strategies: [u64; 5],
    /// Indexed by registry position (entries past
    /// [`TRACKED_PROCESSORS`]` - 1` share the last slot).
    pub processors: [u64; TRACKED_PROCESSORS],
}

impl PlanHistogram {
    /// Total planning decisions recorded.
    pub fn total(&self) -> u64 {
        self.strategies.iter().sum()
    }

    /// Decisions that chose `s`.
    pub fn strategy_count(&self, s: ScoringStrategy) -> u64 {
        self.strategies[strategy_index(s)]
    }

    /// Folds another histogram into this one (for aggregating shards).
    pub fn merge(&mut self, other: &PlanHistogram) {
        for (a, b) in self.strategies.iter_mut().zip(&other.strategies) {
            *a += b;
        }
        for (a, b) in self.processors.iter_mut().zip(&other.processors) {
            *a += b;
        }
    }

    /// Registers the decision counts as labeled counters:
    /// `friends_plan_strategy_total{strategy=...}` and
    /// `friends_plan_processor_total{slot=...}`.
    pub fn register_into(&self, registry: &mut crate::metrics::MetricsRegistry) {
        for (label, &count) in STRATEGY_LABELS.iter().zip(&self.strategies) {
            registry.counter_with(
                "friends_plan_strategy_total",
                "planner strategy decisions",
                &[("strategy", label)],
                count,
            );
        }
        for (i, &count) in self.processors.iter().enumerate() {
            let slot = if i + 1 == TRACKED_PROCESSORS {
                format!("{i}+")
            } else {
                i.to_string()
            };
            registry.counter_with(
                "friends_plan_processor_total",
                "registry entries executed (by slot)",
                &[("slot", &slot)],
                count,
            );
        }
    }
}

/// What a worker thread owns to execute planned requests: the registry,
/// the planner, lazily-built processor instances per
/// `(registry entry, model)`, an optional shared proximity cache, and the
/// shared decision counters.
///
/// Instances are keyed by the model's exact parameter bits, so e.g.
/// `DistanceDecay { alpha: 0.3 }` and `{ alpha: 0.5 }` never share scratch.
/// Processor scratch is reused across every request that maps to the same
/// instance — the zero-allocation contract survives the indirection.
pub struct PlannedExecutor<'c> {
    corpus: &'c Corpus,
    cache: Option<Arc<ProximityCache>>,
    registry: Arc<ProcessorRegistry>,
    planner: Planner,
    counters: Arc<PlanCounters>,
    instances: HashMap<InstanceKey, Box<dyn Processor + 'c>>,
}

/// `(registry entry, model parameter bits)` — the identity of one live
/// processor instance.
type InstanceKey = (usize, (u8, u64, u64));

impl<'c> PlannedExecutor<'c> {
    /// Creates an executor over `corpus`.
    pub fn new(
        corpus: &'c Corpus,
        cache: Option<Arc<ProximityCache>>,
        registry: Arc<ProcessorRegistry>,
        planner: Planner,
        counters: Arc<PlanCounters>,
    ) -> Self {
        PlannedExecutor {
            corpus,
            cache,
            registry,
            planner,
            counters,
            instances: HashMap::new(),
        }
    }

    /// The plan this executor would run for the given request inputs —
    /// exposed so tests (and curious callers) can reproduce the exact
    /// processor + strategy a client will use.
    pub fn plan(
        &self,
        query: &Query,
        model: ProximityModel,
        hint: ScoringStrategy,
        processor: Option<&str>,
        bounds: SigmaBounds,
    ) -> Plan {
        self.planner.plan(
            self.corpus,
            &self.registry,
            query,
            model,
            hint,
            processor,
            bounds,
        )
    }

    /// Plans and executes one request.
    pub fn execute(
        &mut self,
        query: &Query,
        model: ProximityModel,
        hint: ScoringStrategy,
        processor: Option<&str>,
        bounds: SigmaBounds,
    ) -> SearchResult {
        let plan = self.plan(query, model, hint, processor, bounds);
        self.counters.record(&plan);
        let (corpus, registry, cache) = (self.corpus, &self.registry, &self.cache);
        let instance = self
            .instances
            .entry((plan.processor, model.key_bits()))
            .or_insert_with(|| registry.build(plan.processor, corpus, model, cache.clone()));
        instance.set_bounds(bounds);
        instance.set_strategy(plan.strategy);
        instance.query(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use friends_data::datasets::{DatasetSpec, Scale};

    fn corpus() -> Corpus {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(3);
        Corpus::new(ds.graph, ds.store)
    }

    #[test]
    fn request_builder_defaults_and_setters() {
        let r = QueryRequest::new(7, vec![1, 2], 10);
        assert_eq!(r.query.seeker, 7);
        assert_eq!(r.model, ProximityModel::Global);
        assert_eq!(r.strategy, ScoringStrategy::Auto);
        assert_eq!(r.deadline, Deadline::Default);
        assert_eq!((r.processor, r.tag), (None, 0));
        assert!(r.bounds.is_exact());
        let r = r
            .with_model(ProximityModel::AdamicAdar)
            .with_strategy(ScoringStrategy::BlockMax)
            .with_deadline(Duration::from_millis(5))
            .with_processor(GLOBAL_BOUND_TA)
            .with_bounds(SigmaBounds::with_radius(2))
            .with_tag(99);
        assert_eq!(r.model, ProximityModel::AdamicAdar);
        assert_eq!(r.strategy, ScoringStrategy::BlockMax);
        assert_eq!(r.deadline, Deadline::Budget(Duration::from_millis(5)));
        assert_eq!((r.processor, r.tag), (Some(GLOBAL_BOUND_TA), 99));
        assert_eq!(r.bounds, SigmaBounds::with_radius(2));
    }

    #[test]
    fn deadline_resolution() {
        let now = Instant::now();
        let default = Some(Duration::from_secs(2));
        assert_eq!(
            Deadline::Default.resolve(now, default),
            Some(now + Duration::from_secs(2))
        );
        assert_eq!(Deadline::Default.resolve(now, None), None);
        assert_eq!(Deadline::Unbounded.resolve(now, default), None);
        assert_eq!(
            Deadline::Budget(Duration::from_millis(3)).resolve(now, default),
            Some(now + Duration::from_millis(3))
        );
    }

    #[test]
    fn registry_lookup_and_build() {
        let c = corpus();
        let r = ProcessorRegistry::standard();
        assert_eq!(r.len(), 2);
        assert_eq!(r.index_of(EXACT_ONLINE), Some(0));
        assert_eq!(r.index_of(GLOBAL_BOUND_TA), Some(1));
        assert_eq!(r.index_of("nope"), None);
        let mut p = r.build(0, &c, ProximityModel::Global, None);
        assert_eq!(p.name(), "exact-online");
        let res = p.query(&Query {
            seeker: 0,
            tags: vec![0],
            k: 3,
        });
        assert!(res.items.len() <= 3);
    }

    #[test]
    fn registry_register_replaces_by_name() {
        let mut r = ProcessorRegistry::standard();
        r.register(EXACT_ONLINE, |c, m, _| Box::new(ExactOnline::new(c, m)));
        assert_eq!(r.len(), 2, "re-registering must not duplicate");
        r.register("custom", |c, m, _| Box::new(ExactOnline::new(c, m)));
        assert_eq!(r.index_of("custom"), Some(2));
    }

    #[test]
    fn planner_honors_hints_and_overrides() {
        let c = corpus();
        let r = ProcessorRegistry::standard();
        let planner = Planner;
        let q = Query {
            seeker: 1,
            tags: vec![0, 1],
            k: 5,
        };
        let p = planner.plan(
            &c,
            &r,
            &q,
            ProximityModel::WeightedDecay { alpha: 0.5 },
            ScoringStrategy::BlockMax,
            None,
            SigmaBounds::EXACT,
        );
        assert_eq!(p.strategy, ScoringStrategy::BlockMax);
        assert_eq!(p.processor_name, EXACT_ONLINE);
        let p = planner.plan(
            &c,
            &r,
            &q,
            ProximityModel::FriendsOnly,
            ScoringStrategy::Auto,
            Some(GLOBAL_BOUND_TA),
            SigmaBounds::EXACT,
        );
        assert_eq!(p.processor_name, GLOBAL_BOUND_TA);
        assert_eq!(p.strategy, ScoringStrategy::Auto);
        // Unknown override falls back to the default entry.
        let p = planner.plan(
            &c,
            &r,
            &q,
            ProximityModel::Global,
            ScoringStrategy::Auto,
            Some("no-such-processor"),
            SigmaBounds::EXACT,
        );
        assert_eq!(p.processor_name, EXACT_ONLINE);
        assert_eq!(p.strategy, ScoringStrategy::PostingScan);
    }

    #[test]
    fn planner_pins_certificate_routes_under_bounds() {
        let c = corpus();
        let r = ProcessorRegistry::standard();
        let planner = Planner;
        let q = Query {
            seeker: 1,
            tags: vec![0, 1],
            k: 5,
        };
        let degraded = Planner::degraded_bounds(1);
        assert!(!degraded.is_exact());
        // Bounds win over hints: the hinted BlockMax cannot account for
        // silenced postings, so the exact-online entry pins PostingScan.
        let p = planner.plan(
            &c,
            &r,
            &q,
            ProximityModel::DistanceDecay { alpha: 0.5 },
            ScoringStrategy::BlockMax,
            None,
            degraded,
        );
        assert_eq!(p.strategy, ScoringStrategy::PostingScan);
        let p = planner.plan(
            &c,
            &r,
            &q,
            ProximityModel::DistanceDecay { alpha: 0.5 },
            ScoringStrategy::Auto,
            Some(GLOBAL_BOUND_TA),
            degraded,
        );
        assert_eq!(p.strategy, ScoringStrategy::GlobalTa);
        // Levels only tighten.
        let l1 = Planner::degraded_bounds(1);
        let l2 = Planner::degraded_bounds(2);
        assert_eq!(l1.tighten(l2), l2);
        assert_eq!(Planner::degraded_bounds(0), SigmaBounds::EXACT);
        assert_eq!(Planner::degraded_bounds(7), l2, "levels saturate");
    }

    #[test]
    fn planner_strategy_choices_match_documented_rules() {
        let c = corpus();
        let r = ProcessorRegistry::standard();
        let planner = Planner;
        // A heavy query (every tag) and a seeker with a small neighborhood.
        let all_tags: Vec<u32> = (0..c.store.num_tags()).collect();
        let heavy = Query {
            seeker: 0,
            tags: all_tags,
            k: 5,
        };
        let probe = |model, q: &Query| {
            planner
                .plan(
                    &c,
                    &r,
                    q,
                    model,
                    ScoringStrategy::Auto,
                    None,
                    SigmaBounds::EXACT,
                )
                .strategy
        };
        assert_eq!(
            probe(ProximityModel::FriendsOnly, &heavy),
            ScoringStrategy::SupportProbe
        );
        assert_eq!(
            probe(ProximityModel::DistanceDecay { alpha: 0.5 }, &heavy),
            ScoringStrategy::BlockMax
        );
        assert_eq!(
            probe(ProximityModel::Global, &heavy),
            ScoringStrategy::PostingScan
        );
        assert_eq!(
            probe(ProximityModel::WeightedDecay { alpha: 0.5 }, &heavy),
            ScoringStrategy::Auto
        );
        // A tiny query stays off block-max.
        let light = Query {
            seeker: 0,
            tags: vec![],
            k: 5,
        };
        assert_eq!(
            probe(ProximityModel::DistanceDecay { alpha: 0.5 }, &light),
            ScoringStrategy::PostingScan
        );
    }

    #[test]
    fn executor_matches_direct_processor_byte_for_byte() {
        let c = corpus();
        let counters = Arc::new(PlanCounters::default());
        let mut ex = PlannedExecutor::new(
            &c,
            None,
            Arc::new(ProcessorRegistry::standard()),
            Planner,
            Arc::clone(&counters),
        );
        let q = Query {
            seeker: 4,
            tags: vec![0, 2],
            k: 8,
        };
        for model in [
            ProximityModel::Global,
            ProximityModel::FriendsOnly,
            ProximityModel::DistanceDecay { alpha: 0.4 },
            ProximityModel::WeightedDecay { alpha: 0.5 },
        ] {
            let plan = ex.plan(&q, model, ScoringStrategy::Auto, None, SigmaBounds::EXACT);
            let got = ex.execute(&q, model, ScoringStrategy::Auto, None, SigmaBounds::EXACT);
            let mut direct = ExactOnline::with_strategy(&c, model, plan.strategy);
            let want = direct.query(&q);
            assert_eq!(want.items, got.items, "{}", model.name());
        }
        let h = counters.snapshot();
        assert_eq!(h.total(), 4);
        assert_eq!(h.processors[0], 4);
    }

    #[test]
    fn executor_reuses_instances_per_model() {
        let c = corpus();
        let mut ex = PlannedExecutor::new(
            &c,
            None,
            Arc::new(ProcessorRegistry::standard()),
            Planner,
            Arc::new(PlanCounters::default()),
        );
        let q = Query {
            seeker: 2,
            tags: vec![1],
            k: 3,
        };
        for _ in 0..3 {
            ex.execute(
                &q,
                ProximityModel::Global,
                ScoringStrategy::Auto,
                None,
                SigmaBounds::EXACT,
            );
            ex.execute(
                &q,
                ProximityModel::DistanceDecay { alpha: 0.3 },
                ScoringStrategy::Auto,
                None,
                SigmaBounds::EXACT,
            );
        }
        assert_eq!(ex.instances.len(), 2, "one instance per distinct model");
    }

    #[test]
    fn histogram_merge_and_labels() {
        let counters = PlanCounters::default();
        counters.record(&Plan {
            processor: 0,
            processor_name: EXACT_ONLINE,
            strategy: ScoringStrategy::BlockMax,
        });
        counters.record(&Plan {
            processor: 7, // past the tracked range → last slot
            processor_name: "custom",
            strategy: ScoringStrategy::Auto,
        });
        let mut h = counters.snapshot();
        assert_eq!(h.strategy_count(ScoringStrategy::BlockMax), 1);
        assert_eq!(h.processors[TRACKED_PROCESSORS - 1], 1);
        let other = counters.snapshot();
        h.merge(&other);
        assert_eq!(h.total(), 4);
        assert_eq!(
            STRATEGY_LABELS[strategy_index(ScoringStrategy::GlobalTa)],
            "global-ta"
        );
    }
}
