//! The broker: shard routing, the worker loop, batched dispatch, coalescing,
//! result memoization, deadline shedding and drain-based shutdown.

use crate::request::{Job, Outcome, Reply, Ticket};
use crate::result_cache::{ResultCache, ResultKey};
use crate::stats::{MutationTimes, ServiceStats, ShardState};
use crossbeam::channel;
use friends_core::cache::{CachePolicy, KeyMap, ProximityCache, SigmaSweep};
use friends_core::corpus::{Corpus, SearchResult};
use friends_core::latency::Stage;
use friends_core::live::{DurabilityConfig, LiveCorpus, PreparedMutation, RecoveryReport};
use friends_core::plan::{
    strategy_index, PlannedExecutor, Planner, ProcessorRegistry, QueryRequest, STRATEGY_LABELS,
};
use friends_core::proximity::SigmaBounds;
use friends_core::trace::{QueryTrace, TraceCollector, TraceConfig, TraceOutcome, TraceRecord};
use friends_data::mutations::MutationBatch;
use friends_data::queries::Query;
use friends_data::wal::{WalAppend, WalStats};
use friends_data::{ItemId, UserId};
use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The overload controller's policy: the queue depths at which to degrade
/// and to count a batch as calm. `None` in [`ServiceConfig::overload`]
/// disables the controller entirely (requests run under their own bounds
/// only).
///
/// The controller is a per-worker hysteresis state machine over three
/// signals — queue depth, the worker's observed per-job latency (EWMA) and
/// the tightest remaining deadline budget in the drained batch. It steps
/// Exact → level 1 → level 2 immediately under pressure and steps back one
/// level only after `COOLDOWN_BATCHES` (4) consecutive calm batches, so the
/// service does not flap at the boundary. Level `n` tightens each request's
/// bounds by [`Planner::degraded_bounds`]`(n)`. Shedding (deadline misses) is
/// unchanged and remains the last resort when even degraded execution
/// cannot keep up. Deadline-free requests are never degraded — a batch
/// client that opted out of shedding opted out of approximation too.
#[derive(Clone, Copy, Debug)]
pub struct OverloadPolicy {
    /// Queue depth (after draining a batch) at which the level steps up.
    pub depth_high: usize,
    /// Depth at or below which a batch counts as calm (toward stepping
    /// back down). Keep well under `depth_high` for hysteresis.
    pub depth_low: usize,
}

/// Consecutive calm batches the overload controller waits before it steps
/// one degradation level down.
const COOLDOWN_BATCHES: u32 = 4;

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy {
            depth_high: 64,
            depth_low: 8,
        }
    }
}

/// Test-only fault injection: make one worker request misbehave, to
/// exercise the broker's containment paths deterministically. The fault
/// arms per shard and fires **once**, on that shard's `nth` execution
/// attempt (1-based, counting every dequeued-and-live request).
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// 1-based execution ordinal (per shard) the fault fires on.
    pub nth: u64,
    pub kind: FaultKind,
}

/// What an armed [`FaultPlan`] does when it fires.
#[derive(Clone, Copy, Debug)]
pub enum FaultKind {
    /// Panic inside the execution region — exercises containment: the
    /// in-flight request(s) reply [`Outcome::Failed`], the engine is
    /// rebuilt, and the worker keeps serving.
    Panic,
    /// Sleep before executing — simulates a stall for deadline tests.
    Delay(Duration),
    /// Fail the request without executing it (no panic, no engine
    /// rebuild) — a clean error path.
    Error,
}

/// Policy of both shard-private caches (σ and results): TinyLFU admission,
/// so one-shot seekers cannot wash a skewed working set out, and no TTL —
/// the live-graph sweeps are what keeps entries current.
const SHARD_CACHE_POLICY: CachePolicy = CachePolicy {
    admission: true,
    ttl: None,
};

/// Broker tuning. The defaults are the serving posture: one shard per
/// hardware thread, admission-controlled caches, a generous default
/// deadline. Result memoization is opt-in (`result_cache_capacity`)
/// because it changes what "executed" means for observability.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker shard count (≥ 1). Requests route by `hash(seeker) % shards`.
    pub shards: usize,
    /// Byte budget of each shard's private proximity cache, its only
    /// limit (`usize::MAX` disables it). A byte budget lets
    /// reach-proportional `Touched` snapshots pack thousands deep where
    /// dense vectors fit dozens — entry counts cannot tell the two apart.
    /// 0 admits nothing: every σ goes through the worker's scratch and is
    /// never snapshotted, the cache-less posture.
    pub cache_bytes: usize,
    /// Capacity of each shard's private result-memoization cache, in
    /// rankings; 0 disables memoization (the default).
    pub result_cache_capacity: usize,
    /// Deadline budget applied to requests that don't carry their own;
    /// `None` disables shedding for them.
    pub default_deadline: Option<Duration>,
    /// Most requests drained into one dispatch cycle.
    pub max_batch: usize,
    /// Overload controller policy; `None` (the default) disables degraded
    /// serving — requests execute under their own bounds only.
    pub overload: Option<OverloadPolicy>,
    /// Test-only fault injection, armed per shard; `None` in production.
    pub fault: Option<FaultPlan>,
    /// Per-shard trace retention: head-sampling rate, ring capacities and
    /// the slow-query threshold. Always on (the hot-path cost is one
    /// relaxed `fetch_add` per request); set `sample_every: 0` to keep
    /// only forced, slow and deadline-missed traces.
    pub trace: TraceConfig,
    /// Crash safety for the live graph: when set, startup recovers from
    /// the directory's newest valid snapshot + WAL replay (an empty
    /// directory is seeded from the start corpus), and every mutation
    /// batch is appended to the WAL — and fsynced per
    /// [`DurabilityConfig::sync`] — *before* it is broadcast, published or
    /// acknowledged. `None` (the default) serves memory-only.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // A byte budget, not an entry cap: σ entries vary by orders of
            // magnitude between Touched and Dense snapshots.
            cache_bytes: 64 << 20,
            result_cache_capacity: 0,
            default_deadline: Some(Duration::from_secs(5)),
            max_batch: 256,
            overload: None,
            fault: None,
            trace: TraceConfig::default(),
            durability: None,
        }
    }
}

/// Stable label of an injected fault for trace events.
fn fault_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Panic => "panic",
        FaultKind::Delay(_) => "delay",
        FaultKind::Error => "error",
    }
}

/// What flows down a queue: queries, or a mutation batch to apply at the
/// next batch boundary. FIFO order is the sequencing guarantee — every
/// query runs entirely under the snapshot that was current when the worker
/// reached it, so each answer is *some* epoch's frozen answer (snapshot
/// isolation; `tests/proptest_live.rs` pins this).
enum WorkItem {
    Query(Job),
    Mutation(MutationJob),
}

/// One shard's share of a broadcast mutation: the prepared next snapshot
/// plus the ack the publisher collects (per-shard invalidation counts).
struct MutationJob {
    prepared: Arc<PreparedMutation>,
    ack: channel::Sender<ShardAck>,
    /// The batch's WAL receipt (`None` on memory-only services) — carried
    /// so racing queries' traces can show the durability point.
    wal: Option<WalAppend>,
}

/// What a shard reports back once it has switched to a batch's epoch.
struct ShardAck {
    /// What the shard's reads did with stale σ since its previous ack.
    sigma: SigmaSweep,
    results_invalidated: u64,
}

/// The mutation a shard applied most recently, remembered for exactly one
/// dispatch cycle: the queries drained in that cycle were queued while the
/// epoch changed under them, and their traces say so.
#[derive(Clone, Copy, Debug)]
struct RacedMutation {
    epoch: u64,
    mutations: usize,
    results_invalidated: u64,
    wal: Option<WalAppend>,
}

/// What [`FriendsService::apply_mutations`] reports back, aggregated over
/// every shard's ack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MutationReport {
    /// The epoch the batch published.
    pub epoch: u64,
    /// Mutations in the batch.
    pub mutations: usize,
    /// What reads did with stale cached σ since the previous batch (σ is
    /// repaired when read, not at the barrier), summed over shards.
    pub sigma: SigmaSweep,
    /// Memoized rankings dropped by the per-seeker/per-tag sweeps, summed
    /// over shards.
    pub results_invalidated: u64,
    /// Stale σ entries served since the previous batch, as they were or
    /// repaired in place (`sigma.kept + sigma.repaired`) — read-path misses
    /// a drop-only sweep would have caused.
    pub sigma_refreshed: u64,
    /// The batch's WAL receipt. `Some` iff the service runs durable
    /// ([`ServiceConfig::durability`]): the record was appended — and,
    /// when `wal.synced`, fsynced — before any shard saw the batch.
    pub wal: Option<WalAppend>,
    /// Time spent building the next epoch ([`LiveCorpus::prepare`]).
    pub prepare: Duration,
    /// Time the shards' reads spent bringing stale σ forward since the
    /// previous batch (`sigma.time`), summed over shards; it elapses on
    /// the read path, not inside `barrier`.
    pub refresh: Duration,
    /// Time from the first broadcast send to the last shard's ack.
    pub barrier: Duration,
}

/// Spawns one worker draining `rx`. The worker serves one snapshot per
/// *era*: its executor borrows the era's corpus, `rebuild` re-creates it
/// after a contained panic (the old instance's scratch state is suspect,
/// the shard's cache and counters survive untouched), and a mutation ends
/// the era — [`worker_loop`] returns the next snapshot and a fresh executor
/// is built over it. Controller state and the armed fault outlive eras.
fn spawn_worker(
    shard: usize,
    mut corpus: Arc<Corpus>,
    rx: channel::Receiver<WorkItem>,
    state: Arc<ShardState>,
    registry: Arc<ProcessorRegistry>,
    config: ServiceConfig,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("friends-svc-{shard}"))
        .spawn(move || {
            let mut ctl = WorkerCtl::new(config.fault);
            let mut raced: Option<RacedMutation> = None;
            loop {
                let next = {
                    let rebuild = || {
                        PlannedExecutor::new(
                            corpus.as_ref(),
                            Some(Arc::clone(&state.cache)),
                            Arc::clone(&registry),
                            Planner,
                            Arc::clone(&state.plans),
                        )
                    };
                    worker_loop(&rebuild, &rx, &state, shard, &config, &mut ctl, &mut raced)
                };
                match next {
                    Some(snapshot) => corpus = snapshot,
                    None => return,
                }
            }
        })
        .expect("spawn worker thread")
}

/// Enqueues one request on `sender`, returning the [`Ticket`] to wait on —
/// unless the shard memoizes results and already holds this request's
/// ranking: then the submitting thread answers it ([`answer_at_submit`])
/// and the ticket comes back completed. `shard` is what the ticket reports
/// until a worker answers.
fn enqueue(
    sender: &channel::Sender<WorkItem>,
    state: &ShardState,
    shard: usize,
    mut request: QueryRequest,
    default_deadline: Option<Duration>,
) -> Ticket {
    let now = Instant::now();
    let deadline = request.deadline.resolve(now, default_deadline);
    state.submitted.fetch_add(1, Ordering::Relaxed);
    if let Some(results) = &state.results {
        if let Some(ticket) = answer_at_submit(state, results, shard, &mut request, now, deadline) {
            return ticket;
        }
    }
    let (tx, rx) = channel::bounded(1);
    let tag = request.tag;
    let depth = state.depth.fetch_add(1, Ordering::Relaxed) + 1;
    state.max_depth.fetch_max(depth, Ordering::Relaxed);
    let job = Job {
        request,
        deadline,
        submitted: now,
        reply: tx.clone(),
    };
    if sender.send(WorkItem::Query(job)).is_err() {
        // Every worker is gone. Resolve the ticket rather than leaving the
        // caller to block forever.
        state.depth.fetch_sub(1, Ordering::Relaxed);
        state.failed.fetch_add(1, Ordering::Relaxed);
        let _ = tx.send(Reply::failed(shard, tag));
    }
    Ticket {
        shard,
        rx: Some(rx),
        deadline,
        tag,
        stash: None,
    }
}

/// The submit-side result-cache probe: on a hit the submitting thread
/// answers the request itself — no queue, no channel, no worker wake-up —
/// and returns its completed ticket. On a miss the request is handed back
/// as it came (its query moves into the probe key and back, uncloned) for
/// the queue, where the worker re-checks before executing it.
///
/// Sound because only the shard's worker inserts or sweeps, at its batch
/// boundaries, and `apply_mutations` acks only after every shard has
/// swept: a hit is one epoch's answer, and a submit that starts after the
/// ack cannot see a swept ranking. A request already past its deadline is
/// not probed — the worker sheds it, and a memo hit must not turn a miss
/// into `Done`. Out of line so the memo-less submit path stays as it was.
#[inline(never)]
fn answer_at_submit(
    state: &ShardState,
    results: &ResultCache,
    shard: usize,
    request: &mut QueryRequest,
    submitted: Instant,
    deadline: Option<Instant>,
) -> Option<Ticket> {
    if deadline.is_some_and(|d| d <= submitted) {
        return None;
    }
    let key = group_key(request);
    let Some((items, residual)) = results.get(&key) else {
        request.query = key.into_query();
        return None;
    };
    state.result_served.fetch_add(1, Ordering::Relaxed);
    let bounds = key.bounds();
    let mut reply = memo_reply(shard, request.tag, &items, residual, !bounds.is_exact());
    record_reply(
        state,
        key.query(),
        request.trace,
        submitted,
        bounds,
        &mut reply,
        |rec| {
            rec.result_cached = Some(true);
            rec.at_submit = true;
        },
    );
    Some(Ticket::answered(reply, deadline))
}

/// The running service: N worker shards behind MPMC queues. Dropping the
/// handle without [`FriendsService::shutdown`] also drains (workers finish
/// queued work before exiting), but `shutdown` additionally joins and
/// returns the final stats.
pub struct FriendsService {
    senders: Vec<channel::Sender<WorkItem>>,
    shards: Vec<Arc<ShardState>>,
    workers: Vec<JoinHandle<()>>,
    default_deadline: Option<Duration>,
    /// The service-level snapshot lineage — WAL and snapshots included
    /// when the service runs durable ([`ServiceConfig::durability`]):
    /// `apply_mutations` commits through it, publishing after every shard
    /// acks.
    live: LiveCorpus,
    /// Stage times of the batches applied so far (see
    /// [`ServiceStats::mutation_times`]).
    mutation_times: Mutex<MutationTimes>,
}

impl FriendsService {
    /// Starts `config.shards` workers over `corpus`. Every request carries
    /// its own proximity model (and optional strategy hint / processor
    /// override), and each worker's [`PlannedExecutor`] maps it to a
    /// `registry` entry via the [`Planner`]. This is the engine behind
    /// [`crate::ServedClient`]; planner decisions surface in
    /// [`crate::ShardStats::plans`].
    pub fn start_planned(
        corpus: Arc<Corpus>,
        config: ServiceConfig,
        registry: Arc<ProcessorRegistry>,
    ) -> Self {
        // Recovery happens before any worker spawns: with durability
        // configured, the disk state (newest valid snapshot + WAL replay)
        // is newer truth than the `corpus` argument, which only seeds an
        // empty directory. Startup panics when the directory is unusable —
        // serving from a stale seed while writes go nowhere would be a
        // silent data-loss mode.
        let live = match config.durability.clone() {
            Some(dcfg) => LiveCorpus::open_durable(Arc::clone(&corpus), dcfg)
                .expect("durable service startup: snapshot/WAL directory unusable"),
            None => LiveCorpus::new(Arc::clone(&corpus)),
        };
        // Workers serve the recovered snapshot (identical to the argument
        // on memory-only or freshly-seeded services).
        let corpus = live.snapshot();
        let shards = config.shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut states = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = channel::unbounded();
            let cache = Arc::new(ProximityCache::with_byte_budget(
                config.cache_bytes,
                SHARD_CACHE_POLICY,
            ));
            let results = (config.result_cache_capacity > 0).then(|| {
                Arc::new(ResultCache::new(
                    config.result_cache_capacity,
                    SHARD_CACHE_POLICY,
                ))
            });
            let state = Arc::new(ShardState::new(
                cache,
                results,
                TraceCollector::new(shard, config.trace),
            ));
            workers.push(spawn_worker(
                shard,
                Arc::clone(&corpus),
                rx,
                Arc::clone(&state),
                Arc::clone(&registry),
                config.clone(),
            ));
            senders.push(tx);
            states.push(state);
        }
        FriendsService {
            senders,
            shards: states,
            workers,
            default_deadline: config.default_deadline,
            live,
            mutation_times: Mutex::new(MutationTimes::default()),
        }
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// The shard `seeker` routes to: affinity is a pure function of the
    /// seeker, so one user's traffic always lands on one worker.
    pub fn shard_of(&self, seeker: UserId) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        seeker.hash(&mut h);
        (h.finish() as usize) % self.senders.len()
    }

    /// Enqueues one request on its seeker's shard, returning the
    /// [`Ticket`] to wait on.
    pub fn submit(&self, request: QueryRequest) -> Ticket {
        let shard = self.shard_of(request.query.seeker);
        enqueue(
            &self.senders[shard],
            &self.shards[shard],
            shard,
            request,
            self.default_deadline,
        )
    }

    /// Applies a live-graph mutation batch across the whole service:
    /// prepare the next snapshot once (off every query path), broadcast it
    /// to each shard, and publish after the last shard acks.
    ///
    /// Each shard applies at its next **batch boundary** — queries drained
    /// before the boundary run under the old snapshot, queries after it
    /// under the new one, and no query ever straddles epochs (snapshot
    /// isolation). Cache maintenance is incremental: each shard's σ cache
    /// only records the batch's edits ([`ProximityCache::advance`]) and
    /// repairs a stale vector when a query next reads it, across every
    /// batch it missed; the result sweep drops only memoized rankings of
    /// affected seekers and touched tags. Everything else keeps hitting
    /// because the edited graph keeps its identity token.
    ///
    /// `horizon` bounds the affected-seeker search (pass the proximity
    /// model's decay horizon or the serving σ-bounds radius; `None` =
    /// full reachability, sound for every model). Blocks until every live
    /// shard has switched; concurrent callers serialize.
    ///
    /// # Panics
    /// On a durable service ([`ServiceConfig::durability`]), panics if the
    /// WAL append fails — an unlogged mutation must not be acknowledged,
    /// and this infallible entry point has no other way to refuse. Use
    /// [`FriendsService::try_apply_mutations`] to handle the error.
    pub fn apply_mutations(&self, batch: &MutationBatch, horizon: Option<u32>) -> MutationReport {
        self.try_apply_mutations(batch, horizon)
            .expect("mutation batch could not be made durable")
    }

    /// [`FriendsService::apply_mutations`] with the durability error
    /// surfaced. The batch goes through [`LiveCorpus::commit`]: on a
    /// durable service it is appended to the WAL (group commit, fsynced
    /// per [`DurabilityConfig::sync`]) beside prepare and **before** any
    /// shard sees it, so `Err` from the append means nothing was
    /// broadcast, published or acknowledged — the corpus stays at the
    /// previous epoch and the caller may retry. The same holds for an
    /// `InvalidInput` refusal of a batch that breaks the graph's or the
    /// store's contract, which a retry will not cure. `Err` after the WAL
    /// write can only come from snapshot maintenance
    /// ([`DurabilityConfig::snapshot_every`]); the batch itself is then
    /// already durable and published, and the report is lost only to the
    /// caller. Every batch, an empty one too, publishes one epoch.
    pub fn try_apply_mutations(
        &self,
        batch: &MutationBatch,
        horizon: Option<u32>,
    ) -> std::io::Result<MutationReport> {
        self.live.commit(batch, horizon, |prepared, wal| {
            let started = Instant::now();
            let (ack_tx, ack_rx) = channel::bounded(self.senders.len());
            for tx in &self.senders {
                // A dead shard (worker panic) just drops its queue; its
                // clone of the ack sender goes with it, so the recv loop
                // below still terminates.
                let _ = tx.send(WorkItem::Mutation(MutationJob {
                    prepared: Arc::clone(prepared),
                    ack: ack_tx.clone(),
                    wal,
                }));
            }
            drop(ack_tx);
            let mut sigma = SigmaSweep::default();
            let mut results = 0u64;
            while let Ok(ack) = ack_rx.recv() {
                sigma.merge(&ack.sigma);
                results += ack.results_invalidated;
            }
            // Every shard now serves the new snapshot (and advanced its
            // caches); `commit` publishes once this returns.
            let barrier = started.elapsed();
            let prepare = prepared.prepare_time;
            {
                let mut times = self.mutation_times.lock();
                times.batches += 1;
                times.prepare += prepare;
                times.barrier += barrier;
                times.sigma.merge(&sigma);
            }
            MutationReport {
                epoch: prepared.epoch(),
                mutations: prepared.mutations,
                sigma,
                results_invalidated: results,
                sigma_refreshed: sigma.kept + sigma.repaired,
                wal,
                prepare,
                refresh: sigma.time,
                barrier,
            }
        })
    }

    /// The startup recovery report — what the durable service found on
    /// disk and replayed before serving. `None` on memory-only services.
    /// All-zero fields mean the directory was freshly initialized.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.live.recovery_report()
    }

    /// Current WAL counters; `None` on memory-only services.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.live.wal_stats()
    }

    /// Forces an fsync of the active WAL segment — a durable shutdown
    /// barrier under [`friends_data::wal::SyncPolicy::EveryN`] /
    /// [`friends_data::wal::SyncPolicy::Never`]. No-op on memory-only
    /// services.
    pub fn sync_wal(&self) -> std::io::Result<()> {
        self.live.sync_wal()
    }

    /// Writes a snapshot of the current, settled epoch now
    /// ([`LiveCorpus::snapshot_now`]). Returns the snapshotted epoch, or
    /// `None` on memory-only services.
    pub fn snapshot_now(&self) -> std::io::Result<Option<u64>> {
        self.live.snapshot_now()
    }

    /// Pins the service's current published snapshot (see
    /// [`LiveCorpus::snapshot`]).
    pub fn snapshot(&self) -> Arc<Corpus> {
        self.live.snapshot()
    }

    /// The service's published corpus epoch (0 = frozen seed).
    pub fn epoch(&self) -> u64 {
        self.live.epoch()
    }

    /// Drains every shard's head-sampled traces (shard order, FIFO within
    /// a shard). Draining is destructive: each trace is returned once.
    pub fn traces(&self) -> Vec<Arc<QueryTrace>> {
        self.shards
            .iter()
            .flat_map(|s| s.traces.drain_sampled())
            .collect()
    }

    /// Drains the slow-query log: forced (`with_trace()`), slow
    /// (past [`TraceConfig::slow_threshold`]) and deadline-missed traces,
    /// each with its full span tree.
    pub fn slow_queries(&self) -> Vec<Arc<QueryTrace>> {
        self.shards
            .iter()
            .flat_map(|s| s.traces.drain_retained())
            .collect()
    }

    /// A live snapshot of every shard's counters, plus the service-level
    /// WAL counters and startup recovery report when running durable.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| s.snapshot(i))
                .collect(),
            mutation_times: *self.mutation_times.lock(),
            wal: self.wal_stats(),
            recovery: self.recovery_report().cloned(),
        }
    }

    /// Drain-based shutdown: closes the queues, lets every worker finish
    /// what is already enqueued, joins them, and returns the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.senders.clear(); // disconnects; workers drain then exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
    }
}

impl Drop for FriendsService {
    fn drop(&mut self) {
        self.senders.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The coalescing/memoization identity of a request: query, model parameter
/// bits, strategy hint, processor override and **effective** σ-bounds bits
/// (the request's own bounds after any controller tightening). Two requests
/// with equal keys are interchangeable executions; requests at different
/// degradation levels never coalesce and never share memoized rankings.
/// The key takes ownership of the request's query (no clone): `run_group`
/// executes from the key, duplicate keys are simply dropped, and a
/// submit-side probe that misses hands the query back.
fn group_key(request: &mut QueryRequest) -> ResultKey {
    let query = std::mem::replace(
        &mut request.query,
        Query {
            seeker: 0,
            tags: Vec::new(),
            k: 0,
        },
    );
    ResultKey::new(
        query,
        request.model,
        request.strategy,
        request.processor,
        request.bounds,
    )
}

/// Per-worker mutable control state: the overload controller's hysteresis
/// machine, the armed fault, and the execution-attempt counter the fault
/// ordinal is matched against.
struct WorkerCtl {
    /// Current degradation level (0 = exact).
    level: u8,
    /// Consecutive calm batches observed at the current level.
    calm: u32,
    /// EWMA of observed per-job execution latency, in microseconds;
    /// `None` until the first batch completes.
    ewma_job_us: Option<f64>,
    /// Armed fault, disarmed after it fires.
    fault: Option<FaultPlan>,
    /// Execution attempts on this worker (the fault ordinal clock).
    attempts: u64,
    /// The shard's σ stale-hit counts at its previous mutation ack.
    sigma_acked: SigmaSweep,
}

impl WorkerCtl {
    fn new(fault: Option<FaultPlan>) -> Self {
        WorkerCtl {
            level: 0,
            calm: 0,
            ewma_job_us: None,
            fault,
            attempts: 0,
            sigma_acked: SigmaSweep::default(),
        }
    }

    /// Steps the hysteresis machine for one drained batch: up immediately
    /// under pressure (deep queue, or the EWMA projects this batch past its
    /// tightest remaining deadline budget), down one level only after
    /// `COOLDOWN_BATCHES` consecutive calm batches.
    fn observe_batch(&mut self, policy: &OverloadPolicy, depth_after: usize, batch: &[Job]) {
        let mut pressure = depth_after >= policy.depth_high;
        if let (false, Some(ewma_job_us)) = (pressure, self.ewma_job_us) {
            // Fractional microseconds matter: on a fast corpus the per-job
            // EWMA is below 1 µs, and a projection rounded to whole
            // microseconds would never exceed any slack.
            let projected = Duration::from_secs_f64(ewma_job_us * batch.len() as f64 * 1e-6);
            let now = Instant::now();
            if let Some(min_slack) = batch
                .iter()
                .filter_map(|j| j.deadline)
                .map(|d| d.saturating_duration_since(now))
                .min()
            {
                pressure = projected > min_slack;
            }
        }
        if pressure {
            self.level = (self.level + 1).min(2);
            self.calm = 0;
        } else if depth_after <= policy.depth_low {
            self.calm += 1;
            if self.calm >= COOLDOWN_BATCHES && self.level > 0 {
                self.level -= 1;
                self.calm = 0;
            }
        } else {
            // Neither overloaded nor calm: hold the level, reset the
            // cooldown so recovery needs genuinely consecutive calm.
            self.calm = 0;
        }
    }

    /// Folds one dispatch cycle (`jobs` requests in `elapsed`) into the
    /// per-job latency EWMA.
    fn record_dispatch(&mut self, elapsed: Duration, jobs: usize) {
        let per_job = elapsed.as_secs_f64() * 1e6 / jobs as f64;
        self.ewma_job_us = Some(match self.ewma_job_us {
            None => per_job,
            Some(ewma) => 0.75 * ewma + 0.25 * per_job,
        });
    }

    /// The fault to apply to this execution attempt, if one fires now.
    fn take_fault(&mut self) -> Option<FaultKind> {
        self.attempts += 1;
        match self.fault {
            Some(f) if f.nth == self.attempts => {
                self.fault = None;
                Some(f.kind)
            }
            _ => None,
        }
    }
}

/// One worker era: block for the first item, opportunistically drain up to
/// `max_batch - 1` more, step the overload controller, dispatch the batch,
/// repeat. `rebuild` re-creates the executor after a contained panic.
///
/// A [`WorkItem::Mutation`] is a **batch boundary**: draining stops at it,
/// the queries drained before it dispatch under the era's snapshot, the
/// worker advances its σ cache, sweeps its result cache, acks, and returns
/// the next snapshot — ending the era (the caller builds a fresh executor
/// over it and re-enters).
/// Returns `None` when the queue disconnects (shutdown).
fn worker_loop<'c, R>(
    rebuild: &R,
    rx: &channel::Receiver<WorkItem>,
    state: &ShardState,
    shard: usize,
    config: &ServiceConfig,
    ctl: &mut WorkerCtl,
    raced: &mut Option<RacedMutation>,
) -> Option<Arc<Corpus>>
where
    R: Fn() -> PlannedExecutor<'c>,
{
    let mut engine = rebuild();
    let mut batch: Vec<Job> = Vec::new();
    let mut groups: KeyMap<ResultKey, Vec<Job>> = KeyMap::default();
    loop {
        let mut pending: Option<MutationJob> = None;
        match rx.recv() {
            Ok(WorkItem::Query(job)) => batch.push(job),
            Ok(WorkItem::Mutation(m)) => pending = Some(m),
            Err(channel::RecvError) => return None, // queue fully drained
        }
        if pending.is_none() {
            while batch.len() < config.max_batch.max(1) {
                match rx.try_recv() {
                    Ok(WorkItem::Query(job)) => batch.push(job),
                    Ok(WorkItem::Mutation(m)) => {
                        pending = Some(m);
                        break;
                    }
                    Err(_) => break,
                }
            }
        }
        if !batch.is_empty() {
            let drained = batch.len();
            let depth_after = state
                .depth
                .fetch_sub(drained, Ordering::Relaxed)
                .saturating_sub(drained);
            state.batches.fetch_add(1, Ordering::Relaxed);
            state.max_batch.fetch_max(drained, Ordering::Relaxed);
            if let Some(policy) = &config.overload {
                ctl.observe_batch(policy, depth_after, &batch);
            }
            // The mutation race marker sticks to exactly one dispatch
            // cycle: the queries drained here were queued while the epoch
            // changed under them.
            let cycle = Cycle {
                state,
                shard,
                started: Instant::now(),
                raced: raced.take(),
            };
            dispatch(&mut engine, rebuild, &mut batch, &mut groups, &cycle, ctl);
            ctl.record_dispatch(cycle.started.elapsed(), drained);
        }
        if let Some(m) = pending {
            // Sweep-then-swap, in that order: the edited graph keeps its
            // token, so every entry will keep hitting under the new
            // snapshot (see `friends_core::live`). The σ cache only
            // records the batch's edits — a stale vector is repaired when
            // this shard next reads it, against the snapshot it switches
            // to here — and the result sweep drops what the batch could
            // change. No query of this shard is in flight in between.
            state.cache.advance(&m.prepared.edits);
            let stale = state.cache.stale_hits();
            let sigma = stale.since(&std::mem::replace(&mut ctl.sigma_acked, stale));
            let results = state
                .results
                .as_ref()
                .map(|rc| {
                    rc.invalidate_partial(&m.prepared.affected_seekers, &m.prepared.touched_tags)
                })
                .unwrap_or(0);
            state
                .mutations_applied
                .fetch_add(m.prepared.mutations as u64, Ordering::Relaxed);
            state.mutation_batches.fetch_add(1, Ordering::Relaxed);
            state
                .mutation_epoch
                .store(m.prepared.epoch(), Ordering::Relaxed);
            *raced = Some(RacedMutation {
                epoch: m.prepared.epoch(),
                mutations: m.prepared.mutations,
                results_invalidated: results,
                wal: m.wal,
            });
            let next = Arc::clone(&m.prepared.next);
            let _ = m.ack.send(ShardAck {
                sigma,
                results_invalidated: results,
            });
            return Some(next);
        }
    }
}

/// What every reply of one dispatch cycle shares.
struct Cycle<'a> {
    state: &'a ShardState,
    shard: usize,
    /// When the cycle began: queue wait ends here, and deadlines are judged
    /// against it.
    started: Instant,
    /// The mutation this worker applied right before the cycle, if any.
    raced: Option<RacedMutation>,
}

impl Cycle<'_> {
    /// The worker's one reply path: stamps the queue wait, records what
    /// every answered request records ([`record_reply`], adding the
    /// mutation this cycle raced to the trace) and answers the ticket.
    /// `query` is passed separately because coalescing moves it out of the
    /// job and into the group key; `bounds` are the effective σ bounds the
    /// group ran under.
    fn reply(
        &self,
        job: &Job,
        query: &Query,
        bounds: SigmaBounds,
        mut reply: Reply,
        fill: impl FnOnce(&mut TraceRecord),
    ) {
        reply.queue_wait = self.started - job.submitted;
        let raced = self.raced;
        record_reply(
            self.state,
            query,
            job.request.trace,
            job.submitted,
            bounds,
            &mut reply,
            |rec| {
                if let Some(m) = raced {
                    rec.mutation = Some((m.epoch, m.mutations));
                    rec.invalidated = Some(m.results_invalidated);
                    rec.wal = m.wal.map(|w| (w.bytes, w.synced));
                }
                fill(rec);
            },
        );
        let _ = job.reply.send(reply);
    }
}

/// What every answered request records, wherever it was answered — in a
/// worker's dispatch cycle ([`Cycle::reply`]) or on the submitting thread
/// ([`answer_at_submit`]): its end-to-end latency, a degraded completion's
/// residual, and its trace when the collector wants one. The trace is the
/// cold path: the head-sampling decision (one relaxed `fetch_add`) and the
/// `wants` check are all an untraced request pays, and `fill` adds what
/// only the call site knows. `bounds` are the effective σ bounds the
/// answer was computed under.
fn record_reply(
    state: &ShardState,
    query: &Query,
    forced: bool,
    submitted: Instant,
    bounds: SigmaBounds,
    reply: &mut Reply,
    fill: impl FnOnce(&mut TraceRecord),
) {
    let sampled = state.traces.should_sample();
    let e2e = submitted.elapsed();
    let outcome = match &reply.outcome {
        Outcome::Done(result) => {
            state.latency.record(Stage::EndToEnd, e2e);
            if reply.degraded {
                state.record_degraded(reply.residual);
            }
            TraceOutcome::Done {
                items: result.items.len(),
            }
        }
        Outcome::DeadlineMissed => TraceOutcome::DeadlineMissed,
        Outcome::Failed => TraceOutcome::Failed,
    };
    let missed = outcome == TraceOutcome::DeadlineMissed;
    if state.traces.wants(forced, sampled, e2e, missed) {
        let mut rec = TraceRecord::new(reply.shard, query, reply.tag, forced);
        rec.sampled = sampled;
        rec.outcome = outcome;
        rec.e2e = e2e;
        rec.queue_wait = reply.queue_wait;
        rec.coalesced = reply.coalesced;
        if reply.degraded {
            rec.degraded = Some((bounds.max_radius, bounds.min_mass));
            rec.residual = reply.residual;
        }
        fill(&mut rec);
        reply.trace = Some(state.traces.retain(rec));
    }
}

/// The reply of a result-cache hit: a copy of the memoized ranking — the
/// one allocation a hit makes — with its residual certificate and empty
/// execution stats (nothing executed).
fn memo_reply(
    shard: usize,
    tag: u64,
    items: &[(ItemId, f32)],
    residual: f64,
    degraded: bool,
) -> Reply {
    let result = SearchResult {
        items: items.to_vec(),
        stats: Default::default(),
        residual,
    };
    let mut reply = Reply::done(shard, tag, result);
    reply.result_cached = true;
    reply.degraded = degraded;
    reply
}

/// Executes one drained batch: tighten bounds to the controller's level,
/// group duplicates, then run each group. Execution order within a cycle
/// follows the group map (not arrival order) — results are per-query
/// deterministic either way, and replies route by ticket.
fn dispatch<'c, R>(
    engine: &mut PlannedExecutor<'c>,
    rebuild: &R,
    batch: &mut Vec<Job>,
    groups: &mut KeyMap<ResultKey, Vec<Job>>,
    cycle: &Cycle<'_>,
    ctl: &mut WorkerCtl,
) where
    R: Fn() -> PlannedExecutor<'c>,
{
    // Compose the controller's level bounds into each job (the level only
    // leaves 0 under an overload policy). Deadline-free jobs are exempt: a
    // caller that opted out of shedding opted out of approximation too,
    // and keeps byte-identical exact answers.
    let level_bounds = (ctl.level > 0).then(|| Planner::degraded_bounds(ctl.level));
    groups.clear();
    for mut job in batch.drain(..) {
        if let (Some(level_bounds), Some(_)) = (level_bounds, job.deadline) {
            job.request.bounds = job.request.bounds.tighten(level_bounds);
        }
        groups
            .entry(group_key(&mut job.request))
            .or_default()
            .push(job);
    }
    for (key, jobs) in groups.drain() {
        run_group(engine, rebuild, key, jobs, cycle, ctl);
    }
}

/// Sheds expired members of one duplicate-request group, answers the
/// survivors from the result cache when possible (the re-check: another
/// cycle may have memoized the ranking since their submit-side probe
/// missed), otherwise executes the query once (inside panic containment)
/// and fans the result out.
fn run_group<'c, R>(
    engine: &mut PlannedExecutor<'c>,
    rebuild: &R,
    key: ResultKey,
    jobs: Vec<Job>,
    cycle: &Cycle<'_>,
    ctl: &mut WorkerCtl,
) where
    R: Fn() -> PlannedExecutor<'c>,
{
    let (state, shard) = (cycle.state, cycle.shard);
    // Every job in the group shares the key — hence the model (read off
    // the first job below) and the effective bounds.
    let query = key.query();
    let bounds = key.bounds();
    let degraded = !bounds.is_exact();
    // Shed what already expired in the queue; execute for the rest.
    let mut live: Vec<Job> = Vec::with_capacity(jobs.len());
    for job in jobs {
        // Queue wait is a property of queuing: every dispatched job has
        // one, shed or served.
        state
            .latency
            .record(Stage::QueueWait, cycle.started - job.submitted);
        if job.deadline.is_some_and(|d| cycle.started > d) {
            state.deadline_misses.fetch_add(1, Ordering::Relaxed);
            let reply = Reply::deadline_missed(shard, job.request.tag);
            cycle.reply(&job, query, bounds, reply, |rec| rec.shed = true);
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }
    let memo = state.results.as_deref();
    if let Some((items, residual)) = memo.and_then(|rc| rc.recheck(&key)) {
        state
            .result_served
            .fetch_add(live.len() as u64, Ordering::Relaxed);
        for job in live {
            let reply = memo_reply(shard, job.request.tag, &items, residual, degraded);
            cycle.reply(&job, query, bounds, reply, |rec| {
                rec.result_cached = Some(true)
            });
        }
        return;
    }
    let model = live[0].request.model;
    let (strategy, processor) = (key.strategy(), key.processor());
    let fault = ctl.take_fault();
    // An injected `Error` fails the group without executing. A panic
    // (injected or real) is contained: the whole group was riding this
    // execution, so it fails too, the executor is rebuilt (its scratch
    // state is suspect) and the worker keeps serving the other groups.
    let run = match fault {
        Some(FaultKind::Error) => None,
        _ => {
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                match fault {
                    Some(FaultKind::Panic) => panic!("injected fault: panic"),
                    Some(FaultKind::Delay(d)) => std::thread::sleep(d),
                    _ => {}
                }
                engine.execute(query, model, strategy, processor, bounds)
            }));
            if run.is_err() {
                state.worker_restarts.fetch_add(1, Ordering::Relaxed);
                *engine = rebuild();
            }
            run.ok()
        }
    };
    let Some(result) = run else {
        state.failed.fetch_add(live.len() as u64, Ordering::Relaxed);
        for job in &live {
            let mut reply = Reply::failed(shard, job.request.tag);
            reply.degraded = degraded;
            cycle.reply(job, query, bounds, reply, |rec| {
                rec.fault = fault.map(fault_name)
            });
        }
        return;
    };
    state.executed.fetch_add(1, Ordering::Relaxed);
    state
        .coalesced
        .fetch_add(live.len() as u64 - 1, Ordering::Relaxed);
    // One execution served the whole group: σ/scoring record once, while
    // queue wait and end-to-end record per rider.
    state.latency.record_ns(Stage::Sigma, result.stats.sigma_ns);
    state
        .latency
        .record_ns(Stage::Scoring, result.stats.scoring_ns);
    let stats = result.stats;
    let residual = result.residual;
    // Memoize before the fan-out: a repeat submitted after any of these
    // replies is then answered at submit. The cache takes the key; the
    // trace sites below borrow the query from the key it hands back.
    let memoized;
    let query = match memo {
        Some(rc) => {
            memoized = rc.insert(key, Arc::new(result.items.clone()), residual);
            memoized.query()
        }
        None => key.query(),
    };
    let count = live.len();
    let mut remaining = Some(result);
    for (i, job) in live.into_iter().enumerate() {
        // Waiters beyond the first are coalesced onto the single
        // execution; the last reply moves the original result.
        let r = if i + 1 == count {
            remaining.take().expect("result consumed once")
        } else {
            remaining.as_ref().expect("result still held").clone()
        };
        let mut reply = Reply::done(shard, job.request.tag, r);
        reply.coalesced = i != 0;
        reply.degraded = degraded;
        cycle.reply(&job, query, bounds, reply, |rec| {
            rec.fill_execution(&stats);
            // Planning is deterministic and cheap, so re-planning on this
            // cold path beats threading the decision through the hot one.
            let plan = engine.plan(query, model, strategy, processor, bounds);
            rec.plan = Some((
                plan.processor_name,
                STRATEGY_LABELS[strategy_index(plan.strategy)],
            ));
            rec.result_cached = state.results.is_some().then_some(false);
            rec.fault = fault.map(fault_name);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use friends_core::processors::{ExactOnline, Processor, ScoringStrategy};
    use friends_core::proximity::ProximityModel;
    use friends_data::datasets::{DatasetSpec, Scale};
    use friends_data::mutations::Mutation;
    use friends_data::queries::{QueryParams, QueryWorkload};

    fn fixture() -> (Arc<Corpus>, QueryWorkload) {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(8);
        let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
        let w = QueryWorkload::generate(
            &corpus.graph,
            &corpus.store,
            &QueryParams {
                count: 37, // deliberately not divisible by the shard count
                ..QueryParams::default()
            },
            4,
        );
        (corpus, w)
    }

    const MODEL: ProximityModel = ProximityModel::WeightedDecay { alpha: 0.5 };

    /// A service over `corpus` with the standard registry.
    fn start(corpus: &Arc<Corpus>, config: ServiceConfig) -> FriendsService {
        FriendsService::start_planned(
            Arc::clone(corpus),
            config,
            Arc::new(ProcessorRegistry::standard()),
        )
    }

    /// `q` under the fixture's model, with the service's default deadline.
    fn request(q: &Query) -> QueryRequest {
        QueryRequest::from_query(q.clone()).with_model(MODEL)
    }

    /// Floods `queries` in deadline-free, then unwraps the results in
    /// input order.
    fn run(svc: &FriendsService, queries: &[Query]) -> Vec<SearchResult> {
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|q| svc.submit(request(q).without_deadline()))
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().outcome.expect_done("run"))
            .collect()
    }

    #[test]
    fn service_matches_direct_execution() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 3,
                ..ServiceConfig::default()
            },
        );
        let served = run(&svc, &w.queries);
        let mut direct = ExactOnline::new(&corpus, MODEL);
        assert_eq!(served.len(), w.len());
        for (q, b) in w.queries.iter().zip(&served) {
            assert_eq!(direct.query(q).items, b.items);
        }
    }

    #[test]
    fn affinity_routes_each_seeker_to_one_shard() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 4,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(svc.num_shards(), 4);
        for q in &w.queries {
            let s = svc.shard_of(q.seeker);
            assert!(s < 4);
            assert_eq!(s, svc.shard_of(q.seeker), "routing must be stable");
            let t = svc.submit(request(q));
            assert_eq!(t.shard(), s);
            let reply = t.wait();
            assert_eq!(reply.shard, s);
            assert!(reply.outcome.result().is_some());
        }
        let stats = svc.shutdown();
        let totals = stats.totals();
        assert_eq!(totals.submitted, w.len() as u64);
        assert_eq!(totals.deadline_misses, 0);
        assert_eq!(totals.queue_depth, 0);
        assert!(totals.batches >= 1 && totals.max_queue_depth >= 1);
    }

    #[test]
    fn duplicate_requests_coalesce_onto_one_execution() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                ..ServiceConfig::default()
            },
        );
        let q = Query {
            seeker: 7,
            tags: vec![0, 1],
            k: 10,
        };
        // Park the single worker behind a pile of distinct work first:
        // release-mode queries are fast enough that a bare flood can be
        // consumed one-by-one as it is produced (no two duplicates ever in
        // flight together). Behind the plug, the duplicates queue up and
        // land in shared dispatch cycles.
        let parked: Vec<Ticket> = w
            .queries
            .iter()
            .cycle()
            .take(256)
            .map(|p| svc.submit(request(p).without_deadline()))
            .collect();
        // Flood 32 identical requests; collect replies afterwards so they
        // are all in flight together.
        let tickets: Vec<Ticket> = (0..32).map(|_| svc.submit(request(&q))).collect();
        let replies: Vec<Reply> = tickets.into_iter().map(Ticket::wait).collect();
        // The cycled plug repeats queries too, so its replies also carry
        // coalesced flags — tally them all against the shard counter.
        let mut coalesced = 0;
        for t in parked {
            let r = t.wait();
            assert!(r.outcome.result().is_some());
            if r.coalesced {
                coalesced += 1;
            }
        }
        let baseline = replies[0].outcome.result().expect("done").items.clone();
        let mut dup_coalesced = 0;
        for r in &replies {
            assert_eq!(r.outcome.result().expect("done").items, baseline);
            if r.coalesced {
                dup_coalesced += 1;
            }
        }
        coalesced += dup_coalesced;
        let stats = svc.shutdown().totals();
        assert_eq!(stats.submitted, 32 + 256);
        assert_eq!(stats.executed + stats.coalesced, 32 + 256);
        assert!(
            dup_coalesced > 0 && coalesced == stats.coalesced as usize,
            "flooded duplicates must be coalesced — {stats:?}"
        );
    }

    #[test]
    fn result_cache_serves_repeats_across_cycles() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 2,
                result_cache_capacity: 256,
                ..ServiceConfig::default()
            },
        );
        let first = run(&svc, &w.queries);
        // Second pass arrives in later dispatch cycles: coalescing cannot
        // help, memoization must.
        let tickets: Vec<Ticket> = w
            .queries
            .iter()
            .map(|q| svc.submit(request(q).without_deadline()))
            .collect();
        let replies: Vec<Reply> = tickets.into_iter().map(Ticket::wait).collect();
        for ((a, b), q) in first.iter().zip(&replies).zip(&w.queries) {
            let served = b.outcome.result().expect("done");
            assert_eq!(a.items, served.items, "memoized ranking diverged: {q:?}");
        }
        assert!(
            replies.iter().any(|r| r.result_cached),
            "second pass should hit the result cache"
        );
        let totals = svc.shutdown().totals();
        assert!(totals.result_served > 0, "{totals:?}");
        assert!(totals.results.hits > 0, "{totals:?}");
        assert!(totals.results.insertions > 0, "{totals:?}");
        // Accounting: every submitted request is executed, coalesced,
        // memo-served or shed.
        assert_eq!(
            totals.executed + totals.coalesced + totals.result_served + totals.deadline_misses,
            totals.submitted,
            "{totals:?}"
        );
    }

    #[test]
    fn apply_mutations_switches_every_shard_to_the_new_epoch() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 3,
                result_cache_capacity: 64,
                ..ServiceConfig::default()
            },
        );
        // Warm both cache layers under epoch 0.
        let before = run(&svc, &w.queries);
        for (q, r) in w.queries.iter().zip(&before) {
            let d = ExactOnline::new(&corpus, MODEL).query(q);
            assert_eq!(r.items, d.items);
        }
        let batch = MutationBatch::new(vec![
            Mutation::InsertEdge {
                u: 0,
                v: 1,
                weight: 2.0,
            },
            Mutation::AddTagging(friends_data::Tagging {
                user: 0,
                item: 0,
                tag: 0,
                weight: 2.0,
            }),
        ]);
        let report = svc.apply_mutations(&batch, None);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.mutations, 2);
        assert_eq!(svc.epoch(), 1);
        let now = svc.snapshot();
        assert_eq!(now.epoch(), 1);
        assert!(now.graph.has_edge(0, 1));
        // Post-mutation answers — whether re-executed or served by a cache
        // entry the incremental sweep left alone — must equal from-scratch
        // execution on the new snapshot. This is the sweep-soundness claim
        // end to end.
        let after = run(&svc, &w.queries);
        for (q, r) in w.queries.iter().zip(&after) {
            let d = ExactOnline::new(&now, MODEL).query(q);
            assert_eq!(r.items, d.items, "stale answer under epoch 1: {q:?}");
        }
        let totals = svc.shutdown().totals();
        assert_eq!(totals.mutation_batches, 1, "{totals:?}");
        assert_eq!(totals.mutations_applied, 2, "{totals:?}");
        assert_eq!(totals.mutation_epoch, 1, "{totals:?}");
    }

    /// Read-side σ repair end to end: 24 epochs of generated writes on a
    /// service whose σ and result caches stay warm (every query is read
    /// twice between batches, so the reads after every batch repair stale
    /// σ and every batch sweeps memoized rankings), each epoch's served
    /// rankings compared with direct
    /// execution on a corpus rebuilt from the bare edge and tagging lists —
    /// sharing nothing with the lineage.
    #[test]
    fn repaired_epochs_serve_what_a_from_scratch_rebuild_answers() {
        use friends_data::mutations::{MutationParams, MutationStream};
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 2,
                result_cache_capacity: 256,
                ..ServiceConfig::default()
            },
        );
        let batches = MutationStream::generate(
            &corpus.graph,
            &corpus.store,
            &MutationParams {
                count: 24 * 8,
                ..MutationParams::default()
            },
            17,
        )
        .batches(8);
        assert!(batches.len() >= 20);
        let mut edges: std::collections::BTreeMap<(u32, u32), f32> = corpus
            .graph
            .undirected_edges()
            .map(|(u, v, w)| ((u, v), w))
            .collect();
        let mut taggings: Vec<friends_data::Tagging> = corpus.store.iter().copied().collect();
        let mut repaired = 0;
        let _ = run(&svc, &w.queries);
        for batch in &batches {
            let report = svc.apply_mutations(batch, None);
            repaired += report.sigma.repaired;
            let (inserts, removals, appends) = batch.split();
            for (u, v) in removals {
                edges.remove(&(u.min(v), u.max(v)));
            }
            for (u, v, w) in inserts {
                edges.insert((u.min(v), u.max(v)), w);
            }
            taggings.extend(appends);
            let store = &corpus.store;
            let rebuilt = Corpus::new(
                friends_graph::GraphBuilder::from_edges(
                    corpus.graph.num_nodes(),
                    edges.iter().map(|(&(u, v), &w)| (u, v, w)),
                ),
                friends_data::store::TagStore::build(
                    store.num_users(),
                    store.num_items(),
                    store.num_tags(),
                    taggings.clone(),
                ),
            );
            let mut direct = ExactOnline::new(&rebuilt, MODEL);
            let want: Vec<_> = w.queries.iter().map(|q| direct.query(q).items).collect();
            // Executed on repaired σ, then served from the memo.
            for pass in ["executed", "memoized"] {
                for ((q, r), want) in w.queries.iter().zip(run(&svc, &w.queries)).zip(&want) {
                    assert_eq!(&r.items, want, "epoch {} {pass}: {q:?}", report.epoch);
                }
            }
        }
        assert!(repaired >= 20, "the sweeps repaired {repaired} vectors");
        let totals = svc.shutdown().totals();
        assert!(
            totals.result_served > 0 && totals.cache.hits > 0,
            "{totals:?}"
        );
    }

    #[test]
    fn a_batch_of_no_op_edits_publishes_an_epoch_and_invalidates_nothing() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 2,
                result_cache_capacity: 256,
                ..ServiceConfig::default()
            },
        );
        let before = run(&svc, &w.queries);
        let (u, v, weight) = corpus.graph.undirected_edges().next().expect("an edge");
        let absent = (0..corpus.graph.num_nodes() as u32)
            .find(|&x| x != u && !corpus.graph.has_edge(u, x))
            .expect("a non-neighbour");
        let report = svc.apply_mutations(
            &MutationBatch::new(vec![
                Mutation::RemoveEdge { u, v: absent },
                Mutation::InsertEdge { u: v, v: u, weight },
            ]),
            None,
        );
        assert_eq!((report.epoch, svc.epoch()), (1, 1));
        assert_eq!(report.sigma, SigmaSweep::default());
        assert_eq!(report.results_invalidated, 0);
        let served = svc.stats().totals().result_served;
        let after = run(&svc, &w.queries);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.items, b.items);
        }
        let totals = svc.shutdown().totals();
        assert_eq!(totals.result_served, served + w.len() as u64, "{totals:?}");
        assert_eq!(totals.stale, SigmaSweep::default(), "no σ went stale");
    }

    #[test]
    fn queries_racing_a_mutation_carry_trace_events() {
        let (corpus, _) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                ..ServiceConfig::default()
            },
        );
        let q = Query {
            seeker: 2,
            tags: vec![0],
            k: 5,
        };
        // Warm a σ entry so the batch has something to make stale.
        let _ = run(&svc, std::slice::from_ref(&q));
        let report = svc.apply_mutations(
            &MutationBatch::new(vec![Mutation::InsertEdge {
                u: 2,
                v: 3,
                weight: 1.5,
            }]),
            None,
        );
        assert_eq!(report.epoch, 1);
        // The first dispatch cycle after the boundary carries the marker.
        let reply = svc.submit(request(&q).with_trace()).wait();
        let trace = reply.trace.expect("forced trace");
        let rendered = trace.render();
        assert!(
            rendered.contains("raced mutation batch (1 mutations) publishing epoch 1"),
            "{rendered}"
        );
        assert!(
            rendered.contains("invalidated result_entries="),
            "{rendered}"
        );
        svc.shutdown();
    }

    #[test]
    fn incremental_sweep_counts_surface_in_stats() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 2,
                result_cache_capacity: 256,
                ..ServiceConfig::default()
            },
        );
        let _ = run(&svc, &w.queries); // warm σ + memoized rankings
        let report = svc.apply_mutations(
            &MutationBatch::new(vec![Mutation::InsertEdge {
                u: 0,
                v: 1,
                weight: 2.0,
            }]),
            None,
        );
        // The barrier does no σ work: nothing was stale before it.
        assert_eq!(report.sigma, SigmaSweep::default(), "{report:?}");
        assert!(report.results_invalidated > 0, "{report:?}");
        // The delicious-like graph is well connected: some seeker read
        // again is reachable from the endpoints, and its σ is repaired
        // where it lies. The next batch reports those reads.
        let _ = run(&svc, &w.queries);
        let second = svc.apply_mutations(
            &MutationBatch::new(vec![Mutation::RemoveEdge { u: 0, v: 1 }]),
            None,
        );
        let sigma = second.sigma;
        assert!(sigma.repaired > 0, "{second:?}");
        assert!(sigma.folded_edits >= sigma.kept + sigma.repaired);
        assert_eq!(second.sigma_refreshed, sigma.kept + sigma.repaired);
        assert_eq!((sigma.dropped, sigma.too_far_behind), (0, 0));
        // Read once more, those vectors are repaired back across the
        // removal; the registry counts every read, the mutation counters
        // only the reads some batch has reported.
        let _ = run(&svc, &w.queries);
        let stats = svc.shutdown();
        let registry = stats.registry();
        let counter = |name: &str| registry.get(name).expect("exported") as u64;
        assert_eq!(
            counter("friends_mutation_sigma_repaired_total"),
            sigma.repaired
        );
        assert_eq!(counter("friends_mutation_sigma_kept_total"), sigma.kept);
        assert!(registry.get("friends_mutation_sigma_changed_nodes") >= Some(1.0));
        let totals = stats.totals();
        assert!(
            counter("friends_proximity_cache_stale_repaired_total") > sigma.repaired,
            "{:?}",
            totals.stale
        );
        assert_eq!(
            counter("friends_proximity_cache_cold_misses_total"),
            totals.cache.misses
        );
        assert_eq!(totals.cache.invalidated, 0);
        assert_eq!(
            totals.results.invalidated,
            report.results_invalidated + second.results_invalidated
        );
        // Sweeps drop what they drop as invalidations; without a TTL
        // nothing shows up as an expiration.
        assert_eq!(totals.results.expirations, 0, "{totals:?}");
    }

    #[test]
    fn expired_requests_are_shed_not_executed() {
        let (corpus, _) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                ..ServiceConfig::default()
            },
        );
        // A deadline that has effectively already passed: the request
        // expires while queued (the worker needs a moment to pick it up).
        let q = Query {
            seeker: 3,
            tags: vec![0],
            k: 5,
        };
        // Park the worker on a slow-ish first request so the doomed one
        // waits in the queue past its deadline.
        let mut tickets = Vec::new();
        for _ in 0..64 {
            tickets.push(svc.submit(request(&q)));
        }
        let doomed = svc.submit(
            request(&Query {
                seeker: 5,
                tags: vec![1],
                k: 5,
            })
            .with_deadline(Duration::ZERO),
        );
        std::thread::sleep(Duration::from_millis(5));
        let reply = doomed.wait();
        assert!(
            matches!(reply.outcome, Outcome::DeadlineMissed),
            "zero-budget request must be shed"
        );
        for t in tickets {
            assert!(t.wait().outcome.result().is_some());
        }
        let stats = svc.shutdown().totals();
        assert_eq!(stats.deadline_misses, 1);
    }

    /// The satellite regression: a request that is *dequeued and executing*
    /// (or stuck behind one) when its deadline passes used to block
    /// `Ticket::wait` until the worker got to it; `wait_deadline` must
    /// return `DeadlineMissed` at the deadline instead.
    #[test]
    fn wait_deadline_returns_at_the_deadline_not_after_execution() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                max_batch: 1, // one job per dispatch cycle: the queue drains slowly
                ..ServiceConfig::default()
            },
        );
        // Park the single worker behind a pile of work. The pile and the
        // budget below are sized so the queue cannot drain inside the
        // budget even on a fast release build — the reach-proportional σ
        // path made 256-job piles drain in under the old 5 ms budget.
        let parked: Vec<Ticket> = w
            .queries
            .iter()
            .cycle()
            .take(2048)
            .map(|q| svc.submit(request(q).without_deadline()))
            .collect();
        // …then submit a short-deadline request. Its deadline will pass
        // while the earlier work is still executing.
        let budget = Duration::from_millis(1);
        let doomed = svc.submit(
            request(&Query {
                seeker: 9,
                tags: vec![0],
                k: 5,
            })
            .with_deadline(budget),
        );
        let start = Instant::now();
        let reply = doomed.wait_deadline();
        let waited = start.elapsed();
        assert!(
            matches!(reply.outcome, Outcome::DeadlineMissed),
            "must miss, got {:?}",
            reply.outcome
        );
        assert!(
            waited < Duration::from_millis(500),
            "wait_deadline blocked {waited:?} — far past the {budget:?} budget"
        );
        for t in parked {
            assert!(t.wait().outcome.result().is_some());
        }
        svc.shutdown();
    }

    #[test]
    fn wait_deadline_returns_results_when_in_time() {
        let (corpus, _) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                ..ServiceConfig::default()
            },
        );
        let t = svc.submit(
            request(&Query {
                seeker: 2,
                tags: vec![0],
                k: 5,
            })
            .with_deadline(Duration::from_secs(30)),
        );
        assert!(t.wait_deadline().outcome.result().is_some());
        svc.shutdown();
    }

    #[test]
    fn tickets_poll_and_try_take_without_blocking() {
        let (corpus, _) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                ..ServiceConfig::default()
            },
        );
        let mut t = svc.submit(
            request(&Query {
                seeker: 4,
                tags: vec![0],
                k: 5,
            })
            .with_tag(77),
        );
        assert_eq!(t.tag(), 77);
        // Poll until completion — never blocks.
        let start = Instant::now();
        while !t.poll() {
            assert!(start.elapsed() < Duration::from_secs(10), "never completed");
            std::thread::yield_now();
        }
        let reply = t.try_take().expect("polled ready");
        assert_eq!(reply.tag, 77);
        assert!(reply.outcome.result().is_some());
        svc.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<Ticket> = w.queries.iter().map(|q| svc.submit(request(q))).collect();
        // Shut down immediately: every already-submitted request must still
        // be answered (drain, not abort).
        let stats = svc.shutdown();
        for t in tickets {
            let reply = t.wait();
            assert!(
                reply.outcome.result().is_some(),
                "queued request dropped at shutdown"
            );
        }
        assert_eq!(stats.totals().submitted, w.len() as u64);
        assert_eq!(stats.totals().queue_depth, 0);
    }

    #[test]
    fn strategy_hint_is_honored_and_exact() {
        let (corpus, w) = fixture();
        corpus.sigma_index(); // shared build
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        );
        let model = ProximityModel::DistanceDecay { alpha: 0.4 };
        let mut direct = ExactOnline::new(&corpus, model);
        for q in w.queries.iter().take(8) {
            let want = direct.query(q).items;
            for strategy in [
                ScoringStrategy::Auto,
                ScoringStrategy::PostingScan,
                ScoringStrategy::BlockMax,
            ] {
                let reply = svc
                    .submit(request(q).with_model(model).with_strategy(strategy))
                    .wait();
                assert_eq!(
                    reply.outcome.result().expect("done").items,
                    want,
                    "{strategy:?} diverged"
                );
            }
        }
        svc.shutdown();
    }

    #[test]
    fn planned_service_plans_per_request_model() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        );
        let mut exact_wd = ExactOnline::new(&corpus, MODEL);
        let mut exact_global = ExactOnline::new(&corpus, ProximityModel::Global);
        for q in w.queries.iter().take(8) {
            let want = exact_wd.query(q).items;
            let got = svc.submit(request(q)).wait();
            assert_eq!(got.outcome.result().expect("done").items, want);
            // No model → the request type's Global default.
            let want = exact_global.query(q).items;
            let got = svc.submit(QueryRequest::from_query(q.clone())).wait();
            assert_eq!(got.outcome.result().expect("done").items, want);
        }
        let totals = svc.shutdown().totals();
        assert!(totals.plans.total() >= 16, "{:?}", totals.plans);
        assert_eq!(totals.plans.processors[0], totals.plans.total());
    }

    #[test]
    fn shard_caches_fill_under_affinity() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        );
        run(&svc, &w.queries);
        run(&svc, &w.queries); // second pass: repeat seekers hit
        let stats = svc.shutdown();
        let totals = stats.totals();
        assert!(totals.cache.insertions > 0, "{totals:?}");
        assert!(totals.cache.hits > 0, "{totals:?}");
        // Affinity means a seeker's entries live on exactly one shard: the
        // sum of entries never exceeds distinct seekers.
        let distinct: std::collections::HashSet<u32> = w.queries.iter().map(|q| q.seeker).collect();
        assert!(totals.cache.entries <= distinct.len());
    }

    /// The fault-injection satellite: a panic in the Nth execution is
    /// contained — the in-flight request replies `Failed` promptly (no
    /// hung ticket), the engine is rebuilt once, and every other request
    /// in the stream completes with the accounting invariant intact.
    #[test]
    fn injected_panic_fails_only_the_in_flight_request() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                fault: Some(FaultPlan {
                    nth: 3,
                    kind: FaultKind::Panic,
                }),
                ..ServiceConfig::default()
            },
        );
        let mut failed = Vec::new();
        for (i, q) in w.queries.iter().take(10).enumerate() {
            // Waiting each ticket serializes execution, so the fault
            // ordinal maps 1:1 onto the stream position.
            let start = Instant::now();
            let reply = svc.submit(request(q).without_deadline()).wait();
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "ticket hung after the injected panic"
            );
            match reply.outcome {
                Outcome::Failed => failed.push(i),
                Outcome::Done(_) => {}
                other => panic!("request {i}: unexpected {other:?}"),
            }
        }
        assert_eq!(failed, vec![2], "exactly the 3rd execution must fail");
        let totals = svc.shutdown().totals();
        assert_eq!(totals.worker_restarts, 1, "{totals:?}");
        assert_eq!(totals.failed, 1, "{totals:?}");
        assert_eq!(totals.executed, 9, "{totals:?}");
        assert_eq!(
            totals.executed
                + totals.coalesced
                + totals.result_served
                + totals.deadline_misses
                + totals.failed,
            totals.submitted,
            "{totals:?}"
        );
    }

    /// `FaultKind::Error` is the clean failure path: the request fails
    /// without executing and without an engine rebuild.
    #[test]
    fn injected_error_fails_cleanly_without_restart() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                fault: Some(FaultPlan {
                    nth: 2,
                    kind: FaultKind::Error,
                }),
                ..ServiceConfig::default()
            },
        );
        let replies: Vec<Reply> = w
            .queries
            .iter()
            .take(6)
            .map(|q| svc.submit(request(q).without_deadline()).wait())
            .collect();
        assert!(matches!(replies[1].outcome, Outcome::Failed));
        assert_eq!(
            replies
                .iter()
                .filter(|r| matches!(r.outcome, Outcome::Failed))
                .count(),
            1
        );
        let totals = svc.shutdown().totals();
        assert_eq!(totals.worker_restarts, 0, "no panic, no rebuild");
        assert_eq!(totals.failed, 1);
        assert_eq!(totals.executed, 5);
    }

    /// `FaultKind::Delay` stalls the execution but the request still
    /// completes (the deadline tests use this to simulate slow workers).
    #[test]
    fn injected_delay_stalls_but_completes() {
        let (corpus, _) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                fault: Some(FaultPlan {
                    nth: 1,
                    kind: FaultKind::Delay(Duration::from_millis(30)),
                }),
                ..ServiceConfig::default()
            },
        );
        let start = Instant::now();
        let reply = svc
            .submit(
                request(&Query {
                    seeker: 3,
                    tags: vec![0],
                    k: 5,
                })
                .without_deadline(),
            )
            .wait();
        assert!(reply.outcome.result().is_some());
        assert!(start.elapsed() >= Duration::from_millis(30));
        let totals = svc.shutdown().totals();
        assert_eq!(totals.failed, 0);
        assert_eq!(totals.worker_restarts, 0);
    }

    /// The overload controller: a flooded queue steps the shard into
    /// degraded serving (replies marked with their residual certificate);
    /// calm traffic steps it back to exact.
    #[test]
    fn overload_controller_degrades_under_pressure_and_recovers() {
        let (corpus, w) = fixture();
        let policy = OverloadPolicy {
            depth_high: 8,
            depth_low: 2,
        };
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                max_batch: 4, // small cycles keep the flooded queue deep
                overload: Some(policy),
                default_deadline: Some(Duration::from_secs(30)),
                ..ServiceConfig::default()
            },
        );
        // Flood: far more than depth_high in flight at once. Every request
        // carries the default deadline, so the controller may degrade it.
        let tickets: Vec<Ticket> = w
            .queries
            .iter()
            .cycle()
            .take(512)
            .map(|q| svc.submit(request(q)))
            .collect();
        let mut saw_degraded = false;
        for t in tickets {
            let r = t.wait();
            let result = r.outcome.result().expect("no shedding at a 30s budget");
            if r.degraded {
                saw_degraded = true;
                assert!(r.residual >= 0.0 && r.residual.is_finite());
                assert_eq!(r.residual, result.residual);
            } else {
                assert_eq!(r.residual, 0.0);
            }
        }
        assert!(saw_degraded, "a 512-deep flood must trip the controller");
        let mid = svc.stats().totals();
        assert!(mid.degraded > 0, "{mid:?}");
        // Recovery: sequential singletons are calm batches (depth 0 after
        // each drain); two cooldowns step level 2 back to exact, so the
        // singleton after them must be served exact.
        let q = Query {
            seeker: 2,
            tags: vec![0],
            k: 5,
        };
        let mut last = None;
        for _ in 0..2 * COOLDOWN_BATCHES + 1 {
            last = Some(svc.submit(request(&q)).wait());
        }
        let last = last.expect("calm replies");
        assert!(
            !last.degraded,
            "calm traffic must recover exact serving: {last:?}"
        );
        let mut direct = ExactOnline::new(&corpus, MODEL);
        assert_eq!(
            last.outcome.result().expect("done").items,
            direct.query(&q).items,
            "recovered replies must be byte-identical exact"
        );
        let totals = svc.shutdown().totals();
        assert_eq!(totals.deadline_misses, 0, "{totals:?}");
        assert!(totals.max_residual >= 0.0 && totals.max_residual.is_finite());
    }

    /// The sampling half of the sub-microsecond drill: a 600 ns one-job
    /// dispatch (a memo hit) must leave a non-zero EWMA. Sampled in whole
    /// microseconds it read `0`, which the controller also took for "no
    /// sample yet" — the deadline arm never saw a memo-hot shard's cost.
    #[test]
    fn a_sub_microsecond_dispatch_leaves_a_nonzero_ewma() {
        let mut ctl = WorkerCtl::new(None);
        assert_eq!(ctl.ewma_job_us, None);
        ctl.record_dispatch(Duration::from_nanos(600), 1);
        let first = ctl.ewma_job_us.expect("sampled");
        assert!((first - 0.6).abs() < 1e-9, "{first}");
        // Later samples blend in at a quarter weight.
        ctl.record_dispatch(Duration::from_nanos(4_200), 3);
        let second = ctl.ewma_job_us.expect("sampled");
        assert!(
            (second - (0.75 * 0.6 + 0.25 * 1.4)).abs() < 1e-9,
            "{second}"
        );
    }

    /// The projection half: the cost projection keeps its fractional
    /// microseconds, so a 0.4 µs EWMA across even a 2-job batch projects
    /// 0.8 µs, which must register as pressure against (near-)zero
    /// remaining slack.
    #[test]
    fn sub_microsecond_costs_still_project_pressure() {
        let policy = OverloadPolicy::default();
        let mut ctl = WorkerCtl::new(None);
        ctl.record_dispatch(Duration::from_nanos(400), 1);
        let (tx, _rx) = channel::bounded(4);
        let due = Instant::now() + Duration::from_nanos(100);
        let make_job = || Job {
            request: QueryRequest::new(0, vec![0], 1),
            deadline: Some(due),
            submitted: Instant::now(),
            reply: tx.clone(),
        };
        let batch = vec![make_job(), make_job()];
        // Depth 0 is far below depth_high: only the cost projection can
        // trip pressure here. Slack is at most 100 ns < the 800 ns
        // projection, so the controller must step up one level.
        ctl.observe_batch(&policy, 0, &batch);
        assert_eq!(
            ctl.level, 1,
            "sub-µs EWMA × batch length must still project past near-zero slack"
        );
        // And at a large batch: 1 ns per job × 512 jobs = 0.512 µs, still
        // entirely below one microsecond.
        let mut ctl2 = WorkerCtl::new(None);
        ctl2.record_dispatch(Duration::from_nanos(512), 512);
        let batch512: Vec<Job> = (0..512).map(|_| make_job()).collect();
        ctl2.observe_batch(&policy, 0, &batch512);
        assert_eq!(ctl2.level, 1, "1 ns × 512 must trip against ~0 slack");
    }

    /// Deadline-free requests are never degraded, whatever the controller's
    /// level: opting out of shedding opts out of approximation.
    #[test]
    fn deadline_free_requests_stay_exact_under_overload() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                max_batch: 4,
                overload: Some(OverloadPolicy {
                    depth_high: 8,
                    depth_low: 2,
                }),
                default_deadline: None, // every request is deadline-free
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<Ticket> = w
            .queries
            .iter()
            .cycle()
            .take(512)
            .map(|q| svc.submit(request(q)))
            .collect();
        for t in tickets {
            let r = t.wait();
            assert!(!r.degraded, "deadline-free request degraded");
            assert_eq!(r.residual, 0.0);
        }
        let totals = svc.shutdown().totals();
        assert_eq!(totals.degraded, 0, "{totals:?}");
        assert_eq!(totals.max_residual, 0.0, "{totals:?}");
    }

    /// σ bounds are part of the memoization identity: a ranking computed
    /// under degraded bounds is never served for an exact request (and
    /// vice versa).
    #[test]
    fn degraded_rankings_never_alias_exact_in_the_result_cache() {
        let (corpus, _) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                result_cache_capacity: 64,
                ..ServiceConfig::default()
            },
        );
        let q = Query {
            seeker: 5,
            tags: vec![0, 1],
            k: 10,
        };
        let bounds = Planner::degraded_bounds(2);
        // Degraded execution populates the cache under the degraded key.
        let a = svc
            .submit(request(&q).without_deadline().with_bounds(bounds))
            .wait();
        assert!(a.degraded && !a.result_cached);
        // The exact request must execute (miss), not read the degraded
        // entry.
        let b = svc.submit(request(&q).without_deadline()).wait();
        assert!(!b.degraded && !b.result_cached, "{b:?}");
        assert_eq!(b.residual, 0.0);
        // Repeats hit their own entries, degradation marker preserved.
        let a2 = svc
            .submit(request(&q).without_deadline().with_bounds(bounds))
            .wait();
        assert!(a2.degraded && a2.result_cached, "{a2:?}");
        assert_eq!(a2.residual, a.residual);
        let b2 = svc.submit(request(&q).without_deadline()).wait();
        assert!(!b2.degraded && b2.result_cached, "{b2:?}");
        let mut direct = ExactOnline::new(&corpus, MODEL);
        assert_eq!(
            b2.outcome.result().expect("done").items,
            direct.query(&q).items
        );
        svc.shutdown();
    }

    /// A one-shard service that memoizes results, with head sampling off.
    fn memoizing(
        max_batch: usize,
        fault: Option<FaultPlan>,
    ) -> (FriendsService, Arc<Corpus>, QueryWorkload) {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                max_batch,
                fault,
                result_cache_capacity: 256,
                trace: TraceConfig {
                    sample_every: 0,
                    ..TraceConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        (svc, corpus, w)
    }

    /// Whether the submitting thread answered the ticket's request: such a
    /// ticket never owned a reply channel.
    fn answered_at_submit(ticket: &Ticket) -> bool {
        ticket.rx.is_none()
    }

    /// Both shard caches admit through TinyLFU: once they are full, a
    /// flood of one-shot seekers is refused entry instead of evicting what
    /// is resident. A plain LRU would insert every one and reject none.
    #[test]
    fn both_shard_caches_refuse_one_shot_seekers_once_full() {
        let (corpus, _) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                cache_bytes: 16 << 10, // a few dense σ vectors of this corpus
                result_cache_capacity: 4,
                ..ServiceConfig::default()
            },
        );
        let one_shot: Vec<Query> = (0..64)
            .map(|seeker| Query {
                seeker,
                tags: vec![0],
                k: 5,
            })
            .collect();
        run(&svc, &one_shot);
        let totals = svc.shutdown().totals();
        assert_eq!(totals.executed, 64, "{totals:?}");
        assert!(totals.cache.rejections > 0, "{:?}", totals.cache);
        assert!(totals.results.rejections > 0, "{:?}", totals.results);
    }

    #[test]
    fn an_unbounded_result_cache_answers_a_repeat_at_submit() {
        // `usize::MAX` rankings under the default (admitting) policy: the
        // admission sketch's sizing must saturate, not overflow.
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                result_cache_capacity: usize::MAX,
                ..ServiceConfig::default()
            },
        );
        let q = &w.queries[0];
        let first = run(&svc, std::slice::from_ref(q));
        let hit = svc.submit(request(q));
        assert!(answered_at_submit(&hit));
        let reply = hit.wait();
        assert_eq!(reply.outcome.result().expect("done").items, first[0].items);
        svc.shutdown();
    }

    #[test]
    fn a_memoized_request_past_its_deadline_is_shed_not_answered_at_submit() {
        let (svc, _, w) = memoizing(256, None);
        let q = &w.queries[0];
        let _ = run(&svc, std::slice::from_ref(q)); // memoized
        let hit = svc.submit(request(q));
        assert!(answered_at_submit(&hit));
        assert!(hit.wait().result_cached);
        let doomed = svc.submit(request(q).with_deadline(Duration::ZERO));
        assert!(!answered_at_submit(&doomed), "an expired request is queued");
        let reply = doomed.wait();
        assert!(
            matches!(reply.outcome, Outcome::DeadlineMissed),
            "{:?}",
            reply.outcome
        );
        let totals = svc.shutdown().totals();
        assert_eq!(
            (totals.result_served, totals.deadline_misses),
            (1, 1),
            "{totals:?}"
        );
    }

    /// The `degraded_rankings_never_alias_exact_in_the_result_cache`
    /// contract where hits are answered: on the submitting thread.
    #[test]
    fn degraded_and_exact_rankings_never_alias_at_submit() {
        let (svc, corpus, _) = memoizing(256, None);
        let q = Query {
            seeker: 5,
            tags: vec![0, 1],
            k: 10,
        };
        let bounds = Planner::degraded_bounds(2);
        let degraded = || request(&q).without_deadline().with_bounds(bounds);
        let exact = || request(&q).without_deadline();
        let first = svc.submit(degraded()).wait();
        assert!(first.degraded && !first.result_cached);
        // Only the degraded ranking is memoized: the exact request must
        // miss at submit and execute.
        let t = svc.submit(exact());
        assert!(!answered_at_submit(&t));
        let b = t.wait();
        assert!(
            !b.degraded && !b.result_cached && b.residual == 0.0,
            "{b:?}"
        );
        // Both memoized now: each answers its own kind at submit.
        let t = svc.submit(degraded());
        assert!(answered_at_submit(&t));
        let a2 = t.wait();
        assert!(a2.degraded && a2.result_cached, "{a2:?}");
        assert_eq!(a2.residual, first.residual);
        let t = svc.submit(exact());
        assert!(answered_at_submit(&t));
        let b2 = t.wait();
        assert!(
            !b2.degraded && b2.result_cached && b2.residual == 0.0,
            "{b2:?}"
        );
        assert_eq!(
            b2.outcome.result().expect("done").items,
            ExactOnline::new(&corpus, MODEL).query(&q).items
        );
        let totals = svc.shutdown().totals();
        // Degraded completions count whichever path answered them.
        assert_eq!(totals.degraded, 2, "{totals:?}");
    }

    /// Hits at submit count as `result_served` and keep the identity
    /// `submitted = executed + coalesced + result_served + misses +
    /// failed`; they never reach a dispatch cycle, so they add no batch and
    /// no queue-wait sample. The result cache counts every probed request
    /// once — including one that missed at submit and then hit the
    /// worker's re-check.
    #[test]
    fn submit_side_hits_balance_the_counters_and_skip_the_queue() {
        // One request per dispatch cycle, and a first execution stalled
        // long enough for two duplicates to queue behind it: they land in
        // different cycles, so the second one hits the re-check.
        let stall = FaultPlan {
            nth: 1,
            kind: FaultKind::Delay(Duration::from_millis(200)),
        };
        let (svc, _, w) = memoizing(1, Some(stall));
        // k = 7: no workload query (all k = 10) shares its key.
        let q = Query {
            seeker: 11,
            tags: vec![2],
            k: 7,
        };
        let plug = svc.submit(request(&w.queries[0]));
        let first = svc.submit(request(&q));
        let second = svc.submit(request(&q));
        assert!(!answered_at_submit(&first) && !answered_at_submit(&second));
        assert!(!plug.wait().result_cached && !first.wait().result_cached);
        assert!(second.wait().result_cached, "the re-check must serve it");
        let _ = run(&svc, &w.queries);
        let before = svc.stats().totals();
        let tickets: Vec<Ticket> = w.queries.iter().map(|p| svc.submit(request(p))).collect();
        assert!(tickets.iter().all(answered_at_submit));
        for t in tickets {
            let reply = t.wait();
            assert!(reply.result_cached && reply.queue_wait == Duration::ZERO);
        }
        let after = svc.shutdown().totals();
        let n = w.len() as u64;
        assert_eq!(after.result_served, before.result_served + n, "{after:?}");
        assert_eq!(after.batches, before.batches, "{after:?}");
        assert_eq!(
            after.latency.queue_wait.count(),
            before.latency.queue_wait.count()
        );
        assert_eq!(after.latency.e2e.count(), before.latency.e2e.count() + n);
        assert_eq!(after.results.hits, before.results.hits + n);
        assert_eq!(
            after.results.hits + after.results.misses,
            after.submitted,
            "every request probed once: {after:?}"
        );
        assert_eq!(
            after.executed
                + after.coalesced
                + after.result_served
                + after.deadline_misses
                + after.failed,
            after.submitted,
            "{after:?}"
        );
    }

    #[test]
    fn a_traced_request_answered_at_submit_explains_itself() {
        let (svc, _, w) = memoizing(256, None);
        let q = &w.queries[3];
        let _ = run(&svc, std::slice::from_ref(q));
        let t = svc.submit(request(q).with_trace());
        assert!(answered_at_submit(&t));
        let reply = t.wait();
        let trace = reply.trace.as_ref().expect("forced trace");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["submit", "reply"], "no queue, no dispatch spans");
        let explain = reply.explain().expect("traced");
        assert!(explain.contains("answered at submit"), "{explain}");
        assert!(explain.contains("result-cache hit"), "{explain}");
        let retained = svc.slow_queries();
        assert!(retained.iter().any(|t| Some(t.id) == reply.trace_id()));
        svc.shutdown();
    }

    /// A scratch durability directory, cleared of any previous run.
    fn durability_dir(tag: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("friends-svc-dur-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn edge_batch(u: u32, v: u32) -> MutationBatch {
        MutationBatch::new(vec![
            Mutation::InsertEdge {
                u,
                v,
                weight: 1.0 + u as f32,
            },
            Mutation::AddTagging(friends_data::Tagging {
                user: u,
                item: v,
                tag: (u + v) % 4,
                weight: 1.5,
            }),
        ])
    }

    /// The tentpole, at the service tier: every acknowledged batch is on
    /// the WAL (with its fsync receipt under `SyncPolicy::Always`), and a
    /// restart over the same directory recovers the exact epoch chain —
    /// the stale seed argument is ignored and queries serve answers
    /// byte-identical to the pre-restart snapshot.
    #[test]
    fn durable_service_recovers_the_acked_epochs_after_restart() {
        let (corpus, w) = fixture();
        let dir = durability_dir("restart");
        let config = ServiceConfig {
            shards: 2,
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServiceConfig::default()
        };
        let svc = start(&corpus, config.clone());
        let fresh = svc.recovery_report().expect("durable service").clone();
        assert_eq!(fresh.recovered_epoch, 0, "{fresh:?}");
        assert!(!fresh.degraded(), "{fresh:?}");
        for (i, batch) in [edge_batch(0, 3), edge_batch(1, 4), edge_batch(2, 5)]
            .iter()
            .enumerate()
        {
            let report = svc.try_apply_mutations(batch, None).expect("durable apply");
            assert_eq!(report.epoch, i as u64 + 1);
            let wal = report.wal.expect("durable service returns a WAL receipt");
            assert!(wal.bytes > 0, "{wal:?}");
            assert!(wal.synced, "SyncPolicy::Always fsyncs every batch");
        }
        assert_eq!(svc.epoch(), 3);
        let expect = svc.snapshot();
        svc.shutdown();

        // Restart over the same directory, passing the *stale* seed: the
        // disk state must win.
        let svc2 = start(&corpus, config);
        let report = svc2.recovery_report().expect("durable service").clone();
        assert_eq!(report.recovered_epoch, 3, "{report:?}");
        assert_eq!(report.replayed, 3, "{report:?}");
        assert!(
            !report.degraded(),
            "clean shutdown, clean recovery: {report:?}"
        );
        assert_eq!(svc2.epoch(), 3);
        let recovered = svc2.snapshot();
        assert!(recovered.graph.has_edge(0, 3) && recovered.graph.has_edge(2, 5));
        let after = run(&svc2, &w.queries);
        for (q, r) in w.queries.iter().zip(&after) {
            let d = ExactOnline::new(&expect, MODEL).query(q);
            assert_eq!(r.items, d.items, "recovered answer diverged: {q:?}");
        }
        svc2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The one write rule, at the service tier: an empty batch is a WAL
    /// record and an epoch like any other — every shard switches to it and
    /// a restart recovers it.
    #[test]
    fn an_empty_batch_is_one_epoch_and_survives_restart() {
        let (corpus, _) = fixture();
        let dir = durability_dir("empty");
        let config = ServiceConfig {
            shards: 2,
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServiceConfig::default()
        };
        let svc = start(&corpus, config.clone());
        svc.apply_mutations(&edge_batch(0, 3), None);
        let report = svc.apply_mutations(&MutationBatch::default(), None);
        assert_eq!(report.epoch, 2, "{report:?}");
        assert!(report.wal.is_some(), "{report:?}");
        assert_eq!(svc.epoch(), 2);
        for shard in svc.stats().shards {
            assert_eq!(shard.mutation_epoch, 2, "{shard:?}");
        }
        svc.shutdown();

        let svc2 = start(&corpus, config);
        let recovered = svc2.recovery_report().expect("durable service").clone();
        assert_eq!(recovered.recovered_epoch, 2, "{recovered:?}");
        assert_eq!(recovered.replayed, 2, "{recovered:?}");
        assert_eq!(svc2.epoch(), 2);
        svc2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// WAL counters and the recovery report surface through the unified
    /// registry (`friends_wal_*` / `friends_recovery_*`), and a query that
    /// raced a durable mutation carries the WAL-append trace event.
    #[test]
    fn durable_service_surfaces_wal_metrics_and_trace_events() {
        let (corpus, _) = fixture();
        let dir = durability_dir("metrics");
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                durability: Some(DurabilityConfig::new(&dir)),
                ..ServiceConfig::default()
            },
        );
        let q = Query {
            seeker: 2,
            tags: vec![0],
            k: 5,
        };
        let _ = run(&svc, std::slice::from_ref(&q));
        let report = svc.apply_mutations(&edge_batch(2, 3), None);
        let wal = report.wal.expect("durable service returns a WAL receipt");
        // The first post-boundary dispatch cycle's traces show the
        // durability point alongside the epoch switch.
        let reply = svc.submit(request(&q).with_trace()).wait();
        let rendered = reply.trace.expect("forced trace").render();
        assert!(
            rendered.contains(&format!("wal append {} bytes (fsynced)", wal.bytes)),
            "{rendered}"
        );
        let registry = svc.stats().registry();
        assert_eq!(registry.get("friends_wal_appends_total"), Some(1.0));
        assert!(registry.get("friends_wal_bytes_total") >= Some(wal.bytes as f64));
        assert!(registry.get("friends_wal_syncs_total") >= Some(1.0));
        assert_eq!(registry.get("friends_recovery_recovered_epoch"), Some(0.0));
        assert_eq!(registry.get("friends_recovery_replayed_batches"), Some(0.0));
        svc.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `snapshot_every` keeps restart cost bounded: after enough batches a
    /// snapshot lands, covered WAL segments retire, and the next recovery
    /// replays only the suffix past the snapshot.
    #[test]
    fn durable_service_auto_snapshots_and_replays_only_the_suffix() {
        let (corpus, _) = fixture();
        let dir = durability_dir("snap");
        let mut dcfg = DurabilityConfig::new(&dir);
        dcfg.snapshot_every = 2;
        let config = ServiceConfig {
            shards: 1,
            durability: Some(dcfg),
            ..ServiceConfig::default()
        };
        let svc = start(&corpus, config.clone());
        for (u, v) in [(0, 3), (1, 4), (2, 5), (3, 6), (4, 7)] {
            svc.apply_mutations(&edge_batch(u, v), None);
        }
        let stats = svc.wal_stats().expect("durable service");
        assert_eq!(stats.appends, 5, "{stats:?}");
        assert!(
            stats.rotations > 0,
            "snapshots seal the active segment: {stats:?}"
        );
        svc.shutdown();

        let svc2 = start(&corpus, config);
        let report = svc2.recovery_report().expect("durable service").clone();
        assert_eq!(report.recovered_epoch, 5, "{report:?}");
        assert!(report.snapshot_epoch >= 2, "{report:?}");
        assert_eq!(
            report.replayed,
            5 - report.snapshot_epoch,
            "only the post-snapshot suffix replays: {report:?}"
        );
        svc2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Degraded scores are certified lower bounds: within `residual` of the
    /// exact score for every returned item.
    #[test]
    fn degraded_scores_stay_within_the_reported_residual() {
        let (corpus, w) = fixture();
        let svc = start(
            &corpus,
            ServiceConfig {
                shards: 1,
                ..ServiceConfig::default()
            },
        );
        let mut direct = ExactOnline::new(&corpus, MODEL);
        for level in [1u8, 2] {
            let bounds = Planner::degraded_bounds(level);
            for q in w.queries.iter().take(12) {
                let reply = svc
                    .submit(request(q).without_deadline().with_bounds(bounds))
                    .wait();
                assert!(reply.degraded);
                let got = reply.outcome.result().expect("done");
                let exact = direct.query(q);
                let by_id: std::collections::HashMap<u32, f32> =
                    exact.items.iter().copied().collect();
                for &(item, score) in &got.items {
                    let full = by_id.get(&item).copied().unwrap_or(0.0).max(score);
                    assert!(
                        (full as f64) - (score as f64) <= reply.residual + 1e-6,
                        "level {level} {q:?}: item {item} degraded {score} vs exact {full}, \
                         residual {}",
                        reply.residual
                    );
                }
            }
        }
        svc.shutdown();
    }
}
