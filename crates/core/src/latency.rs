//! Latency truth: lock-free log-bucketed histograms for per-stage tail
//! percentiles.
//!
//! The paper's serving claims are tail claims (zero deadline misses,
//! "degraded holds p99 inside the deadline"), so the measurement substrate
//! has to report percentiles, not means — and it has to do so without
//! perturbing the µs-scale hot path it measures. A [`LatencyRecorder`] is a
//! fixed-size histogram of `AtomicU64` buckets: recording one sample is a
//! bucket-index computation (a `leading_zeros` and a shift) plus four
//! relaxed `fetch_add`s — no locks, no allocation, safely shared across
//! shard worker threads.
//!
//! ## Bucket scheme
//!
//! Values are nanoseconds. The first `SUB` (16) buckets are identity
//! buckets (one per nanosecond); above that, each power-of-two octave splits
//! into `SUB` linear sub-buckets, so the bucket holding a value `v` is never
//! wider than `v / SUB`. Every quantile read from the histogram therefore
//! brackets the exact sample quantile within a relative error of
//! `1/SUB = 6.25%` (pinned by `tests/proptest_latency.rs`). Values at or
//! above `2^MAX_EXP` ns (~18 minutes) clamp into the last bucket — far past
//! any deadline this system serves under.
//!
//! ## Stages
//!
//! [`StageLatencies`] bundles one recorder per request-lifecycle stage:
//!
//! * **queue wait** — submission to dispatch (time spent queued), for
//!   every *queued* request;
//! * **σ materialization** — resolving the seeker's proximity vector
//!   (cache probe + materialization), reported by the processor;
//! * **scoring** — posting traversal and top-k maintenance, reported by
//!   the processor;
//! * **end-to-end** — submission to reply.
//!
//! Stage counts are independent: coalesced and memo-served requests have an
//! end-to-end latency but no σ/scoring execution of their own, so the
//! execution stages count *executions* while the lifecycle stages count
//! *requests* — end-to-end every answered one, queue wait every queued one
//! (a memo hit answered on the submitting thread never queues).
//!
//! Snapshots are plain data, mergeable in any grouping (merge is a
//! bucket-wise sum, so it is associative and commutative); aggregation
//! paths merge in shard-index order to keep reports deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sub-bucket resolution bits: `2^SUB_BITS` linear sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave; also the relative-error denominator.
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above `2^MAX_EXP` ns clamp into the last bucket.
const MAX_EXP: u32 = 40;
/// Total bucket count: `SUB` identity buckets plus `SUB` per octave.
pub const NUM_BUCKETS: usize = (SUB + (MAX_EXP - SUB_BITS) as u64 * SUB) as usize;

/// Bucket index of a nanosecond value (total order, clamped at the top).
#[inline]
fn bucket_index(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros(); // >= SUB_BITS
    if e >= MAX_EXP {
        return NUM_BUCKETS - 1;
    }
    let shift = e - SUB_BITS;
    let sub = (ns >> shift) - SUB; // 0..SUB within the octave
    (SUB + (shift as u64) * SUB + sub) as usize
}

/// `[lo, hi)` nanosecond range of a bucket (the last bucket is unbounded
/// above `2^MAX_EXP`; its `hi` is `u64::MAX`).
#[inline]
fn bucket_bounds(index: usize) -> (u64, u64) {
    let i = index as u64;
    if i < SUB {
        return (i, i + 1);
    }
    if index == NUM_BUCKETS - 1 {
        return (1u64 << MAX_EXP, u64::MAX);
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    let lo = (SUB + sub) << shift;
    (lo, lo + (1u64 << shift))
}

/// Nanoseconds since `since`, saturating (the monotonic clock cannot go
/// backwards, so this only guards against `u128 → u64` overflow).
#[inline]
pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A lock-free log-bucketed latency histogram. Recording is wait-free
/// (relaxed atomics); reading takes a [`LatencySnapshot`]. One recorder is
/// ~4.7 KiB and is meant to be owned per shard and merged at read time.
pub struct LatencyRecorder {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl LatencyRecorder {
    pub fn new() -> Self {
        LatencyRecorder {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one sample given directly in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram. Concurrent recording keeps
    /// going; a snapshot taken mid-record may be ahead or behind by the
    /// in-flight samples, never torn within a bucket.
    pub fn snapshot(&self) -> LatencySnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        LatencySnapshot {
            count: buckets.iter().sum(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder::new()
    }
}

impl std::fmt::Debug for LatencyRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyRecorder")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("max_ns", &self.max_ns.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Plain-data copy of a [`LatencyRecorder`]: mergeable, queryable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Bucket counts, trailing zeros trimmed.
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl LatencySnapshot {
    /// Samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Mean of all samples ([`Duration::ZERO`] when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_ns / self.count)
    }

    /// Folds another snapshot in (bucket-wise sum — associative and
    /// commutative, so any merge grouping yields the same totals; callers
    /// iterate shards in index order anyway for deterministic reports).
    pub fn merge(&mut self, other: &LatencySnapshot) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The `[lo, hi]` nanosecond range of the bucket holding the
    /// `ceil(q·count)`-th smallest sample (nearest-rank, the same rank a
    /// sorted-sample quantile would pick). The exact sample quantile is
    /// guaranteed to lie inside, and `hi ≤ lo + max(1, lo/16)`.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                // The last bucket is unbounded: its `hi` of `u64::MAX` is
                // inclusive, every other bucket's is exclusive.
                let hi_incl = if i == NUM_BUCKETS - 1 { hi } else { hi - 1 };
                return (lo, hi_incl.min(self.max_ns));
            }
        }
        (self.max_ns, self.max_ns) // unreachable: count = Σ buckets
    }

    /// Point estimate of the `q`-quantile: the upper bound of its bucket,
    /// capped at the observed maximum (pessimistic, so an SLO check that
    /// passes on the estimate passes on the truth).
    pub fn quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.quantile_bounds(q).1)
    }

    /// Median.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> Duration {
        self.quantile(0.999)
    }

    /// Registers this snapshot's count, percentiles, max and mean under
    /// `<name>_count` / `<name>_{p50,p99,p999,max,mean}_us`. `name` is the
    /// full metric prefix (e.g. `friends_stage_queue_wait`), so the CI
    /// tail-latency gate reads `friends_stage_queue_wait_p99_us`.
    pub fn register_into(&self, registry: &mut crate::metrics::MetricsRegistry, name: &str) {
        let us = |d: Duration| d.as_nanos() as f64 / 1e3;
        registry.counter(&format!("{name}_count"), "samples recorded", self.count);
        registry.gauge(&format!("{name}_p50_us"), "median latency", us(self.p50()));
        registry.gauge(&format!("{name}_p99_us"), "p99 latency", us(self.p99()));
        registry.gauge(&format!("{name}_p999_us"), "p999 latency", us(self.p999()));
        registry.gauge(&format!("{name}_max_us"), "max latency", us(self.max()));
        registry.gauge(&format!("{name}_mean_us"), "mean latency", us(self.mean()));
    }
}

/// One request-lifecycle stage. The set is closed by design: these are the
/// stages every serving-tier report and gate reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Submission → dispatch (time spent queued); counts every *queued*
    /// request.
    QueueWait,
    /// Resolving the seeker's σ vector (cache probe + materialization).
    Sigma,
    /// Posting traversal and top-k maintenance.
    Scoring,
    /// Submission → reply.
    EndToEnd,
}

/// Every stage, in reporting order.
pub const STAGES: [Stage; 4] = [
    Stage::QueueWait,
    Stage::Sigma,
    Stage::Scoring,
    Stage::EndToEnd,
];

impl Stage {
    /// Stable short name used in report columns and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Sigma => "sigma",
            Stage::Scoring => "scoring",
            Stage::EndToEnd => "e2e",
        }
    }
}

/// One [`LatencyRecorder`] per lifecycle stage. Queue wait counts every
/// *queued* request, end-to-end every answered one, σ and scoring every
/// execution.
#[derive(Debug, Default)]
pub struct StageLatencies {
    queue_wait: LatencyRecorder,
    sigma: LatencyRecorder,
    scoring: LatencyRecorder,
    e2e: LatencyRecorder,
}

impl StageLatencies {
    pub fn new() -> Self {
        StageLatencies::default()
    }

    /// The recorder of one stage.
    pub fn stage(&self, stage: Stage) -> &LatencyRecorder {
        match stage {
            Stage::QueueWait => &self.queue_wait,
            Stage::Sigma => &self.sigma,
            Stage::Scoring => &self.scoring,
            Stage::EndToEnd => &self.e2e,
        }
    }

    /// Records one sample into a stage.
    #[inline]
    pub fn record(&self, stage: Stage, d: Duration) {
        self.stage(stage).record(d);
    }

    /// Records one sample (nanoseconds) into a stage.
    #[inline]
    pub fn record_ns(&self, stage: Stage, ns: u64) {
        self.stage(stage).record_ns(ns);
    }

    /// Snapshots every stage.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            queue_wait: self.queue_wait.snapshot(),
            sigma: self.sigma.snapshot(),
            scoring: self.scoring.snapshot(),
            e2e: self.e2e.snapshot(),
        }
    }
}

/// Plain-data per-stage snapshots; mergeable like the underlying
/// [`LatencySnapshot`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    pub queue_wait: LatencySnapshot,
    pub sigma: LatencySnapshot,
    pub scoring: LatencySnapshot,
    pub e2e: LatencySnapshot,
}

impl StageSnapshot {
    /// One stage's snapshot.
    pub fn get(&self, stage: Stage) -> &LatencySnapshot {
        match stage {
            Stage::QueueWait => &self.queue_wait,
            Stage::Sigma => &self.sigma,
            Stage::Scoring => &self.scoring,
            Stage::EndToEnd => &self.e2e,
        }
    }

    /// True when no stage recorded anything.
    pub fn is_empty(&self) -> bool {
        STAGES.iter().all(|&s| self.get(s).is_empty())
    }

    /// Folds another snapshot in, stage by stage.
    pub fn merge(&mut self, other: &StageSnapshot) {
        self.queue_wait.merge(&other.queue_wait);
        self.sigma.merge(&other.sigma);
        self.scoring.merge(&other.scoring);
        self.e2e.merge(&other.e2e);
    }

    /// Registers every stage under `friends_stage_<stage>_*` (see
    /// [`LatencySnapshot::register_into`] for the per-stage keys).
    pub fn register_into(&self, registry: &mut crate::metrics::MetricsRegistry) {
        for &stage in &STAGES {
            self.get(stage)
                .register_into(registry, &format!("friends_stage_{}", stage.name()));
        }
    }
}

/// Pooling across shards is a fold over [`StageSnapshot::merge`], which is
/// bucket-wise and therefore order-independent — `Sum` makes that fold a
/// one-liner and `proptest_latency.rs` pins the order-independence.
impl std::iter::Sum for StageSnapshot {
    fn sum<I: Iterator<Item = StageSnapshot>>(iter: I) -> Self {
        iter.fold(StageSnapshot::default(), |mut acc, s| {
            acc.merge(&s);
            acc
        })
    }
}

impl<'a> std::iter::Sum<&'a StageSnapshot> for StageSnapshot {
    fn sum<I: Iterator<Item = &'a StageSnapshot>>(iter: I) -> Self {
        iter.fold(StageSnapshot::default(), |mut acc, s| {
            acc.merge(s);
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let mut last = 0usize;
        for ns in (0u64..4096).chain((12..63).map(|e| (1u64 << e) + (1 << (e - 2)))) {
            let i = bucket_index(ns);
            assert!(i >= last, "index regressed at {ns}: {i} < {last}");
            assert!(i < NUM_BUCKETS);
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_invert_the_index() {
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo < hi, "bucket {i}: empty range");
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi - 1), i, "hi-1 of bucket {i}");
            if i + 1 < NUM_BUCKETS {
                assert_eq!(bucket_index(hi), i + 1, "hi of bucket {i}");
            }
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for i in SUB as usize..NUM_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            assert!(
                (hi - lo) as f64 / lo as f64 <= 1.0 / SUB as f64 + 1e-12,
                "bucket {i} [{lo},{hi}) wider than 1/{SUB} relative"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let r = LatencyRecorder::new();
        for ns in [0u64, 1, 7, 15, 16, 31] {
            r.record_ns(ns);
        }
        let s = r.snapshot();
        assert_eq!(s.count(), 6);
        // Identity buckets: sub-16ns quantiles are exact.
        assert_eq!(s.quantile_bounds(1.0 / 6.0), (0, 0));
        assert_eq!(s.quantile_bounds(0.5), (7, 7));
        assert_eq!(s.max(), Duration::from_nanos(31));
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = LatencyRecorder::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), Duration::ZERO);
        assert_eq!(s.p999(), Duration::ZERO);
        assert_eq!(s.max(), Duration::ZERO);
        assert_eq!(s.mean(), Duration::ZERO);
    }

    #[test]
    fn saturated_top_bucket_still_answers() {
        let r = LatencyRecorder::new();
        r.record_ns(u64::MAX); // clamps into the last bucket
        r.record(Duration::from_secs(3600));
        let s = r.snapshot();
        assert_eq!(s.count(), 2);
        let (lo, hi) = s.quantile_bounds(0.99);
        assert_eq!(lo, 1u64 << MAX_EXP);
        assert_eq!(hi, u64::MAX); // capped at the observed max
        assert_eq!(s.max(), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let r = LatencyRecorder::new();
        let mut x = 1u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            r.record_ns(x >> 44); // ~0..1M ns
        }
        let s = r.snapshot();
        let mut last = Duration::ZERO;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = s.quantile(q);
            assert!(v >= last, "quantile({q}) = {v:?} < {last:?}");
            last = v;
        }
        assert!(s.quantile(1.0) <= s.max());
    }

    #[test]
    fn merge_is_a_bucketwise_sum() {
        let a = LatencyRecorder::new();
        let b = LatencyRecorder::new();
        let all = LatencyRecorder::new();
        for ns in [3u64, 900, 40_000, 1 << 22] {
            a.record_ns(ns);
            all.record_ns(ns);
        }
        for ns in [17u64, 2_000_000, 5] {
            b.record_ns(ns);
            all.record_ns(ns);
        }
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab, all.snapshot());
        assert_eq!(ab, ba, "merge must be commutative");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let r = Arc::new(LatencyRecorder::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        r.record_ns(t * 1000 + i % 977);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.count(), 40_000);
    }

    #[test]
    fn stage_snapshot_round_trip() {
        let stages = StageLatencies::new();
        stages.record(Stage::QueueWait, Duration::from_micros(3));
        stages.record(Stage::Sigma, Duration::from_micros(40));
        stages.record(Stage::Scoring, Duration::from_micros(120));
        stages.record(Stage::EndToEnd, Duration::from_micros(170));
        let s = stages.snapshot();
        assert!(!s.is_empty());
        for &stage in &STAGES {
            assert_eq!(s.get(stage).count(), 1, "{}", stage.name());
        }
        let mut doubled = s.clone();
        doubled.merge(&s);
        assert_eq!(doubled.e2e.count(), 2);
        assert_eq!(doubled.e2e.max(), s.e2e.max());
    }
}
