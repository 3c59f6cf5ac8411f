//! One end-to-end run of one workload.
//!
//! A run is [`ROUNDS`] identical rounds, each a short slice of every phase
//! (solo, sat, write, recover, surge), and set-up is timed three times
//! spread over the run. The box this was calibrated on drops into a slow
//! mode (−40 % throughput, +30 % on memory-bound work) for seconds at a
//! time; with contiguous phases such a burst lands on one metric and ruins
//! it, with interleaved rounds it costs every metric a minority of its
//! samples, and the value taken over the passes ([`over_passes`]) does not
//! move.

use crate::driver::{self, Checker, Counts, PassReplies};
use crate::inputs::{Inputs, Spec, SEGMENT_READS};
use crate::report::{Outcome, PhaseReport};
use crate::stats::{median, over_passes, percentile};
use friends_core::corpus::Corpus;
use friends_core::plan::{PlanCounters, PlannedExecutor, Planner, ProcessorRegistry};
use friends_core::processors::ScoringStrategy;
use friends_core::proximity::SigmaBounds;
use friends_data::queries::Query;
use friends_data::ItemId;
use friends_service::{
    DurabilityConfig, LiveCorpus, OverloadPolicy, ServedClient, ServiceConfig, ServiceStats,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds per run. Every round yields at least one sample of every metric.
pub const ROUNDS: usize = 8;

/// Rounds that begin with one more timed set-up (a second instance, built,
/// warmed and dropped); with the initial one, `setup_s` is a median of
/// three taken seconds apart.
const SETUP_ROUNDS: [usize; 2] = [3, 6];

/// Block positions whose served rankings are checked against direct
/// execution.
pub const CHECKED_POSITIONS: usize = 200;

/// Shares of a round's time budget (`--seconds / ROUNDS`). The write and
/// the recovery of a round are fixed work and come on top.
const SOLO_SHARE: f64 = 0.35;
const SAT_SHARE: f64 = 0.35;
const SURGE_SHARE: f64 = 0.30;

pub struct RunConfig {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for durable state; created and removed by the run.
    pub dir: PathBuf,
}

/// Threads the service may use so that, with the driver, no more threads
/// run than the box has processors.
pub fn shard_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1)
}

/// `DurabilityConfig::new`: fsync every batch, no automatic snapshots —
/// recovery replays every batch of the run onto the seed snapshot.
fn durable(dir: &Path) -> Option<DurabilityConfig> {
    Some(DurabilityConfig::new(dir))
}

pub fn service_config(spec: &Spec, dir: &Path) -> ServiceConfig {
    ServiceConfig {
        shards: shard_count(),
        cache_bytes: spec.cache_bytes,
        result_cache_capacity: spec.result_cache,
        // Only `surge` requests carry a deadline, so only they can be shed
        // or degraded; every other reply must be `Done`.
        default_deadline: None,
        overload: Some(OverloadPolicy::default()),
        durability: if spec.mixed { durable(dir) } else { None },
        ..ServiceConfig::default()
    }
}

/// A started system: the service that answers reads and the service that
/// takes writes. In a `mixed` workload they are the same one. Elsewhere a
/// write would flush the very caches the workload is about, so writes go to
/// a second, durable, otherwise idle service over the same corpus (one
/// shard; its thread is parked except inside `apply_mutations`, when the
/// read service is idle in turn).
pub struct Instance {
    pub inputs: Inputs,
    pub reads: ServedClient,
    write_lane: Option<ServedClient>,
    dir: PathBuf,
    /// What a user waits for before the system answers at steady speed:
    /// corpus build, σ-index, service start (a durable one seeds its
    /// snapshot) and pass 0 over cold caches.
    pub setup: Duration,
    pub pass0: PassReplies,
}

impl Instance {
    pub fn start(spec: &Spec, seed: u64, dir: &Path) -> Instance {
        let _ = std::fs::remove_dir_all(dir);
        let started = Instant::now();
        let inputs = Inputs::generate(spec, seed);
        inputs.corpus.sigma_index();
        let reads = ServedClient::start(Arc::clone(&inputs.corpus), service_config(spec, dir));
        let write_lane = (!spec.mixed).then(|| {
            ServedClient::start(
                Arc::clone(&inputs.corpus),
                ServiceConfig {
                    shards: 1,
                    default_deadline: None,
                    durability: durable(dir),
                    ..ServiceConfig::default()
                },
            )
        });
        let (_, pass0) = driver::sat_pass(&reads, spec, &inputs.block, 0, &mut Checker::default());
        Instance {
            setup: started.elapsed(),
            inputs,
            reads,
            write_lane,
            dir: dir.to_path_buf(),
            pass0,
        }
    }

    /// The service writes go to.
    pub fn writes(&self) -> &ServedClient {
        self.write_lane.as_ref().unwrap_or(&self.reads)
    }

    /// The directory the write service logs to and recovery reads.
    pub fn durable_dir(&self) -> &Path {
        &self.dir
    }

    /// Stops both services and removes the durable state; returns the read
    /// service's final counters.
    pub fn shutdown(self) -> ServiceStats {
        if let Some(lane) = self.write_lane {
            lane.shutdown();
        }
        let stats = self.reads.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        stats
    }
}

/// Direct execution — no service, no cache — of the sampled block
/// positions on `corpus`: the reference every served ranking must equal.
pub fn expected_rankings(
    spec: &Spec,
    corpus: &Corpus,
    block: &[Query],
) -> BTreeMap<usize, Vec<(ItemId, f32)>> {
    let mut executor = PlannedExecutor::new(
        corpus,
        None,
        Arc::new(ProcessorRegistry::standard()),
        Planner::default(),
        Arc::new(PlanCounters::default()),
    );
    let stride = (block.len() / CHECKED_POSITIONS).max(1);
    (0..block.len())
        .step_by(stride)
        .take(CHECKED_POSITIONS)
        .map(|i| {
            let result = executor.execute(
                &block[i],
                spec.model,
                ScoringStrategy::Auto,
                None,
                SigmaBounds::EXACT,
            );
            (i, result.items)
        })
        .collect()
}

/// The read and write phases' state: where in the block and the batch list
/// the run is, and every per-pass value so far.
struct Phases<'a> {
    spec: &'a Spec,
    instance: &'a Instance,
    checker: Checker,
    writes: usize,
    segments: usize,
    sat_qps: Vec<f64>,
    solo_p50: Vec<f64>,
    solo_p90: Vec<f64>,
    write_ack_ms: Vec<f64>,
    sat: Counts,
    solo: Counts,
    errors: Vec<String>,
}

impl<'a> Phases<'a> {
    /// What one unit of reads covers: the whole block, or in `mixed` the
    /// next [`SEGMENT_READS`]-read segment — state moves forward with every
    /// write there, so the segment between two writes is what repeats.
    fn next_reads(&mut self) -> (usize, &'a [Query]) {
        let instance: &'a Instance = self.instance;
        let block = &instance.inputs.block;
        if !self.spec.mixed {
            return (0, block);
        }
        let count = (block.len() / SEGMENT_READS).max(1);
        let first = (self.segments % count) * SEGMENT_READS;
        self.segments += 1;
        (
            first,
            &block[first..(first + SEGMENT_READS).min(block.len())],
        )
    }

    /// Whether another unit can run: a `mixed` unit ends in a write.
    fn can_run(&self) -> bool {
        !self.spec.mixed || self.writes < self.instance.inputs.batches.len()
    }

    /// Applies the next batch through the write service; returns the call
    /// time in milliseconds.
    fn write(&mut self) -> f64 {
        let start = Instant::now();
        let outcome = self
            .instance
            .writes()
            .try_apply_mutations(&self.instance.inputs.batches[self.writes], None);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok(report) if report.wal.is_some_and(|w| w.synced) => {}
            Ok(_) => self.errors.push(format!(
                "write {} acknowledged without an fsynced WAL record",
                self.writes
            )),
            Err(e) => self
                .errors
                .push(format!("write {} failed: {e}", self.writes)),
        }
        self.writes += 1;
        if self.spec.mixed {
            // The epoch-0 references are stale from the first write on.
            self.checker.disable();
        }
        self.write_ack_ms.push(ms);
        ms
    }

    fn solo_unit(&mut self) {
        let (spec, instance) = (self.spec, self.instance);
        let (first, queries) = self.next_reads();
        let (round_trips, replies) =
            driver::solo_pass(&instance.reads, spec, queries, first, &mut self.checker);
        self.solo.add(replies.counts);
        self.solo_p50.push(percentile(&round_trips, 0.5));
        self.solo_p90.push(percentile(&round_trips, 0.9));
        if spec.mixed {
            self.write();
        }
    }

    fn sat_unit(&mut self) {
        let (spec, instance) = (self.spec, self.instance);
        let (first, queries) = self.next_reads();
        let reads = queries.len() as f64;
        let (time, replies) =
            driver::sat_pass(&instance.reads, spec, queries, first, &mut self.checker);
        self.sat.add(replies.counts);
        // In `mixed` the write stalls the reads, so it counts against them.
        let stall = if spec.mixed { self.write() / 1e3 } else { 0.0 };
        self.sat_qps.push(reads / (time.as_secs_f64() + stall));
    }
}

pub fn run(config: &RunConfig) -> Outcome {
    let spec = &config.spec;
    let instance = Instance::start(spec, config.seed, &config.dir.join("main"));
    let inputs = &instance.inputs;
    let mut setups = vec![instance.setup.as_secs_f64()];
    let mut p = Phases {
        spec,
        instance: &instance,
        checker: Checker::new(expected_rankings(spec, &inputs.corpus, &inputs.block)),
        writes: 0,
        segments: 0,
        sat_qps: Vec::new(),
        solo_p50: Vec::new(),
        solo_p90: Vec::new(),
        write_ack_ms: Vec::new(),
        sat: Counts::default(),
        solo: Counts::default(),
        errors: Vec::new(),
    };
    let round_budget = config.seconds / ROUNDS as f64;
    let solo_budget = Duration::from_secs_f64(round_budget * SOLO_SHARE);
    let sat_budget = Duration::from_secs_f64(round_budget * SAT_SHARE);
    let surge_burst = Duration::from_secs_f64(round_budget * SURGE_SHARE);
    let mut recover_ms = Vec::with_capacity(ROUNDS);
    let mut surge_goodput = Vec::with_capacity(ROUNDS);
    let mut surge_counts = Counts::default();
    let mut recovered = None;
    for round in 0..ROUNDS {
        if SETUP_ROUNDS.contains(&round) {
            let extra = Instance::start(spec, config.seed, &config.dir.join("extra"));
            setups.push(extra.setup.as_secs_f64());
            extra.shutdown();
        }
        let slice = Instant::now();
        while p.can_run() {
            p.solo_unit();
            if slice.elapsed() >= solo_budget {
                break;
            }
        }
        let slice = Instant::now();
        while p.can_run() {
            p.sat_unit();
            if slice.elapsed() >= sat_budget {
                break;
            }
        }
        if !spec.mixed {
            p.write();
        }
        let start = Instant::now();
        match LiveCorpus::recover(instance.durable_dir()) {
            Ok((live, report)) => {
                recover_ms.push(start.elapsed().as_secs_f64() * 1e3);
                let epoch = instance.writes().epoch();
                if report.replayed != p.writes as u64 || report.recovered_epoch != epoch {
                    p.errors.push(format!(
                        "round {round}: recovery replayed {} batches to epoch {}, the service applied {} to epoch {epoch}",
                        report.replayed, report.recovered_epoch, p.writes
                    ));
                }
                recovered = Some(live);
            }
            Err(e) => p
                .errors
                .push(format!("round {round}: recovery failed: {e}")),
        }
        let surge = driver::surge(
            &instance.reads,
            spec,
            &inputs.block,
            surge_burst,
            &mut p.checker,
        );
        surge_goodput.push(surge.goodput_qps);
        surge_counts.add(surge.counts);
    }
    let mut errors = std::mem::take(&mut p.errors);
    let checked_reads = p.checker.checked;
    if p.checker.mismatched > 0 {
        errors.push(format!(
            "{} of {} checked replies differ from direct execution",
            p.checker.mismatched, p.checker.checked
        ));
    }

    // The final epoch: served == direct == recovered, on the same sample.
    let snapshot = instance.writes().service().snapshot();
    let expected = expected_rankings(spec, &snapshot, &inputs.block);
    let mut checker = Checker::new(expected.clone());
    let mut final_counts = Counts::default();
    for &i in expected.keys() {
        let (_, replies) = driver::solo_pass(
            instance.writes(),
            spec,
            &inputs.block[i..=i],
            i,
            &mut checker,
        );
        final_counts.add(replies.counts);
    }
    if checker.mismatched > 0 || checker.checked != expected.len() as u64 {
        errors.push(format!(
            "final epoch: {} of {} replies checked, {} differ from direct execution",
            checker.checked,
            expected.len(),
            checker.mismatched
        ));
    }
    match recovered {
        Some(live) => {
            let again = expected_rankings(spec, &live.snapshot(), &inputs.block);
            let differing = expected
                .iter()
                .filter(|(i, want)| !driver::same_ranking(want, &again[i]))
                .count();
            if differing > 0 {
                errors.push(format!(
                    "the recovered corpus answers {differing} of {} sampled requests differently",
                    expected.len()
                ));
            }
        }
        None => errors.push("no recovery succeeded".to_string()),
    }

    let (solo, sat) = if spec.mixed {
        ("mixed_solo", "mixed_sat")
    } else {
        ("solo", "sat")
    };
    let phase = |name, counts, samples| PhaseReport {
        name,
        counts,
        samples,
    };
    let phases = vec![
        phase("pass0", instance.pass0.counts, setups.len()),
        phase(solo, p.solo, p.solo_p50.len()),
        phase(sat, p.sat, p.sat_qps.len()),
        phase("surge", surge_counts, surge_goodput.len()),
        phase("final_check", final_counts, expected.len()),
    ];
    for ph in &phases {
        if ph.counts.failed > 0 {
            errors.push(format!(
                "{}: {} of {} requests were not answered",
                ph.name, ph.counts.failed, ph.counts.attempted
            ));
        }
    }

    let values = BTreeMap::from([
        ("setup_s", median(&setups)),
        ("sat_qps", over_passes(&p.sat_qps, true)),
        ("solo_p50_us", over_passes(&p.solo_p50, false)),
        ("solo_p90_us", over_passes(&p.solo_p90, false)),
        ("surge_goodput_qps", over_passes(&surge_goodput, true)),
        ("write_ack_ms", over_passes(&p.write_ack_ms, false)),
        ("recover_ms", over_passes(&recover_ms, false)),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    let digest = inputs.digest;
    let checked = checked_reads + checker.checked;
    let writes = p.writes;
    drop(p);
    let totals = instance.shutdown().totals();
    let _ = std::fs::remove_dir_all(&config.dir);
    let notes = vec![format!(
        "read service: executed {} coalesced {} memo-served {} degraded {} deadline-missed {}; {writes} writes applied",
        totals.executed, totals.coalesced, totals.result_served, totals.degraded, totals.deadline_misses
    )];
    Outcome {
        traced: false,
        digest,
        values,
        phases,
        errors,
        checked,
        notes,
    }
}

/// `VmHWM` of this process in MB (10⁶ bytes): the peak resident set.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::SPECS;
    use crate::metrics::END_TO_END;

    /// Two seconds of each workload at 1/20 size: every phase runs, every
    /// check holds, every end-to-end metric has a positive value.
    #[test]
    fn smoke_every_workload_end_to_end() {
        for spec in &SPECS {
            let outcome = run(&RunConfig {
                spec: spec.shrunk(20),
                seed: 5,
                seconds: 2.0,
                dir: crate::out_dir().join(format!("smoke-e2e-{}", spec.name)),
            });
            assert_eq!(outcome.errors, Vec::<String>::new(), "{}", spec.name);
            assert!(outcome.checked > 0, "{} checked nothing", spec.name);
            for m in &END_TO_END {
                let v = outcome.values[m.name];
                assert!(v.is_finite() && v > 0.0, "{}/{} = {v}", spec.name, m.name);
            }
            for p in &outcome.phases {
                assert!(p.counts.attempted > 0, "{}/{} idle", spec.name, p.name);
                assert_eq!(p.counts.failed, 0, "{}/{}", spec.name, p.name);
            }
        }
    }
}
