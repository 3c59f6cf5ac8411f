//! The crash-consistency proof: kill the WAL writer at **every byte
//! offset** of a multi-batch run (plus random bit flips and lying
//! flushes) and assert that recovery always lands on a clean *prefix* of
//! the applied batches — a corpus byte-identical, rankings included, to
//! an in-memory corpus replayed to the same epoch. No partial batch is
//! ever visible; corruption is reported, never fatal, whenever an older
//! consistent state exists.

use friends_core::processors::{ExactOnline, Processor};
use friends_core::proximity::ProximityModel;
use friends_core::{Corpus, DurabilityConfig, LiveCorpus};
use friends_data::io as snapio;
use friends_data::mutations::{MutationBatch, MutationParams, MutationStream};
use friends_data::queries::Query;
use friends_data::store::TagStore;
use friends_data::wal::fault::{FailMode, FailingFs};
use friends_data::wal::SyncPolicy;
use friends_graph::GraphBuilder;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const MODEL: ProximityModel = ProximityModel::WeightedDecay { alpha: 0.5 };

/// A small two-community corpus with tag postings — big enough that
/// rankings actually change under mutation, small enough to replay
/// hundreds of times.
fn seed_corpus() -> Arc<Corpus> {
    let graph = GraphBuilder::from_edges(
        12,
        [
            (0, 1, 1.0),
            (1, 2, 0.8),
            (0, 2, 0.5),
            (2, 3, 0.4),
            (3, 4, 1.0),
            (4, 5, 0.9),
            (5, 6, 0.7),
            (6, 7, 1.0),
            (8, 9, 1.0),
            (9, 10, 0.6),
        ],
    );
    let mut taggings = Vec::new();
    for user in 0..12u32 {
        for j in 0..3u32 {
            taggings.push(friends_data::Tagging {
                user,
                item: (user * 3 + j) % 20,
                tag: (user + j) % 5,
                weight: 1.0 + j as f32 * 0.5,
            });
        }
    }
    let store = TagStore::build(12, 20, 5, taggings);
    Arc::new(Corpus::new(graph, store))
}

/// The batch workload every crash case replays: deterministic, mixes
/// inserts, removals, taggings, and one empty batch (epoch bump with no
/// payload).
fn workload() -> Vec<MutationBatch> {
    let seed = seed_corpus();
    let stream = MutationStream::generate(
        &seed.graph,
        &seed.store,
        &MutationParams {
            count: 30,
            remove_fraction: 0.25,
            tagging_fraction: 0.3,
            ..MutationParams::default()
        },
        42,
    );
    let mut batches = stream.batches(3);
    batches.insert(2, MutationBatch::default());
    batches
}

/// Shadow lineage: corpus state after each batch, applied purely in
/// memory. `states[k]` is the corpus at epoch `k`.
fn shadow_states(batches: &[MutationBatch]) -> Vec<Arc<Corpus>> {
    let live = LiveCorpus::new(seed_corpus());
    let mut states = vec![live.snapshot()];
    for b in batches {
        live.commit(b, None, |_, _| ()).unwrap();
        states.push(live.snapshot());
    }
    states
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "friends-recovery-{}-{name}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Byte-identical corpus equality: structure and *rankings*.
fn assert_identical(recovered: &Arc<Corpus>, expected: &Arc<Corpus>, ctx: &str) {
    assert_eq!(recovered.epoch(), expected.epoch(), "{ctx}: epoch");
    assert_eq!(
        recovered.graph.num_edges(),
        expected.graph.num_edges(),
        "{ctx}: edge count"
    );
    for u in recovered.graph.nodes() {
        assert_eq!(
            recovered.graph.neighbors(u),
            expected.graph.neighbors(u),
            "{ctx}: neighbors of {u}"
        );
        assert_eq!(
            recovered.graph.neighbor_weights(u),
            expected.graph.neighbor_weights(u),
            "{ctx}: weights of {u}"
        );
    }
    assert_eq!(
        recovered.store.num_taggings(),
        expected.store.num_taggings(),
        "{ctx}: tagging count"
    );
    // Rankings: every (seeker, tag) answer must match bit for bit.
    for seeker in [0u32, 3, 6, 9] {
        for tag in 0..3u32 {
            let q = Query {
                seeker,
                tags: vec![tag],
                k: 8,
            };
            let a = ExactOnline::new(recovered, MODEL).query(&q).items;
            let b = ExactOnline::new(expected, MODEL).query(&q).items;
            assert_eq!(a, b, "{ctx}: ranking for seeker {seeker} tag {tag}");
        }
    }
}

/// Runs the workload against a durable corpus whose WAL writer is rigged
/// with `mode`; returns how many batches were acknowledged (committed
/// without error) before the injected failure. A failed commit must have
/// swept and published nothing: its sweep never ran, and the corpus still
/// serves the last acked epoch.
fn run_with_fault(dir: &PathBuf, mode: FailMode, sync: SyncPolicy) -> usize {
    let fs = Arc::new(FailingFs::new(mode));
    let cfg = DurabilityConfig {
        sync,
        ..DurabilityConfig::new(dir)
    };
    let live = LiveCorpus::open_durable_with_fs(seed_corpus(), cfg, fs).unwrap();
    let mut acked = 0;
    for b in workload() {
        let mut swept = false;
        match live.commit(&b, None, |_, _| swept = true) {
            Ok(()) => acked += 1,
            Err(_) => {
                // The process "died" here, at the durability point.
                assert!(!swept, "a failed commit ran its sweep");
                assert_eq!(
                    live.epoch(),
                    acked as u64,
                    "a failed commit published past the durability point"
                );
                assert_eq!(live.snapshot().epoch(), acked as u64);
                break;
            }
        }
    }
    acked
}

/// The tentpole proof. For every kill offset in the WAL byte stream:
/// recovery lands exactly on the acked prefix (SyncPolicy::Always means
/// durable == acked), byte-identical to the in-memory lineage at that
/// epoch, with crash artifacts reported and never fatal.
#[test]
fn kill_at_every_byte_offset_recovers_the_acked_prefix() {
    let batches = workload();
    let states = shadow_states(&batches);
    // Clean run to learn the total stream length.
    let dir = tmp_dir("probe");
    let probe_fs = Arc::new(FailingFs::new(FailMode::CrashAfter(u64::MAX)));
    {
        let live = LiveCorpus::open_durable_with_fs(
            seed_corpus(),
            DurabilityConfig::new(&dir),
            probe_fs.clone() as Arc<dyn friends_data::wal::WalFs>,
        )
        .unwrap();
        for b in &batches {
            live.commit(b, None, |_, _| ()).unwrap();
        }
    }
    let total = probe_fs.stream_position();
    std::fs::remove_dir_all(&dir).ok();
    assert!(total > 500, "workload must span many record boundaries");

    for offset in 0..=total {
        let dir = tmp_dir("kill");
        let acked = run_with_fault(&dir, FailMode::CrashAfter(offset), SyncPolicy::Always);
        assert!(
            acked < batches.len() || offset >= total,
            "offset {offset}: writer must die before finishing"
        );
        let (recovered, report) = LiveCorpus::recover(&dir)
            .unwrap_or_else(|e| panic!("offset {offset}: recovery failed: {e}"));
        assert_eq!(
            report.recovered_epoch, acked as u64,
            "offset {offset}: durable prefix must equal the acked prefix"
        );
        assert_eq!(report.replayed, acked as u64);
        let snap = recovered.snapshot();
        assert_identical(&snap, &states[acked], &format!("offset {offset}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A flipped bit anywhere in the WAL stream: recovery never panics,
    /// never serves the corrupted record or anything after it, and lands
    /// on a clean prefix of the lineage.
    #[test]
    fn bit_flips_recover_a_clean_prefix(offset in 0u64..6_000, bit in 0u8..8) {
        let batches = workload();
        let states = shadow_states(&batches);
        let dir = tmp_dir("flip");
        let acked = run_with_fault(
            &dir,
            FailMode::FlipBit { offset, bit },
            SyncPolicy::Always,
        );
        prop_assert_eq!(acked, batches.len(), "flips don't kill the writer");
        let (recovered, report) = LiveCorpus::recover(&dir)
            .map_err(|e| TestCaseError::fail(format!("recovery failed: {e}")))?;
        let k = report.recovered_epoch as usize;
        prop_assert!(k <= batches.len());
        let snap = recovered.snapshot();
        assert_identical(&snap, &states[k], &format!("flip @{offset}.{bit}"));
        // A flip inside the stream must be detected and reported.
        if report.recovered_epoch < batches.len() as u64 {
            prop_assert!(
                report.truncated_tail || report.corrupt_segments > 0,
                "lost epochs without a reported cause"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A disk that acknowledges fsyncs it then drops: only the honestly
    /// flushed prefix survives, and it is exactly batch-aligned.
    #[test]
    fn dropped_flushes_lose_only_the_unsynced_suffix(keep in 0u64..30) {
        let batches = workload();
        let states = shadow_states(&batches);
        let dir = tmp_dir("dropflush");
        let acked = run_with_fault(
            &dir,
            FailMode::DropSyncsAfter(keep),
            SyncPolicy::Always,
        );
        prop_assert_eq!(acked, batches.len(), "a lying disk reports success");
        let expected = (keep as usize).min(batches.len());
        let (recovered, report) = LiveCorpus::recover(&dir)
            .map_err(|e| TestCaseError::fail(format!("recovery failed: {e}")))?;
        prop_assert_eq!(
            report.recovered_epoch,
            expected as u64,
            "exactly the flushed batches survive"
        );
        let snap = recovered.snapshot();
        assert_identical(&snap, &states[expected], &format!("keep {keep}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A corrupt *newest snapshot* (any single-byte corruption anywhere in
    /// the file) degrades recovery to the older snapshot + retained WAL —
    /// which still rebuilds the full lineage, byte-identical.
    #[test]
    fn corrupt_newest_snapshot_still_rebuilds_everything(
        pos in 0usize..1 << 20,
        mask in 1u8..=255,
    ) {
        let batches = workload();
        let states = shadow_states(&batches);
        let dir = tmp_dir("snapfall");
        {
            let cfg = DurabilityConfig {
                snapshot_every: 4,
                ..DurabilityConfig::new(&dir)
            };
            let live = LiveCorpus::open_durable(seed_corpus(), cfg).unwrap();
            for b in &batches {
                live.commit(b, None, |_, _| ()).unwrap();
            }
        }
        let snaps = snapio::list_snapshots(&dir).unwrap();
        prop_assert!(snaps.len() >= 2, "need an older snapshot to fall back to");
        let newest = snaps.last().unwrap().1.clone();
        let mut bytes = std::fs::read(&newest).unwrap();
        let pos = pos % bytes.len();
        bytes[pos] ^= mask;
        std::fs::write(&newest, &bytes).unwrap();
        let (recovered, report) = LiveCorpus::recover(&dir)
            .map_err(|e| TestCaseError::fail(format!("recovery failed: {e}")))?;
        prop_assert_eq!(report.corrupt_snapshots, 1);
        prop_assert!(report.degraded());
        prop_assert_eq!(report.recovered_epoch, batches.len() as u64);
        let snap = recovered.snapshot();
        assert_identical(&snap, &states[batches.len()], &format!("snapflip @{pos}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Under `SyncPolicy::EveryN`/`Never` the contract weakens to "an
/// acknowledged suffix may be lost" — but recovery must still be a clean
/// batch prefix, never a torn batch.
#[test]
fn relaxed_sync_policies_still_recover_clean_prefixes() {
    let batches = workload();
    let states = shadow_states(&batches);
    for sync in [SyncPolicy::EveryN(4), SyncPolicy::Never] {
        // Kill mid-stream: with relaxed sync the acked count exceeds what
        // the "disk" kept, but CrashAfter persists raw bytes regardless of
        // sync, so the on-disk prefix is what recovery sees.
        let dir = tmp_dir("relaxed");
        let acked = run_with_fault(&dir, FailMode::CrashAfter(700), sync);
        let (recovered, report) = LiveCorpus::recover(&dir).unwrap();
        let k = report.recovered_epoch as usize;
        assert!(k <= acked, "{sync:?}: durable can not exceed acked");
        let snap = recovered.snapshot();
        assert_identical(&snap, &states[k], &format!("{sync:?}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
