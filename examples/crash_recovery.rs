//! Crash-safe live graph: kill a durable service mid-append, recover, and
//! verify nothing acknowledged was lost.
//!
//! A [`ServedClient`] started with `ServiceConfig::durability` writes
//! every acknowledged mutation batch to a checksummed write-ahead log
//! before the epoch publishes (`SyncPolicy::Always`: one fsync per batch),
//! and periodically checkpoints the whole `(graph, store, epoch)` state
//! into a checksummed snapshot. This example runs that lifecycle end to
//! end:
//!
//! 1. serve queries while mutation batches stream through the WAL,
//! 2. "crash" — shut down, then smear a torn half-record onto the WAL
//!    tail, exactly what a process death mid-`write` leaves behind,
//! 3. restart over the same directory with a deliberately *stale* seed
//!    corpus and print the [`RecoveryReport`]: which snapshot loaded, how
//!    many batches replayed, and that the torn tail was detected and cut,
//! 4. prove the recovered answers are byte-identical to from-scratch
//!    execution on the recovered snapshot.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use friends::prelude::*;
use std::io::Write as _;
use std::sync::Arc;

fn main() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("friends-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let ds = DatasetSpec::delicious_like(Scale::Small).build(42);
    let corpus = Arc::new(Corpus::new(ds.graph, ds.store));
    let queries = RequestStream::generate(
        &corpus.graph,
        &corpus.store,
        &RequestParams {
            count: 500,
            ..RequestParams::default()
        },
        11,
    )
    .queries();
    let muts = MutationStream::generate(
        &corpus.graph,
        &corpus.store,
        &MutationParams {
            count: 320,
            ..MutationParams::default()
        },
        11,
    );
    let model = ProximityModel::WeightedDecay { alpha: 0.5 };

    // Snapshot every 4 batches so the restart below exercises both halves
    // of recovery: snapshot load plus WAL replay of the suffix.
    let durability = {
        let mut d = DurabilityConfig::new(&dir);
        d.sync = SyncPolicy::Always;
        d.snapshot_every = 4;
        d
    };
    let config = ServiceConfig {
        shards: 2,
        durability: Some(durability),
        ..ServiceConfig::default()
    };

    let client = ServedClient::start(Arc::clone(&corpus), config.clone());
    client.search(&queries, model);
    println!("epoch | mutations | wal bytes | fsynced");
    for batch in muts.batches(32) {
        let report: MutationReport = client.apply_mutations(&batch);
        let wal = report.wal.expect("durable service returns a WAL receipt");
        println!(
            "{:>5} | {:>9} | {:>9} | {}",
            report.epoch, report.mutations, wal.bytes, wal.synced
        );
    }
    let final_epoch = client.epoch();
    let expect = client.service().snapshot();
    client.shutdown();

    // The crash: a process death mid-append leaves a torn record on the
    // WAL tail — a length prefix promising more bytes than ever hit the
    // disk. Recovery must cut it, not trip over it.
    let tail = newest_wal_segment(&dir);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&tail)
        .expect("open WAL tail");
    f.write_all(&[0xEE; 7]).expect("smear torn record");
    drop(f);
    println!("\ncrash: tore the tail of {}", tail.display());

    // Restart over the same directory, seeding with the *stale* pre-crash
    // corpus: the disk state wins, not the argument.
    let client = ServedClient::start(Arc::clone(&corpus), config);
    let report: &RecoveryReport = client.recovery_report().expect("durable service");
    println!(
        "recovered: snapshot epoch {} + {} replayed batches -> epoch {} \
         ({} WAL bytes in {:.1} ms; torn tail cut: {}; degraded: {})",
        report.snapshot_epoch,
        report.replayed,
        report.recovered_epoch,
        report.wal_bytes,
        report.elapsed_ms,
        report.truncated_tail,
        report.degraded(),
    );
    assert_eq!(report.recovered_epoch, final_epoch, "acked batches lost");
    assert!(report.truncated_tail, "the torn record went undetected");

    // Byte-identical serving: every post-recovery answer equals
    // from-scratch execution on the pre-crash snapshot.
    let served = client.search(&queries, model);
    for (q, r) in queries.iter().zip(&served) {
        let direct = ExactOnline::new(&expect, model).query(q);
        assert_eq!(r.items, direct.items, "recovered answer diverged: {q:?}");
    }
    println!(
        "verified: {} post-recovery answers byte-identical to the pre-crash corpus",
        served.len()
    );
    client.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The lexically-last `wal-*.log` under `<dir>/wal/` — segment names
/// embed the first epoch, so lexical order is epoch order.
fn newest_wal_segment(dir: &std::path::Path) -> std::path::PathBuf {
    let mut segments: Vec<_> = std::fs::read_dir(dir.join("wal"))
        .expect("read durability dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "log")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    segments.sort();
    segments.pop().expect("durable service left no WAL segment")
}
