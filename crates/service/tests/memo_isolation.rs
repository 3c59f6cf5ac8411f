//! One epoch per answer, with result-cache hits answered on the submitting
//! thread. A reader hammers `submit` on a 2-shard memoizing service — for
//! seekers inside and outside each batch's affected set, under tags each
//! batch touches and tags it leaves alone, under a σ-dependent model and
//! under `Global` — while a writer applies mutation batches. Checked:
//!
//! 1. every `Done` reply equals direct execution on one of the epochs
//!    published between its submit and its reply;
//! 2. once `apply_mutations` returns, the next submit for a seeker or tag
//!    the batch affected is answered on the new epoch, never from a
//!    pre-batch ranking;
//! 3. no ticket hangs.

use friends_core::corpus::Corpus;
use friends_core::plan::QueryRequest;
use friends_core::processors::{ExactOnline, Processor};
use friends_core::proximity::ProximityModel;
use friends_data::datasets::{DatasetSpec, Scale};
use friends_data::queries::{Query, QueryParams, QueryWorkload};
use friends_data::ItemId;
use friends_service::{
    LiveCorpus, MutationBatch, MutationParams, MutationStream, Outcome, Reply, SearchClient,
    ServedClient, ServiceConfig, Ticket,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PERSONAL: ProximityModel = ProximityModel::WeightedDecay { alpha: 0.5 };
const BATCHES: usize = 20;

type Ranking = Vec<(ItemId, f32)>;

/// Takes the ticket's reply, failing the test if it never arrives.
fn take(mut ticket: Ticket) -> Reply {
    let started = Instant::now();
    loop {
        if let Some(reply) = ticket.try_take() {
            return reply;
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "ticket {} hung",
            ticket.tag()
        );
        std::thread::sleep(Duration::from_micros(20));
    }
}

fn ranking(reply: Reply, context: &str) -> Ranking {
    match reply.outcome {
        Outcome::Done(result) => result.items,
        other => panic!("{context}: {other:?}"),
    }
}

#[test]
fn submit_side_hits_answer_from_exactly_one_epoch() {
    let ds = DatasetSpec::delicious_like(Scale::Tiny).build(8);
    let seed = Arc::new(Corpus::new(ds.graph, ds.store));
    let batches: Vec<MutationBatch> = MutationStream::generate(
        &seed.graph,
        &seed.store,
        &MutationParams {
            count: BATCHES * 8,
            ..MutationParams::default()
        },
        29,
    )
    .batches(8);
    assert!(batches.len() >= 16);

    // The epoch lineage, prepared offline exactly as the service will:
    // `epochs[e]` is the corpus epoch `e` publishes.
    let mirror = LiveCorpus::new(Arc::clone(&seed));
    let mut epochs = vec![Arc::clone(&seed)];
    let mut affected = Vec::new();
    for batch in &batches {
        let prepared = mirror.prepare(batch, None);
        epochs.push(Arc::clone(&prepared.next));
        affected.push((
            prepared.affected_seekers.clone(),
            prepared.touched_tags.clone(),
        ));
        mirror.publish(&prepared);
    }

    // The request pool: a generated workload plus, per batch, an affected
    // and (where one exists) an unaffected seeker under a tag it touched
    // and one it did not — each under both models.
    let mut pool: Vec<Query> = QueryWorkload::generate(
        &seed.graph,
        &seed.store,
        &QueryParams {
            count: 16,
            ..QueryParams::default()
        },
        5,
    )
    .queries;
    let num_tags = seed.store.num_tags();
    let nodes = 0..seed.graph.num_nodes() as u32;
    for (seekers, tags) in &affected {
        let inside = nodes.clone().find(|&u| seekers.contains(u));
        let outside = nodes.clone().find(|&u| !seekers.contains(u));
        let touched = tags.first().copied();
        let untouched = (0..num_tags).find(|t| tags.binary_search(t).is_err());
        for seeker in [inside, outside].into_iter().flatten() {
            for tag in [touched, untouched].into_iter().flatten() {
                pool.push(Query {
                    seeker,
                    tags: vec![tag],
                    k: 10,
                });
            }
        }
    }
    let requests: Vec<(Query, ProximityModel)> = pool
        .iter()
        .flat_map(|q| [(q.clone(), PERSONAL), (q.clone(), ProximityModel::Global)])
        .collect();
    // expected[e][i]: direct execution of request i on epoch e.
    let expected: Vec<Vec<Ranking>> = epochs
        .iter()
        .map(|corpus| {
            let mut personal = ExactOnline::new(corpus, PERSONAL);
            let mut global = ExactOnline::new(corpus, ProximityModel::Global);
            requests
                .iter()
                .map(|(q, model)| match model {
                    ProximityModel::Global => global.query(q).items,
                    _ => personal.query(q).items,
                })
                .collect()
        })
        .collect();
    let request = |i: usize| {
        let (q, model) = &requests[i];
        QueryRequest::from_query(q.clone())
            .with_model(*model)
            .without_deadline()
            .with_tag(i as u64)
    };

    let client = ServedClient::start(
        Arc::clone(&seed),
        ServiceConfig {
            shards: 2,
            result_cache_capacity: 4096,
            ..ServiceConfig::default()
        },
    );
    // Epochs whose apply has started / returned.
    let started = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let writing = AtomicBool::new(true);
    let (replies, discriminating) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut replies = 0u64;
            let mut passes = 0;
            while writing.load(Ordering::SeqCst) || passes < 2 {
                for i in 0..requests.len() {
                    let lo = done.load(Ordering::SeqCst) as usize;
                    let reply = take(client.submit(request(i)));
                    let hi = started.load(Ordering::SeqCst) as usize;
                    let got = ranking(reply, "reader");
                    assert!(
                        (lo..=hi).any(|e| expected[e][i] == got),
                        "request {i} {:?} answered outside epochs {lo}..={hi}",
                        requests[i]
                    );
                    replies += 1;
                }
                passes += 1;
            }
            replies
        });
        let mut discriminating = 0;
        for (b, batch) in batches.iter().enumerate() {
            let epoch = b + 1;
            // Let the reader memoize under the current epoch first.
            std::thread::sleep(Duration::from_millis(3));
            started.store(epoch as u64, Ordering::SeqCst);
            let report = client.apply_mutations(batch, None);
            assert_eq!(report.epoch, epoch as u64);
            done.store(epoch as u64, Ordering::SeqCst);
            let (seekers, tags) = &affected[b];
            for (i, (q, model)) in requests.iter().enumerate() {
                let seeker_hit = *model != ProximityModel::Global && seekers.contains(q.seeker);
                let tag_hit = q.tags.iter().any(|t| tags.binary_search(t).is_ok());
                if !(seeker_hit || tag_hit) {
                    continue;
                }
                let got = ranking(take(client.submit(request(i))), "after the ack");
                assert!(
                    got == expected[epoch][i],
                    "request {i} {:?} after epoch {epoch}'s ack: pre-batch ranking",
                    requests[i]
                );
                discriminating += u64::from(expected[epoch - 1][i] != expected[epoch][i]);
            }
        }
        writing.store(false, Ordering::SeqCst);
        (reader.join().expect("reader"), discriminating)
    });
    assert!(replies > 0);
    assert!(
        discriminating > 0,
        "no batch changed an affected ranking: the check has no teeth"
    );
    let totals = client.shutdown().totals();
    assert_eq!(totals.mutation_epoch, batches.len() as u64);
    assert!(totals.result_served > 0, "{totals:?}");
    assert!(totals.results.invalidated > 0, "{totals:?}");
}
