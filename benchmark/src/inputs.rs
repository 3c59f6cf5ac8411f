//! The four workloads and the generators that build their inputs from
//! `--seed`. The generator *recipes* (corpus shapes, request mixes) are
//! owned here — copied from `friends_bench::{serving_corpus,
//! overload_corpus, distinct_seeker_workload}` — so the program under test
//! sees only generated inputs, and a refactor of the bench crate cannot
//! move the workload. The primitives they call (`friends_graph::generators`,
//! `friends_data::generator`, `RequestStream`, `MutationStream`) are product
//! code; the input digest catches a change in those.

use crate::digest::Fnv;
use friends_core::corpus::Corpus;
use friends_core::proximity::ProximityModel;
use friends_data::generator::{generate, WorkloadParams};
use friends_data::mutations::{MutationBatch, MutationParams, MutationStream};
use friends_data::queries::Query;
use friends_data::requests::{RequestParams, RequestStream};
use friends_graph::generators::{self, WeightModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The seed `run` uses when none is given; its input digests are pinned.
pub const DEFAULT_SEED: u64 = 42;

/// Mutations per write batch (one epoch step, one WAL record).
pub const WRITE_BATCH: usize = 64;

/// Reads between two writes in the `mixed` phases.
pub const SEGMENT_READS: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorpusKind {
    /// Few heavy tags (64), 100 taggings per user: long posting lists, so a
    /// request's cost is scoring. fig10/fig11 regime.
    Serving,
    /// Many light tags, 20 taggings per user: posting scans are cheap and a
    /// request's cost is the whole-graph σ traversal. fig12–fig15 regime.
    Overload,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BlockKind {
    /// `RequestStream` with Zipf-skewed seekers: heavy repetition.
    Zipf { theta: f64 },
    /// Every request a different seeker, light-tail tags: no repetition.
    Distinct,
}

/// One workload: inputs, service posture and the absolute constants of its
/// paced phase. Nothing here is derived from a measurement taken in the run.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub corpus: CorpusKind,
    pub users: usize,
    pub block_kind: BlockKind,
    pub block_len: usize,
    pub model: ProximityModel,
    /// `ServiceConfig::result_cache_capacity` (0 = memoization off).
    pub result_cache: usize,
    /// `ServiceConfig::cache_bytes` of the shard's σ cache.
    pub cache_bytes: usize,
    /// Offered rate of the open-loop `surge` phase, requests per second.
    pub surge_rate: f64,
    /// Write batches generated. Outside `mixed` one is applied per round;
    /// in `mixed` every read segment ends in one, as many as the time
    /// budget takes, so the pool is generous.
    pub write_batches: usize,
    /// Whether reads run as `mixed` segments with a write between them.
    pub mixed: bool,
    /// `input_digest` under [`DEFAULT_SEED`]. A run with the default seed
    /// fails when its digest differs: some generator changed, and the
    /// numbers would no longer be comparable with earlier ones.
    pub pinned_digest: u64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "memo_hot",
        why: "Zipf repeats with a result cache that fits: after warm-up every request is a memo hit, so only friends_service (hop, dispatch, memo get, trace/latency offer) works",
        corpus: CorpusKind::Serving,
        users: 10_000,
        block_kind: BlockKind::Zipf { theta: 1.1 },
        block_len: 4_000,
        model: ProximityModel::DistanceDecay { alpha: 0.3 },
        result_cache: 65_536,
        cache_bytes: 64 << 20,
        surge_rate: 60_000.0,
        write_batches: 8,
        mixed: false,
        pinned_digest: 0xc0ef_1a0f_3402_d33e,
    },
    Spec {
        name: "scan_heavy",
        why: "same corpus, near-distinct seekers, result cache off, sigma cache fits: sigma is a ProximityCache hit and friends_index (block decode, skip, block-max WAND) does most of the work",
        corpus: CorpusKind::Serving,
        users: 10_000,
        // A flat seeker skew: with Zipf(1.1) a handful of seekers carry the
        // block, a request costs up to 50x more or less with the tags it
        // names, and p50 becomes a property of the seed. Over ~1 000 seekers
        // the cost distribution is the corpus's, whatever the seed.
        block_kind: BlockKind::Zipf { theta: 0.6 },
        block_len: 1_000,
        model: ProximityModel::DistanceDecay { alpha: 0.3 },
        result_cache: 0,
        // ~1 000 whole-graph sigma snapshots of ~120 KB each.
        cache_bytes: 192 << 20,
        surge_rate: 2_500.0,
        write_batches: 8,
        mixed: false,
        pinned_digest: 0x4236_0da3_32f0_19f6,
    },
    Spec {
        name: "cold_sigma",
        why: "distinct seekers over light tags with a sigma cache far below the working set: every request pays graph traversal, snapshot and cache insert/evict, the index little",
        corpus: CorpusKind::Overload,
        users: 10_000,
        block_kind: BlockKind::Distinct,
        block_len: 256,
        model: ProximityModel::WeightedDecay { alpha: 0.5 },
        result_cache: 0,
        cache_bytes: 4 << 20,
        surge_rate: 1_000.0,
        write_batches: 8,
        mixed: false,
        pinned_digest: 0x1dca_9866_a8b2_664f,
    },
    Spec {
        name: "live_durable",
        why: "Zipf reads with a fsynced 64-mutation write every 256 reads, then recovery: with_edits, with_appends, sigma-index re-warm, cache sweeps and WAL sit beside the read path",
        corpus: CorpusKind::Overload,
        users: 10_000,
        block_kind: BlockKind::Zipf { theta: 1.4 },
        block_len: 8_192,
        model: ProximityModel::WeightedDecay { alpha: 0.5 },
        result_cache: 65_536,
        cache_bytes: 64 << 20,
        surge_rate: 300.0,
        write_batches: 128,
        mixed: true,
        pinned_digest: 0x849e_0df3_25cc_bc08,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The same workload at `1/divisor` size (users and block), for the
    /// smoke tests.
    #[cfg(test)]
    pub fn shrunk(&self, divisor: usize) -> Spec {
        Spec {
            users: (self.users / divisor).max(200),
            block_len: (self.block_len / divisor).max(64),
            ..*self
        }
    }
}

/// Everything a run feeds the program, generated from the seed alone.
pub struct Inputs {
    pub corpus: Arc<Corpus>,
    /// The request block every pass replays.
    pub block: Vec<Query>,
    /// Write batches, generated against the seed corpus.
    pub batches: Vec<MutationBatch>,
    /// FNV-1a over graph, taggings, block and batches.
    pub digest: u64,
}

fn build_corpus(kind: CorpusKind, users: usize, seed: u64) -> Corpus {
    let base = generators::barabasi_albert(users, 8, seed);
    let graph = generators::assign_weights(&base, WeightModel::Jaccard { floor: 0.1 }, seed);
    let params = match kind {
        CorpusKind::Serving => WorkloadParams {
            num_items: (users * 5) as u32,
            num_tags: 64,
            mean_taggings_per_user: 100.0,
            item_theta: 1.1,
            tag_theta: 1.0,
            homophily: 0.5,
            weighted: true,
        },
        CorpusKind::Overload => WorkloadParams {
            num_items: (users * 2) as u32,
            num_tags: (users / 16).max(64) as u32,
            mean_taggings_per_user: 20.0,
            item_theta: 1.1,
            tag_theta: 1.0,
            homophily: 0.5,
            weighted: true,
        },
    };
    let store = generate(&graph, &params, seed);
    Corpus::new(graph, store)
}

/// `count` requests with pairwise distinct seekers spread over the whole
/// user universe, 1–2 tags from the lighter half of the tag ranking.
fn distinct_seeker_block(corpus: &Corpus, count: usize, k: usize, seed: u64) -> Vec<Query> {
    let users = corpus.num_users() as usize;
    assert!(
        count <= users,
        "cannot draw {count} distinct seekers from {users}"
    );
    let mut by_len: Vec<u32> = (0..corpus.store.num_tags())
        .filter(|&t| !corpus.store.tag_taggings(t).is_empty())
        .collect();
    assert!(!by_len.is_empty(), "corpus has no used tag");
    // Stable sort: ties keep tag-id order, so the pool does not depend on
    // the sort algorithm.
    by_len.sort_by_key(|&t| corpus.store.tag_taggings(t).len());
    by_len.truncate((by_len.len() / 2).max(2));
    let pool = by_len;
    let stride = (users / 2 + 1) | 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = vec![false; users];
    let mut seeker = rng.gen_range(0..users);
    let mut queries = Vec::with_capacity(count);
    for i in 0..count {
        while seen[seeker] {
            seeker = (seeker + 1) % users;
        }
        seen[seeker] = true;
        let mut tags = vec![pool[rng.gen_range(0..pool.len())]];
        if pool.len() > 1 && rng.gen_bool(0.5) {
            tags.push(pool[rng.gen_range(0..pool.len())]);
            tags.sort_unstable();
            tags.dedup();
        }
        queries.push(Query {
            seeker: seeker as u32,
            tags,
            k,
        });
        seeker = (seeker + stride * (1 + i % 3)) % users;
    }
    queries
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let corpus = build_corpus(spec.corpus, spec.users, seed);
        let block = match spec.block_kind {
            BlockKind::Zipf { theta } => RequestStream::generate(
                &corpus.graph,
                &corpus.store,
                &RequestParams {
                    count: spec.block_len,
                    seeker_theta: theta,
                    ..RequestParams::default()
                },
                seed ^ 0xB10C,
            )
            .queries(),
            BlockKind::Distinct => {
                distinct_seeker_block(&corpus, spec.block_len, 10, seed ^ 0xB10C)
            }
        };
        assert_eq!(block.len(), spec.block_len, "generator fell short");
        let batches = MutationStream::generate(
            &corpus.graph,
            &corpus.store,
            &MutationParams {
                count: spec.write_batches * WRITE_BATCH,
                user_theta: 1.1,
                ..MutationParams::default()
            },
            seed ^ 0x3D17,
        )
        .batches(WRITE_BATCH);
        let mut h = Fnv::default();
        h.graph(&corpus.graph);
        h.store(&corpus.store);
        h.queries(&block);
        h.batches(&batches);
        Inputs {
            corpus: Arc::new(corpus),
            block,
            batches,
            digest: h.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = spec("cold_sigma").unwrap().shrunk(20);
        let a = Inputs::generate(&spec, 7);
        let b = Inputs::generate(&spec, 7);
        let c = Inputs::generate(&spec, 8);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.block, b.block);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn distinct_block_never_repeats_a_seeker() {
        let spec = spec("cold_sigma").unwrap().shrunk(20);
        let inputs = Inputs::generate(&spec, 3);
        let mut seekers: Vec<u32> = inputs.block.iter().map(|q| q.seeker).collect();
        seekers.sort_unstable();
        seekers.dedup();
        assert_eq!(seekers.len(), inputs.block.len());
    }

    #[test]
    fn batches_are_full_and_as_many_as_the_spec_says() {
        let spec = spec("live_durable").unwrap().shrunk(20);
        let inputs = Inputs::generate(&spec, 3);
        assert_eq!(inputs.batches.len(), spec.write_batches);
        assert!(inputs.batches.iter().all(|b| b.len() == WRITE_BATCH));
    }
}
