//! Write-workload generation: timed mutation streams for the live graph.
//!
//! The query-side generators ([`crate::requests`]) model the read traffic of
//! a social-search tier; this module models the *write* traffic that arrives
//! interleaved with it — friend edges forming and dissolving, and new tag
//! annotations being posted. The same principles apply: everything is
//! deterministic in the seed, endpoints are Zipf-skewed (active users both
//! query and mutate more), and arrivals follow a fixed open-loop schedule so
//! a write stream can be replayed against a serving tier at a controlled
//! fraction of the query rate (the fig14 regime).

use crate::store::TagStore;
use crate::zipf::Zipf;
use crate::{Tagging, UserId};
use friends_graph::{CsrGraph, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Duration;

/// One corpus mutation. Edge mutations target the friendship graph; tagging
/// appends target the posting store. Removing an absent edge is a no-op,
/// and inserting an existing edge replaces its weight (see
/// [`CsrGraph::with_edits`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Insert (or re-weight) the undirected friend edge `{u, v}`.
    InsertEdge { u: NodeId, v: NodeId, weight: f32 },
    /// Remove the undirected friend edge `{u, v}` if present.
    RemoveEdge { u: NodeId, v: NodeId },
    /// Append one tagging to the posting store.
    AddTagging(Tagging),
}

impl Mutation {
    /// The endpoints of an edge mutation, `None` for tagging appends.
    pub fn edge_endpoints(&self) -> Option<(NodeId, NodeId)> {
        match *self {
            Mutation::InsertEdge { u, v, .. } | Mutation::RemoveEdge { u, v } => Some((u, v)),
            Mutation::AddTagging(_) => None,
        }
    }
}

/// A group of mutations applied atomically as one epoch step: readers see
/// either none or all of a batch, never a prefix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MutationBatch {
    pub mutations: Vec<Mutation>,
}

impl MutationBatch {
    /// A batch over the given mutations.
    pub fn new(mutations: Vec<Mutation>) -> Self {
        MutationBatch { mutations }
    }

    /// Number of mutations in the batch.
    pub fn len(&self) -> usize {
        self.mutations.len()
    }

    /// Whether the batch is empty. An empty batch still commits like any
    /// other: one WAL record and one epoch (`LiveCorpus::commit`).
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }

    /// Splits the batch into the shapes the corpus edit path consumes:
    /// `(edge inserts, edge removals, tagging appends)`.
    #[allow(clippy::type_complexity)]
    pub fn split(
        &self,
    ) -> (
        Vec<(NodeId, NodeId, f32)>,
        Vec<(NodeId, NodeId)>,
        Vec<Tagging>,
    ) {
        let mut inserts = Vec::new();
        let mut removals = Vec::new();
        let mut taggings = Vec::new();
        for m in &self.mutations {
            match *m {
                Mutation::InsertEdge { u, v, weight } => inserts.push((u, v, weight)),
                Mutation::RemoveEdge { u, v } => removals.push((u, v)),
                Mutation::AddTagging(t) => taggings.push(t),
            }
        }
        (inserts, removals, taggings)
    }

    /// Whether every mutation keeps the id and weight contract of
    /// [`CsrGraph::with_edits`] and [`TagStore::with_appends`] on a corpus
    /// whose graph has one node per user of `store`: every inserted edge,
    /// self-loops included, in range with a finite, non-negative weight,
    /// every tagging as [`TagStore::build`] requires, removals anything.
    /// Such a batch applies without a panic, and its WAL record replays.
    pub fn keeps_the_contract(&self, store: &TagStore) -> bool {
        let n = store.num_users();
        self.mutations.iter().all(|m| match *m {
            Mutation::InsertEdge { u, v, weight } => {
                friends_graph::csr::edge_in_contract(n as usize, u, v, weight)
            }
            Mutation::RemoveEdge { .. } => true,
            Mutation::AddTagging(t) => {
                crate::store::contract_violation(&t, n, store.num_items(), store.num_tags())
                    .is_none()
            }
        })
    }

    /// Every distinct edge endpoint touched by the batch, sorted — the
    /// node set invalidation sweeps test σ reach against.
    pub fn touched_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .mutations
            .iter()
            .filter_map(Mutation::edge_endpoints)
            .flat_map(|(u, v)| [u, v])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Every distinct tag appended by the batch, sorted — what per-tag
    /// result invalidation sweeps against.
    pub fn touched_tags(&self) -> Vec<crate::TagId> {
        let mut tags: Vec<crate::TagId> = self
            .mutations
            .iter()
            .filter_map(|m| match m {
                Mutation::AddTagging(t) => Some(t.tag),
                _ => None,
            })
            .collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }
}

/// One mutation of a stream with its absolute arrival offset from the
/// stream's start (open-loop, like [`crate::requests::OpenLoopRequest`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TimedMutation {
    pub mutation: Mutation,
    pub arrival: Duration,
}

/// Parameters for [`MutationStream::generate`].
#[derive(Clone, Debug)]
pub struct MutationParams {
    /// Number of mutations in the stream.
    pub count: usize,
    /// Arrival rate in mutations per second (> 0). Drive this at ~10% of
    /// the query rate for the fig14 regime.
    pub rate: f64,
    /// Zipf exponent of the acting-user ranking (rank = user id), matching
    /// the seeker skew of the read side.
    pub user_theta: f64,
    /// Fraction of mutations that remove an existing edge (the rest split
    /// between inserts and tagging appends).
    pub remove_fraction: f64,
    /// Fraction of mutations that append a tagging.
    pub tagging_fraction: f64,
}

impl Default for MutationParams {
    fn default() -> Self {
        MutationParams {
            count: 100,
            rate: 100.0,
            user_theta: 1.1,
            remove_fraction: 0.2,
            tagging_fraction: 0.3,
        }
    }
}

/// A reproducible open-loop mutation stream over an existing corpus:
/// edge inserts between Zipf-skewed users, removals of edges present in the
/// *seed* graph, and tagging appends drawn from the store's vocabulary.
#[derive(Clone, Debug)]
pub struct MutationStream {
    pub mutations: Vec<TimedMutation>,
}

impl MutationStream {
    /// Generates a stream shaped for `graph`/`store`. Deterministic in
    /// `seed` (mutations and schedule both, on distinct RNG domains so the
    /// rate never perturbs the mutation sequence). Removals target edges of
    /// the seed graph, so replaying the stream against the evolving corpus
    /// mixes hits and no-ops — both are legal.
    pub fn generate(
        graph: &CsrGraph,
        store: &TagStore,
        params: &MutationParams,
        seed: u64,
    ) -> Self {
        assert!(
            params.rate.is_finite() && params.rate > 0.0,
            "mutation rate must be positive"
        );
        assert!(
            params.remove_fraction >= 0.0
                && params.tagging_fraction >= 0.0
                && params.remove_fraction + params.tagging_fraction <= 1.0,
            "mutation mix fractions must form a distribution"
        );
        let n = graph.num_nodes();
        let mut mutations = Vec::with_capacity(params.count);
        if n < 2 {
            return MutationStream { mutations };
        }
        let user_z = Zipf::new(n, params.user_theta);
        let mut rng = StdRng::seed_from_u64(seed);
        while mutations.len() < params.count {
            let roll: f64 = rng.gen_range(0.0..1.0);
            let user = user_z.sample(&mut rng) as UserId;
            let m = if roll < params.remove_fraction {
                // Remove one of the acting user's seed-graph edges; users
                // with no friends fall back to an insert below.
                let deg = graph.degree(user);
                if deg > 0 {
                    let v = graph.neighbors(user)[rng.gen_range(0..deg)];
                    Mutation::RemoveEdge { u: user, v }
                } else {
                    random_insert(user, n, &mut rng)
                }
            } else if roll < params.remove_fraction + params.tagging_fraction
                && store.num_items() > 0
                && store.num_tags() > 0
            {
                Mutation::AddTagging(Tagging {
                    user,
                    item: rng.gen_range(0..store.num_items()),
                    tag: rng.gen_range(0..store.num_tags()),
                    weight: 1.0,
                })
            } else {
                random_insert(user, n, &mut rng)
            };
            mutations.push(TimedMutation {
                mutation: m,
                arrival: Duration::ZERO,
            });
        }
        // A distinct RNG domain for the schedule (same idiom as
        // `OpenLoopStream`): the rate must not perturb the mutations.
        let mut clock_rng = StdRng::seed_from_u64(seed ^ 0x4D55_5441_5445_u64);
        let gap = Duration::from_secs_f64(1.0 / params.rate);
        let mut clock = Duration::ZERO;
        for tm in &mut mutations {
            tm.arrival = clock;
            let u: f64 = clock_rng.gen_range(0.0..1.0);
            clock += Duration::from_secs_f64(gap.as_secs_f64() * -(1.0 - u).ln());
        }
        MutationStream { mutations }
    }

    /// Number of mutations.
    pub fn len(&self) -> usize {
        self.mutations.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }

    /// Chunks the stream, in arrival order, into batches of at most
    /// `batch_size` mutations (the granularity a broker applies per epoch
    /// step). Timing is dropped.
    pub fn batches(&self, batch_size: usize) -> Vec<MutationBatch> {
        assert!(batch_size > 0, "batch size must be positive");
        self.mutations
            .chunks(batch_size)
            .map(|c| MutationBatch::new(c.iter().map(|tm| tm.mutation.clone()).collect()))
            .collect()
    }
}

/// An edge insert from `user` to a distinct uniform endpoint, weighted in
/// `(0, 1]` — new friendships start at arbitrary strength.
fn random_insert(user: UserId, n: usize, rng: &mut StdRng) -> Mutation {
    let mut v = rng.gen_range(0..n as NodeId);
    if v == user {
        v = (v + 1) % n as NodeId;
    }
    Mutation::InsertEdge {
        u: user,
        v,
        weight: rng.gen_range(0.05..=1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{DatasetSpec, Scale};

    fn fixture() -> (CsrGraph, TagStore) {
        let ds = DatasetSpec::delicious_like(Scale::Tiny).build(5);
        (ds.graph, ds.store)
    }

    #[test]
    fn stream_is_deterministic_and_well_formed() {
        let (g, s) = fixture();
        let p = MutationParams {
            count: 200,
            ..MutationParams::default()
        };
        let a = MutationStream::generate(&g, &s, &p, 11);
        let b = MutationStream::generate(&g, &s, &p, 11);
        assert_eq!(a.mutations, b.mutations);
        assert_eq!(a.len(), 200);
        let n = g.num_nodes() as NodeId;
        for tm in &a.mutations {
            match &tm.mutation {
                Mutation::InsertEdge { u, v, weight } => {
                    assert!(*u < n && *v < n && u != v);
                    assert!(weight.is_finite() && *weight > 0.0);
                }
                Mutation::RemoveEdge { u, v } => {
                    assert!(*u < n && *v < n);
                    assert!(g.has_edge(*u, *v), "removals target seed-graph edges");
                }
                Mutation::AddTagging(t) => {
                    assert!((t.user) < s.num_users());
                    assert!(t.item < s.num_items() && t.tag < s.num_tags());
                }
            }
        }
        let c = MutationStream::generate(&g, &s, &p, 12);
        assert_ne!(a.mutations, c.mutations);
    }

    #[test]
    fn mix_fractions_shape_the_stream() {
        let (g, s) = fixture();
        let p = MutationParams {
            count: 400,
            remove_fraction: 0.25,
            tagging_fraction: 0.25,
            ..MutationParams::default()
        };
        let w = MutationStream::generate(&g, &s, &p, 3);
        let removes = w
            .mutations
            .iter()
            .filter(|tm| matches!(tm.mutation, Mutation::RemoveEdge { .. }))
            .count();
        let tags = w
            .mutations
            .iter()
            .filter(|tm| matches!(tm.mutation, Mutation::AddTagging(_)))
            .count();
        let inserts = w.len() - removes - tags;
        assert!(
            inserts > 0 && removes > 0 && tags > 0,
            "{inserts}/{removes}/{tags}"
        );
    }

    #[test]
    fn arrivals_are_monotone_and_track_the_rate() {
        let (g, s) = fixture();
        let p = MutationParams {
            count: 300,
            rate: 1_000.0,
            ..MutationParams::default()
        };
        let w = MutationStream::generate(&g, &s, &p, 7);
        assert_eq!(w.mutations[0].arrival, Duration::ZERO);
        for pair in w.mutations.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        let span = w.mutations.last().unwrap().arrival.as_secs_f64();
        let rate = (w.len() - 1) as f64 / span;
        assert!(
            (300.0..4_000.0).contains(&rate),
            "realized rate {rate:.0}/s far from 1000/s"
        );
    }

    #[test]
    fn rate_changes_schedule_not_mutations() {
        let (g, s) = fixture();
        let slow = MutationStream::generate(
            &g,
            &s,
            &MutationParams {
                count: 80,
                rate: 10.0,
                ..MutationParams::default()
            },
            9,
        );
        let fast = MutationStream::generate(
            &g,
            &s,
            &MutationParams {
                count: 80,
                rate: 10_000.0,
                ..MutationParams::default()
            },
            9,
        );
        let a: Vec<&Mutation> = slow.mutations.iter().map(|tm| &tm.mutation).collect();
        let b: Vec<&Mutation> = fast.mutations.iter().map(|tm| &tm.mutation).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn batches_chunk_in_order() {
        let (g, s) = fixture();
        let w = MutationStream::generate(
            &g,
            &s,
            &MutationParams {
                count: 25,
                ..MutationParams::default()
            },
            2,
        );
        let batches = w.batches(10);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 10);
        assert_eq!(batches[2].len(), 5);
        let flat: Vec<&Mutation> = batches.iter().flat_map(|b| b.mutations.iter()).collect();
        let orig: Vec<&Mutation> = w.mutations.iter().map(|tm| &tm.mutation).collect();
        assert_eq!(flat, orig);
    }

    #[test]
    fn batch_split_and_touch_sets() {
        let b = MutationBatch::new(vec![
            Mutation::InsertEdge {
                u: 1,
                v: 2,
                weight: 0.5,
            },
            Mutation::RemoveEdge { u: 4, v: 2 },
            Mutation::AddTagging(Tagging::unit(3, 0, 7)),
            Mutation::AddTagging(Tagging::unit(3, 1, 7)),
        ]);
        let (ins, rem, tg) = b.split();
        assert_eq!(ins, vec![(1, 2, 0.5)]);
        assert_eq!(rem, vec![(4, 2)]);
        assert_eq!(tg.len(), 2);
        assert_eq!(b.touched_nodes(), vec![1, 2, 4]);
        assert_eq!(b.touched_tags(), vec![7]);
    }

    #[test]
    fn tiny_graph_yields_empty_stream() {
        let g = CsrGraph::empty(1);
        let s = TagStore::build(1, 1, 1, vec![]);
        let w = MutationStream::generate(&g, &s, &MutationParams::default(), 1);
        assert!(w.is_empty());
    }
}
