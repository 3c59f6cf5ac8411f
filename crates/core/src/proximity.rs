//! Social proximity models: how much weight `σ(u, v)` a seeker `u` places on
//! user `v`'s annotations.
//!
//! Every model maps into `[0, 1]` with `σ(u, u) = 1` (the seeker trusts
//! themself fully), except PPR whose natural normalization is a probability
//! distribution (the evaluation treats PPR scores as-is; rankings are
//! scale-invariant).
//!
//! ## Hot-path materialization
//!
//! [`ProximityModel::materialize`] returns a fresh dense `Vec<f64>` — simple,
//! but `O(n)` allocation + zero-fill per query. The query hot path instead
//! uses [`ProximityModel::materialize_into`] with a caller-owned
//! [`SigmaWorkspace`]: buffers are recycled across queries via epoch stamps
//! (a generation counter instead of clearing), and models whose support is a
//! small neighborhood of the seeker (FriendsOnly, AdamicAdar, PPR) expose a
//! sorted sparse support list so processors can skip non-taggers entirely.
//! [`ProximityVec`] is the owned, shareable form the
//! [`crate::cache::ProximityCache`] stores; [`Sigma`] unifies the two for
//! processors.

use friends_graph::ppr::{forward_push_into, PushWorkspace};
use friends_graph::traversal::{
    bfs_stamped, decay_labels, repair_labels, BfsWorkspace, EdgeEdit, ProximityLabels,
    RepairScratch,
};
use friends_graph::{CsrGraph, NodeId};
use friends_index::topk::SigmaBound;

/// Caller-tunable bounds on decay-model materialization: how far a
/// [`ProximityModel::DistanceDecay`] BFS may walk and how small a
/// [`ProximityModel::WeightedDecay`] path mass may get before the traversal
/// stops. The default ([`SigmaBounds::EXACT`]) is **provably lossless**: the
/// effective radius is capped at the model's *decay horizon* — the hop count
/// beyond which `alpha^h` underflows to an exact f64 zero, so every dropped
/// node would have materialized `σ == 0.0` anyway — and the mass floor cuts
/// only paths whose product has already underflowed. Tighter bounds trade
/// exactness for speed; the traversal then records the **residual bound**
/// (an upper bound on the σ of any dropped node, see
/// [`SigmaWorkspace::residual_bound`]), so a `0.0` residual is a per-query
/// proof that the bounded materialization equals the unbounded one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SigmaBounds {
    /// Hop horizon for BFS-driven decay (`DistanceDecay`). The effective
    /// horizon is `min(max_radius, decay_horizon(alpha))`.
    pub max_radius: u32,
    /// Path-mass floor for proximity-ordered decay (`WeightedDecay`):
    /// nodes whose best path mass falls below it are dropped. For
    /// `DistanceDecay` the floor is translated into an equivalent radius.
    pub min_mass: f64,
}

impl SigmaBounds {
    /// Lossless bounds: stop exactly where the decay envelope proves the
    /// remaining σ underflows to zero.
    pub const EXACT: SigmaBounds = SigmaBounds {
        max_radius: u32::MAX,
        min_mass: 0.0,
    };

    /// Bounds with an explicit hop radius (mass floor disabled).
    pub fn with_radius(max_radius: u32) -> Self {
        SigmaBounds {
            max_radius,
            ..Self::EXACT
        }
    }

    /// Bounds with an explicit mass floor in `[0, 1]` (radius disabled).
    pub fn with_min_mass(min_mass: f64) -> Self {
        assert!((0.0..=1.0).contains(&min_mass), "mass floor in [0, 1]");
        SigmaBounds {
            min_mass,
            ..Self::EXACT
        }
    }

    /// Whether these bounds are the lossless [`SigmaBounds::EXACT`]
    /// default (no radius cap, no mass floor).
    pub fn is_exact(&self) -> bool {
        self.max_radius == u32::MAX && self.min_mass == 0.0
    }

    /// The intersection of two bounds: the smaller radius and the larger
    /// mass floor, i.e. the loosest bounds at least as tight as both. The
    /// overload controller composes a request's own bounds with a
    /// degradation level's this way — degradation can only tighten, never
    /// loosen, what the caller asked for.
    pub fn tighten(self, other: SigmaBounds) -> SigmaBounds {
        SigmaBounds {
            max_radius: self.max_radius.min(other.max_radius),
            min_mass: self.min_mass.max(other.min_mass),
        }
    }

    /// Exact cache-key bits: `(radius, mass-floor bits)`. `SigmaBounds` is
    /// not `Eq`/`Hash` (it holds an `f64`), so caches keyed on bounds use
    /// these bits — two bounds alias iff they are bit-identical, which is
    /// the only safe notion of "same bounds" for a σ cache (a bounded
    /// entry must never be served for an exact request).
    pub fn key_bits(&self) -> (u32, u64) {
        (self.max_radius, self.min_mass.to_bits())
    }
}

impl Default for SigmaBounds {
    fn default() -> Self {
        Self::EXACT
    }
}

/// The **decay horizon** of `alpha`: the largest hop count `h` for which
/// `alpha^h` is still a positive f64. A node strictly beyond the horizon
/// would materialize `σ = alpha^h == 0.0` — indistinguishable from never
/// being visited — so a BFS capped at the horizon is byte-identical to an
/// unbounded one while never walking past the representable decay envelope.
/// On social-graph diameters the horizon (hundreds to thousands of hops)
/// never binds; it exists so adversarially deep graphs terminate
/// reach-proportionally and so tighter radii have a sound baseline to
/// shrink from.
pub fn decay_horizon(alpha: f64) -> u32 {
    debug_assert!(alpha > 0.0 && alpha < 1.0);
    // alpha^h > 0 (including subnormals) ⇔ h · log2(alpha) > -1075.
    let est = (-1075.0 / alpha.log2()).floor();
    if est >= i32::MAX as f64 {
        // powi saturates past i32; treat the horizon as unbounded (a graph
        // cannot have 2^31 hops of distinct nodes under a u32 id space).
        return u32::MAX;
    }
    let mut h = est as i32;
    while h > 0 && alpha.powi(h) == 0.0 {
        h -= 1;
    }
    while h < i32::MAX - 1 && alpha.powi(h + 1) > 0.0 {
        h += 1;
    }
    h.max(0) as u32
}

/// The largest hop count whose decayed mass still clears `floor`
/// (`alpha^h >= floor`), used to translate a mass floor into a BFS radius.
/// Returns `u32::MAX` when the floor never binds.
fn radius_for_mass(alpha: f64, floor: f64) -> u32 {
    if floor <= 0.0 {
        return u32::MAX;
    }
    if floor > 1.0 {
        return 0;
    }
    let est = (floor.log2() / alpha.log2()).floor();
    if est >= i32::MAX as f64 {
        return u32::MAX;
    }
    let mut h = (est as i32).max(0);
    while h > 0 && alpha.powi(h) < floor {
        h -= 1;
    }
    while h < i32::MAX - 1 && alpha.powi(h + 1) >= floor {
        h += 1;
    }
    h.max(0) as u32
}

/// A proximity model. See module docs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProximityModel {
    /// `σ ≡ 1`: non-personalized (the global baseline's implicit model).
    Global,
    /// `σ = 1` for the seeker and direct friends, 0 otherwise.
    FriendsOnly,
    /// `σ = alpha^hops(u, v)`: exponential decay in hop distance,
    /// ignoring tie strength. `alpha ∈ (0, 1)`.
    DistanceDecay { alpha: f64 },
    /// Multiplicative decay along the strongest path:
    /// `σ = max_path Π_e (alpha · w_e)`, with `w_e ∈ (0, 1]`.
    /// This is the model the FriendExpansion traversal enumerates natively.
    WeightedDecay { alpha: f64 },
    /// Personalized PageRank mass (forward push with additive error
    /// `epsilon · wdeg(v)`).
    Ppr { alpha: f64, epsilon: f64 },
    /// Adamic–Adar structural similarity over the 2-hop neighborhood:
    /// `AA(u, v) = Σ_{w ∈ N(u) ∩ N(v)} 1 / ln(1 + deg(w))`, normalized by
    /// the maximum over `v` so values land in `[0, 1]`; `σ(u, u) = 1`;
    /// users beyond 2 hops get 0. Cheap (no global traversal) and a common
    /// "friends-of-friends" weighting in the social-search literature.
    AdamicAdar,
}

impl ProximityModel {
    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ProximityModel::Global => "global",
            ProximityModel::FriendsOnly => "friends-only",
            ProximityModel::DistanceDecay { .. } => "distance-decay",
            ProximityModel::WeightedDecay { .. } => "weighted-decay",
            ProximityModel::Ppr { .. } => "ppr",
            ProximityModel::AdamicAdar => "adamic-adar",
        }
    }

    /// Whether this model's support is a small neighborhood of the seeker,
    /// in which case the workspace exposes a sparse support list and
    /// processors can iterate taggers instead of postings.
    pub fn has_sparse_support(&self) -> bool {
        matches!(
            self,
            ProximityModel::FriendsOnly | ProximityModel::Ppr { .. } | ProximityModel::AdamicAdar
        )
    }

    /// Whether caching this model's materialized vector pays for itself.
    ///
    /// A [`crate::cache::ProximityCache`] hit costs a mutex round trip
    /// plus two `O(log n)` recency updates. For `Global` (nothing to
    /// materialize) and `FriendsOnly` (one adjacency-slice walk) that is
    /// about what materializing costs, so processors bypass the cache for
    /// them entirely — no lock traffic, no recency churn, no capacity spent
    /// on vectors that are cheaper to rebuild than to fetch.
    pub fn cache_worthy(&self) -> bool {
        !matches!(self, ProximityModel::Global | ProximityModel::FriendsOnly)
    }

    /// The decay envelope: an upper bound on `σ(seeker, v)` for any
    /// `v ≠ seeker`. Exact-support models answer range bounds from their
    /// support list instead (see [`ProximityModel::sigma_bound`]); the
    /// envelope is what the dense decay models fall back to — one hop
    /// already multiplies by `alpha`, so no non-seeker node can exceed it.
    fn envelope(&self) -> f64 {
        match *self {
            ProximityModel::DistanceDecay { alpha } | ProximityModel::WeightedDecay { alpha } => {
                alpha
            }
            _ => 1.0,
        }
    }

    /// A [`SigmaBound`] view over a materialized σ, for block-max pruning:
    /// exact sparse-support range maxima for FriendsOnly/PPR/AdamicAdar and
    /// an envelope for the dense models, or 1.0 whenever the queried range
    /// covers the seeker.
    ///
    /// DistanceDecay's envelope is `alpha` itself (every non-seeker node
    /// sits at ≥ 1 hop), read in O(1). WeightedDecay — whose σ peaks at
    /// `alpha · w_max`, often far below `alpha` — additionally caps the
    /// envelope by the materialized vector's actual non-seeker maximum: one
    /// pass over the touched values (or the cached dense vector), paid only
    /// on this model's block-max route, which `Auto` never takes.
    pub fn sigma_bound<'a>(&self, seeker: NodeId, sigma: &'a Sigma<'a>) -> ModelSigmaBound<'a> {
        let envelope = match *self {
            _ if sigma.support().is_some() => 1.0, // sparse: answered from support
            ProximityModel::WeightedDecay { alpha } => alpha.min(sigma.max_excluding(seeker)),
            _ => self.envelope(),
        };
        ModelSigmaBound {
            sigma,
            seeker,
            envelope,
        }
    }

    /// A hashable identity for cache and coalescing keys: the variant
    /// discriminant plus the exact bit patterns of its parameters, so e.g.
    /// `Ppr { eps: 1e-4 }` and `Ppr { eps: 1e-5 }` never alias.
    pub fn key_bits(&self) -> (u8, u64, u64) {
        match *self {
            ProximityModel::Global => (0, 0, 0),
            ProximityModel::FriendsOnly => (1, 0, 0),
            ProximityModel::DistanceDecay { alpha } => (2, alpha.to_bits(), 0),
            ProximityModel::WeightedDecay { alpha } => (3, alpha.to_bits(), 0),
            ProximityModel::Ppr { alpha, epsilon } => (4, alpha.to_bits(), epsilon.to_bits()),
            ProximityModel::AdamicAdar => (5, 0, 0),
        }
    }

    /// Materializes the dense proximity vector `σ(seeker, ·)`.
    ///
    /// Cost: `O(n)` for Global/FriendsOnly, one BFS for DistanceDecay, one
    /// `O(n + m)` label pass ([`decay_labels`]) for WeightedDecay, one
    /// forward push for PPR —
    /// plus an `O(n)` allocation every call. Query loops should prefer
    /// [`ProximityModel::materialize_into`].
    pub fn materialize(&self, g: &CsrGraph, seeker: NodeId) -> Vec<f64> {
        let mut ws = SigmaWorkspace::new();
        self.materialize_into(g, seeker, &mut ws);
        ws.to_dense(g.num_nodes())
    }

    /// Materializes `σ(seeker, ·)` into a reusable workspace. After the
    /// call, `ws` answers [`SigmaWorkspace::get`] for every node and, for
    /// sparse-support models, exposes [`SigmaWorkspace::support`]. Once the
    /// workspace has warmed up to the graph size, no allocation occurs.
    ///
    /// Decay traversals run under [`SigmaBounds::EXACT`]: they stop at the
    /// decay horizon (where σ provably underflows to zero), which is
    /// byte-identical to an unbounded walk. Use
    /// [`ProximityModel::materialize_bounded`] for tighter, lossy bounds.
    pub fn materialize_into(&self, g: &CsrGraph, seeker: NodeId, ws: &mut SigmaWorkspace) {
        self.materialize_bounded(g, seeker, ws, SigmaBounds::EXACT);
    }

    /// [`ProximityModel::materialize_into`] under explicit [`SigmaBounds`].
    /// After the call, [`SigmaWorkspace::residual_bound`] is an upper bound
    /// on the σ of any node the bounds dropped — `0.0` proves the bounded
    /// materialization equals the unbounded one bit for bit.
    pub fn materialize_bounded(
        &self,
        g: &CsrGraph,
        seeker: NodeId,
        ws: &mut SigmaWorkspace,
        bounds: SigmaBounds,
    ) {
        let n = g.num_nodes();
        ws.begin(n);
        match *self {
            ProximityModel::Global => {
                ws.kind = SigmaKind::AllOnes;
            }
            ProximityModel::FriendsOnly => {
                ws.kind = SigmaKind::Sparse;
                if n > 0 {
                    ws.labels.set(seeker, 1.0);
                    for &f in g.neighbors(seeker) {
                        ws.labels.set(f, 1.0);
                    }
                    ws.build_entries_from_touched();
                }
            }
            ProximityModel::DistanceDecay { alpha } => {
                assert!((0.0..1.0).contains(&alpha) && alpha > 0.0);
                ws.kind = SigmaKind::Dense;
                if n > 0 {
                    // Effective horizon: the caller's radius, the caller's
                    // mass floor translated into hops, and the exact decay
                    // horizon (beyond which σ underflows to 0.0 and a node
                    // is indistinguishable from unvisited).
                    let horizon = bounds
                        .max_radius
                        .min(radius_for_mass(alpha, bounds.min_mass))
                        .min(decay_horizon(alpha));
                    let mut bfs = std::mem::take(&mut ws.bfs);
                    bfs_stamped(g, seeker, horizon, &mut bfs);
                    for &u in bfs.touched() {
                        let h = bfs.dist(u).expect("touched node has a distance");
                        ws.labels.set(u, alpha.powi(h as i32));
                    }
                    // Every dropped node sits ≥ horizon+1 hops out, so the
                    // decay envelope bounds its σ; at the exact horizon that
                    // envelope is 0.0 — the losslessness proof.
                    ws.residual = if bfs.truncated() {
                        alpha.powi(horizon.saturating_add(1).min(i32::MAX as u32) as i32)
                    } else {
                        0.0
                    };
                    ws.bfs = bfs;
                }
            }
            ProximityModel::WeightedDecay { alpha } => {
                assert!((0.0..1.0).contains(&alpha) && alpha > 0.0);
                ws.kind = SigmaKind::Dense;
                ws.residual = decay_labels(
                    g,
                    seeker,
                    edge_decay(alpha),
                    bounds.min_mass,
                    &mut ws.labels,
                );
            }
            ProximityModel::Ppr { alpha, epsilon } => {
                ws.kind = SigmaKind::Sparse;
                if n > 0 {
                    let mut push = std::mem::take(&mut ws.push);
                    let mut entries = std::mem::take(&mut ws.entries);
                    forward_push_into(g, seeker, alpha, epsilon, &mut push, &mut entries);
                    for &(u, p) in &entries {
                        ws.labels.set(u, p);
                    }
                    ws.push = push;
                    ws.entries = entries;
                }
            }
            ProximityModel::AdamicAdar => {
                ws.kind = SigmaKind::Sparse;
                if n > 0 {
                    // Accumulate AA over the 2-hop neighborhood: every middle
                    // node w contributes 1/ln(1 + deg(w)) to each of its
                    // neighbors (the common-neighbor identity).
                    for &w in g.neighbors(seeker) {
                        let contrib = 1.0 / (1.0 + g.degree(w) as f64).ln();
                        for &x in g.neighbors(w) {
                            if x != seeker {
                                ws.labels.add(x, contrib);
                            }
                        }
                        // Direct friends always have nonzero proximity, even
                        // without any common neighbor.
                        ws.labels.add(w, contrib * f64::EPSILON.max(1e-9));
                    }
                    let labels = &mut ws.labels;
                    let max = labels
                        .touched()
                        .iter()
                        .map(|&u| labels.get(u))
                        .fold(0.0f64, f64::max);
                    if max > 0.0 {
                        for i in 0..labels.touched().len() {
                            let u = labels.touched()[i];
                            labels.set(u, labels.get(u) / max);
                        }
                    }
                    labels.set(seeker, 1.0);
                    ws.build_entries_from_touched();
                }
            }
        }
        ws.finish(seeker);
    }

    /// Repairs, in place, a cached [`SigmaBounds::EXACT`] vector of this
    /// model after the graph it was materialized on was edited into `next`
    /// (`edits`: every pair whose weight differs). On `Some(changed)` the
    /// vector `==` what [`SigmaWorkspace::snapshot`] builds after a cold
    /// [`ProximityModel::materialize_into`] on `next` — values bit for bit,
    /// `non_seeker_max`, the `Dense`/`Touched` choice — and `changed` nodes
    /// hold a different value than before. The cost follows what the edits
    /// change, not the graph ([`repair_labels`]).
    ///
    /// `None` means the vector could not be repaired and is now
    /// unspecified: drop it. That is the answer for every model but the two
    /// whose σ is a best-path fixed point (`WeightedDecay`,
    /// `DistanceDecay`), for a vector that is not a lossless dense-model
    /// snapshot over `next`'s nodes, and for a `DistanceDecay` repair that
    /// reached the hop depth where successive `alpha^h` round to the same
    /// sub-normal value, so that a value no longer names its hop count.
    pub fn repair(
        &self,
        next: &CsrGraph,
        edits: &[EdgeEdit],
        vec: &mut ProximityVec,
        scratch: &mut SigmaRepair,
    ) -> Option<usize> {
        let n = next.num_nodes();
        if edits.iter().any(|e| e.u.max(e.v) as usize >= n) {
            return None;
        }
        // `(σ > 0 count, largest σ off the seeker)`: what decides the
        // representation and what `Sigma::max_excluding` serves.
        fn support_stats(
            seeker: NodeId,
            sigma: impl Iterator<Item = (NodeId, f64)>,
        ) -> (usize, f64) {
            sigma
                .filter(|&(_, s)| s > 0.0)
                .fold((0, 0.0), |(count, max), (u, s)| {
                    (count + 1, if u == seeker { max } else { max.max(s) })
                })
        }
        match vec {
            ProximityVec::Dense {
                values,
                seeker,
                non_seeker_max,
            } if values.len() == n && (*seeker as usize) < n => {
                let seeker = *seeker;
                if !self.repair_values(next, seeker, edits, values, scratch) {
                    return None;
                }
                let kernel = &scratch.kernel;
                let changed = kernel.changed().len();
                // What the changed nodes alone say: whether one fell to 0
                // (the reach may have halved), whether one holding the
                // maximum fell, and the largest new value off the seeker.
                let (mut lost, mut dethroned, mut raised) = (false, false, 0.0f64);
                for &u in kernel.changed().iter().filter(|&&u| u != seeker) {
                    let (old, new) = (kernel.old_value(u), values[u as usize]);
                    lost |= new == 0.0;
                    dethroned |= old == *non_seeker_max && new < old;
                    raised = raised.max(new);
                }
                if !(lost || dethroned) {
                    *non_seeker_max = non_seeker_max.max(raised);
                } else {
                    let (nonzero, max) = support_stats(seeker, (0..).zip(values.iter().copied()));
                    *non_seeker_max = max;
                    if snapshots_touched(nonzero, n, 0.0) {
                        let entries = (0..)
                            .zip(values.iter().copied())
                            .filter(|&(_, s)| s > 0.0)
                            .collect();
                        *vec = ProximityVec::Touched {
                            entries,
                            seeker,
                            non_seeker_max: max,
                            residual: 0.0,
                        };
                    }
                }
                Some(changed)
            }
            ProximityVec::Touched {
                entries,
                seeker,
                non_seeker_max,
                residual,
            } if *residual == 0.0
                && (*seeker as usize) < n
                && entries.last().is_none_or(|&(u, _)| (u as usize) < n) =>
            {
                let seeker = *seeker;
                // Scatter the support over the all-zero scratch array,
                // repair there, gather what is non-zero now, re-zero.
                if scratch.dense.len() < n {
                    scratch.dense.resize(n, 0.0);
                    scratch.allocations += 1;
                }
                for &(u, s) in entries.iter() {
                    scratch.dense[u as usize] = s;
                }
                let mut dense = std::mem::take(&mut scratch.dense);
                let sound = self.repair_values(next, seeker, edits, &mut dense[..n], scratch);
                let changed = scratch.kernel.changed().len();
                let mut nodes = std::mem::take(&mut scratch.nodes);
                nodes.clear();
                nodes.extend(entries.iter().map(|&(u, _)| u));
                nodes.extend_from_slice(scratch.kernel.changed());
                if sound && changed > 0 {
                    nodes.sort_unstable();
                    nodes.dedup();
                    let sigma = || nodes.iter().map(|&u| (u, dense[u as usize]));
                    let (nonzero, max) = support_stats(seeker, sigma());
                    if snapshots_touched(nonzero, n, 0.0) {
                        entries.clear();
                        entries.extend(sigma().filter(|&(_, s)| s > 0.0));
                        *non_seeker_max = max;
                    } else {
                        *vec = ProximityVec::Dense {
                            values: dense[..n].to_vec(),
                            seeker,
                            non_seeker_max: max,
                        };
                    }
                }
                for &u in &nodes {
                    dense[u as usize] = 0.0;
                }
                scratch.dense = dense;
                scratch.nodes = nodes;
                sound.then_some(changed)
            }
            _ => None,
        }
    }

    /// Runs [`repair_labels`] over `values` with this model's one-arc step;
    /// `false` when the model has none, or the step met a value it cannot
    /// place (see [`ProximityModel::repair`]) and `values` is now garbage.
    fn repair_values(
        &self,
        next: &CsrGraph,
        seeker: NodeId,
        edits: &[EdgeEdit],
        values: &mut [f64],
        scratch: &mut SigmaRepair,
    ) -> bool {
        let kernel = &mut scratch.kernel;
        match *self {
            ProximityModel::WeightedDecay { alpha } => {
                let mut decay = edge_decay(alpha);
                repair_labels(next, seeker, |p, w| p * decay(w), edits, values, kernel);
                true
            }
            ProximityModel::DistanceDecay { alpha } => {
                let levels = &mut scratch.levels;
                levels.reset_for(alpha);
                let mut sound = true;
                let step = |p: f64, _: f32| {
                    levels.below(p).unwrap_or_else(|| {
                        sound = false;
                        0.0
                    })
                };
                repair_labels(next, seeker, step, edits, values, kernel);
                sound
            }
            _ => false,
        }
    }
}

/// The `alpha^h` values [`ProximityModel::DistanceDecay`] writes, by hop
/// count `h`, grown as deep as lookups reach: the model's one-arc step for
/// [`repair_labels`] is "the next level down", so that repaired values stay
/// the `powi` bits a cold materialization writes.
#[derive(Debug, Default)]
struct DecayLevels {
    alpha: f64,
    /// `table[h] = alpha.powi(h)`, non-increasing, grown until it passes
    /// the smallest value asked about (or reaches `0.0`).
    table: Vec<f64>,
}

impl DecayLevels {
    fn reset_for(&mut self, alpha: f64) {
        if self.alpha.to_bits() != alpha.to_bits() || self.table.is_empty() {
            self.alpha = alpha;
            self.table.clear();
            self.table.push(1.0);
        }
    }

    /// Grows the table to hold level `h`.
    fn reach(&mut self, h: usize) {
        while self.table.len() <= h {
            let next = i32::try_from(self.table.len()).map_or(0.0, |h| self.alpha.powi(h));
            self.table.push(next);
        }
    }

    /// The level below `p`'s: `alpha^(h+1)` for `p == alpha^h`, `0.0` past
    /// the decay horizon. `None` when `p` is not a level, or when `p` or
    /// the answer shares its bits with a neighbouring level (sub-normal
    /// rounding) and so stands for more than one hop count.
    fn below(&mut self, p: f64) -> Option<f64> {
        while self
            .table
            .last()
            .is_some_and(|&last| last >= p && last > 0.0)
        {
            self.reach(self.table.len());
        }
        let h = self.table.partition_point(|&level| level > p);
        self.reach(h + 2);
        let (here, below, after) = (self.table[h], self.table[h + 1], self.table[h + 2]);
        let distinct = here == p && below < here && (after < below || below == 0.0);
        distinct.then_some(below)
    }
}

/// Scratch of [`ProximityModel::repair`], reusable across vectors, models
/// and graphs; once it has seen a graph's size a repair allocates nothing
/// but what a changed representation needs.
#[derive(Debug, Default)]
pub struct SigmaRepair {
    kernel: RepairScratch,
    /// All zeros between repairs; `Touched` vectors are repaired in it.
    dense: Vec<f64>,
    /// Nodes of `dense` a `Touched` repair may have left non-zero.
    nodes: Vec<NodeId>,
    levels: DecayLevels,
    allocations: u64,
}

impl SigmaRepair {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        SigmaRepair::default()
    }

    /// Growth events of the graph-sized arrays (a warm repair loop must
    /// keep this constant).
    pub fn allocation_count(&self) -> u64 {
        self.allocations + self.kernel.allocation_count()
    }
}

/// The per-edge multiplier of the [`ProximityModel::WeightedDecay`] model:
/// `alpha · clamp(w, 0, 1)`. Shared between `materialize` and the
/// FriendExpansion traversal so the two agree bit-for-bit.
pub fn edge_decay(alpha: f64) -> impl FnMut(f32) -> f64 {
    move |w: f32| alpha * (w as f64).clamp(0.0, 1.0)
}

/// How the current epoch's σ is represented inside a [`SigmaWorkspace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SigmaKind {
    /// `σ ≡ 1` — nothing stored.
    AllOnes,
    /// Epoch-stamped values for every reached node; unreached nodes read 0.
    Dense,
    /// Like `Dense`, plus a sorted `(node, σ)` support list for
    /// support-driven scoring.
    Sparse,
}

/// Reusable, epoch-stamped scratch for proximity materialization.
///
/// One workspace per processor instance; each query calls
/// [`ProximityModel::materialize_into`] which bumps the epoch (invalidating
/// the previous query's values in `O(1)`) and refills only the touched
/// nodes. All traversal scratch (BFS queues, bucket stacks, push residuals)
/// is owned here and persists across queries.
pub struct SigmaWorkspace {
    /// This epoch's `node → σ` map and touched list; the WeightedDecay
    /// kernel labels straight into it.
    labels: ProximityLabels,
    /// Sparse support, sorted by node id (kind == Sparse only).
    entries: Vec<(NodeId, f64)>,
    kind: SigmaKind,
    /// The seeker of the current epoch's materialization, and the largest σ
    /// over every *other* node — precomputed once per materialization so
    /// [`Sigma::max_excluding`] (the WeightedDecay block-max envelope cap)
    /// is `O(1)` instead of a per-query rescan.
    seeker: NodeId,
    non_seeker_max: f64,
    /// Nodes this epoch with `σ > 0` (counted once in `finish`), deciding
    /// the snapshot representation without a second pass.
    nonzero: usize,
    /// Upper bound on the σ of any node the materialization bounds dropped;
    /// `0.0` proves the bounded traversal lost nothing.
    residual: f64,
    bfs: BfsWorkspace,
    push: PushWorkspace,
}

impl Default for SigmaWorkspace {
    fn default() -> Self {
        SigmaWorkspace::new()
    }
}

impl SigmaWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        SigmaWorkspace {
            labels: ProximityLabels::new(),
            entries: Vec::new(),
            kind: SigmaKind::AllOnes,
            seeker: NodeId::MAX,
            non_seeker_max: 1.0,
            nonzero: 0,
            residual: 0.0,
            bfs: BfsWorkspace::new(),
            push: PushWorkspace::default(),
        }
    }

    /// Total buffer growth events across the workspace and its owned
    /// traversal scratch. A warm query loop must keep this constant — the
    /// zero-allocation property the hot path is built around.
    pub fn allocation_count(&self) -> u64 {
        self.labels.allocation_count() + self.bfs.allocation_count() + self.push.allocation_count()
    }

    fn begin(&mut self, n: usize) {
        self.labels.begin(n);
        self.entries.clear();
        self.kind = SigmaKind::Dense;
        self.residual = 0.0;
    }

    /// Seals a materialization: records the seeker and precomputes the
    /// non-seeker σ maximum and the `σ > 0` count (one pass over the nodes
    /// this epoch already touched, paid once per materialization so later
    /// [`Sigma::max_excluding`] reads are `O(1)` and
    /// [`SigmaWorkspace::snapshot`] can pick its representation without a
    /// rescan).
    fn finish(&mut self, seeker: NodeId) {
        self.seeker = seeker;
        match self.kind {
            SigmaKind::AllOnes => {
                self.non_seeker_max = 1.0;
                self.nonzero = 0;
            }
            _ => {
                let mut max = 0.0f64;
                let mut nonzero = 0usize;
                for &u in self.labels.touched() {
                    let v = self.labels.get(u);
                    if v > 0.0 {
                        nonzero += 1;
                        if u != seeker {
                            max = max.max(v);
                        }
                    }
                }
                self.non_seeker_max = max;
                self.nonzero = nonzero;
            }
        }
    }

    /// Upper bound on the σ of any node the most recent materialization's
    /// [`SigmaBounds`] dropped. `0.0` — always the case under
    /// [`SigmaBounds::EXACT`] — proves the bounded traversal produced
    /// exactly the unbounded σ.
    pub fn residual_bound(&self) -> f64 {
        self.residual
    }

    fn build_entries_from_touched(&mut self) {
        self.labels.sort_touched();
        self.entries.clear();
        let labels = &self.labels;
        self.entries
            .extend(labels.touched().iter().map(|&u| (u, labels.get(u))));
    }

    /// `σ(seeker, u)` for the most recent materialization.
    #[inline]
    pub fn get(&self, u: NodeId) -> f64 {
        match self.kind {
            SigmaKind::AllOnes => 1.0,
            _ => self.labels.get(u),
        }
    }

    /// The sorted `(node, σ)` support list, when the materialized model has
    /// sparse support (σ is zero everywhere else). `None` for dense models,
    /// whose support may be the whole graph.
    pub fn support(&self) -> Option<&[(NodeId, f64)]> {
        match self.kind {
            SigmaKind::Sparse => Some(&self.entries),
            _ => None,
        }
    }

    /// Expands the current epoch into a dense vector of length `n`.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        match self.kind {
            SigmaKind::AllOnes => vec![1.0; n],
            _ => self.labels.to_dense(n),
        }
    }

    /// Snapshots the current epoch into an owned, shareable
    /// [`ProximityVec`] (what the cache stores) in the cheapest faithful
    /// representation. Dense-model epochs whose reach is small relative to
    /// the graph become [`ProximityVec::Touched`] — built from the stamped
    /// touched-list in `O(reach log reach)`, not `O(n)` — so a cold-seeker
    /// cache miss costs memory and time proportional to what the seeker can
    /// actually reach. Wide-reach epochs (a `Touched` pair list would
    /// outweigh the flat array) still snapshot dense. Hits skip
    /// materialization entirely either way.
    pub fn snapshot(&self, n: usize) -> ProximityVec {
        match self.kind {
            SigmaKind::Sparse => ProximityVec::Sparse(self.entries.clone()),
            SigmaKind::Dense if self.snapshots_touched(n) => {
                let mut entries: Vec<(NodeId, f64)> = self
                    .labels
                    .touched()
                    .iter()
                    .filter_map(|&u| {
                        let v = self.labels.get(u);
                        (v > 0.0).then_some((u, v))
                    })
                    .collect();
                entries.sort_unstable_by_key(|&(u, _)| u);
                ProximityVec::Touched {
                    entries,
                    seeker: self.seeker,
                    non_seeker_max: self.non_seeker_max,
                    residual: self.residual,
                }
            }
            _ => self.snapshot_dense(n),
        }
    }

    fn snapshots_touched(&self, n: usize) -> bool {
        snapshots_touched(self.nonzero, n, self.residual)
    }

    /// [`ProximityVec::memory_bytes`] of what [`SigmaWorkspace::snapshot`]
    /// would build, without building it — all a byte-budgeted cache needs
    /// to decide admission (see [`crate::cache::ProximityCache::insert_with`]).
    pub fn snapshot_bytes(&self, n: usize) -> usize {
        let pair = std::mem::size_of::<(NodeId, f64)>();
        match self.kind {
            SigmaKind::AllOnes => 0,
            SigmaKind::Sparse => self.entries.len() * pair,
            SigmaKind::Dense if self.snapshots_touched(n) => self.nonzero * pair,
            SigmaKind::Dense => n * std::mem::size_of::<f64>(),
        }
    }

    /// The pre-reach-proportional snapshot: always a flat `O(n)` vector for
    /// dense-model epochs. Kept public as the fig12 baseline and for
    /// callers that want `O(1)` lookups regardless of reach. Note the
    /// `Dense` form carries no residual field — snapshotting a *lossy*
    /// bounded materialization through here loses the exactness
    /// certificate; [`SigmaWorkspace::snapshot`] never does that.
    pub fn snapshot_dense(&self, n: usize) -> ProximityVec {
        match self.kind {
            SigmaKind::AllOnes => ProximityVec::AllOnes,
            SigmaKind::Sparse => ProximityVec::Sparse(self.entries.clone()),
            SigmaKind::Dense => ProximityVec::Dense {
                values: self.to_dense(n),
                seeker: self.seeker,
                non_seeker_max: self.non_seeker_max,
            },
        }
    }
}

/// Whether a dense-model σ with `nonzero` positive entries over `n` nodes
/// is stored as [`ProximityVec::Touched`]: `(node, σ)` pairs cost 16 bytes
/// to the flat array's 8 per node, so only when at most half the graph was
/// reached — or when the materialization was lossy (residual > 0),
/// regardless of reach: `Dense` has no residual field, and a truncated σ
/// served as `residual_bound() == 0.0` would be a false exactness
/// certificate.
fn snapshots_touched(nonzero: usize, n: usize, residual: f64) -> bool {
    nonzero * 2 <= n || residual > 0.0
}

/// An owned proximity vector in the cheapest faithful representation:
/// the shareable form stored by [`crate::cache::ProximityCache`].
#[derive(Clone, Debug, PartialEq)]
pub enum ProximityVec {
    /// `σ ≡ 1` (the Global model).
    AllOnes,
    /// Dense `σ` over all nodes, carrying the seeker it was materialized
    /// for and the precomputed non-seeker maximum so
    /// [`Sigma::max_excluding`] answers in `O(1)` on cached vectors too.
    Dense {
        values: Vec<f64>,
        seeker: NodeId,
        non_seeker_max: f64,
    },
    /// Sorted `(node, σ)` pairs with `σ > 0`; all other nodes are 0.
    Sparse(Vec<(NodeId, f64)>),
    /// A dense-model σ captured **reach-proportionally**: the sorted
    /// `(node, σ > 0)` pairs the traversal actually touched, plus the
    /// seeker/non-seeker-max pair for `O(1)` [`Sigma::max_excluding`] and
    /// the materialization's residual bound. Unlike `Sparse` this is not a
    /// model-structural support — it is whatever the (possibly bounded)
    /// traversal reached — but it serves [`ProximityVec::support`] all the
    /// same, which is what lets block-max's support prune fire on cached
    /// decay-model hits.
    Touched {
        entries: Vec<(NodeId, f64)>,
        seeker: NodeId,
        non_seeker_max: f64,
        /// Upper bound on the σ of any node outside `entries` (`0.0` ⇒ the
        /// snapshot provably equals the unbounded materialization).
        residual: f64,
    },
}

impl ProximityVec {
    /// `σ(seeker, u)`.
    #[inline]
    pub fn get(&self, u: NodeId) -> f64 {
        match self {
            ProximityVec::AllOnes => 1.0,
            ProximityVec::Dense { values, .. } => values.get(u as usize).copied().unwrap_or(0.0),
            ProximityVec::Sparse(e) | ProximityVec::Touched { entries: e, .. } => {
                match e.binary_search_by_key(&u, |&(n, _)| n) {
                    Ok(i) => e[i].1,
                    Err(_) => 0.0,
                }
            }
        }
    }

    /// The sorted support list, for reach-proportional vectors: the nodes
    /// with `σ > 0`; every other node reads 0.
    pub fn support(&self) -> Option<&[(NodeId, f64)]> {
        match self {
            ProximityVec::Sparse(e) | ProximityVec::Touched { entries: e, .. } => Some(e),
            _ => None,
        }
    }

    /// Upper bound on the σ the materialization's bounds dropped (always
    /// `0.0` for exact representations).
    pub fn residual_bound(&self) -> f64 {
        match self {
            ProximityVec::Touched { residual, .. } => *residual,
            _ => 0.0,
        }
    }

    /// Approximate resident memory, in bytes. Scales with the graph for
    /// `Dense` and with the seeker's reach for `Sparse`/`Touched` — the
    /// quantity a byte-budgeted [`crate::cache::ProximityCache`] charges.
    pub fn memory_bytes(&self) -> usize {
        match self {
            ProximityVec::AllOnes => 0,
            ProximityVec::Dense { values, .. } => values.len() * std::mem::size_of::<f64>(),
            ProximityVec::Sparse(e) | ProximityVec::Touched { entries: e, .. } => {
                e.len() * std::mem::size_of::<(NodeId, f64)>()
            }
        }
    }
}

/// A borrowed view over either a processor's own [`SigmaWorkspace`] or a
/// shared cached [`ProximityVec`]: the single σ interface the processors
/// score against, guaranteeing identical values (and therefore identical
/// rankings) on both paths.
pub enum Sigma<'a> {
    Workspace(&'a SigmaWorkspace),
    Shared(&'a ProximityVec),
}

impl Sigma<'_> {
    /// `σ(seeker, u)`.
    #[inline]
    pub fn get(&self, u: NodeId) -> f64 {
        match self {
            Sigma::Workspace(ws) => ws.get(u),
            Sigma::Shared(v) => v.get(u),
        }
    }

    /// Sorted sparse support, when available (see
    /// [`SigmaWorkspace::support`]).
    pub fn support(&self) -> Option<&[(NodeId, f64)]> {
        match self {
            Sigma::Workspace(ws) => ws.support(),
            Sigma::Shared(v) => v.support(),
        }
    }

    /// Upper bound on the σ of any node the materialization's
    /// [`SigmaBounds`] dropped (`0.0` ⇒ exact).
    pub fn residual_bound(&self) -> f64 {
        match self {
            Sigma::Workspace(ws) => ws.residual_bound(),
            Sigma::Shared(v) => v.residual_bound(),
        }
    }

    /// Largest σ over every node except `exclude` — the exact dense-model
    /// envelope for σ-aware pruning. `O(1)` when `exclude` is the seeker
    /// the σ was materialized for (the only caller on the hot path — both
    /// the workspace and dense snapshots store the non-seeker maximum);
    /// one pass over the values otherwise.
    pub fn max_excluding(&self, exclude: NodeId) -> f64 {
        match self {
            Sigma::Workspace(ws) => match ws.kind {
                SigmaKind::AllOnes => 1.0,
                _ if exclude == ws.seeker => ws.non_seeker_max,
                _ => ws
                    .labels
                    .touched()
                    .iter()
                    .filter(|&&u| u != exclude)
                    .map(|&u| ws.get(u))
                    .fold(0.0, f64::max),
            },
            Sigma::Shared(ProximityVec::AllOnes) => 1.0,
            Sigma::Shared(ProximityVec::Dense {
                values,
                seeker,
                non_seeker_max,
            }) => {
                if exclude == *seeker {
                    *non_seeker_max
                } else {
                    values
                        .iter()
                        .enumerate()
                        .filter(|&(u, _)| u != exclude as usize)
                        .map(|(_, &s)| s)
                        .fold(0.0, f64::max)
                }
            }
            Sigma::Shared(ProximityVec::Sparse(e)) => e
                .iter()
                .filter(|&&(u, _)| u != exclude)
                .map(|&(_, s)| s)
                .fold(0.0, f64::max),
            Sigma::Shared(ProximityVec::Touched {
                entries,
                seeker,
                non_seeker_max,
                ..
            }) => {
                if exclude == *seeker {
                    *non_seeker_max
                } else {
                    entries
                        .iter()
                        .filter(|&&(u, _)| u != exclude)
                        .map(|&(_, s)| s)
                        .fold(0.0, f64::max)
                }
            }
        }
    }

    /// Debug-build check that every `σ ≤ 1`: the precondition of
    /// global-score thresholding (`personalized(i) ≤ global(i)` in
    /// `GlobalBoundTA`). A no-op in release builds.
    pub fn debug_assert_at_most_one(&self) {
        #[cfg(debug_assertions)]
        {
            let ok = match self {
                Sigma::Workspace(ws) => {
                    ws.labels.touched().iter().all(|&u| ws.get(u) <= 1.0 + 1e-9)
                }
                Sigma::Shared(ProximityVec::AllOnes) => true,
                Sigma::Shared(ProximityVec::Dense { values, .. }) => {
                    values.iter().all(|&s| s <= 1.0 + 1e-9)
                }
                Sigma::Shared(ProximityVec::Sparse(e))
                | Sigma::Shared(ProximityVec::Touched { entries: e, .. }) => {
                    e.iter().all(|&(_, s)| s <= 1.0 + 1e-9)
                }
            };
            assert!(ok, "global-bound thresholding requires σ ≤ 1");
        }
    }
}

/// A [`SigmaBound`] over a materialized [`Sigma`]: the bridge between the
/// proximity models and `friends_index`'s block-max σ-aware WAND operator.
///
/// * `sigma(u)` is the exact materialized value — bit-equal to what the
///   scan paths read, so block-max rankings are bit-identical to theirs.
/// * `max_in_range(lo, hi)` is exact for sparse-support models (a scan of
///   the sorted support restricted to the range — zero when the range misses
///   the support entirely, which is what lets whole blocks of stranger
///   taggings be skipped), and the decay envelope for dense models (`1.0`
///   when the range covers the seeker, `alpha` otherwise).
pub struct ModelSigmaBound<'a> {
    sigma: &'a Sigma<'a>,
    seeker: NodeId,
    envelope: f64,
}

impl SigmaBound for ModelSigmaBound<'_> {
    #[inline]
    fn sigma(&self, tagger: u32) -> f64 {
        self.sigma.get(tagger)
    }

    fn max_in_range(&self, lo: u32, hi: u32) -> f64 {
        match self.sigma.support() {
            Some(support) => {
                let start = support.partition_point(|&(u, _)| u < lo);
                support[start..]
                    .iter()
                    .take_while(|&&(u, _)| u <= hi)
                    .map(|&(_, s)| s)
                    .fold(0.0, f64::max)
            }
            None => {
                if (lo..=hi).contains(&self.seeker) {
                    1.0
                } else {
                    self.envelope
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use friends_graph::generators;
    use friends_graph::GraphBuilder;

    fn chain() -> CsrGraph {
        GraphBuilder::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    }

    fn all_models() -> Vec<ProximityModel> {
        vec![
            ProximityModel::Global,
            ProximityModel::FriendsOnly,
            ProximityModel::DistanceDecay { alpha: 0.5 },
            ProximityModel::WeightedDecay { alpha: 0.5 },
            ProximityModel::Ppr {
                alpha: 0.2,
                epsilon: 1e-4,
            },
            ProximityModel::AdamicAdar,
        ]
    }

    #[test]
    fn global_is_all_ones() {
        let g = chain();
        assert_eq!(ProximityModel::Global.materialize(&g, 0), vec![1.0; 4]);
    }

    #[test]
    fn friends_only_masks_neighbors() {
        let g = chain();
        let v = ProximityModel::FriendsOnly.materialize(&g, 1);
        assert_eq!(v, vec![1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn distance_decay_geometric() {
        let g = chain();
        let v = ProximityModel::DistanceDecay { alpha: 0.5 }.materialize(&g, 0);
        assert_eq!(v, vec![1.0, 0.5, 0.25, 0.125]);
    }

    #[test]
    fn distance_decay_unreachable_is_zero() {
        let g = GraphBuilder::from_edges(3, [(0, 1, 1.0)]);
        let v = ProximityModel::DistanceDecay { alpha: 0.5 }.materialize(&g, 0);
        assert_eq!(v[2], 0.0);
    }

    #[test]
    fn weighted_decay_uses_strengths() {
        let g = GraphBuilder::from_edges(3, [(0, 1, 0.5), (1, 2, 1.0)]);
        let v = ProximityModel::WeightedDecay { alpha: 0.8 }.materialize(&g, 0);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 0.4).abs() < 1e-9); // 0.8 * 0.5
        assert!((v[2] - 0.32).abs() < 1e-9); // 0.4 * 0.8 * 1.0
    }

    #[test]
    fn weighted_decay_with_unit_weights_matches_distance_decay() {
        let g = generators::watts_strogatz(100, 4, 0.2, 3);
        // unit weights ⇒ both models are alpha^hops
        let a = ProximityModel::DistanceDecay { alpha: 0.6 }.materialize(&g, 0);
        let b = ProximityModel::WeightedDecay { alpha: 0.6 }.materialize(&g, 0);
        for u in 0..100 {
            assert!((a[u] - b[u]).abs() < 1e-9, "node {u}: {} vs {}", a[u], b[u]);
        }
    }

    #[test]
    fn ppr_vector_is_subprobability() {
        let g = generators::barabasi_albert(200, 3, 4);
        let v = ProximityModel::Ppr {
            alpha: 0.2,
            epsilon: 1e-5,
        }
        .materialize(&g, 0);
        let sum: f64 = v.iter().sum();
        assert!(sum <= 1.0 + 1e-9 && sum > 0.5);
        assert!(v[0] > 0.0);
    }

    #[test]
    fn all_models_handle_empty_graph() {
        let g = CsrGraph::empty(0);
        for m in all_models() {
            assert!(m.materialize(&g, 0).is_empty(), "{}", m.name());
        }
    }

    #[test]
    fn adamic_adar_prefers_shared_neighborhoods() {
        // Seeker 0; node 3 shares two neighbors (1, 2) with 0; node 5 shares
        // one (4). AA(0,3) > AA(0,5); nodes beyond 2 hops get 0.
        let g = GraphBuilder::from_edges(
            7,
            [
                (0, 1, 1.0),
                (0, 2, 1.0),
                (0, 4, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
                (4, 5, 1.0),
                (5, 6, 1.0), // 6 is three hops from 0
            ],
        );
        let v = ProximityModel::AdamicAdar.materialize(&g, 0);
        assert_eq!(v[0], 1.0);
        assert!(v[3] > v[5], "shared-2 {} vs shared-1 {}", v[3], v[5]);
        assert_eq!(v[6], 0.0);
        assert!(v.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn adamic_adar_isolated_seeker() {
        let g = CsrGraph::empty(3);
        let v = ProximityModel::AdamicAdar.materialize(&g, 1);
        assert_eq!(v, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn isolated_seeker() {
        let g = CsrGraph::empty(3);
        let v = ProximityModel::WeightedDecay { alpha: 0.5 }.materialize(&g, 1);
        assert_eq!(v, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            ProximityModel::Global.name(),
            ProximityModel::FriendsOnly.name(),
            ProximityModel::DistanceDecay { alpha: 0.5 }.name(),
            ProximityModel::WeightedDecay { alpha: 0.5 }.name(),
            ProximityModel::Ppr {
                alpha: 0.2,
                epsilon: 1e-4,
            }
            .name(),
        ];
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn workspace_agrees_with_dense_materialize_for_every_model() {
        let g = generators::watts_strogatz(120, 4, 0.2, 17);
        let mut ws = SigmaWorkspace::new();
        for m in all_models() {
            for seeker in [0u32, 17, 119] {
                let dense = m.materialize(&g, seeker);
                m.materialize_into(&g, seeker, &mut ws);
                for u in 0..120u32 {
                    assert_eq!(
                        dense[u as usize].to_bits(),
                        ws.get(u).to_bits(),
                        "{} seeker {seeker} node {u}",
                        m.name()
                    );
                }
                // Sparse support must enumerate exactly the nonzero entries.
                if let Some(support) = ws.support() {
                    assert!(m.has_sparse_support());
                    assert!(support.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
                    let nonzero = dense.iter().filter(|&&x| x > 0.0).count();
                    assert_eq!(support.len(), nonzero, "{}", m.name());
                    for &(u, s) in support {
                        assert_eq!(s.to_bits(), dense[u as usize].to_bits());
                    }
                }
                // Snapshot (the cached form) must agree everywhere too.
                let snap = ws.snapshot(120);
                assert_eq!(ws.snapshot_bytes(120), snap.memory_bytes());
                for u in 0..120u32 {
                    assert_eq!(
                        snap.get(u).to_bits(),
                        ws.get(u).to_bits(),
                        "{} snapshot node {u}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_is_clean_and_allocation_free() {
        let g = generators::barabasi_albert(150, 3, 23);
        let mut ws = SigmaWorkspace::new();
        // Interleave models to stress epoch invalidation across kinds.
        let models = all_models();
        for m in &models {
            m.materialize_into(&g, 0, &mut ws);
        }
        let warm = ws.allocation_count();
        for round in 0..5 {
            for m in &models {
                let seeker = (round * 31) % 150;
                let want = m.materialize(&g, seeker);
                m.materialize_into(&g, seeker, &mut ws);
                for u in 0..150u32 {
                    assert_eq!(
                        want[u as usize].to_bits(),
                        ws.get(u).to_bits(),
                        "{} leaked state at node {u}",
                        m.name()
                    );
                }
            }
        }
        assert_eq!(
            ws.allocation_count(),
            warm,
            "warm workspace must not allocate"
        );
    }

    #[test]
    fn proximity_vec_lookups() {
        assert_eq!(ProximityVec::AllOnes.get(7), 1.0);
        let d = ProximityVec::Dense {
            values: vec![0.0, 0.5],
            seeker: 0,
            non_seeker_max: 0.5,
        };
        assert_eq!(d.get(1), 0.5);
        assert_eq!(d.get(9), 0.0);
        let s = ProximityVec::Sparse(vec![(2, 0.25), (9, 0.75)]);
        assert_eq!(s.get(2), 0.25);
        assert_eq!(s.get(3), 0.0);
        assert_eq!(s.get(9), 0.75);
        assert!(s.support().is_some() && d.support().is_none());
        assert!(s.memory_bytes() > 0 && ProximityVec::AllOnes.memory_bytes() == 0);
    }

    #[test]
    fn sigma_bound_dominates_every_range() {
        let g = generators::watts_strogatz(120, 4, 0.2, 31);
        let mut ws = SigmaWorkspace::new();
        for m in all_models() {
            for seeker in [0u32, 17, 119] {
                m.materialize_into(&g, seeker, &mut ws);
                let sigma = Sigma::Workspace(&ws);
                let bound = m.sigma_bound(seeker, &sigma);
                for (lo, hi) in [(0u32, 119u32), (5, 40), (60, 60), (17, 17), (100, 119)] {
                    let true_max = (lo..=hi).map(|u| ws.get(u)).fold(0.0f64, f64::max);
                    let b = bound.max_in_range(lo, hi);
                    assert!(
                        b >= true_max,
                        "{} seeker {seeker} range [{lo},{hi}]: bound {b} < max {true_max}",
                        m.name()
                    );
                }
                for u in 0..120u32 {
                    assert_eq!(bound.sigma(u).to_bits(), ws.get(u).to_bits());
                }
            }
        }
    }

    #[test]
    fn max_excluding_o1_path_matches_scan_everywhere() {
        let g = generators::watts_strogatz(90, 4, 0.3, 7);
        let mut ws = SigmaWorkspace::new();
        for m in all_models() {
            for seeker in [0u32, 13, 89] {
                m.materialize_into(&g, seeker, &mut ws);
                let brute = (0..90u32)
                    .filter(|&u| u != seeker)
                    .map(|u| ws.get(u))
                    .fold(0.0f64, f64::max);
                // Workspace fast path (exclude == seeker) is exact…
                let sigma = Sigma::Workspace(&ws);
                assert_eq!(
                    sigma.max_excluding(seeker).to_bits(),
                    brute.to_bits(),
                    "{} seeker {seeker} workspace",
                    m.name()
                );
                // …and so is the snapshot (the cached, shareable form).
                let snap = ws.snapshot(90);
                let shared = Sigma::Shared(&snap);
                assert_eq!(
                    shared.max_excluding(seeker).to_bits(),
                    brute.to_bits(),
                    "{} seeker {seeker} snapshot",
                    m.name()
                );
                // Excluding some *other* node still answers correctly via
                // the fallback scan.
                let other = if seeker == 0 { 1 } else { 0 };
                let brute_other = (0..90u32)
                    .filter(|&u| u != other)
                    .map(|u| ws.get(u))
                    .fold(0.0f64, f64::max);
                assert_eq!(sigma.max_excluding(other).to_bits(), brute_other.to_bits());
            }
        }
    }

    #[test]
    fn decay_horizon_sits_exactly_on_the_underflow_edge() {
        for alpha in [0.05f64, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let h = decay_horizon(alpha);
            assert!(h < u32::MAX, "alpha {alpha}");
            assert!(alpha.powi(h as i32) > 0.0, "alpha {alpha} horizon {h}");
            assert_eq!(
                alpha.powi(h as i32 + 1),
                0.0,
                "alpha {alpha} horizon {h} not maximal"
            );
        }
    }

    #[test]
    fn radius_for_mass_is_the_last_hop_clearing_the_floor() {
        for (alpha, floor) in [(0.5f64, 0.1f64), (0.3, 1e-6), (0.9, 0.5), (0.5, 1.0)] {
            let h = radius_for_mass(alpha, floor);
            assert!(alpha.powi(h as i32) >= floor, "alpha {alpha} floor {floor}");
            assert!(
                alpha.powi(h as i32 + 1) < floor,
                "alpha {alpha} floor {floor} radius {h} not maximal"
            );
        }
        assert_eq!(radius_for_mass(0.5, 0.0), u32::MAX);
    }

    /// A 2000-node chain outreaches the decay horizon: the EXACT bounds must
    /// stop the BFS hundreds of hops early while producing bit-identical σ
    /// (everything beyond the horizon would materialize 0.0 anyway).
    #[test]
    fn exact_bounds_truncate_deep_chains_byte_identically() {
        let n = 2000usize;
        let g = GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i as u32, i as u32 + 1, 1.0)));
        let alpha = 0.3;
        let horizon = decay_horizon(alpha) as usize;
        assert!(horizon + 1 < n, "chain must outreach the horizon");
        let mut ws = SigmaWorkspace::new();
        ProximityModel::DistanceDecay { alpha }.materialize_into(&g, 0, &mut ws);
        assert_eq!(ws.residual_bound(), 0.0, "EXACT bounds are lossless");
        assert_eq!(
            ws.labels.touched().len(),
            horizon + 1,
            "stopped at the horizon"
        );
        for u in 0..n as u32 {
            let want = if (u as usize) <= horizon {
                alpha.powi(u as i32)
            } else {
                0.0
            };
            assert_eq!(want.to_bits(), ws.get(u).to_bits(), "node {u}");
        }
    }

    /// Radius bounds below the horizon are lossy and must say so: σ beyond
    /// the radius reads 0, and the residual records the decay envelope at
    /// radius+1. A radius at or past the horizon is indistinguishable from
    /// unbounded (the straddle case: the BFS frontier crosses the cutoff
    /// mid-component, yet nothing representable was dropped).
    #[test]
    fn bounded_radius_reports_residual_and_straddles_exactly() {
        let n = 2000usize;
        let g = GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i as u32, i as u32 + 1, 1.0)));
        let alpha = 0.3;
        let model = ProximityModel::DistanceDecay { alpha };
        let mut full = SigmaWorkspace::new();
        model.materialize_into(&g, 0, &mut full);

        // Lossy: radius 5 on a 2000-chain. (The expected envelope is
        // computed with a black-boxed exponent: a const-folded `powi` can
        // differ from the runtime one by 1 ULP in release builds, and the
        // assertion is about matching the traversal's own arithmetic.)
        let mut ws = SigmaWorkspace::new();
        model.materialize_bounded(&g, 0, &mut ws, SigmaBounds::with_radius(5));
        assert_eq!(
            ws.residual_bound().to_bits(),
            alpha.powi(std::hint::black_box(6)).to_bits()
        );
        for u in 0..n as u32 {
            let want = if u <= 5 {
                alpha.powi(std::hint::black_box(u as i32))
            } else {
                0.0
            };
            assert_eq!(want.to_bits(), ws.get(u).to_bits(), "node {u}");
            if ws.get(u) == 0.0 && full.get(u) > 0.0 {
                assert!(full.get(u) <= ws.residual_bound(), "residual must dominate");
            }
        }
        // A mass floor translates to the equivalent radius.
        let mut by_mass = SigmaWorkspace::new();
        let floor = alpha.powi(5) * 1.0001; // keeps hops 0..=4
        model.materialize_bounded(&g, 0, &mut by_mass, SigmaBounds::with_min_mass(floor));
        assert_eq!(by_mass.labels.touched().len(), 5);
        // Straddle: a radius past the horizon drops nothing representable.
        let mut wide = SigmaWorkspace::new();
        model.materialize_bounded(
            &g,
            0,
            &mut wide,
            SigmaBounds::with_radius(decay_horizon(alpha) + 100),
        );
        assert_eq!(wide.residual_bound(), 0.0);
        for u in 0..n as u32 {
            assert_eq!(full.get(u).to_bits(), wide.get(u).to_bits(), "node {u}");
        }
    }

    /// WeightedDecay under a mass floor: kept proximities are bit-identical
    /// to the unbounded scan, dropped ones are bounded by the recorded
    /// residual, and the exact default drops nothing.
    #[test]
    fn weighted_decay_mass_floor_is_sound() {
        let g = generators::assign_weights(
            &generators::watts_strogatz(150, 4, 0.2, 5),
            generators::WeightModel::Jaccard { floor: 0.05 },
            5,
        );
        let model = ProximityModel::WeightedDecay { alpha: 0.5 };
        let mut full = SigmaWorkspace::new();
        model.materialize_into(&g, 3, &mut full);
        assert_eq!(full.residual_bound(), 0.0);
        let mut bounded = SigmaWorkspace::new();
        let floor = 1e-3;
        model.materialize_bounded(&g, 3, &mut bounded, SigmaBounds::with_min_mass(floor));
        let res = bounded.residual_bound();
        assert!(res <= floor);
        for u in 0..150u32 {
            let b = bounded.get(u);
            let f = full.get(u);
            if b > 0.0 {
                assert_eq!(b.to_bits(), f.to_bits(), "kept node {u} must be exact");
                assert!(b >= floor, "node {u} below floor was kept");
            } else if f > 0.0 {
                assert!(f < floor && res > 0.0, "dropped node {u} above residual");
            }
        }
    }

    /// The acceptance-criterion size test: at n = 10k with reach ≈ 100, the
    /// snapshot must be `Touched`, cost `O(reach)` bytes, and agree with the
    /// workspace everywhere — while the forced dense snapshot stays `O(n)`.
    #[test]
    fn touched_snapshot_scales_with_reach_not_graph_size() {
        let n = 10_000usize;
        let reach = 100u32;
        // Seeker's component: a 100-node ring; the other 9900 users are
        // unreachable strangers.
        let g = GraphBuilder::from_edges(n, (0..reach).map(|i| (i, (i + 1) % reach, 1.0)));
        let mut ws = SigmaWorkspace::new();
        for model in [
            ProximityModel::DistanceDecay { alpha: 0.5 },
            ProximityModel::WeightedDecay { alpha: 0.5 },
        ] {
            model.materialize_into(&g, 0, &mut ws);
            let snap = ws.snapshot(n);
            let dense = ws.snapshot_dense(n);
            assert!(
                matches!(snap, ProximityVec::Touched { .. }),
                "{}: small reach must snapshot Touched",
                model.name()
            );
            assert!(
                snap.memory_bytes() <= reach as usize * 16,
                "{}: {} bytes for reach {reach}",
                model.name(),
                snap.memory_bytes()
            );
            assert_eq!(dense.memory_bytes(), n * 8);
            assert_eq!(snap.residual_bound(), 0.0);
            assert_eq!(snap.support().map(|s| s.len()), Some(reach as usize));
            for u in (0..n as u32).step_by(7).chain(0..reach) {
                assert_eq!(snap.get(u).to_bits(), ws.get(u).to_bits(), "node {u}");
                assert_eq!(dense.get(u).to_bits(), ws.get(u).to_bits(), "node {u}");
            }
            let sigma = Sigma::Shared(&snap);
            assert_eq!(
                sigma.max_excluding(0).to_bits(),
                ws.non_seeker_max.to_bits()
            );
            // The miss-path cache charge scales with reach too: a cached
            // Touched snapshot at n = 10k costs ~reach·16 bytes, not n·8.
            let cache = crate::cache::ProximityCache::new(8);
            cache.insert(&g, 0, model, std::sync::Arc::new(ws.snapshot(n)));
            let bytes = cache.stats().bytes;
            assert!(
                bytes <= reach as usize * 16 + 256,
                "{}: cache charged {bytes} bytes for reach {reach}",
                model.name()
            );
            assert!(
                bytes < n * 8 / 4,
                "{}: charge must not scale with n",
                model.name()
            );
        }
    }

    #[test]
    fn wide_reach_still_snapshots_dense() {
        let g = generators::watts_strogatz(120, 4, 0.2, 3);
        let mut ws = SigmaWorkspace::new();
        ProximityModel::DistanceDecay { alpha: 0.5 }.materialize_into(&g, 0, &mut ws);
        // Connected small world: the reach is the whole graph, where the
        // flat array is the smaller representation.
        assert!(matches!(ws.snapshot(120), ProximityVec::Dense { .. }));
    }

    #[test]
    fn lossy_wide_reach_snapshot_preserves_the_residual() {
        // A truncating radius whose reach still covers most of the graph:
        // Dense would be the cheaper layout, but it has no residual field —
        // the snapshot must stay Touched so `residual_bound() == 0.0`
        // remains a sound exactness certificate for cached consumers.
        let g = generators::watts_strogatz(120, 4, 0.2, 3);
        let model = ProximityModel::DistanceDecay { alpha: 0.5 };
        let mut ws = SigmaWorkspace::new();
        // Find a radius that both truncates and reaches > half the graph.
        let radius = (1..12)
            .find(|&r| {
                model.materialize_bounded(&g, 0, &mut ws, SigmaBounds::with_radius(r));
                ws.residual_bound() > 0.0 && ws.labels.touched().len() * 2 > 120
            })
            .expect("some radius is both truncating and wide-reach");
        model.materialize_bounded(&g, 0, &mut ws, SigmaBounds::with_radius(radius));
        let snap = ws.snapshot(120);
        assert!(matches!(snap, ProximityVec::Touched { .. }));
        assert_eq!(ws.snapshot_bytes(120), snap.memory_bytes());
        assert_eq!(
            snap.residual_bound().to_bits(),
            ws.residual_bound().to_bits()
        );
    }

    /// Cold snapshot of `model` on `g`, and the edits between two graphs
    /// that differ in the named pairs.
    fn cold(model: ProximityModel, g: &CsrGraph, seeker: NodeId) -> ProximityVec {
        let mut ws = SigmaWorkspace::new();
        model.materialize_into(g, seeker, &mut ws);
        ws.snapshot(g.num_nodes())
    }

    fn edits(old: &CsrGraph, new: &CsrGraph, pairs: &[(NodeId, NodeId)]) -> Vec<EdgeEdit> {
        pairs
            .iter()
            .map(|&(u, v)| EdgeEdit {
                u,
                v,
                old: old.edge_weight(u, v),
                new: new.edge_weight(u, v),
            })
            .collect()
    }

    #[test]
    fn repair_switches_representation_with_the_reach() {
        // Two 6-rings: joined, seeker 0 reaches all 12 nodes (Dense); cut
        // apart, half of them (Touched) — and back.
        let ring = |o: u32| (0..6).map(move |i| (o + i, o + (i + 1) % 6, 1.0));
        let apart = GraphBuilder::from_edges(12, ring(0).chain(ring(6)));
        let joined = apart.with_edits(&[(2, 8, 0.5)], &[]);
        let mut scratch = SigmaRepair::new();
        for model in [
            ProximityModel::WeightedDecay { alpha: 0.5 },
            ProximityModel::DistanceDecay { alpha: 0.5 },
        ] {
            let mut vec = cold(model, &joined, 0);
            assert!(matches!(vec, ProximityVec::Dense { .. }));
            let cut = edits(&joined, &apart, &[(2, 8)]);
            assert_eq!(model.repair(&apart, &cut, &mut vec, &mut scratch), Some(6));
            assert!(matches!(vec, ProximityVec::Touched { .. }));
            assert_eq!(vec, cold(model, &apart, 0));
            let join = edits(&apart, &joined, &[(2, 8)]);
            assert_eq!(
                model.repair(&joined, &join, &mut vec, &mut scratch),
                Some(6)
            );
            assert_eq!(vec, cold(model, &joined, 0));
            // An edit out of the seeker's reach changes nothing.
            let mut vec = cold(model, &apart, 0);
            let far = apart.with_edits(&[], &[(7, 8)]);
            let cut = edits(&apart, &far, &[(7, 8)]);
            assert_eq!(model.repair(&far, &cut, &mut vec, &mut scratch), Some(0));
            assert_eq!(vec, cold(model, &far, 0));
        }
        assert_eq!(scratch.allocation_count(), 2, "the two graph-sized arrays");
    }

    #[test]
    fn repair_refuses_what_it_cannot_keep_exact() {
        let g = chain();
        let next = g.with_edits(&[(0, 3, 1.0)], &[]);
        let e = edits(&g, &next, &[(0, 3)]);
        let mut scratch = SigmaRepair::new();
        // Models without a best-path fixed point.
        for model in [
            ProximityModel::FriendsOnly,
            ProximityModel::AdamicAdar,
            ProximityModel::Ppr {
                alpha: 0.2,
                epsilon: 1e-4,
            },
        ] {
            let mut vec = cold(model, &g, 0);
            assert_eq!(model.repair(&next, &e, &mut vec, &mut scratch), None);
        }
        // A lossy snapshot, a vector over another node count, an edit that
        // names a node the graph does not have.
        let model = ProximityModel::WeightedDecay { alpha: 0.5 };
        let mut ws = SigmaWorkspace::new();
        model.materialize_bounded(&g, 0, &mut ws, SigmaBounds::with_min_mass(0.3));
        let mut lossy = ws.snapshot(4);
        assert!(lossy.residual_bound() > 0.0);
        assert_eq!(model.repair(&next, &e, &mut lossy, &mut scratch), None);
        let mut short = ProximityVec::Dense {
            values: vec![1.0, 0.5],
            seeker: 0,
            non_seeker_max: 0.5,
        };
        assert_eq!(model.repair(&next, &e, &mut short, &mut scratch), None);
        let mut vec = cold(model, &g, 0);
        let outside = [EdgeEdit {
            u: 0,
            v: 9,
            old: None,
            new: Some(1.0),
        }];
        assert_eq!(model.repair(&next, &outside, &mut vec, &mut scratch), None);
        // The scratch array of `Touched` repairs is all zeros again.
        assert!(scratch.dense.iter().all(|&s| s == 0.0));
    }

    /// `DistanceDecay` repairs walk the `alpha^h` table. Past the decay
    /// horizon everything is 0 and stays exact; where two successive powers
    /// round to one sub-normal value a value stops naming its hop count,
    /// and the repair must say so instead of guessing.
    #[test]
    fn distance_decay_repair_is_exact_to_the_horizon_and_refuses_plateaus() {
        let path = |n: usize| {
            GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i as u32, i as u32 + 1, 1.0)))
        };
        let mut scratch = SigmaRepair::new();
        // alpha 0.3: strictly decreasing down to the horizon (618 hops).
        let model = ProximityModel::DistanceDecay { alpha: 0.3 };
        let g = path(2000);
        assert!((decay_horizon(0.3) as usize) < 1000);
        for (inserts, removals) in [
            (vec![(0, 1500, 1.0)], vec![]), // a shortcut beyond the horizon
            (vec![(3, 900, 1.0)], vec![(500, 501)]), // every level past 4 shifts
            (vec![], vec![(610, 611)]),     // a cut just inside the horizon
        ] {
            let next = g.with_edits(&inserts, &removals);
            let pairs: Vec<(u32, u32)> = inserts
                .iter()
                .map(|&(u, v, _)| (u, v))
                .chain(removals.iter().copied())
                .collect();
            let mut vec = cold(model, &g, 0);
            let changed = model.repair(&next, &edits(&g, &next, &pairs), &mut vec, &mut scratch);
            assert!(changed.is_some_and(|c| c > 0));
            assert_eq!(vec, cold(model, &next, 0));
        }
        // alpha 0.9: the powers collide before they reach 0.
        let alpha = 0.9f64;
        let horizon = decay_horizon(alpha) as i32;
        let plateau = (1..horizon)
            .find(|&h| alpha.powi(h) == alpha.powi(h + 1))
            .expect("0.9^h rounds to a repeated sub-normal before it underflows");
        let model = ProximityModel::DistanceDecay { alpha };
        let g = path(plateau as usize + 50);
        let cut = g.with_edits(&[], &[(20, 21)]);
        let mut vec = cold(model, &g, 0);
        let e = edits(&g, &cut, &[(20, 21)]);
        assert_eq!(
            model.repair(&cut, &e, &mut vec, &mut scratch),
            None,
            "zeroing the chain past hop 20 walks through the plateau"
        );
        // The same model over shallow reach never asks about a deep level.
        let mut vec = cold(model, &cut, 0);
        let next = cut.with_edits(&[(2, 10, 1.0)], &[]);
        let e = edits(&cut, &next, &[(2, 10)]);
        assert_eq!(model.repair(&next, &e, &mut vec, &mut scratch), Some(14));
        assert_eq!(vec, cold(model, &next, 0));
    }

    #[test]
    fn cache_worthiness_policy() {
        assert!(!ProximityModel::Global.cache_worthy());
        assert!(!ProximityModel::FriendsOnly.cache_worthy());
        assert!(ProximityModel::DistanceDecay { alpha: 0.5 }.cache_worthy());
        assert!(ProximityModel::WeightedDecay { alpha: 0.5 }.cache_worthy());
        assert!(ProximityModel::Ppr {
            alpha: 0.2,
            epsilon: 1e-4
        }
        .cache_worthy());
        assert!(ProximityModel::AdamicAdar.cache_worthy());
    }

    #[test]
    fn key_bits_distinguish_models_and_parameters() {
        let keys = [
            ProximityModel::Global.key_bits(),
            ProximityModel::FriendsOnly.key_bits(),
            ProximityModel::DistanceDecay { alpha: 0.5 }.key_bits(),
            ProximityModel::DistanceDecay { alpha: 0.6 }.key_bits(),
            ProximityModel::WeightedDecay { alpha: 0.5 }.key_bits(),
            ProximityModel::Ppr {
                alpha: 0.2,
                epsilon: 1e-4,
            }
            .key_bits(),
            ProximityModel::Ppr {
                alpha: 0.2,
                epsilon: 1e-5,
            }
            .key_bits(),
            ProximityModel::AdamicAdar.key_bits(),
        ];
        let set: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
    }
}
