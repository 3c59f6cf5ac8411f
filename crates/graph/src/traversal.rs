//! Graph traversals: BFS hop distances and multiplicative path proximity.
//!
//! Social proximity in `friends-core` is a *decreasing* function of
//! distance: hop counts feed distance decay, and products of per-edge
//! multipliers feed strength-aware decay.
//!
//! Multiplicative path proximity has two kernels returning bit-identical
//! values: [`ProximityScan`] yields nodes in decreasing proximity from a
//! heap (for callers that stop early on `peek_bound`), and
//! [`decay_labels`] labels every node in `O(n + m)` in no particular order
//! (for callers that want the whole vector). [`repair_labels`] brings a
//! labelled vector to an edited graph in place.

use crate::csr::{CsrGraph, NodeId};
use crate::OrdF64;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Sentinel hop distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Hop distances from `src` to every node (`UNREACHABLE` if disconnected).
pub fn bfs_distances(g: &CsrGraph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    bfs_into(g, src, u32::MAX, &mut dist);
    dist
}

/// BFS writing into a caller-provided distance buffer (must be pre-filled
/// with `UNREACHABLE`, length `num_nodes`). Returns the number of reached
/// nodes (including `src`). This is the allocation-free workhorse used by
/// landmark construction, which runs thousands of BFS passes.
pub fn bfs_into(g: &CsrGraph, src: NodeId, max_hops: u32, dist: &mut [u32]) -> usize {
    assert_eq!(dist.len(), g.num_nodes());
    if g.num_nodes() == 0 {
        return 0;
    }
    let mut q = VecDeque::new();
    dist[src as usize] = 0;
    q.push_back(src);
    let mut reached = 1usize;
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize];
        if du >= max_hops {
            continue;
        }
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                reached += 1;
                q.push_back(v);
            }
        }
    }
    reached
}

/// Reusable epoch-stamped scratch for [`bfs_stamped`]: distances are valid
/// only for the current epoch, so starting a new traversal is `O(1)` instead
/// of an `O(n)` re-fill with `UNREACHABLE`.
#[derive(Debug, Default)]
pub struct BfsWorkspace {
    dist: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    queue: VecDeque<NodeId>,
    touched: Vec<NodeId>,
    /// Whether the most recent traversal's hop horizon actually cut the
    /// frontier off from unreached nodes (see [`BfsWorkspace::truncated`]).
    truncated: bool,
    allocations: u64,
}

impl BfsWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        BfsWorkspace::default()
    }

    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.stamp.resize(n, 0);
            self.allocations += 1;
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: invalidate every stamp once per 2^32 traversals.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
        self.touched.clear();
        self.truncated = false;
    }

    /// Whether the most recent bounded traversal left reachable nodes
    /// unvisited: some node *at* the hop horizon still had an unstamped
    /// neighbor. `false` proves the horizon covered the seeker's whole
    /// reachable set — a radius-bounded proximity materialization is then
    /// byte-identical to the unbounded one. Checking costs one neighbor
    /// scan per horizon-level node, and nothing at all when the horizon is
    /// never reached.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Hop distance of `u` in the most recent traversal, or `None` if it was
    /// not reached.
    #[inline]
    pub fn dist(&self, u: NodeId) -> Option<u32> {
        if self.stamp[u as usize] == self.epoch {
            Some(self.dist[u as usize])
        } else {
            None
        }
    }

    /// Nodes reached by the most recent traversal, in discovery order
    /// (source first).
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// Number of times the workspace grew its buffers (a steady-state query
    /// loop must not increase this).
    pub fn allocation_count(&self) -> u64 {
        self.allocations
    }

    #[inline]
    fn visit(&mut self, u: NodeId, d: u32) {
        self.dist[u as usize] = d;
        self.stamp[u as usize] = self.epoch;
        self.touched.push(u);
        self.queue.push_back(u);
    }
}

/// BFS from `src` into an epoch-stamped workspace: the allocation-free
/// equivalent of [`bfs_into`] for hot query paths. Returns the number of
/// reached nodes; distances are read back through [`BfsWorkspace::dist`].
pub fn bfs_stamped(g: &CsrGraph, src: NodeId, max_hops: u32, ws: &mut BfsWorkspace) -> usize {
    ws.begin(g.num_nodes());
    if g.num_nodes() == 0 {
        return 0;
    }
    ws.visit(src, 0);
    while let Some(u) = ws.queue.pop_front() {
        let du = ws.dist[u as usize];
        if du >= max_hops {
            // Horizon level: record (once) whether anything lies beyond it,
            // so callers can tell a truncating bound from a covering one.
            if !ws.truncated
                && g.neighbors(u)
                    .iter()
                    .any(|&v| ws.stamp[v as usize] != ws.epoch)
            {
                ws.truncated = true;
            }
            continue;
        }
        for &v in g.neighbors(u) {
            if ws.stamp[v as usize] != ws.epoch {
                ws.visit(v, du + 1);
            }
        }
    }
    ws.touched.len()
}

/// Reusable epoch-stamped scratch for proximity-ordered traversals
/// ([`ProximityScan`]): the tentative-proximity array, the settled set and
/// the frontier heap survive across queries, so starting a traversal
/// allocates nothing once warm. Whole-vector consumers use
/// [`ProximityLabels`] with [`decay_labels`] instead.
#[derive(Debug, Default)]
pub struct ProximityWorkspace {
    best: Vec<f64>,
    best_stamp: Vec<u32>,
    settled_stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<(OrdF64, NodeId)>,
    /// Mass floor of the current traversal: tentative proximities below it
    /// are never enqueued (and therefore never yielded). `0.0` disables.
    floor: f64,
    /// Whether the floor actually dropped a node with positive proximity.
    dropped: bool,
    allocations: u64,
}

impl ProximityWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        ProximityWorkspace::default()
    }

    /// Number of times the workspace grew its buffers.
    pub fn allocation_count(&self) -> u64 {
        self.allocations
    }

    fn begin_with_floor(&mut self, src: NodeId, n: usize, floor: f64) {
        debug_assert!((0.0..=1.0).contains(&floor), "floor must be in [0, 1]");
        self.floor = floor;
        self.dropped = false;
        if self.best.len() < n {
            self.best.resize(n, 0.0);
            self.best_stamp.resize(n, 0);
            self.settled_stamp.resize(n, 0);
            self.allocations += 1;
        }
        if self.epoch == u32::MAX {
            self.best_stamp.iter_mut().for_each(|s| *s = 0);
            self.settled_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.heap.clear();
        if n > 0 {
            self.best[src as usize] = 1.0;
            self.best_stamp[src as usize] = self.epoch;
            self.heap.push((OrdF64(1.0), src));
        }
    }

    #[inline]
    fn best_of(&self, u: NodeId) -> f64 {
        if self.best_stamp[u as usize] == self.epoch {
            self.best[u as usize]
        } else {
            0.0
        }
    }

    #[inline]
    fn is_settled(&self, u: NodeId) -> bool {
        self.settled_stamp[u as usize] == self.epoch
    }

    fn bound(&self) -> Option<f64> {
        self.heap.peek().map(|&(OrdF64(p), _)| p)
    }

    /// One best-first step: settles and returns the next-closest node.
    fn step<F: FnMut(f32) -> f64>(&mut self, g: &CsrGraph, decay: &mut F) -> Option<(NodeId, f64)> {
        while let Some((OrdF64(p), u)) = self.heap.pop() {
            if self.is_settled(u) {
                continue;
            }
            self.settled_stamp[u as usize] = self.epoch;
            for (v, w) in g.edges(u) {
                if self.is_settled(v) {
                    continue;
                }
                let mult = decay(w);
                debug_assert!(
                    (0.0..=1.0).contains(&mult),
                    "decay must map into (0, 1], got {mult}"
                );
                let np = p * mult;
                if np < self.floor {
                    // Below the mass floor: any path through this relaxation
                    // yields proximity < floor (multipliers are ≤ 1), so the
                    // node is only ever reached if a *different* path clears
                    // the floor. Record that something real was dropped.
                    if np > 0.0 {
                        self.dropped = true;
                    }
                    continue;
                }
                if np > self.best_of(v) {
                    self.best[v as usize] = np;
                    self.best_stamp[v as usize] = self.epoch;
                    self.heap.push((OrdF64(np), v));
                }
            }
            return Some((u, p));
        }
        None
    }
}

/// Nodes visited in best-first order of *decreasing proximity*, where
/// proximity multiplies along edges: `prox(path) = Π decay(w_e)`.
///
/// This is the traversal kernel of the `FriendExpansion` processor: it yields
/// `(node, proximity)` pairs such that the proximity of each yielded node is
/// an upper bound on that of every node yielded later. Implemented as a
/// Dijkstra over `-log prox`, surfaced through an iterator so the caller can
/// stop as soon as its termination bound fires. It borrows a caller-owned
/// [`ProximityWorkspace`] whose buffers are recycled across traversals via
/// epoch stamps, so a warm scan allocates nothing.
pub struct ProximityScan<'g, 'w, F> {
    g: &'g CsrGraph,
    decay: F,
    ws: &'w mut ProximityWorkspace,
}

impl<'g, 'w, F: FnMut(f32) -> f64> ProximityScan<'g, 'w, F> {
    /// Starts a traversal from `src`, recycling `ws`'s buffers. `decay`
    /// maps an edge weight to a per-edge proximity multiplier in `(0, 1]`.
    pub fn new(g: &'g CsrGraph, src: NodeId, decay: F, ws: &'w mut ProximityWorkspace) -> Self {
        Self::with_floor(g, src, decay, 0.0, ws)
    }

    /// Like [`ProximityScan::new`] with a **mass floor**: nodes whose best
    /// path proximity falls below `floor` are neither enqueued nor yielded,
    /// so the traversal (heap included) stays proportional to the seeker's
    /// above-floor reach instead of the component size. Proximity only
    /// decreases along a path, so every node with true proximity ≥ `floor`
    /// is still yielded, exactly as the unbounded scan would — dropping is
    /// sound, and [`ProximityScan::residual_bound`] reports what it may
    /// have cost. `floor == 0.0` is the unbounded scan.
    pub fn with_floor(
        g: &'g CsrGraph,
        src: NodeId,
        decay: F,
        floor: f64,
        ws: &'w mut ProximityWorkspace,
    ) -> Self {
        ws.begin_with_floor(src, g.num_nodes(), floor);
        ProximityScan { g, decay, ws }
    }

    /// Upper bound on the proximity of every not-yet-yielded node.
    pub fn peek_bound(&self) -> Option<f64> {
        self.ws.bound()
    }

    /// Upper bound on the proximity of any node the floor dropped: the
    /// floor itself when a positive-proximity node was cut, `0.0` when
    /// nothing was — the traversal then provably covered every node with
    /// positive proximity, and the bounded scan is byte-identical to the
    /// unbounded one.
    pub fn residual_bound(&self) -> f64 {
        if self.ws.dropped {
            self.ws.floor
        } else {
            0.0
        }
    }
}

impl<F: FnMut(f32) -> f64> Iterator for ProximityScan<'_, '_, F> {
    type Item = (NodeId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        self.ws.step(self.g, &mut self.decay)
    }
}

/// One packed per-node record of a [`ProximityLabels`] map: the value, the
/// epoch it belongs to and — during [`decay_labels`] — whether that value
/// has been relaxed along the node's arcs yet. Packed so a lookup or a
/// relaxation touches one cache line, not one per array.
#[derive(Clone, Copy, Debug, Default)]
struct Label {
    value: f64,
    stamp: u32,
    relaxed: bool,
}

/// An epoch-stamped `node → f64` map plus the scratch of the unordered
/// proximity kernel [`decay_labels`], which writes its tentative
/// proximities straight into the map: what the kernel leaves behind *is*
/// the proximity vector, with no second copy pass. Starting a new epoch is
/// `O(1)`; nodes not written this epoch read `0.0`.
#[derive(Debug, Default)]
pub struct ProximityLabels {
    cells: Vec<Label>,
    epoch: u32,
    /// Nodes written this epoch, in first-write order.
    touched: Vec<NodeId>,
    /// `buckets[b]`: nodes whose tentative proximity lies in binade `b`
    /// (`[2^-b, 2^-(b-1))`), as LIFO stacks that keep their capacity.
    buckets: Vec<Vec<NodeId>>,
    /// Targets of below-floor relaxations, resolved once the run is over.
    cut: Vec<NodeId>,
    allocations: u64,
}

impl ProximityLabels {
    /// Creates an empty map; buffers are sized on first use.
    pub fn new() -> Self {
        ProximityLabels::default()
    }

    /// Starts a new epoch over `n` nodes: every node reads `0.0` again.
    pub fn begin(&mut self, n: usize) {
        if self.cells.len() < n {
            self.cells.resize(n, Label::default());
            self.allocations += 1;
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: invalidate every stamp once per 2^32 epochs.
            self.cells.iter_mut().for_each(|c| c.stamp = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// The value written for `u` this epoch, `0.0` if none.
    #[inline]
    pub fn get(&self, u: NodeId) -> f64 {
        let c = &self.cells[u as usize];
        if c.stamp == self.epoch {
            c.value
        } else {
            0.0
        }
    }

    /// Writes `value` for `u`.
    #[inline]
    pub fn set(&mut self, u: NodeId, value: f64) {
        let c = &mut self.cells[u as usize];
        if c.stamp != self.epoch {
            c.stamp = self.epoch;
            self.touched.push(u);
        }
        c.value = value;
    }

    /// Adds `delta` to `u`'s value (starting from `0.0`).
    #[inline]
    pub fn add(&mut self, u: NodeId, delta: f64) {
        let c = &mut self.cells[u as usize];
        if c.stamp == self.epoch {
            c.value += delta;
        } else {
            c.stamp = self.epoch;
            c.value = delta;
            self.touched.push(u);
        }
    }

    /// This epoch's values for nodes `0..n` as a flat vector, read in one
    /// sequential pass over the records.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        let mut dense: Vec<f64> = self
            .cells
            .iter()
            .take(n)
            .map(|c| if c.stamp == self.epoch { c.value } else { 0.0 })
            .collect();
        dense.resize(n, 0.0);
        dense
    }

    /// Nodes written this epoch, in first-write order.
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// Sorts the touched list by node id (each node appears once).
    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    /// Number of times the per-node record array grew (the kernel's stacks
    /// amortize like any queue and, as in [`BfsWorkspace`], are not counted).
    pub fn allocation_count(&self) -> u64 {
        self.allocations
    }

    #[inline]
    fn push(&mut self, bucket: usize, u: NodeId) {
        if bucket >= self.buckets.len() {
            self.buckets.resize_with(bucket + 1, Vec::new);
        }
        self.buckets[bucket].push(u);
    }
}

/// The binade of a proximity in `(0, 1]`, counted down from 1.0: bucket 0
/// holds exactly `1.0`, bucket `b` holds `[2^-b, 2^-(b-1))`, subnormals
/// share the last one. Smaller proximity ⇒ same or later bucket.
#[inline]
fn binade(p: f64) -> usize {
    1023usize.saturating_sub((p.to_bits() >> 52) as usize)
}

/// Every node's best-path proximity from `src` — `max_path Π decay(w_e)`,
/// each product taken in path order — written into `labels` without a
/// priority queue. Returns an upper bound on the proximity of any node the
/// `floor` cut off: `floor` when a node with positive proximity was
/// dropped, `0.0` when none was.
///
/// This computes exactly what draining [`ProximityScan::with_floor`]
/// yields, **bit for bit**, in `O(n + m)` instead of `O(m log n)`, but in
/// no particular order; [`ProximityScan`] remains the kernel for callers
/// that need decreasing-proximity iteration with `peek_bound`.
///
/// `decay` must map into `[0, 1]`, so a relaxation never raises a value and
/// therefore never lands in an earlier binade than the node it came from.
/// Tentative proximities are bucketed by binade and the buckets processed
/// in increasing order: when bucket `b` is reached every value above
/// `2^-(b-1)` is final. A popped node is relaxed unless its current value
/// already was. With multipliers `≤ 0.5` every relaxation lands in a later
/// bucket and each node is relaxed once; larger multipliers can improve a
/// node inside the bucket being processed, which re-queues it there
/// (label-correcting within one binade) until nothing changes. As
/// `x ↦ fl(x · m)` is monotone, the values converge to the one fixed point
/// — the maximum over paths — whatever the order, which is also what the
/// heap-ordered scan settles.
///
/// Under a `floor`, relaxations below it are skipped. Proximity only
/// decreases along a path, so every node whose proximity is `≥ floor` is
/// still labelled exactly; the nodes cut off are those some kept node
/// reached below the floor and no path reached above it.
pub fn decay_labels<F: FnMut(f32) -> f64>(
    g: &CsrGraph,
    src: NodeId,
    mut decay: F,
    floor: f64,
    labels: &mut ProximityLabels,
) -> f64 {
    debug_assert!((0.0..=1.0).contains(&floor), "floor must be in [0, 1]");
    labels.begin(g.num_nodes());
    if g.num_nodes() == 0 {
        return 0.0;
    }
    // A finished run leaves every stack drained; one that unwound part-way
    // (a panicking `decay`) must not leak its entries into this epoch.
    labels.buckets.iter_mut().for_each(Vec::clear);
    labels.cut.clear();
    let epoch = labels.epoch;
    labels.cells[src as usize] = Label {
        value: 1.0,
        stamp: epoch,
        relaxed: false,
    };
    labels.touched.push(src);
    labels.push(0, src);
    let mut b = 0;
    while b < labels.buckets.len() {
        while let Some(u) = labels.buckets[b].pop() {
            let cell = &mut labels.cells[u as usize];
            if cell.relaxed {
                continue; // this value already went out along u's arcs
            }
            cell.relaxed = true;
            let p = cell.value;
            for (v, w) in g.edges(u) {
                let mult = decay(w);
                debug_assert!(
                    (0.0..=1.0).contains(&mult),
                    "decay must map into [0, 1], got {mult}"
                );
                let np = p * mult;
                if np < floor {
                    if np > 0.0 {
                        labels.cut.push(v);
                    }
                    continue;
                }
                let cell = &mut labels.cells[v as usize];
                let known = cell.stamp == epoch;
                if np > if known { cell.value } else { 0.0 } {
                    let bucket = binade(np);
                    // An unrelaxed value of the same binade means `v` is
                    // still waiting on that stack: no second entry needed.
                    let queued = known && !cell.relaxed && binade(cell.value) == bucket;
                    if !known {
                        cell.stamp = epoch;
                        labels.touched.push(v);
                    }
                    cell.value = np;
                    cell.relaxed = false;
                    if !queued {
                        labels.push(bucket, v);
                    }
                }
            }
        }
        b += 1;
    }
    let (cells, cut) = (&labels.cells, &labels.cut);
    if cut.iter().any(|&v| cells[v as usize].stamp != epoch) {
        floor
    } else {
        0.0
    }
}

/// One undirected pair whose stored weight a batch of graph edits changed:
/// `old` is its weight on the graph a proximity vector was computed on,
/// `new` its weight on the graph [`repair_labels`] repairs the vector to
/// (`None` = no such edge). A pair whose two weights agree is not an edit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeEdit {
    pub u: NodeId,
    pub v: NodeId,
    pub old: Option<f32>,
    pub new: Option<f32>,
}

/// What phase A of [`repair_labels`] has decided about a node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Support {
    #[default]
    Unquestioned,
    /// Lost a tight in-arc; waiting on the suspect heap.
    Suspect,
    /// A suspect that still has a tight in-arc from an unaffected node.
    Kept,
    /// A suspect with no surviving support: its old value is void.
    Affected,
}

/// One packed per-node record of a [`RepairScratch`], valid for the run
/// whose stamp it carries.
#[derive(Clone, Copy, Debug, Default)]
struct RepairCell {
    /// The node's value before this run first overwrote it.
    old: f64,
    stamp: u32,
    support: Support,
    overwritten: bool,
}

/// Reusable stamped scratch of [`repair_labels`]; after a run it holds the
/// run's changed-node set ([`RepairScratch::changed`]).
#[derive(Debug, Default)]
pub struct RepairScratch {
    cells: Vec<RepairCell>,
    run: u32,
    /// Suspects by decreasing old value in phase A, raised nodes by
    /// decreasing new value in phase B; empty between the two.
    heap: BinaryHeap<(OrdF64, NodeId)>,
    affected: Vec<NodeId>,
    /// Nodes whose value this run overwrote, in first-write order.
    overwritten: Vec<NodeId>,
    changed: Vec<NodeId>,
    allocations: u64,
}

impl RepairScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        RepairScratch::default()
    }

    /// The nodes whose value the most recent run changed (old and new bits
    /// differ), in no particular order.
    pub fn changed(&self) -> &[NodeId] {
        &self.changed
    }

    /// The value `u` held before the most recent run; `u` must be one of
    /// its [`RepairScratch::changed`] nodes.
    pub fn old_value(&self, u: NodeId) -> f64 {
        let c = &self.cells[u as usize];
        debug_assert!(c.stamp == self.run && c.overwritten, "{u} did not change");
        c.old
    }

    /// Number of times the per-node record array grew (the heap and the
    /// node lists amortize and keep their capacity, as in
    /// [`ProximityLabels`]).
    pub fn allocation_count(&self) -> u64 {
        self.allocations
    }

    fn begin(&mut self, n: usize) {
        if self.cells.len() < n {
            self.cells.resize(n, RepairCell::default());
            self.allocations += 1;
        }
        if self.run == u32::MAX {
            self.cells.iter_mut().for_each(|c| c.stamp = 0);
            self.run = 0;
        }
        self.run += 1;
        self.heap.clear();
        self.affected.clear();
        self.overwritten.clear();
        self.changed.clear();
    }

    #[inline]
    fn cell(&mut self, u: NodeId) -> &mut RepairCell {
        let c = &mut self.cells[u as usize];
        if c.stamp != self.run {
            *c = RepairCell {
                stamp: self.run,
                ..RepairCell::default()
            };
        }
        c
    }

    #[inline]
    fn support(&self, u: NodeId) -> Support {
        let c = &self.cells[u as usize];
        if c.stamp == self.run {
            c.support
        } else {
            Support::Unquestioned
        }
    }

    #[inline]
    fn suspect(&mut self, u: NodeId, value: f64) {
        let c = self.cell(u);
        if c.support == Support::Unquestioned {
            c.support = Support::Suspect;
            self.heap.push((OrdF64(value), u));
        }
    }

    /// Overwrites `values[u]`, remembering what it held before the run.
    #[inline]
    fn write(&mut self, values: &mut [f64], u: NodeId, value: f64) {
        let c = self.cell(u);
        if !c.overwritten {
            c.overwritten = true;
            c.old = values[u as usize];
            self.overwritten.push(u);
        }
        values[u as usize] = value;
    }
}

/// Repairs, in place, a best-path proximity vector from `seeker` after the
/// graph it was computed on was edited into `g`: on return `values` holds
/// what a from-scratch labelling of `g` would, **bit for bit**, at a cost of
/// `O(edits + changed nodes × degree)` heap steps instead of `O(n + m)`.
///
/// `values[u]` must be the fixed point [`decay_labels`] computes on the old
/// graph — `1.0` at the seeker, `max fl(relax(values[x], w(x, u)))` over
/// in-arcs elsewhere, `0.0` where unreached — with no floor. `relax(p, w)`
/// is the model's one-arc step: non-decreasing in `p`, never above `p`, and
/// `0.0` for `p == 0.0` is never asked (zero-valued tails are skipped).
/// `edits` lists every pair whose weight differs between the two graphs.
///
/// **Phase A — lost support.** An arc `x → t` is *tight* when
/// `relax(values[x], w) == values[t] > 0`. The head of every edited arc that
/// was tight under its old weight and is not under its new one becomes a
/// suspect. Suspects are settled in decreasing old value, so that every node
/// that could support one (a tight in-arc with a strictly larger tail) has
/// been decided before it: a suspect with such an arc from a node not found
/// affected keeps its value; otherwise it is *affected*, and every head it
/// is tight to becomes a suspect. Support demands the strictly larger tail;
/// suspicion does not. On a plateau (`relax(p, w) == p`, sub-normal
/// products) a node therefore cannot vouch for an equal-valued neighbour —
/// which would let a cycle of them keep each other alive with no path to
/// the seeker left — but does pass suspicion on to it, so a plateau that
/// loses its support is affected as a whole: the affected set may be
/// larger than the set of nodes that change, never smaller.
///
/// **Phase B — settle.** Affected nodes are zeroed and re-seeded from their
/// best in-neighbour, heads a new or up-weighted arc improves are raised,
/// and raised nodes relax their arcs in decreasing value until nothing
/// improves. Every surviving value has a chain of tight arcs back to the
/// seeker in `g`, so it is a lower bound of the new fixed point, and every
/// arc that could be violated has a raised tail on the heap; `relax` being
/// monotone, the loop ends at that fixed point.
pub fn repair_labels<F: FnMut(f64, f32) -> f64>(
    g: &CsrGraph,
    seeker: NodeId,
    mut relax: F,
    edits: &[EdgeEdit],
    values: &mut [f64],
    scratch: &mut RepairScratch,
) {
    assert_eq!(values.len(), g.num_nodes(), "one value per node");
    scratch.begin(values.len());
    for e in edits {
        let Some(old) = e.old else { continue };
        for (a, b) in [(e.u, e.v), (e.v, e.u)] {
            let (pa, pb) = (values[a as usize], values[b as usize]);
            if pa > 0.0
                && pb > 0.0
                && b != seeker
                && relax(pa, old) == pb
                && !e.new.is_some_and(|new| relax(pa, new) == pb)
            {
                scratch.suspect(b, pb);
            }
        }
    }
    while let Some((OrdF64(p), t)) = scratch.heap.pop() {
        let supported = g.edges(t).any(|(x, w)| {
            let px = values[x as usize];
            px > p && scratch.support(x) != Support::Affected && relax(px, w) == p
        });
        if supported {
            scratch.cell(t).support = Support::Kept;
            continue;
        }
        scratch.cell(t).support = Support::Affected;
        scratch.affected.push(t);
        for (y, w) in g.edges(t) {
            let py = values[y as usize];
            if py > 0.0 && y != seeker && relax(p, w) == py {
                scratch.suspect(y, py);
            }
        }
    }

    for i in 0..scratch.affected.len() {
        let t = scratch.affected[i];
        scratch.write(values, t, 0.0);
    }
    for i in 0..scratch.affected.len() {
        let t = scratch.affected[i];
        let best = g
            .edges(t)
            .filter(|&(x, _)| values[x as usize] > 0.0)
            .map(|(x, w)| relax(values[x as usize], w))
            .fold(0.0, f64::max);
        if best > 0.0 {
            values[t as usize] = best;
            scratch.heap.push((OrdF64(best), t));
        }
    }
    for e in edits {
        let Some(new) = e.new else { continue };
        for (a, b) in [(e.u, e.v), (e.v, e.u)] {
            let pa = values[a as usize];
            if pa > 0.0 {
                let raised = relax(pa, new);
                if raised > values[b as usize] {
                    scratch.write(values, b, raised);
                    scratch.heap.push((OrdF64(raised), b));
                }
            }
        }
    }
    while let Some((OrdF64(p), u)) = scratch.heap.pop() {
        if values[u as usize] != p {
            continue; // raised again since this entry was pushed
        }
        for (y, w) in g.edges(u) {
            let raised = relax(p, w);
            if raised > values[y as usize] {
                scratch.write(values, y, raised);
                scratch.heap.push((OrdF64(raised), y));
            }
        }
    }
    let (cells, changed) = (&scratch.cells, &mut scratch.changed);
    changed.extend(
        scratch
            .overwritten
            .iter()
            .filter(|&&u| cells[u as usize].old.to_bits() != values[u as usize].to_bits()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use crate::generators;

    fn path_graph(n: usize) -> CsrGraph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i as NodeId, i as NodeId + 1, 1.0)))
    }

    /// A whole [`ProximityScan`] from `src` on a fresh workspace.
    fn scan(g: &CsrGraph, src: NodeId, decay: impl FnMut(f32) -> f64) -> Vec<(NodeId, f64)> {
        ProximityScan::new(g, src, decay, &mut ProximityWorkspace::new()).collect()
    }

    #[test]
    fn bfs_on_path() {
        let g = path_graph(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = GraphBuilder::from_edges(4, [(0, 1, 1.0)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn bfs_limited_respects_horizon() {
        let g = path_graph(10);
        let mut d = vec![UNREACHABLE; 10];
        assert_eq!(bfs_into(&g, 0, 3, &mut d), 4);
        assert_eq!(d[3], 3);
        assert_eq!(d[4], UNREACHABLE);
    }

    #[test]
    fn bfs_into_returns_reach_count() {
        let g = GraphBuilder::from_edges(5, [(0, 1, 1.0), (1, 2, 1.0)]);
        let mut buf = vec![UNREACHABLE; 5];
        let r = bfs_into(&g, 0, u32::MAX, &mut buf);
        assert_eq!(r, 3);
    }

    #[test]
    fn proximity_order_is_monotone_decreasing() {
        let g = generators::barabasi_albert(200, 3, 8);
        let seq: Vec<f64> = scan(&g, 0, |_| 0.5).into_iter().map(|(_, p)| p).collect();
        assert!(!seq.is_empty());
        for w in seq.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn proximity_order_unit_decay_on_path() {
        let g = path_graph(4);
        let order = scan(&g, 0, |_| 0.5);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], (0, 1.0));
        assert_eq!(order[1].0, 1);
        assert!((order[1].1 - 0.5).abs() < 1e-12);
        assert!((order[3].1 - 0.125).abs() < 1e-12);
    }

    #[test]
    fn proximity_order_takes_best_path() {
        // Direct weak edge vs two strong hops; multiplicative proximity
        // should pick whichever product is larger.
        let g = GraphBuilder::from_edges(3, [(0, 2, 0.2), (0, 1, 0.9), (1, 2, 0.9)]);
        let order = scan(&g, 0, |w| w as f64);
        let p2 = order.iter().find(|&&(u, _)| u == 2).unwrap().1;
        // Weights are f32, so 0.9 is not exactly representable; allow slack.
        assert!((p2 - 0.81).abs() < 1e-6, "expected 0.9*0.9, got {p2}");
    }

    #[test]
    fn proximity_peek_bound_is_upper_bound() {
        let g = generators::watts_strogatz(100, 4, 0.1, 5);
        let mut ws = ProximityWorkspace::new();
        let mut it = ProximityScan::new(&g, 0, |_| 0.7, &mut ws);
        let mut yielded = Vec::new();
        loop {
            let bound = it.peek_bound();
            match it.next() {
                Some((u, p)) => {
                    assert!(bound.unwrap() >= p - 1e-12);
                    yielded.push(u);
                }
                None => break,
            }
        }
        assert_eq!(yielded.len(), 100);
    }

    #[test]
    fn proximity_order_empty_graph() {
        let g = CsrGraph::empty(0);
        // Constructing on an empty graph must not panic and yields nothing.
        assert!(scan(&g, 0, |_| 0.5).is_empty());
    }

    #[test]
    fn bfs_stamped_matches_bfs_distances_across_reuse() {
        let g = generators::watts_strogatz(150, 4, 0.2, 6);
        let mut ws = BfsWorkspace::new();
        for src in [0u32, 7, 149, 0] {
            let reached = bfs_stamped(&g, src, u32::MAX, &mut ws);
            let want = bfs_distances(&g, src);
            assert_eq!(reached, want.iter().filter(|&&d| d != UNREACHABLE).count());
            for u in 0..150u32 {
                let got = ws.dist(u);
                if want[u as usize] == UNREACHABLE {
                    assert_eq!(got, None, "node {u}");
                } else {
                    assert_eq!(got, Some(want[u as usize]), "node {u}");
                }
            }
        }
        // Buffers were sized exactly once despite four traversals.
        assert_eq!(ws.allocation_count(), 1);
    }

    #[test]
    fn bfs_stamped_respects_horizon_and_disconnection() {
        let g = GraphBuilder::from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let mut ws = BfsWorkspace::new();
        bfs_stamped(&g, 0, 2, &mut ws);
        assert_eq!(ws.dist(2), Some(2));
        assert_eq!(ws.dist(3), None); // beyond horizon
        assert_eq!(ws.dist(5), None); // disconnected
        assert_eq!(ws.touched(), &[0, 1, 2]);
    }

    #[test]
    fn proximity_scan_equals_proximity_order() {
        // A warm, reused workspace scans exactly like a fresh one.
        let g = generators::barabasi_albert(250, 3, 11);
        let mut ws = ProximityWorkspace::new();
        for src in [0u32, 42, 0, 199] {
            let want = scan(&g, src, |w| 0.6 * w as f64);
            let got: Vec<(NodeId, f64)> =
                ProximityScan::new(&g, src, |w| 0.6 * w as f64, &mut ws).collect();
            assert_eq!(want, got, "src {src}");
        }
        assert_eq!(ws.allocation_count(), 1, "scan reallocated while warm");
    }

    #[test]
    fn proximity_scan_peek_bound_is_upper_bound() {
        let g = generators::watts_strogatz(80, 4, 0.15, 9);
        let mut ws = ProximityWorkspace::new();
        let mut it = ProximityScan::new(&g, 3, |_| 0.7, &mut ws);
        loop {
            let bound = it.peek_bound();
            match it.next() {
                Some((_, p)) => assert!(bound.unwrap() >= p - 1e-12),
                None => break,
            }
        }
    }

    #[test]
    fn proximity_scan_empty_graph() {
        let g = CsrGraph::empty(0);
        let mut ws = ProximityWorkspace::new();
        assert!(ProximityScan::new(&g, 0, |_| 0.5, &mut ws).next().is_none());
    }

    #[test]
    fn bfs_truncated_flag_distinguishes_covering_horizons() {
        let g = path_graph(10);
        let mut ws = BfsWorkspace::new();
        bfs_stamped(&g, 0, 3, &mut ws);
        assert!(ws.truncated(), "horizon 3 cuts a 10-node path");
        bfs_stamped(&g, 0, 9, &mut ws);
        assert!(!ws.truncated(), "horizon 9 covers the whole path");
        bfs_stamped(&g, 0, u32::MAX, &mut ws);
        assert!(!ws.truncated());
        // A horizon that exactly covers the component is not truncation,
        // even when the graph has unreachable nodes elsewhere.
        let g2 = GraphBuilder::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        bfs_stamped(&g2, 0, 1, &mut ws);
        assert!(!ws.truncated());
        assert_eq!(ws.touched(), &[0, 1]);
    }

    #[test]
    fn proximity_scan_floor_yields_exact_above_floor_prefix() {
        let g = generators::watts_strogatz(120, 4, 0.2, 13);
        let mut ws = ProximityWorkspace::new();
        let full: Vec<(NodeId, f64)> =
            ProximityScan::new(&g, 0, |w| 0.6 * w as f64, &mut ws).collect();
        for floor in [0.0f64, 1e-9, 1e-3, 0.05, 0.3] {
            let mut scan = ProximityScan::with_floor(&g, 0, |w| 0.6 * w as f64, floor, &mut ws);
            let mut got = Vec::new();
            for x in scan.by_ref() {
                got.push(x);
            }
            let residual = scan.residual_bound();
            // Proximities decrease, so the ≥-floor subset is a prefix of the
            // unbounded order — and the bounded scan must reproduce it
            // exactly (same nodes, same bits, same order).
            let want: Vec<(NodeId, f64)> = full
                .iter()
                .copied()
                .take_while(|&(_, p)| p >= floor)
                .collect();
            assert_eq!(got, want, "floor {floor}");
            assert!(residual <= floor, "floor {floor}: residual {residual}");
            if residual == 0.0 {
                // A zero residual is a proof of coverage.
                assert_eq!(got.len(), full.len(), "floor {floor}");
            }
            if got.len() < full.len() {
                assert!(residual > 0.0, "floor {floor}: dropped without residual");
            }
        }
    }

    #[test]
    fn decay_labels_reuse_keeps_stack_capacity_and_survives_epoch_wrap() {
        let g = generators::assign_weights(
            &generators::barabasi_albert(300, 3, 21),
            generators::WeightModel::Jaccard { floor: 0.1 },
            21,
        );
        let decay = |w: f32| 0.8 * (w as f64).clamp(0.0, 1.0);
        let want = |src| scan(&g, src, decay);
        let mut labels = ProximityLabels::new();
        decay_labels(&g, 5, decay, 0.0, &mut labels);
        let capacities: Vec<usize> = labels.buckets.iter().map(Vec::capacity).collect();
        assert!(capacities.iter().any(|&c| c > 0));
        // The same traversal again finds every stack already large enough.
        decay_labels(&g, 5, decay, 0.0, &mut labels);
        let again: Vec<usize> = labels.buckets.iter().map(Vec::capacity).collect();
        assert_eq!(capacities, again, "stacks must be cleared, not rebuilt");
        assert_eq!(labels.allocation_count(), 1);
        // Epoch wrap: records stamped in the last epoch before the wrap
        // must not read as current in the first one after it.
        labels.epoch = u32::MAX - 1;
        decay_labels(&g, 5, decay, 0.0, &mut labels);
        assert_eq!(labels.epoch, u32::MAX);
        for src in [7, 5] {
            decay_labels(&g, src, decay, 0.05, &mut labels);
            let kept: Vec<(NodeId, f64)> =
                want(src).into_iter().filter(|&(_, p)| p >= 0.05).collect();
            assert_eq!(labels.touched().len(), kept.len(), "src {src}");
            for (u, p) in kept {
                assert_eq!(labels.get(u).to_bits(), p.to_bits(), "src {src} node {u}");
            }
        }
        assert_eq!(labels.epoch, 2, "wrapped to epoch 1, then one more run");
    }

    #[test]
    fn proximity_labels_read_zero_until_written() {
        let mut labels = ProximityLabels::new();
        labels.begin(4);
        labels.set(2, 0.5);
        labels.add(2, 0.25);
        labels.add(1, 0.125);
        assert_eq!(
            [labels.get(0), labels.get(1), labels.get(2)],
            [0.0, 0.125, 0.75]
        );
        assert_eq!(labels.touched(), &[2, 1]);
        labels.sort_touched();
        assert_eq!(labels.touched(), &[1, 2]);
        assert_eq!(labels.to_dense(3), [0.0, 0.125, 0.75]);
        assert_eq!(labels.to_dense(6), [0.0, 0.125, 0.75, 0.0, 0.0, 0.0]);
        labels.begin(4);
        assert_eq!(labels.get(2), 0.0);
        assert_eq!(labels.to_dense(4), [0.0; 4]);
        assert!(labels.touched().is_empty());
    }

    #[test]
    fn proximity_scan_floor_heap_stays_reach_proportional() {
        // A hub graph where almost everything sits below the floor: the
        // bounded scan must not even enqueue the far side.
        let n = 1000usize;
        let mut edges: Vec<(NodeId, NodeId, f32)> = vec![(0, 1, 1.0)];
        // Node 1 fans out to the rest through a weak tie each.
        for v in 2..n as NodeId {
            edges.push((1, v, 0.01));
        }
        let g = GraphBuilder::from_edges(n, edges);
        let mut ws = ProximityWorkspace::new();
        let mut scan = ProximityScan::with_floor(&g, 0, |w| 0.9 * w as f64, 0.5, &mut ws);
        let mut yielded = 0;
        while scan.next().is_some() {
            yielded += 1;
        }
        assert_eq!(yielded, 2, "only the seeker and its strong tie clear 0.5");
        assert_eq!(scan.residual_bound(), 0.5);
    }
}
