//! [`MutableGraph`]: a delta overlay over the immutable CSR, with
//! epoch-versioned [`GraphSnapshot`]s for sampling under live mutation.
//!
//! ## Model
//!
//! The base [`Csr`] never changes. Edits land in a per-vertex overlay:
//! the first edit touching a vertex materializes its base adjacency into
//! a [`VertexDelta`] (merged sorted neighbor list + parallel weights +
//! a [`Fenwick`] index over the weights), and later edits mutate that
//! delta — inserts/deletes are O(d) splices, reweights are O(log d) via
//! the Fenwick index. Deleted base edges are simply absent from the
//! merged list (the tombstone is folded eagerly rather than kept as a
//! log entry, because the step kernel's `gather` needs the adjacency as
//! one contiguous slice).
//!
//! A batch that returns a vertex's adjacency to its base slice (an
//! insert undone by a delete) retires that vertex's delta, so undone
//! churn leaves no overlay behind and the view is a bare CSR again.
//!
//! ## Epochs and the determinism contract
//!
//! Every successful [`MutableGraph::apply_batch`] bumps the graph
//! **epoch** and appends one entry to the **edit log**: the sorted
//! sources the batch edited. A vertex's **version** is the epoch of the
//! last batch that edited it. A [`GraphSnapshot`] is two `Arc` clones
//! (O(1)) freezing the state of an epoch; walks launched against
//! snapshot E read exactly epoch E's adjacency and are bit-identical to
//! a from-scratch run on [`GraphSnapshot::to_csr`] — the compacted CSR of
//! E — because the view serves identical slices in identical order and
//! the engine's RNG is keyed by (instance, depth, vertex, trial), never
//! by representation.
//!
//! Versions are what the CTPS cache keys on (`NeighborAccess::entry_epoch`,
//! via [`GraphSnapshot::entry_version`]): a cached entry for vertex v is
//! tagged with the max version over v and its neighbors — the 1-hop
//! closure, because static edge biases may read the far endpoint's
//! adjacency (degree bias reads `degree(dst)`). The tag stays 0 across
//! epochs that touch nothing within one hop of v, so hot untouched
//! regions keep their entries while the edited vertex and its
//! neighborhood invalidate lazily on next lookup.
//!
//! The tag's cost does not grow with the history already read. One
//! lineage (a [`MutableGraph`] and all its snapshots) shares the log and
//! a per-vertex memo of `(epoch, tag)`. A lookup at the memo's epoch is
//! one atomic load; a lookup at a later epoch reads only the batches
//! since the memo's epoch, newest first, and moves the memo forward.
//! Each batch is read at most once per vertex.
//!
//! [`MutableGraph::compact`] folds the overlay into a fresh base CSR.
//! It does **not** bump the epoch (the logical graph is unchanged) and
//! it **retains** the log and the memo: versions are monotone over a
//! vertex's whole mutation history, so a stale cache entry built before
//! a fold can never collide with a post-fold tag.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::csr::Csr;
use crate::fenwick::Fenwick;
use crate::types::{VertexId, Weight};
use crate::view::GraphView;

/// One edge edit. `src`/`dst` are directed: mutating an undirected graph
/// takes two edits, one per direction, exactly as the CSR stores it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeEdit {
    /// Insert edge (src, dst) with `weight`. Unweighted graphs require
    /// `weight == 1.0`. Duplicate edges are allowed (multigraph insert).
    Insert {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// Edge weight (must be finite and positive).
        weight: Weight,
    },
    /// Delete one copy of edge (src, dst).
    Delete {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Set the weight of one copy of edge (src, dst). Weighted graphs only.
    Reweight {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// New weight (must be finite and positive).
        weight: Weight,
    },
}

/// Why an edit batch was rejected. Batches are atomic: on error, no edit
/// of the batch is applied and the epoch does not advance.
#[derive(Debug, Clone, PartialEq)]
pub enum EditError {
    /// An endpoint is `>= num_vertices` (mutations never add vertices).
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// Delete/Reweight named an edge that does not exist at this epoch.
    EdgeNotFound {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Reweight on an unweighted graph, or Insert with weight != 1.0.
    WeightOnUnweighted {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// A weight that is not finite and positive (CSR invariant).
    BadWeight {
        /// The offending weight.
        weight: Weight,
    },
    /// The graph is served from an immutable backing store (e.g. the
    /// disk tier's partitioned segment files), which cannot accept
    /// edits at any epoch.
    ImmutableStore,
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range (graph has {num_vertices} vertices)")
            }
            EditError::EdgeNotFound { src, dst } => write!(f, "edge ({src}, {dst}) not found"),
            EditError::WeightOnUnweighted { src, dst } => {
                write!(f, "weighted edit on unweighted graph for edge ({src}, {dst})")
            }
            EditError::BadWeight { weight } => {
                write!(f, "weight {weight} must be finite and positive")
            }
            EditError::ImmutableStore => {
                write!(f, "graph is served from an immutable backing store")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// Merged adjacency of one mutated vertex: the base slice with all edits
/// up to this epoch folded in, kept sorted by destination (the same order
/// `CsrBuilder` produces, so `has_edge` stays a binary search and
/// compaction is a plain concatenation).
#[derive(Debug, Clone)]
pub struct VertexDelta {
    neighbors: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
    /// Fenwick index over `weights` — keeps reweights O(log d) and gives
    /// O(log d) prefix sums over the vertex's bias mass.
    fenwick: Option<Fenwick>,
    inserts: u64,
    deletes: u64,
    reweights: u64,
}

impl VertexDelta {
    fn materialize(base: &Csr, v: VertexId) -> Self {
        let neighbors = base.neighbors(v).to_vec();
        let weights = base.neighbor_weights(v).map(|w| w.to_vec());
        let fenwick = weights.as_ref().map(|w| build_fenwick(w));
        VertexDelta { neighbors, weights, fenwick, inserts: 0, deletes: 0, reweights: 0 }
    }

    /// Whether this delta serves exactly `v`'s slices in `base`.
    fn is_base(&self, base: &Csr, v: VertexId) -> bool {
        self.neighbors == base.neighbors(v) && self.weights.as_deref() == base.neighbor_weights(v)
    }

    /// Merged, sorted neighbor list.
    #[inline]
    pub fn neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Merged weight list (present iff the base graph is weighted).
    #[inline]
    pub fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Sum of the first `k` edge weights via the Fenwick index
    /// (O(log d)); `k` edges of weight 1.0 when unweighted.
    pub fn weight_prefix(&self, k: usize) -> f64 {
        match &self.fenwick {
            Some(f) => f.prefix(k),
            None => k.min(self.neighbors.len()) as f64,
        }
    }

    /// Total weight mass of the vertex (degree when unweighted).
    pub fn weight_total(&self) -> f64 {
        self.weight_prefix(self.neighbors.len())
    }

    /// (inserts, deletes, reweights) applied to this vertex since its
    /// delta was materialized (compaction resets the log).
    pub fn edit_counts(&self) -> (u64, u64, u64) {
        (self.inserts, self.deletes, self.reweights)
    }

    fn insert(&mut self, dst: VertexId, weight: Weight) {
        let pos = match self.neighbors.binary_search(&dst) {
            Ok(p) | Err(p) => p,
        };
        self.neighbors.insert(pos, dst);
        if let Some(w) = &mut self.weights {
            w.insert(pos, weight);
            self.fenwick = Some(build_fenwick(w));
        }
        self.inserts += 1;
    }

    fn delete(&mut self, dst: VertexId) -> bool {
        let Ok(pos) = self.neighbors.binary_search(&dst) else { return false };
        self.neighbors.remove(pos);
        if let Some(w) = &mut self.weights {
            w.remove(pos);
            self.fenwick = Some(build_fenwick(w));
        }
        self.deletes += 1;
        true
    }

    fn reweight(&mut self, dst: VertexId, weight: Weight) -> bool {
        let Ok(pos) = self.neighbors.binary_search(&dst) else { return false };
        let w = self.weights.as_mut().expect("reweight is gated on is_weighted");
        w[pos] = weight;
        // The O(log d) path: point-update the Fenwick index in place.
        self.fenwick.as_mut().expect("weighted delta has a fenwick").set(pos, weight as f64);
        self.reweights += 1;
        true
    }
}

fn build_fenwick(weights: &[Weight]) -> Fenwick {
    let w64: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
    Fenwick::new(&w64)
}

/// One entry of the edit log: a successful batch's epoch and the sorted,
/// deduplicated sources it edited, linked to the batch before it. A
/// state holds the newest entry of its own epoch, so appending a batch is
/// one allocation, the log is shared by a lineage and all its snapshots
/// without copying, and a snapshot reads only the batches up to its own
/// epoch.
struct Batch {
    epoch: u64,
    sources: Box<[VertexId]>,
    prev: Option<Arc<Batch>>,
}

impl Batch {
    /// The epoch of the newest batch at or below this one, and above
    /// `floor`, that edited `v` or one of `nbrs` (sorted) — `v`'s 1-hop
    /// tag over that range, when `nbrs` is `v`'s current adjacency.
    /// Testing every batch against the *current* adjacency is exact:
    /// `v`'s adjacency changes only through a batch that edits `v`, and
    /// the walk stops at the newest such batch.
    fn last_touch(&self, v: VertexId, nbrs: &[VertexId], floor: u64) -> Option<u64> {
        std::iter::successors(Some(self), |b| b.prev.as_deref())
            .take_while(|b| b.epoch > floor)
            .find(|b| {
                let s = &b.sources;
                s.binary_search(&v).is_ok()
                    || if s.len() <= nbrs.len() {
                        s.iter().any(|u| nbrs.binary_search(u).is_ok())
                    } else {
                        nbrs.iter().any(|u| s.binary_search(u).is_ok())
                    }
            })
            .map(|b| b.epoch)
    }
}

impl Drop for Batch {
    /// Unlinks the chain iteratively: dropping a long log through the
    /// default recursive drop would overflow the stack.
    fn drop(&mut self) {
        let mut prev = self.prev.take();
        while let Some(mut b) = prev.and_then(Arc::into_inner) {
            prev = b.prev.take();
        }
    }
}

impl std::fmt::Debug for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batch").field("epoch", &self.epoch).field("sources", &self.sources).finish()
    }
}

/// Per-vertex memo of the 1-hop tag, one word a vertex packing
/// `(epoch << 32) | tag`: the tag at `epoch`. All zeros is true of every
/// vertex (the tag at epoch 0 is 0). Words only move forward, and every
/// word describes the history of the lineage that owns the memo, so a
/// reader at any epoch of that lineage can use it (see
/// [`GraphSnapshot::entry_version`]). `Relaxed` is enough: a word
/// publishes no other data, since the batches it summarises are immutable
/// and reach every reader through its own snapshot's `Arc`.
struct TagMemo(Box<[AtomicU64]>);

impl TagMemo {
    fn new(n: usize) -> Self {
        TagMemo((0..n).map(|_| AtomicU64::new(0)).collect())
    }

    /// A copy for a new lineage that shares this one's history so far.
    fn fork(&self) -> Self {
        TagMemo(self.0.iter().map(|w| AtomicU64::new(w.load(Relaxed))).collect())
    }
}

impl std::fmt::Debug for TagMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TagMemo({} vertices)", self.0.len())
    }
}

/// The shared, immutable-once-published overlay of one epoch: mutated
/// vertices' merged adjacencies plus the edit log and the tag memo.
#[derive(Debug, Clone, Default)]
pub struct OverlayState {
    /// Mutated vertex → merged adjacency. `Arc` per delta so the
    /// copy-on-write of `apply_batch` only deep-clones vertices the new
    /// batch actually touches. A delta equal to its base slice is
    /// retired.
    deltas: HashMap<VertexId, Arc<VertexDelta>>,
    /// The newest batch of the edit log (`None` at epoch 0). Never
    /// truncated — survives compaction so cache tags stay monotone (see
    /// module docs).
    log: Option<Arc<Batch>>,
    /// The lineage's tag memo, allocated by the first successful batch.
    memo: Option<Arc<TagMemo>>,
    /// Bitset over vertex ids guarding `deltas`: bit v set ⇔ v has a
    /// live delta. The step kernel's bias loops call [`Self::delta`]
    /// once per *edge* (degree bias reads `degree(dst)`), so the
    /// untouched-vertex answer must cost a bit test, not a hash probe —
    /// this is what keeps untouched-hot-set walk throughput within a few
    /// percent of the static-CSR path. Empty ⇔ no live deltas (the
    /// epoch-0 / just-compacted fast path).
    dirty: Vec<u64>,
    /// Logical edge count minus base edge count.
    edge_delta: i64,
    /// Epoch of this state; bumped once per successful `apply_batch`.
    epoch: u64,
}

impl OverlayState {
    /// The merged delta for `v`, if `v` has been mutated since the last
    /// compaction.
    #[inline]
    pub fn delta(&self, v: VertexId) -> Option<&VertexDelta> {
        match self.dirty.get((v >> 6) as usize) {
            Some(word) if word & (1u64 << (v & 63)) != 0 => self.deltas.get(&v).map(|d| d.as_ref()),
            _ => None,
        }
    }

    /// Logical edge count minus the base CSR's edge count.
    #[inline]
    pub fn edge_delta(&self) -> i64 {
        self.edge_delta
    }

    /// Epoch of this state.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of vertices with a live (uncompacted) delta.
    #[inline]
    pub fn overlay_vertices(&self) -> usize {
        self.deltas.len()
    }

    /// Epoch of `v`'s last mutation ever (0 if never mutated). Reads the
    /// log back to that batch: a diagnostic, not a hot-path call.
    pub fn vertex_version(&self, v: VertexId) -> u64 {
        self.log.as_ref().and_then(|b| b.last_touch(v, &[], 0)).unwrap_or(0)
    }

    /// Materializes the logical graph (base + this overlay) as a fresh
    /// CSR. Each vertex's slice is copied verbatim from whatever the view
    /// serves, so the result is adjacency-identical to the view by
    /// construction.
    fn materialize(&self, base: &Csr) -> Csr {
        if self.deltas.is_empty() {
            return base.clone();
        }
        let n = base.num_vertices();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut col = Vec::with_capacity((base.num_edges() as i64 + self.edge_delta) as usize);
        let mut weights = base.weights().map(|_| Vec::with_capacity(col.capacity()));
        for v in 0..n as VertexId {
            match self.deltas.get(&v) {
                Some(d) => {
                    col.extend_from_slice(d.neighbors());
                    if let (Some(ws), Some(dw)) = (weights.as_mut(), d.weights()) {
                        ws.extend_from_slice(dw);
                    }
                }
                None => {
                    col.extend_from_slice(base.neighbors(v));
                    if let (Some(ws), Some(bw)) = (weights.as_mut(), base.neighbor_weights(v)) {
                        ws.extend_from_slice(bw);
                    }
                }
            }
            row_ptr.push(col.len());
        }
        Csr::from_parts(row_ptr, col, weights)
    }
}

/// A frozen view of the graph at one epoch: cheap to clone, valid
/// forever (later mutations and compactions build new state and never
/// touch the `Arc`s a snapshot holds).
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    base: Arc<Csr>,
    state: Arc<OverlayState>,
}

impl GraphSnapshot {
    /// Snapshot of a bare CSR at epoch 0 (no mutable graph needed) —
    /// handy for running snapshot-taking APIs on a static graph.
    pub fn of_csr(csr: Csr) -> Self {
        GraphSnapshot { base: Arc::new(csr), state: Arc::new(OverlayState::default()) }
    }

    /// The epoch this snapshot freezes.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// Epoch of `v`'s last mutation (0 if never mutated), read back from
    /// the log. The cache keys on [`Self::entry_version`] instead.
    pub fn vertex_version(&self, v: VertexId) -> u64 {
        self.state.vertex_version(v)
    }

    /// Number of vertices carrying an uncompacted delta in this snapshot.
    #[inline]
    pub fn overlay_vertices(&self) -> usize {
        self.state.overlay_vertices()
    }

    /// Cache-invalidation tag for `v`'s per-vertex sampling state (its
    /// CTPS table): the max mutation version over `v` **and its current
    /// neighbors**. The neighborhood matters because static edge biases
    /// may read the far endpoint's adjacency (degree bias reads
    /// `degree(dst)`), so an edit to `u` stales the cached tables of every
    /// vertex adjacent to `u` — not just `u`'s own. The tag is monotone:
    /// any edit that changes `v`'s neighbor set bumps `version(v)` itself,
    /// so a dropped neighbor can never lower the max. Vertices whose
    /// 1-hop neighborhood was never mutated keep tag 0 — the same tag the
    /// static-CSR path uses — so their cached entries survive epochs and
    /// compaction.
    ///
    /// Cost: each batch is read at most once per vertex, so a lookup never
    /// re-reads history an earlier lookup of `v` already read. At epoch 0
    /// the tag is 0. Otherwise the lineage's memo holds `v`'s tag at some
    /// epoch M:
    /// - M is this epoch: one atomic load.
    /// - M is older: the batches in (M, this epoch] are tested newest
    ///   first against `v`'s adjacency (binary search), stopping at the
    ///   first that edited `v` or a neighbor, and the memo moves forward —
    ///   so each batch is read at most once per vertex.
    /// - M is newer (an old snapshot, read after a newer one moved the
    ///   memo): the memo's tag is this epoch's too if it is not above this
    ///   epoch, since then no batch in between touched `v`'s 1-hop
    ///   neighborhood; otherwise the log is read from this epoch down.
    ///
    /// Epochs from 2³² on do not fit the memo and always read the log.
    pub fn entry_version(&self, v: VertexId) -> u64 {
        let state = &*self.state;
        let (Some(log), Some(memo)) = (&state.log, &state.memo) else { return 0 };
        let epoch = state.epoch;
        let last_touch = |floor| log.last_touch(v, self.view().neighbors(v), floor);
        if epoch > u64::from(u32::MAX) {
            return last_touch(0).unwrap_or(0);
        }
        let slot = &memo.0[v as usize];
        let word = slot.load(Relaxed);
        let (seen, tag) = (word >> 32, word & u64::from(u32::MAX));
        if seen == epoch {
            return tag;
        }
        if seen > epoch {
            return if tag <= epoch { tag } else { last_touch(0).unwrap_or(0) };
        }
        let tag = last_touch(seen).unwrap_or(tag);
        let next = (epoch << 32) | tag;
        let _ = slot.fetch_update(Relaxed, Relaxed, |w| (w >> 32 < epoch).then_some(next));
        tag
    }

    /// The read view of this snapshot's logical graph.
    #[inline]
    pub fn view(&self) -> GraphView<'_> {
        GraphView::new(&self.base).with_overlay(self.overlay())
    }

    /// The overlay of live deltas, or `None` when every vertex serves its
    /// base slice — the view to put over any base holding this
    /// snapshot's base graph (the CSR itself, or a store written from it).
    #[inline]
    pub fn overlay(&self) -> Option<&OverlayState> {
        (!self.state.deltas.is_empty()).then_some(&*self.state)
    }

    /// The base CSR under this snapshot (mutated vertices differ; use
    /// [`GraphSnapshot::view`] for logical adjacency).
    #[inline]
    pub fn base(&self) -> &Csr {
        &self.base
    }

    /// `v`'s merged overlay adjacency, if `v` carries a live (uncompacted)
    /// delta in this snapshot. `None` means the base CSR's slice *is* the
    /// logical adjacency.
    #[inline]
    pub fn delta_adjacency(&self, v: VertexId) -> Option<(&[VertexId], Option<&[Weight]>)> {
        self.state.delta(v).map(|d| (d.neighbors(), d.weights()))
    }

    /// Materializes the compacted CSR of this epoch — the reference
    /// graph of the determinism contract.
    pub fn to_csr(&self) -> Csr {
        self.state.materialize(&self.base)
    }
}

/// A graph that accepts edits while samplers run against its snapshots.
#[derive(Debug)]
pub struct MutableGraph {
    base: Arc<Csr>,
    state: Arc<OverlayState>,
}

/// A clone starts a new lineage. It shares the base, the deltas and the
/// log (all immutable) but takes its own copy of the tag memo: the two
/// graphs' next batches differ, and one memo cannot describe both.
impl Clone for MutableGraph {
    fn clone(&self) -> Self {
        let mut state = (*self.state).clone();
        state.memo = state.memo.map(|m| Arc::new(m.fork()));
        MutableGraph { base: Arc::clone(&self.base), state: Arc::new(state) }
    }
}

impl MutableGraph {
    /// Wraps a CSR; epoch starts at 0 with an empty overlay.
    pub fn new(base: Csr) -> Self {
        MutableGraph::from_arc(Arc::new(base))
    }

    /// Wraps an already-shared CSR without copying it (servers holding
    /// the graph behind an `Arc` mutate the same storage snapshots see).
    pub fn from_arc(base: Arc<Csr>) -> Self {
        MutableGraph { base, state: Arc::new(OverlayState::default()) }
    }

    /// Current epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// Number of vertices with a live delta.
    #[inline]
    pub fn overlay_vertices(&self) -> usize {
        self.state.overlay_vertices()
    }

    /// O(1) snapshot of the current epoch.
    pub fn snapshot(&self) -> GraphSnapshot {
        GraphSnapshot { base: Arc::clone(&self.base), state: Arc::clone(&self.state) }
    }

    /// Applies a batch of edits atomically, returning the new epoch.
    /// On error nothing is applied and the epoch does not advance.
    /// Within the batch, edits apply in order (a Delete can remove an
    /// edge an earlier Insert in the same batch created).
    pub fn apply_batch(&mut self, edits: &[EdgeEdit]) -> Result<u64, EditError> {
        if edits.is_empty() {
            return Ok(self.state.epoch);
        }
        let mut next = (*self.state).clone();
        next.epoch += 1;
        let epoch = next.epoch;
        let n = self.base.num_vertices();
        let weighted = self.base.is_weighted();
        let mut sources = Vec::with_capacity(edits.len());
        for edit in edits {
            let (src, dst) = match *edit {
                EdgeEdit::Insert { src, dst, .. }
                | EdgeEdit::Delete { src, dst }
                | EdgeEdit::Reweight { src, dst, .. } => (src, dst),
            };
            for v in [src, dst] {
                if v as usize >= n {
                    return Err(EditError::VertexOutOfRange { vertex: v, num_vertices: n });
                }
            }
            if next.dirty.len() < n.div_ceil(64) {
                next.dirty.resize(n.div_ceil(64), 0);
            }
            next.dirty[(src >> 6) as usize] |= 1u64 << (src & 63);
            let delta = Arc::make_mut(
                next.deltas
                    .entry(src)
                    .or_insert_with(|| Arc::new(VertexDelta::materialize(&self.base, src))),
            );
            match *edit {
                EdgeEdit::Insert { weight, .. } => {
                    if !weight.is_finite() || weight <= 0.0 {
                        return Err(EditError::BadWeight { weight });
                    }
                    if !weighted && weight != 1.0 {
                        return Err(EditError::WeightOnUnweighted { src, dst });
                    }
                    delta.insert(dst, weight);
                    next.edge_delta += 1;
                }
                EdgeEdit::Delete { .. } => {
                    if !delta.delete(dst) {
                        return Err(EditError::EdgeNotFound { src, dst });
                    }
                    next.edge_delta -= 1;
                }
                EdgeEdit::Reweight { weight, .. } => {
                    if !weight.is_finite() || weight <= 0.0 {
                        return Err(EditError::BadWeight { weight });
                    }
                    if !weighted {
                        return Err(EditError::WeightOnUnweighted { src, dst });
                    }
                    if !delta.reweight(dst, weight) {
                        return Err(EditError::EdgeNotFound { src, dst });
                    }
                }
            }
            sources.push(src);
        }
        sources.sort_unstable();
        sources.dedup();
        // Retire the deltas this batch returned to their base slices. The
        // log still records the batch, so their tags move all the same.
        for &v in &sources {
            if next.deltas.get(&v).is_some_and(|d| d.is_base(&self.base, v)) {
                next.deltas.remove(&v);
                next.dirty[(v >> 6) as usize] &= !(1u64 << (v & 63));
            }
        }
        if next.deltas.is_empty() {
            next.dirty.clear();
        }
        next.memo.get_or_insert_with(|| Arc::new(TagMemo::new(n)));
        let prev = next.log.take();
        next.log = Some(Arc::new(Batch { epoch, sources: sources.into(), prev }));
        self.state = Arc::new(next);
        Ok(epoch)
    }

    /// Folds the overlay into a fresh base CSR and clears the deltas,
    /// returning the number of vertex deltas folded. The epoch does not
    /// change (the logical graph is identical) and the log and the tag
    /// memo are retained (see module docs). Existing snapshots keep the
    /// old base and stay valid.
    pub fn compact(&mut self) -> usize {
        let folded = self.state.overlay_vertices();
        if folded == 0 {
            return 0;
        }
        let new_base = self.state.materialize(&self.base);
        let mut next = (*self.state).clone();
        next.deltas.clear();
        next.dirty.clear();
        next.edge_delta = 0;
        self.base = Arc::new(new_base);
        self.state = Arc::new(next);
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::toy_graph;

    fn weighted_toy() -> Csr {
        toy_graph().with_unit_weights()
    }

    #[test]
    fn insert_delete_reweight_roundtrip() {
        let mut mg = MutableGraph::new(weighted_toy());
        let e0 = mg.epoch();
        let e1 = mg
            .apply_batch(&[
                EdgeEdit::Insert { src: 0, dst: 9, weight: 2.5 },
                EdgeEdit::Reweight { src: 0, dst: 9, weight: 4.0 },
            ])
            .unwrap();
        assert_eq!(e1, e0 + 1);
        let s = mg.snapshot();
        let v = s.view();
        assert!(v.has_edge(0, 9));
        let pos = v.neighbors(0).binary_search(&9).unwrap();
        assert_eq!(v.edge_weight(0, pos), 4.0);
        let e2 = mg.apply_batch(&[EdgeEdit::Delete { src: 0, dst: 9 }]).unwrap();
        assert_eq!(e2, e1 + 1);
        assert!(!mg.snapshot().view().has_edge(0, 9));
        // The epoch-1 snapshot still sees the edge.
        assert!(s.view().has_edge(0, 9));
    }

    #[test]
    fn batch_is_atomic_on_error() {
        let mut mg = MutableGraph::new(toy_graph());
        let err = mg
            .apply_batch(&[
                EdgeEdit::Insert { src: 0, dst: 3, weight: 1.0 },
                EdgeEdit::Delete { src: 1, dst: 1_000 },
            ])
            .unwrap_err();
        assert!(matches!(err, EditError::VertexOutOfRange { .. }));
        assert_eq!(mg.epoch(), 0);
        assert_eq!(mg.overlay_vertices(), 0);
        assert!(!mg.snapshot().view().has_edge(0, 3));
    }

    #[test]
    fn unweighted_graph_rejects_weighted_edits() {
        let mut mg = MutableGraph::new(toy_graph());
        assert!(matches!(
            mg.apply_batch(&[EdgeEdit::Insert { src: 0, dst: 3, weight: 2.0 }]),
            Err(EditError::WeightOnUnweighted { .. })
        ));
        assert!(matches!(
            mg.apply_batch(&[EdgeEdit::Reweight { src: 0, dst: 1, weight: 2.0 }]),
            Err(EditError::WeightOnUnweighted { .. })
        ));
        mg.apply_batch(&[EdgeEdit::Insert { src: 0, dst: 3, weight: 1.0 }]).unwrap();
    }

    #[test]
    fn versions_track_last_mutation_and_survive_compaction() {
        let mut mg = MutableGraph::new(toy_graph());
        mg.apply_batch(&[EdgeEdit::Insert { src: 2, dst: 5, weight: 1.0 }]).unwrap();
        mg.apply_batch(&[EdgeEdit::Insert { src: 4, dst: 6, weight: 1.0 }]).unwrap();
        let s = mg.snapshot();
        assert_eq!(s.vertex_version(2), 1);
        assert_eq!(s.vertex_version(4), 2);
        assert_eq!(s.vertex_version(0), 0, "untouched vertices stay version 0");
        let folded = mg.compact();
        assert_eq!(folded, 2);
        let after = mg.snapshot();
        assert_eq!(after.epoch(), 2, "compaction does not bump the epoch");
        assert_eq!(after.overlay_vertices(), 0);
        assert_eq!(after.vertex_version(2), 1, "versions survive compaction");
        assert_eq!(after.vertex_version(4), 2);
    }

    #[test]
    fn entry_version_covers_one_hop() {
        let mut mg = MutableGraph::new(toy_graph());
        assert_eq!(mg.snapshot().entry_version(8), 0, "pristine graph tags 0");
        // Insert 8 -> 0: vertex 8's own version bumps, and every vertex
        // adjacent to 8 (whose degree-bias inputs changed) tags 1 too.
        mg.apply_batch(&[EdgeEdit::Insert { src: 8, dst: 0, weight: 1.0 }]).unwrap();
        let s = mg.snapshot();
        assert_eq!(s.entry_version(8), 1, "edited vertex");
        for v in [5, 7, 9, 10, 11, 0] {
            // 0 is a neighbor *after* the insert (8 now appears in the
            // merged view of 8's slice, and 0's slice gains nothing —
            // but 8 ∈ N(0) held already in the symmetric toy graph).
            let expect = if s.view().neighbors(v).binary_search(&8).is_ok() { 1 } else { 0 };
            assert_eq!(s.entry_version(v), expect, "vertex {v}");
        }
        assert_eq!(s.entry_version(2), 0, "two hops away keeps tag 0");
        // Tags survive compaction (versions are retained).
        mg.compact();
        let after = mg.snapshot();
        assert_eq!(after.entry_version(8), 1);
        assert_eq!(after.entry_version(2), 0);
    }

    #[test]
    fn a_long_log_drops_without_recursing() {
        let mut mg = MutableGraph::new(toy_graph());
        for i in 0..100_000 {
            let edit = if i % 2 == 0 {
                EdgeEdit::Insert { src: 8, dst: 0, weight: 1.0 }
            } else {
                EdgeEdit::Delete { src: 8, dst: 0 }
            };
            mg.apply_batch(&[edit]).unwrap();
        }
        assert_eq!(mg.snapshot().entry_version(9), 100_000);
        drop(mg);
    }

    #[test]
    fn compacted_csr_matches_view() {
        let mut mg = MutableGraph::new(weighted_toy());
        mg.apply_batch(&[
            EdgeEdit::Insert { src: 1, dst: 6, weight: 3.0 },
            EdgeEdit::Delete { src: 8, dst: 5 },
            EdgeEdit::Reweight { src: 3, dst: 7, weight: 0.5 },
        ])
        .unwrap();
        let s = mg.snapshot();
        let compacted = s.to_csr();
        let v = s.view();
        assert_eq!(compacted.num_edges(), v.num_edges());
        for x in 0..v.num_vertices() as VertexId {
            assert_eq!(compacted.neighbors(x), v.neighbors(x), "vertex {x}");
            assert_eq!(compacted.neighbor_weights(x), v.neighbor_weights(x), "vertex {x}");
        }
        compacted.validate().unwrap();
        // compact() swaps in exactly that CSR.
        mg.compact();
        let folded = mg.snapshot();
        assert_eq!(folded.base(), &compacted);
    }

    #[test]
    fn fenwick_index_tracks_reweights() {
        let mut mg = MutableGraph::new(weighted_toy());
        mg.apply_batch(&[EdgeEdit::Reweight { src: 3, dst: 4, weight: 5.0 }]).unwrap();
        let snap = mg.snapshot();
        let delta = snap.state.delta(3).unwrap();
        // Delta prefix sums agree with a naive scan of the merged weights.
        let ws = snap.view().neighbor_weights(3).unwrap();
        let mut acc = 0.0f64;
        for (k, &w) in ws.iter().enumerate() {
            assert!((delta.weight_prefix(k) - acc).abs() < 1e-9, "k={k}");
            acc += w as f64;
        }
        assert!((delta.weight_total() - acc).abs() < 1e-9);
        assert_eq!(delta.edit_counts(), (0, 0, 1));
    }

    #[test]
    fn duplicate_insert_makes_multigraph_edge() {
        let mut mg = MutableGraph::new(toy_graph());
        let before = mg.snapshot().view().degree(0);
        mg.apply_batch(&[
            EdgeEdit::Insert { src: 0, dst: 1, weight: 1.0 },
            EdgeEdit::Insert { src: 0, dst: 1, weight: 1.0 },
        ])
        .unwrap();
        let s = mg.snapshot();
        assert_eq!(s.view().degree(0), before + 2);
        // Delete removes one copy at a time.
        mg.apply_batch(&[EdgeEdit::Delete { src: 0, dst: 1 }]).unwrap();
        assert_eq!(mg.snapshot().view().degree(0), before + 1);
    }
}
