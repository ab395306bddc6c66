//! The shared expand step — **one** implementation of the paper's Fig. 2b
//! inner loop for every runtime.
//!
//! The paper's whole argument is that a single MAIN loop plus three user
//! hooks expresses every sampling and random-walk algorithm. This module
//! makes the reproduction honor that claim structurally: the full
//! per-entry expand pipeline
//!
//! ```text
//! dead-end hook → NeighborSize::realize → candidate/bias construction
//!   → SELECT (with/without replacement) → accept → edge emit
//!   → UPDATE → frontier push
//! ```
//!
//! lives in [`StepKernel`] and nowhere else. Runtimes differ only in two
//! small traits:
//!
//! - [`NeighborAccess`] — where adjacency comes from and what the memory
//!   system charges for it: one [`LayeredAccess`] of a storage (the
//!   in-memory CSR, [`CsrAccess`], or the disk tier,
//!   [`crate::residency::DiskAccess`]), an optional snapshot overlay, and
//!   a [`Residency`] model (none, a device epoch, partition fault-in, or
//!   a unified-memory page cache).
//! - [`FrontierSink`] — where sampled edges and next-depth frontier
//!   entries go: the engine's per-instance pool ([`PoolSink`]), the OOM
//!   scheduler's visited-shard + cross-partition outbox, or the unified
//!   runner's per-instance vectors.
//!
//! Every expansion draws from a counter-based stream keyed by
//! [`csaw_gpu::rng::task_key`]`(instance, depth, vertex, trial)`, so the
//! sampled output of a given `(graph, algorithm, seed)` triple is
//! identical no matter which runtime executes it or in what order —
//! the property the cross-runtime equivalence tests pin down.

use crate::api::{AlgoConfig, Algorithm, EdgeCand, UpdateAction};
use crate::collision::{charge_visited_check, DetectorKind};
use crate::ctps::{rebuild_cost, Ctps};
use crate::ctps_cache::CtpsCache;
use crate::method::{rejection_bound, MethodPolicy, RejectionFeedback, REJECTION_MAX_TRIALS};
use crate::select::{
    select_one_preloaded, select_one_rejection, select_one_uniform, select_one_with,
    select_without_replacement_into, select_without_replacement_over,
    select_without_replacement_preloaded_into, select_without_replacement_uniform_into,
    SelectConfig, SelectScratch, SelectStrategy,
};
use csaw_gpu::rng::task_key;
#[cfg(any(test, debug_assertions))]
use csaw_gpu::stats::SimStats;
use csaw_gpu::stats::{Ledger, ServeLedger};
use csaw_gpu::Philox;
use csaw_graph::dynamic::OverlayState;
use csaw_graph::{Csr, GraphSnapshot, GraphView, VertexId, Weight};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Sentinel "vertex" keying the RNG stream of pool-level steps (shared
/// layer and biased replace), which expand a whole pool rather than one
/// vertex. Real vertex ids never reach `u32::MAX` (CSR construction
/// would need ~4G vertices).
pub const POOL_STEP_VERTEX: VertexId = VertexId::MAX;

/// One frontier entry as the kernel sees it: the coordinates that key its
/// RNG stream plus the walk predecessor (the paper's `SOURCE(e.v)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEntry {
    /// Sampling instance the entry belongs to (globally unique across
    /// chunks/GPUs — runtimes add their instance base before calling in).
    pub instance: u32,
    /// The instance's depth when the entry was enqueued.
    pub depth: u32,
    /// The vertex to expand.
    pub vertex: VertexId,
    /// The vertex the instance explored immediately before this one.
    pub prev: Option<VertexId>,
    /// Ordinal among duplicate `(instance, depth, vertex)` entries; 0
    /// unless a with-replacement UPDATE inserted the same vertex twice in
    /// one step (see [`TrialCounter`]).
    pub trial: u32,
}

/// One slot of a frontier pool: the vertex plus its walk predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSlot {
    /// The pooled vertex.
    pub vertex: VertexId,
    /// Its predecessor in the instance's exploration, if any.
    pub prev: Option<VertexId>,
}

impl PoolSlot {
    /// A first-hop slot with no predecessor.
    pub fn seed(vertex: VertexId) -> Self {
        PoolSlot { vertex, prev: None }
    }
}

/// The shared state of one vertex-group build (see
/// [`StepKernel::prepare_group`]). The lane and the table themselves live
/// in the [`StepScratch`] the build filled; what each member charges for
/// them is a function of the degree ([`crate::ctps::rebuild_cost`]), so
/// the only thing left to carry is the count the without-replacement
/// SELECT needs.
#[derive(Debug, Clone, Copy)]
pub struct SharedBuild {
    /// Number of positive-bias candidates in the shared lane.
    pub selectable: usize,
}

/// Where one expansion's transition table comes from — stage 1 of the
/// step pipeline (DESIGN.md §"One step kernel for every runtime" has the
/// charge table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// The EDGEBIAS lane in `scratch.biases`; SELECT builds the table
    /// from it and charges the builds it really runs.
    Lane,
    /// A vertex group's shared build, already in `scratch.select.ctps`:
    /// each member charges the fill and every rebuild it was spared.
    Table { selectable: usize },
    /// `n` implicit unit biases: nothing is materialized, the fill and
    /// the rebuilds are charged.
    Uniform,
    /// A cached CTPS, sampled in place under the cache's stripe lock:
    /// stage 2 already ran, the picks are in `scratch.select.out`.
    Drawn,
}

/// Bytes read from global memory to gather one adjacency list: two
/// row-pointer words plus the neighbor slice (+4 bytes/edge of weights on
/// weighted graphs). Shared by every [`NeighborAccess`] implementation so
/// all runtimes charge the gather identically.
pub fn gather_bytes(weighted: bool, deg: usize) -> usize {
    16 + deg * (4 + if weighted { 4 } else { 0 })
}

/// One gathered adjacency list: borrowed CSR ranges (neighbors + weights)
/// plus the full graph for the algorithm hooks, bundled under a single
/// borrow of the access. The kernel builds candidates *from* these slices
/// on demand instead of materializing a `Vec<EdgeCand>` per step —
/// [`Gathered::edge`] is the paper's `e = (v, u, w)` constructed in
/// registers at use sites.
pub struct Gathered<'a> {
    /// The full logical graph at this access's epoch (hooks may inspect
    /// global structure such as degrees).
    pub graph: GraphView<'a>,
    /// `v`'s neighbor list.
    pub neighbors: &'a [VertexId],
    /// Per-neighbor edge weights (`None` on unweighted graphs).
    pub weights: Option<&'a [Weight]>,
}

impl Gathered<'_> {
    /// Candidate edge `i` of the gathered adjacency, materialized on
    /// demand (no allocation; `EdgeCand` is `Copy`-sized).
    #[inline]
    pub fn edge(&self, i: usize, v: VertexId, prev: Option<VertexId>) -> EdgeCand {
        EdgeCand { v, u: self.neighbors[i], weight: self.weights.map_or(1.0, |w| w[i]), prev }
    }
}

/// Where the kernel's GATHERNEIGHBORS reads adjacency from, and what the
/// runtime's memory system charges for it.
pub trait NeighborAccess {
    /// The full logical graph at this access's epoch (algorithm hooks may
    /// inspect global structure such as degrees).
    fn graph(&self) -> GraphView<'_>;

    /// Gathers `v`'s neighbor list and edge weights as borrowed slices,
    /// charging whatever the runtime models for the read (global-memory
    /// bytes, a partition transfer, a page fault...).
    fn gather<L: Ledger>(&mut self, v: VertexId, stats: &mut L) -> Gathered<'_>;

    /// Re-borrows `v`'s adjacency **without charging** the memory system.
    /// Used by the CTPS-cache hit path, whose cost model charges the
    /// cached-table read (plus the picked neighbors) instead of a full
    /// adjacency gather.
    fn fetch(&mut self, v: VertexId) -> Gathered<'_>;

    /// `v`'s degree, charged exactly as [`Self::gather`] charges a gather
    /// of `v`: the closed-form uniform step calls this in place of the
    /// gather, then reads only the neighbors it picked through
    /// [`Self::neighbor_at`].
    fn degree<L: Ledger>(&mut self, v: VertexId, stats: &mut L) -> usize;

    /// Neighbor `k` of `v` and its weight (`None` on unweighted graphs),
    /// uncharged: [`Self::degree`] paid for the read. `k` must be below
    /// `v`'s degree.
    fn neighbor_at(&self, v: VertexId, k: usize) -> (VertexId, Option<Weight>);

    /// Host-residency epoch of `v`'s base adjacency, bumped whenever the
    /// storage recycles the memory that served it (the disk tier's run
    /// pool evicting `v`'s decoded run). Resident storage keeps 0.
    fn run_epoch(&self, v: VertexId) -> u64 {
        let _ = v;
        0
    }

    /// Cache-invalidation tag for *vertex* `v`'s cached CTPS, composed by
    /// [`entry_tag`]. Storage alone tags with its run epoch;
    /// [`LayeredAccess`] adds the device epoch and the snapshot's 1-hop
    /// mutation version.
    fn entry_epoch(&self, v: VertexId) -> u64 {
        entry_tag(0, self.run_epoch(v), 0)
    }

    /// Hints the host memory system to pull `v`'s row-pointer cache line
    /// toward the core — the depth-synchronous driver issues this a
    /// configurable distance ahead of expansion (ThunderRW's step
    /// interleaving). Purely a wall-clock hint: charges nothing, changes
    /// nothing observable, and defaults to a no-op for accesses whose
    /// adjacency is not a flat in-RAM array.
    fn prefetch_index(&self, v: VertexId) {
        let _ = v;
    }

    /// Hints the host memory system to pull the head of `v`'s neighbor
    /// slice toward the core (see [`Self::prefetch_index`]).
    fn prefetch_adjacency(&self, v: VertexId) {
        let _ = v;
    }
}

/// In-memory access: the whole CSR is resident; a gather costs its
/// global-memory bytes.
pub struct CsrAccess<'g> {
    /// The resident graph.
    pub graph: &'g Csr,
}

impl NeighborAccess for CsrAccess<'_> {
    fn graph(&self) -> GraphView<'_> {
        self.graph.view()
    }

    fn gather<L: Ledger>(&mut self, v: VertexId, stats: &mut L) -> Gathered<'_> {
        stats.read_gmem(gather_bytes(self.graph.is_weighted(), self.graph.degree(v)));
        self.fetch(v)
    }

    fn fetch(&mut self, v: VertexId) -> Gathered<'_> {
        Gathered {
            graph: self.graph.view(),
            neighbors: self.graph.neighbors(v),
            weights: self.graph.neighbor_weights(v),
        }
    }

    #[inline]
    fn degree<L: Ledger>(&mut self, v: VertexId, stats: &mut L) -> usize {
        let d = self.graph.degree(v);
        stats.read_gmem(gather_bytes(self.graph.is_weighted(), d));
        d
    }

    #[inline]
    fn neighbor_at(&self, v: VertexId, k: usize) -> (VertexId, Option<Weight>) {
        let i = self.graph.row_ptr()[v as usize] + k;
        (self.graph.col()[i], self.graph.weights().map(|w| w[i]))
    }

    fn prefetch_index(&self, v: VertexId) {
        #[cfg(target_arch = "x86_64")]
        {
            let rp = self.graph.row_ptr();
            if let Some(p) = rp.get(v as usize) {
                // SAFETY: `p` points into a live slice; _mm_prefetch has
                // no architectural effect beyond cache population.
                unsafe {
                    std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                        p as *const usize as *const i8,
                    );
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = v;
    }

    fn prefetch_adjacency(&self, v: VertexId) {
        #[cfg(target_arch = "x86_64")]
        {
            let n = self.graph.neighbors(v);
            let bytes = std::mem::size_of_val(n).min(256);
            let base = n.as_ptr() as *const i8;
            let mut off = 0;
            // Up to four cache lines of the neighbor slice — enough for
            // the low-degree rows that dominate power-law frontiers.
            while off < bytes {
                // SAFETY: `off < bytes <= n.len() * 4`, so the address
                // stays inside the slice; prefetch is side-effect free.
                unsafe {
                    std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                        base.wrapping_add(off),
                    );
                }
                off += 64;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = v;
    }
}

/// The one cache-tag rule for per-vertex state (CTPS cache entries). The
/// low 32 bits carry `v`'s 1-hop mutation version — the correctness half:
/// a cached table is reused only while no edit touched `v` or a neighbor
/// whose adjacency its bias reads. The high 32 bits carry residency — the
/// device epoch over `v`'s host run epoch, 16 bits each. Re-transferred
/// and re-decoded adjacency is bit-identical, so that half moves only the
/// hit/miss counters; each field is kept modulo its width.
#[inline]
pub fn entry_tag(device_epoch: u64, run_epoch: u64, version: u64) -> u64 {
    (device_epoch & 0xffff) << 48 | (run_epoch & 0xffff) << 32 | (version & 0xffff_ffff)
}

/// What a runtime's memory system does before storage serves a base
/// adjacency, and the residency epoch it stamps into every [`entry_tag`].
/// `()` models nothing (the engine); a `u64` is the device epoch of an
/// out-of-memory stream, bumped whenever resident partitions change;
/// `csaw-oom` models the pooled path's FIFO partition fault-in, and
/// `csaw-baselines` the unified-memory comparator's page cache.
pub trait Residency {
    /// Makes `v`'s base adjacency resident: `charged` on a gather, not on
    /// the cache-hit path's uncharged re-borrow. Overlay vertices never
    /// reach it — their merged slices are small and host-pinned.
    #[inline]
    fn fault_in(&mut self, v: VertexId, charged: bool) {
        let _ = (v, charged);
    }

    /// The device epoch half of [`entry_tag`].
    #[inline]
    fn device_epoch(&self) -> u64 {
        0
    }
}

impl Residency for () {}

impl Residency for u64 {
    fn device_epoch(&self) -> u64 {
        *self
    }
}

/// Storage × overlay × residency: the access every runtime builds as a
/// *value*. Base adjacency comes from `storage` ([`CsrAccess`] or
/// [`crate::residency::DiskAccess`]) once `residency` has faulted it in;
/// a vertex the snapshot's overlay mutated serves its merged slices
/// instead, charged [`gather_bytes`] on its logical degree like every
/// other gather — so a snapshot run over either storage counts the
/// traffic of a run on the compacted CSR. [`NeighborAccess::graph`] is
/// the storage's view under the overlay, so hooks that read `degree(dst)`
/// or `has_edge` see the snapshot's logical graph on the disk tier too.
pub struct LayeredAccess<'a, S, R = ()> {
    storage: &'a mut S,
    snapshot: Option<&'a GraphSnapshot>,
    overlay: Option<&'a OverlayState>,
    /// The runtime's residency model.
    pub residency: R,
}

impl<'a, S: NeighborAccess, R: Residency> LayeredAccess<'a, S, R> {
    /// `storage` under `snapshot`'s overlay (if any), faulted in by
    /// `residency`. The snapshot's base must be the graph `storage` holds.
    pub fn new(storage: &'a mut S, snapshot: Option<&'a GraphSnapshot>, residency: R) -> Self {
        let overlay = snapshot.and_then(GraphSnapshot::overlay);
        LayeredAccess { storage, snapshot, overlay, residency }
    }
}

impl<S: NeighborAccess, R: Residency> NeighborAccess for LayeredAccess<'_, S, R> {
    #[inline]
    fn graph(&self) -> GraphView<'_> {
        self.storage.graph().with_overlay(self.overlay)
    }

    /// Forced inline, with [`Self::fetch`]: left to itself LLVM keeps
    /// this layer out of line, and the call and its 56-byte return cost
    /// the 80 ns uniform step 5–10% in an in-process harness.
    #[inline(always)]
    fn gather<L: Ledger>(&mut self, v: VertexId, stats: &mut L) -> Gathered<'_> {
        if let Some(d) = self.overlay.and_then(|o| o.delta(v)) {
            let graph = self.graph();
            stats.read_gmem(gather_bytes(graph.is_weighted(), d.neighbors().len()));
            return Gathered { graph, neighbors: d.neighbors(), weights: d.weights() };
        }
        self.residency.fault_in(v, true);
        let overlay = self.overlay;
        let mut gat = self.storage.gather(v, stats);
        gat.graph = gat.graph.with_overlay(overlay);
        gat
    }

    #[inline(always)]
    fn fetch(&mut self, v: VertexId) -> Gathered<'_> {
        if let Some(d) = self.overlay.and_then(|o| o.delta(v)) {
            return Gathered {
                graph: self.graph(),
                neighbors: d.neighbors(),
                weights: d.weights(),
            };
        }
        self.residency.fault_in(v, false);
        let overlay = self.overlay;
        let mut gat = self.storage.fetch(v);
        gat.graph = gat.graph.with_overlay(overlay);
        gat
    }

    #[inline(always)]
    fn degree<L: Ledger>(&mut self, v: VertexId, stats: &mut L) -> usize {
        if let Some(d) = self.overlay.and_then(|o| o.delta(v)) {
            let n = d.neighbors().len();
            stats.read_gmem(gather_bytes(self.graph().is_weighted(), n));
            return n;
        }
        self.residency.fault_in(v, true);
        self.storage.degree(v, stats)
    }

    #[inline(always)]
    fn neighbor_at(&self, v: VertexId, k: usize) -> (VertexId, Option<Weight>) {
        match self.overlay.and_then(|o| o.delta(v)) {
            Some(d) => (d.neighbors()[k], d.weights().map(|w| w[k])),
            None => self.storage.neighbor_at(v, k),
        }
    }

    fn run_epoch(&self, v: VertexId) -> u64 {
        self.storage.run_epoch(v)
    }

    /// The 1-hop mutation version ([`GraphSnapshot::entry_version`]) keeps
    /// entries of vertices whose neighborhood no edit touched — the same
    /// tag 0 the static path uses — across epochs and compaction.
    fn entry_epoch(&self, v: VertexId) -> u64 {
        let version = self.snapshot.map_or(0, |s| s.entry_version(v));
        entry_tag(self.residency.device_epoch(), self.storage.run_epoch(v), version)
    }

    #[inline]
    fn prefetch_index(&self, v: VertexId) {
        self.storage.prefetch_index(v)
    }

    #[inline]
    fn prefetch_adjacency(&self, v: VertexId) {
        self.storage.prefetch_adjacency(v)
    }
}

/// Where the kernel's outputs go: sampled edges (`emit`) and next-depth
/// frontier offers (`push`). The sink owns without-replacement filtering
/// and whatever staging its runtime needs (pool push, partition queue +
/// outbox, per-instance vectors).
pub trait FrontierSink {
    /// Records a sampled edge for `entry`'s instance.
    fn emit(&mut self, entry: &StepEntry, edge: (VertexId, VertexId));

    /// Offers `vertex` (with predecessor `prev`) to `entry`'s instance at
    /// depth `entry.depth + 1`. The kernel has already checked the depth
    /// budget; the sink decides acceptance (visited filter) and placement.
    fn push<L: Ledger>(
        &mut self,
        entry: &StepEntry,
        vertex: VertexId,
        prev: Option<VertexId>,
        stats: &mut L,
    );
}

/// The engine-style sink: edges append to one output vector, offers pass
/// the without-replacement visited filter (charged per the collision
/// detector, the Fig. 12 cost) and land in the instance's next pool.
/// Shared by the in-memory engine, the unified-memory comparator, and the
/// out-of-memory pooled path — anything that keeps per-instance pools.
pub struct PoolSink<'a> {
    /// Structural config (consulted for `without_replacement`).
    pub cfg: &'a AlgoConfig,
    /// Collision detector whose visited-check cost is charged per offer.
    pub detector: DetectorKind,
    /// The instance's visited set.
    pub visited: &'a mut HashSet<VertexId>,
    /// The instance's next frontier pool.
    pub next: &'a mut Vec<PoolSlot>,
    /// The instance's sampled edges.
    pub out: &'a mut Vec<(VertexId, VertexId)>,
}

impl FrontierSink for PoolSink<'_> {
    fn emit(&mut self, _entry: &StepEntry, edge: (VertexId, VertexId)) {
        self.out.push(edge);
    }

    fn push<L: Ledger>(
        &mut self,
        _entry: &StepEntry,
        vertex: VertexId,
        prev: Option<VertexId>,
        stats: &mut L,
    ) {
        if self.cfg.without_replacement {
            charge_visited_check(self.detector, self.visited.len(), stats);
            if !self.visited.insert(vertex) {
                return; // already sampled once (§II-A)
            }
        }
        stats.ops().frontier_ops += 1;
        self.next.push(PoolSlot { vertex, prev });
    }
}

/// Emit-only sink for [`StepKernel::expand_replace`]: biased-replace
/// steps mutate the pool in place and never push, so only `emit` is
/// reachable.
pub struct EmitSink<'a>(pub &'a mut Vec<(VertexId, VertexId)>);

impl FrontierSink for EmitSink<'_> {
    fn emit(&mut self, _entry: &StepEntry, edge: (VertexId, VertexId)) {
        self.0.push(edge);
    }

    fn push<L: Ledger>(&mut self, _e: &StepEntry, _v: VertexId, _p: Option<VertexId>, _s: &mut L) {
        unreachable!("biased-replace steps mutate the pool in place and never push");
    }
}

/// Assigns the schedule-independent `trial` ordinal: the k-th duplicate of
/// `(instance, vertex)` seen since the last [`TrialCounter::reset`] gets
/// trial `k`. Drivers reset the counter at each depth step, so the
/// ordinal is "occurrence index within this instance's frontier at this
/// depth" — well-defined because a single instance's frontier is always
/// processed sequentially, in insertion order, by every runtime.
///
/// The first key after a reset is counted inline; only a second distinct
/// key reaches the map. A walk's frontier is one entry, so its every step
/// is served without hashing. The map keeps std's keyed SipHash: frontier
/// vertices derive from wire-supplied seeds, and a fixed hasher would let
/// a client craft collisions.
#[derive(Debug, Default)]
pub struct TrialCounter {
    /// The first key since the last reset and its occurrences so far.
    first: Option<((u32, VertexId), u32)>,
    /// Occurrences of every other key.
    rest: HashMap<(u32, VertexId), u32>,
}

impl TrialCounter {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next trial ordinal for `(instance, vertex)`.
    #[inline]
    pub fn next(&mut self, instance: u32, vertex: VertexId) -> u32 {
        let key = (instance, vertex);
        let n = match &mut self.first {
            None => &mut self.first.insert((key, 0)).1,
            Some((first, n)) if *first == key => n,
            Some(_) => self.rest.entry(key).or_insert(0),
        };
        let t = *n;
        *n += 1;
        t
    }

    /// Clears the counter (call at each depth-step boundary).
    #[inline]
    pub fn reset(&mut self) {
        self.first = None;
        if !self.rest.is_empty() {
            self.rest.clear();
        }
    }
}

/// Reusable per-worker expand arena: every buffer a step needs —
/// candidate union pool, edge/vertex bias lanes, and the full
/// [`SelectScratch`] — owned once per worker (or stream) and cleared,
/// never dropped, between steps. With a warm scratch a steady-state
/// expand performs **zero heap allocations**; the on-GPU analog is the
/// warp's shared-memory working set, allocated at kernel launch rather
/// than per step.
#[derive(Debug, Default)]
pub struct StepScratch {
    /// Union candidate pool (shared-layer steps gather every frontier
    /// slot's adjacency here; per-vertex steps borrow CSR ranges
    /// directly and leave this untouched).
    cands: Vec<EdgeCand>,
    /// EDGEBIAS lane per candidate.
    biases: Vec<f64>,
    /// The SELECT arena (CTPS, detector bitmap, lane buffers).
    select: SelectScratch,
    /// Live rejection-acceptance feedback for the method chooser (one per
    /// worker, like the rest of the arena — health is a local property).
    rej_feedback: RejectionFeedback,
    /// Debug-only rebuild lane: preloaded sources re-derive the CTPS here
    /// and assert it matches the table they drew from bit for bit.
    #[cfg(debug_assertions)]
    dbg_ctps: crate::ctps::Ctps,
    /// Debug-only copy of the table a CTPS cache hit drew from in place,
    /// taken under the stripe lock, with its selectable count; checked
    /// against a fresh rebuild once the step has fetched the adjacency.
    #[cfg(debug_assertions)]
    dbg_cached: crate::ctps::Ctps,
    #[cfg(debug_assertions)]
    dbg_hit: Option<usize>,
    /// Debug-only bias lane: group-shared expansions re-derive each
    /// entry's own EDGEBIAS lane here and assert the shared build (keyed
    /// by vertex alone) really is prev/instance-independent.
    #[cfg(debug_assertions)]
    dbg_biases: Vec<f64>,
}

impl StepScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<StepScratch> = RefCell::new(StepScratch::new());
}

/// Runs `f` with this thread's shared [`StepScratch`] — the
/// one-arena-per-worker pattern for runtimes that launch kernel closures
/// on a thread pool and cannot thread `&mut` scratch through a `Fn`
/// bound. Not reentrant: `f` must not call `with_thread_scratch` again
/// (the inner borrow would panic), which the kernel never does.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut StepScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The shared expand kernel: the Fig. 2b step pipeline bound to one
/// algorithm, SELECT configuration, and RNG seed.
pub struct StepKernel<'a> {
    algo: &'a dyn Algorithm,
    cfg: AlgoConfig,
    /// [`Algorithm::edge_bias_is_uniform`], read once: the step consults
    /// it several times and the algorithm is a trait object.
    bias_uniform: bool,
    /// [`Algorithm::edge_bias_is_static`], read once likewise.
    bias_static: bool,
    select: SelectConfig,
    seed: u64,
    cache: Option<&'a CtpsCache>,
    method_policy: MethodPolicy,
}

impl<'a> StepKernel<'a> {
    /// A kernel for `algo` with the paper's best SELECT configuration.
    pub fn new(algo: &'a dyn Algorithm, seed: u64) -> Self {
        StepKernel {
            algo,
            cfg: algo.config(),
            bias_uniform: algo.edge_bias_is_uniform(),
            bias_static: algo.edge_bias_is_static(),
            select: SelectConfig::paper_best(),
            seed,
            cache: None,
            method_policy: MethodPolicy::ForceIts,
        }
    }

    /// Sets the sampling-method policy. The default,
    /// [`MethodPolicy::ForceIts`], keeps the kernel bit-identical to the
    /// pinned goldens; [`MethodPolicy::Adaptive`] serves dynamic-bias
    /// expansions by rejection where the predicate in [`crate::method`]
    /// admits it (distribution-equal, not bit-equal — the methods consume
    /// different Philox draws).
    pub fn with_method_policy(mut self, policy: MethodPolicy) -> Self {
        self.method_policy = policy;
        self
    }

    /// Overrides the SELECT configuration.
    pub fn with_select(mut self, select: SelectConfig) -> Self {
        self.select = select;
        self
    }

    /// Shares a hot-vertex CTPS cache across the expansions this kernel
    /// runs. Consulted only when the algorithm's edge bias is static and
    /// non-uniform and the SELECT configuration reuses a built CTPS
    /// unmodified (see [`crate::ctps_cache`]); sampled output is
    /// bit-identical with or without it.
    pub fn with_ctps_cache(mut self, cache: Option<&'a CtpsCache>) -> Self {
        self.cache = cache;
        self
    }

    /// True when SELECT consumes a built CTPS without mutating it — the
    /// precondition for every source but the lane. Updated sampling
    /// rebuilds the CTPS per round from the raw biases.
    fn select_reuses_ctps(&self) -> bool {
        !(self.cfg.without_replacement && self.select.strategy == SelectStrategy::Updated)
    }

    /// The CTPS cache, if this kernel's algorithm/SELECT combination may
    /// use it — the depth-synchronous driver prefetches the owning shard
    /// alongside the CSR row.
    pub(crate) fn effective_cache(&self) -> Option<&'a CtpsCache> {
        if self.bias_static && !self.bias_uniform && self.select_reuses_ctps() {
            self.cache
        } else {
            None
        }
    }

    /// True when uniform-bias selection is served closed-form (no bias
    /// lane, no materialized CTPS) — charge-identical and bit-identical
    /// to the materialized path.
    fn uniform_closed_form(&self) -> bool {
        self.bias_uniform && self.select_reuses_ctps()
    }

    /// True in the regime the method chooser covers: independent
    /// per-vertex, with-replacement expansions of a dynamic, non-uniform
    /// bias — where rejection can beat ITS. Everything else (implicit
    /// uniform, cacheable static biases, without-replacement collision
    /// loops, pool-level steps) takes exactly the `ForceIts` path.
    fn chooses_method(&self) -> bool {
        self.method_policy == MethodPolicy::Adaptive
            && !self.cfg.without_replacement
            && !self.bias_uniform
            && !self.bias_static
    }

    /// The algorithm's structural configuration.
    pub fn cfg(&self) -> &AlgoConfig {
        &self.cfg
    }

    /// The bound algorithm.
    pub fn algo(&self) -> &dyn Algorithm {
        self.algo
    }

    /// The SELECT configuration in effect.
    pub fn select(&self) -> SelectConfig {
        self.select
    }

    /// The seed every expansion's Philox stream is keyed under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Expands one frontier entry with its own neighbor pool — the
    /// [`crate::api::FrontierMode::IndependentPerVertex`] step (neighbor
    /// sampling, forest fire, snowball, and all walk variants).
    ///
    /// `home` is the instance's home seed, handed to the `UPDATE` and
    /// dead-end hooks (restart targets).
    pub fn expand<N: NeighborAccess, S: FrontierSink, L: Ledger>(
        &self,
        access: &mut N,
        entry: &StepEntry,
        home: VertexId,
        sink: &mut S,
        scratch: &mut StepScratch,
        stats: &mut L,
    ) {
        let rng = Philox::for_task(
            self.seed,
            task_key(entry.instance, entry.depth, entry.vertex, entry.trial),
        );
        self.expand_with(access, entry, home, rng, None, sink, scratch, stats)
    }

    /// The per-entry step, in three stages: resolve the **weight source**
    /// (cache hit | group-shared table | implicit uniform | the bias
    /// lane), **draw** `k` picks from it (distinct via the claim loop |
    /// independent ITS picks | rejection), **emit** them through
    /// `accept`/`UPDATE` into the sink. Which source and which draw are
    /// values picked here, so every combination consumes the entry's
    /// Philox stream in the same order: dead-end hook or `k`, the picks,
    /// then the hooks.
    ///
    /// [`Self::expand`] derives the stream; the depth-synchronous driver
    /// batch-generates every frontier entry's first Philox block and
    /// hands each stream in via [`Philox::with_first_block`], along with
    /// the vertex group's `shared` build if [`Self::prepare_group`] made
    /// one. The stream must be positioned at draw 0 of
    /// `task_key(entry.instance, entry.depth, entry.vertex, entry.trial)`
    /// or output determinism is lost; `scratch.biases` and
    /// `scratch.select.ctps` must be untouched since `prepare_group`.
    #[allow(clippy::too_many_arguments)]
    pub fn expand_with<N: NeighborAccess, S: FrontierSink, L: Ledger>(
        &self,
        access: &mut N,
        entry: &StepEntry,
        home: VertexId,
        mut rng: Philox,
        shared: Option<&SharedBuild>,
        sink: &mut S,
        scratch: &mut StepScratch,
        stats: &mut L,
    ) {
        let v = entry.vertex;
        let rng = &mut rng;
        debug_assert!(shared.is_none() || self.group_shareable(), "shared build on a lone kernel");
        if self.uniform_closed_form() {
            // No cache, no shared build and no chooser serve a uniform bias.
            let select = &mut scratch.select;
            return self.expand_uniform(access, entry, home, rng, sink, select, stats);
        }
        let chooser = self.chooses_method();
        let cache = self.effective_cache();
        // The 1-hop mutation tag only keys the cache — computing it costs
        // O(overlay ∩ adjacency), so the uncached path must not pay it.
        let epoch = if cache.is_some() { access.entry_epoch(v) } else { 0 };

        // Stage 1: the source. A cache hit stands in for the gather, the
        // fill, the build and the draw; its reader pays for the cached
        // words and, at emit, for the neighbors it picked.
        let cached = match cache {
            Some(cache) => self.cached_source(cache, v, epoch, rng, scratch, stats),
            None => None,
        };
        // Empty tables are never admitted, so a cached source has no dead
        // end and its adjacency is read only at the picks.
        let gat = match cached {
            Some(_) => access.fetch(v),
            None => access.gather(v, stats),
        };
        let n = gat.neighbors.len();
        #[cfg(debug_assertions)]
        if let Some(selectable) = scratch.dbg_hit.take() {
            self.dbg_check_table(&gat, v, entry.prev, selectable, true, scratch);
        }
        let (source, pick_bytes) = match (cached, shared) {
            (Some(degree), _) => {
                debug_assert_eq!(n, degree, "cached degree diverged from adjacency");
                (Source::Drawn, 4 + if gat.graph.is_weighted() { 4 } else { 0 })
            }
            (None, _) if n == 0 => {
                match self.algo.on_dead_end(gat.graph, v, home, rng) {
                    UpdateAction::Add(w) => self.offer(entry, w, Some(v), sink, stats),
                    UpdateAction::Discard => {}
                }
                return;
            }
            (None, Some(b)) => (Source::Table { selectable: b.selectable }, 0),
            (None, None) => (Source::Lane, 0),
        };

        // Stage 2: the draw.
        if source != Source::Drawn {
            let k = self.cfg.neighbor_size.realize(n, rng);
            if k == 0 {
                return;
            }
            if !(chooser && self.draw_rejection(&gat, entry, k, scratch, rng, stats)) {
                self.fill(source, &gat, v, entry.prev, scratch, stats);
                let StepScratch { biases, select, .. } = &mut *scratch;
                self.draw_its(source, n, k, biases, select, rng, stats);
                if let (Source::Lane, Some(cache)) = (source, cache) {
                    // The draw left its pristine CTPS build in the arena
                    // (Updated sampling, which masks it in place, never
                    // takes the cache path): offer it for admission, which
                    // normalizes it in place — the next build resets it.
                    cache.admit(v, epoch, &mut select.ctps, biases);
                }
            }
        }

        // Stage 3: accept → emit → UPDATE → offer.
        let edge = |i| gat.edge(i, v, entry.prev);
        let picks = &scratch.select.out;
        self.emit_picks(gat.graph, entry, home, picks, pick_bytes, edge, rng, sink, stats);
    }

    /// The per-entry step over the implicit uniform table: the same
    /// stages as [`Self::expand_with`] — dead-end hook or `k`, the
    /// picks, the hooks, in the same Philox order — but the adjacency is
    /// never gathered. [`NeighborAccess::degree`] stands in for the
    /// gather, charged the same, and each pick reads its one neighbor
    /// through [`NeighborAccess::neighbor_at`] (on the disk tier, a
    /// point read instead of a run decode). Debug builds hold each
    /// picked edge to the uniform claim: checking all `d` edges would
    /// read the run and move the disk tier's counters.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn expand_uniform<N: NeighborAccess, S: FrontierSink, L: Ledger>(
        &self,
        access: &mut N,
        entry: &StepEntry,
        home: VertexId,
        rng: &mut Philox,
        sink: &mut S,
        select: &mut SelectScratch,
        stats: &mut L,
    ) {
        let v = entry.vertex;
        let n = access.degree(v, stats);
        let access = &*access;
        let g = access.graph();
        if n == 0 {
            match self.algo.on_dead_end(g, v, home, rng) {
                UpdateAction::Add(w) => self.offer(entry, w, Some(v), sink, stats),
                UpdateAction::Discard => {}
            }
            return;
        }
        let k = self.cfg.neighbor_size.realize(n, rng);
        if k == 0 {
            return;
        }
        stats.charge_cycles(n.div_ceil(32) as u64);
        self.draw_its(Source::Uniform, n, k, &[], select, rng, stats);
        let edge = |i| {
            let (u, w) = access.neighbor_at(v, i);
            let cand = EdgeCand { v, u, weight: w.unwrap_or(1.0), prev: entry.prev };
            debug_assert!(
                self.algo.edge_bias(g, &cand) == 1.0,
                "edge_bias_is_uniform() contradicted by edge_bias() at v{v}"
            );
            cand
        };
        self.emit_picks(g, entry, home, &select.out, 0, edge, rng, sink, stats);
    }

    /// True when co-located frontier entries (same current vertex, same
    /// depth) may legally share one bias fill + CTPS build: the bias is
    /// static (keyed by vertex alone — the CTPS cache's legality
    /// argument), non-uniform (the implicit uniform table has no build to
    /// share), and SELECT consumes the built CTPS unmodified. A kernel
    /// with a CTPS cache attached already shares builds through the
    /// cache and opts out here. Entries of a non-shareable kernel still
    /// benefit from grouped execution (sorted-vertex locality, prefetch,
    /// batched Philox).
    pub fn group_shareable(&self) -> bool {
        self.bias_static
            && !self.bias_uniform
            && self.select_reuses_ctps()
            && self.effective_cache().is_none()
    }

    /// Builds the shared per-vertex state one vertex-group of co-located
    /// walkers will reuse: the EDGEBIAS lane in `scratch.biases` and the
    /// CTPS in `scratch.select.ctps`, via an **uncharged** fetch and an
    /// uncharged build. Each member, handed the result through
    /// [`Self::expand_with`], charges what its own fill and rebuilds
    /// would have cost, so `SimStats` stay charge-identical to
    /// instance-major execution while the compute runs once.
    ///
    /// Returns `None` when the group cannot share — empty adjacency
    /// (dead-end hook needs the entry's own RNG) or a degenerate all-zero
    /// bias lane — and the members expand on their own.
    pub fn prepare_group<N: NeighborAccess>(
        &self,
        access: &mut N,
        v: VertexId,
        prev: Option<VertexId>,
        scratch: &mut StepScratch,
    ) -> Option<SharedBuild> {
        debug_assert!(self.group_shareable(), "prepare_group on a non-shareable kernel");
        let gat = access.fetch(v);
        if gat.neighbors.is_empty() {
            return None;
        }
        let StepScratch { biases, select, .. } = scratch;
        let mut uncharged = ServeLedger::default();
        self.fill_biases(&gat, v, prev, biases, &mut uncharged);
        if !select.ctps.rebuild(biases, &mut uncharged) {
            return None;
        }
        Some(SharedBuild { selectable: biases.iter().filter(|&&b| b > 0.0).count() })
    }

    /// Stage 1's charge and its oracles. EDGEBIAS evaluation costs one
    /// warp-cycle per 32 lanes, which a fresh lane really runs and a
    /// shared or implicit one only charges (a cache hit drew in stage 1
    /// and never gets here). Debug builds check every claim a source
    /// rests on against the algorithm's own `edge_bias`.
    #[inline]
    fn fill<L: Ledger>(
        &self,
        source: Source,
        gat: &Gathered<'_>,
        v: VertexId,
        prev: Option<VertexId>,
        scratch: &mut StepScratch,
        stats: &mut L,
    ) {
        match source {
            Source::Lane => self.fill_biases(gat, v, prev, &mut scratch.biases, stats),
            Source::Drawn => {}
            Source::Table { .. } | Source::Uniform => {
                stats.charge_cycles(gat.neighbors.len().div_ceil(32) as u64);
            }
        }
        #[cfg(debug_assertions)]
        match source {
            Source::Uniform => {
                let fresh = &mut scratch.dbg_biases;
                fresh.clear();
                let n = gat.neighbors.len();
                fresh.extend((0..n).map(|i| self.algo.edge_bias(gat.graph, &gat.edge(i, v, prev))));
                assert!(
                    fresh.iter().all(|&b| b == 1.0),
                    "edge_bias_is_uniform() contradicted by edge_bias()"
                );
            }
            Source::Table { selectable } => {
                self.dbg_check_table(gat, v, prev, selectable, false, scratch)
            }
            Source::Lane | Source::Drawn => {}
        }
    }

    /// Debug oracle of a preloaded table: `v`'s EDGEBIAS lane, evaluated
    /// fresh, must rebuild to exactly the table the step draws from, with
    /// `selectable` positive regions — the copy a cache hit took under
    /// the lock (`hit`; the rebuild is normalized, as admission stores
    /// it), or a vertex group's shared build, raw, whose lane must also
    /// equal this walker's own.
    #[cfg(debug_assertions)]
    fn dbg_check_table(
        &self,
        gat: &Gathered<'_>,
        v: VertexId,
        prev: Option<VertexId>,
        selectable: usize,
        hit: bool,
        scratch: &mut StepScratch,
    ) {
        let StepScratch { biases, select, dbg_ctps, dbg_biases: fresh, dbg_cached, .. } = scratch;
        fresh.clear();
        let n = gat.neighbors.len();
        fresh.extend((0..n).map(|i| self.algo.edge_bias(gat.graph, &gat.edge(i, v, prev))));
        let table = if hit {
            &*dbg_cached
        } else {
            assert!(
                fresh == biases,
                "edge_bias_is_static() contradicted: v{v}'s bias lane depends on the walker"
            );
            &select.ctps
        };
        dbg_ctps.rebuild(fresh, &mut SimStats::new());
        if hit {
            dbg_ctps.normalize();
        }
        assert_eq!(*dbg_ctps, *table, "preloaded CTPS of v{v} diverged from a fresh rebuild");
        assert_eq!(fresh.iter().filter(|&&b| b > 0.0).count(), selectable);
    }

    /// Stage 2, the ITS family: `k` distinct picks through the claim loop
    /// or `k` independent picks, off whichever table stage 1 resolved,
    /// into `select.out`.
    ///
    /// Forced inline, with [`Self::draw_one`]: they are stages of the one
    /// step body, and the 80 ns uniform walk step measurably (≈ 10%)
    /// pays for reaching its single pick through two out-of-line calls.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn draw_its<L: Ledger>(
        &self,
        source: Source,
        n: usize,
        k: usize,
        biases: &[f64],
        select: &mut SelectScratch,
        rng: &mut Philox,
        stats: &mut L,
    ) {
        if !self.cfg.without_replacement {
            select.out.clear();
            for _ in 0..k {
                if let Some(i) = Self::draw_one(source, n, biases, &mut select.ctps, rng, stats) {
                    select.out.push(i);
                }
            }
            return;
        }
        match source {
            Source::Lane => {
                select_without_replacement_into(biases, k, self.select, select, rng, stats)
            }
            Source::Table { selectable } => {
                rebuild_cost(n, stats);
                select_without_replacement_preloaded_into(
                    selectable,
                    k,
                    self.select,
                    select,
                    rng,
                    stats,
                )
            }
            Source::Uniform => {
                select_without_replacement_uniform_into(n, k, self.select, select, rng, stats)
            }
            Source::Drawn => unreachable!("stage 2 already ran under the cache lock"),
        }
    }

    /// One with-replacement ITS pick. A pick costs one rebuild of the
    /// table: the lane runs it, a shared or implicit table charges
    /// [`rebuild_cost`].
    #[inline(always)]
    fn draw_one<L: Ledger>(
        source: Source,
        n: usize,
        biases: &[f64],
        ctps: &mut Ctps,
        rng: &mut Philox,
        stats: &mut L,
    ) -> Option<usize> {
        match source {
            Source::Lane => select_one_with(biases, ctps, rng, stats),
            Source::Table { .. } => {
                rebuild_cost(n, stats);
                select_one_preloaded(ctps, rng, stats)
            }
            Source::Uniform => select_one_uniform(n, rng, stats),
            Source::Drawn => unreachable!("stage 2 already ran under the cache lock"),
        }
    }

    /// Stage 1, the cache side: on a hit, `k` and its picks drawn
    /// straight off `v`'s cached CTPS *under the stripe lock* into
    /// `scratch.select.out` (no O(d) copy-out), which fuses stage 2 into
    /// stage 1; returns the degree, or `None` on a miss. Counts the hit or
    /// the miss. A hit is charged the row header plus the bound words a
    /// binary search touches (≤ 8 modeled probes, as in the eager A7
    /// cache), then the picks exactly as the preloaded SELECT charges them.
    ///
    /// Out of line on purpose: a lookup takes a stripe lock, so the call
    /// is free, and inlined it costs the cache-less 80 ns step ≈ 3 ns.
    #[inline(never)]
    fn cached_source<L: Ledger>(
        &self,
        cache: &CtpsCache,
        v: VertexId,
        epoch: u64,
        rng: &mut Philox,
        scratch: &mut StepScratch,
        stats: &mut L,
    ) -> Option<usize> {
        let (out, work) = (&mut scratch.select.out, &mut scratch.select.work);
        #[cfg(debug_assertions)]
        let (dbg_cached, dbg_hit) = (&mut scratch.dbg_cached, &mut scratch.dbg_hit);
        let hit = cache.with_ctps_entry(v, epoch, |ctps, selectable| {
            let n = ctps.len();
            #[cfg(debug_assertions)]
            {
                dbg_cached.assign(ctps);
                *dbg_hit = Some(selectable as usize);
            }
            stats.read_gmem(16 + 8 * n.min(8));
            out.clear();
            let k = self.cfg.neighbor_size.realize(n, rng);
            if k == 0 {
                return n;
            }
            if self.cfg.without_replacement {
                let (sel, cfg) = (selectable as usize, self.select);
                select_without_replacement_over(ctps, sel, k, cfg, out, work, rng, stats);
            } else {
                for _ in 0..k {
                    out.extend(select_one_preloaded(ctps, rng, stats));
                }
            }
            n
        });
        match hit {
            Some(_) => stats.ops().ctps_cache_hits += 1,
            None => stats.ops().ctps_cache_misses += 1,
        }
        hit
    }

    /// Stage 2 under [`MethodPolicy::Adaptive`] for a dynamic-bias
    /// expansion: `k` picks by rejection when
    /// [`crate::method::rejection_bound`] admits it, counted in
    /// `method_rejection`; otherwise counts `method_its` and returns
    /// `false`, and the caller draws from the ITS lane. Each throw
    /// evaluates only the *proposed* candidate's bias, where ITS must
    /// evaluate all `d` of them (the node2vec win). A trial cap with an
    /// exact-ITS fallback guarantees termination; mixing exact methods
    /// preserves the target distribution.
    ///
    /// Rejection draws from the same per-task Philox stream as ITS but
    /// consumes two draws per throw, so Adaptive output is
    /// distribution-equal (chi-square validated) to `ForceIts`, never
    /// bit-equal.
    fn draw_rejection<L: Ledger>(
        &self,
        gat: &Gathered<'_>,
        entry: &StepEntry,
        k: usize,
        scratch: &mut StepScratch,
        rng: &mut Philox,
        stats: &mut L,
    ) -> bool {
        let (v, g, n) = (entry.vertex, gat.graph, gat.neighbors.len());
        let StepScratch { biases, select, rej_feedback, .. } = scratch;
        // The feedback is consulted on every expansion the chooser sees,
        // so its cooldown counts those down.
        let allowed = rej_feedback.allow();
        let bound = self.algo.edge_bias_bound(g, v, entry.prev);
        let Some(bound) = rejection_bound(bound, n, allowed) else {
            stats.ops().method_its += 1;
            return false;
        };
        stats.ops().method_rejection += 1;
        select.out.clear();
        let mut deferred = 0usize;
        for _ in 0..k {
            let before = stats.counters().rejection_trials;
            let pick = select_one_rejection(
                n,
                bound,
                REJECTION_MAX_TRIALS,
                |col| self.algo.edge_bias(g, &gat.edge(col, v, entry.prev)),
                rng,
                stats,
            );
            rej_feedback.record(stats.counters().rejection_trials - before);
            match pick {
                Some(col) => select.out.push(col),
                None => deferred += 1,
            }
        }
        if deferred > 0 {
            // Cap exhausted (skew the bound could not see): serve the
            // remaining picks from the exact ITS lane.
            self.fill_biases(gat, v, entry.prev, biases, stats);
            for _ in 0..deferred {
                select.out.extend(select_one_with(biases, &mut select.ctps, rng, stats));
            }
        }
        true
    }

    /// The accept → emit → UPDATE → offer tail of a per-vertex step,
    /// shared by the rebuild and cache-hit paths. A nonzero `pick_bytes`
    /// charges a global-memory read per pick — the cache-hit path reads
    /// only the picked neighbors, where the rebuild path already paid for
    /// the full adjacency gather.
    #[allow(clippy::too_many_arguments)]
    fn emit_picks<S: FrontierSink, L: Ledger>(
        &self,
        g: GraphView<'_>,
        entry: &StepEntry,
        home: VertexId,
        picks: &[usize],
        pick_bytes: usize,
        edge: impl Fn(usize) -> EdgeCand,
        rng: &mut Philox,
        sink: &mut S,
        stats: &mut L,
    ) {
        let v = entry.vertex;
        for &idx in picks {
            if pick_bytes > 0 {
                stats.read_gmem(pick_bytes);
            }
            let mut cand = edge(idx);
            if let Some(w) = self.algo.accept(g, &cand, rng) {
                if w == v {
                    // Rejected move (metropolis-hastings stays): the step
                    // is consumed; the walker remains at v with its
                    // predecessor unchanged.
                    self.offer(entry, v, entry.prev, sink, stats);
                    continue;
                }
                cand.u = w;
            }
            sink.emit(entry, (cand.v, cand.u));
            match self.algo.update(g, &cand, home, rng) {
                UpdateAction::Add(w) => self.offer(entry, w, Some(v), sink, stats),
                UpdateAction::Discard => {}
            }
        }
    }

    /// Expands a whole frontier against one shared neighbor pool — the
    /// [`crate::api::FrontierMode::SharedLayer`] step (layer sampling,
    /// §II-A): `NeighborSize` vertices are selected from the union pool.
    #[allow(clippy::too_many_arguments)] // mirrors the device kernel's launch signature
    pub fn expand_layer<N: NeighborAccess, S: FrontierSink, L: Ledger>(
        &self,
        access: &mut N,
        instance: u32,
        depth: u32,
        frontier: &[PoolSlot],
        sink: &mut S,
        scratch: &mut StepScratch,
        stats: &mut L,
    ) {
        let entry = StepEntry { instance, depth, vertex: POOL_STEP_VERTEX, prev: None, trial: 0 };
        let mut rng = Philox::for_task(self.seed, task_key(instance, depth, POOL_STEP_VERTEX, 0));
        let StepScratch { cands, biases, select, .. } = scratch;
        cands.clear();
        biases.clear();
        // The union lane is built slot by slot through the same lane hook
        // as a per-vertex step, and charged once over the whole pool.
        for slot in frontier {
            let gat = access.gather(slot.vertex, stats);
            cands.extend((0..gat.neighbors.len()).map(|i| gat.edge(i, slot.vertex, slot.prev)));
            self.push_lane(&gat, slot.vertex, slot.prev, biases);
        }
        if cands.is_empty() {
            return;
        }
        let k = self.cfg.neighbor_size.realize(cands.len(), &mut rng);
        stats.charge_cycles(cands.len().div_ceil(32) as u64);
        self.draw_its(Source::Lane, cands.len(), k, biases, select, &mut rng, stats);
        let g = access.graph();
        for &idx in select.out.iter() {
            let cand = cands[idx];
            sink.emit(&entry, (cand.v, cand.u));
            match self.algo.update(g, &cand, cand.v, &mut rng) {
                UpdateAction::Add(w) => self.offer(&entry, w, Some(cand.v), sink, stats),
                UpdateAction::Discard => {}
            }
        }
    }

    /// One biased-replace step — the
    /// [`crate::api::FrontierMode::BiasedReplace`] step (multi-dimensional
    /// random walk, Fig. 4): `VERTEXBIAS` selects one pool vertex, one of
    /// its neighbors is sampled, and the neighbor replaces the pool slot.
    /// The pool is mutated in place; `sink` only receives `emit`s (use
    /// [`EmitSink`]).
    ///
    /// `pool_biases` is the caller-owned `VERTEXBIAS` lane, maintained
    /// **incrementally**: the first step (or any step where its length
    /// disagrees with the pool) scans the whole pool, after which each
    /// UPDATE touches only the one replaced slot — amortizing what §V's
    /// Fig. 9b workload otherwise pays as a full `O(pool)` rescan per
    /// sampled edge. Keep one lane per pool, clear it whenever the pool
    /// is re-seeded. Sampled output is identical to rescanning.
    #[allow(clippy::too_many_arguments)] // mirrors the device kernel's launch signature
    pub fn expand_replace<N: NeighborAccess, S: FrontierSink, L: Ledger>(
        &self,
        access: &mut N,
        instance: u32,
        depth: u32,
        home: VertexId,
        pool: &mut Vec<PoolSlot>,
        pool_biases: &mut Vec<f64>,
        sink: &mut S,
        scratch: &mut StepScratch,
        stats: &mut L,
    ) {
        let entry = StepEntry { instance, depth, vertex: POOL_STEP_VERTEX, prev: None, trial: 0 };
        let mut rng = Philox::for_task(self.seed, task_key(instance, depth, POOL_STEP_VERTEX, 0));
        // Frontier selection by VERTEXBIAS (Fig. 2b line 4). Cold lane:
        // full scan. Warm lane: already maintained by the previous step's
        // UPDATE, nothing to read.
        if pool_biases.len() != pool.len() {
            pool_biases.clear();
            let g = access.graph();
            pool_biases.extend(pool.iter().map(|s| self.algo.vertex_bias(g, s.vertex)));
            stats.read_gmem(4 * pool.len()); // degree reads for the biases
        } else {
            debug_assert!(
                {
                    let g = access.graph();
                    pool.iter()
                        .zip(pool_biases.iter())
                        .all(|(s, &b)| b == self.algo.vertex_bias(g, s.vertex))
                },
                "incrementally maintained VERTEXBIAS lane diverged from the pool"
            );
        }
        let Some(j) = select_one_with(pool_biases, &mut scratch.select.ctps, &mut rng, stats)
        else {
            pool.clear();
            pool_biases.clear();
            return;
        };
        let slot = pool[j];
        let v = slot.vertex;
        let gat = access.gather(v, stats);
        let g = gat.graph;

        if gat.neighbors.is_empty() {
            match self.algo.on_dead_end(g, v, home, &mut rng) {
                UpdateAction::Add(w) => {
                    pool[j] = PoolSlot { vertex: w, prev: Some(v) };
                    pool_biases[j] = self.algo.vertex_bias(g, w);
                    stats.read_gmem(4); // the one replaced slot's degree
                }
                UpdateAction::Discard => {
                    pool.swap_remove(j);
                    pool_biases.swap_remove(j);
                }
            }
            return;
        }

        // One neighbor off the same source → draw stages as a per-vertex
        // step: implicit uniform (the MDRW case) or the bias lane.
        let source = if self.uniform_closed_form() { Source::Uniform } else { Source::Lane };
        self.fill(source, &gat, v, slot.prev, scratch, stats);
        let n = gat.neighbors.len();
        let ctps = &mut scratch.select.ctps;
        let idx = Self::draw_one(source, n, &scratch.biases, ctps, &mut rng, stats);
        let Some(idx) = idx else {
            pool.swap_remove(j);
            pool_biases.swap_remove(j);
            return;
        };
        let cand = gat.edge(idx, v, slot.prev);
        sink.emit(&entry, (cand.v, cand.u));
        match self.algo.update(g, &cand, home, &mut rng) {
            UpdateAction::Add(w) => {
                pool[j] = PoolSlot { vertex: w, prev: Some(v) };
                pool_biases[j] = self.algo.vertex_bias(g, w);
                stats.read_gmem(4); // the one replaced slot's degree
            }
            UpdateAction::Discard => {
                pool.swap_remove(j);
                pool_biases.swap_remove(j);
            }
        }
        stats.ops().frontier_ops += 1;
    }

    /// Fills `biases` with `v`'s EDGEBIAS lane over a gathered adjacency
    /// and charges one warp-cycle per 32 lanes of evaluation.
    fn fill_biases<L: Ledger>(
        &self,
        gat: &Gathered<'_>,
        v: VertexId,
        prev: Option<VertexId>,
        biases: &mut Vec<f64>,
        stats: &mut L,
    ) {
        biases.clear();
        self.push_lane(gat, v, prev, biases);
        stats.charge_cycles(gat.neighbors.len().div_ceil(32) as u64);
    }

    /// Appends `v`'s EDGEBIAS lane over `gat` to `biases`, uncharged: one
    /// [`Algorithm::edge_bias_lane`] call, or 1.0 per candidate when the
    /// algorithm declares its edge bias uniform
    /// ([`Algorithm::edge_bias_is_uniform`]). Debug builds check the
    /// lane against the per-edge `edge_bias` bit for bit, which is what
    /// keeps an overriding hook — or the uniform claim — honest.
    #[inline]
    fn push_lane(
        &self,
        gat: &Gathered<'_>,
        v: VertexId,
        prev: Option<VertexId>,
        biases: &mut Vec<f64>,
    ) {
        let (start, n) = (biases.len(), gat.neighbors.len());
        if self.bias_uniform {
            biases.resize(start + n, 1.0);
        } else {
            self.algo.edge_bias_lane(gat.graph, v, prev, gat.neighbors, gat.weights, biases);
        }
        debug_assert!(
            biases.len() == start + n
                && biases[start..].iter().enumerate().all(|(i, b)| {
                    b.to_bits() == self.algo.edge_bias(gat.graph, &gat.edge(i, v, prev)).to_bits()
                }),
            "{} contradicted by edge_bias() at v{v}",
            if self.bias_uniform { "edge_bias_is_uniform()" } else { "edge_bias_lane()" }
        );
    }

    /// UPDATE's frontier push, gated by the depth budget: entries that
    /// could never be expanded (their depth would reach the configured
    /// limit) are dropped here, identically in every runtime.
    fn offer<S: FrontierSink, L: Ledger>(
        &self,
        entry: &StepEntry,
        vertex: VertexId,
        prev: Option<VertexId>,
        sink: &mut S,
        stats: &mut L,
    ) {
        if entry.depth as usize + 1 >= self.cfg.depth {
            return; // depth budget exhausted (§V-B correctness guard)
        }
        sink.push(entry, vertex, prev, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{FrontierMode, NeighborSize};
    use csaw_graph::generators::{rmat, toy_graph, RmatParams};

    struct Ns2;
    impl Algorithm for Ns2 {
        fn name(&self) -> &'static str {
            "ns2"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: 2,
                neighbor_size: NeighborSize::Constant(2),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: true,
            }
        }
    }

    fn expand_once(seed: u64, entry: &StepEntry) -> (Vec<(u32, u32)>, Vec<PoolSlot>) {
        let g = toy_graph();
        let algo = Ns2;
        let kernel = StepKernel::new(&algo, seed);
        let cfg = algo.config();
        let mut access = CsrAccess { graph: &g };
        let mut visited = HashSet::new();
        let mut next = Vec::new();
        let mut out = Vec::new();
        let mut stats = SimStats::new();
        let mut sink = PoolSink {
            cfg: &cfg,
            detector: SelectConfig::paper_best().detector,
            visited: &mut visited,
            next: &mut next,
            out: &mut out,
        };
        let mut scratch = StepScratch::new();
        kernel.expand(&mut access, entry, entry.vertex, &mut sink, &mut scratch, &mut stats);
        (out, next)
    }

    #[test]
    fn expansion_is_a_pure_function_of_its_key() {
        let entry = StepEntry { instance: 7, depth: 0, vertex: 8, prev: None, trial: 0 };
        let (a_out, a_next) = expand_once(42, &entry);
        let (b_out, b_next) = expand_once(42, &entry);
        assert_eq!(a_out, b_out);
        assert_eq!(a_next, b_next);
        assert!(!a_out.is_empty());
        for &(v, u) in &a_out {
            assert!(toy_graph().has_edge(v, u));
        }
    }

    #[test]
    fn distinct_key_components_change_the_draws() {
        let base = StepEntry { instance: 0, depth: 0, vertex: 8, prev: None, trial: 0 };
        let (base_out, _) = expand_once(1, &base);
        let variants = [
            StepEntry { instance: 1, ..base },
            StepEntry { depth: 1, ..base },
            StepEntry { trial: 1, ..base },
        ];
        // At least one variant must differ — with 2-of-5 selection the
        // odds of all three colliding by chance are negligible, and a key
        // that ignored a component would collide on *every* seed.
        let mut any_differ = false;
        for v in variants {
            let (out, _) = expand_once(1, &v);
            any_differ |= out != base_out;
        }
        assert!(any_differ, "key components must reach the RNG stream");
    }

    #[test]
    fn depth_budget_blocks_final_depth_pushes() {
        // depth 1 of a depth-2 algorithm: edges still emit, pushes don't.
        let entry = StepEntry { instance: 0, depth: 1, vertex: 8, prev: None, trial: 0 };
        let (out, next) = expand_once(3, &entry);
        assert!(!out.is_empty());
        assert!(next.is_empty(), "final-depth entries must not reach the sink");
    }

    /// Constant-`k` sampler whose static edge bias is uniform or a
    /// function of the far endpoint with zeros in it.
    struct Probe {
        k: usize,
        without_replacement: bool,
        uniform: bool,
    }
    impl Algorithm for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: 2,
                neighbor_size: NeighborSize::Constant(self.k),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: self.without_replacement,
            }
        }
        fn edge_bias(&self, _g: GraphView<'_>, e: &EdgeCand) -> f64 {
            if self.uniform {
                1.0
            } else {
                (e.u % 4) as f64 * e.weight as f64
            }
        }
        fn edge_bias_is_uniform(&self) -> bool {
            self.uniform
        }
        fn edge_bias_is_static(&self) -> bool {
            true
        }
    }

    /// Everything one expansion produced.
    #[derive(Debug, PartialEq)]
    struct Expansion {
        picks: Vec<usize>,
        emits: Vec<(VertexId, VertexId)>,
        offers: Vec<(VertexId, Option<VertexId>)>,
        stats: SimStats,
    }

    struct Tape<'a>(&'a mut Expansion);
    impl FrontierSink for Tape<'_> {
        fn emit(&mut self, _e: &StepEntry, edge: (VertexId, VertexId)) {
            self.0.emits.push(edge);
        }
        fn push<L: Ledger>(
            &mut self,
            _e: &StepEntry,
            v: VertexId,
            p: Option<VertexId>,
            _s: &mut L,
        ) {
            self.0.offers.push((v, p));
        }
    }

    fn expand_via(kernel: &StepKernel<'_>, g: &Csr, entry: &StepEntry, share: bool) -> Expansion {
        let mut access = CsrAccess { graph: g };
        let mut scratch = StepScratch::new();
        let mut stats = SimStats::new();
        let mut x = Expansion { picks: vec![], emits: vec![], offers: vec![], stats };
        let build =
            share.then(|| kernel.prepare_group(&mut access, entry.vertex, None, &mut scratch));
        let rng = Philox::for_task(kernel.seed(), task_key(entry.instance, 0, entry.vertex, 0));
        let shared = build.flatten();
        let (home, sink) = (entry.vertex, &mut Tape(&mut x));
        kernel.expand_with(
            &mut access,
            entry,
            home,
            rng,
            shared.as_ref(),
            sink,
            &mut scratch,
            &mut stats,
        );
        x.picks = scratch.select.out.clone();
        x.stats = stats;
        x
    }

    /// The same `(entry, seed)` through every source that is legal for
    /// the algorithm: identical picks, emitted edges and offers, and a
    /// ledger that differs by exactly what the source documents.
    #[test]
    fn every_source_draws_the_same_expansion() {
        let graphs = [toy_graph(), rmat(8, 6, RmatParams::GRAPH500, 3).with_unit_weights()];
        let mut hits = [0; 2];
        for (g, without_replacement) in graphs.iter().flat_map(|g| [(g, false), (g, true)]) {
            let pick_bytes = if g.is_weighted() { 8 } else { 4 };
            for v in (0..g.num_vertices() as VertexId).filter(|&v| g.degree(v) >= 2).take(24) {
                let n = g.degree(v);
                let entry = StepEntry { instance: 3, depth: 0, vertex: v, prev: None, trial: 0 };
                let gather = |s: &mut SimStats| {
                    s.read_gmem(gather_bytes(g.is_weighted(), n));
                    s.warp_cycles += n.div_ceil(32) as u64;
                };
                for k in [1, 2, n - 1, n, n + 3] {
                    // Static non-uniform bias: lane, group-shared, cache.
                    let algo = Probe { k, without_replacement, uniform: false };
                    let lane = expand_via(&StepKernel::new(&algo, 11), g, &entry, false);
                    assert_eq!(expand_via(&StepKernel::new(&algo, 11), g, &entry, true), lane);
                    let cache = CtpsCache::new(1 << 20);
                    let cached = StepKernel::new(&algo, 11).with_ctps_cache(Some(&cache));
                    let mut miss = expand_via(&cached, g, &entry, false);
                    assert_eq!(std::mem::take(&mut miss.stats.ctps_cache_misses), 1);
                    assert_eq!(miss, lane, "a promoting miss is the lane plus the miss count");
                    let hit = expand_via(&cached, g, &entry, false);
                    if hit.stats.ctps_cache_hits == 1 {
                        // Drawn in place under the stripe lock.
                        hits[without_replacement as usize] += 1;
                        assert_eq!(
                            (&hit.picks, &hit.emits, &hit.offers),
                            (&lane.picks, &lane.emits, &lane.offers)
                        );
                        // The hit reads the cached table and its picks; the
                        // lane gathered, filled and rebuilt (per entry
                        // without replacement, per pick with).
                        let mut hit_plus = hit.stats;
                        gather(&mut hit_plus);
                        let rebuilds = if without_replacement { 1 } else { k.min(n) };
                        (0..rebuilds).for_each(|_| rebuild_cost(n, &mut hit_plus));
                        let mut lane_plus = lane.stats;
                        lane_plus.read_gmem(16 + 8 * n.min(8));
                        (0..hit.picks.len()).for_each(|_| lane_plus.read_gmem(pick_bytes));
                        lane_plus.ctps_cache_hits = 1;
                        assert_eq!(hit_plus, lane_plus, "v{v} k={k}");
                    }

                    // Uniform bias: the implicit table against SELECT over
                    // a materialized all-ones lane.
                    let algo = Probe { k, without_replacement, uniform: true };
                    let implicit = expand_via(&StepKernel::new(&algo, 11), g, &entry, false);
                    let mut select = SelectScratch::new();
                    let mut rng = Philox::for_task(11, task_key(3, 0, v, 0));
                    let mut stats = SimStats::new();
                    gather(&mut stats);
                    let ones = vec![1.0; n];
                    let cfg = SelectConfig::paper_best();
                    if without_replacement {
                        select_without_replacement_into(
                            &ones,
                            k,
                            cfg,
                            &mut select,
                            &mut rng,
                            &mut stats,
                        );
                    } else {
                        for _ in 0..k.min(n) {
                            let pick =
                                select_one_with(&ones, &mut select.ctps, &mut rng, &mut stats);
                            select.out.extend(pick);
                        }
                    }
                    assert_eq!(
                        (&implicit.picks, &implicit.stats),
                        (&select.out, &stats),
                        "v{v} k={k}"
                    );
                    let emits: Vec<_> =
                        select.out.iter().map(|&i| (v, g.neighbors(v)[i])).collect();
                    assert_eq!(implicit.emits, emits);
                }
            }
        }
        assert!(
            hits.iter().all(|&h| h > 50),
            "the cache-hit source was barely exercised: {hits:?}"
        );
    }

    #[test]
    fn trial_counter_numbers_duplicates_per_instance() {
        let mut t = TrialCounter::new();
        assert_eq!(t.next(0, 5), 0);
        assert_eq!(t.next(0, 5), 1);
        assert_eq!(t.next(1, 5), 0, "instances are independent");
        assert_eq!(t.next(0, 6), 0, "vertices are independent");
        t.reset();
        assert_eq!(t.next(0, 5), 0, "reset forgets prior steps");
    }

    proptest::proptest! {
        /// Any depth-by-depth, instance-contiguous feed — duplicates
        /// within a run, vertices shared across runs — numbers the same
        /// as one plain map cleared per depth, whether the counter is
        /// reset per depth (the per-instance drivers) or at every
        /// instance run (`batch::run_chunk`).
        #[test]
        fn trial_counter_equals_a_plain_map(
            depths in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(0u32..6, 0..8), 0..5),
                1..6,
            ),
        ) {
            let mut per_depth = TrialCounter::new();
            let mut per_run = TrialCounter::new();
            for runs in &depths {
                let mut reference: HashMap<(u32, VertexId), u32> = HashMap::new();
                per_depth.reset();
                for (instance, run) in runs.iter().enumerate() {
                    let instance = instance as u32 * 7;
                    per_run.reset();
                    for &v in run {
                        let n = reference.entry((instance, v)).or_insert(0);
                        proptest::prop_assert_eq!(per_depth.next(instance, v), *n);
                        proptest::prop_assert_eq!(per_run.next(instance, v), *n);
                        *n += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn gather_bytes_counts_weights() {
        assert_eq!(gather_bytes(false, 10), 16 + 40);
        assert_eq!(gather_bytes(true, 10), 16 + 80);
    }
}
