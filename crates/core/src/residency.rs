//! The residency hierarchy: CTPS cache → decoded-run pool →
//! mmap/disk.
//!
//! The out-of-memory scheduler moves partitions between host CSR and
//! device memory; this module is the level below the host. A
//! [`ResidencyHierarchy`] holds a **byte-budgeted pool of decoded vertex
//! runs** over an mmap-backed [`DiskStore`]:
//!
//! ```text
//! tier 1  CTPS cache              per-vertex sampling tables (device)
//! tier 2  decoded-run pool        one vertex's neighbor run a slot (host)
//! tier 3  mmap'd segment files    fixed-width id records, read in place
//! ```
//!
//! **The unit of residency is one vertex's run**
//! ([`DiskStore::decode_vertex`], O(degree)), never a partition. On a
//! power-law graph a walk visits `v` in proportion to `d(v)` and `v`'s
//! run costs `d(v)` bytes, so the hit *count* a resident byte buys is
//! flat across vertices; but a miss on `v` costs `d(v)` decode work, so
//! the decode *time* a resident byte saves grows with `d(v)`. Pooling
//! runs lets the budget go to the hubs; pooling partitions spent it on
//! whatever shared their id range. A lookup is one load of the dense
//! per-vertex slot index and one of the run slab; zero-degree vertices
//! never decode or allocate.
//!
//! **A uniform step reads one neighbor, not a run.** The closed-form
//! uniform step needs only `d(v)`, served from the store's resident
//! degree array, and the neighbor at its pick. [`DiskAccess`]'s
//! [`NeighborAccess::neighbor_at`] is still a pool lookup — it bumps the
//! frequency gate and counts — but a resident or transient run serves it
//! from RAM (a hit), and otherwise the neighbor is read in place from the
//! mapping ([`DiskStore::neighbor_at`], O(1)): a miss that decodes
//! nothing and admits nothing. Only steps that read the whole run —
//! biased and weighted ones, whose bias lane spans every edge — gather,
//! decode and fill the pool.
//!
//! **Admission is a frequency gate** (TinyLFU-shaped). Every lookup bumps
//! its vertex's saturating `u8` counter, and all counters halve every
//! `num_vertices` lookups, so an old hot set fades. A missed run enters
//! the pool when a clock (second-chance) sweep can make room for it —
//! but the sweep *stops and rejects the run* at the first unreferenced
//! victim touched more often than it. A rejected run is decoded into a
//! recycled buffer and served until the next exclusive entry. Without
//! the gate every miss evicts, and one-off vertices push out any hub
//! whose referenced bit has lapsed; a gate that scans on past hotter
//! victims costs O(slab) a miss.
//!
//! **The budget is strict.** A resident run is charged `4·d` (+`4·d` of
//! weights) + 8 bytes, its share of [`DiskStore::total_decoded_bytes`] —
//! still the budget at which nothing is ever evicted. A run larger than
//! the whole budget is served transiently and never admitted, so
//! resident bytes never exceed the budget
//! ([`DiskPoolSnapshot::is_conserved`]).
//!
//! **Epoch composition.** Evicting `v`'s run bumps `v`'s run epoch, which
//! [`crate::step::entry_tag`] puts in the residency half of `v`'s cache
//! tag, so the CTPS cache's invalidation machinery retires exactly the
//! tier-1 entries whose tier-2 backing was recycled. Re-decoded content
//! is bit-identical: epoch churn affects the cost model, never the
//! sample.
//!
//! **Soundness of the pool.** `neighbors()` is called through a shared
//! borrow (the [`GraphView`] hooks probe other vertices mid-step), yet a
//! miss must decode and a full pool must evict. The pool lives in an
//! `UnsafeCell` (the hierarchy is deliberately `!Sync`; each worker
//! thread owns one) and keeps one invariant: **a run's buffers are not
//! written, recycled or freed while a slice into them may be live.**
//! Slices are made from the buffers' raw pointers, so the `&mut Pool` of
//! the next lookup asserts nothing about them; a buffer is written only
//! by the decode that precedes its first slice; eviction and rejection
//! only *move* its `Vec` header (to the graveyard, the transient list);
//! and buffers are cleared or dropped only in
//! [`ResidencyHierarchy::maintain`], which [`DiskAccess::fetch`] runs
//! under `&mut self`. The overshoot is the working set since the last
//! base gather — one step's, unless a snapshot overlay above the store
//! served the steps in between.
//!
//! **Determinism.** Decode is bit-exact, so sampling output is identical
//! at every budget. The tier counters depend on how instances were
//! interleaved over worker threads, like the shared CTPS cache's; the
//! identities in [`DiskPoolSnapshot::is_conserved`] hold regardless.
//! `evictions` counts runs — far more of them than the partitions it
//! once counted, for several times fewer `decode_bytes`.
//!
//! **Counting.** A pool counts into its own plain totals; a lookup costs
//! no atomic. The totals reach a run's [`SimStats`] through
//! [`ResidencyHierarchy::flush_stats`] and the shared [`DiskTierStats`]
//! by a publish of the delta since the last one, in three places: at the
//! end of every task ([`crate::engine::run_task`] flushes), on the public
//! [`ResidencyHierarchy::maintain`], and in
//! [`ResidencyHierarchy::rebind_shared`], to the old sink before the
//! switch. A reader in the middle of a task sees totals as of the last
//! finished task. Only the resident-bytes gauge and the decode-time
//! histogram are still written as they happen.

use crate::step::{gather_bytes, Gathered, NeighborAccess};
use csaw_gpu::stats::{Ledger, SimStats};
use csaw_graph::store::DiskStore;
use csaw_graph::{GraphView, PagedAdjacency, VertexId, Weight};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Upper bounds (inclusive, microseconds) of the decode-time histogram
/// buckets; the last bucket is open-ended.
pub const DECODE_BUCKETS_US: [u64; 7] = [50, 100, 250, 500, 1000, 5000, 25000];

/// Number of decode-histogram buckets (bounds plus the open-ended one).
pub const NUM_DECODE_BUCKETS: usize = DECODE_BUCKETS_US.len() + 1;

/// Simulated page faults charged for a neighbor read in place: the
/// index/degree page and the page holding the id (a decode charges the
/// first plus the record's span).
const POINT_READ_FAULTS: u64 = 2;

/// "No run" in the per-vertex slot index.
const NO_SLOT: u32 = u32::MAX;
/// Set on a slot-index entry that points into the transient list, not
/// the slab.
const TRANSIENT: u32 = 1 << 31;

/// Pool bytes charged for a resident run of `edges` neighbors: the
/// vertex's share of `PartitionMeta::decoded_bytes` (its `col` and
/// weight entries plus one row-pointer word).
fn run_bytes(weighted: bool, edges: usize) -> usize {
    edges * (4 + 4 * weighted as usize) + std::mem::size_of::<usize>()
}

/// Shared (cross-worker) disk-tier observability: lock-free totals the
/// service publishes as gauges. Worker pools add their deltas here when a
/// task ends and on [`ResidencyHierarchy::maintain`], so a reader in the
/// middle of a task sees the counts as of the last finished task
/// (`pool_bytes` and the decode histogram move as they happen); the
/// deterministic per-run counters travel through [`SimStats`] instead.
#[derive(Debug, Default)]
pub struct DiskTierStats {
    /// Pool lookups across all workers: one a gather, one a point read.
    pub lookups: AtomicU64,
    /// Lookups served by a resident (or this step's transient) run.
    pub hits: AtomicU64,
    /// Lookups that no resident run served: decoded, or read in place.
    pub misses: AtomicU64,
    /// Runs evicted by the clock sweep.
    pub evictions: AtomicU64,
    /// Bytes currently held by decoded runs across all pools (gauge;
    /// includes graveyard bytes awaiting reclaim).
    pub pool_bytes: AtomicU64,
    /// Simulated 4 KiB page faults charged for reading mapped segments.
    pub mmap_faults: AtomicU64,
    /// RAM bytes produced by decodes.
    pub decode_bytes: AtomicU64,
    /// Decode wall-time histogram (point reads decode nothing and are not
    /// timed): bucket `i` counts decodes that took
    /// ≤ `DECODE_BUCKETS_US[i]` µs (last bucket: longer than all).
    pub decode_hist: [AtomicU64; NUM_DECODE_BUCKETS],
    /// Sum of decode wall times, microseconds.
    pub decode_sum_us: AtomicU64,
    /// Number of decodes timed into the histogram.
    pub decode_count: AtomicU64,
}

impl DiskTierStats {
    /// Records one decode's wall time (its miss, bytes and faults are
    /// published with the pool's totals).
    fn record_decode(&self, micros: u64) {
        let bucket =
            DECODE_BUCKETS_US.iter().position(|&b| micros <= b).unwrap_or(DECODE_BUCKETS_US.len());
        self.decode_hist[bucket].fetch_add(1, Relaxed);
        self.decode_sum_us.fetch_add(micros, Relaxed);
        self.decode_count.fetch_add(1, Relaxed);
    }

    /// Adjusts the resident-bytes gauge by a signed delta (two's
    /// complement wrap keeps concurrent adjustments sum-correct).
    fn adjust_pool_bytes(&self, delta: i64) {
        self.pool_bytes.fetch_add(delta as u64, Relaxed);
    }
}

/// Everything a runtime needs to route adjacency through the disk tier.
#[derive(Clone)]
pub struct DiskRunConfig {
    /// The opened store (read-only mappings; shared across workers).
    pub store: Arc<DiskStore>,
    /// RAM budget in bytes for each worker's decoded-run pool, never
    /// exceeded; [`DiskStore::total_decoded_bytes`] holds the whole graph.
    pub pool_budget: usize,
    /// Optional shared observability sink (service/serve gauges).
    pub shared: Option<Arc<DiskTierStats>>,
}

impl std::fmt::Debug for DiskRunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskRunConfig")
            .field("store", &self.store.dir())
            .field("pool_budget", &self.pool_budget)
            .field("shared", &self.shared.is_some())
            .finish()
    }
}

/// One vertex's decoded neighbor run: a slab slot when resident (an
/// empty `col` marks a free slot — resident runs have degree > 0), an
/// entry of the transient list or the graveyard, or the spare buffers
/// otherwise. `ws` stays empty on unweighted stores.
#[derive(Default)]
struct Run {
    v: VertexId,
    referenced: bool,
    col: Vec<VertexId>,
    ws: Vec<Weight>,
}

impl Run {
    /// The run's slices with a caller-chosen lifetime.
    ///
    /// # Safety
    /// The caller must not write, clear or drop the run's buffers while
    /// the returned slices live (the pool invariant in the module docs).
    unsafe fn slices<'a>(&self, weighted: bool) -> (&'a [VertexId], Option<&'a [Weight]>) {
        // SAFETY: ptr/len describe the Vec's live initialized buffer,
        // which moving the Vec header does not move; the caller keeps
        // the buffer unwritten and alive for 'a.
        unsafe {
            (
                std::slice::from_raw_parts(self.col.as_ptr(), self.col.len()),
                weighted.then(|| std::slice::from_raw_parts(self.ws.as_ptr(), self.ws.len())),
            )
        }
    }
}

/// Lifetime tier counters of one pool.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    lookups: u64,
    hits: u64,
    misses: u64,
    admissions: u64,
    evictions: u64,
    decode_bytes: u64,
    mmap_faults: u64,
}

/// Lifetime totals of one pool, for tests and local inspection.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskPoolSnapshot {
    /// Pool lookups.
    pub lookups: u64,
    /// Lookups served resident.
    pub hits: u64,
    /// Lookups that no resident run served: decoded, or read in place.
    pub misses: u64,
    /// Runs the frequency gate admitted to the pool.
    pub admissions: u64,
    /// Runs evicted by the clock sweep.
    pub evictions: u64,
    /// Bytes currently resident (live slots, excluding graveyard).
    pub bytes: u64,
    /// Bytes awaiting reclaim in the graveyard.
    pub graveyard_bytes: u64,
    /// Configured budget.
    pub budget: u64,
}

impl DiskPoolSnapshot {
    /// The pool's conservation identities: every lookup is a hit or a
    /// miss, only a missed (decoded) run is admitted, only an admitted run is
    /// evicted, and resident bytes never exceed the budget.
    pub fn is_conserved(&self) -> bool {
        self.lookups == self.hits + self.misses
            && self.admissions <= self.misses
            && self.evictions <= self.admissions
            && self.bytes <= self.budget
    }
}

/// The pool behind the `UnsafeCell`.
#[derive(Default)]
struct Pool {
    budget: usize,
    bytes: usize,
    /// Per vertex: its slab slot, `TRANSIENT |` its position in the
    /// transient list, or `NO_SLOT`.
    index: Vec<u32>,
    /// Per vertex: saturating touch counter, halved every
    /// `num_vertices` lookups (`age_in` counts down to the next halving).
    freq: Vec<u8>,
    age_in: usize,
    /// Per vertex: residency epoch, bumped when its run is evicted;
    /// the run epoch of [`crate::step::entry_tag`].
    epochs: Vec<u32>,
    slab: Vec<Run>,
    free: Vec<u32>,
    hand: usize,
    /// Runs the gate rejected, served until the next reclaim.
    transient: Vec<Run>,
    /// Cleared buffers for the next rejected run, sized for the store's
    /// largest run: a walk rejects at most one a step and decodes it
    /// here, allocating nothing. A step whose hooks probe many cold runs
    /// allocates the rest and frees them with the step, so idle scratch
    /// memory stays one buffer pair.
    spare: Option<Run>,
    /// Evicted runs awaiting reclaim.
    graveyard: Vec<Run>,
    graveyard_bytes: usize,
    totals: Totals,
    /// `totals` as of the last [`ResidencyHierarchy::flush_stats`].
    flushed: Totals,
    /// `totals` as of the last publish to the shared sink.
    published: Totals,
}

impl Pool {
    /// Counts one lookup of `v`, in the totals and in its touch counter
    /// (halving every counter once per `num_vertices` lookups), and
    /// returns its resident run — marked referenced — or this phase's
    /// transient run, counted as a hit.
    #[inline]
    fn lookup(&mut self, v: VertexId) -> Option<&Run> {
        let f = &mut self.freq[v as usize];
        *f = f.saturating_add(1);
        self.age_in -= 1;
        if self.age_in == 0 {
            self.age_in = self.freq.len();
            self.freq.iter_mut().for_each(|f| *f >>= 1);
        }
        self.totals.lookups += 1;
        let slot = self.index[v as usize];
        if slot == NO_SLOT {
            return None;
        }
        self.totals.hits += 1;
        Some(if slot & TRANSIENT != 0 {
            &self.transient[(slot ^ TRANSIENT) as usize]
        } else {
            let run = &mut self.slab[slot as usize];
            run.referenced = true;
            run
        })
    }

    /// The frequency-gated clock sweep: evicts unreferenced resident
    /// runs until `need` more bytes fit, and returns whether `v`'s run
    /// may be admitted. It may not when `need` exceeds the whole budget
    /// or the sweep meets an unreferenced victim touched more often
    /// than `v`. Evicted runs go to the graveyard — their buffers must
    /// outlive any slice handed out this shared phase.
    fn make_room(&mut self, v: VertexId, need: usize, weighted: bool) -> bool {
        if need > self.budget {
            return false;
        }
        // Terminates: resident bytes are positive here, so the slab is
        // not empty, and a revolution that evicts nothing and rejects
        // nothing clears every referenced bit for the next one.
        while self.bytes + need > self.budget {
            let s = self.hand;
            self.hand = (s + 1) % self.slab.len();
            let run = &mut self.slab[s];
            if run.col.is_empty() || std::mem::take(&mut run.referenced) {
                continue;
            }
            if self.freq[run.v as usize] > self.freq[v as usize] {
                return false;
            }
            let run = std::mem::take(run);
            let bytes = run_bytes(weighted, run.col.len());
            self.index[run.v as usize] = NO_SLOT;
            self.epochs[run.v as usize] = self.epochs[run.v as usize].wrapping_add(1);
            self.bytes -= bytes;
            self.graveyard_bytes += bytes;
            self.graveyard.push(run);
            self.free.push(s as u32);
            self.totals.evictions += 1;
        }
        true
    }

    /// Installs an admitted run in a free slab slot and returns the slot.
    fn admit(&mut self, run: Run, bytes: usize) -> usize {
        let slot = self.free.pop().map_or(self.slab.len(), |s| s as usize);
        if slot == self.slab.len() {
            assert!(slot < TRANSIENT as usize, "slab slots must leave the TRANSIENT bit clear");
            self.slab.push(Run::default());
        }
        self.index[run.v as usize] = slot as u32;
        self.slab[slot] = run;
        self.bytes += bytes;
        self.totals.admissions += 1;
        slot
    }

    /// Frees the graveyard and the transient runs, keeping one cleared
    /// buffer pair as the spare. Only sound when no slices into them
    /// are outstanding — called from `&mut self` entry points.
    fn reclaim(&mut self, shared: Option<&DiskTierStats>) {
        for mut run in self.transient.drain(..) {
            self.index[run.v as usize] = NO_SLOT;
            if self.spare.is_none() {
                run.col.clear();
                run.ws.clear();
                self.spare = Some(run);
            }
        }
        if self.graveyard.is_empty() {
            return;
        }
        self.graveyard.clear();
        if let Some(sh) = shared {
            sh.adjust_pool_bytes(-(self.graveyard_bytes as i64));
        }
        self.graveyard_bytes = 0;
    }

    /// Adds the counts since the last publish to `shared` (and, with no
    /// sink, just marks them published).
    fn publish(&mut self, shared: Option<&DiskTierStats>) {
        let (now, was) = (self.totals, std::mem::replace(&mut self.published, self.totals));
        if let Some(sh) = shared {
            sh.lookups.fetch_add(now.lookups - was.lookups, Relaxed);
            sh.hits.fetch_add(now.hits - was.hits, Relaxed);
            sh.misses.fetch_add(now.misses - was.misses, Relaxed);
            sh.evictions.fetch_add(now.evictions - was.evictions, Relaxed);
            sh.decode_bytes.fetch_add(now.decode_bytes - was.decode_bytes, Relaxed);
            sh.mmap_faults.fetch_add(now.mmap_faults - was.mmap_faults, Relaxed);
        }
    }
}

/// Tier 2 + 3 of the hierarchy: a byte-budgeted pool of decoded vertex
/// runs over an mmap-backed store. `!Sync` by construction — each worker
/// thread owns its own hierarchy over a shared `Arc<DiskStore>`,
/// mirroring per-SM working sets over shared device memory.
pub struct ResidencyHierarchy {
    store: Arc<DiskStore>,
    shared: Option<Arc<DiskTierStats>>,
    pool: UnsafeCell<Pool>,
}

impl std::fmt::Debug for ResidencyHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("ResidencyHierarchy")
            .field("store", &self.store.dir())
            .field("pool", &snap)
            .finish()
    }
}

impl ResidencyHierarchy {
    /// A hierarchy over `store` with a `pool_budget`-byte decoded pool.
    pub fn new(
        store: Arc<DiskStore>,
        pool_budget: usize,
        shared: Option<Arc<DiskTierStats>>,
    ) -> Self {
        let n = store.num_vertices();
        let max_degree = store.degrees().iter().copied().max().unwrap_or(0) as usize;
        let pool = Pool {
            budget: pool_budget,
            index: vec![NO_SLOT; n],
            freq: vec![0; n],
            age_in: n.max(1),
            epochs: vec![0; n],
            spare: Some(Run {
                col: Vec::with_capacity(max_degree),
                ws: Vec::with_capacity(if store.is_weighted() { max_degree } else { 0 }),
                ..Run::default()
            }),
            ..Pool::default()
        };
        ResidencyHierarchy { store, shared, pool: UnsafeCell::new(pool) }
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<DiskStore> {
        &self.store
    }

    /// Lifetime totals of this pool.
    pub fn snapshot(&self) -> DiskPoolSnapshot {
        // SAFETY: read-only access through the same single-threaded
        // discipline as resolve_run(); no overlapping &mut exists during
        // a call on this thread.
        let pool = unsafe { &*self.pool.get() };
        DiskPoolSnapshot {
            lookups: pool.totals.lookups,
            hits: pool.totals.hits,
            misses: pool.totals.misses,
            admissions: pool.totals.admissions,
            evictions: pool.totals.evictions,
            bytes: pool.bytes as u64,
            graveyard_bytes: pool.graveyard_bytes as u64,
            budget: pool.budget as u64,
        }
    }

    /// Residency epoch of `v`'s run (bumped when its decoded copy is
    /// evicted).
    pub fn run_epoch(&self, v: VertexId) -> u64 {
        // SAFETY: as in snapshot().
        unsafe { (&(*self.pool.get()).epochs)[v as usize] as u64 }
    }

    /// Points the hierarchy at a different observability sink, moving
    /// the resident-bytes gauge with it. Counts not yet published go to
    /// the old sink first. The pool's contents (and the deterministic
    /// `SimStats` counters) carry over untouched — a warm thread-local
    /// pool reused under a new config keeps its decodes but reports to the
    /// config's current sink.
    pub fn rebind_shared(&mut self, shared: Option<Arc<DiskTierStats>>) {
        if self.shared.as_ref().map(Arc::as_ptr) == shared.as_ref().map(Arc::as_ptr) {
            return;
        }
        let pool = self.pool.get_mut();
        pool.publish(self.shared.as_deref());
        let resident = (pool.bytes + pool.graveyard_bytes) as i64;
        if let Some(old) = &self.shared {
            old.adjust_pool_bytes(-resident);
        }
        if let Some(new) = &shared {
            new.adjust_pool_bytes(resident);
        }
        self.shared = shared;
    }

    /// Reclaims evicted and transient runs and publishes the counts since
    /// the last publish to the shared sink. Sound because `&mut self`
    /// proves no slices into them are outstanding.
    pub fn maintain(&mut self) {
        self.reclaim();
        self.pool.get_mut().publish(self.shared.as_deref());
    }

    /// Reclaims evicted and transient runs, publishing nothing: the
    /// step's exclusive prologue.
    #[inline]
    fn reclaim(&mut self) {
        let pool = self.pool.get_mut();
        if !(pool.transient.is_empty() && pool.graveyard.is_empty()) {
            pool.reclaim(self.shared.as_deref());
        }
    }

    /// Drains the tier counters accumulated since the last flush into
    /// `stats`, and publishes them to the shared sink.
    pub fn flush_stats(&mut self, stats: &mut SimStats) {
        let pool = self.pool.get_mut();
        pool.publish(self.shared.as_deref());
        let (now, was) = (pool.totals, std::mem::replace(&mut pool.flushed, pool.totals));
        stats.disk_pool_lookups += now.lookups - was.lookups;
        stats.disk_pool_hits += now.hits - was.hits;
        stats.disk_pool_misses += now.misses - was.misses;
        stats.disk_pool_evictions += now.evictions - was.evictions;
        stats.disk_decode_bytes += now.decode_bytes - was.decode_bytes;
        stats.disk_mmap_faults += now.mmap_faults - was.mmap_faults;
    }

    /// Resolves `v`'s neighbor run: from its slab slot, from this
    /// phase's transient list, or by decoding it — into the pool when
    /// the frequency gate admits it, into a recycled transient buffer
    /// otherwise. Returns slices whose buffers stay untouched for the
    /// whole `&self` phase (deferred reclaim).
    fn resolve_run(&self, v: VertexId) -> (&[VertexId], Option<&[Weight]>) {
        let weighted = self.store.is_weighted();
        let shared = self.shared.as_deref();
        // SAFETY: the hierarchy is !Sync, so calls are serialized on one
        // thread; this &mut Pool window is confined to resolve_run() and
        // never overlaps another (store decodes do not reenter). Slices
        // returned earlier point into run buffers, which this window
        // never writes, clears or drops (the pool invariant).
        let pool = unsafe { &mut *self.pool.get() };
        if let Some(run) = pool.lookup(v) {
            // SAFETY: the pool invariant — a resident or transient run's
            // buffers are only moved until maintain() runs under &mut self.
            return unsafe { run.slices(weighted) };
        }
        let deg = self.store.degree(v);
        if deg == 0 {
            pool.totals.hits += 1;
            return (&[], weighted.then_some(&[][..]));
        }
        let bytes = run_bytes(weighted, deg);
        let admit = pool.make_room(v, bytes, weighted);
        // An admitted run gets fresh buffers, which the decode reserves
        // at exactly its size (the budget charges real memory); a
        // rejected one borrows the spare pair when it is free.
        let spare = if admit { None } else { pool.spare.take() };
        let mut run = Run { v, ..spare.unwrap_or_default() };
        let clock = shared.map(|_| Instant::now());
        let pages = self
            .store
            .decode_vertex(v, &mut run.col, weighted.then_some(&mut run.ws))
            .unwrap_or_else(|e| {
                panic!("disk store {} failed mid-run: {e}", self.store.dir().display())
            });
        let decoded = ((run.col.len() + run.ws.len()) * 4) as u64;
        pool.totals.misses += 1;
        pool.totals.decode_bytes += decoded;
        pool.totals.mmap_faults += pages;
        if let (Some(sh), Some(t0)) = (shared, clock) {
            sh.record_decode(t0.elapsed().as_micros() as u64);
            if admit {
                sh.adjust_pool_bytes(bytes as i64);
            }
        }
        let run = if admit {
            let slot = pool.admit(run, bytes);
            &pool.slab[slot]
        } else {
            pool.index[v as usize] = TRANSIENT | pool.transient.len() as u32;
            pool.transient.push(run);
            pool.transient.last().expect("just pushed")
        };
        // SAFETY: the buffers were written before this first slice and,
        // by the pool invariant, are only moved until maintain().
        unsafe { run.slices(weighted) }
    }

    /// Neighbor `k` of `v` through the pool: a lookup like
    /// [`Self::resolve_run`]'s, served from RAM when `v`'s run is
    /// resident or transient (a hit), else read in place from the
    /// mapping ([`DiskStore::neighbor_at`]) — a miss that decodes
    /// nothing and admits nothing.
    fn read_at(&self, v: VertexId, k: usize) -> (VertexId, Option<Weight>) {
        let weighted = self.store.is_weighted();
        // SAFETY: as in resolve_run(); this window only reads run buffers.
        let pool = unsafe { &mut *self.pool.get() };
        if let Some(run) = pool.lookup(v) {
            return (run.col[k], weighted.then(|| run.ws[k]));
        }
        pool.totals.misses += 1;
        pool.totals.mmap_faults += POINT_READ_FAULTS;
        self.store.neighbor_at(v, k).unwrap_or_else(|e| {
            panic!("disk store {} failed mid-run: {e}", self.store.dir().display())
        })
    }
}

impl PagedAdjacency for ResidencyHierarchy {
    fn num_vertices(&self) -> usize {
        self.store.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.store.num_edges()
    }

    fn is_weighted(&self) -> bool {
        self.store.is_weighted()
    }

    fn degrees(&self) -> &[u32] {
        // The store's resident degree array: hooks probe arbitrary
        // vertices without forcing decodes.
        self.store.degrees()
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.resolve_run(v).0
    }

    fn neighbor_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.resolve_run(v).1
    }
}

/// [`NeighborAccess`] over the disk tier: drop-in for [`StepKernel`]
/// (the PR-3 trait seam), serving `fetch()` through memory-mapped
/// segments with on-demand decode into the byte-budgeted run pool, and
/// `neighbor_at()` through the same pool or in place. Charges
/// the same [`gather_bytes`] as [`crate::step::CsrAccess`], so a
/// disk-backed run counts identical simulated-GPU traffic — the disk
/// tier's own work lands in the `disk_*` counters instead.
///
/// [`StepKernel`]: crate::step::StepKernel
pub struct DiskAccess {
    hier: ResidencyHierarchy,
}

impl std::fmt::Debug for DiskAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("DiskAccess").field(&self.hier).finish()
    }
}

impl DiskAccess {
    /// An access over `cfg`'s store with a fresh pool.
    pub fn new(cfg: &DiskRunConfig) -> Self {
        DiskAccess {
            hier: ResidencyHierarchy::new(
                Arc::clone(&cfg.store),
                cfg.pool_budget,
                cfg.shared.clone(),
            ),
        }
    }

    /// See [`ResidencyHierarchy::rebind_shared`].
    pub fn rebind_shared(&mut self, shared: Option<Arc<DiskTierStats>>) {
        self.hier.rebind_shared(shared);
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &ResidencyHierarchy {
        &self.hier
    }

    /// Reclaims evicted and transient runs and publishes the pool's
    /// counts to the shared sink (safe: exclusive receiver).
    pub fn maintain(&mut self) {
        self.hier.maintain();
    }

    /// Drains pending tier counters into `stats` and publishes them to
    /// the shared sink ([`crate::engine::run_task`] calls this when each
    /// task ends, so per-task stats carry the disk work the task actually
    /// caused on its worker thread).
    pub fn flush_stats(&mut self, stats: &mut SimStats) {
        self.hier.flush_stats(stats);
    }

    /// Lifetime pool totals.
    pub fn snapshot(&self) -> DiskPoolSnapshot {
        self.hier.snapshot()
    }
}

impl NeighborAccess for DiskAccess {
    fn graph(&self) -> GraphView<'_> {
        GraphView::paged(&self.hier)
    }

    fn gather<L: Ledger>(&mut self, v: VertexId, stats: &mut L) -> Gathered<'_> {
        stats.read_gmem(gather_bytes(self.hier.is_weighted(), self.hier.store().degree(v)));
        self.fetch(v)
    }

    fn fetch(&mut self, v: VertexId) -> Gathered<'_> {
        // Exclusive prologue: no slices are outstanding, so evicted and
        // transient runs can go before this step's working set forms.
        self.hier.reclaim();
        let hier = &self.hier;
        let (neighbors, weights) = hier.resolve_run(v);
        Gathered { graph: GraphView::paged(hier), neighbors, weights }
    }

    /// The gather's charge and reclaim prologue, without the lookup:
    /// the step's point reads are the lookups.
    fn degree<L: Ledger>(&mut self, v: VertexId, stats: &mut L) -> usize {
        self.hier.reclaim();
        let d = self.hier.store().degree(v);
        stats.read_gmem(gather_bytes(self.hier.is_weighted(), d));
        d
    }

    fn neighbor_at(&self, v: VertexId, k: usize) -> (VertexId, Option<Weight>) {
        self.hier.read_at(v, k)
    }

    fn run_epoch(&self, v: VertexId) -> u64 {
        self.hier.run_epoch(v)
    }
}

thread_local! {
    /// One warm disk pool per worker thread, keyed by (store identity,
    /// budget). Engine launches run many instances per thread; reusing
    /// the pool across them is what amortizes decodes (a per-instance
    /// pool would re-decode every hub a short walk touches).
    static THREAD_DISK: std::cell::RefCell<Option<(usize, usize, DiskAccess)>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with this thread's warm [`DiskAccess`] for `cfg`, creating
/// or replacing it when the store or budget changed. The pool persists
/// across calls (and across engine launches) on the same thread.
pub fn with_thread_disk_access<R>(cfg: &DiskRunConfig, f: impl FnOnce(&mut DiskAccess) -> R) -> R {
    THREAD_DISK.with(|cell| {
        let mut slot = cell.borrow_mut();
        let key = (Arc::as_ptr(&cfg.store) as usize, cfg.pool_budget);
        let rebuild = match slot.as_ref() {
            Some((ptr, budget, _)) => (*ptr, *budget) != key,
            None => true,
        };
        if rebuild {
            *slot = Some((key.0, key.1, DiskAccess::new(cfg)));
        }
        let (_, _, access) = slot.as_mut().expect("just installed");
        // A reused pool keeps its decoded runs but must report to
        // the *current* config's sink (a fresh service over the same
        // store would otherwise see stale-bound counters go elsewhere).
        access.rebind_shared(cfg.shared.clone());
        f(access)
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{entry_tag, LayeredAccess};
    use csaw_graph::generators::{rmat, toy_graph, RmatParams};
    use csaw_graph::store::write_store;
    use csaw_graph::{Csr, CsrBuilder, GraphSnapshot};
    use std::path::PathBuf;

    fn open_store(name: &str, g: &Csr, k: usize) -> (Arc<DiskStore>, PathBuf) {
        let base = std::env::var_os("CSAW_DISK_TMPDIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!("csaw-residency-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_store(&dir, g, k, 0).expect("write store");
        (Arc::new(DiskStore::open(&dir).expect("open store")), dir)
    }

    fn cfg(store: &Arc<DiskStore>, budget: usize) -> DiskRunConfig {
        DiskRunConfig { store: Arc::clone(store), pool_budget: budget, shared: None }
    }

    /// `n` vertices, vertex `v` pointing at the `degree(v)` vertices
    /// after it (mod `n`).
    fn ring_graph(n: u32, degree: impl Fn(u32) -> u32) -> Csr {
        let edges = (0..n).flat_map(|v| (1..=degree(v)).map(move |i| (v, (v + i) % n)));
        CsrBuilder::new().with_num_vertices(n as usize).extend_edges(edges).build()
    }

    #[test]
    fn serves_exact_adjacency_at_tiny_budget() {
        let g = rmat(8, 6, RmatParams::GRAPH500, 21).with_unit_weights();
        let (store, dir) = open_store("exact", &g, 8);
        // A thirtieth of the graph: constant eviction, same bytes served.
        let mut access = DiskAccess::new(&cfg(&store, store.total_decoded_bytes() / 30));
        let mut stats = SimStats::new();
        for _ in 0..4 {
            for v in (0..g.num_vertices() as VertexId).step_by(3) {
                let gat = access.gather(v, &mut stats);
                assert_eq!(gat.neighbors, g.neighbors(v), "neighbors of {v}");
                assert_eq!(gat.weights, g.neighbor_weights(v));
                assert_eq!(gat.graph.degree(v), g.degree(v));
            }
        }
        access.flush_stats(&mut stats);
        let snap = access.snapshot();
        assert!(snap.is_conserved(), "{snap:?}");
        assert!(snap.evictions > 0, "tiny budget must evict: {snap:?}");
        assert_eq!(stats.disk_pool_lookups, snap.lookups);
        assert_eq!(stats.disk_pool_hits + stats.disk_pool_misses, stats.disk_pool_lookups);
        assert_eq!(stats.disk_pool_evictions, snap.evictions);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_budget_decodes_each_run_once_and_never_evicts() {
        let g = rmat(8, 6, RmatParams::GRAPH500, 21).with_unit_weights();
        let (store, dir) = open_store("fullbudget", &g, 8);
        let mut access = DiskAccess::new(&cfg(&store, store.total_decoded_bytes()));
        let mut stats = SimStats::new();
        let n = g.num_vertices() as VertexId;
        let with_edges = (0..n).filter(|&v| g.degree(v) > 0).count() as u64;
        for v in 0..n {
            assert_eq!(access.gather(v, &mut stats).neighbors, g.neighbors(v));
        }
        let first = access.snapshot();
        assert!(first.is_conserved(), "{first:?}");
        assert_eq!(first.misses, with_edges, "one decode per vertex that has a run");
        assert_eq!(first.admissions, with_edges);
        // Second sweep over the now-fully-resident pool: pure hits.
        for v in 0..n {
            assert_eq!(access.gather(v, &mut stats).neighbors, g.neighbors(v));
        }
        let snap = access.snapshot();
        assert_eq!(snap.misses, with_edges);
        assert_eq!(snap.hits - first.hits, n as u64);
        assert_eq!(snap.evictions, 0, "nothing can evict at full budget");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hub_stays_resident_among_one_off_vertices() {
        // Vertex 0 is a hub touched every 2000th lookup; every other
        // vertex is touched once. The 10% pool holds some 1200 runs, so
        // between two touches the clock passes the hub at least twice
        // and its referenced bit cannot save it: only the gate does,
        // because the warm-up left its counter above a one-off's.
        let n = 12000u32;
        let g = ring_graph(n, |v| if v == 0 { 64 } else { 4 });
        let (store, dir) = open_store("hub", &g, 4);
        let mut access = DiskAccess::new(&cfg(&store, store.total_decoded_bytes() / 10));
        let mut stats = SimStats::new();
        let mut hub_lookups = 0u64;
        for v in [0, 0, 0].into_iter().chain(1..n) {
            if v % 2000 == 1999 {
                assert_eq!(access.gather(0, &mut stats).neighbors, g.neighbors(0));
                hub_lookups += 1;
            }
            assert_eq!(access.gather(v, &mut stats).neighbors, g.neighbors(v));
        }
        let snap = access.snapshot();
        assert!(snap.is_conserved(), "{snap:?}");
        assert!(snap.evictions > 10_000, "the one-off runs must churn: {snap:?}");
        assert_eq!(snap.misses, (n as u64 - 1) + 1, "the hub missed exactly once: {snap:?}");
        assert_eq!(snap.hits, 2 + hub_lookups);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_new_hot_set_displaces_the_old_one() {
        // 16 hot vertices fit the pool with room to spare; 32 do not.
        // After the walk moves from set A to set B, A's touch counters
        // shield it only until the periodic halving has worn them down:
        // B takes over within 100 rounds, long before its own counters
        // could climb past what A's would be had they never decayed.
        let n = 256u32;
        let g = ring_graph(n, |_| 8);
        let (store, dir) = open_store("shift", &g, 4);
        let mut access = DiskAccess::new(&cfg(&store, 25 * run_bytes(false, 8)));
        let mut stats = SimStats::new();
        let (a, b) = (0..16u32, 100..116u32);
        for _ in 0..300 {
            for v in a.clone() {
                let _ = access.gather(v, &mut stats);
            }
        }
        let warm = access.snapshot();
        assert_eq!(warm.misses, 16, "set A is resident after one round: {warm:?}");
        for _ in 0..100 {
            for v in b.clone() {
                let _ = access.gather(v, &mut stats);
            }
        }
        let shifted = access.snapshot();
        assert!(shifted.evictions > 0, "set A must have been evicted: {shifted:?}");
        for v in b {
            assert_eq!(access.gather(v, &mut stats).neighbors, g.neighbors(v));
        }
        let snap = access.snapshot();
        assert_eq!(snap.misses, shifted.misses, "set B is resident: {snap:?}");
        assert!(snap.is_conserved(), "{snap:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_is_strict_even_for_a_run_larger_than_the_pool() {
        let n = 300u32;
        let g = ring_graph(n, |v| if v == 7 { 200 } else { 1 + v % 5 }).with_unit_weights();
        let (store, dir) = open_store("strict", &g, 3);
        let budget = run_bytes(true, 200) - 1;
        let mut access = DiskAccess::new(&cfg(&store, budget));
        let mut stats = SimStats::new();
        for round in 0..3 {
            for v in (0..n).chain([7, 7]) {
                let gat = access.gather(v, &mut stats);
                assert_eq!(gat.neighbors, g.neighbors(v), "round {round}, vertex {v}");
                assert_eq!(gat.weights, g.neighbor_weights(v));
                let snap = access.snapshot();
                assert!(snap.bytes <= budget as u64, "after vertex {v}: {snap:?}");
                assert!(snap.is_conserved(), "{snap:?}");
            }
        }
        assert_eq!(access.hierarchy().run_epoch(7), 0, "the oversized run never entered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_bumps_run_epoch_tags() {
        let g = ring_graph(64, |_| 4);
        let (store, dir) = open_store("epochs", &g, 4);
        let mut access = DiskAccess::new(&cfg(&store, 4 * run_bytes(false, 4)));
        let mut stats = SimStats::new();
        let probe: VertexId = 0;
        let before = access.entry_epoch(probe);
        // One touch each: equal counters, so the clock evicts in order
        // and vertex 0's run is gone long before the sweep ends.
        for v in 0..64 {
            let _ = access.gather(v, &mut stats);
        }
        let after = access.entry_epoch(probe);
        assert_eq!(access.snapshot().evictions, 60);
        assert!(after > before, "eviction must advance the entry tag: {before} -> {after}");
        assert_eq!(after & 0xffff_ffff, 0, "low half reserved for mutation versions");
        assert_eq!(access.entry_epoch(63), 0, "a still-resident run keeps its tag");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_access_composes_device_and_disk_epochs() {
        let g = ring_graph(8, |_| 2);
        let (store, dir) = open_store("tiered", &g, 2);
        let mut access = DiskAccess::new(&cfg(&store, run_bytes(false, 2)));
        let mut stats = SimStats::new();
        for v in [0, 1, 0, 1] {
            let _ = access.gather(v, &mut stats);
        }
        let disk_epoch = access.hierarchy().run_epoch(0);
        assert!(disk_epoch > 0);
        let tiered = LayeredAccess::new(&mut access, None, 5u64);
        assert_eq!(tiered.entry_epoch(0), entry_tag(5, disk_epoch, 0));
        assert_eq!(tiered.entry_epoch(0) >> 48, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The one tag rule, bumped one component at a time: the device epoch,
    /// `v`'s run epoch, `v`'s mutation version and a neighbour's version
    /// each move `v`'s tag; another vertex's run epoch does not.
    #[test]
    fn entry_tag_moves_with_each_component_alone() {
        use csaw_graph::{EdgeEdit, MutableGraph};
        let g = ring_graph(16, |_| 2);
        let (store, dir) = open_store("tag", &g, 2);
        let mut disk = DiskAccess::new(&cfg(&store, run_bytes(false, 2)));
        let mut stats = SimStats::new();
        let mut mg = MutableGraph::new(g);
        let tag = |disk: &mut DiskAccess, snap: &GraphSnapshot, device: u64| {
            LayeredAccess::new(disk, Some(snap), device).entry_epoch(0)
        };
        let s0 = mg.snapshot();
        let t0 = tag(&mut disk, &s0, 1);
        assert_ne!(tag(&mut disk, &s0, 2), t0, "device epoch");

        // The pool holds one run: 4 evicts 3, then 5 evicts 0.
        for v in [3, 4] {
            let _ = disk.gather(v, &mut stats);
        }
        assert!(disk.hierarchy().run_epoch(3) > 0);
        assert_eq!(tag(&mut disk, &s0, 1), t0, "another vertex's run epoch");
        for v in [0, 5] {
            let _ = disk.gather(v, &mut stats);
        }
        let t1 = tag(&mut disk, &s0, 1);
        assert_ne!(t1, t0, "v's run epoch");

        mg.apply_batch(&[EdgeEdit::Insert { src: 0, dst: 9, weight: 1.0 }]).unwrap();
        let s1 = mg.snapshot();
        let t2 = tag(&mut disk, &s1, 1);
        assert_ne!(t2, t1, "v's version");
        mg.apply_batch(&[EdgeEdit::Insert { src: 1, dst: 11, weight: 1.0 }]).unwrap();
        assert_ne!(tag(&mut disk, &mg.snapshot(), 1), t2, "a neighbour's version");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_stats_track_pool_gauges() {
        let g = rmat(7, 4, RmatParams::MILD, 8);
        let (store, dir) = open_store("shared", &g, 4);
        let shared = Arc::new(DiskTierStats::default());
        let mut c = cfg(&store, store.total_decoded_bytes() / 8);
        c.shared = Some(Arc::clone(&shared));
        let mut access = DiskAccess::new(&c);
        let mut stats = SimStats::new();
        for v in (0..g.num_vertices() as VertexId).step_by(2) {
            let _ = access.gather(v, &mut stats);
        }
        // Probes through the shared view evict without reclaiming: the
        // gauge holds the graveyard until the next exclusive entry.
        for v in (1..g.num_vertices() as VertexId).step_by(2) {
            let _ = access.graph().neighbors(v);
        }
        let snap = access.snapshot();
        assert!(snap.evictions > 0 && snap.graveyard_bytes > 0, "{snap:?}");
        assert_eq!(shared.pool_bytes.load(Relaxed), snap.bytes + snap.graveyard_bytes);
        access.maintain();
        let lookups = shared.lookups.load(Relaxed);
        let hits = shared.hits.load(Relaxed);
        let misses = shared.misses.load(Relaxed);
        assert_eq!(lookups, hits + misses);
        assert_eq!((lookups, hits, misses), (snap.lookups, snap.hits, snap.misses));
        assert_eq!(shared.evictions.load(Relaxed), snap.evictions);
        assert_eq!(shared.decode_count.load(Relaxed), misses);
        assert!(shared.decode_bytes.load(Relaxed) > 0);
        assert!(shared.mmap_faults.load(Relaxed) > 0);
        let snap = access.snapshot();
        assert_eq!(snap.graveyard_bytes, 0);
        assert_eq!(shared.pool_bytes.load(Relaxed), snap.bytes, "gauge tracks held bytes");
        let hist: u64 = shared.decode_hist.iter().map(|b| b.load(Relaxed)).sum();
        assert_eq!(hist, misses, "every decode lands in one histogram bucket");
        drop(access);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_local_pool_is_reused_and_rekeyed() {
        let g = toy_graph();
        let (store, dir) = open_store("tls", &g, 2);
        let c = cfg(&store, store.total_decoded_bytes());
        let mut stats = SimStats::new();
        with_thread_disk_access(&c, |a| {
            let _ = a.gather(0, &mut stats);
        });
        let first = with_thread_disk_access(&c, |a| a.snapshot());
        assert_eq!(first.misses, 1, "same key reuses the warm pool");
        let c2 = cfg(&store, c.pool_budget / 2);
        let second = with_thread_disk_access(&c2, |a| a.snapshot());
        assert_eq!(second.lookups, 0, "budget change rebuilds the pool");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hooks_read_degrees_without_decoding() {
        let g = rmat(7, 4, RmatParams::MILD, 2);
        let (store, dir) = open_store("degrees", &g, 4);
        let access = DiskAccess::new(&cfg(&store, 1));
        let view = access.graph();
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(view.degree(v), g.degree(v));
        }
        assert_eq!(access.snapshot().lookups, 0, "degree probes must not touch the pool");
        assert_eq!(view.num_vertices(), g.num_vertices());
        assert_eq!(view.num_edges(), g.num_edges());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hooks_probe_other_vertices_while_a_gathered_run_is_live() {
        // node2vec's shape: the step holds v's slices and probes its
        // neighbours' runs through the shared view. Every probe misses
        // (budget 0), so each lands on the transient list and none may
        // disturb the slices handed out before it.
        let g = rmat(7, 6, RmatParams::GRAPH500, 5).with_unit_weights();
        let (store, dir) = open_store("probe", &g, 4);
        let mut access = DiskAccess::new(&cfg(&store, 0));
        let mut stats = SimStats::new();
        for v in 0..g.num_vertices() as VertexId {
            let gat = access.gather(v, &mut stats);
            for &u in gat.neighbors.iter().take(12) {
                assert_eq!(gat.graph.neighbors(u), g.neighbors(u));
            }
            assert_eq!(gat.neighbors, g.neighbors(v));
            assert_eq!(gat.weights, g.neighbor_weights(v));
        }
        let snap = access.snapshot();
        assert!(snap.is_conserved() && snap.admissions == 0, "{snap:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
