//! Hot-vertex CTPS cache: budgeted cross-instance reuse of per-vertex
//! transition-probability tables.
//!
//! §VII rejects full precomputation because "large graphs cannot afford
//! to index the probabilities of all vertices" — but on power-law graphs
//! a small set of hub vertices absorbs most visits across the thousands
//! of concurrent instances a launch runs. This cache keeps the CTPS of
//! *hot* vertices under a byte budget: lazily populated on miss, shared
//! by every instance of a launch, evicted with a degree-aware clock so
//! hubs stick and leaves churn.
//!
//! The budget is **cache-wide**: one bytes ledger, reserved atomically
//! on admission. Entries live in lock stripes (vertex id modulo the
//! stripe count), but a stripe is only a lock — it owns no slice of the
//! budget, so an admission that fits is never refused or made to evict,
//! however unevenly the hubs land. Over budget, the clock sweeps the
//! incomer's own stripe and then the others.
//!
//! Only algorithms whose [`crate::api::Algorithm::edge_bias`] is *static*
//! (`edge_bias_is_static()`, no walk-state dependence) may use it: their
//! CTPS for a vertex is the same on every visit, so a hit can binary-search
//! the cached bounds directly. The load-bearing invariant is that a hit
//! consumes exactly the same RNG draws and selects exactly the same
//! indices as a rebuild — the cache changes the *cost model* (hits charge
//! a cheap cached-table gather instead of the bias gather + Kogge-Stone
//! scan), never the sampled output. The kernel's hits sample the cached
//! table in place under the stripe lock ([`CtpsCache::with_ctps_entry`])
//! and copy nothing out; [`CtpsCache::lookup_into`] is the copy-out
//! accessor for other callers.
//!
//! A fresh build is raw (see [`crate::ctps`]); admission
//! ([`CtpsCache::admit`]) normalizes it once — the same divisions every
//! build used to pay, now on the miss path only — so every hit searches
//! stored region edges with the branchy loop. On the normalized table it
//! then verifies per region that a positive width corresponds to a
//! positive raw bias (see [`widths_agree`]); entries failing the check
//! (pathological FP collapse) are never cached, so the preloaded SELECT's
//! zero-width-region handling matches the rebuilt path exactly.
//!
//! Out-of-memory streams tag entries with a residency *epoch*: when a
//! partition swap changes what is device-resident, the epoch bumps and
//! stale entries are lazily dropped on the next lookup — modelling that a
//! real GPU would free cached tables along with the partition's memory.

use crate::api::{Algorithm, EdgeCand};
use crate::ctps::Ctps;
use csaw_gpu::stats::SimStats;
use csaw_graph::{GraphView, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Fixed per-entry overhead charged against the budget on top of the
/// 8 bytes per bound: slot bookkeeping, map entry, epoch/degree tags.
pub const ENTRY_OVERHEAD_BYTES: usize = 64;

/// Bytes one cached entry of `len` bounds charges against the budget.
pub fn entry_bytes(len: usize) -> usize {
    ENTRY_OVERHEAD_BYTES + 8 * len
}

/// True when every region of `ctps` has positive width exactly where the
/// raw bias is positive. Guarantees the preloaded SELECT path (which sees
/// only widths) partitions candidates identically to the rebuilt path
/// (which sees raw biases); admission requires it. The answer does not
/// depend on the table's state, but a raw table divides twice per region
/// here, so [`CtpsCache::admit`] runs it on the normalized table.
pub fn widths_agree(ctps: &Ctps, biases: &[f64]) -> bool {
    ctps.len() == biases.len()
        && (0..ctps.len()).all(|i| (ctps.probability(i) > 0.0) == (biases[i] > 0.0))
}

/// Builds vertex `v`'s static-bias CTPS into `ctps` (reusing `biases` as
/// the gather lane): `EDGEBIAS` with no walk context (`prev = None`),
/// valid exactly when the bias is static. Returns `false` — leaving the
/// CTPS empty — for zero-degree or zero-total-bias vertices. Charges the
/// scan/normalize work into `stats`; gather charges are the caller's.
pub fn build_vertex_ctps<A: Algorithm + ?Sized>(
    g: GraphView<'_>,
    algo: &A,
    v: VertexId,
    biases: &mut Vec<f64>,
    ctps: &mut Ctps,
    stats: &mut SimStats,
) -> bool {
    biases.clear();
    biases.extend(g.neighbors(v).iter().enumerate().map(|(i, &u)| {
        algo.edge_bias(g, &EdgeCand { v, u, weight: g.edge_weight(v, i), prev: None })
    }));
    ctps.rebuild(biases, stats)
}

/// What a lookup found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The vertex's CTPS was cached at the current epoch; its bounds are
    /// now in the destination table.
    Hit {
        /// Number of positive-bias candidates (selectable count).
        selectable: u32,
        /// The vertex's degree (== CTPS length).
        degree: u32,
    },
    /// Not cached (or cached at a stale epoch, now dropped).
    Miss,
}

/// Monotonic counters plus the bytes gauge, readable without locking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Total lookups (`hits + misses` — the conservation identity).
    pub lookups: u64,
    /// Lookups served from a cached entry.
    pub hits: u64,
    /// Lookups that found nothing (including stale-epoch drops).
    pub misses: u64,
    /// Entries admitted into the cache.
    pub promotions: u64,
    /// Entries removed, total: `evictions_clock + evictions_stale +
    /// evictions_replaced`.
    pub evictions: u64,
    /// Evictions by the degree-aware clock making room under budget
    /// pressure (the unreferenced-and-not-bigger sweep branch).
    pub evictions_clock: u64,
    /// Evictions of entries whose tag no longer matches the current
    /// lookup/admission epoch — residency bumps and mutated-vertex
    /// version bumps land here, whether dropped lazily at lookup or
    /// reaped by the admission sweep.
    pub evictions_stale: u64,
    /// Evictions where an admission found `v` already cached under a
    /// *different* epoch tag and replaced it (the re-promotion race
    /// across an epoch change; same-epoch races keep the first copy and
    /// count nothing).
    pub evictions_replaced: u64,
    /// Promotions refused by the budget (entry too large, or the clock
    /// declined to evict hotter/bigger entries for it).
    pub admission_rejects: u64,
    /// Bytes currently charged against the budget (gauge).
    pub bytes: u64,
    /// The configured byte budget.
    pub budget: u64,
    /// Entries currently cached.
    pub entries: u64,
}

impl CacheSnapshot {
    /// The conservation identities every consistent snapshot satisfies:
    /// `lookups == hits + misses`, `promotions <= misses`,
    /// `bytes <= budget`, and the eviction split sums to the total.
    pub fn is_conserved(&self) -> bool {
        self.lookups == self.hits + self.misses
            && self.promotions <= self.misses
            && self.bytes <= self.budget
            && self.evictions
                == self.evictions_clock + self.evictions_stale + self.evictions_replaced
    }
}

#[derive(Debug, Default)]
struct Counters {
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    promotions: AtomicU64,
    evictions: AtomicU64,
    evictions_clock: AtomicU64,
    evictions_stale: AtomicU64,
    evictions_replaced: AtomicU64,
    admission_rejects: AtomicU64,
    bytes: AtomicU64,
}

#[derive(Debug)]
struct Entry {
    vertex: VertexId,
    ctps: Ctps,
    selectable: u32,
    degree: u32,
    epoch: u64,
    referenced: bool,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<VertexId, usize>,
    slots: Vec<Option<Entry>>,
    free: Vec<usize>,
    hand: usize,
}

/// A byte-budgeted, lock-striped, lazily-populated cache of per-vertex
/// CTPS tables for static-edge-bias algorithms. Shared by reference
/// across the instances (and rayon workers) of a launch; see the module
/// docs for the bit-identical-output invariant.
#[derive(Debug)]
pub struct CtpsCache {
    shards: Vec<Mutex<Shard>>,
    budget: usize,
    counters: Counters,
}

/// Default stripe count: enough to keep engine workers from serializing
/// on one lock, deterministic (vertex id modulo) so behavior never
/// depends on thread timing for *placement* (only hit/miss timing is
/// racy, which affects cost accounting alone, never sampled output).
const DEFAULT_SHARDS: usize = 16;

impl CtpsCache {
    /// A cache with a `budget`-byte budget behind the default stripe
    /// count.
    pub fn new(budget: usize) -> Self {
        Self::with_shards(budget, DEFAULT_SHARDS)
    }

    /// A cache with one cache-wide `budget`-byte budget behind `shards`
    /// lock stripes. Stripes are locks only: any stripe may hold any share
    /// of the budget, so a skewed placement (hubs with low-order zero
    /// bits) never turns a table away while the cache has room.
    pub fn with_shards(budget: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        CtpsCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            budget,
            counters: Counters::default(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn stripe(&self, v: VertexId) -> usize {
        v as usize % self.shards.len()
    }

    fn shard_of(&self, v: VertexId) -> &Mutex<Shard> {
        &self.shards[self.stripe(v)]
    }

    /// Hints the host memory system to pull vertex `v`'s shard header
    /// toward the core — the depth-synchronous driver issues this a
    /// configurable distance ahead of a group's expansion, alongside the
    /// CSR row prefetch. Purely a wall-clock hint: no lock is taken, no
    /// counter moves, and non-x86 hosts compile it to nothing.
    pub fn prefetch_shard(&self, v: VertexId) {
        #[cfg(target_arch = "x86_64")]
        {
            let shard = self.shard_of(v);
            // SAFETY: the reference is live; _mm_prefetch only populates
            // caches and never faults.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    shard as *const Mutex<Shard> as *const i8,
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = v;
    }

    /// Drops slot `i` of a locked stripe, counting the eviction under
    /// `kind` and returning its bytes to the budget.
    fn evict(&self, shard: &mut Shard, i: usize, kind: &AtomicU64) {
        let e = shard.slots[i].take().expect("evicting an occupied slot");
        shard.map.remove(&e.vertex);
        shard.free.push(i);
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        kind.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes.fetch_sub(entry_bytes(e.ctps.len()) as u64, Ordering::Relaxed);
    }

    /// Runs `f` over vertex `v`'s cached CTPS (plus its selectable count)
    /// at residency `epoch`, *under the stripe lock* — the ITS hit draws
    /// its picks off the borrowed bounds in place, an O(log d) search per
    /// pick with no O(degree) copy-out. A hit sets the entry's clock
    /// reference bit. Returns `None` on a miss (absent, or stale-epoch —
    /// dropped and counted as an eviction). Charges nothing; callers
    /// charge their cost model.
    pub fn with_ctps_entry<R>(
        &self,
        v: VertexId,
        epoch: u64,
        f: impl FnOnce(&Ctps, u32) -> R,
    ) -> Option<R> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_of(v).lock().unwrap();
        if let Some(&slot) = shard.map.get(&v) {
            let e = shard.slots[slot].as_mut().expect("mapped slot occupied");
            if e.epoch == epoch {
                e.referenced = true;
                let out = f(&e.ctps, e.selectable);
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Some(out);
            }
            self.evict(&mut shard, slot, &self.counters.evictions_stale);
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The copy-out accessor: looks up vertex `v`'s CTPS at residency
    /// `epoch` like [`CtpsCache::with_ctps_entry`] and, on a hit, copies
    /// the cached bounds into `dst` (allocation-free once `dst`'s capacity
    /// is warm). The sampling kernel draws in place instead; this serves
    /// callers that need an owned table.
    pub fn lookup_into(&self, v: VertexId, epoch: u64, dst: &mut Ctps) -> CacheOutcome {
        self.with_ctps_entry(v, epoch, |ctps, selectable| {
            dst.assign(ctps);
            CacheOutcome::Hit { selectable, degree: ctps.len() as u32 }
        })
        .unwrap_or(CacheOutcome::Miss)
    }

    /// Reserves `needed` bytes of the cache-wide budget if they fit. The
    /// compare-and-swap keeps `bytes <= budget` under concurrent
    /// admissions.
    fn reserve(&self, needed: usize) -> bool {
        self.counters
            .bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                (b + needed as u64 <= self.budget as u64).then_some(b + needed as u64)
            })
            .is_ok()
    }

    /// True when `needed` more bytes would overrun the budget.
    fn over_budget(&self, needed: usize) -> bool {
        self.counters.bytes.load(Ordering::Relaxed) + needed as u64 > self.budget as u64
    }

    /// One stripe's turn of the degree-aware clock for an incomer of
    /// `degree` at `epoch`: at most two full revolutions, stopping as soon
    /// as `needed` bytes fit the cache-wide budget. Entries whose tag
    /// differs from the incomer's go first — under uniform epochs
    /// (residency bumps) they are genuinely stale; under per-vertex
    /// version tags this is a heuristic (a differently-versioned neighbor
    /// may still be valid), but evicting a valid entry is always safe and
    /// sweep pressure only exists over budget.
    fn sweep(&self, shard: &mut Shard, epoch: u64, degree: u32, needed: usize) {
        let len = shard.slots.len();
        let mut probes = 0usize;
        while self.over_budget(needed) && probes < 2 * len {
            let i = shard.hand;
            shard.hand = (shard.hand + 1) % len;
            probes += 1;
            let Some(e) = shard.slots[i].as_mut() else { continue };
            if e.epoch != epoch {
                self.evict(shard, i, &self.counters.evictions_stale);
            } else if e.referenced {
                e.referenced = false;
            } else if e.degree <= degree {
                self.evict(shard, i, &self.counters.evictions_clock);
            }
        }
    }

    /// Offers vertex `v`'s freshly built CTPS, built from `biases`, for
    /// admission at residency `epoch`: normalizes `ctps` in place (it is
    /// left normalized), then refuses it without counting anything when no
    /// bias is positive or [`widths_agree`] fails, and otherwise
    /// [`CtpsCache::promote`]s it with its selectable count. Returns
    /// whether the entry was admitted.
    pub fn admit(&self, v: VertexId, epoch: u64, ctps: &mut Ctps, biases: &[f64]) -> bool {
        ctps.normalize();
        let selectable = biases.iter().filter(|&&b| b > 0.0).count();
        selectable > 0
            && widths_agree(ctps, biases)
            && self.promote(v, epoch, ctps, selectable as u32, biases.len() as u32)
    }

    /// Offers vertex `v`'s freshly built CTPS for admission at residency
    /// `epoch`; what is stored is a normalized copy. Within the budget it
    /// is stored outright; over it, the degree-aware clock makes room:
    /// stale-epoch entries go first,
    /// reference bits grant one round of grace, and an unreferenced entry
    /// is only displaced by an incomer of equal or higher degree — hubs
    /// stick, leaves churn. Refusal (entry larger than the whole budget,
    /// or the cache-wide sweep could not make room) counts an admission
    /// reject and is not an error; the caller already has its built CTPS.
    /// Returns whether the entry was admitted.
    ///
    /// The clock sweeps `v`'s own stripe first, then every other stripe
    /// in order. Holding one stripe lock it only ever *tries* another, so
    /// two admissions never wait on each other; a stripe busy elsewhere
    /// is skipped. Single-threaded, every try succeeds and the sweep
    /// order is fixed, so counts repeat exactly.
    ///
    /// Callers must have verified [`widths_agree`] against the raw biases
    /// and pass `selectable` consistent with it; [`CtpsCache::admit`] does
    /// both.
    pub fn promote(
        &self,
        v: VertexId,
        epoch: u64,
        ctps: &Ctps,
        selectable: u32,
        degree: u32,
    ) -> bool {
        debug_assert_eq!(ctps.len(), degree as usize);
        debug_assert!(selectable as usize <= ctps.len());
        let needed = entry_bytes(ctps.len());
        if ctps.is_empty() || needed > self.budget {
            self.counters.admission_rejects.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let own = self.stripe(v);
        let mut shard = self.shards[own].lock().unwrap();
        if let Some(&slot) = shard.map.get(&v) {
            let same = shard.slots[slot].as_ref().expect("mapped slot occupied").epoch == epoch;
            if same {
                // Another worker promoted `v` between our miss and now; the
                // cached copy is identical (static bias), keep it.
                return false;
            }
            // The resident copy was built under a different tag (residency
            // or mutation-version change): replace it with the incoming
            // entry, which was built against the current adjacency.
            self.evict(&mut shard, slot, &self.counters.evictions_replaced);
        }

        let mut reserved = self.reserve(needed);
        if !reserved {
            self.sweep(&mut shard, epoch, degree, needed);
            reserved = self.reserve(needed);
        }
        let stripes = self.shards.len();
        for other in (1..stripes).map(|d| (own + d) % stripes) {
            if reserved {
                break;
            }
            if let Ok(mut peer) = self.shards[other].try_lock() {
                self.sweep(&mut peer, epoch, degree, needed);
            }
            reserved = self.reserve(needed);
        }
        if !reserved {
            self.counters.admission_rejects.fetch_add(1, Ordering::Relaxed);
            return false;
        }

        let mut stored = Ctps::empty();
        stored.assign(ctps);
        stored.normalize();
        let entry = Entry { vertex: v, ctps: stored, selectable, degree, epoch, referenced: false };
        let slot = match shard.free.pop() {
            Some(i) => {
                shard.slots[i] = Some(entry);
                i
            }
            None => {
                shard.slots.push(Some(entry));
                shard.slots.len() - 1
            }
        };
        shard.map.insert(v, slot);
        self.counters.promotions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Entries currently cached (locks every stripe in turn).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent-enough snapshot of the counters (individually atomic;
    /// `entries` locks every stripe in turn).
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            lookups: self.counters.lookups.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            promotions: self.counters.promotions.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            evictions_clock: self.counters.evictions_clock.load(Ordering::Relaxed),
            evictions_stale: self.counters.evictions_stale.load(Ordering::Relaxed),
            evictions_replaced: self.counters.evictions_replaced.load(Ordering::Relaxed),
            admission_rejects: self.counters.admission_rejects.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            budget: self.budget as u64,
            entries: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::BiasedRandomWalk;
    use csaw_graph::generators::{rmat, toy_graph, RmatParams};

    fn built(g: &csaw_graph::Csr, v: VertexId) -> (Ctps, usize) {
        let algo = BiasedRandomWalk { length: 1 };
        let mut biases = Vec::new();
        let mut ctps = Ctps::empty();
        let mut s = SimStats::new();
        assert!(build_vertex_ctps(g.view(), &algo, v, &mut biases, &mut ctps, &mut s));
        let selectable = biases.iter().filter(|&&b| b > 0.0).count();
        assert!(widths_agree(&ctps, &biases));
        (ctps, selectable)
    }

    #[test]
    fn miss_then_promote_then_hit() {
        let g = toy_graph();
        let cache = CtpsCache::new(1 << 20);
        let mut dst = Ctps::empty();
        assert_eq!(cache.lookup_into(8, 0, &mut dst), CacheOutcome::Miss);
        let (ctps, selectable) = built(&g, 8);
        assert!(cache.promote(8, 0, &ctps, selectable as u32, ctps.len() as u32));
        match cache.lookup_into(8, 0, &mut dst) {
            CacheOutcome::Hit { selectable: s, degree } => {
                assert_eq!(s as usize, selectable);
                assert_eq!(degree as usize, ctps.len());
                let mut normalized = ctps.clone();
                normalized.normalize();
                assert_ne!(dst, ctps, "the cache stores the normalized table");
                assert_eq!(dst, normalized, "hit must hand back identical bounds");
            }
            CacheOutcome::Miss => panic!("expected hit"),
        }
        let snap = cache.snapshot();
        assert_eq!(snap.lookups, 2);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.promotions, 1);
        assert_eq!(snap.entries, 1);
        assert_eq!(snap.bytes as usize, entry_bytes(ctps.len()));
        assert!(snap.is_conserved());
    }

    #[test]
    fn stale_epoch_drops_entry() {
        let g = toy_graph();
        let cache = CtpsCache::new(1 << 20);
        let (ctps, selectable) = built(&g, 8);
        assert!(cache.promote(8, 0, &ctps, selectable as u32, ctps.len() as u32));
        let mut dst = Ctps::empty();
        // Epoch moved on: the entry is dropped and reported as a miss.
        assert_eq!(cache.lookup_into(8, 1, &mut dst), CacheOutcome::Miss);
        let snap = cache.snapshot();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.entries, 0);
        assert_eq!(snap.bytes, 0);
        assert!(snap.is_conserved());
        // Re-promotion at the new epoch hits again.
        assert!(cache.promote(8, 1, &ctps, selectable as u32, ctps.len() as u32));
        assert!(matches!(cache.lookup_into(8, 1, &mut dst), CacheOutcome::Hit { .. }));
    }

    #[test]
    fn budget_is_never_exceeded_and_hubs_stick() {
        let g = rmat(8, 8, RmatParams::MILD, 7);
        // One shard so the clock actually contends; tight budget.
        let budget = 4 * 1024;
        let cache = CtpsCache::with_shards(budget, 1);
        let mut order: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        // Promote in degree order, leaves last, then hubs again.
        order.sort_by_key(|&v| g.degree(v));
        let hub = *order.last().unwrap();
        for pass in 0..3 {
            for &v in &order {
                if g.degree(v) == 0 {
                    continue;
                }
                let (ctps, selectable) = built(&g, v);
                let mut dst = Ctps::empty();
                if cache.lookup_into(v, 0, &mut dst) == CacheOutcome::Miss {
                    cache.promote(v, 0, &ctps, selectable as u32, ctps.len() as u32);
                }
                let snap = cache.snapshot();
                assert!(snap.bytes <= snap.budget, "budget violated at pass {pass} v {v}");
                assert!(snap.is_conserved());
            }
        }
        // The hub, touched every pass, must still be resident.
        let mut dst = Ctps::empty();
        assert!(
            matches!(cache.lookup_into(hub, 0, &mut dst), CacheOutcome::Hit { .. }),
            "hub should have stuck under clock pressure"
        );
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let g = toy_graph();
        let (ctps, selectable) = built(&g, 8);
        let needed = entry_bytes(ctps.len());
        // One byte short of the entry: refused outright.
        let cache = CtpsCache::new(needed - 1);
        assert!(!cache.promote(8, 0, &ctps, selectable as u32, ctps.len() as u32));
        let snap = cache.snapshot();
        assert_eq!(snap.admission_rejects, 1);
        assert_eq!(snap.entries, 0);
        // Exactly the entry: admitted, though it is far more than one
        // stripe's sixteenth of the budget.
        let cache = CtpsCache::new(needed);
        assert!(cache.promote(8, 0, &ctps, selectable as u32, ctps.len() as u32));
        assert_eq!(cache.snapshot().bytes as usize, needed);
    }

    #[test]
    fn one_stripe_may_hold_the_whole_budget() {
        // Every vertex a multiple of 16 lands in stripe 0 of a 16-stripe
        // cache. Their tables total under the budget but far over a
        // sixteenth of it: all of them must be admitted, nothing evicted.
        let g = rmat(8, 8, RmatParams::GRAPH500, 5);
        let stripe0: Vec<VertexId> =
            (0..g.num_vertices() as VertexId).step_by(16).filter(|&v| g.degree(v) > 0).collect();
        let tables: Vec<_> = stripe0.iter().map(|&v| (v, built(&g, v))).collect();
        let total: usize = tables.iter().map(|(_, (c, _))| entry_bytes(c.len())).sum();
        let budget = total + total / 8;
        assert!(total > budget / 16, "the stripe must overflow a sixteenth slice");
        let cache = CtpsCache::with_shards(budget, 16);
        let mut dst = Ctps::empty();
        for (v, (ctps, selectable)) in &tables {
            assert_eq!(cache.lookup_into(*v, 0, &mut dst), CacheOutcome::Miss);
            assert!(cache.promote(*v, 0, ctps, *selectable as u32, ctps.len() as u32), "v{v}");
        }
        let snap = cache.snapshot();
        assert_eq!((snap.admission_rejects, snap.evictions), (0, 0), "{snap:?}");
        assert_eq!(snap.entries as usize, tables.len());
        assert_eq!(snap.bytes as usize, total);
        assert!(snap.is_conserved());
    }

    #[test]
    fn full_stripe_evicts_from_its_peers() {
        // Fill stripe 1 to the budget, then admit into stripe 0: the sweep
        // must reach into stripe 1 to make room.
        let g = rmat(8, 8, RmatParams::GRAPH500, 5);
        let n = g.num_vertices() as VertexId;
        let (hub, (hub_ctps, hub_sel)) = (0..n)
            .step_by(2)
            .map(|v| (v, g.degree(v)))
            .max_by_key(|&(_, d)| d)
            .map(|(v, _)| (v, built(&g, v)))
            .unwrap();
        // Odd (stripe 1) vertices no bigger than the hub, until their
        // tables alone could hold the hub's.
        let (mut leaves, mut budget) = (Vec::new(), 0);
        for v in (1..n).step_by(2).filter(|&v| (1..=hub_ctps.len()).contains(&g.degree(v))) {
            if budget >= entry_bytes(hub_ctps.len()) {
                break;
            }
            leaves.push(v);
            budget += entry_bytes(g.degree(v));
        }
        assert!(entry_bytes(hub_ctps.len()) <= budget);
        let cache = CtpsCache::with_shards(budget, 2);
        let mut dst = Ctps::empty();
        for &v in &leaves {
            let (c, sel) = built(&g, v);
            assert_eq!(cache.lookup_into(v, 0, &mut dst), CacheOutcome::Miss);
            assert!(cache.promote(v, 0, &c, sel as u32, c.len() as u32));
        }
        assert_eq!(cache.lookup_into(hub, 0, &mut dst), CacheOutcome::Miss);
        assert!(cache.promote(hub, 0, &hub_ctps, hub_sel as u32, hub_ctps.len() as u32));
        let snap = cache.snapshot();
        assert!(snap.evictions_clock > 0, "{snap:?}");
        assert_eq!(snap.admission_rejects, 0);
        assert!(snap.is_conserved(), "{snap:?}");
    }

    #[test]
    fn concurrent_hammer_keeps_the_budget() {
        let g = rmat(9, 8, RmatParams::GRAPH500, 9);
        let tables: Vec<_> = (0..g.num_vertices() as VertexId)
            .filter(|&v| g.degree(v) > 0)
            .map(|v| (v, built(&g, v)))
            .collect();
        let cache = CtpsCache::new(8 * 1024);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (cache, tables) = (&cache, &tables);
                s.spawn(move || {
                    let mut dst = Ctps::empty();
                    for round in 0..3 {
                        for (i, (v, (ctps, sel))) in tables.iter().enumerate() {
                            if (i + t + round) % 3 == 0 {
                                continue;
                            }
                            let epoch = (round == 2 && i % 5 == t) as u64;
                            if cache.lookup_into(*v, epoch, &mut dst) == CacheOutcome::Miss {
                                cache.promote(*v, epoch, ctps, *sel as u32, ctps.len() as u32);
                            }
                            let snap = cache.snapshot();
                            assert!(snap.bytes <= snap.budget, "{snap:?}");
                        }
                    }
                });
            }
        });
        let snap = cache.snapshot();
        assert!(snap.is_conserved(), "{snap:?}");
        assert!(snap.hits > 0 && snap.evictions > 0, "{snap:?}");
    }

    #[test]
    fn double_promote_keeps_first() {
        let g = toy_graph();
        let cache = CtpsCache::new(1 << 20);
        let (ctps, selectable) = built(&g, 8);
        assert!(cache.promote(8, 0, &ctps, selectable as u32, ctps.len() as u32));
        assert!(!cache.promote(8, 0, &ctps, selectable as u32, ctps.len() as u32));
        assert_eq!(cache.snapshot().promotions, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_split_attributes_every_removal() {
        let g = toy_graph();
        let cache = CtpsCache::new(1 << 20);
        let (ctps, selectable) = built(&g, 8);
        let mut dst = Ctps::empty();

        // Stale: cached at epoch 0, looked up at epoch 1.
        assert_eq!(cache.lookup_into(8, 0, &mut dst), CacheOutcome::Miss);
        assert!(cache.promote(8, 0, &ctps, selectable as u32, ctps.len() as u32));
        assert_eq!(cache.lookup_into(8, 1, &mut dst), CacheOutcome::Miss);
        let snap = cache.snapshot();
        assert_eq!(snap.evictions_stale, 1);
        assert_eq!((snap.evictions_clock, snap.evictions_replaced), (0, 0));
        assert_eq!(snap.evictions, 1);
        assert!(snap.is_conserved());

        // Replaced: a re-promotion under a *newer* epoch evicts the old
        // tag in place; a same-epoch re-promotion still counts nothing.
        // (The vertex-3 miss keeps `promotions <= misses` honest without
        // touching vertex 8's resident entry.)
        assert!(cache.promote(8, 1, &ctps, selectable as u32, ctps.len() as u32));
        assert!(!cache.promote(8, 1, &ctps, selectable as u32, ctps.len() as u32));
        assert_eq!(cache.lookup_into(3, 1, &mut dst), CacheOutcome::Miss);
        assert!(cache.promote(8, 2, &ctps, selectable as u32, ctps.len() as u32));
        let snap = cache.snapshot();
        assert_eq!(snap.evictions_replaced, 1);
        assert_eq!(snap.evictions_stale, 1);
        assert_eq!(snap.entries, 1);
        assert!(snap.is_conserved());

        // Clock: a single-shard cache under budget pressure sweeps
        // same-epoch entries out by degree.
        let big = rmat(8, 8, RmatParams::MILD, 7);
        let tight = CtpsCache::with_shards(4 * 1024, 1);
        for v in 0..big.num_vertices() as VertexId {
            if big.degree(v) == 0 {
                continue;
            }
            let algo = BiasedRandomWalk { length: 1 };
            let mut biases = Vec::new();
            let mut c = Ctps::empty();
            let mut s = SimStats::new();
            if build_vertex_ctps(big.view(), &algo, v, &mut biases, &mut c, &mut s) {
                let sel = biases.iter().filter(|&&b| b > 0.0).count() as u32;
                if tight.lookup_into(v, 0, &mut dst) == CacheOutcome::Miss {
                    tight.promote(v, 0, &c, sel, c.len() as u32);
                }
            }
        }
        let snap = tight.snapshot();
        assert!(snap.evictions_clock > 0, "tight budget never swept: {snap:?}");
        assert_eq!((snap.evictions_stale, snap.evictions_replaced), (0, 0));
        assert!(snap.is_conserved());
    }

    #[test]
    fn widths_agree_detects_mismatch() {
        let mut s = SimStats::new();
        let ctps = Ctps::build(&[1.0, 0.0, 2.0], &mut s).unwrap();
        assert!(widths_agree(&ctps, &[1.0, 0.0, 2.0]));
        assert!(!widths_agree(&ctps, &[1.0, 1.0, 2.0]));
        assert!(!widths_agree(&ctps, &[1.0, 0.0]));
    }

    #[test]
    fn admit_normalizes_once_and_refuses_absorbed_biases() {
        let cache = CtpsCache::new(1 << 20);
        // 1e-17 vanishes into the running sum: a positive bias whose
        // region has zero width. Refused before the budget sees it.
        let absorbed = [1.0, 1e-17, 1.0];
        let mut ctps = Ctps::build(&absorbed, &mut SimStats::new()).unwrap();
        assert_eq!(ctps.probability(1), 0.0);
        assert!(!cache.admit(3, 0, &mut ctps, &absorbed));
        let snap = cache.snapshot();
        assert_eq!((snap.entries, snap.promotions, snap.admission_rejects), (0, 0, 0));
        // All-zero lanes are refused the same way.
        assert!(!cache.admit(4, 0, &mut Ctps::empty(), &[0.0, 0.0]));

        let biases = [3.0, 0.0, 6.0, 2.0];
        let raw = Ctps::build(&biases, &mut SimStats::new()).unwrap();
        let mut ctps = raw.clone();
        assert!(cache.admit(5, 0, &mut ctps, &biases));
        let mut normalized = raw.clone();
        normalized.normalize();
        assert_eq!(ctps, normalized, "admit leaves the caller's table normalized");
        let mut dst = Ctps::empty();
        assert_eq!(
            cache.lookup_into(5, 0, &mut dst),
            CacheOutcome::Hit { selectable: 3, degree: 4 }
        );
        assert_eq!(dst, normalized);
        for k in 0..biases.len() {
            assert_eq!(dst.bound(k).to_bits(), raw.bound(k).to_bits(), "k={k}");
        }
    }

    #[test]
    fn build_vertex_ctps_matches_precompute_shape() {
        // v8 of the toy graph under degree bias: the Fig. 1b bounds.
        let g = toy_graph();
        let (ctps, _) = built(&g, 8);
        assert!((ctps.bound(0) - 0.2).abs() < 1e-12);
        assert!((ctps.bound(1) - 0.6).abs() < 1e-12);
        // Zero-degree vertex: build fails, nothing cached.
        let chain = csaw_graph::CsrBuilder::new().add_edge(0, 1).build();
        let algo = BiasedRandomWalk { length: 1 };
        let mut biases = Vec::new();
        let mut ctps = Ctps::empty();
        let mut s = SimStats::new();
        assert!(!build_vertex_ctps(chain.view(), &algo, 1, &mut biases, &mut ctps, &mut s));
    }
}
