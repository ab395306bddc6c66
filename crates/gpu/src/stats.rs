//! Work counters for the simulated device, and the ledgers that charge
//! them.
//!
//! Every quantity the paper's evaluation reports is a *ratio of counted
//! work* (iterations per selection, searches, transfers, kernel-time
//! imbalance). The samplers accumulate these counters per warp — no shared
//! atomics on the hot path — and the executor merges them.
//!
//! The counters come in two kinds, marked in the one table that declares
//! them ([`SimStats`]). *Model* counters are the V100 cost model's
//! charges (warp cycles, scan steps, search probes, global-memory traffic,
//! atomics): only [`crate::cost`], the paper's figures and the
//! out-of-memory and multi-GPU timing read them. *Operational* counters
//! count what a run did (selections, RNG draws, cache and disk traffic,
//! frontier groups); the benchmark and the service read those. A kernel
//! charges through a [`Ledger`]: [`SimStats`] keeps both kinds, and
//! [`ServeLedger`] keeps the operational ones and compiles every model
//! charge away.

use serde::{Deserialize, Serialize};

/// Cycles charged per dependent global-memory gather: a ~500-cycle HBM
/// round trip divided by the ~8 resident warps per SM that can hide each
/// other's stalls. This is the term that keeps low-degree graphs from
/// looking implausibly free on the simulated device.
pub const GATHER_LATENCY_CYCLES: u64 = 64;

/// One counter cell: a `u64`, or a histogram's `[u64; N]` buckets, added
/// field-wise by [`SimStats::merge`].
trait Cell {
    fn add(&mut self, other: &Self);
}

impl Cell for u64 {
    #[inline]
    fn add(&mut self, other: &Self) {
        *self += *other;
    }
}

impl<const N: usize> Cell for [u64; N] {
    #[inline]
    fn add(&mut self, other: &Self) {
        for (dst, src) in self.iter_mut().zip(other) {
            *dst += *src;
        }
    }
}

/// A row's value in the operational copy: kept, or zeroed for a model row.
macro_rules! operational {
    (model $v:expr) => {
        Default::default()
    };
    (op $v:expr) => {
        $v
    };
}

/// Generates [`SimStats`], its `merge` and its model/operational split
/// from one table. A row reads `kind field: type;`, `kind` being `model`
/// or `op` (see the module docs). An operational counter is one row; a
/// model counter also needs its charge on [`Ledger`].
macro_rules! counters {
    ($( $(#[$doc:meta])* $kind:ident $field:ident : $t:ty; )*) => {
        /// Additive counters accumulated while simulating kernels.
        #[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq, Eq)]
        pub struct SimStats {
            $( $(#[$doc])* pub $field: $t, )*
        }

        impl SimStats {
            /// Adds `other` into `self` field-wise.
            pub fn merge(&mut self, other: &SimStats) {
                $( Cell::add(&mut self.$field, &other.$field); )*
            }

            /// This ledger with every model counter zeroed: exactly what a
            /// [`ServeLedger`] run of the same work keeps.
            pub fn operational(&self) -> SimStats {
                SimStats { $( $field: operational!($kind self.$field), )* }
            }
        }
    };
}

counters! {
    /// Simulated warp compute cycles (lockstep steps weighted by cost).
    model warp_cycles: u64;
    /// Kogge-Stone scan lockstep steps.
    model scan_steps: u64;
    /// Binary-search probe steps over the CTPS.
    model search_steps: u64;
    /// Trips of the SELECT do-while loop (Fig. 5 lines 10–14). The paper's
    /// Fig. 11 metric is `select_iterations / selections`.
    op select_iterations: u64;
    /// Vertices successfully selected.
    op selections: u64;
    /// Collision-detection probes: bitmap bit tests or linear-search
    /// comparisons, depending on the detector (Fig. 12's numerator and
    /// denominator).
    op collision_searches: u64;
    /// Atomic operations issued (CAS/add on bitmap words).
    model atomic_ops: u64;
    /// Atomic operations serialized behind another lane's access to the
    /// same word within one lockstep round.
    model atomic_conflicts: u64;
    /// Random numbers drawn.
    op rng_draws: u64;
    /// Bytes read from simulated global memory (neighbor lists, CTPS).
    model gmem_bytes: u64;
    /// Coalesced 128-byte global memory transactions.
    model gmem_transactions: u64;
    /// Edges appended to the sample output.
    op sampled_edges: u64;
    /// Frontier queue pushes/pops.
    op frontier_ops: u64;
    /// Static-bias expansions served from a hot-vertex CTPS cache hit
    /// (the CTPS bounds were reused instead of rebuilt).
    op ctps_cache_hits: u64;
    /// Static-bias expansions that missed the CTPS cache and rebuilt.
    op ctps_cache_misses: u64;
    /// Expansions the adaptive method chooser sent to inverse transform
    /// sampling. `method_its + method_rejection` counts exactly the
    /// expansions where the chooser ran (dynamic-bias, per-vertex, with
    /// replacement, under `Adaptive`); the `ForceIts` policy leaves both
    /// at zero.
    op method_its: u64;
    /// Adaptive expansions served by bounded rejection (dartboard) trials.
    op method_rejection: u64;
    /// Total rejection throws across `method_rejection` expansions
    /// (accepted + rejected); trials / accepts is the live skew signal the
    /// chooser feeds back on.
    op rejection_trials: u64;
    /// Decoded-run pool lookups by the disk tier (one per adjacency gather
    /// or point read through a `DiskAccess`; zero unless a run is
    /// disk-backed).
    op disk_pool_lookups: u64;
    /// Disk-tier lookups served by an already-decoded resident vertex run.
    op disk_pool_hits: u64;
    /// Disk-tier lookups that no resident run served: decoded, or read in
    /// place (`disk_pool_lookups == disk_pool_hits + disk_pool_misses`).
    op disk_pool_misses: u64;
    /// Decoded vertex runs evicted from the pool by the clock sweep.
    op disk_pool_evictions: u64;
    /// RAM bytes produced by disk-tier decodes (each decoding miss
    /// decodes one vertex's run; a point read decodes nothing).
    op disk_decode_bytes: u64;
    /// Simulated 4 KiB page faults charged for reading mapped segments
    /// during decodes and point reads.
    op disk_mmap_faults: u64;
    /// Vertex-groups formed by the depth-synchronous frontier (one group
    /// per distinct current vertex per depth per chunk; zero under
    /// instance-major execution).
    op batch_groups: u64;
    /// Frontier entries that passed through vertex-grouped expansion
    /// (`batch_group_entries / batch_groups` is the mean co-location
    /// factor — the number of walkers that shared one gather).
    op batch_group_entries: u64;
    /// Log2-bucketed histogram of vertex-group sizes: bucket `i` counts
    /// groups with `2^i <= size < 2^(i+1)`; the last bucket absorbs the
    /// tail (`size >= 128`).
    op batch_group_hist: [u64; 8];
    /// Vertex-groups whose CSR row was software-prefetched far enough
    /// ahead to be resident when the group expanded (coverage model: every
    /// group beyond the prefetch distance in its depth counts as a hit).
    op batch_prefetch_hits: u64;
    /// Vertex-groups expanded before the prefetch pipeline warmed up (the
    /// first `prefetch_distance` groups of each depth).
    op batch_prefetch_misses: u64;
}

impl SimStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one vertex-group of `size` co-located frontier entries in
    /// the group counters and the log2 size histogram.
    pub fn record_batch_group(&mut self, size: usize) {
        self.batch_groups += 1;
        self.batch_group_entries += size as u64;
        let bucket = (usize::BITS - 1 - size.max(1).leading_zeros()).min(7) as usize;
        self.batch_group_hist[bucket] += 1;
    }

    /// Merge that consumes the right-hand side (for fold/reduce).
    pub fn merged(mut self, other: SimStats) -> Self {
        self.merge(&other);
        self
    }

    /// Average SELECT iterations per successful selection — the Fig. 11
    /// metric ("Total # iterations of sampled vertices / # sampled
    /// vertices").
    pub fn iterations_per_selection(&self) -> f64 {
        if self.selections == 0 {
            0.0
        } else {
            self.select_iterations as f64 / self.selections as f64
        }
    }

    /// Fraction of atomic operations that conflicted.
    pub fn atomic_conflict_rate(&self) -> f64 {
        if self.atomic_ops == 0 {
            0.0
        } else {
            self.atomic_conflicts as f64 / self.atomic_ops as f64
        }
    }
}

impl std::ops::Add for SimStats {
    type Output = SimStats;
    fn add(self, rhs: SimStats) -> SimStats {
        self.merged(rhs)
    }
}

impl std::iter::Sum for SimStats {
    fn sum<I: Iterator<Item = SimStats>>(iter: I) -> SimStats {
        iter.fold(SimStats::new(), SimStats::merged)
    }
}

/// Where a kernel's counted work goes. The `charge_*` methods and
/// [`Ledger::read_gmem`] are the V100 cost model's charges, one per model
/// counter family; [`Ledger::ops`] reaches the operational counters,
/// which every ledger keeps. Kernel code that is generic over the ledger
/// charges the model only through these methods and writes only
/// operational fields through `ops()`, so a [`ServeLedger`] run keeps
/// every operational counter of the modeled run and none of the model.
pub trait Ledger: Clone + Default + PartialEq + std::fmt::Debug {
    /// True when the ledger keeps the model counters: code that computes
    /// a charge's input only to charge it can skip the work when false.
    const MODELED: bool;

    /// The counters kept so far (model counters read zero unmodeled).
    fn counters(&self) -> &SimStats;

    /// The operational counters, for the kernel to count into.
    fn ops(&mut self) -> &mut SimStats;

    /// The counters, as a plain [`SimStats`].
    fn into_stats(self) -> SimStats;

    /// Charges `cycles` warp cycles.
    fn charge_cycles(&mut self, cycles: u64);

    /// Charges `steps` Kogge-Stone lockstep steps, a warp cycle each.
    fn charge_scan_steps(&mut self, steps: u64);

    /// Charges what [`crate::warp::inclusive_scan`] charges for `n` lanes
    /// ([`crate::warp::scan_steps`]), without scanning anything.
    fn charge_scan(&mut self, n: usize);

    /// Charges `probes` binary-search probes of the CTPS.
    fn charge_probes(&mut self, probes: u64);

    /// Charges the probes a search over `n` regions makes to reach
    /// insertion point `p` ([`crate::warp::region_search_probes`]).
    fn charge_search(&mut self, n: usize, p: usize);

    /// Records a *dependent* global-memory gather of `bytes` bytes issued
    /// by a warp (e.g. fetching a neighbor list whose address was just
    /// computed), charging 128-byte coalesced transactions plus the
    /// occupancy-adjusted latency of one dependent round trip
    /// ([`GATHER_LATENCY_CYCLES`]). Sampling gathers chain — the next
    /// vertex isn't known until this one resolves — so unlike streaming
    /// loads this latency cannot be fully hidden.
    fn read_gmem(&mut self, bytes: usize);

    /// Charges `ops` atomic operations, `conflicts` of them serialized
    /// behind another lane's access to the same word.
    fn charge_atomics(&mut self, ops: u64, conflicts: u64);
}

/// The modeling ledger: every counter, model ones included — what the
/// paper's figures, the goldens and the out-of-memory runtime read.
impl Ledger for SimStats {
    const MODELED: bool = true;

    #[inline(always)]
    fn counters(&self) -> &SimStats {
        self
    }

    #[inline(always)]
    fn ops(&mut self) -> &mut SimStats {
        self
    }

    #[inline(always)]
    fn into_stats(self) -> SimStats {
        self
    }

    #[inline]
    fn charge_cycles(&mut self, cycles: u64) {
        self.warp_cycles += cycles;
    }

    #[inline]
    fn charge_scan_steps(&mut self, steps: u64) {
        self.scan_steps += steps;
        self.warp_cycles += steps;
    }

    #[inline]
    fn charge_scan(&mut self, n: usize) {
        self.charge_scan_steps(crate::warp::scan_steps(n));
    }

    #[inline]
    fn charge_probes(&mut self, probes: u64) {
        self.search_steps += probes;
        self.warp_cycles += probes * crate::warp::SEARCH_PROBE_CYCLES;
    }

    #[inline]
    fn charge_search(&mut self, n: usize, p: usize) {
        self.charge_probes(crate::warp::region_search_probes(n, p));
    }

    #[inline]
    fn read_gmem(&mut self, bytes: usize) {
        self.gmem_bytes += bytes as u64;
        self.gmem_transactions += bytes.div_ceil(128) as u64;
        self.warp_cycles += GATHER_LATENCY_CYCLES;
    }

    #[inline]
    fn charge_atomics(&mut self, ops: u64, conflicts: u64) {
        self.atomic_ops += ops;
        self.atomic_conflicts += conflicts;
    }
}

/// The serving ledger: the operational counters of a [`SimStats`], with
/// every model charge an empty function, so a served step runs no cost
/// model arithmetic and no data-dependent probe count. Its model counters
/// stay zero ([`SimStats::operational`] of the modeled run's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct ServeLedger(SimStats);

impl Ledger for ServeLedger {
    const MODELED: bool = false;

    #[inline(always)]
    fn counters(&self) -> &SimStats {
        &self.0
    }

    #[inline(always)]
    fn ops(&mut self) -> &mut SimStats {
        &mut self.0
    }

    #[inline(always)]
    fn into_stats(self) -> SimStats {
        self.0
    }

    #[inline(always)]
    fn charge_cycles(&mut self, _cycles: u64) {}

    #[inline(always)]
    fn charge_scan_steps(&mut self, _steps: u64) {}

    #[inline(always)]
    fn charge_scan(&mut self, _n: usize) {}

    #[inline(always)]
    fn charge_probes(&mut self, _probes: u64) {}

    #[inline(always)]
    fn charge_search(&mut self, _n: usize, _p: usize) {}

    #[inline(always)]
    fn read_gmem(&mut self, _bytes: usize) {}

    #[inline(always)]
    fn charge_atomics(&mut self, _ops: u64, _conflicts: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = SimStats { warp_cycles: 3, selections: 1, ..Default::default() };
        let b = SimStats { warp_cycles: 4, select_iterations: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.warp_cycles, 7);
        assert_eq!(a.select_iterations, 7);
        assert_eq!(a.selections, 1);
    }

    #[test]
    fn iterations_per_selection_handles_zero() {
        assert_eq!(SimStats::new().iterations_per_selection(), 0.0);
        let s = SimStats { select_iterations: 10, selections: 4, ..Default::default() };
        assert!((s.iterations_per_selection() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn gmem_transactions_are_coalesced() {
        let mut s = SimStats::new();
        s.read_gmem(1); // 1 byte still costs a transaction
        s.read_gmem(128);
        s.read_gmem(129);
        assert_eq!(s.gmem_transactions, 1 + 1 + 2);
        assert_eq!(s.gmem_bytes, 258);
        assert_eq!(s.warp_cycles, 3 * GATHER_LATENCY_CYCLES, "one round trip per gather");
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            SimStats { selections: 1, ..Default::default() },
            SimStats { selections: 2, ..Default::default() },
        ];
        let total: SimStats = parts.into_iter().sum();
        assert_eq!(total.selections, 3);
    }

    #[test]
    fn batch_group_histogram_buckets_by_log2() {
        let mut s = SimStats::new();
        s.record_batch_group(1); // bucket 0
        s.record_batch_group(2); // bucket 1
        s.record_batch_group(3); // bucket 1
        s.record_batch_group(127); // bucket 6
        s.record_batch_group(128); // bucket 7
        s.record_batch_group(100_000); // clamped to bucket 7
        assert_eq!(s.batch_groups, 6);
        assert_eq!(s.batch_group_entries, 1 + 2 + 3 + 127 + 128 + 100_000);
        assert_eq!(s.batch_group_hist, [1, 2, 0, 0, 0, 0, 1, 2]);
        let mut t = SimStats::new();
        t.record_batch_group(4);
        t.merge(&s);
        assert_eq!(t.batch_group_hist, [1, 2, 1, 0, 0, 0, 1, 2]);
        assert_eq!(t.batch_groups, 7);
    }

    /// Every model charge once, plus one operational count.
    fn charge_everything<L: Ledger>(ledger: &mut L) {
        ledger.charge_cycles(3);
        ledger.charge_scan_steps(2);
        ledger.charge_scan(40);
        ledger.charge_probes(2);
        ledger.charge_search(10, 3);
        ledger.read_gmem(200);
        ledger.charge_atomics(4, 1);
        ledger.ops().rng_draws += 5;
    }

    #[test]
    fn the_table_splits_model_from_operational_counters() {
        let mut modeled = SimStats::new();
        charge_everything(&mut modeled);
        let m = &modeled;
        let model = [
            m.warp_cycles,
            m.scan_steps,
            m.search_steps,
            m.atomic_ops,
            m.atomic_conflicts,
            m.gmem_bytes,
            m.gmem_transactions,
        ];
        assert!(model.iter().all(|&v| v > 0), "{modeled:?}");
        // Zeroing the model rows leaves only the one operational count.
        assert_eq!(modeled.operational(), SimStats { rng_draws: 5, ..SimStats::new() });
        let mut served = ServeLedger::default();
        charge_everything(&mut served);
        assert_eq!(served.into_stats(), modeled.operational());
    }

    #[test]
    fn conflict_rate() {
        let s = SimStats { atomic_ops: 8, atomic_conflicts: 2, ..Default::default() };
        assert!((s.atomic_conflict_rate() - 0.25).abs() < 1e-12);
        assert_eq!(SimStats::new().atomic_conflict_rate(), 0.0);
    }
}
