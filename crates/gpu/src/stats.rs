//! Work counters for the simulated device.
//!
//! Every quantity the paper's evaluation reports is a *ratio of counted
//! work* (iterations per selection, searches, transfers, kernel-time
//! imbalance). The samplers accumulate these counters per warp — no shared
//! atomics on the hot path — and the executor merges them.

use serde::{Deserialize, Serialize};

/// Cycles charged per dependent global-memory gather: a ~500-cycle HBM
/// round trip divided by the ~8 resident warps per SM that can hide each
/// other's stalls. This is the term that keeps low-degree graphs from
/// looking implausibly free on the simulated device.
pub const GATHER_LATENCY_CYCLES: u64 = 64;

/// Additive counters accumulated while simulating kernels.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct SimStats {
    /// Simulated warp compute cycles (lockstep steps weighted by cost).
    pub warp_cycles: u64,
    /// Kogge-Stone scan lockstep steps.
    pub scan_steps: u64,
    /// Binary-search probe steps over the CTPS.
    pub search_steps: u64,
    /// Trips of the SELECT do-while loop (Fig. 5 lines 10–14). The paper's
    /// Fig. 11 metric is `select_iterations / selections`.
    pub select_iterations: u64,
    /// Vertices successfully selected.
    pub selections: u64,
    /// Collision-detection probes: bitmap bit tests or linear-search
    /// comparisons, depending on the detector (Fig. 12's numerator and
    /// denominator).
    pub collision_searches: u64,
    /// Atomic operations issued (CAS/add on bitmap words).
    pub atomic_ops: u64,
    /// Atomic operations serialized behind another lane's access to the
    /// same word within one lockstep round.
    pub atomic_conflicts: u64,
    /// Random numbers drawn.
    pub rng_draws: u64,
    /// Bytes read from simulated global memory (neighbor lists, CTPS).
    pub gmem_bytes: u64,
    /// Coalesced 128-byte global memory transactions.
    pub gmem_transactions: u64,
    /// Edges appended to the sample output.
    pub sampled_edges: u64,
    /// Frontier queue pushes/pops.
    pub frontier_ops: u64,
    /// Static-bias expansions served from a hot-vertex CTPS cache hit
    /// (the CTPS bounds were reused instead of rebuilt).
    pub ctps_cache_hits: u64,
    /// Static-bias expansions that missed the CTPS cache and rebuilt.
    pub ctps_cache_misses: u64,
    /// Expansions served by inverse transform sampling under the adaptive
    /// method chooser (counted only when the chooser ran: the `ForceIts`
    /// policy leaves all four `method_*` counters at zero).
    pub method_its: u64,
    /// Adaptive expansions served by a cached (or freshly built) alias
    /// table.
    pub method_alias: u64,
    /// Adaptive expansions served by bounded rejection (dartboard) trials.
    pub method_rejection: u64,
    /// Adaptive expansions served by the closed-form uniform path.
    pub method_uniform: u64,
    /// Total rejection throws across `method_rejection` expansions
    /// (accepted + rejected); trials / accepts is the live skew signal the
    /// chooser feeds back on.
    pub rejection_trials: u64,
    /// Decoded-run pool lookups by the disk tier (one per adjacency read
    /// through a `DiskAccess`; zero unless a run is disk-backed).
    pub disk_pool_lookups: u64,
    /// Disk-tier lookups served by an already-decoded resident vertex run.
    pub disk_pool_hits: u64,
    /// Disk-tier lookups that decoded a vertex run out of its mapped
    /// segment (`disk_pool_lookups == disk_pool_hits + disk_pool_misses`).
    pub disk_pool_misses: u64,
    /// Decoded vertex runs evicted from the pool by the clock sweep.
    pub disk_pool_evictions: u64,
    /// RAM bytes produced by disk-tier decodes (each miss decodes one
    /// vertex's run).
    pub disk_decode_bytes: u64,
    /// Simulated 4 KiB page faults charged for streaming mapped segments
    /// during decodes.
    pub disk_mmap_faults: u64,
    /// Vertex-groups formed by the depth-synchronous frontier (one group
    /// per distinct current vertex per depth per chunk; zero under
    /// instance-major execution).
    pub batch_groups: u64,
    /// Frontier entries that passed through vertex-grouped expansion
    /// (`batch_group_entries / batch_groups` is the mean co-location
    /// factor — the number of walkers that shared one gather).
    pub batch_group_entries: u64,
    /// Log2-bucketed histogram of vertex-group sizes: bucket `i` counts
    /// groups with `2^i <= size < 2^(i+1)`; the last bucket absorbs the
    /// tail (`size >= 128`).
    pub batch_group_hist: [u64; 8],
    /// Vertex-groups whose CSR row was software-prefetched far enough
    /// ahead to be resident when the group expanded (coverage model: every
    /// group beyond the prefetch distance in its depth counts as a hit).
    pub batch_prefetch_hits: u64,
    /// Vertex-groups expanded before the prefetch pipeline warmed up (the
    /// first `prefetch_distance` groups of each depth).
    pub batch_prefetch_misses: u64,
}

impl SimStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `other` into `self` field-wise.
    pub fn merge(&mut self, other: &SimStats) {
        self.warp_cycles += other.warp_cycles;
        self.scan_steps += other.scan_steps;
        self.search_steps += other.search_steps;
        self.select_iterations += other.select_iterations;
        self.selections += other.selections;
        self.collision_searches += other.collision_searches;
        self.atomic_ops += other.atomic_ops;
        self.atomic_conflicts += other.atomic_conflicts;
        self.rng_draws += other.rng_draws;
        self.gmem_bytes += other.gmem_bytes;
        self.gmem_transactions += other.gmem_transactions;
        self.sampled_edges += other.sampled_edges;
        self.frontier_ops += other.frontier_ops;
        self.ctps_cache_hits += other.ctps_cache_hits;
        self.ctps_cache_misses += other.ctps_cache_misses;
        self.method_its += other.method_its;
        self.method_alias += other.method_alias;
        self.method_rejection += other.method_rejection;
        self.method_uniform += other.method_uniform;
        self.rejection_trials += other.rejection_trials;
        self.disk_pool_lookups += other.disk_pool_lookups;
        self.disk_pool_hits += other.disk_pool_hits;
        self.disk_pool_misses += other.disk_pool_misses;
        self.disk_pool_evictions += other.disk_pool_evictions;
        self.disk_decode_bytes += other.disk_decode_bytes;
        self.disk_mmap_faults += other.disk_mmap_faults;
        self.batch_groups += other.batch_groups;
        self.batch_group_entries += other.batch_group_entries;
        for (dst, src) in self.batch_group_hist.iter_mut().zip(other.batch_group_hist.iter()) {
            *dst += *src;
        }
        self.batch_prefetch_hits += other.batch_prefetch_hits;
        self.batch_prefetch_misses += other.batch_prefetch_misses;
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

    /// Records a *dependent* global-memory gather of `bytes` bytes issued
    /// by a warp (e.g. fetching a neighbor list whose address was just
    /// computed), charging 128-byte coalesced transactions plus the
    /// occupancy-adjusted latency of one dependent round trip
    /// ([`GATHER_LATENCY_CYCLES`]). Sampling gathers chain — the next
    /// vertex isn't known until this one resolves — so unlike streaming
    /// loads this latency cannot be fully hidden.
    pub fn read_gmem(&mut self, bytes: usize) {
        self.gmem_bytes += bytes as u64;
        self.gmem_transactions += bytes.div_ceil(128) as u64;
        self.warp_cycles += GATHER_LATENCY_CYCLES;
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

    #[test]
    fn conflict_rate() {
        let s = SimStats { atomic_ops: 8, atomic_conflicts: 2, ..Default::default() };
        assert!((s.atomic_conflict_rate() - 0.25).abs() < 1e-12);
        assert_eq!(SimStats::new().atomic_conflict_rate(), 0.0);
    }
}
