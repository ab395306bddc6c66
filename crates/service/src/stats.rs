//! Service observability: lock-free counters with a coherent snapshot.
//!
//! The counters encode the service's accounting contract. At any idle
//! point (queue drained, no batch in flight):
//!
//! ```text
//! submitted == accepted + rejected_invalid + rejected_queue_full + rejected_shutdown
//! accepted  == completed + expired + failed
//! mutations_submitted == mutations + mutations_rejected
//! compact_requests    == compactions + compact_noops
//! ```
//!
//! [`StatsSnapshot::fully_accounted`] checks exactly that; the test
//! suite asserts it after every drain. Sampling, mutation, and compact
//! requests are all conservation-checked — a front end that relays the
//! ledger (the `/metrics` endpoint) can prove no request of any kind
//! was silently dropped.
//!
//! Queue-full sheds are additionally split per tenant
//! ([`ServiceStats::tenant_sheds`]): the global `rejected_queue_full`
//! is always the sum of the per-tenant counters (untagged requests
//! charge the empty label).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Upper bounds (inclusive) of the batch-size histogram buckets,
/// measured in sampling instances per coalesced launch. The last
/// bucket is open-ended.
pub const BATCH_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Number of histogram buckets (the [`BATCH_BUCKETS`] bounds plus the
/// open-ended `> 64` bucket).
pub const NUM_BUCKETS: usize = BATCH_BUCKETS.len() + 1;

/// Monotonic counters updated by the admission path and the batcher.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests ever handed to `submit`.
    pub submitted: AtomicU64,
    /// Requests that passed validation and entered the queue.
    pub accepted: AtomicU64,
    /// Requests rejected as malformed.
    pub rejected_invalid: AtomicU64,
    /// Requests shed because the queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Requests refused because the service was shutting down.
    pub rejected_shutdown: AtomicU64,
    /// Accepted requests whose deadline passed before delivery.
    pub expired: AtomicU64,
    /// Accepted requests answered with a response.
    pub completed: AtomicU64,
    /// Accepted requests whose batch panicked.
    pub failed: AtomicU64,
    /// Coalesced launches executed.
    pub batches: AtomicU64,
    /// Current queue depth (gauge, not monotonic).
    pub queue_depth: AtomicU64,
    /// Edges sampled across all launches (batch totals).
    pub sampled_edges: AtomicU64,
    /// Host→device partition transfers across all launches (only the
    /// out-of-memory executor reports these).
    pub transfers: AtomicU64,
    /// Bytes shipped host→device across all launches.
    pub bytes_transferred: AtomicU64,
    /// Batch-size histogram: bucket `i` counts launches whose instance
    /// count is ≤ `BATCH_BUCKETS[i]` (last bucket: larger than all).
    pub batch_hist: [AtomicU64; NUM_BUCKETS],
    /// CTPS-cache lookups across the worker's per-algorithm caches
    /// (worker-lifetime totals, refreshed after every batch).
    pub cache_lookups: AtomicU64,
    /// CTPS-cache lookups served from a cached entry.
    pub cache_hits: AtomicU64,
    /// CTPS-cache lookups that found nothing.
    pub cache_misses: AtomicU64,
    /// CTPS tables promoted into the caches.
    pub cache_promotions: AtomicU64,
    /// CTPS tables evicted from the caches.
    pub cache_evictions: AtomicU64,
    /// Evictions by clock-sweep capacity pressure (gauge, subset of
    /// `cache_evictions`).
    pub cache_evictions_clock: AtomicU64,
    /// Entries dropped because their epoch tag went stale — residency
    /// swaps and graph mutations both land here (gauge, subset of
    /// `cache_evictions`). This is the "epoch-invalidated entries"
    /// gauge for mutable-graph serving.
    pub cache_evictions_stale: AtomicU64,
    /// Entries replaced by a same-vertex promotion under a newer tag
    /// (gauge, subset of `cache_evictions`).
    pub cache_evictions_replaced: AtomicU64,
    /// Bytes currently held by the caches (gauge).
    pub cache_bytes: AtomicU64,
    /// Cache lookups served from a cached *alias table* (gauge, subset
    /// of `cache_hits`; nonzero only under the adaptive method policy).
    pub cache_alias_hits: AtomicU64,
    /// Alias tables promoted into the caches (gauge, subset of
    /// `cache_promotions`).
    pub cache_alias_promotions: AtomicU64,
    /// Expansions served by ITS when the method chooser ran (batch
    /// totals; all four `method_*` counters stay zero under `ForceIts`).
    pub method_its: AtomicU64,
    /// Expansions served from a cached or freshly built alias table.
    pub method_alias: AtomicU64,
    /// Expansions served by bounded rejection sampling.
    pub method_rejection: AtomicU64,
    /// Expansions served by the closed-form uniform path.
    pub method_uniform: AtomicU64,
    /// Total rejection throws across rejection-served expansions.
    pub rejection_trials: AtomicU64,
    /// Vertex-groups formed by depth-synchronous launches (batch totals;
    /// zero while the service executes instance-major).
    pub batch_groups: AtomicU64,
    /// Frontier entries that passed through vertex-grouped expansion
    /// (`batch_group_entries / batch_groups` is the mean co-location
    /// factor across all launches).
    pub batch_group_entries: AtomicU64,
    /// Log2-bucketed vertex-group size histogram (bucket `i`: groups of
    /// `2^i..2^(i+1)` entries, last bucket open-ended) — the per-depth
    /// frontier-occupancy shape, accumulated across launches.
    pub batch_group_hist: [AtomicU64; 8],
    /// Vertex-groups whose CSR row was prefetched far enough ahead to be
    /// resident at expansion (batch totals).
    pub batch_prefetch_hits: AtomicU64,
    /// Vertex-groups expanded before the prefetch pipeline warmed up
    /// (`batch_prefetch_hits + batch_prefetch_misses == batch_groups`).
    pub batch_prefetch_misses: AtomicU64,
    /// Mutation requests ever handed to `mutate` (accepted or not).
    pub mutations_submitted: AtomicU64,
    /// Successful `mutate` calls applied to the service's graph.
    pub mutations: AtomicU64,
    /// Mutation requests rejected with a typed [`csaw_graph::EditError`]
    /// (the batch was rolled back; the graph is unchanged).
    pub mutations_rejected: AtomicU64,
    /// `compact` calls ever made.
    pub compact_requests: AtomicU64,
    /// `compact` calls that folded a non-empty overlay.
    pub compactions: AtomicU64,
    /// `compact` calls that found nothing to fold.
    pub compact_noops: AtomicU64,
    /// Current epoch of the service's mutable graph (gauge).
    pub graph_epoch: AtomicU64,
    /// Vertices currently carrying an uncompacted delta (gauge).
    pub overlay_vertices: AtomicU64,
    /// Disk-tier pool lookups across all worker pools (gauge, refreshed
    /// after every batch of a disk-backed service; zero otherwise).
    pub disk_lookups: AtomicU64,
    /// Disk-tier lookups served by a resident decoded vertex run (gauge,
    /// `disk_lookups == disk_hits + disk_misses`).
    pub disk_hits: AtomicU64,
    /// Disk-tier lookups that decoded a vertex run from its mapped
    /// segment (gauge).
    pub disk_misses: AtomicU64,
    /// Decoded vertex runs evicted by the pools' clock sweeps (gauge,
    /// `disk_evictions <= disk_misses`).
    pub disk_evictions: AtomicU64,
    /// Bytes currently held by decoded vertex runs across all pools
    /// (gauge).
    pub disk_pool_bytes: AtomicU64,
    /// Simulated 4 KiB page faults charged for streaming mapped
    /// segments during decodes (gauge).
    pub disk_mmap_faults: AtomicU64,
    /// RAM bytes produced by disk-tier decodes (gauge).
    pub disk_decode_bytes: AtomicU64,
    /// Decode wall-time histogram: bucket `i` counts decodes that took
    /// ≤ `csaw_core::residency::DECODE_BUCKETS_US[i]` µs (gauge).
    pub disk_decode_hist: [AtomicU64; csaw_core::residency::NUM_DECODE_BUCKETS],
    /// Sum of decode wall times, microseconds (gauge).
    pub disk_decode_sum_us: AtomicU64,
    /// Decodes timed into the histogram (gauge).
    pub disk_decode_count: AtomicU64,
    /// Queue-full sheds split by tenant label (untagged requests charge
    /// the empty label). Off the hot path: touched only when a request
    /// is actually shed.
    tenant_sheds: Mutex<HashMap<String, u64>>,
}

impl ServiceStats {
    /// Bumps a counter by one.
    pub(crate) fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Relaxed);
    }

    /// Bumps a counter by `n`.
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Relaxed);
    }

    /// Records one executed launch of `instances` instances.
    pub(crate) fn record_batch(&self, instances: usize) {
        Self::inc(&self.batches);
        let bucket = BATCH_BUCKETS
            .iter()
            .position(|&b| instances as u64 <= b)
            .unwrap_or(BATCH_BUCKETS.len());
        Self::inc(&self.batch_hist[bucket]);
    }

    /// Publishes the worker's CTPS-cache totals (gauge semantics: the
    /// caches outlive batches, so each publish replaces the last).
    pub(crate) fn record_cache(&self, totals: &csaw_core::ctps_cache::CacheSnapshot) {
        self.cache_lookups.store(totals.lookups, Relaxed);
        self.cache_hits.store(totals.hits, Relaxed);
        self.cache_misses.store(totals.misses, Relaxed);
        self.cache_promotions.store(totals.promotions, Relaxed);
        self.cache_evictions.store(totals.evictions, Relaxed);
        self.cache_evictions_clock.store(totals.evictions_clock, Relaxed);
        self.cache_evictions_stale.store(totals.evictions_stale, Relaxed);
        self.cache_evictions_replaced.store(totals.evictions_replaced, Relaxed);
        self.cache_bytes.store(totals.bytes, Relaxed);
        self.cache_alias_hits.store(totals.alias_hits, Relaxed);
        self.cache_alias_promotions.store(totals.alias_promotions, Relaxed);
    }

    /// Publishes the disk tier's totals (gauge semantics: the tier's
    /// pools outlive batches, so each publish replaces the last).
    pub(crate) fn record_disk(&self, tier: &csaw_core::residency::DiskTierStats) {
        self.disk_lookups.store(tier.lookups.load(Relaxed), Relaxed);
        self.disk_hits.store(tier.hits.load(Relaxed), Relaxed);
        self.disk_misses.store(tier.misses.load(Relaxed), Relaxed);
        self.disk_evictions.store(tier.evictions.load(Relaxed), Relaxed);
        self.disk_pool_bytes.store(tier.pool_bytes.load(Relaxed), Relaxed);
        self.disk_mmap_faults.store(tier.mmap_faults.load(Relaxed), Relaxed);
        self.disk_decode_bytes.store(tier.decode_bytes.load(Relaxed), Relaxed);
        for (dst, src) in self.disk_decode_hist.iter().zip(tier.decode_hist.iter()) {
            dst.store(src.load(Relaxed), Relaxed);
        }
        self.disk_decode_sum_us.store(tier.decode_sum_us.load(Relaxed), Relaxed);
        self.disk_decode_count.store(tier.decode_count.load(Relaxed), Relaxed);
    }

    /// Charges a queue-full shed to `tenant`'s split counter. The caller
    /// bumps the global `rejected_queue_full` separately; this keeps the
    /// invariant `rejected_queue_full == Σ tenant_sheds`.
    pub(crate) fn record_tenant_shed(&self, tenant: &str) {
        let mut map = self.tenant_sheds.lock().unwrap();
        *map.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Queue-full sheds per tenant label, sorted by label. The sum over
    /// all labels equals the global `rejected_queue_full` counter.
    pub fn tenant_sheds(&self) -> Vec<(String, u64)> {
        let map = self.tenant_sheds.lock().unwrap();
        let mut v: Vec<(String, u64)> = map.iter().map(|(k, &n)| (k.clone(), n)).collect();
        v.sort();
        v
    }

    /// Accumulates one launch's per-method expansion counters.
    pub(crate) fn record_methods(&self, stats: &csaw_gpu::stats::SimStats) {
        Self::add(&self.method_its, stats.method_its);
        Self::add(&self.method_alias, stats.method_alias);
        Self::add(&self.method_rejection, stats.method_rejection);
        Self::add(&self.method_uniform, stats.method_uniform);
        Self::add(&self.rejection_trials, stats.rejection_trials);
    }

    /// Accumulates one launch's depth-synchronous frontier counters
    /// (vertex groups, group-size histogram, prefetch coverage). A no-op
    /// for instance-major launches, whose `batch_*` fields are all zero.
    pub(crate) fn record_batch_exec(&self, stats: &csaw_gpu::stats::SimStats) {
        Self::add(&self.batch_groups, stats.batch_groups);
        Self::add(&self.batch_group_entries, stats.batch_group_entries);
        for (dst, &src) in self.batch_group_hist.iter().zip(stats.batch_group_hist.iter()) {
            Self::add(dst, src);
        }
        Self::add(&self.batch_prefetch_hits, stats.batch_prefetch_hits);
        Self::add(&self.batch_prefetch_misses, stats.batch_prefetch_misses);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted.load(Relaxed),
            accepted: self.accepted.load(Relaxed),
            rejected_invalid: self.rejected_invalid.load(Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Relaxed),
            expired: self.expired.load(Relaxed),
            completed: self.completed.load(Relaxed),
            failed: self.failed.load(Relaxed),
            batches: self.batches.load(Relaxed),
            queue_depth: self.queue_depth.load(Relaxed),
            sampled_edges: self.sampled_edges.load(Relaxed),
            transfers: self.transfers.load(Relaxed),
            bytes_transferred: self.bytes_transferred.load(Relaxed),
            batch_hist: std::array::from_fn(|i| self.batch_hist[i].load(Relaxed)),
            cache_lookups: self.cache_lookups.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            cache_misses: self.cache_misses.load(Relaxed),
            cache_promotions: self.cache_promotions.load(Relaxed),
            cache_evictions: self.cache_evictions.load(Relaxed),
            cache_evictions_clock: self.cache_evictions_clock.load(Relaxed),
            cache_evictions_stale: self.cache_evictions_stale.load(Relaxed),
            cache_evictions_replaced: self.cache_evictions_replaced.load(Relaxed),
            cache_bytes: self.cache_bytes.load(Relaxed),
            cache_alias_hits: self.cache_alias_hits.load(Relaxed),
            cache_alias_promotions: self.cache_alias_promotions.load(Relaxed),
            method_its: self.method_its.load(Relaxed),
            method_alias: self.method_alias.load(Relaxed),
            method_rejection: self.method_rejection.load(Relaxed),
            method_uniform: self.method_uniform.load(Relaxed),
            rejection_trials: self.rejection_trials.load(Relaxed),
            batch_groups: self.batch_groups.load(Relaxed),
            batch_group_entries: self.batch_group_entries.load(Relaxed),
            batch_group_hist: std::array::from_fn(|i| self.batch_group_hist[i].load(Relaxed)),
            batch_prefetch_hits: self.batch_prefetch_hits.load(Relaxed),
            batch_prefetch_misses: self.batch_prefetch_misses.load(Relaxed),
            mutations_submitted: self.mutations_submitted.load(Relaxed),
            mutations: self.mutations.load(Relaxed),
            mutations_rejected: self.mutations_rejected.load(Relaxed),
            compact_requests: self.compact_requests.load(Relaxed),
            compactions: self.compactions.load(Relaxed),
            compact_noops: self.compact_noops.load(Relaxed),
            graph_epoch: self.graph_epoch.load(Relaxed),
            overlay_vertices: self.overlay_vertices.load(Relaxed),
            disk_lookups: self.disk_lookups.load(Relaxed),
            disk_hits: self.disk_hits.load(Relaxed),
            disk_misses: self.disk_misses.load(Relaxed),
            disk_evictions: self.disk_evictions.load(Relaxed),
            disk_pool_bytes: self.disk_pool_bytes.load(Relaxed),
            disk_mmap_faults: self.disk_mmap_faults.load(Relaxed),
            disk_decode_bytes: self.disk_decode_bytes.load(Relaxed),
            disk_decode_hist: std::array::from_fn(|i| self.disk_decode_hist[i].load(Relaxed)),
            disk_decode_sum_us: self.disk_decode_sum_us.load(Relaxed),
            disk_decode_count: self.disk_decode_count.load(Relaxed),
        }
    }
}

/// Plain-value copy of [`ServiceStats`] (see its field docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct StatsSnapshot {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected_invalid: u64,
    pub rejected_queue_full: u64,
    pub rejected_shutdown: u64,
    pub expired: u64,
    pub completed: u64,
    pub failed: u64,
    pub batches: u64,
    pub queue_depth: u64,
    pub sampled_edges: u64,
    pub transfers: u64,
    pub bytes_transferred: u64,
    pub batch_hist: [u64; NUM_BUCKETS],
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_promotions: u64,
    pub cache_evictions: u64,
    pub cache_evictions_clock: u64,
    pub cache_evictions_stale: u64,
    pub cache_evictions_replaced: u64,
    pub cache_bytes: u64,
    pub cache_alias_hits: u64,
    pub cache_alias_promotions: u64,
    pub method_its: u64,
    pub method_alias: u64,
    pub method_rejection: u64,
    pub method_uniform: u64,
    pub rejection_trials: u64,
    pub batch_groups: u64,
    pub batch_group_entries: u64,
    pub batch_group_hist: [u64; 8],
    pub batch_prefetch_hits: u64,
    pub batch_prefetch_misses: u64,
    pub mutations_submitted: u64,
    pub mutations: u64,
    pub mutations_rejected: u64,
    pub compact_requests: u64,
    pub compactions: u64,
    pub compact_noops: u64,
    pub graph_epoch: u64,
    pub overlay_vertices: u64,
    pub disk_lookups: u64,
    pub disk_hits: u64,
    pub disk_misses: u64,
    pub disk_evictions: u64,
    pub disk_pool_bytes: u64,
    pub disk_mmap_faults: u64,
    pub disk_decode_bytes: u64,
    pub disk_decode_hist: [u64; csaw_core::residency::NUM_DECODE_BUCKETS],
    pub disk_decode_sum_us: u64,
    pub disk_decode_count: u64,
}

impl StatsSnapshot {
    /// True when every submitted request — sampling, mutation, and
    /// compact alike — has reached exactly one terminal state. Only
    /// meaningful when the service is idle (after a drain); mid-flight
    /// requests are accepted but not yet terminal.
    pub fn fully_accounted(&self) -> bool {
        self.submitted
            == self.accepted
                + self.rejected_invalid
                + self.rejected_queue_full
                + self.rejected_shutdown
            && self.accepted == self.completed + self.expired + self.failed
            && self.mutations_submitted == self.mutations + self.mutations_rejected
            && self.compact_requests == self.compactions + self.compact_noops
            && self.disk_lookups == self.disk_hits + self.disk_misses
            && self.disk_evictions <= self.disk_misses
            && self.batch_prefetch_hits + self.batch_prefetch_misses == self.batch_groups
            && self.batch_group_hist.iter().sum::<u64>() == self.batch_groups
    }

    /// Launches recorded by the histogram (should equal `batches`).
    pub fn hist_total(&self) -> u64 {
        self.batch_hist.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_all_sizes() {
        let stats = ServiceStats::default();
        for n in [1, 2, 3, 4, 65, 1000] {
            stats.record_batch(n);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.batches, 6);
        assert_eq!(snap.hist_total(), 6);
        assert_eq!(snap.batch_hist[0], 1, "n=1");
        assert_eq!(snap.batch_hist[1], 1, "n=2");
        assert_eq!(snap.batch_hist[2], 2, "n=3,4");
        assert_eq!(snap.batch_hist[NUM_BUCKETS - 1], 2, "n=65,1000");
    }

    #[test]
    fn accounting_identity() {
        let stats = ServiceStats::default();
        ServiceStats::add(&stats.submitted, 5);
        ServiceStats::add(&stats.accepted, 3);
        ServiceStats::add(&stats.rejected_invalid, 1);
        ServiceStats::add(&stats.rejected_queue_full, 1);
        ServiceStats::add(&stats.completed, 2);
        ServiceStats::add(&stats.expired, 1);
        assert!(stats.snapshot().fully_accounted());
        ServiceStats::inc(&stats.submitted);
        assert!(!stats.snapshot().fully_accounted());
    }

    #[test]
    fn mutation_and_compact_requests_are_conservation_checked() {
        let stats = ServiceStats::default();
        // A mutation that never reached a terminal counter breaks the
        // ledger (this was the pre-fix behavior: only sampling requests
        // were conservation-checked).
        ServiceStats::inc(&stats.mutations_submitted);
        assert!(!stats.snapshot().fully_accounted());
        ServiceStats::inc(&stats.mutations_rejected);
        assert!(stats.snapshot().fully_accounted());
        ServiceStats::inc(&stats.compact_requests);
        assert!(!stats.snapshot().fully_accounted());
        ServiceStats::inc(&stats.compact_noops);
        assert!(stats.snapshot().fully_accounted());
    }

    #[test]
    fn tenant_sheds_split_the_global_counter() {
        let stats = ServiceStats::default();
        for t in ["a", "b", "a", ""] {
            ServiceStats::inc(&stats.rejected_queue_full);
            stats.record_tenant_shed(t);
        }
        let sheds = stats.tenant_sheds();
        assert_eq!(sheds, vec![(String::new(), 1), ("a".to_string(), 2), ("b".to_string(), 1)]);
        let total: u64 = sheds.iter().map(|(_, n)| n).sum();
        assert_eq!(total, stats.snapshot().rejected_queue_full);
    }
}
