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
//! [`StatsSnapshot::fully_accounted`] checks exactly that, together with
//! the cache, disk-tier and depth-sync identities; the test suite
//! asserts it after every drain. Sampling, mutation, and compact
//! requests are all conservation-checked — a front end that relays the
//! ledger (the `/metrics` endpoint) can prove no request of any kind
//! was silently dropped.
//!
//! Every counter is declared once, as one row of the table below: its
//! field, its kind, its metric name and its help text. The table
//! generates the lock-free [`ServiceStats`], the plain [`StatsSnapshot`],
//! the copy between them and [`StatsSnapshot::metrics`], the row walk
//! the Prometheus renderer prints. Adding a counter is one row plus the
//! code that bumps it.
//!
//! Queue-full sheds are additionally split per tenant
//! ([`ServiceStats::tenant_sheds`]): the global `rejected_queue_full`
//! is always the sum of the per-tenant counters (untagged requests
//! charge the empty label).

use csaw_core::residency::{DECODE_BUCKETS_US, NUM_DECODE_BUCKETS};
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

/// How a counter-table row is exposed on the metrics page.
#[derive(Debug, Clone, Copy)]
pub enum MetricKind {
    /// A monotonic total.
    Counter,
    /// A level that can go down.
    Gauge,
    /// Per-bucket counts (not cumulative). `le(i)` is bucket `i`'s
    /// inclusive upper bound; the last bucket is `+Inf`, and the
    /// family's `_count` is the total over all buckets.
    Histogram {
        /// Upper bound of bucket `i`, in the family's unit.
        le: fn(usize) -> f64,
    },
    /// The running sum of the histogram family on the row before it,
    /// divided by `divisor` into the family's unit.
    HistogramSum {
        /// Counter units per family unit (1e6 for µs into seconds).
        divisor: f64,
    },
}

impl MetricKind {
    /// The family's Prometheus `# TYPE`.
    pub fn type_name(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram { .. } | MetricKind::HistogramSum { .. } => "histogram",
        }
    }
}

/// One counter-table row with one snapshot's value.
#[derive(Debug, Clone, Copy)]
pub struct Metric<'a> {
    /// Metric family name.
    pub family: &'static str,
    /// A fixed label that splits the family (`reason="clock"`).
    pub label: Option<(&'static str, &'static str)>,
    /// `# HELP` text of the family.
    pub help: &'static str,
    /// How the value is printed.
    pub kind: MetricKind,
    /// One value, or a histogram's buckets.
    pub value: &'a [u64],
}

/// A table cell is one `u64` or a histogram's `[u64; N]` buckets. Per
/// cell type: its lock-free twin, a load of that twin, and its values
/// as a slice.
macro_rules! cell {
    (atomic u64) => {
        AtomicU64
    };
    (atomic [u64; $n:expr]) => {
        [AtomicU64; $n]
    };
    (load $a:expr, u64) => {
        $a.load(Relaxed)
    };
    (load $a:expr, [u64; $n:expr]) => {
        std::array::from_fn(|i| $a[i].load(Relaxed))
    };
    (values $v:expr, u64) => {
        std::slice::from_ref(&$v)
    };
    (values $v:expr, [u64; $n:expr]) => {
        &$v[..]
    };
}

/// Generates [`ServiceStats`], [`StatsSnapshot`], the snapshot copy and
/// the row walk from one table. A row reads
/// `field: type => kind, "family" {label = "value"}, "help";` with the
/// label optional.
macro_rules! counters {
    ($(
        $(#[$doc:meta])*
        $field:ident : $t:tt => $kind:expr,
            $family:literal $({ $lk:ident = $lv:literal })?, $help:literal;
    )*) => {
        /// Monotonic counters updated by the admission path and the batcher.
        #[derive(Debug, Default)]
        pub struct ServiceStats {
            $( $(#[$doc])* pub $field: cell!(atomic $t), )*
            /// Queue-full sheds split by tenant label (untagged requests
            /// charge the empty label). Off the hot path: touched only
            /// when a request is actually shed.
            tenant_sheds: Mutex<HashMap<String, u64>>,
        }

        /// Plain-value copy of [`ServiceStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( $(#[$doc])* pub $field: $t, )*
        }

        impl ServiceStats {
            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $( $field: cell!(load self.$field, $t), )* }
            }
        }

        impl StatsSnapshot {
            /// Every row of the counter table with this snapshot's value,
            /// in table order (the rows of one family are adjacent).
            pub fn metrics(&self) -> impl Iterator<Item = Metric<'_>> {
                use MetricKind::*;
                [$(
                    Metric {
                        family: $family,
                        label: None $( .or(Some((stringify!($lk), $lv))) )?,
                        help: $help,
                        kind: $kind,
                        value: cell!(values self.$field, $t),
                    },
                )*]
                .into_iter()
            }
        }
    };
}

counters! {
    /// Requests ever handed to `submit`.
    submitted: u64 => Counter, "csaw_requests_submitted_total", "Sampling requests submitted";
    /// Requests that passed validation and entered the queue.
    accepted: u64 => Counter, "csaw_requests_accepted_total", "Requests admitted to the queue";
    /// Requests rejected as malformed.
    rejected_invalid: u64 => Counter,
        "csaw_requests_rejected_invalid_total", "Requests rejected as malformed";
    /// Requests shed because the queue was full.
    rejected_queue_full: u64 => Counter,
        "csaw_requests_rejected_queue_full_total", "Requests shed by the bounded queue";
    /// Requests refused because the service was shutting down.
    rejected_shutdown: u64 => Counter,
        "csaw_requests_rejected_shutdown_total", "Requests rejected during shutdown";
    /// Accepted requests whose deadline passed before delivery.
    expired: u64 => Counter, "csaw_requests_expired_total", "Requests past their deadline";
    /// Accepted requests answered with a response.
    completed: u64 => Counter, "csaw_requests_completed_total", "Requests answered";
    /// Accepted requests whose batch panicked.
    failed: u64 => Counter, "csaw_requests_failed_total", "Requests lost to a batch panic";
    /// Coalesced launches executed.
    batches: u64 => Counter, "csaw_batches_total", "Coalesced launches";
    /// Current queue depth (gauge, not monotonic).
    queue_depth: u64 => Gauge, "csaw_queue_depth", "Requests waiting in the service queue";
    /// Edges sampled across all launches (batch totals).
    sampled_edges: u64 => Counter, "csaw_sampled_edges_total", "Edges sampled";
    /// Host→device partition transfers across all launches (only the
    /// out-of-memory executor reports these).
    transfers: u64 => Counter, "csaw_transfers_total", "Host-to-device partition transfers";
    /// Bytes shipped host→device across all launches.
    bytes_transferred: u64 => Counter,
        "csaw_transferred_bytes_total", "Bytes shipped host to device";
    /// Batch-size histogram: bucket `i` counts launches whose instance
    /// count is ≤ `BATCH_BUCKETS[i]` (last bucket: larger than all).
    batch_hist: [u64; NUM_BUCKETS] => Histogram { le: |i| BATCH_BUCKETS[i] as f64 },
        "csaw_batch_requests", "Sampling instances coalesced per launch";
    /// CTPS-cache lookups across the worker's per-algorithm caches
    /// (worker-lifetime totals, refreshed after every batch).
    cache_lookups: u64 => Counter, "csaw_ctps_cache_lookups_total", "CTPS cache lookups";
    /// CTPS-cache lookups served from a cached entry.
    cache_hits: u64 => Counter, "csaw_ctps_cache_hits_total", "CTPS cache hits";
    /// CTPS-cache lookups that found nothing.
    cache_misses: u64 => Counter, "csaw_ctps_cache_misses_total", "CTPS cache misses";
    /// CTPS tables promoted into the caches.
    cache_promotions: u64 => Counter, "csaw_ctps_cache_promotions_total", "CTPS cache promotions";
    /// CTPS tables evicted from the caches.
    cache_evictions: u64 => Counter, "csaw_ctps_cache_evictions_total", "CTPS cache evictions";
    /// Evictions by clock-sweep capacity pressure (gauge, subset of
    /// `cache_evictions`).
    cache_evictions_clock: u64 => Counter, "csaw_ctps_cache_evictions_by_reason_total"
        { reason = "clock" }, "CTPS cache evictions by reason";
    /// Entries dropped because their epoch tag went stale — residency
    /// swaps and graph mutations both land here (gauge, subset of
    /// `cache_evictions`). This is the "epoch-invalidated entries"
    /// gauge for mutable-graph serving.
    cache_evictions_stale: u64 => Counter, "csaw_ctps_cache_evictions_by_reason_total"
        { reason = "stale" }, "CTPS cache evictions by reason";
    /// Entries replaced by a same-vertex promotion under a newer tag
    /// (gauge, subset of `cache_evictions`).
    cache_evictions_replaced: u64 => Counter, "csaw_ctps_cache_evictions_by_reason_total"
        { reason = "replaced" }, "CTPS cache evictions by reason";
    /// Bytes currently held by the caches (gauge).
    cache_bytes: u64 => Gauge, "csaw_ctps_cache_bytes", "Bytes held by the CTPS cache";
    /// Expansions the method chooser sent to ITS (batch totals; both
    /// `method_*` counters stay zero under `ForceIts`).
    method_its: u64 => Counter, "csaw_method_selections_total"
        { method = "its" }, "Neighbor selections by sampling method";
    /// Expansions served by bounded rejection sampling.
    method_rejection: u64 => Counter, "csaw_method_selections_total"
        { method = "rejection" }, "Neighbor selections by sampling method";
    /// Total rejection throws across rejection-served expansions.
    rejection_trials: u64 => Counter, "csaw_rejection_trials_total", "Rejection-sampling trials";
    /// Vertex-groups formed by depth-synchronous launches (batch totals;
    /// zero while the service executes instance-major).
    batch_groups: u64 => Counter, "csaw_batch_groups_total",
        "Same-vertex frontier groups expanded by the depth-sync driver";
    /// Frontier entries that passed through vertex-grouped expansion
    /// (`batch_group_entries / batch_groups` is the mean co-location
    /// factor across all launches).
    batch_group_entries: u64 => Counter, "csaw_batch_group_entries_total",
        "Frontier entries expanded through grouped depth-sync steps";
    /// Log2-bucketed vertex-group size histogram (bucket `i`: groups of
    /// `2^i..2^(i+1)` entries, last bucket open-ended) — the per-depth
    /// frontier-occupancy shape, accumulated across launches.
    batch_group_hist: [u64; 8] => Histogram { le: |i| ((1u64 << (i + 1)) - 1) as f64 },
        "csaw_batch_group_size", "Walkers co-located per frontier group";
    /// Vertex-groups whose CSR row was prefetched far enough ahead to be
    /// resident at expansion (batch totals).
    batch_prefetch_hits: u64 => Counter, "csaw_batch_prefetch_hits_total",
        "Frontier groups whose rows were software-prefetched ahead of use";
    /// Vertex-groups expanded before the prefetch pipeline warmed up
    /// (`batch_prefetch_hits + batch_prefetch_misses == batch_groups`).
    batch_prefetch_misses: u64 => Counter, "csaw_batch_prefetch_misses_total",
        "Frontier groups expanded without prefetch coverage";
    /// Mutation requests ever handed to `mutate` (accepted or not).
    mutations_submitted: u64 => Counter,
        "csaw_mutations_submitted_total", "Mutation requests submitted";
    /// Successful `mutate` calls applied to the service's graph.
    mutations: u64 => Counter, "csaw_mutations_applied_total", "Mutation requests applied";
    /// Mutation requests rejected with a typed [`csaw_graph::EditError`]
    /// (the batch was rolled back; the graph is unchanged).
    mutations_rejected: u64 => Counter,
        "csaw_mutations_rejected_total", "Mutation requests rejected";
    /// `compact` calls ever made.
    compact_requests: u64 => Counter, "csaw_compact_requests_total", "Compact requests";
    /// `compact` calls that folded a non-empty overlay.
    compactions: u64 => Counter, "csaw_compactions_total", "Compactions that folded deltas";
    /// `compact` calls that found nothing to fold.
    compact_noops: u64 => Counter, "csaw_compact_noops_total", "Compactions with nothing to fold";
    /// Current epoch of the service's mutable graph (gauge).
    graph_epoch: u64 => Gauge, "csaw_graph_epoch", "Current graph epoch";
    /// Vertices currently carrying an uncompacted delta (gauge).
    overlay_vertices: u64 => Gauge, "csaw_overlay_vertices", "Vertices with uncompacted deltas";
    /// Disk-tier pool lookups across all worker pools (gauge, refreshed
    /// after every batch of a disk-backed service; zero otherwise).
    disk_lookups: u64 => Counter, "csaw_disk_lookups_total", "Disk-tier pool lookups";
    /// Disk-tier lookups served by a resident decoded vertex run (gauge,
    /// `disk_lookups == disk_hits + disk_misses`).
    disk_hits: u64 => Counter, "csaw_disk_hits_total",
        "Disk-tier lookups served by a resident decoded vertex run";
    /// Disk-tier lookups that decoded a vertex run from its mapped
    /// segment (gauge).
    disk_misses: u64 => Counter, "csaw_disk_misses_total",
        "Disk-tier lookups that decoded a vertex run from its segment";
    /// Decoded vertex runs evicted by the pools' clock sweeps (gauge,
    /// `disk_evictions <= disk_misses`).
    disk_evictions: u64 => Counter, "csaw_disk_evictions_total",
        "Decoded vertex runs evicted by the clock sweep";
    /// Bytes currently held by decoded vertex runs across all pools
    /// (gauge).
    disk_pool_bytes: u64 => Gauge, "csaw_disk_pool_bytes",
        "Bytes held by decoded vertex runs across all pools";
    /// Simulated 4 KiB page faults charged for streaming mapped
    /// segments during decodes (gauge).
    disk_mmap_faults: u64 => Counter, "csaw_disk_mmap_faults_total",
        "Simulated 4KiB page faults streaming mapped segments";
    /// RAM bytes produced by disk-tier decodes (gauge).
    disk_decode_bytes: u64 => Counter, "csaw_disk_decode_bytes_total",
        "RAM bytes produced by disk-tier decodes";
    /// Decode wall-time histogram: bucket `i` counts decodes that took
    /// ≤ `csaw_core::residency::DECODE_BUCKETS_US[i]` µs (gauge; the
    /// buckets sum to the number of timed decodes).
    disk_decode_hist: [u64; NUM_DECODE_BUCKETS]
        => Histogram { le: |i| DECODE_BUCKETS_US[i] as f64 / 1e6 },
        "csaw_disk_decode_seconds", "Vertex-run decode wall time";
    /// Sum of decode wall times, microseconds (gauge).
    disk_decode_sum_us: u64 => HistogramSum { divisor: 1e6 },
        "csaw_disk_decode_seconds", "Vertex-run decode wall time";
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
        Self::add(&self.method_rejection, stats.method_rejection);
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
}

impl StatsSnapshot {
    /// True when every submitted request — sampling, mutation, and
    /// compact alike — has reached exactly one terminal state, and the
    /// cache, disk-tier and depth-sync totals balance. Only meaningful
    /// when the service is idle (after a drain); mid-flight requests are
    /// accepted but not yet terminal.
    pub fn fully_accounted(&self) -> bool {
        self.submitted
            == self.accepted
                + self.rejected_invalid
                + self.rejected_queue_full
                + self.rejected_shutdown
            && self.accepted == self.completed + self.expired + self.failed
            && self.mutations_submitted == self.mutations + self.mutations_rejected
            && self.compact_requests == self.compactions + self.compact_noops
            && self.cache_lookups == self.cache_hits + self.cache_misses
            && self.cache_promotions <= self.cache_misses
            && self.cache_evictions
                == self.cache_evictions_clock
                    + self.cache_evictions_stale
                    + self.cache_evictions_replaced
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
    use csaw_core::ctps_cache::CacheSnapshot;

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
    fn cache_totals_are_conservation_checked() {
        let stats = ServiceStats::default();
        let totals = CacheSnapshot {
            lookups: 5,
            hits: 3,
            misses: 2,
            promotions: 2,
            evictions: 3,
            evictions_clock: 1,
            evictions_stale: 1,
            evictions_replaced: 1,
            bytes: 4096,
            ..Default::default()
        };
        stats.record_cache(&totals);
        assert!(stats.snapshot().fully_accounted());
        for broken in [
            CacheSnapshot { lookups: 6, ..totals },
            CacheSnapshot { promotions: 3, ..totals },
            CacheSnapshot { evictions_stale: 0, ..totals },
        ] {
            stats.record_cache(&broken);
            assert!(!stats.snapshot().fully_accounted(), "{broken:?}");
        }
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

    #[test]
    fn the_counter_table_is_well_formed() {
        let snap = StatsSnapshot::default();
        let rows: Vec<Metric<'_>> = snap.metrics().collect();
        let mut names = std::collections::HashSet::new();
        let mut families = std::collections::HashSet::new();
        for (i, row) in rows.iter().enumerate() {
            let is_sum = matches!(row.kind, MetricKind::HistogramSum { .. });
            assert!(row.family.starts_with("csaw_") && !row.help.is_empty(), "{row:?}");
            assert!(names.insert((row.family, row.label, is_sum)), "duplicate row {row:?}");
            let histogram = matches!(row.kind, MetricKind::Histogram { .. });
            assert_eq!(row.value.len() > 1, histogram, "{row:?}");
            match i.checked_sub(1).map(|p| &rows[p]).filter(|p| p.family == row.family) {
                // A family's rows are adjacent and agree on help and type:
                // labelled splits, or a histogram followed by its sum.
                Some(prev) => {
                    assert_eq!(prev.help, row.help, "{row:?}");
                    assert_eq!(prev.kind.type_name(), row.kind.type_name(), "{row:?}");
                    assert!(
                        (prev.label.is_some() && row.label.is_some())
                            || (is_sum && matches!(prev.kind, MetricKind::Histogram { .. })),
                        "{row:?}"
                    );
                }
                None => assert!(families.insert(row.family) && !is_sum, "{row:?}"),
            }
        }
    }
}
