//! Prometheus text encoding of the service ledger, cache gauges,
//! method counters, and per-tenant scheduler accounting.
//!
//! One renderer feeds both surfaces: the HTTP `GET /metrics` side
//! listener and the wire protocol's `Stats` frame, so a scraper and a
//! wire client read the same vocabulary (exposition format 0.0.4).
//!
//! The ledger metrics mirror the service's conservation identities —
//! `csaw_ledger_fully_accounted` is `1` exactly when every submitted
//! request (sampling, mutation, and compact alike) has reached exactly
//! one terminal state, which is what the multi-tenant integration test
//! asserts after inducing sheds, expiries, and a panicking batch.

use crate::tenant::{TenantSnapshot, WAIT_BUCKETS_US};
use csaw_service::stats::BATCH_BUCKETS;
use csaw_service::StatsSnapshot;
use std::fmt::Write as _;

/// Everything the renderer needs beyond the service snapshot.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Connections accepted since start.
    pub connections: u64,
    /// Frames that failed to decode (per-connection codec errors).
    pub bad_frames: u64,
    /// Events published to subscribers.
    pub events_published: u64,
    /// Events dropped because a subscriber's channel was gone.
    pub events_dropped: u64,
    /// Live subscriber connections.
    pub subscribers: u64,
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Escapes a label value per the exposition format.
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders the full metrics page.
pub fn render(
    snap: &StatsSnapshot,
    tenant_sheds: &[(String, u64)],
    tenants: &[TenantSnapshot],
    serve: &ServeMetrics,
) -> String {
    let mut out = String::with_capacity(8 << 10);

    // --- service ledger -------------------------------------------------
    counter(
        &mut out,
        "csaw_requests_submitted_total",
        "Sampling requests submitted",
        snap.submitted,
    );
    counter(
        &mut out,
        "csaw_requests_accepted_total",
        "Requests admitted to the queue",
        snap.accepted,
    );
    counter(
        &mut out,
        "csaw_requests_rejected_invalid_total",
        "Requests rejected as malformed",
        snap.rejected_invalid,
    );
    counter(
        &mut out,
        "csaw_requests_rejected_queue_full_total",
        "Requests shed by the bounded queue",
        snap.rejected_queue_full,
    );
    counter(
        &mut out,
        "csaw_requests_rejected_shutdown_total",
        "Requests rejected during shutdown",
        snap.rejected_shutdown,
    );
    counter(&mut out, "csaw_requests_expired_total", "Requests past their deadline", snap.expired);
    counter(&mut out, "csaw_requests_completed_total", "Requests answered", snap.completed);
    counter(&mut out, "csaw_requests_failed_total", "Requests lost to a batch panic", snap.failed);
    counter(&mut out, "csaw_batches_total", "Coalesced launches", snap.batches);
    gauge(&mut out, "csaw_queue_depth", "Requests waiting in the service queue", snap.queue_depth);
    counter(&mut out, "csaw_sampled_edges_total", "Edges sampled", snap.sampled_edges);

    // Per-tenant shed split of the global rejected_queue_full counter.
    let _ =
        writeln!(out, "# HELP csaw_tenant_queue_full_sheds_total Service-queue sheds by tenant");
    let _ = writeln!(out, "# TYPE csaw_tenant_queue_full_sheds_total counter");
    for (tenant, sheds) in tenant_sheds {
        let _ = writeln!(
            out,
            "csaw_tenant_queue_full_sheds_total{{tenant=\"{}\"}} {sheds}",
            escape(tenant)
        );
    }

    // Mutation / compaction ledger.
    counter(
        &mut out,
        "csaw_mutations_submitted_total",
        "Mutation requests submitted",
        snap.mutations_submitted,
    );
    counter(&mut out, "csaw_mutations_applied_total", "Mutation requests applied", snap.mutations);
    counter(
        &mut out,
        "csaw_mutations_rejected_total",
        "Mutation requests rejected",
        snap.mutations_rejected,
    );
    counter(&mut out, "csaw_compact_requests_total", "Compact requests", snap.compact_requests);
    counter(&mut out, "csaw_compactions_total", "Compactions that folded deltas", snap.compactions);
    counter(
        &mut out,
        "csaw_compact_noops_total",
        "Compactions with nothing to fold",
        snap.compact_noops,
    );
    gauge(&mut out, "csaw_graph_epoch", "Current graph epoch", snap.graph_epoch);
    gauge(
        &mut out,
        "csaw_overlay_vertices",
        "Vertices with uncompacted deltas",
        snap.overlay_vertices,
    );

    // Conservation check, machine-readable.
    gauge(
        &mut out,
        "csaw_ledger_fully_accounted",
        "1 when every submitted request reached exactly one terminal state",
        u64::from(snap.fully_accounted()),
    );

    // --- cache gauges ---------------------------------------------------
    counter(&mut out, "csaw_ctps_cache_lookups_total", "CTPS cache lookups", snap.cache_lookups);
    counter(&mut out, "csaw_ctps_cache_hits_total", "CTPS cache hits", snap.cache_hits);
    counter(&mut out, "csaw_ctps_cache_misses_total", "CTPS cache misses", snap.cache_misses);
    counter(
        &mut out,
        "csaw_ctps_cache_promotions_total",
        "CTPS cache promotions",
        snap.cache_promotions,
    );
    counter(
        &mut out,
        "csaw_ctps_cache_evictions_total",
        "CTPS cache evictions",
        snap.cache_evictions,
    );
    gauge(&mut out, "csaw_ctps_cache_bytes", "Bytes held by the CTPS cache", snap.cache_bytes);
    counter(
        &mut out,
        "csaw_alias_cache_hits_total",
        "Cached alias-table hits",
        snap.cache_alias_hits,
    );

    // --- disk tier ------------------------------------------------------
    // All zero unless the service fronts a disk store; gauges because the
    // worker pools outlive batches and each publish replaces the last.
    counter(&mut out, "csaw_disk_lookups_total", "Disk-tier pool lookups", snap.disk_lookups);
    counter(
        &mut out,
        "csaw_disk_hits_total",
        "Disk-tier lookups served by a resident decoded vertex run",
        snap.disk_hits,
    );
    counter(
        &mut out,
        "csaw_disk_misses_total",
        "Disk-tier lookups that decoded a vertex run from its segment",
        snap.disk_misses,
    );
    counter(
        &mut out,
        "csaw_disk_evictions_total",
        "Decoded vertex runs evicted by the clock sweep",
        snap.disk_evictions,
    );
    gauge(
        &mut out,
        "csaw_disk_pool_bytes",
        "Bytes held by decoded vertex runs across all pools",
        snap.disk_pool_bytes,
    );
    counter(
        &mut out,
        "csaw_disk_mmap_faults_total",
        "Simulated 4KiB page faults streaming mapped segments",
        snap.disk_mmap_faults,
    );
    counter(
        &mut out,
        "csaw_disk_decode_bytes_total",
        "RAM bytes produced by disk-tier decodes",
        snap.disk_decode_bytes,
    );
    let _ = writeln!(out, "# HELP csaw_disk_decode_seconds Partition decode wall time");
    let _ = writeln!(out, "# TYPE csaw_disk_decode_seconds histogram");
    let mut cumulative = 0u64;
    for (i, &ub_us) in csaw_core::residency::DECODE_BUCKETS_US.iter().enumerate() {
        cumulative += snap.disk_decode_hist[i];
        let ub_s = ub_us as f64 / 1e6;
        let _ = writeln!(out, "csaw_disk_decode_seconds_bucket{{le=\"{ub_s}\"}} {cumulative}");
    }
    cumulative += snap.disk_decode_hist[csaw_core::residency::DECODE_BUCKETS_US.len()];
    let _ = writeln!(out, "csaw_disk_decode_seconds_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(out, "csaw_disk_decode_seconds_sum {}", snap.disk_decode_sum_us as f64 / 1e6);
    let _ = writeln!(out, "csaw_disk_decode_seconds_count {}", snap.disk_decode_count);

    // --- sampling method counters --------------------------------------
    let _ =
        writeln!(out, "# HELP csaw_method_selections_total Neighbor selections by sampling method");
    let _ = writeln!(out, "# TYPE csaw_method_selections_total counter");
    for (method, v) in [
        ("its", snap.method_its),
        ("alias", snap.method_alias),
        ("rejection", snap.method_rejection),
        ("uniform", snap.method_uniform),
    ] {
        let _ = writeln!(out, "csaw_method_selections_total{{method=\"{method}\"}} {v}");
    }
    counter(
        &mut out,
        "csaw_rejection_trials_total",
        "Rejection-sampling trials",
        snap.rejection_trials,
    );

    // Batch-size histogram (requests per coalesced launch).
    let _ = writeln!(out, "# HELP csaw_batch_requests Requests coalesced per launch");
    let _ = writeln!(out, "# TYPE csaw_batch_requests histogram");
    let mut cumulative = 0u64;
    for (i, &ub) in BATCH_BUCKETS.iter().enumerate() {
        cumulative += snap.batch_hist[i];
        let _ = writeln!(out, "csaw_batch_requests_bucket{{le=\"{ub}\"}} {cumulative}");
    }
    cumulative += snap.batch_hist[BATCH_BUCKETS.len()];
    let _ = writeln!(out, "csaw_batch_requests_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(out, "csaw_batch_requests_count {cumulative}");

    // --- depth-sync batch execution ------------------------------------
    // All zero unless the service runs with `exec = DepthSync`; the
    // conservation identities (hits + misses == groups, histogram sums
    // to groups) fold into `csaw_ledger_fully_accounted` above.
    counter(
        &mut out,
        "csaw_batch_groups_total",
        "Same-vertex frontier groups expanded by the depth-sync driver",
        snap.batch_groups,
    );
    counter(
        &mut out,
        "csaw_batch_group_entries_total",
        "Frontier entries expanded through grouped depth-sync steps",
        snap.batch_group_entries,
    );
    counter(
        &mut out,
        "csaw_batch_prefetch_hits_total",
        "Frontier groups whose rows were software-prefetched ahead of use",
        snap.batch_prefetch_hits,
    );
    counter(
        &mut out,
        "csaw_batch_prefetch_misses_total",
        "Frontier groups expanded without prefetch coverage",
        snap.batch_prefetch_misses,
    );
    // Log2-bucketed group occupancy: bucket `i` counts groups of
    // [2^i, 2^(i+1)) co-located walkers, so `le` is `2^(i+1) - 1`.
    let _ = writeln!(out, "# HELP csaw_batch_group_size Walkers co-located per frontier group");
    let _ = writeln!(out, "# TYPE csaw_batch_group_size histogram");
    let mut cumulative = 0u64;
    for (i, count) in snap.batch_group_hist.iter().enumerate().take(7) {
        cumulative += count;
        let ub = (1u64 << (i + 1)) - 1;
        let _ = writeln!(out, "csaw_batch_group_size_bucket{{le=\"{ub}\"}} {cumulative}");
    }
    cumulative += snap.batch_group_hist[7];
    let _ = writeln!(out, "csaw_batch_group_size_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(out, "csaw_batch_group_size_count {cumulative}");

    // --- per-tenant scheduler plane ------------------------------------
    for (name, help, get) in [
        (
            "csaw_tenant_enqueued_total",
            "Jobs accepted into the tenant's fair queue",
            (|t: &TenantSnapshot| t.enqueued) as fn(&TenantSnapshot) -> u64,
        ),
        ("csaw_tenant_dispatched_total", "Jobs released to the service", |t| t.dispatched),
        ("csaw_tenant_completed_total", "Jobs completed", |t| t.completed),
        ("csaw_tenant_shed_quota_total", "Admissions shed by a token bucket", |t| t.shed_quota),
        ("csaw_tenant_shed_queue_total", "Admissions shed by the fair-queue bound", |t| {
            t.shed_queue
        }),
    ] {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for t in tenants {
            let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {}", escape(&t.tenant), get(t));
        }
    }
    let _ = writeln!(out, "# HELP csaw_tenant_queued Jobs waiting in the tenant's fair queue");
    let _ = writeln!(out, "# TYPE csaw_tenant_queued gauge");
    for t in tenants {
        let _ =
            writeln!(out, "csaw_tenant_queued{{tenant=\"{}\"}} {}", escape(&t.tenant), t.queued);
    }
    let _ = writeln!(out, "# HELP csaw_tenant_weight Fair-share weight in effect");
    let _ = writeln!(out, "# TYPE csaw_tenant_weight gauge");
    for t in tenants {
        let _ =
            writeln!(out, "csaw_tenant_weight{{tenant=\"{}\"}} {}", escape(&t.tenant), t.weight);
    }
    let _ =
        writeln!(out, "# HELP csaw_tenant_queue_wait_seconds Fair-queue wait, enqueue to dispatch");
    let _ = writeln!(out, "# TYPE csaw_tenant_queue_wait_seconds histogram");
    for t in tenants {
        let label = escape(&t.tenant);
        for (i, &ub_us) in WAIT_BUCKETS_US.iter().enumerate() {
            let ub_s = ub_us as f64 / 1e6;
            let _ = writeln!(
                out,
                "csaw_tenant_queue_wait_seconds_bucket{{tenant=\"{label}\",le=\"{ub_s}\"}} {}",
                t.wait.buckets[i]
            );
        }
        let _ = writeln!(
            out,
            "csaw_tenant_queue_wait_seconds_bucket{{tenant=\"{label}\",le=\"+Inf\"}} {}",
            t.wait.buckets[WAIT_BUCKETS_US.len()]
        );
        let _ = writeln!(
            out,
            "csaw_tenant_queue_wait_seconds_sum{{tenant=\"{label}\"}} {}",
            t.wait.sum_us as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "csaw_tenant_queue_wait_seconds_count{{tenant=\"{label}\"}} {}",
            t.wait.count
        );
    }

    // --- server plane ---------------------------------------------------
    counter(&mut out, "csaw_serve_connections_total", "Connections accepted", serve.connections);
    counter(
        &mut out,
        "csaw_serve_bad_frames_total",
        "Frames that failed to decode",
        serve.bad_frames,
    );
    counter(
        &mut out,
        "csaw_serve_events_published_total",
        "Completion events published",
        serve.events_published,
    );
    counter(
        &mut out,
        "csaw_serve_events_dropped_total",
        "Events dropped (no live subscriber)",
        serve.events_dropped,
    );
    gauge(&mut out, "csaw_serve_subscribers", "Live event subscribers", serve.subscribers);

    out
}

/// Pulls one metric's value out of a rendered page — test and client
/// convenience, not a general parser. Matches an exact metric line
/// (`name value` or `name{labels} value`).
pub fn parse_value(page: &str, name_and_labels: &str) -> Option<f64> {
    page.lines().find_map(|line| {
        let rest = line.strip_prefix(name_and_labels)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_ledger() {
        let snap = StatsSnapshot::default();
        let page = render(&snap, &[("acme".into(), 3)], &[], &ServeMetrics::default());
        assert_eq!(parse_value(&page, "csaw_requests_submitted_total"), Some(0.0));
        assert_eq!(
            parse_value(&page, "csaw_tenant_queue_full_sheds_total{tenant=\"acme\"}"),
            Some(3.0)
        );
        assert_eq!(parse_value(&page, "csaw_ledger_fully_accounted"), Some(1.0));
        assert!(page.contains("# TYPE csaw_batch_requests histogram"));
    }

    #[test]
    fn renders_depth_sync_batch_section() {
        let snap = StatsSnapshot {
            batch_groups: 5,
            batch_group_entries: 40,
            batch_prefetch_hits: 3,
            batch_prefetch_misses: 2,
            batch_group_hist: [1, 0, 0, 4, 0, 0, 0, 0],
            ..Default::default()
        };
        let page = render(&snap, &[], &[], &ServeMetrics::default());
        assert_eq!(parse_value(&page, "csaw_batch_groups_total"), Some(5.0));
        assert_eq!(parse_value(&page, "csaw_batch_group_entries_total"), Some(40.0));
        assert_eq!(parse_value(&page, "csaw_batch_prefetch_hits_total"), Some(3.0));
        assert_eq!(parse_value(&page, "csaw_batch_prefetch_misses_total"), Some(2.0));
        // Log2 buckets: one singleton group, four groups of 8-15 walkers.
        assert_eq!(parse_value(&page, "csaw_batch_group_size_bucket{le=\"1\"}"), Some(1.0));
        assert_eq!(parse_value(&page, "csaw_batch_group_size_bucket{le=\"7\"}"), Some(1.0));
        assert_eq!(parse_value(&page, "csaw_batch_group_size_bucket{le=\"15\"}"), Some(5.0));
        assert_eq!(parse_value(&page, "csaw_batch_group_size_bucket{le=\"+Inf\"}"), Some(5.0));
        assert_eq!(parse_value(&page, "csaw_batch_group_size_count"), Some(5.0));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
