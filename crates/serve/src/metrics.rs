//! Prometheus text encoding of the service ledger, cache gauges,
//! method counters, and per-tenant scheduler accounting.
//!
//! One renderer feeds both surfaces: the HTTP `GET /metrics` side
//! listener and the wire protocol's `Stats` frame, so a scraper and a
//! wire client read the same vocabulary (exposition format 0.0.4).
//!
//! The service section is `csaw-service`'s counter table printed row by
//! row ([`StatsSnapshot::metrics`]): a counter declared there reaches
//! this page with no edit here. This module adds only what is not a
//! service counter — the derived ledger gauge, the per-tenant planes and
//! the server plane.
//!
//! The ledger metrics mirror the service's conservation identities —
//! `csaw_ledger_fully_accounted` is `1` exactly when every submitted
//! request (sampling, mutation, and compact alike) has reached exactly
//! one terminal state and the cache, disk and depth-sync totals balance,
//! which is what the multi-tenant integration test asserts after
//! inducing sheds, expiries, and a panicking batch.

use crate::tenant::{TenantSnapshot, WAIT_BUCKETS_US};
use csaw_service::stats::{Metric, MetricKind};
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

impl ServeMetrics {
    /// The server plane as table rows.
    fn rows(&self) -> [Metric<'_>; 5] {
        use MetricKind::{Counter, Gauge};
        [
            row("csaw_serve_connections_total", Counter, "Connections accepted", &self.connections),
            row(
                "csaw_serve_bad_frames_total",
                Counter,
                "Frames that failed to decode",
                &self.bad_frames,
            ),
            row(
                "csaw_serve_events_published_total",
                Counter,
                "Completion events published",
                &self.events_published,
            ),
            row(
                "csaw_serve_events_dropped_total",
                Counter,
                "Events dropped (no live subscriber)",
                &self.events_dropped,
            ),
            row("csaw_serve_subscribers", Gauge, "Live event subscribers", &self.subscribers),
        ]
    }
}

/// An unlabelled one-value row.
fn row<'a>(
    family: &'static str,
    kind: MetricKind,
    help: &'static str,
    value: &'a u64,
) -> Metric<'a> {
    Metric { family, label: None, help, kind, value: std::slice::from_ref(value) }
}

/// Escapes a label value per the exposition format.
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn header(out: &mut String, family: &str, help: &str, type_name: &str) {
    let _ = writeln!(out, "# HELP {family} {help}");
    let _ = writeln!(out, "# TYPE {family} {type_name}");
}

/// Prints table rows: one `# HELP`/`# TYPE` pair per family (a family's
/// rows are adjacent), then each row's samples. Histogram buckets are
/// stored per bucket and printed cumulative.
fn write_rows<'a>(out: &mut String, rows: impl IntoIterator<Item = Metric<'a>>) {
    let mut family = "";
    for m in rows {
        let name = m.family;
        if name != family {
            header(out, name, m.help, m.kind.type_name());
            family = name;
        }
        let _ = match (m.kind, m.label) {
            (MetricKind::Counter | MetricKind::Gauge, Some((k, v))) => {
                writeln!(out, "{name}{{{k}=\"{v}\"}} {}", m.value[0])
            }
            (MetricKind::Counter | MetricKind::Gauge, None) => {
                writeln!(out, "{name} {}", m.value[0])
            }
            (MetricKind::Histogram { le }, _) => {
                let mut cumulative = 0u64;
                for (i, &n) in m.value.iter().enumerate() {
                    cumulative += n;
                    let _ = if i + 1 < m.value.len() {
                        writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", le(i))
                    } else {
                        writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}")
                    };
                }
                writeln!(out, "{name}_count {cumulative}")
            }
            (MetricKind::HistogramSum { divisor }, _) => {
                writeln!(out, "{name}_sum {}", m.value[0] as f64 / divisor)
            }
        };
    }
}

/// Renders the full metrics page.
pub fn render(
    snap: &StatsSnapshot,
    tenant_sheds: &[(String, u64)],
    tenants: &[TenantSnapshot],
    serve: &ServeMetrics,
) -> String {
    let mut out = String::with_capacity(8 << 10);
    write_rows(&mut out, snap.metrics());

    // Conservation check, machine-readable.
    let accounted = u64::from(snap.fully_accounted());
    write_rows(
        &mut out,
        [row(
            "csaw_ledger_fully_accounted",
            MetricKind::Gauge,
            "1 when every submitted request reached exactly one terminal state",
            &accounted,
        )],
    );

    // --- per-tenant planes (label values come from the wire) ------------
    // The split of the global rejected_queue_full counter.
    header(
        &mut out,
        "csaw_tenant_queue_full_sheds_total",
        "Service-queue sheds by tenant",
        "counter",
    );
    for (tenant, sheds) in tenant_sheds {
        let _ = writeln!(
            out,
            "csaw_tenant_queue_full_sheds_total{{tenant=\"{}\"}} {sheds}",
            escape(tenant)
        );
    }
    for (name, type_name, help, get) in [
        (
            "csaw_tenant_enqueued_total",
            "counter",
            "Jobs accepted into the tenant's fair queue",
            (|t: &TenantSnapshot| t.counts.enqueued) as fn(&TenantSnapshot) -> u64,
        ),
        ("csaw_tenant_dispatched_total", "counter", "Jobs released to the service", |t| {
            t.counts.dispatched
        }),
        ("csaw_tenant_completed_total", "counter", "Jobs completed", |t| t.counts.completed),
        ("csaw_tenant_shed_quota_total", "counter", "Admissions shed by a token bucket", |t| {
            t.counts.shed_quota
        }),
        (
            "csaw_tenant_shed_queue_total",
            "counter",
            "Admissions shed by the fair-queue bound",
            |t| t.counts.shed_queue,
        ),
        ("csaw_tenant_queued", "gauge", "Jobs waiting in the tenant's fair queue", |t| {
            t.queued as u64
        }),
        ("csaw_tenant_weight", "gauge", "Fair-share weight in effect", |t| u64::from(t.weight)),
    ] {
        header(&mut out, name, help, type_name);
        for t in tenants {
            let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {}", escape(&t.tenant), get(t));
        }
    }
    header(
        &mut out,
        "csaw_tenant_queue_wait_seconds",
        "Fair-queue wait, enqueue to dispatch",
        "histogram",
    );
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

    write_rows(&mut out, serve.rows());
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
        // The depth-synchronous schedule is the engine's alone: the
        // service launches instance-major, so the page has no group or
        // prefetch families.
        assert!(!page.contains("csaw_batch_group"), "no frontier-group family");
        assert!(!page.contains("csaw_batch_prefetch"), "no prefetch-coverage family");
    }

    #[test]
    fn renders_cache_evictions_by_reason() {
        let snap = StatsSnapshot {
            cache_evictions: 6,
            cache_evictions_clock: 3,
            cache_evictions_stale: 2,
            cache_evictions_replaced: 1,
            ..Default::default()
        };
        let page = render(&snap, &[], &[], &ServeMetrics::default());
        let reason = |r: &str| {
            parse_value(
                &page,
                &format!("csaw_ctps_cache_evictions_by_reason_total{{reason=\"{r}\"}}"),
            )
        };
        assert_eq!(reason("clock"), Some(3.0));
        assert_eq!(reason("stale"), Some(2.0));
        assert_eq!(reason("replaced"), Some(1.0));
        assert_eq!(parse_value(&page, "csaw_ctps_cache_evictions_total"), Some(6.0));
        assert!(!page.contains("alias"), "the alias method is retired");
        assert!(!page.contains("method=\"uniform\""));
    }

    #[test]
    fn every_counter_table_row_is_on_the_page() {
        let snap = StatsSnapshot {
            sampled_edges: 7,
            method_rejection: 3,
            batch_hist: [1, 0, 2, 0, 0, 0, 0, 4],
            disk_decode_hist: [0, 1, 0, 0, 0, 0, 0, 2],
            disk_decode_sum_us: 2_500_000,
            ..Default::default()
        };
        let serve = ServeMetrics { subscribers: 2, ..ServeMetrics::default() };
        let page = render(&snap, &[], &[], &serve);
        for m in snap.metrics().chain(serve.rows()) {
            let f = m.family;
            let (name, value) = match (m.kind, m.label) {
                (MetricKind::Histogram { .. }, _) => {
                    let total: u64 = m.value.iter().sum();
                    assert_eq!(parse_value(&page, &format!("{f}_count")), Some(total as f64));
                    (format!("{f}_bucket{{le=\"+Inf\"}}"), total as f64)
                }
                (MetricKind::HistogramSum { divisor }, _) => {
                    (format!("{f}_sum"), m.value[0] as f64 / divisor)
                }
                (_, Some((k, v))) => (format!("{f}{{{k}=\"{v}\"}}"), m.value[0] as f64),
                (_, None) => (f.to_string(), m.value[0] as f64),
            };
            assert_eq!(parse_value(&page, &name), Some(value), "{name}");
            assert_eq!(page.matches(&format!("# TYPE {f} ")).count(), 1, "{f}");
        }
        assert_eq!(parse_value(&page, "csaw_sampled_edges_total"), Some(7.0));
        assert!(!page.contains("csaw_transfer"), "the service runs no partition transfers");
        assert_eq!(parse_value(&page, "csaw_batch_requests_bucket{le=\"4\"}"), Some(3.0));
        assert_eq!(parse_value(&page, "csaw_disk_decode_seconds_bucket{le=\"0.0001\"}"), Some(1.0));
        assert_eq!(parse_value(&page, "csaw_disk_decode_seconds_sum"), Some(2.5));
        assert_eq!(parse_value(&page, "csaw_serve_subscribers"), Some(2.0));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
