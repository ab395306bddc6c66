//! Multi-tenant admission and weighted-fair dispatch.
//!
//! Two mechanisms stack at the socket boundary, *in front of* the
//! sampling service's global bounded queue:
//!
//! 1. **Token buckets** ([`TenantQuota::rate`]/[`TenantQuota::burst`]
//!    for requests, `byte_rate`/`byte_burst` for payload bytes) shed a
//!    tenant's excess offered load immediately with a typed
//!    `TenantQuota` error and a `retry_after` hint — one greedy client
//!    cannot even *enqueue* enough work to starve others.
//! 2. **Start-time fair queuing (SFQ)** orders what survives the
//!    buckets. Each tenant owns a FIFO of pending jobs tagged with
//!    virtual start/finish times: `start = max(global_vtime,
//!    tenant_finish)`, `finish = start + cost / weight`. The dispatcher
//!    always releases the pending job with the minimum start tag and
//!    advances the global virtual clock to that tag. Backlogged tenants
//!    therefore share dispatch capacity in proportion to their weights,
//!    while an idle tenant's clock never builds up credit it could
//!    later burst with (start tags are clamped to the global clock).
//!
//! Dispatch concurrency is capped ([`SchedulerConfig::max_inflight`]):
//! the fair queue only matters while there is contention, and the cap
//! is what creates a well-defined "next slot" for the SFQ ordering to
//! arbitrate.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Admission and fair-share knobs for one tenant.
#[derive(Debug, Clone, Copy)]
pub struct TenantQuota {
    /// Fair-share weight: a weight-3 tenant gets 3× the dispatch slots
    /// of a weight-1 tenant while both are backlogged.
    pub weight: u32,
    /// Request tokens refilled per second.
    pub rate: f64,
    /// Request-token bucket capacity (burst size).
    pub burst: f64,
    /// Tokens of payload bytes refilled per second.
    pub byte_rate: f64,
    /// Capacity of the payload-byte bucket.
    pub byte_burst: f64,
    /// Pending jobs this tenant may hold in its fair queue; admissions
    /// beyond it are shed with per-tenant backpressure.
    pub max_queued: usize,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            weight: 1,
            rate: 1000.0,
            burst: 2000.0,
            byte_rate: 64.0 * 1024.0 * 1024.0,
            byte_burst: 128.0 * 1024.0 * 1024.0,
            max_queued: 64,
        }
    }
}

/// Scheduler-wide knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Jobs dispatched into the service but not yet completed. `1`
    /// serializes dispatch (strictest fairness); larger values trade
    /// fairness granularity for pipeline depth.
    pub max_inflight: usize,
    /// Quota applied to tenants with no explicit entry.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides.
    pub tenant_quotas: HashMap<String, TenantQuota>,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            max_inflight: 4,
            default_quota: TenantQuota::default(),
            tenant_quotas: HashMap::new(),
        }
    }
}

/// Why admission refused a job at the socket boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// A token bucket (request or byte) is empty; retry after the hint.
    Quota {
        /// When the bucket will hold enough tokens again.
        retry_after: Duration,
    },
    /// The tenant's fair queue is at `max_queued`.
    QueueFull {
        /// Suggested backoff (one dispatch interval estimate).
        retry_after: Duration,
    },
    /// The scheduler is shutting down.
    ShuttingDown,
}

/// Classic token bucket over a monotonic clock.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    capacity: f64,
    rate: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate: f64, capacity: f64, now: Instant) -> TokenBucket {
        TokenBucket { tokens: capacity, capacity, rate, last: now }
    }

    /// Takes `n` tokens or reports how long until they exist.
    fn try_take(&mut self, n: f64, now: Instant) -> Result<(), Duration> {
        let elapsed = now.saturating_duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate).min(self.capacity);
        self.last = now;
        if self.tokens >= n {
            self.tokens -= n;
            Ok(())
        } else if self.rate <= 0.0 {
            Err(Duration::from_secs(3600))
        } else {
            Err(Duration::from_secs_f64((n - self.tokens) / self.rate))
        }
    }
}

/// Upper bounds of the queue-wait histogram, in microseconds; the last
/// bucket is `+Inf`.
pub const WAIT_BUCKETS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// A cumulative latency histogram (Prometheus `le` semantics).
#[derive(Debug, Default, Clone)]
pub struct WaitHistogram {
    /// Observations at or below each of [`WAIT_BUCKETS_US`], plus the
    /// `+Inf` bucket at the end.
    pub buckets: [u64; WAIT_BUCKETS_US.len() + 1],
    /// Sum of all observations, microseconds.
    pub sum_us: u64,
    /// Total observations.
    pub count: u64,
}

impl WaitHistogram {
    fn observe(&mut self, wait: Duration) {
        let us = wait.as_micros().min(u128::from(u64::MAX)) as u64;
        for (i, &ub) in WAIT_BUCKETS_US.iter().enumerate() {
            if us <= ub {
                self.buckets[i] += 1;
            }
        }
        *self.buckets.last_mut().expect("inf bucket") += 1;
        self.sum_us += us;
        self.count += 1;
    }
}

/// Point-in-time per-tenant accounting, for the metrics plane.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// Tenant label.
    pub tenant: String,
    /// Fair-share weight in effect.
    pub weight: u32,
    /// Jobs accepted into the fair queue.
    pub enqueued: u64,
    /// Jobs released to the service.
    pub dispatched: u64,
    /// Jobs whose completion was reported.
    pub completed: u64,
    /// Admissions shed by a token bucket.
    pub shed_quota: u64,
    /// Admissions shed by the per-tenant queue bound.
    pub shed_queue: u64,
    /// Jobs currently waiting in the fair queue.
    pub queued: usize,
    /// Time jobs spent waiting in the fair queue (enqueue → dispatch).
    pub wait: WaitHistogram,
}

/// One queued unit of work: the payload is opaque to the scheduler.
struct Job<T> {
    start_tag: f64,
    finish_tag: f64,
    enqueued: Instant,
    payload: T,
}

struct TenantState<T> {
    quota: TenantQuota,
    bucket: TokenBucket,
    byte_bucket: TokenBucket,
    queue: std::collections::VecDeque<Job<T>>,
    /// Finish tag of this tenant's most recently tagged job — the chain
    /// that spaces consecutive jobs `cost/weight` apart in virtual time.
    last_finish: f64,
    enqueued: u64,
    dispatched: u64,
    completed: u64,
    shed_quota: u64,
    shed_queue: u64,
    wait: WaitHistogram,
}

struct SchedState<T> {
    tenants: HashMap<String, TenantState<T>>,
    /// The global virtual clock: the start tag of the last dispatch.
    global_vtime: f64,
    queued_total: usize,
    inflight: usize,
    shutdown: bool,
}

/// The weighted-fair scheduler (see module docs). `T` is the dispatched
/// payload — the server queues closures, tests queue markers.
pub struct FairScheduler<T> {
    state: Mutex<SchedState<T>>,
    cv: Condvar,
    config: SchedulerConfig,
}

impl<T> FairScheduler<T> {
    /// An empty scheduler.
    pub fn new(config: SchedulerConfig) -> FairScheduler<T> {
        FairScheduler {
            state: Mutex::new(SchedState {
                tenants: HashMap::new(),
                global_vtime: 0.0,
                queued_total: 0,
                inflight: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            config,
        }
    }

    fn quota_for(&self, tenant: &str) -> TenantQuota {
        self.config.tenant_quotas.get(tenant).copied().unwrap_or(self.config.default_quota)
    }

    /// Admits one job for `tenant`: charges the token buckets (`bytes`
    /// of payload), tags the job with SFQ virtual times, and queues it.
    /// `cost` is the job's fair-share cost (the server uses its instance
    /// count, so fairness is over *work*, not request count).
    pub fn admit(&self, tenant: &str, cost: f64, bytes: f64, payload: T) -> Result<(), AdmitError> {
        let now = Instant::now();
        let mut st = self.state.lock().expect("scheduler lock");
        if st.shutdown {
            return Err(AdmitError::ShuttingDown);
        }
        let global_vtime = st.global_vtime;
        let quota = self.quota_for(tenant);
        let ts = st.tenants.entry(tenant.to_string()).or_insert_with(|| TenantState {
            quota,
            bucket: TokenBucket::new(quota.rate, quota.burst, now),
            byte_bucket: TokenBucket::new(quota.byte_rate, quota.byte_burst, now),
            queue: std::collections::VecDeque::new(),
            last_finish: 0.0,
            enqueued: 0,
            dispatched: 0,
            completed: 0,
            shed_quota: 0,
            shed_queue: 0,
            wait: WaitHistogram::default(),
        });
        let req = ts.bucket.try_take(1.0, now);
        let byt = ts.byte_bucket.try_take(bytes, now);
        if let Err(wait) = req.and(byt) {
            ts.shed_quota += 1;
            return Err(AdmitError::Quota { retry_after: wait });
        }
        if ts.queue.len() >= ts.quota.max_queued {
            ts.shed_queue += 1;
            // Backoff hint: the head-of-queue job's virtual distance is
            // meaningless wall-clock, so hint one bucket refill instead.
            let retry = Duration::from_secs_f64(1.0 / ts.quota.rate.max(1.0));
            return Err(AdmitError::QueueFull { retry_after: retry });
        }
        let start = global_vtime.max(ts.last_finish);
        let finish = start + cost / f64::from(ts.quota.weight.max(1));
        ts.last_finish = finish;
        ts.queue.push_back(Job { start_tag: start, finish_tag: finish, enqueued: now, payload });
        ts.enqueued += 1;
        st.queued_total += 1;
        drop(st);
        self.cv.notify_all();
        Ok(())
    }

    /// Blocks until a dispatch slot and a queued job exist, then
    /// releases the minimum-start-tag job. Returns `None` on shutdown
    /// with an empty queue (drain semantics: queued jobs still flow).
    pub fn next(&self) -> Option<(String, T)> {
        let mut st = self.state.lock().expect("scheduler lock");
        loop {
            if st.queued_total > 0 && st.inflight < self.config.max_inflight {
                let (tenant, _) = st
                    .tenants
                    .iter()
                    .filter_map(|(name, ts)| {
                        ts.queue.front().map(|job| (name.clone(), job.start_tag))
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("queued_total > 0 implies a non-empty queue");
                let ts = st.tenants.get_mut(&tenant).expect("tenant exists");
                let job = ts.queue.pop_front().expect("non-empty");
                ts.dispatched += 1;
                ts.wait.observe(job.enqueued.elapsed());
                st.queued_total -= 1;
                st.inflight += 1;
                st.global_vtime = st.global_vtime.max(job.start_tag);
                let _ = job.finish_tag;
                return Some((tenant, job.payload));
            }
            if st.shutdown && st.queued_total == 0 {
                return None;
            }
            st = self.cv.wait(st).expect("scheduler lock");
        }
    }

    /// Reports a dispatched job's completion, freeing its slot.
    pub fn complete(&self, tenant: &str) {
        let mut st = self.state.lock().expect("scheduler lock");
        st.inflight = st.inflight.saturating_sub(1);
        if let Some(ts) = st.tenants.get_mut(tenant) {
            ts.completed += 1;
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Stops admission and wakes the dispatcher; queued jobs drain.
    pub fn shutdown(&self) {
        self.state.lock().expect("scheduler lock").shutdown = true;
        self.cv.notify_all();
    }

    /// Per-tenant accounting, sorted by label.
    pub fn snapshot(&self) -> Vec<TenantSnapshot> {
        let st = self.state.lock().expect("scheduler lock");
        let mut out: Vec<TenantSnapshot> = st
            .tenants
            .iter()
            .map(|(name, ts)| TenantSnapshot {
                tenant: name.clone(),
                weight: ts.quota.weight,
                enqueued: ts.enqueued,
                dispatched: ts.dispatched,
                completed: ts.completed,
                shed_quota: ts.shed_quota,
                shed_queue: ts.shed_queue,
                queued: ts.queue.len(),
                wait: ts.wait.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(max_inflight: usize, quotas: &[(&str, TenantQuota)]) -> SchedulerConfig {
        SchedulerConfig {
            max_inflight,
            default_quota: TenantQuota::default(),
            tenant_quotas: quotas.iter().map(|(n, q)| (n.to_string(), *q)).collect(),
        }
    }

    #[test]
    fn weighted_interleave_follows_weights() {
        // Tenant a (weight 3) and b (weight 1), both backlogged with
        // unit-cost jobs: every window of 4 dispatches holds 3 a's.
        let quota_a = TenantQuota { weight: 3, ..TenantQuota::default() };
        let quota_b = TenantQuota { weight: 1, ..TenantQuota::default() };
        let sched: FairScheduler<&'static str> =
            FairScheduler::new(config(1, &[("a", quota_a), ("b", quota_b)]));
        for _ in 0..12 {
            sched.admit("a", 1.0, 0.0, "a").unwrap();
        }
        for _ in 0..4 {
            sched.admit("b", 1.0, 0.0, "b").unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..16 {
            let (tenant, _) = sched.next().expect("queued work");
            sched.complete(&tenant);
            order.push(tenant);
        }
        let a_in_first_8 = order.iter().take(8).filter(|t| *t == "a").count();
        assert!(
            (5..=7).contains(&a_in_first_8),
            "weight-3 tenant got {a_in_first_8}/8 early slots: {order:?}"
        );
        assert_eq!(order.iter().filter(|t| *t == "a").count(), 12);
    }

    #[test]
    fn token_bucket_sheds_and_recovers() {
        let quota = TenantQuota { rate: 10.0, burst: 2.0, ..TenantQuota::default() };
        let sched: FairScheduler<u32> = FairScheduler::new(config(4, &[("t", quota)]));
        sched.admit("t", 1.0, 0.0, 0).unwrap();
        sched.admit("t", 1.0, 0.0, 1).unwrap();
        let err = sched.admit("t", 1.0, 0.0, 2).unwrap_err();
        match err {
            AdmitError::Quota { retry_after } => {
                assert!(retry_after <= Duration::from_millis(150), "{retry_after:?}");
            }
            other => panic!("expected quota shed, got {other:?}"),
        }
        let snap = sched.snapshot();
        assert_eq!(snap[0].shed_quota, 1);
        assert_eq!(snap[0].enqueued, 2);
        // After a refill interval the bucket admits again.
        std::thread::sleep(Duration::from_millis(120));
        sched.admit("t", 1.0, 0.0, 3).expect("bucket refilled");
    }

    #[test]
    fn per_tenant_queue_bound_sheds() {
        let quota = TenantQuota { max_queued: 2, ..TenantQuota::default() };
        let sched: FairScheduler<u32> = FairScheduler::new(config(1, &[("t", quota)]));
        sched.admit("t", 1.0, 0.0, 0).unwrap();
        sched.admit("t", 1.0, 0.0, 1).unwrap();
        assert!(matches!(sched.admit("t", 1.0, 0.0, 2), Err(AdmitError::QueueFull { .. })));
        assert_eq!(sched.snapshot()[0].shed_queue, 1);
    }

    #[test]
    fn idle_tenant_gains_no_credit() {
        // b stays idle while a dispatches many jobs; when b arrives its
        // start tag clamps to the global clock, so it does not monopolize.
        let sched: FairScheduler<&'static str> = FairScheduler::new(config(1, &[]));
        for _ in 0..8 {
            sched.admit("a", 1.0, 0.0, "a").unwrap();
        }
        for _ in 0..4 {
            let (t, _) = sched.next().unwrap();
            sched.complete(&t);
        }
        for _ in 0..4 {
            sched.admit("b", 1.0, 0.0, "b").unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..8 {
            let (t, _) = sched.next().unwrap();
            sched.complete(&t);
            order.push(t);
        }
        // Equal weights from here on: roughly alternating, not b-first-4.
        let b_in_first_4 = order.iter().take(4).filter(|t| *t == "b").count();
        assert!(b_in_first_4 <= 3, "idle tenant burst ahead: {order:?}");
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let sched: FairScheduler<u32> = FairScheduler::new(config(1, &[]));
        sched.admit("t", 1.0, 0.0, 7).unwrap();
        sched.shutdown();
        assert!(matches!(sched.admit("t", 1.0, 0.0, 8), Err(AdmitError::ShuttingDown)));
        let (t, v) = sched.next().expect("drain the queued job");
        assert_eq!((t.as_str(), v), ("t", 7));
        sched.complete("t");
        assert!(sched.next().is_none());
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = WaitHistogram::default();
        h.observe(Duration::from_micros(50));
        h.observe(Duration::from_micros(500));
        h.observe(Duration::from_secs(20));
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1); // <= 100us
        assert_eq!(h.buckets[1], 2); // <= 1ms
        assert_eq!(h.buckets[WAIT_BUCKETS_US.len()], 3); // +Inf
    }
}
