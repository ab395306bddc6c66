//! The micro-batching service: admission, coalescing, execution,
//! slicing, and the robustness contract.
//!
//! One worker thread drains a bounded queue. Each cycle it dequeues the
//! oldest runnable request, holds the batch open for
//! [`ServiceConfig::batch_window`] (or until
//! [`ServiceConfig::max_batch_instances`] accumulate), pulling in every
//! queued request with the same **batch key** — resolved algorithm
//! identity plus RNG seed, the pair that guarantees two requests draw
//! from the same stream family. The batch runs as one multi-instance
//! launch per contiguous `instance_base` segment (gaps appear when an
//! admitted request expires before running), and the launch output is
//! sliced back into per-request responses.
//!
//! Robustness:
//!
//! - **Load shedding**: a full queue rejects at admission with a
//!   retry-after hint; nothing is queued that cannot be tracked.
//! - **Deadlines**: checked when the batcher dequeues a request *and*
//!   again when its batch completes — a response that would arrive late
//!   is reported as [`ServiceError::Expired`], never silently dropped.
//! - **Panic isolation**: each launch runs under `catch_unwind`; a
//!   poisoned request fails its own batch with
//!   [`ServiceError::BatchFailed`] and the worker keeps serving.
//! - **Drain on shutdown**: `shutdown()` stops admission, processes
//!   everything already queued (skipping the batch window), then joins
//!   the worker.

use crate::api::{
    MutationRequest, MutationResponse, RequestAlgo, RequestError, RequestStats, SamplingRequest,
    SamplingResponse, ServiceError,
};
use crate::executor::{BatchExecutor, EngineExecutor};
use crate::stats::{ServiceStats, StatsSnapshot};
use csaw_core::algorithms::registry::AlgoKey;
use csaw_core::api::Algorithm;
use csaw_core::ctps_cache::CtpsCache;
use csaw_core::engine::{validate_seed_sets, RunError, RunOptions};
use csaw_graph::{Csr, EditError, MutableGraph, VertexId};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Batching and admission knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Close a batch once it holds this many sampling instances.
    pub max_batch_instances: usize,
    /// How long the batcher holds a batch open for more same-key
    /// requests after dequeuing its first member.
    pub batch_window: Duration,
    /// Maximum queued requests; admissions beyond this are shed.
    pub queue_capacity: usize,
    /// Start with the batcher paused (requests queue but nothing runs
    /// until [`SamplingService::resume`]) — deterministic batching for
    /// tests and controlled warm-up.
    pub start_paused: bool,
    /// Byte budget for the per-algorithm hot-vertex CTPS caches shared
    /// across every batch the worker serves (0 disables caching).
    /// Coalesced same-graph requests re-hit transition-probability
    /// tables built for earlier batches of the same algorithm.
    pub ctps_cache_budget: usize,
    /// Optional disk tier (see `csaw_core::residency`): every launch
    /// gathers through the store's mmap-backed segments with on-demand
    /// decode into per-worker pools instead of the resident CSR.
    /// Responses stay bit-identical to in-memory runs at every pool
    /// budget. A disk-backed service refuses edits —
    /// [`SamplingService::mutate`] is rejected with
    /// `EditError::ImmutableStore` — because [`SamplingService::compact`]
    /// folds the overlay into a fresh base, and here the base is the
    /// store, which compaction would have to rewrite. The service installs its own
    /// [`csaw_core::residency::DiskTierStats`] sink when `shared` is
    /// `None`, surfacing pool gauges through [`StatsSnapshot`].
    pub disk: Option<csaw_core::residency::DiskRunConfig>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_batch_instances: 64,
            batch_window: Duration::from_millis(2),
            queue_capacity: 256,
            start_paused: false,
            ctps_cache_budget: 4 << 20,
            disk: None,
        }
    }
}

/// Resolved algorithm identity for coalescing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum AlgoIdentity {
    /// Registry specs coalesce by resolved parameter key.
    Spec(AlgoKey),
    /// Custom algorithms coalesce only by `Arc` pointer identity.
    Custom(usize),
}

/// Only requests with equal keys may share a launch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BatchKey {
    algo: AlgoIdentity,
    rng_seed: u64,
}

/// An admitted request waiting in the queue.
struct Queued {
    id: u64,
    key: BatchKey,
    algo: Arc<dyn Algorithm>,
    seed_sets: Vec<Vec<VertexId>>,
    instance_base: u32,
    admitted: Instant,
    expires: Option<Instant>,
    reply: mpsc::Sender<Result<SamplingResponse, ServiceError>>,
}

struct State {
    queue: VecDeque<Queued>,
    /// Next instance_base per batch key — admission assigns each
    /// request the contiguous range `[base, base + instances)`.
    next_base: HashMap<BatchKey, u32>,
    next_id: u64,
    paused: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    stats: ServiceStats,
    config: ServiceConfig,
    /// The live graph: the immutable CSR the service was started with
    /// plus the delta overlay accumulated by [`SamplingService::mutate`].
    /// Batches capture a snapshot at launch time, so every walk in a
    /// batch sees exactly one epoch regardless of concurrent edits.
    mutable: Mutex<MutableGraph>,
}

/// Handle to one submitted request.
#[derive(Debug)]
pub struct Ticket {
    request_id: u64,
    instance_base: u32,
    rx: mpsc::Receiver<Result<SamplingResponse, ServiceError>>,
}

impl Ticket {
    /// Admission-order id.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The global instance range start assigned at admission — a solo
    /// engine run with this `instance_base` reproduces the response.
    pub fn instance_base(&self) -> u32 {
        self.instance_base
    }

    /// Blocks until the request reaches a terminal state.
    pub fn wait(self) -> Result<SamplingResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }
}

/// The sampling service (see module docs).
pub struct SamplingService {
    shared: Arc<Shared>,
    graph: Arc<Csr>,
    worker: Option<thread::JoinHandle<()>>,
}

impl SamplingService {
    /// Starts the service with an explicit executor.
    pub fn new(
        graph: Arc<Csr>,
        executor: Arc<dyn BatchExecutor>,
        mut config: ServiceConfig,
    ) -> SamplingService {
        // A disk-backed service owns the tier's observability sink so
        // batch processing can publish pool gauges into the snapshot.
        if let Some(disk) = config.disk.as_mut() {
            if disk.shared.is_none() {
                disk.shared = Some(Arc::new(csaw_core::residency::DiskTierStats::default()));
            }
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                next_base: HashMap::new(),
                next_id: 0,
                paused: config.start_paused,
                shutdown: false,
            }),
            cv: Condvar::new(),
            stats: ServiceStats::default(),
            config,
            mutable: Mutex::new(MutableGraph::from_arc(Arc::clone(&graph))),
        });
        // Return only once the worker has allocated. glibc hands a
        // thread, at its first allocation, the arena most recently freed
        // by an exited thread; taken before the caller can start other
        // threads, that is the arena of the worker of a service stopped
        // just before, so this worker's CTPS cache reuses the pages that
        // one's faulted in. Left to a race, another thread could take
        // them, and the process then holds two caches' worth of pages.
        let (ready, started) = mpsc::channel();
        let worker = {
            let shared = Arc::clone(&shared);
            let graph = Arc::clone(&graph);
            thread::Builder::new()
                .name("csaw-service".into())
                .spawn(move || worker_loop(&shared, &graph, &*executor, ready))
                .expect("spawn service worker")
        };
        let _ = started.recv();
        SamplingService { shared, graph, worker: Some(worker) }
    }

    /// Starts the service on the in-memory engine.
    pub fn with_engine(graph: Arc<Csr>, config: ServiceConfig) -> SamplingService {
        SamplingService::new(graph, Arc::new(EngineExecutor), config)
    }

    /// Validates and enqueues a request. Returns a [`Ticket`] to wait
    /// on, or a typed rejection (malformed request, full queue,
    /// shutdown) — rejected requests never enter the queue.
    pub fn submit(&self, req: SamplingRequest) -> Result<Ticket, ServiceError> {
        self.submit_group(vec![req]).map(|mut tickets| tickets.pop().expect("one ticket"))
    }

    /// Validates and enqueues a group of requests **atomically**: either
    /// every request is admitted under one lock acquisition — so
    /// same-key members receive *contiguous* `instance_base` ranges with
    /// nothing interleaved between them — or none is (the first
    /// validation error, a queue without room for the whole group, or
    /// shutdown rejects the group as a unit). This is the hook a
    /// streaming front end uses to split one long request into chunks
    /// whose reassembly is bit-identical to the unsplit request: chunk
    /// `k`'s instances are keyed exactly where the solo run would key
    /// them.
    pub fn submit_group(&self, reqs: Vec<SamplingRequest>) -> Result<Vec<Ticket>, ServiceError> {
        let stats = &self.shared.stats;
        let n = reqs.len() as u64;
        ServiceStats::add(&stats.submitted, n);

        let invalid = |e: RequestError| {
            // All-or-nothing: every member of a rejected group reaches
            // the same terminal counter.
            ServiceStats::add(&stats.rejected_invalid, n);
            ServiceError::Invalid(e)
        };
        // Validate every member before touching the queue.
        struct Validated {
            key: BatchKey,
            algo: Arc<dyn Algorithm>,
            seed_sets: Vec<Vec<VertexId>>,
            deadline: Option<Duration>,
            tenant: Option<String>,
        }
        let mut validated = Vec::with_capacity(reqs.len());
        for req in reqs {
            let (algo, identity): (Arc<dyn Algorithm>, AlgoIdentity) = match &req.algo {
                RequestAlgo::Spec(spec) => {
                    let key = spec.key();
                    let built = spec.build().map_err(|e| invalid(RequestError::Algorithm(e)))?;
                    (Arc::from(built), AlgoIdentity::Spec(key))
                }
                RequestAlgo::Custom(a) => {
                    let ptr = Arc::as_ptr(a) as *const () as usize;
                    (Arc::clone(a), AlgoIdentity::Custom(ptr))
                }
            };
            if req.seeds.is_empty() {
                // An empty seed list would occupy zero instances and
                // could never be answered; reject it up front.
                return Err(invalid(RequestError::Seeds(RunError::EmptySeedSet { instance: 0 })));
            }
            let seed_sets = req.shape_seed_sets(&*algo);
            validate_seed_sets(&self.graph, &seed_sets)
                .map_err(|e| invalid(RequestError::Seeds(e)))?;
            validated.push(Validated {
                key: BatchKey { algo: identity, rng_seed: req.rng_seed },
                algo,
                seed_sets,
                deadline: req.deadline,
                tenant: req.tenant,
            });
        }
        if validated.is_empty() {
            return Ok(Vec::new());
        }

        let admitted = Instant::now();
        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            ServiceStats::add(&stats.rejected_shutdown, n);
            return Err(ServiceError::ShuttingDown);
        }
        if st.queue.len() + validated.len() > self.shared.config.queue_capacity {
            ServiceStats::add(&stats.rejected_queue_full, n);
            for v in &validated {
                stats.record_tenant_shed(v.tenant.as_deref().unwrap_or(""));
            }
            // One batch window is roughly how long until the worker
            // next relieves the queue.
            let retry_after = self.shared.config.batch_window.max(Duration::from_micros(100));
            return Err(ServiceError::QueueFull { retry_after });
        }
        let mut tickets = Vec::with_capacity(validated.len());
        for v in validated {
            let instances = v.seed_sets.len() as u32;
            let base_slot = st.next_base.entry(v.key.clone()).or_insert(0);
            let instance_base = *base_slot;
            *base_slot += instances;
            let id = st.next_id;
            st.next_id += 1;
            let (tx, rx) = mpsc::channel();
            st.queue.push_back(Queued {
                id,
                key: v.key,
                algo: v.algo,
                seed_sets: v.seed_sets,
                instance_base,
                admitted,
                expires: v.deadline.map(|d| admitted + d),
                reply: tx,
            });
            ServiceStats::inc(&stats.accepted);
            tickets.push(Ticket { request_id: id, instance_base, rx });
        }
        stats.queue_depth.store(st.queue.len() as u64, Relaxed);
        drop(st);
        self.shared.cv.notify_all();
        Ok(tickets)
    }

    /// Applies a batch of edge edits to the live graph atomically and
    /// returns the new epoch. Batches already launched keep the snapshot
    /// they captured; batches dequeued after this call see the new epoch.
    /// Invalidation is 1-hop: a cached CTPS entry goes stale when the batch
    /// edits its vertex or one of that vertex's neighbors (degree bias
    /// reads `degree(dst)`); every other entry stays valid.
    pub fn mutate(&self, req: MutationRequest) -> Result<MutationResponse, EditError> {
        let stats = &self.shared.stats;
        ServiceStats::inc(&stats.mutations_submitted);
        if self.shared.config.disk.is_some() {
            // Compaction folds the overlay into a fresh base; on the disk
            // tier that base is the mapped store, which it cannot rewrite.
            ServiceStats::inc(&stats.mutations_rejected);
            return Err(EditError::ImmutableStore);
        }
        let mut g = self.shared.mutable.lock().unwrap();
        let epoch = match g.apply_batch(&req.edits) {
            Ok(epoch) => epoch,
            Err(e) => {
                // A rejected batch is rolled back whole; the ledger
                // still accounts for it (mutations_submitted ==
                // mutations + mutations_rejected).
                ServiceStats::inc(&stats.mutations_rejected);
                return Err(e);
            }
        };
        let overlay_vertices = g.overlay_vertices();
        drop(g);
        ServiceStats::inc(&stats.mutations);
        stats.graph_epoch.store(epoch, Relaxed);
        stats.overlay_vertices.store(overlay_vertices as u64, Relaxed);
        Ok(MutationResponse { epoch, overlay_vertices })
    }

    /// Folds the delta overlay into a fresh base CSR. Returns the number
    /// of vertices folded. The epoch does not change, in-flight snapshots
    /// stay valid, and walks remain bit-identical before vs after.
    pub fn compact(&self) -> usize {
        let stats = &self.shared.stats;
        ServiceStats::inc(&stats.compact_requests);
        let mut g = self.shared.mutable.lock().unwrap();
        let folded = g.compact();
        let overlay_vertices = g.overlay_vertices();
        drop(g);
        if folded > 0 {
            ServiceStats::inc(&stats.compactions);
        } else {
            ServiceStats::inc(&stats.compact_noops);
        }
        stats.overlay_vertices.store(overlay_vertices as u64, Relaxed);
        folded
    }

    /// The live graph's current epoch (0 until the first mutation).
    pub fn graph_epoch(&self) -> u64 {
        self.shared.mutable.lock().unwrap().epoch()
    }

    /// Unpauses a service started with [`ServiceConfig::start_paused`].
    pub fn resume(&self) {
        self.shared.state.lock().unwrap().paused = false;
        self.shared.cv.notify_all();
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Queue-full sheds split by tenant label (see
    /// [`ServiceStats::tenant_sheds`]).
    pub fn tenant_sheds(&self) -> Vec<(String, u64)> {
        self.shared.stats.tenant_sheds()
    }

    /// The configured queue capacity (admissions beyond it are shed).
    pub fn queue_capacity(&self) -> usize {
        self.shared.config.queue_capacity
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Stops admission, drains every queued request, joins the worker,
    /// and returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.begin_shutdown();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        self.shared.stats.snapshot()
    }

    fn begin_shutdown(&self) {
        let mut st = self.shared.state.lock().unwrap();
        st.shutdown = true;
        // A paused service still drains: shutdown overrides pause.
        st.paused = false;
        drop(st);
        self.shared.cv.notify_all();
    }
}

impl Drop for SamplingService {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    shared: &Shared,
    graph: &Csr,
    executor: &dyn BatchExecutor,
    ready: mpsc::Sender<()>,
) {
    // One hot-vertex CTPS cache per algorithm identity, shared by every
    // batch the worker serves for that algorithm: coalesced same-graph
    // requests re-hit transition-probability tables built for earlier
    // batches. The map lives as long as the worker, so the cache's byte
    // budget — not batch boundaries — bounds its footprint. Allocated
    // before `ready`, so the worker has allocated by the time
    // `SamplingService::new` returns.
    let mut caches: HashMap<AlgoIdentity, Arc<CtpsCache>> = HashMap::with_capacity(1);
    let _ = ready.send(());
    while let Some(batch) = collect_batch(shared) {
        process_batch(shared, graph, executor, batch, &mut caches);
    }
}

/// Marks a dequeued-but-expired request terminal.
fn expire(shared: &Shared, q: Queued) {
    ServiceStats::inc(&shared.stats.expired);
    let _ = q.reply.send(Err(ServiceError::Expired));
}

/// Blocks until a batch is ready (first runnable request + window /
/// size policy); `None` once the queue is drained after shutdown.
fn collect_batch(shared: &Shared) -> Option<Vec<Queued>> {
    let cfg = &shared.config;
    let mut st = shared.state.lock().unwrap();

    // Wait for the oldest runnable request, expiring dead heads as they
    // come off the queue.
    let first = loop {
        if !st.paused {
            let mut head = None;
            while let Some(q) = st.queue.pop_front() {
                if q.expires.is_some_and(|e| Instant::now() > e) {
                    expire(shared, q);
                } else {
                    head = Some(q);
                    break;
                }
            }
            if let Some(q) = head {
                break q;
            }
            if st.shutdown {
                shared.stats.queue_depth.store(0, Relaxed);
                return None;
            }
        }
        st = shared.cv.wait(st).unwrap();
    };

    let key = first.key.clone();
    let mut instances = first.seed_sets.len();
    let mut batch = vec![first];
    let window_closes = Instant::now() + cfg.batch_window;
    loop {
        pull_same_key(shared, &mut st.queue, &key, &mut batch, &mut instances);
        if instances >= cfg.max_batch_instances || st.shutdown {
            // Full, or draining — don't hold the batch open.
            break;
        }
        // Early flush: if the queue is empty and every accepted request
        // that hasn't reached a terminal state is already in this batch,
        // no same-key arrival is possible until *this* batch answers —
        // lockstep callers (serve loopback clients awaiting replies)
        // would otherwise stall a full window per round trip. `accepted`
        // is bumped under the state lock we hold, and the terminal
        // counters lag only for requests this worker already finished,
        // so the inflight read can only over-count — never under-count —
        // requests outside the batch.
        let stats = &shared.stats;
        let inflight = stats
            .accepted
            .load(Relaxed)
            .saturating_sub(stats.completed.load(Relaxed))
            .saturating_sub(stats.expired.load(Relaxed))
            .saturating_sub(stats.failed.load(Relaxed));
        if st.queue.is_empty() && inflight == batch.len() as u64 {
            break;
        }
        let now = Instant::now();
        if now >= window_closes {
            break;
        }
        let (guard, timeout) = shared.cv.wait_timeout(st, window_closes - now).unwrap();
        st = guard;
        if timeout.timed_out() {
            // One final sweep for requests that arrived with the
            // notification that raced the timeout, then close.
            pull_same_key(shared, &mut st.queue, &key, &mut batch, &mut instances);
            break;
        }
    }
    shared.stats.queue_depth.store(st.queue.len() as u64, Relaxed);
    Some(batch)
}

/// Moves every queued `key` request (in admission order) into `batch`
/// while the batch holds fewer than `max_batch_instances`, adding each
/// one's instances to `instances`; expired ones terminate here — dequeue
/// is a deadline checkpoint.
fn pull_same_key(
    shared: &Shared,
    queue: &mut VecDeque<Queued>,
    key: &BatchKey,
    batch: &mut Vec<Queued>,
    instances: &mut usize,
) {
    let mut i = 0;
    while i < queue.len() && *instances < shared.config.max_batch_instances {
        if queue[i].key != *key {
            i += 1;
            continue;
        }
        let q = queue.remove(i).expect("index in bounds");
        if q.expires.is_some_and(|e| Instant::now() > e) {
            expire(shared, q);
        } else {
            *instances += q.seed_sets.len();
            batch.push(q);
        }
    }
}

/// Runs one batch: contiguous-segment launches, output slicing,
/// completion-time deadline checks, and panic isolation.
fn process_batch(
    shared: &Shared,
    graph: &Csr,
    executor: &dyn BatchExecutor,
    batch: Vec<Queued>,
    caches: &mut HashMap<AlgoIdentity, Arc<CtpsCache>>,
) {
    let stats = &shared.stats;
    let batch_requests = batch.len();
    let batch_instances: usize = batch.iter().map(|q| q.seed_sets.len()).sum();
    stats.record_batch(batch_instances);
    let rng_seed = batch[0].key.rng_seed;
    let algo = Arc::clone(&batch[0].algo);

    // Only algorithms whose edge bias is static and non-uniform consult
    // the cache; everything else skips the map so a stray key never
    // pins an unused allocation.
    let budget = shared.config.ctps_cache_budget;
    let cache: Option<Arc<CtpsCache>> =
        (budget > 0 && algo.edge_bias_is_static() && !algo.edge_bias_is_uniform()).then(|| {
            Arc::clone(
                caches
                    .entry(batch[0].key.algo.clone())
                    .or_insert_with(|| Arc::new(CtpsCache::new(budget))),
            )
        });

    // Expired admissions leave gaps in the instance_base sequence; each
    // contiguous run of instances is one launch (RNG streams are keyed
    // by global instance, so a segment launch at the segment's base
    // reproduces exactly the solo draws).
    let mut segments: Vec<Vec<Queued>> = Vec::new();
    for q in batch {
        match segments.last_mut() {
            Some(seg)
                if seg.last().map(|p| p.instance_base + p.seed_sets.len() as u32)
                    == Some(q.instance_base) =>
            {
                seg.push(q);
            }
            _ => segments.push(vec![q]),
        }
    }

    // Launch-time epoch capture: every segment of this batch runs against
    // exactly this snapshot, even if `mutate` lands mid-batch. A
    // never-mutated service (epoch 0) keeps the static path byte-for-byte:
    // no snapshot is attached and the original CSR is used directly.
    let snap = shared.mutable.lock().unwrap().snapshot();
    let (run_graph, snapshot) =
        if snap.epoch() > 0 { (snap.base(), Some(snap.clone())) } else { (graph, None) };

    let dequeued = Instant::now();
    for seg in segments {
        let seed_sets: Vec<Vec<VertexId>> =
            seg.iter().flat_map(|q| q.seed_sets.iter().cloned()).collect();
        let opts = RunOptions {
            seed: rng_seed,
            instance_base: seg[0].instance_base,
            ctps_cache: cache.clone(),
            snapshot: snapshot.clone(),
            disk: shared.config.disk.clone(),
            ..RunOptions::default()
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            executor.execute(run_graph, &*algo, &seed_sets, opts)
        }));
        // Publish cache totals before any reply goes out: a caller that
        // has observed its response must also observe the cache-gauge
        // deltas its batch caused (tests read `stats()` right after
        // `wait()` returns).
        publish_cache_totals(stats, caches);
        if let Some(tier) = shared.config.disk.as_ref().and_then(|d| d.shared.as_deref()) {
            stats.record_disk(tier);
        }
        match result {
            Err(payload) => {
                let msg = panic_message(&payload);
                for q in seg {
                    ServiceStats::inc(&stats.failed);
                    let _ = q.reply.send(Err(ServiceError::BatchFailed(msg.clone())));
                }
            }
            Ok(out) => {
                ServiceStats::add(&stats.sampled_edges, out.stats.sampled_edges);
                stats.record_methods(&out.stats);
                let counts: Vec<usize> = seg.iter().map(|q| q.seed_sets.len()).collect();
                let parts = out.split_by_counts(&counts);
                let completed_at = Instant::now();
                for (q, part) in seg.into_iter().zip(parts) {
                    if q.expires.is_some_and(|e| completed_at > e) {
                        // The result exists but arrived late: the
                        // deadline contract reports that, always.
                        expire(shared, q);
                        continue;
                    }
                    ServiceStats::inc(&stats.completed);
                    let response = SamplingResponse {
                        request_id: q.id,
                        instance_base: q.instance_base,
                        stats: RequestStats {
                            batch_requests,
                            batch_instances,
                            queue_wait: dequeued.saturating_duration_since(q.admitted),
                            sampled_edges: part.sampled_edges(),
                        },
                        output: part,
                    };
                    let _ = q.reply.send(Ok(response));
                }
            }
        }
    }
}

/// Publish worker-lifetime cache totals (the caches outlive batches, so
/// these are gauges: each publish replaces the last).
fn publish_cache_totals(stats: &ServiceStats, caches: &HashMap<AlgoIdentity, Arc<CtpsCache>>) {
    let mut totals = csaw_core::ctps_cache::CacheSnapshot::default();
    for c in caches.values() {
        let s = c.snapshot();
        totals.lookups += s.lookups;
        totals.hits += s.hits;
        totals.misses += s.misses;
        totals.promotions += s.promotions;
        totals.evictions += s.evictions;
        totals.evictions_clock += s.evictions_clock;
        totals.evictions_stale += s.evictions_stale;
        totals.evictions_replaced += s.evictions_replaced;
        totals.bytes += s.bytes;
    }
    stats.record_cache(&totals);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "batch panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RequestAlgo;
    use csaw_core::AlgoSpec;
    use csaw_graph::generators::toy_graph;

    fn engine_service(config: ServiceConfig) -> SamplingService {
        SamplingService::with_engine(Arc::new(toy_graph()), config)
    }

    #[test]
    fn round_trip_single_request() {
        let svc = engine_service(ServiceConfig::default());
        let req = SamplingRequest::new(RequestAlgo::by_name("biased-walk").unwrap(), vec![0, 8]);
        let resp = svc.submit(req).unwrap().wait().unwrap();
        assert_eq!(resp.instance_base, 0);
        assert_eq!(resp.output.instances.len(), 2);
        assert!(resp.stats.sampled_edges > 0);
        let snap = svc.shutdown();
        assert_eq!(snap.completed, 1);
        assert!(snap.fully_accounted());
    }

    #[test]
    fn paused_service_coalesces_everything_queued() {
        let svc = engine_service(ServiceConfig {
            start_paused: true,
            max_batch_instances: 64,
            ..ServiceConfig::default()
        });
        let spec = AlgoSpec::by_name("simple-walk").unwrap();
        let tickets: Vec<Ticket> = (0u32..4)
            .map(|i| svc.submit(SamplingRequest::new(spec, vec![i, i + 4])).unwrap())
            .collect();
        assert_eq!(svc.queue_depth(), 4);
        svc.resume();
        let mut bases = Vec::new();
        for t in tickets {
            let resp = t.wait().unwrap();
            assert_eq!(resp.stats.batch_requests, 4);
            assert_eq!(resp.stats.batch_instances, 8);
            bases.push(resp.instance_base);
        }
        assert_eq!(bases, vec![0, 2, 4, 6], "contiguous admission-order ranges");
        assert!(svc.shutdown().fully_accounted());
    }

    #[test]
    fn lockstep_callers_do_not_pay_the_batch_window() {
        // Regression: a sequential caller (submit, wait, repeat) used to
        // stall one full batch window per round trip even though no other
        // request could possibly join the batch. With the early flush,
        // six round trips against a deliberately huge window must finish
        // in a fraction of a single window.
        let window = Duration::from_millis(500);
        let svc =
            engine_service(ServiceConfig { batch_window: window, ..ServiceConfig::default() });
        let spec = AlgoSpec::by_name("simple-walk").unwrap();
        let start = Instant::now();
        for i in 0u32..6 {
            let resp =
                svc.submit(SamplingRequest::new(spec, vec![i % 13])).unwrap().wait().unwrap();
            assert_eq!(resp.stats.batch_requests, 1);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < window,
            "6 lockstep round trips took {elapsed:?}; early flush should beat one {window:?} window"
        );
        let snap = svc.shutdown();
        assert_eq!(snap.completed, 6);
        assert!(snap.fully_accounted());
    }

    #[test]
    fn different_rng_seeds_never_share_a_batch() {
        let svc = engine_service(ServiceConfig { start_paused: true, ..ServiceConfig::default() });
        let spec = AlgoSpec::by_name("simple-walk").unwrap();
        let a = svc.submit(SamplingRequest::new(spec, vec![0]).with_rng_seed(1)).unwrap();
        let b = svc.submit(SamplingRequest::new(spec, vec![0]).with_rng_seed(2)).unwrap();
        svc.resume();
        let ra = a.wait().unwrap();
        let rb = b.wait().unwrap();
        assert_eq!(ra.stats.batch_requests, 1);
        assert_eq!(rb.stats.batch_requests, 1);
        // Both are the first instance of their own stream family.
        assert_eq!(ra.instance_base, 0);
        assert_eq!(rb.instance_base, 0);
        let snap = svc.shutdown();
        assert_eq!(snap.batches, 2);
    }

    #[test]
    fn invalid_requests_rejected_up_front() {
        let svc = engine_service(ServiceConfig::default());
        let spec = AlgoSpec::by_name("neighbor").unwrap();
        // Out-of-range seed (toy graph has 13 vertices).
        let err = svc.submit(SamplingRequest::new(spec, vec![0, 999])).unwrap_err();
        assert!(matches!(err, ServiceError::Invalid(RequestError::Seeds(_))), "{err:?}");
        // Empty seed set.
        let err = svc.submit(SamplingRequest::new(spec, vec![])).unwrap_err();
        assert!(matches!(err, ServiceError::Invalid(RequestError::Seeds(_))), "{err:?}");
        // Zero depth.
        let err = svc.submit(SamplingRequest::new(spec.with_depth(0), vec![0])).unwrap_err();
        assert!(matches!(err, ServiceError::Invalid(RequestError::Algorithm(_))), "{err:?}");
        let snap = svc.shutdown();
        assert_eq!(snap.rejected_invalid, 3);
        assert!(snap.fully_accounted());
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let svc = engine_service(ServiceConfig::default());
        svc.begin_shutdown();
        let spec = AlgoSpec::by_name("simple-walk").unwrap();
        let err = svc.submit(SamplingRequest::new(spec, vec![0])).unwrap_err();
        assert_eq!(err, ServiceError::ShuttingDown);
        let snap = svc.shutdown();
        assert_eq!(snap.rejected_shutdown, 1);
        assert!(snap.fully_accounted());
    }

    #[test]
    fn max_batch_instances_splits_oversized_coalescing() {
        let svc = engine_service(ServiceConfig {
            start_paused: true,
            max_batch_instances: 3,
            ..ServiceConfig::default()
        });
        let spec = AlgoSpec::by_name("simple-walk").unwrap();
        let tickets: Vec<Ticket> =
            (0u32..6).map(|i| svc.submit(SamplingRequest::new(spec, vec![i])).unwrap()).collect();
        svc.resume();
        for t in tickets {
            let resp = t.wait().unwrap();
            assert!(resp.stats.batch_instances <= 3, "{}", resp.stats.batch_instances);
        }
        let snap = svc.shutdown();
        assert_eq!(snap.batches, 2);
        assert!(snap.fully_accounted());
    }

    #[test]
    fn mdrw_request_is_one_pooled_instance() {
        let svc = engine_service(ServiceConfig::default());
        let spec = AlgoSpec::by_name("mdrw").unwrap().with_depth(6);
        let resp = svc.submit(SamplingRequest::new(spec, vec![0, 4, 8])).unwrap().wait().unwrap();
        assert_eq!(resp.output.instances.len(), 1, "pool seeds one instance");
        assert!(svc.shutdown().fully_accounted());
    }
}
