//! The out-of-memory scheduler (paper §V-A..C, Fig. 8).
//!
//! The graph is split into contiguous vertex-range partitions; each
//! partition owns a frontier queue (`VertexID`/`InstanceID`/`CurrDepth`).
//! Per scheduling round, the runtime:
//!
//! 1. counts active frontier vertices per partition (workload);
//! 2. picks up to `num_kernels` partitions (most-loaded first under
//!    workload-aware scheduling), transfers the non-resident ones with
//!    `cudaMemcpyAsync`-style copies overlapped on streams;
//! 3. launches one kernel per chosen partition, with thread blocks
//!    allotted evenly or proportionally to workload (balancing);
//! 4. each kernel drains its partition's queue — under workload-aware
//!    scheduling a partition keeps draining the entries it inserts into
//!    *itself* until empty, and only then is released.
//!
//! The expansion of each queue entry is the shared
//! [`csaw_core::step::StepKernel`] — the same Fig. 2b pipeline the
//! in-memory engine runs — reading adjacency through a
//! [`csaw_core::step::LayeredAccess`] stamped with the stream's device
//! epoch, and writing through this module's `StreamSink` (visited shard +
//! same-partition queue push, with cross-partition insertions staged in
//! a per-stream outbox merged at the round barrier in fixed
//! `(stream, entry)` order). Pool-frontier algorithms (layer sampling,
//! multi-dimensional random walk) don't queue per-vertex entries at all;
//! [`OomRunner::run`] routes them to the [`crate::pooled`] path, which
//! drives the same kernel over demand-resident partitions.
//!
//! The per-stream round work (transfer accounting + queue drain + kernel
//! cost) runs as one independent host task per CUDA stream, fanned out
//! by [`csaw_gpu::launch`] like every other runtime's warp tasks (the
//! rayon pool's thread count is the only host switch — same results at
//! any count).
//!
//! Correctness under out-of-order scheduling (§V-B): each queue entry
//! carries its instance's depth, and the RNG stream of every expansion is
//! keyed by [`csaw_gpu::rng::task_key`]`(instance, depth, vertex, trial)`
//! — the same scheme every runtime uses — making the sampled output
//! *bit-identical* across all scheduling policies, host thread counts
//! and the in-memory engine itself. The tests
//! (and `tests/oom_equivalence.rs`) assert exactly that.

use crate::config::OomConfig;
use crate::frontier::{FrontierEntry, FrontierQueue};
use crate::memory::DeviceMemory;
use crate::timeline::{EventKind, TimelineEvent};
use crate::transfer::TransferEngine;
use csaw_core::api::{AlgoConfig, Algorithm, FrontierMode};
use csaw_core::collision::{charge_visited_check, DetectorKind};
use csaw_core::ctps_cache::CtpsCache;
use csaw_core::engine::{kernel_for, run_task, RunOptions, Task};
use csaw_core::step::{
    with_thread_scratch, FrontierSink, LayeredAccess, NeighborAccess, StepEntry, StepKernel,
};
use csaw_core::SampleOutput;
use csaw_gpu::config::DeviceConfig;
use csaw_gpu::cost::gpu_kernel_seconds_with_slots;
use csaw_gpu::stats::{Ledger, SimStats};
use csaw_graph::{Csr, Partition, PartitionSet, VertexId};
use std::collections::{HashMap, HashSet};

/// Fixed cost of launching one kernel (driver + scheduling), seconds.
/// Batched sampling amortizes this over many queue entries; unbatched
/// sampling pays it per instance per round, which is one of the two
/// mechanisms behind the §V-C speedup.
pub const KERNEL_LAUNCH_OVERHEAD: f64 = 5e-6;

/// Result of an out-of-memory run: the sample plus what the §V cost
/// model adds.
#[derive(Debug, Clone)]
pub struct OomOutput {
    /// The sample. Streams interleave instances, so `stats` carries the
    /// run's counted work and each per-instance entry only its
    /// `sampled_edges` ([`SampleOutput::from_totals`]).
    pub sample: SampleOutput,
    /// Host→device partition transfers issued.
    pub transfers: u64,
    /// Bytes shipped host→device.
    pub bytes_transferred: u64,
    /// Simulated end-to-end seconds (kernels + transfers overlapped on the
    /// stream timeline — the paper's out-of-memory SEPS includes transfer
    /// time).
    pub sim_seconds: f64,
    /// Total busy seconds per kernel slot (Fig. 14 imbalance input).
    pub kernel_busy: Vec<f64>,
    /// Per-round kernel times for the slots active that round.
    pub round_kernel_times: Vec<Vec<f64>>,
    /// Scheduling rounds executed.
    pub rounds: usize,
    /// Full event timeline (copies and kernels per stream); render with
    /// [`crate::timeline::render`].
    pub events: Vec<TimelineEvent>,
}

impl OomOutput {
    /// Mean per-round standard deviation of concurrent kernel times —
    /// the Fig. 14 workload-imbalance metric (lower is better).
    pub fn kernel_time_stddev(&self) -> f64 {
        let rounds: Vec<&Vec<f64>> =
            self.round_kernel_times.iter().filter(|r| r.len() >= 2).collect();
        if rounds.is_empty() {
            return 0.0;
        }
        let total: f64 = rounds
            .iter()
            .map(|ts| {
                let mean = ts.iter().sum::<f64>() / ts.len() as f64;
                (ts.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / ts.len() as f64).sqrt()
            })
            .sum();
        total / rounds.len() as f64
    }

    /// Sampled edges per second of simulated time.
    pub fn seps(&self) -> f64 {
        if self.sim_seconds <= 0.0 {
            0.0
        } else {
            self.sample.sampled_edges() as f64 / self.sim_seconds
        }
    }
}

/// A cross-partition frontier insertion produced while a stream drained
/// its partition, staged until the round barrier. `depth` is the parent
/// entry's depth; the queued entry gets `depth + 1`.
struct Outbound {
    instance: u32,
    depth: u32,
    vertex: VertexId,
    prev: Option<VertexId>,
}

/// One stream's slice of a scheduling round, handed to a host task: the
/// chosen partition plus exclusive ownership of its frontier queue and
/// visited shard for the round's duration.
struct StreamTask {
    partition: usize,
    queue: FrontierQueue,
    shard: Vec<HashSet<VertexId>>,
    /// This stream's hot-vertex CTPS cache shard (None when disabled).
    cache: Option<std::sync::Arc<CtpsCache>>,
    /// Residency epoch of the round: entries cached under an older epoch
    /// are lazily dropped (their device memory died with a partition swap).
    epoch: u64,
}

/// What one stream's round task produces (its `SimStats` travels
/// separately through the device launch). `queue`/`shard` are returned to
/// the scheduler at the barrier; `edges` keeps `(local_instance, edge)`
/// pairs in drain order so the barrier can append them deterministically.
struct StreamRound {
    queue: FrontierQueue,
    shard: Vec<HashSet<VertexId>>,
    outbox: Vec<Outbound>,
    edges: Vec<(usize, (VertexId, VertexId))>,
    straggler_cycles: u64,
}

/// The out-of-memory [`FrontierSink`]: sampled edges accumulate as
/// `(local_instance, edge)` pairs in drain order; frontier offers to the
/// stream's own partition pass the visited shard and enter its queue
/// immediately (workload-aware scheduling drains them this round), while
/// offers owned by other partitions are staged in the outbox for the
/// round barrier (where the visited check runs against the target
/// partition's shard).
struct StreamSink<'a> {
    parts: &'a PartitionSet,
    cfg: &'a AlgoConfig,
    detector: DetectorKind,
    partition: usize,
    instance_base: u32,
    queue: &'a mut FrontierQueue,
    shard: &'a mut [HashSet<VertexId>],
    outbox: &'a mut Vec<Outbound>,
    edges: &'a mut Vec<(usize, (VertexId, VertexId))>,
}

impl FrontierSink for StreamSink<'_> {
    fn emit(&mut self, entry: &StepEntry, edge: (VertexId, VertexId)) {
        let local = (entry.instance - self.instance_base) as usize;
        self.edges.push((local, edge));
    }

    fn push<L: Ledger>(
        &mut self,
        entry: &StepEntry,
        vertex: VertexId,
        prev: Option<VertexId>,
        stats: &mut L,
    ) {
        if self.parts.partition_of(vertex) != self.partition {
            self.outbox.push(Outbound {
                instance: entry.instance,
                depth: entry.depth,
                vertex,
                prev,
            });
            return;
        }
        let local = (entry.instance - self.instance_base) as usize;
        if self.cfg.without_replacement {
            charge_visited_check(self.detector, self.shard[local].len(), stats);
            if !self.shard[local].insert(vertex) {
                return;
            }
        }
        stats.ops().frontier_ops += 1;
        self.queue.push(FrontierEntry {
            vertex,
            instance: entry.instance,
            depth: entry.depth + 1,
            prev,
        });
    }
}

/// Out-of-memory sampler binding a graph + algorithm + configuration.
pub struct OomRunner<'g, A: Algorithm> {
    pub(crate) graph: &'g Csr,
    pub(crate) algo: &'g A,
    pub(crate) cfg: OomConfig,
    pub(crate) device: DeviceConfig,
    pub(crate) opts: RunOptions,
}

impl<'g, A: Algorithm> OomRunner<'g, A> {
    /// A runner with the paper's experiment frame on a device whose memory
    /// holds `cfg.resident_partitions` of the graph's partitions. All
    /// three frontier modes are supported: per-vertex algorithms run
    /// through the partition queues of Fig. 8, pool-frontier algorithms
    /// (layer sampling, MDRW) through the [`crate::pooled`] path.
    pub fn new(graph: &'g Csr, algo: &'g A, cfg: OomConfig) -> Self {
        cfg.validate().expect("invalid OOM config");
        OomRunner { graph, algo, cfg, device: DeviceConfig::v100(), opts: RunOptions::default() }
    }

    /// Overrides the run options — the same [`RunOptions`] the in-memory
    /// engine takes, with the same meaning and bit-identical output:
    /// `instance_base` offsets instance ids (multi-GPU groups set it per
    /// chunk); `snapshot` and `disk` layer a (device-resident) overlay
    /// and a disk tier under the device-side partition machinery, which
    /// runs unchanged (the snapshot's base and the store hold the graph
    /// this runner was constructed over). The queue scheduler takes only
    /// `ctps_cache`'s byte budget, split into one shard per stream: each
    /// stream's kernels reuse their own shard, and a partition swap bumps
    /// the residency epoch that lazily drops stale entries. `exec`,
    /// `prefetch_distance` and `batch_chunk` are the in-memory engine's
    /// schedule options and are not read here: a partition queue drains
    /// entry by entry.
    pub fn with_options(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Overrides the device model.
    pub fn with_device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self
    }

    /// Builds the partitioning this runner's configuration asks for.
    fn partitions(&self) -> PartitionSet {
        if self.cfg.edge_balanced_partitions {
            PartitionSet::edge_balanced(self.graph, self.cfg.num_partitions)
        } else {
            PartitionSet::equal_ranges(self.graph, self.cfg.num_partitions)
        }
    }

    /// Runs one single-seed instance per entry of `seeds`.
    pub fn run(&self, seeds: &[VertexId]) -> OomOutput {
        let parts = self.partitions();
        if self.algo.config().frontier != FrontierMode::IndependentPerVertex {
            let sets: Vec<Vec<VertexId>> = seeds.iter().map(|&s| vec![s]).collect();
            return crate::pooled::run_pooled(self, &parts, &sets);
        }
        self.run_group(&parts, seeds)
    }

    /// Runs one instance per seed *set* — the shape pool-frontier
    /// algorithms need (multi-dimensional random walk pools
    /// `FrontierSize` seeds per instance, exactly like
    /// [`csaw_core::engine::Sampler::run`]).
    pub fn run_pools(&self, seed_sets: &[Vec<VertexId>]) -> OomOutput {
        assert_ne!(
            self.algo.config().frontier,
            FrontierMode::IndependentPerVertex,
            "run_pools drives pool-frontier algorithms (layer/MDRW); \
             per-vertex algorithms take one seed per instance — use run()"
        );
        let parts = self.partitions();
        crate::pooled::run_pooled(self, &parts, seed_sets)
    }

    /// Runs single-seed instances through the scheduling loop.
    fn run_group(&self, parts: &PartitionSet, seeds: &[VertexId]) -> OomOutput {
        let algo_cfg = self.algo.config();
        let instance_base = self.opts.instance_base;
        let k = parts.len();
        let max_part_bytes = parts.parts().iter().map(Partition::size_bytes).max().unwrap_or(1);
        let mut memory = DeviceMemory::new(max_part_bytes * self.cfg.resident_partitions);
        let mut engine = TransferEngine::new(self.cfg.num_kernels, self.device.pcie_gbps);
        let mut queues: Vec<FrontierQueue> = (0..k).map(|_| FrontierQueue::new()).collect();
        // The visited filter is sharded by partition: `visited[p][i]` holds
        // the partition-`p` vertices instance `i` has taken. A vertex is
        // only ever checked against its own partition's shard, so the shard
        // union is exactly the per-instance set — but each shard has a
        // single writer per round (the stream that owns the partition),
        // which is what lets streams run as independent host tasks.
        let mut visited: Vec<Vec<HashSet<VertexId>>> = vec![vec![HashSet::new(); seeds.len()]; k];
        let mut outputs: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); seeds.len()];
        let mut stats = SimStats::new();

        // Depth-0 instances take no samples (the in-memory engine's loop
        // body never runs); skip seeding so the queue path agrees.
        if algo_cfg.depth > 0 {
            for (i, &s) in seeds.iter().enumerate() {
                let home = parts.partition_of(s);
                queues[home].push(FrontierEntry::new(s, instance_base + i as u32, 0));
                if algo_cfg.without_replacement {
                    visited[home][i].insert(s);
                }
            }
        }

        let mut now = 0.0;
        let mut kernel_busy = vec![0.0f64; self.cfg.num_kernels];
        let mut round_kernel_times: Vec<Vec<f64>> = Vec::new();
        let mut events: Vec<TimelineEvent> = Vec::new();
        let mut rounds = 0usize;
        let total_warps = self.device.total_warps();

        // Per-stream CTPS cache shards: each stream's kernels reuse their
        // own shard across rounds, with the residency epoch dropping
        // entries whose backing device memory was recycled by a swap.
        let budget = self.opts.ctps_cache.as_ref().map_or(0, |c| c.budget());
        let caches: Vec<Option<std::sync::Arc<CtpsCache>>> = if budget > 0 {
            let per_stream = budget / self.cfg.num_kernels.max(1);
            (0..self.cfg.num_kernels)
                .map(|_| Some(std::sync::Arc::new(CtpsCache::new(per_stream))))
                .collect()
        } else {
            vec![None; self.cfg.num_kernels]
        };
        let mut epoch: u64 = 0;

        while queues.iter().any(|q| !q.is_empty()) {
            rounds += 1;

            // 1. Workload per partition (paper Fig. 8 step 1).
            let mut active: Vec<(usize, usize)> =
                (0..k).filter(|&p| !queues[p].is_empty()).map(|p| (p, queues[p].len())).collect();
            if self.cfg.workload_aware {
                // Most-loaded first.
                active.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            } // else: partition-id order (the "active partition" baseline)
            let chosen: Vec<(usize, usize)> =
                active.into_iter().take(self.cfg.num_kernels).collect();
            let total_active: usize = chosen.iter().map(|c| c.1).sum();

            // 2. Residency: evict resident partitions not chosen this
            // round, least-loaded first, until the chosen set fits.
            let chosen_ids: Vec<usize> = chosen.iter().map(|c| c.0).collect();
            let need_bytes: usize = chosen_ids
                .iter()
                .filter(|&&p| !memory.is_resident(p))
                .map(|&p| parts.get(p).size_bytes())
                .sum();
            if need_bytes > 0 {
                let mut evictable: Vec<usize> =
                    (0..k).filter(|p| memory.is_resident(*p) && !chosen_ids.contains(p)).collect();
                evictable.sort_by_key(|&p| queues[p].len());
                for p in evictable {
                    if memory.can_fit(need_bytes) {
                        break;
                    }
                    memory.release(p).expect("resident partition releases");
                }
                // Device residency is about to change: any CTPS entry
                // built from the previous layout may now point at
                // recycled memory, so retire the whole generation.
                epoch += 1;
            }

            // 3. Issue transfers serially in stream order (the PCIe bus is
            // a shared serial resource; kernels never touch it, so issuing
            // copies before spawning the stream tasks leaves the simulated
            // timeline identical to interleaved issue) and fix each
            // stream's thread-block allotment.
            let mut stream_tasks = Vec::with_capacity(chosen.len());
            let mut stream_meta: Vec<(usize, usize, f64)> = Vec::with_capacity(chosen.len());
            for (stream, &(p, load)) in chosen.iter().enumerate() {
                let mut t = now;
                if !memory.is_resident(p) {
                    let bytes = parts.get(p).size_bytes();
                    memory
                        .alloc(p, bytes)
                        .expect("eviction must have made room for the chosen partition");
                    t = engine.copy_h2d(stream, bytes, now).expect("valid stream");
                    events.push(TimelineEvent {
                        kind: EventKind::Copy,
                        stream,
                        partition: p,
                        start: t - engine.copy_seconds(bytes),
                        end: t,
                    });
                }

                // Thread-block allotment (§V-B): even split vs proportional.
                let slots = if self.cfg.balanced && total_active > 0 {
                    ((total_warps * load) / total_active).max(self.device.warps_per_block)
                } else {
                    (total_warps / chosen.len().max(1)).max(1)
                };
                stream_meta.push((p, slots, t));
                stream_tasks.push(StreamTask {
                    partition: p,
                    queue: std::mem::take(&mut queues[p]),
                    shard: std::mem::take(&mut visited[p]),
                    cache: caches[stream].clone(),
                    epoch,
                });
            }

            // 4. Drain the chosen partitions, one independent host task
            // per stream. Each task owns its partition's queue and visited
            // shard, so the tasks share nothing mutable; results come back
            // in stream order regardless of host scheduling.
            let (mut stream_rounds, mut kstats) = csaw_gpu::launch(stream_tasks, |task| {
                self.run_stream_round(parts, &algo_cfg, seeds, task)
            });

            // Round barrier, part 1: return queues and shards, then merge
            // the outboxes in fixed (stream, entry) order. Insertion work
            // (visited probe + queue push) is charged to the kernel that
            // produced the entry, *before* its time is computed below.
            for (stream, &(p, _, _)) in stream_meta.iter().enumerate() {
                queues[p] = std::mem::take(&mut stream_rounds[stream].queue);
                visited[p] = std::mem::take(&mut stream_rounds[stream].shard);
            }
            for (stream, round) in stream_rounds.iter().enumerate() {
                for ob in &round.outbox {
                    let target = parts.partition_of(ob.vertex);
                    let local = (ob.instance - instance_base) as usize;
                    if algo_cfg.without_replacement {
                        charge_visited_check(
                            self.opts.select.detector,
                            visited[target][local].len(),
                            &mut kstats[stream],
                        );
                        if !visited[target][local].insert(ob.vertex) {
                            continue;
                        }
                    }
                    kstats[stream].frontier_ops += 1;
                    queues[target].push(FrontierEntry {
                        vertex: ob.vertex,
                        instance: ob.instance,
                        depth: ob.depth + 1,
                        prev: ob.prev,
                    });
                }
                for &(local, e) in &round.edges {
                    outputs[local].push(e);
                }
            }

            // Round barrier, part 2: kernel time per stream from its final
            // counters, booked on the stream timeline.
            let mut round_times = Vec::with_capacity(stream_rounds.len());
            for (stream, &(p, slots, t)) in stream_meta.iter().enumerate() {
                let throughput =
                    gpu_kernel_seconds_with_slots(&kstats[stream], &self.device, slots);
                let straggler = if self.cfg.batched {
                    0.0
                } else {
                    // One warp at its SM's shared issue rate.
                    stream_rounds[stream].straggler_cycles as f64
                        / (self.device.clock_ghz * 1e9 / self.device.warps_per_sm as f64)
                };
                let ksecs = throughput.max(straggler) + KERNEL_LAUNCH_OVERHEAD;
                let kend = engine.run_kernel(stream, ksecs, t).expect("valid stream");
                events.push(TimelineEvent {
                    kind: EventKind::Kernel,
                    stream,
                    partition: p,
                    start: kend - ksecs,
                    end: kend,
                });
                kernel_busy[stream] += ksecs;
                round_times.push(ksecs);
                stats.merge(&kstats[stream]);

                // WS releases a drained partition only now that its queue
                // is empty; the baseline holds residency until evicted.
            }
            round_kernel_times.push(round_times);

            // Round barrier, part 3: re-count queue sizes to decide next
            // transfers (Fig. 8 step 3).
            now = engine.sync_all();
        }

        OomOutput {
            sample: SampleOutput::from_totals(outputs, stats),
            transfers: engine.transfers,
            bytes_transferred: engine.bytes_transferred,
            sim_seconds: now,
            kernel_busy,
            round_kernel_times,
            rounds,
            events,
        }
    }

    /// One stream's whole round: drain the owned partition queue (under WS
    /// keep draining entries the kernel feeds back into its own partition)
    /// and collect everything destined elsewhere. Each entry expands
    /// through the shared [`StepKernel`] with `trial = 0`: the queue path
    /// never holds duplicate `(instance, depth, vertex)` entries — the
    /// visited filter dedups without-replacement algorithms at insertion,
    /// and with-replacement walks keep one entry per instance per depth —
    /// so the ordinal the in-memory engine's trial counter would assign is
    /// always 0 too, which is what makes outputs bit-identical.
    ///
    /// Work distribution (§V-C): with batched multi-instance sampling the
    /// kernel distributes work *vertex-grained* — any warp takes any queue
    /// entry — so its time is the throughput of the whole batch. Without
    /// it, distribution is *instance-grained*: one warp serially processes
    /// all of an instance's entries, so the kernel also waits for the
    /// straggler instance ("some instances may encounter higher degree
    /// vertices more often... skewed workload distributions"). The
    /// straggler tally counts in-task work; cross-partition insertion
    /// charges land at the barrier (on this stream's counters) and so
    /// contribute to throughput but not to the straggler bound.
    fn run_stream_round(
        &self,
        parts: &PartitionSet,
        algo_cfg: &AlgoConfig,
        seeds: &[VertexId],
        task: StreamTask,
    ) -> (StreamRound, SimStats) {
        let kernel = kernel_for(self.algo, &self.opts).with_ctps_cache(task.cache.as_deref());
        let (mut queue, mut shard) = (task.queue, task.shard);
        let (mut outbox, mut edges) = (Vec::new(), Vec::new());
        let mut sink = StreamSink {
            parts,
            cfg: algo_cfg,
            detector: self.opts.select.detector,
            partition: task.partition,
            instance_base: self.opts.instance_base,
            queue: &mut queue,
            shard: &mut shard,
            outbox: &mut outbox,
            edges: &mut edges,
        };
        // This stream round's disk work travels with its kernel counters
        // into the round's cost model.
        let drain = StreamDrain { runner: self, kernel: &kernel, sink: &mut sink, seeds };
        let (straggler_cycles, stats) = run_task(self.graph, &self.opts, task.epoch, drain);
        (StreamRound { queue, shard, outbox, edges, straggler_cycles }, stats)
    }

    /// The drain loop of one stream round over the sink's partition
    /// queue, generic over the storage the access reads. Returns the
    /// straggler cycle bound for unbatched runs.
    fn drain_queue<N: NeighborAccess>(
        &self,
        kernel: &StepKernel<'_>,
        access: &mut N,
        sink: &mut StreamSink<'_>,
        seeds: &[VertexId],
        stats: &mut SimStats,
    ) -> u64 {
        let instance_base = sink.instance_base;
        // Warp cycles per instance: unbatched kernels wait for the
        // instance that accumulated the most.
        let mut per_instance: HashMap<u32, u64> = HashMap::new();
        let mut tally = |instance: u32, cycles: u64| {
            if !self.cfg.batched {
                *per_instance.entry(instance).or_insert(0) += cycles;
            }
        };
        // Per-stream arena: stream tasks run one per host thread, so the
        // thread-local scratch is private to this round's stream.
        with_thread_scratch(|scratch| loop {
            let batch = sink.queue.drain_all();
            if batch.is_empty() {
                break;
            }
            // Queue entries carry their logical position; the queue path
            // always expands trial 0 (duplicates of one (instance, depth,
            // vertex) never coexist in a partition queue).
            for e in &batch {
                let entry = StepEntry {
                    instance: e.instance,
                    depth: e.depth,
                    vertex: e.vertex,
                    prev: e.prev,
                    trial: 0,
                };
                let home = seeds[(e.instance - instance_base) as usize];
                let before = stats.warp_cycles;
                kernel.expand(access, &entry, home, sink, scratch, stats);
                tally(e.instance, stats.warp_cycles - before);
            }
            if !self.cfg.workload_aware {
                break; // baseline: one pass per round
            }
        });
        per_instance.into_values().max().unwrap_or(0)
    }
}

/// One stream round's queue drain as a [`Task`]: [`run_task`] picks the
/// storage and stamps the stream's device epoch into the access.
struct StreamDrain<'a, 'g, 's, A: Algorithm> {
    runner: &'a OomRunner<'g, A>,
    kernel: &'a StepKernel<'a>,
    sink: &'a mut StreamSink<'s>,
    seeds: &'a [VertexId],
}

impl<A: Algorithm> Task for StreamDrain<'_, '_, '_, A> {
    type Residency = u64;
    /// The straggler cycle bound and the round's counters.
    type Out = (u64, SimStats);

    fn run<S: NeighborAccess>(self, access: &mut LayeredAccess<'_, S, u64>) -> Self::Out {
        let mut stats = SimStats::new();
        let cycles =
            self.runner.drain_queue(self.kernel, access, self.sink, self.seeds, &mut stats);
        (cycles, stats)
    }

    fn ledger(out: &mut Self::Out) -> Option<&mut SimStats> {
        Some(&mut out.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_core::algorithms::{BiasedRandomWalk, UnbiasedNeighborSampling};
    use csaw_graph::generators::{rmat, toy_graph, RmatParams};

    fn tiny_device() -> DeviceConfig {
        DeviceConfig::tiny(1 << 20)
    }

    #[test]
    fn samples_valid_edges_within_depth() {
        let g = toy_graph();
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 };
        let out = OomRunner::new(&g, &algo, OomConfig::full())
            .with_device(tiny_device())
            .run(&[0, 8, 12]);
        assert_eq!(out.sample.instances.len(), 3);
        for inst in &out.sample.instances {
            assert!(inst.len() <= 6, "depth 2, NS 2");
            for &(v, u) in inst {
                assert!(g.has_edge(v, u));
            }
        }
        assert!(out.transfers > 0);
        assert!(out.sim_seconds > 0.0);
    }

    #[test]
    fn output_identical_across_all_scheduling_policies() {
        // §V-B Correctness: out-of-order scheduling must not change the
        // sampling result. RNG keying by (instance, depth, vertex, trial)
        // makes the guarantee bit-exact here.
        let g = rmat(8, 4, RmatParams::GRAPH500, 5);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let seeds: Vec<u32> = (0..32).map(|i| (i * 7) % 256).collect();
        let mut results = Vec::new();
        for (_, cfg) in OomConfig::figure13_ladder() {
            let out = OomRunner::new(&g, &algo, cfg).with_device(tiny_device()).run(&seeds);
            results.push(out.sample.sorted_instances());
        }
        assert_eq!(results[0], results[1], "BA changed the sample");
        assert_eq!(results[0], results[2], "WS changed the sample");
        assert_eq!(results[0], results[3], "BAL changed the sample");
    }

    #[test]
    fn batching_reduces_time_not_correctness() {
        let g = rmat(9, 4, RmatParams::GRAPH500, 6);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let seeds: Vec<u32> = (0..48).map(|i| (i * 11) % 512).collect();
        let base =
            OomRunner::new(&g, &algo, OomConfig::baseline()).with_device(tiny_device()).run(&seeds);
        let ba = OomRunner::new(&g, &algo, OomConfig::ba()).with_device(tiny_device()).run(&seeds);
        // Batching merges per-instance kernels: many launch overheads and
        // idle warp slots disappear, the transfer schedule is unchanged.
        assert!(
            ba.sim_seconds * 3.0 / 2.0 < base.sim_seconds,
            "batching should pay off clearly: {} vs {}",
            ba.sim_seconds,
            base.sim_seconds
        );
        assert_eq!(
            ba.sample.sampled_edges(),
            base.sample.sampled_edges(),
            "same sample either way"
        );
    }

    #[test]
    fn workload_aware_scheduling_reduces_transfers() {
        let g = rmat(9, 4, RmatParams::GRAPH500, 7);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 4 };
        let seeds: Vec<u32> = (0..64).map(|i| (i * 5) % 512).collect();
        let ba = OomRunner::new(&g, &algo, OomConfig::ba()).with_device(tiny_device()).run(&seeds);
        let ws =
            OomRunner::new(&g, &algo, OomConfig::ba_ws()).with_device(tiny_device()).run(&seeds);
        assert!(
            ws.transfers <= ba.transfers,
            "workload-aware must not transfer more: {} vs {}",
            ws.transfers,
            ba.transfers
        );
    }

    #[test]
    fn balancing_reduces_kernel_time_imbalance() {
        let g = rmat(9, 8, RmatParams::GRAPH500, 8);
        let algo = UnbiasedNeighborSampling { neighbor_size: 4, depth: 4 };
        let seeds: Vec<u32> = (0..64).map(|i| (i * 3) % 512).collect();
        let ws =
            OomRunner::new(&g, &algo, OomConfig::ba_ws()).with_device(tiny_device()).run(&seeds);
        let bal =
            OomRunner::new(&g, &algo, OomConfig::full()).with_device(tiny_device()).run(&seeds);
        // Proportional thread-block allotment is computed from the
        // start-of-round queue loads. Those loads are exactly the work the
        // round's kernels execute (cross-partition insertions land at the
        // round barrier, self-insertions under WS scale with the initial
        // load), so allotting warps proportionally to them must genuinely
        // narrow concurrent kernel times, not merely avoid widening them.
        // Across RMAT seeds the reduction measures 45–55%; assert a
        // conservative 20% so slot quantization (integer division +
        // warps_per_block floor) can never flake the test.
        assert!(
            bal.kernel_time_stddev() < ws.kernel_time_stddev() * 0.8,
            "balancing should reduce imbalance: {} vs {}",
            bal.kernel_time_stddev(),
            ws.kernel_time_stddev()
        );
    }

    #[test]
    fn walks_respect_length_through_partitions() {
        let g = toy_graph();
        let algo = BiasedRandomWalk { length: 10 };
        let out =
            OomRunner::new(&g, &algo, OomConfig::full()).with_device(tiny_device()).run(&[8, 0]);
        for inst in &out.sample.instances {
            assert_eq!(inst.len(), 10, "toy graph has no dead ends");
            for w in inst.windows(2) {
                assert_eq!(w[0].1, w[1].0, "walk continuity across partitions");
            }
        }
    }

    #[test]
    fn empty_seeds() {
        let g = toy_graph();
        let algo = BiasedRandomWalk { length: 5 };
        let out = OomRunner::new(&g, &algo, OomConfig::full()).run(&[]);
        assert_eq!(out.sample.sampled_edges(), 0);
        assert_eq!(out.transfers, 0);
    }

    #[test]
    fn restart_walks_return_to_the_instance_seed() {
        // RWR's dead-end/restart hooks receive the instance's *home seed*
        // — the same vertex the in-memory engine hands them — even when
        // the walker is deep inside another partition. A graph where every
        // path from the seed hits a dead end makes the restart target
        // observable: all post-dead-end hops must start from a restart at
        // the seed, never from the dead-end vertex.
        use csaw_core::algorithms::RandomWalkWithRestart;
        let g = csaw_graph::CsrBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2) // chain 0→1→2, 2 is a dead end
            .build();
        let algo = RandomWalkWithRestart { length: 12, p_restart: 0.0 };
        let out = OomRunner::new(&g, &algo, OomConfig::full()).with_device(tiny_device()).run(&[0]);
        for w in out.sample.instances[0].windows(2) {
            assert!(
                w[1].0 == w[0].1 || w[1].0 == 0,
                "after a dead end the walk must restart at seed 0, got {:?}",
                w[1]
            );
        }
    }

    #[test]
    fn second_order_walks_work_out_of_memory() {
        // node2vec needs SOURCE(e.v); the extended frontier entries carry
        // it across partitions. Validate the second-order bias: low p
        // makes the walker return to its previous vertex most steps.
        use csaw_core::algorithms::Node2Vec;
        let g = rmat(8, 6, RmatParams::GRAPH500, 31);
        let returned = |p: f64| {
            let algo = Node2Vec { length: 12, p, q: 1.0 };
            let out = OomRunner::new(&g, &algo, OomConfig::full())
                .with_device(tiny_device())
                .run(&(0..64u32).map(|i| i * 3 % 256).collect::<Vec<_>>());
            let mut backtracks = 0usize;
            let mut steps = 0usize;
            for inst in &out.sample.instances {
                for w in inst.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "walk continuity");
                    steps += 1;
                    if w[1].1 == w[0].0 {
                        backtracks += 1;
                    }
                }
            }
            backtracks as f64 / steps.max(1) as f64
        };
        let sticky = returned(0.02); // tiny p -> strong return bias
        let free = returned(50.0); // huge p -> avoid returning
        assert!(
            sticky > free + 0.3,
            "second-order bias must act through the queue: {sticky} vs {free}"
        );
    }

    #[test]
    fn timeline_is_stream_consistent() {
        let g = rmat(9, 6, RmatParams::GRAPH500, 44);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let seeds: Vec<u32> = (0..48).collect();
        let out =
            OomRunner::new(&g, &algo, OomConfig::full()).with_device(tiny_device()).run(&seeds);
        crate::timeline::validate(&out.events).expect("valid timeline");
        assert!(out.events.iter().any(|e| e.kind == crate::timeline::EventKind::Copy));
        assert!(out.events.iter().any(|e| e.kind == crate::timeline::EventKind::Kernel));
        // Every kernel over a partition starts at/after that partition's
        // last preceding copy on the same stream ended.
        let last_end = out.events.iter().map(|e| e.end).fold(0.0, f64::max);
        assert!((last_end - out.sim_seconds).abs() < 1e-12);
        let rendered = crate::timeline::render(&out.events, 60);
        assert!(rendered.contains("stream 0"));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = rmat(8, 4, RmatParams::MILD, 9);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let seeds: Vec<u32> = (0..16).collect();
        let a = OomRunner::new(&g, &algo, OomConfig::full()).run(&seeds);
        let b = OomRunner::new(&g, &algo, OomConfig::full()).run(&seeds);
        assert_eq!(a.sample.instances, b.sample.instances);
        assert_eq!(a.transfers, b.transfers);
    }
}
