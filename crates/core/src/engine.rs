//! The sampling engine — C-SAW's MAIN loop (paper Fig. 2b).
//!
//! ```text
//! FrontierPool = Seeds
//! for i in 0..Depth:
//!     Frontier      = SELECT(VERTEXBIAS(FrontierPool), FrontierSize)
//!     NeighborPool  = GATHERNEIGHBORS(Frontier)
//!     Sampled       = SELECT(EDGEBIAS(NeighborPool), NeighborSize)
//!     FrontierPool.INSERT(UPDATE(Sampled))
//!     Samples.INSERT(Sampled.u)
//! ```
//!
//! Each sampling *instance* is executed by one simulated warp
//! (§IV-A inter-warp parallelism: thousands of instances saturate the
//! device; intra-instance selection is the warp-level SELECT of
//! [`crate::select`]). The per-entry expand pipeline itself lives in
//! [`crate::step::StepKernel`] — this module only owns the per-instance
//! depth loop and frontier pools, and is one of the kernel's four runtimes
//! (with the out-of-memory scheduler, the unified-memory comparator, and
//! the multi-GPU splitter). Every expansion draws from a counter-based RNG
//! stream keyed by `(seed, instance, depth, vertex, trial)` via
//! [`csaw_gpu::rng::task_key`], so outputs are bit-identical regardless of
//! host thread count, chunking, or which runtime executes the instance.

use crate::api::{AlgoConfig, Algorithm, FrontierMode, NeighborSize};
use crate::batch::ChunkInstance;
use crate::output::SampleOutput;
use crate::residency::with_thread_disk_access;
use crate::select::SelectConfig;
use crate::step::{
    with_thread_scratch, CsrAccess, EmitSink, LayeredAccess, NeighborAccess, PoolSink, PoolSlot,
    Residency, StepEntry, StepKernel, StepScratch, TrialCounter,
};
use csaw_gpu::stats::{Ledger, ServeLedger, SimStats};
use csaw_graph::{Csr, GraphSnapshot, VertexId};
use std::collections::HashSet;

/// A run rejected up front, before any kernel launch. Out-of-range
/// seeds would otherwise panic deep inside CSR indexing; a serving
/// layer needs the typed form to answer the caller instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// An instance was given no seed vertices at all.
    EmptySeedSet {
        /// Index of the offending instance.
        instance: usize,
    },
    /// A seed vertex id is not a vertex of the graph.
    SeedOutOfRange {
        /// Index of the offending instance.
        instance: usize,
        /// The rejected vertex id.
        vertex: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// [`RunOptions::batch_chunk`] is `Some(0)`: a depth-synchronous
    /// chunk holds at least one instance.
    ZeroBatchChunk,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::EmptySeedSet { instance } => {
                write!(f, "instance {instance} has an empty seed set")
            }
            RunError::SeedOutOfRange { instance, vertex, num_vertices } => write!(
                f,
                "instance {instance}: seed vertex {vertex} out of range (graph has {num_vertices} vertices)"
            ),
            RunError::ZeroBatchChunk => write!(f, "batch chunk size must be positive"),
        }
    }
}

impl std::error::Error for RunError {}

/// Validates one-instance-per-set seed sets against `graph`: every set
/// non-empty, every vertex id in range. An empty *list* of sets is fine
/// (a run of zero instances), an empty *set* is not.
pub fn validate_seed_sets(
    graph: &Csr,
    seed_sets: &[impl AsRef<[VertexId]>],
) -> Result<(), RunError> {
    let n = graph.num_vertices();
    for (instance, set) in seed_sets.iter().enumerate() {
        let set = set.as_ref();
        if set.is_empty() {
            return Err(RunError::EmptySeedSet { instance });
        }
        if let Some(&vertex) = set.iter().find(|&&v| v as usize >= n) {
            return Err(RunError::SeedOutOfRange { instance, vertex, num_vertices: n });
        }
    }
    Ok(())
}

/// Validates single-seed instances (one instance per entry of `seeds`).
fn validate_single_seeds(graph: &Csr, seeds: &[VertexId]) -> Result<(), RunError> {
    let n = graph.num_vertices();
    match seeds.iter().position(|&v| v as usize >= n) {
        None => Ok(()),
        Some(instance) => {
            Err(RunError::SeedOutOfRange { instance, vertex: seeds[instance], num_vertices: n })
        }
    }
}

/// Validates the option combinations no launch can serve, once, before
/// any task starts.
fn validate_options(opts: &RunOptions) -> Result<(), RunError> {
    if opts.batch_chunk == Some(0) {
        return Err(RunError::ZeroBatchChunk);
    }
    Ok(())
}

/// Execution order of the MAIN loop over a run's instances.
///
/// Both modes run the *same* per-entry pipeline ([`StepKernel`]) over the
/// *same* RNG streams (keyed by logical position, never schedule), so they
/// are bit-identical on outputs and charge-identical on every counter
/// except the `batch_*` group/prefetch observability fields, which only
/// depth-synchronous execution populates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// One simulated warp per instance, each run to completion — the
    /// paper's §IV-A inter-warp layout and the engine's historical mode.
    #[default]
    InstanceMajor,
    /// Advance all instances in lockstep one depth at a time over a flat
    /// `(instance, vertex)` frontier (see [`crate::batch`]): prefetches
    /// upcoming CSR rows, groups co-located walkers to share one gather +
    /// CTPS build, and batch-generates Philox blocks per depth.
    DepthSync,
}

/// Options shared by all instances of a run: the one description every
/// runtime takes whole — [`Sampler`], the out-of-memory scheduler and its
/// multi-GPU split, the unified-memory comparator and the service's
/// executors. No runtime re-declares a field of it.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Global RNG seed; instance `i` draws from streams keyed by
    /// `task_key(instance_base + i, depth, vertex, trial)`.
    pub seed: u64,
    /// SELECT strategy + collision detector.
    pub select: SelectConfig,
    /// Offset added to local instance indices to form the global instance
    /// id that keys RNG streams. Multi-GPU and sharded runs set this per
    /// chunk so a split run samples exactly what a single-device run of
    /// the whole seed list would.
    pub instance_base: u32,
    /// Optional hot-vertex CTPS cache shared by every instance of the run
    /// (see [`crate::ctps_cache`]). Consulted only for static non-uniform
    /// edge biases; sampled output is bit-identical with or without it.
    /// `None` (the default) disables cross-instance CTPS reuse. The
    /// out-of-memory scheduler uses only this cache's byte budget, split
    /// evenly into one private shard per stream.
    pub ctps_cache: Option<std::sync::Arc<crate::ctps_cache::CtpsCache>>,
    /// Sampling-method policy (see [`crate::method`]) — the one way to
    /// request rejection sampling. The default,
    /// [`crate::method::MethodPolicy::ForceIts`], keeps output
    /// bit-identical to the pinned goldens;
    /// [`crate::method::MethodPolicy::Adaptive`] serves dynamic-bias
    /// expansions by rejection where it pays and is distribution-equal
    /// instead.
    pub method_policy: crate::method::MethodPolicy,
    /// Optional epoch snapshot of a [`csaw_graph::MutableGraph`]. When
    /// set, every instance gathers through the snapshot's delta overlay
    /// ([`LayeredAccess`]) over the storage: mutated vertices serve their
    /// merged adjacency, untouched vertices serve the base slices
    /// verbatim, from the CSR or from the disk tier. RNG streams are
    /// keyed by `(instance, depth, vertex, trial)` only, so a snapshot run
    /// is bit-identical to a from-scratch run on the compacted CSR of the
    /// same epoch. `None` (the default)
    /// is the static path, byte-for-byte what it was before overlays
    /// existed.
    pub snapshot: Option<GraphSnapshot>,
    /// Optional disk tier (see [`crate::residency`]). When set, every
    /// instance gathers through a [`crate::residency::DiskAccess`] over
    /// the store's memory-mapped segments instead of the resident CSR:
    /// neighbor lists decode on demand into each worker thread's
    /// byte-budgeted pool. Decode is bit-exact and RNG streams are keyed
    /// by `(instance, depth, vertex, trial)` only, so a disk-backed run
    /// is bit-identical to the in-memory run at every pool budget. With
    /// `snapshot` also set, the store holds the snapshot's base graph and
    /// the overlay serves the mutated vertices above it.
    pub disk: Option<crate::residency::DiskRunConfig>,
    /// The in-memory engine's execution order over instances — see
    /// [`ExecMode`]. Output is bit-identical across modes; only
    /// throughput and the `batch_*` observability counters differ. The
    /// other runtimes do not read it: the out-of-memory scheduler drains
    /// its partition queues entry by entry.
    pub exec: ExecMode,
    /// The engine's depth-synchronous look-ahead, in vertex-groups: while
    /// group `g` expands, the CSR index row of group `g + distance` and
    /// the adjacency of group `g + max(1, distance/2)` are
    /// software-prefetched. `0` disables prefetching. Ignored under
    /// instance-major execution and by the other runtimes.
    pub prefetch_distance: usize,
    /// Instances per depth-synchronous chunk of the engine (the unit of
    /// host parallelism). `None` (the default) auto-sizes to roughly four
    /// chunks per available worker thread. Ignored under instance-major
    /// execution and by the other runtimes; any value yields
    /// bit-identical output.
    pub batch_chunk: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 0x5eed,
            select: SelectConfig::paper_best(),
            instance_base: 0,
            ctps_cache: None,
            method_policy: crate::method::MethodPolicy::ForceIts,
            snapshot: None,
            disk: None,
            exec: ExecMode::InstanceMajor,
            prefetch_distance: 8,
            batch_chunk: None,
        }
    }
}

/// A configured sampler binding a graph to an algorithm.
pub struct Sampler<'g, A: Algorithm> {
    graph: &'g Csr,
    algo: &'g A,
    opts: RunOptions,
    /// Whether the run charges the cost model: `false` serves
    /// ([`ServeLedger`]: operational counters only), `true` models
    /// ([`SimStats`]: every counter, as the paper's figures need).
    modeled: bool,
}

impl<'g, A: Algorithm> Sampler<'g, A> {
    /// A serving sampler with default options: it keeps every
    /// operational counter and charges no cost model, so its output's
    /// model counters read zero. [`Sampler::modeled`] models the run.
    pub fn new(graph: &'g Csr, algo: &'g A) -> Self {
        Sampler { graph, algo, opts: RunOptions::default(), modeled: false }
    }

    /// Overrides the run options.
    pub fn with_options(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Models the run: every step charges the cost model ([`SimStats`]),
    /// so the output's model counters and [`SampleOutput::kernel_seconds`]
    /// describe it. Samples and operational counters are the same served
    /// or modeled.
    pub fn modeled(mut self) -> Self {
        self.modeled = true;
        self
    }

    /// Runs one instance per seed vertex (the common case: every paper
    /// algorithm except multi-dimensional random walk starts an instance
    /// from a single source, §IV-A).
    pub fn run_single_seeds(&self, seeds: &[VertexId]) -> SampleOutput {
        let sets: Vec<Vec<VertexId>> = seeds.iter().map(|&s| vec![s]).collect();
        self.run(&sets)
    }

    /// Runs one instance per seed *set* (multi-dimensional random walk
    /// pools `FrontierSize` seeds per instance).
    pub fn run(&self, seed_sets: &[Vec<VertexId>]) -> SampleOutput {
        validate_options(&self.opts).expect("invalid RunOptions");
        if self.opts.exec == ExecMode::DepthSync {
            return self.run_depth_sync(seed_sets);
        }
        let tasks: Vec<(u32, &Vec<VertexId>)> =
            seed_sets.iter().enumerate().map(|(i, s)| (i as u32, s)).collect();
        let graph = self.graph;
        let algo = self.algo;
        let opts = &self.opts;
        let modeled = self.modeled;
        let (instances, stats) = csaw_gpu::launch(tasks, move |(instance, seeds)| {
            run_instance(graph, algo, opts, modeled, instance, seeds)
        });
        SampleOutput::from_instances(instances, stats)
    }

    /// Depth-synchronous run ([`ExecMode::DepthSync`]): instances are
    /// split into chunks (the unit of host parallelism), and each chunk is
    /// advanced in lockstep one depth at a time by [`crate::batch`]'s flat
    /// frontier. Bit-identical to [`Sampler::run`] on outputs at any chunk
    /// size, prefetch distance, or thread count; charge-identical on every
    /// counter except the `batch_*` observability fields.
    fn run_depth_sync(&self, seed_sets: &[Vec<VertexId>]) -> SampleOutput {
        let chunk = self.opts.batch_chunk.unwrap_or_else(|| {
            let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            seed_sets.len().div_ceil(4 * threads).max(1)
        });
        let tasks: Vec<(usize, &[Vec<VertexId>])> =
            seed_sets.chunks(chunk).enumerate().map(|(ci, sets)| (ci * chunk, sets)).collect();
        let graph = self.graph;
        let algo = self.algo;
        let opts = &self.opts;
        let modeled = self.modeled;
        // A chunk's counters travel per instance in its output; the
        // launch's own per-task ledger is left empty.
        let (chunks, _) = csaw_gpu::launch(tasks, move |(base, sets)| {
            (run_chunk_task(graph, algo, opts, modeled, base, sets), SimStats::new())
        });
        // Reassemble in task order — chunks partition the instance range
        // contiguously, so concatenation restores instance order.
        let mut instances = Vec::with_capacity(seed_sets.len());
        let mut instance_stats = Vec::with_capacity(seed_sets.len());
        for (outs, per_inst) in chunks {
            instances.extend(outs);
            instance_stats.extend(per_inst);
        }
        SampleOutput::from_instances(instances, instance_stats)
    }

    /// [`Sampler::run`] behind upfront validation: rejects unservable
    /// option combinations, empty seed sets and out-of-range seed ids
    /// with a typed [`RunError`] instead of panicking in a launched task
    /// or inside CSR indexing.
    pub fn run_checked(&self, seed_sets: &[Vec<VertexId>]) -> Result<SampleOutput, RunError> {
        validate_options(&self.opts)?;
        validate_seed_sets(self.graph, seed_sets)?;
        Ok(self.run(seed_sets))
    }

    /// [`Sampler::run_single_seeds`] behind upfront validation.
    pub fn run_single_seeds_checked(&self, seeds: &[VertexId]) -> Result<SampleOutput, RunError> {
        validate_options(&self.opts)?;
        validate_single_seeds(self.graph, seeds)?;
        Ok(self.run_single_seeds(seeds))
    }
}

/// The kernel a run's options describe: seed, SELECT, CTPS cache and
/// method policy. Every runtime builds its [`StepKernel`] here; the
/// out-of-memory scheduler then swaps in its per-stream cache shard.
pub fn kernel_for<'a>(algo: &'a dyn Algorithm, opts: &'a RunOptions) -> StepKernel<'a> {
    StepKernel::new(algo, opts.seed)
        .with_select(opts.select)
        .with_ctps_cache(opts.ctps_cache.as_deref())
        .with_method_policy(opts.method_policy)
}

/// One task's body, generic over the storage its access reads, so every
/// runtime shares [`run_task`]'s one storage dispatch. `Residency` is the
/// runtime's memory model stamped into the access (`()` for the engine).
pub trait Task {
    /// The residency model the access carries.
    type Residency: Residency;
    /// What the task returns.
    type Out;
    /// Runs the task over the access [`run_task`] built.
    fn run<S: NeighborAccess>(
        self,
        access: &mut LayeredAccess<'_, S, Self::Residency>,
    ) -> Self::Out;
    /// Where the disk work the task caused on its worker thread (decodes,
    /// hits, evictions) is charged; the warm pool itself persists.
    fn ledger(out: &mut Self::Out) -> Option<&mut SimStats>;
}

/// Runs `task` over the storage `opts` picks (the CSR or this thread's
/// warm disk pool) under the snapshot's overlay, if any, faulted in by
/// `residency`. The one place a runtime chooses its storage.
pub fn run_task<T: Task>(g: &Csr, opts: &RunOptions, residency: T::Residency, task: T) -> T::Out {
    let snapshot = opts.snapshot.as_ref();
    match opts.disk.as_ref() {
        None => task.run(&mut LayeredAccess::new(&mut CsrAccess { graph: g }, snapshot, residency)),
        Some(disk) => with_thread_disk_access(disk, |storage| {
            let mut out = task.run(&mut LayeredAccess::new(&mut *storage, snapshot, residency));
            if let Some(stats) = T::ledger(&mut out) {
                storage.flush_stats(stats);
            }
            out
        }),
    }
}

/// One full sampling instance ([`drive_instance`]) over the storage
/// `opts` picks, charged to a [`SimStats`] when `modeled` and to a
/// [`ServeLedger`] otherwise. Not generic, like [`run_chunk_task`]: the
/// kernel is compiled here once per ledger, not into every crate that
/// instantiates a generic [`Sampler`], whose calls back into this crate
/// go through the GOT (measured 2–7% slower on the benchmark's walk and
/// neighbor workloads).
fn run_instance(
    g: &Csr,
    algo: &dyn Algorithm,
    opts: &RunOptions,
    modeled: bool,
    instance: u32,
    seeds: &[VertexId],
) -> (Vec<(VertexId, VertexId)>, SimStats) {
    run_task(g, opts, (), Instance { algo, opts, modeled, instance, seeds })
}

/// [`run_instance`]'s task; its disk work is charged to its own counters.
struct Instance<'a> {
    algo: &'a dyn Algorithm,
    opts: &'a RunOptions,
    modeled: bool,
    instance: u32,
    seeds: &'a [VertexId],
}

impl Task for Instance<'_> {
    type Residency = ();
    type Out = (Vec<(VertexId, VertexId)>, SimStats);
    fn run<S: NeighborAccess>(self, access: &mut LayeredAccess<'_, S>) -> Self::Out {
        let Instance { algo, opts, modeled, instance, seeds } = self;
        if modeled {
            drive_instance::<_, SimStats>(access, algo, opts, instance, seeds)
        } else {
            drive_instance::<_, ServeLedger>(access, algo, opts, instance, seeds)
        }
    }
    fn ledger(out: &mut Self::Out) -> Option<&mut SimStats> {
        Some(&mut out.1)
    }
}

/// Most edges [`drive_instance`] reserves output room for up front. The
/// depth of a served request is a wire-supplied `u32` and a walk may end
/// at its first dead end, so the reservation is bounded (512 KiB); a
/// longer walk grows its vector from here as any `Vec` does.
const MAX_OUT_RESERVE: usize = 1 << 16;

/// An instance's output vector, sized up front for a walk. One pick per
/// entry (every walk) means at most one emit and one push per entry: the
/// frontier never outgrows the seeds and the output is at most
/// `depth × seeds` edges, so within [`MAX_OUT_RESERVE`] it is never
/// regrown. Other algorithms start empty.
fn instance_output(cfg: &AlgoConfig, seeds: usize) -> Vec<(VertexId, VertexId)> {
    match (cfg.frontier, cfg.neighbor_size) {
        (FrontierMode::IndependentPerVertex, NeighborSize::Constant(1)) => {
            Vec::with_capacity(cfg.depth.saturating_mul(seeds).min(MAX_OUT_RESERVE))
        }
        _ => Vec::new(),
    }
}

/// One whole instance on this thread's warm [`StepScratch`], charged to
/// an `L`: builds the kernel `opts` describes, sizes the output, and runs
/// [`drive_pool`]. `instance` is local to the launch;
/// `opts.instance_base` is added here. Public so the allocation gate
/// (`tests/step_alloc.rs`) can hold a whole instance, not only its steps,
/// to an exact allocation count.
pub fn drive_instance<N: NeighborAccess, L: Ledger>(
    access: &mut N,
    algo: &dyn Algorithm,
    opts: &RunOptions,
    instance: u32,
    seeds: &[VertexId],
) -> (Vec<(VertexId, VertexId)>, SimStats) {
    let kernel = kernel_for(algo, opts);
    let mut stats = L::default();
    let mut out = instance_output(kernel.cfg(), seeds.len());
    let instance = opts.instance_base + instance;
    let mut bufs = PoolBufs::default();
    // One arena per worker thread: `launch` runs instance kernels
    // on a pool, and every instance on a thread reuses that thread's
    // warm buffers — zero steady-state allocations in the step pipeline.
    with_thread_scratch(|scratch| {
        drive_pool(&kernel, access, instance, seeds, &mut bufs, &mut out, scratch, &mut stats)
    });
    (out, stats.into_stats())
}

/// The frontier state of one instance's depth loop, owned by the caller
/// so a serial driver (a pooled out-of-memory run, a bench repetition)
/// reuses one warm set across instances. [`drive_pool`] re-seeds it.
#[derive(Debug, Default)]
pub struct PoolBufs {
    /// The instance's frontier pool, filled by UPDATE for the next depth.
    pool: Vec<PoolSlot>,
    /// The depth being expanded. Double-buffered with `pool`: swapped,
    /// never taken, so neither is reallocated between depths.
    frontier: Vec<PoolSlot>,
    /// Without-replacement filter.
    visited: HashSet<VertexId>,
    /// Trial ordinals of duplicate frontier entries (reset per depth).
    trials: TrialCounter,
    /// `VERTEXBIAS` lane of a biased-replace pool, maintained
    /// incrementally by [`StepKernel::expand_replace`].
    pool_biases: Vec<f64>,
}

/// The per-instance depth loop — the one place a frontier pool is
/// stepped through [`StepKernel`], whichever runtime owns the access:
/// the loop is identical over the CSR or the disk tier, with or without
/// a snapshot overlay or a residency model, which is what makes those
/// paths bit-identical on identical adjacency. `instance` is the global id
/// that keys the RNG streams. Appends the sampled edges to `out`,
/// charges `stats`, and returns the number of kernel steps taken (one
/// per expanded entry, or per pool-level step).
#[allow(clippy::too_many_arguments)]
pub fn drive_pool<N: NeighborAccess, L: Ledger>(
    kernel: &StepKernel<'_>,
    access: &mut N,
    instance: u32,
    seeds: &[VertexId],
    bufs: &mut PoolBufs,
    out: &mut Vec<(VertexId, VertexId)>,
    scratch: &mut StepScratch,
    stats: &mut L,
) -> u64 {
    let cfg = *kernel.cfg();
    let detector = kernel.select().detector;
    let PoolBufs { pool, frontier, visited, trials, pool_biases } = bufs;
    pool.clear();
    pool.extend(seeds.iter().map(|&v| PoolSlot::seed(v)));
    visited.clear();
    if cfg.without_replacement {
        visited.extend(seeds.iter().copied());
    }
    // The amortized bias lane is per-pool state: a stale lane from the
    // previous instance must not leak into this one.
    pool_biases.clear();
    let home = seeds.first().copied().unwrap_or(0);
    let mut steps = 0u64;

    for depth in 0..cfg.depth as u32 {
        if pool.is_empty() {
            break;
        }
        if cfg.frontier == FrontierMode::BiasedReplace {
            let mut sink = EmitSink(&mut *out);
            kernel.expand_replace(
                access,
                instance,
                depth,
                home,
                pool,
                pool_biases,
                &mut sink,
                scratch,
                stats,
            );
            steps += 1;
            continue;
        }
        std::mem::swap(pool, frontier);
        pool.clear();
        stats.ops().frontier_ops += frontier.len() as u64;
        let mut sink = PoolSink { cfg: &cfg, detector, visited, next: pool, out };
        match cfg.frontier {
            FrontierMode::SharedLayer => {
                kernel.expand_layer(access, instance, depth, frontier, &mut sink, scratch, stats);
                steps += 1;
            }
            _ => {
                trials.reset();
                for &slot in frontier.iter() {
                    let entry = StepEntry {
                        instance,
                        depth,
                        vertex: slot.vertex,
                        prev: slot.prev,
                        trial: trials.next(instance, slot.vertex),
                    };
                    kernel.expand(access, &entry, home, &mut sink, scratch, stats);
                }
                steps += frontier.len() as u64;
            }
        }
    }
    steps
}

/// One depth-synchronous chunk ([`drive_chunk`]) over the storage `opts`
/// picks: per-instance outputs and stats, charged like [`run_instance`]'s.
fn run_chunk_task(
    g: &Csr,
    algo: &dyn Algorithm,
    opts: &RunOptions,
    modeled: bool,
    base: usize,
    sets: &[Vec<VertexId>],
) -> (Vec<Vec<(VertexId, VertexId)>>, Vec<SimStats>) {
    run_task(g, opts, (), Chunk { algo, opts, modeled, base, sets })
}

/// [`run_chunk_task`]'s task; the chunk's disk work is charged to its
/// first instance — the same "whoever ran on the warm pool pays"
/// attribution the instance-major path applies per instance.
struct Chunk<'a> {
    algo: &'a dyn Algorithm,
    opts: &'a RunOptions,
    modeled: bool,
    base: usize,
    sets: &'a [Vec<VertexId>],
}

impl Task for Chunk<'_> {
    type Residency = ();
    type Out = (Vec<Vec<(VertexId, VertexId)>>, Vec<SimStats>);
    fn run<S: NeighborAccess>(self, access: &mut LayeredAccess<'_, S>) -> Self::Out {
        let Chunk { algo, opts, modeled, base, sets } = self;
        if modeled {
            drive_chunk::<_, SimStats>(access, algo, opts, base, sets)
        } else {
            drive_chunk::<_, ServeLedger>(access, algo, opts, base, sets)
        }
    }
    fn ledger(out: &mut Self::Out) -> Option<&mut SimStats> {
        out.1.first_mut()
    }
}

/// The depth-synchronous counterpart of [`drive_instance`] for one chunk
/// of instances. `IndependentPerVertex` algorithms run through the flat
/// grouped frontier of [`crate::batch::run_chunk`]; the layer modes
/// (`SharedLayer`, `BiasedReplace`) expand whole per-instance layers per
/// step, so there is nothing to group across instances and each runs
/// [`drive_pool`] on one warm set of buffers — bit- and charge-identical
/// because per-instance state is independent.
fn drive_chunk<N: NeighborAccess, L: Ledger>(
    access: &mut N,
    algo: &dyn Algorithm,
    opts: &RunOptions,
    base: usize,
    sets: &[Vec<VertexId>],
) -> (Vec<Vec<(VertexId, VertexId)>>, Vec<SimStats>) {
    let kernel = kernel_for(algo, opts);
    let mut outs: Vec<Vec<(VertexId, VertexId)>> =
        sets.iter().map(|seeds| instance_output(kernel.cfg(), seeds.len())).collect();
    let mut per_inst: Vec<L> = vec![L::default(); sets.len()];
    let global_id = |i: usize| opts.instance_base + (base + i) as u32;

    with_thread_scratch(|scratch| {
        if kernel.cfg().frontier == FrontierMode::IndependentPerVertex {
            let instances: Vec<ChunkInstance<'_>> = sets
                .iter()
                .enumerate()
                .map(|(i, s)| ChunkInstance { global_id: global_id(i), seeds: s })
                .collect();
            crate::batch::with_thread_arena(|arena| {
                crate::batch::run_chunk(
                    &kernel,
                    access,
                    &instances,
                    opts.prefetch_distance,
                    &mut outs,
                    &mut per_inst,
                    arena,
                    scratch,
                );
            });
        } else {
            let mut bufs = PoolBufs::default();
            for (i, seeds) in sets.iter().enumerate() {
                let (out, stats) = (&mut outs[i], &mut per_inst[i]);
                drive_pool(&kernel, access, global_id(i), seeds, &mut bufs, out, scratch, stats);
            }
        }
    });
    // `ServeLedger` wraps a `SimStats`, so this collects in place.
    (outs, per_inst.into_iter().map(L::into_stats).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AlgoConfig, NeighborSize};
    use csaw_graph::generators::toy_graph;

    /// Minimal in-test algorithm: unbiased neighbor sampling.
    struct TestNs {
        ns: usize,
        depth: usize,
    }
    impl Algorithm for TestNs {
        fn name(&self) -> &'static str {
            "test-ns"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: self.depth,
                neighbor_size: NeighborSize::Constant(self.ns),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: true,
            }
        }
    }

    /// Unbiased walk of fixed length.
    struct TestWalk {
        len: usize,
    }
    impl Algorithm for TestWalk {
        fn name(&self) -> &'static str {
            "test-walk"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: self.len,
                neighbor_size: NeighborSize::Constant(1),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: false,
            }
        }
    }

    #[test]
    fn walk_has_requested_length_and_valid_edges() {
        let g = toy_graph();
        let algo = TestWalk { len: 20 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[8, 0, 5]);
        assert_eq!(out.instances.len(), 3);
        for inst in &out.instances {
            assert_eq!(inst.len(), 20, "toy graph has no dead ends");
            for &(v, u) in inst {
                assert!(g.has_edge(v, u), "non-edge ({v},{u}) sampled");
            }
            // Path property: consecutive edges chain.
            for w in inst.windows(2) {
                assert_eq!(w[0].1, w[1].0, "walk must be connected");
            }
        }
    }

    #[test]
    fn neighbor_sampling_respects_ns_and_depth() {
        let g = toy_graph();
        let algo = TestNs { ns: 2, depth: 2 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[8]);
        let inst = &out.instances[0];
        // Depth 2, NS 2: ≤ 2 + 4 edges; all must be real edges.
        assert!(inst.len() <= 6, "{inst:?}");
        assert!(!inst.is_empty());
        for &(v, u) in inst {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn without_replacement_never_expands_twice() {
        let g = toy_graph();
        let algo = TestNs { ns: 8, depth: 6 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[0, 5, 8, 12]);
        for inst in &out.instances {
            let mut expanded: Vec<VertexId> = inst.iter().map(|&(v, _)| v).collect();
            let unique: HashSet<_> = expanded.iter().copied().collect();
            expanded.sort_unstable();
            // A vertex may appear as source of several edges within one
            // step (NS > 1) but must never be *expanded* in two steps. With
            // ns=8 ≥ max degree, re-expansion would mean duplicate (v, u)
            // pairs.
            let mut pairs = inst.clone();
            pairs.sort_unstable();
            let before = pairs.len();
            pairs.dedup();
            assert_eq!(pairs.len(), before, "duplicate sampled edge implies re-expansion");
            assert!(!unique.is_empty());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = toy_graph();
        let algo = TestWalk { len: 50 };
        let a = Sampler::new(&g, &algo).run_single_seeds(&[1, 2, 3, 4]);
        let b = Sampler::new(&g, &algo).run_single_seeds(&[1, 2, 3, 4]);
        assert_eq!(a.instances, b.instances);
    }

    #[test]
    fn different_seed_changes_output() {
        let g = toy_graph();
        let algo = TestWalk { len: 50 };
        let a = Sampler::new(&g, &algo).run_single_seeds(&[1, 2, 3]);
        let b = Sampler::new(&g, &algo)
            .with_options(RunOptions { seed: 999, ..Default::default() })
            .run_single_seeds(&[1, 2, 3]);
        assert_ne!(a.instances, b.instances);
    }

    #[test]
    fn instance_base_shifts_rng_streams() {
        let g = toy_graph();
        let algo = TestWalk { len: 30 };
        let seeds: Vec<u32> = (0..6).map(|i| i % 13).collect();
        let full = Sampler::new(&g, &algo).run_single_seeds(&seeds);
        // Running the tail [3..] with instance_base 3 must reproduce the
        // full run's instances 3..6 exactly — the property multi-GPU
        // splitting relies on.
        let tail = Sampler::new(&g, &algo)
            .with_options(RunOptions { instance_base: 3, ..Default::default() })
            .run_single_seeds(&seeds[3..]);
        assert_eq!(tail.instances, full.instances[3..]);
    }

    #[test]
    fn dead_end_terminates_by_default() {
        // Star with edges only out of 0: vertex 1.. have no out-edges.
        let g = csaw_graph::CsrBuilder::new().add_edge(0, 1).add_edge(0, 2).build();
        let algo = TestWalk { len: 10 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[0]);
        assert_eq!(out.instances[0].len(), 1, "one hop then dead end");
    }

    #[test]
    fn empty_seed_list() {
        let g = toy_graph();
        let algo = TestWalk { len: 5 };
        let out = Sampler::new(&g, &algo).run_single_seeds(&[]);
        assert!(out.instances.is_empty());
        assert_eq!(out.sampled_edges(), 0);
    }

    #[test]
    fn checked_run_rejects_bad_seeds_and_passes_good_ones() {
        let g = toy_graph(); // 13 vertices
        let algo = TestWalk { len: 5 };
        let s = Sampler::new(&g, &algo);
        assert_eq!(
            s.run_single_seeds_checked(&[0, 99]).unwrap_err(),
            RunError::SeedOutOfRange { instance: 1, vertex: 99, num_vertices: 13 }
        );
        assert_eq!(
            s.run_checked(&[vec![3], vec![]]).unwrap_err(),
            RunError::EmptySeedSet { instance: 1 }
        );
        assert_eq!(
            s.run_checked(&[vec![3, 13]]).unwrap_err(),
            RunError::SeedOutOfRange { instance: 0, vertex: 13, num_vertices: 13 }
        );
        let ok = s.run_single_seeds_checked(&[0, 12]).unwrap();
        assert_eq!(ok.instances, s.run_single_seeds(&[0, 12]).instances);
        // Zero instances is a valid (empty) run, not an error.
        assert!(s.run_single_seeds_checked(&[]).unwrap().instances.is_empty());
    }

    #[test]
    fn per_instance_stats_sum_to_run_stats() {
        let g = toy_graph();
        let algo = TestNs { ns: 2, depth: 2 };
        // Modeled, so the conservation covers the cost model's charges.
        let out = Sampler::new(&g, &algo).modeled().run_single_seeds(&[8, 0, 5]);
        assert_eq!(out.instance_stats.len(), 3);
        let summed: SimStats = out.instance_stats.iter().copied().sum();
        assert_eq!(summed, out.stats);
        for (s, inst) in out.instance_stats.iter().zip(&out.instances) {
            assert_eq!(s.sampled_edges, inst.len() as u64);
        }
        // Slicing one instance out reproduces a solo run's accounting.
        let solo = Sampler::new(&g, &algo).modeled().run_single_seeds(&[8]);
        let sliced = out.slice(0..1);
        assert_eq!(sliced.instances, solo.instances);
        assert_eq!(sliced.stats, solo.stats);
    }

    /// Zeroes the depth-sync-only observability counters so a depth-sync
    /// stat set can be compared against instance-major execution (which
    /// never forms vertex groups).
    fn scrub_batch_counters(mut s: SimStats) -> SimStats {
        s.batch_groups = 0;
        s.batch_group_entries = 0;
        s.batch_group_hist = [0; 8];
        s.batch_prefetch_hits = 0;
        s.batch_prefetch_misses = 0;
        s
    }

    #[test]
    fn depth_sync_matches_instance_major_at_any_chunk_size() {
        let g = toy_graph();
        // Duplicate seeds force co-located walkers (shared groups, trial
        // ordinals > 0) — the paths most likely to diverge.
        let seeds: Vec<u32> = (0..17).map(|i| [8, 0, 8, 5, 2][i % 5]).collect();
        for (name, algo) in [
            ("walk", Box::new(TestWalk { len: 12 }) as Box<dyn Algorithm>),
            ("ns", Box::new(TestNs { ns: 3, depth: 4 })),
        ] {
            let algo: &dyn Algorithm = algo.as_ref();
            let reference = Sampler::new(&g, &algo).modeled().run_single_seeds(&seeds);
            for chunk in [1usize, 2, 3, 7, 100] {
                for prefetch in [0usize, 1, 8] {
                    let opts = RunOptions {
                        exec: ExecMode::DepthSync,
                        batch_chunk: Some(chunk),
                        prefetch_distance: prefetch,
                        ..Default::default()
                    };
                    let out = Sampler::new(&g, &algo)
                        .modeled()
                        .with_options(opts)
                        .run_single_seeds(&seeds);
                    assert_eq!(
                        out.instances, reference.instances,
                        "{name}: chunk={chunk} prefetch={prefetch}"
                    );
                    assert_eq!(
                        scrub_batch_counters(out.stats),
                        reference.stats,
                        "{name}: chunk={chunk} prefetch={prefetch}"
                    );
                    let summed: SimStats = out.instance_stats.iter().copied().sum();
                    assert_eq!(summed, out.stats, "per-instance stats must conserve");
                }
            }
        }
    }

    #[test]
    fn depth_sync_matches_instance_major_on_layer_modes() {
        // SharedLayer (layer sampling) and BiasedReplace (multi-dim walk)
        // take the loop-interchange path rather than the flat frontier.
        use crate::algorithms::registry::{AlgoSpec, AlgorithmId};
        let g = toy_graph();
        for id in [AlgorithmId::LayerSampling, AlgorithmId::MultiDimRandomWalk] {
            let algo = AlgoSpec::new(id).with_depth(4).build().unwrap();
            let algo: &dyn Algorithm = algo.as_ref();
            let sets: Vec<Vec<u32>> = vec![vec![8, 0, 5], vec![2, 3, 4], vec![8, 0, 5]];
            let reference = Sampler::new(&g, &algo).modeled().run(&sets);
            for chunk in [1usize, 2, 100] {
                let opts = RunOptions {
                    exec: ExecMode::DepthSync,
                    batch_chunk: Some(chunk),
                    ..Default::default()
                };
                let out = Sampler::new(&g, &algo).modeled().with_options(opts).run(&sets);
                assert_eq!(out.instances, reference.instances, "{id:?} chunk={chunk}");
                assert_eq!(scrub_batch_counters(out.stats), reference.stats, "{id:?}");
            }
        }
    }

    #[test]
    fn depth_sync_populates_batch_observability() {
        let g = toy_graph();
        let algo = TestWalk { len: 10 };
        let opts =
            RunOptions { exec: ExecMode::DepthSync, batch_chunk: Some(100), ..Default::default() };
        // All walkers start at one vertex: depth 0 is a single group of 8.
        let out = Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&[8; 8]);
        assert!(out.stats.batch_groups > 0);
        assert_eq!(out.stats.batch_group_hist.iter().sum::<u64>(), out.stats.batch_groups);
        assert_eq!(
            out.stats.batch_prefetch_hits + out.stats.batch_prefetch_misses,
            out.stats.batch_groups,
            "prefetch coverage must conserve"
        );
        assert!(out.stats.batch_group_entries >= out.stats.batch_groups);
        assert_eq!(out.stats.batch_group_hist[3], 1, "depth-0 group of 8 lands in bucket 3");
    }

    #[test]
    fn stats_accumulate_work() {
        let g = toy_graph();
        let algo = TestNs { ns: 2, depth: 2 };
        let out = Sampler::new(&g, &algo).modeled().run_single_seeds(&[8, 0]);
        assert!(out.stats.rng_draws > 0);
        assert!(out.stats.selections > 0);
        assert!(out.stats.gmem_bytes > 0);
        assert_eq!(out.stats.sampled_edges, out.sampled_edges());
        assert_eq!(out.instance_stats.len(), 2);
    }
}
