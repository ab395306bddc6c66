//! Depth-synchronous batched execution — the engine's loop interchange.
//!
//! The instance-major engine ([`crate::engine`]) runs each instance to
//! completion: every step is a dependent CSR pointer-chase, so a host
//! core stalls on DRAM once the graph falls out of cache. C-SAW's GPU
//! hides that latency with thousands of concurrent warps; ThunderRW's
//! CPU answer — and this module's — is to advance **all instances in
//! lockstep one depth at a time** over a flat `(instance, vertex)`
//! frontier, which buys three things per depth:
//!
//! 1. **Software prefetch**: upcoming frontier rows are known an entire
//!    depth in advance, so the driver issues `_mm_prefetch` hints a
//!    configurable distance ahead ([`NeighborAccess::prefetch_index`] /
//!    `prefetch_adjacency`, plus the CTPS-cache shard).
//! 2. **Vertex grouping**: entries are expanded in vertex-sorted order,
//!    so co-located walkers reuse a hot adjacency row, and — when the
//!    bias is static ([`StepKernel::group_shareable`]) — share one
//!    EDGEBIAS fill + CTPS build per group instead of one per walker.
//! 3. **Batched Philox**: every entry's first RNG block is generated
//!    up front in one tight loop ([`Philox::first_blocks_into`], the
//!    cuRAND idiom of 4 counters per call into a lane buffer).
//!
//! # Why the output is bit-identical
//!
//! Every expansion draws from a stream keyed by
//! `task_key(instance, depth, vertex, trial)` — logical position, never
//! execution order — so *expanding* in any order produces the same picks
//! per entry. Order-dependent state lives only in the sinks (output
//! append order, the without-replacement visited filter); the driver
//! therefore **records** each entry's emits and frontier offers during
//! grouped expansion and **replays** them in flat order, reproducing the
//! instance-major sink sequence exactly. Trials are assigned in flat
//! order before sorting, and the flat frontier stays instance-contiguous
//! by induction (replay appends offers in flat order), so the trial
//! ordinals match instance-major at every depth.
//!
//! Stats are charge-identical too: shared builds capture the fill/rebuild
//! charges they saved as deltas ([`crate::step::SharedBuild`]) and replay
//! them per entry, and visited-check charges are applied at replay where
//! the per-instance visited sizes match the instance-major sequence. Only
//! the `batch_*` counters (groups, histogram, prefetch coverage) are new
//! — they are zero under instance-major execution.
//!
//! All buffers live in a [`BatchArena`] double-buffered between depths:
//! with a warm arena a steady-state depth performs zero heap allocations
//! (the PR-5 gate, extended to this mode by `tests/step_alloc.rs`).

use crate::collision::charge_visited_check;
use crate::frontier::BatchSlot;
use crate::step::{
    FrontierSink, NeighborAccess, SharedBuild, StepEntry, StepKernel, StepScratch, TrialCounter,
};
use csaw_gpu::rng::task_key;
use csaw_gpu::stats::SimStats;
use csaw_gpu::Philox;
use csaw_graph::VertexId;
use std::cell::RefCell;
use std::collections::HashSet;

/// One chunk instance: its global id (keys RNG streams) and seed set.
#[derive(Debug, Clone, Copy)]
pub struct ChunkInstance<'a> {
    /// Global instance id (`instance_base + local index`).
    pub global_id: u32,
    /// The instance's seed vertices.
    pub seeds: &'a [VertexId],
}

/// Records one entry's sink traffic during grouped expansion for later
/// replay in flat order. Charges nothing — the replay applies the
/// order-dependent charges (visited checks, frontier ops) against the
/// per-instance state exactly as instance-major execution would.
pub struct RecordSink<'a> {
    /// Sampled edges, appended in pick order.
    pub emits: &'a mut Vec<(VertexId, VertexId)>,
    /// Frontier offers (vertex, prev), post depth-gate, pre visited
    /// filter — the filter is order-dependent and runs at replay.
    pub offers: &'a mut Vec<(VertexId, Option<VertexId>)>,
}

impl FrontierSink for RecordSink<'_> {
    fn emit(&mut self, _entry: &StepEntry, edge: (VertexId, VertexId)) {
        self.emits.push(edge);
    }

    fn push(
        &mut self,
        _entry: &StepEntry,
        vertex: VertexId,
        prev: Option<VertexId>,
        _stats: &mut SimStats,
    ) {
        self.offers.push((vertex, prev));
    }
}

/// Reusable buffers of the depth-synchronous driver — the double-buffered
/// frontier arenas plus every per-depth lane. Owned once per worker (or
/// handed in explicitly by the allocation gate) and cleared, never
/// dropped, between depths and chunks: a warm arena makes a steady-state
/// depth allocation-free.
#[derive(Debug, Default)]
pub struct BatchArena {
    /// Current depth's flat frontier (instance-contiguous).
    cur: Vec<BatchSlot>,
    /// Next depth's flat frontier, filled by replay.
    next: Vec<BatchSlot>,
    /// Indices into `cur`, sorted by `(vertex, index)` — the grouped
    /// expansion order.
    order: Vec<u32>,
    /// Start offset (into `order`) of each vertex-group, plus one
    /// past-the-end sentinel.
    group_starts: Vec<u32>,
    /// Per-entry RNG task keys, in flat order.
    tasks: Vec<u64>,
    /// Per-entry first Philox blocks, batch-generated from `tasks`.
    blocks: Vec<[u32; 4]>,
    /// Recorded sampled edges across the whole depth.
    emits: Vec<(VertexId, VertexId)>,
    /// Recorded frontier offers across the whole depth.
    offers: Vec<(VertexId, Option<VertexId>)>,
    /// Per-entry spans into `emits`/`offers`, indexed by flat position:
    /// `(emit_start, emit_end, offer_start, offer_end)`.
    spans: Vec<(u32, u32, u32, u32)>,
    /// Flat-order trial assignment (reset per depth).
    trials: TrialCounter,
    /// Per-instance visited sets (without-replacement filter), reused
    /// across chunks — clearing keeps capacity.
    visited: Vec<HashSet<VertexId>>,
}

impl BatchArena {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_ARENA: RefCell<BatchArena> = RefCell::new(BatchArena::new());
}

/// Runs `f` with this thread's shared [`BatchArena`] — one arena per
/// worker, exactly like [`crate::step::with_thread_scratch`] (and with
/// the same non-reentrancy caveat).
pub fn with_thread_arena<R>(f: impl FnOnce(&mut BatchArena) -> R) -> R {
    THREAD_ARENA.with(|a| f(&mut a.borrow_mut()))
}

/// Drives one chunk of [`crate::api::FrontierMode::IndependentPerVertex`]
/// instances depth-synchronously. `outs[i]` receives instance `i`'s
/// sampled edges and `per_inst[i]` its work counters; both must have one
/// entry per chunk instance. The caller owns the kernel (algorithm,
/// SELECT config, seed, cache, policy) and the access; the driver owns
/// the loop interchange.
///
/// Group-level charges with no single owning walker — the `batch_*`
/// counters — are attributed to the instance of each group's first entry
/// (deterministic and conservation-clean: per-instance counters still sum
/// to the chunk totals).
#[allow(clippy::too_many_arguments)]
pub fn run_chunk<N: NeighborAccess>(
    kernel: &StepKernel<'_>,
    access: &mut N,
    instances: &[ChunkInstance<'_>],
    seed: u64,
    prefetch_distance: usize,
    outs: &mut [Vec<(VertexId, VertexId)>],
    per_inst: &mut [SimStats],
    arena: &mut BatchArena,
    scratch: &mut StepScratch,
) {
    let cfg = *kernel.cfg();
    assert_eq!(instances.len(), outs.len(), "one output vector per instance");
    assert_eq!(instances.len(), per_inst.len(), "one counter set per instance");
    let detector = kernel.select().detector;
    let shareable = kernel.group_shareable();
    let cache = kernel.prefetch_cache();

    // Seed the flat frontier instance-contiguously and the visited sets,
    // mirroring `drive_instance`'s per-instance setup.
    if arena.visited.len() < instances.len() {
        arena.visited.resize_with(instances.len(), HashSet::new);
    }
    arena.cur.clear();
    arena.next.clear();
    for (i, inst) in instances.iter().enumerate() {
        arena.visited[i].clear();
        if cfg.without_replacement {
            arena.visited[i].extend(inst.seeds.iter().copied());
        }
        for &s in inst.seeds {
            arena.cur.push(BatchSlot { instance: i as u32, vertex: s, prev: None, trial: 0 });
        }
    }

    for depth in 0..cfg.depth as u32 {
        if arena.cur.is_empty() {
            break;
        }
        let n = arena.cur.len();

        // Per-depth frontier charge: instance-major charges each instance
        // `frontier.len()` at the top of its depth; one unit per flat
        // entry lands identically.
        for slot in arena.cur.iter() {
            per_inst[slot.instance as usize].frontier_ops += 1;
        }

        // Trial ordinals in flat order, *before* sorting — the flat
        // frontier is instance-contiguous, so this visits each instance's
        // entries in exactly the order its per-instance pool would. The
        // key holds the instance, so starting over at each instance's run
        // assigns the same ordinals and keeps a one-entry run (a walk) in
        // the counter's inline slot.
        arena.tasks.clear();
        let mut run_instance = u32::MAX;
        for slot in arena.cur.iter_mut() {
            if slot.instance != run_instance {
                run_instance = slot.instance;
                arena.trials.reset();
            }
            slot.trial =
                arena.trials.next(instances[slot.instance as usize].global_id, slot.vertex);
            arena.tasks.push(task_key(
                instances[slot.instance as usize].global_id,
                depth,
                slot.vertex,
                slot.trial,
            ));
        }

        // Batched Philox: all first blocks in one pass over the task keys.
        Philox::first_blocks_into(seed, &arena.tasks, &mut arena.blocks);

        // Vertex grouping: sort an index array, never the slots — the
        // secondary index key makes the order deterministic (and equal to
        // a stable sort) for any sort algorithm.
        arena.order.clear();
        arena.order.extend(0..n as u32);
        {
            let cur = &arena.cur;
            arena.order.sort_unstable_by_key(|&i| (cur[i as usize].vertex, i));
        }
        arena.group_starts.clear();
        for (pos, &i) in arena.order.iter().enumerate() {
            if pos == 0
                || arena.cur[i as usize].vertex != arena.cur[arena.order[pos - 1] as usize].vertex
            {
                arena.group_starts.push(pos as u32);
            }
        }
        arena.group_starts.push(n as u32);
        let groups = arena.group_starts.len() - 1;

        // Prefetch coverage model: the pipeline needs `adj_dist` groups of
        // lead time before a row can arrive early, so the first
        // min(adj_dist, groups) groups of each depth count as misses and
        // the rest as hits (hits + misses == groups, asserted by the
        // conservation tests). Distance 0 disables prefetching entirely.
        let adj_dist = if prefetch_distance == 0 { 0 } else { (prefetch_distance / 2).max(1) };
        let covered = if prefetch_distance == 0 { 0 } else { groups.saturating_sub(adj_dist) };

        arena.emits.clear();
        arena.offers.clear();
        arena.spans.clear();
        arena.spans.resize(n, (0, 0, 0, 0));

        for gi in 0..groups {
            let start = arena.group_starts[gi] as usize;
            let end = arena.group_starts[gi + 1] as usize;
            let v = arena.cur[arena.order[start] as usize].vertex;

            // Look-ahead prefetch: indices far out (cheap, one line),
            // adjacency closer in (it lands later but is bigger).
            if prefetch_distance > 0 {
                if let Some(&i) = arena
                    .group_starts
                    .get(gi + prefetch_distance)
                    .filter(|&&s| (s as usize) < n)
                    .map(|&s| &arena.order[s as usize])
                {
                    access.prefetch_index(arena.cur[i as usize].vertex);
                }
                if let Some(&i) = arena
                    .group_starts
                    .get(gi + adj_dist)
                    .filter(|&&s| (s as usize) < n)
                    .map(|&s| &arena.order[s as usize])
                {
                    let pv = arena.cur[i as usize].vertex;
                    access.prefetch_adjacency(pv);
                    if let Some(cache) = cache {
                        cache.prefetch_shard(pv);
                    }
                }
            }

            // Frontier-occupancy observability, attributed to the group's
            // first entry's instance.
            let owner = arena.cur[arena.order[start] as usize].instance as usize;
            per_inst[owner].record_batch_group(end - start);
            if gi < groups - covered {
                per_inst[owner].batch_prefetch_misses += 1;
            } else {
                per_inst[owner].batch_prefetch_hits += 1;
            }

            // One shared bias fill + CTPS build per group when legal;
            // per-entry expansion (still grouped, prefetched, and
            // batch-seeded) otherwise.
            let build: Option<SharedBuild> = if shareable {
                let prev = arena.cur[arena.order[start] as usize].prev;
                kernel.prepare_group(access, v, prev, scratch)
            } else {
                None
            };

            for &i in &arena.order[start..end] {
                let idx = i as usize;
                let slot = arena.cur[idx];
                let inst = slot.instance as usize;
                let entry = StepEntry {
                    instance: instances[inst].global_id,
                    depth,
                    vertex: slot.vertex,
                    prev: slot.prev,
                    trial: slot.trial,
                };
                let rng = Philox::with_first_block(seed, arena.tasks[idx], arena.blocks[idx]);
                let home = instances[inst].seeds.first().copied().unwrap_or(0);
                let e0 = arena.emits.len() as u32;
                let o0 = arena.offers.len() as u32;
                {
                    let mut sink =
                        RecordSink { emits: &mut arena.emits, offers: &mut arena.offers };
                    match &build {
                        Some(b) => kernel.expand_in_group(
                            access,
                            &entry,
                            home,
                            b,
                            rng,
                            &mut sink,
                            scratch,
                            &mut per_inst[inst],
                        ),
                        None => kernel.expand_rng(
                            access,
                            &entry,
                            home,
                            rng,
                            &mut sink,
                            scratch,
                            &mut per_inst[inst],
                        ),
                    }
                }
                arena.spans[idx] = (e0, arena.emits.len() as u32, o0, arena.offers.len() as u32);
            }
        }

        // Replay in flat order: output append order, the visited filter's
        // charge/accept sequence, and next-frontier contiguity all match
        // instance-major execution exactly.
        arena.next.clear();
        for idx in 0..n {
            let slot = arena.cur[idx];
            let inst = slot.instance as usize;
            let (e0, e1, o0, o1) = arena.spans[idx];
            outs[inst].extend_from_slice(&arena.emits[e0 as usize..e1 as usize]);
            for &(vertex, prev) in &arena.offers[o0 as usize..o1 as usize] {
                let stats = &mut per_inst[inst];
                if cfg.without_replacement {
                    charge_visited_check(detector, arena.visited[inst].len(), stats);
                    if !arena.visited[inst].insert(vertex) {
                        continue;
                    }
                }
                stats.frontier_ops += 1;
                arena.next.push(BatchSlot { instance: slot.instance, vertex, prev, trial: 0 });
            }
        }
        std::mem::swap(&mut arena.cur, &mut arena.next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{AlgoConfig, Algorithm, FrontierMode, NeighborSize};
    use crate::step::CsrAccess;
    use csaw_graph::generators::toy_graph;

    struct Ns2;
    impl Algorithm for Ns2 {
        fn name(&self) -> &'static str {
            "ns2"
        }
        fn config(&self) -> AlgoConfig {
            AlgoConfig {
                depth: 3,
                neighbor_size: NeighborSize::Constant(2),
                frontier: FrontierMode::IndependentPerVertex,
                without_replacement: true,
            }
        }
    }

    #[test]
    fn chunk_matches_instance_major_engine() {
        let g = toy_graph();
        let algo = Ns2;
        let seeds: Vec<Vec<u32>> = vec![vec![8], vec![0], vec![8], vec![5]];
        let reference = crate::engine::Sampler::new(&g, &algo).run(&seeds);

        let kernel = StepKernel::new(&algo, 0x5eed);
        let mut access = CsrAccess { graph: &g };
        let chunk: Vec<ChunkInstance<'_>> = seeds
            .iter()
            .enumerate()
            .map(|(i, s)| ChunkInstance { global_id: i as u32, seeds: s })
            .collect();
        let mut outs = vec![Vec::new(); seeds.len()];
        let mut per_inst = vec![SimStats::new(); seeds.len()];
        let mut arena = BatchArena::new();
        let mut scratch = StepScratch::new();
        run_chunk(
            &kernel,
            &mut access,
            &chunk,
            0x5eed,
            4,
            &mut outs,
            &mut per_inst,
            &mut arena,
            &mut scratch,
        );
        assert_eq!(outs, reference.instances);

        // Aggregate stats are charge-identical modulo the batch_* counters
        // (instance-major never forms groups). sampled_edges is tallied by
        // the engine from outputs, so exclude it the same way here.
        let mut total: SimStats = per_inst.iter().copied().sum();
        assert!(total.batch_groups > 0);
        assert_eq!(
            total.batch_prefetch_hits + total.batch_prefetch_misses,
            total.batch_groups,
            "prefetch coverage must conserve"
        );
        assert_eq!(total.batch_group_hist.iter().sum::<u64>(), total.batch_groups);
        total.batch_groups = 0;
        total.batch_group_entries = 0;
        total.batch_group_hist = [0; 8];
        total.batch_prefetch_hits = 0;
        total.batch_prefetch_misses = 0;
        total.sampled_edges = reference.stats.sampled_edges;
        assert_eq!(total, reference.stats);
    }

    #[test]
    fn warm_arena_reruns_identically() {
        let g = toy_graph();
        let algo = Ns2;
        let seeds: Vec<Vec<u32>> = vec![vec![8], vec![2]];
        let kernel = StepKernel::new(&algo, 7);
        let chunk: Vec<ChunkInstance<'_>> = seeds
            .iter()
            .enumerate()
            .map(|(i, s)| ChunkInstance { global_id: i as u32, seeds: s })
            .collect();
        let mut arena = BatchArena::new();
        let mut scratch = StepScratch::new();
        let mut run = || {
            let mut access = CsrAccess { graph: &g };
            let mut outs = vec![Vec::new(); seeds.len()];
            let mut per_inst = vec![SimStats::new(); seeds.len()];
            run_chunk(
                &kernel,
                &mut access,
                &chunk,
                7,
                8,
                &mut outs,
                &mut per_inst,
                &mut arena,
                &mut scratch,
            );
            outs
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "a warm arena must not leak state between chunks");
    }
}
