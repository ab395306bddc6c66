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
//!    bias is static ([`StepKernel::group_shareable`]) — draw from one
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
//! Stats are charge-identical too: a member of a shared build charges
//! the fill and the rebuilds it was spared, which depend on the degree
//! alone ([`crate::ctps::rebuild_cost`]), and visited-check charges are
//! applied at replay where the per-instance visited sizes match the
//! instance-major sequence. Only the `batch_*` counters (groups,
//! histogram, prefetch coverage) are new — they are zero under
//! instance-major execution.
//!
//! The grouped expansion itself — [`expand_frontier`] — is shared with
//! the out-of-memory scheduler's depth-synchronous drain; [`run_chunk`]
//! adds what is the engine's own (seeding, trial ordinals, the flat-order
//! replay). All buffers live in a [`BatchArena`] double-buffered between
//! depths: with a warm arena a steady-state depth performs zero heap
//! allocations (the PR-5 gate, extended to this mode by
//! `tests/step_alloc.rs`).

use crate::collision::charge_visited_check;
use crate::step::{FrontierSink, NeighborAccess, StepEntry, StepKernel, StepScratch, TrialCounter};
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

/// One entry of a grouped frontier: what the kernel expands, plus where
/// its charges go.
#[derive(Debug, Clone, Copy)]
pub struct FrontierItem {
    /// The entry, keyed by its logical position (global instance id).
    pub entry: StepEntry,
    /// The instance's home seed (restart target of the `UPDATE` and
    /// dead-end hooks).
    pub home: VertexId,
    /// Index into the ledger slice handed to [`expand_frontier`]: the
    /// instance's own counters, or the one ledger a stream keeps.
    pub slot: u32,
}

/// What one entry's grouped expansion recorded, for replay in the
/// caller's own order.
#[derive(Debug, Clone, Copy)]
pub struct Recorded<'a> {
    /// Sampled edges, in pick order.
    pub emits: &'a [(VertexId, VertexId)],
    /// Frontier offers (vertex, prev), post depth-gate, pre visited
    /// filter — the filter is order-dependent and runs at replay.
    pub offers: &'a [(VertexId, Option<VertexId>)],
    /// Warp cycles the expansion charged its ledger (the out-of-memory
    /// scheduler's per-instance straggler bound).
    pub warp_cycles: u64,
}

/// Records one entry's sink traffic during grouped expansion. Charges
/// nothing — the replay applies the order-dependent charges (visited
/// checks, frontier ops) against the per-instance state exactly as
/// instance-major execution would.
struct RecordSink<'a> {
    emits: &'a mut Vec<(VertexId, VertexId)>,
    offers: &'a mut Vec<(VertexId, Option<VertexId>)>,
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
    /// The frontier [`expand_frontier`] expands, in the caller's flat
    /// order.
    cur: Vec<FrontierItem>,
    /// Next depth's flat frontier, filled by [`run_chunk`]'s replay.
    next: Vec<FrontierItem>,
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
    /// Recorded sampled edges across the whole frontier.
    emits: Vec<(VertexId, VertexId)>,
    /// Recorded frontier offers across the whole frontier.
    offers: Vec<(VertexId, Option<VertexId>)>,
    /// Per-entry record, indexed by flat position: the spans into
    /// `emits`/`offers` and the warp cycles charged.
    spans: Vec<(u32, u32, u32, u32, u64)>,
    /// Flat-order trial assignment (reset per instance run).
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

    /// Replaces the frontier [`expand_frontier`] will expand.
    pub fn set_frontier(&mut self, items: impl IntoIterator<Item = FrontierItem>) {
        self.cur.clear();
        self.cur.extend(items);
    }

    /// The current frontier, in flat order.
    pub fn frontier(&self) -> &[FrontierItem] {
        &self.cur
    }

    /// What the last [`expand_frontier`] recorded for frontier entry
    /// `idx`.
    pub fn recorded(&self, idx: usize) -> Recorded<'_> {
        let (e0, e1, o0, o1, warp_cycles) = self.spans[idx];
        Recorded {
            emits: &self.emits[e0 as usize..e1 as usize],
            offers: &self.offers[o0 as usize..o1 as usize],
            warp_cycles,
        }
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

/// Expands the arena's frontier in vertex-grouped order, recording every
/// entry's emits and offers ([`BatchArena::recorded`]) instead of sinking
/// them: batched Philox first blocks, an index sort by `(vertex, flat
/// position)`, look-ahead prefetch, and one shared bias fill + CTPS build
/// per vertex group when the kernel allows it
/// ([`StepKernel::group_shareable`]). Entry `i` charges
/// `stats[item.slot]`; group-level charges with no single owning walker —
/// the `batch_*` counters — go to the slot of each group's first entry
/// (deterministic and conservation-clean: the ledgers still sum to the
/// frontier's totals).
///
/// Used by [`run_chunk`] (one depth of a chunk) and by the out-of-memory
/// scheduler's depth-synchronous drain (one drained batch); each replays
/// the record through its own sinks in its own order.
pub fn expand_frontier<N: NeighborAccess>(
    kernel: &StepKernel<'_>,
    access: &mut N,
    prefetch_distance: usize,
    stats: &mut [SimStats],
    arena: &mut BatchArena,
    scratch: &mut StepScratch,
) {
    let BatchArena { cur, order, group_starts, tasks, blocks, emits, offers, spans, .. } = arena;
    let n = cur.len();
    let seed = kernel.seed();
    let shareable = kernel.group_shareable();
    let cache = kernel.prefetch_cache();

    // Batched Philox: all first blocks in one pass over the task keys.
    tasks.clear();
    tasks.extend(cur.iter().map(|item| {
        let e = &item.entry;
        task_key(e.instance, e.depth, e.vertex, e.trial)
    }));
    Philox::first_blocks_into(seed, tasks, blocks);

    // Vertex grouping: sort an index array, never the items — the
    // secondary index key makes the order deterministic (and equal to a
    // stable sort) for any sort algorithm.
    let vertex_at = |pos: u32| cur[pos as usize].entry.vertex;
    order.clear();
    order.extend(0..n as u32);
    order.sort_unstable_by_key(|&i| (vertex_at(i), i));
    group_starts.clear();
    for (pos, &i) in order.iter().enumerate() {
        if pos == 0 || vertex_at(i) != vertex_at(order[pos - 1]) {
            group_starts.push(pos as u32);
        }
    }
    group_starts.push(n as u32);
    let groups = group_starts.len() - 1;

    // Prefetch coverage model: the pipeline needs `adj_dist` groups of
    // lead time before a row can arrive early, so the first
    // min(adj_dist, groups) groups count as misses and the rest as hits
    // (hits + misses == groups, asserted by the conservation tests).
    // Distance 0 disables prefetching entirely.
    let adj_dist = if prefetch_distance == 0 { 0 } else { (prefetch_distance / 2).max(1) };
    let covered = if prefetch_distance == 0 { 0 } else { groups.saturating_sub(adj_dist) };
    // First vertex of the group `ahead` groups on, if there is one.
    let group_vertex = |g: usize| {
        group_starts.get(g).filter(|&&s| (s as usize) < n).map(|&s| vertex_at(order[s as usize]))
    };

    emits.clear();
    offers.clear();
    spans.clear();
    spans.resize(n, (0, 0, 0, 0, 0));

    for gi in 0..groups {
        let members = &order[group_starts[gi] as usize..group_starts[gi + 1] as usize];
        let first = cur[members[0] as usize];

        // Look-ahead prefetch: indices far out (cheap, one line),
        // adjacency closer in (it lands later but is bigger).
        if prefetch_distance > 0 {
            if let Some(pv) = group_vertex(gi + prefetch_distance) {
                access.prefetch_index(pv);
            }
            if let Some(pv) = group_vertex(gi + adj_dist) {
                access.prefetch_adjacency(pv);
                if let Some(cache) = cache {
                    cache.prefetch_shard(pv);
                }
            }
        }

        // Frontier-occupancy observability.
        let owner = &mut stats[first.slot as usize];
        owner.record_batch_group(members.len());
        if gi < groups - covered {
            owner.batch_prefetch_misses += 1;
        } else {
            owner.batch_prefetch_hits += 1;
        }

        // One shared bias fill + CTPS build per group when legal;
        // per-entry sources (still grouped, prefetched, and batch-seeded)
        // otherwise.
        let build = if shareable {
            kernel.prepare_group(access, first.entry.vertex, first.entry.prev, scratch)
        } else {
            None
        };

        for &i in members {
            let idx = i as usize;
            let item = &cur[idx];
            let ledger = &mut stats[item.slot as usize];
            let rng = Philox::with_first_block(seed, tasks[idx], blocks[idx]);
            let (e0, o0, before) = (emits.len() as u32, offers.len() as u32, ledger.warp_cycles);
            let mut sink = RecordSink { emits: &mut *emits, offers: &mut *offers };
            kernel.expand_with(
                access,
                &item.entry,
                item.home,
                rng,
                build.as_ref(),
                &mut sink,
                scratch,
                ledger,
            );
            let cycles = ledger.warp_cycles - before;
            spans[idx] = (e0, emits.len() as u32, o0, offers.len() as u32, cycles);
        }
    }
}

/// Drives one chunk of [`crate::api::FrontierMode::IndependentPerVertex`]
/// instances depth-synchronously. `outs[i]` receives instance `i`'s
/// sampled edges and `per_inst[i]` its work counters; both must have one
/// entry per chunk instance. The caller owns the kernel (algorithm,
/// SELECT config, seed, cache, policy) and the access; this driver owns
/// the loop interchange: seeding, trial ordinals, and the flat-order
/// replay of what [`expand_frontier`] recorded.
#[allow(clippy::too_many_arguments)]
pub fn run_chunk<N: NeighborAccess>(
    kernel: &StepKernel<'_>,
    access: &mut N,
    instances: &[ChunkInstance<'_>],
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

    // Seed the flat frontier instance-contiguously and the visited sets,
    // mirroring the per-instance driver's setup.
    if arena.visited.len() < instances.len() {
        arena.visited.resize_with(instances.len(), HashSet::new);
    }
    arena.cur.clear();
    for (i, inst) in instances.iter().enumerate() {
        arena.visited[i].clear();
        if cfg.without_replacement {
            arena.visited[i].extend(inst.seeds.iter().copied());
        }
        let home = inst.seeds.first().copied().unwrap_or(0);
        arena.cur.extend(inst.seeds.iter().map(|&vertex| FrontierItem {
            entry: StepEntry { instance: inst.global_id, depth: 0, vertex, prev: None, trial: 0 },
            home,
            slot: i as u32,
        }));
    }

    for depth in 0..cfg.depth as u32 {
        if arena.cur.is_empty() {
            break;
        }
        // Trial ordinals in flat order, *before* sorting — the flat
        // frontier is instance-contiguous, so this visits each instance's
        // entries in exactly the order its per-instance pool would. The
        // key holds the instance, so starting over at each instance's run
        // assigns the same ordinals and keeps a one-entry run (a walk) in
        // the counter's inline slot.
        let mut run_slot = u32::MAX;
        for item in arena.cur.iter_mut() {
            // Per-depth frontier charge: instance-major charges each
            // instance `frontier.len()` at the top of its depth; one unit
            // per flat entry lands identically.
            per_inst[item.slot as usize].frontier_ops += 1;
            if item.slot != run_slot {
                run_slot = item.slot;
                arena.trials.reset();
            }
            item.entry.trial = arena.trials.next(item.entry.instance, item.entry.vertex);
        }

        expand_frontier(kernel, access, prefetch_distance, per_inst, arena, scratch);

        // Replay in flat order: output append order, the visited filter's
        // charge/accept sequence, and next-frontier contiguity all match
        // instance-major execution exactly.
        arena.next.clear();
        for (idx, item) in arena.cur.iter().enumerate() {
            let inst = item.slot as usize;
            let (e0, e1, o0, o1, _) = arena.spans[idx];
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
                let entry = StepEntry { depth: depth + 1, vertex, prev, trial: 0, ..item.entry };
                arena.next.push(FrontierItem { entry, ..*item });
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
