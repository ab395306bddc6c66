//! Allocation-regression gate for the expand hot path.
//!
//! Drives the shared [`StepKernel`] directly — through the engine's own
//! per-instance depth loop — under a counting global allocator, and asserts
//! that a steady-state repetition of every Table-I algorithm performs
//! **exactly zero** heap allocations. Any `Vec`/`Box`/`HashSet` growth
//! inside `expand`/`expand_layer`/`expand_replace`, SELECT, or the SIMT
//! warp scan trips this test, so per-step churn cannot creep back in.
//! Two exact counts ride along: a frontier of one never touches the trial
//! counter's map, and a whole simple-walk instance through the engine's
//! own driver allocates its output vector and its pool buffers, no more.
//! The adaptive method's rejection path, with its capped-out ITS
//! fallback, is held to the same zero. Every gate runs under both
//! ledgers: the modeling [`SimStats`] and the serving [`ServeLedger`].
//!
//! The binary holds a single `#[test]` on purpose: the counting allocator
//! is process-global, and a concurrent test thread allocating during the
//! measured window would produce false positives.

use csaw::core::algorithms::registry::{AlgoSpec, AlgorithmId};
use csaw::core::algorithms::Node2Vec;
use csaw::core::api::FrontierMode;
use csaw::core::batch::{expand_frontier, run_chunk, BatchArena, ChunkInstance, FrontierItem};
use csaw::core::ctps_cache::CtpsCache;
use csaw::core::engine::{drive_instance, drive_pool, PoolBufs, RunOptions};
use csaw::core::method::{MethodPolicy, REJECTION_MAX_TRIALS};
use csaw::core::residency::{DiskAccess, DiskRunConfig};
use csaw::core::select::SelectConfig;
use csaw::core::step::{
    CsrAccess, FrontierSink, LayeredAccess, NeighborAccess, StepEntry, StepKernel, StepScratch,
    TrialCounter,
};
use csaw::gpu::alloc_count::CountingAllocator;
use csaw::gpu::stats::{Ledger, ServeLedger, SimStats};
use csaw::graph::generators::{rmat, RmatParams};
use csaw::graph::store::write_store;
use csaw::graph::{Csr, DiskStore, EdgeEdit, MutableGraph, VertexId};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Reusable driver state, cleared (never dropped) between repetitions so
/// steady-state repetitions run entirely in warmed capacity.
#[derive(Default)]
struct DriverBufs<L> {
    pool: PoolBufs,
    out: Vec<(VertexId, VertexId)>,
    stats: L,
    scratch: StepScratch,
}

/// One full repetition: every instance of the algorithm over its seed
/// chunks, each through the engine's own per-instance depth loop.
/// Deterministic (draws keyed by task), so every repetition performs
/// identical work. Returns kernel step invocations.
fn run_rep<L: Ledger>(
    kernel: &StepKernel<'_>,
    access: &mut impl NeighborAccess,
    chunks: &[Vec<VertexId>],
    b: &mut DriverBufs<L>,
) -> u64 {
    let mut steps = 0u64;
    for (inst, seeds) in chunks.iter().enumerate() {
        b.out.clear();
        steps += drive_pool(
            kernel,
            access,
            inst as u32,
            seeds,
            &mut b.pool,
            &mut b.out,
            &mut b.scratch,
            &mut b.stats,
        );
    }
    steps
}

/// Every Table-I algorithm through `access`: two warm-up repetitions,
/// then one measured repetition that must allocate no more than
/// `entitled` grew by — a running count of the allocations the access
/// tier may make for that algorithm (none for a resident CSR or a warm
/// full-budget disk pool). The step kernel itself is entitled to
/// nothing. `cached` rides a CTPS cache along.
///
/// Two warm-ups, not one: the pool/frontier double buffer swaps roles
/// when a repetition performs an odd number of depth steps, so the
/// second pass warms the other parity's capacities.
fn gate_all<A: NeighborAccess, L: Ledger>(
    g: &Csr,
    access: &mut A,
    tag: &str,
    cached: bool,
    entitled: impl Fn(AlgorithmId, &A) -> u64,
) {
    let n = g.num_vertices() as VertexId;

    for id in AlgorithmId::ALL {
        let spec = if id.uses_walk_length() {
            AlgoSpec::new(id).with_depth(12)
        } else {
            AlgoSpec::new(id)
        };
        let algo = spec.build().expect("registry specs are valid");
        let cfg = algo.config();
        let seeds_per = match cfg.frontier {
            FrontierMode::IndependentPerVertex => 1,
            _ => 3,
        };
        let chunks: Vec<Vec<VertexId>> = (0..16)
            .map(|i| (0..seeds_per).map(|j| ((i * seeds_per + j) as VertexId * 131) % n).collect())
            .collect();

        // A generous-budget CTPS cache rides along: the warm-up
        // repetitions populate it, so the measured repetition runs its
        // static-bias lookups as cache hits — which must be just as
        // allocation-free as the rebuild path they replace.
        let cache = CtpsCache::new(64 << 20);
        let kernel = StepKernel::new(&*algo, 0x5eed)
            .with_select(SelectConfig::paper_best())
            .with_ctps_cache(cached.then_some(&cache));
        let mut bufs = DriverBufs::<L>::default();

        let warm1 = run_rep(&kernel, access, &chunks, &mut bufs);
        let warm2 = run_rep(&kernel, access, &chunks, &mut bufs);
        assert_eq!(warm1, warm2, "{}/{tag}: repetitions must perform identical work", id.name());

        let (before, entitled_before) = (ALLOC.snapshot(), entitled(id, access));
        let steps = run_rep(&kernel, access, &chunks, &mut bufs);
        let delta = ALLOC.snapshot().since(&before);
        let allowed = entitled(id, access) - entitled_before;

        assert_eq!(steps, warm1, "{}/{tag}: repetitions must perform identical work", id.name());
        assert!(steps > 0, "{}/{tag}: workload must actually step", id.name());
        assert!(
            delta.allocations <= allowed,
            "{}/{tag}: steady-state repetition allocated {} times ({} bytes) over {} steps, \
             {allowed} allowed — the zero-allocation hot path has regressed",
            id.name(),
            delta.allocations,
            delta.bytes,
            steps
        );
    }
}

/// The depth-synchronous driver under the same gate: every per-vertex-
/// frontier algorithm through [`run_chunk`] with a warm [`BatchArena`].
/// Grouped expansion, batched Philox, the record/replay lanes, and the
/// prefetch bookkeeping must all run in warmed capacity — a steady-state
/// batched depth allocates exactly as much as an instance-major one:
/// nothing. No CTPS cache here so static-bias algorithms take the
/// group-shared source (`prepare_group`).
fn gate_batched<L: Ledger>(g: &Csr, access: &mut impl NeighborAccess) {
    let n = g.num_vertices() as VertexId;

    for id in AlgorithmId::ALL {
        let spec = if id.uses_walk_length() {
            AlgoSpec::new(id).with_depth(12)
        } else {
            AlgoSpec::new(id)
        };
        let algo = spec.build().expect("registry specs are valid");
        if algo.config().frontier != FrontierMode::IndependentPerVertex {
            continue;
        }
        let seeds: Vec<Vec<VertexId>> = (0..16).map(|i| vec![(i as VertexId * 131) % n]).collect();
        let chunk: Vec<ChunkInstance<'_>> = seeds
            .iter()
            .enumerate()
            .map(|(i, s)| ChunkInstance { global_id: i as u32, seeds: s })
            .collect();
        let kernel = StepKernel::new(&*algo, 0x5eed).with_select(SelectConfig::paper_best());
        let mut arena = BatchArena::new();
        let mut scratch = StepScratch::new();
        let mut outs = vec![Vec::new(); chunk.len()];
        let mut per_inst = vec![L::default(); chunk.len()];
        fn rep<N: NeighborAccess, L: Ledger>(
            kernel: &StepKernel<'_>,
            chunk: &[ChunkInstance<'_>],
            access: &mut N,
            outs: &mut [Vec<(VertexId, VertexId)>],
            per_inst: &mut [L],
            arena: &mut BatchArena,
            scratch: &mut StepScratch,
        ) -> usize {
            for o in outs.iter_mut() {
                o.clear();
            }
            per_inst.fill(L::default());
            run_chunk(kernel, access, chunk, 8, outs, per_inst, arena, scratch);
            outs.iter().map(Vec::len).sum::<usize>()
        }

        // Two warm-ups for the cur/next double buffer's parity, as above.
        let warm1 =
            rep(&kernel, &chunk, access, &mut outs, &mut per_inst, &mut arena, &mut scratch);
        let warm2 =
            rep(&kernel, &chunk, access, &mut outs, &mut per_inst, &mut arena, &mut scratch);
        assert_eq!(warm1, warm2, "{}/batched: repetitions must be identical", id.name());

        let before = ALLOC.snapshot();
        let edges =
            rep(&kernel, &chunk, access, &mut outs, &mut per_inst, &mut arena, &mut scratch);
        let delta = ALLOC.snapshot().since(&before);

        assert_eq!(edges, warm1, "{}/batched: repetitions must be identical", id.name());
        assert!(edges > 0, "{}/batched: workload must actually sample", id.name());
        let groups: u64 = per_inst.iter().map(|l| l.counters().batch_groups).sum();
        assert!(groups > 0, "{}/batched: must form groups", id.name());
        assert_eq!(
            delta.allocations,
            0,
            "{}/batched: steady-state batched depth allocated {} times ({} bytes) — \
             the zero-allocation gate has regressed in depth-sync mode",
            id.name(),
            delta.allocations,
            delta.bytes,
        );
    }
}

/// The shared grouped expander fed the way the out-of-memory scheduler's
/// depth-synchronous drain feeds it: one drained batch of 512 queue
/// entries — many instances, mixed depths, trial 0, one ledger — on a
/// warm arena. The drain used to build its task keys, Philox blocks,
/// sort order, group starts, emits, offers and spans in fresh vectors
/// per batch; through [`expand_frontier`] it allocates nothing.
fn gate_drained_batch<L: Ledger>(g: &Csr, access: &mut impl NeighborAccess) {
    let n = g.num_vertices() as VertexId;
    for id in AlgorithmId::ALL {
        let spec = if id.uses_walk_length() {
            AlgoSpec::new(id).with_depth(12)
        } else {
            AlgoSpec::new(id)
        };
        let algo = spec.build().expect("registry specs are valid");
        if algo.config().frontier != FrontierMode::IndependentPerVertex {
            continue;
        }
        let kernel = StepKernel::new(&*algo, 0x5eed).with_select(SelectConfig::paper_best());
        // 97 distinct vertices over 512 entries: every group is shared.
        let batch: Vec<FrontierItem> = (0..512u32)
            .map(|i| {
                let vertex = (i % 97 * 131) % n;
                let entry = StepEntry { instance: i, depth: i % 2, vertex, prev: None, trial: 0 };
                FrontierItem { entry, home: vertex, slot: 0 }
            })
            .collect();
        let mut arena = BatchArena::new();
        let mut scratch = StepScratch::new();
        let mut ledger = [L::default()];
        let mut edges = [0usize; 3];
        let mut allocations = 0;
        for (rep, edges) in edges.iter_mut().enumerate() {
            let before = ALLOC.snapshot();
            arena.set_frontier(batch.iter().copied());
            expand_frontier(&kernel, access, 8, &mut ledger, &mut arena, &mut scratch);
            *edges = (0..batch.len()).map(|i| arena.recorded(i).emits.len()).sum();
            if rep == 2 {
                allocations = ALLOC.snapshot().since(&before).allocations;
            }
        }
        assert_eq!(edges[2], edges[0], "{}/drained: repetitions must be identical", id.name());
        assert!(edges[2] > 0, "{}/drained: workload must actually sample", id.name());
        let groups = ledger[0].counters().batch_groups;
        assert!(groups > 0, "{}/drained: must form groups", id.name());
        assert_eq!(
            allocations,
            0,
            "{}/drained: a drained batch on a warm arena allocated — the out-of-memory \
             depth-synchronous drain is back to per-batch vectors",
            id.name(),
        );
    }
}

/// A frontier of one never reaches the trial counter's map. The counter
/// is cold, and a `HashMap` allocates on its first insert, so zero
/// allocations over many singleton frontiers pins "never touched" without
/// a clock; a second distinct key in one frontier does reach the map.
fn gate_singleton_trials() {
    let mut trials = TrialCounter::new();
    let before = ALLOC.snapshot();
    let mut ordinals = 0u32;
    for step in 0..10_000u32 {
        trials.reset();
        ordinals += trials.next(step % 7, step.wrapping_mul(2_654_435_761));
    }
    assert_eq!(ALLOC.snapshot().since(&before).allocations, 0, "a singleton frontier hashed");
    assert_eq!(ordinals, 0);
    trials.reset();
    assert_eq!((trials.next(0, 1), trials.next(0, 2), trials.next(0, 2)), (0, 0, 1));
    assert!(ALLOC.snapshot().since(&before).allocations > 0, "the spill map never allocated");
}

/// A whole simple-walk instance through the engine's own driver, on a
/// warm thread arena: three allocations — the output vector, reserved
/// once at its full length, and the two buffers of the pool. Nothing per
/// step, and no trial map.
fn gate_whole_walk<L: Ledger>(g: &Csr) {
    const DEPTH: usize = 80;
    let algo = AlgoSpec::new(AlgorithmId::SimpleRandomWalk)
        .with_depth(DEPTH)
        .build()
        .expect("registry specs are valid");
    let opts = RunOptions::default();
    let hub = (0..g.num_vertices() as VertexId).max_by_key(|&v| g.degree(v)).expect("vertices");
    let mut access = CsrAccess { graph: g };
    let warm = drive_instance::<_, L>(&mut access, &*algo, &opts, 0, &[hub]);
    let before = ALLOC.snapshot();
    let (out, _stats) = drive_instance::<_, L>(&mut access, &*algo, &opts, 0, &[hub]);
    let delta = ALLOC.snapshot().since(&before);
    assert_eq!(out, warm.0, "same instance, same walk");
    assert!(out.len() > 1, "the walk must actually step");
    assert_eq!(out.capacity(), DEPTH, "output reserved once at depth x seeds");
    assert_eq!(
        delta.allocations, 3,
        "a simple-walk instance allocates its output vector and its two pool buffers \
         ({} bytes allocated)",
        delta.bytes
    );
}

/// Counts what an expansion emits and offers, and keeps nothing.
#[derive(Default)]
struct Tally {
    emits: u64,
    offers: u64,
}

impl FrontierSink for Tally {
    fn emit(&mut self, _entry: &StepEntry, _edge: (VertexId, VertexId)) {
        self.emits += 1;
    }

    fn push<L: Ledger>(&mut self, _e: &StepEntry, _v: VertexId, _p: Option<VertexId>, _s: &mut L) {
        self.offers += 1;
    }
}

/// The rejection path under the same gate, on warm arenas: node2vec
/// under `Adaptive`. First whole walks, whose throws accept at once
/// (p = q = 1 makes every bias equal to its bound). Then expansions of
/// the hub with a predecessor outside its adjacency and a tiny `p`: the
/// bound is 1/p, no candidate's bias comes near it, so every throw
/// misses, the cap runs out, and each pick falls back to the ITS lane.
/// Neither may allocate.
fn gate_rejection<L: Ledger>(g: &Csr) {
    let n = g.num_vertices() as VertexId;
    let mut access = CsrAccess { graph: g };

    let walk = AlgoSpec::new(AlgorithmId::Node2Vec)
        .with_depth(12)
        .build()
        .expect("registry specs are valid");
    let kernel = StepKernel::new(&*walk, 0x5eed).with_method_policy(MethodPolicy::Adaptive);
    let chunks: Vec<Vec<VertexId>> = (0..16).map(|i| vec![(i * 131) % n]).collect();
    let mut bufs = DriverBufs::<L>::default();
    let warm1 = run_rep(&kernel, &mut access, &chunks, &mut bufs);
    let warm2 = run_rep(&kernel, &mut access, &chunks, &mut bufs);
    assert_eq!(warm1, warm2, "node2vec/adaptive: repetitions must perform identical work");
    let (before, rejected) = (ALLOC.snapshot(), bufs.stats.counters().method_rejection);
    let steps = run_rep(&kernel, &mut access, &chunks, &mut bufs);
    let delta = ALLOC.snapshot().since(&before);
    assert_eq!(steps, warm1, "node2vec/adaptive: repetitions must perform identical work");
    let rejections = bufs.stats.counters().method_rejection;
    assert!(rejections > rejected, "node2vec/adaptive: rejection never ran");
    assert_eq!(
        delta.allocations, 0,
        "node2vec/adaptive: a steady-state walk repetition allocated ({} bytes)",
        delta.bytes
    );

    let hub = (0..n).max_by_key(|&v| g.degree(v)).expect("vertices");
    let prev = (0..n).find(|&u| u != hub && !g.has_edge(hub, u)).expect("a non-neighbor");
    let tight = Node2Vec { length: 12, p: 1e-9, q: 1.0 };
    let kernel = StepKernel::new(&tight, 0x5eed).with_method_policy(MethodPolicy::Adaptive);
    let (mut scratch, mut stats, mut sink) = (StepScratch::new(), L::default(), Tally::default());
    // Four expansions a repetition, twelve in all: 384 throws, short of
    // the feedback window, so rejection stays chosen throughout.
    let mut rep = |stats: &mut L, sink: &mut Tally| {
        for instance in 0..4 {
            let entry = StepEntry { instance, depth: 1, vertex: hub, prev: Some(prev), trial: 0 };
            kernel.expand(&mut access, &entry, hub, sink, &mut scratch, stats);
        }
    };
    rep(&mut stats, &mut sink);
    rep(&mut stats, &mut sink);
    let (before, mut stats, mut sink) = (ALLOC.snapshot(), L::default(), Tally::default());
    rep(&mut stats, &mut sink);
    let delta = ALLOC.snapshot().since(&before);
    let stats = stats.into_stats();
    assert_eq!(stats.method_rejection, 4, "every hub expansion must choose rejection");
    assert_eq!(stats.rejection_trials, 4 * REJECTION_MAX_TRIALS, "every throw must miss");
    assert_eq!(sink.emits, 4, "the ITS fallback must serve every pick");
    assert_eq!(sink.offers, 4);
    assert_eq!(
        delta.allocations, 0,
        "node2vec/adaptive: rejection plus the ITS fallback allocated ({} bytes)",
        delta.bytes
    );
}

/// A warm cached biased walk through [`LayeredAccess`] over a mutated
/// snapshot, where every cache tag is `GraphSnapshot::entry_version`. A
/// first batch edits the hub, so walks gather its delta and its
/// neighbors' tables carry its epoch. A second batch, applied after the
/// warm-up, edits a vertex no walk comes within one hop of: every tag
/// stays put, but every first lookup at the new epoch reads the log to
/// move the tag memo forward. Those steps allocate nothing.
fn gate_snapshot<L: Ledger>(g: &Csr) {
    let n = g.num_vertices() as VertexId;
    let hub = (0..n).max_by_key(|&v| g.degree(v)).expect("vertices");
    let far = (0..n).find(|&u| u != hub && !g.has_edge(hub, u)).expect("a non-neighbor");
    let mut mg = MutableGraph::new(g.clone());
    mg.apply_batch(&[EdgeEdit::Insert { src: hub, dst: far, weight: 1.0 }]).expect("edit");

    let algo = AlgoSpec::new(AlgorithmId::BiasedRandomWalk)
        .with_depth(12)
        .build()
        .expect("registry specs are valid");
    let cache = CtpsCache::new(64 << 20);
    let kernel = StepKernel::new(&*algo, 0x5eed)
        .with_select(SelectConfig::paper_best())
        .with_ctps_cache(Some(&cache));
    let chunks: Vec<Vec<VertexId>> = (0..16).map(|i| vec![(i * 131) % n]).collect();
    let mut bufs = DriverBufs::<L>::default();
    let snap = mg.snapshot();
    let mut csr = CsrAccess { graph: snap.base() };
    let mut access = LayeredAccess::new(&mut csr, Some(&snap), ());
    let warm1 = run_rep(&kernel, &mut access, &chunks, &mut bufs);
    let warm2 = run_rep(&kernel, &mut access, &chunks, &mut bufs);
    assert_eq!(warm1, warm2, "snapshot: repetitions must perform identical work");

    // An isolated vertex is in no walk's 1-hop neighborhood.
    let cold = (0..n).find(|&u| g.degree(u) == 0 && chunks.iter().all(|c| c[0] != u));
    let cold = cold.expect("an isolated vertex that seeds no walk");
    mg.apply_batch(&[EdgeEdit::Insert { src: cold, dst: far, weight: 1.0 }]).expect("edit");
    let snap = mg.snapshot();
    assert_eq!(snap.epoch(), 2);
    let mut csr = CsrAccess { graph: snap.base() };
    let mut access = LayeredAccess::new(&mut csr, Some(&snap), ());
    let (warm, before) = (cache.snapshot(), ALLOC.snapshot());
    let steps = run_rep(&kernel, &mut access, &chunks, &mut bufs);
    let delta = ALLOC.snapshot().since(&before);
    let after = cache.snapshot();

    assert_eq!(steps, warm1, "snapshot: repetitions must perform identical work");
    assert!(after.hits > warm.hits, "snapshot: the measured walks must hit the cache");
    assert_eq!(after.misses, warm.misses, "snapshot: no tag may move for a cold edit");
    assert_eq!(
        delta.allocations, 0,
        "biased-walk/snapshot: a warm cached walk over a mutated snapshot allocated ({} bytes)",
        delta.bytes
    );
}

/// Every in-memory gate under the ledger `L`.
fn gate_in_memory<L: Ledger>(g: &Csr) {
    gate_all::<_, L>(g, &mut CsrAccess { graph: g }, "csr", true, |_, _| 0);
    gate_batched::<L>(g, &mut CsrAccess { graph: g });
    gate_drained_batch::<L>(g, &mut CsrAccess { graph: g });
    gate_whole_walk::<L>(g);
    gate_rejection::<L>(g);
    gate_snapshot::<L>(g);
}

#[test]
fn steady_state_step_allocates_nothing() {
    gate_singleton_trials();

    // Power-law graph large enough to exercise long adjacency gathers
    // and without-replacement retries, small enough for a test.
    let g = rmat(9, 8, RmatParams::MILD, 42);
    gate_in_memory::<SimStats>(&g);
    gate_in_memory::<ServeLedger>(&g);

    // The same gate through the disk tier: with every run admitted to a
    // warm full-budget pool, stepping through [`DiskAccess`] — slot
    // lookups, counter upkeep, the reclaim prologue — must be exactly as
    // allocation-free as the in-memory CSR path.
    let base = std::env::var_os("CSAW_DISK_TMPDIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("csaw-step-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_store(&dir, &g, 8, 0).expect("write store");
    let store = Arc::new(DiskStore::open(&dir).expect("open store"));
    let pool = |pool_budget: usize| {
        DiskAccess::new(&DiskRunConfig { store: Arc::clone(&store), pool_budget, shared: None })
    };
    let mut access = pool(store.total_decoded_bytes());
    let mut warm_stats = SimStats::new();
    for v in 0..g.num_vertices() as VertexId {
        let _ = access.gather(v, &mut warm_stats);
    }
    gate_all::<_, SimStats>(&g, &mut access, "disk", true, |_, _| 0);
    gate_all::<_, ServeLedger>(&g, &mut access, "disk", true, |_, _| 0);
    let snap = access.snapshot();
    assert!(snap.is_conserved(), "{snap:?}");
    assert_eq!(snap.evictions, 0, "full budget must never evict");

    // A starved pool (10% of the graph) pays for residency and nothing
    // else: a hit and a miss the frequency gate rejects (decoded into
    // the recycled spare buffer) allocate nothing, an admitted run
    // allocates its exact-size buffer. The uniform per-vertex steps read
    // their picked neighbors in place and admit nothing, so they are
    // held to zero. node2vec is the exception: its hook probes deg(v)
    // other runs within one step, and the rejected ones past the first
    // are allocated and freed with the step, so it is held to one
    // allocation a decode. No CTPS cache: evictions retire its entries,
    // and re-admitting those is the cache's allocation, not the pool's.
    let point_reads: Vec<AlgorithmId> = AlgorithmId::ALL
        .into_iter()
        .filter(|&id| {
            let algo = AlgoSpec::new(id).build().expect("registry specs are valid");
            algo.edge_bias_is_uniform()
                && algo.config().frontier == FrontierMode::IndependentPerVertex
        })
        .collect();
    let mut starved = pool(store.total_decoded_bytes() / 10);
    for v in 0..g.num_vertices() as VertexId {
        let _ = starved.gather(v, &mut warm_stats);
    }
    let warmed = starved.snapshot();
    let entitled = |id, a: &DiskAccess| match id {
        _ if point_reads.contains(&id) => 0,
        AlgorithmId::Node2Vec => a.snapshot().misses,
        _ => a.snapshot().admissions,
    };
    gate_all::<_, SimStats>(&g, &mut starved, "disk-starved", false, entitled);
    gate_all::<_, ServeLedger>(&g, &mut starved, "disk-starved", false, entitled);
    let snap = starved.snapshot();
    assert!(snap.is_conserved(), "{snap:?}");
    assert!(snap.evictions > warmed.evictions, "a starved pool must evict: {snap:?}");
    assert!(snap.misses - warmed.misses > snap.admissions - warmed.admissions, "{snap:?}");

    // The store's side of that: decoding a run into buffers that already
    // have room allocates nothing (no name string built for an error
    // that did not happen, no growth).
    let hub = (0..g.num_vertices() as VertexId).max_by_key(|&v| g.degree(v)).expect("vertices");
    let mut col = Vec::with_capacity(g.degree(hub));
    let before = ALLOC.snapshot();
    let pages = store.decode_vertex(hub, &mut col, None).expect("decode");
    assert_eq!(ALLOC.snapshot().since(&before).allocations, 0, "decode_vertex allocated");
    assert!(pages >= 1 && col == g.neighbors(hub));
    let _ = std::fs::remove_dir_all(&dir);
}
