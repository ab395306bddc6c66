//! Integration tests for the hot-vertex CTPS cache: across every
//! runtime, a cached run must sample **bit-identical** edges to an
//! uncached run at every byte budget — the cache is a cost-model
//! optimization, never a semantics change — and its counters must obey
//! the conservation identities (`lookups == hits + misses`,
//! `bytes <= budget`).

use csaw::core::algorithms::registry::{AlgoSpec, AlgorithmId};
use csaw::core::algorithms::{BiasedNeighborSampling, BiasedRandomWalk, MultiDimRandomWalk};
use csaw::core::ctps_cache::{entry_bytes, CtpsCache};
use csaw::core::engine::{RunOptions, Sampler};
use csaw::gpu::config::DeviceConfig;
use csaw::graph::generators::{ring_lattice, rmat, RmatParams};
use csaw::graph::{Csr, CsrBuilder, VertexId};
use csaw::oom::{MultiGpu, OomConfig, OomRunner, UnifiedRunner};
use proptest::prelude::*;
use std::sync::Arc;

/// Budgets spanning "evict constantly" to "everything fits": a few
/// entries, a fraction of the graph's CTPS bytes, and effectively
/// unlimited.
fn budget_sweep(g: &Csr) -> Vec<usize> {
    let full = g.num_edges() * 8;
    vec![256, full / 20 + 64, full / 4 + 64, 4 * full + 4096]
}

/// Engine: every registry algorithm, cached at every budget, samples
/// exactly what the uncached engine samples — instance order, edge
/// order, everything — on a power-law graph, and on a ring lattice with
/// no hubs, the cache's worst case (every table equally cold).
#[test]
fn engine_cached_output_is_bit_identical_at_every_budget() {
    for (graph, g) in [("rmat", rmat(9, 8, RmatParams::MILD, 11)), ("ring", ring_lattice(512, 8))] {
        let n = g.num_vertices() as VertexId;
        let seeds: Vec<VertexId> = (0..48).map(|i| (i * 131) % n).collect();

        for id in AlgorithmId::ALL {
            let spec = if id.uses_walk_length() {
                AlgoSpec::new(id).with_depth(10)
            } else {
                AlgoSpec::new(id)
            };
            let algo = spec.build().expect("registry specs are valid");
            let baseline = Sampler::new(&g, &algo).run_single_seeds(&seeds);
            for budget in budget_sweep(&g) {
                let cache = Arc::new(CtpsCache::new(budget));
                let opts =
                    RunOptions { ctps_cache: Some(Arc::clone(&cache)), ..RunOptions::default() };
                let cached = Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&seeds);
                assert_eq!(
                    cached.instances,
                    baseline.instances,
                    "{} on {graph} at budget {budget}: cached run changed the sample",
                    id.name()
                );
                let snap = cache.snapshot();
                assert!(
                    snap.is_conserved(),
                    "{} on {graph} at budget {budget}: {snap:?}",
                    id.name()
                );
            }
        }
    }
}

/// The cache's counters and the kernel's `SimStats` agree: every
/// static-bias selection is exactly one lookup, and every lookup is a
/// hit or a miss.
#[test]
fn cache_stats_are_conserved_and_match_sim_stats() {
    let g = rmat(9, 8, RmatParams::MILD, 13);
    let algo = BiasedRandomWalk { length: 16 };
    let seeds: Vec<VertexId> = (0..64).collect();

    let cache = Arc::new(CtpsCache::new(1 << 20));
    let opts = RunOptions { ctps_cache: Some(Arc::clone(&cache)), ..RunOptions::default() };
    let out = Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&seeds);

    let snap = cache.snapshot();
    assert!(snap.is_conserved(), "{snap:?}");
    assert_eq!(
        out.stats.ctps_cache_hits + out.stats.ctps_cache_misses,
        snap.lookups,
        "kernel-side hit/miss accounting diverged from the cache's own: {snap:?}"
    );
    assert!(snap.hits > 0, "a 16-step walk over 64 instances must re-visit hot vertices");
    assert!(snap.bytes <= snap.budget);
    assert!(snap.entries > 0);
}

/// Under heavy eviction pressure (a budget of a few entries) the output
/// is still identical and the clock hand actually evicts.
#[test]
fn eviction_pressure_never_changes_the_sample() {
    let g = rmat(10, 8, RmatParams::GRAPH500, 17);
    let n = g.num_vertices() as VertexId;
    let algo = BiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<VertexId> = (0..64).map(|i| (i * 197) % n).collect();

    let baseline = Sampler::new(&g, &algo).run_single_seeds(&seeds);
    // ~6 average-degree entries in one cache-wide budget: constant
    // displacement.
    let cache = Arc::new(CtpsCache::new(1024));
    let opts = RunOptions { ctps_cache: Some(Arc::clone(&cache)), ..RunOptions::default() };
    let cached = Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&seeds);

    assert_eq!(cached.instances, baseline.instances);
    let snap = cache.snapshot();
    assert!(snap.is_conserved(), "{snap:?}");
    assert!(
        snap.evictions > 0 || snap.admission_rejects > 0,
        "a 1 KiB budget on a power-law graph must displace entries: {snap:?}"
    );
}

/// The budget is cache-wide: a budget that holds every table admits
/// every table, however unevenly R-MAT's hubs (low-order zero bits) load
/// the 16 lock stripes — no admission is refused and nothing is evicted.
#[test]
fn a_budget_that_fits_every_table_never_evicts() {
    let g = rmat(10, 8, RmatParams::GRAPH500, 37);
    let n = g.num_vertices() as VertexId;
    let algo = BiasedRandomWalk { length: 12 };
    let seeds: Vec<VertexId> = (0..256).map(|i| (i * 61) % n).collect();
    let budget: usize = (0..n).map(|v| entry_bytes(g.degree(v))).sum();
    let stripe0: usize = (0..n).step_by(16).map(|v| entry_bytes(g.degree(v))).sum();
    assert!(stripe0 > budget / 16, "R-MAT hubs must overload stripe 0");

    let baseline = Sampler::new(&g, &algo).run_single_seeds(&seeds);
    let cache = Arc::new(CtpsCache::new(budget));
    let opts = RunOptions { ctps_cache: Some(Arc::clone(&cache)), ..RunOptions::default() };
    let cached = Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&seeds);
    assert_eq!(cached.instances, baseline.instances);
    let snap = cache.snapshot();
    assert!(snap.is_conserved(), "{snap:?}");
    assert_eq!((snap.admission_rejects, snap.evictions), (0, 0), "{snap:?}");
    assert_eq!(snap.promotions, snap.entries);
    assert!(snap.hits > 0, "{snap:?}");
}

/// Out-of-memory scheduler: per-stream cache shards (with epoch
/// invalidation across partition swaps) sample exactly what the
/// cache-less scheduler samples, on a device small enough to force
/// residency churn.
#[test]
fn oom_cached_output_is_bit_identical_across_partition_swaps() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 19);
    let algo = BiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<VertexId> = (0..48).map(|i| i * 13 % 512).collect();
    let device = DeviceConfig::tiny(1 << 20);

    let base = OomRunner::new(&g, &algo, OomConfig::full()).with_device(device).run(&seeds);
    assert!(base.transfers > 0, "the tiny device must actually swap partitions");
    for budget in budget_sweep(&g) {
        let cached = OomRunner::new(&g, &algo, OomConfig::full())
            .with_device(device)
            .with_ctps_cache_budget(budget)
            .run(&seeds);
        assert_eq!(cached.instances, base.instances, "budget {budget} changed the OOM sample");
        assert_eq!(cached.transfers, base.transfers, "budget {budget} changed scheduling");
    }
}

/// Unified-memory comparator: demand paging plus the cache still equals
/// demand paging alone.
#[test]
fn unified_cached_output_is_bit_identical() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 23);
    let algo = BiasedRandomWalk { length: 12 };
    let seeds: Vec<VertexId> = (0..32).collect();
    let device = DeviceConfig::tiny(1 << 20);

    let base = UnifiedRunner::new(&g, &algo, device).run(&seeds);
    for budget in budget_sweep(&g) {
        let cached =
            UnifiedRunner::new(&g, &algo, device).with_ctps_cache_budget(budget).run(&seeds);
        assert_eq!(cached.instances, base.instances, "budget {budget} changed the sample");
    }
}

/// Multi-GPU driver: one shared `Arc` cache across every device group
/// equals no cache at all.
#[test]
fn multi_gpu_shares_one_cache_without_changing_the_sample() {
    let g = rmat(9, 6, RmatParams::MILD, 29);
    let algo = BiasedRandomWalk { length: 10 };
    let seeds: Vec<VertexId> = (0..48).collect();

    let base = MultiGpu::new(3).run_single_seeds(&g, &algo, &seeds, RunOptions::default());
    for budget in budget_sweep(&g) {
        let cache = Arc::new(CtpsCache::new(budget));
        let opts = RunOptions { ctps_cache: Some(Arc::clone(&cache)), ..RunOptions::default() };
        let cached = MultiGpu::new(3).run_single_seeds(&g, &algo, &seeds, opts);
        assert_eq!(cached.instances, base.instances, "budget {budget} changed the sample");
        let snap = cache.snapshot();
        assert!(snap.is_conserved(), "{snap:?}");
        assert!(snap.lookups > 0, "three device groups must consult the shared cache");
    }
}

/// The pooled (MDRW) runtime's amortized pool-bias lane: engine and
/// out-of-memory pooled runs still agree edge-for-edge — the warm lane
/// is a cost-model change only.
#[test]
fn mdrw_amortized_pool_scan_keeps_engine_oom_parity() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 31);
    let algo = MultiDimRandomWalk { budget: 24 };
    let seed_sets: Vec<Vec<VertexId>> =
        (0..6u32).map(|i| vec![i * 3, i * 3 + 1, 100 + i]).collect();

    let engine = Sampler::new(&g, &algo).run(&seed_sets);
    let oom = OomRunner::new(&g, &algo, OomConfig::full())
        .with_device(DeviceConfig::tiny(1 << 20))
        .run_pools(&seed_sets);
    assert_eq!(engine.instances, oom.instances);
}

fn arb_graph() -> impl Strategy<Value = Csr> {
    prop::collection::vec((0u32..64, 0u32..64), 1..260).prop_map(|edges| {
        CsrBuilder::new().with_num_vertices(64).symmetrize(true).extend_edges(edges).build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine, arbitrary graph/seeds/budget: cached == uncached,
    /// bit-for-bit, with conserved counters.
    #[test]
    fn prop_engine_cached_equals_uncached(
        g in arb_graph(),
        seeds in prop::collection::vec(0u32..64, 1..16),
        budget in 0usize..(1 << 22),
        depth in 2usize..8,
    ) {
        let algo = BiasedRandomWalk { length: depth };
        let base = Sampler::new(&g, &algo).run_single_seeds(&seeds);
        let cache = Arc::new(CtpsCache::new(budget));
        let opts = RunOptions { ctps_cache: Some(Arc::clone(&cache)), ..RunOptions::default() };
        let cached = Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&seeds);
        prop_assert_eq!(cached.instances, base.instances);
        let snap = cache.snapshot();
        prop_assert!(snap.is_conserved(), "{:?}", snap);
    }

    /// OOM scheduler, arbitrary inputs: per-stream shards plus epoch
    /// invalidation never leak into the sample.
    #[test]
    fn prop_oom_cached_equals_uncached(
        g in arb_graph(),
        seeds in prop::collection::vec(0u32..64, 1..12),
        budget in 128usize..(1 << 20),
    ) {
        let algo = BiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let device = DeviceConfig::tiny(1 << 16);
        let base = OomRunner::new(&g, &algo, OomConfig::full())
            .with_device(device)
            .run(&seeds);
        let cached = OomRunner::new(&g, &algo, OomConfig::full())
            .with_device(device)
            .with_ctps_cache_budget(budget)
            .run(&seeds);
        prop_assert_eq!(cached.instances, base.instances);
    }
}
