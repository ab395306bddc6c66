//! Disk-tier equivalence: sampling through the mmap-backed partitioned
//! store must be **bit-identical** to the in-memory CSR at every pool
//! budget, on every runtime — the engine, both out-of-memory paths, and
//! the batching service. This is the acceptance contract of the
//! residency hierarchy: eviction pressure changes counters, never
//! samples (every RNG draw is keyed by `(instance, depth, vertex,
//! trial)`, and the disk tier serves the exact same neighbor slices).

use csaw::core::algorithms::{
    BiasedRandomWalk, MultiDimRandomWalk, SimpleRandomWalk, UnbiasedNeighborSampling,
};
use csaw::core::ctps_cache::CtpsCache;
use csaw::core::engine::{
    drive_instance, drive_pool, kernel_for, ExecMode, PoolBufs, RunOptions, Sampler,
};
use csaw::core::residency::{
    with_thread_disk_access, DiskAccess, DiskPoolSnapshot, DiskRunConfig, DiskTierStats,
};
use csaw::core::step::StepScratch;
use csaw::core::{AlgoSpec, Algorithm, SampleOutput};
use csaw::gpu::stats::{ServeLedger, SimStats};
use csaw::graph::generators::{rmat, RmatParams};
use csaw::graph::reorder::{degree_order, relabel};
use csaw::graph::store::write_store;
use csaw::graph::{Csr, CsrBuilder, DiskStore, EdgeEdit, MutableGraph};
use csaw::oom::{OomConfig, OomRunner};
use csaw::service::{MutationRequest, SamplingRequest, SamplingService, ServiceConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Per-instance `(u, v)` edge lists for each request of a batch.
type BatchEdges = Vec<Vec<Vec<(u32, u32)>>>;

/// Budgets from "one partition barely fits" to "everything resident".
const POOL_BUDGETS: [usize; 3] = [1 << 12, 1 << 16, 1 << 24];

fn tmp_dir(name: &str) -> PathBuf {
    let base =
        std::env::var_os("CSAW_DISK_TMPDIR").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("csaw-disk-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `g` as a store and returns a disk config with a stats sink.
fn disk_cfg(g: &Csr, dir: &Path, parts: usize, pool: usize) -> DiskRunConfig {
    if !dir.join("store.meta").exists() {
        write_store(dir, g, parts, 0).expect("write store");
    }
    DiskRunConfig {
        store: Arc::new(DiskStore::open(dir).expect("open store")),
        pool_budget: pool,
        shared: Some(Arc::new(DiskTierStats::default())),
    }
}

#[test]
fn engine_is_bit_identical_at_every_pool_budget() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 31);
    let seeds: Vec<u32> = (0..48).map(|i| i * 13 % 512).collect();
    let dir = tmp_dir("engine");
    for algo_case in 0..2 {
        let run = |disk: Option<DiskRunConfig>| {
            let opts = RunOptions { seed: 7, disk, ..Default::default() };
            match algo_case {
                0 => {
                    let algo = BiasedRandomWalk { length: 12 };
                    Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&seeds)
                }
                _ => {
                    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
                    Sampler::new(&g, &algo).with_options(opts).run_single_seeds(&seeds)
                }
            }
        };
        let mem = run(None);
        for pool in POOL_BUDGETS {
            let cfg = disk_cfg(&g, &dir, 8, pool);
            let tier = cfg.shared.clone().unwrap();
            let disk = run(Some(cfg));
            assert_eq!(
                disk.instances, mem.instances,
                "algo {algo_case}: pool {pool} changed the sample"
            );
            let (lookups, hits, misses) = (
                tier.lookups.load(std::sync::atomic::Ordering::Relaxed),
                tier.hits.load(std::sync::atomic::Ordering::Relaxed),
                tier.misses.load(std::sync::atomic::Ordering::Relaxed),
            );
            assert!(lookups > 0, "disk tier never consulted");
            assert_eq!(lookups, hits + misses, "tier ledger must balance");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oom_queue_runtime_is_bit_identical_with_disk_behind_it() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 32);
    let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
    let seeds: Vec<u32> = (0..48).map(|i| i * 13 % 512).collect();
    let dir = tmp_dir("oom-queue");
    let cfg = OomConfig::full();
    let mem = OomRunner::new(&g, &algo, cfg).run(&seeds);
    for pool in POOL_BUDGETS {
        let opts = RunOptions { disk: Some(disk_cfg(&g, &dir, 8, pool)), ..Default::default() };
        let disk = OomRunner::new(&g, &algo, cfg).with_options(opts).run(&seeds);
        assert_eq!(
            disk.sample.instances, mem.sample.instances,
            "pool {pool} changed the OOM sample"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oom_pooled_runtime_is_bit_identical_with_disk_behind_it() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 33);
    let algo = csaw::core::algorithms::MultiDimRandomWalk { budget: 60 };
    let pools = csaw::core::algorithms::MultiDimRandomWalk::seed_pools(g.num_vertices(), 6, 32, 7);
    let dir = tmp_dir("oom-pooled");
    let cfg = OomConfig::full();
    let mem = OomRunner::new(&g, &algo, cfg).run_pools(&pools);
    for pool in POOL_BUDGETS {
        let opts = RunOptions { disk: Some(disk_cfg(&g, &dir, 8, pool)), ..Default::default() };
        let disk = OomRunner::new(&g, &algo, cfg).with_options(opts).run_pools(&pools);
        assert_eq!(
            disk.sample.instances, mem.sample.instances,
            "pool {pool} changed the pooled sample"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The full-budget shape of the pool-budget sweep, by counts alone. One
/// pool per budget ({5, 10, 25, 50, 100}% of the decoded graph) serves
/// the same biased walks single-threaded over a degree-ordered R-MAT in
/// 256 partitions, so every count is deterministic. The pool with room
/// for the whole graph never evicts, and its hit share is at least every
/// smaller budget's: a full pool whose admission turned runs away would
/// re-decode what it had room to keep.
#[test]
fn a_full_budget_pool_never_evicts_and_out_hits_every_smaller_budget() {
    let raw = rmat(11, 8, RmatParams::GRAPH500, 42);
    let g = relabel(&raw, &degree_order(&raw));
    let n = g.num_vertices() as u64;
    let seeds: Vec<u32> = (0..128u64).map(|i| (i * 2_654_435_761 % n) as u32).collect();
    let dir = tmp_dir("budgets");
    let store = disk_cfg(&g, &dir, 256, 0).store;
    let algo = BiasedRandomWalk { length: 16 };
    let opts = RunOptions { seed: 7, ..Default::default() };
    let pools: Vec<(usize, DiskPoolSnapshot)> = [5, 10, 25, 50, 100]
        .into_iter()
        .map(|pct| {
            let pool_budget = store.total_decoded_bytes() * pct / 100;
            let cfg = DiskRunConfig { store: Arc::clone(&store), pool_budget, shared: None };
            let mut access = DiskAccess::new(&cfg);
            for (i, &s) in seeds.iter().enumerate() {
                drive_instance::<_, ServeLedger>(&mut access, &algo, &opts, i as u32, &[s]);
            }
            (pct, access.snapshot())
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    let hit_share = |p: &DiskPoolSnapshot| p.hits as f64 / p.lookups as f64;
    let (_, full) = pools.last().expect("five budgets");
    assert!(pools.iter().all(|(_, p)| p.is_conserved()), "{pools:?}");
    assert_eq!(full.evictions, 0, "a full budget must never evict: {full:?}");
    for (pct, p) in &pools[..pools.len() - 1] {
        assert!(
            hit_share(full) >= hit_share(p),
            "full-budget hit share {:.3} below the {pct}% budget's {:.3}: admission regressed",
            hit_share(full),
            hit_share(p)
        );
    }
}

/// The uniform walk step's point reads, pinned by count. Over a 10% pool
/// a `simple-walk` reads its one picked neighbor a step through the pool
/// and never gathers: one lookup per kernel step (the graph is symmetric
/// and every seed has an edge, so no step is a dead end), a balanced
/// ledger, nothing decoded and nothing admitted. A `biased-walk` on the
/// same pool still gathers each run, so it decodes and admits.
#[test]
fn a_uniform_walk_reads_neighbors_in_place_and_a_biased_walk_still_decodes() {
    let raw = rmat(11, 8, RmatParams::GRAPH500, 42);
    let n = raw.num_vertices();
    let edges = (0..n as u32).flat_map(|v| raw.neighbors(v).iter().map(move |&u| (v, u)));
    let g = CsrBuilder::new().with_num_vertices(n).symmetrize(true).extend_edges(edges).build();
    let seeds: Vec<u32> = (0..n as u32).filter(|&v| g.degree(v) > 0).step_by(7).take(96).collect();
    let dir = tmp_dir("points");
    let store = disk_cfg(&g, &dir, 64, 0).store;
    let cfg = DiskRunConfig {
        pool_budget: store.total_decoded_bytes() / 10,
        store,
        shared: Some(Arc::new(DiskTierStats::default())),
    };
    let mut access = DiskAccess::new(&cfg);
    let opts = RunOptions { seed: 7, ..Default::default() };
    let walk = |name: &str, access: &mut DiskAccess| {
        let algo = AlgoSpec::by_name(name).unwrap().with_depth(24).build().unwrap();
        let kernel = kernel_for(algo.as_ref(), &opts);
        let (mut bufs, mut out, mut scratch) =
            (PoolBufs::default(), Vec::new(), StepScratch::new());
        let mut stats = SimStats::new();
        let before = access.snapshot();
        let steps: u64 = (0..seeds.len())
            .map(|i| {
                let seed = &seeds[i..=i];
                drive_pool(
                    &kernel,
                    access,
                    i as u32,
                    seed,
                    &mut bufs,
                    &mut out,
                    &mut scratch,
                    &mut stats,
                )
            })
            .sum();
        access.flush_stats(&mut stats);
        let after = access.snapshot();
        assert!(after.is_conserved(), "{name}: {after:?}");
        (steps, stats, before, after)
    };

    let (steps, stats, before, after) = walk("simple-walk", &mut access);
    assert_eq!(before, DiskPoolSnapshot { budget: cfg.pool_budget as u64, ..Default::default() });
    assert!(steps > 0);
    assert_eq!(after.lookups, steps, "one point read a step");
    assert_eq!(after.lookups, after.hits + after.misses);
    assert_eq!((after.admissions, after.evictions, after.bytes), (0, 0, 0), "{after:?}");
    assert_eq!(stats.disk_decode_bytes, 0);
    assert_eq!(stats.disk_pool_lookups, steps);
    let tier = cfg.shared.as_ref().unwrap();
    assert_eq!(tier.decode_count.load(std::sync::atomic::Ordering::Relaxed), 0);

    let (_, stats, before, after) = walk("biased-walk", &mut access);
    assert!(after.admissions > before.admissions, "{after:?}");
    assert!(stats.disk_decode_bytes > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Pools publish to the shared sink when each task ends, not on every
/// lookup: after a multi-instance run over a 10% pool, each
/// `DiskTierStats` total equals the sum of the run's matching `disk_*`
/// counters, for a uniform walk (point reads) and a biased one (decodes,
/// admissions and evictions).
#[test]
fn shared_tier_totals_equal_the_run_ledger_at_task_boundaries() {
    use std::sync::atomic::Ordering::Relaxed;
    let g = rmat(10, 8, RmatParams::GRAPH500, 17);
    let n = g.num_vertices() as u32;
    let seeds: Vec<u32> = (0..n).filter(|&v| g.degree(v) > 0).step_by(5).take(128).collect();
    let dir = tmp_dir("published");
    let run = |algo: &dyn Fn(RunOptions) -> SampleOutput, name: &str| {
        let store = disk_cfg(&g, &dir, 16, 0).store;
        let cfg = DiskRunConfig {
            pool_budget: store.total_decoded_bytes() / 10,
            store,
            shared: Some(Arc::new(DiskTierStats::default())),
        };
        let tier = Arc::clone(cfg.shared.as_ref().unwrap());
        let s = algo(RunOptions { seed: 3, disk: Some(cfg), ..Default::default() }).stats;
        let published = [
            &tier.lookups,
            &tier.hits,
            &tier.misses,
            &tier.evictions,
            &tier.decode_bytes,
            &tier.mmap_faults,
        ]
        .map(|c| c.load(Relaxed));
        let ledger = [
            s.disk_pool_lookups,
            s.disk_pool_hits,
            s.disk_pool_misses,
            s.disk_pool_evictions,
            s.disk_decode_bytes,
            s.disk_mmap_faults,
        ];
        assert_eq!(published, ledger, "{name}: lookups, hits, misses, evictions, bytes, faults");
        assert!(s.disk_pool_lookups > 0, "{name}");
        assert_eq!(published[0], published[1] + published[2], "{name}");
        s
    };
    let uniform = SimpleRandomWalk { length: 16 };
    let s =
        run(&|o| Sampler::new(&g, &uniform).with_options(o).run_single_seeds(&seeds), "uniform");
    assert_eq!(s.disk_decode_bytes, 0, "a uniform walk reads in place");
    let biased = BiasedRandomWalk { length: 16 };
    let s = run(&|o| Sampler::new(&g, &biased).with_options(o).run_single_seeds(&seeds), "biased");
    assert!(s.disk_pool_evictions > 0 && s.disk_decode_bytes > 0, "{s:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the same request stream against a memory-backed and a
/// disk-backed service and returns both response edge lists.
fn serve_both(g: &Arc<Csr>, disk: DiskRunConfig) -> (BatchEdges, BatchEdges) {
    let run = |disk: Option<DiskRunConfig>| {
        let svc = SamplingService::with_engine(
            Arc::clone(g),
            ServiceConfig { disk, ..ServiceConfig::default() },
        );
        let spec = AlgoSpec::by_name("biased-walk").unwrap().with_depth(8);
        let mut all = Vec::new();
        for i in 0..4u32 {
            let n = g.num_vertices() as u32;
            let req = SamplingRequest::new(spec, vec![i % n, (i * 7 + 1) % n]);
            let resp = svc.submit(req).unwrap().wait().unwrap();
            all.push(resp.output.instances);
        }
        svc.shutdown();
        all
    };
    (run(None), run(Some(disk)))
}

#[test]
fn service_is_bit_identical_and_rejects_mutation_on_every_executor() {
    let g = Arc::new(rmat(9, 6, RmatParams::GRAPH500, 34));
    let dir = tmp_dir("service");
    for pool in POOL_BUDGETS {
        let (mem, disk) = serve_both(&g, disk_cfg(&g, &dir, 8, pool));
        assert_eq!(mem, disk, "service diverged at pool {pool}");
    }

    // A disk-backed service refuses edits (the store is immutable) and
    // still balances every ledger, including the disk tier's.
    let svc = SamplingService::with_engine(
        Arc::clone(&g),
        ServiceConfig { disk: Some(disk_cfg(&g, &dir, 8, 1 << 16)), ..ServiceConfig::default() },
    );
    let spec = AlgoSpec::by_name("simple-walk").unwrap().with_depth(6);
    svc.submit(SamplingRequest::new(spec, vec![0, 1])).unwrap().wait().unwrap();
    let err = svc
        .mutate(MutationRequest::new(vec![EdgeEdit::Insert { src: 0, dst: 1, weight: 1.0 }]))
        .unwrap_err();
    assert!(
        matches!(err, csaw::graph::EditError::ImmutableStore),
        "expected ImmutableStore, got {err:?}"
    );
    let snap = svc.shutdown();
    assert!(snap.disk_lookups > 0, "service never consulted the disk tier");
    assert_eq!(snap.disk_lookups, snap.disk_hits + snap.disk_misses);
    assert_eq!(snap.mutations_rejected, 1);
    assert!(snap.fully_accounted(), "{snap:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The disk tier's ledger in one run's counters, and the calling
/// thread's pool (the pooled path's, or a fresh one) stays conserved.
fn assert_disk_ledger(stats: &SimStats, cfg: &DiskRunConfig, label: &str) {
    assert!(stats.disk_pool_lookups > 0, "{label}: disk tier never consulted");
    assert_eq!(stats.disk_pool_lookups, stats.disk_pool_hits + stats.disk_pool_misses, "{label}");
    let pool = with_thread_disk_access(cfg, |a| a.snapshot());
    assert!(pool.is_conserved(), "{label}: {pool:?}");
}

/// A mutation snapshot over the disk tier — its overlay above a store
/// written from its base — samples exactly what the same snapshot
/// samples over the CSR, and what a plain run on the compacted graph
/// samples: on the engine in both execution orders with a CTPS cache
/// attached, on the out-of-memory queue path and on the pooled path, at
/// pool budgets from one run to the whole graph. `biased-walk` reads
/// `degree(dst)` and `node2vec` reads `has_edge` through the access's
/// graph view, so a view that dropped the overlay would diverge here.
#[test]
fn snapshot_over_disk_matches_snapshot_over_csr_and_the_compacted_graph() {
    let g = rmat(9, 6, RmatParams::GRAPH500, 35);
    let n = g.num_vertices() as u32;
    let mut hubs: Vec<u32> = (0..n).collect();
    hubs.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    hubs.truncate(6);
    let mut edits = Vec::new();
    for &h in &hubs {
        edits.push(EdgeEdit::Delete { src: h, dst: g.neighbors(h)[0] });
        edits.push(EdgeEdit::Insert { src: h, dst: (h * 7 + 3) % n, weight: 1.0 });
        edits.push(EdgeEdit::Insert { src: (h * 13 + 5) % n, dst: h, weight: 1.0 });
    }
    let mut mg = MutableGraph::new(g.clone());
    mg.apply_batch(&edits).unwrap();
    let snap = mg.snapshot();
    let compacted = snap.to_csr();
    let seeds: Vec<u32> = (0..48).map(|i| i * 13 % n).collect();
    let dir = tmp_dir("snapshot");
    let total = disk_cfg(&g, &dir, 8, 0).store.total_decoded_bytes();
    // One hub's run (4 bytes an edge plus its row-pointer word), a tenth
    // of the graph, all of it.
    let budgets = [4 * g.degree(hubs[0]) + 8, total / 10, total];

    for name in ["simple-walk", "biased-walk", "node2vec"] {
        let algo = AlgoSpec::by_name(name).unwrap().with_depth(10).build().unwrap();
        let algo: &dyn Algorithm = algo.as_ref();
        let plain = Sampler::new(&compacted, &algo).run_single_seeds(&seeds).instances;
        for budget in budgets {
            let cfg = disk_cfg(&g, &dir, 8, budget);
            for exec in [ExecMode::InstanceMajor, ExecMode::DepthSync] {
                let label = format!("{name} {exec:?} pool {budget}");
                let run = |disk: Option<DiskRunConfig>| {
                    let cache = Arc::new(CtpsCache::new(1 << 16));
                    let opts = RunOptions {
                        exec,
                        ctps_cache: Some(Arc::clone(&cache)),
                        snapshot: Some(snap.clone()),
                        disk,
                        ..Default::default()
                    };
                    let out = Sampler::new(snap.base(), &algo)
                        .with_options(opts)
                        .run_checked(&seeds.iter().map(|&s| vec![s]).collect::<Vec<_>>());
                    let snap = cache.snapshot();
                    assert!(snap.is_conserved(), "{label}: {snap:?}");
                    out.expect("a snapshot over the disk tier is servable")
                };
                assert_eq!(run(None).instances, plain, "{label}: snapshot over CSR");
                let over_disk = run(Some(cfg.clone()));
                assert_eq!(over_disk.instances, plain, "{label}: snapshot over disk");
                assert_disk_ledger(&over_disk.stats, &cfg, &label);
            }

            let label = format!("{name} OOM queue pool {budget}");
            let oom = |disk: Option<DiskRunConfig>| {
                let opts = RunOptions {
                    ctps_cache: Some(Arc::new(CtpsCache::new(1 << 16))),
                    snapshot: Some(snap.clone()),
                    disk,
                    ..Default::default()
                };
                OomRunner::new(snap.base(), &algo, OomConfig::full()).with_options(opts).run(&seeds)
            };
            assert_eq!(oom(None).sample.instances, plain, "{label}: snapshot over CSR");
            let over_disk = oom(Some(cfg.clone()));
            assert_eq!(over_disk.sample.instances, plain, "{label}: snapshot over disk");
            assert_disk_ledger(&over_disk.sample.stats, &cfg, &label);
        }
    }

    let mdrw = MultiDimRandomWalk { budget: 60 };
    let pools = MultiDimRandomWalk::seed_pools(g.num_vertices(), 6, 32, 7);
    let plain = OomRunner::new(&compacted, &mdrw, OomConfig::full()).run_pools(&pools);
    let pooled = |disk: Option<DiskRunConfig>| {
        let opts = RunOptions { snapshot: Some(snap.clone()), disk, ..Default::default() };
        OomRunner::new(snap.base(), &mdrw, OomConfig::full()).with_options(opts).run_pools(&pools)
    };
    assert_eq!(pooled(None).sample.instances, plain.sample.instances, "mdrw: snapshot over CSR");
    for budget in budgets {
        let cfg = disk_cfg(&g, &dir, 8, budget);
        let over_disk = pooled(Some(cfg.clone()));
        assert_eq!(
            over_disk.sample.instances, plain.sample.instances,
            "mdrw pool {budget}: snapshot over disk"
        );
        assert_disk_ledger(&over_disk.sample.stats, &cfg, &format!("mdrw pool {budget}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}
