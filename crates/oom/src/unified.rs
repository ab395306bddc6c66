//! Unified-memory comparator (ablation A4).
//!
//! §VII: "GPU unified memory and partition-centric are viable methods
//! for out-of-memory graph processing. Since graph sampling is irregular,
//! unified memory is not a suitable option." This module quantifies that
//! claim: the same sampling workload runs against a demand-paged device —
//! no partition management, every neighbor gather that misses the
//! resident page set takes a page fault (driver stall + PCIe migration),
//! with LRU eviction under the same memory budget the partition runtime
//! gets.
//!
//! The expand pipeline is the shared [`StepKernel`]: this runner only
//! supplies a page cache as the [`Residency`] model of a [`LayeredAccess`]
//! over the CSR, and drives the engine's [`PoolSink`] over per-instance
//! frontiers. Because kernel and RNG keys are identical to the in-memory
//! engine's, a unified-memory run samples exactly the engine's edges —
//! including second-order biases like node2vec, whose `prev` threading a
//! previous hand-rolled copy of this loop silently dropped. The
//! regression test pins that equality.

use csaw_core::api::{Algorithm, FrontierMode};
use csaw_core::select::SelectConfig;
use csaw_core::step::{
    CsrAccess, LayeredAccess, PoolSink, PoolSlot, Residency, StepEntry, StepKernel, StepScratch,
    TrialCounter,
};
use csaw_gpu::config::DeviceConfig;
use csaw_gpu::cost::gpu_kernel_seconds;
use csaw_gpu::stats::SimStats;
use csaw_graph::{Csr, VertexId};
use std::collections::{HashSet, VecDeque};

/// Driver-side latency of servicing one GPU page fault (fault interrupt,
/// host handler, map update) — on top of the PCIe migration itself.
pub const PAGE_FAULT_LATENCY: f64 = 2e-5;

/// Unified-memory page size (CUDA migrates in 64 KiB granules).
pub const PAGE_BYTES: usize = 64 * 1024;

/// Result of a unified-memory run.
#[derive(Debug, Clone)]
pub struct UnifiedOutput {
    /// Sampled edges per instance.
    pub instances: Vec<Vec<(VertexId, VertexId)>>,
    /// Counted kernel work (excludes paging).
    pub stats: SimStats,
    /// Page faults taken.
    pub page_faults: u64,
    /// Bytes migrated host → device.
    pub bytes_migrated: u64,
    /// End-to-end simulated seconds: kernel time + serialized fault
    /// servicing (faults from dependent gathers cannot overlap).
    pub sim_seconds: f64,
}

impl UnifiedOutput {
    /// Total sampled edges.
    pub fn sampled_edges(&self) -> u64 {
        self.instances.iter().map(|i| i.len() as u64).sum()
    }
}

/// Demand-paged cache over the CSR's column array with FIFO eviction
/// (a fair stand-in for the driver's coarse LRU at this granularity):
/// every gather touches the neighbor list's byte range, counting faults
/// and migrated bytes, before the CSR serves it.
struct PageCache<'g> {
    graph: &'g Csr,
    capacity_pages: usize,
    resident: HashSet<usize>,
    fifo: VecDeque<usize>,
    faults: u64,
    bytes_migrated: u64,
}

impl<'g> PageCache<'g> {
    fn new(graph: &'g Csr, capacity_bytes: usize) -> Self {
        PageCache {
            graph,
            capacity_pages: (capacity_bytes / PAGE_BYTES).max(1),
            resident: HashSet::new(),
            fifo: VecDeque::new(),
            faults: 0,
            bytes_migrated: 0,
        }
    }

    /// Touches the byte range, returning how many pages faulted.
    fn touch(&mut self, start_byte: usize, len: usize) -> u64 {
        let first = start_byte / PAGE_BYTES;
        let last = (start_byte + len.max(1) - 1) / PAGE_BYTES;
        let mut faults = 0;
        for page in first..=last {
            if self.resident.insert(page) {
                faults += 1;
                self.fifo.push_back(page);
                while self.resident.len() > self.capacity_pages {
                    if let Some(victim) = self.fifo.pop_front() {
                        self.resident.remove(&victim);
                    }
                }
            }
        }
        self.faults += faults;
        faults
    }
}

impl Residency for PageCache<'_> {
    /// Pages in `v`'s neighbor list on a gather; the cache-hit path's
    /// uncharged re-borrow reads no adjacency page.
    fn fault_in(&mut self, v: VertexId, charged: bool) {
        if charged {
            let start_byte = self.graph.row_ptr()[v as usize] * 4;
            let faulted = self.touch(start_byte, self.graph.degree(v) * 4);
            self.bytes_migrated += faulted * PAGE_BYTES as u64;
        }
    }
}

/// Unified-memory sampler: same algorithms, demand paging instead of
/// partition scheduling. Supports the per-vertex frontier algorithms
/// (the Fig. 13 workload set).
pub struct UnifiedRunner<'g, A: Algorithm> {
    graph: &'g Csr,
    algo: &'g A,
    device: DeviceConfig,
    select: SelectConfig,
    seed: u64,
    ctps_cache_budget: usize,
    method_policy: csaw_core::method::MethodPolicy,
}

impl<'g, A: Algorithm> UnifiedRunner<'g, A> {
    /// A runner over a demand-paged device.
    pub fn new(graph: &'g Csr, algo: &'g A, device: DeviceConfig) -> Self {
        assert_eq!(
            algo.config().frontier,
            FrontierMode::IndependentPerVertex,
            "unified-memory comparator covers the per-vertex frontier algorithms"
        );
        UnifiedRunner {
            graph,
            algo,
            device,
            select: SelectConfig::paper_best(),
            seed: 0x5eed,
            ctps_cache_budget: 0,
            method_policy: csaw_core::method::MethodPolicy::ForceIts,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Byte budget for a hot-vertex CTPS cache shared by every instance
    /// of a run (0 — the default — disables caching). The CSR is
    /// read-only under demand paging, so cached bounds never go stale
    /// and the cache stays on epoch 0.
    pub fn with_ctps_cache_budget(mut self, budget: usize) -> Self {
        self.ctps_cache_budget = budget;
        self
    }

    /// Sampling-method policy (see `csaw_core::method`): `ForceIts` (the
    /// default) stays bit-identical to the in-memory engine; `Adaptive`
    /// picks alias/rejection per expansion (distribution-equal).
    pub fn with_method_policy(mut self, policy: csaw_core::method::MethodPolicy) -> Self {
        self.method_policy = policy;
        self
    }

    /// Runs one single-seed instance per seed, demand-paging the CSR.
    pub fn run(&self, seeds: &[VertexId]) -> UnifiedOutput {
        let algo_cfg = self.algo.config();
        let cache = (self.ctps_cache_budget > 0)
            .then(|| csaw_core::ctps_cache::CtpsCache::new(self.ctps_cache_budget));
        let kernel = StepKernel::new(self.algo, self.seed)
            .with_select(self.select)
            .with_ctps_cache(cache.as_ref())
            .with_method_policy(self.method_policy);
        let mut storage = CsrAccess { graph: self.graph };
        let pages = PageCache::new(self.graph, self.device.memory_bytes);
        let mut access = LayeredAccess::new(&mut storage, None, pages);
        let mut stats = SimStats::new();
        let mut outputs: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); seeds.len()];

        // BSP over depth, interleaving instances — the fault pattern of
        // thousands of concurrent walkers hitting scattered pages.
        let mut frontiers: Vec<Vec<PoolSlot>> =
            seeds.iter().map(|&s| vec![PoolSlot::seed(s)]).collect();
        let mut visited: Vec<HashSet<VertexId>> = seeds
            .iter()
            .map(
                |&s| {
                    if algo_cfg.without_replacement {
                        HashSet::from([s])
                    } else {
                        HashSet::new()
                    }
                },
            )
            .collect();

        // One warm arena and one frontier double-buffer serve every
        // instance of the serial BSP loop allocation-free.
        let mut scratch = StepScratch::new();
        let mut frontier: Vec<PoolSlot> = Vec::new();
        let mut trials = TrialCounter::new();
        for depth in 0..algo_cfg.depth as u32 {
            let mut any = false;
            trials.reset();
            for inst in 0..seeds.len() {
                std::mem::swap(&mut frontiers[inst], &mut frontier);
                frontiers[inst].clear();
                stats.frontier_ops += frontier.len() as u64;
                for &slot in frontier.iter() {
                    any = true;
                    let entry = StepEntry {
                        instance: inst as u32,
                        depth,
                        vertex: slot.vertex,
                        prev: slot.prev,
                        trial: trials.next(inst as u32, slot.vertex),
                    };
                    let mut sink = PoolSink {
                        cfg: &algo_cfg,
                        detector: self.select.detector,
                        visited: &mut visited[inst],
                        next: &mut frontiers[inst],
                        out: &mut outputs[inst],
                    };
                    kernel.expand(
                        &mut access,
                        &entry,
                        seeds[inst],
                        &mut sink,
                        &mut scratch,
                        &mut stats,
                    );
                }
            }
            if !any {
                break;
            }
        }

        let kernel_secs = gpu_kernel_seconds(&stats, &self.device);
        let pages = &access.residency;
        let paging = pages.faults as f64
            * (PAGE_FAULT_LATENCY + PAGE_BYTES as f64 / (self.device.pcie_gbps * 1e9));
        stats.sampled_edges = outputs.iter().map(|o| o.len() as u64).sum();
        UnifiedOutput {
            instances: outputs,
            stats,
            page_faults: pages.faults,
            bytes_migrated: pages.bytes_migrated,
            sim_seconds: kernel_secs + paging,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OomConfig, OomRunner};
    use csaw_core::algorithms::UnbiasedNeighborSampling;
    use csaw_graph::generators::{rmat, toy_graph, RmatParams};

    fn tiny() -> DeviceConfig {
        DeviceConfig::tiny(4 * PAGE_BYTES)
    }

    #[test]
    fn samples_valid_edges() {
        let g = rmat(9, 4, RmatParams::GRAPH500, 1);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let out = UnifiedRunner::new(&g, &algo, tiny()).run(&[0, 17, 200]);
        assert_eq!(out.instances.len(), 3);
        for inst in &out.instances {
            for &(v, u) in inst {
                assert!(g.has_edge(v, u));
            }
        }
        assert!(out.page_faults > 0, "tiny device must fault");
        assert!(out.sim_seconds > 0.0);
    }

    #[test]
    fn unified_memory_matches_the_engine_exactly() {
        // Same kernel, same keys → the demand-paged run is the engine run.
        let g = rmat(9, 4, RmatParams::GRAPH500, 12);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let seeds: Vec<u32> = (0..32).map(|i| (i * 13) % 512).collect();
        let um = UnifiedRunner::new(&g, &algo, tiny()).run(&seeds);
        let mem = csaw_core::engine::Sampler::new(&g, &algo).run_single_seeds(&seeds);
        assert_eq!(um.instances, mem.instances);
    }

    #[test]
    fn second_order_bias_survives_demand_paging() {
        // Regression: candidates used to be built with `prev: None`,
        // silently degrading node2vec to a first-order walk under unified
        // memory. Through the shared kernel the second-order outputs must
        // equal the in-memory engine's, edge for edge.
        use csaw_core::algorithms::Node2Vec;
        let g = rmat(9, 6, RmatParams::GRAPH500, 13);
        let algo = Node2Vec { length: 10, p: 0.1, q: 4.0 };
        let seeds: Vec<u32> = (0..48).map(|i| (i * 11) % 512).collect();
        let um = UnifiedRunner::new(&g, &algo, tiny()).run(&seeds);
        let mem = csaw_core::engine::Sampler::new(&g, &algo).run_single_seeds(&seeds);
        assert_eq!(um.instances, mem.instances, "node2vec must keep its prev-dependent bias");
        // And the bias must actually bite: with p = 0.1 the walker
        // backtracks far more often than chance.
        let mut backtracks = 0usize;
        let mut steps = 0usize;
        for inst in &um.instances {
            for w in inst.windows(2) {
                steps += 1;
                if w[1].1 == w[0].0 {
                    backtracks += 1;
                }
            }
        }
        assert!(
            backtracks as f64 > steps as f64 * 0.3,
            "return bias must show: {backtracks}/{steps}"
        );
    }

    #[test]
    fn oversubscription_faults_more() {
        // CSR col array ~0.5 MB = 8 pages; a 2-page cache thrashes under
        // the samplers' scattered access while a roomy one faults each
        // page once.
        let g = rmat(13, 8, RmatParams::GRAPH500, 2);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 4 };
        let seeds: Vec<u32> = (0..128).map(|i| i * 131 % 8192).collect();
        let small = UnifiedRunner::new(&g, &algo, DeviceConfig::tiny(2 * PAGE_BYTES)).run(&seeds);
        let big = UnifiedRunner::new(&g, &algo, DeviceConfig::tiny(1 << 24)).run(&seeds);
        assert!(
            small.page_faults > 2 * big.page_faults,
            "smaller cache must thrash: {} vs {}",
            small.page_faults,
            big.page_faults
        );
    }

    #[test]
    fn roomy_device_faults_each_page_at_most_once() {
        let g = toy_graph();
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let out = UnifiedRunner::new(&g, &algo, DeviceConfig::tiny(1 << 24)).run(&[0, 8]);
        // The whole CSR fits in one page.
        assert_eq!(out.page_faults, 1);
    }

    /// The §VII claim: partition-based out-of-memory sampling beats
    /// demand paging on irregular access, with the same memory budget.
    #[test]
    fn partition_runtime_beats_unified_memory() {
        let g = rmat(12, 8, RmatParams::GRAPH500, 3);
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let seeds: Vec<u32> = (0..256).map(|i| i * 17 % 4096).collect();
        // Same budget: UM gets as many bytes as the partition runtime's
        // two resident partitions.
        let parts = csaw_graph::PartitionSet::equal_ranges(&g, 4);
        let budget: usize =
            parts.parts().iter().map(csaw_graph::Partition::size_bytes).max().unwrap() * 2;
        let um = UnifiedRunner::new(&g, &algo, DeviceConfig::tiny(budget)).run(&seeds);
        let csaw = OomRunner::new(&g, &algo, OomConfig::full())
            .with_device(DeviceConfig::tiny(budget))
            .run(&seeds);
        assert!(
            csaw.sim_seconds < um.sim_seconds,
            "partition runtime {} s must beat unified memory {} s",
            csaw.sim_seconds,
            um.sim_seconds
        );
    }

    /// The comparator's paging ledger, pinned exactly on a fixed input: a
    /// plain sampler (every gather pages) and a cached biased walk (cache
    /// hits re-borrow adjacency without touching the page cache).
    #[test]
    fn paging_counters_are_pinned() {
        use csaw_core::algorithms::BiasedRandomWalk;
        let g = rmat(12, 8, RmatParams::GRAPH500, 3);
        let seeds: Vec<u32> = (0..96).map(|i| i * 41 % 4096).collect();
        let device = DeviceConfig::tiny(3 * PAGE_BYTES);
        let ns = UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let out = UnifiedRunner::new(&g, &ns, device).run(&seeds);
        assert_eq!((out.page_faults, out.bytes_migrated), (80, 5242880));
        let walk = BiasedRandomWalk { length: 16 };
        let out = UnifiedRunner::new(&g, &walk, device).with_ctps_cache_budget(1 << 16).run(&seeds);
        assert!(out.stats.ctps_cache_hits > 0);
        assert_eq!((out.page_faults, out.bytes_migrated), (99, 6488064));
    }

    #[test]
    fn deterministic() {
        let g = toy_graph();
        let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 };
        let a = UnifiedRunner::new(&g, &algo, tiny()).run(&[8, 0]);
        let b = UnifiedRunner::new(&g, &algo, tiny()).run(&[8, 0]);
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.page_faults, b.page_faults);
    }
}
