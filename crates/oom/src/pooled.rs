//! Out-of-memory execution for pool-frontier algorithms (layer sampling
//! and multi-dimensional random walk).
//!
//! The Fig. 8 queue runtime is built around *per-vertex* frontier entries
//! that any partition can drain independently. Pool-frontier algorithms
//! break that shape: every step reads the **whole** pool (layer sampling
//! unions all neighbor lists; MDRW's `VERTEXBIAS` weighs every pool
//! vertex), so a step cannot be split across partition queues. What it
//! *can* do out-of-memory is run the ordinary per-instance depth loop —
//! the same driver the in-memory engine uses — against a partitioned,
//! demand-resident graph: each gather pulls the owning partition onto the
//! device (FIFO eviction under the configured residency budget) before
//! the shared [`StepKernel`] consumes the adjacency.
//!
//! Because the kernel and its RNG keys are byte-for-byte the ones the
//! in-memory engine drives, a pooled out-of-memory run samples **exactly**
//! the edges the engine samples — the partition layer only adds transfer
//! traffic and time. The tests pin that equivalence.

use crate::config::OomConfig;
use crate::scheduler::{OomOutput, OomRunner, KERNEL_LAUNCH_OVERHEAD};
use csaw_core::api::{Algorithm, FrontierMode};
use csaw_core::engine::{drive_pool, PoolBufs};
use csaw_core::residency::{with_thread_disk_access, DiskAccess};
use csaw_core::step::{gather_bytes, Gathered, NeighborAccess, StepKernel, StepScratch};
use csaw_gpu::cost::gpu_kernel_seconds;
use csaw_gpu::memory::DeviceMemory;
use csaw_gpu::stats::SimStats;
use csaw_gpu::transfer::TransferEngine;
use csaw_graph::{Csr, GraphSnapshot, GraphView, Partition, PartitionSet, VertexId};
use std::collections::VecDeque;

/// Demand-resident partition access: a gather whose partition is not on
/// the device first evicts (FIFO) until the partition fits, transfers it
/// on stream 0, and then charges the same gather bytes every other
/// runtime charges.
struct ResidentAccess<'g, 'd> {
    graph: &'g Csr,
    parts: &'g PartitionSet,
    /// Epoch snapshot, when the run samples a mutable graph: overlay
    /// vertices serve their merged adjacency (device-resident, no
    /// partition fault), untouched vertices page the base partitions.
    snapshot: Option<&'g GraphSnapshot>,
    /// Disk tier, when the run's host side is an on-disk store: the
    /// device fault-in simulation runs unchanged, but the adjacency
    /// bytes themselves come from the worker's decoded-run pool
    /// instead of the resident CSR slices.
    disk: Option<&'d mut DiskAccess>,
    memory: DeviceMemory,
    engine: TransferEngine,
    fifo: VecDeque<usize>,
    now: f64,
}

impl<'g, 'd> ResidentAccess<'g, 'd> {
    fn new(
        graph: &'g Csr,
        parts: &'g PartitionSet,
        snapshot: Option<&'g GraphSnapshot>,
        disk: Option<&'d mut DiskAccess>,
        cfg: &OomConfig,
        pcie_gbps: f64,
    ) -> Self {
        let max_part_bytes = parts.parts().iter().map(Partition::size_bytes).max().unwrap_or(1);
        ResidentAccess {
            graph,
            parts,
            snapshot,
            disk,
            memory: DeviceMemory::new(max_part_bytes * cfg.resident_partitions),
            engine: TransferEngine::new(1, pcie_gbps),
            fifo: VecDeque::new(),
            now: 0.0,
        }
    }

    /// Makes `p` resident, evicting FIFO victims as needed.
    fn fault_in(&mut self, p: usize) {
        if self.memory.is_resident(p) {
            return;
        }
        let bytes = self.parts.get(p).size_bytes();
        while !self.memory.can_fit(bytes) {
            let victim = self.fifo.pop_front().expect("a resident partition to evict");
            self.memory.release(victim).expect("fifo tracks residency");
        }
        self.memory.alloc(p, bytes).expect("partition fits after eviction");
        self.fifo.push_back(p);
        self.now = self.engine.copy_h2d(0, bytes, self.now).expect("stream 0 exists");
    }
}

impl NeighborAccess for ResidentAccess<'_, '_> {
    fn graph(&self) -> GraphView<'_> {
        if let Some(disk) = self.disk.as_deref() {
            return disk.graph();
        }
        match self.snapshot {
            Some(s) => s.view(),
            None => self.graph.view(),
        }
    }

    fn gather(&mut self, v: VertexId, stats: &mut SimStats) -> Gathered<'_> {
        if let Some(s) = self.snapshot {
            if let Some((neighbors, weights)) = s.delta_adjacency(v) {
                stats.read_gmem(gather_bytes(self.graph.is_weighted(), neighbors.len()));
                return Gathered { graph: s.view(), neighbors, weights };
            }
        }
        let p = self.parts.partition_of(v);
        self.fault_in(p);
        // Field-disjoint arms: the `disk` borrow must not overlap a
        // whole-`self` method call in the fall-through.
        match self.disk.as_deref_mut() {
            Some(disk) => disk.gather(v, stats),
            None => {
                let part = self.parts.get(p);
                stats.read_gmem(gather_bytes(self.graph.is_weighted(), part.degree(v)));
                let graph = match self.snapshot {
                    Some(s) => s.view(),
                    None => self.graph.view(),
                };
                Gathered { graph, neighbors: part.neighbors(v), weights: part.neighbor_weights(v) }
            }
        }
    }

    fn fetch(&mut self, v: VertexId) -> Gathered<'_> {
        if let Some(s) = self.snapshot {
            if let Some((neighbors, weights)) = s.delta_adjacency(v) {
                return Gathered { graph: s.view(), neighbors, weights };
            }
        }
        let p = self.parts.partition_of(v);
        self.fault_in(p);
        match self.disk.as_deref_mut() {
            Some(disk) => disk.fetch(v),
            None => {
                let part = self.parts.get(p);
                let graph = match self.snapshot {
                    Some(s) => s.view(),
                    None => self.graph.view(),
                };
                Gathered { graph, neighbors: part.neighbors(v), weights: part.neighbor_weights(v) }
            }
        }
    }

    fn entry_epoch(&self, v: VertexId) -> u64 {
        if let Some(disk) = self.disk.as_deref() {
            return disk.entry_epoch(v);
        }
        match self.snapshot {
            Some(s) => s.entry_version(v),
            None => 0,
        }
    }
}

/// Runs pool-frontier instances out-of-memory: the engine's per-instance
/// depth loop over [`StepKernel`], gathering through [`ResidentAccess`].
/// Instances run in order on one stream (a pool step is a single warp's
/// sequential SELECT, so there is no intra-step parallelism to model).
pub(crate) fn run_pooled<A: Algorithm>(
    runner: &OomRunner<'_, A>,
    parts: &PartitionSet,
    seed_sets: &[Vec<VertexId>],
) -> OomOutput {
    match runner.disk.as_ref() {
        Some(cfg) => {
            with_thread_disk_access(cfg, |da| run_pooled_inner(runner, parts, seed_sets, Some(da)))
        }
        None => run_pooled_inner(runner, parts, seed_sets, None),
    }
}

fn run_pooled_inner<A: Algorithm>(
    runner: &OomRunner<'_, A>,
    parts: &PartitionSet,
    seed_sets: &[Vec<VertexId>],
    disk: Option<&mut DiskAccess>,
) -> OomOutput {
    let algo = runner.algo;
    let cfg = algo.config();
    debug_assert_ne!(cfg.frontier, FrontierMode::IndependentPerVertex);
    let kernel = StepKernel::new(algo, runner.seed)
        .with_select(runner.select)
        .with_method_policy(runner.method_policy);
    let mut access = ResidentAccess::new(
        runner.graph,
        parts,
        runner.snapshot.as_ref(),
        disk,
        &runner.cfg,
        runner.device.pcie_gbps,
    );
    let mut outputs: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); seed_sets.len()];
    let mut stats = SimStats::new();
    let mut rounds = 0u64;
    // Instances run serially on one stream: one warm arena (and one
    // frontier double-buffer) serves the whole run allocation-free.
    let mut scratch = StepScratch::new();
    let mut bufs = PoolBufs::default();
    for (i, seeds) in seed_sets.iter().enumerate() {
        let instance = runner.instance_base + i as u32;
        let out = &mut outputs[i];
        // A pool step is one kernel step, so the count is the depth the
        // instance reached.
        let steps = drive_pool(
            &kernel,
            &mut access,
            instance,
            seeds,
            &mut bufs,
            out,
            &mut scratch,
            &mut stats,
        );
        rounds = rounds.max(steps);
    }

    if let Some(disk) = access.disk.as_deref_mut() {
        disk.flush_stats(&mut stats);
    }
    stats.sampled_edges = outputs.iter().map(|o| o.len() as u64).sum();
    // One logical kernel per pool step amortized over the run; the
    // transfer timeline is serial on stream 0 (gathers are dependent, so
    // copies cannot overlap sampling).
    let kernel_secs = gpu_kernel_seconds(&stats, &runner.device) + KERNEL_LAUNCH_OVERHEAD;
    let transfer_secs = access.engine.sync_all();
    OomOutput {
        instances: outputs,
        stats,
        transfers: access.engine.transfers,
        bytes_transferred: access.engine.bytes_transferred,
        sim_seconds: transfer_secs + kernel_secs,
        kernel_busy: vec![kernel_secs],
        round_kernel_times: Vec::new(),
        rounds: rounds as usize,
        events: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use crate::config::OomConfig;
    use crate::scheduler::OomRunner;
    use csaw_core::algorithms::{LayerSampling, MultiDimRandomWalk};
    use csaw_core::engine::Sampler;
    use csaw_gpu::config::DeviceConfig;
    use csaw_graph::generators::{rmat, RmatParams};

    fn tiny_device() -> DeviceConfig {
        DeviceConfig::tiny(1 << 20)
    }

    fn canon(instances: &[Vec<(u32, u32)>]) -> Vec<Vec<(u32, u32)>> {
        instances
            .iter()
            .map(|i| {
                let mut e = i.clone();
                e.sort_unstable();
                e
            })
            .collect()
    }

    #[test]
    fn layer_sampling_runs_out_of_memory_and_matches_the_engine() {
        // The lifted restriction: layer sampling used to panic in
        // OomRunner::new. Through the shared kernel its out-of-memory
        // output is the in-memory engine's output, edge for edge.
        let g = rmat(9, 6, RmatParams::GRAPH500, 21);
        let algo = LayerSampling { layer_size: 4, depth: 3 };
        let seeds: Vec<u32> = (0..24).map(|i| (i * 19) % 512).collect();
        let mem = Sampler::new(&g, &algo).run_single_seeds(&seeds);
        let oom =
            OomRunner::new(&g, &algo, OomConfig::full()).with_device(tiny_device()).run(&seeds);
        assert_eq!(canon(&oom.instances), canon(&mem.instances));
        assert!(oom.transfers > 0, "tiny device must page partitions");
        assert!(oom.sim_seconds > 0.0);
    }

    #[test]
    fn mdrw_runs_out_of_memory_and_matches_the_engine() {
        let g = rmat(9, 6, RmatParams::GRAPH500, 22);
        let algo = MultiDimRandomWalk { budget: 16 };
        let pools = MultiDimRandomWalk::seed_pools(g.num_vertices(), 12, 8, 7);
        let mem = Sampler::new(&g, &algo).run(&pools);
        let oom = OomRunner::new(&g, &algo, OomConfig::full())
            .with_device(tiny_device())
            .run_pools(&pools);
        assert_eq!(canon(&oom.instances), canon(&mem.instances));
        assert!(oom.transfers > 0);
    }

    #[test]
    fn pooled_is_deterministic_and_budgeted() {
        let g = rmat(8, 4, RmatParams::MILD, 23);
        let algo = MultiDimRandomWalk { budget: 9 };
        let pools = MultiDimRandomWalk::seed_pools(g.num_vertices(), 6, 4, 11);
        let run = || {
            OomRunner::new(&g, &algo, OomConfig::full())
                .with_device(tiny_device())
                .run_pools(&pools)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.transfers, b.transfers);
        for inst in &a.instances {
            assert!(inst.len() <= 9, "budget bounds sampled edges");
        }
    }

    #[test]
    #[should_panic(expected = "pool-frontier")]
    fn run_pools_rejects_per_vertex_algorithms() {
        let g = csaw_graph::generators::toy_graph();
        let algo = csaw_core::algorithms::UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 };
        let _ = OomRunner::new(&g, &algo, OomConfig::full()).run_pools(&[vec![0]]);
    }
}
