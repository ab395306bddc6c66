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
//! the shared [`csaw_core::step::StepKernel`] consumes the adjacency.
//!
//! Because the kernel and its RNG keys are byte-for-byte the ones the
//! in-memory engine drives, a pooled out-of-memory run samples **exactly**
//! the edges the engine samples — the partition layer only adds transfer
//! traffic and time. The tests pin that equivalence.

use crate::config::OomConfig;
use crate::memory::DeviceMemory;
use crate::scheduler::{OomOutput, OomRunner, KERNEL_LAUNCH_OVERHEAD};
use crate::transfer::TransferEngine;
use csaw_core::api::{Algorithm, FrontierMode};
use csaw_core::engine::{drive_pool, kernel_for, run_task, PoolBufs, Task};
use csaw_core::step::{LayeredAccess, NeighborAccess, Residency, StepScratch};
use csaw_core::SampleOutput;
use csaw_gpu::cost::gpu_kernel_seconds;
use csaw_gpu::stats::SimStats;
use csaw_graph::{Partition, PartitionSet, VertexId};
use std::collections::VecDeque;

/// Demand-resident partitions: a gather whose partition is not on the
/// device first evicts (FIFO) until the partition fits and transfers it on
/// stream 0; the storage under the access then serves the adjacency and
/// charges the same gather bytes every other runtime charges.
struct DeviceFaults<'g> {
    parts: &'g PartitionSet,
    memory: DeviceMemory,
    engine: TransferEngine,
    fifo: VecDeque<usize>,
    now: f64,
}

impl<'g> DeviceFaults<'g> {
    fn new(parts: &'g PartitionSet, cfg: &OomConfig, pcie_gbps: f64) -> Self {
        let max_part_bytes = parts.parts().iter().map(Partition::size_bytes).max().unwrap_or(1);
        DeviceFaults {
            parts,
            memory: DeviceMemory::new(max_part_bytes * cfg.resident_partitions),
            engine: TransferEngine::new(1, pcie_gbps),
            fifo: VecDeque::new(),
            now: 0.0,
        }
    }
}

impl Residency for DeviceFaults<'_> {
    /// Makes `v`'s partition resident, evicting FIFO victims as needed.
    fn fault_in(&mut self, v: VertexId, _charged: bool) {
        let p = self.parts.partition_of(v);
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

/// Runs pool-frontier instances out-of-memory: the engine's per-instance
/// depth loop over [`csaw_core::step::StepKernel`], gathering through a
/// [`LayeredAccess`] that faults partitions in ([`DeviceFaults`]) over the
/// storage and overlay the runner's options pick. Instances run in order
/// on one stream (a pool step is a single warp's sequential SELECT, so
/// there is no intra-step parallelism to model).
pub(crate) fn run_pooled<A: Algorithm>(
    runner: &OomRunner<'_, A>,
    parts: &PartitionSet,
    seed_sets: &[Vec<VertexId>],
) -> OomOutput {
    let faults = DeviceFaults::new(parts, &runner.cfg, runner.device.pcie_gbps);
    run_task(runner.graph, &runner.opts, faults, Pooled { runner, seed_sets })
}

/// [`run_pooled`]'s body as a [`Task`]; the run's disk work is charged to
/// its counters.
struct Pooled<'r, 'g, A: Algorithm> {
    runner: &'r OomRunner<'g, A>,
    seed_sets: &'r [Vec<VertexId>],
}

impl<'r, A: Algorithm> Task for Pooled<'r, '_, A> {
    type Residency = DeviceFaults<'r>;
    type Out = OomOutput;

    fn run<S: NeighborAccess>(
        self,
        access: &mut LayeredAccess<'_, S, DeviceFaults<'r>>,
    ) -> OomOutput {
        let Pooled { runner, seed_sets } = self;
        debug_assert_ne!(runner.algo.config().frontier, FrontierMode::IndependentPerVertex);
        let kernel = kernel_for(runner.algo, &runner.opts);
        let mut outputs: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); seed_sets.len()];
        let mut stats = SimStats::new();
        let mut rounds = 0u64;
        // Instances run serially on one stream: one warm arena (and one
        // frontier double-buffer) serves the whole run allocation-free.
        let mut scratch = StepScratch::new();
        let mut bufs = PoolBufs::default();
        for (i, seeds) in seed_sets.iter().enumerate() {
            let instance = runner.opts.instance_base + i as u32;
            let out = &mut outputs[i];
            // A pool step is one kernel step, so the count is the depth
            // the instance reached.
            let steps = drive_pool(
                &kernel,
                access,
                instance,
                seeds,
                &mut bufs,
                out,
                &mut scratch,
                &mut stats,
            );
            rounds = rounds.max(steps);
        }

        let sample = SampleOutput::from_totals(outputs, stats);
        // One logical kernel per pool step amortized over the run; the
        // transfer timeline is serial on stream 0 (gathers are dependent,
        // so copies cannot overlap sampling).
        let kernel_secs =
            gpu_kernel_seconds(&sample.stats, &runner.device) + KERNEL_LAUNCH_OVERHEAD;
        let engine = &mut access.residency.engine;
        let transfer_secs = engine.sync_all();
        OomOutput {
            sample,
            transfers: engine.transfers,
            bytes_transferred: engine.bytes_transferred,
            sim_seconds: transfer_secs + kernel_secs,
            kernel_busy: vec![kernel_secs],
            round_kernel_times: Vec::new(),
            rounds: rounds as usize,
            events: Vec::new(),
        }
    }

    fn ledger(out: &mut OomOutput) -> Option<&mut SimStats> {
        Some(&mut out.sample.stats)
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
        assert_eq!(oom.sample.sorted_instances(), mem.sorted_instances());
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
        assert_eq!(oom.sample.sorted_instances(), mem.sorted_instances());
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
        assert_eq!(a.sample.instances, b.sample.instances);
        assert_eq!(a.transfers, b.transfers);
        for inst in &a.sample.instances {
            assert!(inst.len() <= 9, "budget bounds sampled edges");
        }
    }

    /// The pooled path's transfer ledger, pinned exactly on a fixed input:
    /// layer sampling and MDRW over the CSR, and MDRW over a snapshot
    /// whose overlay vertices (hubs among them) serve without a fault.
    #[test]
    fn transfer_counters_are_pinned() {
        use csaw_core::engine::RunOptions;
        use csaw_graph::{EdgeEdit, MutableGraph};
        let g = rmat(10, 6, RmatParams::GRAPH500, 24);
        let layer = LayerSampling { layer_size: 6, depth: 4 };
        let seeds: Vec<u32> = (0..32).map(|i| i * 37 % 1024).collect();
        let out =
            OomRunner::new(&g, &layer, OomConfig::full()).with_device(tiny_device()).run(&seeds);
        assert_eq!((out.transfers, out.bytes_transferred), (58, 674736));
        let mdrw = MultiDimRandomWalk { budget: 40 };
        let pools = MultiDimRandomWalk::seed_pools(g.num_vertices(), 10, 8, 5);
        let out = OomRunner::new(&g, &mdrw, OomConfig::full())
            .with_device(tiny_device())
            .run_pools(&pools);
        assert_eq!((out.transfers, out.bytes_transferred), (63, 730376));
        let hubs: Vec<u32> = {
            let mut by_degree: Vec<u32> = (0..g.num_vertices() as u32).collect();
            by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
            by_degree.truncate(8);
            by_degree
        };
        let mut mg = MutableGraph::new(g.clone());
        let mut edits: Vec<EdgeEdit> = hubs
            .iter()
            .map(|&h| EdgeEdit::Insert { src: h, dst: (h + 1) % 1024, weight: 1.0 })
            .collect();
        edits.push(EdgeEdit::Delete { src: hubs[0], dst: g.neighbors(hubs[0])[0] });
        mg.apply_batch(&edits).unwrap();
        let out = OomRunner::new(&g, &mdrw, OomConfig::full())
            .with_device(tiny_device())
            .with_options(RunOptions { snapshot: Some(mg.snapshot()), ..Default::default() })
            .run_pools(&pools);
        assert_eq!((out.transfers, out.bytes_transferred), (71, 822248));
    }

    #[test]
    #[should_panic(expected = "pool-frontier")]
    fn run_pools_rejects_per_vertex_algorithms() {
        let g = csaw_graph::generators::toy_graph();
        let algo = csaw_core::algorithms::UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 };
        let _ = OomRunner::new(&g, &algo, OomConfig::full()).run_pools(&[vec![0]]);
    }
}
