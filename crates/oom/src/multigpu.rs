//! Multi-GPU C-SAW (paper §V-D).
//!
//! "C-SAW simply divides all the sampling instances into several disjoint
//! groups, each of which contains equal number of instances... each GPU
//! will be responsible for one sampling group... no inter-GPU
//! communication is required."
//!
//! Each group runs through the in-memory engine on its own simulated
//! device; the run's time is the slowest device's time. Under-saturation
//! is modeled by capping a device's parallel warp slots at its group's
//! instance count — the mechanism behind Fig. 17's poor scaling at 2,000
//! instances and good scaling at 8,000.
//!
//! Because the groups are disjoint and never communicate, each simulated
//! GPU runs as its own host task (one rayon task per device, results
//! collected in group order), so multi-GPU runs also parallelize on the
//! host without changing any output.

use crate::OomOutput;
use csaw_core::api::Algorithm;
use csaw_core::engine::{RunOptions, Sampler};
use csaw_core::SampleOutput;
use csaw_gpu::config::DeviceConfig;
use csaw_gpu::cost::{gpu_kernel_seconds_with_slots, makespan_seconds};
use csaw_gpu::stats::SimStats;
use csaw_gpu::Device;
use csaw_graph::{Csr, VertexId};
use rayon::prelude::*;

/// Result of a multi-GPU run: the sample plus the per-device cost model.
#[derive(Debug, Clone)]
pub struct MultiGpuOutput {
    /// The sample, concatenated in GPU-group order. Per-instance
    /// counters travel with their instances, so the serving layer slices
    /// them back to per-request accounting regardless of which device ran
    /// which group.
    pub sample: SampleOutput,
    /// Per-GPU simulated kernel seconds.
    pub gpu_seconds: Vec<f64>,
    /// Per-GPU merged stats.
    pub gpu_stats: Vec<SimStats>,
}

impl MultiGpuOutput {
    /// End-to-end time: the straggler GPU (§V-D has no communication, so
    /// completion is a pure max).
    pub fn total_seconds(&self) -> f64 {
        self.gpu_seconds.iter().copied().fold(0.0, f64::max)
    }

    /// Aggregate SEPS.
    pub fn seps(&self) -> f64 {
        let t = self.total_seconds();
        if t <= 0.0 {
            0.0
        } else {
            self.sample.sampled_edges() as f64 / t
        }
    }
}

/// Driver for `num_gpus` identical simulated devices.
#[derive(Debug, Clone)]
pub struct MultiGpu {
    /// Number of devices (Summit nodes have 6 V100s).
    pub num_gpus: usize,
    /// Per-device hardware model.
    pub device: DeviceConfig,
}

impl MultiGpu {
    /// `n` V100s.
    pub fn new(num_gpus: usize) -> Self {
        assert!(num_gpus >= 1);
        MultiGpu { num_gpus, device: DeviceConfig::v100() }
    }

    /// Splits `items` into `num_gpus` equal contiguous groups, each with
    /// its global starting instance index so RNG streams stay keyed by
    /// global instance: a split run draws exactly what the single-device
    /// run draws. The caller's own `base` offsets every group, so a
    /// multi-GPU launch that is itself a segment of a larger coalesced
    /// batch still draws the segment's streams.
    fn groups<'s, T>(&self, items: &'s [T], base: u32) -> Vec<(u32, &'s [T])> {
        let per = items.len().div_ceil(self.num_gpus).max(1);
        items.chunks(per).enumerate().map(|(j, chunk)| (base + (j * per) as u32, chunk)).collect()
    }

    /// Splits `seed_sets` into `num_gpus` equal contiguous groups and runs
    /// each on its own device.
    pub fn run<A: Algorithm>(
        &self,
        graph: &Csr,
        algo: &A,
        seed_sets: &[Vec<VertexId>],
        opts: RunOptions,
    ) -> MultiGpuOutput {
        let t0 = std::time::Instant::now();
        let chunks = self.groups(seed_sets, opts.instance_base);
        // One host task per simulated GPU: the groups are disjoint and the
        // devices never communicate, so each chunk runs independently and
        // the per-group results are collected in group order.
        let results: Vec<(f64, SampleOutput)> = chunks
            .into_par_iter()
            .map(|(base, chunk)| {
                let group_opts = RunOptions { instance_base: base, ..opts.clone() };
                let out = Sampler::new(graph, algo)
                    .with_device(Device::with_config(self.device))
                    .with_options(group_opts)
                    .run(chunk);
                // Saturation model: a group smaller than the device's
                // resident warp capacity leaves warp slots idle; the
                // wavefront makespan additionally surfaces straggler
                // instances.
                let slots = self.device.total_warps().min(chunk.len().max(1));
                let throughput = gpu_kernel_seconds_with_slots(&out.stats, &self.device, slots);
                let cycles: Vec<u64> = out.instance_stats.iter().map(|s| s.warp_cycles).collect();
                let makespan = makespan_seconds(&cycles, &self.device, slots);
                (throughput.max(makespan), out)
            })
            .collect();

        let mut sample = SampleOutput::empty();
        let mut gpu_seconds = Vec::with_capacity(self.num_gpus);
        let mut gpu_stats = Vec::with_capacity(self.num_gpus);
        for (secs, out) in results {
            gpu_seconds.push(secs);
            gpu_stats.push(out.stats);
            sample.extend(out);
        }
        // Devices with no work finish instantly.
        gpu_seconds.resize(self.num_gpus, 0.0);
        gpu_stats.resize(self.num_gpus, SimStats::new());
        sample.wall_seconds = t0.elapsed().as_secs_f64();
        MultiGpuOutput { sample, gpu_seconds, gpu_stats }
    }

    /// Convenience for single-seed instances.
    pub fn run_single_seeds<A: Algorithm>(
        &self,
        graph: &Csr,
        algo: &A,
        seeds: &[VertexId],
        opts: RunOptions,
    ) -> MultiGpuOutput {
        let sets: Vec<Vec<VertexId>> = seeds.iter().map(|&s| vec![s]).collect();
        self.run(graph, algo, &sets, opts)
    }

    /// Multi-GPU **out-of-memory** sampling (§V-D applied to the Fig. 8
    /// runtime): "each GPU will perform the same tasks as shown in
    /// Fig. 8" over its own disjoint instance group, with its own
    /// partition transfers — there is no inter-GPU communication, so
    /// end-to-end time is the slowest device's. Groups are offset by
    /// `opts.instance_base` exactly as in [`MultiGpu::run`].
    pub fn run_oom<A: Algorithm>(
        &self,
        graph: &Csr,
        algo: &A,
        seeds: &[VertexId],
        cfg: crate::OomConfig,
        opts: RunOptions,
    ) -> MultiGpuOomOutput {
        let t0 = std::time::Instant::now();
        let chunks = self.groups(seeds, opts.instance_base);
        let run_chunk = |(base, chunk): (u32, &[VertexId])| {
            crate::OomRunner::new(graph, algo, cfg)
                .with_device(self.device)
                .with_options(RunOptions { instance_base: base, ..opts.clone() })
                .run(chunk)
        };
        // One host task per simulated GPU (disjoint groups, no
        // communication); `host_parallel` also selects the serial
        // reference path here. Results are identical either way.
        let results: Vec<OomOutput> = if cfg.host_parallel {
            chunks.into_par_iter().map(run_chunk).collect()
        } else {
            chunks.into_iter().map(run_chunk).collect()
        };

        let mut sample = SampleOutput::empty();
        let mut gpu_seconds = Vec::with_capacity(self.num_gpus);
        let mut rounds = Vec::with_capacity(self.num_gpus);
        let mut transfers = 0u64;
        for out in results {
            gpu_seconds.push(out.sim_seconds);
            rounds.push(out.rounds);
            transfers += out.transfers;
            sample.extend(out.sample);
        }
        gpu_seconds.resize(self.num_gpus, 0.0);
        rounds.resize(self.num_gpus, 0);
        sample.wall_seconds = t0.elapsed().as_secs_f64();
        MultiGpuOomOutput { sample, gpu_seconds, rounds, transfers }
    }
}

/// Result of a multi-GPU out-of-memory run: the sample plus the
/// per-device cost model.
#[derive(Debug, Clone)]
pub struct MultiGpuOomOutput {
    /// The sample, concatenated in GPU-group order; `stats` is the sum of
    /// the devices' run totals.
    pub sample: SampleOutput,
    /// Per-GPU simulated end-to-end seconds (kernels + transfers).
    pub gpu_seconds: Vec<f64>,
    /// Per-GPU scheduling rounds executed (completion time is
    /// round-quantized: each round pays one transfer/kernel pipeline).
    pub rounds: Vec<usize>,
    /// Total partition transfers across devices (each device transfers
    /// its own copies — the aggregate PCIe traffic of the node).
    pub transfers: u64,
}

impl MultiGpuOomOutput {
    /// Straggler-device completion time.
    pub fn total_seconds(&self) -> f64 {
        self.gpu_seconds.iter().copied().fold(0.0, f64::max)
    }

    /// Scheduling rounds of the device that ran the most.
    pub fn max_rounds(&self) -> usize {
        self.rounds.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_core::algorithms::{BiasedNeighborSampling, BiasedRandomWalk};
    use csaw_graph::generators::{rmat, RmatParams};

    fn seeds(n: usize, modulo: u32) -> Vec<u32> {
        (0..n as u32).map(|i| (i * 37) % modulo).collect()
    }

    #[test]
    fn splitting_across_gpus_changes_nothing() {
        // RNG streams are keyed by *global* instance index (each group
        // runs with its `instance_base` offset), so a 6-way split samples
        // exactly the single-device run, instance for instance.
        let g = rmat(9, 4, RmatParams::GRAPH500, 1);
        let algo = BiasedRandomWalk { length: 8 };
        let s = seeds(60, 512);
        let single = MultiGpu::new(1).run_single_seeds(&g, &algo, &s, RunOptions::default());
        let six = MultiGpu::new(6).run_single_seeds(&g, &algo, &s, RunOptions::default());
        assert_eq!(single.sample.instances, six.sample.instances);
        // (60 instances undersaturate both setups, so no timing claim is
        // made here — see `small_batches_scale_worse_than_large`.)
        assert!(six.total_seconds() > 0.0);
    }

    #[test]
    fn more_gpus_never_slower() {
        let g = rmat(10, 6, RmatParams::GRAPH500, 2);
        let algo = BiasedNeighborSampling { neighbor_size: 2, depth: 2 };
        let s = seeds(512, 1024);
        let mut prev = f64::INFINITY;
        for n in 1..=6 {
            let out = MultiGpu::new(n).run_single_seeds(&g, &algo, &s, RunOptions::default());
            let t = out.total_seconds();
            // Under-saturated groups have stragglers (the wavefront
            // makespan surfaces the heaviest instance per group); allow
            // the resulting noise, forbid real regressions.
            assert!(t <= prev * 1.20, "{n} GPUs slower than {}: {t} vs {prev}", n - 1);
            prev = t;
        }
    }

    #[test]
    fn small_batches_scale_worse_than_large() {
        // Fig. 17: 2,000 instances fail to saturate 6 GPUs; 8,000 don't.
        // Scaled down: with a device of 640 warp slots, 600 instances
        // undersaturate 6 ways (100 each) while 6,000 saturate.
        let g = rmat(9, 4, RmatParams::GRAPH500, 3);
        let algo = BiasedRandomWalk { length: 4 };
        let speedup = |n_inst: usize| {
            let s = seeds(n_inst, 512);
            let t1 = MultiGpu::new(1)
                .run_single_seeds(&g, &algo, &s, RunOptions::default())
                .total_seconds();
            let t6 = MultiGpu::new(6)
                .run_single_seeds(&g, &algo, &s, RunOptions::default())
                .total_seconds();
            t1 / t6
        };
        let small = speedup(600);
        let large = speedup(6000);
        assert!(large > small, "8k-analog should scale better: {large} vs {small}");
        assert!(large > 3.0, "saturated scaling should approach linear: {large}");
    }

    #[test]
    fn outer_instance_base_offsets_every_group() {
        // A multi-GPU launch that is itself a tail segment of a larger
        // batch (the serving layer's coalesced launches) must draw the
        // segment's global RNG streams: running seeds[24..] with
        // `instance_base: 24` across 3 devices reproduces the full
        // single-device run's tail, instance for instance.
        let g = rmat(9, 4, RmatParams::GRAPH500, 7);
        let algo = BiasedRandomWalk { length: 8 };
        let s = seeds(60, 512);
        let full = MultiGpu::new(1).run_single_seeds(&g, &algo, &s, RunOptions::default());
        let tail = MultiGpu::new(3).run_single_seeds(
            &g,
            &algo,
            &s[24..],
            RunOptions { instance_base: 24, ..RunOptions::default() },
        );
        assert_eq!(tail.sample.instances, full.sample.instances[24..].to_vec());
        // Per-instance counters travel with the instances and their sum
        // matches the per-device aggregates.
        assert_eq!(tail.sample.instance_stats.len(), tail.sample.instances.len());
        let summed: SimStats = tail.sample.instance_stats.iter().copied().sum();
        assert_eq!(summed, tail.gpu_stats.iter().copied().sum());
        assert_eq!(summed.sampled_edges, tail.sample.sampled_edges());
    }

    #[test]
    fn empty_run() {
        let g = rmat(6, 2, RmatParams::MILD, 4);
        let algo = BiasedRandomWalk { length: 4 };
        let out = MultiGpu::new(3).run_single_seeds(&g, &algo, &[], RunOptions::default());
        assert_eq!(out.sample.sampled_edges(), 0);
        assert_eq!(out.gpu_seconds.len(), 3);
        assert_eq!(out.total_seconds(), 0.0);
    }

    #[test]
    fn multi_gpu_oom_preserves_sample_union_and_scales() {
        use crate::OomConfig;
        let g = rmat(10, 6, RmatParams::GRAPH500, 6);
        let algo = csaw_core::algorithms::UnbiasedNeighborSampling { neighbor_size: 2, depth: 3 };
        let s = seeds(96, 1024);
        let one = MultiGpu::new(1).run_oom(&g, &algo, &s, OomConfig::full(), RunOptions::default());
        let four =
            MultiGpu::new(4).run_oom(&g, &algo, &s, OomConfig::full(), RunOptions::default());
        // Global instance keying again: the 4-way out-of-memory split
        // samples exactly the single-device edges per instance (each
        // instance's edge set is canonical-sorted because rounds may
        // interleave partitions differently across splits).
        assert_eq!(one.sample.sorted_instances(), four.sample.sorted_instances());
        assert!(four.sample.sampled_edges() > 0);
        // Each device ships its own partition copies, so aggregate PCIe
        // traffic grows with the device count.
        assert!(four.transfers >= one.transfers);
        // §V-D's claim is *no communication*: each device runs the same
        // Fig. 8 pipeline independently, so its per-round cost (transfer +
        // kernel per scheduling round) must not exceed the single-device
        // per-round cost — a device with a quarter of the instances does
        // no more work per round over the same partition set. Raw
        // wall-clock is NOT compared directly because completion is
        // round-quantized: round count is set by how frontier chains hop
        // across partitions, which is instance-count-independent, so the
        // straggler device can legitimately need a few extra rounds.
        // Bound: per-round cost within 5% (kernel-time noise from smaller
        // batches; transfers per round are identical).
        let per_round_one = one.total_seconds() / one.max_rounds().max(1) as f64;
        let per_round_four = four.total_seconds() / four.max_rounds().max(1) as f64;
        assert!(
            per_round_four <= per_round_one * 1.05,
            "per-round cost regressed: {per_round_four} vs {per_round_one}"
        );
        // And round quantization itself stays bounded: the straggler's
        // round count cannot exceed the single device's by more than the
        // depth of the longest frontier chain (depth 3 here → at most 3
        // extra rounds of slack; generous 2x guard against pathology).
        assert!(
            four.max_rounds() <= one.max_rounds() * 2,
            "straggler rounds exploded: {} vs {}",
            four.max_rounds(),
            one.max_rounds()
        );
    }

    #[test]
    fn gpu_count_respected() {
        let g = rmat(6, 2, RmatParams::MILD, 5);
        let algo = BiasedRandomWalk { length: 2 };
        let out =
            MultiGpu::new(4).run_single_seeds(&g, &algo, &seeds(10, 64), RunOptions::default());
        assert_eq!(out.gpu_seconds.len(), 4);
    }
}
