//! Pluggable batch executors: which C-SAW runtime serves a coalesced
//! launch.
//!
//! The batcher hands every executor the same thing — a seed-set list
//! whose instance `i` must draw RNG streams keyed by
//! `opts.instance_base + i` — and gets back a [`BatchOutput`] whose
//! `sample.instance_stats` lines up one-to-one with the seed sets, so
//! the service can slice per-request responses out of it. All three
//! runtimes honor the same keying, so the choice of executor changes
//! cost modeling and transfer accounting but never the sampled edges.

use csaw_core::api::{Algorithm, FrontierMode};
use csaw_core::engine::{RunOptions, Sampler};
use csaw_core::SampleOutput;
use csaw_gpu::config::DeviceConfig;
use csaw_graph::{Csr, VertexId};
use csaw_oom::{MultiGpu, OomConfig, OomRunner};

/// What one coalesced launch produced.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// Per-instance results, aligned with the submitted seed sets;
    /// `sample.stats` is the whole-launch total even where per-instance
    /// attribution is partial (the out-of-memory runtime).
    pub sample: SampleOutput,
    /// Host→device partition transfers (out-of-memory runtime only).
    pub transfers: u64,
    /// Bytes shipped host→device (out-of-memory runtime only).
    pub bytes_transferred: u64,
}

/// A runtime that can serve one coalesced multi-instance launch.
pub trait BatchExecutor: Send + Sync {
    /// Human-readable runtime name (surfaces in logs/benchmarks).
    fn name(&self) -> &'static str;

    /// Runs `seed_sets` (instance `i` seeded by `seed_sets[i]`) under
    /// `opts`. Must key instance `i`'s RNG streams by
    /// `opts.instance_base + i` so a batched run is bit-identical to
    /// solo runs of its slices.
    fn execute(
        &self,
        graph: &Csr,
        algo: &dyn Algorithm,
        seed_sets: &[Vec<VertexId>],
        opts: RunOptions,
    ) -> BatchOutput;
}

/// The in-memory engine (`csaw_core::engine::Sampler`) — the default.
#[derive(Debug, Clone, Default)]
pub struct EngineExecutor;

impl BatchExecutor for EngineExecutor {
    fn name(&self) -> &'static str {
        "engine"
    }

    fn execute(
        &self,
        graph: &Csr,
        algo: &dyn Algorithm,
        seed_sets: &[Vec<VertexId>],
        opts: RunOptions,
    ) -> BatchOutput {
        let sample = Sampler::new(graph, &algo).with_options(opts).run(seed_sets);
        BatchOutput { sample, transfers: 0, bytes_transferred: 0 }
    }
}

/// The §V-D multi-GPU driver: the launch is split into disjoint
/// per-device instance groups. Grouping is invisible to callers — the
/// driver offsets every group by the launch's `instance_base`.
#[derive(Debug, Clone)]
pub struct MultiGpuExecutor {
    /// Device pool configuration.
    pub multi: MultiGpu,
}

impl MultiGpuExecutor {
    /// `n` simulated V100s.
    pub fn new(num_gpus: usize) -> MultiGpuExecutor {
        MultiGpuExecutor { multi: MultiGpu::new(num_gpus) }
    }
}

impl BatchExecutor for MultiGpuExecutor {
    fn name(&self) -> &'static str {
        "multi-gpu"
    }

    fn execute(
        &self,
        graph: &Csr,
        algo: &dyn Algorithm,
        seed_sets: &[Vec<VertexId>],
        opts: RunOptions,
    ) -> BatchOutput {
        let sample = self.multi.run(graph, &algo, seed_sets, opts).sample;
        BatchOutput { sample, transfers: 0, bytes_transferred: 0 }
    }
}

/// The §V-A out-of-memory scheduler. Its streams interleave instances,
/// so per-instance attribution covers `sampled_edges` only; the full
/// totals ride in the sample's `stats` and the transfer traffic in the
/// transfer fields.
#[derive(Debug, Clone)]
pub struct OomExecutor {
    /// Scheduler configuration (partitions, kernels, policies).
    pub cfg: OomConfig,
    /// Simulated device.
    pub device: DeviceConfig,
}

impl OomExecutor {
    /// The paper's full §V configuration on a V100.
    pub fn new(cfg: OomConfig) -> OomExecutor {
        OomExecutor { cfg, device: DeviceConfig::v100() }
    }
}

impl BatchExecutor for OomExecutor {
    fn name(&self) -> &'static str {
        "oom"
    }

    fn execute(
        &self,
        graph: &Csr,
        algo: &dyn Algorithm,
        seed_sets: &[Vec<VertexId>],
        opts: RunOptions,
    ) -> BatchOutput {
        // The service hands over a snapshot's base as `graph`, so the
        // partitions the runner builds match the overlay's base.
        let runner =
            OomRunner::new(graph, &algo, self.cfg).with_device(self.device).with_options(opts);
        let out = if algo.config().frontier == FrontierMode::IndependentPerVertex {
            // The service shapes one single-seed instance per vertex for
            // per-vertex-frontier algorithms; the scheduler's plain entry
            // point takes exactly that.
            let seeds: Vec<VertexId> = seed_sets
                .iter()
                .map(|s| {
                    assert_eq!(s.len(), 1, "per-vertex frontiers take one seed per instance");
                    s[0]
                })
                .collect();
            runner.run(&seeds)
        } else {
            runner.run_pools(seed_sets)
        };
        BatchOutput {
            sample: out.sample,
            transfers: out.transfers,
            bytes_transferred: out.bytes_transferred,
        }
    }
}
