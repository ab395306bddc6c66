//! The batch executor: what serves a coalesced launch.
//!
//! The batcher hands the executor a seed-set list whose instance `i`
//! must draw RNG streams keyed by `opts.instance_base + i`, and gets
//! back a [`SampleOutput`] whose `instance_stats` lines up one-to-one
//! with the seed sets, so the service can slice per-request responses
//! out of it. The service runs the in-memory engine ([`EngineExecutor`]);
//! the trait is the seam through which tests inject stalls and panics.

use csaw_core::api::Algorithm;
use csaw_core::engine::{RunOptions, Sampler};
use csaw_core::SampleOutput;
use csaw_graph::{Csr, VertexId};

/// A runtime that can serve one coalesced multi-instance launch.
pub trait BatchExecutor: Send + Sync {
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
    ) -> SampleOutput;
}

/// The in-memory engine (`csaw_core::engine::Sampler`).
#[derive(Debug, Clone, Default)]
pub struct EngineExecutor;

impl BatchExecutor for EngineExecutor {
    fn execute(
        &self,
        graph: &Csr,
        algo: &dyn Algorithm,
        seed_sets: &[Vec<VertexId>],
        opts: RunOptions,
    ) -> SampleOutput {
        Sampler::new(graph, &algo).with_options(opts).run(seed_sets)
    }
}
