#![warn(missing_docs)]

//! # csaw-baselines
//!
//! CPU comparators for the Fig. 9 head-to-head:
//!
//! - [`knightking`]: a walker-centric random-walk engine in the style of
//!   KnightKing (SOSP'19) — per-vertex **alias tables** precomputed for
//!   static biases, dartboard rejection for dynamic biases, walkers
//!   advanced in bulk over a thread pool.
//! - [`graphsaint`]: a multi-threaded **multi-dimensional random walk**
//!   sampler in the style of GraphSAINT's C++ sampler, with a Fenwick
//!   tree for degree-proportional frontier-pool selection.
//!
//! Both engines run for real (the samples are genuine) and additionally
//! count their logical work ([`csaw_gpu::cost::CpuWork`]) so a
//! POWER9-like cost model can price them on the paper's hardware — the
//! same convention the simulated GPU uses.
//!
//! The comparators on the simulated GPU live here too, because only
//! KnightKing and the paper's ablations call them:
//!
//! - [`alias`]: Walker's alias method (KnightKing's static-bias tables
//!   and the A3 ablation);
//! - [`dartboard`]: the full rejection board of §II-B (KnightKing's
//!   dynamic-bias path and the A3 ablation);
//! - [`fenwick`]: the O(log n) incremental weighted-sampling index
//!   (GraphSAINT's frontier-pool selection);
//! - [`precompute`]: the eager all-vertices CTPS cache (the A7
//!   ablation, §VII's "probability pre-computation");
//! - [`reservoir`]: collision-free weighted reservoir selection (the A5
//!   ablation against SELECT);
//! - [`select_simt`]: SELECT run lane by lane in lockstep, measuring warp
//!   divergence (the A9 ablation), on the [`simt`] lockstep warp
//!   executor;
//! - [`unified`]: the demand-paged unified-memory comparator §VII argues
//!   against (the A4 ablation);
//! - [`profile`]: the per-depth frontier profile behind §VI-C's
//!   exponential-growth claim, on the comparator's loop;
//! - [`onepass`]: the §II-A one-pass samplers (random node, random edge,
//!   TIES), compared in the sample-quality table.

//! ## Example
//!
//! ```
//! use csaw_baselines::knightking::{KnightKing, WalkBias};
//! use csaw_gpu::config::CpuConfig;
//!
//! let g = csaw_graph::generators::toy_graph();
//! let engine = KnightKing::new(&g, WalkBias::Degree);
//! let out = engine.run(&[8, 0], 16, 1);
//! assert_eq!(out.instances.len(), 2);
//! let seps = out.seps(&CpuConfig::power9());
//! assert!(seps > 0.0);
//! ```

pub mod alias;
pub mod dartboard;
pub mod fenwick;
pub mod graphsaint;
pub mod knightking;
pub mod onepass;
pub mod precompute;
pub mod profile;
pub mod reservoir;
pub mod select_simt;
pub mod simt;
pub mod unified;

pub use graphsaint::GraphSaintMdrw;
pub use knightking::KnightKing;

use csaw_gpu::config::CpuConfig;
use csaw_gpu::cost::{cpu_seconds_work, CpuWork};
use csaw_graph::VertexId;

/// Result of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineOutput {
    /// Sampled edges per instance.
    pub instances: Vec<Vec<(VertexId, VertexId)>>,
    /// Counted logical work (excludes preprocessing, matching the paper's
    /// kernel-time-only SEPS).
    pub work: CpuWork,
    /// Preprocessing work (alias-table construction etc.), reported
    /// separately.
    pub preprocess: CpuWork,
}

impl BaselineOutput {
    /// Total sampled edges.
    pub fn sampled_edges(&self) -> u64 {
        self.instances.iter().map(|i| i.len() as u64).sum()
    }

    /// Modeled runtime on `cfg` (sampling phase only).
    pub fn cpu_seconds(&self, cfg: &CpuConfig) -> f64 {
        cpu_seconds_work(&self.work, cfg)
    }

    /// Sampled edges per second under the CPU model.
    pub fn seps(&self, cfg: &CpuConfig) -> f64 {
        let t = self.cpu_seconds(cfg);
        if t <= 0.0 {
            0.0
        } else {
            self.sampled_edges() as f64 / t
        }
    }
}
