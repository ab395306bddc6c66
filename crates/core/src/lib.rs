#![warn(missing_docs)]

//! # csaw-core
//!
//! The C-SAW framework (paper §III–IV): a bias-centric programming model
//! for graph sampling and random walk, plus the warp-centric selection
//! machinery that makes it fast on a (simulated) GPU.
//!
//! ## Programming model
//!
//! Users express an algorithm with three hooks (paper Fig. 2a) on the
//! [`api::Algorithm`] trait — [`api::Algorithm::vertex_bias`],
//! [`api::Algorithm::edge_bias`], [`api::Algorithm::update`] — plus the
//! structural parameters in [`api::AlgoConfig`] (`FrontierSize`,
//! `NeighborSize`, depth). The engine's MAIN loop (Fig. 2b) is
//! [`engine::Sampler::run`]; its per-entry expand pipeline is the
//! runtime-agnostic [`step::StepKernel`], shared verbatim by the
//! out-of-memory and multi-GPU runtimes in `csaw-oom` and the
//! unified-memory comparator in `csaw-baselines`.
//!
//! ## Selection machinery
//!
//! - [`ctps`]: Cumulative Transition Probability Space built with a
//!   warp-level Kogge-Stone scan (§II-B, Fig. 1b).
//! - [`select`]: the SELECT function (Fig. 5) with three collision
//!   strategies — repeated sampling, updated sampling, and the paper's
//!   **bipartite region search** (§IV-B).
//! - [`bipartite`]: the Theorem 2 random-number transformation.
//! - [`collision`]: collision detectors — shared-memory linear search
//!   (the Fig. 12 baseline), contiguous bitmap, and the paper's **strided
//!   bitmap**, with 8-bit or 32-bit words (§IV-B).
//! - [`method`]: bounded rejection, the one alternative to ITS, for
//!   dynamic biases under [`MethodPolicy::Adaptive`].
//!
//! All thirteen Table-I algorithms ship in [`algorithms`]. What only
//! the baselines and the paper's ablations call lives in
//! `csaw-baselines`: the §II-A one-pass samplers, the weighted reservoir
//! and lane-level SIMT selectors, the full dartboard board, the alias
//! method, the eager all-vertices CTPS cache, the unified-memory
//! comparator and the per-depth frontier profiler.

pub mod algorithms;
pub mod api;
pub mod batch;
pub mod bipartite;
pub mod collision;
pub mod ctps;
pub mod ctps_cache;
pub mod engine;
pub mod estimators;
pub mod method;
pub mod output;
pub mod residency;
pub mod select;
pub mod step;

pub use algorithms::registry::{AlgoSpec, AlgorithmId, RegistryError};
pub use api::{AlgoConfig, Algorithm, EdgeCand, FrontierMode, NeighborSize, UpdateAction};
pub use engine::{ExecMode, RunError, RunOptions, Sampler};
pub use method::MethodPolicy;
pub use output::SampleOutput;
pub use residency::{DiskAccess, DiskRunConfig, DiskTierStats, ResidencyHierarchy};
pub use select::{CollisionDetectorKind, SelectStrategy};
pub use step::{FrontierSink, LayeredAccess, NeighborAccess, PoolSlot, StepEntry, StepKernel};
