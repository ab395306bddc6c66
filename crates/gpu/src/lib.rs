#![warn(missing_docs)]

//! # csaw-gpu
//!
//! Simulated SIMT substrate for the C-SAW reproduction.
//!
//! The paper's artifact is CUDA running on V100s; this environment has no
//! GPU, so this crate provides the closest synthetic equivalent that
//! exercises the same code paths (see DESIGN.md, "Hardware substitution"):
//!
//! - [`warp`]: warp-level lockstep primitives — Kogge-Stone inclusive scan,
//!   ballot, shuffle, reductions — over 32-lane warps, with step accounting.
//! - [`simt`]: a lockstep warp *executor* with active-mask divergence
//!   tracking, for measuring the SIMT cost of per-lane retry loops.
//! - [`rng::Philox`]: the counter-based Philox4x32-10 generator (the same
//!   family cuRAND uses), keyed per (seed, instance, depth, lane) so results
//!   are deterministic under any host scheduling.
//! - [`lockstep::lockstep_test_and_set`]: models one lockstep round of atomic
//!   compare-and-swap operations from the 32 lanes of a warp, counting
//!   serialization conflicts on shared words — the effect the strided
//!   bitmap optimization targets.
//! - [`memory::DeviceMemory`]: device-residency accounting that drives the
//!   out-of-memory runtime.
//! - [`transfer::TransferEngine`]: an async H2D copy model (streams,
//!   `cudaMemcpyAsync` analog) over a simulated timeline.
//! - [`cost`]: converts counted work into simulated kernel seconds for a
//!   V100-like device and a POWER9-like CPU (for the baselines).
//! - [`device::Device`]: a rayon-backed executor that runs warp tasks in
//!   parallel and merges their [`stats::SimStats`].
//! - [`stats::Ledger`]: where a kernel charges its work — every counter
//!   ([`stats::SimStats`]), or only the operational ones, with the cost
//!   model compiled away ([`stats::ServeLedger`]).

pub mod alloc_count;
pub mod config;
pub mod cost;
pub mod device;
pub mod lockstep;
pub mod memory;
pub mod rng;
pub mod simt;
pub mod stats;
pub mod transfer;
pub mod warp;

pub use config::{CpuConfig, DeviceConfig};
pub use device::Device;
pub use rng::{task_key, Philox};
pub use stats::{Ledger, ServeLedger, SimStats};
pub use warp::WARP_SIZE;
