#![warn(missing_docs)]

//! # csaw-oom
//!
//! Out-of-memory and multi-GPU C-SAW (paper §V).
//!
//! Graph sampling "lifts important obstacles for out-of-memory
//! computation: it needs neither the entire graph nor synchronization
//! during computation". This crate exploits that:
//!
//! - [`scheduler::OomRunner`]: the partition-based runtime — contiguous
//!   vertex-range partitions ([`csaw_graph::partition`]), per-partition
//!   frontier queues, async partition transfers overlapped with sampling
//!   kernels on streams, with the paper's three optimizations as
//!   independent switches ([`config::OomConfig`]):
//!   - **batched multi-instance sampling** (§V-C): one shared queue per
//!     partition across all instances;
//!   - **workload-aware partition scheduling** (§V-B): transfer the
//!     partitions with the most active vertices first and drain a resident
//!     partition until its queue is empty before releasing it;
//!   - **thread-block based workload balancing** (§V-B): grant each
//!     concurrent kernel thread blocks proportional to its workload.
//! - [`frontier`], [`memory`], [`transfer`]: the per-partition frontier
//!   queues (§V-C), device-residency accounting, and the async H2D copy
//!   model (streams, `cudaMemcpyAsync` analog) the scheduler runs on.
//! - [`pooled`]: out-of-memory execution for pool-frontier algorithms
//!   (layer sampling, multi-dimensional random walk) — the per-instance
//!   depth loop over the shared [`csaw_core::step::StepKernel`] against
//!   demand-resident partitions, sampling exactly what the in-memory
//!   engine samples.
//! - [`multigpu::MultiGpu`]: the §V-D driver — instances split into equal
//!   disjoint groups, one simulated device per group, no inter-GPU
//!   communication; per-group `instance_base` offsets keep RNG streams
//!   global, so a split run equals the single-device run bit for bit.
//!
//! Every runtime here models: its [`csaw_gpu::config::DeviceConfig`]
//! (`with_device` on the runners, [`multigpu::MultiGpu::device`]) feeds
//! only the cost model. Host work fans out through [`csaw_gpu::launch`]
//! (one task per stream per round) and one rayon task per simulated GPU;
//! the rayon pool's thread count is the only host switch, and no output
//! depends on it.
//!
//! The demand-paged unified-memory comparator §VII argues against
//! (ablation A4) lives in `csaw-baselines`.

//! ## Example
//!
//! ```
//! use csaw_oom::{OomConfig, OomRunner};
//! use csaw_core::algorithms::UnbiasedNeighborSampling;
//! use csaw_gpu::config::DeviceConfig;
//!
//! let g = csaw_graph::generators::toy_graph();
//! let algo = UnbiasedNeighborSampling { neighbor_size: 2, depth: 2 };
//! let out = OomRunner::new(&g, &algo, OomConfig::full())
//!     .with_device(DeviceConfig::tiny(1 << 10)) // tiny device: forces paging
//!     .run(&[0, 8]);
//! assert!(out.transfers > 0);
//! assert!(out.sample.sampled_edges() > 0);
//! ```

pub mod config;
pub mod frontier;
pub mod memory;
pub mod multigpu;
pub mod pooled;
pub mod scheduler;
pub mod timeline;
pub mod transfer;

pub use config::OomConfig;
pub use multigpu::{MultiGpu, MultiGpuOomOutput};
pub use scheduler::{OomOutput, OomRunner};
