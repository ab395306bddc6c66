#![warn(missing_docs)]

//! # csaw-graph
//!
//! Graph storage and tooling substrate for the C-SAW reproduction.
//!
//! C-SAW (SC'20) samples graphs stored in Compressed Sparse Row (CSR) form.
//! This crate provides:
//!
//! - [`Csr`]: the CSR structure used by every other crate, with optional
//!   per-edge weights (biased sampling needs them).
//! - [`builder::CsrBuilder`]: edge-list ingestion (dedup, sort, symmetrize).
//! - [`generators`]: synthetic graph generators (R-MAT, Erdős–Rényi,
//!   Barabási–Albert, k-regular rings) plus the paper's Fig. 1 toy graph.
//! - [`datasets`]: a registry mirroring Table II of the paper with scaled
//!   synthetic stand-ins for the SNAP/KONECT graphs.
//! - [`dynamic`]: [`MutableGraph`], a delta overlay over the CSR with
//!   epoch-versioned [`GraphSnapshot`]s for sampling under mutation.
//! - [`view`]: [`GraphView`], the uniform read surface over a plain CSR
//!   or a snapshot (base + overlay) that algorithm hooks consume.
//! - [`partition`]: the contiguous vertex-range partitioner of §V-A.
//! - [`io`]: edge-list and binary CSR readers/writers for real data.
//! - [`store`]: the on-disk partitioned CSR store (mmap-backed segments
//!   with fixed-width delta neighbor records) behind the disk tier.
//! - [`quality`]: sample-quality metrics (degree KS, clustering,
//!   effective diameter) from the sampling literature.
//! - [`stats`]: degree statistics used in the evaluation write-up.

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod dynamic;
pub mod generators;
pub mod io;
pub mod partition;
pub mod quality;
pub mod reorder;
pub mod stats;
pub mod store;
pub mod traversal;
pub mod types;
pub mod view;

pub use builder::CsrBuilder;
pub use csr::Csr;
pub use datasets::{Dataset, DatasetSpec};
pub use dynamic::{EdgeEdit, EditError, GraphSnapshot, MutableGraph};
pub use partition::{Partition, PartitionSet};
pub use store::{DiskStore, StoreError};
pub use types::{EdgeId, VertexId, Weight};
pub use view::{GraphView, PagedAdjacency};
