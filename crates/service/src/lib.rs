#![warn(missing_docs)]

//! # csaw-service
//!
//! Sampling **as a service**: a thread-based micro-batching front end
//! over the C-SAW engine that operationalizes the paper's batched
//! multi-instance sampling (§V-C). Production walk services (GNN
//! feature stores, DeepWalk corpus generators) receive many small
//! independent requests; launching one GPU kernel per request wastes
//! the device, while §V-C shows batching instances into one launch
//! amortizes kernel launch overhead and fills warp slots. The catch is
//! that coalescing must be *invisible*: each caller must get exactly
//! the edges a solo run would have produced.
//!
//! C-SAW's determinism contract makes that possible. Every runtime
//! keys its RNG streams by `task_key(instance_base + i, depth, vertex,
//! trial)`, so a request assigned the contiguous instance range
//! `[base, base + n)` inside a coalesced launch draws exactly the
//! streams a solo run with `RunOptions { instance_base: base, .. }`
//! draws. The service assigns those ranges at admission (one counter
//! per batch key), slices the coalesced [`csaw_core::SampleOutput`]
//! back into per-request responses, and reports the assigned base so
//! any client can reproduce its sample offline.
//!
//! The moving parts:
//!
//! - [`api`]: [`SamplingRequest`] / [`SamplingResponse`] and the typed
//!   rejection surface ([`ServiceError`]).
//! - [`service`]: the bounded admission queue, the micro-batcher
//!   (close a batch on `max_batch_instances` or `batch_window`),
//!   deadline enforcement at dequeue *and* completion, panic isolation
//!   per batch, and drain-on-shutdown.
//! - [`executor`]: the in-memory engine that runs a coalesced launch,
//!   behind the trait the fault tests use to inject stalls and panics.
//! - [`stats`]: lock-free counters; every submitted request is
//!   accounted exactly once.

pub mod api;
pub mod executor;
pub mod service;
pub mod stats;

pub use api::{
    MutationRequest, MutationResponse, RequestAlgo, RequestError, RequestStats, SamplingRequest,
    SamplingResponse, ServiceError,
};
pub use executor::{BatchExecutor, EngineExecutor};
pub use service::{SamplingService, ServiceConfig, Ticket};
pub use stats::{ServiceStats, StatsSnapshot};
