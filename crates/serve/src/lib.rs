#![warn(missing_docs)]

//! # csaw-serve
//!
//! A multi-tenant **wire-protocol front end** for the sampling service:
//! the piece that turns `csaw-service`'s in-process micro-batcher into
//! something a GNN feature store or DeepWalk corpus generator can call
//! over the network — without surrendering the paper's determinism
//! contract at the socket.
//!
//! Three planes, three modules:
//!
//! - [`wire`]: a length-prefixed binary protocol over TCP (std
//!   networking only — no async runtime). Versioned handshake, typed
//!   request/response frames for sampling, mutation/compaction, and
//!   stats, and **chunked streaming responses** so a client's
//!   first-walk latency is set by the first chunk's micro-batch, not
//!   the whole request. Streaming preserves bit-identical output:
//!   chunks are admitted atomically via
//!   [`csaw_service::SamplingService::submit_group`], so their
//!   contiguous `instance_base` ranges key exactly the RNG streams the
//!   unsplit request would have drawn.
//! - [`tenant`]: admission and scheduling. Per-tenant token buckets
//!   (request rate + byte budget) shed excess offered load at the
//!   socket boundary; start-time fair queuing arbitrates what survives,
//!   so dispatch capacity divides by configured weights under
//!   contention and per-tenant backpressure (`TenantQuota`,
//!   `TenantQueueFull`) travels back over the wire with `retry_after`
//!   hints.
//! - [`metrics`] + [`notify`]: the observability plane. One renderer
//!   produces Prometheus text for both the `GET /metrics` HTTP side
//!   listener and the wire `Stats` frame — service conservation ledger,
//!   cache gauges, method counters, per-tenant queue/latency
//!   histograms — and a pub-sub hub pushes walk-finished events to
//!   subscribed connections.
//!
//! [`server`] assembles the planes into [`CsawServer`]; [`client`] is
//! the matching blocking [`Client`].

pub mod client;
pub mod metrics;
pub mod notify;
pub mod server;
pub mod tenant;
pub mod wire;

pub use client::{Client, ClientError, EventStream, StreamedResponse};
pub use metrics::{parse_value, render, ServeMetrics};
pub use notify::Notifier;
pub use server::{CsawServer, ServeConfig};
pub use tenant::{
    AdmitError, FairScheduler, SchedulerConfig, TenantCounts, TenantQuota, TenantSnapshot,
    WaitHistogram,
};
pub use wire::{
    read_frame, read_frame_limited, write_frame, ChunkFrame, ErrorCode, ErrorFrame, EventFrame,
    EventKind, Frame, RecvError, ResponseFrame, SampleFrame, StreamEndFrame, WireAlgo, WireError,
    MAGIC, MAX_FRAME_LEN, WIRE_VERSION,
};
