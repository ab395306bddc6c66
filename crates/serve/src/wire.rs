//! The wire codec: length-prefixed binary frames over a byte stream.
//!
//! Every frame is `u32 length (LE) | u8 frame type | payload`; the
//! length counts the type byte plus the payload. All integers are
//! little-endian, floats travel as their IEEE-754 bit patterns, strings
//! and vectors are a `u32` count followed by their elements. Optional
//! fields are a `u8` presence flag followed by the value when present.
//!
//! **Versioning rules.** The first frame on a connection is
//! [`Frame::Hello`] carrying [`MAGIC`] and the client's
//! [`WIRE_VERSION`]; the server answers [`Frame::HelloAck`] with its
//! own version or an [`ErrorCode::VersionMismatch`] error frame and
//! closes. Within a major version, *new frame types and new error
//! codes may be added* but existing payload layouts never change — a
//! decoder that sees an unknown frame type returns the typed
//! [`WireError::UnknownFrameType`] rather than guessing.
//!
//! The decoder never panics on hostile input: truncated payloads,
//! trailing bytes, oversized counts, bad UTF-8, and out-of-range tags
//! all come back as a typed [`WireError`] (property-tested in
//! `tests/serve.rs`).

use csaw_graph::EdgeEdit;
use std::io::{Read, Write};
use std::time::Duration;

/// `"CSAW"` — the handshake magic carried by [`Frame::Hello`].
pub const MAGIC: u32 = 0x4353_4157;

/// Protocol version spoken by this build.
pub const WIRE_VERSION: u16 = 1;

/// Hard ceiling on a frame's encoded length (type byte + payload); the
/// reader rejects longer frames before allocating. 64 MiB comfortably
/// holds a response of a million 8-byte edges.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Ceiling on an encoded string (tenant labels, error messages).
const MAX_STRING_LEN: u32 = 1 << 16;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// Bytes remained after the frame's last field.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The frame type byte names no known frame.
    UnknownFrameType(u8),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The rejected length.
        len: u32,
    },
    /// A declared length of zero: frames always carry a type byte.
    EmptyFrame,
    /// [`Frame::Hello`] carried the wrong magic (not a csaw-serve peer).
    BadMagic(u32),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A string exceeded the 64 KiB per-field bound.
    StringTooLong(u32),
    /// An enum tag (edit kind, event kind, error code) was out of range.
    BadTag {
        /// Which field carried the bad tag.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes after frame"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds {MAX_FRAME_LEN}")
            }
            WireError::EmptyFrame => write!(f, "zero-length frame"),
            WireError::BadMagic(m) => write!(f, "bad handshake magic {m:#010x}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::StringTooLong(n) => write!(f, "string of {n} bytes exceeds field bound"),
            WireError::BadTag { field, value } => write!(f, "bad {field} tag {value}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Receiving can fail at the transport or at the codec.
#[derive(Debug)]
pub enum RecvError {
    /// The underlying stream failed (includes clean EOF between frames
    /// as `UnexpectedEof`).
    Io(std::io::Error),
    /// The bytes arrived but did not decode.
    Wire(WireError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "io: {e}"),
            RecvError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

impl From<std::io::Error> for RecvError {
    fn from(e: std::io::Error) -> RecvError {
        RecvError::Io(e)
    }
}

impl From<WireError> for RecvError {
    fn from(e: WireError) -> RecvError {
        RecvError::Wire(e)
    }
}

/// Typed failure carried by [`Frame::Error`]. Codes are stable wire
/// values: new codes may be added, existing codes never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The request was malformed (unknown algorithm, bad seeds, ...).
    Invalid = 1,
    /// The service's bounded queue shed the request; retry after the
    /// hinted backoff.
    QueueFull = 2,
    /// The deadline passed before a result could be delivered.
    Expired = 3,
    /// The batch serving this request panicked (other batches are fine).
    BatchFailed = 4,
    /// The server is shutting down.
    ShuttingDown = 5,
    /// The tenant's token bucket (request or byte quota) is exhausted.
    TenantQuota = 6,
    /// The tenant's fair-share queue is full (per-tenant backpressure).
    TenantQueueFull = 7,
    /// Handshake version/magic mismatch.
    VersionMismatch = 8,
    /// The peer sent a frame the server cannot act on in this state.
    BadFrame = 9,
    /// Mutation: an endpoint is out of range.
    EditVertexOutOfRange = 10,
    /// Mutation: delete/reweight named a missing edge.
    EditEdgeNotFound = 11,
    /// Mutation: weighted edit on an unweighted graph.
    EditWeightOnUnweighted = 12,
    /// Mutation: weight not finite and positive.
    EditBadWeight = 13,
    /// Mutation: the graph is served from an immutable backing store.
    EditImmutableStore = 14,
}

impl ErrorCode {
    /// Decodes a wire value.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            1 => Invalid,
            2 => QueueFull,
            3 => Expired,
            4 => BatchFailed,
            5 => ShuttingDown,
            6 => TenantQuota,
            7 => TenantQueueFull,
            8 => VersionMismatch,
            9 => BadFrame,
            10 => EditVertexOutOfRange,
            11 => EditEdgeNotFound,
            12 => EditWeightOnUnweighted,
            13 => EditBadWeight,
            14 => EditImmutableStore,
            _ => return None,
        })
    }
}

/// An algorithm reference as it travels on the wire: registry name plus
/// optional parameter overrides — exactly the surface of
/// [`csaw_core::AlgoSpec`], resolved and validated server-side.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAlgo {
    /// Registry name (`"biased-walk"`, `"node2vec"`, ...).
    pub name: String,
    /// Depth / walk length override.
    pub depth: Option<u32>,
    /// NeighborSize override.
    pub neighbor_size: Option<u32>,
    /// Forest-fire burn probability.
    pub pf: Option<f64>,
    /// node2vec return parameter.
    pub p: Option<f64>,
    /// node2vec in-out parameter.
    pub q: Option<f64>,
    /// Jump probability.
    pub p_jump: Option<f64>,
    /// Restart probability.
    pub p_restart: Option<f64>,
}

impl WireAlgo {
    /// A reference by name with every parameter at its default.
    pub fn by_name(name: impl Into<String>) -> WireAlgo {
        WireAlgo {
            name: name.into(),
            depth: None,
            neighbor_size: None,
            pf: None,
            p: None,
            q: None,
            p_jump: None,
            p_restart: None,
        }
    }

    /// Overrides the depth / walk length.
    pub fn with_depth(mut self, depth: u32) -> WireAlgo {
        self.depth = Some(depth);
        self
    }
}

/// One sampling request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleFrame {
    /// Client-chosen correlation id, echoed on every reply frame.
    pub id: u64,
    /// What to run.
    pub algo: WireAlgo,
    /// Seed vertices (one instance per seed; MDRW pools them).
    pub seeds: Vec<u32>,
    /// RNG seed (batch-key component).
    pub rng_seed: u64,
    /// Deadline in microseconds from admission (absent = none).
    pub deadline_us: Option<u64>,
    /// `0` requests one [`Frame::Response`]; `n > 0` requests streaming:
    /// the seeds are split into sub-requests of at most `n` seeds,
    /// admitted atomically with contiguous instance ranges, and each
    /// completed chunk arrives as a [`Frame::Chunk`] as soon as *its*
    /// batch finishes — first-walk latency decouples from batch
    /// completion. A [`Frame::StreamEnd`] closes the stream.
    pub stream_chunk: u32,
}

/// One complete (non-streamed) response.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// Echoed request id.
    pub id: u64,
    /// Global instance range start assigned at admission — a solo
    /// engine run at this base reproduces `instances` bit for bit.
    pub instance_base: u32,
    /// Requests coalesced into the launch that served this one.
    pub batch_requests: u64,
    /// Total sampling instances in that launch.
    pub batch_instances: u64,
    /// Queue wait in microseconds (admission → dequeue).
    pub queue_wait_us: u64,
    /// Edges sampled for this request.
    pub sampled_edges: u64,
    /// Per-instance sampled edges, in instance order.
    pub instances: Vec<Vec<(u32, u32)>>,
}

/// One chunk of a streamed response.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkFrame {
    /// Echoed request id.
    pub id: u64,
    /// Chunk sequence number, from 0.
    pub seq: u32,
    /// Instance base of *this chunk* (the whole stream's base plus the
    /// instances already streamed).
    pub chunk_base: u32,
    /// This chunk's instances.
    pub instances: Vec<Vec<(u32, u32)>>,
}

/// End of a streamed response.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEndFrame {
    /// Echoed request id.
    pub id: u64,
    /// How many [`Frame::Chunk`]s were sent.
    pub chunks: u32,
    /// Instance base of the whole stream (chunk 0's base).
    pub instance_base: u32,
    /// Total edges across every chunk.
    pub sampled_edges: u64,
}

/// What a completion event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The request completed with a response.
    Completed,
    /// The request expired before delivery.
    Expired,
    /// The request's batch failed (panic isolation).
    Failed,
}

/// A walk-finished notification pushed to subscribers.
#[derive(Debug, Clone, PartialEq)]
pub struct EventFrame {
    /// Server-side request id (the service's admission-order id, or the
    /// wire id for requests that never reached admission).
    pub request_id: u64,
    /// Which tenant's request finished.
    pub tenant: String,
    /// Terminal state.
    pub kind: EventKind,
    /// Edges sampled (0 unless `Completed`).
    pub sampled_edges: u64,
    /// Instances in the response (0 unless `Completed`).
    pub instances: u32,
}

/// A typed failure reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// Echoed request id (0 for connection-level errors).
    pub id: u64,
    /// What failed.
    pub code: ErrorCode,
    /// Suggested client backoff in microseconds (0 = no hint). Carried
    /// by `QueueFull`, `TenantQuota`, and `TenantQueueFull`.
    pub retry_after_us: u64,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorFrame {
    /// The backoff hint as a [`Duration`], if any.
    pub fn retry_after(&self) -> Option<Duration> {
        (self.retry_after_us > 0).then(|| Duration::from_micros(self.retry_after_us))
    }
}

/// Every frame the protocol speaks.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server, first frame: magic + version + tenant label.
    Hello {
        /// Client protocol version.
        version: u16,
        /// Tenant this connection belongs to (quota + fair-share key).
        tenant: String,
    },
    /// Server → client handshake acceptance.
    HelloAck {
        /// Server protocol version.
        version: u16,
    },
    /// Sampling request.
    Sample(SampleFrame),
    /// Complete response to a non-streamed [`Frame::Sample`].
    Response(ResponseFrame),
    /// One chunk of a streamed response.
    Chunk(ChunkFrame),
    /// Stream terminator.
    StreamEnd(StreamEndFrame),
    /// Atomic graph-edit batch.
    Mutate {
        /// Correlation id.
        id: u64,
        /// Edits applied in order, all-or-nothing.
        edits: Vec<EdgeEdit>,
    },
    /// Mutation acknowledgement.
    MutateAck {
        /// Echoed id.
        id: u64,
        /// Epoch the graph advanced to.
        epoch: u64,
        /// Vertices carrying an uncompacted delta.
        overlay_vertices: u64,
    },
    /// Fold the delta overlay into a fresh base CSR.
    Compact {
        /// Correlation id.
        id: u64,
    },
    /// Compaction acknowledgement.
    CompactAck {
        /// Echoed id.
        id: u64,
        /// Vertices folded.
        folded: u64,
    },
    /// Request the server's stats/metrics snapshot.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Stats reply: the same Prometheus text the `/metrics` endpoint
    /// serves, so wire clients and scrapers read one vocabulary.
    StatsAck {
        /// Echoed id.
        id: u64,
        /// Prometheus text exposition.
        text: String,
    },
    /// Switch this connection into event-subscription mode: the server
    /// pushes [`Frame::Event`]s for this connection's tenant until the
    /// client disconnects.
    Subscribe {
        /// Correlation id (echoed on the acknowledging `HelloAck`-less
        /// first event batch; reserved).
        id: u64,
    },
    /// A walk-finished notification.
    Event(EventFrame),
    /// Typed failure reply.
    Error(ErrorFrame),
    /// Polite close (either direction); the peer may just disconnect.
    Goodbye,
}

// Frame type bytes (stable wire values).
const T_HELLO: u8 = 0x01;
const T_HELLO_ACK: u8 = 0x02;
const T_SAMPLE: u8 = 0x10;
const T_RESPONSE: u8 = 0x11;
const T_CHUNK: u8 = 0x12;
const T_STREAM_END: u8 = 0x13;
const T_MUTATE: u8 = 0x20;
const T_MUTATE_ACK: u8 = 0x21;
const T_COMPACT: u8 = 0x22;
const T_COMPACT_ACK: u8 = 0x23;
const T_STATS: u8 = 0x30;
const T_STATS_ACK: u8 = 0x31;
const T_SUBSCRIBE: u8 = 0x40;
const T_EVENT: u8 = 0x41;
const T_GOODBYE: u8 = 0x7E;
const T_ERROR: u8 = 0x7F;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_u32(buf: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put_u32(buf, x);
        }
    }
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put_u64(buf, x);
        }
    }
}

fn put_opt_f64(buf: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put_u64(buf, x.to_bits());
        }
    }
}

fn put_instances(buf: &mut Vec<u8>, instances: &[Vec<(u32, u32)>]) {
    put_u32(buf, instances.len() as u32);
    for inst in instances {
        put_u32(buf, inst.len() as u32);
        for &(v, u) in inst {
            put_u32(buf, v);
            put_u32(buf, u);
        }
    }
}

fn put_algo(buf: &mut Vec<u8>, a: &WireAlgo) {
    put_str(buf, &a.name);
    put_opt_u32(buf, a.depth);
    put_opt_u32(buf, a.neighbor_size);
    put_opt_f64(buf, a.pf);
    put_opt_f64(buf, a.p);
    put_opt_f64(buf, a.q);
    put_opt_f64(buf, a.p_jump);
    put_opt_f64(buf, a.p_restart);
}

impl Frame {
    /// Encodes the frame — length prefix included — appending to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        put_u32(buf, 0); // patched below
        match self {
            Frame::Hello { version, tenant } => {
                buf.push(T_HELLO);
                put_u32(buf, MAGIC);
                put_u16(buf, *version);
                put_str(buf, tenant);
            }
            Frame::HelloAck { version } => {
                buf.push(T_HELLO_ACK);
                put_u16(buf, *version);
            }
            Frame::Sample(s) => {
                buf.push(T_SAMPLE);
                put_u64(buf, s.id);
                put_algo(buf, &s.algo);
                put_u64(buf, s.rng_seed);
                put_opt_u64(buf, s.deadline_us);
                put_u32(buf, s.stream_chunk);
                put_u32(buf, s.seeds.len() as u32);
                for &v in &s.seeds {
                    put_u32(buf, v);
                }
            }
            Frame::Response(r) => {
                buf.push(T_RESPONSE);
                put_u64(buf, r.id);
                put_u32(buf, r.instance_base);
                put_u64(buf, r.batch_requests);
                put_u64(buf, r.batch_instances);
                put_u64(buf, r.queue_wait_us);
                put_u64(buf, r.sampled_edges);
                put_instances(buf, &r.instances);
            }
            Frame::Chunk(c) => {
                buf.push(T_CHUNK);
                put_u64(buf, c.id);
                put_u32(buf, c.seq);
                put_u32(buf, c.chunk_base);
                put_instances(buf, &c.instances);
            }
            Frame::StreamEnd(e) => {
                buf.push(T_STREAM_END);
                put_u64(buf, e.id);
                put_u32(buf, e.chunks);
                put_u32(buf, e.instance_base);
                put_u64(buf, e.sampled_edges);
            }
            Frame::Mutate { id, edits } => {
                buf.push(T_MUTATE);
                put_u64(buf, *id);
                put_u32(buf, edits.len() as u32);
                for e in edits {
                    match *e {
                        EdgeEdit::Insert { src, dst, weight } => {
                            buf.push(0);
                            put_u32(buf, src);
                            put_u32(buf, dst);
                            put_u32(buf, weight.to_bits());
                        }
                        EdgeEdit::Delete { src, dst } => {
                            buf.push(1);
                            put_u32(buf, src);
                            put_u32(buf, dst);
                        }
                        EdgeEdit::Reweight { src, dst, weight } => {
                            buf.push(2);
                            put_u32(buf, src);
                            put_u32(buf, dst);
                            put_u32(buf, weight.to_bits());
                        }
                    }
                }
            }
            Frame::MutateAck { id, epoch, overlay_vertices } => {
                buf.push(T_MUTATE_ACK);
                put_u64(buf, *id);
                put_u64(buf, *epoch);
                put_u64(buf, *overlay_vertices);
            }
            Frame::Compact { id } => {
                buf.push(T_COMPACT);
                put_u64(buf, *id);
            }
            Frame::CompactAck { id, folded } => {
                buf.push(T_COMPACT_ACK);
                put_u64(buf, *id);
                put_u64(buf, *folded);
            }
            Frame::Stats { id } => {
                buf.push(T_STATS);
                put_u64(buf, *id);
            }
            Frame::StatsAck { id, text } => {
                buf.push(T_STATS_ACK);
                put_u64(buf, *id);
                put_str(buf, text);
            }
            Frame::Subscribe { id } => {
                buf.push(T_SUBSCRIBE);
                put_u64(buf, *id);
            }
            Frame::Event(e) => {
                buf.push(T_EVENT);
                put_u64(buf, e.request_id);
                put_str(buf, &e.tenant);
                buf.push(match e.kind {
                    EventKind::Completed => 0,
                    EventKind::Expired => 1,
                    EventKind::Failed => 2,
                });
                put_u64(buf, e.sampled_edges);
                put_u32(buf, e.instances);
            }
            Frame::Error(e) => {
                buf.push(T_ERROR);
                put_u64(buf, e.id);
                put_u16(buf, e.code as u16);
                put_u64(buf, e.retry_after_us);
                put_str(buf, &e.message);
            }
            Frame::Goodbye => {
                buf.push(T_GOODBYE);
            }
        }
        let len = (buf.len() - start - 4) as u32;
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Encodes into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decodes one frame body (type byte + payload, no length prefix).
    pub fn decode(body: &[u8]) -> Result<Frame, WireError> {
        let (&ty, payload) = body.split_first().ok_or(WireError::EmptyFrame)?;
        let mut r = Reader { buf: payload, pos: 0 };
        let frame = match ty {
            T_HELLO => {
                let magic = r.u32()?;
                if magic != MAGIC {
                    return Err(WireError::BadMagic(magic));
                }
                let version = r.u16()?;
                let tenant = r.string()?;
                Frame::Hello { version, tenant }
            }
            T_HELLO_ACK => Frame::HelloAck { version: r.u16()? },
            T_SAMPLE => {
                let id = r.u64()?;
                let algo = r.algo()?;
                let rng_seed = r.u64()?;
                let deadline_us = r.opt_u64()?;
                let stream_chunk = r.u32()?;
                let n = r.u32()? as usize;
                let mut seeds = Vec::with_capacity(r.bounded(n, 4)?);
                for _ in 0..n {
                    seeds.push(r.u32()?);
                }
                Frame::Sample(SampleFrame { id, algo, seeds, rng_seed, deadline_us, stream_chunk })
            }
            T_RESPONSE => {
                let id = r.u64()?;
                let instance_base = r.u32()?;
                let batch_requests = r.u64()?;
                let batch_instances = r.u64()?;
                let queue_wait_us = r.u64()?;
                let sampled_edges = r.u64()?;
                let instances = r.instances()?;
                Frame::Response(ResponseFrame {
                    id,
                    instance_base,
                    batch_requests,
                    batch_instances,
                    queue_wait_us,
                    sampled_edges,
                    instances,
                })
            }
            T_CHUNK => {
                let id = r.u64()?;
                let seq = r.u32()?;
                let chunk_base = r.u32()?;
                let instances = r.instances()?;
                Frame::Chunk(ChunkFrame { id, seq, chunk_base, instances })
            }
            T_STREAM_END => Frame::StreamEnd(StreamEndFrame {
                id: r.u64()?,
                chunks: r.u32()?,
                instance_base: r.u32()?,
                sampled_edges: r.u64()?,
            }),
            T_MUTATE => {
                let id = r.u64()?;
                let n = r.u32()? as usize;
                let mut edits = Vec::with_capacity(r.bounded(n, 9)?);
                for _ in 0..n {
                    let tag = r.u8()?;
                    edits.push(match tag {
                        0 => {
                            let src = r.u32()?;
                            let dst = r.u32()?;
                            let weight = f32::from_bits(r.u32()?);
                            EdgeEdit::Insert { src, dst, weight }
                        }
                        1 => EdgeEdit::Delete { src: r.u32()?, dst: r.u32()? },
                        2 => {
                            let src = r.u32()?;
                            let dst = r.u32()?;
                            let weight = f32::from_bits(r.u32()?);
                            EdgeEdit::Reweight { src, dst, weight }
                        }
                        other => {
                            return Err(WireError::BadTag {
                                field: "edit kind",
                                value: other as u64,
                            })
                        }
                    });
                }
                Frame::Mutate { id, edits }
            }
            T_MUTATE_ACK => {
                Frame::MutateAck { id: r.u64()?, epoch: r.u64()?, overlay_vertices: r.u64()? }
            }
            T_COMPACT => Frame::Compact { id: r.u64()? },
            T_COMPACT_ACK => Frame::CompactAck { id: r.u64()?, folded: r.u64()? },
            T_STATS => Frame::Stats { id: r.u64()? },
            T_STATS_ACK => Frame::StatsAck { id: r.u64()?, text: r.long_string()? },
            T_SUBSCRIBE => Frame::Subscribe { id: r.u64()? },
            T_EVENT => {
                let request_id = r.u64()?;
                let tenant = r.string()?;
                let kind = match r.u8()? {
                    0 => EventKind::Completed,
                    1 => EventKind::Expired,
                    2 => EventKind::Failed,
                    other => {
                        return Err(WireError::BadTag { field: "event kind", value: other as u64 })
                    }
                };
                let sampled_edges = r.u64()?;
                let instances = r.u32()?;
                Frame::Event(EventFrame { request_id, tenant, kind, sampled_edges, instances })
            }
            T_ERROR => {
                let id = r.u64()?;
                let code_raw = r.u16()?;
                let code = ErrorCode::from_u16(code_raw)
                    .ok_or(WireError::BadTag { field: "error code", value: code_raw as u64 })?;
                let retry_after_us = r.u64()?;
                let message = r.string()?;
                Frame::Error(ErrorFrame { id, code, retry_after_us, message })
            }
            T_GOODBYE => Frame::Goodbye,
            other => return Err(WireError::UnknownFrameType(other)),
        };
        if r.pos != r.buf.len() {
            return Err(WireError::TrailingBytes { extra: r.buf.len() - r.pos });
        }
        Ok(frame)
    }
}

/// Bounds-checked little-endian reader over a frame payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.u32()?)),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.u64()?)),
        }
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(f64::from_bits(self.u64()?))),
        }
    }

    /// Caps a declared element count by the bytes actually remaining
    /// (`elem_size` bytes minimum per element), so a hostile length
    /// cannot drive a huge allocation before the decode fails.
    fn bounded(&self, count: usize, elem_size: usize) -> Result<usize, WireError> {
        let remaining = self.buf.len() - self.pos;
        if count.saturating_mul(elem_size.max(1)) > remaining.saturating_mul(9) {
            // Even a 1-byte-per-element encoding can't satisfy this
            // count (factor 9 covers the largest variable elements).
            return Err(WireError::Truncated);
        }
        Ok(count.min(remaining))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32()?;
        if n > MAX_STRING_LEN {
            return Err(WireError::StringTooLong(n));
        }
        let bytes = self.take(n as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// A string bounded only by the frame itself (metrics text).
    fn long_string(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn algo(&mut self) -> Result<WireAlgo, WireError> {
        Ok(WireAlgo {
            name: self.string()?,
            depth: self.opt_u32()?,
            neighbor_size: self.opt_u32()?,
            pf: self.opt_f64()?,
            p: self.opt_f64()?,
            q: self.opt_f64()?,
            p_jump: self.opt_f64()?,
            p_restart: self.opt_f64()?,
        })
    }

    fn instances(&mut self) -> Result<Vec<Vec<(u32, u32)>>, WireError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(self.bounded(n, 4)?);
        for _ in 0..n {
            let m = self.u32()? as usize;
            let mut inst = Vec::with_capacity(self.bounded(m, 8)?);
            for _ in 0..m {
                let v = self.u32()?;
                let u = self.u32()?;
                inst.push((v, u));
            }
            out.push(inst);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------

/// Writes one frame to `w` (no flush; callers flush per logical reply).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.to_bytes())
}

/// Reads one frame from `r`, enforcing [`MAX_FRAME_LEN`] on the declared
/// frame length before allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, RecvError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 {
        return Err(WireError::EmptyFrame.into());
    }
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len }.into());
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Frame::decode(&body)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = frame.to_bytes();
        let mut cursor = std::io::Cursor::new(&bytes);
        let back = read_frame(&mut cursor).expect("decode");
        assert_eq!(back, frame);
        assert_eq!(cursor.position() as usize, bytes.len(), "whole frame consumed");
    }

    #[test]
    fn every_frame_kind_round_trips() {
        round_trip(Frame::Hello { version: WIRE_VERSION, tenant: "acme".into() });
        round_trip(Frame::HelloAck { version: WIRE_VERSION });
        round_trip(Frame::Sample(SampleFrame {
            id: 7,
            algo: WireAlgo { p: Some(0.5), ..WireAlgo::by_name("node2vec").with_depth(12) },
            seeds: vec![0, 3, 9],
            rng_seed: 42,
            deadline_us: Some(1_000_000),
            stream_chunk: 2,
        }));
        round_trip(Frame::Response(ResponseFrame {
            id: 7,
            instance_base: 3,
            batch_requests: 2,
            batch_instances: 5,
            queue_wait_us: 120,
            sampled_edges: 4,
            instances: vec![vec![(0, 1), (1, 2)], vec![], vec![(5, 6), (6, 5)]],
        }));
        round_trip(Frame::Chunk(ChunkFrame {
            id: 7,
            seq: 1,
            chunk_base: 8,
            instances: vec![vec![(1, 2)]],
        }));
        round_trip(Frame::StreamEnd(StreamEndFrame {
            id: 7,
            chunks: 2,
            instance_base: 3,
            sampled_edges: 9,
        }));
        round_trip(Frame::Mutate {
            id: 9,
            edits: vec![
                EdgeEdit::Insert { src: 1, dst: 2, weight: 1.5 },
                EdgeEdit::Delete { src: 2, dst: 1 },
                EdgeEdit::Reweight { src: 0, dst: 3, weight: 0.25 },
            ],
        });
        round_trip(Frame::MutateAck { id: 9, epoch: 3, overlay_vertices: 2 });
        round_trip(Frame::Compact { id: 10 });
        round_trip(Frame::CompactAck { id: 10, folded: 5 });
        round_trip(Frame::Stats { id: 11 });
        round_trip(Frame::StatsAck { id: 11, text: "# HELP x\nx 1\n".into() });
        round_trip(Frame::Subscribe { id: 12 });
        round_trip(Frame::Event(EventFrame {
            request_id: 4,
            tenant: "acme".into(),
            kind: EventKind::Completed,
            sampled_edges: 40,
            instances: 4,
        }));
        round_trip(Frame::Error(ErrorFrame {
            id: 7,
            code: ErrorCode::QueueFull,
            retry_after_us: 2000,
            message: "queue full".into(),
        }));
        round_trip(Frame::Goodbye);
    }

    #[test]
    fn truncation_is_typed_never_panicking() {
        let frame = Frame::Sample(SampleFrame {
            id: 1,
            algo: WireAlgo::by_name("biased-walk"),
            seeds: vec![1, 2, 3],
            rng_seed: 1,
            deadline_us: None,
            stream_chunk: 0,
        });
        let bytes = frame.to_bytes();
        // Every proper prefix of the body fails with a typed error.
        for cut in 1..bytes.len() - 1 {
            let body = &bytes[4..cut.max(5)];
            if body.is_empty() {
                continue;
            }
            let res = Frame::decode(body);
            assert!(res.is_err(), "prefix of {cut} bytes decoded: {res:?}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Frame::Goodbye.to_bytes();
        bytes.extend_from_slice(&[0, 0]);
        // Patch the length to cover the extra bytes.
        let len = (bytes.len() - 4) as u32;
        bytes[0..4].copy_from_slice(&len.to_le_bytes());
        let err = Frame::decode(&bytes[4..]).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes { extra: 2 });
    }

    #[test]
    fn unknown_frame_type_and_bad_magic() {
        assert_eq!(Frame::decode(&[0x6A]), Err(WireError::UnknownFrameType(0x6A)));
        let mut hello = Frame::Hello { version: 1, tenant: "t".into() }.to_bytes();
        hello[5] ^= 0xFF; // corrupt the magic (first payload byte)
        assert!(matches!(Frame::decode(&hello[4..]), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_FRAME_LEN + 1);
        bytes.push(T_GOODBYE);
        let err = read_frame(&mut std::io::Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, RecvError::Wire(WireError::FrameTooLarge { .. })), "{err:?}");
    }

    #[test]
    fn hostile_count_fails_without_huge_allocation() {
        // A Sample frame declaring u32::MAX seeds with a 2-byte payload.
        let mut body = vec![T_SAMPLE];
        put_u64(&mut body, 1); // id
        put_str(&mut body, "simple-walk");
        body.extend_from_slice(&[0u8; 7]); // absent options
        put_u64(&mut body, 1); // rng_seed
        body.push(0); // no deadline
        put_u32(&mut body, 0); // stream_chunk
        put_u32(&mut body, u32::MAX); // seed count
        body.extend_from_slice(&[0, 0]);
        assert!(Frame::decode(&body).is_err());
    }
}
