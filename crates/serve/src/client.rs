//! A blocking wire client.
//!
//! [`Client::connect`] performs the versioned handshake; each method
//! then drives one request/response exchange. The client is
//! deliberately synchronous — one request at a time per connection,
//! matching the server's per-connection protocol driver — so callers
//! wanting concurrency open more connections.

use crate::wire::{
    read_frame, write_frame, ChunkFrame, ErrorFrame, EventFrame, Frame, RecvError, ResponseFrame,
    SampleFrame, StreamEndFrame, WireAlgo, WIRE_VERSION,
};
use csaw_graph::EdgeEdit;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The bytes arrived but did not decode.
    Wire(crate::wire::WireError),
    /// The server answered with a typed error frame.
    Server(ErrorFrame),
    /// The server answered with a frame the exchange did not expect.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server(e) => {
                write!(f, "server error {:?}: {}", e.code, e.message)
            }
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> ClientError {
        match e {
            RecvError::Io(e) => ClientError::Io(e),
            RecvError::Wire(e) => ClientError::Wire(e),
        }
    }
}

/// A streamed response, reassembled.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedResponse {
    /// Instance base of the whole stream (what a solo run needs).
    pub instance_base: u32,
    /// Chunks in arrival order (sequence numbers are consecutive).
    pub chunks: Vec<ChunkFrame>,
    /// The stream terminator.
    pub end: StreamEndFrame,
}

impl StreamedResponse {
    /// Concatenates the chunks back into one instance list — the
    /// determinism contract makes this bit-identical to the unstreamed
    /// response for the same request.
    pub fn reassemble(&self) -> Vec<Vec<(u32, u32)>> {
        let mut out = Vec::new();
        for c in &self.chunks {
            out.extend(c.instances.iter().cloned());
        }
        out
    }
}

/// A connected, handshaken wire client.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects and performs the handshake under `tenant`'s identity.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client { stream, next_id: 1 };
        client.send(&Frame::Hello { version: WIRE_VERSION, tenant: tenant.to_string() })?;
        match client.recv()? {
            Frame::HelloAck { .. } => Ok(client),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("expected HelloAck, got {other:?}"))),
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        write_frame(&mut self.stream, frame)?;
        use std::io::Write as _;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, ClientError> {
        Ok(read_frame(&mut self.stream)?)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Runs one sampling request and waits for the full response.
    pub fn sample(
        &mut self,
        algo: WireAlgo,
        seeds: Vec<u32>,
        rng_seed: u64,
        deadline: Option<Duration>,
    ) -> Result<ResponseFrame, ClientError> {
        let id = self.fresh_id();
        self.send(&Frame::Sample(SampleFrame {
            id,
            algo,
            seeds,
            rng_seed,
            deadline_us: deadline.map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64),
            stream_chunk: 0,
        }))?;
        match self.recv()? {
            Frame::Response(r) if r.id == id => Ok(r),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("expected Response, got {other:?}"))),
        }
    }

    /// Runs one sampling request in streaming mode (`chunk_seeds` seeds
    /// per chunk), invoking `on_chunk` as each chunk arrives and
    /// returning the reassembled stream.
    pub fn sample_streamed(
        &mut self,
        algo: WireAlgo,
        seeds: Vec<u32>,
        rng_seed: u64,
        chunk_seeds: u32,
        mut on_chunk: impl FnMut(&ChunkFrame),
    ) -> Result<StreamedResponse, ClientError> {
        let id = self.fresh_id();
        self.send(&Frame::Sample(SampleFrame {
            id,
            algo,
            seeds,
            rng_seed,
            deadline_us: None,
            stream_chunk: chunk_seeds.max(1),
        }))?;
        let mut chunks = Vec::new();
        loop {
            match self.recv()? {
                Frame::Chunk(c) if c.id == id => {
                    if c.seq as usize != chunks.len() {
                        return Err(ClientError::Protocol(format!(
                            "chunk seq {} out of order (expected {})",
                            c.seq,
                            chunks.len()
                        )));
                    }
                    on_chunk(&c);
                    chunks.push(c);
                }
                Frame::StreamEnd(end) if end.id == id => {
                    if end.chunks as usize != chunks.len() {
                        return Err(ClientError::Protocol(format!(
                            "stream declared {} chunks, received {}",
                            end.chunks,
                            chunks.len()
                        )));
                    }
                    return Ok(StreamedResponse { instance_base: end.instance_base, chunks, end });
                }
                Frame::Error(e) => return Err(ClientError::Server(e)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected Chunk/StreamEnd, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Applies a batch of graph edits atomically.
    pub fn mutate(&mut self, edits: Vec<EdgeEdit>) -> Result<(u64, u64), ClientError> {
        let id = self.fresh_id();
        self.send(&Frame::Mutate { id, edits })?;
        match self.recv()? {
            Frame::MutateAck { id: rid, epoch, overlay_vertices } if rid == id => {
                Ok((epoch, overlay_vertices))
            }
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("expected MutateAck, got {other:?}"))),
        }
    }

    /// Folds the delta overlay; returns how many vertices folded.
    pub fn compact(&mut self) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send(&Frame::Compact { id })?;
        match self.recv()? {
            Frame::CompactAck { id: rid, folded } if rid == id => Ok(folded),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("expected CompactAck, got {other:?}"))),
        }
    }

    /// Fetches the server's metrics page over the wire.
    pub fn stats_text(&mut self) -> Result<String, ClientError> {
        let id = self.fresh_id();
        self.send(&Frame::Stats { id })?;
        match self.recv()? {
            Frame::StatsAck { id: rid, text } if rid == id => Ok(text),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("expected StatsAck, got {other:?}"))),
        }
    }

    /// Switches this connection into event-subscription mode.
    pub fn subscribe(mut self) -> Result<EventStream, ClientError> {
        let id = self.fresh_id();
        self.send(&Frame::Subscribe { id })?;
        Ok(EventStream { stream: self.stream })
    }

    /// Sends a polite Goodbye and closes.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        self.send(&Frame::Goodbye)
    }
}

/// A connection dedicated to receiving completion events.
pub struct EventStream {
    stream: TcpStream,
}

impl EventStream {
    /// Blocks for the next event; `Ok(None)` on orderly server close.
    pub fn next_event(&mut self) -> Result<Option<EventFrame>, ClientError> {
        match read_frame(&mut self.stream) {
            Ok(Frame::Event(e)) => Ok(Some(e)),
            Ok(Frame::Goodbye) => Ok(None),
            Ok(other) => Err(ClientError::Protocol(format!("expected Event, got {other:?}"))),
            Err(RecvError::Io(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Bounds how long [`EventStream::next_event`] may block.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }
}
