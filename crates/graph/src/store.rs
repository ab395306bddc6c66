//! On-disk partitioned CSR store: the third storage tier.
//!
//! The out-of-memory runtime (paper §V) streams partitions between host
//! and device memory; this module extends the hierarchy one level down so
//! the *host* side no longer has to hold the whole CSR either. A store is
//! a directory of per-partition **segment files** — fixed-width
//! neighbor records behind a fixed-width offset index — plus a
//! checksummed `store.meta` header carrying the epoch and the partition
//! table.
//!
//! A vertex's record is empty when it has no neighbors. Otherwise it is
//! one width byte `w` (1..=4, the byte length of the record's largest
//! neighbor id), then its `d` absolute neighbor ids as little-endian
//! `w`-byte integers, then its `d` raw little-endian f32 weights when the
//! store is weighted. Every id of a record starts at a fixed offset, so
//! neighbor `k` is one `w`-byte load away ([`DiskStore::neighbor_at`],
//! the uniform walk step's point read), and a whole-run decode is one
//! widening pass. A record is as wide as its largest id: on an R-MAT
//! graph of 2^14 vertices nearly every record is two bytes wide.
//!
//! Readers map segments with `mmap(2)` (a hand-declared libc binding —
//! the workspace is hermetic) and decode on demand. Each segment file
//! holds a fixed-width offset index and degree array ahead of its
//! payload; [`DiskStore::open`] reads both from the file (not the
//! mapping), validates them and copies them into two resident per-vertex
//! arrays, 12 bytes a vertex: the degree (a `u32`) and a record locator
//! (a `u64` packing the partition, the record's absolute byte offset in
//! its segment and the id width its size implies). A degree lookup is
//! then one load ([`DiskStore::degrees`] exposes the slice), and a point
//! read is those two loads, the width byte and one masked `u32` load
//! from the mapping: no partition arithmetic and no index page. Only the
//! payload is read through the mapping, so a segment's pages enter the
//! process when its records are first read, not at open. Degree lookups
//! never touch the encoded payload, which is what lets algorithm hooks
//! (`g.degree(u)` over neighbors, node2vec's `ISNEIGHBOR`) run against a
//! disk-backed graph.
//!
//! Integrity is typed, never a panic: `store.meta` is fully verified at
//! [`DiskStore::open`] (magic, version, sizes, FNV-1a checksum), segment
//! headers and offset indexes are validated at open, and each segment's
//! trailing checksum is verified once, before its first decode or point
//! read (continuing the hash open took over the bytes it read). A point
//! read still checks its width byte against the record's size, its `k`
//! against the degree and its id against the vertex count, so a corrupt
//! record fails only its own reads. Any truncated or byte-flipped file
//! surfaces as a [`StoreError`].
//!
//! A decoded partition holds the adjacency a
//! [`crate::partition::Partition`] describes — rebased local row pointer,
//! global column ids, optional weights — and decoding is bit-exact: a store
//! round-trip reproduces the source CSR slices verbatim, which is what
//! keeps disk-backed sampling output identical to the in-memory run.

use crate::csr::Csr;
use crate::types::{VertexId, Weight};
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Magic bytes opening `store.meta`.
pub const META_MAGIC: &[u8; 8] = b"CSAWSTR1";
/// Magic bytes opening each segment file.
pub const SEG_MAGIC: &[u8; 8] = b"CSAWSEG1";
/// On-disk format version. Version 3 holds records of absolute ids; a
/// store of any other version fails to open with
/// [`StoreError::BadVersion`].
pub const STORE_VERSION: u32 = 3;
/// Widest id a record can hold: a `u32` vertex id.
const MAX_WIDTH: usize = 4;
/// Size of the fixed segment header preceding the offset index.
const SEG_HEADER_BYTES: usize = 48;
/// Simulated page size for the mmap-fault gauge.
pub const PAGE_BYTES: usize = 4096;

/// Typed failure of any store operation. Corrupt input — truncation,
/// byte flips, bad magic — always lands here; store code never panics on
/// untrusted bytes.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A file did not start with the expected magic bytes.
    BadMagic {
        /// File that failed the check.
        file: String,
    },
    /// The store was written by an unknown format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A file's size disagrees with the header's record of it
    /// (truncated or extended).
    SizeMismatch {
        /// File that failed the check.
        file: String,
        /// Size the header promised.
        expected: u64,
        /// Size found on disk.
        found: u64,
    },
    /// A checksum over the file's contents did not match.
    ChecksumMismatch {
        /// File that failed the check.
        file: String,
    },
    /// Structurally invalid content (non-monotonic index, a record
    /// width that disagrees with its size, out-of-range vertex id, ...).
    Corrupt {
        /// File that failed the check.
        file: String,
        /// What was wrong.
        detail: String,
    },
    /// A point read asked for a neighbor the vertex does not have.
    NoSuchNeighbor {
        /// The vertex read.
        vertex: VertexId,
        /// The neighbor index asked for.
        k: usize,
        /// The vertex's degree (0 for a vertex outside the store).
        degree: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic { file } => write!(f, "{file}: bad magic"),
            StoreError::BadVersion { found } => write!(f, "unsupported store version {found}"),
            StoreError::SizeMismatch { file, expected, found } => {
                write!(f, "{file}: expected {expected} bytes, found {found}")
            }
            StoreError::ChecksumMismatch { file } => write!(f, "{file}: checksum mismatch"),
            StoreError::Corrupt { file, detail } => write!(f, "{file}: corrupt: {detail}"),
            StoreError::NoSuchNeighbor { vertex, k, degree } => {
                write!(f, "vertex {vertex} has no neighbor {k} (degree {degree})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

// --- FNV-1a ----------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the store's checksum (fast, dependency-free,
/// and plenty for catching truncation and bit flips; this is an integrity
/// check, not an adversarial MAC).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// FNV-1a continued from the state `h` a prefix left:
/// `fnv1a_from(fnv1a(a), b)` is `fnv1a` of `a` followed by `b`.
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// --- records --------------------------------------------------------------

/// Appends one vertex's record: nothing for an empty row; otherwise the
/// width byte, the ids at that width, then the weights.
fn encode_record(out: &mut Vec<u8>, ns: &[VertexId], ws: Option<&[Weight]>) {
    let Some(&top) = ns.iter().max() else {
        return;
    };
    let w = (32 - top.leading_zeros() as usize).div_ceil(8).max(1);
    out.push(w as u8);
    for &u in ns {
        out.extend_from_slice(&u.to_le_bytes()[..w]);
    }
    for &x in ws.unwrap_or(&[]) {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// The id width of a record of `deg` neighbors (0 when empty), checked
/// against the record's size.
fn record_width(rec: &[u8], deg: usize, weighted: bool) -> Result<usize, &'static str> {
    let wbytes = if weighted { deg * 4 } else { 0 };
    if deg == 0 {
        return if rec.is_empty() { Ok(0) } else { Err("bytes in an empty record") };
    }
    let w = rec.first().map_or(0, |&b| usize::from(b));
    if !(1..=MAX_WIDTH).contains(&w) {
        return Err("bad id width");
    }
    if rec.len() != 1 + deg * w + wbytes {
        return Err("id width disagrees with the record size");
    }
    Ok(w)
}

/// Decodes one record of `deg` neighbors, appending them to `col` and,
/// when `weights` is given, the record's weights to it (`weighted` says
/// whether the record carries any). The one decoder behind
/// [`DiskStore::decode_vertex`] and [`DiskStore::decode_partition`].
///
/// One widening pass per width, then a vectorizable maximum that rejects
/// an id outside `0..num_vertices`, so corrupt bytes give an error, never
/// a panic. Each buffer grows by one `reserve(deg)` (exact-size
/// iterators), so it allocates nothing when it already has room for the
/// run.
fn decode_record(
    rec: &[u8],
    deg: usize,
    num_vertices: usize,
    col: &mut Vec<VertexId>,
    weights: Option<&mut Vec<Weight>>,
    weighted: bool,
) -> Result<(), &'static str> {
    let w = record_width(rec, deg, weighted)?;
    if deg == 0 {
        return Ok(());
    }
    let (ids, wrec) = rec[1..].split_at(deg * w);
    let base = col.len();
    match w {
        1 => col.extend(ids.iter().map(|&b| u32::from(b))),
        2 => col.extend(ids.as_chunks::<2>().0.iter().map(|&c| u32::from(u16::from_le_bytes(c)))),
        3 => col.extend(
            ids.as_chunks::<3>().0.iter().map(|&[a, b, c]| u32::from_le_bytes([a, b, c, 0])),
        ),
        _ => col.extend(ids.as_chunks::<4>().0.iter().map(|&c| u32::from_le_bytes(c))),
    }
    if col[base..].iter().fold(0, |m, &u| m.max(u)) as usize >= num_vertices {
        return Err("neighbor out of range");
    }
    if let Some(ws) = weights {
        ws.extend(wrec.as_chunks::<4>().0.iter().map(|&c| f32::from_le_bytes(c)));
    }
    Ok(())
}

// --- mmap ------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only byte mapping of a file: `mmap(2)` where available, an
/// owned in-memory copy otherwise (non-unix targets, zero-length files,
/// or `CSAW_NO_MMAP=1` for exercising the fallback).
pub enum Mapped {
    /// A live `mmap` region, unmapped on drop.
    #[cfg(unix)]
    Mmap {
        /// Base of the mapping.
        ptr: *const u8,
        /// Mapped length in bytes.
        len: usize,
    },
    /// Whole-file copy fallback.
    Owned(Vec<u8>),
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and this process never
// writes through it. Sharing it across threads is sound on one
// assumption the type cannot enforce: the segment files are not truncated
// or rewritten in place while mapped (a truncation turns reads past the
// new end into SIGBUS; an in-place rewrite changes bytes under live
// slices). `write_store` truncates and rewrites segment files, so it
// must not target a directory some open `DiskStore` has mapped.
#[cfg(unix)]
unsafe impl Send for Mapped {}
// SAFETY: as for `Send`. `&Mapped` only hands out shared `&[u8]` views of
// the read-only mapping, and unmapping needs `&mut self` (`Drop`), so no
// reader can race the unmap.
#[cfg(unix)]
unsafe impl Sync for Mapped {}

impl Mapped {
    /// Maps `path` read-only. Falls back to reading the file into memory
    /// when mapping is unavailable.
    pub fn open(path: &Path) -> Result<Mapped, StoreError> {
        #[cfg(unix)]
        {
            if std::env::var_os("CSAW_NO_MMAP").is_none() {
                return Mapped::open_mmap(path);
            }
        }
        Mapped::open_read(path)
    }

    /// The read-into-memory fallback (also used for empty files).
    fn open_read(path: &Path) -> Result<Mapped, StoreError> {
        let mut buf = Vec::new();
        fs::File::open(path)?.read_to_end(&mut buf)?;
        Ok(Mapped::Owned(buf))
    }

    #[cfg(unix)]
    fn open_mmap(path: &Path) -> Result<Mapped, StoreError> {
        use std::os::unix::io::AsRawFd;
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Ok(Mapped::Owned(Vec::new()));
        }
        // SAFETY: fd is a freshly opened file that lives across the call;
        // a PROT_READ/MAP_PRIVATE mapping of it has no aliasing hazards.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() || ptr.is_null() {
            // Kernel refused (e.g. exotic filesystem): degrade to a copy.
            return Mapped::open_read(path);
        }
        Ok(Mapped::Mmap { ptr: ptr as *const u8, len })
    }

    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match self {
            // SAFETY: ptr/len describe a live mapping created by open_mmap
            // and released only in drop.
            #[cfg(unix)]
            Mapped::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Mapped::Owned(v) => v,
        }
    }

    /// True when backed by a real `mmap` region (not the copy fallback).
    pub fn is_mmap(&self) -> bool {
        match self {
            #[cfg(unix)]
            Mapped::Mmap { .. } => true,
            Mapped::Owned(_) => false,
        }
    }
}

impl Drop for Mapped {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Mapped::Mmap { ptr, len } = self {
            // SAFETY: exactly the region mmap returned; mapped once,
            // unmapped once.
            unsafe {
                sys::munmap(*ptr as *mut core::ffi::c_void, *len);
            }
        }
    }
}

impl fmt::Debug for Mapped {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mapped({} bytes, mmap={})", self.bytes().len(), self.is_mmap())
    }
}

// --- little-endian helpers -------------------------------------------------

#[inline]
fn read_u64(buf: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(off..off + 8)?.try_into().ok()?))
}

#[inline]
fn read_u32(buf: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(off..off + 4)?.try_into().ok()?))
}

// --- partition metadata ----------------------------------------------------

/// One partition's entry in the store header.
#[derive(Debug, Clone)]
pub struct PartitionMeta {
    /// First vertex (inclusive).
    pub start: VertexId,
    /// One past the last vertex.
    pub end: VertexId,
    /// CSR entries held by the partition.
    pub edges: u64,
    /// Total segment file size in bytes.
    pub seg_len: u64,
    /// Trailing checksum of the segment, mirrored here so the header
    /// binds the segment contents.
    pub seg_checksum: u64,
}

impl PartitionMeta {
    /// Vertices owned by the partition.
    pub fn num_vertices(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// RAM bytes a decoded copy of this partition occupies (same
    /// accounting as [`crate::partition::Partition::size_bytes`], plus
    /// weights when present). The residency pool charges each vertex
    /// run its share of this: its entries plus one row-pointer word.
    pub fn decoded_bytes(&self, weighted: bool) -> usize {
        (self.num_vertices() + 1) * std::mem::size_of::<usize>()
            + self.edges as usize * std::mem::size_of::<VertexId>()
            + if weighted { self.edges as usize * std::mem::size_of::<Weight>() } else { 0 }
    }
}

/// A partition decoded out of its segment: the CSR slices a
/// [`crate::partition::Partition`] describes, reproduced bit-for-bit from
/// the source CSR.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPartition {
    /// First vertex (inclusive).
    pub start: VertexId,
    /// One past the last vertex.
    pub end: VertexId,
    /// Local row pointer, rebased so `local_row_ptr[0] == 0`.
    pub local_row_ptr: Vec<usize>,
    /// Column entries (global vertex ids).
    pub col: Vec<VertexId>,
    /// Weights for those entries, if the graph is weighted.
    pub weights: Option<Vec<Weight>>,
}

impl DecodedPartition {
    /// Whether global vertex `v` belongs to this partition.
    #[inline]
    pub fn owns(&self, v: VertexId) -> bool {
        v >= self.start && v < self.end
    }

    /// Neighbor list of global vertex `v` (must be owned).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        debug_assert!(self.owns(v));
        let i = (v - self.start) as usize;
        &self.col[self.local_row_ptr[i]..self.local_row_ptr[i + 1]]
    }

    /// Weights of `v`'s edges, if weighted.
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[Weight]> {
        let w = self.weights.as_ref()?;
        let i = (v - self.start) as usize;
        Some(&w[self.local_row_ptr[i]..self.local_row_ptr[i + 1]])
    }

    /// RAM bytes this decoded partition occupies.
    pub fn size_bytes(&self) -> usize {
        self.local_row_ptr.len() * std::mem::size_of::<usize>()
            + self.col.len() * std::mem::size_of::<VertexId>()
            + self.weights.as_ref().map_or(0, |w| w.len() * std::mem::size_of::<Weight>())
    }
}

// --- writer ----------------------------------------------------------------

/// Serializes `g` into `dir` as a partitioned store with `partitions`
/// contiguous equal vertex ranges (the §V-A geometry: O(1) partition
/// lookup) and the given `epoch` tag. Creates the directory; overwrites
/// any previous store in it.
pub fn write_store(dir: &Path, g: &Csr, partitions: usize, epoch: u64) -> Result<(), StoreError> {
    assert!(partitions >= 1, "need at least one partition");
    fs::create_dir_all(dir)?;
    let n = g.num_vertices();
    let per = n.div_ceil(partitions);
    let weighted = g.is_weighted();

    let mut metas: Vec<PartitionMeta> = Vec::with_capacity(partitions);
    for id in 0..partitions {
        let start = ((id * per).min(n)) as VertexId;
        let end = (((id + 1) * per).min(n)) as VertexId;
        let nv = (end - start) as usize;

        // The payload: one record per vertex (see the module doc).
        // Offsets are collected relative to the payload start.
        let mut payload: Vec<u8> = Vec::new();
        let mut offsets: Vec<u64> = Vec::with_capacity(nv + 1);
        let mut degrees: Vec<u8> = Vec::with_capacity(nv * 4);
        let mut edges = 0u64;
        for v in start..end {
            offsets.push(payload.len() as u64);
            let ns = g.neighbors(v);
            degrees.extend_from_slice(&(ns.len() as u32).to_le_bytes());
            edges += ns.len() as u64;
            encode_record(&mut payload, ns, g.neighbor_weights(v));
        }
        offsets.push(payload.len() as u64);

        let mut seg: Vec<u8> =
            Vec::with_capacity(SEG_HEADER_BYTES + (nv + 1) * 8 + nv * 4 + payload.len() + 8);
        seg.extend_from_slice(SEG_MAGIC);
        seg.extend_from_slice(&(id as u64).to_le_bytes());
        seg.extend_from_slice(&(start as u64).to_le_bytes());
        seg.extend_from_slice(&(end as u64).to_le_bytes());
        seg.extend_from_slice(&edges.to_le_bytes());
        seg.extend_from_slice(&(weighted as u64).to_le_bytes());
        for off in &offsets {
            seg.extend_from_slice(&off.to_le_bytes());
        }
        seg.extend_from_slice(&degrees);
        seg.extend_from_slice(&payload);
        let checksum = fnv1a(&seg);
        seg.extend_from_slice(&checksum.to_le_bytes());

        fs::File::create(dir.join(segment_name(id)))?.write_all(&seg)?;
        metas.push(PartitionMeta {
            start,
            end,
            edges,
            seg_len: seg.len() as u64,
            seg_checksum: checksum,
        });
    }

    let mut meta: Vec<u8> = Vec::new();
    meta.extend_from_slice(META_MAGIC);
    meta.extend_from_slice(&STORE_VERSION.to_le_bytes());
    meta.extend_from_slice(&(weighted as u32).to_le_bytes());
    meta.extend_from_slice(&epoch.to_le_bytes());
    meta.extend_from_slice(&(n as u64).to_le_bytes());
    meta.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    meta.extend_from_slice(&(partitions as u64).to_le_bytes());
    for m in &metas {
        meta.extend_from_slice(&(m.start as u64).to_le_bytes());
        meta.extend_from_slice(&(m.end as u64).to_le_bytes());
        meta.extend_from_slice(&m.edges.to_le_bytes());
        meta.extend_from_slice(&m.seg_len.to_le_bytes());
        meta.extend_from_slice(&m.seg_checksum.to_le_bytes());
    }
    let checksum = fnv1a(&meta);
    meta.extend_from_slice(&checksum.to_le_bytes());
    fs::File::create(dir.join("store.meta"))?.write_all(&meta)?;
    Ok(())
}

/// File name of partition `id`'s segment.
pub fn segment_name(id: usize) -> String {
    format!("part-{id:05}.seg")
}

/// The typed error for a bad record `i` of partition `p`.
fn bad_record(p: usize, i: usize, what: &str) -> StoreError {
    StoreError::Corrupt { file: segment_name(p), detail: format!("{what} in record {i}") }
}

// --- opened store ----------------------------------------------------------

/// A segment opened for reading: the mapping, validated at open.
#[derive(Debug)]
struct Segment {
    map: Mapped,
    /// Byte offset of the encoded payload.
    payload_off: usize,
    /// FNV-1a state after the header, offset index and degree array,
    /// which open read from the file: the checksum pass continues from
    /// it over the payload.
    head_hash: u64,
    /// Trailing checksum verified (lazily, before first decode).
    verified: AtomicBool,
}

/// An opened on-disk partitioned CSR store. `Sync`: the mappings are
/// read-only, so one `Arc<DiskStore>` serves every worker thread; each
/// worker keeps its *own* decoded-run pool (see `csaw_core::residency`).
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    epoch: u64,
    num_vertices: usize,
    num_edges: usize,
    weighted: bool,
    metas: Vec<PartitionMeta>,
    segments: Vec<Segment>,
    resident: Resident,
}

/// The per-vertex arrays [`DiskStore::open`] copies out of the segments'
/// degree arrays and offset indexes while it validates them, 12 bytes a
/// vertex: a point read or a degree lookup then touches no index page
/// and computes no partition.
#[derive(Debug)]
struct Resident {
    /// Per vertex: its out-degree.
    degree: Vec<u32>,
    /// Per vertex: its record's locator, `(partition << off_bits |
    /// offset) << 3 | width`, with the record's absolute byte offset in
    /// its segment and the id width its size implies (0 when empty).
    locs: Vec<u64>,
    /// Bits of a locator's offset field: enough for the largest segment.
    off_bits: u32,
}

impl DiskStore {
    /// Opens and verifies a store directory: the header is fully
    /// checksummed, every segment's size and header are checked against
    /// it, and each offset index is validated (monotonic, in-bounds).
    /// Segment payload checksums are verified lazily before first decode.
    pub fn open(dir: &Path) -> Result<DiskStore, StoreError> {
        let meta_path = dir.join("store.meta");
        let meta_name = "store.meta".to_string();
        let mut meta = Vec::new();
        fs::File::open(&meta_path)?.read_to_end(&mut meta)?;
        if meta.len() < 8 + 4 + 4 + 8 * 4 + 8 {
            return Err(StoreError::SizeMismatch {
                file: meta_name,
                expected: (8 + 4 + 4 + 8 * 4 + 8) as u64,
                found: meta.len() as u64,
            });
        }
        if &meta[..8] != META_MAGIC {
            return Err(StoreError::BadMagic { file: meta_name });
        }
        let body = &meta[..meta.len() - 8];
        let recorded = read_u64(&meta, meta.len() - 8).expect("length checked");
        if fnv1a(body) != recorded {
            return Err(StoreError::ChecksumMismatch { file: meta_name });
        }
        let version = read_u32(&meta, 8).expect("length checked");
        if version != STORE_VERSION {
            return Err(StoreError::BadVersion { found: version });
        }
        let weighted = read_u32(&meta, 12).expect("length checked") != 0;
        let epoch = read_u64(&meta, 16).expect("length checked");
        let num_vertices = read_u64(&meta, 24).expect("length checked") as usize;
        let num_edges = read_u64(&meta, 32).expect("length checked") as usize;
        let k = read_u64(&meta, 40).expect("length checked") as usize;
        let table_off = 48;
        let want = table_off + k * 40 + 8;
        if meta.len() != want {
            return Err(StoreError::SizeMismatch {
                file: meta_name,
                expected: want as u64,
                found: meta.len() as u64,
            });
        }
        if k == 0 {
            return Err(StoreError::Corrupt { file: meta_name, detail: "zero partitions".into() });
        }

        let mut metas = Vec::with_capacity(k);
        let mut total_edges = 0u64;
        for id in 0..k {
            let off = table_off + id * 40;
            let start = read_u64(&meta, off).expect("length checked");
            let end = read_u64(&meta, off + 8).expect("length checked");
            let edges = read_u64(&meta, off + 16).expect("length checked");
            let seg_len = read_u64(&meta, off + 24).expect("length checked");
            let seg_checksum = read_u64(&meta, off + 32).expect("length checked");
            if start > end || end > num_vertices as u64 || end > VertexId::MAX as u64 {
                return Err(StoreError::Corrupt {
                    file: meta_name,
                    detail: format!("partition {id} range {start}..{end} out of bounds"),
                });
            }
            total_edges += edges;
            metas.push(PartitionMeta {
                start: start as VertexId,
                end: end as VertexId,
                edges,
                seg_len,
                seg_checksum,
            });
        }
        if total_edges != num_edges as u64 {
            return Err(StoreError::Corrupt {
                file: meta_name,
                detail: format!("partition edges sum {total_edges} != {num_edges}"),
            });
        }

        let max_seg = metas.iter().map(|m| m.seg_len).max().unwrap_or(0);
        let off_bits = u64::BITS - max_seg.leading_zeros();
        if off_bits + 3 + (u64::BITS - (k as u64 - 1).leading_zeros()) > u64::BITS {
            return Err(StoreError::Corrupt {
                file: meta_name,
                detail: format!(
                    "{k} partitions of up to {max_seg} bytes overflow a record locator"
                ),
            });
        }
        let mut resident = Resident { degree: Vec::new(), locs: Vec::new(), off_bits };
        let mut segments = Vec::with_capacity(k);
        for (id, m) in metas.iter().enumerate() {
            if m.start as usize != resident.degree.len() {
                return Err(StoreError::Corrupt {
                    file: meta_name,
                    detail: format!("partition {id} does not start where the previous one ends"),
                });
            }
            segments.push(Self::open_segment(dir, id, m, weighted, num_vertices, &mut resident)?);
        }
        if resident.degree.len() != num_vertices {
            return Err(StoreError::Corrupt {
                file: meta_name,
                detail: format!(
                    "partitions cover {} of {num_vertices} vertices",
                    resident.degree.len()
                ),
            });
        }

        Ok(DiskStore {
            dir: dir.to_path_buf(),
            epoch,
            num_vertices,
            num_edges,
            weighted,
            metas,
            segments,
            resident,
        })
    }

    /// Opens one segment and validates everything that doesn't require
    /// streaming the payload: size vs header, magic, header fields vs
    /// the partition table, offset-index monotonicity and bounds. Appends
    /// each of its vertices' degree and record locator to `resident`.
    fn open_segment(
        dir: &Path,
        id: usize,
        m: &PartitionMeta,
        weighted: bool,
        num_vertices: usize,
        resident: &mut Resident,
    ) -> Result<Segment, StoreError> {
        let name = segment_name(id);
        let path = dir.join(&name);
        let found = fs::metadata(&path)?.len();
        if found != m.seg_len {
            return Err(StoreError::SizeMismatch { file: name, expected: m.seg_len, found });
        }
        let map = Mapped::open(&path)?;
        let len = map.bytes().len();
        if len as u64 != m.seg_len {
            return Err(StoreError::SizeMismatch {
                file: name,
                expected: m.seg_len,
                found: len as u64,
            });
        }
        let nv = m.num_vertices();
        let index_off = SEG_HEADER_BYTES;
        let degree_off = index_off + (nv + 1) * 8;
        let payload_off = degree_off + nv * 4;
        if len < payload_off + 8 {
            return Err(StoreError::SizeMismatch {
                file: name,
                expected: (payload_off + 8) as u64,
                found: len as u64,
            });
        }
        // The header, offset index and degree array are read from the
        // file, not the mapping: copied into `resident`, they are never
        // read again, so their pages need not stay in this process. The
        // file's length, checked above, bounds what is allocated here.
        let mut head = vec![0; payload_off];
        resident.degree.reserve(nv);
        resident.locs.reserve(nv);
        fs::File::open(&path)?.read_exact(&mut head)?;
        let bytes = &head[..];
        if &bytes[..8] != SEG_MAGIC {
            return Err(StoreError::BadMagic { file: name });
        }
        let corrupt = |detail: String| StoreError::Corrupt { file: name.clone(), detail };
        let hdr_id = read_u64(bytes, 8).expect("length checked");
        let hdr_start = read_u64(bytes, 16).expect("length checked");
        let hdr_end = read_u64(bytes, 24).expect("length checked");
        let hdr_edges = read_u64(bytes, 32).expect("length checked");
        let hdr_weighted = read_u64(bytes, 40).expect("length checked");
        if hdr_id != id as u64
            || hdr_start != m.start as u64
            || hdr_end != m.end as u64
            || hdr_edges != m.edges
            || hdr_weighted != weighted as u64
        {
            return Err(corrupt("segment header disagrees with store.meta".into()));
        }
        let payload_len = len - payload_off - 8;
        // Validate the fixed-width offset index and degree array: offsets
        // monotonic and in payload bounds, degrees summing to the edge
        // count, per-record sizes consistent with degree.
        let mut deg_sum = 0u64;
        for i in 0..nv {
            let off = read_u64(bytes, index_off + i * 8).expect("length checked");
            let next = read_u64(bytes, index_off + (i + 1) * 8).expect("length checked");
            if next < off || next > payload_len as u64 {
                return Err(corrupt(format!("offset index not monotonic at vertex {i}")));
            }
            let deg = read_u32(bytes, degree_off + i * 4).expect("length checked") as u64;
            deg_sum += deg;
            let rec = next - off;
            let wbytes = if weighted { deg * 4 } else { 0 };
            // Empty, or a width byte, `deg` ids of 1..=4 bytes each
            // and the weights.
            let width = match (rec.checked_sub(1 + wbytes), deg) {
                (_, 0) => (rec == wbytes).then_some(0),
                (Some(body), _) => (body % deg == 0
                    && (1..=MAX_WIDTH as u64).contains(&(body / deg)))
                .then_some(body / deg),
                (None, _) => None,
            };
            let Some(width) = width else {
                return Err(corrupt(format!("record size {rec} inconsistent with degree {deg}")));
            };
            resident.degree.push(deg as u32);
            let at = (id as u64) << resident.off_bits | (payload_off as u64 + off);
            resident.locs.push(at << 3 | width);
        }
        let first = read_u64(bytes, index_off).expect("length checked");
        let last = read_u64(bytes, index_off + nv * 8).expect("length checked");
        if first != 0 || last != payload_len as u64 {
            return Err(corrupt("offset index does not tile the payload".into()));
        }
        if deg_sum != m.edges {
            return Err(corrupt(format!("degree sum {deg_sum} != edge count {}", m.edges)));
        }
        if num_vertices > 0 && m.end as usize > num_vertices {
            return Err(corrupt("partition range exceeds vertex count".into()));
        }
        Ok(Segment { map, payload_off, head_hash: fnv1a(bytes), verified: AtomicBool::new(false) })
    }

    /// Directory this store was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The epoch tag recorded in the header.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// True if edges carry weights.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.metas.len()
    }

    /// The partition table.
    pub fn partitions(&self) -> &[PartitionMeta] {
        &self.metas
    }

    /// Partition owning vertex `v` of the store — O(1), read from its
    /// record locator.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> usize {
        self.locate(v).0
    }

    /// Out-degree of any vertex: one load from the resident degree array
    /// copied at open, no payload decode.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.resident.degree[v as usize] as usize
    }

    /// Every vertex's out-degree, indexed by vertex id: the resident
    /// array behind [`DiskStore::degree`].
    pub fn degrees(&self) -> &[u32] {
        &self.resident.degree
    }

    /// Vertex `v`'s partition, its record's absolute byte offset in that
    /// segment and the id width the record's size implies (0 when empty).
    #[inline]
    fn locate(&self, v: VertexId) -> (usize, usize, usize) {
        let Resident { ref locs, off_bits, .. } = self.resident;
        let (at, w) = (locs[v as usize] >> 3, locs[v as usize] & 7);
        ((at >> off_bits) as usize, (at & ((1 << off_bits) - 1)) as usize, w as usize)
    }

    /// RAM bytes a decoded copy of partition `p` occupies.
    pub fn decoded_bytes(&self, p: usize) -> usize {
        self.metas[p].decoded_bytes(self.weighted)
    }

    /// Sum of [`DiskStore::decoded_bytes`] over all partitions — the RAM
    /// an unbounded pool would grow to.
    pub fn total_decoded_bytes(&self) -> usize {
        (0..self.metas.len()).map(|p| self.decoded_bytes(p)).sum()
    }

    /// Verifies segment `p`'s trailing checksum once (lazily, before its
    /// first decode); corrupt bytes yield a typed error, never a panic.
    #[inline]
    fn verify_segment(&self, p: usize) -> Result<(), StoreError> {
        match self.segments[p].verified.load(Ordering::Acquire) {
            true => Ok(()),
            false => self.verify_checksum(p),
        }
    }

    /// [`DiskStore::verify_segment`]'s first pass over segment `p`.
    #[cold]
    fn verify_checksum(&self, p: usize) -> Result<(), StoreError> {
        let seg = &self.segments[p];
        let bytes = seg.map.bytes();
        let payload = &bytes[seg.payload_off..bytes.len() - 8];
        let recorded = read_u64(bytes, bytes.len() - 8).expect("validated at open");
        if fnv1a_from(seg.head_hash, payload) != recorded || recorded != self.metas[p].seg_checksum
        {
            return Err(StoreError::ChecksumMismatch { file: segment_name(p) });
        }
        seg.verified.store(true, Ordering::Release);
        Ok(())
    }

    /// Vertex `i` of partition `p`: its degree, its record and the
    /// record's byte offset in the segment, located through the resident
    /// arrays (the size the offset index gave it at open is `1 + d·w`,
    /// plus `4·d` of weights). The segment's name is built only when an
    /// error needs it: the miss paths must not allocate.
    fn record(&self, p: usize, i: usize) -> Result<(usize, &[u8], usize), StoreError> {
        let v = self.metas[p].start + i as VertexId;
        let deg = self.degree(v);
        let (_, first, w) = self.locate(v);
        let len = if deg == 0 { 0 } else { 1 + deg * (w + 4 * self.weighted as usize) };
        let rec = self.segments[p].map.bytes().get(first..first + len).ok_or_else(|| {
            StoreError::Corrupt {
                file: segment_name(p),
                detail: format!("record {i} out of payload bounds"),
            }
        })?;
        Ok((deg, rec, first))
    }

    /// Decodes partition `p` out of its mapped segment. The first decode
    /// of each segment verifies its trailing checksum (one streaming
    /// pass); corrupt bytes yield a typed error, never a panic.
    pub fn decode_partition(&self, p: usize) -> Result<DecodedPartition, StoreError> {
        self.verify_segment(p)?;
        let m = &self.metas[p];
        let nv = m.num_vertices();
        let mut local_row_ptr = Vec::with_capacity(nv + 1);
        let mut col: Vec<VertexId> = Vec::with_capacity(m.edges as usize);
        let mut weights: Option<Vec<Weight>> =
            if self.weighted { Some(Vec::with_capacity(m.edges as usize)) } else { None };
        local_row_ptr.push(0);
        for i in 0..nv {
            let (deg, rec, _) = self.record(p, i)?;
            decode_record(rec, deg, self.num_vertices, &mut col, weights.as_mut(), self.weighted)
                .map_err(|e| bad_record(p, i, e))?;
            local_row_ptr.push(col.len());
        }
        Ok(DecodedPartition { start: m.start, end: m.end, local_row_ptr, col, weights })
    }

    /// Decodes just vertex `v`'s neighbor run out of its mapped segment,
    /// appending neighbors (and, when the store is weighted, weights) to
    /// the caller's buffers — O(degree(v)): the fixed-width offset index
    /// locates the record without touching the rest of the payload. This
    /// is the residency hierarchy's miss path for a step that reads the
    /// whole run (its pool holds vertex runs), so it allocates nothing
    /// when the buffers already have room for `degree(v)` entries.
    /// Returns the simulated 4 KiB page faults charged (one for the
    /// index/degree reads plus the record's span). The first decode
    /// touching a segment verifies its trailing checksum, exactly like
    /// [`DiskStore::decode_partition`].
    pub fn decode_vertex(
        &self,
        v: VertexId,
        col: &mut Vec<VertexId>,
        weights: Option<&mut Vec<Weight>>,
    ) -> Result<u64, StoreError> {
        let p = self.partition_of(v);
        self.verify_segment(p)?;
        let i = (v - self.metas[p].start) as usize;
        let (deg, rec, first) = self.record(p, i)?;
        decode_record(rec, deg, self.num_vertices, col, weights, self.weighted)
            .map_err(|e| bad_record(p, i, e))?;
        let span = match rec.len() {
            0 => 0,
            len => ((first + len - 1) / PAGE_BYTES - first / PAGE_BYTES + 1) as u64,
        };
        Ok(1 + span)
    }

    /// Neighbor `k` of vertex `v` and its weight (when the store is
    /// weighted), read in place — O(1): the resident degree and locator,
    /// the width byte and one masked `u32` load, no decode and no
    /// allocation. The uniform walk step needs nothing more. A `k` past
    /// `v`'s degree is [`StoreError::NoSuchNeighbor`]; a width byte that is
    /// not the one the record's size implies, or an id outside the store,
    /// is [`StoreError::Corrupt`]. Like a decode, the first read touching a
    /// segment verifies its trailing checksum.
    #[inline]
    pub fn neighbor_at(
        &self,
        v: VertexId,
        k: usize,
    ) -> Result<(VertexId, Option<Weight>), StoreError> {
        let Some(&deg) = self.resident.degree.get(v as usize) else {
            return Err(StoreError::NoSuchNeighbor { vertex: v, k, degree: 0 });
        };
        let deg = deg as usize;
        if k >= deg {
            return Err(StoreError::NoSuchNeighbor { vertex: v, k, degree: deg });
        }
        let (p, first, w) = self.locate(v);
        self.verify_segment(p)?;
        let bytes = self.segments[p].map.bytes();
        let bad = |what| bad_record(p, (v - self.metas[p].start) as usize, what);
        let wb = usize::from(bytes[first]);
        if wb != w {
            return Err(bad(match wb {
                1..=MAX_WIDTH => "id width disagrees with the record size",
                _ => "bad id width",
            }));
        }
        // A whole `u32` load, masked to the width: the segment's trailing
        // checksum keeps the bytes past the record's last id in bounds.
        let word = read_u32(bytes, first + 1 + k * w).expect("a checksum follows the payload");
        let u = word & (u32::MAX >> (32 - 8 * w));
        if u as usize >= self.num_vertices {
            return Err(bad("neighbor out of range"));
        }
        let weight = |at| f32::from_bits(read_u32(bytes, at).expect("validated at open"));
        Ok((u, self.weighted.then(|| weight(first + 1 + deg * w + k * 4))))
    }

    /// Decodes the whole store back into one in-memory [`Csr`] —
    /// convenience for tools and tests (the inverse of [`write_store`]).
    pub fn load_csr(&self) -> Result<Csr, StoreError> {
        let mut row_ptr = Vec::with_capacity(self.num_vertices + 1);
        let mut col = Vec::with_capacity(self.num_edges);
        let mut weights =
            if self.weighted { Some(Vec::with_capacity(self.num_edges)) } else { None };
        row_ptr.push(0usize);
        for p in 0..self.num_partitions() {
            let d = self.decode_partition(p)?;
            for w in d.local_row_ptr.windows(2) {
                row_ptr.push(col.len() + w[1]);
            }
            col.extend_from_slice(&d.col);
            if let (Some(ws), Some(dw)) = (weights.as_mut(), d.weights.as_ref()) {
                ws.extend_from_slice(dw);
            }
        }
        Ok(Csr::from_parts(row_ptr, col, weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{rmat, toy_graph, RmatParams};

    fn tmp_dir(name: &str) -> PathBuf {
        let base = std::env::var_os("CSAW_DISK_TMPDIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!("csaw-store-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn round_trip(g: &Csr, k: usize, name: &str) {
        let dir = tmp_dir(name);
        write_store(&dir, g, k, 7).expect("write");
        let store = DiskStore::open(&dir).expect("open");
        assert_eq!(store.epoch(), 7);
        assert_eq!(store.num_vertices(), g.num_vertices());
        assert_eq!(store.num_edges(), g.num_edges());
        assert_eq!(store.is_weighted(), g.is_weighted());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(store.degree(v), g.degree(v), "degree of {v}");
            let p = store.partition_of(v);
            let d = store.decode_partition(p).expect("decode");
            assert_eq!(d.neighbors(v), g.neighbors(v), "neighbors of {v}");
            assert_eq!(d.neighbor_weights(v), g.neighbor_weights(v));
        }
        assert_eq!(&store.load_csr().expect("load"), g);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_toy_graph() {
        round_trip(&toy_graph(), 3, "toy");
    }

    #[test]
    fn round_trips_weighted_rmat() {
        let g = rmat(8, 6, RmatParams::GRAPH500, 11).with_unit_weights();
        round_trip(&g, 5, "wrmat");
    }

    #[test]
    fn round_trips_more_partitions_than_vertices() {
        round_trip(&toy_graph(), 20, "manyparts");
    }

    #[test]
    fn round_trips_empty_graph() {
        round_trip(&Csr::empty(5), 2, "empty");
    }

    #[test]
    fn truncated_meta_is_typed_error() {
        let dir = tmp_dir("truncmeta");
        write_store(&dir, &toy_graph(), 2, 0).unwrap();
        let meta = dir.join("store.meta");
        let bytes = fs::read(&meta).unwrap();
        fs::write(&meta, &bytes[..bytes.len() - 3]).unwrap();
        assert!(DiskStore::open(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_segment_is_typed_error() {
        let dir = tmp_dir("truncseg");
        write_store(&dir, &toy_graph(), 2, 0).unwrap();
        let seg = dir.join(segment_name(1));
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap();
        match DiskStore::open(&dir) {
            Err(StoreError::SizeMismatch { .. }) => {}
            other => panic!("expected SizeMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_meta_byte_is_checksum_error() {
        let dir = tmp_dir("flipmeta");
        write_store(&dir, &toy_graph(), 2, 0).unwrap();
        let meta = dir.join("store.meta");
        let mut bytes = fs::read(&meta).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&meta, &bytes).unwrap();
        assert!(DiskStore::open(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_payload_byte_is_caught_before_decode() {
        let dir = tmp_dir("flipseg");
        let g = rmat(7, 4, RmatParams::MILD, 3);
        write_store(&dir, &g, 3, 0).unwrap();
        let seg = dir.join(segment_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let payload_ish = bytes.len() - 16; // inside payload, before checksum
        bytes[payload_ish] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();
        // Open may already reject (index checks); if it doesn't, the
        // first decode must — either way a typed error, never a panic.
        match DiskStore::open(&dir) {
            Err(_) => {}
            Ok(store) => {
                assert!(store.decode_partition(0).is_err());
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_typed_error() {
        let dir = tmp_dir("badmagic");
        write_store(&dir, &toy_graph(), 1, 0).unwrap();
        let meta = dir.join("store.meta");
        let mut bytes = fs::read(&meta).unwrap();
        bytes[0] = b'X';
        fs::write(&meta, &bytes).unwrap();
        match DiskStore::open(&dir) {
            Err(StoreError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_io_error() {
        match DiskStore::open(Path::new("/nonexistent/csaw-store")) {
            Err(StoreError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn fallback_reader_matches_mmap() {
        // The CSAW_NO_MMAP path must serve identical bytes.
        let dir = tmp_dir("fallback");
        let g = rmat(7, 4, RmatParams::MILD, 9);
        write_store(&dir, &g, 4, 0).unwrap();
        let path = dir.join(segment_name(0));
        let direct = fs::read(&path).unwrap();
        let mapped = Mapped::open(&path).unwrap();
        assert_eq!(mapped.bytes(), &direct[..]);
        let owned = Mapped::open_read(&path).unwrap();
        assert!(!owned.is_mmap());
        assert_eq!(owned.bytes(), &direct[..]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The width byte of vertex `v`'s record, read off the mapping.
    fn width_byte(store: &DiskStore, v: VertexId) -> u8 {
        let p = store.partition_of(v);
        let (_, rec, _) = store.record(p, (v - store.metas[p].start) as usize).unwrap();
        rec[0]
    }

    /// Rows whose largest id needs exactly 1, 2 and 3 bytes, unsorted
    /// rows and zero-degree vertices, plain and weighted.
    #[test]
    fn round_trips_every_test_reachable_width() {
        let n = 70_000;
        let rows: [&[VertexId]; 6] = [
            &[60, 3],             // largest id 60: 1 byte
            &[],                  // zero degree
            &[10, 300],           // largest id 300: 2 bytes
            &[69_999, 5, 40_000], // largest id 69 999: 3 bytes
            &[9, 2, 1, 0],        // unsorted, 1 byte
            &[],
        ];
        let mut row_ptr = vec![0];
        let mut col = Vec::new();
        for r in rows {
            col.extend_from_slice(r);
            row_ptr.push(col.len());
        }
        row_ptr.resize(n + 1, col.len());
        let g = Csr::from_parts(row_ptr, col, None);
        let weights = (0..g.num_edges()).map(|i| 0.5 + i as f32).collect();
        for (g, name) in [(g.clone(), "widths"), (g.with_weights(weights), "wwidths")] {
            let dir = tmp_dir(name);
            write_store(&dir, &g, 2, 0).unwrap();
            let store = DiskStore::open(&dir).unwrap();
            assert_eq!(&store.load_csr().unwrap(), &g);
            for v in 0..rows.len() as VertexId {
                let (mut col, mut ws) = (Vec::new(), g.is_weighted().then(Vec::new));
                store.decode_vertex(v, &mut col, ws.as_mut()).unwrap();
                assert_eq!(
                    (col.as_slice(), ws.as_deref()),
                    (g.neighbors(v), g.neighbor_weights(v))
                );
            }
            let widths: Vec<u8> = [0, 2, 3, 4].iter().map(|&v| width_byte(&store, v)).collect();
            assert_eq!(widths, [1, 2, 3, 1]);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn decode_record_reads_width_four() {
        // Hand-built: vertex 2^30 needs 4 bytes.
        let four = [4u8, 0, 0, 0, 0x40, 7, 0, 0, 0];
        let mut col = Vec::new();
        decode_record(&four, 2, (1 << 30) + 1, &mut col, None, false).unwrap();
        assert_eq!(col, [1 << 30, 7]);
        // The encoder picks the width of the largest id, whatever its
        // position, and the weights follow the ids.
        for (ns, w) in [(&[7u32, 1 << 30][..], 4), (&[u32::MAX, 0][..], 4), (&[255, 0][..], 1)] {
            let mut rec = Vec::new();
            encode_record(&mut rec, ns, Some(&[1.5, 2.5]));
            assert_eq!(usize::from(rec[0]), w);
            let (mut col, mut ws) = (Vec::new(), Vec::new());
            decode_record(&rec, 2, 1 << 32, &mut col, Some(&mut ws), true).unwrap();
            assert_eq!((col.as_slice(), ws.as_slice()), (ns, &[1.5, 2.5][..]));
        }
    }

    #[test]
    fn decode_record_rejects_bad_widths_sizes_and_ids() {
        let decode = |rec: &[u8], deg, n| decode_record(rec, deg, n, &mut Vec::new(), None, false);
        assert_eq!(decode(&[1, 2, 2], 2, 8), Ok(()));
        assert_eq!(decode(&[], 2, 8), Err("bad id width"));
        assert_eq!(decode(&[0, 2, 2], 2, 8), Err("bad id width"));
        assert_eq!(decode(&[5, 2, 2], 2, 8), Err("bad id width"));
        assert_eq!(decode(&[2, 2, 2], 2, 8), Err("id width disagrees with the record size"));
        assert_eq!(decode(&[1, 2, 2, 2], 2, 8), Err("id width disagrees with the record size"));
        assert_eq!(decode(&[1], 0, 8), Err("bytes in an empty record"));
        // Id 5 is past n = 5, wherever it sits in the run.
        assert_eq!(decode(&[1, 5, 0], 2, 5), Err("neighbor out of range"));
        assert_eq!(decode(&[1, 0, 5], 2, 5), Err("neighbor out of range"));
        assert_eq!(decode(&[4, 0xff, 0xff, 0xff, 0xff], 1, 8), Err("neighbor out of range"));
    }

    /// Writes `g`, applies `edit` to segment `p`'s bytes (given the
    /// payload offset), then reseals the segment and `store.meta`
    /// checksums, so only the format checks can catch the edit.
    fn resealed_store(
        g: &Csr,
        name: &str,
        p: usize,
        edit: impl FnOnce(&mut [u8], usize),
    ) -> PathBuf {
        let dir = tmp_dir(name);
        write_store(&dir, g, 2, 0).unwrap();
        let payload_off = {
            let store = DiskStore::open(&dir).unwrap();
            store.segments[p].payload_off
        };
        let path = dir.join(segment_name(p));
        let mut seg = fs::read(&path).unwrap();
        let body = seg.len() - 8;
        edit(&mut seg[..body], payload_off);
        let sum = fnv1a(&seg[..body]);
        seg[body..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &seg).unwrap();
        let mut meta = fs::read(dir.join("store.meta")).unwrap();
        let at = 48 + p * 40 + 32;
        meta[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        reseal_meta(&dir, &mut meta);
        dir
    }

    fn reseal_meta(dir: &Path, meta: &mut [u8]) {
        let body = meta.len() - 8;
        let sum = fnv1a(&meta[..body]);
        meta[body..].copy_from_slice(&sum.to_le_bytes());
        fs::write(dir.join("store.meta"), meta).unwrap();
    }

    #[test]
    fn bad_record_bytes_are_typed_errors_on_both_decode_paths() {
        // Vertex 0's record: width 1, neighbors 1 and 2.
        let g = Csr::from_parts(vec![0, 2, 3, 4, 4], vec![1, 2, 0, 0], None);
        let edits: [(&str, usize, u8); 4] = [
            ("flipwidth", 0, 2), // 1 -> 2: the size says 1
            ("width0", 0, 0),
            ("width5", 0, 5),
            ("idout", 2, 0x0c), // neighbor 12, past n = 4
        ];
        for (name, at, byte) in edits {
            let dir = resealed_store(&g, name, 0, |seg, payload| seg[payload + at] = byte);
            let store = DiskStore::open(&dir).expect("sizes still agree");
            assert!(matches!(store.decode_partition(0), Err(StoreError::Corrupt { .. })), "{name}");
            let r = store.decode_vertex(0, &mut Vec::new(), None);
            assert!(matches!(r, Err(StoreError::Corrupt { .. })), "{name}: {r:?}");
            let r = store.neighbor_at(0, 1);
            assert!(matches!(r, Err(StoreError::Corrupt { .. })), "{name}: {r:?}");
            let mut col = Vec::new();
            store.decode_vertex(1, &mut col, None).expect("other records still decode");
            assert_eq!(col, [0]);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn record_size_that_fits_no_width_fails_open() {
        // Vertex 0 has two neighbors and a 3-byte record: shift the
        // offset index so it claims 4 bytes, which is no width.
        let g = Csr::from_parts(vec![0, 2, 3, 4, 4], vec![1, 2, 0, 0], None);
        let dir = resealed_store(&g, "nowidth", 0, |seg, _| {
            seg[SEG_HEADER_BYTES + 8] += 1;
        });
        match DiskStore::open(&dir) {
            Err(StoreError::Corrupt { detail, .. }) => assert!(detail.contains("record size")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Version 1 (varint deltas) and version 2 (fixed-width deltas) have
    /// no reader: rewrite the store.
    #[test]
    fn older_version_stores_are_bad_version() {
        let dir = tmp_dir("oldversion");
        write_store(&dir, &toy_graph(), 2, 0).unwrap();
        let mut meta = fs::read(dir.join("store.meta")).unwrap();
        for old in [1u32, 2] {
            meta[8..12].copy_from_slice(&old.to_le_bytes());
            reseal_meta(&dir, &mut meta);
            match DiskStore::open(&dir) {
                Err(StoreError::BadVersion { found }) => assert_eq!(found, old),
                other => panic!("expected BadVersion, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decoded_bytes_matches_partition_accounting() {
        let g = rmat(7, 4, RmatParams::MILD, 5);
        let dir = tmp_dir("bytes");
        write_store(&dir, &g, 4, 0).unwrap();
        let store = DiskStore::open(&dir).unwrap();
        let parts = crate::partition::PartitionSet::equal_ranges(&g, 4);
        for p in 0..4 {
            let want = parts.get(p).size_bytes();
            assert_eq!(store.decoded_bytes(p), want, "partition {p}");
            assert_eq!(store.decode_partition(p).unwrap().size_bytes(), want);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
