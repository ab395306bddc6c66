//! On-disk partitioned CSR store: the third storage tier.
//!
//! The out-of-memory runtime (paper §V) streams partitions between host
//! and device memory; this module extends the hierarchy one level down so
//! the *host* side no longer has to hold the whole CSR either. A store is
//! a directory of per-partition **segment files** — delta-encoded varint
//! neighbor lists behind a fixed-width offset index — plus a checksummed
//! `store.meta` header carrying the epoch and the partition table.
//!
//! Readers map segments with `mmap(2)` (a hand-declared libc binding —
//! the workspace is hermetic) and decode partitions on demand; the
//! resident surface before any decode is O(num_vertices): the offset
//! index and the fixed-width degree array, both served straight from the
//! mapping. Degree lookups therefore never touch the encoded payload,
//! which is what lets algorithm hooks (`g.degree(u)` over neighbors,
//! node2vec's `ISNEIGHBOR`) run against a disk-backed graph.
//!
//! Integrity is typed, never a panic: `store.meta` is fully verified at
//! [`DiskStore::open`] (magic, version, sizes, FNV-1a checksum), segment
//! headers and offset indexes are validated at open, and each segment's
//! trailing checksum is verified once, before its first decode. Any
//! truncated or byte-flipped file surfaces as a [`StoreError`].
//!
//! Decoded partitions come back in exactly the shape of
//! [`crate::partition::Partition`] — rebased local row pointer, global
//! column ids, optional weights — and decoding is bit-exact: a store
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
/// On-disk format version.
pub const STORE_VERSION: u32 = 1;
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
    /// Structurally invalid content (non-monotonic index, varint
    /// overrun, out-of-range vertex id, ...).
    Corrupt {
        /// File that failed the check.
        file: String,
        /// What was wrong.
        detail: String,
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
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// --- varint + zigzag -------------------------------------------------------

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads one LEB128 varint from `buf` starting at `*pos`, advancing it.
/// Returns `None` on overrun or on a varint longer than 10 bytes.
#[inline]
fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
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

/// A partition decoded out of its segment — the exact shape of
/// [`crate::partition::Partition`], reproduced bit-for-bit from the
/// source CSR.
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

        // Payload: per vertex, zigzag-delta varint neighbors then raw
        // little-endian f32 weights. Offsets are collected relative to
        // the payload start.
        let mut payload: Vec<u8> = Vec::new();
        let mut offsets: Vec<u64> = Vec::with_capacity(nv + 1);
        let mut degrees: Vec<u8> = Vec::with_capacity(nv * 4);
        let mut edges = 0u64;
        for v in start..end {
            offsets.push(payload.len() as u64);
            let ns = g.neighbors(v);
            degrees.extend_from_slice(&(ns.len() as u32).to_le_bytes());
            edges += ns.len() as u64;
            let mut prev: i64 = 0;
            for &u in ns {
                write_varint(&mut payload, zigzag(u as i64 - prev));
                prev = u as i64;
            }
            if let Some(ws) = g.neighbor_weights(v) {
                for &w in ws {
                    payload.extend_from_slice(&w.to_le_bytes());
                }
            }
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

// --- opened store ----------------------------------------------------------

/// A segment opened for reading: the mapping plus the derived region
/// bounds, validated at open.
#[derive(Debug)]
struct Segment {
    map: Mapped,
    /// Byte offset of the fixed-width offset index.
    index_off: usize,
    /// Byte offset of the fixed-width degree array.
    degree_off: usize,
    /// Byte offset of the encoded payload.
    payload_off: usize,
    /// Payload length in bytes.
    payload_len: usize,
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
    per: usize,
    metas: Vec<PartitionMeta>,
    segments: Vec<Segment>,
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

        let per = metas[0].num_vertices().max(1);
        let mut segments = Vec::with_capacity(k);
        for (id, m) in metas.iter().enumerate() {
            segments.push(Self::open_segment(dir, id, m, weighted, num_vertices)?);
        }

        Ok(DiskStore {
            dir: dir.to_path_buf(),
            epoch,
            num_vertices,
            num_edges,
            weighted,
            per,
            metas,
            segments,
        })
    }

    /// Opens one segment and validates everything that doesn't require
    /// streaming the payload: size vs header, magic, header fields vs
    /// the partition table, offset-index monotonicity and bounds.
    fn open_segment(
        dir: &Path,
        id: usize,
        m: &PartitionMeta,
        weighted: bool,
        num_vertices: usize,
    ) -> Result<Segment, StoreError> {
        let name = segment_name(id);
        let path = dir.join(&name);
        let found = fs::metadata(&path)?.len();
        if found != m.seg_len {
            return Err(StoreError::SizeMismatch { file: name, expected: m.seg_len, found });
        }
        let map = Mapped::open(&path)?;
        let bytes = map.bytes();
        if bytes.len() as u64 != m.seg_len {
            return Err(StoreError::SizeMismatch {
                file: name,
                expected: m.seg_len,
                found: bytes.len() as u64,
            });
        }
        let nv = m.num_vertices();
        let index_off = SEG_HEADER_BYTES;
        let degree_off = index_off + (nv + 1) * 8;
        let payload_off = degree_off + nv * 4;
        if bytes.len() < payload_off + 8 {
            return Err(StoreError::SizeMismatch {
                file: name,
                expected: (payload_off + 8) as u64,
                found: bytes.len() as u64,
            });
        }
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
        let payload_len = bytes.len() - payload_off - 8;
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
            // Each neighbor's varint is 1..=10 bytes.
            if rec < deg + wbytes || rec > deg * 10 + wbytes {
                return Err(corrupt(format!("record size {rec} inconsistent with degree {deg}")));
            }
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
        Ok(Segment {
            map,
            index_off,
            degree_off,
            payload_off,
            payload_len,
            verified: AtomicBool::new(false),
        })
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

    /// Partition owning vertex `v` — O(1), the equal-range arithmetic of
    /// `PartitionSet::partition_of`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> usize {
        (v as usize / self.per).min(self.metas.len() - 1)
    }

    /// Out-degree of any vertex, served from the segment's resident
    /// fixed-width degree array — O(1), no payload decode.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let p = self.partition_of(v);
        let seg = &self.segments[p];
        let i = (v - self.metas[p].start) as usize;
        read_u32(seg.map.bytes(), seg.degree_off + i * 4).expect("validated at open") as usize
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

    /// Simulated page faults charged for streaming partition `p`'s
    /// segment out of the mapping (4 KiB pages).
    pub fn segment_pages(&self, p: usize) -> u64 {
        (self.metas[p].seg_len as usize).div_ceil(PAGE_BYTES) as u64
    }

    /// Verifies segment `p`'s trailing checksum once (lazily, before its
    /// first decode); corrupt bytes yield a typed error, never a panic.
    fn verify_segment(&self, p: usize) -> Result<(), StoreError> {
        let seg = &self.segments[p];
        if seg.verified.load(Ordering::Acquire) {
            return Ok(());
        }
        let bytes = seg.map.bytes();
        let body = &bytes[..bytes.len() - 8];
        let recorded = read_u64(bytes, bytes.len() - 8).expect("validated at open");
        if fnv1a(body) != recorded || recorded != self.metas[p].seg_checksum {
            return Err(StoreError::ChecksumMismatch { file: segment_name(p) });
        }
        seg.verified.store(true, Ordering::Release);
        Ok(())
    }

    /// Decodes partition `p` out of its mapped segment. The first decode
    /// of each segment verifies its trailing checksum (one streaming
    /// pass); corrupt bytes yield a typed error, never a panic.
    pub fn decode_partition(&self, p: usize) -> Result<DecodedPartition, StoreError> {
        self.verify_segment(p)?;
        let m = &self.metas[p];
        let seg = &self.segments[p];
        let bytes = seg.map.bytes();
        let corrupt = |detail: String| StoreError::Corrupt { file: segment_name(p), detail };
        let nv = m.num_vertices();
        let payload = &bytes[seg.payload_off..seg.payload_off + seg.payload_len];
        let mut local_row_ptr = Vec::with_capacity(nv + 1);
        let mut col: Vec<VertexId> = Vec::with_capacity(m.edges as usize);
        let mut weights: Option<Vec<Weight>> =
            if self.weighted { Some(Vec::with_capacity(m.edges as usize)) } else { None };
        local_row_ptr.push(0);
        for i in 0..nv {
            let deg = read_u32(bytes, seg.degree_off + i * 4).expect("validated at open") as usize;
            let off = read_u64(bytes, seg.index_off + i * 8).expect("validated at open") as usize;
            let end =
                read_u64(bytes, seg.index_off + (i + 1) * 8).expect("validated at open") as usize;
            let rec = payload
                .get(off..end)
                .ok_or_else(|| corrupt(format!("record {i} out of payload bounds")))?;
            let mut pos = 0usize;
            let mut prev: i64 = 0;
            for _ in 0..deg {
                let raw = read_varint(rec, &mut pos)
                    .ok_or_else(|| corrupt(format!("varint overrun in record {i}")))?;
                let u = prev + unzigzag(raw);
                if u < 0 || u >= self.num_vertices as i64 {
                    return Err(corrupt(format!("neighbor {u} out of range in record {i}")));
                }
                col.push(u as VertexId);
                prev = u;
            }
            if let Some(ws) = weights.as_mut() {
                let need = deg * 4;
                let wrec = rec
                    .get(pos..pos + need)
                    .ok_or_else(|| corrupt(format!("weight block overrun in record {i}")))?;
                for c in wrec.chunks_exact(4) {
                    ws.push(f32::from_le_bytes(c.try_into().expect("chunk of 4")));
                }
                pos += need;
            }
            if pos != rec.len() {
                return Err(corrupt(format!("trailing bytes in record {i}")));
            }
            local_row_ptr.push(col.len());
        }
        Ok(DecodedPartition { start: m.start, end: m.end, local_row_ptr, col, weights })
    }

    /// Decodes just vertex `v`'s neighbor run out of its mapped segment,
    /// appending neighbors (and, when the store is weighted, weights) to
    /// the caller's buffers — O(degree(v)): the fixed-width offset index
    /// locates the record without touching the rest of the payload. This
    /// is the residency hierarchy's miss path (its pool holds vertex
    /// runs), so it allocates nothing when the buffers already have
    /// room for `degree(v)` entries. Returns the simulated 4 KiB page
    /// faults charged (one for the index/degree reads plus the record's
    /// span). The first decode touching a segment verifies its trailing
    /// checksum, exactly like [`DiskStore::decode_partition`].
    pub fn decode_vertex(
        &self,
        v: VertexId,
        col: &mut Vec<VertexId>,
        weights: Option<&mut Vec<Weight>>,
    ) -> Result<u64, StoreError> {
        let p = self.partition_of(v);
        self.verify_segment(p)?;
        let m = &self.metas[p];
        let seg = &self.segments[p];
        let bytes = seg.map.bytes();
        // The segment's name is built only when an error needs it: this
        // runs once per pool miss and must not allocate on success.
        let corrupt = |detail: String| StoreError::Corrupt { file: segment_name(p), detail };
        let i = (v - m.start) as usize;
        let deg = read_u32(bytes, seg.degree_off + i * 4).expect("validated at open") as usize;
        let off = read_u64(bytes, seg.index_off + i * 8).expect("validated at open") as usize;
        let end = read_u64(bytes, seg.index_off + (i + 1) * 8).expect("validated at open") as usize;
        let payload = &bytes[seg.payload_off..seg.payload_off + seg.payload_len];
        let rec = payload
            .get(off..end)
            .ok_or_else(|| corrupt(format!("record {i} out of payload bounds")))?;
        let mut pos = 0usize;
        let mut prev: i64 = 0;
        // Open checked `deg` against the record's size, so this is
        // bounded by the segment; it makes the loop's pushes growth-free.
        col.reserve(deg);
        for _ in 0..deg {
            let raw = read_varint(rec, &mut pos)
                .ok_or_else(|| corrupt(format!("varint overrun in record {i}")))?;
            let u = prev + unzigzag(raw);
            if u < 0 || u >= self.num_vertices as i64 {
                return Err(corrupt(format!("neighbor {u} out of range in record {i}")));
            }
            col.push(u as VertexId);
            prev = u;
        }
        if self.weighted {
            let need = deg * 4;
            let wrec = rec
                .get(pos..pos + need)
                .ok_or_else(|| corrupt(format!("weight block overrun in record {i}")))?;
            if let Some(ws) = weights {
                ws.reserve(deg);
                for c in wrec.chunks_exact(4) {
                    ws.push(f32::from_le_bytes(c.try_into().expect("chunk of 4")));
                }
            }
            pos += need;
        }
        if pos != rec.len() {
            return Err(corrupt(format!("trailing bytes in record {i}")));
        }
        let first = seg.payload_off + off;
        let span = if end > off {
            ((seg.payload_off + end - 1) / PAGE_BYTES - first / PAGE_BYTES + 1) as u64
        } else {
            0
        };
        Ok(1 + span)
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

    #[test]
    fn varint_zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, 300, -300, i32::MAX as i64, -(i32::MAX as i64)] {
            let mut buf = Vec::new();
            write_varint(&mut buf, zigzag(v));
            let mut pos = 0;
            assert_eq!(unzigzag(read_varint(&buf, &mut pos).unwrap()), v);
            assert_eq!(pos, buf.len());
        }
        // Overrun returns None, never panics.
        let mut pos = 0;
        assert!(read_varint(&[0x80, 0x80], &mut pos).is_none());
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
        assert!(store.segment_pages(0) >= 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
