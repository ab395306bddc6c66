//! Asynchronous host-to-device transfer model (`cudaMemcpyAsync` analog).
//!
//! The out-of-memory runtime overlaps partition transfers with sampling by
//! issuing copies and kernels on CUDA streams (§V-B: "Non-blocking
//! cudaMemcpyAsync is used to copy partitions to the GPU memory
//! asynchronously... one GPU kernel to one active partition along with a
//! CUDA stream, in order to overlap the data transfer and sampling").
//!
//! This engine keeps one timeline per stream plus a shared PCIe bus
//! timeline: copies on different streams overlap compute but serialize on
//! the bus, which is exactly the constraint that makes workload-aware
//! scheduling (fewer transfers) pay off.

use serde::{Deserialize, Serialize};

/// Errors from the transfer engine.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferError {
    /// Stream index out of range.
    BadStream {
        /// The requested stream.
        stream: usize,
        /// How many streams the engine has.
        streams: usize,
    },
    /// Zero-byte copy (always a caller bug).
    EmptyCopy,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::BadStream { stream, streams } => {
                write!(f, "stream {stream} out of range (engine has {streams})")
            }
            TransferError::EmptyCopy => write!(f, "zero-byte transfer"),
        }
    }
}

impl std::error::Error for TransferError {}

/// Simulated async copy engine with per-stream and bus timelines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferEngine {
    pcie_gbps: f64,
    /// Time at which each stream's last enqueued operation finishes.
    stream_ready: Vec<f64>,
    /// Time at which the PCIe bus is free.
    bus_ready: f64,
    /// Number of H2D copies issued.
    pub transfers: u64,
    /// Total bytes shipped host → device.
    pub bytes_transferred: u64,
}

impl TransferEngine {
    /// Creates an engine with `streams` CUDA streams and the given PCIe
    /// bandwidth in GB/s.
    pub fn new(streams: usize, pcie_gbps: f64) -> Self {
        assert!(streams >= 1, "need at least one stream");
        assert!(pcie_gbps > 0.0, "bandwidth must be positive");
        TransferEngine {
            pcie_gbps,
            stream_ready: vec![0.0; streams],
            bus_ready: 0.0,
            transfers: 0,
            bytes_transferred: 0,
        }
    }

    /// Duration of a copy of `bytes` at PCIe bandwidth.
    pub fn copy_seconds(&self, bytes: usize) -> f64 {
        bytes as f64 / (self.pcie_gbps * 1e9)
    }

    /// Enqueues an H2D copy of `bytes` on `stream` no earlier than `now`;
    /// returns the simulated completion time. The copy waits for both the
    /// stream's previous work and the shared bus.
    pub fn copy_h2d(
        &mut self,
        stream: usize,
        bytes: usize,
        now: f64,
    ) -> Result<f64, TransferError> {
        if stream >= self.stream_ready.len() {
            return Err(TransferError::BadStream { stream, streams: self.stream_ready.len() });
        }
        if bytes == 0 {
            return Err(TransferError::EmptyCopy);
        }
        let start = now.max(self.stream_ready[stream]).max(self.bus_ready);
        let end = start + self.copy_seconds(bytes);
        self.stream_ready[stream] = end;
        self.bus_ready = end;
        self.transfers += 1;
        self.bytes_transferred += bytes as u64;
        Ok(end)
    }

    /// Enqueues `seconds` of kernel execution on `stream` starting no
    /// earlier than `now`; returns completion time. Kernels do not use the
    /// bus, so kernels on different streams overlap freely.
    pub fn run_kernel(
        &mut self,
        stream: usize,
        seconds: f64,
        now: f64,
    ) -> Result<f64, TransferError> {
        if stream >= self.stream_ready.len() {
            return Err(TransferError::BadStream { stream, streams: self.stream_ready.len() });
        }
        let start = now.max(self.stream_ready[stream]);
        let end = start + seconds.max(0.0);
        self.stream_ready[stream] = end;
        Ok(end)
    }

    /// Time at which every stream has drained.
    pub fn sync_all(&self) -> f64 {
        self.stream_ready.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_duration_uses_bandwidth() {
        let mut e = TransferEngine::new(1, 16.0);
        let end = e.copy_h2d(0, 16_000_000_000, 0.0).unwrap();
        assert!((end - 1.0).abs() < 1e-9, "16 GB at 16 GB/s = 1 s, got {end}");
    }

    #[test]
    fn copies_on_different_streams_share_the_bus() {
        let mut e = TransferEngine::new(2, 1.0);
        let a = e.copy_h2d(0, 1_000_000_000, 0.0).unwrap(); // 1 s
        let b = e.copy_h2d(1, 1_000_000_000, 0.0).unwrap(); // waits for bus
        assert!((a - 1.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn kernels_overlap_across_streams() {
        let mut e = TransferEngine::new(2, 1.0);
        let a = e.run_kernel(0, 1.0, 0.0).unwrap();
        let b = e.run_kernel(1, 1.0, 0.0).unwrap();
        assert_eq!(a, 1.0);
        assert_eq!(b, 1.0);
        assert_eq!(e.sync_all(), 1.0);
    }

    #[test]
    fn copy_overlaps_other_streams_kernel() {
        let mut e = TransferEngine::new(2, 1.0);
        e.run_kernel(0, 5.0, 0.0).unwrap();
        let c = e.copy_h2d(1, 1_000_000_000, 0.0).unwrap();
        assert!((c - 1.0).abs() < 1e-9, "copy should not wait for stream 0's kernel");
    }

    #[test]
    fn stream_serializes_its_own_work() {
        let mut e = TransferEngine::new(1, 1.0);
        e.copy_h2d(0, 1_000_000_000, 0.0).unwrap();
        let k = e.run_kernel(0, 2.0, 0.0).unwrap();
        assert!((k - 3.0).abs() < 1e-9);
    }

    #[test]
    fn error_paths() {
        let mut e = TransferEngine::new(1, 1.0);
        assert_eq!(e.copy_h2d(3, 10, 0.0), Err(TransferError::BadStream { stream: 3, streams: 1 }));
        assert_eq!(e.copy_h2d(0, 0, 0.0), Err(TransferError::EmptyCopy));
        assert!(e.run_kernel(9, 1.0, 0.0).is_err());
    }

    #[test]
    fn telemetry_accumulates() {
        let mut e = TransferEngine::new(1, 1.0);
        e.copy_h2d(0, 100, 0.0).unwrap();
        e.copy_h2d(0, 200, 0.0).unwrap();
        assert_eq!(e.transfers, 2);
        assert_eq!(e.bytes_transferred, 300);
    }
}
