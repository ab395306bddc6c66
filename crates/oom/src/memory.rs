//! Device-memory residency accounting.
//!
//! The out-of-memory runtime (§V) needs to know which graph partitions are
//! resident on the device and when an eviction is required. This model
//! tracks allocations by tag (partition id) against a fixed capacity; it
//! does not store bytes — the host-side CSR is shared — it stores the
//! *budget*, which is what drives scheduling decisions and transfer counts.

use std::collections::HashMap;

/// Errors from the residency manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// The allocation alone exceeds the device capacity.
    TooLarge {
        /// Bytes requested.
        requested: usize,
        /// Total device capacity.
        capacity: usize,
    },
    /// Not enough free capacity; the caller must evict first.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes currently free.
        free: usize,
    },
    /// The tag is already resident.
    AlreadyResident(usize),
    /// The tag is not resident.
    NotResident(usize),
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::TooLarge { requested, capacity } => {
                write!(f, "allocation of {requested} B exceeds device capacity {capacity} B")
            }
            MemoryError::OutOfMemory { requested, free } => {
                write!(f, "allocation of {requested} B exceeds free capacity {free} B")
            }
            MemoryError::AlreadyResident(t) => write!(f, "tag {t} already resident"),
            MemoryError::NotResident(t) => write!(f, "tag {t} not resident"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// Tracks tagged allocations against a byte capacity.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    capacity: usize,
    resident: HashMap<usize, usize>,
    used: usize,
    /// Cumulative bytes ever allocated (telemetry).
    pub total_allocated: u64,
}

impl DeviceMemory {
    /// A device with `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        DeviceMemory { capacity, resident: HashMap::new(), used: 0, total_allocated: 0 }
    }

    /// Free bytes.
    pub fn free(&self) -> usize {
        self.capacity - self.used
    }

    /// Used bytes.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `tag` is resident.
    pub fn is_resident(&self, tag: usize) -> bool {
        self.resident.contains_key(&tag)
    }

    /// Would an allocation of `bytes` fit right now?
    pub fn can_fit(&self, bytes: usize) -> bool {
        bytes <= self.free()
    }

    /// Marks `tag` resident with `bytes`.
    pub fn alloc(&mut self, tag: usize, bytes: usize) -> Result<(), MemoryError> {
        if self.resident.contains_key(&tag) {
            return Err(MemoryError::AlreadyResident(tag));
        }
        if bytes > self.capacity {
            return Err(MemoryError::TooLarge { requested: bytes, capacity: self.capacity });
        }
        if bytes > self.free() {
            return Err(MemoryError::OutOfMemory { requested: bytes, free: self.free() });
        }
        self.resident.insert(tag, bytes);
        self.used += bytes;
        self.total_allocated += bytes as u64;
        Ok(())
    }

    /// Releases `tag`.
    pub fn release(&mut self, tag: usize) -> Result<(), MemoryError> {
        match self.resident.remove(&tag) {
            Some(bytes) => {
                self.used -= bytes;
                Ok(())
            }
            None => Err(MemoryError::NotResident(tag)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_cycle() {
        let mut m = DeviceMemory::new(100);
        m.alloc(1, 60).unwrap();
        assert_eq!(m.free(), 40);
        assert!(m.is_resident(1));
        m.release(1).unwrap();
        assert_eq!(m.free(), 100);
        assert!(!m.is_resident(1));
        assert_eq!(m.total_allocated, 60);
    }

    #[test]
    fn rejects_over_capacity() {
        let mut m = DeviceMemory::new(100);
        assert_eq!(m.alloc(1, 101), Err(MemoryError::TooLarge { requested: 101, capacity: 100 }));
    }

    #[test]
    fn rejects_when_full() {
        let mut m = DeviceMemory::new(100);
        m.alloc(1, 80).unwrap();
        assert_eq!(m.alloc(2, 30), Err(MemoryError::OutOfMemory { requested: 30, free: 20 }));
    }

    #[test]
    fn rejects_double_alloc_and_missing_release() {
        let mut m = DeviceMemory::new(100);
        m.alloc(1, 10).unwrap();
        assert_eq!(m.alloc(1, 10), Err(MemoryError::AlreadyResident(1)));
        assert_eq!(m.release(2), Err(MemoryError::NotResident(2)));
    }

    #[test]
    fn can_fit_is_consistent() {
        let mut m = DeviceMemory::new(50);
        assert!(m.can_fit(50));
        m.alloc(0, 30).unwrap();
        assert!(m.can_fit(20));
        assert!(!m.can_fit(21));
    }

    #[test]
    fn error_messages_render() {
        let e = MemoryError::OutOfMemory { requested: 5, free: 1 };
        assert!(e.to_string().contains("5 B"));
    }
}
