//! A counting global allocator for allocation-regression gates.
//!
//! The zero-allocation hot-path claim (DESIGN.md, "Allocation-free hot
//! path") needs an *enforcement* mechanism, not a code-review promise:
//! [`CountingAllocator`] wraps [`std::alloc::System`] and counts every
//! allocation and allocated byte on relaxed atomics, so a test or bench
//! binary can snapshot the counters around a steady-state step and assert
//! the delta is exactly zero. It is deliberately dependency-free (this
//! crate is the workspace's dependency root) and adds two relaxed atomic
//! ops per allocation — cheap enough to leave enabled for a whole bench
//! run.
//!
//! Usage (in a test or bench **binary** — a global allocator is a
//! per-binary decision, never a library's):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! let before = ALLOC.snapshot();
//! hot_path();
//! let delta = ALLOC.snapshot().since(&before);
//! assert_eq!(delta.allocations, 0);
//! ```
//!
//! `realloc` counts as one allocation (it may move the block and always
//! charges the *new* size in bytes); `dealloc` is uncounted — the gate
//! cares about acquiring memory, not returning it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`GlobalAlloc`] that forwards to [`System`] while counting
/// allocations and allocated bytes.
pub struct CountingAllocator {
    allocations: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time reading of the counters, with [`AllocSnapshot::since`]
/// for deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Total allocations (incl. reallocs) observed so far.
    pub allocations: u64,
    /// Total bytes requested by those allocations.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The counter delta from `earlier` to `self`.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocations: self.allocations - earlier.allocations,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl CountingAllocator {
    /// A zeroed counting allocator (const: usable in `static` position).
    pub const fn new() -> Self {
        CountingAllocator { allocations: AtomicU64::new(0), bytes: AtomicU64::new(0) }
    }

    /// Reads both counters.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            allocations: self.allocations.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn count(&self, bytes: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: pure forwarding to `System`; the counters never influence the
// returned pointers or layouts, so `System`'s `GlobalAlloc` guarantees are
// this allocator's.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller's `alloc` contract (non-zero size) passes to
        // `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract passes through unchanged: `ptr`
        // came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: as in `alloc` — the caller's contract, unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        // SAFETY: the caller's contract passes through unchanged: `ptr` is
        // a live `System` block of `layout`, `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not registered as the global allocator here (the test harness owns
    // that decision); exercised directly through the GlobalAlloc API.
    #[test]
    fn counts_alloc_and_realloc() {
        let a = CountingAllocator::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: a non-zero layout; `q` is reallocated from the block
        // `alloc` returned and freed once with its new layout.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let q = a.realloc(p, layout, 128);
            assert!(!q.is_null());
            a.dealloc(q, Layout::from_size_align(128, 8).unwrap());
        }
        let s = a.snapshot();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.bytes, 64 + 128);
    }

    #[test]
    fn snapshot_deltas_subtract() {
        let a = AllocSnapshot { allocations: 10, bytes: 1000 };
        let b = AllocSnapshot { allocations: 13, bytes: 1400 };
        assert_eq!(b.since(&a), AllocSnapshot { allocations: 3, bytes: 400 });
    }
}
