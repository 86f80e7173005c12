//! Counting global allocator for allocation-budget assertions.
//!
//! The zero-allocation claims of the kernel layer (`ernn-fft` /
//! `ernn-linalg` `_into` kernels, the serving hot path) are enforced, not
//! asserted in prose: a binary or test installs [`CountingAllocator`] as
//! its `#[global_allocator]` and compares [`allocation_count`] snapshots
//! around the code under scrutiny. Allocations, reallocations and
//! zeroed allocations all count; deallocations do not (freeing is not
//! the failure mode being hunted).
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ernn_bench::alloc::CountingAllocator =
//!     ernn_bench::alloc::CountingAllocator;
//!
//! let before = ernn_bench::alloc::allocation_count();
//! hot_path();
//! assert_eq!(ernn_bench::alloc::allocation_count() - before, 0);
//! ```
//!
//! The counter is process-global (all threads); run measurements on a
//! quiet process or a single-test binary for exact deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation.
///
/// Install with `#[global_allocator]` in the binary under measurement.
pub struct CountingAllocator;

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed atomic side effect.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Monotone count of heap allocations since process start (including
/// reallocations). Meaningful only when [`CountingAllocator`] is the
/// process's global allocator; otherwise it stays zero.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
