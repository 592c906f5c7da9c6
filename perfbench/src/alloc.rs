//! A counting global allocator for the traced binary.
//!
//! Each thread counts the bytes it requests in a thread-local counter, so
//! a search's allocations are measured exactly even while other threads
//! run.  The untraced binary keeps the system allocator and pays nothing.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: reading or bumping it
    // neither allocates nor re-enters the allocator.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` fails only while the thread is being torn down; those
    // bytes are not attributed to any search.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Bytes requested by the calling thread so far (0 without the counting
/// allocator).
pub fn thread_allocated_bytes() -> u64 {
    ALLOCATED.try_with(Cell::get).unwrap_or(0)
}

/// The system allocator plus a per-thread count of requested bytes.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of a
// thread-local `Cell`, which touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // guarantees for `new_size` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
