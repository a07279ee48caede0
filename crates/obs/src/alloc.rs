//! Heap-allocation counting for allocation-budget tests and benchmarks.
//!
//! [`CountingAlloc`] wraps the system allocator and counts, per thread,
//! every allocation and every reallocation (a growing `Vec` pays one per
//! growth step); frees are not counted. It only counts once a binary
//! installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: qfe_obs::alloc::CountingAlloc = qfe_obs::alloc::CountingAlloc;
//!
//! let (plan, allocs) = qfe_obs::alloc::count_allocations(|| optimizer.optimize(&q));
//! ```
//!
//! The count is per thread, so tests running side by side in one test
//! binary do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: an allocation during thread teardown, after the counter
    // is gone, is simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting this thread's allocations and
/// reallocations.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which
// never allocates (a const-initialized `Cell` without a destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations and reallocations this thread has made so far (always `0`
/// unless [`CountingAlloc`] is the global allocator).
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Run `f`, returning its result and the allocations it made on this
/// thread.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = thread_allocations();
    let result = f();
    (result, thread_allocations() - before)
}
