//! A counting global allocator: the workspace's zero-allocation test hook.
//!
//! Hot paths (the FM inner loop, the FLUSIM event loop) carry
//! `debug_assert!`s that no heap allocation happened inside them. Those
//! asserts read the **thread-local** allocation counter defined here; a
//! second thread-local counter adds up the bytes requested, for guards on
//! how much a call allocates rather than how often. A third keeps the
//! thread's live heap bytes (allocations less frees) with a resettable
//! high-water mark, for guards on how much a call holds at once. The
//! counters only advance when a test binary installs [`CountingAllocator`]
//! as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: tempart_testkit::alloc::CountingAllocator =
//!     tempart_testkit::alloc::CountingAllocator;
//! ```
//!
//! In binaries that do not install it (production, ordinary tests) the
//! counters stay at zero forever, so the debug asserts are vacuously true
//! and release builds compile the checks out entirely. The counters are
//! thread-local so parallel tests in one binary cannot pollute each other's
//! measurements. A free is charged to the thread that performs it: memory
//! allocated on one thread and freed on another lowers the freeing thread's
//! live bytes, which can then go negative, and leaves the allocating
//! thread's standing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// A [`System`]-backed allocator that counts `alloc`/`realloc` calls and
/// the bytes they request in thread-local counters, and keeps the thread's
/// live bytes and their high-water mark (deallocations lower the live
/// bytes and are not counted as calls).
pub struct CountingAllocator;

/// Counts one call that requested `bytes` new bytes.
#[inline]
fn bump(bytes: usize) {
    // `try_with`: TLS may already be torn down during thread exit; those
    // late allocations are irrelevant to any measurement.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Moves the thread's live bytes by `delta` and raises the peak to them.
#[inline]
fn live(delta: i64) {
    let Ok(now) = LIVE.try_with(|c| {
        c.set(c.get() + delta);
        c.get()
    }) else {
        return;
    };
    let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
}

// SAFETY: delegates verbatim to `System`; the counter bumps perform no
// allocation (const-initialised thread-local `Cell`s).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        live(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Only the growth is new memory; a shrink requests none.
        bump(new_size.saturating_sub(layout.size()));
        live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

/// Number of heap allocations performed by the **current thread** since it
/// started — zero unless [`CountingAllocator`] is the global allocator.
#[inline]
pub fn allocation_count() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes the **current thread** has requested from the heap since it
/// started — the size of every `alloc` / `alloc_zeroed` plus the growth of
/// every `realloc`, nothing subtracted on free. Zero unless
/// [`CountingAllocator`] is the global allocator.
#[inline]
pub fn allocated_bytes() -> u64 {
    BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Heap bytes the **current thread** holds: every `alloc` / `alloc_zeroed`
/// adds its size, every `realloc` its size change, every `dealloc` takes
/// its size off — including frees of memory another thread allocated, so
/// the figure can go negative. Zero unless [`CountingAllocator`] is the
/// global allocator.
#[inline]
pub fn live_bytes() -> i64 {
    LIVE.try_with(Cell::get).unwrap_or(0)
}

/// The highest [`live_bytes`] of the **current thread** since it started
/// or since the last [`reset_peak_live_bytes`]. Zero unless
/// [`CountingAllocator`] is the global allocator.
#[inline]
pub fn peak_live_bytes() -> i64 {
    PEAK.try_with(Cell::get).unwrap_or(0)
}

/// Lowers the current thread's high-water mark to its live bytes now, so
/// [`peak_live_bytes`] `-` [`live_bytes`] afterwards is what the code in
/// between held above its starting point at its most.
pub fn reset_peak_live_bytes() {
    let _ = PEAK.try_with(|p| p.set(live_bytes()));
}

/// Runs `f` and returns `(result, allocations)` where `allocations` is the
/// number of heap allocations the current thread performed inside `f`.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocation_count();
    let r = f();
    (r, allocation_count() - before)
}

#[cfg(test)]
mod tests {
    // Without the allocator installed the counter must stay flat; the real
    // end-to-end coverage lives in the dedicated `zero_alloc` integration
    // tests of `tempart-partition` and `tempart-flusim`, which do install it.
    #[test]
    fn counter_flat_without_installation() {
        let (_, n) = super::count_allocations(|| vec![1u8; 4096].len());
        assert_eq!(n, 0, "counting allocator is not installed here");
        super::reset_peak_live_bytes();
        assert_eq!(vec![1u8; 4096].len(), 4096);
        assert_eq!((super::live_bytes(), super::peak_live_bytes()), (0, 0));
    }
}
