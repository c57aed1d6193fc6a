//! A counting global allocator: allocations made and live / peak bytes,
//! readable from outside the program under test.
//!
//! The benchmark is one thread, so every counter is `Relaxed`: they publish
//! no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// `System`, counted.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// Set while the benchmark runs code of its own (the reference slices)
/// inside a measured window, so that code is not charged to the program.
static PAUSED: AtomicBool = AtomicBool::new(false);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !PAUSED.load(Relaxed) {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !PAUSED.load(Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        }
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !PAUSED.load(Relaxed) {
            ALLOCATIONS.fetch_add(1, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size);
        }
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `body` without charging its allocations. `body` must free what it
/// allocates (or keep it for the life of the process), or the live-byte
/// count drifts.
pub fn uncounted<T>(body: impl FnOnce() -> T) -> T {
    let was = PAUSED.swap(true, Relaxed);
    let out = body();
    PAUSED.store(was, Relaxed);
    out
}

/// Allocations made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// Restarts the peak from the bytes live now.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
}

/// Most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Relaxed)
}
