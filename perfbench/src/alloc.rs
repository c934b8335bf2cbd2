//! Counting global allocator.
//!
//! Off by default: while off, every call pays one relaxed load and
//! passes through to the system allocator, so the children that the
//! end-to-end timings come from run at full speed. A child that reports
//! heap figures turns counting on before its set-up.
//!
//! Counts are exact. Allocation counts are kept per thread, so a job
//! on a campaign worker can read the allocations of its own phases
//! while the other worker runs; live and peak bytes are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Highest `PEAK` before the last [`reset_peak`].
static MAX_PEAK: AtomicIsize = AtomicIsize::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialiser and no destructor: safe to touch from inside
    // the allocator, even while the thread is shutting down.
    static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Relaxed);
}

fn count_one() {
    TOTAL.fetch_add(1, Relaxed);
    THREAD_COUNT.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the bookkeeping around it only touches
// atomics and a destructor-free thread-local, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if ON.load(Relaxed) && !p.is_null() {
            count_one();
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if ON.load(Relaxed) && !p.is_null() {
            count_one();
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if ON.load(Relaxed) && !p.is_null() {
            count_one();
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
            grow(new_size);
        }
        p
    }
}

/// Start counting. Blocks allocated before this call are not live in
/// the count, so freeing them can take `LIVE` below its true value;
/// the peaks clamp at zero. Call it first thing
/// in `main`, before the measured work allocates anything.
pub fn enable() {
    ON.store(true, Relaxed);
}

/// Allocations (including reallocations) made by the whole process.
pub fn total_count() -> u64 {
    TOTAL.load(Relaxed)
}

/// Allocations made by the calling thread.
pub fn thread_count() -> u64 {
    THREAD_COUNT.with(Cell::get)
}

/// Highest live byte count since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}

/// Restart the peak watermark from the current live count, so the next
/// [`peak_bytes`] is the peak of the phase that starts now.
pub fn reset_peak() {
    MAX_PEAK.fetch_max(PEAK.load(Relaxed), Relaxed);
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live byte count since counting started.
pub fn process_peak_bytes() -> u64 {
    MAX_PEAK.load(Relaxed).max(PEAK.load(Relaxed)).max(0) as u64
}
