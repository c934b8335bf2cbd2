//! The trace stores no records: a long run's control-plane emits
//! cost no heap, however far past the 2^20 budget they go, and only
//! their overflow count survives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mindgap::sim::{Instant, NodeId, Trace, TraceKind};

/// Counts the bytes each thread allocates.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

#[test]
fn control_plane_emits_allocate_nothing_and_count_the_overflow() {
    const BUDGET: u64 = 1 << 20;
    let before = allocated();
    let mut trace = Trace::control_plane(BUDGET as usize);
    let kinds = [TraceKind::Link, TraceKind::ConnMgr, TraceKind::Buffer];
    for i in 0..3 * BUDGET {
        let kind = kinds[(i % 3) as usize];
        trace.emit(Instant::from_millis(i), NodeId((i % 500) as u16), kind, "conn_up", i);
    }
    let bytes = allocated() - before;
    assert_eq!(bytes, 0, "3 * 2^20 emits allocated {bytes} bytes");
    assert_eq!(trace.dropped(), 2 * BUDGET);
}
