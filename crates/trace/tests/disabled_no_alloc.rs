//! With tracing disabled, spans/counters/samples must record nothing
//! and allocate nothing — the whole workspace leaves instrumentation in
//! hot loops on the strength of this guarantee. Uses a counting global
//! allocator, so it runs as its own process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_tracing_neither_records_nor_allocates() {
    wise_trace::set_enabled(false);
    let _ = wise_trace::take_events();

    // Warm the enabled-check path once before counting.
    {
        let _s = wise_trace::span("warmup");
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        let _outer = wise_trace::span("bench.outer");
        let _inner = wise_trace::span("bench.inner");
        wise_trace::counter("bench.counter", i);
        wise_trace::observe_ns("bench.sample", i);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "disabled tracing must not allocate");

    assert!(wise_trace::take_events().is_empty(), "disabled tracing must not record events");
}
