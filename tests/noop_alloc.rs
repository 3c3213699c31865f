//! Proves the acceptance criterion that the tracing facade is a true
//! no-op when disabled: opening spans, attaching numeric attributes,
//! reading the current context, and propagating contexts must perform
//! zero heap allocations.
//!
//! Uses a counting `#[global_allocator]`; this lives in its own
//! integration-test binary so the allocator does not leak into other
//! tests. It counts per thread, so an allocation by the test harness on
//! another thread never lands in the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. `const`-initialised and without a
    /// destructor, so touching it from the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_tracing_hot_path_does_not_allocate() {
    exdra_obs::set_enabled(false);
    // Warm up any lazy statics outside the measured window.
    {
        let mut s = exdra_obs::span(exdra_obs::SpanKind::Rpc, "warmup");
        s.attr("k", 1u64);
        let _ = exdra_obs::current();
        let _ = exdra_obs::propagate(exdra_obs::TraceContext::NONE);
    }

    let before = allocations();
    for i in 0..10_000u64 {
        let mut span = exdra_obs::span(exdra_obs::SpanKind::Instruction, "hot");
        span.attr("worker", 3u64);
        span.attr("bytes", i);
        span.attr("reuse", true);
        let ctx = span.context();
        let _guard = exdra_obs::propagate(ctx);
        let _ = exdra_obs::current();
        let mut child = exdra_obs::span_child_of(exdra_obs::SpanKind::Worker, "child", ctx);
        child.attr("n", i);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled tracing must not allocate (saw {} allocations over 10k spans)",
        after - before
    );

    // Sanity check *after* the measured window (same test fn, so the
    // global enabled flag cannot race the measurement): the same facade
    // records when switched on, so the zero-allocation result above is
    // not vacuous.
    exdra_obs::set_enabled(true);
    {
        let mut s = exdra_obs::span(exdra_obs::SpanKind::Rpc, "real");
        s.attr("k", 7u64);
    }
    exdra_obs::set_enabled(false);
    let spans = exdra_obs::take_spans();
    assert!(spans.iter().any(|s| s.name == "real"));
}
