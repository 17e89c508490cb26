//! Steady-state allocation guard for an installed telemetry context.
//!
//! A test binary of its own: the counting global allocator below must
//! see nothing but this test. The context is shaped like the one a
//! fleet job installs — a registry, a capture sink at `Warn` and a
//! 48-event flight recorder at `Debug` — and once the recorder's ring
//! is full, the per-step events and registry updates of a Vmin walk
//! must allocate no more than the event vectors themselves.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use telemetry::metrics::Registry;
use telemetry::{CaptureSink, FlightRecorder, Level, Sink, Telemetry};

/// Counts the allocations (fresh and resizing) made by each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees to this allocator are exactly `System`'s
// requirements, and `System`'s guarantees pass back to the caller. The
// counter is a const-initialized thread-local without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One step of a walk: a `Debug` setup span around one `Debug` event
/// with numeric fields.
fn walk_step(i: u64) {
    let _setup = telemetry::span!(
        Level::Debug,
        "setup",
        voltage_mv = 950 - i % 64,
        core = 3u32
    );
    telemetry::event!(
        Level::Debug,
        "run_outcome",
        repetition = i,
        margin_mv = -2i64,
        ewma = 0.25f64,
        tripped = false,
    );
}

/// The registry updates of a step, on unlabeled series.
fn step_metrics() {
    telemetry::time_scope!("step_wall_seconds");
    telemetry::counter!("campaign_runs_total");
    telemetry::observe!("backoff_ms", 12.0);
}

#[test]
fn a_job_shaped_context_allocates_only_event_vectors_in_steady_state() {
    const STEPS: u64 = 200;
    let registry = Rc::new(Registry::new());
    let capture = Rc::new(CaptureSink::new().with_min_level(Level::Warn));
    let recorder = Rc::new(
        FlightRecorder::with_capacity(48)
            .with_min_level(Level::Debug)
            .with_max_dumps(2),
    );
    let _guard = Telemetry::new()
        .with_registry(Rc::clone(&registry))
        .with_shared_sink(Rc::clone(&capture) as Rc<dyn Sink>)
        .with_shared_sink(Rc::clone(&recorder) as Rc<dyn Sink>)
        .install();
    let _campaign = telemetry::span!(Level::Info, "campaign", bench = "milc");
    for i in 0..64 {
        walk_step(i);
        step_metrics();
    }
    assert_eq!(recorder.retained(), 48, "warm-up fills the ring");

    // Per step: the enter record's span path and fields, the event's
    // span path and fields, and the exit record's span path.
    let per_step = allocations_in(|| (0..STEPS).for_each(walk_step));
    assert!(
        per_step <= 5 * STEPS,
        "{per_step} allocations in {STEPS} steps (at most 5 a step)"
    );

    let metrics = allocations_in(|| (0..STEPS).for_each(|_| step_metrics()));
    assert_eq!(metrics, 0, "updates of existing unlabeled series");

    assert!(capture.is_empty(), "nothing reached the Warn capture");
    assert_eq!(registry.counter("campaign_runs_total"), 64 + STEPS);
    assert_eq!(
        registry.histogram("step_wall_seconds").map(|h| h.count),
        Some(64 + STEPS)
    );
}
