//! Steady-state allocation guard for an installed telemetry context.
//!
//! A test binary of its own: the counting global allocator below must
//! see nothing but this test. The context is shaped like the one a
//! fleet job installs — a registry, a capture sink at `Warn` and a
//! 48-event flight recorder at `Debug` — and once every slot of the
//! recorder's ring has held the widest record, the records and registry
//! updates of a Vmin walk's run must allocate nothing.

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

const OUTCOMES: [&str; 3] = ["correct", "CE", "crash"];

/// One run of a walk, shaped like `ResilientRunner::run_once`: a `Debug`
/// setup span with three numeric fields, then a `Debug` run span with a
/// text field around an `Info` event with two text fields — five records.
fn walk_step(i: u64) {
    {
        let _setup = telemetry::span!(
            Level::Debug,
            "setup",
            voltage_mv = 950 - i % 64,
            freq_mhz = 2400u32,
            core = 3u32,
        );
    }
    let benchmark = "milc";
    let _run = telemetry::span!(Level::Debug, "run", benchmark = benchmark);
    telemetry::event!(
        Level::Info,
        "run_complete",
        benchmark = benchmark,
        outcome = OUTCOMES[(i % 3) as usize],
    );
}

/// The registry updates of a step, on unlabeled series.
fn step_metrics() {
    telemetry::time_scope!("step_wall_seconds");
    telemetry::counter!("campaign_runs_total");
    telemetry::observe!("backoff_ms", 12.0);
}

#[test]
fn a_job_shaped_context_allocates_nothing_in_steady_state() {
    // The records repeat every 3 steps (15 records), so within 48 steps
    // (5 passes of the ring) each slot holds every record it ever gets.
    const WARM_UP: u64 = 48;
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
    for i in 0..WARM_UP {
        walk_step(i);
        step_metrics();
    }
    assert_eq!(recorder.retained(), 48, "warm-up fills the ring");

    let steps = allocations_in(|| (0..STEPS).for_each(walk_step));
    assert_eq!(steps, 0, "{steps} allocations in {STEPS} run-shaped steps");

    let metrics = allocations_in(|| (0..STEPS).for_each(|_| step_metrics()));
    assert_eq!(metrics, 0, "updates of existing unlabeled series");

    assert!(capture.is_empty(), "nothing reached the Warn capture");
    assert_eq!(registry.counter("campaign_runs_total"), WARM_UP + STEPS);
    assert_eq!(
        registry.histogram("step_wall_seconds").map(|h| h.count()),
        Some(WARM_UP + STEPS)
    );
}
