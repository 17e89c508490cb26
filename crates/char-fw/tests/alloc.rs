//! Steady-state allocation guard for the Vmin walk under a fleet job's
//! telemetry context.
//!
//! A test binary of its own: the counting global allocator below must
//! see nothing but this test. Each walk step runs one benchmark run and
//! dispatches its records into a context shaped like the one a fleet job
//! installs — a registry, a capture sink at `Warn` and a 48-event flight
//! recorder at `Debug`. What a step may still allocate is the run
//! record's copy of the benchmark name and the amortized growth of the
//! result's record list; a step that also runs a sentinel check adds
//! the check's list of two run results, and borrows the canary's
//! profile from the process's one suite.

use char_fw::resilience::ResilienceConfig;
use char_fw::runner::ResilientRunner;
use char_fw::setup::VminCampaign;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use telemetry::metrics::Registry;
use telemetry::{CaptureSink, FlightRecorder, Level, Sink, Telemetry};
use workload_sim::spec::SPEC_SUITE;
use xgene_sim::server::XGene2Server;
use xgene_sim::sigma::SigmaBin;
use xgene_sim::topology::CoreId;

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

#[test]
fn a_walk_step_under_a_job_context_allocates_at_most_twice() {
    const WARM_UP: u64 = 300;
    const STEPS: u64 = 1_000;
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

    let benchmarks = SPEC_SUITE
        .iter()
        .filter(|b| ["mcf", "milc"].contains(&b.name))
        .map(|b| b.profile())
        .collect();
    let campaign = VminCampaign::dsn18(benchmarks, CoreId::all().collect());
    let mut server = XGene2Server::new(SigmaBin::Ttt, 7);
    let mut runner = ResilientRunner::new(&mut server, campaign, ResilienceConfig::guarded());
    for _ in 0..WARM_UP {
        assert!(runner.step(), "the warm-up stays inside the walk");
    }

    // Per measured step: its allocations, and whether it ran a sentinel
    // check that tripped no breaker. Sized up front, so recording a step
    // allocates nothing.
    let mut steps: Vec<(u64, bool)> = Vec::with_capacity(STEPS as usize);
    for _ in 0..STEPS {
        let safety_before = runner.result().safety;
        let mut stepped = false;
        let allocations = allocations_in(|| stepped = runner.step());
        assert!(stepped, "every measured step runs inside the walk");
        let safety = runner.result().safety;
        let clean_check = safety.sentinel.checks > safety_before.sentinel.checks
            && safety.breaker_trips == safety_before.breaker_trips;
        steps.push((allocations, clean_check));
    }

    let allocations: u64 = steps.iter().map(|&(n, _)| n).sum();
    let per_step = allocations as f64 / STEPS as f64;
    assert!(
        per_step <= 2.0,
        "{allocations} allocations in {STEPS} walk steps ({per_step:.2} a step)"
    );
    let mut sentinel_steps: Vec<u64> = steps
        .iter()
        .filter(|&&(_, clean_check)| clean_check)
        .map(|&(n, _)| n)
        .collect();
    assert!(
        sentinel_steps.len() >= 20,
        "only {} measured steps ran a clean sentinel check",
        sentinel_steps.len()
    );
    sentinel_steps.sort_unstable();
    let median = sentinel_steps[sentinel_steps.len() / 2];
    assert!(
        median <= 2,
        "a sentinel step allocates {median} times in the median: {sentinel_steps:?}"
    );
    assert_eq!(
        registry.counter("campaign_runs_total"),
        runner.result().records.len() as u64
    );
}
