//! Heap accounting. The benchmark's global allocator forwards every call
//! to the system allocator and counts the bytes the process holds, so
//! `heap_peak_mb` is the most the workload held at once (per op, or over
//! serve-mixed's timed phase). The resident set (`VmHWM`) also counts
//! freed memory that glibc's per-thread arenas keep: between identical
//! serve-mixed runs it differed by a third, with the same bytes held.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// Bytes currently allocated, up to each thread's unflushed change.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Most bytes allocated at once since the last [`reset_peak`].
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Net change a thread gathers before adding it to [`LIVE`]. A shared
/// counter touched on every call made fleet-campaign 2.5 times slower
/// (two workers allocating, one cache line); counts stay exact to this
/// much per live thread, and a thread adds what it gathered when it
/// exits.
const FLUSH: isize = 64 << 10;

/// The system allocator with byte counters.
struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A thread's unflushed change, flushed when the thread exits.
struct Local(Cell<isize>);

impl Drop for Local {
    fn drop(&mut self) {
        flush(self.0.take());
    }
}

thread_local! {
    static LOCAL: Local = const { Local(Cell::new(0)) };
}

fn flush(delta: isize) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn note(delta: isize) {
    let kept = LOCAL.try_with(|local| {
        let pending = local.0.get() + delta;
        if pending.abs() >= FLUSH {
            local.0.set(0);
            flush(pending);
        } else {
            local.0.set(pending);
        }
    });
    // The thread's counter is already gone while it exits.
    if kept.is_err() {
        flush(delta);
    }
}

fn grew(bytes: usize) {
    note(bytes as isize);
}

fn shrank(bytes: usize) {
    note(-(bytes as isize));
}

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns its result, so `System` upholds the `GlobalAlloc` contract; the
// counters only observe sizes and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract, which is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, and the caller upholds `realloc`'s
        // conditions on `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Starts a record: the peak restarts from what is held now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Most heap held at once since the last [`reset_peak`], MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_counts_what_was_held_and_restarts_on_reset() {
        reset_peak();
        let before = peak_mb();
        let ballast = std::hint::black_box(vec![1u8; 64 << 20]);
        assert!(peak_mb() >= before + 64.0);
        drop(ballast);
        reset_peak();
        assert!(peak_mb() < before + 64.0, "the peak restarts");
    }
}
