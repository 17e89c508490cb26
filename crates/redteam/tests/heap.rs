//! Heap guard for a red-team episode: the attack and the safety net act
//! on the CPU rails only, so an episode boots its board without drawing
//! the board's DRAM weak-cell population (about 1.5 MB of cells and
//! occupied-word set).
//!
//! A test binary of its own: the byte-counting global allocator below
//! must see nothing but this test.

use fleet::population::FleetSpec;
use redteam::{run_episode, AttackScenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread asks for (fresh allocations, and the
/// new size of a resize).
struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_bytes(bytes: usize) {
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees to this allocator are exactly `System`'s
// requirements, and `System`'s guarantees pass back to the caller. The
// counter is a const-initialized thread-local without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_bytes(layout.size());
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_bytes(layout.size());
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_bytes(new_size);
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

/// Bytes the current thread allocates while running `f`.
fn bytes_in(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

#[test]
fn an_episode_never_draws_its_boards_dram() {
    const BUDGET: u64 = 64 * 1024;
    let scenario = AttackScenario::hardened(40);
    for board in FleetSpec::new(4, 2018).all_boards() {
        let bytes = bytes_in(|| {
            std::hint::black_box(run_episode(&board, None, &scenario));
        });
        assert!(
            bytes < BUDGET,
            "board {}: an episode allocated {bytes} bytes",
            board.id
        );
    }
}
