//! One counting allocator for the test binaries that measure heap use.
//!
//! A test binary declares it as its allocator, as
//! `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;`, and
//! then reads five things. [`allocations`] counts the allocations
//! (`alloc` and `realloc` calls) of every thread of the process, and
//! [`thread_allocations`] those of the current thread alone, which the
//! harness's other test threads cannot move; [`thread_allocated_bytes`]
//! the bytes those calls of the current thread asked for; [`live_bytes`] and
//! [`peak_bytes`] track the bytes live at once;
//! [`largest_request`] is the largest single request the *current* thread
//! made since its last [`reset_largest_request`] — the only way to see an
//! allocation that was sized by hostile input and then (had it succeeded)
//! freed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Forwards to the system allocator, counting as the module docs say.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Statistics that publish no other data, hence `Relaxed`; the join of the
/// thread that made them orders them before the caller reads them. The
/// peak is the largest value `LIVE` itself took, as each update sees it.
fn note(allocs: u64, delta: i64, request: usize) {
    ALLOCS.fetch_add(allocs, Relaxed);
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(live, Relaxed);
    // A const-initialised `Cell` has no lazy init and no destructor, so
    // touching it from inside the allocator cannot allocate or recurse.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = THREAD_BYTES.try_with(|n| n.set(n.get() + request as u64));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(request)));
}

// SAFETY: every method hands its arguments, unchanged, to `System` — the
// caller's obligations under `GlobalAlloc` are exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64, layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64), 0);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64, new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far by every thread of the process.
pub fn allocations() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Allocations made so far by the current thread.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// The bytes the current thread's allocations so far asked for: each
/// `alloc` its size, each `realloc` its new size.
pub fn thread_allocated_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

/// Heap bytes live now, process-wide.
pub fn live_bytes() -> i64 {
    LIVE.load(Relaxed)
}

/// The most heap bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Relaxed)
}

/// Start a new peak from what is live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The largest single request this thread made since it last called
/// [`reset_largest_request`].
pub fn largest_request() -> usize {
    LARGEST.with(Cell::get)
}

/// Forget this thread's largest request.
pub fn reset_largest_request() {
    LARGEST.with(|l| l.set(0));
}
