//! Allocation and memory budget of one `mrsim::analyze` (DESIGN.md §22).
//!
//! A submission is two `analyze` calls, and the largest of them — the
//! co-occurrence pairs job on the 35 GB sample, 167 516 intermediate pairs
//! — sets the benchmark's `peak_rss_mb` on `suite_hits`. A faster grouping
//! that pays in memory shows there before it shows anywhere else, so this
//! suite counts: heap allocations made by one call, per emitted pair and
//! per input record, and the most heap the call holds at once. The file
//! was committed with the counts of the `Value`-comparing grouping as
//! ceilings (426 491 and 24 466 allocations); the byte-arena grouping
//! (DESIGN.md §22) lowered the allocation ceilings to its own counts
//! (328 845 and 24 274), and pieces of a text as views (DESIGN.md §25)
//! lowered them again, to 313 192 and 3 079: `tokenize` and `split` no
//! longer allocate a text per piece, a vector and a list, so what is left
//! of a PigMix mapper's 8.09 allocations per record is the one key it
//! emits, and a co-occurrence record is down by the vector and the list.
//! Both keep their pinned peaks, which a change may exceed by at most
//! [`PEAK_HEADROOM_PERCENT`]. The word count row came with §25 — a `for`
//! over the pieces, the third shape a mapper reads a split text in — with
//! its count after the change (47 156 before it) and its peak before.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mrsim::analyze;
use pstorm_bench::harness;

/// Forwards to the system allocator, counting the current thread's
/// allocations and tracking its live and peak live bytes.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Const-initialised `Cell`s have no lazy init and no destructor, so
/// touching them from inside the allocator cannot allocate or recurse.
fn note(allocs: u64, delta: i64) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
    let _ = LIVE.try_with(|l| {
        l.set(l.get() + delta);
        let _ = PEAK.try_with(|p| p.set(p.get().max(l.get())));
    });
}

// SAFETY: every method hands its arguments, unchanged, to `System` — the
// caller's obligations under `GlobalAlloc` are exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// How far above the pinned peak a change may go: the arena the grouping
/// sorts on is paid for in bytes, and this is the price it may charge.
const PEAK_HEADROOM_PERCENT: i64 = 10;

struct Budget {
    case: &'static str,
    /// Intermediate pairs the mapper emits and sample records it reads
    /// (fixed by `golden_dataflow.rs`); what the ceilings are *per*.
    pairs: u64,
    records: u64,
    /// Ceiling on heap allocations (`alloc` + `realloc` calls) of one call.
    allocs: u64,
    /// Peak live heap bytes of one call, above what was live when it
    /// started, at the parent of the change that introduced the row (the
    /// byte-arena grouping; for word count, pieces as views).
    pinned_peak_bytes: i64,
}

const BUDGETS: &[Budget] = &[
    Budget {
        case: "word-cooccurrence-pairs[window=2]@wikipedia-35g",
        pairs: 167_516,
        records: 4_000,
        allocs: 313_192,
        pinned_peak_bytes: 32_347_064,
    },
    Budget {
        case: "pigmix-l1[threshold=7]@pigmix-1g",
        pairs: 2_801,
        records: 3_000,
        allocs: 3_079,
        pinned_peak_bytes: 357_240,
    },
    Budget {
        case: "word-count@random-text-1g",
        pairs: 19_911,
        records: 2_000,
        allocs: 39_899,
        pinned_peak_bytes: 2_261_376,
    },
];

#[test]
fn one_analyze_stays_inside_its_allocation_and_memory_budget() {
    let cl = harness::cluster();
    let subs = harness::all_submissions();
    let mut over = Vec::new();
    for budget in BUDGETS {
        let sub = subs
            .iter()
            .find(|s| format!("{}@{}", s.spec.job_id(), s.dataset.name) == budget.case)
            .unwrap_or_else(|| panic!("{} is not in the suite", budget.case));
        assert_eq!(sub.dataset.len() as u64, budget.records, "{}", budget.case);

        let allocs_before = ALLOCS.with(Cell::get);
        let live_before = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(live_before));
        let flow = analyze(&sub.spec, &sub.dataset, &cl).unwrap();
        let allocs = ALLOCS.with(Cell::get) - allocs_before;
        let peak = PEAK.with(Cell::get) - live_before;
        drop(flow);

        println!(
            "{}: {allocs} allocations = {:.2} per pair, {:.2} per record; peak {peak} live bytes \
             = {:.1} per pair",
            budget.case,
            allocs as f64 / budget.pairs as f64,
            allocs as f64 / budget.records as f64,
            peak as f64 / budget.pairs as f64,
        );
        if allocs > budget.allocs {
            over.push(format!(
                "{}: {allocs} allocations, ceiling {} ({:.2} per pair, {:.2} per record)",
                budget.case,
                budget.allocs,
                budget.allocs as f64 / budget.pairs as f64,
                budget.allocs as f64 / budget.records as f64,
            ));
        }
        let ceiling = budget.pinned_peak_bytes * (100 + PEAK_HEADROOM_PERCENT) / 100;
        if peak > ceiling {
            over.push(format!(
                "{}: peak {peak} live bytes, ceiling {ceiling} = pinned {} + \
                 {PEAK_HEADROOM_PERCENT} %",
                budget.case, budget.pinned_peak_bytes,
            ));
        }
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}
