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
//!
//! Since a lone `analyze` maps the second half of its chunks on a helper
//! thread (DESIGN.md §27), every count here is process-wide: counted per
//! thread, the co-occurrence row read 205 364 allocations and a 15.0 MB
//! peak at that change, a third of the call unseen. The helper costs a
//! fixed overhead, never one per record: its thread, its own mapper and
//! combiner, its own output vectors doubling up to its first chunk (and
//! reserved for its run from 128 KiB on) and one reallocation to append
//! its key records. That is +123, +64 and +67 allocations on the three
//! rows, two of them the test harness's output capture, which a spawned
//! thread inherits (under `--nocapture` each row reads two fewer), and the
//! ceilings are re-pinned to 313 315, 3 143 and 39 966. On one core no
//! helper is lent and the counts are the ones before. No peak rose: 28.09
//! → 27.87 MB, 0.39 → 0.37 MB and 2.26 → 2.25 MB.
//!
//! Since a lent helper also reduces the upper half of the key groups of a
//! map output of 512 KiB or more (DESIGN.md §30), the co-occurrence row
//! (2.7 MB of map output) pays for a second helper, again a fixed overhead
//! with no per-pair cost: +30 allocations, re-pinned to 313 345. Its
//! thread is 4 of them and the harness's capture 2; its reducer `Runner`,
//! the group buffer it reuses and its distinct-key scratch 9; its own
//! weight table 15 — one table doubling to 97 664 groups took 16
//! allocations, two doubling to half as many each and one reallocation to
//! join them take 31. PigMix (39 KB) and word count (273 KB) stay under
//! the gate and at their counts: each half now sorts its own key records
//! (two sort buffers more), and the caller's per-chunk vectors are sized
//! for the whole sample, so the helper's are appended without the two
//! reallocations they cost before. No peak is re-pinned. The co-occurrence
//! peak rose 27.87 → 28.85 MB (+3.5 %, inside the headroom), split or not:
//! the reducer clones the values it reads in place instead of moving them
//! out, so none is freed before the call returns. The other two did not
//! move.

use mrsim::analyze;
use pstorm_bench::harness;
use pstorm_tests::alloc::{self, CountingAlloc};

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
        allocs: 313_345,
        pinned_peak_bytes: 32_347_064,
    },
    Budget {
        case: "pigmix-l1[threshold=7]@pigmix-1g",
        pairs: 2_801,
        records: 3_000,
        allocs: 3_143,
        pinned_peak_bytes: 357_240,
    },
    Budget {
        case: "word-count@random-text-1g",
        pairs: 19_911,
        records: 2_000,
        allocs: 39_966,
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

        let allocs_before = alloc::allocations();
        let live_before = alloc::live_bytes();
        alloc::reset_peak();
        let flow = analyze(&sub.spec, &sub.dataset, &cl).unwrap();
        let allocs = alloc::allocations() - allocs_before;
        let peak = alloc::peak_bytes() - live_before;
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
