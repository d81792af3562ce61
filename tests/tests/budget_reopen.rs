//! Allocation budget of one store reopen (ROADMAP item 2's reopen row).
//!
//! A restarted PStorM recovers its store and then reads every `Dynamic/`,
//! `Static/` and `CostFactor/` row into the columnar index before it can
//! match. This test counts what one `ProfileStore::reopen_with_opts` of a
//! flushed store of 1 000 profiles allocates, at a 1 MiB block cache (the
//! benchmark's `bigstore_reads` shape, a quarter of its size), and the most
//! heap bytes live at once meanwhile.
//!
//! The other cores are held through `obs::cores`, as `core_budget.rs` holds
//! them, so the reopen's scans run on its own thread alone and the count
//! repeats exactly. A test binary of its own: the core budget and the
//! allocation counters are the process's.
//!
//! The ceilings were first pinned, with 10 % headroom, at the index build
//! that scanned the rows as `RowResult`s: 20 324 allocations (ceiling
//! 22 300) and 8 367 690 bytes peak (ceiling 9 200 000). The build that
//! parses the rows where they are stored (DESIGN.md §33) makes no
//! `RowResult`, no `String` per job id and no `Vec` per row, and its index
//! holds no block buffer alive: 3 115 allocations and 2 330 458 bytes peak,
//! re-pinned with the same headroom; later 3 122 with a per-part table of
//! static-set ids, and then 2 987 once a row view's cells were presized
//! instead of grown (ceiling re-pinned to 3 280).

use std::path::PathBuf;

use cfstore::StoreOptions;
use datagen::corpus;
use mrjobs::jobs;
use mrsim::{ClusterSpec, JobConfig};
use profiler::collect_full_profile;
use pstorm::ProfileStore;
use pstorm_tests::alloc::{self, CountingAlloc};
use staticanalysis::StaticFeatures;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ceiling on the allocations of one reopen.
const REOPEN_ALLOCS: u64 = 3_280;
/// Ceiling on the heap bytes live at once during one reopen, beyond what
/// was live before it.
const REOPEN_PEAK_BYTES: i64 = 2_560_000;

const PROFILES: usize = 1000;

/// A flushed store of `PROFILES` profiles: `perf_report`'s four seed jobs
/// in turn, each under its own job id.
fn flushed_store() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pstorm-budget-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let text = corpus::random_text_1g();
    let cluster = ClusterSpec::ec2_c1_medium_16();
    let seeds: Vec<_> = [
        jobs::word_count(),
        jobs::word_cooccurrence_pairs(2),
        jobs::bigram_relative_frequency(),
        jobs::grep("ba"),
    ]
    .into_iter()
    .map(|spec| {
        let config = JobConfig::submitted(&spec);
        let (profile, _) = collect_full_profile(&spec, &text, &cluster, &config, 5).unwrap();
        (StaticFeatures::extract(&spec), profile)
    })
    .collect();
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    for i in 0..PROFILES {
        let (statics, profile) = &seeds[i % seeds.len()];
        let mut p = profile.clone();
        p.job_id = format!("{}#{i}", p.job_id);
        p.map.size_selectivity *= 1.0 + (i as f64) * 1e-4;
        store.put_profile(statics, &p).unwrap();
    }
    store.flush().unwrap();
    dir
}

#[test]
fn one_reopen_stays_inside_its_allocation_budget() {
    let dir = flushed_store();
    let others = obs::cores::count() - 1;
    let _held = (others > 0).then(|| obs::cores::try_lend(others - 1));
    let opts = || StoreOptions {
        block_cache_bytes: 1 << 20,
        ..StoreOptions::default()
    };
    let reopen = || {
        let before = alloc::thread_allocations();
        let live = alloc::live_bytes();
        alloc::reset_peak();
        let (store, _) = ProfileStore::reopen_with_opts(&dir, opts()).unwrap();
        let counts = (
            alloc::thread_allocations() - before,
            alloc::peak_bytes() - live,
        );
        assert_eq!(store.len().unwrap(), PROFILES);
        drop(store);
        counts
    };
    // Warm the harness's and the store's lazies with one reopen.
    reopen();
    let (allocs, peak) = reopen();
    assert_eq!(reopen().0, allocs, "the count of one reopen repeats");
    println!(
        "reopen of {PROFILES} profiles at a 1 MiB cache: {allocs} allocations, {peak} bytes peak"
    );
    assert!(
        allocs <= REOPEN_ALLOCS,
        "one reopen made {allocs} allocations, ceiling {REOPEN_ALLOCS}"
    );
    assert!(
        peak <= REOPEN_PEAK_BYTES,
        "one reopen peaked at {peak} bytes live, ceiling {REOPEN_PEAK_BYTES}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
