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
//! instead of grown (ceiling re-pinned to 3 280). Taking the parts' rows
//! in key order for the sharded build (DESIGN.md §34) adds three vectors
//! of row references, one per feature prefix: 2 990 allocations and
//! 2 471 164 bytes peak, inside both ceilings. Since scans read around
//! the block cache (DESIGN.md §42) the reopen's index build admits no
//! block: 2 940 allocations and 593 141 bytes peak, the peak re-pinned
//! with the same headroom.
//!
//! The sharded row counts one `ProfileStore::reopen_sharded` of a flushed
//! 3-shard, R = 2 store of two tenants × 500 profiles, and each tenant's
//! `columnar_index()` after it: a sharded open reads no rows until a
//! tenant asks for its index, so this is what a restarted
//! `tenants_sharded` service pays before its tenants can match. Its
//! ceilings were pinned, with 10 % headroom, at the build that scanned
//! each shard into `RowResult`s and merged them in a `BTreeMap`: 33 382
//! allocations (ceiling 36 700) and 8 707 634 bytes peak (ceiling
//! 9 580 000). The build that walks each shard's rows in place (DESIGN.md
//! §34) makes no `RowResult` for any replica's row and no merge map:
//! 6 331 allocations and 6 839 457 bytes peak, re-pinned with the same
//! headroom; then 6 295 once the slot resolution stopped building a mask
//! and a turn stack per shard read (allocations ceiling re-pinned to
//! 6 925); 6 286 once a stored row is flat (DESIGN.md §38); 6 281
//! allocations and 509 453 bytes peak once no shard's cache admits a
//! block the index builds walk (DESIGN.md §42), the peak re-pinned with
//! the same headroom.
//!
//! The heap row counts what a durable store of 1 000 profiles holds live
//! per profile: once [`fill`] has put them, and once the store, flushed
//! and reopened, has taken a write in every region, which promotes each
//! into memory. A written region stays in memory until the next reopen,
//! so these are what a long-running store costs. With each row held as
//! nested maps, and each column's versions in a `Vec` of capacity 4, it
//! read 15 555 and 10 519 bytes. One flat row of exactly sized `Vec`s
//! (DESIGN.md §38) reads 7 834 and 6 758, and 7 210 filled once
//! `put_profile` shares its fixed column names between puts; pinned with
//! 10 % headroom. Filled reads 6 210 since every column name, the
//! categorical ones too, is shared (DESIGN.md §40). Promoted reads 6 027
//! since a promotion neither admits the blocks it reads nor keeps those
//! its segment had in the cache (DESIGN.md §42), and its ceiling was
//! re-pinned to that with the same 10 % headroom: 6 630, down from 7 400,
//! which a 23 % regression would have passed.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

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
const REOPEN_PEAK_BYTES: i64 = 653_000;

/// Ceiling on the allocations of one sharded reopen and its tenants'
/// index builds.
const SHARDED_ALLOCS: u64 = 6_925;
/// Ceiling on the heap bytes live at once meanwhile, beyond what was live
/// before.
const SHARDED_PEAK_BYTES: i64 = 561_000;

const PROFILES: usize = 1000;

/// Ceiling on the heap bytes a durable store holds live per profile once
/// [`fill`] has put them.
const FILLED_BYTES_PER_PROFILE: i64 = 7_900;
/// Ceiling on the same of that store flushed, reopened and written to in
/// every region, which promotes each into memory.
const PROMOTED_BYTES_PER_PROFILE: i64 = 6_630;

/// The tenants of the sharded store, `PROFILES / 2` profiles each.
const TENANTS: [&str; 2] = ["acme", "zen"];

/// The tests take turns: the peak is the process's.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A fresh directory for the store of test `tag`.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pstorm-budget-reopen-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Puts `count` profiles into `store`: `perf_report`'s four seed jobs in
/// turn, each under its own job id.
fn fill(store: &ProfileStore, count: usize) {
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
    for i in 0..count {
        let (statics, profile) = &seeds[i % seeds.len()];
        let mut p = profile.clone();
        p.job_id = format!("{}#{i}", p.job_id);
        p.map.size_selectivity *= 1.0 + (i as f64) * 1e-4;
        store.put_profile(statics, &p).unwrap();
    }
}

/// Holds every core but the caller's, so a read runs on its caller's
/// thread alone.
fn hold_other_cores() -> Option<obs::cores::Lease> {
    let others = obs::cores::count() - 1;
    (others > 0).then(|| obs::cores::try_lend(others - 1))
}

/// The allocations `op` makes on this thread and the most heap bytes live
/// at once meanwhile, beyond what was live before, once it has run once to
/// warm the harness's and the store's lazies; the count must repeat.
fn count(what: &str, mut op: impl FnMut()) -> (u64, i64) {
    let mut once = || {
        let before = alloc::thread_allocations();
        let live = alloc::live_bytes();
        alloc::reset_peak();
        op();
        (
            alloc::thread_allocations() - before,
            alloc::peak_bytes() - live,
        )
    };
    once();
    let (allocs, peak) = once();
    assert_eq!(once().0, allocs, "the count of {what} repeats");
    println!("{what}: {allocs} allocations, {peak} bytes peak");
    (allocs, peak)
}

#[test]
fn one_reopen_stays_inside_its_allocation_budget() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dir("single");
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    fill(&store, PROFILES);
    store.flush().unwrap();
    drop(store);
    let _held = hold_other_cores();
    let opts = || StoreOptions {
        block_cache_bytes: 1 << 20,
        ..StoreOptions::default()
    };
    let (allocs, peak) = count(
        &format!("reopen of {PROFILES} profiles at a 1 MiB cache"),
        || {
            let (store, _) = ProfileStore::reopen_with_opts(&dir, opts()).unwrap();
            assert_eq!(store.len().unwrap(), PROFILES);
        },
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

/// Reopens the sharded store at `dir` and builds each tenant's index.
fn reopen_sharded_tenants(dir: &Path) {
    let (store, _) = ProfileStore::reopen_sharded(dir).unwrap();
    for t in TENANTS {
        let view = store.tenant_view(t).unwrap();
        assert_eq!(view.columnar_index().unwrap().len(), PROFILES / 2);
    }
}

#[test]
fn one_sharded_reopen_stays_inside_its_allocation_budget() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dir("sharded");
    let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
    for t in TENANTS {
        fill(&store.tenant_view(t).unwrap(), PROFILES / 2);
    }
    store.flush().unwrap();
    drop(store);
    let _held = hold_other_cores();
    let what = format!(
        "sharded reopen of {} tenants x {} profiles and their index builds",
        TENANTS.len(),
        PROFILES / 2
    );
    let (allocs, peak) = count(&what, || reopen_sharded_tenants(&dir));
    assert!(
        allocs <= SHARDED_ALLOCS,
        "one sharded reopen made {allocs} allocations, ceiling {SHARDED_ALLOCS}"
    );
    assert!(
        peak <= SHARDED_PEAK_BYTES,
        "one sharded reopen peaked at {peak} bytes live, ceiling {SHARDED_PEAK_BYTES}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Deletes a row that is not stored from every region of `store`'s one
/// table: a write that changes no row and promotes each region it lands
/// in.
fn promote_every_region(store: &ProfileStore) {
    let inner = store.inner();
    for region in inner.meta_entries() {
        // The key right after the region's start key: inside the region,
        // and no profile row.
        let absent = [region.start_key.as_ref(), b"\0"].concat();
        assert!(!inner.delete_row(&region.table, &absent).unwrap());
    }
}

#[test]
fn a_stored_profile_stays_inside_its_heap_budget() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Warm the lazies a fill leaves behind.
    fill(&ProfileStore::new().unwrap(), 4);
    let dir = fresh_dir("heap");
    let per_profile = |before: i64| (alloc::live_bytes() - before) / PROFILES as i64;

    let before = alloc::live_bytes();
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    fill(&store, PROFILES);
    let filled = per_profile(before);
    store.flush().unwrap();
    drop(store);

    let before = alloc::live_bytes();
    let opts = StoreOptions {
        block_cache_bytes: 1 << 20,
        ..StoreOptions::default()
    };
    let (store, _) = ProfileStore::reopen_with_opts(&dir, opts).unwrap();
    promote_every_region(&store);
    assert!(
        store.inner().meta_entries().len() > 1,
        "the store never split"
    );
    let promoted = per_profile(before);
    println!("{PROFILES} profiles: {filled} bytes live per profile filled, {promoted} promoted");
    assert!(
        filled <= FILLED_BYTES_PER_PROFILE,
        "a filled store holds {filled} bytes per profile, ceiling {FILLED_BYTES_PER_PROFILE}"
    );
    assert!(
        promoted <= PROMOTED_BYTES_PER_PROFILE,
        "a promoted store holds {promoted} bytes per profile, ceiling {PROMOTED_BYTES_PER_PROFILE}"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
