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
//! The heap rows count what a durable store holds live. Filled: per
//! profile, once [`fill`] has put 1 000 into its memstore. With each row
//! held as nested maps, and each column's versions in a `Vec` of
//! capacity 4, it read 15 555 bytes. One flat row of exactly sized `Vec`s
//! (DESIGN.md §38) reads 7 834, and 7 210 once `put_profile` shares its
//! fixed column names between puts; pinned with 10 % headroom. It reads
//! 6 210 since every column name, the categorical ones too, is shared
//! (DESIGN.md §40).
//!
//! Ingested: what a long-running store costs, the whole heap a store of
//! 4 000 profiles, flushed and reopened at a 1 MiB block cache, holds live
//! once it took 2 000 more ingests, flushed every 500, and answered `len`.
//! A region used to be promoted into memory by its first write after a
//! reopen and stayed there until the next (DESIGN.md §12): that store
//! held 20 123 989 bytes live. Since a region is a memstore over its
//! segment, and a flush empties the memstore (DESIGN.md §44), it holds
//! 1 313 068; the ceiling is that with 10 % headroom, 7 % of the promoted
//! store's.

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

/// Profiles the ingest budget's store holds when it is reopened, the
/// ingests it takes then, and how many of them go between two flushes.
const STORED: usize = 4000;
const INGESTS: usize = 2000;
const INGESTS_PER_FLUSH: usize = 500;
/// Ceiling on the heap bytes that store holds live once the ingests and
/// their flushes are done, beyond what was live before its reopen.
const INGESTED_BYTES: i64 = 1_445_000;

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

/// Puts profiles `ids` into `store`: `perf_report`'s four seed jobs in
/// turn, each under its own job id.
fn fill(store: &ProfileStore, ids: std::ops::Range<usize>) {
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
    for i in ids {
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
    fill(&store, 0..PROFILES);
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
        fill(&store.tenant_view(t).unwrap(), 0..PROFILES / 2);
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

#[test]
fn a_stored_profile_stays_inside_its_heap_budget() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Warm the lazies a fill leaves behind.
    fill(&ProfileStore::new().unwrap(), 0..4);
    let dir = fresh_dir("heap");
    let before = alloc::live_bytes();
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    fill(&store, 0..PROFILES);
    let filled = (alloc::live_bytes() - before) / PROFILES as i64;
    println!("{PROFILES} profiles: {filled} bytes live per profile filled");
    assert!(
        filled <= FILLED_BYTES_PER_PROFILE,
        "a filled store holds {filled} bytes per profile, ceiling {FILLED_BYTES_PER_PROFILE}"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_reopened_store_taking_ingests_stays_inside_its_heap_budget() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    fill(&ProfileStore::new().unwrap(), 0..4);
    let dir = fresh_dir("ingest");
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    fill(&store, 0..STORED);
    store.flush().unwrap();
    drop(store);

    let before = alloc::live_bytes();
    let opts = StoreOptions {
        block_cache_bytes: 1 << 20,
        ..StoreOptions::default()
    };
    let (store, _) = ProfileStore::reopen_with_opts(&dir, opts).unwrap();
    for from in (STORED..STORED + INGESTS).step_by(INGESTS_PER_FLUSH) {
        fill(&store, from..from + INGESTS_PER_FLUSH);
        store.flush().unwrap();
    }
    assert_eq!(store.len().unwrap(), STORED + INGESTS);
    let live = alloc::live_bytes() - before;
    println!("{STORED} profiles reopened, {INGESTS} ingested: {live} bytes live");
    assert!(
        live <= INGESTED_BYTES,
        "the ingested store holds {live} bytes, ceiling {INGESTED_BYTES}"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A put writes the memstore and reads nothing of its region's segment
/// (DESIGN.md §44): a profile put into a flushed, reopened store reads no
/// block, through the cache or around it.
#[test]
fn a_put_into_a_clean_region_reads_no_segment_block() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dir("clean-put");
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    fill(&store, 0..PROFILES);
    store.flush().unwrap();
    drop(store);
    let (mut store, _) = ProfileStore::reopen(&dir).unwrap();
    let reg = obs::Registry::new();
    store.set_obs(reg.clone());
    let blocks_read = || {
        let counters = reg.snapshot().counters;
        let blocks = ["hits", "misses"].map(|c| format!("cfstore.block_cache.{c}"));
        blocks.iter().filter_map(|c| counters.get(c)).sum::<u64>()
    };
    // The put reads the normalization bounds it extends, a row it keeps
    // once read: read them first.
    store.normalization_bounds().unwrap();
    let before = blocks_read();
    fill(&store, PROFILES..PROFILES + 1);
    assert_eq!(
        reg.snapshot().counters["cfstore.puts"],
        36,
        "one profile is 36 cells"
    );
    let read = blocks_read() - before;
    assert_eq!(read, 0, "the put read {read} segment blocks");
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
