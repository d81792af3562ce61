//! Allocation budget of one profile put (ROADMAP item 10's put path).
//!
//! Every profile PStorM stores is one `put_profile`: 36 cells in five rows,
//! logged as one WAL frame, on a sharded store written to both replicas of
//! each row. This test counts the allocations one `put_profile` makes, and
//! the bytes they ask for, on two reopened stores: a durable store of
//! 1 000 profiles, and a 3-shard, R = 2 store of two tenants × 500.
//!
//! A put is counted where it costs what a long-running store pays: the
//! measured puts land beside warm-up puts. Profile `<job>#<i>` is put
//! first, then `<job>#<i>+`, whose five rows sort right after its own. A
//! region split that a measured put causes is counted with it: every put
//! pays its share of them.
//!
//! The write path before DESIGN.md §40 made 276.4 allocations asking for
//! 42 204 bytes per put on the single store, and 502.5 allocations asking
//! for 88 962 bytes on the sharded one: every cell's `Put` held a family
//! `String` of its own, the single store copied the batch into
//! `WalRecord`s, each with a table `String`, and the sharded store cloned
//! every record once per replica. The one-pass path (a batch's puts reach
//! the log and every replica's memstore as borrowed row runs, column names
//! shared) makes 124.4 allocations of 13 580 bytes and 185.1 of 17 656;
//! the ceilings are those with 10 % headroom.
//!
//! A first write into a reopened region used to promote it into memory,
//! reading all of its blocks, and the warm-up puts paid for that outside
//! the count. Since a region is a memstore over its segment (DESIGN.md
//! §44) no put reads a block, and since a split cuts at its segment's
//! block-index middle key (DESIGN.md §46) no split does either: a sharded
//! put asks for 17 695 bytes in 185.0 allocations (18 533 in 188.1 while
//! a split read its segment's keys), the single store's 13 551 in 124.4;
//! the ceilings stand.
//!
//! A test binary of its own: the allocation counters are the process's.

use std::path::PathBuf;
use std::sync::Mutex;

use datagen::corpus;
use mrjobs::jobs;
use mrsim::{ClusterSpec, JobConfig};
use profiler::{collect_full_profile, JobProfile};
use pstorm::ProfileStore;
use pstorm_tests::alloc::{self, CountingAlloc};
use staticanalysis::StaticFeatures;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ceilings on one put into the single store: allocations, and bytes
/// asked for.
const SINGLE_ALLOCS: f64 = 136.0;
const SINGLE_BYTES: f64 = 14_900.0;

/// Ceilings on one put into the sharded store.
const SHARDED_ALLOCS: f64 = 203.0;
const SHARDED_BYTES: f64 = 19_400.0;

const PROFILES: usize = 1000;

/// Puts measured per store, after as many warm-up puts.
const MEASURED: usize = 100;

/// The tenants of the sharded store, `PROFILES / 2` profiles each.
const TENANTS: [&str; 2] = ["acme", "zen"];

/// The tests take turns: a store's fill is not what either counts, but
/// the two should not share the machine's allocator meanwhile.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A fresh directory for the store of test `tag`.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pstorm-budget-put-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `perf_report`'s four seed jobs, each with the statics it is stored
/// under.
fn seeds() -> Vec<(StaticFeatures, JobProfile)> {
    let text = corpus::random_text_1g();
    let cluster = ClusterSpec::ec2_c1_medium_16();
    [
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
    .collect()
}

/// Profile `i`: seed `i mod 4` under job id `<job>#<i><suffix>`.
fn profile(seeds: &[(StaticFeatures, JobProfile)], i: usize, suffix: &str) -> JobProfile {
    let mut p = seeds[i % seeds.len()].1.clone();
    p.job_id = format!("{}#{i}{suffix}", p.job_id);
    p.map.size_selectivity *= 1.0 + (i as f64) * 1e-4;
    p
}

/// Puts profiles `ids` into `store`, each under `suffix`.
fn put(
    store: &ProfileStore,
    seeds: &[(StaticFeatures, JobProfile)],
    ids: impl Iterator<Item = usize>,
    suffix: &str,
) {
    for i in ids {
        let p = profile(seeds, i, suffix);
        store.put_profile(&seeds[i % seeds.len()].0, &p).unwrap();
    }
}

/// The allocations and the bytes they asked for, per put, of the puts of
/// profiles `from..from + MEASURED` into each of `views`, beside warm-up
/// puts of the same ids; the profiles themselves are built outside the
/// count.
fn per_put(
    views: &[ProfileStore],
    seeds: &[(StaticFeatures, JobProfile)],
    from: usize,
) -> (f64, f64) {
    let ids = || from..from + MEASURED;
    for view in views {
        put(view, seeds, ids(), "");
    }
    let measured: Vec<Vec<JobProfile>> = views
        .iter()
        .map(|_| ids().map(|i| profile(seeds, i, "+")).collect())
        .collect();
    let (allocs, bytes) = (alloc::thread_allocations(), alloc::thread_allocated_bytes());
    for (view, profiles) in views.iter().zip(&measured) {
        for (i, p) in ids().zip(profiles) {
            view.put_profile(&seeds[i % seeds.len()].0, p).unwrap();
        }
    }
    let puts = (views.len() * MEASURED) as f64;
    (
        (alloc::thread_allocations() - allocs) as f64 / puts,
        (alloc::thread_allocated_bytes() - bytes) as f64 / puts,
    )
}

#[test]
fn one_put_into_a_reopened_store_stays_inside_its_allocation_budget() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let seeds = seeds();
    let dir = fresh_dir("single");
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    put(&store, &seeds, 0..PROFILES, "");
    store.flush().unwrap();
    drop(store);
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    let (allocs, bytes) = per_put(std::slice::from_ref(&store), &seeds, PROFILES);
    println!("put_profile into {PROFILES} profiles: {allocs:.1} allocations, {bytes:.0} bytes");
    assert!(
        allocs <= SINGLE_ALLOCS,
        "a put made {allocs:.1} allocations, ceiling {SINGLE_ALLOCS}"
    );
    assert!(
        bytes <= SINGLE_BYTES,
        "a put asked for {bytes:.0} bytes, ceiling {SINGLE_BYTES}"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_put_into_a_reopened_sharded_store_stays_inside_its_allocation_budget() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let seeds = seeds();
    let dir = fresh_dir("sharded");
    let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
    for t in TENANTS {
        put(&store.tenant_view(t).unwrap(), &seeds, 0..PROFILES / 2, "");
    }
    store.flush().unwrap();
    drop(store);
    let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
    let views: Vec<ProfileStore> = TENANTS
        .iter()
        .map(|t| store.tenant_view(t).unwrap())
        .collect();
    let (allocs, bytes) = per_put(&views, &seeds, PROFILES / 2);
    println!(
        "put_profile into {} tenants x {}: {allocs:.1} allocations, {bytes:.0} bytes",
        TENANTS.len(),
        PROFILES / 2
    );
    assert!(
        allocs <= SHARDED_ALLOCS,
        "a sharded put made {allocs:.1} allocations, ceiling {SHARDED_ALLOCS}"
    );
    assert!(
        bytes <= SHARDED_BYTES,
        "a sharded put asked for {bytes:.0} bytes, ceiling {SHARDED_BYTES}"
    );
    drop((views, store));
    std::fs::remove_dir_all(&dir).unwrap();
}
