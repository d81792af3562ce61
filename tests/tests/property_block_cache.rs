//! Block-cache property tests (DESIGN.md §12).
//!
//! The central property: **lazy segment-backed reads through the bounded
//! block cache are bit-identical to a store that never flushed** — same
//! workload, same logical timestamps, one copy flushed to segments and
//! reopened lazily, one copy kept entirely in the memstore. Scans and
//! point gets must match byte for byte across random workloads and cache
//! budgets, *including a 0-byte budget* that admits nothing (every read
//! is a verified on-demand block fetch).
//!
//! Also proves here:
//! - reopen reads **zero** segment blocks when the WAL is clean (the
//!   read-amplification bound from ISSUE 6);
//! - cache occupancy never exceeds the byte budget;
//! - only a point get admits a block: scans, flushes and scrubs read
//!   around the cache and leave its entries and LRU order alone
//!   (DESIGN.md §42), a put reads no block, and a flush that rebases a
//!   region onto its new segment evicts its old segment's blocks
//!   (DESIGN.md §44);
//! - a split reads no block, and halves cut at a block boundary share no
//!   block (DESIGN.md §46);
//! - a crash injected into a flush mid-segment-write poisons the store
//!   without losing a single acked write — the manifest never swaps, and
//!   recovery replays the intact WAL.

use cfstore::{
    CrashSpec, MiniStore, Put, RowResult, SegmentReader, ShardOptions, ShardedStore, StoreError,
    StoreOptions,
};
use proptest::prelude::*;
use std::path::PathBuf;

const TABLE: &str = "profiles";
const FAMILY: &str = "d";
/// Small split threshold so multi-region, multi-block segments are routine.
const SPLIT_THRESHOLD: usize = 8;
/// Key space: > 32 distinct keys guarantees more than one 32-row block.
const KEYS: u64 = 48;

#[derive(Debug, Clone, PartialEq)]
enum Op {
    Put { key: u64, col: u8, val: u64 },
    Delete { key: u64 },
}

fn row_key(key: u64) -> Vec<u8> {
    format!("job-{key:06}").into_bytes()
}

/// Deterministic workload: mostly puts over a small key space (so
/// overwrites and multi-version cells occur) with sprinkled deletes.
fn workload(seed: u64, len: usize) -> Vec<Op> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..len)
        .map(|_| {
            let r = next();
            if r % 10 == 0 {
                Op::Delete { key: next() % KEYS }
            } else {
                Op::Put {
                    key: next() % KEYS,
                    col: (next() % 3) as u8,
                    val: next(),
                }
            }
        })
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pstorm-blockcache-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn create_table(store: &MiniStore) {
    match store.create_table_with_threshold(TABLE, &[FAMILY], SPLIT_THRESHOLD) {
        Ok(()) | Err(StoreError::TableExists(_)) => {}
        Err(e) => panic!("create_table: {e}"),
    }
}

fn apply(store: &MiniStore, op: &Op) {
    match op {
        Op::Put { key, col, val } => store
            .put(
                TABLE,
                Put::new(
                    row_key(*key),
                    FAMILY,
                    format!("c{col}").into_bytes(),
                    val.to_be_bytes().to_vec(),
                ),
            )
            .expect("put"),
        Op::Delete { key } => {
            store
                .delete_row(TABLE, &row_key(*key))
                .map(|_| ())
                .expect("delete");
        }
    }
}

fn scan_all(store: &MiniStore) -> Vec<RowResult> {
    store.scan(TABLE, &cfstore::Scan::all()).expect("scan").0
}

fn counter(obs: &obs::Registry, name: &str) -> u64 {
    obs.snapshot().counters.get(name).copied().unwrap_or(0)
}

/// The core oracle check, shared by the proptest sweep: run `ops` on an
/// in-memory store (never flushed — pure memstore) and on a durable store
/// that is flushed and lazily reopened with `budget` cache bytes; every
/// read path must agree bit for bit.
fn check_budget(tag: &str, ops: &[Op], budget: u64) {
    // Oracle: all rows stay materialized in the memstore.
    let oracle = MiniStore::new();
    create_table(&oracle);
    for op in ops {
        apply(&oracle, op);
    }

    // Subject: same ops, flushed to segments, reopened segment-backed.
    let dir = tmp_dir(tag);
    {
        let (store, _) = MiniStore::open(&dir).expect("open");
        create_table(&store);
        for op in ops {
            apply(&store, op);
        }
        store.flush().expect("flush");
    }
    let (mut subject, report) = MiniStore::open_with_opts(
        &dir,
        StoreOptions {
            block_cache_bytes: budget,
            ..StoreOptions::default()
        },
    )
    .expect("lazy reopen");
    // Read-amplification bound: a clean-WAL reopen indexes blocks via the
    // segment trailers but reads none of their bodies.
    prop_assert_eq!(
        report.segment_blocks_read,
        0,
        "clean reopen must not read block bodies"
    );
    prop_assert!(report.segment_blocks >= 1, "workload produced no blocks");
    let obs = obs::Registry::new();
    subject.set_obs(obs.clone());

    // Cold scan: every lazy block is fetched (a miss) and CRC-verified.
    let want = scan_all(&oracle);
    let cold = scan_all(&subject);
    prop_assert_eq!(&cold, &want, "cold lazy scan diverges from memstore oracle");
    let cold_misses = counter(&obs, "cfstore.block_cache.misses");
    prop_assert!(
        cold_misses >= report.segment_blocks,
        "cold scan read {cold_misses} blocks, segments hold {}",
        report.segment_blocks
    );

    // Warm scan: identical rows. A scan reads around the cache at every
    // budget (DESIGN.md §42): it re-reads exactly the cold scan's blocks,
    // and neither scan leaves an entry.
    prop_assert_eq!(
        subject.cache_stats().entries,
        0,
        "cold scan admitted a block"
    );
    let warm = scan_all(&subject);
    prop_assert_eq!(&warm, &want, "warm lazy scan diverges");
    prop_assert_eq!(
        counter(&obs, "cfstore.block_cache.misses"),
        2 * cold_misses,
        "warm scan must re-read exactly the cold scan's blocks"
    );
    prop_assert_eq!(counter(&obs, "cfstore.block_cache.hits"), 0);
    prop_assert_eq!(
        subject.cache_stats().entries,
        0,
        "warm scan admitted a block"
    );

    // Point gets exercise the single-block path (block_for + get_or_load).
    for key in 0..KEYS {
        let got = subject.get(TABLE, &row_key(key)).expect("get");
        let want = oracle.get(TABLE, &row_key(key)).expect("oracle get");
        prop_assert_eq!(got, want, "point get diverges for key {}", key);
    }

    // The budget is a hard ceiling; a 0-byte budget admits nothing (and
    // never produces a hit), yet every read above still succeeded.
    let stats = subject.cache_stats();
    prop_assert!(
        stats.used_bytes <= stats.budget_bytes,
        "cache over budget: {} > {}",
        stats.used_bytes,
        stats.budget_bytes
    );
    if budget == 0 {
        prop_assert_eq!(stats.entries, 0);
        prop_assert_eq!(stats.used_bytes, 0);
        prop_assert_eq!(counter(&obs, "cfstore.block_cache.hits"), 0);
    }

    // A write lands in the memstore over the segment. A fresh key
    // (outside the workload keyspace, so its timestamp is not compared
    // against the oracle's clock) must be readable, and every
    // pre-existing row must come back bit-identical beside it.
    let fresh = KEYS + 1;
    apply(
        &subject,
        &Op::Put {
            key: fresh,
            col: 0,
            val: 0xDEAD_BEEF,
        },
    );
    let after: Vec<RowResult> = scan_all(&subject)
        .into_iter()
        .filter(|r| r.row.as_ref() != row_key(fresh).as_slice())
        .collect();
    prop_assert_eq!(&after, &want, "scan after a write diverges");
    let fresh_row = subject
        .get(TABLE, &row_key(fresh))
        .expect("get written row")
        .expect("written row present");
    prop_assert_eq!(
        fresh_row.value(FAMILY, b"c0").expect("cell").as_ref(),
        0xDEAD_BEEFu64.to_be_bytes().as_slice()
    );

    drop(subject);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random workloads × cache budgets from "admit nothing" through
    // "evict constantly" to "hold everything": reads through the block
    // cache are bit-identical to full materialization.
    #[test]
    fn cached_reads_match_materialized_oracle(
        seed in 0u64..1_000_000,
        len in 20usize..120,
        budget in prop_oneof![Just(0u64), 64u64..4096, Just(8u64 << 20)],
    ) {
        let ops = workload(seed, len);
        check_budget("prop", &ops, budget);
    }
}

/// `rows` rows of one fixed-size cell each, flushed to segments in `dir`
/// under a split threshold of `split`.
fn flushed_rows(dir: &std::path::Path, rows: u64, split: usize) {
    let (store, _) = MiniStore::open(dir).expect("open");
    store
        .create_table_with_threshold(TABLE, &[FAMILY], split)
        .expect("create_table");
    for key in 0..rows {
        let put = Put::new(
            row_key(key),
            FAMILY,
            b"c0".to_vec(),
            key.to_be_bytes().to_vec(),
        );
        store.put(TABLE, put).expect("put");
    }
    store.flush().expect("flush");
}

fn reopen(dir: &std::path::Path, budget: u64) -> (MiniStore, obs::Registry) {
    let opts = StoreOptions {
        block_cache_bytes: budget,
        ..StoreOptions::default()
    };
    let (mut store, _) = MiniStore::open_with_opts(dir, opts).expect("reopen");
    let obs = obs::Registry::new();
    store.set_obs(obs.clone());
    (store, obs)
}

/// Only a point get admits a block (DESIGN.md §42). A scan and a put
/// leave the cache's entries and bytes as they found them, and a put
/// reads no block at all (DESIGN.md §44); a flush that rebases a region
/// onto its new segment evicts the blocks point gets had admitted from
/// the old one, and leaves a clean region's alone; and a scrub, which
/// walks every replica's blocks, admits none of them.
#[test]
fn scans_puts_and_scrubs_leave_the_cache_and_a_rebase_evicts() {
    let dir = tmp_dir("walks");
    flushed_rows(&dir, 96, 8);
    let (store, obs) = reopen(&dir, 8 << 20);
    for key in [0, 50] {
        store.get(TABLE, &row_key(key)).expect("get").expect("row");
    }
    let found = store.cache_stats();
    assert_eq!(found.entries, 2);

    assert_eq!(scan_all(&store).len(), 96);
    assert_eq!(store.cache_stats(), found, "a scan changed the cache");

    let misses = counter(&obs, "cfstore.block_cache.misses");
    for key in [30, 0] {
        let put = Op::Put {
            key,
            col: 1,
            val: 7,
        };
        apply(&store, &put);
    }
    assert_eq!(store.cache_stats(), found, "a put changed the cache");
    assert_eq!(
        counter(&obs, "cfstore.block_cache.misses"),
        misses,
        "a put read a block"
    );

    // The flush rewrites the two written regions and rebases them: row
    // 0's region drops the block its get admitted, and row 50's, clean,
    // keeps its own.
    store.flush().expect("flush");
    assert_eq!(store.cache_stats().entries, 1);
    assert!(store.cache_stats().used_bytes < found.used_bytes);
    // Hits: the scan's two cached blocks, the flush's read of row 0's
    // and this get's.
    store.get(TABLE, &row_key(50)).expect("get").expect("row");
    assert_eq!(counter(&obs, "cfstore.block_cache.hits"), 4);
    assert_eq!(counter(&obs, "cfstore.block_cache.evictions"), 0);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let dir = tmp_dir("scrub");
    {
        let (store, _) =
            ShardedStore::open(&dir, ShardOptions::default(), obs::Registry::disabled())
                .expect("open sharded");
        store
            .create_table_with_threshold(TABLE, &[FAMILY], 8)
            .expect("create_table");
        for key in 0..KEYS {
            let put = Put::new(row_key(key), FAMILY, b"c0".to_vec(), vec![key as u8]);
            store.put(TABLE, put).expect("put");
        }
        store.flush().expect("flush");
    }
    let (mut store, _) =
        ShardedStore::open(&dir, ShardOptions::default(), obs::Registry::disabled())
            .expect("reopen sharded");
    let obs = obs::Registry::new();
    store.set_obs(obs.clone());
    store.get(TABLE, &row_key(3)).expect("get").expect("row");
    assert_eq!(counter(&obs, "cfstore.block_cache.misses"), 1);
    assert_eq!(store.scrub().expect("scrub"), 0);
    let walked = counter(&obs, "cfstore.block_cache.misses") - 1;
    assert!(walked >= 2, "the scrub read {walked} uncached blocks");
    assert_eq!(counter(&obs, "cfstore.block_cache.hits"), 1);
    // A second scrub finds exactly what the first did: the one block the
    // get admitted, and nothing the first scrub read.
    assert_eq!(store.scrub().expect("scrub"), 0);
    assert_eq!(counter(&obs, "cfstore.block_cache.misses"), 1 + 2 * walked);
    assert_eq!(counter(&obs, "cfstore.block_cache.hits"), 2);
    store.get(TABLE, &row_key(3)).expect("get").expect("row");
    assert_eq!(counter(&obs, "cfstore.block_cache.hits"), 3);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A scan touches no block's recency: with blocks 0 and 1 of one segment
/// cached at a two-block budget, a full scan in between leaves block 0 the
/// least recently used, so the get that admits block 2 evicts block 0 and
/// block 1 still hits.
#[test]
fn a_scan_leaves_the_lru_order_to_point_gets() {
    let dir = tmp_dir("lru");
    flushed_rows(&dir, 96, 1024);
    let segments: Vec<SegmentReader> = std::fs::read_dir(&dir)
        .expect("read_dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .map(|p| SegmentReader::open(&p).expect("segment"))
        .collect();
    assert_eq!(segments.len(), 1);
    let reader = &segments[0];
    assert_eq!(reader.block_count(), 3);
    let bytes: Vec<u64> = (0..3).map(|i| reader.block_bytes(i)).collect();
    let budget = (bytes[0] + bytes[1]).max(bytes[1] + bytes[2]);
    assert!(
        bytes.iter().sum::<u64>() > budget,
        "three blocks fit the budget"
    );

    let (store, obs) = reopen(&dir, budget);
    let get = |key: u64| store.get(TABLE, &row_key(key)).expect("get").expect("row");
    get(0);
    get(32);
    assert_eq!(store.cache_stats().entries, 2);
    assert_eq!(scan_all(&store).len(), 96);
    assert_eq!(counter(&obs, "cfstore.block_cache.hits"), 2);
    assert_eq!(counter(&obs, "cfstore.block_cache.misses"), 3);

    get(64);
    assert_eq!(counter(&obs, "cfstore.block_cache.evictions"), 1);
    get(32);
    assert_eq!(
        counter(&obs, "cfstore.block_cache.hits"),
        3,
        "block 1 was evicted"
    );
    get(0);
    assert_eq!(
        counter(&obs, "cfstore.block_cache.misses"),
        5,
        "block 0 was kept"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// One region of 96 rows, at a threshold of 96, flushed to a segment of
/// three blocks and reopened with a fresh registry.
fn reopened_three_blocks(tag: &str) -> (PathBuf, MiniStore, obs::Registry) {
    let dir = tmp_dir(tag);
    flushed_rows(&dir, 96, 96);
    let blocks: Vec<usize> = std::fs::read_dir(&dir)
        .expect("read_dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .map(|p| SegmentReader::open(&p).expect("segment").block_count())
        .collect();
    assert_eq!(blocks, [3], "one segment of three blocks");
    let (store, obs) = reopen(&dir, 8 << 20);
    (dir, store, obs)
}

/// A split reads no block (DESIGN.md §46): its cut comes from the
/// segment's block index, and its count from the index and the trailer.
#[test]
fn a_split_reads_no_block() {
    let (dir, store, obs) = reopened_three_blocks("split");
    let mut key = 96;
    while counter(&obs, "cfstore.region.splits") == 0 {
        assert!(key < 200, "no put split the region");
        let val = key;
        apply(&store, &Op::Put { key, col: 0, val });
        key += 1;
    }
    for name in ["hits", "misses", "fill_bytes"] {
        let count = counter(&obs, &format!("cfstore.block_cache.{name}"));
        assert_eq!(count, 0, "the split counted block-cache {name}");
    }
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Halves cut at a block boundary share no block (DESIGN.md §46): the
/// flush that rewrites both halves reads each of the segment's three
/// blocks once. A cut inside a block would have both halves read it.
#[test]
fn halves_cut_at_a_block_boundary_share_no_block() {
    let (dir, mut store, _) = reopened_three_blocks("halves");
    let put = Op::Put {
        key: 96,
        col: 0,
        val: 96,
    };
    apply(&store, &put);
    assert_eq!(store.region_count(TABLE), Ok(2));
    let obs = obs::Registry::new();
    store.set_obs(obs.clone());
    store.flush().expect("flush");
    assert_eq!(counter(&obs, "cfstore.block_cache.misses"), 3);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Crash injected into a flush mid-segment-write: the flush returns
/// `Err(Crashed)` and poisons the store, the manifest never swaps, and a
/// reopen recovers every acked write from the intact WAL — the torn
/// segment surfaces only as an orphan for fsck.
#[test]
fn mid_flush_crash_loses_nothing() {
    let dir = tmp_dir("flushcrash");
    let (store, _) = MiniStore::open_with_opts(
        &dir,
        StoreOptions {
            crash: CrashSpec {
                during_flush_segment: Some(0),
                ..CrashSpec::default()
            },
            ..StoreOptions::default()
        },
    )
    .expect("open");
    create_table(&store);

    // Distinct keys, known values: "acked" is checkable key by key.
    let mut acked: Vec<u64> = Vec::new();
    for key in 0..200u64 {
        let put = Put::new(
            row_key(key),
            FAMILY,
            b"c0".to_vec(),
            key.to_be_bytes().to_vec(),
        );
        store.put(TABLE, put).expect("put before the flush");
        acked.push(key);
    }
    assert_eq!(store.flush(), Err(StoreError::Crashed));
    assert!(store.is_crashed(), "the torn flush poisons the store");
    // The poisoned store degrades writes with a typed error.
    let late = Put::new(row_key(200), FAMILY, b"c0".to_vec(), vec![0u8]);
    assert_eq!(store.put(TABLE, late), Err(StoreError::Crashed));
    drop(store);

    let (reopened, report) = MiniStore::open(&dir).expect("reopen after a mid-flush crash");
    // The manifest never swapped: no segment is trusted, the torn
    // segment 0 is reported as an orphan, and the WAL replays whole.
    assert_eq!(
        report.segments_loaded, 0,
        "torn flush must not publish segments"
    );
    assert!(
        !report.orphan_segments.is_empty(),
        "torn segment must surface as an orphan"
    );
    assert!(
        report.truncation.is_none(),
        "crash was in flush, not in the WAL"
    );

    let rows = scan_all(&reopened);
    assert_eq!(
        rows.len(),
        acked.len(),
        "recovered row count != acked put count"
    );
    for key in &acked {
        let row = reopened
            .get(TABLE, &row_key(*key))
            .expect("get after recovery")
            .unwrap_or_else(|| panic!("acked key {key} lost across a mid-flush crash"));
        let got = row.value(FAMILY, b"c0").expect("cell present");
        assert_eq!(got.as_ref(), key.to_be_bytes().as_slice());
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
