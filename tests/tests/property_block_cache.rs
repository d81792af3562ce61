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
//! - a crash injected into the **background** flusher mid-segment-write
//!   poisons the store without losing a single acked write — the
//!   manifest never swaps, and recovery replays the intact WAL.

use cfstore::{CrashSpec, MiniStore, Put, RowResult, StoreError, StoreOptions};
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

    // Warm scan: identical rows; with an ample budget it is all hits.
    let warm = scan_all(&subject);
    prop_assert_eq!(&warm, &want, "warm lazy scan diverges");
    if budget >= 8 << 20 {
        prop_assert_eq!(
            counter(&obs, "cfstore.block_cache.misses"),
            cold_misses,
            "ample budget: warm scan must not re-read blocks"
        );
        prop_assert!(counter(&obs, "cfstore.block_cache.hits") >= report.segment_blocks);
    }

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

    // Mutation promotes the touched region out of the cache path. A
    // fresh key (outside the workload keyspace, so its timestamp is not
    // compared against the oracle's clock) must be readable, and every
    // pre-existing row must come back bit-identical after the promotion.
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
    prop_assert_eq!(&after, &want, "post-promotion scan diverges");
    let fresh_row = subject
        .get(TABLE, &row_key(fresh))
        .expect("get promoted row")
        .expect("promoted row present");
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

/// Crash injected into the *background* flusher mid-segment-write: the
/// store is poisoned asynchronously, the manifest never swaps, and a
/// reopen recovers every acked write from the intact WAL — the torn
/// segment surfaces only as an orphan for fsck.
#[test]
fn background_flush_crash_loses_nothing() {
    let dir = tmp_dir("bgcrash");
    let (store, _) = MiniStore::open_with_opts(
        &dir,
        StoreOptions {
            crash: CrashSpec {
                during_flush_segment: Some(0),
                ..CrashSpec::default()
            },
            background_flush_wal_bytes: Some(256),
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
        match store.put(TABLE, put) {
            Ok(()) => acked.push(key),
            // The flusher already tripped the armed crash point; the
            // poisoned store degrades writes with a typed error.
            Err(StoreError::Crashed) => break,
            Err(e) => panic!("unexpected error at key {key}: {e}"),
        }
    }
    // The WAL-growth trigger fired long before 200 puts; wait (bounded)
    // for the flusher thread to hit the armed crash point.
    for _ in 0..2000 {
        if store.is_crashed() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(
        store.is_crashed(),
        "background flusher never reached the armed mid-flush crash point"
    );
    drop(store); // joins the flusher thread

    let (reopened, report) = MiniStore::open(&dir).expect("reopen after background-flush crash");
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
            .unwrap_or_else(|| panic!("acked key {key} lost across background-flush crash"));
        let got = row.value(FAMILY, b"c0").expect("cell present");
        assert_eq!(got.as_ref(), key.to_be_bytes().as_slice());
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
