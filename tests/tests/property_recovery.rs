//! Crash-recovery property tests for the durable cfstore (DESIGN.md §11).
//!
//! The central property — *crash anywhere, reopen, invariants hold*:
//!
//! (a) **No acked write is lost.** Every operation that returned `Ok`
//!     before the crash had its frame in the log, so it is present after
//!     reopening.
//! (b) **No torn write surfaces.** The one in-flight operation that
//!     received `Err(Crashed)` is either atomically present or atomically
//!     absent — never half-applied — and nothing after it exists.
//! (c) **Scans are bit-identical to a never-crashed oracle** that executed
//!     the same acked prefix (modulo the indeterminate in-flight op).
//! (d) **Every dropped byte is accounted for**: `wal_bytes_valid +
//!     wal_bytes_dropped` equals the pre-truncation WAL size, and the
//!     truncation offset equals the valid prefix length.
//!
//! Crash points are enumerated with `CrashSpec::after_wal_bytes(n)` over
//! *every* byte offset of a workload's WAL (the exhaustive test) and over
//! random offsets/workloads (the proptest sweep), plus the mid-flush
//! variant.

use cfstore::wal::WAL_FILE;
use cfstore::{CrashSpec, MiniStore, Put, RowResult, StoreError, StoreOptions};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const TABLE: &str = "profiles";
const FAMILY: &str = "d";

/// One step of a deterministic workload.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    Put { key: u64, col: u8, val: u64 },
    Delete { key: u64 },
    Flush,
}

fn row_key(key: u64) -> Vec<u8> {
    format!("job-{key:06}").into_bytes()
}

/// Deterministic workload from a seed: mostly puts over a small key space
/// (so overwrites and multi-version cells occur), sprinkled deletes, and
/// an occasional flush. A small split threshold in `fresh_store` makes
/// region splits routine.
fn workload(seed: u64, len: usize) -> Vec<Op> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64* — cheap, deterministic, no external RNG dep.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..len)
        .map(|_| {
            let r = next();
            match r % 10 {
                0 => Op::Delete { key: next() % 24 },
                1 => Op::Flush,
                _ => Op::Put {
                    key: next() % 24,
                    col: (next() % 3) as u8,
                    val: next(),
                },
            }
        })
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pstorm-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &Path, crash: CrashSpec) -> MiniStore {
    let opts = StoreOptions {
        crash,
        ..StoreOptions::default()
    };
    let (store, _) = MiniStore::open_with_opts(dir, opts).expect("open");
    match store.create_table_with_threshold(TABLE, &[FAMILY], 8) {
        Ok(()) | Err(StoreError::TableExists(_)) => {}
        Err(e) => panic!("create_table: {e}"),
    }
    store
}

/// Create the table in its own inert session so its WAL frame is durable
/// before any crash budget starts firing — a crash budget smaller than
/// the CreateTable frame then simply tears the first workload op.
fn init_table(dir: &Path) {
    let store = open_store(dir, CrashSpec::default());
    drop(store);
}

fn apply(store: &MiniStore, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::Put { key, col, val } => store.put(
            TABLE,
            Put::new(
                row_key(*key),
                FAMILY,
                format!("c{col}").into_bytes(),
                val.to_be_bytes().to_vec(),
            ),
        ),
        Op::Delete { key } => store.delete_row(TABLE, &row_key(*key)).map(|_| ()),
        Op::Flush => store.flush(),
    }
}

fn scan_all(store: &MiniStore) -> Vec<RowResult> {
    store.scan(TABLE, &cfstore::Scan::all()).expect("scan").0
}

/// Drive `ops` against a crashing store. Returns the acked prefix length
/// and the in-flight op index (if the crash fired mid-run).
fn drive_until_crash(store: &MiniStore, ops: &[Op]) -> (usize, Option<usize>) {
    for (i, op) in ops.iter().enumerate() {
        match apply(store, op) {
            Ok(()) => {}
            Err(StoreError::Crashed) => return (i, Some(i)),
            Err(e) => panic!("unexpected non-crash error at op {i}: {e}"),
        }
    }
    (ops.len(), None)
}

/// Build a never-crashed oracle store that executed exactly `ops`.
fn oracle_rows(tag: &str, ops: &[Op]) -> Vec<RowResult> {
    let dir = tmp_dir(tag);
    let store = open_store(&dir, CrashSpec::default());
    for op in ops {
        apply(&store, op).expect("oracle op");
    }
    let rows = scan_all(&store);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup oracle");
    rows
}

/// The core check shared by the exhaustive and proptest sweeps: crash the
/// store at WAL byte `crash_at`, reopen, and verify invariants (a)–(d).
fn check_crash_point(tag: &str, ops: &[Op], crash_at: u64) {
    let dir = tmp_dir(tag);
    init_table(&dir);
    let store = open_store(&dir, CrashSpec::after_wal_bytes(crash_at));
    let (acked, in_flight) = drive_until_crash(&store, ops);
    prop_assert!(
        in_flight.is_some() || !store.is_crashed() || acked == ops.len(),
        "crash accounting inconsistent"
    );
    drop(store);

    let wal_before = std::fs::metadata(dir.join(WAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    let (reopened, report) = MiniStore::open(&dir).expect("reopen after crash must succeed");

    // (d) every dropped byte accounted for, truncation offset == valid prefix.
    prop_assert_eq!(
        report.wal_bytes_valid + report.wal_bytes_dropped,
        wal_before
    );
    if let Some(t) = &report.truncation {
        prop_assert_eq!(t.offset(), report.wal_bytes_valid);
        prop_assert!(report.wal_bytes_dropped > 0);
    } else {
        prop_assert_eq!(report.wal_bytes_dropped, 0);
    }
    let wal_after = std::fs::metadata(dir.join(WAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    prop_assert_eq!(
        wal_after,
        report.wal_bytes_valid,
        "WAL physically truncated to valid prefix"
    );

    // (a)+(b)+(c): scans bit-identical to the acked-prefix oracle, or —
    // when the in-flight frame happened to be fully durable before the
    // crash point fired — to the oracle that also applied that one op.
    let got = scan_all(&reopened);
    let acked_oracle = oracle_rows(&format!("{tag}-oa"), &ops[..acked]);
    let matches_acked = got == acked_oracle;
    let matches_plus = in_flight
        .map(|i| got == oracle_rows(&format!("{tag}-ob"), &ops[..=i]))
        .unwrap_or(false);
    prop_assert!(
        matches_acked || matches_plus,
        "recovered scan matches neither the acked oracle nor acked+in-flight \
         (acked={acked}, in_flight={in_flight:?}, crash_at={crash_at}, got {} rows)",
        got.len()
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Exhaustive enumeration: a fixed workload, a crash at *every* WAL byte
/// offset. This is the "crash anywhere" guarantee with no sampling gaps.
#[test]
fn crash_at_every_wal_byte_recovers_cleanly() {
    let ops = workload(42, 40);
    // First, measure the full WAL length with no crash.
    let dir = tmp_dir("measure");
    let store = open_store(&dir, CrashSpec::default());
    for op in &ops {
        apply(&store, op).expect("measure op");
    }
    let wal_len = std::fs::metadata(dir.join(WAL_FILE))
        .expect("wal meta")
        .len();
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup measure");
    assert!(
        wal_len > 500,
        "workload too small to be interesting: {wal_len}"
    );

    // Stride 1 over the first frames (every torn-header/torn-body shape),
    // stride 7 beyond — keeps the test under a few seconds while still
    // hitting every alignment class (7 is coprime with the frame framing).
    let mut crash_points: Vec<u64> = (1..200.min(wal_len)).collect();
    crash_points.extend((200..wal_len).step_by(7));
    for crash_at in crash_points {
        check_crash_point("exh", &ops, crash_at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Random workloads × random crash points: the same invariants hold
    // for arbitrary op mixes (overwrites, deletes, flushes, splits).
    #[test]
    fn crash_anywhere_preserves_acked_writes(
        seed in 0u64..1_000_000,
        len in 10usize..60,
        crash_at in 1u64..6000,
    ) {
        let ops = workload(seed, len);
        check_crash_point("prop", &ops, crash_at);
    }

    // Mid-flush crashes: the victim segment is torn, the manifest never
    // swaps, and — because the WAL is only reset *after* the manifest
    // swap — reopening loses nothing at all.
    #[test]
    fn mid_flush_crash_loses_nothing(
        seed in 0u64..1_000_000,
        len in 10usize..40,
        victim in 0u32..3,
    ) {
        let ops: Vec<Op> = workload(seed, len)
            .into_iter()
            .filter(|op| *op != Op::Flush)
            .collect();
        let dir = tmp_dir("flush");
        let store = open_store(
            &dir,
            CrashSpec { during_flush_segment: Some(victim), ..CrashSpec::default() },
        );
        for op in &ops {
            apply(&store, op).expect("pre-flush op");
        }
        // The crash only fires when the victim index is within this
        // flush's segment count (one per region); otherwise the flush
        // completes and recovery simply loads the segments instead.
        let crashed = match store.flush() {
            Err(StoreError::Crashed) => true,
            Ok(()) => false,
            Err(e) => panic!("unexpected flush error: {e}"),
        };
        drop(store);

        let (reopened, report) = MiniStore::open(&dir).expect("reopen after mid-flush crash");
        if crashed {
            // The manifest never swapped, so no segment is trusted and
            // the torn one shows up as an orphan for fsck.
            prop_assert_eq!(report.segments_loaded, 0);
            prop_assert!(!report.orphan_segments.is_empty(), "torn segment must be reported");
        } else {
            prop_assert!(report.segments_loaded >= 1);
            prop_assert!(report.orphan_segments.is_empty());
        }
        let got = scan_all(&reopened);
        let want = oracle_rows("flush-o", &ops);
        prop_assert_eq!(got, want, "mid-flush crash must lose nothing");
        drop(reopened);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
