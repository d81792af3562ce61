//! Crash, loss, and heal property tests for the sharded, replicated
//! cfstore (DESIGN.md §13). The PR-4 crash harness extended per shard:
//!
//! (a) **Kill any single shard at every WAL byte** (with the background
//!     flusher racing) and every acked write still scans bit-identical
//!     to an unsharded oracle that executed the same acked prefix — or,
//!     when the in-flight batch happened to reach every participant's
//!     WAL, the oracle that also applied that one op. The cross-shard
//!     commit rule never tears a batch: it is atomically present on all
//!     replicas or on none.
//! (b) **Lose any whole shard** (directory deleted) and recovery
//!     rebuilds it from the surviving replicas: scans are bit-identical,
//!     the META catalog (placement, per-slot ownership, per-shard row
//!     sets) equals the never-lost catalog, and the rebuild is counted
//!     in `cfstore.shard.<id>.heal.*`. Intra-shard region *boundaries*
//!     are deliberately not compared — a rebuilt shard re-splits from
//!     its own insertion order (DESIGN.md §13).
//! (c) **Corrupt a flushed segment on disk** and the next scan heals the
//!     bad replica from a peer, rewriting the corrupt copy (the old
//!     segment file is gone afterwards), with the repair visible in the
//!     heal counters and invisible in the scan results.
//! (d) **Matcher output is unchanged**: the same profiles stored in a
//!     sharded store produce the same match as an unsharded store,
//!     before and after killing each shard in turn.
//! (e) **`store_fsck` and reopen agree**: at every crash point of (a),
//!     and for an emptied shard directory and an uncommitted cross-shard
//!     batch, `fsck::run(dir, false)` exits 0 exactly when the reopen
//!     that follows changes nothing.
//! (f) **The write path heals too**: a `put` whose target region sits on
//!     a corrupt segment repairs the replica *before* any WAL byte is
//!     appended — or, when the repair cannot be made durable, fails
//!     without appending one.

use cfstore::{
    CrashSpec, MiniStore, Put, RowResult, Scan, SegmentReader, ShardOptions, ShardedRecoveryReport,
    ShardedStore, StoreError, SyncPolicy,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const TABLE: &str = "profiles";
const FAMILY: &str = "d";
const SHARDS: u32 = 3;
const REPLICATION: u32 = 2;
const SPLIT_THRESHOLD: usize = 8;

/// One step of a deterministic workload (same shape as
/// `property_recovery.rs`, so the sharded store faces the exact op mix
/// the single store already survives).
#[derive(Debug, Clone, PartialEq)]
enum Op {
    Put { key: u64, col: u8, val: u64 },
    Delete { key: u64 },
    Flush,
}

fn row_key(key: u64) -> Vec<u8> {
    format!("job-{key:06}").into_bytes()
}

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
        "pstorm-shards-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_opts() -> ShardOptions {
    ShardOptions {
        shards: SHARDS,
        replication: REPLICATION,
        ..ShardOptions::default()
    }
}

fn open_sharded(dir: &Path, opts: ShardOptions) -> ShardedStore {
    let (store, _) = ShardedStore::open_with_opts(dir, opts).expect("open sharded");
    match store.create_table_with_threshold(TABLE, &[FAMILY], SPLIT_THRESHOLD) {
        Ok(()) | Err(StoreError::TableExists(_)) => {}
        Err(e) => panic!("create_table: {e}"),
    }
    store
}

/// Create the table (and the `SHARDS` catalog) in an inert session, so
/// the crashing session's WAL byte budget tears workload ops, never the
/// table bootstrap.
fn init_store(dir: &Path) {
    drop(open_sharded(dir, base_opts()));
}

fn apply_sharded(store: &ShardedStore, op: &Op) -> Result<(), StoreError> {
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

fn apply_single(store: &MiniStore, op: &Op) -> Result<(), StoreError> {
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

fn scan_all(store: &ShardedStore) -> Vec<RowResult> {
    store.scan(TABLE, &Scan::all()).expect("sharded scan").0
}

/// Oracle scans for *every* prefix of `ops`, from one unsharded durable
/// store: `result[k]` is the scan after exactly `ops[..k]`. The sharded
/// store stamps cells from a global clock that ticks exactly like the
/// single store's, so equality here is bit-level, timestamps included.
fn oracle_prefixes(tag: &str, ops: &[Op]) -> Vec<Vec<RowResult>> {
    let dir = tmp_dir(tag);
    let (store, _) =
        MiniStore::open_with(&dir, SyncPolicy::EveryOp, CrashSpec::default()).expect("oracle open");
    store
        .create_table_with_threshold(TABLE, &[FAMILY], SPLIT_THRESHOLD)
        .expect("oracle table");
    let mut snaps = Vec::with_capacity(ops.len() + 1);
    snaps.push(store.scan(TABLE, &Scan::all()).expect("oracle scan").0);
    for op in ops {
        apply_single(&store, op).expect("oracle op");
        snaps.push(store.scan(TABLE, &Scan::all()).expect("oracle scan").0);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup oracle");
    snaps
}

/// `store_fsck`'s contract (OPERATIONS.md): exit 0 means a `--repair`
/// run — a reopen — would change nothing. This is what a reopen changing
/// nothing looks like from its report.
fn reopen_changed_nothing(report: &ShardedRecoveryReport) -> bool {
    report.lost_shards.is_empty()
        && report.aborted_batches == 0
        && report.total.wal_bytes_dropped == 0
}

/// The core of the shard-kill sweep: crash shard `victim` after it wrote
/// `crash_at` WAL bytes (background flusher racing), reopen the whole
/// sharded store, and verify nothing acked was lost and nothing was torn.
fn check_shard_crash_point(
    tag: &str,
    ops: &[Op],
    victim: u32,
    crash_at: u64,
    oracles: &[Vec<RowResult>],
) {
    let dir = tmp_dir(tag);
    init_store(&dir);
    let store = open_sharded(
        &dir,
        ShardOptions {
            crash_shard: Some((victim, CrashSpec::after_wal_bytes(crash_at))),
            background_flush_wal_bytes: Some(700),
            ..base_opts()
        },
    );
    let mut acked = ops.len();
    let mut in_flight = None;
    for (i, op) in ops.iter().enumerate() {
        match apply_sharded(&store, op) {
            Ok(()) => {}
            Err(StoreError::Crashed) => {
                acked = i;
                in_flight = Some(i);
                break;
            }
            Err(e) => panic!("unexpected non-crash error at op {i}: {e}"),
        }
    }
    drop(store);

    let fsck = pstorm_bench::fsck::run(&dir, false);
    let (reopened, report) =
        ShardedStore::open_with_opts(&dir, base_opts()).expect("reopen after shard crash");
    assert_eq!(
        fsck,
        if reopen_changed_nothing(&report) {
            0
        } else {
            3
        },
        "victim {victim} at byte {crash_at}: fsck disagrees with the reopen: {} lost, \
         {} aborted, {} WAL byte(s) dropped",
        report.lost_shards.len(),
        report.aborted_batches,
        report.total.wal_bytes_dropped
    );
    // A crashed shard is torn, never *lost* — WAL truncation and the
    // commit rule reconcile it without a rebuild.
    assert!(
        report.lost_shards.is_empty(),
        "victim {victim} at byte {crash_at}: crash must not look like shard loss: {:?}",
        report.lost_shards
    );
    // Under the global write lock at most the one in-flight batch can be
    // uncommitted on a surviving participant.
    assert!(
        report.aborted_batches <= 1,
        "victim {victim} at byte {crash_at}: {} batches aborted",
        report.aborted_batches
    );

    let got = scan_all(&reopened);
    let matches_acked = got == oracles[acked];
    let matches_plus = in_flight.map(|i| got == oracles[i + 1]).unwrap_or(false);
    assert!(
        matches_acked || matches_plus,
        "victim {victim} at byte {crash_at}: recovered scan matches neither the acked \
         oracle nor acked+in-flight (acked={acked}, in_flight={in_flight:?}, got {} rows)",
        got.len()
    );
    // The in-flight batch is atomic *across shards*: every replica of
    // every row agrees with the merged scan, cell for cell.
    for row in &got {
        for g in reopened.replica_shards(&row.row) {
            let (copies, _) = reopened
                .shard_scan(g, TABLE, &Scan::prefix(&row.row))
                .expect("replica scan");
            assert_eq!(
                copies.len(),
                1,
                "victim {victim} at byte {crash_at}: replica {g} dropped a committed row"
            );
            assert_eq!(
                &copies[0], row,
                "victim {victim} at byte {crash_at}: replica {g} diverged"
            );
        }
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Per-shard WAL sizes after a crash-free run of `ops` — the sweep range
/// for each victim.
fn measure_wal_lens(tag: &str, ops: &[Op]) -> Vec<u64> {
    let dir = tmp_dir(tag);
    init_store(&dir);
    let store = open_sharded(&dir, base_opts());
    for op in ops {
        apply_sharded(&store, op).expect("measure op");
    }
    let lens = (0..SHARDS)
        .map(|g| {
            std::fs::metadata(store.shard_dir(g).join(cfstore::wal::WAL_FILE))
                .expect("shard wal meta")
                .len()
        })
        .collect();
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup measure");
    lens
}

/// Exhaustive enumeration: a fixed workload, each of the three shards
/// killed at *every* WAL byte of its log (stride 1 through the first
/// frames, a coprime stride beyond — every torn-header/torn-body/torn-
/// marker alignment class is hit for every victim).
#[test]
fn crash_any_single_shard_at_every_wal_byte_recovers_cleanly() {
    let ops = workload(42, 36);
    let oracles = oracle_prefixes("exh-oracle", &ops);
    let wal_lens = measure_wal_lens("exh-measure", &ops);
    for victim in 0..SHARDS {
        let len = wal_lens[victim as usize];
        assert!(len > 400, "shard {victim} workload too small: {len}");
        let mut crash_points: Vec<u64> = (1..96.min(len)).collect();
        crash_points.extend((96..len).step_by(13));
        for crash_at in crash_points {
            check_shard_crash_point("exh", &ops, victim, crash_at, &oracles);
        }
    }
}

/// The bounded chaos sweep `scripts/ci.sh` runs on every build (the
/// exhaustive sweep above is the full proof): each shard killed once at
/// a pseudo-random WAL offset, across several workload seeds.
#[test]
#[ignore = "bounded CI chaos sweep — run explicitly via scripts/ci.sh"]
fn bounded_shard_chaos_sweep() {
    let mut rng_state = 0x5EED_CAFE_F00D_D00Du64;
    let mut rng = move || {
        rng_state ^= rng_state >> 12;
        rng_state ^= rng_state << 25;
        rng_state ^= rng_state >> 27;
        rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for seed in 0..4u64 {
        let ops = workload(seed.wrapping_mul(31).wrapping_add(7), 36);
        let oracles = oracle_prefixes("chaos-oracle", &ops);
        let wal_lens = measure_wal_lens("chaos-measure", &ops);
        for victim in 0..SHARDS {
            let crash_at = 1 + rng() % wal_lens[victim as usize].max(2);
            check_shard_crash_point("chaos", &ops, victim, crash_at, &oracles);
        }
    }
}

/// What the META comparison captures about a store: everything a rebuild
/// must reconstruct. Region boundaries are deliberately absent (the lost
/// shard's split history is not replicated — DESIGN.md §13).
#[derive(Debug, PartialEq)]
struct CatalogView {
    shards: u32,
    replication: u32,
    placement: Vec<Vec<u32>>,
    /// Merged scan, bit-identical rows.
    merged: Vec<RowResult>,
    /// Per-shard row sets (row → full result), shard by shard.
    per_shard: Vec<BTreeMap<Vec<u8>, RowResult>>,
    /// Read amplification of a full scan: every replica of every row is
    /// scanned, structure-independent.
    rows_scanned: u64,
    rows_returned: u64,
}

fn capture(store: &ShardedStore) -> CatalogView {
    let meta = store.meta();
    let (merged, metrics) = store.scan(TABLE, &Scan::all()).expect("capture scan");
    let per_shard = (0..SHARDS)
        .map(|g| {
            store
                .shard_scan(g, TABLE, &Scan::all())
                .expect("capture shard scan")
                .0
                .into_iter()
                .map(|r| (r.row.to_vec(), r))
                .collect()
        })
        .collect();
    CatalogView {
        shards: meta.shards,
        replication: meta.replication,
        placement: meta.placement,
        merged,
        per_shard,
        rows_scanned: metrics.rows_scanned,
        rows_returned: metrics.rows_returned,
    }
}

/// Whole-shard loss, every victim: delete the shard's directory, reopen,
/// and the rebuilt catalog must equal the never-lost one — placement,
/// per-slot ownership, per-shard row sets, and scan read-amplification.
#[test]
fn whole_shard_loss_rebuilds_an_identical_catalog() {
    for victim in 0..SHARDS {
        let dir = tmp_dir("loss");
        init_store(&dir);
        {
            let store = open_sharded(&dir, base_opts());
            for op in &workload(1000 + victim as u64, 80) {
                apply_sharded(&store, op).expect("workload op");
            }
            store.flush().expect("flush");
        }
        let (store, _) = ShardedStore::open_with_opts(&dir, base_opts()).expect("clean reopen");
        let want = capture(&store);
        assert!(
            !want.per_shard[victim as usize].is_empty(),
            "victim {victim} owns no rows — workload too small to prove a rebuild"
        );
        let victim_dir = store.shard_dir(victim);
        drop(store);

        std::fs::remove_dir_all(&victim_dir).expect("kill shard");
        let reg = obs::Registry::new();
        let (store, report) =
            ShardedStore::open_traced(&dir, base_opts(), reg.clone()).expect("rebuild reopen");
        assert_eq!(report.lost_shards, vec![victim]);
        assert!(report.healed_rows > 0, "rebuild of {victim} healed no rows");
        let counters = reg.snapshot().counters;
        assert_eq!(
            counters[&format!("cfstore.shard.{victim}.heal.rebuilds")],
            1
        );
        assert!(counters[&format!("cfstore.shard.{victim}.heal.rows")] > 0);

        let got = capture(&store);
        assert_eq!(got, want, "rebuilt catalog diverged for victim {victim}");

        // The rebuild is durable: a further clean reopen loses nothing
        // and heals nothing.
        drop(store);
        let (store, report) =
            ShardedStore::open_with_opts(&dir, base_opts()).expect("post-rebuild");
        assert!(report.lost_shards.is_empty(), "rebuild did not stick");
        assert_eq!(capture(&store), want);
        drop(store);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random workloads × random victim × random crash offset: the same
    // invariants as the exhaustive sweep, for arbitrary op mixes.
    #[test]
    fn crash_any_shard_anywhere_preserves_acked_writes(
        seed in 0u64..1_000_000,
        len in 10usize..48,
        victim in 0u32..SHARDS,
        crash_at in 1u64..4000,
    ) {
        let ops = workload(seed, len);
        let oracles = oracle_prefixes("prop-oracle", &ops);
        check_shard_crash_point("prop", &ops, victim, crash_at, &oracles);
    }

    // Satellite 3 as a property: for random workloads and every victim,
    // the rebuilt META catalog equals the never-lost catalog.
    #[test]
    fn rebuilt_meta_catalog_equals_the_never_lost_catalog(
        seed in 0u64..1_000_000,
        len in 30usize..70,
        victim in 0u32..SHARDS,
    ) {
        let dir = tmp_dir("meta-prop");
        init_store(&dir);
        {
            let store = open_sharded(&dir, base_opts());
            for op in &workload(seed, len) {
                apply_sharded(&store, op).expect("workload op");
            }
            store.flush().expect("flush");
        }
        let (store, _) = ShardedStore::open_with_opts(&dir, base_opts()).expect("clean reopen");
        let want = capture(&store);
        let victim_dir = store.shard_dir(victim);
        drop(store);

        std::fs::remove_dir_all(&victim_dir).expect("kill shard");
        let (store, report) =
            ShardedStore::open_with_opts(&dir, base_opts()).expect("rebuild reopen");
        prop_assert_eq!(&report.lost_shards, &vec![victim]);
        let got = capture(&store);
        prop_assert_eq!(got, want);
        drop(store);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Flip one byte in the middle of the largest flushed segment of a shard
/// directory — it lands in a block body, which the lazy reopen does not
/// read, so the corruption is found by the first *read* of that block,
/// not by recovery. Returns the segment's path.
fn rot_largest_segment(shard_dir: &Path) -> PathBuf {
    let segment = std::fs::read_dir(shard_dir)
        .expect("read shard dir")
        .flatten()
        .filter(|e| {
            let n = e.file_name().to_string_lossy().into_owned();
            n.starts_with("seg-") && n.ends_with(".seg")
        })
        .max_by_key(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
        .expect("the shard has a segment")
        .path();
    let mut bytes = std::fs::read(&segment).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&segment, &bytes).expect("write corrupt segment");
    segment
}

/// On-disk segment corruption heals from a replica and *rewrites the bad
/// copy*: flip a byte in the middle of a flushed segment file, scan, and
/// the store serves bit-identical results while replacing the corrupt
/// segment on disk (the flipped file is gone afterwards).
#[test]
fn corrupt_segment_on_disk_heals_from_replica_and_rewrites_bad_copy() {
    let dir = tmp_dir("seg-corrupt");
    init_store(&dir);
    let ops: Vec<Op> = workload(77, 80)
        .into_iter()
        .filter(|op| !matches!(op, Op::Delete { .. }))
        .collect();
    {
        let store = open_sharded(&dir, base_opts());
        for op in &ops {
            apply_sharded(&store, op).expect("workload op");
        }
        store.flush().expect("flush");
    }
    let (store, _) = ShardedStore::open_with_opts(&dir, base_opts()).expect("clean reopen");
    let want = scan_all(&store);
    let shard_dir = store.shard_dir(0);
    drop(store);
    let victim_seg = rot_largest_segment(&shard_dir);

    let reg = obs::Registry::new();
    let (store, report) =
        ShardedStore::open_traced(&dir, base_opts(), reg.clone()).expect("reopen over corruption");
    assert!(
        report.lost_shards.is_empty(),
        "a single bad block must heal in place, not demote the shard to lost"
    );
    assert_eq!(scan_all(&store), want, "healed scan diverged");
    let counters = reg.snapshot().counters;
    assert!(
        counters["cfstore.shard.0.heal.reads"] >= 1,
        "no heal read counted"
    );
    assert!(
        counters["cfstore.shard.0.heal.repairs"] >= 1,
        "no repair counted"
    );
    assert!(
        counters["cfstore.shard.0.heal.rows"] > 0,
        "no healed rows counted"
    );
    assert!(
        !victim_seg.exists(),
        "the corrupt segment file must be rewritten (replaced), not left in place"
    );
    // The heal is durable: scanning again repairs nothing further.
    let repairs_before = counters["cfstore.shard.0.heal.repairs"];
    assert_eq!(scan_all(&store), want);
    assert_eq!(
        reg.snapshot().counters["cfstore.shard.0.heal.repairs"],
        repairs_before,
        "heal must be durable — the second scan repaired again"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// (e) The two states `store_fsck` used to call clean while a reopen
/// repaired them: a shard directory emptied in place (present, but no
/// MANIFEST and no WAL among peers that have both), and a whole frame of
/// a cross-shard batch on a survivor whose peer never logged it.
#[test]
fn fsck_flags_an_emptied_shard_dir_and_an_uncommitted_batch() {
    use pstorm_bench::fsck;

    let dir = tmp_dir("fsck-emptied");
    init_store(&dir);
    {
        let store = open_sharded(&dir, base_opts());
        for op in &workload(5, 30) {
            apply_sharded(&store, op).expect("workload op");
        }
        store.flush().expect("flush");
    }
    assert_eq!(fsck::run(&dir, false), 0, "clean store");
    let emptied = dir.join("shard-001");
    std::fs::remove_dir_all(&emptied).expect("empty shard 1");
    std::fs::create_dir(&emptied).expect("keep the directory");
    assert_eq!(
        fsck::run(&dir, false),
        3,
        "shard empty among non-empty peers"
    );
    let plan = ShardedStore::recovery_plan(&dir, &base_opts()).expect("plan");
    assert_eq!(plan.lost.get(&1), Some(&"empty among non-empty peers"));
    assert_eq!(fsck::run(&dir, true), 0, "repair rebuilds it");
    assert_eq!(fsck::run(&dir, false), 0, "the rebuild stuck");
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // Shard 2 dies before its first WAL byte: the first batch that names
    // it reaches its lower-numbered peer's WAL whole and shard 2's not
    // at all — uncommitted, never acked, and aborted by the next reopen.
    let dir = tmp_dir("fsck-uncommitted");
    init_store(&dir);
    {
        let store = open_sharded(
            &dir,
            ShardOptions {
                crash_shard: Some((2, CrashSpec::after_wal_bytes(0))),
                ..base_opts()
            },
        );
        let crashed = workload(5, 30)
            .iter()
            .any(|op| apply_sharded(&store, op) == Err(StoreError::Crashed));
        assert!(crashed, "some batch must name shard 2");
    }
    assert_eq!(fsck::run(&dir, false), 3, "uncommitted cross-shard batch");
    // The plan fsck printed names the gsn and the survivor's cut.
    let plan = ShardedStore::recovery_plan(&dir, &base_opts()).expect("plan");
    let gsn = *plan.aborted.first().expect("one aborted gsn");
    assert_eq!((plan.aborted.len(), plan.wal_cuts.len()), (1, 1));
    let names_gsn =
        |(finding, line): &(bool, String)| *finding && line.contains(&format!("batch gsn {gsn}"));
    assert!(plan.lines().iter().any(names_gsn), "{:?}", plan.lines());
    let (_, report) = ShardedStore::open_with_opts(&dir, base_opts()).expect("reopen");
    assert_eq!(report.aborted_batches, 1);
    assert_eq!(
        report.total.wal_bytes_dropped, 0,
        "whole frames, no torn tail"
    );
    assert_eq!(fsck::run(&dir, false), 0, "the reopen aborted it");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The non-delete workload the corrupt-block tests flush before rotting
/// a block (deletes could empty the victim segment).
fn rot_workload() -> Vec<Op> {
    workload(77, 80)
        .into_iter()
        .filter(|op| !matches!(op, Op::Delete { .. }))
        .collect()
}

/// A store holding `rot_workload()`, flushed, with one block body of
/// shard 0's largest segment flipped on disk, reopened with `opts` —
/// plus the segment's path and a stored row of it whose primary is
/// shard 0.
fn store_with_rotten_primary_block(
    tag: &str,
    opts: ShardOptions,
    reg: &obs::Registry,
) -> (PathBuf, ShardedStore, PathBuf, Vec<u8>) {
    let dir = tmp_dir(tag);
    init_store(&dir);
    let rows = {
        let store = open_sharded(&dir, base_opts());
        for op in &rot_workload() {
            apply_sharded(&store, op).expect("workload op");
        }
        store.flush().expect("flush");
        scan_all(&store)
    };
    // The envelope (header, trailer, footer) still verifies: only a
    // block body rotted.
    let segment = rot_largest_segment(&dir.join("shard-000"));
    let range = SegmentReader::open(&segment)
        .expect("segment metadata")
        .meta()
        .range
        .clone();

    let (store, report) =
        ShardedStore::open_traced(&dir, opts, reg.clone()).expect("lazy reopen over corruption");
    assert!(
        report.lost_shards.is_empty(),
        "the lazy open must not notice"
    );
    let healed_already = |k: &String| k.contains(".heal.");
    assert!(!reg.snapshot().counters.keys().any(healed_already));
    let row = rows
        .iter()
        .map(|r| r.row.to_vec())
        .find(|row| range.contains(row) && store.primary_shard(row) == 0)
        .expect("the segment holds a row whose primary is shard 0");
    (dir, store, segment, row)
}

/// (f) The heal ladder under `put_batch`: corruption found while
/// materializing the target region is repaired from the replica, and
/// only then is the batch logged.
#[test]
fn put_to_a_corrupt_block_heals_first_then_logs() {
    let reg = obs::Registry::new();
    let (dir, store, segment, row) = store_with_rotten_primary_block("put-heal", base_opts(), &reg);
    let put = Put::new(row, FAMILY, "c9", b"after the heal".to_vec());
    store.put(TABLE, put.clone()).expect("healed put");

    let counters = reg.snapshot().counters;
    assert_eq!(counters["cfstore.shard.0.heal.reads"], 1);
    assert_eq!(counters["cfstore.shard.0.heal.repairs"], 1);
    assert_eq!(counters["cfstore.shard.heal.reads"], 1);
    assert_eq!(counters["cfstore.shard.heal.repairs"], 1);
    assert!(
        !segment.exists(),
        "the corrupt segment file must be replaced"
    );
    // The single-store oracle lives the same life — flush, reopen, one
    // more put — so equality is bit-level, timestamps included.
    let oracle_dir = tmp_dir("put-heal-oracle");
    let open_oracle = || {
        MiniStore::open_with(&oracle_dir, SyncPolicy::EveryOp, CrashSpec::default())
            .expect("oracle open")
            .0
    };
    let oracle = open_oracle();
    oracle
        .create_table_with_threshold(TABLE, &[FAMILY], SPLIT_THRESHOLD)
        .expect("oracle table");
    for op in &rot_workload() {
        apply_single(&oracle, op).expect("oracle op");
    }
    oracle.flush().expect("oracle flush");
    drop(oracle);
    let oracle = open_oracle();
    oracle.put(TABLE, put).expect("oracle put");
    let got = scan_all(&store);
    assert_eq!(
        got,
        oracle.scan(TABLE, &Scan::all()).expect("oracle scan").0,
        "healed-then-written store diverged from the single-store oracle"
    );
    for row in &got {
        for g in store.replica_shards(&row.row) {
            let (copies, _) = store
                .shard_scan(g, TABLE, &Scan::prefix(&row.row))
                .expect("replica scan");
            assert_eq!(copies, std::slice::from_ref(row), "replica {g} diverged");
        }
    }
    drop((store, oracle));
    std::fs::remove_dir_all(&dir).expect("cleanup");
    std::fs::remove_dir_all(&oracle_dir).expect("cleanup oracle");
}

/// (f) When the repair cannot be made durable (the victim dies in the
/// heal's flush), the put fails with that error and no participant's
/// WAL received a byte — the batch was never half-logged.
#[test]
fn put_whose_heal_cannot_flush_fails_without_logging() {
    let reg = obs::Registry::new();
    let opts = ShardOptions {
        crash_shard: Some((
            0,
            CrashSpec {
                during_flush_segment: Some(0),
                ..CrashSpec::default()
            },
        )),
        ..base_opts()
    };
    let (dir, store, segment, row) = store_with_rotten_primary_block("put-noheal", opts, &reg);
    let wal_bytes = |store: &ShardedStore| -> Vec<u64> {
        (0..SHARDS)
            .map(|g| store.shard_wal_bytes_written(g))
            .collect()
    };
    let before = wal_bytes(&store);
    let put = Put::new(row.clone(), FAMILY, "c9", b"never logged".to_vec());
    assert_eq!(store.put(TABLE, put), Err(StoreError::Crashed));
    assert_eq!(wal_bytes(&store), before, "a failed heal must not log");
    let counters = reg.snapshot().counters;
    assert_eq!(counters["cfstore.shard.0.heal.reads"], 1);
    assert!(!counters.contains_key("cfstore.shard.0.heal.repairs"));
    assert!(segment.exists(), "nothing superseded the corrupt segment");
    // Reads still serve: the get falls through to the clean replica.
    let got = store.get(TABLE, &row).expect("replica read").expect("row");
    assert!(got.value(FAMILY, b"c9").is_none());
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Matcher output is unchanged on a sharded store — including after the
/// loss (and rebuild) of each shard in turn.
#[test]
fn matcher_output_is_unchanged_on_sharded_store_and_across_shard_loss() {
    use datagen::{corpus, SizeClass};
    use mrjobs::jobs;
    use mrsim::{ClusterSpec, JobConfig};
    use profiler::{collect_full_profile, collect_sample_profile, SampleSize};
    use pstorm::{match_profile, MatcherConfig, ProfileStore, SubmittedJob};
    use staticanalysis::StaticFeatures;

    let cl = ClusterSpec::ec2_c1_medium_16();
    let dir = tmp_dir("matcher");
    let single = ProfileStore::new().expect("single store");
    let (sharded, _) = ProfileStore::reopen_sharded(&dir).expect("sharded store");

    for spec in [jobs::word_count(), jobs::sort(), jobs::inverted_index()] {
        let ds = corpus::input_for(&spec.name, SizeClass::Small);
        let (profile, _) =
            collect_full_profile(&spec, &ds, &cl, &JobConfig::submitted(&spec), 5).unwrap();
        let statics = StaticFeatures::extract(&spec);
        single.put_profile(&statics, &profile).unwrap();
        sharded.put_profile(&statics, &profile).unwrap();
    }

    let spec = jobs::word_count();
    let text = corpus::random_text_1g();
    let sample = collect_sample_profile(
        &spec,
        &text,
        &cl,
        &JobConfig::submitted(&spec),
        SampleSize::OneTask,
        3,
    )
    .unwrap();
    let q = SubmittedJob {
        statics: StaticFeatures::extract(&spec),
        spec,
        sample: sample.profile,
        input_bytes: text.logical_bytes,
    };
    let cfg = MatcherConfig::default();

    let want = match_profile(&single, &q, &cfg)
        .expect("single match")
        .expect("word-count must match");
    let assert_same = |store: &ProfileStore, label: &str| {
        let got = match_profile(store, &q, &cfg)
            .expect("sharded match")
            .unwrap_or_else(|e| panic!("{label}: sharded matcher found no match: {e:?}"));
        assert_eq!(got.map.source_job, want.map.source_job, "{label}");
        assert_eq!(
            got.reduce.as_ref().map(|r| &r.source_job),
            want.reduce.as_ref().map(|r| &r.source_job),
            "{label}"
        );
        assert_eq!(
            got.profile, want.profile,
            "{label}: composite profile diverged"
        );
    };
    assert_same(&sharded, "pristine sharded store");

    sharded.flush().expect("flush");
    let shards = sharded.sharded().expect("sharded backend").shard_count();
    let shard_dirs: Vec<PathBuf> = (0..shards)
        .map(|g| sharded.sharded().unwrap().shard_dir(g))
        .collect();
    drop(sharded);
    for (victim, victim_dir) in shard_dirs.iter().enumerate() {
        std::fs::remove_dir_all(victim_dir).expect("kill shard");
        let (sharded, report) = ProfileStore::reopen_sharded(&dir).expect("rebuild reopen");
        assert_eq!(
            sharded.sharded().unwrap().shard_count(),
            shards,
            "catalog lost across rebuild"
        );
        assert!(
            !report.lost_shards.is_empty(),
            "victim {victim} not seen as lost"
        );
        assert_same(&sharded, &format!("after losing shard {victim}"));
        sharded.flush().expect("post-rebuild flush");
        drop(sharded);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
