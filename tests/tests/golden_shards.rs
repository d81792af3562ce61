//! Golden shard-layer transcripts (DESIGN.md §20).
//!
//! `property_shards.rs` and `property_reshard.rs` hold the sharded store
//! to invariants: oracle equality, replica bit-identity, counter
//! ceilings. This suite pins the same paths *by value*. Each scenario
//! drives one fixed seeded workload through the public API only and
//! records, at every checkpoint:
//!
//! * every `cfstore.shard.*` / `cfstore.reshard.*` counter (the
//!   thread-timed `*.flush.background` excluded — no scenario runs a
//!   flusher),
//! * every field of the `ShardedRecoveryReport` a reopen returned,
//! * a digest of each open shard's `shard_scan` — row, family, column,
//!   timestamp, value, checksum of every cell,
//! * a digest of every file under the store directory (name and bytes:
//!   `SHARDS`, `TOPOLOGY`, each shard's `MANIFEST`, WAL and segments).
//!
//! The scenarios: whole-shard loss → rebuild; a corrupt on-disk block
//! healed through `get`, through `scan` and through `put`; grow 3→5,
//! shrink 5→2, R 2→3 and a `with_override` plan, each run clean and run
//! again torn mid-copy by `crash_topology`, written to while parked, and
//! resumed; a heal while a migration is pre-cutover, then
//! `abort_reshard`; and the loss of an already-copied target shard
//! mid-migration.
//!
//! A diff in these literals means a rebuild, heal, copy, verify, prune
//! or reopen chose a different donor, installed different rows, flushed
//! at a different moment or counted differently. They are never
//! regenerated for a refactor.

use std::path::{Path, PathBuf};

use cfstore::shard::resharding::TOPOLOGY_FILE;
use cfstore::{
    Put, ReshardPhase, Scan, ShardOptions, ShardedRecoveryReport, ShardedStore, StoreError,
    Topology,
};
use pstorm_tests::{disk_digest, fnv, FNV_BASIS};

const TABLE: &str = "profiles";
const FAMILY: &str = "d";
const KEYS: u64 = 24;

#[derive(Debug, Clone)]
enum Op {
    Put { key: u64, col: u8, val: u64 },
    Delete { key: u64 },
    Flush,
}

fn row_key(key: u64) -> Vec<u8> {
    format!("job-{key:06}").into_bytes()
}

/// The xorshift workload `property_shards.rs` uses, same op mix.
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
                0 => Op::Delete { key: next() % KEYS },
                1 => Op::Flush,
                _ => Op::Put {
                    key: next() % KEYS,
                    col: (next() % 3) as u8,
                    val: next(),
                },
            }
        })
        .collect()
}

fn apply(store: &ShardedStore, op: &Op) -> Result<(), StoreError> {
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

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pstorm-golden-shards-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(shards: u32, replication: u32) -> ShardOptions {
    ShardOptions {
        shards,
        replication,
        ..ShardOptions::default()
    }
}

fn open(dir: &Path, o: ShardOptions, reg: &obs::Registry) -> (ShardedStore, ShardedRecoveryReport) {
    ShardedStore::open_traced(dir, o, reg.clone()).expect("open sharded")
}

/// A fresh `shards × replication` store holding `workload(seed, len)`.
fn seeded(dir: &Path, shards: u32, replication: u32, seed: u64, len: usize) -> ShardedStore {
    let (store, _) = open(dir, opts(shards, replication), &obs::Registry::disabled());
    store
        .create_table_with_threshold(TABLE, &[FAMILY], 8)
        .expect("create table");
    for op in &workload(seed, len) {
        apply(&store, op).expect("seed op");
    }
    store
}

/// Rows held and a digest over every cell of one shard's full scan.
fn shard_digest(store: &ShardedStore, shard: u32) -> (usize, u64) {
    let (rows, _) = store
        .shard_scan(shard, TABLE, &Scan::all())
        .expect("shard scan");
    let mut h = FNV_BASIS;
    for row in &rows {
        fnv(&mut h, &row.row);
        for (family, cols) in &row.families {
            fnv(&mut h, family.as_bytes());
            for (col, cell) in cols {
                fnv(&mut h, col);
                fnv(&mut h, &cell.timestamp.to_le_bytes());
                fnv(&mut h, &cell.value);
                fnv(&mut h, &cell.checksum.to_le_bytes());
            }
        }
    }
    (rows.len(), h)
}

/// The transcript one scenario accumulates and compares to its literal.
struct Transcript {
    out: String,
}

impl Transcript {
    fn new() -> Self {
        Transcript { out: String::new() }
    }

    fn note(&mut self, line: impl AsRef<str>) {
        self.out.push_str(line.as_ref());
        self.out.push('\n');
    }

    fn report(&mut self, report: &ShardedRecoveryReport) {
        self.note(format!("report {report:?}"));
    }

    /// Counters, the digest of shards `0..open_shards`, and the disk.
    fn state(
        &mut self,
        label: &str,
        dir: &Path,
        store: &ShardedStore,
        open_shards: u32,
        reg: &obs::Registry,
    ) {
        self.note(format!("-- {label}"));
        for (name, value) in reg.snapshot().counters {
            let pinned = name.starts_with("cfstore.shard.") || name.starts_with("cfstore.reshard.");
            if pinned && !name.ends_with("flush.background") {
                self.note(format!("{name} = {value}"));
            }
        }
        let topo = store.topology();
        self.note(format!(
            "topology {}x{} overrides {:?}",
            topo.shards, topo.replication, topo.overrides
        ));
        for g in 0..open_shards {
            let (rows, digest) = shard_digest(store, g);
            self.note(format!("shard {g}: {rows} rows {digest:#018x}"));
        }
        let (merged, metrics) = store.scan(TABLE, &Scan::all()).expect("scan");
        self.note(format!(
            "scan: {} rows, {} scanned",
            merged.len(),
            metrics.rows_scanned
        ));
        self.note(format!("disk {:#018x}", disk_digest(dir)));
    }

    fn check(self, name: &str, want: &str) {
        if self.out.trim() != want.trim() {
            eprintln!("==== {name}: actual transcript ====\n{}", self.out);
            panic!("{name}: shard-layer transcript diverged from its golden literal");
        }
    }
}

/// Flip one byte in the middle of `shard`'s largest flushed segment — a
/// block body, which the lazy reopen does not read.
fn corrupt_largest_segment(dir: &Path, shard: u32) -> PathBuf {
    let victim = std::fs::read_dir(dir.join(format!("shard-{shard:03}")))
        .expect("read shard dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .max_by_key(|e| (e.metadata().map(|m| m.len()).unwrap_or(0), e.file_name()))
        .expect("shard has a segment")
        .path();
    let mut bytes = std::fs::read(&victim).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&victim, &bytes).expect("write corrupt segment");
    victim
}

const LOSS_REBUILD: &str = r#"
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 3, segment_rows: 13, segment_blocks: 3, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 12, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 5, segment_rows: 25, segment_blocks: 5, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [1], aborted_batches: 0, healed_rows: 11, reshard_in_flight: None }
-- rebuilt
cfstore.shard.1.heal.rebuilds = 1
cfstore.shard.1.heal.rows = 11
cfstore.shard.heal.rebuilds = 1
cfstore.shard.heal.rows = 11
topology 3x2 overrides {}
shard 0: 13 rows 0x712a1312b5ec29c1
shard 1: 11 rows 0xc6ed81c30b9723d9
shard 2: 12 rows 0x216bca579ad017fd
scan: 18 rows, 36 scanned
disk 0x1aaebcd79c31834b
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 3, segment_rows: 13, segment_blocks: 3, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 1, segment_rows: 11, segment_blocks: 1, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 12, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 6, segment_rows: 36, segment_blocks: 6, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: None }
-- reopened
topology 3x2 overrides {}
shard 0: 13 rows 0x712a1312b5ec29c1
shard 1: 11 rows 0xc6ed81c30b9723d9
shard 2: 12 rows 0x216bca579ad017fd
scan: 18 rows, 36 scanned
disk 0x1aaebcd79c31834b
"#;

#[test]
fn whole_shard_loss_rebuild_is_pinned() {
    let dir = tmp_dir("loss");
    let store = seeded(&dir, 3, 2, 1001, 80);
    store.flush().expect("flush");
    drop(store);
    std::fs::remove_dir_all(dir.join("shard-001")).expect("lose shard 1");

    let mut t = Transcript::new();
    let reg = obs::Registry::new();
    let (store, report) = open(&dir, opts(3, 2), &reg);
    assert_eq!(report.lost_shards, vec![1]);
    t.report(&report);
    t.state("rebuilt", &dir, &store, 3, &reg);
    drop(store);
    // The rebuild is durable: the next reopen finds nothing to do.
    let reg = obs::Registry::new();
    let (store, report) = open(&dir, opts(3, 2), &reg);
    t.report(&report);
    t.state("reopened", &dir, &store, 3, &reg);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    t.check("LOSS_REBUILD", LOSS_REBUILD);
}

/// A store whose shard 0 holds one flushed segment with a rotten block,
/// reopened lazily (the reopen must not notice).
fn with_corrupt_block(tag: &str, t: &mut Transcript) -> (PathBuf, ShardedStore, obs::Registry) {
    let dir = tmp_dir(tag);
    let store = seeded(&dir, 3, 2, 77, 80);
    store.flush().expect("flush");
    drop(store);
    let victim = corrupt_largest_segment(&dir, 0);
    t.note(format!(
        "corrupted {}",
        victim.file_name().unwrap().to_string_lossy()
    ));
    let reg = obs::Registry::new();
    let (store, report) = open(&dir, opts(3, 2), &reg);
    assert!(report.lost_shards.is_empty(), "one bad block is not a loss");
    t.report(&report);
    (dir, store, reg)
}

fn heal_count(reg: &obs::Registry, what: &str) -> u64 {
    reg.snapshot()
        .counters
        .get(&format!("cfstore.shard.0.heal.{what}"))
        .copied()
        .unwrap_or(0)
}

const HEAL_GET: &str = r#"
corrupted seg-000008-r000002.seg
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 2, segment_rows: 10, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 12, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 10, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 6, segment_rows: 32, segment_blocks: 6, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: None }
get 0: Some(2) heal.reads=0
get 1: None heal.reads=0
get 2: Some(2) heal.reads=0
get 3: Some(1) heal.reads=0
get 4: Some(2) heal.reads=0
get 5: None heal.reads=0
get 6: Some(1) heal.reads=0
get 7: Some(2) heal.reads=0
get 8: Some(2) heal.reads=0
get 9: None heal.reads=0
get 10: None heal.reads=0
get 11: Some(2) heal.reads=0
get 12: Some(1) heal.reads=0
get 13: None heal.reads=0
get 14: Some(3) heal.reads=0
get 15: Some(3) heal.reads=1
get 16: Some(3) heal.reads=1
get 17: Some(2) heal.reads=1
get 18: None heal.reads=1
get 19: None heal.reads=1
get 20: None heal.reads=1
get 21: Some(3) heal.reads=1
get 22: Some(2) heal.reads=1
get 23: Some(3) heal.reads=1
-- healed by get
cfstore.shard.0.heal.reads = 1
cfstore.shard.0.heal.repairs = 1
cfstore.shard.0.heal.rows = 10
cfstore.shard.heal.reads = 1
cfstore.shard.heal.repairs = 1
cfstore.shard.heal.rows = 10
topology 3x2 overrides {}
shard 0: 10 rows 0x9c07000dc3d7ef4b
shard 1: 12 rows 0x902619cb08dd1e25
shard 2: 10 rows 0x8b00ed9e96f26a2b
scan: 16 rows, 32 scanned
disk 0x412361a6879b3fda
"#;

#[test]
fn corrupt_block_healed_through_get_is_pinned() {
    let mut t = Transcript::new();
    let (dir, store, reg) = with_corrupt_block("heal-get", &mut t);
    for key in 0..KEYS {
        let got = store.get(TABLE, &row_key(key)).expect("healed get");
        t.note(format!(
            "get {key}: {:?} heal.reads={}",
            got.map(|r| r.cell_count()),
            heal_count(&reg, "reads")
        ));
    }
    assert_eq!(heal_count(&reg, "repairs"), 1, "the gets healed shard 0");
    t.state("healed by get", &dir, &store, 3, &reg);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    t.check("HEAL_GET", HEAL_GET);
}

const HEAL_SCAN: &str = r#"
corrupted seg-000008-r000002.seg
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 2, segment_rows: 10, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 12, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 10, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 6, segment_rows: 32, segment_blocks: 6, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: None }
scan: 16 rows, ScanMetrics { regions_visited: 6, rows_scanned: 32, cells_scanned: 68, rows_returned: 32, bytes_returned: 544 }
-- healed by scan
cfstore.shard.0.heal.reads = 1
cfstore.shard.0.heal.repairs = 1
cfstore.shard.0.heal.rows = 10
cfstore.shard.heal.reads = 1
cfstore.shard.heal.repairs = 1
cfstore.shard.heal.rows = 10
topology 3x2 overrides {}
shard 0: 10 rows 0x9c07000dc3d7ef4b
shard 1: 12 rows 0x902619cb08dd1e25
shard 2: 10 rows 0x8b00ed9e96f26a2b
scan: 16 rows, 32 scanned
disk 0x412361a6879b3fda
"#;

#[test]
fn corrupt_block_healed_through_scan_is_pinned() {
    let mut t = Transcript::new();
    let (dir, store, reg) = with_corrupt_block("heal-scan", &mut t);
    let (rows, metrics) = store.scan(TABLE, &Scan::all()).expect("healed scan");
    t.note(format!("scan: {} rows, {metrics:?}", rows.len()));
    t.state("healed by scan", &dir, &store, 3, &reg);
    assert_eq!(heal_count(&reg, "repairs"), 1, "the scan healed shard 0");
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    t.check("HEAL_SCAN", HEAL_SCAN);
}

const HEAL_PUT: &str = r#"
corrupted seg-000008-r000002.seg
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 2, segment_rows: 10, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 12, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 10, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 6, segment_rows: 32, segment_blocks: 6, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: None }
put 0: heal.reads=0
put 1: heal.reads=0
put 2: heal.reads=0
put 3: heal.reads=0
put 4: heal.reads=0
put 5: heal.reads=0
put 6: heal.reads=0
put 7: heal.reads=0
put 8: heal.reads=0
put 9: heal.reads=0
put 10: heal.reads=1
put 11: heal.reads=1
put 12: heal.reads=1
put 13: heal.reads=1
put 14: heal.reads=1
put 15: heal.reads=1
put 16: heal.reads=1
put 17: heal.reads=1
put 18: heal.reads=1
put 19: heal.reads=1
put 20: heal.reads=1
put 21: heal.reads=1
put 22: heal.reads=1
put 23: heal.reads=1
-- healed by put
cfstore.shard.0.heal.reads = 1
cfstore.shard.0.heal.repairs = 1
cfstore.shard.0.heal.rows = 12
cfstore.shard.heal.reads = 1
cfstore.shard.heal.repairs = 1
cfstore.shard.heal.rows = 12
topology 3x2 overrides {}
shard 0: 16 rows 0xf92560d9c7a484e1
shard 1: 16 rows 0xb5c347a9c283f061
shard 2: 16 rows 0x0c2f66b65581cb8b
scan: 24 rows, 48 scanned
disk 0xe581391240565fe8
"#;

#[test]
fn corrupt_block_healed_through_put_is_pinned() {
    let mut t = Transcript::new();
    let (dir, store, reg) = with_corrupt_block("heal-put", &mut t);
    for key in 0..KEYS {
        store
            .put(
                TABLE,
                Put::new(row_key(key), FAMILY, "c9", key.to_be_bytes().to_vec()),
            )
            .expect("healed put");
        t.note(format!(
            "put {key}: heal.reads={}",
            heal_count(&reg, "reads")
        ));
    }
    assert_eq!(heal_count(&reg, "repairs"), 1, "the puts healed shard 0");
    t.state("healed by put", &dir, &store, 3, &reg);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    t.check("HEAL_PUT", HEAL_PUT);
}

/// One plan, twice: run clean to `Done`; then torn mid-copy by a
/// `crash_topology` budget that dies inside the second `Copied` append,
/// reopened, written to while the migration is parked, and resumed.
fn reshard_transcript(tag: &str, init: (u32, u32), plan: Topology) -> String {
    let mut t = Transcript::new();
    let after = plan.shards;
    let widest = init.0.max(after);

    let dir = tmp_dir(&format!("{tag}-clean"));
    drop(seeded(&dir, init.0, init.1, 42, 60));
    let reg = obs::Registry::new();
    let (store, report) = open(&dir, opts(init.0, init.1), &reg);
    t.report(&report);
    let status = store.begin_reshard(plan.clone()).expect("begin");
    t.note(format!("begin {status:?}"));
    let begin_len = std::fs::metadata(dir.join(TOPOLOGY_FILE))
        .expect("journal")
        .len();
    t.note(format!("journal after Begin: {begin_len} bytes"));
    loop {
        let status = store.reshard_step().expect("step");
        t.note(format!("step {status:?}"));
        if status.phase == ReshardPhase::Done {
            break;
        }
    }
    t.state("clean run done", &dir, &store, after, &reg);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let dir = tmp_dir(&format!("{tag}-torn"));
    drop(seeded(&dir, init.0, init.1, 42, 60));
    let reg = obs::Registry::new();
    let (store, _) = open(
        &dir,
        ShardOptions {
            // Begin fits, the first 21-byte `Copied` frame fits, the
            // second is torn halfway.
            crash_topology: Some(begin_len + 21 + 10),
            ..opts(init.0, init.1)
        },
        &reg,
    );
    store.begin_reshard(plan).expect("begin");
    let err = loop {
        match store.reshard_step() {
            Ok(status) => t.note(format!("step {status:?}")),
            Err(e) => break e,
        }
    };
    assert_eq!(err, StoreError::Crashed, "the journal budget must fire");
    t.state("torn mid-copy", &dir, &store, widest, &reg);
    drop(store);

    let reg = obs::Registry::new();
    let (store, report) = open(&dir, opts(init.0, init.1), &reg);
    assert!(report.reshard_in_flight.is_some(), "migration is resumable");
    t.report(&report);
    // Dual-applied while parked: targets already copied stay current.
    for op in &workload(4242, 12) {
        apply(&store, op).expect("parked op");
    }
    t.state("parked, written to", &dir, &store, widest, &reg);
    let status = store.resume_reshard().expect("resume").expect("in flight");
    t.note(format!("resumed {status:?}"));
    t.state("resumed to done", &dir, &store, after, &reg);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    t.out
}

fn check_reshard(name: &str, init: (u32, u32), plan: Topology, want: &str) {
    let t = Transcript {
        out: reshard_transcript(name, init, plan),
    };
    t.check(name, want);
}

const GROW_3_TO_5: &str = r#"
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 2, segment_rows: 13, segment_blocks: 2, segment_blocks_read: 2, frames_replayed: 4, records_replayed: 8, frames_skipped: 0, wal_bytes_valid: 365, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 12, segment_blocks: 2, segment_blocks_read: 2, frames_replayed: 4, records_replayed: 8, frames_skipped: 0, wal_bytes_valid: 396, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 11, segment_blocks: 2, segment_blocks_read: 1, frames_replayed: 2, records_replayed: 4, frames_skipped: 0, wal_bytes_valid: 167, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 6, segment_rows: 36, segment_blocks: 6, segment_blocks_read: 5, frames_replayed: 10, records_replayed: 20, frames_skipped: 0, wal_bytes_valid: 928, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: None }
begin ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 0, rows_copied: 0 }
journal after Begin: 45 bytes
step ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 1, rows_copied: 4 }
step ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 2, rows_copied: 12 }
step ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 3, rows_copied: 22 }
step ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 4, rows_copied: 30 }
step ReshardStatus { epoch: 1, phase: Verify, units_total: 5, units_copied: 5, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Cutover, units_total: 5, units_copied: 5, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 5, units_copied: 5, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 5, units_copied: 5, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 5, units_copied: 5, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Done, units_total: 5, units_copied: 5, rows_copied: 34 }
-- clean run done
cfstore.reshard.begins = 1
cfstore.reshard.completions = 1
cfstore.reshard.cutovers = 1
cfstore.reshard.rows_copied = 34
cfstore.reshard.units_copied = 5
cfstore.reshard.verifies = 1
topology 5x2 overrides {}
shard 0: 4 rows 0x82d90b2dd0dd24c8
shard 1: 8 rows 0x346c3c77faa1367e
shard 2: 10 rows 0x9144eec78d413705
shard 3: 8 rows 0x6c14ce8648d533c6
shard 4: 4 rows 0x6aea69f133fbaaf4
scan: 17 rows, 34 scanned
disk 0x676facf057835dd8
step ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 1, rows_copied: 4 }
-- torn mid-copy
cfstore.reshard.begins = 1
cfstore.reshard.rows_copied = 4
cfstore.reshard.units_copied = 1
topology 3x2 overrides {}
shard 0: 13 rows 0x858a0b88044f5c74
shard 1: 15 rows 0xd9284c224e9cf0da
shard 2: 10 rows 0xff15986678de6121
shard 3: 0 rows 0xcbf29ce484222325
shard 4: 0 rows 0xcbf29ce484222325
scan: 17 rows, 38 scanned
disk 0x2860bffa0c0cc5f1
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 2, segment_rows: 13, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 15, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 10, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 1, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 1, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 8, segment_rows: 38, segment_blocks: 6, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: Some(1) }
-- parked, written to
cfstore.reshard.resumes = 1
topology 3x2 overrides {}
shard 0: 14 rows 0x200066b8ecf14e61
shard 1: 17 rows 0xa32c2393ed57e1ea
shard 2: 12 rows 0xbabdd8a0e090b11b
shard 3: 1 rows 0x37bb0b62c13fb264
shard 4: 2 rows 0xc6fe206c433c70e0
scan: 19 rows, 43 scanned
disk 0x439004db7cffaa5a
resumed ReshardStatus { epoch: 1, phase: Done, units_total: 5, units_copied: 5, rows_copied: 33 }
-- resumed to done
cfstore.reshard.completions = 1
cfstore.reshard.cutovers = 1
cfstore.reshard.resumes = 1
cfstore.reshard.rows_copied = 33
cfstore.reshard.units_copied = 4
cfstore.reshard.verifies = 1
topology 5x2 overrides {}
shard 0: 5 rows 0x60bfd92a5dbdf49c
shard 1: 9 rows 0xc0ef6a16c7c13a5f
shard 2: 11 rows 0xfc3c43ebe0987f3e
shard 3: 8 rows 0x213d90f3f7517341
shard 4: 5 rows 0xea4218646f5e3c23
scan: 19 rows, 38 scanned
disk 0xbe53bf42783de023
"#;
const SHRINK_5_TO_2: &str = r#"
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 1, segment_rows: 4, segment_blocks: 1, segment_blocks_read: 1, frames_replayed: 2, records_replayed: 4, frames_skipped: 0, wal_bytes_valid: 198, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 9, segment_blocks: 2, segment_blocks_read: 1, frames_replayed: 3, records_replayed: 6, frames_skipped: 0, wal_bytes_valid: 266, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 11, segment_blocks: 2, segment_blocks_read: 2, frames_replayed: 3, records_replayed: 6, frames_skipped: 0, wal_bytes_valid: 266, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 1, segment_rows: 8, segment_blocks: 1, segment_blocks_read: 1, frames_replayed: 1, records_replayed: 2, frames_skipped: 0, wal_bytes_valid: 99, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 1, segment_rows: 4, segment_blocks: 1, segment_blocks_read: 1, frames_replayed: 1, records_replayed: 2, frames_skipped: 0, wal_bytes_valid: 99, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 7, segment_rows: 36, segment_blocks: 7, segment_blocks_read: 6, frames_replayed: 10, records_replayed: 20, frames_skipped: 0, wal_bytes_valid: 928, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: None }
begin ReshardStatus { epoch: 1, phase: Copy, units_total: 2, units_copied: 0, rows_copied: 0 }
journal after Begin: 45 bytes
step ReshardStatus { epoch: 1, phase: Copy, units_total: 2, units_copied: 1, rows_copied: 17 }
step ReshardStatus { epoch: 1, phase: Verify, units_total: 2, units_copied: 2, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Cutover, units_total: 2, units_copied: 2, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 2, units_copied: 2, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 2, units_copied: 2, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 2, units_copied: 2, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Done, units_total: 2, units_copied: 2, rows_copied: 34 }
-- clean run done
cfstore.reshard.begins = 1
cfstore.reshard.completions = 1
cfstore.reshard.cutovers = 1
cfstore.reshard.rows_copied = 34
cfstore.reshard.units_copied = 2
cfstore.reshard.verifies = 1
topology 2x2 overrides {}
shard 0: 17 rows 0xfc0822a539386913
shard 1: 17 rows 0xfc0822a539386913
scan: 17 rows, 34 scanned
disk 0x2487555d7a2dfef0
step ReshardStatus { epoch: 1, phase: Copy, units_total: 2, units_copied: 1, rows_copied: 17 }
-- torn mid-copy
cfstore.reshard.begins = 1
cfstore.reshard.rows_copied = 17
cfstore.reshard.units_copied = 1
topology 5x2 overrides {}
shard 0: 17 rows 0xfc0822a539386913
shard 1: 17 rows 0xfc0822a539386913
shard 2: 10 rows 0x9144eec78d413705
shard 3: 8 rows 0x6c14ce8648d533c6
shard 4: 4 rows 0x6aea69f133fbaaf4
scan: 17 rows, 56 scanned
disk 0x3334a6e4a357137f
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 1, segment_rows: 17, segment_blocks: 1, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 17, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 11, segment_blocks: 2, segment_blocks_read: 2, frames_replayed: 3, records_replayed: 6, frames_skipped: 0, wal_bytes_valid: 266, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 1, segment_rows: 8, segment_blocks: 1, segment_blocks_read: 1, frames_replayed: 1, records_replayed: 2, frames_skipped: 0, wal_bytes_valid: 99, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 1, segment_rows: 4, segment_blocks: 1, segment_blocks_read: 1, frames_replayed: 1, records_replayed: 2, frames_skipped: 0, wal_bytes_valid: 99, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 7, segment_rows: 57, segment_blocks: 7, segment_blocks_read: 4, frames_replayed: 5, records_replayed: 10, frames_skipped: 0, wal_bytes_valid: 464, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: Some(1) }
-- parked, written to
cfstore.reshard.resumes = 1
topology 5x2 overrides {}
shard 0: 19 rows 0x251760d43803ead1
shard 1: 19 rows 0x251760d43803ead1
shard 2: 11 rows 0xfc3c43ebe0987f3e
shard 3: 8 rows 0x213d90f3f7517341
shard 4: 5 rows 0xea4218646f5e3c23
scan: 19 rows, 62 scanned
disk 0x9efb4b93c51e63cf
resumed ReshardStatus { epoch: 1, phase: Done, units_total: 2, units_copied: 2, rows_copied: 19 }
-- resumed to done
cfstore.reshard.completions = 1
cfstore.reshard.cutovers = 1
cfstore.reshard.resumes = 1
cfstore.reshard.rows_copied = 19
cfstore.reshard.units_copied = 1
cfstore.reshard.verifies = 1
topology 2x2 overrides {}
shard 0: 19 rows 0x251760d43803ead1
shard 1: 19 rows 0x251760d43803ead1
scan: 19 rows, 38 scanned
disk 0x65add9ec62c6518c
"#;
const REPLICATION_2_TO_3: &str = r#"
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 2, segment_rows: 13, segment_blocks: 2, segment_blocks_read: 2, frames_replayed: 4, records_replayed: 8, frames_skipped: 0, wal_bytes_valid: 365, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 12, segment_blocks: 2, segment_blocks_read: 2, frames_replayed: 4, records_replayed: 8, frames_skipped: 0, wal_bytes_valid: 396, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 11, segment_blocks: 2, segment_blocks_read: 1, frames_replayed: 2, records_replayed: 4, frames_skipped: 0, wal_bytes_valid: 167, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 6, segment_rows: 36, segment_blocks: 6, segment_blocks_read: 5, frames_replayed: 10, records_replayed: 20, frames_skipped: 0, wal_bytes_valid: 928, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: None }
begin ReshardStatus { epoch: 1, phase: Copy, units_total: 3, units_copied: 0, rows_copied: 0 }
journal after Begin: 45 bytes
step ReshardStatus { epoch: 1, phase: Copy, units_total: 3, units_copied: 1, rows_copied: 17 }
step ReshardStatus { epoch: 1, phase: Copy, units_total: 3, units_copied: 2, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Verify, units_total: 3, units_copied: 3, rows_copied: 51 }
step ReshardStatus { epoch: 1, phase: Cutover, units_total: 3, units_copied: 3, rows_copied: 51 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 3, units_copied: 3, rows_copied: 51 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 3, units_copied: 3, rows_copied: 51 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 3, units_copied: 3, rows_copied: 51 }
step ReshardStatus { epoch: 1, phase: Done, units_total: 3, units_copied: 3, rows_copied: 51 }
-- clean run done
cfstore.reshard.begins = 1
cfstore.reshard.completions = 1
cfstore.reshard.cutovers = 1
cfstore.reshard.rows_copied = 51
cfstore.reshard.units_copied = 3
cfstore.reshard.verifies = 1
topology 3x3 overrides {}
shard 0: 17 rows 0xfc0822a539386913
shard 1: 17 rows 0xfc0822a539386913
shard 2: 17 rows 0xfc0822a539386913
scan: 17 rows, 51 scanned
disk 0x785656bc8f647d9c
step ReshardStatus { epoch: 1, phase: Copy, units_total: 3, units_copied: 1, rows_copied: 17 }
-- torn mid-copy
cfstore.reshard.begins = 1
cfstore.reshard.rows_copied = 17
cfstore.reshard.units_copied = 1
topology 3x2 overrides {}
shard 0: 17 rows 0xfc0822a539386913
shard 1: 17 rows 0xfc0822a539386913
shard 2: 10 rows 0xff15986678de6121
scan: 17 rows, 44 scanned
disk 0x8c159a80ca2b0bfe
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 2, segment_rows: 17, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 17, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 10, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 6, segment_rows: 44, segment_blocks: 6, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: Some(1) }
-- parked, written to
cfstore.reshard.resumes = 1
topology 3x2 overrides {}
shard 0: 19 rows 0x251760d43803ead1
shard 1: 19 rows 0x251760d43803ead1
shard 2: 12 rows 0xbabdd8a0e090b11b
scan: 19 rows, 50 scanned
disk 0xf591ee6e66702b72
resumed ReshardStatus { epoch: 1, phase: Done, units_total: 3, units_copied: 3, rows_copied: 38 }
-- resumed to done
cfstore.reshard.completions = 1
cfstore.reshard.cutovers = 1
cfstore.reshard.resumes = 1
cfstore.reshard.rows_copied = 38
cfstore.reshard.units_copied = 2
cfstore.reshard.verifies = 1
topology 3x3 overrides {}
shard 0: 19 rows 0x251760d43803ead1
shard 1: 19 rows 0x251760d43803ead1
shard 2: 19 rows 0x251760d43803ead1
scan: 19 rows, 57 scanned
disk 0x45cadc2433ff0dd9
"#;
const OVERRIDE_SLOT_0: &str = r#"
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 2, segment_rows: 13, segment_blocks: 2, segment_blocks_read: 2, frames_replayed: 4, records_replayed: 8, frames_skipped: 0, wal_bytes_valid: 365, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 12, segment_blocks: 2, segment_blocks_read: 2, frames_replayed: 4, records_replayed: 8, frames_skipped: 0, wal_bytes_valid: 396, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 11, segment_blocks: 2, segment_blocks_read: 1, frames_replayed: 2, records_replayed: 4, frames_skipped: 0, wal_bytes_valid: 167, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 6, segment_rows: 36, segment_blocks: 6, segment_blocks_read: 5, frames_replayed: 10, records_replayed: 20, frames_skipped: 0, wal_bytes_valid: 928, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: None }
begin ReshardStatus { epoch: 1, phase: Copy, units_total: 3, units_copied: 0, rows_copied: 0 }
journal after Begin: 61 bytes
step ReshardStatus { epoch: 1, phase: Copy, units_total: 3, units_copied: 1, rows_copied: 12 }
step ReshardStatus { epoch: 1, phase: Copy, units_total: 3, units_copied: 2, rows_copied: 17 }
step ReshardStatus { epoch: 1, phase: Verify, units_total: 3, units_copied: 3, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Cutover, units_total: 3, units_copied: 3, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 3, units_copied: 3, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 3, units_copied: 3, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Gc, units_total: 3, units_copied: 3, rows_copied: 34 }
step ReshardStatus { epoch: 1, phase: Done, units_total: 3, units_copied: 3, rows_copied: 34 }
-- clean run done
cfstore.reshard.begins = 1
cfstore.reshard.completions = 1
cfstore.reshard.cutovers = 1
cfstore.reshard.rows_copied = 34
cfstore.reshard.units_copied = 3
cfstore.reshard.verifies = 1
topology 3x2 overrides {0: [2, 0]}
shard 0: 12 rows 0x2061c6101c4b3ea4
shard 1: 5 rows 0x866671661491054a
shard 2: 17 rows 0xfc0822a539386913
scan: 17 rows, 34 scanned
disk 0x003f38f5180e2b1c
step ReshardStatus { epoch: 1, phase: Copy, units_total: 3, units_copied: 1, rows_copied: 12 }
-- torn mid-copy
cfstore.reshard.begins = 1
cfstore.reshard.rows_copied = 12
cfstore.reshard.units_copied = 1
topology 3x2 overrides {}
shard 0: 12 rows 0x2061c6101c4b3ea4
shard 1: 12 rows 0x08988eea87181b56
shard 2: 10 rows 0xff15986678de6121
scan: 17 rows, 34 scanned
disk 0x2f578034c7a78bc1
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 2, segment_rows: 12, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 12, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 10, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 6, segment_rows: 34, segment_blocks: 6, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: Some(1) }
-- parked, written to
cfstore.reshard.resumes = 1
topology 3x2 overrides {}
shard 0: 13 rows 0x1441b9f2d78fc1df
shard 1: 13 rows 0xdeb5eb2ec7287667
shard 2: 12 rows 0xbabdd8a0e090b11b
scan: 19 rows, 38 scanned
disk 0xfdc0e86f49970827
resumed ReshardStatus { epoch: 1, phase: Done, units_total: 3, units_copied: 3, rows_copied: 25 }
-- resumed to done
cfstore.reshard.completions = 1
cfstore.reshard.cutovers = 1
cfstore.reshard.resumes = 1
cfstore.reshard.rows_copied = 25
cfstore.reshard.units_copied = 2
cfstore.reshard.verifies = 1
topology 3x2 overrides {0: [2, 0]}
shard 0: 13 rows 0x1441b9f2d78fc1df
shard 1: 6 rows 0xe3b9ce7a53c0eff3
shard 2: 19 rows 0x251760d43803ead1
scan: 19 rows, 38 scanned
disk 0x493d88c43e0a5e47
"#;

#[test]
fn grow_3_to_5_is_pinned() {
    check_reshard("GROW_3_TO_5", (3, 2), Topology::uniform(5, 2), GROW_3_TO_5);
}

#[test]
fn shrink_5_to_2_is_pinned() {
    check_reshard(
        "SHRINK_5_TO_2",
        (5, 2),
        Topology::uniform(2, 2),
        SHRINK_5_TO_2,
    );
}

#[test]
fn replication_2_to_3_is_pinned() {
    check_reshard(
        "REPLICATION_2_TO_3",
        (3, 2),
        Topology::uniform(3, 3),
        REPLICATION_2_TO_3,
    );
}

#[test]
fn override_plan_is_pinned() {
    check_reshard(
        "OVERRIDE_SLOT_0",
        (3, 2),
        Topology::uniform(3, 2).with_override(0, vec![2, 0]),
        OVERRIDE_SLOT_0,
    );
}

const HEAL_THEN_ABORT: &str = r#"
step ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 1, rows_copied: 6 }
step ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 2, rows_copied: 15 }
get job-000002: Some(2)
-- healed pre-cutover
cfstore.reshard.begins = 1
cfstore.reshard.rows_copied = 15
cfstore.reshard.units_copied = 2
cfstore.shard.1.heal.reads = 1
cfstore.shard.1.heal.repairs = 1
cfstore.shard.1.heal.rows = 17
cfstore.shard.heal.reads = 1
cfstore.shard.heal.repairs = 1
cfstore.shard.heal.rows = 17
topology 3x2 overrides {}
shard 0: 16 rows 0xcec34a05580b509d
shard 1: 17 rows 0x4b0310e1fe4bf073
shard 2: 15 rows 0x77ddb41ace6388d2
shard 3: 1 rows 0xbd83833562978e17
shard 4: 1 rows 0x0a99c359e4a982c5
scan: 21 rows, 48 scanned
disk 0xf05fa5665d72389f
-- aborted
cfstore.reshard.aborts = 1
cfstore.reshard.begins = 1
cfstore.reshard.rows_copied = 15
cfstore.reshard.units_copied = 2
cfstore.shard.1.heal.reads = 1
cfstore.shard.1.heal.repairs = 1
cfstore.shard.1.heal.rows = 17
cfstore.shard.heal.reads = 1
cfstore.shard.heal.repairs = 1
cfstore.shard.heal.rows = 17
topology 3x2 overrides {}
shard 0: 14 rows 0x892ffd6826435c39
shard 1: 15 rows 0x626b8bda4efc12e8
shard 2: 13 rows 0xa16c7f7a81adb006
scan: 21 rows, 42 scanned
disk 0xd076f01026de011b
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 3, segment_rows: 14, segment_blocks: 3, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 3, segment_rows: 15, segment_blocks: 3, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 2, segment_rows: 13, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 8, segment_rows: 42, segment_blocks: 8, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [], aborted_batches: 0, healed_rows: 0, reshard_in_flight: None }
-- reopened
topology 3x2 overrides {}
shard 0: 14 rows 0x892ffd6826435c39
shard 1: 15 rows 0x626b8bda4efc12e8
shard 2: 13 rows 0xa16c7f7a81adb006
scan: 21 rows, 42 scanned
disk 0xd076f01026de011b
"#;

/// Pre-cutover, a healed shard must get back the rows it owns under the
/// *target* topology too; then `abort_reshard` prunes every shard back
/// to the old world.
#[test]
fn heal_mid_migration_then_abort_is_pinned() {
    let mut t = Transcript::new();
    let dir = tmp_dir("abort");
    drop(seeded(&dir, 3, 2, 7, 60));
    let reg = obs::Registry::new();
    let (store, _) = open(&dir, opts(3, 2), &reg);
    store.begin_reshard(Topology::uniform(5, 2)).expect("begin");
    for _ in 0..2 {
        let status = store.reshard_step().expect("copy step");
        t.note(format!("step {status:?}"));
    }
    for op in &workload(77, 10) {
        apply(&store, op).expect("dual-applied op");
    }
    let (rows, _) = store.scan(TABLE, &Scan::all()).expect("scan");
    let victim = rows.first().expect("a row survives the workload");
    let column = victim.families[FAMILY].keys().next().expect("a cell");
    assert!(store
        .corrupt_cell(TABLE, &victim.row, FAMILY, column)
        .expect("corrupt"));
    let got = store.get(TABLE, &victim.row).expect("healed get");
    t.note(format!(
        "get {}: {:?}",
        String::from_utf8_lossy(&victim.row),
        got.map(|r| r.cell_count())
    ));
    t.state("healed pre-cutover", &dir, &store, 5, &reg);
    store.abort_reshard().expect("abort");
    t.state("aborted", &dir, &store, 3, &reg);
    drop(store);
    let reg = obs::Registry::new();
    let (store, report) = open(&dir, opts(3, 2), &reg);
    t.report(&report);
    t.state("reopened", &dir, &store, 3, &reg);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    t.check("HEAL_THEN_ABORT", HEAL_THEN_ABORT);
}

const LOSS_MID_MIGRATION: &str = r#"
step ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 1, rows_copied: 7 }
step ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 2, rows_copied: 15 }
step ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 3, rows_copied: 25 }
report ShardedRecoveryReport { shards: [RecoveryReport { segments_loaded: 2, segment_rows: 15, segment_blocks: 2, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 3, segment_rows: 18, segment_blocks: 3, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 1, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, RecoveryReport { segments_loaded: 1, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }], total: RecoveryReport { segments_loaded: 7, segment_rows: 33, segment_blocks: 5, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }, lost_shards: [1], aborted_batches: 0, healed_rows: 14, reshard_in_flight: Some(1) }
status Some(ReshardStatus { epoch: 1, phase: Copy, units_total: 5, units_copied: 2, rows_copied: 0 })
-- rebuilt mid-migration
cfstore.reshard.resumes = 1
cfstore.shard.1.heal.rebuilds = 1
cfstore.shard.1.heal.rows = 14
cfstore.shard.heal.rebuilds = 1
cfstore.shard.heal.rows = 14
topology 3x2 overrides {}
shard 0: 15 rows 0xdf7129d176d944de
shard 1: 14 rows 0xd413d4824914f16c
shard 2: 18 rows 0x5222c29643909fd6
shard 3: 0 rows 0xcbf29ce484222325
shard 4: 0 rows 0xcbf29ce484222325
scan: 20 rows, 47 scanned
disk 0x1dda78efa11a68f4
resumed ReshardStatus { epoch: 1, phase: Done, units_total: 5, units_copied: 5, rows_copied: 23 }
-- resumed to done
cfstore.reshard.completions = 1
cfstore.reshard.cutovers = 1
cfstore.reshard.resumes = 1
cfstore.reshard.rows_copied = 23
cfstore.reshard.units_copied = 3
cfstore.reshard.verifies = 1
cfstore.shard.1.heal.rebuilds = 1
cfstore.shard.1.heal.rows = 14
cfstore.shard.heal.rebuilds = 1
cfstore.shard.heal.rows = 14
topology 5x2 overrides {}
shard 0: 7 rows 0x8bf4b67c5c3b4aa5
shard 1: 8 rows 0x5b20646836b59c0b
shard 2: 10 rows 0xaefb058de410c068
shard 3: 8 rows 0x7a98b3f8da1accbb
shard 4: 7 rows 0xd660f1f0968c0336
scan: 20 rows, 40 scanned
disk 0xbdfacce4a1f5c795
"#;

/// Losing a shard whose unit was already journaled `Copied`: the reopen
/// rebuilds its active-epoch rows, journals `Invalidated`, and the
/// resume copies the unit again.
#[test]
fn lost_copied_unit_mid_migration_is_pinned() {
    let mut t = Transcript::new();
    let dir = tmp_dir("loss-mid");
    drop(seeded(&dir, 3, 2, 9, 60));
    {
        let (store, _) = open(&dir, opts(3, 2), &obs::Registry::disabled());
        store.begin_reshard(Topology::uniform(5, 2)).expect("begin");
        for _ in 0..3 {
            let status = store.reshard_step().expect("copy step");
            t.note(format!("step {status:?}"));
        }
        store.flush().expect("flush");
    }
    std::fs::remove_dir_all(dir.join("shard-001")).expect("lose copied unit 1");
    let reg = obs::Registry::new();
    let (store, report) = open(&dir, opts(3, 2), &reg);
    assert_eq!(report.lost_shards, vec![1]);
    t.report(&report);
    t.note(format!("status {:?}", store.reshard_status()));
    t.state("rebuilt mid-migration", &dir, &store, 5, &reg);
    let status = store.resume_reshard().expect("resume").expect("in flight");
    t.note(format!("resumed {status:?}"));
    t.state("resumed to done", &dir, &store, 5, &reg);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    t.check("LOSS_MID_MIGRATION", LOSS_MID_MIGRATION);
}
