//! Golden single-store recovery transcripts (DESIGN.md §24).
//!
//! `property_recovery.rs` holds a reopened `MiniStore` to invariants:
//! no acked write lost, no torn write surfacing, scans equal to a
//! never-crashed oracle, every WAL byte accounted for. This suite pins
//! the same path *by value*. One scripted history runs in sessions:
//!
//! * **A** (inert, never flushed): two tables with split thresholds of 4
//!   and 3, single puts and multi-row batches that split regions as a
//!   matter of routine, one cell overwritten past `MAX_VERSIONS`, a
//!   delete;
//! * **the hand-written frame**: `WalWriter::append_at` straight onto the
//!   store's log, at an LSN far ahead of it — puts whose timestamps are
//!   out of order among themselves and against what the cells hold, one
//!   far in the future, and a delete;
//! * **B** (the session a case's `CrashSpec` kills): reopen over all of
//!   that, more puts, deletes and batches, a mid-history flush, then
//!   writes that promote nothing live but everything on the next reopen;
//! * **C** (inert, only when B survived): more puts, a delete and an
//!   overwrite, every one acknowledged and so every one in the log.
//!
//! Each case then reopens the directory and records the
//! `RecoveryReport` (`Debug`, every field) of every reopen along the
//! way, `meta_entries()`, a digest of both tables' scans, the store's
//! `cfstore.*` counters and events over a post-reopen `flush()`, the
//! files that flush left (a reused segment keeps its old generation in
//! its name) and a digest of every byte under the directory — segments
//! carry every retained version, region id and range; MANIFEST carries
//! `clock`, `next_region_id`, `flushed_lsn` and `generation` — and what
//! one more reopen reports.
//!
//! The cases: no crash; B killed at sampled `after_wal_bytes`; at
//! `during_split`; at `during_flush_segment`.
//!
//! A diff in these literals means a replayed record landed differently
//! from the live write that logged it, a region came back with a
//! different dirty bit or segment, or recovery counted differently. They
//! are never regenerated for a refactor.

use std::path::{Path, PathBuf};

use bytes::Bytes;
use cfstore::wal::{WalRecord, WalWriter, WAL_FILE};
use cfstore::{CrashSpec, MiniStore, Put, RecoveryReport, Scan, StoreError, StoreOptions};
use pstorm_tests::{disk_digest, fnv, FNV_BASIS};

const PROFILES: &str = "profiles";
const AUX: &str = "aux";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pstorm-golden-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job(i: u64) -> String {
    format!("job-{i:02}")
}

fn profile_put(i: u64, col: u64, val: u64) -> Put {
    Put::new(job(i), "d", format!("c{col}"), val.to_be_bytes().to_vec())
}

/// One multi-row, two-family batch into `aux`.
fn aux_batch(round: u64, rows: std::ops::Range<u64>) -> Vec<Put> {
    rows.flat_map(|r| {
        let row = format!("x{r:02}");
        [
            Put::new(row.clone(), "a", "k", format!("a{round}-{r}")),
            Put::new(row, "b", format!("k{}", r % 2), format!("b{round}-{r}")),
        ]
    })
    .collect()
}

type Step = Box<dyn Fn(&MiniStore) -> Result<(), StoreError>>;

fn put(table: &'static str, p: Put) -> Step {
    Box::new(move |s| s.put(table, p.clone()))
}

fn batch(table: &'static str, puts: Vec<Put>) -> Step {
    Box::new(move |s| s.put_batch(table, puts.clone()))
}

fn delete(table: &'static str, row: String) -> Step {
    Box::new(move |s| s.delete_row(table, row.as_bytes()).map(|_| ()))
}

fn session_a() -> Vec<Step> {
    let mut steps: Vec<Step> = vec![
        Box::new(|s| s.create_table_with_threshold(PROFILES, &["d"], 4)),
        Box::new(|s| s.create_table_with_threshold(AUX, &["a", "b"], 3)),
    ];
    for i in 0..14 {
        steps.push(put(PROFILES, profile_put((i * 5) % 14, i % 3, 100 + i)));
    }
    steps.push(batch(AUX, aux_batch(0, 0..6)));
    for v in 0..5 {
        steps.push(put(PROFILES, profile_put(3, 0, 200 + v)));
    }
    steps.push(delete(PROFILES, job(5)));
    steps
}

/// Timestamps out of order inside the frame and against the store's
/// clock (≈ 40 by now): one in the future, one older than anything the
/// cell holds, two that land between held versions.
fn hand_frame() -> Vec<WalRecord> {
    let cell = |table: &str, row: &str, family: &str, ts: u64| WalRecord::Put {
        table: table.to_string(),
        put: Put::new(
            row.to_string(),
            family.to_string(),
            "c0",
            format!("hand@{ts}"),
        ),
        timestamp: ts,
    };
    vec![
        cell(PROFILES, "job-03", "d", 1000),
        cell(PROFILES, "job-03", "d", 2),
        cell(PROFILES, "job-03", "d", 34),
        cell(PROFILES, "job-00", "d", 7),
        cell(PROFILES, "job-00", "d", 5),
        cell(PROFILES, "job-99", "d", 30),
        cell(PROFILES, "job-99", "d", 999),
        cell(AUX, "x02", "a", 12),
        WalRecord::DeleteRow {
            table: AUX.to_string(),
            row: Bytes::from_static(b"x04"),
        },
    ]
}

const HAND_LSN: u64 = 5000;

fn session_b() -> Vec<Step> {
    let mut steps: Vec<Step> = Vec::new();
    for i in 14..26 {
        steps.push(put(PROFILES, profile_put((i * 3) % 26, i % 3, 300 + i)));
    }
    steps.push(delete(PROFILES, job(2)));
    steps.push(delete(PROFILES, job(9)));
    steps.push(delete(PROFILES, "job-never".to_string()));
    steps.push(batch(AUX, aux_batch(1, 4..11)));
    steps.push(Box::new(|s| s.flush()));
    for i in 26..36 {
        steps.push(put(PROFILES, profile_put((i * 7) % 40, i % 3, 400 + i)));
    }
    steps.push(put(PROFILES, profile_put(3, 0, 500)));
    steps.push(put(PROFILES, profile_put(3, 0, 501)));
    steps.push(delete(PROFILES, job(11)));
    steps.push(batch(AUX, aux_batch(2, 9..14)));
    steps.push(delete(AUX, "x00".to_string()));
    steps
}

fn session_c() -> Vec<Step> {
    let mut steps: Vec<Step> = Vec::new();
    for i in 0..7 {
        steps.push(put(PROFILES, profile_put(40 + i, 1, 600 + i)));
    }
    steps.push(delete(PROFILES, job(40)));
    steps.push(put(PROFILES, profile_put(3, 0, 700)));
    steps.push(put(AUX, Put::new("x20", "a", "k", "synced")));
    steps
}

/// The transcript one case accumulates and compares to its literal.
struct Transcript {
    out: String,
}

impl Transcript {
    fn note(&mut self, line: impl AsRef<str>) {
        self.out.push_str(line.as_ref());
        self.out.push('\n');
    }

    fn report(&mut self, label: &str, report: &RecoveryReport) {
        self.note(format!("{label} {report:?}"));
    }

    fn counters(&mut self, label: &str, reg: &obs::Registry) {
        let snap = reg.snapshot();
        self.note(format!("-- {label}"));
        for (name, value) in snap.counters {
            // The scan path's per-region read-amplification pairs are not
            // what is under test here.
            if !name.starts_with("cfstore.region.") || name == "cfstore.region.splits" {
                self.note(format!("{name} = {value}"));
            }
        }
        for e in snap.events {
            let attrs: Vec<String> = e.attrs.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
            self.note(format!("event {} {}", e.name, attrs.join(" ")));
        }
    }
}

fn open(dir: &Path, crash: CrashSpec) -> (MiniStore, RecoveryReport) {
    let opts = StoreOptions {
        crash,
        ..StoreOptions::default()
    };
    MiniStore::open_with_opts(dir, opts).expect("open")
}

/// Run `steps` until one is refused by the injected crash; `None` when
/// all of them were acknowledged.
fn drive(store: &MiniStore, steps: &[Step]) -> Option<usize> {
    for (i, step) in steps.iter().enumerate() {
        match step(store) {
            Ok(()) => {}
            Err(StoreError::Crashed) => return Some(i),
            Err(e) => panic!("step {i}: {e}"),
        }
    }
    None
}

/// Rows and a digest over every cell of one table's full scan.
fn table_digest(store: &MiniStore, table: &str) -> (usize, u64) {
    let (rows, _) = store.scan(table, &Scan::all()).expect("scan");
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

fn file_list(dir: &Path) -> String {
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .map(|e| {
            let len = e.metadata().expect("metadata").len();
            format!("{}({len})", e.file_name().to_string_lossy())
        })
        .collect();
    files.sort();
    files.join(" ")
}

/// Run the whole history with `crash` armed in session B and return the
/// transcript, plus session B's `(first, last)` cumulative WAL byte.
fn history(tag: &str, crash: CrashSpec) -> (String, (u64, u64)) {
    let dir = tmp_dir(tag);
    let mut t = Transcript { out: String::new() };

    let (store, report) = open(&dir, CrashSpec::default());
    t.report("open A", &report);
    assert_eq!(drive(&store, &session_a()), None);
    drop(store);

    let wal_path = dir.join(WAL_FILE);
    let wal_len = std::fs::metadata(&wal_path).expect("wal").len();
    let mut wal =
        WalWriter::open(&wal_path, wal_len, HAND_LSN, CrashSpec::default()).expect("open wal");
    assert_eq!(
        wal.append_at(HAND_LSN, &hand_frame()).expect("append"),
        HAND_LSN
    );
    drop(wal);

    let (mut store, report) = open(&dir, crash);
    t.report("open B", &report);
    let reg = obs::Registry::new();
    store.set_obs(reg.clone());
    let first_byte = store.wal_bytes_written();
    let crashed_at = drive(&store, &session_b());
    let span = (first_byte, store.wal_bytes_written());
    t.note(format!("session B: crashed at step {crashed_at:?}"));
    t.counters("session B counters", &reg);
    drop(store);

    if crashed_at.is_none() {
        let (store, report) = open(&dir, CrashSpec::default());
        t.report("open C", &report);
        assert_eq!(drive(&store, &session_c()), None);
        drop(store);
    }

    let (mut store, report) = open(&dir, CrashSpec::default());
    t.report("reopen", &report);
    for e in store.meta_entries() {
        t.note(format!(
            "meta {} {:?} region {} server {}",
            e.table,
            String::from_utf8_lossy(&e.start_key),
            e.region_id,
            e.region_server
        ));
    }
    let reg = obs::Registry::new();
    store.set_obs(reg.clone());
    for table in [PROFILES, AUX] {
        let (rows, digest) = table_digest(&store, table);
        t.note(format!("{table}: {rows} rows {digest:#018x}"));
    }
    store.flush().expect("flush");
    t.counters("reopened store counters", &reg);
    drop(store);
    t.note(format!("files {}", file_list(&dir)));
    t.note(format!("disk {:#018x}", disk_digest(&dir)));

    let (store, report) = open(&dir, CrashSpec::default());
    t.report("reopen again", &report);
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    (t.out, span)
}

/// Run each case and compare their transcripts with `want`; returns them.
fn check(name: &str, cases: &[(String, CrashSpec)], want: &str) -> String {
    let mut out = String::new();
    for (label, crash) in cases {
        out.push_str(&format!("==== {label}\n"));
        out.push_str(&history(&format!("{name}-{label}"), crash.clone()).0);
    }
    if out.trim() != want.trim() {
        eprintln!("==== {name}: actual transcript ====\n{out}");
        panic!("{name}: recovery transcript diverged from its golden literal");
    }
    out
}

#[test]
fn uncrashed_history_is_pinned() {
    check(
        "clean",
        &[("no crash".to_string(), CrashSpec::default())],
        CLEAN_GOLDEN,
    );
}

/// Session B's WAL bytes, from a clean run: the sampled budgets are
/// spread over exactly this span. A format change moves it — and every
/// literal here with it.
const SESSION_B_WAL_SPAN: (u64, u64) = (2821, 6191);

#[test]
fn crashes_at_sampled_wal_bytes_are_pinned() {
    let (_, span) = history("span", CrashSpec::default());
    assert_eq!(span, SESSION_B_WAL_SPAN);
    let (first, last) = span;
    // The very first byte of the session, then eleven budgets spread
    // over it: frames torn in their header, their body, and not at all.
    let mut budgets = vec![first + 1];
    budgets.extend((1..=11).map(|k| first + (last - first) * k / 12 + k % 5));
    let cases: Vec<(String, CrashSpec)> = budgets
        .into_iter()
        .map(|n| {
            (
                format!("after_wal_bytes {n}"),
                CrashSpec::after_wal_bytes(n),
            )
        })
        .collect();
    check("bytes", &cases, WAL_BYTES_GOLDEN);
}

#[test]
fn crashes_during_split_are_pinned() {
    // Session B splits six times, ordinals 0-5.
    let cases: Vec<(String, CrashSpec)> = [0, 2, 3, 4, 5]
        .into_iter()
        .map(|n| {
            let spec = CrashSpec {
                during_split: Some(n),
                ..CrashSpec::default()
            };
            (format!("during_split {n}"), spec)
        })
        .collect();
    let out = check("split", &cases, SPLIT_GOLDEN);
    for case in out.split("==== ").skip(1) {
        assert!(
            case.contains("session B: crashed at step Some("),
            "no crash in {case}"
        );
    }
}

#[test]
fn crashes_during_flush_segment_are_pinned() {
    let cases: Vec<(String, CrashSpec)> = [0, 5, 10]
        .into_iter()
        .map(|n| {
            let spec = CrashSpec {
                during_flush_segment: Some(n),
                ..CrashSpec::default()
            };
            (format!("during_flush_segment {n}"), spec)
        })
        .collect();
    check("flush", &cases, FLUSH_GOLDEN);
}

const CLEAN_GOLDEN: &str = r#"
==== no crash
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step None
-- session B counters
cfstore.block_cache.fill_bytes = 526
cfstore.block_cache.misses = 2
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 11
cfstore.flushes = 1
cfstore.puts = 48
cfstore.region.splits = 6
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
event cfstore.region.split table=Str("aux") parent=U64(7) new=U64(11)
event cfstore.flush segments=U64(11) written=U64(11) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5020)
event cfstore.region.split table=Str("profiles") parent=U64(10) new=U64(12)
event cfstore.region.split table=Str("aux") parent=U64(11) new=U64(13)
open C RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 2, frames_replayed: 17, records_replayed: 26, frames_skipped: 0, wal_bytes_valid: 1519, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
reopen RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 2, frames_replayed: 31, records_replayed: 40, frames_skipped: 0, wal_bytes_valid: 2453, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta aux "x07" region 11 server 3
meta aux "x11" region 13 server 1
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
meta profiles "job-29" region 12 server 0
meta profiles "job-36" region 14 server 2
meta profiles "job-40" region 15 server 3
meta profiles "job-42" region 16 server 0
meta profiles "job-44" region 17 server 1
profiles: 31 rows 0x5789f9e366e34b27
aux: 14 rows 0xe6c6ae3867f03f86
-- reopened store counters
cfstore.block_cache.fill_bytes = 7612
cfstore.block_cache.misses = 30
cfstore.cells_verified = 65
cfstore.flush.segments_reused = 4
cfstore.flush.segments_written = 13
cfstore.flushes = 1
cfstore.rows_returned = 45
cfstore.rows_scanned = 45
cfstore.scans = 2
event cfstore.flush segments=U64(17) written=U64(13) reused=U64(4) superseded=U64(7) flushed_lsn=U64(5051)
files MANIFEST(552) seg-000002-r000001.seg(263) seg-000002-r000004.seg(259) seg-000002-r000007.seg(489) seg-000002-r000009.seg(225) seg-000004-r000002.seg(303) seg-000004-r000003.seg(259) seg-000004-r000005.seg(259) seg-000004-r000006.seg(307) seg-000004-r000008.seg(373) seg-000004-r000010.seg(373) seg-000004-r000011.seg(533) seg-000004-r000012.seg(225) seg-000004-r000013.seg(411) seg-000004-r000014.seg(225) seg-000004-r000015.seg(168) seg-000004-r000016.seg(225) seg-000004-r000017.seg(352) wal.log(0)
disk 0x59c816c2345ee33c
reopen again RecoveryReport { segments_loaded: 17, segment_rows: 45, segment_blocks: 17, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
"#;

const WAL_BYTES_GOLDEN: &str = r#"
==== after_wal_bytes 2822
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(0)
-- session B counters
cfstore.puts = 1
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 1, truncation: Some(Torn { offset: 2821 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
profiles: 14 rows 0xcbdb35ba32aee1a2
aux: 5 rows 0x00acfa0864776f85
-- reopened store counters
cfstore.cells_verified = 25
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 7
cfstore.flushes = 1
cfstore.rows_returned = 19
cfstore.rows_scanned = 19
cfstore.scans = 2
event cfstore.flush segments=U64(7) written=U64(7) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5000)
files MANIFEST(292) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(168) seg-000002-r000004.seg(282) seg-000002-r000005.seg(409) seg-000002-r000006.seg(330) seg-000002-r000007.seg(266) wal.log(0)
disk 0x261fb5b14bdbfb7b
reopen again RecoveryReport { segments_loaded: 7, segment_rows: 19, segment_blocks: 7, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== after_wal_bytes 3102
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(2)
-- session B counters
cfstore.puts = 3
cfstore.region.splits = 1
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 33, records_replayed: 52, frames_skipped: 0, wal_bytes_valid: 3102, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
profiles: 17 rows 0x91db1762ff9aaa77
aux: 5 rows 0x00acfa0864776f85
-- reopened store counters
cfstore.cells_verified = 28
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 8
cfstore.flushes = 1
cfstore.rows_returned = 22
cfstore.rows_scanned = 22
cfstore.scans = 2
event cfstore.flush segments=U64(8) written=U64(8) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5004)
files MANIFEST(318) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(168) seg-000002-r000004.seg(282) seg-000002-r000005.seg(282) seg-000002-r000006.seg(330) seg-000002-r000007.seg(266) seg-000002-r000008.seg(409) wal.log(0)
disk 0x73d69881e71ed1ca
reopen again RecoveryReport { segments_loaded: 8, segment_rows: 22, segment_blocks: 8, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== after_wal_bytes 3384
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(6)
-- session B counters
cfstore.puts = 7
cfstore.region.splits = 2
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 37, records_replayed: 56, frames_skipped: 0, wal_bytes_valid: 3383, wal_bytes_dropped: 1, truncation: Some(Torn { offset: 3383 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
profiles: 19 rows 0xb2ab4cb943872b81
aux: 5 rows 0x00acfa0864776f85
-- reopened store counters
cfstore.cells_verified = 30
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 9
cfstore.flushes = 1
cfstore.rows_returned = 24
cfstore.rows_scanned = 24
cfstore.scans = 2
event cfstore.flush segments=U64(9) written=U64(9) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5008)
files MANIFEST(344) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(282) seg-000002-r000005.seg(282) seg-000002-r000006.seg(354) seg-000002-r000007.seg(266) seg-000002-r000008.seg(225) seg-000002-r000009.seg(352) wal.log(0)
disk 0x3d0c6afc866d9038
reopen again RecoveryReport { segments_loaded: 9, segment_rows: 24, segment_blocks: 9, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== after_wal_bytes 3666
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(9)
-- session B counters
cfstore.puts = 10
cfstore.region.splits = 2
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 40, records_replayed: 59, frames_skipped: 0, wal_bytes_valid: 3605, wal_bytes_dropped: 61, truncation: Some(Torn { offset: 3605 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
profiles: 20 rows 0xfe6d48224232337f
aux: 5 rows 0x00acfa0864776f85
-- reopened store counters
cfstore.cells_verified = 33
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 9
cfstore.flushes = 1
cfstore.rows_returned = 25
cfstore.rows_scanned = 25
cfstore.scans = 2
event cfstore.flush segments=U64(9) written=U64(9) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5011)
files MANIFEST(344) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(316) seg-000002-r000005.seg(316) seg-000002-r000006.seg(354) seg-000002-r000007.seg(266) seg-000002-r000008.seg(282) seg-000002-r000009.seg(352) wal.log(0)
disk 0xf6ae57cf17623a92
reopen again RecoveryReport { segments_loaded: 9, segment_rows: 25, segment_blocks: 9, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== after_wal_bytes 3948
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(13)
-- session B counters
cfstore.puts = 12
cfstore.region.splits = 3
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 45, records_replayed: 64, frames_skipped: 0, wal_bytes_valid: 3929, wal_bytes_dropped: 19, truncation: Some(Torn { offset: 3929 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
profiles: 22 rows 0x60636324b445a1f3
aux: 5 rows 0x00acfa0864776f85
-- reopened store counters
cfstore.cells_verified = 35
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 10
cfstore.flushes = 1
cfstore.rows_returned = 27
cfstore.rows_scanned = 27
cfstore.scans = 2
event cfstore.flush segments=U64(10) written=U64(10) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5016)
files MANIFEST(370) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(316) seg-000002-r000005.seg(316) seg-000002-r000006.seg(273) seg-000002-r000007.seg(266) seg-000002-r000008.seg(339) seg-000002-r000009.seg(225) seg-000002-r000010.seg(352) wal.log(0)
disk 0xbfcbfdfa78d920a9
reopen again RecoveryReport { segments_loaded: 10, segment_rows: 27, segment_blocks: 10, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== after_wal_bytes 4225
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(15)
-- session B counters
cfstore.puts = 26
cfstore.region.splits = 3
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 47, records_replayed: 66, frames_skipped: 0, wal_bytes_valid: 4018, wal_bytes_dropped: 207, truncation: Some(Torn { offset: 4018 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
profiles: 21 rows 0x6d0175345e95b021
aux: 5 rows 0x00acfa0864776f85
-- reopened store counters
cfstore.cells_verified = 34
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 10
cfstore.flushes = 1
cfstore.rows_returned = 26
cfstore.rows_scanned = 26
cfstore.scans = 2
event cfstore.flush segments=U64(10) written=U64(10) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5018)
files MANIFEST(370) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(259) seg-000002-r000005.seg(316) seg-000002-r000006.seg(273) seg-000002-r000007.seg(266) seg-000002-r000008.seg(339) seg-000002-r000009.seg(225) seg-000002-r000010.seg(352) wal.log(0)
disk 0x3e23f2168626fe17
reopen again RecoveryReport { segments_loaded: 10, segment_rows: 26, segment_blocks: 10, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== after_wal_bytes 4507
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(15)
-- session B counters
cfstore.puts = 26
cfstore.region.splits = 3
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 47, records_replayed: 66, frames_skipped: 0, wal_bytes_valid: 4018, wal_bytes_dropped: 489, truncation: Some(Torn { offset: 4018 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
profiles: 21 rows 0x6d0175345e95b021
aux: 5 rows 0x00acfa0864776f85
-- reopened store counters
cfstore.cells_verified = 34
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 10
cfstore.flushes = 1
cfstore.rows_returned = 26
cfstore.rows_scanned = 26
cfstore.scans = 2
event cfstore.flush segments=U64(10) written=U64(10) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5018)
files MANIFEST(370) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(259) seg-000002-r000005.seg(316) seg-000002-r000006.seg(273) seg-000002-r000007.seg(266) seg-000002-r000008.seg(339) seg-000002-r000009.seg(225) seg-000002-r000010.seg(352) wal.log(0)
disk 0x3e23f2168626fe17
reopen again RecoveryReport { segments_loaded: 10, segment_rows: 26, segment_blocks: 10, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== after_wal_bytes 4788
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(18)
-- session B counters
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 11
cfstore.flushes = 1
cfstore.puts = 28
cfstore.region.splits = 4
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
event cfstore.region.split table=Str("aux") parent=U64(7) new=U64(11)
event cfstore.flush segments=U64(11) written=U64(11) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5020)
reopen RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 0, frames_replayed: 1, records_replayed: 1, frames_skipped: 0, wal_bytes_valid: 74, wal_bytes_dropped: 42, truncation: Some(Torn { offset: 74 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta aux "x07" region 11 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
profiles: 21 rows 0x6c527a5992f32b72
aux: 11 rows 0x17ff5d51a7e1babe
-- reopened store counters
cfstore.block_cache.fill_bytes = 2818
cfstore.block_cache.misses = 12
cfstore.cells_verified = 47
cfstore.flush.segments_reused = 10
cfstore.flush.segments_written = 1
cfstore.flushes = 1
cfstore.rows_returned = 32
cfstore.rows_scanned = 32
cfstore.scans = 2
event cfstore.flush segments=U64(11) written=U64(1) reused=U64(10) superseded=U64(1) flushed_lsn=U64(5021)
files MANIFEST(396) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(259) seg-000002-r000005.seg(316) seg-000002-r000006.seg(273) seg-000002-r000007.seg(489) seg-000002-r000008.seg(339) seg-000002-r000009.seg(225) seg-000002-r000011.seg(444) seg-000004-r000010.seg(386) wal.log(0)
disk 0x45eef50d25e47ec5
reopen again RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== after_wal_bytes 5070
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(22)
-- session B counters
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 11
cfstore.flushes = 1
cfstore.puts = 32
cfstore.region.splits = 4
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
event cfstore.region.split table=Str("aux") parent=U64(7) new=U64(11)
event cfstore.flush segments=U64(11) written=U64(11) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5020)
reopen RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 0, frames_replayed: 5, records_replayed: 5, frames_skipped: 0, wal_bytes_valid: 370, wal_bytes_dropped: 28, truncation: Some(Torn { offset: 370 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta aux "x07" region 11 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
profiles: 23 rows 0x52812382cc9d9216
aux: 11 rows 0x17ff5d51a7e1babe
-- reopened store counters
cfstore.block_cache.fill_bytes = 3209
cfstore.block_cache.misses = 14
cfstore.cells_verified = 51
cfstore.flush.segments_reused = 8
cfstore.flush.segments_written = 3
cfstore.flushes = 1
cfstore.rows_returned = 34
cfstore.rows_scanned = 34
cfstore.scans = 2
event cfstore.flush segments=U64(11) written=U64(3) reused=U64(8) superseded=U64(3) flushed_lsn=U64(5025)
files MANIFEST(396) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(259) seg-000002-r000007.seg(489) seg-000002-r000008.seg(339) seg-000002-r000009.seg(225) seg-000002-r000011.seg(444) seg-000004-r000005.seg(350) seg-000004-r000006.seg(307) seg-000004-r000010.seg(500) wal.log(0)
disk 0x75b75a18bd973816
reopen again RecoveryReport { segments_loaded: 11, segment_rows: 34, segment_blocks: 11, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== after_wal_bytes 5352
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(25)
-- session B counters
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 11
cfstore.flushes = 1
cfstore.puts = 35
cfstore.region.splits = 5
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
event cfstore.region.split table=Str("aux") parent=U64(7) new=U64(11)
event cfstore.flush segments=U64(11) written=U64(11) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5020)
event cfstore.region.split table=Str("profiles") parent=U64(10) new=U64(12)
reopen RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 0, frames_replayed: 9, records_replayed: 9, frames_skipped: 0, wal_bytes_valid: 651, wal_bytes_dropped: 29, truncation: Some(Torn { offset: 651 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta aux "x07" region 11 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
meta profiles "job-29" region 12 server 0
profiles: 25 rows 0x94fc5fbfe108dcd1
aux: 11 rows 0x17ff5d51a7e1babe
-- reopened store counters
cfstore.block_cache.fill_bytes = 3975
cfstore.block_cache.misses = 17
cfstore.cells_verified = 54
cfstore.flush.segments_reused = 7
cfstore.flush.segments_written = 5
cfstore.flushes = 1
cfstore.rows_returned = 36
cfstore.rows_scanned = 36
cfstore.scans = 2
event cfstore.flush segments=U64(12) written=U64(5) reused=U64(7) superseded=U64(4) flushed_lsn=U64(5029)
files MANIFEST(422) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(259) seg-000002-r000007.seg(489) seg-000002-r000009.seg(225) seg-000002-r000011.seg(444) seg-000004-r000005.seg(350) seg-000004-r000006.seg(307) seg-000004-r000008.seg(373) seg-000004-r000010.seg(373) seg-000004-r000012.seg(352) wal.log(0)
disk 0xbce9dac9bf5d9310
reopen again RecoveryReport { segments_loaded: 12, segment_rows: 36, segment_blocks: 12, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== after_wal_bytes 5629
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(29)
-- session B counters
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 11
cfstore.flushes = 1
cfstore.puts = 38
cfstore.region.splits = 5
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
event cfstore.region.split table=Str("aux") parent=U64(7) new=U64(11)
event cfstore.flush segments=U64(11) written=U64(11) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5020)
event cfstore.region.split table=Str("profiles") parent=U64(10) new=U64(12)
reopen RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 0, frames_replayed: 13, records_replayed: 13, frames_skipped: 0, wal_bytes_valid: 947, wal_bytes_dropped: 10, truncation: Some(Torn { offset: 947 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta aux "x07" region 11 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
meta profiles "job-29" region 12 server 0
profiles: 26 rows 0x9cc0d0539e89b8d3
aux: 11 rows 0x17ff5d51a7e1babe
-- reopened store counters
cfstore.block_cache.fill_bytes = 4101
cfstore.block_cache.misses = 18
cfstore.cells_verified = 56
cfstore.flush.segments_reused = 6
cfstore.flush.segments_written = 6
cfstore.flushes = 1
cfstore.rows_returned = 37
cfstore.rows_scanned = 37
cfstore.scans = 2
event cfstore.flush segments=U64(12) written=U64(6) reused=U64(6) superseded=U64(5) flushed_lsn=U64(5033)
files MANIFEST(422) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000004.seg(259) seg-000002-r000007.seg(489) seg-000002-r000009.seg(225) seg-000002-r000011.seg(444) seg-000004-r000003.seg(259) seg-000004-r000005.seg(350) seg-000004-r000006.seg(308) seg-000004-r000008.seg(373) seg-000004-r000010.seg(373) seg-000004-r000012.seg(409) wal.log(0)
disk 0xf88120d1e4861aed
reopen again RecoveryReport { segments_loaded: 12, segment_rows: 37, segment_blocks: 12, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== after_wal_bytes 5911
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(30)
-- session B counters
cfstore.block_cache.fill_bytes = 217
cfstore.block_cache.misses = 1
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 11
cfstore.flushes = 1
cfstore.puts = 48
cfstore.region.splits = 5
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
event cfstore.region.split table=Str("aux") parent=U64(7) new=U64(11)
event cfstore.flush segments=U64(11) written=U64(11) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5020)
event cfstore.region.split table=Str("profiles") parent=U64(10) new=U64(12)
reopen RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 1, frames_replayed: 14, records_replayed: 14, frames_skipped: 0, wal_bytes_valid: 990, wal_bytes_dropped: 249, truncation: Some(Torn { offset: 990 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta aux "x07" region 11 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
meta profiles "job-29" region 12 server 0
profiles: 25 rows 0x59b5e2b8b4008f92
aux: 11 rows 0x17ff5d51a7e1babe
-- reopened store counters
cfstore.block_cache.fill_bytes = 4101
cfstore.block_cache.misses = 18
cfstore.cells_verified = 54
cfstore.flush.segments_reused = 6
cfstore.flush.segments_written = 6
cfstore.flushes = 1
cfstore.rows_returned = 36
cfstore.rows_scanned = 36
cfstore.scans = 2
event cfstore.flush segments=U64(12) written=U64(6) reused=U64(6) superseded=U64(5) flushed_lsn=U64(5034)
files MANIFEST(422) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000004.seg(259) seg-000002-r000007.seg(489) seg-000002-r000009.seg(225) seg-000002-r000011.seg(444) seg-000004-r000003.seg(259) seg-000004-r000005.seg(259) seg-000004-r000006.seg(308) seg-000004-r000008.seg(373) seg-000004-r000010.seg(373) seg-000004-r000012.seg(409) wal.log(0)
disk 0xaa2007d94dd3c4d3
reopen again RecoveryReport { segments_loaded: 12, segment_rows: 36, segment_blocks: 12, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
"#;

const SPLIT_GOLDEN: &str = r#"
==== during_split 0
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(0)
-- session B counters
cfstore.puts = 1
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 30, records_replayed: 49, frames_skipped: 0, wal_bytes_valid: 2895, wal_bytes_dropped: 29, truncation: Some(Torn { offset: 2895 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
profiles: 15 rows 0xbd054e4d5d385440
aux: 5 rows 0x00acfa0864776f85
-- reopened store counters
cfstore.cells_verified = 26
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 7
cfstore.flushes = 1
cfstore.rows_returned = 20
cfstore.rows_scanned = 20
cfstore.scans = 2
event cfstore.flush segments=U64(7) written=U64(7) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5001)
files MANIFEST(292) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(168) seg-000002-r000004.seg(282) seg-000002-r000005.seg(466) seg-000002-r000006.seg(330) seg-000002-r000007.seg(266) wal.log(0)
disk 0x4a116198565bc532
reopen again RecoveryReport { segments_loaded: 7, segment_rows: 20, segment_blocks: 7, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== during_split 2
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(10)
-- session B counters
cfstore.puts = 11
cfstore.region.splits = 2
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 42, records_replayed: 61, frames_skipped: 0, wal_bytes_valid: 3753, wal_bytes_dropped: 29, truncation: Some(Torn { offset: 3753 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
profiles: 22 rows 0xe442d00b7b82212f
aux: 5 rows 0x00acfa0864776f85
-- reopened store counters
cfstore.cells_verified = 35
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 9
cfstore.flushes = 1
cfstore.rows_returned = 27
cfstore.rows_scanned = 27
cfstore.scans = 2
event cfstore.flush segments=U64(9) written=U64(9) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5013)
files MANIFEST(344) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(316) seg-000002-r000005.seg(316) seg-000002-r000006.seg(354) seg-000002-r000007.seg(266) seg-000002-r000008.seg(339) seg-000002-r000009.seg(409) wal.log(0)
disk 0x2588e6003005973b
reopen again RecoveryReport { segments_loaded: 9, segment_rows: 27, segment_blocks: 9, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== during_split 3
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(15)
-- session B counters
cfstore.puts = 26
cfstore.region.splits = 3
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 48, records_replayed: 80, frames_skipped: 0, wal_bytes_valid: 4621, wal_bytes_dropped: 25, truncation: Some(Torn { offset: 4621 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
profiles: 21 rows 0x6d0175345e95b021
aux: 11 rows 0x17ff5d51a7e1babe
-- reopened store counters
cfstore.cells_verified = 46
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 10
cfstore.flushes = 1
cfstore.rows_returned = 32
cfstore.rows_scanned = 32
cfstore.scans = 2
event cfstore.flush segments=U64(10) written=U64(10) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5019)
files MANIFEST(370) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(259) seg-000002-r000005.seg(316) seg-000002-r000006.seg(273) seg-000002-r000007.seg(836) seg-000002-r000008.seg(339) seg-000002-r000009.seg(225) seg-000002-r000010.seg(352) wal.log(0)
disk 0x39245de3cbe8c712
reopen again RecoveryReport { segments_loaded: 10, segment_rows: 32, segment_blocks: 10, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== during_split 4
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(24)
-- session B counters
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 11
cfstore.flushes = 1
cfstore.puts = 34
cfstore.region.splits = 4
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
event cfstore.region.split table=Str("aux") parent=U64(7) new=U64(11)
event cfstore.flush segments=U64(11) written=U64(11) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5020)
reopen RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 0, frames_replayed: 8, records_replayed: 8, frames_skipped: 0, wal_bytes_valid: 592, wal_bytes_dropped: 29, truncation: Some(Torn { offset: 592 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta aux "x07" region 11 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
profiles: 25 rows 0x94fc5fbfe108dcd1
aux: 11 rows 0x17ff5d51a7e1babe
-- reopened store counters
cfstore.block_cache.fill_bytes = 3449
cfstore.block_cache.misses = 15
cfstore.cells_verified = 54
cfstore.flush.segments_reused = 7
cfstore.flush.segments_written = 4
cfstore.flushes = 1
cfstore.rows_returned = 36
cfstore.rows_scanned = 36
cfstore.scans = 2
event cfstore.flush segments=U64(11) written=U64(4) reused=U64(7) superseded=U64(4) flushed_lsn=U64(5028)
files MANIFEST(396) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(259) seg-000002-r000007.seg(489) seg-000002-r000009.seg(225) seg-000002-r000011.seg(444) seg-000004-r000005.seg(350) seg-000004-r000006.seg(307) seg-000004-r000008.seg(373) seg-000004-r000010.seg(614) wal.log(0)
disk 0x5c8997f3c1242b22
reopen again RecoveryReport { segments_loaded: 11, segment_rows: 36, segment_blocks: 11, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== during_split 5
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(30)
-- session B counters
cfstore.block_cache.fill_bytes = 217
cfstore.block_cache.misses = 1
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 11
cfstore.flushes = 1
cfstore.puts = 48
cfstore.region.splits = 5
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
event cfstore.region.split table=Str("aux") parent=U64(7) new=U64(11)
event cfstore.flush segments=U64(11) written=U64(11) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5020)
event cfstore.region.split table=Str("profiles") parent=U64(10) new=U64(12)
reopen RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 1, frames_replayed: 15, records_replayed: 24, frames_skipped: 0, wal_bytes_valid: 1433, wal_bytes_dropped: 25, truncation: Some(Torn { offset: 1433 }), orphan_segments: [] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta aux "x07" region 11 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
meta profiles "job-29" region 12 server 0
profiles: 25 rows 0x59b5e2b8b4008f92
aux: 14 rows 0x96a4ce12a563043c
-- reopened store counters
cfstore.block_cache.fill_bytes = 4467
cfstore.block_cache.misses = 19
cfstore.cells_verified = 60
cfstore.flush.segments_reused = 5
cfstore.flush.segments_written = 7
cfstore.flushes = 1
cfstore.rows_returned = 39
cfstore.rows_scanned = 39
cfstore.scans = 2
event cfstore.flush segments=U64(12) written=U64(7) reused=U64(5) superseded=U64(6) flushed_lsn=U64(5035)
files MANIFEST(422) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000004.seg(259) seg-000002-r000007.seg(489) seg-000002-r000009.seg(225) seg-000004-r000003.seg(259) seg-000004-r000005.seg(259) seg-000004-r000006.seg(308) seg-000004-r000008.seg(373) seg-000004-r000010.seg(373) seg-000004-r000011.seg(796) seg-000004-r000012.seg(409) wal.log(0)
disk 0xcd82eaf2b152facd
reopen again RecoveryReport { segments_loaded: 12, segment_rows: 39, segment_blocks: 12, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
"#;

const FLUSH_GOLDEN: &str = r#"
==== during_flush_segment 0
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(16)
-- session B counters
cfstore.puts = 26
cfstore.region.splits = 4
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
event cfstore.region.split table=Str("aux") parent=U64(7) new=U64(11)
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 49, records_replayed: 81, frames_skipped: 0, wal_bytes_valid: 4672, wal_bytes_dropped: 0, truncation: None, orphan_segments: ["seg-000002-r000002.seg"] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta aux "x07" region 11 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
profiles: 21 rows 0x6d0175345e95b021
aux: 11 rows 0x17ff5d51a7e1babe
-- reopened store counters
cfstore.cells_verified = 46
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 11
cfstore.flushes = 1
cfstore.rows_returned = 32
cfstore.rows_scanned = 32
cfstore.scans = 2
event cfstore.flush segments=U64(11) written=U64(11) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5020)
files MANIFEST(396) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(259) seg-000002-r000005.seg(316) seg-000002-r000006.seg(273) seg-000002-r000007.seg(489) seg-000002-r000008.seg(339) seg-000002-r000009.seg(225) seg-000002-r000010.seg(352) seg-000002-r000011.seg(444) wal.log(0)
disk 0x2b8edc73f3d1bbfa
reopen again RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== during_flush_segment 5
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(16)
-- session B counters
cfstore.puts = 26
cfstore.region.splits = 4
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
event cfstore.region.split table=Str("aux") parent=U64(7) new=U64(11)
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 49, records_replayed: 81, frames_skipped: 0, wal_bytes_valid: 4672, wal_bytes_dropped: 0, truncation: None, orphan_segments: ["seg-000002-r000001.seg", "seg-000002-r000002.seg", "seg-000002-r000003.seg", "seg-000002-r000006.seg", "seg-000002-r000007.seg", "seg-000002-r000011.seg"] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta aux "x07" region 11 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
profiles: 21 rows 0x6d0175345e95b021
aux: 11 rows 0x17ff5d51a7e1babe
-- reopened store counters
cfstore.cells_verified = 46
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 11
cfstore.flushes = 1
cfstore.rows_returned = 32
cfstore.rows_scanned = 32
cfstore.scans = 2
event cfstore.flush segments=U64(11) written=U64(11) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5020)
files MANIFEST(396) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(259) seg-000002-r000005.seg(316) seg-000002-r000006.seg(273) seg-000002-r000007.seg(489) seg-000002-r000008.seg(339) seg-000002-r000009.seg(225) seg-000002-r000010.seg(352) seg-000002-r000011.seg(444) wal.log(0)
disk 0x2b8edc73f3d1bbfa
reopen again RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
==== during_flush_segment 10
open A RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
open B RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 29, records_replayed: 48, frames_skipped: 0, wal_bytes_valid: 2821, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
session B: crashed at step Some(16)
-- session B counters
cfstore.puts = 26
cfstore.region.splits = 4
event cfstore.region.split table=Str("profiles") parent=U64(5) new=U64(8)
event cfstore.region.split table=Str("profiles") parent=U64(8) new=U64(9)
event cfstore.region.split table=Str("profiles") parent=U64(9) new=U64(10)
event cfstore.region.split table=Str("aux") parent=U64(7) new=U64(11)
reopen RecoveryReport { segments_loaded: 0, segment_rows: 0, segment_blocks: 0, segment_blocks_read: 0, frames_replayed: 49, records_replayed: 81, frames_skipped: 0, wal_bytes_valid: 4672, wal_bytes_dropped: 0, truncation: None, orphan_segments: ["seg-000002-r000001.seg", "seg-000002-r000002.seg", "seg-000002-r000003.seg", "seg-000002-r000004.seg", "seg-000002-r000005.seg", "seg-000002-r000006.seg", "seg-000002-r000007.seg", "seg-000002-r000008.seg", "seg-000002-r000009.seg", "seg-000002-r000010.seg", "seg-000002-r000011.seg"] }
meta aux "" region 2 server 2
meta aux "x03" region 7 server 3
meta aux "x07" region 11 server 3
meta profiles "" region 1 server 1
meta profiles "job-02" region 6 server 2
meta profiles "job-05" region 3 server 3
meta profiles "job-07" region 4 server 0
meta profiles "job-10" region 5 server 1
meta profiles "job-13" region 8 server 0
meta profiles "job-19" region 9 server 1
meta profiles "job-22" region 10 server 2
profiles: 21 rows 0x6d0175345e95b021
aux: 11 rows 0x17ff5d51a7e1babe
-- reopened store counters
cfstore.cells_verified = 46
cfstore.flush.segments_reused = 0
cfstore.flush.segments_written = 11
cfstore.flushes = 1
cfstore.rows_returned = 32
cfstore.rows_scanned = 32
cfstore.scans = 2
event cfstore.flush segments=U64(11) written=U64(11) reused=U64(0) superseded=U64(0) flushed_lsn=U64(5020)
files MANIFEST(396) seg-000002-r000001.seg(263) seg-000002-r000002.seg(391) seg-000002-r000003.seg(225) seg-000002-r000004.seg(259) seg-000002-r000005.seg(316) seg-000002-r000006.seg(273) seg-000002-r000007.seg(489) seg-000002-r000008.seg(339) seg-000002-r000009.seg(225) seg-000002-r000010.seg(352) seg-000002-r000011.seg(444) wal.log(0)
disk 0x2b8edc73f3d1bbfa
reopen again RecoveryReport { segments_loaded: 11, segment_rows: 32, segment_blocks: 11, segment_blocks_read: 0, frames_replayed: 0, records_replayed: 0, frames_skipped: 0, wal_bytes_valid: 0, wal_bytes_dropped: 0, truncation: None, orphan_segments: [] }
"#;
