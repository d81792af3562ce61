//! Golden on-disk formats (DESIGN.md §16).
//!
//! Each test drives a fixed tiny workload through the public writers and
//! compares the file that lands on disk, byte for byte, with a hex
//! literal pinned here — then feeds the pinned bytes back through the
//! public reader. A store directory written by any earlier build must
//! reopen under every later one, so a diff in these literals is a format
//! break, never a snapshot to regenerate.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use cfstore::recovery::{read_manifest, write_manifest, ManifestTable, MANIFEST_FILE};
use cfstore::segment::{read_segment, write_segment};
use cfstore::shard::resharding::{
    read_catalog, read_journal, resolve_against_catalog, Catalog, JournalRecord, Pending,
    TOPOLOGY_FILE,
};
use cfstore::shard::SHARDS_FILE;
use cfstore::wal::{read_wal, WalRecord, WalWriter, WAL_FILE};
use cfstore::{
    CellVersion, CrashSpec, KeyRange, Manifest, MiniStore, Put, ReshardPhase, RowData,
    SegmentReader, ShardOptions, ShardedStore, SyncPolicy, Topology, WalTruncation,
};
use mrsim::{MapPhase, ReducePhase};
use profiler::{CostFactors, JobProfile, MapProfile, ReduceProfile};
use pstorm::codec::{decode_cfg, decode_profile, encode_cfg, encode_profile};
use staticanalysis::{Cfg, Node, NodeKind};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pstorm-golden-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Decode a hex literal, ignoring the whitespace that wraps it.
fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd hex literal");
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

fn assert_golden(what: &str, written: &[u8], golden: &str) {
    assert_eq!(
        hex(written),
        hex(&unhex(golden)),
        "{what}: the bytes on disk moved"
    );
}

// ---------------------------------------------------------------------
// WAL: one frame, five records, BatchMarker first
// ---------------------------------------------------------------------

const WAL_GOLDEN: &str = "
    00000093 2f4c3b99 0000000000000400 00000005
    05 0000000000000001 00000002 00000000 00000002
    01 00000001 74 00000002 00000001 66 00000001 67 0000000000000100 0000000000000001
    02 00000001 74 00000004 726f7731 00000001 66 00000001 63 00000001 76 0000000000000007
    03 00000001 74 00000004 726f7730
    04 00000001 74 0000000000000001 0000000000000002 00000001 6d
";

fn wal_records() -> Vec<WalRecord> {
    vec![
        WalRecord::BatchMarker {
            gsn: 1,
            participants: vec![0, 2],
        },
        WalRecord::CreateTable {
            name: "t".into(),
            families: vec!["f".into(), "g".into()],
            split_threshold: 256,
            root_region_id: 1,
        },
        WalRecord::Put {
            table: "t".into(),
            row: Bytes::from("row1"),
            family: "f".into(),
            column: Bytes::from("c"),
            value: Bytes::from("v"),
            timestamp: 7,
        },
        WalRecord::DeleteRow {
            table: "t".into(),
            row: Bytes::from("row0"),
        },
        WalRecord::RegionSplit {
            table: "t".into(),
            parent_id: 1,
            new_id: 2,
            split_key: Bytes::from("m"),
        },
    ]
}

#[test]
fn wal_frame_bytes_are_pinned() {
    let dir = tmp_dir("wal");
    let path = dir.join(WAL_FILE);
    let mut w = WalWriter::open(&path, 0, 1, SyncPolicy::EveryOp, CrashSpec::default()).unwrap();
    assert_eq!(w.append_at(1024, &wal_records()).unwrap(), 1024);
    drop(w);
    assert_golden("wal.log", &std::fs::read(&path).unwrap(), WAL_GOLDEN);

    std::fs::write(&path, unhex(WAL_GOLDEN)).unwrap();
    let scan = read_wal(&path).unwrap();
    assert!(scan.truncation.is_none());
    assert_eq!(scan.valid_bytes, scan.total_bytes);
    assert_eq!(scan.frame_offsets, vec![0]);
    assert_eq!(scan.frames.len(), 1);
    assert_eq!(scan.frames[0].lsn, 1024);
    assert_eq!(scan.frames[0].records, wal_records());
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// MANIFEST
// ---------------------------------------------------------------------

const MANIFEST_GOLDEN: &str = "
    4d465331 0000007a 93f1a469
    000000000000002a 0000000000000063 0000000000000007 0000000000000003
    00000001 00000004 4a6f6273 00000002 00000001 66 00000001 67 0000000000000100
    00000002
    00000016 7365672d3030303030332d723030303030312e736567
    00000016 7365672d3030303030332d723030303030322e736567
";

fn manifest() -> Manifest {
    Manifest {
        flushed_lsn: 42,
        clock: 99,
        next_region_id: 7,
        generation: 3,
        tables: vec![ManifestTable {
            name: "Jobs".into(),
            families: vec!["f".into(), "g".into()],
            split_threshold: 256,
        }],
        segments: vec![
            "seg-000003-r000001.seg".into(),
            "seg-000003-r000002.seg".into(),
        ],
    }
}

#[test]
fn manifest_bytes_are_pinned() {
    let dir = tmp_dir("manifest");
    write_manifest(&dir, &manifest()).unwrap();
    let path = dir.join(MANIFEST_FILE);
    assert_golden("MANIFEST", &std::fs::read(&path).unwrap(), MANIFEST_GOLDEN);

    std::fs::write(&path, unhex(MANIFEST_GOLDEN)).unwrap();
    assert_eq!(read_manifest(&dir).unwrap(), Some(manifest()));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// SHARDS v1 / v2 and the TOPOLOGY journal, from one tiny reshard
// ---------------------------------------------------------------------

const SHARDS_V1_GOLDEN: &str = "53484431 00000008 2f45c64f 00000001 00000001";

const SHARDS_V2_GOLDEN: &str = "
    53484431 00000020 6ad97c0b 00000002 00000001
    0000000000000001 00000001 00000000 00000001 00000001
";

const TOPOLOGY_GOLDEN: &str = "
    544f5031
    0000002d 4480ebbd 01 0000000000000001
        00000001 00000001 00000000
        00000002 00000001 00000001 00000000 00000001 00000001
    0000000d 5248da79 02 0000000000000001 00000000
    0000000d 254feaef 02 0000000000000001 00000001
    00000009 cce27534 04 0000000000000001
    00000009 db996177 05 0000000000000001
";

fn target_topology() -> Topology {
    let mut t = Topology::uniform(2, 1);
    t.overrides.insert(0, vec![1]);
    t
}

/// 1 shard → 2 shards with slot 0 pinned onto shard 1: the smallest plan
/// whose journal holds every record kind a clean run writes and whose
/// final catalog needs the v2 body (epoch ≠ 0 and an override).
#[test]
fn shards_catalog_and_topology_journal_bytes_are_pinned() {
    let dir = tmp_dir("shards");
    let opts = ShardOptions {
        shards: 1,
        replication: 1,
        ..ShardOptions::default()
    };
    let (store, _) = ShardedStore::open_with_opts(&dir, opts).unwrap();
    assert_golden(
        "SHARDS v1",
        &std::fs::read(dir.join(SHARDS_FILE)).unwrap(),
        SHARDS_V1_GOLDEN,
    );
    store.create_table("t", &["f"]).unwrap();
    for i in 0..4 {
        store
            .put("t", Put::new(format!("row{i}"), "f", "c", "v"))
            .unwrap();
    }
    store
        .begin_reshard(Topology::uniform(2, 1).with_override(0, vec![1]))
        .unwrap();
    while store.reshard_step().unwrap().phase != ReshardPhase::Gc {}
    assert_golden(
        "TOPOLOGY",
        &std::fs::read(dir.join(TOPOLOGY_FILE)).unwrap(),
        TOPOLOGY_GOLDEN,
    );
    assert_eq!(
        store.resume_reshard().unwrap().unwrap().phase,
        ReshardPhase::Done
    );
    assert_golden(
        "SHARDS v2",
        &std::fs::read(dir.join(SHARDS_FILE)).unwrap(),
        SHARDS_V2_GOLDEN,
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();

    // The read side, from the pinned bytes alone.
    let dir = tmp_dir("shards-read");
    std::fs::write(dir.join(SHARDS_FILE), unhex(SHARDS_V1_GOLDEN)).unwrap();
    let v1 = Catalog {
        topology: Topology::uniform(1, 1),
        epoch: 0,
    };
    assert_eq!(read_catalog(&dir).unwrap(), Some(v1.clone()));
    std::fs::write(dir.join(SHARDS_FILE), unhex(SHARDS_V2_GOLDEN)).unwrap();
    let v2 = Catalog {
        topology: target_topology(),
        epoch: 1,
    };
    assert_eq!(read_catalog(&dir).unwrap(), Some(v2));

    std::fs::write(dir.join(TOPOLOGY_FILE), unhex(TOPOLOGY_GOLDEN)).unwrap();
    let scan = read_journal(&dir).unwrap().unwrap();
    assert_eq!(scan.valid_bytes, scan.total_bytes);
    assert_eq!(
        scan.records,
        vec![
            JournalRecord::Begin {
                epoch: 1,
                old: Topology::uniform(1, 1),
                new: target_topology(),
            },
            JournalRecord::Copied { epoch: 1, unit: 0 },
            JournalRecord::Copied { epoch: 1, unit: 1 },
            JournalRecord::Verified { epoch: 1 },
            JournalRecord::Cutover { epoch: 1 },
        ]
    );
    assert!(matches!(
        resolve_against_catalog(&v1, &scan.records).unwrap(),
        Pending::PostCutover { epoch: 1, .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Segment: 33 rows = two blocks (32 + 1), bounded key range
// ---------------------------------------------------------------------

const SEGMENT_GOLDEN: &str = "
    5347314400000604 66df836200000020 0000000372303000 0000010000000166
    0000000100000001 6300000001000000 000000000156a2cb af00000003763030
    0000000372303100 0000010000000166 0000000100000001 6300000001000000
    000000000221a5fb 3900000003763031 0000000372303200 0000010000000166
    0000000100000001 6300000001000000 0000000003b8acaa 8300000003763032
    0000000372303300 0000010000000166 0000000100000001 6300000001000000
    0000000004cfab9a 1500000003763033 0000000372303400 0000010000000166
    0000000100000001 6300000001000000 000000000551cf0f b600000003763034
    0000000372303500 0000010000000166 0000000100000001 6300000001000000
    000000000626c83f 2000000003763035 0000000372303600 0000010000000166
    0000000100000001 6300000001000000 0000000007bfc16e 9a00000003763036
    0000000372303700 0000010000000166 0000000100000001 6300000001000000
    0000000008c8c65e 0c00000003763037 0000000372303800 0000010000000166
    0000000100000001 6300000001000000 0000000009587943 9d00000003763038
    0000000372303900 0000010000000166 0000000100000001 6300000001000000
    000000000a2f7e73 0b00000003763039 0000000372313000 0000010000000166
    0000000100000001 6300000001000000 000000000b4fb9fa ee00000003763130
    0000000372313100 0000010000000166 0000000100000001 6300000001000000
    000000000c38beca 7800000003763131 0000000372313200 0000010000000166
    0000000100000001 6300000001000000 000000000da1b79b c200000003763132
    0000000372313300 0000010000000166 0000000100000001 6300000001000000
    000000000ed6b0ab 5400000003763133 0000000372313400 0000010000000166
    0000000100000001 6300000001000000 000000000f48d43e f700000003763134
    0000000372313500 0000010000000166 0000000100000001 6300000001000000
    00000000103fd30e 6100000003763135 0000000372313600 0000010000000166
    0000000100000001 6300000001000000 0000000011a6da5f db00000003763136
    0000000372313700 0000010000000166 0000000100000001 6300000001000000
    0000000012d1dd6f 4d00000003763137 0000000372313800 0000010000000166
    0000000100000001 6300000001000000 0000000013416272 dc00000003763138
    0000000372313900 0000010000000166 0000000100000001 6300000001000000
    0000000014366542 4a00000003763139 0000000372323000 0000010000000166
    0000000100000001 6300000001000000 00000000156494a9 2d00000003763230
    0000000372323100 0000010000000166 0000000100000001 6300000001000000
    0000000016139399 bb00000003763231 0000000372323200 0000010000000166
    0000000100000001 6300000001000000 00000000178a9ac8 0100000003763232
    0000000372323300 0000010000000166 0000000100000001 6300000001000000
    0000000018fd9df8 9700000003763233 0000000372323400 0000010000000166
    0000000100000001 6300000001000000 000000001963f96d 3400000003763234
    0000000372323500 0000010000000166 0000000100000001 6300000001000000
    000000001a14fe5d a200000003763235 0000000372323600 0000010000000166
    0000000100000001 6300000001000000 000000001b8df70c 1800000003763236
    0000000372323700 0000010000000166 0000000100000001 6300000001000000
    000000001cfaf03c 8e00000003763237 0000000372323800 0000010000000166
    0000000100000001 6300000001000000 000000001d6a4f21 1f00000003763238
    0000000372323900 0000010000000166 0000000100000001 6300000001000000
    000000001e1d4811 8900000003763239 0000000372333000 0000010000000166
    0000000100000001 6300000001000000 000000001f7d8f98 6c00000003763330
    0000000372333100 0000010000000166 0000000100000001 6300000001000000
    00000000200a88a8 fa00000003763331 000000344ad6edd6 0000000100000003
    7233320000000100 0000016600000001 0000000163000000 0100000000000000
    219381f940000000 037633320000004d 24ab4e0e00000004 4a6f627300000000
    0000000700000001 7201000000017300 0000000000002100 0000020000000372
    3030000000000000 00040000060c0000 0003723332000000 0000000610000000
    3c00000000000006 4c53475452
";

fn segment_rows() -> BTreeMap<Bytes, RowData> {
    (0..33u64)
        .map(|i| {
            let mut cols = BTreeMap::new();
            cols.insert(
                Bytes::from("c"),
                vec![CellVersion::new(i + 1, Bytes::from(format!("v{i:02}")))],
            );
            let mut data: RowData = BTreeMap::new();
            data.insert("f".to_string(), cols);
            (Bytes::from(format!("r{i:02}")), data)
        })
        .collect()
}

fn segment_range() -> KeyRange {
    KeyRange {
        start: Bytes::from("r"),
        end: Some(Bytes::from("s")),
    }
}

fn check_segment(path: &Path) {
    let loaded = read_segment(path).unwrap();
    assert_eq!(loaded.meta.table, "Jobs");
    assert_eq!(loaded.meta.region_id, 7);
    assert_eq!(loaded.meta.range, segment_range());
    assert_eq!(loaded.meta.row_count, 33);
    assert_eq!(loaded.meta.blocks.len(), 2);
    assert_eq!(loaded.rows, segment_rows());

    let reader = SegmentReader::open(path).unwrap();
    assert_eq!(reader.meta(), &loaded.meta);
    let mut merged = reader.read_block(0).unwrap();
    assert_eq!(merged.len(), 32);
    merged.extend(reader.read_block(1).unwrap());
    assert_eq!(merged, segment_rows());
}

#[test]
fn two_block_segment_bytes_are_pinned() {
    let dir = tmp_dir("segment");
    let path = dir.join("seg-000001-r000007.seg");
    write_segment(&path, "Jobs", 7, &segment_range(), &segment_rows()).unwrap();
    assert_golden("segment", &std::fs::read(&path).unwrap(), SEGMENT_GOLDEN);
    check_segment(&path);

    std::fs::write(&path, unhex(SEGMENT_GOLDEN)).unwrap();
    check_segment(&path);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Totality: every reader × every truncation × every single-bit flip
// ---------------------------------------------------------------------
//
// The pinned images above (plus one encoded profile and one encoded CFG)
// go through their public readers damaged in every way a disk or a crash
// can damage them one step at a time. Nothing may panic, abort, or size
// an allocation by a number the damaged bytes supplied. Where a CRC
// covers the bytes, every mutation must also be *noticed*. Frames are
// then re-sealed around a damaged body with a fresh CRC, so the record
// decoders behind the checksum meet hostile input too.

/// Forwards to the system allocator, remembering the largest single
/// request the current thread made — the only way to see an allocation
/// that was sized by hostile input and then (had it succeeded) freed.
struct PeakAlloc;

thread_local! {
    static PEAK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn note_request(size: usize) {
    // A const-initialised `Cell` has no lazy init and no destructor, so
    // touching it from inside the allocator cannot allocate or recurse.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every method hands its arguments, unchanged, to `System` — the
// caller's obligations under `GlobalAlloc` are exactly `System`'s.
unsafe impl std::alloc::GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        note_request(layout.size());
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Run one reader over `input`, holding its largest allocation to a
/// small multiple of the input (decoded rows cost more than their
/// encoding; a count read off damaged bytes would cost megabytes).
fn measured<T>(input: &[u8], read: impl FnOnce() -> T) -> T {
    PEAK.with(|p| p.set(0));
    let out = read();
    let peak = PEAK.with(std::cell::Cell::get);
    let bound = 64 * input.len() + 4096;
    assert!(
        peak <= bound,
        "a reader of {} input bytes made one allocation of {peak} bytes (bound {bound})",
        input.len()
    );
    out
}

/// What a reader made of one input; anything else it might do — panic,
/// abort, an I/O error — fails the test.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Returned everything the pristine file holds.
    Accepted,
    /// A typed error, or — for an append-only log — fewer frames than the
    /// pristine file holds (a tail dropped and accounted for, or a cut
    /// that fell exactly between two frames).
    Noticed,
}

fn verdict_of<T, E: std::fmt::Display>(r: Result<T, E>, typed: impl Fn(&E) -> bool) -> Verdict {
    match r {
        Ok(_) => Verdict::Accepted,
        Err(e) => {
            assert!(typed(&e), "not the typed corruption error: {e}");
            Verdict::Noticed
        }
    }
}

fn is_corrupt_catalog(e: &cfstore::RecoveryError) -> bool {
    matches!(e, cfstore::RecoveryError::ManifestCorrupt { .. })
}

fn is_corrupt_segment(e: &cfstore::SegmentError) -> bool {
    matches!(e, cfstore::SegmentError::Corrupt { .. })
}

fn read_wal_image(dir: &Path, image: &[u8]) -> Verdict {
    let path = dir.join(WAL_FILE);
    std::fs::write(&path, image).unwrap();
    let scan = measured(image, || read_wal(&path)).expect("a damaged log is not an I/O error");
    assert_eq!(scan.total_bytes, image.len() as u64);
    assert!(scan.valid_bytes <= scan.total_bytes);
    assert_eq!(scan.frames.len(), scan.frame_offsets.len());
    match &scan.truncation {
        None => assert_eq!(scan.valid_bytes, scan.total_bytes),
        Some(t) => assert_eq!(
            t.offset(),
            scan.valid_bytes,
            "the tail drops where it is cut"
        ),
    }
    if scan.frames.len() == 1 {
        Verdict::Accepted
    } else {
        Verdict::Noticed
    }
}

/// The applier behind the reader: reopen a store over the image. A
/// frame the scan keeps is replayed, and a re-sealed one may name a
/// table, region or key range the log never made — refused, typed.
fn replay_wal_image(dir: &Path, image: &[u8]) -> Verdict {
    let dir = dir.join("replay");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(WAL_FILE), image).unwrap();
    match measured(image, || MiniStore::open(&dir)) {
        Ok((_, report)) if report.frames_replayed == 1 => Verdict::Accepted,
        Ok(_) => Verdict::Noticed,
        Err(e) => verdict_of(Err::<(), _>(e), |e| {
            matches!(e, cfstore::RecoveryError::InconsistentLog { .. })
        }),
    }
}

fn read_manifest_image(dir: &Path, image: &[u8]) -> Verdict {
    std::fs::write(dir.join(MANIFEST_FILE), image).unwrap();
    verdict_of(measured(image, || read_manifest(dir)), is_corrupt_catalog)
}

fn read_catalog_image(dir: &Path, image: &[u8]) -> Verdict {
    std::fs::write(dir.join(SHARDS_FILE), image).unwrap();
    verdict_of(measured(image, || read_catalog(dir)), is_corrupt_catalog)
}

fn read_journal_image(dir: &Path, image: &[u8]) -> Verdict {
    std::fs::write(dir.join(TOPOLOGY_FILE), image).unwrap();
    match measured(image, || read_journal(dir)) {
        Ok(scan) => {
            let scan = scan.expect("the file exists");
            assert_eq!(scan.total_bytes, image.len() as u64);
            assert!(scan.valid_bytes <= scan.total_bytes);
            // Whatever sequence survived must resolve or be refused —
            // against the catalog too, as reopen and fsck do.
            let catalog = Catalog {
                topology: Topology::uniform(1, 1),
                epoch: 0,
            };
            let _ = resolve_against_catalog(&catalog, &scan.records);
            if scan.records.len() == 5 {
                Verdict::Accepted
            } else {
                Verdict::Noticed
            }
        }
        Err(e) => verdict_of(Err::<(), _>(e), is_corrupt_catalog),
    }
}

fn read_segment_image(dir: &Path, image: &[u8]) -> Verdict {
    let path = dir.join("damaged.seg");
    std::fs::write(&path, image).unwrap();
    let eager = verdict_of(measured(image, || read_segment(&path)), is_corrupt_segment);
    // The lazy path: whatever opens must read or refuse block by block.
    let lazy = match measured(image, || SegmentReader::open(&path)) {
        Err(e) => verdict_of(Err::<(), _>(e), is_corrupt_segment),
        Ok(reader) => (0..reader.block_count())
            .map(|idx| {
                assert!(reader.block_bytes(idx) <= image.len() as u64);
                verdict_of(
                    measured(image, || reader.read_block(idx)),
                    is_corrupt_segment,
                )
            })
            .find(|v| *v == Verdict::Noticed)
            .unwrap_or(Verdict::Accepted),
    };
    if eager == Verdict::Accepted {
        assert_eq!(lazy, Verdict::Accepted, "eager accepted what lazy refused");
    }
    eager
}

fn read_profile_image(_: &Path, image: &[u8]) -> Verdict {
    verdict_of(measured(image, || decode_profile(image)), |_| true)
}

fn read_cfg_image(_: &Path, image: &[u8]) -> Verdict {
    verdict_of(measured(image, || decode_cfg(image)), |_| true)
}

fn profile_image() -> Vec<u8> {
    let cost_factors = CostFactors {
        read_hdfs_io_cost: 1.0,
        write_hdfs_io_cost: 2.0,
        read_local_io_cost: 3.0,
        write_local_io_cost: 4.0,
        network_cost: 5.0,
        map_cpu_cost: 6.0,
        reduce_cpu_cost: 7.0,
        combine_cpu_cost: 8.0,
    };
    let profile = JobProfile {
        job_id: "wc@text".into(),
        dataset: "text".into(),
        input_bytes: 1e9,
        num_map_tasks: 16,
        map: MapProfile {
            source_job: "wc".into(),
            dataset: "text".into(),
            input_bytes_total: 1e9,
            input_bytes_per_task: 6.4e7,
            input_records_per_task: 1e6,
            avg_input_record_bytes: 64.0,
            avg_intermediate_record_bytes: 12.0,
            size_selectivity: 1.5,
            pairs_selectivity: 9.0,
            combine_size_selectivity: Some(0.1),
            combine_pairs_selectivity: None,
            map_ops_per_record: 20.0,
            combine_ops_per_record: Some(3.0),
            combine_ref_records: None,
            intermediate_key_alpha: Some(1.1),
            cost_factors,
            phase_ms: vec![(MapPhase::Read, 10.0), (MapPhase::Spill, 2.5)],
            tasks_observed: 16,
        },
        reduce: Some(ReduceProfile {
            source_job: "wc".into(),
            dataset: "text".into(),
            in_records: 1e5,
            in_bytes: 1e6,
            out_records: 1e4,
            out_bytes: 1e5,
            size_selectivity: 0.1,
            pairs_selectivity: 0.1,
            reduce_ops_per_record: 5.0,
            cost_factors,
            phase_ms: vec![(ReducePhase::Shuffle, 4.0), (ReducePhase::Write, 1.0)],
            tasks_observed: 4,
        }),
        confidence: 1.0,
    };
    let image = encode_profile(&profile);
    assert_eq!(decode_profile(&image).unwrap(), profile);
    image.to_vec()
}

fn cfg_image() -> Vec<u8> {
    let node = |kind, succ: &[usize]| Node {
        kind,
        succ: succ.to_vec(),
    };
    let cfg = Cfg::from_parts(
        vec![
            node(NodeKind::Entry, &[1]),
            node(NodeKind::LoopHeader, &[2, 4]),
            node(NodeKind::Branch, &[3, 1]),
            node(NodeKind::Basic { emits: true }, &[1]),
            node(NodeKind::Exit, &[]),
        ],
        4,
        1,
    )
    .unwrap();
    let image = encode_cfg(&cfg);
    assert!(decode_cfg(&image).unwrap().matches(&cfg));
    image.to_vec()
}

/// One damaged copy per truncated prefix and per flipped bit.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let prefixes = (0..bytes.len()).map(|n| bytes[..n].to_vec());
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut m = bytes.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        m
    });
    prefixes.chain(flips)
}

struct Case {
    name: &'static str,
    image: Vec<u8>,
    read: fn(&Path, &[u8]) -> Verdict,
    /// Where the back-to-back frames start (`None`: no CRC at this
    /// layer — a stored cell carries its own, checked by the store).
    first_frame: Option<usize>,
}

#[test]
fn every_reader_is_total_on_truncated_and_bit_flipped_files() {
    let framed = |name, golden: &str, read, first_frame| Case {
        name,
        image: unhex(golden),
        read,
        first_frame: Some(first_frame),
    };
    let cases = [
        framed("wal.log", WAL_GOLDEN, read_wal_image, 0),
        framed("wal.log replayed", WAL_GOLDEN, replay_wal_image, 0),
        framed("MANIFEST", MANIFEST_GOLDEN, read_manifest_image, 4),
        framed("SHARDS v1", SHARDS_V1_GOLDEN, read_catalog_image, 4),
        framed("SHARDS v2", SHARDS_V2_GOLDEN, read_catalog_image, 4),
        framed("TOPOLOGY", TOPOLOGY_GOLDEN, read_journal_image, 4),
        framed("segment", SEGMENT_GOLDEN, read_segment_image, 4),
        Case {
            name: "profile cell",
            image: profile_image(),
            read: read_profile_image,
            first_frame: None,
        },
        Case {
            name: "cfg cell",
            image: cfg_image(),
            read: read_cfg_image,
            first_frame: None,
        },
    ];
    let dir = tmp_dir("totality");
    for case in &cases {
        let Case {
            name, image, read, ..
        } = case;
        assert_eq!(read(&dir, image), Verdict::Accepted, "{name}: pristine");
        let mut noticed = 0;
        for damaged in mutations(image) {
            match read(&dir, &damaged) {
                Verdict::Noticed => noticed += 1,
                Verdict::Accepted => assert!(
                    case.first_frame.is_none(),
                    "{name}: a CRC-covered file hid damage: {}",
                    hex(&damaged)
                ),
            }
        }
        assert!(noticed > 0, "{name}: no mutation was ever refused");

        // Behind the CRC: damage each frame's body, re-seal it.
        let Some(mut at) = case.first_frame else {
            continue;
        };
        let mut frames = 0;
        while let Ok(body) = cfstore::frame::verify(&image[at..]) {
            let after = at + cfstore::frame::HEADER_LEN + body.len();
            for damaged_body in mutations(body) {
                let mut resealed = image[..at].to_vec();
                cfstore::frame::encode(&mut resealed, |b| b.extend_from_slice(&damaged_body));
                resealed.extend_from_slice(&image[after..]);
                read(&dir, &resealed);
            }
            frames += 1;
            at = after;
        }
        assert!(frames > 0, "{name}: found no frame to re-seal");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The abort this used to be: a frame that passes its CRC and then
/// claims `u32::MAX` records made `read_wal` reserve for all of them.
#[test]
fn a_sealed_wal_frame_claiming_four_billion_records_is_a_bad_record() {
    let dir = tmp_dir("hostile-count");
    let mut image = unhex(WAL_GOLDEN);
    let intact = image.len() as u64;
    cfstore::frame::encode(&mut image, |b| {
        b.extend_from_slice(&2048u64.to_be_bytes());
        b.extend_from_slice(&u32::MAX.to_be_bytes());
    });
    std::fs::write(dir.join(WAL_FILE), &image).unwrap();
    let scan = measured(&image, || read_wal(&dir.join(WAL_FILE))).unwrap();
    assert_eq!(scan.frames.len(), 1, "the frame before it still replays");
    assert_eq!(scan.valid_bytes, intact);
    assert!(
        matches!(scan.truncation, Some(WalTruncation::BadRecord { offset, .. }) if offset == intact),
        "{:?}",
        scan.truncation
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A log no writer of ours produces — every frame intact, some record
/// naming what the store never held — is refused by the applier with a
/// typed error that says which, on a reopen as it would be live.
#[test]
fn an_inconsistent_log_is_a_typed_refusal_not_a_panic() {
    let create = WalRecord::CreateTable {
        name: "t".into(),
        families: vec!["f".into()],
        split_threshold: 256,
        root_region_id: 1,
    };
    let split = |table: &str, parent_id, split_key: &'static str| WalRecord::RegionSplit {
        table: table.into(),
        parent_id,
        new_id: parent_id + 1,
        split_key: Bytes::from(split_key),
    };
    let put = WalRecord::Put {
        table: "ghost".into(),
        row: Bytes::from("row1"),
        family: "f".into(),
        column: Bytes::from("c"),
        value: Bytes::from("v"),
        timestamp: 7,
    };
    let delete = WalRecord::DeleteRow {
        table: "ghost".into(),
        row: Bytes::from("row0"),
    };
    let unknown_table = "record references unknown table `ghost`";
    let cases: [(Vec<WalRecord>, &str); 5] = [
        (vec![create.clone(), put], unknown_table),
        (vec![create.clone(), delete], unknown_table),
        (vec![create.clone(), split("ghost", 1, "m")], unknown_table),
        (
            vec![create.clone(), split("t", 9, "m")],
            "split of unknown region 9 in `t`",
        ),
        (
            vec![create, split("t", 1, "m"), split("t", 1, "q")],
            "split key outside region 1 of `t`",
        ),
    ];
    for (records, want) in cases {
        let dir = tmp_dir("inconsistent");
        let path = dir.join(WAL_FILE);
        let mut w =
            WalWriter::open(&path, 0, 1, SyncPolicy::EveryOp, CrashSpec::default()).unwrap();
        for record in &records {
            w.append(std::slice::from_ref(record)).unwrap();
        }
        drop(w);
        match MiniStore::open(&dir) {
            Err(cfstore::RecoveryError::InconsistentLog { detail }) => assert_eq!(detail, want),
            Err(e) => panic!("{records:?}: not the typed refusal: {e}"),
            Ok(_) => panic!("{records:?}: an inconsistent log opened"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Ids and timestamps at the top of their range are not the applier's
    // to overflow on either.
    let dir = tmp_dir("saturating");
    let mut w = WalWriter::open(
        &dir.join(WAL_FILE),
        0,
        1,
        SyncPolicy::EveryOp,
        CrashSpec::default(),
    )
    .unwrap();
    let records = [
        WalRecord::CreateTable {
            name: "t".into(),
            families: vec!["f".into()],
            split_threshold: 256,
            root_region_id: u64::MAX,
        },
        WalRecord::Put {
            table: "t".into(),
            row: Bytes::from("row1"),
            family: "f".into(),
            column: Bytes::from("c"),
            value: Bytes::from("v"),
            timestamp: u64::MAX,
        },
    ];
    w.append(&records).unwrap();
    drop(w);
    let (store, report) = MiniStore::open(&dir).unwrap();
    assert_eq!(report.records_replayed, 2);
    assert_eq!(store.meta_entries()[0].region_id, u64::MAX);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
