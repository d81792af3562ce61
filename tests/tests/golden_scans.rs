//! Golden scan transcripts: what a filtered and an unfiltered scan return
//! and count, pinned by value.
//!
//! Each case drives one fixed workload through the public API and records,
//! for a scan with no filter and for one with a conjunction of a row-prefix
//! and a column-value filter:
//!
//! * the rows returned: how many, the first and last key, and a digest of
//!   every cell (row, family, column, timestamp, value, checksum);
//! * every field of the `ScanMetrics`;
//! * the `cfstore.{scans, rows_scanned, rows_returned, cells_verified}`
//!   counters, and every region's `rows_scanned` / `rows_returned`.
//!
//! The cases: a single store over several regions, some segment-backed
//! and some written since the reopen; a 3 × R2 sharded store whose primary
//! copy of a row rotted, so that the scan fails over and a scrub after it
//! repairs the copy; and a 3 × R2 sharded
//! store whose crashed shard holds a rotted row, so that its slots are
//! read from their next replica, for each shard as the victim.
//!
//! A diff in these literals means a scan read, filtered, returned or
//! counted a row differently. They are never regenerated for a refactor.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use cfstore::{
    CompareOp, CrashSpec, FilterList, MiniStore, Put, RowPrefixFilter, RowResult, Scan,
    ScanMetrics, ShardOptions, ShardedStore, SingleColumnValueFilter, StoreError, StoreOptions,
};
use pstorm_tests::{fnv, FNV_BASIS};

const TABLE: &str = "t";

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("golden-scans-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Row `i`'s cells: `f:a` on three rows of four, of varying length; `f:b`
/// on every row; `g:c` on odd rows.
fn puts(i: u32) -> Vec<Put> {
    let row = format!("k{i:03}");
    let mut puts = vec![Put::new(
        row.clone(),
        "f",
        "b",
        "x".repeat(1 + i as usize % 5),
    )];
    if i % 4 != 3 {
        puts.push(Put::new(row.clone(), "f", "a", format!("v{}", i * 7 % 23)));
    }
    if i % 2 == 1 {
        puts.push(Put::new(row.clone(), "g", "c", format!("{}", i * i)));
    }
    puts
}

/// The filtered scan: rows `k0..` whose `f:a` is at least `v2`.
fn filtered() -> Scan {
    Scan::all().with_filter(Box::new(FilterList {
        filters: vec![
            Box::new(RowPrefixFilter {
                prefix: Bytes::from("k0"),
            }),
            Box::new(SingleColumnValueFilter {
                family: "f".to_string(),
                column: Bytes::from("a"),
                op: CompareOp::GreaterOrEqual,
                value: Bytes::from("v2"),
            }),
        ],
    }))
}

/// One scan's transcript: rows, metrics, read counters.
fn transcript(
    result: Result<(Vec<RowResult>, ScanMetrics), StoreError>,
    reg: &obs::Registry,
) -> String {
    let (rows, metrics) = match result {
        Ok(scanned) => scanned,
        Err(e) => return format!("error: {e}\n"),
    };
    let mut digest = FNV_BASIS;
    for row in &rows {
        fnv(&mut digest, &row.row);
        for (family, columns) in &row.families {
            for (column, cell) in columns {
                fnv(&mut digest, family.as_bytes());
                fnv(&mut digest, column);
                fnv(&mut digest, &cell.timestamp.to_le_bytes());
                fnv(&mut digest, &cell.value);
                fnv(&mut digest, &cell.checksum.to_le_bytes());
            }
        }
    }
    let key = |row: Option<&RowResult>| {
        row.map_or(String::new(), |r| {
            String::from_utf8_lossy(&r.row).into_owned()
        })
    };
    let mut out = format!(
        "rows={} first={} last={} digest={digest:016x}\n{metrics:?}\n",
        rows.len(),
        key(rows.first()),
        key(rows.last()),
    );
    let counters = reg.snapshot().counters;
    let mut regions: BTreeMap<u64, [u64; 2]> = BTreeMap::new();
    for (name, n) in &counters {
        let Some(rest) = name.strip_prefix("cfstore.region.") else {
            if ["scans", "rows_scanned", "rows_returned", "cells_verified"]
                .iter()
                .any(|c| name.strip_prefix("cfstore.") == Some(c))
            {
                out.push_str(&format!("{name}={n}\n"));
            }
            continue;
        };
        let Some((id, counter)) = rest.split_once('.') else {
            continue;
        };
        let Ok(id) = id.parse() else { continue };
        match counter {
            "rows_scanned" => regions.entry(id).or_default()[0] = *n,
            "rows_returned" => regions.entry(id).or_default()[1] = *n,
            _ => {}
        }
    }
    out.push_str("regions scanned/returned:");
    for (id, [scanned, returned]) in regions {
        out.push_str(&format!(" {id}={scanned}/{returned}"));
    }
    out.push('\n');
    out
}

/// Each of `got` against its `want`, every actual transcript printed when
/// any differs.
fn assert_transcripts(got: &[String], want: &[&str]) {
    if got.len() != want.len() || got.iter().zip(want).any(|(g, w)| g != w) {
        panic!(
            "the scans moved; actual transcripts:\n{}",
            got.join("----\n")
        );
    }
}

/// A store of 80 rows in regions of at most 16, flushed and reopened
/// segment-backed, then written to: two rows overwritten, one deleted and
/// eight added, so that the regions they fall in are read from the
/// memstore and the others from their segments.
#[test]
fn a_single_store_of_segment_backed_and_written_regions() {
    let dir = fresh_dir("single");
    let opts = || StoreOptions {
        block_cache_bytes: 1 << 10,
        ..StoreOptions::default()
    };
    {
        let (store, _) = MiniStore::open_with_opts(&dir, opts()).unwrap();
        store
            .create_table_with_threshold(TABLE, &["f", "g"], 16)
            .unwrap();
        for i in 0..80 {
            store.put_batch(TABLE, puts(i)).unwrap();
        }
        store.flush().unwrap();
    }
    let (mut store, _) = MiniStore::open_with_opts(&dir, opts()).unwrap();
    assert!(store.region_count(TABLE).unwrap() >= 5);
    store.put(TABLE, Put::new("k012", "f", "a", "v9")).unwrap();
    store.put(TABLE, Put::new("k013", "f", "a", "v0")).unwrap();
    assert!(store.delete_row(TABLE, b"k014").unwrap());
    for i in 100..108 {
        store.put_batch(TABLE, puts(i)).unwrap();
    }
    let mut got = Vec::new();
    for scan in [Scan::all(), filtered()] {
        let reg = obs::Registry::new();
        store.set_obs(reg.clone());
        got.push(transcript(store.scan(TABLE, &scan), &reg));
    }
    assert_transcripts(
        &got,
        &[
            "rows=87 first=k000 last=k107 digest=fb5d0ff659b3a1cc\n\
             ScanMetrics { regions_visited: 9, rows_scanned: 87, cells_scanned: 196, rows_returned: 87, bytes_returned: 579 }\n\
             cfstore.cells_verified=196\n\
             cfstore.rows_returned=87\n\
             cfstore.rows_scanned=87\n\
             cfstore.scans=1\n\
             regions scanned/returned: 1=8/8 2=7/7 3=8/8 4=8/8 5=8/8 6=8/8 7=8/8 8=8/8 9=24/24\n",
            "rows=26 first=k001 last=k076 digest=c11dc9410ef4c4a3\n\
             ScanMetrics { regions_visited: 9, rows_scanned: 87, cells_scanned: 196, rows_returned: 26, bytes_returned: 156 }\n\
             cfstore.cells_verified=196\n\
             cfstore.rows_returned=26\n\
             cfstore.rows_scanned=87\n\
             cfstore.scans=1\n\
             regions scanned/returned: 1=8/2 2=7/1 3=8/4 4=8/3 5=8/3 6=8/2 7=8/3 8=8/3 9=24/5\n",
        ],
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flushed 3 × R2 sharded store of 80 rows, reopened traced into `reg`,
/// with `crash_shard` armed.
fn sharded(dir: &Path, crash_shard: Option<(u32, CrashSpec)>, reg: &obs::Registry) -> ShardedStore {
    let opts = || ShardOptions {
        block_cache_bytes: 1 << 10,
        ..ShardOptions::default()
    };
    if !dir.exists() {
        let (store, _) = ShardedStore::open(dir, opts(), obs::Registry::disabled()).unwrap();
        store
            .create_table_with_threshold(TABLE, &["f", "g"], 16)
            .unwrap();
        for i in 0..80 {
            store.put_batch(TABLE, puts(i)).unwrap();
        }
        store.flush().unwrap();
    }
    let opts = ShardOptions {
        crash_shard,
        ..opts()
    };
    let (mut store, _) = ShardedStore::open(dir, opts, obs::Registry::disabled()).unwrap();
    store.set_obs(reg.clone());
    store
}

/// A rotted cell on a row's primary replica: the scan's read of that shard
/// fails its checksum, and the shard's slots are read from their next
/// replica, as when the shard cannot be repaired (the victim-1 transcripts
/// of the next test); a scrub then repairs the shard's copy of the table
/// from its peers. Each scan runs on a store of its own, so each repairs.
#[test]
fn a_sharded_store_whose_rotted_primary_heals() {
    let mut got = Vec::new();
    for (tag, scan) in [("unfiltered", Scan::all()), ("filtered", filtered())] {
        let dir = fresh_dir(&format!("heal-{tag}"));
        let reg = obs::Registry::new();
        let store = sharded(&dir, None, &reg);
        assert!(store.corrupt_cell(TABLE, b"k007", "f", b"b").unwrap());
        let primary = store.topology().replicas_of_row(b"k007")[0];
        let mut scanned = transcript(store.scan(TABLE, &scan), &reg);
        let repairs = || {
            let counters = reg.snapshot().counters;
            counters.get("cfstore.shard.heal.repairs").copied()
        };
        scanned.push_str(&format!("primary={primary} repairs={:?}\n", repairs()));
        store.scrub().unwrap();
        scanned.push_str(&format!("scrubbed: repairs={:?}\n", repairs()));
        got.push(scanned);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_transcripts(
        &got,
        &[
            "rows=80 first=k000 last=k079 digest=4ae6b96d17d600c4\n\
             ScanMetrics { regions_visited: 12, rows_scanned: 108, cells_scanned: 241, rows_returned: 80, bytes_returned: 531 }\n\
             cfstore.cells_verified=361\n\
             cfstore.rows_returned=162\n\
             cfstore.rows_scanned=162\n\
             cfstore.scans=3\n\
             regions scanned/returned: 1=24/24 2=24/24 3=24/24 4=24/24 5=24/24 6=42/42\n\
             primary=1 repairs=None\n\
             scrubbed: repairs=Some(1)\n",
            "rows=27 first=k001 last=k076 digest=8df6b3f789332efd\n\
             ScanMetrics { regions_visited: 12, rows_scanned: 108, cells_scanned: 241, rows_returned: 27, bytes_returned: 168 }\n\
             cfstore.cells_verified=361\n\
             cfstore.rows_returned=56\n\
             cfstore.rows_scanned=162\n\
             cfstore.scans=3\n\
             regions scanned/returned: 1=24/6 2=24/11 3=24/8 4=24/8 5=24/9 6=42/14\n\
             primary=1 repairs=None\n\
             scrubbed: repairs=Some(1)\n",
        ],
    );
}

/// A crashed shard cannot flush, so its heal cannot complete: it stays
/// corrupt, and every slot it serves is read from the slot's next replica.
/// Each shard in turn is the victim. A scan reads the fewest shards that
/// serve every slot (DESIGN.md §49), shards 0 and 1 here: victims 0 and 1
/// meet their rot and fail over, and victim 2 is never read, so its rot
/// stays for a walk of that shard alone to meet (the walk `scrub` makes,
/// which cannot repair a crashed store).
#[test]
fn a_sharded_store_whose_crashed_rotted_shard_fails_over() {
    let mut got = Vec::new();
    for victim in 0..3 {
        for (tag, scan) in [("unfiltered", Scan::all()), ("filtered", filtered())] {
            let dir = fresh_dir(&format!("failover-{victim}-{tag}"));
            sharded(&dir, None, &obs::Registry::disabled());
            let reg = obs::Registry::new();
            let crash = Some((victim, CrashSpec::after_wal_bytes(0)));
            let store = sharded(&dir, crash, &reg);
            let row = (0..80)
                .map(|i| format!("k{i:03}"))
                .find(|row| store.topology().replicas_of_row(row.as_bytes())[0] == victim)
                .unwrap();
            let put = Put::new(row.clone(), "f", "z", "crashes");
            assert!(store.put(TABLE, put).is_err(), "the put crashes");
            assert!(store.is_crashed());
            assert!(store
                .corrupt_cell(TABLE, row.as_bytes(), "f", b"b")
                .unwrap());
            let scanned = transcript(store.scan(TABLE, &scan), &reg);
            got.push(format!("victim {victim} ({row}), {tag}:\n{scanned}"));
            let met = reg
                .snapshot()
                .counters
                .get(&format!("cfstore.shard.{victim}.heal.reads"))
                .copied();
            assert_eq!(met, (victim != 2).then_some(1), "victim {victim}");
            let walked = store.shard_scan(victim, TABLE, &Scan::all());
            assert!(matches!(walked, Err(StoreError::Corruption { .. })));
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    assert_transcripts(
        &got,
        &[
            "victim 0 (k003), unfiltered:\n\
             rows=80 first=k000 last=k079 digest=4ae6b96d17d600c4\n\
             ScanMetrics { regions_visited: 12, rows_scanned: 106, cells_scanned: 240, rows_returned: 80, bytes_returned: 531 }\n\
             cfstore.cells_verified=240\n\
             cfstore.rows_returned=106\n\
             cfstore.rows_scanned=106\n\
             cfstore.scans=2\n\
             regions scanned/returned: 1=16/16 2=16/16 3=16/16 4=16/16 5=16/16 6=26/26\n",
            "victim 0 (k003), filtered:\n\
             rows=27 first=k001 last=k076 digest=8df6b3f789332efd\n\
             ScanMetrics { regions_visited: 12, rows_scanned: 106, cells_scanned: 240, rows_returned: 27, bytes_returned: 168 }\n\
             cfstore.cells_verified=240\n\
             cfstore.rows_returned=37\n\
             cfstore.rows_scanned=106\n\
             cfstore.scans=2\n\
             regions scanned/returned: 1=16/3 2=16/9 3=16/7 4=16/3 5=16/5 6=26/10\n",
            "victim 1 (k000), unfiltered:\n\
             rows=80 first=k000 last=k079 digest=4ae6b96d17d600c4\n\
             ScanMetrics { regions_visited: 12, rows_scanned: 108, cells_scanned: 241, rows_returned: 80, bytes_returned: 531 }\n\
             cfstore.cells_verified=361\n\
             cfstore.rows_returned=162\n\
             cfstore.rows_scanned=162\n\
             cfstore.scans=3\n\
             regions scanned/returned: 1=24/24 2=24/24 3=24/24 4=24/24 5=24/24 6=42/42\n",
            "victim 1 (k000), filtered:\n\
             rows=27 first=k001 last=k076 digest=8df6b3f789332efd\n\
             ScanMetrics { regions_visited: 12, rows_scanned: 108, cells_scanned: 241, rows_returned: 27, bytes_returned: 168 }\n\
             cfstore.cells_verified=361\n\
             cfstore.rows_returned=56\n\
             cfstore.rows_scanned=162\n\
             cfstore.scans=3\n\
             regions scanned/returned: 1=24/6 2=24/11 3=24/8 4=24/8 5=24/9 6=42/14\n",
            "victim 2 (k001), unfiltered:\n\
             rows=80 first=k000 last=k079 digest=4ae6b96d17d600c4\n\
             ScanMetrics { regions_visited: 12, rows_scanned: 106, cells_scanned: 239, rows_returned: 80, bytes_returned: 531 }\n\
             cfstore.cells_verified=239\n\
             cfstore.rows_returned=106\n\
             cfstore.rows_scanned=106\n\
             cfstore.scans=2\n\
             regions scanned/returned: 1=16/16 2=16/16 3=16/16 4=16/16 5=16/16 6=26/26\n",
            "victim 2 (k001), filtered:\n\
             rows=27 first=k001 last=k076 digest=8df6b3f789332efd\n\
             ScanMetrics { regions_visited: 12, rows_scanned: 106, cells_scanned: 239, rows_returned: 27, bytes_returned: 168 }\n\
             cfstore.cells_verified=239\n\
             cfstore.rows_returned=32\n\
             cfstore.rows_scanned=106\n\
             cfstore.scans=2\n\
             regions scanned/returned: 1=16/3 2=16/7 3=16/5 4=16/4 5=16/5 6=26/8\n",
        ],
    );
}
