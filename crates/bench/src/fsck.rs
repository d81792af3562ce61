//! The `store_fsck` scrub engine, as a library so the crash-safety
//! property tests can assert exit codes in-process (the `store_fsck`
//! binary is a thin argv wrapper around [`run`]).
//!
//! Exit status contract (documented in OPERATIONS.md):
//!
//! * `0` — clean: nothing a `--repair` run would change. A resharding
//!   migration paused at any journal-resolvable point is *clean*: the
//!   `TOPOLOGY` journal explains every extra shard directory.
//! * `1` — unrecoverable: corrupt manifest or corrupt referenced
//!   segment in a single store (in a sharded store `--repair` mends
//!   those from the shard's replicas), or a sharded `--repair` whose
//!   recovery, resumed reshard or scrub failed.
//! * `2` — usage error (the binary's argv layer).
//! * `3` — corruption detected and `--repair` not given: torn WAL
//!   tail, cell checksum mismatch, lost shard (directory missing,
//!   manifest or segment corrupt, or empty among non-empty peers), an
//!   uncommitted cross-shard batch, a torn or never-begun `TOPOLOGY`
//!   journal, a shard directory nothing explains, or a `TOPOLOGY`
//!   journal that cannot be resolved against the catalog (a torn
//!   cutover no crash of the writer could produce).
//!
//! For a sharded store the verdict is [`ShardedStore::recovery_plan`] —
//! the very plan a reopen executes — plus this module's own deep scrub
//! of every live shard, which reads further than a lazy open does (every
//! block, every retained cell version).

use cfstore::kv::first_bad_version;
use cfstore::recovery::{account_wal, read_manifest, RecoveryReport};
use cfstore::segment::{read_segment, SegmentError};
use cfstore::shard::resharding::{read_catalog, Catalog};
use cfstore::shard::{Probe, SHARDS_FILE};
use cfstore::{MiniStore, ShardOptions, ShardedStore};
use std::path::Path;

/// What one directory scrub concluded.
struct Scrub {
    report: RecoveryReport,
    /// Anything a `--repair` run would change or heal: torn WAL tail,
    /// cell-level checksum mismatch, lost shard.
    corruption: Vec<String>,
}

fn scrub(dir: &Path, label: &str) -> Result<Scrub, String> {
    let mut report = RecoveryReport::default();
    let mut corruption = Vec::new();

    // 1. The manifest: which segments and flush mark do we trust?
    let manifest = match read_manifest(dir) {
        Ok(m) => m,
        Err(e) => return Err(format!("manifest: {e}")),
    };
    match &manifest {
        Some(m) => println!(
            "{label}manifest            : generation {}, flushed_lsn {}, {} table(s), {} segment(s)",
            m.generation,
            m.flushed_lsn,
            m.tables.len(),
            m.segments.len()
        ),
        None => println!("{label}manifest            : none (store never flushed)"),
    }
    let manifest = manifest.unwrap_or_default();

    // 2. Every trusted segment must verify end to end: its trailer, every
    // block's CRC and decode through the reader a lazy read uses
    // (`read_segment`), then, in a deep pass over the rows that one read
    // returned, every retained cell version against its write-time CRC
    // (`first_bad_version`), catching corruption introduced *before* the
    // block frame was written.
    for name in &manifest.segments {
        let path = dir.join(name);
        let segment = read_segment(&path).map_err(|e| format!("segment {name}: {e}"))?;
        let deep = match first_bad_version(&segment.rows) {
            None => "cells ok",
            Some((row, column, ts)) => {
                let detail = format!(
                    "cell checksum mismatch at row {:?} column {:?} ts {ts}",
                    String::from_utf8_lossy(row),
                    String::from_utf8_lossy(column)
                );
                let e = SegmentError::Corrupt {
                    file: name.clone(),
                    detail,
                };
                corruption.push(format!("segment {name}: {e}"));
                "CELL CORRUPTION"
            }
        };
        let meta = &segment.meta;
        println!(
            "{label}segment {name}: {deep} — table {}, region {}, {} row(s), {} block(s)",
            meta.table,
            meta.region_id,
            meta.row_count,
            meta.blocks.len()
        );
        report.segments_loaded += 1;
        report.segment_rows += meta.row_count;
        report.segment_blocks += meta.blocks.len() as u64;
        report.segment_blocks_read += meta.blocks.len() as u64;
    }

    // 3. Orphans and the WAL tail, counted as a reopen counts them: an
    // orphan is a crashed flush's leftover (not a finding: the WAL still
    // covers its contents); a torn tail is a finding.
    account_wal(dir, &manifest, &mut report).map_err(|e| format!("wal: {e}"))?;
    if let Some(t) = &report.truncation {
        corruption.push(format!(
            "wal: torn tail ({t}; {} byte(s) to truncate)",
            report.wal_bytes_dropped
        ));
    }

    Ok(Scrub { report, corruption })
}

/// Scrub a single-store directory; with `--repair`, run real recovery.
fn run_single(dir: &Path, repair: bool) -> u8 {
    let scrubbed = match scrub(dir, "") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("store_fsck: unrecoverable: {e}");
            return 1;
        }
    };
    print!("{}", scrubbed.report.render_text());

    if repair {
        // Real recovery: replays the WAL and truncates the torn tail.
        match MiniStore::open(dir) {
            Ok((store, rep)) => {
                println!("--- repair (recovery) ---");
                print!("{}", rep.render_text());
                for entry in store.meta_entries() {
                    println!("{entry:?}");
                }
            }
            Err(e) => {
                eprintln!("store_fsck: recovery failed: {e}");
                return 1;
            }
        }
        return 0;
    }
    verdict(&scrubbed.corruption)
}

/// Scrub a sharded store directory: print the recovery plan, deep-scrub
/// every shard the plan keeps; with `--repair`, run shard-aware recovery
/// (rebuilds lost shards, aborts uncommitted cross-shard batches,
/// resumes or resolves a resharding migration), then
/// [`ShardedStore::scrub`] (repairs a rotted block from its replicas).
fn run_sharded(dir: &Path, catalog: &Catalog, repair: bool) -> u8 {
    println!(
        "sharded store       : {} shard(s), replication {}, epoch {}{}",
        catalog.topology.shards,
        catalog.topology.replication,
        catalog.epoch,
        if catalog.topology.overrides.is_empty() {
            String::new()
        } else {
            format!(", {} slot override(s)", catalog.topology.overrides.len())
        }
    );
    let mut corruption: Vec<String> = Vec::new();
    match ShardedStore::recovery_plan(dir, &ShardOptions::default()) {
        Ok(plan) => {
            for (finding, line) in plan.lines() {
                println!("recovery plan       : {line}");
                if finding {
                    corruption.push(line);
                }
            }
            let mut total = RecoveryReport::default();
            for (g, probe) in plan.probes.iter().enumerate() {
                if !matches!(probe, Probe::Alive(_)) || plan.lost.contains_key(&(g as u32)) {
                    continue;
                }
                let shard_dir = dir.join(format!("shard-{g:03}"));
                println!("-- shard {g} ({}) --", shard_dir.display());
                match scrub(&shard_dir, "  ") {
                    Ok(s) => {
                        total.merge(&s.report);
                        corruption
                            .extend(s.corruption.into_iter().map(|c| format!("shard {g}: {c}")));
                    }
                    // Unrecoverable for a single store; a sharded
                    // `--repair` mends the shard from its replicas (the
                    // reopen rebuilds one it cannot open, the scrub after
                    // it repairs a rotted block).
                    Err(e) => corruption.push(format!("shard {g}: {e}")),
                }
            }
            println!("---- aggregate across shards ----");
            print!("{}", total.render_text());
        }
        // An unresolvable TOPOLOGY/SHARDS disagreement: recovery refuses
        // this directory too. Without --repair that is the strongest
        // finding fsck can make.
        Err(e) => corruption.push(format!("unresolvable: {e}")),
    }

    if repair {
        match ShardedStore::open(dir, ShardOptions::default(), obs::Registry::disabled()) {
            Ok((store, rep)) => {
                println!("--- repair (shard-aware recovery) ---");
                print!("{}", rep.render_text());
                if rep.reshard_in_flight.is_some() {
                    match store.resume_reshard() {
                        Ok(Some(status)) => {
                            println!("reshard resumed      : epoch {} complete", status.epoch)
                        }
                        Ok(None) => {}
                        Err(e) => {
                            eprintln!("store_fsck: reshard resume failed: {e}");
                            return 1;
                        }
                    }
                }
                // A reopen reads lazily: rot in a block it never read
                // is found and repaired by walking every stored row.
                match store.scrub() {
                    Ok(rows) => println!("scrub               : {rows} row(s) repaired"),
                    Err(e) => {
                        eprintln!("store_fsck: scrub failed: {e}");
                        return 1;
                    }
                }
                for (shard, entry) in &store.meta_entries() {
                    println!("shard {shard}: {entry:?}");
                }
            }
            Err(e) => {
                eprintln!("store_fsck: sharded recovery failed: {e}");
                return 1;
            }
        }
        return 0;
    }
    verdict(&corruption)
}

fn verdict(corruption: &[String]) -> u8 {
    if corruption.is_empty() {
        println!("verdict             : clean");
        0
    } else {
        println!(
            "verdict             : {} corruption finding(s); rerun with --repair",
            corruption.len()
        );
        for c in corruption {
            eprintln!("store_fsck: corruption: {c}");
        }
        3
    }
}

/// Scrub `dir` (single or sharded, auto-detected from the `SHARDS`
/// catalog) and return the process exit code documented in the module
/// docs. `repair` additionally runs real recovery, mutating the
/// directory the way a daemon restart would.
pub fn run(dir: &Path, repair: bool) -> u8 {
    println!("scrubbing {}", dir.display());
    match read_catalog(dir) {
        Ok(Some(catalog)) => run_sharded(dir, &catalog, repair),
        Ok(None) => run_single(dir, repair),
        Err(e) => {
            eprintln!("store_fsck: {SHARDS_FILE} catalog: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfstore::Put;

    /// A cell corrupted in memory, then superseded by a newer write and
    /// flushed, reads fine; the deep pass still finds the older version.
    #[test]
    fn a_superseded_corrupt_version_is_a_finding() {
        let dir =
            std::env::temp_dir().join(format!("pstorm-fsck-superseded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = MiniStore::open(&dir).unwrap();
        store.create_table("t", &["f"]).unwrap();
        store.put("t", Put::new("r", "f", "c", "old")).unwrap();
        assert!(store.corrupt_cell("t", b"r", "f", b"c").unwrap());
        store.put("t", Put::new("r", "f", "c", "new")).unwrap();
        store.flush().unwrap();
        assert!(
            store.get("t", b"r").unwrap().is_some(),
            "the latest version reads"
        );
        drop(store);
        assert_eq!(run(&dir, false), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
