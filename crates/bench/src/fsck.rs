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
//!   segment in a single store (in a sharded store those make the
//!   shard *lost*, which `--repair` heals from its replicas).
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

use cfstore::recovery::{read_manifest, RecoveryReport};
use cfstore::segment::verify_segment_deep;
use cfstore::shard::resharding::{read_catalog, Catalog};
use cfstore::shard::{Probe, SHARDS_FILE};
use cfstore::{BlockCache, MiniStore, SegmentReader, ShardOptions, ShardedStore};
use std::path::Path;
use std::sync::Arc;

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
    let (flushed_lsn, trusted): (u64, Vec<String>) = match &manifest {
        Some(m) => {
            println!(
                "{label}manifest            : generation {}, flushed_lsn {}, {} table(s), {} segment(s)",
                m.generation,
                m.flushed_lsn,
                m.tables.len(),
                m.segments.len()
            );
            (m.flushed_lsn, m.segments.clone())
        }
        None => {
            println!("{label}manifest            : none (store never flushed)");
            (0, Vec::new())
        }
    };

    // 2. Every trusted segment must verify end to end. The scrub goes
    // through the exact production read path: open lazily (header +
    // trailer CRC only), then fetch every block body via the bounded
    // block cache — cold pass fills and CRC-verifies each block, warm
    // pass must be served entirely from cache. A deep pass then checks
    // every retained cell version against its write-time CRC, catching
    // corruption introduced *before* the block frame was written.
    let cache = Arc::new(BlockCache::new(8 << 20));
    let obs = obs::Registry::new();
    cache.set_obs(obs.clone());
    for name in &trusted {
        let reader = match SegmentReader::open(&dir.join(name)) {
            Ok(r) => Arc::new(r),
            Err(e) => return Err(format!("segment {name}: {e}")),
        };
        let meta = reader.meta().clone();
        for pass in ["cold", "warm"] {
            let mut rows = 0u64;
            for idx in 0..reader.block_count() {
                match cache.get_or_load(&reader, idx) {
                    Ok(block) => rows += block.len() as u64,
                    Err(e) => return Err(format!("segment {name} block {idx} ({pass}): {e}")),
                }
            }
            if rows != meta.row_count {
                return Err(format!(
                    "segment {name} ({pass}): trailer says {} row(s), blocks hold {rows}",
                    meta.row_count
                ));
            }
        }
        let deep = match verify_segment_deep(&dir.join(name)) {
            Ok(_) => "cells ok",
            Err(e) => {
                corruption.push(format!("segment {name}: {e}"));
                "CELL CORRUPTION"
            }
        };
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
    if !trusted.is_empty() {
        let counters = obs.snapshot().counters;
        let get = |k: &str| counters.get(k).copied().unwrap_or(0);
        println!(
            "{label}block cache         : {} miss(es) cold, {} hit(s) warm, {} fill byte(s), {} eviction(s)",
            get("cfstore.block_cache.misses"),
            get("cfstore.block_cache.hits"),
            get("cfstore.block_cache.fill_bytes"),
            get("cfstore.block_cache.evictions"),
        );
    }

    // 3. Orphans: segment files a crashed flush left behind. Not trusted,
    // not an error — the WAL still covers their contents.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("seg-") && name.ends_with(".seg") && !trusted.contains(&name) {
                report.orphan_segments.push(name);
            }
        }
        report.orphan_segments.sort();
    }

    // 4. The WAL tail: count what replays and what a crash tore off.
    let scan = cfstore::wal::read_wal(&dir.join(cfstore::wal::WAL_FILE))
        .map_err(|e| format!("wal: {e}"))?;
    report.wal_bytes_valid = scan.valid_bytes;
    report.wal_bytes_dropped = scan.total_bytes - scan.valid_bytes;
    report.truncation = scan.truncation;
    if let Some(t) = &report.truncation {
        corruption.push(format!(
            "wal: torn tail ({t}; {} byte(s) to truncate)",
            report.wal_bytes_dropped
        ));
    }
    for frame in &scan.frames {
        if frame.lsn <= flushed_lsn {
            report.frames_skipped += 1;
        } else {
            report.frames_replayed += 1;
            report.records_replayed += frame.records.len() as u64;
        }
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
/// resumes or resolves a resharding migration).
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
                    // Unrecoverable for a single store; a sharded reopen
                    // rebuilds the shard from its replicas.
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
        match ShardedStore::open(dir) {
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
                let meta = store.meta();
                for (shard, entry) in &meta.regions {
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
