//! The reopen path: manifest, segment loading, WAL replay, and the
//! [`RecoveryReport`] that accounts for every byte the recovery kept or
//! dropped.
//!
//! A durable store directory contains:
//!
//! ```text
//! <dir>/MANIFEST      committed state: tables, live segments, flushed LSN
//! <dir>/wal.log       frames appended since the last committed flush
//! <dir>/seg-*.seg     immutable flushed segments (one per region)
//! ```
//!
//! Recovery is a pure function of that directory:
//!
//! 1. read the MANIFEST (missing → a never-flushed store; corrupt → a
//!    typed [`RecoveryError::ManifestCorrupt`], because the manifest is
//!    swapped in atomically and cannot be *torn* by a crash — damage
//!    means at-rest rot);
//! 2. open every referenced segment *lazily*: the header, footer, and
//!    trailer index are checksum-verified up front, but block bodies stay
//!    on disk — a clean region is rebuilt segment-backed, reading blocks
//!    on demand through the store's [`BlockCache`]. Block CRCs are
//!    verified on fill, so rot still surfaces as a typed
//!    [`RecoveryError::Segment`]/[`crate::StoreError`] the moment the
//!    data is actually read (and `store_fsck` scrubs every block);
//! 3. scan the WAL, replaying only frames with `lsn > flushed_lsn`
//!    (frames at or below it are already inside segments — the replay is
//!    idempotent across the flush/truncate race), and **truncate** at the
//!    first torn or corrupt frame instead of erroring — a torn tail is
//!    the expected fingerprint of a crash mid-append;
//! 4. report everything: segments loaded, frames replayed and skipped,
//!    valid vs dropped WAL bytes, and why truncation happened.
//!
//! The crash-anywhere property tests assert that for *every* enumerable
//! crash point, `recover` yields a store whose scans are bit-identical
//! to a never-crashed oracle restricted to acknowledged writes, and that
//! `wal_bytes_valid + wal_bytes_dropped` equals the WAL file length (no
//! byte is unaccounted for).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use bytes::{BufMut, Bytes};

use crate::blockcache::BlockCache;
use crate::encoding::CodecError;
use crate::frame::{self, put_str, Cursor};
use crate::region::{KeyRange, RowData};
use crate::segment::{SegmentError, SegmentReader};
use crate::wal::{self, WalRecord, WalTruncation, WAL_FILE};

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

const MANIFEST_MAGIC: u32 = 0x4d46_5331; // "MFS1"

/// Errors from the reopen path. Torn WAL tails are *not* errors (they
/// are truncated and reported); these are the conditions recovery cannot
/// repair without losing committed data.
#[derive(Debug)]
pub enum RecoveryError {
    /// Filesystem trouble reading or preparing the directory.
    Io {
        path: String,
        source: std::io::Error,
    },
    /// The MANIFEST exists but fails its magic/checksum/decode — at-rest
    /// corruption of the committed catalog.
    ManifestCorrupt { path: String, detail: String },
    /// A manifest-referenced segment failed verification.
    Segment(SegmentError),
    /// Replay hit a state inconsistency (e.g. a put for a table the log
    /// never created) — the directory mixes files from different stores.
    InconsistentLog { detail: String },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io { path, source } => {
                write!(f, "recovery I/O failure at `{path}`: {source}")
            }
            RecoveryError::ManifestCorrupt { path, detail } => {
                write!(f, "manifest `{path}` is corrupt: {detail}")
            }
            RecoveryError::Segment(e) => write!(f, "{e}"),
            RecoveryError::InconsistentLog { detail } => {
                write!(f, "write-ahead log is inconsistent: {detail}")
            }
        }
    }
}
impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io { source, .. } => Some(source),
            RecoveryError::Segment(e) => Some(e),
            RecoveryError::ManifestCorrupt { .. } | RecoveryError::InconsistentLog { .. } => None,
        }
    }
}
impl From<SegmentError> for RecoveryError {
    fn from(e: SegmentError) -> Self {
        RecoveryError::Segment(e)
    }
}

pub(crate) fn io_err(path: &Path, source: std::io::Error) -> RecoveryError {
    RecoveryError::Io {
        path: path.display().to_string(),
        source,
    }
}

/// One table described by the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestTable {
    pub name: String,
    pub families: Vec<String>,
    pub split_threshold: u64,
}

/// The committed catalog: what the store looked like at the last flush.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Every frame with `lsn <= flushed_lsn` is captured by the segments.
    pub flushed_lsn: u64,
    /// Logical clock high-water mark at flush time.
    pub clock: u64,
    /// Next region id to allocate.
    pub next_region_id: u64,
    /// Flush generation (names the next batch of segment files).
    pub generation: u64,
    pub tables: Vec<ManifestTable>,
    /// Live segment file names (relative to the store directory).
    pub segments: Vec<String>,
}

impl Manifest {
    fn encode(&self, body: &mut Vec<u8>) {
        body.put_u64(self.flushed_lsn);
        body.put_u64(self.clock);
        body.put_u64(self.next_region_id);
        body.put_u64(self.generation);
        body.put_u32(self.tables.len() as u32);
        for t in &self.tables {
            put_str(body, &t.name);
            body.put_u32(t.families.len() as u32);
            for f in &t.families {
                put_str(body, f);
            }
            body.put_u64(t.split_threshold);
        }
        body.put_u32(self.segments.len() as u32);
        for s in &self.segments {
            put_str(body, s);
        }
    }

    fn decode(body: &[u8]) -> Result<Manifest, CodecError> {
        let mut c = Cursor::new(body);
        let flushed_lsn = c.u64()?;
        let clock = c.u64()?;
        let next_region_id = c.u64()?;
        let generation = c.u64()?;
        // A table is at least `name len · family count · threshold`.
        let tables = c.seq(16, |c| {
            Ok(ManifestTable {
                name: c.str()?,
                families: c.strings()?,
                split_threshold: c.u64()?,
            })
        })?;
        let segments = c.strings()?;
        c.finish()?;
        Ok(Manifest {
            flushed_lsn,
            clock,
            next_region_id,
            generation,
            tables,
            segments,
        })
    }
}

/// A catalog file or journal that exists but does not verify or decode.
pub(crate) fn corrupt_file(path: &Path, detail: impl ToString) -> RecoveryError {
    RecoveryError::ManifestCorrupt {
        path: path.display().to_string(),
        detail: detail.to_string(),
    }
}

/// Read a `magic · frame` file ([`frame::decode_file`]) and decode its
/// body; `Ok(None)` when the file does not exist.
pub(crate) fn read_framed_file<T>(
    path: &Path,
    magic: u32,
    decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
) -> Result<Option<T>, RecoveryError> {
    let Some(data) = frame::read_optional(path).map_err(|e| io_err(path, e))? else {
        return Ok(None);
    };
    let body = frame::decode_file(&data, magic).map_err(|d| corrupt_file(path, d))?;
    decode(body).map(Some).map_err(|e| corrupt_file(path, e))
}

/// Write the manifest atomically ([`frame::write_file_atomic`]).
pub fn write_manifest(dir: &Path, m: &Manifest) -> Result<(), std::io::Error> {
    frame::write_file_atomic(&dir.join(MANIFEST_FILE), MANIFEST_MAGIC, |b| m.encode(b))
}

/// Read the manifest; `Ok(None)` when the store never flushed.
pub fn read_manifest(dir: &Path) -> Result<Option<Manifest>, RecoveryError> {
    read_framed_file(&dir.join(MANIFEST_FILE), MANIFEST_MAGIC, Manifest::decode)
}

/// One recovered region: its identity, range, and rows — either
/// materialized (WAL replay touched it) or still backed by an open
/// segment reader (`base` is `Some` and `rows` is empty).
#[derive(Debug)]
pub struct RecoveredRegion {
    pub id: u64,
    pub range: KeyRange,
    pub rows: BTreeMap<Bytes, RowData>,
    /// The verified-but-unread segment this region is lazily backed by.
    /// Invariant: `base.is_some()` implies `rows.is_empty()`.
    pub base: Option<Arc<SegmentReader>>,
}

/// One recovered table.
#[derive(Debug)]
pub struct RecoveredTable {
    pub name: String,
    pub families: Vec<String>,
    pub split_threshold: u64,
    /// Regions sorted by start key, ranges covering the key space.
    pub regions: Vec<RecoveredRegion>,
}

/// Everything `MiniStore::open` needs to rebuild itself.
#[derive(Debug)]
pub struct RecoveredState {
    pub tables: Vec<RecoveredTable>,
    /// Logical clock to resume from (`max assigned timestamp + 1`).
    pub clock: u64,
    pub next_region_id: u64,
    pub generation: u64,
    /// LSN the reopened WAL writer continues from.
    pub next_lsn: u64,
    pub flushed_lsn: u64,
    /// Length the WAL file was truncated to (valid frames only).
    pub wal_len: u64,
}

/// The typed account of one recovery: what was kept, what was dropped,
/// and why. `wal_bytes_valid + wal_bytes_dropped == ` the WAL's on-disk
/// length before truncation — no byte goes unaccounted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Segment files opened (header/footer/trailer checksum-verified).
    pub segments_loaded: u64,
    /// Rows the loaded segments hold (from trailer metadata — *not*
    /// materialized; blocks are read on demand through the cache).
    pub segment_rows: u64,
    /// Blocks indexed across all loaded segments.
    pub segment_blocks: u64,
    /// Blocks recovery actually read (CRC-verified on fill) to promote
    /// regions the WAL replay mutated. The read-amplification proof:
    /// `segment_blocks_read ≤ segment_blocks`, with equality only when
    /// every region was written after its flush.
    pub segment_blocks_read: u64,
    /// WAL frames replayed (lsn above the manifest's flush mark).
    pub frames_replayed: u64,
    /// Records inside replayed frames.
    pub records_replayed: u64,
    /// Valid frames skipped because a flush already captured them.
    pub frames_skipped: u64,
    /// WAL bytes covered by valid frames.
    pub wal_bytes_valid: u64,
    /// WAL bytes dropped at the torn/corrupt tail.
    pub wal_bytes_dropped: u64,
    /// Why the tail was dropped; `None` when the log ended cleanly.
    pub truncation: Option<WalTruncation>,
    /// Orphan `seg-*.seg` files not referenced by the manifest (partial
    /// flushes from a crash) — ignored by recovery, listed for fsck.
    pub orphan_segments: Vec<String>,
}

impl RecoveryReport {
    /// Fold another shard's report into this one: numeric fields sum,
    /// the first truncation seen wins (per-shard detail stays in the
    /// per-shard reports), orphan lists concatenate. The sharded reopen
    /// path aggregates every shard's recovery through this instead of
    /// reporting whichever shard recovered last.
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.segments_loaded += other.segments_loaded;
        self.segment_rows += other.segment_rows;
        self.segment_blocks += other.segment_blocks;
        self.segment_blocks_read += other.segment_blocks_read;
        self.frames_replayed += other.frames_replayed;
        self.records_replayed += other.records_replayed;
        self.frames_skipped += other.frames_skipped;
        self.wal_bytes_valid += other.wal_bytes_valid;
        self.wal_bytes_dropped += other.wal_bytes_dropped;
        if self.truncation.is_none() {
            self.truncation = other.truncation.clone();
        }
        self.orphan_segments
            .extend(other.orphan_segments.iter().cloned());
    }

    /// Human-readable one-screen summary (used by `store_fsck`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "segments loaded     : {} ({} rows)\n",
            self.segments_loaded, self.segment_rows
        ));
        out.push_str(&format!(
            "segment blocks      : {} indexed, {} read for replay\n",
            self.segment_blocks, self.segment_blocks_read
        ));
        out.push_str(&format!(
            "wal frames replayed : {} ({} records)\n",
            self.frames_replayed, self.records_replayed
        ));
        out.push_str(&format!(
            "wal frames skipped  : {} (already flushed)\n",
            self.frames_skipped
        ));
        out.push_str(&format!(
            "wal bytes           : {} valid, {} dropped\n",
            self.wal_bytes_valid, self.wal_bytes_dropped
        ));
        match &self.truncation {
            Some(t) => out.push_str(&format!("wal tail truncated  : {t}\n")),
            None => out.push_str("wal tail            : clean\n"),
        }
        if !self.orphan_segments.is_empty() {
            out.push_str(&format!(
                "orphan segments     : {}\n",
                self.orphan_segments.join(", ")
            ));
        }
        out
    }
}

/// Recover a store directory. Returns the rebuilt state and the report;
/// also physically truncates the WAL to its valid prefix so subsequent
/// appends never interleave with a torn tail. Clean regions come back
/// segment-backed; `cache` serves the block reads replay needs to
/// promote the regions it mutates (and is the same cache the reopened
/// store keeps using).
pub fn recover(
    dir: &Path,
    cache: &Arc<BlockCache>,
) -> Result<(RecoveredState, RecoveryReport), RecoveryError> {
    let mut report = RecoveryReport::default();

    // 1. The committed catalog.
    let manifest = read_manifest(dir)?.unwrap_or_default();

    // 2. Committed segments (and note orphans for the report).
    let mut tables: BTreeMap<String, RecoveredTable> = BTreeMap::new();
    for t in &manifest.tables {
        tables.insert(
            t.name.clone(),
            RecoveredTable {
                name: t.name.clone(),
                families: t.families.clone(),
                split_threshold: t.split_threshold,
                regions: Vec::new(),
            },
        );
    }
    let mut max_region_id = 0u64;
    for seg_name in &manifest.segments {
        let reader = Arc::new(SegmentReader::open(&dir.join(seg_name))?);
        let meta = reader.meta().clone();
        report.segments_loaded += 1;
        report.segment_rows += meta.row_count;
        report.segment_blocks += reader.block_count() as u64;
        max_region_id = max_region_id.max(meta.region_id);
        let table = tables
            .get_mut(&meta.table)
            .ok_or_else(|| RecoveryError::InconsistentLog {
                detail: format!(
                    "segment `{seg_name}` references unknown table `{}`",
                    meta.table
                ),
            })?;
        table.regions.push(RecoveredRegion {
            id: meta.region_id,
            range: meta.range,
            rows: BTreeMap::new(),
            base: Some(reader),
        });
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("seg-")
                && name.ends_with(".seg")
                && !manifest.segments.iter().any(|s| s == &name)
            {
                report.orphan_segments.push(name);
            }
        }
        report.orphan_segments.sort();
    }

    // 3. The WAL tail.
    let wal_path = dir.join(WAL_FILE);
    let scan = wal::read_wal(&wal_path).map_err(|e| io_err(&wal_path, e))?;
    report.wal_bytes_valid = scan.valid_bytes;
    report.wal_bytes_dropped = scan.total_bytes - scan.valid_bytes;
    report.truncation = scan.truncation;

    let mut clock = manifest.clock;
    let mut max_lsn = manifest.flushed_lsn;
    for frame in &scan.frames {
        max_lsn = max_lsn.max(frame.lsn);
        if frame.lsn <= manifest.flushed_lsn {
            report.frames_skipped += 1;
            continue;
        }
        report.frames_replayed += 1;
        for record in &frame.records {
            report.records_replayed += 1;
            apply_record(
                &mut tables,
                record,
                &mut clock,
                &mut max_region_id,
                cache,
                &mut report,
            )?;
        }
    }

    // Physically drop the torn tail so future appends stay clean.
    if report.wal_bytes_dropped > 0 {
        frame::truncate_and_sync(&wal_path, scan.valid_bytes).map_err(|e| io_err(&wal_path, e))?;
    }

    // Every table needs at least one region covering the key space.
    let mut next_region_id = manifest.next_region_id.max(max_region_id + 1).max(1);
    let mut out_tables = Vec::new();
    for (_, mut t) in tables {
        if t.regions.is_empty() {
            t.regions.push(RecoveredRegion {
                id: next_region_id,
                range: KeyRange::all(),
                rows: BTreeMap::new(),
                base: None,
            });
            next_region_id += 1;
        }
        t.regions.sort_by(|a, b| a.range.start.cmp(&b.range.start));
        out_tables.push(t);
    }

    Ok((
        RecoveredState {
            tables: out_tables,
            clock: clock + 1,
            next_region_id,
            generation: manifest.generation + 1,
            next_lsn: max_lsn + 1,
            flushed_lsn: manifest.flushed_lsn,
            wal_len: scan.valid_bytes,
        },
        report,
    ))
}

/// Promote a segment-backed recovered region before replay mutates it:
/// read every block once (CRC-verified, through the shared cache) into
/// `rows` and drop the base. No-op for materialized regions.
fn promote(
    region: &mut RecoveredRegion,
    cache: &BlockCache,
    report: &mut RecoveryReport,
) -> Result<(), RecoveryError> {
    let Some(reader) = region.base.take() else {
        return Ok(());
    };
    debug_assert!(region.rows.is_empty(), "lazy regions carry no rows");
    for idx in 0..reader.block_count() {
        let block = cache.get_or_load(&reader, idx)?;
        report.segment_blocks_read += 1;
        for (key, data) in block.iter() {
            region.rows.insert(key.clone(), data.clone());
        }
    }
    Ok(())
}

/// Apply one replayed record to the recovered table map. Pure in-memory
/// except for block reads that promote segment-backed regions; never
/// writes to the log (recovery must not re-log what it replays).
fn apply_record(
    tables: &mut BTreeMap<String, RecoveredTable>,
    record: &WalRecord,
    clock: &mut u64,
    max_region_id: &mut u64,
    cache: &BlockCache,
    report: &mut RecoveryReport,
) -> Result<(), RecoveryError> {
    match record {
        WalRecord::CreateTable {
            name,
            families,
            split_threshold,
            root_region_id,
        } => {
            // Re-created tables (logged before a flush captured them)
            // are idempotent.
            *max_region_id = (*max_region_id).max(*root_region_id);
            tables
                .entry(name.clone())
                .or_insert_with(|| RecoveredTable {
                    name: name.clone(),
                    families: families.clone(),
                    split_threshold: *split_threshold,
                    regions: vec![RecoveredRegion {
                        id: *root_region_id,
                        range: KeyRange::all(),
                        rows: BTreeMap::new(),
                        base: None,
                    }],
                });
            Ok(())
        }
        WalRecord::Put {
            table,
            row,
            family,
            column,
            value,
            timestamp,
        } => {
            *clock = (*clock).max(*timestamp);
            let t = lookup(tables, table)?;
            let region = region_for(t, row, table)?;
            promote(region, cache, report)?;
            let versions = region
                .rows
                .entry(row.clone())
                .or_default()
                .entry(family.clone())
                .or_default()
                .entry(column.clone())
                .or_default();
            // Timestamp-sorted descending insert, mirroring the live
            // write path, so replay order == WAL order == live order.
            let pos = versions
                .iter()
                .position(|v| v.timestamp <= *timestamp)
                .unwrap_or(versions.len());
            versions.insert(pos, crate::kv::CellVersion::new(*timestamp, value.clone()));
            versions.truncate(crate::region::MAX_VERSIONS);
            Ok(())
        }
        WalRecord::DeleteRow { table, row } => {
            let t = lookup(tables, table)?;
            let region = region_for(t, row, table)?;
            promote(region, cache, report)?;
            region.rows.remove(row);
            Ok(())
        }
        WalRecord::RegionSplit {
            table,
            parent_id,
            new_id,
            split_key,
        } => {
            *max_region_id = (*max_region_id).max(*new_id);
            let t = lookup(tables, table)?;
            let Some(parent) = t.regions.iter_mut().find(|r| r.id == *parent_id) else {
                return Err(RecoveryError::InconsistentLog {
                    detail: format!("split of unknown region {parent_id} in `{table}`"),
                });
            };
            promote(parent, cache, report)?;
            let upper_rows = parent.rows.split_off(split_key);
            let upper = RecoveredRegion {
                id: *new_id,
                range: KeyRange {
                    start: split_key.clone(),
                    end: parent.range.end.clone(),
                },
                rows: upper_rows,
                base: None,
            };
            parent.range.end = Some(split_key.clone());
            t.regions.push(upper);
            Ok(())
        }
        // Commit markers are bookkeeping for the sharded pre-pass (which
        // runs *before* per-shard recovery and truncates uncommitted
        // batches); by the time a frame replays here its batch is known
        // committed, so the marker itself applies nothing.
        WalRecord::BatchMarker { .. } => Ok(()),
    }
}

fn lookup<'t>(
    tables: &'t mut BTreeMap<String, RecoveredTable>,
    name: &str,
) -> Result<&'t mut RecoveredTable, RecoveryError> {
    tables
        .get_mut(name)
        .ok_or_else(|| RecoveryError::InconsistentLog {
            detail: format!("record references unknown table `{name}`"),
        })
}

fn region_for<'t>(
    t: &'t mut RecoveredTable,
    row: &[u8],
    table: &str,
) -> Result<&'t mut RecoveredRegion, RecoveryError> {
    t.regions
        .iter_mut()
        .find(|r| r.range.contains(row))
        .ok_or_else(|| RecoveryError::InconsistentLog {
            detail: format!("no region covers a replayed row in `{table}`"),
        })
}

/// Segment file name for a region flushed at a generation.
pub fn segment_file_name(generation: u64, region_id: u64) -> String {
    format!("seg-{generation:06}-r{region_id:06}.seg")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cfstore-rec-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn manifest_roundtrips_atomically() {
        let dir = tmp_dir("manifest");
        let m = Manifest {
            flushed_lsn: 42,
            clock: 99,
            next_region_id: 7,
            generation: 3,
            tables: vec![ManifestTable {
                name: "Jobs".into(),
                families: vec!["f".into()],
                split_threshold: 256,
            }],
            segments: vec![segment_file_name(3, 1), segment_file_name(3, 2)],
        };
        write_manifest(&dir, &m).unwrap();
        assert_eq!(read_manifest(&dir).unwrap().unwrap(), m);
        assert!(!dir.join("MANIFEST.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_reads_as_none_corrupt_is_typed() {
        let dir = tmp_dir("badmanifest");
        assert!(read_manifest(&dir).unwrap().is_none());
        std::fs::write(dir.join(MANIFEST_FILE), b"garbage-bytes").unwrap();
        assert!(matches!(
            read_manifest(&dir),
            Err(RecoveryError::ManifestCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_recovers_to_empty_state() {
        let dir = tmp_dir("empty");
        let cache = Arc::new(BlockCache::new(1 << 20));
        let (state, report) = recover(&dir, &cache).unwrap();
        assert!(state.tables.is_empty());
        assert_eq!(report.frames_replayed, 0);
        assert_eq!(report.wal_bytes_dropped, 0);
        assert!(report.truncation.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
