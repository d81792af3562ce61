//! What a reopen reads and reports: the MANIFEST, the segments it names,
//! and the [`RecoveryReport`] that accounts for every byte the reopen
//! kept or dropped.
//!
//! A durable store directory contains:
//!
//! ```text
//! <dir>/MANIFEST      committed state: tables, live segments, flushed LSN
//! <dir>/wal.log       frames appended since the last committed flush
//! <dir>/seg-*.seg     immutable flushed segments (one per region)
//! ```
//!
//! [`crate::MiniStore::open`] is a pure function of that directory
//! (DESIGN.md §24):
//!
//! 1. read the MANIFEST (missing → a never-flushed store; corrupt → a
//!    typed [`RecoveryError::ManifestCorrupt`], because the manifest is
//!    swapped in atomically and cannot be *torn* by a crash — damage
//!    means at-rest rot);
//! 2. open every referenced segment *lazily*: the header, footer, and
//!    trailer index are checksum-verified up front, but block bodies stay
//!    on disk — a clean region is built segment-backed, reading blocks
//!    on demand through the store's [`crate::BlockCache`]. Block CRCs are
//!    verified on fill, so rot still surfaces as a typed
//!    [`RecoveryError::Segment`]/[`crate::StoreError`] the moment the
//!    data is actually read (and `store_fsck` scrubs every block);
//! 3. scan the WAL and **truncate** it at the first torn or corrupt frame
//!    instead of erroring — a torn tail is the expected fingerprint of a
//!    crash mid-append — then hand every frame with `lsn > flushed_lsn`
//!    (frames at or below it are already inside segments) to the store's
//!    one applier, the code that applied it the first time;
//! 4. report everything: segments loaded, frames replayed and skipped,
//!    valid vs dropped WAL bytes, and why truncation happened.
//!
//! The crash-anywhere property tests assert that for *every* enumerable
//! crash point a reopen yields a store whose scans are bit-identical to a
//! never-crashed oracle restricted to acknowledged writes, and that
//! `wal_bytes_valid + wal_bytes_dropped` equals the WAL file length (no
//! byte is unaccounted for).

use std::path::Path;
use std::sync::Arc;

use bytes::BufMut;

use crate::encoding::CodecError;
use crate::frame::{self, put_str, Cursor, LogScan, Truncation};
use crate::segment::{SegmentError, SegmentReader};
use crate::wal::{read_wal, WalFrame, WAL_FILE};

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
    /// Blocks the WAL replay read (CRC-verified on fill): replayed puts
    /// and splits read none, a delete the one its row could be in
    /// (DESIGN.md §44).
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
    pub truncation: Option<Truncation>,
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

/// Open every segment the manifest names — header, footer and trailer
/// index checksum-verified, block bodies left on disk — counting them
/// into `report`.
pub(crate) fn open_segments(
    dir: &Path,
    manifest: &Manifest,
    report: &mut RecoveryReport,
) -> Result<Vec<Arc<SegmentReader>>, RecoveryError> {
    let mut readers = Vec::with_capacity(manifest.segments.len());
    for seg_name in &manifest.segments {
        let reader = Arc::new(SegmentReader::open(&dir.join(seg_name))?);
        report.segments_loaded += 1;
        report.segment_rows += reader.meta().row_count;
        report.segment_blocks += reader.block_count() as u64;
        readers.push(reader);
    }
    Ok(readers)
}

/// Count into `report` what a reopen of `dir` keeps and drops besides
/// the segments `manifest` names: the `seg-*.seg` files it does not name
/// (a crashed flush's leftovers, ignored), and every byte of the WAL —
/// valid and dropped, why the tail dropped, which frames the flush that
/// wrote `manifest` already holds and which replay. The reopen and
/// `store_fsck` both count through here, so the two cannot disagree.
pub fn account_wal(
    dir: &Path,
    manifest: &Manifest,
    report: &mut RecoveryReport,
) -> std::io::Result<LogScan<WalFrame>> {
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
    let scan = read_wal(&dir.join(WAL_FILE))?;
    report.wal_bytes_valid = scan.valid_bytes;
    report.wal_bytes_dropped = scan.total_bytes - scan.valid_bytes;
    report.truncation = scan.stop.clone();
    for frame in &scan.records {
        if frame.lsn <= manifest.flushed_lsn {
            report.frames_skipped += 1;
        } else {
            report.frames_replayed += 1;
            report.records_replayed += frame.records.len() as u64;
        }
    }
    Ok(scan)
}

/// A log record or segment that names what its store does not hold — the
/// directory mixes files from different stores.
pub(crate) fn inconsistent(detail: String) -> RecoveryError {
    RecoveryError::InconsistentLog { detail }
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
        let (store, report) = crate::MiniStore::open(&dir).unwrap();
        assert!(store.meta_entries().is_empty());
        assert_eq!(report.frames_replayed, 0);
        assert_eq!(report.wal_bytes_dropped, 0);
        assert!(report.truncation.is_none());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
