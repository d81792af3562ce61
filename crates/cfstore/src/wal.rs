//! The write-ahead log: length+CRC-framed, append-only, group-committed.
//!
//! Every durable mutation of a [`crate::MiniStore`] — table creation,
//! puts, row deletes, region splits — is encoded as a [`WalRecord`] and
//! appended as part of a *frame* before it touches the in-memory state
//! (log-then-apply). A frame is the unit of atomicity: either every
//! record in it replays on recovery or none does, so multi-cell writes
//! like a whole profile survive crashes all-or-nothing.
//!
//! ## Frame format
//!
//! The framing — `len u32 · crc u32 · body`, and how a torn or rotted
//! frame is told apart — is [`crate::frame`]'s and shared with every
//! other cfstore file. A WAL frame's body is `lsn u64 · count u32 ·
//! records`. The recovery path ([`read_wal`]) walks frames until the file
//! ends cleanly, a frame is torn, its checksum mismatches, or a record
//! fails to decode — and reports where and why it stopped instead of
//! erroring, because a torn tail is the *expected* artifact of a crash
//! mid-append.
//!
//! ## Crash injection
//!
//! [`CrashSpec`] deterministically kills the store at an enumerable
//! point — after the Nth WAL byte reaches the file (tearing the write in
//! progress at exactly that offset), while writing the Nth segment of a
//! flush, or while logging the Nth region split. Like mrsim's `FaultSpec`
//! (PR 2), the default spec is fully inert and the property tests
//! enumerate crash points to assert the recovery invariants.

use std::fs::OpenOptions;
use std::path::Path;

use bytes::{BufMut, Bytes};

use crate::encoding::CodecError;
use crate::frame::{self, put_bytes, put_str, CrashWriter, Cursor, FrameError, ScanStop};

/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A table came into existence with a fixed family set. The id of
    /// its initial all-covering region is logged so replay reproduces
    /// region identity (and thus META entries) exactly.
    CreateTable {
        name: String,
        families: Vec<String>,
        split_threshold: u64,
        root_region_id: u64,
    },
    /// One cell write, with the timestamp the store assigned at commit
    /// time so replay reproduces version order exactly.
    Put {
        table: String,
        row: Bytes,
        family: String,
        column: Bytes,
        value: Bytes,
        timestamp: u64,
    },
    /// A whole row removed.
    DeleteRow { table: String, row: Bytes },
    /// A region split at a chosen key. Logging the split key (rather
    /// than re-deriving the median on replay) makes the post-recovery
    /// region topology identical to the pre-crash one.
    RegionSplit {
        table: String,
        parent_id: u64,
        new_id: u64,
        split_key: Bytes,
    },
    /// Sharded-mode commit marker, logged as the *first* record of every
    /// frame a [`crate::shard::ShardedStore`] writes. `gsn` is the
    /// store-wide global sequence number of the batch and `participants`
    /// the shard ids the batch touched. Shard-aware recovery treats a
    /// gsn as committed only when every participant holds its frame
    /// (durable in its WAL, or already flushed past it) — otherwise the
    /// whole cross-shard batch is dropped on every shard, keeping
    /// multi-shard writes atomic. Replaying the marker itself is a
    /// no-op.
    BatchMarker { gsn: u64, participants: Vec<u32> },
}

const TAG_CREATE_TABLE: u8 = 1;
const TAG_PUT: u8 = 2;
const TAG_DELETE_ROW: u8 = 3;
const TAG_REGION_SPLIT: u8 = 4;
const TAG_BATCH_MARKER: u8 = 5;

/// Why a WAL scan stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTruncation {
    /// Fewer bytes on disk than the frame header promised — the classic
    /// torn write of a crash mid-append.
    Torn { offset: u64 },
    /// A complete frame whose body no longer matches its CRC.
    BadChecksum { offset: u64 },
    /// A frame whose body decoded to garbage (bad tag, truncated field).
    BadRecord { offset: u64, detail: String },
}

impl WalTruncation {
    /// Byte offset of the first dropped byte.
    pub fn offset(&self) -> u64 {
        match self {
            WalTruncation::Torn { offset }
            | WalTruncation::BadChecksum { offset }
            | WalTruncation::BadRecord { offset, .. } => *offset,
        }
    }
}

impl std::fmt::Display for WalTruncation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalTruncation::Torn { offset } => write!(f, "torn frame at byte {offset}"),
            WalTruncation::BadChecksum { offset } => {
                write!(f, "frame checksum mismatch at byte {offset}")
            }
            WalTruncation::BadRecord { offset, detail } => {
                write!(f, "undecodable frame at byte {offset}: {detail}")
            }
        }
    }
}

/// Errors from the WAL writer: an injected [`CrashSpec`] point fired (the
/// store is dead until reopened), or a real I/O failure under the log.
pub use crate::frame::WriteError as WalError;

/// Deterministic crash points for the durability property tests.
///
/// All fields are `None` by default (fully inert). Mirrors the mrsim
/// `FaultSpec` convention: an inert spec routes through exactly the
/// non-injected code path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashSpec {
    /// Die once this many total bytes have reached the WAL file. The
    /// write in progress is torn at exactly this offset, so the crash
    /// point enumerates every possible torn-frame shape.
    pub after_wal_bytes: Option<u64>,
    /// Die while flushing: segments with index `< n` are written fully,
    /// segment `n` is torn at half its bytes, and the manifest never
    /// swaps — the classic mid-flush crash.
    pub during_flush_segment: Option<u32>,
    /// Die while logging the `n`th region split (0-based): the split's
    /// WAL frame is torn halfway, so recovery replays the puts that
    /// triggered the split but not the split itself.
    pub during_split: Option<u32>,
}

impl CrashSpec {
    /// A spec that crashes after `n` WAL bytes.
    pub fn after_wal_bytes(n: u64) -> Self {
        CrashSpec {
            after_wal_bytes: Some(n),
            ..CrashSpec::default()
        }
    }

    /// True when no crash point can fire.
    pub fn is_inert(&self) -> bool {
        self.after_wal_bytes.is_none()
            && self.during_flush_segment.is_none()
            && self.during_split.is_none()
    }
}

/// When appended frames are pushed from the group-commit buffer to the
/// file (and thereby become durable / acknowledged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every operation's frame hits the file before the call returns —
    /// an acknowledged write is a durable write.
    EveryOp,
    /// Frames accumulate and are written together once `n` are pending
    /// (or on an explicit [`WalWriter::sync`]). Higher throughput; a
    /// crash can lose the un-synced tail, never a synced prefix.
    GroupCommit(usize),
}

/// The append side of the log: frame encoding, group-commit buffering,
/// and the crash-injection bookkeeping shared with the flush path.
pub struct WalWriter {
    /// The file, behind the [`CrashSpec::after_wal_bytes`] budget. Its
    /// byte count is cumulative across flush truncations.
    out: CrashWriter,
    /// Group-commit buffer of fully framed bytes not yet written.
    buf: Vec<u8>,
    pending_frames: usize,
    policy: SyncPolicy,
    next_lsn: u64,
    /// Region splits logged so far (for [`CrashSpec::during_split`]).
    splits_logged: u32,
    /// Segment files fully written by flushes (for
    /// [`CrashSpec::during_flush_segment`]).
    pub(crate) segments_written: u32,
    crash: CrashSpec,
}

impl WalWriter {
    /// Open (or create) the log at `path`, appending after `existing_len`
    /// valid bytes (recovery truncates the file to that length first).
    pub fn open(
        path: &Path,
        existing_len: u64,
        next_lsn: u64,
        policy: SyncPolicy,
        crash: CrashSpec,
    ) -> Result<Self, WalError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(WalWriter {
            out: CrashWriter::new(file, existing_len, crash.after_wal_bytes, false),
            buf: Vec::new(),
            pending_frames: 0,
            policy,
            next_lsn,
            splits_logged: 0,
            segments_written: 0,
            crash,
        })
    }

    /// Whether an injected crash point already fired.
    pub fn is_crashed(&self) -> bool {
        self.out.is_crashed()
    }

    /// The LSN the next appended frame will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Cumulative bytes that have reached the file since open. *Not*
    /// reset by [`WalWriter::reset_after_flush`] (it is the crash-budget
    /// currency), so callers tracking WAL growth between flushes must
    /// remember their own baseline.
    pub(crate) fn bytes_written(&self) -> u64 {
        self.out.written()
    }

    /// Append one frame holding `records` (atomic as a unit on replay).
    /// Returns the frame's LSN. Depending on the [`SyncPolicy`] the frame
    /// may still sit in the group-commit buffer when this returns.
    pub fn append(&mut self, records: &[WalRecord]) -> Result<u64, WalError> {
        if self.is_crashed() {
            return Err(WalError::Crashed);
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let start = self.buf.len();
        frame::encode(&mut self.buf, |body| {
            body.put_u64(lsn);
            body.put_u32(records.len() as u32);
            for r in records {
                encode_record(body, r);
            }
        });

        // Mid-split crash point: tear this frame halfway regardless of
        // where the byte budget stands.
        let is_split = records
            .iter()
            .any(|r| matches!(r, WalRecord::RegionSplit { .. }));
        if is_split {
            let n = self.splits_logged;
            self.splits_logged += 1;
            if self.crash.during_split == Some(n) {
                let half = start + (self.buf.len() - start) / 2;
                return Err(self.out.crash_after(&self.buf[start..half]));
            }
        }

        self.pending_frames += 1;
        let should_flush = match self.policy {
            SyncPolicy::EveryOp => true,
            SyncPolicy::GroupCommit(n) => self.pending_frames >= n.max(1),
        };
        if should_flush {
            self.sync()?;
        }
        Ok(lsn)
    }

    /// Append one frame with a caller-assigned LSN. The sharded store
    /// derives frame LSNs from the global sequence number (`gsn *
    /// LSN_STRIDE + seq`), so per-shard LSNs jump forward rather than
    /// incrementing — `lsn` must be ≥ the writer's current `next_lsn`
    /// so replay order stays monotone within each shard's log.
    pub fn append_at(&mut self, lsn: u64, records: &[WalRecord]) -> Result<u64, WalError> {
        debug_assert!(
            lsn >= self.next_lsn,
            "append_at must not move the LSN backwards ({lsn} < {})",
            self.next_lsn
        );
        self.next_lsn = lsn;
        self.append(records)
    }

    /// Force the group-commit buffer to the file. After `Ok`, every
    /// previously appended frame is durable.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.is_crashed() {
            return Err(WalError::Crashed);
        }
        self.pending_frames = 0;
        let result = self.out.write(&self.buf);
        self.buf.clear();
        result
    }

    /// Reset the log after a successful flush persisted everything
    /// through `flushed_lsn` into segments: the file is truncated to
    /// empty and appends continue. The crash byte budget keeps counting
    /// cumulative bytes, so `after_wal_bytes` enumerates crash points
    /// across flush boundaries instead of resetting with the file.
    pub fn reset_after_flush(&mut self) -> Result<(), WalError> {
        if self.is_crashed() {
            return Err(WalError::Crashed);
        }
        self.buf.clear();
        self.pending_frames = 0;
        self.out.file().set_len(0)?;
        Ok(())
    }

    /// Mid-flush crash check: returns `Err(Crashed)` (and poisons the
    /// writer) when segment number `segments_written` is the configured
    /// victim. The flush path calls this before completing each segment.
    pub(crate) fn check_flush_crash(&mut self) -> Result<(), WalError> {
        if self.is_crashed() {
            return Err(WalError::Crashed);
        }
        if self.crash.during_flush_segment == Some(self.segments_written) {
            return Err(self.out.crash_after(&[]));
        }
        Ok(())
    }
}

fn encode_record(buf: &mut Vec<u8>, r: &WalRecord) {
    match r {
        WalRecord::CreateTable {
            name,
            families,
            split_threshold,
            root_region_id,
        } => {
            buf.put_u8(TAG_CREATE_TABLE);
            put_str(buf, name);
            buf.put_u32(families.len() as u32);
            for f in families {
                put_str(buf, f);
            }
            buf.put_u64(*split_threshold);
            buf.put_u64(*root_region_id);
        }
        WalRecord::Put {
            table,
            row,
            family,
            column,
            value,
            timestamp,
        } => {
            buf.put_u8(TAG_PUT);
            put_str(buf, table);
            put_bytes(buf, row);
            put_str(buf, family);
            put_bytes(buf, column);
            put_bytes(buf, value);
            buf.put_u64(*timestamp);
        }
        WalRecord::DeleteRow { table, row } => {
            buf.put_u8(TAG_DELETE_ROW);
            put_str(buf, table);
            put_bytes(buf, row);
        }
        WalRecord::RegionSplit {
            table,
            parent_id,
            new_id,
            split_key,
        } => {
            buf.put_u8(TAG_REGION_SPLIT);
            put_str(buf, table);
            buf.put_u64(*parent_id);
            buf.put_u64(*new_id);
            put_bytes(buf, split_key);
        }
        WalRecord::BatchMarker { gsn, participants } => {
            buf.put_u8(TAG_BATCH_MARKER);
            buf.put_u64(*gsn);
            buf.put_u32(participants.len() as u32);
            for p in participants {
                buf.put_u32(*p);
            }
        }
    }
}

/// The shortest record on the wire: a `DeleteRow` of an empty table name
/// and row key (`tag · len · len`).
const MIN_RECORD_BYTES: usize = 9;

fn decode_record(c: &mut Cursor<'_>) -> Result<WalRecord, CodecError> {
    match c.u8()? {
        TAG_CREATE_TABLE => Ok(WalRecord::CreateTable {
            name: c.str()?,
            families: c.strings()?,
            split_threshold: c.u64()?,
            root_region_id: c.u64()?,
        }),
        TAG_PUT => Ok(WalRecord::Put {
            table: c.str()?,
            row: c.bytes()?,
            family: c.str()?,
            column: c.bytes()?,
            value: c.bytes()?,
            timestamp: c.u64()?,
        }),
        TAG_DELETE_ROW => Ok(WalRecord::DeleteRow {
            table: c.str()?,
            row: c.bytes()?,
        }),
        TAG_REGION_SPLIT => Ok(WalRecord::RegionSplit {
            table: c.str()?,
            parent_id: c.u64()?,
            new_id: c.u64()?,
            split_key: c.bytes()?,
        }),
        TAG_BATCH_MARKER => Ok(WalRecord::BatchMarker {
            gsn: c.u64()?,
            participants: c.seq(4, Cursor::u32)?,
        }),
        t => Err(CodecError::BadTag(t)),
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    pub lsn: u64,
    pub records: Vec<WalRecord>,
}

/// The result of scanning a WAL file: every valid frame in order, the
/// number of bytes they span, and why the scan stopped early (if it did).
#[derive(Debug)]
pub struct WalScan {
    pub frames: Vec<WalFrame>,
    /// Byte offset of each valid frame, parallel to `frames`. Shard-aware
    /// recovery uses these to truncate a log at an exact frame boundary
    /// when aborting an uncommitted cross-shard batch.
    pub frame_offsets: Vec<u64>,
    /// Bytes covered by valid frames (the truncation point on recovery).
    pub valid_bytes: u64,
    /// Total file length; `total_bytes - valid_bytes` is the dropped tail.
    pub total_bytes: u64,
    /// `None` when the file ended cleanly on a frame boundary.
    pub truncation: Option<WalTruncation>,
}

/// Scan the WAL at `path`, stopping (without erroring) at the first torn
/// or corrupt frame. A missing file scans as empty.
pub fn read_wal(path: &Path) -> Result<WalScan, std::io::Error> {
    let data = frame::read_optional(path)?.unwrap_or_default();
    let scan = frame::scan_log(&data, 0, decode_frame_body);
    // Whatever stopped the scan, the log ends there: a crash tears the
    // tail, and a frame that does not decode is dropped with it.
    let offset = scan.valid_bytes;
    let truncation = scan.stop.map(|why| match why {
        ScanStop::Frame(FrameError::Torn) => WalTruncation::Torn { offset },
        ScanStop::Frame(FrameError::BadChecksum) => WalTruncation::BadChecksum { offset },
        ScanStop::Record(e) => WalTruncation::BadRecord {
            offset,
            detail: e.to_string(),
        },
    });
    Ok(WalScan {
        frames: scan.records,
        frame_offsets: scan.offsets,
        valid_bytes: scan.valid_bytes,
        total_bytes: scan.total_bytes,
        truncation,
    })
}

fn decode_frame_body(body: &[u8]) -> Result<WalFrame, CodecError> {
    let mut c = Cursor::new(body);
    let lsn = c.u64()?;
    let records = c.seq(MIN_RECORD_BYTES, decode_record)?;
    c.finish()?;
    Ok(WalFrame { lsn, records })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cfstore-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
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
            WalRecord::BatchMarker {
                gsn: 9,
                participants: vec![0, 2, 3],
            },
        ]
    }

    #[test]
    fn frames_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join(WAL_FILE);
        let mut w =
            WalWriter::open(&path, 0, 1, SyncPolicy::EveryOp, CrashSpec::default()).unwrap();
        for r in sample_records() {
            w.append(std::slice::from_ref(&r)).unwrap();
        }
        w.append(&sample_records()).unwrap(); // multi-record frame
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.frames.len(), 6);
        assert_eq!(scan.frame_offsets.len(), 6);
        assert_eq!(scan.frame_offsets[0], 0);
        assert!(scan.truncation.is_none());
        assert_eq!(scan.valid_bytes, scan.total_bytes);
        assert_eq!(scan.frames[0].lsn, 1);
        assert_eq!(scan.frames[5].records, sample_records());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_not_errored() {
        let dir = tmp_dir("torn");
        let path = dir.join(WAL_FILE);
        let mut w =
            WalWriter::open(&path, 0, 1, SyncPolicy::EveryOp, CrashSpec::default()).unwrap();
        for r in sample_records() {
            w.append(std::slice::from_ref(&r)).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Tear 3 bytes off the last frame.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.frames.len(), 4);
        assert!(matches!(scan.truncation, Some(WalTruncation::Torn { .. })));
        assert_eq!(scan.total_bytes, (full.len() - 3) as u64);
        assert!(scan.valid_bytes < scan.total_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_frame_stops_the_scan() {
        let dir = tmp_dir("corrupt");
        let path = dir.join(WAL_FILE);
        let mut w =
            WalWriter::open(&path, 0, 1, SyncPolicy::EveryOp, CrashSpec::default()).unwrap();
        let recs = sample_records();
        w.append(&recs[..1]).unwrap();
        let first_len = std::fs::metadata(&path).unwrap().len() as usize;
        w.append(&recs[1..2]).unwrap();
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        data[first_len + 10] ^= 0xff; // flip a byte inside the 2nd frame body
        std::fs::write(&path, &data).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert!(matches!(
            scan.truncation,
            Some(WalTruncation::BadChecksum { .. })
        ));
        assert_eq!(scan.valid_bytes, first_len as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_after_n_bytes_tears_exactly_there() {
        let dir = tmp_dir("crashbyte");
        let path = dir.join(WAL_FILE);
        // First, measure a clean run.
        let mut w =
            WalWriter::open(&path, 0, 1, SyncPolicy::EveryOp, CrashSpec::default()).unwrap();
        for r in sample_records() {
            w.append(std::slice::from_ref(&r)).unwrap();
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        drop(w);
        std::fs::remove_file(&path).unwrap();

        let limit = clean_len / 2;
        let mut w = WalWriter::open(
            &path,
            0,
            1,
            SyncPolicy::EveryOp,
            CrashSpec::after_wal_bytes(limit),
        )
        .unwrap();
        let mut acked = 0;
        for r in sample_records() {
            match w.append(std::slice::from_ref(&r)) {
                Ok(_) => acked += 1,
                Err(WalError::Crashed) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(w.is_crashed());
        assert!(matches!(
            w.append(&sample_records()),
            Err(WalError::Crashed)
        ));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), limit);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.frames.len(), acked);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_buffers_until_threshold() {
        let dir = tmp_dir("group");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::open(
            &path,
            0,
            1,
            SyncPolicy::GroupCommit(3),
            CrashSpec::default(),
        )
        .unwrap();
        let recs = sample_records();
        w.append(&recs[..1]).unwrap();
        w.append(&recs[..1]).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "still buffered");
        w.append(&recs[..1]).unwrap(); // third append flushes the group
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
        w.append(&recs[..1]).unwrap();
        w.sync().unwrap(); // explicit sync drains the partial group
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.frames.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inert_spec_never_fires() {
        assert!(CrashSpec::default().is_inert());
        assert!(!CrashSpec::after_wal_bytes(10).is_inert());
    }
}
