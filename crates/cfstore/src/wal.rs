//! The write-ahead log: length+CRC-framed and append-only. Every append
//! writes its frame to the file before it returns.
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
use crate::frame::{self, put_bytes, put_str, CrashWriter, Cursor, LogScan};
use crate::kv::Put;

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
        put: Put,
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

/// A record as a frame holds it, borrowed from whoever owns it: a run of
/// cell writes to one row, or any other record. The log frames a run as
/// one [`WalRecord::Put`] per cell, and the store's applier writes it to
/// its row at once. A live write hands both the runs of its batch; a
/// reopen, the runs of each frame it read.
#[derive(Clone, Copy)]
pub enum Op<'a> {
    Run(Run<'a>),
    Record(&'a WalRecord),
}

impl<'a> From<&'a WalRecord> for Op<'a> {
    fn from(record: &'a WalRecord) -> Self {
        Op::Record(record)
    }
}

/// Consecutive cell writes to one row of one table.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    pub(crate) table: &'a str,
    pub(crate) row: &'a Bytes,
    pub(crate) cells: Cells<'a>,
}

/// Where the cells of a [`Run`] are held.
#[derive(Clone, Copy)]
pub enum Cells<'a> {
    /// A batch's puts to the row, stamped `first`, `first + 1`, … in turn.
    Stamped { puts: &'a [Put], first: u64 },
    /// A frame's decoded [`WalRecord::Put`]s to the row.
    Logged(&'a [WalRecord]),
}

impl<'a> Cells<'a> {
    pub(crate) fn len(self) -> usize {
        match self {
            Cells::Stamped { puts, .. } => puts.len(),
            Cells::Logged(records) => records.len(),
        }
    }

    /// Each cell, with its timestamp.
    pub(crate) fn iter(self) -> impl Iterator<Item = (&'a Put, u64)> {
        let (puts, first, logged) = match self {
            Cells::Stamped { puts, first } => (puts, first, &[][..]),
            Cells::Logged(records) => (&[][..], 0, records),
        };
        let logged = logged.iter().filter_map(|record| match record {
            WalRecord::Put { put, timestamp, .. } => Some((put, *timestamp)),
            _ => None,
        });
        puts.iter().zip(first..).chain(logged)
    }
}

/// The row runs of a batch of `puts` to `table` whose first cell is
/// stamped `first` and every next one the next timestamp: consecutive puts
/// to one row are one run.
pub(crate) fn runs<'a>(
    table: &'a str,
    puts: &'a [Put],
    first: u64,
) -> impl Iterator<Item = Run<'a>> {
    let mut next = first;
    puts.chunk_by(|a, b| a.row == b.row).map(move |run| {
        let first = next;
        next += run.len() as u64;
        Run {
            table,
            row: &run[0].row,
            cells: Cells::Stamped { puts: run, first },
        }
    })
}

/// The records of a decoded frame as [`Op`]s: consecutive puts to one
/// table and row are one run.
pub(crate) fn ops(records: &[WalRecord]) -> impl Iterator<Item = Op<'_>> {
    let same_row = |a: &WalRecord, b: &WalRecord| match (a, b) {
        (
            WalRecord::Put { table, put, .. },
            WalRecord::Put {
                table: t, put: p, ..
            },
        ) => table == t && put.row == p.row,
        _ => false,
    };
    records.chunk_by(same_row).map(|run| match &run[0] {
        WalRecord::Put { table, put, .. } => Op::Run(Run {
            table,
            row: &put.row,
            cells: Cells::Logged(run),
        }),
        record => Op::Record(record),
    })
}

const TAG_CREATE_TABLE: u8 = 1;
const TAG_PUT: u8 = 2;
const TAG_DELETE_ROW: u8 = 3;
const TAG_REGION_SPLIT: u8 = 4;
const TAG_BATCH_MARKER: u8 = 5;

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

/// The durability rule, which has one value: every append writes its
/// frame to the log before it returns (DESIGN.md §37). cfstore never
/// reads it; it stays while the benchmark records
/// [`crate::StoreOptions::sync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// An acknowledged write is in the log.
    EveryOp,
}

/// The append side of the log: frame encoding and the crash-injection
/// bookkeeping shared with the flush path.
pub struct WalWriter {
    /// The file, behind the [`CrashSpec::after_wal_bytes`] budget. Its
    /// byte count is cumulative across flush truncations.
    out: CrashWriter,
    /// The encode buffer every append reuses: it holds one frame from its
    /// encoding to its write, and is empty between appends.
    buf: Vec<u8>,
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
        crash: CrashSpec,
    ) -> Result<Self, WalError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(WalWriter {
            out: CrashWriter::new(file, existing_len, crash.after_wal_bytes, false),
            buf: Vec::new(),
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

    /// Append one frame holding `records` (atomic as a unit on replay) and
    /// write it to the file; each cell of a row run is framed as a record
    /// of its own. Returns the frame's LSN. On `Ok` the frame is in
    /// `wal.log`; no `fsync` follows, so it outlives the process, not the
    /// machine.
    pub fn append<'a>(
        &mut self,
        records: impl IntoIterator<Item = impl Into<Op<'a>>>,
    ) -> Result<u64, WalError> {
        if self.is_crashed() {
            return Err(WalError::Crashed);
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let mut is_split = false;
        frame::encode(&mut self.buf, |body| {
            body.put_u64(lsn);
            // The record count, filled in once the records are written.
            let count_at = body.len();
            body.put_u32(0);
            let mut count = 0u32;
            for op in records {
                match op.into() {
                    Op::Record(record) => {
                        is_split |= matches!(record, WalRecord::RegionSplit { .. });
                        encode_record(body, record);
                        count += 1;
                    }
                    Op::Run(run) => {
                        for (put, timestamp) in run.cells.iter() {
                            encode_put(body, run.table, put, timestamp);
                            count += 1;
                        }
                    }
                }
            }
            body[count_at..count_at + 4].copy_from_slice(&count.to_be_bytes());
        });

        // Mid-split crash point: tear this frame halfway regardless of
        // where the byte budget stands.
        let tear = is_split && self.crash.during_split == Some(self.splits_logged);
        self.splits_logged += u32::from(is_split);
        let written = if tear {
            Err(self.out.crash_after(&self.buf[..self.buf.len() / 2]))
        } else {
            self.out.write(&self.buf)
        };
        self.buf.clear();
        written.map(|()| lsn)
    }

    /// Append one frame with a caller-assigned LSN. The sharded store
    /// derives frame LSNs from the global sequence number (`gsn *
    /// LSN_STRIDE + seq`), so per-shard LSNs jump forward rather than
    /// incrementing — `lsn` must be ≥ the writer's current `next_lsn`
    /// so replay order stays monotone within each shard's log.
    pub fn append_at<'a>(
        &mut self,
        lsn: u64,
        records: impl IntoIterator<Item = impl Into<Op<'a>>>,
    ) -> Result<u64, WalError> {
        debug_assert!(
            lsn >= self.next_lsn,
            "append_at must not move the LSN backwards ({lsn} < {})",
            self.next_lsn
        );
        self.next_lsn = lsn;
        self.append(records)
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

/// The one writer of a put's record: every cell is framed alone.
fn encode_put(buf: &mut Vec<u8>, table: &str, put: &Put, timestamp: u64) {
    buf.put_u8(TAG_PUT);
    put_str(buf, table);
    put_bytes(buf, &put.row);
    put_str(buf, &put.family);
    put_bytes(buf, &put.column);
    put_bytes(buf, &put.value);
    buf.put_u64(timestamp);
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
            put,
            timestamp,
        } => encode_put(buf, table, put, *timestamp),
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
            put: Put {
                row: c.bytes()?,
                family: c.str()?.into(),
                column: c.bytes()?,
                value: c.bytes()?,
            },
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

/// Scan the WAL at `path`, stopping (without erroring) at the first torn
/// or corrupt frame. A missing file scans as empty.
pub fn read_wal(path: &Path) -> Result<LogScan<WalFrame>, std::io::Error> {
    let data = frame::read_optional(path)?.unwrap_or_default();
    Ok(frame::scan_log(&data, 0, decode_frame_body))
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
                put: Put::new("row1", "f", "c", "v"),
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
        let mut w = WalWriter::open(&path, 0, 1, CrashSpec::default()).unwrap();
        for r in sample_records() {
            w.append(std::slice::from_ref(&r)).unwrap();
        }
        w.append(&sample_records()).unwrap(); // multi-record frame
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 6);
        assert_eq!(scan.offsets.len(), 6);
        assert_eq!(scan.offsets[0], 0);
        assert!(scan.stop.is_none());
        assert_eq!(scan.valid_bytes, scan.total_bytes);
        assert_eq!(scan.records[0].lsn, 1);
        assert_eq!(scan.records[5].records, sample_records());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_not_errored() {
        let dir = tmp_dir("torn");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::open(&path, 0, 1, CrashSpec::default()).unwrap();
        for r in sample_records() {
            w.append(std::slice::from_ref(&r)).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Tear 3 bytes off the last frame.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert!(matches!(scan.stop, Some(frame::Truncation::Torn { .. })));
        assert_eq!(scan.total_bytes, (full.len() - 3) as u64);
        assert!(scan.valid_bytes < scan.total_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_frame_stops_the_scan() {
        let dir = tmp_dir("corrupt");
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::open(&path, 0, 1, CrashSpec::default()).unwrap();
        let recs = sample_records();
        w.append(&recs[..1]).unwrap();
        let first_len = std::fs::metadata(&path).unwrap().len() as usize;
        w.append(&recs[1..2]).unwrap();
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        data[first_len + 10] ^= 0xff; // flip a byte inside the 2nd frame body
        std::fs::write(&path, &data).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(
            scan.stop,
            Some(frame::Truncation::BadChecksum { .. })
        ));
        assert_eq!(scan.valid_bytes, first_len as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_after_n_bytes_tears_exactly_there() {
        let dir = tmp_dir("crashbyte");
        let path = dir.join(WAL_FILE);
        // First, measure a clean run.
        let mut w = WalWriter::open(&path, 0, 1, CrashSpec::default()).unwrap();
        for r in sample_records() {
            w.append(std::slice::from_ref(&r)).unwrap();
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        drop(w);
        std::fs::remove_file(&path).unwrap();

        let limit = clean_len / 2;
        let mut w = WalWriter::open(&path, 0, 1, CrashSpec::after_wal_bytes(limit)).unwrap();
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
        assert_eq!(scan.records.len(), acked);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inert_spec_never_fires() {
        assert!(CrashSpec::default().is_inert());
        assert!(!CrashSpec::after_wal_bytes(10).is_inert());
    }
}
