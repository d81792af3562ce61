//! Immutable sorted segment files — the on-disk form of a flushed region.
//!
//! A flush writes each region's memstore to one segment, HBase-HFile
//! style: a magic header, a sequence of *blocks* (each holding up to
//! [`BLOCK_ROWS`] rows, one [`crate::frame`] each), and a
//! *trailer* carrying the region metadata (table, id, key range), a block
//! index of `(first_key, offset, len)` entries, and the row count. The
//! trailer is itself one frame and located by a fixed-size footer
//! (`trailer_offset · tail magic`) at the end of the file, so a reader
//! can validate a segment back-to-front without trusting anything
//! unchecked.
//!
//! Segments are only ever referenced from a committed MANIFEST, which is
//! swapped in atomically (write-temp-then-rename) *after* every segment
//! of the flush generation is fully on disk. A crash mid-flush therefore
//! leaves orphan partial files that no manifest points at; recovery
//! ignores them and `store_fsck` reports them.
//!
//! Unlike a torn WAL tail (an expected crash artifact, silently
//! truncated), a checksum failure inside a manifest-referenced segment
//! means a *committed* file rotted at rest — that surfaces as a typed
//! [`SegmentError`], never as silent data loss.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use bytes::{BufMut, Bytes};

use crate::encoding::CodecError;
use crate::frame::{self, put_bytes, put_str, Cursor};
use crate::kv::CellVersion;
use crate::region::{KeyRange, RowData};

/// Rows per block. Small enough that a checksum failure localizes to a
/// handful of rows, large enough to amortize the frame overhead.
pub const BLOCK_ROWS: usize = 32;

const MAGIC_HEAD: u32 = 0x5347_3144; // "SG1D"
const MAGIC_TAIL: u32 = 0x5347_5452; // "SGTR"
/// `trailer_offset u64 · tail magic u32`, the only bytes outside every CRC.
const FOOTER_LEN: u64 = 12;

/// Errors reading a segment file.
#[derive(Debug)]
pub enum SegmentError {
    Io(std::io::Error),
    /// Structural damage: bad magic, truncated footer, checksum
    /// mismatch, or undecodable content.
    Corrupt {
        file: String,
        detail: String,
    },
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment I/O error: {e}"),
            SegmentError::Corrupt { file, detail } => {
                write!(f, "segment `{file}` is corrupt: {detail}")
            }
        }
    }
}
impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegmentError::Io(e) => Some(e),
            SegmentError::Corrupt { .. } => None,
        }
    }
}
impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> Self {
        SegmentError::Io(e)
    }
}

/// Region metadata carried in a segment trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    pub table: String,
    pub region_id: u64,
    pub range: KeyRange,
    pub row_count: u64,
    /// Block index: first row key, byte offset of the block's length
    /// prefix, and framed length (header + body).
    pub blocks: Vec<(Bytes, u64, u32)>,
}

/// A fully loaded and checksum-verified segment.
#[derive(Debug)]
pub struct LoadedSegment {
    pub meta: SegmentMeta,
    pub rows: BTreeMap<Bytes, RowData>,
}

/// Serialize one region's rows into segment bytes. Separated from the
/// file write so the flush path can tear the byte stream at an injected
/// crash point.
pub fn encode_segment(
    table: &str,
    region_id: u64,
    range: &KeyRange,
    rows: &BTreeMap<Bytes, RowData>,
) -> Vec<u8> {
    let mut out = MAGIC_HEAD.to_be_bytes().to_vec();
    let mut blocks: Vec<(Bytes, u64, u32)> = Vec::new();
    let entries: Vec<(&Bytes, &RowData)> = rows.iter().collect();
    for chunk in entries.chunks(BLOCK_ROWS) {
        let offset = out.len();
        frame::encode(&mut out, |body| {
            body.put_u32(chunk.len() as u32);
            for (key, data) in chunk {
                encode_row(body, key, data);
            }
        });
        let framed_len = (out.len() - offset) as u32;
        blocks.push((chunk[0].0.clone(), offset as u64, framed_len));
    }

    // Trailer: region metadata + block index, one frame.
    let trailer_offset = out.len() as u64;
    frame::encode(&mut out, |trailer| {
        put_str(trailer, table);
        trailer.put_u64(region_id);
        put_bytes(trailer, &range.start);
        match &range.end {
            Some(end) => {
                trailer.put_u8(1);
                put_bytes(trailer, end);
            }
            None => trailer.put_u8(0),
        }
        trailer.put_u64(rows.len() as u64);
        trailer.put_u32(blocks.len() as u32);
        for (first_key, offset, len) in &blocks {
            put_bytes(trailer, first_key);
            trailer.put_u64(*offset);
            trailer.put_u32(*len);
        }
    });
    // Fixed footer: where the trailer starts, and the tail magic.
    out.put_u64(trailer_offset);
    out.put_u32(MAGIC_TAIL);
    out
}

/// Write a segment file (complete, no crash injection — the flush path
/// handles tearing itself).
pub fn write_segment(
    path: &Path,
    table: &str,
    region_id: u64,
    range: &KeyRange,
    rows: &BTreeMap<Bytes, RowData>,
) -> Result<(), SegmentError> {
    std::fs::write(path, encode_segment(table, region_id, range, rows))?;
    Ok(())
}

/// Load and fully verify a segment: footer magic, trailer checksum, then
/// every block checksum, then row decoding — [`SegmentReader::open`]
/// followed by every [`SegmentReader::read_block`], so the eager and the
/// lazy path cannot disagree about what a valid segment is.
pub fn read_segment(path: &Path) -> Result<LoadedSegment, SegmentError> {
    let reader = SegmentReader::open(path)?;
    let mut rows = BTreeMap::new();
    for idx in 0..reader.block_count() {
        rows.extend(reader.read_block(idx)?);
    }
    if rows.len() as u64 != reader.meta.row_count {
        return Err(SegmentError::Corrupt {
            file: reader.file_name,
            detail: format!(
                "row count mismatch: trailer says {}, blocks held {}",
                reader.meta.row_count,
                rows.len()
            ),
        });
    }
    Ok(LoadedSegment {
        meta: reader.meta,
        rows,
    })
}

/// Verify a segment *including every cell-version checksum*. Block CRCs
/// catch rot since the flush, but a cell checksum persisted verbatim can
/// record corruption that predates the flush (the cell was already bad
/// in the memstore). `store_fsck` and the heal path use this stronger
/// scrub so a replica is only ever repaired from a provably clean peer.
pub fn verify_segment_deep(path: &Path) -> Result<SegmentMeta, SegmentError> {
    let name = file_name_of(path);
    let loaded = read_segment(path)?;
    for (key, data) in &loaded.rows {
        for cols in data.values() {
            for (col, versions) in cols {
                for v in versions {
                    if !v.verify() {
                        return Err(SegmentError::Corrupt {
                            file: name,
                            detail: format!(
                                "cell checksum mismatch at row {:?} column {:?} ts {}",
                                String::from_utf8_lossy(key),
                                String::from_utf8_lossy(col),
                                v.timestamp
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(loaded.meta)
}

/// Monotonic ids for [`SegmentReader`]s, so the block cache can key
/// entries by `(reader, block)` without hashing file paths.
static NEXT_READER_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// A lazily read segment: the trailer (and thus the block index) is
/// verified at open, but block bodies stay on disk until someone asks
/// for them. [`SegmentReader::read_block`] seeks to one framed block,
/// verifies its CRC, and decodes just those ≤[`BLOCK_ROWS`] rows — the
/// read-amplification unit behind [`crate::BlockCache`].
///
/// [`read_segment`] (fsck's full verification) is this reader driven over
/// every block; a reader only defers *when* a rotted block surfaces (at
/// first read instead of at open), never whether it does.
#[derive(Debug)]
pub struct SegmentReader {
    id: u64,
    file_name: String,
    meta: SegmentMeta,
    file: parking_lot::Mutex<std::fs::File>,
}

/// What [`SegmentError::Corrupt`] calls a segment: its file name, as the
/// manifest lists it.
fn file_name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

impl SegmentReader {
    /// Open a segment, verifying header magic, footer, and the trailer
    /// checksum — but no block bodies.
    pub fn open(path: &Path) -> Result<SegmentReader, SegmentError> {
        let file_name = file_name_of(path);
        let corrupt = |detail: String| SegmentError::Corrupt {
            file: file_name.clone(),
            detail,
        };
        let mut file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < 4 + FOOTER_LEN {
            return Err(corrupt(format!("file too short ({file_len} bytes)")));
        }
        let mut head = [0u8; 4];
        file.read_exact(&mut head)?;
        if head != MAGIC_HEAD.to_be_bytes() {
            return Err(corrupt("bad header magic".to_string()));
        }
        let mut footer = [0u8; FOOTER_LEN as usize];
        file.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        file.read_exact(&mut footer)?;
        let (offset, magic) = footer.split_first_chunk::<8>().expect("a 12-byte footer");
        if magic != MAGIC_TAIL.to_be_bytes() {
            return Err(corrupt(
                "bad tail magic (torn or overwritten file)".to_string(),
            ));
        }
        // The footer is outside every CRC: a flipped bit in it must not
        // overflow the arithmetic that locates the trailer.
        let trailer_offset = u64::from_be_bytes(*offset);
        let trailer_end = file_len - FOOTER_LEN;
        if trailer_offset
            .checked_add(frame::HEADER_LEN as u64)
            .is_none_or(|end| end > trailer_end)
        {
            return Err(corrupt(format!(
                "trailer offset {trailer_offset} out of range"
            )));
        }
        let mut t = vec![0u8; (trailer_end - trailer_offset) as usize];
        file.seek(SeekFrom::Start(trailer_offset))?;
        file.read_exact(&mut t)?;
        let tbody = frame::verify_exact(&t).map_err(|d| corrupt(format!("trailer: {d}")))?;
        let meta = decode_trailer(tbody).map_err(|e| corrupt(format!("trailer: {e}")))?;
        for (i, (_, offset, len)) in meta.blocks.iter().enumerate() {
            if (*len as usize) < frame::HEADER_LEN
                || offset
                    .checked_add(*len as u64)
                    .is_none_or(|end| end > trailer_offset)
            {
                return Err(corrupt(format!("block {i} overruns the trailer")));
            }
        }
        Ok(SegmentReader {
            id: NEXT_READER_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            file_name,
            meta,
            file: parking_lot::Mutex::new(file),
        })
    }

    /// Process-unique reader id (the block cache's key namespace).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The segment's file name (what the manifest lists).
    pub fn file_name(&self) -> &str {
        &self.file_name
    }

    /// The trailer metadata verified at open.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// Number of blocks in this segment.
    pub fn block_count(&self) -> usize {
        self.meta.blocks.len()
    }

    /// Framed on-disk size of block `idx` (the cache's byte cost).
    pub fn block_bytes(&self, idx: usize) -> u64 {
        self.meta.blocks[idx].2 as u64
    }

    /// Index of the block that could hold `key`, or `None` when the key
    /// sorts before the segment's first row.
    pub fn block_for(&self, key: &[u8]) -> Option<usize> {
        let i = self
            .meta
            .blocks
            .partition_point(|(first, _, _)| first.as_ref() <= key);
        i.checked_sub(1)
    }

    /// Range of block indices whose rows can intersect `[start, end)`.
    pub fn blocks_overlapping(&self, start: &[u8], end: Option<&[u8]>) -> std::ops::Range<usize> {
        let lo = self
            .meta
            .blocks
            .partition_point(|(first, _, _)| first.as_ref() <= start)
            .saturating_sub(1);
        let hi = match end {
            Some(end) => self
                .meta
                .blocks
                .partition_point(|(first, _, _)| first.as_ref() < end),
            None => self.meta.blocks.len(),
        };
        lo..hi.max(lo)
    }

    /// Read, CRC-verify, and decode one block. This is the only place
    /// where block bodies leave the disk; corruption surfaces here as a
    /// typed error.
    pub fn read_block(&self, idx: usize) -> Result<BTreeMap<Bytes, RowData>, SegmentError> {
        let corrupt = |detail: String| SegmentError::Corrupt {
            file: self.file_name.clone(),
            detail,
        };
        let (first_key, offset, len) = &self.meta.blocks[idx];
        let mut framed = vec![0u8; *len as usize];
        {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(*offset))?;
            file.read_exact(&mut framed)?;
        }
        let body = frame::verify_exact(&framed).map_err(|d| {
            corrupt(format!(
                "block {idx}: {d} (first key {:?})",
                String::from_utf8_lossy(first_key)
            ))
        })?;
        decode_block(body).map_err(|e| corrupt(format!("block {idx}: {e}")))
    }
}

fn encode_row(buf: &mut Vec<u8>, key: &Bytes, data: &RowData) {
    put_bytes(buf, key);
    buf.put_u32(data.len() as u32);
    for (family, cols) in data {
        put_str(buf, family);
        buf.put_u32(cols.len() as u32);
        for (col, versions) in cols {
            put_bytes(buf, col);
            buf.put_u32(versions.len() as u32);
            for v in versions {
                buf.put_u64(v.timestamp);
                // The write-time checksum is persisted verbatim (not
                // recomputed), so at-rest corruption detection spans the
                // flush: a value rotted on disk still fails verify().
                buf.put_u32(v.checksum);
                put_bytes(buf, &v.value);
            }
        }
    }
}

/// Shortest encodings, for [`Cursor::count`]: a row, family or column is
/// at least its name's length prefix plus the count of what it holds; a
/// cell version is `timestamp · checksum · value len`; a block-index
/// entry is `first-key len · offset · framed len`.
const MIN_NESTED_BYTES: usize = 8;
const MIN_VERSION_BYTES: usize = 16;
const MIN_INDEX_ENTRY_BYTES: usize = 16;

fn decode_block(body: &[u8]) -> Result<BTreeMap<Bytes, RowData>, CodecError> {
    let mut c = Cursor::new(body);
    let mut rows = BTreeMap::new();
    for _ in 0..c.count(MIN_NESTED_BYTES)? {
        let key = c.bytes()?;
        let mut data = RowData::new();
        for _ in 0..c.count(MIN_NESTED_BYTES)? {
            let family = c.str()?;
            let mut cols = BTreeMap::new();
            for _ in 0..c.count(MIN_NESTED_BYTES)? {
                let col = c.bytes()?;
                let versions = c.seq(MIN_VERSION_BYTES, |c| {
                    Ok(CellVersion {
                        timestamp: c.u64()?,
                        checksum: c.u32()?,
                        value: c.bytes()?,
                    })
                })?;
                cols.insert(col, versions);
            }
            data.insert(family, cols);
        }
        rows.insert(key, data);
    }
    c.finish()?;
    Ok(rows)
}

fn decode_trailer(body: &[u8]) -> Result<SegmentMeta, CodecError> {
    let mut c = Cursor::new(body);
    let table = c.str()?;
    let region_id = c.u64()?;
    let start = c.bytes()?;
    let end = match c.u8()? {
        0 => None,
        1 => Some(c.bytes()?),
        t => return Err(CodecError::BadTag(t)),
    };
    let row_count = c.u64()?;
    let blocks = c.seq(MIN_INDEX_ENTRY_BYTES, |c| {
        Ok((c.bytes()?, c.u64()?, c.u32()?))
    })?;
    c.finish()?;
    Ok(SegmentMeta {
        table,
        region_id,
        range: KeyRange { start, end },
        row_count,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows(n: usize) -> BTreeMap<Bytes, RowData> {
        let mut rows = BTreeMap::new();
        for i in 0..n {
            let mut cols = BTreeMap::new();
            cols.insert(
                Bytes::from("c"),
                vec![
                    CellVersion::new(2 * i as u64 + 2, Bytes::from(format!("v{i}-new"))),
                    CellVersion::new(2 * i as u64 + 1, Bytes::from(format!("v{i}-old"))),
                ],
            );
            let mut data: RowData = BTreeMap::new();
            data.insert("f".to_string(), cols);
            rows.insert(Bytes::from(format!("row{i:04}")), data);
        }
        rows
    }

    fn tmp_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "cfstore-seg-{tag}-{}-{:?}.seg",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn segment_roundtrip_multi_block() {
        let path = tmp_file("roundtrip");
        let rows = sample_rows(100); // > BLOCK_ROWS, multiple blocks
        let range = KeyRange::all();
        write_segment(&path, "Jobs", 7, &range, &rows).unwrap();
        let loaded = read_segment(&path).unwrap();
        assert_eq!(loaded.meta.table, "Jobs");
        assert_eq!(loaded.meta.region_id, 7);
        assert_eq!(loaded.meta.row_count, 100);
        assert!(loaded.meta.blocks.len() > 1);
        assert_eq!(loaded.rows, rows);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_region_produces_readable_segment() {
        let path = tmp_file("empty");
        let rows = BTreeMap::new();
        write_segment(&path, "t", 1, &KeyRange::all(), &rows).unwrap();
        let loaded = read_segment(&path).unwrap();
        assert_eq!(loaded.meta.row_count, 0);
        assert!(loaded.rows.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bounded_range_roundtrips() {
        let path = tmp_file("range");
        let range = KeyRange {
            start: Bytes::from("m"),
            end: Some(Bytes::from("t")),
        };
        write_segment(&path, "t", 3, &range, &sample_rows(5)).unwrap();
        let loaded = read_segment(&path).unwrap();
        assert_eq!(loaded.meta.range, range);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_block_byte_is_a_typed_corruption() {
        let path = tmp_file("rot");
        write_segment(&path, "t", 1, &KeyRange::all(), &sample_rows(40)).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data[20] ^= 0xff; // inside the first block's body
        std::fs::write(&path, &data).unwrap();
        match read_segment(&path) {
            Err(SegmentError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_segment_is_a_typed_corruption() {
        let path = tmp_file("tornseg");
        write_segment(&path, "t", 1, &KeyRange::all(), &sample_rows(40)).unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() / 2]).unwrap();
        assert!(matches!(
            read_segment(&path),
            Err(SegmentError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    fn assert_corrupt(path: &Path, needle: &str) {
        for result in [
            SegmentReader::open(path).map(|_| ()),
            read_segment(path).map(|_| ()),
        ] {
            match result {
                Err(SegmentError::Corrupt { detail, .. }) => {
                    assert!(detail.contains(needle), "{detail}")
                }
                other => panic!("expected corruption, got {other:?}"),
            }
        }
    }

    /// The footer sits outside every CRC; all-ones in its offset field
    /// used to overflow `trailer_offset + 8`.
    #[test]
    fn all_ones_trailer_offset_is_a_typed_corruption() {
        let path = tmp_file("ffoffset");
        write_segment(&path, "t", 1, &KeyRange::all(), &sample_rows(40)).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 12..n - 4].fill(0xff);
        std::fs::write(&path, &data).unwrap();
        assert_corrupt(&path, "trailer offset");
        std::fs::remove_file(&path).unwrap();
    }

    /// Same arithmetic one level in: a CRC-valid trailer whose block
    /// index points at `u64::MAX` used to overflow `offset + len`.
    #[test]
    fn block_index_entry_at_u64_max_is_a_typed_corruption() {
        let path = tmp_file("ffblock");
        let mut data = MAGIC_HEAD.to_be_bytes().to_vec();
        let trailer_offset = data.len() as u64;
        frame::encode(&mut data, |t| {
            put_str(t, "t");
            t.put_u64(1);
            put_bytes(t, b"");
            t.put_u8(0);
            t.put_u64(0);
            t.put_u32(1);
            put_bytes(t, b"k");
            t.put_u64(u64::MAX);
            t.put_u32(16);
        });
        data.put_u64(trailer_offset);
        data.put_u32(MAGIC_TAIL);
        std::fs::write(&path, &data).unwrap();
        assert_corrupt(&path, "overruns the trailer");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lazy_reader_reads_blocks_identical_to_full_materialization() {
        let path = tmp_file("lazy");
        let rows = sample_rows(100);
        write_segment(&path, "Jobs", 7, &KeyRange::all(), &rows).unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        assert_eq!(reader.meta().row_count, 100);
        assert!(reader.block_count() > 1);
        let mut merged = BTreeMap::new();
        for idx in 0..reader.block_count() {
            merged.extend(reader.read_block(idx).unwrap());
        }
        assert_eq!(
            merged, rows,
            "lazy block reads must materialize bit-identically"
        );

        // Point lookups route to the single covering block.
        let probe = Bytes::from("row0050");
        let idx = reader.block_for(&probe).unwrap();
        assert!(reader.read_block(idx).unwrap().contains_key(&probe));
        assert!(reader.block_for(b"a-before-everything").is_none());
        // Range pruning covers exactly the overlapping blocks.
        let r = reader.blocks_overlapping(b"row0050", Some(b"row0060"));
        assert!(r.len() <= 2 && !r.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lazy_reader_surfaces_block_rot_on_read_not_open() {
        let path = tmp_file("lazyrot");
        write_segment(&path, "t", 1, &KeyRange::all(), &sample_rows(40)).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data[20] ^= 0xff; // inside the first block's body
        std::fs::write(&path, &data).unwrap();
        let reader = SegmentReader::open(&path).expect("trailer is intact");
        match reader.read_block(0) {
            Err(SegmentError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        // The other block is untouched and still reads cleanly.
        assert!(reader.read_block(1).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn persisted_cell_checksums_survive_the_roundtrip() {
        let path = tmp_file("crc");
        let mut rows = sample_rows(1);
        // Pre-corrupt a cell in memory (value no longer matches checksum).
        let data = rows.values_mut().next().unwrap();
        let v = &mut data.get_mut("f").unwrap().get_mut(b"c".as_ref()).unwrap()[0];
        v.value = Bytes::from("tampered");
        write_segment(&path, "t", 1, &KeyRange::all(), &rows).unwrap();
        let loaded = read_segment(&path).unwrap();
        let cell = &loaded.rows.values().next().unwrap()["f"][b"c".as_ref()][0];
        assert!(!cell.verify(), "stored checksum must travel verbatim");
        std::fs::remove_file(&path).unwrap();
    }
}
