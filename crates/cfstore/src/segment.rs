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
use std::ops::Range;
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
        rows.extend(reader.read_block(idx)?.rows());
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

    /// Read, CRC-verify, and decode one block. The body is frozen once
    /// into the [`Block`]'s one buffer, and its table holds offsets into it.
    /// This is the only place where block bodies leave the disk;
    /// corruption surfaces here as a typed error.
    pub fn read_block(&self, idx: usize) -> Result<Block, SegmentError> {
        let corrupt = |detail: String| SegmentError::Corrupt {
            file: self.file_name.clone(),
            detail,
        };
        let (first_key, offset, len) = &self.meta.blocks[idx];
        let mut framed = vec![0; *len as usize];
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
        decode_block(Bytes::copy_from_slice(body)).map_err(|e| corrupt(format!("block {idx}: {e}")))
    }
}

/// `(offset, length)` of a [`Block`]'s field in its buffer, which is one
/// frame body, so both fit in `u32`.
type Field = (u32, u32);

fn at(buf: &[u8], (offset, len): Field) -> &[u8] {
    &buf[offset as usize..][..len as usize]
}

/// One cell version of a [`Block`]. The versions of a column share its
/// `column` field, and the columns of a family its `family` field.
#[derive(Debug, PartialEq, Eq)]
struct Cell {
    family: Field,
    column: Field,
    value: Field,
    timestamp: u64,
    checksum: u32,
}

/// A decoded segment block: its body in one buffer, one table of its cell
/// versions in block order (keys, families and columns ascending, versions
/// newest first) whose fields are offsets into that buffer, and a row
/// index of each row's key and first cell. Keys, columns and values
/// become `Bytes` sharing the buffer only where a read hands them out;
/// family names were checked to be UTF-8 when the block was decoded.
#[derive(Debug, PartialEq, Eq)]
pub struct Block {
    buf: Bytes,
    rows: Vec<(Field, usize)>,
    cells: Vec<Cell>,
}

impl Block {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The one place a part of a block becomes `Bytes`: a slice of its
    /// buffer. `part` must lie in the buffer, as every slice the block
    /// hands out does.
    pub(crate) fn cut(&self, part: &[u8]) -> Bytes {
        self.buf.slice_ref(part)
    }

    /// The index of the row keyed `key`, if the block holds it.
    pub fn find(&self, key: &[u8]) -> Option<usize> {
        let found = self.rows.binary_search_by(|r| at(&self.buf, r.0).cmp(key));
        found.ok()
    }

    /// The indices of the rows whose keys lie in `[start, end)`.
    pub fn range(&self, start: &[u8], end: Option<&[u8]>) -> Range<usize> {
        let below = |bound: &[u8]| self.rows.partition_point(|r| at(&self.buf, r.0) < bound);
        let lo = below(start);
        lo..end.map_or(self.len(), below).max(lo)
    }

    /// Row `i`'s key.
    pub fn key(&self, i: usize) -> &[u8] {
        at(&self.buf, self.rows[i].0)
    }

    /// Row `i`'s cell versions in block order.
    fn cells_of(&self, i: usize) -> &[Cell] {
        let end = self.rows.get(i + 1).map_or(self.cells.len(), |r| r.1);
        &self.cells[self.rows[i].1..end]
    }

    /// The latest version of each of row `i`'s columns, families first:
    /// its family, column and value as slices of the buffer, its timestamp
    /// and its write-time checksum.
    pub(crate) fn latest(&self, i: usize) -> impl Iterator<Item = (&[u8], &[u8], &[u8], u64, u32)> {
        let columns = self.cells_of(i).chunk_by(|a, b| a.column == b.column);
        columns.map(|versions| {
            let c = &versions[0];
            let field = |f| at(&self.buf, f);
            (
                field(c.family),
                field(c.column),
                field(c.value),
                c.timestamp,
                c.checksum,
            )
        })
    }

    /// Every row with every version, as a memstore holds it: what a flush
    /// merges and a heal copies, and [`read_segment`]'s rows.
    pub fn rows(&self) -> impl Iterator<Item = (Bytes, RowData)> + '_ {
        let cut = |f| self.cut(at(&self.buf, f));
        let same_family = |a: &Cell, b: &Cell| a.family == b.family;
        let same_column = |a: &Cell, b: &Cell| a.column == b.column;
        (0..self.len()).map(move |i| {
            let cells = self.cells_of(i);
            let mut data = RowData::with_capacity(cells.chunk_by(same_family).count());
            for family in cells.chunk_by(same_family) {
                let mut columns = Vec::with_capacity(family.chunk_by(same_column).count());
                columns.extend(family.chunk_by(same_column).map(|versions| {
                    let column = cut(versions[0].column);
                    let versions = versions.iter().map(|c| CellVersion {
                        timestamp: c.timestamp,
                        checksum: c.checksum,
                        value: cut(c.value),
                    });
                    (column, versions.collect())
                }));
                let name = String::from_utf8_lossy(at(&self.buf, family[0].family));
                data.push((name.into_owned(), columns));
            }
            (self.cut(self.key(i)), data)
        })
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

/// Decode a block body into its flat table, sized exactly by a first
/// walk over it: no count read off the body sizes anything.
fn decode_block(buf: Bytes) -> Result<Block, CodecError> {
    let (mut row_count, mut cell_count) = (0, 0);
    walk(&buf, |key, _| {
        row_count += usize::from(key.is_some());
        cell_count += 1;
    })?;
    let mut rows = Vec::with_capacity(row_count);
    let mut cells = Vec::with_capacity(cell_count);
    walk(&buf, |key, cell| {
        if let Some(key) = key {
            rows.push((key, cells.len()));
        }
        cells.push(cell);
    })?;
    Ok(Block { buf, rows, cells })
}

/// Walk a block body's cell versions in block order, handing each to
/// `each` with its row's key if it is the row's first. A block is what
/// [`encode_segment`] writes from a memstore: keys, families and columns
/// ascending and unrepeated, none of them empty; anything else is
/// refused.
fn walk(buf: &[u8], mut each: impl FnMut(Option<Field>, Cell)) -> Result<(), CodecError> {
    let mut c = Cursor::new(buf);
    let mut last_key = None;
    for _ in 0..c.count(MIN_NESTED_BYTES)? {
        let mut key = Some(after(buf, &mut last_key, c.span()?)?);
        let mut last_family = None;
        for _ in 0..nonempty(&mut c, MIN_NESTED_BYTES)? {
            let family = after(buf, &mut last_family, c.span()?)?;
            std::str::from_utf8(at(buf, family)).map_err(|_| CodecError::BadUtf8)?;
            let mut last_column = None;
            for _ in 0..nonempty(&mut c, MIN_NESTED_BYTES)? {
                let column = after(buf, &mut last_column, c.span()?)?;
                for _ in 0..nonempty(&mut c, MIN_VERSION_BYTES)? {
                    let (timestamp, checksum, value) = (c.u64()?, c.u32()?, c.span()?);
                    let value = (value.start as u32, value.len() as u32);
                    let cell = Cell {
                        family,
                        column,
                        value,
                        timestamp,
                        checksum,
                    };
                    each(key.take(), cell);
                }
            }
        }
    }
    c.finish()
}

/// `r`, refused unless it sorts after `last`, which it then becomes.
fn after(buf: &[u8], last: &mut Option<Field>, r: Range<usize>) -> Result<Field, CodecError> {
    let next = (r.start as u32, r.len() as u32);
    let sorted = last
        .replace(next)
        .is_none_or(|last| at(buf, last) < at(buf, next));
    sorted
        .then_some(next)
        .ok_or(CodecError::Malformed("keys out of order"))
}

/// The checked count of a sequence no writer leaves empty.
fn nonempty(c: &mut Cursor, min_elem_bytes: usize) -> Result<usize, CodecError> {
    match c.count(min_elem_bytes)? {
        0 => Err(CodecError::Malformed("an empty row, family or column")),
        n => Ok(n),
    }
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

    /// The nested decode the flat [`Block`] replaced, kept as its oracle:
    /// every row in a map of families, every family a map of columns,
    /// every column a `Vec` of its versions. It sorts what it is given and
    /// keeps the last of a repeated key, and it accepts empty rows,
    /// families and columns, none of which a writer produces.
    fn oracle(body: &[u8]) -> Result<BTreeMap<Bytes, RowData>, CodecError> {
        let mut c = Cursor::new(body);
        let mut rows = BTreeMap::new();
        for _ in 0..c.count(MIN_NESTED_BYTES)? {
            let key = c.bytes()?;
            let mut data = Nested::new();
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
            rows.insert(key, flat(data));
        }
        c.finish()?;
        Ok(rows)
    }

    /// A row as the oracle builds it, in maps.
    type Nested = BTreeMap<String, BTreeMap<Bytes, Vec<CellVersion>>>;

    /// A nested row in the stored layout.
    fn flat(data: Nested) -> RowData {
        let columns =
            |(family, cols): (String, BTreeMap<_, _>)| (family, cols.into_iter().collect());
        data.into_iter().map(columns).collect()
    }

    /// A block body as [`encode_segment`] writes one.
    fn block_body(rows: &BTreeMap<Bytes, RowData>) -> Vec<u8> {
        let mut body = Vec::new();
        body.put_u32(rows.len() as u32);
        for (key, data) in rows {
            encode_row(&mut body, key, data);
        }
        body
    }

    /// A random row: 1–3 families of 1–4 columns of 1–3 versions, names
    /// and values drawn from small pools that hold the empty string.
    /// `rot` is whether each version's stored checksum is off by one.
    type RowShape = Vec<(u8, Vec<(u8, Vec<(u8, bool)>)>)>;

    fn build_rows(shape: &[(u8, RowShape)]) -> BTreeMap<Bytes, RowData> {
        const KEYS: [&str; 6] = ["", "a", "b", "b\0", "row", "\u{ff}"];
        const FAMILIES: [&str; 3] = ["f", "", "cf"];
        const COLUMNS: [&[u8]; 5] = [b"", b"c", b"col", b"d", b"\xff"];
        let mut ts = 0;
        let mut rows = BTreeMap::new();
        for (key, families) in shape {
            let key = format!("{}{key}", KEYS[*key as usize % KEYS.len()]);
            let mut data = Nested::new();
            for (family, columns) in families {
                let cols = data
                    .entry(FAMILIES[*family as usize % 3].to_string())
                    .or_default();
                for (column, versions) in columns {
                    let versions = versions
                        .iter()
                        .map(|&(len, rot)| {
                            ts += 1;
                            let value = Bytes::from(vec![ts as u8; len as usize]);
                            let mut v = CellVersion::new(1000 - ts, value);
                            v.checksum ^= u32::from(rot);
                            v
                        })
                        .collect();
                    cols.insert(Bytes::from(COLUMNS[*column as usize % 5]), versions);
                }
            }
            rows.insert(Bytes::from(key), flat(data));
        }
        rows
    }

    /// Every cell of a decoded block, as the oracle holds them, with each
    /// column's latest version first.
    fn latest_of_oracle(data: &RowData) -> Vec<(Vec<u8>, Bytes, CellVersion)> {
        let mut out = Vec::new();
        for (family, cols) in data {
            for (column, versions) in cols {
                let v = versions[0].clone();
                out.push((family.as_bytes().to_vec(), column.clone(), v));
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The flat table reads exactly what the nested decode reads: every
        /// row in order with every version, each point lookup, each range
        /// and each row's latest versions, with each cell's checksum
        /// verdict. Every row it hands a promotion is exactly sized.
        #[test]
        fn a_flat_block_reads_as_the_nested_oracle_decodes(
            shape in proptest::collection::vec(
                (
                    0u8..64,
                    proptest::collection::vec(
                        (
                            0u8..3,
                            proptest::collection::vec(
                                (0u8..5, proptest::collection::vec((0u8..4, proptest::arbitrary::any::<bool>()), 1..4)),
                                1..5,
                            ),
                        ),
                        1..4,
                    ),
                ),
                1..33,
            ),
            probes in proptest::collection::vec((0u8..24, 0u8..24), 1..8),
        ) {
            let rows = build_rows(&shape);
            let body = block_body(&rows);
            let want = oracle(&body).unwrap();
            proptest::prop_assert_eq!(&want, &rows);
            let block = decode_block(Bytes::copy_from_slice(&body)).unwrap();

            let got: Vec<(Bytes, RowData)> = block.rows().collect();
            let exact = got.iter().all(|(_, data)| crate::region::tests::exactly_sized(data));
            proptest::prop_assert!(exact, "a promoted row has room to spare");
            let want_rows: Vec<(Bytes, RowData)> = want.clone().into_iter().collect();
            proptest::prop_assert_eq!(got, want_rows);
            proptest::prop_assert_eq!(block.len(), want.len());
            for (i, (key, data)) in want.iter().enumerate() {
                proptest::prop_assert_eq!(block.find(key), Some(i));
                proptest::prop_assert_eq!(block.key(i), key.as_ref());
                let latest: Vec<_> = block
                    .latest(i)
                    .map(|(f, c, value, timestamp, checksum)| {
                        let value = block.cut(value);
                        (f.to_vec(), block.cut(c), CellVersion { timestamp, value, checksum })
                    })
                    .collect();
                let verdicts: Vec<bool> = latest.iter().map(|(_, _, v)| v.verify()).collect();
                let oracle_latest = latest_of_oracle(data);
                let oracle_verdicts: Vec<bool> =
                    oracle_latest.iter().map(|(_, _, v)| v.verify()).collect();
                proptest::prop_assert_eq!(latest, oracle_latest);
                proptest::prop_assert_eq!(verdicts, oracle_verdicts);
            }
            let probe_key = |n: u8| Bytes::from(format!("{}{}", ["", "a", "b", "row"][n as usize % 4], n / 4));
            for &(a, b) in &probes {
                let (start, end) = (probe_key(a), probe_key(b));
                proptest::prop_assert_eq!(block.find(&start).is_some(), want.contains_key(&start));
                for end in [Some(&end), None] {
                    let got: Vec<Bytes> = block
                        .range(&start, end.map(|e| e.as_ref()))
                        .map(|i| Bytes::copy_from_slice(block.key(i)))
                        .collect();
                    let want_keys: Vec<Bytes> = match end {
                        Some(end) if *end <= start => Vec::new(),
                        Some(end) => want.range(start.clone()..end.clone()).map(|(k, _)| k.clone()).collect(),
                        None => want.range(start.clone()..).map(|(k, _)| k.clone()).collect(),
                    };
                    proptest::prop_assert_eq!(got, want_keys);
                }
            }
        }
    }

    /// What no writer produces is refused, though the nested decode read
    /// it: rows, families or columns out of order or repeated, and an
    /// empty row, family or column. The flat table could not hold them
    /// faithfully — a point lookup bisects the keys, and an empty family
    /// or column leaves no cell behind.
    #[test]
    fn a_block_no_writer_produces_is_refused() {
        // Each row: key, then families of columns of (value) versions.
        type Shape<'a> = &'a [(&'a str, &'a [(&'a str, &'a [(&'a str, usize)])])];
        let body = |rows: Shape| {
            let mut b = Vec::new();
            b.put_u32(rows.len() as u32);
            for (key, families) in rows {
                put_bytes(&mut b, key.as_bytes());
                b.put_u32(families.len() as u32);
                for (family, columns) in *families {
                    put_str(&mut b, family);
                    b.put_u32(columns.len() as u32);
                    for (column, versions) in *columns {
                        put_bytes(&mut b, column.as_bytes());
                        b.put_u32(*versions as u32);
                        for ts in 0..*versions {
                            b.put_u64(9 - ts as u64);
                            b.put_u32(0);
                            put_bytes(&mut b, b"v");
                        }
                    }
                }
            }
            b
        };
        let fam: &[(&str, &[(&str, usize)])] = &[("f", &[("c", 1)])];
        let refused: [(Shape, &str); 8] = [
            (&[("b", fam), ("a", fam)], "out of order"),
            (&[("a", fam), ("a", fam)], "out of order"),
            (
                &[("a", &[("g", &[("c", 1)]), ("f", &[("c", 1)])])],
                "out of order",
            ),
            (
                &[("a", &[("f", &[("c", 1)]), ("f", &[("d", 1)])])],
                "out of order",
            ),
            (&[("a", &[("f", &[("d", 1), ("c", 1)])])], "out of order"),
            (&[("a", &[])], "empty"),
            (&[("a", &[("f", &[])])], "empty"),
            (&[("a", &[("f", &[("c", 0)])])], "empty"),
        ];
        for (shape, why) in refused {
            let b = body(shape);
            assert!(oracle(&b).is_ok(), "{shape:?}");
            match decode_block(Bytes::copy_from_slice(&b)) {
                Err(CodecError::Malformed(detail)) => assert!(detail.contains(why), "{detail}"),
                other => panic!("{shape:?}: expected Malformed({why}), got {other:?}"),
            }
        }
        let kept: Shape = &[
            ("", fam),
            ("a", &[("", &[("", 2), ("c", 1)]), ("f", &[("c", 3)])]),
        ];
        let b = body(kept);
        let block = decode_block(Bytes::copy_from_slice(&b)).unwrap();
        assert_eq!(
            block.rows().collect::<BTreeMap<_, _>>(),
            oracle(&b).unwrap()
        );
    }

    /// Decode totality, one layer under the block CRC: every truncation of
    /// a block body, every single-byte flip and every single-bit flip of
    /// it. The flat decode never panics; what it accepts the oracle reads
    /// identically, and what the oracle refuses it refuses too. (It also
    /// refuses what only the oracle's sorting and empty entries excuse.)
    #[test]
    fn every_damaged_block_body_decodes_as_the_oracle_does_or_is_refused() {
        let shape: Vec<(u8, RowShape)> = (0..6u8)
            .map(|r| {
                let families = (0..1 + r % 3)
                    .map(|f| {
                        (
                            f,
                            (0..1 + (r + f) % 3)
                                .map(|c| (c, vec![(r % 4, r == 4); 1 + (c as usize % 3)]))
                                .collect(),
                        )
                    })
                    .collect();
                (r * 3, families)
            })
            .collect();
        let body = block_body(&build_rows(&shape));
        let truncations = (0..body.len()).map(|n| body[..n].to_vec());
        let flips = (0..body.len() * 9).map(|i| {
            let mut damaged = body.clone();
            damaged[i % body.len()] ^= match i / body.len() {
                8 => 0xff,
                bit => 1 << bit,
            };
            damaged
        });
        let (mut accepted, mut refused) = (0, 0);
        for damaged in truncations.chain(flips) {
            let want = oracle(&damaged);
            match decode_block(Bytes::copy_from_slice(&damaged)) {
                Ok(block) => {
                    let got: BTreeMap<Bytes, RowData> = block.rows().collect();
                    assert_eq!(Ok(got), want, "{damaged:02x?}");
                    accepted += 1;
                }
                Err(_) => refused += 1,
            }
        }
        assert!(
            accepted > 0 && refused > body.len(),
            "{accepted} accepted, {refused} refused"
        );
    }

    fn sample_rows(n: usize) -> BTreeMap<Bytes, RowData> {
        let mut rows = BTreeMap::new();
        for i in 0..n {
            let cols = vec![(
                Bytes::from("c"),
                vec![
                    CellVersion::new(2 * i as u64 + 2, Bytes::from(format!("v{i}-new"))),
                    CellVersion::new(2 * i as u64 + 1, Bytes::from(format!("v{i}-old"))),
                ],
            )];
            let data: RowData = vec![("f".to_string(), cols)];
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
            merged.extend(reader.read_block(idx).unwrap().rows());
        }
        assert_eq!(
            merged, rows,
            "lazy block reads must materialize bit-identically"
        );

        // Point lookups route to the single covering block.
        let probe = Bytes::from("row0050");
        let idx = reader.block_for(&probe).unwrap();
        assert!(reader.read_block(idx).unwrap().find(&probe).is_some());
        assert!(reader.block_for(b"a-before-everything").is_none());
        // Range pruning covers exactly the overlapping blocks.
        let r = reader.blocks_overlapping(b"row0050", Some(b"row0060"));
        assert!(r.len() <= 2 && !r.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    /// Every key, column and value of a block lies in one buffer no longer
    /// than the framed block: they are slices of it, not copies.
    #[test]
    fn a_block_decodes_into_slices_of_one_buffer() {
        let path = tmp_file("slices");
        write_segment(&path, "t", 1, &KeyRange::all(), &sample_rows(40)).unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        for idx in 0..reader.block_count() {
            let block = reader.read_block(idx).unwrap();
            let mut fields: Vec<Bytes> = Vec::new();
            for (key, data) in block.rows() {
                fields.push(key);
                for (col, versions) in data.into_iter().flat_map(|(_, cols)| cols) {
                    fields.push(col);
                    fields.extend(versions.into_iter().map(|v| v.value));
                }
            }
            let lo = fields.iter().map(|b| b.as_ptr() as usize).min().unwrap();
            let hi = fields
                .iter()
                .map(|b| b.as_ptr_range().end as usize)
                .max()
                .unwrap();
            assert!(
                hi - lo < reader.block_bytes(idx) as usize,
                "block {idx}: fields span {} bytes",
                hi - lo
            );
        }
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
        // Its one row holds family "f", column "c".
        let data = rows.values_mut().next().unwrap();
        let v = &mut data[0].1[0].1[0];
        v.value = Bytes::from("tampered");
        write_segment(&path, "t", 1, &KeyRange::all(), &rows).unwrap();
        let loaded = read_segment(&path).unwrap();
        let cell = &loaded.rows.values().next().unwrap()[0].1[0].1[0];
        assert!(!cell.verify(), "stored checksum must travel verbatim");
        std::fs::remove_file(&path).unwrap();
    }
}
