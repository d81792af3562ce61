//! Regions: horizontal partitions of a table's row space.
//!
//! Rows live in regions sorted by row key; a region splits at its median
//! key when it outgrows the split threshold, which is how HBase scales
//! "in rows by horizontal partitioning" (§5 of the paper). Each region has
//! its own lock, so scans of disjoint regions proceed in parallel.
//!
//! A region is a memstore over its segment, as in HBase (DESIGN.md §44):
//! an optional *base*, the segment it was last flushed to or recovered
//! from, read block by block through the store's [`BlockCache`], and a
//! memstore of the rows written since. A put writes the memstore only; a
//! read merges each memstore row over its base row; a flush writes that
//! merge as a new segment and then takes it as the base, emptying the
//! memstore.

use std::collections::BTreeMap;
use std::ops::{Bound, Range};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::blockcache::BlockCache;
use crate::kv::{intact, CellVersion, Put, RowResult};
use crate::segment::{Block, SegmentError, SegmentReader, BLOCK_ROWS};
use crate::store::{Install, Scan, StoreError};
use crate::wal::Cells;

/// Room for a row's cells in a walk's view: a `Static/` row, the widest
/// the profile store writes, has 16.
const ROW_CELLS: usize = 16;

/// Maximum cell versions retained per column, like HBase's default.
pub(crate) const MAX_VERSIONS: usize = 3;

/// One stored row, flat: its families in name order, each holding its
/// columns in name order, each column its retained versions newest first.
/// Every `Vec` of a memstore row is sized exactly. Public because segment
/// files and heals move rows in and out of regions in this shape.
pub type RowData = Vec<(String, Vec<(Bytes, Vec<CellVersion>)>)>;

/// A half-open row-key range `[start, end)`; `None` end means unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    pub start: Bytes,
    pub end: Option<Bytes>,
}

impl KeyRange {
    pub fn all() -> Self {
        KeyRange {
            start: Bytes::new(),
            end: None,
        }
    }

    pub fn contains(&self, key: &[u8]) -> bool {
        key >= self.start.as_ref()
            && match &self.end {
                Some(end) => key < end.as_ref(),
                None => true,
            }
    }
}

/// The segment under a region's memstore, shared by the halves of a split
/// (each reads its own range) until a flush rebases them.
struct SegmentBase {
    reader: Arc<SegmentReader>,
    cache: Arc<BlockCache>,
}

impl SegmentBase {
    /// The block holding row `key`, read around the cache, and its index.
    fn find(&self, key: &[u8]) -> Result<Option<(Arc<Block>, usize)>, SegmentError> {
        let Some(idx) = self.reader.block_for(key) else {
            return Ok(None);
        };
        let block = self.cache.peek_or_read(&self.reader, idx)?;
        Ok(block.find(key).map(|i| (block, i)))
    }
}

/// A segment no region reads leaves no block in the cache, where its
/// blocks would pin budget: no reader id is reused.
impl Drop for SegmentBase {
    fn drop(&mut self) {
        self.cache.evict_reader(self.reader.id());
    }
}

/// A memstore row: the cells written since the base, and whether it hides
/// the base's row (deleted, or installed whole); empty, it is a tombstone.
#[derive(Default)]
struct Memrow {
    cells: RowData,
    hides_base: bool,
}

/// A region: a contiguous, sorted slice of a table's rows. Its start
/// never moves (a split moves only its end), so it is read with no lock;
/// the rest of it is one `State` behind one lock, which each method
/// takes once (DESIGN.md §47).
pub struct Region {
    pub id: u64,
    start: Bytes,
    state: RwLock<State>,
}

/// What a region's lock guards.
#[derive(Default)]
struct State {
    /// The end of the region's range, exclusive; `None` is unbounded.
    end: Option<Bytes>,
    /// The memstore: the rows written since `base`.
    rows: BTreeMap<Bytes, Memrow>,
    base: Option<Arc<SegmentBase>>,
    /// The segment file this region's rows equal until a mutation, which a
    /// compacting flush reuses by reference; `None` when dirty.
    clean_as: Option<String>,
}

/// Scan bookkeeping (cells touched, rows matched), the §5.2/5.3
/// experiments' currency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanMetrics {
    pub regions_visited: u64,
    pub rows_scanned: u64,
    pub cells_scanned: u64,
    pub rows_returned: u64,
    pub bytes_returned: u64,
}

impl ScanMetrics {
    pub fn merge(&mut self, other: ScanMetrics) {
        self.regions_visited += other.regions_visited;
        self.rows_scanned += other.rows_scanned;
        self.cells_scanned += other.cells_scanned;
        self.rows_returned += other.rows_returned;
        self.bytes_returned += other.bytes_returned;
    }

    /// Count `row` as returned: one row, and the bytes of its values.
    pub(crate) fn returned(&mut self, row: &RowView<'_>) {
        self.rows_returned += 1;
        self.bytes_returned += row.cells.iter().map(|c| c.value.len() as u64).sum::<u64>();
    }
}

impl Region {
    pub fn new(id: u64, range: KeyRange) -> Self {
        let state = State {
            end: range.end,
            ..State::default()
        };
        let (start, state) = (range.start, RwLock::new(state));
        Region { id, start, state }
    }

    /// The segment file this region's rows equal, unless it is dirty.
    pub(crate) fn clean_file(&self) -> Option<String> {
        self.state.read().clean_as.clone()
    }

    /// Take `reader`, a segment of exactly this region's rows, as the base
    /// and drop the memstore (a flush does, after its manifest swap).
    pub(crate) fn rebase(&self, reader: Arc<SegmentReader>, cache: Arc<BlockCache>) {
        let mut state = self.state.write();
        state.clean_as = Some(reader.file_name().to_string());
        state.base = Some(Arc::new(SegmentBase { reader, cache }));
        state.rows.clear();
    }

    /// This region's current row-key range.
    pub fn range(&self) -> KeyRange {
        self.range_in(&self.state.read())
    }

    /// This region's range, its end as `state` holds it.
    fn range_in(&self, state: &State) -> KeyRange {
        let (start, end) = (self.start.clone(), state.end.clone());
        KeyRange { start, end }
    }

    /// Whether a row key belongs to this region.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.holds(&self.state.read(), key)
    }

    /// Whether a row key belongs to this region, its end as `state` holds it.
    fn holds(&self, state: &State, key: &[u8]) -> bool {
        key >= self.start.as_ref() && state.end.as_deref().is_none_or(|end| key < end)
    }

    /// The first key of this region's range: what a table's region list
    /// is sorted and searched by, read with no lock.
    pub(crate) fn start(&self) -> &Bytes {
        &self.start
    }

    /// Write a run of cells to one memstore row, reading nothing of the
    /// base. Returns `false`, having written nothing, when the row no
    /// longer belongs to this region (a concurrent split moved the key
    /// range): the caller re-resolves the region and retries. Every cell
    /// keeps its own timestamp and checksum, every column its
    /// `MAX_VERSIONS` cap.
    pub(crate) fn put_row(&self, row: &Bytes, cells: Cells<'_>) -> bool {
        let mut state = self.state.write();
        if !self.holds(&state, row) {
            return false;
        }
        state.clean_as = None;
        let data = &mut state.rows.entry(row.clone()).or_default().cells;
        let n = cells.len();
        for (i, (put, timestamp)) in cells.iter().enumerate() {
            put_cell(data, put, timestamp, n - i);
        }
        data.iter_mut()
            .for_each(|(_, columns)| columns.shrink_to_fit());
        true
    }

    /// Read one row (latest versions only), verifying cell checksums.
    /// Reads at most one base block, through the cache, admitting it.
    pub fn get(&self, row: &[u8]) -> Result<Option<RowResult>, StoreError> {
        let mut found = None;
        self.walk(Keys::One(row), |row| found = Some(materialize(row)))?;
        Ok(found)
    }

    /// Delete one row. Returns `None` when the row key no longer belongs to
    /// this region (concurrent split — retry), otherwise whether the row
    /// existed: a row the memstore does not hold is looked up in the one
    /// base block that could hold it. A tombstone hides a base row.
    pub fn delete_row(&self, row: &[u8]) -> Result<Option<bool>, SegmentError> {
        let state = &mut *self.state.write();
        if !self.holds(state, row) {
            return Ok(None);
        }
        let (rows, base) = (&mut state.rows, &state.base);
        let existed = match rows.get(row) {
            Some(m) => !m.cells.is_empty(),
            None => base.as_ref().map_or(Ok(None), |b| b.find(row))?.is_some(),
        };
        if existed {
            state.clean_as = None;
            let tombstone = Memrow {
                cells: RowData::new(),
                hides_base: true,
            };
            match base.is_some() {
                true => rows.insert(Bytes::copy_from_slice(row), tombstone),
                false => rows.remove(row),
            };
        }
        Ok(Some(existed))
    }

    /// Walk the rows in `scan`'s key range ∩ this region as [`RowView`]s,
    /// checksum-verified, and hand `each` those that pass the scan's
    /// filter, which runs on the walked row: a row it drops is never
    /// materialized. Counts every row walked, and every row passed with the
    /// bytes of its values as returned.
    pub(crate) fn visit(
        &self,
        scan: &Scan,
        mut each: impl FnMut(RowView<'_>),
    ) -> Result<ScanMetrics, StoreError> {
        let mut metrics = ScanMetrics {
            regions_visited: 1,
            ..ScanMetrics::default()
        };
        let filter = scan.filter.as_deref();
        self.walk(Keys::Range(&scan.start, scan.stop.as_deref()), |row| {
            metrics.rows_scanned += 1;
            metrics.cells_scanned += row.cells.len() as u64;
            if filter.is_none_or(|f| f.matches(&row)) {
                metrics.returned(&row);
                each(row);
            }
        })?;
        Ok(metrics)
    }

    /// Walk the rows `keys` selects in key order, each memstore row merged
    /// over its base row, handing each to `each` once all its cells passed
    /// their checksums; the first that does not fails the walk. The one
    /// body under every read of rows. Only a point read admits its block to
    /// the cache; a range reads around it (DESIGN.md §42).
    fn walk(&self, keys: Keys<'_>, mut each: impl FnMut(RowView<'_>)) -> Result<(), StoreError> {
        let state = self.state.read();
        let (rows, base, range) = (&state.rows, &state.base, self.range_in(&state));
        let keys = keys.within(&range);
        let mut mem = rows.range::<[u8], _>(keys.bounds()).peekable();
        let mut alone = Vec::with_capacity(ROW_CELLS);
        if let Some(b) = base.as_ref() {
            for idx in keys.blocks(&b.reader) {
                let block = match keys {
                    Keys::One(_) => b.cache.get_or_load(&b.reader, idx)?,
                    Keys::Range(..) => b.cache.peek_or_read(&b.reader, idx)?,
                };
                let mut cells = Vec::with_capacity(ROW_CELLS);
                for i in keys.rows(&block) {
                    let key = block.key(i);
                    while let Some((k, m)) = mem.next_if(|(k, _)| k.as_ref() < key) {
                        walk_memrow(k, m, &mut alone, &mut each)?;
                    }
                    cells.clear();
                    match mem.next_if(|(k, _)| k.as_ref() == key) {
                        Some((k, m)) if m.hides_base => walk_memrow(k, m, &mut alone, &mut each)?,
                        Some((k, m)) => {
                            cells.extend(block_latest(&block, i));
                            for over in latest_of(&m.cells) {
                                let column = (over.family, over.column);
                                match cells.binary_search_by(|c| (c.family, c.column).cmp(&column))
                                {
                                    Ok(j) if cells[j].timestamp() > over.timestamp() => {}
                                    Ok(j) => cells[j] = over,
                                    Err(j) => cells.insert(j, over),
                                }
                            }
                            each(verified(k, &cells, Home::Owned(k))?);
                        }
                        None => {
                            cells.extend(block_latest(&block, i));
                            each(verified(key, &cells, Home::Block(&block))?);
                        }
                    }
                }
            }
        }
        for (k, m) in mem {
            walk_memrow(k, m, &mut alone, &mut each)?;
        }
        Ok(())
    }

    /// Test/chaos hook: flip one byte of the latest stored version of a
    /// cell *without* refreshing its checksum, simulating at-rest bit rot.
    /// Returns whether a cell was hit. The flipped copy goes to the
    /// memstore under the version's timestamp, hiding it.
    pub fn corrupt_cell(&self, row: &[u8], family: &str, column: &[u8]) -> bool {
        let state = &mut *self.state.write();
        let (rows, base) = (&mut state.rows, &state.base);
        let hit = |c: &Latest| c.family == family.as_bytes() && c.column == column;
        let over = rows.get(row);
        let in_base = match (base.as_ref(), over) {
            (Some(b), m) if !m.is_some_and(|m| m.hides_base) => b.find(row).ok().flatten(),
            _ => None,
        };
        let in_base =
            in_base.and_then(|(block, i)| Some(block_latest(&block, i).find(hit)?.shared().1));
        let in_memstore = over.and_then(|m| Some(latest_of(&m.cells).find(hit)?.shared().1));
        let Some(latest) = in_base
            .into_iter()
            .chain(in_memstore)
            .max_by_key(|v| v.timestamp)
        else {
            return false;
        };
        let data = &mut rows.entry(Bytes::copy_from_slice(row)).or_default().cells;
        let columns = sorted_entry(data, family, 1, || family.to_owned());
        let versions = sorted_entry(columns, column, 1, || Bytes::copy_from_slice(column));
        versions.retain(|v| v.timestamp != latest.timestamp);
        let value = match &latest.value[..] {
            [first, rest @ ..] => Bytes::from([&[first ^ 0xff], rest].concat()),
            [] => Bytes::from_static(&[0xde]),
        };
        insert_version(versions, CellVersion { value, ..latest });
        state.clean_as = None;
        true
    }

    /// Where a split cuts once this region's rows could pass `threshold`
    /// (and two), decided from the base's block index and the memstore
    /// without reading a block, as HBase takes a split's mid-key from its
    /// store file's block index (DESIGN.md §46). The base counts
    /// [`BLOCK_ROWS`] for each block the range overlaps, at most its
    /// trailer's row count; the memstore counts its live rows. The cut is
    /// the first key of the middle overlapping block, or the memstore's
    /// median live key when the memstore holds more. A region whose base
    /// overlaps one block waits for its memstore, and no cut falls outside
    /// the range or on its start. The durable store logs the cut before
    /// splitting.
    pub(crate) fn split_point(&self, threshold: usize) -> Option<Bytes> {
        let state = self.state.read();
        let (base, rows, end) = (&state.base, &state.rows, state.end.as_deref());
        let blocks = base
            .as_ref()
            .map(|b| (b, b.reader.blocks_overlapping(&self.start, end)));
        let in_base = blocks.as_ref().map_or(0, |(b, blocks)| {
            (blocks.len() * BLOCK_ROWS).min(b.reader.meta().row_count as usize)
        });
        if in_base + rows.len() <= threshold {
            return None;
        }
        let mut live = rows
            .iter()
            .filter(|(_, m)| !m.cells.is_empty())
            .map(|(k, _)| k);
        let in_memstore = live.clone().count();
        if in_base + in_memstore <= threshold.max(1) {
            return None;
        }
        let cut = if in_memstore > in_base {
            live.nth(in_memstore / 2)?.clone()
        } else {
            let (b, blocks) = blocks.filter(|(_, blocks)| blocks.len() > 1)?;
            let middle = blocks.start + blocks.len() / 2;
            b.reader.meta().blocks[middle].0.clone()
        };
        (cut > self.start && self.holds(&state, &cut)).then_some(cut)
    }

    /// Split this region at an explicit key: the logged split point, for
    /// the live split and for its replay alike. `None` if the key is empty
    /// or outside this region's range. The halves share the base and read
    /// no block.
    pub fn split_at(&self, key: &Bytes, new_id: u64) -> Option<Region> {
        let state = &mut *self.state.write();
        if !self.holds(state, key) || key.is_empty() {
            return None;
        }
        state.clean_as = None;
        let upper = State {
            end: state.end.replace(key.clone()),
            rows: state.rows.split_off(key),
            base: state.base.clone(),
            clean_as: None,
        };
        let (id, start, state) = (new_id, key.clone(), RwLock::new(upper));
        Some(Region { id, start, state })
    }

    /// This region's rows with every retained version, memstore merged over
    /// base: what a flush writes and a heal copies.
    pub fn export_rows(&self) -> Result<BTreeMap<Bytes, RowData>, SegmentError> {
        let state = self.state.read();
        let (base, rows, range) = (&state.base, &state.rows, self.range_in(&state));
        let mut out = BTreeMap::new();
        if let Some(b) = base.as_ref() {
            for idx in b
                .reader
                .blocks_overlapping(&range.start, range.end.as_deref())
            {
                let block = b.cache.peek_or_read(&b.reader, idx)?;
                for (key, data) in block.rows().filter(|(key, _)| range.contains(key)) {
                    let data = match rows.get(&key) {
                        Some(m) if m.hides_base => continue,
                        Some(m) => merge_rows(data, &m.cells),
                        None => data,
                    };
                    out.insert(key, data);
                }
            }
        }
        for (key, m) in rows.iter().filter(|(_, m)| !m.cells.is_empty()) {
            out.entry(key.clone()).or_insert_with(|| m.cells.clone());
        }
        Ok(out)
    }

    /// Install rows copied from healthy replicas, each whole over its key,
    /// reading nothing of the base (a heal's failed its CRC);
    /// [`Install::Replace`] drops the base. The caller flushes to make the
    /// install durable.
    pub(crate) fn install_rows(&self, new_rows: BTreeMap<Bytes, RowData>, how: Install) {
        let mut state = self.state.write();
        if how == Install::Replace {
            state.base = None;
            state.rows.clear();
        }
        let hides_base = true;
        for (key, cells) in new_rows {
            state.rows.insert(key, Memrow { cells, hides_base });
        }
        state.clean_as = None;
    }
}

/// Write one cell into a stored row: families and columns stay in name
/// order, a column's versions newest first whatever order they arrive in
/// (a log is applied as it was written, by whoever wrote it; the stores
/// stamp monotonically, so the insert position is 0), at most
/// [`MAX_VERSIONS`] of them, and every `Vec` exactly sized but a family
/// that takes a new column when it is full: it makes room for `room`
/// columns, the cells left in the run ([`Region::put_row`] sizes it again).
fn put_cell(row: &mut RowData, put: &Put, timestamp: u64, room: usize) {
    let family: &str = &put.family;
    let columns = sorted_entry(row, family, 1, || family.to_owned());
    let versions = sorted_entry(columns, &put.column, room, || put.column.clone());
    insert_version(versions, CellVersion::new(timestamp, put.value.clone()));
}

/// Insert `version` among a column's `versions`, newest first, of equal
/// timestamps the later first, keeping at most [`MAX_VERSIONS`].
fn insert_version(versions: &mut Vec<CellVersion>, version: CellVersion) {
    let pos = versions
        .iter()
        .position(|v| v.timestamp <= version.timestamp)
        .unwrap_or(versions.len());
    if pos < MAX_VERSIONS {
        versions.truncate(MAX_VERSIONS - 1);
        versions.reserve_exact(1);
        versions.insert(pos, version);
    }
}

/// The value keyed `key` in `list`, which is sorted by key; a missing one
/// is inserted empty in its place as `owned()`, and a full `list` first
/// makes room for `room` entries.
fn sorted_entry<'l, K, Q, V>(
    list: &'l mut Vec<(K, V)>,
    key: &Q,
    room: usize,
    owned: impl FnOnce() -> K,
) -> &'l mut V
where
    K: std::borrow::Borrow<Q>,
    Q: Ord + ?Sized,
    V: Default,
{
    let i = match list.binary_search_by(|(k, _)| k.borrow().cmp(key)) {
        Ok(i) => i,
        Err(i) => {
            if list.len() == list.capacity() {
                list.reserve_exact(room);
            }
            list.insert(i, (owned(), V::default()));
            i
        }
    };
    &mut list[i].1
}

/// A memstore row merged over its base row, as writing its cells there
/// would; a memstore version hides the base's of its timestamp.
fn merge_rows(mut base: RowData, over: &RowData) -> RowData {
    for (family, columns) in over {
        let merged = sorted_entry(&mut base, family.as_str(), 1, || family.clone());
        for (column, versions) in columns {
            let merged = sorted_entry(merged, column, 1, || column.clone());
            merged.retain(|v| versions.iter().all(|o| o.timestamp != v.timestamp));
            versions
                .iter()
                .rev()
                .for_each(|v| insert_version(merged, v.clone()));
        }
    }
    base
}

/// Hand `each` memstore row `key` alone, unless it is a tombstone.
fn walk_memrow<'a>(
    key: &'a Bytes,
    m: &'a Memrow,
    cells: &mut Vec<Latest<'a>>,
    each: &mut impl FnMut(RowView<'_>),
) -> Result<(), StoreError> {
    if !m.cells.is_empty() {
        cells.clear();
        cells.extend(latest_of(&m.cells));
        each(verified(key, cells, Home::Owned(key))?);
    }
    Ok(())
}

/// The latest version of each column of a stored row, families first.
fn latest_of(data: &RowData) -> impl Iterator<Item = Latest<'_>> {
    data.iter().flat_map(|(family, columns)| {
        columns.iter().filter_map(move |(column, versions)| {
            Some(Latest::owned(family, column, versions.first()?))
        })
    })
}

/// The latest version of each column of block row `i`, families first.
fn block_latest(block: &Block, i: usize) -> impl Iterator<Item = Latest<'_>> {
    block
        .latest(i)
        .map(move |(family, column, value, ts, checksum)| Latest {
            family,
            column,
            value,
            checksum,
            version: Version::Block(block, ts),
        })
}
/// A stored row as a read walks it: its key and the latest version of
/// each of its columns, families first, each cell checksum-verified, all
/// borrowed from the block or the memstore row that holds them.
pub struct RowView<'a> {
    pub key: &'a [u8],
    pub cells: &'a [Latest<'a>],
    home: Home<'a>,
}

/// The latest version of one column of a [`RowView`].
#[derive(Clone, Copy)]
pub struct Latest<'a> {
    pub family: &'a [u8],
    pub column: &'a [u8],
    pub value: &'a [u8],
    checksum: u32,
    version: Version<'a>,
}

/// Where a [`RowView`]'s key is stored, and a [`Latest`]'s version, so
/// that a read that hands them out shares the stored bytes.
#[derive(Clone, Copy)]
enum Home<'a> {
    /// A block: the key is a slice of its buffer.
    Block(&'a Block),
    /// A memstore row, or a row read whole.
    Owned(&'a Bytes),
}

#[derive(Clone, Copy)]
enum Version<'a> {
    /// A block's cell, its column and value slices of the block's buffer:
    /// its timestamp.
    Block(&'a Block, u64),
    /// A memstore row's or a row read whole's column and latest version.
    Owned(&'a Bytes, &'a CellVersion),
}

impl<'a> Latest<'a> {
    fn owned(family: &'a str, column: &'a Bytes, latest: &'a CellVersion) -> Self {
        let version = Version::Owned(column, latest);
        Latest {
            family: family.as_bytes(),
            column,
            value: &latest.value,
            checksum: latest.checksum,
            version,
        }
    }

    /// This version's timestamp.
    fn timestamp(&self) -> u64 {
        match self.version {
            Version::Block(_, timestamp) => timestamp,
            Version::Owned(_, latest) => latest.timestamp,
        }
    }

    /// The column and its version, sharing the stored bytes.
    fn shared(self) -> (Bytes, CellVersion) {
        match self.version {
            Version::Block(block, timestamp) => {
                let value = block.cut(self.value);
                let version = CellVersion {
                    timestamp,
                    value,
                    checksum: self.checksum,
                };
                (block.cut(self.column), version)
            }
            Version::Owned(column, latest) => (column.clone(), latest.clone()),
        }
    }
}

impl RowResult {
    /// This row as a walk hands rows out, with its cells in `cells`: one
    /// parser reads rows walked in place and rows read whole alike.
    pub fn view<'a, 's>(&'a self, cells: &'s mut Vec<Latest<'a>>) -> RowView<'s> {
        cells.clear();
        for (family, columns) in &self.families {
            cells.extend(columns.iter().map(|(c, v)| Latest::owned(family, c, v)));
        }
        RowView {
            key: &self.row,
            cells,
            home: Home::Owned(&self.row),
        }
    }
}

/// Which rows a walk visits.
#[derive(Clone, Copy)]
enum Keys<'k> {
    /// Those in `[start, end)`.
    Range(&'k [u8], Option<&'k [u8]>),
    /// The one with this key, if it is stored: a get, which reads the one
    /// block that can hold it.
    One(&'k [u8]),
}

impl<'k> Keys<'k> {
    /// These keys, of those in `range`: a split shares its base.
    fn within(self, range: &'k KeyRange) -> Keys<'k> {
        let (start, end) = match self {
            Keys::One(key) if range.contains(key) => return self,
            Keys::One(key) => (key, Some(key)),
            Keys::Range(start, end) => (start, end),
        };
        let start = start.max(&range.start);
        let end = [end, range.end.as_deref()].into_iter().flatten().min();
        Keys::Range(start, end.map(|end| end.max(start)))
    }

    fn blocks(self, reader: &SegmentReader) -> Range<usize> {
        match self {
            Keys::Range(start, end) => reader.blocks_overlapping(start, end),
            Keys::One(key) => reader.block_for(key).map_or(0..0, |i| i..i + 1),
        }
    }

    fn rows(self, block: &Block) -> Range<usize> {
        match self {
            Keys::Range(start, end) => block.range(start, end),
            Keys::One(key) => block.find(key).map_or(0..0, |i| i..i + 1),
        }
    }

    fn bounds(self) -> (Bound<&'k [u8]>, Bound<&'k [u8]>) {
        match self {
            Keys::Range(start, end) => (
                Bound::Included(start),
                end.map_or(Bound::Unbounded, Bound::Excluded),
            ),
            Keys::One(key) => (Bound::Included(key), Bound::Included(key)),
        }
    }
}

/// `key` and `cells` as a [`RowView`], if every cell passes its checksum;
/// otherwise the corruption of the first that does not.
fn verified<'a>(
    key: &'a [u8],
    cells: &'a [Latest<'a>],
    home: Home<'a>,
) -> Result<RowView<'a>, StoreError> {
    match cells.iter().find(|c| !intact(c.value, c.checksum)) {
        Some(bad) => Err(StoreError::corruption(key, bad.column)),
        None => Ok(RowView { key, cells, home }),
    }
}

/// A walked row as a get or a scan hands it out, sharing the stored bytes
/// rather than copying them.
pub(crate) fn materialize(row: RowView<'_>) -> RowResult {
    let key = match row.home {
        Home::Block(block) => block.cut(row.key),
        Home::Owned(key) => key.clone(),
    };
    let mut result = RowResult::new(key);
    for family in row.cells.chunk_by(|a, b| a.family == b.family) {
        let columns = family.iter().map(|c| c.shared()).collect();
        let name = String::from_utf8_lossy(family[0].family).into_owned();
        result.families.insert(name, columns);
    }
    result
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wal::WalRecord;

    /// A logged put to row `row` of table `t`, as a run's cell.
    pub(crate) fn cell(family: &str, column: &str, value: &str, timestamp: u64) -> WalRecord {
        let put = Put::new(
            "row",
            family.to_string(),
            column.to_string(),
            value.to_string(),
        );
        WalRecord::Put {
            table: "t".to_string(),
            put,
            timestamp,
        }
    }

    fn put(region: &Region, row: &str, col: &str, val: &str, ts: u64) {
        let cells = [cell("cf", col, val, ts)];
        let row = Bytes::copy_from_slice(row.as_bytes());
        assert!(region.put_row(&row, Cells::Logged(&cells)));
    }

    /// What a scan keeps of `region`: the rows `scan` passes, materialized,
    /// and the metrics.
    fn scan(region: &Region, scan: &Scan) -> Result<(Vec<RowResult>, ScanMetrics), StoreError> {
        let mut rows = Vec::new();
        let metrics = region.visit(scan, |row| rows.push(materialize(row)))?;
        Ok((rows, metrics))
    }

    #[test]
    fn put_get_roundtrip() {
        let r = Region::new(1, KeyRange::all());
        put(&r, "row1", "c", "v1", 1);
        let got = r.get(b"row1").unwrap().unwrap();
        assert_eq!(got.value("cf", b"c").unwrap().as_ref(), b"v1");
        assert!(r.get(b"missing").unwrap().is_none());
    }

    /// A row read back carries the stored key itself, not a copy of it.
    #[test]
    fn reads_hand_on_the_stored_row_key() {
        let r = Region::new(1, KeyRange::all());
        put(&r, "row1", "c", "v1", 1);
        let got = r.get(b"row1").unwrap().unwrap();
        let (scanned, _) = scan(&r, &Scan::all()).unwrap();
        assert_eq!(got.row, Bytes::from("row1"));
        assert_eq!(got.row.as_ptr(), scanned[0].row.as_ptr());
    }

    #[test]
    fn newer_version_wins() {
        let r = Region::new(1, KeyRange::all());
        put(&r, "row1", "c", "old", 1);
        put(&r, "row1", "c", "new", 2);
        assert_eq!(
            r.get(b"row1")
                .unwrap()
                .unwrap()
                .value("cf", b"c")
                .unwrap()
                .as_ref(),
            b"new"
        );
    }

    #[test]
    fn versions_are_capped() {
        let r = Region::new(1, KeyRange::all());
        for i in 0..10 {
            put(&r, "row1", "c", &format!("v{i}"), i);
        }
        // Still readable; internal cap honoured (latest visible).
        assert_eq!(
            r.get(b"row1")
                .unwrap()
                .unwrap()
                .value("cf", b"c")
                .unwrap()
                .as_ref(),
            b"v9"
        );
    }

    #[test]
    fn scan_respects_range_and_counts() {
        let r = Region::new(1, KeyRange::all());
        for k in ["a", "b", "c", "d"] {
            put(&r, k, "c", "v", 1);
        }
        let range = Scan {
            start: Bytes::from("b"),
            stop: Some(Bytes::from("d")),
            filter: None,
        };
        let (rows, metrics) = scan(&r, &range).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(metrics.rows_scanned, 2);
        assert_eq!(metrics.rows_returned, 2);
        assert_eq!(metrics.regions_visited, 1);
    }

    #[test]
    fn scan_filter_drops_rows_server_side() {
        use crate::filter::RowPrefixFilter;
        let r = Region::new(1, KeyRange::all());
        put(&r, "Static/j1", "c", "v", 1);
        put(&r, "Dynamic/j1", "c", "v", 1);
        let f = RowPrefixFilter {
            prefix: Bytes::from("Static/"),
        };
        let (rows, metrics) = scan(&r, &Scan::all().with_filter(Box::new(f))).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(metrics.rows_scanned, 2);
        assert_eq!(metrics.rows_returned, 1);
    }

    #[test]
    fn split_partitions_rows() {
        let r = Region::new(1, KeyRange::all());
        for k in ["a", "b", "c", "d", "e", "f"] {
            put(&r, k, "c", "v", 1);
        }
        let upper = r.split_at(&r.split_point(5).unwrap(), 2).unwrap();
        let (lower, upper_rows) = (r.export_rows().unwrap(), upper.export_rows().unwrap());
        assert_eq!(lower.len() + upper_rows.len(), 6);
        assert!(upper_rows.len() >= 3);
        assert_eq!(upper.range().start, Bytes::from("d"));
        assert_eq!(r.range().end, Some(Bytes::from("d")));
        assert!(r.contains_key(b"a"));
        assert!(!r.contains_key(b"d"));
        // The median of an odd count is its middle key; none until the
        // count passes the threshold.
        put(&upper, "g", "c", "v", 1);
        put(&upper, "h", "c", "v", 1);
        assert_eq!(upper.split_point(5), None);
        assert_eq!(upper.split_point(4), Some(Bytes::from("f")));
    }

    #[test]
    fn a_row_run_the_range_lost_is_handed_back_untouched() {
        let r = Region::new(1, KeyRange::all());
        put(&r, "a", "c", "v", 1);
        put(&r, "b", "c", "v", 1);
        let _upper = r.split_at(&Bytes::from("b"), 2).unwrap();
        let cells = [cell("cf", "c", "v", 2), cell("cf", "c", "v", 3)];
        assert!(!r.put_row(&Bytes::from("c"), Cells::Logged(&cells)));
        assert!(r.get(b"c").unwrap().is_none());
    }

    #[test]
    fn tiny_region_refuses_split() {
        let r = Region::new(1, KeyRange::all());
        put(&r, "only", "c", "v", 1);
        assert!(r.split_point(0).is_none());
    }

    #[test]
    fn corrupted_cell_fails_get_and_scan() {
        let r = Region::new(1, KeyRange::all());
        put(&r, "row1", "c", "payload", 1);
        put(&r, "row2", "c", "clean", 1);
        assert!(r.corrupt_cell(b"row1", "cf", b"c"));

        match r.get(b"row1") {
            Err(StoreError::Corruption { row, column }) => {
                assert_eq!(row, "row1");
                assert_eq!(column, "c");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        // The clean row is still readable.
        assert!(r.get(b"row2").unwrap().is_some());
        // A scan crossing the corrupt row reports it too.
        assert!(matches!(
            scan(&r, &Scan::all()),
            Err(StoreError::Corruption { .. })
        ));
    }

    #[test]
    fn corrupting_a_missing_cell_is_a_noop() {
        let r = Region::new(1, KeyRange::all());
        put(&r, "row1", "c", "v", 1);
        assert!(!r.corrupt_cell(b"nope", "cf", b"c"));
        assert!(!r.corrupt_cell(b"row1", "cf", b"other"));
        assert!(r.get(b"row1").unwrap().is_some());
    }

    /// Whether every `Vec` of `row` is exactly as long as its capacity.
    pub(crate) fn exactly_sized(row: &RowData) -> bool {
        let mut columns = row.iter().map(|(_, columns)| columns);
        let mut versions = columns.clone().flatten().map(|(_, versions)| versions);
        row.len() == row.capacity()
            && columns.all(|c| c.len() == c.capacity())
            && versions.all(|v| v.len() == v.capacity())
    }

    proptest::proptest! {
        /// Runs written to a row keep, for each column, the
        /// `MAX_VERSIONS` newest of its cells, newest first and of equal
        /// timestamps the later first, families and columns in name
        /// order; every `Vec` is exactly sized.
        #[test]
        fn a_row_keeps_each_columns_newest_versions_exactly_sized(
            run in proptest::collection::vec((0u8..2, 0u8..3, 0u64..4), 1..48),
            more in proptest::collection::vec((0u8..3, 0u8..3, 0u64..6), 0..12),
        ) {
            let all: Vec<_> = run.iter().chain(&more).collect();
            let cells = |run: &[(u8, u8, u64)], first: usize| -> Vec<WalRecord> {
                run.iter()
                    .enumerate()
                    .map(|(i, &(f, c, timestamp))| {
                        cell(&format!("f{f}"), &format!("c{c}"), &format!("v{}", first + i), timestamp)
                    })
                    .collect()
            };
            let mut columns = BTreeMap::<(u8, u8), Vec<(u64, usize)>>::new();
            for (i, &&(f, c, timestamp)) in all.iter().enumerate() {
                columns.entry((f, c)).or_default().push((timestamp, i));
            }
            let mut expected = RowData::new();
            for ((f, c), mut versions) in columns {
                versions.sort_by(|a, b| b.cmp(a));
                versions.truncate(MAX_VERSIONS);
                let versions = versions.iter().map(|&(timestamp, i)| {
                    CellVersion::new(timestamp, Bytes::from(format!("v{i}")))
                });
                let column = (Bytes::from(format!("c{c}")), versions.collect());
                match expected.last_mut() {
                    Some((family, columns)) if *family == format!("f{f}") => columns.push(column),
                    _ => expected.push((format!("f{f}"), vec![column])),
                }
            }

            let region = Region::new(1, KeyRange::all());
            let key = Bytes::from("row");
            for (run, first) in [(&run, 0), (&more, run.len())] {
                let run = cells(run, first);
                proptest::prop_assert!(region.put_row(&key, Cells::Logged(&run)));
            }
            proptest::prop_assert!(exactly_sized(&region.state.read().rows[&key].cells));
            let stored = region.export_rows().unwrap().remove(&key).unwrap();
            proptest::prop_assert_eq!(stored, expected);
        }
    }

    #[test]
    fn delete_row_removes() {
        let r = Region::new(1, KeyRange::all());
        put(&r, "x", "c", "v", 1);
        assert_eq!(r.delete_row(b"x").unwrap(), Some(true));
        assert_eq!(r.delete_row(b"x").unwrap(), Some(false));
        assert!(r.get(b"x").unwrap().is_none());
    }
}
