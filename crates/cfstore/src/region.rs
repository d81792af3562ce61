//! Regions: horizontal partitions of a table's row space.
//!
//! Rows live in regions sorted by row key; a region splits at its median
//! key when it outgrows the split threshold, which is how HBase scales
//! "in rows by horizontal partitioning" (§5 of the paper). Each region is
//! independently lockable, so scans of disjoint regions proceed in
//! parallel.
//!
//! Since PR 6 a region is in one of two states (DESIGN.md §12):
//!
//! * **Materialized** — all rows live in the in-memory memstore, exactly
//!   the pre-PR-6 behaviour. Every mutable region is in this state.
//! * **Segment-backed (lazy)** — the region was recovered from a flushed
//!   segment and has not been written since. Reads go block-at-a-time
//!   through the shared [`BlockCache`] (a point get admits its block; a
//!   range walks around it, DESIGN.md §42); nothing is materialized
//!   beyond the blocks a read actually touches. The *first mutation*
//!   promotes the region to materialized (reading every block once), so
//!   the memstore invariants — and the WAL-covers-memstore durability
//!   contract — are untouched for anything that can change.

use std::collections::BTreeMap;
use std::ops::{Bound, Range};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::blockcache::BlockCache;
use crate::kv::{self, intact, CellVersion, Put, RowResult};
use crate::segment::{Block, SegmentError, SegmentReader};
use crate::store::{Scan, StoreError};
use crate::wal::Cells;

/// Room for a row's cells in a walk's view: a `Static/` row, the widest
/// the profile store writes, has 16.
const ROW_CELLS: usize = 16;

/// Maximum cell versions retained per column, like HBase's default.
pub(crate) const MAX_VERSIONS: usize = 3;

/// One stored row, flat: its families in name order, each holding its
/// columns in name order, each column its retained versions newest first.
/// Every `Vec` is sized exactly: the memstore holds a row in this shape for
/// as long as its region stays in memory. Public because segment files and
/// recovery move rows in and out of regions in this shape.
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

/// A lazily read segment backing a clean recovered region.
struct SegmentBase {
    reader: Arc<SegmentReader>,
    cache: Arc<BlockCache>,
}

/// A region: a contiguous, sorted slice of a table's rows.
///
/// Lock order (matching the store's durable → catalog → region order):
/// `base` before `rows` before `range`. No path acquires them the other
/// way around.
pub struct Region {
    pub id: u64,
    range: RwLock<KeyRange>,
    /// The memstore. Empty while `base` is `Some` (lazy state): a region
    /// never splits its rows between memory and segment.
    rows: RwLock<BTreeMap<Bytes, RowData>>,
    /// `Some` while segment-backed; dropped on promotion.
    base: RwLock<Option<SegmentBase>>,
    /// Mutated since the segment named by `flushed_as` captured it. The
    /// flush compaction policy rewrites only dirty regions.
    dirty: AtomicBool,
    /// Segment file whose contents equal this region's current rows
    /// (when clean) — the file a compacting flush reuses by reference.
    flushed_as: Mutex<Option<String>>,
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
}

impl Region {
    pub fn new(id: u64, range: KeyRange) -> Self {
        Region {
            id,
            range: RwLock::new(range),
            rows: RwLock::new(BTreeMap::new()),
            base: RwLock::new(None),
            dirty: AtomicBool::new(true),
            flushed_as: Mutex::new(None),
        }
    }

    /// Rebuild a clean region lazily from its flushed segment: no rows
    /// are materialized until a read touches their block or a write
    /// promotes the whole region.
    pub fn from_segment(
        id: u64,
        range: KeyRange,
        reader: Arc<SegmentReader>,
        cache: Arc<BlockCache>,
    ) -> Self {
        let file = reader.file_name().to_string();
        Region {
            id,
            range: RwLock::new(range),
            rows: RwLock::new(BTreeMap::new()),
            base: RwLock::new(Some(SegmentBase { reader, cache })),
            dirty: AtomicBool::new(false),
            flushed_as: Mutex::new(Some(file)),
        }
    }

    /// Whether this region is still segment-backed (no read-triggered
    /// materialization, no mutation since recovery).
    pub fn is_lazy(&self) -> bool {
        self.base.read().is_some()
    }

    /// Whether this region mutated since its `flushed_as` segment was
    /// written (a compacting flush must rewrite it).
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    /// The segment file whose contents equal this region's rows, if any.
    pub(crate) fn flushed_file(&self) -> Option<String> {
        self.flushed_as.lock().clone()
    }

    /// Record that `file` now captures this region's exact contents
    /// (called after the manifest swap, so a crash mid-flush leaves the
    /// region dirty and the next flush retries).
    pub(crate) fn mark_flushed(&self, file: String) {
        *self.flushed_as.lock() = Some(file);
        self.dirty.store(false, Ordering::Release);
    }

    /// Promote a segment-backed region to materialized: read every block
    /// once (around the cache) into the memstore, drop the base and evict
    /// the blocks point gets had admitted from it, which nothing can hit
    /// again. Idempotent; a no-op for materialized regions. Every mutation
    /// goes through here first, so an unreadable segment is the one error
    /// a mutation can fail with.
    fn ensure_materialized(&self) -> Result<(), SegmentError> {
        let mut base = self.base.write();
        let Some(b) = base.as_ref() else {
            return Ok(());
        };
        let mut rows = self.rows.write();
        debug_assert!(rows.is_empty(), "lazy regions have empty memstores");
        for idx in 0..b.reader.block_count() {
            rows.extend(b.cache.peek_or_read(&b.reader, idx)?.rows());
        }
        b.cache.evict_reader(b.reader.id());
        *base = None;
        Ok(())
    }

    /// Force promotion ahead of a write. The sharded batch path calls
    /// this *before* appending the batch to any WAL, so a segment-CRC
    /// failure surfaces (and can be healed from a replica) while the
    /// batch can still be cleanly rejected — once the frame is logged on
    /// one shard, the in-memory apply must not be able to fail.
    pub(crate) fn prepare_for_write(&self) -> Result<(), SegmentError> {
        self.ensure_materialized()
    }

    /// This region's current row-key range.
    pub fn range(&self) -> KeyRange {
        self.range.read().clone()
    }

    /// Whether a row key belongs to this region.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.range.read().contains(key)
    }

    /// Whether this region's range starts at or before `key`: the probe
    /// of a binary search over a table's region list, which is sorted by
    /// start key (a region's start never moves; a split moves its end).
    pub(crate) fn starts_at_or_before(&self, key: &[u8]) -> bool {
        self.range.read().start.as_ref() <= key
    }

    /// Write a run of cells to one row, promoting, locking the rows and
    /// checking the range once for the whole run. Returns `Ok(false)`,
    /// having written nothing, when the row no longer belongs to this
    /// region (a concurrent split moved the key range) — the caller must
    /// re-resolve the region and retry. The range check happens under the
    /// rows write lock, which `split_at` also holds while shrinking the
    /// range, so the answer cannot go stale. A write to a segment-backed
    /// region promotes it first (which can surface a typed corruption
    /// error from the segment). Every cell keeps its own timestamp and
    /// checksum, and every column its `MAX_VERSIONS` cap. A family that
    /// takes new columns makes room for the rest of the run at once and
    /// is sized exactly again when the run is written.
    pub(crate) fn put_row(&self, row: &Bytes, cells: Cells<'_>) -> Result<bool, SegmentError> {
        self.ensure_materialized()?;
        let mut rows = self.rows.write();
        if !self.range.read().contains(row) {
            return Ok(false);
        }
        self.dirty.store(true, Ordering::Release);
        let data = rows.entry(row.clone()).or_default();
        let n = cells.len();
        for (i, (put, timestamp)) in cells.iter().enumerate() {
            put_cell(data, put, timestamp, n - i);
        }
        data.iter_mut()
            .for_each(|(_, columns)| columns.shrink_to_fit());
        Ok(true)
    }

    /// Read one row (latest versions only), verifying cell checksums.
    /// On a segment-backed region this reads exactly one block through
    /// the cache, admitting it; it never materializes the region.
    pub fn get(&self, row: &[u8]) -> Result<Option<RowResult>, StoreError> {
        let mut found = None;
        self.walk(Keys::One(row), |row| found = Some(materialize(row)))?;
        Ok(found)
    }

    /// Delete one row entirely. Returns `None` when the row key no longer
    /// belongs to this region (concurrent split — retry), otherwise
    /// whether the row existed.
    pub fn delete_row(&self, row: &[u8]) -> Result<Option<bool>, SegmentError> {
        self.ensure_materialized()?;
        let mut rows = self.rows.write();
        if !self.range.read().contains(row) {
            return Ok(None);
        }
        let existed = rows.remove(row).is_some();
        if existed {
            self.dirty.store(true, Ordering::Release);
        }
        Ok(Some(existed))
    }

    /// Walk the rows in `scan`'s key range ∩ this region as [`RowView`]s,
    /// checksum-verified, and hand `each` those that pass the scan's
    /// filter, which runs on the walked row: a row it drops is never
    /// materialized. Counts every row walked, and every row passed with the
    /// bytes of its values as returned. On a segment-backed region only
    /// the blocks overlapping the range are read, around the cache.
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
                metrics.rows_returned += 1;
                let bytes = row.cells.iter().map(|c| c.value.len() as u64);
                metrics.bytes_returned += bytes.sum::<u64>();
                each(row);
            }
        })?;
        Ok(metrics)
    }

    /// Walk the rows `keys` selects in key order, handing each to `each`
    /// once every one of its cells passed its checksum; the first that
    /// does not fails the walk. The one body under every read of rows,
    /// from a block or from the memstore. Only a point read admits its
    /// block to the cache; a range reads around it (DESIGN.md §42).
    fn walk(&self, keys: Keys<'_>, mut each: impl FnMut(RowView<'_>)) -> Result<(), StoreError> {
        if let Some(b) = self.base.read().as_ref() {
            for idx in keys.blocks(&b.reader) {
                let block = match keys {
                    Keys::One(_) => b.cache.get_or_load(&b.reader, idx)?,
                    Keys::Range(..) => b.cache.peek_or_read(&b.reader, idx)?,
                };
                let mut cells = Vec::with_capacity(ROW_CELLS);
                for i in keys.rows(&block) {
                    cells.clear();
                    cells.extend(
                        block
                            .latest(i)
                            .map(|(family, column, value, ts, checksum)| {
                                let version = Version::Block(&block, ts);
                                Latest {
                                    family,
                                    column,
                                    value,
                                    checksum,
                                    version,
                                }
                            }),
                    );
                    each(verified(block.key(i), &cells, Home::Block(&block))?);
                }
            }
            return Ok(());
        }
        let rows = self.rows.read();
        let mut cells = Vec::with_capacity(ROW_CELLS);
        for (key, data) in rows.range::<[u8], _>(keys.bounds()) {
            cells.clear();
            for (family, columns) in data {
                for (column, versions) in columns {
                    if let Some(latest) = versions.first() {
                        cells.push(Latest::owned(family, column, latest));
                    }
                }
            }
            each(verified(key, &cells, Home::Owned(key))?);
        }
        Ok(())
    }

    /// Check every retained cell version of this region against its
    /// write-time checksum ([`kv::first_bad_version`]); the first that
    /// fails is the error. Read where the rows are stored: a
    /// segment-backed region's blocks one at a time, around the cache,
    /// without promoting it.
    pub(crate) fn verify_versions(&self) -> Result<(), StoreError> {
        let check = |bad: Option<(&Bytes, &Bytes, u64)>| match bad {
            Some((row, column, _)) => Err(StoreError::corruption(row, column)),
            None => Ok(()),
        };
        if let Some(b) = self.base.read().as_ref() {
            for idx in 0..b.reader.block_count() {
                for (key, data) in b.cache.peek_or_read(&b.reader, idx)?.rows() {
                    check(kv::first_bad_version([(&key, &data)]))?;
                }
            }
            return Ok(());
        }
        check(kv::first_bad_version(&*self.rows.read()))
    }

    /// Test/chaos hook: flip one byte of the latest stored version of a
    /// cell *without* refreshing its checksum, simulating at-rest bit rot.
    /// Returns whether a cell was actually hit. Corrupting is a mutation,
    /// so a segment-backed region is promoted first (an unreadable
    /// segment means there is nothing in memory to corrupt: `false`).
    pub fn corrupt_cell(&self, row: &[u8], family: &str, column: &[u8]) -> bool {
        if self.ensure_materialized().is_err() {
            return false;
        }
        let mut rows = self.rows.write();
        let Some(latest) = rows
            .get_mut(row)
            .and_then(|data| data.iter_mut().find(|(f, _)| f == family))
            .and_then(|(_, columns)| columns.iter_mut().find(|(c, _)| c.as_ref() == column))
            .and_then(|(_, versions)| versions.first_mut())
        else {
            return false;
        };
        let mut v = latest.value.to_vec();
        if v.is_empty() {
            v.push(0xde);
        } else {
            v[0] ^= 0xff;
        }
        latest.value = Bytes::from(v);
        self.dirty.store(true, Ordering::Release);
        true
    }

    /// Number of rows stored. For a segment-backed region this is the
    /// segment trailer's exact row count — the region is clean, so the
    /// segment *is* its contents and no block needs reading.
    pub fn row_count(&self) -> usize {
        if let Some(b) = self.base.read().as_ref() {
            return b.reader.meta().row_count as usize;
        }
        self.rows.read().len()
    }

    /// The median row key — the point a split cuts at. Returns
    /// `None` when the region has fewer than 2 rows. Exposed separately
    /// so the durable store can write-ahead-log the split point *before*
    /// applying it (log-then-apply, like every other mutation).
    ///
    /// A segment-backed region reports `None`: splits only ever follow
    /// threshold-crossing puts, and a put promotes the region first, so a
    /// lazy region can never be split-eligible.
    pub fn median_key(&self) -> Option<Bytes> {
        if self.base.read().is_some() {
            return None;
        }
        let rows = self.rows.read();
        if rows.len() < 2 {
            return None;
        }
        rows.keys().nth(rows.len() / 2).cloned()
    }

    /// Split this region at an explicit key: the logged split point, for
    /// the live split and for its replay alike. `Ok(None)` if the key is
    /// empty or outside this region's range.
    pub fn split_at(&self, key: &Bytes, new_id: u64) -> Result<Option<Region>, SegmentError> {
        self.ensure_materialized()?;
        let mut rows = self.rows.write();
        let mut my_range = self.range.write();
        if !my_range.contains(key) || key.is_empty() {
            return Ok(None);
        }
        let upper_rows = rows.split_off(key);
        let upper = Region {
            id: new_id,
            range: RwLock::new(KeyRange {
                start: key.clone(),
                end: my_range.end.clone(),
            }),
            rows: RwLock::new(upper_rows),
            base: RwLock::new(None),
            dirty: AtomicBool::new(true),
            flushed_as: Mutex::new(None),
        };
        // Shrink this region's range to end at the split point. Both
        // halves diverge from any flushed segment.
        my_range.end = Some(key.clone());
        self.dirty.store(true, Ordering::Release);
        Ok(Some(upper))
    }

    /// Snapshot this region's rows for a segment flush, promoting a
    /// segment-backed region first.
    pub fn export_rows(&self) -> Result<BTreeMap<Bytes, RowData>, SegmentError> {
        self.ensure_materialized()?;
        Ok(self.rows.read().clone())
    }

    /// Replace this region's contents wholesale with rows copied from a
    /// healthy replica, *without reading the current base* — the whole
    /// point of a heal is that the backing segment failed its CRC, so
    /// promotion is off the table. Any cached blocks of the dropped
    /// segment are evicted (the reader id will never be reused, but the
    /// bytes would pin cache budget forever). The region comes out
    /// materialized and dirty; the caller flushes to make the repair
    /// durable and delete the corrupt file.
    pub(crate) fn install_rows(&self, new_rows: BTreeMap<Bytes, RowData>) {
        let mut base = self.base.write();
        if let Some(b) = base.as_ref() {
            b.cache.evict_reader(b.reader.id());
        }
        let mut rows = self.rows.write();
        *rows = new_rows;
        *base = None;
        self.dirty.store(true, Ordering::Release);
        *self.flushed_as.lock() = None;
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
    let pos = versions
        .iter()
        .position(|v| v.timestamp <= timestamp)
        .unwrap_or(versions.len());
    if pos < MAX_VERSIONS {
        versions.truncate(MAX_VERSIONS - 1);
        versions.reserve_exact(1);
        versions.insert(pos, CellVersion::new(timestamp, put.value.clone()));
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
    /// A memstore row or a materialized one.
    Owned(&'a Bytes),
}

#[derive(Clone, Copy)]
enum Version<'a> {
    /// A block's cell, its column and value slices of the block's buffer:
    /// its timestamp.
    Block(&'a Block, u64),
    /// A memstore's or a materialized row's column and latest version.
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
        assert!(region.put_row(&row, Cells::Logged(&cells)).unwrap());
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
        let upper = r.split_at(&r.median_key().unwrap(), 2).unwrap().unwrap();
        assert_eq!(r.row_count() + upper.row_count(), 6);
        assert!(upper.row_count() >= 3);
        assert_eq!(upper.range().start, Bytes::from("d"));
        assert_eq!(r.range().end, Some(Bytes::from("d")));
        assert!(r.contains_key(b"a"));
        assert!(!r.contains_key(b"d"));
    }

    #[test]
    fn a_row_run_the_range_lost_is_handed_back_untouched() {
        let r = Region::new(1, KeyRange::all());
        put(&r, "a", "c", "v", 1);
        put(&r, "b", "c", "v", 1);
        let _upper = r.split_at(&Bytes::from("b"), 2).unwrap().unwrap();
        let cells = [cell("cf", "c", "v", 2), cell("cf", "c", "v", 3)];
        assert!(!r.put_row(&Bytes::from("c"), Cells::Logged(&cells)).unwrap());
        assert!(r.get(b"c").unwrap().is_none());
    }

    #[test]
    fn tiny_region_refuses_split() {
        let r = Region::new(1, KeyRange::all());
        put(&r, "only", "c", "v", 1);
        assert!(r.median_key().is_none());
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
                proptest::prop_assert!(region.put_row(&key, Cells::Logged(&run)).unwrap());
            }
            proptest::prop_assert!(exactly_sized(&region.rows.read()[&key]));
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
