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
//!   through the shared [`BlockCache`]; nothing is materialized beyond
//!   the blocks a read actually touches. The *first mutation* promotes
//!   the region to materialized (reading every block once, through the
//!   cache), so the memstore invariants — and the WAL-covers-memstore
//!   durability contract — are untouched for anything that can change.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::blockcache::BlockCache;
use crate::filter::Filter;
use crate::kv::{CellVersion, RowResult};
use crate::segment::{SegmentError, SegmentReader};
use crate::store::StoreError;

/// Maximum cell versions retained per column, like HBase's default.
pub(crate) const MAX_VERSIONS: usize = 3;

/// Key of one stored row inside a region: family → column → versions
/// (newest first). Public because segment files and recovery move rows
/// in and out of regions in this shape.
pub type RowData = BTreeMap<String, BTreeMap<Bytes, Vec<CellVersion>>>;

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

/// One cell of a row run ([`Region::put_row`]): a stamped `Put` minus
/// the row the run shares.
pub(crate) struct RunCell {
    pub(crate) family: String,
    pub(crate) column: Bytes,
    pub(crate) value: Bytes,
    pub(crate) timestamp: u64,
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
    /// once (through the cache) into the memstore and drop the base.
    /// Idempotent; a no-op for materialized regions. Every mutation goes
    /// through here first, so an unreadable segment is the one error a
    /// mutation can fail with.
    fn ensure_materialized(&self) -> Result<(), SegmentError> {
        let mut base = self.base.write();
        let Some(b) = base.as_ref() else {
            return Ok(());
        };
        let mut rows = self.rows.write();
        debug_assert!(rows.is_empty(), "lazy regions have empty memstores");
        for idx in 0..b.reader.block_count() {
            let block = b.cache.get_or_load(&b.reader, idx)?;
            for (key, data) in block.iter() {
                rows.insert(key.clone(), data.clone());
            }
        }
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
    /// with `cells` untouched, when the row no longer belongs to this
    /// region (a concurrent split moved the key range) — the caller must
    /// re-resolve the region and retry. The range check happens under the
    /// rows write lock, which `split_at` also holds while shrinking the
    /// range, so the answer cannot go stale. A write to a segment-backed
    /// region promotes it first (which can surface a typed corruption
    /// error from the segment). Every cell keeps its own timestamp and
    /// checksum, and every column its `MAX_VERSIONS` cap.
    pub(crate) fn put_row(
        &self,
        row: &Bytes,
        cells: &mut Vec<RunCell>,
    ) -> Result<bool, SegmentError> {
        self.ensure_materialized()?;
        let mut rows = self.rows.write();
        if !self.range.read().contains(row) {
            return Ok(false);
        }
        self.dirty.store(true, Ordering::Release);
        let data = rows.entry(row.clone()).or_default();
        for cell in cells.drain(..) {
            let versions = data
                .entry(cell.family)
                .or_default()
                .entry(cell.column)
                .or_default();
            // Keep versions sorted by timestamp descending whatever order
            // they arrive in: a log is applied as it was written, by
            // whoever wrote it. The stores stamp monotonically, so the
            // insert position is 0.
            let pos = versions
                .iter()
                .position(|v| v.timestamp <= cell.timestamp)
                .unwrap_or(versions.len());
            versions.insert(pos, CellVersion::new(cell.timestamp, cell.value));
            versions.truncate(MAX_VERSIONS);
        }
        Ok(true)
    }

    /// Read one row (latest versions only), verifying cell checksums.
    /// On a segment-backed region this reads exactly one block through
    /// the cache; it never materializes the region.
    pub fn get(&self, row: &[u8]) -> Result<Option<RowResult>, StoreError> {
        {
            let base = self.base.read();
            if let Some(b) = base.as_ref() {
                let Some(idx) = b.reader.block_for(row) else {
                    return Ok(None);
                };
                let block = b.cache.get_or_load(&b.reader, idx)?;
                return block
                    .get_key_value(row)
                    .map(|(key, data)| materialize(key, data))
                    .transpose();
            }
        }
        let rows = self.rows.read();
        rows.get_key_value(row)
            .map(|(key, data)| materialize(key, data))
            .transpose()
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

    /// Scan rows in `[start, end)` ∩ this region, applying a server-side
    /// filter and verifying cell checksums. Returns matching rows and the
    /// scan metrics, or the first corruption encountered. On a
    /// segment-backed region only the blocks overlapping the range are
    /// read (through the cache); the row-level visit order, filtering,
    /// and metrics are bit-identical to the materialized path.
    pub fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        filter: Option<&dyn Filter>,
    ) -> Result<(Vec<RowResult>, ScanMetrics), StoreError> {
        let lower = Bound::Included(Bytes::copy_from_slice(start));
        let upper = match end {
            Some(e) => Bound::Excluded(Bytes::copy_from_slice(e)),
            None => Bound::Unbounded,
        };
        let mut out = Vec::new();
        let mut metrics = ScanMetrics {
            regions_visited: 1,
            ..ScanMetrics::default()
        };
        {
            let base = self.base.read();
            if let Some(b) = base.as_ref() {
                for idx in b.reader.blocks_overlapping(start, end) {
                    let block = b.cache.get_or_load(&b.reader, idx)?;
                    for (key, data) in block.range::<Bytes, _>((lower.clone(), upper.clone())) {
                        visit_row(key, data, filter, &mut out, &mut metrics)?;
                    }
                }
                return Ok((out, metrics));
            }
        }
        let rows = self.rows.read();
        for (key, data) in rows.range::<Bytes, _>((lower, upper)) {
            visit_row(key, data, filter, &mut out, &mut metrics)?;
        }
        Ok((out, metrics))
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
        let Some(versions) = rows
            .get_mut(row)
            .and_then(|fams| fams.get_mut(family))
            .and_then(|cols| cols.get_mut(column))
        else {
            return false;
        };
        let Some(latest) = versions.first_mut() else {
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

/// The shared per-row scan body: materialize (verifying checksums),
/// filter, account. Factored out so the segment-backed and materialized
/// scan paths are bit-identical by construction.
fn visit_row(
    key: &Bytes,
    data: &RowData,
    filter: Option<&dyn Filter>,
    out: &mut Vec<RowResult>,
    metrics: &mut ScanMetrics,
) -> Result<(), StoreError> {
    metrics.rows_scanned += 1;
    let result = materialize(key, data)?;
    metrics.cells_scanned += result.cell_count() as u64;
    let passes = filter.map(|f| f.matches(&result)).unwrap_or(true);
    if passes {
        metrics.rows_returned += 1;
        metrics.bytes_returned += result
            .families
            .values()
            .flat_map(|cols| cols.values())
            .map(|c| c.value.len() as u64)
            .sum::<u64>();
        out.push(result);
    }
    Ok(())
}

/// The latest version of every cell of a stored row, checksum-verified.
/// The result shares the stored key rather than copying it.
fn materialize(row: &Bytes, data: &RowData) -> Result<RowResult, StoreError> {
    let mut result = RowResult::new(row.clone());
    for (family, cols) in data {
        let out_cols = result.families.entry(family.clone()).or_default();
        for (col, versions) in cols {
            if let Some(latest) = versions.first() {
                if !latest.verify() {
                    return Err(StoreError::Corruption {
                        row: String::from_utf8_lossy(row).into_owned(),
                        column: String::from_utf8_lossy(col).into_owned(),
                    });
                }
                out_cols.insert(col.clone(), latest.clone());
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(region: &Region, row: &str, col: &str, val: &str, ts: u64) {
        let mut cells = vec![RunCell {
            family: "cf".to_string(),
            column: Bytes::copy_from_slice(col.as_bytes()),
            value: Bytes::copy_from_slice(val.as_bytes()),
            timestamp: ts,
        }];
        let row = Bytes::copy_from_slice(row.as_bytes());
        assert!(region.put_row(&row, &mut cells).unwrap());
        assert!(cells.is_empty());
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
        let (scanned, _) = r.scan(b"", None, None).unwrap();
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
        let (rows, metrics) = r.scan(b"b", Some(b"d"), None).unwrap();
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
        let (rows, metrics) = r.scan(b"", None, Some(&f)).unwrap();
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
        let cell = |timestamp| RunCell {
            family: "cf".to_string(),
            column: Bytes::from("c"),
            value: Bytes::from("v"),
            timestamp,
        };
        let mut cells = vec![cell(2), cell(3)];
        assert!(!r.put_row(&Bytes::from("c"), &mut cells).unwrap());
        assert_eq!(cells.len(), 2);
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
            r.scan(b"", None, None),
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

    #[test]
    fn delete_row_removes() {
        let r = Region::new(1, KeyRange::all());
        put(&r, "x", "c", "v", 1);
        assert_eq!(r.delete_row(b"x").unwrap(), Some(true));
        assert_eq!(r.delete_row(b"x").unwrap(), Some(false));
        assert!(r.get(b"x").unwrap().is_none());
    }
}
