//! The store: tables, the META catalog, region assignment, and the
//! client API (create/put/get/scan/delete) with server-side filter
//! pushdown, parallel region scans, and an optional HBase-shaped
//! durability layer (write-ahead log + flushed segments + recovery).
//!
//! A store opened with [`MiniStore::new`] is purely in-memory, exactly
//! as before. A store opened with [`MiniStore::open`] is backed by a
//! directory: every mutation is built as [`WalRecord`]s, written to the
//! WAL *before* it touches memory, and then handed to the store's one
//! applier (log-then-apply, DESIGN.md §24); [`MiniStore::flush`] persists
//! dirty regions as immutable segment files and swaps the MANIFEST
//! atomically; and reopening the directory hands the WAL tail to that
//! same applier over lazily opened segments, each the base under a
//! region's memstore, read through a shared [`BlockCache`] (DESIGN.md §44).
//! Durable mutations are serialized under one lock so the WAL order is
//! exactly the apply order — replay is then a rerun, by the code that ran
//! the first time.
//!
//! The caller flushes (DESIGN.md §43): nothing flushes on its own, and a
//! reopen replays whatever WAL the last flush left. Every flush runs
//! under the durable lock and the WAL always covers the memstore, so
//! where a caller flushes never matters to crash safety.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::blockcache::{BlockCache, BlockCacheStats};
use crate::filter::Filter;
use crate::frame;
use crate::kv::{self, Put, RowResult};
use crate::recovery::{
    self, inconsistent, io_err, Manifest, ManifestTable, RecoveryError, RecoveryReport,
};
use crate::region::{materialize, KeyRange, Region, RowData, RowView, ScanMetrics};
use crate::segment::{self, SegmentError, SegmentReader};
use crate::wal::{
    self, Cells, CrashSpec, Op, Run, SyncPolicy, WalError, WalRecord, WalWriter, WAL_FILE,
};

/// Rows per region before a split is triggered.
pub(crate) const DEFAULT_SPLIT_THRESHOLD: usize = 256;

/// Store errors. Kept `Clone + Eq` (I/O failures are carried as rendered
/// strings) so callers and property tests can compare outcomes; the
/// richer typed chain for reopen failures lives in
/// [`crate::recovery::RecoveryError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    TableExists(String),
    NoSuchTable(String),
    NoSuchColumnFamily {
        table: String,
        family: String,
    },
    /// A stored cell's value no longer matches its write-time CRC-32 —
    /// at-rest corruption detected on read.
    Corruption {
        row: String,
        column: String,
    },
    /// An injected [`CrashSpec`] point fired (or a previous one already
    /// poisoned the store). The store refuses all further durable
    /// mutations until the directory is reopened through recovery.
    Crashed,
    /// A real I/O failure underneath the durability layer.
    Io(String),
    /// A segment block failed its CRC when a lazy read finally touched
    /// it — at-rest corruption of flushed data, surfaced on the read
    /// path (the reopen path only verifies segment metadata up front).
    SegmentCorrupt {
        file: String,
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::TableExists(t) => write!(f, "table `{t}` already exists"),
            StoreError::NoSuchTable(t) => write!(f, "no such table `{t}`"),
            StoreError::NoSuchColumnFamily { table, family } => {
                write!(
                    f,
                    "table `{table}` has no column family `{family}` \
                     (families are fixed at table creation, as in HBase)"
                )
            }
            StoreError::Corruption { row, column } => {
                write!(
                    f,
                    "checksum mismatch in row `{row}`, column `{column}`: \
                     stored cell is corrupt"
                )
            }
            StoreError::Crashed => {
                write!(f, "store crashed (injected crash point); reopen to recover")
            }
            StoreError::Io(detail) => write!(f, "store I/O failure: {detail}"),
            StoreError::SegmentCorrupt { file, detail } => {
                write!(f, "segment `{file}` is corrupt: {detail}")
            }
        }
    }
}
impl std::error::Error for StoreError {}

impl StoreError {
    /// The corruption of `row`'s cell in `column`.
    pub(crate) fn corruption(row: &[u8], column: &[u8]) -> Self {
        StoreError::Corruption {
            row: String::from_utf8_lossy(row).into_owned(),
            column: String::from_utf8_lossy(column).into_owned(),
        }
    }
}

impl From<WalError> for StoreError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Crashed => StoreError::Crashed,
            WalError::Io(io) => StoreError::Io(io.to_string()),
        }
    }
}

impl From<SegmentError> for StoreError {
    fn from(e: SegmentError) -> Self {
        match e {
            SegmentError::Corrupt { file, detail } => StoreError::SegmentCorrupt { file, detail },
            SegmentError::Io(io) => StoreError::Io(format!("segment I/O: {io}")),
        }
    }
}

/// What the applier refused, as a live mutation reports it.
impl From<RecoveryError> for StoreError {
    fn from(e: RecoveryError) -> Self {
        match e {
            RecoveryError::Segment(e) => e.into(),
            other => StoreError::Io(other.to_string()),
        }
    }
}

/// A scan request.
pub struct Scan {
    /// Inclusive start row.
    pub start: Bytes,
    /// Exclusive stop row; `None` scans to the end of the table.
    pub stop: Option<Bytes>,
    /// Server-side filter, evaluated at the regions on each row as the
    /// scan walks it: only the rows it passes are materialized.
    pub filter: Option<Box<dyn Filter>>,
}

impl Scan {
    /// Full-table scan.
    pub fn all() -> Self {
        Scan {
            start: Bytes::new(),
            stop: None,
            filter: None,
        }
    }

    /// Scan rows with a given prefix (start = prefix, stop = prefix+1).
    pub fn prefix(prefix: &[u8]) -> Self {
        let mut stop = prefix.to_vec();
        for i in (0..stop.len()).rev() {
            if stop[i] < 0xff {
                stop[i] += 1;
                stop.truncate(i + 1);
                return Scan {
                    start: Bytes::copy_from_slice(prefix),
                    stop: Some(Bytes::from(stop)),
                    filter: None,
                };
            }
        }
        Scan {
            start: Bytes::copy_from_slice(prefix),
            stop: None,
            filter: None,
        }
    }

    pub fn with_filter(mut self, filter: Box<dyn Filter>) -> Self {
        self.filter = Some(filter);
        self
    }
}

/// One table: a fixed set of column families and a list of regions sorted
/// by start key.
struct Table {
    families: Vec<String>,
    regions: RwLock<Vec<Arc<Region>>>,
    split_threshold: usize,
}

impl Table {
    fn new(families: Vec<String>, split_threshold: usize, regions: Vec<Arc<Region>>) -> Self {
        Table {
            families,
            regions: RwLock::new(regions),
            split_threshold,
        }
    }

    /// The region owning `row`. Region ranges cover the key space, so a
    /// miss means the log and the segments are not one store's.
    fn region_for(&self, row: &[u8], table: &str) -> Result<Arc<Region>, RecoveryError> {
        let regions = self.regions.read();
        let owner = owner_index(&regions, row).map(|i| regions[i].clone());
        owner.ok_or_else(|| inconsistent(format!("no region covers a replayed row in `{table}`")))
    }
}

/// Where `row` belongs in a table's region list: the one routing step of
/// every single-row operation. The list is sorted by start key — open
/// sorts it, a split inserts its upper half right behind its parent — so
/// the owner is the last region starting at or before `row`, found by
/// binary search in O(log regions), and its range must hold `row`, or
/// the list does not tile the key space.
fn owner_index(regions: &[Arc<Region>], row: &[u8]) -> Option<usize> {
    let after = regions.partition_point(|r| r.start().as_ref() <= row);
    let i = after.checked_sub(1)?;
    regions[i].contains_key(row).then_some(i)
}

/// Insert a table with its all-covering root region unless the catalog
/// already has one of that name: a `CreateTable` logged before a flush
/// captured the table replays over it as a no-op.
fn create_table_in(
    tables: &mut BTreeMap<String, Arc<Table>>,
    name: String,
    families: Vec<String>,
    split_threshold: usize,
    root_region_id: u64,
) {
    tables.entry(name).or_insert_with(|| {
        let root = Arc::new(Region::new(root_region_id, KeyRange::all()));
        Arc::new(Table::new(families, split_threshold, vec![root]))
    });
}

/// Split region `parent_id` of a table's (write-locked) region list at
/// `split_key`, registering the upper half as `new_id` right behind it.
/// The parent is the region owning the split key.
fn split_region_in(
    regions: &mut Vec<Arc<Region>>,
    table: &str,
    parent_id: u64,
    new_id: u64,
    split_key: &Bytes,
) -> Result<(), RecoveryError> {
    let outside = || inconsistent(format!("split key outside region {parent_id} of `{table}`"));
    let owner = owner_index(regions, split_key);
    let Some(pos) = owner.filter(|&i| regions[i].id == parent_id) else {
        if regions.iter().any(|r| r.id == parent_id) {
            return Err(outside());
        }
        return Err(inconsistent(format!(
            "split of unknown region {parent_id} in `{table}`"
        )));
    };
    let Some(upper) = regions[pos].split_at(split_key, new_id) else {
        return Err(outside());
    };
    regions.insert(pos + 1, Arc::new(upper));
    Ok(())
}

/// What applying one frame did that its live caller acts on.
#[derive(Default)]
struct Applied<'a> {
    /// `(table name, table, region)` of every region a put landed in,
    /// once each, in first-touch order: what the split check looks at.
    touched: Vec<(&'a str, Arc<Table>, Arc<Region>)>,
    /// Rows a `DeleteRow` found and removed.
    rows_deleted: usize,
}

/// An entry of the META catalog: `(table, start_key, region_id) → region
/// server` (§5.2.2's key shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaEntry {
    pub table: String,
    pub start_key: Bytes,
    pub region_id: u64,
    pub region_server: u32,
}

/// What [`MiniStore::install_table_rows`] does to the rows a table
/// already holds. Two semantics, each with its own callers — not a knob:
/// a heal, rebuild or prune must *drop* whatever the region held (the
/// base is corrupt, or the rows are no longer owned), while a reshard
/// copy must *keep* it (the target already holds dual-applied writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Install {
    /// The given rows become the table's entire contents, installed
    /// without reading the current (possibly corrupt) base.
    Replace,
    /// The given rows overwrite their own keys; every other row stays.
    Merge,
}

/// The durable half of a store: the WAL writer plus flush bookkeeping.
/// All durable mutations lock this, so WAL order == apply order.
struct DurableState {
    dir: PathBuf,
    wal: WalWriter,
    /// Flush generation; names the next batch of segment files.
    generation: u64,
}

/// How to open a durable store: crash injection and the block cache
/// budget.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// The durability rule; [`SyncPolicy::EveryOp`] is its one value.
    pub sync: SyncPolicy,
    /// Injected crash points (default: never fires).
    pub crash: CrashSpec,
    /// Byte budget of the shared segment [`BlockCache`] (default 8 MiB).
    /// `0` disables caching: lazy reads still work, block-at-a-time,
    /// but nothing is retained.
    pub block_cache_bytes: u64,
    /// Recorded, not read: the caller flushes whatever this says. The
    /// field stays because the benchmark writes it into every run's
    /// `env` (DESIGN.md §43).
    pub background_flush_wal_bytes: Option<u64>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            sync: SyncPolicy::EveryOp,
            crash: CrashSpec::default(),
            block_cache_bytes: 8 << 20,
            background_flush_wal_bytes: None,
        }
    }
}

/// The miniature column-family store.
pub struct MiniStore {
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
    clock: AtomicU64,
    next_region_id: AtomicU64,
    /// Simulated region-server count for META assignment reporting.
    region_servers: u32,
    /// Observability sink for the `cfstore.*` counters (DESIGN.md §10);
    /// disabled (a single branch per operation) unless a caller attaches
    /// an enabled registry via [`MiniStore::set_obs`].
    obs: obs::Registry,
    /// The shared segment block cache every lazy region reads through.
    cache: Arc<BlockCache>,
    /// `Some` when the store is backed by a directory (WAL + segments);
    /// `None` for the classic in-memory store.
    durable: Option<Mutex<DurableState>>,
}

impl MiniStore {
    /// An empty store with no tables and observability disabled.
    pub fn new() -> Self {
        MiniStore {
            tables: RwLock::new(BTreeMap::new()),
            clock: AtomicU64::new(1),
            next_region_id: AtomicU64::new(1),
            region_servers: 4,
            obs: obs::Registry::disabled(),
            cache: Arc::new(BlockCache::new(0)),
            durable: None,
        }
    }

    /// Open (or create) a durable store at `dir`, running recovery:
    /// open manifest-referenced segments (metadata checksum-verified,
    /// blocks lazy), truncate any torn WAL tail, and replay the rest.
    /// Returns the store plus the [`RecoveryReport`] accounting for
    /// every replayed and dropped byte.
    pub fn open(dir: &Path) -> Result<(Self, RecoveryReport), RecoveryError> {
        Self::open_with_opts(dir, StoreOptions::default())
    }

    /// [`MiniStore::open`] with full [`StoreOptions`] control.
    pub fn open_with_opts(
        dir: &Path,
        opts: StoreOptions,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let cache = Arc::new(BlockCache::new(opts.block_cache_bytes));
        let mut report = RecoveryReport::default();

        // The committed catalog and its segments: every region comes back
        // segment-backed and clean.
        let manifest = recovery::read_manifest(dir)?.unwrap_or_default();
        let mut tables: BTreeMap<String, Arc<Table>> = BTreeMap::new();
        for t in &manifest.tables {
            let table = Table::new(t.families.clone(), t.split_threshold as usize, Vec::new());
            tables.insert(t.name.clone(), Arc::new(table));
        }
        let mut next_region_id = manifest.next_region_id.max(1);
        for reader in recovery::open_segments(dir, &manifest, &mut report)? {
            let meta = reader.meta().clone();
            let Some(table) = tables.get(&meta.table) else {
                return Err(inconsistent(format!(
                    "segment `{}` references unknown table `{}`",
                    reader.file_name(),
                    meta.table
                )));
            };
            next_region_id = next_region_id.max(meta.region_id.saturating_add(1));
            let region = Region::new(meta.region_id, meta.range);
            region.rebase(reader, cache.clone());
            table.regions.write().push(Arc::new(region));
        }
        for t in tables.values() {
            t.regions.write().sort_by(|a, b| a.start().cmp(b.start()));
        }

        // The WAL: account for every byte, drop the torn tail physically
        // so appends never interleave with it, and continue after the
        // highest LSN seen.
        let wal_path = dir.join(WAL_FILE);
        let scan =
            recovery::account_wal(dir, &manifest, &mut report).map_err(|e| io_err(&wal_path, e))?;
        if report.wal_bytes_dropped > 0 {
            frame::truncate_and_sync(&wal_path, scan.valid_bytes)
                .map_err(|e| io_err(&wal_path, e))?;
        }
        let max_lsn = scan.records.iter().map(|f| f.lsn).max();
        let next_lsn = manifest.flushed_lsn.max(max_lsn.unwrap_or(0)) + 1;
        let wal = WalWriter::open(&wal_path, scan.valid_bytes, next_lsn, opts.crash).map_err(
            |e| match e {
                WalError::Io(io) => io_err(&wal_path, io),
                WalError::Crashed => io_err(&wal_path, std::io::Error::other("crash during open")),
            },
        )?;
        let store = MiniStore {
            tables: RwLock::new(tables),
            // The next timestamp to assign: past the manifest's, and —
            // the applier raises it — past every replayed one.
            clock: AtomicU64::new(manifest.clock + 1),
            next_region_id: AtomicU64::new(next_region_id),
            region_servers: 4,
            obs: obs::Registry::disabled(),
            cache,
            durable: Some(Mutex::new(DurableState {
                dir: dir.to_path_buf(),
                wal,
                generation: manifest.generation + 1,
            })),
        };

        // Replay: frames a flush did not capture go through the applier
        // that applied them the first time. Nothing is logged, and what
        // the puts touched is dropped: a split the live write made is in
        // the log behind it. Only a delete reads a block, which is counted.
        let reads = obs::Registry::new();
        store.cache.set_obs(reads.clone());
        for frame in scan.records.iter().filter(|f| f.lsn > manifest.flushed_lsn) {
            store.apply(wal::ops(&frame.records))?;
        }
        store.cache.set_obs(obs::Registry::disabled());
        let misses = reads
            .snapshot()
            .counters
            .remove("cfstore.block_cache.misses");
        report.segment_blocks_read = misses.unwrap_or(0);
        // Every table needs at least one region covering the key space.
        for t in store.tables.read().values() {
            let mut regions = t.regions.write();
            if regions.is_empty() {
                let id = store.next_region_id.fetch_add(1, Ordering::Relaxed);
                regions.push(Arc::new(Region::new(id, KeyRange::all())));
            }
        }
        Ok((store, report))
    }

    /// Whether this store is backed by a directory.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Whether an injected crash point has poisoned the store.
    pub fn is_crashed(&self) -> bool {
        self.durable
            .as_ref()
            .map(|m| m.lock().wal.is_crashed())
            .unwrap_or(false)
    }

    /// Attach an observability registry. Subsequent operations count
    /// puts, gets, scans, scanned/returned rows, checksum-verified
    /// cells, and block-cache traffic against it (`cfstore.*` counters).
    pub fn set_obs(&mut self, obs: obs::Registry) {
        self.cache.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Occupancy of the shared segment block cache.
    pub fn cache_stats(&self) -> BlockCacheStats {
        self.cache.stats()
    }

    /// Create a table with a fixed set of column families.
    pub fn create_table(&self, name: &str, families: &[&str]) -> Result<(), StoreError> {
        self.create_table_with_threshold(name, families, DEFAULT_SPLIT_THRESHOLD)
    }

    /// Write one cell. In durable mode the cell's frame is written to the
    /// WAL before the cell becomes visible.
    pub fn put(&self, table: &str, put: Put) -> Result<(), StoreError> {
        self.put_batch(table, vec![put])
    }

    /// Current logical-clock value (the next timestamp this store would
    /// assign). The sharded store resumes its global clock from the max
    /// across shards.
    pub(crate) fn clock_value(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Cumulative WAL bytes written this session, *across* flush
    /// truncations — the same currency [`CrashSpec::after_wal_bytes`]
    /// budgets count, so the crash harnesses can measure a clean run
    /// and sweep every byte of it. Zero for an in-memory store.
    pub fn wal_bytes_written(&self) -> u64 {
        self.durable
            .as_ref()
            .map(|m| m.lock().wal.bytes_written())
            .unwrap_or(0)
    }

    /// Create a table with a custom region-split threshold (used by the
    /// store-scalability benchmarks).
    pub fn create_table_with_threshold(
        &self,
        name: &str,
        families: &[&str],
        split_threshold: usize,
    ) -> Result<(), StoreError> {
        // Lock order everywhere: durable state first, then the catalog,
        // then region internals — so flushes and mutations never deadlock.
        // The catalog stays write-locked from the existence check to the
        // insert, which is why this calls the applier's `CreateTable` arm
        // rather than the applier.
        let mut durable = self.durable.as_ref().map(|m| m.lock());
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(StoreError::TableExists(name.to_string()));
        }
        let families: Vec<String> = families.iter().map(|f| f.to_string()).collect();
        let root_region_id = self.next_region_id.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = durable.as_mut() {
            d.wal.append(&[WalRecord::CreateTable {
                name: name.to_string(),
                families: families.clone(),
                split_threshold: split_threshold as u64,
                root_region_id,
            }])?;
        }
        let name = name.to_string();
        create_table_in(&mut tables, name, families, split_threshold, root_region_id);
        Ok(())
    }

    fn table(&self, name: &str) -> Result<Arc<Table>, StoreError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    /// Write a batch of cells as one atomic unit: in durable mode the
    /// whole batch is a single WAL frame, so recovery replays all of it
    /// or none of it — multi-row values (a whole profile) never reappear
    /// half-written after a crash. An empty batch writes nothing.
    pub fn put_batch(&self, table: &str, puts: Vec<Put>) -> Result<(), StoreError> {
        if puts.is_empty() {
            return Ok(());
        }
        self.obs.incr("cfstore.puts", puts.len() as u64);
        let t = self.table(table)?;
        if let Some(put) = puts
            .iter()
            .find(|p| !t.families.iter().any(|f| *f == p.family))
        {
            return Err(StoreError::NoSuchColumnFamily {
                table: table.to_string(),
                family: put.family.to_string(),
            });
        }
        let mut durable = self.durable.as_ref().map(|m| m.lock());
        // Every cell is stamped, in order, from one claim on the clock:
        // the batch's runs are its puts with their first timestamps.
        let first = self.clock.fetch_add(puts.len() as u64, Ordering::Relaxed);
        let ops = || wal::runs(table, &puts, first).map(Op::Run);
        if let Some(d) = durable.as_mut() {
            // Log-then-apply: frame the whole batch, and only touch
            // memory once the log accepted it. A torn frame means the
            // caller never saw an ack and recovery drops the tail —
            // nothing to undo.
            d.wal.append(ops())?;
        }
        let applied = self.apply(ops())?;
        self.split_grown(applied, durable.as_deref_mut())
    }

    /// The half of a live write that replay never runs: split every
    /// region the write touched that outgrew its table's threshold at its
    /// split point ([`Region::split_point`], which reads no block). In
    /// durable mode the split point and new region id are WAL-logged
    /// *before* the split is applied, so replay reproduces the exact
    /// region topology. A region is checked first with the region list
    /// unlocked; one that splits is checked again with the list
    /// write-locked from the cut to the insert, which is why this calls
    /// the applier's `RegionSplit` arm rather than the applier.
    fn split_grown(
        &self,
        applied: Applied<'_>,
        mut durable: Option<&mut DurableState>,
    ) -> Result<(), StoreError> {
        for (table, t, region) in applied.touched {
            if region.split_point(t.split_threshold).is_none() {
                continue;
            }
            let mut regions = t.regions.write();
            let Some(split_key) = region.split_point(t.split_threshold) else {
                continue;
            };
            let new_id = self.next_region_id.fetch_add(1, Ordering::Relaxed);
            if let Some(d) = durable.as_deref_mut() {
                d.wal.append(&[WalRecord::RegionSplit {
                    table: table.to_string(),
                    parent_id: region.id,
                    new_id,
                    split_key: split_key.clone(),
                }])?;
            }
            split_region_in(&mut regions, table, region.id, new_id, &split_key)?;
            let obs = &self.obs;
            obs.event(
                "cfstore.region.split",
                &[
                    ("table", obs::Value::from(table)),
                    ("parent", obs::Value::from(region.id)),
                    ("new", obs::Value::from(new_id)),
                ],
            );
            obs.incr("cfstore.region.splits", 1);
        }
        Ok(())
    }

    /// Read one row (checksum-verified).
    pub fn get(&self, table: &str, row: &[u8]) -> Result<Option<RowResult>, StoreError> {
        let obs = &self.obs;
        obs.incr("cfstore.gets", 1);
        let t = self.table(table)?;
        let regions = t.regions.read();
        let result = match owner_index(&regions, row) {
            Some(i) => regions[i].get(row)?,
            None => None,
        };
        if let Some(row) = &result {
            obs.incr("cfstore.cells_verified", row.cell_count() as u64);
        }
        Ok(result)
    }

    /// Chaos hook: corrupt the latest version of one stored cell in place
    /// (bit-flip without a checksum update), so the next read of that row
    /// fails with [`StoreError::Corruption`]. Returns whether a cell was
    /// actually hit.
    pub fn corrupt_cell(
        &self,
        table: &str,
        row: &[u8],
        family: &str,
        column: &[u8],
    ) -> Result<bool, StoreError> {
        let t = self.table(table)?;
        let regions = t.regions.read();
        let owner = owner_index(&regions, row);
        Ok(owner.is_some_and(|i| regions[i].corrupt_cell(row, family, column)))
    }

    /// Delete one row.
    pub fn delete_row(&self, table: &str, row: &[u8]) -> Result<bool, StoreError> {
        self.table(table)?;
        let mut durable = self.durable.as_ref().map(|m| m.lock());
        let delete = WalRecord::DeleteRow {
            table: table.to_string(),
            row: Bytes::copy_from_slice(row),
        };
        if let Some(d) = durable.as_mut() {
            d.wal.append(std::slice::from_ref(&delete))?;
        }
        Ok(self.apply([Op::Record(&delete)])?.rows_deleted > 0)
    }

    /// Scan with server-side filtering: [`Self::visit`], keeping each row
    /// the filter passes, materialized, in key order.
    pub fn scan(
        &self,
        table: &str,
        scan: &Scan,
    ) -> Result<(Vec<RowResult>, ScanMetrics), StoreError> {
        let (parts, metrics) = self.visit(table, scan, keep)?;
        Ok((parts.into_iter().flatten().collect(), metrics))
    }

    /// Visit the rows in `scan`'s key range that its filter passes, as
    /// [`RowView`]s borrowed where they are stored, checksum-verified: the
    /// one range read. The overlapping regions are read in contiguous runs
    /// (one logical region server each) on this thread and on one more for
    /// each core the process's budget lends it ([`obs::cores`]). Each
    /// region's rows fold into a `T::default()`; the `T`s come back in key
    /// order, with the metrics of every region read.
    pub fn visit<T: Default + Send>(
        &self,
        table: &str,
        scan: &Scan,
        fold: impl Fn(&mut T, RowView<'_>) + Sync,
    ) -> Result<(Vec<T>, ScanMetrics), StoreError> {
        let regions = self.overlapping(table, scan)?;
        let cores = lend(&regions);
        self.read_regions(&regions, 1 + cores.helpers(), scan, fold)
    }

    /// The regions of `table` that `scan`'s key range overlaps, in order:
    /// the list tiles the key space in start-key order, so they run from
    /// the owner of the scan's start to the last region starting before
    /// its stop, found by start keys alone, which take no region's lock.
    fn overlapping(&self, table: &str, scan: &Scan) -> Result<Vec<Arc<Region>>, StoreError> {
        let t = self.table(table)?;
        let regions = t.regions.read();
        let first = regions.partition_point(|r| r.start() <= &scan.start);
        let first = first.saturating_sub(1);
        let end = match scan.stop.as_deref() {
            Some(stop) => regions.partition_point(|r| r.start().as_ref() < stop),
            None => regions.len(),
        };
        Ok(regions[first..end.max(first)].to_vec())
    }

    /// [`Self::visit`] of `regions` on at most `width` threads
    /// ([`read_in_runs`]), and the read counters of all of them.
    fn read_regions<T: Default + Send>(
        &self,
        regions: &[Arc<Region>],
        width: usize,
        scan: &Scan,
        fold: impl Fn(&mut T, RowView<'_>) + Sync,
    ) -> Result<(Vec<T>, ScanMetrics), StoreError> {
        let partials = read_in_runs(regions, width, |r| {
            let mut part = T::default();
            let metrics = r.visit(scan, |row| fold(&mut part, row))?;
            Ok((part, metrics))
        })?;
        // Per-region read-amplification counters (rows each region
        // touched vs returned), recorded before the merge flattens the
        // partials. Key formatting is gated so the disabled-registry
        // fast path stays allocation-free.
        let obs = &self.obs;
        if obs.is_enabled() {
            for (region, (_, m)) in regions.iter().zip(&partials) {
                obs.incr(
                    &format!("cfstore.region.{}.rows_scanned", region.id),
                    m.rows_scanned,
                );
                obs.incr(
                    &format!("cfstore.region.{}.rows_returned", region.id),
                    m.rows_returned,
                );
            }
        }
        let mut parts = Vec::with_capacity(partials.len());
        let mut metrics = ScanMetrics::default();
        for (part, m) in partials {
            parts.push(part);
            metrics.merge(m);
        }
        // Counters are recorded once per scan from the merged metrics, so
        // parallel region scans never contend on the registry mutex.
        obs.incr("cfstore.scans", 1);
        obs.incr("cfstore.rows_scanned", metrics.rows_scanned);
        obs.incr("cfstore.rows_returned", metrics.rows_returned);
        obs.incr("cfstore.cells_verified", metrics.cells_scanned);
        Ok((parts, metrics))
    }

    /// The META catalog: one entry per region, keyed like §5.2.2 describes.
    pub fn meta_entries(&self) -> Vec<MetaEntry> {
        let tables = self.tables.read();
        let mut entries = Vec::new();
        for (name, t) in tables.iter() {
            for r in t.regions.read().iter() {
                entries.push(MetaEntry {
                    table: name.clone(),
                    start_key: r.start().clone(),
                    region_id: r.id,
                    region_server: (r.id % self.region_servers as u64) as u32,
                });
            }
        }
        entries
    }

    /// Number of regions backing a table.
    pub fn region_count(&self, table: &str) -> Result<usize, StoreError> {
        Ok(self.table(table)?.regions.read().len())
    }

    // ---- sharded-mode support (crate-internal, driven by `shard.rs`) ----

    /// A region id of this store's own, for a table a sharded batch
    /// creates on every shard: each shard numbers its regions itself.
    pub(crate) fn reserve_region_id(&self) -> u64 {
        self.next_region_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Append one frame of a cross-shard batch (marker first) at
    /// `lsn = gsn * LSN_STRIDE`. Only the log is touched — the sharded
    /// store appends to *every* participant before applying anywhere, so
    /// a torn append on a later participant leaves no half-applied memory
    /// to undo.
    pub(crate) fn log_frame_at<'a>(
        &self,
        lsn: u64,
        ops: impl IntoIterator<Item = Op<'a>>,
    ) -> Result<(), StoreError> {
        // Only the sharded store calls this, and it opens every shard
        // with `MiniStore::open_with_opts`, which always sets `durable`.
        let mut d = self
            .durable
            .as_ref()
            .expect("sharded shards are always durable")
            .lock();
        d.wal.append_at(lsn, ops)?;
        Ok(())
    }

    /// Apply an already-appended sharded frame to memory, running the
    /// usual split check afterwards (splits are WAL-logged at the LSNs
    /// following the frame, inside the same gsn stride). A put reads no
    /// block (DESIGN.md §44); whatever fails here fails with the frame
    /// durable on every participant, and recovery replays it whole. Cell
    /// timestamps are the sharded store's global clock's; the applier
    /// keeps this shard's own clock (and so its manifest's) ahead of them,
    /// so a reopened sharded store resumes its clock correctly even when
    /// every frame was flushed out of the WALs.
    pub(crate) fn apply_frame<'a>(
        &self,
        ops: impl IntoIterator<Item = Op<'a>>,
    ) -> Result<(), StoreError> {
        let mut durable = self.durable.as_ref().map(|m| m.lock());
        let mut puts = 0;
        let counted = ops.into_iter().inspect(|op| {
            if let Op::Run(run) = op {
                puts += run.cells.len() as u64;
            }
        });
        let applied = self.apply(counted)?;
        self.split_grown(applied, durable.as_deref_mut())?;
        if puts > 0 {
            self.obs.incr("cfstore.puts", puts);
        }
        Ok(())
    }

    /// Install rows copied from healthy replicas into a table, region by
    /// region ([`Region::install_rows`]) — wholesale or merged, per
    /// [`Install`]. Not WAL-logged (the log holds writes, and a heal
    /// replaces what a corrupt base held): the caller makes it durable
    /// with an immediate flush. Returns the number of rows installed.
    pub(crate) fn install_table_rows(
        &self,
        table: &str,
        mut rows: BTreeMap<Bytes, RowData>,
        how: Install,
    ) -> Result<u64, StoreError> {
        let t = self.table(table)?;
        // Hold the durable lock so no flush snapshots a half-installed
        // table.
        let _durable = self.durable.as_ref().map(|m| m.lock());
        let installed = rows.len() as u64;
        // The regions tile the key space in start-key order: each takes
        // the rows from its start on that the regions after it left.
        for region in t.regions.read().iter().rev() {
            let mine = rows.split_off(region.start());
            if how == Install::Replace || !mine.is_empty() {
                region.install_rows(mine, how);
            }
        }
        Ok(installed)
    }

    /// Export a table's full contents — every row, every retained cell
    /// version — verifying each version's checksum so a heal never copies
    /// corruption from its donor.
    pub(crate) fn export_table_rows(
        &self,
        table: &str,
    ) -> Result<BTreeMap<Bytes, RowData>, StoreError> {
        let mut out = BTreeMap::new();
        self.verify_versions(table, |rows| out.extend(rows))?;
        Ok(out)
    }

    /// Check every retained cell version of `table` against its write-time
    /// checksum ([`kv::first_bad_version`]), one region at a time, handing
    /// `each` the rows of each region that passes: a corrupt version that
    /// a newer write superseded fails this, though no read returns it.
    pub(crate) fn verify_versions(
        &self,
        table: &str,
        mut each: impl FnMut(BTreeMap<Bytes, RowData>),
    ) -> Result<(), StoreError> {
        let regions = self.table(table)?.regions.read().to_vec();
        for r in regions {
            let rows = r.export_rows()?;
            if let Some((row, column, _)) = kv::first_bad_version(&rows) {
                return Err(StoreError::corruption(row, column));
            }
            each(rows);
        }
        Ok(())
    }

    /// `table → (families, split_threshold)` — the schemas a shard rebuild
    /// replays onto a fresh replacement shard.
    pub(crate) fn table_schemas(&self) -> crate::shard::Schemas {
        let tables = self.tables.read();
        let schema = |(name, t): (&String, &Arc<Table>)| {
            (name.clone(), (t.families.clone(), t.split_threshold))
        };
        tables.iter().map(schema).collect()
    }

    /// The one applier of [`WalRecord`]s (DESIGN.md §24): a live write
    /// hands it the runs of the batch it just logged, a sharded batch the
    /// frame every participant logged, and a reopen the frames it found,
    /// each as [`Op`]s. It never logs and never decides a split; it keeps
    /// `clock` and `next_region_id` ahead of whatever the records carry. A
    /// row run's table and region are resolved once and the region writes
    /// the run under one lock ([`Region::put_row`]), each cell as it would
    /// alone. A put reads nothing of a region's base; a delete reads the
    /// one block its row could be in, which can surface a typed corruption
    /// error. A record naming a table, region or range the store does not
    /// hold is refused as [`RecoveryError::InconsistentLog`].
    fn apply<'a>(
        &self,
        ops: impl IntoIterator<Item = Op<'a>>,
    ) -> Result<Applied<'a>, RecoveryError> {
        let table = |name: &str| {
            let found = self.tables.read().get(name).cloned();
            found.ok_or_else(|| inconsistent(format!("record references unknown table `{name}`")))
        };
        let mut applied = Applied::default();
        for op in ops {
            let record = match op {
                Op::Run(run) => {
                    self.apply_run(run, table(run.table)?, &mut applied)?;
                    continue;
                }
                Op::Record(record) => record,
            };
            match record {
                // Bookkeeping for the sharded reopen's commit rule, which
                // runs before any shard replays: by now the batch is
                // known committed.
                WalRecord::BatchMarker { .. } => {}
                WalRecord::CreateTable {
                    name,
                    families,
                    split_threshold,
                    root_region_id,
                } => {
                    let next = root_region_id.saturating_add(1);
                    self.next_region_id.fetch_max(next, Ordering::Relaxed);
                    let threshold = *split_threshold as usize;
                    let mut tables = self.tables.write();
                    let (name, families) = (name.clone(), families.clone());
                    create_table_in(&mut tables, name, families, threshold, *root_region_id);
                }
                WalRecord::Put {
                    table: name, put, ..
                } => {
                    let cells = Cells::Logged(std::slice::from_ref(record));
                    let run = Run {
                        table: name,
                        row: &put.row,
                        cells,
                    };
                    self.apply_run(run, table(name)?, &mut applied)?;
                }
                WalRecord::DeleteRow { table: name, row } => {
                    let t = table(name)?;
                    // `None` means a concurrent split moved the key:
                    // re-resolve.
                    let existed = loop {
                        if let Some(existed) = t.region_for(row, name)?.delete_row(row)? {
                            break existed;
                        }
                    };
                    applied.rows_deleted += usize::from(existed);
                }
                WalRecord::RegionSplit {
                    table: name,
                    parent_id,
                    new_id,
                    split_key,
                } => {
                    let next = new_id.saturating_add(1);
                    self.next_region_id.fetch_max(next, Ordering::Relaxed);
                    let t = table(name)?;
                    let mut regions = t.regions.write();
                    split_region_in(&mut regions, name, *parent_id, *new_id, split_key)?;
                }
            }
        }
        Ok(applied)
    }

    /// Write one row run to table `t`, noting the region it landed in. The
    /// clock goes past the run's largest timestamp, which need not be its
    /// last: a log is applied in the order it was written, by whoever
    /// wrote it.
    fn apply_run<'a>(
        &self,
        run: Run<'a>,
        t: Arc<Table>,
        applied: &mut Applied<'a>,
    ) -> Result<(), RecoveryError> {
        let newest = run.cells.iter().map(|(_, t)| t).max().unwrap_or(0);
        self.clock
            .fetch_max(newest.saturating_add(1), Ordering::Relaxed);
        // A concurrent split can shrink the chosen region's range between
        // lookup and write; `Region::put_row` detects this under its lock
        // and writes nothing, and we retry against the refreshed region
        // list.
        let region = loop {
            let region = t.region_for(run.row, run.table)?;
            if region.put_row(run.row, run.cells) {
                break region;
            }
        };
        let seen = |(n, _, r): &(&str, _, Arc<Region>)| *n == run.table && r.id == region.id;
        if !applied.touched.iter().any(seen) {
            applied.touched.push((run.table, t, region));
        }
        Ok(())
    }

    /// Flush dirty regions to immutable segment files and swap the
    /// MANIFEST atomically, then truncate the WAL: the compacting flush
    /// (DESIGN.md §12): a dirty region's memstore merged over its base; a
    /// clean region's segment file is carried into the new manifest by
    /// name, so a manifest may mix generations. Only after the manifest
    /// swap is each rewritten region rebased on its new segment — a crash
    /// mid-flush leaves every region dirty and the next flush retries. A
    /// base block that fails its CRC fails the flush, typed. Runs under the
    /// durable lock; the caller decides when (DESIGN.md §43). A no-op for
    /// in-memory stores.
    pub fn flush(&self) -> Result<(), StoreError> {
        let Some(m) = &self.durable else {
            return Ok(());
        };
        let mut d = m.lock();
        // A crashed store writes no segment and no MANIFEST.
        if d.wal.is_crashed() {
            return Err(StoreError::Crashed);
        }
        let flushed_lsn = d.wal.next_lsn() - 1;
        let generation = d.generation + 1;
        let tables = self.tables.read();
        let mut manifest_tables = Vec::new();
        let mut seg_names = Vec::new();
        let mut newly_flushed: Vec<(Arc<Region>, Arc<SegmentReader>)> = Vec::new();
        let mut reused = 0u64;
        for (name, t) in tables.iter() {
            manifest_tables.push(ManifestTable {
                name: name.clone(),
                families: t.families.clone(),
                split_threshold: t.split_threshold as u64,
            });
            for r in t.regions.read().iter() {
                if let Some(file) = r.clean_file() {
                    // Clean region: its segment already captures the
                    // exact current rows (no mutation since it was
                    // written — splits and writes both mark dirty).
                    seg_names.push(file);
                    reused += 1;
                    continue;
                }
                let rows = r.export_rows()?;
                let bytes = segment::encode_segment(name, r.id, &r.range(), &rows);
                let file = recovery::segment_file_name(generation, r.id);
                let path = d.dir.join(&file);
                match d.wal.check_flush_crash() {
                    Ok(()) => {
                        std::fs::write(&path, &bytes).map_err(|e| StoreError::Io(e.to_string()))?;
                        d.wal.segments_written += 1;
                        seg_names.push(file);
                        newly_flushed.push((r.clone(), Arc::new(SegmentReader::open(&path)?)));
                    }
                    Err(WalError::Crashed) => {
                        // Tear the victim segment halfway and die: the
                        // manifest never swaps, so recovery sees this
                        // file only as an orphan.
                        let _ = std::fs::write(&path, &bytes[..bytes.len() / 2]);
                        return Err(StoreError::Crashed);
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        let manifest = Manifest {
            flushed_lsn,
            clock: self.clock.load(Ordering::Relaxed),
            next_region_id: self.next_region_id.load(Ordering::Relaxed),
            generation,
            tables: manifest_tables,
            segments: seg_names.clone(),
        };
        recovery::write_manifest(&d.dir, &manifest).map_err(|e| StoreError::Io(e.to_string()))?;
        d.wal.reset_after_flush()?;
        d.generation = generation;
        // Only after the manifest swap are the rewritten regions rebased
        // and clean (crash-safe ordering: an un-swapped manifest must
        // leave them dirty so the retry rewrites them).
        let written = newly_flushed.len() as u64;
        for (r, reader) in newly_flushed {
            r.rebase(reader, self.cache.clone());
        }
        let mut superseded = 0u64;
        if let Ok(entries) = std::fs::read_dir(&d.dir) {
            for entry in entries.flatten() {
                let fname = entry.file_name().to_string_lossy().into_owned();
                if fname.starts_with("seg-")
                    && fname.ends_with(".seg")
                    && !seg_names.contains(&fname)
                    && std::fs::remove_file(entry.path()).is_ok()
                {
                    superseded += 1;
                }
            }
        }
        let obs = &self.obs;
        obs.event(
            "cfstore.flush",
            &[
                ("segments", obs::Value::from(seg_names.len())),
                ("written", obs::Value::from(written)),
                ("reused", obs::Value::from(reused)),
                ("superseded", obs::Value::from(superseded)),
                ("flushed_lsn", obs::Value::from(flushed_lsn)),
            ],
        );
        obs.incr("cfstore.flushes", 1);
        obs.incr("cfstore.flush.segments_written", written);
        obs.incr("cfstore.flush.segments_reused", reused);
        Ok(())
    }
}

impl Default for MiniStore {
    fn default() -> Self {
        Self::new()
    }
}

/// The fold of a scan: keep each row visited, materialized.
pub(crate) fn keep(rows: &mut Vec<RowResult>, row: RowView<'_>) {
    rows.push(materialize(row));
}

/// This thread's core for a read of `regions`, and one more for each
/// other region as far as the process's core budget lends them.
fn lend(regions: &[Arc<Region>]) -> obs::cores::Lease {
    obs::cores::try_lend(regions.len().saturating_sub(1))
}

/// `read` each of `regions` in `width` contiguous runs: the caller reads
/// the first and one scoped thread each of the others, every run its
/// regions in order, stopping at its first error. The partials come back
/// in region order, so the first error in region order is the one
/// returned; a panic resumes on the caller with its own payload.
fn read_in_runs<R: Send>(
    regions: &[Arc<Region>],
    width: usize,
    read: impl Fn(&Region) -> Result<R, StoreError> + Sync,
) -> Result<Vec<R>, StoreError> {
    let run = |run: &[Arc<Region>]| -> Result<Vec<R>, StoreError> {
        run.iter().map(|r| read(r)).collect()
    };
    let width = width.clamp(1, regions.len().max(1));
    if width == 1 {
        return run(regions);
    }
    let cut = |i: usize| i * regions.len() / width;
    let runs: Vec<&[Arc<Region>]> = (0..width).map(|i| &regions[cut(i)..cut(i + 1)]).collect();
    let run = &run;
    let results = std::thread::scope(|s| {
        let others: Vec<_> = runs[1..].iter().map(|&r| s.spawn(move || run(r))).collect();
        let mut results = vec![run(runs[0])];
        results.extend(
            others
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        results
    });
    let mut partials = Vec::with_capacity(regions.len());
    for result in results {
        partials.extend(result?);
    }
    Ok(partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{PredicateFilter, RowPrefixFilter};
    use crate::wal::WAL_FILE;

    fn bput(row: &str, col: &str, val: &str) -> Put {
        Put::new(
            Bytes::copy_from_slice(row.as_bytes()),
            "f",
            Bytes::copy_from_slice(col.as_bytes()),
            Bytes::copy_from_slice(val.as_bytes()),
        )
    }

    #[test]
    fn create_put_get() {
        let store = MiniStore::new();
        store.create_table("t", &["f"]).unwrap();
        store.put("t", bput("r1", "c", "v")).unwrap();
        let row = store.get("t", b"r1").unwrap().unwrap();
        assert_eq!(row.value("f", b"c").unwrap().as_ref(), b"v");
        assert!(store.get("t", b"zz").unwrap().is_none());
    }

    #[test]
    fn unknown_family_is_rejected() {
        let store = MiniStore::new();
        store.create_table("t", &["f"]).unwrap();
        let err = store
            .put("t", Put::new("r", "other", "c", "v"))
            .unwrap_err();
        assert!(matches!(err, StoreError::NoSuchColumnFamily { .. }));
    }

    #[test]
    fn duplicate_table_is_rejected() {
        let store = MiniStore::new();
        store.create_table("t", &["f"]).unwrap();
        assert!(matches!(
            store.create_table("t", &["f"]),
            Err(StoreError::TableExists(_))
        ));
    }

    #[test]
    fn scan_prefix_returns_sorted_rows() {
        let store = MiniStore::new();
        store.create_table("t", &["f"]).unwrap();
        for k in ["Static/j2", "Static/j1", "Dynamic/j1"] {
            store.put("t", bput(k, "c", "v")).unwrap();
        }
        let (rows, metrics) = store.scan("t", &Scan::prefix(b"Static/")).unwrap();
        let keys: Vec<&[u8]> = rows.iter().map(|r| r.row.as_ref()).collect();
        assert_eq!(keys, vec![b"Static/j1".as_ref(), b"Static/j2".as_ref()]);
        // Range-pruned scan never touched the Dynamic row.
        assert_eq!(metrics.rows_scanned, 2);
    }

    #[test]
    fn regions_split_as_the_table_grows() {
        let store = MiniStore::new();
        store.create_table_with_threshold("t", &["f"], 16).unwrap();
        for i in 0..200 {
            store
                .put("t", bput(&format!("row{i:04}"), "c", "v"))
                .unwrap();
        }
        assert!(store.region_count("t").unwrap() > 4);
        // All rows still reachable.
        let (rows, metrics) = store.scan("t", &Scan::all()).unwrap();
        assert_eq!(rows.len(), 200);
        assert_eq!(
            metrics.regions_visited as usize,
            store.region_count("t").unwrap()
        );
        // META has one entry per region.
        assert_eq!(store.meta_entries().len(), store.region_count("t").unwrap());
    }

    #[test]
    fn filter_pushdown_reduces_returned_rows_not_scanned_rows() {
        let store = MiniStore::new();
        store.create_table("t", &["f"]).unwrap();
        for i in 0..50 {
            store.put("t", bput(&format!("r{i:02}"), "c", "v")).unwrap();
        }
        let scan = Scan::all().with_filter(Box::new(PredicateFilter {
            pred: |r: &RowView<'_>| r.key.last() == Some(&b'0'),
        }));
        let (rows, metrics) = store.scan("t", &scan).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(metrics.rows_scanned, 50);
        assert_eq!(metrics.rows_returned, 5);
    }

    #[test]
    fn corruption_surfaces_through_store_get_and_scan() {
        let store = MiniStore::new();
        store.create_table("t", &["f"]).unwrap();
        store.put("t", bput("r1", "c", "payload")).unwrap();
        store.put("t", bput("r2", "c", "clean")).unwrap();
        assert!(store.corrupt_cell("t", b"r1", "f", b"c").unwrap());

        assert!(matches!(
            store.get("t", b"r1"),
            Err(StoreError::Corruption { .. })
        ));
        assert!(store.get("t", b"r2").unwrap().is_some());
        assert!(matches!(
            store.scan("t", &Scan::all()),
            Err(StoreError::Corruption { .. })
        ));
        // Overwriting the cell restamps the checksum and heals the row.
        store.put("t", bput("r1", "c", "rewritten")).unwrap();
        assert!(store.get("t", b"r1").unwrap().is_some());
    }

    #[test]
    fn delete_row_via_store() {
        let store = MiniStore::new();
        store.create_table("t", &["f"]).unwrap();
        store.put("t", bput("r1", "c", "v")).unwrap();
        assert!(store.delete_row("t", b"r1").unwrap());
        assert!(store.get("t", b"r1").unwrap().is_none());
    }

    #[test]
    fn prefix_scan_handles_0xff_prefix() {
        let store = MiniStore::new();
        store.create_table("t", &["f"]).unwrap();
        let scan = Scan::prefix(&[0xff, 0xff]);
        assert!(scan.stop.is_none());
        let _ = store.scan("t", &scan).unwrap();
    }

    #[test]
    fn scans_are_parallel_across_regions_and_still_ordered() {
        let store = MiniStore::new();
        store.create_table_with_threshold("t", &["f"], 8).unwrap();
        for i in (0..100).rev() {
            store.put("t", bput(&format!("k{i:03}"), "c", "v")).unwrap();
        }
        let (rows, _) = store.scan("t", &Scan::all()).unwrap();
        let keys: Vec<_> = rows.iter().map(|r| r.row.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(rows.len(), 100);
    }

    #[test]
    #[should_panic(expected = "filter panicked on k050")]
    fn a_region_scan_panic_reaches_the_caller_with_its_own_message() {
        let store = MiniStore::new();
        store.create_table_with_threshold("t", &["f"], 8).unwrap();
        for i in 0..100 {
            store.put("t", bput(&format!("k{i:03}"), "c", "v")).unwrap();
        }
        assert!(store.region_count("t").unwrap() > 1, "scans on threads");
        let scan = Scan::all().with_filter(Box::new(PredicateFilter {
            pred: |r: &RowView<'_>| {
                assert!(r.key != b"k050", "filter panicked on k050");
                true
            },
        }));
        let _ = store.scan("t", &scan);
    }

    /// A store of 200 rows in at least 20 regions.
    fn many_regions() -> MiniStore {
        let store = MiniStore::new();
        store.create_table_with_threshold("t", &["f"], 8).unwrap();
        for i in 0..200 {
            store.put("t", bput(&format!("k{i:03}"), "c", "v")).unwrap();
        }
        assert!(store.region_count("t").unwrap() >= 20);
        store
    }

    /// The threads a full scan of `store` filtered its rows on.
    fn scanned_on(store: &MiniStore) -> std::collections::HashSet<std::thread::ThreadId> {
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let record = seen.clone();
        let scan = Scan::all().with_filter(Box::new(PredicateFilter {
            pred: move |_: &RowView<'_>| {
                record.lock().insert(std::thread::current().id());
                true
            },
        }));
        let (rows, _) = store.scan("t", &scan).unwrap();
        assert_eq!(rows.len(), 200);
        let threads = seen.lock().clone();
        threads
    }

    /// A scan runs on at most as many threads as there are cores, the
    /// caller's included, however many regions it covers.
    #[test]
    fn a_scan_of_many_regions_runs_on_at_most_one_thread_per_core() {
        let cores = obs::cores::count();
        let threads = scanned_on(&many_regions()).len();
        assert!(
            (1..=cores).contains(&threads),
            "{threads} threads on {cores} cores"
        );
    }

    /// As many threads as there are cores, each holding its own (as
    /// service workers in an `analyze` do), scan a store of many regions:
    /// the budget has no core to lend, so every scan filters each row on
    /// the thread that asked for it, however many regions it covers.
    #[test]
    fn scans_from_threads_that_hold_every_core_run_on_their_callers_alone() {
        let store = many_regions();
        let cores = obs::cores::count();
        // Every thread holds its core from before the first scan to after
        // the last.
        let together = std::sync::Barrier::new(cores);
        std::thread::scope(|s| {
            for _ in 0..cores {
                s.spawn(|| {
                    let _core = obs::cores::try_lend(0);
                    together.wait();
                    let me = std::thread::current().id();
                    let on: Vec<_> = (0..8).map(|_| scanned_on(&store)).collect();
                    together.wait();
                    assert!(on.iter().all(|threads| *threads == [me].into()), "{on:?}");
                });
            }
        });
    }

    /// A store of `keys` split every `threshold` rows, flushed and reopened
    /// segment-backed when `dir` is given, with the cells of `corrupt`
    /// rotted in place.
    fn scan_width_store(
        keys: &[u32],
        threshold: usize,
        dir: Option<&Path>,
        cache_bytes: u64,
        corrupt: &[usize],
    ) -> MiniStore {
        let opts = || StoreOptions {
            block_cache_bytes: cache_bytes,
            ..StoreOptions::default()
        };
        let store = match dir {
            Some(dir) => MiniStore::open_with_opts(dir, opts()).unwrap().0,
            None => MiniStore::new(),
        };
        store
            .create_table_with_threshold("t", &["f"], threshold)
            .unwrap();
        for (i, k) in keys.iter().enumerate() {
            let (row, col) = (format!("k{k:04}"), format!("c{}", i % 3));
            store.put("t", bput(&row, &col, &format!("v{i}"))).unwrap();
        }
        let store = match dir {
            Some(dir) => {
                store.flush().unwrap();
                drop(store);
                MiniStore::open_with_opts(dir, opts()).unwrap().0
            }
            None => store,
        };
        for &i in corrupt {
            let (row, col) = (
                format!("k{:04}", keys[i % keys.len()]),
                format!("c{}", i % 3),
            );
            store
                .corrupt_cell("t", row.as_bytes(), "f", col.as_bytes())
                .unwrap();
        }
        store
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// One thread, two, or one per region: a scan returns the same
        /// rows, `ScanMetrics` and per-region counters, and with one or
        /// two rotted cells the same first error, in region order.
        #[test]
        fn every_scan_width_scans_alike(
            keys in proptest::collection::vec(0u32..2000, 20..160),
            threshold in 4usize..12,
            lazy in proptest::prelude::any::<bool>(),
            cache_bytes in proptest::prop_oneof![
                proptest::prelude::Just(0u64),
                400u64..4000,
                proptest::prelude::Just(8u64 << 20),
            ],
            corrupt in proptest::collection::vec(0usize..1000, 0..3),
            bounds in (0u32..2100, 0u32..2100),
        ) {
            let (lo, hi) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
            let dir = tmp_dir("widths");
            let mut store = scan_width_store(
                &keys,
                threshold,
                lazy.then_some(dir.as_path()),
                cache_bytes,
                &corrupt,
            );
            let regions = store.region_count("t").unwrap();
            let scan = || Scan {
                start: Bytes::from(format!("k{lo:04}")),
                stop: (lo != hi).then(|| Bytes::from(format!("k{hi:04}"))),
                filter: Some(Box::new(PredicateFilter {
                    pred: |r: &RowView<'_>| r.key.last().is_some_and(|d| d % 2 == 0),
                })),
            };
            let mut seen = Vec::new();
            for width in [1, 2, regions] {
                let reg = obs::Registry::new();
                store.set_obs(reg.clone());
                let result = store
                    .overlapping("t", &scan())
                    .and_then(|regions| store.read_regions(&regions, width, &scan(), keep));
                let counters: BTreeMap<String, u64> = reg
                    .snapshot()
                    .counters
                    .into_iter()
                    .filter(|(name, _)| !name.starts_with("cfstore.block_cache."))
                    .collect();
                seen.push((width, result, counters));
            }
            for (width, result, counters) in &seen[1..] {
                proptest::prop_assert_eq!(result, &seen[0].1, "width {} of {}", width, regions);
                proptest::prop_assert_eq!(counters, &seen[0].2, "width {} of {}", width, regions);
            }
            // A visit hands out what a scan returns, with its first error.
            let flat = |row: RowView<'_>| {
                let cells = row.cells.iter().map(|c| (c.family.to_vec(), c.column.to_vec(), c.value.to_vec()));
                (row.key.to_vec(), cells.collect::<Vec<_>>())
            };
            let scanned = store.scan("t", &scan()).map(|(rows, _)| {
                let mut cells = Vec::new();
                rows.iter().map(|r| flat(r.view(&mut cells))).collect::<Vec<_>>()
            });
            let visited = store
                .visit("t", &scan(), |part: &mut Vec<_>, row| part.push(flat(row)))
                .map(|(parts, _)| parts.concat());
            proptest::prop_assert_eq!(visited, scanned);
            // ... and counts what it reads as the scan does.
            let mut read_counters = Vec::new();
            for visit in [false, true] {
                let reg = obs::Registry::new();
                store.set_obs(reg.clone());
                if visit {
                    let _ = store.visit("t", &scan(), |_: &mut (), _| {});
                } else {
                    let _ = store.scan("t", &scan());
                }
                let counters = reg.snapshot().counters.into_iter();
                let reads = counters.filter(|(name, _)| !name.starts_with("cfstore.block_cache."));
                read_counters.push(reads.collect::<BTreeMap<String, u64>>());
            }
            proptest::prop_assert_eq!(&read_counters[0], &read_counters[1]);
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cfstore-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn durable_store_replays_wal_after_reopen() {
        let dir = tmp_dir("replay");
        {
            let (store, report) = MiniStore::open(&dir).unwrap();
            assert_eq!(report, RecoveryReport::default());
            store.create_table("t", &["f"]).unwrap();
            for i in 0..10 {
                store
                    .put("t", bput(&format!("r{i}"), "c", &format!("v{i}")))
                    .unwrap();
            }
            store.delete_row("t", b"r3").unwrap();
        } // dropped without flush: everything lives in the WAL
        let (store, report) = MiniStore::open(&dir).unwrap();
        assert_eq!(report.frames_replayed, 12);
        assert!(report.truncation.is_none());
        let (rows, _) = store.scan("t", &Scan::all()).unwrap();
        assert_eq!(rows.len(), 9);
        assert!(rows.iter().all(|r| r.row.as_ref() != b"r3"));
        assert_eq!(
            store
                .get("t", b"r7")
                .unwrap()
                .unwrap()
                .value("f", b"c")
                .unwrap()
                .as_ref(),
            b"v7"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_empty_batch_logs_nothing_and_burns_no_lsn() {
        let dir = tmp_dir("empty-batch");
        {
            let (store, _) = MiniStore::open(&dir).unwrap();
            store.create_table("t", &["f"]).unwrap();
            store.flush().unwrap();
            let next_lsn =
                |store: &MiniStore| store.durable.as_ref().unwrap().lock().wal.next_lsn();
            let (lsn, written) = (next_lsn(&store), store.wal_bytes_written());
            store.put_batch("t", vec![]).unwrap();
            assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
            assert_eq!(store.wal_bytes_written(), written);
            assert_eq!(next_lsn(&store), lsn);
        }
        let (_, report) = MiniStore::open(&dir).unwrap();
        assert_eq!((report.frames_replayed, report.records_replayed), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_moves_rows_into_segments_and_truncates_the_wal() {
        let dir = tmp_dir("flush");
        {
            let (store, _) = MiniStore::open(&dir).unwrap();
            store.create_table("t", &["f"]).unwrap();
            for i in 0..20 {
                store.put("t", bput(&format!("r{i:02}"), "c", "v")).unwrap();
            }
            store.flush().unwrap();
            assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
            // Post-flush writes land in the fresh WAL.
            store.put("t", bput("zz", "c", "late")).unwrap();
        }
        let (store, report) = MiniStore::open(&dir).unwrap();
        assert_eq!(report.segments_loaded, 1);
        assert_eq!(report.segment_rows, 20);
        assert_eq!(report.frames_replayed, 1);
        let (rows, _) = store.scan("t", &Scan::all()).unwrap();
        assert_eq!(rows.len(), 21);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn splits_and_region_topology_survive_reopen() {
        let dir = tmp_dir("topology");
        let before = {
            let (store, _) = MiniStore::open(&dir).unwrap();
            store.create_table_with_threshold("t", &["f"], 8).unwrap();
            for i in 0..60 {
                store.put("t", bput(&format!("k{i:03}"), "c", "v")).unwrap();
            }
            store.meta_entries()
        };
        assert!(before.len() > 1, "the table must actually have split");
        let (store, _) = MiniStore::open(&dir).unwrap();
        assert_eq!(store.meta_entries(), before);
        let (rows, _) = store.scan("t", &Scan::all()).unwrap();
        assert_eq!(rows.len(), 60);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_store_is_poisoned_and_recovers_without_the_torn_tail() {
        let dir = tmp_dir("poison");
        let mut acked = Vec::new();
        {
            let opts = StoreOptions {
                crash: CrashSpec::after_wal_bytes(700),
                ..StoreOptions::default()
            };
            let (store, _) = MiniStore::open_with_opts(&dir, opts).unwrap();
            store.create_table("t", &["f"]).unwrap();
            for i in 0..50 {
                let key = format!("r{i:02}");
                match store.put("t", bput(&key, "c", "v")) {
                    Ok(()) => acked.push(key),
                    Err(StoreError::Crashed) => break,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            assert!(store.is_crashed());
            // Every further durable mutation fails fast.
            assert_eq!(
                store.put("t", bput("x", "c", "v")),
                Err(StoreError::Crashed)
            );
            assert_eq!(store.flush(), Err(StoreError::Crashed));
            // ...before it writes a segment or a MANIFEST.
            let files: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
            assert_eq!(files.len(), 1, "only wal.log: {files:?}");
        }
        let (store, report) = MiniStore::open(&dir).unwrap();
        assert!(report.wal_bytes_dropped > 0);
        assert!(report.truncation.is_some());
        let (rows, _) = store.scan("t", &Scan::all()).unwrap();
        let got: Vec<String> = rows
            .iter()
            .map(|r| String::from_utf8_lossy(&r.row).into_owned())
            .collect();
        assert_eq!(got, acked, "recovered rows are exactly the acked writes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_flush_leaves_an_orphan_and_loses_nothing() {
        let dir = tmp_dir("midflush");
        {
            let crash = CrashSpec {
                during_flush_segment: Some(0),
                ..CrashSpec::default()
            };
            let opts = StoreOptions {
                crash,
                ..StoreOptions::default()
            };
            let (store, _) = MiniStore::open_with_opts(&dir, opts).unwrap();
            store.create_table("t", &["f"]).unwrap();
            for i in 0..10 {
                store.put("t", bput(&format!("r{i}"), "c", "v")).unwrap();
            }
            assert_eq!(store.flush(), Err(StoreError::Crashed));
        }
        let (store, report) = MiniStore::open(&dir).unwrap();
        assert_eq!(report.segments_loaded, 0, "manifest never swapped");
        assert_eq!(report.orphan_segments.len(), 1, "torn segment is an orphan");
        let (rows, _) = store.scan("t", &Scan::all()).unwrap();
        assert_eq!(rows.len(), 10, "the WAL still covers every acked write");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Append one hand-built frame behind whatever the store logged.
    fn append_by_hand(dir: &Path, lsn: u64, records: &[WalRecord]) {
        let path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        let mut w = WalWriter::open(&path, len, lsn, CrashSpec::default()).unwrap();
        w.append(records).unwrap();
    }

    #[test]
    fn a_replayed_create_of_a_flushed_table_is_a_noop() {
        let dir = tmp_dir("recreate");
        {
            let (store, _) = MiniStore::open(&dir).unwrap();
            store.create_table("t", &["f"]).unwrap();
            store.put("t", bput("r1", "c", "v")).unwrap();
            store.flush().unwrap();
        }
        let create = WalRecord::CreateTable {
            name: "t".into(),
            families: vec!["other".into()],
            split_threshold: 2,
            root_region_id: 40,
        };
        append_by_hand(&dir, 100, &[create]);
        let (store, report) = MiniStore::open(&dir).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(store.meta_entries().len(), 1);
        assert_eq!(
            store.meta_entries()[0].region_id,
            1,
            "the flushed table stays"
        );
        assert!(store.get("t", b"r1").unwrap().is_some());
        // The id the record carried is spent all the same.
        store.create_table("u", &["f"]).unwrap();
        assert_eq!(store.meta_entries()[1].region_id, 41);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Replay is the live path, so a replayed delete of a row its region
    /// does not hold leaves the region as the live delete did: it looked
    /// the row up in the one block that could hold it, wrote nothing, and
    /// stays clean, and the next flush reuses its segment by name.
    #[test]
    fn a_replayed_delete_of_a_missing_row_leaves_its_region_clean() {
        let dir = tmp_dir("noopdelete");
        {
            let (store, _) = MiniStore::open(&dir).unwrap();
            store.create_table("t", &["f"]).unwrap();
            store.put("t", bput("r1", "c", "v")).unwrap();
            store.flush().unwrap();
            assert!(!store.delete_row("t", b"r2").unwrap());
        }
        let (mut store, report) = MiniStore::open(&dir).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(
            report.segment_blocks_read, 1,
            "the delete looked its row up in one block"
        );
        let reg = obs::Registry::new();
        store.set_obs(reg.clone());
        store.flush().unwrap();
        let counters = reg.snapshot().counters;
        assert_eq!(counters["cfstore.flush.segments_reused"], 1);
        assert_eq!(counters["cfstore.flush.segments_written"], 0);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Eight readers of one cold block all see their rows, and the block
    /// is cached once however many of them raced to fill it; eight readers
    /// of a rotted block each get the corruption, and nothing is cached.
    #[test]
    fn concurrent_readers_of_one_cold_block_cache_it_once() {
        const READERS: usize = 8;
        let dir = tmp_dir("coldblock");
        {
            let (store, _) = MiniStore::open(&dir).unwrap();
            store.create_table("t", &["f"]).unwrap();
            for i in 0..READERS {
                store
                    .put("t", bput(&format!("r{i}"), "c", &format!("v{i}")))
                    .unwrap();
            }
            store.flush().unwrap();
        }
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .unwrap();
        let reader = segment::SegmentReader::open(&seg).unwrap();
        assert_eq!(reader.block_count(), 1);
        let block_bytes = reader.block_bytes(0);

        let read_all = |store: &MiniStore| {
            let start = std::sync::Barrier::new(READERS);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..READERS)
                    .map(|i| {
                        let start = &start;
                        s.spawn(move || {
                            start.wait();
                            store.get("t", format!("r{i}").as_bytes())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            })
        };
        let open = || {
            let (mut store, _) = MiniStore::open(&dir).unwrap();
            let reg = obs::Registry::new();
            store.set_obs(reg.clone());
            (store, reg)
        };

        let (store, reg) = open();
        for (i, got) in read_all(&store).into_iter().enumerate() {
            let row = got.unwrap().unwrap();
            assert_eq!(
                row.value("f", b"c").unwrap().as_ref(),
                format!("v{i}").as_bytes()
            );
        }
        let counters = reg.snapshot().counters;
        let misses = counters["cfstore.block_cache.misses"];
        let hits = counters
            .get("cfstore.block_cache.hits")
            .copied()
            .unwrap_or(0);
        assert!(misses >= 1);
        assert_eq!(hits + misses, READERS as u64);
        assert_eq!(
            counters["cfstore.block_cache.fill_bytes"],
            misses * block_bytes
        );
        assert_eq!(store.cache_stats().entries, 1);
        assert_eq!(store.cache_stats().used_bytes, block_bytes);
        drop(store);

        // Rot one byte of the block's body: magic, then the frame header.
        let mut data = std::fs::read(&seg).unwrap();
        data[4 + frame::HEADER_LEN + 4] ^= 0xff;
        std::fs::write(&seg, &data).unwrap();
        let (store, reg) = open();
        for got in read_all(&store) {
            assert!(
                matches!(got, Err(StoreError::SegmentCorrupt { .. })),
                "{got:?}"
            );
        }
        let counters = reg.snapshot().counters;
        assert_eq!(counters["cfstore.block_cache.misses"], READERS as u64);
        assert_eq!(counters.get("cfstore.block_cache.fill_bytes"), None);
        assert_eq!(store.cache_stats().entries, 0);
        assert_eq!(store.cache_stats().used_bytes, 0);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The region owning `row`, found by walking the region list from the
    /// front: the oracle the store's routing is checked against.
    fn linear_owner(regions: &[Arc<Region>], row: &[u8]) -> Option<usize> {
        regions.iter().position(|r| r.contains_key(row))
    }

    fn regions_of(store: &MiniStore, table: &str) -> Vec<Arc<Region>> {
        store.tables.read()[table].regions.read().clone()
    }

    /// The region list is sorted by start key and tiles the key space: it
    /// starts at the empty key, each region ends where the next starts,
    /// and the last one is unbounded.
    fn assert_tiles(regions: &[Arc<Region>]) {
        let ranges: Vec<KeyRange> = regions.iter().map(|r| r.range()).collect();
        assert_eq!(ranges[0].start, Bytes::new(), "{ranges:?}");
        for pair in ranges.windows(2) {
            assert!(pair[0].start < pair[1].start, "{ranges:?}");
            assert_eq!(pair[0].end.as_ref(), Some(&pair[1].start), "{ranges:?}");
        }
        assert_eq!(ranges[ranges.len() - 1].end, None, "{ranges:?}");
    }

    /// One single-row operation of the routing property: a row number,
    /// and a column number where the operation names a cell.
    #[derive(Debug, Clone)]
    enum RouteOp {
        Put(u16, u8),
        Get(u16),
        Delete(u16),
        Flush,
        Corrupt(u16, u8),
    }

    fn route_op() -> impl proptest::strategy::Strategy<Value = RouteOp> {
        use proptest::strategy::Strategy;
        proptest::prop_oneof![
            3 => (0u16..400, 0u8..3).prop_map(|(k, c)| RouteOp::Put(k, c)),
            2 => (0u16..400).prop_map(RouteOp::Get),
            1 => (0u16..400).prop_map(RouteOp::Delete),
            1 => proptest::strategy::Just(RouteOp::Flush),
            1 => (0u16..400, 0u8..3).prop_map(|(k, c)| RouteOp::Corrupt(k, c)),
        ]
    }

    /// Row key `n`; 0 and 1 are the two ends of the key space, the empty
    /// key and `ff ff`.
    fn route_key(n: u16) -> Bytes {
        match n {
            0 => Bytes::new(),
            1 => Bytes::from(vec![0xff, 0xff]),
            n => Bytes::from(format!("k{n:04}")),
        }
    }

    /// Table `t` holding `keys` (column `c{i % 3}` of the `i`-th), split
    /// every `threshold` rows: live splits in memory (`mode` 0), splits
    /// replayed from the WAL (1), or flushed and reopened segment-backed
    /// (2).
    fn routing_store(keys: &[u16], threshold: usize, mode: u8, dir: &Path) -> MiniStore {
        let store = match mode {
            0 => MiniStore::new(),
            _ => MiniStore::open(dir).unwrap().0,
        };
        store
            .create_table_with_threshold("t", &["f"], threshold)
            .unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let put = Put::new(route_key(k), "f", format!("c{}", i % 3), format!("v{i}"));
            store.put("t", put).unwrap();
        }
        match mode {
            0 => return store,
            1 => {}
            _ => store.flush().unwrap(),
        }
        drop(store);
        let (store, report) = MiniStore::open(dir).unwrap();
        assert_eq!(report.frames_replayed > 0, mode == 1);
        store
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every put, get, delete and `corrupt_cell` lands
        /// in the region a walk of the region list from the front picks —
        /// over live splits, splits replayed from the WAL and a reopened
        /// segment-backed table — and the list stays sorted by start and
        /// tiles the key space. A scan beside each get reads the regions
        /// the walk finds its range overlaps.
        #[test]
        fn single_row_operations_land_where_the_linear_walk_says(
            keys in proptest::collection::vec(0u16..400, 0..160),
            threshold in 2usize..9,
            mode in 0u8..3,
            ops in proptest::collection::vec(route_op(), 1..60),
        ) {
            use std::collections::BTreeSet;
            let dir = tmp_dir("routing");
            let store = routing_store(&keys, threshold, mode, &dir);
            // What the table holds: the columns of each row, and which of
            // them are rotted (a second `corrupt_cell` flips them back).
            let mut cells: BTreeMap<Bytes, BTreeSet<u8>> = BTreeMap::new();
            for (i, &k) in keys.iter().enumerate() {
                cells.entry(route_key(k)).or_default().insert((i % 3) as u8);
            }
            let mut rotted: BTreeSet<(Bytes, u8)> = BTreeSet::new();
            assert_tiles(&regions_of(&store, "t"));
            for (i, op) in ops.into_iter().enumerate() {
                let regions = regions_of(&store, "t");
                let owner = |row: &[u8]| linear_owner(&regions, row).unwrap();
                match op {
                    RouteOp::Put(k, c) => {
                        let row = route_key(k);
                        let value = Bytes::from(format!("p{i}"));
                        let put = Put::new(row.clone(), "f", format!("c{c}"), value.clone());
                        store.put("t", put).unwrap();
                        cells.entry(row.clone()).or_default().insert(c);
                        rotted.remove(&(row.clone(), c));
                        // The put may have split its region: ask again.
                        let regions = regions_of(&store, "t");
                        let owner = linear_owner(&regions, &row).unwrap();
                        let rows = regions[owner].export_rows().unwrap();
                        let column = Bytes::from(format!("c{c}"));
                        let [(_, columns)] = &rows[&row][..] else {
                            panic!("the row holds one family, \"f\"");
                        };
                        let stored = columns.iter().find(|(c, _)| *c == column);
                        proptest::prop_assert_eq!(&stored.unwrap().1[0].value, &value);
                        for (j, r) in regions.iter().enumerate() {
                            if j != owner {
                                proptest::prop_assert_eq!(r.get(&row), Ok(None));
                            }
                        }
                        assert_tiles(&regions);
                    }
                    RouteOp::Get(k) => {
                        let row = route_key(k);
                        proptest::prop_assert_eq!(
                            store.get("t", &row),
                            regions[owner(&row[..])].get(&row)
                        );
                        let overlaps = |r: &Region, start: &[u8], stop: Option<&[u8]>| {
                            let range = r.range();
                            range.end.is_none_or(|end| start < &end[..])
                                && stop.is_none_or(|stop| stop > &range.start[..])
                        };
                        for (start, stop) in [(route_key(k / 2), Some(row.clone())), (row, None)] {
                            let scan = Scan { start, stop, filter: None };
                            let (start, stop) = (&scan.start[..], scan.stop.as_deref());
                            let walked = regions.iter().filter(|r| overlaps(r, start, stop));
                            let walked: Vec<u64> = walked.map(|r| r.id).collect();
                            let found = store.overlapping("t", &scan).unwrap();
                            let found: Vec<u64> = found.iter().map(|r| r.id).collect();
                            proptest::prop_assert_eq!(found, walked);
                        }
                    }
                    RouteOp::Delete(k) => {
                        let row = route_key(k);
                        let held = cells.remove(&row).is_some();
                        rotted.retain(|(r, _)| *r != row);
                        proptest::prop_assert_eq!(store.delete_row("t", &row), Ok(held));
                        for r in &regions {
                            proptest::prop_assert_eq!(r.get(&row), Ok(None));
                        }
                    }
                    RouteOp::Flush => {
                        store.flush().unwrap();
                        for r in &regions {
                            proptest::prop_assert_eq!(r.clean_file().is_some(), store.is_durable());
                        }
                        assert_tiles(&regions_of(&store, "t"));
                    }
                    RouteOp::Corrupt(k, c) => {
                        let row = route_key(k);
                        let expected = cells.get(&row).is_some_and(|cols| cols.contains(&c));
                        let column = format!("c{c}");
                        let hit = store.corrupt_cell("t", &row, "f", column.as_bytes());
                        proptest::prop_assert_eq!(hit, Ok(expected));
                        if expected && !rotted.remove(&(row.clone(), c)) {
                            rotted.insert((row.clone(), c));
                        }
                        let rot = rotted.iter().any(|(r, _)| *r == row);
                        let got = regions[owner(&row[..])].get(&row);
                        proptest::prop_assert_eq!(got.is_err(), rot, "{:?}", got);
                    }
                }
            }
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Two in-memory stores' worth of set-up for the row-run tests: tables
    /// `a` and `b` with families `f` and `g`, `a` cut into three regions at
    /// `r3` and `r6`.
    fn run_store() -> MiniStore {
        let store = MiniStore::new();
        for t in ["a", "b"] {
            store
                .create_table_with_threshold(t, &["f", "g"], usize::MAX)
                .unwrap();
        }
        let root = store.meta_entries()[0].region_id;
        let split = |parent_id, new_id, key: &str| WalRecord::RegionSplit {
            table: "a".into(),
            parent_id,
            new_id,
            split_key: Bytes::from(key.to_string()),
        };
        let splits = [split(root, 100, "r3"), split(100, 101, "r6")];
        store.apply(wal::ops(&splits)).unwrap();
        assert_eq!(store.region_count("a").unwrap(), 3);
        store
    }

    /// `records` applied to one store as one batch and to another record by
    /// record leave every cell, timestamp and checksum, the region list and
    /// the store clock the same.
    fn assert_batch_applies_as_cells(records: Vec<WalRecord>) {
        let batched = run_store();
        let per_cell = run_store();
        batched.apply(wal::ops(&records)).unwrap();
        for record in &records {
            per_cell.apply([Op::Record(record)]).unwrap();
        }
        for t in ["a", "b"] {
            assert_eq!(batched.export_table_rows(t), per_cell.export_table_rows(t));
        }
        assert_eq!(batched.meta_entries(), per_cell.meta_entries());
        assert_eq!(batched.clock_value(), per_cell.clock_value());
    }

    fn run_put(table: &str, row: &str, family: &str, column: &str, timestamp: u64) -> WalRecord {
        let value = format!("{table}/{row}/{family}:{column}@{timestamp}");
        WalRecord::Put {
            table: table.into(),
            put: Put::new(
                row.to_string(),
                family.to_string(),
                column.to_string(),
                value,
            ),
            timestamp,
        }
    }

    #[test]
    fn a_batch_of_row_runs_applies_as_its_cells_do() {
        let put = |table, row, column, timestamp| run_put(table, row, "f", column, timestamp);
        let delete = |table: &str, row: &str| WalRecord::DeleteRow {
            table: table.into(),
            row: Bytes::from(row.to_string()),
        };
        assert_batch_applies_as_cells(vec![
            // One row in two runs, another row's run between them.
            put("a", "r1", "c1", 10),
            put("a", "r1", "c2", 11),
            put("a", "r5", "c1", 12),
            put("a", "r1", "c3", 13),
            // Two tables interleaved, one row name in both.
            put("b", "r1", "c1", 14),
            put("a", "r1", "c4", 15),
            put("b", "r1", "c2", 16),
            put("a", "r7", "c1", 17),
            // A delete between two runs of one row.
            put("a", "r5", "c2", 18),
            delete("a", "r5"),
            put("a", "r5", "c3", 19),
            // Timestamps out of order inside one run, past the version
            // cap; the run's last timestamp is not its largest.
            put("a", "r8", "c1", 1000),
            put("a", "r8", "c1", 2),
            put("a", "r8", "c1", 34),
            run_put("a", "r8", "g", "c1", 5),
            put("a", "r8", "c1", 999),
            put("a", "r8", "c2", 3),
        ]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random batches over two tables, ten rows in three regions, two
        /// families and random timestamps (one record in twelve a delete)
        /// apply as their records do one by one.
        #[test]
        fn random_batches_apply_as_their_cells_do(
            records in proptest::collection::vec(
                (0u8..12, 0u8..2, 0u8..10, 0u8..4, 0u64..3000),
                1..60,
            ),
        ) {
            let records = records
                .into_iter()
                .map(|(kind, table, row, column, timestamp)| {
                    let table = ["a", "b"][table as usize];
                    let row = format!("r{row}");
                    match kind {
                        0 => WalRecord::DeleteRow {
                            table: table.into(),
                            row: Bytes::from(row),
                        },
                        _ => {
                            let family = ["f", "g"][(kind % 2) as usize];
                            run_put(table, &row, family, &format!("c{column}"), timestamp)
                        }
                    }
                })
                .collect();
            assert_batch_applies_as_cells(records);
        }
    }

    /// A row written in runs while splits keep moving it to a new region
    /// gets every cell exactly once: one version each, in one region.
    #[test]
    fn a_split_racing_a_row_run_lands_every_cell_once() {
        const RUNS: u64 = 64;
        const CELLS: u64 = 32;
        let store = MiniStore::new();
        store
            .create_table_with_threshold("t", &["f"], usize::MAX)
            .unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                // The split keys rise and all sort below `m`: each one cuts
                // the region holding `m` and moves the row to a new region.
                let mut i = 0u64;
                while i < 2000 && (i < 16 || !done.load(Ordering::Acquire)) {
                    let split_key = Bytes::from(format!("l{i:05}"));
                    let parent_id = {
                        let regions = regions_of(&store, "t");
                        regions[linear_owner(&regions, &split_key).unwrap()].id
                    };
                    let split = WalRecord::RegionSplit {
                        table: "t".into(),
                        parent_id,
                        new_id: 1000 + i,
                        split_key,
                    };
                    store.apply([Op::Record(&split)]).unwrap();
                    i += 1;
                }
            });
            start.wait();
            for run in 0..RUNS {
                let records: Vec<WalRecord> = (0..CELLS)
                    .map(|c| {
                        let timestamp = 1 + run * CELLS + c;
                        let put = Put::new(
                            "m",
                            "f",
                            format!("c{timestamp:05}"),
                            format!("v{timestamp}"),
                        );
                        WalRecord::Put {
                            table: "t".into(),
                            put,
                            timestamp,
                        }
                    })
                    .collect();
                store.apply(wal::ops(&records)).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let regions = regions_of(&store, "t");
        assert!(regions.len() > 1, "the splits ran");
        assert_tiles(&regions);
        let holders: Vec<&Arc<Region>> = regions
            .iter()
            .filter(|r| r.get(b"m").unwrap().is_some())
            .collect();
        assert_eq!(holders.len(), 1);
        let rows = holders[0].export_rows().unwrap();
        let [(family, cols)] = &rows[&b"m"[..]][..] else {
            panic!("row m holds one family");
        };
        assert_eq!(family, "f");
        assert_eq!(cols.len() as u64, RUNS * CELLS);
        for (column, versions) in cols {
            assert_eq!(versions.len(), 1, "{column:?}");
            let ts = versions[0].timestamp;
            assert_eq!(column, &Bytes::from(format!("c{ts:05}")));
            assert_eq!(versions[0].value, Bytes::from(format!("v{ts}")));
        }
        assert_eq!(store.clock_value(), 1 + RUNS * CELLS);
    }

    #[test]
    fn in_memory_store_flush_is_a_noop() {
        let store = MiniStore::new();
        assert!(!store.is_durable());
        assert!(!store.is_crashed());
        store.flush().unwrap();
    }

    #[test]
    fn prefix_filter_composes_with_prefix_scan() {
        let store = MiniStore::new();
        store.create_table("t", &["f"]).unwrap();
        store.put("t", bput("Static/a", "c", "v")).unwrap();
        let scan = Scan::prefix(b"Static/").with_filter(Box::new(RowPrefixFilter {
            prefix: Bytes::from("Static/"),
        }));
        let (rows, _) = store.scan("t", &scan).unwrap();
        assert_eq!(rows.len(), 1);
    }

    /// One step of the memstore-over-segment model: a row number, and a
    /// column number where the step names a cell.
    #[derive(Debug, Clone)]
    enum ModelOp {
        Put(u8, u8),
        Delete(u8),
        Flush,
        Reopen,
        Corrupt(u8, u8),
        Get(u8),
        Scan(u8, u8),
    }

    fn model_op() -> impl proptest::strategy::Strategy<Value = ModelOp> {
        use proptest::strategy::{Just, Strategy};
        proptest::prop_oneof![
            6 => (0u8..40, 0u8..3).prop_map(|(k, c)| ModelOp::Put(k, c)),
            2 => (0u8..40).prop_map(ModelOp::Delete),
            1 => Just(ModelOp::Flush),
            1 => Just(ModelOp::Reopen),
            1 => (0u8..40, 0u8..3).prop_map(|(k, c)| ModelOp::Corrupt(k, c)),
            2 => (0u8..40).prop_map(ModelOp::Get),
            1 => (0u8..40, 0u8..40).prop_map(|(a, b)| ModelOp::Scan(a.min(b), a.max(b))),
        ]
    }

    fn model_key(n: u8) -> Bytes {
        Bytes::from(format!("m{n:02}"))
    }

    /// A cell as two stores agree on it: its family, column, value and
    /// checksum. Each store stamps its cells with its own clock, and a
    /// reopen moves a durable store's clock on.
    type PlainCell = (String, Bytes, Bytes, u32);

    /// What a read returned, timestamps left out.
    fn plain(
        rows: Result<Vec<RowResult>, StoreError>,
    ) -> Result<Vec<(Bytes, Vec<PlainCell>)>, StoreError> {
        let cells = |r: RowResult| {
            let cells = r.families.into_iter().flat_map(|(f, columns)| {
                columns
                    .into_iter()
                    .map(move |(c, v)| (f.clone(), c, v.value, v.checksum))
            });
            (r.row, cells.collect())
        };
        Ok(rows?.into_iter().map(cells).collect())
    }

    /// Every row of table `t` with every retained version, newest first,
    /// timestamps left out.
    fn retained(store: &MiniStore) -> Vec<(Bytes, Vec<(PlainCell, usize)>)> {
        let mut out = Vec::new();
        for region in regions_of(store, "t") {
            for (key, data) in region.export_rows().unwrap() {
                let mut cells = Vec::new();
                for (f, columns) in data {
                    for (c, versions) in columns {
                        for (i, v) in versions.into_iter().enumerate() {
                            cells.push(((f.clone(), c.clone(), v.value, v.checksum), i));
                        }
                    }
                }
                out.push((key, cells));
            }
        }
        out
    }

    /// One region of [`SplitModel`]: its range's start and end, its id,
    /// the keys of the segment it was last flushed to (shared by the halves
    /// of a split until the next flush) and its memstore's live rows.
    struct ModelRegion {
        start: Bytes,
        end: Option<Bytes>,
        id: u64,
        base: Arc<Vec<Bytes>>,
        live: std::collections::BTreeSet<Bytes>,
    }

    impl ModelRegion {
        fn contains(&self, key: &Bytes) -> bool {
            *key >= self.start && self.end.as_ref().is_none_or(|end| key < end)
        }

        /// The base's blocks this region's range overlaps: a flush writes a
        /// region's rows in blocks of `BLOCK_ROWS`, each indexed by its
        /// first key.
        fn blocks(&self) -> (Vec<&Bytes>, std::ops::Range<usize>) {
            let firsts: Vec<&Bytes> = self.base.iter().step_by(segment::BLOCK_ROWS).collect();
            let lo = firsts
                .partition_point(|f| **f <= self.start)
                .saturating_sub(1);
            let hi = self
                .end
                .as_ref()
                .map_or(firsts.len(), |end| firsts.partition_point(|f| *f < end));
            (firsts, lo..hi.max(lo))
        }

        /// Its memstore rows that overwrite base rows.
        fn overwrites(&self) -> usize {
            self.live
                .iter()
                .filter(|k| self.base.binary_search(k).is_ok())
                .count()
        }
    }

    /// The regions a durable store's puts cut (DESIGN.md §46), modelled
    /// from the keys each region held at its last flush: the base counts
    /// `BLOCK_ROWS` a block its range overlaps, at most the segment's
    /// rows, and the memstore its live rows; past the threshold the cut is
    /// the middle overlapping block's first key, or the memstore's median
    /// live key when the memstore holds more.
    struct SplitModel {
        threshold: usize,
        next_id: u64,
        keys: std::collections::BTreeSet<Bytes>,
        regions: Vec<ModelRegion>,
    }

    impl SplitModel {
        fn new(store: &MiniStore, threshold: usize) -> Self {
            let [root] = &store.meta_entries()[..] else {
                panic!("a new table has one region");
            };
            let root = ModelRegion {
                start: root.start_key.clone(),
                end: None,
                id: root.region_id,
                base: Arc::default(),
                live: Default::default(),
            };
            let (keys, next_id) = (Default::default(), root.id + 1);
            SplitModel {
                threshold,
                next_id,
                keys,
                regions: vec![root],
            }
        }

        /// The index of the region that holds `key`.
        fn owner(&self, key: &Bytes) -> usize {
            self.regions.partition_point(|r| r.start <= *key) - 1
        }

        /// A put, and the split it sets off.
        fn put(&mut self, key: &Bytes) {
            self.keys.insert(key.clone());
            let (threshold, i) = (self.threshold, self.owner(key));
            let r = &mut self.regions[i];
            r.live.insert(key.clone());
            let (firsts, blocks) = r.blocks();
            let in_base = (blocks.len() * segment::BLOCK_ROWS).min(r.base.len());
            let in_memstore = r.live.len();
            if in_base + in_memstore <= threshold.max(1) {
                return;
            }
            let cut = match blocks.len() {
                _ if in_memstore > in_base => r.live.iter().nth(in_memstore / 2).unwrap(),
                0 | 1 => return,
                n => firsts[blocks.start + n / 2],
            }
            .clone();
            if cut <= r.start || !r.contains(&cut) {
                return;
            }
            let upper = ModelRegion {
                start: cut.clone(),
                end: r.end.replace(cut.clone()),
                id: self.next_id,
                base: r.base.clone(),
                live: r.live.split_off(&cut),
            };
            self.next_id += 1;
            self.regions.insert(i + 1, upper);
        }

        fn delete(&mut self, key: &Bytes) {
            self.keys.remove(key);
            let i = self.owner(key);
            self.regions[i].live.remove(key);
        }

        /// A rotted cell goes to the memstore, over its base row.
        fn corrupt(&mut self, key: &Bytes) {
            let i = self.owner(key);
            self.regions[i].live.insert(key.clone());
        }

        /// Every region takes its rows as its base and empties its memstore.
        fn flush(&mut self) {
            for r in &mut self.regions {
                let held = self.keys.iter().filter(|k| r.contains(k));
                r.base = Arc::new(held.cloned().collect());
                r.live.clear();
            }
        }

        fn regions(&self) -> Vec<(Bytes, u64)> {
            self.regions
                .iter()
                .map(|r| (r.start.clone(), r.id))
                .collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A region is a memstore over its segment (DESIGN.md §44): under
        /// any interleaving of puts, deletes, the splits they set off,
        /// flushes, reopens and rotted cells, every get, scan and
        /// retained version is that of a store that never left memory, and
        /// every region's start key and id those of [`SplitModel`]
        /// (DESIGN.md §46); after a put, a region holds at most the
        /// threshold, two blocks and its memstore rows that overwrite base
        /// rows. A reopen flushes first if a cell was rotted since the
        /// last flush: rot is not logged, so a replay would heal it.
        #[test]
        fn a_memstore_over_its_segment_reads_as_one_held_in_memory(
            threshold in proptest::prop_oneof![2usize..7, proptest::strategy::Just(64)],
            ops in proptest::collection::vec(model_op(), 1..90),
        ) {
            let dir = tmp_dir("model");
            let oracle = MiniStore::new();
            oracle.create_table_with_threshold("t", &["f"], threshold).unwrap();
            let (mut store, _) = MiniStore::open(&dir).unwrap();
            store.create_table_with_threshold("t", &["f"], threshold).unwrap();
            let mut model = SplitModel::new(&store, threshold);
            let mut rotted = false;
            for (i, op) in ops.into_iter().enumerate() {
                let put = matches!(op, ModelOp::Put(..));
                match op {
                    ModelOp::Put(k, c) => {
                        let value = format!("v{i}").repeat(1 + i % 5);
                        let put = Put::new(model_key(k), "f", format!("c{c}"), value);
                        store.put("t", put.clone()).unwrap();
                        oracle.put("t", put).unwrap();
                        model.put(&model_key(k));
                    }
                    ModelOp::Delete(k) => {
                        let key = model_key(k);
                        let existed = store.delete_row("t", &key);
                        proptest::prop_assert_eq!(&existed, &oracle.delete_row("t", &key));
                        if existed == Ok(true) {
                            model.delete(&key);
                        }
                    }
                    ModelOp::Flush => {
                        store.flush().unwrap();
                        model.flush();
                        rotted = false;
                    }
                    ModelOp::Reopen => {
                        if rotted {
                            store.flush().unwrap();
                            model.flush();
                            rotted = false;
                        }
                        drop(store);
                        store = MiniStore::open(&dir).unwrap().0;
                    }
                    ModelOp::Corrupt(k, c) => {
                        let (key, column) = (model_key(k), format!("c{c}"));
                        let hit = store.corrupt_cell("t", &key, "f", column.as_bytes());
                        let want = oracle.corrupt_cell("t", &key, "f", column.as_bytes());
                        proptest::prop_assert_eq!(&hit, &want);
                        if hit == Ok(true) {
                            model.corrupt(&key);
                            rotted = true;
                        }
                    }
                    ModelOp::Get(k) => {
                        let key = model_key(k);
                        let get = |s: &MiniStore| plain(s.get("t", &key).map(|r| r.into_iter().collect()));
                        proptest::prop_assert_eq!(get(&store), get(&oracle));
                    }
                    ModelOp::Scan(a, b) => {
                        let scan = || Scan {
                            start: model_key(a),
                            stop: Some(model_key(b)),
                            filter: None,
                        };
                        let rows = |s: &MiniStore| plain(s.scan("t", &scan()).map(|(rows, _)| rows));
                        proptest::prop_assert_eq!(rows(&store), rows(&oracle));
                    }
                }
                let regions: Vec<(Bytes, u64)> =
                    store.meta_entries().into_iter().map(|e| (e.start_key, e.region_id)).collect();
                proptest::prop_assert_eq!(regions, model.regions());
                let bound = threshold + 2 * segment::BLOCK_ROWS;
                for (region, r) in regions_of(&store, "t").iter().zip(&model.regions) {
                    let held = region.export_rows().unwrap().len();
                    proptest::prop_assert!(!put || held <= bound + r.overwrites(), "{held} rows");
                }
                proptest::prop_assert_eq!(retained(&store), retained(&oracle));
            }
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
