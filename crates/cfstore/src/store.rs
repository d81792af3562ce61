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
//! same applier over lazily opened segments (clean regions stay
//! segment-backed, reading blocks through a shared [`BlockCache`]).
//! Durable mutations are serialized under one lock so the WAL order is
//! exactly the apply order — replay is then a rerun, by the code that ran
//! the first time.
//!
//! [`StoreOptions::background_flush_wal_bytes`] moves flushing off the
//! write path: a background flusher thread wakes whenever the WAL grows
//! past the threshold and runs the same compacting flush a caller
//! would. Because every flush happens under the durable lock and the
//! WAL always covers the memstore, flush *timing* is irrelevant to
//! crash safety — the crash-at-every-WAL-byte property tests run with
//! the flusher enabled.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::blockcache::{BlockCache, BlockCacheStats};
use crate::filter::Filter;
use crate::flusher::Flusher;
use crate::frame;
use crate::kv::{Put, RowResult};
use crate::recovery::{
    self, inconsistent, io_err, Manifest, ManifestTable, RecoveryError, RecoveryReport,
};
use crate::region::{KeyRange, Region, RowData, RunCell, ScanMetrics};
use crate::segment::{self, SegmentError};
use crate::wal::{self, CrashSpec, SyncPolicy, WalError, WalRecord, WalWriter, WAL_FILE};

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
    /// Server-side filter, evaluated at the regions.
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
    let after = regions.partition_point(|r| r.starts_at_or_before(row));
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
    let Some(upper) = regions[pos].split_at(split_key, new_id)? else {
        return Err(outside());
    };
    regions.insert(pos + 1, Arc::new(upper));
    Ok(())
}

/// What applying one frame did that its live caller acts on.
#[derive(Default)]
struct Applied {
    /// `(table name, table, region)` of every region a put landed in,
    /// once each, in first-touch order: what the split check looks at.
    touched: Vec<(String, Arc<Table>, Arc<Region>)>,
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
    /// `wal.bytes_written()` at the last flush reset (the WAL byte
    /// counter is cumulative across flushes — it is the crash-budget
    /// currency); the background-flush trigger measures growth against
    /// this baseline.
    wal_bytes_at_reset: u64,
}

/// How to open a durable store: sync policy, crash injection, block
/// cache budget, and the optional background flusher.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// WAL sync policy (default: [`SyncPolicy::EveryOp`]).
    pub sync: SyncPolicy,
    /// Injected crash points (default: never fires).
    pub crash: CrashSpec,
    /// Byte budget of the shared segment [`BlockCache`] (default 8 MiB).
    /// `0` disables caching: lazy reads still work, block-at-a-time,
    /// but nothing is retained.
    pub block_cache_bytes: u64,
    /// When `Some(n)`, a background flusher thread runs [`MiniStore::flush`]
    /// whenever the WAL has grown `n` bytes past the last flush, taking
    /// segment writing off the put path. `None` (the default) keeps
    /// flushing fully caller-driven.
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

/// Everything the store owns, shareable with the background flusher
/// (which needs exactly [`StoreInner::flush`] and [`StoreInner::obs`]).
struct StoreInner {
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
    clock: AtomicU64,
    next_region_id: AtomicU64,
    /// Simulated region-server count for META assignment reporting.
    region_servers: u32,
    /// Observability sink for the `cfstore.*` counters (DESIGN.md §10);
    /// disabled (a single branch per operation) unless a caller attaches
    /// an enabled registry via [`MiniStore::set_obs`]. Behind a lock so
    /// the flusher thread sees registry swaps; reads clone the (cheap,
    /// `Arc`-backed) registry.
    obs: RwLock<obs::Registry>,
    /// The shared segment block cache every lazy region reads through.
    cache: Arc<BlockCache>,
    /// `Some` when the store is backed by a directory (WAL + segments);
    /// `None` for the classic in-memory store.
    durable: Option<Mutex<DurableState>>,
}

/// The miniature column-family store. A thin handle around the shared
/// `StoreInner`; dropping the handle shuts down and joins the
/// background flusher (when one is configured).
pub struct MiniStore {
    inner: Arc<StoreInner>,
    /// The WAL-growth threshold that wakes the background flusher, and
    /// the flusher: wait for the wake-up, run the same compacting flush
    /// a caller would, repeat.
    flusher: Option<(u64, Flusher)>,
}

impl MiniStore {
    /// An empty store with no tables and observability disabled.
    pub fn new() -> Self {
        MiniStore {
            inner: Arc::new(StoreInner {
                tables: RwLock::new(BTreeMap::new()),
                clock: AtomicU64::new(1),
                next_region_id: AtomicU64::new(1),
                region_servers: 4,
                obs: RwLock::new(obs::Registry::disabled()),
                cache: Arc::new(BlockCache::new(0)),
                durable: None,
            }),
            flusher: None,
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

    /// [`MiniStore::open`] with an explicit sync policy and crash spec
    /// (the property tests' historical entry point).
    pub fn open_with(
        dir: &Path,
        policy: SyncPolicy,
        crash: CrashSpec,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        Self::open_with_opts(
            dir,
            StoreOptions {
                sync: policy,
                crash,
                ..StoreOptions::default()
            },
        )
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
        let mut lazy: Vec<(Arc<Region>, u64)> = Vec::new();
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
            let blocks = reader.block_count() as u64;
            let region = Region::from_segment(meta.region_id, meta.range, reader, cache.clone());
            let region = Arc::new(region);
            lazy.push((region.clone(), blocks));
            table.regions.write().push(region);
        }
        for t in tables.values() {
            let by_start = |a: &Arc<Region>, b: &Arc<Region>| a.range().start.cmp(&b.range().start);
            t.regions.write().sort_by(by_start);
        }

        // The WAL: account for every byte, drop the torn tail physically
        // so appends never interleave with it, and continue after the
        // highest LSN seen.
        let wal_path = dir.join(WAL_FILE);
        let scan = wal::read_wal(&wal_path).map_err(|e| io_err(&wal_path, e))?;
        report.wal_bytes_valid = scan.valid_bytes;
        report.wal_bytes_dropped = scan.total_bytes - scan.valid_bytes;
        report.truncation = scan.truncation;
        if report.wal_bytes_dropped > 0 {
            frame::truncate_and_sync(&wal_path, scan.valid_bytes)
                .map_err(|e| io_err(&wal_path, e))?;
        }
        let max_lsn = scan.frames.iter().map(|f| f.lsn).max();
        let next_lsn = manifest.flushed_lsn.max(max_lsn.unwrap_or(0)) + 1;
        let wal = WalWriter::open(&wal_path, scan.valid_bytes, next_lsn, opts.sync, opts.crash)
            .map_err(|e| match e {
                WalError::Io(io) => io_err(&wal_path, io),
                WalError::Crashed => io_err(&wal_path, std::io::Error::other("crash during open")),
            })?;
        let wal_bytes_at_reset = wal.bytes_written();
        let inner = Arc::new(StoreInner {
            tables: RwLock::new(tables),
            // The next timestamp to assign: past the manifest's, and —
            // the applier raises it — past every replayed one.
            clock: AtomicU64::new(manifest.clock + 1),
            next_region_id: AtomicU64::new(next_region_id),
            region_servers: 4,
            obs: RwLock::new(obs::Registry::disabled()),
            cache,
            durable: Some(Mutex::new(DurableState {
                dir: dir.to_path_buf(),
                wal,
                generation: manifest.generation + 1,
                wal_bytes_at_reset,
            })),
        });

        // Replay: frames a flush did not capture go through the applier
        // that applied them the first time. Nothing is logged, and what
        // the puts touched is dropped: a split the live write made is in
        // the log behind it.
        for frame in scan.frames {
            if frame.lsn <= manifest.flushed_lsn {
                report.frames_skipped += 1;
                continue;
            }
            report.frames_replayed += 1;
            report.records_replayed += frame.records.len() as u64;
            inner.apply(frame.records)?;
        }
        // A region replay wrote to was promoted, every block read once.
        let promoted = lazy.iter().filter(|(r, _)| !r.is_lazy());
        report.segment_blocks_read = promoted.map(|(_, blocks)| blocks).sum();
        // Every table needs at least one region covering the key space.
        for t in inner.tables.read().values() {
            let mut regions = t.regions.write();
            if regions.is_empty() {
                let id = inner.next_region_id.fetch_add(1, Ordering::Relaxed);
                regions.push(Arc::new(Region::new(id, KeyRange::all())));
            }
        }
        let flusher = opts
            .background_flush_wal_bytes
            .map(|threshold| {
                let inner = inner.clone();
                let work = move || {
                    if inner.flush().is_ok() {
                        inner.obs().incr("cfstore.flush.background", 1);
                    }
                };
                Flusher::spawn("cfstore-flusher", work).map(|f| (threshold, f))
            })
            .transpose()
            .map_err(|e| io_err(dir, e))?;
        Ok((MiniStore { inner, flusher }, report))
    }

    /// Whether this store is backed by a directory.
    pub fn is_durable(&self) -> bool {
        self.inner.durable.is_some()
    }

    /// Whether an injected crash point has poisoned the store.
    pub fn is_crashed(&self) -> bool {
        self.inner
            .durable
            .as_ref()
            .map(|m| m.lock().wal.is_crashed())
            .unwrap_or(false)
    }

    /// Attach an observability registry. Subsequent operations count
    /// puts, gets, scans, scanned/returned rows, checksum-verified
    /// cells, and block-cache traffic against it (`cfstore.*` counters).
    pub fn set_obs(&mut self, obs: obs::Registry) {
        self.inner.cache.set_obs(obs.clone());
        *self.inner.obs.write() = obs;
    }

    /// Occupancy of the shared segment block cache.
    pub fn cache_stats(&self) -> BlockCacheStats {
        self.inner.cache.stats()
    }

    /// Create a table with a fixed set of column families.
    pub fn create_table(&self, name: &str, families: &[&str]) -> Result<(), StoreError> {
        self.create_table_with_threshold(name, families, DEFAULT_SPLIT_THRESHOLD)
    }

    /// Write one cell. In durable mode the cell is WAL-logged (and, under
    /// [`SyncPolicy::EveryOp`], durable) before it becomes visible.
    pub fn put(&self, table: &str, put: Put) -> Result<(), StoreError> {
        self.put_batch(table, vec![put])
    }

    /// Flush dirty regions to immutable segment files and swap the
    /// MANIFEST atomically; clean regions' existing segments are reused
    /// by reference (size-tiered compaction's degenerate-but-correct
    /// base case), and the WAL is truncated afterwards. A no-op for
    /// in-memory stores.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }

    /// Current logical-clock value (the next timestamp this store would
    /// assign). The sharded store resumes its global clock from the max
    /// across shards.
    pub(crate) fn clock_value(&self) -> u64 {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// WAL growth since the last flush — the sharded flusher's per-shard
    /// trigger currency.
    pub(crate) fn wal_bytes_since_flush(&self) -> u64 {
        self.inner
            .durable
            .as_ref()
            .map(|m| {
                let d = m.lock();
                d.wal.bytes_written() - d.wal_bytes_at_reset
            })
            .unwrap_or(0)
    }

    /// Cumulative WAL bytes written this session, *across* flush
    /// truncations — the same currency [`CrashSpec::after_wal_bytes`]
    /// budgets count, so the crash harnesses can measure a clean run
    /// and sweep every byte of it. Zero for an in-memory store.
    pub fn wal_bytes_written(&self) -> u64 {
        self.inner
            .durable
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
        let mut durable = self.inner.durable.as_ref().map(|m| m.lock());
        let mut tables = self.inner.tables.write();
        if tables.contains_key(name) {
            return Err(StoreError::TableExists(name.to_string()));
        }
        let families: Vec<String> = families.iter().map(|f| f.to_string()).collect();
        let root_region_id = self.inner.next_region_id.fetch_add(1, Ordering::Relaxed);
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
        self.inner
            .tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    /// Write a batch of cells as one atomic unit: in durable mode the
    /// whole batch is a single WAL frame, so recovery replays all of it
    /// or none of it — multi-row values (a whole profile) never reappear
    /// half-written after a crash.
    pub fn put_batch(&self, table: &str, puts: Vec<Put>) -> Result<(), StoreError> {
        self.inner.obs().incr("cfstore.puts", puts.len() as u64);
        let t = self.table(table)?;
        for put in &puts {
            if !t.families.iter().any(|f| f == &put.family) {
                return Err(StoreError::NoSuchColumnFamily {
                    table: table.to_string(),
                    family: put.family.clone(),
                });
            }
        }
        let mut durable = self.inner.durable.as_ref().map(|m| m.lock());
        let record = |put: Put| WalRecord::Put {
            table: table.to_string(),
            row: put.row,
            family: put.family,
            column: put.column,
            value: put.value,
            timestamp: self.inner.clock.fetch_add(1, Ordering::Relaxed),
        };
        let records: Vec<WalRecord> = puts.into_iter().map(record).collect();
        if let Some(d) = durable.as_mut() {
            // Log-then-apply: stamp every cell, frame the whole batch,
            // and only touch memory once the log accepted it. A torn
            // frame means the caller never saw an ack and recovery drops
            // the tail — nothing to undo.
            d.wal.append(&records)?;
            // Wake the background flusher once the WAL has grown past
            // the configured threshold since the last flush. Signalled
            // under the durable lock (the flusher blocks on it), so the
            // wake-up cannot race a concurrent flush's reset.
            if let Some((threshold, flusher)) = &self.flusher {
                if d.wal.bytes_written() - d.wal_bytes_at_reset >= *threshold {
                    flusher.wake();
                }
            }
        }
        let applied = self.inner.apply(records)?;
        self.split_grown(applied, durable.as_deref_mut())
    }

    /// The half of a live write that replay never runs: split every
    /// region the write touched that outgrew its table's threshold
    /// (amortized: only when a region grew large).
    fn split_grown(
        &self,
        applied: Applied,
        mut durable: Option<&mut DurableState>,
    ) -> Result<(), StoreError> {
        for (table, t, region) in applied.touched {
            if region.row_count() > t.split_threshold {
                self.split_region(&table, &t, &region, durable.as_deref_mut())?;
            }
        }
        Ok(())
    }

    /// Split one oversized region at its median key. In durable mode the
    /// split point and new region id are WAL-logged *before* the split is
    /// applied, so replay reproduces the exact region topology. The
    /// region list stays write-locked from the median to the insert,
    /// which is why this calls the applier's `RegionSplit` arm rather
    /// than the applier.
    fn split_region(
        &self,
        table: &str,
        t: &Table,
        region: &Arc<Region>,
        durable: Option<&mut DurableState>,
    ) -> Result<(), StoreError> {
        let mut regions = t.regions.write();
        let Some(split_key) = region.median_key() else {
            return Ok(());
        };
        let new_id = self.inner.next_region_id.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = durable {
            d.wal.append(&[WalRecord::RegionSplit {
                table: table.to_string(),
                parent_id: region.id,
                new_id,
                split_key: split_key.clone(),
            }])?;
        }
        split_region_in(&mut regions, table, region.id, new_id, &split_key)?;
        let obs = self.inner.obs();
        obs.event(
            "cfstore.region.split",
            &[
                ("table", obs::Value::from(table)),
                ("parent", obs::Value::from(region.id)),
                ("new", obs::Value::from(new_id)),
            ],
        );
        obs.incr("cfstore.region.splits", 1);
        Ok(())
    }

    /// Read one row (checksum-verified).
    pub fn get(&self, table: &str, row: &[u8]) -> Result<Option<RowResult>, StoreError> {
        let obs = self.inner.obs();
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
        let mut durable = self.inner.durable.as_ref().map(|m| m.lock());
        let records = vec![WalRecord::DeleteRow {
            table: table.to_string(),
            row: Bytes::copy_from_slice(row),
        }];
        if let Some(d) = durable.as_mut() {
            d.wal.append(&records)?;
        }
        Ok(self.inner.apply(records)?.rows_deleted > 0)
    }

    /// Scan with server-side filtering; the overlapping regions are
    /// scanned in parallel, in as many contiguous runs as there are cores
    /// (one logical region server each), and merged in key order.
    pub fn scan(
        &self,
        table: &str,
        scan: &Scan,
    ) -> Result<(Vec<RowResult>, ScanMetrics), StoreError> {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
        self.scan_on(table, scan, cores)
    }

    /// [`Self::scan`] on at most `width` threads, the caller's included.
    pub(crate) fn scan_on(
        &self,
        table: &str,
        scan: &Scan,
        width: usize,
    ) -> Result<(Vec<RowResult>, ScanMetrics), StoreError> {
        let t = self.table(table)?;
        let regions: Vec<Arc<Region>> = {
            let guard = t.regions.read();
            guard
                .iter()
                .filter(|r| range_overlaps(&r.range(), &scan.start, scan.stop.as_deref()))
                .cloned()
                .collect()
        };
        let partials = scan_regions(&regions, scan, width)?;
        // Per-region read-amplification counters (rows each region
        // touched vs returned), recorded before the merge flattens the
        // partials. Key formatting is gated so the disabled-registry
        // fast path stays allocation-free.
        let obs = self.inner.obs();
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
        let mut rows = Vec::new();
        let mut metrics = ScanMetrics::default();
        for (mut part, m) in partials {
            rows.append(&mut part);
            metrics.merge(m);
        }
        rows.sort_by(|a, b| a.row.cmp(&b.row));
        // Counters are recorded once per scan from the merged metrics, so
        // parallel region scans never contend on the registry mutex.
        obs.incr("cfstore.scans", 1);
        obs.incr("cfstore.rows_scanned", metrics.rows_scanned);
        obs.incr("cfstore.rows_returned", metrics.rows_returned);
        obs.incr("cfstore.cells_verified", metrics.cells_scanned);
        Ok((rows, metrics))
    }

    /// The META catalog: one entry per region, keyed like §5.2.2 describes.
    pub fn meta_entries(&self) -> Vec<MetaEntry> {
        let tables = self.inner.tables.read();
        let mut entries = Vec::new();
        for (name, t) in tables.iter() {
            for r in t.regions.read().iter() {
                entries.push(MetaEntry {
                    table: name.clone(),
                    start_key: r.range().start.clone(),
                    region_id: r.id,
                    region_server: (r.id % self.inner.region_servers as u64) as u32,
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

    /// Append one frame of a cross-shard batch (marker first) at
    /// `lsn = gsn * LSN_STRIDE`, filling in this shard's own region id
    /// for any table the frame creates. Only the log is touched — the
    /// sharded store appends to *every* participant before applying
    /// anywhere, so a torn append on a later participant leaves no
    /// half-applied memory to undo.
    pub(crate) fn log_frame_at(
        &self,
        lsn: u64,
        records: &mut [WalRecord],
    ) -> Result<(), StoreError> {
        for record in records.iter_mut() {
            if let WalRecord::CreateTable { root_region_id, .. } = record {
                *root_region_id = self.inner.next_region_id.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Only the sharded store calls this, and it opens every shard
        // with `MiniStore::open_with_opts`, which always sets `durable`.
        let mut d = self
            .inner
            .durable
            .as_ref()
            .expect("sharded shards are always durable")
            .lock();
        d.wal.append_at(lsn, records)?;
        Ok(())
    }

    /// Apply an already-appended sharded frame to memory, running the
    /// usual split check afterwards (splits are WAL-logged at the LSNs
    /// following the frame, inside the same gsn stride). The batch path
    /// promoted every target region *before* the frame was appended
    /// anywhere ([`MiniStore::prepare_rows`]), so nothing here can fail
    /// with a corruption error; the only fallible part is WAL-logging a
    /// split this batch triggers, and by then the frame is durable on
    /// every participant — recovery replays it whole. Cell timestamps
    /// are the sharded store's global clock's; the applier keeps this
    /// shard's own clock (and so its manifest's) ahead of them, so a
    /// reopened sharded store resumes its clock correctly even when
    /// every frame was flushed out of the WALs.
    pub(crate) fn apply_frame(&self, records: Vec<WalRecord>) -> Result<(), StoreError> {
        let mut durable = self.inner.durable.as_ref().map(|m| m.lock());
        let is_put = |r: &&WalRecord| matches!(r, WalRecord::Put { .. });
        let puts = records.iter().filter(is_put).count() as u64;
        let applied = self.inner.apply(records)?;
        self.split_grown(applied, durable.as_deref_mut())?;
        if puts > 0 {
            self.inner.obs().incr("cfstore.puts", puts);
        }
        Ok(())
    }

    /// Materialize every region that owns one of `rows`, surfacing any
    /// segment corruption *before* a batch is framed.
    pub(crate) fn prepare_rows(&self, table: &str, rows: &[Bytes]) -> Result<(), StoreError> {
        let t = self.table(table)?;
        let regions = t.regions.read();
        for row in rows {
            if let Some(i) = owner_index(&regions, row) {
                regions[i].prepare_for_write()?;
            }
        }
        Ok(())
    }

    /// Install rows copied from healthy replicas into a table, region by
    /// region ([`Region::install_rows`]) — wholesale or merged, per
    /// [`Install`]. Not WAL-logged (a replay would try to promote the
    /// corrupt base a heal is replacing): the caller makes it durable
    /// with an immediate flush. Returns the number of rows installed.
    pub(crate) fn install_table_rows(
        &self,
        table: &str,
        rows: BTreeMap<Bytes, RowData>,
        how: Install,
    ) -> Result<u64, StoreError> {
        let t = self.table(table)?;
        // Hold the durable lock so no flush snapshots a half-installed
        // table.
        let _durable = self.inner.durable.as_ref().map(|m| m.lock());
        let regions = t.regions.read();
        let installed = rows.len() as u64;
        for region in regions.iter() {
            let range = region.range();
            let lower = std::ops::Bound::Included(range.start.clone());
            let upper = match &range.end {
                Some(end) => std::ops::Bound::Excluded(end.clone()),
                None => std::ops::Bound::Unbounded,
            };
            let mine: BTreeMap<Bytes, RowData> = rows
                .range::<Bytes, _>((lower, upper))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            match how {
                Install::Replace => region.install_rows(mine),
                Install::Merge if mine.is_empty() => {}
                Install::Merge => {
                    let mut all = region.export_rows()?;
                    all.extend(mine);
                    region.install_rows(all);
                }
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
        let t = self.table(table)?;
        let regions: Vec<Arc<Region>> = t.regions.read().iter().cloned().collect();
        let mut out = BTreeMap::new();
        for r in regions {
            for (key, data) in r.export_rows()? {
                // A heal donor must be provably clean: verify *every*
                // retained version, not just the latest a read would
                // check, so corruption never propagates between replicas.
                for cols in data.values() {
                    for (col, versions) in cols {
                        for v in versions {
                            if !v.verify() {
                                return Err(StoreError::Corruption {
                                    row: String::from_utf8_lossy(&key).into_owned(),
                                    column: String::from_utf8_lossy(col).into_owned(),
                                });
                            }
                        }
                    }
                }
                out.insert(key, data);
            }
        }
        Ok(out)
    }

    /// `table → (families, split_threshold)` — the schemas a shard rebuild
    /// replays onto a fresh replacement shard.
    pub(crate) fn table_schemas(&self) -> crate::shard::Schemas {
        let tables = self.inner.tables.read();
        let schema = |(name, t): (&String, &Arc<Table>)| {
            (name.clone(), (t.families.clone(), t.split_threshold))
        };
        tables.iter().map(schema).collect()
    }
}

impl StoreInner {
    /// Snapshot the current registry (cheap: `Arc` clone).
    fn obs(&self) -> obs::Registry {
        self.obs.read().clone()
    }

    /// The one applier of [`WalRecord`]s (DESIGN.md §24): a live write
    /// hands it the frame it just logged, a sharded batch the frame every
    /// participant logged, and a reopen the frames it found. It never
    /// logs and never decides a split; it keeps `clock` and
    /// `next_region_id` ahead of whatever the records carry. Consecutive
    /// puts to one table and row are one row run: the table and the region
    /// are resolved once and the region writes the run under one lock
    /// ([`Region::put_row`]), each cell as it would alone. Writing to a
    /// segment-backed region promotes it, which can surface a typed
    /// corruption error; a record naming a table, region or range the
    /// store does not hold is refused as [`RecoveryError::InconsistentLog`].
    fn apply(&self, records: Vec<WalRecord>) -> Result<Applied, RecoveryError> {
        let table = |name: &str| {
            let found = self.tables.read().get(name).cloned();
            found.ok_or_else(|| inconsistent(format!("record references unknown table `{name}`")))
        };
        let mut applied = Applied::default();
        let mut records = records.into_iter().peekable();
        while let Some(record) = records.next() {
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
                    let threshold = split_threshold as usize;
                    let mut tables = self.tables.write();
                    create_table_in(&mut tables, name, families, threshold, root_region_id);
                }
                WalRecord::Put {
                    table: name,
                    row,
                    family,
                    column,
                    value,
                    timestamp,
                } => {
                    // A row run: this put and every put right behind it to
                    // the same table and row, resolved and written once.
                    // The clock goes past the run's largest timestamp,
                    // which need not be its last: a log is applied in the
                    // order it was written, by whoever wrote it.
                    let mut newest = timestamp;
                    let mut cells = vec![RunCell {
                        family,
                        column,
                        value,
                        timestamp,
                    }];
                    let same_row = |next: &WalRecord| match next {
                        WalRecord::Put { table, row: r, .. } => *table == name && *r == row,
                        _ => false,
                    };
                    while let Some(WalRecord::Put {
                        family,
                        column,
                        value,
                        timestamp,
                        ..
                    }) = records.next_if(same_row)
                    {
                        newest = newest.max(timestamp);
                        cells.push(RunCell {
                            family,
                            column,
                            value,
                            timestamp,
                        });
                    }
                    self.clock
                        .fetch_max(newest.saturating_add(1), Ordering::Relaxed);
                    let t = table(&name)?;
                    // A concurrent split can shrink the chosen region's
                    // range between lookup and write; `Region::put_row`
                    // detects this under its lock and hands the cells
                    // back, and we retry against the refreshed region list.
                    let region = loop {
                        let region = t.region_for(&row, &name)?;
                        if region.put_row(&row, &mut cells)? {
                            break region;
                        }
                    };
                    let seen =
                        |(n, _, r): &(String, _, Arc<Region>)| *n == name && r.id == region.id;
                    if !applied.touched.iter().any(seen) {
                        applied.touched.push((name, t, region));
                    }
                }
                WalRecord::DeleteRow { table: name, row } => {
                    let t = table(&name)?;
                    // `None` means a concurrent split moved the key:
                    // re-resolve.
                    let existed = loop {
                        if let Some(existed) = t.region_for(&row, &name)?.delete_row(&row)? {
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
                    let t = table(&name)?;
                    let mut regions = t.regions.write();
                    split_region_in(&mut regions, &name, parent_id, new_id, &split_key)?;
                }
            }
        }
        Ok(applied)
    }

    /// The compacting flush (DESIGN.md §12): rewrite only *dirty*
    /// regions; a clean region's existing segment file is carried into
    /// the new manifest by name, so a manifest may mix generations.
    /// Region dirty bits are cleared only after the manifest swap — a
    /// crash mid-flush leaves every region dirty and the next flush
    /// simply retries. Runs under the durable lock, whether called by a
    /// client or by the background flusher.
    fn flush(&self) -> Result<(), StoreError> {
        let Some(m) = &self.durable else {
            return Ok(());
        };
        let mut d = m.lock();
        // Push any group-commit tail out first: everything logged must be
        // durable before the manifest claims to supersede it.
        d.wal.sync()?;
        let flushed_lsn = d.wal.next_lsn() - 1;
        let generation = d.generation + 1;
        let tables = self.tables.read();
        let mut manifest_tables = Vec::new();
        let mut seg_names = Vec::new();
        let mut newly_flushed: Vec<(Arc<Region>, String)> = Vec::new();
        let mut reused = 0u64;
        for (name, t) in tables.iter() {
            manifest_tables.push(ManifestTable {
                name: name.clone(),
                families: t.families.clone(),
                split_threshold: t.split_threshold as u64,
            });
            for r in t.regions.read().iter() {
                if !r.is_dirty() {
                    if let Some(file) = r.flushed_file() {
                        // Clean region: its segment already captures the
                        // exact current rows (no mutation since it was
                        // written — splits and writes both mark dirty).
                        seg_names.push(file);
                        reused += 1;
                        continue;
                    }
                }
                let rows = r.export_rows()?;
                let bytes = segment::encode_segment(name, r.id, &r.range(), &rows);
                let file = recovery::segment_file_name(generation, r.id);
                let path = d.dir.join(&file);
                match d.wal.check_flush_crash() {
                    Ok(()) => {
                        std::fs::write(&path, &bytes).map_err(|e| StoreError::Io(e.to_string()))?;
                        d.wal.segments_written += 1;
                        seg_names.push(file.clone());
                        newly_flushed.push((r.clone(), file));
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
        d.wal_bytes_at_reset = d.wal.bytes_written();
        d.generation = generation;
        // Only after the manifest swap do the rewritten regions become
        // clean (crash-safe ordering: an un-swapped manifest must leave
        // them dirty so the retry rewrites them).
        let written = newly_flushed.len() as u64;
        for (r, file) in newly_flushed {
            r.mark_flushed(file);
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
        let obs = self.obs();
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

/// Scan `regions` in `width` contiguous runs: the caller scans the first
/// and one scoped thread each of the others, every run its regions in
/// order, stopping at its first error. The partials come back in region
/// order, so the first error in region order is the one returned; a
/// panic resumes on the caller with its own payload.
fn scan_regions(
    regions: &[Arc<Region>],
    scan: &Scan,
    width: usize,
) -> Result<Vec<(Vec<RowResult>, ScanMetrics)>, StoreError> {
    let filter = scan.filter.as_deref();
    let run = |run: &[Arc<Region>]| -> Result<Vec<_>, StoreError> {
        run.iter()
            .map(|r| r.scan(&scan.start, scan.stop.as_deref(), filter))
            .collect()
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

fn range_overlaps(range: &KeyRange, start: &[u8], stop: Option<&[u8]>) -> bool {
    let starts_before_range_end = match &range.end {
        Some(end) => start < end.as_ref(),
        None => true,
    };
    let stops_after_range_start = match stop {
        Some(stop) => stop > range.start.as_ref(),
        None => true,
    };
    starts_before_range_end && stops_after_range_start
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
            name: "even rows".to_string(),
            pred: |r: &RowResult| r.row.last() == Some(&b'0'),
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
            name: "panics on k050".to_string(),
            pred: |r: &RowResult| {
                assert!(r.row.as_ref() != b"k050", "filter panicked on k050");
                true
            },
        }));
        let _ = store.scan("t", &scan);
    }

    /// A scan runs on at most as many threads as there are cores, the
    /// caller's included, however many regions it covers.
    #[test]
    fn a_scan_of_many_regions_runs_on_at_most_one_thread_per_core() {
        let store = MiniStore::new();
        store.create_table_with_threshold("t", &["f"], 8).unwrap();
        for i in 0..200 {
            store.put("t", bput(&format!("k{i:03}"), "c", "v")).unwrap();
        }
        assert!(store.region_count("t").unwrap() >= 20);
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let record = seen.clone();
        let scan = Scan::all().with_filter(Box::new(PredicateFilter {
            name: "records its thread".to_string(),
            pred: move |_: &RowResult| {
                record.lock().insert(std::thread::current().id());
                true
            },
        }));
        let (rows, _) = store.scan("t", &scan).unwrap();
        assert_eq!(rows.len(), 200);
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = seen.lock().len();
        assert!(
            (1..=cores).contains(&threads),
            "{threads} threads on {cores} cores"
        );
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
            sync: SyncPolicy::GroupCommit(1 << 20),
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
                    name: "even keys".to_string(),
                    pred: |r: &RowResult| r.row.last().is_some_and(|d| d % 2 == 0),
                })),
            };
            let mut seen = Vec::new();
            for width in [1, 2, regions] {
                let reg = obs::Registry::new();
                store.set_obs(reg.clone());
                let result = store.scan_on("t", &scan(), width);
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
            let (store, _) =
                MiniStore::open_with(&dir, SyncPolicy::EveryOp, CrashSpec::after_wal_bytes(700))
                    .unwrap();
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
            let (store, _) = MiniStore::open_with(
                &dir,
                SyncPolicy::EveryOp,
                CrashSpec {
                    during_flush_segment: Some(0),
                    ..CrashSpec::default()
                },
            )
            .unwrap();
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

    #[test]
    fn group_commit_crash_loses_at_most_the_unsynced_tail() {
        let dir = tmp_dir("groupcrash");
        let mut acked = 0usize;
        {
            let (store, _) = MiniStore::open_with(
                &dir,
                SyncPolicy::GroupCommit(4),
                CrashSpec::after_wal_bytes(600),
            )
            .unwrap();
            store.create_table("t", &["f"]).unwrap();
            for i in 0..50 {
                match store.put("t", bput(&format!("r{i:02}"), "c", "v")) {
                    Ok(()) => acked += 1,
                    Err(StoreError::Crashed) => break,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        let (store, _) = MiniStore::open(&dir).unwrap();
        let (rows, _) = store.scan("t", &Scan::all()).unwrap();
        // A synced prefix is never lost; an unsynced tail of < group size
        // may be.
        assert!(rows.len() <= acked);
        assert!(acked - rows.len() < 4, "lost more than one commit group");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Append one hand-built frame behind whatever the store logged.
    fn append_by_hand(dir: &Path, lsn: u64, records: &[WalRecord]) {
        let path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        let mut w =
            WalWriter::open(&path, len, lsn, SyncPolicy::EveryOp, CrashSpec::default()).unwrap();
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
    /// does not hold leaves the region as the live delete did: promoted,
    /// but clean, and the next flush reuses its segment by name.
    #[test]
    fn a_replayed_delete_of_a_missing_row_leaves_its_region_clean() {
        let dir = tmp_dir("noopdelete");
        {
            let (store, _) = MiniStore::open(&dir).unwrap();
            store.create_table("t", &["f"]).unwrap();
            store.put("t", bput("r1", "c", "v")).unwrap();
            store.flush().unwrap();
            assert!(!store.delete_row("t", b"missing").unwrap());
        }
        let (mut store, report) = MiniStore::open(&dir).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(
            report.segment_blocks_read, 1,
            "the delete promoted the region"
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

    /// Eight readers of one cold block fill it once and all see their
    /// rows; eight readers of a rotted block each get the corruption, and
    /// nothing is cached.
    #[test]
    fn concurrent_readers_of_one_cold_block_fill_it_once() {
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
        assert_eq!(counters["cfstore.block_cache.misses"], 1);
        assert_eq!(counters["cfstore.block_cache.hits"], READERS as u64 - 1);
        assert_eq!(counters["cfstore.block_cache.fill_bytes"], block_bytes);
        assert_eq!(store.cache_stats().entries, 1);
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
        store.inner.tables.read()[table].regions.read().clone()
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
        Prepare(Vec<u16>),
        Corrupt(u16, u8),
    }

    fn route_op() -> impl proptest::strategy::Strategy<Value = RouteOp> {
        use proptest::strategy::Strategy;
        proptest::prop_oneof![
            3 => (0u16..400, 0u8..3).prop_map(|(k, c)| RouteOp::Put(k, c)),
            2 => (0u16..400).prop_map(RouteOp::Get),
            1 => (0u16..400).prop_map(RouteOp::Delete),
            1 => proptest::collection::vec(0u16..400, 1..6).prop_map(RouteOp::Prepare),
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
        let opts = || StoreOptions {
            sync: SyncPolicy::GroupCommit(1 << 20),
            ..StoreOptions::default()
        };
        let store = match mode {
            0 => MiniStore::new(),
            _ => MiniStore::open_with_opts(dir, opts()).unwrap().0,
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
            1 => store
                .inner
                .durable
                .as_ref()
                .unwrap()
                .lock()
                .wal
                .sync()
                .unwrap(),
            _ => store.flush().unwrap(),
        }
        drop(store);
        let (store, report) = MiniStore::open_with_opts(dir, opts()).unwrap();
        assert_eq!(report.frames_replayed > 0, mode == 1);
        store
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every put, get, delete, `prepare_rows` and `corrupt_cell` lands
        /// in the region a walk of the region list from the front picks —
        /// over live splits, splits replayed from the WAL and a reopened
        /// segment-backed table — and the list stays sorted by start and
        /// tiles the key space.
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
                        proptest::prop_assert_eq!(&rows[&row]["f"][&column][0].value, &value);
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
                    RouteOp::Prepare(ks) => {
                        let rows: Vec<Bytes> = ks.into_iter().map(route_key).collect();
                        let lazy: Vec<bool> = regions.iter().map(|r| r.is_lazy()).collect();
                        store.prepare_rows("t", &rows).unwrap();
                        let owners: BTreeSet<usize> = rows.iter().map(|r| owner(&r[..])).collect();
                        for (j, r) in regions.iter().enumerate() {
                            let promoted = owners.contains(&j);
                            proptest::prop_assert_eq!(r.is_lazy(), lazy[j] && !promoted);
                        }
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
        store
            .inner
            .apply(vec![split(root, 100, "r3"), split(100, 101, "r6")])
            .unwrap();
        assert_eq!(store.region_count("a").unwrap(), 3);
        store
    }

    /// `records` applied to one store as one batch and to another record by
    /// record leave every cell, timestamp and checksum, the region list and
    /// the store clock the same.
    fn assert_batch_applies_as_cells(records: Vec<WalRecord>) {
        let batched = run_store();
        let per_cell = run_store();
        batched.inner.apply(records.clone()).unwrap();
        for record in records {
            per_cell.inner.apply(vec![record]).unwrap();
        }
        for t in ["a", "b"] {
            assert_eq!(batched.export_table_rows(t), per_cell.export_table_rows(t));
        }
        assert_eq!(batched.meta_entries(), per_cell.meta_entries());
        assert_eq!(batched.clock_value(), per_cell.clock_value());
    }

    fn run_put(table: &str, row: &str, family: &str, column: &str, timestamp: u64) -> WalRecord {
        WalRecord::Put {
            table: table.into(),
            row: Bytes::from(row.to_string()),
            family: family.into(),
            column: Bytes::from(column.to_string()),
            value: Bytes::from(format!("{table}/{row}/{family}:{column}@{timestamp}")),
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
        let inner = &store.inner;
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
                    inner.apply(vec![split]).unwrap();
                    i += 1;
                }
            });
            start.wait();
            for run in 0..RUNS {
                let records = (0..CELLS)
                    .map(|c| {
                        let timestamp = 1 + run * CELLS + c;
                        WalRecord::Put {
                            table: "t".into(),
                            row: Bytes::from("m"),
                            family: "f".into(),
                            column: Bytes::from(format!("c{timestamp:05}")),
                            value: Bytes::from(format!("v{timestamp}")),
                            timestamp,
                        }
                    })
                    .collect();
                inner.apply(records).unwrap();
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
        let cols = &rows[&b"m"[..]]["f"];
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
}
