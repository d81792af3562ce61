//! The PStorM profile store (Chapter 5).
//!
//! Table 5.1's data model over the miniature HBase: one table, one column
//! family, and row keys prefixed with the *feature type*:
//!
//! ```text
//! Static/<job-id>     -> categorical static features + encoded CFGs
//! Dynamic/<job-id>    -> dataflow-statistic features + input size
//! CostFactor/<job-id> -> the Table 4.2 cost-factor features
//! Profile/<job-id>    -> the full encoded Starfish profile
//! Meta/normalization  -> min/max bounds for Euclidean normalization
//! ```
//!
//! The prefix keeps all rows of one feature type contiguous, so each
//! matching stage scans exactly one key range with a pushed-down filter —
//! the locality argument of §5.1.
//!
//! Multi-tenancy (DESIGN.md §14) namespaces this whole layout per tenant:
//! a [`ProfileStore::tenant_view`] shares the backing store but prepends
//! `t/<tenant>/` (see [`cfstore::encoding::tenant_prefix`]) to every row
//! key it reads or writes, so each tenant sees a private copy of the
//! table above. The default tenant's prefix is empty — single-tenant
//! callers keep the exact legacy key layout, bit for bit.
//!
//! What the matcher asks on every submission — is the store empty, the
//! normalization bounds, the [`ColumnarIndex`] — is answered from one
//! in-memory state per namespace, shared by all views of the tenant, built
//! by scan once and kept current by the namespace's own writes
//! (DESIGN.md §17). A match reads the table only for the profiles it
//! returns.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use cfstore::encoding::{decode_f64, decode_f64_vec, encode_f64, encode_f64_vec};
use cfstore::{
    MiniStore, Put, RecoveryError, RecoveryReport, ReshardStatus, RowResult, Scan, ScanMetrics,
    ShardOptions, ShardedRecoveryReport, ShardedStore, StoreError, StoreOptions, Topology,
};
use mlmatch::{DimPrep, MinMaxNormalizer};
use profiler::{CostFactors, JobProfile};
use staticanalysis::{Cfg, SideFeatures, StaticFeatures};

use crate::codec::{decode_cfg, decode_profile, encode_cfg, encode_profile};

/// Table and family names.
const TABLE: &str = "Jobs";
const FAMILY: &str = "f";

/// Dynamic feature column names: the map-side Table 4.1 statistics, then
/// the reduce-side ones.
pub const MAP_DYNAMIC_COLUMNS: [&str; 4] = [
    "MAP_SIZE_SEL",
    "MAP_PAIRS_SEL",
    "COMBINE_SIZE_SEL",
    "COMBINE_PAIRS_SEL",
];
pub const RED_DYNAMIC_COLUMNS: [&str; 2] = ["RED_SIZE_SEL", "RED_PAIRS_SEL"];
const INPUT_BYTES_COLUMN: &str = "INPUT_BYTES";
const HAS_REDUCE_COLUMN: &str = "HAS_REDUCE";
const MAP_CFG_COLUMN: &str = "MAP_CFG";
const RED_CFG_COLUMN: &str = "RED_CFG";

/// Errors from the profile store.
#[derive(Debug)]
pub enum ProfileStoreError {
    Store(StoreError),
    Codec(cfstore::encoding::CodecError),
    Corrupt(String),
    /// The reopen path failed: at-rest corruption of committed data or
    /// I/O trouble (torn WAL tails are *not* errors — they are truncated
    /// and reported in the [`RecoveryReport`]).
    Recovery(RecoveryError),
}

impl std::fmt::Display for ProfileStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileStoreError::Store(e) => write!(f, "{e}"),
            ProfileStoreError::Codec(e) => write!(f, "codec: {e}"),
            ProfileStoreError::Corrupt(s) => write!(f, "corrupt store row: {s}"),
            ProfileStoreError::Recovery(e) => write!(f, "store recovery failed: {e}"),
        }
    }
}
impl std::error::Error for ProfileStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileStoreError::Store(e) => Some(e),
            ProfileStoreError::Codec(e) => Some(e),
            ProfileStoreError::Corrupt(_) => None,
            ProfileStoreError::Recovery(e) => Some(e),
        }
    }
}
impl From<StoreError> for ProfileStoreError {
    fn from(e: StoreError) -> Self {
        ProfileStoreError::Store(e)
    }
}
impl From<RecoveryError> for ProfileStoreError {
    fn from(e: RecoveryError) -> Self {
        ProfileStoreError::Recovery(e)
    }
}
impl From<cfstore::encoding::CodecError> for ProfileStoreError {
    fn from(e: cfstore::encoding::CodecError) -> Self {
        ProfileStoreError::Codec(e)
    }
}

/// One stored job as reconstructed from the store's rows.
#[derive(Debug, Clone)]
pub struct StoredEntry {
    pub job_id: String,
    pub statics: StoredStatics,
    pub profile: JobProfile,
}

/// Static features as stored (categorical vectors + decoded CFGs).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredStatics {
    pub map: SideFeatures,
    pub reduce: SideFeatures,
}

/// The storage engine behind a [`ProfileStore`]: one [`MiniStore`]
/// (in-memory or single-directory durable), or a replicated
/// [`ShardedStore`] that survives the loss of any single shard. The
/// two expose the same table API, so everything above this enum —
/// matcher, columnar index, what-if daemon — is backend-agnostic, and
/// the property suite asserts matcher output is identical across
/// backends.
enum Backend {
    Single(MiniStore),
    Sharded(ShardedStore),
}

impl Backend {
    fn create_table(&self, name: &str, families: &[&str]) -> Result<(), StoreError> {
        match self {
            Backend::Single(s) => s.create_table(name, families),
            Backend::Sharded(s) => s.create_table(name, families),
        }
    }

    fn put(&self, table: &str, put: Put) -> Result<(), StoreError> {
        match self {
            Backend::Single(s) => s.put(table, put),
            Backend::Sharded(s) => s.put(table, put),
        }
    }

    fn put_batch(&self, table: &str, puts: Vec<Put>) -> Result<(), StoreError> {
        match self {
            Backend::Single(s) => s.put_batch(table, puts),
            Backend::Sharded(s) => s.put_batch(table, puts),
        }
    }

    fn get(&self, table: &str, row: &[u8]) -> Result<Option<RowResult>, StoreError> {
        match self {
            Backend::Single(s) => s.get(table, row),
            Backend::Sharded(s) => s.get(table, row),
        }
    }

    fn scan(&self, table: &str, scan: &Scan) -> Result<(Vec<RowResult>, ScanMetrics), StoreError> {
        match self {
            Backend::Single(s) => s.scan(table, scan),
            Backend::Sharded(s) => s.scan(table, scan),
        }
    }

    fn delete_row(&self, table: &str, row: &[u8]) -> Result<bool, StoreError> {
        match self {
            Backend::Single(s) => s.delete_row(table, row),
            Backend::Sharded(s) => s.delete_row(table, row),
        }
    }

    fn flush(&self) -> Result<(), StoreError> {
        match self {
            Backend::Single(s) => s.flush(),
            Backend::Sharded(s) => s.flush(),
        }
    }

    fn is_durable(&self) -> bool {
        match self {
            Backend::Single(s) => s.is_durable(),
            Backend::Sharded(_) => true,
        }
    }

    fn is_crashed(&self) -> bool {
        match self {
            Backend::Single(s) => s.is_crashed(),
            Backend::Sharded(s) => s.is_crashed(),
        }
    }

    fn set_obs(&mut self, reg: obs::Registry) {
        match self {
            Backend::Single(s) => s.set_obs(reg),
            Backend::Sharded(s) => s.set_obs(reg),
        }
    }

    fn corrupt_cell(
        &self,
        table: &str,
        row: &[u8],
        family: &str,
        column: &[u8],
    ) -> Result<bool, StoreError> {
        match self {
            Backend::Single(s) => s.corrupt_cell(table, row, family, column),
            Backend::Sharded(s) => s.corrupt_cell(table, row, family, column),
        }
    }
}

/// What every view of one backing store shares: the backend and one
/// [`Namespace`] per tenant prefix, so two views of the same tenant see —
/// and maintain — the same bounds and the same index (DESIGN.md §17).
struct Shared {
    backend: Backend,
    namespaces: Mutex<HashMap<String, Arc<Namespace>>>,
}

impl Shared {
    fn namespace(&self, ns: &str) -> Arc<Namespace> {
        Arc::clone(self.namespaces.lock().entry(ns.to_string()).or_default())
    }
}

/// The in-memory state of one row-key namespace: the decoded
/// `Meta/normalization` row and the columnar index, both kept current by
/// the namespace's own writes rather than re-read after them.
#[derive(Default)]
struct Namespace {
    /// Serializes the namespace's writers — the bounds read-modify-write,
    /// the batch, and the delta it leaves in `cache` are one critical
    /// section — and the scans that load `cache` from the backend.
    /// Always taken before `cache`, never while holding it.
    write: Mutex<()>,
    cache: RwLock<NsCache>,
}

impl Namespace {
    /// Forget everything: the next reader loads from the backend again.
    /// Called when a write fails, because a batch that was not
    /// acknowledged may still have reached some rows.
    fn invalidate(&self) {
        *self.cache.write() = NsCache::default();
    }
}

#[derive(Default)]
struct NsCache {
    /// `None` until first read from the backend.
    bounds: Option<NormalizationBounds>,
    /// The last snapshot; `None` until first built by scan. While it is
    /// `None` writes record no deltas: the scan will see their rows.
    index: Option<Arc<ColumnarIndex>>,
    /// What acknowledged writes changed since `index`, in the order they
    /// were acknowledged: a job id and what `put_profile` wrote for it, or
    /// `None` for a `delete_job`. A write only appends here; everything
    /// else about a delta is worked out when a reader folds them in.
    pending: Vec<(Arc<str>, Option<WrittenRow>)>,
}

/// What one `put_profile` batch wrote, as far as the index cares.
struct WrittenRow {
    /// `statics` is still `None`: it depends on what the row held before.
    row: IndexRow,
    /// The `Static/` cells of the batch, in write order.
    static_cells: Vec<(Bytes, Bytes)>,
}

impl NsCache {
    /// Note an acknowledged write, if there is a snapshot to keep current
    /// (the return value).
    fn record(&mut self, job_id: &str, written: Option<WrittenRow>) -> bool {
        if self.index.is_some() {
            self.pending.push((Arc::from(job_id), written));
        }
        self.index.is_some()
    }

    /// The current snapshot, with the pending deltas folded into a new one
    /// first if there are any; `None` while no index has been built. Reads
    /// no store row.
    fn fold_pending(&mut self) -> Option<Arc<ColumnarIndex>> {
        let index = Arc::clone(self.index.as_ref()?);
        if self.pending.is_empty() {
            return Some(index);
        }
        // By job id: a later write to a job replaces the earlier delta,
        // and the merge wants key order.
        let mut deltas: BTreeMap<Arc<str>, Option<IndexRow>> = BTreeMap::new();
        for (job_id, written) in std::mem::take(&mut self.pending) {
            let row = written.map(
                |WrittenRow {
                     mut row,
                     static_cells,
                 }| {
                    // A put rewrites columns; the ones it left out keep the
                    // value the job's row had, in the table and so here.
                    let held = match deltas.get(&job_id) {
                        Some(delta) => delta.as_ref().and_then(|r| r.statics.as_ref()),
                        None => index
                            .find(&job_id)
                            .and_then(|r| index.statics_entry(r))
                            .map(|e| &e.cells),
                    };
                    row.statics = Some(overlay_cells(
                        held.map_or(&[], |cells| &cells[..]),
                        static_cells,
                    ));
                    row
                },
            );
            deltas.insert(job_id, row);
        }
        match index.merged(&deltas) {
            Ok(merged) => {
                let merged = Arc::new(merged);
                self.index = Some(Arc::clone(&merged));
                Some(merged)
            }
            // Cells the table accepted that do not decode: a scan would
            // refuse them too. Start over and let it.
            Err(_) => {
                *self = NsCache::default();
                None
            }
        }
    }
}

/// The PStorM profile store.
pub struct ProfileStore {
    /// Shared with every [`Self::tenant_view`] of the same backing store.
    shared: Arc<Shared>,
    /// Row-key namespace prefix: `""` for the default tenant (legacy
    /// layout), `t/<tenant>/` otherwise. Every key this store builds and
    /// every prefix it scans goes through [`Self::key`] / [`Self::pfx`],
    /// which prepend it.
    ns: String,
    /// The tenant this view is scoped to
    /// ([`cfstore::encoding::DEFAULT_TENANT`] unless created by
    /// [`Self::tenant_view`]).
    tenant: String,
    /// `shared.namespace(ns)`: the normalization bounds and the
    /// [`ColumnarIndex`] of this view's namespace, shared with every other
    /// view of the same tenant.
    state: Arc<Namespace>,
    /// Observability registry ([`obs::Registry::disabled`] by default);
    /// the matcher reads it through [`ProfileStore::obs`] so one enabled
    /// registry covers the whole store + matcher path.
    obs: obs::Registry,
}

impl ProfileStore {
    /// Create an empty store (one `Jobs` table, one family).
    pub fn new() -> Result<Self, ProfileStoreError> {
        let store = Backend::Single(MiniStore::new());
        store.create_table(TABLE, &[FAMILY])?;
        Ok(Self::default_view(store))
    }

    fn default_view(backend: Backend) -> ProfileStore {
        let shared = Arc::new(Shared {
            backend,
            namespaces: Mutex::new(HashMap::new()),
        });
        ProfileStore {
            state: shared.namespace(""),
            shared,
            ns: String::new(),
            tenant: cfstore::encoding::DEFAULT_TENANT.to_string(),
            obs: obs::Registry::disabled(),
        }
    }

    fn backend(&self) -> &Backend {
        &self.shared.backend
    }

    /// Open (or create) a durable store at `dir`, running crash recovery
    /// and eagerly rebuilding the stage-1 columnar index from the
    /// recovered rows. Returns the store plus the [`RecoveryReport`].
    pub fn reopen(dir: &Path) -> Result<(Self, RecoveryReport), ProfileStoreError> {
        Self::reopen_with_opts(dir, StoreOptions::default())
    }

    /// [`Self::reopen`] with full [`StoreOptions`] control — sync policy
    /// and crash injection (the crash-recovery property tests), block
    /// cache budget and the background flusher (the hot-path benchmarks).
    pub fn reopen_with_opts(
        dir: &Path,
        opts: StoreOptions,
    ) -> Result<(Self, RecoveryReport), ProfileStoreError> {
        let (store, report) = MiniStore::open_with_opts(dir, opts)?;
        let ps = Self::finish_open(Backend::Single(store))?;
        Ok((ps, report))
    }

    /// Open (or create) a *sharded, replicated* store at `dir`: N shard
    /// subdirectories with R-way row replication, self-healing reads,
    /// and recovery that rebuilds any single lost shard from its peers
    /// (DESIGN.md §13). Everything above the storage layer — matcher,
    /// columnar index, tuning loop — behaves identically to
    /// [`Self::reopen`].
    pub fn reopen_sharded(dir: &Path) -> Result<(Self, ShardedRecoveryReport), ProfileStoreError> {
        Self::reopen_sharded_traced(dir, ShardOptions::default(), obs::Registry::disabled())
    }

    /// [`Self::reopen_sharded`] with explicit [`ShardOptions`] (shard
    /// count, replication factor, crash injection for the chaos tests)
    /// and an observability registry attached from the first byte of
    /// recovery, so shard-rebuild and heal counters
    /// (`cfstore.shard.<id>.heal.*`) are captured; pass
    /// [`obs::Registry::disabled`] to trace nothing.
    pub fn reopen_sharded_traced(
        dir: &Path,
        opts: ShardOptions,
        reg: obs::Registry,
    ) -> Result<(Self, ShardedRecoveryReport), ProfileStoreError> {
        let (store, report) = ShardedStore::open_traced(dir, opts, reg.clone())?;
        let mut ps = Self::finish_open(Backend::Sharded(store))?;
        if reg.is_enabled() {
            ps.obs = reg;
        }
        Ok((ps, report))
    }

    fn finish_open(store: Backend) -> Result<Self, ProfileStoreError> {
        match store.create_table(TABLE, &[FAMILY]) {
            Ok(()) | Err(StoreError::TableExists(_)) => {}
            Err(e) => return Err(e.into()),
        }
        let ps = Self::default_view(store);
        // The first matcher query must not pay the rebuild; surface any
        // half-recovered row inconsistency now rather than mid-match.
        ps.columnar_index()?;
        Ok(ps)
    }

    /// A view of the same backing store scoped to `tenant`: every row key
    /// it builds is namespaced under the tenant's prefix, so the matcher,
    /// columnar index, and normalization bounds running on the view see
    /// **only** that tenant's rows (DESIGN.md §14). Views share the
    /// backend (and its WAL/segments/shards), and all views of one tenant
    /// share that tenant's index and bounds (DESIGN.md §17): a profile put
    /// through one is matched through any other, and a view is cheap to
    /// make and to drop. Viewing [`cfstore::encoding::DEFAULT_TENANT`]
    /// yields the legacy key layout unchanged.
    pub fn tenant_view(&self, tenant: &str) -> Result<ProfileStore, ProfileStoreError> {
        let ns = cfstore::encoding::tenant_prefix(tenant)?;
        Ok(ProfileStore {
            state: self.shared.namespace(&ns),
            shared: Arc::clone(&self.shared),
            ns,
            tenant: tenant.to_string(),
            obs: self.obs.clone(),
        })
    }

    /// The tenant this store is scoped to
    /// ([`cfstore::encoding::DEFAULT_TENANT`] for stores not created via
    /// [`Self::tenant_view`]).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Row key `<ns><feature>/<job_id>`.
    fn key(&self, feature: &str, job_id: &str) -> Bytes {
        Bytes::from(format!("{}{feature}/{job_id}", self.ns))
    }

    /// Scan prefix `<ns><feature>/`.
    fn pfx(&self, feature: &str) -> Vec<u8> {
        format!("{}{feature}/", self.ns).into_bytes()
    }

    /// Bytes to strip from a scanned row key to recover the job id.
    fn skip(&self, feature: &str) -> usize {
        self.ns.len() + feature.len() + 1
    }

    /// The per-tenant normalization-bounds row.
    fn meta_key(&self) -> Bytes {
        Bytes::from(format!("{}Meta/normalization", self.ns))
    }

    /// Flush the underlying store's memstores to segment files (no-op for
    /// in-memory stores). Puts since the last flush survive crashes via
    /// the WAL either way; flushing bounds WAL replay length.
    pub fn flush(&self) -> Result<(), ProfileStoreError> {
        Ok(self.backend().flush()?)
    }

    /// Whether this store is backed by a directory.
    pub fn is_durable(&self) -> bool {
        self.backend().is_durable()
    }

    /// Whether an injected crash point has poisoned the underlying store
    /// (every further durable operation fails fast until [`Self::reopen`]).
    pub fn is_crashed(&self) -> bool {
        self.backend().is_crashed()
    }

    /// Route this store's (and the underlying [`MiniStore`]'s) metrics
    /// into `reg`. Pass a clone of the daemon's registry to collect one
    /// coherent trace; see DESIGN.md §10.
    ///
    /// Attach the registry **before** creating tenant views: once views
    /// share the backend, the backend-level `cfstore.*` counters keep
    /// whatever registry they already had (only this view's `store.*`
    /// counters are redirected).
    pub fn set_obs(&mut self, reg: obs::Registry) {
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            shared.backend.set_obs(reg.clone());
        }
        self.obs = reg;
    }

    /// The registry this store records into (disabled unless
    /// [`Self::set_obs`] was called).
    pub fn obs(&self) -> &obs::Registry {
        &self.obs
    }

    /// Chaos hook: bit-flip one stored cell (e.g. `Profile/<job>`'s
    /// `PROFILE` column) without updating its checksum, so the next read
    /// surfaces [`cfstore::StoreError::Corruption`] through
    /// [`ProfileStoreError::Store`]. Returns whether a cell was hit. The
    /// row is namespace-relative: on a tenant view it corrupts that
    /// tenant's copy of the row.
    pub fn corrupt_cell(&self, row: &[u8], column: &[u8]) -> Result<bool, ProfileStoreError> {
        let full = [self.ns.as_bytes(), row].concat();
        Ok(self.backend().corrupt_cell(TABLE, &full, FAMILY, column)?)
    }

    /// Insert (or replace) a job's profile and features, maintaining the
    /// normalization bounds.
    ///
    /// # Examples
    ///
    /// Profile a run and store it; the profile comes back by job id:
    ///
    /// ```
    /// use pstorm::store::ProfileStore;
    /// use staticanalysis::StaticFeatures;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let spec = mrjobs::jobs::word_count();
    /// let ds = datagen::corpus::random_text_1g();
    /// let (profile, _run) = profiler::collect_full_profile(
    ///     &spec,
    ///     &ds,
    ///     &mrsim::ClusterSpec::ec2_c1_medium_16(),
    ///     &mrsim::JobConfig::submitted(&spec),
    ///     7,
    /// )?;
    ///
    /// let store = ProfileStore::new()?;
    /// store.put_profile(&StaticFeatures::extract(&spec), &profile)?;
    /// assert_eq!(store.len()?, 1);
    /// assert_eq!(store.get_profile(&profile.job_id)?.unwrap(), profile);
    /// # Ok(())
    /// # }
    /// ```
    pub fn put_profile(
        &self,
        statics: &StaticFeatures,
        profile: &JobProfile,
    ) -> Result<(), ProfileStoreError> {
        self.obs.incr("store.put_profile", 1);
        let job_id = &profile.job_id;

        // The whole profile — statics, dynamics, cost factors, the blob,
        // and the refreshed normalization bounds — is written as ONE
        // atomic batch (a single WAL frame in durable mode), so recovery
        // can never surface a half-written profile: either every row of
        // the job replays or none does.
        let mut puts: Vec<Put> = Vec::new();

        // Static/<job>: categorical features + CFG cells.
        let mut static_cells: Vec<(Bytes, Bytes)> = statics
            .map
            .categorical
            .iter()
            .chain(&statics.reduce.categorical)
            .map(|(name, value)| {
                (
                    Bytes::copy_from_slice(name.as_bytes()),
                    Bytes::copy_from_slice(value.as_bytes()),
                )
            })
            .collect();
        if let Some(cfg) = &statics.map.cfg {
            static_cells.push((Bytes::from(MAP_CFG_COLUMN), encode_cfg(cfg)));
        }
        if let Some(cfg) = &statics.reduce.cfg {
            static_cells.push((Bytes::from(RED_CFG_COLUMN), encode_cfg(cfg)));
        }
        let static_key = self.key("Static", job_id);
        for (column, value) in &static_cells {
            puts.push(Put::new(
                static_key.clone(),
                FAMILY,
                column.clone(),
                value.clone(),
            ));
        }

        // Dynamic/<job>: dataflow statistics + input size + reduce flag.
        let dynamic_key = self.key("Dynamic", job_id);
        let map_dyn = profile.map.dynamic_features();
        let red_dyn = profile.reduce.as_ref().map(|r| r.dynamic_features());
        for (name, v) in MAP_DYNAMIC_COLUMNS.iter().zip(&map_dyn) {
            puts.push(f64_put(dynamic_key.clone(), name, *v));
        }
        for (name, v) in RED_DYNAMIC_COLUMNS.iter().zip(red_dyn.iter().flatten()) {
            puts.push(f64_put(dynamic_key.clone(), name, *v));
        }
        puts.push(f64_put(
            dynamic_key.clone(),
            INPUT_BYTES_COLUMN,
            profile.input_bytes,
        ));
        puts.push(f64_put(
            dynamic_key,
            HAS_REDUCE_COLUMN,
            profile.reduce.is_some() as u8 as f64,
        ));

        // CostFactor/<job>.
        let cost_key = self.key("CostFactor", job_id);
        let cost = profile.map.cost_factors.as_vec();
        for (name, v) in CostFactors::names().iter().zip(&cost) {
            puts.push(f64_put(cost_key.clone(), name, *v));
        }

        // Profile/<job>: the full blob.
        puts.push(Put::new(
            self.key("Profile", job_id),
            FAMILY,
            "blob",
            encode_profile(profile),
        ));

        // Meta/normalization: extend min/max bounds. From reading them to
        // publishing what was written, no other writer of this namespace
        // — through this view or any other — gets in between.
        let _writer = self.state.write.lock();
        let mut bounds = self.bounds_locked()?;
        bounds.map_dyn.observe(&map_dyn);
        bounds
            .red_dyn
            .observe(red_dyn.as_deref().unwrap_or(&[1.0, 1.0]));
        bounds.cost.observe(&cost);
        let meta_key = self.meta_key();
        puts.push(Put::new(
            meta_key.clone(),
            FAMILY,
            "map_dyn",
            encode_bounds(&bounds.map_dyn),
        ));
        puts.push(Put::new(
            meta_key.clone(),
            FAMILY,
            "red_dyn",
            encode_bounds(&bounds.red_dyn),
        ));
        puts.push(Put::new(
            meta_key,
            FAMILY,
            "cost",
            encode_bounds(&bounds.cost),
        ));

        if let Err(e) = self.backend().put_batch(TABLE, puts) {
            self.state.invalidate();
            return Err(e.into());
        }

        // The caches follow only an acknowledged batch: its bounds, and
        // the index row a scan of its cells would decode.
        let mut cache = self.state.cache.write();
        cache.bounds = Some(bounds);
        let written = WrittenRow {
            row: IndexRow {
                map_dyn,
                red_dyn,
                input_bytes: profile.input_bytes,
                cost,
                statics: None,
            },
            static_cells,
        };
        if cache.record(job_id, Some(written)) {
            self.obs.incr("store.index_deltas", 1);
        }
        Ok(())
    }

    /// The current min/max normalization bounds (identity bounds when the
    /// store is empty). Served from the namespace's in-memory copy of the
    /// `Meta/normalization` row, which every `put_profile` — through any
    /// view of the tenant — updates as it writes the row; the matcher
    /// reads the bounds on every submission and must not pay a decode for
    /// it.
    pub fn normalization_bounds(&self) -> Result<NormalizationBounds, ProfileStoreError> {
        if let Some(bounds) = self.state.cache.read().bounds.as_ref() {
            return Ok(bounds.clone());
        }
        let _writer = self.state.write.lock();
        self.bounds_locked()
    }

    /// [`Self::normalization_bounds`] for a caller that holds the
    /// namespace's write lock, so no batch is in flight while the row is
    /// read.
    fn bounds_locked(&self) -> Result<NormalizationBounds, ProfileStoreError> {
        if let Some(bounds) = self.state.cache.read().bounds.as_ref() {
            return Ok(bounds.clone());
        }
        let bounds = self.read_normalization_bounds()?;
        self.state.cache.write().bounds = Some(bounds.clone());
        Ok(bounds)
    }

    fn read_normalization_bounds(&self) -> Result<NormalizationBounds, ProfileStoreError> {
        let row = self.backend().get(TABLE, self.meta_key().as_ref())?;
        let decode = |row: &RowResult,
                      col: &str,
                      dim: usize|
         -> Result<MinMaxNormalizer, ProfileStoreError> {
            match row.value(FAMILY, col.as_bytes()) {
                Some(bytes) => decode_bounds(bytes),
                None => Ok(identity_bounds(dim)),
            }
        };
        match row {
            Some(row) => Ok(NormalizationBounds {
                map_dyn: decode(&row, "map_dyn", MAP_DYNAMIC_COLUMNS.len())?,
                red_dyn: decode(&row, "red_dyn", RED_DYNAMIC_COLUMNS.len())?,
                cost: decode(&row, "cost", CostFactors::names().len())?,
            }),
            None => Ok(NormalizationBounds {
                map_dyn: identity_bounds(MAP_DYNAMIC_COLUMNS.len()),
                red_dyn: identity_bounds(RED_DYNAMIC_COLUMNS.len()),
                cost: identity_bounds(CostFactors::names().len()),
            }),
        }
    }

    /// Fetch the full profile of a job.
    pub fn get_profile(&self, job_id: &str) -> Result<Option<JobProfile>, ProfileStoreError> {
        self.obs.incr("store.get_profile", 1);
        let row = self
            .backend()
            .get(TABLE, self.key("Profile", job_id).as_ref())?;
        match row {
            Some(row) => {
                let blob = row.value(FAMILY, b"blob").ok_or_else(|| {
                    ProfileStoreError::Corrupt(format!("Profile/{job_id} has no blob"))
                })?;
                Ok(Some(decode_profile(blob)?))
            }
            None => Ok(None),
        }
    }

    /// Delete every row of a job (profile eviction). The normalization
    /// bounds are monotone and deliberately not shrunk (matching the
    /// paper's store), so only the columnar index follows the delete.
    ///
    /// `Dynamic/<job>` goes first: it is the row the index — and so
    /// [`Self::len`] and the matcher — is built from, and `Profile/<job>`
    /// goes last, so a delete cut short between rows leaves a job that no
    /// match can name rather than a match whose profile is gone. Deleting
    /// the job again removes what was left.
    pub fn delete_job(&self, job_id: &str) -> Result<bool, ProfileStoreError> {
        let _writer = self.state.write.lock();
        let delete = |feature: &str| {
            self.backend()
                .delete_row(TABLE, self.key(feature, job_id).as_ref())
                .inspect_err(|_| self.state.invalidate())
        };
        let mut any = delete("Dynamic")?;
        if any && self.state.cache.write().record(job_id, None) {
            self.obs.incr("store.index_deltas", 1);
        }
        for feature in ["Static", "CostFactor", "Profile"] {
            any |= delete(feature)?;
        }
        Ok(any)
    }

    /// All stored job ids (scans the `Profile/` prefix).
    pub fn job_ids(&self) -> Result<Vec<String>, ProfileStoreError> {
        let (rows, _) = self
            .backend()
            .scan(TABLE, &Scan::prefix(&self.pfx("Profile")))?;
        let skip = self.skip("Profile");
        rows.iter()
            .map(|r| {
                std::str::from_utf8(&r.row[skip..])
                    .map(str::to_string)
                    .map_err(|_| ProfileStoreError::Corrupt("non-UTF8 job id".to_string()))
            })
            .collect()
    }

    /// Number of stored profiles: the jobs in the [`ColumnarIndex`], that
    /// is, the jobs with a `Dynamic/` row — the ones a match can return.
    /// Answered from the index without reading a row; it differs from
    /// `job_ids().len()` only for a job whose delete was cut short.
    pub fn len(&self) -> Result<usize, ProfileStoreError> {
        Ok(self.columnar_index()?.len())
    }

    /// Whether the store is empty (see [`Self::len`]).
    pub fn is_empty(&self) -> Result<bool, ProfileStoreError> {
        Ok(self.len()? == 0)
    }

    /// Scan the `Dynamic/` rows with a pushed-down predicate; returns the
    /// surviving job ids and the scan metrics. This is how the matcher's
    /// first filter executes at the region servers (§5.3).
    pub fn filter_dynamic(
        &self,
        predicate: impl Fn(&DynamicRow) -> bool + Send + Sync + 'static,
    ) -> Result<(Vec<DynamicRow>, ScanMetrics), ProfileStoreError> {
        let skip = self.skip("Dynamic");
        let scan =
            Scan::prefix(&self.pfx("Dynamic")).with_filter(Box::new(cfstore::PredicateFilter {
                name: "dynamic-feature filter".to_string(),
                pred: move |row: &RowResult| match DynamicRow::parse(row, skip) {
                    Some(d) => predicate(&d),
                    None => false,
                },
            }));
        let (rows, metrics) = self.backend().scan(TABLE, &scan)?;
        let parsed = rows
            .iter()
            .filter_map(|r| DynamicRow::parse(r, skip))
            .collect();
        Ok((parsed, metrics))
    }

    /// Fetch a job's stored static features.
    pub fn get_statics(&self, job_id: &str) -> Result<Option<StoredStatics>, ProfileStoreError> {
        let Some(row) = self
            .backend()
            .get(TABLE, self.key("Static", job_id).as_ref())?
        else {
            return Ok(None);
        };
        Ok(Some(decode_statics(&static_cells_of(&row))?))
    }

    /// Fetch a job's cost-factor vector.
    pub fn get_cost_factors(&self, job_id: &str) -> Result<Option<Vec<f64>>, ProfileStoreError> {
        let Some(row) = self
            .backend()
            .get(TABLE, self.key("CostFactor", job_id).as_ref())?
        else {
            return Ok(None);
        };
        Ok(Some(decode_cost_factors(&row, job_id)?))
    }

    /// Fetch the cost factors of every stored job with a single
    /// `CostFactor/` prefix scan (batched alternative to point-gets).
    pub fn all_cost_factors(&self) -> Result<HashMap<String, Vec<f64>>, ProfileStoreError> {
        let (rows, _) = self
            .backend()
            .scan(TABLE, &Scan::prefix(&self.pfx("CostFactor")))?;
        let skip = self.skip("CostFactor");
        rows.iter()
            .map(|row| {
                let id = job_id_of(&row.row, skip)?;
                let v = decode_cost_factors(row, &id)?;
                Ok((id, v))
            })
            .collect()
    }

    /// The columnar projection of the namespace's feature rows. Built by
    /// scan once — at open, or on first use of a tenant's namespace — and
    /// from then on kept current by the writes themselves: each
    /// acknowledged `put_profile` and `delete_job`, through any view of
    /// the tenant, leaves a row delta, and this call folds the pending
    /// deltas into a new snapshot without reading the backend. The
    /// returned `Arc` is immutable: it stays a consistent snapshot of the
    /// moment it was returned whatever is written afterwards.
    pub fn columnar_index(&self) -> Result<Arc<ColumnarIndex>, ProfileStoreError> {
        let ns = &*self.state;
        {
            let cache = ns.cache.read();
            if let (Some(index), true) = (&cache.index, cache.pending.is_empty()) {
                self.obs.incr("store.index_hits", 1);
                return Ok(Arc::clone(index));
            }
        }
        if let Some(index) = self.fold_pending() {
            return Ok(index);
        }
        // Never built (or dropped by a failed write): scan, with the
        // namespace's writers held off so that no row is both scanned and
        // recorded as a delta. Another view may have got here first.
        let _writer = ns.write.lock();
        if let Some(index) = self.fold_pending() {
            return Ok(index);
        }
        let index = Arc::new(self.build_columnar_index()?);
        ns.cache.write().index = Some(Arc::clone(&index));
        self.obs.incr("store.index_rebuilds", 1);
        Ok(index)
    }

    fn fold_pending(&self) -> Option<Arc<ColumnarIndex>> {
        let mut cache = self.state.cache.write();
        let merged = !cache.pending.is_empty();
        let index = cache.fold_pending()?;
        drop(cache);
        let counter = if merged {
            "store.index_merges"
        } else {
            "store.index_hits"
        };
        self.obs.incr(counter, 1);
        Some(index)
    }

    /// Build the index from scans of the namespace's `Dynamic/`,
    /// `Static/` and `CostFactor/` rows, touching no cached state: what
    /// [`Self::columnar_index`] does once per open, and the oracle the
    /// maintained index is tested against (it must equal this, `==`).
    pub fn build_columnar_index(&self) -> Result<ColumnarIndex, ProfileStoreError> {
        let scan = |feature: &str| {
            self.backend()
                .scan(TABLE, &Scan::prefix(&self.pfx(feature)))
        };
        let (dyn_rows, _) = scan("Dynamic")?;
        let (static_rows, _) = scan("Static")?;
        let skip = self.skip("Static");
        let static_rows: HashMap<&[u8], &RowResult> =
            static_rows.iter().map(|r| (&r.row[skip..], r)).collect();
        let mut costs = self.all_cost_factors()?;

        let skip = self.skip("Dynamic");
        let mut builder = IndexBuilder::new(dyn_rows.len(), None);
        for row in &dyn_rows {
            let parsed = DynamicRow::parse(row, skip).ok_or_else(|| {
                ProfileStoreError::Corrupt(format!(
                    "undecodable Dynamic row {}",
                    String::from_utf8_lossy(&row.row)
                ))
            })?;
            let cost = costs.remove(&parsed.job_id).ok_or_else(|| {
                ProfileStoreError::Corrupt(format!("no CostFactor row for {}", parsed.job_id))
            })?;
            let statics = static_rows
                .get(parsed.job_id.as_bytes())
                .map(|row| static_cells_of(row));
            builder.push(
                Arc::from(parsed.job_id),
                &IndexRow {
                    map_dyn: parsed.map_dyn,
                    red_dyn: parsed.red_dyn,
                    input_bytes: parsed.input_bytes,
                    cost,
                    statics,
                },
            )?;
        }
        Ok(builder.finish())
    }

    /// The underlying HBase (diagnostics and benches). Only available
    /// on single-store backends; sharded stores have no single inner
    /// [`MiniStore`] — use [`Self::sharded`] instead.
    pub fn inner(&self) -> &MiniStore {
        match self.backend() {
            Backend::Single(s) => s,
            Backend::Sharded(_) => {
                panic!("ProfileStore::inner() on a sharded backend; use sharded()")
            }
        }
    }

    /// The underlying sharded store, when this store was opened with
    /// [`Self::reopen_sharded`] (`None` for single-store backends).
    pub fn sharded(&self) -> Option<&ShardedStore> {
        match self.backend() {
            Backend::Sharded(s) => Some(s),
            Backend::Single(_) => None,
        }
    }

    fn sharded_or_err(&self) -> Result<&ShardedStore, ProfileStoreError> {
        self.sharded().ok_or_else(|| {
            ProfileStoreError::Store(StoreError::Io(
                "reshard requires a sharded backend (ProfileStore::reopen_sharded)".to_string(),
            ))
        })
    }

    /// Run a full topology change on a sharded backend (DESIGN.md §15):
    /// begin, copy every unit, verify, cut over, GC. The store keeps
    /// serving reads and writes throughout — tenants submitting through
    /// the service never see the migration except in the counters.
    pub fn reshard(&self, plan: Topology) -> Result<ReshardStatus, ProfileStoreError> {
        Ok(self.sharded_or_err()?.reshard(plan)?)
    }

    /// Resume a migration a crash left in flight (`Ok(None)` when the
    /// journal shows nothing to resume).
    pub fn resume_reshard(&self) -> Result<Option<ReshardStatus>, ProfileStoreError> {
        Ok(self.sharded_or_err()?.resume_reshard()?)
    }

    /// The in-flight migration, if any (`None` also on single-store
    /// backends, which cannot reshard).
    pub fn reshard_status(&self) -> Option<ReshardStatus> {
        self.sharded().and_then(|s| s.reshard_status())
    }

    /// Backend-routed raw single-cell put into the `Jobs` table (the
    /// workflow layer's plan rows ride on this). The row key is
    /// namespace-relative; tenant views write into their own prefix.
    pub(crate) fn raw_put(&self, mut put: Put) -> Result<(), ProfileStoreError> {
        if !self.ns.is_empty() {
            put.row = Bytes::from([self.ns.as_bytes(), put.row.as_ref()].concat());
        }
        Ok(self.backend().put(TABLE, put)?)
    }

    /// Backend-routed raw row get from the `Jobs` table
    /// (namespace-relative, like [`Self::raw_put`]).
    pub(crate) fn raw_get(&self, row: &[u8]) -> Result<Option<RowResult>, ProfileStoreError> {
        let full = [self.ns.as_bytes(), row].concat();
        Ok(self.backend().get(TABLE, &full)?)
    }
}

/// Lane width of the chunked struct-of-arrays sweep matrices: eight f64s
/// fill one 64-byte cache line and one AVX-512 register (two AVX2 ones),
/// and LLVM reliably autovectorizes fixed-trip-count loops of this width.
pub const SWEEP_LANES: usize = 8;

/// A dense feature matrix blocked for the stage-1 sweep: rows are grouped
/// into chunks of [`SWEEP_LANES`], and *within* a chunk values are stored
/// dimension-major — a struct-of-arrays layout where each dimension's
/// eight values are contiguous. The sweep then runs dimensions-outer /
/// lanes-inner over fixed-width slices, which the compiler turns into
/// packed SIMD without any explicit intrinsics.
///
/// Each row's distance still accumulates its dimensions in order and
/// compares `acc.sqrt() <= theta`, exactly like the scalar
/// [`MinMaxNormalizer::distance`]; only the loop nest is interchanged, so
/// survivor sets are bit-identical (property-tested against the scan
/// oracle in `tests/tests/property_columnar.rs`).
#[derive(Debug, Clone, PartialEq)]
struct LaneMatrix {
    dims: usize,
    len: usize,
    /// `len.div_ceil(SWEEP_LANES) * dims * SWEEP_LANES` values; row `r`,
    /// dimension `d` lives at
    /// `(r / SWEEP_LANES * dims + d) * SWEEP_LANES + r % SWEEP_LANES`.
    /// Padding rows hold 0.0 and are excluded by the `len` bound.
    data: Vec<f64>,
}

impl LaneMatrix {
    fn empty(dims: usize) -> LaneMatrix {
        LaneMatrix {
            dims,
            len: 0,
            data: Vec::new(),
        }
    }

    fn from_row_major(rows: &[f64], dims: usize, len: usize) -> LaneMatrix {
        debug_assert_eq!(rows.len(), dims * len);
        let mut data = vec![0.0; len.div_ceil(SWEEP_LANES) * dims * SWEEP_LANES];
        for r in 0..len {
            for d in 0..dims {
                data[(r / SWEEP_LANES * dims + d) * SWEEP_LANES + r % SWEEP_LANES] =
                    rows[r * dims + d];
            }
        }
        LaneMatrix { dims, len, data }
    }

    /// Rows whose distance to the prepared query is within `theta`, in row
    /// order; rows where `mask` is false are dropped after the distance
    /// check (matching the scalar sweeps, which also evaluate the masked
    /// predicate per row).
    fn sweep(&self, prep: &[DimPrep], theta: f64, mask: Option<&[bool]>) -> Vec<usize> {
        let mut out = Vec::new();
        let width = self.dims * SWEEP_LANES;
        for (c, chunk) in self.data.chunks_exact(width).enumerate() {
            let mut acc = [0.0f64; SWEEP_LANES];
            for (d, p) in prep.iter().enumerate() {
                let ys = &chunk[d * SWEEP_LANES..(d + 1) * SWEEP_LANES];
                match *p {
                    // The hot regime: branch-free per lane, vectorizes.
                    DimPrep::Scaled { min, range, nx } => {
                        for (a, y) in acc.iter_mut().zip(ys) {
                            let dd = nx - ((y - min) / range).clamp(0.0, 1.0);
                            *a += dd * dd;
                        }
                    }
                    // Degenerate dimensions carry a data-dependent branch;
                    // rare (near-empty stores), so scalar is fine.
                    DimPrep::Degenerate { .. } => {
                        for (a, y) in acc.iter_mut().zip(ys) {
                            let dd = p.delta(*y);
                            *a += dd * dd;
                        }
                    }
                }
            }
            let base = c * SWEEP_LANES;
            for (l, a) in acc.iter().enumerate() {
                let row = base + l;
                if row >= self.len {
                    break;
                }
                if a.sqrt() <= theta && mask.is_none_or(|m| m[row]) {
                    out.push(row);
                }
            }
        }
        out
    }
}

/// A columnar, contiguous in-memory projection of the store's numeric
/// feature rows, in `Dynamic/` key (= lexicographic job id) order.
///
/// Stage 1 of the matcher is a dense distance sweep over every stored
/// profile; doing it over contiguous matrices replaces one B-tree
/// traversal + column decode per row with a linear scan of a few cache
/// lines per candidate. The dynamic-feature matrices are kept twice: a
/// row-major copy serving the per-row accessors (and the scalar reference
/// sweeps), and a `LaneMatrix` blocked for the vectorized sweep — a few
/// dozen bytes per row buys the hot path its SIMD layout. The statics and
/// cost factors ride along so the later stages become array lookups
/// instead of per-job point-gets. The stored rows remain the oracle:
/// property tests assert that every index row equals point reads of them
/// and that the sweep's survivors equal a pushed-down
/// [`ProfileStore::filter_dynamic`] scan's.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarIndex {
    job_ids: Vec<Arc<str>>,
    /// Row-major `len() x MAP_DYNAMIC_COLUMNS.len()`.
    map_dyn: Vec<f64>,
    /// Row-major `len() x RED_DYNAMIC_COLUMNS.len()`; zero-padded for
    /// map-only jobs (masked by `has_reduce`).
    red_dyn: Vec<f64>,
    /// Lane-blocked copy of `map_dyn` (the vectorized sweep operand).
    map_lanes: LaneMatrix,
    /// Lane-blocked copy of `red_dyn`.
    red_lanes: LaneMatrix,
    has_reduce: Vec<bool>,
    /// Row-major `len() x CostFactors::names().len()`.
    cost: Vec<f64>,
    input_bytes: Vec<f64>,
    /// Per row, an id into `statics`; [`NO_STATICS`] for a job without a
    /// `Static/` row.
    statics_id: Vec<u32>,
    /// The distinct static features of the rows, numbered in order of
    /// first appearance — so the table, like every other field, is a
    /// function of the rows alone, however the index came to hold them.
    statics: Arc<StaticsTable>,
}

/// `statics_id` of a row whose job has no `Static/` row.
const NO_STATICS: u32 = u32::MAX;

/// The raw cells of one `Static/` row, `(column, value)` sorted by column:
/// what static features are interned on. Jobs of one program share them
/// byte for byte, so a store of many profiles per job decodes — and the
/// matcher compares — each distinct CFG once.
type StaticCells = Arc<[(Bytes, Bytes)]>;

#[derive(Debug, PartialEq)]
struct StaticsEntry {
    cells: StaticCells,
    decoded: StoredStatics,
}

#[derive(Debug, Default, PartialEq)]
struct StaticsTable {
    entries: Vec<Arc<StaticsEntry>>,
    ids: HashMap<StaticCells, u32>,
}

impl StaticsTable {
    fn new(entries: Vec<Arc<StaticsEntry>>) -> StaticsTable {
        let ids = entries
            .iter()
            .enumerate()
            .map(|(id, e)| (e.cells.clone(), id as u32))
            .collect();
        StaticsTable { entries, ids }
    }
}

/// The cells of a scanned `Static/` row (a row's columns come sorted).
fn static_cells_of(row: &RowResult) -> StaticCells {
    row.columns(FAMILY)
        .into_iter()
        .map(|(c, v)| (c.clone(), v.clone()))
        .collect()
}

/// The cells a `Static/` row holds after a batch wrote `written` over
/// `held`: every written column replaces its old value (the last write of
/// a column wins), every other column stays.
fn overlay_cells(held: &[(Bytes, Bytes)], written: Vec<(Bytes, Bytes)>) -> StaticCells {
    let mut cells: BTreeMap<Bytes, Bytes> = held.iter().cloned().collect();
    cells.extend(written);
    cells.into_iter().collect()
}

/// One job's row of the index, decoded: what a scan of its `Dynamic/`,
/// `CostFactor/` and `Static/` rows yields, and what an acknowledged write
/// leaves behind as a delta.
#[derive(Debug)]
struct IndexRow {
    map_dyn: Vec<f64>,
    red_dyn: Option<Vec<f64>>,
    input_bytes: f64,
    cost: Vec<f64>,
    /// The job's `Static/` cells, if it has the row.
    statics: Option<StaticCells>,
}

/// Appends rows in key order — decoded ones, or runs of an existing
/// index's rows — renumbering static features by first appearance.
struct IndexBuilder<'a> {
    out: ColumnarIndex,
    /// The table of the index rows are copied from.
    base: Option<&'a Arc<StaticsTable>>,
    /// `base` id → id in `entries`, [`NO_STATICS`] until first carried.
    remap: Vec<u32>,
    entries: Vec<Arc<StaticsEntry>>,
    /// Ids of the entries that `base` does not hold.
    fresh: HashMap<StaticCells, u32>,
}

impl<'a> IndexBuilder<'a> {
    fn new(rows: usize, base: Option<&'a Arc<StaticsTable>>) -> Self {
        IndexBuilder {
            out: ColumnarIndex {
                job_ids: Vec::with_capacity(rows),
                map_dyn: Vec::with_capacity(rows * MAP_DYNAMIC_COLUMNS.len()),
                red_dyn: Vec::with_capacity(rows * RED_DYNAMIC_COLUMNS.len()),
                has_reduce: Vec::with_capacity(rows),
                cost: Vec::with_capacity(rows * CostFactors::names().len()),
                input_bytes: Vec::with_capacity(rows),
                statics_id: Vec::with_capacity(rows),
                ..ColumnarIndex::default()
            },
            base,
            remap: vec![NO_STATICS; base.map_or(0, |b| b.entries.len())],
            entries: Vec::new(),
            fresh: HashMap::new(),
        }
    }

    /// The new id of `base`'s entry `old`.
    fn carry(&mut self, old: u32) -> u32 {
        let slot = &mut self.remap[old as usize];
        if *slot == NO_STATICS {
            let base = self.base.expect("an id to carry comes from a base table");
            *slot = self.entries.len() as u32;
            self.entries.push(Arc::clone(&base.entries[old as usize]));
        }
        *slot
    }

    /// The id of `cells`, decoding them if no row so far carried them:
    /// one decode per distinct set of cells, however many jobs share it.
    fn intern(&mut self, cells: &StaticCells) -> Result<u32, ProfileStoreError> {
        if let Some(&old) = self.base.and_then(|b| b.ids.get(cells)) {
            return Ok(self.carry(old));
        }
        if let Some(&id) = self.fresh.get(cells) {
            return Ok(id);
        }
        let id = self.entries.len() as u32;
        self.entries.push(Arc::new(StaticsEntry {
            cells: Arc::clone(cells),
            decoded: decode_statics(cells)?,
        }));
        self.fresh.insert(Arc::clone(cells), id);
        Ok(id)
    }

    fn push(&mut self, job_id: Arc<str>, row: &IndexRow) -> Result<(), ProfileStoreError> {
        let id = match &row.statics {
            Some(cells) => self.intern(cells)?,
            None => NO_STATICS,
        };
        let out = &mut self.out;
        out.job_ids.push(job_id);
        out.map_dyn.extend_from_slice(&row.map_dyn);
        match &row.red_dyn {
            Some(red) => out.red_dyn.extend_from_slice(red),
            None => out
                .red_dyn
                .extend(std::iter::repeat_n(0.0, RED_DYNAMIC_COLUMNS.len())),
        }
        out.has_reduce.push(row.red_dyn.is_some());
        out.cost.extend_from_slice(&row.cost);
        out.input_bytes.push(row.input_bytes);
        out.statics_id.push(id);
        Ok(())
    }

    /// Append `rows` of `from` (whose table is `base`) as they are.
    fn copy_rows(&mut self, from: &ColumnarIndex, rows: Range<usize>) {
        let span = |dims: usize| rows.start * dims..rows.end * dims;
        for &old in &from.statics_id[rows.clone()] {
            let id = if old == NO_STATICS {
                old
            } else {
                self.carry(old)
            };
            self.out.statics_id.push(id);
        }
        let out = &mut self.out;
        out.job_ids.extend_from_slice(&from.job_ids[rows.clone()]);
        out.map_dyn
            .extend_from_slice(&from.map_dyn[span(MAP_DYNAMIC_COLUMNS.len())]);
        out.red_dyn
            .extend_from_slice(&from.red_dyn[span(RED_DYNAMIC_COLUMNS.len())]);
        out.has_reduce
            .extend_from_slice(&from.has_reduce[rows.clone()]);
        out.cost
            .extend_from_slice(&from.cost[span(CostFactors::names().len())]);
        out.input_bytes.extend_from_slice(&from.input_bytes[rows]);
    }

    fn finish(self) -> ColumnarIndex {
        let mut out = self.out;
        let n = out.job_ids.len();
        out.map_lanes = LaneMatrix::from_row_major(&out.map_dyn, MAP_DYNAMIC_COLUMNS.len(), n);
        out.red_lanes = LaneMatrix::from_row_major(&out.red_dyn, RED_DYNAMIC_COLUMNS.len(), n);
        // The usual merge changes rows, not the set or order of distinct
        // statics: keep the table, and its hash map, as they are.
        let unchanged =
            self.fresh.is_empty() && self.remap.iter().enumerate().all(|(i, &id)| id == i as u32);
        out.statics = match self.base {
            Some(base) if unchanged => Arc::clone(base),
            _ => Arc::new(StaticsTable::new(self.entries)),
        };
        out
    }
}

impl Default for ColumnarIndex {
    /// The index of an empty namespace.
    fn default() -> Self {
        ColumnarIndex {
            job_ids: Vec::new(),
            map_dyn: Vec::new(),
            red_dyn: Vec::new(),
            map_lanes: LaneMatrix::empty(MAP_DYNAMIC_COLUMNS.len()),
            red_lanes: LaneMatrix::empty(RED_DYNAMIC_COLUMNS.len()),
            has_reduce: Vec::new(),
            cost: Vec::new(),
            input_bytes: Vec::new(),
            statics_id: Vec::new(),
            statics: Arc::default(),
        }
    }
}

impl ColumnarIndex {
    /// This index with `pending` applied — one pass over both in key
    /// order, copying the runs of rows between deltas; reads no store row.
    /// Fails if a delta carries `Static/` cells that do not decode.
    fn merged(
        &self,
        pending: &BTreeMap<Arc<str>, Option<IndexRow>>,
    ) -> Result<ColumnarIndex, ProfileStoreError> {
        let mut builder = IndexBuilder::new(self.len() + pending.len(), Some(&self.statics));
        let mut next = 0;
        for (job_id, delta) in pending {
            let at = next + self.job_ids[next..].partition_point(|j| j < job_id);
            builder.copy_rows(self, next..at);
            // The job's old row, if it had one, is replaced or dropped.
            next = at + usize::from(self.job_ids.get(at) == Some(job_id));
            if let Some(row) = delta {
                builder.push(Arc::clone(job_id), row)?;
            }
        }
        builder.copy_rows(self, next..self.len());
        Ok(builder.finish())
    }

    /// The row of `job_id`, if it is indexed.
    fn find(&self, job_id: &str) -> Option<usize> {
        self.job_ids.binary_search_by(|j| (**j).cmp(job_id)).ok()
    }

    fn statics_entry(&self, row: usize) -> Option<&StaticsEntry> {
        self.statics
            .entries
            .get(self.statics_id[row] as usize)
            .map(Arc::as_ref)
    }

    pub fn len(&self) -> usize {
        self.job_ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.job_ids.is_empty()
    }

    pub fn job_id(&self, row: usize) -> &str {
        &self.job_ids[row]
    }

    pub fn map_dyn(&self, row: usize) -> &[f64] {
        let d = MAP_DYNAMIC_COLUMNS.len();
        &self.map_dyn[row * d..(row + 1) * d]
    }

    /// `None` for map-only jobs (which cannot serve a reduce side).
    pub fn red_dyn(&self, row: usize) -> Option<&[f64]> {
        if !self.has_reduce[row] {
            return None;
        }
        let d = RED_DYNAMIC_COLUMNS.len();
        Some(&self.red_dyn[row * d..(row + 1) * d])
    }

    pub fn cost_factors(&self, row: usize) -> &[f64] {
        let d = CostFactors::names().len();
        &self.cost[row * d..(row + 1) * d]
    }

    pub fn input_bytes(&self, row: usize) -> f64 {
        self.input_bytes[row]
    }

    pub fn statics(&self, row: usize) -> Option<&StoredStatics> {
        self.statics_entry(row).map(|e| &e.decoded)
    }

    /// Which of the [`Self::distinct_statics`] static-feature sets the
    /// row carries (`None`: the job has no `Static/` row). Rows with equal
    /// ids have equal [`Self::statics`], so whatever is computed from a
    /// row's statics alone needs computing once per id.
    pub fn statics_id(&self, row: usize) -> Option<usize> {
        let id = self.statics_id[row];
        (id != NO_STATICS).then_some(id as usize)
    }

    /// How many distinct static-feature sets the rows carry; every
    /// [`Self::statics_id`] is below it.
    pub fn distinct_statics(&self) -> usize {
        self.statics.entries.len()
    }

    /// Stage-1 sweep over the map-side dynamic features: rows whose
    /// normalized Euclidean distance to `q` is within `theta`, in store
    /// order. The vectorized `LaneMatrix::sweep` performs the exact
    /// floating-point operations of [`MinMaxNormalizer::distance`] (the
    /// function the pushed-down scan filter calls) with the loop nest
    /// interchanged, so the survivor set is bit-identical to the scan
    /// path's and to [`Self::sweep_map_dyn_scalar`].
    pub fn sweep_map_dyn(&self, bounds: &MinMaxNormalizer, q: &[f64], theta: f64) -> Vec<usize> {
        self.map_lanes.sweep(&bounds.prepare(q), theta, None)
    }

    /// Stage-1 sweep over the reduce-side dynamic features; map-only rows
    /// never survive.
    pub fn sweep_red_dyn(&self, bounds: &MinMaxNormalizer, q: &[f64], theta: f64) -> Vec<usize> {
        self.red_lanes
            .sweep(&bounds.prepare(q), theta, Some(&self.has_reduce))
    }

    /// The pre-vectorization map-side sweep: one scalar
    /// [`MinMaxNormalizer::distance`] call per row-major row. Kept as the
    /// reference implementation the property suite and `perf_report`
    /// compare the lane-blocked sweep against.
    pub fn sweep_map_dyn_scalar(
        &self,
        bounds: &MinMaxNormalizer,
        q: &[f64],
        theta: f64,
    ) -> Vec<usize> {
        self.map_dyn
            .chunks_exact(MAP_DYNAMIC_COLUMNS.len())
            .enumerate()
            .filter(|(_, row)| bounds.distance(q, row) <= theta)
            .map(|(i, _)| i)
            .collect()
    }

    /// Scalar reference for [`Self::sweep_red_dyn`].
    pub fn sweep_red_dyn_scalar(
        &self,
        bounds: &MinMaxNormalizer,
        q: &[f64],
        theta: f64,
    ) -> Vec<usize> {
        self.red_dyn
            .chunks_exact(RED_DYNAMIC_COLUMNS.len())
            .enumerate()
            .filter(|(i, row)| self.has_reduce[*i] && bounds.distance(q, row) <= theta)
            .map(|(i, _)| i)
            .collect()
    }
}

fn job_id_of(row_key: &[u8], skip: usize) -> Result<String, ProfileStoreError> {
    std::str::from_utf8(&row_key[skip..])
        .map(str::to_string)
        .map_err(|_| ProfileStoreError::Corrupt("non-UTF8 job id".to_string()))
}

/// Decode a `Static/` row from its cells (sorted by column).
fn decode_statics(cells: &[(Bytes, Bytes)]) -> Result<StoredStatics, ProfileStoreError> {
    let value = |column: &str| {
        cells
            .binary_search_by(|(c, _)| c.as_ref().cmp(column.as_bytes()))
            .ok()
            .map(|i| &cells[i].1)
    };
    let read_side =
        |names: &[&'static str], cfg_col: &str| -> Result<SideFeatures, ProfileStoreError> {
            let mut categorical = Vec::with_capacity(names.len());
            for name in names {
                let v = value(name)
                    .map(|b| String::from_utf8_lossy(b).to_string())
                    .unwrap_or_else(|| "NULL".to_string());
                categorical.push((*name, v));
            }
            let cfg: Option<Cfg> = match value(cfg_col) {
                Some(bytes) => Some(decode_cfg(bytes)?),
                None => None,
            };
            Ok(SideFeatures { categorical, cfg })
        };
    Ok(StoredStatics {
        map: read_side(
            &[
                "IN_FORMATTER",
                "MAPPER",
                "MAP_IN_KEY",
                "MAP_IN_VAL",
                "MAP_OUT_KEY",
                "MAP_OUT_VAL",
                "COMBINER",
                "PARTITIONER",
            ],
            MAP_CFG_COLUMN,
        )?,
        reduce: read_side(
            &[
                "REDUCER",
                "RED_OUT_KEY",
                "RED_OUT_VAL",
                "OUT_FORMATTER",
                "RED_IN_KEY",
                "RED_IN_VAL",
            ],
            RED_CFG_COLUMN,
        )?,
    })
}

fn decode_cost_factors(row: &RowResult, job_id: &str) -> Result<Vec<f64>, ProfileStoreError> {
    let mut v = Vec::with_capacity(CostFactors::names().len());
    for name in CostFactors::names() {
        let bytes = row.value(FAMILY, name.as_bytes()).ok_or_else(|| {
            ProfileStoreError::Corrupt(format!("CostFactor/{job_id} missing {name}"))
        })?;
        v.push(decode_f64(bytes)?);
    }
    Ok(v)
}

/// A decoded `Dynamic/` row as seen by pushdown predicates.
#[derive(Debug, Clone)]
pub struct DynamicRow {
    pub job_id: String,
    pub map_dyn: Vec<f64>,
    pub red_dyn: Option<Vec<f64>>,
    pub input_bytes: f64,
}

impl DynamicRow {
    /// `skip` is the namespace + `Dynamic/` prefix length of the view
    /// that scanned the row ([`ProfileStore::skip`]).
    fn parse(row: &RowResult, skip: usize) -> Option<DynamicRow> {
        let job_id = std::str::from_utf8(row.row.get(skip..)?).ok()?;
        let mut map_dyn = Vec::with_capacity(MAP_DYNAMIC_COLUMNS.len());
        for c in MAP_DYNAMIC_COLUMNS {
            map_dyn.push(decode_f64(row.value(FAMILY, c.as_bytes())?).ok()?);
        }
        let has_reduce = decode_f64(row.value(FAMILY, HAS_REDUCE_COLUMN.as_bytes())?).ok()? > 0.5;
        let red_dyn = if has_reduce {
            let mut v = Vec::with_capacity(RED_DYNAMIC_COLUMNS.len());
            for c in RED_DYNAMIC_COLUMNS {
                v.push(decode_f64(row.value(FAMILY, c.as_bytes())?).ok()?);
            }
            Some(v)
        } else {
            None
        };
        let input_bytes = decode_f64(row.value(FAMILY, INPUT_BYTES_COLUMN.as_bytes())?).ok()?;
        Some(DynamicRow {
            job_id: job_id.to_string(),
            map_dyn,
            red_dyn,
            input_bytes,
        })
    }
}

/// The store-maintained normalization bounds for the three numeric feature
/// spaces.
#[derive(Debug, Clone)]
pub struct NormalizationBounds {
    pub map_dyn: MinMaxNormalizer,
    pub red_dyn: MinMaxNormalizer,
    pub cost: MinMaxNormalizer,
}

fn identity_bounds(dim: usize) -> MinMaxNormalizer {
    MinMaxNormalizer {
        mins: vec![f64::INFINITY; dim],
        maxs: vec![f64::NEG_INFINITY; dim],
    }
}

fn encode_bounds(n: &MinMaxNormalizer) -> Bytes {
    let mut all = n.mins.clone();
    all.extend(&n.maxs);
    encode_f64_vec(&all)
}

fn decode_bounds(bytes: &[u8]) -> Result<MinMaxNormalizer, ProfileStoreError> {
    let all = decode_f64_vec(bytes)?;
    let dim = all.len() / 2;
    Ok(MinMaxNormalizer {
        mins: all[..dim].to_vec(),
        maxs: all[dim..].to_vec(),
    })
}

fn f64_put(row: Bytes, column: &str, v: f64) -> Put {
    Put::new(
        row,
        FAMILY,
        Bytes::copy_from_slice(column.as_bytes()),
        encode_f64(v),
    )
}

impl Default for ProfileStore {
    fn default() -> Self {
        Self::new().expect("fresh store")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
    use mrjobs::jobs;
    use mrsim::{ClusterSpec, JobConfig};
    use profiler::collect_full_profile;

    fn profile_of(spec: &mrjobs::JobSpec, ds: &mrjobs::Dataset) -> (StaticFeatures, JobProfile) {
        let (profile, _) = collect_full_profile(
            spec,
            ds,
            &ClusterSpec::ec2_c1_medium_16(),
            &JobConfig::submitted(spec),
            7,
        )
        .unwrap();
        (StaticFeatures::extract(spec), profile)
    }

    #[test]
    fn put_and_get_roundtrip() {
        let store = ProfileStore::new().unwrap();
        let (statics, profile) = profile_of(&jobs::word_count(), &corpus::random_text_1g());
        store.put_profile(&statics, &profile).unwrap();
        let got = store.get_profile(&profile.job_id).unwrap().unwrap();
        assert_eq!(got, profile);
        assert_eq!(store.job_ids().unwrap(), vec![profile.job_id.clone()]);
        assert_eq!(store.len().unwrap(), 1);
    }

    #[test]
    fn corrupted_profile_blob_surfaces_as_typed_error() {
        let store = ProfileStore::new().unwrap();
        let (statics, profile) = profile_of(&jobs::word_count(), &corpus::random_text_1g());
        store.put_profile(&statics, &profile).unwrap();

        let row = format!("Profile/{}", profile.job_id);
        assert!(store.corrupt_cell(row.as_bytes(), b"blob").unwrap());
        match store.get_profile(&profile.job_id) {
            Err(ProfileStoreError::Store(StoreError::Corruption { row, column })) => {
                assert!(row.starts_with("Profile/"));
                assert_eq!(column, "blob");
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
        // The error chain stays walkable down to the store layer.
        let err = store.get_profile(&profile.job_id).unwrap_err();
        let src = std::error::Error::source(&err).expect("source preserved");
        assert!(src.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn statics_roundtrip_preserves_cfg_matching() {
        let store = ProfileStore::new().unwrap();
        let spec = jobs::word_cooccurrence_pairs(2);
        let (statics, profile) = profile_of(&spec, &corpus::random_text_1g());
        store.put_profile(&statics, &profile).unwrap();
        let stored = store.get_statics(&profile.job_id).unwrap().unwrap();
        assert_eq!(stored.map.jaccard(&statics.map), 1.0);
        assert_eq!(stored.map.cfg_match(&statics.map), 1.0);
        assert_eq!(stored.reduce.jaccard(&statics.reduce), 1.0);
    }

    #[test]
    fn dynamic_filter_pushdown_prunes_rows() {
        let store = ProfileStore::new().unwrap();
        let text = corpus::random_text_1g();
        for spec in [jobs::word_count(), jobs::word_cooccurrence_pairs(2)] {
            let (s, p) = profile_of(&spec, &text);
            store.put_profile(&s, &p).unwrap();
        }
        // Keep only profiles with large map size selectivity.
        let (rows, metrics) = store.filter_dynamic(|d| d.map_dyn[0] > 3.0).unwrap();
        assert_eq!(metrics.rows_scanned, 2);
        assert!(!rows.is_empty());
        assert!(
            rows.iter().all(|d| d.job_id.contains("cooccurrence")),
            "{rows:?}"
        );
    }

    #[test]
    fn normalization_bounds_grow_with_inserts() {
        let store = ProfileStore::new().unwrap();
        let text = corpus::random_text_1g();
        let (s1, p1) = profile_of(&jobs::word_count(), &text);
        store.put_profile(&s1, &p1).unwrap();
        let b1 = store.normalization_bounds().unwrap();
        let (s2, p2) = profile_of(&jobs::word_cooccurrence_pairs(2), &text);
        store.put_profile(&s2, &p2).unwrap();
        let b2 = store.normalization_bounds().unwrap();
        assert!(b2.map_dyn.maxs[0] >= b1.map_dyn.maxs[0]);
        assert!(b2.map_dyn.maxs[0] > b1.map_dyn.mins[0]);
    }

    #[test]
    fn delete_job_removes_all_rows() {
        let store = ProfileStore::new().unwrap();
        let (s, p) = profile_of(&jobs::word_count(), &corpus::random_text_1g());
        store.put_profile(&s, &p).unwrap();
        assert!(store.delete_job(&p.job_id).unwrap());
        assert!(store.get_profile(&p.job_id).unwrap().is_none());
        assert!(store.get_statics(&p.job_id).unwrap().is_none());
        assert!(store.is_empty().unwrap());
    }

    #[test]
    fn cost_factors_roundtrip() {
        let store = ProfileStore::new().unwrap();
        let (s, p) = profile_of(&jobs::word_count(), &corpus::random_text_1g());
        store.put_profile(&s, &p).unwrap();
        let cf = store.get_cost_factors(&p.job_id).unwrap().unwrap();
        assert_eq!(cf, p.map.cost_factors.as_vec());
    }

    #[test]
    fn columnar_index_mirrors_point_lookups() {
        let store = ProfileStore::new().unwrap();
        let text = corpus::random_text_1g();
        for spec in [jobs::word_count(), jobs::word_cooccurrence_pairs(2)] {
            let (s, p) = profile_of(&spec, &text);
            store.put_profile(&s, &p).unwrap();
        }
        let index = store.columnar_index().unwrap();
        assert_eq!(index.len(), 2);
        let mut ids: Vec<&str> = (0..index.len()).map(|i| index.job_id(i)).collect();
        let mut expected = store.job_ids().unwrap();
        expected.sort();
        assert!(ids.windows(2).all(|w| w[0] <= w[1]), "index in key order");
        ids.sort();
        assert_eq!(ids, expected.iter().map(String::as_str).collect::<Vec<_>>());
        for i in 0..index.len() {
            let id = index.job_id(i);
            assert_eq!(
                index.cost_factors(i),
                store.get_cost_factors(id).unwrap().unwrap()
            );
            let statics = index.statics(i).unwrap();
            let from_store = store.get_statics(id).unwrap().unwrap();
            assert_eq!(statics.map.jaccard(&from_store.map), 1.0);
            let profile = store.get_profile(id).unwrap().unwrap();
            assert_eq!(index.map_dyn(i), profile.map.dynamic_features());
            assert_eq!(index.input_bytes(i), profile.input_bytes);
            match &profile.reduce {
                Some(r) => assert_eq!(index.red_dyn(i).unwrap(), r.dynamic_features()),
                None => assert!(index.red_dyn(i).is_none()),
            }
        }
    }

    #[test]
    fn columnar_index_interns_statics_per_distinct_program() {
        let store = ProfileStore::new().unwrap();
        let text = corpus::random_text_1g();
        let (wc_statics, wc) = profile_of(&jobs::word_count(), &text);
        let (co_statics, co) = profile_of(&jobs::word_cooccurrence_pairs(2), &text);
        let stored = |statics: &StaticFeatures, profile: &JobProfile, id: &str| {
            let mut p = profile.clone();
            p.job_id = id.to_string();
            store.put_profile(statics, &p).unwrap();
        };
        stored(&wc_statics, &wc, "a-wc");
        store.columnar_index().unwrap(); // built by scan; the rest are deltas
        stored(&co_statics, &co, "b-co");
        stored(&wc_statics, &wc, "c-wc");
        let index = store.columnar_index().unwrap();
        assert_eq!(index.len(), 3);
        assert_eq!(index.distinct_statics(), 2);
        assert_eq!(index.statics_id(0), Some(0));
        assert_eq!(index.statics_id(1), Some(1));
        assert_eq!(index.statics_id(2), Some(0));
        assert_eq!(index.statics(2), index.statics(0));
        assert_eq!(*index, store.build_columnar_index().unwrap());

        // Ids follow first appearance in row order, also when a delete
        // changes which row that is.
        store.delete_job("a-wc").unwrap();
        let index = store.columnar_index().unwrap();
        assert_eq!(index.statics_id(0), Some(0));
        assert_eq!(index.statics(0).unwrap().map.jaccard(&co_statics.map), 1.0);
        assert_eq!(index.statics_id(1), Some(1));
        assert_eq!(*index, store.build_columnar_index().unwrap());
    }

    #[test]
    fn undecodable_statics_fail_the_index_like_a_scan_until_deleted() {
        let store = ProfileStore::new().unwrap();
        let (statics, good) = profile_of(&jobs::word_count(), &corpus::random_text_1g());
        store.put_profile(&statics, &good).unwrap();
        store.columnar_index().unwrap();

        // A CFG whose exit is no node encodes, is acknowledged, and does
        // not decode: the delta cannot be folded, and neither could a scan
        // build the row.
        let mut bad_statics = statics.clone();
        bad_statics.map.cfg.as_mut().unwrap().exit = usize::MAX >> 40;
        let mut bad = good.clone();
        bad.job_id = "bad-cfg".to_string();
        store.put_profile(&bad_statics, &bad).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                store.columnar_index(),
                Err(ProfileStoreError::Codec(_))
            ));
        }
        assert!(store.delete_job("bad-cfg").unwrap());
        assert_eq!(store.len().unwrap(), 1);
    }

    #[test]
    fn columnar_index_invalidates_on_writes() {
        let store = ProfileStore::new().unwrap();
        let text = corpus::random_text_1g();
        let (s1, p1) = profile_of(&jobs::word_count(), &text);
        store.put_profile(&s1, &p1).unwrap();
        let before = store.columnar_index().unwrap();
        assert_eq!(before.len(), 1);
        // Same logical snapshot is shared until the next write.
        assert!(Arc::ptr_eq(&before, &store.columnar_index().unwrap()));

        let (s2, p2) = profile_of(&jobs::word_cooccurrence_pairs(2), &text);
        store.put_profile(&s2, &p2).unwrap();
        let after_put = store.columnar_index().unwrap();
        assert_eq!(after_put.len(), 2);
        // The old Arc is a stale but intact snapshot.
        assert_eq!(before.len(), 1);

        store.delete_job(&p1.job_id).unwrap();
        let after_delete = store.columnar_index().unwrap();
        assert_eq!(after_delete.len(), 1);
        assert_eq!(after_delete.job_id(0), p2.job_id);
    }

    #[test]
    fn cached_normalization_bounds_match_stored_row() {
        let store = ProfileStore::new().unwrap();
        let text = corpus::random_text_1g();
        let (s1, p1) = profile_of(&jobs::word_count(), &text);
        store.put_profile(&s1, &p1).unwrap();
        let cached = store.normalization_bounds().unwrap();
        let decoded = store.read_normalization_bounds().unwrap();
        assert_eq!(cached.map_dyn.mins, decoded.map_dyn.mins);
        assert_eq!(cached.map_dyn.maxs, decoded.map_dyn.maxs);
        assert_eq!(cached.cost.mins, decoded.cost.mins);
        // Cache follows subsequent inserts.
        let (s2, p2) = profile_of(&jobs::word_cooccurrence_pairs(2), &text);
        store.put_profile(&s2, &p2).unwrap();
        let cached2 = store.normalization_bounds().unwrap();
        let decoded2 = store.read_normalization_bounds().unwrap();
        assert_eq!(cached2.map_dyn.maxs, decoded2.map_dyn.maxs);
        assert!(cached2.map_dyn.maxs[0] >= cached.map_dyn.maxs[0]);
    }

    #[test]
    fn batched_scans_match_point_gets() {
        let store = ProfileStore::new().unwrap();
        let text = corpus::random_text_1g();
        for spec in [
            jobs::word_count(),
            jobs::word_cooccurrence_pairs(2),
            jobs::sort(),
        ] {
            let ds = if spec.name == "sort" {
                corpus::teragen_1g()
            } else {
                text.clone()
            };
            let (s, p) = profile_of(&spec, &ds);
            store.put_profile(&s, &p).unwrap();
        }
        let all_costs = store.all_cost_factors().unwrap();
        assert_eq!(all_costs.len(), 3);
        for id in store.job_ids().unwrap() {
            assert_eq!(
                all_costs[&id],
                store.get_cost_factors(&id).unwrap().unwrap()
            );
        }
    }

    #[test]
    fn durable_profile_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "pstorm-store-reopen-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let text = corpus::random_text_1g();
        let (s1, p1) = profile_of(&jobs::word_count(), &text);
        let (s2, p2) = profile_of(&jobs::word_cooccurrence_pairs(2), &text);
        let (bounds_before, index_len) = {
            let (store, report) = ProfileStore::reopen(&dir).unwrap();
            assert!(store.is_durable());
            assert_eq!(report.frames_replayed, 0);
            store.put_profile(&s1, &p1).unwrap();
            store.flush().unwrap();
            store.put_profile(&s2, &p2).unwrap(); // lives only in the WAL
            (
                store.normalization_bounds().unwrap(),
                store.columnar_index().unwrap().len(),
            )
        };
        let (store, report) = ProfileStore::reopen(&dir).unwrap();
        assert_eq!(report.segments_loaded, 1);
        assert!(
            report.frames_replayed >= 1,
            "second profile replays from WAL"
        );
        assert!(report.truncation.is_none());
        assert_eq!(store.get_profile(&p1.job_id).unwrap().unwrap(), p1);
        assert_eq!(store.get_profile(&p2.job_id).unwrap().unwrap(), p2);
        let index = store.columnar_index().unwrap();
        assert_eq!(index.len(), index_len);
        let bounds_after = store.normalization_bounds().unwrap();
        assert_eq!(bounds_after.map_dyn.mins, bounds_before.map_dyn.mins);
        assert_eq!(bounds_after.map_dyn.maxs, bounds_before.map_dyn.maxs);
        assert_eq!(bounds_after.cost.maxs, bounds_before.cost.maxs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenant_views_are_disjoint_namespaces() {
        let base = ProfileStore::new().unwrap();
        let acme = base.tenant_view("acme").unwrap();
        let zen = base.tenant_view("zen").unwrap();
        assert_eq!(acme.tenant(), "acme");
        let text = corpus::random_text_1g();
        let (s1, p1) = profile_of(&jobs::word_count(), &text);
        let (s2, p2) = profile_of(&jobs::word_cooccurrence_pairs(2), &text);

        acme.put_profile(&s1, &p1).unwrap();
        zen.put_profile(&s2, &p2).unwrap();
        base.put_profile(&s1, &p1).unwrap();

        // Each view sees exactly its own rows.
        assert_eq!(acme.job_ids().unwrap(), vec![p1.job_id.clone()]);
        assert_eq!(zen.job_ids().unwrap(), vec![p2.job_id.clone()]);
        assert_eq!(base.job_ids().unwrap(), vec![p1.job_id.clone()]);
        assert!(acme.get_profile(&p2.job_id).unwrap().is_none());
        assert!(zen.get_profile(&p1.job_id).unwrap().is_none());
        assert_eq!(acme.get_profile(&p1.job_id).unwrap().unwrap(), p1);

        // Columnar index and normalization bounds are per tenant: zen's
        // bounds never observed p1's features.
        assert_eq!(acme.columnar_index().unwrap().len(), 1);
        assert_eq!(zen.columnar_index().unwrap().len(), 1);
        let zb = zen.normalization_bounds().unwrap();
        let ab = acme.normalization_bounds().unwrap();
        assert_eq!(zb.map_dyn.maxs, {
            let mut b = identity_bounds(MAP_DYNAMIC_COLUMNS.len());
            b.observe(&p2.map.dynamic_features());
            b.maxs
        });
        assert_eq!(ab.map_dyn.maxs, {
            let mut b = identity_bounds(MAP_DYNAMIC_COLUMNS.len());
            b.observe(&p1.map.dynamic_features());
            b.maxs
        });

        // A tenant's corruption stays inside its namespace.
        let row = format!("Profile/{}", p1.job_id);
        assert!(acme.corrupt_cell(row.as_bytes(), b"blob").unwrap());
        assert!(acme.get_profile(&p1.job_id).is_err());
        assert_eq!(base.get_profile(&p1.job_id).unwrap().unwrap(), p1);

        // Default-tenant view = the legacy layout of the same store.
        let default_view = base.tenant_view(cfstore::encoding::DEFAULT_TENANT).unwrap();
        assert_eq!(default_view.get_profile(&p1.job_id).unwrap().unwrap(), p1);

        assert!(matches!(
            base.tenant_view("no/slash"),
            Err(ProfileStoreError::Codec(_))
        ));
    }

    #[test]
    fn missing_job_returns_none() {
        let store = ProfileStore::new().unwrap();
        assert!(store.get_profile("nope").unwrap().is_none());
        assert!(store.get_statics("nope").unwrap().is_none());
        assert!(store.get_cost_factors("nope").unwrap().is_none());
        assert!(!store.delete_job("nope").unwrap());
    }
}
