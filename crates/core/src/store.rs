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

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use cfstore::encoding::{decode_f64, decode_f64_vec, encode_f64, encode_f64_vec};
use cfstore::{
    MiniStore, Put, RecoveryError, RecoveryReport, Reshard, ReshardStatus, RowResult, Scan,
    ScanMetrics, ShardOptions, ShardedRecoveryReport, ShardedStore, StoreError, StoreOptions,
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
#[derive(Debug, Clone)]
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

/// The PStorM profile store.
pub struct ProfileStore {
    /// Shared with every [`Self::tenant_view`] of the same backing store.
    store: Arc<Backend>,
    /// Row-key namespace prefix: `""` for the default tenant (legacy
    /// layout), `t/<tenant>/` otherwise. Every key this store builds and
    /// every prefix it scans goes through [`Self::key`] / [`Self::pfx`],
    /// which prepend it.
    ns: String,
    /// The tenant this view is scoped to
    /// ([`cfstore::encoding::DEFAULT_TENANT`] unless created by
    /// [`Self::tenant_view`]).
    tenant: String,
    /// Columnar in-memory projection of the numeric feature rows, rebuilt
    /// lazily after writes. Per-view: each tenant view caches only its
    /// own namespace. See [`ColumnarIndex`].
    index: RwLock<Option<Arc<ColumnarIndex>>>,
    /// Decoded `Meta/normalization` row, invalidated on every insert.
    bounds_cache: RwLock<Option<NormalizationBounds>>,
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
        Ok(ProfileStore {
            store: Arc::new(store),
            ns: String::new(),
            tenant: cfstore::encoding::DEFAULT_TENANT.to_string(),
            index: RwLock::new(None),
            bounds_cache: RwLock::new(None),
            obs: obs::Registry::disabled(),
        })
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
        let ps = ProfileStore {
            store: Arc::new(store),
            ns: String::new(),
            tenant: cfstore::encoding::DEFAULT_TENANT.to_string(),
            index: RwLock::new(None),
            bounds_cache: RwLock::new(None),
            obs: obs::Registry::disabled(),
        };
        // The first matcher query must not pay the rebuild; surface any
        // half-recovered row inconsistency now rather than mid-match.
        ps.columnar_index()?;
        Ok(ps)
    }

    /// A view of the same backing store scoped to `tenant`: every row key
    /// it builds is namespaced under the tenant's prefix, so the matcher,
    /// columnar index, and normalization bounds running on the view see
    /// **only** that tenant's rows (DESIGN.md §14). Views share the
    /// backend (and its WAL/segments/shards) but carry their own index
    /// and bounds caches; create one view per tenant and route all of
    /// that tenant's traffic through it. Viewing
    /// [`cfstore::encoding::DEFAULT_TENANT`] yields the legacy key layout
    /// unchanged.
    pub fn tenant_view(&self, tenant: &str) -> Result<ProfileStore, ProfileStoreError> {
        let ns = cfstore::encoding::tenant_prefix(tenant)?;
        Ok(ProfileStore {
            store: Arc::clone(&self.store),
            ns,
            tenant: tenant.to_string(),
            index: RwLock::new(None),
            bounds_cache: RwLock::new(None),
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
        Ok(self.store.flush()?)
    }

    /// Whether this store is backed by a directory.
    pub fn is_durable(&self) -> bool {
        self.store.is_durable()
    }

    /// Whether an injected crash point has poisoned the underlying store
    /// (every further durable operation fails fast until [`Self::reopen`]).
    pub fn is_crashed(&self) -> bool {
        self.store.is_crashed()
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
        if let Some(store) = Arc::get_mut(&mut self.store) {
            store.set_obs(reg.clone());
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
        Ok(self.store.corrupt_cell(TABLE, &full, FAMILY, column)?)
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
        let static_key = self.key("Static", job_id);
        for (name, value) in statics
            .map
            .categorical
            .iter()
            .chain(&statics.reduce.categorical)
        {
            puts.push(Put::new(
                static_key.clone(),
                FAMILY,
                Bytes::copy_from_slice(name.as_bytes()),
                Bytes::copy_from_slice(value.as_bytes()),
            ));
        }
        if let Some(cfg) = &statics.map.cfg {
            puts.push(Put::new(
                static_key.clone(),
                FAMILY,
                "MAP_CFG",
                encode_cfg(cfg),
            ));
        }
        if let Some(cfg) = &statics.reduce.cfg {
            puts.push(Put::new(
                static_key.clone(),
                FAMILY,
                "RED_CFG",
                encode_cfg(cfg),
            ));
        }

        // Dynamic/<job>: dataflow statistics + input size + reduce flag.
        let dynamic_key = self.key("Dynamic", job_id);
        let map_dyn = profile.map.dynamic_features();
        for (name, v) in MAP_DYNAMIC_COLUMNS.iter().zip(&map_dyn) {
            puts.push(f64_put(dynamic_key.clone(), name, *v));
        }
        if let Some(red) = &profile.reduce {
            for (name, v) in RED_DYNAMIC_COLUMNS
                .iter()
                .zip(red.dynamic_features().iter())
            {
                puts.push(f64_put(dynamic_key.clone(), name, *v));
            }
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
        for (name, v) in CostFactors::names()
            .iter()
            .zip(profile.map.cost_factors.as_vec())
        {
            puts.push(f64_put(cost_key.clone(), name, v));
        }

        // Profile/<job>: the full blob.
        puts.push(Put::new(
            self.key("Profile", job_id),
            FAMILY,
            "blob",
            encode_profile(profile),
        ));

        // Meta/normalization: extend min/max bounds.
        let mut bounds = self.normalization_bounds()?;
        let red_dyn = profile
            .reduce
            .as_ref()
            .map(|r| r.dynamic_features())
            .unwrap_or_else(|| vec![1.0, 1.0]);
        let cost = profile.map.cost_factors.as_vec();
        bounds.map_dyn.observe(&map_dyn);
        bounds.red_dyn.observe(&red_dyn);
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

        self.store.put_batch(TABLE, puts)?;

        // Caches update only after the batch is acknowledged, so a torn
        // (never-acked) write leaves both consistent with the table.
        *self.bounds_cache.write() = Some(bounds);
        *self.index.write() = None;
        Ok(())
    }

    /// The current min/max normalization bounds (identity bounds when the
    /// store is empty). Served from an in-memory cache kept in sync with
    /// the `Meta/normalization` row; the matcher reads the bounds on every
    /// submission and must not pay a decode for it.
    pub fn normalization_bounds(&self) -> Result<NormalizationBounds, ProfileStoreError> {
        if let Some(bounds) = self.bounds_cache.read().as_ref() {
            return Ok(bounds.clone());
        }
        let bounds = self.read_normalization_bounds()?;
        *self.bounds_cache.write() = Some(bounds.clone());
        Ok(bounds)
    }

    fn read_normalization_bounds(&self) -> Result<NormalizationBounds, ProfileStoreError> {
        let row = self.store.get(TABLE, self.meta_key().as_ref())?;
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
            .store
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
    /// paper's store), so only the columnar index needs invalidation.
    pub fn delete_job(&self, job_id: &str) -> Result<bool, ProfileStoreError> {
        let mut any = false;
        for prefix in ["Static", "Dynamic", "CostFactor", "Profile"] {
            any |= self
                .store
                .delete_row(TABLE, self.key(prefix, job_id).as_ref())?;
        }
        if any {
            *self.index.write() = None;
        }
        Ok(any)
    }

    /// All stored job ids (scans the `Profile/` prefix).
    pub fn job_ids(&self) -> Result<Vec<String>, ProfileStoreError> {
        let (rows, _) = self
            .store
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

    /// Number of stored profiles.
    pub fn len(&self) -> Result<usize, ProfileStoreError> {
        Ok(self.job_ids()?.len())
    }

    /// Whether the store is empty.
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
        let (rows, metrics) = self.store.scan(TABLE, &scan)?;
        let parsed = rows
            .iter()
            .filter_map(|r| DynamicRow::parse(r, skip))
            .collect();
        Ok((parsed, metrics))
    }

    /// Fetch a job's stored static features.
    pub fn get_statics(&self, job_id: &str) -> Result<Option<StoredStatics>, ProfileStoreError> {
        let Some(row) = self.store.get(TABLE, self.key("Static", job_id).as_ref())? else {
            return Ok(None);
        };
        Ok(Some(decode_statics(&row)?))
    }

    /// Fetch the static features of *every* stored job with a single
    /// `Static/` prefix scan — the batched alternative to per-job
    /// [`Self::get_statics`] point-gets when a matching stage needs most
    /// of the table anyway.
    pub fn all_statics(&self) -> Result<HashMap<String, StoredStatics>, ProfileStoreError> {
        let (rows, _) = self.store.scan(TABLE, &Scan::prefix(&self.pfx("Static")))?;
        let skip = self.skip("Static");
        rows.iter()
            .map(|row| {
                let id = job_id_of(&row.row, skip)?;
                Ok((id, decode_statics(row)?))
            })
            .collect()
    }

    /// Fetch a job's cost-factor vector.
    pub fn get_cost_factors(&self, job_id: &str) -> Result<Option<Vec<f64>>, ProfileStoreError> {
        let Some(row) = self
            .store
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
            .store
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

    /// The columnar projection of the store's numeric feature rows,
    /// rebuilding it first if a write invalidated it. The returned `Arc`
    /// stays valid (a consistent snapshot) even if the store is written
    /// afterwards.
    pub fn columnar_index(&self) -> Result<Arc<ColumnarIndex>, ProfileStoreError> {
        if let Some(index) = self.index.read().as_ref() {
            self.obs.incr("store.index_hits", 1);
            return Ok(index.clone());
        }
        let index = Arc::new(self.build_columnar_index()?);
        *self.index.write() = Some(index.clone());
        self.obs.incr("store.index_rebuilds", 1);
        Ok(index)
    }

    fn build_columnar_index(&self) -> Result<ColumnarIndex, ProfileStoreError> {
        let (dyn_rows, _) = self
            .store
            .scan(TABLE, &Scan::prefix(&self.pfx("Dynamic")))?;
        let skip = self.skip("Dynamic");
        let mut statics = self.all_statics()?;
        let mut costs = self.all_cost_factors()?;

        let n = dyn_rows.len();
        let cost_dims = CostFactors::names().len();
        let mut index = ColumnarIndex {
            job_ids: Vec::with_capacity(n),
            map_dyn: Vec::with_capacity(n * MAP_DYNAMIC_COLUMNS.len()),
            red_dyn: Vec::with_capacity(n * RED_DYNAMIC_COLUMNS.len()),
            map_lanes: LaneMatrix::empty(MAP_DYNAMIC_COLUMNS.len()),
            red_lanes: LaneMatrix::empty(RED_DYNAMIC_COLUMNS.len()),
            has_reduce: Vec::with_capacity(n),
            cost: Vec::with_capacity(n * cost_dims),
            input_bytes: Vec::with_capacity(n),
            statics: Vec::with_capacity(n),
        };
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
            index.map_dyn.extend_from_slice(&parsed.map_dyn);
            match &parsed.red_dyn {
                Some(red) => {
                    index.red_dyn.extend_from_slice(red);
                    index.has_reduce.push(true);
                }
                None => {
                    index
                        .red_dyn
                        .extend(std::iter::repeat_n(0.0, RED_DYNAMIC_COLUMNS.len()));
                    index.has_reduce.push(false);
                }
            }
            index.cost.extend_from_slice(&cost);
            index.input_bytes.push(parsed.input_bytes);
            index.statics.push(statics.remove(&parsed.job_id));
            index.job_ids.push(parsed.job_id);
        }
        index.map_lanes = LaneMatrix::from_row_major(&index.map_dyn, MAP_DYNAMIC_COLUMNS.len(), n);
        index.red_lanes = LaneMatrix::from_row_major(&index.red_dyn, RED_DYNAMIC_COLUMNS.len(), n);
        Ok(index)
    }

    /// The underlying HBase (diagnostics and benches). Only available
    /// on single-store backends; sharded stores have no single inner
    /// [`MiniStore`] — use [`Self::sharded`] instead.
    pub fn inner(&self) -> &MiniStore {
        match &*self.store {
            Backend::Single(s) => s,
            Backend::Sharded(_) => {
                panic!("ProfileStore::inner() on a sharded backend; use sharded()")
            }
        }
    }

    /// The underlying sharded store, when this store was opened with
    /// [`Self::reopen_sharded`] (`None` for single-store backends).
    pub fn sharded(&self) -> Option<&ShardedStore> {
        match &*self.store {
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
    pub fn reshard(&self, plan: Reshard) -> Result<ReshardStatus, ProfileStoreError> {
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
        Ok(self.store.put(TABLE, put)?)
    }

    /// Backend-routed raw row get from the `Jobs` table
    /// (namespace-relative, like [`Self::raw_put`]).
    pub(crate) fn raw_get(&self, row: &[u8]) -> Result<Option<RowResult>, ProfileStoreError> {
        let full = [self.ns.as_bytes(), row].concat();
        Ok(self.store.get(TABLE, &full)?)
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
#[derive(Debug, Clone)]
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
/// instead of per-job point-gets. The [`MiniStore`] scan path remains the
/// oracle: property tests assert both produce identical stage-1 survivor
/// sets.
#[derive(Debug, Clone)]
pub struct ColumnarIndex {
    job_ids: Vec<String>,
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
    statics: Vec<Option<StoredStatics>>,
}

impl ColumnarIndex {
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
        self.statics[row].as_ref()
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

fn decode_statics(row: &RowResult) -> Result<StoredStatics, ProfileStoreError> {
    let read_side =
        |names: &[&'static str], cfg_col: &str| -> Result<SideFeatures, ProfileStoreError> {
            let mut categorical = Vec::with_capacity(names.len());
            for name in names {
                let v = row
                    .value(FAMILY, name.as_bytes())
                    .map(|b| String::from_utf8_lossy(b).to_string())
                    .unwrap_or_else(|| "NULL".to_string());
                categorical.push((*name, v));
            }
            let cfg: Option<Cfg> = match row.value(FAMILY, cfg_col.as_bytes()) {
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
            "MAP_CFG",
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
            "RED_CFG",
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
        let all_statics = store.all_statics().unwrap();
        assert_eq!(all_costs.len(), 3);
        assert_eq!(all_statics.len(), 3);
        for id in store.job_ids().unwrap() {
            assert_eq!(
                all_costs[&id],
                store.get_cost_factors(&id).unwrap().unwrap()
            );
            let a = &all_statics[&id];
            let b = store.get_statics(&id).unwrap().unwrap();
            assert_eq!(a.map.jaccard(&b.map), 1.0);
            assert_eq!(a.reduce.jaccard(&b.reduce), 1.0);
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
