//! Sharded, replicated cfstore: N store shards behind one client API,
//! R-way row replication, read-path self-healing, and shard-aware
//! recovery that survives the loss of any single shard (DESIGN.md §13).
//!
//! A [`ShardedStore`] is a directory holding a `SHARDS` catalog plus N
//! subdirectories `shard-000` … `shard-NNN`, each a complete durable
//! [`MiniStore`] (its own WAL, segment files, MANIFEST, and block
//! cache). Rows are placed deterministically: row `k` hashes to *slot*
//! `fnv1a64(k) % N`, and slot `s` is stored on the replica set
//! `{s, s+1, …, s+R-1} (mod N)` — the first replica is the *primary*.
//!
//! ## Write protocol
//!
//! All operations serialize under one global lock, so there is a single
//! total order of batches, each stamped with a *global sequence number*
//! (gsn). A batch becomes one WAL frame per participating shard at
//! `lsn = gsn × LSN_STRIDE` (1024), beginning with a
//! [`WalRecord::BatchMarker`] naming the gsn and the full participant
//! set. The frame is appended to **every** participant before it is
//! applied **anywhere** (regions are pre-materialized first, so apply
//! cannot fail on at-rest corruption after bytes are logged).
//!
//! ## Commit rule
//!
//! At reopen, a raw pre-pass scans every surviving shard's WAL before
//! any store state is built. A gsn G is **committed** iff every
//! surviving participant either has G's marker frame in its WAL or has
//! already flushed past it (`flushed_lsn ≥ G × LSN_STRIDE`). Any shard
//! holding a frame for an uncommitted gsn truncates its WAL at that
//! frame's byte offset, so a crash mid-append aborts the batch on every
//! shard — exactly the batches the writer never acknowledged.
//!
//! ## Healing
//!
//! A CRC failure on one replica (cell checksum or segment block) is
//! repaired from another: the reader copies every verified row the bad
//! shard owns from clean replicas, swaps them in below the corrupt
//! base ([`Region::install_rows`]), and flushes — rewriting the bad
//! copy on disk. Counted per shard as `cfstore.shard.<id>.heal.*`.
//! Losing a shard *entirely* (directory deleted, manifest corrupt) is
//! the degenerate case: reopen rebuilds the whole shard from its
//! peers, then flushes everything so stale cross-shard gsn bookkeeping
//! can never resurface.
//!
//! ## Elastic topology
//!
//! The shard count, replication factor, and per-slot placement live in
//! an epoch-stamped [`resharding::Topology`]. Handing
//! [`ShardedStore::reshard`] another one changes it **online** —
//! grow/shrink N, change R, or rebalance hot slots — via the journaled
//! state machine in [`resharding`] (DESIGN.md §15): reads stay on the
//! old placement until the journaled `Cutover` record, writes are
//! dual-applied to both placements under the same gsn, and a crash at
//! any byte of any WAL or of the `TOPOLOGY` journal reopens into exactly
//! one epoch with the migration resumable.
//!
//! [`Region::install_rows`]: crate::region::Region

pub mod resharding;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::flusher::Flusher;
use crate::frame;
use crate::kv::{Put, RowResult};
use crate::recovery::{self, io_err, RecoveryError, RecoveryReport};
use crate::region::ScanMetrics;
use crate::store::{
    Install, MetaEntry, MiniStore, Scan, StoreError, StoreOptions, DEFAULT_SPLIT_THRESHOLD,
};
use crate::wal::{self, CrashSpec, SyncPolicy, WalRecord, WAL_FILE};

use resharding::{Catalog, Donors, Migration, Pending, Topology};

/// The shard catalog file at the root of a sharded store directory.
pub const SHARDS_FILE: &str = "SHARDS";
/// `"SHD1"` — magic prefix of the catalog file.
pub(crate) const SHARDS_MAGIC: u32 = 0x5348_4431;

/// LSN stride between consecutive gsns. Frame `gsn` lands at
/// `gsn × LSN_STRIDE` in every participant's WAL; the split frames a
/// batch triggers occupy the following LSNs inside the same stride, so
/// the stride bounds splits-per-batch (ample: a batch would need >1023
/// region splits to overflow).
pub(crate) const LSN_STRIDE: u64 = 1024;

/// FNV-1a, the placement hash: stable, dependency-free, and uniform
/// enough that the property tests exercise every shard.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The slot (home shard index) a row key hashes to.
pub fn slot_of(row: &[u8], shards: u32) -> u32 {
    (fnv1a64(row) % shards as u64) as u32
}

/// The replica set of a slot: `slot, slot+1, …` mod N, primary first.
pub fn replica_set(slot: u32, shards: u32, replication: u32) -> Vec<u32> {
    (0..replication).map(|j| (slot + j) % shards).collect()
}

/// How to open a sharded store.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of shards N (fixed at creation; the on-disk catalog wins
    /// over this on reopen).
    pub shards: u32,
    /// Replication factor R, `1 ≤ R ≤ N` (also fixed at creation).
    /// `R = 1` keeps the sharding but loses self-healing.
    pub replication: u32,
    /// Per-shard block cache budget (each shard owns its cache).
    pub block_cache_bytes: u64,
    /// When `Some(n)`, a background flusher thread flushes any shard
    /// whose WAL grew `n` bytes past its last flush.
    pub background_flush_wal_bytes: Option<u64>,
    /// Inject a crash into one shard: `(shard, spec)`. The chaos
    /// harness uses this to kill each shard at every WAL byte.
    pub crash_shard: Option<(u32, CrashSpec)>,
    /// Inject a crash into the resharding journal: tear the `TOPOLOGY`
    /// append that crosses this many cumulative bytes (this session).
    /// The chaos harness uses this to kill a migration at every
    /// journal byte.
    pub crash_topology: Option<u64>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 3,
            replication: 2,
            block_cache_bytes: 8 << 20,
            background_flush_wal_bytes: None,
            crash_shard: None,
            crash_topology: None,
        }
    }
}

/// The sharded META catalog: placement plus every shard's region map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedMeta {
    pub shards: u32,
    pub replication: u32,
    /// `placement[slot]` = replica set, primary first.
    pub placement: Vec<Vec<u32>>,
    /// `(shard, entry)` for every region of every shard, shard order.
    pub regions: Vec<(u32, MetaEntry)>,
}

/// What one sharded reopen did, per shard and in aggregate.
#[derive(Debug, Default)]
pub struct ShardedRecoveryReport {
    /// Per-shard recovery, indexed by shard id (rebuilt shards report
    /// their post-rebuild open: near-empty by construction).
    pub shards: Vec<RecoveryReport>,
    /// Every per-shard report folded together ([`RecoveryReport::merge`])
    /// — totals are aggregated, never last-shard-wins.
    pub total: RecoveryReport,
    /// Shards found missing/corrupt and rebuilt from their peers.
    pub lost_shards: Vec<u32>,
    /// Cross-shard batches aborted by the commit rule (gsn present on
    /// some shards, missing on a surviving participant — never acked).
    pub aborted_batches: u64,
    /// Rows copied from peers while rebuilding lost shards.
    pub healed_rows: u64,
    /// A resharding migration (by epoch) was found in flight and is
    /// resumable via [`ShardedStore::resume_reshard`].
    pub reshard_in_flight: Option<u64>,
}

impl ShardedRecoveryReport {
    /// Human-readable summary (used by `store_fsck`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("shards              : {}\n", self.shards.len()));
        if let Some(epoch) = self.reshard_in_flight {
            out.push_str(&format!(
                "reshard in flight   : epoch {epoch} (resumable from TOPOLOGY journal)\n"
            ));
        }
        if self.lost_shards.is_empty() {
            out.push_str("lost shards         : none\n");
        } else {
            let ids: Vec<String> = self.lost_shards.iter().map(|s| s.to_string()).collect();
            out.push_str(&format!(
                "lost shards         : {} (rebuilt, {} rows healed)\n",
                ids.join(", "),
                self.healed_rows
            ));
        }
        out.push_str(&format!("aborted batches     : {}\n", self.aborted_batches));
        out.push_str("---- aggregate across shards ----\n");
        out.push_str(&self.total.render_text());
        out
    }
}

/// `table → (families, split_threshold)`, mirrored on every shard.
pub(crate) type Schemas = BTreeMap<String, (Vec<String>, usize)>;

/// Everything behind the global lock: the shards and the write-order
/// state. One lock serializes all batches so gsn order == WAL order on
/// every shard — the commit rule depends on that.
struct GlobalState {
    /// Length = the active shard count, or `max(old, new)` while a
    /// migration is in flight (dual-apply needs both placements open).
    shards: Vec<MiniStore>,
    schemas: Schemas,
    next_gsn: u64,
    /// Global logical clock; cells are stamped here (not per shard) so
    /// replicas hold bit-identical versions.
    clock: u64,
    /// A crash fired mid-protocol: refuse further mutations (reads and
    /// heals keep serving), force a reopen to re-establish invariants.
    poisoned: bool,
    /// The epoch-current placement. Reads always use this; it swaps to
    /// the target topology at the journaled `Cutover` record.
    active: Topology,
    /// The active topology's epoch (0 until the first reshard commits).
    epoch: u64,
    /// In-flight reshard, if any (DESIGN.md §15).
    migration: Option<Migration>,
}

impl GlobalState {
    /// The shards a write to `row` must reach: the active replica set,
    /// plus — while a migration is pre-cutover — the target replica set
    /// (dual-apply, so already-copied units stay current).
    fn write_replicas(&self, row: &[u8]) -> Vec<u32> {
        let mut reps = self.active.replicas_of_row(row);
        if let Some(m) = &self.migration {
            if !m.cut_over {
                for g in m.target.replicas_of_row(row) {
                    if !reps.contains(&g) {
                        reps.push(g);
                    }
                }
            }
        }
        reps
    }
}

struct ShardedInner {
    dir: PathBuf,
    state: Mutex<GlobalState>,
    obs: RwLock<obs::Registry>,
    /// What the store was opened with (the on-disk catalog overrides
    /// its `shards`/`replication`).
    opts: ShardOptions,
}

impl ShardedInner {
    fn obs(&self) -> obs::Registry {
        self.obs.read().clone()
    }
}

impl ShardOptions {
    /// Per-shard open options (at reopen, and when a grow creates shards
    /// at runtime). Shard-level flushers stay off: the sharded flusher
    /// drives per-shard flushes so they serialize under the global lock.
    fn store_opts(&self, g: u32) -> StoreOptions {
        StoreOptions {
            sync: SyncPolicy::EveryOp,
            crash: match &self.crash_shard {
                Some((victim, spec)) if *victim == g => spec.clone(),
                _ => CrashSpec::default(),
            },
            block_cache_bytes: self.block_cache_bytes,
            background_flush_wal_bytes: None,
        }
    }
}

/// The sharded store handle. API mirrors [`MiniStore`]; every operation
/// is transparently fanned out, replicated, and healed.
pub struct ShardedStore {
    inner: Arc<ShardedInner>,
    /// One thread for the whole store ([`flush_grown_shards`]); dropping
    /// the handle joins it.
    flusher: Option<Flusher>,
}

pub(crate) fn shard_dir_name(shard: u32) -> String {
    format!("shard-{shard:03}")
}

/// The shard id a directory entry names — the inverse of
/// [`shard_dir_name`], and the only parser of it.
fn shard_dir_id(name: &std::ffi::OsStr) -> Option<u32> {
    name.to_str()?.strip_prefix("shard-")?.parse().ok()
}

/// `remove` a file or directory tree unless it is already gone: rebuild,
/// GC and abort steps are re-run after a crash, so each tolerates having
/// half-happened.
fn remove_if_present(
    path: &Path,
    remove: impl FnOnce(&Path) -> std::io::Result<()>,
) -> std::io::Result<()> {
    match remove(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Create every table of `schemas` on one shard, tolerating the ones it
/// already has (a reopened target, a resumed copy).
fn mirror_schemas(shard: &MiniStore, schemas: &Schemas) -> Result<(), StoreError> {
    for (table, (families, threshold)) in schemas {
        let fams: Vec<&str> = families.iter().map(|f| f.as_str()).collect();
        match shard.create_table_with_threshold(table, &fams, *threshold) {
            Ok(()) | Err(StoreError::TableExists(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Count one heal event against its shard and against the store-wide
/// rollup (`cfstore.shard.heal.<what>`), which exists for
/// low-cardinality alerting and must always equal the per-shard sum.
fn count_heal(reg: &obs::Registry, shard: u32, what: &str, n: u64) {
    reg.incr(&format!("cfstore.shard.{shard}.heal.{what}"), n);
    reg.incr(&format!("cfstore.shard.heal.{what}"), n);
}

// ---------------------------------------------------------------------
// Reopen: probe → plan → execute (DESIGN.md §20)
// ---------------------------------------------------------------------

/// What the raw (pre-`MiniStore::open`) probe of one live shard dir found.
#[derive(Debug)]
pub struct ProbedShard {
    pub flushed_lsn: u64,
    /// `(gsn, participants, frame byte offset)` per marker frame, WAL order.
    pub markers: Vec<(u64, Vec<u32>, u64)>,
    /// Holds any persistent state at all (manifest or WAL bytes).
    pub nonempty: bool,
}

/// The raw state of one shard directory.
#[derive(Debug)]
pub enum Probe {
    /// Directory missing entirely.
    Missing,
    /// Directory present but its manifest fails verification — at-rest
    /// corruption of the shard catalog; the shard is rebuilt.
    Corrupt,
    Alive(ProbedShard),
}

fn probe_shard(dir: &Path) -> Result<Probe, RecoveryError> {
    if !dir.is_dir() {
        return Ok(Probe::Missing);
    }
    let manifest = match recovery::read_manifest(dir) {
        Ok(m) => m,
        Err(RecoveryError::ManifestCorrupt { .. }) => return Ok(Probe::Corrupt),
        Err(e) => return Err(e),
    };
    let wal_path = dir.join(WAL_FILE);
    let scan = wal::read_wal(&wal_path).map_err(|e| io_err(&wal_path, e))?;
    let mut markers = Vec::new();
    for (i, frame) in scan.frames.iter().enumerate() {
        if let Some(WalRecord::BatchMarker { gsn, participants }) = frame.records.first() {
            markers.push((*gsn, participants.clone(), scan.frame_offsets[i]));
        }
    }
    Ok(Probe::Alive(ProbedShard {
        flushed_lsn: manifest.as_ref().map(|m| m.flushed_lsn).unwrap_or(0),
        markers,
        nonempty: manifest.is_some() || scan.total_bytes > 0,
    }))
}

/// What reopening a sharded store directory will do, decided without
/// writing a byte: [`ShardedStore::open`] executes it and `store_fsck`
/// prints it, so the two cannot disagree about what is lost, torn or
/// uncommitted (DESIGN.md §20).
#[derive(Debug)]
pub struct RecoveryPlan {
    /// The `SHARDS` catalog; for a fresh directory (`catalog_missing`)
    /// the one the options ask for, which open writes.
    pub catalog: Catalog,
    pub catalog_missing: bool,
    /// `(intact bytes, torn tail bytes)` of the `TOPOLOGY` journal, when
    /// there is one. Open truncates the torn tail.
    pub journal: Option<(u64, u64)>,
    /// How the journal's intact records resolve against the catalog.
    /// `Pending::None` *with* a journal is a crash before `Begin`: no
    /// migration ever started and open deletes the file.
    pub pending: Pending,
    /// The placement reads use — the target once cut over — and its epoch.
    pub active: Topology,
    pub epoch: u64,
    /// One probe per shard directory open touches: every active shard,
    /// plus a pre-cutover target's.
    pub probes: Vec<Probe>,
    /// Shards with no usable state while their peers have some, and why.
    /// Open wipes and rebuilds each from its replicas.
    pub lost: BTreeMap<u32, &'static str>,
    /// Cross-shard batches the commit rule aborts: a surviving
    /// participant neither holds the gsn's frame nor flushed past it, so
    /// the writer never acknowledged it.
    pub aborted: BTreeSet<u64>,
    /// `shard → byte offset` of its first uncommitted frame; open
    /// truncates that WAL there.
    pub wal_cuts: BTreeMap<u32, u64>,
    /// `shard-NNN` directories beyond `probes`. After a cutover they are
    /// the GC backlog; otherwise nothing explains them (open leaves
    /// them alone, `store_fsck` flags them).
    pub extra_dirs: Vec<u32>,
    /// Highest committed gsn any survivor knows of.
    max_gsn: u64,
}

impl RecoveryPlan {
    /// The plan, one line per thing an operator needs to know. `true`
    /// marks a *finding*: something executing the plan changes on disk,
    /// or a shard directory nothing explains. No finding ⇔ a reopen
    /// leaves the directory exactly as it found it — `store_fsck`'s
    /// exit code 0.
    pub fn lines(&self) -> Vec<(bool, String)> {
        let journal = resharding::TOPOLOGY_FILE;
        let mut out = Vec::new();
        let mut say = |finding: bool, line: String| out.push((finding, line));
        let torn_tail = |torn: u64| match torn {
            0 => String::new(),
            n => format!("; a reopen truncates its {n} torn tail byte(s)"),
        };
        match (&self.pending, self.journal) {
            (_, None) => {}
            (Pending::None, Some(_)) => say(
                true,
                format!("{journal}: no Begin record (crash before one); a reopen deletes it"),
            ),
            (
                Pending::PreCutover {
                    epoch,
                    target,
                    copied,
                    verified,
                },
                Some((_, torn)),
            ) => say(
                torn > 0,
                format!(
                    "{journal}: epoch {epoch} pre-cutover, {}/{} unit(s) copied{}, old epoch \
                     serves{}",
                    copied.len(),
                    target.shards,
                    if *verified { " and verified" } else { "" },
                    torn_tail(torn),
                ),
            ),
            (Pending::PostCutover { epoch, swapped, .. }, Some((_, torn))) => say(
                torn > 0,
                format!(
                    "{journal}: epoch {epoch} POST-cutover (catalog swap {}), new epoch \
                     serves{}",
                    if *swapped { "done" } else { "pending" },
                    torn_tail(torn),
                ),
            ),
        }
        for (g, why) in &self.lost {
            say(
                true,
                format!("shard {g}: lost ({why}); a reopen rebuilds it from its replicas"),
            );
        }
        for gsn in &self.aborted {
            say(
                true,
                format!("uncommitted cross-shard batch gsn {gsn}; a reopen aborts it"),
            );
        }
        for (g, offset) in &self.wal_cuts {
            say(
                true,
                format!("shard {g}: a reopen cuts its WAL at byte {offset}, its first uncommitted frame"),
            );
        }
        // After a cutover, directories beyond the new shard count are the
        // GC backlog; otherwise nothing explains them.
        let gc_pending = matches!(self.pending, Pending::PostCutover { .. });
        for id in &self.extra_dirs {
            let why = if gc_pending {
                "dropped by cutover, GC pending"
            } else {
                "unexplained"
            };
            say(!gc_pending, format!("shard dir {id}: extra ({why})"));
        }
        out
    }

    /// Phase 1 of open: make the files say what the plan decided. Write
    /// a fresh catalog, cut the journal's torn tail before any writer
    /// appends (or delete a journal that never reached `Begin`), and cut
    /// every survivor's WAL at its first uncommitted frame.
    fn truncate(&self, dir: &Path) -> Result<(), RecoveryError> {
        if self.catalog_missing {
            resharding::write_catalog(dir, &self.catalog)
                .map_err(|e| io_err(&dir.join(SHARDS_FILE), e))?;
        }
        let topo_path = dir.join(resharding::TOPOLOGY_FILE);
        match self.journal {
            Some(_) if self.pending == Pending::None => {
                remove_if_present(&topo_path, |p| std::fs::remove_file(p))
                    .map_err(|e| io_err(&topo_path, e))?
            }
            Some((valid, torn)) if torn > 0 => {
                frame::truncate_and_sync(&topo_path, valid).map_err(|e| io_err(&topo_path, e))?
            }
            _ => {}
        }
        for (&g, &offset) in &self.wal_cuts {
            let wal_path = dir.join(shard_dir_name(g)).join(WAL_FILE);
            frame::truncate_and_sync(&wal_path, offset).map_err(|e| io_err(&wal_path, e))?;
        }
        Ok(())
    }
}

/// A shard is lost when it has no usable state while its peers do. When
/// *nothing* is nonempty this is a fresh store and every shard simply
/// opens empty.
fn classify_lost(probes: &[Probe]) -> BTreeMap<u32, &'static str> {
    let any_nonempty = probes.iter().any(|p| match p {
        Probe::Alive(ps) => ps.nonempty,
        Probe::Corrupt => true,
        Probe::Missing => false,
    });
    let mut lost = BTreeMap::new();
    for (g, p) in probes.iter().enumerate().filter(|_| any_nonempty) {
        let why = match p {
            Probe::Missing => "directory missing",
            Probe::Corrupt => "manifest corrupt",
            Probe::Alive(ps) if !ps.nonempty => "empty among non-empty peers",
            Probe::Alive(_) => continue,
        };
        lost.insert(g as u32, why);
    }
    lost
}

/// The commit rule over the survivors' WALs: gsn G is committed ⇔ every
/// surviving participant holds its frame or has flushed past it. Lost
/// shards cannot veto (their vote is unknowable; survivors' frames are
/// the authority). Returns the aborted gsns, each survivor's cut offset
/// (its first uncommitted frame) and the highest committed gsn.
fn commit_rule(
    probes: &[Probe],
    lost: &BTreeMap<u32, &'static str>,
) -> (BTreeSet<u64>, BTreeMap<u32, u64>, u64) {
    let survivor = |g: u32| match probes.get(g as usize) {
        Some(Probe::Alive(ps)) if !lost.contains_key(&g) => Some(ps),
        _ => None,
    };
    // A participant that is out of range, lost, or not alive (which,
    // outside `lost`, only happens when nothing is nonempty — and then
    // no markers exist) cannot veto.
    let committed = |gsn: u64, participants: &[u32]| -> bool {
        participants.iter().all(|&p| {
            survivor(p).is_none_or(|ps| {
                ps.markers.iter().any(|(g, _, _)| *g == gsn) || ps.flushed_lsn >= gsn * LSN_STRIDE
            })
        })
    };
    let (mut aborted, mut cuts, mut max_gsn) = (BTreeSet::new(), BTreeMap::new(), 0u64);
    for g in 0..probes.len() as u32 {
        let Some(ps) = survivor(g) else { continue };
        max_gsn = max_gsn.max(ps.flushed_lsn / LSN_STRIDE);
        for (gsn, participants, offset) in &ps.markers {
            if committed(*gsn, participants) {
                debug_assert!(
                    !cuts.contains_key(&g),
                    "committed gsn {gsn} after an uncommitted one: \
                     the global lock should make that impossible"
                );
                max_gsn = max_gsn.max(*gsn);
            } else {
                aborted.insert(*gsn);
                cuts.entry(g).or_insert(*offset);
            }
        }
    }
    (aborted, cuts, max_gsn)
}

/// Phase 2 of open: open every survivor, adding to `lost` a shard whose
/// catalog opened but whose segments do not; refuse if some slot kept
/// no replica; then wipe each lost shard's directory and open it empty.
/// Returns each shard with its recovery report.
fn open_shards(
    dir: &Path,
    opts: &ShardOptions,
    plan: &RecoveryPlan,
    lost: &mut BTreeSet<u32>,
    reg: &obs::Registry,
) -> Result<Vec<(MiniStore, RecoveryReport)>, RecoveryError> {
    let mut opened = Vec::with_capacity(plan.probes.len());
    for g in 0..plan.probes.len() as u32 {
        if lost.contains(&g) {
            opened.push(None);
            continue;
        }
        match MiniStore::open_with_opts(&dir.join(shard_dir_name(g)), opts.store_opts(g)) {
            Ok(pair) => opened.push(Some(pair)),
            // At-rest corruption below the manifest level: the shard
            // opened its catalog but a referenced segment fails
            // verification — reclassify as lost and rebuild.
            Err(RecoveryError::Segment(_)) | Err(RecoveryError::ManifestCorrupt { .. }) => {
                lost.insert(g);
                opened.push(None);
            }
            Err(e) => return Err(e),
        }
    }
    // Every *active* slot must keep at least one surviving replica, or
    // data is unrecoverable and pretending otherwise would be silent
    // loss. (Losing a target-only shard pre-cutover is fine: its unit is
    // invalidated and re-copied from the active epoch.)
    for s in 0..plan.active.shards {
        let reps = plan.active.replicas(s);
        if reps.iter().all(|g| lost.contains(g)) {
            return Err(RecoveryError::InconsistentLog {
                detail: format!("slot {s} lost all replicas ({reps:?}); cannot rebuild"),
            });
        }
    }
    let mut shards = Vec::with_capacity(opened.len());
    for (g, pair) in opened.into_iter().enumerate() {
        let (mut store, report) = match pair {
            Some(pair) => pair,
            None => {
                let d = dir.join(shard_dir_name(g as u32));
                remove_if_present(&d, |p| std::fs::remove_dir_all(p)).map_err(|e| io_err(&d, e))?;
                MiniStore::open_with_opts(&d, opts.store_opts(g as u32))?
            }
        };
        store.set_obs(reg.clone());
        shards.push((store, report));
    }
    Ok(shards)
}

/// Phase 3 of open: give every lost shard its schemas and the rows it
/// owns under the *active* topology (target-epoch content it held
/// pre-crash is restored by re-copying its unit, journaled as
/// `Invalidated` in phase 4). Returns the rows copied.
fn rebuild_lost(
    dir: &Path,
    shards: &[MiniStore],
    schemas: &Schemas,
    active: &Topology,
    lost: &BTreeSet<u32>,
    reg: &obs::Registry,
) -> Result<u64, RecoveryError> {
    if lost.is_empty() {
        return Ok(0);
    }
    let io = |e: StoreError| io_err(dir, std::io::Error::other(format!("shard rebuild: {e}")));
    // One donor export cache feeds every lost shard.
    let mut donors = Donors::excluding(lost.iter().copied());
    let mut healed_rows = 0;
    for &b in lost {
        let shard = &shards[b as usize];
        mirror_schemas(shard, schemas).map_err(io)?;
        let mut rows_here = 0;
        // A rebuilt shard gets every row of the slots it serves.
        let serves = |slot| active.replicas(slot).contains(&b);
        for table in schemas.keys() {
            let all = |_, _: &[u8]| true;
            let rows = resharding::owned_rows(shards, active, table, &mut donors, serves, all)
                .map_err(io)?;
            rows_here += shard
                .install_table_rows(table, rows, Install::Replace)
                .map_err(io)?;
        }
        count_heal(reg, b, "rebuilds", 1);
        if rows_here > 0 {
            count_heal(reg, b, "rows", rows_here);
        }
        healed_rows += rows_here;
    }
    // Flush EVERYTHING: survivors may still hold WAL frames whose
    // participant sets name the rebuilt shards. The rebuilt WALs will
    // never contain those gsns, so leaving the survivors' frames in
    // place would make committed batches look uncommitted at the *next*
    // reopen. Flushing moves every shard's flushed_lsn past them.
    for store in shards {
        store.flush().map_err(io)?;
    }
    Ok(healed_rows)
}

/// The sharded background flusher's work: flush any shard whose WAL
/// outgrew the threshold. Runs under the global lock — it serializes
/// with writers exactly like a caller-driven [`ShardedStore::flush`], so
/// crash safety reduces to the single-store argument.
fn flush_grown_shards(inner: &ShardedInner, threshold: u64) {
    let mut st = inner.state.lock();
    if st.poisoned {
        return;
    }
    for g in 0..st.shards.len() {
        if st.shards[g].wal_bytes_since_flush() >= threshold {
            match st.shards[g].flush() {
                Ok(()) => inner.obs().incr("cfstore.shard.flush.background", 1),
                Err(StoreError::Crashed) => {
                    st.poisoned = true;
                    break;
                }
                Err(_) => {}
            }
        }
    }
}

impl ShardedStore {
    /// Open (or create) a sharded store with default options.
    pub fn open(dir: &Path) -> Result<(Self, ShardedRecoveryReport), RecoveryError> {
        Self::open_with_opts(dir, ShardOptions::default())
    }

    /// [`ShardedStore::open`] with explicit options.
    pub fn open_with_opts(
        dir: &Path,
        opts: ShardOptions,
    ) -> Result<(Self, ShardedRecoveryReport), RecoveryError> {
        Self::open_traced(dir, opts, obs::Registry::disabled())
    }

    /// Decide, read-only, what opening `dir` will do: resolve the
    /// `TOPOLOGY` journal against the `SHARDS` catalog, probe every shard
    /// directory the resulting topology names, classify the lost ones
    /// and apply the cross-shard commit rule to the survivors' WALs.
    /// `opts` only matters for a directory with no catalog yet.
    pub fn recovery_plan(dir: &Path, opts: &ShardOptions) -> Result<RecoveryPlan, RecoveryError> {
        let topo_path = dir.join(resharding::TOPOLOGY_FILE);
        let topo_corrupt = |detail: String| recovery::corrupt_file(&topo_path, detail);
        // The on-disk catalog wins over the options: the topology only
        // changes through the journaled reshard protocol.
        let journal = resharding::read_journal(dir)?;
        let on_disk = resharding::read_catalog(dir)?;
        if on_disk.is_none() && journal.is_some() {
            return Err(topo_corrupt(
                "TOPOLOGY journal present without a SHARDS catalog".to_string(),
            ));
        }
        let catalog_missing = on_disk.is_none();
        let catalog = on_disk.unwrap_or_else(|| Catalog {
            topology: Topology::uniform(opts.shards, opts.replication),
            epoch: 0,
        });
        catalog
            .topology
            .validate()
            .map_err(|detail| RecoveryError::InconsistentLog { detail })?;
        let pending = match &journal {
            Some(scan) => resharding::resolve_against_catalog(&catalog, &scan.records)
                .map_err(topo_corrupt)?,
            None => Pending::None,
        };
        // The placement reads use, and how many shard dirs to probe.
        let (active, epoch) = match &pending {
            Pending::None | Pending::PreCutover { .. } => (catalog.topology.clone(), catalog.epoch),
            Pending::PostCutover { epoch, target, .. } => (target.clone(), *epoch),
        };
        let n = match &pending {
            Pending::PreCutover { target, .. } => active.shards.max(target.shards),
            _ => active.shards,
        };
        let probes = (0..n)
            .map(|g| probe_shard(&dir.join(shard_dir_name(g))))
            .collect::<Result<Vec<_>, _>>()?;
        let lost = classify_lost(&probes);
        let (aborted, wal_cuts, max_gsn) = commit_rule(&probes, &lost);
        let mut extra_dirs: Vec<u32> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.path().is_dir())
            .filter_map(|e| shard_dir_id(&e.file_name()))
            .filter(|id| *id >= n)
            .collect();
        extra_dirs.sort_unstable();
        Ok(RecoveryPlan {
            catalog,
            catalog_missing,
            journal: journal.map(|j| (j.valid_bytes, j.total_bytes - j.valid_bytes)),
            pending,
            active,
            epoch,
            probes,
            lost,
            aborted,
            wal_cuts,
            extra_dirs,
            max_gsn,
        })
    }

    /// Open with an observability registry attached from the first
    /// byte, so rebuild/heal counters from recovery itself are counted.
    /// All shards share the one registry (counters namespaced by
    /// `cfstore.shard.<id>.*` where a per-shard split matters).
    ///
    /// Open is [`ShardedStore::recovery_plan`] followed by its
    /// execution: truncate what the plan cut, open the survivors, rebuild
    /// the lost shards from their peers, reattach an in-flight migration,
    /// assemble the handle.
    pub fn open_traced(
        dir: &Path,
        opts: ShardOptions,
        reg: obs::Registry,
    ) -> Result<(Self, ShardedRecoveryReport), RecoveryError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let plan = Self::recovery_plan(dir, &opts)?;
        plan.truncate(dir)?;
        let mut lost: BTreeSet<u32> = plan.lost.keys().copied().collect();
        let (shards, reports): (Vec<_>, Vec<_>) = open_shards(dir, &opts, &plan, &mut lost, &reg)?
            .into_iter()
            .unzip();
        let survivor = (0..shards.len()).find(|g| !lost.contains(&(*g as u32)));
        let schemas = survivor.map_or_else(Schemas::new, |g| shards[g].table_schemas());
        let healed_rows = rebuild_lost(dir, &shards, &schemas, &plan.active, &lost, &reg)?;
        // Phase 4: reattach the journaled migration. A lost shard was
        // rebuilt with active-epoch content only, so `resumed` journals
        // away any `Copied` claim it held.
        let migration =
            Migration::resumed(dir, opts.crash_topology, plan.pending, &lost).map_err(|e| {
                let detail = std::io::Error::other(format!("resharding journal: {e}"));
                io_err(&dir.join(resharding::TOPOLOGY_FILE), detail)
            })?;
        if migration.is_some() {
            reg.incr("cfstore.reshard.resumes", 1);
        }

        let mut total = RecoveryReport::default();
        for rep in &reports {
            total.merge(rep);
        }
        let report = ShardedRecoveryReport {
            shards: reports,
            total,
            lost_shards: lost.into_iter().collect(),
            aborted_batches: plan.aborted.len() as u64,
            healed_rows,
            reshard_in_flight: migration.as_ref().map(|m| m.epoch),
        };
        let clock = shards.iter().map(|s| s.clock_value()).max();
        let inner = Arc::new(ShardedInner {
            dir: dir.to_path_buf(),
            state: Mutex::new(GlobalState {
                shards,
                schemas,
                next_gsn: plan.max_gsn + 1,
                clock: clock.unwrap_or(1).max(1),
                poisoned: false,
                active: plan.active,
                epoch: plan.epoch,
                migration,
            }),
            obs: RwLock::new(reg),
            opts,
        });
        let flusher = inner
            .opts
            .background_flush_wal_bytes
            .map(|threshold| {
                let inner = inner.clone();
                Flusher::spawn("cfstore-shard-flusher", move || {
                    flush_grown_shards(&inner, threshold)
                })
            })
            .transpose()
            .map_err(|e| io_err(dir, e))?;
        Ok((ShardedStore { inner, flusher }, report))
    }

    // -----------------------------------------------------------------
    // Client API
    // -----------------------------------------------------------------

    /// Create a table on every shard (one cross-shard batch).
    pub fn create_table(&self, name: &str, families: &[&str]) -> Result<(), StoreError> {
        self.create_table_with_threshold(name, families, DEFAULT_SPLIT_THRESHOLD)
    }

    /// [`ShardedStore::create_table`] with a custom split threshold.
    pub fn create_table_with_threshold(
        &self,
        name: &str,
        families: &[&str],
        split_threshold: usize,
    ) -> Result<(), StoreError> {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        if st.poisoned {
            return Err(StoreError::Crashed);
        }
        if st.schemas.contains_key(name) {
            return Err(StoreError::TableExists(name.to_string()));
        }
        let fams: Vec<String> = families.iter().map(|f| f.to_string()).collect();
        // Every open shard, including migration targets: a table born
        // mid-migration must exist in both epochs.
        let participants: Vec<u32> = (0..st.shards.len() as u32).collect();
        let create = WalRecord::CreateTable {
            name: name.to_string(),
            families: fams.clone(),
            split_threshold: split_threshold as u64,
            // Region ids are each shard's own: filled in as it logs.
            root_region_id: 0,
        };
        let per_shard = participants.iter().map(|&g| (g, vec![create.clone()]));
        Self::commit_batch(&mut st, &participants, per_shard.collect())?;
        st.schemas.insert(name.to_string(), (fams, split_threshold));
        Ok(())
    }

    /// Write one cell, replicated R ways.
    pub fn put(&self, table: &str, put: Put) -> Result<(), StoreError> {
        self.put_batch(table, vec![put])
    }

    /// Write a batch atomically across shards: every cell is stamped by
    /// the global clock, the batch gets one gsn, and the frame reaches
    /// every participating replica's WAL before any of them applies it.
    /// Recovery keeps all of it or none of it on every shard.
    pub fn put_batch(&self, table: &str, puts: Vec<Put>) -> Result<(), StoreError> {
        if puts.is_empty() {
            return Ok(());
        }
        let inner = &self.inner;
        let mut st = inner.state.lock();
        if st.poisoned {
            return Err(StoreError::Crashed);
        }
        let (families, _) = st
            .schemas
            .get(table)
            .ok_or_else(|| StoreError::NoSuchTable(table.to_string()))?
            .clone();
        for p in &puts {
            if !families.contains(&p.family) {
                return Err(StoreError::NoSuchColumnFamily {
                    table: table.to_string(),
                    family: p.family.clone(),
                });
            }
        }
        // Per shard: the rows it is about to be written, and the records
        // that write them. Consecutive puts to one row are placed once.
        let mut per_shard: BTreeMap<u32, (Vec<Bytes>, Vec<WalRecord>)> = BTreeMap::new();
        for run in puts.chunk_by(|a, b| a.row == b.row) {
            let row = &run[0].row;
            let stamped = st.clock;
            st.clock += run.len() as u64;
            // Dual-apply during a migration: the same stamped cells go
            // to the old and new replica sets under one gsn, so every
            // copy — either epoch — stays bit-identical.
            for g in st.write_replicas(row) {
                let (rows, records) = per_shard.entry(g).or_default();
                rows.push(row.clone());
                records.extend(
                    run.iter()
                        .zip(stamped..)
                        .map(|(put, timestamp)| WalRecord::Put {
                            table: table.to_string(),
                            row: row.clone(),
                            family: put.family.clone(),
                            column: put.column.clone(),
                            value: put.value.clone(),
                            timestamp,
                        }),
                );
            }
        }
        let participants: Vec<u32> = per_shard.keys().copied().collect();
        // Materialize target regions up front: at-rest corruption must
        // surface (and heal) *before* any WAL append, because puts are
        // not idempotent and a half-applied batch cannot be retried.
        for (&g, (rows, _)) in &per_shard {
            // A write has no other replica to fall through to: whatever
            // stopped the heal stops the batch.
            Self::with_heal(inner, &mut st, g, table, |s| s.prepare_rows(table, rows)).map_err(
                |e| match e {
                    Unhealed::Fatal(e) | Unhealed::StillCorrupt { cause: e, .. } => e,
                },
            )?;
        }
        let per_shard = per_shard.into_iter().map(|(g, (_, records))| (g, records));
        Self::commit_batch(&mut st, &participants, per_shard.collect())?;
        self.maybe_wake_flusher(&st);
        Ok(())
    }

    /// Delete a row from every replica holding it.
    pub fn delete_row(&self, table: &str, row: &[u8]) -> Result<bool, StoreError> {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        if st.poisoned {
            return Err(StoreError::Crashed);
        }
        if !st.schemas.contains_key(table) {
            return Err(StoreError::NoSuchTable(table.to_string()));
        }
        let existed = Self::get_inner(inner, &mut st, table, row)?.is_some();
        if !existed {
            return Ok(false);
        }
        let participants = st.write_replicas(row);
        let delete = WalRecord::DeleteRow {
            table: table.to_string(),
            row: Bytes::copy_from_slice(row),
        };
        let per_shard = participants.iter().map(|&g| (g, vec![delete.clone()]));
        Self::commit_batch(&mut st, &participants, per_shard.collect())?;
        self.maybe_wake_flusher(&st);
        Ok(true)
    }

    /// Read one row: try the primary, fail over through the replica set.
    /// A checksum failure triggers an in-place heal of the bad replica
    /// (copy-from-peer + flush, rewriting the corrupt segment) and a
    /// retry; if the heal itself cannot complete, the read still serves
    /// from the next replica.
    pub fn get(&self, table: &str, row: &[u8]) -> Result<Option<RowResult>, StoreError> {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        if !st.schemas.contains_key(table) {
            return Err(StoreError::NoSuchTable(table.to_string()));
        }
        Self::get_inner(inner, &mut st, table, row)
    }

    fn get_inner(
        inner: &ShardedInner,
        st: &mut GlobalState,
        table: &str,
        row: &[u8],
    ) -> Result<Option<RowResult>, StoreError> {
        let mut last_err: Option<StoreError> = None;
        // Reads consult the active placement only: pre-cutover that is
        // the old epoch, making the cutover record the visibility switch.
        for g in st.active.replicas_of_row(row) {
            match Self::with_heal(inner, st, g, table, |s| s.get(table, row)) {
                Ok(res) => return Ok(res),
                Err(Unhealed::Fatal(e)) => return Err(e),
                // Keep serving from the next replica.
                Err(Unhealed::StillCorrupt { seen, .. }) => last_err = Some(seen),
            }
        }
        // `Topology::validate` holds every opened topology to R ≥ 1, so
        // the loop ran at least once.
        Err(last_err.expect("loop returns unless every replica errored"))
    }

    /// Scan with filter pushdown. Every shard is scanned; each slot's
    /// rows are taken from the first replica whose scan succeeded
    /// (normally the primary), after heal-and-retry on corrupt shards.
    /// Results are bit-identical to an unsharded store's scan; metrics
    /// are summed across shard scans (replication makes `rows_scanned`
    /// larger than a single store's — the read-amplification cost of
    /// redundancy, visible on purpose).
    pub fn scan(
        &self,
        table: &str,
        scan: &Scan,
    ) -> Result<(Vec<RowResult>, ScanMetrics), StoreError> {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        if !st.schemas.contains_key(table) {
            return Err(StoreError::NoSuchTable(table.to_string()));
        }
        // Active shards only: pre-cutover, migration targets are
        // invisible to reads (their superset rows never leak because
        // slot resolution below only consults active replicas anyway).
        let n = st.active.shards;
        let mut per_shard: Vec<Option<Vec<RowResult>>> = (0..n).map(|_| None).collect();
        let mut metrics = ScanMetrics::default();
        let mut last_err: Option<StoreError> = None;
        for g in 0..n {
            match Self::with_heal(inner, &mut st, g, table, |s| s.scan(table, scan)) {
                Ok((rows, m)) => {
                    metrics.merge(m);
                    per_shard[g as usize] = Some(rows);
                }
                Err(Unhealed::Fatal(e)) => return Err(e),
                Err(Unhealed::StillCorrupt { seen, .. }) => last_err = Some(seen),
            }
        }
        // Resolve each slot from its first scannable replica.
        let mut source_for_slot: Vec<Option<u32>> = (0..n).map(|_| None).collect();
        for s in 0..n {
            source_for_slot[s as usize] = st
                .active
                .replicas(s)
                .into_iter()
                .find(|&g| per_shard[g as usize].is_some());
            if source_for_slot[s as usize].is_none() {
                // R ≥ 1 (`Topology::validate`): the slot has a replica,
                // and its scan failed.
                return Err(last_err
                    .take()
                    .expect("a slot is unscannable only after replica errors"));
            }
        }
        let mut merged: BTreeMap<Bytes, RowResult> = BTreeMap::new();
        for (g, rows) in per_shard.into_iter().enumerate() {
            let Some(rows) = rows else { continue };
            for row in rows {
                let s = st.active.slot_of_row(&row.row);
                if source_for_slot[s as usize] == Some(g as u32) {
                    merged.insert(row.row.clone(), row);
                }
            }
        }
        Ok((merged.into_values().collect(), metrics))
    }

    /// Chaos hook: corrupt a stored cell on the *primary* replica of its
    /// row, so the next read exercises the heal path.
    pub fn corrupt_cell(
        &self,
        table: &str,
        row: &[u8],
        family: &str,
        column: &[u8],
    ) -> Result<bool, StoreError> {
        let st = self.inner.state.lock();
        let g = st.active.replicas_of_row(row)[0];
        st.shards[g as usize].corrupt_cell(table, row, family, column)
    }

    /// Flush every shard.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut st = self.inner.state.lock();
        for g in 0..st.shards.len() {
            if let Err(e) = st.shards[g].flush() {
                if e == StoreError::Crashed {
                    st.poisoned = true;
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// The sharded META catalog: placement plus every region entry.
    /// Placement reflects the *active* topology — mid-migration the
    /// old epoch stays authoritative until cutover.
    pub fn meta(&self) -> ShardedMeta {
        let st = self.inner.state.lock();
        let n = st.active.shards;
        ShardedMeta {
            shards: n,
            replication: st.active.replication,
            placement: (0..n).map(|s| st.active.replicas(s)).collect(),
            regions: st
                .shards
                .iter()
                .enumerate()
                .flat_map(|(g, s)| {
                    s.meta_entries()
                        .into_iter()
                        .map(move |e| (g as u32, e))
                        .collect::<Vec<_>>()
                })
                .collect(),
        }
    }

    /// Whether a crash point fired (on any shard or mid-protocol).
    /// Mutations are refused until the directory is reopened; reads
    /// keep serving.
    pub fn is_crashed(&self) -> bool {
        let st = self.inner.state.lock();
        st.poisoned || st.shards.iter().any(|s| s.is_crashed())
    }

    /// Swap the observability registry (shared by every shard).
    pub fn set_obs(&mut self, reg: obs::Registry) {
        let mut st = self.inner.state.lock();
        for s in st.shards.iter_mut() {
            s.set_obs(reg.clone());
        }
        drop(st);
        *self.inner.obs.write() = reg;
    }

    /// Number of shards N in the active topology.
    pub fn shard_count(&self) -> u32 {
        self.inner.state.lock().active.shards
    }

    /// Replication factor R of the active topology.
    pub fn replication(&self) -> u32 {
        self.inner.state.lock().active.replication
    }

    /// The directory of one shard (tests reach in to kill/corrupt it).
    pub fn shard_dir(&self, shard: u32) -> PathBuf {
        self.inner.dir.join(shard_dir_name(shard))
    }

    /// Cumulative WAL bytes one shard wrote this session, across flush
    /// truncations — the currency [`CrashSpec::after_wal_bytes`] counts,
    /// so the crash sweeps measure a clean run and tear every byte.
    pub fn shard_wal_bytes_written(&self, shard: u32) -> u64 {
        let st = self.inner.state.lock();
        st.shards[shard as usize].wal_bytes_written()
    }

    /// The primary shard a row lives on (active topology).
    pub fn primary_shard(&self, row: &[u8]) -> u32 {
        self.inner.state.lock().active.replicas_of_row(row)[0]
    }

    /// The full replica set of a row (active topology).
    pub fn replica_shards(&self, row: &[u8]) -> Vec<u32> {
        self.inner.state.lock().active.replicas_of_row(row)
    }

    /// Scan one shard directly, bypassing placement resolution — the
    /// property tests use this to compare replicas cell-for-cell.
    pub fn shard_scan(
        &self,
        shard: u32,
        table: &str,
        scan: &Scan,
    ) -> Result<(Vec<RowResult>, ScanMetrics), StoreError> {
        let st = self.inner.state.lock();
        st.shards[shard as usize].scan(table, scan)
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    /// Frame-and-apply one batch: append each participant's frame
    /// (marker first, then its records) to its WAL, then apply them
    /// everywhere. Any failure after the first byte of the first append
    /// poisons the store — the shards' WALs now disagree and only the
    /// reopen commit rule may reconcile them.
    fn commit_batch(
        st: &mut GlobalState,
        participants: &[u32],
        per_shard: BTreeMap<u32, Vec<WalRecord>>,
    ) -> Result<(), StoreError> {
        let gsn = st.next_gsn;
        st.next_gsn += 1;
        let mut frames: Vec<(u32, Vec<WalRecord>)> = Vec::with_capacity(per_shard.len());
        for (g, ops) in per_shard {
            let mut records = vec![WalRecord::BatchMarker {
                gsn,
                participants: participants.to_vec(),
            }];
            records.extend(ops);
            if let Err(e) = st.shards[g as usize].log_frame_at(gsn * LSN_STRIDE, &mut records) {
                st.poisoned = true;
                return Err(e);
            }
            frames.push((g, records));
        }
        for (g, records) in frames {
            if let Err(e) = st.shards[g as usize].apply_frame(records) {
                st.poisoned = true;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Run `op` against shard `g`; when it fails a CRC (cell checksum or
    /// segment block), count the heal read, repair the shard's copy of
    /// `table` from its peers and run `op` once more. The one
    /// heal-and-retry under `get`, `scan` and the `put_batch` pre-pass.
    fn with_heal<T>(
        inner: &ShardedInner,
        st: &mut GlobalState,
        g: u32,
        table: &str,
        op: impl Fn(&MiniStore) -> Result<T, StoreError>,
    ) -> Result<T, Unhealed> {
        let seen = match op(&st.shards[g as usize]) {
            Err(e @ (StoreError::Corruption { .. } | StoreError::SegmentCorrupt { .. })) => e,
            other => return other.map_err(Unhealed::Fatal),
        };
        count_heal(&inner.obs(), g, "reads", 1);
        match Self::heal_shard_table(inner, st, g, table) {
            Ok(_) => op(&st.shards[g as usize]).map_err(|e| Unhealed::StillCorrupt {
                seen: e.clone(),
                cause: e,
            }),
            // The heal could not complete (e.g. the shard is
            // crash-poisoned and cannot flush).
            Err(cause) => Err(Unhealed::StillCorrupt { seen, cause }),
        }
    }

    /// Repair one shard's copy of a table from its peers: copy every
    /// row the shard owns from the first clean replica of each slot,
    /// install below the corrupt base, and flush — making the repair
    /// durable and deleting the superseded corrupt segment file. The
    /// repair is deliberately *not* WAL-logged: replay would re-promote
    /// the corrupt base it replaces; durability comes from the flush.
    fn heal_shard_table(
        inner: &ShardedInner,
        st: &mut GlobalState,
        bad: u32,
        table: &str,
    ) -> Result<u64, StoreError> {
        // Pre-cutover, a migration target shard also holds dual-applied
        // and copied rows it owns under the *new* topology; the heal
        // must restore those too or a completed Copy unit would lose
        // rows silently. Post-cutover (and with no migration) the
        // active topology is the only owner set.
        let target_pre = st.migration.as_ref().filter(|m| !m.cut_over);
        let serves = |slot| st.active.replicas(slot).contains(&bad);
        let reads = |slot| serves(slot) || target_pre.is_some();
        let owns =
            |slot, row: &[u8]| serves(slot) || target_pre.is_some_and(|m| m.target.owns(bad, row));
        let mut donors = Donors::excluding([bad]);
        let rows = resharding::owned_rows(&st.shards, &st.active, table, &mut donors, reads, owns)?;
        let healed = st.shards[bad as usize].install_table_rows(table, rows, Install::Replace)?;
        // Durability of the repair, and the moment the bad on-disk copy
        // is rewritten (the superseded segment file is deleted).
        st.shards[bad as usize].flush()?;
        let reg = inner.obs();
        count_heal(&reg, bad, "repairs", 1);
        count_heal(&reg, bad, "rows", healed);
        Ok(healed)
    }

    /// Called under the global lock, which the flusher's work takes.
    fn maybe_wake_flusher(&self, st: &GlobalState) {
        let (Some(threshold), Some(flusher)) =
            (self.inner.opts.background_flush_wal_bytes, &self.flusher)
        else {
            return;
        };
        if st
            .shards
            .iter()
            .any(|s| s.wal_bytes_since_flush() >= threshold)
        {
            flusher.wake();
        }
    }
}

/// Why [`ShardedStore::with_heal`] gave up on one shard.
enum Unhealed {
    /// Not a CRC failure: no replica can help, every caller propagates it.
    Fatal(StoreError),
    /// The shard's copy is corrupt and could not be repaired (`cause`:
    /// the heal's own error, or the retry's). A read remembers `seen` —
    /// the error a client gets if every replica fails — and falls
    /// through to the next replica; a write propagates `cause`.
    StillCorrupt { seen: StoreError, cause: StoreError },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::RowPrefixFilter;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cfstore-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn seed_rows(store: &ShardedStore, count: usize) {
        store.create_table("t", &["f"]).unwrap();
        for i in 0..count {
            store
                .put(
                    "t",
                    Put::new(format!("row{i:04}"), "f", "c", format!("v{i}")),
                )
                .unwrap();
        }
    }

    #[test]
    fn placement_is_deterministic_and_replicated() {
        for row in [b"alpha".as_slice(), b"beta", b"", b"row0001"] {
            let s = slot_of(row, 5);
            assert_eq!(s, slot_of(row, 5));
            assert!(s < 5);
            let reps = replica_set(s, 5, 3);
            assert_eq!(reps.len(), 3);
            assert_eq!(reps[0], s, "primary is the slot's home shard");
            let unique: BTreeSet<u32> = reps.iter().copied().collect();
            assert_eq!(unique.len(), 3, "replicas are distinct shards");
        }
    }

    #[test]
    fn shards_catalog_roundtrip_and_opts_override() {
        let dir = tmp_dir("catalog");
        {
            let (store, rep) = ShardedStore::open_with_opts(
                &dir,
                ShardOptions {
                    shards: 4,
                    replication: 2,
                    ..ShardOptions::default()
                },
            )
            .unwrap();
            assert_eq!(store.shard_count(), 4);
            assert!(rep.lost_shards.is_empty());
        }
        let catalog = resharding::read_catalog(&dir)
            .unwrap()
            .expect("catalog written");
        assert_eq!(catalog.topology, Topology::uniform(4, 2));
        // Reopen with conflicting options: the file wins.
        let (store, _) = ShardedStore::open_with_opts(
            &dir,
            ShardOptions {
                shards: 7,
                replication: 3,
                ..ShardOptions::default()
            },
        )
        .unwrap();
        assert_eq!(store.shard_count(), 4);
        assert_eq!(store.replication(), 2);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replicas_hold_identical_copies_and_scan_matches_oracle() {
        let dir = tmp_dir("oracle");
        let (store, _) = ShardedStore::open(&dir).unwrap();
        let oracle = MiniStore::new();
        oracle.create_table("t", &["f"]).unwrap();
        seed_rows(&store, 60);
        for i in 0..60 {
            oracle
                .put(
                    "t",
                    Put::new(format!("row{i:04}"), "f", "c", format!("v{i}")),
                )
                .unwrap();
        }
        let (got, _) = store.scan("t", &Scan::all()).unwrap();
        let (want, _) = oracle.scan("t", &Scan::all()).unwrap();
        assert_eq!(got, want, "sharded scan is bit-identical to unsharded");

        // Each row is present, identical, on every one of its replicas.
        for i in 0..60 {
            let row = format!("row{i:04}");
            let reps = store.replica_shards(row.as_bytes());
            assert_eq!(reps.len(), 2);
            let mut copies = Vec::new();
            for g in reps {
                let (rows, _) = store
                    .shard_scan(g, "t", &Scan::prefix(row.as_bytes()))
                    .unwrap();
                assert_eq!(rows.len(), 1, "replica {g} holds {row}");
                copies.push(rows.into_iter().next().unwrap());
            }
            assert_eq!(copies[0], copies[1], "replicas of {row} are identical");
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_preserves_data_and_gsn_clock() {
        let dir = tmp_dir("reopen");
        {
            let (store, _) = ShardedStore::open(&dir).unwrap();
            seed_rows(&store, 30);
        }
        let (store, rep) = ShardedStore::open(&dir).unwrap();
        assert!(rep.lost_shards.is_empty());
        assert_eq!(rep.aborted_batches, 0);
        assert_eq!(rep.shards.len(), 3);
        let (rows, _) = store.scan("t", &Scan::all()).unwrap();
        assert_eq!(rows.len(), 30);
        // New writes after reopen must not collide with old timestamps.
        store.put("t", Put::new("row0000", "f", "c", "v2")).unwrap();
        let got = store.get("t", b"row0000").unwrap().unwrap();
        assert_eq!(got.value("f", b"c").unwrap(), &Bytes::from("v2"));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_heals_corrupt_primary_from_replica() {
        let dir = tmp_dir("heal-get");
        let reg = obs::Registry::new();
        let (store, _) =
            ShardedStore::open_traced(&dir, ShardOptions::default(), reg.clone()).unwrap();
        seed_rows(&store, 20);
        let victim = b"row0007";
        let primary = store.primary_shard(victim);
        assert!(store.corrupt_cell("t", victim, "f", b"c").unwrap());
        let got = store.get("t", victim).unwrap().expect("row still readable");
        assert_eq!(got.value("f", b"c").unwrap(), &Bytes::from("v7"));
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters[&format!("cfstore.shard.{primary}.heal.reads")],
            1
        );
        assert_eq!(
            snap.counters[&format!("cfstore.shard.{primary}.heal.repairs")],
            1
        );
        assert!(snap.counters[&format!("cfstore.shard.{primary}.heal.rows")] > 0);
        // The heal is durable: re-reading takes no further repair.
        let again = store.get("t", victim).unwrap().unwrap();
        assert_eq!(again.value("f", b"c").unwrap(), &Bytes::from("v7"));
        assert_eq!(
            reg.snapshot().counters[&format!("cfstore.shard.{primary}.heal.repairs")],
            1
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn whole_shard_loss_rebuilds_from_peers() {
        let dir = tmp_dir("lost");
        {
            let (store, _) = ShardedStore::open(&dir).unwrap();
            seed_rows(&store, 50);
            store.flush().unwrap();
        }
        let victim_dir = {
            let (store, _) = ShardedStore::open(&dir).unwrap();
            store.shard_dir(1)
        };
        std::fs::remove_dir_all(&victim_dir).unwrap();
        let reg = obs::Registry::new();
        let (store, rep) =
            ShardedStore::open_traced(&dir, ShardOptions::default(), reg.clone()).unwrap();
        assert_eq!(rep.lost_shards, vec![1]);
        assert!(rep.healed_rows > 0, "the rebuilt shard received rows");
        let (rows, _) = store.scan("t", &Scan::all()).unwrap();
        assert_eq!(rows.len(), 50, "no acked row lost with a whole shard gone");
        let snap = reg.snapshot();
        assert_eq!(snap.counters["cfstore.shard.1.heal.rebuilds"], 1);
        // The rebuilt shard serves its replicas again, identically.
        let (replica_rows, _) = store.shard_scan(1, "t", &Scan::all()).unwrap();
        for row in &replica_rows {
            assert!(store.replica_shards(&row.row).contains(&1));
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filters_push_down_through_shards() {
        let dir = tmp_dir("filter");
        let (store, _) = ShardedStore::open(&dir).unwrap();
        seed_rows(&store, 40);
        let scan = Scan::all().with_filter(Box::new(RowPrefixFilter {
            prefix: Bytes::from_static(b"row001"),
        }));
        let (rows, _) = store.scan("t", &scan).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.row.starts_with(b"row001")));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_row_removes_from_all_replicas() {
        let dir = tmp_dir("delete");
        let (store, _) = ShardedStore::open(&dir).unwrap();
        seed_rows(&store, 10);
        assert!(store.delete_row("t", b"row0003").unwrap());
        assert!(!store.delete_row("t", b"row0003").unwrap());
        assert!(store.get("t", b"row0003").unwrap().is_none());
        for g in 0..store.shard_count() {
            let (rows, _) = store.shard_scan(g, "t", &Scan::prefix(b"row0003")).unwrap();
            assert!(rows.is_empty(), "shard {g} purged the row");
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
