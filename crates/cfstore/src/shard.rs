//! Sharded, replicated cfstore: N store shards behind one client API,
//! R-way row replication, read fail-over with repair from peers, and
//! shard-aware recovery that survives the loss of any single shard
//! (DESIGN.md §13).
//!
//! A [`ShardedStore`] is a directory holding a `SHARDS` catalog plus N
//! subdirectories `shard-000` … `shard-NNN`, each a complete durable
//! [`MiniStore`] (its own WAL, segment files, MANIFEST, and block
//! cache). Rows are placed deterministically by the active
//! [`resharding::Topology`]: row `k` hashes to *slot* `fnv1a64(k) % N`,
//! and slot `s` is stored on the replica set `{s, s+1, …, s+R-1} (mod N)`
//! unless an override pins it — the first replica is the *primary*.
//!
//! ## Write protocol
//!
//! Writes serialize under one global lock (reads share it), so there is
//! a single total order of batches, each stamped with a *global sequence
//! number* (gsn). A batch becomes one WAL frame per participating shard at
//! `lsn = gsn × LSN_STRIDE` (1024), beginning with a
//! [`WalRecord::BatchMarker`] naming the gsn and the full participant
//! set. The frame is appended to **every** participant before it is
//! applied **anywhere** (a put reads nothing of a region's segment, so
//! apply cannot fail on at-rest corruption after bytes are logged).
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
//! Reads never write. A point read goes to a row's primary first; a walk
//! (`scan`, `visit`) reads the fewest shards that serve every slot
//! (DESIGN.md §49), so it meets rot only on the replicas it reads, and
//! [`ShardedStore::scrub`] is what verifies every replica. A read that
//! meets a CRC failure on one replica (cell checksum or segment block)
//! serves the row or slot from the next replica and marks the bad shard
//! *suspect*; later reads prefer the replicas that are not. The repair
//! copies every verified row the
//! suspect shard owns from clean replicas, installs them in place of the
//! corrupt base ([`Region::install_rows`]), and flushes — rewriting the
//! bad copy on disk. It runs at the start of every [`ShardedStore::flush`],
//! in [`ShardedStore::scrub`] (which first walks every stored row), and
//! when a shard's flush meets rot in the base of a region it rewrites:
//! then the shard is repaired and flushed again (DESIGN.md §44).
//! Counted per shard as `cfstore.shard.<id>.heal.*` (DESIGN.md §36).
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
//! grow/shrink N, change R, or pin a hot slot — via the journaled
//! state machine in [`resharding`] (DESIGN.md §15): reads stay on the
//! old placement until the journaled `Cutover` record, writes are
//! dual-applied to both placements under the same gsn, and a crash at
//! any byte of any WAL or of the `TOPOLOGY` journal reopens into exactly
//! one epoch with the migration resumable.
//!
//! [`Region::install_rows`]: crate::region::Region

pub mod resharding;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

use crate::frame;
use crate::kv::{Put, RowResult};
use crate::recovery::{self, io_err, RecoveryError, RecoveryReport};
use crate::region::{RowView, ScanMetrics};
use crate::store::{
    keep, Install, MetaEntry, MiniStore, Scan, StoreError, StoreOptions, DEFAULT_SPLIT_THRESHOLD,
};
use crate::wal::{self, CrashSpec, Op, Run, WalRecord, WAL_FILE};

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
    /// Recorded, not read: the caller flushes whatever this says. The
    /// field stays because the benchmark writes it into every run's
    /// `env` (DESIGN.md §43).
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
/// state. One lock, taken exclusively, serializes all batches so gsn
/// order == WAL order on every shard — the commit rule depends on that.
/// Reads take it shared.
struct GlobalState {
    /// Length = the active shard count, or `max(old, new)` while a
    /// migration is in flight (dual-apply needs both placements open).
    shards: Vec<MiniStore>,
    schemas: Schemas,
    next_gsn: u64,
    /// Global logical clock; cells are stamped here (not per shard) so
    /// replicas hold bit-identical versions.
    clock: u64,
    /// A crash fired mid-protocol: refuse further mutations (reads keep
    /// serving), force a reopen to re-establish invariants.
    poisoned: bool,
    /// The epoch-current placement. Reads always use this; it swaps to
    /// the target topology at the journaled `Cutover` record.
    active: Topology,
    /// The active topology's epoch (0 until the first reshard commits).
    epoch: u64,
    /// In-flight reshard, if any (DESIGN.md §15).
    migration: Option<Migration>,
    /// Shards a read met a CRC failure on, awaiting repair: the one thing
    /// a read changes, so it is marked under the shared lock and cleared
    /// under the exclusive one ([`ShardedStore::repair_suspects`]).
    suspect: Mutex<BTreeSet<u32>>,
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

    /// `replicas` in the order a read tries them: the suspect ones last.
    fn by_preference(&self, mut replicas: Vec<u32>) -> Vec<u32> {
        let suspect = self.suspect.lock();
        replicas.sort_by_key(|g| suspect.contains(g));
        replicas
    }

    /// A read of shard `g` failed with `e`: a CRC failure counts a heal
    /// read, marks the shard suspect and is handed back for the read to
    /// fail over; no replica can help with any other error.
    fn fail_over(
        &self,
        reg: &obs::Registry,
        g: u32,
        e: StoreError,
    ) -> Result<StoreError, StoreError> {
        if !is_rot(&e) {
            return Err(e);
        }
        count_heal(reg, g, "reads", 1);
        self.suspect.lock().insert(g);
        Ok(e)
    }
}

/// A checksum failure (cell or segment block): what another replica can
/// serve and a repair can mend.
fn is_rot(e: &StoreError) -> bool {
    matches!(
        e,
        StoreError::Corruption { .. } | StoreError::SegmentCorrupt { .. }
    )
}

/// The shard a walk of `topology` reads each slot from, indexed by slot:
/// the fewest live shards (not `failed`) that together serve every slot
/// (DESIGN.md §49). A greedy set cover, over the shards not `suspect`
/// first: it takes the shard that serves the most slots not yet served,
/// a tie going to the shard with the least summed position in those
/// slots' preference orders (the replicas, the suspect ones last), then
/// to the lowest id. A suspect shard is taken only for a slot no other
/// live replica serves. Each slot is then served by the first taken
/// shard in its own preference order. `None` if a slot has no live
/// replica. On a ring topology of S shards × R this takes ⌈S/R⌉ shards.
fn read_cover(topology: &Topology, failed: &[bool], suspect: &BTreeSet<u32>) -> Option<Vec<u32>> {
    let prefs: Vec<Vec<u32>> = (0..topology.shards)
        .map(|slot| {
            let mut replicas = topology.replicas(slot);
            replicas.retain(|&g| !failed[g as usize]);
            replicas.sort_by_key(|g| suspect.contains(g));
            replicas
        })
        .collect();
    let (mut taken, mut served) = (Vec::new(), vec![false; prefs.len()]);
    for suspects in [false, true] {
        loop {
            let gain = |g: u32| {
                let unserved = prefs.iter().zip(&served).filter(|(_, &done)| !done);
                let at = unserved.filter_map(|(replicas, _)| replicas.iter().position(|&r| r == g));
                at.fold((0, 0), |(slots, rank), pos| (slots + 1, rank + pos))
            };
            let best = (0..topology.shards)
                .filter(|g| suspect.contains(g) == suspects)
                .map(|g| (gain(g), g))
                .filter(|&((slots, _), _)| slots > 0)
                .min_by_key(|&((slots, rank), g)| (Reverse(slots), rank, g));
            let Some((_, g)) = best else { break };
            taken.push(g);
            for (replicas, done) in prefs.iter().zip(&mut served) {
                *done |= replicas.contains(&g);
            }
        }
    }
    prefs
        .iter()
        .map(|replicas| replicas.iter().copied().find(|g| taken.contains(g)))
        .collect()
}

impl ShardOptions {
    /// Per-shard open options (at reopen, and when a grow creates shards
    /// at runtime).
    fn store_opts(&self, g: u32) -> StoreOptions {
        StoreOptions {
            crash: match &self.crash_shard {
                Some((victim, spec)) if *victim == g => spec.clone(),
                _ => CrashSpec::default(),
            },
            block_cache_bytes: self.block_cache_bytes,
            ..StoreOptions::default()
        }
    }
}

/// The sharded store handle. API mirrors [`MiniStore`]; every operation
/// is transparently fanned out and replicated; reads fail over.
pub struct ShardedStore {
    dir: PathBuf,
    state: RwLock<GlobalState>,
    obs: obs::Registry,
    /// What the store was opened with (the on-disk catalog overrides
    /// its `shards`/`replication`).
    opts: ShardOptions,
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
    for (frame, &offset) in scan.records.iter().zip(&scan.offsets) {
        if let Some(WalRecord::BatchMarker { gsn, participants }) = frame.records.first() {
            markers.push((*gsn, participants.clone(), offset));
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

impl ShardedStore {
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

    /// Open (or create) a sharded store, with `reg` attached from the
    /// first byte so rebuild/heal counters from recovery itself are
    /// counted (`obs::Registry::disabled()` counts nothing). All shards
    /// share the one registry (counters namespaced by
    /// `cfstore.shard.<id>.*` where a per-shard split matters).
    ///
    /// Open is [`ShardedStore::recovery_plan`] followed by its
    /// execution: truncate what the plan cut, open the survivors, rebuild
    /// the lost shards from their peers, reattach an in-flight migration,
    /// assemble the handle.
    pub fn open(
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
        let store = ShardedStore {
            dir: dir.to_path_buf(),
            state: RwLock::new(GlobalState {
                shards,
                schemas,
                next_gsn: plan.max_gsn + 1,
                clock: clock.unwrap_or(1).max(1),
                poisoned: false,
                active: plan.active,
                epoch: plan.epoch,
                migration,
                suspect: Mutex::default(),
            }),
            obs: reg,
            opts,
        };
        Ok((store, report))
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
        let mut st = self.writer()?;
        if st.schemas.contains_key(name) {
            return Err(StoreError::TableExists(name.to_string()));
        }
        let fams: Vec<String> = families.iter().map(|f| f.to_string()).collect();
        // Every open shard, including migration targets: a table born
        // mid-migration must exist in both epochs.
        let participants: Vec<u32> = (0..st.shards.len() as u32).collect();
        // Region ids are each shard's own.
        let create = |shard: &MiniStore| WalRecord::CreateTable {
            name: name.to_string(),
            families: fams.clone(),
            split_threshold: split_threshold as u64,
            root_region_id: shard.reserve_region_id(),
        };
        let creates: Vec<WalRecord> = st.shards.iter().map(create).collect();
        let frame = |g: u32| std::iter::once(Op::Record(&creates[g as usize]));
        Self::commit_batch(&mut st, &participants, frame)?;
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
    /// Recovery keeps all of it or none of it on every shard. Each
    /// replica is handed the same row runs of the caller's puts.
    pub fn put_batch(&self, table: &str, puts: Vec<Put>) -> Result<(), StoreError> {
        if puts.is_empty() {
            return Ok(());
        }
        let mut st = self.writer()?;
        let (families, _) = st
            .schemas
            .get(table)
            .ok_or_else(|| StoreError::NoSuchTable(table.to_string()))?;
        if let Some(p) = puts
            .iter()
            .find(|p| !families.iter().any(|f| *f == p.family))
        {
            return Err(StoreError::NoSuchColumnFamily {
                table: table.to_string(),
                family: p.family.to_string(),
            });
        }
        // Each run goes to its row's write replicas. Dual-apply during a
        // migration: the same stamped cells go to the old and new replica
        // sets under one gsn, so every copy — either epoch — stays
        // bit-identical.
        let first = st.clock;
        st.clock += puts.len() as u64;
        let placed: Vec<(Run<'_>, Vec<u32>)> = wal::runs(table, &puts, first)
            .map(|run| (run, st.write_replicas(run.row)))
            .collect();
        let mut participants: Vec<u32> = placed.iter().flat_map(|(_, g)| g).copied().collect();
        participants.sort_unstable();
        participants.dedup();
        Self::commit_batch(&mut st, &participants, |g| {
            let hosted = move |(_, replicas): &&(Run<'_>, Vec<u32>)| replicas.contains(&g);
            placed.iter().filter(hosted).map(|(run, _)| Op::Run(*run))
        })
    }

    /// Delete a row from every replica holding it.
    pub fn delete_row(&self, table: &str, row: &[u8]) -> Result<bool, StoreError> {
        let mut st = self.writer()?;
        if self.get_inner(&st, table, row)?.is_none() {
            return Ok(false);
        }
        // The delete applies to every replica, and a write cannot fail
        // over: repair a shard the read above marked before it logs.
        self.repair_suspects(&mut st)?;
        let participants = st.write_replicas(row);
        let delete = WalRecord::DeleteRow {
            table: table.to_string(),
            row: Bytes::copy_from_slice(row),
        };
        let frame = |_| std::iter::once(Op::Record(&delete));
        Self::commit_batch(&mut st, &participants, frame)?;
        Ok(true)
    }

    /// Read one row: try its replicas in turn, the suspect ones last. A
    /// checksum failure marks the replica suspect and fails over to the
    /// next; the read itself writes nothing.
    pub fn get(&self, table: &str, row: &[u8]) -> Result<Option<RowResult>, StoreError> {
        // Every shard holds every table's schema: a table none has fails
        // the first read.
        self.get_inner(&self.state.read(), table, row)
    }

    fn get_inner(
        &self,
        st: &GlobalState,
        table: &str,
        row: &[u8],
    ) -> Result<Option<RowResult>, StoreError> {
        let mut last_err = None;
        // Reads consult the active placement only: pre-cutover that is
        // the old epoch, making the cutover record the visibility switch.
        for g in st.by_preference(st.active.replicas_of_row(row)) {
            match st.shards[g as usize].get(table, row) {
                Err(e) => last_err = Some(st.fail_over(&self.obs, g, e)?),
                ok => return ok,
            }
        }
        // `Topology::validate` holds every opened topology to R ≥ 1.
        Err(last_err.unwrap_or_else(|| StoreError::Io("a row has no replica to read".to_string())))
    }

    /// Scan with filter pushdown: [`Self::visit`], keeping each row the
    /// filter passes, materialized, in key order. Results are
    /// bit-identical to an unsharded store's scan, and so are the rows and
    /// bytes returned; the rest of the metrics is summed across shard
    /// reads (a shard read walks the rows of every slot the shard holds,
    /// so `rows_scanned` can exceed a single store's — the
    /// read-amplification cost of redundancy, visible on purpose).
    pub fn scan(
        &self,
        table: &str,
        scan: &Scan,
    ) -> Result<(Vec<RowResult>, ScanMetrics), StoreError> {
        let (parts, metrics) = self.visit(table, scan, keep)?;
        let mut rows: Vec<RowResult> = parts.into_iter().flatten().collect();
        // A stable sort merges the shards' sorted runs.
        rows.sort_by(|a, b| a.row.cmp(&b.row));
        Ok((rows, metrics))
    }

    /// The rows `scan` covers folded into parts as [`MiniStore::visit`]
    /// folds them: the fewest shards that serve every slot are read
    /// (`read_cover`), their cells verified, and each row its filter
    /// passes is folded once, by the shard that serves its slot. A part
    /// holds one region's rows of one shard in key order; different
    /// shards' parts interleave. The metrics are summed over the reads
    /// that served, but count as returned only the rows folded: a shard
    /// also walks, and its filter passes, rows of slots another serves.
    /// (The registry's `cfstore.rows_returned` counts each shard's walk.)
    pub fn visit<T: Default + Send>(
        &self,
        table: &str,
        scan: &Scan,
        fold: impl Fn(&mut T, RowView<'_>) + Sync,
    ) -> Result<(Vec<T>, ScanMetrics), StoreError> {
        let st = self.state.read();
        let reads = self.read_slots(&st, table, |shard, serves| {
            shard.visit(table, scan, |(part, served): &mut (T, ScanMetrics), row| {
                if serves(row.key) {
                    served.returned(&row);
                    fold(part, row);
                }
            })
        })?;
        let (mut parts, mut walked, mut served) =
            (Vec::new(), ScanMetrics::default(), ScanMetrics::default());
        for (read, m) in reads {
            walked.merge(m);
            for (part, m) in read {
                parts.push(part);
                served.merge(m);
            }
        }
        let metrics = ScanMetrics {
            rows_returned: served.rows_returned,
            bytes_returned: served.bytes_returned,
            ..walked
        };
        Ok((parts, metrics))
    }

    /// Chaos hook: corrupt a stored cell on the *primary* replica of its
    /// row, so the next `get` of the row exercises the fail-over path. A
    /// walk meets it only if the primary is in its `read_cover`;
    /// [`Self::scrub`] always does.
    pub fn corrupt_cell(
        &self,
        table: &str,
        row: &[u8],
        family: &str,
        column: &[u8],
    ) -> Result<bool, StoreError> {
        let st = self.state.write();
        let g = st.active.replicas_of_row(row)[0];
        st.shards[g as usize].corrupt_cell(table, row, family, column)
    }

    /// Repair the suspect shards, then flush every shard, stopping at the
    /// first error. A shard whose repair cannot complete (no clean
    /// replica to copy from) stays suspect — its reads keep failing over,
    /// and [`Self::scrub`] reports why — and the flush goes on. A shard
    /// whose flush meets rot is repaired and flushed again (DESIGN.md §44).
    /// The caller decides when (DESIGN.md §43).
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut st = self.state.write();
        let _ = self.repair_suspects(&mut st);
        let flushed = (0..st.shards.len()).try_for_each(|g| match st.shards[g].flush() {
            Err(e) if is_rot(&e) => {
                count_heal(&self.obs, g as u32, "reads", 1);
                st.suspect.get_mut().insert(g as u32);
                self.repair_suspects(&mut st)?;
                st.shards[g].flush()
            }
            other => other,
        });
        st.poisoned |= flushed == Err(StoreError::Crashed);
        flushed
    }

    /// Verify every retained cell version and repair what fails: check
    /// every table of every open shard, region by region, as
    /// `store_fsck`'s deep pass does, mark each shard a check fails on
    /// suspect, and repair every suspect shard as [`Self::flush`] does.
    /// Returns the rows repaired; an error is the repair's.
    pub fn scrub(&self) -> Result<u64, StoreError> {
        let mut st = self.state.write();
        for (g, shard) in st.shards.iter().enumerate() {
            for table in st.schemas.keys() {
                match shard.verify_versions(table, drop) {
                    Err(e) if is_rot(&e) => {
                        st.suspect.lock().insert(g as u32);
                        break;
                    }
                    other => other?,
                }
            }
        }
        self.repair_suspects(&mut st)
    }

    /// The META catalog of every open shard, `(shard, entry)` in shard
    /// order: [`MiniStore::meta_entries`] with the shard each entry is on.
    /// Where a row lives is [`Self::topology`]'s to say.
    pub fn meta_entries(&self) -> Vec<(u32, MetaEntry)> {
        let st = self.state.read();
        let each =
            |(g, s): (usize, &MiniStore)| s.meta_entries().into_iter().map(move |e| (g as u32, e));
        st.shards.iter().enumerate().flat_map(each).collect()
    }

    /// Whether a crash point fired (on any shard or mid-protocol).
    /// Mutations are refused until the directory is reopened; reads
    /// keep serving.
    pub fn is_crashed(&self) -> bool {
        let st = self.state.read();
        st.poisoned || st.shards.iter().any(|s| s.is_crashed())
    }

    /// Swap the observability registry (shared by every shard).
    pub fn set_obs(&mut self, reg: obs::Registry) {
        for s in self.state.get_mut().shards.iter_mut() {
            s.set_obs(reg.clone());
        }
        self.obs = reg;
    }

    /// Number of shards N in the active topology.
    pub fn shard_count(&self) -> u32 {
        self.state.read().active.shards
    }

    /// The directory of one shard (tests reach in to kill/corrupt it).
    pub fn shard_dir(&self, shard: u32) -> PathBuf {
        self.dir.join(shard_dir_name(shard))
    }

    /// Cumulative WAL bytes one shard wrote this session, across flush
    /// truncations — the currency [`CrashSpec::after_wal_bytes`] counts,
    /// so the crash sweeps measure a clean run and tear every byte.
    pub fn shard_wal_bytes_written(&self, shard: u32) -> u64 {
        let st = self.state.read();
        st.shards[shard as usize].wal_bytes_written()
    }

    /// Scan one shard directly, bypassing placement resolution — the
    /// property tests use this to compare replicas cell-for-cell.
    pub fn shard_scan(
        &self,
        shard: u32,
        table: &str,
        scan: &Scan,
    ) -> Result<(Vec<RowResult>, ScanMetrics), StoreError> {
        let st = self.state.read();
        st.shards[shard as usize].scan(table, scan)
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    /// Frame-and-apply one batch: append each participant's frame
    /// (marker first, then its ops, `frame(g)`) to its WAL, then apply
    /// them everywhere. Any failure after the first byte of the first
    /// append poisons the store — the shards' WALs now disagree and only
    /// the reopen commit rule may reconcile them.
    fn commit_batch<'a, I: Iterator<Item = Op<'a>>>(
        st: &mut GlobalState,
        participants: &[u32],
        frame: impl Fn(u32) -> I,
    ) -> Result<(), StoreError> {
        let gsn = st.next_gsn;
        st.next_gsn += 1;
        let marker = WalRecord::BatchMarker {
            gsn,
            participants: participants.to_vec(),
        };
        // The identity map shortens the ops' lifetime to the marker's.
        #[allow(clippy::map_identity)]
        let framed = |g| std::iter::once(Op::Record(&marker)).chain(frame(g).map(|op| op));
        // In shard order, whatever order the marker names them in.
        let shards = &st.shards;
        let mut hosts = (0..shards.len()).filter(|&g| participants.contains(&(g as u32)));
        let logged = hosts
            .clone()
            .try_for_each(|g| shards[g].log_frame_at(gsn * LSN_STRIDE, framed(g as u32)));
        let applied =
            logged.and_then(|()| hosts.try_for_each(|g| shards[g].apply_frame(framed(g as u32))));
        st.poisoned |= applied.is_err();
        applied
    }

    /// Read `table` from the active shards of the [`read_cover`], through
    /// `read`, for the rows of the slots each serves (`read` is handed
    /// whether it serves a row); a shard that serves no slot is not read.
    /// A read that fails a CRC marks its shard suspect, and the reads
    /// start over with a cover of the shards whose reads have not failed.
    /// The one slot resolution, under `visit` (DESIGN.md §49).
    fn read_slots<R>(
        &self,
        st: &GlobalState,
        table: &str,
        read: impl Fn(&MiniStore, &(dyn Fn(&[u8]) -> bool + Sync)) -> Result<R, StoreError>,
    ) -> Result<Vec<R>, StoreError> {
        // Active shards only: pre-cutover, migration targets are
        // invisible to reads. Every shard holds every table's schema, so
        // a table none has fails the first read.
        let n = st.active.shards;
        let (mut failed, mut last_err) = (vec![false; n as usize], None);
        'pass: loop {
            // R ≥ 1 (`Topology::validate`): a slot has no server only
            // after every replica of it failed.
            let cover = read_cover(&st.active, &failed, &st.suspect.lock());
            let Some(server) = cover else {
                let none = || StoreError::Io(format!("a slot of `{table}` has no replica to read"));
                return Err(last_err.unwrap_or_else(none));
            };
            let mut reads = Vec::new();
            for g in (0..n).filter(|g| server.contains(g)) {
                let serves = |row: &[u8]| server[st.active.slot_of_row(row) as usize] == g;
                match read(&st.shards[g as usize], &serves) {
                    Ok(r) => reads.push(r),
                    Err(e) => {
                        last_err = Some(st.fail_over(&self.obs, g, e)?);
                        failed[g as usize] = true;
                        continue 'pass;
                    }
                }
            }
            return Ok(reads);
        }
    }

    /// Repair one shard's copy of a table from its peers: copy every
    /// row the shard owns from the first clean replica of each slot,
    /// install it over the corrupt base, and flush — making the repair
    /// durable and deleting the superseded corrupt segment file. The
    /// repair is deliberately *not* WAL-logged: the log holds writes, and
    /// the repair replaces what a corrupt base held; durability comes from
    /// the flush. Called with the global lock held exclusively, by
    /// [`Self::repair_suspects`] only.
    fn repair(&self, st: &GlobalState, bad: u32, table: &str) -> Result<u64, StoreError> {
        // Pre-cutover, a migration target shard also holds dual-applied
        // and copied rows it owns under the *new* topology; the repair
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
        count_heal(&self.obs, bad, "repairs", 1);
        count_heal(&self.obs, bad, "rows", healed);
        Ok(healed)
    }

    /// Repair every table of each suspect shard, and clear its mark: at
    /// every flush (and again for a shard whose flush met rot), in
    /// [`Self::scrub`], and in a `delete_row` whose read marked a
    /// replica. Returns the rows repaired. A repair that fails ends the
    /// pass with its error, leaving its shard (and those after) suspect.
    fn repair_suspects(&self, st: &mut GlobalState) -> Result<u64, StoreError> {
        let mut rows = 0;
        for g in st.suspect.get_mut().clone() {
            // A shrink may have closed the shard since it was marked.
            if (g as usize) < st.shards.len() {
                for table in st.schemas.keys() {
                    rows += self.repair(st, g, table)?;
                }
            }
            st.suspect.get_mut().remove(&g);
        }
        Ok(rows)
    }

    /// The global lock, exclusively, for a mutation: refused once a crash
    /// has poisoned the store.
    fn writer(&self) -> Result<RwLockWriteGuard<'_, GlobalState>, StoreError> {
        let st = self.state.write();
        if st.poisoned {
            return Err(StoreError::Crashed);
        }
        Ok(st)
    }
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
        let topo = Topology::uniform(5, 3);
        for row in [b"alpha".as_slice(), b"beta", b"", b"row0001"] {
            let s = topo.slot_of_row(row);
            assert_eq!(s, topo.slot_of_row(row));
            assert!(s < 5);
            let reps = topo.replicas(s);
            assert_eq!(reps.len(), 3);
            assert_eq!(reps[0], s, "primary is the slot's home shard");
            let unique: BTreeSet<u32> = reps.iter().copied().collect();
            assert_eq!(unique.len(), 3, "replicas are distinct shards");
        }
    }

    /// The cover of every ring topology S × R reads ⌈S/R⌉ shards, and
    /// serves each slot from one of its replicas.
    #[test]
    fn a_ring_cover_reads_the_fewest_shards() {
        for s in 2..=6u32 {
            for r in (1..=3).filter(|&r| r <= s) {
                let topo = Topology::uniform(s, r);
                let cover = read_cover(&topo, &vec![false; s as usize], &BTreeSet::new()).unwrap();
                let read: BTreeSet<u32> = cover.iter().copied().collect();
                assert_eq!(read.len() as u32, s.div_ceil(r), "{s} x R{r}: {cover:?}");
                for (slot, g) in (0..s).zip(&cover) {
                    assert!(topo.replicas(slot).contains(g), "{s} x R{r}: {cover:?}");
                }
            }
        }
        let cover = |topo: &Topology, failed: &[bool], suspect: &[u32]| {
            read_cover(topo, failed, &suspect.iter().copied().collect())
        };
        let ring = Topology::uniform(3, 2);
        assert_eq!(cover(&ring, &[false; 3], &[]), Some(vec![0, 1, 0]));
        // An override plan: slot 3 moves to {0, 4}, so shard 0 serves
        // three slots and shard 2 the other two.
        let plan = Topology::uniform(5, 2).with_override(3, vec![0, 4]);
        assert_eq!(cover(&plan, &[false; 5], &[]), Some(vec![0, 2, 2, 0, 0]));
        // A failed shard is never read; a slot with no live replica
        // leaves no cover.
        assert_eq!(
            cover(&ring, &[true, false, false], &[]),
            Some(vec![1, 1, 2])
        );
        let lone = Topology::uniform(3, 1);
        assert_eq!(cover(&lone, &[false, true, false], &[]), None);
        // A suspect shard is read only for a slot no other live replica
        // serves, and then serves that slot alone.
        assert_eq!(cover(&ring, &[false; 3], &[0]), Some(vec![1, 1, 2]));
        assert_eq!(
            cover(&ring, &[false, true, false], &[0]),
            Some(vec![0, 2, 2])
        );
        assert_eq!(cover(&lone, &[false; 3], &[1]), Some(vec![0, 1, 2]));
    }

    #[test]
    fn shards_catalog_roundtrip_and_opts_override() {
        let dir = tmp_dir("catalog");
        {
            let (store, rep) = ShardedStore::open(
                &dir,
                ShardOptions {
                    shards: 4,
                    replication: 2,
                    ..ShardOptions::default()
                },
                obs::Registry::disabled(),
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
        let (store, _) = ShardedStore::open(
            &dir,
            ShardOptions {
                shards: 7,
                replication: 3,
                ..ShardOptions::default()
            },
            obs::Registry::disabled(),
        )
        .unwrap();
        assert_eq!(store.shard_count(), 4);
        assert_eq!(store.topology().replication, 2);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replicas_hold_identical_copies_and_scan_matches_oracle() {
        let dir = tmp_dir("oracle");
        let (store, _) =
            ShardedStore::open(&dir, ShardOptions::default(), obs::Registry::disabled()).unwrap();
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
            let reps = store.topology().replicas_of_row(row.as_bytes());
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
            let (store, _) =
                ShardedStore::open(&dir, ShardOptions::default(), obs::Registry::disabled())
                    .unwrap();
            seed_rows(&store, 30);
        }
        let (store, rep) =
            ShardedStore::open(&dir, ShardOptions::default(), obs::Registry::disabled()).unwrap();
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
        let (store, _) = ShardedStore::open(&dir, ShardOptions::default(), reg.clone()).unwrap();
        seed_rows(&store, 20);
        let victim = b"row0007";
        let primary = store.topology().replicas_of_row(victim)[0];
        assert!(store.corrupt_cell("t", victim, "f", b"c").unwrap());
        let got = store.get("t", victim).unwrap().expect("row still readable");
        assert_eq!(got.value("f", b"c").unwrap(), &Bytes::from("v7"));
        assert!(store.scrub().unwrap() > 0);
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

    /// A read tries a suspect replica last, but it tries it: here the
    /// other replica of the row is rotted too. Each of the two shards is
    /// then the other's only donor for a slot, so neither can be
    /// repaired: the flush goes on, and the scrub reports it.
    #[test]
    fn get_reads_a_suspect_replica_when_it_is_the_last_one() {
        let dir = tmp_dir("suspect-last");
        let reg = obs::Registry::new();
        let (store, _) = ShardedStore::open(&dir, ShardOptions::default(), reg.clone()).unwrap();
        seed_rows(&store, 20);
        let x = b"row0007";
        let p = store.topology().replicas_of_row(x)[0];
        assert!(store.corrupt_cell("t", x, "f", b"c").unwrap());
        assert!(store.get("t", x).unwrap().is_some());
        // A row whose primary is another shard and whose other replica is
        // the suspect `p`; rot it on its primary.
        let y = (0..20)
            .map(|i| format!("row{i:04}"))
            .find(|r| store.topology().replicas_of_row(r.as_bytes())[1] == p)
            .unwrap();
        let q = store.topology().replicas_of_row(y.as_bytes())[0];
        assert!(store.corrupt_cell("t", y.as_bytes(), "f", b"c").unwrap());
        let got = store.get("t", y.as_bytes()).unwrap().expect("served by p");
        let i: usize = y["row".len()..].parse().unwrap();
        assert_eq!(got.value("f", b"c").unwrap(), &Bytes::from(format!("v{i}")));
        let count =
            |g: u32, what: &str| reg.snapshot().counters[&format!("cfstore.shard.{g}.heal.{what}")];
        assert_eq!((count(p, "reads"), count(q, "reads")), (1, 1));
        store.flush().unwrap();
        assert!(store.scrub().is_err());
        assert!(store.get("t", y.as_bytes()).unwrap().is_some());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn whole_shard_loss_rebuilds_from_peers() {
        let dir = tmp_dir("lost");
        {
            let (store, _) =
                ShardedStore::open(&dir, ShardOptions::default(), obs::Registry::disabled())
                    .unwrap();
            seed_rows(&store, 50);
            store.flush().unwrap();
        }
        let victim_dir = {
            let (store, _) =
                ShardedStore::open(&dir, ShardOptions::default(), obs::Registry::disabled())
                    .unwrap();
            store.shard_dir(1)
        };
        std::fs::remove_dir_all(&victim_dir).unwrap();
        let reg = obs::Registry::new();
        let (store, rep) = ShardedStore::open(&dir, ShardOptions::default(), reg.clone()).unwrap();
        assert_eq!(rep.lost_shards, vec![1]);
        assert!(rep.healed_rows > 0, "the rebuilt shard received rows");
        let (rows, _) = store.scan("t", &Scan::all()).unwrap();
        assert_eq!(rows.len(), 50, "no acked row lost with a whole shard gone");
        let snap = reg.snapshot();
        assert_eq!(snap.counters["cfstore.shard.1.heal.rebuilds"], 1);
        // The rebuilt shard serves its replicas again, identically.
        let (replica_rows, _) = store.shard_scan(1, "t", &Scan::all()).unwrap();
        for row in &replica_rows {
            assert!(store.topology().replicas_of_row(&row.row).contains(&1));
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filters_push_down_through_shards() {
        let dir = tmp_dir("filter");
        let (store, _) =
            ShardedStore::open(&dir, ShardOptions::default(), obs::Registry::disabled()).unwrap();
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
        let (store, _) =
            ShardedStore::open(&dir, ShardOptions::default(), obs::Registry::disabled()).unwrap();
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
