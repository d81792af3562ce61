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
//! an epoch-stamped [`resharding::Topology`]. A [`resharding::Reshard`]
//! plan changes it **online** — grow/shrink N, change R, or rebalance
//! hot slots — via the journaled state machine in [`resharding`]
//! (DESIGN.md §15): reads stay on the old placement until the journaled
//! `Cutover` record, writes are dual-applied to both placements under
//! the same gsn, and a crash at any byte of any WAL or of the
//! `TOPOLOGY` journal reopens into exactly one epoch with the migration
//! resumable.
//!
//! [`Region::install_rows`]: crate::region::Region

pub mod resharding;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::frame;
use crate::kv::{Put, RowResult};
use crate::recovery::{self, io_err, RecoveryError, RecoveryReport};
use crate::region::{RowData, ScanMetrics};
use crate::store::{
    MetaEntry, MiniStore, Scan, ShardOp, StoreError, StoreOptions, DEFAULT_SPLIT_THRESHOLD,
};
use crate::wal::{self, CrashSpec, SyncPolicy, WalRecord, WAL_FILE};

use resharding::{
    Catalog, DonorExports, JournalRecord, JournalWriter, Migration, Pending, Topology,
};

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

/// Wake-up state shared between writers and the sharded flusher.
#[derive(Default)]
struct ShardFlushSignal {
    pending: bool,
    shutdown: bool,
}

/// The vendored `parking_lot` has no `Condvar`, so the flusher handshake
/// uses `std::sync` (same as the single-store flusher).
struct ShardFlusherShared {
    signal: std::sync::Mutex<ShardFlushSignal>,
    cv: std::sync::Condvar,
}

/// Everything behind the global lock: the shards and the write-order
/// state. One lock serializes all batches so gsn order == WAL order on
/// every shard — the commit rule depends on that.
struct GlobalState {
    /// Length = the active shard count, or `max(old, new)` while a
    /// migration is in flight (dual-apply needs both placements open).
    shards: Vec<MiniStore>,
    /// `table → (families, split_threshold)`, mirrored on every shard.
    schemas: BTreeMap<String, (Vec<String>, usize)>,
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
    flush_shared: Option<Arc<ShardFlusherShared>>,
    background_flush_wal_bytes: Option<u64>,
    block_cache_bytes: u64,
    crash_shard: Option<(u32, CrashSpec)>,
    crash_topology: Option<u64>,
}

impl ShardedInner {
    fn obs(&self) -> obs::Registry {
        self.obs.read().clone()
    }

    /// Per-shard open options (also used when a grow creates shards at
    /// runtime). Shard-level flushers stay off: the sharded flusher
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
    flusher: Option<JoinHandle<()>>,
}

// ---------------------------------------------------------------------
// SHARDS catalog file
// ---------------------------------------------------------------------

/// Read the shard catalog: `Ok(None)` when absent (fresh directory),
/// `(shards, replication)` when present and intact. Compatibility
/// wrapper over [`resharding::read_catalog`], which also exposes the
/// epoch and per-slot overrides.
pub fn read_shards_file(dir: &Path) -> Result<Option<(u32, u32)>, RecoveryError> {
    Ok(resharding::read_catalog(dir)?.map(|c| (c.topology.shards, c.topology.replication)))
}

pub(crate) fn shard_dir_name(shard: u32) -> String {
    format!("shard-{shard:03}")
}

// ---------------------------------------------------------------------
// Reopen pre-pass
// ---------------------------------------------------------------------

/// What the raw (pre-`MiniStore::open`) probe of one shard dir found.
struct ProbedShard {
    flushed_lsn: u64,
    /// `(gsn, participants, frame byte offset)` per marker frame, WAL order.
    markers: Vec<(u64, Vec<u32>, u64)>,
    wal_path: PathBuf,
    /// Holds any persistent state at all (manifest or WAL bytes).
    nonempty: bool,
}

enum Probe {
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
    let scan = wal::read_wal(&wal_path).map_err(|e| RecoveryError::Io {
        path: wal_path.display().to_string(),
        source: e,
    })?;
    let mut markers = Vec::new();
    for (i, frame) in scan.frames.iter().enumerate() {
        if let Some(WalRecord::BatchMarker { gsn, participants }) = frame.records.first() {
            markers.push((*gsn, participants.clone(), scan.frame_offsets[i]));
        }
    }
    Ok(Probe::Alive(ProbedShard {
        flushed_lsn: manifest.as_ref().map(|m| m.flushed_lsn).unwrap_or(0),
        markers,
        wal_path,
        nonempty: manifest.is_some() || scan.total_bytes > 0,
    }))
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

    /// Open with an observability registry attached from the first
    /// byte, so rebuild/heal counters from recovery itself are counted.
    /// All shards share the one registry (counters namespaced by
    /// `cfstore.shard.<id>.*` where a per-shard split matters).
    pub fn open_traced(
        dir: &Path,
        opts: ShardOptions,
        reg: obs::Registry,
    ) -> Result<(Self, ShardedRecoveryReport), RecoveryError> {
        std::fs::create_dir_all(dir).map_err(|e| RecoveryError::Io {
            path: dir.display().to_string(),
            source: e,
        })?;
        let topo_path = dir.join(resharding::TOPOLOGY_FILE);
        let topo_corrupt = |detail: String| recovery::corrupt_file(&topo_path, detail);
        // The on-disk catalog wins over the options: the topology only
        // changes through the journaled reshard protocol.
        let journal = resharding::read_journal(dir)?;
        let catalog = match resharding::read_catalog(dir)? {
            Some(c) => c,
            None => {
                if journal.is_some() {
                    return Err(topo_corrupt(
                        "TOPOLOGY journal present without a SHARDS catalog".to_string(),
                    ));
                }
                let c = Catalog {
                    topology: Topology::uniform(opts.shards, opts.replication),
                    epoch: 0,
                };
                c.topology
                    .validate()
                    .map_err(|detail| RecoveryError::InconsistentLog { detail })?;
                resharding::write_catalog(dir, &c).map_err(|e| RecoveryError::Io {
                    path: dir.join(SHARDS_FILE).display().to_string(),
                    source: e,
                })?;
                c
            }
        };
        catalog
            .topology
            .validate()
            .map_err(|detail| RecoveryError::InconsistentLog { detail })?;

        // ---- Resolve the resharding journal against the catalog ----
        let mut pending = Pending::None;
        if let Some(scan) = journal {
            if scan.valid_bytes < scan.total_bytes {
                // Torn tail: truncate it away before any writer appends.
                frame::truncate_and_sync(&topo_path, scan.valid_bytes)
                    .map_err(|e| io_err(&topo_path, e))?;
            }
            pending = resharding::resolve_against_catalog(&catalog, &scan.records)
                .map_err(topo_corrupt)?;
            if pending == Pending::None {
                // A crash tore the header or the Begin record: no
                // migration ever started; drop the empty journal.
                std::fs::remove_file(&topo_path).map_err(|e| io_err(&topo_path, e))?;
            }
        }
        // The placement reads use, and how many shard dirs to probe.
        let (active, active_epoch) = match &pending {
            Pending::None | Pending::PreCutover { .. } => (catalog.topology.clone(), catalog.epoch),
            Pending::PostCutover { epoch, target, .. } => (target.clone(), *epoch),
        };
        let n_total = match &pending {
            Pending::PreCutover { target, .. } => active.shards.max(target.shards),
            _ => active.shards,
        };

        // ---- Phase A: raw pre-pass — commit rule, WAL truncation ----
        let n = n_total;
        let mut probes = Vec::with_capacity(n as usize);
        for g in 0..n {
            probes.push(probe_shard(&dir.join(shard_dir_name(g)))?);
        }
        let any_nonempty = probes.iter().any(|p| match p {
            Probe::Alive(ps) => ps.nonempty,
            Probe::Corrupt => true,
            Probe::Missing => false,
        });
        // A shard is lost when it has no usable state while its peers
        // do. When *nothing* is nonempty this is a fresh store and
        // every shard simply opens empty.
        let mut lost: BTreeSet<u32> = BTreeSet::new();
        for (g, p) in probes.iter().enumerate() {
            let is_lost = match p {
                Probe::Missing | Probe::Corrupt => any_nonempty,
                Probe::Alive(ps) => any_nonempty && !ps.nonempty,
            };
            if is_lost {
                lost.insert(g as u32);
            }
        }

        // gsn G committed ⇔ every surviving participant holds its frame
        // or has flushed past it. Lost shards cannot veto (their vote is
        // unknowable; survivors' frames are the authority).
        let committed = |gsn: u64, participants: &[u32]| -> bool {
            participants.iter().all(|&p| {
                if p >= n || lost.contains(&p) {
                    return true;
                }
                match &probes[p as usize] {
                    Probe::Alive(ps) => {
                        ps.markers.iter().any(|(g, _, _)| *g == gsn)
                            || ps.flushed_lsn >= gsn * LSN_STRIDE
                    }
                    // Non-alive but not in `lost` only happens when
                    // nothing is nonempty — then no markers exist and
                    // this closure is never reached.
                    _ => true,
                }
            })
        };

        let mut aborted: BTreeSet<u64> = BTreeSet::new();
        let mut max_gsn: u64 = 0;
        for (g, p) in probes.iter().enumerate() {
            let ps = match p {
                Probe::Alive(ps) if !lost.contains(&(g as u32)) => ps,
                _ => continue,
            };
            max_gsn = max_gsn.max(ps.flushed_lsn / LSN_STRIDE);
            let mut cut: Option<u64> = None;
            for (gsn, participants, offset) in &ps.markers {
                if committed(*gsn, participants) {
                    debug_assert!(
                        cut.is_none(),
                        "committed gsn {gsn} after an uncommitted one: \
                         the global lock should make that impossible"
                    );
                    max_gsn = max_gsn.max(*gsn);
                } else {
                    aborted.insert(*gsn);
                    if cut.is_none() {
                        cut = Some(*offset);
                    }
                }
            }
            if let Some(offset) = cut {
                frame::truncate_and_sync(&ps.wal_path, offset)
                    .map_err(|e| io_err(&ps.wal_path, e))?;
            }
        }

        // ---- Phase B: open surviving shards ----
        let shard_opts = |g: u32| StoreOptions {
            sync: SyncPolicy::EveryOp,
            crash: match &opts.crash_shard {
                Some((victim, spec)) if *victim == g => spec.clone(),
                _ => CrashSpec::default(),
            },
            block_cache_bytes: opts.block_cache_bytes,
            // Shard-level flushers stay off: the sharded flusher drives
            // per-shard flushes so they serialize under the global lock.
            background_flush_wal_bytes: None,
        };
        let mut opened: Vec<Option<(MiniStore, RecoveryReport)>> = (0..n).map(|_| None).collect();
        for g in 0..n {
            if lost.contains(&g) {
                continue;
            }
            match MiniStore::open_with_opts(&dir.join(shard_dir_name(g)), shard_opts(g)) {
                Ok(pair) => opened[g as usize] = Some(pair),
                // At-rest corruption below the manifest level: the shard
                // opened its catalog but a referenced segment fails
                // verification — reclassify as lost and rebuild.
                Err(RecoveryError::Segment(_)) | Err(RecoveryError::ManifestCorrupt { .. }) => {
                    lost.insert(g);
                }
                Err(e) => return Err(e),
            }
        }

        // Every *active* slot must keep at least one surviving replica,
        // or data is unrecoverable and pretending otherwise would be
        // silent loss. (Losing a target-only shard pre-cutover is fine:
        // its unit is invalidated and re-copied from the active epoch.)
        if any_nonempty {
            for s in 0..active.shards {
                let reps = active.replicas(s);
                if reps.iter().all(|g| lost.contains(g)) {
                    return Err(RecoveryError::InconsistentLog {
                        detail: format!("slot {s} lost all replicas ({reps:?}); cannot rebuild"),
                    });
                }
            }
        }

        // ---- Phase C: rebuild lost shards from their peers ----
        for g in 0..n {
            if !lost.contains(&g) {
                continue;
            }
            let d = dir.join(shard_dir_name(g));
            match std::fs::remove_dir_all(&d) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(RecoveryError::Io {
                        path: d.display().to_string(),
                        source: e,
                    })
                }
            }
            let pair = MiniStore::open_with_opts(&d, shard_opts(g))?;
            opened[g as usize] = Some(pair);
        }
        let mut shards: Vec<MiniStore> = Vec::with_capacity(n as usize);
        let mut reports: Vec<RecoveryReport> = Vec::with_capacity(n as usize);
        for slot in opened {
            let (mut store, report) = slot.expect("every shard opened or rebuilt");
            store.set_obs(reg.clone());
            shards.push(store);
            reports.push(report);
        }

        let schemas: BTreeMap<String, (Vec<String>, usize)> = shards
            .iter()
            .enumerate()
            .find(|(g, _)| !lost.contains(&(*g as u32)))
            .map(|(_, s)| s.table_schemas())
            .unwrap_or_default()
            .into_iter()
            .map(|(name, families, threshold)| (name, (families, threshold)))
            .collect();

        let mut healed_rows: u64 = 0;
        if !lost.is_empty() {
            let io = |e: StoreError| RecoveryError::Io {
                path: dir.display().to_string(),
                source: std::io::Error::other(format!("shard rebuild: {e}")),
            };
            // One donor export cache feeds every lost shard. A rebuilt
            // shard receives its *active*-topology ownership; target-epoch
            // content it held pre-crash is restored by re-copying its
            // unit (journaled as `Invalidated` below).
            let mut exports = DonorExports::new();
            for &b in &lost {
                for (table, (families, threshold)) in &schemas {
                    let fams: Vec<&str> = families.iter().map(|f| f.as_str()).collect();
                    shards[b as usize]
                        .create_table_with_threshold(table, &fams, *threshold)
                        .map_err(io)?;
                    let mut rows: BTreeMap<Bytes, RowData> = BTreeMap::new();
                    for s in (0..active.shards).filter(|s| active.replicas(*s).contains(&b)) {
                        rows.extend(
                            resharding::export_slot_from_peers(
                                &shards,
                                &active,
                                s,
                                table,
                                &lost,
                                &mut exports,
                            )
                            .map_err(io)?,
                        );
                    }
                    healed_rows += shards[b as usize].heal_table(table, rows).map_err(io)?;
                }
                reg.incr(&format!("cfstore.shard.{b}.heal.rebuilds"), 1);
                reg.incr("cfstore.shard.heal.rebuilds", 1);
            }
            if healed_rows > 0 {
                for &b in &lost {
                    reg.incr(&format!("cfstore.shard.{b}.heal.rows"), healed_rows);
                }
                reg.incr("cfstore.shard.heal.rows", healed_rows);
            }
            // Flush EVERYTHING: survivors may still hold WAL frames whose
            // participant sets name the rebuilt shards. The rebuilt WALs
            // will never contain those gsns, so leaving the survivors'
            // frames in place would make committed batches look
            // uncommitted at the *next* reopen. Flushing moves every
            // shard's flushed_lsn past them.
            for store in &shards {
                store.flush().map_err(io)?;
            }
        }

        // ---- Phase D: global counters, report, flusher ----
        let clock = shards
            .iter()
            .map(|s| s.clock_value())
            .max()
            .unwrap_or(1)
            .max(1);
        let next_gsn = max_gsn + 1;
        let mut total = RecoveryReport::default();
        for rep in &reports {
            total.merge(rep);
        }

        // ---- Reconstruct the in-flight migration from the journal ----
        let io_store = |e: StoreError| RecoveryError::Io {
            path: topo_path.display().to_string(),
            source: std::io::Error::other(format!("resharding journal: {e}")),
        };
        let migration = match pending {
            Pending::None => None,
            Pending::PreCutover {
                epoch,
                target,
                mut copied,
                mut verified,
            } => {
                let mut journal =
                    JournalWriter::open_existing(dir, opts.crash_topology).map_err(io_store)?;
                // A lost shard was rebuilt with active-epoch content
                // only: any `Copied` claim it held is now false, so
                // journal the invalidation and re-copy on resume.
                for &b in &lost {
                    if copied.remove(&b) {
                        journal
                            .append(&JournalRecord::Invalidated { epoch, unit: b })
                            .map_err(io_store)?;
                        verified = false;
                    }
                }
                Some(Migration {
                    epoch,
                    target,
                    copied,
                    verified,
                    cut_over: false,
                    gc_pruned: false,
                    catalog_swapped: false,
                    rows_copied: 0,
                    journal,
                })
            }
            Pending::PostCutover {
                epoch,
                target,
                swapped,
            } => {
                let journal =
                    JournalWriter::open_existing(dir, opts.crash_topology).map_err(io_store)?;
                Some(Migration {
                    epoch,
                    copied: (0..target.shards).collect(),
                    target,
                    verified: true,
                    cut_over: true,
                    gc_pruned: swapped,
                    catalog_swapped: swapped,
                    rows_copied: 0,
                    journal,
                })
            }
        };
        let reshard_in_flight = migration.as_ref().map(|m| m.epoch);
        if reshard_in_flight.is_some() {
            reg.incr("cfstore.reshard.resumes", 1);
        }
        let report = ShardedRecoveryReport {
            shards: reports,
            total,
            lost_shards: lost.iter().copied().collect(),
            aborted_batches: aborted.len() as u64,
            healed_rows,
            reshard_in_flight,
        };

        let flush_shared = opts.background_flush_wal_bytes.map(|_| {
            Arc::new(ShardFlusherShared {
                signal: std::sync::Mutex::new(ShardFlushSignal::default()),
                cv: std::sync::Condvar::new(),
            })
        });
        let inner = Arc::new(ShardedInner {
            dir: dir.to_path_buf(),
            state: Mutex::new(GlobalState {
                shards,
                schemas,
                next_gsn,
                clock,
                poisoned: false,
                active,
                epoch: active_epoch,
                migration,
            }),
            obs: RwLock::new(reg),
            flush_shared: flush_shared.clone(),
            background_flush_wal_bytes: opts.background_flush_wal_bytes,
            block_cache_bytes: opts.block_cache_bytes,
            crash_shard: opts.crash_shard.clone(),
            crash_topology: opts.crash_topology,
        });
        let flusher = flush_shared.map(|shared| {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("cfstore-shard-flusher".to_string())
                .spawn(move || shard_flusher_loop(inner, shared))
                .expect("spawn sharded background flusher")
        });
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
        let ops = vec![ShardOp::CreateTable {
            name: name.to_string(),
            families: fams.clone(),
            split_threshold: split_threshold as u64,
        }];
        let per_shard: BTreeMap<u32, Vec<ShardOp>> =
            participants.iter().map(|&g| (g, ops.clone())).collect();
        Self::commit_batch(inner, &mut st, &participants, &per_shard)?;
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
        let mut per_shard: BTreeMap<u32, Vec<ShardOp>> = BTreeMap::new();
        for put in puts {
            let ts = st.clock;
            st.clock += 1;
            // Dual-apply during a migration: the same stamped cell goes
            // to the old and new replica sets under one gsn, so every
            // copy — either epoch — stays bit-identical.
            for g in st.write_replicas(&put.row) {
                per_shard.entry(g).or_default().push(ShardOp::Put {
                    table: table.to_string(),
                    put: put.clone(),
                    timestamp: ts,
                });
            }
        }
        let participants: Vec<u32> = per_shard.keys().copied().collect();
        // Materialize target regions up front: at-rest corruption must
        // surface (and heal) *before* any WAL append, because puts are
        // not idempotent and a half-applied batch cannot be retried.
        for (&g, ops) in &per_shard {
            let rows: Vec<Bytes> = ops
                .iter()
                .filter_map(|op| match op {
                    ShardOp::Put { put, .. } => Some(put.row.clone()),
                    _ => None,
                })
                .collect();
            if let Err(e) = st.shards[g as usize].prepare_rows(table, &rows) {
                match e {
                    StoreError::Corruption { .. } | StoreError::SegmentCorrupt { .. } => {
                        let o = inner.obs();
                        o.incr(&format!("cfstore.shard.{g}.heal.reads"), 1);
                        o.incr("cfstore.shard.heal.reads", 1);
                        Self::heal_shard_table(inner, &mut st, g, table)?;
                        st.shards[g as usize].prepare_rows(table, &rows)?;
                    }
                    _ => return Err(e),
                }
            }
        }
        Self::commit_batch(inner, &mut st, &participants, &per_shard)?;
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
        let ops = vec![ShardOp::DeleteRow {
            table: table.to_string(),
            row: Bytes::copy_from_slice(row),
        }];
        let per_shard: BTreeMap<u32, Vec<ShardOp>> =
            participants.iter().map(|&g| (g, ops.clone())).collect();
        Self::commit_batch(inner, &mut st, &participants, &per_shard)?;
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
            match st.shards[g as usize].get(table, row) {
                Ok(res) => return Ok(res),
                Err(e @ (StoreError::Corruption { .. } | StoreError::SegmentCorrupt { .. })) => {
                    let o = inner.obs();
                    o.incr(&format!("cfstore.shard.{g}.heal.reads"), 1);
                    o.incr("cfstore.shard.heal.reads", 1);
                    match Self::heal_shard_table(inner, st, g, table) {
                        Ok(_) => match st.shards[g as usize].get(table, row) {
                            Ok(res) => return Ok(res),
                            Err(e2) => last_err = Some(e2),
                        },
                        // Heal could not complete (e.g. the shard is
                        // crash-poisoned and cannot flush): keep serving
                        // from the next replica.
                        Err(_) => last_err = Some(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
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
            let outcome = match st.shards[g as usize].scan(table, scan) {
                Ok(ok) => Some(ok),
                Err(e @ (StoreError::Corruption { .. } | StoreError::SegmentCorrupt { .. })) => {
                    let o = inner.obs();
                    o.incr(&format!("cfstore.shard.{g}.heal.reads"), 1);
                    o.incr("cfstore.shard.heal.reads", 1);
                    match Self::heal_shard_table(inner, &mut st, g, table) {
                        Ok(_) => match st.shards[g as usize].scan(table, scan) {
                            Ok(ok) => Some(ok),
                            Err(e2) => {
                                last_err = Some(e2);
                                None
                            }
                        },
                        Err(_) => {
                            last_err = Some(e);
                            None
                        }
                    }
                }
                Err(e) => return Err(e),
            };
            if let Some((rows, m)) = outcome {
                metrics.merge(m);
                per_shard[g as usize] = Some(rows);
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

    /// Frame-and-apply one batch: append the frame (marker first) to
    /// every participant's WAL, then apply it everywhere. Any failure
    /// after the first byte of the first append poisons the store — the
    /// shards' WALs now disagree and only the reopen commit rule may
    /// reconcile them.
    fn commit_batch(
        inner: &ShardedInner,
        st: &mut GlobalState,
        participants: &[u32],
        per_shard: &BTreeMap<u32, Vec<ShardOp>>,
    ) -> Result<(), StoreError> {
        let gsn = st.next_gsn;
        st.next_gsn += 1;
        let lsn_base = gsn * LSN_STRIDE;
        let mut frames: Vec<(u32, Vec<WalRecord>)> = Vec::with_capacity(per_shard.len());
        for (&g, ops) in per_shard {
            match st.shards[g as usize].append_sharded_frame(lsn_base, gsn, participants, ops) {
                Ok(records) => frames.push((g, records)),
                Err(e) => {
                    st.poisoned = true;
                    return Err(e);
                }
            }
        }
        for (g, records) in &frames {
            if let Err(e) = st.shards[*g as usize].apply_sharded_records(records) {
                st.poisoned = true;
                return Err(e);
            }
        }
        let _ = inner;
        Ok(())
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
        let active = st.active.clone();
        // Pre-cutover, a migration target shard also holds dual-applied
        // and copied rows it owns under the *new* topology; the heal
        // must restore those too or a completed Copy unit would lose
        // rows silently. Post-cutover (and with no migration) the
        // active topology is the only owner set.
        let target_pre = st
            .migration
            .as_ref()
            .filter(|m| !m.cut_over)
            .map(|m| m.target.clone());
        let mut rows: BTreeMap<Bytes, RowData> = BTreeMap::new();
        let (mut exports, skip) = (DonorExports::new(), BTreeSet::from([bad]));
        for s in 0..active.shards {
            let bad_active = active.replicas(s).contains(&bad);
            if !bad_active && target_pre.is_none() {
                continue;
            }
            let slot_rows = resharding::export_slot_from_peers(
                &st.shards,
                &active,
                s,
                table,
                &skip,
                &mut exports,
            )?;
            for (row, data) in slot_rows {
                if bad_active || target_pre.as_ref().is_some_and(|t| t.owns(bad, &row)) {
                    rows.insert(row, data);
                }
            }
        }
        let healed = st.shards[bad as usize].heal_table(table, rows)?;
        // Durability of the repair, and the moment the bad on-disk copy
        // is rewritten (the superseded segment file is deleted).
        st.shards[bad as usize].flush()?;
        let o = inner.obs();
        o.incr(&format!("cfstore.shard.{bad}.heal.repairs"), 1);
        o.incr(&format!("cfstore.shard.{bad}.heal.rows"), healed);
        o.incr("cfstore.shard.heal.repairs", 1);
        o.incr("cfstore.shard.heal.rows", healed);
        Ok(healed)
    }

    fn maybe_wake_flusher(&self, st: &GlobalState) {
        let (Some(threshold), Some(shared)) = (
            self.inner.background_flush_wal_bytes,
            self.inner.flush_shared.as_ref(),
        ) else {
            return;
        };
        if st
            .shards
            .iter()
            .any(|s| s.wal_bytes_since_flush() >= threshold)
        {
            shared
                .signal
                .lock()
                .expect("sharded flusher signal lock")
                .pending = true;
            shared.cv.notify_all();
        }
    }
}

impl Drop for ShardedStore {
    fn drop(&mut self) {
        if let Some(handle) = self.flusher.take() {
            if let Some(shared) = &self.inner.flush_shared {
                shared
                    .signal
                    .lock()
                    .expect("sharded flusher signal lock")
                    .shutdown = true;
                shared.cv.notify_all();
            }
            let _ = handle.join();
        }
    }
}

/// The sharded background flusher: one thread for the whole store,
/// flushing any shard whose WAL outgrew the threshold. Flushes run
/// under the global lock — they serialize with writers exactly like a
/// caller-driven [`ShardedStore::flush`], so crash safety reduces to
/// the single-store argument.
fn shard_flusher_loop(inner: Arc<ShardedInner>, shared: Arc<ShardFlusherShared>) {
    let threshold = inner
        .background_flush_wal_bytes
        .expect("flusher only runs with a threshold");
    loop {
        {
            let mut sig = shared.signal.lock().expect("sharded flusher signal lock");
            while !sig.pending && !sig.shutdown {
                sig = shared.cv.wait(sig).expect("sharded flusher signal wait");
            }
            if sig.shutdown {
                return;
            }
            sig.pending = false;
        }
        let mut st = inner.state.lock();
        if st.poisoned {
            continue;
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
        assert_eq!(read_shards_file(&dir).unwrap(), Some((4, 2)));
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
