//! Online, crash-proven topology changes for [`ShardedStore`]
//! (DESIGN.md §15).
//!
//! A target [`Topology`] — grow/shrink N, change R, or rebalance hot
//! slots — is reached as an epoch-stamped state machine journaled in the
//! `TOPOLOGY` file next to the `SHARDS` catalog:
//!
//! ```text
//! Prepare ── Begin{epoch, old, new}         (journal append, new dirs)
//!    │
//! Copy ───── Copied{epoch, unit} per unit   (merge-install + flush)
//!    │
//! Verify ─── Verified{epoch}                (target vs. old-placement truth)
//!    │
//! Cutover ── Cutover{epoch}                 (THE atomic commit point)
//!    │
//! GC ─────── prune → swap SHARDS → cleanup  (idempotent, journal deleted)
//! ```
//!
//! Between `Begin` and `Cutover` the store keeps serving: reads consult
//! the old-epoch placement only, while writes are **dual-applied** to
//! the union of old and new replica sets under the same global gsn and
//! clock, so every copy of a row stays bit-identical. Appending the
//! `Cutover` record is the commit point: a crash that tears it reopens
//! into the old epoch, a crash after it reopens into the new one, and
//! in either case the journal makes the migration resumable — every
//! step is idempotent, so redoing a half-finished unit is harmless.
//!
//! The journal is [`crate::frame`]s behind a file magic, like the WAL: a
//! torn tail is truncated and resolved, while a
//! CRC-valid-but-undecodable record or a bad file magic is *unresolvable*
//! — no crash of our writer can produce it — and `store_fsck` reports it
//! with exit code 3.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use bytes::{BufMut, Bytes};

use super::{
    mirror_schemas, remove_if_present, shard_dir_id, shard_dir_name, GlobalState, ShardedInner,
    ShardedMeta, ShardedStore,
};
use crate::encoding::CodecError;
use crate::frame::{self, CrashWriter, Cursor, ScanStop, WriteError};
use crate::recovery::{corrupt_file, io_err, read_framed_file, RecoveryError};
use crate::region::RowData;
use crate::store::{Install, MiniStore, StoreError};

/// The resharding journal file at the root of a sharded store directory.
pub const TOPOLOGY_FILE: &str = "TOPOLOGY";
/// `"TOP1"` — magic prefix of the journal file.
const TOPOLOGY_MAGIC: u32 = 0x544f_5031;

// ---------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------

/// A placement topology: shard count, replication factor, and optional
/// per-slot replica-set overrides (the rebalance mechanism — a hot slot
/// can be pinned to an explicit replica set instead of the default
/// `{s, s+1, …}` window).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    pub shards: u32,
    pub replication: u32,
    /// `slot → replica set` exceptions to the modular default.
    pub overrides: BTreeMap<u32, Vec<u32>>,
}

impl Topology {
    /// The default modular placement with no overrides.
    pub fn uniform(shards: u32, replication: u32) -> Self {
        Topology {
            shards,
            replication,
            overrides: BTreeMap::new(),
        }
    }

    /// Pin one slot's replica set explicitly.
    pub fn with_override(mut self, slot: u32, replicas: Vec<u32>) -> Self {
        self.overrides.insert(slot, replicas);
        self
    }

    /// The slot a row key hashes to under this topology.
    pub fn slot_of_row(&self, row: &[u8]) -> u32 {
        super::slot_of(row, self.shards)
    }

    /// The replica set of a slot, primary first.
    pub fn replicas(&self, slot: u32) -> Vec<u32> {
        match self.overrides.get(&slot) {
            Some(set) => set.clone(),
            None => super::replica_set(slot, self.shards, self.replication),
        }
    }

    /// The replica set of a row, primary first.
    pub fn replicas_of_row(&self, row: &[u8]) -> Vec<u32> {
        self.replicas(self.slot_of_row(row))
    }

    /// Whether `shard` holds a copy of `row` under this topology.
    pub fn owns(&self, shard: u32, row: &[u8]) -> bool {
        self.replicas_of_row(row).contains(&shard)
    }

    /// Structural validity: `1 ≤ R ≤ N`, overrides name real slots and
    /// distinct in-range shards, and each override keeps R copies.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 || self.replication == 0 || self.replication > self.shards {
            return Err(format!(
                "invalid shard layout: {} shards, replication {}",
                self.shards, self.replication
            ));
        }
        for (slot, set) in &self.overrides {
            if *slot >= self.shards {
                return Err(format!("override for slot {slot} ≥ {} shards", self.shards));
            }
            let unique: BTreeSet<u32> = set.iter().copied().collect();
            if set.len() != self.replication as usize
                || unique.len() != set.len()
                || set.iter().any(|g| *g >= self.shards)
            {
                return Err(format!(
                    "override for slot {slot} must name {} distinct shards < {}",
                    self.replication, self.shards
                ));
            }
        }
        Ok(())
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u32(self.shards);
        out.put_u32(self.replication);
        put_overrides(out, &self.overrides);
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self, CodecError> {
        Ok(Topology {
            shards: c.u32()?,
            replication: c.u32()?,
            overrides: read_overrides(c)?,
        })
    }
}

/// `count · (slot · replica count · replicas)*`, shared by the journal's
/// `Begin` record and the v2 catalog body.
fn put_overrides(out: &mut Vec<u8>, overrides: &BTreeMap<u32, Vec<u32>>) {
    out.put_u32(overrides.len() as u32);
    for (slot, set) in overrides {
        out.put_u32(*slot);
        out.put_u32(set.len() as u32);
        for g in set {
            out.put_u32(*g);
        }
    }
}

fn read_overrides(c: &mut Cursor<'_>) -> Result<BTreeMap<u32, Vec<u32>>, CodecError> {
    let mut overrides = BTreeMap::new();
    for _ in 0..c.count(8)? {
        overrides.insert(c.u32()?, c.seq(4, Cursor::u32)?);
    }
    Ok(overrides)
}

// ---------------------------------------------------------------------
// SHARDS catalog v2
// ---------------------------------------------------------------------

/// The decoded `SHARDS` catalog: the steady-state topology and the
/// epoch of the last completed reshard (0 at creation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Catalog {
    pub topology: Topology,
    pub epoch: u64,
}

impl Catalog {
    /// Epoch-0 topologies with no overrides use the original 8-byte v1
    /// body so pre-reshard layouts stay byte-identical; anything richer
    /// appends `epoch · overrides`.
    fn encode(&self, body: &mut Vec<u8>) {
        body.put_u32(self.topology.shards);
        body.put_u32(self.topology.replication);
        if self.epoch != 0 || !self.topology.overrides.is_empty() {
            body.put_u64(self.epoch);
            put_overrides(body, &self.topology.overrides);
        }
    }

    /// Both the v1 8-byte body and the extended one decode.
    fn decode(body: &[u8]) -> Result<Self, CodecError> {
        let mut c = Cursor::new(body);
        let shards = c.u32()?;
        let replication = c.u32()?;
        let (epoch, overrides) = match c.remaining() {
            0 => (0, BTreeMap::new()),
            _ => (c.u64()?, read_overrides(&mut c)?),
        };
        c.finish()?;
        Ok(Catalog {
            topology: Topology {
                shards,
                replication,
                overrides,
            },
            epoch,
        })
    }
}

/// Write the catalog atomically ([`frame::write_file_atomic`]).
pub(crate) fn write_catalog(dir: &Path, catalog: &Catalog) -> std::io::Result<()> {
    frame::write_file_atomic(&dir.join(super::SHARDS_FILE), super::SHARDS_MAGIC, |b| {
        catalog.encode(b)
    })
}

/// Read the catalog: `Ok(None)` when absent (fresh directory).
pub fn read_catalog(dir: &Path) -> Result<Option<Catalog>, RecoveryError> {
    read_framed_file(
        &dir.join(super::SHARDS_FILE),
        super::SHARDS_MAGIC,
        Catalog::decode,
    )
}

// ---------------------------------------------------------------------
// TOPOLOGY journal
// ---------------------------------------------------------------------

/// One journal record. The writer appends them strictly in protocol
/// order; [`resolve_against_catalog`] rejects any sequence the protocol
/// cannot produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A reshard began: old and new topologies, stamped with the epoch
    /// the new topology will carry.
    Begin {
        epoch: u64,
        old: Topology,
        new: Topology,
    },
    /// Target shard `unit` holds (and has flushed) its complete
    /// new-epoch ownership.
    Copied { epoch: u64, unit: u32 },
    /// A previously-`Copied` unit lost its shard to a crash; reopen
    /// appends this so the resume re-copies it.
    Invalidated { epoch: u64, unit: u32 },
    /// Every unit compared clean against old-placement truth.
    Verified { epoch: u64 },
    /// THE commit point: reads and writes switch to the new topology.
    Cutover { epoch: u64 },
}

const TAG_BEGIN: u8 = 1;
const TAG_COPIED: u8 = 2;
const TAG_INVALIDATED: u8 = 3;
const TAG_VERIFIED: u8 = 4;
const TAG_CUTOVER: u8 = 5;

impl JournalRecord {
    fn encode(&self, b: &mut Vec<u8>) {
        let (tag, epoch) = match self {
            JournalRecord::Begin { epoch, .. } => (TAG_BEGIN, epoch),
            JournalRecord::Copied { epoch, .. } => (TAG_COPIED, epoch),
            JournalRecord::Invalidated { epoch, .. } => (TAG_INVALIDATED, epoch),
            JournalRecord::Verified { epoch } => (TAG_VERIFIED, epoch),
            JournalRecord::Cutover { epoch } => (TAG_CUTOVER, epoch),
        };
        b.put_u8(tag);
        b.put_u64(*epoch);
        match self {
            JournalRecord::Begin { old, new, .. } => {
                old.encode(b);
                new.encode(b);
            }
            JournalRecord::Copied { unit, .. } | JournalRecord::Invalidated { unit, .. } => {
                b.put_u32(*unit)
            }
            JournalRecord::Verified { .. } | JournalRecord::Cutover { .. } => {}
        }
    }

    fn decode(body: &[u8]) -> Result<Self, CodecError> {
        let mut c = Cursor::new(body);
        let tag = c.u8()?;
        let epoch = c.u64()?;
        let rec = match tag {
            TAG_BEGIN => JournalRecord::Begin {
                epoch,
                old: Topology::decode(&mut c)?,
                new: Topology::decode(&mut c)?,
            },
            TAG_COPIED => JournalRecord::Copied {
                epoch,
                unit: c.u32()?,
            },
            TAG_INVALIDATED => JournalRecord::Invalidated {
                epoch,
                unit: c.u32()?,
            },
            TAG_VERIFIED => JournalRecord::Verified { epoch },
            TAG_CUTOVER => JournalRecord::Cutover { epoch },
            t => return Err(CodecError::BadTag(t)),
        };
        c.finish()?;
        Ok(rec)
    }
}

/// What a raw read of the `TOPOLOGY` file found.
#[derive(Debug)]
pub struct JournalScan {
    /// Intact records, append order (the torn tail is dropped).
    pub records: Vec<JournalRecord>,
    /// Bytes up to the end of the last intact frame; reopen truncates
    /// the file here before resuming.
    pub valid_bytes: u64,
    /// Physical file length.
    pub total_bytes: u64,
}

/// Read the journal. `Ok(None)` when absent. A torn tail (short frame,
/// CRC mismatch, or a header shorter than the magic) is *resolvable* —
/// it is dropped and reported via `valid_bytes < total_bytes`. A wrong
/// magic or a CRC-valid record that fails to decode is **unresolvable**
/// (no crash of our writer produces it) and errors.
pub fn read_journal(dir: &Path) -> Result<Option<JournalScan>, RecoveryError> {
    let path = dir.join(TOPOLOGY_FILE);
    let Some(data) = frame::read_optional(&path).map_err(|e| io_err(&path, e))? else {
        return Ok(None);
    };
    let total_bytes = data.len() as u64;
    // A header torn before its fourth byte: nothing usable, nothing
    // migrating.
    let Some(magic) = data.first_chunk::<4>() else {
        return Ok(Some(JournalScan {
            records: Vec::new(),
            valid_bytes: 0,
            total_bytes,
        }));
    };
    if *magic != TOPOLOGY_MAGIC.to_be_bytes() {
        return Err(corrupt_file(&path, "bad TOPOLOGY magic"));
    }
    let scan = frame::scan_log(&data, magic.len(), JournalRecord::decode);
    if let Some(ScanStop::Record(e)) = scan.stop {
        let detail = format!(
            "CRC-valid record at offset {} does not decode ({e}) — \
             not producible by a crash",
            scan.valid_bytes
        );
        return Err(corrupt_file(&path, detail));
    }
    Ok(Some(JournalScan {
        records: scan.records,
        valid_bytes: scan.valid_bytes,
        total_bytes,
    }))
}

/// What the journal means for a store whose `SHARDS` catalog it is held
/// against: which topology serves, and what is left to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pending {
    /// No migration.
    None,
    /// The catalog's (old) topology serves; `copied` units of `target`
    /// can be skipped on resume.
    PreCutover {
        epoch: u64,
        target: Topology,
        copied: BTreeSet<u32>,
        verified: bool,
    },
    /// `target` serves; GC remains — the catalog swap itself unless
    /// `swapped`, then the cleanup.
    PostCutover {
        epoch: u64,
        target: Topology,
        swapped: bool,
    },
}

/// Resolve a journal's intact records against the catalog next to it.
/// The one place that decides this — reopen and `store_fsck` both call
/// it — and that rejects a record sequence the protocol's writer cannot
/// have produced, or one the catalog contradicts (no crash of the writer
/// leaves the two disagreeing): those are unresolvable corruption, not
/// crash states.
pub fn resolve_against_catalog(
    catalog: &Catalog,
    records: &[JournalRecord],
) -> Result<Pending, String> {
    // No `Begin` record — no migration (an empty or header-only file
    // left by a crash during `Prepare`; reopen deletes it).
    let Some(first) = records.first() else {
        return Ok(Pending::None);
    };
    let JournalRecord::Begin { epoch, old, new } = first else {
        return Err("journal does not start with Begin".to_string());
    };
    old.validate()?;
    new.validate()?;
    let epoch = *epoch;
    let mut copied: BTreeSet<u32> = BTreeSet::new();
    let mut verified = false;
    let mut cut_over = false;
    for rec in &records[1..] {
        if cut_over {
            return Err("journal records after Cutover".to_string());
        }
        match rec {
            JournalRecord::Begin { .. } => return Err("second Begin in journal".to_string()),
            JournalRecord::Copied { epoch: e, unit } => {
                if *e != epoch || *unit >= new.shards {
                    return Err(format!("Copied({e}, {unit}) contradicts Begin"));
                }
                copied.insert(*unit);
            }
            JournalRecord::Invalidated { epoch: e, unit } => {
                if *e != epoch || *unit >= new.shards {
                    return Err(format!("Invalidated({e}, {unit}) contradicts Begin"));
                }
                copied.remove(unit);
                verified = false;
            }
            JournalRecord::Verified { epoch: e } => {
                if *e != epoch {
                    return Err(format!("Verified({e}) contradicts Begin epoch {epoch}"));
                }
                verified = true;
            }
            JournalRecord::Cutover { epoch: e } => {
                if *e != epoch {
                    return Err(format!("Cutover({e}) contradicts Begin epoch {epoch}"));
                }
                if !verified {
                    return Err("Cutover without Verified".to_string());
                }
                cut_over = true;
            }
        }
    }
    let follows_catalog = *old == catalog.topology && epoch.checked_sub(1) == Some(catalog.epoch);
    let target = new.clone();
    if !cut_over {
        if !follows_catalog {
            return Err(format!(
                "{TOPOLOGY_FILE} Begin (epoch {epoch}) disagrees with the {} catalog \
                 (epoch {})",
                super::SHARDS_FILE,
                catalog.epoch
            ));
        }
        return Ok(Pending::PreCutover {
            epoch,
            target,
            copied,
            verified,
        });
    }
    let swapped = if catalog.topology == target && catalog.epoch == epoch {
        true
    } else if follows_catalog {
        false
    } else {
        return Err(format!(
            "{TOPOLOGY_FILE} Cutover (epoch {epoch}) matches neither the old nor the \
             new topology in the {} catalog",
            super::SHARDS_FILE
        ));
    };
    Ok(Pending::PostCutover {
        epoch,
        target,
        swapped,
    })
}

/// Append-only journal writer: a [`CrashWriter`] that fsyncs every
/// append (torn ones too — the torn bytes are durable, exactly like a
/// real power cut mid-write) and whose budget counts cumulative
/// `TOPOLOGY` bytes written this session.
pub(crate) struct JournalWriter {
    out: CrashWriter,
}

impl JournalWriter {
    /// Create a fresh journal (truncating any stale file) and write the
    /// file magic. The magic counts against the crash budget too — a
    /// torn header resolves to "no migration".
    pub(crate) fn create(dir: &Path, crash_after_bytes: Option<u64>) -> Result<Self, StoreError> {
        let file = std::fs::File::create(dir.join(TOPOLOGY_FILE)).map_err(WriteError::Io)?;
        let mut out = CrashWriter::new(file, 0, crash_after_bytes, true);
        out.write(&TOPOLOGY_MAGIC.to_be_bytes())?;
        Ok(JournalWriter { out })
    }

    /// Reattach to an existing journal whose torn tail, if it had one,
    /// reopen already cut off.
    pub(crate) fn open_existing(
        dir: &Path,
        crash_after_bytes: Option<u64>,
    ) -> Result<Self, StoreError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(TOPOLOGY_FILE))
            .map_err(WriteError::Io)?;
        Ok(JournalWriter {
            out: CrashWriter::new(file, 0, crash_after_bytes, true),
        })
    }

    pub(crate) fn append(&mut self, rec: &JournalRecord) -> Result<(), StoreError> {
        let mut framed = Vec::new();
        frame::encode(&mut framed, |b| rec.encode(b));
        Ok(self.out.write(&framed)?)
    }
}

// ---------------------------------------------------------------------
// Plans and status
// ---------------------------------------------------------------------

/// Derive a rebalance plan from the per-region read-amplification
/// counters (`cfstore.region.<id>.rows_scanned`): slots whose primary is
/// the most-scanned shard are re-pinned onto a replica window starting
/// at the least-scanned shard. Returns `None` when the counters show no
/// imbalance (or are absent).
pub fn rebalance_hot_slots(
    meta: &ShardedMeta,
    counters: &BTreeMap<String, u64>,
    max_moves: usize,
) -> Option<Topology> {
    let mut load = vec![0u64; meta.shards as usize];
    for (shard, entry) in &meta.regions {
        let key = format!("cfstore.region.{}.rows_scanned", entry.region_id);
        load[*shard as usize] += counters.get(&key).copied().unwrap_or(0);
    }
    let hottest = (0..meta.shards).max_by_key(|g| load[*g as usize])?;
    let coldest = (0..meta.shards).min_by_key(|g| load[*g as usize])?;
    if load[hottest as usize] == load[coldest as usize] {
        return None;
    }
    let mut plan = Topology::uniform(meta.shards, meta.replication);
    let mut moves = 0usize;
    for (slot, set) in meta.placement.iter().enumerate() {
        if moves >= max_moves {
            break;
        }
        if set.first() == Some(&hottest) {
            let new_set: Vec<u32> = (0..meta.replication)
                .map(|j| (coldest + j) % meta.shards)
                .collect();
            if new_set != *set {
                plan = plan.with_override(slot as u32, new_set);
                moves += 1;
            }
        }
    }
    if moves == 0 {
        None
    } else {
        Some(plan)
    }
}

/// Where a migration stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshardPhase {
    /// Copying units into their new-epoch placement.
    Copy,
    /// All units copied; verifying against old-placement truth.
    Verify,
    /// Verified; the next step appends the `Cutover` record.
    Cutover,
    /// Cut over; pruning, catalog swap, and cleanup remain.
    Gc,
    /// Migration complete, journal deleted.
    Done,
}

/// A point-in-time summary of a migration (also the return value of the
/// driving calls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardStatus {
    pub epoch: u64,
    pub phase: ReshardPhase,
    /// Copy units in the target topology (= its shard count).
    pub units_total: u32,
    pub units_copied: u32,
    /// Rows merge-installed by this store handle (not carried across
    /// reopens — the journal, not this number, is the source of truth).
    pub rows_copied: u64,
}

/// Crate-internal in-flight migration state (behind the global lock).
pub(crate) struct Migration {
    pub(crate) epoch: u64,
    pub(crate) target: Topology,
    pub(crate) copied: BTreeSet<u32>,
    pub(crate) verified: bool,
    pub(crate) cut_over: bool,
    pub(crate) gc_pruned: bool,
    pub(crate) catalog_swapped: bool,
    pub(crate) rows_copied: u64,
    pub(crate) journal: JournalWriter,
}

impl Migration {
    /// A migration whose `Begin` record was just journaled.
    fn begun(epoch: u64, target: Topology, journal: JournalWriter) -> Self {
        Migration {
            epoch,
            target,
            copied: BTreeSet::new(),
            verified: false,
            cut_over: false,
            gc_pruned: false,
            catalog_swapped: false,
            rows_copied: 0,
            journal,
        }
    }

    /// The migration a reopen found in the journal (`Pending::None`:
    /// none), with its writer reattached. `lost` shards were just
    /// rebuilt with active-epoch content only: pre-cutover, any `Copied`
    /// claim one held is now false, so journal the invalidation and let
    /// the resume copy that unit again.
    pub(crate) fn resumed(
        dir: &Path,
        crash_after_bytes: Option<u64>,
        pending: Pending,
        lost: &BTreeSet<u32>,
    ) -> Result<Option<Self>, StoreError> {
        let journal = || JournalWriter::open_existing(dir, crash_after_bytes);
        let mut m = match pending {
            Pending::None => return Ok(None),
            Pending::PreCutover {
                epoch,
                target,
                copied,
                verified,
            } => Migration {
                copied,
                verified,
                ..Self::begun(epoch, target, journal()?)
            },
            Pending::PostCutover {
                epoch,
                target,
                swapped,
            } => Migration {
                copied: (0..target.shards).collect(),
                verified: true,
                cut_over: true,
                gc_pruned: swapped,
                catalog_swapped: swapped,
                ..Self::begun(epoch, target, journal()?)
            },
        };
        for &unit in lost.iter().filter(|_| !m.cut_over) {
            if m.copied.remove(&unit) {
                let epoch = m.epoch;
                m.journal
                    .append(&JournalRecord::Invalidated { epoch, unit })?;
                m.verified = false;
            }
        }
        Ok(Some(m))
    }

    pub(crate) fn status(&self) -> ReshardStatus {
        let phase = if !self.cut_over {
            if (self.copied.len() as u32) < self.target.shards {
                ReshardPhase::Copy
            } else if !self.verified {
                ReshardPhase::Verify
            } else {
                ReshardPhase::Cutover
            }
        } else {
            ReshardPhase::Gc
        };
        ReshardStatus {
            epoch: self.epoch,
            phase,
            units_total: self.target.shards,
            units_copied: self.copied.len() as u32,
            rows_copied: self.rows_copied,
        }
    }
}

// ---------------------------------------------------------------------
// The state machine
// ---------------------------------------------------------------------

impl ShardedStore {
    /// Start a reshard: validate the plan, journal `Begin`, and create
    /// (grow) any missing target shard directories with the current
    /// schemas. Returns without copying — drive the migration with
    /// [`ShardedStore::reshard_step`] / [`ShardedStore::resume_reshard`],
    /// or use [`ShardedStore::reshard`] to run it to completion.
    pub fn begin_reshard(&self, target: Topology) -> Result<ReshardStatus, StoreError> {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        if st.poisoned {
            return Err(StoreError::Crashed);
        }
        if st.migration.is_some() {
            return Err(StoreError::Io(
                "a reshard is already in flight; resume or abort it first".to_string(),
            ));
        }
        target.validate().map_err(StoreError::Io)?;
        if target == st.active {
            return Err(StoreError::Io(
                "reshard target equals the active topology".to_string(),
            ));
        }
        let epoch = st.epoch + 1;
        let mut journal = JournalWriter::create(&inner.dir, inner.opts.crash_topology)?;
        let begin = JournalRecord::Begin {
            epoch,
            old: st.active.clone(),
            new: target.clone(),
        };
        if let Err(e) = journal.append(&begin) {
            if e == StoreError::Crashed {
                st.poisoned = true;
            }
            return Err(e);
        }
        // Grow: open the new shard directories and mirror every schema,
        // flushed so the shards are durably nonempty before any write
        // names them as participants.
        if let Err(e) = ensure_target_shards(inner, &mut st, &target) {
            st.poisoned = true;
            return Err(e);
        }
        let m = st
            .migration
            .insert(Migration::begun(epoch, target, journal));
        inner.obs().incr("cfstore.reshard.begins", 1);
        Ok(m.status())
    }

    /// Advance the in-flight migration by one unit of work: copy one
    /// target shard, verify, cut over, or one GC step. Each step is
    /// idempotent against the journal, so a crash between (or inside)
    /// steps is always resumable. The global lock is released between
    /// calls — interleave reads and writes freely.
    pub fn reshard_step(&self) -> Result<ReshardStatus, StoreError> {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        if st.poisoned {
            return Err(StoreError::Crashed);
        }
        let result = step_inner(inner, &mut st);
        if let Err(e) = &result {
            if *e == StoreError::Crashed {
                st.poisoned = true;
            }
        }
        result
    }

    /// Drive an in-flight migration to completion. `Ok(None)` when no
    /// migration is in flight (nothing to resume — reopening after a
    /// completed reshard lands here).
    pub fn resume_reshard(&self) -> Result<Option<ReshardStatus>, StoreError> {
        if self.reshard_status().is_none() {
            return Ok(None);
        }
        let reg = self.inner.obs();
        let _span = reg.span("cfstore.reshard.run");
        self.run_to_done().map(Some)
    }

    fn run_to_done(&self) -> Result<ReshardStatus, StoreError> {
        loop {
            let status = self.reshard_step()?;
            if status.phase == ReshardPhase::Done {
                return Ok(status);
            }
        }
    }

    /// Run a full reshard synchronously: begin + every step. On a clean
    /// run the store comes out in the new topology with the journal
    /// deleted; on an error mid-way the journal keeps the migration
    /// resumable after reopen.
    pub fn reshard(&self, target: Topology) -> Result<ReshardStatus, StoreError> {
        let reg = self.inner.obs();
        let _span = reg.span("cfstore.reshard.run");
        self.begin_reshard(target)?;
        self.run_to_done()
    }

    /// Abandon a migration that has **not** cut over: superset rows are
    /// pruned back to the active topology, grow-created shard
    /// directories are deleted, and the journal is removed. A migration
    /// past its commit point can only roll forward.
    pub fn abort_reshard(&self) -> Result<(), StoreError> {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        if st.poisoned {
            return Err(StoreError::Crashed);
        }
        let Some(m) = &st.migration else {
            return Err(StoreError::Io("no reshard in flight".to_string()));
        };
        if m.cut_over {
            return Err(StoreError::Io(
                "reshard is past its commit point; it can only roll forward".to_string(),
            ));
        }
        let active = st.active.clone();
        prune_to_ownership(&mut st, &active)?;
        st.shards.truncate(active.shards as usize);
        st.migration = None;
        remove_extra_shard_dirs(&inner.dir, active.shards)?;
        remove_journal(&inner.dir)?;
        inner.obs().incr("cfstore.reshard.aborts", 1);
        Ok(())
    }

    /// The in-flight migration, if any.
    pub fn reshard_status(&self) -> Option<ReshardStatus> {
        let st = self.inner.state.lock();
        st.migration.as_ref().map(|m| m.status())
    }

    /// The active topology (epoch-current placement).
    pub fn topology(&self) -> Topology {
        self.inner.state.lock().active.clone()
    }
}

/// One step of the migration, which is taken out of the state while
/// its step runs (so a step holds `&mut Migration` and `&mut
/// GlobalState` at once) and put back unless that step finished it.
fn step_inner(inner: &ShardedInner, st: &mut GlobalState) -> Result<ReshardStatus, StoreError> {
    let Some(mut m) = st.migration.take() else {
        return Err(StoreError::Io("no reshard in flight".to_string()));
    };
    let next_unit = (0..m.target.shards).find(|u| !m.copied.contains(u));
    let result = match next_unit {
        _ if m.cut_over => gc_step(inner, st, &mut m),
        Some(unit) => copy_unit(inner, st, &mut m, unit),
        None if !m.verified => verify_units(inner, st, &mut m),
        None => do_cutover(inner, st, &mut m),
    };
    if !matches!(&result, Ok(status) if status.phase == ReshardPhase::Done) {
        st.migration = Some(m);
    }
    result
}

/// Mirror every schema onto target-only shards (grow), opening their
/// directories. Idempotent: re-opening an existing shard is a plain
/// reopen and re-creating an existing table is tolerated.
fn ensure_target_shards(
    inner: &ShardedInner,
    st: &mut GlobalState,
    target: &Topology,
) -> Result<(), StoreError> {
    let io = |e: RecoveryError| StoreError::Io(format!("open target shard: {e}"));
    for g in st.shards.len() as u32..target.shards {
        let dir = inner.dir.join(shard_dir_name(g));
        let (mut store, _) =
            MiniStore::open_with_opts(&dir, inner.opts.store_opts(g)).map_err(io)?;
        store.set_obs(inner.obs());
        st.shards.push(store);
    }
    for shard in &st.shards[..target.shards as usize] {
        mirror_schemas(shard, &st.schemas)?;
        shard.flush()?;
    }
    Ok(())
}

/// The rows of `table` some shard must hold: of every slot of the active
/// placement that `reads` selects, the rows `owns(slot, row)` accepts,
/// each slot read from its first clean replica among `donors`. The one
/// builder under whole-shard rebuild, read-path heal, reshard copy and
/// reshard verify — they differ only in the two predicates. A slot
/// `reads` rejects is never exported, so its replicas being unreadable
/// does not fail the caller.
pub(super) fn owned_rows(
    shards: &[MiniStore],
    active: &Topology,
    table: &str,
    donors: &mut Donors,
    reads: impl Fn(u32) -> bool,
    owns: impl Fn(u32, &[u8]) -> bool,
) -> Result<BTreeMap<Bytes, RowData>, StoreError> {
    let mut rows = BTreeMap::new();
    for slot in (0..active.shards).filter(|slot| reads(*slot)) {
        let keep = |row: &[u8]| owns(slot, row);
        rows.extend(export_slot_from_peers(
            shards, active, slot, table, donors, keep,
        )?);
    }
    Ok(rows)
}

/// Copy one target unit: merge-install every row the unit owns under
/// the target topology, sourced from clean old-placement replicas (the
/// authority for all data pre-cutover — dual-apply keeps it current),
/// flush the unit, then journal `Copied`. Merge, not wholesale: on a
/// shard serving both epochs a wholesale install would clobber its
/// old-epoch rows.
fn copy_unit(
    inner: &ShardedInner,
    st: &mut GlobalState,
    m: &mut Migration,
    unit: u32,
) -> Result<ReshardStatus, StoreError> {
    let shard = &st.shards[unit as usize];
    // Resumed migrations may hit a unit whose tables were never created
    // (crash between Begin and the grow-shard flush).
    mirror_schemas(shard, &st.schemas)?;
    let mut rows_copied = 0u64;
    let mut donors = Donors::excluding([]);
    for table in st.schemas.keys() {
        let owns = |_, row: &[u8]| m.target.owns(unit, row);
        let rows = owned_rows(&st.shards, &st.active, table, &mut donors, |_| true, owns)?;
        rows_copied += shard.install_table_rows(table, rows, Install::Merge)?;
    }
    shard.flush()?;
    m.journal.append(&JournalRecord::Copied {
        epoch: m.epoch,
        unit,
    })?;
    m.copied.insert(unit);
    m.rows_copied += rows_copied;
    let reg = inner.obs();
    reg.incr("cfstore.reshard.units_copied", 1);
    reg.incr("cfstore.reshard.rows_copied", rows_copied);
    Ok(m.status())
}

/// Where rows may be copied from: any shard outside `skip` (the ones
/// being rebuilt or healed). A donor's verified full export of a table
/// is cached per `(donor shard, table)`: one read per donor feeds every
/// slot and every shard that needs it.
pub(super) struct Donors {
    skip: BTreeSet<u32>,
    exports: BTreeMap<(u32, String), BTreeMap<Bytes, RowData>>,
}

impl Donors {
    pub(super) fn excluding(skip: impl IntoIterator<Item = u32>) -> Self {
        Donors {
            skip: skip.into_iter().collect(),
            exports: BTreeMap::new(),
        }
    }
}

/// Export the rows of one slot of `topo` that `keep` wants, from the
/// slot's first clean replica among `donors` — the one donor-selection
/// rule.
fn export_slot_from_peers(
    shards: &[MiniStore],
    topo: &Topology,
    slot: u32,
    table: &str,
    donors: &mut Donors,
    keep: impl Fn(&[u8]) -> bool,
) -> Result<BTreeMap<Bytes, RowData>, StoreError> {
    let mut last_err: Option<StoreError> = None;
    for d in topo.replicas(slot) {
        if donors.skip.contains(&d) {
            continue;
        }
        let key = (d, table.to_string());
        if !donors.exports.contains_key(&key) {
            match shards[d as usize].export_table_rows(table) {
                Ok(map) => {
                    donors.exports.insert(key.clone(), map);
                }
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            }
        }
        let donor = &donors.exports[&key];
        return Ok(donor
            .iter()
            .filter(|(row, _)| topo.slot_of_row(row) == slot && keep(row))
            .map(|(row, data)| (row.clone(), data.clone()))
            .collect());
    }
    Err(last_err.unwrap_or_else(|| {
        StoreError::Io(format!(
            "slot {slot} has no clean replica to export table `{table}` from"
        ))
    }))
}

/// Compare every target unit's new-epoch ownership against
/// old-placement truth, cell-for-cell, then journal `Verified`.
fn verify_units(
    inner: &ShardedInner,
    st: &mut GlobalState,
    m: &mut Migration,
) -> Result<ReshardStatus, StoreError> {
    let mut donors = Donors::excluding([]);
    for table in st.schemas.keys() {
        for unit in 0..m.target.shards {
            let owns = |_, row: &[u8]| m.target.owns(unit, row);
            let truth = owned_rows(&st.shards, &st.active, table, &mut donors, |_| true, owns)?;
            let held = st.shards[unit as usize].export_table_rows(table)?;
            if let Some((row, _)) = truth
                .iter()
                .find(|(row, data)| held.get(*row) != Some(data))
            {
                return Err(StoreError::Io(format!(
                    "reshard verify failed: unit {unit} row {:?} of `{table}` \
                     disagrees with old-placement truth",
                    String::from_utf8_lossy(row)
                )));
            }
        }
    }
    m.journal
        .append(&JournalRecord::Verified { epoch: m.epoch })?;
    m.verified = true;
    inner.obs().incr("cfstore.reshard.verifies", 1);
    Ok(m.status())
}

/// Append the `Cutover` record — the atomic commit point — then swap
/// the active topology. A torn append leaves the store in the old epoch
/// (and poisoned, like any mid-protocol crash).
fn do_cutover(
    inner: &ShardedInner,
    st: &mut GlobalState,
    m: &mut Migration,
) -> Result<ReshardStatus, StoreError> {
    m.journal
        .append(&JournalRecord::Cutover { epoch: m.epoch })?;
    m.cut_over = true;
    st.epoch = m.epoch;
    st.active = m.target.clone();
    inner.obs().incr("cfstore.reshard.cutovers", 1);
    Ok(m.status())
}

/// One GC step: prune every surviving shard to its exact new ownership,
/// then swap the catalog, then delete dropped dirs + the journal. Three
/// separate steps so a crash between any two reopens resumable; each is
/// idempotent.
fn gc_step(
    inner: &ShardedInner,
    st: &mut GlobalState,
    m: &mut Migration,
) -> Result<ReshardStatus, StoreError> {
    let active = st.active.clone();
    if !m.gc_pruned {
        prune_to_ownership(st, &active)?;
        m.gc_pruned = true;
        return Ok(m.status());
    }
    if !m.catalog_swapped {
        let catalog = Catalog {
            topology: active.clone(),
            epoch: m.epoch,
        };
        write_catalog(&inner.dir, &catalog)
            .map_err(|e| StoreError::Io(format!("swap SHARDS catalog: {e}")))?;
        st.shards.truncate(active.shards as usize);
        m.catalog_swapped = true;
        return Ok(m.status());
    }
    remove_extra_shard_dirs(&inner.dir, active.shards)?;
    remove_journal(&inner.dir)?;
    inner.obs().incr("cfstore.reshard.completions", 1);
    Ok(ReshardStatus {
        epoch: m.epoch,
        phase: ReshardPhase::Done,
        units_total: active.shards,
        units_copied: active.shards,
        rows_copied: m.rows_copied,
    })
}

/// Wholesale-reinstall every shard `0..topo.shards` with exactly the
/// rows it owns under `topo` (sourced from its own contents), flushing
/// each. Also flushes so no shard's WAL still holds frames naming
/// participants outside the new topology as unflushed state.
fn prune_to_ownership(st: &mut GlobalState, topo: &Topology) -> Result<(), StoreError> {
    for (g, shard) in st.shards[..topo.shards as usize].iter().enumerate() {
        for table in st.schemas.keys() {
            let mut keep = shard.export_table_rows(table)?;
            keep.retain(|row, _| topo.owns(g as u32, row));
            shard.install_table_rows(table, keep, Install::Replace)?;
        }
        shard.flush()?;
    }
    Ok(())
}

fn store_io(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{}: {e}", path.display()))
}

/// Delete the journal: the last act of a finished or aborted migration.
fn remove_journal(dir: &Path) -> Result<(), StoreError> {
    let path = dir.join(TOPOLOGY_FILE);
    remove_if_present(&path, |p| std::fs::remove_file(p)).map_err(|e| store_io(&path, e))
}

/// Delete any `shard-NNN` directory with `NNN ≥ keep` (dropped by a
/// shrink, or created by an aborted grow). Idempotent.
fn remove_extra_shard_dirs(dir: &Path, keep: u32) -> Result<(), StoreError> {
    for entry in std::fs::read_dir(dir).map_err(|e| store_io(dir, e))? {
        let entry = entry.map_err(|e| store_io(dir, e))?;
        if shard_dir_id(&entry.file_name()).is_some_and(|id| id >= keep) {
            let p = entry.path();
            remove_if_present(&p, |p| std::fs::remove_dir_all(p)).map_err(|e| store_io(&p, e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Put;
    use crate::shard::{ShardOptions, ShardedStore};
    use crate::store::Scan;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cfstore-reshard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn opts(n: u32, r: u32) -> ShardOptions {
        ShardOptions {
            shards: n,
            replication: r,
            ..ShardOptions::default()
        }
    }

    /// A sharded store plus a never-resharded single-store oracle fed
    /// the identical workload.
    fn seeded(dir: &Path, n: u32, r: u32, rows: usize) -> (ShardedStore, MiniStore) {
        let (store, _) = ShardedStore::open_with_opts(dir, opts(n, r)).unwrap();
        let oracle = MiniStore::new();
        store.create_table("t", &["f"]).unwrap();
        oracle.create_table("t", &["f"]).unwrap();
        for i in 0..rows {
            let p = Put::new(format!("row{i:04}"), "f", "c", format!("v{i}"));
            store.put("t", p.clone()).unwrap();
            oracle.put("t", p).unwrap();
        }
        (store, oracle)
    }

    fn assert_matches_oracle(store: &ShardedStore, oracle: &MiniStore) {
        let (got, _) = store.scan("t", &Scan::all()).unwrap();
        let (want, _) = oracle.scan("t", &Scan::all()).unwrap();
        assert_eq!(got, want, "sharded scan must match the oracle");
    }

    #[test]
    fn topology_codec_and_validation() {
        let mut t = Topology::uniform(5, 2);
        t.overrides.insert(3, vec![0, 4]);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let mut c = Cursor::new(&buf);
        assert_eq!(Topology::decode(&mut c), Ok(t.clone()));
        assert_eq!(c.finish(), Ok(()));
        assert!(t.validate().is_ok());
        assert_eq!(t.replicas(3), vec![0, 4], "override wins");
        assert_eq!(t.replicas(2), vec![2, 3], "modular default elsewhere");

        assert!(Topology::uniform(0, 1).validate().is_err());
        assert!(Topology::uniform(2, 3).validate().is_err());
        let mut bad = Topology::uniform(3, 2);
        bad.overrides.insert(9, vec![0, 1]);
        assert!(bad.validate().is_err(), "override slot out of range");
        let mut bad = Topology::uniform(3, 2);
        bad.overrides.insert(0, vec![1, 1]);
        assert!(bad.validate().is_err(), "duplicate replicas");
        let mut bad = Topology::uniform(3, 2);
        bad.overrides.insert(0, vec![1]);
        assert!(bad.validate().is_err(), "override must keep R copies");
    }

    #[test]
    fn catalog_v1_body_stays_byte_identical_and_v2_roundtrips() {
        let dir = tmp_dir("catalog");
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = Catalog {
            topology: Topology::uniform(4, 2),
            epoch: 0,
        };
        write_catalog(&dir, &v1).unwrap();
        let data = std::fs::read(dir.join(super::super::SHARDS_FILE)).unwrap();
        assert_eq!(data.len(), 20, "epoch-0 catalog keeps the 8-byte v1 body");
        assert_eq!(read_catalog(&dir).unwrap(), Some(v1));

        let mut topo = Topology::uniform(5, 3);
        topo.overrides.insert(1, vec![4, 0, 2]);
        let v2 = Catalog {
            topology: topo,
            epoch: 7,
        };
        write_catalog(&dir, &v2).unwrap();
        assert_eq!(read_catalog(&dir).unwrap(), Some(v2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_torn_tail_resolves_bad_magic_errors() {
        let dir = tmp_dir("journal");
        std::fs::create_dir_all(&dir).unwrap();
        let old = Topology::uniform(3, 2);
        let new = Topology::uniform(4, 2);
        let begin = JournalRecord::Begin {
            epoch: 1,
            old: old.clone(),
            new: new.clone(),
        };
        let mut w = JournalWriter::create(&dir, None).unwrap();
        w.append(&begin).unwrap();
        w.append(&JournalRecord::Copied { epoch: 1, unit: 0 })
            .unwrap();
        drop(w);
        let clean_len = std::fs::metadata(dir.join(TOPOLOGY_FILE)).unwrap().len();

        // Tear the last frame: resolvable, the Copied record drops out.
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(TOPOLOGY_FILE))
            .unwrap();
        f.set_len(clean_len - 3).unwrap();
        drop(f);
        let scan = read_journal(&dir).unwrap().unwrap();
        assert!(scan.valid_bytes < scan.total_bytes);
        assert_eq!(scan.records, vec![begin.clone()]);
        let catalog = Catalog {
            topology: old,
            epoch: 0,
        };
        match resolve_against_catalog(&catalog, &scan.records).unwrap() {
            Pending::PreCutover {
                epoch,
                copied,
                verified,
                ..
            } => {
                assert_eq!(epoch, 1);
                assert!(copied.is_empty());
                assert!(!verified);
            }
            other => panic!("expected PreCutover, got {other:?}"),
        }

        // Wrong magic: unresolvable.
        std::fs::write(dir.join(TOPOLOGY_FILE), b"NOPE....").unwrap();
        assert!(read_journal(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resolve_rejects_sequences_the_writer_cannot_produce() {
        let old = Topology::uniform(3, 2);
        let new = Topology::uniform(4, 2);
        let begin = JournalRecord::Begin {
            epoch: 1,
            old: old.clone(),
            new: new.clone(),
        };
        let catalog = Catalog {
            topology: old.clone(),
            epoch: 0,
        };
        let resolve = |records: &[JournalRecord]| resolve_against_catalog(&catalog, records);
        // Not starting with Begin.
        assert!(resolve(&[JournalRecord::Verified { epoch: 1 }]).is_err());
        // Cutover without Verified.
        assert!(resolve(&[begin.clone(), JournalRecord::Cutover { epoch: 1 }]).is_err());
        // Epoch mismatch.
        assert!(resolve(&[begin.clone(), JournalRecord::Copied { epoch: 2, unit: 0 }]).is_err());
        // Unit outside the target topology.
        assert!(resolve(&[begin.clone(), JournalRecord::Copied { epoch: 1, unit: 4 }]).is_err());
        // Records after Cutover.
        assert!(resolve(&[
            begin.clone(),
            JournalRecord::Verified { epoch: 1 },
            JournalRecord::Cutover { epoch: 1 },
            JournalRecord::Copied { epoch: 1, unit: 0 },
        ])
        .is_err());
        // Invalidated clears Verified, so a Cutover after it is invalid.
        assert!(resolve(&[
            begin.clone(),
            JournalRecord::Copied { epoch: 1, unit: 0 },
            JournalRecord::Verified { epoch: 1 },
            JournalRecord::Invalidated { epoch: 1, unit: 0 },
            JournalRecord::Cutover { epoch: 1 },
        ])
        .is_err());
        // The happy path resolves.
        let full = [
            begin,
            JournalRecord::Copied { epoch: 1, unit: 0 },
            JournalRecord::Verified { epoch: 1 },
            JournalRecord::Cutover { epoch: 1 },
        ];
        assert!(matches!(
            resolve(&full).unwrap(),
            Pending::PostCutover { epoch: 1, .. }
        ));
    }

    #[test]
    fn grow_reshard_end_to_end() {
        let dir = tmp_dir("grow");
        let (store, oracle) = seeded(&dir, 3, 2, 40);
        let status = store.reshard(Topology::uniform(4, 2)).unwrap();
        assert_eq!(status.phase, ReshardPhase::Done);
        assert_eq!(status.epoch, 1);
        assert_eq!(store.shard_count(), 4);
        assert!(!dir.join(TOPOLOGY_FILE).exists(), "journal deleted by GC");
        assert_matches_oracle(&store, &oracle);
        drop(store);
        // Reopen: the new topology is durable; no migration in flight.
        let (store, rep) = ShardedStore::open(&dir).unwrap();
        assert!(rep.reshard_in_flight.is_none());
        assert!(rep.lost_shards.is_empty());
        assert_eq!(store.shard_count(), 4);
        assert_matches_oracle(&store, &oracle);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shrink_reshard_end_to_end() {
        let dir = tmp_dir("shrink");
        let (store, oracle) = seeded(&dir, 3, 2, 40);
        let status = store.reshard(Topology::uniform(2, 2)).unwrap();
        assert_eq!(status.phase, ReshardPhase::Done);
        assert_eq!(store.shard_count(), 2);
        assert!(
            !dir.join(super::shard_dir_name(2)).exists(),
            "dropped shard dir removed"
        );
        assert_matches_oracle(&store, &oracle);
        drop(store);
        let (store, rep) = ShardedStore::open(&dir).unwrap();
        assert!(rep.lost_shards.is_empty());
        assert_matches_oracle(&store, &oracle);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replication_change_keeps_replicas_identical() {
        let dir = tmp_dir("rchange");
        let (store, oracle) = seeded(&dir, 3, 1, 40);
        store.reshard(Topology::uniform(3, 2)).unwrap();
        assert_eq!(store.replication(), 2);
        assert_matches_oracle(&store, &oracle);
        // Every row now has two bit-identical copies.
        for i in 0..40 {
            let row = format!("row{i:04}");
            let reps = store.replica_shards(row.as_bytes());
            assert_eq!(reps.len(), 2);
            let a = store.shard_scan(reps[0], "t", &Scan::all()).unwrap().0;
            let b = store.shard_scan(reps[1], "t", &Scan::all()).unwrap().0;
            let find = |rows: &[crate::kv::RowResult]| {
                rows.iter().find(|r| r.row == row.as_bytes()).cloned()
            };
            assert_eq!(find(&a), find(&b), "replicas disagree on {row}");
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_migration_writes_dual_apply_and_reads_serve_old_epoch() {
        let dir = tmp_dir("midmig");
        let (store, oracle) = seeded(&dir, 3, 2, 30);
        store.begin_reshard(Topology::uniform(4, 2)).unwrap();
        // Copy one unit, then write while the migration is parked.
        let st = store.reshard_step().unwrap();
        assert_eq!(st.phase, ReshardPhase::Copy);
        assert_eq!(store.shard_count(), 3, "old epoch serves until cutover");
        for i in 30..45 {
            let p = Put::new(format!("row{i:04}"), "f", "c", format!("v{i}"));
            store.put("t", p.clone()).unwrap();
            oracle.put("t", p).unwrap();
        }
        store.delete_row("t", b"row0005").unwrap();
        oracle.delete_row("t", b"row0005").unwrap();
        assert_matches_oracle(&store, &oracle);
        // Finish: the dual-applied writes are already in place on the
        // targets, so verify passes and the result matches the oracle.
        let done = store.resume_reshard().unwrap().unwrap();
        assert_eq!(done.phase, ReshardPhase::Done);
        assert_eq!(store.shard_count(), 4);
        assert_matches_oracle(&store, &oracle);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_before_cutover_restores_the_old_world() {
        let dir = tmp_dir("abort");
        let (store, oracle) = seeded(&dir, 3, 2, 30);
        store.begin_reshard(Topology::uniform(4, 2)).unwrap();
        store.reshard_step().unwrap();
        store.abort_reshard().unwrap();
        assert_eq!(store.shard_count(), 3);
        assert!(store.reshard_status().is_none());
        assert!(!dir.join(TOPOLOGY_FILE).exists());
        assert!(!dir.join(super::shard_dir_name(3)).exists());
        assert_matches_oracle(&store, &oracle);
        // The store is still fully operational: a second plan runs clean.
        store.reshard(Topology::uniform(4, 2)).unwrap();
        assert_matches_oracle(&store, &oracle);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_append_reopens_resumable() {
        let dir = tmp_dir("tornj");
        let (store, oracle) = seeded(&dir, 3, 2, 30);
        drop(store);
        // Reopen with a TOPOLOGY crash budget that survives Begin but
        // tears the first Copied append.
        let (store, _) = ShardedStore::open_with_opts(
            &dir,
            ShardOptions {
                crash_topology: Some(60),
                ..opts(3, 2)
            },
        )
        .unwrap();
        store.begin_reshard(Topology::uniform(4, 2)).unwrap();
        let err = loop {
            match store.reshard_step() {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err, StoreError::Crashed);
        assert!(store.is_crashed());
        drop(store);
        // Reopen clean: the migration is in flight and resumes to done.
        let (store, rep) = ShardedStore::open(&dir).unwrap();
        assert_eq!(rep.reshard_in_flight, Some(1));
        assert!(rep.lost_shards.is_empty());
        assert_eq!(store.shard_count(), 3, "pre-cutover: old epoch");
        let done = store.resume_reshard().unwrap().unwrap();
        assert_eq!(done.phase, ReshardPhase::Done);
        assert_eq!(store.shard_count(), 4);
        assert_matches_oracle(&store, &oracle);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebalance_plan_pins_hot_primaries_on_the_cold_shard() {
        let meta = ShardedMeta {
            shards: 3,
            replication: 2,
            placement: (0..3).map(|s| super::super::replica_set(s, 3, 2)).collect(),
            regions: (0..3)
                .map(|g| {
                    (
                        g,
                        crate::store::MetaEntry {
                            table: "t".to_string(),
                            start_key: Bytes::new(),
                            region_id: g as u64,
                            region_server: g,
                        },
                    )
                })
                .collect(),
        };
        let mut counters = BTreeMap::new();
        counters.insert("cfstore.region.0.rows_scanned".to_string(), 1000u64);
        counters.insert("cfstore.region.2.rows_scanned".to_string(), 5u64);
        let plan = rebalance_hot_slots(&meta, &counters, 4).expect("imbalance found");
        assert_eq!(plan.shards, 3);
        assert_eq!(plan.replication, 2);
        // Slot 0's primary (the hot shard 0) is re-pinned onto the
        // coldest shard (shard 1, which scanned nothing at all).
        assert_eq!(plan.overrides.get(&0), Some(&vec![1, 2]));
        assert!(plan.validate().is_ok());
        // Balanced counters produce no plan.
        assert!(rebalance_hot_slots(&meta, &BTreeMap::new(), 4).is_none());
    }
}
