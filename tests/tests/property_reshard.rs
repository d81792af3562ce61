//! Crash-safe elastic resharding property tests (DESIGN.md §15) — the
//! acceptance sweep for the online topology-change engine:
//!
//! (a) **Crash at every `TOPOLOGY` journal byte** (writes
//!     dual-applied and flushed mid-migration) for grow (3→4),
//!     shrink (3→2), and replication-change (R 2→3) plans: the store
//!     reopens into exactly one epoch, loses nothing acked, aborts at
//!     most the one in-flight batch, and the migration resumes
//!     idempotently to a scan bit-identical to a never-resharded oracle.
//! (b) **Crash any shard at any WAL byte mid-migration**: the same
//!     invariants hold when the tear is in a data WAL instead of the
//!     journal.
//! (c) **Pause at every step boundary** — including between the three
//!     idempotent GC sub-steps — and every intermediate state is
//!     `store_fsck`-clean (exit 0), resumable, and lands on the target
//!     epoch.
//! (d) **Slot overrides** (the rebalance mechanism) apply end to end
//!     and survive a reopen through the SHARDS v2 catalog.
//! (e) **The matcher is unchanged mid-migration**: reads serve the old
//!     epoch until cutover, bit-identical to an unsharded store.
//! (f) **`store_fsck` exit codes**: 0 on resolvable intermediate
//!     epochs, 3 on phantom/missing shard dirs, a corrupt journal
//!     magic, or an unresolvable TOPOLOGY/SHARDS contradiction (the
//!     torn-cutover case) — and `--repair` heals what recovery can. At
//!     every crash point of (a) and (b), exit 0 ⇔ the reopen changes
//!     nothing, journal bytes included.

use std::path::{Path, PathBuf};

use cfstore::shard::resharding::TOPOLOGY_FILE;
use cfstore::{
    CrashSpec, MiniStore, Put, ReshardPhase, RowResult, Scan, ShardOptions, ShardedStore,
    StoreError, Topology,
};

const TABLE: &str = "profiles";
const FAMILY: &str = "d";
const SPLIT_THRESHOLD: usize = 8;

/// One step of a deterministic workload (same shape as
/// `property_shards.rs`, so the migrating store faces the exact op mix
/// the static topology already survives).
#[derive(Debug, Clone, PartialEq)]
enum Op {
    Put { key: u64, col: u8, val: u64 },
    Delete { key: u64 },
    Flush,
}

fn row_key(key: u64) -> Vec<u8> {
    format!("job-{key:06}").into_bytes()
}

fn workload(seed: u64, len: usize) -> Vec<Op> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..len)
        .map(|_| {
            let r = next();
            match r % 10 {
                0 => Op::Delete { key: next() % 24 },
                1 => Op::Flush,
                _ => Op::Put {
                    key: next() % 24,
                    col: (next() % 3) as u8,
                    val: next(),
                },
            }
        })
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pstorm-reshard-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(shards: u32, replication: u32) -> ShardOptions {
    ShardOptions {
        shards,
        replication,
        ..ShardOptions::default()
    }
}

fn open_sharded(dir: &Path, o: ShardOptions) -> ShardedStore {
    let (store, _) = ShardedStore::open(dir, o, obs::Registry::disabled()).expect("open sharded");
    match store.create_table_with_threshold(TABLE, &[FAMILY], SPLIT_THRESHOLD) {
        Ok(()) | Err(StoreError::TableExists(_)) => {}
        Err(e) => panic!("create_table: {e}"),
    }
    store
}

/// Create the table and catalog in an inert session, so a crashing
/// session's byte budgets tear migration work, never the bootstrap.
fn init_store(dir: &Path, init: (u32, u32)) {
    drop(open_sharded(dir, opts(init.0, init.1)));
}

fn apply_sharded(store: &ShardedStore, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::Put { key, col, val } => store.put(
            TABLE,
            Put::new(
                row_key(*key),
                FAMILY,
                format!("c{col}").into_bytes(),
                val.to_be_bytes().to_vec(),
            ),
        ),
        Op::Delete { key } => store.delete_row(TABLE, &row_key(*key)).map(|_| ()),
        Op::Flush => store.flush(),
    }
}

fn apply_single(store: &MiniStore, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::Put { key, col, val } => store.put(
            TABLE,
            Put::new(
                row_key(*key),
                FAMILY,
                format!("c{col}").into_bytes(),
                val.to_be_bytes().to_vec(),
            ),
        ),
        Op::Delete { key } => store.delete_row(TABLE, &row_key(*key)).map(|_| ()),
        Op::Flush => store.flush(),
    }
}

fn scan_all(store: &ShardedStore) -> Vec<RowResult> {
    store.scan(TABLE, &Scan::all()).expect("sharded scan").0
}

/// Never-resharded oracle scans for *every* prefix of `ops`, from one
/// unsharded durable store: `result[k]` is the scan after exactly
/// `ops[..k]`. Equality against it is bit-level, timestamps included —
/// neither the copy phase nor dual-apply may invent or re-stamp a cell.
fn oracle_prefixes(tag: &str, ops: &[Op]) -> Vec<Vec<RowResult>> {
    let dir = tmp_dir(tag);
    let (store, _) = MiniStore::open(&dir).expect("oracle open");
    store
        .create_table_with_threshold(TABLE, &[FAMILY], SPLIT_THRESHOLD)
        .expect("oracle table");
    let mut snaps = Vec::with_capacity(ops.len() + 1);
    snaps.push(store.scan(TABLE, &Scan::all()).expect("oracle scan").0);
    for op in ops {
        apply_single(&store, op).expect("oracle op");
        snaps.push(store.scan(TABLE, &Scan::all()).expect("oracle scan").0);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup oracle");
    snaps
}

/// The three plan shapes the acceptance sweep must survive.
fn scenarios() -> Vec<(&'static str, (u32, u32), Topology)> {
    vec![
        ("grow", (3, 2), Topology::uniform(4, 2)),
        ("shrink", (3, 2), Topology::uniform(2, 2)),
        ("repl", (3, 2), Topology::uniform(3, 3)),
    ]
}

/// What one crashing session observed: how many ops were acked before
/// the crash (if any), and which op was in flight when it fired.
struct RunOutcome {
    applied: usize,
    in_flight: Option<usize>,
    crashed: bool,
}

/// The canonical interleaving: half the workload, begin the migration
/// and copy one unit, then the rest of the workload dual-applied
/// mid-migration, then drive the remaining steps to `Done`. Any call
/// may die on an injected crash.
fn drive_inner(
    store: &ShardedStore,
    ops: &[Op],
    plan: &Topology,
    out: &mut RunOutcome,
) -> Result<(), StoreError> {
    let half = ops.len() / 2;
    for (i, op) in ops.iter().enumerate() {
        if i == half {
            store.begin_reshard(plan.clone())?;
            store.reshard_step()?;
        }
        match apply_sharded(store, op) {
            Ok(()) => out.applied += 1,
            Err(e) => {
                if matches!(e, StoreError::Crashed) {
                    out.in_flight = Some(out.applied);
                }
                return Err(e);
            }
        }
    }
    loop {
        if store.reshard_step()?.phase == ReshardPhase::Done {
            return Ok(());
        }
    }
}

fn drive(store: &ShardedStore, ops: &[Op], plan: &Topology) -> RunOutcome {
    let mut out = RunOutcome {
        applied: 0,
        in_flight: None,
        crashed: false,
    };
    match drive_inner(store, ops, plan, &mut out) {
        Ok(()) => {}
        Err(StoreError::Crashed) => out.crashed = true,
        Err(e) => panic!("unexpected non-crash error: {e}"),
    }
    out
}

/// The core crash check: run the canonical interleaving under injected
/// crash budgets (a data-WAL tear, a journal tear, or both), reopen,
/// resume, and verify every acceptance invariant.
fn check_crash_point(
    tag: &str,
    ops: &[Op],
    init: (u32, u32),
    plan: &Topology,
    crash_shard: Option<(u32, u64)>,
    crash_topology: Option<u64>,
    oracles: &[Vec<RowResult>],
) {
    let dir = tmp_dir(tag);
    init_store(&dir, init);
    let store = open_sharded(
        &dir,
        ShardOptions {
            crash_shard: crash_shard.map(|(g, b)| (g, CrashSpec::after_wal_bytes(b))),
            crash_topology,
            ..opts(init.0, init.1)
        },
    );
    let out = drive(&store, ops, plan);
    drop(store);

    // `store_fsck` exits 0 exactly when the reopen changes nothing: no
    // lost shard, no aborted batch, no dropped WAL byte, and not a byte
    // of the journal truncated (or the whole never-begun file deleted).
    let fsck = pstorm_bench::fsck::run(&dir, false);
    let journal_before = std::fs::read(dir.join(TOPOLOGY_FILE)).ok();
    let (reopened, report) =
        ShardedStore::open(&dir, opts(init.0, init.1), obs::Registry::disabled())
            .expect("reopen after crash");
    let unchanged = report.lost_shards.is_empty()
        && report.aborted_batches == 0
        && report.total.wal_bytes_dropped == 0
        && std::fs::read(dir.join(TOPOLOGY_FILE)).ok() == journal_before;
    assert_eq!(
        fsck,
        if unchanged { 0 } else { 3 },
        "{tag}: fsck disagrees with the reopen ({} aborted, {} WAL byte(s) dropped)",
        report.aborted_batches,
        report.total.wal_bytes_dropped
    );
    // A torn journal or WAL is never mistaken for shard loss, and at
    // most the single in-flight batch aborts.
    assert!(
        report.lost_shards.is_empty(),
        "{tag}: crash must never look like shard loss: {:?}",
        report.lost_shards
    );
    assert!(
        report.aborted_batches <= 1,
        "{tag}: {} batches aborted",
        report.aborted_batches
    );

    // Resume is idempotent: the first call finishes the migration (or
    // finds nothing), the second always finds nothing.
    let resumed = reopened.resume_reshard().expect("resume must succeed");
    if let Some(s) = &resumed {
        assert_eq!(s.phase, ReshardPhase::Done, "{tag}: resume must reach Done");
    }
    assert!(
        reopened.resume_reshard().expect("second resume").is_none(),
        "{tag}: resume must be idempotent"
    );
    assert!(reopened.reshard_status().is_none());

    // Zero acked loss, no torn batch: the post-recovery scan is
    // bit-identical to the never-resharded oracle at the acked prefix
    // (or acked + the one in-flight op, when that batch committed).
    let got = scan_all(&reopened);
    let matches_acked = got == oracles[out.applied];
    let matches_plus = out
        .in_flight
        .map(|i| got == oracles[i + 1])
        .unwrap_or(false);
    assert!(
        matches_acked || matches_plus,
        "{tag}: recovered scan matches neither oracle \
         (applied={}, in_flight={:?}, got {} rows)",
        out.applied,
        out.in_flight,
        got.len()
    );

    // Exactly one epoch serves: the final topology is the old world or
    // the new one, never a blend — and once the migration is durably
    // begun and resumed (or ran to completion), it is the new one.
    let topo = reopened.topology();
    let is_new = topo.shards == plan.shards && topo.replication == plan.replication;
    let is_old = topo.shards == init.0 && topo.replication == init.1 && topo.overrides.is_empty();
    assert!(is_new || is_old, "{tag}: blended topology {topo:?}");
    if resumed.is_some() || !out.crashed {
        assert!(
            is_new,
            "{tag}: committed migration must serve the new epoch"
        );
    }

    // Replica bit-identity under the final placement.
    for row in &got {
        for g in reopened.topology().replicas_of_row(&row.row) {
            let (copies, _) = reopened
                .shard_scan(g, TABLE, &Scan::prefix(&row.row))
                .expect("replica scan");
            assert_eq!(
                copies.len(),
                1,
                "{tag}: replica {g} dropped a committed row"
            );
            assert_eq!(&copies[0], row, "{tag}: replica {g} diverged");
        }
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Journal length of a clean run of the canonical interleaving, right
/// after the `Cutover` append (its maximum) — the sweep range for (a).
fn measure_journal_len(ops: &[Op], init: (u32, u32), plan: &Topology) -> u64 {
    let dir = tmp_dir("measure-topo");
    init_store(&dir, init);
    let store = open_sharded(&dir, opts(init.0, init.1));
    let half = ops.len() / 2;
    for op in &ops[..half] {
        apply_sharded(&store, op).expect("measure op");
    }
    store.begin_reshard(plan.clone()).expect("begin");
    let mut status = store.reshard_step().expect("step");
    for op in &ops[half..] {
        apply_sharded(&store, op).expect("measure op");
    }
    while status.phase != ReshardPhase::Gc && status.phase != ReshardPhase::Done {
        status = store.reshard_step().expect("step");
    }
    let len = std::fs::metadata(dir.join(TOPOLOGY_FILE))
        .expect("journal meta")
        .len();
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup measure");
    len
}

/// Per-original-shard WAL sizes after all ops of the canonical
/// interleaving (measured mid-migration, before GC can drop a shard) —
/// the sweep range for (b).
fn measure_wal_lens(ops: &[Op], init: (u32, u32), plan: &Topology) -> Vec<u64> {
    let dir = tmp_dir("measure-wal");
    init_store(&dir, init);
    let store = open_sharded(&dir, opts(init.0, init.1));
    let half = ops.len() / 2;
    for op in &ops[..half] {
        apply_sharded(&store, op).expect("measure op");
    }
    store.begin_reshard(plan.clone()).expect("begin");
    store.reshard_step().expect("step");
    for op in &ops[half..] {
        apply_sharded(&store, op).expect("measure op");
    }
    // Cumulative bytes written (the crash-budget currency), not file
    // size: flushes truncate the file but the budget keeps counting.
    let lens = (0..init.0)
        .map(|g| store.shard_wal_bytes_written(g))
        .collect();
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup measure");
    lens
}

/// (a) Exhaustive journal sweep: for each plan shape, tear the
/// `TOPOLOGY` journal at every byte of its full extent (writes
/// dual-applied and flushed mid-migration).
#[test]
fn crash_at_every_topology_journal_byte_resumes_to_exactly_one_epoch() {
    let ops = workload(42, 28);
    let oracles = oracle_prefixes("topo-oracle", &ops);
    for (tag, init, plan) in scenarios() {
        let len = measure_journal_len(&ops, init, &plan);
        assert!(
            len > 60,
            "{tag}: journal too small to prove anything: {len}"
        );
        for crash_at in 1..=len {
            check_crash_point(
                &format!("topo-{tag}"),
                &ops,
                init,
                &plan,
                None,
                Some(crash_at),
                &oracles,
            );
        }
    }
}

/// (b) WAL sweep mid-migration: for each plan shape, kill a shard at
/// stride-1 offsets through the first WAL frames and a coprime stride
/// beyond (victims rotating so every shard faces every alignment
/// class).
#[test]
fn crash_any_shard_wal_mid_migration_preserves_acked_writes() {
    let ops = workload(1234, 32);
    let oracles = oracle_prefixes("wal-oracle", &ops);
    for (tag, init, plan) in scenarios() {
        let lens = measure_wal_lens(&ops, init, &plan);
        let min_len = lens.iter().copied().min().expect("at least one shard");
        assert!(min_len > 300, "{tag}: workload too small: {lens:?}");
        let mut points: Vec<u64> = (1..48.min(min_len)).collect();
        points.extend((48..min_len).step_by(13));
        for (i, crash_at) in points.iter().enumerate() {
            let victim = (i as u32) % init.0;
            check_crash_point(
                &format!("wal-{tag}"),
                &ops,
                init,
                &plan,
                Some((victim, *crash_at)),
                None,
                &oracles,
            );
        }
    }
}

/// (c) Pause (clean process exit) after every step — Begin, each copy
/// unit, Verify, Cutover, and each of the three GC sub-steps. Every
/// intermediate state must be fsck-clean (exit 0), report the migration
/// in flight, resume idempotently, and land bit-identical on the target
/// epoch.
#[test]
fn pause_at_every_step_boundary_is_fsck_clean_and_resumes() {
    let ops = workload(7, 24);
    let oracles = oracle_prefixes("pause-oracle", &ops);
    let oracle = oracles.last().expect("full-prefix oracle");
    for (tag, init, plan) in scenarios() {
        for pause_after in 0..=9usize {
            let dir = tmp_dir(&format!("pause-{tag}"));
            init_store(&dir, init);
            let store = open_sharded(&dir, opts(init.0, init.1));
            for op in &ops {
                apply_sharded(&store, op).expect("workload op");
            }
            let mut status = store.begin_reshard(plan.clone()).expect("begin");
            let mut steps = 0;
            while steps < pause_after && status.phase != ReshardPhase::Done {
                status = store.reshard_step().expect("step");
                steps += 1;
            }
            let done_in_session = status.phase == ReshardPhase::Done;
            drop(store);

            // Resolvable intermediate epochs are clean, not corruption.
            assert_eq!(
                pstorm_bench::fsck::run(&dir, false),
                0,
                "{tag}: pause after {pause_after} step(s) must fsck clean"
            );

            let reg = obs::Registry::new();
            let (reopened, report) = ShardedStore::open(&dir, opts(init.0, init.1), reg.clone())
                .expect("reopen paused migration");
            assert!(report.lost_shards.is_empty());
            if done_in_session {
                assert!(
                    report.reshard_in_flight.is_none(),
                    "{tag}: nothing in flight"
                );
                assert!(reopened.resume_reshard().expect("resume").is_none());
            } else {
                assert_eq!(
                    report.reshard_in_flight,
                    Some(1),
                    "{tag}: epoch-1 migration must be reported in flight"
                );
                let resumed = reopened
                    .resume_reshard()
                    .expect("resume")
                    .expect("in flight");
                assert_eq!(resumed.phase, ReshardPhase::Done);
                assert_eq!(
                    reg.snapshot()
                        .counters
                        .get("cfstore.reshard.resumes")
                        .copied()
                        .unwrap_or(0),
                    1,
                    "{tag}: reopen must count the resumable migration"
                );
            }
            assert!(reopened.resume_reshard().expect("second resume").is_none());
            let topo = reopened.topology();
            assert_eq!(
                (topo.shards, topo.replication),
                (plan.shards, plan.replication),
                "{tag}: pause {pause_after} did not land on the target epoch"
            );
            assert_eq!(
                &scan_all(&reopened),
                oracle,
                "{tag}: pause {pause_after} diverged from the oracle"
            );
            drop(reopened);
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }
}

/// (d) Slot overrides — the rebalance mechanism — apply end to end:
/// same N and R, one hot slot pinned onto an explicit replica set. The
/// epoch bumps, placement honors the override, scans stay bit-identical
/// to the oracle, and the override survives a reopen through the SHARDS
/// v2 catalog.
#[test]
fn rebalance_overrides_survive_reshard_and_reopen() {
    let ops = workload(99, 40);
    let dir = tmp_dir("override");
    init_store(&dir, (3, 2));
    let oracles = oracle_prefixes("override-oracle", &ops);
    let oracle = oracles.last().expect("full-prefix oracle");

    let store = open_sharded(&dir, opts(3, 2));
    for op in &ops {
        apply_sharded(&store, op).expect("workload op");
    }
    let plan = Topology::uniform(3, 2).with_override(0, vec![2, 0]);
    let status = store.reshard(plan).expect("reshard");
    assert_eq!(status.phase, ReshardPhase::Done);
    assert_eq!(status.epoch, 1);
    let topo = store.topology();
    assert_eq!(topo.overrides.get(&0), Some(&vec![2, 0]));
    assert_eq!(&scan_all(&store), oracle);
    drop(store);

    let (reopened, report) =
        ShardedStore::open(&dir, opts(3, 2), obs::Registry::disabled()).expect("reopen");
    assert!(report.reshard_in_flight.is_none());
    assert!(report.lost_shards.is_empty());
    let topo = reopened.topology();
    assert_eq!(
        topo.overrides.get(&0),
        Some(&vec![2, 0]),
        "override lost across reopen"
    );
    let got = scan_all(&reopened);
    assert_eq!(&got, oracle);
    for row in &got {
        if topo.slot_of_row(&row.row) == 0 {
            assert_eq!(
                reopened.topology().replicas_of_row(&row.row),
                vec![2, 0],
                "pinned slot not placed on its override"
            );
        }
        for g in reopened.topology().replicas_of_row(&row.row) {
            let (copies, _) = reopened
                .shard_scan(g, TABLE, &Scan::prefix(&row.row))
                .expect("replica scan");
            assert_eq!(copies.len(), 1);
            assert_eq!(&copies[0], row);
        }
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// (e) The matcher is unchanged mid-migration: reads serve the old
/// epoch until cutover, so a match issued while units are copying is
/// bit-identical to an unsharded store — and stays identical after the
/// cutover and across a reopen.
#[test]
fn matcher_output_is_unchanged_mid_migration() {
    use datagen::{corpus, SizeClass};
    use mrjobs::jobs;
    use mrsim::{ClusterSpec, JobConfig};
    use profiler::{collect_full_profile, collect_sample_profile, SampleSize};
    use pstorm::{match_profile, MatcherConfig, ProfileStore, SubmittedJob};
    use staticanalysis::StaticFeatures;

    let cl = ClusterSpec::ec2_c1_medium_16();
    let dir = tmp_dir("matcher");
    let single = ProfileStore::new().expect("single store");
    let (sharded, _) = ProfileStore::reopen_sharded(&dir).expect("sharded store");

    for spec in [jobs::word_count(), jobs::sort(), jobs::inverted_index()] {
        let ds = corpus::input_for(&spec.name, SizeClass::Small);
        let (profile, _) =
            collect_full_profile(&spec, &ds, &cl, &JobConfig::submitted(&spec), 5).unwrap();
        let statics = StaticFeatures::extract(&spec);
        single.put_profile(&statics, &profile).unwrap();
        sharded.put_profile(&statics, &profile).unwrap();
    }

    let spec = jobs::word_count();
    let text = corpus::random_text_1g();
    let sample = collect_sample_profile(
        &spec,
        &text,
        &cl,
        &JobConfig::submitted(&spec),
        SampleSize::OneTask,
        3,
    )
    .unwrap();
    let q = SubmittedJob {
        statics: StaticFeatures::extract(&spec),
        spec,
        sample: sample.profile,
        input_bytes: text.logical_bytes,
    };
    let cfg = MatcherConfig::default();
    let want = match_profile(&single, &q, &cfg)
        .expect("single match")
        .expect("word-count must match");
    let assert_same = |store: &ProfileStore, label: &str| {
        let got = match_profile(store, &q, &cfg)
            .expect("sharded match")
            .unwrap_or_else(|e| panic!("{label}: no match: {e:?}"));
        assert_eq!(got.map.source_job, want.map.source_job, "{label}");
        assert_eq!(
            got.reduce.as_ref().map(|r| &r.source_job),
            want.reduce.as_ref().map(|r| &r.source_job),
            "{label}"
        );
        assert_eq!(
            got.profile, want.profile,
            "{label}: composite profile diverged"
        );
    };
    assert_same(&sharded, "pristine sharded store");

    // Begin a grow and copy one unit: old epoch must keep serving.
    let handle = sharded.sharded().expect("sharded backend");
    handle
        .begin_reshard(Topology::uniform(4, 2))
        .expect("begin");
    handle.reshard_step().expect("one copy step");
    assert_same(&sharded, "mid-migration (old epoch serves)");

    // Finish through the core-level passthrough, then across a reopen.
    let status = sharded
        .resume_reshard()
        .expect("resume")
        .expect("migration in flight");
    assert_eq!(status.phase, cfstore::ReshardPhase::Done);
    assert!(sharded.reshard_status().is_none());
    assert_same(&sharded, "post-cutover");
    sharded.flush().expect("flush");
    drop(sharded);

    let (reopened, report) = ProfileStore::reopen_sharded(&dir).expect("reopen");
    assert!(report.reshard_in_flight.is_none());
    assert_eq!(reopened.sharded().unwrap().shard_count(), 4);
    assert_same(&reopened, "reopened on the new epoch");
    drop(reopened);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// (f) `store_fsck` exit codes on sharded stores: clean topology 0;
/// phantom/missing shard dirs 3 (repairable back to 0); corrupt
/// journal magic 3; an unresolvable TOPOLOGY/SHARDS contradiction —
/// pre-cutover Begin against the wrong catalog, and a torn cutover
/// whose catalog matches neither epoch — 3.
#[test]
fn fsck_crosschecks_catalog_journal_and_shard_dirs() {
    let ops = workload(5, 20);

    // Clean store: exit 0; phantom dir: 3; removed again: 0; lost dir:
    // 3 without --repair, 0 with (rebuild), 0 after.
    let dir = tmp_dir("fsck-dirs");
    init_store(&dir, (3, 2));
    {
        let store = open_sharded(&dir, opts(3, 2));
        for op in &ops {
            apply_sharded(&store, op).expect("workload op");
        }
        store.flush().expect("flush");
    }
    assert_eq!(pstorm_bench::fsck::run(&dir, false), 0, "clean store");
    std::fs::create_dir(dir.join("shard-007")).expect("phantom dir");
    assert_eq!(pstorm_bench::fsck::run(&dir, false), 3, "phantom shard dir");
    std::fs::remove_dir(dir.join("shard-007")).expect("remove phantom");
    assert_eq!(pstorm_bench::fsck::run(&dir, false), 0, "phantom removed");
    std::fs::remove_dir_all(dir.join("shard-001")).expect("lose shard 1");
    assert_eq!(pstorm_bench::fsck::run(&dir, false), 3, "lost shard dir");
    assert_eq!(pstorm_bench::fsck::run(&dir, true), 0, "repair rebuilds");
    assert_eq!(pstorm_bench::fsck::run(&dir, false), 0, "rebuild stuck");
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // A paused migration with its journal magic flipped: unresolvable.
    let dir = tmp_dir("fsck-magic");
    init_store(&dir, (3, 2));
    {
        let store = open_sharded(&dir, opts(3, 2));
        for op in &ops {
            apply_sharded(&store, op).expect("workload op");
        }
        store.begin_reshard(Topology::uniform(4, 2)).expect("begin");
        store.reshard_step().expect("one step");
    }
    let journal = dir.join(TOPOLOGY_FILE);
    let mut bytes = std::fs::read(&journal).expect("read journal");
    bytes[0] ^= 0xFF;
    std::fs::write(&journal, &bytes).expect("corrupt magic");
    assert_eq!(
        pstorm_bench::fsck::run(&dir, false),
        3,
        "bad TOPOLOGY magic"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // Pre-cutover Begin paired with a catalog from a different world:
    // the journal's old topology (3×2) contradicts the 2×2 catalog.
    let dir_a = tmp_dir("fsck-contra-src");
    init_store(&dir_a, (3, 2));
    let pre_cutover_journal = {
        let store = open_sharded(&dir_a, opts(3, 2));
        for op in &ops {
            apply_sharded(&store, op).expect("workload op");
        }
        store.begin_reshard(Topology::uniform(4, 2)).expect("begin");
        drop(store);
        std::fs::read(dir_a.join(TOPOLOGY_FILE)).expect("read journal")
    };
    std::fs::remove_dir_all(&dir_a).expect("cleanup src");
    let dir_b = tmp_dir("fsck-contra-dst");
    init_store(&dir_b, (2, 2));
    std::fs::write(dir_b.join(TOPOLOGY_FILE), &pre_cutover_journal).expect("inject journal");
    assert_eq!(
        pstorm_bench::fsck::run(&dir_b, false),
        3,
        "Begin vs wrong catalog must be unresolvable"
    );
    std::fs::remove_dir_all(&dir_b).expect("cleanup dst");

    // Torn cutover: a POST-cutover journal (epoch 1, 3×2 → 4×2) whose
    // catalog matches neither the old epoch (3×2 @ 0) nor the new one
    // (4×2 @ 1) — a 4×2 catalog still at epoch 0.
    let dir_a = tmp_dir("fsck-torn-src");
    init_store(&dir_a, (3, 2));
    let post_cutover_journal = {
        let store = open_sharded(&dir_a, opts(3, 2));
        for op in &ops {
            apply_sharded(&store, op).expect("workload op");
        }
        let mut status = store.begin_reshard(Topology::uniform(4, 2)).expect("begin");
        while status.phase != ReshardPhase::Gc {
            status = store.reshard_step().expect("step");
        }
        drop(store);
        std::fs::read(dir_a.join(TOPOLOGY_FILE)).expect("read journal")
    };
    std::fs::remove_dir_all(&dir_a).expect("cleanup src");
    let dir_b = tmp_dir("fsck-torn-dst");
    init_store(&dir_b, (4, 2));
    std::fs::write(dir_b.join(TOPOLOGY_FILE), &post_cutover_journal).expect("inject journal");
    assert_eq!(
        pstorm_bench::fsck::run(&dir_b, false),
        3,
        "torn cutover must be unresolvable (exit 3)"
    );
    std::fs::remove_dir_all(&dir_b).expect("cleanup dst");
}

/// The bounded chaos sweep `scripts/ci.sh` runs on every build (the
/// exhaustive sweeps above are the full proof): random plan shape,
/// random journal-tear budget, and a random shard WAL budget, whichever
/// fires first.
#[test]
#[ignore = "bounded CI chaos sweep — run explicitly via scripts/ci.sh"]
fn bounded_reshard_chaos_sweep() {
    let mut rng_state = 0xD00D_F00D_CAFE_5EEDu64;
    let mut rng = move || {
        rng_state ^= rng_state >> 12;
        rng_state ^= rng_state << 25;
        rng_state ^= rng_state >> 27;
        rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let scen = scenarios();
    for seed in 0..6u64 {
        let ops = workload(seed.wrapping_mul(131).wrapping_add(17), 30);
        let oracles = oracle_prefixes("chaos-oracle", &ops);
        let (tag, init, plan) = &scen[(seed as usize) % scen.len()];
        let topo_budget = 1 + rng() % 170;
        let victim = (rng() % init.0 as u64) as u32;
        let wal_budget = 200 + rng() % 1200;
        check_crash_point(
            &format!("chaos-{tag}"),
            &ops,
            *init,
            plan,
            Some((victim, wal_budget)),
            Some(topo_budget),
            &oracles,
        );
    }
}
