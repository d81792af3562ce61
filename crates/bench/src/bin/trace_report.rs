//! Deterministic trace demo: fixed-seed daemon submissions with the
//! observability layer (`obs`) enabled, rendered as a per-submission span
//! tree — the `--trace` view referenced in the README quick-start.
//!
//! The first submission is a store miss (profiled and stored); the second
//! matches the stored profile and runs CBO-tuned, so the output shows the
//! whole instrumented surface: sampling, matcher stages, CBO rounds,
//! simulated phase spans, store counters, and task-duration histograms;
//! a listing of the store then scans the one stored job.
//! A fixed sharded-store episode (corrupt-and-heal one replica, lose and
//! rebuild one shard) then adds the per-shard `cfstore.shard.<id>.heal.*`
//! counters (DESIGN.md §13).
//!
//! All timestamps are *virtual* (the simulator's clock), so this output is
//! byte-identical on every machine; `tests/tests/trace_snapshot.rs` pins
//! the JSON form of the same scenario as a golden file.
//!
//! Usage: `cargo run --release -p pstorm-bench --bin trace_report [--json]`

use cfstore::{Put, ShardOptions, ShardedStore};
use datagen::corpus;
use mrjobs::jobs;
use pstorm::PStorM;

/// The same deterministic sharded episode `trace_snapshot.rs` pins: a
/// replicated table, one corrupt-and-healed cell, one lost-and-rebuilt
/// shard — all counts pure functions of the fixed keys and the placement
/// hash.
fn sharded_exercise(reg: &obs::Registry) {
    let dir = std::env::temp_dir().join(format!("pstorm-trace-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let victim_dir = {
        let (store, _) = ShardedStore::open(&dir, ShardOptions::default(), reg.clone()).unwrap();
        store.create_table_with_threshold("t", &["f"], 8).unwrap();
        for i in 0..24u32 {
            store
                .put(
                    "t",
                    Put::new(format!("row-{i:04}"), "f", "c", i.to_be_bytes().to_vec()),
                )
                .unwrap();
        }
        assert!(store.corrupt_cell("t", b"row-0007", "f", b"c").unwrap());
        store.get("t", b"row-0007").unwrap().expect("healed read");
        store.flush().unwrap();
        store
            .shard_dir((store.topology().replicas_of_row(b"row-0007")[0] + 1) % store.shard_count())
    };
    std::fs::remove_dir_all(&victim_dir).unwrap();
    let (store, report) = ShardedStore::open(&dir, ShardOptions::default(), reg.clone()).unwrap();
    assert_eq!(report.lost_shards.len(), 1, "the lost shard must rebuild");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    let mut daemon = PStorM::new().expect("fresh store");
    let reg = obs::Registry::new();
    daemon.set_obs(reg.clone());

    let spec = jobs::word_count();
    let ds = corpus::random_text_1g();
    for seed in [1, 2] {
        daemon
            .submit(&spec, &ds, seed)
            .expect("fault-free cluster must serve the submission");
    }
    // The scenario's one scan that returns a row (see `trace_snapshot.rs`).
    assert_eq!(daemon.store.job_ids().expect("listing"), [spec.job_id()]);
    sharded_exercise(&reg);

    let snap = reg.snapshot();
    if json {
        println!("{}", snap.to_json());
    } else {
        print!("{}", snap.render_text());
    }
}
