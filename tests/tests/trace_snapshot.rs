//! Golden-snapshot test for the observability layer's determinism claim
//! (DESIGN.md §10): a fixed-seed submission sequence exports a
//! byte-identical JSON trace on every run and every machine, because all
//! recorded timestamps come from the simulator's virtual clock.
//!
//! Regenerate the golden file after intentional instrumentation changes:
//!
//! ```text
//! UPDATE_TRACE_SNAPSHOT=1 cargo test -p pstorm-tests --test trace_snapshot
//! ```

use datagen::corpus;
use mrjobs::jobs;
use pstorm::PStorM;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/trace_snapshot.json");

/// The trace_report scenario: one store miss (profile-and-store), then one
/// match-and-tune of the same job, then a listing of the store, on one
/// enabled registry — followed by the deterministic sharded-store exercise,
/// so the golden trace also pins the per-shard `cfstore.shard.<id>.heal.*`
/// counters (DESIGN.md §13).
fn collect_trace() -> String {
    let mut daemon = PStorM::new().unwrap();
    let reg = obs::Registry::new();
    daemon.set_obs(reg.clone());
    let spec = jobs::word_count();
    let ds = corpus::random_text_1g();
    daemon.submit(&spec, &ds, 1).unwrap();
    daemon.submit(&spec, &ds, 2).unwrap();
    // A submission reads no store row before compose (DESIGN.md §17), so
    // the listing is the scenario's one scan that returns a row: what the
    // per-region read counters in the golden trace count.
    assert_eq!(daemon.store.job_ids().unwrap(), [spec.job_id()]);
    sharded_exercise(&reg);
    reg.snapshot().to_json()
}

/// A fixed sharded-store episode on the same registry: write a small
/// replicated table, corrupt one replica and heal it on read, then lose
/// a whole shard and rebuild it from its peers. Every count it produces
/// (heal reads/repairs/rows, one rebuild) is a pure function of the fixed
/// keys and the placement hash, so it snapshots byte-identically.
fn sharded_exercise(reg: &obs::Registry) {
    use cfstore::{Put, ShardOptions, ShardedStore};
    let dir = std::env::temp_dir().join(format!(
        "pstorm-trace-shards-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
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

#[test]
fn fixed_seed_trace_is_bit_identical_and_matches_golden() {
    let first = collect_trace();
    let second = collect_trace();
    assert_eq!(
        first, second,
        "two identical fixed-seed runs must export identical traces"
    );

    if std::env::var_os("UPDATE_TRACE_SNAPSHOT").is_some() {
        std::fs::write(GOLDEN, format!("{first}\n")).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect(
        "golden trace missing — regenerate with UPDATE_TRACE_SNAPSHOT=1 \
         cargo test -p pstorm-tests --test trace_snapshot",
    );
    assert_eq!(
        golden.trim_end(),
        first,
        "trace drifted from tests/golden/trace_snapshot.json; if the \
         instrumentation change is intentional, regenerate with \
         UPDATE_TRACE_SNAPSHOT=1"
    );
}

#[test]
fn trace_covers_every_instrumented_subsystem() {
    let mut daemon = PStorM::new().unwrap();
    let reg = obs::Registry::new();
    daemon.set_obs(reg.clone());
    let spec = jobs::word_count();
    let ds = corpus::random_text_1g();
    daemon.submit(&spec, &ds, 1).unwrap();
    daemon.submit(&spec, &ds, 2).unwrap();
    let snap = reg.snapshot();

    for name in [
        "daemon.submit",
        "daemon.sample",
        "matcher.match",
        "matcher.side",
        "cbo.search",
        "cbo.round",
        "sim.job",
        "sim.maps",
    ] {
        assert!(
            snap.spans.iter().any(|s| s.name == name),
            "missing span {name}"
        );
    }
    for counter in [
        "daemon.profiled",
        "daemon.tuned",
        "matcher.matched",
        "cbo.wif_calls",
        "store.put_profile",
        "cfstore.puts",
        "cfstore.scans",
        "sim.jobs",
    ] {
        assert!(snap.counters.contains_key(counter), "missing {counter}");
    }
    // Every span is closed, and children stay inside their parents on the
    // virtual timeline.
    for s in &snap.spans {
        let end = s.end_ns.expect("exported trace has no open spans");
        assert!(s.start_ns <= end, "span {} runs backwards", s.name);
        if let Some(parent) = s.parent {
            let p = &snap.spans[(parent - 1) as usize];
            assert!(
                p.start_ns <= s.start_ns && end <= p.end_ns.unwrap(),
                "span {} escapes its parent {}",
                s.name,
                p.name
            );
        }
    }
}
