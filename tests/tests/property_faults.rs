//! Chaos property tests for the fault-injection layer and the daemon's
//! graceful degradation:
//!
//! (a) a zero-fault `FaultSpec` gives the default cluster's report, whole;
//! (b) every faulted run either completes or returns a typed fault error —
//!     never a panic;
//! (c) attempt accounting is conserved: successes + failures + speculative
//!     kills == scheduled attempts;
//! plus a 1000-seed daemon sweep with faults on, asserting every
//! submission is served with a `SubmissionOutcome`.
//!
//! Since PR 4 the sweep also carries a crash-recovery dimension: the
//! daemon runs on a *durable* store and deterministic `CrashSpec` crash
//! points (WAL byte budgets and mid-flush kills) are interleaved with the
//! submissions. A crashed store degrades submissions (never errors,
//! never panics), and every recovery must bring back every profile the
//! daemon acked as stored.

use cfstore::{CrashSpec, StoreOptions, SyncPolicy};
use datagen::corpus;
use mrjobs::jobs;
use mrsim::{simulate, ClusterSpec, FaultSpec, JobConfig};
use optimizer::CboOptions;
use proptest::prelude::*;
use pstorm::{PStorM, ProfileStore, SubmissionOutcome};

fn job_for(idx: u8) -> mrjobs::JobSpec {
    match idx % 4 {
        0 => jobs::word_count(),
        1 => jobs::word_cooccurrence_pairs(2),
        2 => jobs::sort(),
        _ => jobs::inverted_index(),
    }
}

fn arb_faults() -> impl Strategy<Value = FaultSpec> {
    (
        0.0f64..0.4,
        0.0f64..0.15,
        any::<bool>(),
        1.0f64..3.0,
        0.0f64..0.5,
    )
        .prop_map(
            |(task_failure_prob, node_loss_prob, speculation, threshold, cap)| FaultSpec {
                task_failure_prob,
                node_loss_prob,
                speculation,
                speculation_threshold: threshold,
                speculation_cap: cap,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Property (a): a spec whose fault mechanisms are all disabled makes
    // every fault draw of the one scheduler come up empty, so it reproduces
    // the default cluster's whole report bit for bit — and reports no
    // attempt accounting — whatever the speculation knobs say.
    #[test]
    fn zero_fault_spec_is_bit_identical(
        seed in 0u64..1_000_000,
        job_idx in 0u8..4,
        threshold in 1.0f64..5.0,
        cap in 0.0f64..1.0,
    ) {
        let spec = job_for(job_idx);
        let ds = corpus::random_text_1g();
        let config = JobConfig::submitted(&spec);

        let baseline = ClusterSpec::ec2_c1_medium_16();
        let mut zero_fault = ClusterSpec::ec2_c1_medium_16();
        zero_fault.faults = FaultSpec {
            task_failure_prob: 0.0,
            node_loss_prob: 0.0,
            speculation: false,
            speculation_threshold: threshold,
            speculation_cap: cap,
        };

        let a = simulate(&spec, &ds, &baseline, &config, seed).unwrap();
        let b = simulate(&spec, &ds, &zero_fault, &config, seed).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(b.faults, mrsim::FaultStats::default());
    }

    // Properties (b) + (c): under arbitrary (bounded) fault rates the
    // simulation never panics — it completes or fails with a typed fault
    // error — and completed runs conserve their attempt accounting.
    #[test]
    fn faulted_runs_complete_or_fail_typed_and_conserve_attempts(
        seed in 0u64..1_000_000,
        job_idx in 0u8..4,
        faults in arb_faults(),
    ) {
        let spec = job_for(job_idx);
        let ds = corpus::random_text_1g();
        let config = JobConfig::submitted(&spec);
        let mut cluster = ClusterSpec::ec2_c1_medium_16();
        cluster.faults = faults;

        match simulate(&spec, &ds, &cluster, &config, seed) {
            Ok(report) => {
                prop_assert!(report.runtime_ms.is_finite() && report.runtime_ms > 0.0);
                prop_assert!(
                    report.faults.is_conserved(),
                    "attempt accounting violated: {:?}",
                    report.faults
                );
                prop_assert!(report.faults.wasted_ms >= 0.0);
                prop_assert!(
                    report.faults.speculative_wins <= report.faults.speculative_kills
                );
            }
            Err(e) => prop_assert!(e.is_fault(), "non-fault error under injected faults: {e}"),
        }
    }
}

/// The acceptance sweep: 1000 seeds against a flaky cluster, on a
/// *durable* store with crash injection interleaved. Every daemon
/// submission must come back as a `SubmissionOutcome` — injected cluster
/// faults and store crashes must never surface as an unhandled error —
/// and every recovery must serve back every acked profile.
#[test]
fn thousand_seed_daemon_sweep_under_faults_and_crashes() {
    let dir = std::env::temp_dir().join(format!("pstorm-chaos-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut daemon = PStorM::new().unwrap();
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    daemon.store = store;
    daemon.cluster.faults = FaultSpec {
        task_failure_prob: 0.05,
        node_loss_prob: 0.01,
        speculation: true,
        ..FaultSpec::default()
    };
    // Keep the CBO search small: the sweep exercises robustness, not
    // tuning quality.
    daemon.cbo = CboOptions {
        budget: 30,
        rounds: 1,
        ..CboOptions::default()
    };
    let ds = corpus::random_text_1g();
    let specs = [jobs::word_count(), jobs::sort(), jobs::inverted_index()];

    // xorshift for crash-point placement — deterministic, seed-free.
    let mut rng_state = 0xC0FF_EE00_D15E_A5E5u64;
    let mut rng = move || {
        rng_state ^= rng_state >> 12;
        rng_state ^= rng_state << 25;
        rng_state ^= rng_state >> 27;
        rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let wal_len = |dir: &std::path::Path| {
        std::fs::metadata(dir.join(cfstore::wal::WAL_FILE))
            .map(|m| m.len())
            .unwrap_or(0)
    };

    let (mut tuned, mut profiled, mut degraded) = (0u32, 0u32, 0u32);
    let mut persisted: Vec<String> = Vec::new();
    let mut recoveries = 0u32;
    for seed in 0..1000u64 {
        // Crash dimension 1: every 200 seeds, rearm the store with a WAL
        // byte budget a little past the current log size — whatever
        // profile write comes next is torn at a pseudo-random offset.
        if seed % 200 == 31 {
            let budget = wal_len(&dir) + 64 + rng() % 4096;
            let (store, _) = ProfileStore::reopen_with_opts(
                &dir,
                StoreOptions {
                    sync: SyncPolicy::EveryOp,
                    crash: CrashSpec::after_wal_bytes(budget),
                    ..StoreOptions::default()
                },
            )
            .expect("rearm reopen");
            daemon.store = store;
        }
        // Crash dimension 2: every 200 seeds, kill the store mid-flush.
        // Compacting flushes skip clean regions, so dirty one first with
        // a sentinel row (outside every profile key prefix) — then the
        // flush must write at least one segment and the armed crash
        // point fires on segment 0.
        if seed % 200 == 131 {
            let (store, _) = ProfileStore::reopen_with_opts(
                &dir,
                StoreOptions {
                    sync: SyncPolicy::EveryOp,
                    crash: CrashSpec {
                        during_flush_segment: Some(0),
                        ..CrashSpec::default()
                    },
                    ..StoreOptions::default()
                },
            )
            .expect("rearm reopen");
            daemon.store = store;
            daemon
                .store
                .inner()
                .put("Jobs", cfstore::Put::new("chaos/dirty", "f", "c", "x"))
                .expect("sentinel write");
            match daemon.store.flush() {
                Err(pstorm::ProfileStoreError::Store(cfstore::StoreError::Crashed)) => {}
                other => panic!("mid-flush crash should fire, got {other:?}"),
            }
        }

        let spec = &specs[(seed % specs.len() as u64) as usize];
        let report = daemon
            .submit(spec, &ds, seed)
            .expect("moderate fault rates must always be served, not errored");
        assert!(report.run.runtime_ms.is_finite() && report.run.runtime_ms > 0.0);
        assert!(
            report.run.faults.is_conserved(),
            "seed {seed}: {:?}",
            report.run.faults
        );
        match report.outcome {
            SubmissionOutcome::Tuned { .. } => tuned += 1,
            SubmissionOutcome::ProfiledAndStored { .. } => {
                profiled += 1;
                if !persisted.contains(&report.job_id) {
                    persisted.push(report.job_id.clone());
                }
            }
            SubmissionOutcome::Degraded { ref reason, .. } => {
                assert!(!reason.is_empty());
                degraded += 1;
            }
        }

        // Recovery: a poisoned store keeps serving reads (submissions
        // degrade at worst, asserted above); reopen it and check that
        // every profile the daemon acked as stored survived the crash.
        if daemon.store.is_crashed() {
            recoveries += 1;
            let (store, report) = ProfileStore::reopen(&dir).expect("recovery reopen");
            assert!(report.truncation.is_none() || report.wal_bytes_dropped > 0);
            for id in &persisted {
                assert!(
                    store.get_profile(id).expect("get after recovery").is_some(),
                    "acked profile {id} lost across crash recovery {recoveries}"
                );
            }
            daemon.store = store;
        }
        // Periodic flushes keep WAL replay bounded and exercise the
        // segment path under the fault mix.
        if seed % 100 == 87 {
            daemon.store.flush().expect("healthy flush");
        }
    }
    assert_eq!(tuned + profiled + degraded, 1000);
    // After the first few profiling runs the store serves matches.
    assert!(tuned > 500, "tuned only {tuned} of 1000");
    assert!(profiled >= specs.len() as u32);
    // The mid-flush kills alone guarantee recovery cycles ran.
    assert!(recoveries >= 5, "only {recoveries} crash-recovery cycles");

    // Final reopen: everything acked across the whole sweep is intact.
    let (store, _) = ProfileStore::reopen(&dir).expect("final reopen");
    for id in &persisted {
        assert!(
            store.get_profile(id).unwrap().is_some(),
            "{id} lost at end of sweep"
        );
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
