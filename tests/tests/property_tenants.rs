//! Multi-tenant isolation chaos sweep (PR 8 acceptance property).
//!
//! The tuning service's isolation invariant (DESIGN.md §14): one
//! tenant's crashes, corruption, or overload never change another
//! tenant's match results or lose its acked profiles. These tests drive
//! `TuningService` with interleaved tenants — clean, hostile (injected
//! cluster faults), vandal (corrupting its own stored cells), and
//! flooding — and pin the clean tenants' outcomes **bit-identical** to a
//! solo single-tenant daemon run on a private store:
//!
//! (a) a ≥1000-seed interleaved sweep: 8 tenants × 128 rounds, where the
//!     hostile tenants fail hard (tripping their breakers) and the
//!     vandal's own profiles are periodically bit-flipped — every clean
//!     submission must match the solo baseline exactly, and every acked
//!     profile must still be served at the end;
//! (b) a flooding tenant saturating its queue and the admission
//!     semaphores sheds only itself — the quiet tenant still tunes,
//!     bit-identical to solo;
//! (c) the same isolation holds on a durable store across a reopen:
//!     tenant namespaces come back disjoint and complete;
//! (d) the same isolation holds when the durable store is **sharded**
//!     ([`ProfileStore::reopen_sharded`], DESIGN.md §13): clean tenants
//!     stay bit-identical to solo across shard placement, a vandal's
//!     corruption heals inside its own namespace, and a reduced-seed
//!     sweep re-checks (a) end to end on the replicated backend.

use mrsim::{ClusterSpec, FaultSpec};
use optimizer::CboOptions;
use pstorm::{
    PStorM, ProfileStore, ServiceConfig, ServiceOutcome, SubmissionOutcome, SubmissionReport,
    TuningService,
};

fn job_for(idx: usize) -> mrjobs::JobSpec {
    match idx % 3 {
        0 => mrjobs::jobs::word_count(),
        1 => mrjobs::jobs::sort(),
        _ => mrjobs::jobs::inverted_index(),
    }
}

/// Small CBO search: these sweeps exercise isolation, not tuning quality.
fn small_cbo() -> CboOptions {
    CboOptions {
        budget: 30,
        rounds: 1,
        ..CboOptions::default()
    }
}

/// Everything about an outcome that the isolation invariant pins: the
/// variant, the matched source jobs, the tuned config, and the exact
/// bits of every float involved.
#[derive(Debug, Clone, PartialEq)]
enum Fingerprint {
    Tuned {
        map_source: String,
        reduce_source: Option<String>,
        predicted_bits: u64,
        config: String,
        runtime_bits: u64,
    },
    Profiled {
        runtime_bits: u64,
    },
    Degraded {
        reason: String,
        runtime_bits: u64,
    },
}

fn fingerprint(report: &SubmissionReport) -> Fingerprint {
    let runtime_bits = report.run.runtime_ms.to_bits();
    match &report.outcome {
        SubmissionOutcome::Tuned {
            matched,
            tuned_config,
            predicted_ms,
        } => Fingerprint::Tuned {
            map_source: matched.map.source_job.clone(),
            reduce_source: matched.reduce.as_ref().map(|r| r.source_job.clone()),
            predicted_bits: predicted_ms.to_bits(),
            config: format!("{tuned_config:?}"),
            runtime_bits,
        },
        SubmissionOutcome::ProfiledAndStored { .. } => Fingerprint::Profiled { runtime_bits },
        SubmissionOutcome::Degraded { reason, .. } => Fingerprint::Degraded {
            reason: reason.clone(),
            runtime_bits,
        },
    }
}

/// The acceptance sweep: 8 tenants × 128 interleaved rounds (1024
/// seeds). Five clean tenants run against a fault-free cluster; one
/// hostile tenant loses every node on every run (hard failures that trip
/// its breaker), one runs at a moderate fault rate, and a vandal's own
/// stored profile cells are bit-flipped every 16 rounds. Every clean
/// submission must be Served with an outcome bit-identical to a solo
/// single-tenant daemon, and every profile acked to a clean tenant must
/// still be readable at the end.
#[test]
#[ignore = "several minutes; run explicitly (scripts/ci.sh does: cargo test --test property_tenants -- --ignored)"]
fn thousand_seed_interleaved_tenant_isolation_sweep() {
    const CLEAN: [&str; 5] = ["clean0", "clean1", "clean2", "clean3", "clean4"];
    const ROUNDS: usize = 128;
    let hostile_hard = FaultSpec {
        node_loss_prob: 1.0,
        ..FaultSpec::default()
    };
    let hostile_moderate = FaultSpec {
        task_failure_prob: 0.15,
        node_loss_prob: 0.02,
        speculation: true,
        ..FaultSpec::default()
    };

    let reg = obs::Registry::new();
    let svc = TuningService::with_obs(
        ProfileStore::new().unwrap(),
        ClusterSpec::ec2_c1_medium_16(),
        ServiceConfig {
            workers: 4,
            queue_depth: 256,
            max_in_flight: 16,
            cbo: small_cbo(),
            ..ServiceConfig::default()
        },
        reg.clone(),
    );
    let ds = datagen::corpus::random_text_1g();
    let seed_of = |round: usize, tenant_idx: usize| (round * 8 + tenant_idx) as u64;

    // tenant index 0..4 clean, 5 hostile-hard, 6 hostile-moderate, 7 vandal
    let mut clean_prints: Vec<Vec<Fingerprint>> = vec![Vec::new(); CLEAN.len()];
    let mut clean_acked: Vec<Vec<String>> = vec![Vec::new(); CLEAN.len()];
    let mut vandal_stored: Vec<String> = Vec::new();
    let (mut hostile_failed, mut hostile_rejected, mut vandal_disrupted) = (0u32, 0u32, 0u32);

    for round in 0..ROUNDS {
        let mut tickets = Vec::new();
        for (idx, tenant) in CLEAN.iter().enumerate() {
            let spec = job_for(round + idx);
            tickets.push((
                idx,
                svc.submit(tenant, &spec, &ds, seed_of(round, idx)).unwrap(),
            ));
        }
        let t5 = svc
            .submit_with_faults(
                "hostile",
                &job_for(round),
                &ds,
                seed_of(round, 5),
                Some(hostile_hard.clone()),
            )
            .unwrap();
        let t6 = svc
            .submit_with_faults(
                "flaky",
                &job_for(round + 1),
                &ds,
                seed_of(round, 6),
                Some(hostile_moderate.clone()),
            )
            .unwrap();
        let vandal_spec = job_for(round + 2);
        let t7 = svc
            .submit("vandal", &vandal_spec, &ds, seed_of(round, 7))
            .unwrap();

        for (idx, ticket) in tickets {
            match ticket.wait() {
                ServiceOutcome::Served(report) => {
                    if let SubmissionOutcome::ProfiledAndStored { .. } = report.outcome {
                        clean_acked[idx].push(report.job_id.clone());
                    }
                    clean_prints[idx].push(fingerprint(&report));
                }
                other => panic!("clean tenant {idx} round {round}: {other:?}"),
            }
        }
        // Hostile tenants may fail or be breaker-rejected — never panic,
        // and (asserted below) never disturb a clean tenant.
        match t5.wait() {
            ServiceOutcome::Failed { .. } => hostile_failed += 1,
            ServiceOutcome::Rejected { .. } => hostile_rejected += 1,
            ServiceOutcome::Served(r) => panic!("total node loss cannot serve: {:?}", r.outcome),
        }
        match t6.wait() {
            ServiceOutcome::Served(_) => {}
            ServiceOutcome::Failed { .. } | ServiceOutcome::Rejected { .. } => {}
        }
        match t7.wait() {
            ServiceOutcome::Served(r) => {
                if let SubmissionOutcome::ProfiledAndStored { .. } = r.outcome {
                    if !vandal_stored.contains(&r.job_id) {
                        vandal_stored.push(r.job_id.clone());
                    }
                }
            }
            // Reads through its own corrupted cells, then breaker
            // fast-fails: the vandal pays for its vandalism.
            ServiceOutcome::Failed { .. } | ServiceOutcome::Rejected { .. } => {
                vandal_disrupted += 1
            }
        }

        // The vandal bit-flips its own stored profile blobs. The
        // corruption lives under `t/vandal/` only.
        if round % 16 == 9 {
            let view = svc.store_view("vandal").unwrap();
            for job in &vandal_stored {
                let _ = view.corrupt_cell(format!("Profile/{job}").as_bytes(), b"blob");
            }
        }
    }
    svc.quiesce();

    // The hostile tenant tripped its breaker and was fast-failed for
    // most of the sweep; the vandal's corruption disrupted *itself*.
    assert!(hostile_failed >= 1, "hard faults must fail");
    assert!(
        hostile_rejected > hostile_failed,
        "breaker must fast-fail most hostile submissions \
         ({hostile_failed} failed, {hostile_rejected} rejected)"
    );
    assert!(vandal_disrupted >= 1, "corruption must bite the vandal");
    assert!(!svc.dead_letters("hostile").is_empty());

    // Solo baselines: each clean tenant's outcomes, bit for bit.
    for (idx, tenant) in CLEAN.iter().enumerate() {
        let mut solo = PStorM::new().unwrap();
        solo.cbo = small_cbo();
        assert_eq!(clean_prints[idx].len(), ROUNDS);
        for (round, expected) in clean_prints[idx].iter().enumerate() {
            let report = solo
                .submit(&job_for(round + idx), &ds, seed_of(round, idx))
                .unwrap();
            assert_eq!(
                *expected,
                fingerprint(&report),
                "tenant {tenant} round {round} diverged from its solo baseline"
            );
        }
        // Acked writes survived the neighbours: every profile acked as
        // stored is still served from the tenant's namespace.
        let view = svc.store_view(tenant).unwrap();
        for job in &clean_acked[idx] {
            assert!(
                view.get_profile(job).unwrap().is_some(),
                "tenant {tenant}: acked profile {job} lost"
            );
        }
        assert_eq!(
            *reg.snapshot()
                .counters
                .get(&format!("tenant.{tenant}.failed"))
                .unwrap_or(&0),
            0,
            "clean tenant {tenant} must never fail"
        );
    }

    let counters = reg.snapshot().counters;
    assert!(counters["tenant.hostile.breaker.trips"] >= 1);
    assert_eq!(
        counters["tenant.clean0.submissions"], ROUNDS as u64,
        "every clean submission accounted"
    );
}

/// Overload isolation: a flooding tenant saturates its per-tenant queue
/// and the tuning slots; its overflow sheds as `Degraded` on its own
/// ticket (never an error). A quiet tenant submitting alongside still
/// profiles and tunes, bit-identical to a solo daemon.
#[test]
fn flooding_tenant_sheds_itself_but_not_its_neighbour() {
    let reg = obs::Registry::new();
    let svc = TuningService::with_obs(
        ProfileStore::new().unwrap(),
        ClusterSpec::ec2_c1_medium_16(),
        ServiceConfig {
            workers: 2,
            queue_depth: 2,
            // Two slots: per-tenant FIFO means the spammer can hold at
            // most one, so the quiet tenant always finds the other.
            max_in_flight: 2,
            cbo: small_cbo(),
            ..ServiceConfig::default()
        },
        reg.clone(),
    );
    let ds = datagen::corpus::random_text_1g();
    let quiet_spec = mrjobs::jobs::word_cooccurrence_pairs(2);
    let spam_spec = mrjobs::jobs::sort();

    let spam: Vec<_> = (0..40)
        .map(|i| svc.submit("spammer", &spam_spec, &ds, 1000 + i).unwrap())
        .collect();
    let q1 = svc.submit("quiet", &quiet_spec, &ds, 1).unwrap().wait();
    let q2 = svc.submit("quiet", &quiet_spec, &ds, 2).unwrap().wait();
    let mut spam_degraded = 0u32;
    for t in spam {
        match t.wait() {
            ServiceOutcome::Served(r) => {
                if matches!(r.outcome, SubmissionOutcome::Degraded { .. }) {
                    spam_degraded += 1;
                }
            }
            other => panic!("flooding must shed, never error: {other:?}"),
        }
    }
    assert!(spam_degraded >= 10, "only {spam_degraded} of 40 shed");

    let solo = {
        let mut d = PStorM::new().unwrap();
        d.cbo = small_cbo();
        d
    };
    let s1 = solo.submit(&quiet_spec, &ds, 1).unwrap();
    let s2 = solo.submit(&quiet_spec, &ds, 2).unwrap();
    let (ServiceOutcome::Served(r1), ServiceOutcome::Served(r2)) = (q1, q2) else {
        panic!("quiet tenant must be served during the flood");
    };
    assert_eq!(fingerprint(&r1), fingerprint(&s1));
    assert_eq!(fingerprint(&r2), fingerprint(&s2));
    assert!(matches!(r2.outcome, SubmissionOutcome::Tuned { .. }));

    svc.quiesce();
    let counters = reg.snapshot().counters;
    assert!(counters.get("service.queue.shed").copied().unwrap_or(0) >= 10);
    assert_eq!(
        counters.get("tenant.quiet.shed").copied().unwrap_or(0),
        0,
        "the quiet tenant must never be shed by the spammer's flood"
    );
}

/// Durable isolation across a reopen: three tenants interleave on one
/// durable store (the vandal corrupting its own cells); after a flush,
/// shutdown, and reopen, each tenant's namespace is complete and
/// disjoint — the vandal's corruption never leaks into a neighbour.
#[test]
fn durable_multi_tenant_reopen_keeps_namespaces_isolated() {
    let dir = std::env::temp_dir().join(format!("pstorm-tenants-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = datagen::corpus::random_text_1g();
    let mut acked: Vec<(String, String)> = Vec::new(); // (tenant, job_id)

    {
        let (store, _) = ProfileStore::reopen(&dir).unwrap();
        let svc = TuningService::new(
            store,
            ClusterSpec::ec2_c1_medium_16(),
            ServiceConfig {
                workers: 3,
                cbo: small_cbo(),
                ..ServiceConfig::default()
            },
        );
        for round in 0..20usize {
            let tickets: Vec<_> = ["alpha", "beta", "vandal"]
                .iter()
                .enumerate()
                .map(|(idx, tenant)| {
                    (
                        *tenant,
                        svc.submit(tenant, &job_for(round + idx), &ds, round as u64)
                            .unwrap(),
                    )
                })
                .collect();
            for (tenant, ticket) in tickets {
                match ticket.wait() {
                    ServiceOutcome::Served(r) => {
                        if let SubmissionOutcome::ProfiledAndStored { .. } = r.outcome {
                            acked.push((tenant.to_string(), r.job_id.clone()));
                        }
                    }
                    other => {
                        assert_eq!(tenant, "vandal", "clean tenant hit {other:?}");
                    }
                }
            }
            if round == 7 {
                let view = svc.store_view("vandal").unwrap();
                for (tenant, job) in &acked {
                    if tenant == "vandal" {
                        let _ = view.corrupt_cell(format!("Profile/{job}").as_bytes(), b"blob");
                    }
                }
            }
        }
        svc.quiesce();
        svc.flush().unwrap();
    }

    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    let alpha = store.tenant_view("alpha").unwrap();
    let beta = store.tenant_view("beta").unwrap();
    for (tenant, job) in &acked {
        let view = match tenant.as_str() {
            "alpha" => &alpha,
            "beta" => &beta,
            _ => continue,
        };
        assert!(
            view.get_profile(job).unwrap().is_some(),
            "tenant {tenant}: acked profile {job} lost across reopen"
        );
    }
    // Namespaces stay disjoint after recovery: each tenant sees only its
    // own job ids.
    let jobs_of = |view: &ProfileStore| view.job_ids().unwrap();
    let alpha_jobs = jobs_of(&alpha);
    let beta_jobs = jobs_of(&beta);
    assert!(!alpha_jobs.is_empty() && !beta_jobs.is_empty());
    for j in &alpha_jobs {
        assert!(
            acked.iter().any(|(t, job)| t == "alpha" && job == j),
            "alpha sees a row it never acked: {j}"
        );
    }
    drop((alpha, beta, store));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sharded smoke for (d): three tenants interleave on one sharded,
/// replicated store (the vandal corrupting its own cells mid-run);
/// after a quiesce, flush, and sharded reopen, recovery is clean (no
/// lost shards, no aborted batches), every clean tenant's acked
/// profiles survive, and the namespaces are disjoint.
#[test]
fn sharded_multi_tenant_reopen_keeps_namespaces_isolated() {
    let dir = std::env::temp_dir().join(format!("pstorm-tenants-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ds = datagen::corpus::random_text_1g();
    let mut acked: Vec<(String, String)> = Vec::new();

    {
        let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
        let svc = TuningService::new(
            store,
            ClusterSpec::ec2_c1_medium_16(),
            ServiceConfig {
                workers: 3,
                cbo: small_cbo(),
                ..ServiceConfig::default()
            },
        );
        for round in 0..8usize {
            let tickets: Vec<_> = ["alpha", "beta", "vandal"]
                .iter()
                .enumerate()
                .map(|(idx, tenant)| {
                    (
                        *tenant,
                        svc.submit(tenant, &job_for(round + idx), &ds, round as u64)
                            .unwrap(),
                    )
                })
                .collect();
            for (tenant, ticket) in tickets {
                match ticket.wait() {
                    ServiceOutcome::Served(r) => {
                        if let SubmissionOutcome::ProfiledAndStored { .. } = r.outcome {
                            acked.push((tenant.to_string(), r.job_id.clone()));
                        }
                    }
                    other => assert_eq!(tenant, "vandal", "clean tenant hit {other:?}"),
                }
            }
            if round == 3 {
                let view = svc.store_view("vandal").unwrap();
                for (tenant, job) in &acked {
                    if tenant == "vandal" {
                        let _ = view.corrupt_cell(format!("Profile/{job}").as_bytes(), b"blob");
                    }
                }
            }
        }
        svc.quiesce();
        svc.flush().unwrap();
    }

    let (store, report) = ProfileStore::reopen_sharded(&dir).unwrap();
    assert!(
        report.lost_shards.is_empty(),
        "no shard lost in a clean run"
    );
    assert_eq!(report.aborted_batches, 0, "quiesced writes all committed");
    for (tenant, job) in &acked {
        if tenant == "vandal" {
            continue;
        }
        let view = store.tenant_view(tenant).unwrap();
        assert!(
            view.get_profile(job).unwrap().is_some(),
            "tenant {tenant}: acked profile {job} lost across sharded reopen"
        );
    }
    let alpha_jobs = store.tenant_view("alpha").unwrap().job_ids().unwrap();
    assert!(!alpha_jobs.is_empty());
    for j in &alpha_jobs {
        assert!(
            acked.iter().any(|(t, job)| t == "alpha" && job == j),
            "alpha sees a row it never acked: {j}"
        );
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reduced-seed isolation sweep on the sharded backend (the `--ignored`
/// CI gate runs this): for each seed, clean tenants interleave with a
/// hard-hostile tenant and a vandal on a sharded store, and every clean
/// outcome must be bit-identical to a solo daemon — shard placement and
/// neighbour faults are invisible. After each seed the store reopens
/// sharded and every clean acked profile is still served.
#[test]
#[ignore = "sharded sweep, ~a minute; scripts/ci.sh runs it via --ignored"]
fn sharded_tenant_isolation_sweep_reduced_seeds() {
    const ROUNDS: usize = 10;
    const CLEAN: [&str; 2] = ["clean0", "clean1"];
    let hostile_hard = FaultSpec {
        node_loss_prob: 1.0,
        ..FaultSpec::default()
    };
    let ds = datagen::corpus::random_text_1g();

    for sweep_seed in 0..3u64 {
        let dir = std::env::temp_dir().join(format!(
            "pstorm-tenants-shard-sweep-{}-{sweep_seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let seed_of = |round: usize, idx: usize| sweep_seed * 1000 + (round * 4 + idx) as u64;
        let mut clean_prints: Vec<Vec<Fingerprint>> = vec![Vec::new(); CLEAN.len()];
        let mut clean_acked: Vec<Vec<String>> = vec![Vec::new(); CLEAN.len()];
        let mut vandal_stored: Vec<String> = Vec::new();

        {
            let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
            let svc = TuningService::new(
                store,
                ClusterSpec::ec2_c1_medium_16(),
                ServiceConfig {
                    workers: 4,
                    cbo: small_cbo(),
                    ..ServiceConfig::default()
                },
            );
            for round in 0..ROUNDS {
                let mut tickets = Vec::new();
                for (idx, tenant) in CLEAN.iter().enumerate() {
                    let spec = job_for(round + idx);
                    tickets.push((
                        idx,
                        svc.submit(tenant, &spec, &ds, seed_of(round, idx)).unwrap(),
                    ));
                }
                let th = svc
                    .submit_with_faults(
                        "hostile",
                        &job_for(round),
                        &ds,
                        seed_of(round, 2),
                        Some(hostile_hard.clone()),
                    )
                    .unwrap();
                let tv = svc
                    .submit("vandal", &job_for(round + 2), &ds, seed_of(round, 3))
                    .unwrap();
                for (idx, ticket) in tickets {
                    match ticket.wait() {
                        ServiceOutcome::Served(report) => {
                            if let SubmissionOutcome::ProfiledAndStored { .. } = report.outcome {
                                clean_acked[idx].push(report.job_id.clone());
                            }
                            clean_prints[idx].push(fingerprint(&report));
                        }
                        other => panic!("clean tenant {idx} round {round}: {other:?}"),
                    }
                }
                match th.wait() {
                    ServiceOutcome::Served(r) => {
                        panic!("total node loss cannot serve: {:?}", r.outcome)
                    }
                    ServiceOutcome::Failed { .. } | ServiceOutcome::Rejected { .. } => {}
                }
                if let ServiceOutcome::Served(r) = tv.wait() {
                    if let SubmissionOutcome::ProfiledAndStored { .. } = r.outcome {
                        vandal_stored.push(r.job_id.clone());
                    }
                }
                if round % 4 == 2 {
                    let view = svc.store_view("vandal").unwrap();
                    for job in &vandal_stored {
                        let _ = view.corrupt_cell(format!("Profile/{job}").as_bytes(), b"blob");
                    }
                }
            }
            svc.quiesce();
            svc.flush().unwrap();
        }

        // Solo baselines, bit for bit, then durability across a sharded
        // reopen.
        let (store, report) = ProfileStore::reopen_sharded(&dir).unwrap();
        assert!(report.lost_shards.is_empty());
        for (idx, tenant) in CLEAN.iter().enumerate() {
            let mut solo = PStorM::new().unwrap();
            solo.cbo = small_cbo();
            assert_eq!(clean_prints[idx].len(), ROUNDS);
            for (round, expected) in clean_prints[idx].iter().enumerate() {
                let r = solo
                    .submit(&job_for(round + idx), &ds, seed_of(round, idx))
                    .unwrap();
                assert_eq!(
                    *expected,
                    fingerprint(&r),
                    "seed {sweep_seed} tenant {tenant} round {round} diverged from solo"
                );
            }
            let view = store.tenant_view(tenant).unwrap();
            for job in &clean_acked[idx] {
                assert!(
                    view.get_profile(job).unwrap().is_some(),
                    "seed {sweep_seed} tenant {tenant}: acked profile {job} lost"
                );
            }
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
