//! Property tests for the columnar stage-1 feature index. For any store
//! contents, query vector, and threshold, the vectorized sweep over the
//! in-memory matrices must return exactly the same survivor set — same
//! jobs, same order — as the pushdown scan over the MiniStore rows. And
//! for any sequence of writes, through any view, across failed batches and
//! reopens, the index the writes maintain must equal the index a scan of
//! the rows builds, and every row of it must equal point reads of the
//! stored rows. The rows are the oracle; the index is a pure projection
//! of them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use cfstore::{CrashSpec, StoreOptions};
use datagen::corpus;
use mrjobs::jobs;
use mrsim::{ClusterSpec, JobConfig};
use profiler::{collect_full_profile, collect_sample_profile, JobProfile, SampleSize};
use proptest::prelude::*;
use pstorm::{match_profile, MatcherConfig, ProfileStore, SubmittedJob};
use staticanalysis::StaticFeatures;

/// A handful of real profiles to perturb into synthetic store rows.
/// Profiling is expensive, so collect once per test process.
fn seeds() -> &'static Vec<(StaticFeatures, JobProfile)> {
    static SEEDS: OnceLock<Vec<(StaticFeatures, JobProfile)>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let text = corpus::random_text_1g();
        let cluster = ClusterSpec::ec2_c1_medium_16();
        // Last, a job with no reduce side at all: its `Static/` row has no
        // `RED_CFG` cell, so putting it over a job that had one leaves the
        // old cell in the table — and must leave it in the index.
        let mut map_only = jobs::word_count();
        map_only.reduce_udf = None;
        map_only.reducer_class = None;
        map_only.combine_udf = None;
        map_only.combiner_class = None;
        [
            jobs::word_count(),
            jobs::word_cooccurrence_pairs(2),
            jobs::bigram_relative_frequency(),
            jobs::grep("ba"),
            map_only,
        ]
        .into_iter()
        .map(|spec| {
            let (profile, _) =
                collect_full_profile(&spec, &text, &cluster, &JobConfig::submitted(&spec), 5)
                    .unwrap();
            (StaticFeatures::extract(&spec), profile)
        })
        .collect()
    })
}

/// One synthetic store row: a seed profile with perturbed dynamics and
/// optionally its reduce side dropped (map-only jobs share the store).
type Perturb = (usize, f64, f64, f64, bool);

fn arb_perturb() -> impl Strategy<Value = Perturb> {
    (
        0usize..4,
        0.2f64..3.0,
        0.2f64..3.0,
        0.2f64..3.0,
        any::<bool>(),
    )
}

/// The seed profile a perturbation picks, perturbed, stored as `job_id`.
fn perturbed(perturb: &Perturb, job_id: String) -> (&'static StaticFeatures, JobProfile) {
    let (idx, m_size, m_pairs, r_size, drop_reduce) = perturb;
    let (statics, profile) = &seeds()[idx % seeds().len()];
    let mut p = profile.clone();
    p.job_id = job_id;
    p.map.size_selectivity *= m_size;
    p.map.pairs_selectivity *= m_pairs;
    if *drop_reduce {
        p.reduce = None;
    } else if let Some(r) = p.reduce.as_mut() {
        r.size_selectivity *= r_size;
    }
    (statics, p)
}

fn store_of(perturbs: &[Perturb]) -> ProfileStore {
    let store = ProfileStore::new().unwrap();
    for (i, perturb) in perturbs.iter().enumerate() {
        let (statics, p) = perturbed(perturb, format!("job-{i:03}"));
        store.put_profile(statics, &p).unwrap();
    }
    store
}

fn map_survivors_both_ways(
    store: &ProfileStore,
    q: &[f64],
    theta: f64,
) -> (Vec<String>, Vec<String>) {
    let bounds = store.normalization_bounds().unwrap();
    let ix = store.columnar_index().unwrap();
    let columnar: Vec<String> = ix
        .sweep_map_dyn(&bounds.map_dyn, q, theta)
        .into_iter()
        .map(|i| ix.job_id(i).to_string())
        .collect();
    let b = bounds.map_dyn.clone();
    let qv = q.to_vec();
    let (rows, _) = store
        .filter_dynamic(move |row| b.distance(&qv, &row.map_dyn) <= theta)
        .unwrap();
    let scan: Vec<String> = rows.iter().map(|r| r.job_id.clone()).collect();
    (columnar, scan)
}

fn red_survivors_both_ways(
    store: &ProfileStore,
    q: &[f64],
    theta: f64,
) -> (Vec<String>, Vec<String>) {
    let bounds = store.normalization_bounds().unwrap();
    let ix = store.columnar_index().unwrap();
    let columnar: Vec<String> = ix
        .sweep_red_dyn(&bounds.red_dyn, q, theta)
        .into_iter()
        .map(|i| ix.job_id(i).to_string())
        .collect();
    let b = bounds.red_dyn.clone();
    let qv = q.to_vec();
    let (rows, _) = store
        .filter_dynamic(move |row| {
            row.red_dyn
                .as_ref()
                .is_some_and(|r| b.distance(&qv, r) <= theta)
        })
        .unwrap();
    let scan: Vec<String> = rows.iter().map(|r| r.job_id.clone()).collect();
    (columnar, scan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn columnar_sweep_matches_scan_survivors(
        // 1..20 crosses the SWEEP_LANES=8 chunk boundary twice, so the
        // sweep's full-lane fast path and remainder masking both run.
        perturbs in prop::collection::vec(arb_perturb(), 1..20),
        mq in (0.0f64..3.0, 0.0f64..3.0, 0.0f64..3.0, 0.0f64..3.0),
        rq in (0.0f64..3.0, 0.0f64..3.0),
        theta in 0.0f64..2.0,
        extra in arb_perturb(),
    ) {
        let store = store_of(&perturbs);
        let map_q = vec![mq.0, mq.1, mq.2, mq.3];
        let red_q = vec![rq.0, rq.1];

        let (columnar, scan) = map_survivors_both_ways(&store, &map_q, theta);
        prop_assert_eq!(columnar, scan);
        let (columnar, scan) = red_survivors_both_ways(&store, &red_q, theta);
        prop_assert_eq!(columnar, scan);

        // A write leaves a delta; the index with it folded in must agree
        // on the grown store (and the new normalization bounds) too.
        let (statics, p) = perturbed(&extra, "job-extra".to_string());
        store.put_profile(statics, &p).unwrap();

        let (columnar, scan) = map_survivors_both_ways(&store, &map_q, theta);
        prop_assert_eq!(columnar, scan);
        let (columnar, scan) = red_survivors_both_ways(&store, &red_q, theta);
        prop_assert_eq!(columnar, scan);
    }
}

// ---- The maintained index against the scan-built oracle -------------------

/// One step of a random history of a store with two views of tenant
/// `acme` (0, 1) and one of tenant `zen` (2).
#[derive(Debug, Clone)]
enum Op {
    /// Insert, or replace — job slots are few, so re-puts are common, and
    /// a re-put may carry another job's statics.
    Put {
        view: usize,
        job: usize,
        perturb: Perturb,
    },
    Delete {
        view: usize,
        job: usize,
    },
    Flush,
    /// Close and reopen; `crash_after` arms a crash once that many WAL
    /// bytes are written after the reopen, so some later batch or delete
    /// fails half-logged and poisons the store.
    Reopen {
        crash_after: Option<u64>,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let perturb = (
        0usize..5,
        0.2f64..3.0,
        0.2f64..3.0,
        0.2f64..3.0,
        any::<bool>(),
    );
    prop_oneof![
        6 => (0usize..3, 0usize..6, perturb)
            .prop_map(|(view, job, perturb)| Op::Put { view, job, perturb }),
        2 => (0usize..3, 0usize..6).prop_map(|(view, job)| Op::Delete { view, job }),
        1 => Just(Op::Flush),
        1 => Just(Op::Reopen { crash_after: None }),
        1 => (1u64..12_000).prop_map(|n| Op::Reopen { crash_after: Some(n) }),
    ]
}

/// A word-count submission to match against whatever the history stored.
fn query() -> &'static SubmittedJob {
    static QUERY: OnceLock<SubmittedJob> = OnceLock::new();
    QUERY.get_or_init(|| {
        let spec = jobs::word_count();
        let text = corpus::random_text_1g();
        let sample = collect_sample_profile(
            &spec,
            &text,
            &ClusterSpec::ec2_c1_medium_16(),
            &JobConfig::submitted(&spec),
            SampleSize::OneTask,
            3,
        )
        .unwrap();
        SubmittedJob {
            statics: StaticFeatures::extract(&spec),
            spec,
            sample: sample.profile,
            input_bytes: text.logical_bytes,
        }
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pstorm-columnar-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The views of a history: 0 and 1 of `acme`, 2 of `zen`.
fn open_views(dir: &Path, crash_after: Option<u64>) -> [ProfileStore; 3] {
    let opts = StoreOptions {
        crash: crash_after.map_or_else(CrashSpec::default, CrashSpec::after_wal_bytes),
        ..StoreOptions::default()
    };
    let (base, _) = ProfileStore::reopen_with_opts(dir, opts).unwrap();
    ["acme", "acme", "zen"].map(|t| base.tenant_view(t).unwrap())
}

/// What must hold of every view after every step. `whole_jobs` is false
/// between a delete that failed half-way and its repetition: until then a
/// job may have a `Profile/` row and no `Dynamic/` row.
fn check_views(views: &[ProfileStore; 3], whole_jobs: bool, step: &str) {
    for (v, view) in views.iter().enumerate() {
        let maintained = view.columnar_index().unwrap();
        let oracle = view.build_columnar_index().unwrap();
        assert_eq!(maintained.len(), oracle.len(), "{step}: view {v}: rows");
        for r in 0..oracle.len() {
            let at = format!("{step}: view {v}: row {r} ({})", oracle.job_id(r));
            assert_eq!(maintained.job_id(r), oracle.job_id(r), "{at}");
            assert_eq!(maintained.map_dyn(r), oracle.map_dyn(r), "{at}");
            assert_eq!(maintained.red_dyn(r), oracle.red_dyn(r), "{at}");
            assert_eq!(maintained.cost_factors(r), oracle.cost_factors(r), "{at}");
            assert_eq!(maintained.input_bytes(r), oracle.input_bytes(r), "{at}");
            assert_eq!(maintained.statics(r), oracle.statics(r), "{at}");
            assert_eq!(maintained.statics_id(r), oracle.statics_id(r), "{at}");
        }
        // ... and whatever no accessor shows: lane matrices, the table.
        assert!(*maintained == oracle, "{step}: view {v}: index != oracle");

        assert_eq!(view.len().unwrap(), oracle.len(), "{step}: view {v}: len");
        if whole_jobs {
            let ids = view.job_ids().unwrap();
            assert_eq!(ids.len(), oracle.len(), "{step}: view {v}: job_ids {ids:?}");
        }
        // The index is a projection of the stored rows: every row of it
        // equals point reads of the job's `Static/` and `CostFactor/` rows
        // and the `Dynamic/` row an accept-all pushdown scan returns. With
        // sweep ≡ scalar ≡ pushdown filter above, that is all the matcher
        // reads before compose.
        let (dynamic, _) = view.filter_dynamic(|_| true).unwrap();
        assert_eq!(dynamic.len(), maintained.len(), "{step}: view {v}: rows");
        for (r, row) in dynamic.iter().enumerate() {
            let job = maintained.job_id(r);
            let at = format!("{step}: view {v}: row {r} ({job})");
            assert_eq!(row.job_id, job, "{at}");
            assert_eq!(row.map_dyn, maintained.map_dyn(r), "{at}");
            assert_eq!(row.red_dyn.as_deref(), maintained.red_dyn(r), "{at}");
            assert_eq!(row.input_bytes, maintained.input_bytes(r), "{at}");
            let statics = view.get_statics(job).unwrap();
            assert_eq!(statics.as_ref(), maintained.statics(r), "{at}");
            let costs = view.get_cost_factors(job).unwrap();
            assert_eq!(costs.as_deref(), Some(maintained.cost_factors(r)), "{at}");
        }
    }
    // Views of one tenant share one index, not two equal ones.
    assert!(Arc::ptr_eq(
        &views[0].columnar_index().unwrap(),
        &views[1].columnar_index().unwrap()
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn maintained_index_equals_the_scan_built_oracle(
        ops in prop::collection::vec(arb_op(), 1..30),
    ) {
        let dir = fresh_dir("history");
        let mut views = open_views(&dir, None);
        for (i, op) in ops.iter().enumerate() {
            let step = format!("op {i} {op:?}");
            let acked = match op {
                Op::Put { view, job, perturb } => {
                    let (statics, p) = perturbed(perturb, format!("job-{job}"));
                    views[*view].put_profile(statics, &p).map(|_| ())
                }
                Op::Delete { view, job } => {
                    views[*view].delete_job(&format!("job-{job}")).map(|_| ())
                }
                Op::Flush => views[0].flush(),
                Op::Reopen { crash_after } => {
                    drop(views);
                    views = open_views(&dir, *crash_after);
                    Ok(())
                }
            };
            if acked.is_ok() {
                check_views(&views, true, &step);
                continue;
            }
            // The armed crash fired inside this op. The poisoned store
            // still serves reads, and what it serves is what the index
            // must show; then recover, and finish a delete cut short.
            prop_assert!(views[0].is_crashed(), "{step}: {acked:?}");
            check_views(&views, false, &format!("{step}, poisoned"));
            drop(views);
            views = open_views(&dir, None);
            check_views(&views, false, &format!("{step}, recovered"));
            if let Op::Delete { view, job } = op {
                views[*view].delete_job(&format!("job-{job}")).unwrap();
            }
            check_views(&views, true, &format!("{step}, repaired"));
        }
        drop(views);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `delete_job` removes `Dynamic/<job>` first and `Profile/<job>` last, so
/// wherever between its four deletes a crash falls, the job is out of the
/// index — and out of every match — before its profile can be gone.
#[test]
fn crash_between_the_deletes_of_a_job_never_matches_a_missing_profile() {
    let stored = |store: &ProfileStore| {
        for (i, scale) in [1.0, 1.3, 0.7].into_iter().enumerate() {
            let (statics, p) = perturbed(&(0, scale, scale, 1.0, false), format!("wc-{i}"));
            store.put_profile(statics, &p).unwrap();
        }
    };
    // What the deletes write, in WAL bytes since open, from a dry run.
    let dir = fresh_dir("delete-dry");
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    stored(&store);
    let victim = match_profile(&store, query(), &MatcherConfig::default())
        .unwrap()
        .expect("a stored word-count matches")
        .map
        .source_job;
    let before = store.inner().wal_bytes_written();
    assert!(store.delete_job(&victim).unwrap());
    let after = store.inner().wal_bytes_written();
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(after - before > 4, "four delete frames");

    let consistent = |store: &ProfileStore, when: &str| {
        let index = store.columnar_index().unwrap();
        assert!(*index == store.build_columnar_index().unwrap(), "{when}");
        assert_eq!(store.len().unwrap(), index.len(), "{when}");
        for r in 0..index.len() {
            let job = index.job_id(r);
            assert!(store.get_profile(job).unwrap().is_some(), "{when}: {job}");
        }
        // Err here would be `Corrupt("missing <job>")`: a winner without
        // a profile.
        let matched = match_profile(store, query(), &MatcherConfig::default())
            .unwrap_or_else(|e| panic!("{when}: {e}"))
            .expect("two word-count profiles are left at least");
        assert!(store
            .get_profile(&matched.map.source_job)
            .unwrap()
            .is_some());
        index.len()
    };
    for crash_at in before..after {
        let when = format!("crash after WAL byte {crash_at} of {before}..{after}");
        let dir = fresh_dir("delete-crash");
        let opts = StoreOptions {
            crash: CrashSpec::after_wal_bytes(crash_at),
            ..StoreOptions::default()
        };
        let (store, _) = ProfileStore::reopen_with_opts(&dir, opts).unwrap();
        stored(&store);
        assert!(store.delete_job(&victim).is_err(), "{when}");
        assert!(store.is_crashed());
        consistent(&store, &format!("{when}, poisoned"));
        drop(store);

        let (store, _) = ProfileStore::reopen(&dir).unwrap();
        let left = consistent(&store, &format!("{when}, reopened"));
        // Deleting again finishes the job, whatever was left of it.
        let had_rows = store.delete_job(&victim).unwrap();
        assert!(had_rows, "{when}: the Profile/ row goes last");
        assert_eq!(consistent(&store, &format!("{when}, repaired")), 2);
        assert_eq!(store.job_ids().unwrap().len(), 2, "{when}");
        assert!(left == 2 || left == 3);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
