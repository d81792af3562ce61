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

use cfstore::{CrashSpec, Scan, ShardOptions, StoreError, StoreOptions, Topology};
use datagen::corpus;
use mrjobs::jobs;
use mrsim::{ClusterSpec, JobConfig};
use profiler::{collect_full_profile, collect_sample_profile, JobProfile, SampleSize};
use proptest::prelude::*;
use pstorm::{
    match_profile, ColumnarIndex, MatcherConfig, ProfileStore, StoredStatics, SubmittedJob,
};
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
        // ... and whatever no accessor shows: the columns, the table.
        assert!(*maintained == oracle, "{step}: view {v}: index != oracle");

        assert_eq!(view.len().unwrap(), oracle.len(), "{step}: view {v}: len");
        if whole_jobs {
            let ids = view.job_ids().unwrap();
            assert_eq!(ids.len(), oracle.len(), "{step}: view {v}: job_ids {ids:?}");
        }
        // The index is a projection of the stored rows: every row of it
        // equals point reads of the job's `Static/` and `CostFactor/` rows
        // and the `Dynamic/` row an accept-all pushdown scan returns. With
        // sweep ≡ pushdown filter above, that is all the matcher
        // reads before compose.
        let (dynamic, _) = view.filter_dynamic(|_| true).unwrap();
        assert_eq!(dynamic.len(), maintained.len(), "{step}: view {v}: rows");
        for (r, row) in dynamic.iter().enumerate() {
            let job = maintained.job_id(r);
            let at = format!("{step}: view {v}: row {r} ({job})");
            assert_eq!(row.job_id, job, "{at}");
            assert_eq!(row.map_dyn, maintained.map_dyn(r), "{at}");
            assert_eq!(row.red_dyn, maintained.red_dyn(r).map(Vec::from), "{at}");
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

// ---- The scan-built index against point reads, in every region state ------

/// `Put`s jobs `job-NNNN` for every `i` in `ids`, cycling through the
/// seeds (map-only ones among them) with dynamics perturbed by `i`.
fn fill(store: &ProfileStore, ids: std::ops::Range<usize>) {
    for i in ids {
        let scale = 0.5 + (i % 7) as f64 * 0.25;
        let perturb = (i, scale, 1.0 + (i % 3) as f64 * 0.1, scale, i % 6 == 5);
        let (statics, p) = perturbed(&perturb, format!("job-{i:04}"));
        store.put_profile(statics, &p).unwrap();
    }
}

/// `store.build_columnar_index()` row by row against point reads: the rows
/// are the jobs an accept-all pushdown scan returns, in its order; each
/// equals the job's stored profile and its `Static/` and `CostFactor/`
/// rows; and the static-feature ids number the distinct sets in order of
/// first appearance. The index `columnar_index` keeps equals it too.
fn assert_built_from_point_reads(store: &ProfileStore, when: &str) {
    let index = store.build_columnar_index().unwrap();
    let (dynamic, _) = store.filter_dynamic(|_| true).unwrap();
    assert_eq!(index.len(), dynamic.len(), "{when}: rows");
    let mut firsts: Vec<StoredStatics> = Vec::new();
    for (r, row) in dynamic.iter().enumerate() {
        let job = index.job_id(r);
        let at = format!("{when}: row {r} ({job})");
        assert_eq!(row.job_id, job, "{at}");
        let profile = store.get_profile(job).unwrap().unwrap();
        let red = profile.reduce.as_ref().map(|red| red.dynamic_features());
        assert_eq!(
            index.map_dyn(r)[..],
            profile.map.dynamic_features()[..],
            "{at}"
        );
        assert_eq!(index.red_dyn(r).map(Vec::from), red, "{at}");
        assert_eq!(index.input_bytes(r), profile.input_bytes, "{at}");
        assert_eq!(
            index.cost_factors(r),
            profile.map.cost_factors.as_vec(),
            "{at}"
        );
        let costs = store.get_cost_factors(job).unwrap();
        assert_eq!(costs.as_deref(), Some(index.cost_factors(r)), "{at}");
        let statics = store.get_statics(job).unwrap();
        assert_eq!(index.statics(r), statics.as_ref(), "{at}");
        let id = statics.map(|s| {
            firsts.iter().position(|f| *f == s).unwrap_or_else(|| {
                firsts.push(s);
                firsts.len() - 1
            })
        });
        assert_eq!(index.statics_id(r), id, "{at}");
    }
    assert_eq!(index.distinct_statics(), firsts.len(), "{when}");
    assert!(*store.columnar_index().unwrap() == index, "{when}");
}

/// The block cache misses `store` has counted into `reg`.
fn misses(reg: &obs::Registry) -> u64 {
    let counters = reg.snapshot().counters;
    counters
        .get("cfstore.block_cache.misses")
        .copied()
        .unwrap_or(0)
}

#[test]
fn the_scan_built_index_is_point_reads_in_every_region_state() {
    let store = ProfileStore::new().unwrap();
    fill(&store, 0..12);
    assert_eq!(store.inner().region_count("Jobs").unwrap(), 1);
    assert_built_from_point_reads(&store, "memstore");
    fill(&store, 12..300);
    let regions = store.inner().region_count("Jobs").unwrap();
    assert!(regions > 2, "{regions} regions");
    assert_built_from_point_reads(&store, "memstore, after splits");

    // Flushed, and reopened at a cache smaller than one block: every region
    // is segment-backed, and every block a scan reads is filled afresh.
    let dir = fresh_dir("states");
    let (flushed, _) = ProfileStore::reopen(&dir).unwrap();
    fill(&flushed, 0..400);
    flushed.flush().unwrap();
    drop(flushed);
    let opts = StoreOptions {
        block_cache_bytes: 1,
        ..StoreOptions::default()
    };
    let (mut store, _) = ProfileStore::reopen_with_opts(&dir, opts).unwrap();
    let reg = obs::Registry::new();
    store.set_obs(reg.clone());
    let before = misses(&reg);
    assert_built_from_point_reads(&store, "segment-backed");
    assert!(
        misses(&reg) > before,
        "the segment-backed build read no block"
    );

    // A put promotes the regions it writes; the others stay segment-backed.
    let regions = store.inner().region_count("Jobs").unwrap();
    assert!(regions > 5, "{regions} regions");
    let (statics, p) = perturbed(&(1, 1.0, 1.0, 1.0, false), "job-0000a".to_string());
    store.put_profile(statics, &p).unwrap();
    let before = misses(&reg);
    assert_built_from_point_reads(&store, "segment-backed and promoted");
    assert!(misses(&reg) > before, "no region stayed segment-backed");

    // A tenant's view of the same store holds only the tenant's rows.
    let acme = store.tenant_view("acme").unwrap();
    fill(&acme, 40..100);
    assert_built_from_point_reads(&acme, "tenant view");
    assert_eq!(acme.build_columnar_index().unwrap().len(), 60);
    assert_built_from_point_reads(&store, "beside a tenant");
    drop((acme, store));
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = fresh_dir("sharded");
    let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
    fill(&store, 0..80);
    assert_built_from_point_reads(&store, "sharded");
    store.flush().unwrap();
    drop(store);
    let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
    assert_built_from_point_reads(&store, "sharded, reopened");
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a scan-built index fails with, by its text, as bad rows pile up in
/// a store of 240 jobs in several regions: each step adds a row whose error
/// takes precedence over every error before it. The rules: a rotted cell
/// (in the `Dynamic/`, then the `Static/`, then the `CostFactor/` rows,
/// each by key order) before any row that does not parse; then a
/// `CostFactor/` row that does not parse, whether or not its job has a
/// `Dynamic/` row; then the first job, in key order, whose `Dynamic/` row
/// does not parse, has no `CostFactor/` row, or whose statics, new to the
/// index, do not decode. A reopen of the flushed store fails the same way.
#[test]
fn a_bad_row_fails_the_scan_built_index_with_the_errors_it_always_had() {
    use cfstore::encoding::encode_f64;
    use cfstore::Put;

    let dir = fresh_dir("errors");
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    fill(&store, 0..240);
    store.flush().unwrap();
    drop(store);
    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    let regions = store.inner().region_count("Jobs").unwrap();
    assert!(regions > 2, "{regions} regions");
    let put = |row: &str, column: &str, value: &[u8]| {
        let put = Put::new(row.to_string(), "f", column.to_string(), value.to_vec());
        store.inner().put("Jobs", put).unwrap();
    };
    let rot = |row: &str, column: &str| {
        assert!(store
            .corrupt_cell(row.as_bytes(), column.as_bytes())
            .unwrap());
    };
    let fails = |step: &str, expected: &str| {
        let err = store.build_columnar_index().unwrap_err().to_string();
        assert_eq!(err, expected, "{step}");
    };
    let rotted = |row: &str, column: &str| {
        format!("checksum mismatch in row `{row}`, column `{column}`: stored cell is corrupt")
    };

    put("Dynamic/job-0100", "INPUT_BYTES", b"abc");
    fails(
        "an undecodable Dynamic row",
        "corrupt store row: undecodable Dynamic row Dynamic/job-0100",
    );
    put("Static/job-0090", "MAP_CFG", b"\x00\x00\x00\x07cfg");
    fails("statics that do not decode", "codec: truncated value");
    put("Static/job-0095", "RED_CFG", b"\xff");
    fails(
        "statics that do not decode, later",
        "codec: truncated value",
    );
    assert!(store
        .inner()
        .delete_row("Jobs", b"CostFactor/job-0070")
        .unwrap());
    fails(
        "a job with no CostFactor row",
        "corrupt store row: no CostFactor row for job-0070",
    );
    put("Dynamic/job-0050", "MAP_SIZE_SEL", b"");
    fails(
        "an undecodable Dynamic row, earlier",
        "corrupt store row: undecodable Dynamic row Dynamic/job-0050",
    );
    put("CostFactor/job-9999", "NETWORK_COST", &encode_f64(1.0));
    fails(
        "a CostFactor row of no job, missing a column",
        "corrupt store row: CostFactor/job-9999 missing READ_HDFS_IO_COST",
    );
    put("CostFactor/job-0003", "MAP_CPU_COST", b"x");
    fails("an undecodable CostFactor cell", "codec: truncated value");
    rot("CostFactor/job-0110", "NETWORK_COST");
    fails(
        "a rotted CostFactor cell",
        &rotted("CostFactor/job-0110", "NETWORK_COST"),
    );
    rot("Static/job-0111", "MAP_CFG");
    fails(
        "a rotted Static cell",
        &rotted("Static/job-0111", "MAP_CFG"),
    );
    rot("Dynamic/job-0112", "RED_PAIRS_SEL");
    fails(
        "a rotted Dynamic cell",
        &rotted("Dynamic/job-0112", "RED_PAIRS_SEL"),
    );
    rot("Dynamic/job-0001", "HAS_REDUCE");
    let first = rotted("Dynamic/job-0001", "HAS_REDUCE");
    fails("a rotted Dynamic cell, earlier", &first);

    store.flush().unwrap();
    drop(store);
    match ProfileStore::reopen(&dir) {
        Err(e) => assert_eq!(e.to_string(), first, "reopened"),
        Ok(_) => panic!("the reopen built an index over rotted rows"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same rules on the sharded backend, where a scan merges the shards'
/// rows: a job with no `CostFactor/` row, then an undecodable `Dynamic/`
/// row before it.
#[test]
fn a_bad_row_fails_the_sharded_index_as_it_fails_the_single_store() {
    use cfstore::Put;

    let dir = fresh_dir("sharded-errors");
    let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
    fill(&store, 0..40);
    let sharded = store.sharded().unwrap();
    assert!(sharded.delete_row("Jobs", b"CostFactor/job-0030").unwrap());
    let fails = |expected: &str| {
        let err = store.build_columnar_index().unwrap_err().to_string();
        assert_eq!(err, expected);
    };
    fails("corrupt store row: no CostFactor row for job-0030");
    let put = Put::new("Dynamic/job-0020", "f", "MAP_PAIRS_SEL", b"\x01".to_vec());
    sharded.put("Jobs", put).unwrap();
    fails("corrupt store row: undecodable Dynamic row Dynamic/job-0020");
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- The sharded build: topologies, a reshard, heal and failover ----------

/// A sharded store at `dir`: `shards` shards of `replication` copies, one
/// of them crashing at `crash`, traced into `reg`.
fn open_sharded(
    dir: &Path,
    (shards, replication): (u32, u32),
    crash_shard: Option<(u32, CrashSpec)>,
    reg: &obs::Registry,
) -> ProfileStore {
    let opts = ShardOptions {
        shards,
        replication,
        crash_shard,
        ..ShardOptions::default()
    };
    ProfileStore::reopen_sharded_traced(dir, opts, reg.clone())
        .unwrap()
        .0
}

/// The index a one-region in-memory store of the jobs `fill` writes for
/// `ids` builds.
fn single_store_index(ids: std::ops::Range<usize>) -> ColumnarIndex {
    let store = ProfileStore::new().unwrap();
    fill(&store, ids);
    store.build_columnar_index().unwrap()
}

/// A flushed sharded store of the jobs of `ids`, at `dir`.
fn flushed_sharded(dir: &Path, layout: (u32, u32), ids: std::ops::Range<usize>) {
    let store = open_sharded(dir, layout, None, &obs::Registry::disabled());
    fill(&store, ids);
    store.flush().unwrap();
}

/// Every `cfstore.shard.*` heal counter `reg` holds, one per line.
fn heal_counters(reg: &obs::Registry) -> String {
    let counters = reg.snapshot().counters;
    let heals = counters
        .iter()
        .filter(|(name, _)| name.starts_with("cfstore.shard.") && name.contains(".heal."));
    heals.map(|(name, n)| format!("{name}={n}\n")).collect()
}

/// The index `store` builds, checking that the build walked exactly the
/// rows the shards of `cover` hold: a sharded read walks the fewest shards
/// that serve every slot (DESIGN.md §49), and no other.
fn build_walking(store: &ProfileStore, reg: &obs::Registry, cover: &[u32]) -> ColumnarIndex {
    let scanned = || reg.snapshot().counters["cfstore.rows_scanned"];
    let before = scanned();
    let index = store.build_columnar_index().unwrap();
    let walked = scanned() - before;
    let sharded = store.sharded().unwrap();
    let features = ["Dynamic/", "Static/", "CostFactor/"];
    let held = |g: u32| {
        let (rows, _) = sharded.shard_scan(g, "Jobs", &Scan::all()).unwrap();
        let built = |row: &[u8]| features.iter().any(|f| row.starts_with(f.as_bytes()));
        rows.iter().filter(|r| built(&r.row)).count() as u64
    };
    assert_eq!(walked, cover.iter().map(|&g| held(g)).sum(), "{cover:?}");
    index
}

#[test]
fn the_sharded_build_is_point_reads_in_every_topology() {
    let want = single_store_index(0..160);
    let reg = obs::Registry::new();
    for (layout, cover) in [
        ((3, 2), &[0, 1][..]),
        ((4, 3), &[0, 1]),
        ((5, 2), &[0, 2, 3]),
    ] {
        let dir = fresh_dir("topology");
        let store = open_sharded(&dir, layout, None, &reg);
        fill(&store, 0..160);
        let when = format!("{layout:?}");
        assert_built_from_point_reads(&store, &when);
        assert!(build_walking(&store, &reg, cover) == want, "{when}");
        store.flush().unwrap();
        drop(store);
        let store = open_sharded(&dir, layout, None, &reg);
        assert_built_from_point_reads(&store, &format!("{when}, reopened"));
        assert!(build_walking(&store, &reg, cover) == want, "{when}");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // A reshard moves every slot's rows: grow 3 × R2 to 4 × R3, then shrink
    // to 2 × R2, building after each and after a reopen.
    let dir = fresh_dir("reshard");
    flushed_sharded(&dir, (3, 2), 0..160);
    let store = open_sharded(&dir, (3, 2), None, &reg);
    for ((shards, replication), cover) in [((4, 3), &[0, 1][..]), ((2, 2), &[0])] {
        store
            .reshard(Topology::uniform(shards, replication))
            .unwrap();
        assert_eq!(store.sharded().unwrap().shard_count(), shards);
        let when = format!("resharded to {shards} × R{replication}");
        assert_built_from_point_reads(&store, &when);
        assert!(build_walking(&store, &reg, cover) == want, "{when}");
    }
    store.flush().unwrap();
    drop(store);
    let store = open_sharded(&dir, (2, 2), None, &reg);
    assert_built_from_point_reads(&store, "resharded, reopened");
    assert!(build_walking(&store, &reg, &[0]) == want);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `filter_dynamic` on a sharded store returns the jobs whose rows pass in
/// key order, as a single store of the same jobs does, though each shard
/// serves its own slots' rows; its metrics sum the scans of the shards it
/// reads, shards 0 and 1 (DESIGN.md §49), so `rows_scanned` counts the rows
/// of slot 0 twice, while `rows_returned` counts each row it returns once.
/// Pinned live and reopened, with `job_ids`' order beside it.
#[test]
fn filter_dynamic_on_a_sharded_store_returns_job_ids_in_key_order() {
    let single = ProfileStore::new().unwrap();
    fill(&single, 0..160);
    let large = |d: &pstorm::DynamicRow| d.map_dyn[0] > 2.0;
    let (want, _) = single.filter_dynamic(large).unwrap();
    let want: Vec<String> = want.into_iter().map(|d| d.job_id).collect();
    let dir = fresh_dir("filter-dynamic");
    let mut store = open_sharded(&dir, (3, 2), None, &obs::Registry::disabled());
    fill(&store, 0..160);
    let mut metrics = Vec::new();
    for when in ["live", "reopened"] {
        if when == "reopened" {
            store.flush().unwrap();
            drop(store);
            store = open_sharded(&dir, (3, 2), None, &obs::Registry::disabled());
        }
        let (rows, m) = store.filter_dynamic(large).unwrap();
        let ids: Vec<String> = rows.into_iter().map(|d| d.job_id).collect();
        assert_eq!(ids, want, "{when}");
        metrics.push(format!("{m:?}"));
        assert_eq!(
            store.job_ids().unwrap(),
            single.job_ids().unwrap(),
            "{when}"
        );
    }
    assert!(want.is_sorted());
    assert_eq!(want.len(), 104);
    let summed = "ScanMetrics { regions_visited: 2, rows_scanned: 210, cells_scanned: 1546, \
                  rows_returned: 104, bytes_returned: 6080 }";
    assert_eq!(metrics, [summed, summed]);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A sharded read returns what a single store of the same rows returns:
/// its metrics count each row it hands on once, whichever shards it reads
/// and however many of them hold the row, so `rows_returned` and
/// `bytes_returned` equal the single store's in every topology above,
/// unfiltered, through `filter_dynamic`'s filter and through one that
/// drops most rows, live and reopened.
#[test]
fn a_sharded_read_returns_what_a_single_store_returns() {
    let returned = |store: &ProfileStore| {
        let all = match store.sharded() {
            Some(sharded) => sharded.scan("Jobs", &Scan::all()),
            None => store.inner().scan("Jobs", &Scan::all()),
        };
        let dynamic = |pass: fn(&pstorm::DynamicRow) -> bool| store.filter_dynamic(pass).unwrap().1;
        let pairs = [
            all.unwrap().1,
            dynamic(|_| true),
            dynamic(|d| d.map_dyn[0] > 2.0),
        ];
        pairs.map(|m| (m.rows_returned, m.bytes_returned))
    };
    let single = ProfileStore::new().unwrap();
    fill(&single, 0..160);
    let want = returned(&single);
    for layout in [(3, 2), (4, 3), (5, 2), (2, 2), (3, 1)] {
        let dir = fresh_dir("returned");
        let store = open_sharded(&dir, layout, None, &obs::Registry::disabled());
        fill(&store, 0..160);
        assert_eq!(returned(&store), want, "{layout:?}");
        store.flush().unwrap();
        drop(store);
        let store = open_sharded(&dir, layout, None, &obs::Registry::disabled());
        assert_eq!(returned(&store), want, "{layout:?}, reopened");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A rotted cell on a row's primary replica heals under the build exactly
/// as it healed under a scan: one heal read and one repair of the shard,
/// and the same rows copied.
#[test]
fn a_rotted_primary_heals_under_the_sharded_build() {
    let want = single_store_index(0..160);
    let dir = fresh_dir("rotted-primary");
    flushed_sharded(&dir, (3, 2), 0..160);
    let reg = obs::Registry::new();
    let store = open_sharded(&dir, (3, 2), None, &reg);
    let sharded = store.sharded().unwrap();
    assert_eq!(
        sharded.topology().replicas_of_row(b"Dynamic/job-0007")[0],
        0
    );
    assert!(store
        .corrupt_cell(b"Dynamic/job-0007", b"MAP_SIZE_SEL")
        .unwrap());
    assert!(store.build_columnar_index().unwrap() == want);
    sharded.scrub().unwrap();
    let healed = "cfstore.shard.0.heal.reads=1\n\
                  cfstore.shard.0.heal.repairs=1\n\
                  cfstore.shard.0.heal.rows=425\n\
                  cfstore.shard.heal.reads=1\n\
                  cfstore.shard.heal.repairs=1\n\
                  cfstore.shard.heal.rows=425\n";
    assert_eq!(heal_counters(&reg), healed);
    assert_built_from_point_reads(&store, "healed");
    assert_eq!(heal_counters(&reg), healed, "the heal held");
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A shard whose heal cannot complete — it crashed, so the repair cannot
/// flush — stays corrupt, and each slot it serves is read from the slot's
/// next replica: a later shard for victim 0, an earlier one for victim 1.
/// The build reads shards 0 and 1 only (DESIGN.md §49), so it meets the rot
/// of those two victims and never walks shard 2, whose rot only the scrub
/// meets: with no rot, a scrub of the crashed store repairs nothing; with
/// it, the scrub's repair of the rotted shard cannot flush.
#[test]
fn a_shard_that_cannot_heal_leaves_its_slots_to_the_next_replica() {
    let want = single_store_index(0..160);
    for victim in 0..3 {
        let dir = fresh_dir("unhealed");
        flushed_sharded(&dir, (3, 2), 0..160);
        let reg = obs::Registry::new();
        let crash = Some((victim, CrashSpec::after_wal_bytes(0)));
        let store = open_sharded(&dir, (3, 2), crash, &reg);
        let sharded = store.sharded().unwrap();
        let (statics, p) = perturbed(&(1, 1.0, 1.0, 1.0, false), "job-0000a".to_string());
        assert!(store.put_profile(statics, &p).is_err(), "the put crashes");
        assert!(sharded.is_crashed());
        assert_eq!(sharded.scrub(), Ok(0));
        let row = (0..160)
            .map(|i| format!("Dynamic/job-{i:04}"))
            .find(|row| sharded.topology().replicas_of_row(row.as_bytes())[0] == victim)
            .unwrap();
        assert!(store.corrupt_cell(row.as_bytes(), b"HAS_REDUCE").unwrap());
        let when = format!("shard {victim} unhealed");
        assert!(store.build_columnar_index().unwrap() == want, "{when}");
        let reads = format!("cfstore.shard.{victim}.heal.reads=");
        assert_eq!(heal_counters(&reg).contains(&reads), victim != 2, "{when}");
        assert!(!heal_counters(&reg).contains("repairs"), "{when}");
        assert_built_from_point_reads(&store, &when);
        assert_eq!(sharded.scrub(), Err(StoreError::Crashed), "{when}");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A slot none of whose replicas can be read fails the build with the
/// error of the last shard that stayed corrupt: at R = 1 a crashed shard
/// with a rotted cell has no other copy to serve its slots from.
#[test]
fn a_slot_with_no_readable_replica_fails_the_sharded_build() {
    let dir = fresh_dir("unreadable");
    flushed_sharded(&dir, (3, 1), 0..40);
    let crash = Some((1, CrashSpec::after_wal_bytes(0)));
    let store = open_sharded(&dir, (3, 1), crash, &obs::Registry::disabled());
    let (statics, p) = perturbed(&(1, 1.0, 1.0, 1.0, false), "job-0000a".to_string());
    assert!(store.put_profile(statics, &p).is_err(), "the put crashes");
    let sharded = store.sharded().unwrap();
    let row = (0..40)
        .map(|i| format!("Dynamic/job-{i:04}"))
        .find(|row| sharded.topology().replicas_of_row(row.as_bytes())[0] == 1)
        .unwrap();
    assert!(store.corrupt_cell(row.as_bytes(), b"HAS_REDUCE").unwrap());
    let err = store.build_columnar_index().unwrap_err().to_string();
    assert_eq!(
        err,
        format!("checksum mismatch in row `{row}`, column `HAS_REDUCE`: stored cell is corrupt")
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bad rows on different shards fail a sharded build in key order, however
/// the shards are read: of two `CostFactor/` rows that do not decode the
/// lower key wins, and of a job with no `CostFactor/` row and an
/// undecodable `Dynamic/` row, the lower key wins either way round. Each
/// pair is chosen so that the later key's row is served by a lower-numbered
/// shard.
#[test]
fn bad_rows_on_different_shards_fail_the_sharded_build_in_key_order() {
    use cfstore::encoding::encode_f64;
    use cfstore::Put;

    let dir = fresh_dir("sharded-order");
    let store = open_sharded(&dir, (3, 2), None, &obs::Registry::disabled());
    fill(&store, 0..40);
    let sharded = store.sharded().unwrap();
    let shard = |row: &str| sharded.topology().replicas_of_row(row.as_bytes())[0];
    let fails = |expected: &str| {
        let err = store.build_columnar_index().unwrap_err().to_string();
        assert_eq!(err, expected);
    };
    // The first pair of `<prefix>job-NNNN` keys, in `ids`, whose later key
    // lives on a lower shard.
    let inverted = |prefix: &str, ids: std::ops::Range<usize>| {
        let row = |i: usize| format!("{prefix}job-{i:04}");
        let mut pairs = ids
            .clone()
            .flat_map(|a| (a + 1..ids.end).map(move |b| (a, b)));
        pairs
            .find(|&(a, b)| shard(&row(b)) < shard(&row(a)))
            .unwrap()
    };

    let (a, b) = inverted("CostFactor/", 9000..9020);
    for i in [b, a] {
        let put = Put::new(
            format!("CostFactor/job-{i:04}"),
            "f",
            "NETWORK_COST",
            encode_f64(1.0).to_vec(),
        );
        sharded.put("Jobs", put).unwrap();
    }
    fails(&format!(
        "corrupt store row: CostFactor/job-{a:04} missing READ_HDFS_IO_COST"
    ));
    for i in [a, b] {
        let row = format!("CostFactor/job-{i:04}");
        assert!(sharded.delete_row("Jobs", row.as_bytes()).unwrap());
    }
    store.build_columnar_index().unwrap();

    let undecodable = |i: usize| {
        let row = format!("Dynamic/job-{i:04}");
        let put = Put::new(row, "f", "MAP_PAIRS_SEL", b"\x01".to_vec());
        sharded.put("Jobs", put).unwrap();
    };
    let no_cost = |i: usize| {
        let row = format!("CostFactor/job-{i:04}");
        assert!(sharded.delete_row("Jobs", row.as_bytes()).unwrap());
    };
    // An undecodable `Dynamic/` row before a job with no `CostFactor/` row.
    let (c, d) = inverted("Dynamic/", 20..40);
    undecodable(c);
    no_cost(d);
    fails(&format!(
        "corrupt store row: undecodable Dynamic row Dynamic/job-{c:04}"
    ));
    // A job with no `CostFactor/` row before an undecodable `Dynamic/` row.
    let (a, b) = inverted("Dynamic/", 0..20);
    undecodable(b);
    no_cost(a);
    fails(&format!(
        "corrupt store row: no CostFactor row for job-{a:04}"
    ));
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
