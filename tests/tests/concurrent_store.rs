//! Concurrency tests for the miniature HBase — writers and scanners racing
//! across region splits must never lose acknowledged writes or return
//! out-of-order scan results — and for the profile store's per-namespace
//! state over it: views and threads writing one tenant must lose neither a
//! bounds update nor an index row.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use cfstore::{MiniStore, Put, Scan};

#[test]
fn concurrent_writers_and_scanners_agree() {
    let store = Arc::new(MiniStore::new());
    store.create_table_with_threshold("t", &["f"], 32).unwrap();
    let writers = 4usize;
    let per_writer = 500usize;

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..writers {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            for i in 0..per_writer {
                store
                    .put(
                        "t",
                        Put::new(
                            Bytes::from(format!("w{w}-{i:05}")),
                            "f",
                            "v",
                            Bytes::from(format!("{w}:{i}")),
                        ),
                    )
                    .unwrap();
            }
        }));
    }
    // A scanner hammering the table while writers run; every result must
    // be sorted and internally consistent.
    let scanner = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max_seen = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let (rows, metrics) = store.scan("t", &Scan::all()).unwrap();
                assert!(rows.windows(2).all(|w| w[0].row < w[1].row), "sorted");
                assert_eq!(metrics.rows_returned as usize, rows.len());
                max_seen = max_seen.max(rows.len());
            }
            max_seen
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let observed = scanner.join().unwrap();
    assert!(observed > 0);

    // Every acknowledged write is readable afterwards.
    let (rows, _) = store.scan("t", &Scan::all()).unwrap();
    assert_eq!(rows.len(), writers * per_writer);
    for w in 0..writers {
        for i in (0..per_writer).step_by(97) {
            let row = store
                .get("t", format!("w{w}-{i:05}").as_bytes())
                .unwrap()
                .unwrap_or_else(|| panic!("lost write w{w}-{i}"));
            assert_eq!(
                row.value("f", b"v").unwrap().as_ref(),
                format!("{w}:{i}").as_bytes()
            );
        }
    }
    // Splits actually happened under concurrency.
    assert!(store.region_count("t").unwrap() > 8);
}

#[test]
fn concurrent_profile_store_matching_while_inserting() {
    use datagen::{corpus, SizeClass};
    use mrjobs::jobs;
    use mrsim::{ClusterSpec, JobConfig};
    use profiler::{collect_full_profile, collect_sample_profile, SampleSize};
    use pstorm::{match_profile, MatcherConfig, ProfileStore, SubmittedJob};
    use staticanalysis::StaticFeatures;

    let cl = ClusterSpec::ec2_c1_medium_16();
    let store = Arc::new(ProfileStore::new().unwrap());
    let text = corpus::random_text_1g();

    // Seed two profiles so bounds are sane.
    for spec in [jobs::word_count(), jobs::sort()] {
        let ds = corpus::input_for(&spec.name, SizeClass::Small);
        let (profile, _) =
            collect_full_profile(&spec, &ds, &cl, &JobConfig::submitted(&spec), 5).unwrap();
        store
            .put_profile(&StaticFeatures::extract(&spec), &profile)
            .unwrap();
    }

    let spec = jobs::word_count();
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

    // Writer inserting PigMix profiles while matchers query.
    let writer = {
        let store = Arc::clone(&store);
        let cl = cl.clone();
        std::thread::spawn(move || {
            for n in 1..=8 {
                let spec = jobs::pigmix(n);
                let ds = corpus::input_for(&spec.name, SizeClass::Small);
                let (profile, _) =
                    collect_full_profile(&spec, &ds, &cl, &JobConfig::submitted(&spec), 5).unwrap();
                store
                    .put_profile(&StaticFeatures::extract(&spec), &profile)
                    .unwrap();
            }
        })
    };
    let mut last = None;
    for _ in 0..30 {
        let result = match_profile(&store, &q, &MatcherConfig::default()).unwrap();
        if let Ok(r) = result {
            last = Some(r.map.source_job);
        }
    }
    writer.join().unwrap();
    // The right job keeps winning throughout concurrent growth.
    assert_eq!(last.as_deref(), Some("word-count"));
    assert_eq!(store.len().unwrap(), 10);
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pstorm-concurrent-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two real profiles to perturb; profiling is the expensive part.
fn seed_profiles() -> Vec<(staticanalysis::StaticFeatures, profiler::JobProfile)> {
    use datagen::corpus;
    use mrjobs::jobs;
    use mrsim::{ClusterSpec, JobConfig};

    let text = corpus::random_text_1g();
    let cl = ClusterSpec::ec2_c1_medium_16();
    [jobs::word_count(), jobs::word_cooccurrence_pairs(2)]
        .into_iter()
        .map(|spec| {
            let (profile, _) =
                profiler::collect_full_profile(&spec, &text, &cl, &JobConfig::submitted(&spec), 5)
                    .unwrap();
            (staticanalysis::StaticFeatures::extract(&spec), profile)
        })
        .collect()
}

/// Regression (fails at 29c55d6): every view used to carry its own copy
/// of the namespace's bounds and index. View A cached
/// `Meta/normalization`, view B stored an outlier, and A's next
/// `put_profile` wrote back bounds that did not cover B's row; and A kept
/// matching against an index that had never seen B's writes — which is
/// what `TuningService` did with every `store_view(t).put_profile` ingest.
#[test]
fn two_views_of_one_tenant_share_bounds_and_index() {
    use pstorm::ProfileStore;

    let seeds = seed_profiles();
    let (statics, base_profile) = &seeds[0];
    let variant = |id: &str, scale: f64| {
        let mut p = base_profile.clone();
        p.job_id = id.to_string();
        p.map.size_selectivity *= scale;
        p
    };

    let dir = temp_dir("views");
    let (base, _) = ProfileStore::reopen(&dir).unwrap();
    let a = base.tenant_view("acme").unwrap();
    let b = base.tenant_view("acme").unwrap();

    a.put_profile(statics, &variant("first", 1.0)).unwrap();
    a.normalization_bounds().unwrap(); // A now holds the bounds in memory
    assert_eq!(a.columnar_index().unwrap().len(), 1);

    let outlier = variant("outlier", 100.0);
    b.put_profile(statics, &outlier).unwrap();

    // A sees B's row at once: in the index, in len(), and in a match.
    let index = a.columnar_index().unwrap();
    assert_eq!(index.len(), 2, "A's index predates B's write");
    assert_eq!(a.len().unwrap(), 2);
    assert_eq!(index.job_id(1), "outlier");

    // A's next write must extend the bounds B wrote, not its own copy.
    a.put_profile(statics, &variant("second", 0.5)).unwrap();
    assert_eq!(b.len().unwrap(), 3);
    assert_eq!(
        *b.columnar_index().unwrap(),
        b.build_columnar_index().unwrap()
    );
    let outlier_sel = outlier.map.dynamic_features()[0];
    let covers_outlier = |view: &ProfileStore| {
        let max = view.normalization_bounds().unwrap().map_dyn.maxs[0];
        assert!(
            max >= outlier_sel,
            "bounds lost the outlier: max {max} < {outlier_sel}"
        );
    };
    covers_outlier(&a);
    covers_outlier(&b);
    // ... and so does the row on disk, read by a store that shares nothing
    // with the views that wrote it.
    drop((a, b, base));
    let (reopened, _) = ProfileStore::reopen(&dir).unwrap();
    covers_outlier(&reopened.tenant_view("acme").unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two threads `put_profile` through the *same* view: the bounds
/// read-modify-write and the index delta of each are one critical
/// section, so no update is lost whichever way they interleave.
#[test]
fn racing_put_profiles_lose_no_bounds_update_and_no_index_row() {
    use pstorm::ProfileStore;

    const PER_THREAD: usize = 60;
    let seeds = Arc::new(seed_profiles());
    let dir = temp_dir("race");
    let store = Arc::new(ProfileStore::reopen(&dir).unwrap().0);
    let variant =
        |seeds: &[(staticanalysis::StaticFeatures, profiler::JobProfile)], t: usize, i: usize| {
            let (statics, profile) = &seeds[(t + i) % seeds.len()];
            let mut p = profile.clone();
            p.job_id = format!("t{t}-{i:03}");
            // Every put moves some bound: thread 0 pushes maxima up, thread 1
            // pushes minima down.
            let k = 1.0 + i as f64;
            let scale = if t == 0 { k } else { 1.0 / k };
            p.map.size_selectivity *= scale;
            p.map.pairs_selectivity *= scale;
            (statics.clone(), p)
        };

    let handles: Vec<_> = (0..2)
        .map(|t| {
            let store = Arc::clone(&store);
            let seeds = Arc::clone(&seeds);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let (statics, p) = variant(&seeds, t, i);
                    store.put_profile(&statics, &p).unwrap();
                    // Matches run between the puts, folding deltas while
                    // the other thread appends them.
                    if i % 7 == 0 {
                        store.columnar_index().unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let mut expect_min = f64::INFINITY;
    let mut expect_max = f64::NEG_INFINITY;
    for t in 0..2 {
        for i in 0..PER_THREAD {
            let sel = variant(&seeds, t, i).1.map.dynamic_features()[0];
            expect_min = expect_min.min(sel);
            expect_max = expect_max.max(sel);
        }
    }
    assert_eq!(store.len().unwrap(), 2 * PER_THREAD);
    assert_eq!(store.job_ids().unwrap().len(), 2 * PER_THREAD);
    assert_eq!(
        *store.columnar_index().unwrap(),
        store.build_columnar_index().unwrap()
    );
    // The copy in memory, then the row on disk.
    let exact_bounds = |store: &ProfileStore| {
        let bounds = store.normalization_bounds().unwrap();
        assert_eq!(bounds.map_dyn.mins[0], expect_min);
        assert_eq!(bounds.map_dyn.maxs[0], expect_max);
    };
    exact_bounds(&store);
    drop(store);
    exact_bounds(&ProfileStore::reopen(&dir).unwrap().0);
    std::fs::remove_dir_all(&dir).unwrap();
}
