//! End-to-end tuning-latency report: stage-1 matcher latency (the
//! columnar sweep vs the `filter_dynamic` pushdown scan) at several store
//! sizes, full `match_profile` latency, `put_then_match` (a `put_profile`
//! and the match that folds its index delta in), the stage-2 CFG comparison and
//! the GBRT training the learned baseline needs before its first match,
//! a selective scan with its filter pushed down vs applied by the client,
//! segment block reads through the
//! bounded cache (cold vs warm), a 4 000-profile store's reopen and a
//! profile put on it, CRC-32 over 64 KiB, put latency with an inline
//! flush, online-resharding cost (rows moved per second by a grow
//! migration, matcher latency with a migration in flight vs quiesced),
//! CBO search and what-if evaluation throughput at 16 and at 560 map
//! tasks, and the dataflow measurement (`mrsim::analyze`) of every suite
//! submission, by job family, with its two halves apart: the grouping
//! (`group_sort`, beside a `Value`-comparing sort as oracle) and the map
//! UDF under the interpreter (`interp_map`, output dropped and kept) and
//! the interpreter's cost per evaluated node (`interp_node`).
//! Writes `BENCH_tuning_latency.json` at the repo root; `--only <op>`
//! runs just the row groups with rows of `op` and prints those rows.
//!
//! Every row times code a submission can reach. The two stage-1 rows
//! compare the production sweep with the reference it is property-tested
//! against, `ProfileStore::filter_dynamic`, public store API.

use std::fmt::Write as _;
use std::time::Instant;

use cfstore::{Put, Scan, StoreOptions};
use datagen::corpus;
use mlmatch::{GbrtMatcher, GbrtParams, StoredJob};
use mrjobs::interp::{Interp, Sink};
use mrjobs::{jobs, Value};
use mrsim::sortkey::KeyArena;
use mrsim::{analyze, ClusterSpec, JobConfig};
use optimizer::{optimize, CboOptions, ConfigSpace};
use profiler::{collect_full_profile, collect_sample_profile, JobProfile, SampleSize};
use pstorm::{match_profile, MatcherConfig, ProfileStore, SubmittedJob};
use pstorm_bench::harness;
use rand::rngs::StdRng;
use rand::SeedableRng;
use staticanalysis::{Cfg, StaticFeatures};
use whatif::WhatIfPlan;

const STORE_SIZES: [usize; 3] = [10, 100, 1000];
/// Sizes of the `match_profile` / `put_then_match` trajectory (DESIGN.md
/// §17): the cost of a match, and of a write before it, against N.
const TRAJECTORY_SIZES: [usize; 3] = [250, 1000, 4000];
const CBO_BUDGET: usize = 120;

fn cl() -> ClusterSpec {
    ClusterSpec::ec2_c1_medium_16()
}

/// Time `f` repeatedly; returns per-iteration samples in ns, sorted.
/// Runs at least `min_iters` and keeps going until ~0.5 s total or
/// `max_iters`, whichever comes first.
fn sample_ns(mut f: impl FnMut(), min_iters: usize, max_iters: usize) -> Vec<u128> {
    // Warm-up: populate caches (lazy indexes, allocator pools).
    f();
    let mut samples = Vec::new();
    let mut total: u128 = 0;
    while samples.len() < min_iters || (total < 500_000_000 && samples.len() < max_iters) {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos();
        samples.push(ns);
        total += ns;
    }
    samples.sort_unstable();
    samples
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

struct Entry {
    op: &'static str,
    variant: &'static str,
    store_size: usize,
    p50_ns: u128,
    p95_ns: u128,
    candidates_per_sec: f64,
}

impl Entry {
    /// A row from sorted samples (a one-shot row passes its one timing);
    /// one call handles `per_call` candidates, rows, gets or predictions.
    fn new(
        op: &'static str,
        variant: &'static str,
        store_size: usize,
        samples: &[u128],
        per_call: f64,
    ) -> Entry {
        let p50_ns = percentile(samples, 0.50);
        Entry {
            op,
            variant,
            store_size,
            p50_ns,
            p95_ns: percentile(samples, 0.95),
            candidates_per_sec: per_call / (p50_ns as f64 * 1e-9),
        }
    }
}

/// A profile of each seed job with the statics it is stored under.
type Seeds = [(StaticFeatures, JobProfile)];

fn seed_profiles() -> Vec<(StaticFeatures, JobProfile)> {
    let text = corpus::random_text_1g();
    [
        jobs::word_count(),
        jobs::word_cooccurrence_pairs(2),
        jobs::bigram_relative_frequency(),
        jobs::grep("ba"),
    ]
    .into_iter()
    .map(|spec| {
        let (profile, _) =
            collect_full_profile(&spec, &text, &cl(), &JobConfig::submitted(&spec), 5).unwrap();
        (StaticFeatures::extract(&spec), profile)
    })
    .collect()
}

/// Distinct profile `i`: seed `i mod 4` under its own job id.
fn variant(seeds: &Seeds, i: usize) -> (&StaticFeatures, JobProfile) {
    let (statics, profile) = &seeds[i % seeds.len()];
    let mut p = profile.clone();
    p.job_id = format!("{}#{}", p.job_id, i);
    p.map.size_selectivity *= 1.0 + (i as f64) * 1e-4;
    (statics, p)
}

/// `store` with `size` distinct profiles put, cycling through the seeds.
fn filled(store: ProfileStore, size: usize, seeds: &Seeds) -> ProfileStore {
    for i in 0..size {
        let (statics, p) = variant(seeds, i);
        store.put_profile(statics, &p).unwrap();
    }
    store
}

/// Samples of the whole matching workflow on `store`.
fn sample_match(store: &ProfileStore, q: &SubmittedJob) -> Vec<u128> {
    let cfg = MatcherConfig::default();
    let matched = || drop(std::hint::black_box(match_profile(store, q, &cfg).unwrap()));
    sample_ns(matched, 20, 2_000)
}

/// The canonical incoming job every matcher bench queries with: a
/// word-count submission carrying a one-task sample profile.
fn matcher_query() -> SubmittedJob {
    let text = corpus::random_text_1g();
    let spec = jobs::word_count();
    let sample = collect_sample_profile(
        &spec,
        &text,
        &cl(),
        &JobConfig::submitted(&spec),
        SampleSize::OneTask,
        9,
    )
    .unwrap();
    SubmittedJob {
        statics: StaticFeatures::extract(&spec),
        spec,
        sample: sample.profile,
        input_bytes: text.logical_bytes,
    }
}

fn bench_matcher(entries: &mut Vec<Entry>, seeds: &Seeds) {
    let q = matcher_query();
    let q_dyn = q.sample.map.dynamic_features();

    for size in STORE_SIZES {
        let store = filled(ProfileStore::new().unwrap(), size, seeds);
        let bounds = store.normalization_bounds().unwrap();
        let theta = MatcherConfig::default().theta_eucl_fraction * (q_dyn.len() as f64).sqrt();

        // Every variant examines all `size` stored candidates per call.
        let mut push = |op, variant, samples: Vec<u128>| {
            entries.push(Entry::new(op, variant, size, &samples, size as f64));
        };

        // Stage 1 in isolation: the dynamic-feature distance filter.
        let ix = store.columnar_index().unwrap();
        let samples = sample_ns(
            || {
                std::hint::black_box(ix.sweep_map_dyn(&bounds.map_dyn, &q_dyn, theta));
            },
            50,
            20_000,
        );
        push("matcher_stage1", "columnar", samples);

        let samples = sample_ns(
            || {
                let b = bounds.map_dyn.clone();
                let qv = q_dyn.clone();
                let (rows, _) = store
                    .filter_dynamic(move |row| b.distance(&qv, &row.map_dyn) <= theta)
                    .unwrap();
                std::hint::black_box(rows);
            },
            50,
            20_000,
        );
        push("matcher_stage1", "filter_dynamic", samples);
        push("match_profile", "columnar", sample_match(&store, &q));
    }
}

/// Stage 2's CFG comparison (§4.1.3, a synchronized BFS): the
/// co-occurrence pairs mapper's CFG against word count's, which it does
/// not match, and against itself, which walks the whole graph.
fn bench_cfg_match(entries: &mut Vec<Entry>) {
    let coocc = Cfg::from_udf(&jobs::word_cooccurrence_pairs(2).map_udf);
    let wc = Cfg::from_udf(&jobs::word_count().map_udf);
    assert!(!coocc.matches(&wc) && coocc.matches(&coocc));
    for (variant, other) in [("mismatching", &wc), ("self", &coocc)] {
        let samples = sample_ns(
            || {
                std::hint::black_box(coocc.matches(std::hint::black_box(other)));
            },
            50,
            20_000,
        );
        entries.push(Entry::new("cfg_match", variant, 0, &samples, 1.0));
    }
}

/// What the learned baseline of Fig. 6.2 pays before its first match and
/// PStorM's matcher never does: GBRT 1 with 200 trees and no
/// cross-validation, trained on the four seed profiles.
fn bench_gbrt_train(entries: &mut Vec<Entry>, seeds: &Seeds) {
    let store: Vec<StoredJob> = seeds
        .iter()
        .map(|(statics, profile)| StoredJob {
            spec: jobs::word_count(), // spec only drives WIF targets
            statics: statics.clone(),
            profile: profile.clone(),
        })
        .collect();
    let params = GbrtParams {
        n_trees: 200,
        cv_folds: 0,
        train_fraction: 1.0,
        ..GbrtParams::gbrt1()
    };
    let train = || GbrtMatcher::train(&store, &cl(), &params, 8, 3);
    let samples = sample_ns(|| drop(train()), 5, 20);
    let model = train();
    assert!(store
        .iter()
        .all(|job| model.distance(&job.statics, &job.profile, job).is_finite()));
    let n = store.len();
    entries.push(Entry::new("gbrt_train", "200_trees", n, &samples, n as f64));
}

/// `match_profile` and `put_then_match` at [`TRAJECTORY_SIZES`]. Each
/// `put_then_match` iteration replaces one stored profile (so the store
/// stays at its size) and matches: the put leaves an index delta, the
/// match folds it in. Before the index was write-maintained the same pair
/// rebuilt the index from three prefix scans.
fn bench_put_then_match(entries: &mut Vec<Entry>, seeds: &Seeds) {
    let q = matcher_query();
    let cfg = MatcherConfig::default();
    for size in TRAJECTORY_SIZES {
        let store = filled(ProfileStore::new().unwrap(), size, seeds);
        let mut push = |op, samples: Vec<u128>| {
            entries.push(Entry::new(op, "columnar", size, &samples, size as f64));
        };
        if !STORE_SIZES.contains(&size) {
            push("match_profile", sample_match(&store, &q));
        }
        let (statics, profile) = &seeds[0];
        let mut p = profile.clone();
        p.job_id = format!("{}#0", p.job_id);
        let samples = sample_ns(
            || {
                p.map.size_selectivity *= 1.0 + 1e-6;
                store.put_profile(statics, &p).unwrap();
                let _ = std::hint::black_box(match_profile(&store, &q, &cfg).unwrap());
            },
            20,
            2_000,
        );
        push("put_then_match", samples);
    }
}

/// Durable-store hot paths: segment block reads through the bounded
/// cache (cold = 0-byte budget, every get fetches and CRC-verifies its
/// block; warm = ample budget primed by one pass of the timed gets)
/// and put latency with the caller flushing every 16 puts. Returns `(blocks_indexed, blocks_read)` from the
/// lazy reopen — the read-amplification proof that reopening is bounded
/// by segment trailers, not segment bodies.
fn bench_store(entries: &mut Vec<Entry>, seeds: &Seeds) -> (u64, u64) {
    let base = std::env::temp_dir().join(format!("pstorm-perf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir = base.join("read");
    let size = STORE_SIZES[2];

    // Build a segment-backed store: `size` profiles, flushed, closed.
    filled(ProfileStore::reopen(&dir).unwrap().0, size, seeds)
        .flush()
        .unwrap();

    // Lazy reopen with the default cache budget. The recovery report is
    // captured before any read: blocks are indexed from trailers only.
    let (warm_store, report) = ProfileStore::reopen(&dir).unwrap();
    let read_amp = (report.segment_blocks, report.segment_blocks_read);
    let keys: Vec<Vec<u8>> = warm_store
        .inner()
        .scan("Jobs", &Scan::all())
        .unwrap()
        .0
        .iter()
        .map(|r| r.row.to_vec())
        .collect();
    assert!(!keys.is_empty(), "store must hold rows");
    let mut push_gets = |variant, store: ProfileStore| {
        let mut k = 0usize;
        let samples = sample_ns(
            || {
                let key = &keys[k % keys.len()];
                k += 1;
                std::hint::black_box(store.inner().get("Jobs", key).unwrap());
            },
            200,
            200_000,
        );
        entries.push(Entry::new("store_block_read", variant, size, &samples, 1.0));
    };

    // Warm: scans read around the cache (DESIGN.md §42), so one pass of
    // the gets admits their blocks and every timed get is a hit.
    for key in &keys {
        warm_store.inner().get("Jobs", key).unwrap();
    }
    push_gets("warm", warm_store);

    // Cold: a 0-byte budget admits nothing, so every get re-reads and
    // CRC-verifies its whole block from disk — the uncached unit cost.
    let uncached = StoreOptions {
        block_cache_bytes: 0,
        ..StoreOptions::default()
    };
    push_gets(
        "cold",
        ProfileStore::reopen_with_opts(&dir, uncached).unwrap().0,
    );

    // Put latency, per-op samples: the caller flushes (DESIGN.md §43),
    // which charges a periodic segment rewrite to whichever put drew the
    // short straw. Flush every 16 puts so >5% of the samples pay a
    // segment rewrite — the cost then lands inside the p95 horizon.
    const PUTS: usize = 2048;
    const FLUSH_EVERY: usize = 16;
    let (store, _) = ProfileStore::reopen(&base.join("inline_flush")).unwrap();
    let mut samples = Vec::with_capacity(PUTS);
    for i in 0..PUTS {
        let t = Instant::now();
        store
            .inner()
            .put(
                "Jobs",
                Put::new(format!("Bench/put-{i:06}"), "f", "v", vec![7u8; 256]),
            )
            .unwrap();
        if i % FLUSH_EVERY == FLUSH_EVERY - 1 {
            store.flush().unwrap();
        }
        samples.push(t.elapsed().as_nanos());
    }
    samples.sort_unstable();
    entries.push(Entry::new("store_put", "inline_flush", PUTS, &samples, 1.0));
    drop(store);

    let _ = std::fs::remove_dir_all(&base);
    read_amp
}

/// A flushed store of 4 000 profiles, reopened: what a restarted PStorM
/// pays before it can match (DESIGN.md §28), and what a profile put costs
/// it afterwards (DESIGN.md §29).
///
/// `store_reopen/4000_profiles` is `ProfileStore::reopen_with_opts` with a
/// 1 MiB block cache, smaller than the rows it reads — the shape of the
/// benchmark's `bigstore_reads`. The reopen scans every `Dynamic/`,
/// `Static/` and `CostFactor/` row into the columnar index.
///
/// `store_index_build/4000_profiles` is `build_columnar_index` on the same
/// store reopened: the part of a reopen that is not recovery (DESIGN.md
/// §33). Its block reads go around the cache (DESIGN.md §42).
///
/// `store_put/reopened_4000` is `put_profile` of profiles the store has
/// not seen, on the store reopened at the default cache — the shape of
/// the benchmark's `churn_durable` ingest. A put writes 36 cells in five
/// rows to the memstores over the regions' segments (DESIGN.md §44).
fn bench_reopened_store(entries: &mut Vec<Entry>, seeds: &Seeds) {
    let dir = std::env::temp_dir().join(format!("pstorm-perf-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let size = TRAJECTORY_SIZES[2];
    let mut row = |op, variant, samples: &[u128], per_call| {
        entries.push(Entry::new(op, variant, size, samples, per_call))
    };
    filled(ProfileStore::reopen(&dir).unwrap().0, size, seeds)
        .flush()
        .unwrap();
    let opts = || StoreOptions {
        block_cache_bytes: 1 << 20,
        ..StoreOptions::default()
    };
    let reopen = || {
        drop(std::hint::black_box(
            ProfileStore::reopen_with_opts(&dir, opts()).unwrap(),
        ))
    };
    let samples = sample_ns(reopen, 10, 200);
    row("store_reopen", "4000_profiles", &samples, size as f64);

    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    let build = || drop(std::hint::black_box(store.build_columnar_index().unwrap()));
    let samples = sample_ns(build, 10, 200);
    row("store_index_build", "4000_profiles", &samples, size as f64);
    drop(store);

    let (store, _) = ProfileStore::reopen(&dir).unwrap();
    let samples = fresh_puts(std::slice::from_ref(&store), seeds, size);
    row("store_put", "reopened_4000", &samples, 1.0);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Samples of `put_profile` of profiles `views` have not seen, `from` on,
/// into each view in turn: a `store_put` row.
fn fresh_puts(views: &[ProfileStore], seeds: &Seeds, from: usize) -> Vec<u128> {
    const PUTS: usize = 2000;
    // One more than the most `sample_ns` takes: its warm-up call.
    let fresh: Vec<_> = (from..=from + PUTS).map(|i| variant(seeds, i)).collect();
    let mut fresh = fresh.iter().zip(views.iter().cycle());
    let put = || {
        if let Some(((statics, p), view)) = fresh.next() {
            view.put_profile(statics, p).unwrap();
        }
    };
    sample_ns(put, 200, PUTS)
}

/// `store_reopen/sharded_2000_profiles`: a flushed 3-shard, R = 2 store of
/// four tenants × 500 profiles, reopened with `ProfileStore::reopen_sharded`
/// and each tenant's `columnar_index()` built — the shape of the tail of
/// the benchmark's `tenants_sharded`. A sharded open reads no rows until a
/// tenant asks for its index (DESIGN.md §34).
///
/// `store_put/sharded_reopened_2000` is `put_profile` of profiles the
/// tenants have not seen, into each tenant in turn, on that store reopened:
/// the `tenants_sharded` ingest. A put writes its 36 cells to both
/// replicas of each of its five rows (DESIGN.md §40).
fn bench_sharded_reopen(entries: &mut Vec<Entry>, seeds: &Seeds) {
    const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];
    const PER_TENANT: usize = 500;
    let dir = std::env::temp_dir().join(format!("pstorm-perf-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
    for tenant in TENANTS {
        filled(store.tenant_view(tenant).unwrap(), PER_TENANT, seeds);
    }
    store.flush().unwrap();
    drop(store);
    let reopen = || {
        let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
        for tenant in TENANTS {
            let view = store.tenant_view(tenant).unwrap();
            std::hint::black_box(view.columnar_index().unwrap());
        }
    };
    let size = TENANTS.len() * PER_TENANT;
    let mut row = |op, variant, samples: &[u128], per_call| {
        entries.push(Entry::new(op, variant, size, samples, per_call))
    };
    let samples = sample_ns(reopen, 10, 200);
    let rows = size as f64;
    row("store_reopen", "sharded_2000_profiles", &samples, rows);
    let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
    let views: Vec<_> = TENANTS.map(|t| store.tenant_view(t).unwrap()).into();
    let samples = fresh_puts(&views, seeds, PER_TENANT);
    row("store_put", "sharded_reopened_2000", &samples, 1.0);
    drop((views, store));
    let _ = std::fs::remove_dir_all(&dir);
}

/// CRC-32 over 64 KiB: the check every frame, segment block and cell
/// read pays. One call handles 65 536 bytes, so the row's rate is bytes
/// per second.
fn bench_crc32(entries: &mut Vec<Entry>) {
    let data: Vec<u8> = (0..64u32 << 10)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
        .collect();
    let samples = sample_ns(
        || {
            std::hint::black_box(cfstore::encoding::crc32(std::hint::black_box(&data)));
        },
        100,
        100_000,
    );
    entries.push(Entry::new("crc32", "64KiB", 0, &samples, data.len() as f64));
}

/// Filters pushed down to the region servers (§5.3) against the same scan
/// filtered by the client: 4 096 rows in 31 regions (split at 256), each
/// scanned on its own thread, and a predicate that keeps 41 of the rows.
fn bench_store_scan(entries: &mut Vec<Entry>) {
    use cfstore::{MiniStore, PredicateFilter, RowView};

    const ROWS: usize = 4096;
    let store = MiniStore::new();
    store.create_table_with_threshold("t", &["f"], 256).unwrap();
    for i in 0..ROWS {
        let put = Put::new(format!("row{i:05}"), "f", "v", format!("{i}"));
        store.put("t", put).unwrap();
    }
    let pushdown = Scan::all().with_filter(Box::new(PredicateFilter {
        pred: |r: &RowView<'_>| r.key.ends_with(b"00"),
    }));
    let client_side = || {
        let (rows, metrics) = store.scan("t", &Scan::all()).unwrap();
        let kept = rows.into_iter().filter(|r| r.row.ends_with(b"00"));
        (kept.collect::<Vec<_>>(), metrics)
    };
    // Both keep the same 41 rows; the regions ship 41 or all 4 096.
    let (rows, metrics) = store.scan("t", &pushdown).unwrap();
    assert_eq!((rows.len(), metrics.rows_returned), (41, 41));
    let (rows, metrics) = client_side();
    assert_eq!((rows.len(), metrics.rows_returned), (41, ROWS as u64));

    let pushed_down = || drop(std::hint::black_box(store.scan("t", &pushdown).unwrap()));
    let filtered = || drop(std::hint::black_box(client_side()));
    let mut push = |variant, samples: Vec<u128>| {
        entries.push(Entry::new(
            "store_scan",
            variant,
            ROWS,
            &samples,
            ROWS as f64,
        ));
    };
    push("filter_pushdown", sample_ns(pushed_down, 20, 20_000));
    push("client_side_filter", sample_ns(filtered, 20, 20_000));
}

/// Sharded-store robustness costs (PR 7): what replication charges the
/// read path (replicated gets, R-way scan amplification) and what a
/// whole-shard rebuild costs, measured one-shot on a lost-and-rebuilt
/// shard. Returns `(rows_scanned, rows_returned, healed_rows,
/// rebuild_ns)` — the scan pair is the read amplification of the shards a
/// walk reads, the heal pair sizes the repair path via the
/// `cfstore.shard.<id>.heal.*` counters' own bookkeeping.
fn bench_sharded(entries: &mut Vec<Entry>) -> (u64, u64, u64, u128) {
    use cfstore::{ShardOptions, ShardedStore};

    let dir = std::env::temp_dir().join(format!("pstorm-perf-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    const ROWS: usize = 512;
    let open = || ShardedStore::open(&dir, ShardOptions::default(), obs::Registry::disabled());
    let mut push = |op, variant, samples: &[u128], per_call| {
        entries.push(Entry::new(op, variant, ROWS, samples, per_call));
    };
    let (store, _) = open().unwrap();
    store.create_table_with_threshold("t", &["f"], 64).unwrap();
    for i in 0..ROWS {
        let put = Put::new(format!("row-{i:05}"), "f", "c", vec![7u8; 128]);
        store.put("t", put).unwrap();
    }
    store.flush().unwrap();

    // Replicated point reads: served by the primary, failover armed.
    let mut k = 0usize;
    let samples = sample_ns(
        || {
            let key = format!("row-{:05}", k % ROWS);
            k += 1;
            std::hint::black_box(store.get("t", key.as_bytes()).unwrap());
        },
        200,
        200_000,
    );
    push("shard_get", "replicated", &samples, 1.0);

    // Merged scans read the fewest shards that serve every slot (DESIGN.md
    // §49), 0 and 1 of 3 × R2: they walk every row those two hold (slot 0's
    // twice, the read amplification of redundancy), returning each once.
    let (rows, metrics) = store.scan("t", &Scan::all()).unwrap();
    assert_eq!(rows.len(), ROWS);
    let held = |g| store.shard_scan(g, "t", &Scan::all()).unwrap().0.len() as u64;
    assert_eq!(metrics.rows_scanned, held(0) + held(1));
    assert_eq!(metrics.rows_returned, ROWS as u64);
    let scanned = || drop(std::hint::black_box(store.scan("t", &Scan::all()).unwrap()));
    let samples = sample_ns(scanned, 20, 20_000);
    push("shard_scan", "replicated", &samples, ROWS as f64);

    // One-shot: lose a whole shard, time the rebuilding reopen.
    let victim_dir = store.shard_dir(1);
    drop(store);
    std::fs::remove_dir_all(&victim_dir).unwrap();
    let t = Instant::now();
    let (store, report) = open().unwrap();
    let rebuild_ns = t.elapsed().as_nanos();
    assert_eq!(report.lost_shards, vec![1]);
    let healed = report.healed_rows;
    push(
        "shard_rebuild",
        "whole_shard_loss",
        &[rebuild_ns],
        healed as f64,
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (
        metrics.rows_scanned,
        metrics.rows_returned,
        healed,
        rebuild_ns,
    )
}

/// Online-resharding costs (PR 9): rows moved per second by a full
/// grow migration (copy + verify + cutover + GC, timed one-shot), and
/// what a migration in flight charges the matcher — `match_profile`
/// p50 on the same sharded profile store quiesced vs mid-copy
/// (dual-apply armed, reads pinned to the old epoch). Returns
/// `(rows_moved, grow_ms, mid_over_quiesced)` for the summary.
fn bench_reshard(entries: &mut Vec<Entry>, seeds: &Seeds) -> (u64, f64, f64) {
    use cfstore::{ReshardPhase, Topology};

    let dir = std::env::temp_dir().join(format!("pstorm-perf-reshard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let size = STORE_SIZES[1];

    let store = filled(ProfileStore::reopen_sharded(&dir).unwrap().0, size, seeds);
    store.flush().unwrap();
    let q = matcher_query();
    let mut push = |variant, samples: &[u128], per_call| {
        let row = Entry::new("reshard", variant, size, samples, per_call);
        let p50_ns = row.p50_ns;
        entries.push(row);
        p50_ns
    };

    // Matcher baseline with no migration in flight.
    let quiesced_p50 = push("matcher_quiesced", &sample_match(&store, &q), size as f64);

    // One-shot: grow 3×2 → 4×2, timing the whole migration from the
    // journaled Begin through copy, verify, cutover, and GC.
    let t = Instant::now();
    let status = store.reshard(Topology::uniform(4, 2)).unwrap();
    let grow_ns = t.elapsed().as_nanos();
    assert!(matches!(status.phase, ReshardPhase::Done));
    let rows_moved = status.rows_copied;
    push("grow_3x2_to_4x2", &[grow_ns], rows_moved as f64);

    // Mid-migration: start shrinking back toward 3×2 and pause after
    // the first copy unit — dual-apply armed, reads still served by the
    // 4×2 epoch — then sample the matcher in exactly that state.
    let sharded = store.sharded().expect("store is sharded");
    sharded.begin_reshard(Topology::uniform(3, 2)).unwrap();
    sharded.reshard_step().unwrap();
    let mid_p50 = push(
        "matcher_mid_migration",
        &sample_match(&store, &q),
        size as f64,
    );
    let done = store
        .resume_reshard()
        .unwrap()
        .expect("migration in flight");
    assert!(matches!(done.phase, ReshardPhase::Done));

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let grow_ms = grow_ns as f64 * 1e-6;
    let mid_over_quiesced = mid_p50 as f64 / quiesced_p50 as f64;
    (rows_moved, grow_ms, mid_over_quiesced)
}

/// The CBO and the what-if evaluation under it, on word count at 16 map
/// tasks (`random-text-1g`) and at 560 (`wikipedia-35g`, as every `*-35g`
/// submission): a prediction must not cost more because the job has more
/// splits.
fn bench_cbo(entries: &mut Vec<Entry>) {
    let spec = jobs::word_count();
    let cluster = cl();
    for (dataset, search_variant, eval_variant) in [
        (corpus::random_text_1g(), "current", "planned"),
        (
            corpus::wikipedia_35g(),
            "current_560_splits",
            "planned_560_splits",
        ),
    ] {
        let (profile, _) =
            collect_full_profile(&spec, &dataset, &cluster, &JobConfig::submitted(&spec), 5)
                .unwrap();
        let input_bytes = dataset.logical_bytes;

        // The search: WhatIfPlan hoisted once, each candidate priced in
        // closed form as it is drawn, on this thread.
        let opts = CboOptions {
            budget: CBO_BUDGET,
            ..CboOptions::default()
        };
        let samples = sample_ns(
            || {
                std::hint::black_box(
                    optimize(&spec, &profile, input_bytes, &cluster, &opts).unwrap(),
                );
            },
            5,
            60,
        );
        let budget = CBO_BUDGET as f64;
        entries.push(Entry::new(
            "cbo_search",
            search_variant,
            0,
            &samples,
            budget,
        ));

        // Raw what-if evaluation throughput, isolated from search logic:
        // one sample is `CBO_BUDGET` predictions.
        let space = ConfigSpace::for_cluster(&cluster);
        let plan = WhatIfPlan::new(&spec, &profile, input_bytes, &cluster);
        let mut rng = StdRng::seed_from_u64(7);
        let cfgs: Vec<JobConfig> = (0..CBO_BUDGET)
            .map(|_| space.decode(&space.sample_uniform(&mut rng)))
            .collect();
        let samples = sample_ns(
            || {
                for cfg in &cfgs {
                    std::hint::black_box(plan.predict(cfg).ok());
                }
            },
            5,
            60,
        );
        entries.push(Entry::new("whatif_eval", eval_variant, 0, &samples, budget));
    }
}

/// One job family's share of a pass over the suite: `analyze` once per
/// submission of the family.
struct AnalyzeFamily {
    family: String,
    submissions: usize,
    /// Intermediate pairs the family's mappers emit over their samples.
    pairs: u64,
    /// Sum of the per-submission medians, so families add up to the suite.
    p50_ns: u128,
}

/// `mrsim::analyze` — the UDF interpreter plus the grouping — is what a
/// sample and a run cost in this reproduction (DESIGN.md §18). Times it on
/// each of the 58 suite submissions; the 17 PigMix queries fold into one
/// family.
fn bench_analyze() -> Vec<AnalyzeFamily> {
    let cluster = harness::cluster();
    let mut families: Vec<AnalyzeFamily> = Vec::new();
    for sub in harness::all_submissions() {
        let samples = sample_ns(
            || {
                std::hint::black_box(analyze(&sub.spec, &sub.dataset, &cluster).unwrap());
            },
            3,
            10,
        );
        let mut mapper = mrjobs::Interp::new(&sub.spec.map_udf, &sub.spec.params);
        let mut out = Vec::new();
        let mut pairs = 0;
        for rec in sub.dataset.records.iter() {
            let stats = mapper.run(rec.key.clone(), rec.value.clone(), &mut out);
            pairs += stats.unwrap().records_out;
            out.clear();
        }
        let family = match sub.spec.name.as_str() {
            name if name.starts_with("pigmix-") => "pigmix",
            name => name,
        };
        if families.last().is_none_or(|f| f.family != family) {
            families.push(AnalyzeFamily {
                family: family.to_string(),
                submissions: 0,
                pairs: 0,
                p50_ns: 0,
            });
        }
        let row = families.last_mut().expect("pushed above");
        row.submissions += 1;
        row.pairs += pairs;
        row.p50_ns += percentile(&samples, 0.50);
    }
    families
}

/// Emitted pairs only counted.
struct Discard;

impl Sink for Discard {
    fn emit(&mut self, _key: Value, _value: Value, _bytes: u64) {}
}

fn submission<'s>(subs: &'s [harness::Submission], case: &str) -> &'s harness::Submission {
    subs.iter()
        .find(|s| format!("{}@{}", s.spec.job_id(), s.dataset.name) == case)
        .unwrap_or_else(|| panic!("{case} is not in the suite"))
}

/// Grouping the emitted keys of one submission, both ways, beside the
/// `analyze` of the same submission the grouping is a share of.
struct GroupSort {
    case: &'static str,
    pairs: usize,
    arena_p50_ns: u128,
    value_cmp_p50_ns: u128,
    analyze_p50_ns: u128,
}

/// The grouping half of `analyze` on its own (DESIGN.md §22): the emitted
/// keys of three sort-heavy submissions pushed into a `KeyArena`, sorted
/// and split into groups — what `analyze` does with them — and, as the
/// oracle row, the same keys grouped by a stable `sort_by(Value::cmp)` +
/// `chunk_by`, the grouping the arena replaced.
fn bench_group_sort(subs: &[harness::Submission]) -> Vec<GroupSort> {
    let cluster = harness::cluster();
    let cases = [
        "word-count@wikipedia-35g",
        "word-cooccurrence-pairs[window=2]@wikipedia-35g",
        "cf-item-similarity@user-lists-10m",
    ];
    cases
        .into_iter()
        .map(|case| {
            let sub = submission(subs, case);
            let mut mapper = Interp::new(&sub.spec.map_udf, &sub.spec.params);
            let mut out: Vec<(Value, Value)> = Vec::new();
            for rec in sub.dataset.records.iter() {
                mapper
                    .run(rec.key.clone(), rec.value.clone(), &mut out)
                    .unwrap();
            }
            let keys: Vec<Value> = out.into_iter().map(|(key, _)| key).collect();
            let analyzed = sample_ns(
                || {
                    std::hint::black_box(analyze(&sub.spec, &sub.dataset, &cluster).unwrap());
                },
                3,
                10,
            );

            let mut groups = [0usize; 2];
            let arena = sample_ns(
                || {
                    let mut arena = KeyArena::new();
                    for key in &keys {
                        arena.push(key).unwrap();
                    }
                    arena.sort(0, &keys);
                    groups[0] = std::hint::black_box(arena.groups(.., &keys).count());
                },
                5,
                40,
            );
            let value_cmp = sample_ns(
                || {
                    let mut order: Vec<usize> = (0..keys.len()).collect();
                    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
                    let grouped = order.chunk_by(|&a, &b| keys[a].cmp(&keys[b]).is_eq());
                    groups[1] = std::hint::black_box(grouped.count());
                },
                5,
                40,
            );
            assert_eq!(groups[0], groups[1], "{case}: the two groupings disagree");
            GroupSort {
                case,
                pairs: keys.len(),
                arena_p50_ns: percentile(&arena, 0.50),
                value_cmp_p50_ns: percentile(&value_cmp, 0.50),
                analyze_p50_ns: percentile(&analyzed, 0.50),
            }
        })
        .collect()
}

/// One mapper under the interpreter over its sample, timed twice: with
/// every emitted pair dropped at the sink, and with the pairs kept in a
/// vector for the length of the pass, as `analyze` keeps its map output.
struct InterpMap {
    case: &'static str,
    records: usize,
    discarded_p50_ns: u128,
    kept_p50_ns: u128,
}

impl InterpMap {
    fn ns_per_record(&self) -> (f64, f64) {
        let per_record = |ns: u128| ns as f64 / self.records as f64;
        (
            per_record(self.discarded_p50_ns),
            per_record(self.kept_p50_ns),
        )
    }
}

/// The mappers `analyze` spends most of the suite in: one that splits a
/// line and indexes fields, one that loops over tokens, and one that
/// indexes the same tokens over and over from two nested range loops.
fn bench_interp_map(subs: &[harness::Submission]) -> Vec<InterpMap> {
    [
        "pigmix-l1[threshold=7]@pigmix-1g",
        "word-count@random-text-1g",
        "word-cooccurrence-pairs[window=2]@wikipedia-35g",
    ]
    .into_iter()
    .map(|case| {
        let sub = submission(subs, case);
        let mut mapper = Interp::new(&sub.spec.map_udf, &sub.spec.params);
        let mut pass = |out: &mut dyn Sink| {
            for rec in sub.dataset.records.iter() {
                mapper.run(rec.key.clone(), rec.value.clone(), out).unwrap();
            }
        };
        let discarded = sample_ns(|| pass(&mut Discard), 20, 200);
        let kept = sample_ns(
            || {
                let mut out: Vec<(Value, Value)> = Vec::new();
                pass(&mut out);
                std::hint::black_box(out);
            },
            20,
            200,
        );
        InterpMap {
            case,
            records: sub.dataset.len(),
            discarded_p50_ns: percentile(&discarded, 0.50),
            kept_p50_ns: percentile(&kept, 0.50),
        }
    })
    .collect()
}

/// The tree walk with nothing else in it: `i = 0; while i < n: i = i + 1`
/// spends one op per evaluated node and calls no builtin, so its op count
/// is its node count. `(nodes, p50 ns of one invocation)`.
fn bench_interp_node() -> (u64, u128) {
    use mrjobs::ir::build::*;
    let counter = mrjobs::Udf::mapper(
        "Counter",
        vec![
            assign("i", c_int(0)),
            while_loop(
                lt(var("i"), var("value")),
                vec![assign("i", add(var("i"), c_int(1)))],
            ),
        ],
    );
    let mut interp = Interp::new(&counter, &Default::default());
    let mut nodes = 0;
    let samples = sample_ns(
        || {
            let stats = interp.run(Value::Null, Value::Int(100_000), &mut Discard);
            nodes = std::hint::black_box(stats.unwrap().ops);
        },
        20,
        400,
    );
    (nodes, percentile(&samples, 0.50))
}

/// Whether a second core was there while the rows were taken, by
/// `scripts/ci.sh`'s probe (DESIGN.md §29): `sha256sum` over 256 MiB of
/// zeros, one hash and then two at once, each the fastest of three, as two
/// hashes' throughput over one's — ≈ 2.0 on two free cores, ≈ 1.0 where
/// two threads share one. Every lent `analyze` row leans on that core.
/// `None` where the shell or its tools are missing.
fn two_thread_speedup() -> Option<f64> {
    let hashes = |n: usize| -> Option<f64> {
        let t = Instant::now();
        let children: Vec<_> = (0..n)
            .map(|_| {
                std::process::Command::new("sh")
                    .args(["-c", "head -c 256M /dev/zero | sha256sum >/dev/null"])
                    .spawn()
            })
            .collect::<Result<_, _>>()
            .ok()?;
        for mut child in children {
            if !child.wait().ok()?.success() {
                return None;
            }
        }
        Some(t.elapsed().as_secs_f64())
    };
    let (mut one, mut two) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        one = one.min(hashes(1)?);
        two = two.min(hashes(2)?);
    }
    Some(2.0 * one / two)
}

fn entry<'a>(entries: &'a [Entry], op: &str, variant: &str, size: usize) -> &'a Entry {
    entries
        .iter()
        .find(|e| e.op == op && e.variant == variant && e.store_size == size)
        .expect("entry must exist")
}

fn find(entries: &[Entry], op: &str, variant: &str, size: usize) -> f64 {
    entry(entries, op, variant, size).p50_ns as f64
}

/// The summary's numbers from `bench_store`, `bench_sharded` and `bench_reshard`.
type Summary = ((u64, u64), (u64, u64, u64, u128), (u64, f64, f64));

/// Every row group in run order with the ops of its rows, for `--only`.
type Group = (&'static [&'static str], Bench);
type Bench = fn(&mut Vec<Entry>, &Seeds, &mut Summary);
const GROUPS: [Group; 12] = [
    (&["matcher_stage1", "match_profile"], |e, s, _| {
        bench_matcher(e, s)
    }),
    (&["put_then_match", "match_profile"], |e, s, _| {
        bench_put_then_match(e, s)
    }),
    (&["cfg_match"], |e, _, _| bench_cfg_match(e)),
    (&["gbrt_train"], |e, s, _| bench_gbrt_train(e, s)),
    (&["store_block_read", "store_put"], |e, s, sum| {
        sum.0 = bench_store(e, s)
    }),
    (
        &["store_reopen", "store_index_build", "store_put"],
        |e, s, _| bench_reopened_store(e, s),
    ),
    (&["store_reopen", "store_put"], |e, s, _| {
        bench_sharded_reopen(e, s)
    }),
    (&["crc32"], |e, _, _| bench_crc32(e)),
    (&["store_scan"], |e, _, _| bench_store_scan(e)),
    (
        &["shard_get", "shard_scan", "shard_rebuild"],
        |e, _, sum| sum.1 = bench_sharded(e),
    ),
    (&["reshard"], |e, s, sum| sum.2 = bench_reshard(e, s)),
    (&["cbo_search", "whatif_eval"], |e, _, _| bench_cbo(e)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = match &args[..] {
        [] => None,
        [flag, op] if flag == "--only" => Some(op.as_str()),
        _ => panic!("usage: perf_report [--only <op>]"),
    };
    eprintln!("profiling seed jobs...");
    let seeds = seed_profiles();
    let (mut entries, mut summary) = (Vec::new(), Summary::default());
    let picked = |ops: &[&str]| only.is_none_or(|op| ops.contains(&op));
    for (ops, group) in GROUPS.iter().filter(|(ops, _)| picked(ops)) {
        eprintln!("benchmarking {}...", ops.join(", "));
        group(&mut entries, &seeds, &mut summary);
    }
    if let Some(op) = only {
        let rows: Vec<&Entry> = entries.iter().filter(|e| e.op == op).collect();
        assert!(!rows.is_empty(), "no row of {op}");
        for e in rows {
            let (p50, p95) = (e.p50_ns as f64 / 1e3, e.p95_ns as f64 / 1e3);
            println!("{}/{}: p50 {p50:.1} us, p95 {p95:.1} us", e.op, e.variant);
        }
        return;
    }
    let ((reopen_blocks, reopen_blocks_read), sharded, reshard) = summary;
    let (shard_scanned, shard_returned, shard_healed, shard_rebuild_ns) = sharded;
    let (reshard_rows_moved, reshard_grow_ms, reshard_matcher_ratio) = reshard;
    eprintln!("probing for a second core...");
    let speedup = two_thread_speedup();
    let speedup_json = speedup.map_or("null".to_string(), |x| format!("{x:.2}"));
    eprintln!("benchmarking dataflow measurement...");
    let analyze_families = bench_analyze();
    let analyze_total_ns: u128 = analyze_families.iter().map(|f| f.p50_ns).sum();
    let analyze_pairs: u64 = analyze_families.iter().map(|f| f.pairs).sum();
    let analyze_total_ms = analyze_total_ns as f64 * 1e-6;
    let analyze_pairs_per_s = analyze_pairs as f64 / (analyze_total_ns as f64 * 1e-9);
    let subs = harness::all_submissions();
    let group_sorts = bench_group_sort(&subs);
    let sum_ns = |of: fn(&GroupSort) -> u128| group_sorts.iter().map(of).sum::<u128>() as f64;
    let group_sort_share = sum_ns(|g| g.arena_p50_ns) / sum_ns(|g| g.analyze_p50_ns);
    let group_sort_speedup = sum_ns(|g| g.value_cmp_p50_ns) / sum_ns(|g| g.arena_p50_ns);
    let interp_maps = bench_interp_map(&subs);
    let (interp_nodes, interp_node_p50_ns) = bench_interp_node();
    let ns_per_node = interp_node_p50_ns as f64 / interp_nodes as f64;

    let stage1_speedup = find(&entries, "matcher_stage1", "filter_dynamic", 1000)
        / find(&entries, "matcher_stage1", "columnar", 1000);
    let stage1_p50 = find(&entries, "matcher_stage1", "columnar", 1000);
    let match_at_4000 = find(&entries, "match_profile", "columnar", 4000);
    let put_then_match_at_4000 = find(&entries, "put_then_match", "columnar", 4000);
    let current_cps = entry(&entries, "cbo_search", "current", 0).candidates_per_sec;
    let shard_rebuild_ms = shard_rebuild_ns as f64 * 1e-6;
    // Per prediction: the row's sample is `CBO_BUDGET` of them.
    let whatif_eval_at_560 =
        find(&entries, "whatif_eval", "planned_560_splits", 0) / CBO_BUDGET as f64;

    let mut json = String::from("{\n");
    let mut array = |name: &str, rows: Vec<String>| {
        let _ = writeln!(json, "  \"{name}\": [\n{}\n  ],", rows.join(",\n"));
    };
    array(
        "benchmarks",
        entries
            .iter()
            .map(|e| {
                format!(
                    "    {{\"op\": \"{}\", \"variant\": \"{}\", \"store_size\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"candidates_per_sec\": {:.1}}}",
                    e.op, e.variant, e.store_size, e.p50_ns, e.p95_ns, e.candidates_per_sec
                )
            })
            .collect(),
    );
    array(
        "analyze",
        analyze_families
            .iter()
            .map(|f| {
                format!(
                    "    {{\"family\": \"{}\", \"submissions\": {}, \"pairs\": {}, \"p50_ns\": {}}}",
                    f.family, f.submissions, f.pairs, f.p50_ns
                )
            })
            .collect(),
    );
    array(
        "group_sort",
        group_sorts
            .iter()
            .flat_map(|g| {
                [("arena", g.arena_p50_ns), ("value_cmp", g.value_cmp_p50_ns)].map(|(variant, p50_ns)| {
                    format!(
                        "    {{\"case\": \"{}\", \"variant\": \"{variant}\", \"pairs\": {}, \"p50_ns\": {p50_ns}, \"pairs_per_s\": {:.0}}}",
                        g.case,
                        g.pairs,
                        g.pairs as f64 / (p50_ns as f64 * 1e-9)
                    )
                })
            })
            .collect(),
    );
    array(
        "interp_map",
        interp_maps
            .iter()
            .map(|m| {
                let (discarded, kept) = m.ns_per_record();
                format!(
                    "    {{\"case\": \"{}\", \"records\": {}, \"p50_ns\": {}, \"ns_per_record\": {discarded:.0}, \"kept_p50_ns\": {}, \"kept_ns_per_record\": {kept:.0}}}",
                    m.case, m.records, m.discarded_p50_ns, m.kept_p50_ns
                )
            })
            .collect(),
    );
    let _ = writeln!(
        json,
        "  \"interp_node\": {{\"nodes\": {interp_nodes}, \"p50_ns\": {interp_node_p50_ns}, \"ns_per_node\": {ns_per_node:.2}}},"
    );
    let _ = write!(
        json,
        "  \"summary\": {{\n    \"matcher_stage1_speedup_at_1000\": {stage1_speedup:.1},\n    \"matcher_stage1_columnar_p50_at_1000_ns\": {stage1_p50:.0},\n    \"match_profile_p50_at_4000_ns\": {match_at_4000:.0},\n    \"put_then_match_p50_at_4000_ns\": {put_then_match_at_4000:.0},\n    \"reopen_segment_blocks_indexed\": {reopen_blocks},\n    \"reopen_segment_blocks_read\": {reopen_blocks_read},\n    \"shard_scan_rows_scanned\": {shard_scanned},\n    \"shard_scan_rows_returned\": {shard_returned},\n    \"shard_rebuild_healed_rows\": {shard_healed},\n    \"shard_rebuild_ms\": {shard_rebuild_ms:.1},\n    \"reshard_grow_rows_moved\": {reshard_rows_moved},\n    \"reshard_grow_ms\": {reshard_grow_ms:.1},\n    \"reshard_matcher_p50_mid_over_quiesced\": {reshard_matcher_ratio:.2},\n    \"cbo_search_current_candidates_per_sec\": {current_cps:.1},\n    \"whatif_eval_p50_ns_at_560_splits\": {whatif_eval_at_560:.0},\n    \"analyze.suite_total_ms\": {analyze_total_ms:.1},\n    \"analyze.pairs_per_s\": {analyze_pairs_per_s:.0},\n    \"analyze.group_sort_share\": {group_sort_share:.3},\n    \"group_sort_speedup\": {group_sort_speedup:.2},\n    \"two_thread_speedup\": {speedup_json}\n  }}\n}}\n"
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_tuning_latency.json"
    );
    std::fs::write(path, &json).unwrap();
    println!("{json}");
    println!("wrote {path}");
    println!("stage-1 matcher speedup at store size 1000: {stage1_speedup:.1}x");
    println!(
        "at store size 4000: match_profile {:.0} us, put_then_match {:.0} us",
        match_at_4000 / 1e3,
        put_then_match_at_4000 / 1e3
    );
    println!("lazy reopen read {reopen_blocks_read} of {reopen_blocks} segment blocks");
    println!(
        "reopen of 4000 profiles at a 1 MiB cache: {:.1} ms (index build {:.1} ms), then put_profile {:.1} us; crc32: {:.2} GB/s",
        find(&entries, "store_reopen", "4000_profiles", 4000) / 1e6,
        find(&entries, "store_index_build", "4000_profiles", 4000) / 1e6,
        find(&entries, "store_put", "reopened_4000", 4000) / 1e3,
        entry(&entries, "crc32", "64KiB", 0).candidates_per_sec / 1e9
    );
    println!(
        "sharded reopen of 4 tenants x 500 profiles and their index builds: {:.1} ms",
        find(&entries, "store_reopen", "sharded_2000_profiles", 2000) / 1e6
    );
    println!(
        "sharded scan read amplification: {shard_scanned} scanned for {shard_returned} returned"
    );
    println!("whole-shard rebuild: {shard_healed} rows healed in {shard_rebuild_ms:.1} ms");
    println!("reshard grow 3x2->4x2: {reshard_rows_moved} rows moved in {reshard_grow_ms:.1} ms");
    println!("matcher p50 mid-migration / quiesced: {reshard_matcher_ratio:.2}x");
    println!("CBO search: {current_cps:.0} candidates/s");
    println!("what-if prediction at 560 splits: {whatif_eval_at_560:.0} ns");
    println!(
        "analyze over the {} suite submissions: {analyze_total_ms:.0} ms, {:.2} M pairs/s",
        analyze_families
            .iter()
            .map(|f| f.submissions)
            .sum::<usize>(),
        analyze_pairs_per_s / 1e6
    );
    println!(
        "grouping (arena) is {:.0} % of analyze on its three cases, {group_sort_speedup:.1}x a Value-comparing sort",
        group_sort_share * 100.0
    );
    for m in &interp_maps {
        let (discarded, kept) = m.ns_per_record();
        println!(
            "{} mapper: {discarded:.0} ns/record, {kept:.0} with its output kept",
            m.case
        );
    }
    println!("interpreter: {ns_per_node:.2} ns per evaluated node");
    match speedup {
        Some(x) => println!("two-thread speed-up of sha256sum before the analyze rows: {x:.2}"),
        None => println!("two-thread speed-up: no sh, head or sha256sum to probe with"),
    }
}
