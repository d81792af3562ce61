//! End-to-end tuning-latency report: stage-1 matcher latency (the
//! lane-vectorized columnar sweep vs its scalar reference sweep vs the
//! `filter_dynamic` pushdown scan) at several store sizes, full
//! `match_profile` latency, `put_then_match` (a `put_profile` and the
//! match that folds its index delta in), segment block reads through the
//! bounded cache (cold vs warm), put latency with inline vs background
//! flushing, online-resharding cost (rows moved per second by a grow
//! migration, matcher latency with a migration in flight vs quiesced),
//! CBO search and what-if evaluation throughput at 16 and at 560 map
//! tasks, and the dataflow measurement (`mrsim::analyze`) of every suite
//! submission, by job family, with its two halves apart: the grouping
//! (`group_sort`, beside a `Value`-comparing sort as oracle) and the map
//! UDF under the interpreter (`interp_map`, output dropped and kept) and
//! the interpreter's cost per evaluated node (`interp_node`).
//! Writes `BENCH_tuning_latency.json` at the repo root.
//!
//! Every row times code a submission can reach. The three stage-1 rows
//! compare the production sweep with the two references it is
//! property-tested against (`ColumnarIndex::sweep_map_dyn_scalar`,
//! `ProfileStore::filter_dynamic`), both public store API.

use std::fmt::Write as _;
use std::time::Instant;

use cfstore::{Put, Scan, StoreOptions};
use datagen::corpus;
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
use staticanalysis::StaticFeatures;
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
    candidates_per_sec: Option<f64>,
}

fn seed_profiles() -> Vec<(StaticFeatures, JobProfile)> {
    let text = corpus::random_text_1g();
    let specs = vec![
        jobs::word_count(),
        jobs::word_cooccurrence_pairs(2),
        jobs::bigram_relative_frequency(),
        jobs::grep("ba"),
    ];
    specs
        .into_iter()
        .map(|spec| {
            let (profile, _) =
                collect_full_profile(&spec, &text, &cl(), &JobConfig::submitted(&spec), 5).unwrap();
            (StaticFeatures::extract(&spec), profile)
        })
        .collect()
}

fn store_of(size: usize, seeds: &[(StaticFeatures, JobProfile)]) -> ProfileStore {
    let store = ProfileStore::new().unwrap();
    for i in 0..size {
        let (statics, profile) = &seeds[i % seeds.len()];
        let mut p = profile.clone();
        p.job_id = format!("{}#{}", p.job_id, i);
        p.map.size_selectivity *= 1.0 + (i as f64) * 1e-4;
        store.put_profile(statics, &p).unwrap();
    }
    store
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

fn bench_matcher(entries: &mut Vec<Entry>, seeds: &[(StaticFeatures, JobProfile)]) {
    let q = matcher_query();
    let q_dyn = q.sample.map.dynamic_features();

    for size in STORE_SIZES {
        let store = store_of(size, seeds);
        let bounds = store.normalization_bounds().unwrap();
        let theta = MatcherConfig::default().theta_eucl_fraction * (q_dyn.len() as f64).sqrt();

        // Throughput: every stage-1 variant examines all `size` stored
        // candidates per call, so candidates/s = size / p50.
        let cps = |p50: u128| Some(size as f64 / (p50 as f64 * 1e-9));

        // Stage 1 in isolation: the dynamic-feature distance filter, on
        // the lane-vectorized sweep and the scalar reference sweep.
        let ix = store.columnar_index().unwrap();
        let samples = sample_ns(
            || {
                std::hint::black_box(ix.sweep_map_dyn(&bounds.map_dyn, &q_dyn, theta));
            },
            50,
            20_000,
        );
        let p50 = percentile(&samples, 0.50);
        entries.push(Entry {
            op: "matcher_stage1",
            variant: "columnar",
            store_size: size,
            p50_ns: p50,
            p95_ns: percentile(&samples, 0.95),
            candidates_per_sec: cps(p50),
        });

        let samples = sample_ns(
            || {
                std::hint::black_box(ix.sweep_map_dyn_scalar(&bounds.map_dyn, &q_dyn, theta));
            },
            50,
            20_000,
        );
        let p50 = percentile(&samples, 0.50);
        entries.push(Entry {
            op: "matcher_stage1",
            variant: "columnar_scalar",
            store_size: size,
            p50_ns: p50,
            p95_ns: percentile(&samples, 0.95),
            candidates_per_sec: cps(p50),
        });

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
        let p50 = percentile(&samples, 0.50);
        entries.push(Entry {
            op: "matcher_stage1",
            variant: "filter_dynamic",
            store_size: size,
            p50_ns: p50,
            p95_ns: percentile(&samples, 0.95),
            candidates_per_sec: cps(p50),
        });

        // The whole matching workflow.
        let cfg = MatcherConfig::default();
        let samples = sample_ns(
            || {
                let _ = std::hint::black_box(match_profile(&store, &q, &cfg).unwrap());
            },
            20,
            2_000,
        );
        let p50 = percentile(&samples, 0.50);
        entries.push(Entry {
            op: "match_profile",
            variant: "columnar",
            store_size: size,
            p50_ns: p50,
            p95_ns: percentile(&samples, 0.95),
            candidates_per_sec: cps(p50),
        });
    }
}

/// `match_profile` and `put_then_match` at [`TRAJECTORY_SIZES`]. Each
/// `put_then_match` iteration replaces one stored profile (so the store
/// stays at its size) and matches: the put leaves an index delta, the
/// match folds it in. Before the index was write-maintained the same pair
/// rebuilt the index from three prefix scans.
fn bench_put_then_match(entries: &mut Vec<Entry>, seeds: &[(StaticFeatures, JobProfile)]) {
    let q = matcher_query();
    let cfg = MatcherConfig::default();
    for size in TRAJECTORY_SIZES {
        let store = store_of(size, seeds);
        let mut push = |op: &'static str, samples: Vec<u128>| {
            let p50 = percentile(&samples, 0.50);
            entries.push(Entry {
                op,
                variant: "columnar",
                store_size: size,
                p50_ns: p50,
                p95_ns: percentile(&samples, 0.95),
                candidates_per_sec: Some(size as f64 / (p50 as f64 * 1e-9)),
            });
        };
        if !STORE_SIZES.contains(&size) {
            let samples = sample_ns(
                || {
                    let _ = std::hint::black_box(match_profile(&store, &q, &cfg).unwrap());
                },
                20,
                2_000,
            );
            push("match_profile", samples);
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
/// block; warm = ample budget primed by the reopen's eager index scan)
/// and put latency with the flush inline on the caller vs handed to the
/// background flusher. Returns `(blocks_indexed, blocks_read)` from the
/// lazy reopen — the read-amplification proof that reopening is bounded
/// by segment trailers, not segment bodies.
fn bench_store(entries: &mut Vec<Entry>, seeds: &[(StaticFeatures, JobProfile)]) -> (u64, u64) {
    let base = std::env::temp_dir().join(format!("pstorm-perf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir = base.join("read");
    let size = STORE_SIZES[2];

    // Build a segment-backed store: `size` profiles, flushed, closed.
    {
        let (store, _) = ProfileStore::reopen(&dir).unwrap();
        for i in 0..size {
            let (statics, profile) = &seeds[i % seeds.len()];
            let mut p = profile.clone();
            p.job_id = format!("{}#{}", p.job_id, i);
            p.map.size_selectivity *= 1.0 + (i as f64) * 1e-4;
            store.put_profile(statics, &p).unwrap();
        }
        store.flush().unwrap();
    }

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

    // Warm: the reopen's eager index scan plus the key scan above primed
    // the cache, so every get is a block-cache hit.
    let mut k = 0usize;
    let samples = sample_ns(
        || {
            let key = &keys[k % keys.len()];
            k += 1;
            std::hint::black_box(warm_store.inner().get("Jobs", key).unwrap());
        },
        200,
        200_000,
    );
    let p50 = percentile(&samples, 0.50);
    entries.push(Entry {
        op: "store_block_read",
        variant: "warm",
        store_size: size,
        p50_ns: p50,
        p95_ns: percentile(&samples, 0.95),
        candidates_per_sec: Some(1e9 / p50 as f64),
    });
    drop(warm_store);

    // Cold: a 0-byte budget admits nothing, so every get re-reads and
    // CRC-verifies its whole block from disk — the uncached unit cost.
    let (cold_store, _) = ProfileStore::reopen_with_opts(
        &dir,
        StoreOptions {
            block_cache_bytes: 0,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let mut k = 0usize;
    let samples = sample_ns(
        || {
            let key = &keys[k % keys.len()];
            k += 1;
            std::hint::black_box(cold_store.inner().get("Jobs", key).unwrap());
        },
        200,
        200_000,
    );
    let p50 = percentile(&samples, 0.50);
    entries.push(Entry {
        op: "store_block_read",
        variant: "cold",
        store_size: size,
        p50_ns: p50,
        p95_ns: percentile(&samples, 0.95),
        candidates_per_sec: Some(1e9 / p50 as f64),
    });
    drop(cold_store);

    // Put latency, per-op samples: inline flushing charges a periodic
    // segment rewrite to whichever put drew the short straw (visible at
    // p95); the background flusher takes it off the caller entirely.
    // Flush every 16 puts so >5% of inline-flush samples pay a segment
    // rewrite — the caller-pays cost then lands inside the p95 horizon.
    const PUTS: usize = 2048;
    const FLUSH_EVERY: usize = 16;
    let put_samples = |store: &ProfileStore, inline_flush: bool| -> Vec<u128> {
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
            if inline_flush && i % FLUSH_EVERY == FLUSH_EVERY - 1 {
                store.flush().unwrap();
            }
            samples.push(t.elapsed().as_nanos());
        }
        samples.sort_unstable();
        samples
    };
    for (variant, opts) in [
        ("inline_flush", StoreOptions::default()),
        (
            "background_flush",
            StoreOptions {
                background_flush_wal_bytes: Some(64 << 10),
                ..StoreOptions::default()
            },
        ),
    ] {
        let dir = base.join(variant);
        let inline = variant == "inline_flush";
        let (store, _) = ProfileStore::reopen_with_opts(&dir, opts).unwrap();
        let samples = put_samples(&store, inline);
        let p50 = percentile(&samples, 0.50);
        entries.push(Entry {
            op: "store_put",
            variant,
            store_size: PUTS,
            p50_ns: p50,
            p95_ns: percentile(&samples, 0.95),
            candidates_per_sec: Some(1e9 / p50 as f64),
        });
        drop(store);
    }

    let _ = std::fs::remove_dir_all(&base);
    read_amp
}

/// Sharded-store robustness costs (PR 7): what replication charges the
/// read path (replicated gets, R-way scan amplification) and what a
/// whole-shard rebuild costs, measured one-shot on a lost-and-rebuilt
/// shard. Returns `(rows_scanned, rows_returned, healed_rows,
/// rebuild_ns)` — the scan pair is the R× read-amplification proof, the
/// heal pair sizes the repair path via the `cfstore.shard.<id>.heal.*`
/// counters' own bookkeeping.
fn bench_sharded(entries: &mut Vec<Entry>) -> (u64, u64, u64, u128) {
    use cfstore::{ShardedMeta, ShardedStore};

    let dir = std::env::temp_dir().join(format!("pstorm-perf-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    const ROWS: usize = 512;
    let (store, _) = ShardedStore::open(&dir).unwrap();
    store.create_table_with_threshold("t", &["f"], 64).unwrap();
    for i in 0..ROWS {
        store
            .put(
                "t",
                Put::new(format!("row-{i:05}"), "f", "c", vec![7u8; 128]),
            )
            .unwrap();
    }
    store.flush().unwrap();
    let ShardedMeta { replication, .. } = store.meta();

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
    let p50 = percentile(&samples, 0.50);
    entries.push(Entry {
        op: "shard_get",
        variant: "replicated",
        store_size: ROWS,
        p50_ns: p50,
        p95_ns: percentile(&samples, 0.95),
        candidates_per_sec: Some(1e9 / p50 as f64),
    });

    // Merged scans: every replica of every row is visited (the read
    // amplification of redundancy — R rows scanned per merged row).
    let (rows, metrics) = store.scan("t", &Scan::all()).unwrap();
    assert_eq!(rows.len(), ROWS);
    assert_eq!(metrics.rows_scanned, replication as u64 * ROWS as u64);
    let samples = sample_ns(
        || {
            std::hint::black_box(store.scan("t", &Scan::all()).unwrap());
        },
        20,
        20_000,
    );
    let p50 = percentile(&samples, 0.50);
    entries.push(Entry {
        op: "shard_scan",
        variant: "replicated",
        store_size: ROWS,
        p50_ns: p50,
        p95_ns: percentile(&samples, 0.95),
        candidates_per_sec: Some(ROWS as f64 / (p50 as f64 * 1e-9)),
    });

    // One-shot: lose a whole shard, time the rebuilding reopen.
    let victim_dir = store.shard_dir(1);
    drop(store);
    std::fs::remove_dir_all(&victim_dir).unwrap();
    let t = Instant::now();
    let (store, report) = ShardedStore::open(&dir).unwrap();
    let rebuild_ns = t.elapsed().as_nanos();
    assert_eq!(report.lost_shards, vec![1]);
    let healed = report.healed_rows;
    entries.push(Entry {
        op: "shard_rebuild",
        variant: "whole_shard_loss",
        store_size: ROWS,
        p50_ns: rebuild_ns,
        p95_ns: rebuild_ns,
        candidates_per_sec: Some(healed as f64 / (rebuild_ns as f64 * 1e-9)),
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (metrics.rows_scanned, ROWS as u64, healed, rebuild_ns)
}

/// Online-resharding costs (PR 9): rows moved per second by a full
/// grow migration (copy + verify + cutover + GC, timed one-shot), and
/// what a migration in flight charges the matcher — `match_profile`
/// p50 on the same sharded profile store quiesced vs mid-copy
/// (dual-apply armed, reads pinned to the old epoch). Returns
/// `(rows_moved, grow_ms, mid_over_quiesced)` for the summary.
fn bench_reshard(
    entries: &mut Vec<Entry>,
    seeds: &[(StaticFeatures, JobProfile)],
) -> (u64, f64, f64) {
    use cfstore::{ReshardPhase, Topology};

    let dir = std::env::temp_dir().join(format!("pstorm-perf-reshard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let size = STORE_SIZES[1];

    let (store, _) = ProfileStore::reopen_sharded(&dir).unwrap();
    for i in 0..size {
        let (statics, profile) = &seeds[i % seeds.len()];
        let mut p = profile.clone();
        p.job_id = format!("{}#{}", p.job_id, i);
        p.map.size_selectivity *= 1.0 + (i as f64) * 1e-4;
        store.put_profile(statics, &p).unwrap();
    }
    store.flush().unwrap();
    let q = matcher_query();
    let cfg = MatcherConfig::default();
    let cps = |p50: u128| Some(size as f64 / (p50 as f64 * 1e-9));

    // Matcher baseline with no migration in flight.
    let samples = sample_ns(
        || {
            let _ = std::hint::black_box(match_profile(&store, &q, &cfg).unwrap());
        },
        20,
        2_000,
    );
    let quiesced_p50 = percentile(&samples, 0.50);
    entries.push(Entry {
        op: "reshard",
        variant: "matcher_quiesced",
        store_size: size,
        p50_ns: quiesced_p50,
        p95_ns: percentile(&samples, 0.95),
        candidates_per_sec: cps(quiesced_p50),
    });

    // One-shot: grow 3×2 → 4×2, timing the whole migration from the
    // journaled Begin through copy, verify, cutover, and GC.
    let t = Instant::now();
    let status = store.reshard(Topology::uniform(4, 2)).unwrap();
    let grow_ns = t.elapsed().as_nanos();
    assert!(matches!(status.phase, ReshardPhase::Done));
    let rows_moved = status.rows_copied;
    entries.push(Entry {
        op: "reshard",
        variant: "grow_3x2_to_4x2",
        store_size: size,
        p50_ns: grow_ns,
        p95_ns: grow_ns,
        candidates_per_sec: Some(rows_moved as f64 / (grow_ns as f64 * 1e-9)),
    });

    // Mid-migration: start shrinking back toward 3×2 and pause after
    // the first copy unit — dual-apply armed, reads still served by the
    // 4×2 epoch — then sample the matcher in exactly that state.
    let sharded = store.sharded().expect("store is sharded");
    sharded.begin_reshard(Topology::uniform(3, 2)).unwrap();
    sharded.reshard_step().unwrap();
    let samples = sample_ns(
        || {
            let _ = std::hint::black_box(match_profile(&store, &q, &cfg).unwrap());
        },
        20,
        2_000,
    );
    let mid_p50 = percentile(&samples, 0.50);
    entries.push(Entry {
        op: "reshard",
        variant: "matcher_mid_migration",
        store_size: size,
        p50_ns: mid_p50,
        p95_ns: percentile(&samples, 0.95),
        candidates_per_sec: cps(mid_p50),
    });
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
        let p50 = percentile(&samples, 0.50);
        entries.push(Entry {
            op: "cbo_search",
            variant: search_variant,
            store_size: 0,
            p50_ns: p50,
            p95_ns: percentile(&samples, 0.95),
            candidates_per_sec: Some(CBO_BUDGET as f64 / (p50 as f64 * 1e-9)),
        });

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
        let p50 = percentile(&samples, 0.50);
        entries.push(Entry {
            op: "whatif_eval",
            variant: eval_variant,
            store_size: 0,
            p50_ns: p50,
            p95_ns: percentile(&samples, 0.95),
            candidates_per_sec: Some(cfgs.len() as f64 / (p50 as f64 * 1e-9)),
        });
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
                    groups[0] = std::hint::black_box(arena.groups(0, &keys).count());
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

fn entry<'a>(entries: &'a [Entry], op: &str, variant: &str, size: usize) -> &'a Entry {
    entries
        .iter()
        .find(|e| e.op == op && e.variant == variant && e.store_size == size)
        .expect("entry must exist")
}

fn find(entries: &[Entry], op: &str, variant: &str, size: usize) -> f64 {
    entry(entries, op, variant, size).p50_ns as f64
}

fn main() {
    let mut entries = Vec::new();
    eprintln!("profiling seed jobs...");
    let seeds = seed_profiles();
    eprintln!("benchmarking matcher...");
    bench_matcher(&mut entries, &seeds);
    bench_put_then_match(&mut entries, &seeds);
    eprintln!("benchmarking durable store...");
    let (reopen_blocks, reopen_blocks_read) = bench_store(&mut entries, &seeds);
    eprintln!("benchmarking sharded store...");
    let (shard_scanned, shard_returned, shard_healed, shard_rebuild_ns) =
        bench_sharded(&mut entries);
    eprintln!("benchmarking online resharding...");
    let (reshard_rows_moved, reshard_grow_ms, reshard_matcher_ratio) =
        bench_reshard(&mut entries, &seeds);
    eprintln!("benchmarking CBO...");
    bench_cbo(&mut entries);
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
    let lane_speedup = find(&entries, "matcher_stage1", "columnar_scalar", 1000) / stage1_p50;
    let match_at_4000 = find(&entries, "match_profile", "columnar", 4000);
    let put_then_match_at_4000 = find(&entries, "put_then_match", "columnar", 4000);
    let put_tail_ratio = entry(&entries, "store_put", "inline_flush", 2048).p95_ns as f64
        / entry(&entries, "store_put", "background_flush", 2048).p95_ns as f64;
    let current_cps = entries
        .iter()
        .find(|e| e.op == "cbo_search" && e.variant == "current")
        .and_then(|e| e.candidates_per_sec)
        .unwrap();
    let shard_rebuild_ms = shard_rebuild_ns as f64 * 1e-6;
    // Per prediction: the row's sample is `CBO_BUDGET` of them.
    let whatif_eval_at_560 =
        find(&entries, "whatif_eval", "planned_560_splits", 0) / CBO_BUDGET as f64;

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let cps = match e.candidates_per_sec {
            Some(v) => format!("{v:.1}"),
            None => "null".to_string(),
        };
        let _ = write!(
            json,
            "    {{\"op\": \"{}\", \"variant\": \"{}\", \"store_size\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"candidates_per_sec\": {}}}",
            e.op, e.variant, e.store_size, e.p50_ns, e.p95_ns, cps
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"analyze\": [\n");
    for (i, f) in analyze_families.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"family\": \"{}\", \"submissions\": {}, \"pairs\": {}, \"p50_ns\": {}}}",
            f.family, f.submissions, f.pairs, f.p50_ns
        );
        json.push_str(if i + 1 < analyze_families.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n  \"group_sort\": [\n");
    let group_sort_rows: Vec<String> = group_sorts
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
        .collect();
    json.push_str(&group_sort_rows.join(",\n"));
    json.push('\n');
    json.push_str("  ],\n  \"interp_map\": [\n");
    for (i, m) in interp_maps.iter().enumerate() {
        let (discarded, kept) = m.ns_per_record();
        let _ = write!(
            json,
            "    {{\"case\": \"{}\", \"records\": {}, \"p50_ns\": {}, \"ns_per_record\": {discarded:.0}, \"kept_p50_ns\": {}, \"kept_ns_per_record\": {kept:.0}}}",
            m.case, m.records, m.discarded_p50_ns, m.kept_p50_ns
        );
        json.push_str(if i + 1 < interp_maps.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = write!(
        json,
        "  ],\n  \"interp_node\": {{\"nodes\": {interp_nodes}, \"p50_ns\": {interp_node_p50_ns}, \"ns_per_node\": {ns_per_node:.2}}},\n"
    );
    let _ = write!(
        json,
        "  \"summary\": {{\n    \"matcher_stage1_speedup_at_1000\": {stage1_speedup:.1},\n    \"matcher_stage1_columnar_p50_at_1000_ns\": {stage1_p50:.0},\n    \"sweep_lane_vs_scalar_speedup_at_1000\": {lane_speedup:.1},\n    \"match_profile_p50_at_4000_ns\": {match_at_4000:.0},\n    \"put_then_match_p50_at_4000_ns\": {put_then_match_at_4000:.0},\n    \"reopen_segment_blocks_indexed\": {reopen_blocks},\n    \"reopen_segment_blocks_read\": {reopen_blocks_read},\n    \"put_p95_inline_over_background\": {put_tail_ratio:.1},\n    \"shard_scan_rows_scanned\": {shard_scanned},\n    \"shard_scan_rows_returned\": {shard_returned},\n    \"shard_rebuild_healed_rows\": {shard_healed},\n    \"shard_rebuild_ms\": {shard_rebuild_ms:.1},\n    \"reshard_grow_rows_moved\": {reshard_rows_moved},\n    \"reshard_grow_ms\": {reshard_grow_ms:.1},\n    \"reshard_matcher_p50_mid_over_quiesced\": {reshard_matcher_ratio:.2},\n    \"cbo_search_current_candidates_per_sec\": {current_cps:.1},\n    \"whatif_eval_p50_ns_at_560_splits\": {whatif_eval_at_560:.0},\n    \"analyze.suite_total_ms\": {analyze_total_ms:.1},\n    \"analyze.pairs_per_s\": {analyze_pairs_per_s:.0},\n    \"analyze.group_sort_share\": {group_sort_share:.3},\n    \"group_sort_speedup\": {group_sort_speedup:.2}\n  }}\n}}\n"
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_tuning_latency.json"
    );
    std::fs::write(path, &json).unwrap();
    println!("{json}");
    println!("wrote {path}");
    println!("stage-1 matcher speedup at store size 1000: {stage1_speedup:.1}x");
    println!("stage-1 lane-vectorized vs scalar sweep: {lane_speedup:.1}x");
    println!(
        "at store size 4000: match_profile {:.0} us, put_then_match {:.0} us",
        match_at_4000 / 1e3,
        put_then_match_at_4000 / 1e3
    );
    println!("lazy reopen read {reopen_blocks_read} of {reopen_blocks} segment blocks");
    println!("put p95 inline-flush / background-flush: {put_tail_ratio:.1}x");
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
}
