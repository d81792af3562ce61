//! Criterion microbenchmarks for the MapReduce simulator substrate:
//! dataflow measurement (UDF interpretation), end-to-end job simulation,
//! and What-If predictions (the CBO's inner loop).

use criterion::{criterion_group, criterion_main, Criterion};

use datagen::corpus;
use mrjobs::jobs;
use mrsim::{analyze, simulate_with_dataflow, ClusterSpec, JobConfig};
use profiler::collect_full_profile;
use whatif::{predict_runtime_ms, WhatIfQuery};

fn cl() -> ClusterSpec {
    ClusterSpec::ec2_c1_medium_16()
}

/// `analyze` is what every sample and every run costs. One light job and
/// the shapes that dominate a suite pass: nested-loop pair emission on the
/// large text corpus, itemset pairs, item co-rating pairs, and a PigMix
/// group-by.
fn bench_dataflow_analysis(c: &mut Criterion) {
    let cases = [
        (
            "sim/analyze_word_count_1g",
            jobs::word_count(),
            corpus::random_text_1g(),
        ),
        (
            "sim/analyze_cooccurrence_pairs_wikipedia_35g",
            jobs::word_cooccurrence_pairs(2),
            corpus::wikipedia_35g(),
        ),
        (
            "sim/analyze_fim_pass2_webdocs",
            jobs::fim_pass2(4),
            corpus::webdocs(),
        ),
        (
            "sim/analyze_cf_item_similarity_10m",
            jobs::cf_item_similarity(),
            corpus::user_lists_10m(),
        ),
        (
            "sim/analyze_pigmix_l3_35g",
            jobs::pigmix(3),
            corpus::pigmix_35g(),
        ),
    ];
    for (name, spec, ds) in cases {
        c.bench_function(name, |b| b.iter(|| analyze(&spec, &ds, &cl()).unwrap()));
    }
}

fn bench_simulation(c: &mut Criterion) {
    let ds = corpus::wikipedia_35g();
    let spec = jobs::word_count();
    let flow = analyze(&spec, &ds, &cl()).unwrap();
    let cfg = JobConfig::submitted(&spec);
    c.bench_function("sim/simulate_word_count_35g_560_tasks", |b| {
        b.iter(|| simulate_with_dataflow(&spec, &flow, &ds.name, &cl(), &cfg, 7).unwrap())
    });
}

fn bench_whatif(c: &mut Criterion) {
    let ds = corpus::wikipedia_35g();
    let spec = jobs::word_cooccurrence_pairs(2);
    let (profile, _) =
        collect_full_profile(&spec, &ds, &cl(), &JobConfig::submitted(&spec), 3).unwrap();
    let cfg = JobConfig::default();
    c.bench_function("sim/whatif_prediction", |b| {
        b.iter(|| {
            predict_runtime_ms(&WhatIfQuery {
                spec: &spec,
                profile: &profile,
                input_bytes: ds.logical_bytes,
                cluster: &cl(),
                config: &cfg,
            })
            .unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_dataflow_analysis,
    bench_simulation,
    bench_whatif
);
criterion_main!(benches);
