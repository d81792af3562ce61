//! Golden job reports (DESIGN.md §19).
//!
//! `mrsim::simulate_with_dataflow` turns a measured dataflow into the
//! virtual timeline every profile, match and tuned runtime is read from.
//! This suite pins that function by value: a digest over every
//! `JobReport` field by `to_bits` — `runtime_ms`, `maps_done_ms`, every
//! task's `start_ms`/`end_ms`/`phases`/`observed_rates`/`attempt`/
//! `speculative` and dataflow counters in report order, and `FaultStats`
//! including `wasted_ms`.
//!
//! Two tables. The suite table holds, for each of the 58 submissions on
//! the default cluster, the 1-task sample run (the report is private to
//! `profiler::sampler`, so the digest is over the `SampleRun` it is
//! aggregated into), the full-profile run under the submitted
//! configuration, and the run under the configuration the CBO recommends
//! from that profile. The fault table holds runs the scheduler's retry,
//! node-loss, speculation and straggler branches decide: before it, those
//! branches were held by invariants (conservation, typed errors) only. A
//! run that dies is pinned by its typed error.
//!
//! A diff in these literals means the scheduler draws, prices or orders
//! something differently. They are never regenerated for a refactor.

use mrjobs::{jobs, Dataset, JobSpec};
use mrsim::{
    analyze, simulate_with_dataflow, ClusterSpec, CostRates, Dataflow, FaultSpec, JobConfig,
    JobReport, SimError,
};
use optimizer::{optimize, CboOptions};
use profiler::{collect_sample_profile_with_dataflow, profile_from_run, SampleSize};
use pstorm_bench::harness;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        fnv(&mut h, w);
    }
    h
}

fn digest_str(s: &str) -> u64 {
    digest(s.bytes().map(u64::from))
}

fn rate_words(r: &CostRates) -> [u64; 10] {
    [
        r.read_hdfs_ns_per_byte,
        r.write_hdfs_ns_per_byte,
        r.read_local_ns_per_byte,
        r.write_local_ns_per_byte,
        r.network_ns_per_byte,
        r.cpu_ns_per_op,
        r.sort_ns_per_record,
        r.serde_ns_per_byte,
        r.compress_ns_per_byte,
        r.decompress_ns_per_byte,
    ]
    .map(f64::to_bits)
}

/// Every field of a [`JobReport`] except the echoed `config`, in
/// declaration order, tasks in report order.
fn report_digest(rep: &JobReport) -> u64 {
    let mut w = vec![
        digest_str(&rep.job_id),
        digest_str(&rep.dataset),
        rep.runtime_ms.to_bits(),
        rep.maps_done_ms.to_bits(),
        rep.map_tasks.len() as u64,
        rep.reduce_tasks.len() as u64,
    ];
    for t in &rep.map_tasks {
        w.extend([
            u64::from(t.task_id),
            t.start_ms.to_bits(),
            t.end_ms.to_bits(),
            t.phases.len() as u64,
        ]);
        w.extend(
            t.phases
                .iter()
                .flat_map(|(p, ns)| [*p as u64, ns.to_bits()]),
        );
        w.extend([
            t.input_records.to_bits(),
            t.input_bytes.to_bits(),
            t.out_records.to_bits(),
            t.out_bytes.to_bits(),
            t.final_out_records.to_bits(),
            t.final_out_bytes.to_bits(),
            u64::from(t.num_spills),
        ]);
        w.extend(rate_words(&t.observed_rates));
        w.extend([
            t.map_cpu_ops.to_bits(),
            u64::from(t.attempt),
            u64::from(t.speculative),
        ]);
    }
    for t in &rep.reduce_tasks {
        w.extend([
            u64::from(t.task_id),
            t.start_ms.to_bits(),
            t.end_ms.to_bits(),
            t.phases.len() as u64,
        ]);
        w.extend(
            t.phases
                .iter()
                .flat_map(|(p, ns)| [*p as u64, ns.to_bits()]),
        );
        w.extend([
            t.shuffle_bytes.to_bits(),
            t.in_records.to_bits(),
            t.out_records.to_bits(),
            t.out_bytes.to_bits(),
        ]);
        w.extend(rate_words(&t.observed_rates));
        w.extend([t.reduce_ops_per_record.to_bits(), u64::from(t.attempt)]);
    }
    let f = &rep.faults;
    w.extend([
        u64::from(f.scheduled_attempts),
        u64::from(f.successful_attempts),
        u64::from(f.failed_attempts),
        u64::from(f.speculative_kills),
        u64::from(f.speculative_wins),
        f.wasted_ms.to_bits(),
        u64::from(f.nodes_lost),
        u64::from(f.map_tasks_reexecuted),
    ]);
    digest(w)
}

/// A finished run by its report, a dead one by its typed error.
fn outcome_digest(run: &Result<JobReport, SimError>) -> u64 {
    match run {
        Ok(rep) => report_digest(rep),
        Err(e) => digest_str(&format!("{e:?}")),
    }
}

/// On a diff, print the whole computed table as literals so the moved
/// rows can be read off.
fn check<const N: usize>(
    what: &str,
    computed: Vec<(String, [u64; N])>,
    golden: &[(&str, [u64; N])],
) {
    let moved: Vec<&str> = computed
        .iter()
        .enumerate()
        .filter(|(i, (id, got))| {
            golden
                .get(*i)
                .is_none_or(|row| id != row.0 || *got != row.1)
        })
        .map(|(_, (id, _))| id.as_str())
        .collect();
    assert!(
        moved.is_empty() && computed.len() == golden.len(),
        "{what} moved for {moved:?}; computed:\n{}",
        computed
            .iter()
            .map(|(id, got)| {
                let words = got.map(|d| format!("{d:#018x}")).join(", ");
                format!("    ({id:?}, [{words}]),\n")
            })
            .collect::<String>()
    );
}

/// `[sample, full-profile, tuned]` for one submission, seeded as the
/// harness and the daemon seed them.
fn suite_row(spec: &JobSpec, ds: &Dataset, cl: &ClusterSpec) -> [u64; 3] {
    let flow = analyze(spec, ds, cl).unwrap();
    let submitted = JobConfig::submitted(spec);
    let seed = harness::seed_for(spec, ds);

    let sample = collect_sample_profile_with_dataflow(
        spec,
        &flow,
        &ds.name,
        cl,
        &submitted,
        SampleSize::OneTask,
        seed,
    )
    .unwrap();
    let full = simulate_with_dataflow(spec, &flow, &ds.name, cl, &submitted, seed).unwrap();
    let profile = profile_from_run(spec, &flow, &full);
    let rec = optimize(spec, &profile, ds.logical_bytes, cl, &CboOptions::default()).unwrap();
    let tuned = simulate_with_dataflow(spec, &flow, &ds.name, cl, &rec.config, seed ^ 0x47);
    [
        digest_str(&format!("{sample:?}")),
        report_digest(&full),
        outcome_digest(&tuned),
    ]
}

#[test]
fn sample_full_and_tuned_runs_of_the_suite_are_pinned() {
    let cl = harness::cluster();
    assert!(cl.faults.is_inert() && cl.is_uniform_speed());
    let computed = harness::all_submissions()
        .into_iter()
        .map(|s| {
            (
                format!("{}@{}", s.spec.job_id(), s.dataset.name),
                suite_row(&s.spec, &s.dataset, &cl),
            )
        })
        .collect();
    check("suite reports", computed, SUITE);
}

fn straggler_cluster() -> ClusterSpec {
    let mut slow = vec![1.0; 15];
    slow[0] = 4.0;
    slow[7] = 1.5;
    ClusterSpec {
        node_slowdown: slow,
        ..harness::cluster()
    }
}

fn with_faults(base: ClusterSpec, faults: FaultSpec) -> ClusterSpec {
    ClusterSpec { faults, ..base }
}

/// `(label, cluster, configuration, seeds)`; every case runs on each of
/// the four `(job, dataset)` pairs below.
fn fault_cases() -> Vec<(&'static str, ClusterSpec, JobConfig, Vec<u64>)> {
    let cl = harness::cluster();
    let patient = JobConfig {
        max_map_attempts: 12,
        max_reduce_attempts: 12,
        ..JobConfig::default()
    };
    vec![
        (
            "flaky",
            with_faults(cl.clone(), FaultSpec::flaky()),
            JobConfig::default(),
            vec![1, 2, 3, 5, 13],
        ),
        (
            "task-failure-0.3",
            with_faults(
                cl.clone(),
                FaultSpec {
                    task_failure_prob: 0.3,
                    ..FaultSpec::default()
                },
            ),
            JobConfig::default(),
            vec![42, 43],
        ),
        (
            "task-failure-0.3-patient",
            with_faults(
                cl.clone(),
                FaultSpec {
                    task_failure_prob: 0.3,
                    ..FaultSpec::default()
                },
            ),
            patient,
            vec![42, 43],
        ),
        (
            "node-loss-0.08",
            with_faults(
                cl.clone(),
                FaultSpec {
                    node_loss_prob: 0.08,
                    ..FaultSpec::default()
                },
            ),
            JobConfig {
                num_reduce_tasks: 8,
                ..JobConfig::default()
            },
            vec![0, 1, 2, 3, 4, 5, 6, 7],
        ),
        (
            "node-loss-1.0",
            with_faults(
                cl.clone(),
                FaultSpec {
                    node_loss_prob: 1.0,
                    ..FaultSpec::default()
                },
            ),
            JobConfig::default(),
            vec![2],
        ),
        (
            "speculation-only",
            with_faults(
                cl.clone(),
                FaultSpec {
                    speculation: true,
                    ..FaultSpec::default()
                },
            ),
            JobConfig::default(),
            vec![9, 10],
        ),
        (
            "speculation-on-stragglers",
            with_faults(
                straggler_cluster(),
                FaultSpec {
                    speculation: true,
                    ..FaultSpec::default()
                },
            ),
            JobConfig::default(),
            vec![9, 10],
        ),
        (
            "inert-on-stragglers",
            straggler_cluster(),
            JobConfig::default(),
            vec![9, 10],
        ),
        (
            "inert-on-stragglers-zero-noise",
            ClusterSpec {
                heterogeneity: 0.0,
                ..straggler_cluster()
            },
            JobConfig::default(),
            vec![9],
        ),
        (
            "flaky-on-stragglers",
            with_faults(straggler_cluster(), FaultSpec::flaky()),
            JobConfig {
                num_reduce_tasks: 8,
                ..JobConfig::default()
            },
            vec![21, 22, 23],
        ),
    ]
}

fn fault_jobs() -> Vec<(JobSpec, Dataset, Dataflow)> {
    use datagen::corpus;
    let cl = harness::cluster();
    [
        (jobs::word_count(), corpus::random_text_1g()),
        (jobs::word_count(), corpus::wikipedia_35g()),
        (jobs::sort(), corpus::teragen_1g()),
        (jobs::join(), corpus::tpch_1g()),
    ]
    .into_iter()
    .map(|(spec, ds)| {
        let flow = analyze(&spec, &ds, &cl).unwrap();
        (spec, ds, flow)
    })
    .collect()
}

#[test]
fn faulted_and_straggler_runs_are_pinned() {
    let jobs = fault_jobs();
    let mut computed = Vec::new();
    let mut seen = FaultsSeen::default();
    for (label, cl, config, seeds) in fault_cases() {
        for (spec, ds, flow) in &jobs {
            for &seed in &seeds {
                let run = simulate_with_dataflow(spec, flow, &ds.name, &cl, &config, seed);
                seen.note(&run);
                computed.push((
                    format!("{label}/{}@{}/{seed}", spec.job_id(), ds.name),
                    [outcome_digest(&run)],
                ));
            }
        }
    }
    check("fault reports", computed, FAULTS);
    // The table reaches every branch it was built for.
    assert!(seen.retried_map && seen.retried_reduce, "{seen:?}");
    assert!(seen.reexecuted && seen.node_lost, "{seen:?}");
    assert!(seen.backup_won && seen.backup_lost, "{seen:?}");
    assert!(seen.exhausted && seen.cluster_lost, "{seen:?}");
    assert!(seen.armed_without_faults, "{seen:?}");
}

#[derive(Debug, Default)]
struct FaultsSeen {
    retried_map: bool,
    retried_reduce: bool,
    reexecuted: bool,
    node_lost: bool,
    backup_won: bool,
    backup_lost: bool,
    exhausted: bool,
    cluster_lost: bool,
    /// Attempts counted although nothing failed: the inert spec on a
    /// straggler cluster.
    armed_without_faults: bool,
}

impl FaultsSeen {
    fn note(&mut self, run: &Result<JobReport, SimError>) {
        match run {
            Ok(rep) => {
                let f = &rep.faults;
                self.retried_map |= rep
                    .map_tasks
                    .iter()
                    .any(|t| t.attempt > 1 && !t.speculative);
                self.retried_reduce |= rep.reduce_tasks.iter().any(|t| t.attempt > 1);
                self.reexecuted |= f.map_tasks_reexecuted > 0;
                self.node_lost |= f.nodes_lost > 0;
                self.backup_won |= f.speculative_wins > 0;
                self.backup_lost |= f.speculative_kills > f.speculative_wins;
                self.armed_without_faults |=
                    f.scheduled_attempts > 0 && f.scheduled_attempts == f.successful_attempts;
            }
            Err(SimError::TaskAttemptsExhausted { .. }) => self.exhausted = true,
            Err(SimError::ClusterLost { .. }) => self.cluster_lost = true,
            Err(e) => panic!("untyped fault outcome: {e}"),
        }
    }
}

const SUITE: &[(&str, [u64; 3])] = &[
    (
        "word-count@random-text-1g",
        [0xd6bae467bc3a09d1, 0x4c419ff06854b1c6, 0x14d612db91e56762],
    ),
    (
        "word-count@wikipedia-35g",
        [0xed8e50e15058af9e, 0x05c37d9f328f16e4, 0x4458cdffe0f98727],
    ),
    (
        "word-cooccurrence-pairs[window=2]@random-text-1g",
        [0xf3c86d249924b7f2, 0x33b0b3e4e01e2a8c, 0xc66d09b52923b077],
    ),
    (
        "word-cooccurrence-pairs[window=2]@wikipedia-35g",
        [0xef68651c5a36c2fe, 0xcf7cb8ba01670e0a, 0x90f3d2fadd02d70d],
    ),
    (
        "word-cooccurrence-stripes[window=2]@random-text-1g",
        [0x662797612a0cd765, 0xa3792399eeb08441, 0x2a110b28719e4b38],
    ),
    (
        "bigram-relative-frequency@random-text-1g",
        [0xbe2351799eed86df, 0x0b4f84dd544e44a9, 0xe336cfcf175bb56a],
    ),
    (
        "bigram-relative-frequency@wikipedia-35g",
        [0x647ef752e6d25712, 0x5c7309a0504afd54, 0x2ce3eab54b2989c0],
    ),
    (
        "inverted-index@random-docs-1g",
        [0x16decf7bb30873ad, 0x657a81a39f7f5cb7, 0x63d2cfd4992e33be],
    ),
    (
        "inverted-index@wikipedia-docs-35g",
        [0x3d139b0b511dd852, 0x336b6e6bab4be4d0, 0x9e9acbdfe167c935],
    ),
    (
        "grep[pattern=ba]@random-text-1g",
        [0x0d47ddbbf5630bf9, 0xe218fb404bc11c87, 0x4fe5826f2912a627],
    ),
    (
        "grep[pattern=ba]@wikipedia-35g",
        [0xf903459b3c2537aa, 0x9f1b767888d950e9, 0xe6665d0f1559d315],
    ),
    (
        "sort@teragen-1g",
        [0xe931fe03f3aea007, 0x5633755590bf3ec5, 0x4a35d8dab36d6da7],
    ),
    (
        "sort@teragen-35g",
        [0x21f4ef8072871413, 0xa4879ca432446789, 0x133064339c269165],
    ),
    (
        "join@tpch-1g",
        [0x8cb9efd722f16d24, 0xe67ed26d272f6c4f, 0xad3b63a9afc5e394],
    ),
    (
        "join@tpch-35g",
        [0xcf745ce3806bede6, 0x2135e57ed5f16498, 0x1bd26e9c5fad5480],
    ),
    (
        "fim-pass1[min_support=4]@webdocs-1.5g",
        [0xda5d491859c45c0f, 0xa8dd779010aed750, 0x5ce8fdf44a380a7e],
    ),
    (
        "fim-pass2[min_support=4]@webdocs-1.5g",
        [0x9938c4e32204607f, 0x3271cb6bde17323f, 0x2ccbba6e8849a6b7],
    ),
    (
        "fim-pass3@webdocs-rules",
        [0x93549cf48f4bfe41, 0x915d533840973c29, 0xdb728bd65066c655],
    ),
    (
        "cf-user-vectors@ratings-1m",
        [0xbb531305ed3e623c, 0xe99b51092e328c89, 0x2375d7821603db96],
    ),
    (
        "cf-user-vectors@ratings-10m",
        [0xef3ee07705d9fe58, 0x858c79326e30d921, 0x8088a5a8a7650a4d],
    ),
    (
        "cf-item-similarity@user-lists-1m",
        [0x6fd4f6a02cd954ef, 0x6e46515842bf1283, 0x345fd906e8b9e3b4],
    ),
    (
        "cf-item-similarity@user-lists-10m",
        [0x5134f0962254f71b, 0x009e84fe100c45cf, 0x000662f5d373b58f],
    ),
    (
        "cloudburst[seed_len=12]@genome-sample",
        [0xf5a46710288f7a82, 0xbead5ef838a6d77d, 0x2ce0055e0977364c],
    ),
    (
        "cloudburst[seed_len=12]@genome-lakewash",
        [0x802bfa683d6ad4fb, 0xa7515944f1ae8d2a, 0x69f6b137a58dabd0],
    ),
    (
        "pigmix-l1[threshold=7]@pigmix-1g",
        [0x7d84b4e513991b45, 0xfee2c52b26699c53, 0x49191c63553cc771],
    ),
    (
        "pigmix-l1[threshold=7]@pigmix-35g",
        [0xf32277e5cedc12ec, 0x5ac5903cae492db4, 0x914fe09f005b3bab],
    ),
    (
        "pigmix-l2[threshold=14]@pigmix-1g",
        [0xcf95edcaf98df810, 0x7fd36d0583906dbf, 0x09458ef6ce3319f9],
    ),
    (
        "pigmix-l2[threshold=14]@pigmix-35g",
        [0x33e65ddf35b3c86c, 0xfb5eaba2b4cb66dc, 0xa3949ce110295c64],
    ),
    (
        "pigmix-l3[threshold=21]@pigmix-1g",
        [0x576ed3806834bca3, 0x6fa93e5c799f5830, 0xb09d3074581acb43],
    ),
    (
        "pigmix-l3[threshold=21]@pigmix-35g",
        [0x138a33882b132790, 0xf5a962210ed94299, 0xe4f4496fff035f98],
    ),
    (
        "pigmix-l4[threshold=28]@pigmix-1g",
        [0xfe735eb64d3d349d, 0xa516faffc6940e5f, 0x2aefdcca5543dae7],
    ),
    (
        "pigmix-l4[threshold=28]@pigmix-35g",
        [0x86bf20fe7d42f2a4, 0x696134013465fb0b, 0x84b74f13cec296f4],
    ),
    (
        "pigmix-l5[threshold=35]@pigmix-1g",
        [0x67fd241d04e5a9c2, 0xe9f31cc6167c0434, 0xa1c6864b8d6456ac],
    ),
    (
        "pigmix-l5[threshold=35]@pigmix-35g",
        [0xafb4c82468435465, 0xdfc8814ffb602008, 0xd6ebf3556fdbccfb],
    ),
    (
        "pigmix-l6[threshold=42]@pigmix-1g",
        [0x92bcf437db55e8e7, 0x151ae38c27a801ec, 0x0a76305a34c5f3cf],
    ),
    (
        "pigmix-l6[threshold=42]@pigmix-35g",
        [0xae28211022fe936d, 0x88c5652a57bbe474, 0xf96e9ead7af925d8],
    ),
    (
        "pigmix-l7[threshold=49]@pigmix-1g",
        [0x7612a598e4ae7a35, 0xc8e58bb2b69d86df, 0xbac43f716f04b2bc],
    ),
    (
        "pigmix-l7[threshold=49]@pigmix-35g",
        [0xc2f3c85c81019d5b, 0x68fc6fc081d81b27, 0x98a370c039108b6c],
    ),
    (
        "pigmix-l8[threshold=6]@pigmix-1g",
        [0xf3700751fea0b3c3, 0xbc20053f4b2daf4d, 0xd0c6589cb21fccca],
    ),
    (
        "pigmix-l8[threshold=6]@pigmix-35g",
        [0x632da722d0fcfbe6, 0x587275a44b251ea2, 0x422fff17cee2a428],
    ),
    (
        "pigmix-l9[threshold=13]@pigmix-1g",
        [0x8f1e6b05874c059f, 0x6f3b01f007763afd, 0x070ef29786b66335],
    ),
    (
        "pigmix-l9[threshold=13]@pigmix-35g",
        [0xe0a182bf61bc25de, 0xa296ff828480f6cc, 0xb266f991e3431ece],
    ),
    (
        "pigmix-l10[threshold=20]@pigmix-1g",
        [0x419f6ca9171c0367, 0xab54cf1c3ecba421, 0xd9529dd3c0bc2843],
    ),
    (
        "pigmix-l10[threshold=20]@pigmix-35g",
        [0x446e75e91015bef6, 0xcf4fee2c4941a155, 0x0591aa57645b68a4],
    ),
    (
        "pigmix-l11[threshold=27]@pigmix-1g",
        [0xef766d5f74943fa2, 0xd9c4a8e6ac83f3ad, 0x8c2b1e763fa414f2],
    ),
    (
        "pigmix-l11[threshold=27]@pigmix-35g",
        [0x33c9a8335e3db26e, 0xe8e902653e324af4, 0x545fbc036448d2ea],
    ),
    (
        "pigmix-l12[threshold=34]@pigmix-1g",
        [0x03e8b73e8656b068, 0x17194ecca8c6ed24, 0x763d1cafb66be1c3],
    ),
    (
        "pigmix-l12[threshold=34]@pigmix-35g",
        [0x78cfd1ed45cabb2a, 0x9dc43380b45fe6ba, 0x515797a18f0785af],
    ),
    (
        "pigmix-l13[threshold=41]@pigmix-1g",
        [0x606384e64ba3b912, 0xbfb34dfd1f8743b5, 0x54e5bf947bf2780b],
    ),
    (
        "pigmix-l13[threshold=41]@pigmix-35g",
        [0x95f9d07eb76eed39, 0xedacaea4c52391d3, 0x888f0f7aef3cfe97],
    ),
    (
        "pigmix-l14[threshold=48]@pigmix-1g",
        [0x1cdc7a308b2ae629, 0x4c56fc2e48c07e2d, 0x3955fb3967807d77],
    ),
    (
        "pigmix-l14[threshold=48]@pigmix-35g",
        [0x2510cad285ac87a8, 0xbb6643c85829fdf2, 0x8f0099b84b64ab07],
    ),
    (
        "pigmix-l15[threshold=5]@pigmix-1g",
        [0x3ecb0fd49d251763, 0x6fa4f7af445005bb, 0xdd74cf0f58de4cce],
    ),
    (
        "pigmix-l15[threshold=5]@pigmix-35g",
        [0x07727ea9052256e3, 0xd5483f973d334cb2, 0x71a7655811804805],
    ),
    (
        "pigmix-l16[threshold=12]@pigmix-1g",
        [0x5b6348fdd2f19477, 0xe58aec06ea1a8446, 0xe35ed9b2db0e9d68],
    ),
    (
        "pigmix-l16[threshold=12]@pigmix-35g",
        [0x16b205422ed8051c, 0xd753781b3fb39907, 0x85df3a51fb3e65e5],
    ),
    (
        "pigmix-l17[threshold=19]@pigmix-1g",
        [0xf5ad2cf0ed49111b, 0xa0fc8adacf881dbd, 0x3eb0a89948c96e97],
    ),
    (
        "pigmix-l17[threshold=19]@pigmix-35g",
        [0x1654106e68e039a2, 0x3d79d0ef345f12ef, 0xcaaefccc93c547c0],
    ),
];

const FAULTS: &[(&str, [u64; 1])] = &[
    ("flaky/word-count@random-text-1g/1", [0xa825c89a629898cf]),
    ("flaky/word-count@random-text-1g/2", [0x9dce3d6b6f7c4f11]),
    ("flaky/word-count@random-text-1g/3", [0x963e1563f1aee0d2]),
    ("flaky/word-count@random-text-1g/5", [0xc3774c2f645f6c7c]),
    ("flaky/word-count@random-text-1g/13", [0x915343c1871ef7bb]),
    ("flaky/word-count@wikipedia-35g/1", [0x3302cf6f5b0f870c]),
    ("flaky/word-count@wikipedia-35g/2", [0xd813419fbc28387d]),
    ("flaky/word-count@wikipedia-35g/3", [0xdcfe2764338d62d5]),
    ("flaky/word-count@wikipedia-35g/5", [0x888c81abb44809d6]),
    ("flaky/word-count@wikipedia-35g/13", [0xcb55100ac8c411b3]),
    ("flaky/sort@teragen-1g/1", [0x0c038e3de3aafa97]),
    ("flaky/sort@teragen-1g/2", [0x44726746bd43c853]),
    ("flaky/sort@teragen-1g/3", [0x3affc7e3fe921985]),
    ("flaky/sort@teragen-1g/5", [0x3922bf95d7307dfc]),
    ("flaky/sort@teragen-1g/13", [0xb90eb7e51f484d78]),
    ("flaky/join@tpch-1g/1", [0xf269b52bf934a676]),
    ("flaky/join@tpch-1g/2", [0x4050b0719ca16c88]),
    ("flaky/join@tpch-1g/3", [0x6493222f28d1a66b]),
    ("flaky/join@tpch-1g/5", [0x4ad0a3041982887b]),
    ("flaky/join@tpch-1g/13", [0xcaf3daa274990bcd]),
    (
        "task-failure-0.3/word-count@random-text-1g/42",
        [0x5969481aa12e84f9],
    ),
    (
        "task-failure-0.3/word-count@random-text-1g/43",
        [0x4a2c296d73372be6],
    ),
    (
        "task-failure-0.3/word-count@wikipedia-35g/42",
        [0xfdcf7f8426db23c8],
    ),
    (
        "task-failure-0.3/word-count@wikipedia-35g/43",
        [0x069668f401ee696e],
    ),
    ("task-failure-0.3/sort@teragen-1g/42", [0xe5bdd1b3211c3f24]),
    ("task-failure-0.3/sort@teragen-1g/43", [0x2da0b7f7d252c60c]),
    ("task-failure-0.3/join@tpch-1g/42", [0x6bbdd807b61747a1]),
    ("task-failure-0.3/join@tpch-1g/43", [0x18fddc91a29eed24]),
    (
        "task-failure-0.3-patient/word-count@random-text-1g/42",
        [0x5969481aa12e84f9],
    ),
    (
        "task-failure-0.3-patient/word-count@random-text-1g/43",
        [0x4a2c296d73372be6],
    ),
    (
        "task-failure-0.3-patient/word-count@wikipedia-35g/42",
        [0xfcac5fdd3fbb07a5],
    ),
    (
        "task-failure-0.3-patient/word-count@wikipedia-35g/43",
        [0x6c5ef5e0483e8dc4],
    ),
    (
        "task-failure-0.3-patient/sort@teragen-1g/42",
        [0xe5bdd1b3211c3f24],
    ),
    (
        "task-failure-0.3-patient/sort@teragen-1g/43",
        [0x2da0b7f7d252c60c],
    ),
    (
        "task-failure-0.3-patient/join@tpch-1g/42",
        [0x6bbdd807b61747a1],
    ),
    (
        "task-failure-0.3-patient/join@tpch-1g/43",
        [0x18fddc91a29eed24],
    ),
    (
        "node-loss-0.08/word-count@random-text-1g/0",
        [0xffc45bb065d69cf3],
    ),
    (
        "node-loss-0.08/word-count@random-text-1g/1",
        [0xd4e1765258f2682a],
    ),
    (
        "node-loss-0.08/word-count@random-text-1g/2",
        [0xed73ff8be866f4ba],
    ),
    (
        "node-loss-0.08/word-count@random-text-1g/3",
        [0x1173243a720d9fa4],
    ),
    (
        "node-loss-0.08/word-count@random-text-1g/4",
        [0xc7ea8006a50112b5],
    ),
    (
        "node-loss-0.08/word-count@random-text-1g/5",
        [0xd9519ea5ffd3af7f],
    ),
    (
        "node-loss-0.08/word-count@random-text-1g/6",
        [0x1aad7a5f6630a21f],
    ),
    (
        "node-loss-0.08/word-count@random-text-1g/7",
        [0x5f602bc5fac2d4bc],
    ),
    (
        "node-loss-0.08/word-count@wikipedia-35g/0",
        [0x4c90ef9cddd58ec1],
    ),
    (
        "node-loss-0.08/word-count@wikipedia-35g/1",
        [0x2a63ff11ea32d3bc],
    ),
    (
        "node-loss-0.08/word-count@wikipedia-35g/2",
        [0xa5bcd5cd98a2af24],
    ),
    (
        "node-loss-0.08/word-count@wikipedia-35g/3",
        [0xad22cb65f2459fae],
    ),
    (
        "node-loss-0.08/word-count@wikipedia-35g/4",
        [0xb7d1d4dd00fc85b9],
    ),
    (
        "node-loss-0.08/word-count@wikipedia-35g/5",
        [0x2bf2b298ee7537f1],
    ),
    (
        "node-loss-0.08/word-count@wikipedia-35g/6",
        [0xda9994f958f83136],
    ),
    (
        "node-loss-0.08/word-count@wikipedia-35g/7",
        [0x5724d1e145d34752],
    ),
    ("node-loss-0.08/sort@teragen-1g/0", [0x9cd68be17e9323f9]),
    ("node-loss-0.08/sort@teragen-1g/1", [0x3b63f82732087842]),
    ("node-loss-0.08/sort@teragen-1g/2", [0xf76fb3641797a829]),
    ("node-loss-0.08/sort@teragen-1g/3", [0xf20cf8dde2e20ff3]),
    ("node-loss-0.08/sort@teragen-1g/4", [0x4e93d693f99fb4ad]),
    ("node-loss-0.08/sort@teragen-1g/5", [0x06d036c035f9cf36]),
    ("node-loss-0.08/sort@teragen-1g/6", [0x53ca7194dbfb5c7e]),
    ("node-loss-0.08/sort@teragen-1g/7", [0xe6ff9c2c003bf0bb]),
    ("node-loss-0.08/join@tpch-1g/0", [0xdc9e92afecd32b56]),
    ("node-loss-0.08/join@tpch-1g/1", [0x635e1110ad68af47]),
    ("node-loss-0.08/join@tpch-1g/2", [0xf3c6664c3c90e657]),
    ("node-loss-0.08/join@tpch-1g/3", [0x4008eb75910e8c35]),
    ("node-loss-0.08/join@tpch-1g/4", [0xb43510e611ac848e]),
    ("node-loss-0.08/join@tpch-1g/5", [0x7ebe677d21e97def]),
    ("node-loss-0.08/join@tpch-1g/6", [0x4912609af18f8da5]),
    ("node-loss-0.08/join@tpch-1g/7", [0x54382c67c68eb938]),
    (
        "node-loss-1.0/word-count@random-text-1g/2",
        [0x9ebe45bdd30064b0],
    ),
    (
        "node-loss-1.0/word-count@wikipedia-35g/2",
        [0x9ebe45bdd30064b0],
    ),
    ("node-loss-1.0/sort@teragen-1g/2", [0xa3e66c977b5a5d2a]),
    ("node-loss-1.0/join@tpch-1g/2", [0x3dca4627a6a70eb2]),
    (
        "speculation-only/word-count@random-text-1g/9",
        [0x23513ab1cac2b59a],
    ),
    (
        "speculation-only/word-count@random-text-1g/10",
        [0xedc1b5e6582912f3],
    ),
    (
        "speculation-only/word-count@wikipedia-35g/9",
        [0x4466e363f790abdf],
    ),
    (
        "speculation-only/word-count@wikipedia-35g/10",
        [0x12c7baf199bba21d],
    ),
    ("speculation-only/sort@teragen-1g/9", [0xd8d5e76a0deb5a64]),
    ("speculation-only/sort@teragen-1g/10", [0x0d08f87174874d1e]),
    ("speculation-only/join@tpch-1g/9", [0x78d703810c1942e0]),
    ("speculation-only/join@tpch-1g/10", [0x3ed99cc7f5224081]),
    (
        "speculation-on-stragglers/word-count@random-text-1g/9",
        [0xa000d44acb1b4643],
    ),
    (
        "speculation-on-stragglers/word-count@random-text-1g/10",
        [0x9a345ef39c083875],
    ),
    (
        "speculation-on-stragglers/word-count@wikipedia-35g/9",
        [0x1445a3ef8f5cb41f],
    ),
    (
        "speculation-on-stragglers/word-count@wikipedia-35g/10",
        [0xb5efba8048f68e9e],
    ),
    (
        "speculation-on-stragglers/sort@teragen-1g/9",
        [0xf5175a9b72d1cf9f],
    ),
    (
        "speculation-on-stragglers/sort@teragen-1g/10",
        [0x89dd2de2a655c479],
    ),
    (
        "speculation-on-stragglers/join@tpch-1g/9",
        [0xac659828e0edbfda],
    ),
    (
        "speculation-on-stragglers/join@tpch-1g/10",
        [0x18350743d3874209],
    ),
    (
        "inert-on-stragglers/word-count@random-text-1g/9",
        [0x06affa4eb4ba6c29],
    ),
    (
        "inert-on-stragglers/word-count@random-text-1g/10",
        [0x712c61da80cd86dc],
    ),
    (
        "inert-on-stragglers/word-count@wikipedia-35g/9",
        [0x287b79d8796603a7],
    ),
    (
        "inert-on-stragglers/word-count@wikipedia-35g/10",
        [0x007cf3e7e4004a33],
    ),
    (
        "inert-on-stragglers/sort@teragen-1g/9",
        [0xeda8afc6011e75d9],
    ),
    (
        "inert-on-stragglers/sort@teragen-1g/10",
        [0x07273effaec8bd7a],
    ),
    ("inert-on-stragglers/join@tpch-1g/9", [0xe9c101f62c1efdba]),
    ("inert-on-stragglers/join@tpch-1g/10", [0x7ded3dfd3b7624c0]),
    (
        "inert-on-stragglers-zero-noise/word-count@random-text-1g/9",
        [0x5e5e886c75006d15],
    ),
    (
        "inert-on-stragglers-zero-noise/word-count@wikipedia-35g/9",
        [0x11bb1824766853c6],
    ),
    (
        "inert-on-stragglers-zero-noise/sort@teragen-1g/9",
        [0x093fe6d2e1b4fc20],
    ),
    (
        "inert-on-stragglers-zero-noise/join@tpch-1g/9",
        [0x75fc474344c02378],
    ),
    (
        "flaky-on-stragglers/word-count@random-text-1g/21",
        [0xeadb000da6044cf5],
    ),
    (
        "flaky-on-stragglers/word-count@random-text-1g/22",
        [0x1148a81a7892b2d3],
    ),
    (
        "flaky-on-stragglers/word-count@random-text-1g/23",
        [0xc025c212d7cf6f38],
    ),
    (
        "flaky-on-stragglers/word-count@wikipedia-35g/21",
        [0xd517bf31a2518316],
    ),
    (
        "flaky-on-stragglers/word-count@wikipedia-35g/22",
        [0x2aa83916cc5cdec2],
    ),
    (
        "flaky-on-stragglers/word-count@wikipedia-35g/23",
        [0x682bc97c9af23438],
    ),
    (
        "flaky-on-stragglers/sort@teragen-1g/21",
        [0x7143becc4a6db01e],
    ),
    (
        "flaky-on-stragglers/sort@teragen-1g/22",
        [0x21713f7841ce905a],
    ),
    (
        "flaky-on-stragglers/sort@teragen-1g/23",
        [0x0221a993d14208b3],
    ),
    ("flaky-on-stragglers/join@tpch-1g/21", [0xc65f5b0563c0fad8]),
    ("flaky-on-stragglers/join@tpch-1g/22", [0xfb57ad4bd630197f]),
    ("flaky-on-stragglers/join@tpch-1g/23", [0xe7f076fac8aaca50]),
];
