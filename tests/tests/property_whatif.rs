//! A what-if prediction is the scheduler's runtime (DESIGN.md §8).
//!
//! `WhatIfPlan::predict` goes through `mrsim::simulate_runtime_ms`, the
//! runtime-only entry that gets rewritten for speed because the CBO calls
//! it 297 times per submission. Its contract is bit-identity with the one
//! `Scheduler`: `simulate_with_dataflow` on the dataflow and rates the
//! profile implies, on the home cluster with heterogeneity, faults and
//! stragglers cleared. `whatif`'s own unit test spot-checks three
//! configurations; this suite checks the contract over the search space
//! the CBO actually samples — for every suite submission, against its own
//! profile and two foreign ones at other input sizes (other wave counts),
//! over uniform and incumbent-centred configurations, valid and invalid.

use mrsim::{simulate_with_dataflow, ClusterSpec, Dataflow, FaultSpec, JobConfig, SimError};
use optimizer::ConfigSpace;
use profiler::JobProfile;
use proptest::test_runner::TestRng;
use pstorm_bench::harness;
use whatif::{dataflow_from_profile, rates_from_profile, WhatIfPlan};

/// Seeded configurations per (submission, profile) pair.
const CONFIGS_PER_PLAN: usize = 200;

/// The radii of the CBO's three exploitation rounds (0.5 × 0.4ⁿ).
const RADII: [f64; 3] = [0.2, 0.08, 0.032];

/// The oracle side of one plan: what `WhatIfPlan::new` derives from
/// `(profile, input size, cluster)`, built from the public pieces.
struct Oracle {
    flow: Dataflow,
    ideal: ClusterSpec,
}

impl Oracle {
    fn new(profile: &JobProfile, input_bytes: u64, cluster: &ClusterSpec) -> Self {
        Oracle {
            flow: dataflow_from_profile(profile, input_bytes, cluster),
            ideal: ClusterSpec {
                heterogeneity: 0.0,
                faults: FaultSpec::default(),
                node_slowdown: Vec::new(),
                rates: rates_from_profile(profile, &cluster.rates),
                ..cluster.clone()
            },
        }
    }

    fn runtime_ms(&self, spec: &mrjobs::JobSpec, config: &JobConfig) -> Result<f64, SimError> {
        let report = simulate_with_dataflow(spec, &self.flow, "what-if", &self.ideal, config, 0)?;
        Ok(report.runtime_ms)
    }
}

/// Break one field the way a hand-written submission could; which field
/// rotates with `n`.
fn invalidated(mut cfg: JobConfig, n: usize) -> JobConfig {
    match n % 4 {
        0 => cfg.num_reduce_tasks = 0,
        1 => cfg.io_sort_factor = 1,
        2 => cfg.reduce_slowstart = 1.5,
        _ => cfg.io_sort_record_percent = 0.5,
    }
    cfg
}

/// `CONFIGS_PER_PLAN` configurations drawn the way the CBO draws them:
/// alternately a uniform point and a point near the last uniform one, at
/// the radii of the exploitation rounds. Every 20th is made invalid.
fn configs(space: &ConfigSpace, rng: &mut TestRng) -> Vec<JobConfig> {
    let mut center = space.sample_uniform(rng);
    (0..CONFIGS_PER_PLAN)
        .map(|n| {
            let x = if n % 2 == 0 {
                center = space.sample_uniform(rng);
                center
            } else {
                space.sample_near(rng, &center, RADII[(n / 2) % RADII.len()])
            };
            let cfg = space.decode(&x);
            if n % 20 == 19 {
                invalidated(cfg, n / 20)
            } else {
                cfg
            }
        })
        .collect()
}

#[test]
fn prediction_is_the_schedulers_runtime_over_the_sampled_space() {
    let cluster = harness::cluster();
    let space = ConfigSpace::for_cluster(&cluster);
    let subs = harness::all_submissions();
    let profiles: Vec<JobProfile> = subs
        .iter()
        .map(|s| {
            harness::profiled_run(&s.spec, &s.dataset, s.size, &cluster)
                .unwrap()
                .profile
        })
        .collect();
    let n = subs.len();
    let (mut checked, mut errors) = (0usize, 0usize);
    let mut map_tasks_seen = std::collections::BTreeSet::new();

    for (i, sub) in subs.iter().enumerate() {
        let own_bytes = sub.dataset.logical_bytes;
        // Own profile at the submitted size; the next submission's profile
        // (the other size class of the same job, for two-dataset jobs) at
        // *its* size; a distant job's profile at a seeded number of splits
        // from under one wave to over twenty.
        let far = (i + n / 2) % n;
        let mut rng = TestRng::from_seed(harness::seed_for(&sub.spec, &sub.dataset));
        let splits = 1 + (space.sample_uniform(&mut rng)[0] * 700.0) as u64;
        let plans = [
            (i, own_bytes),
            ((i + 1) % n, subs[(i + 1) % n].dataset.logical_bytes),
            (far, splits * cluster.block_bytes() - 1),
        ];
        for (p, input_bytes) in plans {
            let plan = WhatIfPlan::new(&sub.spec, &profiles[p], input_bytes, &cluster);
            let oracle = Oracle::new(&profiles[p], input_bytes, &cluster);
            map_tasks_seen.insert(oracle.flow.num_map_tasks);
            let extra = [JobConfig::submitted(&sub.spec), JobConfig::default()];
            for cfg in configs(&space, &mut rng).iter().chain(&extra) {
                let context = || {
                    format!(
                        "{}@{} with profile {} at {input_bytes} bytes, {cfg:?}",
                        sub.spec.job_id(),
                        sub.dataset.name,
                        profiles[p].job_id
                    )
                };
                match (plan.predict(cfg), oracle.runtime_ms(&sub.spec, cfg)) {
                    (Ok(fast), Ok(full)) => {
                        assert_eq!(
                            fast.to_bits(),
                            full.to_bits(),
                            "{fast} vs {full}: {}",
                            context()
                        )
                    }
                    (Err(fast), Err(full)) => {
                        assert_eq!(fast, full, "{}", context());
                        errors += 1;
                    }
                    (fast, full) => panic!("{fast:?} vs {full:?}: {}", context()),
                }
                checked += 1;
            }
        }
    }

    assert_eq!(n, 58);
    assert_eq!(checked, n * 3 * (CONFIGS_PER_PLAN + 2));
    assert_eq!(errors, n * 3 * (CONFIGS_PER_PLAN / 20));
    // The sweep saw single-wave, exact-multiple and many-wave map phases.
    let slots = cluster.map_slots();
    assert!(map_tasks_seen.iter().any(|m| *m < slots));
    assert!(map_tasks_seen.iter().any(|m| *m > 20 * slots));
    assert!(map_tasks_seen.len() >= 40, "{map_tasks_seen:?}");
}
