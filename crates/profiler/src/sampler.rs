//! The Starfish sampler: collect a profile from a subset of map tasks.
//!
//! PStorM executes *one* map task with profiling on (plus the reducers for
//! its output) to build the dynamic feature vector of a submitted job
//! (§4.1.1). Starfish itself recommends a 10% sample when a full profile
//! is unavailable. Both are implemented here by restricting the measured
//! dataflow to a subset of splits and simulating that smaller job.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mrjobs::{Dataset, JobSpec};
use mrsim::{analyze, simulate_with_dataflow, ClusterSpec, Dataflow, JobConfig, SimError};

use crate::profile::{profile_from_run, JobProfile};

/// How much of the job to sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleSize {
    /// One random map task — PStorM's probe (§3: "PStorM runs only one map
    /// task as a sample").
    OneTask,
    /// A fraction of the map tasks — Starfish's rule-of-thumb is 0.10.
    Fraction(f64),
}

/// The outcome of a sampling run: the collected profile plus the overhead
/// measures of Fig. 4.1.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRun {
    /// The profile aggregated from the sampled tasks.
    pub profile: JobProfile,
    /// Virtual runtime of the sampling run, ms (Fig. 4.1a numerator).
    pub runtime_ms: f64,
    /// Map slots consumed by the sample (Fig. 4.1b).
    pub map_slots_used: u32,
}

/// Collect a full execution profile by running the whole job with
/// profiling on. Returns the profile and the run's report.
pub fn collect_full_profile(
    spec: &JobSpec,
    dataset: &Dataset,
    cluster: &ClusterSpec,
    config: &JobConfig,
    seed: u64,
) -> Result<(JobProfile, mrsim::JobReport), SimError> {
    let flow = analyze(spec, dataset, cluster)?;
    collect_full_profile_with_dataflow(spec, &flow, &dataset.name, cluster, config, seed)
}

/// [`collect_full_profile`] from a pre-measured dataflow. The dataflow
/// depends on neither configuration nor seed, so a caller that retries
/// under other seeds measures once and calls this per attempt.
pub fn collect_full_profile_with_dataflow(
    spec: &JobSpec,
    flow: &Dataflow,
    dataset_name: &str,
    cluster: &ClusterSpec,
    config: &JobConfig,
    seed: u64,
) -> Result<(JobProfile, mrsim::JobReport), SimError> {
    let report = simulate_with_dataflow(spec, flow, dataset_name, cluster, config, seed)?;
    let profile = profile_from_run(spec, flow, &report);
    Ok((profile, report))
}

/// Collect a sample profile by executing a subset of the job's map tasks
/// (plus reducers over their output).
pub fn collect_sample_profile(
    spec: &JobSpec,
    dataset: &Dataset,
    cluster: &ClusterSpec,
    config: &JobConfig,
    size: SampleSize,
    seed: u64,
) -> Result<SampleRun, SimError> {
    let flow = analyze(spec, dataset, cluster)?;
    collect_sample_profile_with_dataflow(spec, &flow, &dataset.name, cluster, config, size, seed)
}

/// [`collect_sample_profile`] from the pre-measured dataflow of the whole
/// job; which tasks are sampled still follows from `seed`.
pub fn collect_sample_profile_with_dataflow(
    spec: &JobSpec,
    flow: &Dataflow,
    dataset_name: &str,
    cluster: &ClusterSpec,
    config: &JobConfig,
    size: SampleSize,
    seed: u64,
) -> Result<SampleRun, SimError> {
    let sampled = restrict_dataflow(flow, size, seed);
    let map_slots_used = sampled.num_map_tasks;
    let report =
        simulate_with_dataflow(spec, &sampled, dataset_name, cluster, config, seed ^ 0x5a17)?;
    let profile = profile_from_run(spec, &sampled, &report);
    Ok(SampleRun {
        profile,
        runtime_ms: report.runtime_ms,
        map_slots_used,
    })
}

/// Restrict a measured dataflow to a sampled subset of map tasks, scaling
/// the reduce side to the sampled share of intermediate data.
fn restrict_dataflow(flow: &Dataflow, size: SampleSize, seed: u64) -> Dataflow {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbadc_0ffe);
    let total_tasks = flow.num_map_tasks.max(1);
    let sampled_tasks = match size {
        SampleSize::OneTask => 1u32,
        SampleSize::Fraction(f) => ((total_tasks as f64 * f).ceil() as u32).clamp(1, total_tasks),
    };
    // Pick the chunks the sampled tasks will observe, at random.
    let per_task: Vec<_> = (0..sampled_tasks)
        .map(|_| flow.per_task[rng.gen_range(0..flow.per_task.len())])
        .collect();

    let share = sampled_tasks as f64 / total_tasks as f64;
    let reduce = flow.reduce.as_ref().map(|r| {
        let mut r = r.clone();
        r.in_records *= share;
        r.in_bytes *= share;
        r.out_records *= share;
        r.out_bytes *= share;
        r.max_group_bytes *= share;
        for (_, w) in &mut r.key_weights {
            *w *= share;
        }
        r.uniform_weight *= share;
        r
    });
    Dataflow {
        num_map_tasks: sampled_tasks,
        per_task,
        combine: flow.combine,
        reduce,
        input_bytes: flow.input_bytes * share,
        avg_intermediate_record_bytes: flow.avg_intermediate_record_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
    use mrjobs::jobs;

    fn cl() -> ClusterSpec {
        ClusterSpec::ec2_c1_medium_16()
    }

    #[test]
    fn one_task_sample_uses_one_slot() {
        let ds = corpus::wikipedia_35g();
        let run = collect_sample_profile(
            &jobs::word_count(),
            &ds,
            &cl(),
            &JobConfig::default(),
            SampleSize::OneTask,
            1,
        )
        .unwrap();
        assert_eq!(run.map_slots_used, 1);
        assert_eq!(run.profile.map.tasks_observed, 1);
    }

    #[test]
    fn ten_percent_sample_of_35g_uses_56_slots() {
        let ds = corpus::wikipedia_35g();
        let run = collect_sample_profile(
            &jobs::word_count(),
            &ds,
            &cl(),
            &JobConfig::default(),
            SampleSize::Fraction(0.10),
            1,
        )
        .unwrap();
        // 560 splits * 10% = 56, the paper's "57 map slots" on 571 splits.
        assert_eq!(run.map_slots_used, 56);
    }

    #[test]
    fn one_task_sampling_is_cheaper_than_ten_percent() {
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_cooccurrence_pairs(2);
        let one = collect_sample_profile(
            &spec,
            &ds,
            &cl(),
            &JobConfig::default(),
            SampleSize::OneTask,
            1,
        )
        .unwrap();
        let ten = collect_sample_profile(
            &spec,
            &ds,
            &cl(),
            &JobConfig::default(),
            SampleSize::Fraction(0.10),
            1,
        )
        .unwrap();
        assert!(one.runtime_ms < ten.runtime_ms);
    }

    #[test]
    fn sample_selectivities_track_full_profile() {
        // The core PStorM premise: dataflow features have low variance
        // across samples (§4.1.1).
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_count();
        let (full, _) = collect_full_profile(&spec, &ds, &cl(), &JobConfig::default(), 42).unwrap();
        for seed in 0..5 {
            let run = collect_sample_profile(
                &spec,
                &ds,
                &cl(),
                &JobConfig::default(),
                SampleSize::OneTask,
                seed,
            )
            .unwrap();
            let rel = (run.profile.map.size_selectivity - full.map.size_selectivity).abs()
                / full.map.size_selectivity;
            assert!(rel < 0.15, "seed {seed}: rel err {rel}");
        }
    }

    #[test]
    fn sample_cost_factors_vary_more_than_selectivities() {
        // ... while cost factors have high variance (§4.1.1).
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_count();
        let mut sels = vec![];
        let mut cpus = vec![];
        for seed in 0..8 {
            let run = collect_sample_profile(
                &spec,
                &ds,
                &cl(),
                &JobConfig::default(),
                SampleSize::OneTask,
                seed,
            )
            .unwrap();
            sels.push(run.profile.map.size_selectivity);
            cpus.push(run.profile.map.cost_factors.map_cpu_cost);
        }
        let cv = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
            var.sqrt() / mean
        };
        assert!(
            cv(&cpus) > 2.0 * cv(&sels),
            "cpu cv {} vs sel cv {}",
            cv(&cpus),
            cv(&sels)
        );
    }
}
