//! The benchmark corpus: the runnable (job, dataset) submissions of
//! Table 6.1, each with its full profile and its untuned baseline.

use mrsim::{ClusterSpec, JobConfig};
use profiler::JobProfile;
use pstorm_bench::harness::{self, Submission};
use staticanalysis::StaticFeatures;

use crate::reference::Clock;

/// One submission of the suite with everything a workload needs.
pub struct Entry {
    pub sub: Submission,
    pub statics: StaticFeatures,
    /// Full profile stored under `<job>@<dataset>` (the harness's SD key).
    pub profile: JobProfile,
    /// Virtual runtime under [`JobConfig::submitted`] — the denominator of
    /// `tuned_speedup_geomean`. It is the profiling run's own runtime, so
    /// it costs no extra simulation.
    pub baseline_ms: f64,
}

impl Entry {
    pub fn job_id(&self) -> String {
        self.sub.spec.job_id()
    }
}

pub struct Corpus {
    pub cluster: ClusterSpec,
    pub entries: Vec<Entry>,
}

/// The submissions that run in 3–55 ms: the op mix of every workload
/// whose subject is the store and the matcher, not the simulator.
fn is_cheap(name: &str) -> bool {
    name.starts_with("pigmix-") || matches!(name, "grep" | "sort" | "join" | "cf-user-vectors")
}

impl Corpus {
    /// Profile every runnable submission, exactly as
    /// `harness::collect_all_profiles` does (same config, same per-combo
    /// seed, same store key), keeping the run's report for the baseline.
    /// `limit` keeps only that many cheap submissions (`--quick`). Also
    /// returns the seconds the profiling took at reference speed.
    pub fn collect(limit: Option<usize>, clock: &mut Clock) -> (Corpus, f64) {
        let cluster = harness::cluster();
        let mut subs = harness::all_submissions();
        if let Some(n) = limit {
            subs.retain(|s| is_cheap(&s.spec.name));
            subs.truncate(n);
        }
        let mut collect_ms = 0.0;
        let entries = subs
            .into_iter()
            .map(|sub| {
                let timed = clock.time(|| {
                    profiler::collect_full_profile(
                        &sub.spec,
                        &sub.dataset,
                        &cluster,
                        &JobConfig::submitted(&sub.spec),
                        harness::seed_for(&sub.spec, &sub.dataset),
                    )
                });
                collect_ms += timed.ms;
                let (mut profile, report) = timed
                    .value
                    .expect("every submission of the suite profiles cleanly");
                profile.job_id = harness::expected_sd(&sub);
                Entry {
                    statics: StaticFeatures::extract(&sub.spec),
                    profile,
                    baseline_ms: report.runtime_ms,
                    sub,
                }
            })
            .collect();
        (Corpus { cluster, entries }, collect_ms / 1e3)
    }

    pub fn profiles(&self) -> Vec<JobProfile> {
        self.entries.iter().map(|e| e.profile.clone()).collect()
    }

    /// Indices of every submission.
    pub fn all(&self) -> Vec<usize> {
        (0..self.entries.len()).collect()
    }

    /// Indices of the cheap submissions.
    pub fn cheap(&self) -> Vec<usize> {
        (0..self.entries.len())
            .filter(|&i| is_cheap(&self.entries[i].sub.spec.name))
            .collect()
    }
}
