//! The PStorM daemon: the end-to-end workflow of Chapter 3.
//!
//! For every submitted job:
//! 1. run **one** sampled map task (plus reducers over its output) with the
//!    profiler on, building the dynamic feature vector;
//! 2. probe the profile store with the multi-stage matcher;
//! 3. on a match, hand the profile to the Starfish CBO and run the job
//!    with the recommended configuration, profiler **off**;
//! 4. on *No Match Found*, run the job with its submitted configuration
//!    and the profiler **on**, and store the collected profile for future
//!    submissions.
//!
//! On a faulty cluster ([`mrsim::FaultSpec`]) the daemon degrades
//! gracefully instead of surfacing raw fault errors: the sampling probe is
//! retried with capped exponential backoff (simulated time), failed tuned
//! runs fall back to the rule-based optimizer's settings, then to the
//! submitted configuration, and a last-resort rung re-runs with lenient
//! task attempt caps — every rung reported through
//! [`SubmissionOutcome::Degraded`].
//!
//! A `PStorM` holds no state of its own — everything a submission leaves
//! behind is in the store — so the concurrent, multi-tenant front-end,
//! [`crate::service::TuningService`] (DESIGN.md §14), builds one per
//! submission over the tenant's view of the store.

use std::path::Path;

use cfstore::{RecoveryReport, StoreError};
use mrjobs::{Dataset, JobSpec};
use mrsim::{
    analyze, simulate, simulate_with_dataflow, ClusterSpec, Dataflow, JobConfig, JobReport,
    SimError,
};
use optimizer::{optimize_traced, recommend, CboOptions};
use profiler::{
    collect_full_profile_with_dataflow, collect_sample_profile_with_dataflow, JobProfile,
    SampleSize,
};
use staticanalysis::StaticFeatures;

use crate::matcher::{match_profile, MatchFailure, MatchResult, MatcherConfig, SubmittedJob};
use crate::store::{ProfileStore, ProfileStoreError};

/// Deterministic virtual cost of replaying one WAL record during
/// recovery (charged to the obs clock, like every other simulated cost).
const RECOVERY_MS_PER_RECORD: f64 = 0.002;
/// Deterministic virtual cost of loading + checksum-verifying one
/// segment file.
const RECOVERY_MS_PER_SEGMENT: f64 = 0.05;

/// Errors surfaced by the daemon.
#[derive(Debug)]
pub enum DaemonError {
    Store(ProfileStoreError),
    Sim(SimError),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Context only; the full cause chain stays reachable through
        // `Error::source()` instead of being flattened into this string.
        match self {
            DaemonError::Store(e) => write!(f, "profile store operation failed: {e}"),
            DaemonError::Sim(e) => write!(f, "job simulation failed: {e}"),
        }
    }
}
impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaemonError::Store(e) => Some(e),
            DaemonError::Sim(e) => Some(e),
        }
    }
}
impl From<ProfileStoreError> for DaemonError {
    fn from(e: ProfileStoreError) -> Self {
        DaemonError::Store(e)
    }
}
impl From<SimError> for DaemonError {
    fn from(e: SimError) -> Self {
        DaemonError::Sim(e)
    }
}

/// The daemon's degradation ladder settings (all retries and backoff are
/// in *simulated* time — the discrete-event clock, not wall clock).
#[derive(Debug, Clone, Copy)]
pub struct DegradationPolicy {
    /// Extra tries of the 1-task sampling probe after the first failure.
    pub sample_retries: u32,
    /// Simulated backoff before sampling retry `i`:
    /// `backoff_base_ms * 2^i`, charged to the submission's sampling cost.
    pub backoff_base_ms: f64,
    /// Extra seeds tried when a production run dies to an injected fault
    /// before the ladder moves to its next rung.
    pub run_retries: u32,
    /// Task attempt caps used by the last-resort rung: generous enough
    /// that only a pathologically hostile cluster still fails.
    pub lenient_attempt_cap: u32,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            sample_retries: 3,
            backoff_base_ms: 1_000.0,
            run_retries: 2,
            lenient_attempt_cap: 30,
        }
    }
}

/// How a submission was served.
// One value per submission; the size spread between variants is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SubmissionOutcome {
    /// A matching profile was found; the job ran with CBO-tuned settings.
    Tuned {
        matched: MatchResult,
        tuned_config: JobConfig,
        predicted_ms: f64,
    },
    /// No match; the job ran with its submitted configuration while being
    /// profiled, and the collected profile was stored.
    ProfiledAndStored { failure: MatchFailure },
    /// Cluster faults forced the daemon down its degradation ladder; the
    /// job still ran (see [`SubmissionReport::run`]) with `config`, but
    /// without the full tune-from-matched-profile path.
    Degraded {
        /// The configuration the production run finally used.
        config: JobConfig,
        /// Human-readable account of which rung served the run and why.
        reason: String,
    },
}

/// The full record of one submission.
#[derive(Debug)]
pub struct SubmissionReport {
    pub job_id: String,
    pub outcome: SubmissionOutcome,
    /// The production run of the job.
    pub run: JobReport,
    /// Virtual time spent collecting the 1-task sample.
    pub sampling_ms: f64,
}

/// The PStorM daemon.
pub struct PStorM {
    pub store: ProfileStore,
    pub cluster: ClusterSpec,
    pub matcher: MatcherConfig,
    pub cbo: CboOptions,
    pub policy: DegradationPolicy,
    /// Observability registry; disabled by default. Use
    /// [`PStorM::set_obs`] so the store shares the same trace.
    obs: obs::Registry,
}

/// Seed used for retry `i` of a fault-killed run. The simulator is fully
/// deterministic per seed, so re-running with the *same* seed would hit
/// the exact same injected faults; each retry must move to a fresh chaos
/// stream.
fn retry_seed(base: u64, i: u32) -> u64 {
    base.wrapping_add(u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

impl PStorM {
    /// A daemon on the paper's cluster with default thresholds.
    pub fn new() -> Result<Self, ProfileStoreError> {
        Ok(Self::with_store(
            ProfileStore::new()?,
            ClusterSpec::ec2_c1_medium_16(),
        ))
    }

    /// A daemon over an existing store (e.g. a
    /// [`ProfileStore::tenant_view`]) and cluster, with default matcher,
    /// CBO, and degradation settings. The public fields can be adjusted
    /// afterwards.
    pub fn with_store(store: ProfileStore, cluster: ClusterSpec) -> Self {
        PStorM {
            store,
            cluster,
            matcher: MatcherConfig::default(),
            cbo: CboOptions::default(),
            policy: DegradationPolicy::default(),
            obs: obs::Registry::disabled(),
        }
    }

    /// Start a daemon over a durable store directory, running crash
    /// recovery first. A torn WAL tail (the fingerprint of a crash) is
    /// truncated and reported, not an error — see the returned
    /// [`RecoveryReport`].
    pub fn reopen(dir: &Path) -> Result<(Self, RecoveryReport), ProfileStoreError> {
        Self::reopen_traced(dir, obs::Registry::disabled())
    }

    /// [`Self::reopen`] recording `recovery.*` counters, events, and a
    /// `recovery.reopen` span into `reg`, and attaching `reg` to the
    /// daemon. Recovery's virtual time is a deterministic function of the
    /// replayed work (per-record and per-segment constants), so
    /// fixed-seed traces stay byte-identical across machines
    /// (DESIGN.md §11).
    pub fn reopen_traced(
        dir: &Path,
        reg: obs::Registry,
    ) -> Result<(Self, RecoveryReport), ProfileStoreError> {
        let (store, report) = {
            let span = reg.span("recovery.reopen");
            let (store, report) = ProfileStore::reopen(dir)?;
            let virtual_ms = report.records_replayed as f64 * RECOVERY_MS_PER_RECORD
                + report.segments_loaded as f64 * RECOVERY_MS_PER_SEGMENT;
            reg.advance_ms(virtual_ms);
            reg.incr("recovery.segments_loaded", report.segments_loaded);
            reg.incr("recovery.frames_replayed", report.frames_replayed);
            reg.incr("recovery.records_replayed", report.records_replayed);
            reg.incr("recovery.wal_bytes_valid", report.wal_bytes_valid);
            reg.incr("recovery.wal_bytes_truncated", report.wal_bytes_dropped);
            if let Some(t) = &report.truncation {
                reg.event(
                    "recovery.truncated",
                    &[
                        ("reason", t.to_string().into()),
                        ("offset", t.offset().into()),
                    ],
                );
            }
            span.attr("records_replayed", report.records_replayed);
            span.attr("segments_loaded", report.segments_loaded);
            span.attr("wal_bytes_truncated", report.wal_bytes_dropped);
            span.attr("recovery_ms", virtual_ms);
            (store, report)
        };
        let mut daemon = Self::with_store(store, ClusterSpec::ec2_c1_medium_16());
        daemon.set_obs(reg);
        Ok((daemon, report))
    }

    /// Record every subsystem — daemon lifecycle, profile store, matcher,
    /// CBO search, and simulated runs — into clones of `reg`, producing
    /// one coherent per-submission trace on the simulator's virtual clock
    /// (DESIGN.md §10). Pass [`obs::Registry::disabled`] to turn tracing
    /// back off.
    pub fn set_obs(&mut self, reg: obs::Registry) {
        self.store.set_obs(reg.clone());
        self.obs = reg;
    }

    /// The registry submissions are recorded into.
    pub fn obs(&self) -> &obs::Registry {
        &self.obs
    }

    /// Run a full topology change on a sharded backing store while the
    /// daemon keeps serving (DESIGN.md §15). Errors on single-store
    /// backends — open with [`ProfileStore::reopen_sharded`] first.
    pub fn reshard(
        &self,
        plan: cfstore::Topology,
    ) -> Result<cfstore::ReshardStatus, ProfileStoreError> {
        self.store.reshard(plan)
    }

    /// Pre-load a full profile (e.g. from a prior profiling run).
    pub fn load_profile(
        &self,
        statics: &StaticFeatures,
        profile: &JobProfile,
    ) -> Result<(), ProfileStoreError> {
        self.store.put_profile(statics, profile)
    }

    /// Handle one job submission end to end.
    ///
    /// On a faulty cluster this never leaks a raw fault error while any
    /// degradation rung can still serve the job; only deterministic
    /// failures (bad config, UDF bugs, OOM under the user's own settings)
    /// and pathologically hostile clusters return `Err`.
    ///
    /// # Examples
    ///
    /// The first sighting of a job profiles and stores it; resubmitting
    /// the same job matches the stored profile and runs CBO-tuned:
    ///
    /// ```
    /// use pstorm::daemon::{PStorM, SubmissionOutcome};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let daemon = PStorM::new()?;
    /// let spec = mrjobs::jobs::word_count();
    /// let ds = datagen::corpus::random_text_1g();
    ///
    /// let first = daemon.submit(&spec, &ds, 1)?;
    /// assert!(matches!(
    ///     first.outcome,
    ///     SubmissionOutcome::ProfiledAndStored { .. }
    /// ));
    ///
    /// let second = daemon.submit(&spec, &ds, 2)?;
    /// assert!(matches!(second.outcome, SubmissionOutcome::Tuned { .. }));
    /// # Ok(())
    /// # }
    /// ```
    pub fn submit(
        &self,
        spec: &JobSpec,
        dataset: &Dataset,
        seed: u64,
    ) -> Result<SubmissionReport, DaemonError> {
        let span = self.obs.span("daemon.submit");
        span.attr("job_id", spec.job_id());
        span.attr("dataset", dataset.name.as_str());
        span.attr("seed", seed);
        let report = self.serve(spec, dataset, seed)?;
        span.attr(
            "outcome",
            match report.outcome {
                SubmissionOutcome::Tuned { .. } => "tuned",
                SubmissionOutcome::ProfiledAndStored { .. } => "profiled_and_stored",
                SubmissionOutcome::Degraded { .. } => "degraded",
            },
        );
        Ok(report)
    }

    /// The workflow under [`Self::submit`]'s span: steps 1–4 of the module
    /// docs.
    fn serve(
        &self,
        spec: &JobSpec,
        dataset: &Dataset,
        seed: u64,
    ) -> Result<SubmissionReport, DaemonError> {
        let reg = &self.obs;
        let submitted_config = JobConfig::submitted(spec);

        // Step 1: the 1-task probe, retried with capped exponential
        // backoff (simulated time) when an injected fault kills it.
        let mut sampling_ms = 0.0;
        let mut sample = None;
        let mut sample_fault: Option<SimError> = None;
        {
            let sample_span = reg.span("daemon.sample");
            // Which task is probed depends on the attempt's seed; what the
            // job does to its data does not, so it is measured once.
            let flow = analyze(spec, dataset, &self.cluster)?;
            let mut attempts = 0u32;
            for i in 0..=self.policy.sample_retries {
                attempts = i + 1;
                if i > 0 {
                    let backoff = self.policy.backoff_base_ms * f64::from(1u32 << (i - 1).min(16));
                    sampling_ms += backoff;
                    reg.event(
                        "daemon.sample.retry",
                        &[("attempt", i.into()), ("backoff_ms", backoff.into())],
                    );
                    reg.advance_ms(backoff);
                }
                match collect_sample_profile_with_dataflow(
                    spec,
                    &flow,
                    &dataset.name,
                    &self.cluster,
                    &submitted_config,
                    SampleSize::OneTask,
                    retry_seed(seed, i),
                ) {
                    Ok(s) => {
                        sampling_ms += s.runtime_ms;
                        reg.advance_ms(s.runtime_ms);
                        sample = Some(s);
                        break;
                    }
                    Err(e) if e.is_fault() => sample_fault = Some(e),
                    Err(e) => return Err(e.into()),
                }
            }
            sample_span.attr("attempts", attempts);
            sample_span.attr("sampling_ms", sampling_ms);
            sample_span.attr("ok", sample.is_some());
        }
        let Some(sample) = sample else {
            // Rung 1 exhausted: no dynamic features, so matching is off
            // the table. Run the job anyway, un-tuned.
            let fault = sample_fault.expect("sampling loop ran at least once");
            let why = format!(
                "sampling probe failed {} times (last: {fault}); skipped matching",
                self.policy.sample_retries + 1
            );
            return self.serve_degraded(spec, dataset, None, seed, sampling_ms, &why);
        };
        let q = SubmittedJob {
            spec: spec.clone(),
            statics: StaticFeatures::extract(spec),
            sample: sample.profile,
            input_bytes: dataset.logical_bytes,
        };

        // Step 2: probe the store.
        match match_profile(&self.store, &q, &self.matcher)? {
            Ok(matched) => {
                // Step 3: CBO with the matched profile; run tuned.
                let rec = optimize_traced(
                    spec,
                    &matched.profile,
                    dataset.logical_bytes,
                    &self.cluster,
                    &self.cbo,
                    reg,
                )?;
                match simulate(spec, dataset, &self.cluster, &rec.config, seed ^ 0x47) {
                    Ok(run) => {
                        mrsim::trace::record_report(reg, &run);
                        reg.incr("daemon.tuned", 1);
                        Ok(SubmissionReport {
                            job_id: spec.job_id(),
                            outcome: SubmissionOutcome::Tuned {
                                matched,
                                tuned_config: rec.config,
                                predicted_ms: rec.predicted_ms,
                            },
                            run,
                            sampling_ms,
                        })
                    }
                    // The tuned run died. OOM here means the CBO's settings
                    // (not the user's) were too aggressive for this profile,
                    // so it also falls down the ladder rather than failing
                    // the submission.
                    Err(e) if e.is_fault() || matches!(e, SimError::OutOfMemory { .. }) => self
                        .serve_degraded(
                            spec,
                            dataset,
                            Some(&rec.config),
                            seed,
                            sampling_ms,
                            &format!("tuned run failed ({e})"),
                        ),
                    Err(e) => Err(e.into()),
                }
            }
            Err(failure) => {
                // Step 4: run with profiling on; store the profile. A
                // faulted-but-finished run is still stored — just with
                // partial confidence, which the matcher compensates for.
                let mut profiled = None;
                let mut last_fault: Option<SimError> = None;
                let flow = analyze(spec, dataset, &self.cluster)?;
                for i in 0..=self.policy.run_retries {
                    match collect_full_profile_with_dataflow(
                        spec,
                        &flow,
                        &dataset.name,
                        &self.cluster,
                        &submitted_config,
                        retry_seed(seed ^ 0x48, i),
                    ) {
                        Ok(pr) => {
                            profiled = Some(pr);
                            break;
                        }
                        Err(e) if e.is_fault() => {
                            reg.event(
                                "daemon.profile.retry",
                                &[("attempt", i.into()), ("fault", e.to_string().into())],
                            );
                            last_fault = Some(e);
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                let Some((profile, run)) = profiled else {
                    // Profiling kept faulting: serve the job without
                    // storing a (nonexistent) profile.
                    let fault = last_fault.expect("profiling loop ran at least once");
                    let why =
                        format!("profiling run kept faulting (last: {fault}); no profile stored");
                    return self.serve_degraded(spec, dataset, None, seed, sampling_ms, &why);
                };
                mrsim::trace::record_report(reg, &run);
                let outcome = match self.store.put_profile(&q.statics, &profile) {
                    Ok(()) => {
                        reg.incr("daemon.profiled", 1);
                        SubmissionOutcome::ProfiledAndStored { failure }
                    }
                    // A crashed/unreachable store must not fail a job that
                    // already ran to completion: serve the run, report the
                    // lost persistence as a degradation (no ladder — the
                    // run exists). Matching keeps working from the
                    // in-memory state; the profile is re-collected on the
                    // next submission after a reopen.
                    Err(ProfileStoreError::Store(
                        e @ (StoreError::Crashed | StoreError::Io(_)),
                    )) => {
                        reg.incr("daemon.degraded", 1);
                        reg.event(
                            "daemon.store_unavailable",
                            &[("error", e.to_string().into())],
                        );
                        SubmissionOutcome::Degraded {
                            config: submitted_config,
                            reason: format!(
                                "job served, but the profile store rejected the \
                                 collected profile ({e}); nothing persisted"
                            ),
                        }
                    }
                    Err(e) => return Err(e.into()),
                };
                Ok(SubmissionReport {
                    job_id: spec.job_id(),
                    outcome,
                    run,
                    sampling_ms,
                })
            }
        }
    }

    /// Serve a job **without** sampling, matching, or tuning: go straight
    /// down the degradation ladder from the rule-based-optimizer rung.
    /// This is the load-shedding path of
    /// [`crate::service::TuningService`] — under admission-control
    /// pressure a submission still runs and still resolves as
    /// [`SubmissionOutcome::Degraded`] (never an overload error), it just
    /// skips the store-touching feedback loop.
    pub fn submit_untuned(
        &self,
        spec: &JobSpec,
        dataset: &Dataset,
        seed: u64,
        why: &str,
    ) -> Result<SubmissionReport, DaemonError> {
        self.serve_degraded(spec, dataset, None, seed, 0.0, why)
    }

    /// The degraded exit: walk the run ladder until some configuration
    /// survives the cluster — CBO-tuned settings (if any) →
    /// `optimizer::rbo` settings → the submitted configuration → the
    /// submitted configuration with lenient task attempt caps — and report
    /// the run as `Degraded` for the reason `"{why}; {rung}"`. Each rung
    /// gets `run_retries + 1` seeds; only injected faults (and, on
    /// optimizer rungs, optimizer-induced OOM) fall through to the next
    /// rung — deterministic errors return `Err` immediately.
    fn serve_degraded(
        &self,
        spec: &JobSpec,
        dataset: &Dataset,
        tuned: Option<&JobConfig>,
        seed: u64,
        sampling_ms: f64,
        why: &str,
    ) -> Result<SubmissionReport, DaemonError> {
        let reg = &self.obs;
        let submitted = JobConfig::submitted(spec);
        let mut lenient = submitted.clone();
        lenient.max_map_attempts = self.policy.lenient_attempt_cap;
        lenient.max_reduce_attempts = self.policy.lenient_attempt_cap;

        // (config, label, does optimizer-induced OOM fall through?)
        let mut rungs: Vec<(JobConfig, &str, bool)> = Vec::new();
        if let Some(t) = tuned {
            rungs.push((t.clone(), "CBO-tuned settings", true));
        }
        rungs.push((
            recommend(spec, &self.cluster).config,
            "rule-based optimizer settings",
            true,
        ));
        rungs.push((submitted, "submitted configuration", false));
        rungs.push((
            lenient,
            "submitted configuration with lenient attempt caps",
            false,
        ));

        let ladder_span = reg.span("daemon.degrade");
        let mut attempt_no = 0u32;
        let mut last_fault: Option<SimError> = None;
        // One measurement serves every rung and retry: the dataflow depends on
        // neither configuration nor seed. Taken at the first attempt, where
        // `simulate` used to take it, so a job that cannot be measured fails
        // after the same events as before.
        let mut dataflow: Option<Dataflow> = None;
        for (config, label, oom_falls_through) in rungs {
            for _ in 0..=self.policy.run_retries {
                attempt_no += 1;
                reg.event(
                    "daemon.degrade.attempt",
                    &[("rung", label.into()), ("attempt", attempt_no.into())],
                );
                let flow = match &dataflow {
                    Some(flow) => flow,
                    None => dataflow.insert(analyze(spec, dataset, &self.cluster)?),
                };
                match simulate_with_dataflow(
                    spec,
                    flow,
                    &dataset.name,
                    &self.cluster,
                    &config,
                    retry_seed(seed ^ 0x47, attempt_no),
                ) {
                    Ok(run) => {
                        reg.event(
                            "daemon.degrade.served",
                            &[("rung", label.into()), ("attempts", attempt_no.into())],
                        );
                        ladder_span.attr("served_by", label);
                        ladder_span.attr("attempts", attempt_no);
                        mrsim::trace::record_report(reg, &run);
                        reg.incr("daemon.degraded", 1);
                        return Ok(SubmissionReport {
                            job_id: spec.job_id(),
                            outcome: SubmissionOutcome::Degraded {
                                config,
                                reason: format!(
                                    "{why}; served by {label} after {attempt_no} fallback run attempt(s)"
                                ),
                            },
                            run,
                            sampling_ms,
                        });
                    }
                    Err(e) if e.is_fault() => last_fault = Some(e),
                    // OOM is seed-independent: no point retrying the rung.
                    Err(e @ SimError::OutOfMemory { .. }) if oom_falls_through => {
                        last_fault = Some(e);
                        break;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        ladder_span.attr("served_by", "none");
        // Every rung exhausted — the cluster is hostile beyond what the
        // policy tolerates. Surface the last fault as a typed error.
        Err(DaemonError::Sim(
            last_fault.expect("ladder has at least one rung"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
    use mrjobs::jobs;

    #[test]
    fn first_submission_profiles_second_submission_tunes() {
        let daemon = PStorM::new().unwrap();
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_cooccurrence_pairs(2);

        let first = daemon.submit(&spec, &ds, 1).unwrap();
        assert!(matches!(
            first.outcome,
            SubmissionOutcome::ProfiledAndStored { .. }
        ));
        assert_eq!(daemon.store.len().unwrap(), 1);

        let second = daemon.submit(&spec, &ds, 2).unwrap();
        match &second.outcome {
            SubmissionOutcome::Tuned { matched, .. } => {
                assert_eq!(matched.map.source_job, spec.job_id());
            }
            other => panic!("expected tuned run, got {other:?}"),
        }
        // The tuned run should be much faster than the profiled default run.
        assert!(
            second.run.runtime_ms < first.run.runtime_ms / 2.0,
            "tuned {} vs default {}",
            second.run.runtime_ms,
            first.run.runtime_ms
        );
    }

    #[test]
    fn daemon_error_chain_is_preserved() {
        let e = DaemonError::Sim(SimError::EmptyDataset("empty_ds".into()));
        let src = std::error::Error::source(&e).expect("source must expose the inner SimError");
        assert!(
            src.to_string().contains("empty_ds"),
            "source lost detail: {src}"
        );
        assert!(
            e.to_string().contains("job simulation failed"),
            "display lost context: {e}"
        );

        let e = DaemonError::Store(ProfileStoreError::Corrupt("dyn:vec".into()));
        assert!(std::error::Error::source(&e).is_some());
    }

    /// A corrupt manifest must surface from `PStorM::reopen` as a typed
    /// `RecoveryError` whose full cause chain walks from the daemon down
    /// to the recovery layer — not as a panic or a flattened string.
    #[test]
    fn recovery_error_chain_walks_from_daemon_to_store_layer() {
        let dir = std::env::temp_dir().join(format!(
            "pstorm-daemon-badmanifest-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("MANIFEST"), b"not a manifest at all").unwrap();

        let err = match PStorM::reopen(&dir) {
            Err(e) => DaemonError::from(e),
            Ok(_) => panic!("reopen over a corrupt manifest must fail"),
        };
        assert!(
            matches!(
                &err,
                DaemonError::Store(ProfileStoreError::Recovery(
                    cfstore::RecoveryError::ManifestCorrupt { .. }
                ))
            ),
            "expected a typed ManifestCorrupt, got {err:?}"
        );
        // Each level adds its own context…
        assert!(err.to_string().contains("profile store operation failed"));
        // …and the chain stays walkable to the recovery layer.
        let store_err = std::error::Error::source(&err).expect("daemon -> store");
        assert!(store_err.to_string().contains("store recovery failed"));
        let recovery_err = std::error::Error::source(store_err).expect("store -> recovery");
        assert!(
            recovery_err.to_string().contains("manifest"),
            "recovery layer lost detail: {recovery_err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_tuned_runs_degrade_instead_of_erroring() {
        use mrsim::FaultSpec;

        let mut daemon = PStorM::new().unwrap();
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_count();

        // Clean first submission seeds the store with a full profile.
        let first = daemon.submit(&spec, &ds, 1).unwrap();
        assert!(matches!(
            first.outcome,
            SubmissionOutcome::ProfiledAndStored { .. }
        ));

        // Now make the cluster flaky enough that a ~280-map job dies on a
        // sizable fraction of seeds, and resubmit across seeds.
        daemon.cluster.faults = FaultSpec {
            task_failure_prob: 0.2,
            ..FaultSpec::default()
        };
        let mut degraded = 0;
        let mut tuned = 0;
        for seed in 0..24 {
            let report = daemon
                .submit(&spec, &ds, 1000 + seed)
                .expect("moderate fault rates must never surface a raw error");
            match report.outcome {
                SubmissionOutcome::Degraded { ref reason, .. } => {
                    degraded += 1;
                    assert!(!reason.is_empty());
                    assert!(report.run.runtime_ms > 0.0);
                }
                SubmissionOutcome::Tuned { .. } => tuned += 1,
                SubmissionOutcome::ProfiledAndStored { .. } => {}
            }
        }
        assert!(
            degraded > 0,
            "expected at least one degraded submission (tuned: {tuned})"
        );
        assert!(tuned > 0, "expected some tuned submissions to survive");
    }

    #[test]
    fn hostile_cluster_returns_typed_fault_error() {
        use mrsim::FaultSpec;

        let mut daemon = PStorM::new().unwrap();
        daemon.cluster.faults = FaultSpec {
            node_loss_prob: 1.0,
            ..FaultSpec::default()
        };
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_count();
        match daemon.submit(&spec, &ds, 5) {
            Err(DaemonError::Sim(e)) => assert!(e.is_fault(), "expected fault error, got {e}"),
            Err(other) => panic!("expected sim fault, got {other}"),
            Ok(report) => panic!("total node loss should not complete: {:?}", report.outcome),
        }
    }

    #[test]
    fn sampling_cost_is_small() {
        let daemon = PStorM::new().unwrap();
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_count();
        let report = daemon.submit(&spec, &ds, 1).unwrap();
        assert!(
            report.sampling_ms < report.run.runtime_ms / 4.0,
            "sampling {} vs run {}",
            report.sampling_ms,
            report.run.runtime_ms
        );
    }
}
