//! The benchmark-side replica of `PStorM::submit`: the same public calls,
//! with the same arguments and seeds, each inside a wall-clock span — and
//! the store probes that time, one by one, the calls the matcher makes.
//!
//! The replica exists because the program's own spans run on a virtual
//! clock; until they carry wall time, the per-layer numbers are taken
//! from outside, and every traced submission checks that the replica's
//! answer is bit-identical to the daemon's.

use cfstore::Scan;
use mrjobs::{Dataset, JobSpec};
use mrsim::JobConfig;
use profiler::SampleSize;
use pstorm::daemon::{PStorM, SubmissionOutcome, SubmissionReport};
use pstorm::matcher::{match_profile, MatchResult, SubmittedJob};
use pstorm::ProfileStore;
use staticanalysis::StaticFeatures;
use whatif::WhatIfPlan;

use crate::spans::Spans;

/// What a submission produced, reduced to what must agree between the
/// daemon and the replica, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub source_job: String,
    pub config: JobConfig,
    pub predicted_bits: u64,
    pub runtime_bits: u64,
}

impl Digest {
    pub fn runtime_ms(&self) -> f64 {
        f64::from_bits(self.runtime_bits)
    }
}

/// The digest of a tuned submission; `Err` names any other outcome. No
/// faults are injected and every submitted job has a stored profile, so
/// anything but `Tuned` is a failed op.
pub fn digest(report: &SubmissionReport) -> Result<Digest, String> {
    match &report.outcome {
        SubmissionOutcome::Tuned {
            matched,
            tuned_config,
            predicted_ms,
        } => Ok(Digest {
            source_job: matched.map.source_job.clone(),
            config: tuned_config.clone(),
            predicted_bits: predicted_ms.to_bits(),
            runtime_bits: report.run.runtime_ms.to_bits(),
        }),
        SubmissionOutcome::ProfiledAndStored { failure } => {
            Err(format!("{}: no match ({failure:?})", report.job_id))
        }
        SubmissionOutcome::Degraded { reason, .. } => {
            Err(format!("{}: degraded ({reason})", report.job_id))
        }
    }
}

/// What the replica hands back besides its digest: the inputs the probes
/// replay, and the counts the per-layer rates are made of.
pub struct Replica {
    pub digest: Digest,
    pub query: SubmittedJob,
    pub matched: MatchResult,
    pub wif_calls: usize,
    pub tasks: usize,
}

/// Replay `daemon.submit(spec, dataset, seed)` call by call. `reg` is the
/// registry attached to the daemon, passed where the daemon passes it, so
/// the replica pays the same tracing cost as the traced daemon.
pub fn replica_submit(
    spans: &mut Spans,
    daemon: &PStorM,
    reg: &obs::Registry,
    spec: &JobSpec,
    dataset: &Dataset,
    seed: u64,
) -> Result<Replica, String> {
    let root = spans.enter("daemon.submit");
    let out = replica_steps(spans, daemon, reg, spec, dataset, seed);
    spans.exit(root);
    out
}

fn replica_steps(
    spans: &mut Spans,
    daemon: &PStorM,
    reg: &obs::Registry,
    spec: &JobSpec,
    dataset: &Dataset,
    seed: u64,
) -> Result<Replica, String> {
    let submitted = JobConfig::submitted(spec);
    let sample = spans
        .timed("profiler.sample", || {
            profiler::collect_sample_profile(
                spec,
                dataset,
                &daemon.cluster,
                &submitted,
                SampleSize::OneTask,
                seed,
            )
        })
        .map_err(|e| format!("replica sample: {e}"))?;
    let statics = spans.timed("staticanalysis.extract", || StaticFeatures::extract(spec));
    let query = SubmittedJob {
        spec: spec.clone(),
        statics,
        sample: sample.profile,
        input_bytes: dataset.logical_bytes,
    };
    let matched = spans
        .timed("matcher.match", || {
            match_profile(&daemon.store, &query, &daemon.matcher)
        })
        .map_err(|e| format!("replica match: {e}"))?
        .map_err(|f| format!("replica match: {f:?}"))?;
    let rec = spans
        .timed("optimizer.optimize", || {
            optimizer::optimize_traced(
                spec,
                &matched.profile,
                dataset.logical_bytes,
                &daemon.cluster,
                &daemon.cbo,
                reg,
            )
        })
        .map_err(|e| format!("replica optimize: {e}"))?;
    let run = spans
        .timed("mrsim.simulate", || {
            mrsim::simulate(spec, dataset, &daemon.cluster, &rec.config, seed ^ 0x47)
        })
        .map_err(|e| format!("replica run: {e}"))?;
    mrsim::trace::record_report(reg, &run);
    Ok(Replica {
        digest: Digest {
            source_job: matched.map.source_job.clone(),
            config: rec.config,
            predicted_bits: rec.predicted_ms.to_bits(),
            runtime_bits: run.runtime_ms.to_bits(),
        },
        query,
        matched,
        wif_calls: rec.wif_calls,
        tasks: run.map_tasks.len() + run.reduce_tasks.len(),
    })
}

/// The `Jobs` table of the profile store and its `Profile/` rows — the
/// documented key layout (`<ns><feature>/<job_id>`), needed to time the
/// backend under the store.
const TABLE: &str = "Jobs";

fn backend_probes(spans: &mut Spans, store: &ProfileStore, job_id: &str) {
    let ns = cfstore::encoding::tenant_prefix(store.tenant()).expect("tenant ids are validated");
    let key = format!("{ns}Profile/{job_id}");
    let prefix = format!("{ns}Profile/");
    let scan = Scan::prefix(prefix.as_bytes());
    match store.sharded() {
        Some(sharded) => {
            spans
                .timed("cfstore.get", || sharded.get(TABLE, key.as_bytes()))
                .expect("backend get");
            spans
                .timed("cfstore.scan_prefix", || sharded.scan(TABLE, &scan))
                .expect("backend scan");
        }
        None => {
            let inner = store.inner();
            spans
                .timed("cfstore.get", || inner.get(TABLE, key.as_bytes()))
                .expect("backend get");
            spans
                .timed("cfstore.scan_prefix", || inner.scan(TABLE, &scan))
                .expect("backend scan");
        }
    }
}

/// Time, beside one `matcher.match`, each call it made into the layers
/// below — on the same store state and the same query — plus the
/// simulator and what-if calls that `profiler.sample`,
/// `mrsim.simulate` and `optimizer.optimize` are made of.
pub fn probe_layers(
    spans: &mut Spans,
    daemon: &PStorM,
    spec: &JobSpec,
    dataset: &Dataset,
    replica: &Replica,
) {
    let store = &daemon.store;
    let q = &replica.query;
    let probes = spans.enter("probes");

    spans
        .timed("store.is_empty", || store.is_empty())
        .expect("is_empty");
    let bounds = spans
        .timed("store.normalization_bounds", || {
            store.normalization_bounds()
        })
        .expect("bounds");
    let index = spans
        .timed("store.columnar_index", || store.columnar_index())
        .expect("index");

    // Stage 1 as the matcher runs it: θ = ½·√d, widened for low-confidence
    // samples (none here: no faults are injected).
    let cfg = &daemon.matcher;
    let widen = 1.0 + cfg.low_confidence_widen * (1.0 - q.sample.confidence.clamp(0.0, 1.0));
    let theta = |d: usize| cfg.theta_eucl_fraction * (d as f64).sqrt() * widen;
    let map_dyn = q.sample.map.dynamic_features();
    let red_dyn = q.sample.reduce.as_ref().map(|r| r.dynamic_features());
    spans.timed("matcher.stage1_sweep", || {
        let mut survivors = index
            .sweep_map_dyn(&bounds.map_dyn, &map_dyn, theta(map_dyn.len()))
            .len();
        if let Some(red) = &red_dyn {
            survivors += index
                .sweep_red_dyn(&bounds.red_dyn, red, theta(red.len()))
                .len();
        }
        std::hint::black_box(survivors)
    });

    let mut sources = vec![replica.matched.map.source_job.as_str()];
    if let Some(r) = &replica.matched.reduce {
        if replica.matched.is_composite() {
            sources.push(r.source_job.as_str());
        }
    }
    for source in &sources {
        spans
            .timed("store.get_profile", || store.get_profile(source))
            .expect("get_profile");
    }

    // A fresh view of the same rows starts with no index, so building its
    // index is the rebuild a write forces — timed without disturbing the
    // daemon's own view. Dropped at once: a live view would pin the
    // backend's registry.
    let view = spans
        .timed("store.tenant_view", || store.tenant_view(store.tenant()))
        .expect("view");
    spans
        .timed("store.index_rebuild", || view.columnar_index())
        .expect("rebuild");
    drop(view);

    backend_probes(spans, store, sources[0]);

    spans
        .timed("mrsim.analyze", || {
            mrsim::analyze(spec, dataset, &daemon.cluster)
        })
        .expect("analyze");
    let plan = spans.timed("whatif.plan", || {
        WhatIfPlan::new(
            spec,
            &replica.matched.profile,
            dataset.logical_bytes,
            &daemon.cluster,
        )
    });
    spans
        .timed("whatif.predict", || plan.predict(&replica.digest.config))
        .expect("predict");

    spans.exit(probes);
}
