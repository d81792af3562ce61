//! The multi-stage profile matcher (Fig. 4.4).
//!
//! For each side (map, reduce) independently:
//!
//! 1. **Dynamic filter** — normalized Euclidean distance between the
//!    Table 4.1 dataflow statistics of the 1-task sample and each stored
//!    profile, pushed down to the store's region servers;
//!    θ_Eucl = ½·√(#features). An empty survivor set here is a hard
//!    *No Match Found*.
//! 2. **CFG filter** — conservative structural match of the side's CFG.
//! 3. **Jaccard filter** — positional Jaccard ≥ θ_Jacc (0.5) over the
//!    static features.
//! 4. **Tie-break** — among survivors, the profile whose source input size
//!    is closest to the submitted job's.
//!
//! When stages 2–3 empty out (a previously unseen job), the *alternative
//! filter* retries the stage-1 survivors with a Euclidean filter over the
//! cost factors — the features PStorM avoids unless necessary (§4.1.1).
//! The final answer composes the map-side winner's map profile with the
//! reduce-side winner's reduce profile.

use mrjobs::JobSpec;
use profiler::JobProfile;
use staticanalysis::{SideFeatures, StaticFeatures};

use crate::store::{ColumnarIndex, NormalizationBounds, ProfileStore, ProfileStoreError};

/// Matcher thresholds; defaults are the paper's evaluation settings (§6).
#[derive(Debug, Clone, Copy)]
pub struct MatcherConfig {
    /// θ_Jacc: minimum static-feature Jaccard similarity.
    pub theta_jacc: f64,
    /// θ_Eucl as a fraction of the maximum possible normalized distance
    /// (√d); the paper uses ½.
    pub theta_eucl_fraction: f64,
    /// Ablation: run the CFG/Jaccard filters *before* the dynamic filter,
    /// the ordering §4.3 argues against (it wrongly excludes donor
    /// profiles for parameterized jobs).
    pub static_filters_first: bool,
    /// Ablation: include the high-variance cost factors in the stage-1
    /// distance (§4.1.1 argues they should be fallback-only).
    pub include_cost_factors_in_stage1: bool,
    /// Ablation: disable the input-size tie-break of §4.3.
    pub tie_break_input_size: bool,
    /// Ablation: disable composite profiles — require the map and reduce
    /// winners to be the same stored job.
    pub allow_composition: bool,
    /// How much the stage-1 Euclidean threshold widens for low-confidence
    /// probes: θ is scaled by `1 + widen · (1 − confidence)`. A probe built
    /// from a fault-free run (confidence 1.0) is unaffected; a heavily
    /// perturbed sample gets proportionally more slack, because its noisy
    /// dataflow statistics would otherwise wrongly exclude good donors.
    pub low_confidence_widen: f64,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            theta_jacc: 0.5,
            theta_eucl_fraction: 0.5,
            static_filters_first: false,
            include_cost_factors_in_stage1: false,
            tie_break_input_size: true,
            allow_composition: true,
            low_confidence_widen: 0.5,
        }
    }
}

/// A job submitted for matching: static features plus the 1-task sample
/// profile.
#[derive(Debug, Clone)]
pub struct SubmittedJob {
    pub spec: JobSpec,
    pub statics: StaticFeatures,
    pub sample: JobProfile,
    /// Logical input size of the submission (tie-breaking).
    pub input_bytes: u64,
}

/// Why matching failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchFailure {
    /// The store holds no profiles at all.
    EmptyStore,
    /// No stored profile survived the dynamic-feature filter (§4.3: the
    /// matcher "declares failure to find a matching profile if the set C
    /// becomes empty after the first filter").
    NoDynamicMatch { side: Side },
    /// The alternative cost-factor filter also emptied out.
    NoCostFactorMatch { side: Side },
    /// Composition was disabled (ablation) and map/reduce winners differ.
    CompositionDisabled {
        map_source: String,
        reduce_source: String,
    },
}

/// Which matching side a diagnostic refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Map,
    Reduce,
}

impl Side {
    /// Lower-case label used in traces and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Side::Map => "map",
            Side::Reduce => "reduce",
        }
    }
}

/// How one side's winner was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideMatch {
    pub source_job: String,
    /// Candidates surviving each stage: (dynamic, cfg, jaccard).
    pub survivors: (usize, usize, usize),
    /// Whether the cost-factor fallback produced the winner.
    pub via_fallback: bool,
}

/// A successful match.
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// The profile handed to the CBO (possibly composite).
    pub profile: JobProfile,
    pub map: SideMatch,
    /// `None` for map-only submissions.
    pub reduce: Option<SideMatch>,
}

impl MatchResult {
    /// Whether map and reduce sides came from different stored jobs.
    pub fn is_composite(&self) -> bool {
        match &self.reduce {
            Some(r) => r.source_job != self.map.source_job,
            None => false,
        }
    }
}

/// Run the Fig. 4.4 workflow against the store.
///
/// The outer `Result` carries store/IO errors; the inner one is the
/// matching verdict. Decisions are recorded into the store's
/// [`obs::Registry`] (see [`ProfileStore::set_obs`]) as a `matcher.match`
/// span with one `matcher.side` child per matched side.
///
/// # Examples
///
/// A job whose own profile is stored matches itself:
///
/// ```
/// use pstorm::matcher::{match_profile, MatcherConfig, SubmittedJob};
/// use pstorm::store::ProfileStore;
/// use profiler::SampleSize;
/// use staticanalysis::StaticFeatures;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = mrsim::ClusterSpec::ec2_c1_medium_16();
/// let spec = mrjobs::jobs::word_count();
/// let ds = datagen::corpus::random_text_1g();
/// let config = mrsim::JobConfig::submitted(&spec);
///
/// let store = ProfileStore::new()?;
/// let (profile, _) = profiler::collect_full_profile(&spec, &ds, &cluster, &config, 7)?;
/// store.put_profile(&StaticFeatures::extract(&spec), &profile)?;
///
/// let sample =
///     profiler::collect_sample_profile(&spec, &ds, &cluster, &config, SampleSize::OneTask, 3)?;
/// let q = SubmittedJob {
///     spec: spec.clone(),
///     statics: StaticFeatures::extract(&spec),
///     sample: sample.profile,
///     input_bytes: ds.logical_bytes,
/// };
/// let matched = match_profile(&store, &q, &MatcherConfig::default())?
///     .expect("the job's own profile is a perfect match");
/// assert_eq!(matched.map.source_job, spec.job_id());
/// # Ok(())
/// # }
/// ```
pub fn match_profile(
    store: &ProfileStore,
    q: &SubmittedJob,
    cfg: &MatcherConfig,
) -> Result<Result<MatchResult, MatchFailure>, ProfileStoreError> {
    let reg = store.obs().clone();
    let span = reg.span("matcher.match");
    span.attr("job_id", q.spec.job_id());
    // Only non-default tenants are tagged, so single-tenant traces (and
    // the golden trace) keep their pre-multi-tenancy bytes.
    if store.tenant() != cfstore::encoding::DEFAULT_TENANT {
        span.attr("tenant", store.tenant());
    }
    if store.is_empty()? {
        reg.incr("matcher.no_match", 1);
        span.attr("outcome", "empty_store");
        return Ok(Err(MatchFailure::EmptyStore));
    }
    let bounds = store.normalization_bounds()?;
    let index = store.columnar_index()?;

    // ---- Map side -------------------------------------------------------
    let map_side = match match_side(store, q, cfg, Side::Map, &bounds, &index)? {
        Ok(m) => m,
        Err(f) => {
            reg.incr("matcher.no_match", 1);
            span.attr("outcome", "no_map_match");
            return Ok(Err(f));
        }
    };

    // ---- Reduce side ----------------------------------------------------
    let reduce_side = if q.sample.reduce.is_some() {
        match match_side(store, q, cfg, Side::Reduce, &bounds, &index)? {
            Ok(m) => Some(m),
            Err(f) => {
                reg.incr("matcher.no_match", 1);
                span.attr("outcome", "no_reduce_match");
                return Ok(Err(f));
            }
        }
    } else {
        None
    };

    if let Some(r) = &reduce_side {
        if !cfg.allow_composition && r.source_job != map_side.source_job {
            reg.incr("matcher.no_match", 1);
            span.attr("outcome", "composition_disabled");
            return Ok(Err(MatchFailure::CompositionDisabled {
                map_source: map_side.source_job.clone(),
                reduce_source: r.source_job.clone(),
            }));
        }
    }

    // ---- Compose --------------------------------------------------------
    let map_profile = store
        .get_profile(&map_side.source_job)?
        .ok_or_else(|| ProfileStoreError::Corrupt(format!("missing {}", map_side.source_job)))?;
    let profile = match &reduce_side {
        Some(r) if r.source_job != map_side.source_job => {
            let red_profile = store
                .get_profile(&r.source_job)?
                .ok_or_else(|| ProfileStoreError::Corrupt(format!("missing {}", r.source_job)))?;
            JobProfile::compose(&map_profile, &red_profile)
        }
        Some(_) => map_profile,
        None => {
            let mut p = map_profile;
            p.reduce = None;
            p
        }
    };

    let result = MatchResult {
        profile,
        map: map_side,
        reduce: reduce_side,
    };
    reg.incr("matcher.matched", 1);
    span.attr("outcome", "matched");
    span.attr("map_source", result.map.source_job.as_str());
    if let Some(r) = &result.reduce {
        span.attr("reduce_source", r.source_job.as_str());
    }
    span.attr("composite", result.is_composite());
    Ok(Ok(result))
}

/// One side of Fig. 4.4 over the store's columnar index; a candidate is
/// an index row.
fn match_side(
    store: &ProfileStore,
    q: &SubmittedJob,
    cfg: &MatcherConfig,
    side: Side,
    bounds: &NormalizationBounds,
    ix: &ColumnarIndex,
) -> Result<Result<SideMatch, MatchFailure>, ProfileStoreError> {
    let (q_dyn, q_side, dyn_bounds): (Vec<f64>, &SideFeatures, _) = match side {
        Side::Map => (
            q.sample.map.dynamic_features(),
            &q.statics.map,
            &bounds.map_dyn,
        ),
        Side::Reduce => (
            q.sample
                .reduce
                .as_ref()
                .expect("reduce side matching requires a reduce sample")
                .dynamic_features(),
            &q.statics.reduce,
            &bounds.red_dyn,
        ),
    };
    // Graceful degradation: a probe profiled under faults carries partial,
    // noisier statistics; widen the stage-1 acceptance band in proportion
    // to how much of the sampled work actually completed cleanly.
    let widen = 1.0 + cfg.low_confidence_widen * (1.0 - q.sample.confidence.clamp(0.0, 1.0));
    let theta = cfg.theta_eucl_fraction * (q_dyn.len() as f64).sqrt() * widen;

    let reg = store.obs().clone();
    let side_span = reg.span("matcher.side");
    side_span.attr("side", side.label());
    side_span.attr("theta", theta);
    if widen > 1.0 {
        reg.event(
            "matcher.confidence_widen",
            &[
                ("side", side.label().into()),
                ("confidence", q.sample.confidence.into()),
                ("widen", widen.into()),
            ],
        );
        reg.incr("matcher.confidence_widened", 1);
    }

    // Stage 1: dynamic-feature Euclidean filter — a vectorized sweep of
    // the columnar index, survivors in row (key) order.
    let candidates_in = ix.len();
    let mut stage1: Vec<usize> = match side {
        Side::Map => ix.sweep_map_dyn(dyn_bounds, &q_dyn, theta),
        Side::Reduce => ix.sweep_red_dyn(dyn_bounds, &q_dyn, theta),
    };

    // The Euclidean filter over cost factors: the alternative filter, and
    // the ablation just below.
    let near_in_cost = |rows: &[usize]| -> Vec<usize> {
        let q_cost = q.sample.map.cost_factors.as_vec();
        let theta_cost = cfg.theta_eucl_fraction * (q_cost.len() as f64).sqrt();
        let near = |c: &usize| bounds.cost.distance(&q_cost, ix.cost_factors(*c)) <= theta_cost;
        rows.iter().copied().filter(near).collect()
    };
    // Ablation: also require cost-factor proximity at stage 1 (the paper
    // keeps these high-variance features out of the primary vector).
    if cfg.include_cost_factors_in_stage1 {
        stage1 = near_in_cost(&stage1);
    }
    // The static filters' verdict on a candidate: whether its CFG matches
    // and, if so, its Jaccard similarity. It depends on the candidate's
    // statics alone, and a store of many profiles per job holds far fewer
    // distinct statics than rows, so it is computed once per distinct id
    // and looked up for every other candidate that carries the id.
    let mut verdicts: Vec<Option<Option<f64>>> = vec![None; ix.distinct_statics()];
    let mut static_verdict = |c: usize| -> Option<f64> {
        let (statics, id) = (ix.statics(c)?, ix.statics_id(c)?);
        *verdicts[id].get_or_insert_with(|| {
            let stored_side = match side {
                Side::Map => &statics.map,
                Side::Reduce => &statics.reduce,
            };
            (q_side.cfg_match(stored_side) == 1.0).then(|| q_side.jaccard(stored_side))
        })
    };

    // Ablation: the wrong filter order — prune by static features before
    // trusting the dynamics.
    if cfg.static_filters_first {
        stage1.retain(|c| static_verdict(*c).is_some_and(|jacc| jacc >= cfg.theta_jacc));
    }
    reg.incr("matcher.stage1.candidates_in", candidates_in as u64);
    reg.incr("matcher.stage1.survivors", stage1.len() as u64);
    side_span.attr("candidates_in", candidates_in);
    side_span.attr("stage1", stage1.len());
    if stage1.is_empty() {
        side_span.attr("outcome", "no_dynamic_match");
        return Ok(Err(MatchFailure::NoDynamicMatch { side }));
    }

    // Stages 2 & 3: CFG and Jaccard over stored static features.
    let mut stage2 = Vec::new();
    let mut stage3: Vec<(usize, f64)> = Vec::new();
    for &cand in &stage1 {
        if let Some(jacc) = static_verdict(cand) {
            stage2.push(cand);
            if jacc >= cfg.theta_jacc {
                stage3.push((cand, jacc));
            }
        }
    }

    // Tie-break by closest input size (§4.3), then by smallest dynamic
    // distance for candidates on the very same dataset.
    let dyn_distance = |c: usize| -> f64 {
        let stored = match side {
            Side::Map => ix.map_dyn(c),
            Side::Reduce => ix.red_dyn(c).expect("reduce sweep only yields reduce rows"),
        };
        dyn_bounds.distance(&q_dyn, stored)
    };
    let pick = |candidates: &[usize]| -> String {
        let winner = candidates
            .iter()
            .min_by(|&&a, &&b| {
                if cfg.tie_break_input_size {
                    let da = (ix.input_bytes(a) - q.input_bytes as f64).abs();
                    let db = (ix.input_bytes(b) - q.input_bytes as f64).abs();
                    da.total_cmp(&db)
                        .then_with(|| dyn_distance(a).total_cmp(&dyn_distance(b)))
                } else {
                    // Ablation: no size tie-break; an arbitrary but
                    // deterministic pick among the candidates.
                    std::cmp::Ordering::Less
                }
            })
            .expect("non-empty candidate set");
        ix.job_id(*winner).to_string()
    };

    reg.incr("matcher.stage2.survivors", stage2.len() as u64);
    reg.incr("matcher.stage3.survivors", stage3.len() as u64);
    side_span.attr("stage2", stage2.len());
    side_span.attr("stage3", stage3.len());

    if !stage3.is_empty() {
        // Among Jaccard survivors, the most statically similar candidates
        // win before the input-size tie-break: a full static match (the
        // job itself, or its twin on other data) always beats a partial
        // one from the same job family.
        let best_jacc = stage3
            .iter()
            .map(|(_, j)| *j)
            .fold(f64::NEG_INFINITY, f64::max);
        let finalists: Vec<usize> = stage3
            .iter()
            .filter(|(_, j)| (*j - best_jacc).abs() < 1e-9)
            .map(|(c, _)| *c)
            .collect();
        let source_job = pick(&finalists);
        side_span.attr("outcome", "matched");
        side_span.attr("winner", source_job.as_str());
        side_span.attr("via_fallback", false);
        return Ok(Ok(SideMatch {
            source_job,
            survivors: (stage1.len(), stage2.len(), stage3.len()),
            via_fallback: false,
        }));
    }

    // Alternative filter: Euclidean over the cost factors of the stage-1
    // survivors (the paper's fallback for previously unseen jobs).
    let fallback = near_in_cost(&stage1);
    reg.incr("matcher.fallback.survivors", fallback.len() as u64);
    side_span.attr("fallback", fallback.len());
    if fallback.is_empty() {
        side_span.attr("outcome", "no_cost_factor_match");
        return Ok(Err(MatchFailure::NoCostFactorMatch { side }));
    }
    let source_job = pick(&fallback);
    side_span.attr("outcome", "matched");
    side_span.attr("winner", source_job.as_str());
    side_span.attr("via_fallback", true);
    Ok(Ok(SideMatch {
        source_job,
        survivors: (stage1.len(), stage2.len(), stage3.len()),
        via_fallback: true,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
    use mrjobs::jobs;
    use mrsim::{ClusterSpec, JobConfig};
    use profiler::{collect_full_profile, collect_sample_profile, SampleSize};

    fn cl() -> ClusterSpec {
        ClusterSpec::ec2_c1_medium_16()
    }

    fn store_with(jobs_and_data: &[(mrjobs::JobSpec, mrjobs::Dataset)]) -> ProfileStore {
        let store = ProfileStore::new().unwrap();
        for (spec, ds) in jobs_and_data {
            let (profile, _) =
                collect_full_profile(spec, ds, &cl(), &JobConfig::submitted(spec), 17).unwrap();
            store
                .put_profile(&StaticFeatures::extract(spec), &profile)
                .unwrap();
        }
        store
    }

    fn submitted(spec: &mrjobs::JobSpec, ds: &mrjobs::Dataset, seed: u64) -> SubmittedJob {
        let run = collect_sample_profile(
            spec,
            ds,
            &cl(),
            &JobConfig::submitted(spec),
            SampleSize::OneTask,
            seed,
        )
        .unwrap();
        SubmittedJob {
            spec: spec.clone(),
            statics: StaticFeatures::extract(spec),
            sample: run.profile,
            input_bytes: ds.logical_bytes,
        }
    }

    #[test]
    fn sd_state_returns_the_same_job() {
        let text = corpus::random_text_1g();
        let store = store_with(&[
            (jobs::word_count(), text.clone()),
            (jobs::word_cooccurrence_pairs(2), text.clone()),
            (jobs::sort(), corpus::teragen_1g()),
        ]);
        let q = submitted(&jobs::word_count(), &text, 3);
        let result = match_profile(&store, &q, &MatcherConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(result.map.source_job, "word-count");
        assert_eq!(result.reduce.as_ref().unwrap().source_job, "word-count");
        assert!(!result.is_composite());
        assert!(!result.map.via_fallback);
    }

    #[test]
    fn empty_store_fails_cleanly() {
        let store = ProfileStore::new().unwrap();
        let text = corpus::random_text_1g();
        let q = submitted(&jobs::word_count(), &text, 3);
        let failure = match_profile(&store, &q, &MatcherConfig::default())
            .unwrap()
            .unwrap_err();
        assert_eq!(failure, MatchFailure::EmptyStore);
    }

    #[test]
    fn unseen_job_composes_from_similar_profiles() {
        // The headline scenario: bigram-relative-frequency's profile serves
        // a never-before-seen co-occurrence submission.
        let text = corpus::wikipedia_35g();
        let store = store_with(&[
            (jobs::bigram_relative_frequency(), text.clone()),
            (jobs::word_count(), text.clone()),
            (jobs::sort(), corpus::teragen_35g()),
        ]);
        let q = submitted(&jobs::word_cooccurrence_pairs(2), &text, 5);
        let outcome = match_profile(&store, &q, &MatcherConfig::default()).unwrap();
        let result = outcome.expect("co-occurrence should match something");
        // The profile must come from a donor (co-occurrence itself is absent).
        assert_ne!(result.map.source_job, q.sample.job_id);
        assert!(
            result.map.via_fallback
                || result
                    .reduce
                    .as_ref()
                    .map(|r| r.via_fallback)
                    .unwrap_or(false)
                || result.is_composite()
                || !result.map.source_job.is_empty()
        );
    }

    #[test]
    fn wildly_different_job_reports_no_dynamic_match() {
        // Only low-selectivity jobs are stored (a single entry would make
        // the min-max bounds degenerate and every distance zero); a
        // co-occurrence submission has dataflow statistics far outside the
        // stored range.
        let store = store_with(&[
            (jobs::sort(), corpus::teragen_1g()),
            (jobs::join(), corpus::tpch_1g()),
            (jobs::cf_user_vectors(), corpus::ratings_1m()),
        ]);
        let q = submitted(
            &jobs::word_cooccurrence_pairs(2),
            &corpus::random_text_1g(),
            5,
        );
        let failure = match_profile(&store, &q, &MatcherConfig::default())
            .unwrap()
            .unwrap_err();
        assert!(
            matches!(
                failure,
                MatchFailure::NoDynamicMatch { .. } | MatchFailure::NoCostFactorMatch { .. }
            ),
            "{failure:?}"
        );
    }

    #[test]
    fn map_only_submission_skips_reduce_matching() {
        let text = corpus::random_text_1g();
        let mut spec = jobs::word_count();
        spec.reduce_udf = None;
        spec.reducer_class = None;
        spec.combine_udf = None;
        spec.combiner_class = None;
        spec.name = "word-count-maponly".to_string();
        let store = store_with(&[
            (spec.clone(), text.clone()),
            (jobs::word_count(), text.clone()),
        ]);
        let q = submitted(&spec, &text, 9);
        let result = match_profile(&store, &q, &MatcherConfig::default())
            .unwrap()
            .unwrap();
        assert!(result.reduce.is_none());
        assert!(result.profile.reduce.is_none());
    }

    #[test]
    fn low_confidence_probe_widens_stage1_band() {
        // Under a tight stage-1 band, a store of dissimilar jobs rejects a
        // co-occurrence probe at stage 1 (dynamics outside the band). A
        // low-confidence version of the same probe with an aggressive widen
        // factor gets enough extra slack to survive stage 1.
        let store = store_with(&[
            (jobs::sort(), corpus::teragen_1g()),
            (jobs::join(), corpus::tpch_1g()),
            (jobs::cf_user_vectors(), corpus::ratings_1m()),
        ]);
        let mut q = submitted(
            &jobs::word_cooccurrence_pairs(2),
            &corpus::random_text_1g(),
            5,
        );
        let strict_cfg = MatcherConfig {
            theta_eucl_fraction: 0.02,
            ..MatcherConfig::default()
        };
        let strict = match_profile(&store, &q, &strict_cfg).unwrap().unwrap_err();
        assert!(
            matches!(strict, MatchFailure::NoDynamicMatch { .. }),
            "{strict:?}"
        );

        // confidence 0.2 scales θ by 1 + 100·0.8 = 81×, past the default
        // band that is known to admit at least one of these candidates.
        q.sample.confidence = 0.2;
        let widened_cfg = MatcherConfig {
            low_confidence_widen: 100.0,
            ..strict_cfg
        };
        let widened = match_profile(&store, &q, &widened_cfg).unwrap();
        assert!(
            !matches!(widened, Err(MatchFailure::NoDynamicMatch { .. })),
            "stage 1 should have been widened: {widened:?}"
        );

        // A full-confidence probe is unaffected by the widen factor.
        q.sample.confidence = 1.0;
        let unaffected = match_profile(&store, &q, &widened_cfg)
            .unwrap()
            .unwrap_err();
        assert!(matches!(unaffected, MatchFailure::NoDynamicMatch { .. }));
    }

    #[test]
    fn word_count_variant_matches_original_via_cfg() {
        // Different mapper class name, same CFG: the while-variant should
        // match the stored for-variant profile.
        let text = corpus::random_text_1g();
        let store = store_with(&[
            (jobs::word_count(), text.clone()),
            (jobs::sort(), corpus::teragen_1g()),
        ]);
        let q = submitted(&jobs::word_count_while_variant(), &text, 11);
        let result = match_profile(&store, &q, &MatcherConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(result.map.source_job, "word-count");
        assert!(!result.map.via_fallback, "CFG+Jaccard path should succeed");
    }
}
