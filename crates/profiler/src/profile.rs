//! Starfish-style execution profiles.
//!
//! A [`JobProfile`] carries the three ingredient families the Starfish
//! What-If engine consumes (§4.1): *dataflow statistics* (Table 4.1
//! selectivities plus the raw counts they derive from), *cost factors*
//! (Table 4.2 per-byte IO and per-record CPU rates), and per-phase
//! timings. Profiles split into an independent map profile and reduce
//! profile, which is what allows PStorM to *compose* a profile for an
//! unseen job from two different stored profiles (§4.3).

use mrjobs::JobSpec;
use mrsim::{Dataflow, JobReport, MapPhase, ReducePhase};

/// The Table 4.2 cost factors, as estimated from observed task executions.
/// IO costs are ns/byte; CPU costs are ns/record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostFactors {
    pub read_hdfs_io_cost: f64,
    pub write_hdfs_io_cost: f64,
    pub read_local_io_cost: f64,
    pub write_local_io_cost: f64,
    pub network_cost: f64,
    pub map_cpu_cost: f64,
    pub reduce_cpu_cost: f64,
    pub combine_cpu_cost: f64,
}

impl CostFactors {
    /// The cost factors as an ordered numeric vector (for Euclidean
    /// matching and normalization).
    pub fn as_vec(&self) -> Vec<f64> {
        vec![
            self.read_hdfs_io_cost,
            self.write_hdfs_io_cost,
            self.read_local_io_cost,
            self.write_local_io_cost,
            self.network_cost,
            self.map_cpu_cost,
            self.reduce_cpu_cost,
            self.combine_cpu_cost,
        ]
    }

    /// Names matching [`CostFactors::as_vec`] order.
    pub const NAMES: [&'static str; 8] = [
        "READ_HDFS_IO_COST",
        "WRITE_HDFS_IO_COST",
        "READ_LOCAL_IO_COST",
        "WRITE_LOCAL_IO_COST",
        "NETWORK_COST",
        "MAP_CPU_COST",
        "REDUCE_CPU_COST",
        "COMBINE_CPU_COST",
    ];

    /// [`Self::NAMES`] as a slice.
    pub fn names() -> &'static [&'static str] {
        &Self::NAMES
    }
}

/// The map-side profile.
#[derive(Debug, Clone, PartialEq)]
pub struct MapProfile {
    /// Job id this profile was collected from.
    pub source_job: String,
    /// Dataset it ran on.
    pub dataset: String,
    /// Logical bytes of the input dataset.
    pub input_bytes_total: f64,
    /// Average input bytes per map task.
    pub input_bytes_per_task: f64,
    /// Average input records per map task.
    pub input_records_per_task: f64,
    /// Average serialized input record size.
    pub avg_input_record_bytes: f64,
    /// Average serialized intermediate record size.
    pub avg_intermediate_record_bytes: f64,
    /// `MAP_SIZE_SEL`: map output bytes / input bytes.
    pub size_selectivity: f64,
    /// `MAP_PAIRS_SEL`: map output records / input records.
    pub pairs_selectivity: f64,
    /// `COMBINE_SIZE_SEL`, when the source job ran a combiner.
    pub combine_size_selectivity: Option<f64>,
    /// `COMBINE_PAIRS_SEL`.
    pub combine_pairs_selectivity: Option<f64>,
    /// Interpreter ops per map input record (drives MAP_CPU_COST).
    pub map_ops_per_record: f64,
    /// Interpreter ops per combine input record.
    pub combine_ops_per_record: Option<f64>,
    /// Group size (records) the combine selectivities were measured over.
    pub combine_ref_records: Option<f64>,
    /// Heaps-law exponent of distinct intermediate keys; lets the What-If
    /// engine rescale combine selectivity to actual spill sizes.
    pub intermediate_key_alpha: Option<f64>,
    /// Observed cost factors (averaged over profiled tasks).
    pub cost_factors: CostFactors,
    /// Average per-task phase times, ms.
    pub phase_ms: Vec<(MapPhase, f64)>,
    /// How many map tasks this profile was aggregated from.
    pub tasks_observed: u32,
}

impl MapProfile {
    /// The Table 4.1 map-side dynamic feature vector:
    /// `[MAP_SIZE_SEL, MAP_PAIRS_SEL, COMBINE_SIZE_SEL, COMBINE_PAIRS_SEL]`
    /// (combine features are 1.0 when no combiner ran — an identity
    /// combiner).
    pub fn dynamic_features(&self) -> Vec<f64> {
        vec![
            self.size_selectivity,
            self.pairs_selectivity,
            self.combine_size_selectivity.unwrap_or(1.0),
            self.combine_pairs_selectivity.unwrap_or(1.0),
        ]
    }
}

/// The reduce-side profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceProfile {
    pub source_job: String,
    pub dataset: String,
    /// Total reduce input records across reducers.
    pub in_records: f64,
    /// Total reduce input bytes (uncompressed shuffle volume).
    pub in_bytes: f64,
    /// Total reduce output records.
    pub out_records: f64,
    /// Total reduce output bytes.
    pub out_bytes: f64,
    /// `RED_SIZE_SEL`: out bytes / in bytes.
    pub size_selectivity: f64,
    /// `RED_PAIRS_SEL`: out records / in records.
    pub pairs_selectivity: f64,
    /// Interpreter ops per reduce input record.
    pub reduce_ops_per_record: f64,
    pub cost_factors: CostFactors,
    /// Average per-task phase times, ms.
    pub phase_ms: Vec<(ReducePhase, f64)>,
    pub tasks_observed: u32,
}

impl ReduceProfile {
    /// The Table 4.1 reduce-side dynamic feature vector:
    /// `[RED_SIZE_SEL, RED_PAIRS_SEL]`.
    pub fn dynamic_features(&self) -> Vec<f64> {
        vec![self.size_selectivity, self.pairs_selectivity]
    }
}

/// A complete job profile: independent map and reduce sub-profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// Job id of the *submitted* job this profile describes. For composite
    /// profiles this is a synthetic id.
    pub job_id: String,
    /// Dataset name of the map-side source run.
    pub dataset: String,
    /// Logical input bytes of the map-side source run.
    pub input_bytes: f64,
    /// Map tasks in the source run.
    pub num_map_tasks: u32,
    pub map: MapProfile,
    pub reduce: Option<ReduceProfile>,
    /// How trustworthy this profile is, in `(0, 1]`: the fraction of
    /// scheduled task attempts in the source run that ran to completion.
    /// 1.0 for fault-free runs; lower when the run was perturbed by
    /// failures, speculative kills, or node loss — the matcher widens its
    /// stage-1 tolerance for low-confidence probes instead of trusting
    /// their noisy features outright.
    pub confidence: f64,
}

impl JobProfile {
    /// Compose a profile from the map side of one profile and the reduce
    /// side of another (§4.3: "the returned job profile is the composition
    /// of these two profiles"). This is what serves previously unseen jobs.
    pub fn compose(map_source: &JobProfile, reduce_source: &JobProfile) -> JobProfile {
        JobProfile {
            job_id: format!(
                "composite({} ⊕ {})",
                map_source.map.source_job,
                reduce_source
                    .reduce
                    .as_ref()
                    .map(|r| r.source_job.as_str())
                    .unwrap_or("∅")
            ),
            dataset: map_source.dataset.clone(),
            input_bytes: map_source.input_bytes,
            num_map_tasks: map_source.num_map_tasks,
            map: map_source.map.clone(),
            reduce: reduce_source.reduce.clone(),
            // A composite is only as trustworthy as its weakest source.
            confidence: map_source.confidence.min(reduce_source.confidence),
        }
    }

    /// Whether this profile was stitched together from two different
    /// source jobs.
    pub fn is_composite(&self) -> bool {
        match &self.reduce {
            Some(r) => r.source_job != self.map.source_job,
            None => false,
        }
    }
}

/// Aggregate a [`JobProfile`] from a simulated run.
///
/// `dataflow` supplies the counter-equivalents a real Starfish profiler
/// reads from Hadoop counters (combiner in/out, reduce CPU per record);
/// `report` supplies observed phase timings, per-task dataflow, and the
/// noisy observed cost rates.
pub fn profile_from_run(spec: &JobSpec, dataflow: &Dataflow, report: &JobReport) -> JobProfile {
    let n_map = report.map_tasks.len().max(1) as f64;

    let tot_in_bytes: f64 = report.map_tasks.iter().map(|t| t.input_bytes).sum();
    let tot_in_records: f64 = report.map_tasks.iter().map(|t| t.input_records).sum();
    let tot_out_bytes: f64 = report.map_tasks.iter().map(|t| t.out_bytes).sum();
    let tot_out_records: f64 = report.map_tasks.iter().map(|t| t.out_records).sum();
    let tot_map_ops: f64 = report.map_tasks.iter().map(|t| t.map_cpu_ops).sum();

    let avg_rates = |pick: fn(&mrsim::CostRates) -> f64| -> f64 {
        report
            .map_tasks
            .iter()
            .map(|t| pick(&t.observed_rates))
            .sum::<f64>()
            / n_map
    };
    let reduce_rates = |pick: fn(&mrsim::CostRates) -> f64, default: f64| -> f64 {
        if report.reduce_tasks.is_empty() {
            default
        } else {
            report
                .reduce_tasks
                .iter()
                .map(|t| pick(&t.observed_rates))
                .sum::<f64>()
                / report.reduce_tasks.len() as f64
        }
    };

    let map_ops_per_record = safe_div(tot_map_ops, tot_in_records);
    let combine_ops = dataflow.combine.map(|c| c.ops_per_record);
    let map_cpu_ns_per_op = avg_rates(|r| r.cpu_ns_per_op);

    let cost_factors = CostFactors {
        read_hdfs_io_cost: avg_rates(|r| r.read_hdfs_ns_per_byte),
        write_hdfs_io_cost: reduce_rates(
            |r| r.write_hdfs_ns_per_byte,
            avg_rates(|r| r.write_hdfs_ns_per_byte),
        ),
        read_local_io_cost: avg_rates(|r| r.read_local_ns_per_byte),
        write_local_io_cost: avg_rates(|r| r.write_local_ns_per_byte),
        network_cost: reduce_rates(
            |r| r.network_ns_per_byte,
            avg_rates(|r| r.network_ns_per_byte),
        ),
        map_cpu_cost: map_ops_per_record * map_cpu_ns_per_op,
        reduce_cpu_cost: {
            let ops = report
                .reduce_tasks
                .first()
                .map(|t| t.reduce_ops_per_record)
                .unwrap_or(0.0);
            ops * reduce_rates(|r| r.cpu_ns_per_op, map_cpu_ns_per_op)
        },
        combine_cpu_cost: combine_ops.unwrap_or(0.0) * map_cpu_ns_per_op,
    };

    let mut map_phase_ms: Vec<(MapPhase, f64)> = Vec::new();
    for phase in [
        MapPhase::Setup,
        MapPhase::Read,
        MapPhase::Map,
        MapPhase::Collect,
        MapPhase::Spill,
        MapPhase::Merge,
    ] {
        map_phase_ms.push((phase, report.avg_map_phase_ms(phase)));
    }

    let map = MapProfile {
        source_job: report.job_id.clone(),
        dataset: report.dataset.clone(),
        input_bytes_total: dataflow.input_bytes,
        input_bytes_per_task: tot_in_bytes / n_map,
        input_records_per_task: tot_in_records / n_map,
        avg_input_record_bytes: safe_div(tot_in_bytes, tot_in_records),
        avg_intermediate_record_bytes: dataflow.avg_intermediate_record_bytes,
        size_selectivity: safe_div(tot_out_bytes, tot_in_bytes),
        pairs_selectivity: safe_div(tot_out_records, tot_in_records),
        combine_size_selectivity: dataflow.combine.map(|c| c.size_selectivity),
        combine_pairs_selectivity: dataflow.combine.map(|c| c.record_selectivity),
        map_ops_per_record,
        combine_ops_per_record: combine_ops,
        combine_ref_records: dataflow.combine.map(|c| c.ref_records),
        intermediate_key_alpha: dataflow.combine.map(|c| c.alpha),
        cost_factors,
        phase_ms: map_phase_ms,
        tasks_observed: report.map_tasks.len() as u32,
    };

    let reduce = if report.reduce_tasks.is_empty() {
        None
    } else {
        let in_records: f64 = report.reduce_tasks.iter().map(|t| t.in_records).sum();
        let in_bytes: f64 = report.reduce_tasks.iter().map(|t| t.shuffle_bytes).sum();
        let out_records: f64 = report.reduce_tasks.iter().map(|t| t.out_records).sum();
        let out_bytes: f64 = report.reduce_tasks.iter().map(|t| t.out_bytes).sum();
        let mut phase_ms: Vec<(ReducePhase, f64)> = Vec::new();
        for phase in [
            ReducePhase::Setup,
            ReducePhase::Shuffle,
            ReducePhase::Sort,
            ReducePhase::Reduce,
            ReducePhase::Write,
        ] {
            phase_ms.push((phase, report.avg_reduce_phase_ms(phase)));
        }
        Some(ReduceProfile {
            source_job: report.job_id.clone(),
            dataset: report.dataset.clone(),
            in_records,
            in_bytes,
            out_records,
            out_bytes,
            size_selectivity: safe_div(out_bytes, in_bytes),
            pairs_selectivity: safe_div(out_records, in_records),
            reduce_ops_per_record: report.reduce_tasks[0].reduce_ops_per_record,
            cost_factors,
            phase_ms,
            tasks_observed: report.reduce_tasks.len() as u32,
        })
    };

    let _ = spec; // spec kept in the signature for future schema needs
    JobProfile {
        job_id: report.job_id.clone(),
        dataset: report.dataset.clone(),
        input_bytes: dataflow.input_bytes,
        num_map_tasks: dataflow.num_map_tasks,
        map,
        reduce,
        // Profiles aggregated from runs perturbed by failures, speculative
        // kills, or node loss are marked partial instead of being silently
        // averaged in at full weight.
        confidence: report.attempt_success_rate(),
    }
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
    use mrjobs::jobs;
    use mrsim::{analyze, simulate_with_dataflow, ClusterSpec, JobConfig};

    fn full_profile(spec: &mrjobs::JobSpec, ds: &mrjobs::Dataset) -> JobProfile {
        let cl = ClusterSpec::ec2_c1_medium_16();
        let flow = analyze(spec, ds, &cl).unwrap();
        let report =
            simulate_with_dataflow(spec, &flow, &ds.name, &cl, &JobConfig::default(), 11).unwrap();
        profile_from_run(spec, &flow, &report)
    }

    #[test]
    fn word_count_profile_shape() {
        let p = full_profile(&jobs::word_count(), &corpus::random_text_1g());
        assert!(p.map.size_selectivity > 1.0);
        assert!(p.map.pairs_selectivity > 1.0);
        assert!(p.map.combine_pairs_selectivity.unwrap() < 1.0);
        let red = p.reduce.as_ref().unwrap();
        assert!(red.pairs_selectivity <= 1.0);
        assert_eq!(p.num_map_tasks, 16);
        assert_eq!(p.map.tasks_observed, 16);
    }

    #[test]
    fn sort_profile_has_unit_selectivity() {
        let p = full_profile(&jobs::sort(), &corpus::teragen_1g());
        assert!((p.map.size_selectivity - 1.0).abs() < 0.01);
        assert!((p.map.pairs_selectivity - 1.0).abs() < 1e-9);
        assert!(p.map.combine_size_selectivity.is_none());
        // Identity combine features default to 1.0 in the dynamic vector.
        assert_eq!(p.map.dynamic_features()[2], 1.0);
    }

    #[test]
    fn cost_factors_are_near_cluster_rates() {
        let p = full_profile(&jobs::word_count(), &corpus::random_text_1g());
        let base = ClusterSpec::ec2_c1_medium_16().rates;
        let cf = p.map.cost_factors;
        // Averaged over 16 noisy tasks: within ~30% of base.
        assert!((cf.read_hdfs_io_cost / base.read_hdfs_ns_per_byte - 1.0).abs() < 0.3);
        assert!(cf.map_cpu_cost > 0.0);
        assert!(cf.combine_cpu_cost > 0.0);
    }

    #[test]
    fn composition_stitches_sides() {
        let wc = full_profile(&jobs::word_count(), &corpus::random_text_1g());
        let co = full_profile(&jobs::word_cooccurrence_pairs(2), &corpus::random_text_1g());
        let comp = JobProfile::compose(&co, &wc);
        assert!(comp.is_composite());
        assert_eq!(comp.map.source_job, co.job_id);
        assert_eq!(comp.reduce.as_ref().unwrap().source_job, wc.job_id);
        assert!(!wc.is_composite());
    }

    #[test]
    fn phase_times_cover_all_phases() {
        let p = full_profile(&jobs::word_count(), &corpus::random_text_1g());
        assert_eq!(p.map.phase_ms.len(), 6);
        assert!(p.map.phase_ms.iter().all(|(_, ms)| *ms >= 0.0));
        let red = p.reduce.as_ref().unwrap();
        assert_eq!(red.phase_ms.len(), 5);
    }

    #[test]
    fn clean_runs_yield_full_confidence_faulted_runs_partial() {
        let clean = full_profile(&jobs::word_count(), &corpus::random_text_1g());
        assert_eq!(clean.confidence, 1.0);

        let spec = jobs::word_count();
        let ds = corpus::random_text_1g();
        let cl = ClusterSpec {
            faults: mrsim::FaultSpec {
                task_failure_prob: 0.3,
                ..mrsim::FaultSpec::default()
            },
            ..ClusterSpec::ec2_c1_medium_16()
        };
        let flow = analyze(&spec, &ds, &cl).unwrap();
        let report =
            simulate_with_dataflow(&spec, &flow, &ds.name, &cl, &JobConfig::default(), 42).unwrap();
        assert!(report.faults.failed_attempts > 0);
        let p = profile_from_run(&spec, &flow, &report);
        assert!(p.confidence < 1.0, "confidence {}", p.confidence);
        assert!(p.confidence > 0.0);

        // Composition keeps the weakest source's confidence.
        let comp = JobProfile::compose(&clean, &p);
        assert_eq!(comp.confidence, p.confidence);
    }

    #[test]
    fn dynamic_feature_vectors_have_fixed_length() {
        let p = full_profile(&jobs::word_count(), &corpus::random_text_1g());
        assert_eq!(p.map.dynamic_features().len(), 4);
        assert_eq!(p.reduce.as_ref().unwrap().dynamic_features().len(), 2);
        assert_eq!(
            CostFactors::names().len(),
            p.map.cost_factors.as_vec().len()
        );
    }
}
