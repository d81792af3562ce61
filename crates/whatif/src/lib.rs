//! # whatif — the What-If engine
//!
//! Starfish's WIF answers "how long would job `j = <p, d, r, c>` run if
//! the configuration `c` (or data `d`) changed?", given an execution
//! profile. This crate reconstructs the job's dataflow *from the profile's
//! statistics alone* (selectivities, per-record costs, record sizes) and
//! prices it with the same phase cost model the simulator uses
//! ([`mrsim::phases`]) — no noise, uniform partitions. Because the profile
//! is the only job-specific input, the quality of tuning decisions is
//! exactly as good as the profile PStorM supplies, which is the causal
//! chain the paper's experiments measure.

use mrjobs::JobSpec;
use mrsim::{
    simulate_runtime_ms, ClusterSpec, CombineFlow, CostRates, Dataflow, JobConfig, ReduceFlow,
    SimError, SplitFlow,
};
use profiler::JobProfile;

/// A what-if query: predict the runtime of `spec` on `input_bytes` of data
/// under `config`, assuming the job behaves like `profile` says.
#[derive(Debug, Clone)]
pub struct WhatIfQuery<'a> {
    pub spec: &'a JobSpec,
    pub profile: &'a JobProfile,
    /// Logical input size of the submitted job.
    pub input_bytes: u64,
    pub cluster: &'a ClusterSpec,
    pub config: &'a JobConfig,
}

/// A what-if query with the config-independent work hoisted out: the
/// reconstructed dataflow and the profile-implied cost rates depend only on
/// (profile, input size, cluster), so a search that prices hundreds of
/// configurations against one profile builds the plan once and calls
/// [`WhatIfPlan::predict`] per candidate.
#[derive(Debug, Clone)]
pub struct WhatIfPlan<'a> {
    spec: &'a JobSpec,
    flow: Dataflow,
    cluster: ClusterSpec,
}

impl<'a> WhatIfPlan<'a> {
    /// Reconstruct the dataflow and effective rates for `profile` scaled to
    /// `input_bytes`.
    pub fn new(
        spec: &'a JobSpec,
        profile: &JobProfile,
        input_bytes: u64,
        cluster: &ClusterSpec,
    ) -> Self {
        let flow = dataflow_from_profile(profile, input_bytes, cluster);
        let mut cluster = cluster.clone();
        cluster.heterogeneity = 0.0;
        // The WIF prices idealized executions: no fault injection, no
        // straggler nodes. Keeps predictions deterministic and in the
        // engine's closed form even for a faulty home cluster.
        cluster.faults = mrsim::FaultSpec::default();
        cluster.node_slowdown.clear();
        cluster.rates = rates_from_profile(profile, &cluster.rates);
        WhatIfPlan {
            spec,
            flow,
            cluster,
        }
    }

    /// Predict the virtual runtime (ms) under `config`.
    pub fn predict(&self, config: &JobConfig) -> Result<f64, SimError> {
        // deterministic: the WIF is an analytic model (seed 0, zero
        // heterogeneity, one flow, uniform shares — the engine answers in
        // closed form).
        simulate_runtime_ms(self.spec, &self.flow, "what-if", &self.cluster, config, 0)
    }
}

/// Predict the virtual runtime (ms) for a what-if query.
///
/// Returns an error for invalid configurations; never OOMs (the WIF has no
/// per-key information, so the memory model is not applied — matching
/// Starfish, whose WIF also reasons only over aggregate statistics).
///
/// One-shot convenience over [`WhatIfPlan`]; searches evaluating many
/// configurations should build the plan once instead.
pub fn predict_runtime_ms(q: &WhatIfQuery<'_>) -> Result<f64, SimError> {
    WhatIfPlan::new(q.spec, q.profile, q.input_bytes, q.cluster).predict(q.config)
}

/// Reconstruct a (uniform) dataflow from profile statistics, scaled to a
/// new input size.
pub fn dataflow_from_profile(
    profile: &JobProfile,
    input_bytes: u64,
    cluster: &ClusterSpec,
) -> Dataflow {
    let m = cluster.num_splits(input_bytes);
    let bytes_per_task = input_bytes as f64 / m as f64;
    let p = &profile.map;
    let records_per_task = if p.avg_input_record_bytes > 0.0 {
        bytes_per_task / p.avg_input_record_bytes
    } else {
        0.0
    };
    let out_bytes = bytes_per_task * p.size_selectivity;
    let out_records = records_per_task * p.pairs_selectivity;
    let per_task = vec![SplitFlow {
        input_records: records_per_task,
        input_bytes: bytes_per_task,
        out_records,
        out_bytes,
        map_ops: records_per_task * p.map_ops_per_record,
    }];
    let combine = match (p.combine_pairs_selectivity, p.combine_size_selectivity) {
        (Some(rec), Some(size)) => Some(CombineFlow {
            record_selectivity: rec,
            size_selectivity: size,
            ops_per_record: p.combine_ops_per_record.unwrap_or(0.0),
            ref_records: p.combine_ref_records.unwrap_or(out_records.max(1.0)),
            alpha: p.intermediate_key_alpha.unwrap_or(1.0),
        }),
        _ => None,
    };
    let reduce = profile.reduce.as_ref().map(|r| {
        // Raw reduce input equals total (uncombined) map output; job output
        // scales linearly with input relative to the profiled run.
        let in_bytes = out_bytes * m as f64;
        let in_records = out_records * m as f64;
        let growth = if profile.input_bytes > 0.0 {
            input_bytes as f64 / profile.input_bytes
        } else {
            1.0
        };
        ReduceFlow {
            in_records,
            in_bytes,
            out_records: r.out_records * growth,
            out_bytes: r.out_bytes * growth,
            ops_per_record: r.reduce_ops_per_record,
            distinct_keys: 0.0,
            max_group_bytes: 0.0,
            key_weights: vec![],
            uniform_weight: in_bytes,
        }
    });
    Dataflow {
        num_map_tasks: m,
        per_task,
        combine,
        reduce,
        input_bytes: input_bytes as f64,
        avg_intermediate_record_bytes: p.avg_intermediate_record_bytes,
    }
}

/// Effective cost rates implied by a profile's cost factors, with
/// auxiliary rates (sort, serde, codec) inherited from the cluster and
/// scaled by the profile's CPU speed ratio.
pub fn rates_from_profile(profile: &JobProfile, base: &CostRates) -> CostRates {
    let cf = &profile.map.cost_factors;
    let cpu_ns_per_op = if profile.map.map_ops_per_record > 0.0 && cf.map_cpu_cost > 0.0 {
        cf.map_cpu_cost / profile.map.map_ops_per_record
    } else {
        base.cpu_ns_per_op
    };
    let cpu_ratio = cpu_ns_per_op / base.cpu_ns_per_op;
    CostRates {
        read_hdfs_ns_per_byte: cf.read_hdfs_io_cost,
        write_hdfs_ns_per_byte: cf.write_hdfs_io_cost,
        read_local_ns_per_byte: cf.read_local_io_cost,
        write_local_ns_per_byte: cf.write_local_io_cost,
        network_ns_per_byte: cf.network_cost,
        cpu_ns_per_op,
        sort_ns_per_record: base.sort_ns_per_record * cpu_ratio,
        serde_ns_per_byte: base.serde_ns_per_byte * cpu_ratio,
        compress_ns_per_byte: base.compress_ns_per_byte * cpu_ratio,
        decompress_ns_per_byte: base.decompress_ns_per_byte * cpu_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
    use mrjobs::jobs;
    use mrsim::{simulate, simulate_with_dataflow};
    use profiler::collect_full_profile;

    fn cl() -> ClusterSpec {
        ClusterSpec::ec2_c1_medium_16()
    }

    fn profile_of(spec: &JobSpec, ds: &mrjobs::Dataset) -> JobProfile {
        collect_full_profile(spec, ds, &cl(), &JobConfig::default(), 21)
            .unwrap()
            .0
    }

    #[test]
    fn prediction_tracks_simulation_for_own_profile() {
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_count();
        let profile = profile_of(&spec, &ds);
        let cfg = JobConfig::default();
        let predicted = predict_runtime_ms(&WhatIfQuery {
            spec: &spec,
            profile: &profile,
            input_bytes: ds.logical_bytes,
            cluster: &cl(),
            config: &cfg,
        })
        .unwrap();
        let actual = simulate(&spec, &ds, &cl(), &cfg, 99).unwrap().runtime_ms;
        let rel = (predicted - actual).abs() / actual;
        assert!(
            rel < 0.35,
            "predicted {predicted} vs actual {actual} ({rel})"
        );
    }

    #[test]
    fn prediction_ranks_configurations_like_the_simulator() {
        // The WIF's job is to *rank* configurations; check the ordering on
        // a config pair with a large true gap.
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_cooccurrence_pairs(2);
        let profile = profile_of(&spec, &ds);
        let default_cfg = JobConfig::default();
        let tuned = JobConfig {
            num_reduce_tasks: 27,
            compress_map_output: true,
            ..JobConfig::default()
        };
        let q = |cfg| {
            predict_runtime_ms(&WhatIfQuery {
                spec: &spec,
                profile: &profile,
                input_bytes: ds.logical_bytes,
                cluster: &cl(),
                config: cfg,
            })
            .unwrap()
        };
        let p_default = q(&default_cfg);
        let p_tuned = q(&tuned);
        assert!(
            p_tuned < p_default / 2.0,
            "tuned {p_tuned} default {p_default}"
        );
        let a_default = simulate(&spec, &ds, &cl(), &default_cfg, 7)
            .unwrap()
            .runtime_ms;
        let a_tuned = simulate(&spec, &ds, &cl(), &tuned, 7).unwrap().runtime_ms;
        assert!(a_tuned < a_default, "simulator agrees on the direction");
    }

    #[test]
    fn prediction_scales_with_input_size() {
        let ds = corpus::wikipedia_1g();
        let spec = jobs::word_count();
        let profile = profile_of(&spec, &ds);
        let q = |bytes| {
            predict_runtime_ms(&WhatIfQuery {
                spec: &spec,
                profile: &profile,
                input_bytes: bytes,
                cluster: &cl(),
                config: &JobConfig::default(),
            })
            .unwrap()
        };
        let small = q(1 << 30);
        let large = q(35 * (1 << 30));
        assert!(large > 5.0 * small);
    }

    #[test]
    fn invalid_config_propagates() {
        let ds = corpus::wikipedia_1g();
        let spec = jobs::word_count();
        let profile = profile_of(&spec, &ds);
        let bad = JobConfig {
            io_sort_factor: 1,
            ..JobConfig::default()
        };
        let err = predict_runtime_ms(&WhatIfQuery {
            spec: &spec,
            profile: &profile,
            input_bytes: 1 << 30,
            cluster: &cl(),
            config: &bad,
        })
        .unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    /// The pre-plan implementation of [`predict_runtime_ms`]: rebuilds the
    /// dataflow per call and runs the full report-materializing simulation.
    /// The bit-identity oracle for the planned path.
    fn predict_runtime_ms_unplanned(q: &WhatIfQuery<'_>) -> Result<f64, SimError> {
        let flow = dataflow_from_profile(q.profile, q.input_bytes, q.cluster);
        let mut cluster = q.cluster.clone();
        cluster.heterogeneity = 0.0;
        cluster.faults = mrsim::FaultSpec::default();
        cluster.node_slowdown.clear();
        cluster.rates = rates_from_profile(q.profile, &q.cluster.rates);
        let report = simulate_with_dataflow(q.spec, &flow, "what-if", &cluster, q.config, 0)?;
        Ok(report.runtime_ms)
    }

    #[test]
    fn planned_prediction_is_bit_identical_to_unplanned() {
        let ds = corpus::wikipedia_35g();
        for spec in [jobs::word_count(), jobs::word_cooccurrence_pairs(2)] {
            let profile = profile_of(&spec, &ds);
            let plan = WhatIfPlan::new(&spec, &profile, ds.logical_bytes, &cl());
            for config in [
                JobConfig::default(),
                JobConfig {
                    num_reduce_tasks: 27,
                    compress_map_output: true,
                    ..JobConfig::default()
                },
                JobConfig {
                    use_combiner: false,
                    reduce_slowstart: 0.8,
                    io_sort_mb: 200,
                    ..JobConfig::default()
                },
            ] {
                let unplanned = predict_runtime_ms_unplanned(&WhatIfQuery {
                    spec: &spec,
                    profile: &profile,
                    input_bytes: ds.logical_bytes,
                    cluster: &cl(),
                    config: &config,
                })
                .unwrap();
                let planned = plan.predict(&config).unwrap();
                assert_eq!(
                    unplanned.to_bits(),
                    planned.to_bits(),
                    "planned {planned} vs unplanned {unplanned}"
                );
            }
        }
    }

    #[test]
    fn rates_reconstruction_roundtrips_io_costs() {
        let ds = corpus::wikipedia_1g();
        let profile = profile_of(&jobs::word_count(), &ds);
        let rates = rates_from_profile(&profile, &cl().rates);
        assert_eq!(
            rates.read_hdfs_ns_per_byte,
            profile.map.cost_factors.read_hdfs_io_cost
        );
        assert!(rates.cpu_ns_per_op > 0.0);
    }
}
