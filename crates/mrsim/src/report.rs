//! Execution reports: what the profiler consumes.
//!
//! Reports carry per-task phase timings, dataflow counters, and the
//! *observed* cost rates (base hardware rates times that task's node-
//! utilization noise) — the raw material from which Starfish-style
//! profiles are aggregated.

use crate::cluster::CostRates;
use crate::config::JobConfig;
use crate::faults::FaultStats;
use crate::phases::{MapPhase, ReducePhase};

/// Report of one simulated map task.
#[derive(Debug, Clone, PartialEq)]
pub struct MapTaskReport {
    pub task_id: u32,
    /// Virtual wall-clock start/end in ms since job submission.
    pub start_ms: f64,
    pub end_ms: f64,
    /// Phase durations in ns (noise included).
    pub phases: Vec<(MapPhase, f64)>,
    pub input_records: f64,
    pub input_bytes: f64,
    /// Raw map-function output (before combining).
    pub out_records: f64,
    pub out_bytes: f64,
    /// Final materialized output (after combining/compression).
    pub final_out_records: f64,
    pub final_out_bytes: f64,
    pub num_spills: u32,
    /// The effective cost rates this task observed.
    pub observed_rates: CostRates,
    /// Interpreter ops of the map UDF.
    pub map_cpu_ops: f64,
    /// 1-based attempt number of the winning attempt (1 when nothing
    /// failed; higher after retries).
    pub attempt: u32,
    /// True when this result came from a speculative backup that beat the
    /// original attempt.
    pub speculative: bool,
}

impl MapTaskReport {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    pub fn phase_ms(&self, phase: MapPhase) -> f64 {
        self.phases
            .iter()
            .filter(|(p, _)| *p == phase)
            .map(|(_, ns)| ns / 1e6)
            .sum()
    }
}

/// Report of one simulated reduce task.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceTaskReport {
    pub task_id: u32,
    pub start_ms: f64,
    pub end_ms: f64,
    pub phases: Vec<(ReducePhase, f64)>,
    /// Shuffled bytes (uncompressed view).
    pub shuffle_bytes: f64,
    pub in_records: f64,
    pub out_records: f64,
    pub out_bytes: f64,
    pub observed_rates: CostRates,
    /// Interpreter ops per reduce input record.
    pub reduce_ops_per_record: f64,
    /// 1-based attempt number of the winning attempt.
    pub attempt: u32,
}

impl ReduceTaskReport {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    pub fn phase_ms(&self, phase: ReducePhase) -> f64 {
        self.phases
            .iter()
            .filter(|(p, _)| *p == phase)
            .map(|(_, ns)| ns / 1e6)
            .sum()
    }
}

/// Report of one simulated job execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The job id ([`mrjobs::JobSpec::job_id`]).
    pub job_id: String,
    /// The dataset name.
    pub dataset: String,
    /// The configuration the job ran with.
    pub config: JobConfig,
    /// Total virtual job runtime in ms (including job-level overhead).
    pub runtime_ms: f64,
    /// Virtual time when the last map task finished.
    pub maps_done_ms: f64,
    pub map_tasks: Vec<MapTaskReport>,
    pub reduce_tasks: Vec<ReduceTaskReport>,
    /// Attempt accounting; all-zero when no fault can fire and no node
    /// straggles (see [`FaultStats`]).
    pub faults: FaultStats,
}

impl JobReport {
    /// Fraction of scheduled attempts that ran to completion — 1.0 when
    /// the accounting is all-zero (nothing could fail). The profiler uses
    /// this as the confidence of profiles built from the run.
    pub fn attempt_success_rate(&self) -> f64 {
        if self.faults.scheduled_attempts == 0 {
            1.0
        } else {
            f64::from(self.faults.successful_attempts) / f64::from(self.faults.scheduled_attempts)
        }
    }

    /// Mean duration of the map tasks, ms.
    pub fn avg_map_ms(&self) -> f64 {
        if self.map_tasks.is_empty() {
            return 0.0;
        }
        self.map_tasks
            .iter()
            .map(MapTaskReport::duration_ms)
            .sum::<f64>()
            / self.map_tasks.len() as f64
    }

    /// Mean duration of the reduce tasks, ms.
    pub fn avg_reduce_ms(&self) -> f64 {
        if self.reduce_tasks.is_empty() {
            return 0.0;
        }
        self.reduce_tasks
            .iter()
            .map(ReduceTaskReport::duration_ms)
            .sum::<f64>()
            / self.reduce_tasks.len() as f64
    }

    /// Average per-map-task phase time in ms.
    pub fn avg_map_phase_ms(&self, phase: MapPhase) -> f64 {
        if self.map_tasks.is_empty() {
            return 0.0;
        }
        self.map_tasks
            .iter()
            .map(|t| t.phase_ms(phase))
            .sum::<f64>()
            / self.map_tasks.len() as f64
    }

    /// Average per-reduce-task phase time in ms.
    pub fn avg_reduce_phase_ms(&self, phase: ReducePhase) -> f64 {
        if self.reduce_tasks.is_empty() {
            return 0.0;
        }
        self.reduce_tasks
            .iter()
            .map(|t| t.phase_ms(phase))
            .sum::<f64>()
            / self.reduce_tasks.len() as f64
    }
}
