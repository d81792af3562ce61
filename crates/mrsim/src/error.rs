//! Simulator errors.

use mrjobs::InterpError;
use std::fmt;

use crate::config::ConfigError;

/// Errors raised while simulating a job execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The dataset sample contains no records.
    EmptyDataset(String),
    /// A hand-built dataflow with no map task to schedule
    /// (`num_map_tasks == 0` or an empty `per_task`): not a job.
    EmptyDataflow { job: String },
    /// The sample's map output has more pairs or more key bytes than the
    /// 32-bit indices and offsets the grouping sorts on can address, or a
    /// single pair of 4 GiB.
    MapOutputTooLarge { job: String },
    /// A UDF failed during dataflow measurement.
    Udf {
        job: String,
        udf: String,
        source: InterpError,
    },
    /// Invalid job configuration.
    Config(ConfigError),
    /// A task exceeded the child JVM heap — the fate of the co-occurrence
    /// stripes job on the 35 GB dataset in the paper (§6.1.1).
    OutOfMemory {
        job: String,
        task: String,
        needed_bytes: u64,
        heap_bytes: u64,
    },
    /// Fault injection: a task kept failing until it exhausted its
    /// configured attempt cap (`mapred.{map,reduce}.max.attempts`), which
    /// fails the whole job, as in Hadoop.
    TaskAttemptsExhausted {
        job: String,
        task: String,
        attempts: u32,
    },
    /// Fault injection: every worker node was lost before the job could
    /// finish — nowhere left to schedule attempts.
    ClusterLost { job: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyDataset(name) => write!(f, "dataset `{name}` has no sample records"),
            SimError::EmptyDataflow { job } => {
                write!(f, "job `{job}`: dataflow has no map tasks")
            }
            SimError::MapOutputTooLarge { job } => {
                write!(
                    f,
                    "job `{job}`: the sample's map output exceeds 2^32 pairs, key bytes or bytes in one pair"
                )
            }
            SimError::Udf { job, udf, source } => {
                write!(f, "job `{job}`: UDF `{udf}` failed: {source}")
            }
            SimError::Config(e) => write!(f, "{e}"),
            SimError::OutOfMemory {
                job,
                task,
                needed_bytes,
                heap_bytes,
            } => write!(
                f,
                "job `{job}`: {task} exceeded heap: needs ~{needed_bytes} bytes, heap is {heap_bytes}"
            ),
            SimError::TaskAttemptsExhausted { job, task, attempts } => {
                write!(f, "job `{job}`: {task} failed all {attempts} attempts")
            }
            SimError::ClusterLost { job } => {
                write!(f, "job `{job}`: all worker nodes lost before completion")
            }
        }
    }
}

impl SimError {
    /// True for errors produced by injected cluster faults (transient: a
    /// retry with a different seed or a laxer attempt cap may succeed), as
    /// opposed to deterministic modelling errors (bad config, UDF failure,
    /// OOM) that recur on every retry.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            SimError::TaskAttemptsExhausted { .. } | SimError::ClusterLost { .. }
        )
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Udf { source, .. } => Some(source),
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}
