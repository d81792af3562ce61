//! # mrsim — a discrete-event Hadoop MapReduce simulator
//!
//! The substrate standing in for the paper's 16-node EC2 Hadoop cluster.
//! It executes real UDFs (via the `mrjobs` interpreter) over dataset
//! samples to measure dataflow, then prices every phase of every map and
//! reduce task under a given configuration ([`config::JobConfig`], the 14
//! parameters of Table 2.1) and schedules tasks onto slots in waves.
//!
//! Modules:
//! * [`config`] — the tuning surface (Table 2.1) and buffer capacity model.
//! * [`cluster`] — nodes, slots, heap, base cost rates, heterogeneity.
//! * [`dataflow`] — config-independent dataflow measurement and scaling.
//! * [`phases`] — the pure per-task phase cost model (shared with the
//!   What-If engine in the `whatif` crate).
//! * [`engine`] — OOM model, per-task noise, slot scheduling, reports.
//! * [`faults`] — seedable fault injection: attempt failures, bounded
//!   retries, straggler nodes, speculation, and whole-node loss.
//! * [`report`] — per-task and per-job execution reports.
//! * [`sortkey`] — intermediate keys as order-preserving bytes: what
//!   [`dataflow`] sorts, groups and counts distinct keys on.
//! * [`trace`] — replaying a [`JobReport`]'s virtual timeline into the
//!   deterministic observability layer (`obs`).

pub mod cluster;
pub mod config;
pub mod dataflow;
pub mod engine;
pub mod error;
pub mod faults;
pub mod phases;
pub mod report;
pub mod sortkey;
pub mod trace;

pub use cluster::{ClusterSpec, CostRates, COMPRESSION_RATIO};
pub use config::{ConfigError, JobConfig};
pub use dataflow::{analyze, CombineFlow, Dataflow, ReduceFlow, SplitFlow};
pub use engine::{simulate, simulate_runtime_ms, simulate_with_dataflow};
pub use error::SimError;
pub use faults::{FaultSpec, FaultStats};
pub use phases::{MapPhase, ReducePhase};
pub use report::{JobReport, MapTaskReport, ReduceTaskReport};
