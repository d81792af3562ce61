//! # mrjobs — MapReduce job model for PStorM-rs
//!
//! This crate is the foundation of the PStorM reproduction: it models what
//! a Hadoop MapReduce *job* is from the perspectives that matter to PStorM.
//!
//! * [`value`] — the record value model (`Writable`-like dynamic values
//!   with a total order and a serialized-size model).
//! * [`ir`] — a small statement-level IR for map/combine/reduce functions,
//!   with explicit control flow. The `staticanalysis` crate derives control
//!   flow graphs from this IR; the interpreter executes it. Because both
//!   views come from the same artifact, the CFG↔cost correlation the paper
//!   relies on is real.
//! * [`interp`] — the IR interpreter, which counts abstract CPU operations
//!   and emitted records/bytes.
//! * [`spec`] — [`spec::JobSpec`], the analogue of a configured Hadoop job:
//!   formatter/mapper/combiner/reducer class names, key/value types,
//!   partitioner, UDF bodies, and user parameters.
//! * [`jobs`] — the benchmark workload of Table 6.1 (word count,
//!   co-occurrence pairs/stripes, bigram relative frequency, inverted
//!   index, grep, sort, join, frequent itemset mining, item-based
//!   collaborative filtering, CloudBurst, and the 17 PigMix queries).

pub mod dataset;
pub mod interp;
pub mod ir;
pub mod jobs;
pub mod spec;
pub mod value;

pub use dataset::Dataset;
pub use interp::{run_map, run_reduce, ExecStats, Interp, InterpError, Sink};
pub use ir::{BinOp, Builtin, Expr, Stmt, Udf};
pub use spec::{JobSpec, JobSpecBuilder, Partitioner};
pub use value::{Record, Value, ValueType};
