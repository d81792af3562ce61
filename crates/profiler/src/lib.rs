//! # profiler — Starfish-style execution profiles and the sampler
//!
//! * [`profile`] — [`profile::JobProfile`]: dataflow statistics
//!   (Table 4.1), cost factors (Table 4.2), per-phase timings; independent
//!   map/reduce sub-profiles and profile *composition* for unseen jobs.
//! * [`sampler`] — full-run profiling, PStorM's 1-task probe, and
//!   Starfish's 10% sampling, with the overhead accounting of Fig. 4.1.

pub mod profile;
pub mod sampler;

pub use profile::{profile_from_run, CostFactors, JobProfile, MapProfile, ReduceProfile};
pub use sampler::{
    collect_full_profile, collect_full_profile_with_dataflow, collect_sample_profile,
    collect_sample_profile_with_dataflow, SampleRun, SampleSize,
};
