//! The four workloads. Each is a closed loop: a submitter blocks on its
//! job. A run is set-up, a measured phase of whole passes over the
//! workload's submissions, and a tail that flushes, closes and reopens
//! the store to check that every acknowledged profile survived.

use std::path::{Path, PathBuf};
use std::time::Duration;

use cfstore::StoreOptions;

use crate::metrics::Outcome;

mod common;
mod single;
mod tenants;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "suite_hits",
    "bigstore_reads",
    "churn_durable",
    "tenants_sharded",
];

/// A run times at least this many passes, however short the measuring
/// time: a submission's latency is the fastest of its executions, and the
/// fewer there are, the likelier all of them were disturbed.
pub const MIN_PASSES: usize = 3;

/// Sizes of a run: full, or `--quick` (1/20 of it, every check still on).
#[derive(Debug, Clone)]
pub struct Scale {
    /// `Some(n)`: only the first `n` cheap submissions of the suite.
    pub corpus_limit: Option<usize>,
    /// Profiles in the store of `bigstore_reads` and `churn_durable`.
    pub big_store: usize,
    /// Profiles per tenant in `tenants_sharded`.
    pub tenant_store: usize,
    /// Times the store is populated and opened for `setup_s`.
    pub setup_reps: usize,
    /// Close/reopen cycles behind `reopen_s`.
    pub reopen_cycles: usize,
    /// Ingests in the tail of a workload whose measured phase only reads.
    pub tail_ingests: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            corpus_limit: None,
            big_store: 4000,
            tenant_store: 500,
            setup_reps: 3,
            reopen_cycles: 11,
            tail_ingests: 200,
        }
    }

    pub fn quick() -> Self {
        Scale {
            corpus_limit: Some(6),
            big_store: 200,
            tenant_store: 25,
            setup_reps: 1,
            reopen_cycles: 2,
            tail_ingests: 3,
        }
    }
}

pub struct RunArgs {
    pub seed: u64,
    pub measure: Duration,
    pub trace: bool,
    pub scale: Scale,
    /// Directory every store of this run lives under.
    pub tmp: PathBuf,
}

/// Run workload `name`; `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs) -> Option<Outcome> {
    let default_cache = StoreOptions::default().block_cache_bytes;
    Some(match name {
        // The paper's steady state: every job of the suite resubmitted
        // against a store that holds exactly its profiles.
        "suite_hits" => single::run(
            &single::Spec {
                cheap_only: false,
                store_profiles: None,
                block_cache_bytes: default_cache,
                churn: false,
            },
            args,
        ),
        // 1 MiB of block cache under the ≈2.5 MB of `Profile/` rows the
        // matcher scans per call: the over-cache case.
        "bigstore_reads" => single::run(
            &single::Spec {
                cheap_only: true,
                store_profiles: Some(args.scale.big_store),
                block_cache_bytes: 1 << 20,
                churn: false,
            },
            args,
        ),
        // Same store, default cache (it fits), a write before every read.
        "churn_durable" => single::run(
            &single::Spec {
                cheap_only: true,
                store_profiles: Some(args.scale.big_store),
                block_cache_bytes: default_cache,
                churn: true,
            },
            args,
        ),
        "tenants_sharded" => tenants::run(args),
        _ => return None,
    })
}

/// Bytes of regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
