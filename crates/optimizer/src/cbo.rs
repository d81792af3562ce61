//! The cost-based optimizer (§2.3.1).
//!
//! Given an execution profile, the CBO searches the 14-parameter space and
//! asks the What-If engine for a predicted runtime at every candidate,
//! returning the best configuration found. The search is Starfish-style
//! *recursive random search*: uniform exploration rounds followed by
//! progressively narrower exploitation rounds around the incumbent.
//!
//! ## Performance architecture
//!
//! Two things make the search cheap without changing its answer:
//!
//! 1. **Plan hoisting** — the profile-derived dataflow and cost rates are
//!    built once per search ([`whatif::WhatIfPlan`]), not once per
//!    candidate.
//! 2. **Memoization** — predictions are cached under a canonical
//!    fingerprint of the configuration that ignores fields the job cannot
//!    observe (combiner knobs without a combiner, reduce-side knobs
//!    without a reduce phase), so re-sampled and effectively-equal
//!    candidates cost nothing.
//!
//! A round's candidates are generated up front and its distinct misses
//! priced in candidate order on the caller's thread: a prediction is a
//! closed form costing well under a microsecond (DESIGN.md §21), so a
//! whole round is cheaper than one thread spawn, and a `TuningService`
//! worker's search stays on that worker's core.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mrjobs::JobSpec;
use mrsim::{ClusterSpec, JobConfig, SimError};
use profiler::JobProfile;
use whatif::WhatIfPlan;

use crate::space::ConfigSpace;

/// CBO parameters.
#[derive(Debug, Clone)]
pub struct CboOptions {
    /// Total What-If invocations the search may spend.
    pub budget: usize,
    /// Exploitation rounds after the initial uniform round.
    pub rounds: usize,
    /// Box shrink factor per exploitation round.
    pub shrink: f64,
    /// RNG seed.
    pub seed: u64,
    /// Recorded, not read: the search evaluates on the caller's thread
    /// whatever this says. The field stays because the benchmark writes
    /// it into every run's `env` (DESIGN.md §21).
    pub parallel: bool,
}

impl Default for CboOptions {
    fn default() -> Self {
        CboOptions {
            budget: 300,
            rounds: 3,
            shrink: 0.4,
            seed: 0xcb0,
            parallel: false,
        }
    }
}

/// The CBO's answer: the recommended configuration and its predicted
/// runtime.
#[derive(Debug, Clone)]
pub struct Recommendation {
    pub config: JobConfig,
    pub predicted_ms: f64,
    /// How many What-If calls the search spent (memoized hits included:
    /// the budget bounds candidates considered, not distinct simulations).
    pub wif_calls: usize,
}

/// Canonical fingerprint of a [`JobConfig`] for prediction memoization.
///
/// Two configurations with equal keys are guaranteed to produce
/// bit-identical What-If predictions for the plan the key was built
/// against: fields that are inert for the job's dataflow (combiner knobs
/// when there is no combiner, reduce-side knobs when there is no reduce
/// phase) are zeroed out of the key. Only *validated* configurations may
/// be keyed — validation looks at inert fields too, so an invalid config
/// could otherwise collide with a valid one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ConfigKey([u64; ConfigSpace::DIMS]);

fn config_key(cfg: &JobConfig, has_combiner: bool, has_reduce: bool) -> ConfigKey {
    ConfigKey([
        cfg.io_sort_mb,
        cfg.io_sort_record_percent.to_bits(),
        cfg.io_sort_spill_percent.to_bits(),
        cfg.io_sort_factor as u64,
        (has_combiner && cfg.use_combiner) as u64,
        if has_combiner {
            cfg.min_num_spills_for_combine as u64
        } else {
            0
        },
        cfg.compress_map_output as u64,
        if has_reduce {
            cfg.reduce_slowstart.to_bits()
        } else {
            0
        },
        if has_reduce {
            cfg.num_reduce_tasks as u64
        } else {
            0
        },
        if has_reduce {
            cfg.shuffle_input_buffer_percent.to_bits()
        } else {
            0
        },
        if has_reduce {
            cfg.shuffle_merge_percent.to_bits()
        } else {
            0
        },
        if has_reduce {
            cfg.inmem_merge_threshold as u64
        } else {
            0
        },
        if has_reduce {
            cfg.reduce_input_buffer_percent.to_bits()
        } else {
            0
        },
        (has_reduce && cfg.compress_output) as u64,
    ])
}

/// Per-round evaluation bookkeeping surfaced through the observability
/// layer (`cbo.round` span attributes and `cbo.*` counters).
#[derive(Debug, Default, Clone, Copy)]
struct RoundStats {
    /// Candidates considered this round (what-if *calls*).
    candidates: usize,
    /// Candidates served from the memo (or duplicated within the round).
    memo_hits: usize,
    /// Distinct predictions actually simulated.
    evals: usize,
    /// Candidates rejected by configuration validation.
    invalid: usize,
}

/// Search for the best configuration for `spec` on `input_bytes` of data,
/// trusting `profile`.
///
/// Convenience wrapper over [`optimize_traced`] with observability
/// disabled — the hot path most callers (and all benchmarks) use.
pub fn optimize(
    spec: &JobSpec,
    profile: &JobProfile,
    input_bytes: u64,
    cluster: &ClusterSpec,
    opts: &CboOptions,
) -> Result<Recommendation, SimError> {
    optimize_traced(
        spec,
        profile,
        input_bytes,
        cluster,
        opts,
        &obs::Registry::disabled(),
    )
}

/// [`optimize`], recording the search into `reg`: a `cbo.search` span
/// with one `cbo.round` child per round (candidates, memo hits, distinct
/// evaluations, incumbent after the round) plus the `cbo.*` counters.
/// With a disabled registry this *is* `optimize` — the instrumentation
/// reduces to one branch per round, far below measurement noise.
pub fn optimize_traced(
    spec: &JobSpec,
    profile: &JobProfile,
    input_bytes: u64,
    cluster: &ClusterSpec,
    opts: &CboOptions,
    reg: &obs::Registry,
) -> Result<Recommendation, SimError> {
    let space = ConfigSpace::for_cluster(cluster);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut wif_calls = 0usize;

    let search_span = reg.span("cbo.search");
    search_span.attr("job_id", spec.job_id());
    search_span.attr("budget", opts.budget);
    search_span.attr("rounds", opts.rounds);

    let plan = WhatIfPlan::new(spec, profile, input_bytes, cluster);
    let has_combiner = plan.has_combiner();
    let has_reduce = plan.has_reduce();
    let mut memo: HashMap<ConfigKey, Result<f64, SimError>> = HashMap::new();

    // Evaluate one round's candidates: validate, look up the memo, price
    // the distinct misses, and hand back per-candidate results in
    // candidate order.
    let mut eval_round =
        |cands: &[JobConfig], calls: &mut usize| -> (Vec<Result<f64, SimError>>, RoundStats) {
            *calls += cands.len();
            let mut stats = RoundStats {
                candidates: cands.len(),
                ..RoundStats::default()
            };
            let keys: Vec<Result<ConfigKey, SimError>> = cands
                .iter()
                .map(|cfg| match cfg.validate() {
                    Ok(()) => Ok(config_key(cfg, has_combiner, has_reduce)),
                    Err(e) => Err(SimError::Config(e)),
                })
                .collect();
            stats.invalid = keys.iter().filter(|k| k.is_err()).count();
            let mut missing: Vec<(ConfigKey, &JobConfig)> = Vec::new();
            for (cfg, key) in cands.iter().zip(&keys) {
                if let Ok(key) = key {
                    if !memo.contains_key(key) && missing.iter().all(|(k, _)| k != key) {
                        missing.push((*key, cfg));
                    }
                }
            }
            stats.evals = missing.len();
            stats.memo_hits = cands.len() - stats.invalid - stats.evals;
            for (key, cfg) in missing {
                memo.insert(key, plan.predict(cfg));
            }
            let results = keys
                .into_iter()
                .map(|key| match key {
                    Ok(key) => memo[&key].clone(),
                    Err(e) => Err(e),
                })
                .collect();
            (results, stats)
        };

    let record_round = |reg: &obs::Registry, label: &str, stats: RoundStats, best_ms: f64| {
        if !reg.is_enabled() {
            return;
        }
        let span = reg.span("cbo.round");
        span.attr("round", label);
        span.attr("candidates", stats.candidates);
        span.attr("memo_hits", stats.memo_hits);
        span.attr("evals", stats.evals);
        span.attr("invalid", stats.invalid);
        span.attr("best_ms", best_ms);
        reg.incr("cbo.wif_calls", stats.candidates as u64);
        reg.incr("cbo.memo_hits", stats.memo_hits as u64);
        reg.incr("cbo.evals", stats.evals as u64);
        reg.incr("cbo.invalid_configs", stats.invalid as u64);
    };

    // Seed the incumbent with the job's own submitted configuration, so
    // the CBO never recommends something worse than "do nothing" (by its
    // own prediction).
    let submitted = JobConfig::submitted(spec);
    let mut best_cfg = submitted.clone();
    let (mut seed_results, seed_stats) =
        eval_round(std::slice::from_ref(&submitted), &mut wif_calls);
    let mut best_ms = seed_results.pop().expect("one result for one candidate")?;
    record_round(reg, "seed", seed_stats, best_ms);
    let mut best_x: Option<[f64; ConfigSpace::DIMS]> = None;

    // The seed spent one call; the rest is split evenly over the rounds,
    // and a budget too small for one candidate in every round buys only
    // the rounds it covers.
    let after_seed = opts.budget.saturating_sub(1);
    let per_round = (after_seed / (opts.rounds + 1)).max(1);
    let rounds_run = (opts.rounds + 1).min(after_seed / per_round);

    // Round 0: uniform exploration, then `rounds` exploitation rounds in
    // a shrinking box around the incumbent. Evaluation consumes no
    // randomness, and the reduction visits candidates in generation
    // order, so the seed alone fixes the incumbent trajectory.
    let mut radius = 0.5;
    for round in 0..rounds_run {
        let center = if round == 0 {
            None
        } else {
            radius *= opts.shrink;
            Some(match best_x {
                Some(x) => x,
                None => space.sample_uniform(&mut rng),
            })
        };
        let xs: Vec<[f64; ConfigSpace::DIMS]> = (0..per_round)
            .map(|_| match &center {
                None => space.sample_uniform(&mut rng),
                Some(c) => space.sample_near(&mut rng, c, radius),
            })
            .collect();
        let cfgs: Vec<JobConfig> = xs.iter().map(|x| space.decode(x)).collect();
        let (results, stats) = eval_round(&cfgs, &mut wif_calls);
        for ((x, cfg), res) in xs.into_iter().zip(cfgs).zip(results) {
            if let Ok(ms) = res {
                if ms < best_ms {
                    best_ms = ms;
                    best_cfg = cfg;
                    best_x = Some(x);
                }
            }
        }
        record_round(reg, &round.to_string(), stats, best_ms);
    }

    search_span.attr("wif_calls", wif_calls);
    search_span.attr("predicted_ms", best_ms);
    Ok(Recommendation {
        config: best_cfg,
        predicted_ms: best_ms,
        wif_calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
    use mrjobs::jobs;
    use mrsim::simulate;
    use profiler::collect_full_profile;
    use whatif::{predict_runtime_ms, WhatIfQuery};

    fn cl() -> ClusterSpec {
        ClusterSpec::ec2_c1_medium_16()
    }

    #[test]
    fn cbo_beats_default_for_cooccurrence() {
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_cooccurrence_pairs(2);
        let (profile, _) =
            collect_full_profile(&spec, &ds, &cl(), &JobConfig::submitted(&spec), 3).unwrap();
        let rec = optimize(
            &spec,
            &profile,
            ds.logical_bytes,
            &cl(),
            &CboOptions::default(),
        )
        .unwrap();
        let default_run = simulate(&spec, &ds, &cl(), &JobConfig::submitted(&spec), 5)
            .unwrap()
            .runtime_ms;
        let tuned_run = simulate(&spec, &ds, &cl(), &rec.config, 5)
            .unwrap()
            .runtime_ms;
        let speedup = default_run / tuned_run;
        assert!(speedup > 3.0, "speedup {speedup}");
        assert!(rec.config.num_reduce_tasks > 1);
    }

    #[test]
    fn cbo_never_predicts_worse_than_submitted() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let (profile, _) =
            collect_full_profile(&spec, &ds, &cl(), &JobConfig::submitted(&spec), 3).unwrap();
        let rec = optimize(
            &spec,
            &profile,
            ds.logical_bytes,
            &cl(),
            &CboOptions::default(),
        )
        .unwrap();
        let submitted_pred = predict_runtime_ms(&WhatIfQuery {
            spec: &spec,
            profile: &profile,
            input_bytes: ds.logical_bytes,
            cluster: &cl(),
            config: &JobConfig::submitted(&spec),
        })
        .unwrap();
        assert!(rec.predicted_ms <= submitted_pred);
    }

    #[test]
    fn cbo_respects_budget_roughly() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let (profile, _) =
            collect_full_profile(&spec, &ds, &cl(), &JobConfig::default(), 3).unwrap();
        let opts = CboOptions {
            budget: 40,
            ..CboOptions::default()
        };
        let rec = optimize(&spec, &profile, ds.logical_bytes, &cl(), &opts).unwrap();
        assert!(rec.wif_calls <= 45, "calls {}", rec.wif_calls);
    }

    /// `budget` bounds the what-if calls whatever `rounds` says; only the
    /// seed evaluation of the submitted configuration is unconditional.
    #[test]
    fn small_budgets_are_not_overspent() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let (profile, _) =
            collect_full_profile(&spec, &ds, &cl(), &JobConfig::default(), 3).unwrap();
        let submitted_pred = predict_runtime_ms(&WhatIfQuery {
            spec: &spec,
            profile: &profile,
            input_bytes: ds.logical_bytes,
            cluster: &cl(),
            config: &JobConfig::submitted(&spec),
        })
        .unwrap();
        for budget in 0..=8 {
            for rounds in 0..=3 {
                let opts = CboOptions {
                    budget,
                    rounds,
                    ..CboOptions::default()
                };
                let rec = optimize(&spec, &profile, ds.logical_bytes, &cl(), &opts).unwrap();
                assert!(
                    rec.wif_calls <= budget.max(1),
                    "budget {budget}, rounds {rounds}: {} calls",
                    rec.wif_calls
                );
                assert!(rec.predicted_ms <= submitted_pred);
            }
        }
        // The budgets the repository uses spend what they always spent.
        for (budget, spent) in [
            (30, 29),
            (40, 37),
            (60, 57),
            (80, 77),
            (120, 117),
            (300, 297),
        ] {
            let opts = CboOptions {
                budget,
                ..CboOptions::default()
            };
            let rec = optimize(&spec, &profile, ds.logical_bytes, &cl(), &opts).unwrap();
            assert_eq!(rec.wif_calls, spent, "budget {budget}");
        }
    }

    #[test]
    fn cbo_is_deterministic_in_seed() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let (profile, _) =
            collect_full_profile(&spec, &ds, &cl(), &JobConfig::default(), 3).unwrap();
        let opts = CboOptions {
            budget: 60,
            ..CboOptions::default()
        };
        let a = optimize(&spec, &profile, ds.logical_bytes, &cl(), &opts).unwrap();
        let b = optimize(&spec, &profile, ds.logical_bytes, &cl(), &opts).unwrap();
        assert_eq!(a.config, b.config);
        assert_eq!(a.predicted_ms.to_bits(), b.predicted_ms.to_bits());
        assert_eq!(a.wif_calls, b.wif_calls);
    }

    #[test]
    fn memo_key_separates_observable_fields() {
        let a = JobConfig::default();
        let b = JobConfig {
            num_reduce_tasks: 27,
            ..JobConfig::default()
        };
        // Reduce-side field: distinct keys for a reduce job, identical for
        // a map-only job.
        assert_ne!(config_key(&a, true, true), config_key(&b, true, true));
        assert_eq!(config_key(&a, true, false), config_key(&b, true, false));
        let c = JobConfig {
            use_combiner: false,
            ..JobConfig::default()
        };
        assert_ne!(config_key(&a, true, true), config_key(&c, true, true));
        assert_eq!(config_key(&a, false, true), config_key(&c, false, true));
        // Map-side fields always discriminate.
        let d = JobConfig {
            io_sort_mb: 200,
            ..JobConfig::default()
        };
        assert_ne!(config_key(&a, false, false), config_key(&d, false, false));
    }
}
