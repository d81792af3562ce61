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
//! The profile-derived dataflow and cost rates are built once per search
//! ([`whatif::WhatIfPlan`]), not once per candidate, and each candidate is
//! priced as it is drawn, on the caller's thread: a prediction is a closed
//! form costing well under a microsecond (DESIGN.md §21), so a whole round
//! is cheaper than one thread spawn, and a `TuningService` worker's search
//! stays on that worker's core. Nothing is kept between candidates: two
//! samples of a continuous 14-dimensional space do not coincide, so there
//! is nothing a cache of predictions could serve (DESIGN.md §23).

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
    /// How many What-If calls the search spent: every candidate
    /// considered, the ones validation rejected included.
    pub wif_calls: usize,
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
/// with one `cbo.round` child per round (candidates, predictions made,
/// invalid candidates, incumbent after the round) plus the `cbo.*` counters.
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

    let search_span = reg.span("cbo.search");
    search_span.attr("job_id", spec.job_id());
    search_span.attr("budget", opts.budget);
    search_span.attr("rounds", opts.rounds);

    let plan = WhatIfPlan::new(spec, profile, input_bytes, cluster);

    let record_round = |label: &str, candidates: usize, invalid: usize, best_ms: f64| {
        if !reg.is_enabled() {
            return;
        }
        let span = reg.span("cbo.round");
        span.attr("round", label);
        span.attr("candidates", candidates);
        span.attr("evals", candidates - invalid);
        span.attr("invalid", invalid);
        span.attr("best_ms", best_ms);
        reg.incr("cbo.wif_calls", candidates as u64);
        reg.incr("cbo.evals", (candidates - invalid) as u64);
        reg.incr("cbo.invalid_configs", invalid as u64);
    };

    // Seed the incumbent with the job's own submitted configuration, so
    // the CBO never recommends something worse than "do nothing" (by its
    // own prediction).
    let mut best_cfg = JobConfig::submitted(spec);
    let mut best_ms = plan.predict(&best_cfg)?;
    let mut wif_calls = 1usize;
    record_round("seed", 1, 0, best_ms);
    let mut best_x: Option<[f64; ConfigSpace::DIMS]> = None;

    // The seed spent one call; the rest is split evenly over the rounds,
    // and a budget too small for one candidate in every round buys only
    // the rounds it covers.
    let after_seed = opts.budget.saturating_sub(1);
    let per_round = (after_seed / (opts.rounds + 1)).max(1);
    let rounds_run = (opts.rounds + 1).min(after_seed / per_round);

    // Round 0: uniform exploration, then `rounds` exploitation rounds in
    // a shrinking box around the incumbent *as the round began*. Each
    // candidate is validated and priced (`predict` does both) as it is
    // drawn; pricing consumes no randomness, so the seed alone fixes the
    // candidates and the incumbent trajectory.
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
        let mut invalid = 0usize;
        for _ in 0..per_round {
            let x = match &center {
                None => space.sample_uniform(&mut rng),
                Some(c) => space.sample_near(&mut rng, c, radius),
            };
            let cfg = space.decode(&x);
            match plan.predict(&cfg) {
                Ok(ms) if ms < best_ms => {
                    best_ms = ms;
                    best_cfg = cfg;
                    best_x = Some(x);
                }
                Err(SimError::Config(_)) => invalid += 1,
                _ => {}
            }
        }
        wif_calls += per_round;
        record_round(&round.to_string(), per_round, invalid, best_ms);
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
}
