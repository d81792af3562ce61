//! Deterministic, seedable fault injection for the simulated cluster.
//!
//! The paper's profiles come from a real EC2 Hadoop deployment where task
//! attempts fail, nodes straggle or disappear, and speculative execution
//! re-runs the slowest stragglers. [`FaultSpec`] parameterizes those
//! failure modes; the engine draws every fault decision from its own RNG
//! stream (seeded separately from the per-task noise stream) so turning
//! faults on does not perturb the noise draws of the fault-free model.
//!
//! There is one scheduler. Under `FaultSpec::default()` it runs the same
//! attempt queue with every draw of the `chaos` stream coming up empty:
//! one attempt per task, the noise stream untouched, and — on a cluster
//! with no straggler node either — all-zero [`FaultStats`]. The reports
//! it produces are pinned by value (`tests/tests/golden_reports.rs` and
//! the `f64::to_bits` regression test in `engine.rs`).

/// Fault-injection parameters of a simulated cluster.
///
/// All probabilities are per-draw in `[0, 1)`. The default is fully inert.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability that any single task attempt fails partway through
    /// (lost child JVM, disk error, ...). The attempt's partial runtime is
    /// wasted and the task is retried up to the configured attempt cap.
    pub task_failure_prob: f64,
    /// Probability that a worker node is lost at some point during the
    /// job. Attempts running on the node are killed; completed map output
    /// stored on the node is lost and the map tasks re-execute (when the
    /// job has a reduce phase that still needs the output).
    pub node_loss_prob: f64,
    /// Enable speculative re-execution of straggling map tasks.
    pub speculation: bool,
    /// A map task is a straggler when its duration exceeds this multiple
    /// of the median successful map duration.
    pub speculation_threshold: f64,
    /// At most this fraction of map tasks get speculative backups.
    pub speculation_cap: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            task_failure_prob: 0.0,
            node_loss_prob: 0.0,
            speculation: false,
            speculation_threshold: 1.5,
            speculation_cap: 0.1,
        }
    }
}

impl FaultSpec {
    /// A moderately faulty cluster: occasional attempt failures, rare node
    /// loss, speculation on — the profile of a busy shared EC2 deployment.
    pub fn flaky() -> Self {
        FaultSpec {
            task_failure_prob: 0.02,
            node_loss_prob: 0.01,
            speculation: true,
            ..FaultSpec::default()
        }
    }

    /// True when no fault mechanism can fire: no attempt fails, no node is
    /// lost, nothing is speculated. The scheduler then runs each task once,
    /// and [`simulate_runtime_ms`](crate::simulate_runtime_ms) may answer
    /// in closed form.
    pub fn is_inert(&self) -> bool {
        self.task_failure_prob <= 0.0 && self.node_loss_prob <= 0.0 && !self.speculation
    }

    /// Clamp probabilities into sane ranges (used defensively by the
    /// engine so a hand-built spec cannot loop forever).
    pub fn clamped(&self) -> FaultSpec {
        FaultSpec {
            task_failure_prob: self.task_failure_prob.clamp(0.0, 0.999),
            node_loss_prob: self.node_loss_prob.clamp(0.0, 1.0),
            speculation: self.speculation,
            speculation_threshold: self.speculation_threshold.max(1.0),
            speculation_cap: self.speculation_cap.clamp(0.0, 1.0),
        }
    }
}

/// Attempt-level accounting of a faulted run, carried on
/// [`crate::report::JobReport`]. The invariant (asserted by the chaos
/// property tests) is:
///
/// ```text
/// successful_attempts + failed_attempts + speculative_kills
///     == scheduled_attempts
/// ```
///
/// Where nothing can make the accounting differ from "every task ran
/// once" — an inert [`FaultSpec`] on a cluster without straggler nodes —
/// the stats are reported all-zero; readers take `scheduled_attempts > 0`
/// to mean the fault machinery was armed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Total task attempts handed to a slot (map + reduce + speculative).
    pub scheduled_attempts: u32,
    /// Attempts that ran to completion and whose result was kept or lost
    /// only later (node loss after completion re-executes the task but
    /// does not retroactively un-succeed the attempt).
    pub successful_attempts: u32,
    /// Attempts that died: injected task failures plus attempts killed by
    /// losing their node mid-run.
    pub failed_attempts: u32,
    /// Losers of speculative races (the copy whose result was discarded).
    pub speculative_kills: u32,
    /// Speculative backups that finished before the original attempt.
    pub speculative_wins: u32,
    /// Simulated time burned in failed/killed/discarded attempts, ms.
    pub wasted_ms: f64,
    /// Worker nodes lost during the job.
    pub nodes_lost: u32,
    /// Map tasks re-executed because their output died with a node.
    pub map_tasks_reexecuted: u32,
}

impl FaultStats {
    /// The conservation invariant checked by the chaos tests.
    pub fn is_conserved(&self) -> bool {
        self.successful_attempts + self.failed_attempts + self.speculative_kills
            == self.scheduled_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        assert!(FaultSpec::default().is_inert());
        assert!(!FaultSpec::flaky().is_inert());
        assert!(!FaultSpec {
            speculation: true,
            ..FaultSpec::default()
        }
        .is_inert());
    }

    #[test]
    fn clamping_bounds_probabilities() {
        let wild = FaultSpec {
            task_failure_prob: 7.0,
            node_loss_prob: -1.0,
            speculation: true,
            speculation_threshold: 0.2,
            speculation_cap: 3.0,
        };
        let c = wild.clamped();
        assert!(c.task_failure_prob < 1.0);
        assert_eq!(c.node_loss_prob, 0.0);
        assert!(c.speculation_threshold >= 1.0);
        assert!(c.speculation_cap <= 1.0);
    }

    #[test]
    fn zero_stats_are_conserved() {
        assert!(FaultStats::default().is_conserved());
    }
}
