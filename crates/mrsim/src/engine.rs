//! The discrete-event job execution engine.
//!
//! Given a job, a dataset, a cluster, and a configuration, the engine:
//! 1. measures (or reuses) the config-independent dataflow,
//! 2. checks the dataflow's shape and the reduce-side memory model,
//! 3. prices every task *attempt* with per-attempt node-utilization noise,
//! 4. schedules attempts onto slots in waves (maps first; reducers gated by
//!    `mapred.reduce.slowstart.completed.maps` and by shuffle completion),
//!    retrying failed attempts, re-executing map output lost with its node
//!    and racing speculative backups against stragglers,
//! 5. returns a [`JobReport`] with everything the profiler needs.
//!
//! There is one scheduler (DESIGN.md §19): where nothing can fail it runs
//! the same attempt queue with every fault draw coming up empty. The
//! runtime-only entry [`simulate_runtime_ms`] writes the schedule down
//! instead of running it when every wave is uniform (DESIGN.md §21).

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mrjobs::{Dataset, JobSpec, ValueType};

use crate::cluster::{ClusterSpec, CostRates};
use crate::config::JobConfig;
use crate::dataflow::{analyze, CombineFlow, Dataflow, ReduceFlow, SplitFlow};
use crate::error::SimError;
use crate::faults::{FaultSpec, FaultStats};
use crate::phases::{
    map_task_costs, reduce_task_costs, MapTaskCosts, MapTaskInputs, ReducePhase, ReduceTaskCosts,
    ReduceTaskInputs,
};
use crate::report::{JobReport, MapTaskReport, ReduceTaskReport};

/// Fixed job-level overhead (submission, setup, commit), in ms.
const JOB_OVERHEAD_MS: f64 = 4_000.0;

/// Salt for the fault-decision RNG stream. Fault draws come from their own
/// stream (distinct from the `seed ^ 0x5eed` noise stream) so enabling
/// fault injection never perturbs the per-task noise sequence.
const FAULT_SEED_SALT: u64 = 0x00fa_17ed;

/// In-memory inflation of deserialized container values (Java object
/// overhead); drives the OOM model for Map/List-valued intermediate data.
const CONTAINER_INFLATION: f64 = 6.0;

/// Fraction of the child heap usable for materializing a reduce group.
const HEAP_USABLE_FRACTION: f64 = 0.75;

/// Simulate a job execution end to end (measures dataflow first).
pub fn simulate(
    spec: &JobSpec,
    dataset: &Dataset,
    cluster: &ClusterSpec,
    config: &JobConfig,
    seed: u64,
) -> Result<JobReport, SimError> {
    let dataflow = analyze(spec, dataset, cluster)?;
    simulate_with_dataflow(spec, &dataflow, &dataset.name, cluster, config, seed)
}

/// Simulate a job execution from a pre-measured dataflow. Reusing the
/// dataflow across configurations is how speedup experiments evaluate many
/// configurations cheaply.
pub fn simulate_with_dataflow(
    spec: &JobSpec,
    dataflow: &Dataflow,
    dataset_name: &str,
    cluster: &ClusterSpec,
    config: &JobConfig,
    seed: u64,
) -> Result<JobReport, SimError> {
    check_inputs(spec, dataflow, cluster, config)?;
    let mut sched = Scheduler::new(spec, dataflow, cluster, config, seed);
    let (map_tasks, map_out) = sched.run_maps()?;
    let mut map_ends: Vec<f64> = map_tasks.iter().map(|t| t.end_ms).collect();
    let (maps_done_ms, reducers_eligible_ms) = map_wave_gates(&mut map_ends, config);
    let reduce_tasks = match &dataflow.reduce {
        Some(red) => sched.run_reduces(red, &map_out, maps_done_ms, reducers_eligible_ms)?,
        None => Vec::new(),
    };
    let last_end = reduce_tasks
        .iter()
        .map(|t| t.end_ms)
        .fold(maps_done_ms, f64::max);

    Ok(JobReport {
        job_id: spec.job_id(),
        dataset: dataset_name.to_string(),
        config: config.clone(),
        runtime_ms: last_end + JOB_OVERHEAD_MS,
        maps_done_ms,
        map_tasks,
        reduce_tasks,
        // All-zero where nothing was armed; see `FaultStats`.
        faults: if is_undisturbed(cluster) {
            FaultStats::default()
        } else {
            sched.stats
        },
    })
}

/// True when no fault can fire and every node runs at nominal speed.
fn is_undisturbed(cluster: &ClusterSpec) -> bool {
    cluster.faults.is_inert() && cluster.is_uniform_speed()
}

fn map_inputs(flow: &SplitFlow, combine: Option<CombineFlow>) -> MapTaskInputs {
    MapTaskInputs {
        input_bytes: flow.input_bytes,
        input_records: flow.input_records,
        out_records: flow.out_records,
        out_bytes: flow.out_bytes,
        map_cpu_ops: flow.map_ops,
        combine,
    }
}

/// Final map output — of one task, or summed over the job's winning
/// attempts in task order (the order fixes the sums' last bits).
#[derive(Clone, Copy, Default, PartialEq)]
struct MapOutput {
    bytes_disk: f64,
    bytes_uncomp: f64,
    records: f64,
}

impl MapOutput {
    fn of(costs: &MapTaskCosts) -> Self {
        MapOutput {
            bytes_disk: costs.final_out_bytes,
            bytes_uncomp: costs.final_out_bytes_uncompressed,
            records: costs.final_out_records,
        }
    }

    fn add(&mut self, task: &MapOutput) {
        self.bytes_disk += task.bytes_disk;
        self.bytes_uncomp += task.bytes_uncomp;
        self.records += task.records;
    }
}

/// How many of `m` map tasks must have finished before reducers become
/// eligible under `reduce_slowstart`: at least one, at most all.
fn slowstart_count(config: &JobConfig, m: usize) -> usize {
    ((config.reduce_slowstart * m as f64).ceil() as usize).clamp(1, m)
}

/// Sort the map end times; return when the last map finished and when
/// reducers become eligible under `reduce_slowstart`.
fn map_wave_gates(map_ends: &mut [f64], config: &JobConfig) -> (f64, f64) {
    map_ends.sort_by(f64::total_cmp);
    let m = map_ends.len();
    (map_ends[m - 1], map_ends[slowstart_count(config, m) - 1])
}

/// The whole reduce wave as one task's inputs: the job-wide volumes every
/// reduce task takes its partition share of.
fn reduce_wave_inputs(
    red: &ReduceFlow,
    dataflow: &Dataflow,
    cluster: &ClusterSpec,
    config: &JobConfig,
    map_out: &MapOutput,
) -> ReduceTaskInputs {
    // Reduce input records depend on whether the combiner ran.
    let in_records = if config.use_combiner && dataflow.combine.is_some() {
        map_out.records
    } else {
        red.in_records
    };
    // Aggregating reducers cannot emit more records than they consume;
    // the output estimate (distinct-key based) and the combined-input
    // estimate are extrapolated separately, so reconcile them here.
    let (out_records, out_bytes) =
        if red.out_records < red.in_records && red.out_records > in_records {
            (in_records, red.out_bytes * (in_records / red.out_records))
        } else {
            (red.out_records, red.out_bytes)
        };
    ReduceTaskInputs {
        shuffle_bytes_disk: map_out.bytes_disk,
        shuffle_bytes: map_out.bytes_uncomp,
        in_records,
        num_segments: dataflow.num_map_tasks,
        reduce_ops_per_record: red.ops_per_record,
        out_bytes,
        out_records,
        heap_bytes: cluster.heap_bytes() as f64,
        map_compressed: config.compress_map_output,
    }
}

/// One reduce task's `share` of the wave.
fn share_of(wave: &ReduceTaskInputs, share: f64) -> ReduceTaskInputs {
    ReduceTaskInputs {
        shuffle_bytes_disk: wave.shuffle_bytes_disk * share,
        shuffle_bytes: wave.shuffle_bytes * share,
        in_records: wave.in_records * share,
        out_bytes: wave.out_bytes * share,
        out_records: wave.out_records * share,
        ..*wave
    }
}

/// A reduce task's `(shuffle, everything after)` time in ns.
fn shuffle_split(costs: &ReduceTaskCosts) -> (f64, f64) {
    let shuffle_ns: f64 = costs
        .phases
        .iter()
        .filter(|(p, _)| matches!(p, ReducePhase::Shuffle))
        .map(|(_, t)| t)
        .sum();
    (shuffle_ns, costs.total_ns() - shuffle_ns)
}

/// When a reduce task started at `start` ends: its shuffle overlaps map
/// execution but cannot complete before the last map task finished
/// producing output.
fn reduce_end_ms(start: f64, (shuffle_ns, post_shuffle_ns): (f64, f64), maps_done_ms: f64) -> f64 {
    (start + shuffle_ns / 1e6).max(maps_done_ms) + post_shuffle_ns / 1e6
}

/// Slots of one kind (map or reduce), `per_node` consecutive ones to a
/// worker, each with the virtual time it frees.
struct Slots {
    free: Vec<f64>,
    per_node: usize,
}

impl Slots {
    fn new(total: u32, per_node: u32, free_at: f64) -> Self {
        Slots {
            free: vec![free_at; total.max(1) as usize],
            per_node: per_node.max(1) as usize,
        }
    }

    /// The earliest-free slot whose node is still alive when the slot
    /// frees; `None` when every surviving node is gone.
    fn earliest_alive(&self, node_death: &[f64]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, t) in self.free.iter().enumerate() {
            if node_death[i / self.per_node] <= *t {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) if *t < self.free[b] => best = Some(i),
                _ => {}
            }
        }
        best
    }
}

/// A map task's current winning attempt.
struct MapWin {
    report: MapTaskReport,
    node: usize,
    out: MapOutput,
}

/// Why an attempt did not finish.
enum Died {
    /// Injected failure partway through; counts against the attempt cap.
    Failed,
    /// Its node was lost under it; the kill does not count against the
    /// task's attempt budget (as in Hadoop).
    Killed,
}

/// The attempt scheduler: bounded task retries, straggler nodes,
/// whole-node loss with re-execution of lost map output, and speculative
/// backups for the slowest map stragglers. Noise is drawn per *attempt*,
/// so a retry pattern shifts the noise sequence of the tasks after it.
struct Scheduler<'a> {
    spec: &'a JobSpec,
    dataflow: &'a Dataflow,
    cluster: &'a ClusterSpec,
    config: &'a JobConfig,
    faults: FaultSpec,
    noise: StdRng,
    chaos: StdRng,
    /// Virtual time each worker dies; infinite for survivors.
    node_death: Vec<f64>,
    stats: FaultStats,
}

impl<'a> Scheduler<'a> {
    fn new(
        spec: &'a JobSpec,
        dataflow: &'a Dataflow,
        cluster: &'a ClusterSpec,
        config: &'a JobConfig,
        seed: u64,
    ) -> Self {
        let faults = cluster.faults.clamped();
        let mut chaos = StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
        // Deaths are placed uniformly inside a rough fault-free makespan
        // estimate; a death drawn past the real end simply never fires.
        let est = estimate_makespan_ms(dataflow, cluster, config);
        let mut node_death = vec![f64::INFINITY; cluster.workers.max(1) as usize];
        for d in node_death.iter_mut() {
            if chaos.gen::<f64>() < faults.node_loss_prob {
                *d = chaos.gen::<f64>() * est;
            }
        }
        let stats = FaultStats {
            nodes_lost: node_death.iter().filter(|d| d.is_finite()).count() as u32,
            ..FaultStats::default()
        };
        Scheduler {
            spec,
            dataflow,
            cluster,
            config,
            faults,
            noise: StdRng::seed_from_u64(seed ^ 0x5eed),
            chaos,
            node_death,
            stats,
        }
    }

    /// The rates one attempt observes on `node`: fresh utilization noise
    /// times the node's persistent slowdown.
    fn draw_rates(&mut self, node: usize) -> CostRates {
        let sigma = self.cluster.heterogeneity;
        let io_f = lognormal(&mut self.noise, sigma);
        let cpu_f = lognormal(&mut self.noise, sigma);
        let slow = self.cluster.node_slowdown_factor(node);
        self.cluster.rates.jittered(io_f * slow, cpu_f * slow)
    }

    /// Decide the fate of a priced attempt that would hold `slot` over
    /// `[start, end]`: it may fail partway (injected), be killed by losing
    /// its node, or finish. Frees the slot accordingly and tallies a death.
    fn settle(
        &mut self,
        slots: &mut Slots,
        slot: usize,
        start: f64,
        dur_ms: f64,
        end: f64,
    ) -> Result<(), Died> {
        let death = self.node_death[slot / slots.per_node];
        self.stats.scheduled_attempts += 1;
        let (freed, fate) = if self.chaos.gen::<f64>() < self.faults.task_failure_prob {
            let died_at = (start + dur_ms * self.chaos.gen::<f64>()).min(death);
            (died_at, Err(Died::Failed))
        } else if death < end {
            (death, Err(Died::Killed))
        } else {
            (end, Ok(()))
        };
        slots.free[slot] = freed;
        if fate.is_err() {
            self.stats.failed_attempts += 1;
            self.stats.wasted_ms += freed - start;
        }
        fate
    }

    /// Price and run one attempt of map task `task_id` on `slot` from
    /// `start`.
    fn map_attempt(
        &mut self,
        slots: &mut Slots,
        slot: usize,
        start: f64,
        task_id: u32,
        attempt: u32,
        speculative: bool,
    ) -> Result<MapWin, Died> {
        let node = slot / slots.per_node;
        let rates = self.draw_rates(node);
        let per_task = &self.dataflow.per_task;
        let flow = &per_task[task_id as usize % per_task.len()];
        let costs = map_task_costs(
            self.config,
            &rates,
            &map_inputs(flow, self.dataflow.combine),
        );
        let dur_ms = costs.total_ns() / 1e6;
        let end = start + dur_ms;
        self.settle(slots, slot, start, dur_ms, end)?;
        let out = MapOutput::of(&costs);
        Ok(MapWin {
            report: MapTaskReport {
                task_id,
                start_ms: start,
                end_ms: end,
                phases: costs.phases,
                input_records: flow.input_records,
                input_bytes: flow.input_bytes,
                out_records: flow.out_records,
                out_bytes: flow.out_bytes,
                final_out_records: costs.final_out_records,
                final_out_bytes: costs.final_out_bytes,
                num_spills: costs.num_spills,
                observed_rates: rates,
                map_cpu_ops: flow.map_ops,
                attempt,
                speculative,
            },
            node,
            out,
        })
    }

    /// Run the queue of pending `(task, attempt)` pairs dry: each goes to
    /// the earliest-free slot on a live node, a failed attempt requeues as
    /// the next attempt up to `cap`, a killed one requeues as itself.
    fn drain(
        &mut self,
        kind: &str,
        cap: u32,
        pending: &mut VecDeque<(u32, u32)>,
        slots: &mut Slots,
        mut run: impl FnMut(&mut Self, &mut Slots, usize, u32, u32) -> Result<(), Died>,
    ) -> Result<(), SimError> {
        while let Some((task_id, attempt)) = pending.pop_front() {
            if attempt > cap {
                return Err(SimError::TaskAttemptsExhausted {
                    job: self.spec.job_id(),
                    task: format!("{kind}-{task_id}"),
                    attempts: cap,
                });
            }
            let Some(slot) = slots.earliest_alive(&self.node_death) else {
                return Err(SimError::ClusterLost {
                    job: self.spec.job_id(),
                });
            };
            match run(self, slots, slot, task_id, attempt) {
                Ok(()) => self.stats.successful_attempts += 1,
                Err(Died::Failed) => pending.push_back((task_id, attempt + 1)),
                Err(Died::Killed) => pending.push_back((task_id, attempt)),
            }
        }
        Ok(())
    }

    /// The map wave: every task's winning attempt in task order, and their
    /// summed output.
    fn run_maps(&mut self) -> Result<(Vec<MapTaskReport>, MapOutput), SimError> {
        let m = self.dataflow.num_map_tasks;
        let cluster = self.cluster;
        let mut slots = Slots::new(cluster.map_slots(), cluster.map_slots_per_node, 0.0);
        let mut winners: Vec<Option<MapWin>> = (0..m).map(|_| None).collect();
        let mut pending: VecDeque<(u32, u32)> = (0..m).map(|t| (t, 1)).collect();
        for round in 0.. {
            self.drain(
                "map",
                self.config.max_map_attempts,
                &mut pending,
                &mut slots,
                |s, slots, slot, task_id, attempt| {
                    let start = slots.free[slot];
                    let win = s.map_attempt(slots, slot, start, task_id, attempt, false)?;
                    winners[task_id as usize] = Some(win);
                    Ok(())
                },
            )?;
            if round == 0 && self.faults.speculation && m > 1 {
                self.speculate(&mut slots, &mut winners);
            }
            // Map output lives on the local disk of the node that ran the
            // task; when that node is (or will be) lost and a reduce phase
            // still needs the output, the task re-executes elsewhere.
            // Iterate until every winning attempt sits on a surviving node.
            if self.dataflow.reduce.is_some() {
                for t in 0..m {
                    let w = won(&winners, t);
                    if self.node_death[w.node].is_finite() {
                        self.stats.map_tasks_reexecuted += 1;
                        self.stats.wasted_ms += w.report.duration_ms();
                        pending.push_back((t, 1));
                    }
                }
            }
            if pending.is_empty() {
                break;
            }
        }
        let mut total = MapOutput::default();
        let reports = winners
            .into_iter()
            .map(|w| {
                let w = w.expect("a drained queue leaves every map task a winner");
                total.add(&w.out);
                w.report
            })
            .collect();
        Ok((reports, total))
    }

    /// Race one backup attempt against each of the slowest map stragglers,
    /// slowest first, bounded by the speculation cap.
    fn speculate(&mut self, slots: &mut Slots, winners: &mut [Option<MapWin>]) {
        let m = winners.len() as u32;
        let dur = |winners: &[Option<MapWin>], t: u32| won(winners, t).report.duration_ms();
        let mut durs: Vec<f64> = (0..m).map(|t| dur(winners, t)).collect();
        durs.sort_by(f64::total_cmp);
        let threshold = durs[durs.len() / 2] * self.faults.speculation_threshold;
        let max_backups = (f64::from(m) * self.faults.speculation_cap).ceil() as usize;
        let mut stragglers: Vec<u32> = (0..m).filter(|t| dur(winners, *t) > threshold).collect();
        stragglers.sort_by(|a, b| dur(winners, *b).total_cmp(&dur(winners, *a)));
        stragglers.truncate(max_backups);
        for task_id in stragglers {
            let orig = &won(winners, task_id).report;
            let (orig_start, orig_end, orig_attempt) = (orig.start_ms, orig.end_ms, orig.attempt);
            let Some(slot) = slots.earliest_alive(&self.node_death) else {
                break; // cluster nearly gone; no capacity to speculate
            };
            let start = slots.free[slot].max(orig_start);
            if start >= orig_end {
                continue; // original finished before a backup could launch
            }
            let Ok(backup) = self.map_attempt(slots, slot, start, task_id, orig_attempt + 1, true)
            else {
                continue; // the original result stands
            };
            // One of the two completed copies is discarded. When the backup
            // wins it counts as the success and the original attempt —
            // already tallied as a success when the wave drained — is
            // reclassified as the speculative kill, so
            // `successful_attempts` nets out unchanged.
            self.stats.speculative_kills += 1;
            if backup.report.end_ms < orig_end {
                self.stats.speculative_wins += 1;
                self.stats.wasted_ms += backup.report.end_ms - orig_start;
                winners[task_id as usize] = Some(backup);
            } else {
                self.stats.wasted_ms += backup.report.end_ms - start;
            }
        }
    }

    /// The reduce wave, in task order.
    fn run_reduces(
        &mut self,
        red: &ReduceFlow,
        map_out: &MapOutput,
        maps_done_ms: f64,
        reducers_eligible_ms: f64,
    ) -> Result<Vec<ReduceTaskReport>, SimError> {
        let (cluster, config) = (self.cluster, self.config);
        let shares = red.partition_shares(config.num_reduce_tasks, self.spec.partitioner);
        let wave = reduce_wave_inputs(red, self.dataflow, cluster, config, map_out);
        let mut slots = Slots::new(
            cluster.reduce_slots(),
            cluster.reduce_slots_per_node,
            reducers_eligible_ms,
        );
        let mut pending: VecDeque<(u32, u32)> = (0..shares.len() as u32).map(|t| (t, 1)).collect();
        let mut reports = Vec::with_capacity(shares.len());
        self.drain(
            "reduce",
            config.max_reduce_attempts,
            &mut pending,
            &mut slots,
            |s, slots, slot, task_id, attempt| {
                let start = slots.free[slot];
                let rates = s.draw_rates(slot / slots.per_node);
                let inputs = share_of(&wave, shares[task_id as usize]);
                let costs = reduce_task_costs(config, &rates, &inputs);
                let end = reduce_end_ms(start, shuffle_split(&costs), maps_done_ms);
                s.settle(slots, slot, start, end - start, end)?;
                reports.push(ReduceTaskReport {
                    task_id,
                    start_ms: start,
                    end_ms: end,
                    phases: costs.phases,
                    shuffle_bytes: inputs.shuffle_bytes,
                    in_records: inputs.in_records,
                    out_records: inputs.out_records,
                    out_bytes: inputs.out_bytes,
                    observed_rates: rates,
                    reduce_ops_per_record: red.ops_per_record,
                    attempt,
                });
                Ok(())
            },
        )?;
        reports.sort_by_key(|t| t.task_id);
        Ok(reports)
    }
}

fn won(winners: &[Option<MapWin>], task_id: u32) -> &MapWin {
    winners[task_id as usize]
        .as_ref()
        .expect("a drained queue leaves every map task a winner")
}

/// Duration (ms) and final output of each distinct per-task flow at the
/// cluster's base rates.
fn price_flows(
    dataflow: &Dataflow,
    cluster: &ClusterSpec,
    config: &JobConfig,
) -> Vec<(f64, MapOutput)> {
    let price = |flow| {
        let inputs = map_inputs(flow, dataflow.combine);
        let costs = map_task_costs(config, &cluster.rates, &inputs);
        (costs.total_ns() / 1e6, MapOutput::of(&costs))
    };
    dataflow.per_task.iter().map(price).collect()
}

/// Rough fault-free makespan estimate used to place node deaths inside
/// the job's lifetime. Accuracy only shapes *where* deaths land; any
/// deterministic estimate keeps the simulation reproducible.
fn estimate_makespan_ms(dataflow: &Dataflow, cluster: &ClusterSpec, config: &JobConfig) -> f64 {
    let per_flow = price_flows(dataflow, cluster, config);
    let mut total = 0.0;
    for task_id in 0..dataflow.num_map_tasks {
        total += per_flow[task_id as usize % per_flow.len()].0;
    }
    let wave = total / f64::from(cluster.map_slots().max(1));
    wave * if dataflow.reduce.is_some() { 3.0 } else { 1.5 } + JOB_OVERHEAD_MS
}

/// Predict only the job runtime (ms) from a pre-measured dataflow,
/// without materializing per-task reports. This is the What-If engine's
/// unit cost: the CBO prices hundreds of configurations per search.
///
/// On a deterministic cluster (`heterogeneity == 0`, no fault able to
/// fire, no straggler node), when every map task costs the same and every
/// partition takes the same share — the dataflow a profile implies
/// (`whatif::dataflow_from_profile`) is both — the schedule can be written
/// down: slots fill wave by wave, so a phase of `n` tasks over `s` slots is
/// `n.div_ceil(s)` steps, not `n` slot assignments. The result is
/// bit-identical to `simulate_with_dataflow(..).runtime_ms` (asserted by
/// tests) because a wave's end is reached by the same repeated addition a
/// slot's free time is, the map output is summed by the same `m` adds in
/// task order, and every cost comes from the helpers the scheduler uses.
/// Anything else — several distinct flows, skewed partitions, noise, armed
/// faults, stragglers — is the scheduler's.
pub fn simulate_runtime_ms(
    spec: &JobSpec,
    dataflow: &Dataflow,
    dataset_name: &str,
    cluster: &ClusterSpec,
    config: &JobConfig,
    seed: u64,
) -> Result<f64, SimError> {
    let scheduled = || {
        simulate_with_dataflow(spec, dataflow, dataset_name, cluster, config, seed)
            .map(|report| report.runtime_ms)
    };
    if cluster.heterogeneity > 0.0 || !is_undisturbed(cluster) {
        return scheduled();
    }
    check_inputs(spec, dataflow, cluster, config)?;

    // ---- Map phase ------------------------------------------------------
    let flow_costs = price_flows(dataflow, cluster, config);
    let (dur_ms, task_out) = flow_costs[0];
    if flow_costs.iter().any(|c| *c != flow_costs[0]) {
        return scheduled();
    }
    let m = dataflow.num_map_tasks;
    let mut map_out = MapOutput::default();
    for _ in 0..m {
        map_out.add(&task_out);
    }
    // Task `t` runs in wave `t / slots`; sorted, the end times are each
    // wave's end repeated once per task of the wave.
    let slots = cluster.map_slots().max(1);
    let gate_wave = (slowstart_count(config, m as usize) as u32 - 1) / slots;
    let (mut maps_done_ms, mut reducers_eligible_ms) = (0.0, 0.0);
    for wave in 0..m.div_ceil(slots) {
        maps_done_ms += dur_ms;
        if wave == gate_wave {
            reducers_eligible_ms = maps_done_ms;
        }
    }

    // ---- Reduce phase ---------------------------------------------------
    let mut last_end = maps_done_ms;
    if let Some(red) = &dataflow.reduce {
        let shares = red.partition_shares(config.num_reduce_tasks, spec.partitioner);
        if shares.iter().any(|s| *s != shares[0]) {
            return scheduled();
        }
        let wave = reduce_wave_inputs(red, dataflow, cluster, config, &map_out);
        let costs = reduce_task_costs(config, &cluster.rates, &share_of(&wave, shares[0]));
        let split = shuffle_split(&costs);
        // Every slot frees at the same time, so each wave starts where the
        // one before it ended.
        let mut end = reducers_eligible_ms;
        for _ in 0..(shares.len() as u32).div_ceil(cluster.reduce_slots().max(1)) {
            end = reduce_end_ms(end, split, maps_done_ms);
            last_end = last_end.max(end);
        }
    }

    Ok(last_end + JOB_OVERHEAD_MS)
}

/// What both public entries require before any task is priced: a valid
/// configuration, a dataflow with at least one map task (its fields are
/// public, so a hand-built one may have none), and the reduce-side memory
/// model (see DESIGN.md): jobs with container-typed intermediate values
/// must materialize merged groups; if the largest scaled group inflated by
/// Java object overhead exceeds the usable heap, the task dies with an OOM
/// — as the co-occurrence stripes job did on the 35 GB dataset in the paper.
fn check_inputs(
    spec: &JobSpec,
    dataflow: &Dataflow,
    cluster: &ClusterSpec,
    config: &JobConfig,
) -> Result<(), SimError> {
    config.validate()?;
    if dataflow.num_map_tasks == 0 || dataflow.per_task.is_empty() {
        return Err(SimError::EmptyDataflow { job: spec.job_id() });
    }
    let Some(red) = &dataflow.reduce else {
        return Ok(());
    };
    if !matches!(spec.map_out_val, ValueType::Map | ValueType::List) {
        return Ok(());
    }
    let combine_shrink = match (config.use_combiner, dataflow.combine) {
        (true, Some(c)) => c.size_selectivity,
        _ => 1.0,
    };
    let needed = red.max_group_bytes * combine_shrink * CONTAINER_INFLATION;
    let budget = cluster.heap_bytes() as f64 * HEAP_USABLE_FRACTION;
    if needed > budget {
        return Err(SimError::OutOfMemory {
            job: spec.job_id(),
            task: "reduce".to_string(),
            needed_bytes: needed as u64,
            heap_bytes: cluster.heap_bytes(),
        });
    }
    Ok(())
}

/// A log-normal multiplicative noise factor with median 1.
fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    // Box-Muller.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
    use mrjobs::jobs;

    fn cluster() -> ClusterSpec {
        ClusterSpec::ec2_c1_medium_16()
    }

    #[test]
    fn word_count_runs_and_is_deterministic() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let a = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 7).unwrap();
        let b = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 7).unwrap();
        assert_eq!(a.runtime_ms, b.runtime_ms);
        assert_eq!(a.map_tasks.len(), 16);
        assert_eq!(a.reduce_tasks.len(), 1);
        assert!(a.runtime_ms > JOB_OVERHEAD_MS);
    }

    #[test]
    fn different_seeds_jitter_runtimes() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let a = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 1).unwrap();
        let b = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 2).unwrap();
        assert_ne!(a.runtime_ms, b.runtime_ms);
        // ... but not wildly: same config, same data.
        let ratio = a.runtime_ms / b.runtime_ms;
        assert!((0.5..2.0).contains(&ratio));
    }

    #[test]
    fn more_reducers_speed_up_shuffle_heavy_jobs() {
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_cooccurrence_pairs(2);
        let one = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 3).unwrap();
        let many = JobConfig {
            num_reduce_tasks: 27,
            ..JobConfig::default()
        };
        let tuned = simulate(&spec, &ds, &cluster(), &many, 3).unwrap();
        assert!(
            tuned.runtime_ms < one.runtime_ms / 2.0,
            "27 reducers {} vs 1 reducer {}",
            tuned.runtime_ms,
            one.runtime_ms
        );
    }

    #[test]
    fn slowstart_gates_reducer_start() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let eager = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 3).unwrap();
        let lazy_cfg = JobConfig {
            reduce_slowstart: 1.0,
            ..JobConfig::default()
        };
        let lazy = simulate(&spec, &ds, &cluster(), &lazy_cfg, 3).unwrap();
        let eager_start = eager.reduce_tasks[0].start_ms;
        let lazy_start = lazy.reduce_tasks[0].start_ms;
        assert!(lazy_start >= eager_start);
        assert!((lazy_start - lazy.maps_done_ms).abs() < 1e-6);
    }

    #[test]
    fn stripes_oom_on_large_data_but_not_small() {
        let spec = jobs::word_cooccurrence_stripes(2);
        let small = corpus::random_text_1g();
        let large = corpus::wikipedia_35g();
        let cl = cluster();
        assert!(simulate(&spec, &small, &cl, &JobConfig::default(), 1).is_ok());
        let err = simulate(&spec, &large, &cl, &JobConfig::default(), 1).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }), "{err}");
    }

    #[test]
    fn map_only_scheduling_uses_waves() {
        let ds = corpus::wikipedia_35g(); // 560 tasks over 30 slots
        let spec = jobs::word_count();
        let rep = simulate(&spec, &ds, &cluster(), &JobConfig::default(), 5).unwrap();
        assert_eq!(rep.map_tasks.len(), 560);
        // Later tasks start strictly after time 0 (waves).
        assert!(rep.map_tasks.iter().filter(|t| t.start_ms > 0.0).count() > 500);
    }

    fn zero_het() -> ClusterSpec {
        ClusterSpec {
            heterogeneity: 0.0,
            ..cluster()
        }
    }

    /// A hand-built dataflow as a profile implies one: one per-task flow,
    /// every intermediate byte spread uniformly over the partitions.
    fn uniform_flow(m: u32, combine: bool, reduce: bool) -> Dataflow {
        let task = SplitFlow {
            input_records: 6.1e5,
            input_bytes: 6.7e7,
            out_records: 5.9e6,
            out_bytes: 6.3e7,
            map_ops: 4.3e7,
        };
        let (in_records, in_bytes) = (
            task.out_records * f64::from(m),
            task.out_bytes * f64::from(m),
        );
        Dataflow {
            num_map_tasks: m,
            per_task: vec![task],
            combine: combine.then_some(CombineFlow {
                record_selectivity: 0.31,
                size_selectivity: 0.37,
                ops_per_record: 6.0,
                ref_records: 1.0e5,
                alpha: 0.7,
            }),
            reduce: reduce.then(|| ReduceFlow {
                in_records,
                in_bytes,
                out_records: in_records * 0.013,
                out_bytes: in_bytes * 0.017,
                ops_per_record: 9.0,
                distinct_keys: 0.0,
                max_group_bytes: 0.0,
                key_weights: Vec::new(),
                uniform_weight: in_bytes,
            }),
            input_bytes: task.input_bytes * f64::from(m),
            avg_intermediate_record_bytes: task.out_bytes / task.out_records,
        }
    }

    fn assert_runtime_only_is_the_schedulers(
        spec: &JobSpec,
        dataflow: &Dataflow,
        cl: &ClusterSpec,
        config: &JobConfig,
    ) {
        let full = simulate_with_dataflow(spec, dataflow, "edges", cl, config, 11).unwrap();
        let fast = simulate_runtime_ms(spec, dataflow, "edges", cl, config, 11).unwrap();
        assert_eq!(
            full.runtime_ms.to_bits(),
            fast.to_bits(),
            "{} vs {fast}: {} map tasks, {config:?}",
            full.runtime_ms,
            dataflow.num_map_tasks
        );
    }

    /// The closed form on the edges of its wave arithmetic: map phases of
    /// under one wave, exactly `k` waves and one task over; slow-start
    /// gates at the first task, the default and the last; reduce phases of
    /// one task, exactly one wave, one over and several waves.
    #[test]
    fn runtime_only_path_is_bit_identical_on_deterministic_cluster() {
        let cl = zero_het();
        let slots = cl.map_slots();
        assert_eq!(slots, cl.reduce_slots());
        let hash = jobs::word_count();
        let total_order = jobs::sort();
        assert_eq!(total_order.partitioner, mrjobs::Partitioner::TotalOrder);
        for m in [1, 7, slots, 2 * slots, 2 * slots + 1, 560] {
            for (combine, use_combiner) in [(true, true), (true, false), (false, true)] {
                let flow = uniform_flow(m, combine, true);
                for reduce_slowstart in [0.0, 0.05, 1.0] {
                    for num_reduce_tasks in [1, slots, slots + 1, 97] {
                        for (compress_map_output, compress_output) in
                            [(false, false), (true, false), (false, true), (true, true)]
                        {
                            let config = JobConfig {
                                use_combiner,
                                reduce_slowstart,
                                num_reduce_tasks,
                                compress_map_output,
                                compress_output,
                                ..JobConfig::default()
                            };
                            assert_runtime_only_is_the_schedulers(&hash, &flow, &cl, &config);
                            assert_runtime_only_is_the_schedulers(
                                &total_order,
                                &flow,
                                &cl,
                                &config,
                            );
                        }
                    }
                }
            }
            let map_only = uniform_flow(m, true, false);
            assert_runtime_only_is_the_schedulers(&hash, &map_only, &cl, &JobConfig::default());
        }

        // States that are inert without being the default: the closed form
        // still applies, and still is the scheduler's answer.
        let inert = ClusterSpec {
            node_slowdown: vec![1.0; 15],
            faults: FaultSpec {
                speculation_threshold: 3.0,
                speculation_cap: 0.5,
                ..FaultSpec::default()
            },
            ..zero_het()
        };
        assert!(is_undisturbed(&inert));
        let flow = uniform_flow(2 * slots + 1, true, true);
        assert_runtime_only_is_the_schedulers(&hash, &flow, &inert, &JobConfig::default());
    }

    /// Measured dataflows have several distinct per-task flows and skewed
    /// partitions; so may a hand-built one. Those are the scheduler's, and
    /// the runtime-only entry returns its bits. Balanced partitions over
    /// skewed key weights (`TotalOrder`) are still uniform.
    #[test]
    fn runtime_only_path_falls_back_on_non_uniform_dataflows() {
        let cl = zero_het();
        let config = JobConfig {
            num_reduce_tasks: 27,
            reduce_slowstart: 1.0,
            ..JobConfig::default()
        };
        for (ds, spec) in [
            (corpus::random_text_1g(), jobs::word_count()),
            (corpus::wikipedia_35g(), jobs::word_count()),
        ] {
            let measured = analyze(&spec, &ds, &cl).unwrap();
            assert!(measured.per_task.len() > 1);
            assert_runtime_only_is_the_schedulers(&spec, &measured, &cl, &config);
            assert_runtime_only_is_the_schedulers(&spec, &measured, &cl, &JobConfig::default());
        }

        let mut two_flows = uniform_flow(61, true, true);
        let mut heavier = two_flows.per_task[0];
        heavier.map_ops *= 3.0;
        two_flows.per_task.push(heavier);
        assert_runtime_only_is_the_schedulers(&jobs::word_count(), &two_flows, &cl, &config);

        let mut skewed = uniform_flow(61, true, true);
        let red = skewed.reduce.as_mut().unwrap();
        red.key_weights = vec![(1, red.in_bytes * 0.2), (5, red.in_bytes * 0.1)];
        red.uniform_weight = red.in_bytes * 0.7;
        assert_runtime_only_is_the_schedulers(&jobs::word_count(), &skewed, &cl, &config);
        assert_runtime_only_is_the_schedulers(&jobs::sort(), &skewed, &cl, &config);
    }

    #[test]
    fn runtime_only_path_falls_back_on_heterogeneous_cluster() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let cl = cluster();
        assert!(cl.heterogeneity > 0.0);
        let dataflow = analyze(&spec, &ds, &cl).unwrap();
        let full =
            simulate_with_dataflow(&spec, &dataflow, &ds.name, &cl, &JobConfig::default(), 7)
                .unwrap();
        let fast =
            simulate_runtime_ms(&spec, &dataflow, &ds.name, &cl, &JobConfig::default(), 7).unwrap();
        assert_eq!(full.runtime_ms.to_bits(), fast.to_bits());
    }

    #[test]
    fn runtime_only_path_propagates_errors() {
        let spec = jobs::word_cooccurrence_stripes(2);
        let large = corpus::wikipedia_35g();
        let cl = zero_het();
        let dataflow = analyze(&spec, &large, &cl).unwrap();
        let err = simulate_runtime_ms(&spec, &dataflow, &large.name, &cl, &JobConfig::default(), 1)
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }), "{err}");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let ds = corpus::random_text_1g();
        let bad = JobConfig {
            num_reduce_tasks: 0,
            ..JobConfig::default()
        };
        let err = simulate(&jobs::word_count(), &ds, &cluster(), &bad, 1).unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    /// `Dataflow`'s fields are public: a hand-built one with no map task
    /// is a typed error at both entries, in the closed form and off it.
    #[test]
    fn dataflow_without_map_tasks_is_rejected() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let measured = analyze(&spec, &ds, &cluster()).unwrap();
        let no_tasks = Dataflow {
            num_map_tasks: 0,
            ..measured.clone()
        };
        let no_flows = Dataflow {
            per_task: Vec::new(),
            ..measured
        };
        let config = JobConfig::default();
        for flow in [&no_tasks, &no_flows] {
            for cl in [&cluster(), &zero_het()] {
                let full = simulate_with_dataflow(&spec, flow, &ds.name, cl, &config, 1);
                let fast = simulate_runtime_ms(&spec, flow, &ds.name, cl, &config, 1);
                let expected = SimError::EmptyDataflow { job: spec.job_id() };
                assert_eq!(full.unwrap_err(), expected);
                assert_eq!(fast.unwrap_err(), expected);
            }
        }
    }

    /// Pinned pre-fault-injection outputs: `FaultSpec::default()` must keep
    /// `simulate()` bit-identical to the engine before the fault layer
    /// existed. The `to_bits` values were captured from that build.
    #[test]
    fn inert_faults_are_bit_identical_to_pre_fault_engine() {
        let cl = cluster();
        assert!(cl.faults.is_inert() && cl.is_uniform_speed());
        let cases: [(mrjobs::JobSpec, mrjobs::Dataset, u64, u64); 5] = [
            (
                jobs::word_count(),
                corpus::random_text_1g(),
                7,
                0x40e49dc854e6c38e,
            ),
            (
                jobs::word_count(),
                corpus::random_text_1g(),
                11,
                0x40e1d78e7dbfdb23,
            ),
            (
                jobs::word_cooccurrence_pairs(2),
                corpus::wikipedia_35g(),
                3,
                0x419484c1f41df7fb,
            ),
            (jobs::sort(), corpus::teragen_1g(), 5, 0x40fe239266270300),
            (jobs::join(), corpus::tpch_1g(), 13, 0x410793788fc667a0),
        ];
        for (spec, ds, seed, bits) in &cases {
            let rep = simulate(spec, ds, &cl, &JobConfig::default(), *seed).unwrap();
            assert_eq!(
                rep.runtime_ms.to_bits(),
                *bits,
                "{} on {} seed {seed}: {} != pinned",
                spec.job_id(),
                ds.name,
                rep.runtime_ms
            );
            assert_eq!(rep.faults, crate::faults::FaultStats::default());
        }
    }

    #[test]
    fn task_failures_are_retried_and_accounted() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let cl = ClusterSpec {
            faults: crate::faults::FaultSpec {
                task_failure_prob: 0.3,
                ..crate::faults::FaultSpec::default()
            },
            ..cluster()
        };
        let rep = simulate(&spec, &ds, &cl, &JobConfig::default(), 42).unwrap();
        assert!(rep.faults.failed_attempts > 0, "{:?}", rep.faults);
        assert!(rep.faults.wasted_ms > 0.0);
        assert!(rep.faults.is_conserved(), "{:?}", rep.faults);
        assert!(rep.map_tasks.iter().any(|t| t.attempt > 1));
        // All 16 map tasks still produced a winning attempt.
        assert_eq!(rep.map_tasks.len(), 16);
    }

    #[test]
    fn exhausted_attempts_fail_the_job() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let cl = ClusterSpec {
            faults: crate::faults::FaultSpec {
                task_failure_prob: 0.999,
                ..crate::faults::FaultSpec::default()
            },
            ..cluster()
        };
        let err = simulate(&spec, &ds, &cl, &JobConfig::default(), 1).unwrap_err();
        assert!(
            matches!(err, SimError::TaskAttemptsExhausted { .. }),
            "{err}"
        );
        assert!(err.is_fault());
    }

    #[test]
    fn losing_every_node_loses_the_cluster() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let cl = ClusterSpec {
            faults: crate::faults::FaultSpec {
                node_loss_prob: 1.0,
                ..crate::faults::FaultSpec::default()
            },
            ..cluster()
        };
        let err = simulate(&spec, &ds, &cl, &JobConfig::default(), 2).unwrap_err();
        assert!(matches!(err, SimError::ClusterLost { .. }), "{err}");
        assert!(err.is_fault());
    }

    #[test]
    fn occasional_node_loss_reexecutes_lost_map_output() {
        let ds = corpus::wikipedia_35g();
        let spec = jobs::word_count();
        // Scan seeds for a run where a node dies *after* completing map
        // work, forcing re-execution of its lost output; a node that dies
        // before finishing any map triggers nothing (legitimately).
        let mut saw_reexecution = false;
        for seed in 0..64 {
            let cl = ClusterSpec {
                faults: crate::faults::FaultSpec {
                    node_loss_prob: 0.08,
                    ..crate::faults::FaultSpec::default()
                },
                ..cluster()
            };
            if let Ok(rep) = simulate(&spec, &ds, &cl, &JobConfig::default(), seed) {
                assert!(rep.faults.is_conserved(), "seed {seed}: {:?}", rep.faults);
                if rep.faults.map_tasks_reexecuted > 0 {
                    assert!(rep.faults.nodes_lost > 0, "{:?}", rep.faults);
                    assert!(rep.faults.wasted_ms > 0.0);
                    saw_reexecution = true;
                }
            }
        }
        assert!(
            saw_reexecution,
            "no seed in 0..64 re-executed lost map output"
        );
    }

    #[test]
    fn speculation_rescues_straggler_nodes() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let mut slow = vec![1.0; 15];
        slow[0] = 4.0; // slots 0 and 1 run 4x slower
        let base = ClusterSpec {
            node_slowdown: slow.clone(),
            heterogeneity: 0.0,
            ..cluster()
        };
        let spec_on = ClusterSpec {
            faults: crate::faults::FaultSpec {
                speculation: true,
                ..crate::faults::FaultSpec::default()
            },
            ..base.clone()
        };
        let plain = simulate(&spec, &ds, &base, &JobConfig::default(), 9).unwrap();
        let rescued = simulate(&spec, &ds, &spec_on, &JobConfig::default(), 9).unwrap();
        assert!(rescued.faults.speculative_wins > 0, "{:?}", rescued.faults);
        assert!(rescued.faults.is_conserved(), "{:?}", rescued.faults);
        assert!(
            rescued.maps_done_ms < plain.maps_done_ms,
            "speculation did not help: {} vs {}",
            rescued.maps_done_ms,
            plain.maps_done_ms
        );
        assert!(rescued.map_tasks.iter().any(|t| t.speculative));
    }

    #[test]
    fn runtime_only_path_falls_back_under_faults() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let cl = ClusterSpec {
            heterogeneity: 0.0,
            faults: crate::faults::FaultSpec {
                task_failure_prob: 0.2,
                ..crate::faults::FaultSpec::default()
            },
            ..cluster()
        };
        let dataflow = analyze(&spec, &ds, &cl).unwrap();
        let full =
            simulate_with_dataflow(&spec, &dataflow, &ds.name, &cl, &JobConfig::default(), 3)
                .unwrap();
        let fast =
            simulate_runtime_ms(&spec, &dataflow, &ds.name, &cl, &JobConfig::default(), 3).unwrap();
        assert_eq!(full.runtime_ms.to_bits(), fast.to_bits());
        assert!(full.faults.scheduled_attempts > 0);
    }
}
