//! Config-independent dataflow measurement.
//!
//! For a given (job, dataset) pair, each [`analyze`] call runs the job's
//! UDFs over the physical sample once, divided into representative chunks
//! (one chunk stands in for one HDFS split), and extrapolates per-task and
//! total dataflow statistics to the dataset's logical scale. Nothing is
//! remembered between calls: a caller that needs the dataflow for several
//! configurations or seeds measures once and reuses the [`Dataflow`].
//! As map and reduce tasks run on slots of their own, a call lends a helper
//! thread work while the process's core budget ([`obs::cores`], DESIGN.md
//! §31) has a core no call holds (§27): the second half of the chunks,
//! mapped and sorted there, and, once the map output reaches 512 KiB, the
//! upper half of the key groups, reduced there (§30). That budget is load,
//! not state, and the result is the same bits either way.
//! Everything that depends on the *configuration* (spills, merges,
//! compression, reducer count) is left to the phase cost model in
//! [`crate::phases`]; everything here depends only on the job semantics
//! and the data.

use std::ops::{Index, Range};
use std::sync::Arc;

use mrjobs::interp::{value_hash, Interp, Sink};
use mrjobs::{Dataset, ExecStats, JobSpec, Partitioner, Record, Udf, Value};

use crate::cluster::ClusterSpec;
use crate::error::SimError;
use crate::sortkey::{ArenaFull, KeyArena, KeyRec, Keys};

/// Per-map-task dataflow at logical scale. Tasks cycle over the measured
/// chunks, so tasks differ the way real splits differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitFlow {
    pub input_records: f64,
    pub input_bytes: f64,
    pub out_records: f64,
    pub out_bytes: f64,
    /// Interpreter ops spent in the map UDF for this task.
    pub map_ops: f64,
}

/// Combiner selectivities measured by grouping and combining each chunk's
/// map output (approximating per-spill combining).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombineFlow {
    /// `out_records / in_records` measured over groups of `ref_records`
    /// records, in (0, 1].
    pub record_selectivity: f64,
    /// `out_bytes / in_bytes` at the same granularity, in (0, 1].
    pub size_selectivity: f64,
    /// Interpreter ops per input record.
    pub ops_per_record: f64,
    /// How many records the selectivities were measured over. Combining is
    /// deduplication, so its selectivity improves with group size: the
    /// phase model rescales it to the actual spill size using `alpha`.
    pub ref_records: f64,
    /// Heaps-law exponent of distinct intermediate keys
    /// (`distinct(n) ~ n^alpha`): selectivity at spill size `n` is
    /// `record_selectivity * (n / ref_records)^(alpha - 1)`.
    pub alpha: f64,
}

impl CombineFlow {
    /// Record selectivity at a given combining group size.
    pub fn record_selectivity_at(&self, records: f64) -> f64 {
        rescale_selectivity(
            self.record_selectivity,
            self.ref_records,
            self.alpha,
            records,
        )
    }

    /// Size selectivity at a given combining group size.
    pub fn size_selectivity_at(&self, records: f64) -> f64 {
        rescale_selectivity(self.size_selectivity, self.ref_records, self.alpha, records)
    }
}

fn rescale_selectivity(sel_ref: f64, ref_records: f64, alpha: f64, records: f64) -> f64 {
    if sel_ref >= 1.0 || ref_records <= 0.0 || records <= 0.0 {
        return sel_ref.clamp(0.0, 1.0);
    }
    let scale = (records / ref_records).max(1e-12);
    (sel_ref * scale.powf(alpha - 1.0)).clamp(1e-6, 1.0)
}

/// Reduce-side dataflow at logical scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceFlow {
    /// Total reduce input records (raw, i.e. without combining).
    pub in_records: f64,
    /// Total reduce input bytes (raw).
    pub in_bytes: f64,
    /// Total reduce output records.
    pub out_records: f64,
    /// Total reduce output bytes.
    pub out_bytes: f64,
    /// Interpreter ops per reduce input record.
    pub ops_per_record: f64,
    /// Estimated distinct intermediate keys at logical scale.
    pub distinct_keys: f64,
    /// Estimated size of the largest single key group at logical scale
    /// (drives the reduce-side memory model).
    pub max_group_bytes: f64,
    /// Per-key weights for partition-skew computation: `(partition_hash,
    /// byte_weight)` in key order. Capped; the remainder is spread
    /// uniformly.
    pub key_weights: Vec<(u64, f64)>,
    /// Byte weight not covered by `key_weights` (treated as uniform).
    pub uniform_weight: f64,
}

impl ReduceFlow {
    /// The fraction of intermediate data assigned to each of `r`
    /// partitions under the job's partitioner. Total-order partitioning is
    /// modelled as balanced (Hadoop samples the key space to build its
    /// range boundaries).
    pub fn partition_shares(&self, r: u32, partitioner: Partitioner) -> Vec<f64> {
        let r = r.max(1) as usize;
        let mut shares = vec![0.0f64; r];
        match partitioner {
            Partitioner::TotalOrder => {
                return vec![1.0 / r as f64; r];
            }
            Partitioner::Hash | Partitioner::FirstOfPair => {
                for &(h, w) in &self.key_weights {
                    shares[(h % r as u64) as usize] += w;
                }
            }
        }
        let uniform_each = self.uniform_weight / r as f64;
        let total: f64 = self.key_weights.iter().map(|(_, w)| w).sum::<f64>() + self.uniform_weight;
        if total <= 0.0 {
            return vec![1.0 / r as f64; r];
        }
        for s in &mut shares {
            *s = (*s + uniform_each) / total;
        }
        shares
    }
}

/// The complete measured dataflow of a (job, dataset) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataflow {
    /// Number of map tasks (HDFS splits) at logical scale.
    pub num_map_tasks: u32,
    /// Per-task flows; task `m` uses `per_task[m % per_task.len()]`.
    pub per_task: Vec<SplitFlow>,
    /// Combiner selectivities, when the job ships a combiner.
    pub combine: Option<CombineFlow>,
    /// Reduce dataflow, when the job has a reduce phase.
    pub reduce: Option<ReduceFlow>,
    /// Logical input size.
    pub input_bytes: f64,
    /// Average serialized size of one intermediate record.
    pub avg_intermediate_record_bytes: f64,
}

impl Dataflow {
    /// Total map output bytes at logical scale (before combining).
    pub fn total_map_out_bytes(&self) -> f64 {
        let per_chunk: f64 = self.per_task.iter().map(|t| t.out_bytes).sum();
        per_chunk * self.num_map_tasks as f64 / self.per_task.len() as f64
    }

    /// Map selectivity in bytes (out/in), the `MAP_SIZE_SEL` dataflow
    /// statistic.
    pub fn map_size_selectivity(&self) -> f64 {
        let in_b: f64 = self.per_task.iter().map(|t| t.input_bytes).sum();
        let out_b: f64 = self.per_task.iter().map(|t| t.out_bytes).sum();
        if in_b > 0.0 {
            out_b / in_b
        } else {
            0.0
        }
    }
}

/// How many representative chunks to measure; each chunk plays the role of
/// one observed HDFS split.
fn chunk_count(records: usize) -> usize {
    (records / 100).clamp(4, 20)
}

/// A UDF resolved for repeated invocation, with what a failure inside it
/// is reported against.
struct Runner<'a> {
    interp: Interp,
    job: &'a str,
    udf: &'a str,
    /// The allocation of the last group's value list, when the UDF left it
    /// unshared.
    group_buf: Vec<Value>,
}

impl<'a> Runner<'a> {
    fn new(spec: &'a JobSpec, udf: &'a Udf) -> Self {
        Runner {
            interp: Interp::new(udf, &spec.params),
            job: &spec.name,
            udf: &udf.name,
            group_buf: Vec::new(),
        }
    }

    fn run(
        &mut self,
        first: Value,
        second: Value,
        out: &mut dyn Sink,
    ) -> Result<ExecStats, SimError> {
        self.interp
            .run(first, second, out)
            .map_err(|source| SimError::Udf {
                job: self.job.to_string(),
                udf: self.udf.to_string(),
                source,
            })
    }

    /// Run a combiner or reducer over one key group.
    fn run_group(
        &mut self,
        key: Value,
        values: impl Iterator<Item = Value>,
    ) -> Result<ExecStats, SimError> {
        let mut list = std::mem::take(&mut self.group_buf);
        list.extend(values);
        let stats = self.run(key, Value::list(list), &mut Discard)?;
        if let Some(Value::List(list)) = self.interp.take_second() {
            if let Ok(mut list) = Arc::try_unwrap(list) {
                list.clear();
                self.group_buf = list;
            }
        }
        Ok(stats)
    }
}

/// The map output of the whole sample in emission order, each pair with
/// the serialized size `Emit` computed for it. Keys apart from values: the
/// sort and the grouping read the keys alone.
#[derive(Default)]
struct MapOutput {
    keys: Segments<Value>,
    values: Segments<Value>,
    bytes: Segments<u32>,
    /// The keys once more, as the sortable bytes the grouping reads; absent
    /// when nothing will group this output.
    arena: Option<KeyArena>,
    /// A pair was dropped: its size, its index or its key's offset in the
    /// arena is beyond 32 bits.
    full: bool,
}

impl MapOutput {
    /// Size every vector for the whole run from what its first chunk
    /// emitted, plus an eighth: growing by doubling would hold, at the
    /// last reallocation, three times what the output needs. Only for an
    /// output whose key vector will pass [`FRESHLY_MAPPED_BYTES`]; a
    /// smaller one is left to double inside the blocks the allocator
    /// recycles from call to call, which measured faster (PigMix, 3 000 to
    /// 5 000 pairs: 8 % of the whole measurement).
    fn reserve_for(&mut self, chunks: usize) {
        let more = |first_chunk: usize| first_chunk * (chunks - 1) + first_chunk * chunks / 8;
        let pairs = more(self.keys.first.len());
        if (self.keys.first.len() + pairs) * std::mem::size_of::<Value>() < FRESHLY_MAPPED_BYTES {
            return;
        }
        self.keys.first.reserve_exact(pairs);
        self.values.first.reserve_exact(pairs);
        self.bytes.first.reserve_exact(pairs);
        if let Some(arena) = &mut self.arena {
            arena.reserve_exact(pairs, more(arena.tail_bytes()));
        }
    }
}

/// From this size on glibc serves a request by mapping fresh pages (its
/// default `M_MMAP_THRESHOLD`): every doubling of such a vector faults its
/// pages in again.
const FRESHLY_MAPPED_BYTES: usize = 128 << 10;

impl Sink for MapOutput {
    fn emit(&mut self, key: Value, value: Value, bytes: u64) {
        let Ok(bytes) = u32::try_from(bytes) else {
            self.full = true;
            return;
        };
        if let Some(arena) = &mut self.arena {
            if arena.push(&key).is_err() {
                self.full = true;
                return;
            }
        }
        self.keys.first.push(key);
        self.values.first.push(value);
        self.bytes.first.push(bytes);
    }
}

/// A vector of map output in up to two segments, the pairs of one run of
/// chunks and then those of the run after it, indexed as one: the second
/// run's pairs are never copied.
struct Segments<T> {
    first: Vec<T>,
    second: Vec<T>,
}

impl<T> Default for Segments<T> {
    fn default() -> Self {
        Segments {
            first: Vec::new(),
            second: Vec::new(),
        }
    }
}

impl<T> Index<usize> for Segments<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.first
            .get(i)
            .unwrap_or_else(|| &self.second[i - self.first.len()])
    }
}

/// Combiner and reducer output is only counted, and [`ExecStats`] already
/// carries the counts.
struct Discard;

impl Sink for Discard {
    fn emit(&mut self, _key: Value, _value: Value, _bytes: u64) {}
}

/// What mapping a run of consecutive chunks measured, each chunk mapped,
/// sorted and combined as the map task it stands for would be.
#[derive(Default)]
struct MapRun {
    out: MapOutput,
    per_task: Vec<SplitFlow>,
    /// Pairs emitted by the end of each chunk.
    ends: Vec<usize>,
    /// What the mapper and the combiner emitted over the run: integer
    /// counts, so the totals do not depend on how the chunks are split into
    /// runs, and their `f64`s (exact below 2^53) read the same bits.
    mapped: ExecStats,
    combined: ExecStats,
}

impl MapRun {
    /// This run with its key records sorted.
    fn sorted(mut self) -> MapRun {
        if let Some(arena) = &mut self.out.arena {
            arena.sort(0, &self.out.keys);
        }
        self
    }

    /// Follow this run with the run of the chunks after it, whose pairs stay
    /// in its own vectors as the second segment: only key records move.
    fn then(mut self, next: MapRun, spec: &JobSpec) -> Result<MapRun, SimError> {
        let base = self.out.keys.first.len();
        if let (Some(arena), Some(next)) = (&mut self.out.arena, next.out.arena) {
            arena
                .append(next)
                .map_err(|ArenaFull| SimError::MapOutputTooLarge {
                    job: spec.name.clone(),
                })?;
        }
        self.out.keys.second = next.out.keys.first;
        self.out.values.second = next.out.values.first;
        self.out.bytes.second = next.out.bytes.first;
        self.per_task.extend(next.per_task);
        self.ends.extend(next.ends.iter().map(|end| base + end));
        self.mapped.merge(next.mapped);
        self.combined.merge(next.combined);
        Ok(self)
    }
}

/// Map `records`, `chunk_size` at a time, with a mapper and a combiner of
/// the run's own. The per-chunk vectors have room for `tasks` chunks, the
/// whole sample's, so a run after this one is appended in place.
fn map_run(
    spec: &JobSpec,
    records: &[Record],
    chunk_size: usize,
    bytes_per_task: f64,
    tasks: usize,
) -> Result<MapRun, SimError> {
    let chunks = records.len().div_ceil(chunk_size);
    let mut mapper = Runner::new(spec, &spec.map_udf);
    let mut combiner = spec.combine_udf.as_ref().map(|udf| Runner::new(spec, udf));
    // Map-only jobs without a combiner use neither the grouping nor the
    // Heaps exponent it yields.
    let grouped = combiner.is_some() || spec.reduce_udf.is_some();
    let mut run = MapRun {
        out: MapOutput {
            arena: grouped.then(KeyArena::new),
            ..MapOutput::default()
        },
        per_task: Vec::with_capacity(tasks),
        ends: Vec::with_capacity(tasks),
        ..MapRun::default()
    };
    let out = &mut run.out;

    for chunk in records.chunks(chunk_size) {
        let chunk_start = out.keys.first.len();
        let mut map_stats = ExecStats::default();
        let mut in_bytes = 0u64;
        for rec in chunk {
            in_bytes += rec.serialized_size();
            map_stats.merge(mapper.run(rec.key.clone(), rec.value.clone(), out)?);
            if out.full {
                return Err(SimError::MapOutputTooLarge {
                    job: spec.name.clone(),
                });
            }
        }
        run.mapped.merge(map_stats);
        if chunk_start == 0 {
            out.reserve_for(chunks);
        }

        // Per-chunk combining approximates per-spill combining. The
        // combiner, as the reducer does later, reads clones of the values
        // (reference-count bumps).
        if let (Some(combiner), Some(arena)) = (&mut combiner, &mut out.arena) {
            arena.sort(chunk_start, &out.keys);
            for group in arena.groups(chunk_start.., &out.keys) {
                let key = out.keys[group[0].index()].clone();
                let values = group.iter().map(|r| out.values[r.index()].clone());
                run.combined.merge(combiner.run_group(key, values)?);
            }
        }

        // Scale this chunk to one logical map task.
        let scale = if in_bytes > 0 {
            bytes_per_task / in_bytes as f64
        } else {
            1.0
        };
        run.per_task.push(SplitFlow {
            input_records: chunk.len() as f64 * scale,
            input_bytes: bytes_per_task,
            out_records: map_stats.records_out as f64 * scale,
            out_bytes: map_stats.bytes_out as f64 * scale,
            map_ops: map_stats.ops as f64 * scale,
        });
        run.ends.push(out.keys.first.len());
    }
    Ok(run)
}

/// Run `mine` on this thread and `theirs` on a scoped helper beside it. A
/// panic on the helper resumes here with its own payload.
fn beside<A, B: Send>(mine: impl FnOnce() -> A, theirs: impl FnOnce() -> B + Send) -> (A, B) {
    std::thread::scope(|s| {
        let helper = s.spawn(theirs);
        let mine = mine();
        match helper.join() {
            Ok(theirs) => (mine, theirs),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// From this many bytes of map output on, a call that has a helper also
/// reduces the upper half of its key groups on it (DESIGN.md §30). Below
/// it are the 42 cheap suite submissions (at most 510 000 bytes), word
/// count's smaller sample and fim-pass1: reducers so cheap that a second
/// spawn bought them nothing or cost them a few per cent.
const SPLIT_REDUCE_BYTES: u64 = 512 << 10;

/// Run the job's UDFs over the dataset sample and extrapolate dataflow to
/// logical scale, on a helper thread too while the process's core budget
/// ([`obs::cores`]) has a core free.
pub fn analyze(
    spec: &JobSpec,
    dataset: &Dataset,
    cluster: &ClusterSpec,
) -> Result<Dataflow, SimError> {
    let cores = obs::cores::try_lend(1);
    measure(
        spec,
        dataset,
        cluster,
        (cores.helpers() == 1).then_some(SPLIT_REDUCE_BYTES),
    )
}

/// [`analyze`]. `lend` is `None` to stay on this thread; otherwise a helper
/// maps the second half of the chunks and, from `lend` bytes of map output
/// on, reduces the upper half of the key groups.
fn measure(
    spec: &JobSpec,
    dataset: &Dataset,
    cluster: &ClusterSpec,
    lend: Option<u64>,
) -> Result<Dataflow, SimError> {
    let sample = Sample::map(spec, dataset, cluster, lend.is_some())?;
    let split = lend
        .filter(|&from| sample.run.mapped.bytes_out >= from)
        .and_then(|_| sample.middle_boundary());
    let reduced = sample.reduce(spec, split)?;
    Ok(sample.extrapolate(spec, reduced))
}

/// The sample mapped, combined and sorted into key order: what the reduce
/// side reads in place and the extrapolation scales.
struct Sample {
    run: MapRun,
    num_map_tasks: u32,
    input_bytes: f64,
}

impl Sample {
    /// Map the dataset's sample, the second half of its chunks on a helper
    /// iff `lend`, and sort the map output by key.
    fn map(
        spec: &JobSpec,
        dataset: &Dataset,
        cluster: &ClusterSpec,
        lend: bool,
    ) -> Result<Sample, SimError> {
        if dataset.is_empty() {
            return Err(SimError::EmptyDataset(dataset.name.clone()));
        }
        let num_map_tasks = cluster.num_splits(dataset.logical_bytes);
        let bytes_per_task = dataset.logical_bytes as f64 / num_map_tasks as f64;

        let chunk_size = dataset.len().div_ceil(chunk_count(dataset.len()));
        let chunks = dataset.len().div_ceil(chunk_size);

        let map = |records: &[Record]| map_run(spec, records, chunk_size, bytes_per_task, chunks);

        // The first failing record wins: the first run's, then the second's.
        // Each side sorts its own run before the two are joined.
        let run = if lend && chunks >= 2 {
            let (head, tail) = dataset.records.split_at(chunks / 2 * chunk_size);
            let sorted = |records| map(records).map(MapRun::sorted);
            let (first, second) = beside(|| sorted(head), || sorted(tail));
            first?.then(second?, spec)?
        } else {
            map(&dataset.records)?
        };
        Ok(Sample {
            // A merge: of the chunks' sorted runs when a combiner ran, of
            // the two halves' when a helper mapped one.
            run: run.sorted(),
            num_map_tasks,
            input_bytes: dataset.logical_bytes as f64,
        })
    }

    fn pairs(&self) -> usize {
        self.run.out.keys.first.len() + self.run.out.keys.second.len()
    }

    /// The group boundary nearest the middle of the sorted map output, if
    /// it has groups on both sides.
    fn middle_boundary(&self) -> Option<usize> {
        let arena = self.run.out.arena.as_ref()?;
        let at = arena.boundary_near(self.pairs() / 2, &self.run.out.keys);
        (0 < at && at < self.pairs()).then_some(at)
    }

    /// Count the distinct keys of every key group and run the reducer over
    /// each; the groups from sorted position `split` onwards on a helper
    /// beside this thread. `None` when nothing groups the map output.
    fn reduce(&self, spec: &JobSpec, split: Option<usize>) -> Result<Option<Reduced>, SimError> {
        let Some(arena) = &self.run.out.arena else {
            return Ok(None);
        };
        let (pairs, ends) = (self.pairs(), &self.run.ends);
        let half_idx = if ends.len() >= 2 {
            ends[ends.len() / 2 - 1]
        } else {
            pairs / 2
        };
        let reduce = |range| {
            let growth = DistinctGrowth::new(pairs, half_idx);
            reduce_groups(spec, &self.run.out, arena, range, growth)
        };
        let reduced = match split {
            // The lower groups' failure wins, as it comes first in key order.
            Some(at) => {
                let (lower, upper) = beside(|| reduce(0..at), || reduce(at..pairs));
                lower?.then(upper?)
            }
            None => reduce(0..pairs)?,
        };
        Ok(Some(reduced))
    }

    /// Scale what the sample measured to the dataset's logical size.
    fn extrapolate(self, spec: &JobSpec, reduced: Option<Reduced>) -> Dataflow {
        let (num_map_tasks, pairs) = (self.num_map_tasks, self.pairs());
        let MapRun {
            out,
            per_task,
            mapped,
            combined,
            ..
        } = self.run;

        let total_sample_out_bytes = mapped.bytes_out as f64;
        let avg_intermediate_record_bytes = if pairs == 0 {
            0.0
        } else {
            total_sample_out_bytes / pairs as f64
        };

        // Overall sample→logical scale for intermediate data.
        let sample_tasks = per_task.len() as f64;
        let inter_scale = if total_sample_out_bytes > 0.0 {
            (per_task.iter().map(|t| t.out_bytes).sum::<f64>() / sample_tasks)
                * num_map_tasks as f64
                / total_sample_out_bytes
        } else {
            1.0
        };
        let key_alpha = reduced.as_ref().map_or(1.0, |r| r.growth.alpha());

        // Every chunk was combined: the combiner took in all the map output.
        let comb_in_records = mapped.records_out as f64;
        let combine = spec.combine_udf.as_ref().map(|_| CombineFlow {
            record_selectivity: safe_ratio(combined.records_out as f64, comb_in_records, 1.0),
            size_selectivity: safe_ratio(combined.bytes_out as f64, total_sample_out_bytes, 1.0),
            ops_per_record: safe_ratio(combined.ops as f64, comb_in_records, 0.0),
            ref_records: comb_in_records / per_task.len().max(1) as f64,
            alpha: key_alpha,
        });

        let reducing = reduced.filter(|_| spec.reduce_udf.is_some());
        let reduce = reducing.map(|Reduced { sample, .. }| {
            let sample_groups = sample.weights.len() as f64;
            let sample_in_records = pairs as f64;
            let mut weights = sample.weights;

            // Cap the key-weight table; aggregate the tail uniformly.
            const MAX_WEIGHTS: usize = 4096;
            let mut uniform_weight = 0.0;
            if weights.len() > MAX_WEIGHTS {
                weights.sort_by(|a, b| b.1.total_cmp(&a.1));
                uniform_weight = weights[MAX_WEIGHTS..].iter().map(|(_, w)| w).sum();
                weights.truncate(MAX_WEIGHTS);
            }
            // Only the kept groups are hashed; the sort above is stable on
            // weight alone, so which survive does not depend on the hash.
            let key_weights = weights
                .into_iter()
                .map(|(first, w)| (partition_hash(&out.keys[first], spec.partitioner), w))
                .collect();

            // Scaled quantities. Input scales linearly; distinct keys scale
            // with Heaps exponent alpha; output scales between the two
            // depending on how aggregating the reducer is.
            let in_records = sample_in_records * inter_scale;
            let in_bytes = total_sample_out_bytes * inter_scale;
            let distinct_keys = sample_groups * inter_scale.powf(key_alpha);
            let out_sel = safe_ratio(sample.out_records, sample_in_records, 1.0).min(1.0);
            let out_scale = out_sel * inter_scale + (1.0 - out_sel) * inter_scale.powf(key_alpha);

            ReduceFlow {
                in_records,
                in_bytes,
                out_records: sample.out_records * out_scale,
                out_bytes: sample.out_bytes * out_scale,
                ops_per_record: safe_ratio(sample.ops, sample_in_records, 0.0),
                distinct_keys,
                max_group_bytes: sample.max_group_bytes * inter_scale,
                key_weights,
                uniform_weight,
            }
        });

        Dataflow {
            num_map_tasks,
            per_task,
            combine,
            reduce,
            input_bytes: self.input_bytes,
            avg_intermediate_record_bytes,
        }
    }
}

/// Count the distinct keys of the key groups at sorted positions `range`
/// and run the job's reducer, if it has one, over each, with a reducer of
/// the range's own. Values are read in place, by clone (a reference-count
/// bump), so the two halves of a split read one map output at once.
fn reduce_groups(
    spec: &JobSpec,
    out: &MapOutput,
    arena: &KeyArena,
    range: Range<usize>,
    mut growth: DistinctGrowth,
) -> Result<Reduced, SimError> {
    let mut reducer = spec.reduce_udf.as_ref().map(|udf| Runner::new(spec, udf));
    let mut sample = ReduceSample::default();
    for group in arena.groups(range, &out.keys) {
        growth.count(group, &out.keys, arena.ord_equal_is_eq(&group[0]));
        if let Some(red) = &mut reducer {
            let key = out.keys[group[0].index()].clone();
            // `Ord`-equal keys serialize to the same number of bytes (an
            // `Int` and the `Float` it equals are 8 bytes each; every other
            // equality is structural), so each pair's own size is the size
            // of (representative key, value).
            let group_bytes: f64 = group.iter().map(|r| out.bytes[r.index()] as f64).sum();
            sample.max_group_bytes = sample.max_group_bytes.max(group_bytes);
            sample.weights.push((group[0].index(), group_bytes));
            let values = group.iter().map(|r| out.values[r.index()].clone());
            let stats = red.run_group(key, values)?;
            sample.ops += stats.ops as f64;
            sample.out_records += stats.records_out as f64;
            sample.out_bytes += stats.bytes_out as f64;
        }
    }
    Ok(Reduced { sample, growth })
}

/// What the reduce side measured over a run of key groups.
struct Reduced {
    sample: ReduceSample,
    growth: DistinctGrowth,
}

impl Reduced {
    /// This run's measurement followed by that of the groups after it, as
    /// one pass over both takes it: the weights in key order, the counts
    /// summed (integers, exact in an `f64` below 2^53, so in any grouping),
    /// the largest group the larger of the two.
    fn then(mut self, upper: Reduced) -> Reduced {
        let (sample, next) = (&mut self.sample, upper.sample);
        sample.out_records += next.out_records;
        sample.out_bytes += next.out_bytes;
        sample.ops += next.ops;
        sample.max_group_bytes = sample.max_group_bytes.max(next.max_group_bytes);
        sample.weights.extend(next.weights);
        self.growth.d_half += upper.growth.d_half;
        self.growth.d_full += upper.growth.d_full;
        self
    }
}

/// What running the reducer over the sample's groups measured, before
/// extrapolation.
#[derive(Default)]
struct ReduceSample {
    out_records: f64,
    out_bytes: f64,
    ops: f64,
    max_group_bytes: f64,
    /// `(index of the first pair, byte_weight)` per group, in key order:
    /// the first pair's key represents the group.
    weights: Vec<(usize, f64)>,
}

/// Hash used for partitioning a key, honouring the job's partitioner.
fn partition_hash(key: &Value, partitioner: Partitioner) -> u64 {
    match (partitioner, key) {
        (Partitioner::FirstOfPair, Value::Pair(pair)) => value_hash(&pair.0),
        _ => value_hash(key),
    }
}

/// Heaps-law exponent: distinct(n) ~ n^alpha, estimated from the sample
/// prefix vs the full sample, counted off the grouping. Distinct here is
/// by `Eq`, which is finer than the grouping's `Ord` (`Int(1)` and
/// `Float(1.0)` share a group and are two keys), so each group is split
/// into its `Eq` classes — nearly always just one.
struct DistinctGrowth {
    pairs: usize,
    half_idx: usize,
    d_half: usize,
    d_full: usize,
    /// First occurrences of the current group's `Eq` classes.
    firsts: Vec<usize>,
}

impl DistinctGrowth {
    fn new(pairs: usize, half_idx: usize) -> Self {
        DistinctGrowth {
            pairs,
            half_idx: half_idx.clamp(1, pairs.max(1)),
            d_half: 0,
            d_full: 0,
            firsts: Vec::new(),
        }
    }

    /// Count the distinct keys of one group: a key is new at its first
    /// occurrence, and belongs to the prefix if that falls before
    /// `half_idx`. `group` is in emission order; `one_key` says its members
    /// are all `Eq` (the grouping knows from the keys' bytes), which
    /// spares comparing them.
    fn count<K: Keys + ?Sized>(&mut self, group: &[KeyRec], keys: &K, one_key: bool) {
        self.firsts.clear();
        let members = if one_key { &group[..1] } else { group };
        for i in members.iter().map(KeyRec::index) {
            if !self.firsts.iter().any(|&f| keys[f] == keys[i]) {
                self.firsts.push(i);
            }
        }
        self.d_full += self.firsts.len();
        self.d_half += self.firsts.iter().filter(|&&i| i < self.half_idx).count();
    }

    /// The exponent, clamped to [0.05, 1].
    fn alpha(&self) -> f64 {
        if self.pairs < 4 || self.half_idx >= self.pairs {
            return 1.0;
        }
        if self.d_half == 0 || self.d_full <= self.d_half {
            // No growth in the second half: saturated key space.
            return 0.05;
        }
        let alpha = ((self.d_full as f64 / self.d_half as f64).ln())
            / ((self.pairs as f64 / self.half_idx as f64).ln());
        if !alpha.is_finite() {
            return 1.0;
        }
        alpha.clamp(0.05, 1.0)
    }
}

fn safe_ratio(num: f64, den: f64, default: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        default
    }
}

/// The synthetic cases `golden_dataflow.rs` pins beside the suite.
#[cfg(test)]
#[path = "../../../tests/src/synthetic.rs"]
mod synthetic;

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus::{self, SizeClass};
    use mrjobs::interp::InterpError;
    use mrjobs::ir::build::*;
    use mrjobs::jobs;

    fn cluster() -> ClusterSpec {
        ClusterSpec::ec2_c1_medium_16()
    }

    #[test]
    fn word_count_selectivity_above_one() {
        let ds = corpus::random_text_1g();
        let flow = analyze(&jobs::word_count(), &ds, &cluster()).unwrap();
        // One intermediate record per word: size selectivity > 1 because of
        // the count payloads.
        assert!(flow.map_size_selectivity() > 1.0);
        assert_eq!(flow.num_map_tasks, 16);
    }

    #[test]
    fn sort_selectivity_is_one() {
        let ds = corpus::teragen_1g();
        let flow = analyze(&jobs::sort(), &ds, &cluster()).unwrap();
        let sel = flow.map_size_selectivity();
        assert!((sel - 1.0).abs() < 0.01, "sort map is identity: {sel}");
    }

    #[test]
    fn cooccurrence_selectivity_exceeds_word_count() {
        let ds = corpus::random_text_1g();
        let wc = analyze(&jobs::word_count(), &ds, &cluster()).unwrap();
        let co = analyze(&jobs::word_cooccurrence_pairs(2), &ds, &cluster()).unwrap();
        assert!(co.map_size_selectivity() > wc.map_size_selectivity());
    }

    #[test]
    fn combiner_shrinks_zipfian_counts() {
        let ds = corpus::wikipedia_35g();
        let flow = analyze(&jobs::word_count(), &ds, &cluster()).unwrap();
        let comb = flow.combine.unwrap();
        assert!(comb.record_selectivity < 0.7, "{}", comb.record_selectivity);
        assert!(comb.size_selectivity < 1.0);
    }

    #[test]
    fn reduce_flow_mass_conservation() {
        let ds = corpus::random_text_1g();
        let flow = analyze(&jobs::word_count(), &ds, &cluster()).unwrap();
        let red = flow.reduce.as_ref().unwrap();
        // Raw reduce input equals total map output.
        assert!((red.in_bytes - flow.total_map_out_bytes()).abs() / red.in_bytes < 0.01);
        assert!(red.out_records <= red.in_records);
        assert!(red.distinct_keys > 0.0);
    }

    #[test]
    fn partition_shares_sum_to_one() {
        let ds = corpus::random_text_1g();
        let flow = analyze(&jobs::word_count(), &ds, &cluster()).unwrap();
        let red = flow.reduce.as_ref().unwrap();
        for r in [1u32, 3, 27] {
            let shares = red.partition_shares(r, Partitioner::Hash);
            assert_eq!(shares.len(), r as usize);
            let sum: f64 = shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "r={r} sum={sum}");
        }
    }

    #[test]
    fn total_order_shares_are_balanced() {
        let ds = corpus::teragen_1g();
        let flow = analyze(&jobs::sort(), &ds, &cluster()).unwrap();
        let red = flow.reduce.as_ref().unwrap();
        let shares = red.partition_shares(10, Partitioner::TotalOrder);
        for s in shares {
            assert!((s - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_reduce_output_scales_linearly() {
        let ds = corpus::teragen_1g();
        let flow = analyze(&jobs::sort(), &ds, &cluster()).unwrap();
        let red = flow.reduce.as_ref().unwrap();
        assert!((red.out_bytes - red.in_bytes).abs() / red.in_bytes < 0.05);
    }

    #[test]
    fn aggregating_reduce_output_scales_sublinearly() {
        let ds = corpus::wikipedia_35g();
        let flow = analyze(&jobs::word_count(), &ds, &cluster()).unwrap();
        let red = flow.reduce.as_ref().unwrap();
        assert!(
            red.out_bytes < red.in_bytes / 10.0,
            "word count output is tiny vs input: out={} in={}",
            red.out_bytes,
            red.in_bytes
        );
    }

    #[test]
    fn groups_merge_by_ord_and_distinct_keys_count_by_eq() {
        let keys = vec![
            Value::Int(2),
            Value::float(1.0),
            Value::Int(1),
            Value::float(2.0),
            Value::Int(1),
        ];
        let mut arena = KeyArena::new();
        for key in &keys {
            arena.push(key).unwrap();
        }
        arena.sort(0, &keys);
        // `Int(k)` and `Float(k)` share a group; members stay in emission
        // order, so the first is the group's first-emitted key.
        let grouped: Vec<Vec<usize>> = arena
            .groups(.., &keys)
            .map(|group| group.iter().map(KeyRec::index).collect())
            .collect();
        assert_eq!(grouped, [&[1, 2, 4][..], &[0, 3][..]]);

        // ...but they are two distinct keys each, and a key is in the
        // prefix if it first occurs before index 2.
        let mut growth = DistinctGrowth::new(keys.len(), 2);
        for group in arena.groups(.., &keys) {
            assert!(!arena.ord_equal_is_eq(&group[0]));
            growth.count(group, &keys, false);
        }
        assert_eq!((growth.d_half, growth.d_full), (2, 4));
        assert_eq!(growth.alpha(), (4f64 / 2.0).ln() / (5f64 / 2.0).ln());
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let ds = Dataset::new("empty", vec![], 0);
        let err = analyze(&jobs::word_count(), &ds, &cluster()).unwrap_err();
        assert!(matches!(err, SimError::EmptyDataset(_)));
    }

    #[test]
    fn per_task_flows_vary_between_chunks() {
        let ds = corpus::wikipedia_35g();
        let flow = analyze(&jobs::word_count(), &ds, &cluster()).unwrap();
        assert!(flow.per_task.len() >= 4);
        let first = flow.per_task[0].out_records;
        assert!(
            flow.per_task.iter().any(|t| t.out_records != first),
            "chunks should differ slightly"
        );
    }

    /// `golden_dataflow.rs`'s 61 cases: the 58 suite submissions (one per
    /// job and dataset; the stripes job cannot run on the large one) and
    /// the three synthetic jobs.
    fn golden_cases() -> Vec<(JobSpec, Dataset)> {
        let mut cases: Vec<(JobSpec, Dataset)> = Vec::new();
        for spec in jobs::standard_suite() {
            for size in [SizeClass::Small, SizeClass::Large] {
                let ds = corpus::input_for(&spec.name, size);
                let seen = cases
                    .iter()
                    .any(|(s, d)| s.job_id() == spec.job_id() && d.name == ds.name);
                let stripes_large =
                    spec.name == "word-cooccurrence-stripes" && size == SizeClass::Large;
                if !seen && !stripes_large {
                    cases.push((spec.clone(), ds));
                }
            }
        }
        cases.extend(super::synthetic::cases());
        cases
    }

    /// `cargo test` runs tests side by side, so the core budget mostly keeps
    /// the goldens' `analyze` calls on one thread: force each way here, and
    /// a helper that reduces the upper key groups of every map output too.
    #[test]
    fn a_lent_helper_changes_no_bit_of_any_dataflow() {
        let cases = golden_cases();
        assert_eq!(cases.len(), 61);
        for (spec, ds) in &cases {
            let alone = format!("{:?}", measure(spec, ds, &cluster(), None).unwrap());
            for lend in [SPLIT_REDUCE_BYTES, 0] {
                let helped = measure(spec, ds, &cluster(), Some(lend)).unwrap();
                assert_eq!(
                    format!("{helped:?}"),
                    alone,
                    "{}@{} split from {lend} bytes",
                    spec.job_id(),
                    ds.name
                );
            }
        }
    }

    /// What the extrapolation reads of a reduce side's measurement, as bits.
    fn bits(reduced: &Reduced) -> (Vec<(usize, u64)>, [u64; 4], [usize; 2]) {
        let (sample, growth) = (&reduced.sample, &reduced.growth);
        (
            sample
                .weights
                .iter()
                .map(|&(i, w)| (i, w.to_bits()))
                .collect(),
            [
                sample.out_records,
                sample.out_bytes,
                sample.ops,
                sample.max_group_bytes,
            ]
            .map(f64::to_bits),
            [growth.d_half, growth.d_full],
        )
    }

    /// Every group boundary of the three synthetic jobs as the split point,
    /// ends and hostile keys included: the two halves of the reduce side
    /// add up, bit for bit, to one pass over all the groups. Each job reads
    /// its first 240 records, which emit every hostile key, both spellings
    /// of the mixed keys and every line and suffix of the pieces job: a
    /// split costs a whole reduce, and the pieces job's 1 200 records make
    /// 1 725 boundaries of 26 ms each.
    #[test]
    fn a_reduce_split_at_any_group_boundary_changes_no_bit() {
        for (spec, ds) in super::synthetic::cases() {
            let head = ds.records[..ds.len().min(240)].to_vec();
            let ds = Dataset::new(&ds.name, head, ds.logical_bytes);
            let sample = Sample::map(&spec, &ds, &cluster(), false).unwrap();
            let alone = bits(&sample.reduce(&spec, None).unwrap().unwrap());
            let arena = sample.run.out.arena.as_ref().unwrap();
            let ends = arena.groups(.., &sample.run.out.keys).scan(0, |at, group| {
                *at += group.len();
                Some(*at)
            });
            let boundaries: Vec<usize> = std::iter::once(0).chain(ends).collect();
            assert!(boundaries.len() > 100, "{}: {boundaries:?}", spec.name);
            for at in boundaries {
                let split = sample.reduce(&spec, Some(at)).unwrap().unwrap();
                assert!(bits(&split) == alone, "{} split at {at}", spec.name);
            }
        }
    }

    /// `value + 1` over 800 records, 8 chunks of 100: the second run starts
    /// at record 400. A value that is not a number fails the mapper with a
    /// type error naming its type.
    fn failing_at(bad: &[(usize, Value)]) -> (JobSpec, Dataset) {
        let spec = JobSpec::builder("add-one")
            .mapper(
                "AddOne",
                Udf::mapper(
                    "AddOne",
                    vec![emit(var("key"), add(var("value"), c_int(1)))],
                ),
            )
            .build();
        let mut records: Vec<Record> = (0..800)
            .map(|i| Record::new(Value::Int(i), Value::Int(i)))
            .collect();
        for (at, value) in bad {
            records[*at].value = value.clone();
        }
        (spec, Dataset::new("failing", records, 1 << 30))
    }

    /// The type a UDF failed on, run alone or with a helper that also
    /// takes the upper key groups however small the map output.
    fn failed_on(spec: &JobSpec, ds: &Dataset, lend: bool) -> String {
        match measure(spec, ds, &cluster(), lend.then_some(0)) {
            Err(SimError::Udf {
                source: InterpError::TypeError { got, .. },
                ..
            }) => got,
            other => panic!("expected a type error, got {other:?}"),
        }
    }

    #[test]
    fn a_udf_failing_only_in_the_second_run_is_reported() {
        let (spec, ds) = failing_at(&[(600, Value::text("x"))]);
        assert!(failed_on(&spec, &ds, true).starts_with("Text"));
        assert_eq!(failed_on(&spec, &ds, true), failed_on(&spec, &ds, false));
    }

    #[test]
    fn a_udf_failing_in_both_runs_reports_the_first_runs_record() {
        let (spec, ds) = failing_at(&[(100, Value::Null), (600, Value::text("x"))]);
        assert!(failed_on(&spec, &ds, true).starts_with("Null"));
        assert_eq!(failed_on(&spec, &ds, true), failed_on(&spec, &ds, false));
    }

    /// `failing_at`'s records under an identity mapper that reverses the
    /// keys (record `i` emits key `799 - i`) and a reducer that adds one to
    /// the first value of its group: one group a key, so key order is the
    /// reverse of emission order and the middle group boundary is key 400.
    /// A bad record below 400 fails an upper group, one above it a lower.
    fn reducer_failing_at(bad: &[(usize, Value)]) -> (JobSpec, Dataset) {
        reversed_then(bad, |first| add(first, c_int(1)))
    }

    /// `failing_at`'s records, keys reversed, and a reducer emitting `of`
    /// its group's first value.
    fn reversed_then(
        bad: &[(usize, Value)],
        of: impl FnOnce(mrjobs::Expr) -> mrjobs::Expr,
    ) -> (JobSpec, Dataset) {
        let (_, ds) = failing_at(bad);
        let spec = JobSpec::builder("reversed")
            .mapper(
                "Reverse",
                Udf::mapper(
                    "Reverse",
                    vec![emit(sub(c_int(799), var("key")), var("value"))],
                ),
            )
            .reducer(
                "OfFirst",
                Udf::reducer(
                    "OfFirst",
                    vec![emit(var("key"), of(index(var("values"), c_int(0))))],
                ),
            )
            .build();
        (spec, ds)
    }

    #[test]
    fn a_reducer_failing_only_in_the_upper_groups_is_reported() {
        let (spec, ds) = reducer_failing_at(&[(100, Value::Null)]);
        assert!(failed_on(&spec, &ds, true).starts_with("Null"));
        assert_eq!(failed_on(&spec, &ds, true), failed_on(&spec, &ds, false));
    }

    #[test]
    fn a_reducer_failing_in_both_halves_reports_the_lower_groups_record() {
        let (spec, ds) = reducer_failing_at(&[(100, Value::Null), (600, Value::text("x"))]);
        assert!(failed_on(&spec, &ds, true).starts_with("Text"));
        assert_eq!(failed_on(&spec, &ds, true), failed_on(&spec, &ds, false));
    }

    /// The interpreter's integer division panics on `i64::MIN / -1`. Put
    /// in record 0, which emits the highest key, it panics in the upper
    /// groups' reducer on the helper, and the caller resumes that panic.
    #[test]
    #[should_panic(expected = "attempt to divide with overflow")]
    fn a_panic_in_the_upper_groups_reducer_reaches_the_caller_with_its_own_message() {
        let (spec, ds) = reversed_then(&[(0, Value::Int(i64::MIN))], |first| div(first, c_int(-1)));
        let _ = measure(&spec, &ds, &cluster(), Some(0));
    }

    #[test]
    #[should_panic(expected = "the helper's own message")]
    fn a_helper_panic_reaches_the_caller_with_its_own_message() {
        beside(|| (), || panic!("the helper's own message"));
    }
}
