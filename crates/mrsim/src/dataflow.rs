//! Config-independent dataflow measurement.
//!
//! For a given (job, dataset) pair, each [`analyze`] call runs the job's
//! UDFs over the physical sample once, divided into representative chunks
//! (one chunk stands in for one HDFS split), and extrapolates per-task and
//! total dataflow statistics to the dataset's logical scale. Nothing is
//! remembered between calls: a caller that needs the dataflow for several
//! configurations or seeds measures once and reuses the [`Dataflow`].
//! Everything that depends on the *configuration* (spills, merges,
//! compression, reducer count) is left to the phase cost model in
//! [`crate::phases`]; everything here depends only on the job semantics
//! and the data.

use std::sync::Arc;

use mrjobs::interp::{value_hash, Interp, Sink};
use mrjobs::{Dataset, ExecStats, JobSpec, Partitioner, Udf, Value};

use crate::cluster::ClusterSpec;
use crate::error::SimError;
use crate::sortkey::{KeyArena, KeyRec};

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
    /// Total map output records at logical scale (before combining).
    pub fn total_map_out_records(&self) -> f64 {
        let per_chunk: f64 = self.per_task.iter().map(|t| t.out_records).sum();
        per_chunk * self.num_map_tasks as f64 / self.per_task.len() as f64
    }

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
/// the serialized size `Emit` computed for it. Keys apart from values, so
/// the reducer can take the values while the grouping still reads the keys.
struct MapOutput {
    keys: Vec<Value>,
    values: Vec<Value>,
    bytes: Vec<u32>,
    /// The keys once more, as the sortable bytes the grouping reads; absent
    /// when nothing will group this output.
    arena: Option<KeyArena>,
    /// A pair was dropped: its size, its index or its key's offset in the
    /// arena is beyond 32 bits.
    full: bool,
}

impl MapOutput {
    fn new(grouped: bool) -> Self {
        MapOutput {
            keys: Vec::new(),
            values: Vec::new(),
            bytes: Vec::new(),
            arena: grouped.then(KeyArena::new),
            full: false,
        }
    }

    /// Size every vector for the whole sample from what its first chunk
    /// emitted, plus an eighth: growing by doubling would hold, at the
    /// last reallocation, three times what the output needs. Only for an
    /// output whose key vector will pass [`FRESHLY_MAPPED_BYTES`]; a
    /// smaller one is left to double inside the blocks the allocator
    /// recycles from call to call, which measured faster (PigMix, 3 000 to
    /// 5 000 pairs: 8 % of the whole measurement).
    fn reserve_for(&mut self, chunks: usize) {
        let more = |first_chunk: usize| first_chunk * (chunks - 1) + first_chunk * chunks / 8;
        let pairs = more(self.keys.len());
        if (self.keys.len() + pairs) * std::mem::size_of::<Value>() < FRESHLY_MAPPED_BYTES {
            return;
        }
        self.keys.reserve_exact(pairs);
        self.values.reserve_exact(pairs);
        self.bytes.reserve_exact(pairs);
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
        self.keys.push(key);
        self.values.push(value);
        self.bytes.push(bytes);
    }
}

/// Combiner and reducer output is only counted, and [`ExecStats`] already
/// carries the counts.
struct Discard;

impl Sink for Discard {
    fn emit(&mut self, _key: Value, _value: Value, _bytes: u64) {}
}

/// Run the job's UDFs over the dataset sample and extrapolate dataflow to
/// logical scale.
pub fn analyze(
    spec: &JobSpec,
    dataset: &Dataset,
    cluster: &ClusterSpec,
) -> Result<Dataflow, SimError> {
    if dataset.is_empty() {
        return Err(SimError::EmptyDataset(dataset.name.clone()));
    }
    let num_map_tasks = cluster.num_splits(dataset.logical_bytes);
    let bytes_per_task = dataset.logical_bytes as f64 / num_map_tasks as f64;

    let chunks = chunk_count(dataset.len());
    let chunk_size = dataset.len().div_ceil(chunks);

    let mut mapper = Runner::new(spec, &spec.map_udf);
    let mut combiner = spec.combine_udf.as_ref().map(|udf| Runner::new(spec, udf));

    // Map-only jobs without a combiner use neither the grouping nor the
    // Heaps exponent it yields.
    let grouped = combiner.is_some() || spec.reduce_udf.is_some();

    let mut per_task = Vec::with_capacity(chunks);
    let mut out = MapOutput::new(grouped);
    let mut chunk_boundaries = Vec::with_capacity(chunks);
    let mut total_out_bytes = 0u64;

    // Combiner accumulators.
    let mut comb_in_records = 0.0f64;
    let mut comb_in_bytes = 0.0f64;
    let mut comb_out_records = 0.0f64;
    let mut comb_out_bytes = 0.0f64;
    let mut comb_ops = 0.0f64;

    for chunk in dataset.records.chunks(chunk_size) {
        let chunk_start = out.keys.len();
        let mut map_stats = ExecStats::default();
        let mut in_bytes = 0u64;
        for rec in chunk {
            in_bytes += rec.serialized_size();
            map_stats.merge(mapper.run(rec.key.clone(), rec.value.clone(), &mut out)?);
            if out.full {
                return Err(SimError::MapOutputTooLarge {
                    job: spec.name.clone(),
                });
            }
        }
        let out_records = map_stats.records_out as f64;
        let out_bytes = map_stats.bytes_out;
        total_out_bytes += out_bytes;
        if chunk_start == 0 {
            out.reserve_for(dataset.len().div_ceil(chunk_size));
        }

        // Per-chunk combining approximates per-spill combining. The
        // combiner sees clones of the values (reference-count bumps): the
        // reducer below consumes the originals.
        if let (Some(comb), Some(arena)) = (&mut combiner, &mut out.arena) {
            arena.sort(chunk_start, &out.keys);
            comb_in_records += out_records;
            comb_in_bytes += out_bytes as f64;
            for group in arena.groups(chunk_start, &out.keys) {
                let key = out.keys[group[0].index()].clone();
                let values = group.iter().map(|r| out.values[r.index()].clone());
                let stats = comb.run_group(key, values)?;
                comb_ops += stats.ops as f64;
                comb_out_records += stats.records_out as f64;
                comb_out_bytes += stats.bytes_out as f64;
            }
        }

        // Scale this chunk to one logical map task.
        let scale = if in_bytes > 0 {
            bytes_per_task / in_bytes as f64
        } else {
            1.0
        };
        per_task.push(SplitFlow {
            input_records: chunk.len() as f64 * scale,
            input_bytes: bytes_per_task,
            out_records: out_records * scale,
            out_bytes: out_bytes as f64 * scale,
            map_ops: map_stats.ops as f64 * scale,
        });
        chunk_boundaries.push(out.keys.len());
    }
    let MapOutput {
        keys,
        mut values,
        bytes: pair_bytes,
        arena,
        ..
    } = out;

    let total_sample_out_bytes = total_out_bytes as f64;
    let avg_intermediate_record_bytes = if keys.is_empty() {
        0.0
    } else {
        total_sample_out_bytes / keys.len() as f64
    };

    // Overall sample→logical scale for intermediate data.
    let sample_tasks = per_task.len() as f64;
    let inter_scale = if total_sample_out_bytes > 0.0 {
        (per_task.iter().map(|t| t.out_bytes).sum::<f64>() / sample_tasks) * num_map_tasks as f64
            / total_sample_out_bytes
    } else {
        1.0
    };

    let mut reduced = None;
    let mut key_alpha = 1.0;
    if let Some(mut arena) = arena {
        // Every chunk is sorted already when a combiner ran: a merge.
        arena.sort(0, &keys);
        let half_idx = if chunk_boundaries.len() >= 2 {
            chunk_boundaries[chunk_boundaries.len() / 2 - 1]
        } else {
            keys.len() / 2
        };
        let mut growth = DistinctGrowth::new(keys.len(), half_idx);
        let mut reducer = spec.reduce_udf.as_ref().map(|udf| Runner::new(spec, udf));
        let mut sample = ReduceSample::default();
        for group in arena.groups(0, &keys) {
            growth.count(group, &keys, arena.ord_equal_is_eq(&group[0]));
            if let Some(red) = &mut reducer {
                let key = keys[group[0].index()].clone();
                // `Ord`-equal keys serialize to the same number of bytes
                // (an `Int` and the `Float` it equals are 8 bytes each;
                // every other equality is structural), so each pair's own
                // size is the size of (representative key, value).
                let group_bytes: f64 = group.iter().map(|r| pair_bytes[r.index()] as f64).sum();
                sample.max_group_bytes = sample.max_group_bytes.max(group_bytes);
                sample
                    .weights
                    .push((partition_hash(&key, spec.partitioner), group_bytes));
                // The reducer consumes the map output: values move out.
                let group_values = group
                    .iter()
                    .map(|r| std::mem::replace(&mut values[r.index()], Value::Null));
                let stats = red.run_group(key, group_values)?;
                sample.ops += stats.ops as f64;
                sample.out_records += stats.records_out as f64;
                sample.out_bytes += stats.bytes_out as f64;
            }
        }
        key_alpha = growth.alpha();
        reduced = reducer.map(|_| sample);
    }

    let combine = combiner.map(|_| CombineFlow {
        record_selectivity: safe_ratio(comb_out_records, comb_in_records, 1.0),
        size_selectivity: safe_ratio(comb_out_bytes, comb_in_bytes, 1.0),
        ops_per_record: safe_ratio(comb_ops, comb_in_records, 0.0),
        ref_records: comb_in_records / per_task.len().max(1) as f64,
        alpha: key_alpha,
    });

    let reduce = reduced.map(|sample| {
        let sample_groups = sample.weights.len() as f64;
        let sample_in_records = keys.len() as f64;
        let mut weights = sample.weights;

        // Cap the key-weight table; aggregate the tail uniformly.
        const MAX_WEIGHTS: usize = 4096;
        let mut uniform_weight = 0.0;
        if weights.len() > MAX_WEIGHTS {
            weights.sort_by(|a, b| b.1.total_cmp(&a.1));
            uniform_weight = weights[MAX_WEIGHTS..].iter().map(|(_, w)| w).sum();
            weights.truncate(MAX_WEIGHTS);
        }

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
            key_weights: weights,
            uniform_weight,
        }
    });

    Ok(Dataflow {
        num_map_tasks,
        per_task,
        combine,
        reduce,
        input_bytes: dataset.logical_bytes as f64,
        avg_intermediate_record_bytes,
    })
}

/// What running the reducer over the sample's groups measured, before
/// extrapolation.
#[derive(Default)]
struct ReduceSample {
    out_records: f64,
    out_bytes: f64,
    ops: f64,
    max_group_bytes: f64,
    /// `(partition_hash, byte_weight)` per group, in key order.
    weights: Vec<(u64, f64)>,
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
    fn count(&mut self, group: &[KeyRec], keys: &[Value], one_key: bool) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
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
            .groups(0, &keys)
            .map(|group| group.iter().map(KeyRec::index).collect())
            .collect();
        assert_eq!(grouped, [&[1, 2, 4][..], &[0, 3][..]]);

        // ...but they are two distinct keys each, and a key is in the
        // prefix if it first occurs before index 2.
        let mut growth = DistinctGrowth::new(keys.len(), 2);
        for group in arena.groups(0, &keys) {
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
}
