//! Seeded input generation: the profile population and the operation
//! sequences. Everything here is a pure function of `(seed, index)`, so a
//! seed fixes population, op order and per-op seeds, and any element can
//! be regenerated on its own (the durability check re-derives every
//! acked profile instead of keeping copies).
//!
//! The program under test never sees the workload seed or a workload
//! name — only what this module generates from them.

use profiler::{CostFactors, JobProfile};

/// SplitMix64: small, fast, and fully specified here, so the generated
/// inputs cannot drift with a dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in `[1/spread, spread]`.
    pub fn log_uniform(&mut self, spread: f64) -> f64 {
        let ln = spread.ln();
        (self.unit() * 2.0 * ln - ln).exp()
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An independent sub-seed for element `i` of stream `stream`.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    rng.0 = rng.0.wrapping_add(i.wrapping_mul(0xe703_7ed1_a0b4_28db));
    rng.next_u64()
}

const STREAM_VARIANT: u64 = 1;
const STREAM_PASS: u64 = 2;

/// Spread of every selectivity and cost factor of a variant.
const FEATURE_SPREAD: f64 = 1.5;
/// Spread of a variant's input size.
const INPUT_SPREAD: f64 = 4.0;

fn perturb_costs(c: &mut CostFactors, rng: &mut Rng) {
    for f in [
        &mut c.read_hdfs_io_cost,
        &mut c.write_hdfs_io_cost,
        &mut c.read_local_io_cost,
        &mut c.write_local_io_cost,
        &mut c.network_cost,
        &mut c.map_cpu_cost,
        &mut c.reduce_cpu_cost,
        &mut c.combine_cpu_cost,
    ] {
        *f *= rng.log_uniform(FEATURE_SPREAD);
    }
}

/// Variant `i` of a real profile: every Table 4.1 selectivity and every
/// Table 4.2 cost factor scaled by an independent log-uniform factor in
/// `[1/1.5, 1.5]`, the input size by one in `[1/4, 4]`, stored under
/// `<job>@<dataset>#v<i>`. Static features are the base job's, so the
/// variants of a job crowd exactly the matcher stages its real profile
/// goes through.
pub fn variant(base: &JobProfile, i: usize, seed: u64) -> JobProfile {
    let mut rng = Rng::new(derive(seed, STREAM_VARIANT, i as u64));
    let mut p = base.clone();
    p.job_id = format!("{}#v{i}", base.job_id);
    let size = rng.log_uniform(INPUT_SPREAD);
    p.input_bytes *= size;
    p.map.input_bytes_total *= size;
    p.map.size_selectivity *= rng.log_uniform(FEATURE_SPREAD);
    p.map.pairs_selectivity *= rng.log_uniform(FEATURE_SPREAD);
    if let Some(s) = &mut p.map.combine_size_selectivity {
        *s *= rng.log_uniform(FEATURE_SPREAD);
    }
    if let Some(s) = &mut p.map.combine_pairs_selectivity {
        *s *= rng.log_uniform(FEATURE_SPREAD);
    }
    perturb_costs(&mut p.map.cost_factors, &mut rng);
    if let Some(r) = &mut p.reduce {
        r.size_selectivity *= rng.log_uniform(FEATURE_SPREAD);
        r.pairs_selectivity *= rng.log_uniform(FEATURE_SPREAD);
        perturb_costs(&mut r.cost_factors, &mut rng);
    }
    p
}

/// Element `i` of a population over `bases`: the real profiles first,
/// then variants cycling over them. Returns the base's index (for its
/// static features) and the profile.
pub fn population_profile(bases: &[JobProfile], i: usize, seed: u64) -> (usize, JobProfile) {
    let base = i % bases.len();
    if i < bases.len() {
        (base, bases[i].clone())
    } else {
        (base, variant(&bases[base], i, seed))
    }
}

/// One job submission: which corpus entry, and the seed the daemon gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOp {
    pub sub: usize,
    pub seed: u64,
}

/// Pass `pass` over `subs` (corpus indices): every submission exactly
/// once, in a seeded order, each with its own seed. Every pass holds the
/// same multiset of jobs, which is what makes per-pass percentiles
/// comparable.
pub fn pass(subs: &[usize], seed: u64, pass: u64) -> Vec<SubmitOp> {
    let mut rng = Rng::new(derive(seed, STREAM_PASS, pass));
    let mut order = subs.to_vec();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .map(|sub| SubmitOp {
            sub,
            seed: rng.next_u64(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::reference::Clock;

    fn encoded_population(bases: &[JobProfile], n: usize, seed: u64) -> Vec<u8> {
        (0..n)
            .flat_map(|i| {
                pstorm::codec::encode_profile(&population_profile(bases, i, seed).1).to_vec()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let corpus = Corpus::collect(Some(4), &mut Clock::new()).0;
        let bases = corpus.profiles();
        let subs: Vec<usize> = (0..bases.len()).collect();

        assert_eq!(
            encoded_population(&bases, 40, 7),
            encoded_population(&bases, 40, 7)
        );
        assert_ne!(
            encoded_population(&bases, 40, 7),
            encoded_population(&bases, 40, 8)
        );
        for p in 0..3 {
            assert_eq!(pass(&subs, 7, p), pass(&subs, 7, p));
            assert_ne!(pass(&subs, 7, p), pass(&subs, 8, p));
        }
        assert_ne!(pass(&subs, 7, 0), pass(&subs, 7, 1));
    }

    #[test]
    fn a_pass_visits_every_submission_once() {
        let subs = [3usize, 5, 8, 13, 21];
        let mut seen: Vec<usize> = pass(&subs, 99, 4).iter().map(|op| op.sub).collect();
        seen.sort_unstable();
        assert_eq!(seen, subs);
    }

    #[test]
    fn variants_keep_identity_but_move_features() {
        let corpus = Corpus::collect(Some(2), &mut Clock::new()).0;
        let base = &corpus.profiles()[0];
        let v = variant(base, 60, 1);
        assert_eq!(v.job_id, format!("{}#v60", base.job_id));
        assert_ne!(v.map.size_selectivity, base.map.size_selectivity);
        let ratio = v.input_bytes / base.input_bytes;
        assert!((0.25..=4.0).contains(&ratio), "{ratio}");
        let sel = v.map.pairs_selectivity / base.map.pairs_selectivity;
        assert!((1.0 / 1.5..=1.5).contains(&sel), "{sel}");
    }

    #[test]
    fn log_uniform_stays_in_range() {
        let mut rng = Rng::new(5);
        for _ in 0..1000 {
            let x = rng.log_uniform(4.0);
            assert!((0.25..=4.0).contains(&x));
        }
    }
}
