//! Structured-data generators: TPC-H-like tagged join inputs, TeraGen
//! sort records, and PigMix fact rows.

use mrjobs::{Dataset, Record, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// TPC-H-like tagged join input: `(join_key, (tag, payload))` records where
/// tag 0 rows come from the dimension table ("orders") and tag 1 rows from
/// the skewed fact table ("lineitem"), the shape `CompositeInputFormat`
/// hands to a reduce-side join.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    pub name: String,
    pub seed: u64,
    /// Distinct join keys.
    pub keys: usize,
    /// Left (dimension) rows; one per key.
    pub left_payload_len: usize,
    /// Right (fact) rows, Zipf-distributed over keys.
    pub right_rows: usize,
    pub right_payload_len: usize,
    pub logical_bytes: u64,
}

impl JoinSpec {
    pub fn tpch(name: &str, keys: usize, right_rows: usize, logical_bytes: u64) -> Self {
        JoinSpec {
            name: name.to_string(),
            seed: 0x7bc4_0001,
            keys,
            left_payload_len: 48,
            right_rows,
            right_payload_len: 24,
            logical_bytes,
        }
    }

    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = Zipf::new(self.keys, 0.6);
        let mut records = Vec::with_capacity(self.keys + self.right_rows);
        for k in 0..self.keys {
            records.push(Record::new(
                Value::text(format!("k{k:06}")),
                Value::pair(
                    Value::Int(0),
                    Value::text(random_payload(&mut rng, self.left_payload_len)),
                ),
            ));
        }
        for _ in 0..self.right_rows {
            let k = zipf.sample(&mut rng);
            records.push(Record::new(
                Value::text(format!("k{k:06}")),
                Value::pair(
                    Value::Int(1),
                    Value::text(random_payload(&mut rng, self.right_payload_len)),
                ),
            ));
        }
        Dataset::new(self.name.clone(), records, self.logical_bytes)
    }
}

/// TeraGen-style sort input: 10-character random keys with 90-character
/// payloads, the classic 100-byte sort record.
pub fn teragen(name: &str, rows: usize, seed: u64, logical_bytes: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let records = (0..rows)
        .map(|_| {
            Record::new(
                Value::text(random_payload(&mut rng, 10)),
                Value::text(random_payload(&mut rng, 90)),
            )
        })
        .collect();
    Dataset::new(name, records, logical_bytes)
}

/// PigMix fact rows: three Zipf-skewed string dimensions and two numeric
/// measures per line.
pub fn pigmix_rows(name: &str, rows: usize, seed: u64, logical_bytes: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = [
        Zipf::new(40, 0.8),
        Zipf::new(200, 0.8),
        Zipf::new(1000, 0.5),
    ];
    let records = (0..rows)
        .map(|i| {
            let a = dims[0].sample(&mut rng);
            let b = dims[1].sample(&mut rng);
            let c = dims[2].sample(&mut rng);
            let m1: f64 = rng.gen_range(0.0..100.0);
            let m2: f64 = rng.gen_range(0.0..100.0);
            Record::new(
                Value::Int(i as i64),
                Value::text(format!("a{a:03} b{b:04} c{c:05} {m1:.1} {m2:.1}")),
            )
        })
        .collect();
    Dataset::new(name, records, logical_bytes)
}

fn random_payload(rng: &mut StdRng, len: usize) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_has_both_tags() {
        let ds = JoinSpec::tpch("j", 50, 200, 0).generate();
        let tags: Vec<i64> = ds
            .records
            .iter()
            .map(|r| match &r.value {
                Value::Pair(p) => p.0.as_int().unwrap(),
                _ => panic!("expected pair"),
            })
            .collect();
        assert!(tags.contains(&0));
        assert!(tags.contains(&1));
        assert_eq!(ds.len(), 250);
    }

    #[test]
    fn join_right_side_is_skewed() {
        let ds = JoinSpec::tpch("j", 100, 2000, 0).generate();
        let mut per_key = std::collections::HashMap::new();
        for r in ds.records.iter().skip(100) {
            *per_key.entry(r.key.clone()).or_insert(0usize) += 1;
        }
        let max = per_key.values().max().copied().unwrap();
        assert!(max > 2000 / 100, "skew should concentrate rows: {max}");
    }

    #[test]
    fn teragen_records_are_100_bytes_of_payload() {
        let ds = teragen("t", 20, 1, 0);
        for r in ds.records.iter() {
            assert_eq!(r.key.as_text().unwrap().len(), 10);
            assert_eq!(r.value.as_text().unwrap().len(), 90);
        }
    }

    #[test]
    fn teragen_is_seeded() {
        assert_eq!(teragen("t", 5, 9, 0).records, teragen("t", 5, 9, 0).records);
        assert_ne!(
            teragen("t", 5, 9, 0).records,
            teragen("t", 5, 10, 0).records
        );
    }

    #[test]
    fn pigmix_rows_have_five_fields() {
        let ds = pigmix_rows("p", 10, 3, 0);
        for r in ds.records.iter() {
            let n = r.value.as_text().unwrap().split_whitespace().count();
            assert_eq!(n, 5);
        }
    }
}
