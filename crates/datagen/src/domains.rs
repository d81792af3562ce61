//! Domain-specific generators: market-basket transactions (webdocs-like),
//! movie ratings (MovieLens-like), per-user item lists, association-rule
//! lines, and genome reads (CloudBurst input).

use mrjobs::{Dataset, Record, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// Market-basket transactions: one line of space-separated item ids per
/// basket, item popularity Zipfian over the catalog (webdocs-like).
pub fn transactions(
    name: &str,
    baskets: usize,
    mean_items: usize,
    catalog: usize,
    seed: u64,
    logical_bytes: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(catalog, 0.9);
    let records = (0..baskets)
        .map(|i| {
            let n = rng.gen_range((mean_items / 2).max(1)..=mean_items * 3 / 2);
            let mut items: Vec<usize> = (0..n).map(|_| zipf.sample(&mut rng)).collect();
            items.sort_unstable();
            items.dedup();
            let line = items
                .iter()
                .map(|x| format!("item{x:04}"))
                .collect::<Vec<_>>()
                .join(" ");
            Record::new(Value::Int(i as i64), Value::text(line))
        })
        .collect();
    Dataset::new(name, records, logical_bytes)
}

/// MovieLens-like ratings: `user item rating` lines with Zipfian item
/// popularity and half-star ratings.
pub fn ratings(
    name: &str,
    rows: usize,
    users: usize,
    items: usize,
    seed: u64,
    logical_bytes: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let item_pop = Zipf::new(items, 0.9);
    let records = (0..rows)
        .map(|i| {
            let u = rng.gen_range(0..users);
            let it = item_pop.sample(&mut rng);
            let r = (rng.gen_range(1..=10) as f64) / 2.0;
            Record::new(
                Value::Int(i as i64),
                Value::text(format!("u{u:05} i{it:04} {r:.1}")),
            )
        })
        .collect();
    Dataset::new(name, records, logical_bytes)
}

/// Per-user item lists (the output shape of CF phase 1, input of phase 2):
/// `(user-id, "itemA itemB ...")`.
pub fn user_item_lists(
    name: &str,
    users: usize,
    mean_items: usize,
    catalog: usize,
    seed: u64,
    logical_bytes: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(catalog, 0.9);
    let records = (0..users)
        .map(|u| {
            let n = rng.gen_range((mean_items / 2).max(1)..=mean_items * 3 / 2);
            let mut items: Vec<usize> = (0..n).map(|_| zipf.sample(&mut rng)).collect();
            items.sort_unstable();
            items.dedup();
            let line = items
                .iter()
                .map(|x| format!("i{x:04}"))
                .collect::<Vec<_>>()
                .join(" ");
            Record::new(Value::text(format!("u{u:05}")), Value::text(line))
        })
        .collect();
    Dataset::new(name, records, logical_bytes)
}

/// Association-rule input lines for FIM pass 3: `antecedent consequent count`.
pub fn rule_lines(
    name: &str,
    rows: usize,
    catalog: usize,
    seed: u64,
    logical_bytes: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(catalog, 0.9);
    let records = (0..rows)
        .map(|i| {
            let a = zipf.sample(&mut rng);
            let mut c = zipf.sample(&mut rng);
            if c == a {
                c = (c + 1) % catalog;
            }
            let count = rng.gen_range(1..100);
            Record::new(
                Value::Int(i as i64),
                Value::text(format!("item{a:04} item{c:04} {count}")),
            )
        })
        .collect();
    Dataset::new(name, records, logical_bytes)
}

/// Genome reads: `(read-id, base-string)` over the ACGT alphabet, plus a
/// handful of long reference fragments, mirroring CloudBurst's two inputs
/// merged into one sequence store.
pub fn genome_reads(
    name: &str,
    reads: usize,
    read_len: usize,
    seed: u64,
    logical_bytes: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::with_capacity(reads + reads / 50 + 1);
    for i in 0..reads {
        records.push(Record::new(
            Value::text(format!("r{i:06}")),
            Value::text(random_bases(&mut rng, read_len)),
        ));
    }
    // Reference fragments are ~20x read length.
    for i in 0..(reads / 50).max(1) {
        records.push(Record::new(
            Value::text(format!("ref{i:04}")),
            Value::text(random_bases(&mut rng, read_len * 20)),
        ));
    }
    Dataset::new(name, records, logical_bytes)
}

fn random_bases(rng: &mut StdRng, len: usize) -> String {
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    (0..len).map(|_| BASES[rng.gen_range(0..4)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transactions_are_deduped_and_sorted() {
        let ds = transactions("t", 50, 8, 100, 1, 0);
        for r in ds.records.iter() {
            let items: Vec<&str> = r.value.as_text().unwrap().split(' ').collect();
            let mut sorted = items.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(items, sorted);
        }
    }

    #[test]
    fn ratings_are_half_stars() {
        let ds = ratings("r", 100, 20, 50, 2, 0);
        for r in ds.records.iter() {
            let rating: f64 = r
                .value
                .as_text()
                .unwrap()
                .split(' ')
                .nth(2)
                .unwrap()
                .parse()
                .unwrap();
            assert!((0.5..=5.0).contains(&rating));
            assert_eq!((rating * 2.0).fract(), 0.0);
        }
    }

    #[test]
    fn genome_reads_have_reference_fragments() {
        let ds = genome_reads("g", 100, 30, 3, 0);
        let refs: Vec<_> = ds
            .records
            .iter()
            .filter(|r| r.key.as_text().unwrap().starts_with("ref"))
            .collect();
        assert!(!refs.is_empty());
        assert_eq!(refs[0].value.as_text().unwrap().len(), 600);
    }

    #[test]
    fn rule_lines_never_self_reference() {
        let ds = rule_lines("rl", 200, 50, 4, 0);
        for r in ds.records.iter() {
            let f: Vec<&str> = r.value.as_text().unwrap().split(' ').collect();
            assert_ne!(f[0], f[1]);
        }
    }

    #[test]
    fn user_item_lists_keyed_by_user() {
        let ds = user_item_lists("u", 10, 5, 40, 5, 0);
        assert!(ds.records[0].key.as_text().unwrap().starts_with('u'));
    }
}
