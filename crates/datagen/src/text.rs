//! Text corpus generators: Wikipedia-like Zipfian documents and uniform
//! random text, in line-keyed and document-keyed flavours.

use mrjobs::{Dataset, Record, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::{Vocabulary, Zipf};

/// Parameters for a synthetic text corpus.
#[derive(Debug, Clone)]
pub struct TextCorpusSpec {
    /// Dataset name.
    pub name: String,
    /// RNG seed; everything is deterministic in the seed.
    pub seed: u64,
    /// Number of physical sample lines to materialize.
    pub lines: usize,
    /// Mean words per line.
    pub words_per_line: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Zipf exponent (0 = uniform random text; ~1 = natural language).
    pub zipf_exponent: f64,
    /// Logical dataset size in bytes that the sample stands for.
    pub logical_bytes: u64,
}

impl TextCorpusSpec {
    /// A Wikipedia-like corpus: large vocabulary, Zipfian, 12-word lines.
    pub fn wikipedia(name: &str, lines: usize, logical_bytes: u64) -> Self {
        TextCorpusSpec {
            name: name.to_string(),
            seed: 0x5712_011c,
            lines,
            words_per_line: 12,
            vocab: 8_000,
            zipf_exponent: 1.02,
            logical_bytes,
        }
    }

    /// Uniform random text: small vocabulary, no skew.
    pub fn random_text(name: &str, lines: usize, logical_bytes: u64) -> Self {
        TextCorpusSpec {
            name: name.to_string(),
            seed: 0xABCD_1234,
            lines,
            words_per_line: 10,
            vocab: 3_000,
            zipf_exponent: 0.0,
            logical_bytes,
        }
    }

    /// Materialize as a line-keyed dataset: `(line-offset, text)`, the
    /// shape `TextInputFormat` produces.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let vocab = Vocabulary::new(self.vocab);
        let zipf = Zipf::new(self.vocab, self.zipf_exponent);
        let mut records = Vec::with_capacity(self.lines);
        let mut offset = 0i64;
        for _ in 0..self.lines {
            let line = self.line(&mut rng, &vocab, &zipf);
            let size = line.len() as i64 + 1;
            records.push(Record::new(Value::Int(offset), Value::text(line)));
            offset += size;
        }
        Dataset::new(self.name.clone(), records, self.logical_bytes)
    }

    /// Materialize as a document-keyed dataset: `(doc-id, text)`, the shape
    /// `KeyValueTextInputFormat` produces; used by the inverted-index job.
    pub fn generate_keyed_docs(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xD0C5);
        let vocab = Vocabulary::new(self.vocab);
        let zipf = Zipf::new(self.vocab, self.zipf_exponent);
        let records = (0..self.lines)
            .map(|i| {
                Record::new(
                    Value::text(format!("doc{i:06}")),
                    Value::text(self.line(&mut rng, &vocab, &zipf)),
                )
            })
            .collect();
        Dataset::new(self.name.clone(), records, self.logical_bytes)
    }

    fn line(&self, rng: &mut StdRng, vocab: &Vocabulary, zipf: &Zipf) -> String {
        // Line lengths vary ±50% around the mean.
        let lo = (self.words_per_line / 2).max(1);
        let hi = self.words_per_line + self.words_per_line / 2;
        let n = rng.gen_range(lo..=hi);
        let mut line = String::with_capacity(n * 7);
        for w in 0..n {
            if w > 0 {
                line.push(' ');
            }
            line.push_str(vocab.word(zipf.sample(rng)));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = TextCorpusSpec::wikipedia("w", 50, 0);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn line_keys_are_byte_offsets() {
        let ds = TextCorpusSpec::wikipedia("w", 10, 0).generate();
        let k0 = ds.records[0].key.as_int().unwrap();
        let k1 = ds.records[1].key.as_int().unwrap();
        let len0 = ds.records[0].value.as_text().unwrap().len() as i64;
        assert_eq!(k0, 0);
        assert_eq!(k1, len0 + 1);
    }

    #[test]
    fn zipf_corpus_repeats_head_words() {
        let ds = TextCorpusSpec::wikipedia("w", 400, 0).generate();
        let mut counts = std::collections::HashMap::new();
        for r in ds.records.iter() {
            for w in r.value.as_text().unwrap().split_whitespace() {
                *counts.entry(w.to_string()).or_insert(0usize) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 20, "head word should repeat many times, got {max}");
    }

    #[test]
    fn keyed_docs_have_doc_ids() {
        let ds = TextCorpusSpec::wikipedia("w", 5, 0).generate_keyed_docs();
        assert_eq!(ds.records[3].key, Value::text("doc000003"));
    }

    #[test]
    fn logical_bytes_drive_scale() {
        let ds = TextCorpusSpec::wikipedia("w", 100, 50_000_000).generate();
        assert!(ds.scale() > 100.0);
    }
}
