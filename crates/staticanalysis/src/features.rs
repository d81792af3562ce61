//! Static job features (Table 4.3).
//!
//! The black-box features are the class names and key/value types of the
//! customizable parts of the MapReduce framework; the white-box features
//! are the map and reduce CFGs. PStorM matches map-side and reduce-side
//! feature vectors independently (so profiles can be *composed* from two
//! different jobs), so this module exposes the two sides separately.

use mrjobs::JobSpec;

use crate::cfg::Cfg;

/// The static features of one side (map or reduce) of a job: an ordered
/// categorical vector plus the CFG of that side's UDF.
#[derive(Debug, Clone, PartialEq)]
pub struct SideFeatures {
    /// Ordered `(feature-name, value)` pairs; order is fixed so two
    /// vectors can be compared positionally (the paper's `O(|S_J|)`
    /// Jaccard evaluation).
    pub categorical: Vec<(&'static str, String)>,
    /// The CFG of the side's UDF; `None` when the job has no reducer.
    pub cfg: Option<Cfg>,
}

impl SideFeatures {
    /// Fraction of positionally corresponding categorical features that
    /// are equal — the Jaccard index as the paper computes it (equal pairs
    /// over total pairs). Vectors of different lengths (e.g. when the
    /// §7.2.1 job-parameter extension appends features) treat the
    /// unpaired tail as mismatching.
    pub fn jaccard(&self, other: &SideFeatures) -> f64 {
        let total = self.categorical.len().max(other.categorical.len());
        if total == 0 {
            return 1.0;
        }
        let equal = self
            .categorical
            .iter()
            .zip(&other.categorical)
            .filter(|((na, va), (nb, vb))| na == nb && va == vb)
            .count();
        equal as f64 / total as f64
    }

    /// Conservative CFG match score: 1.0 on a structural match, 0.0
    /// otherwise. Sides without a CFG (map-only jobs' reduce side) match
    /// each other.
    pub fn cfg_match(&self, other: &SideFeatures) -> f64 {
        match (&self.cfg, &other.cfg) {
            (Some(a), Some(b)) if a.matches(b) => 1.0,
            (Some(_), Some(_)) => 0.0,
            (None, None) => 1.0,
            _ => 0.0,
        }
    }
}

/// The full static feature set of a job: map side and reduce side.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticFeatures {
    pub map: SideFeatures,
    pub reduce: SideFeatures,
}

/// The names of the map side's categorical features, in vector order:
/// the `Static/` columns a stored job's map side is read back from.
pub const MAP_CATEGORICAL: [&str; 8] = [
    "IN_FORMATTER",
    "MAPPER",
    "MAP_IN_KEY",
    "MAP_IN_VAL",
    "MAP_OUT_KEY",
    "MAP_OUT_VAL",
    "COMBINER",
    "PARTITIONER",
];

/// The names of the reduce side's categorical features, in vector order.
pub const REDUCE_CATEGORICAL: [&str; 6] = [
    "REDUCER",
    "RED_OUT_KEY",
    "RED_OUT_VAL",
    "OUT_FORMATTER",
    "RED_IN_KEY",
    "RED_IN_VAL",
];

impl StaticFeatures {
    /// Extract the Table 4.3 features from a job spec.
    pub fn extract(spec: &JobSpec) -> StaticFeatures {
        let or_null = |class: &Option<String>| class.clone().unwrap_or_else(|| "NULL".into());
        // Values in the order of `MAP_CATEGORICAL` and `REDUCE_CATEGORICAL`.
        let map_values = [
            spec.input_formatter.clone(),
            spec.mapper_class.clone(),
            spec.map_in_key.class_name().to_string(),
            spec.map_in_val.class_name().to_string(),
            spec.map_out_key.class_name().to_string(),
            spec.map_out_val.class_name().to_string(),
            or_null(&spec.combiner_class),
            spec.partitioner.class_name().to_string(),
        ];
        let reduce_values = [
            or_null(&spec.reducer_class),
            spec.red_out_key.class_name().to_string(),
            spec.red_out_val.class_name().to_string(),
            spec.output_formatter.clone(),
            // The reduce side consumes the intermediate key/value types.
            spec.map_out_key.class_name().to_string(),
            spec.map_out_val.class_name().to_string(),
        ];
        StaticFeatures {
            map: SideFeatures {
                categorical: MAP_CATEGORICAL.into_iter().zip(map_values).collect(),
                cfg: Some(Cfg::from_udf(&spec.map_udf)),
            },
            reduce: SideFeatures {
                categorical: REDUCE_CATEGORICAL.into_iter().zip(reduce_values).collect(),
                cfg: spec.reduce_udf.as_ref().map(Cfg::from_udf),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrjobs::jobs::{
        bigram_relative_frequency, grep, word_cooccurrence_pairs, word_count,
        word_count_while_variant,
    };

    #[test]
    fn identical_jobs_have_jaccard_one() {
        let a = StaticFeatures::extract(&word_count());
        let b = StaticFeatures::extract(&word_count());
        assert_eq!(a.map.jaccard(&b.map), 1.0);
        assert_eq!(a.reduce.jaccard(&b.reduce), 1.0);
        assert_eq!(a.map.cfg_match(&b.map), 1.0);
    }

    #[test]
    fn word_count_variants_share_reducer_features() {
        let a = StaticFeatures::extract(&word_count());
        let b = StaticFeatures::extract(&word_count_while_variant());
        // Mapper class differs; everything else on the map side matches.
        assert!(a.map.jaccard(&b.map) >= 7.0 / 8.0 - 1e-9);
        assert_eq!(a.reduce.jaccard(&b.reduce), 1.0);
        assert_eq!(a.map.cfg_match(&b.map), 1.0);
    }

    #[test]
    fn different_jobs_have_low_map_jaccard() {
        let a = StaticFeatures::extract(&word_count());
        let b = StaticFeatures::extract(&word_cooccurrence_pairs(2));
        assert!(a.map.jaccard(&b.map) < 0.8);
        assert_eq!(a.map.cfg_match(&b.map), 0.0);
    }

    #[test]
    fn grep_pattern_does_not_change_static_features() {
        let a = StaticFeatures::extract(&grep("foo"));
        let b = StaticFeatures::extract(&grep("bar"));
        assert_eq!(a.map.jaccard(&b.map), 1.0);
        assert_eq!(a.map.cfg_match(&b.map), 1.0);
    }

    #[test]
    fn bigram_reduce_side_differs_from_sum_reducers() {
        let a = StaticFeatures::extract(&bigram_relative_frequency());
        let b = StaticFeatures::extract(&word_count());
        assert!(a.reduce.jaccard(&b.reduce) < 0.5);
        assert_eq!(a.reduce.cfg_match(&b.reduce), 0.0);
    }

    #[test]
    fn map_only_jobs_have_no_reduce_cfg() {
        let mut spec = word_count();
        spec.reduce_udf = None;
        spec.reducer_class = None;
        let f = StaticFeatures::extract(&spec);
        assert!(f.reduce.cfg.is_none());
        let g = StaticFeatures::extract(&spec);
        assert_eq!(f.reduce.cfg_match(&g.reduce), 1.0);
        let with_reduce = StaticFeatures::extract(&word_count());
        assert_eq!(f.reduce.cfg_match(&with_reduce.reduce), 0.0);
    }
}
