//! Datasets as seen by the simulator.
//!
//! Real PStorM processes multi-gigabyte datasets on a cluster. Here a
//! [`Dataset`] carries a physically materialized *sample* of records plus
//! the `logical_bytes` it stands for; the simulator executes UDFs over the
//! sample and scales dataflow counts by [`Dataset::scale`]. This keeps
//! experiments laptop-fast while preserving per-record behaviour and the
//! relative shapes of dataflow statistics.

use std::sync::Arc;

use crate::value::Record;

/// A named dataset: a physical sample of records standing in for a
/// (possibly much larger) logical dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (e.g. `"wikipedia-35g"`); part of the experiment
    /// corpus definitions.
    pub name: String,
    /// The materialized sample records, shared between clones: a
    /// `TuningService` ticket carries its dataset to a worker thread, and
    /// a clone per ticket must not copy the sample.
    pub records: Arc<[Record]>,
    /// The size of the logical dataset this sample represents, in bytes.
    pub logical_bytes: u64,
}

impl Dataset {
    /// Create a dataset; `logical_bytes` of 0 means "the sample *is* the
    /// dataset" and is replaced with the physical size.
    pub fn new(name: impl Into<String>, records: Vec<Record>, logical_bytes: u64) -> Self {
        let mut ds = Dataset {
            name: name.into(),
            records: records.into(),
            logical_bytes,
        };
        if ds.logical_bytes == 0 {
            ds.logical_bytes = ds.physical_bytes();
        }
        ds
    }

    /// Serialized size of the physical sample.
    pub fn physical_bytes(&self) -> u64 {
        self.records.iter().map(Record::serialized_size).sum()
    }

    /// Ratio of logical to physical size; dataflow counts measured on the
    /// sample are multiplied by this to obtain full-scale statistics.
    pub fn scale(&self) -> f64 {
        let phys = self.physical_bytes().max(1);
        (self.logical_bytes as f64 / phys as f64).max(1.0)
    }

    /// Number of physical sample records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(Value::Int(i as i64), Value::text("x".repeat(10))))
            .collect()
    }

    #[test]
    fn zero_logical_bytes_means_physical() {
        let ds = Dataset::new("d", records(4), 0);
        assert_eq!(ds.logical_bytes, ds.physical_bytes());
        assert_eq!(ds.scale(), 1.0);
    }

    #[test]
    fn scale_is_logical_over_physical() {
        let ds = Dataset::new("d", records(4), 10_000);
        let phys = ds.physical_bytes();
        assert!((ds.scale() - 10_000.0 / phys as f64).abs() < 1e-9);
    }

    #[test]
    fn a_clone_shares_the_records() {
        let ds = Dataset::new("d", records(4), 0);
        let copy = ds.clone();
        assert!(Arc::ptr_eq(&ds.records, &copy.records));
        assert_eq!(copy.len(), 4);
    }

    #[test]
    fn scale_never_below_one() {
        let ds = Dataset::new("d", records(100), 1);
        assert_eq!(ds.scale(), 1.0);
    }
}
