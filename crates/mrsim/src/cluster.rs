//! Cluster model: nodes, slots, heap, and base cost rates.
//!
//! The default cluster mirrors the paper's testbed: 16 Amazon EC2
//! c1.medium nodes — one master, 15 workers with 2 map slots and 2 reduce
//! slots each and 300 MB of task heap.

use crate::faults::FaultSpec;

/// Base cost rates of the cluster hardware, in nanoseconds per byte /
/// record / abstract op. These are the quantities the profile *cost
/// factors* (Table 4.2) estimate from observed task executions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostRates {
    /// Reading a byte from HDFS (remote-ish, checksummed).
    pub read_hdfs_ns_per_byte: f64,
    /// Writing a byte to HDFS (3-way replication).
    pub write_hdfs_ns_per_byte: f64,
    /// Reading a byte from local disk.
    pub read_local_ns_per_byte: f64,
    /// Writing a byte to local disk.
    pub write_local_ns_per_byte: f64,
    /// Moving a byte across the network (shuffle).
    pub network_ns_per_byte: f64,
    /// One abstract interpreter op (UDF CPU).
    pub cpu_ns_per_op: f64,
    /// Sorting work per record per comparison pass.
    pub sort_ns_per_record: f64,
    /// Serialization/deserialization per byte.
    pub serde_ns_per_byte: f64,
    /// Compression per input byte.
    pub compress_ns_per_byte: f64,
    /// Decompression per compressed byte.
    pub decompress_ns_per_byte: f64,
}

impl Default for CostRates {
    fn default() -> Self {
        // Calibrated to c1.medium-era hardware: ~60 MB/s effective HDFS
        // read, ~25 MB/s replicated write, ~100 MB/s local disk, ~35 MB/s
        // aggregate shuffle bandwidth per reducer.
        CostRates {
            read_hdfs_ns_per_byte: 16.0,
            write_hdfs_ns_per_byte: 40.0,
            read_local_ns_per_byte: 10.0,
            write_local_ns_per_byte: 14.0,
            network_ns_per_byte: 28.0,
            cpu_ns_per_op: 18.0,
            sort_ns_per_record: 90.0,
            serde_ns_per_byte: 2.5,
            compress_ns_per_byte: 6.0,
            decompress_ns_per_byte: 3.0,
        }
    }
}

impl CostRates {
    /// Scale IO/network components by `io_f` and CPU components by `cpu_f`
    /// — one task's observed rates on a more- or less-loaded node.
    pub fn jittered(&self, io_f: f64, cpu_f: f64) -> CostRates {
        CostRates {
            read_hdfs_ns_per_byte: self.read_hdfs_ns_per_byte * io_f,
            write_hdfs_ns_per_byte: self.write_hdfs_ns_per_byte * io_f,
            read_local_ns_per_byte: self.read_local_ns_per_byte * io_f,
            write_local_ns_per_byte: self.write_local_ns_per_byte * io_f,
            network_ns_per_byte: self.network_ns_per_byte * io_f,
            cpu_ns_per_op: self.cpu_ns_per_op * cpu_f,
            sort_ns_per_record: self.sort_ns_per_record * cpu_f,
            serde_ns_per_byte: self.serde_ns_per_byte * cpu_f,
            compress_ns_per_byte: self.compress_ns_per_byte * cpu_f,
            decompress_ns_per_byte: self.decompress_ns_per_byte * cpu_f,
        }
    }
}

/// The compression codec model (LZO-like): output/input size ratio.
pub const COMPRESSION_RATIO: f64 = 0.45;

/// A simulated Hadoop cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Worker (TaskTracker/DataNode) count; the master is implicit.
    pub workers: u32,
    /// Map slots per worker.
    pub map_slots_per_node: u32,
    /// Reduce slots per worker.
    pub reduce_slots_per_node: u32,
    /// Max heap of a task child JVM, in MB.
    pub child_heap_mb: u64,
    /// HDFS block size in MB; one map task per block.
    pub hdfs_block_mb: u64,
    /// Base hardware cost rates.
    pub rates: CostRates,
    /// Log-normal sigma of per-task slowdown noise, modelling node
    /// utilization heterogeneity. This is what makes profile *cost
    /// factors* vary between sample tasks of the same job (§4.1.1).
    pub heterogeneity: f64,
    /// Persistent per-node slowdown multipliers (straggler nodes): entry
    /// `i` scales every task duration on worker `i`. Missing entries mean
    /// `1.0`; an empty vector is a fully uniform cluster.
    pub node_slowdown: Vec<f64>,
    /// Fault-injection parameters; under [`FaultSpec::default`] no fault
    /// draw of the scheduler can fire.
    pub faults: FaultSpec,
}

impl ClusterSpec {
    /// The paper's testbed: 15 workers × (2 map + 2 reduce) slots,
    /// 300 MB task heap, 64 MB blocks.
    pub fn ec2_c1_medium_16() -> Self {
        ClusterSpec {
            workers: 15,
            map_slots_per_node: 2,
            reduce_slots_per_node: 2,
            child_heap_mb: 300,
            hdfs_block_mb: 64,
            rates: CostRates::default(),
            heterogeneity: 0.18,
            node_slowdown: Vec::new(),
            faults: FaultSpec::default(),
        }
    }

    /// The slowdown multiplier of worker `node` (1.0 when unspecified).
    pub fn node_slowdown_factor(&self, node: usize) -> f64 {
        self.node_slowdown.get(node).copied().unwrap_or(1.0)
    }

    /// True when every worker runs at nominal speed (no stragglers).
    pub fn is_uniform_speed(&self) -> bool {
        self.node_slowdown.iter().all(|&s| s == 1.0)
    }

    /// Total map slots.
    pub fn map_slots(&self) -> u32 {
        self.workers * self.map_slots_per_node
    }

    /// Total reduce slots.
    pub fn reduce_slots(&self) -> u32 {
        self.workers * self.reduce_slots_per_node
    }

    /// HDFS block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.hdfs_block_mb * 1024 * 1024
    }

    /// Task child heap in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.child_heap_mb * 1024 * 1024
    }

    /// Number of map tasks for a dataset of `logical_bytes` (one per HDFS
    /// split, at least one).
    pub fn num_splits(&self, logical_bytes: u64) -> u32 {
        (logical_bytes.div_ceil(self.block_bytes())).max(1) as u32
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::ec2_c1_medium_16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_has_30_slots_each_way() {
        let c = ClusterSpec::ec2_c1_medium_16();
        assert_eq!(c.map_slots(), 30);
        assert_eq!(c.reduce_slots(), 30);
    }

    #[test]
    fn splits_round_up() {
        let c = ClusterSpec::ec2_c1_medium_16();
        assert_eq!(c.num_splits(1), 1);
        assert_eq!(c.num_splits(64 * 1024 * 1024), 1);
        assert_eq!(c.num_splits(64 * 1024 * 1024 + 1), 2);
        // 35 GB / 64 MB = 560 splits, matching the paper's ~571 map tasks.
        assert_eq!(c.num_splits(35 * (1 << 30)), 560);
    }

    #[test]
    fn rates_are_positive() {
        let r = CostRates::default();
        for v in [
            r.read_hdfs_ns_per_byte,
            r.write_hdfs_ns_per_byte,
            r.read_local_ns_per_byte,
            r.write_local_ns_per_byte,
            r.network_ns_per_byte,
            r.cpu_ns_per_op,
            r.sort_ns_per_record,
            r.serde_ns_per_byte,
            r.compress_ns_per_byte,
            r.decompress_ns_per_byte,
        ] {
            assert!(v > 0.0);
        }
    }
}
