//! # cfstore — a miniature HBase
//!
//! The storage substrate for the PStorM profile store: a column-family
//! store with row-key-ordered regions, median-key region splits, a META
//! catalog, multi-version cells, and — crucially for PStorM — *server-side
//! filter pushdown* with parallel region scans (§5.3 of the paper).
//!
//! Since PR 4 the store is also durable (DESIGN.md §11): mutations are
//! write-ahead logged before they apply, flushes persist immutable
//! checksummed segment files per region behind an atomically swapped
//! MANIFEST, and reopening a store directory replays the WAL tail over
//! the loaded segments — truncating (and accounting for) any torn tail a
//! crash left behind. Crash points are injected deterministically via
//! [`CrashSpec`] so property tests can enumerate "crash anywhere,
//! reopen, invariants hold".
//!
//! A region is a memstore over its segment (DESIGN.md §44): writes fill
//! the memstore, reads merge it over segment blocks read through a bounded
//! LRU [`BlockCache`], and a flush rewrites only dirty regions, reusing
//! clean segments by reference (DESIGN.md §12), and empties the memstores
//! it wrote. The caller decides when to flush (DESIGN.md §43).
//!
//! * [`kv`] — cells, puts, row results.
//! * [`filter`] — pushdown predicates evaluated on each row a scan walks.
//! * [`region`] — sorted row partitions, memstore over segment, splits.
//! * [`store`] — tables, META, the client API, durable mode.
//! * [`shard`] — N replicated store shards behind one API: commit rule,
//!   read fail-over and repair, whole-shard rebuild (DESIGN.md §13, §36), and
//!   crash-safe online resharding (DESIGN.md §15).
//! * [`frame`] — the one length+CRC framing, decode cursor, and
//!   crash-after-N-bytes writer under every file below (DESIGN.md §16).
//! * [`wal`] — the framed write-ahead log and its crash points.
//! * [`segment`] — immutable sorted segment files with block checksums.
//! * [`blockcache`] — the bounded deterministic LRU over segment blocks.
//! * [`recovery`] — the reopen path: manifest, replay, `RecoveryReport`.
//! * [`encoding`] — the binary codec for cell values.

pub mod blockcache;
pub mod encoding;
pub mod filter;
pub mod frame;
pub mod kv;
pub mod recovery;
pub mod region;
pub mod segment;
pub mod shard;
pub mod store;
pub mod wal;

pub use blockcache::{BlockCache, BlockCacheStats};
pub use filter::{
    CompareOp, Filter, FilterList, PredicateFilter, RowPrefixFilter, SingleColumnValueFilter,
};
pub use frame::Truncation;
pub use kv::{CellVersion, Put, RowResult};
pub use recovery::{Manifest, RecoveryError, RecoveryReport};
pub use region::{KeyRange, Latest, Region, RowData, RowView, ScanMetrics};
pub use segment::{SegmentError, SegmentReader};
pub use shard::resharding::{ReshardPhase, ReshardStatus, Topology};
pub use shard::{ShardOptions, ShardedRecoveryReport, ShardedStore};
pub use store::{MetaEntry, MiniStore, Scan, StoreError, StoreOptions};
pub use wal::CrashSpec;
