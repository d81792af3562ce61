//! A bounded, deterministic LRU cache over segment blocks.
//!
//! Since PR 6 a reopened store no longer materializes flushed rows into
//! memstores: clean regions stay backed by their segment file and read
//! ≤[`crate::segment::BLOCK_ROWS`]-row blocks on demand through this
//! cache (DESIGN.md §12). The cache is shared by every region of one
//! store, keyed by `(reader id, block index)`, and charged the *framed
//! on-disk size* of each block so the byte budget tracks real I/O saved.
//!
//! Design constraints, in order:
//!
//! 1. **Correctness is the reader's job.** The cache never caches
//!    un-verified bytes: a fill goes through
//!    [`SegmentReader::read_block`], which CRC-checks the block, so a hit
//!    can only ever serve rows that passed the same verification the
//!    eager path ran. Corruption is *not* cached — a failed fill leaves
//!    no entry, and the next read re-attempts (and re-fails, typed).
//! 2. **Deterministic.** Recency is a logical tick, not a wall clock;
//!    eviction order is a pure function of the access sequence. The
//!    property tests replay identical workloads at different budgets and
//!    require bit-identical reads, and the budget gate pins hit/miss
//!    accounting.
//! 3. **Bounded.** `used + incoming > budget` evicts least-recently-used
//!    entries until the block fits; a block larger than the whole budget
//!    (or any block under a 0-byte budget) is served but never admitted,
//!    so the budget is a hard ceiling, not a hint.
//! 4. **Fills off the lock, one per block.** A miss leaves a marker for
//!    the block in the map and reads, CRC-checks and decodes with the lock
//!    released, so readers of different blocks fill side by side (the
//!    threads of one scan, DESIGN.md §28). A reader that finds the marker
//!    waits for that fill and then looks again — a hit that bumps recency
//!    as any hit does — so concurrent readers of one block fill it once.
//!    Admission takes the lock again after the fill. A single thread's
//!    hits, misses, evictions and eviction order are what they were when
//!    the lock was held across the fill.
//!
//! Counters (recorded against the store's `obs` registry):
//! `cfstore.block_cache.hits`, `.misses`, `.evictions`, `.fill_bytes`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use bytes::Bytes;
use parking_lot::RwLock;

use crate::region::RowData;
use crate::segment::{SegmentError, SegmentReader};

/// Decoded rows of one block, shared between the cache and its readers.
pub type BlockRows = Arc<BTreeMap<Bytes, RowData>>;

/// Cache key: (process-unique reader id, block index).
type Key = (u64, u32);

struct Entry {
    rows: BlockRows,
    /// Framed on-disk size of the block (the byte cost charged).
    bytes: u64,
    /// Recency tick; also the key into `order`.
    tick: u64,
}

/// What the map holds for a block: its admitted rows, or the marker of a
/// fill in flight that other readers of the block wait for.
enum Slot {
    Filling,
    Cached(Entry),
}

#[derive(Default)]
struct Inner {
    map: HashMap<Key, Slot>,
    /// LRU order: tick → key, oldest first, one per cached entry. Ticks
    /// are unique, so this is a total order and eviction is deterministic.
    order: BTreeMap<u64, Key>,
    used: u64,
    next_tick: u64,
}

/// Point-in-time cache occupancy, for fsck and bench reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCacheStats {
    pub entries: usize,
    pub used_bytes: u64,
    pub budget_bytes: u64,
}

/// The shared segment block cache. See the module docs for the policy.
pub struct BlockCache {
    budget: u64,
    /// std primitives (not `parking_lot`, whose vendored stand-in has no
    /// `Condvar`): readers of a block being filled wait on `filled`.
    inner: Mutex<Inner>,
    filled: Condvar,
    /// Observability sink, swapped in by `MiniStore::set_obs` after open
    /// (recovery-time fills run against the disabled default).
    obs: RwLock<obs::Registry>,
}

impl BlockCache {
    /// A cache admitting at most `budget` bytes of framed blocks.
    pub fn new(budget: u64) -> Self {
        BlockCache {
            budget,
            inner: Mutex::default(),
            filled: Condvar::new(),
            obs: RwLock::new(obs::Registry::disabled()),
        }
    }

    /// Nothing panics while holding the lock but on a broken map/order
    /// invariant, so a poisoned lock still guards valid state.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attach the registry the hit/miss/eviction counters record against.
    pub fn set_obs(&self, obs: obs::Registry) {
        *self.obs.write() = obs;
    }

    /// Byte budget this cache was built with.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Current occupancy.
    pub fn stats(&self) -> BlockCacheStats {
        let inner = self.lock();
        BlockCacheStats {
            entries: inner.order.len(),
            used_bytes: inner.used,
            budget_bytes: self.budget,
        }
    }

    /// Drop every cached block of one reader. Called when a heal
    /// replaces a corrupt segment: the reader id is process-unique and
    /// never reused, so without this its admitted blocks would pin cache
    /// budget until evicted by pressure.
    pub fn evict_reader(&self, reader_id: u64) {
        let mut inner = self.lock();
        let victims: Vec<(u64, Key)> = inner
            .order
            .iter()
            .filter(|(_, (rid, _))| *rid == reader_id)
            .map(|(&tick, &key)| (tick, key))
            .collect();
        for (tick, key) in victims {
            inner.order.remove(&tick);
            if let Some(Slot::Cached(entry)) = inner.map.remove(&key) {
                inner.used -= entry.bytes;
            }
        }
    }

    /// Serve block `idx` of `reader`, from cache or by a CRC-verified
    /// fill. A miss leaves a marker for the block and fills with the lock
    /// released, so fills of different blocks run side by side; readers
    /// of the same block wait for that one fill and then look again (a
    /// hit, or a fill of their own if it failed or was not admitted).
    pub fn get_or_load(
        &self,
        reader: &SegmentReader,
        idx: usize,
    ) -> Result<BlockRows, SegmentError> {
        let key: Key = (reader.id(), idx as u32);
        let obs = self.obs.read().clone();
        let mut guard = self.lock();
        loop {
            let inner = &mut *guard;
            match inner.map.get_mut(&key) {
                Some(Slot::Cached(entry)) => {
                    let tick = inner.next_tick;
                    inner.next_tick += 1;
                    inner.order.remove(&entry.tick);
                    inner.order.insert(tick, key);
                    entry.tick = tick;
                    obs.incr("cfstore.block_cache.hits", 1);
                    return Ok(entry.rows.clone());
                }
                Some(Slot::Filling) => {
                    guard = self
                        .filled
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => break,
            }
        }
        guard.map.insert(key, Slot::Filling);
        drop(guard);
        let claim = Claim { cache: self, key };
        obs.incr("cfstore.block_cache.misses", 1);
        let (rows, bytes) = fill(reader, idx)?;
        obs.incr("cfstore.block_cache.fill_bytes", bytes);
        claim.admit(rows.clone(), bytes, &obs);
        Ok(rows)
    }
}

/// Read, CRC-check and decode one block, holding no cache lock.
fn fill(reader: &SegmentReader, idx: usize) -> Result<(BlockRows, u64), SegmentError> {
    Ok((Arc::new(reader.read_block(idx)?), reader.block_bytes(idx)))
}

/// The fill marker of one block. However the fill ends (admitted, served
/// but not admitted, failed or panicking) dropping the claim takes the
/// marker out of the map and wakes the block's waiters, so a failure is
/// never cached and every waiter looks again.
struct Claim<'a> {
    cache: &'a BlockCache,
    key: Key,
}

impl Claim<'_> {
    /// Admit a filled block: evict least-recently-used entries until it
    /// fits, unless it is larger than the whole budget. The evicted blocks
    /// are freed after the lock is released.
    fn admit(self, rows: BlockRows, bytes: u64, obs: &obs::Registry) {
        if bytes > self.cache.budget {
            return;
        }
        let mut evicted = Vec::new();
        let mut inner = self.cache.lock();
        while inner.used + bytes > self.cache.budget {
            let (_, victim) = inner.order.pop_first().expect("used > 0 implies entries");
            match inner.map.remove(&victim) {
                Some(Slot::Cached(entry)) => {
                    inner.used -= entry.bytes;
                    evicted.push(entry.rows);
                }
                _ => unreachable!("order lists cached entries only"),
            }
            obs.incr("cfstore.block_cache.evictions", 1);
        }
        let tick = inner.next_tick;
        inner.next_tick += 1;
        inner.order.insert(tick, self.key);
        let entry = Entry { rows, bytes, tick };
        inner.map.insert(self.key, Slot::Cached(entry));
        inner.used += bytes;
        drop(inner);
        drop(evicted);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.lock();
        if let Some(Slot::Filling) = inner.map.get(&self.key) {
            inner.map.remove(&self.key);
        }
        drop(inner);
        self.cache.filled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::KeyRange;
    use crate::segment::write_segment;
    use bytes::Bytes;
    use std::collections::BTreeMap;

    fn sample_segment(tag: &str, rows: usize) -> (std::path::PathBuf, SegmentReader) {
        let path = std::env::temp_dir().join(format!(
            "cfstore-bc-{tag}-{}-{:?}.seg",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut data = BTreeMap::new();
        for i in 0..rows {
            let mut cols = BTreeMap::new();
            cols.insert(
                Bytes::from("c"),
                vec![crate::kv::CellVersion::new(
                    i as u64 + 1,
                    Bytes::from(format!("v{i}")),
                )],
            );
            let mut row: RowData = BTreeMap::new();
            row.insert("f".to_string(), cols);
            data.insert(Bytes::from(format!("row{i:04}")), row);
        }
        write_segment(&path, "t", 1, &KeyRange::all(), &data).unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        (path, reader)
    }

    #[test]
    fn hits_after_first_fill_and_lru_eviction_under_budget() {
        let (path, reader) = sample_segment("lru", 100);
        assert!(reader.block_count() >= 3);
        let per_block = reader.block_bytes(0);
        // Budget holds roughly two blocks.
        let cache = BlockCache::new(per_block * 2 + 4);
        let obs = obs::Registry::new();
        cache.set_obs(obs.clone());

        let a = cache.get_or_load(&reader, 0).unwrap();
        let b = cache.get_or_load(&reader, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second read is a cache hit");
        cache.get_or_load(&reader, 1).unwrap();
        cache.get_or_load(&reader, 2).unwrap(); // evicts block 0 (LRU)
        cache.get_or_load(&reader, 0).unwrap(); // miss again

        let snap = obs.snapshot();
        assert_eq!(snap.counters["cfstore.block_cache.hits"], 1);
        assert_eq!(snap.counters["cfstore.block_cache.misses"], 4);
        assert!(snap.counters["cfstore.block_cache.evictions"] >= 1);
        assert!(cache.stats().used_bytes <= cache.budget());
        std::fs::remove_file(&path).unwrap();
    }

    /// A fill that panics takes its marker with it: the next reader of the
    /// block fills (and panics) again instead of waiting forever.
    #[test]
    fn a_panicking_fill_leaves_no_marker() {
        let (path, reader) = sample_segment("panic", 40);
        let cache = BlockCache::new(1 << 20);
        let past_the_end = reader.block_count();
        for _ in 0..2 {
            let fill = || cache.get_or_load(&reader, past_the_end);
            let fill = std::panic::AssertUnwindSafe(fill);
            assert!(std::panic::catch_unwind(fill).is_err());
        }
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get_or_load(&reader, 0).is_ok());
        assert_eq!(cache.stats().entries, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_budget_serves_reads_but_admits_nothing() {
        let (path, reader) = sample_segment("zero", 40);
        let cache = BlockCache::new(0);
        let obs = obs::Registry::new();
        cache.set_obs(obs.clone());
        let first = cache.get_or_load(&reader, 0).unwrap();
        let second = cache.get_or_load(&reader, 0).unwrap();
        assert_eq!(first, second, "reads are identical even when uncached");
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().used_bytes, 0);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["cfstore.block_cache.misses"], 2);
        assert_eq!(snap.counters.get("cfstore.block_cache.hits"), None);
        std::fs::remove_file(&path).unwrap();
    }
}
