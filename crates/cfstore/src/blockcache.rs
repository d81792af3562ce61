//! A bounded, deterministic LRU cache over segment blocks.
//!
//! A region reads its segment ≤[`crate::segment::BLOCK_ROWS`]-row blocks
//! on demand through this cache (DESIGN.md §12, §44). The cache is shared
//! by every region of one store, keyed by `(reader id, block index)`, and
//! charged the *framed on-disk size* of each block so the byte budget
//! tracks real I/O saved.
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
//!    released, so readers of different blocks fill side by side. A
//!    reader that finds the marker waits for that fill and then looks
//!    again — a hit that bumps recency as any hit does — so concurrent
//!    readers of one block fill it once. Admission takes the lock again
//!    after the fill. A single thread's hits, misses, evictions and
//!    eviction order are what they were when the lock was held across the
//!    fill.
//! 5. **Only a point read admits** (DESIGN.md §42): a point get reads
//!    through [`BlockCache::get_or_load`]; a scan, a flush and a scrub
//!    read around the cache through [`BlockCache::peek_or_read`],
//!    as HBase's `setCacheBlocks(false)` scans do, since nothing re-reads
//!    what they walk.
//!
//! Counters (recorded against the store's `obs` registry):
//! `cfstore.block_cache.hits`, `.misses`, `.evictions`, `.fill_bytes`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use parking_lot::RwLock;

use crate::segment::{Block, SegmentError, SegmentReader};

/// Cache key: (process-unique reader id, block index).
type Key = (u64, u32);

struct Entry {
    block: Arc<Block>,
    /// Framed on-disk size of the block (the byte cost charged).
    bytes: u64,
    /// Recency tick; also the key into `order`.
    tick: u64,
}

/// What the map holds for a block: the admitted block, or the marker of a
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

    /// Drop every cached block of one reader. Called when a region drops
    /// its segment, rebased or healed: the reader id is process-unique
    /// and never reused, so without this its admitted blocks would pin
    /// cache budget until evicted by pressure.
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
    ) -> Result<Arc<Block>, SegmentError> {
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
                    return Ok(entry.block.clone());
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
        let (block, bytes) = fill(reader, idx)?;
        obs.incr("cfstore.block_cache.fill_bytes", bytes);
        claim.admit(block.clone(), bytes, &obs);
        Ok(block)
    }

    /// Serve block `idx` of `reader` to a walk that reads around the
    /// cache: a cached block is a hit that leaves its recency alone, and
    /// any other block, one being filled included, is a CRC-verified read
    /// that is not admitted. The entries, their bytes and their LRU order
    /// are the point reads' alone.
    pub fn peek_or_read(
        &self,
        reader: &SegmentReader,
        idx: usize,
    ) -> Result<Arc<Block>, SegmentError> {
        let obs = self.obs.read().clone();
        if let Some(block) = self.peek(reader, idx, &obs) {
            return Ok(block);
        }
        let (block, bytes) = fill(reader, idx)?;
        obs.incr("cfstore.block_cache.fill_bytes", bytes);
        Ok(block)
    }

    /// Block `idx` of `reader` if it is cached, a hit that leaves its
    /// recency alone; otherwise a miss, counted, and `None`.
    fn peek(&self, reader: &SegmentReader, idx: usize, obs: &obs::Registry) -> Option<Arc<Block>> {
        if let Some(Slot::Cached(entry)) = self.lock().map.get(&(reader.id(), idx as u32)) {
            obs.incr("cfstore.block_cache.hits", 1);
            return Some(entry.block.clone());
        }
        obs.incr("cfstore.block_cache.misses", 1);
        None
    }
}

/// Read, CRC-check and decode one block, holding no cache lock.
fn fill(reader: &SegmentReader, idx: usize) -> Result<(Arc<Block>, u64), SegmentError> {
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
    fn admit(self, block: Arc<Block>, bytes: u64, obs: &obs::Registry) {
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
                    evicted.push(entry.block);
                }
                _ => unreachable!("order lists cached entries only"),
            }
            obs.incr("cfstore.block_cache.evictions", 1);
        }
        let tick = inner.next_tick;
        inner.next_tick += 1;
        inner.order.insert(tick, self.key);
        let entry = Entry { block, bytes, tick };
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
    use crate::region::{KeyRange, RowData};
    use crate::segment::write_segment;
    use bytes::Bytes;

    fn sample_segment(tag: &str, rows: usize) -> (std::path::PathBuf, SegmentReader) {
        let path = std::env::temp_dir().join(format!(
            "cfstore-bc-{tag}-{}-{:?}.seg",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut data = BTreeMap::new();
        for i in 0..rows {
            let cols = vec![(
                Bytes::from("c"),
                vec![crate::kv::CellVersion::new(
                    i as u64 + 1,
                    Bytes::from(format!("v{i}")),
                )],
            )];
            let row: RowData = vec![("f".to_string(), cols)];
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

    /// A walk's read serves a cached block without moving it in the LRU
    /// order, reads any other block without admitting it, and reads a
    /// block another reader is filling instead of waiting for it.
    #[test]
    fn a_peek_admits_nothing_and_moves_nothing() {
        let (path, reader) = sample_segment("peek", 100);
        let cache = BlockCache::new(1 << 20);
        let obs = obs::Registry::new();
        cache.set_obs(obs.clone());
        let order = || cache.lock().order.values().copied().collect::<Vec<Key>>();
        let a = cache.get_or_load(&reader, 0).unwrap();
        cache.get_or_load(&reader, 1).unwrap();
        let before = (cache.stats(), order());

        assert!(Arc::ptr_eq(&a, &cache.peek_or_read(&reader, 0).unwrap()));
        cache.peek_or_read(&reader, 2).unwrap();
        cache.lock().map.insert((reader.id(), 3), Slot::Filling);
        cache.peek_or_read(&reader, 3).unwrap();
        assert_eq!((cache.stats(), order()), before);

        let snap = obs.snapshot();
        assert_eq!(snap.counters["cfstore.block_cache.hits"], 1);
        assert_eq!(snap.counters["cfstore.block_cache.misses"], 4);
        let read: u64 = (0..4).map(|i| reader.block_bytes(i)).sum();
        assert_eq!(snap.counters["cfstore.block_cache.fill_bytes"], read);
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
