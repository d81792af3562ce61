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
//! 4. **Fills off the lock.** A miss reads, CRC-checks and decodes with
//!    the lock released, so readers of different blocks fill side by
//!    side, and takes the lock again to admit the block. Readers that miss
//!    one block at once each read it: the first admit keeps its entry and
//!    the others leave it in place, charging no bytes and moving no
//!    recency. No reader waits for another's fill; no `tenants_sharded`
//!    run has had one to wait for (DESIGN.md §47). A single thread's hits,
//!    misses, evictions and eviction order are what they were when the
//!    lock was held across the fill.
//! 5. **Only a point read admits** (DESIGN.md §42): a point get reads
//!    through [`BlockCache::get_or_load`]; a scan, a flush and a scrub
//!    read around the cache through [`BlockCache::peek_or_read`],
//!    as HBase's `setCacheBlocks(false)` scans do, since nothing re-reads
//!    what they walk.
//!
//! Counters (recorded against the store's `obs` registry):
//! `cfstore.block_cache.hits`, `.misses`, `.evictions`, `.fill_bytes`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

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

#[derive(Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    /// LRU order: tick → key, oldest first, one per entry. Ticks are
    /// unique, so this is a total order and eviction is deterministic.
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
    inner: Mutex<Inner>,
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
            obs: RwLock::new(obs::Registry::disabled()),
        }
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
        let inner = self.inner.lock();
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
        let mut inner = self.inner.lock();
        let victims: Vec<(u64, Key)> = inner
            .order
            .iter()
            .filter(|(_, (rid, _))| *rid == reader_id)
            .map(|(&tick, &key)| (tick, key))
            .collect();
        for (tick, key) in victims {
            inner.order.remove(&tick);
            if let Some(entry) = inner.map.remove(&key) {
                inner.used -= entry.bytes;
            }
        }
    }

    /// Serve block `idx` of `reader`, from cache or by a CRC-verified
    /// fill with the lock released, which is then admitted.
    pub fn get_or_load(
        &self,
        reader: &SegmentReader,
        idx: usize,
    ) -> Result<Arc<Block>, SegmentError> {
        let key: Key = (reader.id(), idx as u32);
        let obs = self.obs.read().clone();
        {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            if let Some(entry) = inner.map.get_mut(&key) {
                let tick = inner.next_tick;
                inner.next_tick += 1;
                inner.order.remove(&entry.tick);
                inner.order.insert(tick, key);
                entry.tick = tick;
                obs.incr("cfstore.block_cache.hits", 1);
                return Ok(entry.block.clone());
            }
        }
        obs.incr("cfstore.block_cache.misses", 1);
        let (block, bytes) = fill(reader, idx)?;
        obs.incr("cfstore.block_cache.fill_bytes", bytes);
        self.admit(key, block.clone(), bytes, &obs);
        Ok(block)
    }

    /// Admit a filled block: evict least-recently-used entries until it
    /// fits, unless it is larger than the whole budget or a racing reader
    /// admitted it first. The evicted blocks are freed after the lock is
    /// released.
    fn admit(&self, key: Key, block: Arc<Block>, bytes: u64, obs: &obs::Registry) {
        if bytes > self.budget {
            return;
        }
        let mut evicted = Vec::new();
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&key) {
            return;
        }
        while inner.used + bytes > self.budget {
            let (_, victim) = inner.order.pop_first().expect("used > 0 implies entries");
            if let Some(entry) = inner.map.remove(&victim) {
                inner.used -= entry.bytes;
                evicted.push(entry.block);
            }
            obs.incr("cfstore.block_cache.evictions", 1);
        }
        let tick = inner.next_tick;
        inner.next_tick += 1;
        inner.order.insert(tick, key);
        inner.map.insert(key, Entry { block, bytes, tick });
        inner.used += bytes;
        drop(inner);
        drop(evicted);
    }

    /// Serve block `idx` of `reader` to a walk that reads around the
    /// cache: a cached block is a hit that leaves its recency alone, and
    /// any other block is a CRC-verified read that is not admitted. The
    /// entries, their bytes and their LRU order are the point reads' alone.
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
        if let Some(entry) = self.inner.lock().map.get(&(reader.id(), idx as u32)) {
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

    /// A fill that panics leaves nothing behind: the next reader of the
    /// block fills (and panics) again.
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
    /// order and reads any other block without admitting it.
    #[test]
    fn a_peek_admits_nothing_and_moves_nothing() {
        let (path, reader) = sample_segment("peek", 100);
        let cache = BlockCache::new(1 << 20);
        let obs = obs::Registry::new();
        cache.set_obs(obs.clone());
        let order = || {
            cache
                .inner
                .lock()
                .order
                .values()
                .copied()
                .collect::<Vec<Key>>()
        };
        let a = cache.get_or_load(&reader, 0).unwrap();
        cache.get_or_load(&reader, 1).unwrap();
        let before = (cache.stats(), order());

        assert!(Arc::ptr_eq(&a, &cache.peek_or_read(&reader, 0).unwrap()));
        cache.peek_or_read(&reader, 2).unwrap();
        assert_eq!((cache.stats(), order()), before);

        let snap = obs.snapshot();
        assert_eq!(snap.counters["cfstore.block_cache.hits"], 1);
        assert_eq!(snap.counters["cfstore.block_cache.misses"], 3);
        let read: u64 = (0..3).map(|i| reader.block_bytes(i)).sum();
        assert_eq!(snap.counters["cfstore.block_cache.fill_bytes"], read);
        std::fs::remove_file(&path).unwrap();
    }

    /// Two readers that miss one block at once each fill it; the second
    /// admit finds the first's entry and leaves it in place, charging no
    /// bytes and taking no tick, so it evicts nothing even under a budget
    /// of exactly one block.
    #[test]
    fn a_racing_admit_leaves_the_first_entry_in_place() {
        let (path, reader) = sample_segment("race", 40);
        let bytes = reader.block_bytes(0);
        let cache = BlockCache::new(bytes);
        let obs = obs::Registry::new();
        cache.set_obs(obs.clone());
        let key = (reader.id(), 0);
        let (first, _) = fill(&reader, 0).unwrap();
        let (second, _) = fill(&reader, 0).unwrap();
        cache.admit(key, first.clone(), bytes, &obs);
        cache.admit(key, second, bytes, &obs);

        let inner = cache.inner.lock();
        assert_eq!(inner.map.len(), 1);
        assert!(Arc::ptr_eq(&inner.map[&key].block, &first));
        assert_eq!(inner.used, inner.map.values().map(|e| e.bytes).sum::<u64>());
        assert_eq!(inner.order.len(), inner.map.len());
        assert_eq!(
            obs.snapshot().counters.get("cfstore.block_cache.evictions"),
            None
        );
        drop(inner);
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
