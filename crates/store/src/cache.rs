//! Budgeted shared **block cache** for the sorted-run tier.
//!
//! Point reads against a run must read and CRC-check one ~4 KiB data
//! block and decode it into ops before the key can even be compared —
//! that decode, not the (in-memory-disk) read, dominates tiered `get`
//! latency.  The cache keeps *decoded* blocks — the sorted op vector,
//! whose `Bytes` values still alias the original zero-copy block read —
//! and answers point lookups *under its lock*, so a warm hit is one
//! mutex round-trip, a hash probe and a binary search; no block handle
//! or refcount traffic ever escapes.
//!
//! Entries are keyed `(run id, block offset)`.  Run files are immutable
//! and run ids never repeat within a store lifetime, so a cached block
//! can never go stale; when a compaction deletes a run its blocks are
//! purged eagerly ([`BlockCache::purge_run`]) to free budget early.
//!
//! Eviction is CLOCK (second chance): a fixed hand sweeps the slot
//! table, clearing reference bits until it finds an unreferenced victim.
//! No linked list, no per-hit mutation beyond setting a bit — the whole
//! structure is one mutex around a per-run `HashMap` of block offsets +
//! a slot vector, which is plenty for a cache consulted only after a
//! bloom filter and a sparse index have already narrowed the lookup to
//! one block.
//!
//! Blooms and sparse block indexes are **pinned** by construction: they
//! live inside [`crate::runs::Run`] for the lifetime of the opened run
//! and are never subject to this budget.
//!
//! Blocks are inserted only *after* their frame CRC verified, so the
//! cache can never serve bytes that corruption detection would have
//! rejected.  Merge compactions stream runs block by block
//! ([`crate::merge`]) and bypass the cache entirely — a merge touches
//! every block once and would only evict the read-path working set.

use crate::error::StoreResult;
use crate::wal::WalOp;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Default cache budget: an untiered store's, and a tiered one's unless
/// its policy says otherwise.
pub const DEFAULT_BLOCK_CACHE_BUDGET: u64 = 8 * 1024 * 1024;

/// One decoded, CRC-verified data block: ops sorted by key (a block
/// never mixes spaces).
pub struct DecodedBlock {
    ops: Vec<WalOp>,
    /// Estimated resident bytes, charged against the cache budget.
    bytes: u64,
}

fn op_key(op: &WalOp) -> &str {
    match op {
        WalOp::Put { key, .. } => key,
        WalOp::Delete { key, .. } => key,
    }
}

impl DecodedBlock {
    pub fn new(ops: Vec<WalOp>) -> Self {
        let bytes: u64 = ops
            .iter()
            .map(|op| match op {
                WalOp::Put { key, value, .. } => key.len() as u64 + value.len() as u64 + 64,
                WalOp::Delete { key, .. } => key.len() as u64 + 64,
            })
            .sum();
        DecodedBlock { ops, bytes }
    }

    /// Binary-searched point lookup within the block.  `None` — key not
    /// in this block; `Some(None)` — tombstoned here; `Some(Some(v))` —
    /// live value (a cheap `Bytes` clone of the shared block image).
    pub fn lookup(&self, key: &str) -> Option<Option<Bytes>> {
        let idx = self.ops.partition_point(|op| op_key(op) < key);
        match self.ops.get(idx) {
            Some(WalOp::Put { key: k, value, .. }) if k == key => Some(Some(value.clone())),
            Some(WalOp::Delete { key: k, .. }) if k == key => Some(None),
            _ => None,
        }
    }
}

struct Slot {
    key: (u64, u64),
    block: DecodedBlock,
    referenced: bool,
}

/// Map hasher: the keys are run ids and block offsets with no
/// adversarial structure, so a murmur-style finalizer mixes them fine —
/// SipHash resistance buys nothing on this hot read path.
#[derive(Default)]
struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut x = self.0 ^ n;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        self.0 = x;
    }
}

type MixMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<MixHasher>>;

/// Run id → block offset → slot.  Two levels so that retiring a run
/// ([`BlockCache::purge_run`]) touches that run's blocks only; a run
/// with no cached block has no entry.
type BlockMap = MixMap<MixMap<usize>>;

#[derive(Default)]
struct Inner {
    map: BlockMap,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    hand: usize,
    bytes: u64,
    hits: u64,
    misses: u64,
}

/// The budgeted CLOCK cache shared by every handle of one store.
pub struct BlockCache {
    budget: u64,
    inner: Mutex<Inner>,
}

impl Inner {
    fn slot_of(&self, run: u64, offset: u64) -> Option<usize> {
        self.map.get(&run)?.get(&offset).copied()
    }
}

impl BlockCache {
    /// A cache bounded to `budget` estimated bytes.  `budget == 0`
    /// disables caching (every lookup decodes from disk).
    pub fn new(budget: u64) -> Self {
        BlockCache {
            budget,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.inner.lock().hits
    }

    /// Lookups that had to decode the block from disk.
    pub fn misses(&self) -> u64 {
        self.inner.lock().misses
    }

    /// Point-look `key` up in block `(run, offset)`, decoding via
    /// `load` on a miss.  The search runs *under the cache lock* on a
    /// hit — no refcount traffic, no block handle escapes — and the
    /// decoded block is kept only when it fits the budget (a block
    /// larger than the whole budget is searched and dropped).
    pub fn lookup_or_load(
        &self,
        run: u64,
        offset: u64,
        key: &str,
        load: impl FnOnce() -> StoreResult<Vec<WalOp>>,
    ) -> StoreResult<Option<Option<Bytes>>> {
        {
            let mut inner = self.inner.lock();
            if let Some(idx) = inner.slot_of(run, offset) {
                if let Some(s) = inner.slots[idx].as_mut() {
                    s.referenced = true;
                    let found = s.block.lookup(key);
                    inner.hits += 1;
                    return Ok(found);
                }
            }
        }
        let block = DecodedBlock::new(load()?);
        let found = block.lookup(key);
        let mut inner = self.inner.lock();
        inner.misses += 1;
        // A racing loader may have inserted the same block; keep the
        // existing entry rather than double-charging the budget.
        if block.bytes <= self.budget && inner.slot_of(run, offset).is_none() {
            Self::evict_until(&mut inner, self.budget.saturating_sub(block.bytes));
            inner.bytes += block.bytes;
            let slot = Slot {
                key: (run, offset),
                block,
                referenced: true,
            };
            let idx = match inner.free.pop() {
                Some(idx) => {
                    inner.slots[idx] = Some(slot);
                    idx
                }
                None => {
                    inner.slots.push(Some(slot));
                    inner.slots.len() - 1
                }
            };
            inner.map.entry(run).or_default().insert(offset, idx);
        }
        Ok(found)
    }

    /// CLOCK sweep: clear reference bits until enough unreferenced
    /// victims have been dropped to bring residency down to `target`.
    fn evict_until(inner: &mut Inner, target: u64) {
        if inner.bytes <= target {
            return;
        }
        // Two full sweeps always find a victim (first sweep clears every
        // reference bit); the occupancy check stops an empty-table spin.
        let mut sweeps = 2 * inner.slots.len();
        while inner.bytes > target && sweeps > 0 {
            sweeps -= 1;
            let idx = inner.hand;
            inner.hand = (inner.hand + 1) % inner.slots.len().max(1);
            match inner.slots[idx].as_mut() {
                Some(s) if s.referenced => s.referenced = false,
                Some(_) => {
                    let s = inner.slots[idx].take().unwrap();
                    inner.bytes -= s.block.bytes;
                    let (run, offset) = s.key;
                    if let Some(blocks) = inner.map.get_mut(&run) {
                        blocks.remove(&offset);
                        if blocks.is_empty() {
                            inner.map.remove(&run);
                        }
                    }
                    inner.free.push(idx);
                }
                None => {}
            }
        }
    }

    /// Drop every cached block of `run` — called when a compaction
    /// deletes the run file, so dead blocks free budget immediately.
    /// Work is proportional to that run's cached blocks.
    pub fn purge_run(&self, run: u64) {
        let mut inner = self.inner.lock();
        for idx in inner
            .map
            .remove(&run)
            .into_iter()
            .flat_map(MixMap::into_values)
        {
            if let Some(s) = inner.slots[idx].take() {
                inner.bytes -= s.block.bytes;
                inner.free.push(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize, val_len: usize) -> Vec<WalOp> {
        (0..n)
            .map(|i| WalOp::Put {
                space: 0,
                key: format!("k{i:04}"),
                value: Bytes::from(vec![0u8; val_len]),
            })
            .collect()
    }

    #[test]
    fn hit_after_miss_and_budget_bounds_residency() {
        let cache = BlockCache::new(4096);
        let hit = cache
            .lookup_or_load(1, 0, "k0001", || Ok(block(4, 100)))
            .unwrap();
        assert!(hit.is_some());
        assert_eq!(cache.misses(), 1);
        let hit = cache
            .lookup_or_load(1, 0, "k0001", || panic!("must hit"))
            .unwrap();
        assert!(hit.is_some());
        assert_eq!(cache.hits(), 1);
        // Many distinct blocks: residency never exceeds the budget.
        for i in 0..64 {
            cache
                .lookup_or_load(2, i * 4096, "k0000", || Ok(block(4, 100)))
                .unwrap();
        }
        assert!(cache.inner.lock().bytes <= 4096);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = BlockCache::new(0);
        cache
            .lookup_or_load(1, 0, "k0000", || Ok(block(2, 8)))
            .unwrap();
        cache
            .lookup_or_load(1, 0, "k0000", || Ok(block(2, 8)))
            .unwrap();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.inner.lock().bytes, 0);
    }

    #[test]
    fn purge_run_drops_only_that_runs_blocks() {
        let cache = BlockCache::new(1 << 20);
        cache
            .lookup_or_load(1, 0, "k0000", || Ok(block(2, 8)))
            .unwrap();
        cache
            .lookup_or_load(1, 4096, "k0000", || Ok(block(3, 8)))
            .unwrap();
        cache
            .lookup_or_load(2, 0, "k0000", || Ok(block(2, 8)))
            .unwrap();
        cache
            .lookup_or_load(3, 4096, "k0000", || Ok(block(5, 8)))
            .unwrap();
        let others = DecodedBlock::new(block(2, 8)).bytes + DecodedBlock::new(block(5, 8)).bytes;
        let slot_of = |run, offset| cache.inner.lock().slot_of(run, offset);
        let (slot2, slot3) = (slot_of(2, 0), slot_of(3, 4096));
        cache.purge_run(1);
        // Exactly run 1's two blocks went: the other runs keep their
        // slots and the byte accounting drops by run 1's share alone.
        assert_eq!(cache.inner.lock().bytes, others);
        assert_eq!(slot_of(1, 0), None);
        assert_eq!(slot_of(1, 4096), None);
        assert!(!cache.inner.lock().map.contains_key(&1));
        assert_eq!((slot_of(2, 0), slot_of(3, 4096)), (slot2, slot3));
        assert!(slot2.is_some() && slot3.is_some());
        cache.purge_run(7); // never cached: a no-op
        assert_eq!(cache.inner.lock().bytes, others);
        cache
            .lookup_or_load(1, 0, "k0000", || Ok(block(2, 8)))
            .unwrap();
        assert_eq!(cache.misses(), 5, "run 1 was purged");
        cache
            .lookup_or_load(2, 0, "k0000", || panic!("run 2 must stay"))
            .unwrap();
        cache
            .lookup_or_load(3, 4096, "k0000", || panic!("run 3 must stay"))
            .unwrap();
    }

    #[test]
    fn lookup_distinguishes_tombstones() {
        let ops = vec![
            WalOp::Put {
                space: 0,
                key: "a".into(),
                value: Bytes::from_static(b"1"),
            },
            WalOp::Delete {
                space: 0,
                key: "b".into(),
            },
        ];
        let b = DecodedBlock::new(ops);
        assert_eq!(b.lookup("a"), Some(Some(Bytes::from_static(b"1"))));
        assert_eq!(b.lookup("b"), Some(None));
        assert_eq!(b.lookup("c"), None);
    }
}
