//! The in-memory half of the store: one ordered map per space, and the
//! one function that applies a durable batch to them.

use crate::levels::Levels;
use crate::wal::WalOp;
use bytes::Bytes;
use std::collections::btree_map::{BTreeMap, Entry};

/// The four per-space memtables.  Keys are plain `String`s so lookups
/// can borrow the caller's `&str` (no per-`get` allocation).  A `None`
/// value is a **tombstone**: a run may hold an older version of the key,
/// which the delete shadows; tombstones only appear while runs exist.
#[derive(Default)]
pub(crate) struct MemTables {
    pub(crate) spaces: [BTreeMap<String, Option<Bytes>>; 4],
    /// Estimated resident bytes — what the spill budget is checked
    /// against.
    pub(crate) approx_bytes: u64,
}

/// Estimated resident cost of one memtable entry (`value_len` 0 for a
/// tombstone).  The constant overhead stands in for the `BTreeMap` node
/// and `Bytes` handle.
const ENTRY_OVERHEAD: u64 = 48;

pub(crate) fn entry_cost(key_len: usize, value_len: usize) -> u64 {
    key_len as u64 + value_len as u64 + ENTRY_OVERHEAD
}

/// Apply a durable batch to the memtables.  The writer never reads the
/// run tier: a put just lands, and a delete leaves a tombstone exactly
/// when some run's bloom filter may hold the key (no I/O) — otherwise
/// nothing older can surface and the key simply goes.  Writes inside a
/// retention watermark are dropped outright — the watermark only ever
/// covers windows whose durable rollup already subsumes them, and
/// dropping here is what keeps WAL replay consistent with the advanced
/// manifest.
pub(crate) fn apply_ops(
    mem: &mut MemTables,
    levels: &Levels,
    ops: impl IntoIterator<Item = WalOp>,
) {
    for op in ops {
        let (space, key, value) = op.into_entry();
        // Unknown space tags can only come from a corrupted frame that
        // still passed its CRC; drop them rather than panic — they were
        // never addressable anyway.
        let si = space as usize;
        if si >= 4 || levels.retained(space, &key) {
            continue;
        }
        // One descent finds the key's slot, and what to do is read off
        // it.
        let key_len = key.len();
        match mem.spaces[si].entry(key) {
            Entry::Occupied(mut held) => {
                // `Some(len)` a live value, `None` a tombstone.
                let was = held.get().as_ref().map(Bytes::len);
                match (value, was) {
                    (None, None) => {} // already deleted
                    (Some(value), _) => {
                        mem.approx_bytes -= entry_cost(key_len, was.unwrap_or(0));
                        mem.approx_bytes += entry_cost(key_len, value.len());
                        held.insert(Some(value));
                    }
                    (None, Some(len)) => {
                        mem.approx_bytes -= entry_cost(key_len, len);
                        if levels.may_contain_any(space, held.key()) {
                            mem.approx_bytes += entry_cost(key_len, 0);
                            held.insert(None);
                        } else {
                            held.remove();
                        }
                    }
                }
            }
            Entry::Vacant(slot) => match value {
                Some(value) => {
                    mem.approx_bytes += entry_cost(key_len, value.len());
                    slot.insert(Some(value));
                }
                // Deleting a key a run may hold leaves a tombstone to
                // shadow it; deleting one no run holds leaves nothing.
                None if levels.may_contain_any(space, slot.key()) => {
                    mem.approx_bytes += entry_cost(key_len, 0);
                    slot.insert(None);
                }
                None => {}
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::tiny_tiered;
    use crate::{Batch, MemDisk, Space, Store};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What `apply_ops` must keep true whatever it was handed:
    /// `approx_bytes` is `entry_cost` summed over what the memtable holds,
    /// and per space `len` is the number of records a full scan returns.
    fn assert_accounting(store: &Store<MemDisk>, ctx: &str) {
        let (approx, recount) = {
            let mem = &store.mem;
            let recount: u64 = mem
                .spaces
                .iter()
                .flatten()
                .map(|(k, v)| entry_cost(k.len(), v.as_ref().map_or(0, Bytes::len)))
                .sum();
            (mem.approx_bytes, recount)
        };
        assert_eq!(approx, recount, "{ctx}: approx_bytes drifted");
        for space in Space::ALL {
            let scanned = store.scan_prefix(space, "").unwrap().len();
            assert_eq!(
                store.len(space).unwrap(),
                scanned,
                "{ctx}: len of {space:?}"
            );
        }
    }

    fn slot(store: &Store<MemDisk>, space: Space, key: &str) -> Option<Option<usize>> {
        let mem = &store.mem;
        mem.spaces[space.as_u8() as usize]
            .get(key)
            .map(|v| v.as_ref().map(Bytes::len))
    }

    #[test]
    fn approx_bytes_and_len_survive_any_put_delete_spill_merge_reopen_sequence() {
        const SEED: u64 = 0xB10B_0B5E;
        let mut rng = StdRng::seed_from_u64(SEED);
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(tiny_tiered())).unwrap();
        for step in 0..1_500 {
            let ctx = format!("seed {SEED:#x} step {step}");
            match rng.gen_range(0..100u32) {
                // Mostly writes: a small key pool per space, so overwrites,
                // deletes of live keys, deletes of deleted keys and re-puts
                // over tombstones all come up, in batches of one to five.
                0..=84 => {
                    let mut batch = Batch::new();
                    for _ in 0..rng.gen_range(1..=5usize) {
                        let space = Space::ALL[rng.gen_range(0..4usize)];
                        let key = format!("k/{:02}", rng.gen_range(0..24u32));
                        if rng.gen_range(0..3u32) == 0 {
                            batch.delete(space, key);
                        } else {
                            let len = rng.gen_range(0..160usize);
                            batch.put(space, key, vec![step as u8; len]);
                        }
                    }
                    store.apply(batch).unwrap();
                }
                85..=90 => store.spill().unwrap(),
                91..=95 => store.compact_levels().unwrap(),
                _ => {
                    drop(store);
                    store = Store::open_with(disk.clone(), Some(tiny_tiered())).unwrap();
                }
            }
            assert_accounting(&store, &ctx);
        }
        // The sequence did exercise the tier (spill and merge counters
        // restart with each reopen; the epoch and the levels do not).
        let stats = store.stats();
        assert!(stats.epoch > 50 && stats.levels >= 1, "{stats:?}");
    }

    #[test]
    fn a_delete_leaves_a_tombstone_only_over_a_run() {
        let mut store = Store::open_with(MemDisk::new(), Some(tiny_tiered())).unwrap();
        let space = Space::Instance;
        store.put(space, "in-a-run", vec![1; 40]).unwrap();
        store.spill().unwrap();
        assert_eq!(slot(&store, space, "in-a-run"), None);

        // Only a run holds the key: the delete must shadow it.
        store.delete(space, "in-a-run").unwrap();
        assert_eq!(slot(&store, space, "in-a-run"), Some(None));
        assert_eq!(store.len(space).unwrap(), 0);
        assert_accounting(&store, "tombstone over a run");
        // Deleting it again changes nothing; a re-put revives it in place.
        store.delete(space, "in-a-run").unwrap();
        assert_eq!(slot(&store, space, "in-a-run"), Some(None));
        assert_accounting(&store, "second delete");
        store.put(space, "in-a-run", vec![2; 7]).unwrap();
        assert_eq!(slot(&store, space, "in-a-run"), Some(Some(7)));
        assert_eq!(store.len(space).unwrap(), 1);
        assert_accounting(&store, "re-put over the tombstone");
        // Overwritten in the memtable and deleted there: still shadows the
        // run's older version.
        store.delete(space, "in-a-run").unwrap();
        assert_eq!(slot(&store, space, "in-a-run"), Some(None));
        assert_eq!(store.get(space, "in-a-run").unwrap(), None);

        // Nothing holds the key: the delete leaves nothing behind.
        store.delete(space, "never-written").unwrap();
        assert_eq!(slot(&store, space, "never-written"), None);
        assert_accounting(&store, "delete of an unknown key");

        // Only the memtable holds it and no run's filter claims it: the
        // delete removes the entry outright.
        assert!(!store.levels.may_contain_any(space.as_u8(), "mem-only"));
        store.put(space, "mem-only", vec![3; 9]).unwrap();
        store.delete(space, "mem-only").unwrap();
        assert_eq!(slot(&store, space, "mem-only"), None);
        assert_accounting(&store, "delete of a memtable-only key");
    }

    /// The writer's half of the tier contract: applying batches reads
    /// nothing.  Over a cold store with runs in L0 and L1, fresh puts,
    /// overwrites and deletes of keys the runs hold, and deletes of keys
    /// nothing holds make no `read`, `read_range` or `file_size` call —
    /// and every read afterwards still sees exactly the model.
    #[test]
    fn the_writer_never_reads_the_tier() {
        let policy = crate::TieredPolicy {
            memtable_budget_bytes: 256 * 1024,
            run_merge_threshold: 2,
            ..crate::TieredPolicy::default()
        };
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(policy)).unwrap();
        let mut model: std::collections::BTreeMap<(Space, String), Vec<u8>> = Default::default();
        let mut put = |store: &mut Store<MemDisk>, space: Space, key: String, fill: u8| {
            store.put(space, key.clone(), vec![fill; 50]).unwrap();
            model.insert((space, key), vec![fill; 50]);
        };
        for (round, space) in [Space::Instance, Space::History, Space::Instance]
            .into_iter()
            .enumerate()
        {
            for i in 0..60 {
                put(
                    &mut store,
                    space,
                    format!("k/{:03}", 3 * i + round),
                    round as u8,
                );
            }
            store.spill().unwrap();
            if round == 1 {
                store.compact_levels().unwrap();
            }
        }
        {
            let levels = &store.levels;
            assert_eq!((levels.l0.len(), levels.deeper[0].len()), (1, 1));
        }
        drop(store);
        let mut store = Store::open_with(disk.clone(), Some(policy)).unwrap();

        let (reads, spills) = (disk.read_op_count(), store.stats().spills);
        let mut batches = Vec::new();
        for i in 0..60 {
            let mut b = Batch::new();
            let (space, fill) = (Space::ALL[i % 2], 100 + i as u8);
            // Fresh, inside the runs' hulls and past them.
            for key in [format!("k/{:03}", 3 * i + 1), format!("z/{i:03}")] {
                b.put(space, key.clone(), vec![fill; 50]);
                model.insert((space, key), vec![fill; 50]);
            }
            // Overwrite an L1 key, delete an L0 one, delete an absent one.
            let l1 = format!("k/{:03}", 3 * i);
            b.put(Space::Instance, l1.clone(), vec![fill; 50]);
            model.insert((Space::Instance, l1), vec![fill; 50]);
            let l0 = format!("k/{:03}", 3 * i + 2);
            b.delete(Space::Instance, l0.clone());
            model.remove(&(Space::Instance, l0));
            b.delete(Space::Configuration, format!("k/{i:03}"));
            batches.push(b);
        }
        store.apply_many(batches).unwrap();
        assert_eq!(
            disk.read_op_count(),
            reads,
            "applying a batch read the disk"
        );
        assert_eq!(
            store.stats().spills,
            spills,
            "the batches crossed the budget"
        );

        for space in Space::ALL {
            let expect: Vec<(String, Bytes)> = model
                .iter()
                .filter(|((s, _), _)| *s == space)
                .map(|((_, k), v)| (k.clone(), Bytes::from(v.clone())))
                .collect();
            assert_eq!(store.scan_prefix(space, "").unwrap(), expect, "{space:?}");
            assert_eq!(store.len(space).unwrap(), expect.len());
        }
        assert_accounting(&store, "after the batches");
    }
}
