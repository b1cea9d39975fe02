//! Differential model tests for the tiered engine.
//!
//! The tiered store — memtables over immutable sorted runs, with spills,
//! bloom-gated reads and merge compactions — must stay observationally
//! identical to a plain per-space `BTreeMap` under *any* interleaving of
//! commits, explicit spills, run merges, compactions and reopens.  The
//! memtable budget is deliberately tiny (≤ 4 KiB) so nearly every sequence
//! crosses the spill threshold several times and most reads have to merge
//! the memtable with multiple runs.

use bioopera_store::{Batch, MemDisk, Space, Store, TieredPolicy};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put {
        space: u8,
        key: String,
        value: Vec<u8>,
    },
    Delete {
        space: u8,
        key: String,
    },
}

const KEY_POOL: [&str; 7] = ["a", "b", "c", "inst/1", "inst/2", "tmpl/x", "h/1"];

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = prop::sample::select(KEY_POOL.to_vec()).prop_map(|s| s.to_string());
    let space = 0u8..4;
    prop_oneof![
        (
            space.clone(),
            key.clone(),
            prop::collection::vec(any::<u8>(), 0..48)
        )
            .prop_map(|(space, key, value)| Op::Put { space, key, value }),
        (space, key).prop_map(|(space, key)| Op::Delete { space, key }),
    ]
}

fn space_of(v: u8) -> Space {
    Space::ALL[v as usize]
}

fn apply_model(model: &mut BTreeMap<(u8, String), Vec<u8>>, batch: &[Op]) {
    for op in batch {
        match op {
            Op::Put { space, key, value } => {
                model.insert((*space, key.clone()), value.clone());
            }
            Op::Delete { space, key } => {
                model.remove(&(*space, key.clone()));
            }
        }
    }
}

fn to_batch(ops: &[Op]) -> Batch {
    let mut b = Batch::new();
    for op in ops {
        match op {
            Op::Put { space, key, value } => {
                b.put(space_of(*space), key.clone(), value.clone());
            }
            Op::Delete { space, key } => {
                b.delete(space_of(*space), key.clone());
            }
        }
    }
    b
}

/// One step of the interleaving: commits, explicit tier transitions
/// (spill, leveled maintenance round, roll) and close/reopen cycles.
#[derive(Debug, Clone)]
enum Action {
    Apply(Vec<Op>),
    ApplyMany(Vec<Vec<Op>>),
    Spill,
    CompactLevels,
    Compact,
    Reopen,
}

fn actions_strategy() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            5 => prop::collection::vec(op_strategy(), 1..5).prop_map(Action::Apply),
            2 => prop::collection::vec(prop::collection::vec(op_strategy(), 1..4), 1..4)
                .prop_map(Action::ApplyMany),
            1 => Just(Action::Spill),
            1 => Just(Action::CompactLevels),
            1 => Just(Action::Compact),
            1 => Just(Action::Reopen),
        ],
        1..40,
    )
}

fn dump(store: &Store<MemDisk>) -> BTreeMap<(u8, String), Vec<u8>> {
    let mut out = BTreeMap::new();
    for (i, space) in Space::ALL.iter().enumerate() {
        for (k, v) in store.scan_prefix(*space, "").unwrap() {
            out.insert((i as u8, k), v.to_vec());
        }
    }
    out
}

/// Assert full observational equivalence with the oracle: scan contents,
/// per-space O(1) lengths, and point reads for every key of the pool —
/// the value the model holds, or definite absence (deleted, or never
/// written: the lookups the bloom filters answer).
fn assert_matches_model(
    store: &Store<MemDisk>,
    model: &BTreeMap<(u8, String), Vec<u8>>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(dump(store), model.clone());
    for (i, space) in Space::ALL.iter().enumerate() {
        let expect = model.keys().filter(|(s, _)| *s == i as u8).count();
        prop_assert_eq!(store.len(*space).unwrap(), expect);
        prop_assert_eq!(store.is_empty(*space).unwrap(), expect == 0);
    }
    for s in 0..4u8 {
        for k in KEY_POOL {
            let got = store.get(space_of(s), k).unwrap();
            let want = model.get(&(s, k.to_string()));
            prop_assert_eq!(got.as_deref(), want.map(Vec::as_slice));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tiered_store_matches_model_under_any_interleaving(
        actions in actions_strategy(),
        budget in prop::sample::select(vec![256u64, 1024, 4096]),
        threshold in 2usize..5,
        // No cache at all (every probe that passes the filters decodes
        // its block), one that holds a block or two (constant eviction),
        // and the default; every reopen starts the cache cold.
        cache in prop::sample::select(vec![0u64, 1024, TieredPolicy::default().block_cache_budget]),
    ) {
        let policy = TieredPolicy {
            memtable_budget_bytes: budget,
            run_merge_threshold: threshold,
            block_cache_budget: cache,
            ..TieredPolicy::default()
        };
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(policy)).unwrap();
        let mut model = BTreeMap::new();
        for action in &actions {
            match action {
                Action::Apply(ops) => {
                    store.apply(to_batch(ops)).unwrap();
                    apply_model(&mut model, ops);
                }
                Action::ApplyMany(list) => {
                    store.apply_many(list.iter().map(|ops| to_batch(ops))).unwrap();
                    for ops in list {
                        apply_model(&mut model, ops);
                    }
                }
                Action::Spill => store.spill().unwrap(),
                Action::CompactLevels => store.compact_levels().unwrap(),
                Action::Compact => store.compact().unwrap(),
                Action::Reopen => {
                    drop(store);
                    store = Store::open_with(disk.clone(), Some(policy)).unwrap();
                }
            }
            assert_matches_model(&store, &model)?;
        }

        // The budget is actually enforced: after the final action the
        // memtable estimate sits at or below one batch past the budget.
        let stats = store.stats();
        prop_assert!(
            stats.memtable_bytes <= budget + 4096,
            "memtable {} bytes exceeds budget {} plus one-batch slack",
            stats.memtable_bytes,
            budget
        );

        // Equivalence must survive a clean close/reopen, and reopening
        // must not lose tier state (runs stay readable, spill counters
        // monotone within a handle's lifetime).
        drop(store);
        let reopened = Store::open_with(disk, Some(policy)).unwrap();
        assert_matches_model(&reopened, &model)?;
    }

    #[test]
    fn tiered_and_untiered_stores_agree_on_any_batch_sequence(
        batches in prop::collection::vec(prop::collection::vec(op_strategy(), 1..5), 1..25),
    ) {
        // The same batch sequence through a constantly-spilling tiered
        // store and through the untiered engine must produce identical
        // visible state — tiering is a resource policy, not a semantic.
        let tiered_disk = MemDisk::new();
        let tiered = Store::open_with(
            tiered_disk.clone(),
            Some(TieredPolicy {
                memtable_budget_bytes: 256,
                run_merge_threshold: 2,
                ..TieredPolicy::default()
            }),
        )
        .unwrap();
        let plain_disk = MemDisk::new();
        let plain = Store::open_with(plain_disk, None).unwrap();
        for batch in &batches {
            tiered.apply(to_batch(batch)).unwrap();
            plain.apply(to_batch(batch)).unwrap();
        }
        prop_assert_eq!(dump(&tiered), dump(&plain));
        for space in Space::ALL {
            prop_assert_eq!(tiered.len(space).unwrap(), plain.len(space).unwrap());
        }
    }
}

/// The read path asks the bloom filter before it touches the sparse
/// index or the block cache: a lookup of a key that lies inside the
/// runs' hulls but that no run holds — the writer's read-before-write,
/// most of the time — is answered by run metadata alone.  On a warm
/// store, a thousand such lookups leave the cache's counters where they
/// were, apart from bloom false positives, and read nothing.
#[test]
fn absent_in_hull_keys_are_answered_by_the_bloom_not_the_cache() {
    use bioopera_store::bloom::FP_BOUND;

    const KEYS: usize = 4_000;
    let key = |i: usize| format!("k/{i:06}");
    let disk = MemDisk::new();
    let store = Store::open_with(
        disk.clone(),
        Some(TieredPolicy {
            memtable_budget_bytes: 16 * 1024,
            ..TieredPolicy::default()
        }),
    )
    .unwrap();
    // Even keys only, in a scattered order so sibling L0 runs overlap and
    // a lookup has several runs whose hull contains its key.
    for n in 0..KEYS {
        let i = (n * 7919) % KEYS;
        store
            .put(Space::Instance, key(2 * i), vec![i as u8; 64])
            .unwrap();
    }
    store.spill().unwrap();
    let loaded = store.stats();
    assert!(loaded.runs >= 4, "{loaded:?}");
    assert_eq!(loaded.memtable_bytes, 0);
    // Warm every block.
    for i in 0..KEYS {
        assert!(store.get(Space::Instance, &key(2 * i)).unwrap().is_some());
    }

    let before = store.stats();
    let reads_before = disk.read_op_count();
    for i in 0..1_000 {
        let absent = key(2 * (i * 3 + 1) + 1);
        assert_eq!(store.get(Space::Instance, &absent).unwrap(), None);
    }
    let after = store.stats();
    let run_lookups =
        (after.bloom_skips + after.run_probes) - (before.bloom_skips + before.run_probes);
    let cache_lookups =
        (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
    assert!(run_lookups >= 1_000, "every key is inside some run's hull");
    assert!(
        (cache_lookups as f64) <= FP_BOUND * run_lookups as f64,
        "{cache_lookups} cache lookups for {run_lookups} run lookups of absent keys: \
         the cache is being probed before the bloom filter"
    );
    assert_eq!(after.run_probes - before.run_probes, cache_lookups);
    assert_eq!(
        disk.read_op_count(),
        reads_before,
        "a warm store reads nothing"
    );
}
