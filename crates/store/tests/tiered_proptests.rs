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

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = prop::sample::select(vec!["a", "b", "c", "inst/1", "inst/2", "tmpl/x", "h/1"])
        .prop_map(|s| s.to_string());
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
/// per-space O(1) lengths, and point reads for every key the model holds.
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
    for ((s, k), v) in model {
        let got = store.get(space_of(*s), k).unwrap();
        prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
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
    ) {
        let policy = TieredPolicy {
            memtable_budget_bytes: budget,
            run_merge_threshold: threshold,
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
