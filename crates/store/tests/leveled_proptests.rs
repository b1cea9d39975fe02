//! Differential model tests for leveled compaction and windowed retention.
//!
//! Beyond the flat-tier equivalence suite (`tiered_proptests.rs`), the
//! leveled engine makes three structural promises that must hold under any
//! interleaving of commits, spills, merges, retention advances and reopens:
//!
//! 1. Every level below L0 holds runs whose composite `(space, key)` ranges
//!    are sorted and pairwise disjoint — point reads may binary-search one
//!    run per level.
//! 2. Reads always observe the newest version of a key, and a deletion is
//!    never resurrected by a push-down, no matter how deep the old value
//!    sits (tombstones survive until the bottom level drops them).
//! 3. Retention deletes exactly the records covered by the watermark hull —
//!    never a record outside it — and writes below the watermark stay
//!    invisible forever, including across crashes and reopens.
//!
//! Level thresholds here are tiny (1–4 KiB) so sequences of a few dozen
//! batches routinely cascade runs into L2 and beyond.

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

fn key_pool() -> Vec<&'static str> {
    vec![
        "a", "b", "c", "ev/01", "ev/02", "ev/03", "ev/04", "ev/09", "inst/1", "inst/2", "zz",
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = prop::sample::select(key_pool()).prop_map(|s| s.to_string());
    let space = 0u8..4;
    prop_oneof![
        3 => (
            space.clone(),
            key.clone(),
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(space, key, value)| Op::Put { space, key, value }),
        1 => (space, key).prop_map(|(space, key)| Op::Delete { space, key }),
    ]
}

fn space_of(v: u8) -> Space {
    Space::ALL[v as usize]
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

/// Oracle: per-space sorted map plus the retention watermark hull, with
/// writes below the watermark dropped exactly as the engine drops them.
#[derive(Default)]
struct Model {
    data: BTreeMap<(u8, String), Vec<u8>>,
    retain: [Option<(String, String)>; 4],
}

impl Model {
    fn retired(&self, space: u8, key: &str) -> bool {
        match &self.retain[space as usize] {
            Some((start, below)) => start.as_str() <= key && key < below.as_str(),
            None => false,
        }
    }

    fn apply(&mut self, batch: &[Op]) {
        for op in batch {
            match op {
                Op::Put { space, key, value } => {
                    if !self.retired(*space, key) {
                        self.data.insert((*space, key.clone()), value.clone());
                    }
                }
                Op::Delete { space, key } => {
                    self.data.remove(&(*space, key.clone()));
                }
            }
        }
    }

    /// Advance the watermark to the convex hull of the old window and
    /// `[start, below)`.  Returns the number of records newly retired, or
    /// `None` when the request is degenerate / already covered (the engine
    /// answers `Ok(0)` without touching the watermark).
    fn retain_below(&mut self, space: u8, start: &str, below: &str) -> Option<usize> {
        if below <= start {
            return None;
        }
        let hull = match &self.retain[space as usize] {
            Some((s, b)) => (
                s.as_str().min(start).to_string(),
                b.as_str().max(below).to_string(),
            ),
            None => (start.to_string(), below.to_string()),
        };
        if self.retain[space as usize].as_ref() == Some(&hull) {
            return None;
        }
        let doomed: Vec<(u8, String)> = self
            .data
            .range((space, hull.0.clone())..(space, hull.1.clone()))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &doomed {
            self.data.remove(k);
        }
        self.retain[space as usize] = Some(hull);
        Some(doomed.len())
    }
}

#[derive(Debug, Clone)]
enum Action {
    Apply(Vec<Op>),
    Spill,
    CompactLevels,
    Compact,
    Retain {
        space: u8,
        start: String,
        below: String,
    },
    Reopen,
}

fn actions_strategy() -> impl Strategy<Value = Vec<Action>> {
    let boundary = prop::sample::select(vec!["a", "ev/", "ev/02", "ev/05", "ev/10", "inst/", "z"])
        .prop_map(|s| s.to_string());
    prop::collection::vec(
        prop_oneof![
            6 => prop::collection::vec(op_strategy(), 1..6).prop_map(Action::Apply),
            2 => Just(Action::Spill),
            1 => Just(Action::CompactLevels),
            1 => Just(Action::Compact),
            2 => (0u8..4, boundary.clone(), boundary)
                .prop_map(|(space, start, below)| Action::Retain { space, start, below }),
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

/// Structural invariant: every level below L0 is sorted by range and
/// pairwise disjoint on composite keys.
fn assert_levels_disjoint(store: &Store<MemDisk>) -> Result<(), TestCaseError> {
    for (li, level) in store.level_ranges().iter().enumerate() {
        for (lo, hi) in level {
            prop_assert!(lo <= hi, "L{}: inverted run range", li + 1);
        }
        for pair in level.windows(2) {
            prop_assert!(
                pair[0].1 < pair[1].0,
                "L{}: overlapping or unsorted runs: {:?} vs {:?}",
                li + 1,
                pair[0],
                pair[1]
            );
        }
    }
    Ok(())
}

/// One committed batch of the shard engine's key mix: the next `ev`
/// keys of `ev/{n}` and the next `sev` keys of `sev/{round}/{idx}` —
/// two families in the history space that only ever grow — plus
/// overwrites and deletes of a small instance set spread over the
/// `s0000…s0003` shard prefixes.
#[derive(Debug, Clone)]
struct ShardRound {
    ev: usize,
    sev: usize,
    /// `(shard, instance, delete)`.
    inst: Vec<(u8, u8, bool)>,
    value_len: usize,
    then: AfterRound,
}

#[derive(Debug, Clone, Copy)]
enum AfterRound {
    Nothing,
    Spill,
    CompactLevels,
    Reopen,
}

fn shard_rounds_strategy() -> impl Strategy<Value = Vec<ShardRound>> {
    let round = (
        0usize..6,
        0usize..4,
        prop::collection::vec((0u8..4, 0u8..5, prop::bool::weighted(0.15)), 0..5),
        prop::sample::select(vec![8usize, 90, 400, 1500]),
        prop_oneof![
            8 => Just(AfterRound::Nothing),
            2 => Just(AfterRound::Spill),
            1 => Just(AfterRound::CompactLevels),
            1 => Just(AfterRound::Reopen),
        ],
    )
        .prop_map(|(ev, sev, inst, value_len, then)| ShardRound {
            ev,
            sev,
            inst,
            value_len,
            then,
        });
    prop::collection::vec(round, 10..60)
}

fn assert_matches_model(store: &Store<MemDisk>, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(dump(store), model.data.clone());
    for (i, space) in Space::ALL.iter().enumerate() {
        let expect = model.data.keys().filter(|(s, _)| *s == i as u8).count();
        prop_assert_eq!(store.len(*space).unwrap(), expect);
        prop_assert_eq!(
            store.retention(*space),
            model.retain[i].clone(),
            "space {} watermark diverged",
            i
        );
    }
    // A point read of every pool key in every space: the newest version
    // of a live key, and definite absence for one that was deleted,
    // never written or retired (retired keys leave `model.data`).
    for (i, space) in Space::ALL.iter().enumerate() {
        for key in key_pool() {
            let got = store.get(*space, key).unwrap();
            let want = model.data.get(&(i as u8, key.to_string()));
            prop_assert_eq!(
                got.as_deref(),
                want.map(Vec::as_slice),
                "space {} key {} (retired: {})",
                i,
                key,
                model.retired(i as u8, key)
            );
        }
    }
    assert_levels_disjoint(store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The leveled store stays observationally identical to the oracle —
    /// including retention semantics — under any interleaving, and its
    /// level structure never violates the disjointness invariant.
    #[test]
    fn leveled_store_matches_model_under_any_interleaving(
        actions in actions_strategy(),
        budget in prop::sample::select(vec![256u64, 512]),
        threshold in 2usize..4,
        level_base in prop::sample::select(vec![1024u64, 4096]),
        // No cache, one under constant eviction, the default; every
        // reopen starts it cold.
        cache in prop::sample::select(vec![0u64, 1024, TieredPolicy::default().block_cache_budget]),
    ) {
        let policy = TieredPolicy {
            memtable_budget_bytes: budget,
            run_merge_threshold: threshold,
            level_base_bytes: level_base,
            level_growth: 2,
            level_run_bytes: 768,
            block_cache_budget: cache,
        };
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(policy)).unwrap();
        let mut model = Model::default();
        for action in &actions {
            match action {
                Action::Apply(ops) => {
                    store.apply(to_batch(ops)).unwrap();
                    model.apply(ops);
                }
                Action::Spill => store.spill().unwrap(),
                Action::CompactLevels => store.compact_levels().unwrap(),
                Action::Compact => store.compact().unwrap(),
                Action::Retain { space, start, below } => {
                    let got = store
                        .retain_below(space_of(*space), start, below)
                        .unwrap();
                    match model.retain_below(*space, start, below) {
                        Some(expect) => prop_assert_eq!(
                            got as usize, expect,
                            "retain_below({}, {:?}, {:?}) retired count diverged",
                            space, start, below
                        ),
                        None => prop_assert_eq!(got, 0),
                    }
                }
                Action::Reopen => {
                    drop(store);
                    store = Store::open_with(disk.clone(), Some(policy)).unwrap();
                }
            }
            assert_matches_model(&store, &model)?;
        }
        // Equivalence and the level invariant survive a final reopen.
        drop(store);
        let reopened = Store::open_with(disk, Some(policy)).unwrap();
        assert_matches_model(&reopened, &model)?;
    }

    /// Deep tombstones: delete keys whose live values sit in the deepest
    /// level, then force every merge path — the deletion must never be
    /// undone by a push-down or a reopen.
    #[test]
    fn deletions_survive_cascading_merges(
        seed_rounds in 3usize..8,
        doomed in prop::collection::vec(prop::sample::select(key_pool()), 1..5),
    ) {
        let doomed: std::collections::BTreeSet<&str> = doomed.into_iter().collect();
        let policy = TieredPolicy {
            memtable_budget_bytes: 256,
            run_merge_threshold: 2,
            level_base_bytes: 1024,
            level_growth: 2,
            level_run_bytes: 512,
            ..TieredPolicy::default()
        };
        let disk = MemDisk::new();
        let store = Store::open_with(disk.clone(), Some(policy)).unwrap();
        // Bury every key under several generations of runs.
        for round in 0..seed_rounds {
            for key in key_pool() {
                store
                    .put(Space::History, key, vec![round as u8; 48])
                    .unwrap();
            }
            store.spill().unwrap();
        }
        for key in &doomed {
            store.delete(Space::History, *key).unwrap();
        }
        // Push the tombstones down through the hierarchy.
        store.spill().unwrap();
        store.spill().unwrap();
        for key in &doomed {
            prop_assert_eq!(store.get(Space::History, key).unwrap(), None);
        }
        assert_levels_disjoint(&store)?;
        // One more maintenance round, whatever it merges or pushes down,
        // still does not resurrect the old values.
        store.compact_levels().unwrap();
        assert_levels_disjoint(&store)?;
        drop(store);
        let reopened = Store::open_with(disk, Some(policy)).unwrap();
        for key in key_pool() {
            let got = reopened.get(Space::History, key).unwrap();
            if doomed.contains(key) {
                prop_assert_eq!(got, None, "deleted key `{}` resurrected", key);
            } else {
                prop_assert_eq!(
                    got.as_deref(),
                    Some(&[seed_rounds as u8 - 1; 48][..]),
                    "key `{}` lost its newest version",
                    key
                );
            }
        }
    }
}

proptest! {
    // Each case re-reads the whole store after every batch; a dozen
    // cases of up to 60 batches keep the suite at a few seconds.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The key mix that makes every spill's hull span Instance→History:
    /// block-granular selection leaves most of a level unselected, the
    /// fence cut has to keep the merge output from straddling it, and
    /// append-only runs move down by manifest alone.  After every batch
    /// (each may run a spill and a whole maintenance cascade — whose
    /// every publish re-checks the level invariant under
    /// `debug_assert!`) the levels must be disjoint and sorted and the
    /// store equal to the model.
    #[test]
    fn shard_key_mix_keeps_levels_disjoint_and_matches_model(
        rounds in shard_rounds_strategy(),
        budget in prop::sample::select(vec![1024u64, 6 * 1024]),
        threshold in 2usize..4,
        level_base in prop::sample::select(vec![4096u64, 24 * 1024]),
        run_bytes in prop::sample::select(vec![1024u64, 12 * 1024]),
    ) {
        let policy = TieredPolicy {
            memtable_budget_bytes: budget,
            run_merge_threshold: threshold,
            level_base_bytes: level_base,
            level_growth: 2,
            level_run_bytes: run_bytes,
            ..TieredPolicy::default()
        };
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(policy)).unwrap();
        let mut model = Model::default();
        let (mut next_ev, mut stamp) = (0usize, 0u8);
        for (round_no, round) in rounds.iter().enumerate() {
            let mut ops = Vec::new();
            let mut value = || {
                stamp = stamp.wrapping_add(1);
                vec![stamp; round.value_len]
            };
            for _ in 0..round.ev {
                ops.push(Op::Put { space: 3, key: format!("ev/{next_ev:06}"), value: value() });
                next_ev += 1;
            }
            for idx in 0..round.sev {
                let key = format!("sev/{round_no:04}/{idx}");
                ops.push(Op::Put { space: 3, key, value: value() });
            }
            for &(shard, inst, delete) in &round.inst {
                let key = format!("s{shard:04}/inst/{inst}/header");
                ops.push(if delete {
                    Op::Delete { space: 1, key }
                } else {
                    Op::Put { space: 1, key, value: value() }
                });
            }
            store.apply(to_batch(&ops)).unwrap();
            model.apply(&ops);
            match round.then {
                AfterRound::Nothing => {}
                AfterRound::Spill => store.spill().unwrap(),
                AfterRound::CompactLevels => store.compact_levels().unwrap(),
                AfterRound::Reopen => {
                    drop(store);
                    store = Store::open_with(disk.clone(), Some(policy)).unwrap();
                }
            }
            assert_levels_disjoint(&store)?;
            prop_assert_eq!(dump(&store), model.data.clone(), "after round {}", round_no);
        }
        drop(store);
        let reopened = Store::open_with(disk, Some(policy)).unwrap();
        assert_matches_model(&reopened, &model)?;
    }
}
