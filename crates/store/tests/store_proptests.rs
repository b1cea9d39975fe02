//! Model tests of the store, on every store policy.
//!
//! Under any interleaving of commits, group commits, rolls, spills, level
//! maintenance, retention advances and reopens — with no memtable budget
//! or a budget, with or without the auto-compaction policy, from a flat
//! tier at the default level shape to levels squeezed so that a few dozen
//! batches cascade runs into L2 and beyond — the store is a per-space
//! `BTreeMap` minus its retention windows:
//!
//! 1. Scans, lengths, the watermarks and a point read of every key of
//!    the pool agree with the model: the newest version of a live key,
//!    and definite absence for one that was deleted, retired or never
//!    written (the lookups the bloom filters answer).  Writes below a
//!    watermark stay invisible for good, across reopens.
//! 2. Every level below L0 holds runs whose composite `(space, key)`
//!    ranges are sorted and pairwise disjoint, so a point read may
//!    binary-search one run per level.
//! 3. Crashing the disk at an **arbitrary byte** and recovering yields the
//!    records of a prefix of whole batches — never part of a batch — that
//!    includes every acknowledged one.
//!
//! Three workloads get a test of their own: deletions of values buried in
//! the deepest level, the shard engine's key mix, and the lookups of
//! absent keys that the bloom filter must answer before the block cache.

use bioopera_store::{Batch, CompactionPolicy, FaultPlan, MemDisk, Space, Store, TieredPolicy};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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

const KEY_POOL: [&str; 11] = [
    "a", "b", "c", "ev/01", "ev/02", "ev/03", "ev/04", "ev/09", "inst/1", "inst/2", "zz",
];

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = prop::sample::select(KEY_POOL.to_vec()).prop_map(|s| s.to_string());
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

fn batches_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(op_strategy(), 1..5), 1..30)
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

/// One step of the interleaving.
#[derive(Debug, Clone)]
enum Action {
    Apply(Vec<Op>),
    ApplyMany(Vec<Vec<Op>>),
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
            2 => prop::collection::vec(prop::collection::vec(op_strategy(), 1..4), 1..4)
                .prop_map(Action::ApplyMany),
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

/// The tiering axis: untiered, or a tiered policy with a 256 B – 4 KiB
/// memtable, an L0 threshold of 2–4, either the default level shape or
/// levels squeezed to cascade, and no block cache, one under constant
/// eviction or the default (every reopen starts it cold).
fn tiered_strategy() -> impl Strategy<Value = Option<TieredPolicy>> {
    let flat = (TieredPolicy::default().level_growth, 0u64, 0u64);
    let squeezed = prop::sample::select(vec![1024u64, 4096]).prop_map(|base| (2, base, 768));
    let tiered = (
        prop::sample::select(vec![256u64, 512, 1024, 4096]),
        2usize..5,
        prop_oneof![Just(flat), squeezed],
        prop::sample::select(vec![0u64, 1024, TieredPolicy::default().block_cache_budget]),
    )
        .prop_map(
            |(budget, threshold, (growth, base, run_bytes), cache)| TieredPolicy {
                memtable_budget_bytes: budget,
                run_merge_threshold: threshold,
                level_base_bytes: base,
                level_growth: growth,
                level_run_bytes: run_bytes,
                block_cache_budget: cache,
            },
        );
    prop_oneof![1 => Just(None), 2 => tiered.prop_map(Some)]
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

/// Invariants 1 and 2.
fn assert_matches_model(store: &Store<MemDisk>, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(dump(store), model.data.clone());
    for (i, space) in Space::ALL.iter().enumerate() {
        let expect = model.data.keys().filter(|(s, _)| *s == i as u8).count();
        prop_assert_eq!(store.len(*space).unwrap(), expect);
        prop_assert_eq!(store.is_empty(*space).unwrap(), expect == 0);
        prop_assert_eq!(
            store.retention(*space),
            model.retain[i].clone(),
            "space {} watermark diverged",
            i
        );
        for key in KEY_POOL {
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Invariants 1 and 2 after every action and across a final reopen,
    /// on any store policy; a tiered store also keeps its memtable within
    /// a batch of its budget.
    #[test]
    fn store_matches_model_under_any_interleaving(
        actions in actions_strategy(),
        tiered in tiered_strategy(),
        auto_compact in any::<bool>(),
    ) {
        let auto_compact = auto_compact.then_some(CompactionPolicy {
            wal_bytes_threshold: 512,
        });
        let open = |disk: &MemDisk| {
            let mut store = Store::open_with(disk.clone(), tiered).unwrap();
            store.set_compaction_policy(auto_compact);
            store
        };
        let disk = MemDisk::new();
        let mut store = open(&disk);
        let mut model = Model::default();
        for action in &actions {
            match action {
                Action::Apply(ops) => {
                    store.apply(to_batch(ops)).unwrap();
                    model.apply(ops);
                }
                Action::ApplyMany(list) => {
                    store.apply_many(list.iter().map(|ops| to_batch(ops))).unwrap();
                    for ops in list {
                        model.apply(ops);
                    }
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
                    store = open(&disk);
                }
            }
            assert_matches_model(&store, &model)?;
        }
        if let Some(policy) = tiered {
            let held = store.stats().memtable_bytes;
            prop_assert!(
                held <= policy.memtable_budget_bytes + 4096,
                "memtable {} bytes exceeds budget {} plus one-batch slack",
                held,
                policy.memtable_budget_bytes
            );
        }
        drop(store);
        assert_matches_model(&open(&disk), &model)?;
    }

    /// Invariant 3, on any store policy.
    #[test]
    fn crash_at_any_byte_recovers_a_batch_prefix(
        batches in batches_strategy(),
        tiered in tiered_strategy(),
        crash_frac in 0.0f64..1.0,
        tear in any::<bool>(),
    ) {
        // First, measure the total bytes a clean run appends.
        let probe_disk = MemDisk::new();
        let mut probe = Store::open_with(probe_disk.clone(), tiered).unwrap();
        for batch in &batches {
            probe.apply(to_batch(batch)).unwrap();
        }
        let total = probe_disk.bytes_appended();
        prop_assume!(total > 0);
        let crash_at = (total as f64 * crash_frac) as u64;

        // Now the crashing run.
        let disk = MemDisk::new();
        disk.set_fault_plan(Some(FaultPlan::after_bytes(crash_at, tear)));
        let mut store = Store::open_with(disk.clone(), tiered).unwrap();
        let mut acknowledged = 0usize;
        for batch in &batches {
            match store.apply(to_batch(batch)) {
                Ok(()) => acknowledged += 1,
                Err(_) => break,
            }
        }
        disk.reboot();
        let got = dump(&Store::open_with(disk, tiered).unwrap());

        // Recovered state must equal the model after some prefix of whole
        // batches, and that prefix must include everything acknowledged.
        let mut model = Model::default();
        let mut candidates = vec![model.data.clone()];
        for batch in &batches {
            model.apply(batch);
            candidates.push(model.data.clone());
        }
        let matching: Vec<usize> = candidates
            .iter()
            .enumerate()
            .filter(|(_, st)| **st == got)
            .map(|(i, _)| i)
            .collect();
        prop_assert!(!matching.is_empty(), "recovered state is not any batch prefix");
        prop_assert!(
            matching.iter().any(|&i| i >= acknowledged),
            "durability violated: acknowledged {} batches but best prefix is {:?}",
            acknowledged,
            matching
        );
    }

    /// Deep tombstones: delete keys whose live values sit in the deepest
    /// level, then force every merge path — the deletion must never be
    /// undone by a push-down or a reopen.
    #[test]
    fn deletions_survive_cascading_merges(
        seed_rounds in 3usize..8,
        doomed in prop::collection::vec(prop::sample::select(KEY_POOL.to_vec()), 1..5),
    ) {
        let doomed: BTreeSet<&str> = doomed.into_iter().collect();
        let policy = TieredPolicy {
            memtable_budget_bytes: 256,
            run_merge_threshold: 2,
            level_base_bytes: 1024,
            level_growth: 2,
            level_run_bytes: 512,
            ..TieredPolicy::default()
        };
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(policy)).unwrap();
        // Bury every key under several generations of runs.
        for round in 0..seed_rounds {
            for key in KEY_POOL {
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
        for key in KEY_POOL {
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

/// The read path asks the bloom filter before it touches the sparse
/// index or the block cache: a lookup of a key that lies inside the
/// runs' hulls but that no run holds is answered by run metadata alone.
/// On a warm
/// store, a thousand such lookups leave the cache's counters where they
/// were, apart from bloom false positives, and read nothing.
#[test]
fn absent_in_hull_keys_are_answered_by_the_bloom_not_the_cache() {
    use bioopera_store::bloom::FP_BOUND;

    const KEYS: usize = 4_000;
    let key = |i: usize| format!("k/{i:06}");
    let disk = MemDisk::new();
    let mut store = Store::open_with(
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
