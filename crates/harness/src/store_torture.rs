//! Store-level crash-point enumeration.
//!
//! A scripted batch workload (puts, deletes, compactions and retention
//! advances across all four spaces) is first executed crash-free to obtain
//! the oracle state and the exact number of disk mutations.  Every mutation index is then re-run as
//! a crash point under each [`CrashEffect`], optionally with a *second*
//! crash injected during the recovery replay, plus a pass of at-rest
//! bit-flip corruption of the persisted WAL and sorted-run files.
//!
//! The pass runs in three configurations: the engine with no memtable
//! budget ([`run_store_torture`]), which spills only at the script's
//! compactions, the tiered engine under a deliberately tiny memtable
//! budget ([`run_store_torture_tiered`]), whose probe trace pulls every
//! spill and run-merge disk write — run-file writes, manifest commits,
//! stale WAL/snapshot/run deletions — into the enumeration, and
//! the leveled engine under squeezed level budgets
//! ([`run_store_torture_leveled`]), which adds level-merge commits,
//! multi-run splits, retention-watermark advances and victim GC to the
//! enumerated mutation trace.
//!
//! After every injected fault the invariants are:
//!
//! * reopening the store never panics;
//! * every **acknowledged** batch is fully present after recovery;
//! * the in-flight batch is all-or-nothing — the recovered state is a
//!   whole-batch prefix of the script, never a partial batch;
//! * resuming the script from the recovered prefix converges on a state
//!   byte-identical to the crash-free oracle, and that state survives one
//!   further clean reopen;
//! * a bit flip in the persisted log yields either a whole-batch prefix
//!   (torn tail) or a typed corruption error — never a panic, never a
//!   partial batch.

use bioopera_store::{
    Batch, CrashEffect, Disk, FaultPlan, MemDisk, Space, Store, StoreError, TieredPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Reference model of the logical store contents: `(space, key) -> value`.
type Model = BTreeMap<(u8, String), Vec<u8>>;

/// Tiny tiered policy for the tiered torture pass: the memtable budget is
/// small enough that the scripted workload spills every few batches, and
/// the merge threshold low enough that run compactions fire repeatedly —
/// so run-file writes, manifest updates and stale-file deletions all land
/// inside the crash-point enumeration.
pub fn tiny_tiered_policy() -> TieredPolicy {
    TieredPolicy {
        memtable_budget_bytes: 512,
        run_merge_threshold: 2,
        ..TieredPolicy::default()
    }
}

/// Tiny *leveled* policy for the leveled torture pass: on top of the
/// tiny memtable budget, the L1 byte budget is squeezed so push-downs
/// cascade into L2+ — level-merge commits, multi-run splits and victim
/// GC all land inside the crash-point enumeration.
pub fn tiny_leveled_policy() -> TieredPolicy {
    TieredPolicy {
        memtable_budget_bytes: 512,
        run_merge_threshold: 2,
        level_base_bytes: 1024,
        level_growth: 2,
        level_run_bytes: 768,
        ..TieredPolicy::default()
    }
}

/// One scripted operation.
#[derive(Debug, Clone)]
pub enum ScriptOp {
    /// Insert/replace a key.
    Put {
        /// Space tag (0..=3).
        space: u8,
        /// Key.
        key: String,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Remove a key.
    Delete {
        /// Space tag (0..=3).
        space: u8,
        /// Key.
        key: String,
    },
}

/// One scripted step.
#[derive(Debug, Clone)]
pub enum Step {
    /// Apply one atomic batch; counts as acknowledged only on `Ok`.
    Apply(Vec<ScriptOp>),
    /// Roll the WAL: spill the memtable to a sorted run.
    Compact,
    /// Advance the retention watermark: retire every record of `space`
    /// with `start <= key < below` and drop all future writes below the
    /// watermark.  Commits through a single manifest mutation.
    Retain {
        /// Space tag (0..=3).
        space: u8,
        /// Inclusive lower bound of the retired window.
        start: String,
        /// Exclusive upper bound of the retired window.
        below: String,
    },
}

/// Outcome of the store torture pass.
pub struct StoreTortureOutcome {
    /// Disk mutations of the crash-free probe run (= enumerable crash points).
    pub mutations: u64,
    /// Single-crash cases executed.
    pub cases: usize,
    /// Crash-during-recovery (double-crash) cases executed.
    pub recovery_cases: usize,
    /// At-rest bit-flip cases executed.
    pub bitflip_cases: usize,
    /// Invariant violations; empty on success.  Every entry embeds the
    /// `HARNESS_SEED` and crash index needed to reproduce it.
    pub violations: Vec<String>,
}

/// Deterministic scripted workload: ~24 batches of 1–4 operations over a
/// small key universe in all four spaces, with two compactions and two
/// retention advances landing mid-script so crash points inside
/// `compact()` and `retain_below()` — including the widening of an
/// existing watermark hull — are part of the enumeration.
pub fn scripted_workload(seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<String> = (0..12).map(|i| format!("torture/k{i:02}")).collect();
    let mut steps = Vec::new();
    for b in 0..24u64 {
        let n_ops = rng.gen_range(1..=4usize);
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let space = rng.gen_range(0..4u64) as u8;
            let key = keys[rng.gen_range(0..keys.len())].clone();
            if rng.gen_range(0..10u64) < 8 {
                let len = rng.gen_range(0..32usize);
                let value: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect();
                ops.push(ScriptOp::Put { space, key, value });
            } else {
                ops.push(ScriptOp::Delete { space, key });
            }
        }
        steps.push(Step::Apply(ops));
        if b == 7 || b == 15 {
            steps.push(Step::Compact);
        }
        if b == 11 {
            steps.push(Step::Retain {
                space: 3,
                start: "torture/k00".into(),
                below: "torture/k03".into(),
            });
        }
        if b == 19 {
            // Widens the existing hull: subsequent batches keep writing
            // keys below the watermark, which must stay invisible.
            steps.push(Step::Retain {
                space: 3,
                start: "torture/k02".into(),
                below: "torture/k05".into(),
            });
        }
    }
    steps
}

fn to_batch(ops: &[ScriptOp]) -> Batch {
    let mut b = Batch::new();
    for op in ops {
        match op {
            ScriptOp::Put { space, key, value } => {
                b.put(
                    Space::from_u8(*space).expect("script space tag"),
                    key.clone(),
                    value.clone(),
                );
            }
            ScriptOp::Delete { space, key } => {
                b.delete(
                    Space::from_u8(*space).expect("script space tag"),
                    key.clone(),
                );
            }
        }
    }
    b
}

/// Per-space retention watermark hulls, mirrored from the engine.
type Retain = [Option<(String, String)>; 4];

fn retained(retain: &Retain, space: u8, key: &str) -> bool {
    match &retain[space as usize] {
        Some((start, below)) => start.as_str() <= key && key < below.as_str(),
        None => false,
    }
}

/// Reference interpreter for the script: the logical contents plus the
/// retention watermark, with writes below the watermark dropped exactly as
/// the engine drops them at apply (and at WAL replay).
#[derive(Clone, Default)]
struct ScriptState {
    data: Model,
    retain: Retain,
}

impl ScriptState {
    fn apply(&mut self, ops: &[ScriptOp]) {
        for op in ops {
            match op {
                ScriptOp::Put { space, key, value } => {
                    if !retained(&self.retain, *space, key) {
                        self.data.insert((*space, key.clone()), value.clone());
                    }
                }
                ScriptOp::Delete { space, key } => {
                    self.data.remove(&(*space, key.clone()));
                }
            }
        }
    }

    fn retain_below(&mut self, space: u8, start: &str, below: &str) {
        if below <= start {
            return;
        }
        let hull = match &self.retain[space as usize] {
            Some((s, b)) => (
                s.as_str().min(start).to_string(),
                b.as_str().max(below).to_string(),
            ),
            None => (start.to_string(), below.to_string()),
        };
        let doomed: Vec<(u8, String)> = self
            .data
            .range((space, hull.0.clone())..(space, hull.1.clone()))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &doomed {
            self.data.remove(k);
        }
        self.retain[space as usize] = Some(hull);
    }

    /// The contents with every record covered by `retain` removed — the
    /// state a WAL-truncated replay converges on when a *later* retention
    /// watermark already sits in the durable manifest.
    fn filtered(&self, retain: &Retain) -> Model {
        self.data
            .iter()
            .filter(|((space, key), _)| !retained(retain, *space, key))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// Model states after every script step, tagged with the number of batches
/// acknowledged by that point.  Compactions are state-identities; retention
/// steps change state *without* advancing the batch count, so a crash
/// inside `retain_below` legitimately recovers to either the entry before
/// or after the retention at the same acknowledged count.
fn script_states(steps: &[Step]) -> Vec<(usize, ScriptState)> {
    let mut states = vec![(0usize, ScriptState::default())];
    let mut cur = ScriptState::default();
    let mut acked = 0usize;
    for step in steps {
        match step {
            Step::Apply(ops) => {
                cur.apply(ops);
                acked += 1;
                states.push((acked, cur.clone()));
            }
            Step::Compact => {}
            Step::Retain {
                space,
                start,
                below,
            } => {
                cur.retain_below(*space, start, below);
                states.push((acked, cur.clone()));
            }
        }
    }
    states
}

fn dump(store: &Store<MemDisk>) -> Result<Model, String> {
    let mut m = Model::new();
    for space in Space::ALL {
        for (k, v) in store
            .scan_prefix(space, "")
            .map_err(|e| format!("scan failed: {e}"))?
        {
            m.insert((space as u8, k), v.to_vec());
        }
    }
    Ok(m)
}

/// Crash-free probe: runs the script and returns the mutation count.
fn probe(steps: &[Step], tiered: Option<TieredPolicy>) -> u64 {
    let disk = MemDisk::new();
    let mut store = Store::open_with(disk.clone(), tiered).expect("probe open");
    for step in steps {
        match step {
            Step::Apply(ops) => store.apply(to_batch(ops)).expect("probe apply"),
            Step::Compact => store.compact().expect("probe compact"),
            Step::Retain {
                space,
                start,
                below,
            } => {
                store
                    .retain_below(
                        Space::from_u8(*space).expect("script space tag"),
                        start,
                        below,
                    )
                    .map(|_| ())
                    .expect("probe retain");
            }
        }
    }
    disk.mutation_count()
}

/// One crash case: crash at `crash_index` with `effect`, optionally crash
/// again at recovery mutation `recovery_crash`, then verify every
/// durability invariant.  Returns `Err(description)` on the first
/// violation.
fn store_case(
    steps: &[Step],
    states: &[(usize, ScriptState)],
    crash_index: u64,
    effect: CrashEffect,
    recovery_crash: Option<u64>,
    tiered: Option<TieredPolicy>,
) -> Result<(), String> {
    let disk = MemDisk::new();
    disk.set_fault_plan(Some(FaultPlan::at_mutation(crash_index, effect)));

    let mut acked = 0usize;
    let mut crashed = false;
    match Store::open_with(disk.clone(), tiered) {
        Ok(mut store) => {
            for step in steps {
                let res = match step {
                    Step::Apply(ops) => store.apply(to_batch(ops)).map(|()| true),
                    Step::Compact => store.compact().map(|()| false),
                    Step::Retain {
                        space,
                        start,
                        below,
                    } => store
                        .retain_below(
                            Space::from_u8(*space).expect("script space tag"),
                            start,
                            below,
                        )
                        .map(|_| false),
                };
                match res {
                    Ok(true) => acked += 1,
                    Ok(false) => {}
                    Err(_) => {
                        crashed = true;
                        break;
                    }
                }
            }
            if crashed {
                // The surviving handle must be poisoned and refuse all work.
                if !store.is_poisoned() {
                    return Err("store handle not poisoned after crash".into());
                }
                if !matches!(
                    store.get(Space::Instance, "torture/k00"),
                    Err(StoreError::Poisoned)
                ) {
                    return Err("poisoned store served a read".into());
                }
            }
        }
        // Crash during the very first manifest write: nothing acknowledged.
        Err(_) => crashed = true,
    }
    if !crashed {
        return Err("fault plan never fired — crash index beyond workload mutations".into());
    }

    disk.reboot();

    // Optionally crash a second time while recovery itself is mutating the
    // disk (torn-tail truncation, stale-file GC).  Either recovery finishes
    // before the armed index (then disarm), or it crashes and a second
    // reboot + reopen must still succeed.
    if let Some(r) = recovery_crash {
        disk.set_fault_plan(Some(FaultPlan::at_mutation(r, CrashEffect::Drop)));
        match Store::open_with(disk.clone(), tiered) {
            Ok(_) => disk.set_fault_plan(None),
            Err(_) => disk.reboot(),
        }
    }

    let mut store = Store::open_with(disk.clone(), tiered)
        .map_err(|e| format!("reopen after crash failed: {e}"))?;
    let got = dump(&store)?;

    // Durability: all acknowledged batches present.  Atomicity: the state
    // is a whole-step prefix of the script at the acknowledged batch count
    // — only the single in-flight batch (write completed, ack lost) or the
    // in-flight retention advance (manifest committed, ack lost) may
    // appear beyond it.  Never a partial batch, never a partial retention.
    let recovered = states
        .iter()
        .filter(|(a, _)| *a == acked || *a == acked + 1)
        .find(|(_, s)| s.data == got)
        .map(|(a, _)| *a)
        .ok_or_else(|| {
            format!(
                "recovered state is no whole-step prefix at {acked} or {} acknowledged batches",
                acked + 1
            )
        })?;

    // Resume the script from the first batch the recovered state lacks;
    // compactions and retention advances re-run unconditionally (both are
    // idempotent on already-covered state), so the resumed run must
    // converge byte-identically on the oracle.
    let mut batch_no = 0usize;
    for step in steps {
        match step {
            Step::Apply(ops) => {
                batch_no += 1;
                if batch_no <= recovered {
                    continue;
                }
                store
                    .apply(to_batch(ops))
                    .map_err(|e| format!("resume apply of batch {batch_no} failed: {e}"))?;
            }
            Step::Compact => store
                .compact()
                .map_err(|e| format!("resume compact failed: {e}"))?,
            Step::Retain {
                space,
                start,
                below,
            } => {
                store
                    .retain_below(
                        Space::from_u8(*space).expect("script space tag"),
                        start,
                        below,
                    )
                    .map_err(|e| format!("resume retain failed: {e}"))?;
            }
        }
    }
    let oracle = &states.last().expect("non-empty states").1.data;
    if dump(&store)? != *oracle {
        return Err("resumed run diverged from the crash-free oracle".into());
    }

    // The converged state must survive one further clean reopen.
    drop(store);
    let store = Store::open_with(disk, tiered).map_err(|e| format!("final reopen failed: {e}"))?;
    if dump(&store)? != *oracle {
        return Err("converged state lost across a clean reopen".into());
    }
    Ok(())
}

/// One at-rest bit-flip case: run a crash-free prefix of the script, flip
/// one bit of the persisted WAL, and reopen.  The outcome must be a
/// whole-batch prefix (torn tail) or a typed corruption error.
fn bitflip_case(
    steps: &[Step],
    states: &[(usize, ScriptState)],
    prefix_steps: usize,
    offset_pick: u64,
    bit: u32,
    tiered: Option<TieredPolicy>,
) -> Result<(), String> {
    let disk = MemDisk::new();
    let mut store =
        Store::open_with(disk.clone(), tiered).map_err(|e| format!("open failed: {e}"))?;
    let mut batches_done = 0usize;
    let mut final_state = ScriptState::default();
    for step in steps.iter().take(prefix_steps) {
        match step {
            Step::Apply(ops) => {
                store
                    .apply(to_batch(ops))
                    .map_err(|e| format!("workload apply failed: {e}"))?;
                batches_done += 1;
                final_state.apply(ops);
            }
            Step::Compact => store
                .compact()
                .map_err(|e| format!("workload compact failed: {e}"))?,
            Step::Retain {
                space,
                start,
                below,
            } => {
                store
                    .retain_below(
                        Space::from_u8(*space).expect("script space tag"),
                        start,
                        below,
                    )
                    .map_err(|e| format!("workload retain failed: {e}"))?;
                final_state.retain_below(*space, start, below);
            }
        }
    }
    drop(store);

    // Corruptible files: the live WAL and the sorted runs.
    // Right after a compaction the new WAL does not exist yet (it is
    // created lazily by the next append) — the run files are then the only
    // persisted payload.
    let mut candidates: Vec<String> = disk
        .list()
        .map_err(|e| format!("list failed: {e}"))?
        .into_iter()
        .filter(|n| n.starts_with("wal-") || n.starts_with("run-"))
        .collect();
    candidates.sort();
    candidates.retain(|n| disk.file_len(n).unwrap_or(0) > 0);
    if candidates.is_empty() {
        return Ok(());
    }
    let victim = &candidates[(offset_pick % candidates.len() as u64) as usize];
    let len = disk.file_len(victim).unwrap_or(0);
    let offset = ((offset_pick / candidates.len() as u64) % len as u64) as usize;
    if !disk.corrupt_byte(victim, offset, 1u8 << (bit % 8)) {
        return Err(format!("corrupt_byte refused offset {offset} of {victim}"));
    }

    match Store::open_with(disk.clone(), tiered) {
        Ok(store) => {
            // A flipped run data block is only read lazily, so the
            // corruption may surface as a typed error at scan time rather
            // than at open; both are acceptable, a panic or a silently
            // wrong state is not.
            let mut got = Model::new();
            let mut typed_corruption = false;
            'spaces: for space in Space::ALL {
                match store.scan_prefix(space, "") {
                    Ok(kvs) => {
                        for (k, v) in kvs {
                            got.insert((space as u8, k), v.to_vec());
                        }
                    }
                    Err(StoreError::Corruption(_)) => {
                        typed_corruption = true;
                        break 'spaces;
                    }
                    Err(e) => {
                        return Err(format!(
                            "unexpected scan error after flipping bit {bit} at byte {offset} \
                             of {victim}: {e}"
                        ))
                    }
                }
            }
            // A WAL flip may truncate batches, but the retention watermark
            // lives in the (uncorrupted) manifest and keeps filtering the
            // replay — so acceptable states are whole-step prefixes viewed
            // through the *final* committed watermark.
            let acceptable = states
                .iter()
                .filter(|(a, _)| *a <= batches_done)
                .any(|(_, s)| s.filtered(&final_state.retain) == got);
            if !typed_corruption && !acceptable {
                return Err(format!(
                    "state after flipping bit {bit} at byte {offset} of {victim} \
                     is not a whole-batch prefix"
                ));
            }
        }
        Err(StoreError::Corruption(_)) => {} // typed, acceptable
        Err(e) => {
            return Err(format!(
                "unexpected error kind after flipping bit {bit} at byte {offset} of {victim}: {e}"
            ))
        }
    }
    Ok(())
}

/// Run a case through `catch_unwind` so a panicking recovery path becomes
/// a reported violation (with its reproduction tag) instead of aborting
/// the whole enumeration.
fn run_case(violations: &mut Vec<String>, tag: String, case: impl FnOnce() -> Result<(), String>) {
    match catch_unwind(AssertUnwindSafe(case)) {
        Ok(Ok(())) => {}
        Ok(Err(msg)) => violations.push(format!("{tag}: {msg}")),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".into());
            violations.push(format!("{tag}: PANICKED: {msg}"));
        }
    }
}

/// Full store torture pass over the engine with no memtable budget.
///
/// With `limit == None` every mutation index of the probe run becomes a
/// crash point; otherwise a seeded sample of `limit` indices (always
/// including the first and last) is used.
pub fn run_store_torture(seed: u64, limit: Option<usize>) -> StoreTortureOutcome {
    run_store_torture_with(seed, limit, None)
}

/// Full store torture pass over the **tiered** engine.
///
/// Same scripted workload and invariants as [`run_store_torture`], but the
/// store runs under [`tiny_tiered_policy`], so the crash-free probe's
/// mutation trace — and therefore the enumerated crash points — includes
/// every disk write of the spills its budget triggers (run write,
/// manifest commit, stale WAL/snapshot deletion) and of run merge
/// compactions (merged-run write, manifest rewrite, input-run deletions).
pub fn run_store_torture_tiered(seed: u64, limit: Option<usize>) -> StoreTortureOutcome {
    run_store_torture_with(seed, limit, Some(tiny_tiered_policy()))
}

/// Full store torture pass over the **leveled** engine.
///
/// Same scripted workload and invariants again, but under
/// [`tiny_leveled_policy`]: level byte budgets are squeezed so L0 floods
/// push runs into L1 and beyond during the script, adding level-merge run
/// writes, manifest commits with `lrun` lines, input-run GC and
/// retention-watermark advances to the enumerated crash points.
pub fn run_store_torture_leveled(seed: u64, limit: Option<usize>) -> StoreTortureOutcome {
    run_store_torture_with(seed, limit, Some(tiny_leveled_policy()))
}

fn run_store_torture_with(
    seed: u64,
    limit: Option<usize>,
    tiered: Option<TieredPolicy>,
) -> StoreTortureOutcome {
    let steps = scripted_workload(seed);
    let states = script_states(&steps);
    let mutations = probe(&steps, tiered);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);

    let crash_indices: Vec<u64> = match limit {
        None => (0..mutations).collect(),
        Some(n) => {
            let mut picked = vec![0, mutations.saturating_sub(1)];
            while picked.len() < n.min(mutations as usize) {
                picked.push(rng.gen_range(0..mutations));
            }
            picked.sort_unstable();
            picked.dedup();
            picked
        }
    };

    let mut out = StoreTortureOutcome {
        mutations,
        cases: 0,
        recovery_cases: 0,
        bitflip_cases: 0,
        violations: Vec::new(),
    };

    for &k in &crash_indices {
        let torn_keep = rng.gen_range(2..48u64);
        let effects = [
            CrashEffect::Drop,
            CrashEffect::Torn { keep: 1 },
            CrashEffect::Torn { keep: torn_keep },
            CrashEffect::AfterApply,
        ];
        for effect in effects {
            out.cases += 1;
            run_case(
                &mut out.violations,
                format!(
                    "HARNESS_SEED={seed} tiered={} crash-index={k} effect={effect:?}",
                    tiered.is_some()
                ),
                || store_case(&steps, &states, k, effect, None, tiered),
            );
        }
        // Second crash during the recovery replay/GC of the torn-write image.
        for r in 0..3u64 {
            out.recovery_cases += 1;
            let effect = CrashEffect::Torn { keep: torn_keep };
            run_case(
                &mut out.violations,
                format!(
                    "HARNESS_SEED={seed} tiered={} crash-index={k} effect={effect:?} \
                     recovery-crash={r}",
                    tiered.is_some()
                ),
                || store_case(&steps, &states, k, effect, Some(r), tiered),
            );
        }
    }

    let n_flips = match limit {
        None => 48,
        Some(n) => n.max(8),
    };
    for _ in 0..n_flips {
        out.bitflip_cases += 1;
        let prefix_steps = rng.gen_range(1..=steps.len());
        let offset_pick = rng.gen_range(0..u64::MAX);
        let bit = rng.gen_range(0..8u64) as u32;
        run_case(
            &mut out.violations,
            format!(
                "HARNESS_SEED={seed} tiered={} bit-flip prefix-steps={prefix_steps} \
                 offset-pick={offset_pick} bit={bit}",
                tiered.is_some()
            ),
            || bitflip_case(&steps, &states, prefix_steps, offset_pick, bit, tiered),
        );
    }

    out
}
