//! Crash-inside-a-round torture for the sharded navigator, as a workload
//! of the crash enumerator ([`crate::enumerate`]).
//!
//! A round of the sharded engine reaches the store as one append: every
//! shard's journal batches in shard order, then the history batch that
//! carries the round's events and, when its cadence is due, the awareness
//! summary that covers them — each batch a WAL frame — and, under a
//! tiered policy, the writes of the roll that follows.  A server crash
//! inside that append leaves a CRC-valid prefix of its frames: some
//! shards a round ahead of others, or every journal without its history.
//!
//! Each case samples a round, a summary cadence and one or two stepper
//! threads from the seed; half of them suspend a sampled root right
//! before that round, so the suspend control message is in flight (or
//! its durable record is in the kept prefix) when the server dies.  The
//! case's run boots the toys of `bioopera_workloads::toys`, steps to the
//! round and steps it inside the [`Recorder`]'s window, so every mutation
//! of that round is a crash point: an append crashed every way the
//! enumerator names, a tiered roll's run, manifest and delete writes one
//! seeded way each, and three cases a round crashing again at one of the
//! recovery's own mutations.
//! On a disk that holds something the run recovers instead.  Whatever the
//! crash preserved, the recovered run must quiesce rather than wedge, and
//! an operator resume must drive every root to the crash-free run's
//! terminal status *and* final whiteboard — which must in turn equal the
//! one-thread, never-suspended run's.  History digests are deliberately
//! not compared: recovery legitimately appends its own events
//! (`server.recover`, requeues, fresh ids for re-spawned subprocess
//! children).
//!
//! Every run holds the engine to the **history invariant**
//! (`check_history`, which the runtime torture shares) after each
//! recovery and at the end: the engine's lifetime digest, the awareness
//! index, a reopen from the summary and the persisted stream are views of
//! one record, so they agree — the digest with a refold of what `sev/`
//! holds, the rest by label, in length, and in every aggregate an index
//! rebuilt from the persisted stream would hold.  Every recovery is also
//! held to what it wrote (`check_rewrites`): each task record it
//! rewrote differs from the copy the journal held, and each it left out
//! still equals it.
//!
//! The store policy is the caller's: under a tiered one the rounds spill
//! and merge, so crash points fall inside a store whose journals and
//! history live in runs, and recovery reads them back through levels.

use crate::enumerate::{self, Outcome, Plan, Recorder, Ways};
use bioopera_core::history;
use bioopera_core::shard::ShardEvent;
use bioopera_core::state::keys;
use bioopera_core::{
    Awareness, AwarenessIndex, HistoryEvent, InstanceStatus, ShardConfig, ShardEngine, TaskRecord,
};
use bioopera_ocr::value::Value;
use bioopera_store::{shard_key, Disk, Space, Store, TieredPolicy};
use bioopera_workloads::toys;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const SHARDS: usize = 4;

/// Roots a run submits, ids `1..=ROOTS`: three of each toy.
const ROOTS: u64 = 9;

/// One sampled case: how its run opens its stores, how often it
/// summarises, on how many threads its shards step, the round it crashes
/// in and the root, if any, it suspends right before.
#[derive(Clone, Copy)]
struct Case {
    tiered: Option<TieredPolicy>,
    rollup_every: u64,
    threads: usize,
    round: u64,
    suspend: Option<u64>,
}

type RootResult = (InstanceStatus, BTreeMap<String, Value>);

impl Case {
    /// Sampled case `i` of a pass whose one-thread run takes `rounds`: a
    /// round, a cadence and one or two stepper threads drawn from `rng`,
    /// and every second case suspends a drawn root.
    fn draw(&self, i: usize, rounds: u64, rng: &mut StdRng) -> Case {
        Case {
            rollup_every: rng.gen_range(1..40),
            threads: rng.gen_range(1..=2),
            round: rng.gen_range(0..rounds),
            suspend: (i % 2 == 1).then(|| rng.gen_range(1..=ROOTS)),
            ..*self
        }
    }

    /// The case as a workload: [`Case::boot`] on an empty disk, recover
    /// on any other, then [`finish`].
    fn run(&self, disk: &Recorder) -> Result<Vec<RootResult>, String> {
        let mut eng = if disk.list().map_err(|e| format!("list: {e}"))?.is_empty() {
            self.boot(disk)?
        } else {
            self.engine(disk, false)?
        };
        finish(&mut eng)
    }

    /// An engine over `disk`: a new one when `fresh`, else a recovered
    /// one, held — before it takes a step — to the history invariant,
    /// and what it wrote to what it changed.
    fn engine(&self, disk: &Recorder, fresh: bool) -> Result<ShardEngine<Recorder>, String> {
        let store =
            Store::open_with(disk.clone(), self.tiered).map_err(|e| format!("open: {e}"))?;
        let cfg = ShardConfig {
            shards: SHARDS,
            threads: self.threads,
            ..ShardConfig::default()
        };
        let mut eng = if fresh {
            ShardEngine::new(store, toys::library(), cfg).map_err(|e| format!("engine: {e}"))?
        } else {
            let before = task_records(&store)?;
            let eng = ShardEngine::recover(store, toys::library(), cfg)
                .map_err(|e| format!("recover: {e}"))?;
            check_engine(&eng).map_err(|e| format!("after recovery: {e}"))?;
            check_rewrites(&before, &eng).map_err(|e| format!("after recovery: {e}"))?;
            eng
        };
        eng.set_rollup_every(self.rollup_every);
        Ok(eng)
    }

    /// Submit the roots, step to the case's round, suspend its root and
    /// step that round inside the crash window.
    fn boot(&self, disk: &Recorder) -> Result<ShardEngine<Recorder>, String> {
        let mut eng = self.engine(disk, true)?;
        for t in toys::templates() {
            eng.register_template(t)
                .map_err(|e| format!("register: {e}"))?;
        }
        for i in 0..ROOTS {
            let (name, initial) = toys::toy(i as usize, 10 + i as i64);
            eng.submit(name, initial)
                .map_err(|e| format!("submit: {e}"))?;
        }
        for _ in 0..self.round {
            eng.step_round()
                .map_err(|e| format!("pre-crash step: {e}"))?;
        }
        if let Some(root) = self.suspend {
            eng.suspend(root).map_err(|e| format!("suspend: {e}"))?;
        }
        disk.window(|| eng.step_round())
            .map_err(|e| format!("the crashing round: {e}"))?;
        Ok(eng)
    }
}

/// Drive `eng` to completion and return every root's status and
/// whiteboard.  A run that quiesces with suspended instances is *not* a
/// failure — that is the suspended-wedge fix working as intended — the
/// operator resumes and the run must then finish for real.
fn finish(eng: &mut ShardEngine<Recorder>) -> Result<Vec<RootResult>, String> {
    for _ in 0..2 {
        if eng
            .run_to_completion()
            .map_err(|e| format!("run: {e}"))?
            .is_completed()
        {
            check_engine(eng).map_err(|e| format!("at the end: {e}"))?;
            return (1..=ROOTS)
                .map(|id| {
                    let whiteboard = eng.instance_whiteboard(id).cloned();
                    eng.instance_status(id)
                        .zip(whiteboard)
                        .ok_or(format!("root {id} vanished"))
                })
                .collect();
        }
        eng.resume_all().map_err(|e| format!("resume_all: {e}"))?;
    }
    Err("still quiesced after a resume".into())
}

/// The history digest a refold of `events` from the stream's first record
/// gives: per event the round, the instance and the sequence number, its
/// time if it has one, then a fresh encoding of its kind.  Written out here
/// so that what a driver carries across a crash in a summary is held to
/// the stream itself.
fn refold_digest(events: &[ShardEvent]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for b in bytes {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x1_0000_01b3);
        }
    };
    for e in events {
        fold(&e.round.to_le_bytes());
        fold(&e.instance.to_le_bytes());
        fold(&e.seq.to_le_bytes());
        if let Some(at) = e.at {
            fold(&at.as_millis().to_le_bytes());
        }
        fold(&serde_json::to_vec(&e.kind).expect("an event kind encodes"));
    }
    hash
}

/// The history invariant, for either driver: one record, and every view
/// of it agrees with it.  The driver's lifetime `digest` (seeded from a
/// summary, then folded over the tail and every commit since) is the
/// digest of the persisted stream refolded whole; the awareness index's
/// counts, length and aggregates are the stream's; and so are those of a
/// reopen of `store` from its summary plus the tail.
pub(crate) fn check_history<D: Disk>(
    digest: u64,
    awareness: &Awareness,
    store: &Store<D>,
) -> Result<(), String> {
    let persisted =
        history::persisted_events(store).map_err(|e| format!("persisted events: {e}"))?;
    let mut rebuilt = AwarenessIndex::default();
    for e in &persisted {
        rebuilt.ingest(&HistoryEvent {
            at: e.time(),
            kind: e.kind.clone(),
        });
    }
    let refolded = refold_digest(&persisted);
    if digest != refolded {
        return Err(format!(
            "history: the driver's digest is {digest:#018x}, a refold of what sev/ holds gives {refolded:#018x}"
        ));
    }
    let index = awareness.index();
    if index.counts_by_kind() != rebuilt.counts_by_kind() || index.len() != persisted.len() {
        return Err(format!(
            "history: the index counts {} events {:?}, the persisted stream holds {} {:?}",
            index.len(),
            index.counts_by_kind(),
            persisted.len(),
            rebuilt.counts_by_kind()
        ));
    }
    let viewed = awareness
        .all(store)
        .map_err(|e| format!("awareness all: {e}"))?
        .len();
    if viewed != persisted.len() {
        return Err(format!(
            "history: awareness reads {viewed} events, the stream holds {}",
            persisted.len()
        ));
    }
    let reopened = Awareness::open_tail(store).map_err(|e| format!("reopen: {e}"))?;
    let aggregates = |i: &AwarenessIndex| {
        (
            i.len(),
            i.counts_by_kind(),
            (i.in_flight(), i.peak_in_flight()),
            (i.run_ms().clone(), i.queue_ms().clone()),
            (i.nodes_down().clone(), i.nodes_quarantined().clone()),
            i.total_cpu_ms().to_bits(),
        )
    };
    for (view, index) in [("awareness", index), ("a reopen", reopened.index())] {
        if aggregates(index) != aggregates(&rebuilt) {
            return Err(format!(
                "history: {view} aggregates {:?}, rebuilt from the stream {:?}",
                aggregates(index),
                aggregates(&rebuilt)
            ));
        }
    }
    Ok(())
}

/// [`check_history`] of a sharded engine.
fn check_engine(eng: &ShardEngine<Recorder>) -> Result<(), String> {
    check_history(eng.history_digest(), eng.awareness(), eng.store())
}

/// Every task record of the shard journals `store` holds, by key.
fn task_records<D: Disk>(store: &Store<D>) -> Result<BTreeMap<String, TaskRecord>, String> {
    let mut out = BTreeMap::new();
    for (key, bytes) in store
        .scan_prefix(Space::Instance, "s")
        .map_err(|e| format!("journal scan: {e}"))?
    {
        if key.contains("/task/") {
            let rec = serde_json::from_slice(&bytes).map_err(|e| format!("{key}: {e}"))?;
            out.insert(key, rec);
        }
    }
    Ok(out)
}

/// What a recovery wrote is what it changed: every task record the
/// recovered engine holds is stored as it holds it (nothing changed was
/// left out), and exactly [`bioopera_core::RecoveryReport::rewritten`] of
/// them differ
/// from the copy the journal held before (nothing written equalled it).
fn check_rewrites(
    before: &BTreeMap<String, TaskRecord>,
    eng: &ShardEngine<Recorder>,
) -> Result<(), String> {
    let report = eng
        .recovery_report()
        .ok_or("a recovered engine has no report")?;
    let after = task_records(eng.store())?;
    let mut differ = 0u64;
    for (shard, id, slot) in eng.slots() {
        for (path, rec) in &slot.tasks {
            let key = shard_key(shard, &keys::task(id, path));
            if after.get(&key) != Some(&**rec) {
                return Err(format!("recovery changed {key} and left it out"));
            }
            differ += u64::from(before.get(&key) != Some(&**rec));
        }
    }
    if differ != report.rewritten {
        return Err(format!(
            "recovery wrote {} records, {differ} of them differ from the stored copy: {report:?}",
            report.rewritten
        ));
    }
    Ok(())
}

/// Run the shard crash torture over stores tiered by `tiered`: `samples`
/// sampled cases, every mutation of each one's round crashed every way
/// the enumerator names, all derived from `seed`.
pub fn run_shard_torture(seed: u64, samples: usize, tiered: Option<TieredPolicy>) -> Outcome {
    torture(seed, samples, tiered).0
}

/// [`run_shard_torture`], and the cases it drew.
fn torture(seed: u64, samples: usize, tiered: Option<TieredPolicy>) -> (Outcome, Vec<Case>) {
    let mut out = Outcome::default();
    let mut cases = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AAD_70C7);
    let policy = if tiered.is_some() {
        "tiered"
    } else {
        "untiered"
    };
    let tag = format!("HARNESS_SEED={seed} {policy} shard");

    // The one-thread, never-suspended run every case must agree with; its
    // round count is the space crash rounds are drawn from.
    let base = Case {
        tiered,
        rollup_every: rng.gen_range(1..40),
        threads: 1,
        round: 0,
        suspend: None,
    };
    let Some((rounds, oracle)) = enumerate::run_case(&mut out.violations, tag.clone(), || {
        let mut eng = base.boot(&Recorder::default())?;
        let roots = finish(&mut eng)?;
        Ok((eng.round(), roots))
    }) else {
        return (out, cases);
    };

    for i in 0..samples {
        let case = base.draw(i, rounds, &mut rng);
        cases.push(case);
        let tag = format!(
            "{tag} case={i} round={} suspend={:?} rollup_every={} threads={}",
            case.round, case.suspend, case.rollup_every, case.threads
        );
        let run = |disk: &Recorder, _: &mut usize| case.run(disk);
        let Some(recorded) = enumerate::record(&mut out, &tag, run) else {
            continue;
        };
        if recorded.outcome != oracle {
            out.violations.push(format!(
                "{tag} oracle: diverged from the one-thread run: {:?} vs {oracle:?}",
                recorded.outcome
            ));
            continue;
        }
        // A tiered store's roll makes dozens of mutations a round: its
        // run, manifest and delete writes are crashed one seeded way each.
        let plan = Plan {
            sample: None,
            ways: Ways::EveryAppend,
            doubles: 3,
        };
        enumerate::sweep(&mut out, &mut rng, &tag, &recorded, plan, run);
    }
    (out, cases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sample_is_clean_on_each_policy() {
        // A leveled round's every mutation is a crash point: fewer cases.
        for (tiered, n) in [(None, 6), (Some(crate::tiny_leveled_policy()), 2)] {
            let (out, cases) = torture(crate::DEFAULT_SEED, n, tiered);
            assert!(out.mutations > 0);
            assert_eq!(cases.len(), n);
            assert!(out.points >= cases.len(), "{} points", out.points);
            assert!(out.doubles >= 1);
            assert!(cases.iter().any(|c| c.suspend.is_some()));
            assert!(cases.iter().any(|c| c.threads > 1));
            assert!(out.crashes >= 10, "{} crashes", out.crashes);
            assert!(
                out.violations.is_empty(),
                "violations under {tiered:?}: {:#?}",
                out.violations
            );
        }
    }
}
