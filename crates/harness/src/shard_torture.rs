//! Crash-at-the-shard-barrier torture for the sharded navigator.
//!
//! The sharded engine commits each shard's journal prefix independently
//! inside a round; the deterministic barrier only runs after every shard
//! commit has landed.  A server crash can therefore leave the store with
//! an arbitrary *subset* of the round's shard commits — some shards a
//! round ahead of others — which is exactly the state
//! [`ShardEngine::step_round_partial_commit`] manufactures on purpose.
//!
//! For a seeded sample of `(crash round, committed-shard prefix)` points
//! this pass crashes the engine mid-round, reopens the store, recovers,
//! and requires every root instance to converge to the crash-free
//! oracle's terminal status *and* final whiteboard.  History digests are
//! deliberately not compared: recovery legitimately appends its own
//! events (`server.recover`, requeues, fresh ids for re-spawned
//! subprocess children).  A fraction of cases crash a second time during
//! the recovered run to cover crash-during-recovery, and another
//! fraction suspends a sampled root *at the crashing barrier* — the
//! suspend control message is in flight (or its durable record is in
//! the committed prefix) when the server dies — covering the
//! suspend→crash→recover→resume path: whatever the crash preserved, the
//! recovered run must quiesce rather than wedge, and an operator resume
//! must drive every root to the oracle's outputs.
//!
//! A second kind of case puts a [`FaultPlan`] under the engine and tears
//! **the barrier's own commit** — the one append that carries a round's
//! history events and, when its cadence is due, the awareness summary
//! that covers them: lost, kept in full with the acknowledgment lost, and
//! torn at byte 0, one byte either side of every WAL frame boundary and
//! at seeded offsets inside.  Every case of either kind holds the engine
//! to the **history invariant** ([`check_history`], which the runtime
//! torture shares) after each recovery and at the end: the engine's
//! lifetime digest, the awareness index, a reopen from the summary and the
//! persisted stream are views of one record, so they agree — the digest
//! with a refold of what `sev/` holds, the rest by label, in length, and
//! in every aggregate an index rebuilt from the persisted stream would
//! hold.  Every recovery is also held to what it wrote ([`check_rewrites`]):
//! each task record it rewrote differs from the copy the journal held, and
//! each it left out still equals it.
//!
//! The store policy is the caller's: under a tiered one the rounds spill
//! and merge, so crash points fall inside a store whose journals and
//! history live in runs, and recovery reads them back through levels.
//!
//! [`ShardEngine::step_round_partial_commit`]: bioopera_core::ShardEngine::step_round_partial_commit

use bioopera_core::history;
use bioopera_core::shard::ShardEvent;
use bioopera_core::state::keys;
use bioopera_core::{
    ActivityLibrary, Awareness, AwarenessIndex, HistoryEvent, InstanceStatus, ProgramOutput,
    ShardConfig, ShardEngine, TaskRecord,
};
use bioopera_ocr::model::{ExternalBinding, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{
    shard_key, wal, CrashEffect, Disk, FaultPlan, MemDisk, Space, Store, TieredPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Outcome of the shard-barrier torture pass.
pub struct ShardTortureOutcome {
    /// Rounds the crash-free oracle needed (the crash-point space).
    pub rounds: u64,
    /// Single-crash cases executed.
    pub cases: usize,
    /// Crash-during-recovery (double-crash) cases executed.
    pub recovery_cases: usize,
    /// Suspend-at-the-crashing-barrier cases executed.
    pub suspend_cases: usize,
    /// Torn-barrier-commit cases executed (every effect and offset of
    /// every sampled round counts as one).
    pub torn_cases: usize,
    /// Invariant violations; empty on success.
    pub violations: Vec<String>,
}

const SHARDS: usize = 4;

fn library() -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("gen.list", |inputs| {
        let count = inputs.get("count").and_then(|v| v.as_int()).unwrap_or(3);
        Ok(ProgramOutput::from_fields(
            [("items", Value::int_list(0..count))],
            1_000.0,
        ))
    });
    lib.register("work.unit", |inputs| {
        let item = inputs
            .get("item")
            .and_then(|v| v.as_int())
            .ok_or_else(|| "work.unit needs an item".to_string())?;
        Ok(ProgramOutput::from_fields(
            [("value", Value::Int(item * item))],
            5_000.0,
        ))
    });
    lib.register("merge.sum", |inputs| {
        let total: i64 = inputs
            .get("results")
            .and_then(|v| v.as_list())
            .map(|items| {
                items
                    .iter()
                    .filter_map(|v| v.get_path(&["value"]).and_then(|v| v.as_int()))
                    .sum()
            })
            .unwrap_or(0);
        Ok(ProgramOutput::from_fields(
            [("total", Value::Int(total))],
            2_000.0,
        ))
    });
    lib.register("p.a", |inputs| {
        let x = inputs.get("x").and_then(|v| v.as_int()).unwrap_or(7);
        Ok(ProgramOutput::from_fields([("x", Value::Int(x))], 10.0))
    });
    lib.register("p.b", |inputs| {
        let x = inputs
            .get("x")
            .and_then(|v| v.as_int())
            .ok_or_else(|| "missing x".to_string())?;
        Ok(ProgramOutput::from_fields([("y", Value::Int(x * 2))], 20.0))
    });
    lib
}

fn templates() -> Vec<ProcessTemplate> {
    let chain = ProcessBuilder::new("Chain")
        .whiteboard_default("x", TypeTag::Int, Value::Int(7))
        .whiteboard_field("y", TypeTag::Int)
        .activity("A", "p.a", |t| {
            t.input("x", TypeTag::Int).output("x", TypeTag::Int)
        })
        .activity("B", "p.b", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .connect("A", "B")
        .flow_from_whiteboard("x", "A", "x")
        .flow_to_task("A", "x", "B", "x")
        .flow_to_whiteboard("B", "y", "y")
        .build()
        .unwrap();
    let fan = ProcessBuilder::new("FanOut")
        .whiteboard_default("count", TypeTag::Int, Value::Int(3))
        .whiteboard_field("total", TypeTag::Int)
        .activity("Gen", "gen.list", |t| {
            t.input("count", TypeTag::Int)
                .output("items", TypeTag::List)
        })
        .parallel(
            "Fan",
            "items",
            ParallelBody::Activity(ExternalBinding::program("work.unit")),
            "results",
            |t| t,
        )
        .activity("Merge", "merge.sum", |t| {
            t.input("results", TypeTag::List)
                .output("total", TypeTag::Int)
        })
        .connect("Gen", "Fan")
        .connect("Fan", "Merge")
        .flow_from_whiteboard("count", "Gen", "count")
        .flow_to_task("Gen", "items", "Fan", "items")
        .flow_to_task("Fan", "results", "Merge", "results")
        .flow_to_whiteboard("Merge", "total", "total")
        .build()
        .unwrap();
    let parent = ProcessBuilder::new("Parent")
        .whiteboard_default("x", TypeTag::Int, Value::Int(21))
        .subprocess("Sub", "Chain", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .activity("After", "p.b", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .connect("Sub", "After")
        .flow_from_whiteboard("x", "Sub", "x")
        .flow_to_task("Sub", "y", "After", "x")
        .build()
        .unwrap();
    vec![chain, fan, parent]
}

fn cfg() -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        threads: 1,
        ..ShardConfig::default()
    }
}

/// How one pass opens its stores, and how often it summarises.
#[derive(Clone, Copy)]
struct Setup {
    tiered: Option<TieredPolicy>,
    rollup_every: u64,
}

/// Build an engine on `disk` and submit the scripted root mix.  A small
/// `rollup_every` puts an awareness summary into most barrier commits.
fn boot(disk: &MemDisk, setup: Setup) -> Result<(ShardEngine<MemDisk>, Vec<u64>), String> {
    let store = Store::open_with(disk.clone(), setup.tiered).map_err(|e| format!("open: {e}"))?;
    let mut eng = ShardEngine::new(store, library(), cfg()).expect("engine");
    eng.set_rollup_every(setup.rollup_every);
    for t in templates() {
        eng.register_template(t)
            .map_err(|e| format!("register: {e}"))?;
    }
    let names = ["Chain", "FanOut", "Parent"];
    let mut ids = Vec::new();
    for i in 0..9u64 {
        let name = names[(i % 3) as usize];
        let mut initial = BTreeMap::new();
        match name {
            "FanOut" => {
                initial.insert("count".to_string(), Value::Int(1 + (i as i64 % 4)));
            }
            _ => {
                initial.insert("x".to_string(), Value::Int(10 + i as i64));
            }
        }
        ids.push(
            eng.submit(name, initial)
                .map_err(|e| format!("submit: {e}"))?,
        );
    }
    Ok((eng, ids))
}

/// [`boot`], then `rounds` crash-free rounds.
fn boot_at_round(
    disk: &MemDisk,
    setup: Setup,
    rounds: u64,
) -> Result<(ShardEngine<MemDisk>, Vec<u64>), String> {
    let (mut eng, ids) = boot(disk, setup)?;
    for _ in 0..rounds {
        eng.step_round()
            .map_err(|e| format!("pre-crash step: {e}"))?;
    }
    Ok((eng, ids))
}

type RootResult = (InstanceStatus, BTreeMap<String, Value>);

fn roots(eng: &ShardEngine<MemDisk>, ids: &[u64]) -> Result<Vec<RootResult>, String> {
    ids.iter()
        .map(|id| {
            Ok((
                eng.instance_status(*id)
                    .ok_or_else(|| format!("root {id} vanished"))?,
                eng.instance_whiteboard(*id)
                    .ok_or_else(|| format!("root {id} whiteboard vanished"))?
                    .clone(),
            ))
        })
        .collect()
}

fn compare(tag: &str, got: &[RootResult], oracle: &[RootResult]) -> Result<(), String> {
    for (i, (g, o)) in got.iter().zip(oracle).enumerate() {
        if g.0 != o.0 {
            return Err(format!(
                "{tag}: root #{i} ended {:?}, oracle {:?}",
                g.0, o.0
            ));
        }
        if g.1 != o.1 {
            return Err(format!(
                "{tag}: root #{i} whiteboard diverged: {:?} vs {:?}",
                g.1, o.1
            ));
        }
    }
    Ok(())
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
fn check_engine(eng: &ShardEngine<MemDisk>) -> Result<(), String> {
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
    eng: &ShardEngine<MemDisk>,
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

/// Reopen `disk` and recover, holding the recovered engine to the history
/// invariant, and what it wrote to what it changed, before it takes a step.
fn recover(disk: &MemDisk, setup: Setup) -> Result<ShardEngine<MemDisk>, String> {
    let store = Store::open_with(disk.clone(), setup.tiered).map_err(|e| format!("reopen: {e}"))?;
    let before = task_records(&store)?;
    let mut eng =
        ShardEngine::recover(store, library(), cfg()).map_err(|e| format!("recover: {e}"))?;
    eng.set_rollup_every(setup.rollup_every);
    check_engine(&eng).map_err(|e| format!("after recovery: {e}"))?;
    check_rewrites(&before, &eng).map_err(|e| format!("after recovery: {e}"))?;
    Ok(eng)
}

/// Recover from `disk` and drive the run to completion.  A run that
/// quiesces with suspended instances is *not* a failure — that is the
/// suspended-wedge fix working as intended — the operator resumes and
/// the run must then finish for real.
fn recover_and_finish(disk: &MemDisk, setup: Setup) -> Result<ShardEngine<MemDisk>, String> {
    let mut eng = recover(disk, setup)?;
    let outcome = eng
        .run_to_completion()
        .map_err(|e| format!("resume: {e}"))?;
    if !outcome.is_completed() {
        eng.resume_all().map_err(|e| format!("resume_all: {e}"))?;
        let outcome = eng
            .run_to_completion()
            .map_err(|e| format!("post-resume run: {e}"))?;
        if !outcome.is_completed() {
            return Err(format!("still quiesced after resume: {outcome:?}"));
        }
    }
    check_engine(&eng).map_err(|e| format!("at the end: {e}"))?;
    Ok(eng)
}

/// The barrier's commit of round `round`, found on two crash-free twins
/// of the run: which disk mutation of the round it is, and the bytes it
/// appends.  `None` when the round commits no history.
fn barrier_append(round: u64, setup: Setup) -> Result<Option<(u64, Vec<u8>)>, String> {
    // Twin A stops short of the barrier: its mutation count is the index
    // of the barrier's append, its files are the image before it.
    let before = MemDisk::new();
    let (mut eng, _) = boot_at_round(&before, setup, round)?;
    before.set_fault_plan(None);
    eng.step_round_partial_commit(SHARDS)
        .map_err(|e| format!("probe partial commit: {e}"))?;
    let index = before.mutation_count();
    drop(eng);
    // Twin B dies the moment that mutation is durable: what it holds
    // beyond twin A is the append.
    let after = MemDisk::new();
    let (mut eng, _) = boot_at_round(&after, setup, round)?;
    after.set_fault_plan(Some(FaultPlan::at_mutation(index, CrashEffect::AfterApply)));
    if eng.step_round().is_ok() {
        return Ok(None);
    }
    drop(eng);
    after.reboot();
    for name in after.list().map_err(|e| format!("probe list: {e}"))? {
        let grown = after
            .read(&name)
            .map_err(|e| format!("probe read: {e}"))?
            .unwrap_or_default();
        let had = before.file_len(&name).unwrap_or(0);
        if grown.len() > had {
            return Ok(Some((index, grown[had..].to_vec())));
        }
    }
    Ok(None)
}

/// Every crash the barrier's append of `data` can suffer: lost, applied
/// with the acknowledgment lost, and torn at 0, at each WAL frame
/// boundary ±1 and at three seeded offsets inside.
fn barrier_crash_effects(data: &[u8], rng: &mut StdRng) -> Vec<CrashEffect> {
    let len = data.len() as u64;
    let mut keeps = vec![0u64];
    let mut off = 0usize;
    while off + wal::HEADER_LEN <= data.len() {
        let payload = u32::from_le_bytes(data[off + 2..off + 6].try_into().expect("four bytes"));
        off += wal::HEADER_LEN + payload as usize;
        keeps.extend([off as u64 - 1, off as u64, off as u64 + 1]);
    }
    for _ in 0..3 {
        keeps.push(rng.gen_range(0..len.max(1)));
    }
    keeps.retain(|k| *k <= len);
    keeps.sort_unstable();
    keeps.dedup();
    let mut effects = vec![CrashEffect::Drop, CrashEffect::AfterApply];
    effects.extend(keeps.into_iter().map(|keep| CrashEffect::Torn { keep }));
    effects
}

/// Run the shard-barrier crash torture over stores tiered by `tiered`:
/// `samples` single-crash points and (roughly) a third as many
/// double-crash points, all derived from `seed`.
pub fn run_shard_torture(
    seed: u64,
    samples: usize,
    tiered: Option<TieredPolicy>,
) -> ShardTortureOutcome {
    let mut out = ShardTortureOutcome {
        rounds: 0,
        cases: 0,
        recovery_cases: 0,
        suspend_cases: 0,
        torn_cases: 0,
        violations: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AAD_70C7);
    let setup_at = |rollup_every| Setup {
        tiered,
        rollup_every,
    };
    let policy = if tiered.is_some() {
        "tiered"
    } else {
        "untiered"
    };

    // Crash-free oracle.
    let oracle_disk = MemDisk::new();
    let oracle_setup = setup_at(rng.gen_range(1..40));
    let oracle = match boot(&oracle_disk, oracle_setup).and_then(|(mut eng, ids)| {
        eng.run_to_completion()
            .map_err(|e| format!("oracle run: {e}"))?;
        out.rounds = eng.round();
        check_engine(&eng).map_err(|e| format!("crash-free: {e}"))?;
        roots(&eng, &ids)
    }) {
        Ok(roots) => roots,
        Err(e) => {
            out.violations.push(format!("shard oracle failed: {e}"));
            return out;
        }
    };
    if oracle
        .iter()
        .any(|(st, _)| *st != InstanceStatus::Completed)
    {
        out.violations
            .push("shard oracle did not complete all roots".to_string());
        return out;
    }

    for case in 0..samples {
        let crash_round = rng.gen_range(0..out.rounds.max(1));
        let prefix = rng.gen_range(0..=SHARDS);
        let rollup_every = rng.gen_range(1..40u64);
        let double_crash = case % 3 == 2;
        let suspend_at_barrier = case % 2 == 1;
        let suspend_root = rng.gen_range(0..9u64) as usize;
        let tag = format!(
            "seed={seed} {policy} case={case} round={crash_round} prefix={prefix}/{SHARDS} \
             double={double_crash} suspend={suspend_at_barrier} rollup_every={rollup_every}"
        );
        let setup = setup_at(rollup_every);
        out.cases += 1;
        if suspend_at_barrier {
            out.suspend_cases += 1;
        }

        let disk = MemDisk::new();
        let res = boot_at_round(&disk, setup, crash_round).and_then(|(mut eng, ids)| {
            if suspend_at_barrier {
                // Park a root right before the crashing barrier: the
                // suspend control message (and, if its owner shard is in
                // the committed prefix, the durable susp/ record) dies
                // with the server in an arbitrary intermediate state.
                eng.suspend(ids[suspend_root % ids.len()])
                    .map_err(|e| format!("suspend: {e}"))?;
            }
            eng.step_round_partial_commit(prefix)
                .map_err(|e| format!("partial commit: {e}"))?;
            drop(eng);

            if double_crash {
                // Crash again mid-recovered-run before checking outputs.
                out.recovery_cases += 1;
                let mut eng = recover(&disk, setup)?;
                let prefix2 = rng.gen_range(0..=SHARDS);
                if !eng.quiescent() {
                    eng.step_round_partial_commit(prefix2)
                        .map_err(|e| format!("second partial commit: {e}"))?;
                }
                drop(eng);
            }

            let eng = recover_and_finish(&disk, setup)?;
            compare(&tag, &roots(&eng, &ids)?, &oracle)
        });
        if let Err(e) = res {
            out.violations.push(format!("shard torture [{tag}]: {e}"));
        }
    }

    // Tear the barrier's own commit: a third as many rounds as barrier
    // crashes, every effect and offset of each.
    for case in 0..samples.div_ceil(3) {
        let crash_round = rng.gen_range(0..out.rounds.max(1));
        let rollup_every = rng.gen_range(1..40u64);
        let tag = format!(
            "seed={seed} {policy} torn case={case} round={crash_round} rollup_every={rollup_every}"
        );
        let setup = setup_at(rollup_every);
        let (index, data) = match barrier_append(crash_round, setup) {
            Ok(Some(found)) => found,
            Ok(None) => continue,
            Err(e) => {
                out.violations.push(format!("shard torture [{tag}]: {e}"));
                continue;
            }
        };
        for effect in barrier_crash_effects(&data, &mut rng) {
            out.torn_cases += 1;
            let disk = MemDisk::new();
            let res = boot_at_round(&disk, setup, crash_round).and_then(|(mut eng, ids)| {
                disk.set_fault_plan(Some(FaultPlan::at_mutation(index, effect)));
                if eng.step_round().is_ok() {
                    return Err("the armed barrier commit never crashed".to_string());
                }
                drop(eng);
                disk.reboot();
                let eng = recover_and_finish(&disk, setup)?;
                compare(&tag, &roots(&eng, &ids)?, &oracle)
            });
            if let Err(e) = res {
                out.violations.push(format!(
                    "shard torture [{tag} mutation={index} of {} bytes, {effect:?}]: {e}",
                    data.len()
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sample_is_clean_on_each_policy() {
        for tiered in [None, Some(crate::tiny_leveled_policy())] {
            let out = run_shard_torture(crate::DEFAULT_SEED, 6, tiered);
            assert!(out.rounds > 0);
            assert_eq!(out.cases, 6);
            assert!(out.recovery_cases >= 1);
            assert!(out.suspend_cases >= 1);
            assert!(out.torn_cases >= 10, "{} torn cases", out.torn_cases);
            assert!(
                out.violations.is_empty(),
                "violations under {tiered:?}: {:#?}",
                out.violations
            );
        }
    }
}
