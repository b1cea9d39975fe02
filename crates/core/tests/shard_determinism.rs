//! Replay determinism of the sharded navigator.
//!
//! The sharding contract is that the recorded history and the final
//! instance state are a pure function of the submitted workload: the
//! number of shards, the number of stepper threads, and the thread
//! interleaving must not be observable.  These tests drive randomized
//! workload mixes — plain chains, parallel fans, and subprocess trees,
//! with and without injected node faults — through engines at several
//! (shards, threads) points and require bit-identical digests against
//! the 1-shard serial baseline.
//!
//! Recovery is checked separately: after a crash mid-round (only a
//! prefix of shard commits on disk) the recovered engine legitimately
//! records extra history (`server.recover`, requeues, fresh ids for
//! re-spawned children), so the assertion there is *output* equality —
//! every root reaches the oracle's terminal status with the oracle's
//! whiteboard — not digest equality.
//!
//! The history is one stream (`sev/{round}/{index}`) and the awareness
//! model is a view over it, so the reader is checked here too: at every
//! (shards, threads, summary cadence, crash or none, tiered or not),
//! reopening the final image from its summary plus the tail gives what
//! ingesting the persisted stream from its first event gives; and an
//! image shaped as the previous engine left it — an `ev/` twin of every
//! event and a `rollup` counted in `ev/` sequence numbers — recovers with
//! each event counted once.
//!
//! Recovery reads the history from its last summary on: the summary
//! carries the count, the label counts and the digest of the rounds it
//! covers.  So at the same sweep, what a recovered engine says of its
//! lifetime history must be what refolding the persisted stream from its
//! first event says — and a store whose summary predates the digest must
//! come to the same answer by the full refold.

use bioopera_cluster::SimTime;
use bioopera_core::awareness::RollupRecord;
use bioopera_core::shard::ShardEvent;
use bioopera_core::{
    ActivityLibrary, Awareness, AwarenessIndex, FaultInjection, HistoryEvent, InstanceStatus,
    ProgramOutput, ShardConfig, ShardEngine,
};
use bioopera_ocr::model::{ExternalBinding, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{MemDisk, Space, Store, TieredPolicy};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Activity programs shared by every template in the mix.
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

/// `A -> B` with a task-to-task dataflow.
fn chain_template() -> ProcessTemplate {
    ProcessBuilder::new("Chain")
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
        .unwrap()
}

/// `Gen -> parallel Fan(work.unit) -> Merge`.
fn fan_template() -> ProcessTemplate {
    ProcessBuilder::new("Fan")
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
        .unwrap()
}

/// `Sub(Chain) -> After` — exercises cross-instance spawn + ChildDone.
fn parent_template() -> ProcessTemplate {
    ProcessBuilder::new("Parent")
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
        .unwrap()
}

const TEMPLATES: [&str; 3] = ["Chain", "Fan", "Parent"];

fn build_engine(
    shards: usize,
    threads: usize,
    faults: Option<FaultInjection>,
) -> ShardEngine<MemDisk> {
    let store = Store::open(MemDisk::new()).unwrap();
    let cfg = ShardConfig {
        shards,
        threads,
        faults,
        ..ShardConfig::default()
    };
    engine_on(store, cfg)
}

fn engine_on(store: Store<MemDisk>, cfg: ShardConfig) -> ShardEngine<MemDisk> {
    let mut eng = ShardEngine::new(store, library(), cfg).expect("engine");
    eng.register_template(chain_template()).unwrap();
    eng.register_template(fan_template()).unwrap();
    eng.register_template(parent_template()).unwrap();
    eng
}

/// Run a workload (list of template indices, plus a per-instance knob)
/// to completion and return the observable fingerprint.
fn run_workload(
    workload: &[(usize, i64)],
    shards: usize,
    threads: usize,
    faults: Option<FaultInjection>,
) -> (u64, u64, BTreeMap<String, u64>) {
    let mut eng = build_engine(shards, threads, faults);
    submit_workload(&mut eng, workload);
    eng.run_to_completion().unwrap();
    (eng.history_digest(), eng.state_digest(), eng.event_counts())
}

fn submit_workload(eng: &mut ShardEngine<MemDisk>, workload: &[(usize, i64)]) {
    for (tmpl, knob) in workload {
        let name = TEMPLATES[tmpl % TEMPLATES.len()];
        let mut initial = BTreeMap::new();
        match name {
            "Chain" | "Parent" => {
                initial.insert("x".to_string(), Value::Int(*knob));
            }
            _ => {
                initial.insert("count".to_string(), Value::Int(1 + knob.rem_euclid(4)));
            }
        }
        eng.submit(name, initial).unwrap();
    }
}

/// The persisted stream as the awareness model sees it: an event's time
/// is the round it was committed at.
fn as_history(events: &[ShardEvent]) -> Vec<HistoryEvent> {
    events
        .iter()
        .map(|e| HistoryEvent {
            at: SimTime::from_secs(e.round),
            kind: e.kind.clone(),
        })
        .collect()
}

/// What refolding `events` from the stream's first record says of the
/// history: the digest (round, instance and sequence number of each event,
/// then a fresh encoding of its kind), the count by label and the count.
fn refold(events: &[ShardEvent]) -> (u64, BTreeMap<String, u64>, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for b in bytes {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x1_0000_01b3);
        }
    };
    let mut counts = BTreeMap::new();
    for e in events {
        fold(&e.round.to_le_bytes());
        fold(&e.instance.to_le_bytes());
        fold(&e.seq.to_le_bytes());
        fold(&serde_json::to_vec(&e.kind).unwrap());
        *counts.entry(e.kind.label().to_string()).or_insert(0) += 1;
    }
    (hash, counts, events.len() as u64)
}

/// The engine's lifetime view of its history, as [`refold`] reports it.
fn lifetime(eng: &ShardEngine<MemDisk>) -> (u64, BTreeMap<String, u64>, u64) {
    (eng.history_digest(), eng.event_counts(), eng.stats().events)
}

/// Every aggregate an index answers from; the log and postings of a
/// tail-opened index cover the tail only, and are left out.
fn aggregates(index: &AwarenessIndex) -> impl PartialEq + std::fmt::Debug {
    (
        index.len(),
        index.counts_by_kind(),
        index.run_ms().clone(),
        index.queue_ms().clone(),
        (index.in_flight(), index.peak_in_flight()),
        (
            index.nodes_down().clone(),
            index.nodes_quarantined().clone(),
        ),
        index.total_cpu_ms().to_bits(),
        index.store_io().clone(),
    )
}

/// Operator steering schedule: `(suspend_round, resume_gap, root_idx)`
/// — suspend root `idx` when the engine reaches `suspend_round`, resume
/// it `resume_gap` rounds after that.  Calls are keyed to the engine's
/// round counter, which advances identically at every (shards, threads)
/// point, so the same schedule produces the same operator-call sequence
/// — and therefore the same history — in every configuration.
type OpSchedule = [(u64, u64, usize)];

/// Run a workload with suspend/resume injected at the scheduled rounds,
/// then drive to quiescence and return the observable fingerprint.
fn run_workload_with_ops(
    workload: &[(usize, i64)],
    ops: &OpSchedule,
    shards: usize,
    threads: usize,
) -> (u64, u64, BTreeMap<String, u64>) {
    let mut eng = build_engine(shards, threads, None);
    let ids: Vec<u64> = workload
        .iter()
        .map(|(tmpl, knob)| {
            let name = TEMPLATES[tmpl % TEMPLATES.len()];
            let mut initial = BTreeMap::new();
            match name {
                "Chain" | "Parent" => {
                    initial.insert("x".to_string(), Value::Int(*knob));
                }
                _ => {
                    initial.insert("count".to_string(), Value::Int(1 + knob.rem_euclid(4)));
                }
            }
            eng.submit(name, initial).unwrap()
        })
        .collect();
    // Expand to a sorted (round, is_resume, instance) action list.
    let mut actions: Vec<(u64, bool, u64)> = Vec::new();
    for (sus_round, gap, idx) in ops {
        let id = ids[idx % ids.len()];
        actions.push((*sus_round, false, id));
        actions.push((sus_round + 1 + gap, true, id));
    }
    actions.sort_unstable();
    let mut i = 0usize;
    loop {
        while i < actions.len() && actions[i].0 <= eng.round() {
            let (_, is_resume, id) = actions[i];
            if is_resume {
                eng.resume(id).unwrap();
            } else {
                eng.suspend(id).unwrap();
            }
            i += 1;
        }
        if !eng.step_round().unwrap() {
            if i < actions.len() {
                // Quiesced before the next scheduled round: fast-forward
                // the remaining schedule (still a deterministic point —
                // quiescence timing is config-invariant).
                let (_, is_resume, id) = actions[i];
                if is_resume {
                    eng.resume(id).unwrap();
                } else {
                    eng.suspend(id).unwrap();
                }
                i += 1;
                continue;
            }
            break;
        }
    }
    // Every suspend is paired with a later resume, so the run must end
    // fully terminal, never wedged.
    let outcome = eng.run_to_completion().unwrap();
    assert!(
        outcome.is_completed(),
        "paired resumes must unpark: {outcome:?}"
    );
    (eng.history_digest(), eng.state_digest(), eng.event_counts())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any (shards, threads) point reproduces the serial baseline
    /// bit-for-bit, including under injected node faults.
    #[test]
    fn sharded_replay_matches_serial_baseline(
        workload in prop::collection::vec((0usize..3, 0i64..100), 1..24),
        shards in 2usize..9,
        threads in 1usize..5,
        fault_seed in any::<u64>(),
        fault_rate in prop_oneof![Just(0u32), Just(120_000u32)],
    ) {
        let faults = (fault_rate > 0).then_some(FaultInjection {
            seed: fault_seed,
            rate_ppm: fault_rate,
        });
        let baseline = run_workload(&workload, 1, 1, faults.clone());
        let sharded = run_workload(&workload, shards, threads, faults);
        prop_assert_eq!(&sharded.0, &baseline.0, "history digest diverged");
        prop_assert_eq!(&sharded.1, &baseline.1, "state digest diverged");
        prop_assert_eq!(&sharded.2, &baseline.2, "event counts diverged");
    }

    /// Suspension/resume injected at arbitrary rounds must leave the
    /// history bit-identical across (shards, threads) points: operator
    /// steering rides the same deterministic `(instance, seq)` outbox as
    /// everything else.
    #[test]
    fn sharded_replay_matches_serial_baseline_with_suspension(
        workload in prop::collection::vec((0usize..3, 0i64..100), 1..16),
        ops in prop::collection::vec((0u64..12, 0u64..6, 0usize..16), 1..4),
        shards in 2usize..9,
        threads in 1usize..5,
    ) {
        let baseline = run_workload_with_ops(&workload, &ops, 1, 1);
        let sharded = run_workload_with_ops(&workload, &ops, shards, threads);
        prop_assert_eq!(&sharded.0, &baseline.0, "history digest diverged");
        prop_assert_eq!(&sharded.1, &baseline.1, "state digest diverged");
        prop_assert_eq!(&sharded.2, &baseline.2, "event counts diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The awareness model is a view over the one persisted stream: the
    /// live handle, and a reopen of the final image from the last summary
    /// plus its tail, answer what ingesting the stream from its first
    /// event answers — whatever the cadence put into which frame,
    /// wherever a crash cut the run, tiered or not.
    #[test]
    fn reopening_the_stream_from_its_summary_equals_ingesting_it_whole(
        workload in prop::collection::vec((0usize..3, 0i64..100), 1..16),
        shards in 1usize..9,
        threads in 1usize..5,
        rollup_every in 1u64..40,
        crash in (any::<bool>(), 0u64..8, 0usize..9),
        tiered in any::<bool>(),
        fault_rate in prop_oneof![Just(0u32), Just(120_000u32)],
    ) {
        let policy = tiered.then(|| TieredPolicy {
            memtable_budget_bytes: 512,
            run_merge_threshold: 2,
            level_base_bytes: 4096,
            level_growth: 2,
            level_run_bytes: 768,
            ..TieredPolicy::default()
        });
        // `None` leaves the choice to `Store::open`, as everywhere in this
        // file: check.sh's tiered sweeps then reach these runs as well.
        let open = |disk: &MemDisk| match policy {
            Some(p) => Store::open_with(disk.clone(), Some(p)).unwrap(),
            None => Store::open(disk.clone()).unwrap(),
        };
        let cfg = ShardConfig {
            shards,
            threads,
            faults: (fault_rate > 0).then_some(FaultInjection { seed: 7, rate_ppm: fault_rate }),
            ..ShardConfig::default()
        };
        let disk = MemDisk::new();
        let mut eng = engine_on(open(&disk), cfg.clone());
        eng.set_rollup_every(rollup_every);
        submit_workload(&mut eng, &workload);
        if let (true, crash_round, prefix) = crash {
            for _ in 0..crash_round {
                eng.step_round().unwrap();
            }
            if !eng.quiescent() {
                eng.step_round_partial_commit(prefix.min(shards)).unwrap();
            }
            drop(eng);
            eng = ShardEngine::recover(open(&disk), library(), cfg).unwrap();
            eng.set_rollup_every(rollup_every);
            // Seeded from the summary and folded over the tail alone, the
            // recovered view is the whole stream's.
            prop_assert_eq!(
                lifetime(&eng),
                refold(&eng.persisted_events().unwrap()),
                "recovered from round {} at cadence {}", crash_round, rollup_every
            );
        }
        eng.run_to_completion().unwrap();

        let persisted = eng.persisted_events().unwrap();
        prop_assert_eq!(lifetime(&eng), refold(&persisted));
        let history = as_history(&persisted);
        let mut whole = AwarenessIndex::default();
        for ev in &history {
            whole.ingest(ev);
        }
        prop_assert_eq!(
            format!("{:?}", aggregates(eng.awareness().index())),
            format!("{:?}", aggregates(&whole)),
            "the live view drifted from the stream"
        );
        let reopened = Awareness::open_tail(eng.store()).unwrap();
        prop_assert!(aggregates(reopened.index()) == aggregates(&whole),
            "reopened {:?}\nwhole stream {:?}", aggregates(reopened.index()), aggregates(&whole));
        prop_assert_eq!(&reopened.all(eng.store()).unwrap(), &history);
        prop_assert_eq!(&eng.awareness().all(eng.store()).unwrap(), &history);
        // O(tail): a commit that leaves `rollup_every` events or more
        // unsummarized writes a summary, so the tail is always shorter.
        prop_assert_eq!(
            reopened.open_scanned(),
            history.len() as u64 - reopened.index().summarized()
        );
        prop_assert!(reopened.open_scanned() < rollup_every,
            "scanned {} events at cadence {rollup_every}", reopened.open_scanned());
        // One writer: the stream, its summary, and nothing under `ev/`.
        prop_assert!(eng.store().scan_prefix(Space::History, "ev/").unwrap().is_empty());
        prop_assert_eq!(
            eng.store().get(Space::History, "summary").unwrap().is_some(),
            history.len() as u64 >= rollup_every
        );
    }
}

/// A store as the previous engine left it: beside every `sev/` record an
/// `ev/` twin, and a `rollup` whose `base` counts `ev/` sequence numbers.
/// The twins and the rollup are written here through the `ev/` writer —
/// the frozen shapes, byte for byte what that engine wrote.  The new
/// engine reads `sev/` alone: each event once, `ev/` left as it was.
#[test]
fn a_store_the_previous_engine_wrote_recovers_with_each_event_counted_once() {
    let workload: Vec<(usize, i64)> = (0..9).map(|i| (i % 3, 10 + i as i64)).collect();
    let cfg = ShardConfig {
        shards: 4,
        threads: 2,
        ..ShardConfig::default()
    };
    let disk = MemDisk::new();
    let mut eng = engine_on(Store::open(disk.clone()).unwrap(), cfg.clone());
    // The previous engine wrote no stream summary.
    eng.set_rollup_every(u64::MAX);
    submit_workload(&mut eng, &workload);
    for _ in 0..3 {
        eng.step_round().unwrap();
    }
    eng.step_round_partial_commit(2).unwrap();
    let before_crash = as_history(&eng.persisted_events().unwrap());
    drop(eng);

    let twins = Store::open(MemDisk::new()).unwrap();
    let mut writer = Awareness::open(&twins).unwrap();
    writer.set_rollup_every(4);
    for chunk in before_crash.chunks(5) {
        for ev in chunk {
            writer.record(ev.at, ev.kind.clone());
        }
        writer.flush(&twins).unwrap();
    }
    let legacy = twins.scan_prefix(Space::History, "").unwrap();
    assert_eq!(
        legacy.len(),
        before_crash.len() + 1,
        "the twins and a rollup"
    );
    let store = Store::open(disk.clone()).unwrap();
    assert!(store.get(Space::History, "summary").unwrap().is_none());
    for (key, bytes) in &legacy {
        assert!(key.starts_with("ev/") || key == "rollup", "{key}");
        store
            .put(Space::History, key.clone(), bytes.clone())
            .unwrap();
    }
    drop(store);

    let mut eng = ShardEngine::recover(Store::open(disk).unwrap(), library(), cfg).unwrap();
    let counted = |eng: &ShardEngine<MemDisk>| {
        let persisted = as_history(&eng.persisted_events().unwrap());
        let mut whole = AwarenessIndex::default();
        for ev in &persisted {
            whole.ingest(ev);
        }
        assert!(aggregates(eng.awareness().index()) == aggregates(&whole));
        assert_eq!(eng.awareness().all(eng.store()).unwrap(), persisted);
        let by_label: BTreeMap<String, u64> = whole
            .counts_by_kind()
            .into_iter()
            .map(|(k, n)| (k, n as u64))
            .collect();
        assert_eq!(eng.event_counts(), by_label);
        persisted.len()
    };
    // What was there, plus the recovery's own events — not twice that.
    assert!(counted(&eng) > before_crash.len());
    assert!(counted(&eng) < 2 * before_crash.len());
    eng.set_rollup_every(8);
    assert!(eng.run_to_completion().unwrap().is_completed());
    assert_eq!(
        eng.stats().completed,
        9 + 3,
        "nine roots and three subprocess children"
    );
    let events = counted(&eng);
    // From here on it is a store like any other: a summary, an O(tail) reopen.
    let reopened = Awareness::open_tail(eng.store()).unwrap();
    assert_eq!(reopened.index().len(), events);
    assert!(reopened.open_scanned() < 8);
    // And the old stream is neither extended nor touched.
    let mut left: Vec<_> = eng.store().scan_prefix(Space::History, "ev/").unwrap();
    left.extend(eng.store().scan_prefix(Space::History, "rollup").unwrap());
    assert_eq!(left, legacy);
}

/// The `summary` record as the engines before the history digest wrote
/// and read it (PRs 22 and 23): the frozen shape, kept as a writer for
/// stores of that age and as their reader, which skips a member it does
/// not know.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct SummaryBeforeDigest {
    next_round: u64,
    rollup: RollupRecord,
}

/// A store whose summary carries no digest — an earlier engine's — is
/// recovered by refolding the stream from its first record, comes to the
/// digest the stream has, and gains the member at its next cadence.  And
/// the other way about: the earlier reader reads this engine's summary.
#[test]
fn a_summary_without_a_digest_recovers_by_full_refold_and_gains_one() {
    let workload: Vec<(usize, i64)> = (0..9).map(|i| (i % 3, 10 + i as i64)).collect();
    let cfg = ShardConfig {
        shards: 3,
        threads: 2,
        ..ShardConfig::default()
    };
    let disk = MemDisk::new();
    let mut eng = engine_on(Store::open(disk.clone()).unwrap(), cfg.clone());
    eng.set_rollup_every(6);
    submit_workload(&mut eng, &workload);
    for _ in 0..4 {
        eng.step_round().unwrap();
    }
    let summary = |store: &Store<MemDisk>| {
        let bytes = store.get(Space::History, "summary").unwrap().unwrap();
        String::from_utf8(bytes.to_vec()).unwrap()
    };
    let stored = summary(eng.store());
    drop(eng);

    // This engine's record, read by the earlier reader: the unknown member
    // is skipped, and what is left re-encodes to the record minus it.
    let before: SummaryBeforeDigest = serde_json::from_str(&stored).unwrap();
    let old_shape = serde_json::to_string(&before).unwrap();
    let (body, digest) = stored.rsplit_once(",\"digest\":").unwrap();
    assert_eq!(old_shape, format!("{body}}}"));
    assert!(digest.strip_suffix('}').unwrap().parse::<u64>().is_ok());

    // The store as the earlier engine left it.
    let store = Store::open(disk.clone()).unwrap();
    store
        .put(Space::History, "summary", old_shape.clone())
        .unwrap();
    drop(store);
    let mut eng = ShardEngine::recover(Store::open(disk).unwrap(), library(), cfg).unwrap();
    let persisted = eng.persisted_events().unwrap();
    assert!(persisted.iter().any(|e| e.round < before.next_round));
    assert_eq!(lifetime(&eng), refold(&persisted));
    // The recovery's own commit was under the cadence: the record is
    // still the old one.  The next due commit writes the member.
    assert_eq!(summary(eng.store()), old_shape);
    eng.set_rollup_every(6);
    assert!(eng.run_to_completion().unwrap().is_completed());
    assert!(summary(eng.store()).contains(",\"digest\":"));
    assert_eq!(lifetime(&eng), refold(&eng.persisted_events().unwrap()));
}

/// The digests are compared between configurations everywhere else, so a
/// change that moved all of them together would pass.  These are what the
/// commit before the history became one stream recorded for this
/// workload (`8678b3d`, 1×1 and 4×4).
#[test]
fn the_crash_free_history_digest_is_pinned() {
    let workload: Vec<(usize, i64)> = vec![(0, 5), (1, 2), (2, 9), (0, 11), (2, 3)];
    let (history, state, counts) = run_workload(&workload, 3, 2, None);
    assert_eq!(
        history, 0xdb4c_0aa5_5276_fe56,
        "history digest {history:#018x}"
    );
    assert_eq!(state, 0x4a5e_de3f_fc93_5796, "state digest {state:#018x}");
    let pinned = [
        ("instance.complete", 7),
        ("instance.start", 7),
        ("subprocess.start", 2),
        ("task.end", 17),
        ("task.start", 15),
    ];
    assert_eq!(
        counts,
        pinned.iter().map(|(k, n)| (k.to_string(), *n)).collect()
    );
}

/// Crash at the shard barrier with a partial commit prefix, recover,
/// and require every root to converge to the crash-free oracle's
/// terminal status and whiteboard.
#[test]
fn recovery_after_partial_commit_converges_to_oracle_outputs() {
    let workload: Vec<(usize, i64)> = (0..9).map(|i| (i % 3, 10 + i as i64)).collect();
    let submit_all = |eng: &mut ShardEngine<MemDisk>| -> Vec<u64> {
        workload
            .iter()
            .map(|(tmpl, knob)| {
                let name = TEMPLATES[*tmpl];
                let mut initial = BTreeMap::new();
                match name {
                    "Chain" | "Parent" => {
                        initial.insert("x".to_string(), Value::Int(*knob));
                    }
                    _ => {
                        initial.insert("count".to_string(), Value::Int(1 + knob.rem_euclid(4)));
                    }
                }
                eng.submit(name, initial).unwrap()
            })
            .collect()
    };

    // Crash-free oracle.
    let mut oracle = build_engine(1, 1, None);
    let oracle_ids = submit_all(&mut oracle);
    oracle.run_to_completion().unwrap();
    let expected: Vec<(InstanceStatus, BTreeMap<String, Value>)> = oracle_ids
        .iter()
        .map(|id| {
            (
                oracle.instance_status(*id).unwrap(),
                oracle.instance_whiteboard(*id).unwrap().clone(),
            )
        })
        .collect();
    assert!(expected
        .iter()
        .all(|(st, _)| *st == InstanceStatus::Completed));

    // Crash at every (round, commit-prefix) point of the early rounds.
    for crash_round in 0..4u64 {
        for prefix in 0..=4usize {
            let disk = MemDisk::new();
            let store = Store::open(disk.clone()).unwrap();
            let cfg = ShardConfig {
                shards: 4,
                threads: 1,
                ..ShardConfig::default()
            };
            let mut eng = ShardEngine::new(store, library(), cfg.clone()).expect("engine");
            eng.register_template(chain_template()).unwrap();
            eng.register_template(fan_template()).unwrap();
            eng.register_template(parent_template()).unwrap();
            let ids = submit_all(&mut eng);
            for _ in 0..crash_round {
                eng.step_round().unwrap();
            }
            eng.step_round_partial_commit(prefix).unwrap();
            drop(eng);

            let store = Store::open(disk).unwrap();
            let mut eng = ShardEngine::recover(store, library(), cfg).unwrap();
            eng.run_to_completion().unwrap_or_else(|e| {
                panic!("round {crash_round} prefix {prefix}: stuck after recovery: {e}")
            });
            for (id, (want_status, want_wb)) in ids.iter().zip(&expected) {
                assert_eq!(
                    eng.instance_status(*id),
                    Some(*want_status),
                    "round {crash_round} prefix {prefix}: root {id} status"
                );
                assert_eq!(
                    eng.instance_whiteboard(*id),
                    Some(want_wb),
                    "round {crash_round} prefix {prefix}: root {id} whiteboard"
                );
            }
        }
    }
}

/// The serial single-shard config (1 shard, 1 thread, pinned by hand) is
/// the reference semantics: a 4x4 config must agree with it on the same
/// workload.
#[test]
fn single_shard_config_is_the_reference_semantics() {
    let workload: Vec<(usize, i64)> = vec![(0, 5), (1, 2), (2, 9), (0, 11), (2, 3)];
    let a = run_workload(&workload, 1, 1, None);
    let b = run_workload(&workload, 4, 4, None);
    assert_eq!(a, b);
}
