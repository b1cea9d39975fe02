//! Replay determinism of the sharded navigator.
//!
//! The sharding contract is that the recorded history and the final
//! instance state are a pure function of the submitted workload: the
//! number of shards, the number of stepper threads, and the thread
//! interleaving must not be observable.  These tests drive randomized
//! workload mixes — plain chains, parallel fans, and subprocess trees,
//! with and without injected node faults — through engines at several
//! (shards, threads) points and require bit-identical digests against
//! the untiered 1-shard serial baseline.  At a fixed shard count the
//! thread count is not observable on disk either: the barrier is the one
//! writer, so every file holds the same bytes after every round.
//!
//! Recovery is checked separately: after a crash mid-round (a
//! frame-aligned prefix of the round's one append on disk: some shards'
//! journals, or all of them without the history) the recovered engine
//! legitimately
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
//! image shaped as an earlier engine left it — an `ev/` twin of every
//! event and a `rollup` counted in `ev/` sequence numbers — is upgraded by
//! the recovery to the stream alone, each event counted once.
//!
//! Recovery reads the history from its last summary on: the summary
//! carries the count, the label counts and the digest of the rounds it
//! covers.  So at the same sweep, what a recovered engine says of its
//! lifetime history must be what refolding the persisted stream from its
//! first event says — and a store whose summary predates the digest gains
//! it, refolded, when the recovery opens it.
//!
//! Tiering is one more thing that must not be observable, so the store
//! policy is an axis of every test here: the proptests draw it, the fixed
//! tests run once per policy (`untiered::*`, `tiered::*`), and the
//! squeezed store must have spilled — its reads and recovery scans then
//! go through runs and levels, against the untiered baseline.

mod common;

use bioopera_core::history;
use bioopera_core::shard::ShardEvent;
use bioopera_core::{
    Awareness, AwarenessIndex, FaultInjection, HistoryEvent, InstanceStatus, ShardConfig,
    ShardEngine,
};
use bioopera_ocr::value::Value;
use bioopera_store::{Disk, MemDisk, Space, Store, TieredPolicy};
use common::ev_writer::{EvWriter, SummaryBeforeDigest};
use common::{engine_on, library, refold, submit_workload};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn build_engine(
    shards: usize,
    threads: usize,
    faults: Option<FaultInjection>,
    policy: Option<TieredPolicy>,
) -> ShardEngine<MemDisk> {
    let store = Store::open_with(MemDisk::new(), policy).unwrap();
    let cfg = ShardConfig {
        shards,
        threads,
        faults,
        ..ShardConfig::default()
    };
    engine_on(store, cfg)
}

/// The observable fingerprint of a run: history digest, state digest and
/// event counts.
type Fingerprint = (u64, u64, BTreeMap<String, u64>);

fn fingerprint(eng: &ShardEngine<MemDisk>) -> Fingerprint {
    (eng.history_digest(), eng.state_digest(), eng.event_counts())
}

/// Run a workload (list of template indices, plus a per-instance knob)
/// to completion under `policy` and return the observable fingerprint.
/// A squeezed store must have spilled on the way: the tiered half of the
/// axis is not allowed to pass by never leaving the memtable.
fn run_workload(
    workload: &[(usize, i64)],
    shards: usize,
    threads: usize,
    faults: Option<FaultInjection>,
    policy: Option<TieredPolicy>,
) -> Fingerprint {
    let mut eng = build_engine(shards, threads, faults, policy);
    submit_workload(&mut eng, workload);
    eng.run_to_completion().unwrap();
    assert_spilled_if_tiered(&eng, policy);
    fingerprint(&eng)
}

fn assert_spilled_if_tiered(eng: &ShardEngine<MemDisk>, policy: Option<TieredPolicy>) {
    let stats = eng.store().stats();
    assert_eq!(
        stats.spills > 0,
        policy.is_some(),
        "{} spills under {policy:?}",
        stats.spills
    );
}

/// The persisted stream as the awareness model sees it: an event's time
/// is the round it was committed at.
fn as_history(events: &[ShardEvent]) -> Vec<HistoryEvent> {
    events
        .iter()
        .map(|e| HistoryEvent {
            at: e.time(),
            kind: e.kind.clone(),
        })
        .collect()
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
    policy: Option<TieredPolicy>,
) -> Fingerprint {
    let mut eng = build_engine(shards, threads, None, policy);
    let ids = submit_workload(&mut eng, workload);
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
    assert_spilled_if_tiered(&eng, policy);
    fingerprint(&eng)
}

/// Every file on `disk`, by name.
fn files(disk: &MemDisk) -> BTreeMap<String, Vec<u8>> {
    let names = disk.list().unwrap();
    names
        .into_iter()
        .map(|name| {
            let bytes = disk.read(&name).unwrap().unwrap_or_default();
            (name, bytes)
        })
        .collect()
}

/// The workload at `shards` on every thread count in `1..=5`, stepped in
/// lockstep under each store policy: after every round each disk holds
/// the one-thread disk's files byte for byte.
fn threads_leave_identical_disks(
    workload: &[(usize, i64)],
    shards: usize,
    faults: Option<FaultInjection>,
) -> Result<(), TestCaseError> {
    for policy in common::policies() {
        let mut runs: Vec<(MemDisk, ShardEngine<MemDisk>)> = (1..=5)
            .map(|threads| {
                let disk = MemDisk::new();
                let store = Store::open_with(disk.clone(), policy).unwrap();
                let cfg = ShardConfig {
                    shards,
                    threads,
                    faults: faults.clone(),
                    ..ShardConfig::default()
                };
                let mut eng = engine_on(store, cfg);
                submit_workload(&mut eng, workload);
                (disk, eng)
            })
            .collect();
        let mut more = true;
        while more {
            let round = runs[0].1.round();
            more = runs[0].1.step_round().unwrap();
            let reference = files(&runs[0].0);
            for (at, (disk, eng)) in runs.iter_mut().enumerate().skip(1) {
                prop_assert_eq!(eng.step_round().unwrap(), more);
                prop_assert!(
                    files(disk) == reference,
                    "{} threads diverged on disk from one thread at round {} under {:?}",
                    at + 1,
                    round,
                    policy
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (shards, threads) point, on either store policy, reproduces the
    /// untiered serial baseline bit-for-bit, including under injected node
    /// faults: neither sharding nor tiering is observable.  And at the
    /// drawn shard count every thread count leaves the same disk.
    #[test]
    fn sharded_replay_matches_serial_baseline(
        workload in prop::collection::vec((0usize..3, 0i64..100), 1..24),
        shards in 1usize..9,
        threads in 1usize..5,
        fault_seed in any::<u64>(),
        fault_rate in prop_oneof![Just(0u32), Just(120_000u32)],
        policy in common::policy(),
    ) {
        let faults = (fault_rate > 0).then_some(FaultInjection {
            seed: fault_seed,
            rate_ppm: fault_rate,
        });
        let baseline = run_workload(&workload, 1, 1, faults.clone(), None);
        let sharded = run_workload(&workload, shards, threads, faults.clone(), policy);
        prop_assert_eq!(&sharded.0, &baseline.0, "history digest diverged");
        prop_assert_eq!(&sharded.1, &baseline.1, "state digest diverged");
        prop_assert_eq!(&sharded.2, &baseline.2, "event counts diverged");
        threads_leave_identical_disks(&workload, shards, faults)?;
    }

    /// Suspension/resume injected at arbitrary rounds must leave the
    /// history bit-identical across (shards, threads) points and store
    /// policies: operator steering rides the same deterministic
    /// `(instance, seq)` outbox as everything else.
    #[test]
    fn sharded_replay_matches_serial_baseline_with_suspension(
        workload in prop::collection::vec((0usize..3, 0i64..100), 1..16),
        ops in prop::collection::vec((0u64..12, 0u64..6, 0usize..16), 1..4),
        shards in 1usize..9,
        threads in 1usize..5,
        policy in common::policy(),
    ) {
        let baseline = run_workload_with_ops(&workload, &ops, 1, 1, None);
        let sharded = run_workload_with_ops(&workload, &ops, shards, threads, policy);
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
    /// wherever a crash cut the run (at each frame boundary of the
    /// crashing round's append), tiered or not.
    #[test]
    fn reopening_the_stream_from_its_summary_equals_ingesting_it_whole(
        workload in prop::collection::vec((0usize..3, 0i64..100), 1..16),
        shards in 1usize..9,
        threads in 1usize..5,
        rollup_every in 1u64..40,
        crash in (any::<bool>(), 0u64..8),
        policy in common::policy(),
        fault_rate in prop_oneof![Just(0u32), Just(120_000u32)],
    ) {
        let open = |disk: &MemDisk| Store::open_with(disk.clone(), policy).unwrap();
        let cfg = ShardConfig {
            shards,
            threads,
            faults: (fault_rate > 0).then_some(FaultInjection { seed: 7, rate_ppm: fault_rate }),
            ..ShardConfig::default()
        };
        let boot = |disk: &MemDisk| {
            let mut eng = engine_on(open(disk), cfg.clone());
            eng.set_rollup_every(rollup_every);
            submit_workload(&mut eng, &workload);
            eng
        };
        let (true, crash_round) = crash else {
            let mut eng = boot(&MemDisk::new());
            eng.run_to_completion().unwrap();
            return stream_is_whole(&eng, rollup_every);
        };
        let crash = |disk: &MemDisk, plan| {
            let mut eng = boot(disk);
            for _ in 0..crash_round {
                eng.step_round().unwrap();
            }
            disk.set_fault_plan(Some(plan));
            assert!(eng.step_round().is_err());
        };
        let recover = |disk: &MemDisk, (), kept| {
            let mut eng = ShardEngine::recover(open(disk), library(), cfg.clone()).unwrap();
            eng.set_rollup_every(rollup_every);
            // Seeded from the summary and folded over the tail alone, the
            // recovered view is the whole stream's.
            prop_assert_eq!(
                lifetime(&eng),
                refold(&eng.persisted_events().unwrap()),
                "recovered from round {} ({} bytes kept) at cadence {}",
                crash_round, kept, rollup_every
            );
            eng.run_to_completion().unwrap();
            stream_is_whole(&eng, rollup_every)
        };
        let finished = MemDisk::new();
        let mut eng = boot(&finished);
        eng.run_to_completion().unwrap();
        if crash_round >= eng.round() {
            // The run ends first: recover the finished store.
            drop(eng);
            return recover(&finished, (), 0);
        }
        drop(eng);
        for checked in common::tears::tear_at_each_frame(crash, recover) {
            checked?;
        }
    }
}

/// What [`reopening_the_stream_from_its_summary_equals_ingesting_it_whole`]
/// holds a finished run to.
fn stream_is_whole(eng: &ShardEngine<MemDisk>, rollup_every: u64) -> Result<(), TestCaseError> {
    let persisted = eng.persisted_events().unwrap();
    prop_assert_eq!(lifetime(eng), refold(&persisted));
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
    prop_assert!(
        aggregates(reopened.index()) == aggregates(&whole),
        "reopened {:?}\nwhole stream {:?}",
        aggregates(reopened.index()),
        aggregates(&whole)
    );
    prop_assert_eq!(&reopened.all(eng.store()).unwrap(), &history);
    prop_assert_eq!(&eng.awareness().all(eng.store()).unwrap(), &history);
    // O(tail): a commit that leaves `rollup_every` events or more
    // unsummarized writes a summary, so the tail is always shorter.
    prop_assert_eq!(
        reopened.open_scanned(),
        history.len() as u64 - reopened.index().summarized()
    );
    prop_assert!(
        reopened.open_scanned() < rollup_every,
        "scanned {} events at cadence {rollup_every}",
        reopened.open_scanned()
    );
    // One writer: the stream, its summary, and nothing under `ev/`.
    prop_assert!(eng
        .store()
        .scan_prefix(Space::History, "ev/")
        .unwrap()
        .is_empty());
    prop_assert_eq!(
        eng.store()
            .get(Space::History, "summary")
            .unwrap()
            .is_some(),
        history.len() as u64 >= rollup_every
    );
    Ok(())
}

/// A store as an earlier engine left it: beside every `sev/` record an
/// `ev/` twin, and a `rollup` whose `base` counts `ev/` sequence numbers.
/// The twins and the rollup are written here through the frozen `ev/`
/// writer, byte for byte what that engine wrote, over what a crash at
/// each frame boundary of the fourth round's append left.  The recovery's
/// open upgrades it: the twins and the rollup are gone, the stream and
/// its digest are what they were, and each event is counted once.
fn a_store_the_previous_engine_wrote_recovers_with_each_event_counted_once(
    policy: Option<TieredPolicy>,
) {
    let workload: Vec<(usize, i64)> = (0..9).map(|i| (i % 3, 10 + i as i64)).collect();
    let cfg = ShardConfig {
        shards: 4,
        threads: 2,
        ..ShardConfig::default()
    };
    let crash = |disk: &MemDisk, plan| {
        let mut eng = engine_on(Store::open_with(disk.clone(), policy).unwrap(), cfg.clone());
        // The previous engine wrote no stream summary.
        eng.set_rollup_every(u64::MAX);
        submit_workload(&mut eng, &workload);
        for _ in 0..3 {
            eng.step_round().unwrap();
        }
        disk.set_fault_plan(Some(plan));
        assert!(eng.step_round().is_err());
    };
    common::tears::tear_at_each_frame(crash, |disk, (), _| {
        previous_engine_image_upgrades(disk, policy, cfg.clone())
    });
}

/// Write the `ev/` twins and their `rollup` of what `disk`'s stream holds
/// beside it, then recover and run it to the end.
fn previous_engine_image_upgrades(disk: &MemDisk, policy: Option<TieredPolicy>, cfg: ShardConfig) {
    let mut store = Store::open_with(disk.clone(), policy).unwrap();
    let before_crash = as_history(&history::persisted_events(&store).unwrap());
    let stream = store.scan_prefix(Space::History, "sev/").unwrap();

    let mut twins = Store::open(MemDisk::new()).unwrap();
    let mut writer = EvWriter::new();
    writer.set_every(4);
    for chunk in before_crash.chunks(5) {
        for ev in chunk {
            writer.record(ev.at, ev.kind.clone());
        }
        writer.flush(&mut twins);
    }
    let legacy = twins.scan_prefix(Space::History, "").unwrap();
    assert_eq!(
        legacy.len(),
        before_crash.len() + 1,
        "the twins and a rollup"
    );
    assert!(store.get(Space::History, "summary").unwrap().is_none());
    for (key, bytes) in &legacy {
        assert!(key.starts_with("ev/") || key == "rollup", "{key}");
        store
            .put(Space::History, key.clone(), bytes.clone())
            .unwrap();
    }
    drop(store);

    let mut eng = ShardEngine::recover(
        Store::open_with(disk.clone(), policy).unwrap(),
        library(),
        cfg,
    )
    .unwrap();
    // Right after the recovery: the stream as it was, and nothing else of
    // the old layout.
    let now = eng.store().scan_prefix(Space::History, "sev/").unwrap();
    assert_eq!(now[..stream.len()], stream[..], "the stream moved");
    assert!(eng
        .store()
        .scan_prefix(Space::History, "ev/")
        .unwrap()
        .is_empty());
    assert!(eng.store().get(Space::History, "rollup").unwrap().is_none());
    assert_eq!(lifetime(&eng), refold(&eng.persisted_events().unwrap()));
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
}

/// A store whose summary carries no digest — an earlier engine's — gains
/// it when the recovery opens the store: the stream is refolded up to the
/// summary once, and the record is rewritten byte for byte as this engine
/// writes it.  And the other way about: the earlier reader reads this
/// engine's summary.
fn a_summary_without_a_digest_recovers_by_full_refold_and_gains_one(policy: Option<TieredPolicy>) {
    let workload: Vec<(usize, i64)> = (0..9).map(|i| (i % 3, 10 + i as i64)).collect();
    let cfg = ShardConfig {
        shards: 3,
        threads: 2,
        ..ShardConfig::default()
    };
    let disk = MemDisk::new();
    let mut eng = engine_on(Store::open_with(disk.clone(), policy).unwrap(), cfg.clone());
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
    let mut store = Store::open_with(disk.clone(), policy).unwrap();
    store
        .put(Space::History, "summary", old_shape.clone())
        .unwrap();
    drop(store);
    let mut eng =
        ShardEngine::recover(Store::open_with(disk, policy).unwrap(), library(), cfg).unwrap();
    let persisted = eng.persisted_events().unwrap();
    assert!(persisted.iter().any(|e| e.round < before.next_round));
    assert_eq!(lifetime(&eng), refold(&persisted));
    // The recovery's own commit was under the cadence: the record is the
    // one the upgrade wrote, which is the one this engine had written.
    assert_eq!(summary(eng.store()), stored);
    eng.set_rollup_every(6);
    assert!(eng.run_to_completion().unwrap().is_completed());
    assert!(summary(eng.store()).contains(",\"digest\":"));
    assert_eq!(lifetime(&eng), refold(&eng.persisted_events().unwrap()));
}

/// The digests are compared between configurations everywhere else, so a
/// change that moved all of them together would pass.  These are what the
/// commit before the history became one stream recorded for this
/// workload (`8678b3d`, 1×1 and 4×4) — on either store policy.
fn the_crash_free_history_digest_is_pinned(policy: Option<TieredPolicy>) {
    let workload: Vec<(usize, i64)> = vec![(0, 5), (1, 2), (2, 9), (0, 11), (2, 3)];
    let (history, state, counts) = run_workload(&workload, 3, 2, None, policy);
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

/// Crash inside a round's append with a frame-aligned prefix of it on
/// disk, recover, and require every root to converge to the untiered
/// crash-free oracle's terminal status and whiteboard.
fn recovery_after_partial_commit_converges_to_oracle_outputs(policy: Option<TieredPolicy>) {
    let workload: Vec<(usize, i64)> = (0..9).map(|i| (i % 3, 10 + i as i64)).collect();

    // Crash-free oracle.
    let mut oracle = build_engine(1, 1, None, None);
    let oracle_ids = submit_workload(&mut oracle, &workload);
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

    // Crash at every frame boundary of the early rounds' appends.
    let cfg = ShardConfig {
        shards: 4,
        threads: 1,
        ..ShardConfig::default()
    };
    for crash_round in 0..4u64 {
        let crash = |disk: &MemDisk, plan| {
            let mut eng = engine_on(Store::open_with(disk.clone(), policy).unwrap(), cfg.clone());
            let ids = submit_workload(&mut eng, &workload);
            for _ in 0..crash_round {
                eng.step_round().unwrap();
            }
            disk.set_fault_plan(Some(plan));
            assert!(eng.step_round().is_err());
            ids
        };
        common::tears::tear_at_each_frame(crash, |disk, ids, kept| {
            let store = Store::open_with(disk.clone(), policy).unwrap();
            let mut eng = ShardEngine::recover(store, library(), cfg.clone()).unwrap();
            let at = format!("round {crash_round}, {kept} bytes kept");
            eng.run_to_completion()
                .unwrap_or_else(|e| panic!("{at}: stuck after recovery: {e}"));
            for (id, (want_status, want_wb)) in ids.iter().zip(&expected) {
                assert_eq!(
                    eng.instance_status(*id),
                    Some(*want_status),
                    "{at}: root {id} status"
                );
                assert_eq!(
                    eng.instance_whiteboard(*id),
                    Some(want_wb),
                    "{at}: root {id} whiteboard"
                );
            }
        });
    }
}

/// The untiered serial single-shard config (1 shard, 1 thread, pinned by
/// hand) is the reference semantics: a 4x4 config on either store policy
/// must agree with it on the same workload.
fn single_shard_config_is_the_reference_semantics(policy: Option<TieredPolicy>) {
    let workload: Vec<(usize, i64)> = vec![(0, 5), (1, 2), (2, 9), (0, 11), (2, 3)];
    let a = run_workload(&workload, 1, 1, None, None);
    let b = run_workload(&workload, 4, 4, None, policy);
    assert_eq!(a, b);
}

common::on_each_policy!(
    a_store_the_previous_engine_wrote_recovers_with_each_event_counted_once,
    a_summary_without_a_digest_recovers_by_full_refold_and_gains_one,
    the_crash_free_history_digest_is_pinned,
    recovery_after_partial_commit_converges_to_oracle_outputs,
    single_shard_config_is_the_reference_semantics,
);

/// Every file of `disk`, name and bytes, folded into `hash` (FNV-1a).
fn fold_files(mut hash: u64, disk: &MemDisk) -> u64 {
    for name in disk.list().unwrap() {
        let bytes = disk.read(&name).unwrap().unwrap_or_default();
        for b in name.as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x1_0000_01b3);
        }
    }
    hash
}

/// On a store with no memtable budget a round is one disk mutation, the
/// one append of its frames, and those frames are the ones the engine
/// wrote when every shard's batches were an append of their own: every
/// file of a 4-shard chain run after every round, folded together, gives
/// the digest that engine's image gave.
#[test]
fn a_round_is_one_append_and_the_untiered_image_did_not_move() {
    let disk = MemDisk::new();
    let mut eng = common::chain_engine_on(Store::open(disk.clone()).unwrap());
    for x in 0..48 {
        let initial = BTreeMap::from([("x".to_string(), Value::Int(x))]);
        eng.submit("Chain", initial).unwrap();
    }
    let mut image = common::ev_writer::FNV_OFFSET;
    loop {
        let before = disk.mutation_count();
        if !eng.step_round().unwrap() {
            break;
        }
        let round = eng.round();
        assert_eq!(disk.mutation_count() - before, 1, "round {round}");
        image = fold_files(image, &disk);
    }
    assert_eq!(eng.stats().completed, 48);
    assert_eq!(image, 0xd247_77a7_c9bc_e5c5, "{image:#018x}");
}

/// A recovery — the records it deletes, the task records it rewrites,
/// its history — is one append beyond what the store's open wrote,
/// wherever between rounds the server died (a root parked, or parking).
#[test]
fn a_recovery_is_one_append() {
    let workload: Vec<(usize, i64)> = (0..12).map(|i| (i % 3, i as i64)).collect();
    for crash in 0..6 {
        let disk = MemDisk::new();
        let mut eng = engine_on(Store::open(disk.clone()).unwrap(), common::chain_config());
        let ids = submit_workload(&mut eng, &workload);
        for _ in 0..crash {
            eng.step_round().unwrap();
            eng.suspend(ids[crash]).unwrap();
        }
        drop(eng);
        let store = Store::open(disk.clone()).unwrap();
        let opened = disk.mutation_count();
        let eng = ShardEngine::recover(store, library(), common::chain_config()).unwrap();
        let report = eng.recovery_report().unwrap();
        assert_eq!(
            disk.mutation_count() - opened,
            1,
            "crash at round {crash}: {report:?}"
        );
    }
}
