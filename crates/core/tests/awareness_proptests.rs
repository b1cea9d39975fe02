//! Property tests for the awareness model (§3.4) over stores earlier
//! engines wrote, through the open-time upgrade that rewrites them into
//! the one layout the readers know.
//!
//! Those stores are written here by the frozen writers of
//! `common/ev_writer.rs`, which fold what they wrote themselves.  For any
//! event sequence — typed and pre-taxonomy string records, any
//! interleaving of flushes and lost writes, keys crossing from ten digits
//! to twenty, with or without a stream continuing the history — a driver
//! opening the store answers what that fold says: the index's aggregates,
//! `all()`, and an O(tail) reopen's aggregates; the old events are round 0
//! of the stream, and the digest is a refold of it.  A second open writes
//! nothing.  Alongside: foreign keys, corrupt values and retired rounds
//! fail the open and write nothing, and a crash at any mutation of the
//! upgrade converges to the same answers.

mod common;

use bioopera_cluster::SimTime;
use bioopera_core::history;
use bioopera_core::shard::{ShardConfig, ShardEngine, ShardEvent};
use bioopera_core::{
    Awareness, AwarenessError, AwarenessIndex, Driver, EngineError, EngineResult, EventKind,
    HistoryEvent,
};
use bioopera_store::{Batch, CrashEffect, FaultPlan, MemDisk, Space, Store, TieredPolicy};
use common::ev_writer::{Continuation, EvWriter, SummaryBeforeDigest};
use common::{engine_on, library, refold, submit_workload};
use proptest::prelude::*;

/// One scripted step against the `ev/` writer.
#[derive(Debug, Clone)]
enum Op {
    Record(EventKind),
    /// A pre-taxonomy string record: a label and, but for the oldest, a
    /// detail.
    Legacy(&'static str, Option<&'static str>),
    Flush,
    /// The writing runtime crashed: what it had not flushed is lost.
    Reopen,
    /// The writer went from ten-digit keys to twenty.
    Widen,
}

fn kind_strategy() -> impl Strategy<Value = EventKind> {
    let instance = 0u64..4;
    let path = prop::sample::select(vec!["A", "B", "C", "Fan[0]"]);
    let node = prop::sample::select(vec!["n1", "n2", "n3"]);
    prop_oneof![
        (
            instance.clone(),
            path.clone(),
            node.clone(),
            0u64..8,
            0u64..2_000
        )
            .prop_map(
                |(instance, path, node, job, queue_ms)| EventKind::TaskStart {
                    instance,
                    path: path.into(),
                    node: node.into(),
                    job,
                    queue_ms,
                }
            ),
        (instance.clone(), path.clone(), node.clone(), 0u64..10_000).prop_map(
            |(instance, path, node, run_ms)| EventKind::TaskEnd {
                instance,
                path: path.into(),
                node: node.into(),
                run_ms,
                cpu_ms: run_ms as f64,
            }
        ),
        (instance.clone(), path.clone()).prop_map(|(instance, path)| EventKind::TaskFail {
            instance,
            path: path.into(),
            error: "exit 1".into(),
        }),
        (instance.clone(), path.clone()).prop_map(|(instance, path)| {
            EventKind::TaskSystemFail {
                instance,
                path: path.into(),
                reason: "node crash".into(),
            }
        }),
        (instance.clone(), path).prop_map(|(instance, path)| EventKind::TaskNonReport {
            instance,
            path: path.into(),
        }),
        (instance.clone(), prop::sample::select(vec!["P", "Q"])).prop_map(
            |(instance, template)| EventKind::InstanceStart {
                instance,
                template: template.into(),
            }
        ),
        instance
            .clone()
            .prop_map(|instance| EventKind::InstanceComplete { instance }),
        instance
            .clone()
            .prop_map(|instance| EventKind::InstanceAbort { instance }),
        (instance, 0u64..4)
            .prop_map(|(instance, requeued)| EventKind::InstanceRestart { instance, requeued }),
        node.clone()
            .prop_map(|node| EventKind::NodeCrash { node: node.into() }),
        node.clone()
            .prop_map(|node| EventKind::NodeRecover { node: node.into() }),
        (node, 0u32..32).prop_map(|(node, cpus)| EventKind::NodeLoad {
            node: node.into(),
            cpus: cpus as f64,
        }),
        (0u64..6).prop_map(|requeued| EventKind::ServerRecover { requeued }),
        Just(EventKind::ClusterFailure),
        Just(EventKind::ClusterRecover),
        // A typed `Legacy` record, as the upgrade writes a string one: a
        // different shape from `Op::Legacy`'s.
        (
            prop::sample::select(vec!["load", "old"]),
            prop::sample::select(vec!["x", ""])
        )
            .prop_map(|(kind, detail)| EventKind::Legacy {
                kind: kind.into(),
                detail: detail.into(),
            }),
        (1u64..4).prop_map(|spills| EventKind::StoreSpill {
            spills,
            runs: spills + 1,
            bloom_skips: 10 * spills,
            cache_hits: spills,
            cache_misses: 1,
        }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => kind_strategy().prop_map(Op::Record),
        1 => (
            prop::sample::select(vec!["task.end", "load", "old"]),
            prop::sample::select(vec![None, Some("A on n1"), Some("")]),
        )
            .prop_map(|(label, detail)| Op::Legacy(label, detail)),
        1 => Just(Op::Flush),
        1 => Just(Op::Reopen),
        1 => Just(Op::Widen),
    ]
}

/// Every aggregate an index answers from; a tail-opened index holds the
/// log and postings of the tail only.
fn aggregates(index: &AwarenessIndex) -> String {
    format!(
        "{:?}",
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
    )
}

/// Open `disk` through a driver: a sharded engine, which writes nothing
/// at open but what the upgrade writes.
fn open(disk: &MemDisk, policy: Option<TieredPolicy>) -> EngineResult<ShardEngine<MemDisk>> {
    let store = Store::open_with(disk.clone(), policy)?;
    ShardEngine::new(store, library(), ShardConfig::default())
}

/// What an opened engine says of its history.
#[derive(Debug, PartialEq)]
struct Answers {
    digest: u64,
    stream: Vec<ShardEvent>,
    aggregates: String,
    tail_aggregates: String,
    all: Vec<HistoryEvent>,
    ends: Vec<HistoryEvent>,
}

fn answers(eng: &impl Driver) -> Answers {
    let aw = eng.awareness();
    Answers {
        digest: eng.history_digest(),
        stream: eng.persisted_events().unwrap(),
        aggregates: aggregates(aw.index()),
        tail_aggregates: aggregates(Awareness::open_tail(eng.store()).unwrap().index()),
        all: aw.all(eng.store()).unwrap(),
        ends: aw.of_kind(eng.store(), "task.end").unwrap(),
    }
}

/// Open the store on `disk` through a driver, and hold what it says to
/// the frozen writers' `stream` and its fold `index`: the stream is the
/// one persisted, the digest refolds it, the aggregates and `all()` are
/// the fold's, nothing of the old layout is left, and a second open
/// writes nothing and answers the same.
fn upgraded(
    disk: &MemDisk,
    policy: Option<TieredPolicy>,
    stream: &[ShardEvent],
    index: &AwarenessIndex,
) -> Answers {
    let eng = open(disk, policy).unwrap();
    let said = answers(&eng);
    assert_eq!(said.stream, stream, "the stream");
    assert_eq!(
        said.digest,
        refold(stream).0,
        "the digest refolds the stream"
    );
    assert_eq!(said.aggregates, aggregates(index), "the aggregates");
    assert_eq!(said.tail_aggregates, aggregates(index), "an O(tail) reopen");
    assert_eq!(said.all, index.events(), "all()");
    let store = eng.store();
    assert!(store.scan_prefix(Space::History, "ev/").unwrap().is_empty());
    assert!(store.get(Space::History, "rollup").unwrap().is_none());
    drop(eng);
    let writes = disk.mutation_count();
    let again = open(disk, policy).unwrap();
    assert_eq!(disk.mutation_count(), writes, "a second open wrote");
    assert_eq!(answers(&again), said);
    said
}

/// The stream the upgrade makes of `ev` continued by `cont`: the `ev/`
/// events as round 0, then every round of the continuation one later —
/// or, with no `ev/` history, the continuation as it is.
fn rewritten(ev: &EvWriter, cont: &Continuation) -> Vec<ShardEvent> {
    if ev.events().is_empty() {
        return cont.stream().to_vec();
    }
    let shifted = cont.stream().iter().map(|e| ShardEvent {
        round: e.round + 1,
        ..e.clone()
    });
    ev.as_round_zero().into_iter().chain(shifted).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any event sequence with arbitrary flush/lost-write
    /// interleavings and rollup cadence, keys of both widths, and any
    /// stream a later runtime continued it with, a driver opening the
    /// store answers what the writers' fold says.
    #[test]
    fn an_ev_history_upgrades_to_the_fold_of_what_was_written(
        ops in prop::collection::vec(op_strategy(), 1..60),
        every in 1u64..16,
        narrow in any::<bool>(),
        rounds in prop::collection::vec(prop::collection::vec(kind_strategy(), 1..5), 0..4),
        cadence in 1u64..8,
        policy in common::policy(),
    ) {
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), policy).unwrap();
        // Keys that cross 10^10 come from a writer with that many events
        // behind it, whose rollups never fall due in a test.
        let mut writer = if narrow {
            EvWriter::starting_at(9_999_999_995, 10)
        } else {
            let mut writer = EvWriter::new();
            writer.set_every(every);
            writer
        };
        let mut clock = 0u64;
        for op in &ops {
            clock += 1_000;
            let at = SimTime::from_millis(clock);
            match op {
                Op::Record(kind) => writer.record(at, kind.clone()),
                Op::Legacy(label, detail) => writer.record_legacy(at, label, *detail),
                Op::Flush => writer.flush(&mut store),
                Op::Reopen => writer.reopen(),
                Op::Widen => writer.widen(),
            }
        }
        writer.flush(&mut store);
        let mut cont = Continuation::new(&writer, cadence);
        for round in &rounds {
            let events: Vec<_> = round
                .iter()
                .map(|kind| {
                    clock += 1_000;
                    (SimTime::from_millis(clock), kind.clone())
                })
                .collect();
            cont.commit(&mut store, &events);
        }
        drop(store);
        upgraded(&disk, policy, &rewritten(&writer, &cont), cont.index());
    }
}

/// A fresh store on `disk` holding the `ev/` history of the fixed tests —
/// typed and string records over three flushes, a rollup at every fourth
/// event — continued by `rounds` rounds of a later runtime's stream at
/// cadence 4.
fn ev_store(disk: &MemDisk, policy: Option<TieredPolicy>, rounds: u64) -> (EvWriter, Continuation) {
    let mut store = Store::open_with(disk.clone(), policy).unwrap();
    let mut writer = EvWriter::new();
    writer.set_every(4);
    for i in 0..14u64 {
        let at = SimTime::from_secs(i);
        match i % 4 {
            0 => writer.record_legacy(at, "task.end", Some("A on n1")),
            1 => writer.record(at, EventKind::NodeCrash { node: "n2".into() }),
            2 => writer.record(
                at,
                EventKind::TaskEnd {
                    instance: i,
                    path: "A".into(),
                    node: "n1".into(),
                    run_ms: 10 * i,
                    cpu_ms: i as f64,
                },
            ),
            _ => writer.record(at, EventKind::NodeRecover { node: "n2".into() }),
        }
        if i % 5 == 4 {
            writer.flush(&mut store);
        }
    }
    writer.flush(&mut store);
    let mut cont = Continuation::new(&writer, 4);
    for r in 0..rounds {
        let at = SimTime::from_secs(100 + r);
        cont.commit(
            &mut store,
            &[
                (at, EventKind::ClusterFailure),
                (at, EventKind::ClusterUpgrade { cpus: r as u32 }),
            ],
        );
    }
    (writer, cont)
}

/// The images of the History space earlier engines left.
#[derive(Debug, Clone, Copy)]
enum Image {
    /// The sharded engine's stream with a summary that has no digest.
    SummaryWithoutDigest,
    /// The sharded engine's stream with an `ev/` twin of every event and a
    /// `rollup` counting them, and no summary.
    Twins,
    /// Those twins, after a later sharded engine continued the stream and
    /// wrote a summary counting the stream alone: with its digest, or
    /// (`digest: false`) from before the summary carried one.
    TwinsSummarized { digest: bool },
    /// The serial runtime's `ev/` history and its `rollup`.
    EvHistory,
    /// That history, continued by a later runtime's stream.
    EvContinued,
}

const IMAGES: [Image; 6] = [
    Image::SummaryWithoutDigest,
    Image::Twins,
    Image::TwinsSummarized { digest: true },
    Image::TwinsSummarized { digest: false },
    Image::EvHistory,
    Image::EvContinued,
];

/// `image` on a fresh disk under `policy`.
fn image(image: Image, policy: Option<TieredPolicy>) -> MemDisk {
    let disk = MemDisk::new();
    let (twins, summarized, digestless) = match image {
        Image::SummaryWithoutDigest => (false, true, true),
        Image::Twins => (true, false, false),
        Image::TwinsSummarized { digest } => (true, true, !digest),
        Image::EvHistory | Image::EvContinued => {
            let rounds = if matches!(image, Image::EvHistory) {
                0
            } else {
                3
            };
            drop(ev_store(&disk, policy, rounds));
            return disk;
        }
    };
    let store = Store::open_with(disk.clone(), policy).unwrap();
    let cfg = ShardConfig {
        shards: 2,
        ..ShardConfig::default()
    };
    let mut eng = engine_on(store, cfg);
    eng.set_rollup_every(if twins { u64::MAX } else { 5 });
    submit_workload(&mut eng, &[(0, 5), (1, 2), (2, 9)]);
    for _ in 0..4 {
        eng.step_round().unwrap();
    }
    // The twins of these rounds.  They share no key with what the engine
    // writes, so they go in once it is done.
    let mut writer = EvWriter::new();
    writer.set_every(4);
    if twins {
        for e in eng.persisted_events().unwrap() {
            writer.record(e.time(), e.kind);
        }
    }
    if twins && summarized {
        // A later engine, which writes no twins, goes on.
        eng.set_rollup_every(3);
        for _ in 0..4 {
            eng.step_round().unwrap();
        }
    }
    drop(eng);
    let mut store = Store::open_with(disk.clone(), policy).unwrap();
    writer.flush(&mut store);
    let summary = store.get(Space::History, "summary").unwrap();
    assert_eq!(summary.is_some(), summarized, "{image:?}");
    if digestless {
        let before: SummaryBeforeDigest = serde_json::from_slice(&summary.unwrap()).unwrap();
        let old = serde_json::to_vec(&before).unwrap();
        store.put(Space::History, "summary", old).unwrap();
    }
    drop(store);
    disk
}

/// Each image upgrades once, keeps (for the sharded engine's) its stream
/// byte for byte, and answers what its writers' fold says.
fn every_image_upgrades_to_one_layout(policy: Option<TieredPolicy>) {
    for &kind in &IMAGES[..4] {
        let disk = image(kind, policy);
        let store = Store::open_with(disk.clone(), policy).unwrap();
        let before = store.scan_prefix(Space::History, "sev/").unwrap();
        let summary_before = store.get(Space::History, "summary").unwrap();
        let stream = history::persisted_events(&store).unwrap();
        drop(store);
        let mut index = AwarenessIndex::default();
        for e in &stream {
            index.ingest(&HistoryEvent {
                at: e.time(),
                kind: e.kind.clone(),
            });
        }
        upgraded(&disk, policy, &stream, &index);
        let store = Store::open_with(disk, policy).unwrap();
        assert_eq!(store.scan_prefix(Space::History, "sev/").unwrap(), before);
        let summary = store.get(Space::History, "summary").unwrap();
        if let Image::Twins | Image::TwinsSummarized { digest: true } = kind {
            assert_eq!(summary, summary_before, "{kind:?}: the summary is kept");
        }
        assert!(
            summary.is_none_or(|s| String::from_utf8_lossy(&s).contains(",\"digest\":")),
            "{kind:?}"
        );
    }
    for rounds in [0, 3] {
        let disk = MemDisk::new();
        let (ev, cont) = ev_store(&disk, policy, rounds);
        let said = upgraded(&disk, policy, &rewritten(&ev, &cont), cont.index());
        assert_eq!(said.ends.len(), 7, "typed and string task ends alike");
    }
}

/// The upgrade is one batch: a crash at any disk mutation of an open that
/// upgrades — dropping it, tearing it or landing it unacknowledged —
/// leaves a store whose next open converges to what a crash-free upgrade
/// answers.
fn a_crash_at_any_mutation_of_the_upgrade_converges(policy: Option<TieredPolicy>) {
    let effects = [
        CrashEffect::Drop,
        CrashEffect::Torn { keep: 17 },
        CrashEffect::AfterApply,
    ];
    for kind in IMAGES {
        let reference = answers(&open(&image(kind, policy), policy).unwrap());
        for effect in effects {
            for at in 0.. {
                let disk = image(kind, policy);
                disk.set_fault_plan(Some(FaultPlan::at_mutation(at, effect)));
                let crashed = open(&disk, policy);
                if !disk.has_crashed() {
                    crashed.unwrap();
                    assert!(at > 0, "{kind:?}: the open wrote nothing");
                    break;
                }
                drop(crashed);
                disk.reboot();
                let eng = open(&disk, policy).unwrap();
                assert_eq!(
                    answers(&eng),
                    reference,
                    "{kind:?}: crash {effect:?} at mutation {at}"
                );
            }
        }
    }
}

/// A key under `ev/` that is no sequence number fails the open, named,
/// even when its value would not decode either; and the open writes
/// nothing.
#[test]
fn a_foreign_key_fails_the_open_and_writes_nothing() {
    let disk = MemDisk::new();
    let mut store = Store::open(disk.clone()).unwrap();
    store
        .put(
            Space::History,
            "ev/snapshot-2001",
            &b"not an event at all"[..],
        )
        .unwrap();
    drop(store);
    let writes = disk.mutation_count();
    match open(&disk, None) {
        Err(EngineError::Awareness(AwarenessError::BadKey { key })) => {
            assert_eq!(key, "snapshot-2001")
        }
        Err(other) => panic!("expected BadKey, got {other}"),
        Ok(_) => panic!("expected BadKey, got an engine"),
    }
    assert_eq!(disk.mutation_count(), writes);
}

/// A value under a valid `ev/` key that does not decode is a codec error,
/// and the open writes nothing.
#[test]
fn a_corrupt_record_fails_the_open_and_writes_nothing() {
    let disk = MemDisk::new();
    let mut store = Store::open(disk.clone()).unwrap();
    store
        .put(Space::History, "ev/0000000000", &b"{\"at\":"[..])
        .unwrap();
    drop(store);
    let writes = disk.mutation_count();
    match open(&disk, None) {
        Err(EngineError::Store(e)) => {
            let said = e.to_string();
            assert!(
                said.contains("codec") && said.contains("ev/0000000000"),
                "{said}"
            )
        }
        Err(other) => panic!("expected a codec error, got {other}"),
        Ok(_) => panic!("expected a codec error, got an engine"),
    }
    assert_eq!(disk.mutation_count(), writes);
}

/// A stream over `ev/` history whose early rounds were retired cannot be
/// refolded: the upgrade refuses it, named, and writes nothing.  Deleting
/// `ev/` and `rollup` by hand (DESIGN.md, "Older images are upgraded at
/// open") makes it a current image whose summary still counts them.
#[test]
fn a_continued_history_with_retired_rounds_is_refused() {
    let disk = MemDisk::new();
    let (_, cont) = ev_store(&disk, None, 3);
    let mut store = Store::open(disk.clone()).unwrap();
    let retired = store
        .retain_below(Space::History, "sev/", "sev/00000001/")
        .unwrap();
    assert_eq!(retired, 2);
    drop(store);
    let writes = disk.mutation_count();
    match open(&disk, None) {
        Err(EngineError::Awareness(AwarenessError::RetiredStream)) => {}
        Err(other) => panic!("expected RetiredStream, got {other}"),
        Ok(_) => panic!("expected RetiredStream, got an engine"),
    }
    assert_eq!(disk.mutation_count(), writes);
    let mut store = Store::open(disk.clone()).unwrap();
    let mut batch = Batch::new();
    for (key, _) in store.scan_prefix(Space::History, "ev/").unwrap() {
        batch.delete(Space::History, key);
    }
    batch.delete(Space::History, "rollup");
    store.apply(batch).unwrap();
    drop(store);
    let eng = open(&disk, None).unwrap();
    assert_eq!(
        aggregates(eng.awareness().index()),
        aggregates(cont.index())
    );
    assert_eq!(eng.history_digest(), refold(cont.stream()).0);
}

common::on_each_policy!(
    every_image_upgrades_to_one_layout,
    a_crash_at_any_mutation_of_the_upgrade_converges,
);
