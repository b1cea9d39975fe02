//! Property tests for the awareness model's reader (§3.4) over the `ev/`
//! layout, which the serial runtime wrote before it joined the `sev/`
//! stream and which stores of that age still hold.
//!
//! Those stores are written here by the frozen `ev/` writer
//! (`common/ev_writer.rs`).  For any event sequence and any interleaving
//! of flushes and reopens, the full-scan open equals a fold of what was
//! written, and the O(tail) open from the `rollup` answers every aggregate
//! query the same.  Alongside: reopen semantics around foreign keys,
//! corrupt values, and the 10-digit → 20-digit key-padding crossover.

mod common;

use bioopera_cluster::SimTime;
use bioopera_core::{Awareness, AwarenessError, AwarenessIndex, EventKind};
use bioopera_store::{MemDisk, Space, Store};
use common::ev_writer::EvWriter;
use proptest::prelude::*;

/// One scripted step against the `ev/` writer.
#[derive(Debug, Clone)]
enum Op {
    Record(EventKind),
    Flush,
    Reopen,
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
        (
            prop::sample::select(vec!["load", "old"]),
            prop::sample::select(vec!["x", ""])
        )
            .prop_map(|(kind, detail)| EventKind::Legacy {
                kind: kind.into(),
                detail: detail.into(),
            }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => kind_strategy().prop_map(Op::Record),
        1 => Just(Op::Flush),
        1 => Just(Op::Reopen),
    ]
}

/// Every aggregate an index answers from; a tail-opened index holds the
/// log and postings of the tail only.
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

fn task_end(path: &str, node: &str, run_ms: u64) -> EventKind {
    EventKind::TaskEnd {
        instance: 7,
        path: path.into(),
        node: node.into(),
        run_ms,
        cpu_ms: run_ms as f64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any event sequence with arbitrary flush/reopen interleavings
    /// and rollup cadence, the full-scan open equals the writer's fold of
    /// what it flushed, the full-scan rebuild agrees, and the open from
    /// the rollup answers every aggregate and every event the same.
    #[test]
    fn the_ev_reader_matches_a_fold_of_what_was_written(
        ops in prop::collection::vec(op_strategy(), 1..60),
        every in 1u64..16,
    ) {
        let disk = MemDisk::new();
        let store = Store::open(disk).unwrap();
        let mut writer = EvWriter::open(&store);
        writer.set_every(every);
        let mut clock = 0u64;
        for op in &ops {
            match op {
                Op::Record(kind) => {
                    clock += 1_000;
                    writer.record(SimTime::from_millis(clock), kind.clone());
                }
                Op::Flush => writer.flush(&store),
                Op::Reopen => {
                    // Unflushed records are lost on reopen (that is the
                    // crash-atomicity contract).
                    writer = EvWriter::open(&store);
                    writer.set_every(every);
                }
            }
        }
        writer.flush(&store);
        let exact = Awareness::open(&store).unwrap();
        prop_assert_eq!(exact.index(), writer.index());
        prop_assert_eq!(&exact.rebuild_index(&store).unwrap(), exact.index());
        let tail = Awareness::open_tail(&store).unwrap();
        prop_assert!(aggregates(tail.index()) == aggregates(exact.index()),
            "tail {:?}\nexact {:?}", aggregates(tail.index()), aggregates(exact.index()));
        prop_assert_eq!(tail.all(&store).unwrap(), exact.all(&store).unwrap());
        prop_assert_eq!(
            tail.open_scanned(),
            exact.index().len() as u64 - tail.index().summarized()
        );
    }

    /// Sequences that cross the old 10-digit padding width keep numeric
    /// ordering and never reset: seed the log with legacy-width keys near
    /// the 10^10 boundary, then append — new 20-digit keys sort *before*
    /// the legacy ones lexicographically, and the reader must not care.
    #[test]
    fn padding_width_crossing_keeps_order_and_sequence(extra in 1usize..12) {
        let disk = MemDisk::new();
        let store = Store::open(disk).unwrap();
        // Two legacy records at the top of the 10-digit key range, written
        // byte-for-byte as the pre-taxonomy code would have.
        for (i, seq) in [9_999_999_998u64, 9_999_999_999].iter().enumerate() {
            let body = format!(
                r#"{{"at":[{}],"kind":"task.end","detail":"legacy {}"}}"#,
                (i as u64 + 1) * 1_000,
                i
            );
            store
                .put(Space::History, format!("ev/{seq:010}"), body.into_bytes())
                .unwrap();
        }
        prop_assert_eq!(Awareness::open(&store).unwrap().index().len(), 2);
        let mut writer = EvWriter::open(&store);
        for k in 0..extra {
            writer.record(
                SimTime::from_secs(10 + k as u64),
                EventKind::NodeLoad { node: "n1".into(), cpus: k as f64 },
            );
        }
        writer.flush(&store);
        let aw = Awareness::open(&store).unwrap();
        let all = aw.all(&store).unwrap();
        prop_assert_eq!(all.len(), 2 + extra);
        // Numeric order == timestamp order, despite mixed key widths.
        for w in all.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
        prop_assert_eq!(aw.index().len(), 2 + extra);
        // The writer continued after 10^10 - 1 + extra, not from 0.
        let mut writer = EvWriter::open(&store);
        writer.record(SimTime::from_secs(100), EventKind::ClusterRecover);
        writer.flush(&store);
        let all = Awareness::open(&store).unwrap().all(&store).unwrap();
        prop_assert_eq!(all.len(), 3 + extra);
        prop_assert_eq!(all.last().unwrap().at, SimTime::from_secs(100));
    }
}

#[test]
fn records_survive_reopen_and_keep_ordering() {
    let store = Store::open(MemDisk::new()).unwrap();
    let mut writer = EvWriter::open(&store);
    writer.record(
        SimTime::from_secs(1),
        EventKind::TaskStart {
            instance: 1,
            path: "A".into(),
            node: "n1".into(),
            job: 0,
            queue_ms: 250,
        },
    );
    writer.record(SimTime::from_secs(2), task_end("A", "n1", 1_000));
    writer.record(
        SimTime::from_secs(3),
        EventKind::NodeCrash { node: "n1".into() },
    );
    writer.flush(&store);
    let mut writer = EvWriter::open(&store);
    writer.record(
        SimTime::from_secs(4),
        EventKind::NodeRecover { node: "n1".into() },
    );
    writer.flush(&store);

    let aw = Awareness::open(&store).unwrap();
    let all = aw.all(&store).unwrap();
    assert_eq!(all.len(), 4);
    assert_eq!(all[0].kind, "task.start");
    assert_eq!(all[3].kind, "node.recover");
    assert_eq!(aw.of_kind(&store, "node.crash").unwrap().len(), 1);
    let counts = aw.counts_by_kind(&store).unwrap();
    assert!(counts.contains(&("task.end".to_string(), 1)));
    // The rebuilt index saw the crash then the recovery.
    assert!(aw.index().nodes_down().is_empty());
    assert_eq!(aw.index().run_ms().count(), 1);
    assert_eq!(aw.index().queue_ms().mean_ms(), 250.0);
}

#[test]
fn legacy_string_records_reopen_and_query() {
    let store = Store::open(MemDisk::new()).unwrap();
    // Bytes exactly as the pre-taxonomy code wrote them: 10-digit keys,
    // free-form kind/detail strings.
    store
        .put(
            Space::History,
            "ev/0000000000".to_string(),
            br#"{"at":[1000],"kind":"task.start","detail":"A on n1"}"#.to_vec(),
        )
        .unwrap();
    store
        .put(
            Space::History,
            "ev/0000000001".to_string(),
            br#"{"at":[2000],"kind":"task.end","detail":"A"}"#.to_vec(),
        )
        .unwrap();
    let aw = Awareness::open(&store).unwrap();
    assert_eq!(aw.index().len(), 2);
    assert_eq!(aw.index().count("task.end"), 1);
    let ends = aw.of_kind(&store, "task.end").unwrap();
    assert_eq!(
        ends[0].kind,
        EventKind::Legacy {
            kind: "task.end".into(),
            detail: "A".into()
        }
    );
    // Typed records continue after the legacy tail, and ordering stays
    // numeric even though 20-digit keys sort before 10-digit ones.
    let mut writer = EvWriter::open(&store);
    writer.record(SimTime::from_secs(3), task_end("B", "n2", 100));
    writer.flush(&store);
    let aw = Awareness::open(&store).unwrap();
    let all = aw.all(&store).unwrap();
    assert_eq!(all.len(), 3);
    assert_eq!(all[2].kind, "task.end");
    assert_eq!(all[2].kind.task_path(), Some("B"));
    assert_eq!(aw.index().len(), 3);
}

#[test]
fn rollup_makes_reopen_o_tail_with_identical_aggregates() {
    let store = Store::open(MemDisk::new()).unwrap();
    let mut writer = EvWriter::open(&store);
    writer.set_every(16);
    for i in 0..100u64 {
        writer.record(
            SimTime::from_secs(i),
            EventKind::TaskStart {
                instance: i % 3,
                path: "A".into(),
                node: "n1".into(),
                job: i,
                queue_ms: i % 11,
            },
        );
        writer.record(SimTime::from_secs(i), task_end("A", "n1", 5 + i % 7));
        if i % 9 == 0 {
            writer.record(
                SimTime::from_secs(i),
                EventKind::NodeCrash { node: "n2".into() },
            );
        }
        if i % 8 == 7 {
            writer.flush(&store);
        }
    }
    writer.flush(&store);

    let exact = Awareness::open(&store).unwrap();
    let tail = Awareness::open_tail(&store).unwrap();
    assert!(
        tail.index().summarized() > 0,
        "the cadence never wrote a rollup"
    );
    // O(tail): the rollup spared most of the history from being
    // deserialized again.
    assert_eq!(exact.open_scanned(), exact.index().len() as u64);
    assert!(
        tail.open_scanned() < exact.open_scanned() / 2,
        "tail open scanned {} of {} events",
        tail.open_scanned(),
        exact.open_scanned()
    );
    // Every aggregate agrees with the full scan.
    assert!(aggregates(tail.index()) == aggregates(exact.index()));
    // Postings fall back to the store, so full-history queries still
    // answer exactly.
    let all_tail = tail.of_kind(&store, "task.end").unwrap();
    let all_exact = exact.of_kind(&store, "task.end").unwrap();
    assert_eq!(all_tail, all_exact);
    assert_eq!(tail.all(&store).unwrap(), exact.all(&store).unwrap());
}

#[test]
fn legacy_narrow_keys_do_not_double_count_after_rollup() {
    // A store written by the pre-widening engine uses 10-digit keys; those
    // interleave lexicographically with 20-digit keys, so the tail scan
    // must filter by parsed sequence number, not raw key.
    let store = Store::open(MemDisk::new()).unwrap();
    for seq in 0..8u64 {
        let body = format!("{{\"at\":[{seq}],\"kind\":\"old\",\"detail\":\"d{seq}\"}}");
        store
            .put(Space::History, format!("ev/{seq:010}"), body.into_bytes())
            .unwrap();
    }
    let mut writer = EvWriter::open(&store);
    assert_eq!(writer.index().len(), 8);
    writer.set_every(2);
    for i in 0..4u64 {
        writer.record(SimTime::from_secs(i), task_end("A", "n1", 10));
        writer.flush(&store);
    }
    let tail = Awareness::open_tail(&store).unwrap();
    let exact = Awareness::open(&store).unwrap();
    assert!(tail.index().summarized() > 8);
    assert_eq!(tail.index().len(), exact.index().len());
    assert_eq!(
        tail.index().counts_by_kind(),
        exact.index().counts_by_kind()
    );
}

#[test]
fn tier_io_counters_survive_the_rollup_fold() {
    let store = Store::open(MemDisk::new()).unwrap();
    let mut writer = EvWriter::open(&store);
    writer.set_every(4);
    for i in 0..24u64 {
        writer.record(
            SimTime::from_secs(i),
            EventKind::StoreSpill {
                spills: 1,
                runs: i % 5,
                bloom_skips: 2 * i,
                cache_hits: i,
                cache_misses: i / 2,
            },
        );
        if i % 6 == 5 {
            writer.record(
                SimTime::from_secs(i),
                EventKind::StoreCompaction {
                    merges: 1,
                    levels: 2,
                    max_merge_bytes: 100 * i,
                },
            );
        }
        writer.flush(&store);
    }
    writer.record(
        SimTime::from_secs(99),
        EventKind::StoreRetention {
            retired: 12,
            below: "ev/00000000000000000016".into(),
        },
    );
    writer.flush(&store);

    let exact = Awareness::open(&store).unwrap();
    let tail = Awareness::open_tail(&store).unwrap();
    assert!(tail.open_scanned() < exact.open_scanned());
    // The rollup carries the folded tier counters, so the O(tail) open
    // answers identically to the full scan.
    assert_eq!(tail.index().store_io(), exact.index().store_io());
    assert_eq!(exact.index().store_io().get("spills"), Some(&24));
    assert_eq!(exact.index().store_io().get("retired"), Some(&12));
    assert_eq!(exact.index().store_io().get("max_merge_bytes"), Some(&2300));
}

#[test]
fn foreign_key_reports_bad_key_even_with_undecodable_value() {
    let disk = MemDisk::new();
    let store = Store::open(disk).unwrap();
    store
        .put(
            Space::History,
            "ev/snapshot-2001".to_string(),
            b"not an event at all".to_vec(),
        )
        .unwrap();
    match Awareness::open(&store) {
        Err(AwarenessError::BadKey { key }) => assert_eq!(key, "snapshot-2001"),
        Err(other) => panic!("expected BadKey, got {other}"),
        Ok(_) => panic!("expected BadKey, got a working Awareness"),
    }
}

#[test]
fn corrupt_value_under_valid_key_is_a_codec_error() {
    let disk = MemDisk::new();
    let store = Store::open(disk).unwrap();
    store
        .put(
            Space::History,
            "ev/0000000000".to_string(),
            b"{\"at\":".to_vec(),
        )
        .unwrap();
    match Awareness::open(&store) {
        Err(AwarenessError::Store(e)) => {
            assert!(e.to_string().contains("codec"), "unexpected error: {e}")
        }
        Err(other) => panic!("expected a codec error, got {other}"),
        Ok(_) => panic!("expected a codec error, got a working Awareness"),
    }
}

#[test]
fn legacy_store_reopens_and_answers_queries() {
    let disk = MemDisk::new();
    let store = Store::open(disk).unwrap();
    let legacy: [(&str, &[u8]); 3] = [
        (
            "ev/0000000000",
            br#"{"at":[0],"kind":"instance.start","detail":"P#1"}"#,
        ),
        (
            "ev/0000000001",
            br#"{"at":[5000],"kind":"task.start","detail":"A on n1"}"#,
        ),
        (
            "ev/0000000002",
            br#"{"at":[9000],"kind":"task.end","detail":"A"}"#,
        ),
    ];
    for (key, body) in legacy {
        store
            .put(Space::History, key.to_string(), body.to_vec())
            .unwrap();
    }
    let aw = Awareness::open(&store).unwrap();
    assert_eq!(aw.index().len(), 3);
    assert_eq!(aw.index().count("task.end"), 1);
    let starts = aw.of_kind(&store, "instance.start").unwrap();
    assert_eq!(starts.len(), 1);
    assert!(matches!(
        &starts[0].kind,
        EventKind::Legacy { detail, .. } if detail == "P#1"
    ));
    // Legacy events carry no typed fields, so indexed postings skip them —
    // but the full-scan rebuild agrees with the incremental path.
    let rebuilt = aw.rebuild_index(&store).unwrap();
    assert_eq!(&rebuilt, aw.index());
}
