//! A recovery reads every task record of the journal and builds the
//! field maps of none it does not touch.
//!
//! A `FieldMap` read from JSON stays the text it was read from until
//! something reads it (`FieldMap::is_stored`).  After a crash, on both
//! drivers and both store policies, every non-empty input and output
//! structure of an `Ended` record is still that text — the recovery
//! checked it and kept it — and a record written with its kept texts is
//! the record written with its maps built.  The run still ends as the run
//! that never crashed: the same statuses and whiteboards, on the runtime
//! the same field maps in every record, and on the sharded engine — when
//! the crash left no work to redo, so no clock moved — the same state
//! digest, which writes every record it holds, kept texts verbatim.

mod common;

use bioopera_cluster::{Cluster, NodeSpec};
use bioopera_core::shard::ShardEngine;
use bioopera_core::state::{InstanceId, InstanceStatus, TaskState};
use bioopera_core::{RunOutcome, Runtime, RuntimeConfig, TaskRecord};
use bioopera_ocr::value::{FieldMap, Value};
use bioopera_store::{MemDisk, Store, TieredPolicy};
use std::collections::BTreeMap;

/// Of the non-empty field maps of the `Ended` records among `records`:
/// how many are still the text they were read as, and how many are built.
fn ended_field_maps<'a>(records: impl Iterator<Item = &'a TaskRecord>) -> (usize, usize) {
    let (mut stored, mut built) = (0, 0);
    for rec in records.filter(|r| r.state == TaskState::Ended) {
        for map in [&rec.inputs, &rec.outputs] {
            if map.is_stored() {
                stored += 1;
            } else if !map.is_empty() {
                built += 1;
            }
        }
    }
    (stored, built)
}

/// Chains and fans, no subprocess: a recovery re-spawns nothing under a
/// fresh id, so the instances are the crash-free run's.
const WORKLOAD: [(usize, i64); 12] = [
    (0, 1),
    (1, 2),
    (0, 3),
    (1, 4),
    (0, 5),
    (1, 6),
    (0, 7),
    (1, 8),
    (0, 9),
    (1, 10),
    (0, 11),
    (1, 12),
];

/// `rec` written as it is, and with its field maps built afresh.
fn written_both_ways(rec: &TaskRecord) -> (String, String) {
    let kept = serde_json::to_string(rec).unwrap();
    let mut built = rec.clone();
    built.inputs = FieldMap::from(rec.inputs.to_map());
    built.outputs = FieldMap::from(rec.outputs.to_map());
    (kept, serde_json::to_string(&built).unwrap())
}

type Outcome = (
    u64,
    Vec<(InstanceId, InstanceStatus, BTreeMap<String, Value>)>,
);

fn shard_outcome(eng: &ShardEngine<MemDisk>) -> Outcome {
    let mut instances: Vec<_> = eng
        .slots()
        .map(|(_, id, slot)| (id, slot.header.status, slot.header.whiteboard.clone()))
        .collect();
    instances.sort_by_key(|(id, _, _)| *id);
    (eng.state_digest(), instances)
}

fn a_shard_recovery_keeps_ended_field_maps_as_text(policy: Option<TieredPolicy>) {
    let engine = |disk: &MemDisk| {
        let store = Store::open_with(disk.clone(), policy).unwrap();
        let mut eng = common::engine_on(store, common::chain_config());
        common::submit_workload(&mut eng, &WORKLOAD);
        eng
    };
    let mut oracle = engine(&MemDisk::new());
    oracle.run_to_completion().unwrap();
    let (rounds, (digest, instances)) = (oracle.round(), shard_outcome(&oracle));
    let mut kept = 0;
    for crash in 2..=rounds {
        let at = format!("crash after round {crash} of {rounds}");
        let disk = MemDisk::new();
        let mut eng = engine(&disk);
        for _ in 0..crash {
            eng.step_round().unwrap();
        }
        drop(eng);
        let store = Store::open_with(disk.clone(), policy).unwrap();
        let mut eng =
            ShardEngine::recover(store, common::library(), common::chain_config()).unwrap();
        let records = || eng.slots().flat_map(|(_, _, slot)| slot.tasks.values());
        let (stored, built) = ended_field_maps(records().map(|r| &**r));
        assert_eq!(built, 0, "{at}: {stored} kept");
        kept += stored;
        for rec in records() {
            let (kept, built) = written_both_ways(rec);
            assert_eq!(kept, built, "{at}");
        }
        assert!(eng.run_to_completion().unwrap().is_completed(), "{at}");
        let (recovered_digest, recovered) = shard_outcome(&eng);
        assert_eq!(recovered, instances, "{at}");
        if crash == rounds {
            assert_eq!(recovered_digest, digest, "{at}");
        }
    }
    assert!(kept > 0, "no recovery met an ended record");
}

/// A fan per count on two one-CPU nodes; the field maps of every record,
/// the statuses and the whiteboards at the end.
fn runtime_run(policy: Option<TieredPolicy>, crash_after: Option<usize>) -> String {
    let cluster = Cluster::new(
        "two",
        vec![
            NodeSpec::new("n1", 1, 500, "linux"),
            NodeSpec::new("n2", 1, 500, "linux"),
        ],
    );
    let cfg = RuntimeConfig {
        tiered: policy,
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster, common::library(), cfg).unwrap();
    rt.register_template(&common::fan_template()).unwrap();
    for count in [3, 4, 5] {
        let initial = BTreeMap::from([("count".to_string(), Value::Int(count))]);
        rt.submit("Fan", initial).unwrap();
    }
    fn ended(rt: &Runtime<MemDisk>) -> Vec<&TaskRecord> {
        rt.instances()
            .iter()
            .flat_map(|(id, _, _)| rt.task_records(*id).unwrap().values())
            .map(|r| &**r)
            .filter(|r| r.state == TaskState::Ended)
            .collect()
    }
    if let Some(at_least) = crash_after {
        while ended(&rt).len() < at_least {
            assert!(rt.step().unwrap(), "finished before the crash");
        }
        rt.crash_server().unwrap();
        rt.recover_server().unwrap();
        let (stored, built) = ended_field_maps(ended(&rt).into_iter());
        assert_eq!(built, 0, "crash after {at_least} ended: {stored} kept");
        assert!(stored > 0, "crash after {at_least} ended");
        for (id, _, _) in rt.instances() {
            for rec in rt.task_records(id).unwrap().values() {
                let (kept, built) = written_both_ways(rec);
                assert_eq!(kept, built, "crash after {at_least} ended");
            }
        }
    }
    assert_eq!(rt.run_to_completion().unwrap(), RunOutcome::Completed);
    let mut out = String::new();
    for (id, status, _) in rt.instances() {
        out += &format!("{id} {status:?} {:?}\n", rt.whiteboard(id).unwrap());
        for (path, rec) in rt.task_records(id).unwrap() {
            let inputs = serde_json::to_string(&rec.inputs).unwrap();
            let outputs = serde_json::to_string(&rec.outputs).unwrap();
            out += &format!("  {path} {:?} {inputs} {outputs}\n", rec.state);
        }
    }
    out
}

fn a_runtime_recovery_keeps_ended_field_maps_as_text(policy: Option<TieredPolicy>) {
    let oracle = runtime_run(policy, None);
    for crash_after in [1, 4, 8] {
        assert_eq!(
            runtime_run(policy, Some(crash_after)),
            oracle,
            "crash after {crash_after} ended"
        );
    }
}

common::on_each_policy!(
    a_shard_recovery_keeps_ended_field_maps_as_text,
    a_runtime_recovery_keeps_ended_field_maps_as_text,
);
