//! A recovery reads every task record of the journal and builds the
//! field maps of none it does not touch.
//!
//! A `FieldMap` read from JSON stays the text it was read from until
//! something reads it (`FieldMap::is_stored`).  After a crash, on both
//! drivers and both store policies, every non-empty input and output
//! structure of an `Ended` record is still that text — the recovery
//! checked it and kept it — and a record written with its kept texts is
//! the record written with its maps built.  The run still ends as the run
//! that never crashed: the same statuses and whiteboards and the same
//! field maps in every record, and — when the crash left no work to redo,
//! so no clock moved — every header and record written as the crash-free
//! run writes it, kept texts verbatim.  One scenario, on every driver.

mod common;

use bioopera_core::state::TaskState;
use bioopera_core::{ActivityLibrary, Driver, EngineResult, RunOutcome, TaskRecord};
use bioopera_ocr::value::FieldMap;
use bioopera_store::{MemDisk, TieredPolicy};

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
fn workload() -> Vec<(usize, i64)> {
    (0..12).map(|i| (i % 2, i as i64 + 1)).collect()
}

/// `rec` written as it is, and with its field maps built afresh.
fn written_both_ways(rec: &TaskRecord) -> (String, String) {
    let kept = serde_json::to_string(rec).unwrap();
    let mut built = rec.clone();
    built.inputs = FieldMap::from(rec.inputs.to_map());
    built.outputs = FieldMap::from(rec.outputs.to_map());
    (kept, serde_json::to_string(&built).unwrap())
}

/// What a run ended as: per instance its status and whiteboard, per task
/// record its state and field maps.
fn outcome(eng: &impl Driver) -> String {
    let mut out = String::new();
    for (id, status, _) in eng.instances() {
        out += &format!("{id} {status:?} {:?}\n", eng.whiteboard(id).unwrap());
        for (path, rec) in eng.task_records(id).unwrap() {
            let inputs = serde_json::to_string(&rec.inputs).unwrap();
            let outputs = serde_json::to_string(&rec.outputs).unwrap();
            out += &format!("  {path} {:?} {inputs} {outputs}\n", rec.state);
        }
    }
    out
}

/// Every header and task record the driver holds, written.
fn state(eng: &impl Driver) -> Vec<String> {
    let mut out = Vec::new();
    for (id, _, _) in eng.instances() {
        out.push(serde_json::to_string(eng.instance_header(id).unwrap()).unwrap());
        for rec in eng.task_records(id).unwrap().values() {
            out.push(serde_json::to_string(rec).unwrap());
        }
    }
    out
}

/// Crash the workload after each step, recover it and run it to its end.
/// The recovery keeps every ended field map as text, and the run ends as
/// the run that never crashed; when the crash came after the last step,
/// every header and record is the crash-free run's byte for byte.
fn a_recovery_keeps_ended_field_maps_as_text<E: Driver>(
    _policy: Option<TieredPolicy>,
    build: impl Fn(MemDisk, ActivityLibrary) -> EngineResult<E>,
) {
    let start = |disk: &MemDisk| {
        let mut eng = build(disk.clone(), common::library()).unwrap();
        eng.register_template(&common::chain_template()).unwrap();
        eng.register_template(&common::fan_template()).unwrap();
        common::submit_workload(&mut eng, &workload());
        eng
    };
    let mut oracle = start(&MemDisk::new());
    let mut steps = 0usize;
    while oracle.step().unwrap() {
        steps += 1;
    }
    assert!(oracle.run_to_completion().unwrap().is_completed());
    let (ended, end_state) = (outcome(&oracle), state(&oracle));
    let mut kept = 0;
    for crash in 1..=steps {
        let at = format!("crash after step {crash} of {steps}");
        let disk = MemDisk::new();
        let mut eng = start(&disk);
        for _ in 0..crash {
            eng.step().unwrap();
        }
        drop(eng);
        let mut eng = build(disk.clone(), common::library()).unwrap();
        let (stored, built) = ended_field_maps(common::records(&eng).into_values());
        assert_eq!(built, 0, "{at}: {stored} kept");
        kept += stored;
        for rec in common::records(&eng).into_values() {
            let (kept, built) = written_both_ways(rec);
            assert_eq!(kept, built, "{at}");
        }
        assert_eq!(
            eng.run_to_completion().unwrap(),
            RunOutcome::Completed,
            "{at}"
        );
        assert_eq!(outcome(&eng), ended, "{at}");
        if crash == steps {
            assert_eq!(state(&eng), end_state, "{at}");
        }
    }
    assert!(kept > 0, "no recovery met an ended record");
}

common::on_each_driver!(a_recovery_keeps_ended_field_maps_as_text);
