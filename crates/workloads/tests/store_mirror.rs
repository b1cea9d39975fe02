//! The store mirrors memory.
//!
//! `Runtime` commits, per navigation, the header plus exactly the task
//! records the navigator reports as touched.  That is only sound if the
//! report never misses a write: a record changed in memory but left out
//! of the batch would silently revert at the next server crash.  These
//! tests run the paper's workloads step by step and, after every
//! `Runtime::step()` with the server up, decode `inst/{id}/header` and
//! every `inst/{id}/task/{path}` from the store and require them to equal
//! the in-memory header and `TaskRecord`s of every live instance.

use bioopera_cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera_core::state::keys;
use bioopera_core::{
    ActivityLibrary, DependabilityConfig, InstanceHeader, InstanceId, InstanceStatus,
    ProgramOutput, Runtime, RuntimeConfig, TaskRecord,
};
use bioopera_darwin::{CostModel, PamFamily};
use bioopera_ocr::model::{ExternalBinding, FailurePolicy, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::ProcessBuilder;
use bioopera_store::{MemDisk, Space};
use bioopera_workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
use bioopera_workloads::chaos::{FLAKY_NODE, HEALTHY_NODE};
use bioopera_workloads::tower::{make_input_dna, tower_library, tower_template};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Every live instance's stored records equal its in-memory ones, and the
/// store holds no task record memory does not.  (A crashed server has no
/// live instances: its memory is gone and its store handle poisoned.)
fn assert_store_mirrors_memory(rt: &Runtime<MemDisk>, at: &str) {
    for (id, _, _) in rt.instances() {
        let bytes = rt
            .store()
            .get(Space::Instance, &keys::header(id))
            .unwrap()
            .unwrap_or_else(|| panic!("{at}: instance {id} has no stored header"));
        let stored: InstanceHeader = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(
            Some(&stored),
            rt.instance_header(id),
            "{at}: header of instance {id}"
        );
        let tasks = rt.task_records(id).expect("live instance");
        for (path, rec) in tasks {
            let bytes = rt
                .store()
                .get(Space::Instance, &keys::task(id, path))
                .unwrap()
                .unwrap_or_else(|| panic!("{at}: instance {id} task {path} was never stored"));
            let stored: TaskRecord = serde_json::from_slice(&bytes).unwrap();
            assert_eq!(stored, **rec, "{at}: instance {id} task {path}");
        }
        let stored_tasks = rt
            .store()
            .scan_prefix(Space::Instance, &keys::task_prefix(id))
            .unwrap()
            .len();
        assert_eq!(stored_tasks, tasks.len(), "{at}: task count of {id}");
    }
}

/// Step to the end, checking the mirror after every step; `each_step`
/// may steer the run (it sees the number of steps taken so far).
fn drive(
    rt: &mut Runtime<MemDisk>,
    label: &str,
    mut each_step: impl FnMut(&mut Runtime<MemDisk>, u64),
) -> u64 {
    assert_store_mirrors_memory(rt, &format!("{label}: after submit"));
    let mut steps = 0u64;
    loop {
        each_step(rt, steps);
        let more = rt
            .step()
            .unwrap_or_else(|e| panic!("{label}: step {steps}: {e}"));
        steps += 1;
        assert_store_mirrors_memory(rt, &format!("{label}: after step {steps}"));
        if !more {
            return steps;
        }
        assert!(steps < 200_000, "{label}: runaway run");
    }
}

fn pool(names: &[&str]) -> Cluster {
    Cluster::new(
        "pool",
        names
            .iter()
            .map(|n| NodeSpec::new(*n, 2, 500, "linux"))
            .collect(),
    )
}

fn small_allvsall(seed: u64) -> AllVsAllSetup {
    AllVsAllSetup::synthetic(
        1_000,
        120,
        seed,
        AllVsAllConfig {
            teus: 6,
            ..Default::default()
        },
    )
}

fn allvsall_runtime(
    setup: &AllVsAllSetup,
    cluster: Cluster,
    cfg: RuntimeConfig,
    trace: &Trace,
) -> (Runtime<MemDisk>, InstanceId) {
    let mut rt = Runtime::new(MemDisk::new(), cluster, setup.library.clone(), cfg).unwrap();
    rt.register_template(&setup.chunk_template).unwrap();
    rt.register_template(&setup.template).unwrap();
    rt.install_trace(trace);
    let id = rt.submit("AllVsAll", setup.initial()).unwrap();
    (rt, id)
}

/// The all-vs-all process — a parallel fan over subprocess instances —
/// under node crashes, a partition, a disk-full period, a network outage
/// and a server crash.
#[test]
fn allvsall_with_faults_and_a_server_crash() {
    let setup = small_allvsall(11);
    let cfg = || RuntimeConfig {
        heartbeat: SimTime::from_mins(2),
        ..Default::default()
    };
    // Place the faults relative to the fault-free run's length, so they
    // land mid-run whatever the synthetic cost model says a TEU takes.
    let wall = {
        let (mut rt, _) =
            allvsall_runtime(&setup, pool(&["w1", "w2", "w3"]), cfg(), &Trace::empty());
        rt.run_to_completion().unwrap();
        rt.now().as_millis()
    };
    let at = |twelfths: u64| SimTime::from_millis(wall * twelfths / 12);
    let mut trace = Trace::empty();
    trace
        .push(at(1), TraceEventKind::NodeDown("w1".into()))
        .push(at(2), TraceEventKind::NodeUp("w1".into()))
        .push(at(3), TraceEventKind::NodePartition("w2".into()))
        .push(at(4), TraceEventKind::NodeRejoin("w2".into()))
        .push(at(5), TraceEventKind::DiskFull)
        .push(at(6), TraceEventKind::DiskFreed)
        .push(at(7), TraceEventKind::ServerCrash)
        .push(at(8), TraceEventKind::ServerRecover)
        .push(at(9), TraceEventKind::NetworkDown)
        .push(at(10), TraceEventKind::NetworkUp);
    let (mut rt, id) = allvsall_runtime(&setup, pool(&["w1", "w2", "w3"]), cfg(), &trace);
    drive(&mut rt, "allvsall", |_, _| {});
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.awareness().index().count("server.recover"),
        1,
        "the trace's server crash must have happened"
    );
}

/// The tower of information: a deeper template of plain activities with
/// whiteboard and task-to-task dataflows.
#[test]
fn tower() {
    let pam = Arc::new(PamFamily::default());
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(5),
        ..Default::default()
    };
    let lib = tower_library(pam, CostModel::default());
    let mut rt = Runtime::new(MemDisk::new(), pool(&["n0", "n1", "n2"]), lib, cfg).unwrap();
    rt.register_template(&tower_template()).unwrap();
    let mut init = BTreeMap::new();
    init.insert("dna".to_string(), Value::from(make_input_dna(2, 3, 42)));
    let id = rt.submit("TowerOfInformation", init).unwrap();
    drive(&mut rt, "tower", |_, _| {});
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
}

/// The chaos scenario: one node kills every job, so the run is a long
/// series of masked system failures, backoff deadlines and a quarantine.
#[test]
fn chaos_flaky_node() {
    let setup = small_allvsall(7);
    let mut trace = Trace::empty();
    trace.push(
        SimTime::from_millis(1),
        TraceEventKind::NodeFlaky {
            node: FLAKY_NODE.into(),
            kills: u32::MAX,
        },
    );
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(2),
        dependability: DependabilityConfig {
            jitter_seed: 7,
            ..Default::default()
        },
        ..Default::default()
    };
    let (mut rt, id) = allvsall_runtime(&setup, pool(&[FLAKY_NODE, HEALTHY_NODE]), cfg, &trace);
    drive(&mut rt, "chaos", |_, _| {});
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert!(rt.awareness().index().count("task.systemfail") > 0);
    assert!(rt.awareness().index().count("node.quarantine") > 0);
}

/// Operator steering: suspend one instance mid-run, restart it, resume
/// it, and suspend/resume the whole server through the trace.
#[test]
fn suspend_restart_and_resume() {
    let setup = small_allvsall(5);
    let mut trace = Trace::empty();
    trace
        .push(SimTime::from_secs(600), TraceEventKind::OperatorSuspend)
        .push(SimTime::from_secs(900), TraceEventKind::OperatorResume);
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(2),
        ..Default::default()
    };
    let (mut rt, id) = allvsall_runtime(&setup, pool(&["w1", "w2"]), cfg, &trace);
    let mut resumed = false;
    drive(&mut rt, "steering", |rt, step| match step {
        12 => {
            rt.suspend(id).unwrap();
            assert_store_mirrors_memory(rt, "steering: after suspend");
        }
        30 => {
            rt.restart_instance(id).unwrap();
            assert_store_mirrors_memory(rt, "steering: after restart");
        }
        40 => {
            rt.resume(id).unwrap();
            resumed = true;
            assert_store_mirrors_memory(rt, "steering: after resume");
        }
        _ => {}
    });
    if !resumed {
        // The run quiesced on the suspended instance before step 40.
        rt.resume(id).unwrap();
        assert_store_mirrors_memory(&rt, "steering: after late resume");
        drive(&mut rt, "steering (resumed)", |_, _| {});
    }
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
}

/// Failure policies write records outside the failed task: a sphere
/// compensation flips every ended member (with or without an undo
/// program), `ALTERNATIVE` activates another task, `IGNORE` inside a
/// parallel fan lets the parent conclude, `SUSPEND` parks the instance.
#[test]
fn failure_policies() {
    let mut lib = ActivityLibrary::new();
    lib.register("ok", |_| Ok(ProgramOutput::from_fields([], 1_000.0)));
    lib.register("list", |_| {
        Ok(ProgramOutput::from_fields(
            [("items", Value::int_list(0..4))],
            1_000.0,
        ))
    });
    lib.register("odd_fails", |inputs| {
        match inputs.get("item").and_then(|v| v.as_int()) {
            Some(i) if i % 2 == 1 => Err(format!("item {i} is odd")),
            _ => Ok(ProgramOutput::from_fields([("r", Value::Int(1))], 1_000.0)),
        }
    });
    lib.register("boom", |_| Err("boom".to_string()));

    let sphere = ProcessBuilder::new("Sphere")
        .activity("S1", "ok", |t| t)
        .activity("S2", "ok", |t| t)
        .activity("S3", "boom", |t| t)
        .connect("S1", "S2")
        .connect("S2", "S3")
        // S2 has no undo program: it is compensated silently.
        .sphere("Atomic", ["S1", "S2", "S3"], [("S1", "ok")])
        .on_failure("S3", FailurePolicy::CompensateSphere("Atomic".into()))
        .build()
        .unwrap();
    let alternative = ProcessBuilder::new("Alternative")
        .activity("Start", "ok", |t| t)
        .activity("A", "boom", |t| t.retries(1))
        .activity("Alt", "ok", |t| t)
        .activity("B", "ok", |t| t)
        .connect("Start", "A")
        .connect_when("Start", "Alt", bioopera_ocr::Expr::defined("Start.nothing"))
        .connect("A", "B")
        .connect("Alt", "B")
        .on_failure("A", FailurePolicy::Alternative("Alt".into()))
        .build()
        .unwrap();
    let ignore = ProcessBuilder::new("Ignore")
        .activity("Gen", "list", |t| t.output("items", TypeTag::List))
        .parallel(
            "Fan",
            "items",
            ParallelBody::Activity(ExternalBinding::program("odd_fails")),
            "results",
            |t| t,
        )
        .activity("After", "ok", |t| t.input("results", TypeTag::List))
        .connect("Gen", "Fan")
        .connect("Fan", "After")
        .flow_to_task("Gen", "items", "Fan", "items")
        .flow_to_task("Fan", "results", "After", "results")
        .on_failure("Fan", FailurePolicy::Ignore)
        .build()
        .unwrap();
    let suspend = ProcessBuilder::new("Suspend")
        .activity("A", "boom", |t| t)
        .on_failure("A", FailurePolicy::Suspend)
        .build()
        .unwrap();

    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(2),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), pool(&["w1", "w2"]), lib, cfg).unwrap();
    let mut ids = BTreeMap::new();
    for t in [&sphere, &alternative, &ignore, &suspend] {
        rt.register_template(t).unwrap();
        ids.insert(
            t.name.as_str(),
            rt.submit(&t.name, BTreeMap::new()).unwrap(),
        );
    }
    drive(&mut rt, "policies", |_, _| {});
    let status = |name: &str| rt.instance_status(ids[name]);
    assert_eq!(status("Sphere"), Some(InstanceStatus::Aborted));
    assert_eq!(status("Alternative"), Some(InstanceStatus::Completed));
    assert_eq!(status("Ignore"), Some(InstanceStatus::Completed));
    assert_eq!(status("Suspend"), Some(InstanceStatus::Suspended));
}
