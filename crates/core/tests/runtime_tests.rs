//! End-to-end runtime tests: full processes executing in virtual time on
//! the simulated cluster, with every failure class of the paper injected.
//!
//! Every scenario runs on each store policy (`untiered::*`, `tiered::*`):
//! a `Runtime` over the squeezed store spills and merges inside ordinary
//! workloads, records the tier's activity as `store.*` events and
//! recovers from a server crash through runs and levels, and must still
//! produce what the untiered runtime produces.  Its history is the one
//! stream both drivers write, digest and all, and a store written before
//! it joined that stream reopens with each old event counted once.  On
//! either policy the resident memtable stays within what the WAL roll
//! bounds, and a commit torn inside its append converges; a step, a
//! public call or a recovery is at most one append.  The last two tests are the tiered store's own: its events,
//! and windowed history retention.

mod common;

use bioopera_cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera_core::history;
use bioopera_core::navigator; // used indirectly via runtime
use bioopera_core::shard::{ShardConfig, ShardEngine};
use bioopera_core::state::{keys, InstanceId, InstanceStatus, RunOutcome, TaskState};
use bioopera_core::{
    ActivityLibrary, Awareness, ProgramOutput, RecoveryReport, Runtime, RuntimeConfig,
};
use bioopera_ocr::model::{EventAction, ExternalBinding, FailurePolicy, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{Expr, ProcessBuilder, ProcessTemplate};
use bioopera_store::{Batch, Disk, MemDisk, Space, Store, TieredPolicy};
use common::ev_writer::EvWriter;
use std::collections::BTreeMap;

// Silence "unused import" for navigator (kept to assert the pub API).
#[allow(unused)]
fn _navigator_api_exists() {
    let _ = navigator::bind_inputs_parts
        as fn(
            &ProcessTemplate,
            &bioopera_core::InstanceHeader,
            &bioopera_core::TaskMap,
            &str,
        ) -> BTreeMap<String, Value>;
}

fn small_cluster() -> Cluster {
    Cluster::new(
        "test",
        vec![
            NodeSpec::new("n1", 2, 500, "linux"),
            NodeSpec::new("n2", 2, 500, "linux"),
            NodeSpec::new("n3", 1, 1000, "solaris"),
        ],
    )
}

/// A library with:
/// * `gen.list(count)` -> `items` = [0, .., count-1], cost 1 s
/// * `work.unit` -> squares `item`, cost = `cost_ms` input (default 60 s)
/// * `merge.sum` -> sums `results[i].value`, cost 2 s
/// * `fail.always` -> program error
/// * `fail.flaky` -> fails unless `attempt_ok` is set on the whiteboard
fn library() -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("gen.list", |inputs| {
        let count = inputs.get("count").and_then(|v| v.as_int()).unwrap_or(4);
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
        let cost = inputs
            .get("cost_ms")
            .and_then(|v| v.as_float())
            .unwrap_or(60_000.0);
        Ok(ProgramOutput::from_fields(
            [("value", Value::Int(item * item))],
            cost,
        ))
    });
    lib.register("merge.sum", |inputs| {
        let results = inputs
            .get("results")
            .and_then(|v| v.as_list().map(|l| l.to_vec()))
            .ok_or_else(|| "merge.sum needs results".to_string())?;
        let total: i64 = results
            .iter()
            .filter_map(|r| r.get_path(&["value"]).and_then(|v| v.as_int()))
            .sum();
        Ok(ProgramOutput::from_fields(
            [("total", Value::Int(total))],
            2_000.0,
        ))
    });
    lib.register("fail.always", |_| Err("deliberate failure".to_string()));
    lib.register("noop", |_| {
        Ok(ProgramOutput::from_fields(
            [("ok", Value::Bool(true))],
            500.0,
        ))
    });
    lib.register("undo.noop", |_| Ok(ProgramOutput::instant(BTreeMap::new())));
    lib
}

/// items -> parallel squares -> sum, the canonical fan-out process.
fn fanout_template(count: i64, retries: u32) -> ProcessTemplate {
    ProcessBuilder::new("Fanout")
        .whiteboard_default("count", TypeTag::Int, Value::Int(count))
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
            |t| t.retries(retries),
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

fn runtime(cluster: Cluster, policy: Option<TieredPolicy>) -> Runtime<MemDisk> {
    // Tests run minute-scale workloads; sample the series often enough to
    // observe them (experiments use the 2-hour default).
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(20),
        tiered: policy,
        ..Default::default()
    };
    Runtime::new(MemDisk::new(), cluster, library(), cfg).unwrap()
}

/// Sum of 0²..(n-1)².
fn expected_total(n: i64) -> i64 {
    (0..n).map(|i| i * i).sum()
}

fn fanout_completes_with_correct_result(policy: Option<TieredPolicy>) {
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&fanout_template(6, 0)).unwrap();
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(6))
    );
    // Virtual time passed: 6 × 60 s of work on 5 CPUs plus overheads.
    assert!(rt.now() >= SimTime::from_secs(60));
    let stats = rt.stats(id).unwrap();
    assert_eq!(stats.activities, 8); // Gen + 6 children + Merge
                                     // Total work is ~363 reference-CPU-seconds; occupancy is lower when
                                     // the 2x-speed node (n3) takes jobs, but at least half runs at 1x.
    assert!(stats.cpu >= SimTime::from_secs(180), "cpu {}", stats.cpu);
    assert!(stats.cpu <= SimTime::from_secs(370), "cpu {}", stats.cpu);
    assert!(stats.max_cpus_used >= 1);
}

fn parallelism_reduces_wall_time(policy: Option<TieredPolicy>) {
    // Same work on a 1-CPU cluster vs a 6-CPU cluster.
    let run = |cluster: Cluster| {
        let mut rt = runtime(cluster, policy);
        rt.register_template(&fanout_template(6, 0)).unwrap();
        let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
        rt.run_to_completion().unwrap();
        rt.stats(id).unwrap()
    };
    let single = run(Cluster::new(
        "one",
        vec![NodeSpec::new("solo", 1, 500, "linux")],
    ));
    let multi = run(Cluster::new(
        "six",
        (0..6)
            .map(|i| NodeSpec::new(format!("n{i}"), 1, 500, "linux"))
            .collect(),
    ));
    assert!(
        multi.wall.as_millis() * 3 < single.wall.as_millis(),
        "parallel {} vs serial {}",
        multi.wall,
        single.wall
    );
    // CPU time is essentially the same.
    let ratio = multi.cpu.as_millis() as f64 / single.cpu.as_millis() as f64;
    assert!((0.9..1.1).contains(&ratio), "cpu ratio {ratio}");
}

fn node_crash_is_masked_and_work_completes(policy: Option<TieredPolicy>) {
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&fanout_template(8, 0)).unwrap();
    let mut trace = Trace::empty();
    // Kill n1 30 s in (children are mid-flight), revive it later.
    trace.push(
        SimTime::from_secs(30),
        TraceEventKind::NodeDown("n1".into()),
    );
    trace.push(SimTime::from_secs(200), TraceEventKind::NodeUp("n1".into()));
    rt.install_trace(&trace);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(8))
    );
    // The awareness model recorded the masked failures.
    let crashes = rt.awareness().of_kind(rt.store(), "node.crash").unwrap();
    assert_eq!(crashes.len(), 1);
    let masked = rt
        .awareness()
        .of_kind(rt.store(), "task.systemfail")
        .unwrap();
    assert!(!masked.is_empty(), "jobs on n1 must have been re-queued");
}

fn whole_cluster_failure_recovers(policy: Option<TieredPolicy>) {
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&fanout_template(6, 0)).unwrap();
    let mut trace = Trace::empty();
    trace.push(SimTime::from_secs(20), TraceEventKind::AllNodesDown);
    trace.push(SimTime::from_secs(500), TraceEventKind::AllNodesUp);
    rt.install_trace(&trace);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(6))
    );
    // The computation paused during the outage.
    assert!(rt.now() >= SimTime::from_secs(500));
}

fn server_crash_resumes_without_losing_completed_work(policy: Option<TieredPolicy>) {
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&fanout_template(6, 0)).unwrap();
    let mut trace = Trace::empty();
    // Crash the server after Gen has certainly completed (Gen costs 1 s,
    // latency 2 s) but while children run; recover a minute later.
    trace.push(SimTime::from_secs(30), TraceEventKind::ServerCrash);
    trace.push(SimTime::from_secs(90), TraceEventKind::ServerRecover);
    rt.install_trace(&trace);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(6))
    );
    // Gen ran exactly once: completed work survived the server crash.
    let ends = rt.awareness().of_kind(rt.store(), "task.end").unwrap();
    let gen_ends = ends
        .iter()
        .filter(|e| e.kind.task_path() == Some("Gen"))
        .count();
    assert_eq!(gen_ends, 1, "Gen must not be re-executed after recovery");
}

fn network_outage_buffers_results_at_pecs(policy: Option<TieredPolicy>) {
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&fanout_template(5, 0)).unwrap();
    let mut trace = Trace::empty();
    // Outage covers the completion times of the first child wave.
    trace.push(SimTime::from_secs(10), TraceEventKind::NetworkDown);
    trace.push(SimTime::from_secs(300), TraceEventKind::NetworkUp);
    rt.install_trace(&trace);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(5))
    );
    // Jobs finished during the outage were *not* re-executed: every child
    // ended exactly once.
    let ends = rt.awareness().of_kind(rt.store(), "task.end").unwrap();
    for i in 0..5 {
        let n = ends
            .iter()
            .filter(|e| e.kind.task_path() == Some(format!("Fan[{i}]").as_str()))
            .count();
        assert_eq!(n, 1, "child {i} should complete exactly once");
    }
}

fn disk_full_forces_reruns_until_freed(policy: Option<TieredPolicy>) {
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&fanout_template(4, 0)).unwrap();
    let mut trace = Trace::empty();
    trace.push(SimTime::from_secs(5), TraceEventKind::DiskFull);
    trace.push(SimTime::from_secs(400), TraceEventKind::DiskFreed);
    rt.install_trace(&trace);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(4))
    );
    let diskfails = rt.awareness().of_kind(rt.store(), "task.diskfull").unwrap();
    assert!(
        !diskfails.is_empty(),
        "some completions must have hit the full disk"
    );
}

fn operator_suspend_drains_and_resume_continues(policy: Option<TieredPolicy>) {
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&fanout_template(6, 0)).unwrap();
    let mut trace = Trace::empty();
    trace.push(SimTime::from_secs(5), TraceEventKind::OperatorSuspend);
    trace.push(SimTime::from_hours(2), TraceEventKind::OperatorResume);
    rt.install_trace(&trace);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    // Wall time reflects the suspension.
    let stats = rt.stats(id).unwrap();
    assert!(stats.wall >= SimTime::from_hours(2));
}

fn api_suspend_quiesces_run_and_resume_completes(policy: Option<TieredPolicy>) {
    // Regression for the suspended-instance wedge: an API-suspended
    // instance must not spin or error `run_to_completion` — the run
    // quiesces with a suspended count, and resume picks it back up.
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&fanout_template(4, 0)).unwrap();
    let parked = rt.submit("Fanout", BTreeMap::new()).unwrap();
    let free = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.suspend(parked).unwrap();
    let outcome = rt.run_to_completion().unwrap();
    assert_eq!(outcome, RunOutcome::Quiesced { suspended: 1 });
    assert_eq!(rt.instance_status(parked), Some(InstanceStatus::Suspended));
    assert_eq!(rt.instance_status(free), Some(InstanceStatus::Completed));
    rt.resume(parked).unwrap();
    let outcome = rt.run_to_completion().unwrap();
    assert_eq!(outcome, RunOutcome::Completed);
    assert_eq!(rt.instance_status(parked), Some(InstanceStatus::Completed));
}

fn program_failure_exhausts_retries_then_aborts(policy: Option<TieredPolicy>) {
    let t = ProcessBuilder::new("Doomed")
        .activity("Bad", "fail.always", |t| t.retries(2))
        .build()
        .unwrap();
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&t).unwrap();
    let id = rt.submit("Doomed", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Aborted));
    let fails = rt.awareness().of_kind(rt.store(), "task.fail").unwrap();
    assert_eq!(fails.len(), 3, "1 try + 2 retries");
}

fn ignore_policy_lets_process_complete_despite_failure(policy: Option<TieredPolicy>) {
    let t = ProcessBuilder::new("Tolerant")
        .activity("Bad", "fail.always", |t| t)
        .activity("Good", "noop", |t| t)
        .connect("Bad", "Good")
        .on_failure("Bad", FailurePolicy::Ignore)
        .build()
        .unwrap();
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&t).unwrap();
    let id = rt.submit("Tolerant", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    // Good was dead-path-eliminated (its one connector came from a skip).
    assert_eq!(
        rt.task_record(id, "Good").unwrap().state,
        TaskState::Skipped
    );
}

fn sphere_compensation_runs_on_abort(policy: Option<TieredPolicy>) {
    let t = ProcessBuilder::new("Atomic")
        .activity("S1", "noop", |t| t)
        .activity("S2", "fail.always", |t| t)
        .connect("S1", "S2")
        .sphere("Sp", ["S1", "S2"], [("S1", "undo.noop")])
        .on_failure("S2", FailurePolicy::CompensateSphere("Sp".into()))
        .build()
        .unwrap();
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&t).unwrap();
    let id = rt.submit("Atomic", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Aborted));
    assert_eq!(
        rt.task_record(id, "S1").unwrap().state,
        TaskState::Compensated
    );
    let comps = rt
        .awareness()
        .of_kind(rt.store(), "task.compensate")
        .unwrap();
    assert_eq!(comps.len(), 1);
    assert!(matches!(
        &comps[0].kind,
        bioopera_core::EventKind::TaskCompensate { program, .. } if program == "undo.noop"
    ));
}

/// `Child` is a subprocess task bound (late, by name) to template "Sub".
fn subprocess_parent_template() -> ProcessTemplate {
    ProcessBuilder::new("Parent")
        .whiteboard_default("x", TypeTag::Int, Value::Int(7))
        .subprocess("Child", "Sub", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .activity("After", "noop", |t| t)
        .connect("Child", "After")
        .flow_from_whiteboard("x", "Child", "x")
        .build()
        .unwrap()
}

/// "Sub": `y = x²`.
fn square_sub_template() -> ProcessTemplate {
    ProcessBuilder::new("Sub")
        .whiteboard_field("x", TypeTag::Int)
        .whiteboard_field("y", TypeTag::Int)
        .activity("Work", "work.unit", |t| {
            t.input("item", TypeTag::Int).output("value", TypeTag::Int)
        })
        .flow_from_whiteboard("x", "Work", "item")
        .flow_to_whiteboard("Work", "value", "y")
        .build()
        .unwrap()
}

fn subprocess_late_binding_uses_template_at_start_time(policy: Option<TieredPolicy>) {
    // Parent references template "Sub" which is registered *after* the
    // parent, and swapped before the second run.
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&subprocess_parent_template()).unwrap();
    rt.register_template(&square_sub_template()).unwrap();
    let id = rt.submit("Parent", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    let child_rec = rt.task_record(id, "Child").unwrap();
    assert_eq!(child_rec.state, TaskState::Ended);
    // Child squared 7: parent task output y = 49 (from the child's
    // whiteboard).
    assert_eq!(child_rec.outputs["y"], Value::Int(49));

    // Re-registering "Sub" replaces what the name resolves to from now
    // on: the second version squares twice.
    let sub_v2 = ProcessBuilder::new("Sub")
        .whiteboard_field("x", TypeTag::Int)
        .whiteboard_field("y", TypeTag::Int)
        .activity("Work", "work.unit", |t| {
            t.input("item", TypeTag::Int).output("value", TypeTag::Int)
        })
        .activity("Again", "work.unit", |t| {
            t.input("item", TypeTag::Int).output("value", TypeTag::Int)
        })
        .connect("Work", "Again")
        .flow_from_whiteboard("x", "Work", "item")
        .flow_to_task("Work", "value", "Again", "item")
        .flow_to_whiteboard("Again", "value", "y")
        .build()
        .unwrap();
    rt.register_template(&sub_v2).unwrap();
    let id = rt.submit("Parent", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    let child_rec = rt.task_record(id, "Child").unwrap();
    assert_eq!(child_rec.outputs["y"], Value::Int(49 * 49));
}

/// "Chunk" squares its `item`; "FanSub" fans one Chunk instance out per
/// generated item and sums the squares.
fn fan_of_subprocesses() -> (ProcessTemplate, ProcessTemplate) {
    let chunk = ProcessBuilder::new("Chunk")
        .whiteboard_field("item", TypeTag::Int)
        .whiteboard_field("value", TypeTag::Int)
        .activity("Square", "work.unit", |t| {
            t.input("item", TypeTag::Int).output("value", TypeTag::Int)
        })
        .flow_from_whiteboard("item", "Square", "item")
        .flow_to_whiteboard("Square", "value", "value")
        .build()
        .unwrap();
    let t = ProcessBuilder::new("FanSub")
        .whiteboard_field("total", TypeTag::Int)
        .activity("Gen", "gen.list", |t| {
            t.input_default("count", TypeTag::Int, Value::Int(4))
                .output("items", TypeTag::List)
        })
        .parallel(
            "Fan",
            "items",
            ParallelBody::Subprocess("Chunk".into()),
            "results",
            |t| t,
        )
        .activity("Merge", "merge.sum", |t| {
            t.input("results", TypeTag::List)
                .output("total", TypeTag::Int)
        })
        .connect("Gen", "Fan")
        .connect("Fan", "Merge")
        .flow_to_task("Gen", "items", "Fan", "items")
        .flow_to_task("Fan", "results", "Merge", "results")
        .flow_to_whiteboard("Merge", "total", "total")
        .build()
        .unwrap();
    (chunk, t)
}

fn parallel_subprocess_bodies_run_one_instance_per_element(policy: Option<TieredPolicy>) {
    let (chunk, t) = fan_of_subprocesses();
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&chunk).unwrap();
    rt.register_template(&t).unwrap();
    let id = rt.submit("FanSub", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(4))
    );
    // 4 child instances + the parent.
    assert_eq!(rt.instances().len(), 5);
}

/// The crash window between a subprocess task's `Dispatched` record and
/// its child's first commit: the record says "in flight" and nothing is.
/// Re-created here by crashing between steps and erasing the newest
/// child from the disk.  Recovery must rewind the task to `Ready` and the
/// pump re-spawn it — for a template subprocess task and for a child of
/// a parallel subprocess body alike — while siblings whose child is in
/// the journal are left in flight.
fn lost_spawn_is_rewound_and_respawned_after_server_recovery(policy: Option<TieredPolicy>) {
    let (chunk, fan) = fan_of_subprocesses();
    let cases: [(&str, Vec<ProcessTemplate>, usize, &str, i64); 2] = [
        (
            "Parent",
            vec![subprocess_parent_template(), square_sub_template()],
            1,
            "y",
            49,
        ),
        ("FanSub", vec![chunk, fan], 4, "total", expected_total(4)),
    ];
    for (root, templates, children, field, expect) in cases {
        let disk = MemDisk::new();
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_secs(20),
            tiered: policy,
            ..Default::default()
        };
        let mut rt = Runtime::new(disk.clone(), small_cluster(), library(), cfg).unwrap();
        for t in &templates {
            rt.register_template(t).unwrap();
        }
        let id = rt.submit(root, BTreeMap::new()).unwrap();
        while rt.instances().len() < 1 + children {
            assert!(rt.step().unwrap(), "{root}: finished before spawning");
        }
        let lost: InstanceId = rt.instances().iter().map(|(id, _, _)| *id).max().unwrap();
        let (_, task) = rt.instance_header(lost).unwrap().parent.clone().unwrap();
        assert_eq!(
            rt.task_record(id, &task).unwrap().state,
            TaskState::Dispatched
        );
        rt.crash_server().unwrap();
        let mut store = Store::open_with(disk.clone(), policy).unwrap();
        let mut erase = Batch::new();
        for (key, _) in store
            .scan_prefix(Space::Instance, &keys::instance_prefix(lost))
            .unwrap()
        {
            erase.delete(Space::Instance, key);
        }
        store.apply(erase).unwrap();
        drop(store);
        rt.recover_server().unwrap();

        let rec = rt.task_record(id, &task).unwrap();
        assert_eq!(rec.state, TaskState::Ready, "{root}: {task} rewound");
        assert!(rec.ready_at.is_some());
        let in_flight = rt
            .task_records(id)
            .unwrap()
            .values()
            .filter(|r| r.is_parallel_child() && r.state == TaskState::Dispatched)
            .count();
        assert_eq!(in_flight, children - 1, "{root}: live siblings are left");

        assert_eq!(rt.run_to_completion().unwrap(), RunOutcome::Completed);
        assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
        let result = match root {
            "Parent" => rt.task_record(id, "Child").unwrap().outputs[field].clone(),
            _ => rt.whiteboard(id).unwrap()[field].clone(),
        };
        assert_eq!(result, Value::Int(expect), "{root}");
        assert_eq!(rt.instances().len(), 1 + children, "{root}: no orphan");
        let idx = rt.awareness().index();
        assert_eq!(idx.count("subprocess.start"), children + 1, "{root}");
        assert_eq!(idx.count("subprocess.duplicate"), 0, "{root}");
    }
}

fn event_handlers_set_data_and_suspend(policy: Option<TieredPolicy>) {
    let t = ProcessBuilder::new("Evented")
        .whiteboard_default("threshold", TypeTag::Float, Value::Float(80.0))
        .activity("A", "noop", |t| t)
        .on_event(
            "retune",
            EventAction::SetData("threshold".into(), Expr::Lit(Value::Float(95.0))),
        )
        .on_event("pause", EventAction::Suspend)
        .on_event("go", EventAction::Resume)
        .build()
        .unwrap();
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&t).unwrap();
    let id = rt.submit("Evented", BTreeMap::new()).unwrap();
    rt.signal_event(id, "retune").unwrap();
    assert_eq!(rt.whiteboard(id).unwrap()["threshold"], Value::Float(95.0));
    rt.signal_event(id, "pause").unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Suspended));
    rt.signal_event(id, "go").unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Running));
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
}

fn placement_constraints_honored(policy: Option<TieredPolicy>) {
    let t = ProcessBuilder::new("Placed")
        .activity("OnSun", "noop", |t| t.on_os("solaris"))
        .build()
        .unwrap();
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&t).unwrap();
    let id = rt.submit("Placed", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(
        rt.task_record(id, "OnSun").unwrap().node.as_deref(),
        Some("n3")
    );
}

fn what_if_planner_reports_affected_jobs(policy: Option<TieredPolicy>) {
    use bioopera_core::Planner;
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&fanout_template(6, 0)).unwrap();
    let _id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    // Advance until children are in flight: run a bounded number of events
    // by installing a "probe" — simplest: run until jobs exist by stepping
    // through a silent trace event far in the future and polling; here we
    // run to completion in a clone-free way, so instead submit and pump
    // manually: the public API exposes in_flight_jobs after run begins.
    // Drive a few events by running with a trace that suspends early.
    let mut trace = Trace::empty();
    trace.push(SimTime::from_secs(25), TraceEventKind::OperatorSuspend);
    trace.push(SimTime::from_days(300), TraceEventKind::OperatorResume);
    rt.install_trace(&trace);
    // Run: will finish eventually; but we want to inspect mid-run. Use the
    // suspension window: run_to_completion processes everything, so
    // instead we check the planner *before* running (no jobs yet) and
    // after (no jobs left) — the mid-run check happens in the runtime's
    // own unit context. Here: verify the report shape on the idle state.
    let impact = Planner::what_if_offline(&rt, &["n1", "n3"]);
    assert_eq!(impact.cpus_lost, 3);
    assert_eq!(impact.offline.len(), 2);
    assert_eq!(impact.instances.len(), 1);
    let text = impact.report();
    assert!(text.contains("what-if"));
    rt.run_to_completion().unwrap();
    let impact = Planner::what_if_offline(&rt, &["n1"]);
    assert!(
        impact.instances.is_empty(),
        "terminal instances are not affected"
    );
}

fn migration_rescues_starved_jobs(policy: Option<TieredPolicy>) {
    // One fast node that gets fully occupied by external users right after
    // dispatch, plus a slow-but-free node.  Without migration the job
    // waits for the external load to clear (day 2); with migration it
    // finishes quickly on the other node.
    let cluster = || {
        Cluster::new(
            "mig",
            vec![
                NodeSpec::new("hot", 1, 1000, "linux"),
                NodeSpec::new("cold", 1, 400, "linux"),
            ],
        )
    };
    let template = ProcessBuilder::new("OneJob")
        .activity("W", "work.unit", |t| {
            t.input_default("item", TypeTag::Int, Value::Int(3))
                .input_default("cost_ms", TypeTag::Float, Value::Float(600_000.0))
                .output("value", TypeTag::Int)
        })
        .build()
        .unwrap();
    let mut trace = Trace::empty();
    // External users grab the hot node just as the job starts, for 2 days.
    trace.push(
        SimTime::from_secs(3),
        TraceEventKind::ExternalLoad {
            node: "hot".into(),
            cpus: 1.0,
        },
    );
    trace.push(
        SimTime::from_days(2),
        TraceEventKind::ExternalLoad {
            node: "hot".into(),
            cpus: 0.0,
        },
    );

    let run = |migration| {
        // Least-loaded: the first dispatch goes to the (idle, faster) hot
        // node; after migration the starved node reports load 1.0 so the
        // job lands on the cold node.  (Fastest-fit would re-pick the hot
        // node forever — the paper's §5.4 caveat, covered by the
        // scheduling ablation bench.)
        let cfg = RuntimeConfig {
            policy: Box::new(bioopera_core::LeastLoaded),
            migration,
            heartbeat: SimTime::from_mins(30),
            tiered: policy,
            ..Default::default()
        };
        let mut rt = Runtime::new(MemDisk::new(), cluster(), library(), cfg).unwrap();
        rt.register_template(&template).unwrap();
        let id = rt.submit("OneJob", BTreeMap::new()).unwrap();
        rt.install_trace(&trace);
        rt.run_to_completion().unwrap();
        assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
        rt.stats(id).unwrap().wall
    };
    let without = run(None);
    let with = run(Some(bioopera_core::runtime::MigrationConfig {
        patience: SimTime::from_hours(1),
    }));
    assert!(
        with.as_millis() * 4 < without.as_millis(),
        "migration should rescue the job: with {} vs without {}",
        with,
        without
    );
}

fn deterministic_replay_same_disk_content(policy: Option<TieredPolicy>) {
    let run_digest = || {
        let mut rt = runtime(small_cluster(), policy);
        rt.register_template(&fanout_template(5, 0)).unwrap();
        let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
        rt.run_to_completion().unwrap();
        (
            rt.now(),
            rt.whiteboard(id).unwrap().clone(),
            rt.stats(id).unwrap().cpu,
            rt.awareness().all(rt.store()).unwrap().len(),
        )
    };
    assert_eq!(run_digest(), run_digest());
}

fn queue_wait_metric_survives_server_crash(policy: Option<TieredPolicy>) {
    // A task that queues through a server outage must report its *full*
    // wait — from the moment it became Ready, not from recovery.  The
    // enqueue time is persisted on the TaskRecord (`ready_at`), so the
    // rebuilt server picks up where the crashed one left off.
    let t = ProcessBuilder::new("Waiter")
        .activity("W", "noop", |t| t)
        .build()
        .unwrap();
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&t).unwrap();
    let mut trace = Trace::empty();
    // The instance is suspended before anything dispatches; the server
    // crashes and recovers mid-wait, and the operator resumes at 300 s.
    trace.push(SimTime::from_secs(60), TraceEventKind::ServerCrash);
    trace.push(SimTime::from_secs(120), TraceEventKind::ServerRecover);
    trace.push(SimTime::from_secs(300), TraceEventKind::OperatorResume);
    rt.install_trace(&trace);
    let id = rt.submit("Waiter", BTreeMap::new()).unwrap();
    rt.suspend(id).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    let starts = rt.awareness().of_kind(rt.store(), "task.start").unwrap();
    let queue_ms = starts
        .iter()
        .find_map(|e| match &e.kind {
            bioopera_core::EventKind::TaskStart { queue_ms, .. } => Some(*queue_ms),
            _ => None,
        })
        .expect("the task must have started");
    // The wait spans the whole outage (~300 s); a stamp re-taken at
    // recovery would report only the post-recovery slice (~180 s).
    assert!(
        queue_ms >= 290_000,
        "queue wait must span the server outage, got {queue_ms} ms"
    );
}

fn stale_completion_after_abort_is_recorded_not_fatal(policy: Option<TieredPolicy>) {
    // Abort an instance while a job is in flight: the completion arrives
    // for a task whose instance is terminal.  The runtime must survive
    // (no panic, no error) — at most noting the anomaly — and the
    // remaining workload must keep running.
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&fanout_template(4, 0)).unwrap();
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    let other = rt.submit("Fanout", BTreeMap::new()).unwrap();
    // Abort the first instance almost immediately — its Gen job (1 s
    // cost, 2 s latency) is still in flight.
    rt.abort(id).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Aborted));
    assert_eq!(rt.instance_status(other), Some(InstanceStatus::Completed));
}

fn store_survives_and_instance_is_queryable_after_manual_crash(policy: Option<TieredPolicy>) {
    let mut rt = runtime(small_cluster(), policy);
    rt.register_template(&fanout_template(4, 0)).unwrap();
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.crash_server().unwrap();
    assert!(rt.instances().is_empty(), "volatile state gone");
    rt.recover_server().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Running));
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(4))
    );
}

/// Every roll of the store is a spill, so with no memtable budget the
/// WAL's length bounds the resident memtable, not the history.  After a
/// commit the live WAL holds fewer than `compact_wal_bytes` (the commit
/// that reaches it rolls), and each memtable entry came from a put in that
/// WAL.  The entry costs its key and value plus the store's 48 B
/// `ENTRY_OVERHEAD`; the put costs them plus 10 B of tag, space and
/// lengths, and its frame more.  So the memtable holds at most 48 / 10 of
/// the WAL's bytes.  (The runtime deletes nothing: no tombstone to price.)
fn the_memtable_stays_within_the_wal_roll(policy: Option<TieredPolicy>) {
    const WAL_BYTES: u64 = 2 * 1024;
    let bound = WAL_BYTES * 48 / 10;
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(20),
        compact_wal_bytes: WAL_BYTES,
        tiered: policy,
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), small_cluster(), library(), cfg).unwrap();
    rt.register_template(&fanout_template(24, 0)).unwrap();
    let mut trace = Trace::empty();
    trace.push(SimTime::from_secs(100), TraceEventKind::ServerCrash);
    trace.push(SimTime::from_secs(160), TraceEventKind::ServerRecover);
    rt.install_trace(&trace);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    let mut steps = 0;
    loop {
        let held = rt.store().stats().memtable_bytes;
        assert!(
            held < bound,
            "step {steps}: the memtable holds {held} B, over {bound} B"
        );
        if !rt.step().unwrap() {
            break;
        }
        steps += 1;
    }
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(24))
    );
    assert!(rt.store().stats().spills > 0, "the run never rolled");
}

/// Status, whiteboard and task states of each of `ids`.
type Finished = Vec<(
    Option<InstanceStatus>,
    Option<BTreeMap<String, Value>>,
    BTreeMap<String, TaskState>,
)>;

fn finished(rt: &Runtime<MemDisk>, ids: &[InstanceId]) -> Finished {
    ids.iter()
        .map(|id| {
            let states = rt.task_records(*id).map_or_else(BTreeMap::new, |tasks| {
                tasks.iter().map(|(p, r)| (p.clone(), r.state)).collect()
            });
            (rt.instance_status(*id), rt.whiteboard(*id).cloned(), states)
        })
        .collect()
}

/// A crash inside a multi-frame commit keeps a prefix of its batches —
/// some instances' records and not others', the history round last — and
/// a fresh runtime booted on what survived still finishes every instance
/// as the crash-free run does, durably: a further boot finds every
/// record as the run left it.  Two commits are torn at each frame
/// boundary: the step whose pump grants the first task of three
/// instances, and the recovery that rewinds those grants.
fn a_torn_runtime_append_converges(policy: Option<TieredPolicy>) {
    let boot = |disk: &MemDisk| {
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_secs(20),
            tiered: policy,
            ..Default::default()
        };
        let mut rt = Runtime::new(disk.clone(), small_cluster(), library(), cfg).unwrap();
        rt.register_template(&fanout_template(6, 0)).unwrap();
        rt
    };
    let start = |disk: &MemDisk| {
        let mut rt = boot(disk);
        let ids: Vec<InstanceId> = (0..3)
            .map(|_| rt.submit("Fanout", BTreeMap::new()).unwrap())
            .collect();
        (rt, ids)
    };
    let durable = |disk: &MemDisk, rt: Runtime<MemDisk>, ids: &[InstanceId]| -> Finished {
        let done = finished(&rt, ids);
        drop(rt);
        assert_eq!(finished(&boot(disk), ids), done, "a reboot moved a record");
        done
    };
    let finish = |disk: &MemDisk, ids: &[InstanceId]| -> Finished {
        let mut rt = boot(disk);
        rt.run_to_completion().unwrap();
        durable(disk, rt, ids)
    };
    let oracle_disk = MemDisk::new();
    let (mut rt, ids) = start(&oracle_disk);
    // The first step whose grants span more than one instance.
    let mut granting = 0;
    loop {
        let before = rt.in_flight_jobs();
        rt.step().unwrap();
        let granted: std::collections::BTreeSet<InstanceId> = rt
            .in_flight_jobs()
            .into_iter()
            .filter(|job| !before.contains(job))
            .map(|(id, _, _)| id)
            .collect();
        if granted.len() > 1 {
            break;
        }
        granting += 1;
    }
    rt.run_to_completion().unwrap();
    let oracle = durable(&oracle_disk, rt, &ids);
    assert!(oracle
        .iter()
        .all(|(status, _, _)| *status == Some(InstanceStatus::Completed)));

    let grants = common::tears::tear_at_each_frame(
        |disk, plan| {
            let (mut rt, ids) = start(disk);
            for _ in 0..granting {
                rt.step().unwrap();
            }
            disk.set_fault_plan(Some(plan));
            assert!(rt.step().is_err(), "the torn append fails the step");
            ids
        },
        |disk, ids, _| finish(disk, &ids),
    );
    let recoveries = common::tears::tear_at_each_frame(
        |disk, plan| {
            let (mut rt, ids) = start(disk);
            for _ in 0..=granting {
                rt.step().unwrap();
            }
            rt.crash_server().unwrap();
            disk.set_fault_plan(Some(plan));
            assert!(rt.recover_server().is_err(), "the torn append fails it");
            ids
        },
        |disk, ids, _| finish(disk, &ids),
    );
    // Three instances' batches and the history round: five cuts each.
    for (what, tears) in [("grants", &grants), ("recovery", &recoveries)] {
        assert!(tears.len() >= 5, "{what}: {} cuts", tears.len());
        for (cut, finished) in tears.iter().enumerate() {
            assert_eq!(finished, &oracle, "{what}, cut {cut}");
        }
    }
}

/// Run `call` and check it made at most one disk mutation of `disk`.
fn one_append<T>(disk: &MemDisk, what: &str, call: impl FnOnce() -> T) -> T {
    let before = disk.mutation_count();
    let out = call();
    let made = disk.mutation_count() - before;
    assert!(made <= 1, "{what}: {made} appends");
    out
}

/// The runtime's twin of the sharded engine's `a_round_is_one_append…`
/// and `a_recovery_is_one_append`: a step, every public call that changes
/// an instance, and a server recovery each only mark what they write, and
/// one commit stores it in one append — a batch per dirty instance, the
/// node-health records, the history round.  The store is untiered and its
/// WAL never rolls, so every disk mutation is an append (and the store's
/// open, inside the recovery, writes nothing over an image with no torn
/// tail).  A pump that grants several tasks at once is among the steps.
#[test]
fn a_runtime_step_is_one_append() {
    let disk = MemDisk::new();
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(20),
        compact_wal_bytes: u64::MAX,
        ..Default::default()
    };
    let mut rt = Runtime::new(disk.clone(), small_cluster(), library(), cfg).unwrap();
    let evented = ProcessBuilder::new("Evented")
        .whiteboard_default("threshold", TypeTag::Float, Value::Float(80.0))
        .activity("A", "noop", |t| t)
        .on_event(
            "retune",
            EventAction::SetData("threshold".into(), Expr::Lit(Value::Float(95.0))),
        )
        .on_event("pause", EventAction::Suspend)
        .on_event("go", EventAction::Resume)
        .build()
        .unwrap();
    rt.register_template(&fanout_template(8, 0)).unwrap();
    rt.register_template(&evented).unwrap();

    let fan = one_append(&disk, "submit", || rt.submit("Fanout", BTreeMap::new())).unwrap();
    let ev = one_append(&disk, "submit", || rt.submit("Evented", BTreeMap::new())).unwrap();
    for event in ["retune", "pause", "go"] {
        one_append(&disk, event, || rt.signal_event(ev, event)).unwrap();
    }
    let doomed = one_append(&disk, "submit", || rt.submit("Fanout", BTreeMap::new())).unwrap();
    one_append(&disk, "abort", || rt.abort(doomed)).unwrap();

    // Step until the fan is out, granting its children several at a time.
    let mut widest = 0;
    while rt.in_flight_jobs().len() < 4 {
        let started = rt.awareness().index().count("task.start");
        assert!(one_append(&disk, "step", || rt.step()).unwrap());
        widest = widest.max(rt.awareness().index().count("task.start") - started);
    }
    assert!(
        widest >= 3,
        "no step granted several tasks (widest {widest})"
    );
    one_append(&disk, "suspend", || rt.suspend(fan)).unwrap();
    one_append(&disk, "resume", || rt.resume(fan)).unwrap();
    one_append(&disk, "restart", || rt.restart_instance(fan)).unwrap();
    one_append(&disk, "step", || rt.step()).unwrap();
    rt.crash_server().unwrap();
    one_append(&disk, "recover", || rt.recover_server()).unwrap();
    assert_eq!(rt.awareness().index().count("server.recover"), 1);
    while one_append(&disk, "step", || rt.step()).unwrap() {}
    assert_eq!(rt.instance_status(fan), Some(InstanceStatus::Completed));

    let again = one_append(&disk, "recompute", || rt.recompute(fan, &["Merge"])).unwrap();
    while one_append(&disk, "step", || rt.step()).unwrap() {}
    assert_eq!(rt.instance_status(again), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(again).unwrap()["total"],
        Value::Int(expected_total(8))
    );
}

/// The serial runtime reports its recovery as the sharded engine does.
/// A fan of two on a one-slot node crashes with one child granted and
/// one queued; a torn tail is left behind the log.  The report counts the
/// one instance read, the lost grant and the requeue, the one record the
/// rule rewound (the queued one is already stamped), the log replayed and
/// the tail truncated — and the boot before it read nothing.
#[test]
fn a_runtime_recovery_reports_what_it_read_found_and_wrote() {
    let disk = MemDisk::new();
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(20),
        compact_wal_bytes: u64::MAX,
        ..Default::default()
    };
    let one_slot = Cluster::new("one", vec![NodeSpec::new("n1", 1, 500, "linux")]);
    let mut rt = Runtime::new(disk.clone(), one_slot, library(), cfg).unwrap();
    assert_eq!(rt.recovery_report().instances, 0, "the boot read nothing");
    rt.register_template(&fanout_template(2, 0)).unwrap();
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    let children = |rt: &Runtime<MemDisk>, state| {
        let records = rt.task_records(id).unwrap().values();
        records
            .filter(|r| r.is_parallel_child() && r.state == state)
            .count()
    };
    while children(&rt, TaskState::Dispatched) == 0 {
        assert!(rt.step().unwrap(), "finished before the fan went out");
    }
    assert_eq!(children(&rt, TaskState::Ready), 1);
    rt.crash_server().unwrap();
    let wals = disk.list().unwrap().into_iter();
    let wal = wals.filter(|n| n.starts_with("wal-")).max().unwrap();
    let logged = disk.file_len(&wal).unwrap() as u64;
    disk.append(&wal, &[0xA5; 7]).unwrap();
    rt.recover_server().unwrap();
    let expected = RecoveryReport {
        instances: 1,
        requeue: 1,
        lost_grant: 1,
        lost_spawn: 0,
        rewritten: 1,
        pending_rerouted: 0,
        wal_replayed_bytes: logged,
        wal_truncated_bytes: 7,
        runs: 0,
    };
    assert_eq!(rt.recovery_report(), expected);
    assert_eq!(rt.run_to_completion().unwrap(), RunOutcome::Completed);
    assert_eq!(rt.whiteboard(id).unwrap()["total"], Value::Int(1));
}

/// The squeezed store's spills and merges reach the awareness index as
/// `store.*` events, through the history, without polling.
#[test]
fn a_tiered_runtime_surfaces_its_spills_as_store_events() {
    let mut rt = runtime(small_cluster(), Some(common::squeezed()));
    rt.register_template(&fanout_template(8, 0)).unwrap();
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(8))
    );
    let stats = rt.store().stats();
    assert!(stats.spills > 0, "no spills under a 512-byte budget");
    assert!(stats.runs > 0 || stats.run_merges > 0);
    let io = rt.awareness().index().store_io();
    assert!(
        io.get("spills").copied().unwrap_or(0) > 0,
        "store_io missing spills: {io:?}"
    );
    assert!(rt.awareness().index().count("store.spill") > 0);
}

/// Windowed retention retires the stream's records below its summary
/// without losing an aggregate, and recovery does not need them.
#[test]
fn history_retention_retires_rolled_up_records_and_recovery_survives() {
    let disk = MemDisk::new();
    let tiered_runtime = |disk: &MemDisk| {
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_secs(20),
            tiered: Some(common::squeezed()),
            ..Default::default()
        };
        Runtime::new(disk.clone(), small_cluster(), library(), cfg).unwrap()
    };
    let mut rt = tiered_runtime(&disk);
    rt.set_rollup_every(8);
    rt.set_history_retention(true);
    rt.register_template(&fanout_template(10, 0)).unwrap();
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));

    // The watermark advanced with the summary and physically retired the
    // covered prefix: no stream record below it survives.
    let (start, below) = rt
        .store()
        .retention(Space::History)
        .expect("retention never advanced");
    assert_eq!(start, "sev/");
    assert!(rt
        .store()
        .scan_prefix(Space::History, "ev/")
        .unwrap()
        .is_empty());
    let first_raw = rt
        .store()
        .scan_prefix(Space::History, "sev/")
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .next()
        .expect("tail must keep raw events");
    assert!(
        first_raw >= below,
        "raw record {first_raw} survives below watermark {below}"
    );
    let retired = rt.awareness().index().store_io().get("retired").copied();
    assert!(
        retired.unwrap_or(0) > 0,
        "retention advanced but retired no records"
    );

    // An O(tail) reopen over the retired log answers the durable counts
    // the live index accumulated, and the digest goes on from the summary.
    let tail = Awareness::open_tail(rt.store()).unwrap();
    assert_eq!(
        tail.index().count("task.end"),
        rt.awareness().index().count("task.end")
    );
    assert_eq!(tail.index().run_ms(), rt.awareness().index().run_ms());
    assert!(tail.index().count("task.end") > 0);

    // A fresh runtime over the same disk reopens and completes new work.
    let digest = rt.history_digest();
    drop(rt);
    let mut rt = tiered_runtime(&disk);
    assert_eq!(rt.history_digest(), digest);
    let id2 = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id2), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id2).unwrap()["total"],
        Value::Int(expected_total(10))
    );
}

/// The runtime's history is the stream: each event once under `sev/`,
/// with its virtual time, in the frame of the commit it rides.  Its digest
/// is a refold of what `sev/` holds, its index counts what `sev/` holds,
/// and both go on across a server crash and a reopen from the summary.
fn the_runtime_history_is_one_stream_with_a_digest(policy: Option<TieredPolicy>) {
    let disk = MemDisk::new();
    let boot = |disk: &MemDisk| {
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_secs(20),
            tiered: policy,
            ..Default::default()
        };
        Runtime::new(disk.clone(), small_cluster(), library(), cfg).unwrap()
    };
    let stream = |rt: &Runtime<MemDisk>| {
        let persisted = history::persisted_events(rt.store()).unwrap();
        let (digest, counts, len) = common::refold(&persisted);
        assert_eq!(rt.history_digest(), digest);
        let index = rt.awareness().index();
        let indexed: BTreeMap<String, u64> = index
            .counts_by_kind()
            .into_iter()
            .map(|(k, n)| (k, n as u64))
            .collect();
        assert_eq!(indexed, counts);
        assert_eq!(index.len() as u64, len);
        persisted
    };
    let mut rt = boot(&disk);
    rt.set_rollup_every(8);
    rt.register_template(&fanout_template(6, 0)).unwrap();
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    for _ in 0..12 {
        rt.step().unwrap();
    }
    let before = stream(&rt);
    assert!(
        before.iter().all(|e| e.at.is_some()),
        "a record without its time"
    );
    assert!(before.windows(2).all(|w| w[0].at <= w[1].at));
    rt.crash_server().unwrap();
    rt.recover_server().unwrap();
    let after = stream(&rt);
    assert_eq!(after[..before.len()], before[..]);
    assert_eq!(rt.awareness().index().count("server.recover"), 1);
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    let done = stream(&rt);
    assert!(rt.store().get(Space::History, "summary").unwrap().is_some());
    assert!(rt
        .store()
        .scan_prefix(Space::History, "ev/")
        .unwrap()
        .is_empty());
    assert!(rt.store().get(Space::History, "rollup").unwrap().is_none());
    let digest = rt.history_digest();
    drop(rt);
    let rt = boot(&disk);
    assert_eq!(rt.history_digest(), digest);
    assert_eq!(stream(&rt), done);
    assert_eq!(
        rt.awareness().all(rt.store()).unwrap().len(),
        done.len(),
        "the reopened model reads the whole stream"
    );
}

/// A store the runtime wrote before it joined the stream holds `ev/`
/// history and a `rollup`, and no `sev/`.  The first open rewrites it: the
/// old events are round 0 of the stream, in sequence order, `ev/` and
/// `rollup` are gone, and a summary counts everything.  So every reopen —
/// a server recovery, a fresh runtime after the run — counts each old
/// event once, as a record of the one stream, digested with it.
fn a_store_written_before_the_stream_is_counted_once(policy: Option<TieredPolicy>) {
    let disk = MemDisk::new();
    let mut store = Store::open_with(disk.clone(), policy).unwrap();
    let mut writer = EvWriter::new();
    writer.set_every(8);
    for i in 0..30u64 {
        let kind = match i % 3 {
            0 => bioopera_core::EventKind::NodeCrash { node: "n2".into() },
            1 => bioopera_core::EventKind::NodeRecover { node: "n2".into() },
            _ => bioopera_core::EventKind::ClusterUpgrade { cpus: 2 },
        };
        writer.record(SimTime::from_secs(i), kind);
        if i % 7 == 6 {
            writer.flush(&mut store);
        }
    }
    writer.flush(&mut store);
    let round_zero = writer.as_round_zero();
    assert_eq!(round_zero.len(), 30);
    drop(store);

    let counted_once = |rt: &Runtime<MemDisk>| {
        let stream = history::persisted_events(rt.store()).unwrap();
        assert_eq!(stream[..round_zero.len()], round_zero[..], "round 0");
        assert!(stream[round_zero.len()..].iter().all(|e| e.round > 0));
        let (digest, counts, len) = common::refold(&stream);
        assert_eq!(rt.history_digest(), digest, "the digest is the stream's");
        let index = rt.awareness().index();
        let indexed: BTreeMap<String, u64> = index
            .counts_by_kind()
            .into_iter()
            .map(|(k, n)| (k, n as u64))
            .collect();
        assert_eq!(indexed, counts);
        assert_eq!(index.len() as u64, len);
        assert_eq!(index.nodes_down(), writer.index().nodes_down());
        let all = rt.awareness().all(rt.store()).unwrap();
        assert_eq!(all.len(), index.len());
        assert_eq!(&all[..round_zero.len()], writer.events());
        let store = rt.store();
        assert!(store.scan_prefix(Space::History, "ev/").unwrap().is_empty());
        assert!(store.get(Space::History, "rollup").unwrap().is_none());
        assert!(store.get(Space::History, "summary").unwrap().is_some());
    };
    let boot = || {
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_secs(20),
            tiered: policy,
            ..Default::default()
        };
        Runtime::new(disk.clone(), small_cluster(), library(), cfg).unwrap()
    };
    let mut rt = boot();
    assert_eq!(rt.awareness().index().len(), 30);
    rt.register_template(&fanout_template(4, 0)).unwrap();
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.step().unwrap();
    counted_once(&rt);
    rt.crash_server().unwrap();
    rt.recover_server().unwrap();
    counted_once(&rt);
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    counted_once(&rt);
    drop(rt);
    let rt = boot();
    counted_once(&rt);
    assert_eq!(rt.awareness().index().count("server.recover"), 1);
}

/// `Grand` runs `Parent` (`Sub(Chain) -> After`) as a subprocess: the CPU
/// Grand's `Sub` records is all its child ran, the chain inside included
/// — A 10 + B 20 + After 20 — on either driver.
#[test]
fn a_nested_subprocess_reports_all_its_cpu_on_both_drivers() {
    let grand = ProcessBuilder::new("Grand")
        .whiteboard_default("x", TypeTag::Int, Value::Int(21))
        .subprocess("Sub", "Parent", |t| t.input("x", TypeTag::Int))
        .flow_from_whiteboard("x", "Sub", "x")
        .build()
        .unwrap();
    let templates = [common::chain_template(), common::parent_template(), grand];

    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(20),
        ..Default::default()
    };
    // Nodes at the reference speed: a program's CPU is its cost.
    let cluster = Cluster::new("ref", vec![NodeSpec::new("n1", 2, 500, "linux")]);
    let mut rt = Runtime::new(MemDisk::new(), cluster, common::library(), cfg).unwrap();
    for t in &templates {
        rt.register_template(t).unwrap();
    }
    let id = rt.submit("Grand", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(rt.task_record(id, "Sub").unwrap().cpu_ms, 50.0, "Runtime");

    let store = Store::open(MemDisk::new()).unwrap();
    let mut eng = ShardEngine::new(store, common::library(), ShardConfig::default()).unwrap();
    for t in templates {
        eng.register_template(t).unwrap();
    }
    let id = eng.submit("Grand", BTreeMap::new()).unwrap();
    assert!(eng.run_to_completion().unwrap().is_completed());
    let (_, _, inst) = eng.slots().find(|(_, at, _)| *at == id).unwrap();
    assert_eq!(inst.tasks["Sub"].cpu_ms, 50.0, "ShardEngine");
}

common::on_each_policy!(
    fanout_completes_with_correct_result,
    parallelism_reduces_wall_time,
    node_crash_is_masked_and_work_completes,
    whole_cluster_failure_recovers,
    server_crash_resumes_without_losing_completed_work,
    network_outage_buffers_results_at_pecs,
    disk_full_forces_reruns_until_freed,
    operator_suspend_drains_and_resume_continues,
    api_suspend_quiesces_run_and_resume_completes,
    program_failure_exhausts_retries_then_aborts,
    ignore_policy_lets_process_complete_despite_failure,
    sphere_compensation_runs_on_abort,
    subprocess_late_binding_uses_template_at_start_time,
    parallel_subprocess_bodies_run_one_instance_per_element,
    lost_spawn_is_rewound_and_respawned_after_server_recovery,
    event_handlers_set_data_and_suspend,
    placement_constraints_honored,
    what_if_planner_reports_affected_jobs,
    migration_rescues_starved_jobs,
    deterministic_replay_same_disk_content,
    queue_wait_metric_survives_server_crash,
    stale_completion_after_abort_is_recorded_not_fatal,
    store_survives_and_instance_is_queryable_after_manual_crash,
    the_runtime_history_is_one_stream_with_a_digest,
    a_store_written_before_the_stream_is_counted_once,
    the_memtable_stays_within_the_wal_roll,
    a_torn_runtime_append_converges,
);
