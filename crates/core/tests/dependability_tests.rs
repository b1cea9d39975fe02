//! Integration tests for the dependability policy layer: retry budgets
//! with backoff, node quarantine, poison escalation, and the persistence
//! of all of it across server crashes.
//!
//! The headline scenario is the masked-failure requeue livelock: a node
//! that silently kills every job it is handed reports a perfect load of
//! zero, so the least-loaded policy keeps picking it and the pre-fix
//! engine requeues the same tasks forever.  With the policies on, the run
//! completes on the pool's healthy capacity with a bounded retry count.

use bioopera_cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera_core::state::{InstanceStatus, TaskState};
use bioopera_core::{
    ActivityLibrary, DependabilityConfig, HealthState, ProgramOutput, Runtime, RuntimeConfig,
};
use bioopera_ocr::model::{ExternalBinding, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{MemDisk, Space};
use std::collections::BTreeMap;

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
        Ok(ProgramOutput::from_fields(
            [("value", Value::Int(item * item))],
            60_000.0,
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
    lib
}

fn fanout_template(count: i64) -> ProcessTemplate {
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

fn expected_total(n: i64) -> i64 {
    (0..n).map(|i| i * i).sum()
}

/// Two equal nodes; `n1` sorts first, so it wins every least-loaded tie —
/// ties never accidentally rescue the run from the flaky node.
fn two_nodes() -> Cluster {
    Cluster::new(
        "pair",
        vec![
            NodeSpec::new("n1", 2, 500, "linux"),
            NodeSpec::new("n2", 2, 500, "linux"),
        ],
    )
}

/// A trace that turns `node` into a job killer at t=1 ms, forever.
fn flaky_forever(node: &str) -> Trace {
    let mut trace = Trace::empty();
    trace.push_labeled(
        SimTime::from_millis(1),
        TraceEventKind::NodeFlaky {
            node: node.into(),
            kills: u32::MAX,
        },
        "node turns flaky",
    );
    trace
}

fn flaky_runtime(dep: DependabilityConfig, tasks: i64) -> Runtime<MemDisk> {
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(20),
        dependability: dep,
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), two_nodes(), library(), cfg).unwrap();
    rt.register_template(&fanout_template(tasks)).unwrap();
    rt.install_trace(&flaky_forever("n1"));
    rt
}

fn count(rt: &Runtime<MemDisk>, kind: &str) -> u64 {
    rt.awareness()
        .index()
        .counts_by_kind()
        .into_iter()
        .find(|(k, _)| k == kind)
        .map(|(_, n)| n as u64)
        .unwrap_or(0)
}

#[test]
fn flaky_node_run_completes_with_bounded_retries_and_quarantine() {
    let dep = DependabilityConfig::default();
    let budget = dep.system_retry_budget as u64;
    let mut rt = flaky_runtime(dep, 6);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(6))
    );
    // Retries stay under the acceptance ceiling: budget × tasks.
    let tasks = 8; // Gen + 6 fan children + Merge
    let retries = count(&rt, "task.systemfail");
    assert!(retries >= 1, "the flaky node must be hit at least once");
    assert!(
        retries <= budget * tasks,
        "retries {retries} exceed ceiling {}",
        budget * tasks
    );
    // The killer was quarantined and backoff timers were armed.
    assert!(count(&rt, "node.quarantine") >= 1);
    assert!(count(&rt, "task.backoff") >= 1);
    assert_eq!(count(&rt, "task.poisoned"), 0);
    let health = rt.node_health("n1").expect("n1 has a health record");
    assert!(health.consecutive_failures > 0 || health.is_quarantined());
}

#[test]
fn instant_requeue_engine_livelocks_on_the_same_trace() {
    // The pre-fix engine: no budgets, no backoff, no quarantine.  The
    // identical scenario never completes; the dispatch counter grows
    // without bound while the instance makes no progress.
    let mut rt = flaky_runtime(DependabilityConfig::disabled(), 6);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    let mut steps = 0u64;
    while steps < 120_000 {
        match rt.step() {
            Ok(true) => steps += 1,
            _ => break,
        }
        // Stop as soon as the livelock is proven; it would run forever.
        if steps.is_multiple_of(1_000) && count(&rt, "task.start") > 10_000 {
            break;
        }
    }
    assert_ne!(
        rt.instance_status(id),
        Some(InstanceStatus::Completed),
        "the livelock should prevent completion"
    );
    assert!(
        count(&rt, "task.start") > 10_000,
        "expected >10^4 dispatches, got {}",
        count(&rt, "task.start")
    );
    assert_eq!(count(&rt, "node.quarantine"), 0);
    assert_eq!(count(&rt, "task.backoff"), 0);
}

/// The `retry` fields of all persisted task records, keyed by store key.
fn retry_fields(rt: &Runtime<MemDisk>) -> BTreeMap<String, Option<Box<bioopera_core::RetryState>>> {
    rt.store()
        .scan_prefix(Space::Instance, "inst/")
        .unwrap()
        .into_iter()
        .filter(|(k, _)| k.contains("/task/"))
        .map(|(k, v)| {
            let rec: bioopera_core::TaskRecord = serde_json::from_slice(&v).unwrap();
            (k, rec.retry)
        })
        .collect()
}

#[test]
fn backoff_and_quarantine_state_round_trip_crash_recover_byte_identically() {
    let mut rt = flaky_runtime(DependabilityConfig::default(), 6);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    // Run until the flaky node is quarantined and at least one task is
    // parked on a backoff deadline.
    let mut steps = 0u64;
    while count(&rt, "node.quarantine") < 1 || count(&rt, "task.backoff") < 1 {
        assert!(rt.step().unwrap(), "scenario ended early");
        steps += 1;
        assert!(steps < 50_000, "policy never engaged");
    }
    let health_before = rt
        .store()
        .scan_prefix(Space::Configuration, "health/")
        .unwrap();
    assert!(
        !health_before.is_empty(),
        "quarantine must persist a health record"
    );
    let retry_before = retry_fields(&rt);
    assert!(
        retry_before.values().any(|v| v.is_some()),
        "some task must carry persisted retry state"
    );

    rt.crash_server().unwrap();
    rt.recover_server().unwrap();

    // The persisted policy state is untouched by crash + rebuild.
    let health_after = rt
        .store()
        .scan_prefix(Space::Configuration, "health/")
        .unwrap();
    assert_eq!(health_before, health_after, "health bytes changed");
    assert_eq!(retry_before, retry_fields(&rt), "retry state changed");
    // And the rebuilt volatile view agrees: n1 is still quarantined.
    assert_eq!(
        rt.node_health("n1").map(|h| h.state),
        Some(HealthState::Quarantined)
    );

    // The run still finishes correctly: pending backoff timers were
    // re-armed from the persisted deadlines.
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(6))
    );
}

#[test]
fn poison_task_escalates_after_failing_on_distinct_nodes() {
    // Every node kills every job: each task eventually system-fails on
    // `poison_distinct_nodes` distinct nodes and is escalated to a
    // program failure instead of bouncing forever.
    let cluster = Cluster::new(
        "all-bad",
        vec![
            NodeSpec::new("n1", 1, 500, "linux"),
            NodeSpec::new("n2", 1, 500, "linux"),
            NodeSpec::new("n3", 1, 500, "linux"),
        ],
    );
    let mut trace = Trace::empty();
    for n in ["n1", "n2", "n3"] {
        trace.push(
            SimTime::from_millis(1),
            TraceEventKind::NodeFlaky {
                node: n.into(),
                kills: u32::MAX,
            },
        );
    }
    // The default 10-minute quarantine interval is much longer than the
    // backoff ladder, so each quarantined killer stays benched and the
    // task is forced onto a fresh node each time.
    let dep = DependabilityConfig {
        poison_distinct_nodes: 3,
        ..Default::default()
    };
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(20),
        dependability: dep,
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster, library(), cfg).unwrap();
    rt.register_template(&fanout_template(2)).unwrap();
    rt.install_trace(&trace);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    // The run terminates (no livelock) with the instance aborted by the
    // escalated failures — `Gen` has no retries, so the default policy
    // aborts.
    let _ = rt.run_to_completion();
    assert_ne!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert!(
        count(&rt, "task.poisoned") >= 1,
        "no poison escalation recorded"
    );
    let gen = rt.task_record(id, "Gen").unwrap();
    assert_eq!(gen.state, TaskState::Failed);
    let retry = gen.retry.as_ref().expect("gen carries retry state");
    assert_eq!(retry.failed_nodes.len(), 3, "three distinct killers");
}

#[test]
fn node_crash_during_server_outage_requeues_lost_tasks_exactly_once() {
    // Timeline: jobs start on all three nodes; the server crashes at 30 s;
    // n1 dies (taking its jobs) at 35 s and is repaired at 40 s; the
    // server recovers at 90 s.  Rebuild must requeue exactly the lost
    // dispatched tasks — every task still runs to completion exactly once
    // and the merged result is unchanged.
    let cluster = Cluster::new(
        "trio",
        vec![
            NodeSpec::new("n1", 2, 500, "linux"),
            NodeSpec::new("n2", 2, 500, "linux"),
            NodeSpec::new("n3", 1, 1000, "solaris"),
        ],
    );
    let mut trace = Trace::empty();
    trace
        .push(SimTime::from_secs(30), TraceEventKind::ServerCrash)
        .push(
            SimTime::from_secs(35),
            TraceEventKind::NodeDown("n1".into()),
        )
        .push(SimTime::from_secs(40), TraceEventKind::NodeUp("n1".into()))
        .push(SimTime::from_secs(90), TraceEventKind::ServerRecover);
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(20),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster, library(), cfg).unwrap();
    rt.register_template(&fanout_template(8)).unwrap();
    rt.install_trace(&trace);
    let id = rt.submit("Fanout", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    assert_eq!(
        rt.whiteboard(id).unwrap()["total"],
        Value::Int(expected_total(8))
    );
    // No loss, no double-run: each of the 10 tasks (Gen + 8 + Merge) ends
    // exactly once.
    assert_eq!(count(&rt, "task.end"), 10);
    for i in 0..8 {
        let rec = rt.task_record(id, &format!("Fan[{i}]")).unwrap();
        assert_eq!(rec.state, TaskState::Ended, "Fan[{i}]");
    }
}
