//! One reaction, two routers: the same templates run on any driver end as
//! they end on a `Runtime` on three two-CPU nodes — on a 1×1 and a 4×2
//! `ShardEngine` and a forwarding wrapper, on both store policies.
//!
//! Both drivers route what `Instance::react` decides; this holds them to
//! it from outside, through the driver surface alone.  Every instance — named by its root's submission and
//! the subprocess tasks leading to it, since the drivers number children
//! differently — must reach the same terminal status, whiteboard and
//! per-task CPU, and note the same sequence of the reaction's own event
//! kinds; a logging compensation program must see the same inputs.  What
//! only one driver notes is left out by name, each with its reason
//! ([`compared`]).

mod common;

use bioopera_core::{
    ActivityLibrary, Driver, EngineResult, EventKind, InstanceHeader, InstanceId, InstanceStatus,
    ProgramOutput, Runtime, RuntimeConfig, TaskMap,
};
use bioopera_ocr::model::{ExternalBinding, FailurePolicy, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{Expr, ProcessBuilder, ProcessTemplate};
use bioopera_store::{MemDisk, TieredPolicy};
use bioopera_workloads::toys;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

type Map = BTreeMap<String, Value>;

/// The inputs the compensation program `undo.log` ran on, in call order.
type Seen = Arc<Mutex<Vec<Map>>>;

/// The toys' programs, plus `ok`, `boom`, `odd_fails` (fails on an odd
/// item) and `undo.log`, which logs its inputs into `seen`.
fn library(seen: &Seen) -> ActivityLibrary {
    let mut lib = toys::library();
    lib.register("ok", |inputs| {
        let x = inputs.get("x").cloned().unwrap_or(Value::Int(1));
        Ok(ProgramOutput::from_fields([("y", x)], 1_000.0))
    });
    lib.register("boom", |_| Err("boom".to_string()));
    lib.register("odd_fails", |inputs| {
        match inputs.get("item").and_then(|v| v.as_int()) {
            Some(i) if i % 2 == 1 => Err(format!("item {i} is odd")),
            Some(i) => Ok(ProgramOutput::from_fields([("r", Value::Int(i))], 1_000.0)),
            None => Err("no item".to_string()),
        }
    });
    let seen = seen.clone();
    lib.register("undo.log", move |inputs| {
        seen.lock().unwrap().push(inputs.clone());
        Ok(ProgramOutput::from_fields([], 0.0))
    });
    lib
}

/// `Sub(Parent) -> Last`: a subprocess two levels deep.
fn grand() -> ProcessTemplate {
    ProcessBuilder::new("Grand")
        .whiteboard_default("x", TypeTag::Int, Value::Int(5))
        .subprocess("Sub", "Parent", |t| t.input("x", TypeTag::Int))
        .activity("Last", "ok", |t| t)
        .connect("Sub", "Last")
        .flow_from_whiteboard("x", "Sub", "x")
        .build()
        .unwrap()
}

/// `S1 -> S2 -> S3` in one sphere; `S3` fails and the sphere is
/// compensated, `S2` then `S1`, each by `undo.log` on its inputs: `S1`'s
/// come from the whiteboard, `S2`'s are mapped in from `S1`.  No task
/// writes the whiteboard, so the binding `Runtime` keeps from dispatch
/// time equals the one bound at compensation time.
fn sphere() -> ProcessTemplate {
    ProcessBuilder::new("Sphere")
        .whiteboard_default("x", TypeTag::Int, Value::Int(3))
        .activity("S1", "ok", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .activity("S2", "ok", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .activity("S3", "boom", |t| t)
        .connect("S1", "S2")
        .connect("S2", "S3")
        .flow_from_whiteboard("x", "S1", "x")
        .flow_to_task("S1", "y", "S2", "x")
        .sphere(
            "Atomic",
            ["S1", "S2", "S3"],
            [("S1", "undo.log"), ("S2", "undo.log")],
        )
        .on_failure("S3", FailurePolicy::CompensateSphere("Atomic".into()))
        .build()
        .unwrap()
}

/// One template per failure policy: `Alternative`, `Ignore` (a parallel
/// fan whose odd children fail), `Suspend` and the default `Abort`.
fn policies() -> Vec<ProcessTemplate> {
    let alternative = ProcessBuilder::new("Alternative")
        .activity("Start", "ok", |t| t)
        .activity("A", "boom", |t| t.retries(1))
        .activity("Alt", "ok", |t| t)
        .activity("B", "ok", |t| t)
        .connect("Start", "A")
        .connect_when("Start", "Alt", Expr::defined("Start.nothing"))
        .connect("A", "B")
        .connect("Alt", "B")
        .on_failure("A", FailurePolicy::Alternative("Alt".into()))
        .build()
        .unwrap();
    let ignore = ProcessBuilder::new("Ignore")
        .whiteboard_default("count", TypeTag::Int, Value::Int(5))
        .activity("Gen", "gen.list", |t| {
            t.input("count", TypeTag::Int)
                .output("items", TypeTag::List)
        })
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
        .flow_from_whiteboard("count", "Gen", "count")
        .flow_to_task("Gen", "items", "Fan", "items")
        .flow_to_task("Fan", "results", "After", "results")
        .on_failure("Fan", FailurePolicy::Ignore)
        .build()
        .unwrap();
    let suspend = ProcessBuilder::new("Suspend")
        .activity("Start", "ok", |t| t)
        .activity("A", "boom", |t| t)
        .connect("Start", "A")
        .on_failure("A", FailurePolicy::Suspend)
        .build()
        .unwrap();
    let abort = ProcessBuilder::new("Abort")
        .activity("Start", "ok", |t| t)
        .activity("A", "boom", |t| t.retries(2))
        .connect("Start", "A")
        .build()
        .unwrap();
    vec![alternative, ignore, suspend, abort]
}

/// Every template the sets below submit.
fn templates() -> Vec<ProcessTemplate> {
    let mut all = toys::templates().to_vec();
    all.extend([grand(), sphere()]);
    all.extend(policies());
    all
}

/// The roots each set submits: a template name and its initial whiteboard.
fn sets() -> Vec<(&'static str, Vec<(String, Map)>)> {
    let toys = (0..3)
        .flat_map(|tmpl| [(tmpl, 2), (tmpl, 5)])
        .map(|(tmpl, knob)| {
            let (name, initial) = toys::toy(tmpl, knob);
            (name.to_string(), initial)
        })
        .chain([("Grand".to_string(), Map::new())])
        .collect();
    let policies = policies()
        .into_iter()
        .map(|t| (t.name, Map::new()))
        .collect();
    vec![
        ("toys", toys),
        ("sphere", vec![("Sphere".to_string(), Map::new())]),
        ("policies", policies),
    ]
}

/// What one instance ended as.
#[derive(Debug, PartialEq)]
struct Ended {
    status: InstanceStatus,
    whiteboard: Map,
    /// Per-task CPU, rounded to whole milliseconds: the simulated nodes
    /// account CPU in float steps of their own.
    cpu_ms: BTreeMap<String, i64>,
    /// The reaction's events, in the order the driver noted them: label
    /// and task path.
    reacted: Vec<(String, Option<String>)>,
}

/// A run: every instance by name, and what `undo.log` saw, sorted (the
/// drivers compensate different instances in different orders).
type Run = (BTreeMap<String, Ended>, Vec<Map>);

/// Whether the differential compares events of `kind`.  It compares the
/// kinds the reaction itself decides; every other kind is left out here,
/// by name, with the reason.  (The other known difference is no event:
/// `Runtime` persists the dispatch-time binding on the record, the
/// stepper does not — record inputs are not compared, and [`sphere`]
/// writes no whiteboard.)
fn compared(kind: &EventKind) -> bool {
    match kind {
        EventKind::TaskCompensate { .. }
        | EventKind::InstanceSuspend { .. }
        | EventKind::InstanceComplete { .. }
        | EventKind::InstanceAbort { .. }
        | EventKind::SubprocessDuplicate { .. }
        | EventKind::StaleEvent { .. } => true,
        // Known difference: `Runtime` notes no task end or failure when a
        // child instance concludes its parent task; the stepper does.
        // Both note them for activities, with driver-only fields.
        EventKind::TaskEnd { .. } | EventKind::TaskFail { .. } => false,
        // Dispatch-only: each driver's dispatch notes these with fields of
        // its own (node, job, queue wait, attempts); `Runtime` alone notes
        // a child's start.
        EventKind::TaskStart { .. }
        | EventKind::TaskSystemFail { .. }
        | EventKind::TaskNonReport { .. }
        | EventKind::TaskDiskFull { .. }
        | EventKind::TaskBackoff { .. }
        | EventKind::TaskPoisoned { .. }
        | EventKind::TaskMigrate { .. }
        | EventKind::SubprocessStart { .. } => false,
        // Noted by each driver around the reaction, at a position of its
        // own (`Runtime` notes a resume after routing it).
        EventKind::InstanceStart { .. } | EventKind::InstanceResume { .. } => false,
        // Operator calls, the environment and the store: no instance's
        // reaction, and these runs make none but store events.
        EventKind::InstanceRecompute { .. }
        | EventKind::InstanceRestart { .. }
        | EventKind::EventSignal { .. }
        | EventKind::NodeCrash { .. }
        | EventKind::NodeRecover { .. }
        | EventKind::NodeQuarantine { .. }
        | EventKind::NodeProbation { .. }
        | EventKind::NodePartition { .. }
        | EventKind::NodeRejoin { .. }
        | EventKind::NodeLoad { .. }
        | EventKind::ClusterFailure
        | EventKind::ClusterRecover
        | EventKind::ClusterUpgrade { .. }
        | EventKind::ServerRecover { .. }
        | EventKind::OperatorSuspend
        | EventKind::OperatorResume
        | EventKind::StoreSpill { .. }
        | EventKind::StoreCompaction { .. }
        | EventKind::StoreRetention { .. }
        | EventKind::Legacy { .. } => false,
    }
}

/// Every instance as it ended, by name — a root by its template and
/// submission index among `roots`, a child by its parent's name and the
/// task it implements — from each instance's id, header and records and
/// the history's event kinds.
fn ended<'a>(
    instances: impl Iterator<Item = (InstanceId, &'a InstanceHeader, &'a TaskMap)>,
    roots: &[InstanceId],
    kinds: impl IntoIterator<Item = &'a EventKind>,
) -> BTreeMap<String, Ended> {
    let instances: Vec<_> = instances.collect();
    let headers: BTreeMap<InstanceId, &InstanceHeader> = instances
        .iter()
        .map(|(id, header, _)| (*id, *header))
        .collect();
    let name = |mut id: InstanceId| {
        let mut tail = String::new();
        while let Some((parent, task)) = &headers[&id].parent {
            tail = format!("/{task}{tail}");
            id = *parent;
        }
        let k = roots.iter().position(|r| *r == id).expect("a root");
        format!("{}#{k}{tail}", headers[&id].template)
    };
    let mut reacted = reacted_by_instance(kinds);
    instances
        .iter()
        .map(|(id, header, tasks)| {
            let ended = Ended {
                status: header.status,
                whiteboard: header.whiteboard.clone(),
                cpu_ms: cpu(tasks),
                reacted: reacted.remove(id).unwrap_or_default(),
            };
            (name(*id), ended)
        })
        .collect()
}

/// The reaction's events of each instance, in noted order.
fn reacted_by_instance<'a>(
    kinds: impl IntoIterator<Item = &'a EventKind>,
) -> BTreeMap<InstanceId, Vec<(String, Option<String>)>> {
    let mut by: BTreeMap<InstanceId, Vec<_>> = BTreeMap::new();
    for kind in kinds.into_iter().filter(|k| compared(k)) {
        let id = kind
            .instance()
            .expect("every compared kind names its instance");
        let path = kind.task_path().map(str::to_string);
        by.entry(id)
            .or_default()
            .push((kind.label().to_string(), path));
    }
    by
}

fn cpu(tasks: &TaskMap) -> BTreeMap<String, i64> {
    tasks
        .iter()
        .map(|(path, rec)| (path.clone(), rec.cpu_ms.round() as i64))
        .collect()
}

fn sorted(seen: &Seen) -> Vec<Map> {
    let mut seen = std::mem::take(&mut *seen.lock().unwrap());
    seen.sort_by_key(|m| format!("{m:?}"));
    seen
}

/// The set `roots` run to its end on the driver `build` makes.
fn run<E: Driver>(
    build: &impl Fn(MemDisk, ActivityLibrary) -> EngineResult<E>,
    roots: &[(String, Map)],
) -> Run {
    let seen = Seen::default();
    let mut eng = build(MemDisk::new(), library(&seen)).unwrap();
    for t in templates() {
        eng.register_template(&t).unwrap();
    }
    let ids: Vec<InstanceId> = roots
        .iter()
        .map(|(name, initial)| eng.submit(name, initial.clone()).unwrap())
        .collect();
    eng.run_to_completion().unwrap();
    let events = eng.persisted_events().unwrap();
    let instances = eng.instances().into_iter().map(|(id, _, _)| {
        let header = eng.instance_header(id).unwrap();
        (id, header, eng.task_records(id).unwrap())
    });
    let ended = ended(instances, &ids, events.iter().map(|e| &e.kind));
    (ended, sorted(&seen))
}

/// The reference: a `Runtime` on three two-CPU nodes.
fn oracle(
    disk: MemDisk,
    library: ActivityLibrary,
    policy: Option<TieredPolicy>,
) -> EngineResult<Runtime<MemDisk>> {
    let cfg = RuntimeConfig {
        tiered: policy,
        ..RuntimeConfig::default()
    };
    Runtime::new(disk, common::pool(&["w1", "w2", "w3"], 2), library, cfg)
}

/// Every set ends on the driver as it ends on a `Runtime`.
fn every_set_ends_as_on_the_runtime<E: Driver>(
    policy: Option<TieredPolicy>,
    build: impl Fn(MemDisk, ActivityLibrary) -> EngineResult<E>,
) {
    let oracle = |disk, library| oracle(disk, library, policy);
    for (set, roots) in sets() {
        let (serial, serial_seen) = run(&oracle, &roots);
        assert!(
            serial.values().all(|e| e.status != InstanceStatus::Running),
            "{set}: every instance ends or parks: {serial:#?}"
        );
        let (driven, driven_seen) = run(&build, &roots);
        assert_eq!(
            serial.keys().collect::<Vec<_>>(),
            driven.keys().collect::<Vec<_>>(),
            "{set}: the same instances"
        );
        for (name, ended) in &serial {
            assert_eq!(ended, &driven[name], "{set}: {name} diverged");
        }
        assert_eq!(
            serial_seen, driven_seen,
            "{set}: the compensation saw different inputs"
        );
    }
}

/// The sets exercise what the comparison is about: compensations with
/// inputs, a policy suspension, aborts, children two levels deep.
fn the_sets_reach_every_reaction(policy: Option<TieredPolicy>) {
    let build = |disk, library| oracle(disk, library, policy);
    let (toys, _) = run(&build, &sets()[0].1);
    assert!(toys.contains_key("Grand#6/Sub/Sub"), "{:?}", toys.keys());
    let (sphere, seen) = run(&build, &sets()[1].1);
    assert_eq!(sphere["Sphere#0"].status, InstanceStatus::Aborted);
    assert_eq!(
        seen,
        [
            Map::from([("x".to_string(), Value::Int(3))]),
            Map::from([("x".to_string(), Value::Int(3))]),
        ],
        "S1 compensated on the whiteboard's x, S2 on the x S1 mapped in"
    );
    let (policies, _) = run(&build, &sets()[2].1);
    let reacted = |name: &str| {
        policies[name]
            .reacted
            .iter()
            .map(|(label, _)| label.as_str())
            .collect::<Vec<_>>()
    };
    assert_eq!(reacted("Alternative#0"), ["instance.complete"]);
    assert_eq!(reacted("Ignore#1"), ["instance.complete"]);
    assert_eq!(reacted("Suspend#2"), ["instance.suspend"]);
    assert_eq!(reacted("Abort#3"), ["instance.abort"]);
    assert_eq!(policies["Suspend#2"].status, InstanceStatus::Suspended);
}

// A runtime arm would hold the oracle to itself; the forwarding wrapper
// shows that a third driver needs no edit to the scenario.
common::on_each_driver!([shards_1x1, shards_4x2, forward] every_set_ends_as_on_the_runtime);
common::on_each_policy!(the_sets_reach_every_reaction);
