//! The store mirrors memory.
//!
//! Each driver commits, per dirty instance, the header plus exactly the
//! task records the navigator reported as touched (and the ones the driver
//! wrote itself).  That is only sound if the report never misses a write:
//! a record changed in memory but left out of the batch would silently
//! revert at the next recovery.  These tests step runs and, after every
//! step, decode every `inst/{id}/header` and `inst/{id}/task/{path}` the
//! store holds — under a sharded engine's shard prefix or not — and
//! require them to equal the in-memory header and `TaskRecord`s of every
//! live instance, through the driver surface alone.  The template mix runs
//! on every driver and store policy (under the squeezed one every read
//! goes through runs); the simulated laboratory's failures and the
//! process restart are the `Runtime`'s, fault injection and engine-wide
//! steering the `ShardEngine`'s.

mod common;

use bioopera_cluster::{Cluster, SimTime, Trace, TraceEventKind};
use bioopera_core::state::keys;
use bioopera_core::{
    ActivityLibrary, DependabilityConfig, Driver, EngineResult, FaultInjection, InstanceHeader,
    InstanceId, InstanceStatus, ProgramOutput, Runtime, RuntimeConfig, ShardConfig, ShardEngine,
    TaskRecord,
};
use bioopera_darwin::{CostModel, PamFamily};
use bioopera_ocr::model::{ExternalBinding, FailurePolicy, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{MemDisk, Space, Store, TieredPolicy};
use bioopera_workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
use bioopera_workloads::chaos::{FLAKY_NODE, HEALTHY_NODE};
use bioopera_workloads::tower::{make_input_dna, tower_library, tower_template};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Every live instance's stored records equal its in-memory ones, and the
/// store holds no task record memory does not; a durable suspended set
/// (`susp/`, the sharded engine's) names the suspended instances.  (A
/// crashed server has no live instances: its memory is gone and its store
/// handle poisoned.)
fn assert_store_mirrors_memory(eng: &impl Driver, at: &str) {
    let instances = eng.instances();
    if instances.is_empty() {
        return;
    }
    let stored = common::journal(eng.store());
    let mut suspended = BTreeSet::new();
    for (id, status, _) in instances {
        if status == InstanceStatus::Suspended {
            suspended.insert(id);
        }
        let bytes = stored
            .get(&keys::header(id))
            .unwrap_or_else(|| panic!("{at}: instance {id} has no stored header"));
        let header: InstanceHeader = serde_json::from_slice(bytes).unwrap();
        assert_eq!(
            Some(&header),
            eng.instance_header(id),
            "{at}: header of instance {id}"
        );
        let tasks = eng.task_records(id).expect("live instance");
        for (path, rec) in tasks {
            let bytes = stored
                .get(&keys::task(id, path))
                .unwrap_or_else(|| panic!("{at}: instance {id} task {path} was never stored"));
            let stored: TaskRecord = serde_json::from_slice(bytes).unwrap();
            assert_eq!(stored, **rec, "{at}: instance {id} task {path}");
        }
        let prefix = keys::task_prefix(id);
        let stored_tasks = stored
            .range(prefix.clone()..)
            .take_while(|(key, _)| key.starts_with(&prefix))
            .count();
        assert_eq!(stored_tasks, tasks.len(), "{at}: task count of {id}");
    }
    let parked = stored
        .keys()
        .filter_map(|key| key.strip_prefix("susp/"))
        .map(|id| id.parse().unwrap())
        .collect::<BTreeSet<InstanceId>>();
    // A driver that keeps the set at all keeps it exactly.
    if !parked.is_empty() {
        assert_eq!(parked, suspended, "{at}: the durable suspended set");
    }
}

/// Step to the end, checking the mirror after every step; `each_step`
/// may steer the run (it sees the number of steps taken so far).
fn drive<E: Driver>(eng: &mut E, label: &str, mut each_step: impl FnMut(&mut E, u64)) -> u64 {
    assert_store_mirrors_memory(eng, &format!("{label}: after submit"));
    let mut steps = 0u64;
    loop {
        each_step(eng, steps);
        let more = eng
            .step()
            .unwrap_or_else(|e| panic!("{label}: step {steps}: {e}"));
        steps += 1;
        assert_store_mirrors_memory(eng, &format!("{label}: after step {steps}"));
        if !more {
            return steps;
        }
        assert!(steps < 200_000, "{label}: runaway run");
    }
}

/// The shared programs, plus `ok`, `boom` and `odd_fails` (which fails on
/// an odd item).
fn library() -> ActivityLibrary {
    let mut lib = common::library();
    lib.register("ok", |_| Ok(ProgramOutput::from_fields([], 10.0)));
    lib.register("boom", |_| Err("boom".to_string()));
    lib.register("odd_fails", |inputs| {
        match inputs.get("item").and_then(|v| v.as_int()) {
            Some(i) if i % 2 == 1 => Err(format!("item {i} is odd")),
            Some(i) => Ok(ProgramOutput::from_fields(
                [("value", Value::Int(i * i))],
                10.0,
            )),
            None => Err("no item".to_string()),
        }
    });
    lib
}

/// A parallel fan whose odd children fail and are ignored.
fn odd_fan() -> ProcessTemplate {
    ProcessBuilder::new("OddFan")
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
        .unwrap()
}

/// A parallel fan over `Chain` subprocesses, then a plain subprocess task.
fn tree() -> ProcessTemplate {
    ProcessBuilder::new("Tree")
        .whiteboard_default("count", TypeTag::Int, Value::Int(3))
        .whiteboard_default("x", TypeTag::Int, Value::Int(21))
        .activity("Gen", "gen.list", |t| {
            t.input("count", TypeTag::Int)
                .output("items", TypeTag::List)
        })
        .parallel(
            "Each",
            "items",
            ParallelBody::Subprocess("Chain".into()),
            "results",
            |t| t,
        )
        .subprocess("Sub", "Chain", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .connect("Gen", "Each")
        .connect("Each", "Sub")
        .flow_from_whiteboard("count", "Gen", "count")
        .flow_from_whiteboard("x", "Sub", "x")
        .flow_to_task("Gen", "items", "Each", "items")
        .build()
        .unwrap()
}

/// A sphere whose last member fails: `S1` has an undo program, `S2` is
/// compensated silently.
fn sphere() -> ProcessTemplate {
    ProcessBuilder::new("Sphere")
        .activity("S1", "ok", |t| t)
        .activity("S2", "ok", |t| t)
        .activity("S3", "boom", |t| t)
        .connect("S1", "S2")
        .connect("S2", "S3")
        .sphere("Atomic", ["S1", "S2", "S3"], [("S1", "ok")])
        .on_failure("S3", FailurePolicy::CompensateSphere("Atomic".into()))
        .build()
        .unwrap()
}

/// A task that exhausts its retries and hands over to its alternative.
fn detour() -> ProcessTemplate {
    ProcessBuilder::new("Detour")
        .activity("Start", "ok", |t| t)
        .activity("A", "boom", |t| t.retries(1))
        .activity("Alt", "ok", |t| t)
        .connect("Start", "A")
        .connect_when("Start", "Alt", bioopera_ocr::Expr::defined("Start.nothing"))
        .on_failure("A", FailurePolicy::Alternative("Alt".into()))
        .build()
        .unwrap()
}

/// A failing task whose policy parks the instance.
fn park() -> ProcessTemplate {
    ProcessBuilder::new("Park")
        .activity("First", "ok", |t| t)
        .activity("Stuck", "boom", |t| t)
        .connect("First", "Stuck")
        .on_failure("Stuck", FailurePolicy::Suspend)
        .build()
        .unwrap()
}

const TEMPLATES: [&str; 8] = [
    "Chain", "Fan", "Parent", "OddFan", "Tree", "Sphere", "Detour", "Park",
];

/// The template mix on `eng`: `n` roots, round-robin over [`TEMPLATES`].
fn submit_mix(eng: &mut impl Driver, n: usize) -> Vec<InstanceId> {
    for t in [
        common::chain_template(),
        common::fan_template(),
        common::parent_template(),
        odd_fan(),
        tree(),
        sphere(),
        detour(),
        park(),
    ] {
        eng.register_template(&t).unwrap();
    }
    (0..n)
        .map(|i| {
            let mut initial = BTreeMap::new();
            initial.insert("x".to_string(), Value::Int(i as i64));
            initial.insert("count".to_string(), Value::Int(2 + (i % 4) as i64));
            eng.submit(TEMPLATES[i % TEMPLATES.len()], initial).unwrap()
        })
        .collect()
}

/// Every root of a clean mix ends as its template's failure policy says:
/// a compensated sphere aborts, a parked task suspends, the rest complete.
fn assert_mix_ended(eng: &impl Driver, ids: &[InstanceId]) {
    for (i, id) in ids.iter().enumerate() {
        let expect = match TEMPLATES[i % TEMPLATES.len()] {
            "Sphere" => InstanceStatus::Aborted,
            "Park" => InstanceStatus::Suspended,
            _ => InstanceStatus::Completed,
        };
        assert_eq!(eng.instance_status(*id), Some(expect), "instance {id}");
    }
}

/// Failure policies write records outside the failed task: a sphere
/// compensation flips every ended member (with or without an undo
/// program), `ALTERNATIVE` activates another task, `IGNORE` inside a
/// parallel fan lets the parent conclude, `SUSPEND` parks the instance —
/// and a policy's suspension is noted as an operator's is.
fn the_mix_mirrors_memory_after_every_step<E: Driver>(
    _policy: Option<TieredPolicy>,
    build: impl Fn(MemDisk, ActivityLibrary) -> EngineResult<E>,
) {
    let mut eng = build(MemDisk::new(), library()).unwrap();
    let ids = submit_mix(&mut eng, 24);
    drive(&mut eng, "mix", |_, _| {});
    assert_mix_ended(&eng, &ids);
    let noted = eng
        .awareness()
        .of_kind(eng.store(), "instance.suspend")
        .unwrap();
    for (i, id) in ids.iter().enumerate() {
        if TEMPLATES[i % TEMPLATES.len()] == "Park" {
            assert!(
                noted.iter().any(|e| e.kind.instance() == Some(*id)),
                "no instance.suspend for the policy's suspension of {id}: {noted:?}"
            );
        }
    }
}

/// Operator suspends and resumes mid-run are written as they happen.
fn the_mix_mirrors_memory_under_operator_steering<E: Driver>(
    _policy: Option<TieredPolicy>,
    build: impl Fn(MemDisk, ActivityLibrary) -> EngineResult<E>,
) {
    let mut eng = build(MemDisk::new(), library()).unwrap();
    let ids = submit_mix(&mut eng, 18);
    drive(&mut eng, "steering", |eng, step| match step {
        2 => {
            for id in &ids[..6] {
                eng.suspend(*id).unwrap();
            }
            assert_store_mirrors_memory(eng, "steering: after suspend");
        }
        9 => {
            for id in &ids[..3] {
                eng.resume(*id).unwrap();
            }
            assert_store_mirrors_memory(eng, "steering: after resume");
        }
        _ => {}
    });
    // Whatever quiesced while parked resumes and runs out.
    for (id, status, _) in eng.instances() {
        if status == InstanceStatus::Suspended {
            eng.resume(id).unwrap();
        }
    }
    drive(&mut eng, "steering (resumed)", |_, _| {});
}

common::on_each_driver!(
    the_mix_mirrors_memory_after_every_step,
    the_mix_mirrors_memory_under_operator_steering,
);

/// A sharded engine of `shards` shards, with `faults` injected.
fn engine(
    shards: usize,
    faults: Option<FaultInjection>,
    policy: Option<TieredPolicy>,
) -> ShardEngine<MemDisk> {
    let cfg = ShardConfig {
        shards,
        threads: 1,
        faults,
        ..ShardConfig::default()
    };
    let store = Store::open_with(MemDisk::new(), policy).unwrap();
    ShardEngine::new(store, library(), cfg).unwrap()
}

/// The durable suspended set is the suspended slots, parked by an
/// operator or by a failure policy, and a quiescent run holds no node
/// slot: every attempt that was granted one handed it back.
fn assert_parked_and_released(eng: &ShardEngine<MemDisk>, at: &str) {
    let stored: BTreeSet<u64> = eng
        .store()
        .scan_prefix(Space::Instance, "susp/")
        .unwrap()
        .into_iter()
        .map(|(key, _)| key["susp/".len()..].parse().unwrap())
        .collect();
    let parked: BTreeSet<u64> = eng
        .instances()
        .into_iter()
        .filter(|(_, status, _)| *status == InstanceStatus::Suspended)
        .map(|(id, _, _)| id)
        .collect();
    assert_eq!(stored, parked, "{at}: the durable suspended set");
    if eng.quiescent() {
        assert_eq!(eng.stats().slots_in_flight, 0, "{at}: slots leaked");
    }
}

/// The mix on one and three shards, and on four under injected task
/// faults, which exhaust masked-failure budgets and abort instances: only
/// the clean runs have one expected end per template.
fn shard_journals_mirror_memory_after_every_round(policy: Option<TieredPolicy>) {
    let faults = FaultInjection {
        seed: 9,
        rate_ppm: 150_000,
    };
    for (shards, faults) in [(1, None), (3, None), (4, Some(faults))] {
        let (at, clean) = (format!("{shards} shards, {faults:?}"), faults.is_none());
        let mut eng = engine(shards, faults, policy);
        let ids = submit_mix(&mut eng, 24);
        drive(&mut eng, &at, |eng, step| {
            assert_parked_and_released(eng, &format!("{at}: step {step}"))
        });
        assert_parked_and_released(&eng, &format!("{at}: the end"));
        if clean {
            assert_mix_ended(&eng, &ids);
        }
    }
}

/// Engine-wide operator steering, on three shards.
fn shard_journals_mirror_memory_under_engine_wide_steering(policy: Option<TieredPolicy>) {
    let mut eng = engine(3, None, policy);
    let ids = submit_mix(&mut eng, 18);
    drive(&mut eng, "steering", |eng, step| {
        assert_parked_and_released(eng, &format!("steering: step {step}"));
        match step {
            2 => {
                for id in &ids[..6] {
                    eng.suspend(*id).unwrap();
                }
            }
            5 => eng.suspend_all().unwrap(),
            9 => eng.resume_all().unwrap(),
            _ => {}
        }
    });
    // Whatever quiesced while parked resumes and runs out.
    eng.resume_all().unwrap();
    drive(&mut eng, "steering (resumed)", |eng, step| {
        assert_parked_and_released(eng, &format!("steering (resumed): step {step}"))
    });
    assert_parked_and_released(&eng, "steering: the end");
    assert!(eng.quiescent());
}

common::on_each_policy!(
    shard_journals_mirror_memory_after_every_round,
    shard_journals_mirror_memory_under_engine_wide_steering,
);

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
        let (mut rt, _) = allvsall_runtime(
            &setup,
            common::pool(&["w1", "w2", "w3"], 2),
            cfg(),
            &Trace::empty(),
        );
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
    let (mut rt, id) =
        allvsall_runtime(&setup, common::pool(&["w1", "w2", "w3"], 2), cfg(), &trace);
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
    let mut rt = Runtime::new(
        MemDisk::new(),
        common::pool(&["n0", "n1", "n2"], 2),
        lib,
        cfg,
    )
    .unwrap();
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
    let (mut rt, id) = allvsall_runtime(
        &setup,
        common::pool(&[FLAKY_NODE, HEALTHY_NODE], 2),
        cfg,
        &trace,
    );
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
    let (mut rt, id) = allvsall_runtime(&setup, common::pool(&["w1", "w2"], 2), cfg, &trace);
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
