//! Error-path and operator-API coverage: the engine must fail loudly and
//! precisely on misuse, and operator controls must behave exactly as the
//! monitor section (§3.4: "the user can start, stop, abort, re-start, and
//! change input parameters during each step") promises.

use bioopera_cluster::{Cluster, NodeSpec, SimTime};
use bioopera_core::state::InstanceStatus;
use bioopera_core::{ActivityLibrary, Driver, EngineError, ProgramOutput, Runtime, RuntimeConfig};
use bioopera_ocr::model::TypeTag;
use bioopera_ocr::value::Value;
use bioopera_ocr::{Expr, ProcessBuilder};
use bioopera_store::MemDisk;
use std::collections::BTreeMap;

fn cluster() -> Cluster {
    Cluster::new("ep", vec![NodeSpec::new("n1", 2, 500, "linux")])
}

fn runtime_with(lib: ActivityLibrary) -> Runtime<MemDisk> {
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(30),
        ..Default::default()
    };
    Runtime::new(MemDisk::new(), cluster(), lib, cfg).unwrap()
}

fn noop_lib() -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("noop", |_| {
        Ok(ProgramOutput::from_fields(
            [("ok", Value::Bool(true))],
            1_000.0,
        ))
    });
    lib
}

#[test]
fn invalid_template_rejected_at_registration() {
    let mut rt = runtime_with(noop_lib());
    let bad = ProcessBuilder::new("Bad")
        .activity("A", "noop", |t| t)
        .activity("B", "noop", |t| t)
        .connect("A", "B")
        .connect("B", "A")
        .build_unchecked();
    match rt.register_template(&bad) {
        Err(EngineError::Validation(_)) => {}
        other => panic!("expected validation error, got {other:?}"),
    }
}

#[test]
fn unknown_template_and_instance_errors() {
    let mut rt = runtime_with(noop_lib());
    match rt.submit("Ghost", BTreeMap::new()) {
        Err(EngineError::UnknownTemplate(name)) => assert_eq!(name, "Ghost"),
        other => panic!("expected unknown template, got {other:?}"),
    }
    assert!(matches!(
        rt.stats(99),
        Err(EngineError::UnknownInstance(99))
    ));
    assert!(matches!(
        rt.suspend(99),
        Err(EngineError::UnknownInstance(99))
    ));
    assert!(matches!(
        rt.signal_event(99, "x"),
        Err(EngineError::UnknownInstance(99))
    ));
}

#[test]
fn unknown_program_surfaces_at_dispatch() {
    let mut rt = runtime_with(noop_lib());
    let t = ProcessBuilder::new("P")
        .activity("A", "not.registered", |t| t)
        .build()
        .unwrap();
    rt.register_template(&t).unwrap();
    rt.submit("P", BTreeMap::new()).unwrap();
    match rt.run_to_completion() {
        Err(EngineError::UnknownProgram(p)) => assert_eq!(p, "not.registered"),
        other => panic!("expected unknown program, got {other:?}"),
    }
}

#[test]
fn guard_type_error_surfaces_with_context() {
    // An activation condition producing a non-boolean is a template bug
    // the navigator reports precisely.
    let mut rt = runtime_with(noop_lib());
    let t = ProcessBuilder::new("P")
        .activity("A", "noop", |t| t.output("n", TypeTag::Int))
        .activity("B", "noop", |t| t)
        .connect_when(
            "A",
            "B",
            Expr::Bin(
                bioopera_ocr::expr::BinOp::Add,
                Box::new(Expr::path("A.n")),
                Box::new(Expr::Lit(Value::Int(1))),
            ),
        )
        .build()
        .unwrap();
    rt.register_template(&t).unwrap();
    // `A.n` is never produced by noop, and even if it were, `+` yields an
    // int: the guard evaluation must fail, not silently skip.
    rt.submit("P", BTreeMap::new()).unwrap();
    match rt.run_to_completion() {
        Err(EngineError::Guard(ctx, _)) => assert!(ctx.contains("A -> B"), "{ctx}"),
        other => panic!("expected guard error, got {other:?}"),
    }
}

#[test]
fn operator_abort_kills_running_jobs() {
    let mut lib = ActivityLibrary::new();
    lib.register("slow", |_| {
        Ok(ProgramOutput::from_fields(
            [("ok", Value::Bool(true))],
            3_600_000.0,
        ))
    });
    let mut rt = runtime_with(lib);
    let t = ProcessBuilder::new("Slow")
        .activity("A", "slow", |t| t)
        .build()
        .unwrap();
    rt.register_template(&t).unwrap();
    let id = rt.submit("Slow", BTreeMap::new()).unwrap();
    // Step until the job is on a node, then abort.
    while rt.in_flight_jobs().is_empty() {
        assert!(rt.step().unwrap());
    }
    while rt.cluster().utilization() == 0.0 {
        assert!(rt.step().unwrap());
    }
    // Let the job burn some CPU (heartbeats advance virtual time).
    while rt.now() < SimTime::from_secs(90) {
        assert!(rt.step().unwrap());
    }
    rt.abort(id).unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Aborted));
    assert_eq!(rt.cluster().utilization(), 0.0, "job must be killed");
    // The run loop terminates immediately: everything is terminal.
    rt.run_to_completion().unwrap();
    // Lost occupancy is accounted as waste.
    assert!(rt.cluster().wasted_cpu_ms() > 0.0);
}

#[test]
fn suspend_prevents_dispatch_until_resume() {
    let mut rt = runtime_with(noop_lib());
    let t = ProcessBuilder::new("P")
        .activity("A", "noop", |t| t)
        .activity("B", "noop", |t| t)
        .connect("A", "B")
        .build()
        .unwrap();
    rt.register_template(&t).unwrap();
    let id = rt.submit("P", BTreeMap::new()).unwrap();
    rt.suspend(id).unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Suspended));
    // Stepping makes no progress: nothing dispatched, nothing in flight.
    for _ in 0..5 {
        if !rt.step().unwrap() {
            break;
        }
    }
    assert!(rt.in_flight_jobs().is_empty());
    assert!(rt
        .task_records(id)
        .unwrap()
        .values()
        .all(|r| r.node.is_none()));
    rt.resume(id).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
}

#[test]
fn changing_input_parameters_mid_run_via_event() {
    // §3.4: "change input parameters during each step of the computation".
    let mut lib = ActivityLibrary::new();
    lib.register("gate", |inputs| {
        let th = inputs
            .get("threshold")
            .and_then(|v| v.as_float())
            .unwrap_or(0.0);
        Ok(ProgramOutput::from_fields(
            [("used", Value::Float(th))],
            1_000.0,
        ))
    });
    let mut rt = runtime_with(lib);
    let t = ProcessBuilder::new("P")
        .whiteboard_default("threshold", TypeTag::Float, Value::Float(80.0))
        .activity("First", "gate", |t| {
            t.input("threshold", TypeTag::Float)
                .output("used", TypeTag::Float)
        })
        .activity("Second", "gate", |t| {
            t.input("threshold", TypeTag::Float)
                .output("used", TypeTag::Float)
        })
        .connect("First", "Second")
        .flow_from_whiteboard("threshold", "First", "threshold")
        .flow_from_whiteboard("threshold", "Second", "threshold")
        .on_event(
            "retune",
            bioopera_ocr::model::EventAction::SetData(
                "threshold".into(),
                Expr::Lit(Value::Float(95.0)),
            ),
        )
        .build()
        .unwrap();
    rt.register_template(&t).unwrap();
    let id = rt.submit("P", BTreeMap::new()).unwrap();
    // Let First complete, then retune before Second dispatches.
    while rt.task_record(id, "First").unwrap().state != bioopera_core::TaskState::Ended {
        assert!(rt.step().unwrap());
    }
    rt.signal_event(id, "retune").unwrap();
    rt.run_to_completion().unwrap();
    let first = rt.task_record(id, "First").unwrap().outputs["used"].clone();
    let second = rt.task_record(id, "Second").unwrap().outputs["used"].clone();
    assert_eq!(first, Value::Float(80.0));
    assert_eq!(
        second,
        Value::Float(95.0),
        "the retuned parameter must reach later steps"
    );
}
