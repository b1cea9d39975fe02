//! The shard journals mirror memory.
//!
//! A shard step commits, per dirty instance, the header plus exactly the
//! task records the navigator reported as touched (and the ones the
//! stepper wrote itself).  After every `step_round` the decoded
//! `s{NNNN}/inst/{id}/header` and `.../task/{path}` records must equal
//! the resident slot — otherwise a write was left out of a batch and
//! would revert at the next recovery.  Both tests run on each store
//! policy: under the squeezed one every read below goes through runs.
//! The serial engine's twin of this test lives in
//! `crates/workloads/tests/store_mirror.rs`.

mod common;

use bioopera_core::shard::Instance;
use bioopera_core::state::keys;
use bioopera_core::{
    ActivityLibrary, FaultInjection, InstanceHeader, InstanceStatus, ProgramOutput, ShardConfig,
    ShardEngine, TaskRecord,
};
use bioopera_ocr::model::{ExternalBinding, FailurePolicy, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{shard_key, MemDisk, Space, Store, TieredPolicy};
use std::collections::{BTreeMap, BTreeSet};

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
    let mut eng = ShardEngine::new(store, library(), cfg).unwrap();
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
        eng.register_template(t).unwrap();
    }
    eng
}

fn assert_journal_mirrors_memory(eng: &ShardEngine<MemDisk>, at: &str) {
    let get = |key: String| eng.store().get(Space::Instance, &key).unwrap();
    let slots: Vec<(usize, u64, &Instance)> = eng.slots().collect();
    for (shard, id, slot) in slots {
        let bytes = get(shard_key(shard, &keys::header(id)))
            .unwrap_or_else(|| panic!("{at}: instance {id} has no stored header"));
        let stored: InstanceHeader = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(stored, slot.header, "{at}: header of instance {id}");
        for (path, rec) in &slot.tasks {
            let bytes = get(shard_key(shard, &keys::task(id, path)))
                .unwrap_or_else(|| panic!("{at}: instance {id} task {path} was never stored"));
            let stored: TaskRecord = serde_json::from_slice(&bytes).unwrap();
            assert_eq!(stored, **rec, "{at}: instance {id} task {path}");
        }
        let stored_tasks = eng
            .store()
            .scan_prefix(Space::Instance, &shard_key(shard, &keys::task_prefix(id)))
            .unwrap()
            .len();
        assert_eq!(stored_tasks, slot.tasks.len(), "{at}: task count of {id}");
    }
    // The durable suspended set is the suspended slots, parked by an
    // operator or by a failure policy.
    let stored: BTreeSet<u64> = eng
        .store()
        .scan_prefix(Space::Instance, "susp/")
        .unwrap()
        .into_iter()
        .map(|(key, _)| key["susp/".len()..].parse().unwrap())
        .collect();
    let parked: BTreeSet<u64> = eng
        .slots()
        .filter(|(_, _, slot)| slot.header.status == InstanceStatus::Suspended)
        .map(|(_, id, _)| id)
        .collect();
    assert_eq!(stored, parked, "{at}: the durable suspended set");
}

/// Run rounds to quiescence, checking the mirror after each; `each_round`
/// may steer the run before a round.  A quiescent run holds no node slot:
/// every attempt that was granted one handed it back.
fn drive(eng: &mut ShardEngine<MemDisk>, mut each_round: impl FnMut(&mut ShardEngine<MemDisk>)) {
    loop {
        each_round(eng);
        let more = eng.step_round().unwrap();
        assert_journal_mirrors_memory(eng, &format!("after round {}", eng.round()));
        if !more {
            assert_eq!(eng.stats().slots_in_flight, 0, "slots leaked at quiescence");
            return;
        }
        assert!(eng.round() < 10_000, "runaway run");
    }
}

fn submit_mix(eng: &mut ShardEngine<MemDisk>, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let mut initial = BTreeMap::new();
            initial.insert("x".to_string(), Value::Int(i as i64));
            initial.insert("count".to_string(), Value::Int(2 + (i % 4) as i64));
            eng.submit(TEMPLATES[i % TEMPLATES.len()], initial).unwrap()
        })
        .collect()
}

fn journals_mirror_memory_after_every_round(policy: Option<TieredPolicy>) {
    for (shards, faults) in [
        (1, None),
        (3, None),
        (
            4,
            Some(FaultInjection {
                seed: 9,
                rate_ppm: 150_000,
            }),
        ),
    ] {
        // Under fault injection a task may exhaust its masked-failure
        // budget and abort its instance; only the clean runs have one
        // expected outcome per template.
        let clean = faults.is_none();
        let mut eng = engine(shards, faults, policy);
        let ids = submit_mix(&mut eng, 24);
        drive(&mut eng, |_| {});
        for (i, id) in ids.iter().enumerate() {
            let expect = match TEMPLATES[i % TEMPLATES.len()] {
                "Sphere" => InstanceStatus::Aborted,
                "Park" => InstanceStatus::Suspended,
                _ => InstanceStatus::Completed,
            };
            if clean {
                assert_eq!(eng.instance_status(*id), Some(expect), "instance {id}");
            }
        }
    }
}

fn journals_mirror_memory_under_operator_steering(policy: Option<TieredPolicy>) {
    let mut eng = engine(3, None, policy);
    let ids = submit_mix(&mut eng, 18);
    drive(&mut eng, |eng| match eng.round() {
        2 => {
            for id in &ids[..6] {
                eng.suspend(*id).unwrap();
            }
        }
        5 => eng.suspend_all().unwrap(),
        9 => eng.resume_all().unwrap(),
        _ => {}
    });
    // Whatever quiesced while parked resumes and runs out.
    eng.resume_all().unwrap();
    drive(&mut eng, |_| {});
    assert!(eng.quiescent());
}

common::on_each_policy!(
    journals_mirror_memory_after_every_round,
    journals_mirror_memory_under_operator_steering,
);
