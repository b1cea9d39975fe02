//! Replay determinism of the sharded navigator.
//!
//! The sharding contract is that the recorded history and the final
//! instance state are a pure function of the submitted workload: the
//! number of shards, the number of stepper threads, and the thread
//! interleaving must not be observable.  These tests drive randomized
//! workload mixes — plain chains, parallel fans, and subprocess trees,
//! with and without injected node faults — through engines at several
//! (shards, threads) points and require bit-identical digests against
//! the 1-shard serial baseline.
//!
//! Recovery is checked separately: after a crash mid-round (only a
//! prefix of shard commits on disk) the recovered engine legitimately
//! records extra history (`server.recover`, requeues, fresh ids for
//! re-spawned children), so the assertion there is *output* equality —
//! every root reaches the oracle's terminal status with the oracle's
//! whiteboard — not digest equality.

use bioopera_core::{
    ActivityLibrary, FaultInjection, InstanceStatus, ProgramOutput, ShardConfig, ShardEngine,
};
use bioopera_ocr::model::{ExternalBinding, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{MemDisk, Store};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Activity programs shared by every template in the mix.
fn library() -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("gen.list", |inputs| {
        let count = inputs.get("count").and_then(|v| v.as_int()).unwrap_or(3);
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
            5_000.0,
        ))
    });
    lib.register("merge.sum", |inputs| {
        let total: i64 = inputs
            .get("results")
            .and_then(|v| v.as_list())
            .map(|items| {
                items
                    .iter()
                    .filter_map(|v| v.get_path(&["value"]).and_then(|v| v.as_int()))
                    .sum()
            })
            .unwrap_or(0);
        Ok(ProgramOutput::from_fields(
            [("total", Value::Int(total))],
            2_000.0,
        ))
    });
    lib.register("p.a", |inputs| {
        let x = inputs.get("x").and_then(|v| v.as_int()).unwrap_or(7);
        Ok(ProgramOutput::from_fields([("x", Value::Int(x))], 10.0))
    });
    lib.register("p.b", |inputs| {
        let x = inputs
            .get("x")
            .and_then(|v| v.as_int())
            .ok_or_else(|| "missing x".to_string())?;
        Ok(ProgramOutput::from_fields([("y", Value::Int(x * 2))], 20.0))
    });
    lib
}

/// `A -> B` with a task-to-task dataflow.
fn chain_template() -> ProcessTemplate {
    ProcessBuilder::new("Chain")
        .whiteboard_default("x", TypeTag::Int, Value::Int(7))
        .whiteboard_field("y", TypeTag::Int)
        .activity("A", "p.a", |t| {
            t.input("x", TypeTag::Int).output("x", TypeTag::Int)
        })
        .activity("B", "p.b", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .connect("A", "B")
        .flow_from_whiteboard("x", "A", "x")
        .flow_to_task("A", "x", "B", "x")
        .flow_to_whiteboard("B", "y", "y")
        .build()
        .unwrap()
}

/// `Gen -> parallel Fan(work.unit) -> Merge`.
fn fan_template() -> ProcessTemplate {
    ProcessBuilder::new("Fan")
        .whiteboard_default("count", TypeTag::Int, Value::Int(3))
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

/// `Sub(Chain) -> After` — exercises cross-instance spawn + ChildDone.
fn parent_template() -> ProcessTemplate {
    ProcessBuilder::new("Parent")
        .whiteboard_default("x", TypeTag::Int, Value::Int(21))
        .subprocess("Sub", "Chain", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .activity("After", "p.b", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .connect("Sub", "After")
        .flow_from_whiteboard("x", "Sub", "x")
        .flow_to_task("Sub", "y", "After", "x")
        .build()
        .unwrap()
}

const TEMPLATES: [&str; 3] = ["Chain", "Fan", "Parent"];

fn build_engine(
    shards: usize,
    threads: usize,
    faults: Option<FaultInjection>,
) -> ShardEngine<MemDisk> {
    let store = Store::open(MemDisk::new()).unwrap();
    let cfg = ShardConfig {
        shards,
        threads,
        faults,
        ..ShardConfig::default()
    };
    let mut eng = ShardEngine::new(store, library(), cfg).expect("engine");
    eng.register_template(chain_template()).unwrap();
    eng.register_template(fan_template()).unwrap();
    eng.register_template(parent_template()).unwrap();
    eng
}

/// Run a workload (list of template indices, plus a per-instance knob)
/// to completion and return the observable fingerprint.
fn run_workload(
    workload: &[(usize, i64)],
    shards: usize,
    threads: usize,
    faults: Option<FaultInjection>,
) -> (u64, u64, BTreeMap<String, u64>) {
    let mut eng = build_engine(shards, threads, faults);
    for (tmpl, knob) in workload {
        let name = TEMPLATES[tmpl % TEMPLATES.len()];
        let mut initial = BTreeMap::new();
        match name {
            "Chain" | "Parent" => {
                initial.insert("x".to_string(), Value::Int(*knob));
            }
            _ => {
                initial.insert("count".to_string(), Value::Int(1 + knob.rem_euclid(4)));
            }
        }
        eng.submit(name, initial).unwrap();
    }
    eng.run_to_completion().unwrap();
    (
        eng.history_digest(),
        eng.state_digest(),
        eng.event_counts().clone(),
    )
}

/// Operator steering schedule: `(suspend_round, resume_gap, root_idx)`
/// — suspend root `idx` when the engine reaches `suspend_round`, resume
/// it `resume_gap` rounds after that.  Calls are keyed to the engine's
/// round counter, which advances identically at every (shards, threads)
/// point, so the same schedule produces the same operator-call sequence
/// — and therefore the same history — in every configuration.
type OpSchedule = [(u64, u64, usize)];

/// Run a workload with suspend/resume injected at the scheduled rounds,
/// then drive to quiescence and return the observable fingerprint.
fn run_workload_with_ops(
    workload: &[(usize, i64)],
    ops: &OpSchedule,
    shards: usize,
    threads: usize,
) -> (u64, u64, BTreeMap<String, u64>) {
    let mut eng = build_engine(shards, threads, None);
    let ids: Vec<u64> = workload
        .iter()
        .map(|(tmpl, knob)| {
            let name = TEMPLATES[tmpl % TEMPLATES.len()];
            let mut initial = BTreeMap::new();
            match name {
                "Chain" | "Parent" => {
                    initial.insert("x".to_string(), Value::Int(*knob));
                }
                _ => {
                    initial.insert("count".to_string(), Value::Int(1 + knob.rem_euclid(4)));
                }
            }
            eng.submit(name, initial).unwrap()
        })
        .collect();
    // Expand to a sorted (round, is_resume, instance) action list.
    let mut actions: Vec<(u64, bool, u64)> = Vec::new();
    for (sus_round, gap, idx) in ops {
        let id = ids[idx % ids.len()];
        actions.push((*sus_round, false, id));
        actions.push((sus_round + 1 + gap, true, id));
    }
    actions.sort_unstable();
    let mut i = 0usize;
    loop {
        while i < actions.len() && actions[i].0 <= eng.round() {
            let (_, is_resume, id) = actions[i];
            if is_resume {
                eng.resume(id).unwrap();
            } else {
                eng.suspend(id).unwrap();
            }
            i += 1;
        }
        if !eng.step_round().unwrap() {
            if i < actions.len() {
                // Quiesced before the next scheduled round: fast-forward
                // the remaining schedule (still a deterministic point —
                // quiescence timing is config-invariant).
                let (_, is_resume, id) = actions[i];
                if is_resume {
                    eng.resume(id).unwrap();
                } else {
                    eng.suspend(id).unwrap();
                }
                i += 1;
                continue;
            }
            break;
        }
    }
    // Every suspend is paired with a later resume, so the run must end
    // fully terminal, never wedged.
    let outcome = eng.run_to_completion().unwrap();
    assert!(
        outcome.is_completed(),
        "paired resumes must unpark: {outcome:?}"
    );
    (
        eng.history_digest(),
        eng.state_digest(),
        eng.event_counts().clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any (shards, threads) point reproduces the serial baseline
    /// bit-for-bit, including under injected node faults.
    #[test]
    fn sharded_replay_matches_serial_baseline(
        workload in prop::collection::vec((0usize..3, 0i64..100), 1..24),
        shards in 2usize..9,
        threads in 1usize..5,
        fault_seed in any::<u64>(),
        fault_rate in prop_oneof![Just(0u32), Just(120_000u32)],
    ) {
        let faults = (fault_rate > 0).then_some(FaultInjection {
            seed: fault_seed,
            rate_ppm: fault_rate,
        });
        let baseline = run_workload(&workload, 1, 1, faults.clone());
        let sharded = run_workload(&workload, shards, threads, faults);
        prop_assert_eq!(&sharded.0, &baseline.0, "history digest diverged");
        prop_assert_eq!(&sharded.1, &baseline.1, "state digest diverged");
        prop_assert_eq!(&sharded.2, &baseline.2, "event counts diverged");
    }

    /// Suspension/resume injected at arbitrary rounds must leave the
    /// history bit-identical across (shards, threads) points: operator
    /// steering rides the same deterministic `(instance, seq)` outbox as
    /// everything else.
    #[test]
    fn sharded_replay_matches_serial_baseline_with_suspension(
        workload in prop::collection::vec((0usize..3, 0i64..100), 1..16),
        ops in prop::collection::vec((0u64..12, 0u64..6, 0usize..16), 1..4),
        shards in 2usize..9,
        threads in 1usize..5,
    ) {
        let baseline = run_workload_with_ops(&workload, &ops, 1, 1);
        let sharded = run_workload_with_ops(&workload, &ops, shards, threads);
        prop_assert_eq!(&sharded.0, &baseline.0, "history digest diverged");
        prop_assert_eq!(&sharded.1, &baseline.1, "state digest diverged");
        prop_assert_eq!(&sharded.2, &baseline.2, "event counts diverged");
    }
}

/// Crash at the shard barrier with a partial commit prefix, recover,
/// and require every root to converge to the crash-free oracle's
/// terminal status and whiteboard.
#[test]
fn recovery_after_partial_commit_converges_to_oracle_outputs() {
    let workload: Vec<(usize, i64)> = (0..9).map(|i| (i % 3, 10 + i as i64)).collect();
    let submit_all = |eng: &mut ShardEngine<MemDisk>| -> Vec<u64> {
        workload
            .iter()
            .map(|(tmpl, knob)| {
                let name = TEMPLATES[*tmpl];
                let mut initial = BTreeMap::new();
                match name {
                    "Chain" | "Parent" => {
                        initial.insert("x".to_string(), Value::Int(*knob));
                    }
                    _ => {
                        initial.insert("count".to_string(), Value::Int(1 + knob.rem_euclid(4)));
                    }
                }
                eng.submit(name, initial).unwrap()
            })
            .collect()
    };

    // Crash-free oracle.
    let mut oracle = build_engine(1, 1, None);
    let oracle_ids = submit_all(&mut oracle);
    oracle.run_to_completion().unwrap();
    let expected: Vec<(InstanceStatus, BTreeMap<String, Value>)> = oracle_ids
        .iter()
        .map(|id| {
            (
                oracle.instance_status(*id).unwrap(),
                oracle.instance_whiteboard(*id).unwrap().clone(),
            )
        })
        .collect();
    assert!(expected
        .iter()
        .all(|(st, _)| *st == InstanceStatus::Completed));

    // Crash at every (round, commit-prefix) point of the early rounds.
    for crash_round in 0..4u64 {
        for prefix in 0..=4usize {
            let disk = MemDisk::new();
            let store = Store::open(disk.clone()).unwrap();
            let cfg = ShardConfig {
                shards: 4,
                threads: 1,
                ..ShardConfig::default()
            };
            let mut eng = ShardEngine::new(store, library(), cfg.clone()).expect("engine");
            eng.register_template(chain_template()).unwrap();
            eng.register_template(fan_template()).unwrap();
            eng.register_template(parent_template()).unwrap();
            let ids = submit_all(&mut eng);
            for _ in 0..crash_round {
                eng.step_round().unwrap();
            }
            eng.step_round_partial_commit(prefix).unwrap();
            drop(eng);

            let store = Store::open(disk).unwrap();
            let mut eng = ShardEngine::recover(store, library(), cfg).unwrap();
            eng.run_to_completion().unwrap_or_else(|e| {
                panic!("round {crash_round} prefix {prefix}: stuck after recovery: {e}")
            });
            for (id, (want_status, want_wb)) in ids.iter().zip(&expected) {
                assert_eq!(
                    eng.instance_status(*id),
                    Some(*want_status),
                    "round {crash_round} prefix {prefix}: root {id} status"
                );
                assert_eq!(
                    eng.instance_whiteboard(*id),
                    Some(want_wb),
                    "round {crash_round} prefix {prefix}: root {id} whiteboard"
                );
            }
        }
    }
}

/// The serial single-shard config (1 shard, 1 thread, pinned by hand) is
/// the reference semantics: a 4x4 config must agree with it on the same
/// workload.
#[test]
fn single_shard_config_is_the_reference_semantics() {
    let workload: Vec<(usize, i64)> = vec![(0, 5), (1, 2), (2, 9), (0, 11), (2, 3)];
    let a = run_workload(&workload, 1, 1, None);
    let b = run_workload(&workload, 4, 4, None);
    assert_eq!(a, b);
}
