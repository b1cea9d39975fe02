//! Property tests for navigator semantics on random process DAGs.
//!
//! A reference interpreter (plain topological evaluation of the
//! activation-condition semantics) predicts the terminal state of every
//! task; the real engine — with its queues, virtual-time dispatch,
//! persistence and event loop — must agree, and must be deterministic.

mod common;

use bioopera_cluster::SimTime;
use bioopera_core::state::TaskState;
use bioopera_core::{
    ActivityLibrary, Driver, InstanceStatus, ProgramOutput, Runtime, RuntimeConfig,
};
use bioopera_ocr::expr::{BinOp, Expr};
use bioopera_ocr::model::TypeTag;
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::MemDisk;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A guard on the edge `from -> to`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Guard {
    /// Unconditional.
    True,
    /// `from.flag == true` — fires iff the source task's index is even.
    FlagTrue,
    /// `from.flag == false`.
    FlagFalse,
}

#[derive(Debug, Clone)]
struct RandomDag {
    n: usize,
    /// Edges `(from, to, guard)` with `from < to` (guarantees a DAG).
    edges: Vec<(usize, usize, Guard)>,
}

fn dag_strategy() -> impl Strategy<Value = RandomDag> {
    (2usize..8).prop_flat_map(|n| {
        let all_pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        let guards = prop::collection::vec(
            prop::sample::select(vec![Guard::True, Guard::FlagTrue, Guard::FlagFalse]),
            all_pairs.len(),
        );
        let mask = prop::collection::vec(prop::bool::weighted(0.45), all_pairs.len());
        (Just(n), Just(all_pairs), guards, mask).prop_map(|(n, pairs, guards, mask)| {
            let edges = pairs
                .into_iter()
                .zip(guards)
                .zip(mask)
                .filter(|(_, keep)| *keep)
                .map(|(((from, to), g), _)| (from, to, g))
                .collect();
            RandomDag { n, edges }
        })
    })
}

fn flag_of(task: usize) -> bool {
    task.is_multiple_of(2)
}

fn build_template(dag: &RandomDag) -> ProcessTemplate {
    let mut b = ProcessBuilder::new("Rand");
    for i in 0..dag.n {
        b = b.activity(format!("T{i}"), "emit", move |t| {
            t.input_default("idx", TypeTag::Int, Value::Int(i as i64))
                .output("flag", TypeTag::Bool)
        });
    }
    for (from, to, guard) in &dag.edges {
        let cond = match guard {
            Guard::True => Expr::truth(),
            Guard::FlagTrue => Expr::Bin(
                BinOp::Eq,
                Box::new(Expr::path(&format!("T{from}.flag"))),
                Box::new(Expr::Lit(Value::Bool(true))),
            ),
            Guard::FlagFalse => Expr::Bin(
                BinOp::Eq,
                Box::new(Expr::path(&format!("T{from}.flag"))),
                Box::new(Expr::Lit(Value::Bool(false))),
            ),
        };
        b = b.connect_when(format!("T{from}"), format!("T{to}"), cond);
    }
    b.build().expect("random DAG validates")
}

/// The oracle: plain topological evaluation.
fn reference_states(dag: &RandomDag) -> Vec<TaskState> {
    let mut states = vec![TaskState::Ended; dag.n];
    for to in 0..dag.n {
        let incoming: Vec<&(usize, usize, Guard)> =
            dag.edges.iter().filter(|(_, t, _)| *t == to).collect();
        if incoming.is_empty() {
            states[to] = TaskState::Ended; // entry task always runs
            continue;
        }
        let mut any = false;
        for (from, _, guard) in incoming {
            if states[*from] != TaskState::Ended {
                continue; // skipped source contributes false
            }
            let fired = match guard {
                Guard::True => true,
                Guard::FlagTrue => flag_of(*from),
                Guard::FlagFalse => !flag_of(*from),
            };
            any |= fired;
        }
        states[to] = if any {
            TaskState::Ended
        } else {
            TaskState::Skipped
        };
    }
    states
}

fn run_engine(template: &ProcessTemplate, n: usize) -> (InstanceStatus, Vec<TaskState>, SimTime) {
    let mut lib = ActivityLibrary::new();
    lib.register("emit", |inputs| {
        let idx = inputs.get("idx").and_then(|v| v.as_int()).unwrap_or(0);
        Ok(ProgramOutput::from_fields(
            [("flag", Value::Bool(idx % 2 == 0))],
            1_000.0 + idx as f64 * 100.0,
        ))
    });
    let cluster = common::pool(&["n0", "n1"], 2);
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(30),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster, lib, cfg).unwrap();
    rt.register_template(template).unwrap();
    let id = rt.submit("Rand", BTreeMap::new()).unwrap();
    rt.run_to_completion().unwrap();
    let states = (0..n)
        .map(|i| rt.task_record(id, &format!("T{i}")).unwrap().state)
        .collect();
    (rt.instance_status(id).unwrap(), states, rt.now())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_agrees_with_reference_interpreter(dag in dag_strategy()) {
        let template = build_template(&dag);
        let expected = reference_states(&dag);
        let (status, actual, _) = run_engine(&template, dag.n);
        prop_assert_eq!(status, InstanceStatus::Completed, "dag: {:?}", dag);
        prop_assert_eq!(&actual, &expected, "dag: {:?}", dag);
        // Dead paths never execute: skipped tasks have no node assignment
        // is implied by state; ended tasks produced their flag.
    }

    #[test]
    fn engine_runs_are_deterministic(dag in dag_strategy()) {
        let template = build_template(&dag);
        let a = run_engine(&template, dag.n);
        let b = run_engine(&template, dag.n);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn ocr_roundtrip_preserves_execution(dag in dag_strategy()) {
        // Executing the reparsed textual form gives the same states.
        let template = build_template(&dag);
        let reparsed =
            bioopera_ocr::parse_process(&bioopera_ocr::to_ocr_text(&template)).unwrap();
        let (s1, t1, _) = run_engine(&template, dag.n);
        let (s2, t2, _) = run_engine(&reparsed, dag.n);
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(t1, t2);
    }
}
