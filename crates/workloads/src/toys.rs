//! The toy processes the engine's tests, the torture harness and the
//! shard bench share: a two-task [`chain_template`], a
//! [`fan_template`] that fans out and merges, a [`parent_template`]
//! that runs the chain as a subprocess, and the [`library`] of programs
//! behind them — all cost-model, so a run takes microseconds.

use bioopera_core::{ActivityLibrary, ProgramOutput};
use bioopera_ocr::model::{ExternalBinding, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use std::collections::BTreeMap;

/// The programs every toy runs: `gen.list` makes `count` items,
/// `work.unit` squares one, `merge.sum` adds the squares up; `p.a` passes
/// `x` on and `p.b` doubles it into `y`.
pub fn library() -> ActivityLibrary {
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
pub fn chain_template() -> ProcessTemplate {
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
pub fn fan_template() -> ProcessTemplate {
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
pub fn parent_template() -> ProcessTemplate {
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

/// The three toys, in the order [`toy`] names them.
pub fn templates() -> [ProcessTemplate; 3] {
    [chain_template(), fan_template(), parent_template()]
}

/// Root `tmpl` (taken modulo three) with knob `knob`: its template's name
/// and initial whiteboard — the fan's item count, 1 to 4, or the `x` of
/// the chain and the parent.
pub fn toy(tmpl: usize, knob: i64) -> (&'static str, BTreeMap<String, Value>) {
    match tmpl % 3 {
        0 => (
            "Chain",
            BTreeMap::from([("x".to_string(), Value::Int(knob))]),
        ),
        1 => (
            "Fan",
            BTreeMap::from([("count".to_string(), Value::Int(1 + knob.rem_euclid(4)))]),
        ),
        _ => (
            "Parent",
            BTreeMap::from([("x".to_string(), Value::Int(knob))]),
        ),
    }
}
