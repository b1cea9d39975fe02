//! What the engine-level suites share: the Chain, Fan and Parent templates
//! and the programs behind them (`Chain` is `bench_e2e`'s chain), the
//! store policies a suite whose run tiering can change is held on, the
//! frozen History writers of earlier engines ([`ev_writer`]), and the
//! crash that tears a round's append at each frame boundary ([`tears`]).  The
//! allocator-counting gates (`residency.rs`, `codec_allocs.rs`) each
//! install their own `#[global_allocator]`, so they stay separate test
//! binaries; the workload they count is the one here.

// Each test binary uses its own part of this module.
#![allow(dead_code)]

pub mod ev_writer;
pub mod tears;

use bioopera_core::shard::{ShardConfig, ShardEngine, ShardEvent};
use bioopera_core::{ActivityLibrary, ProgramOutput};
use bioopera_ocr::model::{ExternalBinding, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{Disk, MemDisk, Store, TieredPolicy};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The programs every template here runs: `gen.list` makes `count` items,
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

/// The three templates, by the index a workload names them with.
pub const TEMPLATES: [&str; 3] = ["Chain", "Fan", "Parent"];

/// An engine over `store` with the three templates registered.
pub fn engine_on<D: Disk>(store: Store<D>, cfg: ShardConfig) -> ShardEngine<D> {
    let mut eng = ShardEngine::new(store, library(), cfg).expect("engine");
    for t in [chain_template(), fan_template(), parent_template()] {
        eng.register_template(t).unwrap();
    }
    eng
}

/// Submit a workload — a template index and a per-instance knob for each
/// root — and return the roots' ids.
pub fn submit_workload<D: Disk>(eng: &mut ShardEngine<D>, workload: &[(usize, i64)]) -> Vec<u64> {
    workload
        .iter()
        .map(|(tmpl, knob)| {
            let name = TEMPLATES[tmpl % TEMPLATES.len()];
            let initial = match name {
                "Fan" => {
                    BTreeMap::from([("count".to_string(), Value::Int(1 + knob.rem_euclid(4)))])
                }
                _ => BTreeMap::from([("x".to_string(), Value::Int(*knob))]),
            };
            eng.submit(name, initial).unwrap()
        })
        .collect()
}

/// `bench_e2e`'s chain on four shards over `store`.
pub fn chain_engine_on<D: Disk>(store: Store<D>) -> ShardEngine<D> {
    let mut engine = ShardEngine::new(store, library(), chain_config()).unwrap();
    engine.register_template(chain_template()).unwrap();
    engine
}

/// The configuration of [`chain_engine_on`], to recover its store with.
pub fn chain_config() -> ShardConfig {
    ShardConfig {
        shards: 4,
        // One stepper thread: every allocation lands on this thread.
        threads: 1,
        ..ShardConfig::default()
    }
}

/// [`chain_engine_on`] a fresh in-memory store.
pub fn chain_engine() -> ShardEngine<MemDisk> {
    chain_engine_on(Store::open(MemDisk::new()).unwrap())
}

/// What refolding `events` from the stream's first record says of the
/// history: the digest (round, instance and sequence number of each event,
/// its time if it has one, then a fresh encoding of its kind), the count by
/// label and the count.
pub fn refold(events: &[ShardEvent]) -> (u64, BTreeMap<String, u64>, u64) {
    let mut hash = ev_writer::FNV_OFFSET;
    let mut counts = BTreeMap::new();
    for e in events {
        hash = ev_writer::fold_event(hash, e);
        *counts.entry(e.kind.label().to_string()).or_insert(0) += 1;
    }
    (hash, counts, events.len() as u64)
}

/// The squeezed tiered policy: a spill every few records, an L0 merge
/// every second spill, and levels that overflow constantly.
pub fn squeezed() -> TieredPolicy {
    TieredPolicy {
        memtable_budget_bytes: 512,
        run_merge_threshold: 2,
        level_base_bytes: 4096,
        level_growth: 2,
        level_run_bytes: 768,
        ..TieredPolicy::default()
    }
}

/// The store policies a suite runs on: the untiered store and
/// [`squeezed`].
pub fn policies() -> [Option<TieredPolicy>; 2] {
    [None, Some(squeezed())]
}

/// [`policies`] as a proptest axis.
pub fn policy() -> impl Strategy<Value = Option<TieredPolicy>> {
    prop::sample::select(policies().to_vec())
}

/// A `#[test]` per store policy for each named scenario — a
/// `fn(Option<TieredPolicy>)` — in a module `untiered` and a module
/// `tiered` (under [`squeezed`]), so a failure names its policy.
#[allow(unused_macros)]
macro_rules! on_each_policy {
    ($($scenario:ident),+ $(,)?) => {
        mod untiered {
            $(
                #[test]
                fn $scenario() {
                    super::$scenario(None)
                }
            )+
        }
        mod tiered {
            $(
                #[test]
                fn $scenario() {
                    super::$scenario(Some(super::common::squeezed()))
                }
            )+
        }
    };
}
#[allow(unused_imports)]
pub(crate) use on_each_policy;
