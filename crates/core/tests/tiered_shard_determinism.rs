//! Sharded-navigator determinism over the **tiered** store.
//!
//! The leveled/tiered engine spills memtables into sorted runs and
//! merges them down a level hierarchy *underneath* the shard journals.
//! None of that may be observable: a sharded engine running on a
//! 512-byte memtable budget must reproduce the untiered 1-shard serial
//! baseline bit-for-bit — history digest, state digest and event counts
//! — and per-shard recovery scans must read records out of spilled runs
//! exactly as they would out of the memtable.

use bioopera_core::{ActivityLibrary, FaultInjection, ProgramOutput, ShardConfig, ShardEngine};
use bioopera_ocr::model::{ExternalBinding, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{shard_key, MemDisk, Space, Store, StoreError, TieredPolicy};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The squeezed policy: every few records spill, every second spill
/// merges, and levels overflow constantly.
fn tiny_policy() -> TieredPolicy {
    TieredPolicy {
        memtable_budget_bytes: 512,
        run_merge_threshold: 2,
        level_base_bytes: 4096,
        level_growth: 2,
        level_run_bytes: 768,
        ..TieredPolicy::default()
    }
}

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

/// Run a workload to completion on a store with the given policy and
/// return the observable fingerprint plus final store stats.
fn run_workload(
    workload: &[(usize, i64)],
    shards: usize,
    threads: usize,
    faults: Option<FaultInjection>,
    policy: Option<TieredPolicy>,
) -> ((u64, u64, BTreeMap<String, u64>), u64) {
    let store = Store::open_with(MemDisk::new(), policy).unwrap();
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
    let spills = eng.store().stats().spills;
    (
        (eng.history_digest(), eng.state_digest(), eng.event_counts()),
        spills,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Tiering is invisible to the sharding contract: both a tiered
    /// serial engine and a tiered (shards, threads) engine reproduce
    /// the *untiered* 1×1 baseline bit-for-bit, while the tiny budget
    /// provably pushes the workload through spills.
    #[test]
    fn tiered_sharded_replay_matches_untiered_serial_baseline(
        workload in prop::collection::vec((0usize..3, 0i64..100), 4..16),
        shards in 2usize..7,
        threads in 1usize..4,
        fault_seed in any::<u64>(),
        fault_rate in prop_oneof![Just(0u32), Just(120_000u32)],
    ) {
        let faults = (fault_rate > 0).then_some(FaultInjection {
            seed: fault_seed,
            rate_ppm: fault_rate,
        });
        let (baseline, _) = run_workload(&workload, 1, 1, faults.clone(), None);
        let (tiered_serial, serial_spills) =
            run_workload(&workload, 1, 1, faults.clone(), Some(tiny_policy()));
        let (tiered_sharded, sharded_spills) =
            run_workload(&workload, shards, threads, faults, Some(tiny_policy()));
        prop_assert!(serial_spills > 0, "512-byte budget never spilled");
        prop_assert!(sharded_spills > 0, "512-byte budget never spilled (sharded)");
        prop_assert_eq!(&tiered_serial.0, &baseline.0, "serial history digest diverged");
        prop_assert_eq!(&tiered_sharded.0, &baseline.0, "sharded history digest diverged");
        prop_assert_eq!(&tiered_serial.1, &baseline.1, "serial state digest diverged");
        prop_assert_eq!(&tiered_sharded.1, &baseline.1, "sharded state digest diverged");
        prop_assert_eq!(&tiered_sharded.2, &baseline.2, "event counts diverged");
    }
}

/// A shard's recovery scan must surface records that have left the
/// memtable: spill the journals into runs, push them down a level, and
/// require every shard to read back exactly its own records.
#[test]
fn visit_shard_reads_records_out_of_spilled_runs() {
    let store = Store::open_with(MemDisk::new(), Some(tiny_policy())).unwrap();
    for shard in 0..3usize {
        for i in 0..40u32 {
            let body = format!("shard{shard}-rec{i:03}-{}", "x".repeat(48));
            store
                .put(
                    Space::Instance,
                    shard_key(shard, &format!("inst/{i:03}")),
                    body.into_bytes(),
                )
                .unwrap();
        }
    }
    let stats = store.stats();
    assert!(stats.spills > 0, "journals never left the memtable");
    assert!(stats.run_merges > 0, "spilled runs were never merged");

    let visit = |shard: usize| {
        let mut seen: Vec<(String, Vec<u8>)> = Vec::new();
        store
            .visit_shard(Space::Instance, shard, |key, value| {
                seen.push((key.to_string(), value.to_vec()));
                Ok::<(), StoreError>(())
            })
            .unwrap();
        seen
    };
    for shard in 0..3usize {
        let seen = visit(shard);
        assert_eq!(seen.len(), 40, "shard {shard} lost records to a spill");
        for (i, (key, value)) in seen.iter().enumerate() {
            assert_eq!(key, &format!("inst/{i:03}"));
            let text = std::str::from_utf8(value).unwrap();
            assert!(
                text.starts_with(&format!("shard{shard}-rec{i:03}")),
                "shard {shard} read another shard's record: {text}"
            );
        }
    }
    // A shard that never wrote sees an empty journal, not a neighbour's.
    assert!(visit(7).is_empty());
}
