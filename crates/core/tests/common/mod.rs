//! What the allocator-counting gates (`residency.rs`, `codec_allocs.rs`)
//! and the recovery-cost gate (`proportional_cost.rs`) share.  The first
//! two each install their own `#[global_allocator]`, so they stay separate
//! test binaries; the workload they count is one.

use bioopera_core::shard::{ShardConfig, ShardEngine};
use bioopera_core::{ActivityLibrary, ProgramOutput};
use bioopera_ocr::model::TypeTag;
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{Disk, MemDisk, Store};

/// The programs of `bench_e2e`'s chain: `A` passes `x` on, `B` doubles it.
pub fn chain_library() -> ActivityLibrary {
    let mut library = ActivityLibrary::new();
    library.register("p.a", |inputs| {
        let x = inputs.get("x").and_then(|v| v.as_int()).unwrap_or(7);
        Ok(ProgramOutput::from_fields([("x", Value::Int(x))], 10.0))
    });
    library.register("p.b", |inputs| {
        let x = inputs
            .get("x")
            .and_then(|v| v.as_int())
            .ok_or_else(|| "missing x".to_string())?;
        Ok(ProgramOutput::from_fields([("y", Value::Int(x * 2))], 20.0))
    });
    library
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

/// `bench_e2e`'s chain — `A` passes `x` on, `B` doubles it into `y` — on
/// four shards over `store`.
pub fn chain_engine_on<D: Disk>(store: Store<D>) -> ShardEngine<D> {
    let mut engine = ShardEngine::new(store, chain_library(), chain_config()).unwrap();
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
// Not every test binary that shares this module builds its own store.
#[allow(dead_code)]
pub fn chain_engine() -> ShardEngine<MemDisk> {
    chain_engine_on(Store::open(MemDisk::new()).unwrap())
}
