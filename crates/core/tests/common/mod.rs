//! What the allocator-counting gates (`residency.rs`, `codec_allocs.rs`)
//! share.  Each installs its own `#[global_allocator]`, so they stay
//! separate test binaries; the workload they count is one.

use bioopera_core::shard::{ShardConfig, ShardEngine};
use bioopera_core::{ActivityLibrary, ProgramOutput};
use bioopera_ocr::model::TypeTag;
use bioopera_ocr::value::Value;
use bioopera_ocr::ProcessBuilder;
use bioopera_store::{MemDisk, Store};

/// `bench_e2e`'s chain: `A` passes `x` on, `B` doubles it into `y`.
pub fn chain_engine() -> ShardEngine<MemDisk> {
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
    let template = ProcessBuilder::new("Chain")
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
        .unwrap();
    let cfg = ShardConfig {
        shards: 4,
        // One stepper thread: every allocation lands on this thread.
        threads: 1,
        ..ShardConfig::default()
    };
    let store = Store::open(MemDisk::new()).unwrap();
    let mut engine = ShardEngine::new(store, library, cfg).unwrap();
    engine.register_template(template).unwrap();
    engine
}
