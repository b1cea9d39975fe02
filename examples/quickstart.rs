//! Quickstart: define a small process with the builder API, run it on a
//! simulated 3-node cluster, inspect results and the persistent history.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bioopera::cluster::{Cluster, NodeSpec, SimTime};
use bioopera::engine::{ActivityLibrary, Driver, ProgramOutput, Runtime, RuntimeConfig};
use bioopera::ocr::{self, ProcessBuilder, TypeTag, Value};
use bioopera::store::MemDisk;
use std::collections::BTreeMap;

fn main() {
    // 1. A process template: fetch a dataset, analyze each shard in
    //    parallel, summarize.
    let template = ProcessBuilder::new("Quickstart")
        .whiteboard_default("shards", TypeTag::Int, Value::Int(6))
        .whiteboard_field("summary", TypeTag::Map)
        .activity("Fetch", "demo.fetch", |t| {
            t.input("shards", TypeTag::Int)
                .output("parts", TypeTag::List)
        })
        .parallel(
            "Analyze",
            "parts",
            ocr::ParallelBody::Activity(ocr::ExternalBinding::program("demo.analyze")),
            "results",
            |t| t.retries(2),
        )
        .activity("Summarize", "demo.summarize", |t| {
            t.input("results", TypeTag::List)
                .output("summary", TypeTag::Map)
        })
        .connect("Fetch", "Analyze")
        .connect("Analyze", "Summarize")
        .flow_from_whiteboard("shards", "Fetch", "shards")
        .flow_to_task("Fetch", "parts", "Analyze", "parts")
        .flow_to_task("Analyze", "results", "Summarize", "results")
        .flow_to_whiteboard("Summarize", "summary", "summary")
        .build()
        .expect("template validates");

    // The template is also expressible as OCR text:
    println!("--- OCR text of the template ---");
    println!("{}", ocr::to_ocr_text(&template));

    // 2. Programs behind the activities.  Each returns outputs plus the
    //    amount of (virtual) CPU the job represents.
    let mut lib = ActivityLibrary::new();
    lib.register("demo.fetch", |inputs| {
        let n = inputs.get("shards").and_then(|v| v.as_int()).unwrap_or(4);
        Ok(ProgramOutput::from_fields(
            [("parts", Value::int_list(0..n))],
            2_000.0, // 2 s of reference CPU
        ))
    });
    lib.register("demo.analyze", |inputs| {
        let shard = inputs["item"].as_int().ok_or("no shard")?;
        Ok(ProgramOutput::from_fields(
            [("score", Value::Float((shard as f64 + 1.0).sqrt()))],
            60_000.0, // 1 minute per shard
        ))
    });
    lib.register("demo.summarize", |inputs| {
        let results = inputs["results"].as_list().ok_or("no results")?;
        let total: f64 = results
            .iter()
            .filter_map(|r| r.get_path(&["score"]).and_then(|v| v.as_float()))
            .sum();
        Ok(ProgramOutput::from_fields(
            [(
                "summary",
                Value::map_from([
                    ("shards", Value::Int(results.len() as i64)),
                    ("total_score", Value::Float(total)),
                ]),
            )],
            1_000.0,
        ))
    });

    // 3. A cluster and the runtime.
    let cluster = Cluster::new(
        "lab",
        vec![
            NodeSpec::new("node-a", 2, 500, "linux"),
            NodeSpec::new("node-b", 2, 500, "linux"),
            NodeSpec::new("node-c", 1, 1000, "solaris"),
        ],
    );
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(20),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster, lib, cfg).expect("runtime");
    rt.register_template(&template).expect("register");

    // 4. Run.
    let id = rt.submit("Quickstart", BTreeMap::new()).expect("submit");
    rt.run_to_completion().expect("run");

    println!("--- results ---");
    println!("status        : {:?}", rt.instance_status(id).unwrap());
    println!("virtual wall  : {}", rt.now());
    println!("summary       : {}", rt.whiteboard(id).unwrap()["summary"]);
    let stats = rt.stats(id).expect("stats");
    println!("activities    : {}", stats.activities);
    println!("CPU(P)        : {}", stats.cpu);

    println!("--- per-task placement (from the instance space) ---");
    for (path, rec) in rt.task_records(id).unwrap() {
        if let Some(node) = &rec.node {
            println!("  {path:<12} -> {node} ({:?})", rec.state);
        }
    }

    println!("--- persistent history (awareness model) ---");
    for (kind, n) in rt.awareness().index().counts_by_kind() {
        println!("  {kind:<22} {n}");
    }
}
