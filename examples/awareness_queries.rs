//! Awareness queries: the §3.4 monitoring surface on a live run.
//!
//! Runs a fan-out process on a small cluster with a mid-run node crash,
//! then answers the operator's questions from the awareness model: event
//! counts by kind, typed per-task timings, latency histograms, gauges,
//! and the consolidated JSON run report.
//!
//! ```sh
//! cargo run --example awareness_queries
//! ```

use bioopera::cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera::engine::{ActivityLibrary, Driver, EventKind, ProgramOutput, Runtime, RuntimeConfig};
use bioopera::ocr::{self, ProcessBuilder, TypeTag, Value};
use bioopera::store::MemDisk;
use std::collections::BTreeMap;

fn main() {
    // A fetch → parallel-analyze → summarize pipeline, as in quickstart.
    let template = ProcessBuilder::new("Survey")
        .whiteboard_default("shards", TypeTag::Int, Value::Int(12))
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

    let mut lib = ActivityLibrary::new();
    lib.register("demo.fetch", |inputs| {
        let n = inputs.get("shards").and_then(|v| v.as_int()).unwrap_or(4);
        Ok(ProgramOutput::from_fields(
            [("parts", Value::int_list(0..n))],
            2_000.0,
        ))
    });
    lib.register("demo.analyze", |inputs| {
        let shard = inputs["item"].as_int().ok_or("no shard")?;
        Ok(ProgramOutput::from_fields(
            [("score", Value::Float((shard as f64 + 1.0).sqrt()))],
            300_000.0, // 5 minutes per shard
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
                Value::map_from([("total_score", Value::Float(total))]),
            )],
            1_000.0,
        ))
    });

    let cluster = Cluster::new(
        "lab",
        vec![
            NodeSpec::new("node-a", 2, 500, "linux"),
            NodeSpec::new("node-b", 2, 500, "linux"),
            NodeSpec::new("node-c", 1, 1000, "solaris"),
        ],
    );
    // node-b dies mid-run and comes back later: the engine masks the
    // failure, and the awareness model remembers every step of it.
    let mut trace = Trace::empty();
    trace
        .push(
            SimTime::from_mins(6),
            TraceEventKind::NodeDown("node-b".into()),
        )
        .push(
            SimTime::from_mins(30),
            TraceEventKind::NodeUp("node-b".into()),
        );

    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(30),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster, lib, cfg).expect("runtime");
    rt.register_template(&template).expect("register");
    rt.install_trace(&trace);
    let id = rt.submit("Survey", BTreeMap::new()).expect("submit");
    rt.run_to_completion().expect("run");
    println!(
        "run done: {:?} at {}",
        rt.instance_status(id).unwrap(),
        rt.now()
    );

    // 1. The summary query: how many of what happened?
    println!("\n--- event counts by kind (indexed, no store scan) ---");
    for (kind, n) in rt.awareness().index().counts_by_kind() {
        println!("  {kind:<22} {n}");
    }

    // 2. Typed queries: which tasks did the crash take down, and where
    //    did each analysis shard actually run?
    println!("\n--- system failures (typed) ---");
    for ev in rt
        .awareness()
        .of_kind(rt.store(), "task.systemfail")
        .unwrap()
    {
        if let EventKind::TaskSystemFail { path, reason, .. } = &ev.kind {
            println!("  day {:>6.3}  {path:<12} {reason}", ev.at.as_days_f64());
        }
    }
    println!("\n--- task ends on node-a ---");
    for ev in rt.awareness().index().for_node("node-a") {
        if let EventKind::TaskEnd { path, run_ms, .. } = &ev.kind {
            println!("  {path:<12} ran {:>6.1} min", *run_ms as f64 / 60_000.0);
        }
    }

    // 3. Latency distributions and gauges.
    let idx = rt.awareness().index();
    println!("\n--- latency and load ---");
    println!(
        "  task run    mean {:>7.1}s  p50 <= {:>5}s  max {:>5}s ({} tasks)",
        idx.run_ms().mean_ms() / 1_000.0,
        idx.run_ms().quantile_ms(0.5) / 1_000,
        idx.run_ms().max_ms() / 1_000,
        idx.run_ms().count()
    );
    println!(
        "  queue wait  mean {:>7.1}s  p90 <= {:>5}s",
        idx.queue_ms().mean_ms() / 1_000.0,
        idx.queue_ms().quantile_ms(0.9) / 1_000
    );
    println!(
        "  peak in-flight {}   total CPU {:.0}s   nodes down now: {:?}",
        idx.peak_in_flight(),
        idx.total_cpu_ms() / 1_000.0,
        idx.nodes_down()
    );

    // 4. Everything at once, machine-readable.
    let report = rt.run_report(SimTime::from_mins(10));
    println!("\n--- run report (JSON, first 200 chars) ---");
    let json = serde_json::to_string(&report).expect("serialize");
    println!("  {}...", &json[..json.len().min(200)]);
}
