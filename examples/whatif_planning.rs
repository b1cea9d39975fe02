//! Planning and dealing with outages (paper §3.5): ask the running system
//! "which processes will be affected if a node or set of nodes is taken
//! off-line?" — the planner reports affected jobs, re-schedulability under
//! placement constraints, and per-process progress.
//!
//! ```sh
//! cargo run --example whatif_planning
//! ```

use bioopera::cluster::{Cluster, NodeSpec, SimTime};
use bioopera::engine::{ActivityLibrary, Driver, Planner, ProgramOutput, Runtime, RuntimeConfig};
use bioopera::ocr::{ExternalBinding, ParallelBody, ProcessBuilder, TypeTag, Value};
use bioopera::store::MemDisk;
use std::collections::BTreeMap;

fn main() {
    // A cluster with one Solaris node; one activity is pinned to Solaris.
    let cluster = Cluster::new(
        "lab",
        vec![
            NodeSpec::new("pc1", 2, 500, "linux"),
            NodeSpec::new("pc2", 2, 500, "linux"),
            NodeSpec::new("sun1", 1, 360, "solaris"),
        ],
    );
    let template = ProcessBuilder::new("Pinned")
        .activity("Gen", "gen", |t| t.output("items", TypeTag::List))
        .parallel(
            "Fan",
            "items",
            ParallelBody::Activity(ExternalBinding::program("work")),
            "results",
            |t| t,
        )
        .activity("SunOnly", "work.sun", |t| t.on_os("solaris"))
        .connect("Gen", "Fan")
        .connect("Gen", "SunOnly")
        .flow_to_task("Gen", "items", "Fan", "items")
        .build()
        .unwrap();
    let mut lib = ActivityLibrary::new();
    lib.register("gen", |_| {
        Ok(ProgramOutput::from_fields(
            [("items", Value::int_list(0..6))],
            1_000.0,
        ))
    });
    lib.register("work", |_| {
        Ok(ProgramOutput::from_fields(
            [("ok", Value::Bool(true))],
            3_600_000.0,
        ))
    });
    lib.register("work.sun", |_| {
        Ok(ProgramOutput::from_fields(
            [("ok", Value::Bool(true))],
            3_600_000.0,
        ))
    });

    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(5),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster, lib, cfg).unwrap();
    rt.register_template(&template).unwrap();
    let _id = rt.submit("Pinned", BTreeMap::new()).unwrap();

    // Step the simulation until the hour-long TEUs are on nodes.
    while rt.in_flight_jobs().is_empty() || rt.now() < SimTime::from_secs(30) {
        if !rt.step().unwrap() {
            break;
        }
    }
    println!("at virtual time {}, in-flight jobs:", rt.now());
    for (inst, task, node) in rt.in_flight_jobs() {
        println!("  instance {inst} task {task:<10} on {node}");
    }

    // What if we take pc1 down for maintenance?
    println!("\n=== what-if: take pc1 off-line ===");
    print!("{}", Planner::what_if_offline(&rt, &["pc1"]).report());

    // What if we take the only Solaris node down?  SunOnly cannot move.
    println!("=== what-if: take sun1 off-line ===");
    print!("{}", Planner::what_if_offline(&rt, &["sun1"]).report());

    // What if the whole cluster goes?
    println!("=== what-if: take everything off-line ===");
    print!(
        "{}",
        Planner::what_if_offline(&rt, &["pc1", "pc2", "sun1"]).report()
    );

    // Finish the run regardless.
    rt.run_to_completion().unwrap();
    println!(
        "\nrun completed at {} despite our hypotheticals (they were only queries)",
        rt.now()
    );
}
