//! `bioopera` — command-line front end to the engine.
//!
//! ```text
//! bioopera validate <file.ocr>        parse + statically validate
//! bioopera fmt <file.ocr>             parse + pretty-print canonical OCR
//! bioopera run <file.ocr> [options]   execute a process file
//!     --entry NAME       process to start (default: last in the file)
//!     --set key=value    initial whiteboard data (repeatable; int/float/
//!                        bool/string auto-detected)
//!     --cluster NAME     small | linneus | ik-sun | ik-linux (default small)
//!     --trace NAME       none | shared | nonshared (default none)
//! bioopera demo allvsall|tower        run a built-in workload
//! ```
//!
//! `run` executes activities with a generic built-in library: a program
//! named `sleep:<ms>` consumes `<ms>` reference-CPU milliseconds and echoes
//! its inputs as outputs (plus `done = true`); any other name costs 1 s and
//! just echoes.  This is enough to experiment with process *structure* —
//! branches, parallel tasks, failure handlers — straight from OCR text.

use bioopera::cluster::{Cluster, NodeSpec, SimTime, Trace};
use bioopera::engine::{ActivityLibrary, Driver, ProgramOutput, Runtime, RuntimeConfig};
use bioopera::ocr::{self, Value};
use bioopera::store::MemDisk;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("validate") => cmd_validate(&args[1..]),
        Some("fmt") => cmd_fmt(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        _ => {
            eprintln!(
                "usage: bioopera validate|fmt|run|demo ... (see --help in the source header)"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn load_library_file(path: &str) -> Result<Vec<ocr::ProcessTemplate>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let templates = ocr::parser::parse_library(&text).map_err(|e| e.to_string())?;
    if templates.is_empty() {
        return Err(format!("{path} contains no PROCESS definitions"));
    }
    Ok(templates)
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("validate needs a file")?;
    let templates = load_library_file(path)?;
    for t in &templates {
        ocr::validate(t).map_err(|e| format!("{}: {e}", t.name))?;
        println!(
            "{}: OK ({} tasks, {} connectors, {} dataflows, {} handlers)",
            t.name,
            t.tasks.len(),
            t.connectors.len(),
            t.dataflows.len(),
            t.on_failure.len() + t.on_event.len()
        );
    }
    Ok(())
}

fn cmd_fmt(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("fmt needs a file")?;
    for t in load_library_file(path)? {
        print!("{}", ocr::to_ocr_text(&t));
        println!();
    }
    Ok(())
}

fn echo_program(
    cost_ms: f64,
) -> impl Fn(&BTreeMap<String, Value>) -> Result<ProgramOutput, String> + Send + Sync {
    move |inputs: &BTreeMap<String, Value>| {
        let mut outputs = inputs.clone();
        outputs.insert("done".to_string(), Value::Bool(true));
        Ok(ProgramOutput {
            outputs,
            cost_ref_ms: cost_ms,
        })
    }
}

fn program_names(t: &ocr::ProcessTemplate) -> Vec<String> {
    use ocr::model::{ParallelBody, TaskKind};
    let mut names = Vec::new();
    for task in &t.tasks {
        match &task.kind {
            TaskKind::Activity { binding } => names.push(binding.program.clone()),
            TaskKind::Parallel {
                body: ParallelBody::Activity(b),
                ..
            } => names.push(b.program.clone()),
            _ => {}
        }
    }
    for s in &t.spheres {
        for (_, prog) in &s.compensations {
            names.push(prog.clone());
        }
    }
    names
}

fn parse_value(s: &str) -> Value {
    if let Ok(i) = s.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Value::Float(f);
    }
    match s {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        "null" => Value::Null,
        other => Value::from(other),
    }
}

fn make_cluster(name: &str) -> Result<Cluster, String> {
    Ok(match name {
        "small" => Cluster::new(
            "small",
            (0..4)
                .map(|i| NodeSpec::new(format!("n{i}"), 2, 500, "linux"))
                .collect(),
        ),
        "linneus" => Cluster::linneus(),
        "ik-sun" => Cluster::ik_sun(),
        "ik-linux" => Cluster::ik_linux(),
        other => return Err(format!("unknown cluster `{other}`")),
    })
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("run needs a file")?;
    let mut entry: Option<String> = None;
    let mut initial: BTreeMap<String, Value> = BTreeMap::new();
    let mut cluster_name = "small".to_string();
    let mut trace_name = "none".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--entry" => {
                entry = Some(args.get(i + 1).ok_or("--entry needs a name")?.clone());
                i += 2;
            }
            "--set" => {
                let kv = args.get(i + 1).ok_or("--set needs key=value")?;
                let (k, v) = kv.split_once('=').ok_or("--set needs key=value")?;
                initial.insert(k.to_string(), parse_value(v));
                i += 2;
            }
            "--cluster" => {
                cluster_name = args.get(i + 1).ok_or("--cluster needs a name")?.clone();
                i += 2;
            }
            "--trace" => {
                trace_name = args.get(i + 1).ok_or("--trace needs a name")?.clone();
                i += 2;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let templates = load_library_file(path)?;
    let entry_name = entry.unwrap_or_else(|| templates.last().expect("non-empty").name.clone());

    // Register every program name the file references as a sleep/echo
    // body (the runtime errors on unknown programs, so we pre-register).
    let mut lib = ActivityLibrary::new();
    for t in &templates {
        for name in program_names(t) {
            let cost = name
                .strip_prefix("sleep:")
                .and_then(|ms| ms.parse::<f64>().ok())
                .unwrap_or(1_000.0);
            lib.register(name, echo_program(cost));
        }
    }

    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(10),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), make_cluster(&cluster_name)?, lib, cfg)
        .map_err(|e| e.to_string())?;
    for t in &templates {
        rt.register_template(t)
            .map_err(|e| format!("{}: {e}", t.name))?;
    }
    match trace_name.as_str() {
        "none" => {}
        "shared" => rt.install_trace(&Trace::shared_run()),
        "nonshared" => rt.install_trace(&Trace::nonshared_run()),
        other => return Err(format!("unknown trace `{other}`")),
    }
    let id = rt.submit(&entry_name, initial).map_err(|e| e.to_string())?;
    rt.run_to_completion().map_err(|e| e.to_string())?;

    println!(
        "instance {id} ({entry_name}): {:?}",
        rt.instance_status(id).unwrap()
    );
    println!("virtual wall time: {}", rt.now());
    let stats = rt.stats(id).map_err(|e| e.to_string())?;
    println!("CPU(P) = {}   activities = {}", stats.cpu, stats.activities);
    println!("--- whiteboard ---");
    for (k, v) in rt.whiteboard(id).unwrap() {
        println!("  {k} = {v}");
    }
    println!("--- task states ---");
    for (p, r) in rt.task_records(id).unwrap() {
        println!(
            "  {p:<24} {:?}{}",
            r.state,
            r.node
                .as_deref()
                .map(|n| format!(" on {n}"))
                .unwrap_or_default()
        );
    }
    if !rt.event_log().is_empty() {
        println!("--- events ---");
        for (at, msg) in rt.event_log() {
            println!("  {at}  {msg}");
        }
    }
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("allvsall") => {
            use bioopera::workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
            let setup = AllVsAllSetup::synthetic(
                5_000,
                370,
                38,
                AllVsAllConfig {
                    teus: 25,
                    ..Default::default()
                },
            );
            let cfg = RuntimeConfig {
                heartbeat: SimTime::from_hours(1),
                ..Default::default()
            };
            let mut rt = Runtime::new(
                MemDisk::new(),
                make_cluster("small")?,
                setup.library.clone(),
                cfg,
            )
            .map_err(|e| e.to_string())?;
            rt.register_template(&setup.chunk_template)
                .map_err(|e| e.to_string())?;
            rt.register_template(&setup.template)
                .map_err(|e| e.to_string())?;
            let id = rt
                .submit("AllVsAll", setup.initial())
                .map_err(|e| e.to_string())?;
            rt.run_to_completion().map_err(|e| e.to_string())?;
            let stats = rt.stats(id).map_err(|e| e.to_string())?;
            println!(
                "all-vs-all over 5 000 entries: {:?} in {} wall, {} CPU, {} matches",
                rt.instance_status(id).unwrap(),
                stats.wall,
                stats.cpu,
                rt.whiteboard(id).unwrap()["match_count"]
            );
            Ok(())
        }
        Some("tower") => {
            use bioopera::darwin::{CostModel, PamFamily};
            use bioopera::workloads::tower::{make_input_dna, tower_library, tower_template};
            use std::sync::Arc;
            let pam = Arc::new(PamFamily::default());
            let lib = tower_library(Arc::clone(&pam), CostModel::default());
            let cfg = RuntimeConfig {
                heartbeat: SimTime::from_mins(10),
                ..Default::default()
            };
            let mut rt = Runtime::new(MemDisk::new(), make_cluster("small")?, lib, cfg)
                .map_err(|e| e.to_string())?;
            rt.register_template(&tower_template())
                .map_err(|e| e.to_string())?;
            let mut init = BTreeMap::new();
            init.insert("dna".to_string(), Value::from(make_input_dna(2, 3, 1)));
            let id = rt
                .submit("TowerOfInformation", init)
                .map_err(|e| e.to_string())?;
            rt.run_to_completion().map_err(|e| e.to_string())?;
            println!(
                "tower: {:?} in {}",
                rt.instance_status(id).unwrap(),
                rt.now()
            );
            println!("tree: {}", rt.whiteboard(id).unwrap()["tree"]);
            Ok(())
        }
        _ => Err("demo needs `allvsall` or `tower`".to_string()),
    }
}
