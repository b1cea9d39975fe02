//! OCR as a textual scripting language: parse a process definition from
//! text (the navigator's "persistent scripting language"), validate it,
//! execute it, and show the conditional branch + event handler machinery.
//!
//! ```sh
//! cargo run --example ocr_script
//! ```

use bioopera::cluster::{Cluster, NodeSpec, SimTime};
use bioopera::engine::{ActivityLibrary, Driver, ProgramOutput, Runtime, RuntimeConfig};
use bioopera::ocr::{self, Value};
use bioopera::store::MemDisk;
use std::collections::BTreeMap;

const SCRIPT: &str = r#"
// A data-cleaning pipeline with a conditional branch: noisy inputs take a
// detour through a scrubbing step; clean inputs go straight to analysis.
PROCESS CleanAndAnalyze {
  WHITEBOARD {
    noise_level: FLOAT = 0.5;
    verdict: STR;
  }
  ACTIVITY Inspect {
    PROGRAM "pipeline.inspect";
    INPUT  { noise_level: FLOAT; }
    OUTPUT { noisy: BOOL; sample: LIST; }
    RETRY 1;
  }
  ACTIVITY Scrub {
    PROGRAM "pipeline.scrub";
    INPUT  { sample: LIST; }
    OUTPUT { sample: LIST; }
  }
  ACTIVITY Analyze {
    PROGRAM "pipeline.analyze";
    INPUT  { sample: LIST; }
    OUTPUT { verdict: STR; }
  }
  BLOCK Preparation { MEMBERS Inspect, Scrub; }
  CONNECTOR Inspect -> Scrub   WHEN Inspect.noisy == true;
  CONNECTOR Inspect -> Analyze WHEN Inspect.noisy == false;
  CONNECTOR Scrub -> Analyze;
  DATAFLOW WHITEBOARD.noise_level -> Inspect.noise_level;
  DATAFLOW Inspect.sample -> Scrub.sample;
  DATAFLOW Inspect.sample -> Analyze.sample;
  DATAFLOW Scrub.sample -> Analyze.sample;
  DATAFLOW Analyze.verdict -> WHITEBOARD.verdict;
  ON FAILURE OF Scrub IGNORE;
  ON EVENT "operator_pause" SUSPEND;
  ON EVENT "operator_go" RESUME;
}
"#;

fn library() -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("pipeline.inspect", |inputs| {
        let noise = inputs
            .get("noise_level")
            .and_then(|v| v.as_float())
            .unwrap_or(0.0);
        Ok(ProgramOutput::from_fields(
            [
                ("noisy", Value::Bool(noise > 0.3)),
                ("sample", Value::int_list([4, 8, 15, 16, 23, 42])),
            ],
            1_000.0,
        ))
    });
    lib.register("pipeline.scrub", |inputs| {
        let sample = inputs["sample"].as_list().ok_or("no sample")?;
        let cleaned: Vec<Value> = sample
            .iter()
            .filter(|v| v.as_int().map(|i| i % 2 == 0).unwrap_or(false))
            .cloned()
            .collect();
        Ok(ProgramOutput::from_fields(
            [("sample", Value::List(cleaned))],
            5_000.0,
        ))
    });
    lib.register("pipeline.analyze", |inputs| {
        let n = inputs["sample"].as_list().map(|l| l.len()).unwrap_or(0);
        Ok(ProgramOutput::from_fields(
            [("verdict", Value::from(format!("{n} usable data points")))],
            2_000.0,
        ))
    });
    lib
}

fn run(noise: f64) -> (String, Vec<(String, String)>) {
    let template = ocr::parse_process(SCRIPT).expect("OCR parses");
    ocr::validate(&template).expect("OCR validates");
    let cluster = Cluster::new("lab", vec![NodeSpec::new("n1", 2, 500, "linux")]);
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(30),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster, library(), cfg).unwrap();
    rt.register_template(&template).unwrap();
    let mut init = BTreeMap::new();
    init.insert("noise_level".to_string(), Value::Float(noise));
    let id = rt.submit("CleanAndAnalyze", init).unwrap();
    rt.run_to_completion().unwrap();
    let verdict = rt.whiteboard(id).unwrap()["verdict"].to_string();
    let states = rt
        .task_records(id)
        .unwrap()
        .iter()
        .map(|(p, r)| (p.clone(), format!("{:?}", r.state)))
        .collect();
    (verdict, states)
}

fn main() {
    println!("--- parsed from OCR text, printed back ---");
    let template = ocr::parse_process(SCRIPT).unwrap();
    println!("{}", ocr::to_ocr_text(&template));

    for noise in [0.8, 0.1] {
        let (verdict, states) = run(noise);
        println!("noise_level = {noise}:");
        for (path, state) in &states {
            println!("  {path:<10} {state}");
        }
        println!("  verdict: {verdict}\n");
    }
    println!("high noise routed through Scrub (6 -> even-only); low noise skipped it.");
}
