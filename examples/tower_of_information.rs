//! The **tower of information** (paper §1, Fig. 1): "starting with the raw
//! DNA", locate genes, translate them, align the proteins, build a
//! phylogenetic tree, compute a multiple alignment and ancestral sequence,
//! and predict secondary structure — all as one BioOpera process with two
//! parallel blocks.
//!
//! ```sh
//! cargo run --release --example tower_of_information
//! ```

use bioopera::cluster::{Cluster, NodeSpec, SimTime};
use bioopera::darwin::{CostModel, PamFamily};
use bioopera::engine::{Driver, Runtime, RuntimeConfig};
use bioopera::ocr::Value;
use bioopera::store::MemDisk;
use bioopera::workloads::tower::{make_input_dna, tower_library, tower_template};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    // Synthesize "raw DNA" carrying three protein families of three genes
    // each, separated by junk.
    let dna = make_input_dna(3, 3, 2024);
    println!("raw DNA: {} bases (genes hidden inside)", dna.len());

    let pam = Arc::new(PamFamily::default());
    let lib = tower_library(Arc::clone(&pam), CostModel::default());
    let cluster = Cluster::new(
        "lab",
        (0..4)
            .map(|i| NodeSpec::new(format!("n{i}"), 2, 500, "linux"))
            .collect(),
    );
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(5),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster, lib, cfg).unwrap();
    rt.register_template(&tower_template()).unwrap();

    let mut init = BTreeMap::new();
    init.insert("dna".to_string(), Value::from(dna));
    let id = rt.submit("TowerOfInformation", init).unwrap();
    rt.run_to_completion().unwrap();

    println!(
        "status: {:?}   virtual wall: {}",
        rt.instance_status(id).unwrap(),
        rt.now()
    );
    let wb = rt.whiteboard(id).unwrap();

    println!("\n--- storey 4: phylogenetic tree (neighbor joining, Newick) ---");
    println!("{}", wb["tree"].as_str().unwrap());

    println!("\n--- top storey: structure & function report ---");
    let report = wb["report"].as_map().unwrap();
    for (k, v) in report {
        println!("  {k:<14} {v}");
    }

    println!("\n--- per-gene secondary structure (Chou-Fasman) ---");
    let structures = rt
        .task_record(id, "StructurePrediction")
        .unwrap()
        .outputs
        .get("structures")
        .and_then(|v| v.as_list())
        .unwrap()
        .to_vec();
    for s in structures.iter().take(4) {
        let idx = s.get_path(&["index"]).unwrap();
        let pred = s
            .get_path(&["prediction"])
            .and_then(|v| v.as_str())
            .unwrap_or("");
        let short: String = pred.chars().take(60).collect();
        println!(
            "  gene {idx}: {short}{}",
            if pred.len() > 60 { "..." } else { "" }
        );
    }
    println!("\n(the whole tower ran as one dependable BioOpera process — every");
    println!(" intermediate dataset is in the instance space, ready for reuse");
    println!(" when an algorithm or input changes, as the paper's §1 demands)");
}
