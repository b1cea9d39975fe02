//! Lineage tracking and selective recomputation (§6): "lineage tracking is
//! done automatically and all dependencies are persistently recorded.
//! This makes it possible for the system to recompute processes as data
//! inputs or algorithms change."
//!
//! A tower-of-information run is completed once; we then pretend the
//! alignment algorithm improved and ask BioOpera what must be recomputed —
//! and run exactly that, reusing the recorded gene-finding and translation
//! outputs.
//!
//! ```sh
//! cargo run --release --example lineage_recompute
//! ```

use bioopera::cluster::{Cluster, NodeSpec, SimTime};
use bioopera::darwin::{CostModel, PamFamily};
use bioopera::engine::{Driver, Lineage, Runtime, RuntimeConfig};
use bioopera::ocr::Value;
use bioopera::store::MemDisk;
use bioopera::workloads::tower::{make_input_dna, tower_library, tower_template};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    let template = tower_template();

    // 1. The lineage graph is derivable from the persistent template alone.
    let lineage = Lineage::derive(&template);
    println!("--- lineage queries (from the template's recorded dependencies) ---");
    for task in [
        "GeneFinding",
        "Translation",
        "PairwiseAlignments",
        "MultipleAlignment",
    ] {
        let closure = lineage.invalidation_closure([task]);
        println!(
            "if `{task}` changes, recompute: {}",
            closure.iter().cloned().collect::<Vec<_>>().join(", ")
        );
    }
    println!(
        "provenance of `PhylogeneticTree`: {}",
        lineage
            .provenance_closure("PhylogeneticTree")
            .iter()
            .cloned()
            .collect::<Vec<_>>()
            .join(", ")
    );

    // 2. Run the tower once.
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
    rt.register_template(&template).unwrap();
    let mut init = BTreeMap::new();
    init.insert("dna".to_string(), Value::from(make_input_dna(2, 3, 7)));
    let id1 = rt.submit("TowerOfInformation", init).unwrap();
    rt.run_to_completion().unwrap();
    let ends_before = rt
        .awareness()
        .of_kind(rt.store(), "task.end")
        .unwrap()
        .len();
    println!(
        "\n--- first run complete: {} task executions ---",
        ends_before
    );

    // 3. "The alignment algorithm changed": selectively recompute.
    let id2 = rt.recompute(id1, &["PairwiseAlignments"]).unwrap();
    rt.run_to_completion().unwrap();
    let ends_after = rt
        .awareness()
        .of_kind(rt.store(), "task.end")
        .unwrap()
        .len();
    println!("--- recompute complete: instance {id2} ---");
    println!(
        "additional task executions: {} (first run: {})",
        ends_after - ends_before,
        ends_before
    );
    println!("gene finding / translation / MSA / structure storeys were REUSED;");
    println!("only the alignments and the tree re-ran.");
    let t1 = rt.whiteboard(id1).unwrap()["tree"].clone();
    let t2 = rt.whiteboard(id2).unwrap()["tree"].clone();
    println!("\ntree (run 1) == tree (run 2): {}", t1 == t2);
    for (at, msg) in rt.event_log() {
        if msg.contains("recomputation") {
            println!("event log: {at}  {msg}");
        }
    }
}
