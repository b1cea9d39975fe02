//! The paper's flagship workload with the paper's failure classes: a
//! real-compute all-vs-all over a synthetic protein database, run once on
//! a calm cluster and once through node crashes, a network outage and a
//! BioOpera **server crash** — then proves both runs produced the
//! **identical** match set ("resume execution ... without losing already
//! completed work").
//!
//! ```sh
//! cargo run --release --example all_vs_all_recovery
//! ```

use bioopera::cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera::darwin::dataset::DatasetConfig;
use bioopera::darwin::{PamFamily, SequenceDb};
use bioopera::engine::{Driver, Runtime, RuntimeConfig};
use bioopera::store::MemDisk;
use bioopera::workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
use std::sync::Arc;

fn cluster() -> Cluster {
    Cluster::new(
        "mini-linneus",
        (0..5)
            .map(|i| NodeSpec::new(format!("n{i}"), 2, 500, "linux"))
            .collect(),
    )
}

fn run(setup: &AllVsAllSetup, trace: &Trace, label: &str) -> (String, i64, String) {
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(10),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster(), setup.library.clone(), cfg).unwrap();
    rt.register_template(&setup.chunk_template).unwrap();
    rt.register_template(&setup.template).unwrap();
    rt.install_trace(trace);
    let id = rt.submit("AllVsAll", setup.initial()).unwrap();
    rt.run_to_completion().unwrap();
    let wb = rt.whiteboard(id).unwrap();
    let digest = wb["digest"].as_str().unwrap().to_string();
    let matches = wb["match_count"].as_int().unwrap();
    let masked = rt
        .awareness()
        .of_kind(rt.store(), "task.systemfail")
        .map(|v| v.len())
        .unwrap_or(0);
    println!("[{label}]");
    println!("  status        : {:?}", rt.instance_status(id).unwrap());
    println!("  wall (virtual): {}", rt.stats(id).unwrap().wall);
    println!("  matches found : {matches}");
    println!("  digest        : {digest}");
    println!("  failures masked: {masked}");
    for (at, msg) in rt.event_log() {
        println!("    {at}  {msg}");
    }
    (digest, matches, label.to_string())
}

fn main() {
    // A 60-entry synthetic protein database with real families, aligned
    // for real (Smith-Waterman + PAM refinement run in-process).
    println!("generating synthetic protein database and PAM family...");
    let pam = Arc::new(PamFamily::default());
    let db = Arc::new(SequenceDb::generate(&DatasetConfig::small(60, 17), &pam));
    let setup = AllVsAllSetup::real(
        Arc::clone(&db),
        Arc::clone(&pam),
        AllVsAllConfig {
            teus: 8,
            ..Default::default()
        },
    );

    // Run 1: calm cluster.
    let clean = run(&setup, &Trace::empty(), "clean run");

    // Run 2: the everyday chaos of §5 — node crash, network outage, and a
    // full BioOpera server crash while TEUs are in flight.
    let mut chaos = Trace::empty();
    chaos.push_labeled(
        SimTime::from_secs(6),
        TraceEventKind::NodeDown("n1".into()),
        "node n1 crashes (its TEUs are re-queued)",
    );
    chaos.push(SimTime::from_secs(30), TraceEventKind::NodeUp("n1".into()));
    chaos.push_labeled(
        SimTime::from_secs(8),
        TraceEventKind::NetworkDown,
        "network outage (PECs buffer results)",
    );
    chaos.push(SimTime::from_secs(12), TraceEventKind::NetworkUp);
    chaos.push_labeled(
        SimTime::from_secs(16),
        TraceEventKind::ServerCrash,
        "BioOpera server crashes (volatile state lost)",
    );
    chaos.push(SimTime::from_secs(20), TraceEventKind::ServerRecover);
    let chaotic = run(&setup, &chaos, "run with injected failures");

    println!();
    assert_eq!(clean.0, chaotic.0, "digests must match");
    assert_eq!(clean.1, chaotic.1, "match counts must match");
    println!(
        "SUCCESS: both runs produced the identical match set ({} matches, digest {})",
        clean.1, clean.0
    );
    println!("dependability held: crashes re-ran only unfinished TEUs; completed work survived.");
}
