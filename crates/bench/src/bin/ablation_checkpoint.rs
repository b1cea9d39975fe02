//! **Checkpoint-granularity ablation** — §3.3: "since checkpointing is
//! done for complete activities, smaller activities result in less work
//! lost when failures occur."
//!
//! The same workload runs under an aggressive node-crash schedule at
//! several TEU granularities; we measure the wasted CPU (work re-executed
//! because an in-flight TEU was killed) and the wall time.

use bioopera_bench::{fmt_days, write_results};
use bioopera_cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera_core::{Driver, Runtime, RuntimeConfig};
use bioopera_store::MemDisk;
use bioopera_workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
use std::fmt::Write;

fn cluster() -> Cluster {
    Cluster::new(
        "ck",
        (0..6)
            .map(|i| NodeSpec::new(format!("n{i}"), 1, 500, "linux"))
            .collect(),
    )
}

/// One node crashes (and recovers 1 h later) every 5 h, round-robin.
fn crashy_trace(crashes: u64) -> Trace {
    let mut t = Trace::empty();
    for d in 0..crashes {
        let node = format!("n{}", d % 6);
        let at = SimTime::from_hours(5 * d + 3);
        t.push(at, TraceEventKind::NodeDown(node.clone()));
        t.push(at + SimTime::from_hours(1), TraceEventKind::NodeUp(node));
    }
    t
}

fn main() {
    println!("Checkpoint granularity vs lost work under repeated node crashes\n");
    let mut t = String::new();
    let _ = writeln!(
        t,
        "{:>8} {:>14} {:>14} {:>16} {:>12}",
        "# TEUs", "WALL", "CPU(done)", "lost CPU", "re-runs"
    );
    for &teus in &[6i64, 12, 24, 48, 96, 192] {
        let setup = AllVsAllSetup::synthetic(
            8_000,
            370,
            38,
            AllVsAllConfig {
                teus,
                ..Default::default()
            },
        );
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_hours(2),
            ..Default::default()
        };
        let mut rt = Runtime::new(MemDisk::new(), cluster(), setup.library.clone(), cfg).unwrap();
        rt.register_template(&setup.chunk_template).unwrap();
        rt.register_template(&setup.template).unwrap();
        rt.install_trace(&crashy_trace(48));
        let id = rt.submit("AllVsAll", setup.initial()).unwrap();
        rt.run_to_completion().unwrap();
        let stats = rt.stats(id).unwrap();
        let lost = SimTime::from_millis(rt.cluster().wasted_cpu_ms().round() as u64);
        let reruns = rt
            .awareness()
            .of_kind(rt.store(), "task.systemfail")
            .map(|v| v.len())
            .unwrap_or(0);
        let _ = writeln!(
            t,
            "{teus:>8} {:>14} {:>14} {:>16} {reruns:>12}",
            fmt_days(stats.wall),
            fmt_days(stats.cpu),
            fmt_days(lost),
        );
    }
    println!("{t}");
    println!(
        "expected shape: coarse TEUs lose large in-flight chunks to every crash\n\
         (more lost CPU per kill); very fine TEUs pay Darwin-init overhead in\n\
         CPU(done) instead.  \"Since checkpointing is done for complete\n\
         activities, smaller activities result in less work lost\" (§3.3)."
    );
    write_results("ablation_checkpoint.txt", &t);
}
