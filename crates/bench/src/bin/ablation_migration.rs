//! **Migration ablation** — §5.4: "One strategy to solve this problem
//! would be to have BioOpera abort the affected TEU and re-schedule it
//! elsewhere ... if the non-BioOpera user tends to fill all machines, such
//! a strategy will perform worse than if BioOpera had simply left the TEU
//! where it was.  If however the user tends to use only a subset of the
//! processors, the kill and restart strategy may help."
//!
//! This bench reproduces *both* regimes: an external user who fills every
//! machine, and one who camps on half the cluster.

use bioopera_bench::{fmt_days, write_results};
use bioopera_cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera_core::runtime::MigrationConfig;
use bioopera_core::{Driver, Runtime, RuntimeConfig};
use bioopera_store::MemDisk;
use bioopera_workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
use std::fmt::Write;

fn cluster() -> Cluster {
    Cluster::new(
        "mig",
        (0..8)
            .map(|i| NodeSpec::new(format!("n{i}"), 1, 500, "linux"))
            .collect(),
    )
}

/// The external user occupies nodes `0..busy` fully from hour 1 to day 6.
fn trace(busy: usize) -> Trace {
    let mut t = Trace::empty();
    for i in 0..busy {
        t.push(
            SimTime::from_hours(1),
            TraceEventKind::ExternalLoad {
                node: format!("n{i}"),
                cpus: 1.0,
            },
        );
        t.push(
            SimTime::from_days(6),
            TraceEventKind::ExternalLoad {
                node: format!("n{i}"),
                cpus: 0.0,
            },
        );
    }
    t
}

fn run(busy: usize, migration: Option<MigrationConfig>) -> String {
    let setup = AllVsAllSetup::synthetic(
        4_000,
        370,
        38,
        AllVsAllConfig {
            teus: 16,
            ..Default::default()
        },
    );
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(30),
        migration,
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster(), setup.library.clone(), cfg).unwrap();
    rt.register_template(&setup.chunk_template).unwrap();
    rt.register_template(&setup.template).unwrap();
    rt.install_trace(&trace(busy));
    let id = rt.submit("AllVsAll", setup.initial()).unwrap();
    rt.run_to_completion().unwrap();
    fmt_days(rt.stats(id).unwrap().wall)
}

fn main() {
    println!("Kill-and-restart migration ablation (§5.4 discussion)\n");
    let mig = Some(MigrationConfig {
        patience: SimTime::from_hours(1),
    });
    let mut t = String::new();
    let _ = writeln!(
        t,
        "{:<34} {:>16} {:>16}",
        "external-user pattern", "leave in place", "kill-and-restart"
    );
    let half_stay = run(4, None);
    let half_move = run(4, mig);
    let _ = writeln!(
        t,
        "{:<34} {:>16} {:>16}",
        "camps on half the nodes", half_stay, half_move
    );
    let full_stay = run(8, None);
    let full_move = run(8, mig);
    let _ = writeln!(
        t,
        "{:<34} {:>16} {:>16}",
        "fills every node", full_stay, full_move
    );
    println!("{t}");
    println!(
        "expected shape: migration wins when free capacity exists elsewhere;\n\
         when the user fills all machines there is nowhere to go and the\n\
         restarted TEUs just lose their progress (paper's warning)."
    );
    write_results("ablation_migration.txt", &t);
}
