//! Dependability-policy chaos tests over the all-vs-all workload.
//!
//! * The seeded flaky-node scenario must complete within the retry
//!   ceiling for any seed (the livelock fix, end to end).
//! * Any fault trace whose faults eventually heal must leave the
//!   all-vs-all *result* untouched: same match count, same digest as the
//!   fault-free oracle run.  Dependability is about masking failures, not
//!   about changing answers.

use bioopera_cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera_core::state::InstanceStatus;
use bioopera_core::{DependabilityConfig, Driver, Runtime, RuntimeConfig};
use bioopera_ocr::value::Value;
use bioopera_store::MemDisk;
use bioopera_workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
use bioopera_workloads::chaos::{flaky_node_run, ChaosConfig};
use proptest::prelude::*;

const WORKLOAD_SEED: u64 = 11;
const NODES: [&str; 3] = ["w1", "w2", "w3"];

fn pool() -> Cluster {
    Cluster::new(
        "pool",
        NODES
            .iter()
            .map(|n| NodeSpec::new(*n, 2, 500, "linux"))
            .collect(),
    )
}

/// Run the small all-vs-all under `trace` and return (match_count, digest).
fn run_allvsall(trace: &Trace) -> (Value, Value) {
    let setup = AllVsAllSetup::synthetic(
        1_000,
        120,
        WORKLOAD_SEED,
        AllVsAllConfig {
            teus: 4,
            ..Default::default()
        },
    );
    // Three nodes and `poison_distinct_nodes: 4`: a task can never
    // collect enough distinct killers to be escalated, so any healing
    // fault schedule must end in completion, not abort.
    let dep = DependabilityConfig {
        poison_distinct_nodes: 4,
        ..Default::default()
    };
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(2),
        dependability: dep,
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), pool(), setup.library.clone(), cfg).unwrap();
    rt.register_template(&setup.chunk_template).unwrap();
    rt.register_template(&setup.template).unwrap();
    rt.install_trace(trace);
    let id = rt.submit("AllVsAll", setup.initial()).unwrap();
    rt.run_to_completion().expect("run under faults");
    assert_eq!(
        rt.instance_status(id),
        Some(InstanceStatus::Completed),
        "healing fault trace must still complete"
    );
    let wb = rt.whiteboard(id).unwrap();
    (wb["match_count"].clone(), wb["digest"].clone())
}

/// One fault plus its guaranteed recovery.
#[derive(Debug, Clone)]
struct Fault {
    kind: u8,
    node: usize,
    at_ms: u64,
    heal_ms: u64,
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    (
        0u8..3,
        0usize..NODES.len(),
        1u64..600_000,
        1_000u64..300_000,
    )
        .prop_map(|(kind, node, at_ms, heal_ms)| Fault {
            kind,
            node,
            at_ms,
            heal_ms,
        })
}

fn trace_of(faults: &[Fault]) -> Trace {
    let mut trace = Trace::empty();
    for f in faults {
        let node = NODES[f.node].to_string();
        let at = SimTime::from_millis(f.at_ms);
        let heal = SimTime::from_millis(f.at_ms + f.heal_ms);
        match f.kind {
            0 => {
                trace
                    .push(at, TraceEventKind::NodeDown(node.clone()))
                    .push(heal, TraceEventKind::NodeUp(node));
            }
            1 => {
                // Finite kill budget: the fault wears off by itself.
                trace.push(
                    at,
                    TraceEventKind::NodeFlaky {
                        node,
                        kills: 1 + (f.heal_ms % 3) as u32,
                    },
                );
            }
            _ => {
                trace
                    .push(at, TraceEventKind::NodePartition(node.clone()))
                    .push(heal, TraceEventKind::NodeRejoin(node));
            }
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn healing_fault_traces_preserve_the_allvsall_result(
        faults in prop::collection::vec(fault_strategy(), 0..4)
    ) {
        let oracle = run_allvsall(&Trace::empty());
        let faulty = run_allvsall(&trace_of(&faults));
        prop_assert_eq!(oracle, faulty, "faults changed the result");
    }

    #[test]
    fn flaky_node_scenario_is_bounded_for_any_seed(seed in 0u64..1_000) {
        let out = flaky_node_run(&ChaosConfig { seed, ..Default::default() });
        prop_assert!(out.completed, "seed {} did not complete: {:?}", seed, out);
        prop_assert!(out.within_budget(), "seed {} blew the ceiling: {:?}", seed, out);
        prop_assert!(out.quarantines >= 1, "seed {} never quarantined: {:?}", seed, out);
    }
}
