//! The dependability property, property-tested: under an *arbitrary*
//! schedule of node crashes, network outages, server crashes and
//! suspensions, the all-vs-all completes with results identical to a
//! failure-free run — "resume the execution of the computation smoothly
//! when failures occur and avoid inconsistencies in the output data after
//! failures" (§3.4).

use bioopera::cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera::darwin::dataset::DatasetConfig;
use bioopera::darwin::{PamFamily, SequenceDb};
use bioopera::engine::{Driver, InstanceStatus, Runtime, RuntimeConfig};
use bioopera::ocr::Value;
use bioopera::store::MemDisk;
use bioopera::workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
use proptest::prelude::*;
use std::sync::Arc;
use std::sync::OnceLock;

fn cluster() -> Cluster {
    Cluster::new(
        "pt",
        (0..3)
            .map(|i| NodeSpec::new(format!("n{i}"), 2, 500, "linux"))
            .collect(),
    )
}

/// Build the (expensive) setup once; alignments are deterministic so the
/// shared instance is safe across cases.
fn setup() -> &'static AllVsAllSetup {
    static SETUP: OnceLock<AllVsAllSetup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let pam = Arc::new(PamFamily::default());
        let db = Arc::new(SequenceDb::generate(&DatasetConfig::small(24, 77), &pam));
        AllVsAllSetup::real(
            db,
            pam,
            AllVsAllConfig {
                teus: 5,
                ..Default::default()
            },
        )
    })
}

fn run(trace: &Trace) -> (InstanceStatus, Value, Value) {
    let s = setup();
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_secs(20),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster(), s.library.clone(), cfg).unwrap();
    rt.register_template(&s.chunk_template).unwrap();
    rt.register_template(&s.template).unwrap();
    rt.install_trace(trace);
    let id = rt.submit("AllVsAll", s.initial()).unwrap();
    rt.run_to_completion().unwrap();
    let wb = rt.whiteboard(id).unwrap();
    (
        rt.instance_status(id).unwrap(),
        wb["digest"].clone(),
        wb["match_count"].clone(),
    )
}

fn clean_result() -> &'static (InstanceStatus, Value, Value) {
    static CLEAN: OnceLock<(InstanceStatus, Value, Value)> = OnceLock::new();
    CLEAN.get_or_init(|| run(&Trace::empty()))
}

#[derive(Debug, Clone)]
enum Fault {
    Node { node: u8, at_s: u16, down_s: u16 },
    Network { at_s: u16, down_s: u16 },
    Server { at_s: u16, down_s: u16 },
    Suspend { at_s: u16, for_s: u16 },
    Disk { at_s: u16, for_s: u16 },
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    // The clean run takes ~30 virtual seconds; faults land inside it.
    prop_oneof![
        (0u8..3, 1u16..40, 5u16..60).prop_map(|(node, at_s, down_s)| Fault::Node {
            node,
            at_s,
            down_s
        }),
        (1u16..40, 2u16..20).prop_map(|(at_s, down_s)| Fault::Network { at_s, down_s }),
        (1u16..40, 2u16..20).prop_map(|(at_s, down_s)| Fault::Server { at_s, down_s }),
        (1u16..40, 2u16..30).prop_map(|(at_s, for_s)| Fault::Suspend { at_s, for_s }),
        (1u16..40, 2u16..20).prop_map(|(at_s, for_s)| Fault::Disk { at_s, for_s }),
    ]
}

fn to_trace(faults: &[Fault]) -> Trace {
    let mut t = Trace::empty();
    // Interleave without overlapping same-kind windows by serializing each
    // kind on its own timeline offset; overlaps of *different* kinds are
    // exactly what we want to test.
    let mut suspended_depth = 0i32;
    for f in faults {
        match f {
            Fault::Node { node, at_s, down_s } => {
                let name = format!("n{node}");
                t.push(
                    SimTime::from_secs(*at_s as u64),
                    TraceEventKind::NodeDown(name.clone()),
                );
                t.push(
                    SimTime::from_secs((*at_s + *down_s) as u64),
                    TraceEventKind::NodeUp(name),
                );
            }
            Fault::Network { at_s, down_s } => {
                t.push(
                    SimTime::from_secs(*at_s as u64),
                    TraceEventKind::NetworkDown,
                );
                t.push(
                    SimTime::from_secs((*at_s + *down_s) as u64),
                    TraceEventKind::NetworkUp,
                );
            }
            Fault::Server { at_s, down_s } => {
                t.push(
                    SimTime::from_secs(*at_s as u64),
                    TraceEventKind::ServerCrash,
                );
                t.push(
                    SimTime::from_secs((*at_s + *down_s) as u64),
                    TraceEventKind::ServerRecover,
                );
            }
            Fault::Suspend { at_s, for_s } => {
                if suspended_depth == 0 {
                    t.push(
                        SimTime::from_secs(*at_s as u64),
                        TraceEventKind::OperatorSuspend,
                    );
                    t.push(
                        SimTime::from_secs((*at_s + *for_s) as u64),
                        TraceEventKind::OperatorResume,
                    );
                    suspended_depth += 1;
                }
            }
            Fault::Disk { at_s, for_s } => {
                t.push(SimTime::from_secs(*at_s as u64), TraceEventKind::DiskFull);
                t.push(
                    SimTime::from_secs((*at_s + *for_s) as u64),
                    TraceEventKind::DiskFreed,
                );
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn any_fault_schedule_yields_identical_results(
        faults in prop::collection::vec(fault_strategy(), 1..5)
    ) {
        let (clean_status, clean_digest, clean_count) = clean_result().clone();
        prop_assert_eq!(clean_status, InstanceStatus::Completed);
        let trace = to_trace(&faults);
        let (status, digest, count) = run(&trace);
        prop_assert_eq!(status, InstanceStatus::Completed, "faults: {:?}", faults);
        prop_assert_eq!(digest, clean_digest, "digest diverged under {:?}", faults);
        prop_assert_eq!(count, clean_count, "match count diverged under {:?}", faults);
    }
}
