//! The consolidated [`RunReport`] must agree with the awareness index it
//! is derived from, survive a JSON round-trip, and capture the run's
//! failure story (crash events, masked system failures, rollup series).

use bioopera_cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera_core::{Driver, Runtime, RuntimeConfig};
use bioopera_store::MemDisk;
use bioopera_workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
use std::collections::BTreeMap;

#[test]
fn run_report_is_consistent_and_roundtrips() {
    let setup = AllVsAllSetup::synthetic(
        2_000,
        200,
        7,
        AllVsAllConfig {
            teus: 12,
            ..Default::default()
        },
    );
    let cluster = Cluster::new(
        "lab",
        vec![
            NodeSpec::new("n1", 4, 500, "linux"),
            NodeSpec::new("n2", 4, 500, "linux"),
            NodeSpec::new("n3", 2, 500, "linux"),
        ],
    );
    // The whole run takes ~20 virtual minutes; crash n2 mid-run.
    let mut trace = Trace::empty();
    trace
        .push_labeled(
            SimTime::from_mins(5),
            TraceEventKind::NodeDown("n2".into()),
            "node n2 crashes",
        )
        .push_labeled(
            SimTime::from_mins(12),
            TraceEventKind::NodeUp("n2".into()),
            "node n2 rejoins",
        );
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(2),
        ..Default::default()
    };
    let mut rt =
        Runtime::new(MemDisk::new(), cluster, setup.library.clone(), cfg).expect("runtime");
    rt.register_template(&setup.chunk_template).expect("chunk");
    rt.register_template(&setup.template).expect("top");
    rt.install_trace(&trace);
    let id = rt.submit("AllVsAll", setup.initial()).expect("submit");
    rt.run_to_completion().expect("run");
    assert_eq!(
        rt.instance_status(id),
        Some(bioopera_core::InstanceStatus::Completed)
    );

    let report = rt.run_report(SimTime::from_mins(5));
    let idx = rt.awareness().index();

    // Counters mirror the index exactly.
    assert_eq!(report.events, idx.len() as u64);
    for (kind, n) in idx.counts_by_kind() {
        assert_eq!(report.counters.get(&kind), Some(&(n as u64)), "kind {kind}");
    }
    // The crash was recorded and masked: system failures without any
    // instance failure.
    assert_eq!(report.counters.get("node.crash"), Some(&1));
    assert_eq!(report.counters.get("node.recover"), Some(&1));
    assert!(report.counters.get("task.systemfail").copied().unwrap_or(0) >= 1);
    assert_eq!(report.counters.get("instance.abort"), None);
    // Histograms cover exactly the started/ended tasks.
    assert_eq!(
        report.task_run_ms.count(),
        report.counters.get("task.end").copied().unwrap_or(0)
    );
    assert_eq!(
        report.task_queue_ms.count(),
        report.counters.get("task.start").copied().unwrap_or(0)
    );
    assert!(report.peak_in_flight >= 2, "parallel TEUs should overlap");
    assert!(report.total_cpu_ms > 0.0);
    // The rollup covers the whole run in 5-minute bins.
    assert!(!report.series.is_empty());
    let last = report.series.last().unwrap();
    assert!(last.end_ms >= report.taken_at_ms);
    assert!(report.series.iter().any(|b| b.utilization > 0.0));
    // The labeled event log came through with its trace labels.
    assert!(report
        .event_log
        .iter()
        .any(|(_, msg)| msg.contains("node n2")));

    // JSON round-trip is lossless.
    let json = serde_json::to_string(&report).expect("serialize");
    let back: bioopera_core::RunReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, report);

    // A second identical run produces an identical report (determinism).
    let mut rt2 = Runtime::new(
        MemDisk::new(),
        Cluster::new(
            "lab",
            vec![
                NodeSpec::new("n1", 4, 500, "linux"),
                NodeSpec::new("n2", 4, 500, "linux"),
                NodeSpec::new("n3", 2, 500, "linux"),
            ],
        ),
        setup.library.clone(),
        RuntimeConfig {
            heartbeat: SimTime::from_mins(2),
            ..Default::default()
        },
    )
    .expect("runtime 2");
    rt2.register_template(&setup.chunk_template).expect("chunk");
    rt2.register_template(&setup.template).expect("top");
    rt2.install_trace(&trace);
    let init: BTreeMap<_, _> = setup.initial();
    rt2.submit("AllVsAll", init).expect("submit 2");
    rt2.run_to_completion().expect("run 2");
    assert_eq!(rt2.run_report(SimTime::from_mins(5)), report);
}
