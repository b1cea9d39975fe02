//! The pump's memo across pumps.
//!
//! A queue entry whose activation asked for a node and found none eligible
//! is not activated again while its instance is unwritten and the node
//! picture projects as it did when the entry was deferred.  That is only
//! allowed to save work: every grant, every noted event and every
//! `SchedulingPolicy::choose` call must stay what the pump that activated
//! every entry on every step produced.  Each scenario below runs a
//! saturated cluster through one hazard that must wake the waiting
//! entries — an operator call, a node crash, a quarantine, a CPU change, a
//! backoff deadline, a server crash — and compares the grants in order,
//! the events (`store.*` aside: they describe the tier, not the run) and
//! the `choose` count with `golden/pump_*.txt`, recorded at the commit
//! before the memo outlived its pump.  Each also shows the memo held
//! entries at all.  The count tests pin what the memo saves and what
//! wakes an entry.

use bioopera_cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera_core::dispatcher::NodeView;
use bioopera_core::runtime::PumpCounts;
use bioopera_core::state::{InstanceId, InstanceStatus};
use bioopera_core::{
    ActivityLibrary, DependabilityConfig, EventKind, ProgramOutput, RoundRobin, Runtime,
    RuntimeConfig, SchedulingPolicy,
};
use bioopera_ocr::model::{ExternalBinding, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::MemDisk;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts the `choose` calls that reach the wrapped policy.
struct Counting<P> {
    inner: P,
    calls: Arc<AtomicU64>,
}

impl<P: SchedulingPolicy> SchedulingPolicy for Counting<P> {
    fn choose(&mut self, nodes: &[NodeView], eligible: &[usize]) -> Option<usize> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.choose(nodes, eligible)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Two one-CPU Linux nodes and a one-CPU Solaris node.
fn cluster() -> Cluster {
    Cluster::new(
        "pump",
        vec![
            NodeSpec::new("n1", 1, 500, "linux"),
            NodeSpec::new("n2", 1, 700, "linux"),
            NodeSpec::new("s1", 1, 400, "solaris"),
        ],
    )
}

/// `Gen` feeds two fans of `count`, each task `hours` of reference CPU
/// (varied per item so completions interleave): `Any` runs anywhere,
/// `Sol` on Solaris only.
fn template() -> ProcessTemplate {
    let fan = |os: Option<&str>| {
        ParallelBody::Activity(ExternalBinding {
            program: "work".into(),
            os: os.map(str::to_string),
            hosts: Vec::new(),
            nice: false,
        })
    };
    ProcessBuilder::new("Fan")
        .whiteboard_field("count", TypeTag::Int)
        .activity("Gen", "gen", |t| {
            t.input("count", TypeTag::Int)
                .output("items", TypeTag::List)
        })
        .parallel("Any", "items", fan(None), "results", |t| t)
        .parallel("Sol", "items", fan(Some("solaris")), "results", |t| t)
        .connect("Gen", "Any")
        .connect("Gen", "Sol")
        .flow_from_whiteboard("count", "Gen", "count")
        .flow_to_task("Gen", "items", "Any", "items")
        .flow_to_task("Gen", "items", "Sol", "items")
        .build()
        .unwrap()
}

fn library(hours: f64) -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("gen", |inputs| {
        let n = inputs.get("count").and_then(|v| v.as_int()).unwrap_or(0);
        Ok(ProgramOutput::from_fields(
            [("items", Value::int_list(0..n))],
            1_000.0,
        ))
    });
    lib.register("work", move |inputs| {
        let i = inputs.get("item").and_then(|v| v.as_int()).unwrap_or(0);
        let cost = hours * 3_600_000.0 * (1.0 + 0.25 * (i % 3) as f64);
        Ok(ProgramOutput::from_fields([("value", Value::Int(i))], cost))
    });
    lib
}

/// A runtime over `cluster()` with `trace`, a counted `RoundRobin`, a
/// 20-minute heartbeat and `dependability`; returns its `choose` counter.
fn runtime(
    trace: &Trace,
    dependability: DependabilityConfig,
    cluster: Cluster,
    hours: f64,
) -> (Runtime<MemDisk>, Arc<AtomicU64>) {
    let calls = Arc::new(AtomicU64::new(0));
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(20),
        policy: Box::new(Counting {
            inner: RoundRobin::default(),
            calls: Arc::clone(&calls),
        }),
        dependability,
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster, library(hours), cfg).unwrap();
    rt.register_template(&template()).unwrap();
    rt.install_trace(trace);
    (rt, calls)
}

fn submit(rt: &mut Runtime<MemDisk>, count: i64) -> InstanceId {
    let initial = BTreeMap::from([("count".to_string(), Value::Int(count))]);
    rt.submit("Fan", initial).unwrap()
}

/// Step until every instance is terminal, within `max` steps: a waiting
/// entry the pump never offers a slot again keeps the heartbeat ticking
/// for ever.
fn run_out(rt: &mut Runtime<MemDisk>, max: usize) {
    for _ in 0..max {
        if !rt.step().unwrap() {
            return;
        }
    }
    panic!(
        "the run did not end in {max} steps: {} entries wait at {}",
        rt.ready_queue_len(),
        rt.now()
    );
}

/// Step until virtual time reaches `at`.
fn run_until(rt: &mut Runtime<MemDisk>, at: SimTime) {
    while rt.now() < at {
        assert!(rt.step().unwrap(), "the run ended before {at}");
    }
}

/// The grants in order, then every event but the store's, then the
/// `choose` count.
fn render(rt: &Runtime<MemDisk>, calls: &AtomicU64) -> String {
    let events = rt.awareness().all(rt.store()).unwrap();
    let mut out = String::new();
    for ev in &events {
        if let EventKind::TaskStart {
            instance,
            path,
            node,
            ..
        } = &ev.kind
        {
            writeln!(out, "grant {instance} {path} {node}").unwrap();
        }
    }
    for ev in events
        .iter()
        .filter(|ev| !ev.kind.label().starts_with("store."))
    {
        writeln!(out, "{} {:?}", ev.at, ev.kind).unwrap();
    }
    writeln!(out, "choose calls: {}", calls.load(Ordering::Relaxed)).unwrap();
    out
}

/// Finish the run, check the memo held entries on the way, and compare
/// with the golden.
fn finish(mut rt: Runtime<MemDisk>, calls: &AtomicU64, golden: &str) -> Runtime<MemDisk> {
    run_out(&mut rt, 5_000);
    assert!(rt.pump_counts().held > 0, "{:?}", rt.pump_counts());
    let got = render(&rt, calls);
    if got != golden {
        let first = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(golden.lines().count()));
        panic!(
            "the run differs from the golden at line {}:\n  got:    {:?}\n  golden: {:?}",
            first + 1,
            got.lines().nth(first),
            golden.lines().nth(first),
        );
    }
    rt
}

fn at_hours(h: u64) -> SimTime {
    SimTime::from_hours(h)
}

#[test]
fn suspend_then_resume_of_an_instance_with_waiting_entries() {
    let (mut rt, calls) = runtime(&Trace::empty(), Default::default(), cluster(), 2.0);
    let a = submit(&mut rt, 4);
    let b = submit(&mut rt, 4);
    run_until(&mut rt, at_hours(1));
    rt.suspend(b).unwrap();
    run_until(&mut rt, at_hours(5));
    rt.resume(b).unwrap();
    let rt = finish(rt, &calls, include_str!("golden/pump_suspend_resume.txt"));
    assert_eq!(rt.instance_status(a), Some(InstanceStatus::Completed));
    assert_eq!(rt.instance_status(b), Some(InstanceStatus::Completed));
}

#[test]
fn abort_of_an_instance_with_waiting_entries() {
    let (mut rt, calls) = runtime(&Trace::empty(), Default::default(), cluster(), 2.0);
    let a = submit(&mut rt, 4);
    let b = submit(&mut rt, 4);
    run_until(&mut rt, at_hours(1));
    rt.abort(b).unwrap();
    let rt = finish(rt, &calls, include_str!("golden/pump_abort.txt"));
    assert_eq!(rt.instance_status(a), Some(InstanceStatus::Completed));
    assert_eq!(rt.instance_status(b), Some(InstanceStatus::Aborted));
}

#[test]
fn restart_of_an_instance_while_another_waits() {
    let (mut rt, calls) = runtime(&Trace::empty(), Default::default(), cluster(), 2.0);
    let a = submit(&mut rt, 4);
    let b = submit(&mut rt, 4);
    run_until(&mut rt, at_hours(1));
    rt.restart_instance(a).unwrap();
    let rt = finish(rt, &calls, include_str!("golden/pump_restart.txt"));
    assert_eq!(rt.instance_status(a), Some(InstanceStatus::Completed));
    assert_eq!(rt.instance_status(b), Some(InstanceStatus::Completed));
}

#[test]
fn a_node_crash_and_its_recovery() {
    let mut trace = Trace::empty();
    trace
        .push(at_hours(1), TraceEventKind::NodeDown("s1".into()))
        .push(at_hours(6), TraceEventKind::NodeUp("s1".into()));
    let (mut rt, calls) = runtime(&trace, Default::default(), cluster(), 2.0);
    submit(&mut rt, 4);
    submit(&mut rt, 4);
    let rt = finish(rt, &calls, include_str!("golden/pump_node_crash.txt"));
    assert_eq!(rt.awareness().index().count("node.crash"), 1);
}

#[test]
fn a_quarantine_that_expires() {
    // `s1` kills the next three jobs it is handed: the third failure
    // quarantines it for an hour, while both fans still wait for it.
    let mut trace = Trace::empty();
    trace.push(
        SimTime::ZERO,
        TraceEventKind::NodeFlaky {
            node: "s1".into(),
            kills: 3,
        },
    );
    let dependability = DependabilityConfig {
        quarantine_interval: at_hours(1),
        ..Default::default()
    };
    let (mut rt, calls) = runtime(&trace, dependability, cluster(), 2.0);
    submit(&mut rt, 4);
    submit(&mut rt, 4);
    let rt = finish(rt, &calls, include_str!("golden/pump_quarantine.txt"));
    let index = rt.awareness().index();
    assert_eq!(index.count("node.quarantine"), 1);
    assert_eq!(index.count("node.probation"), 1);
}

#[test]
fn a_change_in_cpus_online() {
    let mut trace = Trace::empty();
    trace
        .push(at_hours(1), TraceEventKind::UpgradeAllTo { cpus: 2 })
        .push(at_hours(9), TraceEventKind::UpgradeAllTo { cpus: 1 });
    let (mut rt, calls) = runtime(&trace, Default::default(), cluster(), 2.0);
    submit(&mut rt, 4);
    submit(&mut rt, 4);
    finish(rt, &calls, include_str!("golden/pump_cpus.txt"));
}

#[test]
fn a_backoff_parked_task_whose_retry_deadline_passes() {
    // `n1` kills the first job it is handed; the task backs off for half
    // an hour, then waits behind a saturated cluster like the rest.
    let mut trace = Trace::empty();
    trace.push(
        SimTime::ZERO,
        TraceEventKind::NodeFlaky {
            node: "n1".into(),
            kills: 1,
        },
    );
    let dependability = DependabilityConfig {
        backoff_base: SimTime::from_mins(30),
        jitter_ms: 0,
        ..Default::default()
    };
    let (mut rt, calls) = runtime(&trace, dependability, cluster(), 2.0);
    submit(&mut rt, 4);
    submit(&mut rt, 4);
    let rt = finish(rt, &calls, include_str!("golden/pump_backoff.txt"));
    assert_eq!(rt.awareness().index().count("task.backoff"), 1);
}

#[test]
fn a_server_crash_and_the_recovery_that_rebuilds_the_queue() {
    let mut trace = Trace::empty();
    trace
        .push(at_hours(3), TraceEventKind::ServerCrash)
        .push(at_hours(4), TraceEventKind::ServerRecover);
    let (mut rt, calls) = runtime(&trace, Default::default(), cluster(), 2.0);
    submit(&mut rt, 4);
    submit(&mut rt, 4);
    let rt = finish(rt, &calls, include_str!("golden/pump_server_crash.txt"));
    assert_eq!(rt.awareness().index().count("server.recover"), 1);
}

/// One node, one slot, `waiting + 1` long tasks: after the fan expands,
/// one runs and `waiting` wait.  Returns the runtime stepped until then.
fn one_slot(waiting: i64) -> Runtime<MemDisk> {
    let one = Cluster::new("one", vec![NodeSpec::new("n1", 1, 500, "linux")]);
    let (mut rt, _) = runtime(&Trace::empty(), Default::default(), one, 100.0);
    let template = ProcessBuilder::new("Wide")
        .whiteboard_field("count", TypeTag::Int)
        .activity("Gen", "gen", |t| {
            t.input("count", TypeTag::Int)
                .output("items", TypeTag::List)
        })
        .parallel(
            "Any",
            "items",
            ParallelBody::Activity(ExternalBinding::program("work")),
            "results",
            |t| t,
        )
        .connect("Gen", "Any")
        .flow_from_whiteboard("count", "Gen", "count")
        .flow_to_task("Gen", "items", "Any", "items")
        .build()
        .unwrap();
    rt.register_template(&template).unwrap();
    let initial = BTreeMap::from([("count".to_string(), Value::Int(waiting + 1))]);
    rt.submit("Wide", initial).unwrap();
    run_until(&mut rt, at_hours(1));
    assert_eq!(rt.ready_queue_len(), waiting as usize);
    rt
}

/// The counts one step adds.
fn step_counts(rt: &mut Runtime<MemDisk>) -> PumpCounts {
    let before = rt.pump_counts();
    assert!(rt.step().unwrap());
    let after = rt.pump_counts();
    PumpCounts {
        pumps: after.pumps - before.pumps,
        activated: after.activated - before.activated,
        held: after.held - before.held,
    }
}

#[test]
fn waiting_entries_are_activated_once_over_heartbeat_only_steps() {
    let (waiting, steps) = (60, 40);
    let mut rt = one_slot(waiting);
    let before = rt.pump_counts();
    // The running task needs 100 hours; 40 steps of a 20-minute heartbeat
    // change nothing but the clock.
    for _ in 0..steps {
        assert!(rt.step().unwrap());
    }
    assert!(rt.now() < at_hours(100));
    let after = rt.pump_counts();
    assert_eq!(after.pumps - before.pumps, steps);
    // Every entry waits on the memo: O(N + placements), not O(N·K).
    assert_eq!(after.activated - before.activated, 0, "{after:?}");
    assert_eq!(after.held - before.held, steps * waiting as u64);
    assert_eq!(rt.ready_queue_len(), waiting as usize);
    // Over the whole run a slot that opens costs at most two passes over
    // what waits: the pump that sees it, and the next, since the grant
    // wrote the one instance they all belong to.
    run_out(&mut rt, 100_000);
    let total = rt.pump_counts().activated;
    let n = waiting as u64 + 1;
    assert!(total <= n * (n + 1), "{total} activations");
}

#[test]
fn a_written_instance_wakes_its_waiting_entries_and_only_those() {
    // Two one-CPU Linux nodes, no Solaris node: every `Sol` task waits on
    // the eligibility filter for good.
    let two = Cluster::new(
        "two",
        vec![
            NodeSpec::new("n1", 1, 500, "linux"),
            NodeSpec::new("n2", 1, 500, "linux"),
        ],
    );
    let (mut rt, _) = runtime(&Trace::empty(), Default::default(), two, 100.0);
    // `a` runs its one `Any` task on a node and waits with its `Sol`.
    let _a = submit(&mut rt, 1);
    run_until(&mut rt, at_hours(1));
    // `b` runs one `Any` task on the other node and waits with two more
    // and three `Sol`.
    let b = submit(&mut rt, 3);
    run_until(&mut rt, at_hours(2));
    assert_eq!(rt.ready_queue_len(), 6);
    assert_eq!(step_counts(&mut rt).activated, 0);

    // A write to `b` wakes `b`'s five entries, not `a`'s one.
    rt.suspend(b).unwrap();
    let c = step_counts(&mut rt);
    assert_eq!((c.activated, c.held), (5, 1), "after suspend");
    // Parked entries are activated on every pump, as they always were.
    assert_eq!(step_counts(&mut rt).activated, 5);
    rt.resume(b).unwrap();
    let c = step_counts(&mut rt);
    assert_eq!((c.activated, c.held), (5, 1), "after resume");
    // Deferred again under the same picture: all held.
    let c = step_counts(&mut rt);
    assert_eq!((c.activated, c.held), (0, 6), "settled");
}
