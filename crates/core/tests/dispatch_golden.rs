//! Dispatch decisions are pinned.
//!
//! The pump may build its node view once and leave an entry it found
//! unplaceable unactivated while nothing its activation or its placement
//! reads has changed, but it may not change a single grant nor the
//! sequence of `SchedulingPolicy::choose` calls a (possibly stateful)
//! policy sees.  This runs a saturated heterogeneous cluster — 39 tasks
//! for 8 slots, with unconstrained, `os`-constrained and
//! `hosts`-constrained bindings, an externally loaded node and a node
//! crash — under `RoundRobin` and `AvoidSaturated<LeastLoaded>` and
//! compares every `(task, node)` grant in order, and the number of
//! `choose` calls, with `golden/dispatch_*.txt`, recorded at the commit
//! before the pump was changed.

use bioopera_cluster::{Cluster, NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera_core::dispatcher::NodeView;
use bioopera_core::{
    ActivityLibrary, AvoidSaturated, Driver, EventKind, LeastLoaded, ProgramOutput, RoundRobin,
    Runtime, RuntimeConfig, SchedulingPolicy,
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

fn cluster() -> Cluster {
    Cluster::new(
        "mixed",
        vec![
            NodeSpec::new("n1", 2, 500, "linux"),
            NodeSpec::new("n2", 2, 700, "linux"),
            NodeSpec::new("n3", 1, 1000, "linux"),
            NodeSpec::new("s1", 1, 400, "solaris"),
            NodeSpec::new("s2", 2, 600, "solaris"),
        ],
    )
}

fn fan(os: Option<&str>, hosts: &[&str]) -> ParallelBody {
    ParallelBody::Activity(ExternalBinding {
        program: "work".into(),
        os: os.map(str::to_string),
        hosts: hosts.iter().map(|h| h.to_string()).collect(),
        nice: false,
    })
}

/// `Gen` feeds three parallel fans of 12: anywhere, Solaris only, and
/// pinned to `n2`/`s1`; `End` waits for all of them.
fn template() -> ProcessTemplate {
    ProcessBuilder::new("Mix")
        .activity("Gen", "gen", |t| t.output("items", TypeTag::List))
        .parallel("Any", "items", fan(None, &[]), "results", |t| t)
        .parallel("Sol", "items", fan(Some("solaris"), &[]), "results", |t| t)
        .parallel("Pin", "items", fan(None, &["n2", "s1"]), "results", |t| t)
        .activity("End", "end", |t| t)
        .connect("Gen", "Any")
        .connect("Gen", "Sol")
        .connect("Gen", "Pin")
        .connect("Any", "End")
        .connect("Sol", "End")
        .connect("Pin", "End")
        .flow_to_task("Gen", "items", "Any", "items")
        .flow_to_task("Gen", "items", "Sol", "items")
        .flow_to_task("Gen", "items", "Pin", "items")
        .build()
        .unwrap()
}

fn library() -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("gen", |_| {
        Ok(ProgramOutput::from_fields(
            [("items", Value::int_list(0..12))],
            1_000.0,
        ))
    });
    lib.register("work", |inputs| {
        let i = inputs.get("item").and_then(|v| v.as_int()).unwrap_or(0);
        // Uneven costs, so completions (and the pumps after them) interleave.
        let cost = 30_000.0 + 7_000.0 * (i % 5) as f64;
        Ok(ProgramOutput::from_fields([("value", Value::Int(i))], cost))
    });
    lib.register("end", |_| Ok(ProgramOutput::from_fields([], 1_000.0)));
    lib
}

/// `n2` is saturated by external users for a while (a load-aware policy
/// refuses it although it has free slots) and `n3` crashes and returns.
fn trace() -> Trace {
    let mut trace = Trace::empty();
    let at = SimTime::from_secs;
    trace
        .push(
            at(1),
            TraceEventKind::ExternalLoad {
                node: "n2".into(),
                cpus: 2.0,
            },
        )
        .push(at(60), TraceEventKind::NodeDown("n3".into()))
        .push(at(200), TraceEventKind::NodeUp("n3".into()))
        .push(
            at(400),
            TraceEventKind::ExternalLoad {
                node: "n2".into(),
                cpus: 0.0,
            },
        );
    trace
}

/// One line per grant, then the `choose` call count.
fn grants_under(policy: impl SchedulingPolicy + 'static) -> String {
    let calls = Arc::new(AtomicU64::new(0));
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(2),
        policy: Box::new(Counting {
            inner: policy,
            calls: Arc::clone(&calls),
        }),
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster(), library(), cfg).unwrap();
    rt.register_template(&template()).unwrap();
    rt.install_trace(&trace());
    rt.submit("Mix", BTreeMap::new()).unwrap();
    assert!(rt.run_to_completion().unwrap().is_completed());
    let mut out = String::new();
    for ev in rt.awareness().all(rt.store()).unwrap() {
        if let EventKind::TaskStart { path, node, .. } = &ev.kind {
            writeln!(out, "{path} {node}").unwrap();
        }
    }
    writeln!(out, "choose calls: {}", calls.load(Ordering::Relaxed)).unwrap();
    out
}

#[test]
fn round_robin_grants_match_the_golden() {
    assert_eq!(
        grants_under(RoundRobin::default()),
        include_str!("golden/dispatch_round_robin.txt")
    );
}

#[test]
fn avoid_saturated_least_loaded_grants_match_the_golden() {
    assert_eq!(
        grants_under(AvoidSaturated::new(LeastLoaded, 0.95)),
        include_str!("golden/dispatch_avoid_saturated.txt")
    );
}
