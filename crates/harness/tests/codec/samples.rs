//! One sample per record type and variant that reaches the store or a
//! results artifact, each as `(name, JSON text)` encoded by *the build
//! that runs this function*.
//!
//! `golden/records.tsv` is this function's output at the commit before
//! the codec streamed (PR 19's tree-printing `serde_json`): the file was
//! written by compiling this very source against that commit.  It
//! therefore uses nothing newer than that commit's public API — the two
//! record types that were private then (`RollupRecord`, `PendingStart`)
//! are read back as stored bytes.  Three lines are newer: `StreamSummary`
//! did not exist then.  `StreamSummary/chains` is what the commit that
//! introduced it stored (the `RollupRecord` inside it is the old type,
//! unchanged), written here through [`SummaryBeforeDigest`], that shape
//! kept as a frozen writer; `StreamSummary/chains-digest` is the same
//! summary as stored since it gained its `digest` member; and
//! `ShardEvent/runtime-task.end` is a stream record with the `at` member
//! the serial runtime's records carry.  The `rollup` is written through
//! the frozen `ev/` writer, as the serial runtime wrote it then.
//!
//! A name is `Type/case`; the text before the `/` picks the Rust type the
//! line decodes as (`dispatch` in `codec_differential.rs`).

use crate::ev_writer::{EvWriter, SummaryBeforeDigest};
use bioopera_cluster::{NodeSpec, SimTime, Trace, TraceEventKind};
use bioopera_core::dependability::HealthState;
use bioopera_core::metrics::{Histogram, RollupBin, RunReport};
use bioopera_core::shard::{ShardConfig, ShardEngine, ShardEvent, ShardMeta};
use bioopera_core::{
    ActivityLibrary, EventKind, HistoryEvent, InstanceHeader, InstanceStatus, NodeHealth,
    ProgramOutput, RetryState, TaskRecord, TaskState,
};
use bioopera_ocr::model::TypeTag;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate, Value};
use bioopera_store::{MemDisk, Space, Store};
use serde::Serialize;
use std::collections::BTreeMap;

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("a record serializes")
}

/// A value of every `Value` variant, nested both ways.
fn nested_value() -> Value {
    Value::map_from([
        ("null", Value::Null),
        ("flag", Value::Bool(true)),
        ("n", Value::Int(-42)),
        ("big", Value::Int(i64::MIN)),
        ("ratio", Value::Float(0.1)),
        ("whole", Value::Float(250.0)),
        ("nan", Value::Float(f64::NAN)),
        ("text", Value::from("tab\there \"quoted\" \\ é ✓ \u{1}")),
        (
            "lists",
            Value::List(vec![
                Value::int_list([4, 5]),
                Value::List(Vec::new()),
                Value::map_from([("k", Value::Null)]),
            ]),
        ),
        ("empty", Value::Map(BTreeMap::new())),
    ])
}

/// `bench_e2e`'s chain: `A` passes `x` on, `B` doubles it into `y`.
fn chain_template() -> ProcessTemplate {
    ProcessBuilder::new("Chain")
        .whiteboard_default("x", TypeTag::Int, Value::Int(7))
        .whiteboard_field("y", TypeTag::Int)
        .activity("A", "p.a", |t| {
            t.input("x", TypeTag::Int).output("x", TypeTag::Int)
        })
        .activity("B", "p.b", |t| {
            t.input("x", TypeTag::Int).output("y", TypeTag::Int)
        })
        .connect("A", "B")
        .flow_from_whiteboard("x", "A", "x")
        .flow_to_task("A", "x", "B", "x")
        .flow_to_whiteboard("B", "y", "y")
        .build()
        .expect("the chain template is valid")
}

fn chain_library() -> ActivityLibrary {
    let mut library = ActivityLibrary::new();
    library.register("p.a", |inputs| {
        let x = inputs.get("x").and_then(|v| v.as_int()).unwrap_or(7);
        Ok(ProgramOutput::from_fields([("x", Value::Int(x))], 10.0))
    });
    library.register("p.b", |inputs| {
        let x = inputs
            .get("x")
            .and_then(|v| v.as_int())
            .ok_or_else(|| "missing x".to_string())?;
        Ok(ProgramOutput::from_fields([("y", Value::Int(x * 2))], 20.0))
    });
    library
}

/// A fresh one-shard engine that knows the chain.
fn chain_engine() -> ShardEngine<MemDisk> {
    let cfg = ShardConfig {
        shards: 1,
        threads: 1,
        ..ShardConfig::default()
    };
    let store = Store::open(MemDisk::new()).expect("a fresh store opens");
    let mut engine = ShardEngine::new(store, chain_library(), cfg).expect("engine");
    engine
        .register_template(chain_template())
        .expect("register");
    engine
}

fn task_records() -> Vec<(String, String)> {
    let fresh = TaskRecord::new("Prep");
    let mut chain = TaskRecord::new("B");
    chain.state = TaskState::Ended;
    chain.inputs.insert("x".into(), Value::Int(123_456));
    chain.outputs.insert("y".into(), Value::Int(246_912));
    chain.attempts = 1;
    chain.node = Some("node-002".into());
    chain.cpu_ms = 20.0;
    chain.started_at = Some(SimTime::from_millis(21));
    chain.ended_at = Some(SimTime::from_millis(22));
    let mut retrying = TaskRecord::new("Alignment[3]");
    retrying.state = TaskState::Dispatched;
    retrying.inputs.insert("opts".into(), nested_value());
    retrying.inputs.insert("index".into(), Value::Int(3));
    retrying
        .outputs
        .insert("matches".into(), Value::int_list([1, 2]));
    retrying.outputs.insert("none".into(), Value::Null);
    retrying.attempts = 2;
    retrying.node = Some("linneus1".into());
    retrying.cpu_ms = 123.5;
    retrying.started_at = Some(SimTime::from_secs(30));
    retrying.ended_at = Some(SimTime::from_secs(45));
    retrying.ready_at = Some(SimTime::from_secs(12));
    {
        let retry = retrying.retry_mut();
        retry.sys_failures = 2;
        retry.retry_at = Some(SimTime::from_secs(60));
        retry.note_failed_node("linneus3");
        retry.note_failed_node("linneus \"7\"");
    }
    let mut out = vec![
        ("TaskRecord/fresh".to_string(), json(&fresh)),
        ("TaskRecord/chain".to_string(), json(&chain)),
        ("TaskRecord/retrying".to_string(), json(&retrying)),
    ];
    for state in [
        TaskState::Inactive,
        TaskState::Ready,
        TaskState::Dispatched,
        TaskState::Ended,
        TaskState::Skipped,
        TaskState::Failed,
        TaskState::Compensated,
    ] {
        out.push((format!("TaskState/{state:?}"), json(&state)));
    }
    out
}

fn headers() -> Vec<(String, String)> {
    let root = InstanceHeader {
        id: 42,
        template: "Chain".into(),
        status: InstanceStatus::Completed,
        whiteboard: BTreeMap::from([
            ("x".to_string(), Value::Int(123_456)),
            ("y".to_string(), Value::Int(246_912)),
        ]),
        parent: None,
        created_at: SimTime::ZERO,
        ended_at: Some(SimTime::from_millis(22)),
    };
    let child = InstanceHeader {
        id: u64::MAX,
        template: "AllVsAll".into(),
        status: InstanceStatus::Running,
        whiteboard: BTreeMap::from([
            ("db".to_string(), Value::from("sp38")),
            ("opts".to_string(), nested_value()),
            ("y".to_string(), Value::Null),
        ]),
        parent: Some((7, "Chunk[1]".into())),
        created_at: SimTime::from_secs(5),
        ended_at: None,
    };
    let mut out = vec![
        ("InstanceHeader/root".to_string(), json(&root)),
        ("InstanceHeader/child".to_string(), json(&child)),
    ];
    for status in [
        InstanceStatus::Running,
        InstanceStatus::Suspended,
        InstanceStatus::Completed,
        InstanceStatus::Aborted,
    ] {
        out.push((format!("InstanceStatus/{status:?}"), json(&status)));
    }
    out
}

/// Every [`EventKind`] variant.  `kind_ordinal` in the test file matches
/// on the enum without a wildcard, so a variant added later does not
/// compile until it has a sample here.
pub fn event_kinds() -> Vec<EventKind> {
    let path = || "Alignment[3]".to_string();
    let node = || "linneus1".to_string();
    vec![
        EventKind::InstanceStart {
            instance: 1,
            template: "Chain".into(),
        },
        EventKind::InstanceComplete { instance: 1 },
        EventKind::InstanceAbort { instance: 2 },
        EventKind::InstanceRecompute {
            instance: 9,
            source: 3,
            changed: vec!["Prep".into(), "db".into()],
        },
        EventKind::InstanceRestart {
            instance: 1,
            requeued: 2,
        },
        EventKind::InstanceSuspend { instance: 1 },
        EventKind::InstanceResume { instance: 1 },
        EventKind::TaskStart {
            instance: 1,
            path: path(),
            node: node(),
            job: 17,
            queue_ms: 1500,
        },
        EventKind::TaskEnd {
            instance: 39_999,
            path: "B".into(),
            node: "node-002".into(),
            run_ms: 1,
            cpu_ms: 20.0,
        },
        EventKind::TaskFail {
            instance: 1,
            path: path(),
            error: "exit 3: \"no such db\"\n".into(),
        },
        EventKind::TaskSystemFail {
            instance: 1,
            path: path(),
            reason: "node crash".into(),
        },
        EventKind::TaskNonReport {
            instance: 1,
            path: path(),
        },
        EventKind::TaskDiskFull {
            instance: 1,
            path: path(),
        },
        EventKind::TaskBackoff {
            instance: 1,
            path: path(),
            attempt: 3,
            delay_ms: 240_000,
        },
        EventKind::TaskPoisoned {
            instance: 1,
            path: path(),
            reason: "3 distinct nodes".into(),
        },
        EventKind::TaskMigrate {
            instance: 1,
            path: path(),
            node: node(),
        },
        EventKind::TaskCompensate {
            instance: 1,
            path: path(),
            program: "undo.align".into(),
        },
        EventKind::SubprocessStart {
            instance: 1,
            path: "Chunk[1]".into(),
            child: 5,
            template: "Chunk".into(),
        },
        EventKind::SubprocessDuplicate {
            instance: 1,
            path: "Chunk[1]".into(),
            child: 5,
        },
        EventKind::StaleEvent {
            instance: 77,
            path: None,
            context: "task end".into(),
        },
        EventKind::StaleEvent {
            instance: 77,
            path: Some(path()),
            context: "task end".into(),
        },
        EventKind::EventSignal {
            instance: 1,
            event: "db.updated".into(),
        },
        EventKind::NodeCrash { node: node() },
        EventKind::NodeRecover { node: node() },
        EventKind::NodeQuarantine {
            node: node(),
            failures: 3,
        },
        EventKind::NodeProbation { node: node() },
        EventKind::NodePartition { node: node() },
        EventKind::NodeRejoin { node: node() },
        EventKind::NodeLoad {
            node: node(),
            cpus: 1.75,
        },
        EventKind::ClusterFailure,
        EventKind::ClusterRecover,
        EventKind::ClusterUpgrade { cpus: 2 },
        EventKind::ServerRecover { requeued: 4 },
        EventKind::OperatorSuspend,
        EventKind::OperatorResume,
        EventKind::StoreSpill {
            spills: 2,
            runs: 5,
            bloom_skips: 1000,
            cache_hits: 900,
            cache_misses: 100,
        },
        EventKind::StoreCompaction {
            merges: 1,
            levels: 3,
            max_merge_bytes: 2300,
        },
        EventKind::StoreRetention {
            retired: 12,
            below: "ev/00000000000000000012".into(),
        },
        EventKind::Legacy {
            kind: "task.end".into(),
            detail: "A on n1".into(),
        },
    ]
}

fn events() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (i, kind) in event_kinds().into_iter().enumerate() {
        let label = kind.label().to_string();
        out.push((format!("EventKind/{i:02}-{label}"), json(&kind)));
        out.push((
            format!("ShardEvent/{i:02}-{label}"),
            json(&ShardEvent {
                round: 21,
                instance: 39_999,
                seq: 5,
                at: None,
                kind: kind.clone(),
            }),
        ));
        out.push((
            format!("HistoryEvent/{i:02}-{label}"),
            json(&HistoryEvent {
                at: SimTime::from_secs(3600),
                kind,
            }),
        ));
    }
    // A stream record as the serial runtime commits it: with its virtual
    // time, the instance the event concerns and its index in the round.
    out.push((
        "ShardEvent/runtime-task.end".to_string(),
        json(&ShardEvent {
            round: 4_312,
            instance: 39_999,
            seq: 3,
            at: Some(SimTime::from_millis(3_155_690_123)),
            kind: EventKind::TaskEnd {
                instance: 39_999,
                path: "B".into(),
                node: "node-002".into(),
                run_ms: 1,
                cpu_ms: 20.0,
            },
        }),
    ));
    out
}

fn small_records() -> Vec<(String, String)> {
    let mut retry = RetryState::default();
    let fresh_retry = json(&retry);
    retry.sys_failures = 2;
    retry.retry_at = Some(SimTime::from_secs(60));
    retry.note_failed_node("linneus3");
    let quarantined = NodeHealth {
        state: HealthState::Quarantined,
        consecutive_failures: 3,
        quarantined_at: Some(SimTime::from_mins(90)),
        epoch: 2,
    };
    let mut out = vec![
        (
            "ShardMeta/round".to_string(),
            json(&ShardMeta { round: 21 }),
        ),
        ("RetryState/fresh".to_string(), fresh_retry),
        ("RetryState/backing-off".to_string(), json(&retry)),
        (
            "NodeHealth/healthy".to_string(),
            json(&NodeHealth::default()),
        ),
        ("NodeHealth/quarantined".to_string(), json(&quarantined)),
        (
            "NodeSpec/linneus".to_string(),
            json(&NodeSpec::new("linneus3", 2, 500, "linux")),
        ),
        ("SimTime/hour".to_string(), json(&SimTime::from_hours(1))),
    ];
    for state in [
        HealthState::Healthy,
        HealthState::Probation,
        HealthState::Quarantined,
    ] {
        out.push((format!("HealthState/{state:?}"), json(&state)));
    }
    out
}

fn templates() -> Vec<(String, String)> {
    use bioopera_workloads::{allvsall, tower};
    vec![
        ("ProcessTemplate/chain".to_string(), json(&chain_template())),
        (
            "ProcessTemplate/allvsall".to_string(),
            json(&allvsall::top_template()),
        ),
        (
            "ProcessTemplate/chunk".to_string(),
            json(&allvsall::chunk_template()),
        ),
        (
            "ProcessTemplate/tower".to_string(),
            json(&tower::tower_template()),
        ),
    ]
}

fn traces() -> Vec<(String, String)> {
    let mut flaky = Trace::empty();
    flaky
        .push(
            SimTime::from_mins(1),
            TraceEventKind::NodeFlaky {
                node: "n2".into(),
                kills: u32::MAX,
            },
        )
        .push(
            SimTime::from_mins(2),
            TraceEventKind::NodePartition("n3".into()),
        )
        .push_labeled(
            SimTime::from_mins(3),
            TraceEventKind::NodeRejoin("n3".into()),
            "n3 rejoins",
        )
        .push(
            SimTime::from_mins(4),
            TraceEventKind::ExternalLoad {
                node: "n1".into(),
                cpus: 0.5,
            },
        )
        .push(SimTime::from_mins(5), TraceEventKind::DiskFull)
        .push(SimTime::from_mins(6), TraceEventKind::DiskFreed)
        .push(SimTime::from_mins(7), TraceEventKind::NetworkDown)
        .push(SimTime::from_mins(8), TraceEventKind::NetworkUp);
    vec![
        ("Trace/empty".to_string(), json(&Trace::empty())),
        ("Trace/shared-run".to_string(), json(&Trace::shared_run())),
        (
            "Trace/nonshared-run".to_string(),
            json(&Trace::nonshared_run()),
        ),
        ("Trace/flaky".to_string(), json(&flaky)),
    ]
}

fn run_report() -> (String, String) {
    let mut run = Histogram::new();
    let mut queue = Histogram::new();
    for ms in [0u64, 1, 3, 8, 100, 5_000, 86_400_000] {
        run.observe(ms);
        queue.observe(ms / 3);
    }
    let report = RunReport {
        taken_at_ms: 3_160_000_000,
        events: 12_345,
        counters: BTreeMap::from([("task.end".to_string(), 512), ("node.crash".to_string(), 1)]),
        task_run_ms: run,
        task_queue_ms: queue,
        peak_in_flight: 26,
        total_cpu_ms: 4.2e10,
        auto_restarts: 1,
        series: vec![
            RollupBin {
                start_ms: 0,
                end_ms: 3_600_000,
                samples: 6,
                availability: 26.0,
                utilization: 11.25,
            },
            RollupBin {
                start_ms: 3_600_000,
                end_ms: 7_200_000,
                samples: 0,
                availability: 0.0,
                utilization: f64::NAN,
            },
        ],
        event_log: vec![
            (432_000_000, "1: cluster busy".to_string()),
            (864_000_000, "2: disk \"full\"".to_string()),
        ],
    };
    ("RunReport/month".to_string(), json(&report))
}

/// The `rollup` record the `ev/` writer wrote, as stored.
fn rollup_record() -> (String, String) {
    let mut store = Store::open(MemDisk::new()).expect("a fresh store opens");
    let mut writer = EvWriter::new();
    writer.set_every(4);
    for (i, kind) in event_kinds().into_iter().enumerate() {
        writer.record(SimTime::from_secs(i as u64), kind);
    }
    writer.flush(&mut store);
    let bytes = store
        .get(Space::History, "rollup")
        .expect("store read")
        .expect("the cadence wrote a rollup");
    (
        "RollupRecord/every-kind".to_string(),
        String::from_utf8(bytes.to_vec()).expect("JSON is UTF-8"),
    )
}

/// The `summary` record the sharded engine commits with the round that
/// brings its cadence due: as stored, and as the engines before the digest
/// stored it.
fn stream_summaries() -> [(String, String); 2] {
    let mut engine = chain_engine();
    engine.set_rollup_every(4);
    for x in [123_456, -7] {
        let initial = BTreeMap::from([("x".to_string(), Value::Int(x))]);
        engine.submit("Chain", initial).expect("submit");
    }
    engine.run_to_completion().expect("the chains run");
    let bytes = engine
        .store()
        .get(Space::History, "summary")
        .expect("store read")
        .expect("the cadence wrote a summary");
    let stored = String::from_utf8(bytes.to_vec()).expect("JSON is UTF-8");
    let before: SummaryBeforeDigest =
        serde_json::from_str(&stored).expect("the old reader skips the new member");
    [
        ("StreamSummary/chains".to_string(), json(&before)),
        ("StreamSummary/chains-digest".to_string(), stored),
    ]
}

/// The `pending/{id}` record a submission writes, as stored.
fn pending_start() -> (String, String) {
    let mut engine = chain_engine();
    let initial = BTreeMap::from([
        ("x".to_string(), Value::Int(123_456)),
        ("opts".to_string(), nested_value()),
    ]);
    let id = engine.submit("Chain", initial).expect("submit");
    let bytes = engine
        .store()
        .get(Space::Instance, &format!("pending/{id:012}"))
        .expect("store read")
        .expect("a submission is durable at once");
    (
        "PendingStart/chain".to_string(),
        String::from_utf8(bytes.to_vec()).expect("JSON is UTF-8"),
    )
}

/// Every sample, in file order.
pub fn golden_samples() -> Vec<(String, String)> {
    let mut out = Vec::new();
    out.extend(task_records());
    out.extend(headers());
    out.extend(small_records());
    out.push(("Value/nested".to_string(), json(&nested_value())));
    out.push(pending_start());
    out.extend(events());
    out.push(rollup_record());
    out.extend(stream_summaries());
    out.extend(templates());
    out.extend(traces());
    out.push(run_report());
    out
}
