//! What an event costs must follow what it changed, not how big the
//! instance around it is.
//!
//! * A parallel child's completion writes that child, not its parent:
//!   the parent record (whose inputs hold the whole `OVER` list) changes
//!   only when the *last* child ends.  Doubling the fan must double the
//!   bytes logged while the children run, not quadruple them.
//! * Decoding a record is linear in its size.
//! * Recovering the history costs what its tail costs: the summary carries
//!   the count, the label counts and the digest of everything below it, so
//!   four times the finished work behind the same live work is the same
//!   history read.

mod common;

use bioopera_cluster::{Cluster, NodeSpec, SimTime};
use bioopera_core::shard::ShardEngine;
use bioopera_core::state::{keys, TaskState};
use bioopera_core::{ActivityLibrary, ProgramOutput, Runtime, RuntimeConfig, TaskRecord};
use bioopera_ocr::model::{ExternalBinding, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::wal::{self, WalOp};
use bioopera_store::{Disk, MemDisk, Space, Store, StoreResult, TieredPolicy};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A `MemDisk` that keeps every batch appended to a WAL, in order — the
/// log itself cannot be read back afterwards, because a tiered store
/// retires WAL epochs — and counts the bytes of every History-space run
/// block read back.
#[derive(Clone, Default)]
struct LoggingDisk {
    inner: MemDisk,
    batches: Arc<Mutex<Vec<Vec<WalOp>>>>,
    history_block_bytes: Arc<AtomicU64>,
}

impl Disk for LoggingDisk {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        self.inner.read(name)
    }
    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.inner.write_atomic(name, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        if name.starts_with("wal-") {
            // One append is one or more whole frames (a group commit).
            let frames = wal::replay(data)?;
            assert!(!frames.torn_tail, "an append is whole frames");
            self.batches.lock().unwrap().extend(frames.batches);
        }
        self.inner.append(name, data)
    }
    fn list(&self) -> StoreResult<Vec<String>> {
        self.inner.list()
    }
    fn delete(&self, name: &str) -> StoreResult<()> {
        self.inner.delete(name)
    }
    fn read_range(&self, name: &str, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        let data = self.inner.read_range(name, offset, len)?;
        // A data block of a run is one whole frame of one space's records;
        // anything else read by range (a run's index and filter) is not.
        if let Some(Ok(frame)) = data.as_deref().map(wal::replay) {
            let is_history = |op: &WalOp| match op {
                WalOp::Put { space, .. } | WalOp::Delete { space, .. } => *space == HISTORY,
            };
            if !frame.torn_tail && frame.batches.iter().flatten().any(is_history) {
                self.history_block_bytes
                    .fetch_add(len as u64, Ordering::Relaxed);
            }
        }
        Ok(data)
    }
    fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
        self.inner.file_size(name)
    }
}

/// `Gen -> parallel Fan -> Merge`; every element of `Gen.items` carries a
/// 4 KiB payload and the whiteboard's 2 KiB `blob` passes through `Fan`
/// into every child.
fn bulky_fan() -> ProcessTemplate {
    ProcessBuilder::new("Bulky")
        .whiteboard_default("count", TypeTag::Int, Value::Int(4))
        .whiteboard_default("blob", TypeTag::Str, Value::from("b".repeat(2 * 1024)))
        .activity("Gen", "gen", |t| {
            t.input("count", TypeTag::Int)
                .output("items", TypeTag::List)
        })
        .parallel(
            "Fan",
            "items",
            ParallelBody::Activity(ExternalBinding::program("work")),
            "results",
            |t| t.input("blob", TypeTag::Str),
        )
        .activity("Merge", "merge", |t| t.input("results", TypeTag::List))
        .connect("Gen", "Fan")
        .connect("Fan", "Merge")
        .flow_from_whiteboard("count", "Gen", "count")
        .flow_from_whiteboard("blob", "Fan", "blob")
        .flow_to_task("Gen", "items", "Fan", "items")
        .flow_to_task("Fan", "results", "Merge", "results")
        .build()
        .unwrap()
}

fn library() -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("gen", |inputs| {
        let n = inputs.get("count").and_then(|v| v.as_int()).unwrap_or(4);
        let items = (0..n)
            .map(|i| {
                Value::map_from([
                    ("id", Value::Int(i)),
                    ("payload", Value::from("p".repeat(4 * 1024))),
                ])
            })
            .collect();
        Ok(ProgramOutput::from_fields(
            [("items", Value::List(items))],
            1_000.0,
        ))
    });
    lib.register("work", |inputs| {
        let id = inputs
            .get("item")
            .and_then(|v| v.get_path(&["id"]))
            .and_then(|v| v.as_int())
            .ok_or_else(|| "work needs an item".to_string())?;
        Ok(ProgramOutput::from_fields(
            [("value", Value::Int(id))],
            60_000.0,
        ))
    });
    lib.register("merge", |_| Ok(ProgramOutput::from_fields([], 1_000.0)));
    lib
}

/// Run the fan over `n` elements on a store tiered by `policy` and return
/// the bytes logged from the batch that expanded `Fan` up to the batch
/// that concluded it, having checked that none of the batches in between
/// rewrote `Fan`.  The expansion's batch counts: the step that expands
/// `Fan` also dispatches the children it can place, and commits their
/// records once, in that batch.
fn bytes_logged_while_children_run(n: i64, policy: Option<TieredPolicy>) -> usize {
    let disk = LoggingDisk::default();
    let cluster = Cluster::new(
        "c",
        (0..4)
            .map(|i| NodeSpec::new(format!("n{i}"), 2, 500, "linux"))
            .collect(),
    );
    let cfg = RuntimeConfig {
        heartbeat: SimTime::from_mins(10),
        tiered: policy,
        ..Default::default()
    };
    let mut rt = Runtime::new(disk.clone(), cluster, library(), cfg).unwrap();
    rt.register_template(&bulky_fan()).unwrap();
    let mut initial = BTreeMap::new();
    initial.insert("count".to_string(), Value::Int(n));
    let id = rt.submit("Bulky", initial).unwrap();
    assert!(rt.run_to_completion().unwrap().is_completed());
    assert_eq!(rt.task_record(id, "Fan").unwrap().state, TaskState::Ended);

    let batches = disk.batches.lock().unwrap();
    let writes = |batch: &[WalOp], wanted: &str| {
        batch.iter().any(|op| match op {
            WalOp::Put { key, .. } | WalOp::Delete { key, .. } => key == wanted,
        })
    };
    let parent = keys::task(id, "Fan");
    let first_child = keys::task(id, "Fan[0]");
    let expanded = batches
        .iter()
        .position(|b| writes(b, &first_child))
        .expect("a batch creates Fan[0]");
    assert!(
        writes(&batches[expanded], &parent),
        "the expansion commits the parent with its children"
    );
    let concluded = batches
        .iter()
        .rposition(|b| writes(b, &parent))
        .expect("a batch concludes Fan");
    assert!(concluded > expanded + n as usize, "children ran in between");
    let mut bytes = 0usize;
    for (i, batch) in batches.iter().enumerate().take(concluded).skip(expanded) {
        assert!(
            i == expanded || !writes(batch, &parent),
            "batch {i} of {} rewrote the unchanged parent record (fan of {n})",
            batches.len()
        );
        for op in batch {
            bytes += match op {
                WalOp::Put { key, value, .. } => key.len() + value.len(),
                WalOp::Delete { key, .. } => key.len(),
            };
        }
    }
    bytes
}

fn child_completions_do_not_rewrite_the_parallel_parent(policy: Option<TieredPolicy>) {
    let small = bytes_logged_while_children_run(12, policy);
    let large = bytes_logged_while_children_run(24, policy);
    let growth = large as f64 / small as f64;
    assert!(
        growth < 2.5,
        "twice the children logged {growth:.2}x the bytes ({small} -> {large})"
    );
}

common::on_each_policy!(child_completions_do_not_rewrite_the_parallel_parent);

fn record_with_string(len: usize) -> Vec<u8> {
    let mut rec = TaskRecord::new("Big");
    rec.state = TaskState::Ended;
    rec.outputs
        .insert("text".into(), Value::from("x".repeat(len)));
    serde_json::to_vec(&rec).unwrap()
}

/// Fastest of five decodes (the host is noisy; a minimum is not).
fn decode_time(bytes: &[u8]) -> Duration {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let rec: TaskRecord = serde_json::from_slice(bytes).unwrap();
            let dt = t0.elapsed();
            assert_eq!(rec.path, "Big");
            dt
        })
        .min()
        .unwrap()
}

#[test]
fn decode_time_is_linear_in_record_size() {
    let small = record_with_string(32 * 1024);
    let large = record_with_string(512 * 1024);
    let t_large = decode_time(&large);
    assert!(
        t_large < Duration::from_secs(1),
        "a 512 KiB record took {t_large:?} to decode"
    );
    let t_small = decode_time(&small);
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64().max(1e-9);
    assert!(
        ratio < 40.0,
        "16x the bytes took {ratio:.0}x the time ({t_small:?} -> {t_large:?})"
    );
}

/// The sharded engine's recovery of a store that holds `finished` finished
/// chains and [`LIVE`] live ones, tiered so that history has left the
/// memtable: the `sev/` records it decoded into the awareness index, the
/// bytes of History-space run blocks it read, and how many events the
/// stream holds.
fn history_cost_of_recovery(finished: u64) -> (u64, u64, usize) {
    let policy = Some(TieredPolicy {
        memtable_budget_bytes: 16 * 1024,
        ..TieredPolicy::default()
    });
    let disk = LoggingDisk::default();
    let mut engine = common::chain_engine_on(Store::open_with(disk.clone(), policy).unwrap());
    engine.set_rollup_every(CADENCE);
    let submit = |engine: &mut ShardEngine<LoggingDisk>, chains: u64| {
        for x in 0..chains {
            let initial = BTreeMap::from([("x".to_string(), Value::Int(x as i64))]);
            engine.submit("Chain", initial).unwrap();
        }
    };
    submit(&mut engine, finished);
    assert!(engine.run_to_completion().unwrap().is_completed());
    submit(&mut engine, LIVE);
    engine.step_round().unwrap();
    engine.step_round().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.completed, finished, "the late chains are in flight");
    assert!(
        engine.store().stats().spills > 0,
        "history never left the memtable"
    );
    drop(engine);

    disk.history_block_bytes.store(0, Ordering::Relaxed);
    let store = Store::open_with(disk.clone(), policy).unwrap();
    let engine = ShardEngine::recover(store, common::library(), common::chain_config()).unwrap();
    assert_eq!(engine.stats().instances, finished + LIVE);
    (
        engine.awareness().open_scanned(),
        disk.history_block_bytes.load(Ordering::Relaxed),
        engine.persisted_events().unwrap().len(),
    )
}

/// `Space::History` as a WAL operation carries it.
const HISTORY: u8 = 3;
/// Events between two summaries, at most.
const CADENCE: u64 = 64;
/// Chains in flight at the crash.
const LIVE: u64 = 16;

#[test]
fn recovering_the_history_costs_its_tail_not_its_length() {
    assert_eq!(Space::from_u8(HISTORY).unwrap(), Space::History);
    let (scanned_small, read_small, events_small) = history_cost_of_recovery(300);
    let (scanned_large, read_large, events_large) = history_cost_of_recovery(1200);
    assert!(
        events_large > 3 * events_small,
        "four times the finished chains: {events_small} -> {events_large} events"
    );
    // A commit that leaves a cadence of events unsummarized writes a
    // summary, so the tail is shorter than a cadence — and recovery
    // decodes nothing below it.
    for scanned in [scanned_small, scanned_large] {
        assert!(
            scanned < CADENCE,
            "recovery decoded {scanned} history events past the summary at cadence {CADENCE}"
        );
    }
    assert!(read_small > 0, "the tail was read from the memtable alone");
    let growth = read_large as f64 / read_small as f64;
    assert!(
        growth < 1.3,
        "four times the history read {growth:.2}x the history blocks \
         ({read_small} -> {read_large} B for {events_small} -> {events_large} events)"
    );
}
