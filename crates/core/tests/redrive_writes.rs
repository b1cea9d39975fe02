//! Recovery writes what the crash undid, and nothing else.
//!
//! The in-doubt rule ([`bioopera_core::instance::Instance::resolve_in_doubt`])
//! leaves most records it decides as the journal holds them: a task that
//! sat queued through the crash is still `Ready`, still stamped.  Both
//! drivers re-queue every decided record but write back only the ones the
//! rule changed — a rewound grant or spawn, a stamp it had to add — and,
//! on the sharded engine, the subprocess records a re-spawn stamps.  Each
//! scenario crashes a run, recovers it through a disk that keeps every
//! batch appended to the log, and holds the appended Instance-space records
//! to the journal as it was before the recovery:
//!
//! * no appended record equals its stored copy;
//! * every record recovery changed in memory was appended;
//! * a second recovery straight after the first appends nothing but the
//!   re-spawns of the first's spawns, which died with it again.

mod common;

use bioopera_cluster::{Cluster, NodeSpec};
use bioopera_core::shard::ShardEngine;
use bioopera_core::state::keys;
use bioopera_core::{RecoveryReport, Runtime, RuntimeConfig, TaskRecord};
use bioopera_ocr::value::Value;
use bioopera_store::wal::{self, WalOp};
use bioopera_store::{shard_key, Disk, MemDisk, Space, Store, StoreResult, TieredPolicy};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One put: its key and its value.
type Put = (String, Vec<u8>);

/// A `MemDisk` that keeps every Instance-space put appended to a WAL, in
/// order.
#[derive(Clone, Default)]
struct AppendLog {
    inner: MemDisk,
    puts: Arc<Mutex<Vec<Put>>>,
}

impl AppendLog {
    /// The Instance-space puts appended since the last call.
    fn take(&self) -> Vec<Put> {
        std::mem::take(&mut *self.puts.lock().unwrap())
    }
}

impl Disk for AppendLog {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        self.inner.read(name)
    }
    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.inner.write_atomic(name, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        if name.starts_with("wal-") {
            let frames = wal::replay(data)?;
            assert!(!frames.torn_tail, "an append is whole frames");
            let mut puts = self.puts.lock().unwrap();
            for op in frames.batches.into_iter().flatten() {
                if let WalOp::Put { space, key, value } = op {
                    if Space::from_u8(space)? == Space::Instance {
                        puts.push((key, value.to_vec()));
                    }
                }
            }
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
        self.inner.read_range(name, offset, len)
    }
    fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
        self.inner.file_size(name)
    }
}

/// Every Instance-space record `store` holds.
fn journal<D: Disk>(store: &Store<D>) -> BTreeMap<String, Vec<u8>> {
    let records = store.scan_prefix(Space::Instance, "").unwrap();
    records.into_iter().map(|(k, v)| (k, v.to_vec())).collect()
}

fn decode(bytes: &[u8]) -> TaskRecord {
    serde_json::from_slice(bytes).unwrap()
}

/// Hold one recovery's appended task records to the journal before it
/// (`before`) and to the records in memory after it (`memory`, by key):
/// nothing appended equals its stored copy, and everything that differs
/// from its stored copy was appended, as it is in memory.  Returns how
/// many records were appended.
fn check_writes(
    at: &str,
    before: &BTreeMap<String, Vec<u8>>,
    memory: &BTreeMap<String, TaskRecord>,
    appended: &[Put],
) -> usize {
    let mut written: BTreeMap<&str, &Vec<u8>> = BTreeMap::new();
    for (key, value) in appended {
        assert!(key.contains("/task/"), "{at}: recovery wrote {key}");
        assert_ne!(
            before.get(key),
            Some(value),
            "{at}: {key} was written back as the journal held it"
        );
        assert!(
            written.insert(key, value).is_none(),
            "{at}: {key} written twice"
        );
    }
    for (key, rec) in memory {
        let stored = before.get(key).map(|b| decode(b));
        if stored.as_ref() != Some(rec) {
            let got = written.get(key.as_str()).map(|b| decode(b));
            assert_eq!(got.as_ref(), Some(rec), "{at}: {key} changed, not written");
        }
    }
    written.len()
}

/// The task records of a sharded engine, by journal key.
fn engine_records<D: Disk>(eng: &ShardEngine<D>) -> BTreeMap<String, TaskRecord> {
    let mut out = BTreeMap::new();
    for (shard, id, slot) in eng.slots() {
        for (path, rec) in &slot.tasks {
            out.insert(shard_key(shard, &keys::task(id, path)), (**rec).clone());
        }
    }
    out
}

/// Recover the engine `disk` holds and check what the recovery appended.
fn recover(
    disk: &AppendLog,
    policy: Option<TieredPolicy>,
    at: &str,
) -> (ShardEngine<AppendLog>, RecoveryReport, usize) {
    let store = Store::open_with(disk.clone(), policy).unwrap();
    let before = journal(&store);
    disk.take();
    let eng = ShardEngine::recover(store, common::library(), common::chain_config()).unwrap();
    let report = eng
        .recovery_report()
        .expect("a recovered engine has a report");
    let written = check_writes(at, &before, &engine_records(&eng), &disk.take());
    assert_eq!(written as u64, report.rewritten, "{at}: {report:?}");
    (eng, report, written)
}

/// Crash a sharded run of chains, fans and subprocess parents at every
/// round — between rounds, or `inside` one at each frame boundary of its
/// append — recover twice, and run the result to the end.  Returns the
/// reports of the first recoveries.
fn crash_every_round(policy: Option<TieredPolicy>, inside: bool) -> Vec<RecoveryReport> {
    let workload: Vec<(usize, i64)> = (0..12).map(|i| (i % 3, i as i64)).collect();
    let rounds = {
        let store = Store::open_with(MemDisk::new(), policy).unwrap();
        let mut eng = common::engine_on(store, common::chain_config());
        common::submit_workload(&mut eng, &workload);
        eng.run_to_completion().unwrap();
        eng.round()
    };
    let mut reports = Vec::new();
    for crash in 0..rounds {
        let run = |disk: &AppendLog| {
            let store = Store::open_with(disk.clone(), policy).unwrap();
            let mut eng = common::engine_on(store, common::chain_config());
            common::submit_workload(&mut eng, &workload);
            for _ in 0..crash {
                eng.step_round().unwrap();
            }
            eng
        };
        let recover_twice = |disk: &AppendLog, at: &str| {
            let (eng, first, _) = recover(disk, policy, &format!("{at}, first recovery"));
            drop(eng);
            let (mut eng, second, written) =
                recover(disk, policy, &format!("{at}, second recovery"));
            // The first recovery's re-spawns died with it: the second
            // rewinds and re-spawns them again, and writes nothing else.
            assert_eq!(second.lost_spawn, first.lost_spawn, "{at}");
            assert_eq!(written as u64, second.lost_spawn, "{at}: {second:?}");
            assert!(eng.run_to_completion().unwrap().is_completed(), "{at}");
            first
        };
        let at = format!("crash at round {crash}");
        if inside {
            let crash_inside = |mem: &MemDisk, plan| {
                let disk = AppendLog {
                    inner: mem.clone(),
                    ..AppendLog::default()
                };
                let mut eng = run(&disk);
                mem.set_fault_plan(Some(plan));
                assert!(eng.step_round().is_err());
                disk
            };
            reports.extend(common::tears::tear_at_each_frame(
                crash_inside,
                |_, disk, kept| recover_twice(&disk, &format!("{at}, {kept} bytes kept")),
            ));
        } else {
            let disk = AppendLog::default();
            drop(run(&disk));
            reports.push(recover_twice(&disk, &at));
        }
    }
    reports
}

fn a_crash_between_rounds_writes_only_what_it_undid(policy: Option<TieredPolicy>) {
    let reports = crash_every_round(policy, false);
    // Between rounds every queued record is stamped: what is rewritten is
    // the spawns the barrier allocated and no step committed.
    let queued: u64 = reports.iter().map(|r| r.requeue).sum();
    assert!(queued > 0, "{reports:?}");
    assert!(reports.iter().any(|r| r.lost_spawn > 0), "{reports:?}");
    for r in &reports {
        assert_eq!(r.lost_grant, 0, "{r:?}");
        assert_eq!(r.rewritten, r.lost_spawn, "{r:?}");
    }
}

fn a_crash_inside_a_round_writes_only_what_it_undid(policy: Option<TieredPolicy>) {
    let reports = crash_every_round(policy, true);
    assert!(reports.iter().any(|r| r.lost_spawn > 0), "{reports:?}");
    for r in &reports {
        assert_eq!(r.rewritten, r.lost_spawn, "{r:?}");
    }
}

/// A runtime whose server dies with work queued and work on the nodes:
/// the queued records stay as stored, the dispatched ones are rewound and
/// written, and a second crash straight after the recovery finds nothing
/// more to write.
fn a_runtime_recovery_writes_only_the_rewound_grants(policy: Option<TieredPolicy>) {
    let cluster = Cluster::new(
        "two",
        vec![
            NodeSpec::new("n1", 1, 500, "linux"),
            NodeSpec::new("n2", 1, 500, "linux"),
        ],
    );
    let cfg = RuntimeConfig {
        tiered: policy,
        ..Default::default()
    };
    let disk = AppendLog::default();
    let mut rt = Runtime::new(disk.clone(), cluster, common::library(), cfg).unwrap();
    rt.register_template(&common::fan_template()).unwrap();
    for count in [4, 5, 6] {
        let initial = BTreeMap::from([("count".to_string(), Value::Int(count))]);
        rt.submit("Fan", initial).unwrap();
    }
    // Run until the fans have expanded: two CPUs busy, children queued.
    while rt.instances().iter().all(|(id, _, _)| {
        rt.task_records(*id)
            .is_none_or(|tasks| !tasks.contains_key("Fan[0]"))
    }) {
        assert!(rt.step().unwrap(), "finished before the fans expanded");
    }
    let records = |rt: &Runtime<AppendLog>| {
        let mut out = BTreeMap::new();
        for (id, _, _) in rt.instances() {
            for (path, rec) in rt.task_records(id).unwrap() {
                out.insert(keys::task(id, path), (**rec).clone());
            }
        }
        out
    };
    let state =
        |rt: &Runtime<AppendLog>, state| records(rt).values().filter(|r| r.state == state).count();
    use bioopera_core::state::TaskState::{Dispatched, Ready};
    assert!(state(&rt, Dispatched) > 0 && state(&rt, Ready) > 0);
    for round in ["first", "second"] {
        let at = format!("{round} runtime recovery");
        rt.crash_server().unwrap();
        let before = journal(&Store::open_with(disk.clone(), policy).unwrap());
        // Dispatched activities: the parallel parent `Fan` is concluded by
        // its children and left as it is.
        let dispatched = before
            .iter()
            .filter(|(k, _)| k.contains("/task/") && !k.ends_with("/Fan"))
            .filter(|(_, v)| decode(v).state == Dispatched)
            .count();
        disk.take();
        rt.recover_server().unwrap();
        let written = check_writes(&at, &before, &records(&rt), &disk.take());
        assert_eq!(
            written, dispatched,
            "{at}: the rewound grants, nothing else"
        );
        if round == "first" {
            assert!(written > 0, "{at}: no grant was in flight");
        } else {
            assert_eq!(written, 0, "{at}");
        }
    }
    rt.run_to_completion().unwrap();
}

common::on_each_policy!(
    a_crash_between_rounds_writes_only_what_it_undid,
    a_crash_inside_a_round_writes_only_what_it_undid,
    a_runtime_recovery_writes_only_the_rewound_grants,
);
