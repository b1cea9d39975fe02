//! What the engine-level suites share: the Chain, Fan and Parent toys of
//! `bioopera_workloads::toys` (`Chain` is `bench_e2e`'s chain), the
//! store policies a suite whose run tiering can change is held on, the
//! drivers a scenario written once against `Driver` runs on
//! ([`on_each_driver`]), the frozen History writers of earlier engines
//! ([`ev_writer`]), the crash that tears a round's append at each
//! frame boundary ([`tears`]), and a disk that logs what is appended
//! ([`wal_log`]).  The allocator-counting gates
//! (`residency.rs`, `codec_allocs.rs`) each install their own
//! `#[global_allocator]`, so they stay separate test binaries; the
//! workload they count is the one here.

// Each test binary uses its own part of this module.
#![allow(dead_code)]

pub mod ev_writer;
pub mod tears;
pub mod wal_log;

use bioopera_cluster::{Cluster, NodeSpec};
use bioopera_core::shard::{ShardConfig, ShardEngine, ShardEvent};
use bioopera_core::state::keys;
use bioopera_core::{
    ActivityLibrary, Awareness, Driver, EngineResult, InstanceHeader, InstanceId, InstanceStatus,
    PlannerSnapshot, ProgramOutput, RecoveryReport, RunOutcome, Runtime, RuntimeConfig, TaskMap,
    TaskRecord,
};
use bioopera_ocr::model::{ExternalBinding, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{parse_shard_key, Disk, MemDisk, Space, Store, TieredPolicy};
#[allow(unused_imports)]
pub use bioopera_workloads::toys::{chain_template, fan_template, library, parent_template};
use bioopera_workloads::toys::{templates, toy};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// An engine over `store` with the three templates registered.
pub fn engine_on<D: Disk>(store: Store<D>, cfg: ShardConfig) -> ShardEngine<D> {
    let mut eng = ShardEngine::new(store, library(), cfg).expect("engine");
    for t in templates() {
        eng.register_template(t).unwrap();
    }
    eng
}

/// Submit a workload — a template index and a per-instance knob for each
/// root — and return the roots' ids.
pub fn submit_workload(eng: &mut impl Driver, workload: &[(usize, i64)]) -> Vec<u64> {
    workload
        .iter()
        .map(|(tmpl, knob)| {
            let (name, initial) = toy(*tmpl, *knob);
            eng.submit(name, initial).unwrap()
        })
        .collect()
}

/// `bench_e2e`'s chain on four shards over `store`.
pub fn chain_engine_on<D: Disk>(store: Store<D>) -> ShardEngine<D> {
    let mut engine = ShardEngine::new(store, library(), chain_config()).unwrap();
    engine.register_template(chain_template()).unwrap();
    engine
}

/// The configuration of [`chain_engine_on`], to recover its store with.
pub fn chain_config() -> ShardConfig {
    ShardConfig {
        shards: 4,
        // One stepper thread: every allocation lands on this thread.
        threads: 1,
        ..ShardConfig::default()
    }
}

/// [`chain_engine_on`] a fresh in-memory store.
pub fn chain_engine() -> ShardEngine<MemDisk> {
    chain_engine_on(Store::open(MemDisk::new()).unwrap())
}

/// What refolding `events` from the stream's first record says of the
/// history: the digest (round, instance and sequence number of each event,
/// its time if it has one, then a fresh encoding of its kind), the count by
/// label and the count.
pub fn refold(events: &[ShardEvent]) -> (u64, BTreeMap<String, u64>, u64) {
    let mut hash = ev_writer::FNV_OFFSET;
    let mut counts = BTreeMap::new();
    for e in events {
        hash = ev_writer::fold_event(hash, e);
        *counts.entry(e.kind.label().to_string()).or_insert(0) += 1;
    }
    (hash, counts, events.len() as u64)
}

/// A driver's lifetime view of its history — its digest, and its
/// awareness index's count by label and count — as [`refold`] reports it.
pub fn lifetime(eng: &impl Driver) -> (u64, BTreeMap<String, u64>, u64) {
    let index = eng.awareness().index();
    let counts = index.counts_by_kind().into_iter();
    let counts = counts.map(|(k, n)| (k, n as u64)).collect();
    (eng.history_digest(), counts, index.len() as u64)
}

/// The fan-out programs: `gen.list(count)` → `items` = [0, .., count-1],
/// cost 1 s; `work.unit` squares `item`, cost the `cost_ms` input
/// (default 60 s); `merge.sum` sums `results[i].value`, cost 2 s.
pub fn fanout_library() -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("gen.list", |inputs| {
        let count = inputs.get("count").and_then(|v| v.as_int()).unwrap_or(4);
        Ok(ProgramOutput::from_fields(
            [("items", Value::int_list(0..count))],
            1_000.0,
        ))
    });
    lib.register("work.unit", |inputs| {
        let item = inputs
            .get("item")
            .and_then(|v| v.as_int())
            .ok_or_else(|| "work.unit needs an item".to_string())?;
        let cost = inputs
            .get("cost_ms")
            .and_then(|v| v.as_float())
            .unwrap_or(60_000.0);
        Ok(ProgramOutput::from_fields(
            [("value", Value::Int(item * item))],
            cost,
        ))
    });
    lib.register("merge.sum", |inputs| {
        let results = inputs
            .get("results")
            .and_then(|v| v.as_list().map(|l| l.to_vec()))
            .ok_or_else(|| "merge.sum needs results".to_string())?;
        let total: i64 = results
            .iter()
            .filter_map(|r| r.get_path(&["value"]).and_then(|v| v.as_int()))
            .sum();
        Ok(ProgramOutput::from_fields(
            [("total", Value::Int(total))],
            2_000.0,
        ))
    });
    lib
}

/// items -> parallel squares (each retried `retries` times) -> sum, the
/// canonical fan-out process.
pub fn fanout_template(count: i64, retries: u32) -> ProcessTemplate {
    ProcessBuilder::new("Fanout")
        .whiteboard_default("count", TypeTag::Int, Value::Int(count))
        .whiteboard_field("total", TypeTag::Int)
        .activity("Gen", "gen.list", |t| {
            t.input("count", TypeTag::Int)
                .output("items", TypeTag::List)
        })
        .parallel(
            "Fan",
            "items",
            ParallelBody::Activity(ExternalBinding::program("work.unit")),
            "results",
            |t| t.retries(retries),
        )
        .activity("Merge", "merge.sum", |t| {
            t.input("results", TypeTag::List)
                .output("total", TypeTag::Int)
        })
        .connect("Gen", "Fan")
        .connect("Fan", "Merge")
        .flow_from_whiteboard("count", "Gen", "count")
        .flow_to_task("Gen", "items", "Fan", "items")
        .flow_to_task("Fan", "results", "Merge", "results")
        .flow_to_whiteboard("Merge", "total", "total")
        .build()
        .unwrap()
}

/// A journal key less its shard prefix: where a record lives is the
/// driver's business, which record it is is not.
pub fn unsharded(key: String) -> String {
    match parse_shard_key(&key) {
        Some((_, rest)) => rest.to_string(),
        None => key,
    }
}

/// Every Instance-space record `store` holds, by [`unsharded`] key.
pub fn journal<D: Disk>(store: &Store<D>) -> BTreeMap<String, Vec<u8>> {
    let records = store.scan_prefix(Space::Instance, "").unwrap();
    let records = records.into_iter().map(|(k, v)| (unsharded(k), v.to_vec()));
    records.collect()
}

/// Every task record a driver holds, by its [`unsharded`] journal key.
pub fn records(eng: &impl Driver) -> BTreeMap<String, &TaskRecord> {
    let mut out = BTreeMap::new();
    for (id, _, _) in eng.instances() {
        for (path, rec) in eng.task_records(id).unwrap() {
            out.insert(keys::task(id, path), &**rec);
        }
    }
    out
}

/// The squeezed tiered policy: a spill every few records, an L0 merge
/// every second spill, and levels that overflow constantly.
pub fn squeezed() -> TieredPolicy {
    TieredPolicy {
        memtable_budget_bytes: 512,
        run_merge_threshold: 2,
        level_base_bytes: 4096,
        level_growth: 2,
        level_run_bytes: 768,
        ..TieredPolicy::default()
    }
}

/// The store policies a suite runs on: the untiered store and
/// [`squeezed`].
pub fn policies() -> [Option<TieredPolicy>; 2] {
    [None, Some(squeezed())]
}

/// [`policies`] as a proptest axis.
pub fn policy() -> impl Strategy<Value = Option<TieredPolicy>> {
    prop::sample::select(policies().to_vec())
}

/// A `#[test]` per store policy for each named scenario — a
/// `fn(Option<TieredPolicy>)` — in a module `untiered` and a module
/// `tiered` (under [`squeezed`]), so a failure names its policy.
#[allow(unused_macros)]
macro_rules! on_each_policy {
    ($($scenario:ident),+ $(,)?) => {
        mod untiered {
            $(
                #[test]
                fn $scenario() {
                    super::$scenario(None)
                }
            )+
        }
        mod tiered {
            $(
                #[test]
                fn $scenario() {
                    super::$scenario(Some(super::common::squeezed()))
                }
            )+
        }
    };
}
#[allow(unused_imports)]
pub(crate) use on_each_policy;

/// A `Runtime` over `disk` on two one-CPU nodes.  Its boot recovers
/// whatever the disk holds, so a scenario crashes it by dropping it and
/// calling this again.
pub fn runtime<D: Disk + Clone>(
    disk: D,
    library: ActivityLibrary,
    policy: Option<TieredPolicy>,
) -> EngineResult<Runtime<D>> {
    let cfg = RuntimeConfig {
        tiered: policy,
        ..RuntimeConfig::default()
    };
    Runtime::new(disk, pool(&["n1", "n2"], 1), library, cfg)
}

/// A cluster of the nodes `names`, each of `cpus` CPUs at 500 MHz.
pub fn pool(names: &[&str], cpus: u32) -> Cluster {
    let nodes = names.iter().map(|n| NodeSpec::new(*n, cpus, 500, "linux"));
    Cluster::new("pool", nodes.collect())
}

/// A `ShardEngine` of `shards` shards stepped on `threads` threads over
/// `disk`: a fresh one ([`ShardEngine::new`]) on a disk that holds
/// nothing, else one recovered from what the disk holds.
pub fn shards<D: Disk>(
    disk: D,
    library: ActivityLibrary,
    policy: Option<TieredPolicy>,
    shards: usize,
    threads: usize,
) -> EngineResult<ShardEngine<D>> {
    let fresh = disk.list()?.is_empty();
    let store = Store::open_with(disk, policy)?;
    let cfg = ShardConfig {
        shards,
        threads,
        ..ShardConfig::default()
    };
    if fresh {
        ShardEngine::new(store, library, cfg)
    } else {
        ShardEngine::recover(store, library, cfg)
    }
}

/// A third driver: it forwards every call to the one it wraps.  A scenario
/// written against `Driver` runs on it unchanged.
pub struct Forward<E>(pub E);

impl<E: Driver> Driver for Forward<E> {
    type Disk = E::Disk;

    fn register_template(&mut self, template: &ProcessTemplate) -> EngineResult<()> {
        self.0.register_template(template)
    }
    fn submit(
        &mut self,
        template: &str,
        initial: BTreeMap<String, Value>,
    ) -> EngineResult<InstanceId> {
        self.0.submit(template, initial)
    }
    fn suspend(&mut self, id: InstanceId) -> EngineResult<()> {
        self.0.suspend(id)
    }
    fn resume(&mut self, id: InstanceId) -> EngineResult<()> {
        self.0.resume(id)
    }
    fn step(&mut self) -> EngineResult<bool> {
        self.0.step()
    }
    fn run_to_completion(&mut self) -> EngineResult<RunOutcome> {
        self.0.run_to_completion()
    }
    fn recovery_report(&self) -> RecoveryReport {
        self.0.recovery_report()
    }
    fn instance_status(&self, id: InstanceId) -> Option<InstanceStatus> {
        self.0.instance_status(id)
    }
    fn instance_header(&self, id: InstanceId) -> Option<&InstanceHeader> {
        self.0.instance_header(id)
    }
    fn whiteboard(&self, id: InstanceId) -> Option<&BTreeMap<String, Value>> {
        self.0.whiteboard(id)
    }
    fn task_records(&self, id: InstanceId) -> Option<&TaskMap> {
        self.0.task_records(id)
    }
    fn instances(&self) -> Vec<(InstanceId, InstanceStatus, String)> {
        self.0.instances()
    }
    fn history_digest(&self) -> u64 {
        self.0.history_digest()
    }
    fn awareness(&self) -> &Awareness {
        self.0.awareness()
    }
    fn store(&self) -> &Store<E::Disk> {
        self.0.store()
    }
    fn set_rollup_every(&mut self, every: u64) {
        self.0.set_rollup_every(every)
    }
    fn planner_snapshot(&self) -> PlannerSnapshot {
        self.0.planner_snapshot()
    }
    fn persisted_events(&self) -> EngineResult<Vec<ShardEvent>> {
        self.0.persisted_events()
    }
}

/// A `#[test]` per driver and store policy for each named scenario — a
/// `fn(Option<TieredPolicy>, build)`, where `build(disk, library)` makes
/// the driver over `disk`, fresh on an empty disk and recovering what it
/// holds otherwise, or fails as its recovery failed.  The drivers are
/// `runtime` ([`runtime`]), `shards_1x1` and `shards_4x2` ([`shards`]),
/// or the ones a leading `[..]` names, `forward` (a [`Forward`] around the
/// 4×2 engine) among them; each is a module with `untiered` and `tiered`
/// ([`squeezed`]), so a failure names its driver and its policy.
#[allow(unused_macros)]
macro_rules! on_each_driver {
    ([$($driver:ident),+] $($scenario:ident),+ $(,)?) => {
        crate::common::on_each_driver!(@drivers [$($driver),+] [$($scenario),+]);
    };
    ($($scenario:ident),+ $(,)?) => {
        crate::common::on_each_driver!([runtime, shards_1x1, shards_4x2] $($scenario),+);
    };
    (@drivers [$($driver:ident),+] $scenarios:tt) => {
        $(mod $driver {
            crate::common::on_each_driver!(@policy $driver, untiered, None; $scenarios);
            crate::common::on_each_driver!(
                @policy $driver, tiered, Some(crate::common::squeezed()); $scenarios
            );
        })+
    };
    (@policy $driver:ident, $name:ident, $policy:expr; [$($scenario:ident),+]) => {
        mod $name {
            $(
                #[test]
                fn $scenario() {
                    let policy = $policy;
                    let build = crate::common::on_each_driver!(@build $driver);
                    crate::$scenario(policy, |disk, library| build(disk, library, policy))
                }
            )+
        }
    };
    (@build runtime) => { crate::common::runtime };
    (@build shards_1x1) => { |d, l, p| crate::common::shards(d, l, p, 1, 1) };
    (@build shards_4x2) => { |d, l, p| crate::common::shards(d, l, p, 4, 2) };
    (@build forward) => {
        |d, l, p| crate::common::shards(d, l, p, 4, 2).map(crate::common::Forward)
    };
}
#[allow(unused_imports)]
pub(crate) use on_each_driver;
