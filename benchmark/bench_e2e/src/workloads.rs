//! The four workloads, driven through the engine's public API only.
//!
//! Every function here makes its inputs from the seed, sets up, drives the
//! engine to completion through its crash, and returns what the run cost
//! and what it produced.  A repetition is one such call in a process of
//! its own.

use crate::alloc;
use crate::disk::CountingDisk;
use crate::spec::{ChainsSpec, Facts, MonthSpec, RealSpec, Spec, Workload, SMOKE_DIVISOR};
use crate::tracer::{self, Kind};
use bioopera_cluster::{Cluster, SimTime, Trace, TraceEventKind};
use bioopera_core::dispatcher::NodeView;
use bioopera_core::shard::ShardEvent;
use bioopera_core::{
    ActivityLibrary, InstanceId, InstanceStatus, LeastLoaded, ProgramOutput, Runtime,
    RuntimeConfig, SchedulingPolicy, ShardConfig, ShardEngine,
};
use bioopera_darwin::{CostModel, DatasetConfig, PamFamily, SequenceDb};
use bioopera_ocr::model::TypeTag;
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use bioopera_store::{Store, StoreStats, TieredPolicy};
use bioopera_workloads::allvsall::{AllVsAllConfig, AllVsAllSetup};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// How one repetition is run.
#[derive(Debug, Clone, Copy)]
pub struct RepOptions {
    pub seed: u64,
    /// A twentieth of the work, for `--smoke` and the tests.
    pub smoke: bool,
    /// `false` runs the workload without its crash, as `--check`'s
    /// reference.
    pub crash: bool,
    /// Record spans, wrap programs and policy, count allocations.
    pub trace: bool,
}

/// `StoreStats` counters summed over every store a repetition opened
/// (a crash ends one store and recovery opens the next).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreTotals {
    pub batches_applied: u64,
    pub spills: u64,
    pub run_merges: u64,
    pub max_merge_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub bloom_skips: u64,
    pub run_probes: u64,
}

impl StoreTotals {
    fn add(&mut self, s: &StoreStats) {
        self.batches_applied += s.batches_applied;
        self.spills += s.spills;
        self.run_merges += s.run_merges;
        self.max_merge_bytes = self.max_merge_bytes.max(s.max_merge_bytes);
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.bloom_skips += s.bloom_skips;
        self.run_probes += s.run_probes;
    }
}

/// What the sharded engine leaves behind for the router and dispatch
/// replays.
pub struct ShardArtifacts {
    pub shards: usize,
    pub nodes: usize,
    pub node_capacity: usize,
    pub grants: u64,
    pub events: Vec<ShardEvent>,
}

/// What a finished repetition leaves behind for the layer replays.
pub struct Artifacts {
    pub tiered: Option<TieredPolicy>,
    /// The workload's templates, top-level template first.
    pub templates: Vec<ProcessTemplate>,
    /// The top-level instance's initial whiteboard.
    pub initial: BTreeMap<String, Value>,
    pub shard: Option<ShardArtifacts>,
    /// Simulator events the run processed (0 on the sharded engine).
    pub kernel_events: u64,
    pub darwin: Option<(Arc<SequenceDb>, Arc<PamFamily>)>,
}

/// What driving the engine from submission to completion cost.
#[derive(Default)]
pub struct Drive {
    /// Seconds of each `step`/`step_round` call, recovery excluded.  The
    /// calls of a workload do the same work in every repetition, which is
    /// what lets an invocation take the fastest run of each one.
    pub run_steps_s: Vec<f64>,
    /// Seconds of each recovery call.
    pub recover_steps_s: Vec<f64>,
    /// Wall seconds of the whole drive loop, the driver's own bookkeeping
    /// between engine calls included (but not tearing down a crashed
    /// engine, which `teardown_s` holds until the loop ends).
    pub wall_s: f64,
    teardown_s: f64,
    pub store: StoreTotals,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Drive {
    /// Run the drive loop `f`, timing it and (when tracing) counting its
    /// allocations.
    fn run(trace: bool, f: impl FnOnce(&mut Drive) -> Res<()>) -> Res<Drive> {
        let mut drive = Drive::default();
        let wall = Instant::now();
        let (done, allocs, alloc_bytes) = alloc::counting(trace, || f(&mut drive));
        done?;
        drive.wall_s = wall.elapsed().as_secs_f64() - drive.teardown_s;
        drive.allocs = allocs;
        drive.alloc_bytes = alloc_bytes;
        Ok(drive)
    }
}

/// Cost and product of one repetition.
pub struct RepOutcome {
    /// Seconds of each set-up; the last set-up is the one that ran.
    pub setup_samples_s: Vec<f64>,
    pub drive: Drive,
    pub events: u64,
    /// Root instances plus TEUs.
    pub attempted: u64,
    /// Of those, the ones that did not complete or completed wrongly.
    pub failed: u64,
    pub facts: Facts,
    pub disk: CountingDisk,
    pub artifacts: Artifacts,
}

/// The facts `--check` compares between a crashed and a crash-free run:
/// the results, not the path taken to them.
pub fn result_keys(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::MonthShared | Workload::AllvsallReal => &["status", "match_count", "digest"],
        Workload::ShardChains | Workload::ShardChainsTiered => {
            &["completed", "aborted", "results_digest"]
        }
    }
}

pub fn run(spec: &Spec, w: Workload, o: &RepOptions) -> Res<RepOutcome> {
    match w {
        Workload::MonthShared => month_shared(&spec.month_shared, o),
        Workload::ShardChains => shard_chains(&spec.shard_chains, o),
        Workload::ShardChainsTiered => shard_chains(&spec.shard_chains_tiered, o),
        Workload::AllvsallReal => allvsall_real(&spec.allvsall_real, o),
    }
}

// ---------------------------------------------------------------------------
// Seeded inputs and interposers
// ---------------------------------------------------------------------------

/// splitmix64, the driver's own copy: the inputs are a function of the
/// seed alone, never of the program under test.
pub fn mix(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n as i64).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix(state);
        v.swap(i, (state % (i as u64 + 1)) as usize);
    }
    v
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `LeastLoaded` with every `choose` recorded as a child span.
struct TimedPolicy(LeastLoaded);

impl SchedulingPolicy for TimedPolicy {
    fn choose(&mut self, nodes: &[NodeView], eligible: &[usize]) -> Option<usize> {
        tracer::child(Kind::Policy, || self.0.choose(nodes, eligible))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn policy(trace: bool) -> Box<dyn SchedulingPolicy> {
    if trace {
        Box::new(TimedPolicy(LeastLoaded))
    } else {
        Box::new(LeastLoaded)
    }
}

/// Every program of `lib` re-registered behind a child span.
fn traced_library(lib: &ActivityLibrary) -> ActivityLibrary {
    let mut out = ActivityLibrary::new();
    for name in lib.names() {
        let program = lib.get(name).expect("a listed program is registered");
        out.register(name, move |inputs| {
            tracer::child(Kind::Program, || program(inputs))
        });
    }
    out
}

fn library_for(lib: &ActivityLibrary, trace: bool) -> ActivityLibrary {
    if trace {
        traced_library(lib)
    } else {
        lib.clone()
    }
}

/// Set up `reps` times, timing each, and keep the last.  Set-up is short
/// next to a run, so one sample of it is mostly noise.
fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let made = setup()?;
        samples.push(t0.elapsed().as_secs_f64());
        last = Some(made);
    }
    Ok((last.expect("at least one set-up ran"), samples))
}

fn setup_reps(spec_reps: usize, o: &RepOptions) -> usize {
    // The traced repetition reports layers, not set-up time.
    if o.trace {
        1
    } else {
        spec_reps
    }
}

// ---------------------------------------------------------------------------
// month_shared and allvsall_real: `Runtime` over the cluster simulator
// ---------------------------------------------------------------------------

struct RuntimeRig {
    rt: Runtime<CountingDisk>,
    disk: CountingDisk,
    top: InstanceId,
    setup: AllVsAllSetup,
}

fn runtime_rig(
    setup: AllVsAllSetup,
    cluster: Cluster,
    trace: Option<&Trace>,
    heartbeat: SimTime,
    o: &RepOptions,
) -> Res<RuntimeRig> {
    let disk = CountingDisk::new();
    let cfg = RuntimeConfig {
        heartbeat,
        policy: policy(o.trace),
        ..Default::default()
    };
    let library = library_for(&setup.library, o.trace);
    let mut rt = Runtime::new(disk.clone(), cluster, library, cfg)?;
    rt.register_template(&setup.chunk_template)?;
    rt.register_template(&setup.template)?;
    if let Some(trace) = trace {
        rt.install_trace(trace);
    }
    let (top, _) = tracer::root(Kind::Submit, || rt.submit("AllVsAll", setup.initial()));
    Ok(RuntimeRig {
        rt,
        disk,
        top: top?,
        setup,
    })
}

/// Status, result and counts of a finished all-vs-all.
fn allvsall_outcome(rig: &RuntimeRig) -> (Facts, u64, u64) {
    let rt = &rig.rt;
    let mut facts = Facts::new();
    let status = rt.instance_status(rig.top);
    facts.insert(
        "status".into(),
        status.map_or("missing".to_string(), |s| format!("{s:?}")),
    );
    let field = |name: &str| {
        rt.whiteboard(rig.top).and_then(|wb| wb.get(name)).map_or(
            "missing".to_string(),
            |v| match v {
                Value::Int(i) => i.to_string(),
                Value::Str(s) => s.clone(),
                other => format!("{other:?}"),
            },
        )
    };
    facts.insert("match_count".into(), field("match_count"));
    facts.insert("digest".into(), field("digest"));
    facts.insert(
        "server_recover".into(),
        rt.awareness().index().count("server.recover").to_string(),
    );
    let instances = rt.instances();
    let failed = instances
        .iter()
        .filter(|(_, s, _)| *s != InstanceStatus::Completed)
        .count() as u64;
    (facts, instances.len() as u64, failed)
}

fn allvsall_artifacts(
    rig: &RuntimeRig,
    darwin: Option<(Arc<SequenceDb>, Arc<PamFamily>)>,
) -> Artifacts {
    Artifacts {
        tiered: None,
        templates: vec![rig.setup.template.clone(), rig.setup.chunk_template.clone()],
        initial: rig.setup.initial(),
        shard: None,
        kernel_events: rig.rt.events_processed(),
        darwin,
    }
}

/// `Trace::shared_run()`, or the same trace without its server crashes.
fn shared_trace(crash: bool) -> Trace {
    if crash {
        return Trace::shared_run();
    }
    let mut t = Trace::empty();
    for ev in Trace::shared_run().sorted_events() {
        if matches!(
            ev.kind,
            TraceEventKind::ServerCrash | TraceEventKind::ServerRecover
        ) {
            continue;
        }
        match ev.label {
            Some(label) => t.push_labeled(ev.at, ev.kind, label),
            None => t.push(ev.at, ev.kind),
        };
    }
    t
}

/// What cost-model mode must report for `n` entries in `teus` contiguous
/// chunks: each TEU rounds its own `pairs × match_rate`.
fn synthetic_match_count(n: usize, teus: usize, match_rate: f64) -> i64 {
    let teus = teus.clamp(1, n.max(1));
    let (base, extra) = (n / teus, n % teus);
    let mut first = 0usize;
    let mut total = 0i64;
    for id in 0..teus {
        let size = base + usize::from(id < extra);
        let pairs: f64 = (first..first + size)
            .filter(|e| e + 1 < n)
            .map(|e| (n - e - 1) as f64)
            .sum();
        total += (pairs * match_rate).round() as i64;
        first += size;
    }
    total
}

fn month_shared(spec: &MonthSpec, o: &RepOptions) -> Res<RepOutcome> {
    let (entries, teus) = if o.smoke {
        (spec.smoke_entries, spec.smoke_teus)
    } else {
        (spec.entries, spec.teus)
    };
    let mut cost = CostModel::default();
    // Fewer entries than SP38, the same simulated month: all ten events of
    // the trace, the last at day 35, must still land inside the run.
    cost.cell_ns *= (spec.sp38_entries as f64 / entries as f64).powi(2);
    let trace = shared_trace(o.crash);
    let (mut rig, setup_samples_s) = repeat_setup(setup_reps(spec.setup_reps, o), || {
        let setup = AllVsAllSetup::synthetic(
            entries,
            spec.mean_len,
            o.seed,
            AllVsAllConfig {
                teus,
                cost,
                ..Default::default()
            },
        );
        runtime_rig(
            setup,
            Cluster::shared_pool(),
            Some(&trace),
            SimTime::from_hours(spec.heartbeat_hours),
            o,
        )
    })?;

    let mut drive = Drive::run(o.trace, |d| {
        let rt = &mut rig.rt;
        let mut recovers = rt.awareness().index().count("server.recover");
        let mut down = false;
        loop {
            let (more, secs) = tracer::root(Kind::Step, || rt.step());
            // The trace's own crashes: the step during which the recovery
            // was recorded is the recovery.
            let seen = rt.awareness().index().count("server.recover");
            if seen > recovers {
                recovers = seen;
                d.recover_steps_s.push(secs);
                tracer::retag_last_root(Kind::Recover);
            } else {
                d.run_steps_s.push(secs);
            }
            // A crashed store is replaced at recovery; count it first.
            let poisoned = rt.store().is_poisoned();
            if poisoned && !down {
                d.store.add(&rt.store().stats());
            }
            down = poisoned;
            if !more? {
                return Ok(());
            }
        }
    })?;
    drive.store.add(&rig.rt.store().stats());

    let (mut facts, attempted, mut failed) = allvsall_outcome(&rig);
    let stats = rig.rt.stats(rig.top)?;
    facts.insert("wall".into(), stats.wall.to_string());
    facts.insert("cpu".into(), stats.cpu.to_string());
    let want = synthetic_match_count(entries, teus as usize, cost.match_rate).to_string();
    if facts["match_count"] != want {
        eprintln!(
            "month_shared: match_count {} but the cost model gives {want}",
            facts["match_count"]
        );
        failed = failed.max(1);
    }
    Ok(RepOutcome {
        setup_samples_s,
        drive,
        events: rig.rt.events_processed(),
        attempted,
        failed,
        facts,
        artifacts: allvsall_artifacts(&rig, None),
        disk: rig.disk,
    })
}

/// TEUs (instances of the chunk template) that have completed.
fn teus_completed(rt: &Runtime<CountingDisk>) -> usize {
    rt.instances()
        .iter()
        .filter(|(_, status, template)| {
            *status == InstanceStatus::Completed && template.as_str() != "AllVsAll"
        })
        .count()
}

fn allvsall_real(spec: &RealSpec, o: &RepOptions) -> Res<RepOutcome> {
    let db_size = if o.smoke {
        spec.smoke_db_size
    } else {
        spec.db_size
    };
    let (made, setup_samples_s) = repeat_setup(setup_reps(spec.setup_reps, o), || {
        let pam = Arc::new(PamFamily::default());
        let db = Arc::new(SequenceDb::generate(
            &DatasetConfig::small(db_size, spec.dataset_seed),
            &pam,
        ));
        // The database is pinned and the seed orders the user's queue
        // file: every seed does the same alignments in different TEUs, so
        // run time and bytes written do not move with the seed, and the
        // merged result is the same for every seed.
        let setup = AllVsAllSetup::real(
            Arc::clone(&db),
            Arc::clone(&pam),
            AllVsAllConfig {
                teus: spec.teus,
                queue_file: Some(permutation(db_size, o.seed)),
                ..Default::default()
            },
        );
        let rig = runtime_rig(
            setup,
            Cluster::ik_sun(),
            None,
            SimTime::from_mins(spec.heartbeat_mins),
            o,
        )?;
        Ok((rig, db, pam))
    })?;
    let (mut rig, db, pam) = made;

    let mut drive = Drive::run(o.trace, |d| {
        let rt = &mut rig.rt;
        let mut crashed = !o.crash;
        loop {
            let (more, secs) = tracer::root(Kind::Step, || rt.step());
            d.run_steps_s.push(secs);
            if !more? {
                return Ok(());
            }
            if !crashed && teus_completed(rt) >= spec.crash_after_teus {
                crashed = true;
                d.store.add(&rt.store().stats());
                // The crash comes when the last TEU has completed and the
                // merges are not yet dispatched: everything the TEUs
                // produced is in the store and no work is in flight, so
                // what recovery has to rebuild does not depend on which
                // TEUs the seed made slow.
                rt.crash_server()?;
                let (done, secs) = tracer::root(Kind::Recover, || rt.recover_server());
                done?;
                d.recover_steps_s.push(secs);
            }
        }
    })?;
    drive.store.add(&rig.rt.store().stats());

    let (facts, attempted, failed) = allvsall_outcome(&rig);
    Ok(RepOutcome {
        setup_samples_s,
        drive,
        events: rig.rt.events_processed(),
        attempted,
        failed,
        facts,
        artifacts: allvsall_artifacts(&rig, Some((db, pam))),
        disk: rig.disk,
    })
}

// ---------------------------------------------------------------------------
// shard_chains and shard_chains_tiered: `ShardEngine`
// ---------------------------------------------------------------------------

/// The two programs of `shard_bench`'s chain: `A` passes `x` on, `B`
/// doubles it.
fn chain_library() -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    lib.register("p.a", |inputs| {
        let x = inputs.get("x").and_then(|v| v.as_int()).unwrap_or(7);
        Ok(ProgramOutput::from_fields([("x", Value::Int(x))], 10.0))
    });
    lib.register("p.b", |inputs| {
        let x = inputs
            .get("x")
            .and_then(|v| v.as_int())
            .ok_or_else(|| "missing x".to_string())?;
        Ok(ProgramOutput::from_fields([("y", Value::Int(x * 2))], 20.0))
    });
    lib
}

fn chain_template() -> Res<ProcessTemplate> {
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
        .map_err(|e| format!("chain template: {e:?}").into())
}

/// The input of chain `i` (0-based) under `seed`.
fn chain_input(seed: u64, i: u64) -> i64 {
    (mix(seed ^ mix(i)) % 101) as i64
}

fn shard_chains(spec: &ChainsSpec, o: &RepOptions) -> Res<RepOutcome> {
    let divisor = if o.smoke { SMOKE_DIVISOR } else { 1 };
    let instances = spec.instances / divisor;
    let tiered = spec.memtable_budget_bytes.map(|budget| TieredPolicy {
        memtable_budget_bytes: budget / divisor,
        ..Default::default()
    });
    let cfg = ShardConfig {
        shards: spec.shards,
        threads: spec.threads,
        nodes: spec.nodes,
        // Smaller with the instance count, so a smoke run has the same
        // number of rounds and crashes at the same point.
        node_capacity: (spec.node_capacity as u64 / divisor).max(1) as usize,
        ..ShardConfig::default()
    };
    let library = library_for(&chain_library(), o.trace);
    let template = chain_template()?;

    let (made, setup_samples_s) = repeat_setup(setup_reps(spec.setup_reps, o), || {
        let disk = CountingDisk::new();
        let store = Store::open_with(disk.clone(), tiered)?;
        let mut eng = ShardEngine::new(store, library.clone(), cfg.clone())?;
        eng.register_template(template.clone())?;
        for i in 0..instances {
            let initial = BTreeMap::from([("x".to_string(), Value::Int(chain_input(o.seed, i)))]);
            let (id, _) = tracer::root(Kind::Submit, || eng.submit("Chain", initial));
            id?;
        }
        Ok((eng, disk))
    })?;
    let (mut eng, disk) = made;

    let (mut events, mut grants) = (0u64, 0u64);
    let mut drive = Drive::run(o.trace, |d| {
        let mut crashed = !o.crash;
        loop {
            if !crashed && d.run_steps_s.len() as u64 == spec.crash_after_round {
                crashed = true;
                let crash = Instant::now();
                let stats = eng.stats();
                events += stats.events;
                grants += stats.grants;
                d.store.add(&eng.store().stats());
                // The crash: the engine and its store handle are gone and
                // only the disk survives.
                let (recovered, secs) = tracer::root(Kind::Recover, || -> Res<_> {
                    let store = Store::open_with(disk.clone(), tiered)?;
                    Ok(ShardEngine::recover(store, library.clone(), cfg.clone())?)
                });
                eng = recovered?;
                d.recover_steps_s.push(secs);
                // Tearing the crashed engine down is the driver's work,
                // not the engine's: it is kept out of the wall time the
                // spans must cover.
                d.teardown_s += crash.elapsed().as_secs_f64() - secs;
            }
            let (more, secs) = tracer::root(Kind::Step, || eng.step_round());
            if !more? {
                return Ok(());
            }
            d.run_steps_s.push(secs);
        }
    })?;
    let stats = eng.stats();
    events += stats.events;
    grants += stats.grants;
    drive.store.add(&eng.store().stats());

    // Every chain must have doubled its own input: an oracle that needs
    // no pinned value and holds for every seed.
    let mut failed = 0u64;
    let mut results = FNV_OFFSET;
    for i in 0..instances {
        let id: InstanceId = i + 1;
        let y = eng
            .instance_whiteboard(id)
            .and_then(|wb| wb.get("y"))
            .and_then(|v| v.as_int());
        let completed = eng.instance_status(id) == Some(InstanceStatus::Completed);
        if !completed || y != Some(2 * chain_input(o.seed, i)) {
            failed += 1;
        }
        results = fnv1a(results, &id.to_le_bytes());
        results = fnv1a(results, &y.unwrap_or(i64::MIN).to_le_bytes());
    }
    let mut facts = Facts::new();
    facts.insert("completed".into(), stats.completed.to_string());
    facts.insert("aborted".into(), stats.aborted.to_string());
    facts.insert("results_digest".into(), format!("{results:016x}"));
    facts.insert(
        "state_digest".into(),
        format!("{:016x}", eng.state_digest()),
    );

    let artifacts = Artifacts {
        tiered,
        templates: vec![template],
        initial: BTreeMap::from([("x".to_string(), Value::Int(chain_input(o.seed, 0)))]),
        shard: Some(ShardArtifacts {
            shards: cfg.shards,
            nodes: cfg.nodes,
            node_capacity: cfg.node_capacity,
            grants,
            events: eng.persisted_events()?,
        }),
        kernel_events: 0,
        darwin: None,
    };
    drop(eng);
    Ok(RepOutcome {
        setup_samples_s,
        drive,
        events,
        attempted: instances,
        failed,
        facts,
        disk,
        artifacts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioopera_store::{Disk, MemDisk};

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(100, 7);
        assert_eq!(a, permutation(100, 7));
        assert_ne!(a, permutation(100, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<i64>>());
    }

    #[test]
    fn synthetic_match_count_rounds_per_teu() {
        // 4 entries in 2 TEUs: pairs 3+2 and 1+0; 0.3 of each is 1.5 and
        // 0.3, which round to 2 and 0.
        assert_eq!(synthetic_match_count(4, 2, 0.3), 2);
        // More TEUs than entries degrades to one entry per TEU.
        assert_eq!(synthetic_match_count(3, 10, 1.0), 2 + 1);
    }

    /// The same small sharded run on a bare `MemDisk` and behind the
    /// counting wrapper must leave the same bytes behind.
    #[test]
    fn counting_disk_is_transparent() {
        fn drive<D: Disk>(disk: D) {
            let store = Store::open(disk).unwrap();
            let cfg = ShardConfig {
                shards: 2,
                threads: 1,
                nodes: 2,
                node_capacity: 8,
                ..ShardConfig::default()
            };
            let mut eng = ShardEngine::new(store, chain_library(), cfg).unwrap();
            eng.register_template(chain_template().unwrap()).unwrap();
            for i in 0..50 {
                let initial = BTreeMap::from([("x".to_string(), Value::Int(i))]);
                eng.submit("Chain", initial).unwrap();
            }
            assert!(eng.run_to_completion().unwrap().is_completed());
        }
        let bare = MemDisk::new();
        drive(bare.clone());
        let wrapped = CountingDisk::new();
        drive(wrapped.clone());

        let inner = wrapped.inner();
        assert_eq!(inner.bytes_appended(), bare.bytes_appended());
        assert_eq!(inner.mutation_count(), bare.mutation_count());
        assert_eq!(inner.list().unwrap(), bare.list().unwrap());
        for name in bare.list().unwrap() {
            assert_eq!(
                inner.read(&name).unwrap(),
                bare.read(&name).unwrap(),
                "{name}"
            );
        }
        let counts = wrapped.counts();
        assert_eq!(counts.append_bytes, bare.bytes_appended());
        assert_eq!(counts.stored_bytes, bare.total_file_bytes());
        assert_eq!(
            counts.append_calls + counts.write_atomic_calls + counts.delete_calls,
            bare.mutation_count()
        );
    }
}
