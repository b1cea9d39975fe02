//! The BioOpera runtime: the server loop driving whole executions.
//!
//! This module owns the event kernel and implements the full life of the
//! system described in §3.2 and exercised in §5:
//!
//! * dispatch of ready activities to nodes (with per-activity dispatch
//!   latency), execution in virtual time on the processor-sharing nodes,
//!   delivery of results through the activity queue;
//! * the recovery module: node crashes, whole-cluster failures, network
//!   outages (results buffered at the PECs), disk-full periods (completed
//!   activities cannot persist results and are re-run), **server crashes**
//!   (all volatile state dropped, the store re-opened, instances rebuilt
//!   from the instance space and resumed);
//! * operator actions: suspend (running jobs drain), resume, abort,
//!   process restart, external events with template event handlers;
//! * the optional **kill-and-restart migration** strategy discussed in
//!   §5.4 (abort TEUs starved by higher-priority external jobs and
//!   re-schedule them elsewhere);
//! * measurement: availability/utilization time series (Figures 5/6) and
//!   a labeled event log.
//!
//! A step — and each public call that changes an instance — ends in one
//! commit: what it wrote is only *marked* as it goes, and the commit makes
//! it durable in one append, shaped like a shard round (a batch per dirty
//! instance, the node-health records, the history round).  A server crash
//! loses the step it interrupts, as it loses every other volatile thing;
//! the recovery property tests crash the runtime at arbitrary points and
//! verify the resumed run completes with identical results.

use crate::awareness::{Awareness, EventKind, HistoryEvent, ShardEvent};
use crate::dependability::{self, DependabilityConfig, NodeHealth, RetryDecision, SystemCause};
use crate::dispatcher::{self, NodeView, Placement, SchedulingPolicy};
use crate::driver::Driver;
use crate::error::{EngineError, EngineResult};
use crate::history::{round_start_key, Journal};
use crate::instance::{self, Activation, Dirty, Effect, Input, Instance, Reaction, RecoveryReport};
use crate::library::{ActivityLibrary, Program, ProgramOutput};
use crate::metrics::{RunReport, SeriesRollup};
use crate::navigator::{self, FailureKind, NavOutcome};
use crate::planner::{PlannerNode, PlannerSnapshot};
use crate::state::{
    keys, InstanceHeader, InstanceId, InstanceStatus, RunOutcome, TaskMap, TaskRecord, TaskState,
};
use bioopera_cluster::trace::{Trace, TraceEvent, TraceEventKind};
use bioopera_cluster::{Cluster, JobId, JobOutcome, NetworkState, SimKernel, SimTime};
use bioopera_ocr::model::ProcessTemplate;
use bioopera_ocr::value::Value;
use bioopera_store::{Batch, CompactionPolicy, Disk, Space, Store, StoreStats, TieredPolicy};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Events driving the runtime's kernel.
#[derive(Debug, Clone)]
enum EngineEvent {
    /// A dispatched job reaches its node and starts executing.
    JobStart { node: String, job: JobId },
    /// A node may have finished its earliest job (validated by generation).
    JobDone { node: String, generation: u64 },
    /// An environment trace event fires.
    Trace(TraceEvent),
    /// Periodic series sampling / migration checks.
    Heartbeat,
    /// The warm-standby backup server assumes control (§6 future work).
    BackupFailover,
    /// A task's backoff deadline passed: wake the dispatch pump.  The
    /// deadline itself lives in the task record (`retry.retry_at`), so a
    /// stale or duplicate event is harmless — the pump re-checks.
    RetryAt {
        /// Owning instance.
        instance: InstanceId,
        /// Task path.
        path: String,
    },
    /// A node's quarantine interval elapsed; `epoch` guards against stale
    /// timers releasing a newer quarantine early.
    QuarantineExpire {
        /// Node name.
        node: String,
        /// Quarantine epoch this timer was armed for.
        epoch: u64,
    },
}

pub use crate::metrics::SeriesSample;

/// Aggregate statistics of a finished instance (Table 1 rows).
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Wall-clock (virtual) duration.
    pub wall: SimTime,
    /// Summed CPU occupancy of all executed activities.
    pub cpu: SimTime,
    /// Number of executed activities (parallel children count
    /// individually; control tasks with zero cost count too).
    pub activities: u64,
    /// CPU per activity (`CPU(Π)/|Π|`).
    pub cpu_per_activity: SimTime,
    /// Peak processors in use at any series sample.
    pub max_cpus_used: u32,
}

/// What the pump did with the activity queue since the runtime was
/// built, server crashes included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpCounts {
    /// Pumps that went through the queue.
    pub pumps: u64,
    /// Queue entries activated ([`Instance::activate`]).
    pub activated: u64,
    /// Queue entries kept waiting without an activation: their last one
    /// found no eligible node, and neither their instance nor the node
    /// picture has moved since.
    pub held: u64,
}

/// Kill-and-restart migration (§5.4 future-work strategy, implemented as
/// an ablation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// A job is migrated once its node has given it (almost) no CPU for
    /// this long.
    pub patience: SimTime,
}

/// Runtime configuration.
pub struct RuntimeConfig {
    /// Series sampling period (Figures 5/6 use two hours).
    pub heartbeat: SimTime,
    /// Wall-clock latency between dispatch and job start on the node
    /// ("each alignment requires ... a few seconds to schedule, distribute,
    /// initiate").
    pub dispatch_latency: SimTime,
    /// Reference-CPU ms charged for a program run that fails (the work
    /// burned before the error surfaced).
    pub failed_run_cost_ms: f64,
    /// Scheduling policy.
    pub policy: Box<dyn SchedulingPolicy>,
    /// Optional kill-and-restart migration.
    pub migration: Option<MigrationConfig>,
    /// Warm-standby backup server (§6 future work): when set, a server
    /// crash is followed by an automatic takeover after this delay instead
    /// of waiting for a repair/maintenance `ServerRecover`.
    pub backup_failover: Option<SimTime>,
    /// Roll the store — spill its memtable to a sorted run — when the WAL
    /// reaches this many bytes.  This bounds replay, and with no `tiered`
    /// budget it bounds the resident memtable too.
    pub compact_wal_bytes: u64,
    /// Give the store this memtable budget (`None`, the default: no
    /// budget), at boot and at every server recovery alike.
    pub tiered: Option<TieredPolicy>,
    /// Dependability policies: retry budgets, backoff, quarantine, poison
    /// escalation (`DependabilityConfig::disabled()` reproduces the
    /// pre-policy instant-requeue engine).
    pub dependability: DependabilityConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            heartbeat: SimTime::from_hours(2),
            dispatch_latency: SimTime::from_secs(2),
            failed_run_cost_ms: 500.0,
            policy: Box::new(dispatcher::LeastLoaded),
            migration: None,
            backup_failover: None,
            compact_wal_bytes: 8 * 1024 * 1024,
            tiered: None,
            dependability: DependabilityConfig::default(),
        }
    }
}

/// The store `cfg` asks for over `disk`: tiered or not, rolling its WAL
/// at `cfg.compact_wal_bytes`.
fn open_store<D: Disk + Clone>(disk: &D, cfg: &RuntimeConfig) -> EngineResult<Store<D>> {
    let mut store = Store::open_with(disk.clone(), cfg.tiered)?;
    store.set_compaction_policy(Some(CompactionPolicy {
        wal_bytes_threshold: cfg.compact_wal_bytes,
    }));
    Ok(store)
}

/// A job the server believes is on (or travelling to) a node.
struct InFlight {
    instance: InstanceId,
    path: String,
    node: String,
    /// The deterministic program result, computed at dispatch.
    result: Result<ProgramOutput, String>,
    /// Job never reports back (paper's event 10) when set.
    silent: bool,
    /// Heartbeats this job has spent fully starved (for migration).
    starved_beats: u32,
}

/// The runtime.
pub struct Runtime<D: Disk + Clone> {
    disk: D,
    journal: Journal<D>,
    kernel: SimKernel<EngineEvent>,
    cluster: Cluster,
    library: ActivityLibrary,
    /// The stream round the next commit that carries events is.
    round: u64,
    /// Events noted since the last commit: the next one carries them.
    unsaved: Vec<HistoryEvent>,
    /// Instance records written since the last commit.
    dirty: Dirty,
    /// Nodes whose health record changed since the last commit.
    dirty_health: BTreeSet<String>,
    /// Configuration records for the next commit beyond the health
    /// records: the node specs a boot writes.
    config: Batch,
    cfg: RuntimeConfig,

    // ---- volatile server memory (lost on server crash) ----
    instances: BTreeMap<InstanceId, Instance>,
    /// Templates resolved so far, by name: filled by `register_template`
    /// and lazily from the template space.
    templates: BTreeMap<String, Arc<ProcessTemplate>>,
    /// The buffer every journal record is encoded through.
    scratch: String,
    in_flight: BTreeMap<JobId, InFlight>,
    ready_queue: VecDeque<Queued>,
    /// Empty between pumps: a pump collects what it defers here and then
    /// trades it for the drained `ready_queue`, so that neither queue is
    /// reallocated per pump.
    deferred: VecDeque<Queued>,
    /// The records committed since the last pump went through the queue:
    /// a waiting entry whose own record or instance header is among them
    /// is activated again.
    written: Dirty,
    next_instance_id: InstanceId,
    next_job_id: JobId,

    // ---- environment state ----
    server_up: bool,
    disk_full: bool,
    operator_suspended: bool,
    /// Completions that arrived during a network outage (global, or a
    /// per-node partition), buffered at PECs.
    pec_buffer: Vec<(String, JobId, f64)>,
    /// Pending silent-failure injections (paper event 10).
    non_report_budget: u32,
    /// Node health scores (dependability policy).  Volatile mirror of the
    /// `health/` records in the configuration space; rebuilt from the
    /// store after a server crash.
    node_health: BTreeMap<String, NodeHealth>,

    // ---- measurement ----
    series: Vec<SeriesSample>,
    event_log: Vec<(SimTime, String)>,
    heartbeat_scheduled: bool,
    auto_restarts: u32,
    pump_counts: PumpCounts,

    // ---- store awareness ----
    /// Tier counters at the last store-event emission; diffed at each
    /// step boundary to turn spills and merges into `store.*` events.
    tier_stats: Option<StoreStats>,
    /// Retire the stream's records once a durable summary covers them
    /// (windowed retention; opt-in).
    history_retention: bool,
    /// The summary round the last retention advance was issued for.
    retained_round: u64,
    /// What the last rebuild read, found in doubt and wrote.
    recovery: RecoveryReport,
}

/// The runtime's half of the driver surface.  The calls `bench_e2e`
/// makes on a `Runtime` keep their inherent bodies and are forwarded.
impl<D: Disk + Clone> Driver for Runtime<D> {
    type Disk = D;

    fn register_template(&mut self, template: &ProcessTemplate) -> EngineResult<()> {
        Runtime::register_template(self, template)
    }

    fn submit(
        &mut self,
        template: &str,
        initial: BTreeMap<String, Value>,
    ) -> EngineResult<InstanceId> {
        Runtime::submit(self, template, initial)
    }

    /// Drains running jobs and starts nothing.
    fn suspend(&mut self, id: InstanceId) -> EngineResult<()> {
        self.suspend_instance(id)?;
        self.commit()
    }

    fn resume(&mut self, id: InstanceId) -> EngineResult<()> {
        self.resume_instance(id)?;
        self.commit()
    }

    fn step(&mut self) -> EngineResult<bool> {
        Runtime::step(self)
    }

    /// Suspension is a steering state, not a failure: the run quiesces
    /// instead of wedging, and a `resume` followed by another
    /// `run_to_completion` picks the work back up.
    fn run_to_completion(&mut self) -> EngineResult<RunOutcome> {
        while Runtime::step(self)? {}
        let suspended = self
            .instances
            .values()
            .filter(|m| m.header.status == InstanceStatus::Suspended)
            .count() as u64;
        if suspended > 0 {
            Ok(RunOutcome::Quiesced { suspended })
        } else {
            Ok(RunOutcome::Completed)
        }
    }

    /// What the last rebuild — the boot's, or the last server recovery's
    /// — read, found in doubt and wrote.
    fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    fn instance_status(&self, id: InstanceId) -> Option<InstanceStatus> {
        Runtime::instance_status(self, id)
    }

    fn instance_header(&self, id: InstanceId) -> Option<&InstanceHeader> {
        self.instances.get(&id).map(|m| &m.header)
    }

    fn whiteboard(&self, id: InstanceId) -> Option<&BTreeMap<String, Value>> {
        Runtime::whiteboard(self, id)
    }

    fn task_records(&self, id: InstanceId) -> Option<&TaskMap> {
        self.instances.get(&id).map(|m| &m.tasks)
    }

    fn instances(&self) -> Vec<(InstanceId, InstanceStatus, String)> {
        Runtime::instances(self)
    }

    /// Order-sensitive, comparable between runs, and continuous across a
    /// server crash.
    fn history_digest(&self) -> u64 {
        self.journal.digest()
    }

    fn awareness(&self) -> &Awareness {
        Runtime::awareness(self)
    }

    fn store(&self) -> &Store<D> {
        Runtime::store(self)
    }

    fn set_rollup_every(&mut self, every: u64) {
        self.journal.set_every(every);
    }

    /// The cluster's nodes, the jobs in flight and the live instances.
    fn planner_snapshot(&self) -> PlannerSnapshot {
        let nodes = self
            .cluster
            .nodes()
            .iter()
            .map(|n| PlannerNode {
                name: n.spec.name.clone(),
                os: Some(n.spec.os.clone()),
                cpus: n.cpus_online(),
                up: n.is_up(),
            })
            .collect();
        let instances = self
            .instances
            .values()
            .filter(|inst| !inst.header.status.is_terminal())
            .map(Instance::planner_view)
            .collect();
        PlannerSnapshot {
            nodes,
            in_flight: self.in_flight_jobs(),
            instances,
        }
    }
}

impl<D: Disk + Clone> Runtime<D> {
    /// Create a runtime over `disk` (recovering any existing state),
    /// managing `cluster` with `library` and `cfg`.
    pub fn new(
        disk: D,
        cluster: Cluster,
        library: ActivityLibrary,
        cfg: RuntimeConfig,
    ) -> EngineResult<Self> {
        let (journal, round, recovery) = Journal::open(open_store(&disk, &cfg)?)?;
        // Record the hardware configuration (§3.2: configuration space).
        let (mut config, mut scratch) = (Batch::new(), String::new());
        for node in cluster.nodes() {
            let key = keys::node(&node.spec.name);
            config.put_record(Space::Configuration, key, &node.spec, &mut scratch);
        }
        let mut rt = Runtime {
            disk,
            journal,
            kernel: SimKernel::new(),
            cluster,
            library,
            round,
            unsaved: Vec::new(),
            dirty: Dirty::default(),
            dirty_health: BTreeSet::new(),
            config,
            cfg,
            instances: BTreeMap::new(),
            templates: BTreeMap::new(),
            scratch,
            in_flight: BTreeMap::new(),
            ready_queue: VecDeque::new(),
            deferred: VecDeque::new(),
            written: Dirty::default(),
            next_instance_id: 1,
            next_job_id: 1,
            server_up: true,
            disk_full: false,
            operator_suspended: false,
            pec_buffer: Vec::new(),
            non_report_budget: 0,
            node_health: BTreeMap::new(),
            series: Vec::new(),
            event_log: Vec::new(),
            heartbeat_scheduled: false,
            auto_restarts: 0,
            pump_counts: PumpCounts::default(),
            tier_stats: None,
            history_retention: false,
            retained_round: 0,
            recovery,
        };
        rt.rebuild_from_store()?;
        rt.commit()?;
        Ok(rt)
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Validate a template and admit it to the template space.
    pub fn register_template(&mut self, t: &ProcessTemplate) -> EngineResult<()> {
        self.journal.register_template(t)?;
        // Late binding: a re-registration replaces what instances started
        // from now on resolve the name to.
        self.templates.insert(t.name.clone(), Arc::new(t.clone()));
        Ok(())
    }

    /// Start an instance of `template_name` with initial whiteboard data.
    pub fn submit(
        &mut self,
        template_name: &str,
        initial: BTreeMap<String, Value>,
    ) -> EngineResult<InstanceId> {
        let id = self.instantiate(template_name, initial, None)?;
        self.commit()?;
        Ok(id)
    }

    fn instantiate(
        &mut self,
        template_name: &str,
        initial: BTreeMap<String, Value>,
        parent: Option<(InstanceId, String)>,
    ) -> EngineResult<InstanceId> {
        let template =
            Self::resolve_template(self.journal.store(), &mut self.templates, template_name)?;
        let id = self.next_instance_id;
        self.next_instance_id += 1;
        let now = self.kernel.now();
        let (inst, reaction) =
            Instance::create(template, id, parent, now, &initial, &mut self.dirty)?;
        self.instances.insert(id, inst);
        self.note(
            now,
            EventKind::InstanceStart {
                instance: id,
                template: template_name.to_string(),
            },
        );
        self.route(id, reaction)?;
        self.ensure_heartbeat();
        Ok(id)
    }

    /// The template called `name`: as already resolved, else decoded from
    /// the template space and remembered (one `get` + decode per name per
    /// server life, not one per instance).
    fn resolve_template(
        store: &Store<D>,
        known: &mut BTreeMap<String, Arc<ProcessTemplate>>,
        name: &str,
    ) -> EngineResult<Arc<ProcessTemplate>> {
        if let Some(t) = known.get(name) {
            return Ok(t.clone());
        }
        let bytes = store
            .get(Space::Template, &keys::template(name))?
            .ok_or_else(|| EngineError::UnknownTemplate(name.to_string()))?;
        let t: ProcessTemplate = serde_json::from_slice(&bytes)
            .map_err(|e| EngineError::Internal(format!("corrupt template {name}: {e}")))?;
        let t = Arc::new(t);
        known.insert(name.to_string(), t.clone());
        Ok(t)
    }

    /// Install an environment trace (schedules every event).
    pub fn install_trace(&mut self, trace: &Trace) {
        for ev in trace.sorted_events() {
            self.kernel.schedule_at(ev.at, EngineEvent::Trace(ev));
        }
    }

    /// One scheduler iteration: dispatch, then process the next event,
    /// then commit what the iteration wrote and noted, in one append.
    /// Returns `Ok(false)` once every instance is terminal.
    pub fn step(&mut self) -> EngineResult<bool> {
        let more = self.step_inner()?;
        self.commit()?;
        Ok(more)
    }

    fn step_inner(&mut self) -> EngineResult<bool> {
        if !self.instances.is_empty() && self.all_terminal() {
            return Ok(false);
        }
        self.pump()?;
        self.ensure_heartbeat();
        match self.kernel.pop() {
            Some((at, ev)) => {
                self.handle(at, ev)?;
                Ok(true)
            }
            None => {
                if self.all_terminal() {
                    return Ok(false);
                }
                if self.try_unstall()? {
                    return Ok(true);
                }
                // Every remaining instance is operator-suspended and no
                // work is in flight: the world is quiescent by request,
                // not deadlocked.  `resume()` continues the run.
                if self.in_flight.is_empty()
                    && self.instances.values().all(|m| {
                        m.header.status.is_terminal()
                            || m.header.status == InstanceStatus::Suspended
                    })
                {
                    return Ok(false);
                }
                Err(EngineError::Internal(format!(
                    "deadlock at {}: no pending events but instances incomplete \
                     (queue={}, in_flight={}, suspended={}){}",
                    self.kernel.now(),
                    self.ready_queue.len(),
                    self.in_flight.len(),
                    self.operator_suspended,
                    self.deadlock_detail(),
                )))
            }
        }
    }

    /// Events processed so far (progress reporting).
    pub fn events_processed(&self) -> u64 {
        self.kernel.processed()
    }

    /// Activities waiting in the activity queue.
    pub fn ready_queue_len(&self) -> usize {
        self.ready_queue.len()
    }

    /// What the pump did with the activity queue so far.
    pub fn pump_counts(&self) -> PumpCounts {
        self.pump_counts
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Status of an instance.
    pub fn instance_status(&self, id: InstanceId) -> Option<InstanceStatus> {
        self.instances.get(&id).map(|m| m.header.status)
    }

    /// Whiteboard of an instance.
    pub fn whiteboard(&self, id: InstanceId) -> Option<&BTreeMap<String, Value>> {
        self.instances.get(&id).map(|m| &m.header.whiteboard)
    }

    /// A task record.
    pub fn task_record(&self, id: InstanceId, path: &str) -> Option<&TaskRecord> {
        self.instances.get(&id)?.tasks.get(path).map(|rec| &**rec)
    }

    /// The recorded availability/utilization series.
    pub fn series(&self) -> &[SeriesSample] {
        &self.series
    }

    /// The labeled event log (trace labels + engine reactions).
    pub fn event_log(&self) -> &[(SimTime, String)] {
        &self.event_log
    }

    /// The persistent store (for planner/history queries).
    pub fn store(&self) -> &Store<D> {
        self.journal.store()
    }

    /// The cluster (for planner queries).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The awareness model.
    pub fn awareness(&self) -> &Awareness {
        self.journal.awareness()
    }

    /// Note a history event: the next commit carries it — unless the
    /// server is down, when the commit drops it with everything else.
    fn note(&mut self, at: SimTime, kind: EventKind) {
        self.unsaved.push(HistoryEvent { at, kind });
    }

    /// Make what was marked and noted since the last commit durable in
    /// one append, shaped like a shard round: a batch per dirty instance
    /// ([`Instance::marked_into`]), then the configuration records (the
    /// changed node-health records, and the node specs at boot), then the
    /// noted events as one round of the history stream.  The events
    /// become durable with the state they describe; a crash inside the
    /// append keeps a prefix of whole batches.  The tier activity the
    /// append set off is noted for the next commit as `store.*` events;
    /// then, when enabled, the stream below the durable summary is
    /// retired.  While the server is down nothing is committed: what it
    /// marked and noted died with it.
    fn commit(&mut self) -> EngineResult<()> {
        let dirty = std::mem::take(&mut self.dirty);
        let health = std::mem::take(&mut self.dirty_health);
        let mut config = std::mem::take(&mut self.config);
        if !self.server_up {
            self.unsaved.clear();
            return Ok(());
        }
        let mut batches = Vec::new();
        for (id, marks) in dirty.iter() {
            if let Some(inst) = self.instances.get(&id) {
                let mut batch = Batch::new();
                inst.marked_into(&mut batch, None, marks, &mut self.scratch);
                batches.push(batch);
            }
        }
        self.written.absorb(dirty);
        for name in &health {
            if let Some(h) = self.node_health.get(name) {
                let key = dependability::health_key(name);
                config.put_record(Space::Configuration, key, h, &mut self.scratch);
            }
        }
        batches.push(config);
        let round = self.round;
        self.round += u64::from(!self.unsaved.is_empty());
        let noted = self
            .unsaved
            .drain(..)
            .enumerate()
            .map(|(seq, ev)| ShardEvent {
                round,
                instance: ev.kind.instance().unwrap_or(0),
                seq: seq as u64,
                at: Some(ev.at),
                kind: ev.kind,
            });
        self.journal.commit(batches, round, noted)?;
        self.record_store_events();
        self.maybe_retain_history()
    }

    /// Turn the store's tier counters into awareness events: one
    /// `store.spill` and/or `store.compaction` per commit that moved
    /// them, carrying the deltas (and sampling the cumulative read-side
    /// counters so the index can report cache and bloom health).  The
    /// next commit carries them.
    fn record_store_events(&mut self) {
        let stats = self.journal.store().stats();
        let prev = self.tier_stats.replace(stats);
        let (prev_spills, prev_merges) = prev.map_or((0, 0), |p| (p.spills, p.run_merges));
        let now = self.kernel.now();
        if stats.spills > prev_spills {
            self.note(
                now,
                EventKind::StoreSpill {
                    spills: stats.spills - prev_spills,
                    runs: stats.runs as u64,
                    bloom_skips: stats.bloom_skips,
                    cache_hits: stats.cache_hits,
                    cache_misses: stats.cache_misses,
                },
            );
        }
        if stats.run_merges > prev_merges {
            self.note(
                now,
                EventKind::StoreCompaction {
                    merges: stats.run_merges - prev_merges,
                    levels: stats.levels as u64,
                    max_merge_bytes: stats.max_merge_bytes,
                },
            );
        }
    }

    /// Windowed retention: once a durable summary covers a prefix of the
    /// stream, retire the records of the rounds below it.  The summary
    /// already answers every aggregate query over them, and recovery
    /// never reads below it, so no recovery path needs the retired
    /// records.  Off by default; enabled via
    /// [`set_history_retention`](Runtime::set_history_retention).
    fn maybe_retain_history(&mut self) -> EngineResult<()> {
        let round = self.journal.summarized_round();
        if !self.history_retention || round == self.retained_round {
            return Ok(());
        }
        let below = round_start_key(round);
        let retired = self.journal.retain_below(&below)?;
        self.retained_round = round;
        if retired > 0 {
            // Noted now, durable with the next commit.
            self.note(
                self.kernel.now(),
                EventKind::StoreRetention { retired, below },
            );
        }
        Ok(())
    }

    /// Enable or disable windowed history retention: once a durable
    /// summary covers a prefix of the stream, the records below it are
    /// retired at the next commit.
    pub fn set_history_retention(&mut self, on: bool) {
        self.history_retention = on;
    }

    /// Snapshot everything this run tells the operator — per-kind event
    /// counters, task latency histograms, gauges, the series rolled up
    /// into `bin`-wide windows, and the labeled event log — as one
    /// serializable [`RunReport`].
    pub fn run_report(&self, bin: SimTime) -> RunReport {
        let idx = self.awareness().index();
        RunReport {
            taken_at_ms: self.kernel.now().as_millis(),
            events: idx.len() as u64,
            counters: idx
                .counts_by_kind()
                .into_iter()
                .map(|(k, n)| (k, n as u64))
                .collect(),
            task_run_ms: idx.run_ms().clone(),
            task_queue_ms: idx.queue_ms().clone(),
            peak_in_flight: idx.peak_in_flight(),
            total_cpu_ms: idx.total_cpu_ms(),
            auto_restarts: self.auto_restarts,
            series: SeriesRollup::by_width(&self.series, bin).bins().to_vec(),
            event_log: self
                .event_log
                .iter()
                .map(|(at, msg)| (at.as_millis(), msg.clone()))
                .collect(),
        }
    }

    /// Instances known to the server, with status.
    pub fn instances(&self) -> Vec<(InstanceId, InstanceStatus, String)> {
        self.instances
            .iter()
            .map(|(id, m)| (*id, m.header.status, m.header.template.clone()))
            .collect()
    }

    /// Jobs currently in flight: `(instance, task path, node)`.
    pub fn in_flight_jobs(&self) -> Vec<(InstanceId, String, String)> {
        self.in_flight
            .values()
            .map(|f| (f.instance, f.path.clone(), f.node.clone()))
            .collect()
    }

    /// How many times the runtime performed the automatic operator-restart
    /// that re-schedules non-reporting TEUs.
    pub fn auto_restarts(&self) -> u32 {
        self.auto_restarts
    }

    /// Aggregate statistics of one instance (plus all its subprocess
    /// children).
    pub fn stats(&self, id: InstanceId) -> EngineResult<RunStats> {
        let mem = self
            .instances
            .get(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        let mut cpu_ms = 0.0f64;
        let mut activities = 0u64;
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            let m = self
                .instances
                .get(&cur)
                .ok_or(EngineError::UnknownInstance(cur))?;
            for rec in m.tasks.values() {
                // A container's work is counted via what it contains —
                // children of a parallel-subprocess body included: they
                // proxy a child instance, which is walked below.
                if m.role(rec).is_container() {
                    continue;
                }
                if rec.state == TaskState::Ended {
                    cpu_ms += rec.cpu_ms;
                    activities += 1;
                }
            }
            // Children instances.
            for (cid, cm) in &self.instances {
                if cm.header.parent.as_ref().map(|(p, _)| *p) == Some(cur) {
                    stack.push(*cid);
                }
            }
        }
        let wall = mem
            .header
            .ended_at
            .unwrap_or(self.kernel.now())
            .saturating_sub(mem.header.created_at);
        let max_cpus_used = self
            .series
            .iter()
            .map(|s| s.utilization.round() as u32)
            .max()
            .unwrap_or(0);
        Ok(RunStats {
            wall,
            cpu: SimTime::from_millis(cpu_ms.round() as u64),
            activities,
            cpu_per_activity: SimTime::from_millis(if activities == 0 {
                0
            } else {
                (cpu_ms / activities as f64).round() as u64
            }),
            max_cpus_used,
        })
    }

    fn suspend_instance(&mut self, id: InstanceId) -> EngineResult<()> {
        let mem = self
            .instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        if mem.header.status == InstanceStatus::Running {
            mem.header.status = InstanceStatus::Suspended;
            self.dirty.header(id);
            self.note(
                self.kernel.now(),
                EventKind::InstanceSuspend { instance: id },
            );
            self.log(format!("instance {id} suspended"));
        }
        Ok(())
    }

    fn resume_instance(&mut self, id: InstanceId) -> EngineResult<()> {
        let now = self.kernel.now();
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        let reaction = inst.react(Input::Resume, now, &mut self.dirty)?;
        self.route(id, reaction)?;
        self.note(
            self.kernel.now(),
            EventKind::InstanceResume { instance: id },
        );
        self.log(format!("instance {id} resumed"));
        Ok(())
    }

    /// Operator abort.
    pub fn abort(&mut self, id: InstanceId) -> EngineResult<()> {
        self.abort_instance(id)?;
        self.commit()
    }

    fn abort_instance(&mut self, id: InstanceId) -> EngineResult<()> {
        let now = self.kernel.now();
        self.recall_jobs(id);
        let mem = self
            .instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        mem.header.status = InstanceStatus::Aborted;
        mem.header.ended_at = Some(now);
        self.dirty.header(id);
        self.note(now, EventKind::InstanceAbort { instance: id });
        self.resync_all_nodes();
        self.log(format!("instance {id} aborted by operator"));
        Ok(())
    }

    /// Operator process restart: every in-flight task of the instance is
    /// pulled back and re-queued ("the process was re-started and BioOpera
    /// immediately re-scheduled the TEUs that then completed successfully").
    pub fn restart_instance(&mut self, id: InstanceId) -> EngineResult<()> {
        self.requeue_in_flight(id)?;
        self.commit()
    }

    fn requeue_in_flight(&mut self, id: InstanceId) -> EngineResult<()> {
        let now = self.kernel.now();
        self.recall_jobs(id);
        let mut outcome = NavOutcome::default();
        let mut reaction = Reaction::new();
        let mut requeued = 0;
        if let Some(inst) = self.instances.get_mut(&id) {
            // Containers are driven by what they contain: never requeued.
            let restartable: Vec<String> = inst
                .tasks
                .values()
                .filter(|rec| rec.state == TaskState::Dispatched && !inst.role(rec).is_container())
                .map(|rec| rec.path.clone())
                .collect();
            for path in restartable {
                if let Some(rec) = inst.tasks.get_mut(&path) {
                    rec.state = TaskState::Ready;
                    rec.node = None;
                    outcome.touched.insert(path.clone());
                    outcome.newly_ready.push(path);
                }
            }
            requeued = outcome.newly_ready.len() as u64;
            reaction = inst.settle(outcome, now, &mut self.dirty);
        }
        self.note(
            now,
            EventKind::InstanceRestart {
                instance: id,
                requeued,
            },
        );
        self.route(id, reaction)?;
        self.resync_all_nodes();
        self.log(format!(
            "instance {id} restarted; in-flight TEUs re-scheduled"
        ));
        Ok(())
    }

    /// Take every job of instance `id` out of flight and off its node.
    fn recall_jobs(&mut self, id: InstanceId) {
        let now = self.kernel.now();
        let cluster = &mut self.cluster;
        self.in_flight.retain(|job, f| {
            if f.instance == id {
                if let Some(n) = cluster.node_mut(&f.node) {
                    n.abort_job(now, *job);
                }
            }
            f.instance != id
        });
    }

    /// Selective recomputation (§6, lineage tracking): start a new
    /// instance of the same template that **reuses** the recorded outputs
    /// of every task unaffected by the `changed` set and re-executes only
    /// the downstream closure — "recompute processes as data inputs or
    /// algorithms change" without starting from the beginning.
    ///
    /// The source instance must be terminal.  Returns the new instance id.
    pub fn recompute(&mut self, source: InstanceId, changed: &[&str]) -> EngineResult<InstanceId> {
        let (template_name, reuse_records, whiteboard) = {
            let mem = self
                .instances
                .get(&source)
                .ok_or(EngineError::UnknownInstance(source))?;
            if !mem.header.status.is_terminal() {
                return Err(EngineError::BadStatus(format!(
                    "instance {source} is still running; recompute needs a terminal source"
                )));
            }
            let plan =
                crate::lineage::RecomputePlan::build(&mem.template, &mem.tasks, source, changed)?;
            let mut reuse: Vec<Box<TaskRecord>> = plan
                .reuse
                .iter()
                .filter_map(|p| mem.tasks.get(p).cloned())
                .collect();
            // Replay mapping phases in original completion order so
            // whiteboard overwrites resolve the same way they did.
            reuse.sort_by_key(|r| r.ended_at.unwrap_or(SimTime::ZERO));
            (
                mem.header.template.clone(),
                reuse,
                mem.header.whiteboard.clone(),
            )
        };
        let id = self.instantiate(&template_name, whiteboard, None)?;
        let now = self.kernel.now();
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        let mut view = inst.view();
        let mut replay_order = Vec::new();
        for rec in reuse_records {
            let mut r = rec;
            // Reused work costs nothing in the new instance's books.
            r.cpu_ms = 0.0;
            replay_order.push((r.state, r.path.clone()));
            view.tasks.insert(r.path.clone(), r);
        }
        for (state, path) in &replay_order {
            if *state == TaskState::Ended {
                navigator::replay_mapping(&mut view, path);
            }
        }
        let mut outcome = navigator::reevaluate(&mut view, now)?;
        // The reused records are written as they were put in.
        outcome
            .touched
            .extend(replay_order.into_iter().map(|(_, path)| path));
        let reaction = inst.settle(outcome, now, &mut self.dirty);
        self.note(
            now,
            EventKind::InstanceRecompute {
                instance: id,
                source,
                changed: changed.iter().map(|c| c.to_string()).collect(),
            },
        );
        self.route(id, reaction)?;
        self.commit()?;
        self.log(format!(
            "instance {id}: selective recomputation of {} (reusing the rest of instance {source})",
            changed.join(", ")
        ));
        Ok(id)
    }

    /// Signal a named event to an instance (runs its `ON EVENT` handlers).
    pub fn signal_event(&mut self, id: InstanceId, event: &str) -> EngineResult<()> {
        let actions: Vec<bioopera_ocr::model::EventAction> = {
            let mem = self
                .instances
                .get(&id)
                .ok_or(EngineError::UnknownInstance(id))?;
            mem.template
                .on_event
                .iter()
                .filter(|h| h.event == event)
                .map(|h| h.action.clone())
                .collect()
        };
        for action in actions {
            use bioopera_ocr::model::EventAction::*;
            match action {
                Suspend => self.suspend_instance(id)?,
                Resume => self.resume_instance(id)?,
                Abort => self.abort_instance(id)?,
                SetData(field, e) => {
                    let Some(inst) = self.instances.get_mut(&id) else {
                        continue;
                    };
                    let value = navigator::eval_in_instance(&inst.view(), &e)?;
                    inst.header.whiteboard.insert(field.clone(), value);
                    self.dirty.header(id);
                    self.log(format!("instance {id}: event {event} set {field}"));
                }
            }
        }
        self.note(
            self.kernel.now(),
            EventKind::EventSignal {
                instance: id,
                event: event.to_string(),
            },
        );
        self.commit()
    }

    /// Crash the server immediately (test hook; traces use
    /// `TraceEventKind::ServerCrash`).
    pub fn crash_server(&mut self) -> EngineResult<()> {
        self.on_server_crash()
    }

    /// Recover the server immediately (test hook).
    pub fn recover_server(&mut self) -> EngineResult<()> {
        self.on_server_recover()?;
        self.commit()
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, at: SimTime, ev: EngineEvent) -> EngineResult<()> {
        match ev {
            EngineEvent::JobStart { node, job } => self.on_job_start(at, &node, job),
            EngineEvent::JobDone { node, generation } => self.on_job_done(at, &node, generation),
            EngineEvent::Trace(t) => self.on_trace(at, t),
            EngineEvent::Heartbeat => self.on_heartbeat(at),
            EngineEvent::BackupFailover => {
                if !self.server_up {
                    self.on_server_recover()?;
                    self.log("backup server assumed control".into());
                }
                Ok(())
            }
            // Pure wake-up: the next pump() re-checks `retry.retry_at`
            // against the (now advanced) clock and dispatches.  Firing
            // while the server is down, or after the deadline moved, is
            // harmless.
            EngineEvent::RetryAt { instance, path } => {
                let _ = (instance, path); // carried for kernel-dump debugging
                Ok(())
            }
            EngineEvent::QuarantineExpire { node, epoch } => {
                self.on_quarantine_expire(at, &node, epoch)
            }
        }
    }

    fn on_quarantine_expire(&mut self, at: SimTime, node: &str, epoch: u64) -> EngineResult<()> {
        // A server that is down holds no health: its recovery re-derives
        // the expiry timers from the persisted records.
        let Some(health) = self.node_health.get_mut(node) else {
            return Ok(());
        };
        if health.on_quarantine_expired(epoch) {
            self.note(
                at,
                EventKind::NodeProbation {
                    node: node.to_string(),
                },
            );
            self.dirty_health.insert(node.to_string());
            self.log(format!("node {node} left quarantine (probation)"));
        }
        Ok(())
    }

    fn on_job_start(&mut self, at: SimTime, node_name: &str, job: JobId) -> EngineResult<()> {
        let Some(flight) = self.in_flight.get(&job) else {
            return Ok(()); // annulled (abort, restart, server crash)
        };
        let work = match &flight.result {
            Ok(out) => out.cost_ref_ms.max(1.0),
            Err(_) => self.cfg.failed_run_cost_ms.max(1.0),
        };
        let node_up = self
            .cluster
            .node(node_name)
            .map(|n| n.is_up())
            .unwrap_or(false);
        if !node_up {
            // Node died while the job was in transit: system failure.
            let Some(flight) = self.in_flight.remove(&job) else {
                return Ok(());
            };
            self.system_failure(
                flight.instance,
                &flight.path,
                Some(node_name),
                SystemCause::Environment,
                "node down at job start",
            )?;
            return Ok(());
        }
        // Flaky fault: the node looks up but kills the job on arrival.
        // This failure *is* the node's fault — it feeds health scoring
        // and the task's poison set.
        let flaky = self
            .cluster
            .node_mut(node_name)
            .map(|n| n.consume_flaky_kill())
            .unwrap_or(false);
        if flaky {
            let Some(flight) = self.in_flight.remove(&job) else {
                return Ok(());
            };
            self.system_failure(
                flight.instance,
                &flight.path,
                Some(node_name),
                SystemCause::NodeFault,
                "flaky node killed the job",
            )?;
            return Ok(());
        }
        let Some(node) = self.cluster.node_mut(node_name) else {
            return Ok(());
        };
        node.start_job(at, job, work);
        self.resync_node(node_name);
        Ok(())
    }

    fn on_job_done(&mut self, at: SimTime, node_name: &str, generation: u64) -> EngineResult<()> {
        let Some(node) = self.cluster.node_mut(node_name) else {
            return Ok(());
        };
        if node.generation != generation || !node.is_up() {
            return Ok(()); // stale completion event
        }
        let finished = node.take_finished(at);
        for (job, outcome) in finished {
            let cpu_ms = match outcome {
                JobOutcome::Completed { cpu_ms } => cpu_ms,
                JobOutcome::Killed => 0.0,
            };
            self.deliver_completion(at, node_name, job, cpu_ms)?;
        }
        self.resync_node(node_name);
        Ok(())
    }

    /// A PEC reports a finished job back to the server's activity queue.
    fn deliver_completion(
        &mut self,
        at: SimTime,
        node_name: &str,
        job: JobId,
        cpu_ms: f64,
    ) -> EngineResult<()> {
        if self.cluster.network() == NetworkState::Down {
            // Buffered at the PEC until connectivity returns.
            self.pec_buffer.push((node_name.to_string(), job, cpu_ms));
            return Ok(());
        }
        // A per-node partition buffers the same way: the PEC holds the
        // result until its link to the server heals.
        if self
            .cluster
            .node(node_name)
            .map(|n| !n.is_reachable())
            .unwrap_or(false)
        {
            self.pec_buffer.push((node_name.to_string(), job, cpu_ms));
            return Ok(());
        }
        // Annulled — or granted by a server that died since: with its
        // volatile state gone the result is useless, and recovery re-runs
        // the task.
        let Some(flight) = self.in_flight.remove(&job) else {
            return Ok(());
        };
        if flight.silent {
            // Paper event 10: the TEU finished but never reported.
            self.note(
                at,
                EventKind::TaskNonReport {
                    instance: flight.instance,
                    path: flight.path.clone(),
                },
            );
            return Ok(());
        }
        if self.disk_full {
            // Results cannot be persisted: the activity is treated as
            // failed by the environment and will be re-run.
            self.note(
                at,
                EventKind::TaskDiskFull {
                    instance: flight.instance,
                    path: flight.path.clone(),
                },
            );
            self.system_failure(
                flight.instance,
                &flight.path,
                Some(node_name),
                SystemCause::Environment,
                "disk full",
            )?;
            return Ok(());
        }
        // The node delivered a result: whatever the program said, the
        // node itself worked — end its failure streak, and reset the
        // task's masked-failure bookkeeping.
        self.note_node_success(node_name)?;
        let (id, path) = (flight.instance, flight.path);
        let context = match flight.result {
            Ok(_) => "completion",
            Err(_) => "failure report",
        };
        let Some(inst) = self.instances.get_mut(&id) else {
            self.note_stale(id, Some(&path), context);
            return Ok(());
        };
        // Dispatch→completion wall time (read before the navigator clears
        // per-run fields).
        let mut run_ms = 0;
        if let Some(rec) = inst.tasks.get_mut(&path) {
            rec.retry = None;
            run_ms = rec
                .started_at
                .map_or(0, |s| at.saturating_sub(s).as_millis());
        }
        let (input, event) = match flight.result {
            Ok(out) => (
                Input::TaskEnded {
                    path: path.clone(),
                    outputs: out.outputs,
                    cpu_ms,
                },
                EventKind::TaskEnd {
                    instance: id,
                    path: path.clone(),
                    node: node_name.to_string(),
                    run_ms,
                    cpu_ms,
                },
            ),
            Err(error) => (
                Input::TaskFailed {
                    path: path.clone(),
                    kind: FailureKind::Program,
                },
                EventKind::TaskFail {
                    instance: id,
                    path: path.clone(),
                    error,
                },
            ),
        };
        let reaction = match inst.react(input, at, &mut self.dirty) {
            Ok(reaction) => reaction,
            // A report for a record that no longer exists (a stale
            // in-flight job racing a restart or recovery) is evidence, not
            // poison: record it and drop it.
            Err(EngineError::UnknownTask(i, p)) => {
                self.note_stale(i, Some(&p), context);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        self.note(at, event);
        self.route(id, reaction)
    }

    fn on_trace(&mut self, at: SimTime, ev: TraceEvent) -> EngineResult<()> {
        if let Some(label) = &ev.label {
            self.log(label.clone());
        }
        match ev.kind {
            TraceEventKind::NodeDown(name) => {
                let killed = match self.cluster.node_mut(&name) {
                    Some(n) => n.crash(at),
                    None => Vec::new(),
                };
                self.note(at, EventKind::NodeCrash { node: name.clone() });
                self.fail_jobs(&killed, "node crash")?;
            }
            TraceEventKind::NodeUp(name) => {
                if let Some(n) = self.cluster.node_mut(&name) {
                    n.recover(at);
                }
                self.note(at, EventKind::NodeRecover { node: name });
            }
            TraceEventKind::AllNodesDown => {
                let mut killed = Vec::new();
                for n in self.cluster.nodes_mut() {
                    killed.extend(n.crash(at));
                }
                self.note(at, EventKind::ClusterFailure);
                self.fail_jobs(&killed, "cluster failure")?;
            }
            TraceEventKind::AllNodesUp => {
                for n in self.cluster.nodes_mut() {
                    n.recover(at);
                }
                self.note(at, EventKind::ClusterRecover);
            }
            TraceEventKind::NetworkDown => {
                self.cluster.set_network(NetworkState::Down);
            }
            TraceEventKind::NetworkUp => {
                self.cluster.set_network(NetworkState::Up);
                // Deliver everything the PECs buffered.
                let buffered = std::mem::take(&mut self.pec_buffer);
                for (node, job, cpu_ms) in buffered {
                    self.deliver_completion(at, &node, job, cpu_ms)?;
                }
            }
            TraceEventKind::ExternalLoadAll { fraction } => {
                for n in self.cluster.nodes_mut() {
                    let cpus = n.cpus_online() as f64;
                    n.set_external_load(at, fraction * cpus);
                }
                // §3.4: load samples feed the same awareness taxonomy.
                let loads: Vec<(String, f64)> = self
                    .cluster
                    .nodes()
                    .iter()
                    .map(|n| (n.spec.name.clone(), n.external_cpus()))
                    .collect();
                for (node, cpus) in loads {
                    self.note(at, EventKind::NodeLoad { node, cpus });
                }
                self.resync_all_nodes();
            }
            TraceEventKind::ExternalLoad { node, cpus } => {
                if let Some(n) = self.cluster.node_mut(&node) {
                    n.set_external_load(at, cpus);
                }
                self.note(
                    at,
                    EventKind::NodeLoad {
                        node: node.clone(),
                        cpus,
                    },
                );
                self.resync_node(&node);
            }
            TraceEventKind::UpgradeAllTo { cpus } => {
                for n in self.cluster.nodes_mut() {
                    n.set_cpus(at, cpus);
                }
                self.note(at, EventKind::ClusterUpgrade { cpus });
                self.resync_all_nodes();
            }
            TraceEventKind::ServerCrash => self.on_server_crash()?,
            TraceEventKind::ServerRecover => self.on_server_recover()?,
            TraceEventKind::OperatorSuspend => {
                self.operator_suspended = true;
                self.note(at, EventKind::OperatorSuspend);
            }
            TraceEventKind::OperatorResume => {
                self.operator_suspended = false;
                self.note(at, EventKind::OperatorResume);
                let ids: Vec<InstanceId> = self.instances.keys().copied().collect();
                for id in ids {
                    if self.instance_status(id) == Some(InstanceStatus::Suspended) {
                        self.resume_instance(id)?;
                    }
                }
            }
            TraceEventKind::DiskFull => {
                self.disk_full = true;
            }
            TraceEventKind::DiskFreed => {
                self.disk_full = false;
            }
            TraceEventKind::NodeFlaky { node, kills } => {
                if let Some(n) = self.cluster.node_mut(&node) {
                    n.set_flaky(kills);
                }
            }
            TraceEventKind::NodePartition(name) => {
                if let Some(n) = self.cluster.node_mut(&name) {
                    n.set_reachable(false);
                }
                self.note(at, EventKind::NodePartition { node: name });
            }
            TraceEventKind::NodeRejoin(name) => {
                if let Some(n) = self.cluster.node_mut(&name) {
                    n.set_reachable(true);
                }
                self.note(at, EventKind::NodeRejoin { node: name.clone() });
                // Deliver what this node's PEC buffered during the
                // partition (a still-unreachable node's entries are
                // re-buffered by `deliver_completion`).
                let buffered = std::mem::take(&mut self.pec_buffer);
                for (node, job, cpu_ms) in buffered {
                    self.deliver_completion(at, &node, job, cpu_ms)?;
                }
            }
            TraceEventKind::TaskNonReport { count } => {
                // Mark up to `count` in-flight jobs as silent.
                let mut remaining = count;
                for flight in self.in_flight.values_mut() {
                    if remaining == 0 {
                        break;
                    }
                    if !flight.silent {
                        flight.silent = true;
                        remaining -= 1;
                    }
                }
                self.non_report_budget += count - remaining;
            }
        }
        Ok(())
    }

    fn on_heartbeat(&mut self, at: SimTime) -> EngineResult<()> {
        self.heartbeat_scheduled = false;
        self.cluster.advance_all(at);
        self.series.push(SeriesSample {
            at,
            availability: self.cluster.availability(),
            utilization: self.cluster.utilization(),
        });
        // Stall watchdog: nothing running, nothing queued, server healthy,
        // yet instances incomplete — the signature of TEUs that finished
        // but never reported (paper event 10).  The operator "re-starts
        // the process and BioOpera immediately re-schedules the TEUs".
        if self.server_up
            && !self.operator_suspended
            && self.cluster.network() == NetworkState::Up
            && self.in_flight.is_empty()
            && self.ready_queue.is_empty()
        {
            self.restart_stuck_instances()?;
        }
        // Kill-and-restart migration: abort fully-starved jobs.
        if let Some(mig) = self.cfg.migration {
            let beats_needed =
                (mig.patience.as_millis() / self.cfg.heartbeat.as_millis().max(1)).max(1) as u32;
            let starved: Vec<JobId> = self
                .in_flight
                .iter_mut()
                .filter_map(|(job, f)| {
                    let starved = self
                        .cluster
                        .node(&f.node)
                        .map(|n| n.is_up() && n.cpus_online() as f64 <= n.external_cpus())
                        .unwrap_or(false);
                    if starved {
                        f.starved_beats += 1;
                        (f.starved_beats >= beats_needed).then_some(*job)
                    } else {
                        f.starved_beats = 0;
                        None
                    }
                })
                .collect();
            for job in starved {
                if let Some(f) = self.in_flight.remove(&job) {
                    if let Some(n) = self.cluster.node_mut(&f.node) {
                        n.abort_job(at, job);
                    }
                    self.note(
                        at,
                        EventKind::TaskMigrate {
                            instance: f.instance,
                            path: f.path.clone(),
                            node: f.node.clone(),
                        },
                    );
                    self.system_failure(
                        f.instance,
                        &f.path,
                        Some(&f.node),
                        SystemCause::Environment,
                        "migrated off starved node",
                    )?;
                    self.resync_node(&f.node);
                }
            }
        }
        self.ensure_heartbeat();
        Ok(())
    }

    fn ensure_heartbeat(&mut self) {
        // Re-arm only while something can still change: pending events
        // (trace, job completions), queued or in-flight work.  When the
        // world is truly quiescent the run loop's unstall logic takes
        // over; an unconditional re-arm would tick forever on a stuck
        // instance.  Queue entries whose instance is operator-suspended
        // are not runnable work — counting them would tick forever on a
        // suspended instance (pump defers them back every iteration).
        let runnable_queued = self.ready_queue.iter().any(|entry| {
            self.instances
                .get(&entry.id)
                .map(|m| m.header.status == InstanceStatus::Running)
                .unwrap_or(false)
        });
        // In-flight jobs whose node is partitioned cannot deliver; once
        // their results are PEC-buffered nothing changes until the link
        // heals, so they alone must not keep the heartbeat alive (the
        // run loop's unstall logic repairs the partition instead).
        let deliverable_in_flight = self.in_flight.values().any(|f| {
            self.cluster
                .node(&f.node)
                .map(|n| n.is_reachable())
                .unwrap_or(true)
        });
        let work_remains = !self.all_terminal()
            && (self.kernel.pending() > 0 || deliverable_in_flight || runnable_queued);
        if work_remains && !self.heartbeat_scheduled {
            self.kernel
                .schedule_after(self.cfg.heartbeat, EngineEvent::Heartbeat);
            self.heartbeat_scheduled = true;
        }
    }

    // ------------------------------------------------------------------
    // Server crash / recovery
    // ------------------------------------------------------------------

    fn on_server_crash(&mut self) -> EngineResult<()> {
        if !self.server_up {
            return Ok(());
        }
        let now = self.kernel.now();
        self.server_up = false;
        // "When the BioOpera server fails, ongoing processes are stopped."
        let jobs: Vec<(JobId, String)> = self
            .in_flight
            .iter()
            .map(|(j, f)| (*j, f.node.clone()))
            .collect();
        for (job, node) in jobs {
            if let Some(n) = self.cluster.node_mut(&node) {
                n.abort_job(now, job);
            }
        }
        // All volatile server memory is gone — what this step noted and
        // marked too: its commit finds the server down and drops it.
        self.instances.clear();
        self.templates.clear();
        self.in_flight.clear();
        self.ready_queue.clear();
        self.written = Dirty::default();
        self.pec_buffer.clear();
        self.node_health.clear();
        self.journal.poison();
        self.resync_all_nodes();
        if let Some(delay) = self.cfg.backup_failover {
            self.kernel
                .schedule_after(delay, EngineEvent::BackupFailover);
        }
        self.log("server crash: volatile state lost; jobs stopped".into());
        Ok(())
    }

    fn on_server_recover(&mut self) -> EngineResult<()> {
        if self.server_up {
            return Ok(());
        }
        (self.journal, self.round, self.recovery) =
            Journal::open(open_store(&self.disk, &self.cfg)?)?;
        self.server_up = true;
        let requeued = self.rebuild_from_store()?;
        self.note(self.kernel.now(), EventKind::ServerRecover { requeued });
        self.log("server recovered: instances rebuilt from the instance space".into());
        self.ensure_heartbeat();
        Ok(())
    }

    /// Rebuild all volatile state from the persistent spaces (cold start
    /// and post-crash recovery use the same path).  Returns how many
    /// dispatched/ready tasks were pulled back into the activity queue.
    fn rebuild_from_store(&mut self) -> EngineResult<u64> {
        self.instances.clear();
        self.ready_queue.clear();
        self.written = Dirty::default();
        self.in_flight.clear();
        // Node health records are authoritative in the configuration
        // space; reload them and re-derive the quarantine-expiry timers
        // that died with the server's kernel state.
        self.node_health.clear();
        for (key, bytes) in self
            .journal
            .store()
            .scan_prefix(Space::Configuration, dependability::HEALTH_PREFIX)?
        {
            let Some(name) = key.strip_prefix(dependability::HEALTH_PREFIX) else {
                continue;
            };
            let health: NodeHealth = serde_json::from_slice(&bytes)
                .map_err(|e| EngineError::Internal(format!("corrupt node health {key}: {e}")))?;
            self.node_health.insert(name.to_string(), health);
        }
        let now = self.kernel.now();
        let interval = self.cfg.dependability.quarantine_interval;
        let expirations: Vec<(String, SimTime, u64)> = self
            .node_health
            .iter()
            .filter(|(_, h)| h.is_quarantined())
            .map(|(n, h)| {
                let started = h.quarantined_at.unwrap_or(now);
                (n.clone(), started + interval, h.epoch)
            })
            .collect();
        for (name, expire_at, epoch) in expirations {
            if expire_at > now {
                self.kernel.schedule_at(
                    expire_at,
                    EngineEvent::QuarantineExpire { node: name, epoch },
                );
            } else {
                // The interval elapsed while the server was down.
                self.on_quarantine_expire(now, &name, epoch)?;
            }
        }
        let (store, known) = (self.journal.store(), &mut self.templates);
        let mut journal =
            instance::JournalReader::new(None, |name| Self::resolve_template(store, known, name));
        store.visit_prefix(Space::Instance, "inst/", |key, bytes| {
            journal.read(key, bytes)
        })?;
        (self.instances, _) = journal.finish();
        self.recovery.instances = self.instances.len() as u64;
        self.next_instance_id = self.instances.last_key_value().map_or(1, |(id, _)| id + 1);
        // In-flight work was lost with the server.  The shared in-doubt
        // rule puts every queued or dispatched record back to `Ready` —
        // including a subprocess task whose child never reached the store,
        // which the pump re-spawns under a fresh id — and leaves the
        // containers something still drives: parallel parents (their
        // child records) and subprocess tasks with a child instance.
        // Every resolved record is queued again; only the ones the rule
        // changed are written back, the rest already equal their stored
        // copies.
        let children = instance::child_links(self.instances.values());
        let mut requeue: Vec<(InstanceId, instance::Resolved)> = Vec::new();
        for (id, inst) in &mut self.instances {
            let resolved = inst.resolve_in_doubt(now, &children);
            resolved.iter().for_each(|r| self.recovery.found(r.verdict));
            requeue.extend(resolved.into_iter().map(|r| (*id, r)));
        }
        let requeued = requeue.len() as u64;
        for (id, instance::Resolved { path, changed, .. }) in requeue {
            // Reconstruct the pending backoff timer: the RetryAt event
            // died with the kernel consumer, but the deadline survived in
            // the record.  A deadline already in the past needs no event —
            // the pump dispatches it immediately.
            let retry_at = self.task_record(id, &path).and_then(TaskRecord::retry_at);
            if let Some(t) = retry_at.filter(|t| *t > now) {
                self.kernel.schedule_at(
                    t,
                    EngineEvent::RetryAt {
                        instance: id,
                        path: path.clone(),
                    },
                );
            }
            if changed {
                self.recovery.rewritten += 1;
                self.dirty.task(id, &path);
            }
            self.ready_queue.push_back(Queued::new(id, path));
        }
        // Reconcile the rare crash window between "child instance became
        // terminal" and "parent task concluded": deliver those completions
        // now so the parent is not stuck in Dispatched forever.
        let pending_children: Vec<(InstanceId, Input)> = self
            .instances
            .iter()
            .filter_map(|(cid, cm)| {
                let (pid, ptask) = cm.header.parent.clone()?;
                if !cm.header.status.is_terminal() {
                    return None;
                }
                let parent = self.instances.get(&pid)?;
                let rec = parent.tasks.get(&ptask)?;
                (rec.state == TaskState::Dispatched).then(|| {
                    let concluded = (cm.header.status == InstanceStatus::Completed)
                        .then(|| (cm.header.whiteboard.clone(), cm.child_cpu_ms()));
                    let input = Input::ChildDone {
                        path: ptask,
                        child: *cid,
                        concluded,
                    };
                    (pid, input)
                })
            })
            .collect();
        for (pid, input) in pending_children {
            self.child_done(pid, input)?;
        }
        Ok(requeued)
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    /// Try to dispatch everything in the ready queue.  An entry whose
    /// last activation found no eligible node is kept where it is, not
    /// activated again, while neither its own record nor its instance's
    /// header has been written since — all its activation reads — and
    /// the view still projects to what it was deferred under
    /// ([`Projection`]): its activation would ask for a node the same way
    /// and the eligibility filter would answer no again, without asking
    /// the policy.  A policy's refusal is never kept: policies may be
    /// stateful, and the sequence of `choose` calls they see is part of
    /// the contract.
    fn pump(&mut self) -> EngineResult<()> {
        if !self.server_up
            || self.operator_suspended
            || self.cluster.network() == NetworkState::Down
        {
            return Ok(());
        }
        let now = self.kernel.now();
        self.pump_counts.pumps += 1;
        let written = std::mem::take(&mut self.written);
        // Built on the first entry that needs it; nothing a pump does
        // changes the cluster, so grants are the only thing that can move
        // the view.
        let mut view: Option<PumpView> = None;
        let mut deferred = std::mem::take(&mut self.deferred);
        while let Some(entry) = self.ready_queue.pop_front() {
            if let Some(under) = &entry.unplaceable {
                let view = view.get_or_insert_with(|| {
                    PumpView::new(&self.cluster, &self.in_flight, &self.node_health)
                });
                if !written.touches(entry.id, &entry.path) && view.projects_to(under) {
                    self.pump_counts.held += 1;
                    deferred.push_back(entry);
                    continue;
                }
            }
            let Queued { id, path, .. } = entry;
            let Some(inst) = self.instances.get_mut(&id) else {
                continue;
            };
            self.pump_counts.activated += 1;
            match inst.activate(&path, now, &mut self.dirty)? {
                // A parked instance's, or one backing off: its resume or its
                // RetryAt event wakes us.
                Activation::Park => deferred.push_back(Queued::new(id, path)),
                Activation::Skip => {} // stale queue entry
                Activation::Stale(why) => self.note_stale(id, Some(&path), why),
                Activation::Request(binding) => {
                    let program = self
                        .library
                        .get(&binding.program)
                        .ok_or_else(|| EngineError::UnknownProgram(binding.program.clone()))?;
                    let view = view.get_or_insert_with(|| {
                        PumpView::new(&self.cluster, &self.in_flight, &self.node_health)
                    });
                    let policy = self.cfg.policy.as_mut();
                    let node = match dispatcher::place(policy, &view.nodes, binding) {
                        Placement::Node(node) => node,
                        Placement::Deferred => {
                            deferred.push_back(Queued::new(id, path));
                            continue;
                        }
                        Placement::NoEligibleNode => {
                            deferred.push_back(Queued {
                                id,
                                path,
                                unplaceable: Some(view.projection()),
                            });
                            continue;
                        }
                    };
                    let node_name = view.nodes[node].name.clone();
                    if self.start_activity(id, &path, &*program, node_name)? {
                        view.grant(node);
                    }
                }
                Activation::Spawn { template, initial } => {
                    self.dirty.task(id, &path);
                    // Late binding: the template is resolved from the
                    // template space *now*, not when the parent was defined.
                    let parent = Some((id, path.clone()));
                    let child = self.instantiate(&template, initial, parent)?;
                    self.note(
                        now,
                        EventKind::SubprocessStart {
                            instance: id,
                            path,
                            child,
                            template,
                        },
                    );
                }
                Activation::Expand { children, reaction } => {
                    self.ready_queue
                        .extend(children.into_iter().map(|child| Queued::new(id, child)));
                    self.route(id, reaction)?;
                }
            }
        }
        self.deferred = std::mem::replace(&mut self.ready_queue, deferred);
        Ok(())
    }

    /// Hand the `Ready` activity at `(id, path)` to `node_name`: bind its
    /// inputs, run the (deterministic) program now — the node will
    /// "execute" for the program's declared cost in virtual time — and put
    /// the job in flight.  `false` means the queue entry turned out stale
    /// and was dropped without a grant.
    fn start_activity(
        &mut self,
        id: InstanceId,
        path: &str,
        program: &Program,
        node_name: String,
    ) -> EngineResult<bool> {
        let now = self.kernel.now();
        let Some(inputs) = self
            .instances
            .get(&id)
            .and_then(|inst| inst.bind_inputs(path))
        else {
            self.note_stale(id, Some(path), "dispatch");
            return Ok(false);
        };
        let result = program(&inputs);
        let job = self.next_job_id;
        self.next_job_id += 1;
        let queue_ms = {
            let Some(rec) = self
                .instances
                .get_mut(&id)
                .and_then(|m| m.tasks.get_mut(path))
            else {
                self.note_stale(id, Some(path), "dispatch");
                return Ok(false);
            };
            rec.state = TaskState::Dispatched;
            rec.node = Some(node_name.clone());
            rec.started_at = Some(now);
            rec.inputs = inputs.into();
            // The backoff deadline is spent; budget counters and the
            // poison set live on until a completion is delivered.
            if let Some(r) = rec.retry.as_mut() {
                r.retry_at = None;
            }
            // Queue-wait runs from the *persisted* enqueue time, so a
            // wait spanning a server outage is reported in full.
            rec.ready_at
                .take()
                .map(|since| now.saturating_sub(since).as_millis())
                .unwrap_or(0)
        };
        self.dirty.task(id, path);
        self.note(
            now,
            EventKind::TaskStart {
                instance: id,
                path: path.to_string(),
                node: node_name.clone(),
                job,
                queue_ms,
            },
        );
        self.in_flight.insert(
            job,
            InFlight {
                instance: id,
                path: path.to_string(),
                node: node_name.clone(),
                result,
                silent: false,
                starved_beats: 0,
            },
        );
        self.kernel.schedule_after(
            self.cfg.dispatch_latency,
            EngineEvent::JobStart {
                node: node_name,
                job,
            },
        );
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Outcome / persistence plumbing
    // ------------------------------------------------------------------

    /// Carry out `reaction` for instance `id`, in order: note its events,
    /// queue its ready tasks (each stamped on its record with the time it
    /// queued, so queue-wait metrics survive a server crash), run its
    /// compensations (control actions, zero-cost), and conclude a finished
    /// child's task in its parent.
    fn route(&mut self, id: InstanceId, reaction: Reaction) -> EngineResult<()> {
        let now = self.kernel.now();
        for effect in reaction {
            match effect {
                Effect::Note(kind) => self.note(now, kind),
                Effect::Ready(path) => self.ready_queue.push_back(Queued::new(id, path)),
                Effect::Compensate {
                    program, inputs, ..
                } => {
                    if let Some(prog) = self.library.get(&program) {
                        let _ = prog(&inputs);
                    }
                }
                Effect::Conclude {
                    parent,
                    task,
                    success,
                    outputs,
                    cpu_ms,
                } => {
                    let input = Input::ChildDone {
                        path: task,
                        child: id,
                        concluded: success.then_some((outputs, cpu_ms)),
                    };
                    self.child_done(parent, input)?;
                }
            }
        }
        Ok(())
    }

    /// Deliver a child instance's end (`input`, an [`Input::ChildDone`])
    /// to instance `parent`.
    fn child_done(&mut self, parent: InstanceId, input: Input) -> EngineResult<()> {
        let now = self.kernel.now();
        let Some(inst) = self.instances.get_mut(&parent) else {
            self.note_stale(parent, None, "child completion: unknown instance");
            return Ok(());
        };
        let reaction = inst.react(input, now, &mut self.dirty)?;
        self.route(parent, reaction)
    }

    /// Handle a system failure of `(id, path)` hosted on `node` (if
    /// known).  The dependability policy decides between the paper's
    /// masked requeue (now with a backoff deadline) and poison/budget
    /// escalation to program-failure semantics; node-attributable causes
    /// additionally feed the node's health score.
    fn system_failure(
        &mut self,
        id: InstanceId,
        path: &str,
        node: Option<&str>,
        cause: SystemCause,
        why: &str,
    ) -> EngineResult<()> {
        let now = self.kernel.now();
        let Some(inst) = self
            .instances
            .get_mut(&id)
            .filter(|inst| inst.tasks.contains_key(path))
        else {
            // The failure outlived its instance (aborted between the fault
            // and its delivery): record it and move on.
            self.note_stale(id, Some(path), why);
            return Ok(());
        };
        let decision = match inst.tasks.get_mut(path) {
            Some(rec) if self.cfg.dependability.enabled => {
                let retry = rec.retry_mut();
                retry.sys_failures += 1;
                if cause == SystemCause::NodeFault {
                    if let Some(n) = node {
                        retry.note_failed_node(n);
                    }
                }
                self.cfg.dependability.decide(id, path, retry, cause)
            }
            _ => RetryDecision::Requeue {
                delay: SimTime::ZERO,
            },
        };
        let reaction = match decision {
            RetryDecision::Requeue { delay } => {
                let input = Input::TaskFailed {
                    path: path.to_string(),
                    kind: FailureKind::System,
                };
                let reaction = inst.react(input, now, &mut self.dirty)?;
                // `self.note`, but `inst` still borrows `self.instances`.
                self.unsaved.push(HistoryEvent {
                    at: now,
                    kind: EventKind::TaskSystemFail {
                        instance: id,
                        path: path.to_string(),
                        reason: why.to_string(),
                    },
                });
                if let Some(rec) = inst.tasks.get_mut(path).filter(|_| delay > SimTime::ZERO) {
                    let retry_at = now + delay;
                    let retry = rec.retry_mut();
                    retry.retry_at = Some(retry_at);
                    self.kernel.schedule_at(
                        retry_at,
                        EngineEvent::RetryAt {
                            instance: id,
                            path: path.to_string(),
                        },
                    );
                    self.unsaved.push(HistoryEvent {
                        at: now,
                        kind: EventKind::TaskBackoff {
                            instance: id,
                            path: path.to_string(),
                            attempt: retry.sys_failures,
                            delay_ms: delay.as_millis(),
                        },
                    });
                }
                reaction
            }
            RetryDecision::Escalate { reason } => {
                // Stop masking: the failure becomes visible through the
                // task's ordinary retry/failure-policy machinery.
                if let Some(r) = inst.tasks.get_mut(path).and_then(|rec| rec.retry.as_mut()) {
                    r.retry_at = None;
                }
                let input = Input::TaskFailed {
                    path: path.to_string(),
                    kind: FailureKind::Program,
                };
                let reaction = inst.react(input, now, &mut self.dirty)?;
                self.note(
                    now,
                    EventKind::TaskPoisoned {
                        instance: id,
                        path: path.to_string(),
                        reason: reason.clone(),
                    },
                );
                self.log(format!("instance {id}: task {path} escalated ({reason})"));
                reaction
            }
        };
        self.route(id, reaction)?;
        if self.cfg.dependability.enabled && cause == SystemCause::NodeFault {
            if let Some(name) = node {
                self.note_node_failure(name, now)?;
            }
        }
        Ok(())
    }

    /// Charge one node-attributable failure to `name`'s health score,
    /// quarantining it at the configured threshold.
    fn note_node_failure(&mut self, name: &str, now: SimTime) -> EngineResult<()> {
        let threshold = self.cfg.dependability.quarantine_threshold;
        let interval = self.cfg.dependability.quarantine_interval;
        let health = self.node_health.entry(name.to_string()).or_default();
        let quarantined = health.on_job_failed(now, threshold);
        let (failures, epoch) = (health.consecutive_failures, health.epoch);
        if quarantined {
            self.note(
                now,
                EventKind::NodeQuarantine {
                    node: name.to_string(),
                    failures,
                },
            );
            self.kernel.schedule_at(
                now + interval,
                EngineEvent::QuarantineExpire {
                    node: name.to_string(),
                    epoch,
                },
            );
            self.log(format!(
                "node {name} quarantined after {failures} consecutive failures"
            ));
        }
        self.dirty_health.insert(name.to_string());
        Ok(())
    }

    /// A node delivered a completed job: end its failure streak.
    fn note_node_success(&mut self, name: &str) -> EngineResult<()> {
        if !self.cfg.dependability.enabled {
            return Ok(());
        }
        let Some(health) = self.node_health.get_mut(name) else {
            return Ok(());
        };
        let before = health.clone();
        health.on_job_succeeded();
        if *health != before {
            self.dirty_health.insert(name.to_string());
        }
        Ok(())
    }

    /// The dependability health score of a node, if it has one.
    pub fn node_health(&self, name: &str) -> Option<&NodeHealth> {
        self.node_health.get(name)
    }

    fn fail_jobs(&mut self, killed: &[JobId], why: &str) -> EngineResult<()> {
        for job in killed {
            if let Some(f) = self.in_flight.remove(job) {
                // A crash kills the whole node, not one job — an
                // environment fault, so the node's health streak and the
                // tasks' poison sets are not charged.
                self.system_failure(
                    f.instance,
                    &f.path,
                    Some(&f.node),
                    SystemCause::Environment,
                    why,
                )?;
            }
        }
        self.resync_all_nodes();
        Ok(())
    }

    fn log(&mut self, msg: String) {
        self.event_log.push((self.kernel.now(), msg));
    }

    /// An event referenced an instance or task record the engine no
    /// longer (or never) knew — a completion outliving an abort, a
    /// foreign journal record, a cross-shard race.  The paper's stance
    /// is that the server must survive its own history: record the
    /// anomaly in the awareness space and drop the event instead of
    /// panicking.
    fn note_stale(&mut self, instance: InstanceId, path: Option<&str>, context: &str) {
        self.note(
            self.kernel.now(),
            EventKind::StaleEvent {
                instance,
                path: path.map(str::to_string),
                context: context.to_string(),
            },
        );
    }

    /// A bounded breakdown of what is stuck, appended to the deadlock
    /// diagnostic — rendered by the shared [`crate::diagnostics::survey`]
    /// so "suspended (resumable)" vs "stuck" reads identically on the
    /// serial and shard paths.
    fn deadlock_detail(&self) -> String {
        crate::diagnostics::survey(
            self.instances
                .iter()
                .map(|(id, mem)| (*id, mem.header.status, &mem.tasks)),
        )
        .1
    }

    fn all_terminal(&self) -> bool {
        self.instances
            .values()
            .all(|m| m.header.status.is_terminal())
            || self.instances.is_empty()
    }

    /// Operator-restart every running instance that holds a `Dispatched`
    /// activity although nothing is in flight or queued — the signature
    /// of TEUs that finished but never reported.  Containers do not
    /// count: something else drives them.  `true` if any was restarted.
    fn restart_stuck_instances(&mut self) -> EngineResult<bool> {
        let stuck: Vec<InstanceId> = self
            .instances
            .iter()
            .filter(|(_, m)| {
                m.header.status == InstanceStatus::Running
                    && m.tasks
                        .values()
                        .any(|r| r.state == TaskState::Dispatched && !m.role(r).is_container())
            })
            .map(|(id, _)| *id)
            .collect();
        for id in &stuck {
            self.requeue_in_flight(*id)?;
        }
        self.auto_restarts += u32::from(!stuck.is_empty());
        Ok(!stuck.is_empty())
    }

    /// Handle stalls: silent TEUs (paper event 10) trigger the operator
    /// restart the paper describes; anything else is a real deadlock.
    fn try_unstall(&mut self) -> EngineResult<bool> {
        if !self.server_up {
            // Trace ended with the server down: bring it back (an operator
            // would).
            self.on_server_recover()?;
            self.log("operator restarted the BioOpera server".into());
            return Ok(true);
        }
        if self.operator_suspended {
            self.operator_suspended = false;
            self.log("operator resumed the suspended computation".into());
            let ids: Vec<InstanceId> = self.instances.keys().copied().collect();
            for id in ids {
                if self.instance_status(id) == Some(InstanceStatus::Suspended) {
                    self.resume_instance(id)?;
                }
            }
            return Ok(true);
        }
        // Quiescent but incomplete: instances stuck on dispatched tasks
        // whose results will never arrive (non-reporting TEUs) get the
        // operator-restart treatment.
        if self.in_flight.is_empty()
            && self.ready_queue.is_empty()
            && self.restart_stuck_instances()?
        {
            return Ok(true);
        }
        // Tasks parked on backoff deadlines whose RetryAt timer was lost
        // (it fired while the server was down, say): re-arm the earliest
        // so time can advance to it.
        let next_retry = self
            .ready_queue
            .iter()
            .filter_map(|Queued { id, path, .. }| {
                let rec = self.instances.get(id)?.tasks.get(path)?;
                if rec.state != TaskState::Ready {
                    return None;
                }
                rec.retry_at()
                    .filter(|t| *t > self.kernel.now())
                    .map(|t| (t, *id, path.clone()))
            })
            .min();
        if let Some((t, id, path)) = next_retry {
            self.kernel
                .schedule_at(t, EngineEvent::RetryAt { instance: id, path });
            return Ok(true);
        }
        // A partition that the trace never healed: the buffered results
        // are the only way forward, so the operator repairs the links.
        let partitioned: Vec<String> = self
            .cluster
            .nodes()
            .iter()
            .filter(|n| !n.is_reachable())
            .map(|n| n.spec.name.clone())
            .collect();
        if !partitioned.is_empty() {
            let now = self.kernel.now();
            for name in partitioned {
                if let Some(n) = self.cluster.node_mut(&name) {
                    n.set_reachable(true);
                }
                self.note(now, EventKind::NodeRejoin { node: name });
            }
            let buffered = std::mem::take(&mut self.pec_buffer);
            for (node, job, cpu_ms) in buffered {
                self.deliver_completion(now, &node, job, cpu_ms)?;
            }
            self.log("operator repaired the partitioned links".into());
            self.resync_all_nodes();
            return Ok(true);
        }
        // Ready work that could not be placed (all nodes down at the end of
        // a trace, say) resolves itself only if nodes return; if the queue
        // has entries but no event is pending, nothing will ever change.
        Ok(false)
    }

    // ---- node completion-event plumbing ----

    fn resync_node(&mut self, name: &str) {
        let Some(node) = self.cluster.node(name) else {
            return;
        };
        if let Some((at, _)) = node.next_completion(self.kernel.now()) {
            self.kernel.schedule_at(
                at,
                EngineEvent::JobDone {
                    node: name.to_string(),
                    generation: node.generation,
                },
            );
        }
    }

    fn resync_all_nodes(&mut self) {
        let names: Vec<String> = self
            .cluster
            .nodes()
            .iter()
            .map(|n| n.spec.name.clone())
            .collect();
        for n in names {
            self.resync_node(&n);
        }
    }
}

/// An activity queue entry: the task at `path` of instance `id`.
struct Queued {
    id: InstanceId,
    path: String,
    /// The projection under which the entry's last activation found no
    /// eligible node, if it found none.
    unplaceable: Option<Arc<Projection>>,
}

impl Queued {
    /// An entry the next pump activates.
    fn new(id: InstanceId, path: String) -> Self {
        Queued {
            id,
            path,
            unplaceable: None,
        }
    }
}

/// What [`dispatcher::place`]'s eligibility filter reads of each node
/// view, in cluster order: `up` (finite readings included),
/// `quarantined`, whether a slot is free, `os` and `name`.  Under equal
/// projections every placement constraint has the same eligible nodes.
#[derive(Debug)]
struct Projection {
    flags: Vec<[bool; 3]>,
    names: Vec<(String, String)>,
}

impl Projection {
    /// What moves of a node's eligibility: up, quarantined, a free slot.
    fn node_flags(n: &NodeView) -> [bool; 3] {
        [n.up, n.quarantined, n.free_slots() > 0]
    }

    fn of(nodes: &[NodeView]) -> Self {
        Projection {
            flags: nodes.iter().map(Self::node_flags).collect(),
            names: nodes
                .iter()
                .map(|n| (n.name.clone(), n.os.clone()))
                .collect(),
        }
    }

    /// Is this the projection of `nodes`?  The flags, which move, are
    /// compared first.
    fn matches(&self, nodes: &[NodeView]) -> bool {
        self.flags.len() == nodes.len()
            && self
                .flags
                .iter()
                .zip(nodes)
                .all(|(f, n)| *f == Self::node_flags(n))
            && self
                .names
                .iter()
                .zip(nodes)
                .all(|((name, os), n)| *name == n.name && *os == n.os)
    }
}

/// One pump's node views: built once, kept current by bumping the chosen
/// node's `running_jobs` after each grant.
struct PumpView {
    nodes: Vec<NodeView>,
    /// The projection of `nodes`, shared with the entries deferred under
    /// it; `None` until asked for, and again once a grant takes a node's
    /// last free slot.
    projection: Option<Arc<Projection>>,
}

impl PumpView {
    /// The dispatcher's picture of `cluster`, with the committed
    /// (in-transit) jobs of `in_flight` accounted and the nodes `health`
    /// quarantines marked.
    fn new(
        cluster: &Cluster,
        in_flight: &BTreeMap<JobId, InFlight>,
        health: &BTreeMap<String, NodeHealth>,
    ) -> Self {
        let mut committed: BTreeMap<&str, u32> = BTreeMap::new();
        for f in in_flight.values() {
            *committed.entry(f.node.as_str()).or_default() += 1;
        }
        let nodes = cluster
            .nodes()
            .iter()
            .map(|n| {
                let quarantined = health
                    .get(&n.spec.name)
                    .map(|h| h.is_quarantined())
                    .unwrap_or(false);
                NodeView::new(
                    n.spec.name.clone(),
                    n.spec.os.clone(),
                    n.spec.speed(),
                    n.cpus_online(),
                    committed.get(n.spec.name.as_str()).copied().unwrap_or(0),
                    n.load_fraction(),
                    // A partitioned node is indistinguishable from a down
                    // one for dispatch purposes.
                    n.is_up() && n.is_reachable(),
                    quarantined,
                )
            })
            .collect();
        PumpView {
            nodes,
            projection: None,
        }
    }

    /// Account a job granted to node `i`.
    fn grant(&mut self, i: usize) {
        self.nodes[i].running_jobs += 1;
        if self.nodes[i].free_slots() == 0 {
            self.projection = None;
        }
    }

    /// The projection of the current nodes.
    fn projection(&mut self) -> Arc<Projection> {
        let nodes = &self.nodes;
        Arc::clone(
            self.projection
                .get_or_insert_with(|| Arc::new(Projection::of(nodes))),
        )
    }

    /// Do the current nodes project to `under`?  A match found by value
    /// becomes the view's projection, so the entries deferred under the
    /// same one match by pointer.
    fn projects_to(&mut self, under: &Arc<Projection>) -> bool {
        if self
            .projection
            .as_ref()
            .is_some_and(|p| Arc::ptr_eq(p, under))
        {
            return true;
        }
        if under.matches(&self.nodes) {
            self.projection = Some(Arc::clone(under));
            return true;
        }
        false
    }
}
