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
//! Everything the navigator decides is persisted in one atomic store batch
//! *before* the runtime acts on it; the recovery property tests crash the
//! runtime at arbitrary points and verify the resumed run completes with
//! identical results.

use crate::awareness::{Awareness, EventKind};
use crate::dependability::{self, DependabilityConfig, NodeHealth, RetryDecision, SystemCause};
use crate::dispatcher::{self, NodeView, Placement, SchedulingPolicy};
use crate::error::{EngineError, EngineResult};
use crate::instance::{self, Instance, Role};
use crate::library::{ActivityLibrary, Program, ProgramOutput};
use crate::metrics::{RunReport, SeriesRollup};
use crate::navigator::{self, FailureKind, NavOutcome};
use crate::state::{
    keys, InstanceHeader, InstanceId, InstanceStatus, RunOutcome, TaskMap, TaskRecord, TaskState,
};
use bioopera_cluster::trace::{Trace, TraceEvent, TraceEventKind};
use bioopera_cluster::{Cluster, JobId, JobOutcome, NetworkState, SimKernel, SimTime};
use bioopera_ocr::model::ProcessTemplate;
use bioopera_ocr::value::Value;
use bioopera_ocr::ExternalBinding;
use bioopera_store::{Batch, CompactionPolicy, Disk, Space, Store, StoreStats};
use std::collections::{BTreeMap, VecDeque};
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
    /// Compact the store when the WAL exceeds this many bytes.
    pub compact_wal_bytes: u64,
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
            dependability: DependabilityConfig::default(),
        }
    }
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
    store: Store<D>,
    kernel: SimKernel<EngineEvent>,
    cluster: Cluster,
    library: ActivityLibrary,
    awareness: Awareness,
    cfg: RuntimeConfig,

    // ---- volatile server memory (lost on server crash) ----
    instances: BTreeMap<InstanceId, Instance>,
    /// Templates resolved so far, by name: filled by `register_template`
    /// and lazily from the template space.
    templates: BTreeMap<String, Arc<ProcessTemplate>>,
    /// The buffer every journal record is encoded through.
    scratch: String,
    in_flight: BTreeMap<JobId, InFlight>,
    ready_queue: VecDeque<(InstanceId, String)>,
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

    // ---- store awareness ----
    /// Tier counters at the last store-event emission; diffed at each
    /// step boundary to turn spills and merges into `store.*` events.
    tier_stats: Option<StoreStats>,
    /// Retire raw `ev/` history records once the durable awareness
    /// rollup covers them (windowed retention; opt-in).
    history_retention: bool,
    /// `rollup_base` the last retention advance was issued for.
    retained_rollup_base: u64,
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
        let store = Store::open(disk.clone())?;
        store.set_compaction_policy(Some(CompactionPolicy {
            wal_bytes_threshold: cfg.compact_wal_bytes,
            min_wal_batches: 1,
        }));
        let awareness = Awareness::open_tail(&store)?;
        // Record the hardware configuration (§3.2: configuration space).
        for node in cluster.nodes() {
            store.put(
                Space::Configuration,
                keys::node(&node.spec.name),
                serde_json::to_vec(&node.spec).map_err(bioopera_store::StoreError::from)?,
            )?;
        }
        let mut rt = Runtime {
            disk,
            store,
            kernel: SimKernel::new(),
            cluster,
            library,
            awareness,
            cfg,
            instances: BTreeMap::new(),
            templates: BTreeMap::new(),
            scratch: String::new(),
            in_flight: BTreeMap::new(),
            ready_queue: VecDeque::new(),
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
            tier_stats: None,
            history_retention: false,
            retained_rollup_base: 0,
        };
        rt.rebuild_from_store()?;
        Ok(rt)
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Validate a template and admit it to the template space.
    pub fn register_template(&mut self, t: &ProcessTemplate) -> EngineResult<()> {
        bioopera_ocr::validate(t)?;
        self.store.put(
            Space::Template,
            keys::template(&t.name),
            serde_json::to_vec(t).map_err(bioopera_store::StoreError::from)?,
        )?;
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
        self.flush_awareness()?;
        Ok(id)
    }

    fn instantiate(
        &mut self,
        template_name: &str,
        initial: BTreeMap<String, Value>,
        parent: Option<(InstanceId, String)>,
    ) -> EngineResult<InstanceId> {
        let template = Self::resolve_template(&self.store, &mut self.templates, template_name)?;
        let id = self.next_instance_id;
        self.next_instance_id += 1;
        let (inst, outcome) = Instance::create(template, id, parent, self.kernel.now(), &initial)?;
        self.instances.insert(id, inst);
        self.persist_full_instance(id)?;
        self.awareness.record(
            self.kernel.now(),
            EventKind::InstanceStart {
                instance: id,
                template: template_name.to_string(),
            },
        );
        self.apply_outcome(id, outcome)?;
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

    /// Drive the simulation until every instance is terminal or the only
    /// non-terminal instances are operator-suspended.
    ///
    /// Suspension is a steering state, not a failure: the run quiesces
    /// with [`RunOutcome::Quiesced`] instead of wedging, and a `resume`
    /// followed by another `run_to_completion` picks the work back up.
    pub fn run_to_completion(&mut self) -> EngineResult<RunOutcome> {
        while self.step()? {}
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

    /// One scheduler iteration: dispatch, then process the next event.
    /// Returns `Ok(false)` once every instance is terminal.
    ///
    /// All awareness events the iteration produced are flushed as one
    /// atomic store batch at the end of the step.
    pub fn step(&mut self) -> EngineResult<bool> {
        let more = self.step_inner()?;
        self.flush_awareness()?;
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

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Status of an instance.
    pub fn instance_status(&self, id: InstanceId) -> Option<InstanceStatus> {
        self.instances.get(&id).map(|m| m.header.status)
    }

    /// Header record of an instance, as the server holds it in memory.
    pub fn instance_header(&self, id: InstanceId) -> Option<&InstanceHeader> {
        self.instances.get(&id).map(|m| &m.header)
    }

    /// Whiteboard of an instance.
    pub fn whiteboard(&self, id: InstanceId) -> Option<&BTreeMap<String, Value>> {
        self.instances.get(&id).map(|m| &m.header.whiteboard)
    }

    /// A task record.
    pub fn task_record(&self, id: InstanceId, path: &str) -> Option<&TaskRecord> {
        self.instances.get(&id)?.tasks.get(path).map(|rec| &**rec)
    }

    /// All task records of an instance.
    pub fn task_records(&self, id: InstanceId) -> Option<&TaskMap> {
        self.instances.get(&id).map(|m| &m.tasks)
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
        &self.store
    }

    /// The cluster (for planner queries).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The awareness model.
    pub fn awareness(&self) -> &Awareness {
        &self.awareness
    }

    /// Flush buffered awareness events (one batch).  No-op while the
    /// server is down — the store is poisoned and the pending tail is
    /// discarded by the crash path.  Tier activity since the previous
    /// flush is recorded as `store.*` events riding the same batch, and
    /// (when enabled) raw history below the durable rollup is retired.
    fn flush_awareness(&mut self) -> EngineResult<()> {
        if self.server_up {
            self.record_store_events();
            self.awareness.flush(&self.store)?;
            self.maybe_retain_history()?;
        }
        Ok(())
    }

    /// Turn the store's tier counters into awareness events: one
    /// `store.spill` and/or `store.compaction` per step boundary where
    /// the counters moved, carrying the deltas (and sampling the
    /// cumulative read-side counters so the index can report cache and
    /// bloom health).
    fn record_store_events(&mut self) {
        let stats = self.store.stats();
        let prev = self.tier_stats.replace(stats);
        let (prev_spills, prev_merges) = prev.map_or((0, 0), |p| (p.spills, p.run_merges));
        let now = self.kernel.now();
        if stats.spills > prev_spills {
            self.awareness.record(
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
            self.awareness.record(
                now,
                EventKind::StoreCompaction {
                    merges: stats.run_merges - prev_merges,
                    levels: stats.levels as u64,
                    max_merge_bytes: stats.max_merge_bytes,
                },
            );
        }
    }

    /// Windowed retention: once the awareness rollup durably covers a
    /// prefix of the event log, retire the raw `ev/` records below it.
    /// The rollup already answers every aggregate query over that
    /// prefix, and [`Awareness::open_tail`] never scans below its base,
    /// so no recovery path needs the retired records.  Off by default;
    /// enabled via [`set_history_retention`](Runtime::set_history_retention).
    fn maybe_retain_history(&mut self) -> EngineResult<()> {
        if !self.history_retention {
            return Ok(());
        }
        let base = self.awareness.rollup_base();
        if base == 0 || base == self.retained_rollup_base {
            return Ok(());
        }
        let Some(below) = self.awareness.rolled_up_below() else {
            return Ok(());
        };
        let retired = self.store.retain_below(Space::History, "ev/", &below)?;
        self.retained_rollup_base = base;
        if retired > 0 {
            // Recorded now, durable with the next step's batch.
            self.awareness.record(
                self.kernel.now(),
                EventKind::StoreRetention { retired, below },
            );
        }
        Ok(())
    }

    /// Enable or disable windowed history retention (see
    /// [`maybe_retain_history`](Runtime::maybe_retain_history)).
    pub fn set_history_retention(&mut self, on: bool) {
        self.history_retention = on;
    }

    /// Override the awareness rollup cadence (tests and benches force
    /// tiny values so the rollup and retention paths run constantly).
    pub fn set_rollup_every(&mut self, every: u64) {
        self.awareness.set_rollup_every(every);
    }

    /// Snapshot everything this run tells the operator — per-kind event
    /// counters, task latency histograms, gauges, the series rolled up
    /// into `bin`-wide windows, and the labeled event log — as one
    /// serializable [`RunReport`].
    pub fn run_report(&self, bin: SimTime) -> RunReport {
        let idx = self.awareness.index();
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

    /// Plain-data view of (cluster, in-flight jobs, instance task state)
    /// for the engine-agnostic what-if core — see
    /// [`crate::planner::PlannerSnapshot`].
    pub fn planner_snapshot(&self) -> crate::planner::PlannerSnapshot {
        use crate::planner::{PlannerNode, PlannerSnapshot};
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

    /// Operator suspend of one instance: drain running jobs, start nothing.
    pub fn suspend(&mut self, id: InstanceId) -> EngineResult<()> {
        let mem = self
            .instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        if mem.header.status == InstanceStatus::Running {
            mem.header.status = InstanceStatus::Suspended;
            self.persist_header(id)?;
            self.awareness.record(
                self.kernel.now(),
                EventKind::InstanceSuspend { instance: id },
            );
            self.flush_awareness()?;
            self.log(format!("instance {id} suspended"));
        }
        Ok(())
    }

    /// Operator resume.
    pub fn resume(&mut self, id: InstanceId) -> EngineResult<()> {
        let now = self.kernel.now();
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        let outcome = navigator::on_resume(&mut inst.view(), now);
        self.persist_after_nav(id, &outcome)?;
        self.apply_outcome(id, outcome)?;
        self.awareness.record(
            self.kernel.now(),
            EventKind::InstanceResume { instance: id },
        );
        self.flush_awareness()?;
        self.log(format!("instance {id} resumed"));
        Ok(())
    }

    /// Operator abort.
    pub fn abort(&mut self, id: InstanceId) -> EngineResult<()> {
        let now = self.kernel.now();
        let jobs: Vec<JobId> = self
            .in_flight
            .iter()
            .filter(|(_, f)| f.instance == id)
            .map(|(j, _)| *j)
            .collect();
        for job in jobs {
            if let Some(f) = self.in_flight.remove(&job) {
                if let Some(n) = self.cluster.node_mut(&f.node) {
                    n.abort_job(now, job);
                }
            }
        }
        if let Some(mem) = self.instances.get_mut(&id) {
            mem.header.status = InstanceStatus::Aborted;
            mem.header.ended_at = Some(now);
        }
        self.persist_header(id)?;
        self.awareness
            .record(now, EventKind::InstanceAbort { instance: id });
        self.flush_awareness()?;
        self.resync_all_nodes();
        self.log(format!("instance {id} aborted by operator"));
        Ok(())
    }

    /// Operator process restart: every in-flight task of the instance is
    /// pulled back and re-queued ("the process was re-started and BioOpera
    /// immediately re-scheduled the TEUs that then completed successfully").
    pub fn restart_instance(&mut self, id: InstanceId) -> EngineResult<()> {
        let now = self.kernel.now();
        let jobs: Vec<JobId> = self
            .in_flight
            .iter()
            .filter(|(_, f)| f.instance == id)
            .map(|(j, _)| *j)
            .collect();
        for job in jobs {
            if let Some(f) = self.in_flight.remove(&job) {
                if let Some(n) = self.cluster.node_mut(&f.node) {
                    n.abort_job(now, job);
                }
            }
        }
        let mut outcome = NavOutcome::default();
        let restartable: Vec<String> = self
            .instances
            .get(&id)
            .map(|mem| {
                mem.tasks
                    .iter()
                    .filter(|(_, rec)| {
                        rec.state == TaskState::Dispatched && !mem.role(rec).is_container()
                    })
                    .map(|(path, _)| path.clone())
                    .collect()
            })
            .unwrap_or_default();
        if let Some(mem) = self.instances.get_mut(&id) {
            for path in restartable {
                if let Some(rec) = mem.tasks.get_mut(&path) {
                    rec.state = TaskState::Ready;
                    rec.node = None;
                    outcome.touched.insert(path.clone());
                    outcome.newly_ready.push(path);
                }
            }
        }
        self.awareness.record(
            now,
            EventKind::InstanceRestart {
                instance: id,
                requeued: outcome.newly_ready.len() as u64,
            },
        );
        self.persist_after_nav(id, &outcome)?;
        self.apply_outcome(id, outcome)?;
        self.flush_awareness()?;
        self.resync_all_nodes();
        self.log(format!(
            "instance {id} restarted; in-flight TEUs re-scheduled"
        ));
        Ok(())
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
        let outcome = {
            let mut view = self
                .instances
                .get_mut(&id)
                .ok_or(EngineError::UnknownInstance(id))?
                .view();
            let mut replay_order = Vec::new();
            for rec in reuse_records {
                let mut r = rec;
                // Reused work costs nothing in the new instance's books.
                r.cpu_ms = 0.0;
                replay_order.push((r.state, r.path.clone()));
                view.tasks.insert(r.path.clone(), r);
            }
            for (state, path) in replay_order {
                if state == TaskState::Ended {
                    navigator::replay_mapping(&mut view, &path);
                }
            }
            navigator::reevaluate(&mut view, self.kernel.now())?
        };
        self.persist_full_instance(id)?;
        self.awareness.record(
            self.kernel.now(),
            EventKind::InstanceRecompute {
                instance: id,
                source,
                changed: changed.iter().map(|c| c.to_string()).collect(),
            },
        );
        self.apply_outcome(id, outcome)?;
        self.flush_awareness()?;
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
                Suspend => self.suspend(id)?,
                Resume => self.resume(id)?,
                Abort => self.abort(id)?,
                SetData(field, e) => {
                    let Some(inst) = self.instances.get_mut(&id) else {
                        continue;
                    };
                    let value = navigator::eval_in_instance(&inst.view(), &e)?;
                    inst.header.whiteboard.insert(field.clone(), value);
                    self.persist_header(id)?;
                    self.log(format!("instance {id}: event {event} set {field}"));
                }
            }
        }
        self.awareness.record(
            self.kernel.now(),
            EventKind::EventSignal {
                instance: id,
                event: event.to_string(),
            },
        );
        self.flush_awareness()?;
        Ok(())
    }

    /// Crash the server immediately (test hook; traces use
    /// `TraceEventKind::ServerCrash`).
    pub fn crash_server(&mut self) -> EngineResult<()> {
        self.on_server_crash()
    }

    /// Recover the server immediately (test hook).
    pub fn recover_server(&mut self) -> EngineResult<()> {
        self.on_server_recover()
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
        if !self.server_up {
            // The recovery path re-derives expiry timers from the
            // persisted health records.
            return Ok(());
        }
        let Some(health) = self.node_health.get_mut(node) else {
            return Ok(());
        };
        if health.on_quarantine_expired(epoch) {
            self.awareness.record(
                at,
                EventKind::NodeProbation {
                    node: node.to_string(),
                },
            );
            self.persist_node_health(node)?;
            self.log(format!("node {node} left quarantine (probation)"));
        }
        Ok(())
    }

    fn on_job_start(&mut self, at: SimTime, node_name: &str, job: JobId) -> EngineResult<()> {
        if !self.server_up {
            return Ok(()); // dispatch was annulled by the server crash
        }
        let Some(flight) = self.in_flight.get(&job) else {
            return Ok(()); // annulled (abort/restart)
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
        if !self.server_up {
            // Server down: the PEC cannot deliver; with the server's
            // volatile state gone the result is useless — recovery re-runs
            // the task.
            return Ok(());
        }
        let Some(flight) = self.in_flight.remove(&job) else {
            return Ok(()); // annulled
        };
        if flight.silent {
            // Paper event 10: the TEU finished but never reported.
            self.awareness.record(
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
            self.awareness.record(
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
        let (result, event) = match flight.result {
            Ok(out) => (
                navigator::on_task_ended(&mut inst.view(), &path, out.outputs, at, cpu_ms),
                EventKind::TaskEnd {
                    instance: id,
                    path: path.clone(),
                    node: node_name.to_string(),
                    run_ms,
                    cpu_ms,
                },
            ),
            Err(error) => (
                navigator::on_task_failed(&mut inst.view(), &path, FailureKind::Program, at),
                EventKind::TaskFail {
                    instance: id,
                    path: path.clone(),
                    error,
                },
            ),
        };
        let outcome = match result {
            Ok(outcome) => outcome,
            // A report for a record that no longer exists (a stale
            // in-flight job racing a restart or recovery) is evidence, not
            // poison: record it and drop it.
            Err(EngineError::UnknownTask(i, p)) => {
                self.note_stale(i, Some(&p), context);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        self.awareness.record(at, event);
        self.persist_after_nav(id, &outcome)?;
        self.apply_outcome(id, outcome)
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
                if self.server_up {
                    self.awareness
                        .record(at, EventKind::NodeCrash { node: name.clone() });
                }
                self.fail_jobs(&killed, "node crash")?;
            }
            TraceEventKind::NodeUp(name) => {
                if let Some(n) = self.cluster.node_mut(&name) {
                    n.recover(at);
                }
                if self.server_up {
                    self.awareness
                        .record(at, EventKind::NodeRecover { node: name });
                }
            }
            TraceEventKind::AllNodesDown => {
                let mut killed = Vec::new();
                for n in self.cluster.nodes_mut() {
                    killed.extend(n.crash(at));
                }
                if self.server_up {
                    self.awareness.record(at, EventKind::ClusterFailure);
                }
                self.fail_jobs(&killed, "cluster failure")?;
            }
            TraceEventKind::AllNodesUp => {
                for n in self.cluster.nodes_mut() {
                    n.recover(at);
                }
                if self.server_up {
                    self.awareness.record(at, EventKind::ClusterRecover);
                }
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
                if self.server_up {
                    // §3.4: load samples feed the same awareness taxonomy.
                    let loads: Vec<(String, f64)> = self
                        .cluster
                        .nodes()
                        .iter()
                        .map(|n| (n.spec.name.clone(), n.external_cpus()))
                        .collect();
                    for (node, cpus) in loads {
                        self.awareness
                            .record(at, EventKind::NodeLoad { node, cpus });
                    }
                }
                self.resync_all_nodes();
            }
            TraceEventKind::ExternalLoad { node, cpus } => {
                if let Some(n) = self.cluster.node_mut(&node) {
                    n.set_external_load(at, cpus);
                }
                if self.server_up {
                    self.awareness.record(
                        at,
                        EventKind::NodeLoad {
                            node: node.clone(),
                            cpus,
                        },
                    );
                }
                self.resync_node(&node);
            }
            TraceEventKind::UpgradeAllTo { cpus } => {
                for n in self.cluster.nodes_mut() {
                    n.set_cpus(at, cpus);
                }
                if self.server_up {
                    self.awareness
                        .record(at, EventKind::ClusterUpgrade { cpus });
                }
                self.resync_all_nodes();
            }
            TraceEventKind::ServerCrash => self.on_server_crash()?,
            TraceEventKind::ServerRecover => self.on_server_recover()?,
            TraceEventKind::OperatorSuspend => {
                self.operator_suspended = true;
                if self.server_up {
                    self.awareness.record(at, EventKind::OperatorSuspend);
                }
            }
            TraceEventKind::OperatorResume => {
                self.operator_suspended = false;
                if self.server_up {
                    self.awareness.record(at, EventKind::OperatorResume);
                }
                let ids: Vec<InstanceId> = self.instances.keys().copied().collect();
                for id in ids {
                    if self.instance_status(id) == Some(InstanceStatus::Suspended) {
                        self.resume(id)?;
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
                if self.server_up {
                    self.awareness
                        .record(at, EventKind::NodePartition { node: name });
                }
            }
            TraceEventKind::NodeRejoin(name) => {
                if let Some(n) = self.cluster.node_mut(&name) {
                    n.set_reachable(true);
                }
                if self.server_up {
                    self.awareness
                        .record(at, EventKind::NodeRejoin { node: name.clone() });
                }
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
                    self.awareness.record(
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
        let runnable_queued = self.ready_queue.iter().any(|(id, _)| {
            self.instances
                .get(id)
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
        // All volatile server memory is gone — including awareness events
        // recorded this step but not yet flushed (the index is rebuilt
        // from the store on recovery).
        self.instances.clear();
        self.templates.clear();
        self.in_flight.clear();
        self.ready_queue.clear();
        self.pec_buffer.clear();
        self.node_health.clear();
        self.awareness.discard_pending();
        self.store.poison();
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
        self.store = Store::open(self.disk.clone())?;
        self.store.set_compaction_policy(Some(CompactionPolicy {
            wal_bytes_threshold: self.cfg.compact_wal_bytes,
            min_wal_batches: 1,
        }));
        self.awareness = Awareness::open_tail(&self.store)?;
        self.server_up = true;
        let requeued = self.rebuild_from_store()?;
        self.awareness
            .record(self.kernel.now(), EventKind::ServerRecover { requeued });
        self.flush_awareness()?;
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
        self.in_flight.clear();
        // Node health records are authoritative in the configuration
        // space; reload them and re-derive the quarantine-expiry timers
        // that died with the server's kernel state.
        self.node_health.clear();
        for (key, bytes) in self
            .store
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
        // Collected first: resolving a template reads the store, which a
        // visitor under the store's read locks must not do.
        let records = self.store.scan_prefix(Space::Instance, "inst/")?;
        let (store, known) = (&self.store, &mut self.templates);
        let mut journal =
            instance::JournalReader::new(None, |name| Self::resolve_template(store, known, name));
        for (key, bytes) in &records {
            journal.read(key, bytes)?;
        }
        (self.instances, _) = journal.finish();
        self.next_instance_id = self.instances.last_key_value().map_or(1, |(id, _)| id + 1);
        // In-flight work was lost with the server.  The shared in-doubt
        // rule puts every queued or dispatched record back to `Ready` —
        // including a subprocess task whose child never reached the store,
        // which the pump re-spawns under a fresh id — and leaves the
        // containers something still drives: parallel parents (their
        // child records) and subprocess tasks with a child instance.
        let children = instance::child_links(self.instances.values());
        let mut requeue: Vec<(InstanceId, String)> = Vec::new();
        for (id, inst) in &mut self.instances {
            let resolved = inst.resolve_in_doubt(now, &children);
            requeue.extend(resolved.into_iter().map(|(path, _)| (*id, path)));
        }
        let requeued = requeue.len() as u64;
        for (id, path) in requeue {
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
            self.persist_task(id, &path)?;
            self.enqueue_ready(id, path);
        }
        // Reconcile the rare crash window between "child instance became
        // terminal" and "parent task concluded": deliver those completions
        // now so the parent is not stuck in Dispatched forever.
        let pending_children: Vec<(InstanceId, String, InstanceId, bool)> = self
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
                    (
                        pid,
                        ptask,
                        *cid,
                        cm.header.status == InstanceStatus::Completed,
                    )
                })
            })
            .collect();
        for (pid, ptask, cid, success) in pending_children {
            self.on_child_instance_done(pid, &ptask, cid, success)?;
        }
        Ok(requeued)
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    /// Try to dispatch everything in the ready queue.
    fn pump(&mut self) -> EngineResult<()> {
        if !self.server_up
            || self.operator_suspended
            || self.cluster.network() == NetworkState::Down
        {
            return Ok(());
        }
        let now = self.kernel.now();
        // Built on the first activity; nothing a pump does changes the
        // cluster, so grants are the only thing that can move the view.
        let mut view: Option<PumpView> = None;
        let mut deferred: VecDeque<(InstanceId, String)> = VecDeque::new();
        while let Some((id, path)) = self.ready_queue.pop_front() {
            let Some(mem) = self.instances.get(&id) else {
                continue;
            };
            if mem.header.status != InstanceStatus::Running {
                deferred.push_back((id, path));
                continue;
            }
            let Some(rec) = mem.tasks.get(&path) else {
                continue;
            };
            if rec.state != TaskState::Ready {
                continue; // stale queue entry
            }
            // Parked on a backoff deadline: its RetryAt event wakes us.
            if rec.retry_at().map(|t| t > now).unwrap_or(false) {
                deferred.push_back((id, path));
                continue;
            }
            match mem.role(rec) {
                Role::Activity(binding) => {
                    let program = self
                        .library
                        .get(&binding.program)
                        .ok_or_else(|| EngineError::UnknownProgram(binding.program.clone()))?;
                    let view = view.get_or_insert_with(|| self.pump_view());
                    let Some(node) = view.place(self.cfg.policy.as_mut(), binding) else {
                        deferred.push_back((id, path));
                        continue;
                    };
                    let node_name = view.nodes[node].name.clone();
                    if self.start_activity(id, &path, &*program, node_name)? {
                        view.nodes[node].running_jobs += 1;
                    }
                }
                Role::ParallelParent => {
                    let Some(inst) = self.instances.get_mut(&id) else {
                        self.note_stale(id, Some(&path), "parallel expansion");
                        continue;
                    };
                    let (children, outcome) =
                        navigator::expand_parallel(&mut inst.view(), &path, now)?;
                    self.persist_after_nav(id, &outcome)?;
                    for child in children {
                        self.enqueue_ready(id, child);
                    }
                    self.apply_outcome(id, outcome)?;
                }
                Role::Subprocess(_) => self.start_subprocess(id, &path)?,
                Role::Unknown => {
                    // The queue entry's record or template declaration is
                    // gone (foreign journal record, template mismatch):
                    // drop it as a recorded stale event rather than
                    // poisoning the whole step.
                    self.note_stale(id, Some(&path), "dispatch: task has no role");
                }
            }
        }
        self.ready_queue = deferred;
        Ok(())
    }

    /// The dispatcher's picture of the cluster, with committed
    /// (in-transit) jobs accounted.
    fn pump_view(&self) -> PumpView {
        let mut committed: BTreeMap<&str, u32> = BTreeMap::new();
        for f in self.in_flight.values() {
            *committed.entry(f.node.as_str()).or_default() += 1;
        }
        let nodes = self
            .cluster
            .nodes()
            .iter()
            .map(|n| {
                let quarantined = self
                    .node_health
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
            unplaceable: Vec::new(),
        }
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
        self.persist_task(id, path)?;
        self.awareness.record(
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

    fn start_subprocess(&mut self, id: InstanceId, path: &str) -> EngineResult<()> {
        let now = self.kernel.now();
        let Some((template_name, initial)) = self
            .instances
            .get_mut(&id)
            .and_then(|inst| inst.begin_subprocess(path, now))
        else {
            self.note_stale(id, Some(path), "subprocess start");
            return Ok(());
        };
        self.persist_task(id, path)?;
        // Late binding: the template is resolved from the template space
        // *now*, not when the parent was defined.
        let child = self.instantiate(&template_name, initial, Some((id, path.to_string())))?;
        self.awareness.record(
            now,
            EventKind::SubprocessStart {
                instance: id,
                path: path.to_string(),
                child,
                template: template_name,
            },
        );
        Ok(())
    }

    // ------------------------------------------------------------------
    // Outcome / persistence plumbing
    // ------------------------------------------------------------------

    /// Queue a ready task, stamping when it became ready on the record
    /// itself (first entry wins — re-queuing an already-waiting task
    /// keeps the original time).  The stamp lives on the persisted
    /// [`TaskRecord`], so queue-wait metrics survive a server crash.
    fn enqueue_ready(&mut self, id: InstanceId, path: String) {
        let now = self.kernel.now();
        if let Some(rec) = self
            .instances
            .get_mut(&id)
            .and_then(|m| m.tasks.get_mut(&path))
        {
            rec.ready_at.get_or_insert(now);
        }
        self.ready_queue.push_back((id, path));
    }

    /// Act on a navigation outcome: queue ready tasks, run compensations,
    /// propagate completion to parent instances.
    fn apply_outcome(&mut self, id: InstanceId, outcome: NavOutcome) -> EngineResult<()> {
        for path in &outcome.newly_ready {
            self.enqueue_ready(id, path.clone());
        }
        for (task, program) in &outcome.compensations {
            // Compensation programs are control actions; run them
            // immediately (zero-cost) and record them.
            if let Some(prog) = self.library.get(program) {
                let _ = prog(&BTreeMap::new());
            }
            self.awareness.record(
                self.kernel.now(),
                EventKind::TaskCompensate {
                    instance: id,
                    path: task.clone(),
                    program: program.clone(),
                },
            );
        }
        if outcome.completed || outcome.aborted {
            let parent = self
                .instances
                .get(&id)
                .and_then(|m| m.header.parent.clone());
            self.awareness.record(
                self.kernel.now(),
                if outcome.completed {
                    EventKind::InstanceComplete { instance: id }
                } else {
                    EventKind::InstanceAbort { instance: id }
                },
            );
            if let Some((pid, ptask)) = parent {
                self.on_child_instance_done(pid, &ptask, id, outcome.completed)?;
            }
        }
        Ok(())
    }

    /// A subprocess child instance finished; conclude the parent task.
    fn on_child_instance_done(
        &mut self,
        parent_id: InstanceId,
        parent_task: &str,
        child_id: InstanceId,
        success: bool,
    ) -> EngineResult<()> {
        let now = self.kernel.now();
        // A duplicate delivery (e.g. an orphaned pre-crash child finishing
        // after the task was re-driven) must not conclude the task twice.
        let parent_state = self
            .instances
            .get(&parent_id)
            .and_then(|m| m.tasks.get(parent_task))
            .map(|r| r.state);
        if parent_state != Some(TaskState::Dispatched) {
            self.awareness.record(
                now,
                EventKind::SubprocessDuplicate {
                    instance: parent_id,
                    path: parent_task.to_string(),
                    child: child_id,
                },
            );
            return Ok(());
        }
        let concluded = if success {
            let (Some(parent), Some(child)) = (
                self.instances.get(&parent_id),
                self.instances.get(&child_id),
            ) else {
                self.note_stale(parent_id, Some(parent_task), "child completion");
                return Ok(());
            };
            // The child's whiteboard fields matching the parent task's
            // declared outputs become the task outputs.
            let outputs = parent.subprocess_outputs(parent_task, child.header.whiteboard.clone());
            let child_cpu: f64 = child
                .tasks
                .values()
                .filter(|r| r.state == TaskState::Ended)
                // Skip template-level container records (their cpu
                // duplicates what they contain).
                .filter(|r| r.is_parallel_child() || !child.role(r).is_container())
                .map(|r| r.cpu_ms)
                .sum();
            Some((outputs, child_cpu))
        } else {
            None
        };
        let Some(parent) = self.instances.get_mut(&parent_id) else {
            self.note_stale(parent_id, Some(parent_task), "child conclusion");
            return Ok(());
        };
        let outcome = match concluded {
            Some((outputs, child_cpu)) => {
                navigator::on_task_ended(&mut parent.view(), parent_task, outputs, now, child_cpu)?
            }
            None => navigator::on_task_failed(
                &mut parent.view(),
                parent_task,
                FailureKind::Program,
                now,
            )?,
        };
        self.persist_after_nav(parent_id, &outcome)?;
        self.apply_outcome(parent_id, outcome)
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
        let outcome = match decision {
            RetryDecision::Requeue { delay } => {
                let outcome =
                    navigator::on_task_failed(&mut inst.view(), path, FailureKind::System, now)?;
                self.awareness.record(
                    now,
                    EventKind::TaskSystemFail {
                        instance: id,
                        path: path.to_string(),
                        reason: why.to_string(),
                    },
                );
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
                    self.awareness.record(
                        now,
                        EventKind::TaskBackoff {
                            instance: id,
                            path: path.to_string(),
                            attempt: retry.sys_failures,
                            delay_ms: delay.as_millis(),
                        },
                    );
                }
                outcome
            }
            RetryDecision::Escalate { reason } => {
                // Stop masking: the failure becomes visible through the
                // task's ordinary retry/failure-policy machinery.
                if let Some(r) = inst.tasks.get_mut(path).and_then(|rec| rec.retry.as_mut()) {
                    r.retry_at = None;
                }
                let outcome =
                    navigator::on_task_failed(&mut inst.view(), path, FailureKind::Program, now)?;
                self.awareness.record(
                    now,
                    EventKind::TaskPoisoned {
                        instance: id,
                        path: path.to_string(),
                        reason: reason.clone(),
                    },
                );
                self.log(format!("instance {id}: task {path} escalated ({reason})"));
                outcome
            }
        };
        self.persist_after_nav(id, &outcome)?;
        self.apply_outcome(id, outcome)?;
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
            self.awareness.record(
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
        self.persist_node_health(name)?;
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
            self.persist_node_health(name)?;
        }
        Ok(())
    }

    /// Write `name`'s health record to the configuration space.
    fn persist_node_health(&mut self, name: &str) -> EngineResult<()> {
        if !self.server_up {
            return Ok(());
        }
        let Some(health) = self.node_health.get(name) else {
            return Ok(());
        };
        self.store.put(
            Space::Configuration,
            dependability::health_key(name),
            serde_json::to_vec(health).map_err(bioopera_store::StoreError::from)?,
        )?;
        Ok(())
    }

    /// The dependability health score of a node, if it has one.
    pub fn node_health(&self, name: &str) -> Option<&NodeHealth> {
        self.node_health.get(name)
    }

    fn fail_jobs(&mut self, killed: &[JobId], why: &str) -> EngineResult<()> {
        for job in killed {
            if let Some(f) = self.in_flight.remove(job) {
                if self.server_up {
                    // A crash kills the whole node, not one job — an
                    // environment fault, so the node's health streak and
                    // the tasks' poison sets are not charged.
                    self.system_failure(
                        f.instance,
                        &f.path,
                        Some(&f.node),
                        SystemCause::Environment,
                        why,
                    )?;
                }
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
        self.awareness.record(
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
            self.restart_instance(*id)?;
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
                    self.resume(id)?;
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
            .filter_map(|(id, path)| {
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
                self.awareness
                    .record(now, EventKind::NodeRejoin { node: name });
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

    // ---- persistence helpers ----

    /// Commit a persistence batch, coalescing any awareness events
    /// buffered so far into the same disk append (group commit).  Each
    /// batch stays its own atomic WAL frame, but the events become
    /// durable *with* the navigation state they precede instead of
    /// waiting for the end-of-step flush — persisted-before-visible is
    /// preserved, one disk append cheaper per navigation.
    fn commit_with_awareness(&mut self, batch: Batch) -> EngineResult<()> {
        if self.server_up {
            if let Some(events) = self.awareness.pending_batch()? {
                self.store.apply_many([events, batch])?;
                self.awareness.confirm_flushed();
                return Ok(());
            }
        }
        self.store.apply(batch)?;
        Ok(())
    }

    /// Persist the header and every task record of an instance in one
    /// atomic batch (used at instantiation).
    fn persist_full_instance(&mut self, id: InstanceId) -> EngineResult<()> {
        let now = self.kernel.now();
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        // Stamp enqueue times before the records hit disk, so an initial
        // task's queue wait is measured from instantiation even across a
        // crash.
        for rec in inst.tasks.values_mut() {
            if rec.state == TaskState::Ready {
                rec.ready_at.get_or_insert(now);
            }
        }
        let mut batch = Batch::new();
        inst.commit_into(&mut batch, None, inst.tasks.keys(), &mut self.scratch);
        self.commit_with_awareness(batch)
    }

    fn persist_header(&mut self, id: InstanceId) -> EngineResult<()> {
        let inst = self
            .instances
            .get(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        let mut batch = Batch::new();
        inst.commit_into(
            &mut batch,
            None,
            std::iter::empty::<&str>(),
            &mut self.scratch,
        );
        self.store.apply(batch)?;
        Ok(())
    }

    fn persist_task(&mut self, id: InstanceId, path: &str) -> EngineResult<()> {
        let Some(inst) = self.instances.get(&id) else {
            return Ok(());
        };
        let mut batch = Batch::new();
        inst.tasks_into(&mut batch, None, [path], &mut self.scratch);
        self.store.apply(batch)?;
        Ok(())
    }

    /// Persist the header plus exactly the task records the navigation
    /// wrote ([`NavOutcome::touched`]), in one atomic batch.  Every other
    /// record already equals its stored copy, so leaving it out changes
    /// nothing recovery can observe.
    fn persist_after_nav(&mut self, id: InstanceId, outcome: &NavOutcome) -> EngineResult<()> {
        let now = self.kernel.now();
        let Some(inst) = self.instances.get_mut(&id) else {
            return Ok(());
        };
        for p in &outcome.touched {
            let Some(rec) = inst.tasks.get_mut(p) else {
                continue;
            };
            // Normalise the persisted enqueue stamp before serialising:
            // records entering `Ready` carry the time they queued (first
            // entry wins), records leaving it drop the stamp.  Doing this
            // here — before the batch is built — is what makes queue-wait
            // metrics crash-proof.
            if rec.state == TaskState::Ready {
                rec.ready_at.get_or_insert(now);
            } else {
                rec.ready_at = None;
            }
        }
        let mut batch = Batch::new();
        inst.commit_into(&mut batch, None, &outcome.touched, &mut self.scratch);
        self.commit_with_awareness(batch)
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

/// One pump's node views: built once, kept current by bumping the chosen
/// node's `running_jobs` after each grant.
struct PumpView {
    nodes: Vec<NodeView>,
    /// Placement constraints `(os, hosts)` for which no node passed the
    /// eligibility filter.  Grants only take slots away, so within one
    /// pump such a constraint stays unplaceable and later queue entries
    /// carrying it are deferred without another filter pass.  A *policy*
    /// refusal is never remembered: policies may be stateful, and the
    /// sequence of `choose` calls they see must not depend on this memo.
    unplaceable: Vec<(Option<String>, Vec<String>)>,
}

impl PumpView {
    /// Index of the node `policy` grants `binding`, or `None` to defer.
    fn place(
        &mut self,
        policy: &mut dyn SchedulingPolicy,
        binding: &ExternalBinding,
    ) -> Option<usize> {
        if self
            .unplaceable
            .iter()
            .any(|(os, hosts)| *os == binding.os && *hosts == binding.hosts)
        {
            return None;
        }
        match dispatcher::place(policy, &self.nodes, binding) {
            Placement::Node(i) => Some(i),
            Placement::Deferred => None,
            Placement::NoEligibleNode => {
                self.unplaceable
                    .push((binding.os.clone(), binding.hosts.clone()));
                None
            }
        }
    }
}
