//! The sharded navigator: hash-bucketed instances, parallel shard
//! steppers, and a deterministic barrier.
//!
//! The serial [`crate::runtime::Runtime`] interleaves navigation, dispatch
//! and dependability decisions over one global state, which caps it at a
//! single core.  This module re-plans that pipeline as a bulk-synchronous
//! engine:
//!
//! 1. instances hash-bucket ([`router::owner`]) onto N [`Shard`]s, each
//!    with its own journal prefix in the store ([`bioopera_store::shard_key`]);
//! 2. every round, N shard steppers run **in parallel threads** — each
//!    consumes its sorted inbox, runs the pure navigator, and returns its
//!    dirty instances as journal batches; a stepper never sees the
//!    engine's `Journal`, the one owner of its [`Store`];
//! 3. the barrier merges all outboxes by `(source instance, seq)`
//!    ([`router::merge_outboxes`]), feeds the cross-shard services
//!    (dispatch + node health, [`services::DispatchService`]), allocates
//!    subprocess instance ids, routes messages for the next round, and
//!    returns the round's history events; then the round reaches the
//!    store as **one append** — one `Journal::commit` of every shard's
//!    batches in shard order and the history frame last.  A crash inside
//!    it leaves a whole-frame prefix of that append, and a recovery, too,
//!    is one append.
//!
//! Because the barrier consumes a totally-ordered stream and every shard
//! step is a pure function of `(its journal, its inbox)`, the recorded
//! history and final state are bit-identical for any shard count and any
//! thread interleaving, and at a fixed shard count so is every byte on
//! disk, whatever the thread count — the properties the replay proptests
//! pin down.

pub mod router;
pub mod services;
pub mod stepper;

pub use crate::instance::{Instance, RecoveryReport, ShardMeta};
pub use router::{
    merge_outboxes, owner, splitmix64, ControlOp, Effect, Msg, Payload, ShardEvent, ShardId,
    SrcKey, StepOutput,
};
pub use services::{DispatchService, LogicalNode};
pub use stepper::{FaultInjection, Shard, StepCtx};

use crate::awareness::{Awareness, EventKind};
use crate::diagnostics;
use crate::error::{EngineError, EngineResult};
use crate::history::{self, fnv1a64, Journal, FNV_OFFSET};
use crate::instance;
use crate::library::ActivityLibrary;
use crate::planner::{OutageImpact, PlannerNode, PlannerSnapshot};
use crate::state::{InstanceId, InstanceStatus, RunOutcome, TaskRecord, TaskState};
use bioopera_cluster::SimTime;
use bioopera_ocr::model::ProcessTemplate;
use bioopera_ocr::value::Value;
use bioopera_store::{push_padded, Batch, Disk, Space, Store};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Barrier-side events (quarantines, probations, subprocess allocations)
/// get sequence numbers in a range of their own so they sort after the
/// shard-side events of the same instance within a round.
const BARRIER_SEQ_BASE: u64 = 1 << 48;

/// Operator control messages (suspend/resume) take the highest sequence
/// range of all: within a round they sort after every other message and
/// event of the same instance, so the steering point in the instance's
/// history is a pure function of the operator-call sequence — identical
/// at every shard and thread count.
const OPERATOR_SEQ_BASE: u64 = 1 << 56;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of hash buckets (fixed for the lifetime of a journal).
    pub shards: usize,
    /// Stepper threads (clamped to `[1, shards]`); the disk image does
    /// not depend on it.
    pub threads: usize,
    /// Logical execution nodes.
    pub nodes: usize,
    /// Concurrent jobs per node.
    pub node_capacity: usize,
    /// Consecutive node faults before quarantine.
    pub quarantine_threshold: u32,
    /// Masked system failures tolerated per task before escalation.
    pub retry_budget: u32,
    /// Deterministic node-fault injection (torture harness).
    pub faults: Option<FaultInjection>,
    /// Round-count ceiling before the engine reports a stuck workload.
    pub max_rounds: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            threads: 4,
            nodes: 4,
            node_capacity: 64,
            quarantine_threshold: 3,
            retry_budget: 3,
            faults: None,
            max_rounds: 100_000,
        }
    }
}

/// What a completed run looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardRunStats {
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Instances resident at the end.
    pub instances: u64,
    /// Instances that completed.
    pub completed: u64,
    /// Instances that aborted.
    pub aborted: u64,
    /// History events recorded over the engine's lifetime.
    pub events: u64,
    /// Node grants issued over the engine's lifetime.
    pub grants: u64,
    /// Node slots granted and not released yet: none once the run is
    /// quiescent.
    pub slots_in_flight: u64,
    /// Instances parked in the suspended set (resumable, not stuck).
    pub suspended: u64,
}

/// The sharded navigator engine.
pub struct ShardEngine<D: Disk> {
    cfg: ShardConfig,
    journal: Journal<D>,
    library: ActivityLibrary,
    templates: BTreeMap<String, Arc<ProcessTemplate>>,
    shards: Vec<Shard>,
    inboxes: Vec<Vec<Msg>>,
    service: DispatchService,
    round: u64,
    next_instance: InstanceId,
    operator_seq: u64,
    /// The buffer the engine's own records (pending starts, recovery
    /// rewrites) are encoded through.
    scratch: String,
    /// The report of the recovery that built this engine, if one did.
    recovery: Option<RecoveryReport>,
}

impl<D: Disk> ShardEngine<D> {
    /// A fresh engine over an empty (or at least shard-unused) store.
    /// The one place the configuration is normalised: [`ShardEngine::recover`]
    /// starts from here too.
    pub fn new(store: Store<D>, library: ActivityLibrary, cfg: ShardConfig) -> EngineResult<Self> {
        Ok(Self::open(store, library, cfg)?.0)
    }

    /// [`ShardEngine::new`], and what the store's open replayed.
    fn open(
        store: Store<D>,
        library: ActivityLibrary,
        mut cfg: ShardConfig,
    ) -> EngineResult<(Self, RecoveryReport)> {
        cfg.shards = cfg.shards.max(1);
        cfg.threads = cfg.threads.clamp(1, cfg.shards);
        let shards = (0..cfg.shards).map(Shard::new).collect();
        let inboxes = vec![Vec::new(); cfg.shards];
        let service = DispatchService::new(cfg.nodes, cfg.node_capacity, cfg.quarantine_threshold);
        let (journal, round, opened) = Journal::open(store)?;
        let engine = ShardEngine {
            journal,
            library,
            templates: BTreeMap::new(),
            shards,
            inboxes,
            service,
            round,
            next_instance: 1,
            operator_seq: 0,
            scratch: String::new(),
            recovery: None,
            cfg,
        };
        Ok((engine, opened))
    }

    /// Validate and persist a template.
    pub fn register_template(&mut self, template: ProcessTemplate) -> EngineResult<()> {
        self.journal.register_template(&template)?;
        self.templates
            .insert(template.name.clone(), Arc::new(template));
        Ok(())
    }

    /// Submit a new root instance; it starts at the next round.  The
    /// submission is durable immediately: a pending-start record outlives
    /// a crash until the owning shard commits the instance itself.
    pub fn submit(
        &mut self,
        template: &str,
        initial: BTreeMap<String, Value>,
    ) -> EngineResult<InstanceId> {
        if !self.templates.contains_key(template) {
            return Err(EngineError::UnknownTemplate(template.to_string()));
        }
        let id = self.next_instance;
        self.next_instance += 1;
        let mut pending = Batch::new();
        pending.put_record(
            Space::Instance,
            pending_key(id),
            &PendingStart {
                template: template.to_string(),
                initial: initial.clone(),
            },
            &mut self.scratch,
        );
        self.journal.commit(vec![pending], self.round, [])?;
        self.route(Msg {
            dest: id,
            src: (id, 0),
            payload: Payload::Start {
                template: template.to_string(),
                initial,
                parent: None,
            },
        });
        Ok(id)
    }

    fn route(&mut self, msg: Msg) {
        let shard = owner(msg.dest, self.cfg.shards);
        self.inboxes[shard].push(msg);
    }

    /// Nothing queued anywhere: no inbox messages, no waiting requests.
    /// (Granted slots are always consumed and released within one round,
    /// so a non-empty `in_flight` implies a non-empty inbox.)
    pub fn quiescent(&self) -> bool {
        self.inboxes.iter().all(Vec::is_empty) && self.service.queued() == 0
    }

    /// Route an operator steering command through the deterministic
    /// outbox order: the message is delivered at the next round, sorted
    /// after every other message of the instance ([`OPERATOR_SEQ_BASE`]).
    fn steer(&mut self, id: InstanceId, op: ControlOp) -> EngineResult<()> {
        if id == 0 || id >= self.next_instance {
            return Err(EngineError::UnknownInstance(id));
        }
        if self.instance_status(id).is_some_and(|s| s.is_terminal()) {
            return Ok(());
        }
        self.operator_seq += 1;
        let seq = OPERATOR_SEQ_BASE + self.operator_seq;
        self.route(Msg {
            dest: id,
            src: (id, seq),
            payload: Payload::Control { op },
        });
        Ok(())
    }

    /// Operator suspend of one instance: in-flight work drains, nothing
    /// new activates, ready tasks park until [`ShardEngine::resume`].
    /// Takes effect at the next round, at a deterministic point in the
    /// instance's history.  No-op on terminal instances.
    pub fn suspend(&mut self, id: InstanceId) -> EngineResult<()> {
        self.steer(id, ControlOp::Suspend)
    }

    /// Operator resume: un-parks the instance, resets failed-task retry
    /// budgets, and re-activates every ready task.
    pub fn resume(&mut self, id: InstanceId) -> EngineResult<()> {
        self.steer(id, ControlOp::Resume)
    }

    /// Engine-wide operator suspend: every running instance parks.
    pub fn suspend_all(&mut self) -> EngineResult<()> {
        let ids: Vec<InstanceId> = self
            .shards
            .iter()
            .flat_map(|s| s.slots.iter())
            .filter(|(_, slot)| slot.header.status == InstanceStatus::Running)
            .map(|(id, _)| *id)
            .collect();
        // Sorted delivery: slots iterate in id order per shard; merge.
        let mut ids = ids;
        ids.sort_unstable();
        for id in ids {
            self.steer(id, ControlOp::Suspend)?;
        }
        Ok(())
    }

    /// Engine-wide operator resume: every suspended instance un-parks.
    pub fn resume_all(&mut self) -> EngineResult<()> {
        let mut ids: Vec<InstanceId> = self
            .shards
            .iter()
            .flat_map(|s| s.slots.iter())
            .filter(|(_, slot)| slot.header.status == InstanceStatus::Suspended)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            self.steer(id, ControlOp::Resume)?;
        }
        Ok(())
    }

    /// Instances currently parked in the suspended set.
    pub fn suspended_count(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.slots.values())
            .filter(|slot| slot.header.status == InstanceStatus::Suspended)
            .count() as u64
    }

    /// Run one BSP round: parallel shard steps, then the barrier.
    /// Returns `false` (without running) once quiescent.
    pub fn step_round(&mut self) -> EngineResult<bool> {
        if self.quiescent() {
            return Ok(false);
        }
        let round = self.round;
        let mut outputs = Vec::with_capacity(self.shards.len());
        let mut batches = Vec::new();
        for (out, written) in self.step_shards()? {
            batches.extend(written);
            outputs.push(out);
        }
        let events = self.barrier(round, outputs)?;
        self.journal.commit(batches, round, events)?;
        self.round += 1;
        Ok(true)
    }

    /// Step every shard on its inbox: the first chunk of shards on the
    /// caller, each further chunk on a scoped thread of its own, so
    /// `threads == 1` spawns nothing.  Returns each shard's output and
    /// journal batches in shard order; the steppers only compute, and the
    /// barrier commits what they return.
    fn step_shards(&mut self) -> EngineResult<Vec<(StepOutput, Vec<Batch>)>> {
        let mut inboxes =
            std::mem::replace(&mut self.inboxes, vec![Vec::new(); self.cfg.shards]).into_iter();
        let ctx = StepCtx {
            round: self.round,
            library: &self.library,
            templates: &self.templates,
            faults: self.cfg.faults.as_ref(),
            retry_budget: self.cfg.retry_budget,
        };
        let step = |shards: &mut [Shard], inboxes: Vec<Vec<Msg>>| -> EngineResult<Vec<_>> {
            let steps = shards.iter_mut().zip(inboxes);
            steps
                .map(|(shard, inbox)| shard.step(&ctx, inbox))
                .collect()
        };
        let chunk = self.shards.len().div_ceil(self.cfg.threads);
        let mut chunks = self.shards.chunks_mut(chunk).map(|shards| {
            let mine: Vec<Vec<Msg>> = inboxes.by_ref().take(shards.len()).collect();
            (shards, mine)
        });
        let (first, first_inboxes) = chunks.next().expect("an engine has a shard");
        let chunks: Vec<_> = chunks.collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|(shards, inboxes)| s.spawn(move || step(shards, inboxes)))
                .collect();
            let mut steps = step(first, first_inboxes);
            for handle in handles {
                let theirs = handle.join().unwrap_or_else(|_| {
                    Err(EngineError::Internal(
                        "shard stepper thread panicked".to_string(),
                    ))
                });
                steps = steps.and_then(|mut mine| {
                    mine.extend(theirs?);
                    Ok(mine)
                });
            }
            steps
        })
    }

    /// The deterministic barrier: merge outboxes, drive the cross-shard
    /// services, allocate subprocess ids, route next-round messages, and
    /// return the round's events, which the round's one append
    /// ([`Journal::commit`]) stores after every shard's journal batches.
    fn barrier(&mut self, round: u64, outputs: Vec<StepOutput>) -> EngineResult<Vec<ShardEvent>> {
        let (effects, mut events) = merge_outboxes(outputs);
        let mut bseq = 0u64;
        let mut barrier_events: Vec<ShardEvent> = Vec::new();
        let mut bev = |events: &mut Vec<ShardEvent>, instance: InstanceId, kind: EventKind| {
            events.push(ShardEvent {
                round,
                instance,
                seq: BARRIER_SEQ_BASE + bseq,
                at: None,
                kind,
            });
            bseq += 1;
        };
        for effect in effects {
            match effect {
                Effect::Send(msg) => self.route(msg),
                Effect::Request {
                    instance,
                    path,
                    src,
                } => self.service.request(instance, path, src),
                Effect::Release { node, faulted, .. } => {
                    if let Some(kind) = self.service.release(&node, faulted, round) {
                        bev(&mut barrier_events, u64::MAX, kind);
                    }
                }
                Effect::Spawn {
                    parent,
                    template,
                    initial,
                    src,
                } => {
                    let child = self.next_instance;
                    self.next_instance += 1;
                    bev(
                        &mut barrier_events,
                        parent.0,
                        EventKind::SubprocessStart {
                            instance: parent.0,
                            path: parent.1.clone(),
                            child,
                            template: template.clone(),
                        },
                    );
                    self.route(Msg {
                        dest: child,
                        src,
                        payload: Payload::Start {
                            template,
                            initial,
                            parent: Some(parent),
                        },
                    });
                }
            }
        }
        let (grants, probations) = self.service.assign(round);
        for kind in probations {
            bev(&mut barrier_events, u64::MAX, kind);
        }
        for grant in grants {
            self.route(grant);
        }
        events.extend(barrier_events);
        Ok(events)
    }

    /// Run rounds to quiescence.
    ///
    /// Returns [`RunOutcome::Completed`] when every instance is terminal,
    /// or [`RunOutcome::Quiesced`] when the only remaining non-terminal
    /// instances are operator-suspended — parked work is a steering
    /// state, not a wedge; `resume` + another `run_to_completion` picks
    /// it back up.  Errors (with a bounded diagnostic) only when a
    /// *non-suspended* instance is stranded or the round ceiling trips.
    pub fn run_to_completion(&mut self) -> EngineResult<RunOutcome> {
        while self.step_round()? {
            if self.round > self.cfg.max_rounds {
                return Err(EngineError::Internal(format!(
                    "no quiescence after {} rounds{}",
                    self.cfg.max_rounds,
                    self.stuck_detail()
                )));
            }
        }
        let (summary, detail) = self.survey();
        if summary.stuck > 0 {
            return Err(EngineError::Internal(format!(
                "quiescent with {} stuck non-terminal instance(s){detail}",
                summary.stuck
            )));
        }
        if summary.suspended > 0 {
            Ok(RunOutcome::Quiesced {
                suspended: summary.suspended as u64,
            })
        } else {
            Ok(RunOutcome::Completed)
        }
    }

    /// Shared bounded breakdown of non-terminal state (same renderer as
    /// the serial facade, so "suspended (resumable)" vs "stuck" reads
    /// identically on both paths).
    fn survey(&self) -> (diagnostics::StallSummary, String) {
        diagnostics::survey(
            self.shards
                .iter()
                .flat_map(|s| s.slots.iter())
                .map(|(id, slot)| (*id, slot.header.status, &slot.tasks)),
        )
    }

    /// Bounded per-instance breakdown of non-terminal state, mirroring
    /// the serial engine's deadlock diagnostic.
    fn stuck_detail(&self) -> String {
        self.survey().1
    }

    /// Rebuild an engine from the store: templates, per-shard journals,
    /// then re-drive the in-doubt cross-shard work (lost grants, lost
    /// child-completion messages, lost spawn requests).
    pub fn recover(
        store: Store<D>,
        library: ActivityLibrary,
        cfg: ShardConfig,
    ) -> EngineResult<Self> {
        // A fresh engine opens the history, from its last summary on.
        let (mut engine, mut report) = Self::open(store, library, cfg)?;
        let store = engine.journal.store();
        for (_key, bytes) in store.scan_prefix(Space::Template, "tmpl/")? {
            let t: ProcessTemplate = decode(&bytes)?;
            engine.templates.insert(t.name.clone(), Arc::new(t));
        }
        let mut round = 0u64;
        for shard in &mut engine.shards {
            let (recovered, r) = Shard::recover(shard.id, store, &engine.templates)?;
            round = round.max(r);
            report.instances += recovered.slots.len() as u64;
            if let Some((max, _)) = recovered.slots.last_key_value() {
                engine.next_instance = engine.next_instance.max(max + 1);
            }
            *shard = recovered;
        }
        // A fresh round for what follows.  The shards' `meta` is not
        // enough: a recovery commits its pseudo-round and no shard writes a
        // later `meta` until the next step, so a crash before that step
        // would recover into the same round and overwrite its events.
        engine.round = (round + 1).max(engine.round);
        // Reconcile the durable suspended set against the recovered
        // headers.  Both sides of a suspend/resume flip commit in one
        // atomic frame, so a mismatch means the record outlived its
        // instance (e.g. a pruned terminal slot): drop it.
        let mut stale = Batch::new();
        for (key, _bytes) in store.scan_prefix(Space::Instance, "susp/")? {
            let parked = key
                .strip_prefix("susp/")
                .and_then(|s| s.parse::<InstanceId>().ok())
                .and_then(|id| engine.instance_status(id))
                == Some(InstanceStatus::Suspended);
            if !parked {
                stale.delete(Space::Instance, key);
            }
        }
        engine.redrive(&mut report, stale)?;
        engine.recovery = Some(report);
        Ok(engine)
    }

    /// What the recovery that built this engine read, found in doubt and
    /// wrote; `None` for an engine [`ShardEngine::new`] made.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Reconstruct in-doubt cross-shard work from both sides' journals.
    /// Which records are in doubt, and what they rewind to, is the
    /// instance layer's rule ([`Instance::resolve_in_doubt`], shared with
    /// the serial runtime); this turns its verdicts into shard effects:
    ///
    /// * `Ready` records — queued ones, and dispatched activities whose
    ///   grant was lost — are re-requested (`ready_at` is preserved, so
    ///   queue-wait metrics span the outage);
    /// * a `Dispatched` subprocess task with no child instance lost its
    ///   spawn → re-spawned under a fresh id;
    /// * a terminal child whose parent task is still `Dispatched` lost
    ///   its `ChildDone` message → re-sent (the parent's state check
    ///   dedupes).
    ///
    /// Only the records this changes are written back — a rewind, a
    /// stamp the rule had to add, a re-spawn's `Dispatched` — so a crash
    /// between rounds, which leaves every in-doubt record `Ready` and
    /// stamped, costs recovery no write but its history commit.  The
    /// `stale` deletes, the rewritten records and the history frame reach
    /// the store in one append.
    fn redrive(&mut self, report: &mut RecoveryReport, mut stale: Batch) -> EngineResult<()> {
        let now = SimTime::from_secs(self.round);
        let round = self.round;
        // Pass 0: acked submissions whose Start message died in memory
        // before the owning shard committed the instance.  (Records for
        // instances that did come up are just stale; drop them.)
        for (key, bytes) in self
            .journal
            .store()
            .scan_prefix(Space::Instance, "pending/")?
        {
            let Some(id) = key
                .strip_prefix("pending/")
                .and_then(|s| s.parse::<InstanceId>().ok())
            else {
                continue;
            };
            self.next_instance = self.next_instance.max(id + 1);
            if self.shards[owner(id, self.cfg.shards)]
                .slots
                .contains_key(&id)
            {
                stale.delete(Space::Instance, key);
                continue;
            }
            let start: PendingStart = decode(&bytes)?;
            report.pending_rerouted += 1;
            self.route(Msg {
                dest: id,
                src: (id, 0),
                payload: Payload::Start {
                    template: start.template,
                    initial: start.initial,
                    parent: None,
                },
            });
        }
        // Pass 1 (read-only): child-instance facts.
        let children = instance::child_links(self.shards.iter().flat_map(|s| s.slots.values()));
        let mut child_results: Vec<ChildResult> = Vec::new();
        for (_, id, slot) in self.slots() {
            if let Some((pid, ppath)) = &slot.header.parent {
                if slot.header.status.is_terminal() {
                    child_results.push((
                        *pid,
                        ppath.clone(),
                        id,
                        slot.header.status == InstanceStatus::Completed,
                        slot.header.whiteboard.clone(),
                        slot.child_cpu_ms(),
                    ));
                }
            }
        }
        // Pass 2 (mutating): the shared in-doubt rule rewinds lost grants
        // and lost spawns to `Ready`; what it returns is re-activated by
        // role, as a step would — a subprocess re-spawns, everything else
        // asks for a node again — and what that changed is persisted.
        let mut requests: Vec<(InstanceId, String)> = Vec::new();
        let mut spawns: Vec<(InstanceId, String, String, BTreeMap<String, Value>)> = Vec::new();
        let mut batches = vec![stale];
        for shard in &mut self.shards {
            for (id, slot) in &mut shard.slots {
                // A re-spawn restamps its record, and a recovery that
                // crashed at this round may have stored that stamp already.
                let dispatched: BTreeMap<String, TaskRecord> = slot
                    .tasks
                    .values()
                    .filter(|t| t.state == TaskState::Dispatched)
                    .map(|t| (t.path.clone(), (**t).clone()))
                    .collect();
                let resolved = slot.resolve_in_doubt(now, &children);
                // Suspended instances re-drive too — their in-doubt work
                // is rewound to `Ready` so nothing is lost — but stay
                // parked: no re-request, no re-spawn until resume, whose
                // full ready-task re-activation picks the rewound tasks
                // up.
                let parked = slot.header.status == InstanceStatus::Suspended;
                let mut changed: Vec<&str> = Vec::new();
                for r in &resolved {
                    report.found(r.verdict);
                    let spawned = !parked
                        && match slot.begin_subprocess(&r.path, now) {
                            Some((template, initial)) => {
                                spawns.push((*id, r.path.clone(), template, initial));
                                true
                            }
                            None => {
                                requests.push((*id, r.path.clone()));
                                false
                            }
                        };
                    let written = if spawned {
                        dispatched.get(&r.path) != slot.tasks.get(&r.path).map(|t| &**t)
                    } else {
                        r.changed
                    };
                    if written {
                        changed.push(&r.path);
                    }
                }
                if changed.is_empty() {
                    continue;
                }
                report.rewritten += changed.len() as u64;
                let mut batch = Batch::new();
                slot.tasks_into(&mut batch, Some(shard.id), changed, &mut self.scratch);
                batches.push(batch);
            }
        }
        // Deterministic order for everything the services/inboxes see.
        requests.sort();
        child_results.sort_by_key(|a| a.2);
        spawns.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut events: Vec<ShardEvent> = Vec::new();
        let mut bseq = 0u64;
        for (instance, path) in requests {
            let src = (instance, BARRIER_SEQ_BASE + bseq);
            bseq += 1;
            self.service.request(instance, path, src);
        }
        for (pid, ppath, child, success, outputs, cpu_ms) in child_results {
            self.route(Msg {
                dest: pid,
                src: (child, BARRIER_SEQ_BASE + bseq),
                payload: Payload::ChildDone {
                    path: ppath,
                    child,
                    success,
                    outputs,
                    cpu_ms,
                },
            });
            bseq += 1;
        }
        for (pid, ppath, template, initial) in spawns {
            let child = self.next_instance;
            self.next_instance += 1;
            events.push(ShardEvent {
                round,
                instance: pid,
                seq: BARRIER_SEQ_BASE + bseq,
                at: None,
                kind: EventKind::SubprocessStart {
                    instance: pid,
                    path: ppath.clone(),
                    child,
                    template: template.clone(),
                },
            });
            self.route(Msg {
                dest: child,
                src: (pid, BARRIER_SEQ_BASE + bseq),
                payload: Payload::Start {
                    template,
                    initial,
                    parent: Some((pid, ppath)),
                },
            });
            bseq += 1;
        }
        events.push(ShardEvent {
            round,
            instance: u64::MAX,
            seq: BARRIER_SEQ_BASE + bseq,
            at: None,
            kind: EventKind::ServerRecover {
                requeued: report.lost_grant,
            },
        });
        self.journal.commit(batches, round, events)?;
        // The recovery pseudo-round used `round`'s event keys; advance so
        // the next barrier commits under fresh keys.
        self.round += 1;
        Ok(())
    }

    /// Current run statistics.
    pub fn stats(&self) -> ShardRunStats {
        let mut stats = ShardRunStats {
            rounds: self.round,
            events: self.awareness().index().len() as u64,
            grants: self.service.granted(),
            slots_in_flight: self.service.in_flight() as u64,
            ..Default::default()
        };
        for shard in &self.shards {
            for slot in shard.slots.values() {
                stats.instances += 1;
                match slot.header.status {
                    InstanceStatus::Completed => stats.completed += 1,
                    InstanceStatus::Aborted => stats.aborted += 1,
                    InstanceStatus::Suspended => stats.suspended += 1,
                    InstanceStatus::Running => {}
                }
            }
        }
        stats
    }

    /// Rolling FNV-1a digest of the committed history stream (order-
    /// sensitive): bit-identical across shard counts and thread counts.
    pub fn history_digest(&self) -> u64 {
        self.journal.digest()
    }

    /// Digest of the final instance state, merged across shards in
    /// instance order (shard-placement independent).
    pub fn state_digest(&self) -> u64 {
        let mut slots: Vec<(&InstanceId, &Instance)> =
            self.shards.iter().flat_map(|s| s.slots.iter()).collect();
        slots.sort_by_key(|(id, _)| **id);
        let mut h = FNV_OFFSET;
        let mut scratch = String::new();
        for (id, slot) in slots {
            h = fnv1a64(h, &id.to_le_bytes());
            h = fnv1a64_json(h, &slot.header, &mut scratch);
            for rec in slot.tasks.values() {
                h = fnv1a64_json(h, rec.as_ref(), &mut scratch);
            }
        }
        h
    }

    /// Lifetime event counts by label.
    pub fn event_counts(&self) -> BTreeMap<String, u64> {
        let counts = self.awareness().index().counts_by_kind();
        counts.into_iter().map(|(k, n)| (k, n as u64)).collect()
    }

    /// Current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Status of an instance, wherever it lives.
    pub fn instance_status(&self, id: InstanceId) -> Option<InstanceStatus> {
        self.shards[owner(id, self.cfg.shards)]
            .slots
            .get(&id)
            .map(|s| s.header.status)
    }

    /// Every resident instance with the shard that owns it, as held in
    /// memory (tests compare this with the shard journals).
    pub fn slots(&self) -> impl Iterator<Item = (ShardId, InstanceId, &Instance)> {
        self.shards
            .iter()
            .flat_map(|s| s.slots.iter().map(move |(id, slot)| (s.id, *id, slot)))
    }

    /// Final whiteboard of an instance (for output-equality checks).
    pub fn instance_whiteboard(&self, id: InstanceId) -> Option<&BTreeMap<String, Value>> {
        self.shards[owner(id, self.cfg.shards)]
            .slots
            .get(&id)
            .map(|s| &s.header.whiteboard)
    }

    /// The underlying store.
    pub fn store(&self) -> &Store<D> {
        self.journal.store()
    }

    /// The configuration in force.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// The awareness model: a view over the barrier's totally-ordered
    /// event stream, fed as each round commits.
    pub fn awareness(&self) -> &Awareness {
        self.journal.awareness()
    }

    /// Override the awareness summary cadence (tests force tiny values to
    /// commit a summary with almost every round).
    pub fn set_rollup_every(&mut self, every: u64) {
        self.journal.set_every(every);
    }

    /// Plain-data view of (logical nodes, in-flight jobs, instance task
    /// state) for the engine-agnostic what-if core — a pure function of
    /// the journals and the dispatch service, nothing step-loop-specific.
    pub fn planner_snapshot(&self) -> PlannerSnapshot {
        let round = self.round;
        let nodes = self
            .service
            .nodes()
            .iter()
            .map(|n| PlannerNode {
                name: n.name.clone(),
                os: None,
                cpus: n.capacity as u32,
                up: n.quarantined_until == 0 || n.quarantined_until <= round,
            })
            .collect();
        let mut slots: Vec<(&InstanceId, &Instance)> =
            self.shards.iter().flat_map(|s| s.slots.iter()).collect();
        slots.sort_by_key(|(id, _)| **id);
        let mut in_flight = Vec::new();
        let mut instances = Vec::new();
        for (id, slot) in slots {
            if slot.header.status.is_terminal() {
                continue;
            }
            for rec in slot.tasks.values() {
                if rec.state == TaskState::Dispatched {
                    if let Some(node) = &rec.node {
                        in_flight.push((*id, rec.path.clone(), node.clone()));
                    }
                }
            }
            instances.push(slot.planner_view());
        }
        PlannerSnapshot {
            nodes,
            in_flight,
            instances,
        }
    }

    /// What-if outage analysis (paper §3.5) over the sharded state.
    pub fn what_if_offline(&self, offline: &[&str]) -> OutageImpact {
        self.planner_snapshot().what_if(offline)
    }

    /// Decode the committed history events (in commit order).
    pub fn persisted_events(&self) -> EngineResult<Vec<ShardEvent>> {
        history::persisted_events(self.journal.store())
    }
}

/// Recovery fact about a terminal child: `(parent, parent task path,
/// child id, success, child whiteboard, child cpu_ms)`.
type ChildResult = (
    InstanceId,
    String,
    InstanceId,
    bool,
    BTreeMap<String, Value>,
    f64,
);

/// Durable record of an acked-but-not-yet-committed root submission
/// (`pending/{id}` in the Instance space).  Public by name only, as the
/// other stored record types are.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PendingStart {
    template: String,
    initial: BTreeMap<String, Value>,
}

/// Key of a durable suspended-set record (outside every shard prefix,
/// like `pending/`, so recovery can reconcile the parked set without
/// knowing shard ownership).  Written and deleted in the same atomic
/// frame as the header status flip.
pub(crate) fn suspended_key(id: InstanceId) -> String {
    id_key("susp/", id)
}

/// Key of a pending-start record (outside every shard prefix, so it is
/// visible to engine recovery regardless of which shard owns the id).
pub(crate) fn pending_key(id: InstanceId) -> String {
    id_key("pending/", id)
}

/// `{prefix}{id:012}`, in one pass.
fn id_key(prefix: &str, id: InstanceId) -> String {
    let mut key = String::with_capacity(prefix.len() + 12);
    key.push_str(prefix);
    push_padded(&mut key, id, 12);
    key
}

/// Fold the bytes `value` is stored as into `hash`.  Encoding into a
/// buffer cannot fail, so no record can drop out of a digest, and
/// `scratch` is reused from call to call.
fn fnv1a64_json<T: serde::Serialize>(hash: u64, value: &T, scratch: &mut String) -> u64 {
    scratch.clear();
    value.write_json(scratch);
    fnv1a64(hash, scratch.as_bytes())
}

fn decode<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> EngineResult<T> {
    serde_json::from_slice(bytes).map_err(|e| EngineError::Internal(format!("decode: {e}")))
}

#[cfg(test)]
#[path = "../../tests/common/tears.rs"]
mod tears;

#[cfg(test)]
mod tests {
    use super::tears::tear_at_each_frame;
    use super::*;
    use crate::library::ProgramOutput;
    use crate::state::keys;
    use bioopera_ocr::model::TypeTag;
    use bioopera_ocr::ProcessBuilder;
    use bioopera_store::MemDisk;

    fn chain_library() -> ActivityLibrary {
        let mut lib = ActivityLibrary::new();
        lib.register("p.a", |_inputs| {
            Ok(ProgramOutput::from_fields([("x", Value::Int(7))], 10.0))
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

    fn chain_template() -> ProcessTemplate {
        ProcessBuilder::new("Chain")
            .activity("A", "p.a", |t| t.output("x", TypeTag::Int))
            .activity("B", "p.b", |t| {
                t.input("x", TypeTag::Int).output("y", TypeTag::Int)
            })
            .connect("A", "B")
            .flow_to_task("A", "x", "B", "x")
            .build()
            .unwrap()
    }

    fn engine(shards: usize, threads: usize) -> ShardEngine<MemDisk> {
        let store = Store::open(MemDisk::new()).unwrap();
        let cfg = ShardConfig {
            shards,
            threads,
            ..ShardConfig::default()
        };
        let mut eng = ShardEngine::new(store, chain_library(), cfg).expect("engine");
        eng.register_template(chain_template()).unwrap();
        eng
    }

    /// A template `bioopera_ocr::validate` rejects — here a task named
    /// twice — is refused before it is stored, as the serial runtime
    /// refuses it: no `tmpl/` record, nothing to submit.
    #[test]
    fn an_invalid_template_is_refused_and_not_stored() {
        let mut eng = engine(2, 1);
        let mut twice = chain_template();
        twice.name = "Twice".into();
        twice.tasks.push(twice.tasks[0].clone());
        assert!(bioopera_ocr::validate(&twice).is_err());
        assert!(eng.register_template(twice).is_err());
        let stored = eng.store().scan_prefix(Space::Template, "tmpl/").unwrap();
        let names: Vec<&str> = stored.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, [keys::template("Chain")]);
        assert!(matches!(
            eng.submit("Twice", BTreeMap::new()),
            Err(EngineError::UnknownTemplate(_))
        ));
    }

    #[test]
    fn chain_completes_and_whiteboard_flows() {
        let mut eng = engine(2, 2);
        let ids: Vec<InstanceId> = (0..10)
            .map(|_| eng.submit("Chain", BTreeMap::new()).unwrap())
            .collect();
        let outcome = eng.run_to_completion().unwrap();
        assert_eq!(outcome, RunOutcome::Completed);
        let stats = eng.stats();
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.aborted, 0);
        for id in ids {
            assert_eq!(eng.instance_status(id), Some(InstanceStatus::Completed));
        }
        assert_eq!(eng.event_counts()["instance.complete"], 10);
        assert_eq!(eng.event_counts()["task.end"], 20);
    }

    #[test]
    fn suspended_run_quiesces_then_resume_completes() {
        let mut eng = engine(2, 2);
        let ids: Vec<InstanceId> = (0..6)
            .map(|_| eng.submit("Chain", BTreeMap::new()).unwrap())
            .collect();
        eng.suspend(ids[0]).unwrap();
        let outcome = eng.run_to_completion().unwrap();
        assert_eq!(outcome, RunOutcome::Quiesced { suspended: 1 });
        assert_eq!(eng.instance_status(ids[0]), Some(InstanceStatus::Suspended));
        assert!(
            eng.store()
                .get(Space::Instance, &suspended_key(ids[0]))
                .unwrap()
                .is_some(),
            "parked instance is in the durable suspended set"
        );
        for id in &ids[1..] {
            assert_eq!(eng.instance_status(*id), Some(InstanceStatus::Completed));
        }
        // The planner facade sees the sharded state.
        let impact = eng.what_if_offline(&["node0"]);
        assert!(impact.report().contains("what-if"));
        eng.resume(ids[0]).unwrap();
        let outcome = eng.run_to_completion().unwrap();
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(eng.instance_status(ids[0]), Some(InstanceStatus::Completed));
        assert!(
            eng.store()
                .get(Space::Instance, &suspended_key(ids[0]))
                .unwrap()
                .is_none(),
            "resume removes the durable suspended-set record"
        );
        // The awareness index was fed from the barrier's event stream.
        assert_eq!(eng.awareness().index().count("instance.complete"), 6);
        assert_eq!(eng.awareness().index().count("instance.suspend"), 1);
        assert_eq!(eng.awareness().index().count("instance.resume"), 1);
    }

    /// Crash round 2 of an 8-chain run on 4 shards and 2 threads — in
    /// which `ids[3]` is already durably parked — at every frame boundary
    /// of its append.
    #[test]
    fn suspend_survives_crash_and_resume_after_recovery_completes() {
        let cfg = ShardConfig {
            shards: 4,
            threads: 2,
            ..ShardConfig::default()
        };
        let crash = |disk: &MemDisk, plan| {
            let store = Store::open(disk.clone()).unwrap();
            let mut eng = ShardEngine::new(store, chain_library(), cfg.clone()).expect("engine");
            eng.register_template(chain_template()).unwrap();
            let ids: Vec<InstanceId> = (0..8)
                .map(|_| eng.submit("Chain", BTreeMap::new()).unwrap())
                .collect();
            eng.step_round().unwrap();
            eng.suspend(ids[3]).unwrap();
            eng.step_round().unwrap();
            disk.set_fault_plan(Some(plan));
            assert!(eng.step_round().is_err());
            ids
        };
        let cuts = tear_at_each_frame(crash, |disk, ids, kept| {
            let store = Store::open(disk.clone()).unwrap();
            let mut eng = ShardEngine::recover(store, chain_library(), cfg.clone()).unwrap();
            assert_eq!(
                eng.instance_status(ids[3]),
                Some(InstanceStatus::Suspended),
                "suspension survives the crash ({kept} bytes kept)"
            );
            let outcome = eng.run_to_completion().unwrap();
            assert_eq!(outcome, RunOutcome::Quiesced { suspended: 1 });
            eng.resume(ids[3]).unwrap();
            let outcome = eng.run_to_completion().unwrap();
            assert_eq!(outcome, RunOutcome::Completed);
            let stats = eng.stats();
            assert_eq!(stats.completed, 8, "{kept} bytes kept: {stats:?}");
            assert_eq!(stats.suspended, 0);
        });
        assert!(cuts.len() > 2);
    }

    #[test]
    fn suspend_all_parks_everything_and_resume_all_unparks() {
        let mut eng = engine(3, 2);
        for _ in 0..5 {
            eng.submit("Chain", BTreeMap::new()).unwrap();
        }
        eng.step_round().unwrap();
        eng.suspend_all().unwrap();
        let outcome = eng.run_to_completion().unwrap();
        assert_eq!(outcome.suspended(), 5);
        eng.resume_all().unwrap();
        let outcome = eng.run_to_completion().unwrap();
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(eng.stats().completed, 5);
    }

    #[test]
    fn shard_count_and_thread_count_do_not_change_the_history() {
        let run = |shards: usize, threads: usize| {
            let mut eng = engine(shards, threads);
            for _ in 0..16 {
                eng.submit("Chain", BTreeMap::new()).unwrap();
            }
            eng.run_to_completion().unwrap();
            (eng.history_digest(), eng.state_digest())
        };
        let baseline = run(1, 1);
        assert_eq!(run(4, 1), baseline);
        assert_eq!(run(4, 4), baseline);
        assert_eq!(run(8, 3), baseline);
    }

    /// The journal is CRC-framed: a record that is there but does not
    /// decode, or an instance whose template is gone, is a format fault.
    /// Recovery must say so — it used to come up with the task (or the
    /// whole instance) silently missing.
    #[test]
    fn recovery_fails_loudly_on_an_undecodable_record_or_a_missing_template() {
        let cfg = ShardConfig {
            shards: 1,
            threads: 1,
            ..ShardConfig::default()
        };
        let crashed_disk_at_cadence = |rollup_every: u64| {
            let disk = MemDisk::new();
            let store = Store::open(disk.clone()).unwrap();
            let mut eng = ShardEngine::new(store, chain_library(), cfg.clone()).unwrap();
            eng.set_rollup_every(rollup_every);
            eng.register_template(chain_template()).unwrap();
            for _ in 0..3 {
                eng.submit("Chain", BTreeMap::new()).unwrap();
            }
            eng.step_round().unwrap();
            eng.step_round().unwrap();
            disk
        };
        let crashed_disk = || crashed_disk_at_cadence(crate::history::DEFAULT_ROLLUP_EVERY);
        let recover = |disk: &MemDisk| {
            let store = Store::open(disk.clone()).unwrap();
            ShardEngine::recover(store, chain_library(), cfg.clone()).map(|eng| eng.stats())
        };
        assert_eq!(recover(&crashed_disk()).unwrap().instances, 3);

        let disk = crashed_disk();
        let mut store = Store::open(disk.clone()).unwrap();
        let key = "s0000/inst/000000000002/task/B";
        assert!(store.get(Space::Instance, key).unwrap().is_some());
        store
            .put(Space::Instance, key, b"{not json".to_vec())
            .unwrap();
        drop(store);
        let err = recover(&disk).unwrap_err().to_string();
        assert!(err.contains(&format!("corrupt task {key}")), "{err}");

        // A record nested a hundred thousand deep is the same fault.  The
        // reader recurses per level, and used to end the process with a
        // stack overflow here instead of returning.
        let disk = crashed_disk();
        let mut store = Store::open(disk.clone()).unwrap();
        // Whether the nesting is a well-typed value (lists of lists) or
        // sits in a member the record type does not have.
        for member in [r#""inputs":{"x":"#, r#""no_such_member":"#] {
            let deep = format!(
                r#"{{"path":"B","state":"Ready",{member}{}"#,
                r#"{"List":[["#.repeat(40_000)
            );
            store.put(Space::Instance, key, deep.into_bytes()).unwrap();
            let err = recover(&disk).unwrap_err().to_string();
            assert!(err.contains(&format!("corrupt task {key}")), "{err}");
            assert!(err.contains("nested deeper than"), "{err}");
        }
        drop(store);

        // A history event that does not decode used to drop out of the
        // recovered digest, event list and counts without a word.  The one
        // pass that reads the tail names it — with no summary yet the tail
        // is the stream, so the record is in it.
        let disk = crashed_disk();
        let mut store = Store::open(disk.clone()).unwrap();
        let key = "sev/00000001/000002";
        assert!(store.get(Space::History, key).unwrap().is_some());
        store
            .put(Space::History, key, b"{not json".to_vec())
            .unwrap();
        drop(store);
        let err = recover(&disk).unwrap_err().to_string();
        assert!(
            err.contains(&format!("corrupt history event {key}")),
            "{err}"
        );
        // Under a summary that covers it, and carries the digest of the
        // rounds it covers, the record is never read again: recovery's
        // cost follows the tail, and so does what it can notice.
        let disk = crashed_disk_at_cadence(1);
        let mut store = Store::open(disk.clone()).unwrap();
        store
            .put(Space::History, key, b"{not json".to_vec())
            .unwrap();
        drop(store);
        assert_eq!(recover(&disk).unwrap().instances, 3);

        let disk = crashed_disk();
        let mut store = Store::open(disk.clone()).unwrap();
        store
            .delete(Space::Template, keys::template("Chain"))
            .unwrap();
        drop(store);
        assert!(matches!(
            recover(&disk),
            Err(EngineError::UnknownTemplate(name)) if name == "Chain"
        ));
    }

    /// Label counts three ways: the engine's lifetime counts, the awareness
    /// index, and the stream as persisted.  One record, so they agree.
    fn counts_three_ways(eng: &ShardEngine<MemDisk>) -> [BTreeMap<String, u64>; 3] {
        let index = eng.awareness().index().counts_by_kind();
        let mut persisted = BTreeMap::new();
        for e in eng.persisted_events().unwrap() {
            *persisted.entry(e.kind.label().to_string()).or_insert(0) += 1;
        }
        [
            eng.event_counts(),
            index.into_iter().map(|(k, n)| (k, n as u64)).collect(),
            persisted,
        ]
    }

    /// A recovery commits its pseudo-round and no shard writes a later
    /// `meta` before the next step, so a crash straight after used to
    /// recover into the same round and overwrite the first recovery's
    /// events: three in a row left one `server.recover` in `sev/`.
    #[test]
    fn a_crash_after_a_recovery_does_not_overwrite_history() {
        let disk = MemDisk::new();
        let cfg = ShardConfig {
            shards: 2,
            threads: 1,
            ..ShardConfig::default()
        };
        let store = Store::open(disk.clone()).unwrap();
        let mut eng = ShardEngine::new(store, chain_library(), cfg.clone()).unwrap();
        eng.register_template(chain_template()).unwrap();
        for _ in 0..6 {
            eng.submit("Chain", BTreeMap::new()).unwrap();
        }
        for _ in 0..3 {
            eng.step_round().unwrap();
        }
        drop(eng);
        for recoveries in 1..=3u64 {
            let store = Store::open(disk.clone()).unwrap();
            let eng = ShardEngine::recover(store, chain_library(), cfg.clone()).unwrap();
            let [folded, indexed, persisted] = counts_three_ways(&eng);
            assert_eq!(persisted["server.recover"], recoveries);
            assert_eq!(folded, persisted, "after {recoveries} recoveries");
            assert_eq!(indexed, persisted, "after {recoveries} recoveries");
        }
        let store = Store::open(disk).unwrap();
        let mut eng = ShardEngine::recover(store, chain_library(), cfg).unwrap();
        eng.run_to_completion().unwrap();
        assert_eq!(eng.stats().completed, 6);
        let [folded, indexed, persisted] = counts_three_ways(&eng);
        assert_eq!(persisted["server.recover"], 4);
        assert_eq!(folded, persisted);
        assert_eq!(indexed, persisted);
    }

    #[test]
    fn recovery_resumes_after_partial_commit() {
        let cfg = ShardConfig {
            shards: 4,
            threads: 1,
            ..ShardConfig::default()
        };
        // A couple of clean rounds, then a crash that keeps a frame-aligned
        // prefix of the third round's append: some shards' journals, or
        // all of them without the history, or nothing.
        let crash = |disk: &MemDisk, plan| {
            let store = Store::open(disk.clone()).unwrap();
            let mut eng = ShardEngine::new(store, chain_library(), cfg.clone()).expect("engine");
            eng.register_template(chain_template()).unwrap();
            for _ in 0..12 {
                eng.submit("Chain", BTreeMap::new()).unwrap();
            }
            eng.step_round().unwrap();
            eng.step_round().unwrap();
            disk.set_fault_plan(Some(plan));
            assert!(eng.step_round().is_err());
        };
        let cuts = tear_at_each_frame(crash, |disk, (), kept| {
            let store = Store::open(disk.clone()).unwrap();
            let mut eng = ShardEngine::recover(store, chain_library(), cfg.clone()).unwrap();
            eng.run_to_completion().unwrap();
            let stats = eng.stats();
            assert_eq!(
                stats.completed, 12,
                "all submitted work completes ({kept} bytes kept): {stats:?}"
            );
            assert_eq!(stats.aborted, 0);
        });
        assert!(cuts.len() > 4, "{} cuts", cuts.len());
    }
}
