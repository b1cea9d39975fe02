//! The shard stepper: a pure function of `(shard journal, sorted inbox)`.
//!
//! One [`Shard`] owns the instances that hash-bucket onto it and nothing
//! else.  Each round it consumes its (sorted) inbox, runs the navigator on
//! the affected instances, and returns
//!
//! * a [`StepOutput`] — effects + events tagged with `(instance, seq)`
//!   source keys for the deterministic barrier merge, and
//! * one [`Batch`] per dirty instance — its header plus every task record
//!   the navigator touched, keyed under the shard's journal prefix so the
//!   per-shard group commits of concurrent steppers never interleave
//!   logically.
//!
//! Nothing in here reads global state: no dispatcher, no node table, no
//! other shard's instances.  Cross-instance interaction — even between two
//! instances on the *same* shard — travels through the outbox and waits
//! for the barrier, which is what makes an N-shard run bit-identical to a
//! 1-shard run.

use super::router::{splitmix64, ControlOp, Effect, Msg, Payload, ShardEvent, ShardId, StepOutput};
use crate::awareness::EventKind;
use crate::error::{EngineError, EngineResult};
use crate::instance::{Dirty, Instance, JournalReader, Role, ShardMeta};
use crate::library::ActivityLibrary;
use crate::navigator::{self, FailureKind, NavOutcome};
use crate::state::{InstanceId, InstanceStatus, TaskState};
use bioopera_cluster::SimTime;
use bioopera_ocr::model::ProcessTemplate;
use bioopera_ocr::value::Value;
use bioopera_store::{Batch, Disk, Space, Store};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Sequence numbers for events about instances the shard does not know
/// (stale grants, unknown templates) start here so they sort after any
/// live instance activity without colliding with it.
const STALE_SEQ_BASE: u64 = 1 << 32;

/// Deterministic node-fault injection for the shard torture harness: a
/// grant faults when the hash of `(seed, instance, path, attempt)` lands
/// under the configured rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjection {
    /// Hash seed (vary per torture iteration).
    pub seed: u64,
    /// Faults per million grants.
    pub rate_ppm: u32,
}

impl FaultInjection {
    /// Does this `(instance, path, attempt)` grant fault?
    pub fn hits(&self, instance: InstanceId, path: &str, attempt: u32) -> bool {
        let mut h = splitmix64(self.seed ^ splitmix64(instance));
        for b in path.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h ^ u64::from(attempt));
        (h % 1_000_000) < u64::from(self.rate_ppm)
    }
}

/// Read-only per-round context shared by all shard steppers.
pub struct StepCtx<'a> {
    /// Current round (the virtual clock: `now = from_secs(round)`).
    pub round: u64,
    /// Program bodies.
    pub library: &'a ActivityLibrary,
    /// Template space snapshot.
    pub templates: &'a BTreeMap<String, Arc<ProcessTemplate>>,
    /// Optional deterministic node-fault injection.
    pub faults: Option<&'a FaultInjection>,
    /// Masked system failures tolerated per task before escalation to a
    /// program failure (mirrors the serial dependability policy).
    pub retry_budget: u32,
}

impl StepCtx<'_> {
    fn now(&self) -> SimTime {
        SimTime::from_secs(self.round)
    }
}

/// Reference-CPU total a finished child instance reports to its parent
/// task (parallel children excluded — their sum is already recorded on
/// the parallel parent).
pub(super) fn child_cpu_ms(child: &Instance) -> f64 {
    child
        .tasks
        .values()
        .filter(|r| !r.is_parallel_child())
        .map(|r| r.cpu_ms)
        .sum()
}

/// Transient per-step accumulation.
#[derive(Default)]
struct StepState {
    out: StepOutput,
    /// What this step wrote; every instance in it commits its header.
    dirty: Dirty,
    stale_seq: BTreeMap<InstanceId, u64>,
    /// Root instances created this step: their commit retires the
    /// engine-level pending-start record.
    created_roots: BTreeSet<InstanceId>,
    /// Instances that entered the suspended set this step: their commit
    /// writes the durable `susp/` record in the same atomic frame as the
    /// header that carries the `Suspended` status.
    suspended_now: BTreeSet<InstanceId>,
    /// Instances that left the suspended set this step (resume): their
    /// commit deletes the `susp/` record atomically with the header.
    resumed_now: BTreeSet<InstanceId>,
}

/// What to do with a task that just became ready.
enum Act {
    Request,
    Spawn,
    Expand,
    Skip,
    /// The instance is suspended: leave the task `Ready` (with its
    /// queue-wait clock running) and activate nothing until resume.
    Park,
    Stale(&'static str),
}

/// One hash bucket of the sharded navigator.
#[derive(Debug)]
pub struct Shard {
    /// Shard index (also the journal prefix).
    pub id: ShardId,
    /// Resident instances.
    pub slots: BTreeMap<InstanceId, Instance>,
}

impl Shard {
    /// An empty shard.
    pub fn new(id: ShardId) -> Self {
        Shard {
            id,
            slots: BTreeMap::new(),
        }
    }

    /// Rebuild a shard from its journal prefix, building each instance as
    /// the visit reaches its records — the journal is read in one visit and
    /// never held as a list.  Returns the shard plus the last round its
    /// meta record saw.  A record that does not decode, or a header whose
    /// template is no longer registered, fails the recovery naming the key
    /// ([`JournalReader`]).
    pub fn recover<D: Disk>(
        id: ShardId,
        store: &Store<D>,
        templates: &BTreeMap<String, Arc<ProcessTemplate>>,
    ) -> EngineResult<(Self, u64)> {
        let mut journal = JournalReader::new(Some(id), |name| {
            templates
                .get(name)
                .cloned()
                .ok_or_else(|| EngineError::UnknownTemplate(name.to_string()))
        });
        store.visit_shard(Space::Instance, id, |key, bytes| journal.read(key, bytes))?;
        let (slots, meta) = journal.finish();
        Ok((Shard { id, slots }, meta.map_or(0, |m| m.round)))
    }

    /// Run one round: consume the inbox (sorted by source key), produce
    /// the outbox and one journal batch per dirty instance (plus the
    /// shard meta record).  Pure with respect to everything outside this
    /// shard's slots.
    pub fn step(
        &mut self,
        ctx: &StepCtx<'_>,
        mut inbox: Vec<Msg>,
    ) -> EngineResult<(StepOutput, Vec<Batch>)> {
        inbox.sort_by_key(|a| a.src);
        let mut st = StepState::default();
        for msg in inbox {
            self.handle(ctx, &mut st, msg)?;
        }
        let batches = self.build_batches(ctx, &st);
        Ok((st.out, batches))
    }

    fn handle(&mut self, ctx: &StepCtx<'_>, st: &mut StepState, msg: Msg) -> EngineResult<()> {
        match msg.payload {
            Payload::Start {
                template,
                initial,
                parent,
            } => self.on_start(ctx, st, msg.dest, template, initial, parent),
            Payload::Grant { path, node } => self.on_grant(ctx, st, msg.dest, path, node),
            Payload::ChildDone {
                path,
                child,
                success,
                outputs,
                cpu_ms,
            } => self.on_child_done(ctx, st, msg.dest, path, child, success, outputs, cpu_ms),
            Payload::Control { op } => self.on_control(ctx, st, msg.dest, op),
        }
    }

    /// Next sequence number for `instance` (live slots count up from
    /// their own counter; unknown instances use a transient high range).
    fn next_seq(&mut self, st: &mut StepState, instance: InstanceId) -> u64 {
        match self.slots.get_mut(&instance) {
            Some(slot) => {
                let s = slot.seq;
                slot.seq += 1;
                s
            }
            None => {
                let c = st.stale_seq.entry(instance).or_insert(STALE_SEQ_BASE);
                let s = *c;
                *c += 1;
                s
            }
        }
    }

    fn emit(&mut self, st: &mut StepState, round: u64, instance: InstanceId, kind: EventKind) {
        let seq = self.next_seq(st, instance);
        st.out.events.push(ShardEvent {
            round,
            instance,
            seq,
            at: None,
            kind,
        });
    }

    fn stale(
        &mut self,
        st: &mut StepState,
        round: u64,
        instance: InstanceId,
        path: Option<&str>,
        context: &str,
    ) {
        self.emit(
            st,
            round,
            instance,
            EventKind::StaleEvent {
                instance,
                path: path.map(str::to_string),
                context: context.to_string(),
            },
        );
    }

    fn push_release(
        &mut self,
        st: &mut StepState,
        instance: InstanceId,
        node: &str,
        faulted: bool,
    ) {
        let src = (instance, self.next_seq(st, instance));
        st.out.effects.push(Effect::Release {
            node: node.to_string(),
            faulted,
            src,
        });
    }

    fn on_start(
        &mut self,
        ctx: &StepCtx<'_>,
        st: &mut StepState,
        id: InstanceId,
        template: String,
        initial: BTreeMap<String, Value>,
        parent: Option<(InstanceId, String)>,
    ) -> EngineResult<()> {
        if self.slots.contains_key(&id) {
            // Duplicate start (recovery re-drive); the instance is live.
            self.stale(st, ctx.round, id, None, "start: instance already exists");
            return Ok(());
        }
        let Some(tmpl) = ctx.templates.get(&template).cloned() else {
            self.stale(st, ctx.round, id, None, "start: unknown template");
            if let Some((pid, ppath)) = parent {
                // Tell the parent its subprocess never came up.
                let src = (id, self.next_seq(st, id));
                st.out.effects.push(Effect::Send(Msg {
                    dest: pid,
                    src,
                    payload: Payload::ChildDone {
                        path: ppath,
                        child: id,
                        success: false,
                        outputs: BTreeMap::new(),
                        cpu_ms: 0.0,
                    },
                }));
            }
            return Ok(());
        };
        let root = parent.is_none();
        let (slot, outcome) = Instance::create(tmpl, id, parent, ctx.now(), &initial)?;
        self.slots.insert(id, slot);
        if root {
            st.created_roots.insert(id);
        }
        self.emit(
            st,
            ctx.round,
            id,
            EventKind::InstanceStart {
                instance: id,
                template,
            },
        );
        self.apply_outcome(ctx, st, id, outcome)
    }

    #[allow(clippy::too_many_arguments)]
    fn on_grant(
        &mut self,
        ctx: &StepCtx<'_>,
        st: &mut StepState,
        id: InstanceId,
        path: String,
        node: String,
    ) -> EngineResult<()> {
        let now = ctx.now();
        let queue_ms;
        let mut fault = false;
        let mut escalate = false;
        {
            let Some(slot) = self.slots.get_mut(&id) else {
                self.stale(st, ctx.round, id, Some(&path), "grant: unknown instance");
                self.push_release(st, id, &node, false);
                return Ok(());
            };
            if slot.header.status == InstanceStatus::Suspended {
                // Parked: hand the slot back and keep the task Ready —
                // resume re-requests it.
                self.stale(st, ctx.round, id, Some(&path), "grant: instance suspended");
                self.push_release(st, id, &node, false);
                return Ok(());
            }
            let Some(rec) = slot.tasks.get_mut(&path) else {
                self.stale(st, ctx.round, id, Some(&path), "grant: unknown task");
                self.push_release(st, id, &node, false);
                return Ok(());
            };
            if rec.state != TaskState::Ready {
                // Post-recovery duplicate grant: the slot is simply
                // returned; the record keeps whatever state drove it.
                self.stale(st, ctx.round, id, Some(&path), "grant: task not ready");
                self.push_release(st, id, &node, false);
                return Ok(());
            }
            queue_ms = rec
                .ready_at
                .take()
                .map(|since| now.saturating_sub(since).as_millis())
                .unwrap_or(0);
            rec.state = TaskState::Dispatched;
            rec.node = Some(node.clone());
            rec.started_at = Some(now);
            let attempt = rec.attempts + rec.retry.as_ref().map(|r| r.sys_failures).unwrap_or(0);
            if let Some(f) = ctx.faults {
                if f.hits(id, &path, attempt) {
                    fault = true;
                    let retry = rec.retry_mut();
                    retry.sys_failures += 1;
                    retry.note_failed_node(&node);
                    escalate = retry.sys_failures > ctx.retry_budget;
                }
            }
        }
        st.dirty.header(id);
        st.dirty.task(id, &path);
        if fault {
            self.emit(
                st,
                ctx.round,
                id,
                EventKind::TaskSystemFail {
                    instance: id,
                    path: path.clone(),
                    reason: format!("injected node fault on {node}"),
                },
            );
            self.push_release(st, id, &node, true);
            let kind = if escalate {
                self.emit(
                    st,
                    ctx.round,
                    id,
                    EventKind::TaskPoisoned {
                        instance: id,
                        path: path.clone(),
                        reason: format!("masked-failure budget exhausted ({})", ctx.retry_budget),
                    },
                );
                FailureKind::Program
            } else {
                FailureKind::System
            };
            let outcome = self.nav_failed(id, &path, kind, now)?;
            return self.apply_outcome(ctx, st, id, outcome);
        }
        // Resolve the program (template activity or parallel-child body)
        // and bind its inputs.
        let resolved = self.slots.get(&id).and_then(|slot| {
            let Role::Activity(binding) = slot.role(slot.tasks.get(&path)?) else {
                return None;
            };
            Some((binding.program.clone(), slot.bind_inputs(&path)?))
        });
        let Some((name, inputs)) = resolved else {
            let why = "grant: task is not an activity";
            self.stale(st, ctx.round, id, Some(&path), why);
            self.push_release(st, id, &node, false);
            return Ok(());
        };
        let run = match ctx.library.get(&name) {
            Some(prog) => prog(&inputs),
            None => Err(format!("program `{name}` not in activity library")),
        };
        match run {
            Ok(out) => {
                self.emit(
                    st,
                    ctx.round,
                    id,
                    EventKind::TaskStart {
                        instance: id,
                        path: path.clone(),
                        node: node.clone(),
                        job: ctx.round,
                        queue_ms,
                    },
                );
                let run_ms = out.cost_ref_ms.max(0.0) as u64;
                let cpu_ms = out.cost_ref_ms;
                let outcome = self.nav_ended(id, &path, out.outputs, now, cpu_ms)?;
                self.emit(
                    st,
                    ctx.round,
                    id,
                    EventKind::TaskEnd {
                        instance: id,
                        path: path.clone(),
                        node: node.clone(),
                        run_ms,
                        cpu_ms,
                    },
                );
                self.push_release(st, id, &node, false);
                self.apply_outcome(ctx, st, id, outcome)
            }
            Err(error) => {
                self.emit(
                    st,
                    ctx.round,
                    id,
                    EventKind::TaskFail {
                        instance: id,
                        path: path.clone(),
                        error,
                    },
                );
                self.push_release(st, id, &node, false);
                let outcome = self.nav_failed(id, &path, FailureKind::Program, now)?;
                self.apply_outcome(ctx, st, id, outcome)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_child_done(
        &mut self,
        ctx: &StepCtx<'_>,
        st: &mut StepState,
        id: InstanceId,
        path: String,
        child: InstanceId,
        success: bool,
        outputs: BTreeMap<String, Value>,
        cpu_ms: f64,
    ) -> EngineResult<()> {
        let now = ctx.now();
        {
            let Some(slot) = self.slots.get(&id) else {
                self.stale(
                    st,
                    ctx.round,
                    id,
                    Some(&path),
                    "child completion: unknown instance",
                );
                return Ok(());
            };
            let Some(rec) = slot.tasks.get(&path) else {
                self.stale(
                    st,
                    ctx.round,
                    id,
                    Some(&path),
                    "child completion: unknown task",
                );
                return Ok(());
            };
            if rec.state != TaskState::Dispatched {
                self.emit(
                    st,
                    ctx.round,
                    id,
                    EventKind::SubprocessDuplicate {
                        instance: id,
                        path,
                        child,
                    },
                );
                return Ok(());
            }
        }
        if success {
            let outputs = match self.slots.get(&id) {
                Some(slot) => slot.subprocess_outputs(&path, outputs),
                None => outputs,
            };
            let outcome = self.nav_ended(id, &path, outputs, now, cpu_ms)?;
            self.emit(
                st,
                ctx.round,
                id,
                EventKind::TaskEnd {
                    instance: id,
                    path,
                    node: "subprocess".to_string(),
                    run_ms: 0,
                    cpu_ms,
                },
            );
            self.apply_outcome(ctx, st, id, outcome)
        } else {
            self.emit(
                st,
                ctx.round,
                id,
                EventKind::TaskFail {
                    instance: id,
                    path: path.clone(),
                    error: format!("child instance {child} aborted"),
                },
            );
            let outcome = self.nav_failed(id, &path, FailureKind::Program, now)?;
            self.apply_outcome(ctx, st, id, outcome)
        }
    }

    /// Operator suspend/resume, delivered through the sorted inbox so the
    /// steering point is deterministic.  Suspend parks the instance:
    /// status flips to `Suspended` (durably, together with a `susp/` set
    /// record), in-flight work is allowed to drain, and nothing new
    /// activates.  Resume flips it back, resets failed-task budgets
    /// ([`navigator::on_resume`]), and re-activates every `Ready` task —
    /// both the ones parked while suspended and the ones re-readied by
    /// the resume itself.
    fn on_control(
        &mut self,
        ctx: &StepCtx<'_>,
        st: &mut StepState,
        id: InstanceId,
        op: ControlOp,
    ) -> EngineResult<()> {
        let Some(slot) = self.slots.get_mut(&id) else {
            self.stale(st, ctx.round, id, None, "control: unknown instance");
            return Ok(());
        };
        match op {
            ControlOp::Suspend => {
                if slot.header.status != InstanceStatus::Running {
                    let why = "suspend: instance not running";
                    self.stale(st, ctx.round, id, None, why);
                    return Ok(());
                }
                slot.header.status = InstanceStatus::Suspended;
                st.dirty.header(id);
                st.suspended_now.insert(id);
                st.resumed_now.remove(&id);
                self.emit(
                    st,
                    ctx.round,
                    id,
                    EventKind::InstanceSuspend { instance: id },
                );
                Ok(())
            }
            ControlOp::Resume => {
                if slot.header.status != InstanceStatus::Suspended {
                    let why = "resume: instance not suspended";
                    self.stale(st, ctx.round, id, None, why);
                    return Ok(());
                }
                let now = ctx.now();
                let mut outcome = navigator::on_resume(&mut slot.view(), now);
                // Re-activate everything that is Ready now: the resume
                // re-readied Failed tasks, and parked tasks stayed Ready
                // the whole time.  BTreeMap order keeps this deterministic.
                outcome.newly_ready = slot
                    .tasks
                    .values()
                    .filter(|r| r.state == TaskState::Ready)
                    .map(|r| r.path.clone())
                    .collect();
                st.resumed_now.insert(id);
                st.suspended_now.remove(&id);
                self.emit(
                    st,
                    ctx.round,
                    id,
                    EventKind::InstanceResume { instance: id },
                );
                self.apply_outcome(ctx, st, id, outcome)
            }
        }
    }

    fn nav_ended(
        &mut self,
        id: InstanceId,
        path: &str,
        outputs: BTreeMap<String, Value>,
        now: SimTime,
        cpu_ms: f64,
    ) -> EngineResult<NavOutcome> {
        let Some(slot) = self.slots.get_mut(&id) else {
            return Ok(NavOutcome::default());
        };
        navigator::on_task_ended(&mut slot.view(), path, outputs, now, cpu_ms)
    }

    fn nav_failed(
        &mut self,
        id: InstanceId,
        path: &str,
        kind: FailureKind,
        now: SimTime,
    ) -> EngineResult<NavOutcome> {
        let Some(slot) = self.slots.get_mut(&id) else {
            return Ok(NavOutcome::default());
        };
        navigator::on_task_failed(&mut slot.view(), path, kind, now)
    }

    /// Drain a navigation outcome: activate ready tasks (request a node,
    /// spawn a subprocess, or expand a parallel task in place), run
    /// compensations, and conclude the instance if it went terminal.
    fn apply_outcome(
        &mut self,
        ctx: &StepCtx<'_>,
        st: &mut StepState,
        id: InstanceId,
        outcome: NavOutcome,
    ) -> EngineResult<()> {
        let now = ctx.now();
        st.dirty.nav(id, &outcome);
        let mut ready: VecDeque<String> = outcome.newly_ready.into();
        let mut compensations: VecDeque<(String, String)> = outcome.compensations.into();
        let mut completed = outcome.completed;
        let mut aborted = outcome.aborted;
        let suspended = outcome.suspended;
        loop {
            if let Some((task, program)) = compensations.pop_front() {
                self.emit(
                    st,
                    ctx.round,
                    id,
                    EventKind::TaskCompensate {
                        instance: id,
                        path: task.clone(),
                        program: program.clone(),
                    },
                );
                // Compensations run inline on the recorded inputs; their
                // outcome does not feed back into navigation.
                if let Some(prog) = ctx.library.get(&program) {
                    let inputs = self
                        .slots
                        .get(&id)
                        .and_then(|s| s.tasks.get(&task))
                        .map(|r| r.inputs.to_map())
                        .unwrap_or_default();
                    let _ = prog(&inputs);
                }
                continue;
            }
            let Some(path) = ready.pop_front() else {
                break;
            };
            // `nav` marked the header on entry.
            st.dirty.task(id, &path);
            let act = {
                let Some(slot) = self.slots.get(&id) else {
                    break;
                };
                if slot.header.status == InstanceStatus::Suspended {
                    Act::Park
                } else {
                    match slot.tasks.get(&path) {
                        None => Act::Stale("ready task has no record"),
                        Some(rec) if rec.state != TaskState::Ready => Act::Skip,
                        Some(rec) => match slot.role(rec) {
                            Role::Activity(_) => Act::Request,
                            Role::Subprocess(_) => Act::Spawn,
                            Role::ParallelParent => Act::Expand,
                            Role::Unknown => Act::Stale("ready task not in template"),
                        },
                    }
                }
            };
            match act {
                Act::Skip => {}
                Act::Park => {
                    if let Some(rec) = self.slots.get_mut(&id).and_then(|s| s.tasks.get_mut(&path))
                    {
                        rec.ready_at.get_or_insert(now);
                    }
                }
                Act::Stale(why) => self.stale(st, ctx.round, id, Some(&path), why),
                Act::Request => {
                    if let Some(rec) = self.slots.get_mut(&id).and_then(|s| s.tasks.get_mut(&path))
                    {
                        rec.ready_at.get_or_insert(now);
                    }
                    let src = (id, self.next_seq(st, id));
                    st.out.effects.push(Effect::Request {
                        instance: id,
                        path: path.clone(),
                        src,
                    });
                }
                Act::Spawn => {
                    let Some((template, initial)) = self
                        .slots
                        .get_mut(&id)
                        .and_then(|s| s.begin_subprocess(&path, now))
                    else {
                        continue;
                    };
                    let src = (id, self.next_seq(st, id));
                    st.out.effects.push(Effect::Spawn {
                        parent: (id, path.clone()),
                        template,
                        initial,
                        src,
                    });
                }
                Act::Expand => {
                    let Some(slot) = self.slots.get_mut(&id) else {
                        break;
                    };
                    let (children, out2) =
                        navigator::expand_parallel(&mut slot.view(), &path, now)?;
                    st.dirty.nav(id, &out2);
                    ready.extend(children);
                    ready.extend(out2.newly_ready);
                    completed |= out2.completed;
                    aborted |= out2.aborted;
                    compensations.extend(out2.compensations);
                }
            }
        }
        if suspended {
            // Policy-driven suspension (FailurePolicy::Suspend) parks the
            // instance exactly like an operator suspend.
            st.suspended_now.insert(id);
            st.resumed_now.remove(&id);
            self.emit(
                st,
                ctx.round,
                id,
                EventKind::InstanceSuspend { instance: id },
            );
        }
        if completed || aborted {
            if completed {
                self.emit(
                    st,
                    ctx.round,
                    id,
                    EventKind::InstanceComplete { instance: id },
                );
            } else {
                self.emit(st, ctx.round, id, EventKind::InstanceAbort { instance: id });
            }
            let parent = self.slots.get(&id).and_then(|s| s.header.parent.clone());
            if let Some((pid, ppath)) = parent {
                let (outputs, cpu_ms) = self
                    .slots
                    .get(&id)
                    .map(|s| (s.header.whiteboard.clone(), child_cpu_ms(s)))
                    .unwrap_or_default();
                let src = (id, self.next_seq(st, id));
                st.out.effects.push(Effect::Send(Msg {
                    dest: pid,
                    src,
                    payload: Payload::ChildDone {
                        path: ppath,
                        child: id,
                        success: completed,
                        outputs,
                        cpu_ms,
                    },
                }));
            }
        }
        Ok(())
    }

    /// One batch per dirty instance (header + touched task records) plus
    /// the shard meta record — the shard's group commit for this round.
    fn build_batches(&self, ctx: &StepCtx<'_>, st: &StepState) -> Vec<Batch> {
        let mut batches = Vec::new();
        // Every record of the round is encoded through this one buffer.
        let mut scratch = String::new();
        for (id, marks) in st.dirty.iter() {
            let Some(slot) = self.slots.get(&id) else {
                continue;
            };
            let mut b = Batch::new();
            if st.created_roots.contains(&id) {
                // Same atomic frame as the instance's first commit: the
                // pending-start record and the header never coexist
                // half-applied.
                b.delete(Space::Instance, super::pending_key(id));
            }
            // The durable suspended set rides the same atomic frame as
            // the header that carries the status flip, so a crash can
            // never observe one without the other.
            if st.suspended_now.contains(&id) {
                b.put(Space::Instance, super::suspended_key(id), vec![1]);
            } else if st.resumed_now.contains(&id) {
                b.delete(Space::Instance, super::suspended_key(id));
            }
            slot.marked_into(&mut b, Some(self.id), marks, &mut scratch);
            batches.push(b);
        }
        let mut meta = Batch::new();
        ShardMeta { round: ctx.round }.put_into(&mut meta, self.id, &mut scratch);
        batches.push(meta);
        batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_injection_is_deterministic_and_rate_bounded() {
        let f = FaultInjection {
            seed: 42,
            rate_ppm: 100_000, // 10%
        };
        let hits: Vec<bool> = (0..1000u64).map(|i| f.hits(i, "T", 0)).collect();
        assert_eq!(
            hits,
            (0..1000u64).map(|i| f.hits(i, "T", 0)).collect::<Vec<_>>()
        );
        let rate = hits.iter().filter(|h| **h).count();
        assert!(rate > 20 && rate < 300, "10% nominal, got {rate}/1000");
        // The attempt number perturbs the hash: a faulted task is not
        // doomed to fault forever.
        let stuck = (0..10u32).all(|a| f.hits(7, "T", a));
        assert!(!stuck);
    }
}
