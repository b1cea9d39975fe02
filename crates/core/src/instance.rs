//! The instance layer: everything between the navigator and a step loop.
//!
//! The serial [`crate::runtime::Runtime`] and the sharded
//! [`crate::shard::ShardEngine`] differ in how they *drive* instances —
//! a discrete-event cluster simulator against BSP rounds — and in nothing
//! else.  Four decisions are therefore made here, once, and nowhere else
//! in this crate:
//!
//! 1. **what an instance is** — [`Instance`]: the resolved template, the
//!    header, the task records;
//! 2. **what a task record stands for** — [`Instance::role`]: an
//!    activity, a parallel parent, a subprocess, or nothing the template
//!    knows;
//! 3. **the journal format** — [`Instance::commit_into`] /
//!    [`Instance::tasks_into`] write `inst/{id}/header` and
//!    `inst/{id}/task/{path}` (under an optional `s{NNNN}/` shard prefix),
//!    what a step marked in its [`Dirty`] set is written through them at
//!    the driver's one commit, and a [`JournalReader`] reads the records
//!    back as a scan hands them over;
//! 4. **the in-doubt rule** — [`Instance::resolve_in_doubt`]: what a
//!    `Ready` or `Dispatched` record means after the server that wrote it
//!    died;
//! 5. **the reaction** — [`Instance::react`]: what a completion, a
//!    failure, a child's end or a resume does to an instance, and what it
//!    asks of the driver ([`Effect`]); [`Instance::activate`]: what a ready
//!    task asks of it ([`Activation`]).  A driver only routes the effects:
//!    to its queue or dispatcher, its kernel or its outbox.
//!
//! The layer writes into batches only: a driver hands them to its
//! journal (`Journal`), the one owner of its store.
//! Visibility cannot yet say the rest, so `scripts/check.sh` holds that
//! line: task kinds, instance keys, `InstanceView` literals and the
//! navigator's reactions may not appear in the drivers.

use crate::awareness::EventKind;
use crate::error::{EngineError, EngineResult};
use crate::navigator::{self, FailureKind, InstanceView, NavOutcome};
use crate::planner::{self, PlannerInstance, PlannerTask};
use crate::state::{
    keys, InstanceHeader, InstanceId, InstanceStatus, TaskMap, TaskRecord, TaskState,
};
use bioopera_cluster::SimTime;
use bioopera_ocr::model::{ParallelBody, ProcessTemplate, TaskKind};
use bioopera_ocr::value::Value;
use bioopera_ocr::ExternalBinding;
use bioopera_store::{push_shard_prefix, shard_key, Batch, Space};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One process instance as a server holds it in memory.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The resolved template (shared, immutable).
    pub template: Arc<ProcessTemplate>,
    /// Header record.
    pub header: InstanceHeader,
    /// Task records by path.
    pub tasks: TaskMap,
    /// Next event/effect sequence number on the shard path (in-memory;
    /// the total order only has to hold within one engine lifetime).  The
    /// serial runtime leaves it at zero.
    pub seq: u64,
}

/// What a task record stands for in its instance's template.
pub enum Role<'t> {
    /// A program run on a node: a template activity, or a child of a
    /// parallel task with an activity body.
    Activity(&'t ExternalBinding),
    /// A parallel task: expanded in place, concluded by its children.
    ParallelParent,
    /// Implemented by a child instance of the named template: a template
    /// subprocess task, or a child of a parallel task with a subprocess
    /// body.
    Subprocess(&'t str),
    /// Not in the template (foreign journal record, template mismatch).
    Unknown,
}

impl Role<'_> {
    /// A *container*'s state is driven by something else — a parallel
    /// parent by its children, a subprocess by its child instance.
    /// Containers are never re-queued directly (that would duplicate
    /// running work) and their CPU is counted through what they contain.
    pub fn is_container(&self) -> bool {
        matches!(self, Role::ParallelParent | Role::Subprocess(_))
    }
}

fn role<'t>(template: &'t ProcessTemplate, rec: &TaskRecord) -> Role<'t> {
    if let Some(parent) = rec.parallel_parent() {
        return match navigator::parallel_body(template, parent) {
            Some(ParallelBody::Activity(b)) => Role::Activity(b),
            Some(ParallelBody::Subprocess(t)) => Role::Subprocess(t),
            None => Role::Unknown,
        };
    }
    match template.task(&rec.path).map(|t| &t.kind) {
        Some(TaskKind::Activity { binding }) => Role::Activity(binding),
        Some(TaskKind::Parallel { .. }) => Role::ParallelParent,
        Some(TaskKind::Subprocess { template }) => Role::Subprocess(template),
        None => Role::Unknown,
    }
}

/// What recovery found a record to be (see
/// [`Instance::resolve_in_doubt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InDoubt {
    /// It was `Ready`: the queue entry died with the server.
    Requeue,
    /// A `Dispatched` activity: its grant died with the server.
    LostGrant,
    /// A `Dispatched` subprocess with no child instance: the crash fell
    /// between this record's commit and the child's first.
    LostSpawn,
}

/// One record the in-doubt rule decided (see
/// [`Instance::resolve_in_doubt`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolved {
    /// The task record's path.
    pub path: String,
    /// What the record was found to be.
    pub verdict: InDoubt,
    /// Whether the rule changed the record: a rewind, or a `ready_at` it
    /// had to stamp.  A record it left as it was still equals its stored
    /// copy, so a recovery that persists only the changed ones writes
    /// what the crash undid and nothing else.
    pub changed: bool,
}

/// What a driver's last recovery read, found in doubt and wrote:
/// the journal's open (`Journal::open`) fills in what the store's open
/// replayed, the driver's rebuild the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Instances read from the journal.
    pub instances: u64,
    /// In-doubt records by [`InDoubt`] kind: queued ones …
    pub requeue: u64,
    /// … dispatched activities whose grant died with the server …
    pub lost_grant: u64,
    /// … and dispatched subprocess tasks whose child never came up.
    pub lost_spawn: u64,
    /// Task records recovery wrote back: those the in-doubt rule changed
    /// and those a re-spawn stamped anew.  Every other in-doubt record
    /// already equals its stored copy and is left out — a re-spawn's too,
    /// when a recovery that crashed at the same round stored its stamp.
    pub rewritten: u64,
    /// Acknowledged submissions whose start died with the server, routed
    /// again (the sharded engine's; the serial runtime acknowledges none
    /// before it commits the instance).
    pub pending_rerouted: u64,
    /// WAL bytes the store's open replayed …
    pub wal_replayed_bytes: u64,
    /// … and the torn tail it truncated.
    pub wal_truncated_bytes: u64,
    /// Sorted runs the store's open found.
    pub runs: u64,
}

impl RecoveryReport {
    /// Count one record the in-doubt rule found to be `verdict`.
    pub fn found(&mut self, verdict: InDoubt) {
        *match verdict {
            InDoubt::Requeue => &mut self.requeue,
            InDoubt::LostGrant => &mut self.lost_grant,
            InDoubt::LostSpawn => &mut self.lost_spawn,
        } += 1;
    }
}

/// What happened to an instance ([`Instance::react`]).
#[derive(Debug)]
pub enum Input {
    /// The task at `path` ended with `outputs`, having used `cpu_ms`.
    TaskEnded {
        path: String,
        outputs: BTreeMap<String, Value>,
        cpu_ms: f64,
    },
    /// An attempt at the task at `path` failed.
    TaskFailed { path: String, kind: FailureKind },
    /// Child instance `child` of the subprocess task at `path` ended:
    /// `concluded` holds its whiteboard and CPU if it completed, and is
    /// `None` if it aborted.
    ChildDone {
        path: String,
        child: InstanceId,
        concluded: Option<(BTreeMap<String, Value>, f64)>,
    },
    /// The instance was resumed.
    Resume,
}

/// One thing a [`Reaction`] asks of its driver.
#[derive(Debug)]
pub enum Effect {
    /// Note this event in the history.
    Note(EventKind),
    /// The task at this path became ready: [`Instance::activate`] it.
    Ready(String),
    /// Run `task`'s compensation `program` on `inputs`, the task's inputs
    /// as bound now; the result is discarded.
    Compensate {
        task: String,
        program: String,
        inputs: BTreeMap<String, Value>,
    },
    /// The instance ended: conclude the subprocess task `task` of instance
    /// `parent` with `success`, the whiteboard as `outputs` and the CPU it
    /// used ([`Instance::child_cpu_ms`]).
    Conclude {
        parent: InstanceId,
        task: String,
        success: bool,
        outputs: BTreeMap<String, Value>,
        cpu_ms: f64,
    },
}

/// What a driver does after a reaction, in order ([`Instance::react`]).
pub type Reaction = Vec<Effect>;

/// What a ready task asks of its driver ([`Instance::activate`]).
#[derive(Debug)]
pub enum Activation<'a> {
    /// The record is not `Ready` any more: nothing to do.
    Skip,
    /// The task waits, `Ready`: its instance is not running, or its retry
    /// deadline is still ahead.
    Park,
    /// The record is gone, or the template does not know it: note a stale
    /// event with this context.
    Stale(&'static str),
    /// An activity: ask for a node that may run it.
    Request(&'a ExternalBinding),
    /// A subprocess, now `Dispatched`: start a child instance of the
    /// template called `template` on the whiteboard `initial`.
    Spawn {
        template: String,
        initial: BTreeMap<String, Value>,
    },
    /// A parallel task, now expanded: activate `children` after the tasks
    /// already waiting, then route `reaction` (an empty list concludes the
    /// task at once).
    Expand {
        children: Vec<String>,
        reaction: Reaction,
    },
}

impl Instance {
    /// A fresh instance of `template`, its records created and its entry
    /// tasks `Ready` ([`navigator::init_instance`]), with the reaction its
    /// driver routes ([`Instance::settle`]).
    pub fn create(
        template: Arc<ProcessTemplate>,
        id: InstanceId,
        parent: Option<(InstanceId, String)>,
        now: SimTime,
        initial: &BTreeMap<String, Value>,
        dirty: &mut Dirty,
    ) -> EngineResult<(Self, Reaction)> {
        let mut inst = Instance {
            header: InstanceHeader {
                id,
                template: template.name.clone(),
                status: InstanceStatus::Running,
                whiteboard: BTreeMap::new(),
                parent,
                created_at: now,
                ended_at: None,
            },
            tasks: BTreeMap::new(),
            seq: 0,
            template,
        };
        let outcome = navigator::init_instance(&mut inst.view(), initial)?;
        let reaction = inst.settle(outcome, now, dirty);
        Ok((inst, reaction))
    }

    /// React to `input` at `now`: run the navigator, mark what it wrote in
    /// `dirty`, and return what the driver does next ([`Instance::settle`]).
    ///
    /// A `ChildDone` for a task that is not `Dispatched` — a second
    /// delivery, say of an orphan that finished after its task was
    /// re-driven — changes nothing: its reaction is a
    /// `SubprocessDuplicate` note alone (a `StaleEvent` if there is no
    /// such task).  A `Resume` readies the failed tasks it gives another
    /// chance; the tasks parked `Ready` while the instance was suspended
    /// are the driver's to wake.
    pub fn react(
        &mut self,
        input: Input,
        now: SimTime,
        dirty: &mut Dirty,
    ) -> EngineResult<Reaction> {
        let outcome = match input {
            Input::TaskEnded {
                path,
                outputs,
                cpu_ms,
            } => navigator::on_task_ended(&mut self.view(), &path, outputs, now, cpu_ms)?,
            Input::TaskFailed { path, kind } => {
                navigator::on_task_failed(&mut self.view(), &path, kind, now)?
            }
            Input::ChildDone {
                path,
                child,
                concluded,
            } => {
                let instance = self.header.id;
                let note = match self.tasks.get(&path).map(|r| r.state) {
                    Some(TaskState::Dispatched) => {
                        let input = match concluded {
                            Some((whiteboard, cpu_ms)) => Input::TaskEnded {
                                outputs: self.subprocess_outputs(&path, whiteboard),
                                path,
                                cpu_ms,
                            },
                            None => Input::TaskFailed {
                                path,
                                kind: FailureKind::Program,
                            },
                        };
                        return self.react(input, now, dirty);
                    }
                    Some(_) => EventKind::SubprocessDuplicate {
                        instance,
                        path,
                        child,
                    },
                    None => EventKind::StaleEvent {
                        instance,
                        path: Some(path),
                        context: "child completion: unknown task".to_string(),
                    },
                };
                return Ok(vec![Effect::Note(note)]);
            }
            Input::Resume => navigator::on_resume(&mut self.view(), now),
        };
        Ok(self.settle(outcome, now, dirty))
    }

    /// What [`Instance::react`] does after its navigator call, for a
    /// caller that navigated `outcome` itself (a creation, a
    /// recomputation, an operator restart).  It marks the header and every
    /// record the navigation touched in `dirty` — each touched record's
    /// queue stamp normalised first: one entering `Ready` carries the time
    /// it queued (the first stamp wins), one leaving it drops the stamp —
    /// and returns, in order: `Note(TaskCompensate)` + `Compensate` per
    /// compensation, `Ready` per ready task, `Note(InstanceSuspend)` if a
    /// failure policy suspended the instance, `Note(InstanceComplete)` or
    /// `Note(InstanceAbort)` if it ended, and then `Conclude` if it is a
    /// child.
    pub fn settle(&mut self, outcome: NavOutcome, now: SimTime, dirty: &mut Dirty) -> Reaction {
        drain(&mut self.view(), outcome, now, dirty)
    }

    /// Activate the task at `path`, which became ready: a task waits
    /// (`Park`) while its instance is not running — or, an activity,
    /// until its retry deadline (which only `Runtime`'s dependability
    /// policy sets) has passed; a record no longer `Ready` is skipped; an
    /// activity asks for a node; a subprocess is stamped `Dispatched` and
    /// spawns; a parallel task expands, marking its records in `dirty`;
    /// anything else is stale.  A ready record carries its queue stamp
    /// already ([`Instance::settle`]).
    pub fn activate(
        &mut self,
        path: &str,
        now: SimTime,
        dirty: &mut Dirty,
    ) -> EngineResult<Activation<'_>> {
        if self.header.status != InstanceStatus::Running {
            return Ok(Activation::Park);
        }
        let mut view = self.view();
        let template = view.template;
        let Some(rec) = view.tasks.get(path) else {
            return Ok(Activation::Stale("ready task has no record"));
        };
        if rec.state != TaskState::Ready {
            return Ok(Activation::Skip);
        }
        Ok(match role(template, rec) {
            Role::Activity(_) if rec.retry_at().is_some_and(|t| t > now) => Activation::Park,
            Role::Activity(binding) => Activation::Request(binding),
            Role::Subprocess(child) => match dispatch_subprocess(&mut view, path, now) {
                Some(initial) => Activation::Spawn {
                    template: child.to_string(),
                    initial,
                },
                None => Activation::Stale("ready task has no record"),
            },
            Role::ParallelParent => {
                let (children, outcome) = navigator::expand_parallel(&mut view, path, now)?;
                Activation::Expand {
                    children,
                    reaction: drain(&mut view, outcome, now, dirty),
                }
            }
            Role::Unknown => Activation::Stale("ready task not in template"),
        })
    }

    /// The navigator's view of this instance.
    pub fn view(&mut self) -> InstanceView<'_> {
        InstanceView {
            template: &self.template,
            header: &mut self.header,
            tasks: &mut self.tasks,
        }
    }

    /// What `rec` (a record of this instance) stands for.
    pub fn role(&self, rec: &TaskRecord) -> Role<'_> {
        role(&self.template, rec)
    }

    /// The input structure of the task at `path` as bound now: a parallel
    /// child carries its own (item, index, the parent's pass-through
    /// inputs); a template task binds declaration defaults, whiteboard
    /// flows and values mapped in by predecessors.  `None` without a
    /// record.
    pub fn bind_inputs(&self, path: &str) -> Option<BTreeMap<String, Value>> {
        bind_inputs(&self.template, &self.header, &self.tasks, path)
    }

    /// Activate the `Ready` subprocess task at `path`: bind its inputs,
    /// stamp the record `Dispatched` and return the child to start —
    /// `(template name, initial whiteboard)`.  The name is resolved
    /// against the template space by the caller, *now* (late binding).
    /// `None` when there is no such record or it is not a subprocess.
    pub fn begin_subprocess(
        &mut self,
        path: &str,
        now: SimTime,
    ) -> Option<(String, BTreeMap<String, Value>)> {
        let Role::Subprocess(child) = role(&self.template, self.tasks.get(path)?) else {
            return None;
        };
        let child = child.to_string();
        Some((child, dispatch_subprocess(&mut self.view(), path, now)?))
    }

    /// The outputs the subprocess task at `path` takes from its finished
    /// child's `whiteboard`: a template task keeps only its declared
    /// outputs (all of them if it declares none); a child of a parallel
    /// subprocess body collects the whole whiteboard.
    pub fn subprocess_outputs(
        &self,
        path: &str,
        mut whiteboard: BTreeMap<String, Value>,
    ) -> BTreeMap<String, Value> {
        let is_child = self.tasks.get(path).is_some_and(|r| r.is_parallel_child());
        if let Some(decl) = self.template.task(path).filter(|_| !is_child) {
            if !decl.outputs.is_empty() {
                whiteboard.retain(|k, _| decl.outputs.iter().any(|f| &f.name == k));
            }
        }
        whiteboard
    }

    /// The reference CPU this finished instance reports to the task that
    /// spawned it: every record's but a parallel child's (the parallel
    /// parent already carries its children's sum).  A container — a
    /// parallel parent or a subprocess task — carries what it contains.
    pub fn child_cpu_ms(&self) -> f64 {
        child_cpu_ms(&self.tasks)
    }

    /// This instance as the what-if planner sees it.
    pub fn planner_view(&self) -> PlannerInstance {
        PlannerInstance {
            id: self.header.id,
            template: self.header.template.clone(),
            tasks: self
                .tasks
                .values()
                .map(|rec| PlannerTask {
                    path: rec.path.clone(),
                    state: rec.state,
                    binding: planner::binding_of(
                        &self.template,
                        rec.parallel_parent().unwrap_or(&rec.path),
                    ),
                })
                .collect(),
        }
    }

    // ---- journal: writer ----

    /// Append a navigation commit to `batch`: the header — every commit
    /// of an instance carries it — plus the task records at `paths`,
    /// keyed under `shard`'s journal prefix (`None`: the unsharded serial
    /// journal).  Records are encoded through `scratch`, the caller's
    /// buffer, reused from commit to commit.
    pub fn commit_into(
        &self,
        batch: &mut Batch,
        shard: Option<usize>,
        paths: impl IntoIterator<Item = impl AsRef<str>>,
        scratch: &mut String,
    ) {
        let key = journal_key(shard, self.header.id, None);
        batch.put_record(Space::Instance, key, &self.header, scratch);
        self.tasks_into(batch, shard, paths, scratch);
    }

    /// Append the task records at `paths` alone: a dispatch stamp or a
    /// recovery rewind changes no header.  Paths without a record are
    /// skipped.
    pub fn tasks_into(
        &self,
        batch: &mut Batch,
        shard: Option<usize>,
        paths: impl IntoIterator<Item = impl AsRef<str>>,
        scratch: &mut String,
    ) {
        for path in paths {
            let path = path.as_ref();
            if let Some(rec) = self.tasks.get(path) {
                let key = journal_key(shard, self.header.id, Some(path));
                batch.put_record(Space::Instance, key, rec.as_ref(), scratch);
            }
        }
    }

    /// Append what `marks` names of this instance to `batch`: a marked
    /// header with its marked records, or the marked records alone.
    pub fn marked_into(
        &self,
        batch: &mut Batch,
        shard: Option<usize>,
        marks: &Marks,
        scratch: &mut String,
    ) {
        if marks.header {
            self.commit_into(batch, shard, &marks.tasks, scratch);
        } else {
            self.tasks_into(batch, shard, &marks.tasks, scratch);
        }
    }

    // ---- recovery: the in-doubt rule ----

    /// Decide every record a dead server left in doubt.  `children` holds
    /// the `(parent instance, parent task)` link of every instance in the
    /// journal ([`child_links`]); `now` is the recovery time.
    ///
    /// | record                              | verdict                         |
    /// |-------------------------------------|---------------------------------|
    /// | `Ready`, any role                   | [`InDoubt::Requeue`]            |
    /// | `Dispatched` activity / unknown     | [`InDoubt::LostGrant`] → rewind |
    /// | `Dispatched` parallel parent        | left: its children conclude it  |
    /// | `Dispatched` subprocess, child link | left: the child reports itself  |
    /// | `Dispatched` subprocess, no child   | [`InDoubt::LostSpawn`] → rewind |
    ///
    /// A *rewind* puts the record back to `Ready` with no node.  Every
    /// returned record is `Ready` afterwards and carries a `ready_at`: a
    /// record that sat `Ready` through the outage keeps its persisted
    /// stamp, so queue-wait metrics span the outage; a rewound one (a
    /// dispatched record carries no stamp) starts its wait at `now`.
    /// [`Resolved::changed`] says which records that made different from
    /// what the journal holds.
    ///
    /// The rule is the same for a suspended instance — nothing in doubt
    /// may be lost — and returns nothing for a terminal one.  What the
    /// caller does with the returned records is the driver's business:
    /// persist the changed ones, then queue / re-request / re-spawn every
    /// one — or, for a suspended instance, leave them parked for `resume`.
    pub fn resolve_in_doubt(
        &mut self,
        now: SimTime,
        children: &BTreeSet<(InstanceId, String)>,
    ) -> Vec<Resolved> {
        let mut resolved = Vec::new();
        if self.header.status.is_terminal() {
            return resolved;
        }
        let id = self.header.id;
        for rec in self.tasks.values_mut() {
            let verdict = match rec.state {
                TaskState::Ready => InDoubt::Requeue,
                TaskState::Dispatched => match role(&self.template, rec) {
                    Role::ParallelParent => continue,
                    Role::Subprocess(_) if children.contains(&(id, rec.path.clone())) => continue,
                    Role::Subprocess(_) => InDoubt::LostSpawn,
                    Role::Activity(_) | Role::Unknown => InDoubt::LostGrant,
                },
                _ => continue,
            };
            let changed =
                rec.state != TaskState::Ready || rec.node.is_some() || rec.ready_at.is_none();
            rec.state = TaskState::Ready;
            rec.node = None;
            rec.ready_at.get_or_insert(now);
            resolved.push(Resolved {
                path: rec.path.clone(),
                verdict,
                changed,
            });
        }
        resolved
    }
}

// What `Instance::activate` does after it has borrowed the template for
// the binding it may return is written over an instance's parts (a
// navigator view), which leave the template borrowable.

/// [`Instance::bind_inputs`] over an instance's parts.
fn bind_inputs(
    template: &ProcessTemplate,
    header: &InstanceHeader,
    tasks: &TaskMap,
    path: &str,
) -> Option<BTreeMap<String, Value>> {
    let rec = tasks.get(path)?;
    Some(if rec.is_parallel_child() {
        rec.inputs.to_map()
    } else {
        navigator::bind_inputs_parts(template, header, tasks, path)
    })
}

/// [`Instance::child_cpu_ms`] over an instance's records.
fn child_cpu_ms(tasks: &TaskMap) -> f64 {
    tasks
        .values()
        .filter(|r| !r.is_parallel_child())
        .map(|r| r.cpu_ms)
        .sum()
}

/// Stamp the subprocess record at `path` `Dispatched` on the inputs it
/// binds now, and return them: the child's initial whiteboard.
fn dispatch_subprocess(
    view: &mut InstanceView<'_>,
    path: &str,
    now: SimTime,
) -> Option<BTreeMap<String, Value>> {
    let initial = bind_inputs(view.template, view.header, view.tasks, path)?;
    let rec = view.tasks.get_mut(path)?;
    rec.state = TaskState::Dispatched;
    rec.started_at = Some(now);
    rec.ready_at = None;
    rec.inputs = initial.clone().into();
    Some(initial)
}

/// [`Instance::settle`] over a view.
fn drain(
    view: &mut InstanceView<'_>,
    outcome: NavOutcome,
    now: SimTime,
    dirty: &mut Dirty,
) -> Reaction {
    let instance = view.header.id;
    for path in &outcome.touched {
        if let Some(rec) = view.tasks.get_mut(path) {
            if rec.state == TaskState::Ready {
                rec.ready_at.get_or_insert(now);
            } else {
                rec.ready_at = None;
            }
        }
    }
    dirty.nav(instance, &outcome);
    let mut reaction = Vec::new();
    for (task, program) in outcome.compensations {
        let inputs = bind_inputs(view.template, view.header, view.tasks, &task).unwrap_or_default();
        reaction.push(Effect::Note(EventKind::TaskCompensate {
            instance,
            path: task.clone(),
            program: program.clone(),
        }));
        reaction.push(Effect::Compensate {
            task,
            program,
            inputs,
        });
    }
    reaction.extend(outcome.newly_ready.into_iter().map(Effect::Ready));
    if outcome.suspended {
        reaction.push(Effect::Note(EventKind::InstanceSuspend { instance }));
    }
    if outcome.completed || outcome.aborted {
        reaction.push(Effect::Note(if outcome.completed {
            EventKind::InstanceComplete { instance }
        } else {
            EventKind::InstanceAbort { instance }
        }));
        if let Some((parent, task)) = view.header.parent.clone() {
            reaction.push(Effect::Conclude {
                parent,
                task,
                success: outcome.completed,
                outputs: view.header.whiteboard.clone(),
                cpu_ms: child_cpu_ms(view.tasks),
            });
        }
    }
    reaction
}

/// The `(parent instance, parent task path)` link of every instance that
/// implements a subprocess task — terminal children included: a finished
/// child whose parent never heard of it is re-delivered, not re-spawned.
pub fn child_links<'a>(
    instances: impl IntoIterator<Item = &'a Instance>,
) -> BTreeSet<(InstanceId, String)> {
    instances
        .into_iter()
        .filter_map(|inst| inst.header.parent.clone())
        .collect()
}

// ---- journal: what a step wrote ----

/// The records a step wrote and has not committed yet.  Both drivers mark
/// into one as they go — a navigation, a dispatch stamp, a recovery
/// rewind — and write it at their one commit as one batch per instance,
/// in id order ([`Instance::marked_into`]): a record written twice in a
/// step is committed once, as the step left it.
#[derive(Debug, Default)]
pub struct Dirty(BTreeMap<InstanceId, Marks>);

/// What one instance has in a [`Dirty`] set.
#[derive(Debug, Default)]
pub struct Marks {
    header: bool,
    tasks: BTreeSet<String>,
}

impl Dirty {
    /// Mark `id`'s header.
    pub fn header(&mut self, id: InstanceId) {
        self.0.entry(id).or_default().header = true;
    }

    /// Mark the task record at `path` alone: a dispatch stamp or a
    /// recovery rewind changes no header.
    pub fn task(&mut self, id: InstanceId, path: &str) {
        self.0.entry(id).or_default().tasks.insert(path.to_string());
    }

    /// Mark what a navigation wrote: the header and every record it
    /// touched ([`NavOutcome::touched`]).
    fn nav(&mut self, id: InstanceId, outcome: &NavOutcome) {
        let marks = self.0.entry(id).or_default();
        marks.header = true;
        marks.tasks.extend(outcome.touched.iter().cloned());
    }

    /// The marks, by instance id.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, &Marks)> {
        self.0.iter().map(|(id, marks)| (*id, marks))
    }

    /// Add `other`'s marks to these.
    pub fn absorb(&mut self, other: Dirty) {
        for (id, marks) in other.0 {
            let into = self.0.entry(id).or_default();
            into.header |= marks.header;
            into.tasks.extend(marks.tasks);
        }
    }

    /// Whether `id`'s header or its task record at `path` is marked: what
    /// an activation of that record reads.
    pub fn touches(&self, id: InstanceId, path: &str) -> bool {
        self.0
            .get(&id)
            .is_some_and(|marks| marks.header || marks.tasks.contains(path))
    }
}

// ---- journal: shard meta record, keys, reader ----

/// Per-round shard metadata record (`s{NNNN}/meta`): the last round this
/// shard committed, used to resume the round clock after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardMeta {
    /// Last committed round.
    pub round: u64,
}

const META_KEY: &str = "meta";

impl ShardMeta {
    /// Append this record to `batch` under `shard`'s journal prefix.
    pub fn put_into(&self, batch: &mut Batch, shard: usize, scratch: &mut String) {
        batch.put_record(Space::Instance, shard_key(shard, META_KEY), self, scratch);
    }
}

/// The journal key of instance `id`'s header (no `path`) or of its task
/// record at `path`, under `shard`'s prefix: built in one pass, into one
/// allocation of its final size.
fn journal_key(shard: Option<usize>, id: InstanceId, path: Option<&str>) -> String {
    // `s0000/` + `inst/000000000000/` + `task/` + path, or + `header`.
    let prefix = shard.map_or(0, |_| 6);
    let mut key = String::with_capacity(prefix + 18 + 5 + path.map_or(1, str::len));
    if let Some(shard) = shard {
        push_shard_prefix(&mut key, shard);
    }
    keys::push_record(&mut key, id, path);
    key
}

/// `key` (shard prefix stripped) as the store holds it, to name in an
/// error.
fn stored_key(shard: Option<usize>, key: &str) -> String {
    match shard {
        Some(s) => shard_key(s, key),
        None => key.to_string(),
    }
}

/// Split `inst/{id}/header` or `inst/{id}/task/{path}` (shard prefix
/// already stripped) into the id and, for a task record, its path.
/// `None` for a key of any other shape.
fn parse_key(shard: Option<usize>, key: &str) -> EngineResult<Option<(InstanceId, Option<&str>)>> {
    let Some((id, tail)) = key
        .strip_prefix("inst/")
        .and_then(|rest| rest.split_once('/'))
    else {
        return Ok(None);
    };
    let path = match tail {
        "header" => None,
        _ => match tail.strip_prefix("task/") {
            Some(path) => Some(path),
            None => return Ok(None),
        },
    };
    let id = id.parse().map_err(|_| {
        let key = stored_key(shard, key);
        EngineError::Internal(format!("bad instance key {key}"))
    })?;
    Ok(Some((id, path)))
}

/// Rebuilds instances from journal records as a scan hands them over —
/// `visit_prefix("inst/")` of the serial journal, `visit_shard` of a
/// shard's (prefix stripped; `shard` only names keys in errors) — one
/// record at a time, **in key order**: an instance's header sorts before
/// its task records and nothing sorts between them, so each record is
/// parsed and decoded once and lands in the instance being built; no list
/// of the records is kept.  `template` resolves a header's template name.
///
/// The store is CRC-framed, so a record that is there but does not decode
/// — or a header whose template is gone — is a format fault, not a torn
/// write: it fails the recovery, naming the key, instead of silently
/// deleting a task or an instance.  Keys of no known shape are not ours
/// and are skipped, as is a task record with no header beside it.
pub struct JournalReader<F> {
    shard: Option<usize>,
    template: F,
    /// Finished instances, in the order the scan met them.
    instances: Vec<(InstanceId, Instance)>,
    meta: Option<ShardMeta>,
}

impl<F: FnMut(&str) -> EngineResult<Arc<ProcessTemplate>>> JournalReader<F> {
    /// A reader of `shard`'s journal (`None`: the serial one).
    pub fn new(shard: Option<usize>, template: F) -> Self {
        JournalReader {
            shard,
            template,
            instances: Vec::new(),
            meta: None,
        }
    }

    /// Take in the record at `key`.
    pub fn read(&mut self, key: &str, bytes: &[u8]) -> EngineResult<()> {
        if key == META_KEY {
            self.meta = Some(self.decode("shard meta", key, bytes)?);
            return Ok(());
        }
        match parse_key(self.shard, key)? {
            None => {}
            Some((id, None)) => {
                let header: InstanceHeader = self.decode("header", key, bytes)?;
                let inst = Instance {
                    template: (self.template)(&header.template)?,
                    header,
                    tasks: BTreeMap::new(),
                    seq: 0,
                };
                self.instances.push((id, inst));
            }
            Some((id, Some(path))) => {
                let rec: TaskRecord = self.decode("task", key, bytes)?;
                // The header came just before, or there is none.
                if let Some((_, inst)) = self.instances.last_mut().filter(|(at, _)| *at == id) {
                    inst.tasks.insert(path.to_string(), Box::new(rec));
                }
            }
        }
        Ok(())
    }

    /// The instances read, and the shard meta record if the scan held one.
    pub fn finish(self) -> (BTreeMap<InstanceId, Instance>, Option<ShardMeta>) {
        (self.instances.into_iter().collect(), self.meta)
    }

    fn decode<T: serde::de::DeserializeOwned>(
        &self,
        what: &str,
        key: &str,
        bytes: &[u8],
    ) -> EngineResult<T> {
        serde_json::from_slice(bytes).map_err(|e| {
            let key = stored_key(self.shard, key);
            EngineError::Internal(format!("corrupt {what} {key}: {e}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioopera_ocr::model::TypeTag;
    use bioopera_ocr::ProcessBuilder;

    /// One task of every kind: activity `A`, parallel `P` over an activity
    /// body, parallel `Q` over a subprocess body, subprocess `S`.
    fn template() -> Arc<ProcessTemplate> {
        let t = ProcessBuilder::new("Kinds")
            .whiteboard_field("kept", TypeTag::Int)
            .activity("A", "p.a", |t| t)
            .parallel(
                "P",
                "items",
                ParallelBody::Activity(ExternalBinding::program("p.body")),
                "results",
                |t| t,
            )
            .parallel(
                "Q",
                "items",
                ParallelBody::Subprocess("Chunk".into()),
                "results",
                |t| t,
            )
            .subprocess("S", "Sub", |t| t.output("kept", TypeTag::Int))
            .build()
            .unwrap();
        Arc::new(t)
    }

    fn instance(id: InstanceId) -> Instance {
        let dirty = &mut Dirty::default();
        Instance::create(template(), id, None, SimTime::ZERO, &BTreeMap::new(), dirty)
            .unwrap()
            .0
    }

    #[test]
    fn role_follows_the_template_and_the_parallel_body() {
        let inst = instance(1);
        let role_of = |path: &str| match inst.role(&TaskRecord::new(path)) {
            Role::Activity(b) => format!("activity {}", b.program),
            Role::ParallelParent => "parallel".to_string(),
            Role::Subprocess(t) => format!("subprocess {t}"),
            Role::Unknown => "unknown".to_string(),
        };
        assert_eq!(role_of("A"), "activity p.a");
        assert_eq!(role_of("P"), "parallel");
        assert_eq!(role_of("P[3]"), "activity p.body");
        assert_eq!(role_of("Q"), "parallel");
        assert_eq!(role_of("Q[0]"), "subprocess Chunk");
        assert_eq!(role_of("S"), "subprocess Sub");
        assert_eq!(role_of("Ghost"), "unknown");
        assert_eq!(role_of("A[0]"), "unknown");
        for (path, container) in [("A", false), ("P[3]", false), ("Ghost", false)]
            .into_iter()
            .chain([("P", true), ("Q[0]", true), ("S", true)])
        {
            let rec = TaskRecord::new(path);
            assert_eq!(inst.role(&rec).is_container(), container, "{path}");
        }
    }

    /// The recovery contract, one row per case.  `child` says whether an
    /// instance with `header.parent == (this instance, path)` is in the
    /// journal; `parked` whether this instance is suspended.
    #[test]
    fn in_doubt_rule_table() {
        use InDoubt::*;
        use TaskState::{Dispatched, Ready};
        const ID: InstanceId = 7;
        #[rustfmt::skip]
        let table: &[(&str, TaskState, bool, bool, Option<InDoubt>)] = &[
            // path    state       child  parked  verdict
            // -- activity (template task, parallel child) and unknown: a
            //    queue entry is re-queued, a grant is rewound.
            ("A",     Ready,      false, false, Some(Requeue)),
            ("A",     Ready,      false, true,  Some(Requeue)),
            ("A",     Dispatched, false, false, Some(LostGrant)),
            ("A",     Dispatched, false, true,  Some(LostGrant)),
            ("P[0]",  Ready,      false, false, Some(Requeue)),
            ("P[0]",  Dispatched, false, false, Some(LostGrant)),
            ("P[0]",  Dispatched, false, true,  Some(LostGrant)),
            ("Ghost", Ready,      false, false, Some(Requeue)),
            ("Ghost", Dispatched, false, false, Some(LostGrant)),
            // -- parallel parent: Ready is a queue entry like any other;
            //    Dispatched is concluded by its child records.
            ("P",     Ready,      false, false, Some(Requeue)),
            ("P",     Ready,      false, true,  Some(Requeue)),
            ("P",     Dispatched, false, false, None),
            ("P",     Dispatched, false, true,  None),
            ("Q",     Dispatched, false, false, None),
            // -- subprocess (template task, child of a subprocess body):
            //    with a child instance in the journal it is left — the
            //    child reports, or its completion is re-delivered; with
            //    none the spawn was lost and is rewound.
            ("S",     Ready,      false, false, Some(Requeue)),
            ("S",     Ready,      false, true,  Some(Requeue)),
            ("S",     Dispatched, true,  false, None),
            ("S",     Dispatched, true,  true,  None),
            ("S",     Dispatched, false, false, Some(LostSpawn)),
            ("S",     Dispatched, false, true,  Some(LostSpawn)),
            ("Q[0]",  Ready,      false, false, Some(Requeue)),
            ("Q[0]",  Dispatched, true,  false, None),
            ("Q[0]",  Dispatched, true,  true,  None),
            ("Q[0]",  Dispatched, false, false, Some(LostSpawn)),
            ("Q[0]",  Dispatched, false, true,  Some(LostSpawn)),
        ];
        let now = SimTime::from_secs(90);
        for &(path, state, child, parked, expect) in table {
            let row = format!("{path} {state:?} child={child} parked={parked}");
            let mut inst = instance(ID);
            // Only the row's record is in doubt.
            for rec in inst.tasks.values_mut() {
                rec.state = TaskState::Inactive;
            }
            if parked {
                inst.header.status = InstanceStatus::Suspended;
            }
            let mut rec = TaskRecord::new(path);
            rec.state = state;
            rec.node = (state == Dispatched).then(|| "n1".to_string());
            inst.tasks.insert(path.to_string(), Box::new(rec));
            let before = inst.tasks[path].clone();
            // A child of some *other* task or instance never counts.
            let mut children =
                BTreeSet::from([(ID, "Other".to_string()), (ID + 1, path.to_string())]);
            if child {
                children.insert((ID, path.to_string()));
            }
            let resolved = inst.resolve_in_doubt(now, &children);
            let after = &inst.tasks[path];
            match expect {
                None => {
                    assert!(resolved.is_empty(), "{row}: {resolved:?}");
                    assert_eq!(after, &before, "{row}: a left record is untouched");
                }
                Some(verdict) => {
                    // No row's record carries a stamp: each is changed.
                    let expect = Resolved {
                        path: path.to_string(),
                        verdict,
                        changed: true,
                    };
                    assert_eq!(resolved, vec![expect], "{row}");
                    assert_eq!(after.state, Ready, "{row}");
                    assert_eq!(after.node, None, "{row}");
                    assert_eq!(after.ready_at, Some(now), "{row}");
                }
            }
        }
    }

    #[test]
    fn in_doubt_rule_keeps_a_persisted_stamp_and_skips_terminal_instances() {
        let mut inst = instance(1);
        let queued = SimTime::from_secs(5);
        // `create` left all four entry tasks Ready and stamped; in the
        // journal of a server that died before the others were stamped,
        // only `A` carries its stamp, so only `A` is left as the journal
        // holds it.
        for rec in inst.tasks.values_mut() {
            rec.ready_at = (rec.path == "A").then_some(queued);
        }
        let resolved = inst.resolve_in_doubt(SimTime::from_secs(90), &BTreeSet::new());
        assert_eq!(resolved.len(), 4, "{resolved:?}");
        for r in &resolved {
            assert_eq!(r.verdict, InDoubt::Requeue, "{r:?}");
            assert_eq!(r.changed, r.path != "A", "{r:?}");
        }
        assert_eq!(
            inst.tasks["A"].ready_at,
            Some(queued),
            "the wait spans the outage"
        );
        // The rule decided everything there was: a second pass changes
        // nothing.
        let again = inst.resolve_in_doubt(SimTime::from_secs(95), &BTreeSet::new());
        assert_eq!(again.len(), 4);
        assert!(again.iter().all(|r| !r.changed), "{again:?}");
        // A queued record that still names a node is changed: the rule
        // takes the node away.
        inst.tasks.get_mut("A").unwrap().node = Some("n1".into());
        let noded = inst.resolve_in_doubt(SimTime::from_secs(99), &BTreeSet::new());
        assert!(
            noded.iter().any(|r| r.path == "A" && r.changed),
            "{noded:?}"
        );
        for status in [InstanceStatus::Completed, InstanceStatus::Aborted] {
            let mut done = instance(2);
            done.header.status = status;
            done.tasks.get_mut("A").unwrap().state = TaskState::Dispatched;
            assert!(done.resolve_in_doubt(queued, &BTreeSet::new()).is_empty());
            assert_eq!(done.tasks["A"].state, TaskState::Dispatched);
        }
    }

    #[test]
    fn activate_asks_by_role_and_waits_while_parked() {
        let now = SimTime::from_secs(4);
        let dirty = &mut Dirty::default();
        let mut inst = instance(1);
        let asked = |a: Activation<'_>| match a {
            Activation::Skip => "skip".to_string(),
            Activation::Park => "park".to_string(),
            Activation::Stale(why) => format!("stale: {why}"),
            Activation::Request(b) => format!("request {}", b.program),
            Activation::Spawn { template, .. } => format!("spawn {template}"),
            Activation::Expand { children, reaction } => {
                format!("expand {children:?}, {} effects", reaction.len())
            }
        };
        // An activity backing off waits for its deadline, then asks.
        let deadline = SimTime::from_secs(9);
        inst.tasks.get_mut("A").unwrap().retry_mut().retry_at = Some(deadline);
        assert_eq!(asked(inst.activate("A", now, dirty).unwrap()), "park");
        assert_eq!(
            asked(inst.activate("A", deadline, dirty).unwrap()),
            "request p.a"
        );
        assert_eq!(asked(inst.activate("S", now, dirty).unwrap()), "spawn Sub");
        assert_eq!(inst.tasks["S"].state, TaskState::Dispatched);
        assert_eq!(asked(inst.activate("S", now, dirty).unwrap()), "skip");
        // `Q` expands into its items' children, stamped as they queue;
        // `P` has no items, so its expansion concludes it at once.
        let q = inst.tasks.get_mut("Q").unwrap();
        q.inputs.insert("items".into(), Value::int_list(0..2));
        assert_eq!(
            asked(inst.activate("Q", now, dirty).unwrap()),
            r#"expand ["Q[0]", "Q[1]"], 0 effects"#
        );
        assert_eq!(inst.tasks["Q[1]"].ready_at, Some(now));
        assert_eq!(inst.tasks["Q"].ready_at, None);
        assert_eq!(
            asked(inst.activate("P", now, dirty).unwrap()),
            "expand [], 0 effects"
        );
        assert_eq!(inst.tasks["P"].state, TaskState::Ended);
        assert_eq!(
            asked(inst.activate("Ghost", now, dirty).unwrap()),
            "stale: ready task has no record"
        );
        inst.header.status = InstanceStatus::Suspended;
        assert_eq!(asked(inst.activate("Q[0]", now, dirty).unwrap()), "park");
    }

    #[test]
    fn react_concludes_a_subprocess_task_once() {
        let now = SimTime::from_secs(4);
        let dirty = &mut Dirty::default();
        let mut inst = instance(1);
        inst.begin_subprocess("S", now).unwrap();
        let child_done = |path: &str| Input::ChildDone {
            path: path.to_string(),
            child: 9,
            concluded: Some((
                BTreeMap::from([
                    ("kept".to_string(), Value::Int(5)),
                    ("scratch".to_string(), Value::Int(6)),
                ]),
                30.0,
            )),
        };
        let first = inst.react(child_done("S"), now, dirty).unwrap();
        assert!(first.is_empty(), "nothing follows S: {first:?}");
        let s = &inst.tasks["S"];
        assert_eq!(s.state, TaskState::Ended);
        assert_eq!(
            s.outputs.to_map(),
            BTreeMap::from([("kept".into(), Value::Int(5))])
        );
        assert_eq!(s.cpu_ms, 30.0);
        let again = inst.react(child_done("S"), now, dirty).unwrap();
        assert!(
            matches!(
                again.as_slice(),
                [Effect::Note(EventKind::SubprocessDuplicate {
                    child: 9,
                    ..
                })]
            ),
            "{again:?}"
        );
        assert_eq!(inst.tasks["S"].cpu_ms, 30.0, "a duplicate changes nothing");
        let ghost = inst.react(child_done("Ghost"), now, dirty).unwrap();
        assert!(
            matches!(
                ghost.as_slice(),
                [Effect::Note(EventKind::StaleEvent { .. })]
            ),
            "{ghost:?}"
        );
    }

    #[test]
    fn begin_subprocess_stamps_the_record_and_names_the_child() {
        let mut inst = instance(1);
        let now = SimTime::from_secs(3);
        assert_eq!(inst.begin_subprocess("A", now), None, "not a subprocess");
        assert_eq!(inst.begin_subprocess("Nope", now), None, "no record");
        let mut child = TaskRecord::new("Q[1]");
        child.state = TaskState::Ready;
        child.ready_at = Some(SimTime::ZERO);
        child.inputs.insert("item".into(), Value::Int(4));
        inst.tasks.insert("Q[1]".into(), Box::new(child));
        let (template, initial) = inst.begin_subprocess("Q[1]", now).unwrap();
        assert_eq!(template, "Chunk");
        assert_eq!(
            initial,
            BTreeMap::from([("item".to_string(), Value::Int(4))])
        );
        let rec = &inst.tasks["Q[1]"];
        assert_eq!(rec.state, TaskState::Dispatched);
        assert_eq!((rec.started_at, rec.ready_at), (Some(now), None));
        assert_eq!(rec.inputs, initial.into());
        assert_eq!(inst.begin_subprocess("S", now).unwrap().0, "Sub");
    }

    #[test]
    fn subprocess_outputs_keep_declared_fields_only_for_template_tasks() {
        let mut inst = instance(1);
        inst.tasks
            .insert("Q[0]".into(), Box::new(TaskRecord::new("Q[0]")));
        let whiteboard = BTreeMap::from([
            ("kept".to_string(), Value::Int(1)),
            ("scratch".to_string(), Value::Int(2)),
        ]);
        let declared = inst.subprocess_outputs("S", whiteboard.clone());
        assert_eq!(
            declared,
            BTreeMap::from([("kept".to_string(), Value::Int(1))])
        );
        // A child of a parallel subprocess body, and a task that declares
        // no outputs, take the whole whiteboard.
        assert_eq!(
            inst.subprocess_outputs("Q[0]", whiteboard.clone()),
            whiteboard
        );
        assert_eq!(inst.subprocess_outputs("A", whiteboard.clone()), whiteboard);
    }

    /// What a [`JournalReader`] makes of `records`, handed over in order.
    fn read_journal(
        shard: Option<usize>,
        records: &[(String, Vec<u8>)],
        template: impl FnMut(&str) -> EngineResult<Arc<ProcessTemplate>>,
    ) -> EngineResult<(BTreeMap<InstanceId, Instance>, Option<ShardMeta>)> {
        let mut reader = JournalReader::new(shard, template);
        for (key, bytes) in records {
            reader.read(key, bytes)?;
        }
        Ok(reader.finish())
    }

    fn scanned(batch: Batch, strip: &str) -> Vec<(String, Vec<u8>)> {
        let mut store = bioopera_store::Store::open(bioopera_store::MemDisk::new()).unwrap();
        store.apply(batch).unwrap();
        let all = store.scan_prefix(Space::Instance, "").unwrap();
        all.into_iter()
            .map(|(k, v)| (k.strip_prefix(strip).unwrap().to_string(), v.to_vec()))
            .collect()
    }

    /// Writer → reader, unsharded and under a shard prefix; the key
    /// strings are the frozen on-disk format.
    #[test]
    fn journal_round_trips_and_pins_the_key_strings() {
        let mut inst = instance(42);
        inst.header.whiteboard.insert("kept".into(), Value::Int(9));
        let mut child = TaskRecord::new("P[2]");
        child.state = TaskState::Dispatched;
        child.node = Some("n1".into());
        inst.tasks.insert("P[2]".into(), Box::new(child));
        let resolve = |name: &str| {
            assert_eq!(name, "Kinds");
            Ok(template())
        };
        for (shard, prefix) in [(None, ""), (Some(3), "s0003/")] {
            let mut batch = Batch::new();
            let mut scratch = String::new();
            inst.commit_into(&mut batch, shard, inst.tasks.keys(), &mut scratch);
            if let Some(s) = shard {
                ShardMeta { round: 17 }.put_into(&mut batch, s, &mut scratch);
            }
            let mut keys: Vec<String> = scanned(batch.clone(), "")
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            keys.retain(|k| !k.ends_with("meta"));
            let expect = [
                "header",
                "task/A",
                "task/P",
                "task/P[2]",
                "task/Q",
                "task/S",
            ]
            .map(|tail| format!("{prefix}inst/000000000042/{tail}"));
            assert_eq!(keys, expect);
            let (read, meta) = read_journal(shard, &scanned(batch, prefix), resolve).unwrap();
            assert_eq!(meta, shard.map(|_| ShardMeta { round: 17 }));
            assert_eq!(read.len(), 1);
            let back = &read[&42];
            assert_eq!(back.header, inst.header);
            assert_eq!(back.tasks, inst.tasks);
            assert_eq!((back.seq, back.template.name.as_str()), (0, "Kinds"));
        }
        // A header-only commit and a task-only write are the two other
        // shapes the drivers use.
        let mut batch = Batch::new();
        let mut scratch = String::new();
        inst.commit_into(&mut batch, None, std::iter::empty::<&str>(), &mut scratch);
        inst.tasks_into(&mut batch, Some(0), ["A", "Nope"], &mut scratch);
        let keys: Vec<String> = scanned(batch, "").into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            ["inst/000000000042/header", "s0000/inst/000000000042/task/A"]
        );
    }

    #[test]
    fn reader_names_the_key_of_a_record_it_cannot_decode() {
        let inst = instance(5);
        let mut batch = Batch::new();
        inst.commit_into(&mut batch, None, ["A"], &mut String::new());
        let good = scanned(batch, "");
        let resolve = |_: &str| Ok(template());
        assert!(read_journal(None, &good, resolve).is_ok());
        for (victim, shard, named) in [
            (
                "inst/000000000005/header",
                None,
                "corrupt header inst/000000000005/header",
            ),
            (
                "inst/000000000005/task/A",
                Some(2),
                "corrupt task s0002/inst/000000000005/task/A",
            ),
        ] {
            let mut bad = good.clone();
            bad.iter_mut().find(|(k, _)| k == victim).unwrap().1 = b"{not json".to_vec();
            let err = read_journal(shard, &bad, resolve).unwrap_err().to_string();
            assert!(err.contains(named), "{err}");
        }
        let mut bad = good.clone();
        bad.push(("inst/five/header".into(), good[0].1.clone()));
        let err = read_journal(None, &bad, resolve).unwrap_err().to_string();
        assert!(err.contains("bad instance key inst/five/header"), "{err}");
        let bad = vec![("meta".to_string(), b"nope".to_vec())];
        let err = read_journal(Some(1), &bad, resolve)
            .unwrap_err()
            .to_string();
        assert!(err.contains("corrupt shard meta s0001/meta"), "{err}");
        // A template that is gone fails the instance's recovery…
        let gone = |name: &str| Err(EngineError::UnknownTemplate(name.to_string()));
        assert!(matches!(
            read_journal(None, &good, gone),
            Err(EngineError::UnknownTemplate(name)) if name == "Kinds"
        ));
        // …while keys of no known shape, and a task with no header beside
        // it, are not ours to judge.
        let foreign = vec![
            ("inst/000000000009/task/A".to_string(), good[1].1.clone()),
            ("inst/000000000009/lease".to_string(), b"?".to_vec()),
            ("other/key".to_string(), b"?".to_vec()),
        ];
        let (read, meta) = read_journal(None, &foreign, resolve).unwrap();
        assert!(read.is_empty() && meta.is_none());
        // A headerless task record that follows another instance's records
        // does not land in that instance.
        let mut orphan = good.clone();
        orphan.push(("inst/000000000009/task/Z".to_string(), good[1].1.clone()));
        let (read, _) = read_journal(None, &orphan, resolve).unwrap();
        assert_eq!(read.keys().copied().collect::<Vec<_>>(), [5]);
        assert_eq!(read[&5].tasks.keys().collect::<Vec<_>>(), ["A"]);
    }

    /// Journal keys are built in one pass by a digit writer; the spelling
    /// is `format!`'s, byte for byte — ids past twelve digits, shards past
    /// four and paths of every shape included.
    #[test]
    fn journal_keys_are_spelled_as_format_spells_them() {
        let mut ids = vec![0u64, 1, 42, 999_999_999_999, 1_000_000_000_000, u64::MAX];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            x = crate::shard::splitmix64(x);
            ids.push(x >> (x % 64));
        }
        let paths = ["A", "Alignment[17]", "", "a/b", "tâche", "P[3]/task/x"];
        for (i, &id) in ids.iter().enumerate() {
            let path = paths[i % paths.len()];
            assert_eq!(keys::header(id), format!("inst/{id:012}/header"));
            assert_eq!(keys::task(id, path), format!("inst/{id:012}/task/{path}"));
            assert_eq!(keys::task_prefix(id), format!("inst/{id:012}/task/"));
            assert_eq!(keys::instance_prefix(id), format!("inst/{id:012}/"));
            assert_eq!(journal_key(None, id, None), keys::header(id));
            assert_eq!(journal_key(None, id, Some(path)), keys::task(id, path));
            for shard in [0usize, 3, 9_999, 10_000, (id % 100_000) as usize] {
                assert_eq!(
                    journal_key(Some(shard), id, None),
                    format!("s{shard:04}/inst/{id:012}/header")
                );
                assert_eq!(
                    journal_key(Some(shard), id, Some(path)),
                    format!("s{shard:04}/inst/{id:012}/task/{path}")
                );
            }
        }
    }

    #[test]
    fn child_links_cover_every_parented_instance() {
        let mut a = instance(2);
        a.header.parent = Some((1, "S".into()));
        let mut b = instance(3);
        b.header.parent = Some((1, "Q[0]".into()));
        b.header.status = InstanceStatus::Completed;
        let links = child_links([&instance(1), &a, &b]);
        assert_eq!(
            links,
            BTreeSet::from([(1, "Q[0]".to_string()), (1, "S".to_string())])
        );
    }
}
