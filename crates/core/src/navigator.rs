//! The navigator: BioOpera's persistent process interpreter.
//!
//! "From the instance space, process execution is controlled by the
//! navigator.  In this sense, OCR acts as a persistent scripting language
//! interpreted by the navigator" (§3.2).  This module is *pure*: it
//! transforms in-memory copies of the instance records and reports what
//! changed; the runtime persists the changes atomically and talks to the
//! cluster.  That separation is what lets the recovery tests replay the
//! navigator deterministically.
//!
//! Semantics implemented here:
//!
//! * activation: a task becomes `Ready` once **all** incoming connectors
//!   are resolved and **at least one** condition evaluated to true;
//!   all-false means dead path → `Skipped` (and propagates);
//! * the **mapping phase** on task completion: outputs flow along data-flow
//!   connectors into the whiteboard and successor input structures;
//! * **parallel task** expansion: one child per element of the `OVER`
//!   list, degree of parallelism determined at runtime; the task concludes
//!   when every child has; results are collected into the `COLLECT` list;
//! * **failure semantics**: *system* failures (node crash, outage, disk)
//!   re-queue the task without consuming retries — the engine masks them;
//!   *program* failures consume retries, then apply the template's failure
//!   handler (alternative / ignore / compensate-sphere / abort / suspend);
//! * **spheres of atomicity**: compensation of completed members in
//!   reverse completion order.

use crate::error::{EngineError, EngineResult};
use crate::state::{
    parallel_child_path, InstanceHeader, InstanceStatus, TaskMap, TaskRecord, TaskState,
};
use bioopera_cluster::SimTime;
use bioopera_ocr::expr::{self, Env};
use bioopera_ocr::model::{DataRef, FailurePolicy, ParallelBody, ProcessTemplate, TaskKind};
use bioopera_ocr::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use tracked::Tracked;

/// Mutable view of one instance's state during a navigation step.
pub struct InstanceView<'a> {
    /// The (immutable) template.
    pub template: &'a ProcessTemplate,
    /// Header: status + whiteboard.
    pub header: &'a mut InstanceHeader,
    /// All task records, keyed by path.
    pub tasks: &'a mut TaskMap,
}

/// What a navigation step decided (the runtime turns these into persistent
/// writes, dispatches, and child-instance operations).
#[derive(Debug, Default, PartialEq)]
pub struct NavOutcome {
    /// Task paths that just became `Ready`.
    pub newly_ready: Vec<String>,
    /// Task paths that were dead-path eliminated.
    pub newly_skipped: Vec<String>,
    /// The instance reached `Completed`.
    pub completed: bool,
    /// The instance was aborted by a failure policy.
    pub aborted: bool,
    /// The instance was suspended by a failure policy.
    pub suspended: bool,
    /// Compensation programs to run, in order: `(task, program)`.
    pub compensations: Vec<(String, String)>,
    /// Paths of the task records this navigation wrote or created — with
    /// the header, exactly what must be committed to make the transition
    /// durable.  Every other record is as the store last saw it.
    pub touched: BTreeSet<String>,
}

impl NavOutcome {
    /// Fold in the outcome of an inner step.  `touched` is not merged: it
    /// accumulates in [`Tracked`] and is stamped once, on the way out.
    fn merge(&mut self, other: NavOutcome) {
        self.newly_ready.extend(other.newly_ready);
        self.newly_skipped.extend(other.newly_skipped);
        self.completed |= other.completed;
        self.aborted |= other.aborted;
        self.suspended |= other.suspended;
        self.compensations.extend(other.compensations);
    }
}

/// The navigator's write access to an instance.  Its fields are private
/// to this module so that the functions below can reach a
/// `&mut TaskRecord` only through [`Tracked::task_mut`] or create one only
/// through [`Tracked::insert`]: the touched set reported on
/// [`NavOutcome`] is complete by construction, not by bookkeeping at each
/// write site.
mod tracked {
    use super::{InstanceView, NavOutcome};
    use crate::error::{EngineError, EngineResult};
    use crate::state::{InstanceHeader, TaskMap, TaskRecord};
    use bioopera_ocr::model::ProcessTemplate;
    use std::collections::BTreeSet;

    pub(super) struct Tracked<'v, 'a> {
        view: &'v mut InstanceView<'a>,
        touched: BTreeSet<String>,
    }

    impl<'v, 'a> Tracked<'v, 'a> {
        pub(super) fn new(view: &'v mut InstanceView<'a>) -> Self {
            Tracked {
                view,
                touched: BTreeSet::new(),
            }
        }

        /// The template, borrowed for its own lifetime so it can be walked
        /// while records are written.
        pub(super) fn template(&self) -> &'a ProcessTemplate {
            self.view.template
        }

        pub(super) fn header(&self) -> &InstanceHeader {
            self.view.header
        }

        /// The header is part of every commit; writes to it need no record.
        pub(super) fn header_mut(&mut self) -> &mut InstanceHeader {
            self.view.header
        }

        pub(super) fn tasks(&self) -> &TaskMap {
            self.view.tasks
        }

        /// Write access to the record at `path`, noted as touched.
        pub(super) fn task_mut(&mut self, path: &str) -> EngineResult<&mut TaskRecord> {
            let id = self.view.header.id;
            let rec = self
                .view
                .tasks
                .get_mut(path)
                .ok_or_else(|| EngineError::UnknownTask(id, path.to_string()))?;
            if !self.touched.contains(path) {
                self.touched.insert(path.to_string());
            }
            Ok(rec)
        }

        /// Create (or replace) the record at `rec.path`, noted as touched.
        pub(super) fn insert(&mut self, rec: TaskRecord) {
            self.touched.insert(rec.path.clone());
            self.view.tasks.insert(rec.path.clone(), Box::new(rec));
        }

        /// Stamp the touched set on the outcome handed back to the caller.
        pub(super) fn finish(self, mut out: NavOutcome) -> NavOutcome {
            out.touched = self.touched;
            out
        }
    }
}

/// Why a task attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Node crash, network outage, storage failure: the environment's
    /// fault.  Masked by re-queueing; never consumes retries.
    System,
    /// The program itself reported an error: consumes a retry, then the
    /// failure handler applies.
    Program,
}

/// Guard-expression environment over an instance.
struct GuardEnv<'a> {
    header: &'a InstanceHeader,
    tasks: &'a TaskMap,
}

impl Env for GuardEnv<'_> {
    fn lookup(&self, path: &[String]) -> Option<Value> {
        if path.is_empty() {
            return None;
        }
        let head = path[0].as_str();
        if head == "WHITEBOARD" && path.len() >= 2 {
            return lookup_nested(self.header.whiteboard.get(&path[1]), &path[2..]);
        }
        if let Some(task) = self.tasks.get(head) {
            if path.len() >= 2 {
                return lookup_nested(task.outputs.get(&path[1]), &path[2..]);
            }
            return None;
        }
        lookup_nested(self.header.whiteboard.get(head), &path[1..])
    }
}

fn lookup_nested(base: Option<&Value>, rest: &[String]) -> Option<Value> {
    let mut cur = base?;
    for seg in rest {
        cur = cur.as_map()?.get(seg)?;
    }
    Some(cur.clone())
}

/// Initialize a fresh instance: create all task records, seed the
/// whiteboard from declarations plus `initial` values, and mark entry
/// tasks `Ready`.
pub fn init_instance(
    view: &mut InstanceView<'_>,
    initial: &BTreeMap<String, Value>,
) -> EngineResult<NavOutcome> {
    let mut nav = Tracked::new(view);
    let template = nav.template();
    for field in &template.whiteboard {
        let v = initial
            .get(&field.name)
            .cloned()
            .or_else(|| field.default.clone())
            .unwrap_or(Value::Null);
        nav.header_mut().whiteboard.insert(field.name.clone(), v);
    }
    // Unknown initial fields are still placed on the whiteboard (the paper
    // lets operators add data at start time).
    for (k, v) in initial {
        nav.header_mut()
            .whiteboard
            .entry(k.clone())
            .or_insert_with(|| v.clone());
    }
    for task in &template.tasks {
        nav.insert(TaskRecord::new(task.name.clone()));
    }
    let mut out = NavOutcome::default();
    for name in template.initial_tasks() {
        nav.task_mut(name)?.state = TaskState::Ready;
        out.newly_ready.push(name.to_string());
    }
    // A template whose entry tasks are all guarded off could complete
    // instantly; propagate handles the general case.
    let p = propagate(&mut nav)?;
    out.merge(p);
    Ok(nav.finish(out))
}

/// Bind the final input structure for a (template) task at dispatch time:
/// declaration defaults, then `WHITEBOARD -> task` dataflows, then values
/// mapped in by completed predecessors.
pub fn bind_inputs(view: &InstanceView<'_>, task_name: &str) -> BTreeMap<String, Value> {
    bind_inputs_parts(view.template, view.header, view.tasks, task_name)
}

/// [`bind_inputs`] over the raw parts (read-only callers avoid building a
/// mutable view).
pub fn bind_inputs_parts(
    template: &ProcessTemplate,
    header: &InstanceHeader,
    tasks: &TaskMap,
    task_name: &str,
) -> BTreeMap<String, Value> {
    let mut inputs = BTreeMap::new();
    if let Some(decl) = template.task(task_name) {
        for f in &decl.inputs {
            if let Some(d) = &f.default {
                inputs.insert(f.name.clone(), d.clone());
            }
        }
    }
    for flow in &template.dataflows {
        if let (DataRef::Whiteboard(w), DataRef::TaskField(t, f)) = (&flow.from, &flow.to) {
            if t == task_name {
                if let Some(v) = header.whiteboard.get(w) {
                    if v.is_defined() {
                        inputs.insert(f.clone(), v.clone());
                    }
                }
            }
        }
    }
    if let Some(rec) = tasks.get(task_name) {
        for (k, v) in rec.inputs.iter() {
            inputs.insert(k.clone(), v.clone());
        }
    }
    inputs
}

/// Handle successful completion of the task at `path` with `outputs`:
/// record, run the mapping phase, propagate readiness, detect completion.
pub(crate) fn on_task_ended(
    view: &mut InstanceView<'_>,
    path: &str,
    outputs: BTreeMap<String, Value>,
    now: SimTime,
    cpu_ms: f64,
) -> EngineResult<NavOutcome> {
    let mut nav = Tracked::new(view);
    let out = task_ended(&mut nav, path, outputs, now, cpu_ms)?;
    Ok(nav.finish(out))
}

fn task_ended(
    nav: &mut Tracked<'_, '_>,
    path: &str,
    outputs: BTreeMap<String, Value>,
    now: SimTime,
    cpu_ms: f64,
) -> EngineResult<NavOutcome> {
    let parent = {
        let rec = nav.task_mut(path)?;
        rec.outputs = outputs.into();
        rec.state = TaskState::Ended;
        rec.ended_at = Some(now);
        rec.cpu_ms += cpu_ms;
        rec.parallel_parent().map(str::to_string)
    };
    let mut out = NavOutcome::default();

    if let Some(parent) = parent {
        // A parallel child finished; the parent concludes when all do.
        out.merge(check_parallel_parent(nav, &parent, now)?);
    } else {
        // Template task: mapping phase along declared dataflows.
        run_mapping_phase(nav, path);
        out.merge(propagate(nav)?);
    }
    out.merge(check_completion(nav, now));
    Ok(out)
}

/// Re-evaluate readiness and completion without a triggering event — used
/// when records are seeded externally (selective recomputation).
pub fn reevaluate(view: &mut InstanceView<'_>, now: SimTime) -> EngineResult<NavOutcome> {
    let mut nav = Tracked::new(view);
    let mut out = propagate(&mut nav)?;
    out.merge(check_completion(&mut nav, now));
    Ok(nav.finish(out))
}

/// Replay the mapping phase of an (already `Ended`) task — used when its
/// recorded outputs are reused by a recomputation instance and successors
/// need their input buffers refilled.  The caller persists the whole
/// instance afterwards, so the touched set is not reported.
pub fn replay_mapping(view: &mut InstanceView<'_>, task: &str) {
    if view.tasks.get(task).map(|r| r.state) == Some(TaskState::Ended)
        && view.template.task(task).is_some()
    {
        run_mapping_phase(&mut Tracked::new(view), task);
    }
}

/// Copy the completed task's outputs along its outgoing dataflows.
fn run_mapping_phase(nav: &mut Tracked<'_, '_>, task: &str) {
    for flow in &nav.template().dataflows {
        let DataRef::TaskField(t, field) = &flow.from else {
            continue;
        };
        if t != task {
            continue;
        }
        let Some(value) = nav
            .tasks()
            .get(task)
            .and_then(|r| r.outputs.get(field))
            .cloned()
        else {
            continue;
        };
        if !value.is_defined() {
            continue;
        }
        match &flow.to {
            DataRef::Whiteboard(w) => {
                nav.header_mut().whiteboard.insert(w.clone(), value);
            }
            DataRef::TaskField(t, f) => {
                if let Ok(rec) = nav.task_mut(t) {
                    rec.inputs.insert(f.clone(), value);
                }
            }
        }
    }
}

/// Re-evaluate readiness of all inactive tasks until fixpoint.
fn propagate(nav: &mut Tracked<'_, '_>) -> EngineResult<NavOutcome> {
    let mut out = NavOutcome::default();
    let template = nav.template();
    loop {
        let mut changed = false;
        for task in &template.tasks {
            let name = &task.name;
            // A template task with no record (foreign or truncated journal
            // state) cannot be activated; skip it rather than panic.
            if nav.tasks().get(name).map(|r| r.state) != Some(TaskState::Inactive) {
                continue;
            }
            let incoming = template.incoming(name);
            debug_assert!(!incoming.is_empty(), "initial tasks are Ready at init");
            let mut all_resolved = true;
            let mut any_true = false;
            for conn in &incoming {
                // A missing source record counts as unresolved: the task
                // stays Inactive instead of firing on phantom state.
                let Some(src_state) = nav.tasks().get(&conn.from).map(|r| r.state) else {
                    all_resolved = false;
                    break;
                };
                if !src_state.is_resolved() {
                    all_resolved = false;
                    break;
                }
                if src_state == TaskState::Ended {
                    let env = GuardEnv {
                        header: nav.header(),
                        tasks: nav.tasks(),
                    };
                    let fired = expr::eval_bool(&conn.condition, &env).map_err(|e| {
                        EngineError::Guard(format!("{} -> {}", conn.from, conn.to), e)
                    })?;
                    any_true |= fired;
                }
                // Skipped/Failed/Compensated sources contribute `false`.
            }
            if !all_resolved {
                continue;
            }
            let rec = nav.task_mut(name)?;
            if any_true {
                rec.state = TaskState::Ready;
                out.newly_ready.push(name.clone());
            } else {
                rec.state = TaskState::Skipped;
                out.newly_skipped.push(name.clone());
            }
            changed = true;
        }
        if !changed {
            return Ok(out);
        }
    }
}

/// Expand a `Ready` parallel task: create one child record per input
/// element.  Returns the child paths (all `Ready`).  An empty input list
/// completes the task immediately with an empty collection.
pub(crate) fn expand_parallel(
    view: &mut InstanceView<'_>,
    task_name: &str,
    now: SimTime,
) -> EngineResult<(Vec<String>, NavOutcome)> {
    let mut nav = Tracked::new(view);
    let (children, out) = expand(&mut nav, task_name, now)?;
    Ok((children, nav.finish(out)))
}

fn expand(
    nav: &mut Tracked<'_, '_>,
    task_name: &str,
    now: SimTime,
) -> EngineResult<(Vec<String>, NavOutcome)> {
    let decl = nav
        .template()
        .task(task_name)
        .ok_or_else(|| EngineError::Internal(format!("no template task {task_name}")))?;
    let TaskKind::Parallel { over, .. } = &decl.kind else {
        return Err(EngineError::Internal(format!(
            "{task_name} is not a parallel task"
        )));
    };
    let bound = bind_inputs_parts(nav.template(), nav.header(), nav.tasks(), task_name);
    let items: Vec<Value> = match bound.get(over.as_str()) {
        Some(Value::List(xs)) => xs.clone(),
        Some(other) => {
            return Err(EngineError::Internal(format!(
                "parallel {task_name}: OVER field `{over}` is {}, expected list",
                other.type_name()
            )))
        }
        None => Vec::new(),
    };
    {
        let rec = nav.task_mut(task_name)?;
        rec.inputs = bound.clone().into();
        rec.state = TaskState::Dispatched;
        rec.started_at = Some(now);
    }
    if items.is_empty() {
        // Degenerate parallel task: conclude immediately.
        let collect = collect_field(nav.template(), task_name)?;
        let mut outputs = BTreeMap::new();
        outputs.insert(collect, Value::List(Vec::new()));
        let out = task_ended(nav, task_name, outputs, now, 0.0)?;
        return Ok((Vec::new(), out));
    }
    let mut paths = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let path = parallel_child_path(task_name, i);
        let mut rec = TaskRecord::new(path.clone());
        rec.state = TaskState::Ready;
        let mut inputs = BTreeMap::from([
            ("item".to_string(), item.clone()),
            ("index".to_string(), Value::Int(i as i64)),
        ]);
        // Pass through the parallel task's other inputs (db name etc.).
        for (k, v) in &bound {
            if k != over {
                inputs.insert(k.clone(), v.clone());
            }
        }
        rec.inputs = inputs.into();
        nav.insert(rec);
        paths.push(path);
    }
    Ok((paths, NavOutcome::default()))
}

fn collect_field(template: &ProcessTemplate, task: &str) -> EngineResult<String> {
    match &template.task(task).map(|t| &t.kind) {
        Some(TaskKind::Parallel { collect, .. }) => Ok(collect.clone()),
        _ => Err(EngineError::Internal(format!(
            "{task} lost its parallel kind"
        ))),
    }
}

/// The body of a parallel task (activity program or subprocess template).
pub fn parallel_body<'t>(template: &'t ProcessTemplate, task: &str) -> Option<&'t ParallelBody> {
    match &template.task(task)?.kind {
        TaskKind::Parallel { body, .. } => Some(body),
        _ => None,
    }
}

/// If all children of `parent` are terminal, conclude the parent with the
/// collected child outputs.
fn check_parallel_parent(
    nav: &mut Tracked<'_, '_>,
    parent: &str,
    now: SimTime,
) -> EngineResult<NavOutcome> {
    if nav.tasks().get(parent).map(|r| r.state) != Some(TaskState::Dispatched) {
        return Ok(NavOutcome::default());
    }
    let prefix = format!("{parent}[");
    let children = || {
        nav.tasks()
            .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
            .take_while(|(p, _)| p.starts_with(&prefix))
            .map(|(_, r)| &**r)
    };
    // Every child completion lands here but only the last one concludes
    // the parent: look at the states before copying any outputs.
    if children().any(|r| !r.state.is_terminal()) {
        return Ok(NavOutcome::default());
    }
    let mut done: Vec<&TaskRecord> = children().collect();
    done.sort_by_key(|r| r.parallel_index().unwrap_or(0));
    let collected: Vec<Value> = done
        .iter()
        .map(|r| Value::Map(r.outputs.to_map()))
        .collect();
    let child_cpu: f64 = done.iter().map(|r| r.cpu_ms).sum();
    let collect = collect_field(nav.template(), parent)?;
    let mut outputs = BTreeMap::new();
    outputs.insert(collect, Value::List(collected));
    // The parent's CPU is the sum of its children's (already recorded on
    // the children; recorded again on the parent would double-count, so
    // pass 0 and keep the sum only in the parent's record field).
    let out = task_ended(nav, parent, outputs, now, 0.0)?;
    if let Ok(rec) = nav.task_mut(parent) {
        rec.cpu_ms = child_cpu;
    }
    Ok(out)
}

/// Handle a failed attempt of the task at `path`.
pub(crate) fn on_task_failed(
    view: &mut InstanceView<'_>,
    path: &str,
    kind: FailureKind,
    now: SimTime,
) -> EngineResult<NavOutcome> {
    let mut nav = Tracked::new(view);
    let out = task_failed(&mut nav, path, kind, now)?;
    Ok(nav.finish(out))
}

fn task_failed(
    nav: &mut Tracked<'_, '_>,
    path: &str,
    kind: FailureKind,
    now: SimTime,
) -> EngineResult<NavOutcome> {
    let (attempts, parent_name) = {
        let rec = nav.task_mut(path)?;
        if kind == FailureKind::System {
            // Masked: back to the activity queue, no retry consumed.
            rec.state = TaskState::Ready;
            rec.node = None;
            return Ok(NavOutcome {
                newly_ready: vec![path.to_string()],
                ..Default::default()
            });
        }
        rec.attempts += 1;
        rec.state = TaskState::Failed;
        rec.node = None;
        (rec.attempts, rec.parallel_parent().map(str::to_string))
    };
    // Retry budget comes from the template declaration (children inherit
    // their parallel parent's).
    let decl_name = parent_name.as_deref().unwrap_or(path);
    let declared_retries = nav
        .template()
        .task(decl_name)
        .map(|t| t.retries)
        .unwrap_or(0);
    if attempts <= declared_retries {
        nav.task_mut(path)?.state = TaskState::Ready;
        return Ok(NavOutcome {
            newly_ready: vec![path.to_string()],
            ..Default::default()
        });
    }
    // Retries exhausted: apply the failure policy.
    let policy = nav
        .template()
        .failure_handler_for(decl_name)
        .map(|h| h.policy.clone())
        .unwrap_or(FailurePolicy::Abort);
    let mut out = NavOutcome::default();
    match policy {
        FailurePolicy::Ignore => {
            nav.task_mut(path)?.state = TaskState::Skipped;
            out.newly_skipped.push(path.to_string());
            if let Some(parent) = parent_name {
                out.merge(check_parallel_parent(nav, &parent, now)?);
            } else {
                out.merge(propagate(nav)?);
            }
            out.merge(check_completion(nav, now));
        }
        FailurePolicy::Alternative(alt) => {
            nav.task_mut(path)?.state = TaskState::Skipped;
            out.newly_skipped.push(path.to_string());
            let alt_state = nav
                .tasks()
                .get(&alt)
                .map(|r| r.state)
                .ok_or_else(|| EngineError::Internal(format!("alternative {alt} missing")))?;
            if alt_state == TaskState::Inactive || alt_state == TaskState::Skipped {
                nav.task_mut(&alt)?.state = TaskState::Ready;
                out.newly_ready.push(alt);
            }
        }
        FailurePolicy::CompensateSphere(sphere_name) => {
            let sphere = nav
                .template()
                .spheres
                .iter()
                .find(|s| s.name == sphere_name)
                .ok_or_else(|| EngineError::Internal(format!("sphere {sphere_name} missing")))?;
            // Compensate Ended members in reverse completion order.
            let mut ended: Vec<(SimTime, String)> = sphere
                .members
                .iter()
                .filter_map(|m| {
                    let r = nav.tasks().get(m)?;
                    (r.state == TaskState::Ended)
                        .then(|| (r.ended_at.unwrap_or(SimTime::ZERO), m.clone()))
                })
                .collect();
            ended.sort();
            ended.reverse();
            for (_, member) in ended {
                nav.task_mut(&member)?.state = TaskState::Compensated;
                if let Some((_, prog)) = sphere.compensations.iter().find(|(t, _)| *t == member) {
                    out.compensations.push((member.clone(), prog.clone()));
                }
            }
            nav.header_mut().status = InstanceStatus::Aborted;
            nav.header_mut().ended_at = Some(now);
            out.aborted = true;
        }
        FailurePolicy::Abort => {
            nav.header_mut().status = InstanceStatus::Aborted;
            nav.header_mut().ended_at = Some(now);
            out.aborted = true;
        }
        FailurePolicy::Suspend => {
            nav.header_mut().status = InstanceStatus::Suspended;
            out.suspended = true;
        }
    }
    Ok(out)
}

/// On operator resume, give suspended/failed tasks another chance.
///
/// Also re-checks completion: an instance whose last task ended while it
/// was parked (in-flight work drains under suspension) has nothing left
/// to re-activate and must flip terminal now, not never.
pub(crate) fn on_resume(view: &mut InstanceView<'_>, now: SimTime) -> NavOutcome {
    let mut nav = Tracked::new(view);
    let mut out = NavOutcome::default();
    if nav.header().status == InstanceStatus::Suspended {
        nav.header_mut().status = InstanceStatus::Running;
    }
    let failed: Vec<String> = nav
        .tasks()
        .values()
        .filter(|r| r.state == TaskState::Failed)
        .map(|r| r.path.clone())
        .collect();
    for path in failed {
        if let Ok(rec) = nav.task_mut(&path) {
            rec.attempts = 0;
            rec.state = TaskState::Ready;
            out.newly_ready.push(path);
        }
    }
    if out.newly_ready.is_empty() {
        let done = check_completion(&mut nav, now);
        out.completed = done.completed;
    }
    nav.finish(out)
}

/// Completed = every template task terminal.
fn check_completion(nav: &mut Tracked<'_, '_>, now: SimTime) -> NavOutcome {
    if nav.header().status != InstanceStatus::Running {
        return NavOutcome::default();
    }
    let all_done = nav.template().tasks.iter().all(|t| {
        nav.tasks()
            .get(&t.name)
            .map(|r| r.state.is_terminal())
            .unwrap_or(false)
    });
    if all_done {
        nav.header_mut().status = InstanceStatus::Completed;
        nav.header_mut().ended_at = Some(now);
        NavOutcome {
            completed: true,
            ..Default::default()
        }
    } else {
        NavOutcome::default()
    }
}

/// Evaluate an expression against the instance (used by event handlers'
/// `SET field = expr`).
pub fn eval_in_instance(
    view: &InstanceView<'_>,
    e: &bioopera_ocr::expr::Expr,
) -> EngineResult<Value> {
    let env = GuardEnv {
        header: view.header,
        tasks: view.tasks,
    };
    expr::eval(e, &env).map_err(|err| EngineError::Guard("event handler".into(), err))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioopera_ocr::model::{ExternalBinding, TypeTag};
    use bioopera_ocr::{Expr, ProcessBuilder};

    fn fresh(template: &ProcessTemplate) -> (InstanceHeader, TaskMap) {
        let header = InstanceHeader {
            id: 1,
            template: template.name.clone(),
            status: InstanceStatus::Running,
            whiteboard: BTreeMap::new(),
            parent: None,
            created_at: SimTime::ZERO,
            ended_at: None,
        };
        (header, BTreeMap::new())
    }

    fn linear_template() -> ProcessTemplate {
        ProcessBuilder::new("Linear")
            .whiteboard_default("db", TypeTag::Str, Value::from("sp38"))
            .activity("A", "p.a", |t| t.output("x", TypeTag::Int))
            .activity("B", "p.b", |t| {
                t.input("x", TypeTag::Int).output("y", TypeTag::Int)
            })
            .activity("C", "p.c", |t| t.input("y", TypeTag::Int))
            .connect("A", "B")
            .connect("B", "C")
            .flow_to_task("A", "x", "B", "x")
            .flow_to_task("B", "y", "C", "y")
            .build()
            .unwrap()
    }

    fn outputs(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn linear_flow_runs_in_order() {
        let t = linear_template();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        let out = init_instance(&mut view, &BTreeMap::new()).unwrap();
        assert_eq!(out.newly_ready, vec!["A"]);
        assert_eq!(view.header.whiteboard["db"], Value::from("sp38"));

        let out = on_task_ended(
            &mut view,
            "A",
            outputs(&[("x", Value::Int(7))]),
            SimTime::from_secs(1),
            5.0,
        )
        .unwrap();
        assert_eq!(out.newly_ready, vec!["B"]);
        assert!(!out.completed);
        // Mapping phase moved x into B's input buffer.
        assert_eq!(bind_inputs(&view, "B")["x"], Value::Int(7));

        let out = on_task_ended(
            &mut view,
            "B",
            outputs(&[("y", Value::Int(14))]),
            SimTime::from_secs(2),
            5.0,
        )
        .unwrap();
        assert_eq!(out.newly_ready, vec!["C"]);
        let out =
            on_task_ended(&mut view, "C", BTreeMap::new(), SimTime::from_secs(3), 5.0).unwrap();
        assert!(out.completed);
        assert_eq!(view.header.status, InstanceStatus::Completed);
        assert_eq!(view.header.ended_at, Some(SimTime::from_secs(3)));
    }

    fn branching_template() -> ProcessTemplate {
        // The all-vs-all head shape: QueueGen runs only without a queue file.
        ProcessBuilder::new("Branch")
            .activity("UI", "p.ui", |t| t.output("queue", TypeTag::List))
            .activity("QG", "p.qg", |t| t.output("queue", TypeTag::List))
            .activity("Prep", "p.prep", |t| t.input("queue", TypeTag::List))
            .connect_when("UI", "QG", Expr::undefined("UI.queue"))
            .connect_when("UI", "Prep", Expr::defined("UI.queue"))
            .connect("QG", "Prep")
            .flow_to_task("UI", "queue", "Prep", "queue")
            .flow_to_task("QG", "queue", "Prep", "queue")
            .build()
            .unwrap()
    }

    #[test]
    fn conditional_branch_with_queue_file_skips_queue_gen() {
        let t = branching_template();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        init_instance(&mut view, &BTreeMap::new()).unwrap();
        let out = on_task_ended(
            &mut view,
            "UI",
            outputs(&[("queue", Value::int_list([1, 2, 3]))]),
            SimTime::ZERO,
            0.0,
        )
        .unwrap();
        assert_eq!(out.newly_skipped, vec!["QG"]);
        assert_eq!(out.newly_ready, vec!["Prep"]);
        assert_eq!(
            bind_inputs(&view, "Prep")["queue"],
            Value::int_list([1, 2, 3])
        );
    }

    #[test]
    fn conditional_branch_without_queue_file_runs_queue_gen() {
        let t = branching_template();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        init_instance(&mut view, &BTreeMap::new()).unwrap();
        // UI produced no queue.
        let out = on_task_ended(&mut view, "UI", BTreeMap::new(), SimTime::ZERO, 0.0).unwrap();
        assert_eq!(out.newly_ready, vec!["QG"]);
        assert!(out.newly_skipped.is_empty());
        let out = on_task_ended(
            &mut view,
            "QG",
            outputs(&[("queue", Value::int_list([9]))]),
            SimTime::ZERO,
            0.0,
        )
        .unwrap();
        assert_eq!(out.newly_ready, vec!["Prep"]);
        assert_eq!(bind_inputs(&view, "Prep")["queue"], Value::int_list([9]));
    }

    fn parallel_template() -> ProcessTemplate {
        ProcessBuilder::new("Par")
            .activity("Prep", "p.prep", |t| t.output("parts", TypeTag::List))
            .parallel(
                "Fan",
                "parts",
                ParallelBody::Activity(ExternalBinding::program("p.work")),
                "results",
                |t| t.retries(1),
            )
            .activity("Merge", "p.merge", |t| t.input("results", TypeTag::List))
            .connect("Prep", "Fan")
            .connect("Fan", "Merge")
            .flow_to_task("Prep", "parts", "Fan", "parts")
            .flow_to_task("Fan", "results", "Merge", "results")
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_expansion_and_collection() {
        let t = parallel_template();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        init_instance(&mut view, &BTreeMap::new()).unwrap();
        on_task_ended(
            &mut view,
            "Prep",
            outputs(&[("parts", Value::int_list([10, 20, 30]))]),
            SimTime::ZERO,
            0.0,
        )
        .unwrap();
        assert_eq!(view.tasks["Fan"].state, TaskState::Ready);

        let (children, _) = expand_parallel(&mut view, "Fan", SimTime::ZERO).unwrap();
        assert_eq!(children, vec!["Fan[0]", "Fan[1]", "Fan[2]"]);
        assert_eq!(view.tasks["Fan"].state, TaskState::Dispatched);
        assert_eq!(view.tasks["Fan[1]"].inputs["item"], Value::Int(20));
        assert_eq!(view.tasks["Fan[1]"].inputs["index"], Value::Int(1));

        // Children complete out of order; results collected in index order.
        for (i, val) in [(2usize, 300i64), (0, 100), (1, 200)] {
            let path = format!("Fan[{i}]");
            let out = on_task_ended(
                &mut view,
                &path,
                outputs(&[("r", Value::Int(val))]),
                SimTime::from_secs(i as u64),
                7.0,
            )
            .unwrap();
            if i == 1 {
                // Last to finish: parent concludes, Merge becomes ready.
                assert!(out.newly_ready.contains(&"Merge".to_string()));
            }
        }
        let results = view.tasks["Fan"].outputs["results"]
            .as_list()
            .unwrap()
            .to_vec();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get_path(&["r"]), Some(&Value::Int(100)));
        assert_eq!(results[2].get_path(&["r"]), Some(&Value::Int(300)));
        // Parent CPU aggregates children.
        assert!((view.tasks["Fan"].cpu_ms - 21.0).abs() < 1e-9);
    }

    fn set(paths: &[&str]) -> BTreeSet<String> {
        paths.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn touched_is_exactly_what_a_navigation_wrote() {
        let t = parallel_template();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        let out = init_instance(&mut view, &BTreeMap::new()).unwrap();
        assert_eq!(out.touched, set(&["Prep", "Fan", "Merge"]), "all created");
        // Prep ends: its own record, plus Fan — mapping target and newly
        // ready.  Merge is neither.
        let out = on_task_ended(
            &mut view,
            "Prep",
            outputs(&[("parts", Value::int_list([10, 20]))]),
            SimTime::ZERO,
            0.0,
        )
        .unwrap();
        assert_eq!(out.touched, set(&["Prep", "Fan"]));
        let (_, out) = expand_parallel(&mut view, "Fan", SimTime::ZERO).unwrap();
        assert_eq!(out.touched, set(&["Fan", "Fan[0]", "Fan[1]"]));
        // A masked failure and a first child's completion stay on the child.
        let out = on_task_failed(&mut view, "Fan[1]", FailureKind::System, SimTime::ZERO).unwrap();
        assert_eq!(out.touched, set(&["Fan[1]"]));
        let out = on_task_ended(&mut view, "Fan[1]", BTreeMap::new(), SimTime::ZERO, 1.0).unwrap();
        assert_eq!(out.touched, set(&["Fan[1]"]), "parent left alone");
        // The last child concludes the parent, whose mapping phase fills
        // Merge's input buffer and readies it.
        let out = on_task_ended(&mut view, "Fan[0]", BTreeMap::new(), SimTime::ZERO, 1.0).unwrap();
        assert_eq!(out.touched, set(&["Fan[0]", "Fan", "Merge"]));
    }

    #[test]
    fn empty_parallel_list_completes_immediately() {
        let t = parallel_template();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        init_instance(&mut view, &BTreeMap::new()).unwrap();
        on_task_ended(
            &mut view,
            "Prep",
            outputs(&[("parts", Value::List(vec![]))]),
            SimTime::ZERO,
            0.0,
        )
        .unwrap();
        let (children, out) = expand_parallel(&mut view, "Fan", SimTime::ZERO).unwrap();
        assert!(children.is_empty());
        assert!(out.newly_ready.contains(&"Merge".to_string()));
        assert_eq!(view.tasks["Fan"].state, TaskState::Ended);
    }

    #[test]
    fn system_failure_requeues_without_consuming_retries() {
        let t = parallel_template();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        init_instance(&mut view, &BTreeMap::new()).unwrap();
        on_task_ended(
            &mut view,
            "Prep",
            outputs(&[("parts", Value::int_list([1]))]),
            SimTime::ZERO,
            0.0,
        )
        .unwrap();
        expand_parallel(&mut view, "Fan", SimTime::ZERO).unwrap();
        // Five node crashes in a row: still Ready every time, no attempts.
        for _ in 0..5 {
            view.tasks.get_mut("Fan[0]").unwrap().state = TaskState::Dispatched;
            let out =
                on_task_failed(&mut view, "Fan[0]", FailureKind::System, SimTime::ZERO).unwrap();
            assert_eq!(out.newly_ready, vec!["Fan[0]"]);
        }
        assert_eq!(view.tasks["Fan[0]"].attempts, 0);
    }

    #[test]
    fn program_failure_respects_retry_budget_then_default_aborts() {
        let t = parallel_template(); // Fan has retries(1); no handler => Abort
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        init_instance(&mut view, &BTreeMap::new()).unwrap();
        on_task_ended(
            &mut view,
            "Prep",
            outputs(&[("parts", Value::int_list([1]))]),
            SimTime::ZERO,
            0.0,
        )
        .unwrap();
        expand_parallel(&mut view, "Fan", SimTime::ZERO).unwrap();
        // First program failure: one retry available.
        let out = on_task_failed(&mut view, "Fan[0]", FailureKind::Program, SimTime::ZERO).unwrap();
        assert_eq!(out.newly_ready, vec!["Fan[0]"]);
        // Second: retries exhausted, default policy aborts the instance.
        let out = on_task_failed(&mut view, "Fan[0]", FailureKind::Program, SimTime::ZERO).unwrap();
        assert!(out.aborted);
        assert_eq!(view.header.status, InstanceStatus::Aborted);
    }

    #[test]
    fn ignore_policy_skips_failed_task_and_continues() {
        let t = ProcessBuilder::new("P")
            .activity("A", "p.a", |t| t)
            .activity("B", "p.b", |t| t)
            .connect("A", "B")
            .on_failure("A", FailurePolicy::Ignore)
            .build()
            .unwrap();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        init_instance(&mut view, &BTreeMap::new()).unwrap();
        let out = on_task_failed(&mut view, "A", FailureKind::Program, SimTime::ZERO).unwrap();
        // A skipped; B's only incoming connector resolves false => B skipped
        // => process completed (everything terminal).
        assert!(out.newly_skipped.contains(&"A".to_string()));
        assert!(out.newly_skipped.contains(&"B".to_string()));
        assert!(out.completed);
    }

    #[test]
    fn alternative_policy_activates_the_alternative() {
        let t = ProcessBuilder::new("P")
            .activity("A", "p.a", |t| t)
            .activity("Alt", "p.alt", |t| t)
            .activity("B", "p.b", |t| t)
            .connect_when("A", "B", Expr::truth())
            .connect_when("Alt", "B", Expr::truth())
            .on_failure("A", FailurePolicy::Alternative("Alt".into()))
            .build()
            .unwrap();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        init_instance(&mut view, &BTreeMap::new()).unwrap();
        // Both A and Alt are initial (no incoming): Alt already Ready; make
        // a variant where Alt is downstream-only by marking it skipped first.
        view.tasks.get_mut("Alt").unwrap().state = TaskState::Skipped;
        let out = on_task_failed(&mut view, "A", FailureKind::Program, SimTime::ZERO).unwrap();
        assert!(out.newly_ready.contains(&"Alt".to_string()));
        assert_eq!(view.tasks["A"].state, TaskState::Skipped);
    }

    #[test]
    fn sphere_compensation_runs_in_reverse_order() {
        let t = ProcessBuilder::new("P")
            .activity("S1", "p.s1", |t| t)
            .activity("S2", "p.s2", |t| t)
            .activity("S3", "p.s3", |t| t)
            .connect("S1", "S2")
            .connect("S2", "S3")
            .sphere(
                "Atomic",
                ["S1", "S2", "S3"],
                [("S1", "undo.s1"), ("S2", "undo.s2")],
            )
            .on_failure("S3", FailurePolicy::CompensateSphere("Atomic".into()))
            .build()
            .unwrap();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        init_instance(&mut view, &BTreeMap::new()).unwrap();
        on_task_ended(&mut view, "S1", BTreeMap::new(), SimTime::from_secs(1), 0.0).unwrap();
        on_task_ended(&mut view, "S2", BTreeMap::new(), SimTime::from_secs(2), 0.0).unwrap();
        let out =
            on_task_failed(&mut view, "S3", FailureKind::Program, SimTime::from_secs(3)).unwrap();
        assert!(out.aborted);
        // Reverse completion order: S2's undo before S1's.
        assert_eq!(
            out.compensations,
            vec![
                ("S2".to_string(), "undo.s2".to_string()),
                ("S1".to_string(), "undo.s1".to_string())
            ]
        );
        assert_eq!(view.tasks["S1"].state, TaskState::Compensated);
        assert_eq!(view.tasks["S2"].state, TaskState::Compensated);
        assert_eq!(out.touched, set(&["S1", "S2", "S3"]));
    }

    #[test]
    fn suspend_policy_and_resume_retry() {
        let t = ProcessBuilder::new("P")
            .activity("A", "p.a", |t| t)
            .on_failure("A", FailurePolicy::Suspend)
            .build()
            .unwrap();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        init_instance(&mut view, &BTreeMap::new()).unwrap();
        let out = on_task_failed(&mut view, "A", FailureKind::Program, SimTime::ZERO).unwrap();
        assert!(out.suspended);
        assert_eq!(view.header.status, InstanceStatus::Suspended);
        let out = on_resume(&mut view, SimTime::ZERO);
        assert_eq!(out.newly_ready, vec!["A"]);
        assert_eq!(view.header.status, InstanceStatus::Running);
        assert_eq!(view.tasks["A"].attempts, 0, "resume resets the budget");
    }

    #[test]
    fn guard_env_sees_whiteboard_and_outputs() {
        let t = linear_template();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        init_instance(&mut view, &BTreeMap::new()).unwrap();
        on_task_ended(
            &mut view,
            "A",
            outputs(&[("x", Value::Int(5))]),
            SimTime::ZERO,
            0.0,
        )
        .unwrap();
        let v = eval_in_instance(&view, &Expr::path("A.x")).unwrap();
        assert_eq!(v, Value::Int(5));
        let v = eval_in_instance(&view, &Expr::path("db")).unwrap();
        assert_eq!(v, Value::from("sp38"));
        let v = eval_in_instance(&view, &Expr::path("WHITEBOARD.db")).unwrap();
        assert_eq!(v, Value::from("sp38"));
    }

    #[test]
    fn initial_whiteboard_values_override_defaults() {
        let t = linear_template();
        let (mut header, mut tasks) = fresh(&t);
        let mut view = InstanceView {
            template: &t,
            header: &mut header,
            tasks: &mut tasks,
        };
        let mut init = BTreeMap::new();
        init.insert("db".to_string(), Value::from("sp39"));
        init.insert("extra".to_string(), Value::Int(1));
        init_instance(&mut view, &init).unwrap();
        assert_eq!(view.header.whiteboard["db"], Value::from("sp39"));
        assert_eq!(view.header.whiteboard["extra"], Value::Int(1));
    }
}
