//! Persistent instance state: what the navigator reads and writes.
//!
//! "During execution, a process instance is persistent both in terms of the
//! data and the state of the execution" (§3.2).  Every record here has a
//! stable key in the instance space:
//!
//! * `inst/{id}/header`       — [`InstanceHeader`] (status + whiteboard)
//! * `inst/{id}/task/{path}`  — [`TaskRecord`] per task (parallel children
//!   use indexed paths such as `Alignment[3]`)

use crate::dependability::RetryState;
use bioopera_cluster::SimTime;
use bioopera_ocr::value::{FieldMap, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a process instance.
pub type InstanceId = u64;

/// Life-cycle status of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceStatus {
    /// Being executed by the navigator.
    Running,
    /// Dispatch paused (operator action or event handler); running jobs
    /// drain, nothing new starts.
    Suspended,
    /// All tasks reached a terminal state.
    Completed,
    /// Aborted by a failure policy, an event, or an operator.
    Aborted,
}

impl InstanceStatus {
    /// Is the instance finished (no further navigation)?
    pub fn is_terminal(self) -> bool {
        matches!(self, InstanceStatus::Completed | InstanceStatus::Aborted)
    }
}

/// How a `run_to_completion` call ended.
///
/// A suspended instance is *not* an error: the operator parked it on
/// purpose and can resume it at any time (paper §3.4 — steering a
/// long-running experiment without losing dependability guarantees).
/// The engines therefore report quiescence-with-parked-work as a normal
/// outcome instead of wedging or mis-diagnosing a deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every instance reached a terminal status.
    Completed,
    /// Nothing left to do *right now*: every non-terminal instance is
    /// suspended and waits for an operator `resume`.
    Quiesced {
        /// How many instances are parked.
        suspended: u64,
    },
}

impl RunOutcome {
    /// Did every instance reach a terminal status?
    pub fn is_completed(self) -> bool {
        matches!(self, RunOutcome::Completed)
    }

    /// Number of suspended instances awaiting an operator resume.
    pub fn suspended(self) -> u64 {
        match self {
            RunOutcome::Completed => 0,
            RunOutcome::Quiesced { suspended } => suspended,
        }
    }
}

/// The instance-space header record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceHeader {
    /// Instance id.
    pub id: InstanceId,
    /// Name of the template this instance was created from.
    pub template: String,
    /// Current status.
    pub status: InstanceStatus,
    /// The global data area.
    pub whiteboard: BTreeMap<String, Value>,
    /// If this instance implements a subprocess task of another instance:
    /// `(parent instance, parent task path)`.
    pub parent: Option<(InstanceId, String)>,
    /// Virtual creation time.
    pub created_at: SimTime,
    /// Virtual completion time (set when terminal).
    pub ended_at: Option<SimTime>,
}

/// Execution state of one task (or one parallel child).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskState {
    /// Not yet eligible.
    Inactive,
    /// All activation requirements met; waiting in the activity queue.
    Ready,
    /// Handed to a node's execution client (activities), expanded
    /// (parallel tasks) or instantiated (subprocesses); in flight.
    Dispatched,
    /// Finished successfully; outputs are final.
    Ended,
    /// Dead path: every incoming activation condition resolved to false.
    Skipped,
    /// Exhausted retries; waiting for a failure policy or terminal.
    Failed,
    /// Undone by a sphere-of-atomicity compensation.
    Compensated,
}

impl TaskState {
    /// Terminal for the purpose of instance completion.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TaskState::Ended | TaskState::Skipped | TaskState::Compensated
        )
    }

    /// Does this state represent resolved control flow (connector sources
    /// in this state have had their conditions decided)?
    pub fn is_resolved(self) -> bool {
        matches!(
            self,
            TaskState::Ended | TaskState::Skipped | TaskState::Failed | TaskState::Compensated
        )
    }
}

/// The per-task instance-space record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Task path: the template task name, or `Name[i]` for a parallel
    /// child.
    pub path: String,
    /// Current state.
    pub state: TaskState,
    /// Input structure contents (filled by dataflows and defaults).
    /// Resident per task, hence exact-size (DESIGN.md "Instance layer").
    pub inputs: FieldMap,
    /// Output structure contents (set when `Ended`).
    pub outputs: FieldMap,
    /// Execution attempts so far (for retry accounting).
    pub attempts: u32,
    /// Node that ran (or is running) the task.
    pub node: Option<String>,
    /// Consumed CPU milliseconds (reference-speed occupancy), for
    /// `CPU(Π)` accounting.
    pub cpu_ms: f64,
    /// Virtual start of the most recent attempt.
    pub started_at: Option<SimTime>,
    /// Virtual end (success only).
    pub ended_at: Option<SimTime>,
    /// When the task last became `Ready` (entered the activity queue).
    /// Persisted so queue-wait metrics survive a server crash: a task
    /// that waited through an outage reports the full wait, not just the
    /// post-recovery slice.  `None` while not queued — and for records
    /// written before this field existed, which decode as `None`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ready_at: Option<SimTime>,
    /// Dependability bookkeeping for masked system failures: budget
    /// counter, pending backoff deadline, poison set.  `None` until the
    /// first masked failure — and for records written before the policy
    /// layer existed, which decode as `None`.  Boxed: most records never
    /// see a masked failure.
    pub retry: Option<Box<RetryState>>,
}

/// An instance's task records by path.  A `BTreeMap` leaf is allocated
/// for 11 entries whatever it holds, so the records sit behind a pointer:
/// a leaf is 368 B instead of 2.5 KiB.
pub type TaskMap = BTreeMap<String, Box<TaskRecord>>;

impl TaskRecord {
    /// A fresh inactive record.
    pub fn new(path: impl Into<String>) -> Self {
        TaskRecord {
            path: path.into(),
            state: TaskState::Inactive,
            inputs: FieldMap::new(),
            outputs: FieldMap::new(),
            attempts: 0,
            node: None,
            cpu_ms: 0.0,
            started_at: None,
            ended_at: None,
            ready_at: None,
            retry: None,
        }
    }

    /// The retry bookkeeping, created on first use.
    pub fn retry_mut(&mut self) -> &mut RetryState {
        self.retry.get_or_insert_with(Box::default)
    }

    /// The pending backoff deadline, if one is set.
    pub fn retry_at(&self) -> Option<SimTime> {
        self.retry.as_ref().and_then(|r| r.retry_at)
    }

    /// Is this a parallel child record (`Name[i]`)?
    pub fn is_parallel_child(&self) -> bool {
        self.path.ends_with(']')
    }

    /// For `Name[i]`, the parent task name.
    pub fn parallel_parent(&self) -> Option<&str> {
        let open = self.path.rfind('[')?;
        self.path.ends_with(']').then(|| &self.path[..open])
    }

    /// For `Name[i]`, the child index.
    pub fn parallel_index(&self) -> Option<usize> {
        let open = self.path.rfind('[')?;
        self.path[open + 1..self.path.len() - 1].parse().ok()
    }
}

/// Build the path of a parallel child.
pub fn parallel_child_path(parent: &str, index: usize) -> String {
    format!("{parent}[{index}]")
}

/// Key helpers shared by runtime and planner.
pub mod keys {
    use super::InstanceId;
    use bioopera_store::push_padded;

    /// Append `inst/{id:012}/`, the prefix of all records of an instance.
    fn push_instance_prefix(key: &mut String, id: InstanceId) {
        key.push_str("inst/");
        push_padded(key, id, 12);
        key.push('/');
    }

    /// Append the key of instance `id`'s header (no `path`) or of its task
    /// record at `path`.  The one place that spells either: the journal
    /// writer builds a whole key — shard prefix first — in one pass through
    /// this.
    pub fn push_record(key: &mut String, id: InstanceId, path: Option<&str>) {
        push_instance_prefix(key, id);
        match path {
            None => key.push_str("header"),
            Some(path) => {
                key.push_str("task/");
                key.push_str(path);
            }
        }
    }

    /// Instance header key.
    pub fn header(id: InstanceId) -> String {
        let mut key = String::with_capacity(24);
        push_record(&mut key, id, None);
        key
    }

    /// Task record key.
    pub fn task(id: InstanceId, path: &str) -> String {
        let mut key = String::with_capacity(23 + path.len());
        push_record(&mut key, id, Some(path));
        key
    }

    /// Prefix of all task records of an instance.
    pub fn task_prefix(id: InstanceId) -> String {
        task(id, "")
    }

    /// Prefix of all records of an instance.
    pub fn instance_prefix(id: InstanceId) -> String {
        let mut key = String::with_capacity(18);
        push_instance_prefix(&mut key, id);
        key
    }

    /// Template key in the template space.
    pub fn template(name: &str) -> String {
        format!("tmpl/{name}")
    }

    /// Node key in the configuration space.
    pub fn node(name: &str) -> String {
        format!("node/{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_paths_roundtrip() {
        let r = TaskRecord::new(parallel_child_path("Alignment", 17));
        assert!(r.is_parallel_child());
        assert_eq!(r.parallel_parent(), Some("Alignment"));
        assert_eq!(r.parallel_index(), Some(17));
        let plain = TaskRecord::new("Alignment");
        assert!(!plain.is_parallel_child());
        assert_eq!(plain.parallel_parent(), None);
    }

    #[test]
    fn state_predicates() {
        assert!(TaskState::Ended.is_terminal());
        assert!(TaskState::Skipped.is_terminal());
        assert!(TaskState::Compensated.is_terminal());
        assert!(!TaskState::Failed.is_terminal());
        assert!(TaskState::Failed.is_resolved());
        assert!(!TaskState::Dispatched.is_resolved());
        assert!(!TaskState::Ready.is_resolved());
    }

    #[test]
    fn keys_sort_by_instance() {
        assert!(keys::header(1) < keys::header(2));
        assert!(keys::task(1, "A").starts_with(&keys::task_prefix(1)));
        assert!(keys::task(1, "A").starts_with(&keys::instance_prefix(1)));
        // Ids are zero-padded so instance 10 does not interleave with 1.
        assert!(!keys::header(10).starts_with("inst/1/"));
    }

    #[test]
    fn record_serde_roundtrip() {
        let mut r = TaskRecord::new("Prep");
        r.state = TaskState::Ended;
        r.inputs.insert("x".into(), Value::Int(5));
        r.outputs.insert("y".into(), Value::from(vec![1i64, 2]));
        r.cpu_ms = 123.5;
        r.node = Some("linneus1".into());
        let json = serde_json::to_string(&r).unwrap();
        let back: TaskRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    /// The on-disk format is frozen: these are bytes `serde_json::to_string`
    /// produced at the commit before `inputs`/`outputs` became exact-size
    /// maps and `retry` a box.  They must decode, and encode back to
    /// themselves — journals, WAL frames and `state_digest` depend on it.
    #[test]
    fn records_written_before_the_exact_size_maps_re_encode_to_the_same_bytes() {
        const TASK: &str = concat!(
            r#"{"path":"Alignment[3]","state":"Dispatched","#,
            r#""inputs":{"db":{"Str":["sp38"]},"index":{"Int":[3]},"#,
            r#""item":{"List":[[{"Int":[4]},{"Int":[5]}]]},"#,
            r#""opts":{"Map":[{"pam":{"Float":[250]},"strict":{"Bool":[true]}}]}},"#,
            r#""outputs":{"matches":{"List":[[{"Int":[1]},{"Int":[2]}]]},"none":"Null"},"#,
            r#""attempts":2,"node":"linneus1","cpu_ms":123.5,"#,
            r#""started_at":[30000],"ended_at":[45000],"ready_at":[12000],"#,
            r#""retry":{"sys_failures":2,"retry_at":[60000],"failed_nodes":["linneus3"]}}"#,
        );
        const FRESH: &str = concat!(
            r#"{"path":"Prep","state":"Inactive","inputs":{},"outputs":{},"attempts":0,"#,
            r#""node":null,"cpu_ms":0,"started_at":null,"ended_at":null,"ready_at":null,"#,
            r#""retry":null}"#,
        );
        const HEADER: &str = concat!(
            r#"{"id":42,"template":"AllVsAll","status":"Running","#,
            r#""whiteboard":{"db":{"Str":["sp38"]},"#,
            r#""queue":{"List":[[{"Int":[3]},{"Int":[1]},{"Int":[2]}]]},"y":"Null"},"#,
            r#""parent":[7,"Chunk[1]"],"created_at":[5000],"ended_at":null}"#,
        );
        for old in [TASK, FRESH] {
            let rec: TaskRecord = serde_json::from_str(old).unwrap();
            assert_eq!(serde_json::to_string(&rec).unwrap(), old);
        }
        let rec: TaskRecord = serde_json::from_str(TASK).unwrap();
        assert_eq!(rec.inputs.len(), 4);
        assert_eq!(rec.inputs["index"], Value::Int(3));
        assert_eq!(rec.outputs["none"], Value::Null);
        assert_eq!(rec.retry_at(), Some(SimTime::from_secs(60)));
        let header: InstanceHeader = serde_json::from_str(HEADER).unwrap();
        assert_eq!(serde_json::to_string(&header).unwrap(), HEADER);
        assert_eq!(header.parent, Some((7, "Chunk[1]".to_string())));
    }

    #[test]
    fn retry_state_roundtrips_and_old_records_decode() {
        let mut r = TaskRecord::new("Align[2]");
        {
            let retry = r.retry_mut();
            retry.sys_failures = 2;
            retry.retry_at = Some(SimTime::from_secs(30));
            retry.note_failed_node("linneus3");
        }
        assert_eq!(r.retry_at(), Some(SimTime::from_secs(30)));
        let json = serde_json::to_string(&r).unwrap();
        let back: TaskRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // A record serialized before the policy layer existed has no
        // `retry` field at all; it must decode as `None`.
        let old = r#"{"path":"Prep","state":"Inactive","inputs":{},"outputs":{},
                      "attempts":0,"node":null,"cpu_ms":0.0,
                      "started_at":null,"ended_at":null}"#;
        let legacy: TaskRecord = serde_json::from_str(old).unwrap();
        assert_eq!(legacy.retry, None);
        assert_eq!(legacy.retry_at(), None);
    }
}
