//! The awareness model: persistent history of everything that happened.
//!
//! "Beyond task start times, task finish times and task failures, the
//! system also stores information regarding the load in each node, node
//! availability, node failure, node capacity, and other relevant
//! information regarding the state of the computing environment.  All
//! together, this information allows the creation of an awareness model"
//! (§3.4).  Records live in the History space and survive everything.
//!
//! Events carry a structured [`EventKind`] taxonomy (instance, task, node,
//! cluster and operator events with typed fields) rather than free-form
//! strings; records written by earlier versions still deserialize as
//! [`EventKind::Legacy`].  An in-memory [`AwarenessIndex`] is maintained
//! incrementally as each commit of the history lands — by-kind /
//! by-instance / by-node postings, counters, gauges and latency histograms
//! — so monitoring queries never rescan the store.
//!
//! This module is the History space's reader and defines its records; the
//! one writer is [`crate::history`], which both drivers commit through:
//! the stream of `sev/{round}/{index}` [`ShardEvent`]s summarized by a
//! [`StreamSummary`].  Stores written before the serial runtime joined that
//! stream hold `ev/{seq}` [`HistoryEvent`]s summarized by a `rollup`
//! record; [`Awareness`] still reads them, and picks the layout by what the
//! store holds.

use crate::history::{round_start_key, EVENT_PREFIX};
use crate::metrics::Histogram;
use crate::state::InstanceId;
use bioopera_cluster::SimTime;
use bioopera_store::{Batch, Disk, Space, Store, StoreError};
use serde::{Content, DeError, Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What happened, with typed fields.  `instance` is the [`InstanceId`],
/// `path` the task path inside the process template, `node` a cluster node
/// name; durations are virtual milliseconds.
///
/// [`InstanceId`]: crate::state::InstanceId
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A process instance was submitted and started.
    InstanceStart {
        /// Instance id.
        instance: u64,
        /// Template name it was instantiated from.
        template: String,
    },
    /// An instance reached `Completed`.
    InstanceComplete {
        /// Instance id.
        instance: u64,
    },
    /// An instance reached `Aborted`.
    InstanceAbort {
        /// Instance id.
        instance: u64,
    },
    /// A lineage-driven partial recomputation was applied.
    InstanceRecompute {
        /// The new instance id.
        instance: u64,
        /// The terminal source instance whose recorded outputs are reused.
        source: u64,
        /// Tasks/fields whose change triggered the recompute.
        changed: Vec<String>,
    },
    /// The operator restarted an instance (e.g. after a non-reporting TEU).
    InstanceRestart {
        /// Instance id.
        instance: u64,
        /// Dispatched tasks pulled back into the ready queue.
        requeued: u64,
    },
    /// The operator suspended an instance.
    InstanceSuspend {
        /// Instance id.
        instance: u64,
    },
    /// The operator resumed an instance.
    InstanceResume {
        /// Instance id.
        instance: u64,
    },
    /// A task was dispatched to a node.
    TaskStart {
        /// Instance id.
        instance: u64,
        /// Task path.
        path: String,
        /// Node it was placed on.
        node: String,
        /// TEU job id on that node.
        job: u64,
        /// Time spent ready-but-unscheduled before dispatch.
        queue_ms: u64,
    },
    /// A task finished and its effects were applied.
    TaskEnd {
        /// Instance id.
        instance: u64,
        /// Task path.
        path: String,
        /// Node it ran on.
        node: String,
        /// Dispatch→completion wall time.
        run_ms: u64,
        /// Reference-CPU milliseconds charged.
        cpu_ms: f64,
    },
    /// A task failed with a program-level error.
    TaskFail {
        /// Instance id.
        instance: u64,
        /// Task path.
        path: String,
        /// Program error message.
        error: String,
    },
    /// A task failure reclassified as a system failure (node fault, §3.4)
    /// and scheduled for transparent re-execution.
    TaskSystemFail {
        /// Instance id.
        instance: u64,
        /// Task path.
        path: String,
        /// What the system observed (crash, network partition, ...).
        reason: String,
    },
    /// A TEU stopped reporting; the operator will restart the instance.
    TaskNonReport {
        /// Instance id.
        instance: u64,
        /// Task path.
        path: String,
    },
    /// A task died to a full disk on its node.
    TaskDiskFull {
        /// Instance id.
        instance: u64,
        /// Task path.
        path: String,
    },
    /// A masked failure was deferred with an exponential-backoff timer
    /// (annotation alongside `task.systemfail`; the dispatch slot was
    /// already released by that event).
    TaskBackoff {
        /// Instance id.
        instance: u64,
        /// Task path.
        path: String,
        /// Masked failures so far (drives the exponent).
        attempt: u32,
        /// Virtual milliseconds until the task may be re-dispatched.
        delay_ms: u64,
    },
    /// A task system-failed once too often (distinct-node poison set or
    /// exhausted retry budget) and was escalated to a program failure.
    TaskPoisoned {
        /// Instance id.
        instance: u64,
        /// Task path.
        path: String,
        /// Why masking stopped.
        reason: String,
    },
    /// A dispatched task was pulled off a dead node and requeued.
    TaskMigrate {
        /// Instance id.
        instance: u64,
        /// Task path.
        path: String,
        /// The node it was evacuated from.
        node: String,
    },
    /// A compensation program ran while aborting an instance.
    TaskCompensate {
        /// Instance id.
        instance: u64,
        /// Task path being compensated.
        path: String,
        /// Compensation program name.
        program: String,
    },
    /// A late-bound subprocess was instantiated.
    SubprocessStart {
        /// Parent instance id.
        instance: u64,
        /// Subprocess task path in the parent.
        path: String,
        /// Child instance id.
        child: u64,
        /// Child template name.
        template: String,
    },
    /// A finished child instance reported to an already-completed
    /// subprocess slot (duplicate delivery, ignored).
    SubprocessDuplicate {
        /// Parent instance id.
        instance: u64,
        /// Subprocess task path in the parent.
        path: String,
        /// Child instance id.
        child: u64,
    },
    /// An event referenced an instance or task record the engine does not
    /// know — a stale in-flight completion after recovery, a foreign
    /// journal record, or a cross-shard race.  Recorded instead of
    /// panicking; the triggering event is dropped.
    StaleEvent {
        /// The instance the event referenced.
        instance: u64,
        /// The task path it referenced, if any.
        path: Option<String>,
        /// What the engine was doing when the lookup failed.
        context: String,
    },
    /// An external event was signalled into an instance.
    EventSignal {
        /// Instance id.
        instance: u64,
        /// Event name.
        event: String,
    },
    /// A node crashed.
    NodeCrash {
        /// Node name.
        node: String,
    },
    /// A node came back.
    NodeRecover {
        /// Node name.
        node: String,
    },
    /// Consecutive job failures pushed a node into quarantine: the
    /// scheduler will not place work there until the interval expires.
    NodeQuarantine {
        /// Node name.
        node: String,
        /// Consecutive failures that triggered the quarantine.
        failures: u32,
    },
    /// A node's quarantine interval expired; it re-enters scheduling on
    /// probation.
    NodeProbation {
        /// Node name.
        node: String,
    },
    /// A node's PEC lost its network link to the server: no dispatches,
    /// completions buffer at the node until it rejoins.
    NodePartition {
        /// Node name.
        node: String,
    },
    /// A partitioned node rejoined; its buffered completions were
    /// delivered.
    NodeRejoin {
        /// Node name.
        node: String,
    },
    /// A load sample: external (non-BioOpera) CPU pressure on a node.
    NodeLoad {
        /// Node name.
        node: String,
        /// CPUs' worth of external load.
        cpus: f64,
    },
    /// The whole cluster failed (switch failure, Fig. 5).
    ClusterFailure,
    /// The whole cluster recovered.
    ClusterRecover,
    /// The cluster was upgraded mid-run (Fig. 6).
    ClusterUpgrade {
        /// CPUs added.
        cpus: u32,
    },
    /// The BioOpera server recovered after a crash and rebuilt from the
    /// store.
    ServerRecover {
        /// Dispatched tasks requeued during rebuild.
        requeued: u64,
    },
    /// Operator suspended the whole engine.
    OperatorSuspend,
    /// Operator resumed the whole engine.
    OperatorResume,
    /// The tiered store spilled its memtable into sorted runs since the
    /// previous navigator step.  The read-side counters are cumulative
    /// store totals sampled with the spill, so the awareness index can
    /// report tier I/O health without polling the store.
    StoreSpill {
        /// Spills performed since the last store event.
        spills: u64,
        /// Sorted runs resident after the spill.
        runs: u64,
        /// Cumulative reads answered by run metadata alone (key-range
        /// check, sparse index, or bloom filter) — never a disk read.
        bloom_skips: u64,
        /// Cumulative block-cache hits.
        cache_hits: u64,
        /// Cumulative block-cache misses (block decoded from disk).
        cache_misses: u64,
    },
    /// Sorted runs were merged, or pushed down the level hierarchy.
    StoreCompaction {
        /// Merges/push-downs since the last store event.
        merges: u64,
        /// Deepest populated level after the merge (1 = L0 only).
        levels: u64,
        /// Largest single merge input observed so far, in bytes.
        max_merge_bytes: u64,
    },
    /// The retention watermark advanced: raw history records durably
    /// covered by the awareness rollup were retired from the store.
    StoreRetention {
        /// Records retired by this advance.
        retired: u64,
        /// Exclusive upper bound (store key) of the retired window.
        below: String,
    },
    /// A record written before the typed taxonomy (old string format).
    Legacy {
        /// The old free-form kind, e.g. `task.end`.
        kind: String,
        /// The old free-form detail string.
        detail: String,
    },
}

impl EventKind {
    /// The stable dot-separated label (`task.end`, `node.crash`, ...) —
    /// the same strings the pre-taxonomy records used, so label-based
    /// queries span old and new history.  [`Legacy`] records answer with
    /// their stored kind.
    ///
    /// [`Legacy`]: EventKind::Legacy
    pub fn label(&self) -> &str {
        match self {
            EventKind::InstanceStart { .. } => "instance.start",
            EventKind::InstanceComplete { .. } => "instance.complete",
            EventKind::InstanceAbort { .. } => "instance.abort",
            EventKind::InstanceRecompute { .. } => "instance.recompute",
            EventKind::InstanceRestart { .. } => "instance.restart",
            EventKind::InstanceSuspend { .. } => "instance.suspend",
            EventKind::InstanceResume { .. } => "instance.resume",
            EventKind::TaskStart { .. } => "task.start",
            EventKind::TaskEnd { .. } => "task.end",
            EventKind::TaskFail { .. } => "task.fail",
            EventKind::TaskSystemFail { .. } => "task.systemfail",
            EventKind::TaskNonReport { .. } => "task.nonreport",
            EventKind::TaskDiskFull { .. } => "task.diskfull",
            EventKind::TaskBackoff { .. } => "task.backoff",
            EventKind::TaskPoisoned { .. } => "task.poisoned",
            EventKind::TaskMigrate { .. } => "task.migrate",
            EventKind::TaskCompensate { .. } => "task.compensate",
            EventKind::SubprocessStart { .. } => "subprocess.start",
            EventKind::SubprocessDuplicate { .. } => "subprocess.duplicate",
            EventKind::StaleEvent { .. } => "event.stale",
            EventKind::EventSignal { .. } => "event.signal",
            EventKind::NodeCrash { .. } => "node.crash",
            EventKind::NodeRecover { .. } => "node.recover",
            EventKind::NodeQuarantine { .. } => "node.quarantine",
            EventKind::NodeProbation { .. } => "node.probation",
            EventKind::NodePartition { .. } => "node.partition",
            EventKind::NodeRejoin { .. } => "node.rejoin",
            EventKind::NodeLoad { .. } => "node.load",
            EventKind::ClusterFailure => "cluster.failure",
            EventKind::ClusterRecover => "cluster.recover",
            EventKind::ClusterUpgrade { .. } => "cluster.upgrade",
            EventKind::ServerRecover { .. } => "server.recover",
            EventKind::OperatorSuspend => "operator.suspend",
            EventKind::OperatorResume => "operator.resume",
            EventKind::StoreSpill { .. } => "store.spill",
            EventKind::StoreCompaction { .. } => "store.compaction",
            EventKind::StoreRetention { .. } => "store.retention",
            EventKind::Legacy { kind, .. } => kind,
        }
    }

    /// The instance this event concerns, if any.
    pub fn instance(&self) -> Option<u64> {
        match self {
            EventKind::InstanceStart { instance, .. }
            | EventKind::InstanceComplete { instance }
            | EventKind::InstanceAbort { instance }
            | EventKind::InstanceRecompute { instance, .. }
            | EventKind::InstanceRestart { instance, .. }
            | EventKind::InstanceSuspend { instance }
            | EventKind::InstanceResume { instance }
            | EventKind::TaskStart { instance, .. }
            | EventKind::TaskEnd { instance, .. }
            | EventKind::TaskFail { instance, .. }
            | EventKind::TaskSystemFail { instance, .. }
            | EventKind::TaskNonReport { instance, .. }
            | EventKind::TaskDiskFull { instance, .. }
            | EventKind::TaskBackoff { instance, .. }
            | EventKind::TaskPoisoned { instance, .. }
            | EventKind::TaskMigrate { instance, .. }
            | EventKind::TaskCompensate { instance, .. }
            | EventKind::SubprocessStart { instance, .. }
            | EventKind::SubprocessDuplicate { instance, .. }
            | EventKind::StaleEvent { instance, .. }
            | EventKind::EventSignal { instance, .. } => Some(*instance),
            _ => None,
        }
    }

    /// The task path this event concerns, if any.
    pub fn task_path(&self) -> Option<&str> {
        match self {
            EventKind::TaskStart { path, .. }
            | EventKind::TaskEnd { path, .. }
            | EventKind::TaskFail { path, .. }
            | EventKind::TaskSystemFail { path, .. }
            | EventKind::TaskNonReport { path, .. }
            | EventKind::TaskDiskFull { path, .. }
            | EventKind::TaskBackoff { path, .. }
            | EventKind::TaskPoisoned { path, .. }
            | EventKind::TaskMigrate { path, .. }
            | EventKind::TaskCompensate { path, .. }
            | EventKind::SubprocessStart { path, .. }
            | EventKind::SubprocessDuplicate { path, .. } => Some(path),
            EventKind::StaleEvent { path, .. } => path.as_deref(),
            _ => None,
        }
    }

    /// The node this event concerns, if any.
    pub fn node(&self) -> Option<&str> {
        match self {
            EventKind::TaskStart { node, .. }
            | EventKind::TaskEnd { node, .. }
            | EventKind::TaskMigrate { node, .. }
            | EventKind::NodeCrash { node }
            | EventKind::NodeRecover { node }
            | EventKind::NodeQuarantine { node, .. }
            | EventKind::NodeProbation { node }
            | EventKind::NodePartition { node }
            | EventKind::NodeRejoin { node }
            | EventKind::NodeLoad { node, .. } => Some(node),
            _ => None,
        }
    }
}

/// Label comparison, so `event.kind == "task.end"` reads like the old
/// string-typed field.
impl PartialEq<&str> for EventKind {
    fn eq(&self, other: &&str) -> bool {
        self.label() == *other
    }
}

impl PartialEq<str> for EventKind {
    fn eq(&self, other: &str) -> bool {
        self.label() == other
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One history record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistoryEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// Hand-written so pre-taxonomy records still load: the old format was
/// `{"at": ..., "kind": "<string>", "detail": "<string>"}` — a top-level
/// `detail` field marks it (typed records never serialize one), and its
/// free-form strings become [`EventKind::Legacy`].
impl Deserialize for HistoryEvent {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let entries = match c {
            Content::Map(entries) => entries,
            other => {
                return Err(DeError::custom(format!(
                    "expected history event map, found {other:?}"
                )))
            }
        };
        let at: SimTime = serde::__field(entries, "at")?;
        let kind_c = entries
            .iter()
            .find(|(k, _)| k == "kind")
            .map(|(_, v)| v)
            .ok_or_else(|| DeError::custom("history event missing `kind`"))?;
        let detail = entries.iter().find(|(k, _)| k == "detail").map(|(_, v)| v);
        let kind = match (kind_c, detail) {
            (Content::Str(kind), Some(Content::Str(detail))) => EventKind::Legacy {
                kind: kind.clone(),
                detail: detail.clone(),
            },
            (_, None) => EventKind::from_content(kind_c).or_else(|e| match kind_c {
                // A bare kind string that is no unit-variant name is still
                // a legacy record (tolerate a missing detail field).
                Content::Str(kind) => Ok(EventKind::Legacy {
                    kind: kind.clone(),
                    detail: String::new(),
                }),
                _ => Err(e),
            })?,
            (_, Some(other)) => {
                return Err(DeError::custom(format!(
                    "history event `detail` must be a string, found {other:?}"
                )))
            }
        };
        Ok(HistoryEvent { at, kind })
    }
}

/// One record of the history stream, `sev/{round}/{index}`: the event, the
/// round that committed it, and `(instance, seq)`, its place in the
/// sharded engine's barrier order (the serial runtime writes the instance
/// the event concerns, 0 for none, and its index in the round).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ShardEvent {
    /// The round the event was committed at.
    pub round: u64,
    /// Source instance.
    pub instance: InstanceId,
    /// Per-instance sequence number.
    pub seq: u64,
    /// Virtual time, where the driver keeps a clock of its own (the serial
    /// runtime); `None` on the sharded engine, whose clock is the round.
    pub at: Option<SimTime>,
    /// What happened.
    pub kind: EventKind,
}

impl ShardEvent {
    /// When the event happened, as the awareness model sees it.
    pub fn time(&self) -> SimTime {
        self.at.unwrap_or_else(|| SimTime::from_secs(self.round))
    }
}

/// Hand-written so that an event without a time has no `at` member (the
/// derive would write `null`): the sharded engine's records keep the bytes
/// they had before the member existed.  The member sits before `kind`,
/// which runs to the closing brace (`history::encoded_kind` relies on it).
impl Serialize for ShardEvent {
    fn to_content(&self) -> Content {
        let mut members = vec![
            ("round".to_string(), self.round.to_content()),
            ("instance".to_string(), self.instance.to_content()),
            ("seq".to_string(), self.seq.to_content()),
        ];
        if let Some(at) = self.at {
            members.push(("at".to_string(), at.to_content()));
        }
        members.push(("kind".to_string(), self.kind.to_content()));
        Content::Map(members)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"round\":");
        self.round.write_json(out);
        out.push_str(",\"instance\":");
        self.instance.write_json(out);
        out.push_str(",\"seq\":");
        self.seq.write_json(out);
        if let Some(at) = self.at {
            out.push_str(",\"at\":");
            at.write_json(out);
        }
        out.push_str(",\"kind\":");
        self.kind.write_json(out);
        out.push('}');
    }
}

/// Awareness-layer errors: store failures, plus history keys that do not
/// belong to the append sequence (foreign or corrupt keys must surface,
/// never silently reset the sequence — that would overwrite history).
#[derive(Debug)]
pub enum AwarenessError {
    /// The underlying store failed.
    Store(StoreError),
    /// A History-space key under the event prefix is not a sequence number.
    BadKey {
        /// The offending key (without the `ev/` prefix).
        key: String,
    },
    /// A record of the stream does not decode.  The store is CRC-framed,
    /// so this is a format fault, and it is named.
    BadRecord {
        /// The full key of the record.
        key: String,
        /// What the decoder said.
        reason: String,
    },
}

impl fmt::Display for AwarenessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AwarenessError::Store(e) => write!(f, "store: {e}"),
            AwarenessError::BadKey { key } => {
                write!(f, "history key `{key}` is not a sequence number")
            }
            AwarenessError::BadRecord { key, reason } => {
                write!(f, "corrupt history event {key}: {reason}")
            }
        }
    }
}

impl std::error::Error for AwarenessError {}

impl From<StoreError> for AwarenessError {
    fn from(e: StoreError) -> Self {
        AwarenessError::Store(e)
    }
}

/// In-memory index over the event log, maintained incrementally as events
/// are committed (and rebuilt from the store on open/recovery).  Answers
/// the monitoring queries — counts, postings, latency histograms, gauges —
/// without rescanning the History space.
///
/// Invariant (checked by the equivalence proptests): ingesting the full
/// event log in sequence order produces the same index as the incremental
/// path, so every query here equals its full-scan answer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AwarenessIndex {
    log: Vec<HistoryEvent>,
    by_kind: BTreeMap<String, Vec<usize>>,
    by_instance: BTreeMap<u64, Vec<usize>>,
    by_node: BTreeMap<String, Vec<usize>>,
    run_ms: Histogram,
    queue_ms: Histogram,
    in_flight: u64,
    peak_in_flight: u64,
    nodes_down: BTreeSet<String>,
    nodes_quarantined: BTreeSet<String>,
    total_cpu_ms: f64,
    /// Tier I/O health counters folded from `store.*` events: `spills`,
    /// `merges` and `retired` accumulate deltas; `runs`, `levels`,
    /// `bloom_skips`, `cache_hits` and `cache_misses` hold the latest
    /// sampled store totals; `max_merge_bytes` keeps the maximum.
    store_io: BTreeMap<String, u64>,
    /// Events folded into a durable [`RollupRecord`] before this index
    /// was opened: they are part of every aggregate (counts, histograms,
    /// gauges) but carry no in-memory log entry or postings.  Zero when
    /// the index was built from a full scan.
    base_len: u64,
    /// Per-kind counts of the summarized prefix.
    base_counts: BTreeMap<String, u64>,
}

impl AwarenessIndex {
    /// Fold one event in (events must arrive in sequence order).
    pub fn ingest(&mut self, ev: &HistoryEvent) {
        self.push(ev.clone());
    }

    /// [`ingest`](AwarenessIndex::ingest) for a caller that is done with
    /// the event: it moves into the log.
    fn push(&mut self, ev: HistoryEvent) {
        match &ev.kind {
            EventKind::TaskStart { queue_ms, .. } => {
                self.queue_ms.observe(*queue_ms);
                self.in_flight += 1;
                self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
            }
            EventKind::TaskEnd { run_ms, cpu_ms, .. } => {
                self.run_ms.observe(*run_ms);
                self.total_cpu_ms += cpu_ms;
                self.in_flight = self.in_flight.saturating_sub(1);
            }
            // Terminal-or-requeue outcomes: the dispatch slot is gone.
            // (`task.diskfull` / `task.migrate` / `task.backoff` are
            // annotations always paired with a `task.systemfail` or
            // `task.poisoned` for the same slot, so they must not
            // decrement too.)
            EventKind::TaskFail { .. }
            | EventKind::TaskSystemFail { .. }
            | EventKind::TaskPoisoned { .. }
            | EventKind::TaskNonReport { .. } => {
                self.in_flight = self.in_flight.saturating_sub(1);
            }
            EventKind::InstanceRestart { requeued, .. } => {
                self.in_flight = self.in_flight.saturating_sub(*requeued);
            }
            EventKind::NodeCrash { node } => {
                self.nodes_down.insert(node.clone());
            }
            EventKind::NodeRecover { node } => {
                self.nodes_down.remove(node);
            }
            EventKind::NodeQuarantine { node, .. } => {
                self.nodes_quarantined.insert(node.clone());
            }
            EventKind::NodeProbation { node } => {
                self.nodes_quarantined.remove(node);
            }
            // A server crash loses all volatile dispatch state; rebuild
            // requeues what was dispatched.
            EventKind::ServerRecover { .. } => self.in_flight = 0,
            EventKind::StoreSpill {
                spills,
                runs,
                bloom_skips,
                cache_hits,
                cache_misses,
            } => {
                *self.store_io.entry("spills".into()).or_insert(0) += spills;
                self.store_io.insert("runs".into(), *runs);
                self.store_io.insert("bloom_skips".into(), *bloom_skips);
                self.store_io.insert("cache_hits".into(), *cache_hits);
                self.store_io.insert("cache_misses".into(), *cache_misses);
            }
            EventKind::StoreCompaction {
                merges,
                levels,
                max_merge_bytes,
            } => {
                *self.store_io.entry("merges".into()).or_insert(0) += merges;
                self.store_io.insert("levels".into(), *levels);
                let top = self.store_io.entry("max_merge_bytes".into()).or_insert(0);
                *top = (*top).max(*max_merge_bytes);
            }
            EventKind::StoreRetention { retired, .. } => {
                *self.store_io.entry("retired".into()).or_insert(0) += retired;
            }
            _ => {}
        }
        let i = self.log.len();
        self.by_kind
            .entry(ev.kind.label().to_string())
            .or_default()
            .push(i);
        if let Some(id) = ev.kind.instance() {
            self.by_instance.entry(id).or_default().push(i);
        }
        if let Some(node) = ev.kind.node() {
            self.by_node.entry(node.to_string()).or_default().push(i);
        }
        self.log.push(ev);
    }

    /// Events indexed — the summarized prefix plus the in-memory tail.
    pub fn len(&self) -> usize {
        self.base_len as usize + self.log.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events folded into the rollup this index was seeded from (zero
    /// for a full-scan index).  Postings queries ([`of_kind`],
    /// [`for_instance`], [`for_node`], [`events`]) cover only the tail
    /// beyond this prefix; every aggregate covers the full history.
    ///
    /// [`of_kind`]: AwarenessIndex::of_kind
    /// [`for_instance`]: AwarenessIndex::for_instance
    /// [`for_node`]: AwarenessIndex::for_node
    /// [`events`]: AwarenessIndex::events
    pub fn summarized(&self) -> u64 {
        self.base_len
    }

    /// The in-memory tail of the log, in sequence order (the whole log
    /// when [`summarized`](AwarenessIndex::summarized) is zero).
    pub fn events(&self) -> &[HistoryEvent] {
        &self.log
    }

    /// How many events carry this kind label, across the summarized
    /// prefix and the tail.
    pub fn count(&self, kind: &str) -> usize {
        self.base_counts.get(kind).copied().unwrap_or(0) as usize
            + self.by_kind.get(kind).map_or(0, Vec::len)
    }

    /// `(label, count)` for every kind seen, label-sorted, across the
    /// summarized prefix and the tail.
    pub fn counts_by_kind(&self) -> Vec<(String, usize)> {
        let mut out: BTreeMap<String, usize> = self
            .base_counts
            .iter()
            .map(|(k, &n)| (k.clone(), n as usize))
            .collect();
        for (k, v) in &self.by_kind {
            *out.entry(k.clone()).or_insert(0) += v.len();
        }
        out.into_iter().collect()
    }

    /// Seed an index from a durable rollup: aggregates restored, log and
    /// postings empty (the caller ingests the tail on top).
    fn from_rollup(r: &RollupRecord) -> AwarenessIndex {
        AwarenessIndex {
            run_ms: r.run_ms.clone(),
            queue_ms: r.queue_ms.clone(),
            in_flight: r.in_flight,
            peak_in_flight: r.peak_in_flight,
            nodes_down: r.nodes_down.iter().cloned().collect(),
            nodes_quarantined: r.nodes_quarantined.iter().cloned().collect(),
            total_cpu_ms: r.total_cpu_ms,
            store_io: r.store_io.clone(),
            base_len: r.base,
            base_counts: r.counts.clone(),
            ..AwarenessIndex::default()
        }
    }

    /// Snapshot every aggregate as a rollup covering the first `base`
    /// events.  Only valid when the index has ingested exactly those —
    /// which is how [`Awareness::summary_into`] calls it (the summary
    /// rides the same atomic batch as the events it folds in).
    fn to_rollup(&self, base: u64) -> RollupRecord {
        RollupRecord {
            base,
            counts: self
                .counts_by_kind()
                .into_iter()
                .map(|(k, n)| (k, n as u64))
                .collect(),
            run_ms: self.run_ms.clone(),
            queue_ms: self.queue_ms.clone(),
            in_flight: self.in_flight,
            peak_in_flight: self.peak_in_flight,
            nodes_down: self.nodes_down.iter().cloned().collect(),
            nodes_quarantined: self.nodes_quarantined.iter().cloned().collect(),
            total_cpu_ms: self.total_cpu_ms,
            store_io: self.store_io.clone(),
        }
    }

    /// Events with this kind label, in order.
    pub fn of_kind(&self, kind: &str) -> Vec<&HistoryEvent> {
        self.posting(self.by_kind.get(kind))
    }

    /// Events concerning one instance, in order.
    pub fn for_instance(&self, instance: u64) -> Vec<&HistoryEvent> {
        self.posting(self.by_instance.get(&instance))
    }

    /// Events concerning one node, in order.
    pub fn for_node(&self, node: &str) -> Vec<&HistoryEvent> {
        self.posting(self.by_node.get(node))
    }

    fn posting(&self, ids: Option<&Vec<usize>>) -> Vec<&HistoryEvent> {
        ids.map_or_else(Vec::new, |v| v.iter().map(|&i| &self.log[i]).collect())
    }

    /// Dispatch→completion wall-time histogram of ended tasks.
    pub fn run_ms(&self) -> &Histogram {
        &self.run_ms
    }

    /// Ready→dispatch queue-wait histogram of dispatched tasks.
    pub fn queue_ms(&self) -> &Histogram {
        &self.queue_ms
    }

    /// Tasks currently dispatched (gauge).
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Most concurrently dispatched tasks ever observed.
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight
    }

    /// Nodes currently believed down (crashed, not yet recovered).
    pub fn nodes_down(&self) -> &BTreeSet<String> {
        &self.nodes_down
    }

    /// Nodes currently quarantined by the dependability policy.
    pub fn nodes_quarantined(&self) -> &BTreeSet<String> {
        &self.nodes_quarantined
    }

    /// Reference-CPU milliseconds charged by all ended tasks.
    pub fn total_cpu_ms(&self) -> f64 {
        self.total_cpu_ms
    }

    /// Tier I/O health counters folded from `store.*` events — spill and
    /// merge totals, the latest sampled bloom-skip and block-cache
    /// hit/miss counters, and records retired by retention.  Empty until
    /// the first store event is recorded.
    pub fn store_io(&self) -> &BTreeMap<String, u64> {
        &self.store_io
    }
}

/// History-space key of the `ev/` layout's rollup.  Outside the `ev/`
/// prefix so event scans never see it.
const ROLLUP_KEY: &str = "rollup";

/// The aggregates of a prefix of the history: the event-log prefix
/// `[0, base)` of the `ev/` layout as its `rollup` record (written, until
/// the serial runtime joined the stream, in the batch whose events it
/// covers), and inside every [`StreamSummary`].  Seeding an index from it
/// plus a tail scan reproduces every aggregate query of a full-history
/// scan, which is what makes [`Awareness::open_tail`] O(tail) instead of
/// O(history).
///
/// Public by name only, as the other stored record types are, so that a
/// reader of the History space can decode the `rollup` record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollupRecord {
    /// Events with sequence number below this are summarized.
    base: u64,
    /// Per-kind-label event counts.
    counts: BTreeMap<String, u64>,
    /// Task run-time histogram.
    run_ms: Histogram,
    /// Queue-wait histogram.
    queue_ms: Histogram,
    /// Tasks dispatched but not yet resolved.
    in_flight: u64,
    /// High-water mark of `in_flight`.
    peak_in_flight: u64,
    /// Nodes believed down (sets serialize as sorted lists).
    nodes_down: Vec<String>,
    /// Nodes under quarantine.
    nodes_quarantined: Vec<String>,
    /// Total reference-CPU milliseconds charged.
    total_cpu_ms: f64,
    /// Tier I/O counters folded from `store.*` events.  Decodes as empty
    /// from rollups written before the field existed.
    store_io: BTreeMap<String, u64>,
}

/// History-space key of the stream's summary: outside `sev/`, `ev/` and
/// `rollup`, so no scan of either layout meets it.
const SUMMARY_KEY: &str = "summary";

/// The durable summary of the stream (`sev/{round}/{index}`): the
/// aggregates of every event of the rounds below `next_round`, committed
/// in the **same WAL frame** as the last of those rounds.
/// [`RollupRecord`]'s bytes are frozen and count events, not rounds, so
/// where the tail starts is carried beside it — and so is the writer's
/// lifetime `digest` of exactly those rounds, which with `rollup.base` and
/// `rollup.counts` is everything a recovering engine would otherwise
/// refold the whole stream for.
///
/// A store an earlier sharded engine wrote, with an `ev/` twin beside each
/// `sev/` record and a `rollup` counting the twins, has no such record; it
/// reopens from a full scan of `sev/` and gains one at the next cadence.
/// A store the serial runtime wrote before it joined the stream has `ev/`
/// history and no `sev/`: the first commit on it carries a summary
/// whatever the cadence, whose `rollup` counts the `ev/` events as well,
/// so no reopen counts only the stream.  A summary written before the
/// digest was carried has no `digest` member: that store refolds in full,
/// once.
///
/// Public by name only, as [`RollupRecord`] is.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct StreamSummary {
    /// Events of this round and later are the tail.
    next_round: u64,
    /// The aggregates; `base` is the number of events summarized.
    rollup: RollupRecord,
    /// The engine's history digest over the summarized events; `None` in
    /// a record an engine wrote before the member existed.
    digest: Option<u64>,
}

impl StreamSummary {
    /// The first round the summary does not cover.
    pub(crate) fn next_round(&self) -> u64 {
        self.next_round
    }

    /// The history digest over the rounds it covers, if it carries one.
    pub(crate) fn digest(&self) -> Option<u64> {
        self.digest
    }
}

/// Hand-written so that a summary without a digest has no `digest` member
/// (the derive would write `null`): a record an earlier engine stored
/// re-encodes to the bytes it was read from.
impl Serialize for StreamSummary {
    fn to_content(&self) -> Content {
        let mut members = vec![
            ("next_round".to_string(), self.next_round.to_content()),
            ("rollup".to_string(), self.rollup.to_content()),
        ];
        if let Some(digest) = self.digest {
            members.push(("digest".to_string(), digest.to_content()));
        }
        Content::Map(members)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"next_round\":");
        self.next_round.write_json(out);
        out.push_str(",\"rollup\":");
        self.rollup.write_json(out);
        if let Some(digest) = self.digest {
            out.push_str(",\"digest\":");
            digest.write_json(out);
        }
        out.push('}');
    }
}

/// The History space's reader: the awareness model over whichever layout
/// the store holds, with the incremental [`AwarenessIndex`].  What the
/// drivers commit reaches it through [`crate::history`], the one writer,
/// as each commit lands.
pub struct Awareness {
    index: AwarenessIndex,
    /// Events deserialized by the most recent open — the O(tail) witness
    /// asserted by tests and reported by benches.
    open_scanned: u64,
}

impl Awareness {
    /// Open over a store, rebuilding the index from a **full scan** of
    /// its history — of the stream if the store holds one, else of `ev/`,
    /// where a key that does not parse as a sequence number is an error.
    ///
    /// This is the exact, O(history) path over one layout;
    /// [`Awareness::open_tail`] resumes from the durable summary instead.
    pub fn open<D: Disk>(store: &Store<D>) -> Result<Self, AwarenessError> {
        match Self::open_stream(store, None)? {
            Some(stream) => Ok(stream),
            None => Self::open_seq(store),
        }
    }

    /// [`Awareness::open`] over the `ev/` layout.
    fn open_seq<D: Disk>(store: &Store<D>) -> Result<Self, AwarenessError> {
        let mut aw = Self::from_summary(None);
        for (_, ev) in Self::scan_sorted(store)? {
            aw.open_scanned += 1;
            aw.index.push(ev);
        }
        Ok(aw)
    }

    /// Open over a store in **O(tail)**: seed the index from the durable
    /// summary, then scan and ingest only the events past it.  Every
    /// aggregate query (counts, histograms, gauges) equals the full-scan
    /// answer; postings queries on the raw index cover only the tail, and
    /// [`Awareness::of_kind`] transparently falls back to a store scan
    /// when that matters.  With no summary on disk this is exactly
    /// [`Awareness::open`].
    ///
    /// The layout is picked from what the store holds: a
    /// [`StreamSummary`], else any `sev/` record, means the stream;
    /// otherwise `ev/` and its `rollup`.
    pub fn open_tail<D: Disk>(store: &Store<D>) -> Result<Self, AwarenessError> {
        let summary = Self::stream_summary(store)?;
        if let Some(stream) = Self::open_stream(store, summary)? {
            return Ok(stream);
        }
        let Some(rollup) = Self::read_record::<_, RollupRecord>(store, ROLLUP_KEY)? else {
            return Self::open_seq(store);
        };
        let base = rollup.base;
        let start = format!("ev/{base:020}");
        let mut tail: Vec<(u64, HistoryEvent)> = Vec::new();
        for (key, bytes) in store.scan_from(Space::History, &start)? {
            // Non-event keys (the rollup itself sorts after every event
            // key) are not ours to validate here.
            let Some(suffix) = key.strip_prefix("ev/") else {
                continue;
            };
            let seq = suffix.parse::<u64>().map_err(|_| AwarenessError::BadKey {
                key: suffix.to_string(),
            })?;
            // Pre-widening 10-digit keys interleave lexicographically
            // with 20-digit ones, so the scan can surface already-rolled
            // -up events; the parsed value is the truth.
            if seq < base {
                continue;
            }
            let ev: HistoryEvent =
                serde_json::from_slice(&bytes).map_err(|e| StoreError::Codec(e.to_string()))?;
            tail.push((seq, ev));
        }
        tail.sort_by_key(|(seq, _)| *seq);
        let mut aw = Awareness {
            index: AwarenessIndex::from_rollup(&rollup),
            open_scanned: tail.len() as u64,
        };
        for (_, ev) in tail {
            aw.index.push(ev);
        }
        Ok(aw)
    }

    /// Open over the stream, if the store holds one: seed the index from
    /// `summary` and ingest the rounds it does not cover, or with none
    /// ingest the whole stream.
    fn open_stream<D: Disk>(
        store: &Store<D>,
        summary: Option<StreamSummary>,
    ) -> Result<Option<Self>, AwarenessError> {
        let start = match &summary {
            Some(s) => round_start_key(s.next_round),
            None => EVENT_PREFIX.to_string(),
        };
        let mut stream = Self::from_summary(summary.as_ref());
        Self::visit_stream(store, &start, |ev| stream.reobserve(ev.at, ev.kind))?;
        Ok((!stream.index.is_empty()).then_some(stream))
    }

    /// The stream's durable summary, if the store holds one.
    pub(crate) fn stream_summary<D: Disk>(
        store: &Store<D>,
    ) -> Result<Option<StreamSummary>, AwarenessError> {
        Self::read_record(store, SUMMARY_KEY)
    }

    /// The model as `summary` left it — every aggregate of the rounds it
    /// covers, no log — or empty without one.  The caller walks the tail
    /// and [`reobserve`](Awareness::reobserve)s it: the history writer
    /// does, so that its one pass over the tail feeds its digest too.
    pub(crate) fn from_summary(summary: Option<&StreamSummary>) -> Self {
        Awareness {
            index: summary.map_or_else(AwarenessIndex::default, |s| {
                AwarenessIndex::from_rollup(&s.rollup)
            }),
            open_scanned: 0,
        }
    }

    /// Every stream record from key `start` on, in commit order, as the
    /// event the awareness model sees.
    fn visit_stream<D: Disk>(
        store: &Store<D>,
        start: &str,
        mut visit: impl FnMut(HistoryEvent),
    ) -> Result<(), AwarenessError> {
        store.visit_prefix_from(Space::History, EVENT_PREFIX, start, |key, bytes| {
            let rec: ShardEvent =
                serde_json::from_slice(bytes).map_err(|e| AwarenessError::BadRecord {
                    key: key.to_string(),
                    reason: e.to_string(),
                })?;
            visit(HistoryEvent {
                at: rec.time(),
                kind: rec.kind,
            });
            Ok(())
        })
    }

    /// The History-space record at `key`, decoded, if there is one.
    fn read_record<D: Disk, T: Deserialize>(
        store: &Store<D>,
        key: &str,
    ) -> Result<Option<T>, AwarenessError> {
        match store.get(Space::History, key)? {
            Some(bytes) => Ok(Some(
                serde_json::from_slice(&bytes).map_err(|e| StoreError::Codec(e.to_string()))?,
            )),
            None => Ok(None),
        }
    }

    /// Events deserialized by the open that produced this handle: the
    /// whole history for [`Awareness::open`], only the tail for
    /// [`Awareness::open_tail`].
    pub fn open_scanned(&self) -> u64 {
        self.open_scanned
    }

    /// The `ev/` layout, sorted by parsed sequence number (10- and
    /// 20-digit keys interleave lexicographically, so raw key order lies).
    fn scan_sorted<D: Disk>(store: &Store<D>) -> Result<Vec<(u64, HistoryEvent)>, AwarenessError> {
        // Raw scan so a foreign key is reported as `BadKey` even when its
        // value would not decode as an event either.
        let mut out = Vec::new();
        for (key, bytes) in store.scan_prefix(Space::History, "ev/")? {
            let suffix = &key["ev/".len()..];
            let seq = suffix.parse::<u64>().map_err(|_| AwarenessError::BadKey {
                key: suffix.to_string(),
            })?;
            let ev: HistoryEvent =
                serde_json::from_slice(&bytes).map_err(|e| StoreError::Codec(e.to_string()))?;
            out.push((seq, ev));
        }
        out.sort_by_key(|(seq, _)| *seq);
        Ok(out)
    }

    /// Fold in one event the history writer commits: it stores the event
    /// itself, as a `sev/` record, and nothing is buffered here.
    pub(crate) fn observe(&mut self, at: SimTime, kind: EventKind) {
        self.index.push(HistoryEvent { at, kind });
    }

    /// [`observe`](Awareness::observe) an event read back from the store
    /// while reopening: it counts towards
    /// [`open_scanned`](Awareness::open_scanned).
    pub(crate) fn reobserve(&mut self, at: SimTime, kind: EventKind) {
        self.open_scanned += 1;
        self.observe(at, kind);
    }

    /// Put into `batch` — the one that commits the events of the rounds
    /// below `next_round` — the [`StreamSummary`] of everything
    /// [`observe`](Awareness::observe)d, `digest` being the writer's fold
    /// of exactly those rounds.  One batch is one WAL frame: a crash keeps
    /// the events and their summary, or neither.  Encoded through
    /// `scratch`, the caller's buffer.
    pub(crate) fn summary_into(
        &self,
        batch: &mut Batch,
        next_round: u64,
        digest: u64,
        scratch: &mut String,
    ) {
        let summary = StreamSummary {
            next_round,
            rollup: self.index.to_rollup(self.index.len() as u64),
            digest: Some(digest),
        };
        batch.put_record(Space::History, SUMMARY_KEY, &summary, scratch);
    }

    /// The incremental index.
    pub fn index(&self) -> &AwarenessIndex {
        &self.index
    }

    /// All events in commit order.  The stream, unless it holds fewer
    /// events than the index counts: then it continues the `ev/` history
    /// an earlier serial runtime left, which comes first.
    pub fn all<D: Disk>(&self, store: &Store<D>) -> Result<Vec<HistoryEvent>, AwarenessError> {
        let mut stream = Vec::new();
        Self::visit_stream(store, EVENT_PREFIX, |ev| stream.push(ev))?;
        if stream.len() >= self.index.len() {
            return Ok(stream);
        }
        let mut all: Vec<HistoryEvent> = Self::scan_sorted(store)?
            .into_iter()
            .map(|(_, ev)| ev)
            .collect();
        all.extend(stream);
        Ok(all)
    }

    /// Events of a given kind label — answered from the index when it
    /// holds the full log, from a store scan when the prefix was rolled
    /// up (the index then only has the tail's postings).
    pub fn of_kind<D: Disk>(
        &self,
        store: &Store<D>,
        kind: &str,
    ) -> Result<Vec<HistoryEvent>, AwarenessError> {
        if self.index.summarized() == 0 {
            return Ok(self.index.of_kind(kind).into_iter().cloned().collect());
        }
        Ok(self
            .all(store)?
            .into_iter()
            .filter(|ev| ev.kind.label() == kind)
            .collect())
    }

    /// Count by kind — the monitoring dashboards' summary query, answered
    /// from the index.
    pub fn counts_by_kind<D: Disk>(
        &self,
        _store: &Store<D>,
    ) -> Result<Vec<(String, usize)>, AwarenessError> {
        Ok(self.index.counts_by_kind())
    }

    /// Rebuild an index from a full store scan — the oracle the
    /// incremental index is checked against in the equivalence proptests.
    pub fn rebuild_index<D: Disk>(
        &self,
        store: &Store<D>,
    ) -> Result<AwarenessIndex, AwarenessError> {
        let mut index = AwarenessIndex::default();
        for ev in self.all(store)? {
            index.ingest(&ev);
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioopera_store::MemDisk;

    fn task_end(path: &str, node: &str, run_ms: u64) -> EventKind {
        EventKind::TaskEnd {
            instance: 7,
            path: path.into(),
            node: node.into(),
            run_ms,
            cpu_ms: run_ms as f64,
        }
    }

    fn ingest_all(kinds: impl IntoIterator<Item = EventKind>) -> AwarenessIndex {
        let mut index = AwarenessIndex::default();
        for (i, kind) in kinds.into_iter().enumerate() {
            index.ingest(&HistoryEvent {
                at: SimTime::from_secs(i as u64),
                kind,
            });
        }
        index
    }

    #[test]
    fn index_tracks_gauges_and_postings() {
        let start = |path: &str, job| EventKind::TaskStart {
            instance: 7,
            path: path.into(),
            node: "n1".into(),
            job,
            queue_ms: 0,
        };
        let index = ingest_all([start("A", 0), start("B", 1)]);
        assert_eq!(index.in_flight(), 2);
        assert_eq!(index.peak_in_flight(), 2);
        let index = ingest_all([start("A", 0), start("B", 1), task_end("A", "n1", 500)]);
        assert_eq!(index.in_flight(), 1);
        assert_eq!(index.peak_in_flight(), 2);
        assert_eq!(index.for_instance(7).len(), 3);
        assert_eq!(index.for_node("n1").len(), 3);
        assert_eq!(index.count("task.start"), 2);
        assert_eq!(index.of_kind("task.end").len(), 1);
        assert_eq!(index.total_cpu_ms(), 500.0);
    }

    #[test]
    fn foreign_key_is_a_typed_error_not_a_sequence_reset() {
        let disk = MemDisk::new();
        let store = Store::open(disk).unwrap();
        store
            .put(
                Space::History,
                "ev/not-a-number".to_string(),
                br#"{"at":[0],"kind":"x","detail":""}"#.to_vec(),
            )
            .unwrap();
        match Awareness::open(&store) {
            Err(AwarenessError::BadKey { key }) => assert_eq!(key, "not-a-number"),
            Err(other) => panic!("expected BadKey, got {other}"),
            Ok(_) => panic!("expected BadKey, got a working Awareness"),
        }
    }

    #[test]
    fn typed_event_roundtrips_through_json() {
        let ev = HistoryEvent {
            at: SimTime::from_secs(9),
            kind: EventKind::TaskStart {
                instance: 3,
                path: "Gen".into(),
                node: "n2".into(),
                job: 11,
                queue_ms: 42,
            },
        };
        let json = serde_json::to_string(&ev).unwrap();
        // No `detail` field: that name is reserved as the legacy marker.
        assert!(!json.contains("\"detail\""));
        let back: HistoryEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
        // Unit variants roundtrip too.
        let ev = HistoryEvent {
            at: SimTime::ZERO,
            kind: EventKind::ClusterFailure,
        };
        let back: HistoryEvent =
            serde_json::from_str(&serde_json::to_string(&ev).unwrap()).unwrap();
        assert_eq!(back, ev);
    }

    fn spill(spills: u64, runs: u64, skips: u64, hits: u64, misses: u64) -> EventKind {
        EventKind::StoreSpill {
            spills,
            runs,
            bloom_skips: skips,
            cache_hits: hits,
            cache_misses: misses,
        }
    }

    #[test]
    fn store_events_fold_tier_io_deltas_and_sampled_gauges() {
        assert!(AwarenessIndex::default().store_io().is_empty());
        let compaction = |merges, levels, max_merge_bytes| EventKind::StoreCompaction {
            merges,
            levels,
            max_merge_bytes,
        };
        let retention = |retired, below: &str| EventKind::StoreRetention {
            retired,
            below: below.into(),
        };
        let index = ingest_all([
            spill(2, 3, 10, 4, 5),
            spill(1, 2, 25, 9, 8),
            compaction(1, 2, 4096),
            compaction(2, 3, 1024),
            retention(7, "sev/00000040/"),
            retention(3, "sev/00000080/"),
        ]);

        let io = index.store_io();
        // Per-event deltas accumulate...
        assert_eq!(io.get("spills"), Some(&3));
        assert_eq!(io.get("merges"), Some(&3));
        assert_eq!(io.get("retired"), Some(&10));
        // ...cumulative sampled gauges keep the latest observation...
        assert_eq!(io.get("runs"), Some(&2));
        assert_eq!(io.get("bloom_skips"), Some(&25));
        assert_eq!(io.get("cache_hits"), Some(&9));
        assert_eq!(io.get("cache_misses"), Some(&8));
        assert_eq!(io.get("levels"), Some(&3));
        // ...and the merge high-water mark keeps the max, not the latest.
        assert_eq!(io.get("max_merge_bytes"), Some(&4096));

        // Store events are ordinary history records with stable labels.
        assert_eq!(index.count("store.spill"), 2);
        assert_eq!(index.count("store.compaction"), 2);
        assert_eq!(index.count("store.retention"), 2);
        assert_eq!(index.of_kind("store.retention").len(), 2);
        // And a summary carries them.
        let rebuilt = AwarenessIndex::from_rollup(&index.to_rollup(index.len() as u64));
        assert_eq!(rebuilt.store_io(), index.store_io());
    }

    #[test]
    fn rollups_written_before_tier_io_decode_as_empty() {
        let index = ingest_all([task_end("A", "n1", 10)]);
        let json = serde_json::to_string(&index.to_rollup(1)).unwrap();
        // Bytes exactly as pre-tier rollups had them: no `store_io`
        // member at all.
        let legacy = json.replace(",\"store_io\":{}", "");
        assert_ne!(legacy, json, "rollup no longer serializes store_io");
        let back: RollupRecord = serde_json::from_str(&legacy).unwrap();
        let rebuilt = AwarenessIndex::from_rollup(&back);
        assert!(rebuilt.store_io().is_empty());
        assert_eq!(rebuilt.count("task.end"), 1);
    }

    /// The digest is any `u64`: the top of the range (past what an `i64`
    /// holds, where the codec changes its number node) comes back as it
    /// went in, streamed and through the tree; and a summary without the
    /// member has none when written, not a `null`.
    #[test]
    fn the_summary_digest_round_trips_every_u64_and_is_absent_when_none() {
        let index = AwarenessIndex::default();
        for digest in [0, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let summary = StreamSummary {
                next_round: 9,
                rollup: index.to_rollup(0),
                digest: Some(digest),
            };
            let json = serde_json::to_string(&summary).unwrap();
            assert!(json.ends_with(&format!(",\"digest\":{digest}}}")), "{json}");
            assert_eq!(
                serde_json::from_str::<StreamSummary>(&json).unwrap(),
                summary
            );
            let mut tree = String::new();
            serde::json::write_content(&summary.to_content(), &mut tree);
            assert_eq!(tree, json);
            let parsed = serde::JsonReader::new(&json).read_content().unwrap();
            assert_eq!(StreamSummary::from_content(&parsed).unwrap(), summary);
        }
        let without = StreamSummary {
            next_round: 9,
            rollup: index.to_rollup(0),
            digest: None,
        };
        let json = serde_json::to_string(&without).unwrap();
        assert!(!json.contains("digest"), "{json}");
        assert_eq!(
            serde_json::from_str::<StreamSummary>(&json).unwrap(),
            without
        );
        let nulled = format!("{},\"digest\":null}}", json.strip_suffix('}').unwrap());
        assert_eq!(
            serde_json::from_str::<StreamSummary>(&nulled).unwrap(),
            without
        );
    }

    /// A stream record's time sits before its kind when it has one, and is
    /// no member at all when it has none: the sharded engine's records keep
    /// their bytes.  Streamed and through the tree alike, and a `null`
    /// reads as none.
    #[test]
    fn a_stream_record_writes_its_time_only_when_it_has_one() {
        let untimed = ShardEvent {
            round: 21,
            instance: 39_999,
            seq: 5,
            at: None,
            kind: EventKind::ClusterFailure,
        };
        let json = serde_json::to_string(&untimed).unwrap();
        assert_eq!(
            json,
            r#"{"round":21,"instance":39999,"seq":5,"kind":"ClusterFailure"}"#
        );
        let timed = ShardEvent {
            at: Some(SimTime::from_millis(u64::MAX)),
            ..untimed.clone()
        };
        let timed_json = serde_json::to_string(&timed).unwrap();
        assert_eq!(
            timed_json,
            format!(
                r#"{{"round":21,"instance":39999,"seq":5,"at":[{}],"kind":"ClusterFailure"}}"#,
                u64::MAX
            )
        );
        for (event, json) in [(&untimed, &json), (&timed, &timed_json)] {
            let mut tree = String::new();
            serde::json::write_content(&event.to_content(), &mut tree);
            assert_eq!(&tree, json);
            assert_eq!(&serde_json::from_str::<ShardEvent>(json).unwrap(), event);
            assert_eq!(event.time(), event.at.unwrap_or(SimTime::from_secs(21)));
        }
        let nulled = json.replace(r#""seq":5,"#, r#""seq":5,"at":null,"#);
        assert_eq!(
            serde_json::from_str::<ShardEvent>(&nulled).unwrap(),
            untimed
        );
    }
}
