//! One driver surface: what a caller of either step loop — the serial
//! [`Runtime`](crate::Runtime) or the sharded
//! [`ShardEngine`](crate::ShardEngine) — can ask of it without naming it.
//!
//! [`Driver`] holds every call both drivers answer: control (templates,
//! submissions, operator suspend and resume), progress (a step, a run to
//! the end, what the last recovery did), reads (instances, their records,
//! the history and the store), the history's summary cadence and the
//! what-if planner's snapshot.  A caller names the driver only where it
//! builds one.
//!
//! A crash is no call here: a caller drops the driver and builds a new one
//! over the same disk.  Both constructors recover — `Runtime::new`
//! rebuilds from the store, `ShardEngine::recover` does the same for the
//! shards.
//!
//! What stays off the trait is the one engine's to-do list (ROADMAP.md):
//!
//! * the control calls only `Runtime` has: `abort`, `restart_instance`,
//!   `recompute` and `signal_event`;
//! * the simulated laboratory — `install_trace`, `now`, `cluster`,
//!   `series`, `run_report`, `crash_server` and `recover_server` — which
//!   belongs to a cluster service of its own;
//! * each driver's statistics: `RunStats` per instance on `Runtime`,
//!   `ShardRunStats` on `ShardEngine`.

use crate::awareness::{Awareness, ShardEvent};
use crate::error::EngineResult;
use crate::history;
use crate::instance::RecoveryReport;
use crate::planner::PlannerSnapshot;
use crate::state::{InstanceHeader, InstanceId, InstanceStatus, RunOutcome, TaskMap};
use bioopera_ocr::value::Value;
use bioopera_ocr::ProcessTemplate;
use bioopera_store::{Disk, Store};
use std::collections::BTreeMap;

/// A step loop over one store: the calls both drivers answer.
pub trait Driver {
    /// The disk the driver's store lives on.
    type Disk: Disk;

    /// Validate a template and admit it to the template space.
    fn register_template(&mut self, template: &ProcessTemplate) -> EngineResult<()>;

    /// Start an instance of `template` with an initial whiteboard.
    fn submit(
        &mut self,
        template: &str,
        initial: BTreeMap<String, Value>,
    ) -> EngineResult<InstanceId>;

    /// Operator suspend of one instance: running work drains, nothing new
    /// starts.
    fn suspend(&mut self, id: InstanceId) -> EngineResult<()>;

    /// Operator resume of one instance.
    fn resume(&mut self, id: InstanceId) -> EngineResult<()>;

    /// One unit of progress — a `Runtime` step, a `ShardEngine` round —
    /// committed.  `Ok(false)` once there is nothing left to do.
    fn step(&mut self) -> EngineResult<bool>;

    /// Step until every instance is terminal
    /// ([`RunOutcome::Completed`]) or the only ones left are
    /// operator-suspended ([`RunOutcome::Quiesced`]).
    fn run_to_completion(&mut self) -> EngineResult<RunOutcome>;

    /// What the recovery that built the driver read, found in doubt and
    /// wrote (a fresh store's: nothing).
    fn recovery_report(&self) -> RecoveryReport;

    /// Status of an instance.
    fn instance_status(&self, id: InstanceId) -> Option<InstanceStatus>;

    /// Header record of an instance, as the driver holds it in memory.
    fn instance_header(&self, id: InstanceId) -> Option<&InstanceHeader>;

    /// Whiteboard of an instance.
    fn whiteboard(&self, id: InstanceId) -> Option<&BTreeMap<String, Value>>;

    /// All task records of an instance.
    fn task_records(&self, id: InstanceId) -> Option<&TaskMap>;

    /// Every instance the driver holds, in id order: id, status and
    /// template name.
    fn instances(&self) -> Vec<(InstanceId, InstanceStatus, String)>;

    /// Rolling digest of the committed history stream.
    fn history_digest(&self) -> u64;

    /// The awareness model over the history stream.
    fn awareness(&self) -> &Awareness;

    /// The persistent store.
    fn store(&self) -> &Store<Self::Disk>;

    /// Override the history summary cadence (tests force tiny values so
    /// the summary paths run constantly).
    fn set_rollup_every(&mut self, every: u64);

    /// Plain-data view of the nodes, the jobs in flight and the live
    /// instances, for the engine-agnostic what-if core
    /// ([`crate::planner::Planner`]).
    fn planner_snapshot(&self) -> PlannerSnapshot;

    /// The committed history events, decoded, in commit order.
    fn persisted_events(&self) -> EngineResult<Vec<ShardEvent>> {
        history::persisted_events(self.store())
    }
}
