//! # bioopera-core
//!
//! The BioOpera engine (paper §3): "a high-level distributed operating
//! system managing processes and the resources of a computer cluster".
//!
//! Architecture (Fig. 2):
//!
//! * the **navigator** ([`navigator`]) interprets OCR process instances —
//!   evaluates activation conditions, binds task inputs, runs the mapping
//!   phase on completion, expands parallel tasks, late-binds subprocesses;
//! * the **dispatcher** ([`dispatcher`]) schedules ready activities onto
//!   cluster nodes under pluggable scheduling/load-balancing policies and
//!   placement constraints;
//! * the **recovery module** and the persistent **spaces** ([`state`],
//!   backed by `bioopera-store`) make every transition durable *before* it
//!   is acted on, so node, network and server failures never lose completed
//!   work; each step loop's store is owned by its journal ([`history`]),
//!   the only code that writes it: a transition is one commit there;
//! * the **awareness model** ([`awareness`]) reads the persistent history
//!   of task timings, node events and load samples, powering monitoring
//!   queries; the journal is its one writer, for both step loops;
//! * the **dependability policies** ([`dependability`]) bound the masked
//!   system-failure loop: per-task retry budgets with exponential backoff,
//!   node quarantine, and poison-task escalation;
//! * the **planner** ([`planner`]) answers what-if questions ("which
//!   processes are affected if these nodes go off-line?", §3.5);
//! * the **instance layer** ([`instance`]) is what every step loop shares
//!   between the navigator and its own way of driving instances: what an
//!   instance is, what a task record stands for, the journal format, and
//!   what a record left in doubt by a dead server means;
//! * the **runtime** ([`runtime`]) ties the engine to the discrete-event
//!   cluster simulator and drives whole month-long executions, including
//!   every failure class of the paper's evaluation; the **sharded
//!   navigator** ([`shard`]) drives the same instances in bulk-synchronous
//!   rounds; both answer one **driver surface** ([`driver`]), so a caller
//!   names the step loop only where it builds one.

pub mod awareness;
pub mod dependability;
mod diagnostics;
pub mod dispatcher;
pub mod driver;
pub mod error;
pub mod history;
pub mod instance;
pub mod library;
pub mod lineage;
pub mod metrics;
pub mod navigator;
pub mod planner;
pub mod runtime;
pub mod shard;
pub mod state;
mod upgrade;

pub use awareness::{Awareness, AwarenessError, AwarenessIndex, EventKind, HistoryEvent};
pub use dependability::{
    DependabilityConfig, HealthState, NodeHealth, RetryDecision, RetryState, SystemCause,
};
pub use dispatcher::{AvoidSaturated, FastestFit, LeastLoaded, RoundRobin, SchedulingPolicy};
pub use driver::Driver;
pub use error::{EngineError, EngineResult};
pub use library::{ActivityLibrary, Program, ProgramOutput};
pub use lineage::{Lineage, RecomputePlan};
pub use metrics::{
    mean_utilization_where, series_csv, Histogram, RollupBin, RunReport, SeriesRollup, SeriesSample,
};
pub use planner::{OutageImpact, Planner, PlannerNode, PlannerSnapshot};
pub use runtime::{RunStats, Runtime, RuntimeConfig};
pub use shard::{
    ControlOp, FaultInjection, RecoveryReport, ShardConfig, ShardEngine, ShardRunStats,
};
pub use state::{
    InstanceHeader, InstanceId, InstanceStatus, RunOutcome, TaskMap, TaskRecord, TaskState,
};
