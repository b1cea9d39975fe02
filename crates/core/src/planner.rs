//! Planning and dealing with outages (paper §3.5).
//!
//! "A system administrator could ask the system which processes will be
//! affected if a node or set of nodes is taken off-line.  BioOpera will
//! then use the configuration information and the process structure to
//! determine whether alternatives exist and will then re-schedule the
//! processes accordingly, notifying the administrator of the processes
//! that will stop, how far in their execution these processes are, their
//! priority, and so forth."
//!
//! The analysis itself is a pure function of a [`PlannerSnapshot`] — a
//! plain-data view of (cluster nodes, in-flight jobs, instance task
//! state) that every driver produces ([`Driver::planner_snapshot`]): the
//! serial [`Runtime`](crate::Runtime) from its live cluster simulator, the
//! shard engine from its journals and dispatch service.  Keeping one core
//! means a what-if answer can never depend on which step loop executed
//! the workload.

use crate::driver::Driver;
use crate::state::{InstanceId, TaskState};
use bioopera_ocr::model::TaskKind;
use bioopera_ocr::ProcessTemplate;
use std::collections::BTreeSet;

/// One affected in-flight job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffectedJob {
    /// Instance owning the task.
    pub instance: InstanceId,
    /// Task path.
    pub task: String,
    /// The node it currently occupies.
    pub node: String,
    /// Can it be placed on a surviving node (placement constraints)?
    pub reschedulable: bool,
}

/// Per-instance impact summary.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceImpact {
    /// Instance id.
    pub instance: InstanceId,
    /// Template name.
    pub template: String,
    /// Fraction of (non-container) tasks already completed, in [0, 1].
    pub progress: f64,
    /// Whether the instance would stop making progress entirely (some
    /// affected or future task cannot run on the surviving nodes).
    pub would_stall: bool,
}

/// Result of a what-if analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageImpact {
    /// Hypothetically removed nodes.
    pub offline: Vec<String>,
    /// CPUs lost.
    pub cpus_lost: u32,
    /// In-flight jobs that would be killed.
    pub affected_jobs: Vec<AffectedJob>,
    /// Per-instance summaries.
    pub instances: Vec<InstanceImpact>,
}

impl OutageImpact {
    /// Render the administrator notification.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "what-if: taking {} node(s) off-line ({} CPUs): {}",
            self.offline.len(),
            self.cpus_lost,
            self.offline.join(", ")
        );
        let _ = writeln!(
            out,
            "  {} in-flight job(s) would be killed:",
            self.affected_jobs.len()
        );
        for j in &self.affected_jobs {
            let _ = writeln!(
                out,
                "    instance {} task {} on {} -> {}",
                j.instance,
                j.task,
                j.node,
                if j.reschedulable {
                    "re-schedulable"
                } else {
                    "NOT re-schedulable"
                }
            );
        }
        for i in &self.instances {
            let _ = writeln!(
                out,
                "  instance {} ({}) {:.0}% complete{}",
                i.instance,
                i.template,
                i.progress * 100.0,
                if i.would_stall {
                    " — WOULD STALL"
                } else {
                    ""
                }
            );
        }
        out
    }
}

/// One cluster node as the planner sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannerNode {
    /// Node name.
    pub name: String,
    /// Operating system, when the engine models one (the shard engine's
    /// logical nodes do not; an OS-constrained binding then has no
    /// feasible survivor, which is the conservative answer).
    pub os: Option<String>,
    /// CPUs (or slot capacity) this node contributes.
    pub cpus: u32,
    /// Is the node currently usable (up, not quarantined)?
    pub up: bool,
}

/// One task as the planner sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannerTask {
    /// Task path (parallel children use indexed paths).
    pub path: String,
    /// Current execution state.
    pub state: TaskState,
    /// Placement constraints `(os, hosts)` of the activity behind the
    /// task, if it is activity-like.
    pub binding: Option<(Option<String>, Vec<String>)>,
}

/// One non-terminal instance as the planner sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerInstance {
    /// Instance id.
    pub id: InstanceId,
    /// Template name.
    pub template: String,
    /// Every task record of the instance.
    pub tasks: Vec<PlannerTask>,
}

/// Engine-agnostic input to the what-if analysis: plain data, no
/// references into an engine, so the core is a pure function either
/// facade can call with a view assembled from its own state.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerSnapshot {
    /// Cluster nodes.
    pub nodes: Vec<PlannerNode>,
    /// In-flight `(instance, task path, node)` jobs.
    pub in_flight: Vec<(InstanceId, String, String)>,
    /// Non-terminal instances.
    pub instances: Vec<PlannerInstance>,
}

impl PlannerSnapshot {
    /// Analyze the impact of taking `offline` nodes away.
    pub fn what_if(&self, offline: &[&str]) -> OutageImpact {
        let offline_set: BTreeSet<&str> = offline.iter().copied().collect();
        let survivors: Vec<&PlannerNode> = self
            .nodes
            .iter()
            .filter(|n| !offline_set.contains(n.name.as_str()) && n.up)
            .collect();
        let cpus_lost = self
            .nodes
            .iter()
            .filter(|n| offline_set.contains(n.name.as_str()))
            .map(|n| n.cpus)
            .sum();

        // Placement feasibility of a binding on the surviving set.
        let feasible = |os: Option<&str>, hosts: &[String]| -> bool {
            survivors.iter().any(|n| {
                os.map(|o| n.os.as_deref() == Some(o)).unwrap_or(true)
                    && (hosts.is_empty() || hosts.contains(&n.name))
            })
        };
        let task_of = |instance: InstanceId, path: &str| -> Option<&PlannerTask> {
            self.instances
                .iter()
                .find(|i| i.id == instance)?
                .tasks
                .iter()
                .find(|t| t.path == path)
        };

        let mut affected_jobs = Vec::new();
        for (instance, task, node) in &self.in_flight {
            if !offline_set.contains(node.as_str()) {
                continue;
            }
            let reschedulable = task_of(*instance, task)
                .map(|t| match &t.binding {
                    Some((os, hosts)) => feasible(os.as_deref(), hosts),
                    None => !survivors.is_empty(),
                })
                .unwrap_or(false);
            affected_jobs.push(AffectedJob {
                instance: *instance,
                task: task.clone(),
                node: node.clone(),
                reschedulable,
            });
        }

        let mut instances = Vec::new();
        for inst in &self.instances {
            let mut total = 0usize;
            let mut done = 0usize;
            let mut stall = survivors.is_empty();
            for t in &inst.tasks {
                total += 1;
                if t.state == TaskState::Ended || t.state == TaskState::Skipped {
                    done += 1;
                } else if matches!(t.state, TaskState::Ready | TaskState::Dispatched) {
                    if let Some((os, hosts)) = &t.binding {
                        if !feasible(os.as_deref(), hosts) {
                            stall = true;
                        }
                    }
                }
            }
            instances.push(InstanceImpact {
                instance: inst.id,
                template: inst.template.clone(),
                progress: if total == 0 {
                    0.0
                } else {
                    done as f64 / total as f64
                },
                would_stall: stall,
            });
        }

        OutageImpact {
            offline: offline.iter().map(|s| s.to_string()).collect(),
            cpus_lost,
            affected_jobs,
            instances,
        }
    }
}

/// Placement constraints `(os, hosts)` of the activity a task declaration
/// resolves to.  `decl_name` is the declared task — a parallel child
/// passes its parent's name, since children inherit the body's binding.
pub(crate) fn binding_of(
    template: &ProcessTemplate,
    decl_name: &str,
) -> Option<(Option<String>, Vec<String>)> {
    match &template.task(decl_name)?.kind {
        TaskKind::Activity { binding } => Some((binding.os.clone(), binding.hosts.clone())),
        TaskKind::Parallel {
            body: bioopera_ocr::ParallelBody::Activity(b),
            ..
        } => Some((b.os.clone(), b.hosts.clone())),
        _ => None,
    }
}

/// The what-if planner.
pub struct Planner;

impl Planner {
    /// Analyze the impact of taking `offline` nodes away from a driver's
    /// nodes, using the live instance state.
    pub fn what_if_offline(eng: &impl Driver, offline: &[&str]) -> OutageImpact {
        eng.planner_snapshot().what_if(offline)
    }
}
