//! Lineage tracking and selective recomputation.
//!
//! "Lineage tracking is done automatically and all dependencies are
//! persistently recorded.  This makes it possible for the system to
//! recompute processes as data inputs or algorithms change" (§6).  The
//! tower of information is the motivating case: "it makes sense to keep
//! the results of each step so that it is not necessary to start from the
//! beginning every time an algorithm changes.  This requires one to keep
//! track of which steps produced which data" (§1).
//!
//! Dependencies are already persistent — they are the template's data-flow
//! and control-flow arcs plus the per-task records in the instance space.
//! This module derives the lineage graph from them and implements
//! *selective recomputation*: given a completed instance and a set of
//! tasks whose algorithm (or whose inputs) changed, start a new instance
//! that **reuses** every unaffected task's recorded outputs and re-executes
//! only the downstream closure.

use crate::error::{EngineError, EngineResult};
use crate::state::{InstanceId, TaskState};
use bioopera_ocr::model::{DataRef, ProcessTemplate};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The lineage graph of one template: which tasks' outputs feed which
/// tasks, directly or through the whiteboard.
#[derive(Debug, Clone)]
pub struct Lineage {
    /// Direct data dependents: task → tasks consuming its outputs.
    dependents: BTreeMap<String, BTreeSet<String>>,
    /// Direct data producers: task → tasks it consumes from.
    producers: BTreeMap<String, BTreeSet<String>>,
}

impl Lineage {
    /// Derive the lineage graph from a template's data flows.  Whiteboard
    /// fields act as conduits: a flow `A.x -> WHITEBOARD.w` plus
    /// `WHITEBOARD.w -> B.y` makes `B` a dependent of `A`.  Control
    /// connectors also induce dependencies: an activation condition that
    /// reads `A.x` makes the *target* task data-dependent on `A`.
    pub fn derive(template: &ProcessTemplate) -> Lineage {
        let mut dependents: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut producers: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut add = |from: &str, to: &str| {
            if from != to {
                dependents
                    .entry(from.to_string())
                    .or_default()
                    .insert(to.to_string());
                producers
                    .entry(to.to_string())
                    .or_default()
                    .insert(from.to_string());
            }
        };
        // Whiteboard writers per field.
        let mut wb_writers: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for flow in &template.dataflows {
            if let (DataRef::TaskField(task, _), DataRef::Whiteboard(field)) =
                (&flow.from, &flow.to)
            {
                wb_writers
                    .entry(field.as_str())
                    .or_default()
                    .push(task.as_str());
            }
        }
        for flow in &template.dataflows {
            match (&flow.from, &flow.to) {
                (DataRef::TaskField(src, _), DataRef::TaskField(dst, _)) => add(src, dst),
                (DataRef::Whiteboard(field), DataRef::TaskField(dst, _)) => {
                    if let Some(writers) = wb_writers.get(field.as_str()) {
                        for w in writers.clone() {
                            add(w, dst);
                        }
                    }
                }
                _ => {}
            }
        }
        // Guard references: `CONNECTOR A -> B WHEN C.x > 0` makes B depend
        // on C (and, trivially, on A through control flow).
        for conn in &template.connectors {
            for path in conn.condition.referenced_paths() {
                if let Some(head) = path.first() {
                    if template.task(head).is_some() {
                        add(head, &conn.to);
                    }
                }
            }
        }
        Lineage {
            dependents,
            producers,
        }
    }

    /// Tasks that directly consume `task`'s outputs.
    pub fn direct_dependents(&self, task: &str) -> Vec<&str> {
        self.dependents
            .get(task)
            .map(|s| s.iter().map(|x| x.as_str()).collect())
            .unwrap_or_default()
    }

    /// Tasks whose outputs `task` directly consumes.
    pub fn direct_producers(&self, task: &str) -> Vec<&str> {
        self.producers
            .get(task)
            .map(|s| s.iter().map(|x| x.as_str()).collect())
            .unwrap_or_default()
    }

    /// The downstream closure: everything that must be recomputed when the
    /// given tasks change (the tasks themselves included).
    pub fn invalidation_closure<'a>(
        &self,
        changed: impl IntoIterator<Item = &'a str>,
    ) -> BTreeSet<String> {
        let mut out: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<String> = changed.into_iter().map(|s| s.to_string()).collect();
        while let Some(task) = queue.pop_front() {
            if !out.insert(task.clone()) {
                continue;
            }
            if let Some(deps) = self.dependents.get(&task) {
                for d in deps {
                    queue.push_back(d.clone());
                }
            }
        }
        out
    }

    /// The provenance closure: everything that (transitively) contributed
    /// data to `task` — the audit-trail query.
    pub fn provenance_closure(&self, task: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut queue = VecDeque::from([task.to_string()]);
        while let Some(t) = queue.pop_front() {
            if !out.insert(t.clone()) {
                continue;
            }
            if let Some(ps) = self.producers.get(&t) {
                for p in ps {
                    queue.push_back(p.clone());
                }
            }
        }
        out
    }
}

/// A recomputation plan: which recorded results a new instance can reuse.
#[derive(Debug, Clone, PartialEq)]
pub struct RecomputePlan {
    /// The source instance.
    pub source: InstanceId,
    /// Tasks to re-execute (the invalidation closure, intersected with
    /// what actually ran).
    pub recompute: BTreeSet<String>,
    /// Tasks whose recorded outputs will be reused verbatim.
    pub reuse: BTreeSet<String>,
}

impl RecomputePlan {
    /// Build a plan from a completed instance and the changed task set.
    ///
    /// Parallel children follow their parent: if a parallel task is
    /// invalidated, all its children are; otherwise all are reused.
    pub fn build(
        template: &ProcessTemplate,
        tasks: &crate::state::TaskMap,
        source: InstanceId,
        changed: &[&str],
    ) -> EngineResult<RecomputePlan> {
        for c in changed {
            if template.task(c).is_none() {
                return Err(EngineError::Internal(format!(
                    "cannot recompute unknown task `{c}`"
                )));
            }
        }
        let lineage = Lineage::derive(template);
        let invalid = lineage.invalidation_closure(changed.iter().copied());
        let mut recompute = BTreeSet::new();
        let mut reuse = BTreeSet::new();
        for (path, rec) in tasks {
            let owner = rec.parallel_parent().unwrap_or(path.as_str());
            if invalid.contains(owner) {
                recompute.insert(path.clone());
            } else if rec.state == TaskState::Ended || rec.state == TaskState::Skipped {
                reuse.insert(path.clone());
            } else {
                recompute.insert(path.clone());
            }
        }
        Ok(RecomputePlan {
            source,
            recompute,
            reuse,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioopera_ocr::model::TypeTag;
    use bioopera_ocr::{Expr, ProcessBuilder};

    /// The tower-of-information shape: Gene -> Translate -> {Align -> Tree,
    /// Structure}, with a whiteboard conduit.
    fn tower_like() -> ProcessTemplate {
        ProcessBuilder::new("T")
            .whiteboard_field("proteins", TypeTag::List)
            .activity("Gene", "g", |t| t.output("genes", TypeTag::List))
            .activity("Translate", "t", |t| {
                t.input("genes", TypeTag::List)
                    .output("proteins", TypeTag::List)
            })
            .activity("Align", "a", |t| {
                t.input("proteins", TypeTag::List)
                    .output("dists", TypeTag::List)
            })
            .activity("Tree", "n", |t| t.input("dists", TypeTag::List))
            .activity("Structure", "s", |t| t.input("proteins", TypeTag::List))
            .connect("Gene", "Translate")
            .connect("Translate", "Align")
            .connect("Align", "Tree")
            .connect("Translate", "Structure")
            .flow_to_task("Gene", "genes", "Translate", "genes")
            .flow_to_whiteboard("Translate", "proteins", "proteins")
            .flow_from_whiteboard("proteins", "Align", "proteins")
            .flow_from_whiteboard("proteins", "Structure", "proteins")
            .flow_to_task("Align", "dists", "Tree", "dists")
            .build()
            .unwrap()
    }

    #[test]
    fn whiteboard_conduits_carry_lineage() {
        let lineage = Lineage::derive(&tower_like());
        // Translate writes the whiteboard field both Align and Structure read.
        let deps = lineage.direct_dependents("Translate");
        assert!(deps.contains(&"Align"));
        assert!(deps.contains(&"Structure"));
        assert_eq!(lineage.direct_producers("Tree"), vec!["Align"]);
    }

    #[test]
    fn invalidation_closure_is_downstream_only() {
        let lineage = Lineage::derive(&tower_like());
        // A new alignment algorithm: only Align and Tree must re-run.
        let inv = lineage.invalidation_closure(["Align"]);
        assert_eq!(
            inv.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            vec!["Align", "Tree"]
        );
        // New gene finder: everything downstream re-runs.
        let inv = lineage.invalidation_closure(["Gene"]);
        assert_eq!(inv.len(), 5);
    }

    #[test]
    fn provenance_closure_is_upstream_only() {
        let lineage = Lineage::derive(&tower_like());
        let prov = lineage.provenance_closure("Tree");
        assert!(prov.contains("Align"));
        assert!(prov.contains("Translate"));
        assert!(prov.contains("Gene"));
        assert!(!prov.contains("Structure"));
    }

    #[test]
    fn guard_references_induce_dependencies() {
        let t = ProcessBuilder::new("G")
            .activity("Probe", "p", |t| t.output("quality", TypeTag::Float))
            .activity("A", "a", |t| t)
            .activity("B", "b", |t| t)
            .connect("Probe", "A")
            .connect_when(
                "A",
                "B",
                Expr::Bin(
                    bioopera_ocr::expr::BinOp::Gt,
                    Box::new(Expr::path("Probe.quality")),
                    Box::new(Expr::Lit(bioopera_ocr::Value::Float(0.5))),
                ),
            )
            .build()
            .unwrap();
        let lineage = Lineage::derive(&t);
        assert!(lineage.direct_dependents("Probe").contains(&"B"));
        let inv = lineage.invalidation_closure(["Probe"]);
        assert!(inv.contains("B"));
    }

    #[test]
    fn recompute_plan_reuses_unaffected_and_follows_parallel_children() {
        use crate::state::{TaskMap, TaskRecord};
        let template = tower_like();
        let mut tasks = TaskMap::new();
        for name in ["Gene", "Translate", "Align", "Tree", "Structure"] {
            let mut rec = TaskRecord::new(name);
            rec.state = TaskState::Ended;
            tasks.insert(name.to_string(), Box::new(rec));
        }
        let plan = RecomputePlan::build(&template, &tasks, 7, &["Align"]).unwrap();
        assert!(plan.recompute.contains("Align"));
        assert!(plan.recompute.contains("Tree"));
        assert!(plan.reuse.contains("Gene"));
        assert!(plan.reuse.contains("Translate"));
        assert!(plan.reuse.contains("Structure"));
        // Unknown task rejected.
        assert!(RecomputePlan::build(&template, &tasks, 7, &["Nope"]).is_err());
    }
}
