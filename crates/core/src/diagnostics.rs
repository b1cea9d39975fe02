//! Shared stall diagnostics for both engine facades.
//!
//! When a run goes quiescent without finishing, the message the operator
//! sees must answer one question first: *is this a bug or a parked
//! experiment?*  A suspended instance is healthy — it resumes on demand —
//! while a `Running` instance with no queued work is a wedge worth a bug
//! report.  Both the serial facade and the shard engine render their
//! breakdown through [`survey`] so the two paths can never drift into
//! describing the same state differently.

use crate::state::{InstanceId, InstanceStatus, TaskMap};
use std::fmt::Write as _;

/// Bounded so a 100k-instance stall stays a readable message, not a
/// memory spike.
const MAX_INSTANCES: usize = 8;
const MAX_TASKS: usize = 4;

/// Tallies of non-terminal instances, split by whether an operator can
/// fix them with `resume()`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StallSummary {
    /// Non-terminal and not suspended: quiescence here is a bug.
    pub stuck: usize,
    /// Parked by an operator (or a suspend-on-failure policy): resumable.
    pub suspended: usize,
}

/// Bounded per-instance breakdown of non-terminal state, distinguishing
/// "suspended (resumable)" from "stuck (bug)".  Returns the rendered
/// detail string plus the tallies the caller needs to decide whether the
/// quiescence is an error at all.
pub(crate) fn survey<'a>(
    instances: impl Iterator<Item = (InstanceId, InstanceStatus, &'a TaskMap)>,
) -> (StallSummary, String) {
    let mut out = String::new();
    let mut summary = StallSummary::default();
    let mut shown = 0usize;
    for (id, status, tasks) in instances {
        if status.is_terminal() {
            continue;
        }
        let resumable = status == InstanceStatus::Suspended;
        if resumable {
            summary.suspended += 1;
        } else {
            summary.stuck += 1;
        }
        if shown >= MAX_INSTANCES {
            continue;
        }
        shown += 1;
        if resumable {
            let _ = write!(out, "; inst {id} [suspended (resumable)]");
        } else {
            let _ = write!(out, "; inst {id} [{status:?}, stuck]");
        }
        for (i, rec) in tasks
            .values()
            .filter(|r| !r.state.is_terminal())
            .enumerate()
        {
            if i >= MAX_TASKS {
                out.push_str(" …");
                break;
            }
            let _ = write!(out, " {}={:?}", rec.path, rec.state);
        }
    }
    let total = summary.stuck + summary.suspended;
    if total > shown {
        let _ = write!(out, "; (+{} more instances)", total - shown);
    }
    (summary, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{TaskRecord, TaskState};

    fn task(path: &str, state: TaskState) -> (String, Box<TaskRecord>) {
        let mut rec = TaskRecord::new(path.to_string());
        rec.state = state;
        (path.to_string(), Box::new(rec))
    }

    #[test]
    fn survey_separates_suspended_from_stuck() {
        let running: TaskMap = [task("A", TaskState::Dispatched)].into_iter().collect();
        let parked: TaskMap = [task("B", TaskState::Ready)].into_iter().collect();
        let done = TaskMap::new();
        let rows = [
            (1u64, InstanceStatus::Running, &running),
            (2u64, InstanceStatus::Suspended, &parked),
            (3u64, InstanceStatus::Completed, &done),
        ];
        let (summary, detail) = survey(rows.iter().map(|(i, s, t)| (*i, *s, *t)));
        assert_eq!(
            summary,
            StallSummary {
                stuck: 1,
                suspended: 1
            }
        );
        assert!(detail.contains("inst 1 [Running, stuck] A=Dispatched"));
        assert!(detail.contains("inst 2 [suspended (resumable)] B=Ready"));
        assert!(!detail.contains("inst 3"));
    }

    #[test]
    fn survey_bounds_output() {
        let tasks: TaskMap = (0..8)
            .map(|i| task(&format!("T{i}"), TaskState::Ready))
            .collect();
        let rows: Vec<(u64, InstanceStatus, &TaskMap)> = (1..=12)
            .map(|i| (i, InstanceStatus::Running, &tasks))
            .collect();
        let (summary, detail) = survey(rows.into_iter());
        assert_eq!(summary.stuck, 12);
        assert!(detail.contains("(+4 more instances)"));
        assert!(detail.contains(" …"));
    }
}
