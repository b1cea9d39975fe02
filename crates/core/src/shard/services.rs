//! Cross-shard services fed by the barrier: dispatch + node health.
//!
//! The serial runtime's dispatcher and dependability policy act on global
//! state (cluster load, node health), so they cannot live inside a shard
//! without re-introducing shared mutation.  Here they run **at the
//! barrier**, single-threaded, over the already-sorted effect stream:
//!
//! * [`DispatchService`] owns the logical execution nodes.  Ready-task
//!   requests queue in barrier order; each barrier it grants free slots
//!   least-loaded-first (ties broken by node index), which is exactly the
//!   deterministic tie-break the serial dispatcher uses.
//! * Node faults reported through `Release { faulted: true }` feed a
//!   consecutive-failure score per node; at the configured threshold the
//!   node is quarantined — removed from scheduling for a fixed number of
//!   rounds — mirroring the dependability layer's quarantine policy.
//!
//! Because the service only ever consumes the sorted stream and its own
//! prior state, its decisions are a pure function of history: any thread
//! schedule and any shard count produce the same grants in the same
//! order.

use super::router::{Msg, Payload, SrcKey};
use crate::awareness::EventKind;
use crate::state::InstanceId;
use std::collections::VecDeque;

/// One logical execution node (a PEC slot pool in paper terms).
#[derive(Debug, Clone)]
pub struct LogicalNode {
    /// Node name (`node{i}`).
    pub name: String,
    /// Concurrent job capacity.
    pub capacity: usize,
    /// Jobs currently granted.
    pub in_flight: usize,
    /// Consecutive faulted releases (reset on success).
    pub consecutive_failures: u32,
    /// Quarantined until this round (exclusive); 0 = not quarantined.
    pub quarantined_until: u64,
}

/// A queued dispatch request.
#[derive(Debug, Clone)]
struct PendingRequest {
    instance: InstanceId,
    path: String,
    src: SrcKey,
}

/// The barrier-side dispatch + node-health service.
#[derive(Debug)]
pub struct DispatchService {
    nodes: Vec<LogicalNode>,
    queue: VecDeque<PendingRequest>,
    quarantine_threshold: u32,
    quarantine_rounds: u64,
    granted: u64,
}

impl DispatchService {
    /// `nodes` logical nodes of `capacity` slots each.
    pub fn new(nodes: usize, capacity: usize, quarantine_threshold: u32) -> Self {
        DispatchService {
            nodes: (0..nodes)
                .map(|i| LogicalNode {
                    name: format!("node{i}"),
                    capacity,
                    in_flight: 0,
                    consecutive_failures: 0,
                    quarantined_until: 0,
                })
                .collect(),
            queue: VecDeque::new(),
            quarantine_threshold,
            quarantine_rounds: 16,
            granted: 0,
        }
    }

    /// Queue a ready-task request (barrier order).
    pub fn request(&mut self, instance: InstanceId, path: String, src: SrcKey) {
        self.queue.push_back(PendingRequest {
            instance,
            path,
            src,
        });
    }

    /// Return a slot; a faulted release charges the node's health score
    /// and may quarantine it (the returned event records that).
    pub fn release(&mut self, node: &str, faulted: bool, round: u64) -> Option<EventKind> {
        let n = self.nodes.iter_mut().find(|n| n.name == node)?;
        n.in_flight = n.in_flight.saturating_sub(1);
        if faulted {
            n.consecutive_failures += 1;
            if n.consecutive_failures >= self.quarantine_threshold && n.quarantined_until <= round {
                n.quarantined_until = round + self.quarantine_rounds;
                return Some(EventKind::NodeQuarantine {
                    node: n.name.clone(),
                    failures: n.consecutive_failures,
                });
            }
        } else {
            n.consecutive_failures = 0;
        }
        None
    }

    /// Grant free slots to queued requests, least-loaded node first (tie:
    /// lowest index).  Returns the grant messages to route plus probation
    /// events for nodes whose quarantine just expired.
    pub fn assign(&mut self, round: u64) -> (Vec<Msg>, Vec<EventKind>) {
        let mut events = Vec::new();
        for n in &mut self.nodes {
            if n.quarantined_until != 0 && n.quarantined_until <= round {
                n.quarantined_until = 0;
                n.consecutive_failures = 0;
                events.push(EventKind::NodeProbation {
                    node: n.name.clone(),
                });
            }
        }
        let mut grants = Vec::new();
        while !self.queue.is_empty() {
            let pick = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.quarantined_until == 0 && n.in_flight < n.capacity)
                .min_by_key(|(i, n)| (n.in_flight, *i))
                .map(|(i, _)| i);
            let Some(i) = pick else {
                break; // saturated (or everything quarantined): wait a round
            };
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            self.nodes[i].in_flight += 1;
            self.granted += 1;
            grants.push(Msg {
                dest: req.instance,
                src: req.src,
                payload: Payload::Grant {
                    path: req.path,
                    node: self.nodes[i].name.clone(),
                },
            });
        }
        (grants, events)
    }

    /// Requests waiting for a slot.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Slots currently granted and not yet released.
    pub fn in_flight(&self) -> usize {
        self.nodes.iter().map(|n| n.in_flight).sum()
    }

    /// Total grants issued over the engine's lifetime.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// The logical nodes (for diagnostics).
    pub fn nodes(&self) -> &[LogicalNode] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_are_least_loaded_then_lowest_index() {
        let mut svc = DispatchService::new(2, 2, 3);
        for i in 0..3u64 {
            svc.request(i, "T".into(), (i, 0));
        }
        let (grants, _) = svc.assign(0);
        let nodes: Vec<&str> = grants
            .iter()
            .map(|m| match &m.payload {
                Payload::Grant { node, .. } => node.as_str(),
                _ => unreachable!(),
            })
            .collect();
        // 0 -> node0, 1 -> node1 (node0 now busier), 2 -> node0 (tie at 1
        // in-flight broken by index).
        assert_eq!(nodes, vec!["node0", "node1", "node0"]);
        assert_eq!(svc.in_flight(), 3);
    }

    #[test]
    fn saturation_queues_and_faults_quarantine() {
        let mut svc = DispatchService::new(1, 1, 2);
        svc.request(1, "A".into(), (1, 0));
        svc.request(2, "B".into(), (2, 0));
        let (grants, _) = svc.assign(0);
        assert_eq!(grants.len(), 1);
        assert_eq!(svc.queued(), 1);
        // Two consecutive faults quarantine the only node.
        assert!(svc.release("node0", true, 1).is_none());
        let (grants, _) = svc.assign(1);
        assert_eq!(grants.len(), 1);
        let q = svc.release("node0", true, 2);
        assert!(matches!(
            q,
            Some(EventKind::NodeQuarantine { failures: 2, .. })
        ));
        svc.request(3, "C".into(), (3, 0));
        let (grants, _) = svc.assign(3);
        assert!(grants.is_empty(), "quarantined node takes no work");
        // After the interval the node re-enters on probation and drains
        // the queue.
        let (grants, events) = svc.assign(2 + 16);
        assert_eq!(grants.len(), 1);
        assert!(matches!(
            events.as_slice(),
            [EventKind::NodeProbation { .. }]
        ));
    }
}
