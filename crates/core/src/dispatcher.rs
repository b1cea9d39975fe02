//! The dispatcher: scheduling and load balancing.
//!
//! "Once the navigator decides which step(s) to execute next, the
//! information is passed to the dispatcher which, in turn, schedules the
//! task and associates it with a processing node in the cluster ...  If the
//! choice of assignment is not unique, the node is determined by the
//! scheduling and load balancing policy in use" (§3.2).

use bioopera_ocr::model::ExternalBinding;
use serde::{Deserialize, Serialize};

/// The dispatcher's view of one node at scheduling time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeView {
    /// Node name.
    pub name: String,
    /// Operating system.
    pub os: String,
    /// Speed factor relative to the reference machine.
    pub speed: f64,
    /// CPUs online.
    pub cpus_online: u32,
    /// BioOpera jobs currently hosted.
    pub running_jobs: u32,
    /// Instantaneous load fraction in [0, 1] as last reported by the
    /// node's load monitor (includes external users).
    pub load: f64,
    /// Is the node reachable and healthy?
    pub up: bool,
    /// Is the node quarantined by the dependability policy?  Quarantined
    /// nodes are filtered out of the eligible set in [`schedule`].
    pub quarantined: bool,
}

impl NodeView {
    /// Build a view, rejecting non-finite measurements: a node reporting
    /// `NaN`/`inf` load or speed has a broken monitor and is treated as
    /// down rather than being fed to the comparison-based policies.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: String,
        os: String,
        speed: f64,
        cpus_online: u32,
        running_jobs: u32,
        load: f64,
        up: bool,
        quarantined: bool,
    ) -> Self {
        let finite = speed.is_finite() && load.is_finite();
        NodeView {
            name,
            os,
            speed: if finite { speed } else { 0.0 },
            cpus_online,
            running_jobs,
            load: if finite { load } else { 1.0 },
            up: up && finite,
            quarantined,
        }
    }

    /// Dispatch slots left: one job per online CPU.
    pub fn free_slots(&self) -> u32 {
        self.cpus_online.saturating_sub(self.running_jobs)
    }
}

/// A scheduling policy picks among *eligible* candidates (already filtered
/// for health, capacity and placement constraints).
///
/// `eligible` holds indices into `nodes`; the policy returns one of those
/// indices (into `nodes`, not into `eligible`), or `None` to defer.
/// Carrying original indices lets [`schedule`] resolve the winner in O(1)
/// and lets wrappers filter without materializing a new candidate slice.
pub trait SchedulingPolicy: Send {
    /// Index into `nodes` of the chosen node (drawn from `eligible`), or
    /// `None` to defer.
    fn choose(&mut self, nodes: &[NodeView], eligible: &[usize]) -> Option<usize>;
    /// Policy name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Load measurement sanitized for comparison: a non-finite reading (broken
/// monitor) compares as the worst possible load, so it can never win a
/// lowest-load contest.  `total_cmp` then gives a strict weak order.
fn load_key(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::INFINITY
    }
}

/// Speed measurement sanitized for comparison: non-finite readings compare
/// as the slowest possible node, so they can never win a fastest contest
/// (raw `total_cmp` would rank NaN *above* every finite speed).
fn speed_key(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::NEG_INFINITY
    }
}

/// Pick the node with the lowest reported load; ties broken by speed then
/// name (deterministic).
#[derive(Debug, Default, Clone)]
pub struct LeastLoaded;

impl SchedulingPolicy for LeastLoaded {
    fn choose(&mut self, nodes: &[NodeView], eligible: &[usize]) -> Option<usize> {
        eligible.iter().copied().min_by(|&a, &b| {
            let (na, nb) = (&nodes[a], &nodes[b]);
            load_key(na.load)
                .total_cmp(&load_key(nb.load))
                .then(speed_key(nb.speed).total_cmp(&speed_key(na.speed)))
                .then(na.name.cmp(&nb.name))
        })
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Pick the fastest node with a free slot; ties broken by load then name.
#[derive(Debug, Default, Clone)]
pub struct FastestFit;

impl SchedulingPolicy for FastestFit {
    fn choose(&mut self, nodes: &[NodeView], eligible: &[usize]) -> Option<usize> {
        eligible.iter().copied().min_by(|&a, &b| {
            let (na, nb) = (&nodes[a], &nodes[b]);
            speed_key(nb.speed)
                .total_cmp(&speed_key(na.speed))
                .then(load_key(na.load).total_cmp(&load_key(nb.load)))
                .then(na.name.cmp(&nb.name))
        })
    }

    fn name(&self) -> &'static str {
        "fastest-fit"
    }
}

/// Rotate through candidates regardless of load (the naive baseline the
/// scheduling ablation compares against).
///
/// The rotation pointer is the *node index* last chosen, not a running
/// counter: a `counter % eligible.len()` scheme shifts with the eligible
/// set's size, so membership churn (nodes crashing, filling up, returning)
/// skews the pointer and can starve a node indefinitely.  Advancing past
/// the last-chosen index visits every persistently eligible node.
#[derive(Debug, Default, Clone)]
pub struct RoundRobin {
    /// Index (into `nodes`) of the last node handed work.
    last: Option<usize>,
}

impl SchedulingPolicy for RoundRobin {
    fn choose(&mut self, _nodes: &[NodeView], eligible: &[usize]) -> Option<usize> {
        if eligible.is_empty() {
            return None;
        }
        // `eligible` is ascending (built by an index-range filter): pick
        // the first candidate after the last choice, wrapping around.
        let pick = self
            .last
            .and_then(|l| eligible.iter().copied().find(|&i| i > l))
            .unwrap_or(eligible[0]);
        self.last = Some(pick);
        Some(pick)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Wrap a policy so it *defers* instead of placing work on nodes whose
/// reported load exceeds `threshold` — a job started there would only
/// starve behind the external users (§5.4).  BioOpera "schedule\[s\] the
/// computation according to machine usage and availability" (§3.4); this
/// is the usage-aware half.
pub struct AvoidSaturated<P> {
    /// The wrapped policy.
    pub inner: P,
    /// Maximum acceptable load fraction.
    pub threshold: f64,
    /// Reusable filter buffer: avoids allocating on every `choose`.
    keep: Vec<usize>,
}

impl<P: SchedulingPolicy> AvoidSaturated<P> {
    /// Wrap `inner` with a load ceiling.
    pub fn new(inner: P, threshold: f64) -> Self {
        AvoidSaturated {
            inner,
            threshold,
            keep: Vec::new(),
        }
    }
}

impl<P: SchedulingPolicy> SchedulingPolicy for AvoidSaturated<P> {
    fn choose(&mut self, nodes: &[NodeView], eligible: &[usize]) -> Option<usize> {
        self.keep.clear();
        self.keep.extend(
            eligible
                .iter()
                .copied()
                .filter(|&i| nodes[i].load < self.threshold),
        );
        if self.keep.is_empty() {
            return None; // defer: waiting beats starving
        }
        self.inner.choose(nodes, &self.keep)
    }

    fn name(&self) -> &'static str {
        "avoid-saturated"
    }
}

/// What [`place`] decided for one activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// No node passed the health, capacity and placement-constraint
    /// filter; the policy was not asked.
    NoEligibleNode,
    /// The policy saw a non-empty eligible set and chose to defer.
    Deferred,
    /// Index into `nodes` of the chosen node.
    Node(usize),
}

/// Filter nodes by an activity's placement constraints and capacity, then
/// ask the policy.
pub fn place(
    policy: &mut dyn SchedulingPolicy,
    nodes: &[NodeView],
    binding: &ExternalBinding,
) -> Placement {
    let eligible: Vec<usize> = (0..nodes.len())
        .filter(|&i| {
            let n = &nodes[i];
            n.up && !n.quarantined
                && n.free_slots() > 0
                && binding.os.as_deref().map(|os| os == n.os).unwrap_or(true)
                && (binding.hosts.is_empty() || binding.hosts.contains(&n.name))
        })
        .collect();
    if eligible.is_empty() {
        return Placement::NoEligibleNode;
    }
    match policy.choose(nodes, &eligible) {
        Some(idx) => Placement::Node(idx),
        None => Placement::Deferred,
    }
}

/// [`place`], reduced to the chosen node's name.
pub fn schedule<'a>(
    policy: &mut dyn SchedulingPolicy,
    nodes: &'a [NodeView],
    binding: &ExternalBinding,
) -> Option<&'a str> {
    match place(policy, nodes, binding) {
        Placement::Node(idx) => Some(nodes[idx].name.as_str()),
        Placement::NoEligibleNode | Placement::Deferred => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, os: &str, speed: f64, cpus: u32, jobs: u32, load: f64) -> NodeView {
        NodeView {
            name: name.into(),
            os: os.into(),
            speed,
            cpus_online: cpus,
            running_jobs: jobs,
            load,
            up: true,
            quarantined: false,
        }
    }

    fn any() -> ExternalBinding {
        ExternalBinding::program("p")
    }

    #[test]
    fn least_loaded_prefers_idle_node() {
        let nodes = vec![
            node("busy", "linux", 1.0, 2, 0, 0.9),
            node("idle", "linux", 1.0, 2, 0, 0.1),
        ];
        let mut p = LeastLoaded;
        assert_eq!(schedule(&mut p, &nodes, &any()), Some("idle"));
    }

    #[test]
    fn fastest_fit_prefers_speed() {
        let nodes = vec![
            node("slow", "linux", 0.7, 2, 0, 0.0),
            node("fast", "linux", 1.2, 2, 0, 0.5),
        ];
        let mut p = FastestFit;
        assert_eq!(schedule(&mut p, &nodes, &any()), Some("fast"));
    }

    #[test]
    fn round_robin_rotates() {
        let nodes = vec![
            node("a", "linux", 1.0, 4, 0, 0.0),
            node("b", "linux", 1.0, 4, 0, 0.0),
        ];
        let mut p = RoundRobin::default();
        assert_eq!(schedule(&mut p, &nodes, &any()), Some("a"));
        assert_eq!(schedule(&mut p, &nodes, &any()), Some("b"));
        assert_eq!(schedule(&mut p, &nodes, &any()), Some("a"));
    }

    #[test]
    fn placement_constraints_filter() {
        let nodes = vec![
            node("sun1", "solaris", 0.7, 1, 0, 0.0),
            node("pc1", "linux", 1.0, 2, 0, 0.0),
        ];
        let mut p = LeastLoaded;
        let mut b = any();
        b.os = Some("solaris".into());
        assert_eq!(schedule(&mut p, &nodes, &b), Some("sun1"));
        let mut b2 = any();
        b2.hosts = vec!["pc1".into()];
        assert_eq!(schedule(&mut p, &nodes, &b2), Some("pc1"));
        let mut b3 = any();
        b3.os = Some("irix".into());
        assert_eq!(schedule(&mut p, &nodes, &b3), None);
    }

    #[test]
    fn full_nodes_are_ineligible() {
        let nodes = vec![node("a", "linux", 1.0, 2, 2, 0.0)];
        let mut p = LeastLoaded;
        assert_eq!(schedule(&mut p, &nodes, &any()), None);
        // Down nodes too.
        let mut n = node("b", "linux", 1.0, 2, 0, 0.0);
        n.up = false;
        assert_eq!(schedule(&mut p, &[n], &any()), None);
    }

    #[test]
    fn avoid_saturated_defers_rather_than_starving() {
        let nodes = vec![
            node("busy", "linux", 1.0, 2, 0, 0.99),
            node("alsobusy", "linux", 1.0, 2, 0, 0.97),
        ];
        let mut p = AvoidSaturated::new(LeastLoaded, 0.95);
        assert_eq!(
            schedule(&mut p, &nodes, &any()),
            None,
            "defer on saturation"
        );
        let nodes2 = vec![
            node("busy", "linux", 1.0, 2, 0, 0.99),
            node("free", "linux", 0.7, 1, 0, 0.1),
        ];
        assert_eq!(schedule(&mut p, &nodes2, &any()), Some("free"));
    }

    #[test]
    fn round_robin_survives_membership_churn() {
        // a=0, b=1, c=2.  The old `counter % eligible.len()` scheme
        // starved c under this churn pattern: whenever b dropped out the
        // shrunken modulus re-aimed the pointer at a.
        let a = || node("a", "linux", 1.0, 1, 0, 0.0);
        let b = || node("b", "linux", 1.0, 1, 0, 0.0);
        let c = || node("c", "linux", 1.0, 1, 0, 0.0);
        let full = || node("b", "linux", 1.0, 1, 1, 0.0); // no free slot
        let mut p = RoundRobin::default();
        let mut picks = Vec::new();
        for round in 0..6 {
            // b flaps in and out of the eligible set every other round.
            let nodes = if round % 2 == 0 {
                vec![a(), b(), c()]
            } else {
                vec![a(), full(), c()]
            };
            picks.push(schedule(&mut p, &nodes, &any()).unwrap().to_string());
        }
        assert!(
            picks.iter().any(|n| n == "c"),
            "churn must not starve c: {picks:?}"
        );
        // Every eligible node is visited within one full rotation of a
        // stable set.
        let stable = vec![a(), b(), c()];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..3 {
            seen.insert(schedule(&mut p, &stable, &any()).unwrap().to_string());
        }
        assert_eq!(seen.len(), 3, "full rotation visits every node");
    }

    #[test]
    fn nan_load_cannot_win_and_is_rejected_at_construction() {
        // A raw NaN that slips into a view loses deterministically under
        // total_cmp, independent of input order.
        let mut broken = node("broken", "linux", 1.0, 2, 0, 0.0);
        broken.load = f64::NAN;
        let ok = node("ok", "linux", 1.0, 2, 0, 0.5);
        let mut p = LeastLoaded;
        assert_eq!(
            schedule(&mut p, &[broken.clone(), ok.clone()], &any()),
            Some("ok")
        );
        assert_eq!(schedule(&mut p, &[ok, broken], &any()), Some("ok"));
        // FastestFit with a NaN speed likewise.
        let mut slow_nan = node("nanspeed", "linux", 1.0, 2, 0, 0.0);
        slow_nan.speed = f64::NAN;
        let fast = node("fast", "linux", 1.2, 2, 0, 0.9);
        let mut f = FastestFit;
        assert_eq!(
            schedule(&mut f, &[slow_nan.clone(), fast.clone()], &any()),
            Some("fast")
        );
        assert_eq!(schedule(&mut f, &[fast, slow_nan], &any()), Some("fast"));
        // The constructor rejects non-finite measurements outright.
        let v = NodeView::new("m".into(), "linux".into(), f64::NAN, 2, 0, 0.1, true, false);
        assert!(!v.up, "non-finite speed marks the node down");
        assert_eq!(v.speed, 0.0);
        let v = NodeView::new(
            "m".into(),
            "linux".into(),
            1.0,
            2,
            0,
            f64::INFINITY,
            true,
            false,
        );
        assert!(!v.up, "non-finite load marks the node down");
        assert_eq!(v.load, 1.0);
        let v = NodeView::new("m".into(), "linux".into(), 1.0, 2, 0, 0.25, true, false);
        assert!(v.up, "finite measurements pass through");
        assert_eq!(v.load, 0.25);
    }

    #[test]
    fn quarantined_nodes_are_ineligible() {
        let mut q = node("q", "linux", 2.0, 4, 0, 0.0);
        q.quarantined = true;
        let h = node("h", "linux", 0.5, 1, 0, 0.9);
        let mut p = LeastLoaded;
        assert_eq!(
            schedule(&mut p, &[q.clone(), h], &any()),
            Some("h"),
            "quarantined node loses despite being idle and fast"
        );
        assert_eq!(schedule(&mut p, &[q], &any()), None);
    }

    #[test]
    fn deterministic_tie_break_by_name() {
        let nodes = vec![
            node("zeta", "linux", 1.0, 2, 0, 0.3),
            node("alpha", "linux", 1.0, 2, 0, 0.3),
        ];
        let mut p = LeastLoaded;
        assert_eq!(schedule(&mut p, &nodes, &any()), Some("alpha"));
    }
}
