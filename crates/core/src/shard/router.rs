//! Cross-shard message routing and the deterministic barrier merge.
//!
//! Everything a shard step produces for the outside world — messages to
//! other instances, dispatch requests, node releases, subprocess spawn
//! requests — leaves through its **outbox** tagged with the *source key*
//! `(source instance id, per-instance sequence number)`.  The barrier
//! merges all outboxes by sorting on that key, which is what makes the
//! engine deterministic:
//!
//! * **thread-interleaving invariance** — shard outputs are merged by a
//!   total order that does not mention shards or threads, so any
//!   completion order of the parallel steppers yields the same merged
//!   stream;
//! * **shard-count invariance** — an instance's sequence numbers depend
//!   only on the order it processes its own (sorted) inbox, never on
//!   which shard hosts it, so the merged stream — and therefore the
//!   recorded history — is bit-identical for *any* shard count.
//!
//! Intra-shard effects deliberately take the same path: a message from an
//! instance to its shard-neighbour still waits for the barrier, costing
//! one round of latency but keeping "runs on one shard" and "runs on
//! eight" literally the same computation.

use crate::awareness::EventKind;
use crate::state::InstanceId;
use bioopera_ocr::value::Value;
use bioopera_store::push_padded;
use std::collections::BTreeMap;

/// Shard index.
pub type ShardId = usize;

/// `(source instance, per-instance seq)` — the barrier's total order.
pub type SrcKey = (InstanceId, u64);

/// Stable owner shard of an instance (splitmix64 hash-bucket, so
/// consecutive ids spread instead of striping).
pub fn owner(instance: InstanceId, shards: usize) -> ShardId {
    debug_assert!(shards > 0);
    (splitmix64(instance) % shards as u64) as usize
}

/// The splitmix64 finalizer: a cheap, well-mixed stable hash.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A message delivered to an instance's inbox at the next round.
#[derive(Debug, Clone, PartialEq)]
pub struct Msg {
    /// Destination instance (its owner shard receives the message).
    pub dest: InstanceId,
    /// Source key the barrier sorted on (kept for in-round ordering).
    pub src: SrcKey,
    /// What happened.
    pub payload: Payload,
}

/// Message payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Create the destination instance (id was allocated at the barrier).
    Start {
        /// Template name (late-bound: resolved now, not at definition).
        template: String,
        /// Initial whiteboard values.
        initial: BTreeMap<String, Value>,
        /// `(parent instance, parent task path)` for subprocess children.
        parent: Option<(InstanceId, String)>,
    },
    /// The dispatch service granted a node slot to a ready task.
    Grant {
        /// Task path to execute.
        path: String,
        /// Logical node the slot belongs to.
        node: String,
    },
    /// A child subprocess instance concluded.
    ChildDone {
        /// Subprocess task path in the destination (parent) instance.
        path: String,
        /// Child instance id.
        child: InstanceId,
        /// Completed vs aborted.
        success: bool,
        /// The child's final whiteboard (parent filters declared outputs).
        outputs: BTreeMap<String, Value>,
        /// Reference-CPU milliseconds the child consumed.
        cpu_ms: f64,
    },
    /// An operator steering command.  Routed through the same sorted
    /// inbox as everything else, so suspend/resume take effect at a
    /// deterministic point in the instance's event order regardless of
    /// shard or thread count.
    Control {
        /// What the operator asked for.
        op: ControlOp,
    },
}

/// Operator steering operations delivered via [`Payload::Control`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Park the instance: finish nothing new, keep ready tasks ready.
    Suspend,
    /// Un-park the instance and re-activate every ready task.
    Resume,
}

/// A shard-step effect drained at the barrier.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Route a message to an instance (cross- or intra-shard alike).
    Send(Msg),
    /// Ask the dispatch service for a node slot for a ready task.
    Request {
        /// Requesting instance.
        instance: InstanceId,
        /// Ready task path.
        path: String,
        /// Source key.
        src: SrcKey,
    },
    /// Return a node slot, reporting whether the node faulted.
    Release {
        /// Node whose slot is freed.
        node: String,
        /// True when the attempt died to an (injected) node fault —
        /// feeds the node-health score.
        faulted: bool,
        /// Source key.
        src: SrcKey,
    },
    /// Ask the coordinator to allocate + start a subprocess instance.
    Spawn {
        /// `(parent instance, parent task path)`.
        parent: (InstanceId, String),
        /// Child template name.
        template: String,
        /// Child initial whiteboard.
        initial: BTreeMap<String, Value>,
        /// Source key.
        src: SrcKey,
    },
}

impl Effect {
    /// The barrier sort key.
    pub fn src(&self) -> SrcKey {
        match self {
            Effect::Send(m) => m.src,
            Effect::Request { src, .. }
            | Effect::Release { src, .. }
            | Effect::Spawn { src, .. } => *src,
        }
    }
}

/// One recorded history event: `(round, source key, kind)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardEvent {
    /// Barrier round the event was committed at.
    pub round: u64,
    /// Source instance.
    pub instance: InstanceId,
    /// Per-instance sequence number.
    pub seq: u64,
    /// What happened (same taxonomy as the serial engine's history).
    pub kind: EventKind,
}

/// History-space prefix of the barrier's ordered stream: the one history
/// record the sharded engine writes, and what recovery, the digest and
/// the awareness model all read.
pub(crate) const EVENT_PREFIX: &str = "sev/";

/// Append `sev/{round:08}/`: where the keys of `round`'s events begin.
fn push_round(key: &mut String, round: u64) {
    key.push_str(EVENT_PREFIX);
    push_padded(key, round, 8);
    key.push('/');
}

/// Key of the `index`-th event the barrier commits in `round`.  Key order
/// is commit order, which every reader of the stream relies on: six
/// digits hold the first million events of a round (byte for byte the
/// keys earlier versions wrote), and past that a `~` — after every digit
/// in ASCII — opens a twenty-digit form that sorts behind them.  Built in
/// one pass: a round commits one of these per event.
pub(crate) fn event_key(round: u64, index: usize) -> String {
    let mut key = String::with_capacity(EVENT_PREFIX.len() + 8 + 1 + 6);
    push_round(&mut key, round);
    if index < 1_000_000 {
        push_padded(&mut key, index as u64, 6);
    } else {
        key.push('~');
        push_padded(&mut key, index as u64, 20);
    }
    key
}

/// The key every event of `round` sorts at or after, and every event of
/// an earlier round before.
pub(crate) fn round_start_key(round: u64) -> String {
    let mut key = String::with_capacity(EVENT_PREFIX.len() + 8 + 1);
    push_round(&mut key, round);
    key
}

/// What one shard step hands to the barrier.
#[derive(Debug, Default)]
pub struct StepOutput {
    /// Outbox, in generation order (the barrier re-sorts globally).
    pub effects: Vec<Effect>,
    /// Events recorded this step, in generation order.
    pub events: Vec<ShardEvent>,
}

/// Merge per-shard outputs into the global deterministic order.
pub fn merge_outboxes(mut per_shard: Vec<StepOutput>) -> (Vec<Effect>, Vec<ShardEvent>) {
    let mut effects = Vec::new();
    let mut events = Vec::new();
    for out in per_shard.drain(..) {
        effects.extend(out.effects);
        events.extend(out.events);
    }
    // Stable sorts on the source key: per-source generation order is
    // preserved, cross-source order is the total (instance, seq) order.
    effects.sort_by_key(Effect::src);
    events.sort_by_key(|e| (e.instance, e.seq));
    (effects, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round 0 of N submissions commits N `instance.start` events, and
    /// `{index:06}` alone put the millionth before the second.
    #[test]
    fn event_keys_sort_in_commit_order_past_a_million_events_a_round() {
        let indexes = [0usize, 999_999, 1_000_000, 10_000_000];
        let keys: Vec<String> = [0u64, 1]
            .iter()
            .flat_map(|r| indexes.iter().map(|i| event_key(*r, *i)))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // The keys already on disk are not respelled.
        assert_eq!(event_key(21, 999_999), "sev/00000021/999999");
        assert_eq!(
            event_key(21, 1_000_000),
            "sev/00000021/~00000000000001000000"
        );
        assert!(round_start_key(1) <= event_key(1, 0));
        assert!(event_key(0, usize::MAX) < round_start_key(1));
    }

    /// The digit writer's keys are `format!`'s, byte for byte: seeded
    /// rounds (past eight digits too) and indexes on both sides of 10⁶.
    #[test]
    fn event_keys_are_spelled_as_format_spells_them() {
        let mut rounds = vec![0u64, 7, 99_999_999, 100_000_000, u64::MAX];
        let mut indexes = vec![0usize, 5, 999_999, 1_000_000, 1_000_001, usize::MAX];
        let mut x = 24u64;
        for _ in 0..100 {
            x = splitmix64(x);
            rounds.push(x >> (x % 64));
            indexes.push((splitmix64(x) % 2_000_000) as usize);
        }
        for &round in &rounds {
            assert_eq!(round_start_key(round), format!("sev/{round:08}/"));
            for &index in &indexes {
                let spelled = if index < 1_000_000 {
                    format!("sev/{round:08}/{index:06}")
                } else {
                    format!("sev/{round:08}/~{index:020}")
                };
                assert_eq!(event_key(round, index), spelled);
            }
        }
    }

    #[test]
    fn owner_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8, 13] {
            for id in 0..100u64 {
                let s = owner(id, shards);
                assert!(s < shards);
                assert_eq!(s, owner(id, shards));
            }
        }
        // The hash actually spreads consecutive ids.
        let buckets: std::collections::BTreeSet<usize> = (0..32).map(|i| owner(i, 8)).collect();
        assert!(buckets.len() > 4);
    }

    #[test]
    fn merge_sorts_by_instance_then_seq_stably() {
        let ev = |instance, seq| ShardEvent {
            round: 0,
            instance,
            seq,
            kind: EventKind::InstanceComplete { instance },
        };
        let a = StepOutput {
            effects: vec![],
            events: vec![ev(7, 0), ev(7, 1)],
        };
        let b = StepOutput {
            effects: vec![],
            events: vec![ev(2, 0), ev(9, 0)],
        };
        // Shard order must not matter.
        let (_, x) = merge_outboxes(vec![a, b]);
        let order: Vec<(u64, u64)> = x.iter().map(|e| (e.instance, e.seq)).collect();
        assert_eq!(order, vec![(2, 0), (7, 0), (7, 1), (9, 0)]);
    }
}
