//! The History writers of earlier engines, frozen: stores of their age are
//! written here, byte for byte as they were, so that the open-time upgrade
//! can be held to them.  Nothing in the engine writes these layouts any
//! more.
//!
//! * [`EvWriter`]: the serial runtime before it joined the `sev/` stream —
//!   each event an `ev/{seq}` record (ten digits wide at first, twenty
//!   since; the earliest records free-form strings), and once `every`
//!   events have gathered past the last one, a `rollup` of the aggregates
//!   in the same batch: one batch per flush.
//! * [`Continuation`]: the serial runtime after it joined the stream, over
//!   a store that still held that history — its first commit carried a
//!   `summary` counting the `ev/` events too, whatever the cadence.
//!
//! Each writer folds what it wrote itself: the fold is the oracle, and it
//! borrows nothing from the engine's readers.

// Each test binary that includes this file uses its own part of it.
#![allow(dead_code)]

use bioopera_cluster::SimTime;
use bioopera_core::awareness::RollupRecord;
use bioopera_core::metrics::Histogram;
use bioopera_core::shard::ShardEvent;
use bioopera_core::{AwarenessIndex, EventKind, HistoryEvent};
use bioopera_store::{Batch, Disk, Space, Store};
use std::collections::BTreeMap;

/// The `rollup` record's members, in the order they were written.
#[derive(serde::Serialize)]
struct Rollup {
    base: u64,
    counts: BTreeMap<String, u64>,
    run_ms: Histogram,
    queue_ms: Histogram,
    in_flight: u64,
    peak_in_flight: u64,
    nodes_down: Vec<String>,
    nodes_quarantined: Vec<String>,
    total_cpu_ms: f64,
    store_io: BTreeMap<String, u64>,
}

impl Rollup {
    /// The aggregates of `index`, covering its first `base` events.
    fn of(index: &AwarenessIndex, base: u64) -> Self {
        Rollup {
            base,
            counts: index
                .counts_by_kind()
                .into_iter()
                .map(|(k, n)| (k, n as u64))
                .collect(),
            run_ms: index.run_ms().clone(),
            queue_ms: index.queue_ms().clone(),
            in_flight: index.in_flight(),
            peak_in_flight: index.peak_in_flight(),
            nodes_down: index.nodes_down().iter().cloned().collect(),
            nodes_quarantined: index.nodes_quarantined().iter().cloned().collect(),
            total_cpu_ms: index.total_cpu_ms(),
            store_io: index.store_io().clone(),
        }
    }
}

/// The stream's `summary` record, as the serial runtime wrote it.
#[derive(serde::Serialize)]
struct Summary {
    next_round: u64,
    rollup: Rollup,
    digest: u64,
}

/// The `summary` record as the sharded engine wrote it before the record
/// carried the history digest: a writer for stores of that age, and that
/// engine's reader, which skips a member it does not know.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SummaryBeforeDigest {
    pub next_round: u64,
    pub rollup: RollupRecord,
}

/// The `ev/` writer.
pub struct EvWriter {
    next_seq: u64,
    /// Digits of a key: ten before the keys were widened, twenty since.
    width: usize,
    /// Records not flushed yet: sequence number, bytes, the event.
    pending: Vec<(u64, Vec<u8>, HistoryEvent)>,
    /// What was flushed, in sequence order, and its fold.
    written: Vec<HistoryEvent>,
    index: AwarenessIndex,
    every: u64,
    rollup_base: u64,
}

impl Default for EvWriter {
    fn default() -> Self {
        EvWriter::starting_at(0, 20)
    }
}

impl EvWriter {
    /// A writer of an empty store, at the old default cadence.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer whose next record is `seq`, under `width`-digit keys.
    pub fn starting_at(seq: u64, width: usize) -> Self {
        EvWriter {
            next_seq: seq,
            width,
            pending: Vec::new(),
            written: Vec::new(),
            index: AwarenessIndex::default(),
            every: 512,
            rollup_base: seq,
        }
    }

    pub fn set_every(&mut self, every: u64) {
        self.every = every.max(1);
    }

    /// From now on, twenty-digit keys.
    pub fn widen(&mut self) {
        self.width = 20;
    }

    pub fn record(&mut self, at: SimTime, kind: EventKind) {
        let ev = HistoryEvent { at, kind };
        let bytes = serde_json::to_vec(&ev).unwrap();
        self.pending.push((self.next_seq, bytes, ev));
        self.next_seq += 1;
    }

    /// A record as the code before the typed taxonomy wrote it: a label
    /// and, but for the oldest, a free-form detail.
    pub fn record_legacy(&mut self, at: SimTime, label: &str, detail: Option<&str>) {
        let string = |s: &str| serde_json::to_string(s).unwrap();
        let mut bytes = format!("{{\"at\":[{}],\"kind\":{}", at.as_millis(), string(label));
        if let Some(detail) = detail {
            bytes.push_str(&format!(",\"detail\":{}", string(detail)));
        }
        bytes.push('}');
        let kind = EventKind::Legacy {
            kind: label.into(),
            detail: detail.unwrap_or_default().into(),
        };
        self.pending
            .push((self.next_seq, bytes.into_bytes(), HistoryEvent { at, kind }));
        self.next_seq += 1;
    }

    /// Write the pending records as one batch, with a rollup of everything
    /// up to them when the cadence is due.
    pub fn flush<D: Disk>(&mut self, store: &mut Store<D>) {
        if self.pending.is_empty() {
            return;
        }
        let mut batch = Batch::new();
        for (seq, bytes, ev) in self.pending.drain(..) {
            let key = format!("ev/{seq:0width$}", width = self.width);
            batch.put(Space::History, key, bytes);
            self.index.ingest(&ev);
            self.written.push(ev);
        }
        if self.next_seq - self.rollup_base >= self.every {
            let rollup = Rollup::of(&self.index, self.next_seq);
            batch.put(
                Space::History,
                "rollup",
                serde_json::to_vec(&rollup).unwrap(),
            );
            self.rollup_base = self.next_seq;
        }
        store.apply(batch).unwrap();
    }

    /// A crash of the writing runtime: what was not flushed is lost.
    pub fn reopen(&mut self) {
        self.next_seq -= self.pending.len() as u64;
        self.pending.clear();
    }

    /// Every flushed event, in sequence order.
    pub fn events(&self) -> &[HistoryEvent] {
        &self.written
    }

    /// The fold of every flushed event.
    pub fn index(&self) -> &AwarenessIndex {
        &self.index
    }

    /// The flushed events as the upgrade rewrites them: round 0 of the
    /// stream, in sequence order.
    pub fn as_round_zero(&self) -> Vec<ShardEvent> {
        self.written
            .iter()
            .enumerate()
            .map(|(i, ev)| ShardEvent {
                round: 0,
                instance: ev.kind.instance().unwrap_or(0),
                seq: i as u64,
                at: Some(ev.at),
                kind: ev.kind.clone(),
            })
            .collect()
    }
}

/// The serial runtime's stream over a store holding `ev/` history: each
/// commit one round of `sev/{round:08}/{index:06}` records carrying their
/// time, and a `summary` whose rollup counts the `ev/` events as well —
/// on the first commit whatever the cadence, and after it when `every`
/// events have gathered past the last one.  Its digest is the stream's
/// alone: the `ev/` events were never digested.
pub struct Continuation {
    round: u64,
    /// The stream written, and its digest.
    stream: Vec<ShardEvent>,
    digest: u64,
    /// The `ev/` history's fold, then every round's.
    index: AwarenessIndex,
    summarized: u64,
    every: u64,
    due: bool,
}

impl Continuation {
    /// The stream continuing what `ev` flushed, at cadence `every`.
    pub fn new(ev: &EvWriter, every: u64) -> Self {
        Continuation {
            round: 0,
            stream: Vec::new(),
            digest: FNV_OFFSET,
            index: ev.index().clone(),
            summarized: 0,
            every,
            due: !ev.index().is_empty(),
        }
    }

    /// Commit one round of events (a round carries at least one).
    pub fn commit<D: Disk>(&mut self, store: &mut Store<D>, events: &[(SimTime, EventKind)]) {
        let mut batch = Batch::new();
        for (i, (at, kind)) in events.iter().enumerate() {
            let event = ShardEvent {
                round: self.round,
                instance: kind.instance().unwrap_or(0),
                seq: i as u64,
                at: Some(*at),
                kind: kind.clone(),
            };
            let key = format!("sev/{:08}/{i:06}", self.round);
            batch.put(Space::History, key, serde_json::to_vec(&event).unwrap());
            self.digest = fold_event(self.digest, &event);
            self.index.ingest(&HistoryEvent {
                at: *at,
                kind: kind.clone(),
            });
            self.stream.push(event);
        }
        self.round += 1;
        let observed = self.index.len() as u64;
        if self.due || observed - self.summarized >= self.every {
            let summary = Summary {
                next_round: self.round,
                rollup: Rollup::of(&self.index, observed),
                digest: self.digest,
            };
            batch.put(
                Space::History,
                "summary",
                serde_json::to_vec(&summary).unwrap(),
            );
            self.summarized = observed;
            self.due = false;
        }
        store.apply(batch).unwrap();
    }

    /// The stream written, as committed.
    pub fn stream(&self) -> &[ShardEvent] {
        &self.stream
    }

    /// The fold of the `ev/` history and every round.
    pub fn index(&self) -> &AwarenessIndex {
        &self.index
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one stream event into `hash`: its round, instance and sequence
/// number, its time if it has one, then a fresh encoding of its kind.
pub fn fold_event(mut hash: u64, e: &ShardEvent) -> u64 {
    let mut fold = |bytes: &[u8]| {
        for b in bytes {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x1_0000_01b3);
        }
    };
    fold(&e.round.to_le_bytes());
    fold(&e.instance.to_le_bytes());
    fold(&e.seq.to_le_bytes());
    if let Some(at) = e.at {
        fold(&at.as_millis().to_le_bytes());
    }
    fold(&serde_json::to_vec(&e.kind).unwrap());
    hash
}
