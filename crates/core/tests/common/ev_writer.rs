//! The serial runtime's history writer as it was before the runtime joined
//! the `sev/` stream, frozen: each event an `ev/{seq:020}` record, and once
//! `every` events have gathered past the last one, a `rollup` of the
//! aggregates in the same batch — one batch per flush.  Nothing in the
//! engine writes this layout any more; stores that hold it are written
//! here, byte for byte as they were, so the reader can be held to them.

// Each test binary that includes this file uses its own part of it.
#![allow(dead_code)]

use bioopera_cluster::SimTime;
use bioopera_core::metrics::Histogram;
use bioopera_core::{Awareness, AwarenessIndex, EventKind, HistoryEvent};
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

/// Where an existing `rollup` left the cadence.
#[derive(serde::Deserialize)]
struct RollupBase {
    base: u64,
}

pub struct EvWriter {
    next_seq: u64,
    pending: Vec<(u64, HistoryEvent)>,
    /// Every event written or pending, folded: what a rollup snapshots.
    index: AwarenessIndex,
    every: u64,
    rollup_base: u64,
}

impl EvWriter {
    /// A writer continuing the `ev/` history `store` holds (after the
    /// highest sequence number, by value), at the old default cadence.
    pub fn open<D: Disk>(store: &Store<D>) -> Self {
        let next_seq = store
            .scan_prefix(Space::History, "ev/")
            .unwrap()
            .iter()
            .map(|(key, _)| key["ev/".len()..].parse::<u64>().unwrap() + 1)
            .max()
            .unwrap_or(0);
        let rollup_base = store
            .get(Space::History, "rollup")
            .unwrap()
            .map_or(0, |bytes| {
                serde_json::from_slice::<RollupBase>(&bytes).unwrap().base
            });
        EvWriter {
            next_seq,
            pending: Vec::new(),
            index: Awareness::open(store).unwrap().index().clone(),
            every: 512,
            rollup_base,
        }
    }

    pub fn set_every(&mut self, every: u64) {
        self.every = every.max(1);
    }

    pub fn record(&mut self, at: SimTime, kind: EventKind) {
        let ev = HistoryEvent { at, kind };
        self.index.ingest(&ev);
        self.pending.push((self.next_seq, ev));
        self.next_seq += 1;
    }

    /// Write the pending events as one batch, with a rollup of everything
    /// up to them when the cadence is due.
    pub fn flush<D: Disk>(&mut self, store: &Store<D>) {
        if self.pending.is_empty() {
            return;
        }
        let mut batch = Batch::new();
        for (seq, ev) in self.pending.drain(..) {
            batch.put(
                Space::History,
                format!("ev/{seq:020}"),
                serde_json::to_vec(&ev).unwrap(),
            );
        }
        if self.next_seq - self.rollup_base >= self.every {
            let i = &self.index;
            let rollup = Rollup {
                base: self.next_seq,
                counts: i
                    .counts_by_kind()
                    .into_iter()
                    .map(|(k, n)| (k, n as u64))
                    .collect(),
                run_ms: i.run_ms().clone(),
                queue_ms: i.queue_ms().clone(),
                in_flight: i.in_flight(),
                peak_in_flight: i.peak_in_flight(),
                nodes_down: i.nodes_down().iter().cloned().collect(),
                nodes_quarantined: i.nodes_quarantined().iter().cloned().collect(),
                total_cpu_ms: i.total_cpu_ms(),
                store_io: i.store_io().clone(),
            };
            batch.put(
                Space::History,
                "rollup",
                serde_json::to_vec(&rollup).unwrap(),
            );
            self.rollup_base = self.next_seq;
        }
        store.apply(batch).unwrap();
    }

    /// Every event written or pending, folded.
    pub fn index(&self) -> &AwarenessIndex {
        &self.index
    }
}
