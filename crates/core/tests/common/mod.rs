//! What the engine-level suites share: the Chain, Fan and Parent toys of
//! `bioopera_workloads::toys` (`Chain` is `bench_e2e`'s chain), the
//! store policies a suite whose run tiering can change is held on, the
//! frozen History writers of earlier engines ([`ev_writer`]), and the
//! crash that tears a round's append at each frame boundary ([`tears`]).  The
//! allocator-counting gates (`residency.rs`, `codec_allocs.rs`) each
//! install their own `#[global_allocator]`, so they stay separate test
//! binaries; the workload they count is the one here.

// Each test binary uses its own part of this module.
#![allow(dead_code)]

pub mod ev_writer;
pub mod tears;

use bioopera_core::shard::{ShardConfig, ShardEngine, ShardEvent};
use bioopera_store::{Disk, MemDisk, Store, TieredPolicy};
#[allow(unused_imports)]
pub use bioopera_workloads::toys::{chain_template, fan_template, library, parent_template};
use bioopera_workloads::toys::{templates, toy};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// An engine over `store` with the three templates registered.
pub fn engine_on<D: Disk>(store: Store<D>, cfg: ShardConfig) -> ShardEngine<D> {
    let mut eng = ShardEngine::new(store, library(), cfg).expect("engine");
    for t in templates() {
        eng.register_template(t).unwrap();
    }
    eng
}

/// Submit a workload — a template index and a per-instance knob for each
/// root — and return the roots' ids.
pub fn submit_workload<D: Disk>(eng: &mut ShardEngine<D>, workload: &[(usize, i64)]) -> Vec<u64> {
    workload
        .iter()
        .map(|(tmpl, knob)| {
            let (name, initial) = toy(*tmpl, *knob);
            eng.submit(name, initial).unwrap()
        })
        .collect()
}

/// `bench_e2e`'s chain on four shards over `store`.
pub fn chain_engine_on<D: Disk>(store: Store<D>) -> ShardEngine<D> {
    let mut engine = ShardEngine::new(store, library(), chain_config()).unwrap();
    engine.register_template(chain_template()).unwrap();
    engine
}

/// The configuration of [`chain_engine_on`], to recover its store with.
pub fn chain_config() -> ShardConfig {
    ShardConfig {
        shards: 4,
        // One stepper thread: every allocation lands on this thread.
        threads: 1,
        ..ShardConfig::default()
    }
}

/// [`chain_engine_on`] a fresh in-memory store.
pub fn chain_engine() -> ShardEngine<MemDisk> {
    chain_engine_on(Store::open(MemDisk::new()).unwrap())
}

/// What refolding `events` from the stream's first record says of the
/// history: the digest (round, instance and sequence number of each event,
/// its time if it has one, then a fresh encoding of its kind), the count by
/// label and the count.
pub fn refold(events: &[ShardEvent]) -> (u64, BTreeMap<String, u64>, u64) {
    let mut hash = ev_writer::FNV_OFFSET;
    let mut counts = BTreeMap::new();
    for e in events {
        hash = ev_writer::fold_event(hash, e);
        *counts.entry(e.kind.label().to_string()).or_insert(0) += 1;
    }
    (hash, counts, events.len() as u64)
}

/// The squeezed tiered policy: a spill every few records, an L0 merge
/// every second spill, and levels that overflow constantly.
pub fn squeezed() -> TieredPolicy {
    TieredPolicy {
        memtable_budget_bytes: 512,
        run_merge_threshold: 2,
        level_base_bytes: 4096,
        level_growth: 2,
        level_run_bytes: 768,
        ..TieredPolicy::default()
    }
}

/// The store policies a suite runs on: the untiered store and
/// [`squeezed`].
pub fn policies() -> [Option<TieredPolicy>; 2] {
    [None, Some(squeezed())]
}

/// [`policies`] as a proptest axis.
pub fn policy() -> impl Strategy<Value = Option<TieredPolicy>> {
    prop::sample::select(policies().to_vec())
}

/// A `#[test]` per store policy for each named scenario — a
/// `fn(Option<TieredPolicy>)` — in a module `untiered` and a module
/// `tiered` (under [`squeezed`]), so a failure names its policy.
#[allow(unused_macros)]
macro_rules! on_each_policy {
    ($($scenario:ident),+ $(,)?) => {
        mod untiered {
            $(
                #[test]
                fn $scenario() {
                    super::$scenario(None)
                }
            )+
        }
        mod tiered {
            $(
                #[test]
                fn $scenario() {
                    super::$scenario(Some(super::common::squeezed()))
                }
            )+
        }
    };
}
#[allow(unused_imports)]
pub(crate) use on_each_policy;
