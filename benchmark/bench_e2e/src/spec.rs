//! The benchmark specification: `benchmark/workloads.json`, compiled in.
//!
//! Workload sizes, the reason each workload exists and the pinned
//! oracles live in JSON so that every later change is measured against
//! the same thing; a change to that file is a change to the benchmark.

use serde::Deserialize;
use std::collections::BTreeMap;

/// The spec as committed next to this package.
pub const SPEC_JSON: &str = include_str!("../../workloads.json");
/// Where `--bless` rewrites it (relative to the repository root).
pub const SPEC_PATH: &str = "benchmark/workloads.json";

/// Oracle facts of one finished repetition, rendered as strings so one
/// map type covers counts, simulated times and digests.
pub type Facts = BTreeMap<String, String>;

/// The four workloads, in round-robin order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    MonthShared,
    ShardChains,
    ShardChainsTiered,
    AllvsallReal,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MonthShared,
        Workload::ShardChains,
        Workload::ShardChainsTiered,
        Workload::AllvsallReal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MonthShared => "month_shared",
            Workload::ShardChains => "shard_chains",
            Workload::ShardChainsTiered => "shard_chains_tiered",
            Workload::AllvsallReal => "allvsall_real",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Deserialize)]
pub struct MonthSpec {
    pub why: String,
    pub entries: usize,
    /// The size the cost model is calibrated for; `cell_ns` is scaled by
    /// `(sp38_entries / entries)²` so the simulated run keeps its length.
    pub sp38_entries: usize,
    pub mean_len: usize,
    pub teus: i64,
    pub heartbeat_hours: u64,
    pub reps: usize,
    pub setup_reps: usize,
    pub smoke_entries: usize,
    pub smoke_teus: i64,
    pub expect: Facts,
    pub expect_smoke: Facts,
}

#[derive(Debug, Clone, Deserialize)]
pub struct ChainsSpec {
    pub why: String,
    pub instances: u64,
    pub shards: usize,
    pub threads: usize,
    pub nodes: usize,
    pub node_capacity: usize,
    pub crash_after_round: u64,
    /// `None` opens the store untiered.
    pub memtable_budget_bytes: Option<u64>,
    pub reps: usize,
    pub setup_reps: usize,
    pub expect: Facts,
    pub expect_smoke: Facts,
}

#[derive(Debug, Clone, Deserialize)]
pub struct RealSpec {
    pub why: String,
    pub db_size: usize,
    pub dataset_seed: u64,
    pub teus: i64,
    pub heartbeat_mins: u64,
    /// Crash once this many TEUs have completed.
    pub crash_after_teus: usize,
    pub reps: usize,
    pub setup_reps: usize,
    pub smoke_db_size: usize,
    pub expect: Facts,
    pub expect_smoke: Facts,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    pub default_seed: u64,
    /// A repetition whose host spin is more than this share above the
    /// invocation's best spin is discarded and run again.
    pub spin_tolerance: f64,
    pub max_extra_reps: usize,
    pub month_shared: MonthSpec,
    pub shard_chains: ChainsSpec,
    pub shard_chains_tiered: ChainsSpec,
    pub allvsall_real: RealSpec,
}

/// Smoke runs do a twentieth of the work.
pub const SMOKE_DIVISOR: u64 = 20;

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let spec: Spec = serde_json::from_str(SPEC_JSON)
            .map_err(|e| format!("{SPEC_PATH} does not match the driver: {e}"))?;
        match Workload::ALL.into_iter().find(|&w| spec.reps(w) == 0) {
            Some(w) => Err(format!("{SPEC_PATH}: {}.reps must be at least 1", w.name())),
            None => Ok(spec),
        }
    }

    pub fn why(&self, w: Workload) -> &str {
        match w {
            Workload::MonthShared => &self.month_shared.why,
            Workload::ShardChains => &self.shard_chains.why,
            Workload::ShardChainsTiered => &self.shard_chains_tiered.why,
            Workload::AllvsallReal => &self.allvsall_real.why,
        }
    }

    /// Repetitions of `w` per invocation: more for the short, noisy
    /// workloads, fewer for the long, steady ones, so that every
    /// invocation measures for about as long.
    pub fn reps(&self, w: Workload) -> usize {
        match w {
            Workload::MonthShared => self.month_shared.reps,
            Workload::ShardChains => self.shard_chains.reps,
            Workload::ShardChainsTiered => self.shard_chains_tiered.reps,
            Workload::AllvsallReal => self.allvsall_real.reps,
        }
    }

    /// The pinned oracle of `w` for the default seed (empty = not blessed).
    pub fn expect(&self, w: Workload, smoke: bool) -> &Facts {
        let (full, small) = match w {
            Workload::MonthShared => (&self.month_shared.expect, &self.month_shared.expect_smoke),
            Workload::ShardChains => (&self.shard_chains.expect, &self.shard_chains.expect_smoke),
            Workload::ShardChainsTiered => (
                &self.shard_chains_tiered.expect,
                &self.shard_chains_tiered.expect_smoke,
            ),
            Workload::AllvsallReal => {
                (&self.allvsall_real.expect, &self.allvsall_real.expect_smoke)
            }
        };
        if smoke {
            small
        } else {
            full
        }
    }
}
