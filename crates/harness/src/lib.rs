//! # bioopera-harness
//!
//! Deterministic crash-point torture harness for the store and the engine
//! recovery path.  The paper's dependability claim (§3.4) is that BioOpera
//! "resumes the execution of the computation smoothly when failures occur
//! and avoids inconsistencies in the output data after failures"; this
//! crate turns that claim into an *enumerable* check instead of a sampled
//! one.
//!
//! The method is the classic crash-point enumeration used by file-system
//! and database torture tests:
//!
//! 1. run a scripted workload **crash-free** on a [`MemDisk`] and count
//!    every disk mutation (`append`, `write_atomic`, `delete`);
//! 2. re-run the workload once per mutation index, injecting a crash at
//!    exactly that point with each [`CrashEffect`] (lost write, torn
//!    write, write-then-crash);
//! 3. after every crash: reboot, reopen, and check the durability
//!    invariants — reopen never panics, every acknowledged batch is fully
//!    present, the in-flight batch is all-or-nothing, and resuming the
//!    workload converges byte-identically on the crash-free oracle.
//!
//! A second crash can be injected *during recovery itself*, and persisted
//! bytes can be bit-flipped to model media corruption; both are part of
//! the enumeration.
//!
//! Everything is derived from a single `HARNESS_SEED`, printed together
//! with the crash index in every violation message, so any failure
//! reproduces with `HARNESS_SEED=<seed> cargo test -p bioopera-harness`.
//!
//! [`MemDisk`]: bioopera_store::MemDisk
//! [`CrashEffect`]: bioopera_store::CrashEffect

pub mod runtime_torture;
pub mod shard_torture;
pub mod store_torture;

pub use runtime_torture::{real_setup, run_runtime_torture, RuntimeTortureOutcome};
pub use shard_torture::{run_shard_torture, ShardTortureOutcome};
pub use store_torture::{
    run_store_torture, run_store_torture_leveled, run_store_torture_tiered, tiny_leveled_policy,
    tiny_tiered_policy, StoreTortureOutcome,
};

/// Default seed when `HARNESS_SEED` is not set.
pub const DEFAULT_SEED: u64 = 0xB10B_0B5E;

/// Resolve the harness seed: the `HARNESS_SEED` environment variable when
/// set (and parseable as `u64`), otherwise `default`.
pub fn seed_from_env(default: u64) -> u64 {
    std::env::var("HARNESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Combined outcome of the store and runtime torture passes.
pub struct TortureReport {
    /// The seed every schedule was derived from.
    pub seed: u64,
    /// Store-workload enumeration outcome (untiered snapshot + WAL engine).
    pub store: StoreTortureOutcome,
    /// Store-workload enumeration outcome under a tiny tiered policy, so
    /// crash points inside memtable spills and run merge compactions are
    /// part of the enumeration.
    pub store_tiered: StoreTortureOutcome,
    /// Store-workload enumeration outcome under a tiny *leveled* policy:
    /// level-merge commits, multi-run splits, retention-watermark advances
    /// and input-run GC all become enumerated crash points.
    pub store_leveled: StoreTortureOutcome,
    /// Runtime all-vs-all outcome.
    pub runtime: RuntimeTortureOutcome,
    /// Sharded-navigator barrier-crash outcome.
    pub shard: ShardTortureOutcome,
}

impl TortureReport {
    /// Every invariant violation found, store first.
    pub fn violations(&self) -> Vec<&str> {
        self.store
            .violations
            .iter()
            .chain(self.store_tiered.violations.iter())
            .chain(self.store_leveled.violations.iter())
            .chain(self.runtime.violations.iter())
            .chain(self.shard.violations.iter())
            .map(String::as_str)
            .collect()
    }

    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.store.violations.is_empty()
            && self.store_tiered.violations.is_empty()
            && self.store_leveled.violations.is_empty()
            && self.runtime.violations.is_empty()
            && self.shard.violations.is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        format!(
            "torture harness HARNESS_SEED={}\n\
             \x20 store:   {} mutations, {} crash cases, {} recovery double-crash cases, {} bit-flip cases\n\
             \x20 tiered:  {} mutations, {} crash cases, {} recovery double-crash cases, {} bit-flip cases\n\
             \x20 leveled: {} mutations, {} crash cases, {} recovery double-crash cases, {} bit-flip cases\n\
             \x20 runtime: {} mutations, {} crash cases, {} recovery double-crash cases\n\
             \x20 shard:   {} oracle rounds, {} barrier-crash cases, {} double-crash cases, {} torn-commit cases\n\
             \x20 violations: {}",
            self.seed,
            self.store.mutations,
            self.store.cases,
            self.store.recovery_cases,
            self.store.bitflip_cases,
            self.store_tiered.mutations,
            self.store_tiered.cases,
            self.store_tiered.recovery_cases,
            self.store_tiered.bitflip_cases,
            self.store_leveled.mutations,
            self.store_leveled.cases,
            self.store_leveled.recovery_cases,
            self.store_leveled.bitflip_cases,
            self.runtime.mutations,
            self.runtime.cases,
            self.runtime.recovery_cases,
            self.shard.rounds,
            self.shard.cases,
            self.shard.recovery_cases,
            self.shard.torn_cases,
            self.violations().len(),
        )
    }
}

/// Run both torture passes.
///
/// `store_limit` bounds the number of store crash indices (`None` = full
/// enumeration); `runtime_samples` bounds the runtime crash points of the
/// real 3-TEU all-vs-all (`usize::MAX` = all of them: 83 executions, ~2 s
/// in release) and `recovery_samples` its double-crash points;
/// `shard_samples` bounds the sampled
/// `(round, commit-prefix)` barrier-crash points of the sharded engine
/// (and, at a third of it, the rounds whose barrier commit is torn every
/// way).
pub fn run_full(
    seed: u64,
    store_limit: Option<usize>,
    runtime_samples: usize,
    recovery_samples: usize,
    shard_samples: usize,
) -> TortureReport {
    TortureReport {
        seed,
        store: run_store_torture(seed, store_limit),
        store_tiered: run_store_torture_tiered(seed, store_limit),
        store_leveled: run_store_torture_leveled(seed, store_limit),
        runtime: run_runtime_torture(&real_setup(), seed, runtime_samples, recovery_samples),
        shard: run_shard_torture(seed, shard_samples),
    }
}
