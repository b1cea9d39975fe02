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

use bioopera_store::{wal, CrashEffect};
use rand::rngs::StdRng;
use rand::Rng;

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

/// Every crash an append of `data` can suffer: lost, applied with the
/// acknowledgment lost, and torn at 0, at each WAL frame boundary ±1 and
/// at three seeded offsets inside.  A shard round's append and a
/// `Runtime` commit are each one append of whole frames, so this is every
/// state a crash can leave of either; `data` is empty for a mutation that
/// appends nothing (a run or manifest write, a delete), which is lost,
/// applied, or left as an empty temp file.
pub fn append_crash_effects(data: &[u8], rng: &mut StdRng) -> Vec<CrashEffect> {
    let len = data.len() as u64;
    let mut keeps = vec![0u64];
    let mut off = 0usize;
    while off + wal::HEADER_LEN <= data.len() {
        let payload = u32::from_le_bytes(data[off + 2..off + 6].try_into().expect("four bytes"));
        off += wal::HEADER_LEN + payload as usize;
        keeps.extend([off as u64 - 1, off as u64, off as u64 + 1]);
    }
    for _ in 0..3 {
        keeps.push(rng.gen_range(0..len.max(1)));
    }
    keeps.retain(|k| *k <= len);
    keeps.sort_unstable();
    keeps.dedup();
    let mut effects = vec![CrashEffect::Drop, CrashEffect::AfterApply];
    effects.extend(keeps.into_iter().map(|keep| CrashEffect::Torn { keep }));
    effects
}

/// Combined outcome of the store and runtime torture passes.
pub struct TortureReport {
    /// The seed every schedule was derived from.
    pub seed: u64,
    /// Store-workload enumeration outcome with no memtable budget (the
    /// script's compactions are its only spills).
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
    /// A bounded sample of the runtime pass over stores under
    /// [`tiny_leveled_policy`]: crash points inside the spills, merges and
    /// push-downs of a running engine.
    pub runtime_leveled: RuntimeTortureOutcome,
    /// Sharded-navigator crash-inside-a-round outcome.
    pub shard: ShardTortureOutcome,
    /// A bounded sample of the shard pass under [`tiny_leveled_policy`].
    pub shard_leveled: ShardTortureOutcome,
}

/// At most this many runtime crash points, runtime double-crash points and
/// sampled shard rounds [`run_full`] runs under
/// [`tiny_leveled_policy`].
const LEVELED_SAMPLES: (usize, usize, usize) = (4, 1, 8);

impl TortureReport {
    /// Every invariant violation found, store first.
    pub fn violations(&self) -> Vec<&str> {
        [
            &self.store.violations,
            &self.store_tiered.violations,
            &self.store_leveled.violations,
            &self.runtime.violations,
            &self.runtime_leveled.violations,
            &self.shard.violations,
            &self.shard_leveled.violations,
        ]
        .into_iter()
        .flatten()
        .map(String::as_str)
        .collect()
    }

    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations().is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let store = |o: &StoreTortureOutcome| {
            format!(
                "{} mutations, {} crash cases, {} recovery double-crash cases, {} bit-flip cases",
                o.mutations, o.cases, o.recovery_cases, o.bitflip_cases
            )
        };
        let runtime = |o: &RuntimeTortureOutcome| {
            format!(
                "{} mutations, {} crashed at {} cuts, {} recovery double-crash cases",
                o.mutations, o.points, o.cases, o.recovery_cases
            )
        };
        let shard = |o: &ShardTortureOutcome| {
            format!(
                "{} oracle rounds, {} sampled rounds ({} on two threads, {} crashing twice), \
                 {} crashes in their appends",
                o.rounds, o.cases, o.parallel_cases, o.recovery_cases, o.torn_cases
            )
        };
        format!(
            "torture harness HARNESS_SEED={}\n\
             \x20 store:            {}\n\
             \x20 tiered:           {}\n\
             \x20 leveled:          {}\n\
             \x20 runtime:          {}\n\
             \x20 runtime, leveled: {}\n\
             \x20 shard:            {}\n\
             \x20 shard, leveled:   {}\n\
             \x20 violations: {}",
            self.seed,
            store(&self.store),
            store(&self.store_tiered),
            store(&self.store_leveled),
            runtime(&self.runtime),
            runtime(&self.runtime_leveled),
            shard(&self.shard),
            shard(&self.shard_leveled),
            self.violations().len(),
        )
    }
}

/// Run every torture pass.
///
/// `store_limit` bounds the number of store crash indices (`None` = full
/// enumeration); `runtime_samples` bounds the runtime crash points of the
/// real 3-TEU all-vs-all (`usize::MAX` = all 58 of them, each commit's
/// append cut every way [`append_crash_effects`] names: 369 executions, a
/// few seconds in release) and `recovery_samples` its double-crash points;
/// `shard_samples` bounds the sampled rounds of the sharded engine, each
/// crashed in its one append every way a tear can leave it.  The runtime and shard passes then run again under
/// [`tiny_leveled_policy`], on a bounded sample (`LEVELED_SAMPLES`).
pub fn run_full(
    seed: u64,
    store_limit: Option<usize>,
    runtime_samples: usize,
    recovery_samples: usize,
    shard_samples: usize,
) -> TortureReport {
    let setup = real_setup();
    let leveled = Some(tiny_leveled_policy());
    let (runtime_max, recovery_max, shard_max) = LEVELED_SAMPLES;
    TortureReport {
        seed,
        store: run_store_torture(seed, store_limit),
        store_tiered: run_store_torture_tiered(seed, store_limit),
        store_leveled: run_store_torture_leveled(seed, store_limit),
        runtime: run_runtime_torture(&setup, seed, runtime_samples, recovery_samples, None),
        runtime_leveled: run_runtime_torture(
            &setup,
            seed,
            runtime_samples.min(runtime_max),
            recovery_samples.min(recovery_max),
            leveled,
        ),
        shard: run_shard_torture(seed, shard_samples, None),
        shard_leveled: run_shard_torture(seed, shard_samples.min(shard_max), leveled),
    }
}
