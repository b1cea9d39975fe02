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
//! and database torture tests, in one loop ([`enumerate`]):
//!
//! 1. run a workload **crash-free** on a [`enumerate::Recorder`], which
//!    logs every disk mutation (`append`, `write_atomic`, `delete`) with
//!    its bytes;
//! 2. turn each mutation into its crashes ([`enumerate::crash_effects`]):
//!    lost, applied with the acknowledgment lost, an append torn at 0, 1,
//!    each WAL frame boundary ±1 and seeded offsets, a `write_atomic`'s
//!    temporary file torn at 0, 1 and seeded offsets;
//! 3. for each point — all of them, or a seeded sample keeping the first,
//!    middle and last — crash there in the ways the workload's plan asks
//!    for, reboot, optionally crash again at one of the recovery's own
//!    mutations, then recover, compare with the oracle, reopen and compare
//!    again.
//!
//! Three workloads plug into it, each keeping only how to run or resume
//! itself on a disk and what "equal to the oracle" means:
//! [`store_torture`] (a scripted batch workload held to a whole-batch
//! prefix model, plus at-rest bit flips), [`runtime_torture`] (a real
//! all-vs-all through the `Runtime`: digest and match count) and
//! [`shard_torture`] (a sampled round of the sharded engine: every root's
//! status and whiteboard, the history invariant, what recovery rewrote).
//!
//! Everything is derived from a single `HARNESS_SEED`, printed together
//! with the crash index and effect in every violation message, so any
//! failure reproduces with `HARNESS_SEED=<seed> cargo test -p
//! bioopera-harness`.

pub mod enumerate;
pub mod runtime_torture;
pub mod shard_torture;
pub mod store_torture;

pub use enumerate::Outcome;
pub use runtime_torture::{real_setup, run_runtime_torture};
pub use shard_torture::run_shard_torture;
pub use store_torture::{
    run_store_torture, run_store_torture_leveled, run_store_torture_tiered, tiny_leveled_policy,
    tiny_tiered_policy,
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

/// Combined outcome of every torture pass.
pub struct TortureReport {
    /// The seed every schedule was derived from.
    pub seed: u64,
    /// Store-workload enumeration outcome with no memtable budget (the
    /// script's compactions are its only spills).
    pub store: Outcome,
    /// Store-workload enumeration outcome under a tiny tiered policy, so
    /// crash points inside memtable spills and run merge compactions are
    /// part of the enumeration.
    pub store_tiered: Outcome,
    /// Store-workload enumeration outcome under a tiny *leveled* policy:
    /// level-merge commits, multi-run splits, retention-watermark advances
    /// and input-run GC all become enumerated crash points.
    pub store_leveled: Outcome,
    /// Runtime all-vs-all outcome.
    pub runtime: Outcome,
    /// A bounded sample of the runtime pass over stores under
    /// [`tiny_leveled_policy`]: crash points inside the spills, merges and
    /// push-downs of a running engine.
    pub runtime_leveled: Outcome,
    /// Sharded-navigator crash-inside-a-round outcome.
    pub shard: Outcome,
    /// A bounded sample of the shard pass under [`tiny_leveled_policy`].
    pub shard_leveled: Outcome,
}

/// At most this many runtime crash points, runtime double-crash points and
/// sampled shard rounds [`run_full`] runs under
/// [`tiny_leveled_policy`].
const LEVELED_SAMPLES: (usize, usize, usize) = (4, 1, 8);

impl TortureReport {
    fn passes(&self) -> [(&str, &Outcome); 7] {
        [
            ("store", &self.store),
            ("tiered", &self.store_tiered),
            ("leveled", &self.store_leveled),
            ("runtime", &self.runtime),
            ("runtime, leveled", &self.runtime_leveled),
            ("shard", &self.shard),
            ("shard, leveled", &self.shard_leveled),
        ]
    }

    /// Every invariant violation found, store first.
    pub fn violations(&self) -> Vec<&str> {
        self.passes()
            .into_iter()
            .flat_map(|(_, o)| o.violations.iter().map(String::as_str))
            .collect()
    }

    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations().is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let mut out = format!("torture harness HARNESS_SEED={}\n", self.seed);
        for (name, o) in self.passes() {
            out += &format!("  {:<18}{}\n", format!("{name}:"), o.summary());
        }
        out + &format!("  violations: {}", self.violations().len())
    }
}

/// Run every torture pass.
///
/// `store_limit` bounds the number of store crash points (`None` = full
/// enumeration); `runtime_samples` bounds the runtime crash points of the
/// real 3-TEU all-vs-all (`usize::MAX` = every one, each crashed every way
/// [`enumerate::crash_effects`] names, a few seconds in release; a sample
/// crashes each point one seeded way) and `recovery_samples` its double
/// crashes; `shard_samples` bounds the sampled rounds of the sharded
/// engine, every mutation of each crashed — an append every way, a
/// tiered roll's other writes one seeded way each.  The runtime and shard
/// passes then run again under [`tiny_leveled_policy`], on a bounded
/// sample (`LEVELED_SAMPLES`).
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
