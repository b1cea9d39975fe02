//! The torture harness as a test suite.  Any failure message embeds the
//! `HARNESS_SEED`/crash-index pair that reproduces it:
//! `HARNESS_SEED=<seed> cargo test -p bioopera-harness`.

use bioopera_harness::{
    real_setup, run_runtime_torture, run_store_torture, run_store_torture_leveled,
    run_store_torture_tiered, seed_from_env, DEFAULT_SEED,
};
use bioopera_workloads::{AllVsAllConfig, AllVsAllSetup};

#[test]
fn store_full_crash_point_enumeration_holds_all_invariants() {
    let seed = seed_from_env(DEFAULT_SEED);
    let out = run_store_torture(seed, None);
    assert!(out.mutations > 25, "workload too small to be interesting");
    assert!(
        out.violations.is_empty(),
        "{} violations (first: {})",
        out.violations.len(),
        out.violations[0]
    );
}

#[test]
fn tiered_store_full_crash_point_enumeration_holds_all_invariants() {
    let seed = seed_from_env(DEFAULT_SEED);
    let tiered = run_store_torture_tiered(seed, None);
    let untiered = run_store_torture(seed, None);
    // The tiny memtable budget must actually pull spill and run-merge disk
    // writes into the trace: the same script costs strictly more mutations
    // than under the untiered engine.
    assert!(
        tiered.mutations > untiered.mutations + 8,
        "tiered probe added no spill/merge mutations ({} vs {})",
        tiered.mutations,
        untiered.mutations
    );
    assert!(
        tiered.violations.is_empty(),
        "{} violations (first: {})",
        tiered.violations.len(),
        tiered.violations[0]
    );
}

#[test]
fn leveled_store_full_crash_point_enumeration_holds_all_invariants() {
    let seed = seed_from_env(DEFAULT_SEED);
    let leveled = run_store_torture_leveled(seed, None);
    let untiered = run_store_torture(seed, None);
    // Squeezed level budgets must pull level-merge commits, run splits and
    // retention advances into the trace on top of the plain WAL writes.
    assert!(
        leveled.mutations > untiered.mutations + 8,
        "leveled probe added no level-merge mutations ({} vs {})",
        leveled.mutations,
        untiered.mutations
    );
    assert!(
        leveled.violations.is_empty(),
        "{} violations (first: {})",
        leveled.violations.len(),
        leveled.violations[0]
    );
}

#[test]
fn leveled_store_enumeration_holds_under_an_alternate_seed() {
    let seed = seed_from_env(DEFAULT_SEED) ^ 0x5EED_CAFE;
    let out = run_store_torture_leveled(seed, Some(10));
    assert!(
        out.violations.is_empty(),
        "{} violations (first: {})",
        out.violations.len(),
        out.violations[0]
    );
}

#[test]
fn tiered_store_enumeration_holds_under_an_alternate_seed() {
    let seed = seed_from_env(DEFAULT_SEED) ^ 0x7E1E_57A7;
    let out = run_store_torture_tiered(seed, Some(10));
    assert!(
        out.violations.is_empty(),
        "{} violations (first: {})",
        out.violations.len(),
        out.violations[0]
    );
}

#[test]
fn store_enumeration_holds_under_an_alternate_seed() {
    // A different seed produces a different script, torn-prefix lengths and
    // flip offsets; a bounded sample keeps the suite fast.
    let seed = seed_from_env(DEFAULT_SEED) ^ 0x00DE_C0DE;
    let out = run_store_torture(seed, Some(10));
    assert!(
        out.violations.is_empty(),
        "{} violations (first: {})",
        out.violations.len(),
        out.violations[0]
    );
}

#[test]
fn runtime_sampled_crash_points_recover_byte_identically() {
    let seed = seed_from_env(DEFAULT_SEED);
    let out = run_runtime_torture(&real_setup(), seed, 6, 2);
    assert!(
        out.mutations > 50,
        "all-vs-all run too small: {} mutations",
        out.mutations
    );
    assert!(
        out.violations.is_empty(),
        "{} violations (first: {})",
        out.violations.len(),
        out.violations[0]
    );
}

/// Every disk mutation of a 3-TEU all-vs-all (cost-model programs, so the
/// whole enumeration runs in seconds) is a crash point here — including
/// the three between a subprocess task's `Dispatched` record and its
/// child's first commit, which a sample of 6 never hit and which wedged
/// the serial runtime until it shared the shard engine's lost-spawn rule.
#[test]
fn runtime_full_crash_point_enumeration_recovers_byte_identically() {
    let seed = seed_from_env(DEFAULT_SEED);
    let config = AllVsAllConfig {
        teus: 3,
        ..Default::default()
    };
    let setup = AllVsAllSetup::synthetic(16, 53, 38, config);
    let out = run_runtime_torture(&setup, seed, usize::MAX, 2);
    assert!(
        out.mutations > 50,
        "all-vs-all run too small: {} mutations",
        out.mutations
    );
    assert_eq!(out.cases as u64, out.mutations, "not a full enumeration");
    assert!(
        out.violations.is_empty(),
        "{} violations (first: {})",
        out.violations.len(),
        out.violations[0]
    );
}
