//! Engine-level crash-point torture: a small all-vs-all run through the
//! real [`Runtime`], as a workload of the crash enumerator
//! ([`crate::enumerate`]).
//!
//! The run boots a runtime on the disk, registers the templates, submits
//! the all-vs-all unless the rebuilt state already holds it, and drives it
//! to completion; equal to the oracle means the same status, digest and
//! match count.  Its crash points are every disk mutation of the
//! crash-free run: template registration, one append per commit — a
//! step's, a public call's, a recovery's: a batch per dirty instance, then
//! the configuration and history batches, so a tear keeps some instances'
//! records and not others' — and the WAL rolls' run, manifest and delete.
//! After each crash a brand-new `Runtime` must rebuild from the surviving
//! bytes and finish with results **byte-identical** to the oracle — the
//! paper's §3.4 "avoid inconsistencies in the output data after
//! failures".  Every boot and every finished run is also held to the
//! shard torture's **history invariant**: the runtime's digest is a refold
//! of the `sev/` stream, and its awareness index — live, and reopened from
//! the summary — is an index of that stream.  The store policy is the
//! caller's (`RuntimeConfig::tiered`): under a tiered one the crash points
//! include every spill, merge and push-down of the run.
//!
//! [`Runtime`]: bioopera_core::Runtime

use crate::enumerate::{self, Outcome, Plan, Recorder, Ways};
use crate::shard_torture::check_history;
use bioopera_cluster::{Cluster, NodeSpec, SimTime};
use bioopera_core::{Driver, InstanceStatus, Runtime, RuntimeConfig};
use bioopera_darwin::{DatasetConfig, PamFamily, SequenceDb};
use bioopera_ocr::value::Value;
use bioopera_store::{Disk, TieredPolicy};
use bioopera_workloads::{AllVsAllConfig, AllVsAllSetup};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn cluster() -> Cluster {
    Cluster::new(
        "torture",
        (0..3)
            .map(|i| NodeSpec::new(format!("n{i}"), 2, 500, "linux"))
            .collect(),
    )
}

fn cfg(tiered: Option<TieredPolicy>) -> RuntimeConfig {
    RuntimeConfig {
        heartbeat: SimTime::from_secs(20),
        // Small enough that the WAL rolls mid-run, putting the spill's
        // run/manifest/delete sequence inside the crash enumeration.
        compact_wal_bytes: 6 * 1024,
        tiered,
        ..Default::default()
    }
}

/// The harness' standard set-up: real alignments of 16 sequences in 3
/// TEUs (the `torture` binary and `scripts/check.sh` enumerate it fully).
pub fn real_setup() -> AllVsAllSetup {
    let pam = Arc::new(PamFamily::default());
    let db = Arc::new(SequenceDb::generate(&DatasetConfig::small(16, 53), &pam));
    AllVsAllSetup::real(
        db,
        pam,
        AllVsAllConfig {
            teus: 3,
            ..Default::default()
        },
    )
}

type RunResult = (InstanceStatus, Value, Value);

/// Bring up a runtime over `disk` and drive the all-vs-all to completion.
/// On a fresh disk this submits the instance; on a recovered disk it
/// resumes whatever the rebuilt state contains (re-registering templates
/// is an idempotent put, and re-submitting only happens when the crash
/// predated the instance header reaching the store).
fn drive<D: Disk + Clone>(
    disk: &D,
    s: &AllVsAllSetup,
    tiered: Option<TieredPolicy>,
) -> Result<RunResult, String> {
    fn fail<E: std::fmt::Display>(stage: &'static str) -> impl Fn(E) -> String {
        move |e| format!("{stage}: {e}")
    }
    let mut rt = Runtime::new(disk.clone(), cluster(), s.library.clone(), cfg(tiered))
        .map_err(fail("boot"))?;
    check_history(&rt).map_err(fail("after recovery"))?;
    rt.register_template(&s.chunk_template)
        .map_err(fail("register chunk template"))?;
    rt.register_template(&s.template)
        .map_err(fail("register template"))?;
    let id = match rt
        .instances()
        .into_iter()
        .find(|(_, _, template)| template == "AllVsAll")
        .map(|(id, _, _)| id)
    {
        Some(id) => id,
        None => rt.submit("AllVsAll", s.initial()).map_err(fail("submit"))?,
    };
    rt.run_to_completion().map_err(fail("run"))?;
    check_history(&rt).map_err(fail("at the end"))?;
    let status = rt
        .instance_status(id)
        .ok_or("instance vanished after run")?;
    let wb = rt.whiteboard(id).ok_or("whiteboard vanished after run")?;
    let digest = wb.get("digest").cloned().ok_or("no digest on whiteboard")?;
    let count = wb
        .get("match_count")
        .cloned()
        .ok_or("no match_count on whiteboard")?;
    Ok((status, digest, count))
}

/// Runtime torture pass over the all-vs-all set-up `s` on stores tiered
/// by `tiered`: every disk mutation of the crash-free run, each crashed
/// every way [`enumerate::crash_effects`] names, when `samples` reaches
/// their number (`usize::MAX` = always), otherwise `samples` seeded points
/// with one seeded effect each; plus `recovery_samples` double crashes,
/// spread over the points.  All randomness derives from `seed`.
pub fn run_runtime_torture(
    s: &AllVsAllSetup,
    seed: u64,
    samples: usize,
    recovery_samples: usize,
    tiered: Option<TieredPolicy>,
) -> Outcome {
    let policy = if tiered.is_some() {
        "tiered"
    } else {
        "untiered"
    };
    let tag = format!("HARNESS_SEED={seed} {policy} runtime");
    let run = |disk: &Recorder, _: &mut usize| drive(disk, s, tiered);
    let mut out = Outcome::default();
    let Some(oracle) = enumerate::record(&mut out, &tag, run) else {
        return out;
    };
    if oracle.outcome.0 != InstanceStatus::Completed {
        let status = oracle.outcome.0;
        out.violations
            .push(format!("{tag} oracle: the crash-free run ended {status:?}"));
        return out;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_D1D1_1D1D);
    // A sample crashes each of its points one seeded way.
    let plan = Plan {
        sample: Some(samples),
        ways: if samples < oracle.window().len() {
            Ways::One
        } else {
            Ways::Every
        },
        doubles: recovery_samples,
    };
    enumerate::sweep(&mut out, &mut rng, &tag, &oracle, plan, run);
    out
}
