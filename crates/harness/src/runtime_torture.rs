//! Engine-level crash-point torture: a small all-vs-all run through the
//! real [`Runtime`] on a fault-injected [`MemDisk`].
//!
//! The crash-free run yields the oracle digest/match count and every disk
//! mutation the whole execution performs (template registration, one
//! append per commit — a step's, a public call's, a recovery's — and the
//! WAL rolls), with the bytes each one appended.  Every one of those
//! mutation indices — or, when fewer samples are asked for than there are
//! mutations, a seeded sample of them — is then re-run with a crash
//! injected at exactly that point, cutting the append every way
//! [`append_crash_effects`] names (lost, applied unacknowledged, torn at
//! each frame boundary ±1 and at seeded offsets: a commit's append is a
//! batch per dirty instance, then the configuration and history batches,
//! so a cut keeps some instances' records and not others'); a sampled
//! point takes one of those cuts.  After rebooting the disk, a brand-new
//! `Runtime` must rebuild from the surviving bytes and finish the
//! computation with results **byte-identical** to the oracle — the paper's
//! §3.4 "avoid inconsistencies in the output data after failures", now
//! checked at every disk-level crash point rather than only at simulated
//! node/server fault boundaries.  Every boot (a recovery, after a crash)
//! and every finished run is also held to the shard torture's **history
//! invariant**: the runtime's digest is a refold of the `sev/` stream, and
//! its awareness index — live, and reopened from the summary — is an index
//! of that stream.  The store policy is the caller's
//! (`RuntimeConfig::tiered`): under a tiered one the enumerated mutations
//! include every spill, merge and push-down of the run.
//!
//! [`Runtime`]: bioopera_core::Runtime
//! [`MemDisk`]: bioopera_store::MemDisk

use crate::append_crash_effects;
use crate::shard_torture::check_history;
use bioopera_cluster::{Cluster, NodeSpec, SimTime};
use bioopera_core::{InstanceStatus, Runtime, RuntimeConfig};
use bioopera_darwin::{DatasetConfig, PamFamily, SequenceDb};
use bioopera_ocr::value::Value;
use bioopera_store::{CrashEffect, Disk, FaultPlan, MemDisk, StoreResult, TieredPolicy};
use bioopera_workloads::{AllVsAllConfig, AllVsAllSetup};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Outcome of the runtime torture pass.
pub struct RuntimeTortureOutcome {
    /// Disk mutations of the crash-free oracle run.
    pub mutations: u64,
    /// Crash points (mutation indices) crashed.
    pub points: usize,
    /// Single-crash cases executed: every cut of each point's append, or
    /// one per sampled point.
    pub cases: usize,
    /// Crash-during-recovery (double-crash) cases executed.
    pub recovery_cases: usize,
    /// Invariant violations; empty on success.
    pub violations: Vec<String>,
}

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

/// A `MemDisk` that keeps what each of its mutations appended, in order
/// (nothing for a write or a delete): the crash-free run tells each crash
/// point which bytes it tears.
#[derive(Clone, Default)]
struct Recorder {
    disk: MemDisk,
    appended: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Recorder {
    fn log(&self, data: &[u8]) {
        self.appended.lock().expect("recorder").push(data.to_vec());
    }
}

impl Disk for Recorder {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        self.disk.read(name)
    }
    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.log(&[]);
        self.disk.write_atomic(name, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.log(data);
        self.disk.append(name, data)
    }
    fn list(&self) -> StoreResult<Vec<String>> {
        self.disk.list()
    }
    fn delete(&self, name: &str) -> StoreResult<()> {
        self.log(&[]);
        self.disk.delete(name)
    }
    fn read_range(&self, name: &str, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        self.disk.read_range(name, offset, len)
    }
    fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
        self.disk.file_size(name)
    }
}

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
    let check = |rt: &Runtime<D>| check_history(rt.history_digest(), rt.awareness(), rt.store());
    check(&rt).map_err(fail("after recovery"))?;
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
    check(&rt).map_err(fail("at the end"))?;
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

fn compare(got: &RunResult, oracle: &RunResult) -> Result<(), String> {
    if got.0 != InstanceStatus::Completed {
        return Err(format!("resumed run ended {:?}, not Completed", got.0));
    }
    if got.1 != oracle.1 {
        return Err(format!(
            "digest diverged from oracle: {:?} vs {:?}",
            got.1, oracle.1
        ));
    }
    if got.2 != oracle.2 {
        return Err(format!(
            "match count diverged from oracle: {:?} vs {:?}",
            got.2, oracle.2
        ));
    }
    Ok(())
}

/// One crash case: crash the disk at mutation `crash_index`, reboot,
/// recover with a fresh runtime (optionally crashing again at recovery
/// mutation `recovery_crash`) and require oracle-identical completion,
/// durable across one further reopen.
fn runtime_case(
    s: &AllVsAllSetup,
    tiered: Option<TieredPolicy>,
    oracle: &RunResult,
    crash_index: u64,
    effect: CrashEffect,
    recovery_crash: Option<u64>,
) -> Result<(), String> {
    let drive = |disk: &MemDisk| drive(disk, s, tiered);
    let disk = MemDisk::new();
    disk.set_fault_plan(Some(FaultPlan::at_mutation(crash_index, effect)));
    if drive(&disk).is_ok() {
        return Err("fault plan never fired — crash index beyond workload mutations".into());
    }
    if !disk.has_crashed() {
        return Err("run failed without the injected crash firing".into());
    }
    disk.reboot();

    if let Some(r) = recovery_crash {
        disk.set_fault_plan(Some(FaultPlan::at_mutation(r, CrashEffect::Drop)));
        match drive(&disk) {
            // Recovery *and* completion finished before mutation `r`.
            Ok(res) => {
                disk.set_fault_plan(None);
                return compare(&res, oracle);
            }
            Err(e) if !disk.has_crashed() => {
                return Err(format!(
                    "recovery failed without the second crash firing: {e}"
                ))
            }
            Err(_) => disk.reboot(),
        }
    }

    let res = drive(&disk).map_err(|e| format!("recovery failed: {e}"))?;
    compare(&res, oracle)?;

    // Completion must be durable: a further reboot + rebuild finds the
    // instance Completed with the same results.
    let res = drive(&disk).map_err(|e| format!("post-completion reopen failed: {e}"))?;
    compare(&res, oracle)
}

/// Runtime torture pass over the all-vs-all set-up `s` on stores tiered
/// by `tiered`: every disk mutation index of the crash-free run, each cut
/// every way [`append_crash_effects`] names, when `samples` reaches their
/// number (`usize::MAX` = always), otherwise `samples` seeded picks with
/// one seeded cut each; plus `recovery_samples` double-crash
/// (crash-during-recovery) points.  All randomness derives from `seed`.
pub fn run_runtime_torture(
    s: &AllVsAllSetup,
    seed: u64,
    samples: usize,
    recovery_samples: usize,
    tiered: Option<TieredPolicy>,
) -> RuntimeTortureOutcome {
    let mut out = RuntimeTortureOutcome {
        mutations: 0,
        points: 0,
        cases: 0,
        recovery_cases: 0,
        violations: Vec::new(),
    };

    let policy = if tiered.is_some() {
        "tiered"
    } else {
        "untiered"
    };
    // Crash-free oracle run; also records the enumerable crash points.
    let disk = Recorder::default();
    let oracle = match drive(&disk, s, tiered) {
        Ok(res) if res.0 == InstanceStatus::Completed => res,
        Ok(res) => {
            out.violations.push(format!(
                "HARNESS_SEED={seed} {policy} oracle: crash-free run ended {:?}",
                res.0
            ));
            return out;
        }
        Err(e) => {
            out.violations.push(format!(
                "HARNESS_SEED={seed} {policy} oracle: crash-free run failed: {e}"
            ));
            return out;
        }
    };
    let appended = disk.appended.lock().expect("recorder").clone();
    out.mutations = appended.len() as u64;

    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_D1D1_1D1D);
    let full = samples as u64 >= out.mutations;
    let indices: Vec<u64> = if full {
        (0..out.mutations).collect()
    } else {
        // Always cover the first mutations (bootstrap/config writes) and
        // the last one (completion record); fill the rest with seeded
        // picks (duplicates collapse, so a sample never reaches full
        // coverage — that is what the branch above is for).
        let mut picks = vec![0, 1, out.mutations / 2, out.mutations - 1];
        while picks.len() < samples.max(4) {
            picks.push(rng.gen_range(0..out.mutations));
        }
        picks.sort_unstable();
        picks.dedup();
        picks
    };

    for &k in &indices {
        let mut effects = append_crash_effects(&appended[k as usize], &mut rng);
        if !full {
            effects = vec![effects[rng.gen_range(0..effects.len())]];
        }
        out.points += 1;
        for effect in effects {
            out.cases += 1;
            let tag =
                format!("HARNESS_SEED={seed} {policy} runtime crash-index={k} effect={effect:?}");
            run_case(&mut out.violations, tag, || {
                runtime_case(s, tiered, &oracle, k, effect, None)
            });
        }
    }

    for _ in 0..recovery_samples {
        let k = rng.gen_range(0..out.mutations);
        let r = rng.gen_range(0..8u64);
        let effects = append_crash_effects(&appended[k as usize], &mut rng);
        let effect = effects[rng.gen_range(0..effects.len())];
        out.recovery_cases += 1;
        let tag = format!(
            "HARNESS_SEED={seed} {policy} runtime crash-index={k} effect={effect:?} recovery-crash={r}"
        );
        run_case(&mut out.violations, tag, || {
            runtime_case(s, tiered, &oracle, k, effect, Some(r))
        });
    }

    out
}

fn run_case(violations: &mut Vec<String>, tag: String, case: impl FnOnce() -> Result<(), String>) {
    match catch_unwind(AssertUnwindSafe(case)) {
        Ok(Ok(())) => {}
        Ok(Err(msg)) => violations.push(format!("{tag}: {msg}")),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".into());
            violations.push(format!("{tag}: PANICKED: {msg}"));
        }
    }
}
