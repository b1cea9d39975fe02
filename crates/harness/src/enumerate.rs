//! The one crash enumerator every torture pass runs through.
//!
//! A workload is a run: `run(disk, acked)` drives it to its end on a
//! [`Recorder`] — from the start on an empty disk, resumed from whatever a
//! crash left there otherwise — and returns what "equal to the oracle"
//! compares.  `acked` is the workload's own count of acknowledged work,
//! kept across the runs of one case, so a recovery can be held to keep
//! what a crashed run was told is durable.
//!
//! [`record`] runs the workload crash-free on a [`Recorder`], which logs
//! every disk mutation with its kind and bytes; [`sweep`] then crashes the
//! workload at the recorded points, each in the ways [`crash_effects`]
//! names that its [`Plan`] asks for, reboots, optionally crashes again
//! at one of the recovery's own mutations, recovers, compares with the
//! oracle, reopens once more and compares again.  Every case runs inside
//! [`run_case`], whose tag names the seed, the point and the effect that
//! reproduce it.

use bioopera_store::{wal, CrashEffect, Disk, FaultPlan, MemDisk, StoreResult};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// What one disk mutation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Bytes added at the end of a file (a WAL frame or several).
    Append,
    /// A file replaced whole, through a temporary file.
    WriteAtomic,
    /// A file removed.
    Delete,
}

/// One logged disk mutation: its kind and the bytes it wrote.
#[derive(Debug)]
pub struct Mutation {
    /// What the mutation did.
    pub kind: Kind,
    /// The bytes appended or written; empty for a delete.
    pub data: Vec<u8>,
}

#[derive(Default)]
struct Log {
    mutations: Vec<Mutation>,
    window: Option<Range<usize>>,
}

/// A [`MemDisk`] that logs each of its mutations, in order.  Clones share
/// the disk and the log.
#[derive(Clone, Default)]
pub struct Recorder {
    disk: MemDisk,
    log: Arc<Mutex<Log>>,
}

impl Recorder {
    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().expect("recorder log")
    }

    fn push(&self, kind: Kind, data: &[u8]) {
        self.log().mutations.push(Mutation {
            kind,
            data: data.to_vec(),
        });
    }

    /// Run `f`, and narrow the crash points of a recorded run to the
    /// mutations `f` makes.
    pub fn window<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = self.log().mutations.len();
        let out = f();
        let mut log = self.log();
        log.window = Some(start..log.mutations.len());
        out
    }
}

impl Disk for Recorder {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        self.disk.read(name)
    }
    fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.push(Kind::WriteAtomic, data);
        self.disk.write_atomic(name, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.push(Kind::Append, data);
        self.disk.append(name, data)
    }
    fn list(&self) -> StoreResult<Vec<String>> {
        self.disk.list()
    }
    fn delete(&self, name: &str) -> StoreResult<()> {
        self.push(Kind::Delete, &[]);
        self.disk.delete(name)
    }
    fn read_range(&self, name: &str, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        self.disk.read_range(name, offset, len)
    }
    fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
        self.disk.file_size(name)
    }
}

/// Every crash a mutation can suffer.  Any mutation can be lost, or
/// applied with its acknowledgment lost.  An append is also torn at byte
/// 0, byte 1, one byte either side of each WAL frame boundary and at three
/// seeded offsets; a `write_atomic` also leaves its temporary file torn at
/// 0, 1 and three seeded offsets.
pub fn crash_effects(m: &Mutation, rng: &mut StdRng) -> Vec<CrashEffect> {
    let mut effects = vec![CrashEffect::Drop, CrashEffect::AfterApply];
    let len = m.data.len() as u64;
    let mut keeps = vec![0, 1];
    match m.kind {
        Kind::Delete => return effects,
        Kind::WriteAtomic => {}
        Kind::Append => {
            let mut off = 0usize;
            while off + wal::HEADER_LEN <= m.data.len() {
                let payload = &m.data[off + 2..off + 6];
                off +=
                    wal::HEADER_LEN + u32::from_le_bytes(payload.try_into().expect("4")) as usize;
                keeps.extend([off as u64 - 1, off as u64, off as u64 + 1]);
            }
        }
    }
    keeps.extend((0..3).map(|_| rng.gen_range(0..len.max(1))));
    keeps.retain(|k| *k <= len);
    keeps.sort_unstable();
    keeps.dedup();
    effects.extend(keeps.into_iter().map(|keep| CrashEffect::Torn { keep }));
    effects
}

/// The crash points of `window`: all of them (`sample == None`), or a
/// seeded sample of `n` that keeps the first, the middle and the last.
pub fn points(window: Range<usize>, sample: Option<usize>, rng: &mut StdRng) -> Vec<usize> {
    let Some(n) = sample.filter(|n| *n < window.len()) else {
        return window.collect();
    };
    let ends = [
        window.start,
        window.start + window.len() / 2,
        window.end - 1,
    ];
    let mut picked: BTreeSet<usize> = ends.into_iter().take(n).collect();
    while picked.len() < n {
        picked.insert(rng.gen_range(window.clone()));
    }
    picked.into_iter().collect()
}

/// What an enumeration ran and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Disk mutations of the crash-free oracle run (the largest, when a
    /// pass records several).
    pub mutations: u64,
    /// Crash points crashed.
    pub points: usize,
    /// Single crashes: one per effect a point was crashed with.
    pub crashes: usize,
    /// Double crashes: a crash, then another inside the recovery.
    pub doubles: usize,
    /// At-rest bit flips (the store's pass).
    pub bitflips: usize,
    /// Invariant violations, each led by the tag that reproduces it;
    /// empty on success.
    pub violations: Vec<String>,
}

impl Outcome {
    /// One line of counts.
    pub fn summary(&self) -> String {
        format!(
            "{} mutations, {} points crashed {} ways, {} double crashes, {} bit flips",
            self.mutations, self.points, self.crashes, self.doubles, self.bitflips
        )
    }
}

/// A crash-free run: what it returned and every mutation it made.
pub struct Oracle<O> {
    /// What the run returned; every recovery must return the same.
    pub outcome: O,
    log: Vec<Mutation>,
    window: Range<usize>,
}

impl<O> Oracle<O> {
    /// The crash points the run offers: its window's mutations.
    pub fn window(&self) -> Range<usize> {
        self.window.clone()
    }
}

/// Run the workload crash-free on a [`Recorder`]; a failure is a
/// violation tagged `{tag} oracle`.
pub fn record<O>(
    out: &mut Outcome,
    tag: &str,
    run: impl Fn(&Recorder, &mut usize) -> Result<O, String>,
) -> Option<Oracle<O>> {
    let disk = Recorder::default();
    let outcome = run_case(&mut out.violations, format!("{tag} oracle"), || {
        run(&disk, &mut 0)
    })?;
    let log = std::mem::take(&mut *disk.log());
    out.mutations = out.mutations.max(log.mutations.len() as u64);
    Some(Oracle {
        outcome,
        window: log.window.unwrap_or(0..log.mutations.len()),
        log: log.mutations,
    })
}

/// How many ways [`sweep`] crashes each of its points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ways {
    /// Every way [`crash_effects`] names.
    Every,
    /// An append every way; any other mutation — a roll's run, manifest
    /// or delete — one seeded way.
    EveryAppend,
    /// One seeded way.
    One,
}

/// Where and how often [`sweep`] crashes a workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// How many crash points, as [`points`] picks them (`None` = all).
    pub sample: Option<usize>,
    /// How many ways each point is crashed.
    pub ways: Ways,
    /// How many double crashes follow.
    pub doubles: usize,
}

/// Crash the workload at the [`points`] of the oracle's window, each in
/// as many of the ways [`crash_effects`] names as the plan's `ways` says.
/// Then the plan's `doubles` crash again: double `j` takes the `j % n`-th
/// of the `n` points in a seeded order, one seeded way that point was
/// crashed, and crashes again at the recovery's mutation `j / n`, one
/// seeded way of the mutation the recovery made there.  So `3 * n`
/// doubles crash every point's recovery at its first three mutations.
pub fn sweep<O: PartialEq + Debug>(
    out: &mut Outcome,
    rng: &mut StdRng,
    tag: &str,
    oracle: &Oracle<O>,
    plan: Plan,
    run: impl Fn(&Recorder, &mut usize) -> Result<O, String>,
) {
    let Plan {
        sample,
        ways,
        doubles,
    } = plan;
    let points = points(oracle.window(), sample, rng);
    let mut order = points.clone();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let doubles = if points.is_empty() { 0 } else { doubles };
    let mut again = vec![Vec::new(); oracle.log.len()];
    for j in 0..doubles {
        again[order[j % points.len()]].push(j / points.len());
    }
    let depth = doubles.div_ceil(points.len().max(1));
    let seeded =
        |effects: &[CrashEffect], rng: &mut StdRng| effects[rng.gen_range(0..effects.len())];
    for k in points {
        let mutation = &oracle.log[k];
        let mut effects = crash_effects(mutation, rng);
        if ways == Ways::One || (ways == Ways::EveryAppend && mutation.kind != Kind::Append) {
            effects = vec![seeded(&effects, rng)];
        }
        out.points += 1;
        let first = seeded(&effects, rng);
        let mut recovery = Vec::new();
        for effect in effects {
            out.crashes += 1;
            let tag = format!("{tag} crash-index={k} effect={effect:?}");
            let capture = if effect == first { depth } else { 0 };
            let made = run_case(&mut out.violations, tag, || {
                crash_case(&run, &oracle.outcome, (k, effect), None, capture)
            });
            recovery.extend(made.into_iter().flatten());
        }
        for &r in &again[k] {
            let second = recovery
                .get(r)
                .map_or(CrashEffect::Drop, |m| seeded(&crash_effects(m, rng), rng));
            out.doubles += 1;
            let tag = format!(
                "{tag} crash-index={k} effect={first:?} recovery-crash={r} recovery-effect={second:?}"
            );
            run_case(&mut out.violations, tag, || {
                crash_case(&run, &oracle.outcome, (k, first), Some((r, second)), 0)
            });
        }
    }
}

/// One case: crash at `first`, reboot, optionally crash again at `again`
/// (counted from the recovery's start) and reboot, then recover and
/// reopen, each equal to the oracle.  Hands back the first `capture`
/// mutations the recovery made.
fn crash_case<O: PartialEq + Debug>(
    run: &impl Fn(&Recorder, &mut usize) -> Result<O, String>,
    oracle: &O,
    first: (usize, CrashEffect),
    again: Option<(usize, CrashEffect)>,
    capture: usize,
) -> Result<Vec<Mutation>, String> {
    let disk = Recorder::default();
    let mem = &disk.disk;
    let arm = |(at, effect): (usize, CrashEffect)| {
        mem.set_fault_plan(Some(FaultPlan::at_mutation(at as u64, effect)));
    };
    let mut acked = 0;
    arm(first);
    match run(&disk, &mut acked) {
        Ok(_) => return Err("the fault plan never fired".into()),
        Err(e) if !mem.has_crashed() => return Err(format!("failed without the crash: {e}")),
        Err(_) => mem.reboot(),
    }
    let start = disk.log().mutations.len();
    if let Some(again) = again {
        arm(again);
        match run(&disk, &mut acked) {
            // The recovery finished before the second crash point.
            Ok(_) => mem.set_fault_plan(None),
            Err(e) if !mem.has_crashed() => {
                return Err(format!("recovery failed without the second crash: {e}"))
            }
            Err(_) => mem.reboot(),
        }
    }
    let mut check = |stage: &str| {
        let got = run(&disk, &mut acked).map_err(|e| format!("{stage} failed: {e}"))?;
        if got != *oracle {
            return Err(format!(
                "{stage} diverged from the oracle: {got:?}, oracle {oracle:?}"
            ));
        }
        Ok(())
    };
    check("recovery")?;
    let made = {
        let mut log = disk.log();
        let end = log.mutations.len().min(start + capture);
        log.mutations.drain(start..end).collect()
    };
    check("a reopen")?;
    Ok(made)
}

/// Run `case` and hand back its value; an `Err`, or a panic, becomes a
/// violation led by `tag` instead of ending the enumeration.
pub fn run_case<T>(
    violations: &mut Vec<String>,
    tag: String,
    case: impl FnOnce() -> Result<T, String>,
) -> Option<T> {
    let msg = match catch_unwind(AssertUnwindSafe(case)) {
        Ok(Ok(value)) => return Some(value),
        Ok(Err(msg)) => msg,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".into());
            format!("PANICKED: {msg}")
        }
    };
    violations.push(format!("{tag}: {msg}"));
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioopera_store::wal::WalOpRef;
    use bioopera_store::{Batch, Space, Store};
    use rand::SeedableRng;

    /// How the toy's recovery goes wrong, if it does.
    #[derive(Clone, Copy, PartialEq)]
    enum Plant {
        Nothing,
        /// Recovery drops the last batch a crashed run acknowledged.
        LoseLastAcked,
        /// Recovery reports the finished contents without writing them.
        ClaimWithoutWriting,
    }

    /// A small store script: batches `k0` and `k1` group-committed in one
    /// append, a compaction, then batch `k2`; resumed from the first
    /// batch not acknowledged.  Returns the keys the store holds.
    fn toy(plant: Plant) -> impl Fn(&Recorder, &mut usize) -> Result<Vec<String>, String> {
        move |disk, acked| {
            let e = |e: bioopera_store::StoreError| e.to_string();
            let recovering = !disk.list().map_err(e)?.is_empty();
            let mut store = Store::open_with(disk.clone(), None).map_err(e)?;
            let put = |i: usize| {
                let mut b = Batch::new();
                b.put(Space::Instance, format!("k{i}"), b"v".to_vec());
                b
            };
            if recovering && *acked > 0 && plant == Plant::LoseLastAcked {
                let mut b = Batch::new();
                b.delete(Space::Instance, format!("k{}", *acked - 1));
                store.apply(b).map_err(e)?;
            }
            if recovering && *acked < 3 && plant == Plant::ClaimWithoutWriting {
                *acked = 3;
                return Ok((0..3).map(|i| format!("k{i}")).collect());
            }
            if *acked < 2 {
                store.apply_many([put(0), put(1)]).map_err(e)?;
                *acked = 2;
            }
            store.compact().map_err(e)?;
            if *acked < 3 {
                store.apply(put(2)).map_err(e)?;
                *acked = 3;
            }
            let keys = store.scan_prefix(Space::Instance, "").map_err(e)?;
            Ok(keys.into_iter().map(|(k, _)| k).collect())
        }
    }

    fn sweep_toy(plant: Plant, doubles: usize) -> Outcome {
        let mut out = Outcome::default();
        let mut rng = StdRng::seed_from_u64(7);
        let oracle = record(&mut out, "toy", toy(plant)).expect("a clean oracle");
        let plan = Plan {
            sample: None,
            ways: Ways::Every,
            doubles,
        };
        sweep(&mut out, &mut rng, "toy", &oracle, plan, toy(plant));
        out
    }

    #[test]
    fn the_toy_records_its_points_and_survives_every_crash() {
        let mut out = Outcome::default();
        let oracle = record(&mut out, "toy", toy(Plant::Nothing)).expect("a clean oracle");
        let kinds: Vec<Kind> = oracle.log.iter().map(|m| m.kind).collect();
        use Kind::*;
        assert_eq!(
            kinds,
            [Append, WriteAtomic, WriteAtomic, Delete, Delete, Append]
        );
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(points(oracle.window(), None, &mut rng), [0, 1, 2, 3, 4, 5]);
        assert_eq!(points(oracle.window(), Some(3), &mut rng), [0, 3, 5]);
        assert_eq!(
            points(oracle.window(), Some(9), &mut rng),
            [0, 1, 2, 3, 4, 5]
        );
        assert_eq!(points(10..20, Some(4), &mut rng).len(), 4);

        // Each point's recovery crashed again at its first three mutations.
        let out = sweep_toy(Plant::Nothing, 18);
        assert_eq!(out.points, 6);
        assert_eq!(out.doubles, 18);
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
    }

    #[test]
    fn effects_cover_each_frame_boundary_and_temp_file_tear() {
        let put = |key| WalOpRef::Put {
            space: 0,
            key,
            value: b"value",
        };
        let mut data = Vec::new();
        wal::encode_frame_into(&mut data, [put("a")]);
        let first = data.len() as u64;
        wal::encode_frame_into(&mut data, [put("b"), put("c")]);
        let len = data.len() as u64;
        let seeded = |rng: &StdRng, len: u64| -> Vec<u64> {
            let mut twin = rng.clone();
            (0..3).map(|_| twin.gen_range(0..len)).collect()
        };
        let expect = |mut keeps: Vec<u64>| {
            keeps.sort_unstable();
            keeps.dedup();
            let tears = keeps.into_iter().map(|keep| CrashEffect::Torn { keep });
            [CrashEffect::Drop, CrashEffect::AfterApply]
                .into_iter()
                .chain(tears)
                .collect::<Vec<_>>()
        };
        let mut rng = StdRng::seed_from_u64(11);

        let append = Mutation {
            kind: Kind::Append,
            data,
        };
        let mut keeps = vec![0, 1, first - 1, first, first + 1, len - 1, len];
        keeps.extend(seeded(&rng, len));
        assert_eq!(crash_effects(&append, &mut rng), expect(keeps));

        let write = Mutation {
            kind: Kind::WriteAtomic,
            data: vec![0; 40],
        };
        let mut keeps = vec![0, 1];
        keeps.extend(seeded(&rng, 40));
        assert_eq!(crash_effects(&write, &mut rng), expect(keeps));

        let delete = Mutation {
            kind: Kind::Delete,
            data: Vec::new(),
        };
        assert_eq!(crash_effects(&delete, &mut rng), expect(Vec::new())[..2]);
    }

    #[test]
    fn a_recovery_that_loses_an_acknowledged_batch_is_reported() {
        let out = sweep_toy(Plant::LoseLastAcked, 2);
        assert!(!out.violations.is_empty());
        for v in &out.violations {
            assert!(v.starts_with("toy crash-index="), "{v}");
            assert!(v.contains("effect="), "{v}");
        }
        assert!(
            out.violations
                .iter()
                .any(|v| v.contains("recovery diverged")),
            "{:#?}",
            out.violations
        );
    }

    #[test]
    fn a_recovery_that_is_not_durable_is_caught_at_the_reopen() {
        let out = sweep_toy(Plant::ClaimWithoutWriting, 0);
        assert!(!out.violations.is_empty());
        for v in &out.violations {
            assert!(v.contains("a reopen diverged"), "{v}");
        }
    }
}
