//! Recovery writes what the crash undid, and nothing else.
//!
//! The in-doubt rule ([`bioopera_core::instance::Instance::resolve_in_doubt`])
//! leaves most records it decides as the journal holds them: a task that
//! sat queued through the crash is still `Ready`, still stamped.  Every
//! driver re-queues every decided record but writes back only the ones the
//! rule changed — a rewound grant or spawn, a stamp it had to add — and
//! the subprocess records a re-spawn stamps.  Each scenario, written once
//! against `Driver`, crashes a run of chains, fans and subprocess parents
//! (by dropping the driver), recovers it (by building a new one) through a
//! disk that keeps every batch appended to the log, and holds the appended
//! Instance-space records to the journal as it was before the recovery:
//!
//! * no appended record equals its stored copy;
//! * every record recovery changed in memory was appended;
//! * what recovery finds in doubt is what the journal holds in doubt,
//!   counted from the stored records alone;
//! * a second recovery straight after the first appends nothing but the
//!   re-spawns of the first's spawns, which died with it again;
//! * a recovery redone after a crash inside its own append does not
//!   append again the re-spawns that append kept.
//!
//! Where the drivers differ — which work a crash between steps leaves in
//! doubt, whether recovery re-spawns a lost spawn itself — is [`Redrive`].

mod common;

use bioopera_core::shard::ShardEngine;
use bioopera_core::state::TaskState;
use bioopera_core::{
    ActivityLibrary, Driver, EngineResult, InstanceHeader, InstanceId, RecoveryReport, Runtime,
    TaskRecord,
};
use bioopera_store::wal::WalOp;
use bioopera_store::{Disk, MemDisk, Space, Store, TieredPolicy};
use bioopera_workloads::toys;
use common::wal_log::WalLog;
use std::collections::{BTreeMap, BTreeSet};

/// Where the drivers differ.  A `ShardEngine` step is a bulk-synchronous
/// round: it answers every grant it makes and stamps spawns whose children
/// the next round starts, so a crash between rounds leaves only spawns in
/// doubt, and its recovery re-spawns them at once, restamping them
/// `Dispatched`.  A `Runtime` step leaves grants on the nodes and stores a
/// child with its stamp; its recovery rewinds a lost spawn to `Ready` for
/// the next step to re-spawn.
trait Redrive {
    const ROUNDS: bool;
}

impl<D: Disk + Clone> Redrive for Runtime<D> {
    const ROUNDS: bool = false;
}

impl<D: Disk> Redrive for ShardEngine<D> {
    const ROUNDS: bool = true;
}

/// One put: its key and its value.
type Put = (String, Vec<u8>);

/// The Instance-space puts `disk` logged since the last call, in order,
/// by [`common::unsharded`] key.
fn puts(disk: &WalLog) -> Vec<Put> {
    let ops = disk.take().into_iter().flatten();
    let puts = ops.filter_map(|op| match op {
        WalOp::Put { space, key, value } if Space::from_u8(space).ok() == Some(Space::Instance) => {
            Some((common::unsharded(key), value.to_vec()))
        }
        _ => None,
    });
    puts.collect()
}

fn decode(bytes: &[u8]) -> TaskRecord {
    serde_json::from_slice(bytes).unwrap()
}

/// How many records of `journal` are in doubt, counted from the stored
/// records alone: the `Dispatched` records of live instances, less the
/// containers something still drives — a parallel parent (it has child
/// records) and a subprocess task whose child instance is stored.
fn in_doubt(journal: &BTreeMap<String, Vec<u8>>) -> u64 {
    let mut live = BTreeSet::new();
    let mut driven = BTreeSet::new();
    let mut dispatched = Vec::new();
    for (key, bytes) in journal {
        let Some((id, record)) = key.strip_prefix("inst/").and_then(|k| k.split_once('/')) else {
            continue;
        };
        let id: InstanceId = id.parse().unwrap();
        if record == "header" {
            let header: InstanceHeader = serde_json::from_slice(bytes).unwrap();
            if !header.status.is_terminal() {
                live.insert(id);
            }
            driven.extend(header.parent);
        } else if let Some(path) = record.strip_prefix("task/") {
            if let Some((parent, _)) = path.split_once('[') {
                driven.insert((id, parent.to_string()));
            }
            if decode(bytes).state == TaskState::Dispatched {
                dispatched.push((id, path.to_string()));
            }
        }
    }
    let doubted = dispatched
        .into_iter()
        .filter(|task| live.contains(&task.0) && !driven.contains(task));
    doubted.count() as u64
}

/// Hold one recovery's appended task records to the journal before it
/// (`before`) and to the records in memory after it (`memory`, by key):
/// nothing appended equals its stored copy, and everything that differs
/// from its stored copy was appended, as it is in memory.  Returns how
/// many records were appended.
fn check_writes(
    at: &str,
    before: &BTreeMap<String, Vec<u8>>,
    memory: &BTreeMap<String, &TaskRecord>,
    appended: &[Put],
) -> usize {
    let mut written: BTreeMap<&str, &Vec<u8>> = BTreeMap::new();
    for (key, value) in appended {
        assert!(key.contains("/task/"), "{at}: recovery wrote {key}");
        assert_ne!(
            before.get(key),
            Some(value),
            "{at}: {key} was written back as the journal held it"
        );
        assert!(
            written.insert(key, value).is_none(),
            "{at}: {key} written twice"
        );
    }
    for (key, rec) in memory {
        let stored = before.get(key).map(|b| decode(b));
        if stored.as_ref() != Some(*rec) {
            let got = written.get(key.as_str()).map(|b| decode(b));
            assert_eq!(got.as_ref(), Some(*rec), "{at}: {key} changed, not written");
        }
    }
    written.len()
}

/// Recover the driver `disk` holds and check what the recovery found in
/// doubt and appended.
fn recover<E: Driver>(
    disk: &WalLog,
    policy: Option<TieredPolicy>,
    build: &impl Fn(WalLog, ActivityLibrary) -> EngineResult<E>,
    at: &str,
) -> (E, RecoveryReport) {
    let before = common::journal(&Store::open_with(disk.clone(), policy).unwrap());
    disk.take();
    let eng = build(disk.clone(), common::library()).unwrap();
    let report = eng.recovery_report();
    let written = check_writes(at, &before, &common::records(&eng), &puts(disk));
    assert_eq!(written as u64, report.rewritten, "{at}: {report:?}");
    assert_eq!(
        report.lost_grant + report.lost_spawn,
        in_doubt(&before),
        "{at}: what the journal held in doubt: {report:?}"
    );
    (eng, report)
}

/// The workload: four each of chains, fans and subprocess parents.
fn start<E: Driver>(
    build: &impl Fn(WalLog, ActivityLibrary) -> EngineResult<E>,
    disk: &WalLog,
) -> E {
    let workload: Vec<(usize, i64)> = (0..12).map(|i| (i % 3, i as i64)).collect();
    let mut eng = build(disk.clone(), common::library()).unwrap();
    for t in toys::templates() {
        eng.register_template(&t).unwrap();
    }
    common::submit_workload(&mut eng, &workload);
    eng
}

/// Steps the workload takes to its end.
fn steps<E: Driver>(build: &impl Fn(WalLog, ActivityLibrary) -> EngineResult<E>) -> usize {
    let mut eng = start(build, &WalLog::default());
    let mut steps = 0;
    while eng.step().unwrap() {
        steps += 1;
    }
    steps
}

/// Crash the workload after every step — between steps, or `inside` the
/// next one at each frame boundary of its append — recover twice, and run
/// the result to the end.  Returns the reports of the first recoveries.
fn crash_every_step<E: Driver + Redrive>(
    policy: Option<TieredPolicy>,
    build: impl Fn(WalLog, ActivityLibrary) -> EngineResult<E>,
    inside: bool,
) -> Vec<RecoveryReport> {
    let mut reports = Vec::new();
    for crash in 0..steps(&build) {
        let run = |disk: &WalLog| {
            let mut eng = start(&build, disk);
            for _ in 0..crash {
                eng.step().unwrap();
            }
            eng
        };
        let recover_twice = |disk: &WalLog, at: &str| {
            let (eng, first) = recover(disk, policy, &build, &format!("{at}, first recovery"));
            drop(eng);
            let (mut eng, second) =
                recover(disk, policy, &build, &format!("{at}, second recovery"));
            // The first recovery's re-spawns died with it: the second
            // re-spawns them again, and writes nothing else.  A driver that
            // rewinds a lost spawn instead leaves the second nothing.
            let respawned = if E::ROUNDS { first.lost_spawn } else { 0 };
            assert_eq!(second.lost_grant, 0, "{at}: {second:?}");
            assert_eq!(second.lost_spawn, respawned, "{at}: {second:?}");
            assert_eq!(second.rewritten, respawned, "{at}: {second:?}");
            assert!(eng.run_to_completion().unwrap().is_completed(), "{at}");
            first
        };
        let at = format!("crash at step {crash}");
        if inside {
            let crash_inside = |mem: &MemDisk, plan| {
                let disk = WalLog::on(mem.clone());
                let mut eng = run(&disk);
                mem.set_fault_plan(Some(plan));
                // The next step that appends anything crashes.
                while let Ok(more) = eng.step() {
                    assert!(more, "the run ended before the armed append");
                }
                disk
            };
            reports.extend(common::tears::tear_at_each_frame(
                crash_inside,
                |_, disk, kept| recover_twice(&disk, &format!("{at}, {kept} bytes kept")),
            ));
        } else {
            let disk = WalLog::default();
            drop(run(&disk));
            reports.push(recover_twice(&disk, &at));
        }
    }
    reports
}

fn a_crash_between_steps_writes_only_what_it_undid<E: Driver + Redrive>(
    policy: Option<TieredPolicy>,
    build: impl Fn(WalLog, ActivityLibrary) -> EngineResult<E>,
) {
    let reports = crash_every_step(policy, build, false);
    let queued: u64 = reports.iter().map(|r| r.requeue).sum();
    assert!(queued > 0, "{reports:?}");
    let granted = reports.iter().any(|r| r.lost_grant > 0);
    let spawned = reports.iter().any(|r| r.lost_spawn > 0);
    assert_eq!((granted, spawned), (!E::ROUNDS, E::ROUNDS), "{reports:?}");
    // Between steps what is rewritten is the rewound grants and the
    // re-spawns, and nothing else.
    for r in &reports {
        assert_eq!(r.rewritten, r.lost_grant + r.lost_spawn, "{r:?}");
    }
}

fn a_crash_inside_a_step_writes_only_what_it_undid<E: Driver + Redrive>(
    policy: Option<TieredPolicy>,
    build: impl Fn(WalLog, ActivityLibrary) -> EngineResult<E>,
) {
    let reports = crash_every_step(policy, build, true);
    assert!(reports.iter().any(|r| r.lost_spawn > 0), "{reports:?}");
    for r in &reports {
        assert_eq!(r.rewritten, r.lost_grant + r.lost_spawn, "{r:?}");
    }
}

/// A recovery that dies inside its own append, cut at each of its frame
/// boundaries, is redone: the rewinds and re-spawns a kept prefix already
/// stored are not written again.  A kept rewind leaves its record `Ready`,
/// no longer in doubt; a kept re-spawn's stamp leaves it `Dispatched`, in
/// doubt again, and not rewritten.
fn a_recovery_torn_in_its_own_append_rewrites_nothing_it_kept<E: Driver + Redrive>(
    policy: Option<TieredPolicy>,
    build: impl Fn(WalLog, ActivityLibrary) -> EngineResult<E>,
) {
    let (mut grants, mut spawns) = (0, 0);
    for crash in 0..4 {
        let crash_in_recovery = |mem: &MemDisk, plan| {
            let disk = WalLog::on(mem.clone());
            let mut eng = start(&build, &disk);
            for _ in 0..crash {
                eng.step().unwrap();
            }
            drop(eng);
            mem.set_fault_plan(Some(plan));
            let recovered = build(disk.clone(), common::library());
            assert!(recovered.is_err(), "the recovery's append never crashed");
            disk
        };
        let reports = common::tears::tear_at_each_frame(crash_in_recovery, |_, disk, kept| {
            let at = format!("crash at step {crash}, its recovery cut at {kept} bytes");
            recover(&disk, policy, &build, &at).1
        });
        for r in &reports {
            if E::ROUNDS {
                assert!(r.rewritten <= r.lost_grant + r.lost_spawn, "{r:?}");
            } else {
                assert_eq!(r.rewritten, r.lost_grant + r.lost_spawn, "{r:?}");
            }
            grants += r.lost_grant;
            spawns += r.lost_spawn;
        }
    }
    if E::ROUNDS {
        assert!(spawns > 0, "no recovery re-spawned");
    } else {
        assert!(grants > 0, "no recovery rewound a grant");
    }
}

common::on_each_driver!(
    a_crash_between_steps_writes_only_what_it_undid,
    a_crash_inside_a_step_writes_only_what_it_undid,
    a_recovery_torn_in_its_own_append_rewrites_nothing_it_kept,
);
