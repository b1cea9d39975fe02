//! **Sharded navigator benchmark** — throughput of the shard-parallel
//! engine across shard counts on one identical workload.
//!
//! The workload is a two-task chain per root instance (`A -> B` with a
//! task-to-task dataflow), submitted up front, then driven to completion
//! by [`ShardEngine::run_to_completion`].  Node capacity is sized so the
//! dispatcher never throttles: every config executes the same rounds and
//! the same inline activity work, and the only variable is how many
//! stepper threads carry it.
//!
//! For each shard count in `{1, 2, 4, 8}` the bench reports wall time,
//! instances/second and task-grants/second, plus the history digest —
//! which must be bit-identical across every config (the determinism
//! contract), so the bench doubles as a large-scale replay check and
//! fails loudly on divergence.
//!
//! Full mode drives 100_000 concurrent instances; `SHARD_BENCH_SMOKE=1`
//! shrinks that for CI.  On hosts with at least 4 available cores the
//! smoke mode also enforces a modest speedup floor at 4 shards; on
//! smaller hosts (including 1-core CI runners) the floor is skipped and
//! the honest core count is recorded in `results/BENCH_shard.json`.
//!
//! [`ShardEngine::run_to_completion`]: bioopera_core::ShardEngine::run_to_completion

use bioopera_bench::write_results;
use bioopera_core::{Driver, ShardConfig, ShardEngine};
use bioopera_store::{MemDisk, Store};
use bioopera_workloads::toys::{chain_template, library, toy};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ConfigResult {
    shards: usize,
    threads: usize,
    instances: u64,
    rounds: u64,
    grants: u64,
    wall_ms: f64,
    instances_per_sec: f64,
    grants_per_sec: f64,
    speedup_vs_serial: f64,
}

#[derive(Serialize)]
struct ShardBenchReport {
    /// Available cores on the measuring host.  Speedup numbers are only
    /// meaningful when this is >= the shard count; a 1-core host runs
    /// every config serially and records that fact here instead of a
    /// fabricated scaling curve.
    cores: usize,
    smoke: bool,
    instances: u64,
    history_digest_hex: String,
    configs: Vec<ConfigResult>,
}

/// Drive `instances` chains on `shards` shards; returns (wall seconds,
/// rounds, grants, history digest, awareness counts by kind).
fn run_config(shards: usize, instances: u64) -> (f64, u64, u64, u64, Vec<(String, usize)>) {
    let store = Store::open(MemDisk::new()).unwrap();
    let cfg = ShardConfig {
        shards,
        threads: shards,
        nodes: 4,
        // Never throttle on slots: identical rounds at every shard count.
        node_capacity: instances as usize,
        ..ShardConfig::default()
    };
    let mut eng = ShardEngine::new(store, library(), cfg).expect("engine");
    eng.register_template(chain_template()).unwrap();
    for i in 0..instances {
        let (name, initial) = toy(0, i as i64 % 101);
        eng.submit(name, initial).unwrap();
    }
    let t0 = Instant::now();
    let outcome = eng.run_to_completion().unwrap();
    let wall = t0.elapsed().as_secs_f64();
    assert!(outcome.is_completed(), "no chain may end up suspended");
    let stats = eng.stats();
    assert_eq!(stats.completed, instances, "all chains must complete");
    let counts = eng.awareness().index().counts_by_kind();
    (
        wall,
        stats.rounds,
        stats.grants,
        eng.history_digest(),
        counts,
    )
}

fn main() {
    let smoke = std::env::var("SHARD_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let instances: u64 = if smoke { 5_000 } else { 100_000 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut configs = Vec::new();
    let mut serial_wall = 0.0f64;
    let mut digest: Option<u64> = None;
    let mut awareness_counts: Option<Vec<(String, usize)>> = None;
    for &shards in &[1usize, 2, 4, 8] {
        let (wall, rounds, grants, d, counts) = run_config(shards, instances);
        match digest {
            None => digest = Some(d),
            Some(base) => assert_eq!(
                d, base,
                "history digest diverged at {shards} shards — determinism broken"
            ),
        }
        match &awareness_counts {
            None => awareness_counts = Some(counts),
            Some(base) => assert_eq!(
                &counts, base,
                "awareness index diverged at {shards} shards — barrier feed broken"
            ),
        }
        if shards == 1 {
            serial_wall = wall;
        }
        let cfg = ConfigResult {
            shards,
            threads: shards,
            instances,
            rounds,
            grants,
            wall_ms: wall * 1e3,
            instances_per_sec: instances as f64 / wall,
            grants_per_sec: grants as f64 / wall,
            speedup_vs_serial: serial_wall / wall,
        };
        println!(
            "shards={:<2} threads={:<2} rounds={:<3} grants={:<8} wall={:>8.1}ms  {:>10.0} inst/s  speedup {:.2}x",
            cfg.shards,
            cfg.threads,
            cfg.rounds,
            cfg.grants,
            cfg.wall_ms,
            cfg.instances_per_sec,
            cfg.speedup_vs_serial,
        );
        configs.push(cfg);
    }

    let report = ShardBenchReport {
        cores,
        smoke,
        instances,
        history_digest_hex: format!("{:016x}", digest.unwrap_or(0)),
        configs,
    };
    write_results("BENCH_shard.json", &serde_json::to_string(&report).unwrap());

    let at4 = report
        .configs
        .iter()
        .find(|c| c.shards == 4)
        .map(|c| c.speedup_vs_serial)
        .unwrap_or(0.0);
    if cores >= 4 {
        let floor = if smoke { 1.5 } else { 2.0 };
        if at4 < floor {
            eprintln!("FAIL: {at4:.2}x at 4 shards on a {cores}-core host (floor {floor:.1}x)");
            std::process::exit(1);
        }
        println!("speedup gate: {at4:.2}x at 4 shards (floor passed, {cores} cores)");
    } else {
        println!(
            "speedup gate: skipped — only {cores} core(s) available; measured {at4:.2}x at 4 shards"
        );
    }
}
