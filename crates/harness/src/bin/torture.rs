//! Crash-point torture harness CLI.
//!
//! ```text
//! torture [--seed N] [--store-limit N] [--runtime-samples N] [--recovery-samples N] [--shard-samples N]
//! ```
//!
//! Every pass runs through the one crash enumerator.  Defaults: every
//! store crash point, every runtime crash point (`--runtime-samples N`
//! samples instead, one seeded effect a point), 3 runtime double crashes,
//! 12 sampled shard rounds (every mutation of each crashed every way),
//! then a bounded sample of the runtime and shard passes again over stores
//! under the tiny leveled policy, where a roll's run, manifest and delete
//! writes are crashed one seeded way each; seed from `HARNESS_SEED` (or the
//! built-in default).  Prints one line of counts per pass; exits non-zero
//! and prints every violation — each led by the `HARNESS_SEED`, crash
//! index and effect that reproduce it.

use bioopera_harness::{run_full, seed_from_env, DEFAULT_SEED};
use std::time::Instant;

fn parse_next(args: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires a numeric argument");
        std::process::exit(2);
    })
}

fn main() {
    let mut seed = seed_from_env(DEFAULT_SEED);
    let mut store_limit: Option<usize> = None;
    let mut runtime_samples = usize::MAX;
    let mut recovery_samples = 3usize;
    let mut shard_samples = 12usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = parse_next(&mut args, "--seed"),
            "--store-limit" => store_limit = Some(parse_next(&mut args, "--store-limit") as usize),
            "--runtime-samples" => {
                runtime_samples = parse_next(&mut args, "--runtime-samples") as usize
            }
            "--recovery-samples" => {
                recovery_samples = parse_next(&mut args, "--recovery-samples") as usize
            }
            "--shard-samples" => shard_samples = parse_next(&mut args, "--shard-samples") as usize,
            "--help" | "-h" => {
                println!(
                    "usage: torture [--seed N] [--store-limit N] \
                     [--runtime-samples N] [--recovery-samples N] [--shard-samples N]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let t0 = Instant::now();
    let report = run_full(
        seed,
        store_limit,
        runtime_samples,
        recovery_samples,
        shard_samples,
    );
    println!("{}", report.summary());
    println!("  wall time: {:.2}s", t0.elapsed().as_secs_f64());
    if !report.is_clean() {
        for v in report.violations() {
            eprintln!("VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
