//! **Storage engine benchmark** — what bounded memory costs: the same
//! workloads through [`bioopera_store::Store`] with no memtable budget
//! (an unbounded memtable that never rolls) and under a small one.
//!
//! Measured, "before" = unbudgeted and "after" = budgeted:
//!
//! * put throughput while the budgeted store spills and merges inline,
//! * warm-cache point gets across memtable + resident runs,
//!
//! with the observed memory ceiling and the bytes a reopen reads reported
//! alongside — and, beside them, the **checksum leg**: GB/s of the
//! byte-at-a-time reference, slicing-by-8 and the dispatched `crc32` at
//! the buffer sizes the store checksums, with the kernel that ran.  The
//! replica of the pre-overhaul engine this bench used to race against is
//! retired, and so are the legs whose "before" was the snapshot writer
//! (`compact()` and reopen times, the sweep's untiered columns): every
//! roll is a spill now.  Their last values are frozen in EXPERIMENTS.md;
//! replay and open regressions are caught by `bench_e2e`'s `recover_s`
//! and `store.open_s`.
//!
//! Each metric is timed per pass, variants interleaved, and the minimum
//! over `STORE_BENCH_REPEATS` passes reported (host interference only
//! ever slows a pass down).  Writes `results/BENCH_store.json`.
//!
//! `STORE_BENCH_SMOKE=1` shrinks the workload for CI; in every mode the
//! run **fails loudly** (non-zero exit) if the memtable ceiling is
//! breached, a budgeted get falls below its floor relative to an
//! unbudgeted one, a reopen reads more than a quarter of the disk, or —
//! on a host with `pclmulqdq` — the dispatched checksum is slower than the
//! portable one.

use bioopera_bench::write_results;
use bioopera_store::crc::{crc32, crc32_bytewise, crc32_portable};
use bioopera_store::{Batch, MemDisk, Space, Store, TieredPolicy};
use bytes::Bytes;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Metric {
    name: String,
    unit: String,
    workload: String,
    before: f64,
    after: f64,
    /// `after / before` for throughputs, `before_time / after_time` for
    /// wall times — always "higher is better for the tiered store".
    speedup: f64,
}

/// Memory-ceiling evidence for the tiered run: the budget the store was
/// given, the worst memtable estimate ever observed under load, and what
/// the same record set costs resident when tiering is off.
#[derive(Serialize)]
struct TieredSummary {
    memtable_budget_bytes: u64,
    peak_memtable_bytes: u64,
    unbounded_memtable_bytes: u64,
    runs_after_load: usize,
    spills: u64,
    run_merges: u64,
    /// Bytes one post-compaction reopen actually reads (manifest + run
    /// footers/meta; never the data blocks).
    reopen_bytes_read: u64,
    total_disk_bytes: u64,
    /// Depth of the leveled tier after the load (0 = everything in L0).
    levels: usize,
    /// Block-cache hit/miss counters over the read benchmark.
    cache_hits: u64,
    cache_misses: u64,
    /// Largest single compaction input, in bytes — bounded merges keep
    /// this far below the total history.
    max_merge_bytes: u64,
}

/// One history length of the opt-in tiered scaling sweep
/// (`STORE_BENCH_TIERED_SWEEP=1`): reopen cost and resident memory under
/// the default budget.
#[derive(Serialize)]
struct SweepRow {
    records: usize,
    value_bytes: usize,
    tiered_reopen_s: f64,
    /// Bytes the tiered reopen actually read (manifest + run meta).
    tiered_reopen_bytes_read: u64,
    tiered_peak_memtable_bytes: u64,
    tiered_disk_bytes: u64,
    /// Largest single compaction input during the load: leveled merges
    /// must stay a small fraction of the live bytes, or compaction is
    /// O(history) again.
    tiered_max_merge_bytes: u64,
    tiered_run_merges: u64,
    tiered_levels: usize,
}

/// Checksum throughput at one buffer size, GB/s (10^9 bytes), best pass.
#[derive(Serialize)]
struct CrcRow {
    bytes: usize,
    bytewise_gbps: f64,
    portable_gbps: f64,
    dispatched_gbps: f64,
}

/// The checksum leg: which kernel `crc32` dispatched to on this host
/// (`"pclmulqdq"` | `"portable"`) and what each implementation moves.
#[derive(Serialize)]
struct CrcLeg {
    kernel: &'static str,
    rows: Vec<CrcRow>,
}

#[derive(Serialize)]
struct BenchReport {
    smoke: bool,
    repeats: u32,
    records: usize,
    value_bytes: usize,
    /// Hardware threads on the bench host.
    host_cpus: usize,
    baseline: String,
    metrics: Vec<Metric>,
    tiered: TieredSummary,
    crc: CrcLeg,
    /// Written `[]` when the sweep did not run.
    tiered_sweep: Vec<SweepRow>,
}

struct Config {
    smoke: bool,
    repeats: u32,
    /// Records in the resident set.
    records: usize,
    /// Value payload size; History-event scale.
    value_bytes: usize,
    /// Point gets in the read benchmark.
    reads: usize,
}

impl Config {
    fn from_env() -> Config {
        let smoke = std::env::var("STORE_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
        let repeats = std::env::var("STORE_BENCH_REPEATS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if smoke { 2 } else { 5 });
        if smoke {
            Config {
                smoke,
                repeats,
                records: 4_000,
                value_bytes: 256,
                reads: 20_000,
            }
        } else {
            Config {
                smoke,
                repeats,
                records: 20_000,
                value_bytes: 512,
                reads: 200_000,
            }
        }
    }
}

fn key(i: usize) -> String {
    format!("inst/{:06}/task/t{:02}", i / 16, i % 16)
}

/// Min wall-seconds over `repeats` interleaved passes of two workloads.
fn race(repeats: u32, mut before: impl FnMut(), mut after: impl FnMut()) -> (f64, f64) {
    // One untimed warm-up each.
    before();
    after();
    let (mut b_best, mut a_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats {
        let t = Instant::now();
        before();
        b_best = b_best.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        after();
        a_best = a_best.min(t.elapsed().as_secs_f64());
    }
    (b_best, a_best)
}

/// Best GB/s of `f` over `data` in `repeats` passes of about `pass_bytes`
/// each.
fn crc_gbps(f: fn(&[u8]) -> u32, data: &[u8], pass_bytes: usize, repeats: u32) -> f64 {
    let iters = (pass_bytes / data.len()).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..=repeats {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f(std::hint::black_box(data)));
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    (iters * data.len()) as f64 / best / 1e9
}

/// The checksum at the sizes the store feeds it: the smallest buffer the
/// fold takes, the mean `shard_chains` WAL frame, a run block, and a
/// snapshot-sized megabyte.
fn crc_leg(cfg: &Config) -> CrcLeg {
    let kernel = bioopera_store::crc::kernel();
    let pass_bytes = if cfg.smoke { 2 << 20 } else { 32 << 20 };
    let buf: Vec<u8> = (0..1usize << 20)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3])
        .collect();
    let rows: Vec<CrcRow> = [64, 350, 4096, 1 << 20]
        .into_iter()
        .map(|bytes| {
            let data = &buf[..bytes];
            CrcRow {
                bytes,
                bytewise_gbps: crc_gbps(crc32_bytewise, data, pass_bytes, cfg.repeats),
                portable_gbps: crc_gbps(crc32_portable, data, pass_bytes, cfg.repeats),
                dispatched_gbps: crc_gbps(crc32, data, pass_bytes, cfg.repeats),
            }
        })
        .collect();
    for r in &rows {
        // Where the CPU has the instruction the fold must pay at every
        // size it takes; elsewhere dispatched *is* portable and the two
        // columns differ by noise only.
        assert!(
            kernel != "pclmulqdq" || r.dispatched_gbps >= r.portable_gbps,
            "crc32 ({kernel}) slower than slicing-by-8 at {} B: {:.2} vs {:.2} GB/s",
            r.bytes,
            r.dispatched_gbps,
            r.portable_gbps
        );
    }
    CrcLeg { kernel, rows }
}

fn main() {
    let cfg = Config::from_env();
    eprintln!(
        "store_bench: {} records x {}B, {} passes{}",
        cfg.records,
        cfg.value_bytes,
        cfg.repeats,
        if cfg.smoke { " (smoke)" } else { "" }
    );
    let mut metrics: Vec<Metric> = Vec::new();

    // ---- tiered engine: spill / bounded-memory read / merge / reopen
    //
    // "Before" is the engine with no memtable budget (never rolled here:
    // an unbounded memtable), "after" the same engine under a small
    // budget — the cost of bounded memory.
    let tiered_summary;
    {
        let budget: u64 = if cfg.smoke { 64 * 1024 } else { 256 * 1024 };
        let policy = TieredPolicy {
            memtable_budget_bytes: budget,
            run_merge_threshold: 4,
            // The read metric is *warm-cache* by design: the memtable
            // budget is stress-sized (to force constant spilling) but
            // the cache is provisioned for the working set, as a
            // monitoring deployment would be.
            block_cache_budget: 32 * 1024 * 1024,
            ..TieredPolicy::default()
        };
        let one_put = |store: &mut Store<MemDisk>, i: usize| {
            let mut batch = Batch::new();
            batch.put(
                Space::Instance,
                key(i),
                Bytes::from(vec![(i % 251) as u8; cfg.value_bytes]),
            );
            store.apply(batch).unwrap();
        };

        // Spill throughput: the identical insert workload with and without
        // the budget; the tiered run pays for run builds + merges inline.
        let total_ops = cfg.records as f64;
        let peak = std::cell::Cell::new(0u64);
        let (b, a) = race(
            cfg.repeats,
            || {
                let mut store = Store::open_with(MemDisk::new(), None).unwrap();
                for i in 0..cfg.records {
                    one_put(&mut store, i);
                }
            },
            || {
                let mut store = Store::open_with(MemDisk::new(), Some(policy)).unwrap();
                for i in 0..cfg.records {
                    one_put(&mut store, i);
                    if i % 64 == 0 {
                        peak.set(peak.get().max(store.stats().memtable_bytes));
                    }
                }
                peak.set(peak.get().max(store.stats().memtable_bytes));
            },
        );
        metrics.push(Metric {
            name: "tiered_put_spill_throughput".into(),
            unit: "ops/s".into(),
            workload: format!(
                "{} puts x {}B, {}KiB memtable budget vs unbounded",
                cfg.records,
                cfg.value_bytes,
                budget / 1024
            ),
            before: total_ops / b,
            after: total_ops / a,
            speedup: b / a,
        });

        // Load both engines once for the read comparison and the reopen.
        let mut untiered = Store::open_with(MemDisk::new(), None).unwrap();
        let tiered_disk = MemDisk::new();
        let mut tiered = Store::open_with(tiered_disk.clone(), Some(policy)).unwrap();
        for i in 0..cfg.records {
            one_put(&mut untiered, i);
            one_put(&mut tiered, i);
        }
        let loaded = tiered.stats();
        assert!(loaded.spills > 0, "tiered load never spilled");
        assert!(
            peak.get() <= budget + 32 * 1024,
            "memtable ceiling breached: peak {} bytes under a {} byte budget",
            peak.get(),
            budget
        );
        let unbounded_memtable_bytes = untiered.stats().memtable_bytes;

        // Point reads against memtable + resident runs (bloom-gated).
        let keys: Vec<String> = (0..cfg.records).map(key).collect();
        let single_reads = cfg.reads as f64;
        let (b, a) = race(
            cfg.repeats,
            || {
                for r in 0..cfg.reads {
                    let i = (r * 7919) % cfg.records;
                    assert!(untiered.get(Space::Instance, &keys[i]).unwrap().is_some());
                }
            },
            || {
                for r in 0..cfg.reads {
                    let i = (r * 7919) % cfg.records;
                    assert!(tiered.get(Space::Instance, &keys[i]).unwrap().is_some());
                }
            },
        );
        let tiered_get_speedup = b / a;
        metrics.push(Metric {
            name: "tiered_get_throughput".into(),
            unit: "ops/s".into(),
            workload: format!(
                "{} warm-cache point gets over {} records in memtable + {} runs across {} levels",
                cfg.reads,
                cfg.records,
                loaded.runs,
                loaded.levels.max(1)
            ),
            before: single_reads / b,
            after: single_reads / a,
            speedup: tiered_get_speedup,
        });
        let after_reads = tiered.stats();
        // Loud floor: with the leveled tier and a warm block cache a
        // tiered point get must stay within 2x of the untiered one in
        // full mode (smoke runs are too short to time tightly and get
        // the wider 0.3x floor).  Pre-cache this sat at ~0.04-0.09x; a
        // regression back to a decode-per-get read path must fail here.
        let get_floor = if cfg.smoke { 0.3 } else { 0.5 };
        assert!(
            tiered_get_speedup >= get_floor,
            "tiered get floor breached: {tiered_get_speedup:.3}x vs untiered \
             (floor {get_floor}x; cache {} hits / {} misses)",
            after_reads.cache_hits,
            after_reads.cache_misses
        );

        // Reopen after the full history reads the manifest and the run
        // meta, never the data blocks: O(tail).
        drop(untiered);
        tiered.compact().unwrap();
        drop(tiered);
        let read_before = tiered_disk.bytes_read();
        drop(Store::open_with(tiered_disk.clone(), Some(policy)).unwrap());
        let reopen_bytes_read = tiered_disk.bytes_read() - read_before;
        let total_disk_bytes = tiered_disk.total_file_bytes();
        assert!(
            reopen_bytes_read * 4 < total_disk_bytes,
            "tiered reopen read {reopen_bytes_read} of {total_disk_bytes} disk bytes — not O(tail)"
        );
        tiered_summary = TieredSummary {
            memtable_budget_bytes: budget,
            peak_memtable_bytes: peak.get(),
            unbounded_memtable_bytes,
            runs_after_load: loaded.runs,
            spills: loaded.spills,
            run_merges: loaded.run_merges,
            reopen_bytes_read,
            total_disk_bytes,
            levels: loaded.levels,
            cache_hits: after_reads.cache_hits,
            cache_misses: after_reads.cache_misses,
            max_merge_bytes: loaded.max_merge_bytes,
        };
    }

    // ---- opt-in tiered scaling sweep (STORE_BENCH_TIERED_SWEEP=1) ----
    //
    // Reopen cost and resident memory vs history length, under the
    // *default* 4 MiB production budget (not the stress-sized one above).
    // Feeds the EXPERIMENTS.md tables; too slow for the smoke gate.
    let mut tiered_sweep: Vec<SweepRow> = Vec::new();
    let sweep_on =
        std::env::var("STORE_BENCH_TIERED_SWEEP").is_ok_and(|v| v != "0" && !v.is_empty());
    if sweep_on {
        let value_bytes = 100usize;
        let counts: &[usize] = if cfg.smoke {
            &[10_000, 100_000]
        } else {
            &[10_000, 100_000, 1_000_000]
        };
        for &n in counts {
            let policy = TieredPolicy::default();
            let tiered_disk = MemDisk::new();
            let mut store = Store::open_with(tiered_disk.clone(), Some(policy)).unwrap();
            let mut tiered_peak = 0u64;
            for i in 0..n {
                let mut b = Batch::new();
                b.put(
                    Space::History,
                    format!("ev/{i:09}"),
                    Bytes::from(vec![(i % 251) as u8; value_bytes]),
                );
                store.apply(b).unwrap();
                if i % 1024 == 0 {
                    tiered_peak = tiered_peak.max(store.stats().memtable_bytes);
                }
            }
            let loaded = store.stats();
            tiered_peak = tiered_peak.max(loaded.memtable_bytes);
            store.compact().unwrap();
            drop(store);
            let read0 = tiered_disk.bytes_read();
            let t = Instant::now();
            drop(Store::open_with(tiered_disk.clone(), Some(policy)).unwrap());
            let tiered_reopen_s = t.elapsed().as_secs_f64();
            let tiered_reopen_bytes_read = tiered_disk.bytes_read() - read0;
            let tiered_disk_bytes = tiered_disk.total_file_bytes();

            eprintln!(
                "  sweep {n:>9} recs: reopen {tiered_reopen_s:>9.5}s \
                 ({tiered_reopen_bytes_read} B read of {tiered_disk_bytes}); \
                 peak resident {tiered_peak} B; {} merges across {} levels, max input {} B",
                loaded.run_merges, loaded.levels, loaded.max_merge_bytes
            );
            // Bounded compaction: once the history is large enough to
            // spill repeatedly, the biggest single merge must stay a
            // small fraction of the live bytes — the old merge-all
            // rewrote the whole history every compaction.
            if loaded.run_merges > 0 && tiered_disk_bytes > 16 * 1024 * 1024 {
                assert!(
                    loaded.max_merge_bytes * 4 < tiered_disk_bytes,
                    "merge not bounded at {n} records: max input {} B of {} live disk bytes",
                    loaded.max_merge_bytes,
                    tiered_disk_bytes
                );
            }
            tiered_sweep.push(SweepRow {
                records: n,
                value_bytes,
                tiered_reopen_s,
                tiered_reopen_bytes_read,
                tiered_peak_memtable_bytes: tiered_peak,
                tiered_disk_bytes,
                tiered_max_merge_bytes: loaded.max_merge_bytes,
                tiered_run_merges: loaded.run_merges,
                tiered_levels: loaded.levels,
            });
        }
    }

    let report = BenchReport {
        smoke: cfg.smoke,
        repeats: cfg.repeats,
        records: cfg.records,
        value_bytes: cfg.value_bytes,
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        baseline: "the same engine with no memtable budget (an unbounded memtable)".into(),
        metrics,
        tiered: tiered_summary,
        crc: crc_leg(&cfg),
        tiered_sweep,
    };

    for m in &report.metrics {
        eprintln!(
            "  {:<28} before {:>12.3e}  after {:>12.3e}  {:>6.2}x  [{}]",
            m.name, m.before, m.after, m.speedup, m.workload
        );
    }
    eprintln!(
        "  tiered memory ceiling: peak {} B under a {} B budget (unbounded: {} B); \
         {} spills, {} merges, {} runs resident; reopen read {} of {} disk bytes",
        report.tiered.peak_memtable_bytes,
        report.tiered.memtable_budget_bytes,
        report.tiered.unbounded_memtable_bytes,
        report.tiered.spills,
        report.tiered.run_merges,
        report.tiered.runs_after_load,
        report.tiered.reopen_bytes_read,
        report.tiered.total_disk_bytes,
    );
    for r in &report.crc.rows {
        eprintln!(
            "  crc32 {:>8} B: bytewise {:>6.2}  slicing-by-8 {:>6.2}  dispatched ({}) {:>6.2} GB/s",
            r.bytes, r.bytewise_gbps, r.portable_gbps, report.crc.kernel, r.dispatched_gbps
        );
    }
    let json = serde_json::to_string(&report).expect("serialize report");
    write_results("BENCH_store.json", &json);
    println!("{json}");
}
