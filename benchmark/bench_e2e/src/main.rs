//! `bench_e2e` — the repository's end-to-end benchmark.
//!
//! Four long workloads over the public APIs of `core`, `store`,
//! `cluster`, `darwin`, `ocr` and `workloads`; seven end-to-end metrics;
//! and, in a separate traced run, a per-layer budget taken purely from
//! outside the program.  See `benchmark/README.md`.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! bench_e2e [--seed N] [--seconds S]                        all four, round-robin
//! bench_e2e --smoke                                         all four at 1/20 size, oracles on
//! bench_e2e --check [--seed N]                              crashed run == crash-free run
//! bench_e2e --bless [--smoke]                               pin the default seed's results
//! bench_e2e agree A.jsonl B.jsonl                           do two result sets agree?
//! bench_e2e spread A.jsonl                                  is one result set steady?
//! ```

mod alloc;
mod disk;
mod host;
mod layers;
mod report;
mod spec;
mod stats;
mod tracer;
mod workloads;

use host::{HostFacts, Spin};
use report::{Metric, Raw, RunResult};
use serde::{Content, Deserialize, Serialize};
use spec::{Facts, Spec, Workload};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::RepOptions;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The end-to-end metrics, the same seven on every workload, lower is
/// better for each.  `BENCHMARK.json` carries their bounds; a test holds
/// the two lists together.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("recover_s", "s"),
    ("written_kb_per_event", "KiB/event"),
    ("read_kb_per_event", "KiB/event"),
    ("stored_kb_per_event", "KiB/event"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("store.disk.append_calls", "count"),
    ("store.disk.append_kb", "KiB"),
    ("store.disk.write_atomic_calls", "count"),
    ("store.disk.write_atomic_kb", "KiB"),
    ("store.disk.read_calls", "count"),
    ("store.disk.read_kb", "KiB"),
    ("store.disk.delete_calls", "count"),
    ("store.disk.busy_s", "s"),
    ("store.batches_applied", "count"),
    ("store.spills", "count"),
    ("store.run_merges", "count"),
    ("store.max_merge_kb", "KiB"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.bloom_skip_ratio", "ratio"),
    ("store.open_s", "s"),
    ("store.scan_instance_s", "s"),
    ("store.get_hit_us", "us"),
    ("store.get_miss_us", "us"),
    ("core.codec.decode_s", "s"),
    ("core.codec.encode_s", "s"),
    ("core.codec.kb", "KiB"),
    ("core.engine.steps", "count"),
    ("core.engine.events", "count"),
    ("core.engine.step_self_s", "s"),
    ("core.engine.step_p50_ms", "ms"),
    ("core.engine.step_max_ms", "ms"),
    ("core.engine.submit_us", "us"),
    ("core.engine.recover_self_s", "s"),
    ("core.engine.allocs_per_event", "1/event"),
    ("core.engine.alloc_kb_per_event", "KiB/event"),
    ("core.shard.router.merge_us_per_event", "us/event"),
    ("core.shard.services.dispatch_us_per_grant", "us/grant"),
    ("core.dispatcher.choose_calls", "count"),
    ("core.dispatcher.choose_busy_s", "s"),
    ("core.awareness.open_tail_s", "s"),
    ("core.awareness.ingest_us_per_event", "us/event"),
    ("core.awareness.query_us", "us"),
    ("core.navigator.init_us", "us"),
    ("ocr.parse_validate_us", "us"),
    ("cluster.kernel.events", "count"),
    ("cluster.kernel.pop_us", "us"),
    ("library.program_calls", "count"),
    ("library.program_busy_s", "s"),
    ("darwin.align.mcells_per_s", "Mcells/s"),
    ("darwin.refine.us_per_match", "us/match"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("host.spin_s", "s"),
];

const DEFAULT_SECONDS: f64 = 24.0;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check: bool,
    bless: bool,
    /// Internal: this process is one repetition.
    rep: bool,
    no_crash: bool,
    append: Option<String>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::from_name(&name).ok_or(format!(
                    "unknown workload {name}; the workloads are {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v}: not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds {v}: must be positive"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                }
            }
            "--append" => args.append = Some(value("a file")?),
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--bless" => args.bless = true,
            "--rep" => args.rep = true,
            "--no-crash" => args.no_crash = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

// ---------------------------------------------------------------------------
// One repetition, in a process of its own
// ---------------------------------------------------------------------------

/// What a repetition's process tells the invocation that started it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RepReport {
    setup_samples_s: Vec<f64>,
    run_steps_s: Vec<f64>,
    recover_steps_s: Vec<f64>,
    spin_before_s: f64,
    spin_after_s: f64,
    events: u64,
    attempted: u64,
    failed: u64,
    disk: disk::DiskCounts,
    peak_rss_kb: u64,
    facts: Facts,
    /// Per-layer metrics; empty unless traced.
    layers: BTreeMap<String, f64>,
}

impl RepReport {
    /// The slower of the two spins around the repetition.
    fn spin_s(&self) -> f64 {
        self.spin_before_s.max(self.spin_after_s)
    }

    fn run_s(&self) -> f64 {
        self.run_steps_s.iter().sum()
    }

    fn recover_s(&self) -> f64 {
        self.recover_steps_s.iter().sum()
    }
}

fn run_rep(spec: &Spec, w: Workload, o: &RepOptions) -> Res<RepReport> {
    let spin = Spin::new();
    if o.trace {
        tracer::enable();
    }
    let spin_before_s = spin.seconds();
    let out = workloads::run(spec, w, o)?;
    let spin_after_s = spin.seconds();
    // Before the replays, which belong to the benchmark, not the workload.
    let peak_rss_kb = host::peak_rss_kb();
    let layers = if o.trace {
        let spans = tracer::snapshot();
        write_spans(w, o.seed, &spans)?;
        layers::measure(&out, &spans)?
    } else {
        BTreeMap::new()
    };
    Ok(RepReport {
        setup_samples_s: out.setup_samples_s,
        run_steps_s: out.drive.run_steps_s,
        recover_steps_s: out.drive.recover_steps_s,
        spin_before_s,
        spin_after_s,
        events: out.events,
        attempted: out.attempted,
        failed: out.failed,
        disk: out.disk.counts(),
        peak_rss_kb,
        facts: out.facts,
        layers,
    })
}

/// `benchmark/results/trace_<workload>.json`: every span of the traced
/// repetition as `[kind, start ns, end ns, parent span or -1]`.
fn write_spans(w: Workload, seed: u64, spans: &[tracer::Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut kinds: Vec<&'static str> = Vec::new();
    let mut rows = String::with_capacity(spans.len() * 40);
    for (i, s) in spans.iter().enumerate() {
        let name = s.kind.name();
        let kind = kinds.iter().position(|k| *k == name).unwrap_or_else(|| {
            kinds.push(name);
            kinds.len() - 1
        });
        let parent = s.parent.map_or(-1, i64::from);
        let sep = if i == 0 { "" } else { ",\n" };
        let _ = write!(rows, "{sep}[{kind},{},{},{parent}]", s.start_ns, s.end_ns);
    }
    let kinds = serde_json::to_string(&kinds).expect("names serialize");
    std::fs::create_dir_all(report::RESULTS_DIR)?;
    std::fs::write(
        format!("{}/trace_{}.json", report::RESULTS_DIR, w.name()),
        format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"repetition\":0,\"kinds\":{kinds},\"spans\":[\n{rows}\n]}}\n",
            w.name()
        ),
    )
}

/// Start one repetition as a child of this process and wait for it.
fn spawn_rep(w: Workload, o: &RepOptions) -> Res<RepReport> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--rep", "--workload", w.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    if !o.crash {
        cmd.arg("--no-crash");
    }
    // The engine reads some settings from the environment; the spec is
    // the only configuration a repetition may have.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("BIOOPERA_") {
            cmd.env_remove(name);
        }
    }
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    if !out.status.success() {
        return Err(format!("{} repetition ended with {}", w.name(), out.status).into());
    }
    let stdout = String::from_utf8(out.stdout)?;
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} repetition printed nothing", w.name()))?;
    Ok(serde_json::from_str(line)?)
}

// ---------------------------------------------------------------------------
// One invocation: repetitions, noise guard, oracles, metrics
// ---------------------------------------------------------------------------

struct Invocation<'a> {
    spec: &'a Spec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    host: HostFacts,
}

impl Invocation<'_> {
    fn options(&self, trace: bool) -> RepOptions {
        RepOptions {
            seed: self.seed,
            smoke: self.smoke,
            crash: true,
            trace,
        }
    }

    /// The pinned results the facts of `w` must equal, if this seed has
    /// any.  `allvsall_real`'s merged result is the same for every seed.
    fn pinned(&self, w: Workload) -> Option<&Facts> {
        let pinned = self.spec.expect(w, self.smoke);
        let applies = self.seed == self.spec.default_seed || w == Workload::AllvsallReal;
        (applies && !pinned.is_empty()).then_some(pinned)
    }

    /// Untraced repetitions of every workload in `ws`, round-robin, so a
    /// slow stretch of the host costs each workload one repetition and
    /// not one workload all of its own.
    fn measure(&self, ws: &[Workload]) -> Res<Vec<RunResult>> {
        let o = self.options(false);
        let budget = self.seconds * ws.len() as f64;
        let t0 = Instant::now();
        let in_time = |first: bool| first || t0.elapsed().as_secs_f64() < budget;
        let mut reps: BTreeMap<Workload, Vec<RepReport>> = BTreeMap::new();
        let most = ws.iter().map(|&w| self.spec.reps(w)).max().unwrap_or(0);
        for round in 0..most {
            for &w in ws {
                if round < self.spec.reps(w) && in_time(round == 0) {
                    reps.entry(w).or_default().push(spawn_rep(w, &o)?);
                }
            }
        }
        // The noise guard looks at the host only, never at the code under
        // test, so it cannot favour either side of a comparison.  Slow
        // repetitions are replaced one at a time — a replacement may set
        // a new best spin — until none is left or the extra ones run out.
        let mut discarded: BTreeMap<Workload, usize> = ws.iter().map(|&w| (w, 0)).collect();
        while in_time(false) {
            let best = reps
                .values()
                .flatten()
                .map(RepReport::spin_s)
                .fold(f64::INFINITY, f64::min);
            let limit = best * (1.0 + self.spec.spin_tolerance);
            let slow = ws.iter().find_map(|&w| {
                let at = reps[&w].iter().position(|r| r.spin_s() > limit)?;
                (discarded[&w] < self.spec.max_extra_reps).then_some((w, at))
            });
            let Some((w, at)) = slow else { break };
            let mine = reps.get_mut(&w).expect("every workload ran once");
            mine.remove(at);
            mine.push(spawn_rep(w, &o)?);
            *discarded.get_mut(&w).expect("counted from zero") += 1;
        }
        // A slow repetition that could not be replaced stays in: the
        // timings are minima, which a slow sample cannot raise.
        ws.iter()
            .map(|&w| {
                let kept: Vec<&RepReport> = reps[&w].iter().collect();
                self.untraced_result(w, &kept, discarded[&w])
            })
            .collect()
    }

    fn untraced_result(
        &self,
        w: Workload,
        reps: &[&RepReport],
        discarded: usize,
    ) -> Res<RunResult> {
        let first = reps.first().ok_or("no repetition to report")?;
        let mut correct = true;
        // Counts are exact: a repetition that disagrees with another is a
        // wrong result, not noise.
        for r in reps {
            if (r.events, r.disk, &r.facts) != (first.events, first.disk, &first.facts) {
                eprintln!(
                    "{}: repetitions disagree on events, bytes or results",
                    w.name()
                );
                correct = false;
            }
        }
        if let Some(pinned) = self.pinned(w) {
            if pinned != &first.facts {
                eprintln!(
                    "{}: results {:?} differ from the pinned {:?}",
                    w.name(),
                    first.facts,
                    pinned
                );
                correct = false;
            }
        }
        let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
        let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
        if !correct {
            failed = attempted;
        }
        correct &= failed == 0;

        let over =
            |f: &dyn Fn(&RepReport) -> f64| -> Vec<f64> { reps.iter().map(|r| f(r)).collect() };
        let events = first.events.max(1) as f64;
        let kb_per_event = |bytes: u64| bytes as f64 / 1024.0 / events;
        let setup: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.setup_samples_s.iter().copied())
            .collect();
        let run = over(&|r| r.run_s());
        let recover = over(&|r| r.recover_s());
        let rss = over(&|r| r.peak_rss_kb as f64 / 1024.0);
        let (s_setup, s_run, s_recover, s_rss) = (
            stats::summary(&setup),
            stats::summary(&run),
            stats::summary(&recover),
            stats::summary(&rss),
        );
        let d = first.disk;
        let fastest = |steps: &dyn Fn(&RepReport) -> &Vec<f64>, whole: f64| {
            let per_rep: Vec<&[f64]> = reps.iter().map(|r| steps(r).as_slice()).collect();
            stepwise_min(&per_rep).unwrap_or(whole)
        };
        // Set-up is short, so its many samples are centred.  A run is long
        // and host noise only ever adds to it, in bursts shorter than a
        // repetition: every engine call does the same work in every
        // repetition, so the fastest run of each call, summed, is the
        // closest the invocation gets to the code's own time.
        let values = [
            (s_setup.median, Some(s_setup)),
            (fastest(&|r| &r.run_steps_s, s_run.min), Some(s_run)),
            (
                fastest(&|r| &r.recover_steps_s, s_recover.min),
                Some(s_recover),
            ),
            (kb_per_event(d.append_bytes + d.write_atomic_bytes), None),
            (kb_per_event(d.read_bytes), None),
            (kb_per_event(d.stored_bytes), None),
            (s_rss.median, Some(s_rss)),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), (value, over))| {
                let metric = match over {
                    Some(over) => Metric::new(value, unit, over),
                    None => Metric::single(value, unit),
                };
                (name.to_string(), metric)
            })
            .collect();
        Ok(RunResult {
            workload: w.name().to_string(),
            seed: self.seed,
            trace: false,
            smoke: self.smoke,
            reps: reps.len(),
            discarded,
            correct,
            attempted,
            failed,
            events: first.events,
            metrics,
            facts: first.facts.clone(),
            host: self.host.clone(),
        })
    }

    /// One untraced and one traced repetition: the traced one gives the
    /// layers, the pair gives what tracing costs.
    fn trace(&self, w: Workload) -> Res<RunResult> {
        let plain = spawn_rep(w, &self.options(false))?;
        let traced = spawn_rep(w, &self.options(true))?;
        let mut correct = plain.facts == traced.facts && plain.events == traced.events;
        if !correct {
            eprintln!("{}: the traced repetition produced other results", w.name());
        }
        if let Some(pinned) = self.pinned(w) {
            correct &= pinned == &traced.facts;
        }
        let attempted = plain.attempted + traced.attempted;
        let failed = if correct {
            plain.failed + traced.failed
        } else {
            attempted
        };
        let mut layers = traced.layers.clone();
        layers.insert(
            "trace.overhead_frac".into(),
            traced.run_s() / plain.run_s().max(f64::MIN_POSITIVE) - 1.0,
        );
        layers.insert(
            "host.spin_s".into(),
            [&plain, &traced]
                .iter()
                .flat_map(|r| [r.spin_before_s, r.spin_after_s])
                .fold(f64::INFINITY, f64::min),
        );
        let mut metrics = BTreeMap::new();
        for (name, unit) in PER_LAYER {
            let value = *layers
                .get(name)
                .ok_or_else(|| format!("{}: layer metric {name} was not measured", w.name()))?;
            metrics.insert(name.to_string(), Metric::single(value, unit));
        }
        Ok(RunResult {
            workload: w.name().to_string(),
            seed: self.seed,
            trace: true,
            smoke: self.smoke,
            reps: 1,
            discarded: 0,
            correct: correct && failed == 0,
            attempted,
            failed,
            events: traced.events,
            metrics,
            facts: traced.facts,
            host: self.host.clone(),
        })
    }
}

/// The sum over engine calls of each call's fastest run across the
/// repetitions, or `None` when the repetitions did not make the same
/// calls (and so are not the same work call by call).
fn stepwise_min(reps: &[&[f64]]) -> Option<f64> {
    let (first, rest) = reps.split_first()?;
    if rest.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    let fastest = |i: usize| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min);
    Some((0..first.len()).map(fastest).sum())
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

/// `--check`: each workload once through its crash and once without, and
/// the results must be the same.
fn check(inv: &Invocation) -> Res<bool> {
    let mut ok = true;
    for w in Workload::ALL {
        let crashed = spawn_rep(w, &inv.options(false))?;
        let reference = spawn_rep(
            w,
            &RepOptions {
                crash: false,
                ..inv.options(false)
            },
        )?;
        let pick = |r: &RepReport| -> Vec<Option<String>> {
            workloads::result_keys(w)
                .iter()
                .map(|k| r.facts.get(*k).cloned())
                .collect()
        };
        let same = pick(&crashed) == pick(&reference);
        let clean = crashed.failed == 0 && reference.failed == 0;
        let pinned = inv.pinned(w).is_none_or(|p| p == &crashed.facts);
        eprintln!(
            "{:<20} seed {}: crashed == crash-free: {same}; failed operations: {}; pinned results hold: {pinned}",
            w.name(),
            inv.seed,
            crashed.failed + reference.failed
        );
        if !same {
            eprintln!(
                "  crashed    {:?}\n  crash-free {:?}",
                crashed.facts, reference.facts
            );
        }
        ok &= same && clean && pinned;
    }
    Ok(ok)
}

/// `--bless`: run the default seed once per workload and write what it
/// produced into the spec as the pinned results.
fn bless(inv: &Invocation) -> Res<()> {
    let text = std::fs::read_to_string(spec::SPEC_PATH)
        .map_err(|e| format!("{}: {e} (run from the repository root)", spec::SPEC_PATH))?;
    let Raw(mut doc) = serde_json::from_str(&text)?;
    let slot = if inv.smoke { "expect_smoke" } else { "expect" };
    for w in Workload::ALL {
        let rep = spawn_rep(w, &inv.options(false))?;
        if rep.failed != 0 {
            return Err(format!(
                "{}: {} failed operations; not pinning that",
                w.name(),
                rep.failed
            )
            .into());
        }
        let facts = Content::Map(
            rep.facts
                .iter()
                .map(|(k, v)| (k.clone(), Content::Str(v.clone())))
                .collect(),
        );
        let Content::Map(top) = &mut doc else {
            return Err("the spec is not a JSON object".into());
        };
        let entry = top
            .iter_mut()
            .find(|(k, _)| k == w.name())
            .and_then(|(_, v)| match v {
                Content::Map(fields) => fields.iter_mut().find(|(k, _)| k == slot),
                _ => None,
            })
            .ok_or_else(|| format!("the spec has no {}.{slot}", w.name()))?;
        entry.1 = facts;
        eprintln!("{:<20} {slot} = {:?}", w.name(), rep.facts);
    }
    std::fs::write(spec::SPEC_PATH, report::pretty(&doc))?;
    eprintln!("wrote {}; rebuild to compile it in", spec::SPEC_PATH);
    Ok(())
}

fn result_sets(args: &Args) -> Res<ExitCode> {
    let bounds = report::read_bounds("BENCHMARK.json")?;
    let ok = match args.positional.as_slice() {
        [cmd, a, b] if cmd == "agree" => {
            let rows = report::agree(&report::read_set(a)?, &report::read_set(b)?, &bounds);
            report::print_agree(&rows);
            !rows.is_empty() && rows.iter().all(|r| r.pass)
        }
        [cmd, a] if cmd == "spread" => report::print_spread(&report::read_set(a)?, &bounds),
        _ => {
            return Err("usage: bench_e2e agree A.jsonl B.jsonl | bench_e2e spread A.jsonl".into())
        }
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Res<ExitCode> {
    let args = parse_args(std::env::args().skip(1))?;
    if !args.positional.is_empty() {
        return result_sets(&args);
    }
    let spec = Spec::load()?;
    let seed = args.seed.unwrap_or(spec.default_seed);

    if args.rep {
        let w = args.workload.ok_or("--rep needs --workload")?;
        let o = RepOptions {
            seed,
            smoke: args.smoke,
            crash: !args.no_crash,
            trace: args.trace,
        };
        let report = run_rep(&spec, w, &o)?;
        println!("{}", serde_json::to_string(&report)?);
        return Ok(ExitCode::SUCCESS);
    }

    let inv = Invocation {
        spec: &spec,
        seed: if args.bless { spec.default_seed } else { seed },
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        smoke: args.smoke,
        host: HostFacts::gather(),
    };
    if args.bless {
        bless(&inv)?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.check {
        let ok = check(&inv)?;
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let ws: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let results = if args.trace {
        ws.iter().map(|&w| inv.trace(w)).collect::<Res<Vec<_>>>()?
    } else if args.smoke {
        // One repetition each and no noise guard: a smoke run checks
        // results, not speed.
        let o = inv.options(false);
        ws.iter()
            .map(|&w| inv.untraced_result(w, &[&spawn_rep(w, &o)?], 0))
            .collect::<Res<Vec<_>>>()?
    } else {
        inv.measure(&ws)?
    };
    let mut all_correct = true;
    for r in &results {
        let w = Workload::from_name(&r.workload).expect("results carry workload names");
        r.print_table(spec.why(w));
        r.save(args.append.as_deref())?;
        all_correct &= r.correct;
    }
    // The contract's line: the last line of standard output.
    for r in &results {
        println!("{}", r.contract_line());
    }
    // A wrong result is reported in the line; the exit code says whether
    // the benchmark itself ran.  Smoke runs are gates and fail loudly.
    Ok(if args.smoke && !all_correct {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Deserialize)]
    struct Named {
        name: String,
        why: Option<String>,
        unit: Option<String>,
        better: Option<String>,
        bound: Option<f64>,
    }

    #[derive(Deserialize)]
    struct BenchmarkJson {
        run_seconds: u64,
        workloads: Vec<Named>,
        end_to_end: Vec<Named>,
        per_layer: Vec<Named>,
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics the
    /// driver produces, with the units it prints and the reasons the
    /// spec gives.
    #[test]
    fn benchmark_json_matches_the_driver() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let b: BenchmarkJson =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let spec = Spec::load().unwrap();
        let named: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(named, Workload::ALL.map(Workload::name));
        for w in &b.workloads {
            let why = w.why.as_deref().unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            assert!(!spec.why(Workload::from_name(&w.name).unwrap()).is_empty());
        }
        let pairs = |ms: &[Named]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone().unwrap()))
                .collect()
        };
        let owned = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
            ms.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&b.end_to_end), owned(&END_TO_END));
        assert_eq!(pairs(&b.per_layer), owned(&PER_LAYER));
        let bound = |m: &Named| m.bound.unwrap();
        for m in &b.end_to_end {
            assert_eq!(m.better.as_deref(), Some("lower"), "{}", m.name);
            assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{}", m.name);
        }
        let setup = b.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(b.end_to_end.iter().all(|m| bound(m) <= bound(setup)));
        assert!(b
            .per_layer
            .iter()
            .all(|m| matches!(m.better.as_deref(), Some("higher" | "lower"))));
        assert!((1..=60).contains(&b.run_seconds));
    }

    /// All four workloads at smoke size, in this process: the pinned
    /// results hold, nothing fails, run and recovery are both timed, and
    /// the crash changes no result.
    #[test]
    fn smoke_workloads_meet_their_pinned_results() {
        let spec = Spec::load().unwrap();
        for w in Workload::ALL {
            let o = RepOptions {
                seed: spec.default_seed,
                smoke: true,
                crash: true,
                trace: false,
            };
            let out = workloads::run(&spec, w, &o).unwrap();
            assert_eq!(out.failed, 0, "{}", w.name());
            assert!(out.attempted > 0 && out.events > 0, "{}", w.name());
            assert!(!out.drive.run_steps_s.is_empty() && !out.drive.recover_steps_s.is_empty());
            assert_eq!(&out.facts, spec.expect(w, true), "{}", w.name());
            let reference = workloads::run(&spec, w, &RepOptions { crash: false, ..o }).unwrap();
            assert!(reference.drive.recover_steps_s.is_empty(), "{}", w.name());
            for key in workloads::result_keys(w) {
                assert_eq!(
                    out.facts.get(*key),
                    reference.facts.get(*key),
                    "{} {key}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn stepwise_min_takes_each_call_from_its_fastest_repetition() {
        let (a, b, c) = ([1.0, 5.0, 2.0], [2.0, 3.0, 2.5], [1.5, 9.0, 1.0]);
        assert_eq!(stepwise_min(&[&a, &b, &c]), Some(1.0 + 3.0 + 1.0));
        assert_eq!(stepwise_min(&[&a]), Some(8.0));
        // Repetitions that made different calls cannot be mixed.
        assert_eq!(stepwise_min(&[&a, &b[..2]]), None);
        assert_eq!(stepwise_min(&[]), None);
    }

    #[test]
    fn arguments_of_the_contract_parse() {
        let argv = "--workload shard_chains --seed 7 --seconds 30 --trace 1";
        let a = parse_args(argv.split(' ').map(String::from)).unwrap();
        assert_eq!(a.workload, Some(Workload::ShardChains));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(30.0), true));
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--frobnicate",
        ] {
            assert!(
                parse_args(bad.split(' ').map(String::from)).is_err(),
                "{bad}"
            );
        }
    }
}
