//! Result records, the files they go to, and the comparison of result
//! sets against the bounds in `BENCHMARK.json`.

use crate::host::HostFacts;
use crate::spec::Facts;
use crate::stats::{self, Summary};
use serde::{Content, DeError, Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Where the result of the latest invocation of each workload, and the
/// spans of the latest traced one, are written (relative to the root of
/// the checkout; ignored by git).
pub const RESULTS_DIR: &str = "benchmark/results";

/// One metric of one invocation: the reported value, and how it spread
/// over the invocation's repetitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Metric {
    pub fn new(value: f64, unit: &str, over: Summary) -> Self {
        Metric {
            value,
            unit: unit.to_string(),
            min: over.min,
            median: over.median,
            max: over.max,
        }
    }

    /// A metric taken once per invocation.
    pub fn single(value: f64, unit: &str) -> Self {
        Metric::new(
            value,
            unit,
            Summary {
                min: value,
                median: value,
                max: value,
            },
        )
    }
}

/// Everything one invocation found out about one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Repetitions the metrics are taken over.
    pub reps: usize,
    /// Repetitions thrown away because the host was slow around them.
    pub discarded: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Events of one repetition, the divisor of the per-event metrics.
    pub events: u64,
    pub metrics: BTreeMap<String, Metric>,
    pub facts: Facts,
    pub host: HostFacts,
}

/// The line the benchmark contract asks for: exactly these keys.
#[derive(Serialize)]
struct ContractLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ContractMetric>,
}

#[derive(Serialize)]
struct ContractMetric {
    value: f64,
    unit: String,
}

impl RunResult {
    pub fn contract_line(&self) -> String {
        let line = ContractLine {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .metrics
                .iter()
                .map(|(name, m)| {
                    let metric = ContractMetric {
                        value: m.value,
                        unit: m.unit.clone(),
                    };
                    (name.clone(), metric)
                })
                .collect(),
        };
        serde_json::to_string(&line).expect("a result serializes")
    }

    /// Every metric by name with its unit and its spread over the
    /// repetitions, for a reader at a terminal (standard error).
    pub fn print_table(&self, why: &str) {
        eprintln!("{}: {why}", self.workload);
        eprintln!(
            "{} seed {} — {} repetition(s), {} discarded, attempted {}, failed {}, {}",
            self.workload,
            self.seed,
            self.reps,
            self.discarded,
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        );
        for (name, m) in &self.metrics {
            eprintln!(
                "  {name:<42} {:>14.6} {:<10} (min {:.6}  median {:.6}  max {:.6})",
                m.value, m.unit, m.min, m.median, m.max
            );
        }
    }

    /// Write `benchmark/results/<workload>[.trace].json` and, when asked,
    /// append the record as one line to a result set.
    pub fn save(&self, append_to: Option<&str>) -> std::io::Result<()> {
        std::fs::create_dir_all(RESULTS_DIR)?;
        let suffix = if self.trace { ".trace" } else { "" };
        let path = Path::new(RESULTS_DIR).join(format!("{}{suffix}.json", self.workload));
        std::fs::write(path, pretty(&self.to_content()))?;
        if let Some(set) = append_to {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(set)?;
            let line = serde_json::to_string(self).expect("a result serializes");
            f.write_all(format!("{line}\n").as_bytes())?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JSON documents kept as they are
// ---------------------------------------------------------------------------

/// A JSON document as parsed, key order kept: what `--bless` edits.
pub struct Raw(pub Content);

impl Deserialize for Raw {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Ok(Raw(c.clone()))
    }
}

/// Indented JSON, one member per line.
pub fn pretty(c: &Content) -> String {
    let mut out = String::new();
    pretty_into(c, 0, &mut out);
    out.push('\n');
    out
}

fn pretty_into(c: &Content, depth: usize, out: &mut String) {
    let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
    match c {
        Content::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, depth + 1);
                pretty_into(item, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push(']');
        }
        Content::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (key, value)) in entries.iter().enumerate() {
                pad(out, depth + 1);
                let key = serde_json::to_string(key).expect("a string serializes");
                let _ = write!(out, "{key}: ");
                pretty_into(value, depth + 1, out);
                out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push('}');
        }
        scalar_or_empty => {
            struct Leaf<'a>(&'a Content);
            impl Serialize for Leaf<'_> {
                fn to_content(&self) -> Content {
                    self.0.clone()
                }
            }
            out.push_str(
                &serde_json::to_string(&Leaf(scalar_or_empty)).expect("a leaf serializes"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Result sets: `agree` and `spread`
// ---------------------------------------------------------------------------

/// One `end_to_end` entry of `BENCHMARK.json`: the share of the other
/// side's median by which the metric may be worse.
#[derive(Debug, Clone, Deserialize)]
pub struct Bounded {
    pub name: String,
    pub bound: f64,
}

/// The bounds recorded in `BENCHMARK.json`.
pub fn read_bounds(path: &str) -> Result<Vec<Bounded>, String> {
    #[derive(Deserialize)]
    struct Doc {
        end_to_end: Vec<Bounded>,
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Doc = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc.end_to_end)
}

/// A result set: one `RunResult` per line.
pub fn read_set(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// `(workload, metric) -> the value each invocation reported`.
fn by_pair(set: &[RunResult]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in set.iter().filter(|r| !r.trace) {
        for (name, m) in &r.metrics {
            out.entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(m.value);
        }
    }
    out
}

/// One row of `agree`.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    /// The larger median over the smaller: two sets of the same code have
    /// no better and worse side.
    pub ratio: f64,
    pub bound: f64,
    pub pass: bool,
}

/// Compare the per-metric medians of two result sets against `bounds`.
/// A pairing present in only one set fails: the sets must cover the same
/// ground.
pub fn agree(a: &[RunResult], b: &[RunResult], bounds: &[Bounded]) -> Vec<Verdict> {
    let (a, b) = (by_pair(a), by_pair(b));
    let mut pairs: Vec<&(String, String)> = a.keys().chain(b.keys()).collect();
    pairs.sort();
    pairs.dedup();
    let mut rows = Vec::new();
    for pair in pairs {
        let Some(bound) = bounds.iter().find(|m| m.name == pair.1) else {
            continue;
        };
        let median_of = |set: &BTreeMap<(String, String), Vec<f64>>| {
            set.get(pair).map_or(f64::NAN, |v| stats::median(v))
        };
        let (median_a, median_b) = (median_of(&a), median_of(&b));
        // `f64::min` skips a NaN, which would let a missing side pass.
        let ratio = if median_a > 0.0 && median_b > 0.0 {
            median_a.max(median_b) / median_a.min(median_b)
        } else {
            f64::NAN
        };
        rows.push(Verdict {
            workload: pair.0.clone(),
            metric: pair.1.clone(),
            median_a,
            median_b,
            ratio,
            bound: bound.bound,
            // NaN compares false: a missing side or a zero median fails.
            pass: ratio <= 1.0 + bound.bound,
        });
    }
    rows
}

pub fn print_agree(rows: &[Verdict]) {
    println!(
        "| workload | metric | median A | median B | ratio | bound | verdict |\n|---|---|---|---|---|---|---|"
    );
    for r in rows {
        println!(
            "| {} | {} | {:.6} | {:.6} | {:.4} | {:.2} | {} |",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.ratio,
            r.bound,
            if r.pass { "PASS" } else { "FAIL" }
        );
    }
}

/// The quartile spread of every pairing of one set, as the benchmark
/// contract computes it, against a third of the bound and the bound.
/// Returns whether every spread other than `setup_s`'s is within its bound.
pub fn print_spread(set: &[RunResult], bounds: &[Bounded]) -> bool {
    println!(
        "| workload | metric | runs | median | IQR/median | bound | verdict |\n|---|---|---|---|---|---|---|"
    );
    let mut ok = true;
    for ((workload, metric), values) in by_pair(set) {
        let Some(bound) = bounds.iter().find(|m| m.name == metric) else {
            continue;
        };
        let spread = stats::quartile_spread(&values).unwrap_or(f64::NAN);
        let verdict = if spread <= bound.bound / 3.0 {
            "steady"
        } else if spread <= bound.bound {
            "within bound"
        } else if metric == "setup_s" {
            "wide (exempt)"
        } else {
            ok = false;
            "TOO NOISY"
        };
        println!(
            "| {workload} | {metric} | {} | {:.6} | {:.4} | {:.2} | {verdict} |",
            values.len(),
            stats::median(&values),
            spread,
            bound.bound
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, run_s: f64, kb: f64) -> RunResult {
        let metric = |v| Metric::single(v, "x");
        RunResult {
            workload: workload.to_string(),
            seed: 1,
            trace: false,
            smoke: false,
            reps: 3,
            discarded: 0,
            correct: true,
            attempted: 1,
            failed: 0,
            events: 1,
            metrics: BTreeMap::from([
                ("run_s".to_string(), metric(run_s)),
                ("written_kb_per_event".to_string(), metric(kb)),
                ("not_in_benchmark_json".to_string(), metric(1.0)),
            ]),
            facts: Facts::new(),
            host: HostFacts {
                nproc: 2,
                cpu_model: "test".into(),
                kernel: "test".into(),
                rustc: "test".into(),
                commit: "test".into(),
            },
        }
    }

    fn bounds() -> Vec<Bounded> {
        let bounded = |name: &str, bound| Bounded {
            name: name.to_string(),
            bound,
        };
        vec![
            bounded("run_s", 0.10),
            bounded("written_kb_per_event", 0.01),
        ]
    }

    #[test]
    fn agree_compares_medians_in_both_directions() {
        let a: Vec<_> = [4.0, 4.2, 9.0].map(|t| result("w", t, 31.0)).into();
        // Median 4.2 against 4.5: 7 % apart, inside 10 %.
        let b: Vec<_> = [4.5, 4.4, 4.6].map(|t| result("w", t, 31.0)).into();
        let rows = agree(&a, &b, &bounds());
        assert_eq!(rows.len(), 2, "metrics without a bound are left out");
        assert!(rows.iter().all(|r| r.pass), "{rows:?}");
        // The same distance fails whichever set is the slower one.
        let slow: Vec<_> = [4.7, 4.8, 4.9].map(|t| result("w", t, 31.0)).into();
        for rows in [agree(&a, &slow, &bounds()), agree(&slow, &a, &bounds())] {
            let run = rows.iter().find(|r| r.metric == "run_s").unwrap();
            assert!(!run.pass, "{run:?}");
            assert!((run.ratio - 4.8 / 4.2).abs() < 1e-12);
        }
    }

    #[test]
    fn agree_holds_exact_counts_to_their_tight_bound() {
        let a = vec![result("w", 4.0, 31.0)];
        let b = vec![result("w", 4.0, 31.4)];
        let rows = agree(&a, &b, &bounds());
        let kb = rows
            .iter()
            .find(|r| r.metric == "written_kb_per_event")
            .unwrap();
        assert!(!kb.pass, "1.3 % apart is outside 1 %");
    }

    #[test]
    fn agree_fails_a_pairing_only_one_set_has() {
        let a = vec![result("w", 4.0, 31.0), result("v", 4.0, 31.0)];
        let b = vec![result("w", 4.0, 31.0)];
        let rows = agree(&a, &b, &bounds());
        assert!(rows.iter().filter(|r| r.workload == "w").all(|r| r.pass));
        assert!(rows.iter().filter(|r| r.workload == "v").all(|r| !r.pass));
    }

    #[test]
    fn pretty_keeps_order_and_round_trips() {
        let text = r#"{"b": [1, 2.5, "x\"y"], "a": {}, "c": {"d": null}}"#;
        let Raw(doc) = serde_json::from_str(text).unwrap();
        let printed = pretty(&doc);
        assert!(printed.find("\"b\"").unwrap() < printed.find("\"a\"").unwrap());
        let Raw(again) = serde_json::from_str(&printed).unwrap();
        assert_eq!(again, doc);
    }
}
