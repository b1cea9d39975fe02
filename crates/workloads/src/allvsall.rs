//! The all-vs-all process (paper §4, Fig. 3).
//!
//! Tasks, exactly as in the figure:
//!
//! 1. **User Input** — supplies the dataset name, result locations and the
//!    optional *queue file*; "its absence or presence determines which of
//!    the two possible successor tasks will be executed".
//! 2. **Queue Generation** — produces the full entry list when no queue
//!    file was given.
//! 3. **Task Preprocessing** — partitions the queue into `n` task
//!    execution units (TEUs).
//! 4. **Alignment** (parallel block, body = subprocess `AlignChunk`) —
//!    per TEU: *Fixed PAM Alignment* (fast pass at PAM 120) then
//!    *PAM-param Refinement* (re-align every match across the PAM ladder).
//! 5. **Merge by Entry #** — master file sorted by entry number.
//! 6. **Merge by PAM distance** — matches bucketed by refined distance.
//!
//! Two modes share the same templates:
//!
//! * [`AllVsAllMode::Real`] — alignments actually execute against a
//!   [`SequenceDb`]; used by the granularity experiment (Fig. 4), the
//!   examples and the recovery-equivalence tests.
//! * [`AllVsAllMode::Synthetic`] — TEU costs and match counts are derived
//!   from the same cost model over a deterministic length distribution;
//!   used for SP38-scale runs (Table 1, Figs. 5/6) where running 2.8×10⁹
//!   alignments for real would add nothing to the systems result.
//!
//! Redundant comparisons are ruled out across TEUs (footnote 2 of the
//! paper): entry `e` is aligned only against entries `f > e`, so with the
//! queue split into contiguous ranges early TEUs carry more work — the
//! size imbalance behind the paper's straggler explanation for segment S2
//! of Figure 4.

use bioopera_core::{ActivityLibrary, ProgramOutput};
use bioopera_darwin::align::{align_score_many, AlignParams, AlignScratch, ScoreOnly};
use bioopera_darwin::pam::{PamFamily, FIXED_PAM};
use bioopera_darwin::refine::{refine_query_banded, Refined};
use bioopera_darwin::{CostModel, Match, MatchSet, SequenceDb};
use bioopera_ocr::model::{ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{Expr, ProcessBuilder, ProcessTemplate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Workload configuration shared by both modes.
#[derive(Debug, Clone)]
pub struct AllVsAllConfig {
    /// Number of task execution units the Preprocessing step creates.
    pub teus: i64,
    /// Similarity threshold for a pair to count as a match.
    pub threshold: f32,
    /// Cost model (cells → reference CPU, Darwin init, dispatch overhead).
    pub cost: CostModel,
    /// Optional user-supplied queue file (entry indices).  When present,
    /// Queue Generation is skipped — the paper's conditional branch.
    pub queue_file: Option<Vec<i64>>,
}

impl Default for AllVsAllConfig {
    fn default() -> Self {
        AllVsAllConfig {
            teus: 25,
            threshold: 80.0,
            cost: CostModel::default(),
            queue_file: None,
        }
    }
}

/// How TEU work is produced.
#[derive(Clone)]
pub enum AllVsAllMode {
    /// Real alignments against a generated database.
    Real {
        /// The sequence database.
        db: Arc<SequenceDb>,
        /// The PAM family used for scoring and refinement.
        pam: Arc<PamFamily>,
    },
    /// Cost-model mode over a deterministic length distribution.
    Synthetic {
        /// Number of database entries (SP38: 75 458).
        n: usize,
        /// Per-entry lengths (seeded, SwissProt-like).
        lengths: Arc<Vec<u32>>,
        /// Suffix sums of lengths (`suffix[e] = Σ_{f ≥ e} len_f`).
        suffix: Arc<Vec<f64>>,
        /// Match rate per pair.
        match_rate: f64,
    },
}

impl AllVsAllMode {
    /// Number of entries in the database.
    pub fn n_entries(&self) -> usize {
        match self {
            AllVsAllMode::Real { db, .. } => db.len(),
            AllVsAllMode::Synthetic { n, .. } => *n,
        }
    }
}

/// A ready-to-register workload: both templates plus the activity library.
pub struct AllVsAllSetup {
    /// The top-level process.
    pub template: ProcessTemplate,
    /// The per-TEU subprocess.
    pub chunk_template: ProcessTemplate,
    /// The programs behind every activity.
    pub library: ActivityLibrary,
    /// The mode (for harness queries).
    pub mode: AllVsAllMode,
    /// The configuration.
    pub config: AllVsAllConfig,
}

impl AllVsAllSetup {
    /// Real-compute mode.
    pub fn real(db: Arc<SequenceDb>, pam: Arc<PamFamily>, config: AllVsAllConfig) -> Self {
        let mode = AllVsAllMode::Real { db, pam };
        Self::build(mode, config)
    }

    /// Cost-model mode with `n` entries of SwissProt-like lengths.
    pub fn synthetic(n: usize, mean_len: usize, seed: u64, config: AllVsAllConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let lengths: Vec<u32> = (0..n)
            .map(|_| {
                let u: f64 = (rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>()) / 3.0;
                ((mean_len as f64 * (1.6 * (u - 0.5)).exp()).round() as u32).max(30)
            })
            .collect();
        let mut suffix = vec![0.0f64; n + 1];
        for e in (0..n).rev() {
            suffix[e] = suffix[e + 1] + lengths[e] as f64;
        }
        let mode = AllVsAllMode::Synthetic {
            n,
            lengths: Arc::new(lengths),
            suffix: Arc::new(suffix),
            match_rate: config.cost.match_rate,
        };
        Self::build(mode, config)
    }

    fn build(mode: AllVsAllMode, config: AllVsAllConfig) -> Self {
        let template = top_template();
        let chunk_template = chunk_template();
        let library = build_library(&mode, &config);
        AllVsAllSetup {
            template,
            chunk_template,
            library,
            mode,
            config,
        }
    }

    /// The initial whiteboard for `submit`.
    pub fn initial(&self) -> BTreeMap<String, Value> {
        let mut init = BTreeMap::new();
        init.insert("db_name".to_string(), Value::from("sp38-synthetic"));
        init.insert("teus".to_string(), Value::Int(self.config.teus));
        if let Some(q) = &self.config.queue_file {
            init.insert("user_queue".to_string(), Value::int_list(q.iter().copied()));
        }
        init
    }
}

/// The top-level template (Fig. 3).
pub fn top_template() -> ProcessTemplate {
    ProcessBuilder::new("AllVsAll")
        .whiteboard_field("db_name", TypeTag::Str)
        .whiteboard_field("user_queue", TypeTag::List)
        .whiteboard_default("teus", TypeTag::Int, Value::Int(25))
        .whiteboard_field("match_count", TypeTag::Int)
        .whiteboard_field("digest", TypeTag::Str)
        .whiteboard_field("pam_buckets", TypeTag::List)
        .activity("UserInput", "ui.collect", |t| {
            t.input("db_name", TypeTag::Str)
                .input("user_queue", TypeTag::List)
                .output("db_name", TypeTag::Str)
                .output("queue_file", TypeTag::List)
                .output("output_files", TypeTag::List)
        })
        .activity("QueueGeneration", "darwin.queue_gen", |t| {
            t.input("db_name", TypeTag::Str)
                .output("queue_file", TypeTag::List)
                .retries(2)
        })
        .activity("Preprocessing", "darwin.partition", |t| {
            t.input("queue_file", TypeTag::List)
                .input("teus", TypeTag::Int)
                .output("partition", TypeTag::List)
                .retries(2)
        })
        .parallel(
            "Alignment",
            "partition",
            ParallelBody::Subprocess("AlignChunk".into()),
            "results",
            |t| t.retries(3),
        )
        .activity("MergeByEntry", "darwin.merge_entry", |t| {
            t.input("results", TypeTag::List)
                .output("match_count", TypeTag::Int)
                .output("digest", TypeTag::Str)
                .retries(2)
        })
        .activity("MergeByPam", "darwin.merge_pam", |t| {
            t.input("results", TypeTag::List)
                .output("pam_buckets", TypeTag::List)
                .retries(2)
        })
        .block("Head", ["UserInput", "QueueGeneration", "Preprocessing"])
        .connect_when(
            "UserInput",
            "QueueGeneration",
            Expr::undefined("UserInput.queue_file"),
        )
        .connect_when(
            "UserInput",
            "Preprocessing",
            Expr::defined("UserInput.queue_file"),
        )
        .connect("QueueGeneration", "Preprocessing")
        .connect("Preprocessing", "Alignment")
        .connect("Alignment", "MergeByEntry")
        .connect("Alignment", "MergeByPam")
        .flow_from_whiteboard("db_name", "UserInput", "db_name")
        .flow_from_whiteboard("user_queue", "UserInput", "user_queue")
        .flow_to_whiteboard("UserInput", "db_name", "db_name")
        .flow_to_task("UserInput", "db_name", "QueueGeneration", "db_name")
        .flow_to_task("UserInput", "queue_file", "Preprocessing", "queue_file")
        .flow_to_task(
            "QueueGeneration",
            "queue_file",
            "Preprocessing",
            "queue_file",
        )
        .flow_from_whiteboard("teus", "Preprocessing", "teus")
        .flow_to_task("Preprocessing", "partition", "Alignment", "partition")
        .flow_to_task("Alignment", "results", "MergeByEntry", "results")
        .flow_to_task("Alignment", "results", "MergeByPam", "results")
        .flow_to_whiteboard("MergeByEntry", "match_count", "match_count")
        .flow_to_whiteboard("MergeByEntry", "digest", "digest")
        .flow_to_whiteboard("MergeByPam", "pam_buckets", "pam_buckets")
        .build()
        .expect("all-vs-all template is valid")
}

/// The per-TEU subprocess: Fixed PAM Alignment → PAM-param Refinement.
pub fn chunk_template() -> ProcessTemplate {
    ProcessBuilder::new("AlignChunk")
        .whiteboard_field("item", TypeTag::Map)
        .whiteboard_field("index", TypeTag::Int)
        .whiteboard_field("refined", TypeTag::List)
        .whiteboard_field("match_count", TypeTag::Int)
        .activity("FixedPamAlignment", "darwin.align_fixed", |t| {
            t.input("item", TypeTag::Map)
                .output("matches", TypeTag::List)
                .output("synthetic_count", TypeTag::Int)
                .output("synthetic_cells", TypeTag::Float)
                .retries(2)
        })
        .activity("PamRefinement", "darwin.refine", |t| {
            t.input("matches", TypeTag::List)
                .input("synthetic_count", TypeTag::Int)
                .output("refined", TypeTag::List)
                .output("match_count", TypeTag::Int)
                .retries(2)
        })
        .connect("FixedPamAlignment", "PamRefinement")
        .flow_from_whiteboard("item", "FixedPamAlignment", "item")
        .flow_to_task("FixedPamAlignment", "matches", "PamRefinement", "matches")
        .flow_to_task(
            "FixedPamAlignment",
            "synthetic_count",
            "PamRefinement",
            "synthetic_count",
        )
        .flow_to_whiteboard("PamRefinement", "refined", "refined")
        .flow_to_whiteboard("PamRefinement", "match_count", "match_count")
        .build()
        .expect("chunk template is valid")
}

fn chunk_value(id: usize, entries: &[i64]) -> Value {
    Value::map_from([
        ("id", Value::Int(id as i64)),
        ("entries", Value::int_list(entries.iter().copied())),
    ])
}

fn chunk_entries(item: &Value) -> Result<Vec<u32>, String> {
    item.get_path(&["entries"])
        .and_then(|v| v.as_list())
        .map(|l| {
            l.iter()
                .filter_map(|x| x.as_int().map(|i| i as u32))
                .collect()
        })
        .ok_or_else(|| "chunk item has no entries".to_string())
}

/// Build the activity library for the given mode.
pub fn build_library(mode: &AllVsAllMode, config: &AllVsAllConfig) -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();
    let cost = config.cost;
    let threshold = config.threshold;
    let n_entries = mode.n_entries() as i64;

    // ---- User Input: echo the dataset and the optional queue file.
    lib.register("ui.collect", move |inputs| {
        let db = inputs
            .get("db_name")
            .cloned()
            .unwrap_or(Value::from("sp38"));
        let queue = inputs.get("user_queue").cloned().unwrap_or(Value::Null);
        let mut out = BTreeMap::new();
        out.insert("db_name".to_string(), db);
        out.insert("queue_file".to_string(), queue);
        out.insert(
            "output_files".to_string(),
            Value::from(vec!["master_file", "pam_sorted_alignment_file"]),
        );
        Ok(ProgramOutput {
            outputs: out,
            cost_ref_ms: 100.0,
        })
    });

    // ---- Queue Generation: the complete entry list [0, N).
    lib.register("darwin.queue_gen", move |_inputs| {
        Ok(ProgramOutput::from_fields(
            [("queue_file", Value::int_list(0..n_entries))],
            2_000.0,
        ))
    });

    // ---- Preprocessing: contiguous partition into `teus` chunks.
    lib.register("darwin.partition", move |inputs| {
        let queue: Vec<i64> = inputs
            .get("queue_file")
            .and_then(|v| v.as_list())
            .map(|l| l.iter().filter_map(|x| x.as_int()).collect())
            .ok_or_else(|| "partition needs a queue_file".to_string())?;
        let teus = inputs
            .get("teus")
            .and_then(|v| v.as_int())
            .unwrap_or(25)
            .max(1) as usize;
        let teus = teus.min(queue.len().max(1));
        let base = queue.len() / teus;
        let extra = queue.len() % teus;
        let mut chunks = Vec::with_capacity(teus);
        let mut off = 0usize;
        for id in 0..teus {
            let size = base + usize::from(id < extra);
            chunks.push(chunk_value(id, &queue[off..off + size]));
            off += size;
        }
        Ok(ProgramOutput::from_fields(
            [("partition", Value::List(chunks))],
            1_000.0 + queue.len() as f64 * 0.01,
        ))
    });

    // ---- Fixed PAM Alignment + PAM refinement: mode-specific.
    match mode {
        AllVsAllMode::Real { db, pam } => {
            let db_fixed = Arc::clone(db);
            let pam_fixed = Arc::clone(pam);
            lib.register("darwin.align_fixed", move |inputs| {
                let entries = chunk_entries(
                    inputs
                        .get("item")
                        .ok_or_else(|| "missing item".to_string())?,
                )?;
                // Every pair's `|a|·|b|` cells feed the cost model, the
                // pairs the upper-bound filter ruled out included.
                let (matches, cells) = fixed_pass(&db_fixed, &pam_fixed, &entries, threshold);
                let out_matches: Vec<Value> = matches
                    .iter()
                    .map(|m| {
                        Value::map_from([
                            ("q", Value::Int(m.query as i64)),
                            ("s", Value::Int(m.subject as i64)),
                            ("score", Value::Float(m.score as f64)),
                        ])
                    })
                    .collect();
                Ok(ProgramOutput::from_fields(
                    [("matches", Value::List(out_matches))],
                    cost.cells_ms(cells) + cost.darwin_init_ms,
                ))
            });
            let db_ref = Arc::clone(db);
            let pam_ref = Arc::clone(pam);
            lib.register("darwin.refine", move |inputs| {
                let matches = inputs
                    .get("matches")
                    .and_then(|v| v.as_list())
                    .ok_or_else(|| "refine needs matches".to_string())?;
                let id = |m: &Value, k: &str| {
                    m.get_path(&[k]).and_then(|v| v.as_int()).unwrap_or(0) as u32
                };
                let pairs: Vec<(u32, u32)> =
                    matches.iter().map(|m| (id(m, "q"), id(m, "s"))).collect();
                // Banded scan: identical argmax, but provably-losing
                // ladder cells are skipped and (honestly) cost nothing.
                let results = refine_pass(&db_ref, &pam_ref, &pairs);
                let mut refined = Vec::with_capacity(matches.len());
                let mut cells = 0u64;
                for ((m, &(q, s)), r) in matches.iter().zip(&pairs).zip(&results) {
                    cells += r.cells;
                    refined.push(Value::map_from([
                        ("q", Value::Int(q as i64)),
                        ("s", Value::Int(s as i64)),
                        (
                            "score",
                            m.get_path(&["score"]).cloned().unwrap_or(Value::Null),
                        ),
                        ("rscore", Value::Float(r.score as f64)),
                        ("pam", Value::Int(r.pam_distance as i64)),
                    ]));
                }
                let count = refined.len() as i64;
                Ok(ProgramOutput::from_fields(
                    [
                        ("refined", Value::List(refined)),
                        ("match_count", Value::Int(count)),
                    ],
                    cost.cells_ms(cells) + cost.darwin_init_ms,
                ))
            });
        }
        AllVsAllMode::Synthetic {
            n,
            lengths,
            suffix,
            match_rate,
        } => {
            let n = *n;
            let match_rate = *match_rate;
            let lengths_fixed = Arc::clone(lengths);
            let suffix_fixed = Arc::clone(suffix);
            lib.register("darwin.align_fixed", move |inputs| {
                let entries = chunk_entries(
                    inputs
                        .get("item")
                        .ok_or_else(|| "missing item".to_string())?,
                )?;
                let mut cells = 0.0f64;
                let mut pairs = 0.0f64;
                for &e in &entries {
                    let e = e as usize;
                    if e + 1 < n {
                        cells += lengths_fixed[e] as f64 * suffix_fixed[e + 1];
                        pairs += (n - e - 1) as f64;
                    }
                }
                let match_count = (pairs * match_rate).round() as i64;
                Ok(ProgramOutput::from_fields(
                    [
                        ("matches", Value::List(Vec::new())),
                        ("synthetic_count", Value::Int(match_count)),
                        ("synthetic_cells", Value::Float(cells)),
                    ],
                    cells * cost.cell_ns / 1e6 + cost.darwin_init_ms,
                ))
            });
            let mean_len: f64 = suffix[0] / n as f64;
            let ladder = cost.refine_ladder as f64;
            lib.register("darwin.refine", move |inputs| {
                let count = inputs
                    .get("synthetic_count")
                    .and_then(|v| v.as_int())
                    .unwrap_or(0);
                let refine_cells = count as f64 * ladder * mean_len * mean_len;
                Ok(ProgramOutput::from_fields(
                    [
                        ("refined", Value::List(Vec::new())),
                        ("match_count", Value::Int(count)),
                    ],
                    refine_cells * cost.cell_ns / 1e6 + cost.darwin_init_ms,
                ))
            });
        }
    }

    // ---- Merge by Entry #: canonical master file + digest.
    lib.register("darwin.merge_entry", move |inputs| {
        let results = inputs
            .get("results")
            .and_then(|v| v.as_list())
            .ok_or_else(|| "merge needs results".to_string())?;
        let mut set = MatchSet::new();
        let mut synthetic_total = 0i64;
        for r in results {
            if let Some(list) = r.get_path(&["refined"]).and_then(|v| v.as_list()) {
                for m in list {
                    let q = m.get_path(&["q"]).and_then(|v| v.as_int()).unwrap_or(0) as u32;
                    let s = m.get_path(&["s"]).and_then(|v| v.as_int()).unwrap_or(0) as u32;
                    let score = m
                        .get_path(&["score"])
                        .and_then(|v| v.as_float())
                        .unwrap_or(0.0) as f32;
                    let rscore = m
                        .get_path(&["rscore"])
                        .and_then(|v| v.as_float())
                        .unwrap_or(0.0) as f32;
                    let pam = m.get_path(&["pam"]).and_then(|v| v.as_int()).unwrap_or(0) as u32;
                    set.matches.push(Match {
                        query: q,
                        subject: s,
                        score,
                        refined_score: rscore,
                        pam_distance: pam,
                    });
                }
            }
            synthetic_total += r
                .get_path(&["match_count"])
                .and_then(|v| v.as_int())
                .unwrap_or(0);
        }
        set.sort_by_entry();
        let (count, digest) = if set.is_empty() {
            (synthetic_total, format!("synthetic:{synthetic_total}"))
        } else {
            (set.len() as i64, format!("{:016x}", set.digest()))
        };
        Ok(ProgramOutput::from_fields(
            [
                ("match_count", Value::Int(count)),
                ("digest", Value::from(digest)),
            ],
            2_000.0 + count as f64 * 0.005,
        ))
    });

    // ---- Merge by PAM distance: bucket counts per refined distance.
    lib.register("darwin.merge_pam", move |inputs| {
        let results = inputs
            .get("results")
            .and_then(|v| v.as_list())
            .ok_or_else(|| "merge needs results".to_string())?;
        let mut buckets: BTreeMap<i64, i64> = BTreeMap::new();
        for r in results {
            if let Some(list) = r.get_path(&["refined"]).and_then(|v| v.as_list()) {
                for m in list {
                    let pam = m.get_path(&["pam"]).and_then(|v| v.as_int()).unwrap_or(0);
                    *buckets.entry(pam).or_default() += 1;
                }
            }
        }
        let out: Vec<Value> = buckets
            .into_iter()
            .map(|(pam, count)| {
                Value::map_from([("pam", Value::Int(pam)), ("count", Value::Int(count))])
            })
            .collect();
        Ok(ProgramOutput::from_fields(
            [("pam_buckets", Value::List(out))],
            2_000.0,
        ))
    });

    lib
}

/// Worker threads for the real-mode passes: one per core (real
/// wall-clock only; the *virtual* cost comes from the exact DP cell
/// count, which is deterministic).
fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Run `f` over `items` on `workers` threads and return its results in
/// input order.
///
/// Items are handed out one index at a time through an atomic counter
/// (work-stealing), so a worker that draws a short item immediately
/// grabs the next one instead of idling behind a pre-assigned chunk.
/// Each worker builds its own `state` once (an [`AlignScratch`] and its
/// buffers).  Results are keyed by index and put back in input order,
/// so the output is byte-identical for any worker count or interleaving.
fn steal_in_order<T: Sync, S, R: Send>(
    items: &[T],
    workers: usize,
    state: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let workers = workers.clamp(1, items.len().max(1));
    // Relaxed: the counter only hands out indices; the results travel
    // back through `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut st = state();
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(k) else { break };
                        done.push((k, f(&mut st, item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("alignment worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|(k, _)| *k);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The fixed-PAM pass over a chunk: entry `e` vs every `f > e`, on one
/// worker per core.
fn fixed_pass(
    db: &SequenceDb,
    pam: &PamFamily,
    entries: &[u32],
    threshold: f32,
) -> (Vec<Match>, u64) {
    fixed_pass_with_workers(db, pam, entries, threshold, workers())
}

/// `fixed_pass` with an explicit worker count, exposed so tests can
/// assert the result is worker-count-invariant.
///
/// Entries are work-stolen one at a time: entry `e` aligns against all
/// `f > e`, so contiguous chunking would leave the last worker with far
/// fewer cells than the first.  Per entry, one query profile build is
/// amortized over the whole `f > e` batch, with zero per-pair
/// allocation.  `align_score_many` gets the threshold, so its upper-bound
/// filter leaves the f32 lane only the pairs that may reach it; a match's
/// score is still its exact one.  Returns `(matches, cells)`, `cells`
/// counting `|a|·|b|` for every pair.
pub fn fixed_pass_with_workers(
    db: &SequenceDb,
    pam: &PamFamily,
    entries: &[u32],
    threshold: f32,
    workers: usize,
) -> (Vec<Match>, u64) {
    let params = AlignParams::default();
    let matrix = pam.nearest(FIXED_PAM);
    let n = db.len() as u32;
    let results = steal_in_order(
        entries,
        workers,
        || (AlignScratch::new(), Vec::<ScoreOnly>::new()),
        |(scratch, scores), &e| {
            let mut matches = Vec::new();
            let mut cells = 0u64;
            if e + 1 < n {
                align_score_many(
                    db.get(e),
                    ((e + 1)..n).map(|f| db.get(f)),
                    matrix,
                    &params,
                    Some(threshold),
                    scratch,
                    scores,
                );
                for (off, r) in scores.iter().enumerate() {
                    cells += r.cells;
                    if r.score >= threshold {
                        matches.push(Match::unrefined(e, e + 1 + off as u32, r.score));
                    }
                }
            }
            (matches, cells)
        },
    );
    let mut matches = Vec::new();
    let mut cells = 0u64;
    for (m, c) in results {
        matches.extend(m);
        cells += c;
    }
    (matches, cells)
}

/// The refinement of a chunk's matches, on one worker per core.
fn refine_pass(db: &SequenceDb, pam: &PamFamily, pairs: &[(u32, u32)]) -> Vec<Refined> {
    refine_pass_with_workers(db, pam, pairs, workers())
}

/// `refine_pass` with an explicit worker count, exposed so tests can
/// assert the result is worker-count-invariant.
///
/// Consecutive `(query, subject)` pairs with the same query form one
/// group (the fixed pass emits each query's matches together), and each
/// group is one [`refine_query_banded`] call: one query profile per
/// ladder matrix instead of one per (pair, matrix).  Groups are
/// work-stolen like the fixed pass's entries.  Returns one [`Refined`]
/// per pair, in input order, each equal to the pair's own banded scan.
pub fn refine_pass_with_workers(
    db: &SequenceDb,
    pam: &PamFamily,
    pairs: &[(u32, u32)],
    workers: usize,
) -> Vec<Refined> {
    let params = AlignParams::default();
    let groups: Vec<&[(u32, u32)]> = pairs.chunk_by(|x, y| x.0 == y.0).collect();
    let results = steal_in_order(
        &groups,
        workers,
        || (AlignScratch::new(), Vec::new()),
        |(scratch, subjects), group| {
            subjects.clear();
            subjects.extend(group.iter().map(|&(_, s)| db.get(s)));
            let mut out = Vec::with_capacity(group.len());
            refine_query_banded(
                db.get(group[0].0),
                subjects,
                pam,
                &params,
                scratch,
                &mut out,
            );
            out
        },
    );
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioopera_cluster::{Cluster, NodeSpec, SimTime};
    use bioopera_core::{Driver, Runtime, RuntimeConfig};
    use bioopera_darwin::dataset::DatasetConfig;
    use bioopera_store::MemDisk;

    fn tiny_db() -> (Arc<SequenceDb>, Arc<PamFamily>) {
        let pam = Arc::new(PamFamily::default());
        let db = Arc::new(SequenceDb::generate(
            &DatasetConfig {
                size: 30,
                seed: 5,
                mean_len: 80,
                ..DatasetConfig::small(30, 5)
            },
            &pam,
        ));
        (db, pam)
    }

    fn cluster() -> Cluster {
        Cluster::new(
            "t",
            (0..4)
                .map(|i| NodeSpec::new(format!("n{i}"), 1, 500, "linux"))
                .collect(),
        )
    }

    fn run_setup(setup: &AllVsAllSetup) -> (Runtime<MemDisk>, u64) {
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_mins(10),
            ..Default::default()
        };
        let mut rt = Runtime::new(MemDisk::new(), cluster(), setup.library.clone(), cfg).unwrap();
        rt.register_template(&setup.chunk_template).unwrap();
        rt.register_template(&setup.template).unwrap();
        let id = rt.submit("AllVsAll", setup.initial()).unwrap();
        rt.run_to_completion().unwrap();
        (rt, id)
    }

    #[test]
    fn templates_validate_and_print() {
        let t = top_template();
        let c = chunk_template();
        // Round-trip through the OCR text format.
        let t2 = bioopera_ocr::parse_process(&bioopera_ocr::to_ocr_text(&t)).unwrap();
        assert_eq!(t2, t);
        let c2 = bioopera_ocr::parse_process(&bioopera_ocr::to_ocr_text(&c)).unwrap();
        assert_eq!(c2, c);
    }

    #[test]
    fn real_mode_end_to_end_finds_family_matches() {
        let (db, pam) = tiny_db();
        let setup = AllVsAllSetup::real(
            Arc::clone(&db),
            Arc::clone(&pam),
            AllVsAllConfig {
                teus: 4,
                ..Default::default()
            },
        );
        let (rt, id) = run_setup(&setup);
        assert_eq!(
            rt.instance_status(id),
            Some(bioopera_core::InstanceStatus::Completed)
        );
        let wb = rt.whiteboard(id).unwrap();
        let count = wb["match_count"].as_int().unwrap();
        assert!(count > 0, "a family-rich database must produce matches");
        // Sanity: matches correspond to real homologies more often than not.
        let buckets = wb["pam_buckets"].as_list().unwrap();
        assert!(!buckets.is_empty());
        let bucket_total: i64 = buckets
            .iter()
            .map(|b| b.get_path(&["count"]).and_then(|v| v.as_int()).unwrap_or(0))
            .sum();
        assert_eq!(bucket_total, count, "PAM buckets partition the match set");
        // QueueGeneration ran (no user queue file).
        assert_eq!(
            rt.task_record(id, "QueueGeneration").unwrap().state,
            bioopera_core::TaskState::Ended
        );
    }

    #[test]
    fn queue_file_branch_skips_queue_generation() {
        let (db, pam) = tiny_db();
        let setup = AllVsAllSetup::real(
            db,
            pam,
            AllVsAllConfig {
                teus: 2,
                queue_file: Some((0..10).collect()),
                ..Default::default()
            },
        );
        let (rt, id) = run_setup(&setup);
        assert_eq!(
            rt.task_record(id, "QueueGeneration").unwrap().state,
            bioopera_core::TaskState::Skipped
        );
        assert_eq!(
            rt.instance_status(id),
            Some(bioopera_core::InstanceStatus::Completed)
        );
    }

    #[test]
    fn results_are_identical_across_teu_counts() {
        // The partitioning must not change the match set: digests agree.
        let (db, pam) = tiny_db();
        let digest_for = |teus| {
            let setup = AllVsAllSetup::real(
                Arc::clone(&db),
                Arc::clone(&pam),
                AllVsAllConfig {
                    teus,
                    ..Default::default()
                },
            );
            let (rt, id) = run_setup(&setup);
            rt.whiteboard(id).unwrap()["digest"].clone()
        };
        let d1 = digest_for(1);
        let d4 = digest_for(4);
        let d13 = digest_for(13);
        assert_eq!(d1, d4);
        assert_eq!(d1, d13);
    }

    #[test]
    fn synthetic_mode_scales_to_sp38_sizes_quickly() {
        let setup = AllVsAllSetup::synthetic(
            75_458,
            370,
            38,
            AllVsAllConfig {
                teus: 50,
                ..Default::default()
            },
        );
        let (rt, id) = run_setup(&setup);
        assert_eq!(
            rt.instance_status(id),
            Some(bioopera_core::InstanceStatus::Completed)
        );
        let stats = rt.stats(id).unwrap();
        // Hundreds of reference-CPU-days (Table 1 scale).
        assert!(
            stats.cpu.as_days_f64() > 50.0,
            "SP38 CPU should be months: {}",
            stats.cpu
        );
        // 50 TEUs × 2 activities + head/merges.
        assert!(stats.activities >= 104, "activities {}", stats.activities);
        let wb = rt.whiteboard(id).unwrap();
        assert!(wb["match_count"].as_int().unwrap() > 1_000_000);
    }

    #[test]
    fn contiguous_partition_makes_early_teus_heavier() {
        let setup = AllVsAllSetup::synthetic(
            10_000,
            370,
            7,
            AllVsAllConfig {
                teus: 10,
                ..Default::default()
            },
        );
        // Call the partition + align_fixed programs directly.
        let lib = &setup.library;
        let partition = lib.get("darwin.partition").unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert("queue_file".to_string(), Value::int_list(0..10_000));
        inputs.insert("teus".to_string(), Value::Int(10));
        let chunks = partition(&inputs).unwrap().outputs["partition"].clone();
        let chunks = chunks.as_list().unwrap();
        assert_eq!(chunks.len(), 10);
        let fixed = lib.get("darwin.align_fixed").unwrap();
        let cost_of = |chunk: &Value| {
            let mut i = BTreeMap::new();
            i.insert("item".to_string(), chunk.clone());
            fixed(&i).unwrap().cost_ref_ms
        };
        let first = cost_of(&chunks[0]);
        let last = cost_of(&chunks[9]);
        assert!(
            first > 5.0 * last,
            "f>e dedup makes the first TEU much heavier: {first} vs {last}"
        );
    }
}
