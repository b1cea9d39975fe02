//! Smith–Waterman local alignment with affine gaps (Gotoh's algorithm).
//!
//! "This software offers a dynamic programming local alignment algorithm
//! which uses the GCB scoring matrices and an affine gap penalty" (§4).
//! Entry points:
//!
//! * [`align_score`] — score-only, the hot path for the all-vs-all's
//!   fixed-PAM pass and PAM refinement.  Internally this runs the
//!   **query-profile kernel**: the score matrix is first flattened into a
//!   per-query profile (one contiguous 20-row table of
//!   `score(query[i], r)` per residue `r`), so the DP inner loop reads one
//!   cache-resident row per subject residue instead of double-indexing the
//!   20×20 matrix, and H/E/F travel in registers over a single rolling
//!   row pair.
//! * [`align_score_with`] / [`align_score_many`] — the same kernel with a
//!   caller-provided [`AlignScratch`], eliminating every per-pair heap
//!   allocation; `align_score_many` takes a whole batch of subjects (one
//!   query vs the rest of the database) and scores it across subjects.
//!   Given a threshold, its scores are exact above it: an upper-bound
//!   filter rules out the subjects that cannot reach it first.
//! * [`align_score_naive`] — the original three-`Vec`-per-call rolling
//!   implementation, kept as the reference oracle: the profile kernel is
//!   **bit-identical** to it (same `score`, same `cells`), which the
//!   darwin proptests verify across the whole PAM ladder.
//! * `AlignScratch::align_loaded_bounded` (crate-internal) — the
//!   score-to-beat kernel of the PAM-ladder refinement's adaptive banding
//!   ([`crate::refine::refine_query_banded`]); skipped work is reported
//!   via [`ScoreOnly::cells_skipped`].
//! * [`align_local`] / [`align_local_with`] — full traceback, used where
//!   the actual alignment is needed (the tower-of-information example,
//!   tests); the `_with` form reuses the scratch's traceback matrices.
//!
//! On x86_64 the score-only entry points dispatch to the SIMD kernels in
//! [`crate::simd`] (SSE2/AVX2, runtime-detected, still
//! bit-identical): [`align_score_many`] to the **inter-sequence lane**,
//! which holds one subject per vector lane and refills a lane from the
//! batch whenever its subject ends, and the pairwise and banded entry
//! points to the **striped lane**, which spreads one query over the
//! lanes.  Both are exact only for `open >= ext >= 0`; other gap
//! parameters, and the `BIOOPERA_SIMD=scalar` escape hatch, take the
//! scalar wavefront kernel below, which is also the portable fallback.
//! With a threshold, [`align_score_many`] first runs the **upper-bound
//! filter**, the inter-sequence pass in saturating u8 on a scaled,
//! biased matrix (16 or 32 subjects per vector), and hands the f32
//! lane only the subjects whose bound reaches the threshold.  Both passes
//! share one lane driver, `run_lanes`.
//!
//! Why bit-identity holds: the profile kernel iterates subject-outer /
//! query-inner, i.e. it computes the transposed DP matrix.  The score
//! matrix is bitwise symmetric (its builder averages the two odds in a
//! commutative f64 sum), the gap parameters are shared by both gap
//! directions, so transposition only swaps the roles of E and F inside
//! `diag.max(E).max(F).max(0)` — and `f32::max` over the values arising
//! here (no NaNs, no negative zeros) is exactly commutative.  The best
//! score is a max over all cells, which is order-independent, and
//! `cells = |a|·|b|` is symmetric.

use crate::alphabet::ALPHABET_SIZE;
use crate::pam::ScoreMatrix;
use crate::sequence::Sequence;
use crate::simd::{self, SimdLevel, LANE_MATRIX_ROWS};

/// Affine gap parameters: a gap of length `L` costs `open + extend·(L-1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignParams {
    /// Cost of opening a gap (positive number, subtracted).
    pub gap_open: f32,
    /// Cost of each further gapped position.
    pub gap_extend: f32,
}

impl Default for AlignParams {
    fn default() -> Self {
        // Tuned for the 10·log10-odds PAM family: diagonal entries run
        // ~4–18, so opening costs about two identities.
        AlignParams {
            gap_open: 22.0,
            gap_extend: 1.5,
        }
    }
}

/// Score-only result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreOnly {
    /// Best local alignment score (≥ 0).
    pub score: f32,
    /// DP cells computed (the unit of the cost model).
    pub cells: u64,
    /// DP cells provably irrelevant and skipped (banding).
    /// `cells + cells_skipped` always equals `|a|·|b|`, so a banded scan
    /// cannot silently distort cells/sec accounting.
    pub cells_skipped: u64,
}

/// The result of a subject no lane scored: an empty one, or one whose
/// slot waits for its lane to finish.
const NO_CELLS: ScoreOnly = ScoreOnly {
    score: 0.0,
    cells: 0,
    cells_skipped: 0,
};

/// Reusable alignment workspace: the query profile (linear and striped),
/// the rolling DP rows, the striped DP columns, the inter-sequence lane's
/// and the filter's columns and tables, and the traceback matrices.  One
/// scratch per worker thread removes every per-pair heap allocation from
/// the all-vs-all hot loop; buffers only ever grow.
#[derive(Debug, Clone)]
pub struct AlignScratch {
    /// Rolling H row over query positions (`len + 1` entries, `h[0] = 0`).
    h: Vec<f32>,
    /// Rolling E row (gap in the subject direction).
    e: Vec<f32>,
    /// Query profile: row `r` at `profile[r*len .. (r+1)*len]` holds
    /// `score(query[i], r)` for each query position `i`.
    profile: Vec<f32>,
    /// Query length currently loaded into the profile.
    len: usize,
    /// Safe upper bound on any alignment score using all query positions
    /// (sum over positions of the per-position best score, f64 with an
    /// upward margin); the banded path's whole-matrix skip.
    bound_sum: f32,
    /// Largest per-position best score (bounds short subjects).
    bound_peak: f32,
    /// SIMD lane the striped kernel dispatches to (fixed at construction).
    level: SimdLevel,
    /// Stripe segment length (vectors per stripe); 0 when no striped
    /// profile is loaded (scalar level or empty query).
    seg: usize,
    /// Striped query profile: residue `r`'s block at
    /// `striped[r*seg*lanes ..]`, vector `t` lane `l` holding
    /// `score(query[l*seg + t], r)` and `-inf` beyond the query (padding
    /// can never win the max).
    striped: Vec<f32>,
    /// Striped H column ping-pong pair for the SIMD lane.
    sh_a: Vec<f32>,
    sh_b: Vec<f32>,
    /// Striped E column for the SIMD lane.
    se: Vec<f32>,
    /// Inter-sequence lane ([`align_score_many`]): one vector of H and
    /// one of E per query row, lane `l` belonging to lane `l`'s subject.
    lane_h: Vec<f32>,
    lane_e: Vec<f32>,
    /// The score matrix by subject residue, `lane_matrix[r * ALPHABET_SIZE
    /// + q] = score(q, r)`, plus a last row of `-inf` scores ([`PAST_END`]).
    lane_matrix: Vec<f32>,
    /// The pass's two column tables (layout in `simd::run_interseq`).
    lane_tables: Vec<f32>,
    /// The upper-bound filter ([`AlignScratch::filter_across`]): its
    /// scaled score rows by query residue (`simd::run_filter`), its
    /// per-row H and E vectors and its two column tables.
    filter_rows: Vec<u8>,
    filter_h: Vec<u8>,
    filter_e: Vec<u8>,
    filter_tables: Vec<u8>,
    /// The filter's candidates, in subject order: each one's slot in the
    /// batch's output and its residues' range in `candidate_residues`.
    candidates: Vec<(usize, usize, usize)>,
    candidate_residues: Vec<u8>,
    /// Subjects the last [`align_score_many`] re-scored after the
    /// filter; `None` when the filter did not run.
    rescored: Option<usize>,
    /// Per-subject-residue best profile entry (adaptive-banding bounds).
    row_best: [f32; ALPHABET_SIZE],
    /// Per-column suffix score bounds for the banded path.
    suffix: Vec<f32>,
    /// Full H/E/F matrices for [`align_local_with`] tracebacks.
    tb_h: Vec<f32>,
    tb_e: Vec<f32>,
    tb_f: Vec<f32>,
}

impl Default for AlignScratch {
    fn default() -> Self {
        AlignScratch::with_level(simd::detect())
    }
}

impl AlignScratch {
    /// An empty workspace at the detected SIMD level.
    pub fn new() -> Self {
        AlignScratch::default()
    }

    /// An empty workspace pinned to `level`, clamped to what the host
    /// supports.  Exists for tests and benches that compare lanes;
    /// normal callers use [`AlignScratch::new`].
    pub fn with_level(level: SimdLevel) -> Self {
        AlignScratch {
            h: Vec::new(),
            e: Vec::new(),
            profile: Vec::new(),
            len: 0,
            bound_sum: 0.0,
            bound_peak: 0.0,
            level: level.min(simd::max_supported()),
            seg: 0,
            striped: Vec::new(),
            sh_a: Vec::new(),
            sh_b: Vec::new(),
            se: Vec::new(),
            lane_h: Vec::new(),
            lane_e: Vec::new(),
            lane_matrix: Vec::new(),
            lane_tables: Vec::new(),
            filter_rows: Vec::new(),
            filter_h: Vec::new(),
            filter_e: Vec::new(),
            filter_tables: Vec::new(),
            candidates: Vec::new(),
            candidate_residues: Vec::new(),
            rescored: None,
            row_best: [f32::NEG_INFINITY; ALPHABET_SIZE],
            suffix: Vec::new(),
            tb_h: Vec::new(),
            tb_e: Vec::new(),
            tb_f: Vec::new(),
        }
    }

    /// The SIMD lane this scratch dispatches to.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// How many subjects the last [`align_score_many`] call passed from
    /// the upper-bound filter to the f32 lane, or `None` when that call
    /// ran no filter (no threshold, or one of the filter's fallbacks).
    pub fn rescored(&self) -> Option<usize> {
        self.rescored
    }

    /// Load `query` under matrix `m`: build the contiguous profile rows
    /// (plus the striped layout when a SIMD lane is active), size the
    /// rolling DP rows, and refresh the banding bounds.
    pub fn set_query(&mut self, query: &Sequence, m: &ScoreMatrix) {
        let len = query.residues.len();
        self.len = len;
        self.h.resize(len + 1, 0.0);
        self.e.resize(len + 1, 0.0);
        self.profile.clear();
        self.profile.reserve(ALPHABET_SIZE * len);
        for r in 0..ALPHABET_SIZE {
            self.profile
                .extend(query.residues.iter().map(|&q| m.score(q as usize, r)));
        }
        // Score bound: the best local alignment cannot beat the sum of the
        // per-position best substitution scores (gaps only subtract).  The
        // DP accumulates in f32 and can round upward, so pad the f64 sum
        // with a margin far above any accumulated rounding error.  The
        // same scan collects the per-residue column best (`row_best`),
        // which the banded path turns into per-subject-column bounds.
        self.row_best = [f32::NEG_INFINITY; ALPHABET_SIZE];
        let mut sum = 0.0f64;
        let mut peak = 0.0f64;
        for i in 0..len {
            let mut best = f32::NEG_INFINITY;
            for r in 0..ALPHABET_SIZE {
                let sc = self.profile[r * len + i];
                best = best.max(sc);
                if sc > self.row_best[r] {
                    self.row_best[r] = sc;
                }
            }
            let best = best.max(0.0) as f64;
            sum += best;
            peak = peak.max(best);
        }
        self.bound_sum = (sum * (1.0 + 1e-5) + 1e-2) as f32;
        self.bound_peak = (peak * (1.0 + 1e-5) + 1e-2) as f32;
        // Striped layout for the SIMD lane: lane `l` of vector `t` owns
        // query position `l*seg + t`.
        let lanes = self.level.lanes();
        if lanes > 1 && len > 0 {
            let seg = len.div_ceil(lanes);
            self.seg = seg;
            let stride = seg * lanes;
            self.striped.clear();
            self.striped
                .resize(ALPHABET_SIZE * stride, f32::NEG_INFINITY);
            for r in 0..ALPHABET_SIZE {
                let row = &self.profile[r * len..(r + 1) * len];
                let dst = &mut self.striped[r * stride..(r + 1) * stride];
                for (i, &sc) in row.iter().enumerate() {
                    dst[(i % seg) * lanes + i / seg] = sc;
                }
            }
            self.sh_a.resize(stride, 0.0);
            self.sh_b.resize(stride, 0.0);
            self.se.resize(stride, 0.0);
        } else {
            self.seg = 0;
        }
    }

    /// Safe upper bound on the score of the loaded query against any
    /// subject of `subject_len` residues.
    pub fn score_upper_bound(&self, subject_len: usize) -> f32 {
        if subject_len >= self.len {
            self.bound_sum
        } else {
            self.bound_peak * subject_len as f32
        }
    }

    /// Per-column suffix bounds for the banded path: `suffix[j]` safely
    /// bounds what subject columns `j..` can add to any alignment score
    /// (sum of per-residue best profile entries; gaps only subtract).
    /// Computed in f64 with the same upward margin as the score bound,
    /// so f32 rounding inside the DP can never make the bound unsafe.
    fn build_suffix(&mut self, subject: &[u8]) {
        let nb = subject.len();
        self.suffix.clear();
        self.suffix.resize(nb + 1, 0.0);
        let mut acc = 0.0f64;
        for j in (0..nb).rev() {
            acc += f64::from(self.row_best[subject[j] as usize].max(0.0));
            self.suffix[j] = (acc * (1.0 + 1e-5) + 1e-2) as f32;
        }
    }

    /// Run the loaded query against one subject (score only), dispatching
    /// to the striped SIMD kernel when one is loaded and to the scalar
    /// wavefront kernel otherwise.  Both are bit-identical to
    /// [`align_score_naive`].
    fn align_loaded(&mut self, subject: &[u8], p: &AlignParams) -> ScoreOnly {
        self.align_loaded_bounded(subject, p, None)
    }

    /// [`AlignScratch::align_loaded`], optionally **banded**: with
    /// `beat = Some(s)` the kernel may skip provably-losing work — the
    /// whole matrix when the query's [`AlignScratch::score_upper_bound`]
    /// cannot reach `s`, or a suffix of subject columns once no
    /// unprocessed cell can lift the final score above `s`.  Whenever the
    /// true score exceeds `s` the result is exactly the unbanded one;
    /// otherwise the returned score is a partial best that is provably
    /// `<= s`, with the unvisited cells reported in `cells_skipped`.  The
    /// PAM-ladder refinement runs it with one profile per matrix shared
    /// by all of a query's subjects ([`crate::refine::refine_query_banded`]).
    pub(crate) fn align_loaded_bounded(
        &mut self,
        subject: &[u8],
        p: &AlignParams,
        beat: Option<f32>,
    ) -> ScoreOnly {
        let nq = self.len;
        let nb = subject.len();
        if nq == 0 || nb == 0 {
            return ScoreOnly {
                score: 0.0,
                cells: 0,
                cells_skipped: 0,
            };
        }
        if let Some(beat) = beat {
            // Whole-matrix skip: the loaded query cannot beat `beat`
            // against any subject of this length.
            if self.score_upper_bound(nb) <= beat {
                return ScoreOnly {
                    score: 0.0,
                    cells: 0,
                    cells_skipped: nq as u64 * nb as u64,
                };
            }
            self.build_suffix(subject);
        }
        let (best, cols) = if self.simd_ok(p) {
            let stride = self.seg * self.level.lanes();
            self.sh_a[..stride].fill(0.0);
            self.sh_b[..stride].fill(0.0);
            self.se[..stride].fill(f32::NEG_INFINITY);
            let AlignScratch {
                level,
                seg,
                striped,
                sh_a,
                sh_b,
                se,
                suffix,
                ..
            } = self;
            let band = beat.map(|b| (&suffix[..], b));
            simd::run_striped(
                *level,
                striped,
                *seg,
                sh_a,
                sh_b,
                se,
                subject,
                p.gap_open,
                p.gap_extend,
                band,
            )
        } else {
            self.align_scalar_bounded(subject, p, beat)
        };
        ScoreOnly {
            score: best,
            cells: nq as u64 * cols as u64,
            cells_skipped: nq as u64 * (nb - cols) as u64,
        }
    }

    /// Whether a SIMD kernel may score under `p`.  Both feed the F chain
    /// from the cell before F is folded in, and the striped lane's lazy-F
    /// sweep propagates the wrapped F chain by pure gap-extension decay:
    /// exact only when `open >= extend >= 0` (true for any sane affine
    /// model).  Exotic parameters take the scalar kernel.  `seg > 0`
    /// means a SIMD level and a non-empty query.
    fn simd_ok(&self, p: &AlignParams) -> bool {
        self.seg > 0 && p.gap_open >= p.gap_extend && p.gap_extend >= 0.0
    }

    /// Score the loaded `query` against every subject on the
    /// inter-sequence lanes, pushing one result per subject onto `out`
    /// in subject order.  With `min_score = Some(t)` and a filter that
    /// applies ([`AlignScratch::load_filter`]), the u8 filter runs over
    /// the batch first and the f32 lane re-scores only its candidates;
    /// otherwise the f32 lane scores every subject.  Requires
    /// [`AlignScratch::simd_ok`].
    fn align_across<'s>(
        &mut self,
        query: &[u8],
        subjects: impl Iterator<Item = &'s Sequence>,
        m: &ScoreMatrix,
        p: &AlignParams,
        min_score: Option<f32>,
        out: &mut Vec<ScoreOnly>,
    ) {
        self.lane_matrix.clear();
        for r in 0..ALPHABET_SIZE {
            self.lane_matrix
                .extend((0..ALPHABET_SIZE).map(|q| m.score(q, r)));
        }
        self.lane_matrix.extend([f32::NEG_INFINITY; ALPHABET_SIZE]);
        let filter = min_score.and_then(|t| self.load_filter(query, m, p, t));
        let query = simd::Query::new(query);
        // Every subject takes its slot in `out` as the batch hands it
        // out; an empty one keeps its empty result and takes no lane.
        let mut subjects = subjects.map(|b| &b.residues[..]);
        let next = move |out: &mut Vec<ScoreOnly>| {
            for b in subjects.by_ref() {
                out.push(NO_CELLS);
                if !b.is_empty() {
                    return Some((out.len() - 1, b));
                }
            }
            None
        };
        let Some(filter) = filter else {
            self.exact_across(query, p, out, next);
            return;
        };
        self.filter_across(query, filter, out, next);
        // The candidates' residues were copied out of the batch, which
        // this call can walk only once.  The buffers leave the scratch
        // while the f32 lane borrows it, and go back for the next call.
        let candidates = std::mem::take(&mut self.candidates);
        let residues = std::mem::take(&mut self.candidate_residues);
        let mut again = candidates
            .iter()
            .map(|&(slot, from, to)| (slot, &residues[from..to]));
        self.exact_across(query, p, out, |_| again.next());
        self.rescored = Some(candidates.len());
        self.candidates = candidates;
        self.candidate_residues = residues;
    }

    /// The f32 inter-sequence lane over the subjects `next` hands out:
    /// each one's exact score and `|a|·|b|` cells, into its slot.
    fn exact_across<'a>(
        &mut self,
        query: simd::Query<'_>,
        p: &AlignParams,
        out: &mut Vec<ScoreOnly>,
        next: impl FnMut(&mut Vec<ScoreOnly>) -> Option<(usize, &'a [u8])>,
    ) {
        let nq = query.len() as u64;
        let AlignScratch {
            level,
            lane_matrix,
            lane_tables,
            lane_h,
            lane_e,
            ..
        } = self;
        lane_tables.resize(2 * ALPHABET_SIZE * level.lanes(), 0.0);
        run_lanes(
            level.lanes(),
            query.len(),
            lane_h,
            lane_e,
            out,
            next,
            |codes, h, e, best| {
                simd::run_interseq(
                    *level,
                    query,
                    lane_matrix,
                    codes,
                    lane_tables,
                    h,
                    e,
                    best,
                    p.gap_open,
                    p.gap_extend,
                )
            },
            |out, slot, residues, best| {
                out[slot] = ScoreOnly {
                    score: best,
                    cells: nq * residues.len() as u64,
                    cells_skipped: 0,
                }
            },
        );
    }

    /// The u8 filter over the subjects `next` hands out.  A subject whose
    /// bound reaches the cut is copied into the candidates; every other
    /// one gets its result, score 0 and `|a|·|b|` cells, now.
    fn filter_across<'a>(
        &mut self,
        query: simd::Query<'_>,
        f: Filter,
        out: &mut Vec<ScoreOnly>,
        next: impl FnMut(&mut Vec<ScoreOnly>) -> Option<(usize, &'a [u8])>,
    ) {
        let nq = query.len() as u64;
        let AlignScratch {
            level,
            filter_rows,
            filter_tables,
            filter_h,
            filter_e,
            candidates,
            candidate_residues,
            ..
        } = self;
        candidates.clear();
        candidate_residues.clear();
        filter_tables.resize(2 * ALPHABET_SIZE * level.filter_lanes(), 0);
        run_lanes(
            level.filter_lanes(),
            query.len(),
            filter_h,
            filter_e,
            out,
            next,
            |codes, h, e, best| {
                simd::run_filter(
                    *level,
                    query,
                    filter_rows,
                    codes,
                    filter_tables,
                    h,
                    e,
                    best,
                    f.bias,
                    f.open,
                    f.ext,
                )
            },
            |out, slot, residues, best| {
                if best >= f.cut {
                    let from = candidate_residues.len();
                    candidate_residues.extend_from_slice(residues);
                    candidates.push((slot, from, candidate_residues.len()));
                } else {
                    out[slot] = ScoreOnly {
                        score: 0.0,
                        cells: nq * residues.len() as u64,
                        cells_skipped: 0,
                    };
                }
            },
        );
    }

    /// Set up the upper-bound filter for the loaded `query` at threshold
    /// `t`, or say it does not apply.  Takes the largest power of two `k`
    /// for which the cut and every biased entry fit u8, loads
    /// `filter_rows` with the biased scaled matrix (`⌈k·s⌉ + bias`, where
    /// `bias` lifts the least entry to 0; the past-end code at 0), and
    /// returns the bias, the scaled gaps (`⌊k·open⌋`, `⌊k·ext⌋`) and the
    /// cut `⌊k·(t − δ)⌋`, which must not exceed the ceiling `255 − bias`
    /// a saturated lane holds.  `δ` bounds how far the f32 DP's rounding
    /// can lift a score above the real-valued DP's (DESIGN.md
    /// "Upper-bound filter" gives the argument):
    ///
    /// * `S` is the sum over query positions of the position's best
    ///   positive score; no partial value on a best path exceeds `M =
    ///   2S`;
    /// * such a path has at most `L = |a| + ⌈M / ext⌉` steps that round
    ///   (`⌈M / open⌉` when `ext = 0`; a gap step that subtracts 0 is
    ///   exact), and each rounds by at most `2⁻²⁴` of a value below `M`;
    /// * so `δ = L · 2⁻²⁴ · M / (1 − 2⁻²⁴)`, valid while `L · 2⁻²⁴ ≤ 1/4`.
    ///
    /// `None` — the exact path — when `L · 2⁻²⁴ > 1/4`, when no `k ≥ 1`
    /// fits, or when the cut is below 1 (which covers `t ≤ δ`).  The
    /// caller has checked [`AlignScratch::simd_ok`] (so the level is not
    /// `Scalar` and `open ≥ ext ≥ 0`).
    fn load_filter(
        &mut self,
        query: &[u8],
        m: &ScoreMatrix,
        p: &AlignParams,
        t: f32,
    ) -> Option<Filter> {
        const ROUNDOFF: f64 = 1.0 / (1u64 << 24) as f64;
        let s = |q: usize, r: usize| f64::from(m.score(q, r));
        let mut row_max = [0.0f64; ALPHABET_SIZE];
        let (mut least, mut most_entry) = (0.0f64, 0.0f64);
        for (q, top) in row_max.iter_mut().enumerate() {
            for r in 0..ALPHABET_SIZE {
                *top = top.max(s(q, r));
                least = least.min(s(q, r));
            }
            most_entry = most_entry.max(*top);
        }
        let (open, ext) = (f64::from(p.gap_open), f64::from(p.gap_extend));
        let most = 2.0 * query.iter().map(|&q| row_max[q as usize]).sum::<f64>();
        let gap_steps = if ext > 0.0 {
            (most / ext).ceil()
        } else if open > 0.0 {
            (most / open).ceil()
        } else {
            0.0
        };
        let steps = query.len() as f64 + gap_steps;
        let delta = steps * ROUNDOFF * most / (1.0 - ROUNDOFF);
        let bias = |k: f64| -(k * least).ceil();
        let cut = |k: f64| (k * (f64::from(t) - delta)).floor();
        let ceiling = |k: f64| 255.0 - bias(k);
        let k = (0..8)
            .rev()
            .map(|j| f64::from(1u8 << j))
            .find(|&k| (k * most_entry).ceil() <= ceiling(k) && cut(k) <= ceiling(k))?;
        if steps * ROUNDOFF > 0.25 || cut(k) < 1.0 {
            return None;
        }
        self.filter_rows.clear();
        self.filter_rows.resize(ALPHABET_SIZE * simd::FILTER_ROW, 0);
        for q in 0..ALPHABET_SIZE {
            for r in 0..ALPHABET_SIZE {
                self.filter_rows[q * simd::FILTER_ROW + r] = ((k * s(q, r)).ceil() + bias(k)) as u8;
            }
        }
        // A float-to-int `as` saturates: a scaled gap past 255 is charged
        // 255, which still rounds it down.
        Some(Filter {
            cut: cut(k) as u8,
            bias: bias(k) as u8,
            open: (k * open).floor() as u8,
            ext: (k * ext).floor() as u8,
        })
    }

    /// The scalar profile kernel.  The profile must have been loaded
    /// with [`AlignScratch::set_query`].  Returns `(best, columns)`,
    /// where `columns < subject.len()` only on a banded early exit.
    ///
    /// Subject rows are processed four at a time along an anti-diagonal
    /// wavefront: the serial per-row F chain (`max`/`sub` latency) is the
    /// kernel's bottleneck, and four staggered rows give the out-of-order
    /// core four independent chains to overlap.  Every cell still runs
    /// the exact scalar recurrence with the same operands in the same
    /// order — only the instruction schedule changes — so the result is
    /// bit-identical to [`align_score_naive`].
    fn align_scalar_bounded(
        &mut self,
        subject: &[u8],
        p: &AlignParams,
        beat: Option<f32>,
    ) -> (f32, usize) {
        let nq = self.len;
        let nb = subject.len();
        self.h.fill(0.0);
        self.e.fill(f32::NEG_INFINITY);
        let (open, ext) = (p.gap_open, p.gap_extend);
        let mut best = 0.0f32;
        let profile = &self.profile;
        let suffix = &self.suffix;
        let h = &mut self.h[..nq + 1];
        let e = &mut self.e[..nq + 1];

        /// One DP cell: update the row's F chain and H, return the new E.
        /// `prev` is left holding the row's H at the previous column (the
        /// diagonal input for the row below).
        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        fn dp_cell(
            v_diag: f32,
            v_above: f32,
            e_above: f32,
            sc: f32,
            open: f32,
            ext: f32,
            f: &mut f32,
            left: &mut f32,
            prev: &mut f32,
            best: &mut f32,
        ) -> f32 {
            let e_new = (v_above - open).max(e_above - ext);
            *f = (*left - open).max(*f - ext);
            let v = (v_diag + sc).max(e_new).max(*f).max(0.0);
            *prev = *left;
            *left = v;
            if v > *best {
                *best = v;
            }
            e_new
        }

        let mut j = 0usize;
        while j + 4 <= nb {
            let r0 = &profile[subject[j] as usize * nq..][..nq];
            let r1 = &profile[subject[j + 1] as usize * nq..][..nq];
            let r2 = &profile[subject[j + 2] as usize * nq..][..nq];
            let r3 = &profile[subject[j + 3] as usize * nq..][..nq];
            // Per-row registers: F chain, H at the current and previous
            // column, E at the current column (forwarded to the row
            // below, which trails one column behind).
            let mut f = [f32::NEG_INFINITY; 4];
            let mut left = [0.0f32; 4];
            let mut prev = [0.0f32; 4];
            let mut elast = [f32::NEG_INFINITY; 4];
            // Step t processes column t-r of row r.  Bottom row first:
            // each row reads its upstairs neighbour's previous-step
            // state, so rows must update in bottom-up order.  `STEADY`
            // is a const generic so the pipeline-fill and drain guards
            // fold away in the hot middle loop, and `inline(always)`
            // keeps the whole wavefront state in registers (as a plain
            // closure this failed to inline and spilled every step).
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn step<const STEADY: bool>(
                t: usize,
                nq: usize,
                rows: [&[f32]; 4],
                h: &mut [f32],
                e: &mut [f32],
                f: &mut [f32; 4],
                left: &mut [f32; 4],
                prev: &mut [f32; 4],
                elast: &mut [f32; 4],
                open: f32,
                ext: f32,
                best: &mut f32,
            ) {
                if STEADY || (t >= 4 && t - 3 <= nq) {
                    let c = t - 3;
                    let e_new = dp_cell(
                        prev[2],
                        left[2],
                        elast[2],
                        rows[3][c - 1],
                        open,
                        ext,
                        &mut f[3],
                        &mut left[3],
                        &mut prev[3],
                        best,
                    );
                    elast[3] = e_new;
                    // Row 3 is the block's last: persist for the next block.
                    h[c] = left[3];
                    e[c] = e_new;
                }
                if STEADY || (t >= 3 && t - 2 <= nq) {
                    let c = t - 2;
                    elast[2] = dp_cell(
                        prev[1],
                        left[1],
                        elast[1],
                        rows[2][c - 1],
                        open,
                        ext,
                        &mut f[2],
                        &mut left[2],
                        &mut prev[2],
                        best,
                    );
                }
                if STEADY || (t >= 2 && t - 1 <= nq) {
                    let c = t - 1;
                    elast[1] = dp_cell(
                        prev[0],
                        left[0],
                        elast[0],
                        rows[1][c - 1],
                        open,
                        ext,
                        &mut f[1],
                        &mut left[1],
                        &mut prev[1],
                        best,
                    );
                }
                if STEADY || t <= nq {
                    let c = t;
                    elast[0] = dp_cell(
                        h[c - 1],
                        h[c],
                        e[c],
                        rows[0][c - 1],
                        open,
                        ext,
                        &mut f[0],
                        &mut left[0],
                        &mut prev[0],
                        best,
                    );
                }
            }
            let rows = [r0, r1, r2, r3];
            // Pipeline fill (t = 1..4), guard-free steady state
            // (t = 4..=nq), pipeline drain (t = nq+1..nq+4); the three
            // ranges tile 1..nq+4 exactly for every nq.
            for t in 1..(nq + 4).min(4) {
                step::<false>(
                    t, nq, rows, h, e, &mut f, &mut left, &mut prev, &mut elast, open, ext,
                    &mut best,
                );
            }
            for t in 4..nq + 1 {
                step::<true>(
                    t, nq, rows, h, e, &mut f, &mut left, &mut prev, &mut elast, open, ext,
                    &mut best,
                );
            }
            for t in nq.max(3) + 1..nq + 4 {
                step::<false>(
                    t, nq, rows, h, e, &mut f, &mut left, &mut prev, &mut elast, open, ext,
                    &mut best,
                );
            }
            j += 4;
            if let Some(beat) = beat {
                // Rows >= j add at most suffix[j] on top of any H seen so
                // far; once that cannot reach `beat`, stop.
                if best + suffix[j] <= beat {
                    return (best, j);
                }
            }
        }
        // Remainder rows (< 4): plain scalar sweep.
        while j < nb {
            let rb = subject[j];
            let row = &profile[rb as usize * nq..][..nq];
            let mut h_diag = 0.0f32;
            let mut h_left = 0.0f32;
            let mut f = f32::NEG_INFINITY;
            for ((h_i, e_i), &sc) in h[1..].iter_mut().zip(e[1..].iter_mut()).zip(row) {
                let e_new = (*h_i - open).max(*e_i - ext);
                f = (h_left - open).max(f - ext);
                let v = (h_diag + sc).max(e_new).max(f).max(0.0);
                h_diag = *h_i;
                *h_i = v;
                *e_i = e_new;
                h_left = v;
                if v > best {
                    best = v;
                }
            }
            j += 1;
            if let Some(beat) = beat {
                if best + suffix[j] <= beat {
                    return (best, j);
                }
            }
        }
        (best, nb)
    }
}

/// Most lanes of any inter-sequence pass: the filter's at AVX2.
const MAX_LANES: usize = simd::MAX_FILTER_LANES;

/// The filter's bias, scaled gaps and cut (see [`AlignScratch::load_filter`]).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Filter {
    cut: u8,
    bias: u8,
    open: u8,
    ext: u8,
}

/// A lane value of the inter-sequence passes: the f32 lane's scores and
/// the filter's u8 bounds.
trait LaneCell: Copy {
    const ZERO: Self;
    /// Give lane `l` a fresh subject: H = 0 and E at its floor (minus
    /// infinity, or the u8 lane's 0) in each of the `rows` query rows.
    fn reset(h: &mut [Self], e: &mut [Self], l: usize, lanes: usize, rows: usize);
}

impl LaneCell for f32 {
    const ZERO: f32 = 0.0;
    fn reset(h: &mut [f32], e: &mut [f32], l: usize, lanes: usize, rows: usize) {
        for i in 0..rows {
            h[i * lanes + l] = 0.0;
            e[i * lanes + l] = f32::NEG_INFINITY;
        }
    }
}

impl LaneCell for u8 {
    const ZERO: u8 = 0;
    fn reset(h: &mut [u8], e: &mut [u8], l: usize, lanes: usize, rows: usize) {
        for i in 0..rows {
            h[i * lanes + l] = 0;
            e[i * lanes + l] = 0;
        }
    }
}

/// The lane driver both inter-sequence passes share.  Each of `lanes`
/// lanes holds one subject from `next` (its slot in `out` and its
/// residues); `pass` advances every lane by two columns over all `rows`
/// query rows, given the lanes' subject codes and the H, E and best
/// vectors; a lane whose subject ends hands its best to `finish`, takes
/// the next subject with a fresh column and a zero best.  Idle lanes and
/// the second column of a subject of odd length score the `PAST_END`
/// code.  Stops when every lane is idle.
#[allow(clippy::too_many_arguments)]
fn run_lanes<'a, T: LaneCell>(
    lanes: usize,
    rows: usize,
    h: &mut Vec<T>,
    e: &mut Vec<T>,
    out: &mut Vec<ScoreOnly>,
    mut next: impl FnMut(&mut Vec<ScoreOnly>) -> Option<(usize, &'a [u8])>,
    mut pass: impl FnMut(&[u8], &mut [T], &mut [T], &mut [T]),
    mut finish: impl FnMut(&mut Vec<ScoreOnly>, usize, &'a [u8], T),
) {
    h.resize(rows * lanes, T::ZERO);
    e.resize(rows * lanes, T::ZERO);
    let mut refill = |l: usize, h: &mut [T], e: &mut [T], out: &mut Vec<ScoreOnly>| {
        let (slot, residues) = next(out)?;
        T::reset(h, e, l, lanes, rows);
        Some(Lane {
            residues,
            col: 0,
            slot,
        })
    };
    let mut best = [T::ZERO; MAX_LANES];
    let mut codes = [PAST_END; 2 * MAX_LANES];
    let mut lane: [Option<Lane<'a>>; MAX_LANES] = [None; MAX_LANES];
    for (l, slot) in lane[..lanes].iter_mut().enumerate() {
        *slot = refill(l, h, e, out);
    }
    while lane.iter().any(Option::is_some) {
        for (l, ln) in lane[..lanes].iter().enumerate() {
            codes[l] = ln.map_or(PAST_END, |ln| ln.at(0));
            codes[lanes + l] = ln.map_or(PAST_END, |ln| ln.at(1));
        }
        pass(&codes[..2 * lanes], h, e, &mut best[..lanes]);
        for (l, slot) in lane[..lanes].iter_mut().enumerate() {
            let Some(ln) = slot else { continue };
            ln.col += 2;
            if ln.col >= ln.residues.len() {
                finish(out, ln.slot, ln.residues, best[l]);
                best[l] = T::ZERO;
                *slot = refill(l, h, e, out);
            }
        }
    }
}

/// Subject residue code of a lane past its subject's end: the
/// `lane_matrix` row of `-inf` scores and the filter rows' 0 entries.
const PAST_END: u8 = (LANE_MATRIX_ROWS - 1) as u8;

/// One inter-sequence lane: its subject, the next column it scores and
/// its result's slot in the batch's output.
#[derive(Clone, Copy)]
struct Lane<'s> {
    residues: &'s [u8],
    col: usize,
    slot: usize,
}

impl Lane<'_> {
    /// The subject residue `k` columns on, or [`PAST_END`].
    fn at(&self, k: usize) -> u8 {
        self.residues.get(self.col + k).copied().unwrap_or(PAST_END)
    }
}

/// Score-only Smith–Waterman/Gotoh via the query-profile kernel, reusing
/// the caller's scratch: zero heap allocation once the scratch has grown
/// to the query size.
pub fn align_score_with(
    a: &Sequence,
    b: &Sequence,
    m: &ScoreMatrix,
    p: &AlignParams,
    scratch: &mut AlignScratch,
) -> ScoreOnly {
    scratch.set_query(a, m);
    scratch.align_loaded(&b.residues, p)
}

/// One query against a batch of subjects: the profile is built once and
/// the scratch is reused across the whole batch.  Results are pushed onto
/// `out` (cleared first) in subject order, each with `cells = |a|·|b|`
/// and `cells_skipped = 0`.
///
/// With `min_score = None` every score is exact: the bits of
/// [`align_score_naive`].  With `min_score = Some(t)` the scores are
/// **exact above the threshold**: a subject whose exact score is `≥ t`
/// reports those bits, and every other subject reports a score `< t`
/// (0 when the upper-bound filter ruled it out).  The filter — a
/// saturating u8 pass over a scaled matrix that bounds every score from
/// above — leaves the f32 lane only the subjects that may reach `t`;
/// [`AlignScratch::rescored`] counts them.  It stands aside, and every
/// score is exact, at the scalar level, for gaps outside `open ≥ ext ≥
/// 0`, and for thresholds or matrices it cannot scale (see DESIGN.md
/// "Upper-bound filter").
pub fn align_score_many<'s, I>(
    a: &Sequence,
    subjects: I,
    m: &ScoreMatrix,
    p: &AlignParams,
    min_score: Option<f32>,
    scratch: &mut AlignScratch,
    out: &mut Vec<ScoreOnly>,
) where
    I: IntoIterator<Item = &'s Sequence>,
{
    scratch.set_query(a, m);
    out.clear();
    scratch.rescored = None;
    if scratch.simd_ok(p) {
        scratch.align_across(&a.residues, subjects.into_iter(), m, p, min_score, out);
        return;
    }
    for b in subjects {
        out.push(scratch.align_loaded(&b.residues, p));
    }
}

/// Score-only Smith–Waterman/Gotoh (compatibility entry point): the
/// profile kernel with a private scratch.  Callers in a loop should hold
/// an [`AlignScratch`] and use [`align_score_with`] / [`align_score_many`].
pub fn align_score(a: &Sequence, b: &Sequence, m: &ScoreMatrix, p: &AlignParams) -> ScoreOnly {
    let mut scratch = AlignScratch::new();
    align_score_with(a, b, m, p, &mut scratch)
}

/// The original score-only implementation: rolling arrays allocated per
/// call, matrix double-indexed in the inner loop.  Kept as the reference
/// oracle for the profile kernel — the two must agree bit-for-bit.
pub fn align_score_naive(
    a: &Sequence,
    b: &Sequence,
    m: &ScoreMatrix,
    p: &AlignParams,
) -> ScoreOnly {
    let (na, nb) = (a.residues.len(), b.residues.len());
    if na == 0 || nb == 0 {
        return ScoreOnly {
            score: 0.0,
            cells: 0,
            cells_skipped: 0,
        };
    }
    // Roll over b (columns); one row of H and E each.
    let mut h_prev = vec![0.0f32; nb + 1];
    let mut h_cur = vec![0.0f32; nb + 1];
    let mut e_row = vec![f32::NEG_INFINITY; nb + 1];
    let mut best = 0.0f32;
    for i in 1..=na {
        let ra = a.residues[i - 1] as usize;
        let mut f = f32::NEG_INFINITY;
        h_cur[0] = 0.0;
        for j in 1..=nb {
            let rb = b.residues[j - 1] as usize;
            e_row[j] = (h_prev[j] - p.gap_open).max(e_row[j] - p.gap_extend);
            f = (h_cur[j - 1] - p.gap_open).max(f - p.gap_extend);
            let diag = h_prev[j - 1] + m.score(ra, rb);
            let h = diag.max(e_row[j]).max(f).max(0.0);
            h_cur[j] = h;
            if h > best {
                best = h;
            }
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
    }
    ScoreOnly {
        score: best,
        cells: (na as u64) * (nb as u64),
        cells_skipped: 0,
    }
}

/// One aligned column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// Residues aligned (match or mismatch).
    Sub,
    /// Gap in `a` (consumes a residue of `b`).
    InsB,
    /// Gap in `b` (consumes a residue of `a`).
    InsA,
}

/// A full local alignment with traceback.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Alignment {
    /// Best local score.
    pub score: f32,
    /// Half-open residue range of `a` covered by the alignment.
    pub a_range: (usize, usize),
    /// Half-open residue range of `b` covered.
    pub b_range: (usize, usize),
    /// Column operations, start to end.
    pub ops: Vec<AlignOp>,
    /// Identical aligned residue pairs.
    pub identities: usize,
    /// DP cells computed.
    pub cells: u64,
}

impl Alignment {
    /// Aligned columns.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the alignment is empty (score 0 everywhere).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Fraction of substitution columns that are identities.
    pub fn identity_fraction(&self) -> f64 {
        let subs = self.ops.iter().filter(|o| **o == AlignOp::Sub).count();
        if subs == 0 {
            0.0
        } else {
            self.identities as f64 / subs as f64
        }
    }
}

/// Full Smith–Waterman/Gotoh with traceback (convenience wrapper over
/// [`align_local_with`] with a private scratch).  Callers in a loop
/// should hold an [`AlignScratch`] and a reusable [`Alignment`].
pub fn align_local(a: &Sequence, b: &Sequence, m: &ScoreMatrix, p: &AlignParams) -> Alignment {
    let mut scratch = AlignScratch::with_level(SimdLevel::Scalar);
    let mut out = Alignment::default();
    align_local_with(a, b, m, p, &mut scratch, &mut out);
    out
}

/// Full Smith–Waterman/Gotoh with traceback, reusing the scratch's
/// H/E/F matrices and the caller's `Alignment` (its `ops` buffer is
/// recycled): zero heap allocations once both have grown to size.  Only
/// the traceback buffers of the scratch are touched — any loaded query
/// profile stays valid.
pub fn align_local_with(
    a: &Sequence,
    b: &Sequence,
    m: &ScoreMatrix,
    p: &AlignParams,
    scratch: &mut AlignScratch,
    out: &mut Alignment,
) {
    let (na, nb) = (a.residues.len(), b.residues.len());
    out.score = 0.0;
    out.a_range = (0, 0);
    out.b_range = (0, 0);
    out.ops.clear();
    out.identities = 0;
    out.cells = (na as u64) * (nb as u64);
    if na == 0 || nb == 0 {
        return;
    }
    let w = nb + 1;
    let size = (na + 1) * w;
    scratch.tb_h.clear();
    scratch.tb_h.resize(size, 0.0);
    scratch.tb_e.clear();
    scratch.tb_e.resize(size, f32::NEG_INFINITY);
    scratch.tb_f.clear();
    scratch.tb_f.resize(size, f32::NEG_INFINITY);
    let h = &mut scratch.tb_h;
    let e = &mut scratch.tb_e;
    let f = &mut scratch.tb_f;
    let mut best = 0.0f32;
    let mut best_pos = (0usize, 0usize);
    for i in 1..=na {
        let ra = a.residues[i - 1] as usize;
        for j in 1..=nb {
            let rb = b.residues[j - 1] as usize;
            let idx = i * w + j;
            e[idx] = (h[idx - 1] - p.gap_open).max(e[idx - 1] - p.gap_extend);
            f[idx] = (h[idx - w] - p.gap_open).max(f[idx - w] - p.gap_extend);
            let diag = h[idx - w - 1] + m.score(ra, rb);
            let v = diag.max(e[idx]).max(f[idx]).max(0.0);
            h[idx] = v;
            if v > best {
                best = v;
                best_pos = (i, j);
            }
        }
    }
    if best <= 0.0 {
        return;
    }
    // Traceback from best_pos until H hits 0.
    let (mut i, mut j) = best_pos;
    #[derive(PartialEq, Clone, Copy)]
    enum State {
        H,
        E,
        F,
    }
    let mut state = State::H;
    while i > 0 && j > 0 {
        let idx = i * w + j;
        match state {
            State::H => {
                let v = h[idx];
                if v == 0.0 {
                    break;
                }
                let ra = a.residues[i - 1] as usize;
                let rb = b.residues[j - 1] as usize;
                let diag = h[idx - w - 1] + m.score(ra, rb);
                if v == diag {
                    out.ops.push(AlignOp::Sub);
                    if ra == rb {
                        out.identities += 1;
                    }
                    i -= 1;
                    j -= 1;
                } else if v == e[idx] {
                    state = State::E;
                } else if v == f[idx] {
                    state = State::F;
                } else {
                    // Numerical tie broke differently; prefer diagonal.
                    out.ops.push(AlignOp::Sub);
                    if ra == rb {
                        out.identities += 1;
                    }
                    i -= 1;
                    j -= 1;
                }
            }
            State::E => {
                out.ops.push(AlignOp::InsB);
                let from_open = h[idx - 1] - p.gap_open;
                if e[idx] == from_open {
                    state = State::H;
                }
                j -= 1;
            }
            State::F => {
                out.ops.push(AlignOp::InsA);
                let from_open = h[idx - w] - p.gap_open;
                if f[idx] == from_open {
                    state = State::H;
                }
                i -= 1;
            }
        }
    }
    out.ops.reverse();
    out.score = best;
    out.a_range = (i, best_pos.0);
    out.b_range = (j, best_pos.1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pam::{PamFamily, FIXED_PAM};
    use proptest::prelude::*;

    fn seq(s: &str) -> Sequence {
        Sequence::from_str(0, s).unwrap()
    }

    fn fam() -> PamFamily {
        PamFamily::default()
    }

    #[test]
    fn identical_sequences_score_sum_of_self_scores() {
        let fam = fam();
        let m = fam.nearest(FIXED_PAM);
        let s = seq("MKVLAWGCH");
        let out = align_score(&s, &s, m, &AlignParams::default());
        let expected: f32 = s
            .residues
            .iter()
            .map(|&r| m.score(r as usize, r as usize))
            .sum();
        assert!((out.score - expected).abs() < 1e-3);
    }

    #[test]
    fn score_is_symmetric() {
        let fam = fam();
        let m = fam.nearest(FIXED_PAM);
        let a = seq("MKVLAWGCHDE");
        let b = seq("MKVIAWCHDE");
        let p = AlignParams::default();
        let ab = align_score(&a, &b, m, &p).score;
        let ba = align_score(&b, &a, m, &p).score;
        assert!((ab - ba).abs() < 1e-3);
    }

    #[test]
    fn local_alignment_ignores_junk_flanks() {
        let fam = fam();
        let m = fam.nearest(FIXED_PAM);
        let p = AlignParams::default();
        let core = "MKVLAWGCHDEMKVLAWGCHDE";
        let a = seq(core);
        let b = seq(&format!("PPPPPPPP{core}GGGGGGGG"));
        let plain = align_score(&a, &a, m, &p).score;
        let flanked = align_score(&a, &b, m, &p).score;
        assert!((plain - flanked).abs() < 1e-3, "{plain} vs {flanked}");
    }

    #[test]
    fn traceback_matches_score_only() {
        let fam = fam();
        let m = fam.nearest(FIXED_PAM);
        let p = AlignParams::default();
        let a = seq("MKVLAWGCHDEAAARNDCQE");
        let b = seq("MKVIAWGHDEAAARNDC");
        let fast = align_score(&a, &b, m, &p);
        let full = align_local(&a, &b, m, &p);
        assert!((fast.score - full.score).abs() < 1e-3);
        assert!(!full.is_empty());
        assert!(full.identities > 5);
    }

    #[test]
    fn gap_cost_is_affine() {
        let fam = fam();
        let m = fam.nearest(FIXED_PAM);
        let p = AlignParams::default();
        // One long gap must beat two short gaps of the same total length.
        let a = seq("MKVLAWGCHDEMKVLAWGCHDE");
        let gap1 = seq("MKVLAWGCHDEAAAAMKVLAWGCHDE"); // one 4-gap
        let s1 = align_score(&a, &gap1, m, &p).score;
        let gap2 = seq("MKVLAWGAACHDEMKVLAWAAGCHDE"); // two 2-gaps
        let s2 = align_score(&a, &gap2, m, &p).score;
        assert!(s1 > s2, "affine: one gap {s1} should beat two {s2}");
    }

    #[test]
    fn random_sequences_score_low() {
        use rand::{Rng, SeedableRng};
        let fam = fam();
        let m = fam.nearest(FIXED_PAM);
        let p = AlignParams::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut rand_seq = |n: usize, entry: u32| {
            Sequence::new(entry, (0..n).map(|_| rng.gen_range(0..20u8)).collect())
        };
        let mut self_scores = 0.0;
        let mut cross_scores = 0.0;
        for i in 0..10 {
            let a = rand_seq(200, i * 2);
            let b = rand_seq(200, i * 2 + 1);
            self_scores += align_score(&a, &a, m, &p).score;
            cross_scores += align_score(&a, &b, m, &p).score;
        }
        assert!(
            cross_scores < self_scores / 4.0,
            "unrelated sequences should score far below self: {cross_scores} vs {self_scores}"
        );
    }

    #[test]
    fn empty_sequences_yield_empty_alignment() {
        let fam = fam();
        let m = fam.nearest(FIXED_PAM);
        let p = AlignParams::default();
        let a = seq("");
        let b = seq("MKV");
        assert_eq!(align_score(&a, &b, m, &p).score, 0.0);
        assert!(align_local(&a, &b, m, &p).is_empty());
    }

    #[test]
    fn traceback_ranges_are_consistent_with_ops() {
        let fam = fam();
        let m = fam.nearest(FIXED_PAM);
        let p = AlignParams::default();
        let a = seq("GGGGMKVLAWGCHDEGGGG");
        let b = seq("PPPPMKVLAWGCHDEPPPP");
        let al = align_local(&a, &b, m, &p);
        let a_consumed = al.ops.iter().filter(|o| **o != AlignOp::InsB).count();
        let b_consumed = al.ops.iter().filter(|o| **o != AlignOp::InsA).count();
        assert_eq!(al.a_range.1 - al.a_range.0, a_consumed);
        assert_eq!(al.b_range.1 - al.b_range.0, b_consumed);
        // The conserved core is found.
        assert!(al.identities >= 11);
    }

    /// The filter's scale is derived per (matrix, threshold): PAM 120 at
    /// the fixed pass's 80 runs at `k = 2` (entries `⌈2s⌉ + 10`, ceiling
    /// 245), at 150 the cut no longer fits under that ceiling and `k`
    /// drops to 1, and past the `k = 1` ceiling no scale fits.
    #[test]
    fn the_filter_scale_is_the_largest_that_fits_u8() {
        let fam = fam();
        let m = fam.nearest(FIXED_PAM);
        let p = AlignParams::default();
        let q = seq("MKVLAWGCHDEGGGGPPPPMKVLAWGCHDE");
        let mut scratch = AlignScratch::with_level(SimdLevel::Sse2);
        scratch.set_query(&q, m);
        let mut filter = |t: f32| scratch.load_filter(&q.residues, m, &p, t);
        let at = |cut, bias, open, ext| {
            Some(Filter {
                cut,
                bias,
                open,
                ext,
            })
        };
        assert_eq!(filter(80.0), at(159, 10, 44, 3));
        assert_eq!(filter(150.0), at(149, 5, 22, 1));
        // The k = 1 ceiling is 250: the cut of 251 (250, as δ > 0) fits,
        // 252's does not.
        assert_eq!(filter(251.0), at(250, 5, 22, 1));
        assert_eq!(filter(252.0), None);
        // A cut below 1 takes the exact path too.
        assert_eq!(filter(0.01), None);
    }

    /// Every level the host can execute (always includes `Scalar`).
    fn levels() -> Vec<SimdLevel> {
        let mut v = vec![SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2];
        v.retain(|&l| l <= simd::max_supported());
        v
    }

    fn residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u8..20, 0..=max_len)
    }

    /// `a` against `b` through the banded kernel at `beat`.
    fn banded(
        scratch: &mut AlignScratch,
        a: &Sequence,
        b: &Sequence,
        m: &ScoreMatrix,
        p: &AlignParams,
        beat: f32,
    ) -> ScoreOnly {
        scratch.set_query(a, m);
        scratch.align_loaded_bounded(&b.residues, p, Some(beat))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The banded kernel returns the exact score whenever the true
        /// score exceeds `beat`, and never claims a score above `beat`
        /// otherwise, at every level.
        #[test]
        fn bounded_score_is_exact_when_it_beats_the_bound(
            a in residues(40),
            b in residues(40),
            beat in -10.0f32..200.0,
        ) {
            let fam = PamFamily::default();
            let m = fam.nearest(120);
            let p = AlignParams::default();
            let sa = Sequence::new(0, a);
            let sb = Sequence::new(1, b);
            let naive = align_score_naive(&sa, &sb, m, &p);
            for level in levels() {
                let mut scratch = AlignScratch::with_level(level);
                let r = banded(&mut scratch, &sa, &sb, m, &p, beat);
                prop_assert_eq!(r.cells + r.cells_skipped, naive.cells);
                if naive.score > beat {
                    prop_assert_eq!(r.score.to_bits(), naive.score.to_bits(),
                        "level {} truncated a winning matrix", level.name());
                    prop_assert_eq!(r.cells_skipped, 0,
                        "a winning matrix must be fully computed");
                } else {
                    prop_assert!(r.score <= beat,
                        "level {} partial score {} exceeds beat {}", level.name(), r.score, beat);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The banded half of `simd_bitident`'s gap-parameter proptest,
        /// over the same draws: `open ∈ [0, 40]` and `ext ∈ [0, 4·open]`
        /// (exact binary fractions), `ext == open` and `ext == 0` pinned
        /// in half of the cases, any matrix of the ladder.  At every
        /// level, banded just below the true score nothing may be cut,
        /// and banded at a drawn bound the score is exact when beaten and
        /// never above the bound otherwise.
        #[test]
        fn banded_kernel_is_exact_over_gap_parameters(
            a in residues(48),
            b in residues(48),
            ladder_idx in 0usize..12,
            open_q in 0u32..161,
            ext_sixteenths in 0u32..65,
            pin in 0u8..4,
            beat in -10.0f32..200.0,
        ) {
            let fam = PamFamily::default();
            let m = &fam.ladder()[ladder_idx % fam.ladder().len()];
            let open = open_q as f32 / 4.0;
            let ext = match pin {
                0 => open,
                1 => 0.0,
                _ => open * ext_sixteenths as f32 / 16.0,
            };
            let p = AlignParams { gap_open: open, gap_extend: ext };
            let sa = Sequence::new(0, a);
            let sb = Sequence::new(1, b);
            let naive = align_score_naive(&sa, &sb, m, &p);
            for level in levels() {
                let mut scratch = AlignScratch::with_level(level);
                let below = banded(&mut scratch, &sa, &sb, m, &p, naive.score - 1.0);
                prop_assert_eq!(below.score.to_bits(), naive.score.to_bits(),
                    "level {} open {} ext {}: banded {} vs naive {}",
                    level.name(), open, ext, below.score, naive.score);
                prop_assert_eq!(below.cells, naive.cells);
                let r = banded(&mut scratch, &sa, &sb, m, &p, beat);
                prop_assert_eq!(r.cells + r.cells_skipped, naive.cells);
                if naive.score > beat {
                    prop_assert_eq!(r.score.to_bits(), naive.score.to_bits(),
                        "level {} open {} ext {}: banded at {}", level.name(), open, ext, beat);
                } else {
                    prop_assert!(r.score <= beat);
                }
            }
        }
    }
}
