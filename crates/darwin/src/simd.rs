//! Runtime-dispatched striped SIMD lane for the Smith–Waterman/Gotoh
//! scoring kernel (Farrar 2007, "Striped Smith–Waterman speeds database
//! searches six times over other SIMD implementations").
//!
//! The query is **striped** across vector lanes: with `lanes` f32 lanes
//! and `seg = ceil(len/lanes)` vectors per stripe, lane `l` of vector `t`
//! owns query position `l*seg + t`.  One pass of the outer loop consumes
//! one subject residue (one DP column); the inner loop walks the `seg`
//! vectors.  Horizontal-gap scores (E) live in a striped column that
//! survives across subject residues; the vertical-gap chain (F) runs
//! inside the column and is broken by the striping, which the **lazy-F**
//! sweep repairs (see `x86::kernel`).
//!
//! Bit-identity with the scalar kernels: every cell's H is
//! `max(diag + score, E, F, 0)` over the same operands — `f32` max over
//! the NaN-free, negative-zero-free values arising here is the exact
//! mathematical max, so the schedule (striped vs row-major) cannot change
//! a single bit.  The F chain is fed from the cell *before* F is folded
//! in (`H0 - open` instead of `H - open`), which is exact, not
//! approximate: `x ↦ fl(x - c)` is monotone, so `fl(max(H0, F) - open)
//! = max(fl(H0 - open), fl(F - open))`, and `fl(F - open) <= fl(F - ext)`
//! whenever `open >= ext` — the precondition under which `align.rs`
//! dispatches here at all.  Padded lanes (query positions `>= len`)
//! carry `-inf` profile entries; their H values stay strictly below the
//! running best (any padded H derives from a real H minus at least one
//! gap-open), so the final horizontal max needs no masking.  The darwin
//! proptests pin all of this against [`crate::align::align_score_naive`].
//!
//! A second kernel, the **inter-sequence lane** (`run_interseq`, after
//! Rognes 2011, "Faster Smith–Waterman database searches with
//! inter-sequence SIMD parallelisation"), scores one query against many
//! subjects at once: each vector lane holds a different subject and runs
//! the plain row-by-row recurrence for its own pair, so there is no
//! striping and no lazy-F sweep.  `align_score_many` feeds it; DESIGN.md
//! "Inter-sequence lane" covers the lane refill and why a lane past its
//! subject's end cannot disturb its score.
//!
//! A third, the **upper-bound filter** (`run_filter`), is the same
//! inter-sequence pass on a scaled, biased integer matrix in saturating
//! `u8` lanes (SWIPE's 8-bit scores): 16, 32 and 64 subjects per vector
//! at SSE2, AVX2 and AVX-512.  It computes no score anyone reads, only a
//! safe upper bound on each subject's, so that `align_score_many` can
//! leave the f32 lane the subjects that may reach a threshold.  DESIGN.md
//! "Upper-bound filter" gives the argument.
//!
//! Level selection: [`detect`] probes the CPU once (cached) and honours a
//! `BIOOPERA_SIMD` override (`scalar`/`sse2`/`avx2`/`avx512`/`auto`),
//! clamped to what the host supports.  SSE2 is part of the x86_64
//! baseline; AVX2 and AVX-512 (`avx512f` + `avx512bw`) are gated on
//! CPUID.  The f32 kernels run at AVX2 width at the `Avx512` level; only
//! the filter is wider there.  Non-x86_64 hosts always report
//! [`SimdLevel::Scalar`] and use the portable profile kernel in
//! `align.rs`.

use std::sync::OnceLock;

/// Vector width the alignment kernel dispatches to.
///
/// Ordered: `Scalar < Sse2 < Avx2 < Avx512`, so levels can be clamped
/// with `min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar profile kernel (any host).
    Scalar,
    /// 4 × f32 lanes (`__m128`); part of the x86_64 baseline.
    Sse2,
    /// 8 × f32 lanes (`__m256`); requires runtime AVX2 support.
    Avx2,
    /// The AVX2 f32 kernels, and a 64 × u8 filter (`__m512i`); requires
    /// runtime AVX-512F and AVX-512BW support.
    Avx512,
}

impl SimdLevel {
    /// f32 lanes per vector at this level (the `Avx512` level runs the
    /// f32 kernels at AVX2 width).
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse2 => 4,
            SimdLevel::Avx2 | SimdLevel::Avx512 => 8,
        }
    }

    /// u8 lanes per vector of the upper-bound filter at this level (1
    /// at `Scalar`, which has no filter).
    pub fn filter_lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse2 => 16,
            SimdLevel::Avx2 => 32,
            SimdLevel::Avx512 => 64,
        }
    }

    /// Stable lowercase name (matches the `BIOOPERA_SIMD` spellings).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// Parse a `BIOOPERA_SIMD` value; `None` means "auto" (use the hardware
/// maximum) — unknown strings fall back to auto rather than erroring.
pub(crate) fn parse_level(s: &str) -> Option<SimdLevel> {
    match s.to_ascii_lowercase().as_str() {
        "scalar" | "off" | "none" | "0" => Some(SimdLevel::Scalar),
        "sse2" | "sse" => Some(SimdLevel::Sse2),
        "avx2" | "avx" => Some(SimdLevel::Avx2),
        "avx512" | "avx512bw" => Some(SimdLevel::Avx512),
        _ => None,
    }
}

/// The widest level this host can execute (no env override applied).
pub fn max_supported() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            SimdLevel::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// The level new scratches dispatch to: the hardware maximum, optionally
/// lowered by `BIOOPERA_SIMD` (`scalar`, `sse2`, `avx2`, `avx512`,
/// `auto`).  Probed
/// once per process and cached; tests that need a specific level should
/// pin it via [`crate::align::AlignScratch::with_level`] instead of
/// mutating the environment.
pub fn detect() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let hw = max_supported();
        match std::env::var("BIOOPERA_SIMD") {
            Ok(v) => parse_level(&v).map_or(hw, |req| req.min(hw)),
            Err(_) => hw,
        }
    })
}

/// Run the striped kernel at `level` (must not be `Scalar`).
///
/// Layout contract (checked): `profile` holds `ALPHABET_SIZE` blocks of
/// `seg*lanes` striped entries; `ha`/`hb` are the zeroed H column
/// ping-pong pair and `ev` the E column filled with `-inf`, each at least
/// `seg*lanes` long.  With `band = Some((suffix, beat))`, `suffix[j]`
/// must safely bound what subject columns `j..` can add (len
/// `subject.len() + 1`) and the kernel may stop after column `j+1` once
/// `best + suffix[j+1] <= beat`.  Returns `(best, columns_processed)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_striped(
    level: SimdLevel,
    profile: &[f32],
    seg: usize,
    ha: &mut [f32],
    hb: &mut [f32],
    ev: &mut [f32],
    subject: &[u8],
    open: f32,
    ext: f32,
    band: Option<(&[f32], f32)>,
) -> (f32, usize) {
    let stride = seg * level.lanes();
    assert!(seg >= 1, "run_striped needs a loaded striped profile");
    assert!(profile.len() >= crate::alphabet::ALPHABET_SIZE * stride);
    assert!(ha.len() >= stride && hb.len() >= stride && ev.len() >= stride);
    if let Some((suffix, _)) = band {
        assert!(suffix.len() > subject.len());
    }
    #[cfg(target_arch = "x86_64")]
    // Safety: buffer sizes asserted above; `Avx2` and `Avx512` only reach
    // here via `detect`/`max_supported`, which gate them on runtime CPUID
    // support (and AVX-512F implies AVX2).
    unsafe {
        match level {
            SimdLevel::Scalar => unreachable!("run_striped called at scalar level"),
            SimdLevel::Sse2 => x86::run_sse2(profile, seg, ha, hb, ev, subject, open, ext, band),
            SimdLevel::Avx2 | SimdLevel::Avx512 => {
                x86::run_avx2(profile, seg, ha, hb, ev, subject, open, ext, band)
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (profile, ha, hb, ev, subject, open, ext, band);
        unreachable!("run_striped: no SIMD backend on this architecture")
    }
}

/// Rows of the inter-sequence kernel's score matrix: one per subject
/// residue plus a last one of `-inf`, the code of a lane past its
/// subject's end.
pub(crate) const LANE_MATRIX_ROWS: usize = crate::alphabet::ALPHABET_SIZE + 1;

/// A query of the inter-sequence passes, its residues checked once, when
/// it is built, to index a table row: a batch's passes share it, so no
/// pass re-scans the query.
#[derive(Clone, Copy)]
pub(crate) struct Query<'a>(&'a [u8]);

impl<'a> Query<'a> {
    pub(crate) fn new(residues: &'a [u8]) -> Self {
        use crate::alphabet::ALPHABET_SIZE;
        assert!(residues.iter().fold(0, |m, &q| m.max(q)) < ALPHABET_SIZE as u8);
        Query(residues)
    }

    pub(crate) fn len(self) -> usize {
        self.0.len()
    }
}

/// Run one pass of the inter-sequence kernel at `level` (must not be
/// `Scalar`): every lane advances by two subject columns over all query
/// rows.
///
/// Layout contract (checked): with `lanes = level.lanes()`, `matrix[r *
/// ALPHABET_SIZE + q]` scores query residue `q` against subject code
/// `r`, and `codes` holds each lane's code in the pass's first column
/// (`codes[l]`) and second column (`codes[lanes + l]`).  `tables` is
/// scratch for the pass's two column tables, `2 * ALPHABET_SIZE * lanes`
/// entries.  `h` and `e` hold one vector per query row: lane `l` of row
/// `i` is H and E of that row at the lane's previous column.  `best`
/// holds each lane's running best.  `h`, `e` and `best` are updated in
/// place.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_interseq(
    level: SimdLevel,
    query: Query<'_>,
    matrix: &[f32],
    codes: &[u8],
    tables: &mut [f32],
    h: &mut [f32],
    e: &mut [f32],
    best: &mut [f32],
    open: f32,
    ext: f32,
) {
    use crate::alphabet::ALPHABET_SIZE;
    let lanes = level.lanes();
    let rows = query.len() * lanes;
    assert!(lanes > 1, "run_interseq called at scalar level");
    assert!(matrix.len() >= LANE_MATRIX_ROWS * ALPHABET_SIZE);
    assert!(codes.len() >= 2 * lanes);
    assert!(codes.iter().all(|&r| usize::from(r) < LANE_MATRIX_ROWS));
    assert!(tables.len() >= 2 * ALPHABET_SIZE * lanes);
    assert!(h.len() >= rows && e.len() >= rows && best.len() >= lanes);
    let query = query.0;
    #[cfg(target_arch = "x86_64")]
    // Safety: buffer sizes and index ranges asserted above (the query's
    // residues by `Query::new`); `Avx2` and `Avx512` only reach here via
    // `detect`/`max_supported`, which gate them on runtime CPUID support
    // (and AVX-512F implies AVX2).
    unsafe {
        match level {
            SimdLevel::Scalar => unreachable!(),
            SimdLevel::Sse2 => {
                x86::interseq_sse2(query, matrix, codes, tables, h, e, best, open, ext)
            }
            SimdLevel::Avx2 | SimdLevel::Avx512 => {
                x86::interseq_avx2(query, matrix, codes, tables, h, e, best, open, ext)
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (query, matrix, codes, tables, h, e, best, open, ext);
        unreachable!("run_interseq: no SIMD backend on this architecture")
    }
}

/// Entries per row of the filter's score rows: one per subject code
/// (`LANE_MATRIX_ROWS` of them) padded to the 32 that two 16-entry byte
/// shuffles index.
pub(crate) const FILTER_ROW: usize = 32;

/// Most u8 lanes of any level's filter.
pub(crate) const MAX_FILTER_LANES: usize = 64;

/// Run one pass of the upper-bound filter at `level` (must not be
/// `Scalar`): [`run_interseq`]'s pass on u8 lanes with saturating adds
/// and subtracts, `level.filter_lanes()` subjects wide.  A cell is
/// `max(adds(diag, entry) - bias, E, F)`, every subtract saturating at
/// 0, the local alignment's floor.
///
/// Layout contract (checked): `rows[q * FILTER_ROW + r]` is the biased
/// score of query residue `q` against subject code `r` (`r <
/// LANE_MATRIX_ROWS`; the last code is a lane past its subject's end and
/// should hold 0).  `codes`, `h`, `e` and `best` are laid out as in
/// [`run_interseq`] with `lanes = level.filter_lanes()`; `tables` is
/// scratch for the pass's two column tables, `2 * ALPHABET_SIZE * lanes`
/// entries.  `open >= ext` are the scaled gap penalties.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_filter(
    level: SimdLevel,
    query: Query<'_>,
    rows: &[u8],
    codes: &[u8],
    tables: &mut [u8],
    h: &mut [u8],
    e: &mut [u8],
    best: &mut [u8],
    bias: u8,
    open: u8,
    ext: u8,
) {
    use crate::alphabet::ALPHABET_SIZE;
    let lanes = level.filter_lanes();
    let n = query.len() * lanes;
    assert!(lanes > 1, "run_filter called at scalar level");
    assert!(rows.len() >= ALPHABET_SIZE * FILTER_ROW);
    assert!(codes.len() >= 2 * lanes);
    assert!(codes.iter().all(|&r| usize::from(r) < LANE_MATRIX_ROWS));
    assert!(tables.len() >= 2 * ALPHABET_SIZE * lanes);
    assert!(h.len() >= n && e.len() >= n && best.len() >= lanes);
    assert!(open >= ext);
    let query = query.0;
    #[cfg(target_arch = "x86_64")]
    // Safety: buffer sizes and index ranges asserted above (the query's
    // residues by `Query::new`); `Avx2` and `Avx512` only reach here via
    // `detect`/`max_supported`, which gate them on runtime CPUID support.
    unsafe {
        match level {
            SimdLevel::Scalar => unreachable!(),
            SimdLevel::Sse2 => {
                x86::filter_sse2(query, rows, codes, tables, h, e, best, bias, open, ext)
            }
            SimdLevel::Avx2 => {
                x86::filter_avx2(query, rows, codes, tables, h, e, best, bias, open, ext)
            }
            SimdLevel::Avx512 => {
                x86::filter_avx512(query, rows, codes, tables, h, e, best, bias, open, ext)
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (query, rows, codes, tables, h, e, best, bias, open, ext);
        unreachable!("run_filter: no SIMD backend on this architecture")
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Lane-width abstraction over the f32 vector ops the kernel needs.
    /// Methods are `unsafe`: the caller must guarantee the instruction
    /// set is available and pointers are valid for `LANES` f32s.  Every
    /// method is `inline(always)` so the generic kernel folds into the
    /// `#[target_feature]` wrappers below and the intrinsics compile in
    /// a context with the right features enabled.
    trait Ops: Copy {
        type V: Copy;
        const LANES: usize;
        unsafe fn splat(x: f32) -> Self::V;
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn load(p: *const f32) -> Self::V;
        unsafe fn store(p: *mut f32, v: Self::V);
        /// True when any lane of `a` is strictly greater than `b`'s.
        unsafe fn any_gt(a: Self::V, b: Self::V) -> bool;
        /// Shift every lane up by one (lane `l` → `l+1`), inserting
        /// `fill` into lane 0: the stripe-wrap rotation.
        unsafe fn shift_in(v: Self::V, fill: f32) -> Self::V;
        /// Horizontal max over all lanes.
        unsafe fn hmax(v: Self::V) -> f32;
    }

    #[derive(Clone, Copy)]
    struct Sse2;

    impl Ops for Sse2 {
        type V = __m128;
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m128 {
            _mm_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn add(a: __m128, b: __m128) -> __m128 {
            _mm_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m128, b: __m128) -> __m128 {
            _mm_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: __m128, b: __m128) -> __m128 {
            _mm_max_ps(a, b)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m128 {
            _mm_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m128) {
            _mm_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn any_gt(a: __m128, b: __m128) -> bool {
            _mm_movemask_ps(_mm_cmpgt_ps(a, b)) != 0
        }
        #[inline(always)]
        unsafe fn shift_in(v: __m128, fill: f32) -> __m128 {
            let up = _mm_castsi128_ps(_mm_slli_si128::<4>(_mm_castps_si128(v)));
            _mm_move_ss(up, _mm_set_ss(fill))
        }
        #[inline(always)]
        unsafe fn hmax(v: __m128) -> f32 {
            let m = _mm_max_ps(v, _mm_movehl_ps(v, v));
            let m = _mm_max_ss(m, _mm_shuffle_ps::<1>(m, m));
            _mm_cvtss_f32(m)
        }
    }

    #[derive(Clone, Copy)]
    struct Avx2;

    impl Ops for Avx2 {
        type V = __m256;
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn add(a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m256, b: __m256) -> __m256 {
            _mm256_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: __m256, b: __m256) -> __m256 {
            _mm256_max_ps(a, b)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: __m256) {
            _mm256_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn any_gt(a: __m256, b: __m256) -> bool {
            _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(a, b)) != 0
        }
        #[inline(always)]
        unsafe fn shift_in(v: __m256, fill: f32) -> __m256 {
            // Rotate lanes up by one (lane 0's new value is junk from
            // lane 7), then blend the fill into lane 0.
            let idx = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
            let rot = _mm256_permutevar8x32_ps(v, idx);
            _mm256_blend_ps::<0b0000_0001>(rot, _mm256_set1_ps(fill))
        }
        #[inline(always)]
        unsafe fn hmax(v: __m256) -> f32 {
            let m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
            let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
            let m = _mm_max_ss(m, _mm_shuffle_ps::<1>(m, m));
            _mm_cvtss_f32(m)
        }
    }

    /// The Farrar striped kernel: one pass over `subject`, H/E/F in
    /// `LANES`-wide f32 vectors over the striped query profile.
    ///
    /// Buffers: `ha`/`hb` ping-pong as the previous/current H column,
    /// `ev` is the E column (both striped, caller-initialised to 0 and
    /// `-inf` respectively).  Returns `(best, columns_processed)`;
    /// `columns_processed < subject.len()` only on a banded early exit.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn kernel<O: Ops, const BANDED: bool>(
        profile: &[f32],
        seg: usize,
        ha: &mut [f32],
        hb: &mut [f32],
        ev: &mut [f32],
        subject: &[u8],
        open: f32,
        ext: f32,
        suffix: &[f32],
        beat: f32,
    ) -> (f32, usize) {
        let lanes = O::LANES;
        let stride = seg * lanes;
        let nb = subject.len();
        let vopen = O::splat(open);
        let vext = O::splat(ext);
        let vzero = O::splat(0.0);
        let ninf = f32::NEG_INFINITY;
        let vninf = O::splat(ninf);
        let mut vbest = vzero;
        let mut load: *mut f32 = ha.as_mut_ptr();
        let mut store: *mut f32 = hb.as_mut_ptr();
        let ep: *mut f32 = ev.as_mut_ptr();
        let pp: *const f32 = profile.as_ptr();
        let mut cols = nb;
        for (j, &rb) in subject.iter().enumerate() {
            let prow = pp.add(rb as usize * stride);
            // Diagonal carry: the previous column's last H vector shifted
            // one lane up; lane 0 takes the zero boundary row.
            let mut vh = O::shift_in(O::load(store.add((seg - 1) * lanes)), 0.0);
            std::mem::swap(&mut load, &mut store);
            let mut vf = vninf;
            for t in 0..seg {
                let o = t * lanes;
                // H0 = max(diag + score, E, 0) does not wait for F, and
                // F' = max(F - ext, H0 - open) leaves `sub, max` on the
                // loop-carried chain instead of `max, max, sub, max`.
                // Exact only for open >= ext (see the module docs).
                vh = O::add(vh, O::load(prow.add(o)));
                let ve = O::load(ep.add(o));
                let vh0 = O::max(O::max(vh, ve), vzero);
                vh = O::max(vh0, vf);
                vbest = O::max(vbest, vh);
                O::store(store.add(o), vh);
                O::store(ep.add(o), O::max(O::sub(ve, vext), O::sub(vh, vopen)));
                vf = O::max(O::sub(vf, vext), O::sub(vh0, vopen));
                // Next vector's diagonal is the previous column's H here.
                vh = O::load(load.add(o));
            }
            // Lazy-F: the in-column F chain above ignores the stripe wrap
            // (lane l's rows continue at the top of lane l+1).  Re-sweep
            // the column folding the wrapped F in until no lane can still
            // improve (`vF <= H - open` everywhere means every further
            // contribution is dominated by the main loop's F chain).
            // Each wrap injects -inf into lane 0 and -inf only decays to
            // -inf, so `lanes` sweeps provably exhaust every wrap.
            vf = O::shift_in(vf, ninf);
            'lazy: for _ in 0..lanes {
                for t in 0..seg {
                    let o = t * lanes;
                    let vht = O::load(store.add(o));
                    if !O::any_gt(vf, O::sub(vht, vopen)) {
                        break 'lazy;
                    }
                    let vhn = O::max(vht, vf);
                    O::store(store.add(o), vhn);
                    // E was computed from the pre-correction H above;
                    // fold the corrected H's gap-open candidate back in
                    // so the next column sees the exact Gotoh E.
                    O::store(ep.add(o), O::max(O::load(ep.add(o)), O::sub(vhn, vopen)));
                    vf = O::sub(vf, vext);
                }
                vf = O::shift_in(vf, ninf);
            }
            if BANDED {
                // Columns > j add at most suffix[j+1] on top of any H
                // seen so far (lazy-F corrections never exceed the
                // running best); once that cannot reach `beat`, neither
                // can the final score — stop and report the partial best.
                if O::hmax(vbest) + suffix[j + 1] <= beat {
                    cols = j + 1;
                    break;
                }
            }
        }
        (O::hmax(vbest), cols)
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn run_sse2(
        profile: &[f32],
        seg: usize,
        ha: &mut [f32],
        hb: &mut [f32],
        ev: &mut [f32],
        subject: &[u8],
        open: f32,
        ext: f32,
        band: Option<(&[f32], f32)>,
    ) -> (f32, usize) {
        match band {
            None => kernel::<Sse2, false>(profile, seg, ha, hb, ev, subject, open, ext, &[], 0.0),
            Some((s, b)) => {
                kernel::<Sse2, true>(profile, seg, ha, hb, ev, subject, open, ext, s, b)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_avx2(
        profile: &[f32],
        seg: usize,
        ha: &mut [f32],
        hb: &mut [f32],
        ev: &mut [f32],
        subject: &[u8],
        open: f32,
        ext: f32,
        band: Option<(&[f32], f32)>,
    ) -> (f32, usize) {
        match band {
            None => kernel::<Avx2, false>(profile, seg, ha, hb, ev, subject, open, ext, &[], 0.0),
            Some((s, b)) => {
                kernel::<Avx2, true>(profile, seg, ha, hb, ev, subject, open, ext, s, b)
            }
        }
    }

    /// One column table of the inter-sequence pass: row `q` (at `dst +
    /// q*lanes`) gets, in lane `l`, `matrix[codes[l] * ALPHABET_SIZE + q]`,
    /// query residue `q` against lane `l`'s subject residue.  A transpose
    /// of `lanes` matrix rows, four lanes by four residues at a time
    /// (SSE, so both levels share it).
    #[inline(always)]
    unsafe fn column_table(matrix: *const f32, codes: *const u8, lanes: usize, dst: *mut f32) {
        use crate::alphabet::ALPHABET_SIZE;
        for g in (0..lanes).step_by(4) {
            let row = |k: usize| matrix.add(usize::from(*codes.add(g + k)) * ALPHABET_SIZE);
            let rows = [row(0), row(1), row(2), row(3)];
            for q in (0..ALPHABET_SIZE).step_by(4) {
                let [r0, r1, r2, r3] = rows.map(|r| _mm_loadu_ps(r.add(q)));
                let lo01 = _mm_unpacklo_ps(r0, r1);
                let lo23 = _mm_unpacklo_ps(r2, r3);
                let hi01 = _mm_unpackhi_ps(r0, r1);
                let hi23 = _mm_unpackhi_ps(r2, r3);
                let out = dst.add(q * lanes + g);
                _mm_storeu_ps(out, _mm_movelh_ps(lo01, lo23));
                _mm_storeu_ps(out.add(lanes), _mm_movehl_ps(lo23, lo01));
                _mm_storeu_ps(out.add(2 * lanes), _mm_movelh_ps(hi01, hi23));
                _mm_storeu_ps(out.add(3 * lanes), _mm_movehl_ps(hi23, hi01));
            }
        }
    }

    /// The inter-sequence pass: lane `l` holds its own subject, and each
    /// query row advances every lane by two columns.  The per-lane
    /// recurrence is the naive one on the same operands, with the F chain
    /// fed from `H0 - open` as in [`kernel`] (exact for `open >= ext`).
    /// The second column's F chain is independent of the first's within
    /// a row, so the two `sub, max` chains overlap.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn interseq<O: Ops>(
        query: &[u8],
        matrix: &[f32],
        codes: &[u8],
        tables: &mut [f32],
        h: &mut [f32],
        e: &mut [f32],
        best: &mut [f32],
        open: f32,
        ext: f32,
    ) {
        use crate::alphabet::ALPHABET_SIZE;
        let lanes = O::LANES;
        let t1: *mut f32 = tables.as_mut_ptr();
        let t2: *mut f32 = t1.add(ALPHABET_SIZE * lanes);
        column_table(matrix.as_ptr(), codes.as_ptr(), lanes, t1);
        column_table(matrix.as_ptr(), codes.as_ptr().add(lanes), lanes, t2);
        let vopen = O::splat(open);
        let vext = O::splat(ext);
        let vzero = O::splat(0.0);
        let hp: *mut f32 = h.as_mut_ptr();
        let ep: *mut f32 = e.as_mut_ptr();
        let mut vbest = O::load(best.as_ptr());
        // Row -1 is the zero boundary; F starts at -inf in every column.
        let mut diag1 = vzero;
        let mut diag2 = vzero;
        let mut f1 = O::splat(f32::NEG_INFINITY);
        let mut f2 = f1;
        for (i, &q) in query.iter().enumerate() {
            let o = i * lanes;
            let qo = q as usize * lanes;
            // Column 1: H(i, j-1) becomes the next row's diagonal.
            let left = O::load(hp.add(o));
            let ve = O::load(ep.add(o));
            let h0 = O::max(O::max(O::add(diag1, O::load(t1.add(qo))), ve), vzero);
            let h1 = O::max(h0, f1);
            f1 = O::max(O::sub(f1, vext), O::sub(h0, vopen));
            let ve = O::max(O::sub(ve, vext), O::sub(h1, vopen));
            // Column 2 reads column 1's H one row up as its diagonal.
            let g0 = O::max(O::max(O::add(diag2, O::load(t2.add(qo))), ve), vzero);
            let h2 = O::max(g0, f2);
            f2 = O::max(O::sub(f2, vext), O::sub(g0, vopen));
            O::store(ep.add(o), O::max(O::sub(ve, vext), O::sub(h2, vopen)));
            O::store(hp.add(o), h2);
            vbest = O::max(vbest, O::max(h1, h2));
            diag1 = left;
            diag2 = h1;
        }
        O::store(best.as_mut_ptr(), vbest);
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn interseq_sse2(
        query: &[u8],
        matrix: &[f32],
        codes: &[u8],
        tables: &mut [f32],
        h: &mut [f32],
        e: &mut [f32],
        best: &mut [f32],
        open: f32,
        ext: f32,
    ) {
        interseq::<Sse2>(query, matrix, codes, tables, h, e, best, open, ext)
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn interseq_avx2(
        query: &[u8],
        matrix: &[f32],
        codes: &[u8],
        tables: &mut [f32],
        h: &mut [f32],
        e: &mut [f32],
        best: &mut [f32],
        open: f32,
        ext: f32,
    ) {
        interseq::<Avx2>(query, matrix, codes, tables, h, e, best, open, ext)
    }

    /// Lane-width abstraction over the saturating u8 vector ops of the
    /// upper-bound filter; the same contract as [`Ops`], for `LANES`
    /// u8s.
    trait Ops8: Copy {
        type V: Copy;
        const LANES: usize;
        unsafe fn splat(x: u8) -> Self::V;
        unsafe fn adds(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn subs(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn load(p: *const u8) -> Self::V;
        unsafe fn store(p: *mut u8, v: Self::V);

        /// One column table of the filter pass: row `q` (at `dst +
        /// q*LANES`) gets, in lane `l`, `rows[q * FILTER_ROW + codes[l]]`.
        /// A plain copy; the wider levels look the rows up instead.
        #[inline(always)]
        unsafe fn table(rows: *const u8, codes: *const u8, dst: *mut u8) {
            use super::FILTER_ROW;
            use crate::alphabet::ALPHABET_SIZE;
            for q in 0..ALPHABET_SIZE {
                let row = rows.add(q * FILTER_ROW);
                let out = dst.add(q * Self::LANES);
                for l in 0..Self::LANES {
                    *out.add(l) = *row.add(usize::from(*codes.add(l)));
                }
            }
        }
    }

    impl Ops8 for Sse2 {
        type V = __m128i;
        const LANES: usize = 16;
        #[inline(always)]
        unsafe fn splat(x: u8) -> __m128i {
            _mm_set1_epi8(x as i8)
        }
        #[inline(always)]
        unsafe fn adds(a: __m128i, b: __m128i) -> __m128i {
            _mm_adds_epu8(a, b)
        }
        #[inline(always)]
        unsafe fn subs(a: __m128i, b: __m128i) -> __m128i {
            _mm_subs_epu8(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: __m128i, b: __m128i) -> __m128i {
            _mm_max_epu8(a, b)
        }
        #[inline(always)]
        unsafe fn load(p: *const u8) -> __m128i {
            _mm_loadu_si128(p.cast())
        }
        #[inline(always)]
        unsafe fn store(p: *mut u8, v: __m128i) {
            _mm_storeu_si128(p.cast(), v)
        }
    }

    impl Ops8 for Avx2 {
        type V = __m256i;
        const LANES: usize = 32;
        #[inline(always)]
        unsafe fn splat(x: u8) -> __m256i {
            _mm256_set1_epi8(x as i8)
        }
        #[inline(always)]
        unsafe fn adds(a: __m256i, b: __m256i) -> __m256i {
            _mm256_adds_epu8(a, b)
        }
        #[inline(always)]
        unsafe fn subs(a: __m256i, b: __m256i) -> __m256i {
            _mm256_subs_epu8(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: __m256i, b: __m256i) -> __m256i {
            _mm256_max_epu8(a, b)
        }
        #[inline(always)]
        unsafe fn load(p: *const u8) -> __m256i {
            _mm256_loadu_si256(p.cast())
        }
        #[inline(always)]
        unsafe fn store(p: *mut u8, v: __m256i) {
            _mm256_storeu_si256(p.cast(), v)
        }
        /// Each table row is two in-lane byte shuffles of its query
        /// residue's row, one for codes below 16 and one for the rest.
        #[inline(always)]
        unsafe fn table(rows: *const u8, codes: *const u8, dst: *mut u8) {
            use super::FILTER_ROW;
            use crate::alphabet::ALPHABET_SIZE;
            let idx = _mm256_loadu_si256(codes.cast());
            let high = _mm256_cmpgt_epi8(idx, _mm256_set1_epi8(15));
            for q in 0..ALPHABET_SIZE {
                let row = rows.add(q * FILTER_ROW);
                let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(row.cast()));
                let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(row.add(16).cast()));
                let v = _mm256_blendv_epi8(
                    _mm256_shuffle_epi8(lo, idx),
                    _mm256_shuffle_epi8(hi, idx),
                    high,
                );
                _mm256_storeu_si256(dst.add(q * 32).cast(), v);
            }
        }
    }

    #[derive(Clone, Copy)]
    struct Avx512;

    impl Ops8 for Avx512 {
        type V = __m512i;
        const LANES: usize = 64;
        #[inline(always)]
        unsafe fn splat(x: u8) -> __m512i {
            _mm512_set1_epi8(x as i8)
        }
        #[inline(always)]
        unsafe fn adds(a: __m512i, b: __m512i) -> __m512i {
            _mm512_adds_epu8(a, b)
        }
        #[inline(always)]
        unsafe fn subs(a: __m512i, b: __m512i) -> __m512i {
            _mm512_subs_epu8(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: __m512i, b: __m512i) -> __m512i {
            _mm512_max_epu8(a, b)
        }
        #[inline(always)]
        unsafe fn load(p: *const u8) -> __m512i {
            _mm512_loadu_si512(p.cast())
        }
        #[inline(always)]
        unsafe fn store(p: *mut u8, v: __m512i) {
            _mm512_storeu_si512(p.cast(), v)
        }
        /// [`Avx2`]'s two shuffles at 64 lanes, with AVX-512BW alone.
        #[inline(always)]
        unsafe fn table(rows: *const u8, codes: *const u8, dst: *mut u8) {
            use super::FILTER_ROW;
            use crate::alphabet::ALPHABET_SIZE;
            let idx = _mm512_loadu_si512(codes.cast());
            let high = _mm512_cmpgt_epu8_mask(idx, _mm512_set1_epi8(15));
            for q in 0..ALPHABET_SIZE {
                let row = rows.add(q * FILTER_ROW);
                let lo = _mm512_broadcast_i32x4(_mm_loadu_si128(row.cast()));
                let hi = _mm512_broadcast_i32x4(_mm_loadu_si128(row.add(16).cast()));
                let v = _mm512_mask_blend_epi8(
                    high,
                    _mm512_shuffle_epi8(lo, idx),
                    _mm512_shuffle_epi8(hi, idx),
                );
                _mm512_storeu_si512(dst.add(q * 64).cast(), v);
            }
        }
    }

    /// The filter pass: [`interseq`]'s recurrence, operand for operand, on
    /// u8 lanes whose adds and subtracts saturate, with each entry's bias
    /// taken off after its add.  E, F and the boundary row start at 0:
    /// every lane value already is `>= 0`, so the floor needs no `max`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn filter<O: Ops8>(
        query: &[u8],
        rows: &[u8],
        codes: &[u8],
        tables: &mut [u8],
        h: &mut [u8],
        e: &mut [u8],
        best: &mut [u8],
        bias: u8,
        open: u8,
        ext: u8,
    ) {
        use crate::alphabet::ALPHABET_SIZE;
        let lanes = O::LANES;
        let t1: *mut u8 = tables.as_mut_ptr();
        let t2: *mut u8 = t1.add(ALPHABET_SIZE * lanes);
        O::table(rows.as_ptr(), codes.as_ptr(), t1);
        O::table(rows.as_ptr(), codes.as_ptr().add(lanes), t2);
        let vbias = O::splat(bias);
        let vopen = O::splat(open);
        let vext = O::splat(ext);
        let hp: *mut u8 = h.as_mut_ptr();
        let ep: *mut u8 = e.as_mut_ptr();
        let mut vbest = O::load(best.as_ptr());
        let mut diag1 = O::splat(0);
        let mut diag2 = diag1;
        let mut f1 = diag1;
        let mut f2 = diag1;
        for (i, &q) in query.iter().enumerate() {
            let o = i * lanes;
            let qo = q as usize * lanes;
            let left = O::load(hp.add(o));
            let ve = O::load(ep.add(o));
            let h0 = O::max(O::subs(O::adds(diag1, O::load(t1.add(qo))), vbias), ve);
            let h1 = O::max(h0, f1);
            f1 = O::max(O::subs(f1, vext), O::subs(h0, vopen));
            let ve = O::max(O::subs(ve, vext), O::subs(h1, vopen));
            let g0 = O::max(O::subs(O::adds(diag2, O::load(t2.add(qo))), vbias), ve);
            let h2 = O::max(g0, f2);
            f2 = O::max(O::subs(f2, vext), O::subs(g0, vopen));
            O::store(ep.add(o), O::max(O::subs(ve, vext), O::subs(h2, vopen)));
            O::store(hp.add(o), h2);
            vbest = O::max(vbest, O::max(h1, h2));
            diag1 = left;
            diag2 = h1;
        }
        O::store(best.as_mut_ptr(), vbest);
    }

    /// [`filter`] at SSE2 width.
    ///
    /// # Safety
    ///
    /// The buffers are laid out as [`super::run_filter`] asserts (SSE2 is
    /// the x86_64 baseline).
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn filter_sse2(
        query: &[u8],
        rows: &[u8],
        codes: &[u8],
        tables: &mut [u8],
        h: &mut [u8],
        e: &mut [u8],
        best: &mut [u8],
        bias: u8,
        open: u8,
        ext: u8,
    ) {
        filter::<Sse2>(query, rows, codes, tables, h, e, best, bias, open, ext)
    }

    /// [`filter`] at AVX2 width.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, and the buffers are laid out as
    /// [`super::run_filter`] asserts.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn filter_avx2(
        query: &[u8],
        rows: &[u8],
        codes: &[u8],
        tables: &mut [u8],
        h: &mut [u8],
        e: &mut [u8],
        best: &mut [u8],
        bias: u8,
        open: u8,
        ext: u8,
    ) {
        filter::<Avx2>(query, rows, codes, tables, h, e, best, bias, open, ext)
    }

    /// [`filter`] at AVX-512F and AVX-512BW width.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F and AVX-512BW, and the buffers are laid
    /// out as [`super::run_filter`] asserts.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn filter_avx512(
        query: &[u8],
        rows: &[u8],
        codes: &[u8],
        tables: &mut [u8],
        h: &mut [u8],
        e: &mut [u8],
        best: &mut [u8],
        bias: u8,
        open: u8,
        ext: u8,
    ) {
        filter::<Avx512>(query, rows, codes, tables, h, e, best, bias, open, ext)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn check_ops<O: Ops>() {
            // Safety: callers below only instantiate levels the host
            // supports (SSE2 is baseline; AVX2 gated by the caller).
            unsafe {
                let mut buf = vec![0.0f32; O::LANES];
                let mut src: Vec<f32> = (0..O::LANES).map(|i| i as f32 + 1.0).collect();
                let v = O::load(src.as_ptr());
                // shift_in moves lane l to lane l+1 and fills lane 0.
                O::store(buf.as_mut_ptr(), O::shift_in(v, -7.0));
                assert_eq!(buf[0], -7.0);
                assert_eq!(&buf[1..], &src[..O::LANES - 1]);
                // hmax finds the max wherever it hides.
                for i in 0..O::LANES {
                    src.fill(1.0);
                    src[i] = 42.0;
                    assert_eq!(O::hmax(O::load(src.as_ptr())), 42.0);
                }
                // any_gt is strict and per-lane.
                let a = O::splat(1.0);
                assert!(!O::any_gt(a, a));
                src.fill(1.0);
                src[O::LANES - 1] = 1.5;
                assert!(O::any_gt(O::load(src.as_ptr()), a));
            }
        }

        #[test]
        fn sse2_ops_behave() {
            check_ops::<Sse2>();
        }

        #[test]
        fn avx2_ops_behave() {
            if std::arch::is_x86_feature_detected!("avx2") {
                check_ops::<Avx2>();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_level_spellings() {
        assert_eq!(parse_level("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(parse_level("OFF"), Some(SimdLevel::Scalar));
        assert_eq!(parse_level("sse2"), Some(SimdLevel::Sse2));
        assert_eq!(parse_level("AVX2"), Some(SimdLevel::Avx2));
        assert_eq!(parse_level("avx512"), Some(SimdLevel::Avx512));
        assert_eq!(parse_level("auto"), None);
        assert_eq!(parse_level("bogus"), None);
    }

    #[test]
    fn levels_order_and_lanes() {
        assert!(SimdLevel::Scalar < SimdLevel::Sse2 && SimdLevel::Sse2 < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
        assert_eq!(SimdLevel::Scalar.lanes(), 1);
        assert_eq!(SimdLevel::Sse2.lanes(), 4);
        assert_eq!(SimdLevel::Avx2.lanes(), 8);
        // The f32 kernels run at AVX2 width at the AVX-512 level.
        assert_eq!(SimdLevel::Avx512.lanes(), 8);
        assert_eq!(SimdLevel::Sse2.filter_lanes(), 16);
        assert_eq!(SimdLevel::Avx2.filter_lanes(), 32);
        assert_eq!(SimdLevel::Avx512.filter_lanes(), 64);
        // Clamping an over-ask is a plain min.
        assert_eq!(SimdLevel::Avx2.min(SimdLevel::Scalar), SimdLevel::Scalar);
    }

    #[test]
    fn detect_never_exceeds_hardware() {
        assert!(detect() <= max_supported());
    }

    /// A xorshift stream of draws below `n`.
    fn draws(mut seed: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        }
    }

    /// The subject code of a lane past its subject's end.
    const PAST: u8 = (LANE_MATRIX_ROWS - 1) as u8;

    /// The filter's bias and scaled gaps: `(bias, open, ext)`.
    type Gaps = (u8, u8, u8);

    /// The filter's recurrence for one pair, one cell at a time, with
    /// `u8`'s own saturating arithmetic: the reference for one lane.
    /// Returns the best and the last column's H and E.
    fn filter_reference(
        query: &[u8],
        rows: &[u8],
        subject: &[u8],
        (bias, open, ext): Gaps,
    ) -> (u8, Vec<u8>, Vec<u8>) {
        let n = query.len();
        let (mut h, mut e) = (vec![0u8; n], vec![0u8; n]);
        let mut best = 0u8;
        for &c in subject {
            let (mut diag, mut f) = (0u8, 0u8);
            for i in 0..n {
                let t = rows[query[i] as usize * FILTER_ROW + c as usize];
                let h0 = diag.saturating_add(t).saturating_sub(bias).max(e[i]);
                let hv = h0.max(f);
                f = f.saturating_sub(ext).max(h0.saturating_sub(open));
                e[i] = e[i].saturating_sub(ext).max(hv.saturating_sub(open));
                diag = h[i];
                h[i] = hv;
                best = best.max(hv);
            }
        }
        (best, h, e)
    }

    /// The exact Gotoh DP of one pair on the unbiased scores `rows -
    /// bias`, in i32 where nothing saturates: the score the filter bounds.
    fn scaled_exact(query: &[u8], rows: &[u8], subject: &[u8], (bias, open, ext): Gaps) -> i32 {
        let (open, ext) = (i32::from(open), i32::from(ext));
        let n = query.len();
        let (mut h, mut e) = (vec![0i32; n], vec![i32::MIN / 2; n]);
        let mut best = 0;
        for &c in subject {
            let (mut diag, mut f) = (0i32, i32::MIN / 2);
            for i in 0..n {
                let s = i32::from(rows[query[i] as usize * FILTER_ROW + c as usize]);
                let hv = (diag + s - i32::from(bias)).max(e[i]).max(f).max(0);
                f = (f - ext).max(hv - open);
                e[i] = (e[i] - ext).max(hv - open);
                diag = h[i];
                h[i] = hv;
                best = best.max(hv);
            }
        }
        best
    }

    /// `level`'s filter over `subjects`, one per lane, each run past its
    /// end to the longest one's even length.  Returns the lanes' bests and
    /// final H and E columns, and the columns run.
    fn run_filter_lanes(
        level: SimdLevel,
        query: &[u8],
        rows: &[u8],
        subjects: &[Vec<u8>],
        (bias, open, ext): Gaps,
    ) -> (Vec<u8>, Vec<u8>, Vec<u8>, usize) {
        use crate::alphabet::ALPHABET_SIZE;
        let lanes = level.filter_lanes();
        assert_eq!(subjects.len(), lanes);
        let cols = subjects.iter().map(Vec::len).max().unwrap_or(0);
        let cols = cols.next_multiple_of(2);
        let mut h = vec![0u8; query.len() * lanes];
        let mut e = vec![0u8; query.len() * lanes];
        let mut best = vec![0u8; lanes];
        let mut tables = vec![0u8; 2 * ALPHABET_SIZE * lanes];
        let mut codes = vec![0u8; 2 * lanes];
        let q = Query::new(query);
        for j in (0..cols).step_by(2) {
            for (l, s) in subjects.iter().enumerate() {
                codes[l] = s.get(j).copied().unwrap_or(PAST);
                codes[lanes + l] = s.get(j + 1).copied().unwrap_or(PAST);
            }
            let (h, e, t) = (&mut h, &mut e, &mut tables);
            run_filter(level, q, rows, &codes, t, h, e, &mut best, bias, open, ext);
        }
        (best, h, e, cols)
    }

    /// Every filter level against the reference, lane by lane: the best
    /// and the final H and E columns, over subjects of mixed lengths
    /// (lanes running past their ends, which the reference scores as the
    /// past-end code too) and copies of the query long enough to
    /// saturate.  A saturating add that wraps instead, a dropped bias or
    /// a lane that feeds its neighbour differs.
    #[test]
    fn filter_lanes_saturate_like_the_reference() {
        use crate::alphabet::ALPHABET_SIZE;
        let mut draw = draws(0x2545_f491_4f6c_dd1d);
        // Unbiased entries in [-12, 12], identities 20, by query residue,
        // stored with a bias of 12; the past-end code at 0.
        let gaps: Gaps = (12, 22, 3);
        let mut rows = vec![0u8; ALPHABET_SIZE * FILTER_ROW];
        for q in 0..ALPHABET_SIZE {
            for r in 0..ALPHABET_SIZE {
                rows[q * FILTER_ROW + r] = if q == r { 32 } else { draw(25) as u8 };
            }
        }
        let query: Vec<u8> = (0..400).map(|_| draw(20) as u8).collect();
        for level in [SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Avx512] {
            if level > max_supported() {
                continue;
            }
            let subjects: Vec<Vec<u8>> = (0..level.filter_lanes())
                .map(|l| match l % 4 {
                    0 => query.clone(),
                    _ => (0..draw(500)).map(|_| draw(20) as u8).collect(),
                })
                .collect();
            let (best, h, e, cols) = run_filter_lanes(level, &query, &rows, &subjects, gaps);
            let lanes = subjects.len();
            for (l, s) in subjects.iter().enumerate() {
                let subject: Vec<u8> = (0..cols)
                    .map(|j| s.get(j).copied().unwrap_or(PAST))
                    .collect();
                let (want, want_h, want_e) = filter_reference(&query, &rows, &subject, gaps);
                let name = level.name();
                assert_eq!(best[l], want, "level {name} lane {l}: best");
                for i in 0..query.len() {
                    assert_eq!(
                        h[i * lanes + l],
                        want_h[i],
                        "level {name} lane {l} row {i}: H"
                    );
                    assert_eq!(
                        e[i * lanes + l],
                        want_e[i],
                        "level {name} lane {l} row {i}: E"
                    );
                }
            }
            assert_eq!(
                best[0],
                u8::MAX - gaps.0,
                "level {}: the query copy must saturate",
                level.name()
            );
        }
    }

    /// The u8 bound is the scaled exact score, clipped at the ceiling
    /// `255 - bias`: below it nothing saturates and the floor at 0 is the
    /// local alignment's own, and a lane that reaches it stays there.  So
    /// it never falls below the scaled exact score, or the ceiling, at
    /// any level, over drawn matrices, biases, gaps and subjects (random,
    /// the query, and the query with substitutions and indels).
    #[test]
    fn filter_bound_is_the_scaled_exact_score_clipped() {
        use crate::alphabet::ALPHABET_SIZE;
        let mut draw = draws(0x9e37_79b9_7f4a_7c15);
        for case in 0..40 {
            let bias = 1 + draw(24) as u8;
            let top = draw(40) as u8;
            let mut rows = vec![0u8; ALPHABET_SIZE * FILTER_ROW];
            for q in 0..ALPHABET_SIZE {
                for r in 0..ALPHABET_SIZE {
                    rows[q * FILTER_ROW + r] = draw(u64::from(bias + top) + 1) as u8;
                }
            }
            let ext = draw(8) as u8;
            let gaps: Gaps = (bias, ext + draw(30) as u8, ext);
            let query: Vec<u8> = (0..1 + draw(90)).map(|_| draw(20) as u8).collect();
            for level in [SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Avx512] {
                if level > max_supported() {
                    continue;
                }
                let subjects: Vec<Vec<u8>> = (0..level.filter_lanes())
                    .map(|l| match l % 3 {
                        0 => (0..draw(120)).map(|_| draw(20) as u8).collect(),
                        1 => query.clone(),
                        _ => query
                            .iter()
                            .flat_map(|&q| match draw(8) {
                                0 => vec![],
                                1 => vec![draw(20) as u8, q],
                                2 => vec![draw(20) as u8],
                                _ => vec![q],
                            })
                            .collect(),
                    })
                    .collect();
                let (best, ..) = run_filter_lanes(level, &query, &rows, &subjects, gaps);
                for (l, s) in subjects.iter().enumerate() {
                    let want = scaled_exact(&query, &rows, s, gaps).min(i32::from(u8::MAX - bias));
                    assert_eq!(
                        i32::from(best[l]),
                        want,
                        "case {case} level {} lane {l}",
                        level.name()
                    );
                }
            }
        }
    }
}
