//! Bit-identity oracle for the striped SIMD lane, the inter-sequence
//! lane behind [`align_score_many`] and the banded refinement, at every
//! SIMD level the host supports.
//!
//! The generic proptests in `profile_kernel_bitident.rs` run at the
//! auto-detected level; this suite pins each level explicitly (via
//! [`AlignScratch::with_level`]) so the scalar fallback and the SSE2
//! lane stay exercised even on an AVX2 host, and covers the stripe
//! geometry edge cases (empty/1-residue queries, lengths around lane
//! and segment boundaries, banding on/off) and the inter-sequence
//! lane's refills (batches longer than the lanes, subjects of either
//! parity ending mid-pass).  With a threshold, `align_score_many` runs the
//! u8 upper-bound filter first: its scores must be exact above the
//! threshold and below it otherwise, at every level, over drawn gap
//! parameters, through saturation, at every scale the filter derives,
//! and whatever else shares the batch.

use bioopera_darwin::align::{
    align_score_many, align_score_naive, align_score_with, AlignParams, AlignScratch, ScoreOnly,
};
use bioopera_darwin::dataset::DatasetConfig;
use bioopera_darwin::pam::{PamFamily, ScoreMatrix};
use bioopera_darwin::refine::{refine_pam_distance_banded, refine_pam_distance_with};
use bioopera_darwin::simd::{self, SimdLevel};
use bioopera_darwin::{align_local, align_local_with, Alignment, Sequence, SequenceDb};
use proptest::prelude::*;

/// Every level the host can execute (always includes `Scalar`).
fn levels() -> Vec<SimdLevel> {
    let mut v = vec![SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2];
    v.retain(|&l| l <= simd::max_supported());
    v
}

fn residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, 0..=max_len)
}

/// Force `v`'s length odd (`parity` 0) or even (1); 2 leaves it alone.
fn with_parity(mut v: Vec<u8>, parity: u8) -> Vec<u8> {
    match (parity, v.len() % 2 == 1) {
        (0, false) if v.is_empty() => v.push(3),
        (0, false) | (1, true) => {
            v.pop();
        }
        _ => {}
    }
    v
}

/// One batch subject: random (`kind` 0, 1), the query itself (2), or a
/// suffix of the query followed by random residues (3), so that lanes
/// also finish on high scores whose gap state would leak into a lane
/// refilled without its reset.
fn subject(kind: u8, random: Vec<u8>, query: &[u8], parity: u8) -> Vec<u8> {
    let v = match kind {
        2 => query.to_vec(),
        3 => {
            let cut = random.len().min(query.len());
            let mut v = query[cut..].to_vec();
            v.extend_from_slice(&random);
            v.truncate(70);
            v
        }
        _ => random,
    };
    with_parity(v, parity)
}

/// `query` under `edits`, one per query position: 0–4 keep the residue,
/// 5 substitutes `r`, 6 deletes it, 7 inserts a run of `1 + r % 6`
/// residues before it.  A relative of the query, with gaps.
fn mutated(query: &[u8], edits: &[(u8, u8)]) -> Vec<u8> {
    let mut v = Vec::new();
    for (&q, &(op, r)) in query
        .iter()
        .zip(edits.iter().chain(std::iter::repeat(&(0, 0))))
    {
        match op {
            5 => v.push(r),
            6 => {}
            7 => {
                v.extend((0..1 + r % 6).map(|i| (r + 7 * i) % 20));
                v.push(q);
            }
            _ => v.push(q),
        }
    }
    v
}

/// Hold one thresholded batch to the contract at `t`: a subject whose
/// oracle score is `>= t` reports its bits, every other one a score
/// `< t`, and every one the oracle's cells with none skipped.
#[allow(clippy::too_many_arguments)]
fn check_thresholded(
    q: &Sequence,
    subs: &[Sequence],
    naive: &[ScoreOnly],
    t: f32,
    m: &ScoreMatrix,
    p: &AlignParams,
    scratch: &mut AlignScratch,
    out: &mut Vec<ScoreOnly>,
) -> Result<(), TestCaseError> {
    align_score_many(q, subs.iter(), m, p, Some(t), scratch, out);
    prop_assert_eq!(out.len(), subs.len());
    for (k, (r, n)) in out.iter().zip(naive).enumerate() {
        if n.score >= t {
            prop_assert_eq!(
                r.score.to_bits(),
                n.score.to_bits(),
                "level {} threshold {} subject {} (len {}): {} vs naive {}",
                scratch.level().name(),
                t,
                k,
                subs[k].residues.len(),
                r.score,
                n.score
            );
        } else {
            prop_assert!(
                r.score < t,
                "level {} threshold {} subject {}: {} reported for a naive {}",
                scratch.level().name(),
                t,
                k,
                r.score,
                n.score
            );
        }
        prop_assert_eq!(r.cells, n.cells);
        prop_assert_eq!(r.cells_skipped, 0);
    }
    if let Some(rescored) = scratch.rescored() {
        prop_assert!(rescored >= naive.iter().filter(|n| n.score >= t).count());
        prop_assert!(rescored <= subs.len());
    }
    Ok(())
}

/// The filter's verdict on a subject is its own: the candidates of a
/// batch are the subjects that are candidates alone.  A lane refilled
/// with the previous subject's gap state breaks this.
fn check_verdicts_are_per_subject(
    q: &Sequence,
    subs: &[Sequence],
    t: f32,
    m: &ScoreMatrix,
    p: &AlignParams,
    scratch: &mut AlignScratch,
    out: &mut Vec<ScoreOnly>,
) -> Result<(), TestCaseError> {
    align_score_many(q, subs.iter(), m, p, Some(t), scratch, out);
    let Some(batch) = scratch.rescored() else {
        return Ok(());
    };
    let mut alone = 0;
    for s in subs {
        align_score_many(q, [s], m, p, Some(t), scratch, out);
        alone += scratch
            .rescored()
            .expect("the filter runs for a lone subject too");
    }
    prop_assert_eq!(
        batch,
        alone,
        "level {} threshold {}: {} candidates in the batch, {} alone",
        scratch.level().name(),
        t,
        batch,
        alone
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_level_is_bit_identical_across_the_ladder(
        a in residues(48),
        b in residues(48),
        ladder_idx in 0usize..12,
    ) {
        let fam = PamFamily::default();
        let m = &fam.ladder()[ladder_idx % fam.ladder().len()];
        let p = AlignParams::default();
        let sa = Sequence::new(0, a);
        let sb = Sequence::new(1, b);
        let naive = align_score_naive(&sa, &sb, m, &p);
        for level in levels() {
            let mut scratch = AlignScratch::with_level(level);
            let fast = align_score_with(&sa, &sb, m, &p, &mut scratch);
            prop_assert_eq!(fast.score.to_bits(), naive.score.to_bits(),
                "level {} score {} vs naive {}", level.name(), fast.score, naive.score);
            prop_assert_eq!(fast.cells, naive.cells);
            prop_assert_eq!(fast.cells_skipped, 0);
        }
    }

    /// The inter-sequence lane: batches from empty to three times the
    /// widest lane count plus one (lanes refilled at every level),
    /// queries and subjects of 0..=70 residues forced odd, even or left
    /// mixed, every ladder matrix, and one scratch per level reused
    /// across queries of different lengths.
    #[test]
    fn batches_are_bit_identical_at_every_level(
        queries in prop::collection::vec((residues(70), 0u8..3), 1..4),
        batch in prop::collection::vec((0u8..4, residues(70), 0u8..3), 0..=3 * 8 + 1),
        ladder_idx in 0usize..12,
    ) {
        let fam = PamFamily::default();
        let m = &fam.ladder()[ladder_idx % fam.ladder().len()];
        let p = AlignParams::default();
        let mut scratches: Vec<AlignScratch> =
            levels().into_iter().map(AlignScratch::with_level).collect();
        let mut out = Vec::new();
        for (qi, (query, parity)) in queries.into_iter().enumerate() {
            let q = Sequence::new(0, with_parity(query, parity));
            let subs: Vec<Sequence> = batch
                .iter()
                .enumerate()
                .map(|(i, (kind, random, parity))| {
                    Sequence::new(1 + i as u32, subject(*kind, random.clone(), &q.residues, *parity))
                })
                .collect();
            let naive: Vec<_> = subs.iter().map(|s| align_score_naive(&q, s, m, &p)).collect();
            for scratch in &mut scratches {
                align_score_many(&q, subs.iter(), m, &p, None, scratch, &mut out);
                prop_assert_eq!(out.len(), subs.len());
                for (k, (r, n)) in out.iter().zip(&naive).enumerate() {
                    prop_assert_eq!(r.score.to_bits(), n.score.to_bits(),
                        "level {} query {} (len {}) subject {} (len {}): {} vs naive {}",
                        scratch.level().name(), qi, q.residues.len(), k,
                        subs[k].residues.len(), r.score, n.score);
                    prop_assert_eq!(r.cells, n.cells);
                    prop_assert_eq!(r.cells_skipped, 0);
                }
            }
        }
    }

    #[test]
    fn banded_refine_matches_unbanded_at_every_level(
        a in residues(40),
        b in residues(40),
    ) {
        let fam = PamFamily::default();
        let p = AlignParams::default();
        let sa = Sequence::new(0, a);
        let sb = Sequence::new(1, b);
        let ladder_len = fam.ladder().len() as u64;
        for level in levels() {
            let mut scratch = AlignScratch::with_level(level);
            let plain = refine_pam_distance_with(&sa, &sb, &fam, &p, &mut scratch);
            let banded = refine_pam_distance_banded(&sa, &sb, &fam, &p, &mut scratch);
            prop_assert_eq!(banded.pam_distance, plain.pam_distance, "level {}", level.name());
            prop_assert_eq!(banded.score.to_bits(), plain.score.to_bits());
            // Every ladder cell is accounted exactly once: computed or
            // provably skipped.
            let total = sa.residues.len() as u64 * sb.residues.len() as u64 * ladder_len;
            prop_assert_eq!(banded.cells + banded.cells_skipped, total);
            prop_assert_eq!(plain.cells, total);
        }
    }

    /// The old prune's accounting test on the filter's contract: every
    /// cell accounted, and a score is the oracle's or below the drawn
    /// threshold.
    #[test]
    fn threshold_accounting_is_exact_at_every_level(
        query in residues(32),
        subjects in prop::collection::vec(residues(32), 0..6),
        threshold in 0.0f32..120.0,
    ) {
        let fam = PamFamily::default();
        let m = fam.nearest(120);
        let p = AlignParams::default();
        let q = Sequence::new(0, query);
        let subs: Vec<Sequence> =
            subjects.into_iter().enumerate().map(|(i, r)| Sequence::new(1 + i as u32, r)).collect();
        let naive: Vec<_> = subs.iter().map(|s| align_score_naive(&q, s, m, &p)).collect();
        let mut out = Vec::new();
        for level in levels() {
            let mut scratch = AlignScratch::with_level(level);
            check_thresholded(&q, &subs, &naive, threshold, m, &p, &mut scratch, &mut out)?;
        }
    }

    #[test]
    fn traceback_with_reused_scratch_matches_fresh(
        pairs in prop::collection::vec((residues(32), residues(32)), 1..5),
    ) {
        // One scratch + one Alignment across differently-sized pairs:
        // stale traceback state must never leak.
        let fam = PamFamily::default();
        let m = fam.nearest(120);
        let p = AlignParams::default();
        let mut scratch = AlignScratch::new();
        let mut out = Alignment::default();
        for (i, (a, b)) in pairs.into_iter().enumerate() {
            let sa = Sequence::new(2 * i as u32, a);
            let sb = Sequence::new(2 * i as u32 + 1, b);
            let fresh = align_local(&sa, &sb, m, &p);
            align_local_with(&sa, &sb, m, &p, &mut scratch, &mut out);
            prop_assert_eq!(&out, &fresh);
        }
    }
}

/// Stripe-geometry boundary shapes: segment length `seg = ceil(n/lanes)`
/// degenerates for tiny queries, and the padded-lane logic changes at
/// every multiple of `lanes` and `seg`.  Cover lengths around 4/8/16/32
/// at every level, plus empty and single-residue sequences.
#[test]
fn stripe_boundary_shapes_are_bit_identical() {
    let fam = PamFamily::default();
    let m = fam.nearest(120);
    let p = AlignParams::default();
    let mk = |id: u32, n: usize| Sequence::new(id, (0..n).map(|i| (i * 7 % 20) as u8).collect());
    let sizes = [
        0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 25, 31, 32, 33, 63, 64, 65,
    ];
    for level in levels() {
        let mut scratch = AlignScratch::with_level(level);
        for &na in &sizes {
            for &nb in &sizes {
                let a = mk(0, na);
                let b = mk(1, nb);
                let naive = align_score_naive(&a, &b, m, &p);
                let fast = align_score_with(&a, &b, m, &p, &mut scratch);
                assert_eq!(
                    fast.score.to_bits(),
                    naive.score.to_bits(),
                    "level={} na={na} nb={nb}",
                    level.name()
                );
                assert_eq!(
                    fast.cells,
                    naive.cells,
                    "level={} na={na} nb={nb}",
                    level.name()
                );
            }
        }
    }
}

/// The portable fallback must stay reachable on any host: a pinned
/// scalar scratch reports `Scalar` and still matches the oracle (the
/// `BIOOPERA_SIMD=scalar` escape hatch runs the whole suite this way
/// in CI via scripts/check.sh).
#[test]
fn forced_scalar_fallback_is_exercised() {
    let scratch = AlignScratch::with_level(SimdLevel::Scalar);
    assert_eq!(scratch.level(), SimdLevel::Scalar);
    // Over-asking is clamped, never trusted blindly.
    let over = AlignScratch::with_level(SimdLevel::Avx2);
    assert!(over.level() <= simd::max_supported());

    let fam = PamFamily::default();
    let m = fam.nearest(120);
    let p = AlignParams::default();
    let a = Sequence::new(0, (0..57).map(|i| (i * 3 % 20) as u8).collect());
    let b = Sequence::new(1, (0..43).map(|i| (i * 11 % 20) as u8).collect());
    let naive = align_score_naive(&a, &b, m, &p);
    let mut scalar = AlignScratch::with_level(SimdLevel::Scalar);
    let r = align_score_with(&a, &b, m, &p, &mut scalar);
    assert_eq!(r.score.to_bits(), naive.score.to_bits());
    assert_eq!(r.cells, naive.cells);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The striped lane is exact only for `open >= ext >= 0`: its F chain
    /// is fed `H0 - open` (the cell before F is folded in), which loses
    /// `F - open` — dominated by `F - ext` only then — and its lazy-F
    /// sweep is pure extension decay.  Every other pair of gap
    /// parameters must be routed to the scalar kernel, for single pairs
    /// and for `align_score_many`'s inter-sequence lane alike.  Draws
    /// `open ∈ [0, 40]` and `ext ∈ [0, 4·open]` (both on a grid of exact
    /// binary fractions), with `ext == open` and `ext == 0` pinned in
    /// half of the cases, and holds every level to the naive oracle bit
    /// for bit (the banded kernel's half of this is `align.rs`'s
    /// `banded_kernel_is_exact_over_gap_parameters`).
    #[test]
    fn every_level_is_bit_identical_over_gap_parameters(
        a in residues(48),
        b in residues(48),
        ladder_idx in 0usize..12,
        open_q in 0u32..161,
        ext_sixteenths in 0u32..65,
        pin in 0u8..4,
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
        // A small batch for the inter-sequence lane: the pair itself, the
        // query against itself, a half of `b` and an empty subject.
        let half = Sequence::new(2, sb.residues[..sb.residues.len() / 2].to_vec());
        let batch = [&sb, &sa, &half, &Sequence::new(3, Vec::new())];
        let batch_naive: Vec<_> = batch.iter().map(|s| align_score_naive(&sa, s, m, &p)).collect();
        let mut out = Vec::new();
        for level in levels() {
            let mut scratch = AlignScratch::with_level(level);
            align_score_many(&sa, batch, m, &p, None, &mut scratch, &mut out);
            prop_assert_eq!(out.len(), batch.len());
            for (k, (r, n)) in out.iter().zip(&batch_naive).enumerate() {
                prop_assert_eq!(r.score.to_bits(), n.score.to_bits(),
                    "level {} open {} ext {}: batch subject {}: {} vs naive {}",
                    level.name(), open, ext, k, r.score, n.score);
                prop_assert_eq!(r.cells, n.cells);
            }
            let fast = align_score_with(&sa, &sb, m, &p, &mut scratch);
            prop_assert_eq!(fast.score.to_bits(), naive.score.to_bits(),
                "level {} open {} ext {}: {} vs naive {}", level.name(), open, ext, fast.score, naive.score);
            prop_assert_eq!(fast.cells, naive.cells);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The upper-bound filter at every level, one scratch per level
    /// reused across queries: batches from empty to three times the
    /// widest filter plus one, random subjects, copies of the query,
    /// query suffixes and mutated copies (substitutions and indels, so
    /// matches with gaps exist), thresholds at a drawn oracle score and
    /// one f32 step either side of it, the default gaps in half the cases
    /// and otherwise `open >= ext` on a 1/16 grid (scaled gaps that do not
    /// round evenly).  Scores must be exact above the threshold, below it
    /// otherwise, and the candidates the subjects' own.
    #[test]
    fn filtered_batches_are_exact_above_the_threshold(
        queries in prop::collection::vec(residues(70), 1..3),
        batch in prop::collection::vec(
            (0u8..6, residues(70), prop::collection::vec((0u8..8, 0u8..20), 70)),
            0..=3 * 64 + 1,
        ),
        pick in 0usize..1000,
        ladder_idx in 0usize..12,
        gaps in (0u8..2, 64u32..480, 0u32..=64),
    ) {
        let fam = PamFamily::default();
        let m = &fam.ladder()[ladder_idx % fam.ladder().len()];
        let p = match gaps {
            (0, _, _) => AlignParams::default(),
            (_, open_q, ext_frac) => AlignParams {
                gap_open: open_q as f32 / 16.0,
                gap_extend: (open_q * ext_frac / 256) as f32 / 16.0,
            },
        };
        let mut scratches: Vec<AlignScratch> =
            levels().into_iter().map(AlignScratch::with_level).collect();
        let mut out = Vec::new();
        for query in queries {
            let q = Sequence::new(0, query);
            let subs: Vec<Sequence> = batch
                .iter()
                .enumerate()
                .map(|(i, (kind, random, edits))| {
                    let v = match kind {
                        4 | 5 => mutated(&q.residues, edits),
                        _ => subject(*kind, random.clone(), &q.residues, 2),
                    };
                    Sequence::new(1 + i as u32, v)
                })
                .collect();
            let naive: Vec<_> = subs.iter().map(|s| align_score_naive(&q, s, m, &p)).collect();
            let at = naive.get(pick % naive.len().max(1)).map_or(60.0, |n| n.score);
            for t in [at, at.next_up(), at.next_down()] {
                for scratch in &mut scratches {
                    check_thresholded(&q, &subs, &naive, t, m, &p, scratch, &mut out)?;
                }
            }
            for scratch in &mut scratches {
                check_verdicts_are_per_subject(&q, &subs, at.next_down(), m, &p, scratch, &mut out)?;
            }
        }
    }
}

/// Long identical pairs drive the filter's u8 lanes into saturation (a
/// self-score of a 700-residue query is far above the ceiling, `255 −
/// bias`, at any scale): a saturated bound must keep its pair a
/// candidate, so every score above the threshold is still exact, at the
/// scale `k = 2` (threshold 80), at `k = 1` (200) and past the `k = 1`
/// ceiling of 250 (300 and the self-score), where the exact path runs.
#[test]
fn saturated_filter_lanes_keep_their_pairs() {
    let fam = PamFamily::default();
    let m = fam.nearest(120);
    let p = AlignParams::default();
    let q = Sequence::new(0, (0..700).map(|i| (i * 7 % 20) as u8).collect());
    let mut subs = vec![q.clone()];
    for i in 0..40u32 {
        let residues = if i % 5 == 0 {
            q.residues.clone()
        } else {
            (0..300)
                .map(|j| ((j * 13 + i as usize * 3) % 20) as u8)
                .collect()
        };
        subs.push(Sequence::new(1 + i, residues));
    }
    let naive: Vec<_> = subs
        .iter()
        .map(|s| align_score_naive(&q, s, m, &p))
        .collect();
    assert!(naive[0].score > 255.0);
    let mut out = Vec::new();
    for level in levels() {
        let mut scratch = AlignScratch::with_level(level);
        for t in [80.0f32, 200.0, 300.0, naive[0].score] {
            check_thresholded(&q, &subs, &naive, t, m, &p, &mut scratch, &mut out).unwrap();
            let filtered = level > SimdLevel::Scalar && t <= 200.0;
            assert_eq!(
                scratch.rescored().is_some(),
                filtered,
                "level {} t {t}",
                level.name()
            );
        }
    }
}

/// The scale drops as the threshold rises: PAM 120 at 80 runs at `k = 2`,
/// at 150 its cut no longer fits under that scale's ceiling and the
/// filter runs at `k = 1`, and at 300 no `k ≥ 1` fits: the filter stands
/// aside and every score, not only those above the threshold, is exact.
#[test]
fn the_filter_scale_drops_to_one_then_stands_aside() {
    let fam = PamFamily::default();
    let m = fam.nearest(120);
    let p = AlignParams::default();
    let db = SequenceDb::generate(&DatasetConfig::small(40, 11), &fam);
    let q = db.get(0);
    let subs: Vec<Sequence> = (1..db.len() as u32).map(|f| db.get(f).clone()).collect();
    let naive: Vec<_> = subs
        .iter()
        .map(|s| align_score_naive(q, s, m, &p))
        .collect();
    let mut out = Vec::new();
    for level in levels() {
        let mut scratch = AlignScratch::with_level(level);
        for t in [80.0f32, 150.0] {
            check_thresholded(q, &subs, &naive, t, m, &p, &mut scratch, &mut out).unwrap();
            assert_eq!(scratch.rescored().is_some(), level > SimdLevel::Scalar);
        }
        align_score_many(q, subs.iter(), m, &p, Some(300.0), &mut scratch, &mut out);
        assert_eq!(scratch.rescored(), None, "level {}", level.name());
        for (r, n) in out.iter().zip(&naive) {
            assert_eq!(r.score.to_bits(), n.score.to_bits());
            assert_eq!(r.cells, n.cells);
        }
    }
}

/// A gapped match held at its own score, under gaps whose scaled values
/// are just above an integer: the filter must round them down, or a long
/// gap costs the bound more than the match has to spare.
#[test]
fn gapped_matches_pass_the_filter_at_their_own_score() {
    let fam = PamFamily::default();
    let m = fam.nearest(120);
    // k·open = 10.001953 and k·ext = 1.0019531 at k = 1: rounding them
    // up would charge a whole scaled unit more per gap step.
    let p = AlignParams {
        gap_open: 10.001953,
        gap_extend: 1.0019531,
    };
    let q = Sequence::new(0, (0..32).map(|i| ((i * 7 + i / 3) % 20) as u8).collect());
    let mut residues = q.residues[..16].to_vec();
    residues.extend((0..30).map(|j| ((j * 11 + 5) % 20) as u8));
    residues.extend_from_slice(&q.residues[16..]);
    let gapped = Sequence::new(1, residues);
    let subs = vec![gapped];
    let naive: Vec<_> = subs
        .iter()
        .map(|s| align_score_naive(&q, s, m, &p))
        .collect();
    let half: f32 = q.residues[..16]
        .iter()
        .map(|&r| m.score(r as usize, r as usize))
        .sum();
    assert!(
        naive[0].score > half + 20.0,
        "the best path must cross the gap"
    );
    let mut out = Vec::new();
    for level in levels() {
        let mut scratch = AlignScratch::with_level(level);
        check_thresholded(
            &q,
            &subs,
            &naive,
            naive[0].score,
            m,
            &p,
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(scratch.rescored(), (level > SimdLevel::Scalar).then_some(1));
    }
}

/// Verdicts are per subject on a fixed batch that fills every lane width:
/// related subjects (whose lanes end with high H and E) followed by
/// unrelated ones, at a threshold only the related ones reach.
#[test]
fn filter_verdicts_do_not_leak_between_subjects() {
    let fam = PamFamily::default();
    let m = fam.nearest(120);
    let p = AlignParams::default();
    let q = Sequence::new(0, (0..90).map(|i| ((i * 7 + i / 4) % 20) as u8).collect());
    let subs: Vec<Sequence> = (0..3 * 64 + 1)
        .map(|i: u32| {
            let residues = if i.is_multiple_of(3) {
                q.residues.clone()
            } else {
                (0..60 + i as usize % 7)
                    .map(|j| ((j * 13 + i as usize) % 20) as u8)
                    .collect()
            };
            Sequence::new(1 + i, residues)
        })
        .collect();
    let naive: Vec<_> = subs
        .iter()
        .map(|s| align_score_naive(&q, s, m, &p))
        .collect();
    let mut out = Vec::new();
    for level in levels() {
        let mut scratch = AlignScratch::with_level(level);
        check_thresholded(&q, &subs, &naive, 120.0, m, &p, &mut scratch, &mut out).unwrap();
        check_verdicts_are_per_subject(&q, &subs, 120.0, m, &p, &mut scratch, &mut out).unwrap();
    }
}

/// Matches and filter candidates of [`rescored_pairs_are_pinned_on_a_fixed_database`].
const MATCHES: usize = 199;
const RESCORED: usize = 213;

/// The filter's candidates on a fixed database, the all-vs-all's upper
/// triangle at its fixed pass's threshold, pinned: the same at every
/// width, a few more than the matches.  A bound that loosens (a bias not
/// taken off, a scale that no longer tracks the threshold) lets more
/// through; one that tightens past the real scores loses matches, which
/// the contract catches.
#[test]
fn rescored_pairs_are_pinned_on_a_fixed_database() {
    let fam = PamFamily::default();
    let m = fam.nearest(120);
    let p = AlignParams::default();
    let db = SequenceDb::generate(&DatasetConfig::small(60, 42), &fam);
    let n = db.len() as u32;
    let mut out = Vec::new();
    for level in levels() {
        let mut scratch = AlignScratch::with_level(level);
        let (mut rescored, mut matches) = (0, 0);
        for e in 0..n {
            let subjects = (e + 1..n).map(|f| db.get(f));
            align_score_many(
                db.get(e),
                subjects,
                m,
                &p,
                Some(80.0),
                &mut scratch,
                &mut out,
            );
            rescored += scratch.rescored().unwrap_or(out.len());
            matches += out.iter().filter(|r| r.score >= 80.0).count();
        }
        assert_eq!(matches, MATCHES, "level {}", level.name());
        let want = if level > SimdLevel::Scalar {
            RESCORED
        } else {
            1770
        };
        assert_eq!(rescored, want, "level {}", level.name());
    }
}
