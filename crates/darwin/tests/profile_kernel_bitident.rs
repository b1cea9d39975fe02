//! Bit-identity oracle for the query-profile alignment kernel.
//!
//! The profile/wavefront kernel behind [`align_score`],
//! [`align_score_with`] and [`align_score_many`] must agree with the
//! retained naive implementation [`align_score_naive`] **bit-for-bit** —
//! same `score` (compared via `to_bits`, not a tolerance) and same
//! `cells` — across random sequences, every matrix of the PAM ladder,
//! and the degenerate shapes (empty sequences, lengths around the
//! 4-row wavefront boundary), with the scratch reused across pairs.

use bioopera_darwin::align::{
    align_score, align_score_many, align_score_naive, align_score_with, AlignParams, AlignScratch,
};
use bioopera_darwin::pam::PamFamily;
use bioopera_darwin::refine::{refine_pam_distance, refine_pam_distance_with};
use bioopera_darwin::Sequence;
use proptest::prelude::*;

fn residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..20, 0..=max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn profile_kernel_is_bit_identical_across_the_ladder(
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
        let fast = align_score(&sa, &sb, m, &p);
        prop_assert_eq!(fast.score.to_bits(), naive.score.to_bits(),
            "score {} vs naive {} (pam {})", fast.score, naive.score, m.pam);
        prop_assert_eq!(fast.cells, naive.cells);
    }

    #[test]
    fn reused_scratch_stays_bit_identical_across_pairs(
        seqs in prop::collection::vec(residues(40), 2..6),
    ) {
        // One scratch across many differently-sized pairs: stale profile
        // or row state from a previous pair must never leak.
        let fam = PamFamily::default();
        let m = fam.nearest(120);
        let p = AlignParams::default();
        let seqs: Vec<Sequence> =
            seqs.into_iter().enumerate().map(|(i, r)| Sequence::new(i as u32, r)).collect();
        let mut scratch = AlignScratch::new();
        for a in &seqs {
            for b in &seqs {
                let naive = align_score_naive(a, b, m, &p);
                let fast = align_score_with(a, b, m, &p, &mut scratch);
                prop_assert_eq!(fast.score.to_bits(), naive.score.to_bits());
                prop_assert_eq!(fast.cells, naive.cells);
            }
        }
    }

    #[test]
    fn batched_many_matches_per_pair_naive(
        query in residues(40),
        subjects in prop::collection::vec(residues(40), 0..8),
    ) {
        let fam = PamFamily::default();
        let m = fam.nearest(120);
        let p = AlignParams::default();
        let q = Sequence::new(0, query);
        let subs: Vec<Sequence> =
            subjects.into_iter().enumerate().map(|(i, r)| Sequence::new(1 + i as u32, r)).collect();
        let mut scratch = AlignScratch::new();
        let mut out = Vec::new();
        align_score_many(&q, subs.iter(), m, &p, None, &mut scratch, &mut out);
        prop_assert_eq!(out.len(), subs.len());
        for (s, r) in subs.iter().zip(&out) {
            let naive = align_score_naive(&q, s, m, &p);
            prop_assert_eq!(r.score.to_bits(), naive.score.to_bits());
            prop_assert_eq!(r.cells, naive.cells);
        }
    }

    #[test]
    fn refinement_with_scratch_matches_naive_ladder_scan(
        a in residues(36),
        b in residues(36),
    ) {
        let fam = PamFamily::default();
        let p = AlignParams::default();
        let sa = Sequence::new(0, a);
        let sb = Sequence::new(1, b);
        // Naive ladder scan, same argmax rule as refine_pam_distance.
        let mut best_pam = fam.ladder()[0].pam;
        let mut best_score = f32::NEG_INFINITY;
        let mut cells = 0u64;
        for m in fam.ladder() {
            let r = align_score_naive(&sa, &sb, m, &p);
            cells += r.cells;
            if r.score > best_score {
                best_score = r.score;
                best_pam = m.pam;
            }
        }
        let mut scratch = AlignScratch::new();
        let with = refine_pam_distance_with(&sa, &sb, &fam, &p, &mut scratch);
        let plain = refine_pam_distance(&sa, &sb, &fam, &p);
        prop_assert_eq!(with.pam_distance, best_pam);
        prop_assert_eq!(with.score.to_bits(), best_score.to_bits());
        prop_assert_eq!(with.cells, cells);
        prop_assert_eq!(plain.score.to_bits(), with.score.to_bits());
        prop_assert_eq!(plain.pam_distance, with.pam_distance);
        prop_assert_eq!(plain.cells, with.cells);
    }

    #[test]
    fn a_threshold_never_drops_a_pair_reaching_it(
        query in residues(32),
        subjects in prop::collection::vec(residues(32), 0..6),
        threshold in 0.0f32..120.0,
    ) {
        // With a threshold, a pair reaching it keeps its exact score, and
        // any other pair reports a score below it — never a cell less.
        let fam = PamFamily::default();
        let m = fam.nearest(120);
        let p = AlignParams::default();
        let q = Sequence::new(0, query);
        let subs: Vec<Sequence> =
            subjects.into_iter().enumerate().map(|(i, r)| Sequence::new(1 + i as u32, r)).collect();
        let mut scratch = AlignScratch::new();
        let mut out = Vec::new();
        align_score_many(&q, subs.iter(), m, &p, Some(threshold), &mut scratch, &mut out);
        prop_assert_eq!(out.len(), subs.len());
        for (s, r) in subs.iter().zip(&out) {
            let naive = align_score_naive(&q, s, m, &p);
            if naive.score >= threshold {
                prop_assert_eq!(r.score.to_bits(), naive.score.to_bits());
            } else {
                prop_assert!(r.score < threshold,
                    "a pair scoring {} reported {} at threshold {}", naive.score, r.score, threshold);
            }
            prop_assert_eq!(r.cells, naive.cells);
            prop_assert_eq!(r.cells_skipped, 0);
        }
    }
}

/// Wavefront boundary shapes: the 4-row block kernel switches between
/// pipelined and scalar paths at subject lengths around multiples of 4,
/// and the pipeline fill/drain logic degenerates for tiny queries.
#[test]
fn degenerate_and_boundary_shapes_are_bit_identical() {
    let fam = PamFamily::default();
    let m = fam.nearest(120);
    let p = AlignParams::default();
    let mk = |id: u32, n: usize| Sequence::new(id, (0..n).map(|i| (i * 7 % 20) as u8).collect());
    let mut scratch = AlignScratch::new();
    for &na in &[0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16] {
        for &nb in &[0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16] {
            let a = mk(0, na);
            let b = mk(1, nb);
            let naive = align_score_naive(&a, &b, m, &p);
            let fast = align_score_with(&a, &b, m, &p, &mut scratch);
            assert_eq!(
                fast.score.to_bits(),
                naive.score.to_bits(),
                "na={na} nb={nb}"
            );
            assert_eq!(fast.cells, naive.cells, "na={na} nb={nb}");
            assert_eq!(naive.cells, (na as u64) * (nb as u64));
        }
    }
}
