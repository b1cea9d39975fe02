//! PAM-distance refinement.
//!
//! The all-vs-all's second stage: "every match is refined ... by
//! recalculating the corresponding alignment using a computationally more
//! expensive but more informative algorithm" whose job is "finding \[the\]
//! PAM distance maximizing similarity" (Fig. 3).  We re-score the pair
//! under every matrix of the family's ladder and return the argmax — a
//! discrete maximum-likelihood estimate of evolutionary distance.

use crate::align::{AlignParams, AlignScratch};
use crate::pam::PamFamily;
use crate::sequence::Sequence;

/// Result of refining one match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Refined {
    /// Estimated PAM distance (ladder point maximizing the score).
    pub pam_distance: u32,
    /// The score at that distance.
    pub score: f32,
    /// Total DP cells computed across the ladder scan (cost accounting).
    pub cells: u64,
    /// DP cells the banded scan proved irrelevant and skipped;
    /// `cells + cells_skipped == |a|·|b|·ladder_len` always holds.
    pub cells_skipped: u64,
}

/// Scan the ladder for the distance maximizing alignment score.
///
/// Convenience wrapper over [`refine_pam_distance_with`] with a private
/// scratch; callers refining many matches should hold one
/// [`AlignScratch`] and use the `_with` form to avoid per-pair
/// allocation.
pub fn refine_pam_distance(
    a: &Sequence,
    b: &Sequence,
    family: &PamFamily,
    params: &AlignParams,
) -> Refined {
    let mut scratch = AlignScratch::new();
    refine_pam_distance_with(a, b, family, params, &mut scratch)
}

/// Ladder scan reusing the caller's alignment scratch: one profile build
/// plus one DP per ladder matrix, zero heap allocation once the scratch
/// has grown.
pub fn refine_pam_distance_with(
    a: &Sequence,
    b: &Sequence,
    family: &PamFamily,
    params: &AlignParams,
    scratch: &mut AlignScratch,
) -> Refined {
    let mut best_pam = family.ladder()[0].pam;
    let mut best_score = f32::NEG_INFINITY;
    let mut cells = 0u64;
    for m in family.ladder() {
        let r = crate::align::align_score_with(a, b, m, params, scratch);
        cells += r.cells;
        if r.score > best_score {
            best_score = r.score;
            best_pam = m.pam;
        }
    }
    Refined {
        pam_distance: best_pam,
        score: best_score,
        cells,
        cells_skipped: 0,
    }
}

/// Ladder scan with **score-bound adaptive banding**: each matrix after
/// the first only has to prove it cannot beat the ladder's running best,
/// so the bounded kernel may skip the whole matrix (when the query's
/// score upper bound is below the running best) or a suffix of subject
/// columns (once the per-column bound shows no later cell can reach it).
/// The argmax is **identical** to [`refine_pam_distance_with`] —
/// bit-identical `score` and the same `pam_distance` — because a matrix
/// is only truncated when its true score provably cannot exceed the
/// running best, and ties keep the earlier matrix under the strict `>`
/// in both scans.  Only the `cells`/`cells_skipped` split differs; their
/// sum is invariant.  This is [`refine_query_banded`] with one subject.
pub fn refine_pam_distance_banded(
    a: &Sequence,
    b: &Sequence,
    family: &PamFamily,
    params: &AlignParams,
    scratch: &mut AlignScratch,
) -> Refined {
    let mut out = [Refined::start(family)];
    ladder_banded(a, &[b], family, params, scratch, &mut out);
    out[0]
}

/// [`refine_pam_distance_banded`] of one query against many subjects,
/// with one query profile per ladder matrix instead of one per (pair,
/// matrix).  Each subject keeps its own running best as its `beat`, so
/// every result — score bits, `pam_distance`, `cells`, `cells_skipped`
/// — equals the per-pair scan's.  Results are pushed onto `out`
/// (cleared first) in subject order.
pub fn refine_query_banded(
    a: &Sequence,
    subjects: &[&Sequence],
    family: &PamFamily,
    params: &AlignParams,
    scratch: &mut AlignScratch,
    out: &mut Vec<Refined>,
) {
    out.clear();
    out.resize(subjects.len(), Refined::start(family));
    ladder_banded(a, subjects, family, params, scratch, out);
}

/// The one banded ladder loop: matrix-outer, subject-inner, each
/// `out[i]` holding subject `i`'s running best.
fn ladder_banded(
    a: &Sequence,
    subjects: &[&Sequence],
    family: &PamFamily,
    params: &AlignParams,
    scratch: &mut AlignScratch,
    out: &mut [Refined],
) {
    for m in family.ladder() {
        scratch.set_query(a, m);
        for (b, best) in subjects.iter().zip(out.iter_mut()) {
            let r = scratch.align_loaded_bounded(&b.residues, params, Some(best.score));
            best.cells += r.cells;
            best.cells_skipped += r.cells_skipped;
            if r.score > best.score {
                best.score = r.score;
                best.pam_distance = m.pam;
            }
        }
    }
}

impl Refined {
    /// A ladder scan before its first matrix: nothing beaten yet.
    fn start(family: &PamFamily) -> Refined {
        Refined {
            pam_distance: family.ladder()[0].pam,
            score: f32::NEG_INFINITY,
            cells: 0,
            cells_skipped: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::evolve;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(rng: &mut StdRng, n: usize) -> Sequence {
        // Draw from background frequencies for realism.
        let freqs = crate::alphabet::FREQUENCIES;
        let residues = (0..n)
            .map(|_| {
                let x: f64 = rng.gen();
                let mut acc = 0.0;
                for (i, &f) in freqs.iter().enumerate() {
                    acc += f;
                    if x < acc {
                        return i as u8;
                    }
                }
                19u8
            })
            .collect();
        Sequence::new(0, residues)
    }

    #[test]
    fn refined_distance_tracks_true_divergence() {
        let family = PamFamily::default();
        let params = AlignParams::default();
        let mut rng = StdRng::seed_from_u64(11);
        let ancestor = random_seq(&mut rng, 220);

        // Evolve pairs at increasing true distances; the *estimated*
        // distances must be (weakly) increasing on average.
        let mut estimates = Vec::new();
        for &true_pam in &[20u32, 90, 250] {
            let mut sum = 0u32;
            const REPS: u32 = 4;
            for rep in 0..REPS {
                let mut r2 = StdRng::seed_from_u64(1000 + true_pam as u64 * 10 + rep as u64);
                let a = evolve(&ancestor, true_pam / 2, &family, &mut r2, 0.0);
                let b = evolve(&ancestor, true_pam / 2, &family, &mut r2, 0.0);
                let refined = refine_pam_distance(&a, &b, &family, &params);
                sum += refined.pam_distance;
            }
            estimates.push(sum / REPS);
        }
        assert!(
            estimates[0] < estimates[2],
            "estimates should grow with divergence: {estimates:?}"
        );
        // Closely related pair estimated as clearly below 150.
        assert!(estimates[0] <= 120, "{estimates:?}");
    }

    #[test]
    fn identical_pair_maps_to_smallest_distance() {
        let family = PamFamily::default();
        let params = AlignParams::default();
        let mut rng = StdRng::seed_from_u64(5);
        let s = random_seq(&mut rng, 150);
        let refined = refine_pam_distance(&s, &s, &family, &params);
        assert_eq!(refined.pam_distance, family.ladder()[0].pam);
    }

    #[test]
    fn cells_account_for_full_ladder() {
        let family = PamFamily::default();
        let params = AlignParams::default();
        let mut rng = StdRng::seed_from_u64(6);
        let a = random_seq(&mut rng, 100);
        let b = random_seq(&mut rng, 80);
        let refined = refine_pam_distance(&a, &b, &family, &params);
        assert_eq!(refined.cells, 100 * 80 * family.ladder().len() as u64);
        assert_eq!(refined.cells_skipped, 0);
    }

    #[test]
    fn banded_refinement_matches_unbanded_and_accounts_all_cells() {
        let family = PamFamily::default();
        let params = AlignParams::default();
        let mut rng = StdRng::seed_from_u64(7);
        let ancestor = random_seq(&mut rng, 120);
        let mut r2 = StdRng::seed_from_u64(77);
        let a = evolve(&ancestor, 40, &family, &mut r2, 0.02);
        let b = evolve(&ancestor, 40, &family, &mut r2, 0.02);
        let mut scratch = AlignScratch::new();
        let plain = refine_pam_distance_with(&a, &b, &family, &params, &mut scratch);
        let banded = refine_pam_distance_banded(&a, &b, &family, &params, &mut scratch);
        assert_eq!(banded.pam_distance, plain.pam_distance);
        assert_eq!(banded.score.to_bits(), plain.score.to_bits());
        // The banded scan accounts every cell exactly once.
        assert_eq!(banded.cells + banded.cells_skipped, plain.cells);
        assert!(
            banded.cells_skipped > 0,
            "a related pair should let the band prune some ladder work"
        );
    }
}
