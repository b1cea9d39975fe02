//! The batched, work-stolen refinement must be invisible in its results:
//! one query against many subjects gives every pair exactly what the
//! pair's own banded ladder scan gives, and the refine pass returns the
//! same bytes, in input order, at any worker count.

use bioopera_darwin::align::{AlignParams, AlignScratch};
use bioopera_darwin::dataset::DatasetConfig;
use bioopera_darwin::refine::{refine_pam_distance_banded, refine_query_banded, Refined};
use bioopera_darwin::{PamFamily, Sequence, SequenceDb};
use bioopera_workloads::{fixed_pass_with_workers, refine_pass_with_workers};
use proptest::prelude::*;

fn same(a: &Refined, b: &Refined) -> bool {
    a.score.to_bits() == b.score.to_bits()
        && a.pam_distance == b.pam_distance
        && a.cells == b.cells
        && a.cells_skipped == b.cells_skipped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Subjects are drawn from a small pool, so duplicates are common,
    /// and lengths start at zero on both sides.
    #[test]
    fn batched_refine_equals_the_per_pair_scan(
        query in prop::collection::vec(0u8..20, 0..=40),
        pool in prop::collection::vec(prop::collection::vec(0u8..20, 0..=40), 1..5),
        picks in prop::collection::vec(0usize..5, 0..8),
    ) {
        let fam = PamFamily::default();
        let p = AlignParams::default();
        let a = Sequence::new(0, query);
        let pool: Vec<Sequence> =
            pool.into_iter().enumerate().map(|(i, r)| Sequence::new(1 + i as u32, r)).collect();
        let subjects: Vec<&Sequence> = picks.iter().map(|&i| &pool[i % pool.len()]).collect();
        let mut scratch = AlignScratch::new();
        let mut out = vec![Refined { pam_distance: 0, score: 0.0, cells: 7, cells_skipped: 7 }];
        refine_query_banded(&a, &subjects, &fam, &p, &mut scratch, &mut out);
        prop_assert_eq!(out.len(), subjects.len());
        for (b, got) in subjects.iter().zip(&out) {
            let want = refine_pam_distance_banded(&a, b, &fam, &p, &mut AlignScratch::new());
            prop_assert!(same(got, &want), "subject {:?}: batched {:?} vs per pair {:?}", b.residues, got, want);
        }
    }
}

#[test]
fn refine_pass_is_identical_across_worker_counts() {
    let pam = PamFamily::default();
    let db = SequenceDb::generate(
        &DatasetConfig {
            size: 40,
            seed: 13,
            mean_len: 60,
            ..DatasetConfig::small(40, 13)
        },
        &pam,
    );
    let entries: Vec<u32> = (0..db.len() as u32).collect();
    let (matches, _) = fixed_pass_with_workers(&db, &pam, &entries, 40.0, 2);
    let pairs: Vec<(u32, u32)> = matches.iter().map(|m| (m.query, m.subject)).collect();
    let queries = pairs.chunk_by(|x, y| x.0 == y.0).count();
    assert!(
        queries >= 8 && pairs.len() > queries,
        "the workload should give several queries with several matches each: {} pairs, {queries} queries",
        pairs.len()
    );

    // The oracle: each pair on its own, in input order.
    let mut scratch = AlignScratch::new();
    let params = AlignParams::default();
    let want: Vec<Refined> = pairs
        .iter()
        .map(|&(q, s)| {
            refine_pam_distance_banded(db.get(q), db.get(s), &pam, &params, &mut scratch)
        })
        .collect();
    for workers in [1usize, 2, 3, 5, 64] {
        let got = refine_pass_with_workers(&db, &pam, &pairs, workers);
        assert_eq!(got.len(), want.len(), "length differs at {workers} workers");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                same(g, w),
                "pair {i} {:?} differs at {workers} workers: {g:?} vs {w:?}",
                pairs[i]
            );
        }
    }
    // Nothing to refine is nothing returned, at any worker count.
    assert!(refine_pass_with_workers(&db, &pam, &[], 4).is_empty());
}
