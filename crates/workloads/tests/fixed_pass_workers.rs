//! The work-stealing fixed pass must be worker-count-invariant: same
//! matches (order, scores, digest) and same cell count no matter how many
//! threads pull from the atomic queue or how their draws interleave.  And
//! it must be the per-pair oracle: every pair scored as
//! [`align_score_naive`] scores it.

use bioopera_darwin::align::{align_score_naive, AlignParams};
use bioopera_darwin::dataset::DatasetConfig;
use bioopera_darwin::pam::FIXED_PAM;
use bioopera_darwin::{Match, MatchSet, PamFamily, SequenceDb};
use bioopera_workloads::fixed_pass_with_workers;

fn digest_of(matches: &[Match]) -> u64 {
    let mut set = MatchSet::new();
    set.matches.extend(matches.iter().copied());
    set.sort_by_entry();
    set.digest()
}

#[test]
fn fixed_pass_matches_are_identical_across_worker_counts() {
    let pam = PamFamily::default();
    let db = SequenceDb::generate(
        &DatasetConfig {
            size: 24,
            seed: 9,
            mean_len: 60,
            ..DatasetConfig::small(24, 9)
        },
        &pam,
    );
    let entries: Vec<u32> = (0..db.len() as u32).collect();
    let threshold = 80.0;

    let (base_matches, base_cells) = fixed_pass_with_workers(&db, &pam, &entries, threshold, 1);
    assert!(!base_matches.is_empty(), "workload should produce matches");
    let base_digest = digest_of(&base_matches);

    for workers in [2usize, 3, 5, 13, 64] {
        let (matches, cells) = fixed_pass_with_workers(&db, &pam, &entries, threshold, workers);
        assert_eq!(cells, base_cells, "cells differ at {workers} workers");
        assert_eq!(
            matches.len(),
            base_matches.len(),
            "count differs at {workers} workers"
        );
        // Byte-level identity, not just digest: same order, same scores.
        for (a, b) in base_matches.iter().zip(&matches) {
            assert_eq!(a.query, b.query);
            assert_eq!(a.subject, b.subject);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert_eq!(digest_of(&matches), base_digest);
    }
}

#[test]
fn fixed_pass_handles_partial_and_empty_queues() {
    let pam = PamFamily::default();
    let db = SequenceDb::generate(
        &DatasetConfig {
            size: 12,
            seed: 3,
            mean_len: 50,
            ..DatasetConfig::small(12, 3)
        },
        &pam,
    );
    // Empty queue: nothing to do at any worker count.
    let (m, c) = fixed_pass_with_workers(&db, &pam, &[], 80.0, 4);
    assert!(m.is_empty());
    assert_eq!(c, 0);
    // A partial, non-contiguous queue is still worker-count-invariant.
    let entries = vec![7u32, 0, 11, 3];
    let (m1, c1) = fixed_pass_with_workers(&db, &pam, &entries, 40.0, 1);
    let (m4, c4) = fixed_pass_with_workers(&db, &pam, &entries, 40.0, 4);
    assert_eq!(c1, c4);
    assert_eq!(m1.len(), m4.len());
    for (a, b) in m1.iter().zip(&m4) {
        assert_eq!(
            (a.query, a.subject, a.score.to_bits()),
            (b.query, b.subject, b.score.to_bits())
        );
    }
    // The last entry aligns against nothing ahead of it only when it is
    // the database's final entry; entry 11 here contributes zero pairs.
    let (m_last, c_last) = fixed_pass_with_workers(&db, &pam, &[11], 40.0, 2);
    assert!(m_last.is_empty());
    assert_eq!(c_last, 0);
}

#[test]
fn fixed_pass_is_the_per_pair_oracle() {
    let pam = PamFamily::default();
    let db = SequenceDb::generate(
        &DatasetConfig {
            size: 30,
            seed: 21,
            mean_len: 60,
            ..DatasetConfig::small(30, 21)
        },
        &pam,
    );
    let n = db.len() as u32;
    let m = pam.nearest(FIXED_PAM);
    let p = AlignParams::default();
    let entries: Vec<u32> = (0..n).collect();
    // Threshold 0 keeps every pair (scores are never negative) and runs
    // no filter; 30 and 80, the fixed pass's own, keep some of them and
    // run the upper-bound filter wherever the host has a SIMD level.
    let pairs = (n * (n - 1) / 2) as usize;
    for threshold in [0.0f32, 30.0, 80.0] {
        let mut expected = Vec::new();
        let mut cells = 0u64;
        for e in 0..n {
            for f in e + 1..n {
                let r = align_score_naive(db.get(e), db.get(f), m, &p);
                cells += r.cells;
                if r.score >= threshold {
                    expected.push((e, f, r.score.to_bits()));
                }
            }
        }
        assert!(threshold > 0.0 || expected.len() == pairs);
        assert!(threshold == 0.0 || (!expected.is_empty() && expected.len() < pairs));
        for workers in [1usize, 3] {
            let (matches, got_cells) =
                fixed_pass_with_workers(&db, &pam, &entries, threshold, workers);
            let got: Vec<_> = matches
                .iter()
                .map(|x| (x.query, x.subject, x.score.to_bits()))
                .collect();
            assert_eq!(got, expected, "threshold {threshold}, {workers} workers");
            assert_eq!(got_cells, cells);
        }
    }
}
