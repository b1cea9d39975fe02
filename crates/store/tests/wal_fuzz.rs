//! Fuzz-style property tests for `wal::replay` (ISSUE 2 satellite).
//!
//! Starting from a *valid* multi-frame log, arbitrary byte mutations
//! (bit flips, truncations, garbage splices) must never panic the
//! replayer.  Every outcome is one of exactly two shapes:
//!
//! * `Ok(replay)` — the decoded batches are a **prefix** of the original
//!   batches up to the first mutated byte, and the byte accounting is
//!   exact: `valid_len + truncated_bytes == log.len()`.
//! * `Err(StoreError::Corruption(_))` — a typed error; never a panic,
//!   never an I/O error, and never bogus decoded batches.
//!
//! `replay` collects a log into a list of its batches and nothing in the
//! engine calls it: recovery goes through the visiting `replay_shared`,
//! which hands each frame's operations over as it is decoded.  The two
//! have a loop each, and on every image here — every truncation and a
//! seeded flip of every byte of a valid log included — they must say the
//! same thing: the same operations, where the valid log ends, how much was
//! cut, or the same error.

use bioopera_store::wal::{encode_frame, replay, replay_shared, Replay, WalOp};
use bioopera_store::StoreError;
use bytes::Bytes;
use proptest::prelude::*;

/// `log` through the visiting replay, collected into the shape the
/// collecting one returns.
fn visited(log: &[u8]) -> Result<Replay, StoreError> {
    let mut batches = Vec::new();
    let end = replay_shared(&Bytes::copy_from_slice(log), |ops| {
        batches.push(std::mem::take(ops));
        Ok::<(), StoreError>(())
    })?;
    Ok(Replay {
        batches,
        valid_len: end.valid_len,
        truncated_bytes: end.truncated_bytes,
        torn_tail: end.torn_tail,
    })
}

/// Both replays on `log`; they must agree.  Returns what they said.
fn replay_both_ways(log: &[u8], what: &str) -> Result<Replay, StoreError> {
    let collected = replay(log);
    let visited = visited(log);
    let tell = |r: &Result<Replay, StoreError>| match r {
        Ok(r) => format!(
            "{} batches {:?}, valid to {}, {} cut, torn {}",
            r.batches.len(),
            r.batches,
            r.valid_len,
            r.truncated_bytes,
            r.torn_tail
        ),
        Err(e) => format!("error: {e}"),
    };
    assert_eq!(
        tell(&visited),
        tell(&collected),
        "{what}: the visiting replay (left) and the collecting one (right) disagree"
    );
    collected
}

/// A deterministic valid log: returns `(log bytes, frame boundaries)`.
fn valid_log(n_frames: usize, fat: bool) -> (Vec<u8>, Vec<usize>) {
    let mut log = Vec::new();
    let mut bounds = vec![0usize];
    for i in 0..n_frames {
        let mut ops = vec![WalOp::Put {
            space: (i % 4) as u8,
            key: format!("inst/{i}/task/t{i}"),
            value: Bytes::from(vec![i as u8; if fat { 64 + i } else { i % 7 }]),
        }];
        if i % 3 == 0 {
            ops.push(WalOp::Delete {
                space: (i % 4) as u8,
                key: format!("old/{i}"),
            });
        }
        log.extend_from_slice(&encode_frame(&ops));
        bounds.push(log.len());
    }
    (log, bounds)
}

#[derive(Debug, Clone)]
enum Mutation {
    /// XOR a mask into one byte (position as a fraction of the log).
    Flip { frac: f64, mask: u8 },
    /// Truncate the log at a fractional position.
    Truncate { frac: f64 },
    /// Splice garbage bytes at a fractional position.
    Splice { frac: f64, bytes: Vec<u8> },
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0.0f64..1.0, 1u8..=255).prop_map(|(frac, mask)| Mutation::Flip { frac, mask }),
        (0.0f64..1.0).prop_map(|frac| Mutation::Truncate { frac }),
        (0.0f64..1.0, prop::collection::vec(any::<u8>(), 1..24))
            .prop_map(|(frac, bytes)| Mutation::Splice { frac, bytes }),
    ]
}

/// Apply mutations; returns the mutated log and the smallest byte offset
/// any mutation touched (everything before it is guaranteed intact).
fn mutate(log: &[u8], muts: &[Mutation]) -> (Vec<u8>, usize) {
    let mut out = log.to_vec();
    let mut first_touched = out.len();
    for m in muts {
        if out.is_empty() {
            break;
        }
        match m {
            Mutation::Flip { frac, mask } => {
                let at = ((out.len() as f64 * frac) as usize).min(out.len() - 1);
                out[at] ^= mask;
                first_touched = first_touched.min(at);
            }
            Mutation::Truncate { frac } => {
                let at = ((out.len() as f64 * frac) as usize).min(out.len());
                out.truncate(at);
                first_touched = first_touched.min(at);
            }
            Mutation::Splice { frac, bytes } => {
                let at = ((out.len() as f64 * frac) as usize).min(out.len());
                for (i, b) in bytes.iter().enumerate() {
                    out.insert(at + i, *b);
                }
                first_touched = first_touched.min(at);
            }
        }
    }
    (out, first_touched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn replay_of_mutated_log_is_prefix_or_typed_error(
        n_frames in 1usize..12,
        fat in any::<bool>(),
        muts in prop::collection::vec(mutation_strategy(), 1..6),
    ) {
        let (log, bounds) = valid_log(n_frames, fat);
        let oracle = replay_both_ways(&log, "the valid log").unwrap();
        prop_assert_eq!(oracle.batches.len(), n_frames);
        prop_assert!(!oracle.torn_tail);

        let (mutated, first_touched) = mutate(&log, &muts);
        // Frames entirely before the first mutated byte must replay intact.
        let intact_frames = bounds.iter().filter(|b| **b <= first_touched).count() - 1;
        match replay_both_ways(&mutated, "a mutated log") {
            Ok(r) => {
                prop_assert_eq!(
                    r.valid_len + r.truncated_bytes,
                    mutated.len(),
                    "byte accounting must be exact"
                );
                prop_assert!(r.torn_tail == (r.truncated_bytes > 0));
                prop_assert!(
                    r.batches.len() >= intact_frames,
                    "lost {} intact frames (got {})",
                    intact_frames,
                    r.batches.len()
                );
                for (i, got) in r.batches.iter().enumerate().take(intact_frames) {
                    prop_assert_eq!(got, &oracle.batches[i], "intact frame {} diverged", i);
                }
            }
            Err(StoreError::Corruption(_)) => {} // typed, acceptable
            Err(e) => prop_assert!(false, "unexpected error kind: {}", e),
        }
    }

    #[test]
    fn replay_of_pure_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        match replay_both_ways(&bytes, "garbage") {
            Ok(r) => prop_assert_eq!(r.valid_len + r.truncated_bytes, bytes.len()),
            Err(StoreError::Corruption(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {}", e),
        }
    }
}

/// Every cut point, and every byte flipped under a seeded mask, of a valid
/// log with thin and fat frames: the visiting replay and the collecting
/// one agree on each — in particular on the last whole frame before a torn
/// tail, and on which damage is a torn tail and which is corruption.
#[test]
fn visiting_and_collecting_replays_agree_on_every_truncation_and_bit_flip() {
    for fat in [false, true] {
        let (log, bounds) = valid_log(9, fat);
        for cut in 0..=log.len() {
            let replayed = replay_both_ways(&log[..cut], &format!("cut at {cut}")).unwrap();
            let whole = bounds.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(replayed.batches.len(), whole, "cut at {cut}");
            assert_eq!(replayed.valid_len, bounds[whole], "cut at {cut}");
        }
        let mut mask = 0x9E37_79B9_7F4A_7C15u64;
        for at in 0..log.len() {
            mask = mask.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let mut flipped = log.clone();
            flipped[at] ^= ((mask >> 33) as u8) | 1;
            // Typed corruption or a shorter valid prefix; never a panic,
            // and the same answer both ways.
            let _ = replay_both_ways(&flipped, &format!("flip at {at}"));
        }
    }
}
