//! The streaming k-way merge a compaction reads its inputs through.
//!
//! Each input is a [`Cursor`] over a sequence of runs with ascending,
//! pairwise-disjoint hulls — one source run, or the selected runs of the
//! target level — that holds one raw block at a time and walks it in
//! place ([`Run::load_raw_block`], so each block read is CRC-checked and
//! each op parsed by the one op parser).  [`Merge::next`] yields every
//! `(space, key)` once, in order, with the value of the newest input that
//! holds it, borrowed from that input's block: nothing is decoded into an
//! owned op, and a surviving entry is copied once, into the output run.
//! Resident memory is one block per input, whatever the inputs' size.

use crate::disk::Disk;
use crate::error::{StoreError, StoreResult};
use crate::runs::{Run, RunEntry};
use crate::wal::{self, OpAt, OpWalk};

/// Block-at-a-time reader over runs whose hulls ascend without overlap.
struct Cursor<'a> {
    runs: &'a [Run],
    next_block: usize,
    /// The current block: one whole frame.
    block: Vec<u8>,
    walk: OpWalk,
    /// The entry the cursor stands on; `None` once it is exhausted.
    head: Option<OpAt>,
}

/// The payload of a block frame (nothing before the first block).
fn payload(block: &[u8]) -> &[u8] {
    block.get(wal::HEADER_LEN..).unwrap_or_default()
}

impl Cursor<'_> {
    /// Step to the next entry, loading the next block when this one is
    /// walked out.
    fn advance<D: Disk>(&mut self, disk: &D) -> StoreResult<()> {
        loop {
            if let Some((op, _)) = self.walk.next(payload(&self.block))? {
                self.head = Some(op);
                return Ok(());
            }
            let Some(run) = self.runs.first() else {
                self.head = None;
                return Ok(());
            };
            if self.next_block == run.block_count() {
                self.runs = &self.runs[1..];
                self.next_block = 0;
            } else {
                self.block = run.load_raw_block(disk, self.next_block)?;
                self.walk = OpWalk::new(payload(&self.block))?;
                self.next_block += 1;
            }
        }
    }

    /// The head's `(space, key)`, the key as bytes: they order as the
    /// text does.
    fn key(&self) -> Option<(u8, &[u8])> {
        let head = self.head.as_ref()?;
        Some((head.space, &payload(&self.block)[head.key.clone()]))
    }

    fn entry(&self) -> StoreResult<Option<RunEntry<'_>>> {
        let Some(head) = &self.head else {
            return Ok(None);
        };
        let payload = payload(&self.block);
        let key = std::str::from_utf8(&payload[head.key.clone()])
            .map_err(|_| StoreError::Corruption("key is not utf-8".into()))?;
        Ok(Some(RunEntry {
            space: head.space,
            key,
            value: head.value.clone().map(|v| &payload[v]),
        }))
    }
}

/// The merged view of `inputs`, oldest input first (a later input's
/// value for a key wins).
pub(crate) struct Merge<'a, D: Disk> {
    disk: &'a D,
    cursors: Vec<Cursor<'a>>,
    /// The cursor whose head the last [`Merge::next`] handed out: it
    /// steps on at the next call, once the caller is done with the entry.
    taken: Option<usize>,
}

impl<'a, D: Disk> Merge<'a, D> {
    pub(crate) fn new(disk: &'a D, inputs: &[&'a [Run]]) -> StoreResult<Self> {
        let mut cursors = Vec::with_capacity(inputs.len());
        for &runs in inputs {
            let mut cursor = Cursor {
                runs,
                next_block: 0,
                block: Vec::new(),
                walk: OpWalk::default(),
                head: None,
            };
            cursor.advance(disk)?;
            cursors.push(cursor);
        }
        Ok(Merge {
            disk,
            cursors,
            taken: None,
        })
    }

    /// The next `(space, key)` in order with its newest value; older
    /// versions of the same key are stepped over.  A linear minimum: a
    /// merge has at most `run_merge_threshold + 1` inputs.
    pub(crate) fn next(&mut self) -> StoreResult<Option<RunEntry<'_>>> {
        if let Some(i) = self.taken.take() {
            self.cursors[i].advance(self.disk)?;
        }
        let mut newest: Option<(usize, (u8, &[u8]))> = None;
        for (i, cursor) in self.cursors.iter().enumerate() {
            if let Some(key) = cursor.key() {
                // `<=`: of equal keys the later, newer input wins.
                if newest.is_none_or(|(_, best)| key <= best) {
                    newest = Some((i, key));
                }
            }
        }
        let Some((win, _)) = newest else {
            return Ok(None);
        };
        // Only an older input can hold the winner's key too.
        for i in 0..win {
            if self.cursors[i].key() == self.cursors[win].key() {
                self.cursors[i].advance(self.disk)?;
            }
        }
        self.taken = Some(win);
        self.cursors[win].entry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::runs::{build_run, run_name, RunEntry};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn write(disk: &MemDisk, id: u64, entries: &[(u8, &str, Option<&[u8]>)]) -> Run {
        let entries: Vec<RunEntry<'_>> = entries
            .iter()
            .map(|&(space, key, value)| RunEntry { space, key, value })
            .collect();
        disk.write_atomic(&run_name(id), &build_run(&entries))
            .unwrap();
        Run::open(disk, &run_name(id)).unwrap()
    }

    type Owned = (u8, String, Option<Vec<u8>>);

    fn drain(merge: &mut Merge<'_, MemDisk>) -> Vec<Owned> {
        let mut got = Vec::new();
        while let Some(e) = merge.next().unwrap() {
            got.push((e.space, e.key.to_string(), e.value.map(<[u8]>::to_vec)));
        }
        got
    }

    #[test]
    fn newest_input_wins_and_runs_of_one_input_concatenate() {
        let disk = MemDisk::new();
        // One input of two disjoint runs (a level), then two newer
        // single-run inputs that overwrite and tombstone parts of it.
        let level = [
            write(&disk, 0, &[(1, "a", Some(b"old")), (1, "b", Some(b"old"))]),
            write(&disk, 1, &[(1, "m", Some(b"old")), (3, "a", Some(b"old"))]),
        ];
        let mid = [write(
            &disk,
            2,
            &[(1, "b", Some(b"mid")), (1, "m", Some(b"mid"))],
        )];
        let new = [write(&disk, 3, &[(1, "b", None), (1, "z", Some(b"new"))])];
        let mut merge = Merge::new(&disk, &[&level, &mid, &new]).unwrap();
        let expect: Vec<Owned> = [
            (1, "a", Some(&b"old"[..])),
            (1, "b", None),
            (1, "m", Some(b"mid")),
            (1, "z", Some(b"new")),
            (3, "a", Some(b"old")),
        ]
        .iter()
        .map(|&(s, k, v)| (s, k.to_string(), v.map(<[u8]>::to_vec)))
        .collect();
        assert_eq!(drain(&mut merge), expect);
    }

    #[test]
    fn corrupt_block_surfaces_mid_merge() {
        let disk = MemDisk::new();
        let run = [write(
            &disk,
            0,
            &[(1, "a", Some(b"v")), (1, "b", Some(b"v"))],
        )];
        assert!(disk.corrupt_byte(&run_name(0), 12, 0x01));
        assert!(Merge::new(&disk, &[&run]).is_err());
    }

    /// One merge input: a sorted entry set, laid down as one run or as a
    /// level of several runs with ascending, disjoint hulls.
    #[derive(Debug, Clone)]
    struct Input {
        entries: BTreeMap<(u8, String), Option<Vec<u8>>>,
        /// Cut the set into runs before these entry indexes.
        cuts: Vec<usize>,
    }

    fn input_strategy() -> impl Strategy<Value = Input> {
        // A small key pool, so one key turns up in several inputs; values
        // up to a few KiB, so runs span several blocks.
        let key = (0u8..3, 0u8..24).prop_map(|(space, k)| (space, format!("k/{k:02}")));
        let value = prop_oneof![
            1 => Just(None),
            3 => prop::collection::vec(any::<u8>(), 0..1500).prop_map(Some),
        ];
        (
            prop::collection::btree_map(key, value, 0..20),
            prop::collection::vec(0usize..20, 0..3),
        )
            .prop_map(|(entries, cuts)| Input { entries, cuts })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The merge of any inputs — empty ones, multi-run levels, one key
        /// in three or more of them, tombstones — is the fold of the
        /// inputs, oldest first, into one sorted map.
        #[test]
        fn merge_is_the_newest_input_wins_fold(inputs in prop::collection::vec(input_strategy(), 1..6)) {
            let disk = MemDisk::new();
            let mut id = 0;
            let mut levels: Vec<Vec<Run>> = Vec::new();
            let mut fold: BTreeMap<(u8, String), Option<Vec<u8>>> = BTreeMap::new();
            for input in &inputs {
                let rows: Vec<(u8, &str, Option<&[u8]>)> = input
                    .entries
                    .iter()
                    .map(|((s, k), v)| (*s, k.as_str(), v.as_deref()))
                    .collect();
                let mut cuts = input.cuts.clone();
                cuts.retain(|&c| c < rows.len());
                cuts.sort_unstable();
                cuts.dedup();
                let mut runs = Vec::new();
                let mut from = 0;
                for end in cuts.into_iter().chain([rows.len()]) {
                    if end > from || rows.is_empty() {
                        runs.push(write(&disk, id, &rows[from..end]));
                        id += 1;
                    }
                    from = end;
                }
                levels.push(runs);
                for (k, v) in &input.entries {
                    fold.insert(k.clone(), v.clone());
                }
            }
            let inputs: Vec<&[Run]> = levels.iter().map(Vec::as_slice).collect();
            let got = drain(&mut Merge::new(&disk, &inputs).unwrap());
            let expect: Vec<Owned> = fold.into_iter().map(|((s, k), v)| (s, k, v)).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
