//! The streaming k-way merge a compaction reads its inputs through.
//!
//! Each input is a [`Cursor`] over a sequence of runs with ascending,
//! pairwise-disjoint hulls — one source run, or the selected runs of the
//! target level — that holds one decoded block at a time.  A binary heap
//! over the cursors' heads yields every `(space, key)` once, in order,
//! with the value of the newest input that holds it.  Resident memory is
//! one block per input, whatever the inputs' size; every block still
//! goes through [`Run::load_block_at`], so each read is CRC-checked.

use crate::disk::Disk;
use crate::error::StoreResult;
use crate::runs::Run;
use crate::wal::WalOp;
use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// `(space, key, value)`; `None` is a tombstone.
pub(crate) type Entry = (u8, String, Option<Bytes>);

/// Block-at-a-time reader over runs whose hulls ascend without overlap.
struct Cursor<'a> {
    runs: &'a [Run],
    next_block: usize,
    ops: std::vec::IntoIter<WalOp>,
}

impl Cursor<'_> {
    fn next<D: Disk>(&mut self, disk: &D) -> StoreResult<Option<Entry>> {
        loop {
            if let Some(op) = self.ops.next() {
                return Ok(Some(op.into_entry()));
            }
            let Some(run) = self.runs.first() else {
                return Ok(None);
            };
            if self.next_block == run.block_count() {
                self.runs = &self.runs[1..];
                self.next_block = 0;
            } else {
                self.ops = run.load_block_at(disk, self.next_block)?.into_iter();
                self.next_block += 1;
            }
        }
    }
}

/// One cursor's current entry.  The heap is a max-heap, so the order is
/// reversed on the key and direct on the rank: the top is the smallest
/// key, and among equal keys the newest input.
struct Head {
    entry: Entry,
    rank: usize,
}

impl Head {
    fn key(&self) -> (u8, &str) {
        (self.entry.0, self.entry.1.as_str())
    }
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key()
            .cmp(&self.key())
            .then(self.rank.cmp(&other.rank))
    }
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head {}

/// The merged view of `inputs`, oldest input first (a later input's
/// value for a key wins).
pub(crate) struct Merge<'a, D: Disk> {
    disk: &'a D,
    cursors: Vec<Cursor<'a>>,
    heap: BinaryHeap<Head>,
}

impl<'a, D: Disk> Merge<'a, D> {
    pub(crate) fn new(disk: &'a D, inputs: &[&'a [Run]]) -> StoreResult<Self> {
        let mut merge = Merge {
            disk,
            cursors: Vec::with_capacity(inputs.len()),
            heap: BinaryHeap::with_capacity(inputs.len()),
        };
        for (rank, &runs) in inputs.iter().enumerate() {
            let mut cursor = Cursor {
                runs,
                next_block: 0,
                ops: Vec::new().into_iter(),
            };
            if let Some(entry) = cursor.next(disk)? {
                merge.heap.push(Head { entry, rank });
            }
            merge.cursors.push(cursor);
        }
        Ok(merge)
    }

    /// Take the heap's top and refill its slot from the same cursor.
    fn pop(&mut self) -> StoreResult<Option<Entry>> {
        let Some(mut top) = self.heap.peek_mut() else {
            return Ok(None);
        };
        Ok(Some(match self.cursors[top.rank].next(self.disk)? {
            Some(entry) => std::mem::replace(&mut top.entry, entry),
            None => PeekMut::pop(top).entry,
        }))
    }

    /// The next `(space, key)` in order with its newest value; older
    /// versions of the same key are consumed and dropped.
    pub(crate) fn next(&mut self) -> StoreResult<Option<Entry>> {
        let Some(newest) = self.pop()? else {
            return Ok(None);
        };
        while self
            .heap
            .peek()
            .is_some_and(|h| h.key() == (newest.0, newest.1.as_str()))
        {
            self.pop()?;
        }
        Ok(Some(newest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::runs::{build_run, run_name, RunEntry};

    fn write(disk: &MemDisk, id: u64, entries: &[(u8, &str, Option<&[u8]>)]) -> Run {
        let entries: Vec<RunEntry<'_>> = entries
            .iter()
            .map(|&(space, key, value)| RunEntry { space, key, value })
            .collect();
        disk.write_atomic(&run_name(id), &build_run(&entries))
            .unwrap();
        Run::open(disk, &run_name(id)).unwrap()
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
        let mut got = Vec::new();
        while let Some((space, key, value)) = merge.next().unwrap() {
            got.push((space, key, value.map(|v| v.to_vec())));
        }
        let expect: Vec<(u8, String, Option<Vec<u8>>)> = [
            (1, "a", Some(&b"old"[..])),
            (1, "b", None),
            (1, "m", Some(b"mid")),
            (1, "z", Some(b"new")),
            (3, "a", Some(b"old")),
        ]
        .iter()
        .map(|&(s, k, v)| (s, k.to_string(), v.map(<[u8]>::to_vec)))
        .collect();
        assert_eq!(got, expect);
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
}
