//! The streaming k-way merge every multi-input read goes through: a
//! compaction's inputs, and a range scan's tier and memtable.
//!
//! Each run input is a cursor over runs with ascending, disjoint hulls —
//! one source run, one L0 run, or a level — that holds one block at a
//! time and walks it in place ([`Run::load_raw_block`]: CRC-checked, each
//! op parsed by the one op parser).  A scan seeks every run cursor to its
//! start by the sparse index, reads no block that begins past its range,
//! and adds the memtable's range as the newest input.  [`Merge::next`]
//! yields every `(space, key)` once, in order, with the newest input's
//! value borrowed from that input's buffer.  Resident memory is one block
//! per input, whatever the inputs' size.

use crate::disk::Disk;
use crate::error::{StoreError, StoreResult};
use crate::memtable::MemTables;
use crate::runs::Run;
use crate::wal::{OpAt, OpWalk};
use bytes::Bytes;
use std::collections::btree_map;
use std::ops::{Bound, Range};

/// What a scan reads: `space`'s keys from `start` on while `within` holds,
/// with `mem`'s table of that space as the newest input.
#[derive(Clone, Copy)]
pub(crate) struct Scan<'a> {
    pub(crate) space: u8,
    pub(crate) start: &'a str,
    pub(crate) within: &'a dyn Fn(&str) -> bool,
    pub(crate) mem: &'a MemTables,
}

/// Block-at-a-time reader over runs whose hulls ascend without overlap.
struct RunCursor<'a> {
    runs: &'a [Run],
    next_block: usize,
    /// The current block's payload, a slice of the block as read.
    block: Bytes,
    walk: OpWalk,
    /// The entry the cursor stands on; `None` once it is exhausted.
    head: Option<OpAt>,
    /// A scan's range; a compaction's cursor reads every entry.
    scan: Option<Scan<'a>>,
}

impl<'a> RunCursor<'a> {
    /// A cursor before the first entry of `runs`, or of `scan`'s range:
    /// runs and blocks wholly below its start are skipped by the index.
    fn new(mut runs: &'a [Run], scan: Option<Scan<'a>>) -> Self {
        let mut next_block = 0;
        if let Some(Scan { space, start, .. }) = scan {
            let below = runs.partition_point(|r| r.max_key().is_none_or(|m| m < (space, start)));
            runs = &runs[below..];
            next_block = runs.first().map_or(0, |r| r.seek(space, start));
        }
        RunCursor {
            runs,
            next_block,
            block: Bytes::new(),
            walk: OpWalk::default(),
            head: None,
            scan,
        }
    }

    /// Step to the next entry, loading the next block when this one is
    /// walked out.
    fn advance<D: Disk>(&mut self, disk: &D) -> StoreResult<()> {
        self.head = None;
        loop {
            if let Some((op, key)) = self.walk.next(&self.block)? {
                match self.scan {
                    Some(scan) if key < scan.start => continue,
                    Some(scan) if !(scan.within)(key) => {}
                    _ => self.head = Some(op),
                }
                return Ok(());
            }
            let Some(run) = self.runs.first() else {
                return Ok(());
            };
            if self.next_block == run.block_count() {
                self.runs = &self.runs[1..];
                self.next_block = 0;
                continue;
            }
            // A block of a later space, or one that begins past a scan's
            // range, is left unread.
            let (space, first) = run.block_start(self.next_block);
            let past = |s: Scan| space != s.space || (first >= s.start && !(s.within)(first));
            if self.scan.is_some_and(past) {
                return Ok(());
            }
            self.block = run.load_raw_block(disk, self.next_block)?;
            self.walk = OpWalk::new(&self.block)?;
            self.next_block += 1;
        }
    }
}

/// A range of one space's memtable.
type MemRange<'a> = btree_map::Range<'a, String, Option<Bytes>>;

/// One input of a merge: runs, or a scan's memtable range and its head (a
/// `None` value is a tombstone).
enum Cursor<'a> {
    Runs(RunCursor<'a>),
    Mem(
        Scan<'a>,
        MemRange<'a>,
        Option<(&'a String, &'a Option<Bytes>)>,
    ),
}

impl Cursor<'_> {
    fn advance<D: Disk>(&mut self, disk: &D) -> StoreResult<()> {
        match self {
            Cursor::Runs(c) => c.advance(disk),
            Cursor::Mem(scan, range, head) => {
                *head = range.next().filter(|(k, _)| (scan.within)(k));
                Ok(())
            }
        }
    }

    /// The head's `(space, key)`, the key as bytes: they order as the
    /// text does.
    fn key(&self) -> Option<(u8, &[u8])> {
        match self {
            Cursor::Runs(c) => c.head.as_ref().map(|h| (h.space, &c.block[h.key.clone()])),
            Cursor::Mem(scan, _, head) => head.map(|(k, _)| (scan.space, k.as_bytes())),
        }
    }

    fn entry(&self) -> StoreResult<Option<Entry<'_>>> {
        let Some((space, key)) = self.key() else {
            return Ok(None);
        };
        let key = std::str::from_utf8(key)
            .map_err(|_| StoreError::Corruption("key is not utf-8".into()))?;
        let value = match self {
            Cursor::Runs(c) => c.head.clone().and_then(|h| Some((&c.block, h.value?))),
            Cursor::Mem(_, _, head) => head.and_then(|(_, v)| v.as_ref()).map(|v| (v, 0..v.len())),
        };
        Ok(Some(Entry { space, key, value }))
    }
}

/// One entry of a merge: the newest input's version of its key.
pub(crate) struct Entry<'m> {
    pub(crate) space: u8,
    pub(crate) key: &'m str,
    /// The buffer the value lies in — the block it was read in, or the
    /// memtable's own — and where; `None` for a tombstone.
    pub(crate) value: Option<(&'m Bytes, Range<usize>)>,
}

/// The merged view of its inputs, oldest input first (a later input's
/// value for a key wins).
pub(crate) struct Merge<'a, D: Disk> {
    disk: &'a D,
    cursors: Vec<Cursor<'a>>,
    /// The cursor whose head the last [`Merge::next`] handed out: it
    /// steps on at the next call, once the caller is done with the entry.
    taken: Option<usize>,
}

impl<'a, D: Disk> Merge<'a, D> {
    /// Every entry of `inputs` (a compaction), or only those in `scan`'s
    /// range, with the memtable's range as the newest input (a read).
    pub(crate) fn new(
        disk: &'a D,
        inputs: impl IntoIterator<Item = &'a [Run]>,
        scan: Option<Scan<'a>>,
    ) -> StoreResult<Self> {
        let mut cursors: Vec<Cursor<'a>> = inputs
            .into_iter()
            .map(|runs| Cursor::Runs(RunCursor::new(runs, scan)))
            .collect();
        if let Some(scan) = scan {
            let range = (Bound::Included(scan.start), Bound::Unbounded);
            let mem = &scan.mem.spaces[scan.space as usize];
            cursors.push(Cursor::Mem(scan, mem.range::<str, _>(range), None));
        }
        for cursor in &mut cursors {
            cursor.advance(disk)?;
        }
        Ok(Merge {
            disk,
            cursors,
            taken: None,
        })
    }

    /// The next `(space, key)` in order with its newest value; older
    /// versions of the same key are stepped over.  A linear minimum: a
    /// merge has a handful of inputs.
    pub(crate) fn next(&mut self) -> StoreResult<Option<Entry<'_>>> {
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
            got.push((
                e.space,
                e.key.to_string(),
                e.value.map(|(b, at)| b[at].to_vec()),
            ));
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
        let inputs: [&[Run]; 3] = [&level, &mid, &new];
        let mut merge = Merge::new(&disk, inputs, None).unwrap();
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

        // A scan of space 1 from "b" on, with the memtable newest: its
        // tombstone and its value win, and nothing of space 3 is read.
        let mut mem = MemTables::default();
        mem.spaces[1] = BTreeMap::from([
            ("m".to_string(), None),
            ("n".to_string(), Some(Bytes::from_static(b"mem"))),
        ]);
        let always = |_: &str| true;
        let scan = Scan {
            space: 1,
            start: "b",
            within: &always,
            mem: &mem,
        };
        let mut merge = Merge::new(&disk, inputs, Some(scan)).unwrap();
        let got = drain(&mut merge);
        let expect: Vec<Owned> = [
            (1, "b", None),
            (1, "m", None),
            (1, "n", Some(&b"mem"[..])),
            (1, "z", Some(b"new")),
        ]
        .iter()
        .map(|&(s, k, v)| (s, k.to_string(), v.map(<[u8]>::to_vec)))
        .collect();
        assert_eq!(got, expect);
    }

    /// A scanned value is a slice of the block it was read in, not a
    /// copy: two values of one block share one buffer.
    #[test]
    fn scanned_values_are_slices_of_their_block() {
        let disk = MemDisk::new();
        let run = [write(
            &disk,
            0,
            &[(1, "a", Some(b"first")), (1, "b", Some(b"second"))],
        )];
        let mem = MemTables::default();
        let always = |_: &str| true;
        let scan = Scan {
            space: 1,
            start: "",
            within: &always,
            mem: &mem,
        };
        let inputs: [&[Run]; 1] = [&run];
        let mut merge = Merge::new(&disk, inputs, Some(scan)).unwrap();
        let mut value = || {
            let (block, at) = merge.next().unwrap().unwrap().value.unwrap();
            block.slice(at)
        };
        let (a, b) = (value(), value());
        assert_eq!(
            (a.as_slice(), b.as_slice()),
            (&b"first"[..], &b"second"[..])
        );
        // "a"'s value, "b"'s op header (tag, space, key length, key,
        // value length), then "b"'s value.
        let gap = 1 + 1 + 4 + 1 + 4;
        assert_eq!(b.as_ptr(), a.as_ptr().wrapping_add(a.len() + gap));
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
        let inputs: [&[Run]; 1] = [&run];
        assert!(Merge::new(&disk, inputs, None).is_err());
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
            let got = drain(&mut Merge::new(&disk, levels.iter().map(Vec::as_slice), None).unwrap());
            let expect: Vec<Owned> = fold.into_iter().map(|((s, k), v)| (s, k, v)).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
