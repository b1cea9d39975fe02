//! **Immutable sorted-run files** — the on-disk tier beneath the
//! memtables.
//!
//! When a memtable exceeds its budget the engine spills it to a run
//! file; reads consult the memtable first and then the runs newest to
//! oldest.  A run is written once with `write_atomic` and never
//! modified, so every byte is covered by a CRC at write time and any
//! later mismatch is disk corruption, not a torn write.
//!
//! ## File layout
//!
//! ```text
//! +--------------------------------------------------------------+
//! | data blocks: ordinary WAL frames (magic, len, crc, payload)  |
//! |   each block holds one space's ops, sorted by key;           |
//! |   Delete ops are tombstones                                  |
//! +--------------------------------------------------------------+
//! | meta section: [len u32 LE][crc32 u32 LE][meta payload]       |
//! +--------------------------------------------------------------+
//! | footer: [meta_off u64 LE][meta_len u64 LE][b"BOR1"]          |
//! +--------------------------------------------------------------+
//! ```
//!
//! Data blocks reuse the WAL frame format verbatim: one op encoder writes
//! both, and one op parser reads both.  A point read decodes a block
//! zero-copy — values are `Bytes` slices of the block read — and a merge
//! walks it in place ([`Run::load_raw_block`]) and copies each surviving
//! entry once, into its output run ([`RunWriter`]).
//!
//! The meta payload carries the entry/tombstone counts, the per-run
//! [`Bloom`] filter, and a sparse block index (space, offset, length,
//! first/last key per block).  Opening a run reads only the footer and
//! meta section — O(index), not O(data) — which is what makes store
//! reopen O(tail) instead of O(history).

use crate::bloom::Bloom;
use crate::cache::DecodedBlock;
use crate::crc::crc32;
use crate::disk::Disk;
use crate::error::{StoreError, StoreResult};
use crate::wal::{self, WalOp, WalOpRef};
use bytes::Bytes;
use std::sync::Arc;

/// Footer magic: "BioOpera Run v1".
pub const RUN_MAGIC: [u8; 4] = *b"BOR1";
/// Footer size: meta_off (8) + meta_len (8) + magic (4).
pub const FOOTER_LEN: usize = 20;
/// Meta section header: payload len (4) + crc32 (4).
const META_HEADER_LEN: usize = 8;
/// Target uncompressed payload size of one data block.
pub const BLOCK_TARGET_BYTES: usize = 4 * 1024;
/// Meta payload format version.
const META_VERSION: u8 = 1;
/// Bytes of the smallest block-index entry (both keys empty): what bounds
/// the index a meta payload of a given length can hold.
const MIN_INDEX_ENTRY: usize = 1 + 8 + 4 + 4 + 4 + 4;

/// `run-{id:06}` — the on-disk name of run `id`.
pub fn run_name(id: u64) -> String {
    format!("run-{id:06}")
}

/// Parse a `run-{id:06}` name back to its id.
pub fn parse_run_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("run-")?;
    if digits.len() != 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One entry handed to [`build_run`]: `value: None` is a tombstone.
#[derive(Debug, Clone, Copy)]
pub struct RunEntry<'a> {
    pub space: u8,
    pub key: &'a str,
    pub value: Option<&'a [u8]>,
}

/// A borrowed composite key: runs, blocks and levels order by it.
pub(crate) type KeyRef<'a> = (u8, &'a str);

/// Sparse index entry for one data block.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockMeta {
    space: u8,
    offset: u64,
    len: u32,
    /// Ops in the block (entries + tombstones).
    count: u32,
    first_key: String,
    last_key: String,
}

/// What an opened run keeps resident: shared by every clone of its
/// [`Run`], so copying a level layout copies pointers, never an index
/// or a bloom.
#[derive(Debug)]
struct RunMeta {
    name: String,
    blocks: Vec<BlockMeta>,
    bloom: Bloom,
}

/// An opened run: index + bloom resident, data blocks on disk.
#[derive(Debug, Clone)]
pub struct Run {
    meta: Arc<RunMeta>,
    /// Numeric id parsed from the name — the block cache keys cached
    /// blocks by `(run id, block offset)` so a purge after GC is exact.
    id: u64,
    /// Live (non-tombstone) ops across all blocks.
    pub entries: u64,
    /// Tombstone ops across all blocks.
    pub tombstones: u64,
    /// Total data-region bytes (== meta section offset).
    pub data_bytes: u64,
}

fn corrupt(name: &str, what: &str) -> StoreError {
    StoreError::Corruption(format!("run {name}: {what}"))
}

/// Serialize `entries` — which must be sorted by `(space, key)` with no
/// duplicate pairs — into a complete run-file image.
pub fn build_run(entries: &[RunEntry<'_>]) -> Vec<u8> {
    let mut run = RunWriter::with_capacity(0);
    for &e in entries {
        run.push(e);
    }
    run.finish()
}

/// A run file written as its entries arrive: each entry is encoded
/// straight into the image, blocks are cut as they fill, and the bloom
/// and the index follow the last entry.  Entries must come sorted by
/// `(space, key)` with no duplicate pairs; the image is byte for byte what
/// the same entries have always produced.
pub struct RunWriter {
    out: Vec<u8>,
    blocks: Vec<BlockMeta>,
    /// Every entry's bloom hash pair: the filter is sized by the final
    /// count, so it is built at [`RunWriter::finish`].
    hashes: Vec<(u64, u64)>,
    tombstones: u64,
    /// The block being filled, indexed as it will be once closed (its
    /// `offset` is where its frame starts), and the sum of its entries'
    /// block costs — what the cut is decided on.
    block: Option<(BlockMeta, usize)>,
}

impl RunWriter {
    /// An empty run whose image starts with room for `bytes`.
    pub fn with_capacity(bytes: usize) -> RunWriter {
        RunWriter {
            out: Vec::with_capacity(bytes),
            blocks: Vec::new(),
            hashes: Vec::new(),
            tombstones: 0,
            block: None,
        }
    }

    /// True until the first entry is pushed.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Append the next entry.  A block holds one space and is cut before
    /// an entry that would take it past [`BLOCK_TARGET_BYTES`].
    pub fn push(&mut self, e: RunEntry<'_>) {
        self.hashes.push(crate::bloom::hash_pair(e.space, e.key));
        let cost = e.key.len() + e.value.map_or(0, <[u8]>::len) + 16;
        if let Some((b, filled)) = &self.block {
            if e.space != b.space || filled + cost > BLOCK_TARGET_BYTES {
                self.close_block();
            }
        }
        let (b, filled) = self.block.get_or_insert_with(|| {
            let meta = BlockMeta {
                space: e.space,
                offset: wal::begin_frame(&mut self.out) as u64,
                len: 0,
                count: 0,
                first_key: e.key.to_owned(),
                last_key: String::new(),
            };
            (meta, 0)
        });
        b.count += 1;
        b.last_key.clear();
        b.last_key.push_str(e.key);
        *filled += cost;
        let op = match e.value {
            Some(value) => WalOpRef::Put {
                space: e.space,
                key: e.key,
                value,
            },
            None => {
                self.tombstones += 1;
                WalOpRef::Delete {
                    space: e.space,
                    key: e.key,
                }
            }
        };
        wal::encode_op(&mut self.out, op);
    }

    /// Close the open block's frame and index it.
    fn close_block(&mut self) {
        let Some((mut b, _)) = self.block.take() else {
            return;
        };
        let frame = b.offset as usize;
        wal::end_frame(&mut self.out, frame, b.count);
        b.len = (self.out.len() - frame) as u32;
        self.blocks.push(b);
    }

    /// The complete run-file image: the last block, the meta section
    /// (counts, bloom, index) under its checksum, and the footer.
    pub fn finish(mut self) -> Vec<u8> {
        self.close_block();
        let mut bloom = Bloom::with_capacity(self.hashes.len());
        for &h in &self.hashes {
            bloom.insert_hashed(h);
        }
        let out = &mut self.out;
        let meta_off = out.len();
        out.extend_from_slice(&[0; META_HEADER_LEN]);
        let meta = out.len();
        out.push(META_VERSION);
        out.extend_from_slice(&(self.hashes.len() as u64 - self.tombstones).to_le_bytes());
        out.extend_from_slice(&self.tombstones.to_le_bytes());
        bloom.encode_into(out);
        out.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for b in &self.blocks {
            out.push(b.space);
            out.extend_from_slice(&b.offset.to_le_bytes());
            out.extend_from_slice(&b.len.to_le_bytes());
            out.extend_from_slice(&b.count.to_le_bytes());
            out.extend_from_slice(&(b.first_key.len() as u32).to_le_bytes());
            out.extend_from_slice(b.first_key.as_bytes());
            out.extend_from_slice(&(b.last_key.len() as u32).to_le_bytes());
            out.extend_from_slice(b.last_key.as_bytes());
        }
        let meta_len = out.len() - meta;
        let crc = crc32(&out[meta..]);
        out[meta_off..meta_off + 4].copy_from_slice(&(meta_len as u32).to_le_bytes());
        out[meta_off + 4..meta].copy_from_slice(&crc.to_le_bytes());

        out.extend_from_slice(&(meta_off as u64).to_le_bytes());
        out.extend_from_slice(&((META_HEADER_LEN + meta_len) as u64).to_le_bytes());
        out.extend_from_slice(&RUN_MAGIC);
        self.out
    }
}

/// Little-endian readers over a byte cursor; all return `None` on
/// truncation so the caller can surface one typed corruption error.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
}

impl Run {
    /// Open a run by reading its footer and meta section only.
    pub fn open<D: Disk>(disk: &D, name: &str) -> StoreResult<Run> {
        let size = disk
            .file_size(name)?
            .ok_or_else(|| corrupt(name, "listed in MANIFEST but missing on disk"))?;
        if (size as usize) < FOOTER_LEN {
            return Err(corrupt(name, "shorter than the footer"));
        }
        let footer = disk
            .read_range(name, size - FOOTER_LEN as u64, FOOTER_LEN)?
            .ok_or_else(|| corrupt(name, "footer vanished"))?;
        if footer.len() != FOOTER_LEN || footer[16..20] != RUN_MAGIC {
            return Err(corrupt(name, "bad footer magic"));
        }
        let meta_off = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let meta_len = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        if meta_off
            .checked_add(meta_len)
            .is_none_or(|end| end != size - FOOTER_LEN as u64)
            || (meta_len as usize) < META_HEADER_LEN
        {
            return Err(corrupt(name, "meta section out of bounds"));
        }
        let section = disk
            .read_range(name, meta_off, meta_len as usize)?
            .ok_or_else(|| corrupt(name, "meta section vanished"))?;
        if section.len() != meta_len as usize {
            return Err(corrupt(name, "meta section truncated"));
        }
        let payload_len = u32::from_le_bytes(section[0..4].try_into().unwrap()) as usize;
        let expect_crc = u32::from_le_bytes(section[4..8].try_into().unwrap());
        if payload_len != section.len() - META_HEADER_LEN {
            return Err(corrupt(name, "meta length mismatch"));
        }
        let payload = &section[META_HEADER_LEN..];
        if crc32(payload) != expect_crc {
            return Err(corrupt(name, "meta checksum mismatch"));
        }

        let mut c = Cursor(payload);
        let mut parse = || -> Option<Run> {
            if c.u8()? != META_VERSION {
                return None;
            }
            let entries = c.u64()?;
            let tombstones = c.u64()?;
            let (bloom, consumed) = Bloom::decode(c.0)?;
            c.take(consumed)?;
            let nblocks = c.u32()? as usize;
            // A forged count cannot size the allocation: the entries must
            // fit in what is left of the payload.
            let mut blocks = Vec::with_capacity(nblocks.min(c.0.len() / MIN_INDEX_ENTRY));
            for _ in 0..nblocks {
                let space = c.u8()?;
                let offset = c.u64()?;
                let len = c.u32()?;
                let count = c.u32()?;
                let first_key = c.string()?;
                let last_key = c.string()?;
                if offset.checked_add(len as u64).is_none_or(|e| e > meta_off) {
                    return None;
                }
                blocks.push(BlockMeta {
                    space,
                    offset,
                    len,
                    count,
                    first_key,
                    last_key,
                });
            }
            if !c.0.is_empty() {
                return None;
            }
            // Blocks must be sorted by (space, first_key) for the
            // binary-searched point lookup to be sound.
            if !blocks.windows(2).all(|w| {
                (w[0].space, w[0].last_key.as_str()) < (w[1].space, w[1].first_key.as_str())
            }) {
                return None;
            }
            Some(Run {
                meta: Arc::new(RunMeta {
                    name: name.to_string(),
                    blocks,
                    bloom,
                }),
                id: parse_run_name(name).unwrap_or(u64::MAX),
                entries,
                tombstones,
                data_bytes: meta_off,
            })
        };
        parse().ok_or_else(|| corrupt(name, "malformed meta payload"))
    }

    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Numeric id parsed from `run-{id:06}` at open time.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Smallest `(space, key)` held by this run; `None` for an empty run.
    pub fn min_key(&self) -> Option<(u8, &str)> {
        self.meta
            .blocks
            .first()
            .map(|b| (b.space, b.first_key.as_str()))
    }

    /// Largest `(space, key)` held by this run; `None` for an empty run.
    pub fn max_key(&self) -> Option<(u8, &str)> {
        self.meta
            .blocks
            .last()
            .map(|b| (b.space, b.last_key.as_str()))
    }

    /// `[min_key, max_key]`: the inclusive composite range every entry
    /// lies in; `None` for an empty run.
    pub(crate) fn hull(&self) -> Option<(KeyRef<'_>, KeyRef<'_>)> {
        self.min_key().zip(self.max_key())
    }

    /// Index of the one block whose range may contain `(space, key)`,
    /// found by binary search over the sparse index.
    pub(crate) fn block_for(&self, space: u8, key: &str) -> Option<usize> {
        let idx = self.seek(space, key);
        (idx < self.block_count() && self.block_start(idx) <= (space, key)).then_some(idx)
    }

    /// Data blocks in the run; a merge cursor walks `0..block_count()`
    /// through [`Run::load_raw_block`].
    pub(crate) fn block_count(&self) -> usize {
        self.meta.blocks.len()
    }

    /// The first block whose range reaches `(space, key)`, found by binary
    /// search over the sparse index: where a scan from that key starts.
    pub(crate) fn seek(&self, space: u8, key: &str) -> usize {
        self.meta
            .blocks
            .partition_point(|b| (b.space, b.last_key.as_str()) < (space, key))
    }

    /// The space and first key of block `idx`: whether a scan reads it.
    pub(crate) fn block_start(&self, idx: usize) -> KeyRef<'_> {
        let b = &self.meta.blocks[idx];
        (b.space, b.first_key.as_str())
    }

    /// Does some block's key range intersect the inclusive composite
    /// range `[lo, hi]`?  Sparse index only, no I/O.  A compaction
    /// selects a target-level run by asking this of every source run
    /// about the target's hull: a source key can only lie inside a hull
    /// some source block's range intersects.
    pub(crate) fn any_block_intersects(&self, lo: KeyRef<'_>, hi: KeyRef<'_>) -> bool {
        let idx = self.seek(lo.0, lo.1);
        idx < self.block_count() && self.block_start(idx) <= hi
    }

    /// Data-region offset of block `idx` — the block cache's key.
    pub(crate) fn block_offset(&self, idx: usize) -> u64 {
        self.meta.blocks[idx].offset
    }

    /// Bloom check only, on the `(space, key)` hash pair
    /// ([`crate::bloom::hash_pair`]) — `false` proves the pair is absent.
    /// A lookup across many runs hashes once.
    pub fn may_contain_hashed(&self, hash: (u64, u64)) -> bool {
        self.meta.bloom.may_contain_hashed(hash)
    }

    /// Read block `idx`, check that it is one whole frame whose checksum
    /// holds and whose op count is the index's, and hand out its payload,
    /// a slice of the block adopted as read.  Its ops are left to a
    /// [`wal::OpWalk`], which makes the rest of the checks as it walks: a
    /// merge walks blocks this way, in place.
    pub(crate) fn load_raw_block<D: Disk>(&self, disk: &D, idx: usize) -> StoreResult<Bytes> {
        let b = &self.meta.blocks[idx];
        let raw = disk
            .read_range(&self.meta.name, b.offset, b.len as usize)?
            .ok_or_else(|| corrupt(&self.meta.name, "data block vanished"))?;
        if raw.len() != b.len as usize {
            return Err(corrupt(&self.meta.name, "data block truncated"));
        }
        if wal::parse_frame(&raw).is_none_or(|(_, consumed)| consumed != raw.len()) {
            return Err(corrupt(
                &self.meta.name,
                "data block is not one whole frame",
            ));
        }
        if wal::OpWalk::new(&raw[wal::HEADER_LEN..])?.ops_left() != b.count as usize {
            return Err(corrupt(&self.meta.name, "data block op count mismatch"));
        }
        let raw = Bytes::from(raw);
        Ok(raw.slice(wal::HEADER_LEN..raw.len()))
    }

    /// Read and decode block `idx`, zero-copy: its payload walked, each op
    /// owned with its value a slice of the block.  The caller (block cache)
    /// owns the decoded ops afterwards, so cached entries are always
    /// post-validation.
    pub(crate) fn load_block_at<D: Disk>(&self, disk: &D, idx: usize) -> StoreResult<Vec<WalOp>> {
        let payload = self.load_raw_block(disk, idx)?;
        let mut ops = Vec::new();
        wal::decode_payload(&payload, 0, payload.len(), &mut ops)?;
        Ok(ops)
    }

    /// Point lookup.  `Ok(None)` — not in this run; `Ok(Some(None))` —
    /// tombstoned here; `Ok(Some(Some(v)))` — live value.
    pub fn get<D: Disk>(
        &self,
        disk: &D,
        space: u8,
        key: &str,
    ) -> StoreResult<Option<Option<Bytes>>> {
        let Some(idx) = self.block_for(space, key) else {
            return Ok(None);
        };
        Ok(DecodedBlock::new(self.load_block_at(disk, idx)?).lookup(key))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::merge::{Merge, Scan};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A run's range read before scans went through the merge, kept as
    /// the reference the merged scan is held to: every entry of `space`
    /// from `start` up to the first key `within` rejects, tombstones as
    /// `None`, collected.  Blocks wholly before `start` or wholly past the
    /// stretch are skipped without a read; every other block of the space
    /// is loaded whole.
    pub(crate) fn scan_reference<D: Disk>(
        run: &Run,
        disk: &D,
        space: u8,
        start: &str,
        within: &dyn Fn(&str) -> bool,
    ) -> StoreResult<Vec<(String, Option<Bytes>)>> {
        let mut out = Vec::new();
        for (idx, b) in run.meta.blocks.iter().enumerate() {
            if b.space != space || b.last_key.as_str() < start {
                continue;
            }
            if b.first_key.as_str() >= start && !within(&b.first_key) {
                break;
            }
            for op in run.load_block_at(disk, idx)? {
                let (_, key, value) = op.into_entry();
                if key.as_str() >= start && within(&key) {
                    out.push((key, value));
                }
            }
        }
        Ok(out)
    }

    fn sample_entries() -> Vec<(u8, String, Option<Vec<u8>>)> {
        let mut v = Vec::new();
        for space in 0..4u8 {
            for i in 0..50usize {
                let key = format!("k/{i:04}");
                if i % 7 == 3 {
                    v.push((space, key, None));
                } else {
                    v.push((space, key, Some(vec![space ^ i as u8; 60 + i])));
                }
            }
        }
        v
    }

    fn write_sample(disk: &MemDisk) -> Run {
        let owned = sample_entries();
        let entries: Vec<RunEntry<'_>> = owned
            .iter()
            .map(|(s, k, v)| RunEntry {
                space: *s,
                key: k,
                value: v.as_deref(),
            })
            .collect();
        let image = build_run(&entries);
        disk.write_atomic(&run_name(0), &image).unwrap();
        Run::open(disk, &run_name(0)).unwrap()
    }

    #[test]
    fn roundtrips_points_scans_and_tombstones() {
        let disk = MemDisk::new();
        let run = write_sample(&disk);
        assert_eq!(run.entries + run.tombstones, 200);
        assert_eq!(run.tombstones, 4 * 7); // i in {3,10,17,24,31,38,45} per space
        for (s, k, v) in sample_entries() {
            let got = run.get(&disk, s, &k).unwrap();
            match v {
                Some(val) => assert_eq!(got, Some(Some(Bytes::from(val)))),
                None => assert_eq!(got, Some(None)),
            }
        }
        assert_eq!(run.get(&disk, 0, "missing").unwrap(), None);
        assert_eq!(run.get(&disk, 0, "k/9999").unwrap(), None);
        // Range reads through the scan the store makes, tombstones
        // included.
        let scan = |space: u8, start: &str, within: &dyn Fn(&str) -> bool| {
            let mem = crate::memtable::MemTables::default();
            let inputs = [std::slice::from_ref(&run)];
            let scan = Scan {
                space,
                start,
                within,
                mem: &mem,
            };
            let mut merge = Merge::new(&disk, inputs, Some(scan)).unwrap();
            let mut keys = Vec::new();
            while let Some(e) = merge.next().unwrap() {
                keys.push(e.key.to_string());
            }
            keys
        };
        let keys = scan(2, "k/000", &|k| k.starts_with("k/000"));
        assert_eq!(keys.len(), 10);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let from = scan(1, "k/0045", &|_| true);
        assert_eq!(from.len(), 5);
        assert_eq!(from[0], "k/0045");
        // The seek lands on the block holding the start, and a block's
        // start is read off the index.
        let at = run.seek(1, "k/0045");
        assert!(run.block_start(at) <= (1, "k/0045"));
        assert!(at == 0 || run.block_start(at - 1) < (1, "k/0045"));
        assert_eq!(run.seek(0, ""), 0);
        assert_eq!(run.seek(3, "z"), run.block_count());
    }

    #[test]
    fn multi_block_runs_keep_one_space_per_block() {
        let disk = MemDisk::new();
        let run = write_sample(&disk);
        // 50 entries x ~85B values per space exceed one 4 KiB block, so
        // every space must split — and blocks never mix spaces.
        assert!(run.block_count() > 4, "blocks: {}", run.block_count());
        let mut ops = 0;
        for idx in 0..run.block_count() {
            let block = run.load_block_at(&disk, idx).unwrap();
            ops += block.len();
            let space = run.meta.blocks[idx].space;
            assert!(block.into_iter().all(|op| op.into_entry().0 == space));
        }
        assert_eq!(ops, 200);
    }

    #[test]
    fn empty_run_roundtrips() {
        let disk = MemDisk::new();
        let image = build_run(&[]);
        disk.write_atomic("run-000007", &image).unwrap();
        let run = Run::open(&disk, "run-000007").unwrap();
        assert_eq!(run.entries, 0);
        assert_eq!(run.tombstones, 0);
        assert!(!run.may_contain_hashed(crate::bloom::hash_pair(0, "anything")));
        assert_eq!(run.get(&disk, 1, "x").unwrap(), None);
    }

    #[test]
    fn every_corrupted_byte_is_detected_or_harmless() {
        let disk = MemDisk::new();
        let owned = sample_entries();
        let entries: Vec<RunEntry<'_>> = owned
            .iter()
            .map(|(s, k, v)| RunEntry {
                space: *s,
                key: k,
                value: v.as_deref(),
            })
            .collect();
        let image = build_run(&entries);
        // Flip one byte at a stride across the whole image: the run must
        // either fail to open, fail the affected block's CRC on read, or
        // — for bloom bit flips — stay correct on every present key.
        for at in (0..image.len()).step_by(97) {
            let mut bad = image.clone();
            bad[at] ^= 0x40;
            disk.write_atomic("run-000001", &bad).unwrap();
            let opened = match Run::open(&disk, "run-000001") {
                Err(StoreError::Corruption(_)) => continue,
                Err(e) => panic!("unexpected error class at byte {at}: {e:?}"),
                Ok(r) => r,
            };
            for (s, k, v) in &owned {
                match opened.get(&disk, *s, k) {
                    Err(StoreError::Corruption(_)) => break,
                    Err(e) => panic!("unexpected error class at byte {at}: {e:?}"),
                    // The bloom and index live under the meta CRC and every
                    // data block under a frame CRC, so a flip can never make
                    // a present key silently vanish.
                    Ok(None) => panic!("byte {at}: present key {s}/{k} vanished undetected"),
                    Ok(Some(got)) => assert_eq!(got.as_ref().map(Bytes::as_slice), v.as_deref()),
                }
            }
        }
    }

    #[test]
    fn run_names_roundtrip_and_reject_noise() {
        assert_eq!(run_name(42), "run-000042");
        assert_eq!(parse_run_name("run-000042"), Some(42));
        assert_eq!(parse_run_name("run-42"), None);
        assert_eq!(parse_run_name("run-abcdef"), None);
        assert_eq!(parse_run_name("wal-000042"), None);
    }

    /// The run encoder before [`RunWriter`]: every entry borrowed into a
    /// list of pending ops, a block framed when it is cut, the bloom
    /// filled as entries arrive.  Kept verbatim as the reference the
    /// streaming writer's images are held to, byte for byte.
    fn build_run_reference(entries: &[RunEntry<'_>]) -> Vec<u8> {
        let mut bloom = Bloom::with_capacity(entries.len());
        let mut out = Vec::new();
        let mut blocks: Vec<BlockMeta> = Vec::new();
        let mut tombstones = 0u64;

        let mut pending: Vec<WalOpRef<'_>> = Vec::new();
        let mut pending_bytes = 0usize;
        let mut first_key = "";
        let mut last_key = "";
        let mut cur_space = 0u8;

        let mut flush = |out: &mut Vec<u8>,
                         pending: &mut Vec<WalOpRef<'_>>,
                         space: u8,
                         first: &str,
                         last: &str| {
            if pending.is_empty() {
                return;
            }
            let offset = out.len() as u64;
            wal::encode_frame_into(out, pending.iter().copied());
            blocks.push(BlockMeta {
                space,
                offset,
                len: (out.len() as u64 - offset) as u32,
                count: pending.len() as u32,
                first_key: first.to_string(),
                last_key: last.to_string(),
            });
            pending.clear();
        };

        for e in entries {
            bloom.insert(e.space, e.key);
            let cost = e.key.len() + e.value.map_or(0, <[u8]>::len) + 16;
            if !pending.is_empty()
                && (e.space != cur_space || pending_bytes + cost > BLOCK_TARGET_BYTES)
            {
                flush(&mut out, &mut pending, cur_space, first_key, last_key);
                pending_bytes = 0;
            }
            if pending.is_empty() {
                cur_space = e.space;
                first_key = e.key;
            }
            last_key = e.key;
            pending_bytes += cost;
            match e.value {
                Some(value) => pending.push(WalOpRef::Put {
                    space: e.space,
                    key: e.key,
                    value,
                }),
                None => {
                    tombstones += 1;
                    pending.push(WalOpRef::Delete {
                        space: e.space,
                        key: e.key,
                    });
                }
            }
        }
        flush(&mut out, &mut pending, cur_space, first_key, last_key);

        // ---- meta section ----------------------------------------------
        let meta_off = out.len() as u64;
        let mut meta = Vec::new();
        meta.push(META_VERSION);
        meta.extend_from_slice(&(entries.len() as u64 - tombstones).to_le_bytes());
        meta.extend_from_slice(&tombstones.to_le_bytes());
        bloom.encode_into(&mut meta);
        meta.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        for b in &blocks {
            meta.push(b.space);
            meta.extend_from_slice(&b.offset.to_le_bytes());
            meta.extend_from_slice(&b.len.to_le_bytes());
            meta.extend_from_slice(&b.count.to_le_bytes());
            meta.extend_from_slice(&(b.first_key.len() as u32).to_le_bytes());
            meta.extend_from_slice(b.first_key.as_bytes());
            meta.extend_from_slice(&(b.last_key.len() as u32).to_le_bytes());
            meta.extend_from_slice(b.last_key.as_bytes());
        }
        out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&meta).to_le_bytes());
        out.extend_from_slice(&meta);

        // ---- footer -----------------------------------------------------
        let meta_len = (META_HEADER_LEN + meta.len()) as u64;
        out.extend_from_slice(&meta_off.to_le_bytes());
        out.extend_from_slice(&meta_len.to_le_bytes());
        out.extend_from_slice(&RUN_MAGIC);
        out
    }

    type Rows = BTreeMap<(u8, String), Option<Vec<u8>>>;

    fn entries_of(rows: &Rows) -> Vec<RunEntry<'_>> {
        rows.iter()
            .map(|((space, key), value)| RunEntry {
                space: *space,
                key,
                value: value.as_deref(),
            })
            .collect()
    }

    fn assert_same_image(rows: &Rows) {
        let entries = entries_of(rows);
        let image = build_run(&entries);
        assert_eq!(
            image,
            build_run_reference(&entries),
            "{} entries",
            rows.len()
        );
        // The image opens, and says what went in.
        let disk = MemDisk::new();
        disk.write_atomic("run-000000", &image).unwrap();
        let run = Run::open(&disk, "run-000000").unwrap();
        let tombstones = rows.values().filter(|v| v.is_none()).count() as u64;
        assert_eq!(
            (run.entries, run.tombstones),
            (rows.len() as u64 - tombstones, tombstones)
        );
    }

    /// Entries whose block costs add up to exactly the block target, then
    /// one byte past it: the cut rule is strict, and the writer's is the
    /// reference's.
    #[test]
    fn run_writer_cuts_blocks_where_the_reference_does() {
        for extra in [0usize, 1] {
            for (n, key_len) in [(2usize, 1usize), (4, 7), (8, 24)] {
                let mut rows = Rows::new();
                let each = BLOCK_TARGET_BYTES / n;
                for i in 0..n + 1 {
                    let key = format!("{i:0key_len$}");
                    let value_len = each - key_len - 16 + usize::from(i == 0) * extra;
                    rows.insert((1, key), Some(vec![i as u8; value_len]));
                }
                assert_same_image(&rows);
            }
        }
        assert_same_image(&Rows::new());
    }

    fn rows_strategy() -> impl Strategy<Value = Rows> {
        let space = prop::sample::select(vec![0u8, 1, 2, 3]);
        let key = "[a-z/]{0,12}";
        // Tombstones, empty values, small ones, and ones large enough to
        // straddle a block on their own.
        let value = prop_oneof![
            1 => Just(None),
            1 => Just(Some(Vec::new())),
            4 => prop::collection::vec(any::<u8>(), 1..300).prop_map(Some),
            1 => (BLOCK_TARGET_BYTES - 64..BLOCK_TARGET_BYTES + 64).prop_map(|n| Some(vec![7; n])),
        ];
        prop::collection::btree_map((space, key), value, 0..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Any sorted entry set — one to four spaces, tombstones, empty
        /// values, entries around the block target, none at all — makes
        /// the image the reference encoder makes.
        #[test]
        fn run_writer_images_are_the_reference_encoders(rows in rows_strategy()) {
            assert_same_image(&rows);
        }
    }
}
