//! The [`Store`] handle: open (crash recovery), apply, get, scan, len,
//! stats, poison.
//!
//! A store keeps the hot record set in memory (a `BTreeMap` per space,
//! `memtable.rs`) and makes every mutation durable through the WAL
//! before applying it.  Every roll of the WAL is a spill to an immutable
//! sorted-run file ([`crate::runs`]) of a leveled tier; a [`TieredPolicy`]
//! budget, the [`CompactionPolicy`] or [`Store::compact`] calls one, and
//! with no policy (`None`) the memtables have no budget.  A legacy
//! `snapshot-{e}` is read at open and deleted by the first spill.  The
//! rest of the engine lives in one module per decision:
//!
//! * `policy.rs` — when to roll and how big each tier may grow.
//! * `manifest.rs` — the MANIFEST text format, the one commit
//!   point of every state change bigger than a WAL append.
//! * `levels.rs` — the level layout (overlapping L0, disjoint
//!   sorted L1+) and the point-read path through it.
//! * `compaction.rs` — every rewrite that commits through the
//!   manifest: spill, leveled push-down.
//! * `merge.rs` — the streaming k-way merge every multi-input read
//!   goes through: a push-down's inputs, and a range scan over the
//!   memtable and the tier.
//! * `retention.rs` — the per-space watermark that retires a key
//!   range for good.
//!
//! # Ownership
//!
//! A store has one owner.  Every write — `apply`, `apply_many`, a roll,
//! a push-down, a retention advance, `poison` — takes `&mut self`, so
//! the order in which batches become durable in the WAL is the order in
//! which they become visible, and a reader can never observe a batch
//! half-applied or a spill between its manifest commit and its memtable
//! swap: the borrow checker, not a lock, rules it out.  Reads (`get`, the
//! scans, `len`, `stats`) take `&self`; the block cache and the read
//! counters they update keep their own interior mutability, so `&Store`
//! can still be shared by readers on several threads.

use crate::cache::{BlockCache, DEFAULT_BLOCK_CACHE_BUDGET};
use crate::disk::Disk;
use crate::error::{StoreError, StoreResult};
use crate::levels::{levels_lookup, Levels, TierMetrics};
use crate::manifest::{parse_manifest, snapshot_name, wal_name, ManifestState, MANIFEST};
use crate::memtable::{apply_ops, MemTables};
use crate::merge::{Merge, Scan};
use crate::policy::{CompactionPolicy, TieredPolicy};
use crate::runs::{parse_run_name, Run};
use crate::wal::{self, WalOp};
use bytes::Bytes;
use std::sync::atomic::Ordering;

/// The four persistent spaces of the BioOpera data layer (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Space {
    /// Process templates as defined by users.
    Template,
    /// Processes currently executing (the navigator's durable state).
    Instance,
    /// Hardware/software configuration of the computing infrastructure.
    Configuration,
    /// Historical information about executed processes, load samples, events.
    History,
}

impl Space {
    /// All spaces, in stable order.
    pub const ALL: [Space; 4] = [
        Space::Template,
        Space::Instance,
        Space::Configuration,
        Space::History,
    ];

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Space::Template => 0,
            Space::Instance => 1,
            Space::Configuration => 2,
            Space::History => 3,
        }
    }

    /// Inverse of the WAL encoding of a space tag; rejects unknown tags.
    pub fn from_u8(v: u8) -> StoreResult<Space> {
        match v {
            0 => Ok(Space::Template),
            1 => Ok(Space::Instance),
            2 => Ok(Space::Configuration),
            3 => Ok(Space::History),
            other => Err(StoreError::Corruption(format!("unknown space {other}"))),
        }
    }

    /// Human-readable name, used in debug dumps.
    pub fn name(self) -> &'static str {
        match self {
            Space::Template => "template",
            Space::Instance => "instance",
            Space::Configuration => "configuration",
            Space::History => "history",
        }
    }
}

/// An atomic batch of mutations.  All operations in a batch become visible
/// together or not at all, across crashes.
#[derive(Debug, Default, Clone)]
pub struct Batch {
    ops: Vec<WalOp>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an insert/replace.
    pub fn put(
        &mut self,
        space: Space,
        key: impl Into<String>,
        value: impl Into<Bytes>,
    ) -> &mut Self {
        self.ops.push(WalOp::Put {
            space: space.as_u8(),
            key: key.into(),
            value: value.into(),
        });
        self
    }

    /// Queue an insert/replace of `record` as the JSON it is stored as.
    /// The record streams into `scratch` — the caller's, reused from
    /// record to record, and left holding the encoding — and is copied
    /// once, into a value of exactly its size: per record the allocator is
    /// asked for the key and the value, nothing else.
    pub fn put_record<T: serde::Serialize + ?Sized>(
        &mut self,
        space: Space,
        key: impl Into<String>,
        record: &T,
        scratch: &mut String,
    ) -> &mut Self {
        scratch.clear();
        record.write_json(scratch);
        self.put(space, key, Bytes::copy_from_slice(scratch.as_bytes()))
    }

    /// Queue a delete.
    pub fn delete(&mut self, space: Space, key: impl Into<String>) -> &mut Self {
        self.ops.push(WalOp::Delete {
            space: space.as_u8(),
            key: key.into(),
        });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Inclusive composite `(space, key)` bounds of one sorted run, as
/// reported by [`Store::level_ranges`].
pub type RunRange = ((u8, String), (u8, String));

/// Counters describing the store's physical state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Current WAL epoch: bumped by every roll.
    pub epoch: u64,
    /// Bytes appended to the live WAL since the last compaction.
    pub wal_bytes: u64,
    /// Batches applied since open (including replayed ones).
    pub batches_applied: u64,
    /// Whether the last open discarded a torn tail.
    pub recovered_torn_tail: bool,
    /// Bytes of torn tail the last open discarded.
    pub recovered_truncated_bytes: u64,
    /// Sorted runs currently on disk.
    pub runs: usize,
    /// Estimated resident bytes in the memtables (keys + values +
    /// per-entry overhead) — what a [`TieredPolicy`] budget bounds.
    pub memtable_bytes: u64,
    /// Memtable spills performed by this handle since open.
    pub spills: u64,
    /// Rewriting merge compactions performed by this handle since open.
    pub run_merges: u64,
    /// Push-downs that moved a run a level down by manifest commit
    /// alone, reading and writing no run data.
    pub trivial_moves: u64,
    /// Run data bytes read by every rewriting merge since open …
    pub merge_bytes_in: u64,
    /// … and run data bytes they wrote: with the spilled bytes, write
    /// amplification is one subtraction away.
    pub merge_bytes_out: u64,
    /// Run lookups answered "definitely absent" by run metadata alone —
    /// key-range check, sparse index, or bloom filter; never a disk
    /// read.  These four count readers' point lookups: the writer never
    /// looks the tier up.
    pub bloom_skips: u64,
    /// Run lookups that had to consult a data block (cached or not).
    pub run_probes: u64,
    /// Block-cache lookups answered without decoding from disk.
    pub cache_hits: u64,
    /// Block-cache lookups that decoded the block from disk.
    pub cache_misses: u64,
    /// Populated levels beneath L0 (0 = everything still in L0).
    pub levels: usize,
    /// Input bytes of the largest single leveled compaction so far —
    /// the "merge work is bounded" witness the bench asserts against
    /// total live bytes.
    pub max_merge_bytes: u64,
    /// Records logically retired by retention watermark advances.
    pub retired: u64,
}

/// What only a writer changes: WAL/epoch accounting and tier
/// bookkeeping.
pub(crate) struct WalState {
    pub(crate) epoch: u64,
    /// `wal_name(epoch)`, set wherever the epoch changes so that an
    /// append formats no name.
    pub(crate) wal_file: String,
    pub(crate) wal_bytes: u64,
    batches_applied: u64,
    recovered_torn_tail: bool,
    recovered_truncated_bytes: u64,
    pub(crate) policy: Option<CompactionPolicy>,
    pub(crate) tiered: Option<TieredPolicy>,
    /// Id of the next run file this handle will write.
    pub(crate) next_run_id: u64,
    pub(crate) spills: u64,
    pub(crate) run_merges: u64,
    pub(crate) trivial_moves: u64,
    pub(crate) merge_bytes_in: u64,
    pub(crate) merge_bytes_out: u64,
    /// Records logically retired by retention advances through this
    /// handle.
    pub(crate) retired: u64,
    /// Input bytes of the largest single compaction so far.
    pub(crate) merge_bytes_max: u64,
    /// Per-level round-robin compaction cursor (index 0 = L1): the
    /// composite upper bound of the last victim, so successive
    /// push-downs sweep the key space instead of re-picking one run.
    pub(crate) level_cursors: Vec<Option<(u8, String)>>,
}

/// The storage engine.  Single-owner: writes take `&mut self`, reads
/// `&self` (see the module's "Ownership").
pub struct Store<D: Disk> {
    pub(crate) wal: WalState,
    /// The four per-space memtables.
    pub(crate) mem: MemTables,
    /// The opened sorted runs (L0 plus the disjoint deeper levels) and
    /// the retention watermarks.
    pub(crate) levels: Levels,
    pub(crate) disk: D,
    metrics: TierMetrics,
    pub(crate) cache: BlockCache,
    poisoned: bool,
}

impl<D: Disk> Store<D> {
    /// Open a store on `disk`, running crash recovery: load the run tier
    /// (or, on a disk an older engine left with no run, its snapshot),
    /// then replay the live WAL, discarding any torn tail left by a crash.
    ///
    /// Exactly [`Store::open_with`] with no [`TieredPolicy`]: the store
    /// has a memtable budget only when its opener gives it one.
    pub fn open(disk: D) -> StoreResult<Self> {
        Self::open_with(disk, None)
    }

    /// [`Store::open`] with an explicit memtable budget.  `None` means
    /// no budget: the store spills only when its [`CompactionPolicy`]
    /// fires or [`Store::compact`] is called, and lays its levels out as
    /// `TieredPolicy::default()` does.
    pub fn open_with(disk: D, tiered: Option<TieredPolicy>) -> StoreResult<Self> {
        let manifest = match disk.read(MANIFEST)? {
            Some(bytes) => parse_manifest(bytes)?,
            None => ManifestState::empty(),
        };
        let epoch = manifest.epoch;

        // Open every run the manifest lists (L0 oldest first, then the
        // deeper levels).  A listed run that is missing or unreadable is
        // corruption: the manifest write was the commit point that
        // promised it.
        let mut next_run_id = 0u64;
        let mut levels = Levels {
            retain: manifest.retain.clone(),
            ..Default::default()
        };
        {
            let mut open_run = |name: &str| -> StoreResult<Run> {
                let id = parse_run_name(name).expect("validated by parse_manifest");
                next_run_id = next_run_id.max(id + 1);
                Run::open(&disk, name)
            };
            for name in &manifest.run_names {
                levels.l0.push(open_run(name)?);
            }
            for (level, name) in &manifest.level_runs {
                if levels.deeper.len() < *level {
                    levels.deeper.resize_with(*level, Vec::new);
                }
                levels.deeper[*level - 1].push(open_run(name)?);
            }
        }
        for level in &mut levels.deeper {
            level.sort_by(|a, b| a.min_key().cmp(&b.min_key()));
        }

        let mut mem = MemTables::default();
        let mut batches_applied = 0u64;

        // Replay streams into the memtable: each frame's operations are
        // applied as the frame is decoded, so the image is never held a
        // second time as a list of owned batches.  Like every write, it
        // reads no run: reopen reads the manifest, the runs' footers and
        // meta, and the WAL tail.
        let mut replay_into_mem = |image: &Bytes| {
            wal::replay_shared(image, |ops| {
                batches_applied += 1;
                apply_ops(&mut mem, &levels, ops.drain(..));
                Ok::<(), StoreError>(())
            })
        };

        // The snapshot is a read-only legacy format, which older engines
        // rolled the WAL into.  The first spill deletes it, so it is only
        // consulted when no runs are listed.  Snapshots were written
        // atomically, so a torn snapshot is corruption.
        if levels.no_runs() {
            if let Some(snap) = disk.read(&snapshot_name(epoch))? {
                if replay_into_mem(&Bytes::from(snap))?.torn_tail {
                    return Err(StoreError::Corruption("snapshot has torn frames".into()));
                }
            }
        }

        let (wal_bytes, recovered_torn_tail, recovered_truncated_bytes) =
            match disk.read(&wal_name(epoch))? {
                Some(log) => {
                    // The log image becomes one shared buffer; replay
                    // slices every value out of it without copying.
                    let log = Bytes::from(log);
                    let end = replay_into_mem(&log)?;
                    if end.torn_tail {
                        // Repair: drop the torn tail *on disk*, not just in
                        // memory.  Future appends must continue at the end
                        // of the valid prefix — appending after the torn
                        // bytes would make every post-recovery batch appear
                        // to follow an invalid frame on the next open, and
                        // be discarded.
                        disk.write_atomic(&wal_name(epoch), &log.as_slice()[..end.valid_len])?;
                    }
                    (
                        end.valid_len as u64,
                        end.torn_tail,
                        end.truncated_bytes as u64,
                    )
                }
                None => (0, false, 0),
            };

        // Crash hygiene: a crash can leave partially-written temp files
        // (torn `write_atomic`), orphan WAL files of adjacent epochs and
        // a legacy snapshot the runs replaced (crash inside a spill
        // between the manifest commit and the old-epoch GC), and run
        // files the manifest never adopted (crash between the run write
        // and the manifest commit) or already dropped (crash inside the
        // merge GC).  Remove them so they can never be mistaken for live
        // state.  These deletes are themselves crash points
        // (recovery-during-recovery) and are idempotent: a crash here
        // leaves a state this same pass cleans on the next open.
        let keep_wal = wal_name(epoch);
        let keep_snap = snapshot_name(epoch);
        let listed_run = |name: &str| {
            manifest.run_names.iter().any(|r| r == name)
                || manifest.level_runs.iter().any(|(_, r)| r == name)
        };
        for name in disk.list()? {
            let stale = name.ends_with(".tmp")
                || (name.starts_with("wal-") && name != keep_wal)
                || (name.starts_with("snapshot-") && (name != keep_snap || !levels.no_runs()))
                || (name.starts_with("run-") && !listed_run(&name));
            if stale {
                disk.delete(&name)?;
            }
        }

        Ok(Store {
            wal: WalState {
                epoch,
                wal_file: keep_wal,
                wal_bytes,
                batches_applied,
                recovered_torn_tail,
                recovered_truncated_bytes,
                policy: None,
                tiered,
                next_run_id,
                spills: 0,
                run_merges: 0,
                trivial_moves: 0,
                merge_bytes_in: 0,
                merge_bytes_out: 0,
                retired: 0,
                merge_bytes_max: 0,
                level_cursors: Vec::new(),
            },
            mem,
            levels,
            disk,
            metrics: TierMetrics::default(),
            cache: BlockCache::new(
                tiered.map_or(DEFAULT_BLOCK_CACHE_BUDGET, |t| t.block_cache_budget),
            ),
            poisoned: false,
        })
    }

    /// Install (or clear) the automatic compaction policy.
    pub fn set_compaction_policy(&mut self, policy: Option<CompactionPolicy>) {
        self.wal.policy = policy;
    }

    /// Apply a batch atomically: durable in the WAL first, then visible.
    pub fn apply(&mut self, batch: Batch) -> StoreResult<()> {
        self.apply_many([batch])
    }

    /// Group commit: apply several batches with **one** disk append.
    ///
    /// Each batch stays its own WAL frame, so per-batch atomicity across
    /// crashes is untouched — a torn write leaves a whole-batch prefix,
    /// exactly as if the batches had been applied one call at a time.
    /// What is amortized is everything else: one append syscall, one
    /// visibility pass, one roll check.
    pub fn apply_many(&mut self, batches: impl IntoIterator<Item = Batch>) -> StoreResult<()> {
        self.check_alive()?;
        // Every frame is encoded before the one append; the batches
        // become visible only once it is durable.
        let mut buf = Vec::new();
        let mut pending: Vec<Vec<WalOp>> = Vec::new();
        for batch in batches {
            if batch.is_empty() {
                continue;
            }
            wal::encode_frame_into(&mut buf, batch.ops.iter().map(WalOp::as_op_ref));
            pending.push(batch.ops);
        }
        if pending.is_empty() {
            return Ok(());
        }
        self.poison_on_err(self.disk.append(&self.wal.wal_file, &buf))?;
        self.wal.wal_bytes += buf.len() as u64;
        // The frames are on disk: free them before the ops land in the
        // memtable and a roll spills it, rather than hold a copy of the
        // round through both.
        drop(buf);
        self.wal.batches_applied += pending.len() as u64;
        for ops in pending {
            apply_ops(&mut self.mem, &self.levels, ops);
        }
        if self.roll_due() {
            self.compact()?;
        }
        Ok(())
    }

    /// Convenience single-record put.
    pub fn put(
        &mut self,
        space: Space,
        key: impl Into<String>,
        value: impl Into<Bytes>,
    ) -> StoreResult<()> {
        let mut b = Batch::new();
        b.put(space, key, value);
        self.apply(b)
    }

    /// Convenience single-record delete.
    pub fn delete(&mut self, space: Space, key: impl Into<String>) -> StoreResult<()> {
        let mut b = Batch::new();
        b.delete(space, key);
        self.apply(b)
    }

    /// Fetch a record.  Memtable first (tombstones shadow the tier),
    /// then L0 newest-to-oldest (bloom-gated), then at most one run per
    /// disjoint deeper level, through the block cache.
    pub fn get(&self, space: Space, key: &str) -> StoreResult<Option<Bytes>> {
        self.check_alive()?;
        match self.mem.spaces[space.as_u8() as usize].get(key) {
            Some(Some(v)) => Ok(Some(v.clone())),
            Some(None) => Ok(None), // tombstone: deleted after the last spill
            None => {
                if self.levels.no_runs() {
                    return Ok(None);
                }
                match levels_lookup(
                    &self.levels,
                    &self.disk,
                    &self.metrics,
                    &self.cache,
                    space.as_u8(),
                    key,
                )? {
                    Some(Some(v)) => Ok(Some(v)),
                    _ => Ok(None),
                }
            }
        }
    }

    /// The one range scan: `visit` sees every `(key, value)` pair in
    /// `space` from `start` up to the first key `within` rejects (it must
    /// hold for a contiguous stretch from `start`), in key order, and stops
    /// the scan by returning an error.  The tier and the memtable, the
    /// newest input, stream through one [`Merge`]; deletions and retired
    /// keys drop out, and each value is a slice of the block it was read
    /// in.
    fn visit_while<E: From<StoreError>>(
        &self,
        space: Space,
        start: &str,
        within: impl Fn(&str) -> bool,
        mut visit: impl FnMut(&str, &Bytes) -> Result<(), E>,
    ) -> Result<(), E> {
        self.check_alive()?;
        let space = space.as_u8();
        let scan = Scan {
            space,
            start,
            within: &within,
            mem: &self.mem,
        };
        let mut merge = Merge::new(&self.disk, self.levels.merge_inputs(), Some(scan))?;
        while let Some(e) = merge.next()? {
            if let Some((block, at)) = e.value {
                if !self.levels.retained(space, e.key) {
                    visit(e.key, &block.slice(at))?;
                }
            }
        }
        Ok(())
    }

    /// [`Store::visit_while`], collected.
    fn collect_while(
        &self,
        space: Space,
        start: &str,
        within: impl Fn(&str) -> bool,
    ) -> StoreResult<Vec<(String, Bytes)>> {
        let mut out = Vec::new();
        self.visit_while(space, start, within, |k, v| {
            out.push((k.to_string(), v.clone()));
            Ok::<(), StoreError>(())
        })?;
        Ok(out)
    }

    /// Visit every `(key, value)` pair in `space` whose key starts with
    /// `prefix`, in key order, without materialising the range: for a
    /// caller that decodes or folds records as they come.  An error from
    /// `visit` ends the scan and is returned.
    pub fn visit_prefix<E: From<StoreError>>(
        &self,
        space: Space,
        prefix: &str,
        visit: impl FnMut(&str, &Bytes) -> Result<(), E>,
    ) -> Result<(), E> {
        self.visit_prefix_from(space, prefix, prefix, visit)
    }

    /// [`Store::visit_prefix`] from `start` on: the keys under `prefix`
    /// that are `>= start`.  This is the tail visit: a caller that keeps a
    /// summary of the records below `start` reads — from the memtable and
    /// from every run — only what the summary does not cover.
    pub fn visit_prefix_from<E: From<StoreError>>(
        &self,
        space: Space,
        prefix: &str,
        start: &str,
        visit: impl FnMut(&str, &Bytes) -> Result<(), E>,
    ) -> Result<(), E> {
        // A start below the prefix would meet a foreign key first and
        // end the scan before it began.
        self.visit_while(space, start.max(prefix), |k| k.starts_with(prefix), visit)
    }

    /// All `(key, value)` pairs in `space` whose key starts with `prefix`,
    /// in key order.
    pub fn scan_prefix(&self, space: Space, prefix: &str) -> StoreResult<Vec<(String, Bytes)>> {
        self.collect_while(space, prefix, |k| k.starts_with(prefix))
    }

    /// Number of records in `space`.  O(records): a counting scan of the
    /// memtable ∪ runs view — the store keeps no count, because keeping
    /// one exact would make every write look its key up in the runs.
    pub fn len(&self, space: Space) -> StoreResult<usize> {
        let mut n = 0;
        self.visit_while(
            space,
            "",
            |_| true,
            |_, _| {
                n += 1;
                Ok::<(), StoreError>(())
            },
        )?;
        Ok(n)
    }

    /// True when `space` holds no records.
    pub fn is_empty(&self, space: Space) -> StoreResult<bool> {
        Ok(self.len(space)? == 0)
    }

    /// Introspection for invariant tests: for each level beneath L0,
    /// the composite `(space, key)` range of every run, in level order.
    pub fn level_ranges(&self) -> Vec<Vec<RunRange>> {
        self.levels
            .deeper
            .iter()
            .map(|lvl| {
                lvl.iter()
                    .filter_map(|r| match (r.min_key(), r.max_key()) {
                        (Some(lo), Some(hi)) => {
                            Some(((lo.0, lo.1.to_owned()), (hi.0, hi.1.to_owned())))
                        }
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    }

    /// Physical statistics.
    pub fn stats(&self) -> StoreStats {
        let (wal, levels) = (&self.wal, &self.levels);
        StoreStats {
            epoch: wal.epoch,
            wal_bytes: wal.wal_bytes,
            batches_applied: wal.batches_applied,
            recovered_torn_tail: wal.recovered_torn_tail,
            recovered_truncated_bytes: wal.recovered_truncated_bytes,
            runs: levels.run_count(),
            memtable_bytes: self.mem.approx_bytes,
            spills: wal.spills,
            run_merges: wal.run_merges,
            trivial_moves: wal.trivial_moves,
            merge_bytes_in: wal.merge_bytes_in,
            merge_bytes_out: wal.merge_bytes_out,
            bloom_skips: self.metrics.bloom_skips.load(Ordering::Relaxed),
            run_probes: self.metrics.run_probes.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            levels: levels.depth(),
            max_merge_bytes: wal.merge_bytes_max,
            retired: wal.retired,
        }
    }

    /// True once a disk failure has poisoned this handle; all further calls
    /// fail until the store is re-opened (recovery).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Mark the handle as failed. Used by the runtime to model a BioOpera
    /// server crash: the in-memory half dies, the disk survives.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// The preamble of every public operation: a poisoned handle answers
    /// nothing and touches no disk.
    pub(crate) fn check_alive(&self) -> StoreResult<()> {
        if self.is_poisoned() {
            Err(StoreError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// A failed disk call leaves the on-disk state ambiguous from this
    /// handle's point of view: poison it so every further call fails
    /// until a re-open re-establishes the truth (recovery handles both
    /// the committed and the uncommitted case).
    pub(crate) fn poison_on_err<T>(&mut self, res: StoreResult<T>) -> StoreResult<T> {
        if res.is_err() {
            self.poison();
        }
        res
    }

    /// Write the manifest: the commit point of every roll, merge and
    /// retention advance.
    pub(crate) fn commit_manifest(&mut self, text: &str) -> StoreResult<()> {
        self.poison_on_err(self.disk.write_atomic(MANIFEST, text.as_bytes()))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::disk::{FaultPlan, MemDisk};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::ops::Bound;
    use std::sync::{Arc, Mutex};

    pub(crate) fn open_mem() -> (MemDisk, Store<MemDisk>) {
        let disk = MemDisk::new();
        let store = Store::open_with(disk.clone(), None).unwrap();
        (disk, store)
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let (_d, mut store) = open_mem();
        store.put(Space::Instance, "p1", &b"alpha"[..]).unwrap();
        assert_eq!(
            store.get(Space::Instance, "p1").unwrap().unwrap(),
            &b"alpha"[..]
        );
        // Spaces are disjoint namespaces.
        assert_eq!(store.get(Space::Template, "p1").unwrap(), None);
        store.delete(Space::Instance, "p1").unwrap();
        assert_eq!(store.get(Space::Instance, "p1").unwrap(), None);
    }

    #[test]
    fn scan_prefix_is_ordered_and_scoped() {
        let (_d, mut store) = open_mem();
        for k in ["inst/2/b", "inst/1/a", "inst/1/b", "inst/10/c", "other"] {
            store
                .put(Space::Instance, k, Bytes::from(k.to_string()))
                .unwrap();
        }
        let hits = store.scan_prefix(Space::Instance, "inst/1").unwrap();
        let keys: Vec<_> = hits.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["inst/1/a", "inst/1/b", "inst/10/c"]);
    }

    /// The visiting scan sees what `scan_prefix` returns, in order, with
    /// and without a run tier under it, and an error from the visitor
    /// stops it there.
    #[test]
    fn visit_prefix_streams_the_scan_and_stops_on_error() {
        for tiered in [None, Some(tiny_tiered())] {
            let mut store = Store::open_with(MemDisk::new(), tiered).unwrap();
            for i in 0..60 {
                let key = format!("ev/{i:03}");
                store.put(Space::History, key, vec![i as u8; 90]).unwrap();
            }
            store.delete(Space::History, "ev/007").unwrap();
            store.put(Space::History, "other", &b"x"[..]).unwrap();
            assert_eq!(store.stats().spills > 0, tiered.is_some());
            let mut seen = Vec::new();
            store
                .visit_prefix(Space::History, "ev/", |k, v| {
                    seen.push((k.to_string(), v.clone()));
                    Ok::<(), StoreError>(())
                })
                .unwrap();
            assert_eq!(seen.len(), 59);
            assert_eq!(seen, store.scan_prefix(Space::History, "ev/").unwrap());
            let mut visited = 0;
            let stopped = store.visit_prefix(Space::History, "ev/", |k, _| {
                visited += 1;
                if k == "ev/002" {
                    return Err(VisitError(format!("stop at {k}")));
                }
                Ok(())
            });
            assert_eq!(stopped.unwrap_err().0, "stop at ev/002");
            assert_eq!(visited, 3);
            // From a start key on: the tail of the prefix, and nothing of
            // the keys beyond it; a start below the prefix is the prefix.
            for (start, expect) in [("ev/040", 20), ("ev/9", 0), ("a", 59), ("z", 0)] {
                let mut tail = Vec::new();
                store
                    .visit_prefix_from(Space::History, "ev/", start, |k, _| {
                        tail.push(k.to_string());
                        Ok::<(), StoreError>(())
                    })
                    .unwrap();
                let want: Vec<&String> = seen
                    .iter()
                    .map(|(k, _)| k)
                    .filter(|k| k.as_str() >= start)
                    .collect();
                assert_eq!(tail.iter().collect::<Vec<_>>(), want, "from {start}");
                assert_eq!(tail.len(), expect, "from {start}");
            }
        }
    }

    /// A caller's error type: anything a `StoreError` converts into.
    struct VisitError(String);

    impl From<StoreError> for VisitError {
        fn from(e: StoreError) -> Self {
            VisitError(e.to_string())
        }
    }

    #[test]
    fn reopen_replays_wal() {
        let (disk, mut store) = open_mem();
        store.put(Space::Template, "t", &b"T"[..]).unwrap();
        store.put(Space::History, "h", &b"H"[..]).unwrap();
        drop(store);
        let store2 = Store::open_with(disk, None).unwrap();
        assert_eq!(
            store2.get(Space::Template, "t").unwrap().unwrap(),
            &b"T"[..]
        );
        assert_eq!(store2.get(Space::History, "h").unwrap().unwrap(), &b"H"[..]);
        assert_eq!(store2.stats().batches_applied, 2);
    }

    #[test]
    fn batch_is_atomic_across_crash() {
        let (disk, mut store) = open_mem();
        store
            .put(Space::Instance, "committed", &b"yes"[..])
            .unwrap();
        // Crash 10 bytes into the next append, leaving a torn frame.
        // (set_fault_plan restarts the byte accounting at zero.)
        disk.set_fault_plan(Some(FaultPlan::after_bytes(10, true)));
        let mut batch = Batch::new();
        batch
            .put(Space::Instance, "a", &b"1"[..])
            .put(Space::Instance, "b", &b"2"[..]);
        assert!(matches!(
            store.apply(batch),
            Err(StoreError::SimulatedCrash)
        ));
        assert!(store.is_poisoned());
        assert!(matches!(
            store.get(Space::Instance, "a"),
            Err(StoreError::Poisoned)
        ));

        disk.reboot();
        let recovered = Store::open_with(disk, None).unwrap();
        assert!(recovered.stats().recovered_torn_tail);
        // Neither half of the batch is visible; the earlier record is.
        assert_eq!(recovered.get(Space::Instance, "a").unwrap(), None);
        assert_eq!(recovered.get(Space::Instance, "b").unwrap(), None);
        assert_eq!(
            recovered
                .get(Space::Instance, "committed")
                .unwrap()
                .unwrap(),
            &b"yes"[..]
        );
    }

    #[test]
    fn poison_models_server_crash() {
        let (disk, mut store) = open_mem();
        store.put(Space::Instance, "k", &b"v"[..]).unwrap();
        store.poison();
        assert!(matches!(
            store.put(Space::Instance, "k2", &b"v"[..]),
            Err(StoreError::Poisoned)
        ));
        let recovered = Store::open_with(disk, None).unwrap();
        assert_eq!(
            recovered.get(Space::Instance, "k").unwrap().unwrap(),
            &b"v"[..]
        );
        assert_eq!(recovered.get(Space::Instance, "k2").unwrap(), None);
    }

    #[test]
    fn overwrite_takes_latest_value_across_recovery() {
        let (disk, mut store) = open_mem();
        store.put(Space::Configuration, "node", &b"v1"[..]).unwrap();
        store.put(Space::Configuration, "node", &b"v2"[..]).unwrap();
        store.compact().unwrap();
        store.put(Space::Configuration, "node", &b"v3"[..]).unwrap();
        drop(store);
        let recovered = Store::open_with(disk, None).unwrap();
        assert_eq!(
            recovered
                .get(Space::Configuration, "node")
                .unwrap()
                .unwrap(),
            &b"v3"[..]
        );
    }

    #[test]
    fn torn_tail_is_truncated_on_disk_at_open() {
        let (disk, mut store) = open_mem();
        store
            .put(Space::Instance, "committed", &b"yes"[..])
            .unwrap();
        disk.set_fault_plan(Some(FaultPlan::after_bytes(10, true)));
        assert!(store.put(Space::Instance, "lost", &b"no"[..]).is_err());
        disk.reboot();

        let mut recovered = Store::open_with(disk.clone(), None).unwrap();
        let stats = recovered.stats();
        assert!(stats.recovered_torn_tail);
        assert!(stats.recovered_truncated_bytes > 0);
        // The torn bytes are gone from the device, so post-recovery appends
        // continue the valid prefix…
        recovered.put(Space::Instance, "after", &b"ok"[..]).unwrap();
        drop(recovered);
        // …and a *second* open replays every post-recovery batch instead of
        // discarding them as trailing garbage (regression: recovery used to
        // leave the torn tail on disk and append after it).
        let again = Store::open_with(disk, None).unwrap();
        assert!(!again.stats().recovered_torn_tail);
        assert_eq!(
            again.get(Space::Instance, "after").unwrap().unwrap(),
            &b"ok"[..]
        );
        assert_eq!(
            again.get(Space::Instance, "committed").unwrap().unwrap(),
            &b"yes"[..]
        );
        assert_eq!(again.get(Space::Instance, "lost").unwrap(), None);
    }

    #[test]
    fn poisoned_store_rejects_every_public_op_without_touching_disk() {
        let (disk, mut store) = open_mem();
        store.put(Space::Instance, "k", &b"v"[..]).unwrap();
        store.poison();
        let mutations_before = disk.mutation_count();

        let mut batch = Batch::new();
        batch.put(Space::Instance, "x", &b"1"[..]);
        assert!(matches!(store.apply(batch), Err(StoreError::Poisoned)));
        // Even a no-op batch is rejected: the handle is dead.
        assert!(matches!(
            store.apply(Batch::new()),
            Err(StoreError::Poisoned)
        ));
        assert!(matches!(
            store.apply_many([Batch::new()]),
            Err(StoreError::Poisoned)
        ));
        assert!(matches!(
            store.put(Space::Instance, "x", &b"1"[..]),
            Err(StoreError::Poisoned)
        ));
        assert!(matches!(
            store.delete(Space::Instance, "k"),
            Err(StoreError::Poisoned)
        ));
        assert!(matches!(
            store.get(Space::Instance, "k"),
            Err(StoreError::Poisoned)
        ));
        assert!(matches!(
            store.scan_prefix(Space::Instance, ""),
            Err(StoreError::Poisoned)
        ));
        assert!(matches!(
            store.len(Space::Instance),
            Err(StoreError::Poisoned)
        ));
        assert!(matches!(
            store.is_empty(Space::Instance),
            Err(StoreError::Poisoned)
        ));
        assert!(matches!(store.compact(), Err(StoreError::Poisoned)));
        assert_eq!(
            disk.mutation_count(),
            mutations_before,
            "a poisoned handle must never touch the disk"
        );
        assert!(store.is_poisoned());
    }

    #[test]
    fn file_disk_end_to_end() {
        let dir = std::env::temp_dir().join(format!("bioopera-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let disk = crate::disk::FileDisk::open(&dir).unwrap();
            let mut store = Store::open_with(disk, None).unwrap();
            store.put(Space::Template, "t", &b"body"[..]).unwrap();
            store.compact().unwrap();
            store.put(Space::Template, "u", &b"more"[..]).unwrap();
        }
        {
            let disk = crate::disk::FileDisk::open(&dir).unwrap();
            let store = Store::open_with(disk, None).unwrap();
            assert_eq!(
                store.get(Space::Template, "t").unwrap().unwrap(),
                &b"body"[..]
            );
            assert_eq!(
                store.get(Space::Template, "u").unwrap().unwrap(),
                &b"more"[..]
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn apply_many_coalesces_batches_into_one_append() {
        let (disk, mut store) = open_mem();
        let before = disk.mutation_count();
        let mut b1 = Batch::new();
        b1.put(Space::Instance, "a", &b"1"[..]);
        let mut b2 = Batch::new();
        b2.put(Space::History, "h", &b"2"[..])
            .delete(Space::Instance, "missing");
        store.apply_many([b1, b2, Batch::new()]).unwrap();
        assert_eq!(
            disk.mutation_count(),
            before + 1,
            "group commit must cost exactly one disk append"
        );
        assert_eq!(store.stats().batches_applied, 2);
        assert_eq!(store.get(Space::Instance, "a").unwrap().unwrap(), &b"1"[..]);
        assert_eq!(store.get(Space::History, "h").unwrap().unwrap(), &b"2"[..]);
        // Reopen replays both frames independently.
        drop(store);
        let recovered = Store::open_with(disk, None).unwrap();
        assert_eq!(recovered.stats().batches_applied, 2);
        assert_eq!(
            recovered.get(Space::History, "h").unwrap().unwrap(),
            &b"2"[..]
        );
    }

    #[test]
    fn apply_many_crash_preserves_whole_batch_prefix() {
        // Tear the coalesced append inside the *second* frame: recovery
        // must surface batch 1 completely and batch 2 not at all.
        let mut b1 = Batch::new();
        b1.put(Space::Instance, "first", &b"1"[..]);
        let mut b2 = Batch::new();
        b2.put(Space::Instance, "second-a", &b"2"[..])
            .put(Space::Instance, "second-b", &b"3"[..]);
        let frame1_len = wal::encode_frame(&b1.ops).len() as u64;

        let (disk, mut store) = open_mem();
        disk.set_fault_plan(Some(FaultPlan::after_bytes(frame1_len + 5, true)));
        assert!(store.apply_many([b1, b2]).is_err());
        assert!(store.is_poisoned());
        disk.reboot();

        let recovered = Store::open_with(disk, None).unwrap();
        assert!(recovered.stats().recovered_torn_tail);
        assert_eq!(
            recovered.get(Space::Instance, "first").unwrap().unwrap(),
            &b"1"[..]
        );
        assert_eq!(recovered.get(Space::Instance, "second-a").unwrap(), None);
        assert_eq!(recovered.get(Space::Instance, "second-b").unwrap(), None);
    }

    #[test]
    fn len_agrees_with_scan_prefix_across_mutations_and_reopen() {
        let (disk, mut store) = open_mem();
        let check = |store: &Store<MemDisk>| {
            for space in Space::ALL {
                assert_eq!(
                    store.len(space).unwrap(),
                    store.scan_prefix(space, "").unwrap().len(),
                    "len diverged from scan in {}",
                    space.name()
                );
                assert_eq!(
                    store.is_empty(space).unwrap(),
                    store.scan_prefix(space, "").unwrap().is_empty()
                );
            }
        };
        check(&store);
        for i in 0..50 {
            store
                .put(Space::History, format!("k{i}"), Bytes::from(vec![i as u8]))
                .unwrap();
            store
                .put(Space::Instance, format!("k{}", i % 7), &b"x"[..])
                .unwrap();
            if i % 3 == 0 {
                store.delete(Space::History, format!("k{}", i / 2)).unwrap();
            }
            check(&store);
        }
        store.compact().unwrap();
        check(&store);
        store.delete(Space::Instance, "k0").unwrap();
        check(&store);
        drop(store);
        let recovered = Store::open_with(disk, None).unwrap();
        check(&recovered);
        assert_eq!(recovered.len(Space::Instance).unwrap(), 6);
    }

    #[test]
    fn pre_overhaul_disk_image_reopens_byte_compatibly() {
        // A literal on-disk image in the frozen format (magic B1 0A, LE
        // length, LE CRC-32, op-count payload), built byte-by-byte rather
        // than through the current encoder, exactly as the pre-overhaul
        // engine laid it down: MANIFEST at epoch 2, a snapshot with two
        // records, a WAL with one further batch (an overwrite + a delete).
        let disk = legacy_image();
        let mut store = Store::open_with(disk, None).unwrap();
        let stats = store.stats();
        assert_eq!(stats.epoch, 2);
        assert!(!stats.recovered_torn_tail);
        assert_eq!(stats.batches_applied, 3);
        assert_eq!(store.get(Space::Template, "tmpl/blast").unwrap(), None);
        assert_eq!(
            store.get(Space::History, "ev/001").unwrap().unwrap(),
            &b"finished"[..]
        );
        assert_eq!(
            store.get(Space::Instance, "inst/7").unwrap().unwrap(),
            &b"running"[..]
        );
        // And the new engine's own output round-trips on top of it.
        store.put(Space::History, "ev/002", &b"post"[..]).unwrap();
        store.compact().unwrap();
    }

    /// Frozen WAL frame laid down byte-by-byte, exactly as the
    /// pre-overhaul engine encoded it.
    fn legacy_frame(ops: &[(u8, u8, &str, &[u8])]) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
        for (tag, space, key, value) in ops {
            payload.push(*tag);
            payload.push(*space);
            payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
            payload.extend_from_slice(key.as_bytes());
            if *tag == 0 {
                payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
                payload.extend_from_slice(value);
            }
        }
        let mut out = vec![0xB1, 0x0A];
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crate::crc::crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// A literal pre-overhaul on-disk image: MANIFEST at epoch 2, a
    /// snapshot with two records, a WAL with one further batch.
    fn legacy_image() -> MemDisk {
        let disk = MemDisk::new();
        disk.write_atomic(MANIFEST, b"2").unwrap();
        disk.write_atomic(
            "snapshot-000002",
            &legacy_frame(&[
                (0, 0, "tmpl/blast", b"{\"tasks\":3}"),
                (0, 3, "ev/001", b"started"),
            ]),
        )
        .unwrap();
        let mut log = legacy_frame(&[(0, 3, "ev/001", b"finished"), (0, 1, "inst/7", b"running")]);
        log.extend_from_slice(&legacy_frame(&[(1, 0, "tmpl/blast", b"")]));
        disk.write_atomic("wal-000002", &log).unwrap();
        disk
    }

    #[test]
    fn pre_overhaul_disk_image_upgrades_to_tiered_strictly_additively() {
        // Opening the frozen image must not rewrite, rename or delete a
        // single legacy byte, under a budget or under none.  Its first
        // roll — a spill either way: the budget's, or `compact()` with no
        // budget — adds a run the manifest lists and deletes the snapshot.
        let files = |disk: &MemDisk| -> BTreeMap<String, Vec<u8>> {
            let names = disk.list().unwrap();
            names
                .into_iter()
                .map(|n| {
                    let bytes = disk.read(&n).unwrap().unwrap();
                    (n, bytes)
                })
                .collect()
        };
        let records = |store: &Store<MemDisk>| -> Vec<(Space, String, Bytes)> {
            Space::ALL
                .into_iter()
                .flat_map(|s| {
                    let rows = store.scan_prefix(s, "").unwrap();
                    rows.into_iter().map(move |(k, v)| (s, k, v))
                })
                .collect()
        };
        for tiered in [None, Some(tiny_tiered())] {
            let ctx = format!("upgrade under {tiered:?}");
            let disk = legacy_image();
            let before = files(&disk);
            let mut store = Store::open_with(disk.clone(), tiered).unwrap();
            assert_eq!(
                store.get(Space::History, "ev/001").unwrap().unwrap(),
                &b"finished"[..]
            );
            assert_eq!(before, files(&disk), "{ctx}: open modified a legacy file");

            // With a budget the bulk crosses it; with none only `compact()`
            // rolls.  Afterwards the directory may only hold the frozen
            // kinds (MANIFEST, wal-<epoch>) plus run files the manifest
            // lists: the snapshot is gone.
            for i in 0..60u32 {
                store
                    .put(Space::History, format!("bulk/{i:04}"), vec![i as u8; 64])
                    .unwrap();
            }
            if tiered.is_none() {
                assert_eq!(store.stats().spills, 0, "{ctx}: no budget, no spill");
                store.compact().unwrap();
                assert_eq!(store.stats().runs, 1, "{ctx}");
            }
            assert!(store.stats().spills > 0, "{ctx}: never spilled");
            assert_only_live_files(&disk, &ctx);
            assert!(disk.list().unwrap().iter().any(|n| n.starts_with("run-")));
            let held = records(&store);
            assert_eq!(held.len(), 62, "{ctx}");
            drop(store);

            // Every record — legacy and new — reads the same through a
            // reopen with no budget.
            let reopened = Store::open_with(disk, None).unwrap();
            assert_eq!(records(&reopened), held, "{ctx}: the reopen diverged");
            assert_eq!(
                reopened.get(Space::History, "ev/001").unwrap().unwrap(),
                &b"finished"[..]
            );
            assert_eq!(
                reopened.get(Space::Instance, "inst/7").unwrap().unwrap(),
                &b"running"[..]
            );
            assert_eq!(reopened.get(Space::Template, "tmpl/blast").unwrap(), None);
            assert_eq!(
                reopened.get(Space::History, "bulk/0059").unwrap().unwrap(),
                &[59u8; 64][..]
            );
            assert_eq!(reopened.len(Space::History).unwrap(), 61);
        }
    }

    /// One owner writes, but readers may still share `&Store` across
    /// threads: what a read updates (the block cache, the read counters)
    /// keeps its own synchronisation.
    #[test]
    fn the_store_is_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Store<MemDisk>>();
        shareable::<Store<crate::disk::FileDisk>>();
    }

    pub(crate) fn tiny_tiered() -> TieredPolicy {
        TieredPolicy {
            memtable_budget_bytes: 2048,
            run_merge_threshold: 3,
            ..TieredPolicy::default()
        }
    }

    /// Every file on `disk` must be the manifest, the live WAL, or a run
    /// the manifest actually lists.
    pub(crate) fn assert_only_live_files(disk: &MemDisk, ctx: &str) {
        let manifest = match disk.read(MANIFEST).unwrap() {
            Some(bytes) => {
                parse_manifest(bytes).unwrap_or_else(|_| panic!("{ctx}: manifest unreadable"))
            }
            None => ManifestState::empty(),
        };
        let no_runs = manifest.run_names.is_empty() && manifest.level_runs.is_empty();
        for name in disk.list().unwrap() {
            let ok = name == MANIFEST
                || name == wal_name(manifest.epoch)
                || (no_runs && name == snapshot_name(manifest.epoch))
                || manifest.run_names.contains(&name)
                || manifest.level_runs.iter().any(|(_, n)| *n == name);
            assert!(ok, "{ctx}: stale file `{name}` survived recovery");
        }
    }

    #[test]
    fn tiny_budget_spills_and_reads_merge_across_tiers() {
        let disk = MemDisk::new();
        let mut store = Store::open_with(disk.clone(), Some(tiny_tiered())).unwrap();
        let mut model: BTreeMap<(u8, String), Vec<u8>> = BTreeMap::new();
        for i in 0..120u32 {
            let space = Space::from_u8((i % 4) as u8).unwrap();
            let key = format!("k/{:03}", i % 40);
            let value = vec![i as u8; 80];
            store
                .put(space, key.clone(), Bytes::from(value.clone()))
                .unwrap();
            model.insert((space.as_u8(), key), value);
            if i % 11 == 5 {
                let dk = format!("k/{:03}", (i + 3) % 40);
                store.delete(space, dk.clone()).unwrap();
                model.remove(&(space.as_u8(), dk));
            }
        }
        let stats = store.stats();
        assert!(stats.spills > 0, "budget never triggered a spill");
        assert!(stats.runs >= 1);
        assert!(
            stats.memtable_bytes <= tiny_tiered().memtable_budget_bytes + 512,
            "memtable grew unboundedly: {}",
            stats.memtable_bytes
        );

        let check = |store: &Store<MemDisk>| {
            for space in [
                Space::Template,
                Space::Instance,
                Space::Configuration,
                Space::History,
            ] {
                let expect: Vec<(String, Bytes)> = model
                    .range((space.as_u8(), String::new())..((space.as_u8() + 1), String::new()))
                    .map(|((_, k), v)| (k.clone(), Bytes::from(v.clone())))
                    .collect();
                assert_eq!(store.scan_prefix(space, "").unwrap(), expect, "{space:?}");
                assert_eq!(store.len(space).unwrap(), expect.len(), "{space:?}");
                for (k, v) in &expect {
                    assert_eq!(
                        store.get(space, k).unwrap().as_ref(),
                        Some(v),
                        "{space:?}/{k}"
                    );
                }
                // A visit from mid-range agrees with the model's tail.
                let tail: Vec<(String, Bytes)> = expect
                    .iter()
                    .filter(|(k, _)| k.as_str() >= "k/020")
                    .cloned()
                    .collect();
                let mut visited = Vec::new();
                store
                    .visit_prefix_from(space, "", "k/020", |k, v| {
                        visited.push((k.to_string(), v.clone()));
                        Ok::<(), StoreError>(())
                    })
                    .unwrap();
                assert_eq!(visited, tail);
            }
        };
        check(&store);

        // Point lookups for keys no run holds must be answered without
        // reading run data from disk: range/bloom gates skip runs, and
        // any block consulted must already sit in the cache.
        let before = store.stats();
        let reads_before = disk.bytes_read();
        for i in 0..50 {
            assert_eq!(
                store.get(Space::History, &format!("absent/{i}")).unwrap(),
                None
            );
        }
        let after = store.stats();
        assert!(
            after.bloom_skips > before.bloom_skips || after.cache_hits > before.cache_hits,
            "absent keys consulted neither the gates nor the cache"
        );
        assert_eq!(
            disk.bytes_read(),
            reads_before,
            "an absent-key lookup read run data from disk"
        );

        // The exact same state is visible after recovery.
        let reopened = Store::open_with(disk.clone(), Some(tiny_tiered())).unwrap();
        check(&reopened);
        assert_only_live_files(&disk, "after clean reopen");
    }

    #[test]
    fn an_unreached_budget_lays_down_the_same_bytes_as_no_budget() {
        // The same workload through a store with no memtable budget and
        // one whose budget is never crossed must leave byte-identical
        // directories: a budget only decides when to spill.
        let run = |tiered: Option<TieredPolicy>| -> MemDisk {
            let disk = MemDisk::new();
            let mut store = Store::open_with(disk.clone(), tiered).unwrap();
            for i in 0..30 {
                store
                    .put(
                        Space::Instance,
                        format!("i/{i:02}"),
                        Bytes::from(vec![i; 64]),
                    )
                    .unwrap();
            }
            store.delete(Space::Instance, "i/07").unwrap();
            store
                .apply_many((0..5).map(|i| {
                    let mut b = Batch::new();
                    b.put(Space::History, format!("ev/{i}"), &b"x"[..]);
                    b
                }))
                .unwrap();
            drop(store);
            // Reopen mid-workload, then roll: neither recovery nor the
            // spill may diverge.
            let mut store = Store::open_with(disk.clone(), tiered).unwrap();
            store.put(Space::Configuration, "c", &b"v"[..]).unwrap();
            store.compact().unwrap();
            store.delete(Space::Instance, "i/08").unwrap();
            disk
        };
        let unbudgeted = run(None);
        let budgeted = run(Some(TieredPolicy::default())); // 4 MiB budget, never hit
        let mut unbudgeted_files = unbudgeted.list().unwrap();
        let mut budgeted_files = budgeted.list().unwrap();
        unbudgeted_files.sort();
        budgeted_files.sort();
        assert_eq!(unbudgeted_files, budgeted_files);
        assert!(unbudgeted_files.iter().any(|n| n.starts_with("run-")));
        for name in &unbudgeted_files {
            assert_eq!(
                unbudgeted.read(name).unwrap(),
                budgeted.read(name).unwrap(),
                "file `{name}` diverged"
            );
        }
    }

    /// A disk that logs every ranged read, `(file, offset)`: which block
    /// of which run a scan loaded.
    #[derive(Clone, Default)]
    struct Recording {
        inner: MemDisk,
        reads: Arc<Mutex<Vec<(String, u64)>>>,
    }

    impl Disk for Recording {
        fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
            self.inner.read(name)
        }
        fn write_atomic(&self, name: &str, data: &[u8]) -> StoreResult<()> {
            self.inner.write_atomic(name, data)
        }
        fn append(&self, name: &str, data: &[u8]) -> StoreResult<()> {
            self.inner.append(name, data)
        }
        fn list(&self) -> StoreResult<Vec<String>> {
            self.inner.list()
        }
        fn delete(&self, name: &str) -> StoreResult<()> {
            self.inner.delete(name)
        }
        fn read_range(&self, name: &str, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
            self.reads.lock().unwrap().push((name.to_string(), offset));
            self.inner.read_range(name, offset, len)
        }
        fn file_size(&self, name: &str) -> StoreResult<Option<u64>> {
            self.inner.file_size(name)
        }
    }

    impl Recording {
        /// The reads logged since the last call, sorted.
        fn take_reads(&self) -> Vec<(String, u64)> {
            let mut reads = std::mem::take(&mut *self.reads.lock().unwrap());
            reads.sort();
            reads
        }
    }

    /// The scan before it streamed through the merge: every run's range,
    /// oldest first, folded into an ordered map, the memtable overlaid,
    /// then deletions and retired keys dropped.
    fn fold_scan<D: Disk>(
        disk: &D,
        mem: &BTreeMap<String, Option<Bytes>>,
        levels: &Levels,
        space: u8,
        start: &str,
        within: &dyn Fn(&str) -> bool,
    ) -> Vec<(String, Bytes)> {
        let mut merged: BTreeMap<String, Option<Bytes>> = BTreeMap::new();
        for run in levels.deeper.iter().rev().flatten().chain(&levels.l0) {
            let range = crate::runs::tests::scan_reference(run, disk, space, start, within);
            merged.extend(range.unwrap());
        }
        let in_mem = mem
            .range::<str, _>((Bound::Included(start), Bound::Unbounded))
            .take_while(|(k, _)| within(k));
        for (k, v) in in_mem {
            merged.insert(k.clone(), v.clone());
        }
        merged
            .into_iter()
            .filter_map(|(k, v)| Some((k, v?)))
            .filter(|(k, _)| !levels.retained(space, k))
            .collect()
    }

    type Rows = BTreeMap<(u8, String), Option<Vec<u8>>>;

    /// Keys of three spaces under three prefixes; a quarter tombstones;
    /// values long enough that a run of a few dozen entries spans blocks.
    fn rows() -> impl Strategy<Value = Rows> {
        let key = (
            0u8..3,
            prop::sample::select(vec!["a/", "b/", "c/"]),
            0u16..40,
        )
            .prop_map(|(space, prefix, k)| (space, format!("{prefix}{k:03}")));
        let value = prop_oneof![
            1 => Just(None),
            3 => prop::collection::vec(any::<u8>(), 0..900).prop_map(Some),
        ];
        prop::collection::btree_map(key, value, 0..40)
    }

    /// A random tier: overlapping L0 runs, and deeper levels of disjoint
    /// runs (one entry set cut at random places).
    #[derive(Debug)]
    struct Layout {
        l0: Vec<Rows>,
        deeper: Vec<(Rows, Vec<usize>)>,
        mem: Rows,
        retain: Option<(String, String)>,
    }

    fn layout() -> impl Strategy<Value = Layout> {
        let bound = (prop::sample::select(vec!["a/", "b/"]), 0u16..40)
            .prop_map(|(prefix, k)| format!("{prefix}{k:03}"));
        (
            prop::collection::vec(rows(), 0..4),
            prop::collection::vec((rows(), prop::collection::vec(0usize..40, 0..4)), 0..3),
            rows(),
            prop_oneof![1 => Just(None), 2 => (bound.clone(), bound).prop_map(Some)],
        )
            .prop_map(|(l0, deeper, mem, retain)| Layout {
                l0,
                deeper,
                mem,
                retain: retain.map(|(a, b)| (a.clone().min(b.clone()), a.max(b))),
            })
    }

    fn write_run(disk: &MemDisk, id: &mut u64, entries: &[crate::runs::RunEntry<'_>]) -> Run {
        let name = crate::runs::run_name(*id);
        *id += 1;
        disk.write_atomic(&name, &crate::runs::build_run(entries))
            .unwrap();
        Run::open(disk, &name).unwrap()
    }

    fn entries(rows: &Rows) -> Vec<crate::runs::RunEntry<'_>> {
        rows.iter()
            .map(|((space, key), value)| crate::runs::RunEntry {
                space: *space,
                key,
                value: value.as_deref(),
            })
            .collect()
    }

    /// The layout laid down as runs, with the retention watermark on the
    /// scanned space, and the memtable of every space.
    fn lay_down(disk: &MemDisk, layout: &Layout, space: u8) -> (Levels, MemTables) {
        let mut id = 0;
        let mut levels = Levels::default();
        for rows in &layout.l0 {
            levels.l0.push(write_run(disk, &mut id, &entries(rows)));
        }
        for (rows, cuts) in &layout.deeper {
            let rows = entries(rows);
            let mut cuts: Vec<usize> = cuts.iter().copied().filter(|&c| c < rows.len()).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut level = Vec::new();
            let mut from = 0;
            for end in cuts.into_iter().chain([rows.len()]) {
                if end > from {
                    level.push(write_run(disk, &mut id, &rows[from..end]));
                }
                from = end;
            }
            levels.deeper.push(level);
        }
        levels.retain[space as usize] = layout.retain.clone();
        // The memtable never holds a retired key: a write into the
        // watermark is dropped, and an advance purges what it covers.
        let mut mem = MemTables::default();
        for ((s, key), value) in &layout.mem {
            if !levels.retained(*s, key) {
                mem.spaces[*s as usize].insert(key.clone(), value.clone().map(Bytes::from));
            }
        }
        (levels, mem)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over any tier — overlapping L0 runs, disjoint deeper levels,
        /// tombstones over older values and in the memtable, a retention
        /// watermark — `visit_prefix_from` sees what the old merge-map
        /// fold saw, from a start inside a block and under prefixes that
        /// run to a space's end, and loads no block the fold did not load.
        #[test]
        fn the_merged_scan_is_the_fold_and_reads_no_more(
            layout in layout(),
            space in 0u8..3,
            prefix in prop::sample::select(vec!["", "a/", "a/01", "b/", "c/", "c/03", "d/"]),
            start in (prop::sample::select(vec!["", "a/", "b/", "c/"]), 0u16..400)
                .prop_map(|(p, k)| format!("{p}{k:04}")),
        ) {
            let disk = Recording::default();
            let mut store = Store::open_with(disk.clone(), Some(TieredPolicy::default())).unwrap();
            let (levels, mem) = lay_down(&disk.inner, &layout, space);
            let from = start.as_str().max(prefix);
            let within = |k: &str| k.starts_with(prefix);
            disk.take_reads();
            let expect = fold_scan(&disk, &mem.spaces[space as usize], &levels, space, from, &within);
            let fold_reads = disk.take_reads();
            store.levels = levels;
            store.mem = mem;
            let mut got = Vec::new();
            let space_of = Space::from_u8(space).unwrap();
            store.visit_prefix_from(space_of, prefix, &start, |k, v| {
                got.push((k.to_string(), v.clone()));
                Ok::<(), StoreError>(())
            })
            .unwrap();
            let scan_reads = disk.take_reads();
            // Keys and lengths first: a failure names them, not the bytes.
            let keys = |v: &[(String, Bytes)]| -> Vec<(String, usize)> {
                v.iter().map(|(k, b)| (k.clone(), b.len())).collect()
            };
            prop_assert_eq!(keys(&got), keys(&expect), "space {} from {:?}", space, start);
            prop_assert_eq!(&got, &expect);
            // Every block the scan loaded, the fold loaded too.
            let mut fold_left = fold_reads.clone();
            for read in &scan_reads {
                let at = fold_left.iter().position(|r| r == read);
                prop_assert!(at.is_some(), "the scan read {:?}, the fold never did ({:?})", read, fold_reads);
                fold_left.swap_remove(at.unwrap());
            }
        }
    }
}
