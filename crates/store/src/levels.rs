//! The level layout of the sorted-run tier, and the point-read path
//! through it.
//!
//! **L0** holds freshly-spilled runs with overlapping key ranges (stored
//! oldest first, read newest-to-oldest); each deeper level holds runs
//! whose composite `(space, key)` ranges are pairwise disjoint and
//! sorted, so a point read binary-searches to at most one candidate run
//! per level.  Deeper always means older data.  Who may *change* the
//! layout is [`crate::compaction`]'s business; this module only answers
//! "where would this key be, and is it there".

use crate::cache::BlockCache;
use crate::disk::Disk;
use crate::error::StoreResult;
use crate::manifest::Retain;
use crate::runs::Run;
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};

/// Read-path counters that live outside the WAL lock (readers bump them
/// without serializing on writers).
#[derive(Default)]
pub(crate) struct TierMetrics {
    pub(crate) bloom_skips: AtomicU64,
    pub(crate) run_probes: AtomicU64,
}

/// The opened sorted-run tier plus the retention watermarks.
#[derive(Default)]
pub(crate) struct Levels {
    /// L0: overlapping runs, oldest first.
    pub(crate) l0: Vec<Run>,
    /// `deeper[i]` is level `i + 1`.
    pub(crate) deeper: Vec<Vec<Run>>,
    /// Per-space retention watermark `[start, below)`: keys inside are
    /// permanently retired — invisible to reads, dropped on writes
    /// (including WAL replay), physically reclaimed by compactions.
    pub(crate) retain: Retain,
}

impl Levels {
    /// True when no run exists at any level.
    pub(crate) fn no_runs(&self) -> bool {
        self.l0.is_empty() && self.deeper.iter().all(Vec::is_empty)
    }

    pub(crate) fn run_count(&self) -> usize {
        self.l0.len() + self.deeper.iter().map(Vec::len).sum::<usize>()
    }

    /// Populated levels beneath L0 (deepest non-empty level's number).
    pub(crate) fn depth(&self) -> usize {
        self.deeper
            .iter()
            .rposition(|l| !l.is_empty())
            .map_or(0, |i| i + 1)
    }

    /// Every run, oldest data first: deepest level upward, then L0 in
    /// spill order.  This is the fold order for merging scans (later
    /// entries overwrite earlier ones).
    pub(crate) fn iter_oldest_first(&self) -> impl Iterator<Item = &Run> {
        self.deeper.iter().rev().flatten().chain(self.l0.iter())
    }

    /// Is `key` inside the retention watermark of `space`?
    pub(crate) fn retained(&self, space: u8, key: &str) -> bool {
        self.retain
            .get(space as usize)
            .and_then(|r| r.as_ref())
            .is_some_and(|(start, below)| key >= start.as_str() && key < below.as_str())
    }

    /// Could the watermark of some space retire an entry of `run`?
    /// Block-granular and conservative (sparse index only).
    pub(crate) fn retains_part_of(&self, run: &Run) -> bool {
        self.retain.iter().enumerate().any(|(space, range)| {
            range.as_ref().is_some_and(|(start, below)| {
                run.any_block_intersects((space as u8, start), (space as u8, below))
            })
        })
    }

    /// The invariant of every level beneath L0: runs sorted by hull,
    /// hulls pairwise disjoint — what lets a point read binary-search to
    /// one run per level.
    pub(crate) fn deeper_levels_disjoint(&self) -> bool {
        self.deeper.iter().all(|level| {
            level.iter().all(|r| r.min_key() <= r.max_key())
                && level.windows(2).all(|w| w[0].max_key() < w[1].min_key())
        })
    }

    /// Might any run surface `key`?  Bloom-only, no I/O; used to decide
    /// whether a delete needs a tombstone.
    pub(crate) fn may_contain_any(&self, space: u8, key: &str) -> bool {
        self.iter_oldest_first().any(|r| r.may_contain(space, key))
    }
}

/// The run at a disjoint level that could hold `(space, key)`, if any:
/// binary search on the sorted run ranges, at most one candidate.
fn level_run_for<'a>(level: &'a [Run], space: u8, key: &str) -> Option<&'a Run> {
    let target = (space, key);
    let idx = level.partition_point(|r| r.min_key().is_some_and(|mk| mk <= target));
    let run = level.get(idx.checked_sub(1)?)?;
    run.max_key().is_some_and(|mk| mk >= target).then_some(run)
}

/// Per-lookup counter staging: one atomic flush per lookup instead of
/// one RMW per run probed.
#[derive(Default)]
struct LookupCounts {
    skips: u64,
    probes: u64,
    /// Bloom hash memo, shared by every run one lookup touches.
    hash: Option<(u64, u64)>,
}

impl LookupCounts {
    fn flush(&self, metrics: &TierMetrics) {
        if self.skips > 0 {
            metrics.bloom_skips.fetch_add(self.skips, Ordering::Relaxed);
        }
        if self.probes > 0 {
            metrics.run_probes.fetch_add(self.probes, Ordering::Relaxed);
        }
    }
}

/// Probe one run for `key`, asking first whatever can say *no*
/// cheapest: the key-range check (two composite compares — history
/// workloads write sequential keys, so sibling L0 runs rarely overlap),
/// then the bloom filter (seven bit probes; `counts.hash` memoizes the
/// hash pair, so one lookup hashes its key once however many runs it
/// touches), then the sparse index (a binary search over string keys),
/// and only then the block cache (a mutex, a hash probe and a second
/// binary search) and, on a cold block, the load.  The order follows the
/// traffic: the store's dominant lookup is the writer's read-before-write
/// (`apply_ops` keeping `len` exact), and most of those keys are in no
/// run — the filter answers them without touching the index or the
/// cache's lock.  Every gate either says "not in this run" or hands on,
/// so the answers and the block loads do not depend on the order; only
/// which cached blocks get their reference bit set does.  `Ok(None)` —
/// not in this run; `Ok(Some(None))` — tombstoned here;
/// `Ok(Some(Some(v)))` — live.
fn probe_run<D: Disk>(
    run: &Run,
    disk: &D,
    cache: &BlockCache,
    space: u8,
    key: &str,
    counts: &mut LookupCounts,
) -> StoreResult<Option<Option<Bytes>>> {
    let in_range = match (run.min_key(), run.max_key()) {
        (Some(lo), Some(hi)) => lo <= (space, key) && (space, key) <= hi,
        _ => false,
    };
    if !in_range {
        counts.skips += 1;
        return Ok(None);
    }
    let h = *counts
        .hash
        .get_or_insert_with(|| crate::bloom::hash_pair(space, key));
    if !run.may_contain_hashed(h) {
        counts.skips += 1;
        return Ok(None);
    }
    let Some(idx) = run.block_for(space, key) else {
        counts.skips += 1; // sparse index proves absence, no disk read
        return Ok(None);
    };
    counts.probes += 1;
    cache.lookup_or_load(run.id(), run.block_offset(idx), key, || {
        run.load_block_at(disk, idx)
    })
}

/// Look `key` up across the tier: L0 newest-to-oldest, then one
/// candidate run per disjoint level, shallowest (newest) first.
/// `Ok(None)` — in no run; `Ok(Some(None))` — newest occurrence is a
/// tombstone (or the key is retired); `Ok(Some(Some(v)))` — live.
pub(crate) fn levels_lookup<D: Disk>(
    levels: &Levels,
    disk: &D,
    metrics: &TierMetrics,
    cache: &BlockCache,
    space: u8,
    key: &str,
) -> StoreResult<Option<Option<Bytes>>> {
    if levels.retained(space, key) {
        return Ok(Some(None));
    }
    let mut counts = LookupCounts::default();
    let res = levels_lookup_inner(levels, disk, cache, space, key, &mut counts);
    counts.flush(metrics);
    res
}

fn levels_lookup_inner<D: Disk>(
    levels: &Levels,
    disk: &D,
    cache: &BlockCache,
    space: u8,
    key: &str,
    counts: &mut LookupCounts,
) -> StoreResult<Option<Option<Bytes>>> {
    for run in levels.l0.iter().rev() {
        if let Some(hit) = probe_run(run, disk, cache, space, key, counts)? {
            return Ok(Some(hit));
        }
    }
    for level in &levels.deeper {
        if let Some(run) = level_run_for(level, space, key) {
            if let Some(hit) = probe_run(run, disk, cache, space, key, counts)? {
                return Ok(Some(hit));
            }
        }
    }
    Ok(None)
}
