//! When the store rolls its WAL, and how big each tier may grow.
//!
//! Two independent policies: [`CompactionPolicy`] rolls the WAL into a
//! snapshot (the pre-tiering engine), [`TieredPolicy`] bounds resident
//! memory by spilling memtables to sorted runs and sizes the levels
//! beneath them.  This module is also the store's **single environment
//! read** ([`TieredPolicy::from_env`]): `Store::open` consults it,
//! `Store::open_with` never does.

use crate::cache::DEFAULT_BLOCK_CACHE_BUDGET;

/// When to roll the WAL into a snapshot automatically.  Installed with
/// [`crate::Store::set_compaction_policy`]; the store then compacts
/// itself right after the commit that crosses the threshold, so
/// month-long runs bound their recovery cost without the caller
/// sprinkling `compact()` calls.
///
/// With no policy installed (the default) the store never compacts on its
/// own — mutation sequences are exactly the caller's calls, which is what
/// the crash-point torture harness enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact once the live WAL exceeds this many bytes.
    pub wal_bytes_threshold: u64,
    /// …but only after at least this many batches in the current epoch,
    /// so a single oversized batch doesn't trigger a pointless roll.
    pub min_wal_batches: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            wal_bytes_threshold: 8 * 1024 * 1024,
            min_wal_batches: 4,
        }
    }
}

/// Bounded-memory tiering: once the memtables' estimated resident size
/// exceeds `memtable_budget_bytes`, the commit that crossed the budget
/// spills them to an L0 sorted-run file; once `run_merge_threshold` L0
/// runs exist they are merged — together with only the *overlapping*
/// L1 runs — into L1, and a deeper level that outgrows its byte budget
/// pushes one victim run down a level.  Tombstones are dropped only
/// when a merge output lands in the bottom level.
///
/// With no tiered policy installed (the default) the store behaves —
/// and lays bytes down — exactly as the pre-tiering engine, unless runs
/// already exist on disk from an earlier tiered session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieredPolicy {
    /// Spill once the memtables' estimated bytes exceed this.
    pub memtable_budget_bytes: u64,
    /// Compact L0 into L1 once this many L0 runs exist.
    pub run_merge_threshold: usize,
    /// Byte budget of L1; level *i* holds `level_base_bytes *
    /// level_growth^(i-1)`.  `0` derives a default from the memtable
    /// budget (`budget * threshold * 4`) so tiny test budgets exercise
    /// deep levels.
    pub level_base_bytes: u64,
    /// Fan-out between consecutive level budgets.
    pub level_growth: u64,
    /// Target size of each run a compaction writes; merge output is
    /// split at this boundary so one oversized run never forms.  `0`
    /// derives `max(memtable_budget_bytes, 4096)`.
    pub level_run_bytes: u64,
    /// Budget of the shared decoded-block cache
    /// ([`crate::cache::BlockCache`]); `0` disables caching.
    pub block_cache_budget: u64,
}

impl Default for TieredPolicy {
    fn default() -> Self {
        TieredPolicy {
            memtable_budget_bytes: 4 * 1024 * 1024,
            run_merge_threshold: 4,
            level_base_bytes: 0,
            level_growth: 8,
            level_run_bytes: 0,
            block_cache_budget: DEFAULT_BLOCK_CACHE_BUDGET,
        }
    }
}

impl TieredPolicy {
    /// Policy requested through the environment, if any:
    /// `BIOOPERA_MEMTABLE_BUDGET` (bytes) enables tiering;
    /// `BIOOPERA_RUN_MERGE`, `BIOOPERA_LEVEL_BASE` and
    /// `BIOOPERA_BLOCK_CACHE_BUDGET` optionally override the L0
    /// threshold, the L1 byte budget and the cache budget.  This is how
    /// the test suite forces constant spilling and deep levels across
    /// the whole workspace without touching call sites.
    pub fn from_env() -> Option<TieredPolicy> {
        let budget = std::env::var("BIOOPERA_MEMTABLE_BUDGET")
            .ok()?
            .trim()
            .parse()
            .ok()?;
        let merge = std::env::var("BIOOPERA_RUN_MERGE")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(TieredPolicy::default().run_merge_threshold);
        let level_base = std::env::var("BIOOPERA_LEVEL_BASE")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        let cache = std::env::var("BIOOPERA_BLOCK_CACHE_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_BLOCK_CACHE_BUDGET);
        Some(TieredPolicy {
            memtable_budget_bytes: budget,
            run_merge_threshold: merge.max(2),
            level_base_bytes: level_base,
            block_cache_budget: cache,
            ..TieredPolicy::default()
        })
    }

    /// Byte budget of level `level` (1-based; L0 is run-count-gated).
    pub(crate) fn level_cap(&self, level: usize) -> u64 {
        let base = if self.level_base_bytes > 0 {
            self.level_base_bytes
        } else {
            self.memtable_budget_bytes
                .saturating_mul(self.run_merge_threshold as u64)
                .saturating_mul(4)
                .max(4096)
        };
        let growth = self.level_growth.max(2);
        base.saturating_mul(growth.saturating_pow(level.saturating_sub(1) as u32))
    }

    /// Target output-run size for leveled compactions.
    pub(crate) fn run_target(&self) -> u64 {
        if self.level_run_bytes > 0 {
            self.level_run_bytes
        } else {
            self.memtable_budget_bytes.max(4096)
        }
    }
}
